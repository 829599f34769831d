"""Sliding-window segmentation: closed forms and reconstruction invariants."""

import json
import math
import random

import pytest

from adam.chunker import (
    Chunk,
    read_corpus,
    reconstruct,
    segment_count,
    segment_start,
    segment_text,
)
from adam.errors import EmptyInputError, FormatError, WindowError


def test_reference_case_5800_chars():
    assert segment_count(5800, 2000, 400) == 4
    assert [segment_start(i, 2000, 400) for i in (1, 2, 3, 4)] == \
        [1, 1601, 3201, 4801]
    chunks = segment_text("a" * 5800, 2000, 400)
    assert [c.start for c in chunks] == [1, 1601, 3201, 4801]
    assert [len(c.text) for c in chunks] == [2000, 2000, 2000, 1000]


def test_single_window_cases():
    assert segment_count(2000, 2000, 400) == 1
    assert segment_count(1, 2000, 400) == 1
    assert segment_count(400, 2000, 400) == 1  # text shorter than overlap
    chunks = segment_text("xyz", 2000, 400)
    assert len(chunks) == 1 and chunks[0].text == "xyz" and chunks[0].start == 1


def test_chunk_metadata_carried():
    chunks = segment_text("q" * 100, 40, 10, publication_id="P1",
                          keywords=("a", "b"))
    assert all(c.publication_id == "P1" for c in chunks)
    assert all(c.topic_keywords == ("a", "b") for c in chunks)
    assert [c.segment_index for c in chunks] == list(range(1, len(chunks) + 1))


def test_window_validation():
    with pytest.raises(WindowError):
        segment_count(10, 0, 0)
    with pytest.raises(WindowError):
        segment_count(10, 5, 5)
    with pytest.raises(WindowError):
        segment_text("abc", 5, -1)
    with pytest.raises(EmptyInputError):
        segment_text("", 5, 1)
    with pytest.raises(EmptyInputError):
        segment_count(0, 5, 1)


def test_randomized_coverage_overlap_reconstruction():
    rng = random.Random(12345)
    for _ in range(300):
        length = rng.randint(1, 100_000)
        segment_length = rng.randint(1, 5000)
        overlap = rng.randint(0, segment_length - 1)
        text = "".join(chr(97 + rng.randrange(26))
                       for _ in range(min(length, 64)))
        text = (text * (length // max(1, len(text)) + 1))[:length]
        chunks = segment_text(text, segment_length, overlap)

        n = segment_count(length, segment_length, overlap)
        assert len(chunks) == n
        assert n == max(1, math.ceil((length - overlap)
                                     / (segment_length - overlap)))
        # coverage: first starts at 1, last reaches the end
        assert chunks[0].start == 1
        last = chunks[-1]
        assert last.start - 1 + len(last.text) == length
        for before, after in zip(chunks, chunks[1:]):
            # stride and shared-prefix invariants
            assert after.start - before.start == segment_length - overlap
            assert len(before.text) == segment_length
            assert before.text[len(before.text) - overlap:] == \
                after.text[:overlap]
        assert reconstruct(chunks, overlap) == text


def test_reconstruct_requires_chunks():
    with pytest.raises(EmptyInputError):
        reconstruct([], 10)


def test_reconstruct_sorts_by_index():
    chunks = segment_text("m" * 300 + "n" * 300, 100, 20)
    shuffled = list(reversed(chunks))
    assert reconstruct(shuffled, 20) == "m" * 300 + "n" * 300


def test_read_corpus_round_trip(corpus_path):
    docs = read_corpus(corpus_path)
    assert [d.publication_id for d in docs] == ["PUB0001", "PUB0002", "PUB0003"]
    assert [len(d.text) for d in docs] == [2000, 3600, 5800]
    assert docs[0].keywords == ("alzheimer", "diversity")
    assert docs[2].title == "Short-chain fatty acids in cognition"


def test_read_corpus_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"publication_id": "A", "text": "hello"}\nnot json\n',
                    encoding="utf-8")
    with pytest.raises(FormatError):
        read_corpus(path)
    path.write_text('{"publication_id": "A"}\n', encoding="utf-8")
    with pytest.raises(FormatError):
        read_corpus(path)
    path.write_text('{"publication_id": "A", "text": "x"}\n'
                    '{"publication_id": "A", "text": "y"}\n',
                    encoding="utf-8")
    with pytest.raises(FormatError):
        read_corpus(path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_read_corpus_numbers_lines_as_text_mode_does(tmp_path, ending):
    # U+2028, U+0085 and a form feed end a line for str.splitlines, but
    # not for a file read in text mode; CR LF, a lone CR and LF do.
    text = "one\u2028two\x85three\x0cfour"
    lines = [json.dumps({"publication_id": "A", "text": text},
                        ensure_ascii=False), "", "  ",
             json.dumps({"publication_id": "B", "text": "x"}), "not json"]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(ending.join(lines).encode("utf-8"))
    with pytest.raises(FormatError, match=f"^{path}: line 5: invalid JSON"):
        read_corpus(path)
    path.write_bytes(ending.join(lines[:4] + [""]).encode("utf-8"))
    docs = read_corpus(path)
    assert [(d.publication_id, d.text) for d in docs] == [("A", text), ("B", "x")]



@pytest.mark.parametrize("field", ["publication_id", "title", "text",
                                   "keywords"])
def test_read_corpus_rejects_lone_surrogates(tmp_path, field):
    doc = {"publication_id": "A", "title": "t", "text": "hello",
           "keywords": ["gut"]}
    doc[field] = ["g\ud800"] if field == "keywords" else "ab\ud800"
    path = tmp_path / "bad.jsonl"
    path.write_text('{"publication_id": "Z", "text": "fine"}\n'
                    + json.dumps(doc) + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_corpus(path)
    assert str(err.value).startswith(f"{path}: line 2: {field!r} must be ")

@pytest.mark.parametrize("title", [None, 5, ["t"], {"t": 1}])
def test_read_corpus_rejects_non_string_title(tmp_path, title):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"publication_id": "Z", "text": "fine"}\n'
                    + json.dumps({"publication_id": "A", "text": "hello",
                                  "title": title}) + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_corpus(path)
    assert str(err.value) == \
        f"{path}: line 2: 'title' must be a string of valid Unicode, got {title!r}"
    path.write_text('{"publication_id": "Z", "text": "fine"}\n',
                    encoding="utf-8")
    assert read_corpus(path)[0].title == ""


def test_chunk_is_frozen():
    chunk = Chunk("P", 1, 1, "abc")
    with pytest.raises(AttributeError):
        chunk.text = "zzz"
