"""The batched hash embedder against the frozen per-text oracle, bit for bit."""

import itertools
import random
import string

import numpy as np
import pytest

import embed_oracle as oracle
from adam import embedding
from adam.chunker import segment_text
from adam.embedding import OfflineHashEmbedder, RemoteEmbedder
from adam.errors import FormatError

DIMS = (1, 7, 64, 1536)


def _same_bytes(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _cancelling(dim):
    """First 4-letter text whose two grams cancel exactly at ``dim``."""
    for letters in itertools.product(string.ascii_lowercase, repeat=4):
        text = "".join(letters)
        acc = np.zeros(dim)
        for gram in oracle.grams(text):
            bucket, sign = oracle.gram_bucket(gram, dim)
            acc[bucket] += sign
        if not acc.any():
            return text
    raise AssertionError(f"no cancelling 4-letter text at dim {dim}")


@pytest.mark.parametrize("dim", DIMS)
def test_empty_batch(dim):
    got = OfflineHashEmbedder(dim=dim).embed_many([])
    _same_bytes(got, np.zeros((0, dim), dtype=np.float32))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("text", [
    pytest.param("a", id="1-char"),
    pytest.param("ab", id="2-char"),
    pytest.param("abc", id="3-char"),
    pytest.param("\U0001F9A0", id="astral-1"),
    pytest.param("\U0001F9A0\U0001F9A0", id="astral-2"),
    pytest.param("\U0001F9A0 gut \U0001F9A0\U0001F9A0\U0010FFFF", id="astral-mixed"),
    pytest.param("\x00", id="nul-1"),
    pytest.param("\x00\x00\x00\x00", id="nul-4"),
    pytest.param("a\x00b\x00c", id="nul-inner"),
    pytest.param("e\u0301\u0301a\u0308o\u0302", id="combining"),
    pytest.param("Gut microbiome diversity and Alzheimer's disease. " * 9,
                 id="sentence"),
])
def test_single_text_equals_oracle(dim, text):
    backend = OfflineHashEmbedder(dim=dim)
    want = oracle.embed(text, dim)
    _same_bytes(backend.embed(text), want)
    _same_bytes(backend.embed_many([text]), want[None, :])



@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("bits", range(16, 21))
def test_grams_that_collide_in_narrower_keys_stay_apart(dim, bits):
    # With code points packed ``bits`` wide, the top bit of U+(1 << bits)
    # would carry into the middle code point: "ab" + chr(1 << bits) would
    # share a key with "ac\x00". Packed 21 bits wide, they never do.
    backend = OfflineHashEmbedder(dim=dim)
    batch = ["ab" + chr(1 << bits) + " ac\x00", "ac\x00", "ab" + chr(1 << bits)]
    _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))

@pytest.mark.parametrize("dim", DIMS)
def test_cancelling_grams_take_the_fallback(dim):
    text = _cancelling(dim)
    backend = OfflineHashEmbedder(dim=dim)
    _same_bytes(backend.embed(text), oracle.embed(text, dim))
    # the fallback is decided per row: the other rows of the batch do not
    # cancel, and a zero row would not normalize
    batch = ["microbiome", text, "ab", text + text[::-1]]
    _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))


@pytest.mark.parametrize("dim", DIMS)
def test_mixed_batch_has_no_gram_across_texts(dim):
    backend = OfflineHashEmbedder(dim=dim)
    batch = ["ab", "cdef", "x", "\U0001F9A0\U0001F9A0\U0001F9A0",
             "e\u0301e", "\x00\x00\x00", "gut " * 40, "yz", _cancelling(dim),
             "gut " * 40]
    got = backend.embed_many(batch)
    _same_bytes(got, oracle.embed_many(batch, dim))
    _same_bytes(got, np.stack([backend.embed(t) for t in batch]))
    for a, b in itertools.combinations(batch[:5], 2):
        _same_bytes(backend.embed_many([a, b]),
                    np.stack([backend.embed(a), backend.embed(b)]))


def _seeded_corpus(seed=7, documents=200):
    """Documents of 2-6 segments (40 of each) at 2000/400, seeded words."""
    rng = random.Random(seed)
    words = ("gut microbiome relative abundance dysbiosis butyrate Shannon "
             "Index Bray-Curtis Alzheimer's disease amyloid tau cohort "
             "participants frailty Bacteroides Prevotella Akkermansia "
             "observed associated higher lower levels patients controls "
             "we the of and in was with").split()
    counts = [2, 3, 4, 5, 6] * (documents // 5)
    rng.shuffle(counts)
    texts = []
    for n in counts:
        length = 1600 * n + 400 - rng.randrange(1600)
        text = ""
        while len(text) < length:
            text += " ".join(rng.choice(words) for _ in range(12)) + ". "
        texts.append(text[:length])
    return texts


def test_seeded_corpus_shape_equals_oracle():
    dim = 1536
    backend = OfflineHashEmbedder(dim=dim)
    records = 0
    for text in _seeded_corpus():
        chunks = [c.text for c in segment_text(text, 2000, 400)]
        records += len(chunks)
        _same_bytes(backend.embed_many(chunks), oracle.embed_many(chunks, dim))
    assert records == 800


def test_unencodable_text_is_rejected_before_embedding():
    texts = ["fine text", "bad \ud800 text"]
    backend = OfflineHashEmbedder(dim=8)
    for call in (lambda: backend.embed(texts[1]),
                 lambda: backend.embed_many(texts)):
        with pytest.raises(FormatError, match="not valid Unicode"):
            call()
    remote = RemoteEmbedder("http://example.test", dim=3, api_key="k",
                            session=object(), sleeper=lambda s: None)
    with pytest.raises(FormatError):
        remote.embed_many(texts)


@pytest.mark.parametrize("dim", DIMS)
def test_batch_of_texts_shorter_than_a_gram(dim):
    # no text has a 3-gram, so nothing is counted before the short texts
    # take their own coordinate
    backend = OfflineHashEmbedder(dim=dim)
    batch = ["a", "ab", "\U0001F9A0", "\x00", "é", "ab"]
    _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))


EDGE_CODES = (0, 127, 128)


@pytest.mark.parametrize("dim", DIMS)
def test_code_points_at_the_ascii_edge_in_each_gram_position(dim):
    batch = ["a" + "".join(map(chr, codes)) + "z"
             for codes in itertools.product(EDGE_CODES, repeat=3)]
    backend = OfflineHashEmbedder(dim=dim)
    _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))
    _same_bytes(np.stack([backend.embed(t) for t in batch]),
                oracle.embed_many(batch, dim))


# The first dimension whose entries (2 * coordinate + 2 at most) do not fit
# in 16 bits, the last one whose entries do, and one well past it.
WIDE_DIMS = (1 << 15, (1 << 15) - 1, 40_000)


@pytest.mark.parametrize("dim", WIDE_DIMS)
def test_wide_dimensions_equal_oracle(dim):
    backend = OfflineHashEmbedder(dim=dim)
    batch = _seeded_corpus(documents=5)[:1] + [
        "gut \U0001F9A0 microbiome \U0010FFFF\U0001F9A0", "ab"]
    got = backend.embed_many(batch)
    _same_bytes(got, oracle.embed_many(batch, dim))
    assert np.flatnonzero(got[0]).max() >= 1 << 14  # high coordinates in use


# --- the process-wide ASCII gram table ------------------------------------------

TABLE_LIMIT = 1 << 22  # numpy asks for huge pages from 4 MiB


@pytest.fixture()
def fresh_tables(monkeypatch):
    """Empty ASCII gram tables for the test, restored afterwards."""
    tables = {}
    monkeypatch.setattr(embedding, "_ascii_tables", tables)
    return tables


def _decode(entry):
    """(coordinate, sign) of a table entry: 2 * coordinate + minus + 1."""
    entry = int(entry) - 1
    return entry >> 1, -1.0 if entry & 1 else 1.0


def _ascii_table_grams(tables, dim):
    """Each gram of the ASCII table at ``dim`` with its (coordinate, sign),
    decoded from the arrays independently of the embedder."""
    if dim not in tables:
        return {}
    offsets, rows = tables[dim]
    assert offsets.shape == (1 << 14,) and rows.size % 128 == 0
    assert not rows[:128].any()  # the shared row of pairs without one
    assert rows.dtype == (np.uint16 if dim < 1 << 15 else np.uint32)
    assert offsets.nbytes + rows.nbytes < TABLE_LIMIT
    used = offsets[offsets != 0].tolist()
    assert len(set(used)) == len(used) == rows.size // 128 - 1
    assert all(o % 128 == 0 for o in used)
    grams = {}
    for pair in np.flatnonzero(offsets).tolist():
        row = rows[offsets[pair]:offsets[pair] + 128]
        for last in np.flatnonzero(row).tolist():
            gram = chr(pair >> 7) + chr(pair & 127) + chr(last)
            grams[gram] = _decode(row[last])
    return grams


def _ascii_grams(batch):
    """The grams of three code points below 128 in the texts of ``batch``."""
    return {g for text in batch if len(text) >= 3 for g in oracle.grams(text)
            if max(map(ord, g)) < 128}


def _run_calls(tables, dim, batches):
    """Each batch embedded in turn equals the oracle, and the table holds
    exactly the ASCII grams met so far; returns those grams."""
    backend = OfflineHashEmbedder(dim=dim)
    seen = set()
    for batch in batches:
        _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))
        seen.update(_ascii_grams(batch))
        assert _ascii_table_grams(tables, dim) == {
            g: oracle.gram_bucket(g, dim) for g in seen}
    return seen


@pytest.mark.parametrize("dim", DIMS)
def test_table_grows_across_calls(fresh_tables, dim):
    # every call after the first finds some of its grams in the table
    batches = [["gut microbiome"], ["microbiome diversity", "gut"],
               ["diversity of the gut microbiome"] * 2,
               _seeded_corpus(documents=5)[:2], ["gut microbiome"]]
    seen = _run_calls(fresh_tables, dim, batches)
    assert len(_ascii_table_grams(fresh_tables, dim)) == len(seen) > 100


@pytest.mark.parametrize("dim", DIMS)
def test_table_holds_astral_grams(fresh_tables, dim):
    # the astral grams are hashed on each call and kept nowhere; the ASCII
    # ones of the same text go to the table
    astral = "\U0001F9A0\U0010FFFF\U0001F9A0 gut \U00020000\U0001F9A0"
    _run_calls(fresh_tables, dim, [[astral], [astral[::-1], astral],
                                   ["\U0010FFFF" * 4, astral]])
    assert set(_ascii_table_grams(fresh_tables, dim)) == {
        " gu", "gut", "ut ", " tu", "tug", "ug "}


@pytest.mark.parametrize("dim", DIMS)
def test_ascii_edge_grams_go_to_their_tables(fresh_tables, dim):
    batch = ["".join(map(chr, codes)) for codes in itertools.product(EDGE_CODES, repeat=3)]
    _run_calls(fresh_tables, dim, [batch[:13], batch, batch[::-1]])
    assert set(_ascii_table_grams(fresh_tables, dim)) == {
        g for g in batch if "\x80" not in g}


@pytest.mark.parametrize("dim", DIMS)
def test_short_texts_bypass_the_table(fresh_tables, dim):
    _run_calls(fresh_tables, dim, [["a", "ab", "\U0001F9A0"], ["ab"]])
    assert dim not in fresh_tables
    _run_calls(fresh_tables, dim, [["ab", "abc", "b"], ["abc", "a"]])
    assert list(_ascii_table_grams(fresh_tables, dim)) == ["abc"]


@pytest.mark.parametrize("dim", DIMS)
def test_cancelling_grams_from_the_table_take_the_fallback(fresh_tables, dim):
    text = _cancelling(dim)
    _run_calls(fresh_tables, dim, [[text], [text, "microbiome"], [text]])


def test_tables_per_dimension_interleaved(fresh_tables):
    batches = [["gut microbiome"], ["microbiome diversity"],
               ["gut \U0001F9A0 microbiome", "ab"]]
    backends = {dim: OfflineHashEmbedder(dim=dim) for dim in (7, 64, 1536) + WIDE_DIMS}
    for batch in batches:
        for dim, backend in backends.items():
            _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))
    grams = set().union(*map(_ascii_grams, batches))
    for dim in backends:
        assert _ascii_table_grams(fresh_tables, dim) == {
            g: oracle.gram_bucket(g, dim) for g in grams}


def test_tables_are_replaced_never_written(fresh_tables):
    backend = OfflineHashEmbedder(dim=64)
    backend.embed_many(["gut \U0001F9A0 microbiome"])
    before = [(a, a.copy()) for a in fresh_tables[64]]
    backend.embed_many(["diversity \U0001F9A0\U0001F9A0 of the gut"])
    after = fresh_tables[64]
    assert all(a is not old for a, (old, _) in zip(after, before))
    assert all(old.tobytes() == copy.tobytes() for old, copy in before)


# Every ASCII pair, as the even-position pairs of one 32768-character text.
EVERY_PAIR = "".join(chr(a) + chr(b) for a in range(128) for b in range(128))


@pytest.mark.parametrize("dim", (7, 1 << 15))
def test_ascii_table_stays_under_four_mib(fresh_tables, dim):
    # the text needs more rows than the limit allows; grams of pairs left
    # without a row are hashed again on each use
    backend = OfflineHashEmbedder(dim=dim)
    batch = [EVERY_PAIR, EVERY_PAIR[::-1]]
    for _ in range(2):
        _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))
        offsets, rows = fresh_tables[dim]
        assert offsets.nbytes + rows.nbytes < TABLE_LIMIT
        assert offsets.nbytes + rows.nbytes + 128 * rows.itemsize >= TABLE_LIMIT
    table = _ascii_table_grams(fresh_tables, dim)
    assert all(table[g] == oracle.gram_bucket(g, dim) for g in list(table)[::101])


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_full_ascii_table_stops_adding_rows(fresh_tables, monkeypatch, rows):
    # room for the shared zero row and ``rows - 1`` pairs
    limit = (1 << 14) * np.dtype(np.intp).itemsize + rows * 128 * 2 + 1
    monkeypatch.setattr(embedding, "ASCII_TABLE_BYTES", limit)
    dim = 64
    backend = OfflineHashEmbedder(dim=dim)
    batches = [["gut microbiome"], ["microbiome diversity", "gut"],
               ["diversity of the gut microbiome"], ["gut microbiome"]]
    for batch in batches:
        _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))
        table = _ascii_table_grams(fresh_tables, dim)
        offsets, stored = fresh_tables[dim]
        assert stored.size == 128 * rows
        assert table == {g: oracle.gram_bucket(g, dim) for g in table}
        assert len({g[:2] for g in table}) == rows - 1
