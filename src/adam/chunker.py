"""Overlapping fixed-window text segmentation.

A text of length L is cut into windows of s characters whose starts
advance by the stride s - o, so consecutive windows share o characters:

    p_i = 1 + (i - 1) * (s - o)          (1-based start of segment i)
    n   = max(1, ceil((L - o) / (s - o)))  (number of segments)

Every segment except possibly the last has exactly s characters; the
last is truncated at L and never padded. Removing the first o
characters of every segment after the first and concatenating restores
the original text exactly.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .config import DEFAULT_OVERLAP, DEFAULT_SEGMENT_LENGTH
from .errors import (STRINGS, EmptyInputError, FormatError, WindowError, check_fields,
                     parse_object, read_text)


class Chunk(NamedTuple):
    """One segment of a publication's text."""

    publication_id: str
    segment_index: int  # 1-based
    start: int  # 1-based character offset into the source text
    text: str
    topic_keywords: tuple[str, ...] = ()


class CorpusDocument(NamedTuple):
    """One publication read from a JSONL corpus file."""

    publication_id: str
    title: str
    text: str
    keywords: tuple[str, ...] = ()


def _check_window(segment_length: int, overlap: int) -> None:
    if segment_length < 1:
        raise WindowError(f"segment length must be >= 1, got {segment_length}")
    if not 0 <= overlap < segment_length:
        raise WindowError(
            f"overlap must satisfy 0 <= overlap < segment length, "
            f"got overlap={overlap}, segment length={segment_length}"
        )


def segment_start(index: int,
                  segment_length: int = DEFAULT_SEGMENT_LENGTH,
                  overlap: int = DEFAULT_OVERLAP) -> int:
    """1-based start position of the 1-based ``index``-th segment."""
    _check_window(segment_length, overlap)
    if index < 1:
        raise ValueError(f"segment index is 1-based, got {index}")
    return 1 + (index - 1) * (segment_length - overlap)


def segment_count(text_length: int,
                  segment_length: int = DEFAULT_SEGMENT_LENGTH,
                  overlap: int = DEFAULT_OVERLAP) -> int:
    """Number of windows covering a text of ``text_length`` characters.

    Texts no longer than the overlap still need one segment, hence the
    max(1, ...) guard.
    """
    _check_window(segment_length, overlap)
    if text_length < 1:
        raise EmptyInputError(f"text length must be >= 1, got {text_length}")
    return max(1, math.ceil((text_length - overlap) / (segment_length - overlap)))


def segment_text(text: str,
                 segment_length: int = DEFAULT_SEGMENT_LENGTH,
                 overlap: int = DEFAULT_OVERLAP,
                 publication_id: str = "",
                 keywords: tuple[str, ...] = ()) -> list[Chunk]:
    """Cut ``text`` into overlapping chunks.

    :param text: source text; must be non-empty.
    :param segment_length: window size s in characters.
    :param overlap: shared prefix length o between consecutive windows.
    :param publication_id: carried onto every chunk.
    :param keywords: topic keywords carried onto every chunk.
    :returns: list of exactly segment_count(len(text), s, o) chunks.
    """
    _check_window(segment_length, overlap)
    if not text:
        raise EmptyInputError("cannot segment an empty text")
    n = segment_count(len(text), segment_length, overlap)
    chunks = []
    for i in range(1, n + 1):
        start = segment_start(i, segment_length, overlap)
        piece = text[start - 1:start - 1 + segment_length]
        chunks.append(Chunk(publication_id=publication_id,
                            segment_index=i,
                            start=start,
                            text=piece,
                            topic_keywords=tuple(keywords)))
    return chunks


def reconstruct(chunks: list[Chunk], overlap: int = DEFAULT_OVERLAP) -> str:
    """Invert segment_text: drop each non-initial chunk's overlap prefix."""
    if not chunks:
        raise EmptyInputError("cannot reconstruct from zero chunks")
    ordered = sorted(chunks, key=lambda c: c.segment_index)
    parts = [ordered[0].text]
    parts.extend(c.text[overlap:] for c in ordered[1:])
    return "".join(parts)


def _encodable(value) -> bool:
    """Whether a string (or list of strings) can be written as UTF-8: a
    JSON escape can decode to a lone surrogate, which cannot."""
    try:
        for item in ([value] if isinstance(value, str) else value):
            item.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


_NON_EMPTY = (lambda v: isinstance(v, str) and v != "" and _encodable(v),
              "a non-empty string of valid Unicode")
_LINE_FIELDS = {
    "publication_id": _NON_EMPTY, "text": _NON_EMPTY,
    "title": (lambda v: isinstance(v, str) and _encodable(v), "a string of valid Unicode"),
    "keywords": (lambda v: STRINGS[0](v) and _encodable(v),
                 "a list of strings of valid Unicode")}


def _lines(text: str):
    """The lines of text, split where a file opened in text mode splits
    them: at CR LF, a lone CR and LF (str.splitlines would also split at
    characters JSON strings may hold, such as U+2028). Each line is sliced
    from text when it is reached; text is copied only if it holds a CR."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def read_corpus(path: str | Path) -> list[CorpusDocument]:
    """Read a JSONL corpus: one object per line with keys
    publication_id, text, and optionally title (a string, default "")
    and keywords.
    """
    docs = []
    seen = set()
    for lineno, line in enumerate(_lines(read_text(path)), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}: line {lineno}"
        obj = {"title": "", "keywords": [], **parse_object(line, where)}
        check_fields(obj, _LINE_FIELDS, where)
        pub = obj["publication_id"]
        if pub in seen:
            raise FormatError(f"{where}: duplicate publication_id {pub!r}")
        seen.add(pub)
        docs.append(CorpusDocument(pub, obj["title"], obj["text"],
                                   tuple(obj["keywords"])))
    if not docs:
        raise FormatError(f"{path}: no documents found")
    return docs
