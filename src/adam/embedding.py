"""Text-to-vector backends.

Two backends share one contract (fixed dimension, unit-normalized
output, batch order preserved, ``embed(text) == embed_many([text])[0]``):

* ``OfflineHashEmbedder``: deterministic and dependency-free. Each
  character 3-gram is hashed; the hash picks a coordinate and its
  parity picks the sign; the accumulated vector is L2-normalized (the
  signed hashing trick of Weinberger et al. 2009). ``embed_many`` does
  one numpy pass per call over every gram that lies inside one text.
  A gram of three code points below 128 finds its table entry by
  direct index into a two-level table (its first two code points pick
  a 128-entry row, the third the entry). The table is per dimension,
  shared by all instances in the process, and stops adding rows before
  it reaches ``ASCII_TABLE_BYTES``. Any other gram is packed into a
  uint64 key (21 bits per code point), deduplicated and hashed on each
  call that meets it, as are the ASCII grams the table lacks.
  One ``np.bincount`` scatters the signs of all rows, and one
  vectorised step normalizes them. It exists so everything downstream
  runs without network access; it makes no semantic-quality claims.
* ``RemoteEmbedder``: POSTs {model, input list} to an HTTP embeddings
  endpoint, one request per ``embed_many`` call, through an
  ``http_retry.JsonEndpoint`` with a 60 s timeout. It refuses a text
  longer than DEFAULT_MAX_CHARS characters. The credential comes from
  the ADAM_EMBED_API_KEY environment variable unless given explicitly.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_DIMENSION, DEFAULT_EMBEDDING_MODEL
from .errors import (
    FINITE,
    INTEGER,
    BackendError,
    DimensionError,
    EmptyInputError,
    FormatError,
    SizeGuardError,
    check_fields,
)

DEFAULT_MAX_CHARS = 8000
API_KEY_VARIABLE = "ADAM_EMBED_API_KEY"
TIMEOUT_SECONDS = 60.0
CODE_POINT_BITS = 21  # max code point U+10FFFF < 2**21
# numpy asks for huge pages for an array of 4 MiB or more; the ASCII gram
# table's two arrays stay below that together.
ASCII_TABLE_BYTES = 1 << 22


class EmbeddingBackend:
    """Shared behavior: validation, single-text embedding."""

    dim: int

    def _check(self, text: str) -> None:
        if not isinstance(text, str) or not text:
            raise EmptyInputError("cannot embed empty text")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(f"cannot embed text that is not valid "
                              f"Unicode: {exc}") from exc

    def _checked(self, texts) -> list[str]:
        texts = list(texts)
        for text in texts:
            self._check(text)
        return texts

    def embed(self, text: str) -> np.ndarray:
        """Unit-normalized float32 vector of length ``dim``."""
        return self.embed_many([text])[0]

    def embed_many(self, texts) -> np.ndarray:
        """(n, dim) float32 matrix; row order matches input order."""
        raise NotImplementedError


def _gram_bucket(piece: str, dim: int) -> tuple[int, float]:
    """(coordinate, sign) of one gram: blake2b-64, low bit is the sign."""
    digest = hashlib.blake2b(piece.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    sign = 1.0 if (h & 1) == 0 else -1.0
    return (h >> 1) % dim, sign


def _entry_dtype(dim: int):
    """dtype of a gram table entry at ``dim``: an entry is
    2 * coordinate + (1 if the sign is negative) + 1, and 0 marks a gram
    not hashed yet, so 16 bits hold every entry below dim 32768."""
    return np.uint16 if dim < 1 << 15 else np.uint32


def _hash_entries(keys: np.ndarray, bits: int, dim: int) -> np.ndarray:
    """The table entry of each gram key (code points packed ``bits``
    wide), hashed one gram at a time."""
    keys = keys.astype(np.uint64)
    mask = np.uint64((1 << bits) - 1)
    codes = np.stack([keys >> np.uint64(2 * bits),
                      (keys >> np.uint64(bits)) & mask, keys & mask], axis=1)
    text = codes.astype("<u4").tobytes().decode("utf-32-le")
    entries = []
    for i in range(0, len(text), 3):
        bucket, sign = _gram_bucket(text[i:i + 3], dim)
        entries.append(2 * bucket + (sign < 0) + 1)
    return np.array(entries, dtype=_entry_dtype(dim))


# One table per dimension holds the entries of the ASCII grams hashed so
# far in this process. It is never changed in place, only replaced whole,
# so a reader in another thread always sees a consistent one; an update
# lost to such a race only means those grams are hashed again.
#
# A gram of three code points below 128 finds its entry by direct index:
# offsets[c0 << 7 | c1] is where the 128 entries of the pair (c0, c1) start
# in rows, and rows[offsets[c0 << 7 | c1] + c2] is the entry. Offset 0 is
# an all-zero row shared by the pairs that have no row yet. Rows are added
# until the two arrays would reach ASCII_TABLE_BYTES; after that, the grams
# of a pair without a row are hashed again on each use.
_ascii_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _with_ascii_grams(offsets: np.ndarray, rows: np.ndarray, keys: np.ndarray,
                      entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A new ASCII table: the given one plus the entries of the sorted
    distinct gram keys (7 bits per code point) it lacks."""
    pairs = keys >> 7
    rowless = np.zeros(1 << 14, dtype=bool)
    rowless[pairs[offsets[pairs] == 0]] = True
    room = (ASCII_TABLE_BYTES - 1 - offsets.nbytes) // (128 * rows.itemsize) - rows.size // 128
    fresh = np.flatnonzero(rowless)[:room]
    offsets = offsets.copy()
    offsets[fresh] = np.arange(rows.size, rows.size + 128 * fresh.size, 128)
    rows = np.concatenate([rows, np.zeros(128 * fresh.size, dtype=rows.dtype)])
    at = offsets[pairs] + (keys & 127)
    stored = at >= 128  # the gram's pair has a row
    rows[at[stored]] = entries[stored]
    return offsets, rows


def _gram_entries(codes: np.ndarray, straddle: np.ndarray, dim: int) -> np.ndarray:
    """Table entry of the gram at each start p (code points ``codes[p]``,
    ``codes[p + 1]`` and ``codes[p + 2]``, as intp) at ``dim``; the starts
    in ``straddle`` get 1 and are never hashed.

    Every start is first looked up in the ASCII table with its code points
    cut to 7 bits; the other grams are then hashed. Only those, and the
    ASCII grams the table lacks, are sorted and deduplicated.
    """
    first, mid, last = codes[:-2], codes[1:-1], codes[2:]
    offsets, rows = _ascii_tables.get(dim) or (
        np.zeros(1 << 14, dtype=np.intp), np.zeros(128, dtype=_entry_dtype(dim)))
    low = codes & 127
    pairs = (low[:-2] << 7) | low[1:-1]
    at = offsets.take(pairs)
    at += low[2:]
    found = rows.take(at)
    other = (first | mid | last) > 127
    other[straddle] = False
    other = np.flatnonzero(other)
    if other.size:
        width = np.uint64(CODE_POINT_BITS)
        grams = np.stack([first[other], mid[other], last[other]]).astype(np.uint64)
        keys = (grams[0] << width | grams[1]) << width | grams[2]
        distinct, inverse = np.unique(keys, return_inverse=True)
        found[other] = _hash_entries(distinct, CODE_POINT_BITS, dim)[inverse]
    found[straddle] = 1
    miss = np.flatnonzero(found == 0)
    if miss.size:
        distinct, inverse = np.unique((pairs[miss] << 7) | low[miss + 2],
                                      return_inverse=True)
        new = _hash_entries(distinct, 7, dim)
        found[miss] = new[inverse]
        _ascii_tables[dim] = _with_ascii_grams(offsets, rows, distinct, new)
    return found


@dataclass(frozen=True)
class OfflineHashEmbedder(EmbeddingBackend):
    """Deterministic character-3-gram hashing embedder.

    Texts shorter than 3 characters contribute themselves as a single
    gram. In the measure-zero case where distinct grams cancel exactly,
    the whole text hashes to a single fallback coordinate so the output
    stays well defined. Every coordinate is a sum of +-1, an exact
    integer, so neither the order of the additions nor batching texts
    together can change a bit of a row.
    """

    dim: int = DEFAULT_DIMENSION

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dim}")

    def embed_many(self, texts) -> np.ndarray:
        texts = self._checked(texts)
        n, dim = len(texts), self.dim
        if not n:
            return np.zeros((0, dim), dtype=np.float32)
        codes = np.frombuffer("".join(texts).encode("utf-32-le"),
                              dtype="<u4").astype(np.intp)
        lengths = np.fromiter(map(len, texts), dtype=np.intp, count=n)
        ends = np.cumsum(lengths[:-1])
        # The gram at p straddles two texts when one ends at p + 1 or p + 2.
        straddle = np.concatenate([ends - 2, ends - 1])
        straddle = straddle[(straddle >= 0) & (straddle < codes.size - 2)]
        entries = _gram_entries(codes, straddle, dim)
        # Entry e of text i adds +1 (e odd) or -1 (e even) to coordinate
        # (e - 1) // 2 of row i; a straddling gram adds to a slot past the
        # last row.
        slots = np.repeat(np.arange(n, dtype=np.intp) * dim, lengths)[:entries.size]
        slots += (entries - 1) >> 1
        slots[straddle] = n * dim
        signs = (entries & 1) * 2.0 - 1.0
        # (a batch with no gram at all gets integer counts, hence the astype)
        acc = np.bincount(slots, signs, minlength=n * dim + 1).astype(
            np.float64, copy=False)[:-1].reshape(n, dim)
        for i, text in enumerate(texts):
            if len(text) < 3:
                bucket, sign = _gram_bucket(text, dim)
                acc[i, bucket] = sign
        for i in np.flatnonzero(~acc.any(axis=1)).tolist():
            bucket, sign = _gram_bucket("\x00" + texts[i], dim)
            acc[i, bucket] = sign
        # The sum of squares of integers is exact in any order, so each row
        # has the norm np.linalg.norm gives it alone.
        acc /= np.sqrt(np.einsum("ij,ij->i", acc, acc))[:, None]
        return acc.astype(np.float32)


_REPLY_FIELDS = {"data": (lambda v: isinstance(v, list) and all(
    isinstance(row, dict) for row in v), "a list of objects")}
_ROW_FIELDS = {"index": INTEGER, "embedding": (lambda v: isinstance(v, list) and all(
    type(x) in (int, float) for x in v), "a list of numbers")}


class RemoteEmbedder(EmbeddingBackend):
    """HTTP embeddings endpoint client.

    Requests are sequential: each ``embed_many`` call sends one request
    carrying the whole batch.

    :param url: full endpoint URL.
    :param model: model identifier sent with each request.
    :param dim: expected vector dimension; responses of any other
        length raise DimensionError.
    :param api_key: bearer token; falls back to ADAM_EMBED_API_KEY.
    :param session, sleeper: passed to ``JsonEndpoint`` (tests pass fakes).
    """

    def __init__(self, url: str, model: str = DEFAULT_EMBEDDING_MODEL,
                 dim: int = DEFAULT_DIMENSION, api_key: str | None = None,
                 session=None, sleeper=time.sleep):
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        from .http_retry import JsonEndpoint

        self.model = model
        self.dim = dim
        self._endpoint = JsonEndpoint(url, API_KEY_VARIABLE, TIMEOUT_SECONDS,
                                      api_key, session, sleeper)

    def _check(self, text: str) -> None:
        super()._check(text)
        if len(text) > DEFAULT_MAX_CHARS:
            raise SizeGuardError(
                f"text of {len(text)} characters exceeds the remote-{self.model} "
                f"backend limit of {DEFAULT_MAX_CHARS}")

    def _parse(self, doc, expected: int) -> list[np.ndarray]:
        """The unit float32 vectors by row index: 0..n-1 on every row, or
        none (file order). A vector whose float64 norm is zero or not finite
        (an underflow or overflow included) raises BackendError."""
        where = "malformed embeddings response"
        check_fields(doc, _REPLY_FIELDS, where, BackendError)
        rows = doc["data"]
        if not any("index" in row for row in rows):
            rows = [{"index": i, **row} for i, row in enumerate(rows)]
        for i, row in enumerate(rows):
            check_fields(row, _ROW_FIELDS, f"{where}: data[{i}]", BackendError)
        if sorted(row["index"] for row in rows) != list(range(expected)):
            raise BackendError(f"{where}: expected {expected} vectors, one per index "
                               f"0 to {expected - 1}; response carried {len(rows)}")
        vectors = []
        for i in sorted(range(len(rows)), key=lambda j: rows[j]["index"]):
            vec = rows[i]["embedding"]
            if len(vec) != self.dim:
                raise DimensionError(
                    f"backend returned dimension {len(vec)}, expected {self.dim}")
            norm = 0.0
            if all(FINITE[0](v) for v in vec):
                vec = np.asarray(vec, dtype=np.float64)
                with np.errstate(over="ignore"):
                    norm = float(np.linalg.norm(vec))
            if not 0.0 < norm < math.inf:
                raise BackendError(f"{where}: data[{i}]: 'embedding' must have a "
                                   "finite, nonzero norm")
            vectors.append((vec / norm).astype(np.float32))
        return vectors

    def embed_many(self, texts) -> np.ndarray:
        texts = self._checked(texts)
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float32)
        doc = self._endpoint.post({"model": self.model, "input": texts}, "embedding")
        return np.stack(self._parse(doc, len(texts)))
