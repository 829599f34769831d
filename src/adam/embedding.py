"""Text-to-vector backends.

Two backends share one contract (fixed dimension, unit-normalized
output, batch order preserved, ``embed(text) == embed_many([text])[0]``):

* ``OfflineHashEmbedder``: deterministic and dependency-free. Each
  character 3-gram is hashed; the hash picks a coordinate and its
  parity picks the sign; the accumulated vector is L2-normalized (the
  signed hashing trick of Weinberger et al. 2009). ``embed_many`` does
  one numpy pass per call: the batch's code points are packed three at
  a time into uint64 keys (21 bits each) for every gram that lies
  inside one text, ``np.unique`` finds the distinct grams, one
  ``np.searchsorted`` looks them up in a sorted table of the grams
  already hashed in this process (one table per dimension, shared by
  all instances, reset once it would pass ``GRAM_CACHE_SIZE`` entries),
  only the grams not found there are hashed and merged in, and one
  ``np.bincount`` scatters the signs of all rows. It exists so
  everything downstream runs without network access; it makes no
  semantic-quality claims.
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
    INTEGER,
    BackendError,
    DimensionError,
    EmptyInputError,
    FormatError,
    SizeGuardError,
    check_fields,
)
from .http_retry import JsonEndpoint

DEFAULT_MAX_CHARS = 8000
API_KEY_VARIABLE = "ADAM_EMBED_API_KEY"
TIMEOUT_SECONDS = 60.0
GRAM_CACHE_SIZE = 1 << 15
CODE_POINT_BITS = 21  # max code point U+10FFFF < 2**21


def _normalize(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return (vector / norm).astype(np.float32)


def _normalize_rows(rows, dim: int) -> np.ndarray:
    out = np.zeros((len(rows), dim), dtype=np.float32)
    for i, row in enumerate(rows):
        out[i] = _normalize(row)
    return out


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


# Per dimension: the sorted keys of the grams hashed so far in this
# process, with each key's coordinate and sign beside it. The last key is
# a sentinel above every gram key (those use 63 bits), so a lookup never
# runs off the end of a table. A table is never changed in place, only
# replaced whole, so a reader in another thread always sees a consistent
# one; an update lost to such a race only means those grams are hashed
# again.
_NO_GRAM = np.uint64(2**64 - 1)
_EMPTY_TABLE = (np.array([_NO_GRAM]), np.zeros(1, dtype=np.intp),
                np.zeros(1))
_gram_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _key_grams(keys: np.ndarray) -> list[str]:
    """The 3-character gram each packed key spells."""
    mask = np.uint64((1 << CODE_POINT_BITS) - 1)
    codes = np.stack([keys >> np.uint64(2 * CODE_POINT_BITS),
                      (keys >> np.uint64(CODE_POINT_BITS)) & mask,
                      keys & mask], axis=1)
    text = codes.astype("<u4").tobytes().decode("utf-32-le")
    return [text[i:i + 3] for i in range(0, len(text), 3)]


def _lookup_grams(distinct: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(coordinates, signs) of sorted distinct gram keys at ``dim``.

    One binary search finds the keys already in the table; only the
    others are hashed, then merged in. A table that would pass
    ``GRAM_CACHE_SIZE`` entries starts over with this call's grams.
    """
    keys, buckets, signs = _gram_tables.get(dim, _EMPTY_TABLE)
    at = np.searchsorted(keys, distinct)
    found_buckets, found_signs = buckets[at], signs[at]
    miss = np.flatnonzero(keys[at] != distinct)
    if not miss.size:
        return found_buckets, found_signs
    new = [_gram_bucket(gram, dim) for gram in _key_grams(distinct[miss])]
    new_buckets = np.array([b for b, _ in new], dtype=np.intp)
    new_signs = np.array([s for _, s in new])
    found_buckets[miss] = new_buckets
    found_signs[miss] = new_signs
    if keys.size - 1 + miss.size <= GRAM_CACHE_SIZE:
        _gram_tables[dim] = (np.insert(keys, at[miss], distinct[miss]),
                             np.insert(buckets, at[miss], new_buckets),
                             np.insert(signs, at[miss], new_signs))
    else:
        keep = slice(0, GRAM_CACHE_SIZE)
        _gram_tables[dim] = (np.append(distinct[keep], _NO_GRAM),
                             np.append(found_buckets[keep], 0),
                             np.append(found_signs[keep], 0.0))
    return found_buckets, found_signs


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
        joined = "".join(texts)
        codes = np.frombuffer(joined.encode("utf-32-le"),
                              dtype="<u4").astype(np.uint64)
        lengths = np.fromiter(map(len, texts), dtype=np.intp, count=n)
        owner = np.repeat(np.arange(n, dtype=np.intp), lengths)
        # A gram starts at p when p and p + 2 lie in the same text.
        starts = np.flatnonzero(owner[:-2] == owner[2:])
        keys = ((codes[starts] << np.uint64(2 * CODE_POINT_BITS))
                | (codes[starts + 1] << np.uint64(CODE_POINT_BITS))
                | codes[starts + 2])
        distinct, inverse = np.unique(keys, return_inverse=True)
        buckets, signs = _lookup_grams(distinct, dim)
        acc = np.bincount(owner[starts] * dim + buckets[inverse],
                          weights=signs[inverse],
                          minlength=n * dim).reshape(n, dim)
        for i, text in enumerate(texts):
            if len(text) < 3:
                bucket, sign = _gram_bucket(text, dim)
                acc[i, bucket] = sign
        for i in np.flatnonzero(~acc.any(axis=1)).tolist():
            bucket, sign = _gram_bucket("\x00" + texts[i], dim)
            acc[i, bucket] = sign
        return _normalize_rows(acc, dim)


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

    def _parse(self, doc, expected: int) -> list[list[float]]:
        """The vectors by row index: 0..n-1 on every row, or none (file order)."""
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
        vectors = [row["embedding"] for row in sorted(rows, key=lambda r: r["index"])]
        for vec in vectors:
            if len(vec) != self.dim:
                raise DimensionError(
                    f"backend returned dimension {len(vec)}, expected {self.dim}")
            if not any(vec) or not all(math.isfinite(v) for v in vec):
                raise BackendError("malformed embeddings response: "
                                   "an embedding is zero or not finite")
        return vectors

    def embed_many(self, texts) -> np.ndarray:
        texts = self._checked(texts)
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float32)
        doc = self._endpoint.post({"model": self.model, "input": texts}, "embedding")
        return _normalize_rows(self._parse(doc, len(texts)), self.dim)
