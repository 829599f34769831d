"""Text-to-vector backends and keyword-vector aggregation.

Two backends share one contract (fixed dimension, unit-normalized
output, batch order preserved):

* ``OfflineHashEmbedder``: deterministic and dependency-free. Each
  character 3-gram is hashed; the hash picks a coordinate and its
  parity picks the sign; the accumulated vector is L2-normalized. The
  gram -> (coordinate, sign) map is memoized per dimension in a bounded
  LRU cache shared by all instances, so repeated grams hash once. It
  exists so everything downstream runs without network access; it makes
  no semantic-quality claims.
* ``RemoteEmbedder``: POSTs {model, input list} to an HTTP embeddings
  endpoint, with a bounded concurrent-request cap and exponential
  backoff (1s base, doubling, 5 attempts). The credential comes from
  the ADAM_EMBED_API_KEY environment variable unless given explicitly.

``embed_keywords`` builds a publication-level vector as the
weight-normalized sum of its keyword vectors; weights default to
uniform when callers pass bare strings.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    BackendError,
    DimensionError,
    EmptyInputError,
    SizeGuardError,
    WeightError,
)

DEFAULT_DIMENSION = 1536
DEFAULT_MAX_CHARS = 8000
MAX_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
API_KEY_VARIABLE = "ADAM_EMBED_API_KEY"
GRAM_CACHE_SIZE = 1 << 15


def _normalize(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return (vector / norm).astype(np.float32)


class EmbeddingBackend:
    """Shared behavior: validation, batching, normalization."""

    name: str = "abstract"
    dim: int = 0
    max_chars: int | None = None

    def _raw(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def _check(self, text: str) -> None:
        if not isinstance(text, str) or not text:
            raise EmptyInputError("cannot embed empty text")
        if self.max_chars is not None and len(text) > self.max_chars:
            raise SizeGuardError(
                f"text of {len(text)} characters exceeds the {self.name} "
                f"backend limit of {self.max_chars}")

    def embed(self, text: str) -> np.ndarray:
        """Unit-normalized float32 vector of length ``dim``."""
        self._check(text)
        return _normalize(self._raw(text))

    def embed_many(self, texts) -> np.ndarray:
        """(n, dim) float32 matrix; row order matches input order."""
        texts = list(texts)
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            out[i] = self.embed(text)
        return out


@functools.lru_cache(maxsize=GRAM_CACHE_SIZE)
def _gram_bucket(piece: str, dim: int) -> tuple[int, float]:
    """(coordinate, sign) of one gram: blake2b-64, low bit is the sign."""
    digest = hashlib.blake2b(piece.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    sign = 1.0 if (h & 1) == 0 else -1.0
    return (h >> 1) % dim, sign


@dataclass(frozen=True)
class OfflineHashEmbedder(EmbeddingBackend):
    """Deterministic character-3-gram hashing embedder.

    Texts shorter than 3 characters contribute themselves as a single
    gram. In the measure-zero case where distinct grams cancel exactly,
    the whole text hashes to a single fallback coordinate so the output
    stays well defined.
    """

    dim: int = DEFAULT_DIMENSION
    max_chars: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dim}")

    @property
    def name(self) -> str:
        return f"offline-hash-{self.dim}"

    def _raw(self, text: str) -> np.ndarray:
        if len(text) < 3:
            grams = [text]
        else:
            grams = [text[i:i + 3] for i in range(len(text) - 2)]
        buckets, signs = zip(*map(_gram_bucket, grams, repeat(self.dim)))
        # Every partial sum is a small integer, so the order of the
        # additions cannot change a bit of the result.
        acc = np.bincount(buckets, weights=signs, minlength=self.dim)
        if not acc.any():
            bucket, sign = _gram_bucket("\x00" + text, self.dim)
            acc[bucket] = sign
        return acc


class RemoteEmbedder(EmbeddingBackend):
    """HTTP embeddings endpoint client.

    :param url: full endpoint URL.
    :param model: model identifier sent with each request.
    :param dim: expected vector dimension; responses of any other
        length raise DimensionError.
    :param api_key: bearer token; falls back to ADAM_EMBED_API_KEY.
    :param max_concurrency: cap on simultaneous in-flight requests.
    :param sleeper: injectable sleep function (tests pass a recorder).
    """

    def __init__(self, url: str, model: str = "text-embedding-ada-002",
                 dim: int = DEFAULT_DIMENSION,
                 api_key: str | None = None,
                 max_chars: int = DEFAULT_MAX_CHARS,
                 timeout: float = 60.0,
                 max_attempts: int = MAX_ATTEMPTS,
                 max_concurrency: int = 4,
                 session=None,
                 sleeper=time.sleep):
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        self.url = url
        self.model = model
        self.dim = dim
        self.max_chars = max_chars
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._api_key = api_key
        if session is None:
            import requests  # imported on first use: mock runs never load it
            session = requests.Session()
        self._session = session
        self._sleep = sleeper
        self._gate = threading.BoundedSemaphore(max_concurrency)

    @property
    def name(self) -> str:
        return f"remote-{self.model}"

    def _credential(self) -> str:
        key = self._api_key or os.environ.get(API_KEY_VARIABLE, "")
        if not key:
            raise BackendError(
                f"no API key: pass api_key or set {API_KEY_VARIABLE}")
        return key

    def _request(self, texts: list[str]) -> list[list[float]]:
        import requests

        payload = {"model": self.model, "input": texts}
        headers = {"Authorization": f"Bearer {self._credential()}"}
        delay = BACKOFF_BASE_SECONDS
        last = "no attempt made"
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self._gate:
                    response = self._session.post(self.url, json=payload,
                                                  headers=headers,
                                                  timeout=self.timeout)
            except requests.RequestException as exc:
                last = f"transport error: {exc}"
            else:
                if response.status_code == 200:
                    return self._parse(response.json(), len(texts))
                last = f"HTTP {response.status_code}"
                retryable = response.status_code >= 500 or response.status_code == 429
                if not retryable:
                    raise BackendError(
                        f"embedding request rejected after {attempt} "
                        f"attempt(s): {last}")
            if attempt < self.max_attempts:
                self._sleep(delay)
                delay *= BACKOFF_FACTOR
        raise BackendError(
            f"embedding request failed after {self.max_attempts} attempts: {last}")

    def _parse(self, doc, expected: int) -> list[list[float]]:
        try:
            rows = doc["data"]
            rows = sorted(rows, key=lambda r: r.get("index", 0))
            vectors = [row["embedding"] for row in rows]
        except (TypeError, KeyError) as exc:
            raise BackendError(f"malformed embeddings response: {exc}") from exc
        if len(vectors) != expected:
            raise BackendError(
                f"expected {expected} vectors, response carried {len(vectors)}")
        for vec in vectors:
            if len(vec) != self.dim:
                raise DimensionError(
                    f"backend returned dimension {len(vec)}, expected {self.dim}")
        return vectors

    def _raw(self, text: str) -> np.ndarray:
        return np.asarray(self._request([text])[0], dtype=np.float64)

    def embed_many(self, texts) -> np.ndarray:
        texts = list(texts)
        for text in texts:
            self._check(text)
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float32)
        vectors = self._request(texts)
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, vec in enumerate(vectors):
            out[i] = _normalize(np.asarray(vec, dtype=np.float64))
        return out


def embed_keywords(backend: EmbeddingBackend, keywords) -> np.ndarray:
    """Aggregate keyword vectors into one unit-normalized vector.

    :param keywords: strings (uniform weights) or (keyword, weight)
        pairs; weights must be finite, nonnegative, not all zero.
    """
    items: list[tuple[str, float]] = []
    for entry in keywords:
        if isinstance(entry, str):
            items.append((entry, 1.0))
        else:
            word, weight = entry
            items.append((str(word), float(weight)))
    if not items:
        raise EmptyInputError("need at least one keyword")
    for word, weight in items:
        if not np.isfinite(weight):
            raise WeightError(f"keyword {word!r} has non-finite weight {weight!r}")
        if weight < 0.0:
            raise WeightError(f"keyword {word!r} has negative weight {weight!r}")
    if not any(weight > 0.0 for _, weight in items):
        raise WeightError("all keyword weights are zero")
    vectors = backend.embed_many([word for word, _ in items])
    acc = np.zeros(backend.dim, dtype=np.float64)
    for i, (_, weight) in enumerate(items):
        acc += weight * vectors[i].astype(np.float64)
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        raise WeightError("keyword vectors cancel to the zero vector")
    return (acc / norm).astype(np.float32)
