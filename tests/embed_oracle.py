"""Frozen per-text hash embedder: the bit-identity reference.

A copy of the offline embedder as it was before ``embed_many`` became one
batched numpy pass: each text walks its character 3-grams in Python,
hashes each one, and accumulates the signs with ``np.bincount``; the
row is then normalized in float64 and cast to float32. Tests compare
the production embedder against this copy with ``tobytes()``. Do not
optimize it.
"""

from __future__ import annotations

import functools
import hashlib
from itertools import repeat

import numpy as np


def _normalize(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return (vector / norm).astype(np.float32)


@functools.lru_cache(maxsize=1 << 16)
def gram_bucket(piece: str, dim: int) -> tuple[int, float]:
    """(coordinate, sign) of one gram: blake2b-64, low bit is the sign."""
    digest = hashlib.blake2b(piece.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    sign = 1.0 if (h & 1) == 0 else -1.0
    return (h >> 1) % dim, sign


def grams(text: str) -> list[str]:
    if len(text) < 3:
        return [text]
    return [text[i:i + 3] for i in range(len(text) - 2)]


def _raw(text: str, dim: int) -> np.ndarray:
    buckets, signs = zip(*map(gram_bucket, grams(text), repeat(dim)))
    acc = np.bincount(buckets, weights=signs, minlength=dim)
    if not acc.any():
        bucket, sign = gram_bucket("\x00" + text, dim)
        acc[bucket] = sign
    return acc


def embed(text: str, dim: int) -> np.ndarray:
    return _normalize(_raw(text, dim))


def embed_many(texts, dim: int) -> np.ndarray:
    texts = list(texts)
    out = np.zeros((len(texts), dim), dtype=np.float32)
    for i, text in enumerate(texts):
        out[i] = embed(text, dim)
    return out
