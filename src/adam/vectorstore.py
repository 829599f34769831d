"""Multi-collection vector database with exact thresholded top-k search.

Collections are immutable snapshots of (chunk metadata, float32 vector)
records. Search is an exhaustive cosine scan: results are provably
identical to a brute-force linear pass, which keeps every retrieval
oracle-testable. No approximate index, no in-place mutation.

On disk each collection is one ``<name>.advec`` file:

    bytes 0-7    magic "ADAMVEC1"
    bytes 8-11   dimension, 32-bit little-endian unsigned
    bytes 12-19  record count, 64-bit little-endian unsigned
    bytes 20-23  CRC-32 of the records payload, little-endian
    bytes 24-    records: [metadata length u32 LE][metadata UTF-8 JSON]
                 [dimension x float32 LE], repeated count times

Writes go to a temporary file renamed into place, so readers only ever
observe complete stores.
"""

from __future__ import annotations

import functools
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chunker import (
    DEFAULT_OVERLAP,
    DEFAULT_SEGMENT_LENGTH,
    CorpusDocument,
    segment_text,
)
from .embedding import EmbeddingBackend
from .errors import (
    DimensionError,
    DuplicateRecordError,
    IntegrityError,
)

MAGIC = b"ADAMVEC1"
DEFAULT_TOP_K = 5
DEFAULT_THRESHOLD = 0.8
STORE_SUFFIX = ".advec"

DEFAULT_ROUTING = {
    "alzheimers": ("alzheimer",),
    "microbiome": ("microbiome", "gut", "immunosenescence",
                   "bacterial", "microbial"),
}
DEFAULT_COLLECTION = "alzheimers"


@dataclass(frozen=True, eq=False)
class VectorRecord:
    """One embedded chunk."""

    publication_id: str
    segment_index: int
    text: str
    topic_keywords: tuple[str, ...]
    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float32).ravel()
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "topic_keywords", tuple(self.topic_keywords))

    @property
    def key(self) -> tuple[str, int]:
        return (self.publication_id, self.segment_index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorRecord):
            return NotImplemented
        return (self.publication_id == other.publication_id
                and self.segment_index == other.segment_index
                and self.text == other.text
                and self.topic_keywords == other.topic_keywords
                and self.vector.tobytes() == other.vector.tobytes())

    def __hash__(self) -> int:
        return hash(self.key)


@dataclass(frozen=True)
class RetrievalHit:
    publication_id: str
    segment_index: int
    similarity: float
    collection: str
    text: str


@dataclass(frozen=True, eq=False)
class Collection:
    """Immutable named set of records sharing one dimension."""

    name: str
    dim: int
    records: tuple[VectorRecord, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dim}")
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        seen = set()
        matrix = np.zeros((len(records), self.dim), dtype=np.float32)
        for i, rec in enumerate(records):
            if rec.vector.size != self.dim:
                raise DimensionError(
                    f"record {rec.key} has dimension {rec.vector.size}, "
                    f"collection {self.name!r} expects {self.dim}")
            if rec.key in seen:
                raise DuplicateRecordError(
                    f"duplicate record {rec.key} in collection {self.name!r}")
            seen.add(rec.key)
            matrix[i] = rec.vector
        matrix.flags.writeable = False
        object.__setattr__(self, "_matrix", matrix)

    @property
    def count(self) -> int:
        return len(self.records)

    @functools.cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row indices, float64 rows, row norms) of the nonzero records.

        Built on the first search and kept; a collection never changes,
        so neither does its scan matrix.
        """
        matrix = self._matrix.astype(np.float64)
        norms = np.linalg.norm(matrix, axis=1)
        nonzero = norms > 0.0
        if not nonzero.all():
            matrix = matrix[nonzero]
        matrix.flags.writeable = False
        return np.flatnonzero(nonzero), matrix, norms[nonzero]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Collection):
            return NotImplemented
        return (self.name == other.name and self.dim == other.dim
                and self.records == other.records)


def _as_query(query, dim: int) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64).ravel()
    if q.size != dim:
        raise DimensionError(f"query has dimension {q.size}, expected {dim}")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValueError("query vector has zero norm")
    return q / norm


def search(collections, query, k: int = DEFAULT_TOP_K,
           threshold: float = DEFAULT_THRESHOLD) -> tuple[RetrievalHit, ...]:
    """Thresholded cosine top-k across one or more collections.

    Fans out, merges, keeps similarity >= threshold, returns the k best
    in descending similarity; exact ties order by (publication_id,
    segment_index, collection) ascending.
    """
    if isinstance(collections, Collection):
        collections = (collections,)
    collections = tuple(collections)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {threshold}")
    hits: list[RetrievalHit] = []
    for coll in collections:
        if coll.count == 0:
            continue
        q = _as_query(query, coll.dim)
        rows, matrix, norms = coll._scan
        sims = np.zeros(coll.count)
        sims[rows] = (matrix @ q) / norms
        candidates = np.flatnonzero(sims >= threshold)
        if candidates.size > k:
            # Only rows at or above this collection's k-th best similarity
            # can reach the merged top k; ties at that value all stay.
            kth = np.partition(sims[candidates], candidates.size - k)[
                candidates.size - k]
            candidates = candidates[sims[candidates] >= kth]
        for i in candidates:
            rec = coll.records[i]
            hits.append(RetrievalHit(publication_id=rec.publication_id,
                                     segment_index=rec.segment_index,
                                     similarity=float(sims[i]),
                                     collection=coll.name,
                                     text=rec.text))
    hits.sort(key=lambda h: (-h.similarity, h.publication_id,
                             h.segment_index, h.collection))
    return tuple(hits[:k])


def route_document(keywords, routing=None, default: str = DEFAULT_COLLECTION) -> str:
    """Collection name for a document, by topic-keyword substring match.

    Routing maps collection name -> lowercase tokens; the first
    collection (in mapping order) whose token appears in any document
    keyword wins, else the default.
    """
    routing = routing if routing is not None else DEFAULT_ROUTING
    lowered = [str(k).lower() for k in keywords]
    for name, tokens in routing.items():
        for token in tokens:
            if any(token in kw for kw in lowered):
                return name
    return default


def index_corpus(documents, backend: EmbeddingBackend,
                 routing=None, default: str = DEFAULT_COLLECTION,
                 segment_length: int = DEFAULT_SEGMENT_LENGTH,
                 overlap: int = DEFAULT_OVERLAP) -> dict[str, Collection]:
    """Chunk, embed, and route every document into collections.

    :returns: mapping of collection name to Collection, covering every
        collection that received at least one record; an empty corpus
        yields an empty mapping. Total record count always equals the
        sum of per-document segment counts.
    """
    buckets: dict[str, list[VectorRecord]] = {}
    for doc in documents:
        if not isinstance(doc, CorpusDocument):
            raise TypeError(f"expected CorpusDocument, got {type(doc).__name__}")
        target = route_document(doc.keywords, routing, default)
        chunks = segment_text(doc.text, segment_length, overlap,
                              publication_id=doc.publication_id,
                              keywords=doc.keywords)
        vectors = backend.embed_many([c.text for c in chunks])
        bucket = buckets.setdefault(target, [])
        for chunk, vec in zip(chunks, vectors):
            bucket.append(VectorRecord(publication_id=chunk.publication_id,
                                       segment_index=chunk.segment_index,
                                       text=chunk.text,
                                       topic_keywords=chunk.topic_keywords,
                                       vector=vec))
    return {name: Collection(name=name, dim=backend.dim, records=tuple(recs))
            for name, recs in sorted(buckets.items())}


# ---------------------------------------------------------------------------
# persistence

def _record_bytes(rec: VectorRecord) -> bytes:
    meta = json.dumps({"publication_id": rec.publication_id,
                       "segment_index": rec.segment_index,
                       "text": rec.text,
                       "topic_keywords": list(rec.topic_keywords)},
                      sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    blob = meta.encode("utf-8")
    return struct.pack("<I", len(blob)) + blob + rec.vector.astype("<f4").tobytes()


def save_collection(collection: Collection, directory: str | Path) -> Path:
    """Write one collection to ``<directory>/<name>.advec`` atomically."""
    if not collection.name or any(c in collection.name for c in "/\\\0"):
        raise ValueError(f"collection name {collection.name!r} is not a "
                         f"usable file name")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = b"".join(_record_bytes(rec) for rec in collection.records)
    header = MAGIC + struct.pack("<IQI", collection.dim, collection.count,
                                 zlib.crc32(payload))
    path = directory / f"{collection.name}{STORE_SUFFIX}"
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(header + payload)
    os.replace(tmp, path)
    return path


def save_collections(collections, directory: str | Path) -> list[Path]:
    if isinstance(collections, dict):
        collections = collections.values()
    return [save_collection(coll, directory) for coll in collections]


_METADATA_FIELDS = (
    ("publication_id", lambda v: isinstance(v, str), "a string"),
    ("segment_index",
     lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    ("text", lambda v: isinstance(v, str), "a string"),
    ("topic_keywords",
     lambda v: isinstance(v, list) and all(isinstance(k, str) for k in v),
     "a list of strings"),
)


def _check_metadata(meta, path: Path, offset: int) -> None:
    if not isinstance(meta, dict):
        raise IntegrityError(f"{path}: record metadata is not an object",
                             offset=offset)
    for key, valid, expected in _METADATA_FIELDS:
        if key not in meta:
            raise IntegrityError(f"{path}: record metadata lacks {key!r}",
                                 offset=offset)
        if not valid(meta[key]):
            raise IntegrityError(f"{path}: record metadata {key!r} is not "
                                 f"{expected}", offset=offset)


def load_collection(path: str | Path, expected_dim: int | None = None) -> Collection:
    """Read one ``.advec`` file back into an immutable Collection.

    Corruption raises IntegrityError carrying the byte offset where the
    problem was detected; nothing partial is ever returned.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 24:
        raise IntegrityError(f"{path}: truncated header", offset=len(data))
    if data[:8] != MAGIC:
        raise IntegrityError(f"{path}: bad magic {data[:8]!r}", offset=0)
    dim, count, checksum = struct.unpack_from("<IQI", data, 8)
    payload = data[24:]
    if zlib.crc32(payload) != checksum:
        raise IntegrityError(f"{path}: checksum mismatch", offset=20)
    if expected_dim is not None and dim != expected_dim:
        raise DimensionError(
            f"{path}: store dimension {dim}, session expects {expected_dim}")
    records = []
    pos = 24
    for _ in range(count):
        if pos + 4 > len(data):
            raise IntegrityError(f"{path}: truncated record header", offset=pos)
        (meta_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        end = pos + meta_len + 4 * dim
        if end > len(data):
            raise IntegrityError(f"{path}: truncated record body", offset=pos)
        try:
            meta = json.loads(data[pos:pos + meta_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IntegrityError(f"{path}: bad record metadata: {exc}",
                                 offset=pos) from exc
        _check_metadata(meta, path, pos)
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=pos + meta_len)
        records.append(VectorRecord(publication_id=meta["publication_id"],
                                    segment_index=meta["segment_index"],
                                    text=meta["text"],
                                    topic_keywords=tuple(meta["topic_keywords"]),
                                    vector=vec))
        pos = end
    if pos != len(data):
        raise IntegrityError(f"{path}: {len(data) - pos} trailing bytes",
                             offset=pos)
    return Collection(name=path.stem, dim=int(dim), records=tuple(records))


def load_collections(directory: str | Path,
                     expected_dim: int | None = None) -> dict[str, Collection]:
    """Load every ``.advec`` file under a directory, keyed by name."""
    directory = Path(directory)
    out = {}
    for path in sorted(directory.glob(f"*{STORE_SUFFIX}")):
        coll = load_collection(path, expected_dim)
        out[coll.name] = coll
    return out


@dataclass(frozen=True)
class SemanticSearch:
    """Text-in, hits-out convenience wrapper over search()."""

    collections: tuple[Collection, ...]
    backend: EmbeddingBackend
    k: int = DEFAULT_TOP_K
    threshold: float = DEFAULT_THRESHOLD

    def query(self, text: str) -> tuple[RetrievalHit, ...]:
        return self.query_many([text])[0]

    def query_many(self, texts) -> list[tuple[RetrievalHit, ...]]:
        """Hits for each text, in order, from one embedding call."""
        return [search(self.collections, vector, k=self.k,
                       threshold=self.threshold)
                for vector in self.backend.embed_many(texts)]
