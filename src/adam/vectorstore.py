"""Multi-collection vector database with exact thresholded top-k search.

A collection is an immutable snapshot of chunk metadata records and one
read-only float32 matrix whose row i is the vector of record i. The
matrix is the only place a vector lives: records hold only metadata, the
collection copies the matrix it is given once, indexing writes each
document's vectors straight into its collection's matrix, and loading a
file reads each vector from the file straight into its matrix row, never
holding the file's bytes whole. Search is an exact, exhaustive cosine scan: results are
provably identical to a brute-force linear pass, which keeps every
retrieval oracle-testable. No approximate index, no in-place mutation.

``search_many`` is the only search, and one query is a batch of one. It
scores a batch of queries (a cohort's distinct step queries, in batches
of ``QUERY_BATCH``) against each collection in two passes, and every
similarity it reports is the float64 value ``(M @ q) / norm`` that one
matrix-vector product of the collection's nonzero float64 rows M per
query gives at one BLAS thread.

The screen is one float32 matrix product of the stored float32 rows with
the batch of queries, each normalised in float64 and then rounded to
float32, divided in float64 by the float64 row norms. Its error against
the float64 similarity is at most

    eps(d) = (1 + g(d + 2, u64)) * (u32 + g(d, u32) * (1 + u32) + g(d, u64))
             + 2 * (d + 1) * 2**-126 / _SAFE_NORM_MIN + 8 * u64

with g(n, u) = n u / (1 - n u), u32 = 2**-24 and u64 = 2**-53 (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2002, section 3.1).
g(d, u32) bounds the float32 sum of d products for any summation order,
with or without fused multiply-adds, relative to sum |q_i m_i|, which is
at most |q| |m| <= |m| (1 + g(d + 2, u64)) for a normalised query; u32
is the rounding of the query to float32 and g(d, u64) the float64 sum
the reported value comes from. The second term is the float32 and
float64 underflow of rows whose norm is at least ``_SAFE_NORM_MIN``,
also where a kernel flushes subnormal numbers to zero, and the last
covers the float64 divisions and the subtractions of the candidate
test. eps(1536) is about 9.2e-5.

A row is a candidate for a query when its screen value reaches both the
threshold minus eps and the query's k-th largest screen value minus 2 eps
(taken over the collection's nonzero rows; minus infinity when k is at
least their count). Any other row is strictly below the threshold or
strictly below the k-th largest similarity, so it cannot be a hit. A row
whose norm lies outside [_SAFE_NORM_MIN, _SAFE_NORM_MAX], where float32
products could overflow or underflow, or whose screen value is not
finite, is a candidate for every query and takes no part in the k-th
screen value.

The second pass re-scores in float64 only the blocks of rows that hold a
candidate: ``_row_blocks`` cuts the nonzero rows into 16-row blocks, a
last block shorter than 16 rows joining the one before it, and each
block is upcast and takes one matrix-vector product per query that needs
it. Each such product has the bits of the whole-matrix product: OpenBLAS
scores rows in groups of 4 and sums leftover rows in another order, and
numpy gives a one-row product the bits of a dot product, so every block
starts at a multiple of 16 rows and none is a lone leftover. The
threshold, the ties-kept top-k cut and the sort then run on the
re-scored rows, and give what a full float64 scan gives. Zero-norm rows
score exactly 0.0. Only the nonzero row ids and the float64 norms are
cached per collection; no float64 copy of the matrix is kept.

On disk each collection is one ``<name>.advec`` file:

    bytes 0-7    magic "ADAMVEC1"
    bytes 8-11   dimension, 32-bit little-endian unsigned
    bytes 12-19  record count, 64-bit little-endian unsigned
    bytes 20-23  CRC-32 of the records payload, little-endian
    bytes 24-    records: [metadata length u32 LE][metadata UTF-8 JSON]
                 [dimension x float32 LE], repeated count times

A vector holding NaN or an infinity has no cosine similarity: a
Collection refuses one, and loading a file holding one raises
IntegrityError at that vector's offset.

Each file is written through ``errors.replacing``, to a temporary file
renamed into place, so readers only ever observe complete stores.
"""

from __future__ import annotations

import functools
import json
import struct
import zlib
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_OVERLAP, DEFAULT_SEGMENT_LENGTH, DEFAULT_THRESHOLD, DEFAULT_TOP_K
from .embedding import EmbeddingBackend
from .errors import (
    INTEGER,
    STRING,
    STRINGS,
    DimensionError,
    DuplicateRecordError,
    IntegrityError,
    NonFiniteVectorError,
    check_fields,
    replacing,
)

MAGIC = b"ADAMVEC1"
STORE_SUFFIX = ".advec"
# Texts per embedding call and scan in SemanticSearch.query_many: the
# (texts x dim) float64 arrays of a batch stay small, and a remote
# embedder gets one request per batch.
QUERY_BATCH = 64
# Segments per embedding call in index_corpus, consecutive rows of one
# collection: the per-call cost is spread over several texts while the
# (texts x dim) float64 arrays of a call stay small, and a remote embedder
# gets one request per batch.
EMBED_BATCH = 8

DEFAULT_ROUTING = {
    "alzheimers": ("alzheimer",),
    "microbiome": ("microbiome", "gut", "immunosenescence",
                   "bacterial", "microbial"),
}
DEFAULT_COLLECTION = "alzheimers"


class VectorRecord(NamedTuple):
    """The metadata of one embedded chunk. Its vector is the row of the
    collection's matrix at the record's position."""

    publication_id: str
    segment_index: int
    text: str
    topic_keywords: tuple[str, ...]

    @property
    def key(self) -> tuple[str, int]:
        return (self.publication_id, self.segment_index)


class RetrievalHit(NamedTuple):
    publication_id: str
    segment_index: int
    similarity: float
    collection: str
    text: str


@dataclass(frozen=True, eq=False)
class Collection:
    """Immutable named set of records and their (records x dim) float32
    matrix, row i for record i."""

    name: str
    records: tuple[VectorRecord, ...]
    matrix: np.ndarray

    def __post_init__(self):
        records = tuple(self.records)
        # The one copy: a later write to the caller's array changes nothing.
        matrix = np.array(self.matrix, dtype=np.float32, order="C")
        if matrix.ndim != 2 or len(matrix) != len(records):
            raise DimensionError(
                f"collection {self.name!r} has {len(records)} record(s) and "
                f"a vector matrix of shape {matrix.shape}")
        if matrix.shape[1] < 1:
            raise DimensionError(
                f"dimension must be >= 1, got {matrix.shape[1]}")
        seen = set()
        for rec in records:
            if rec.key in seen:
                raise DuplicateRecordError(
                    f"duplicate record {rec.key} in collection {self.name!r}")
            seen.add(rec.key)
        # One pass over all vectors and no array the size of the matrix: a
        # float64 sum of float32 values cannot overflow, so it is finite
        # exactly when every component is. The offending record is located
        # only on failure.
        if not np.isfinite(matrix.sum(dtype=np.float64)):
            row, component = np.argwhere(~np.isfinite(matrix))[0]
            raise NonFiniteVectorError(
                f"record {records[row].key} in collection {self.name!r}: "
                f"vector component {component} is {matrix[row, component]}")
        matrix.flags.writeable = False
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def count(self) -> int:
        return len(self.records)

    @functools.cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, float64 row norms) of the nonzero records.

        Built on the first search and kept; a collection never changes,
        so neither do its norms. Each block of rows is upcast on its own,
        and every norm has the bits of the norm of the whole float64
        matrix's row.
        """
        norms = np.empty(self.count)
        for rows in _row_blocks(self.count):
            norms[rows] = np.linalg.norm(
                self.matrix[rows].astype(np.float64), axis=1)
        nonzero = norms > 0.0
        rows, norms = np.flatnonzero(nonzero), norms[nonzero]
        rows.flags.writeable = norms.flags.writeable = False
        return rows, norms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Collection):
            return NotImplemented
        # Vectors compare bit for bit, so 0.0 and -0.0 differ.
        return (self.name == other.name and self.records == other.records
                and np.array_equal(self.matrix.view(np.uint32),
                                   other.matrix.view(np.uint32)))


# Rows per re-scored block: a multiple of 16 (see the module docstring).
_SCAN_BLOCK_ROWS = 16
# A last block shorter than this joins the block before it.
_MIN_TAIL_ROWS = 16
# Row norms inside this range keep every float32 product and partial sum
# of the screen clear of overflow, and its underflow inside eps.
_SAFE_NORM_MIN = 2.0 ** -64
_SAFE_NORM_MAX = 2.0 ** 64


def _row_blocks(n: int) -> list[slice]:
    """Row slices of the re-scored blocks of an ``n``-row matrix."""
    starts = list(range(0, n, _SCAN_BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] < _MIN_TAIL_ROWS:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n: the relative error bound of n roundings at u."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else np.inf


def _screen_error_bound(d: int) -> float:
    """eps(d): the most a screen value can differ from the float64
    similarity of a row with a norm in the safe range (see the module
    docstring)."""
    u32, u64 = 2.0 ** -24, 2.0 ** -53
    relative = (u32 + _gamma(d, u32) * (1.0 + u32) + _gamma(d, u64))
    return ((1.0 + _gamma(d + 2, u64)) * relative
            + 2.0 * (d + 1) * 2.0 ** -126 / _SAFE_NORM_MIN + 8.0 * u64)


def _screen(coll: Collection, queries: np.ndarray) -> np.ndarray:
    """(nonzero rows x queries) float32 screen values, divided in float64
    by the row norms; not finite where the float32 product overflowed."""
    rows, norms = coll._scan
    # Rows x queries: the product reads the stored matrix as it lies.
    with np.errstate(over="ignore", invalid="ignore"):
        return ((coll.matrix @ queries.T.astype(np.float32))[rows]
                / norms[:, None])


def _similarities(coll: Collection, queries: np.ndarray, k: int,
                  threshold: float) -> np.ndarray:
    """(queries x records) float64 similarities of every row that can be
    a hit; minus infinity for every other nonzero row, 0.0 for zero rows.
    """
    rows, norms = coll._scan
    sims = np.zeros((len(queries), coll.count))
    sims[:, rows] = -np.inf
    if rows.size == 0:
        return sims
    screen = _screen(coll, queries)
    unsafe = ~np.isfinite(screen) | ((norms < _SAFE_NORM_MIN)
                                     | (norms > _SAFE_NORM_MAX))[:, None]
    screen[unsafe] = -np.inf
    eps = _screen_error_bound(coll.dim)
    floor = np.full(len(queries), float(threshold))
    if k < rows.size:
        kth = np.partition(screen, rows.size - k, axis=0)[rows.size - k]
        floor = np.maximum(floor, kth - eps)
    candidates = unsafe | (screen >= floor - eps)
    blocks = _row_blocks(rows.size)
    needed = np.logical_or.reduceat(candidates, [b.start for b in blocks])
    for b in np.flatnonzero(needed.any(axis=1)):
        block = blocks[b]
        ids = rows[block]
        matrix = coll.matrix[ids].astype(np.float64)
        for j in np.flatnonzero(needed[b]):
            sims[j, ids] = (matrix @ queries[j]) / norms[block]
    return sims


def _as_query(query, dim: int) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64).ravel()
    if q.size != dim:
        raise DimensionError(f"query has dimension {q.size}, expected {dim}")
    if not np.isfinite(q).all():
        raise ValueError("query vector holds a non-finite value")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValueError("query vector has zero norm")
    return q / norm


def search_many(collections, queries, k: int = DEFAULT_TOP_K,
                threshold: float = DEFAULT_THRESHOLD,
                ) -> list[tuple[RetrievalHit, ...]]:
    """Thresholded cosine top-k across one or more collections, per query.

    For each query: fans out, merges, keeps similarity >= threshold,
    returns the k best in descending similarity; exact ties order by
    (publication_id, segment_index, collection) ascending. Every
    collection's rows are scanned once for the whole batch, and each
    query gets the hits it would get alone. Rows are screened in float32
    and only those that can be hits are re-scored in float64 (see the
    module docstring).
    """
    if isinstance(collections, Collection):
        collections = (collections,)
    collections = tuple(collections)
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [-1, 1], got {threshold}")
    queries = list(queries)
    hits: list[list[RetrievalHit]] = [[] for _ in queries]
    normalised: dict[int, np.ndarray] = {}
    for coll in collections:
        if coll.count == 0 or not queries:
            continue
        if coll.dim not in normalised:
            normalised[coll.dim] = np.stack(
                [_as_query(query, coll.dim) for query in queries])
        sims = _similarities(coll, normalised[coll.dim], k, threshold)
        passing = sims >= threshold
        for query_sims, query_passing, query_hits in zip(sims, passing, hits):
            candidates = np.flatnonzero(query_passing)
            if candidates.size > k:
                # Only rows at or above this collection's k-th best
                # similarity can reach the merged top k; ties at that
                # value all stay.
                kth = np.partition(query_sims[candidates],
                                   candidates.size - k)[candidates.size - k]
                candidates = candidates[query_sims[candidates] >= kth]
            for i in candidates:
                rec = coll.records[i]
                query_hits.append(RetrievalHit(
                    publication_id=rec.publication_id,
                    segment_index=rec.segment_index,
                    similarity=float(query_sims[i]),
                    collection=coll.name,
                    text=rec.text))
    for query_hits in hits:
        query_hits.sort(key=lambda h: (-h.similarity, h.publication_id,
                                       h.segment_index, h.collection))
    return [tuple(query_hits[:k]) for query_hits in hits]


def route_document(keywords) -> str:
    """Collection name for a document, by topic-keyword substring match.

    ``DEFAULT_ROUTING`` maps collection name -> lowercase tokens; the
    first collection (in mapping order) whose token appears in any
    document keyword wins, else ``DEFAULT_COLLECTION``.
    """
    lowered = [str(k).lower() for k in keywords]
    for name, tokens in DEFAULT_ROUTING.items():
        for token in tokens:
            if any(token in kw for kw in lowered):
                return name
    return DEFAULT_COLLECTION


def index_corpus(documents, backend: EmbeddingBackend,
                 segment_length: int = DEFAULT_SEGMENT_LENGTH,
                 overlap: int = DEFAULT_OVERLAP) -> dict[str, Collection]:
    """Chunk, embed, and route every document into collections.

    Every document is chunked first, so each collection's row count is
    known; its float32 matrix is then allocated once, and its rows are
    embedded ``EMBED_BATCH`` consecutive segments per ``embed_many`` call,
    in row order, and written straight into it. Beside the records, the
    vectors are held at most twice: while a collection copies its matrix,
    both are alive beside the collections built before it.

    :returns: mapping of collection name to Collection, covering every
        collection that received at least one record; an empty corpus
        yields an empty mapping. Total record count always equals the
        sum of per-document segment counts.
    """
    from .chunker import CorpusDocument, segment_text  # the store reader needs no chunker

    buckets: dict[str, list[VectorRecord]] = {}
    for doc in documents:
        if not isinstance(doc, CorpusDocument):
            raise TypeError(f"expected CorpusDocument, got {type(doc).__name__}")
        chunks = segment_text(doc.text, segment_length, overlap,
                              publication_id=doc.publication_id,
                              keywords=doc.keywords)
        buckets.setdefault(route_document(doc.keywords), []).extend(
            VectorRecord(chunk.publication_id, chunk.segment_index,
                         chunk.text, chunk.topic_keywords)
            for chunk in chunks)
    collections = {}
    for name, records in sorted(buckets.items()):
        matrix = np.empty((len(records), backend.dim), dtype=np.float32)
        for start in range(0, len(records), EMBED_BATCH):
            texts = [rec.text for rec in records[start:start + EMBED_BATCH]]
            block = backend.embed_many(texts)
            if block.shape != (len(texts), backend.dim):
                raise DimensionError(
                    f"embedding backend returned vectors of shape {block.shape} "
                    f"for {len(texts)} text(s) of dimension {backend.dim}")
            matrix[start:start + len(texts)] = block
        collections[name] = Collection(name, tuple(records), matrix)
    return collections


# ---------------------------------------------------------------------------
# persistence

# The bytes json.dumps escapes in a string: the C0 controls, '"' and '\\'.
# Every byte of a UTF-8 multi-byte sequence is 0x80 or above.
_ESCAPED = bytes(range(0x20)) + b'"\\'


def _json_string(text: str) -> bytes:
    """The UTF-8 bytes of ``json.dumps(text, ensure_ascii=False)``."""
    raw = text.encode("utf-8")
    if len(raw.translate(None, _ESCAPED)) == len(raw):
        return b'"' + raw + b'"'
    return encode_basestring(text).encode("utf-8")


def _metadata(rec: VectorRecord) -> bytes:
    """A record's metadata: the UTF-8 bytes of ``json.dumps`` of its
    fields with ``sort_keys=True, separators=(",", ":"),
    ensure_ascii=False``, written out field by field."""
    return b"".join((
        b'{"publication_id":', _json_string(rec.publication_id),
        b',"segment_index":', b"%d" % rec.segment_index,
        b',"text":', _json_string(rec.text),
        b',"topic_keywords":[', b",".join(map(_json_string, rec.topic_keywords)),
        b"]}"))


# Record bytes gathered before one checksum update and one write.
_WRITE_BLOCK = 1 << 20


def _record_blocks(collection: Collection):
    """The records payload of a store file, in blocks that each end with
    the record taking the block to ``_WRITE_BLOCK`` bytes or more."""
    block = bytearray()
    for rec, vector in zip(collection.records,
                           collection.matrix.astype("<f4", copy=False)):
        meta = _metadata(rec)
        block += len(meta).to_bytes(4, "little")
        block += meta
        block += vector.data
        if len(block) >= _WRITE_BLOCK:
            yield block
            block = bytearray()
    yield block


def save_collection(collection: Collection, directory: str | Path) -> Path:
    """Write one collection to ``<directory>/<name>.advec`` atomically."""
    if not collection.name or any(c in collection.name for c in "/\\\0"):
        raise ValueError(f"collection name {collection.name!r} is not a "
                         f"usable file name")
    path = Path(directory) / f"{collection.name}{STORE_SUFFIX}"
    checksum = 0
    with replacing(path, binary=True) as fh:
        fh.write(bytes(24))  # the header, once the checksum is known
        for block in _record_blocks(collection):
            checksum = zlib.crc32(block, checksum)
            fh.write(block)
        fh.seek(0)
        fh.write(MAGIC + struct.pack("<IQI", collection.dim, collection.count, checksum))
    return path


def save_collections(collections, directory: str | Path) -> list[Path]:
    if isinstance(collections, dict):
        collections = collections.values()
    return [save_collection(coll, directory) for coll in collections]


_METADATA = {"publication_id": STRING, "segment_index": INTEGER, "text": STRING,
             "topic_keywords": STRINGS}
# Bytes per read of a store file: each piece of the checksum pass, and
# the read buffer of the parse.
_READ_CHUNK = 1 << 16


def load_collection(path: str | Path, expected_dim: int | None = None) -> Collection:
    """Read one ``.advec`` file back into an immutable Collection.

    The file is read twice through one handle, and its bytes are never
    held whole: the first pass checksums the payload in
    ``_READ_CHUNK``-byte pieces, and only a payload that matches is
    parsed, record by record, each vector read straight into its row of
    the matrix. The row count is bounded by the file's size. A store is
    replaced by rename, which the open handle does not see; a file cut in
    place between the passes raises IntegrityError.

    Corruption raises IntegrityError carrying the byte offset where the
    problem was detected; nothing partial is ever returned.
    """
    path = Path(path)
    with open(path, "rb", buffering=_READ_CHUNK) as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise IntegrityError(f"{path}: truncated header", offset=len(header))
        if header[:8] != MAGIC:
            raise IntegrityError(f"{path}: bad magic {header[:8]!r}", offset=0)
        dim, count, checksum = struct.unpack_from("<IQI", header, 8)
        crc, size = 0, 24
        while chunk := fh.read(_READ_CHUNK):
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
        if crc != checksum:
            raise IntegrityError(f"{path}: checksum mismatch", offset=20)
        if expected_dim is not None and dim != expected_dim:
            raise DimensionError(
                f"{path}: store dimension {dim}, session expects {expected_dim}")
        # Each record takes at least 4 + 4 * dim bytes, so a count the file
        # cannot hold runs out of bytes, and raises, before it runs out of
        # rows. Rows are little-endian as on disk; Collection converts.
        matrix = np.empty((min(count, (size - 24) // (4 + 4 * dim)), dim),
                          dtype="<f4")
        records = []
        vector_offsets = []
        where = f"{path}: record metadata"
        pos = 24
        fh.seek(pos)
        for row in range(count):
            if pos + 4 > size:
                raise IntegrityError(f"{path}: truncated record header", offset=pos)
            # A short read (the file cut in place since the checksum pass)
            # leaves blob or the vector short, and raises below.
            meta_len = int.from_bytes(fh.read(4), "little")
            pos += 4
            end = pos + meta_len + 4 * dim
            if end > size:
                raise IntegrityError(f"{path}: truncated record body", offset=pos)
            blob = fh.read(meta_len)
            if len(blob) != meta_len or fh.readinto(matrix[row]) != 4 * dim:
                raise IntegrityError(f"{path}: changed while being read",
                                     offset=pos)
            try:
                meta = json.loads(blob.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
                raise IntegrityError(f"{path}: bad record metadata: {exc}",
                                     offset=pos) from exc
            check_fields(meta, _METADATA, where,
                         lambda message, at=pos: IntegrityError(message, offset=at))
            vector_offsets.append(pos + meta_len)
            records.append(VectorRecord(meta["publication_id"],
                                        meta["segment_index"], meta["text"],
                                        tuple(meta["topic_keywords"])))
            pos = end
    if pos != size:
        raise IntegrityError(f"{path}: {size - pos} trailing bytes", offset=pos)
    try:
        return Collection(path.stem, tuple(records), matrix)
    except NonFiniteVectorError as exc:
        row, component = np.argwhere(~np.isfinite(matrix))[0]
        raise IntegrityError(
            f"{path}: record vector component {component} is "
            f"{matrix[row, component]}", offset=vector_offsets[row]) from exc


def load_collections(directory: str | Path,
                     expected_dim: int | None = None) -> dict[str, Collection]:
    """Load every ``.advec`` file under a directory, keyed by name."""
    directory = Path(directory)
    out = {}
    for path in sorted(directory.glob(f"*{STORE_SUFFIX}")):
        coll = load_collection(path, expected_dim)
        out[coll.name] = coll
    return out


class SemanticSearch(NamedTuple):
    """Text-in, hits-out convenience wrapper over search_many()."""

    collections: tuple[Collection, ...]
    backend: EmbeddingBackend
    k: int = DEFAULT_TOP_K
    threshold: float = DEFAULT_THRESHOLD

    def query_many(self, texts) -> list[tuple[RetrievalHit, ...]]:
        """Hits for each text, in order: a cohort's distinct step queries,
        in batches of ``QUERY_BATCH``, each batch from one embedding call
        and one scan of the store. Each text gets the hits it would get
        alone."""
        texts = list(texts)
        hits = []
        for start in range(0, len(texts), QUERY_BATCH):
            vectors = self.backend.embed_many(texts[start:start + QUERY_BATCH])
            hits.extend(search_many(self.collections, vectors, k=self.k,
                                    threshold=self.threshold))
        return hits
