"""Vector store: exact search, routing, binary round trip, corruption."""

import gc
import json
import struct
import sys
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from adam import vectorstore
from adam.chunker import read_corpus
from adam.embedding import OfflineHashEmbedder
from adam.cli import main
from adam.errors import (
    AdamError,
    DimensionError,
    DuplicateRecordError,
    IntegrityError,
    NonFiniteVectorError,
)
from adam.vectorstore import (
    DEFAULT_COLLECTION,
    DEFAULT_ROUTING,
    MAGIC,
    Collection,
    RetrievalHit,
    SemanticSearch,
    VectorRecord,
    index_corpus,
    load_collection,
    load_collections,
    route_document,
    save_collection,
    save_collections,
    search_many,
)
import embed_oracle
from search_oracle import collection


def _record(pub, seg, vec, text=None, keywords=("kw",)):
    """A (record, vector) pair for ``collection``."""
    return (VectorRecord(publication_id=pub, segment_index=seg,
                         text=text if text is not None else f"{pub}/{seg}",
                         topic_keywords=keywords),
            np.asarray(vec, dtype=np.float32))


def _random_collection(seed, n, dim, name="col"):
    rng = np.random.default_rng(seed)
    recs = [_record(f"PUB{i:05d}", i % 7, rng.normal(size=dim))
            for i in range(n)]
    return collection(name, dim, recs)


def _linear_scan(collections, query, k, threshold):
    """Independent O(n) reference: compensated sums, one record at a time."""
    import math
    q = np.asarray(query, dtype=np.float64)
    q = q / math.sqrt(math.fsum(float(x) * float(x) for x in q))
    out = []
    for coll in collections:
        for rec, vector in zip(coll.records, coll.matrix):
            v = vector.astype(np.float64)
            norm = math.sqrt(math.fsum(float(x) * float(x) for x in v))
            if norm == 0:
                continue
            sim = math.fsum(float(a) * float(b) for a, b in zip(v, q)) / norm
            if sim >= threshold:
                out.append((-sim, rec.publication_id, rec.segment_index,
                            coll.name, rec.text))
    out.sort()
    return [RetrievalHit(publication_id=p, segment_index=s, similarity=-ns,
                         collection=c, text=t)
            for ns, p, s, c, t in out[:k]]


def test_search_matches_linear_scan():
    colls = [_random_collection(0, 300, 24, "a"),
             _random_collection(1, 200, 24, "b")]
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = rng.normal(size=24)
        k = int(rng.integers(1, 12))
        threshold = float(rng.uniform(-0.5, 0.5))
        got = search_many(colls, [q], k=k, threshold=threshold)[0]
        want = _linear_scan(colls, q, k, threshold)
        assert [(h.publication_id, h.segment_index, h.collection, h.text)
                for h in got] == \
            [(h.publication_id, h.segment_index, h.collection, h.text)
             for h in want]
        assert np.allclose([h.similarity for h in got],
                           [h.similarity for h in want], atol=1e-12, rtol=0)


def test_search_threshold_and_k_monotonicity():
    coll = _random_collection(3, 400, 16)
    rng = np.random.default_rng(4)
    q = rng.normal(size=16)
    prev = None
    for threshold in (-1.0, -0.3, 0.0, 0.2, 0.5, 0.9):
        hits = search_many(coll, [q], k=400, threshold=threshold)[0]
        assert all(h.similarity >= threshold for h in hits)
        if prev is not None:
            assert len(hits) <= len(prev)
            assert set(h.publication_id for h in hits) <= \
                set(h.publication_id for h in prev)
        prev = hits
    small = search_many(coll, [q], k=3, threshold=-1.0)[0]
    large = search_many(coll, [q], k=10, threshold=-1.0)[0]
    assert list(large[:3]) == list(small)
    sims = [h.similarity for h in large]
    assert sims == sorted(sims, reverse=True)


def test_search_tie_ordering():
    v = np.array([1.0, 0.0, 0.0], dtype=np.float32)
    coll_b = collection("b", 3, (
        _record("PUBB", 0, v), _record("PUBA", 1, v)))
    coll_a = collection("a", 3, (
        _record("PUBA", 2, v), _record("PUBA", 0, 2 * v)))
    hits = search_many((coll_b, coll_a), [np.array([1.0, 0, 0])], k=10, threshold=0.5)[0]
    keys = [(h.publication_id, h.segment_index, h.collection) for h in hits]
    assert keys == [("PUBA", 0, "a"), ("PUBA", 1, "b"),
                    ("PUBA", 2, "a"), ("PUBB", 0, "b")]
    assert all(abs(h.similarity - 1.0) < 1e-12 for h in hits)


def test_search_input_guards():
    coll = _random_collection(5, 10, 8)
    q = np.ones(8)
    with pytest.raises(ValueError):
        search_many(coll, [q], k=0)[0]
    with pytest.raises(ValueError):
        search_many(coll, [q], threshold=1.5)[0]
    with pytest.raises(DimensionError):
        search_many(coll, [np.ones(9)])[0]
    with pytest.raises(ValueError):
        search_many(coll, [np.zeros(8)])[0]
    assert search_many((), [q])[0] == ()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_search_rejects_non_finite_query(bad):
    coll = _random_collection(5, 10, 8)
    q = np.ones(8)
    q[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            search_many(coll, [q], threshold=-1.0)[0]
        with pytest.raises(ValueError, match="non-finite"):
            search_many(coll, [np.ones(8), q], threshold=-1.0)


@pytest.mark.parametrize("k", [True, False, 2.5, 2.0, "3", None])
def test_search_rejects_k_that_is_not_an_integer(k):
    coll = _random_collection(5, 10, 8)
    with pytest.raises(TypeError, match="k must be an integer"):
        search_many(coll, [np.ones(8)], k=k, threshold=-1.0)[0]
    with pytest.raises(TypeError, match="k must be an integer"):
        search_many(coll, [], k=k)


def test_collection_guards():
    v = np.ones(4, dtype=np.float32)
    with pytest.raises(DuplicateRecordError):
        collection("x", 4, (_record("P", 0, v), _record("P", 0, 2 * v)))
    record, _ = _record("P", 0, v)
    with pytest.raises(DimensionError):
        Collection("x", (record,), np.ones((2, 4)))  # two vectors, one record
    with pytest.raises(DimensionError):
        Collection("x", (record,), v)  # not a (records x dim) matrix
    with pytest.raises(DimensionError):
        Collection("x", (), np.zeros((0, 0)))


def test_routing_first_match_wins():
    assert route_document(["Alzheimer progression"]) == "alzheimers"
    assert route_document(["gut flora"]) == "microbiome"
    assert route_document(["immunosenescence"]) == "microbiome"
    # substring match inside a longer keyword
    assert route_document(["neuromicrobial axis"]) == "microbiome"
    assert route_document(["unrelated topic"]) == DEFAULT_COLLECTION
    assert route_document([]) == DEFAULT_COLLECTION


def test_index_corpus_segment_counts(corpus_path):
    docs = read_corpus(corpus_path)
    backend = OfflineHashEmbedder(dim=64)
    colls = index_corpus(docs, backend, segment_length=2000, overlap=400)
    # 2000 -> 1 segment (alzheimer), 3600 -> 2, 5800 -> 4 (microbiome)
    assert set(colls) == {"alzheimers", "microbiome"}
    assert colls["alzheimers"].count == 1
    assert colls["microbiome"].count == 6
    total = sum(c.count for c in colls.values())
    assert total == 7
    rec = colls["alzheimers"].records[0]
    assert rec.publication_id == "PUB0001"
    assert rec.segment_index == 1
    assert abs(float(np.linalg.norm(colls["alzheimers"].matrix[0])) - 1.0) < 1e-6
    with pytest.raises(TypeError):
        index_corpus([{"publication_id": "X"}], backend)
    assert index_corpus([], backend) == {}


def test_save_load_round_trip(tmp_path, corpus_path):
    docs = read_corpus(corpus_path)
    backend = OfflineHashEmbedder(dim=48)
    colls = index_corpus(docs, backend)
    paths = save_collections(colls, tmp_path / "store")
    assert sorted(p.name for p in paths) == ["alzheimers.advec", "microbiome.advec"]
    loaded = load_collections(tmp_path / "store", expected_dim=48)
    assert set(loaded) == set(colls)
    for name in colls:
        assert loaded[name] == colls[name]
    # byte-identical on rewrite
    before = {p.name: p.read_bytes() for p in paths}
    save_collections(loaded, tmp_path / "store")
    after = {p.name: p.read_bytes() for p in paths}
    assert before == after


def test_load_expected_dim_guard(tmp_path):
    coll = _random_collection(6, 5, 12)
    path = save_collection(coll, tmp_path)
    assert load_collection(path, expected_dim=12).count == 5
    with pytest.raises(DimensionError):
        load_collection(path, expected_dim=16)


def test_save_name_guard(tmp_path):
    coll = collection("bad/name", 2, (_record("P", 0, np.ones(2)),))
    with pytest.raises(ValueError):
        save_collection(coll, tmp_path)


def _corrupt(path, data):
    path.write_bytes(data)
    return path


def test_corruption_offsets(tmp_path):
    coll = _random_collection(7, 4, 6)
    path = save_collection(coll, tmp_path)
    data = path.read_bytes()

    short = _corrupt(tmp_path / "short.advec", data[:10])
    with pytest.raises(IntegrityError) as err:
        load_collection(short)
    assert err.value.offset == 10

    magic = _corrupt(tmp_path / "magic.advec", b"NOTMAGIC" + data[8:])
    with pytest.raises(IntegrityError) as err:
        load_collection(magic)
    assert err.value.offset == 0

    flipped = bytearray(data)
    flipped[-1] ^= 0xFF
    bad_sum = _corrupt(tmp_path / "sum.advec", bytes(flipped))
    with pytest.raises(IntegrityError) as err:
        load_collection(bad_sum)
    assert err.value.offset == 20

    # count claims one more record than the payload holds
    header = MAGIC + struct.pack("<IQI", coll.dim, coll.count + 1,
                                 __import__("zlib").crc32(data[24:]))
    trunc = _corrupt(tmp_path / "trunc.advec", header + data[24:])
    with pytest.raises(IntegrityError) as err:
        load_collection(trunc)
    assert err.value.offset == len(data)

    # metadata made into invalid JSON, checksum recomputed to match
    (meta_len,) = struct.unpack_from("<I", data, 24)
    payload = bytearray(data[24:])
    payload[4:4 + meta_len] = b"{" * meta_len
    header = MAGIC + struct.pack("<IQI", coll.dim, coll.count,
                                 __import__("zlib").crc32(bytes(payload)))
    bad_meta = _corrupt(tmp_path / "meta.advec", header + bytes(payload))
    with pytest.raises(IntegrityError) as err:
        load_collection(bad_meta)
    assert err.value.offset == 28

    # trailing garbage, checksum recomputed to match
    payload = data[24:] + b"xtra"
    header = MAGIC + struct.pack("<IQI", coll.dim, coll.count,
                                 __import__("zlib").crc32(payload))
    trailing = _corrupt(tmp_path / "trail.advec", header + payload)
    with pytest.raises(IntegrityError) as err:
        load_collection(trailing)
    assert err.value.offset == len(data)



def _with_metadata(data, edit):
    """``data`` with its first record's metadata edited, CRC recomputed."""
    (meta_len,) = struct.unpack_from("<I", data, 24)
    meta = json.loads(data[28:28 + meta_len])
    blob = json.dumps(edit(meta)).encode("utf-8")
    payload = struct.pack("<I", len(blob)) + blob + data[28 + meta_len:]
    dim, count, _ = struct.unpack_from("<IQI", data, 8)
    return MAGIC + struct.pack("<IQI", dim, count, zlib.crc32(payload)) + payload


def _drop(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def _set(key, value):
    return lambda meta: {**meta, key: value}


def _key(key):
    """The start of the message that names key of the record metadata."""
    return f"record metadata: {key!r} must be "


NOT_AN_OBJECT = "record metadata: expected a JSON object, got "
METADATA_CORRUPTIONS = [
    pytest.param(lambda meta: [meta], NOT_AN_OBJECT, id="not-an-object"),
    pytest.param(lambda meta: "text", NOT_AN_OBJECT, id="a-string"),
    *(pytest.param(_drop(key), _key(key), id=f"no-{key}")
      for key in ("publication_id", "segment_index", "text", "topic_keywords")),
    pytest.param(_set("publication_id", 7), _key("publication_id"),
                 id="publication_id-int"),
    pytest.param(_set("publication_id", None), _key("publication_id"),
                 id="publication_id-null"),
    pytest.param(_set("text", ["a"]), _key("text"), id="text-list"),
    pytest.param(_set("segment_index", "x"), _key("segment_index"),
                 id="segment_index-str"),
    pytest.param(_set("segment_index", 1.5), _key("segment_index"),
                 id="segment_index-float"),
    pytest.param(_set("segment_index", True), _key("segment_index"),
                 id="segment_index-bool"),
    pytest.param(_set("topic_keywords", "kw"), _key("topic_keywords"),
                 id="topic_keywords-str"),
    pytest.param(_set("topic_keywords", ["kw", 3]), _key("topic_keywords"),
                 id="topic_keywords-int-item"),
    pytest.param(_set("topic_keywords", {"kw": 1}), _key("topic_keywords"),
                 id="topic_keywords-object"),
]


@pytest.mark.parametrize("edit, text", METADATA_CORRUPTIONS)
def test_load_rejects_bad_metadata(tmp_path, capsys, edit, text):
    coll = _random_collection(7, 3, 4)
    data = save_collection(coll, tmp_path / "good").read_bytes()
    store = tmp_path / "store"
    store.mkdir()
    bad = _corrupt(store / "bad.advec", _with_metadata(data, edit))
    with pytest.raises(IntegrityError) as err:
        load_collection(bad)
    assert isinstance(err.value, AdamError)
    assert err.value.offset == 28
    assert str(err.value).startswith(f"{bad}: {text}")

    assert main(["index", "--store", str(store), "--embedding-dim", "4"]) == 1
    captured = capsys.readouterr().err
    assert captured == f"error: {err.value}\n"


def _with_vector_value(data, record, component, value):
    """``data`` with one float32 of a record's vector set, CRC recomputed.

    :returns: the edited bytes and the byte offset of that record's vector.
    """
    dim, count, _ = struct.unpack_from("<IQI", data, 8)
    pos = 24
    for _ in range(record):
        (meta_len,) = struct.unpack_from("<I", data, pos)
        pos += 4 + meta_len + 4 * dim
    (meta_len,) = struct.unpack_from("<I", data, pos)
    vector_at = pos + 4 + meta_len
    edited = bytearray(data)
    struct.pack_into("<f", edited, vector_at + 4 * component, value)
    payload = bytes(edited[24:])
    header = MAGIC + struct.pack("<IQI", dim, count, zlib.crc32(payload))
    return header + payload, vector_at


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_load_rejects_non_finite_vector(tmp_path, capsys, value):
    coll = _random_collection(7, 3, 4)
    data = save_collection(coll, tmp_path / "good").read_bytes()
    edited, vector_at = _with_vector_value(data, 1, 2, value)
    store = tmp_path / "store"
    store.mkdir()
    bad = _corrupt(store / "bad.advec", edited)
    with pytest.raises(IntegrityError) as err:
        load_collection(bad)
    assert err.value.offset == vector_at
    assert str(err.value) == \
        f"{bad}: record vector component 2 is {np.float32(value)} at byte {vector_at}"

    assert main(["index", "--store", str(store), "--embedding-dim", "4"]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


def _with_bad_record(value):
    """Records of a 3-dim collection whose second vector holds value."""
    return (_record("PUB1", 0, [1.0, 0.0, 0.0]),
            _record("PUB2", 4, [0.5, value, 0.5]),
            _record("PUB3", 0, [0.0, 1.0, 0.0]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_collection_rejects_non_finite_vector(tmp_path, value):
    with pytest.raises(NonFiniteVectorError) as err:
        collection("col", 3, _with_bad_record(value))
    assert isinstance(err.value, AdamError)
    assert str(err.value) == (f"record ('PUB2', 4) in collection 'col': "
                              f"vector component 1 is {np.float32(value)}")
    # save_collection can only be handed a collection that was built, so
    # no file is written
    with pytest.raises(NonFiniteVectorError):
        save_collection(collection("col", 3, _with_bad_record(value)),
                        tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_save_writes_the_vectors_the_collection_checked(tmp_path, value):
    # The caller changes its array after the collection is built.
    matrix = np.array([[0.5, 0.5, 0.5]], dtype=np.float32)
    rec = VectorRecord(publication_id="PUB1", segment_index=0, text="t",
                       topic_keywords=("kw",))
    coll = Collection("col", (rec,), matrix)
    matrix[0, 1] = value
    loaded = load_collection(save_collection(coll, tmp_path))
    assert loaded.matrix[0].tolist() == [0.5, 0.5, 0.5]
    hits = search_many(coll, [[0.0, 1.0, 0.0]], k=1, threshold=-1.0)[0]
    assert [h.similarity for h in hits] == [pytest.approx(3 ** -0.5)]


def test_record_is_not_changed_through_the_callers_array(tmp_path):
    matrix = np.ones((2, 4), dtype=np.float32)
    view = matrix[:]
    view.flags.writeable = False
    twins = collection("col", 4, [_record("PUB1", 0, np.ones(4)),
                                  _record("PUB2", 0, np.ones(4))])
    colls = [Collection("col", twins.records, matrix),
             Collection("col", twins.records, view)]
    query = [0.0, 1.0, 0.0, 0.0]
    before = search_many(colls[0], [query], k=2, threshold=-1.0)[0]
    matrix[1, 1] = np.nan
    for coll in colls:
        assert coll.matrix.tolist() == [[1.0] * 4] * 2
        assert not coll.matrix.flags.writeable
        assert coll == twins
        assert search_many(coll, [query], k=2, threshold=-1.0)[0] == before
    loaded = load_collection(save_collection(colls[0], tmp_path))
    assert loaded == colls[0]
    # The loaded vectors live only in the collection's own matrix.
    assert loaded.matrix.flags.owndata
    assert not any(isinstance(field, np.ndarray)
                   for rec in loaded.records for field in rec)


def test_collection_equality_compares_every_bit():
    coll = _random_collection(10, 5, 6)
    bits = coll.matrix.view(np.uint32).copy()
    bits[2, 3] ^= 1
    flipped = Collection(coll.name, coll.records, bits.view(np.float32))
    assert flipped != coll and coll != flipped
    assert Collection(coll.name, coll.records, coll.matrix) == coll
    record, _ = _record("PUB1", 0, np.zeros(2))
    zero = Collection("z", (record,), np.zeros((1, 2)))
    assert zero != Collection("z", (record,), -np.zeros((1, 2)))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_index_rejects_non_finite_embedding(tmp_path, capsys, monkeypatch,
                                            corpus_path, value):
    def embed_many(self, texts):
        rows = np.full((len(list(texts)), self.dim), 0.125, dtype=np.float32)
        rows[-1, 2] = value
        return rows

    monkeypatch.setattr(OfflineHashEmbedder, "embed_many", embed_many)
    store = tmp_path / "store"
    assert main(["index", "--corpus", str(corpus_path), "--store", str(store),
                 "--embedding-dim", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: record ('PUB")
    assert err.endswith(f"vector component 2 is {np.float32(value)}\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not store.exists()


def test_metadata_rewrite_keeps_a_valid_file(tmp_path):
    coll = _random_collection(7, 3, 4)
    data = save_collection(coll, tmp_path).read_bytes()
    same = _corrupt(tmp_path / "same.advec", _with_metadata(data, dict))
    assert load_collection(same).records == coll.records

def test_record_metadata_survives_round_trip(tmp_path):
    rec, vector = _record("PUBé", 3, np.array([0.5, -1.5], dtype=np.float32),
                  text="café text with \"quotes\" and ✓",
                  keywords=("k one", "k two"))
    coll = collection("meta", 2, ((rec, vector),))
    path = save_collection(coll, tmp_path)
    loaded = load_collection(path)
    assert loaded.records[0] == rec
    assert loaded.records[0].topic_keywords == ("k one", "k two")


# Every character json.dumps escapes, and some it writes as they are.
_ESCAPED = '"\\' + "".join(map(chr, range(0x20)))
_KEPT = "\x7f\u2028\u2029\u00e9\U0001F9A0"


def _json_dumps_store(coll):
    """The .advec bytes of ``coll``, each record's metadata from json.dumps."""
    payload = b""
    for rec, vector in zip(coll.records, coll.matrix):
        meta = json.dumps({"publication_id": rec.publication_id,
                           "segment_index": rec.segment_index,
                           "text": rec.text,
                           "topic_keywords": list(rec.topic_keywords)},
                          sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False).encode("utf-8")
        payload += (struct.pack("<I", len(meta)) + meta
                    + vector.astype("<f4").tobytes())
    return (MAGIC + struct.pack("<IQI", coll.dim, coll.count, zlib.crc32(payload))
            + payload)


@pytest.mark.parametrize("write_block", [None, 1, 200],
                         ids=["default-blocks", "one-record-blocks", "200-byte-blocks"])
def test_saved_metadata_is_what_json_dumps_writes(tmp_path, monkeypatch, write_block):
    if write_block is not None:
        monkeypatch.setattr(vectorstore, "_WRITE_BLOCK", write_block)
    rng = np.random.default_rng(14)
    characters = _ESCAPED + _KEPT
    records = [_record(f"P{c}", i, rng.normal(size=3), text=f"a{c}b", keywords=(c, "k"))
               for i, c in enumerate(characters)]
    records += [_record(characters, 0, rng.normal(size=3), text=characters[::-1],
                        keywords=(characters,)),
                _record("PUB-none", 1, rng.normal(size=3), text="no keywords",
                        keywords=())]
    coll = collection("awkward", 3, records)
    path = save_collection(coll, tmp_path)
    assert path.read_bytes() == _json_dumps_store(coll)
    assert load_collection(path) == coll


def test_index_corpus_embeds_eight_consecutive_rows_per_call(monkeypatch):
    from adam.chunker import CorpusDocument

    calls = []
    embed_many = OfflineHashEmbedder.embed_many

    def recording(self, texts):
        calls.append(list(texts))
        return embed_many(self, calls[-1])

    monkeypatch.setattr(OfflineHashEmbedder, "embed_many", recording)
    rng = np.random.default_rng(15)
    letters = np.array(list("abcdefghij  "))
    docs = [CorpusDocument(f"PUB{i:02d}", "", "".join(rng.choice(letters, 50 * n)),
                           (keyword,))
            for i, (n, keyword) in enumerate(
                [(1, "alzheimer"), (3, "gut"), (8, "alzheimer"), (9, "alzheimer"),
                 (17, "gut"), (1, "gut"), (8, "gut"), (3, "alzheimer"),
                 (17, "alzheimer"), (9, "gut")])]
    colls = index_corpus(docs, OfflineHashEmbedder(dim=32), segment_length=50,
                         overlap=0)
    assert {name: c.count for name, c in colls.items()} == {
        "alzheimers": 38, "microbiome": 38}
    batches = {name: [[rec.text for rec in c.records[start:start + 8]]
                      for start in range(0, c.count, 8)]
               for name, c in colls.items()}
    texts = [text for coll_batches in batches.values()
             for batch in coll_batches for text in batch]
    assert len(set(texts)) == len(texts)
    # At most 8 texts per call, all from one collection and in row order:
    # ceil(38 / 8) calls for each collection.
    assert len(calls) == 10
    assert sorted(calls) == sorted(batch for coll_batches in batches.values()
                                   for batch in coll_batches)
    for coll_batches in batches.values():
        assert [call for call in calls if call in coll_batches] == coll_batches
    for c in colls.values():
        want = embed_oracle.embed_many([rec.text for rec in c.records], 32)
        assert c.matrix.tobytes() == want.tobytes()


def test_semantic_search_wrapper(corpus_path):
    docs = read_corpus(corpus_path)
    backend = OfflineHashEmbedder(dim=64)
    colls = index_corpus(docs, backend)
    searcher = SemanticSearch(collections=tuple(colls.values()),
                              backend=backend, k=3, threshold=-1.0)
    hits, = searcher.query_many(["gut bacterial metabolites in aging"])
    assert len(hits) == 3
    manual = search_many(tuple(colls.values()),
                         [backend.embed("gut bacterial metabolites in aging")],
                         k=3, threshold=-1.0)[0]
    assert hits == manual


def test_query_many_equals_query(corpus_path):
    docs = read_corpus(corpus_path)
    backend = OfflineHashEmbedder(dim=64)
    colls = index_corpus(docs, backend)
    searcher = SemanticSearch(collections=tuple(colls.values()),
                              backend=backend, k=2, threshold=0.2)
    texts = ["gut bacterial metabolites in aging", "Alzheimer's disease",
             "zz", "short-chain fatty acids and cognition"]
    assert searcher.query_many(texts) == [
        search_many(searcher.collections, [backend.embed(t)], k=2, threshold=0.2)[0]
        for t in texts]
    assert searcher.query_many([]) == []


def test_default_routing_shape():
    assert DEFAULT_COLLECTION in DEFAULT_ROUTING
    assert all(isinstance(v, tuple) for v in DEFAULT_ROUTING.values())


def _search_full_scan(collections, query, k, threshold):
    """search() as it was before the per-collection scan cache and top-k
    pruning: recast and renormalize per query, build every hit, sort."""
    if isinstance(collections, Collection):
        collections = (collections,)
    hits = []
    for coll in collections:
        if coll.count == 0:
            continue
        q = np.asarray(query, dtype=np.float64).ravel()
        q = q / float(np.linalg.norm(q))
        matrix = coll.matrix.astype(np.float64)
        norms = np.linalg.norm(matrix, axis=1)
        sims = np.zeros(coll.count)
        nonzero = norms > 0.0
        sims[nonzero] = (matrix[nonzero] @ q) / norms[nonzero]
        for i in np.nonzero(sims >= threshold)[0]:
            rec = coll.records[i]
            hits.append(RetrievalHit(publication_id=rec.publication_id,
                                     segment_index=rec.segment_index,
                                     similarity=float(sims[i]),
                                     collection=coll.name,
                                     text=rec.text))
    hits.sort(key=lambda h: (-h.similarity, h.publication_id,
                             h.segment_index, h.collection))
    return tuple(hits[:k])


def test_cached_top_k_equals_full_scan():
    e = np.eye(4, dtype=np.float32)
    ties = collection("t", 4, (
        _record("PUBC", 0, e[0]), _record("PUBB", 0, e[0] + e[1]),
        _record("PUBA", 3, e[0]), _record("PUBA", 1, 3 * e[0]),
        _record("PUBZ", 0, np.zeros(4)), _record("PUBY", 0, e[2]),
        _record("PUBD", 0, e[0] + e[1])))
    other = collection("s", 4, (
        _record("PUBA", 2, e[0]), _record("PUBB", 0, e[0] + e[1]),
        _record("PUBX", 0, -e[0])))
    cases = [
        (ties, e[0], 2, 0.5),    # three exact ties at the k-th similarity
        (ties, e[0], 4, 0.5),    # the k-th is the first of a second tie group
        (ties, e[0], 6, -1.0),   # zero-norm record ties an orthogonal one at 0
        (ties, e[3], 3, 0.0),    # every record scores 0, zero norm included
        ((ties, other), e[0], 3, 0.5),
        ((other, ties), e[0], 6, -1.0),
        ((ties, other), e[0], 50, 0.5),   # k above the hits at threshold
        ((ties, other), e[1], 50, -0.2),
    ]
    for collections, q, k, threshold in cases:
        assert search_many(collections, [q], k=k, threshold=threshold)[0] == \
            _search_full_scan(collections, q, k, threshold)

    backend = OfflineHashEmbedder(dim=256)
    words = ("gut", "microbiome", "shannon", "alzheimer", "bacteroides",
             "cognition", "diversity", "amyloid")
    rng = np.random.default_rng(7)
    colls = []
    for name in ("a", "b"):
        recs = [_record(f"PUB{i:03d}", i % 3,
                        backend.embed(" ".join(rng.choice(words, 12))))
                for i in range(120)]
        colls.append(collection(name, 256, recs))
    for _ in range(40):
        q = backend.embed(" ".join(rng.choice(words, 6)))
        k = int(rng.integers(1, 30))
        threshold = float(rng.uniform(-0.2, 0.7))
        assert search_many(colls, [q], k=k, threshold=threshold)[0] == \
            _search_full_scan(colls, q, k, threshold)


def test_scan_cache_is_reused_and_invisible():
    coll = _random_collection(8, 50, 12)
    fresh = _random_collection(8, 50, 12)
    q = np.random.default_rng(9).normal(size=12)
    first = search_many(coll, [q], k=7, threshold=-1.0)[0]
    rows, norms = scan = coll._scan
    assert search_many(coll, [q], k=7, threshold=-1.0)[0] == first
    assert coll._scan is scan
    assert not rows.flags.writeable and not norms.flags.writeable
    assert coll == fresh and fresh == coll
    for c in (coll, fresh):
        with pytest.raises(TypeError):
            hash(c)


# Bytes a traced call may hold above the bound it is held to: embedding
# temporaries of one document, record lists, a checksum chunk and
# numpy's reduction buffer.
_SLACK = 256 * 1024


def _traced(call):
    """(result, bytes the result holds, peak bytes) of call(), counted by
    tracemalloc from the start of the call."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


def _generated_corpus(documents, length):
    """Seeded documents of ``length`` characters, all routed to one
    collection."""
    from adam.chunker import CorpusDocument

    rng = np.random.default_rng(11)
    letters = np.array(list("abcdefghij  "))
    return [CorpusDocument(f"PUB{i:04d}", "", "".join(rng.choice(letters, length)))
            for i in range(documents)]


def test_index_corpus_holds_the_vectors_at_most_twice():
    docs = _generated_corpus(200, 700)
    backend = OfflineHashEmbedder(dim=512)
    index_corpus(docs, backend, segment_length=200, overlap=50)  # hash every gram
    colls, held, peak = _traced(
        lambda: index_corpus(docs, backend, segment_length=200, overlap=50))
    (coll,) = colls.values()
    vectors = coll.matrix.nbytes
    assert coll.count == 1000 and vectors == 1000 * 512 * 4
    records = sys.getsizeof(coll.records) + sum(
        sys.getsizeof(rec) + sys.getsizeof(rec.text) for rec in coll.records)
    # The result holds the vectors once and the records; while it is
    # built, at most one more copy of the vectors is alive.
    assert held <= vectors + records + _SLACK
    assert peak <= 2 * vectors + records + _SLACK


@pytest.mark.parametrize("dim, text_length", [(16, 2000), (384, 1000)],
                         ids=["metadata-heavy", "store-like"])
def test_load_collection_never_holds_the_files_bytes(tmp_path, dim, text_length):
    rng = np.random.default_rng(12)
    coll = collection("c", dim, [
        _record(f"PUB{i:04d}", 0, rng.normal(size=dim), text="t" * text_length)
        for i in range(600)])
    path = save_collection(coll, tmp_path)
    size = path.stat().st_size
    loaded, held, peak = _traced(lambda: load_collection(path))
    assert loaded == coll
    matrix = loaded.matrix.nbytes
    assert size > matrix + _SLACK  # the file's bytes do not fit in the slack
    # Beside what the collection holds, only the matrix the file was read
    # into is alive while the collection copies it.
    assert peak <= held + matrix + _SLACK


def test_index_verify_reloads_without_the_corpus(tmp_path):
    """index --verify holds the store it built while it reloads the written
    one, and nothing of the parsed corpus, whose text outweighs its vectors."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"publication_id": doc.publication_id, "text": doc.text}) + "\n"
        for doc in _generated_corpus(400, 5000)), encoding="utf-8")

    def index(store):
        return main(["index", "--corpus", str(corpus), "--store", str(tmp_path / store),
                     "--embedding-dim", "64", "--segment-length", "1000",
                     "--overlap", "0", "--verify"])

    assert index("first") == 0  # hash every gram, import every module
    built, built_held, _ = _traced(lambda: index_corpus(
        read_corpus(corpus), OfflineHashEmbedder(dim=64), segment_length=1000,
        overlap=0))
    _, _, load_peak = _traced(lambda: load_collections(tmp_path / "first"))
    status, _, peak = _traced(lambda: index("second"))
    assert status == 0
    vectors = sum(c.matrix.nbytes for c in built.values())
    assert corpus.stat().st_size > vectors + _SLACK  # the text does not fit in the slack
    # The peak is the reload: the built store beside one load_collections.
    assert peak <= built_held + load_peak + _SLACK
