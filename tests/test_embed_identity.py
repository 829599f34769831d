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


# --- the process-wide gram table ------------------------------------------------

MASK = (1 << embedding.CODE_POINT_BITS) - 1


@pytest.fixture()
def fresh_tables(monkeypatch):
    """An empty gram table for the test, restored afterwards."""
    tables = {}
    monkeypatch.setattr(embedding, "_gram_tables", tables)
    return tables


def _table_grams(tables, dim):
    """Each gram of the table at ``dim`` with its (coordinate, sign),
    decoded from the keys independently of the embedder."""
    keys, buckets, signs = tables[dim]
    assert keys[-1] == np.uint64(2**64 - 1)  # the sentinel
    keys = [int(k) for k in keys[:-1]]
    assert keys == sorted(set(keys))
    grams = [chr(k >> 2 * embedding.CODE_POINT_BITS)
             + chr(k >> embedding.CODE_POINT_BITS & MASK) + chr(k & MASK)
             for k in keys]
    return dict(zip(grams, zip(buckets[:-1].tolist(), signs[:-1].tolist())))


def _run_calls(tables, dim, batches):
    """Each batch embedded in turn equals the oracle; returns the grams
    of 3 or more characters the table should now hold."""
    backend = OfflineHashEmbedder(dim=dim)
    seen = set()
    for batch in batches:
        _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))
        seen.update(g for text in batch if len(text) >= 3
                    for g in oracle.grams(text))
        table = _table_grams(tables, dim) if seen else {}
        assert table == {g: oracle.gram_bucket(g, dim) for g in seen}
    return seen


@pytest.mark.parametrize("dim", DIMS)
def test_table_grows_across_calls(fresh_tables, dim):
    # every call after the first finds some of its grams in the table
    batches = [["gut microbiome"], ["microbiome diversity", "gut"],
               ["diversity of the gut microbiome"] * 2,
               _seeded_corpus(documents=5)[:2], ["gut microbiome"]]
    seen = _run_calls(fresh_tables, dim, batches)
    assert len(_table_grams(fresh_tables, dim)) == len(seen) > 100


@pytest.mark.parametrize("dim", DIMS)
def test_table_holds_astral_grams(fresh_tables, dim):
    astral = "\U0001F9A0\U0010FFFF\U0001F9A0 gut \U00020000\U0001F9A0"
    _run_calls(fresh_tables, dim, [[astral], [astral[::-1], astral],
                                   ["\U0010FFFF" * 4, astral]])


@pytest.mark.parametrize("dim", DIMS)
def test_short_texts_bypass_the_table(fresh_tables, dim):
    _run_calls(fresh_tables, dim, [["a", "ab", "\U0001F9A0"], ["ab"]])
    assert dim not in fresh_tables
    _run_calls(fresh_tables, dim, [["ab", "abc", "b"], ["abc", "a"]])
    assert list(_table_grams(fresh_tables, dim)) == ["abc"]


@pytest.mark.parametrize("dim", DIMS)
def test_cancelling_grams_from_the_table_take_the_fallback(fresh_tables, dim):
    text = _cancelling(dim)
    _run_calls(fresh_tables, dim, [[text], [text, "microbiome"], [text]])


def test_tables_per_dimension_interleaved(fresh_tables):
    batches = [["gut microbiome"], ["microbiome diversity"],
               ["gut \U0001F9A0 microbiome", "ab"]]
    backends = {dim: OfflineHashEmbedder(dim=dim) for dim in (7, 64, 1536)}
    for batch in batches:
        for dim, backend in backends.items():
            _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))
    grams = {g for batch in batches for text in batch if len(text) >= 3
             for g in oracle.grams(text)}
    for dim in backends:
        assert _table_grams(fresh_tables, dim) == {
            g: oracle.gram_bucket(g, dim) for g in grams}


@pytest.mark.parametrize("bound", [1, 16, 40])
def test_table_starts_over_past_its_bound(fresh_tables, monkeypatch, bound):
    monkeypatch.setattr(embedding, "GRAM_CACHE_SIZE", bound)
    dim = 64
    backend = OfflineHashEmbedder(dim=dim)
    batches = [["gut microbiome"], ["microbiome diversity"],
               ["diversity of the gut microbiome", "abc"], ["abc", "gut"],
               _seeded_corpus(documents=5)[:1], ["gut microbiome"]]
    for batch in batches:
        _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))
        table = _table_grams(fresh_tables, dim)
        assert 0 < len(table) <= bound
        assert table == {g: oracle.gram_bucket(g, dim) for g in table}


def test_table_never_passes_gram_cache_size(fresh_tables):
    # one call with more distinct grams than the bound, then one that
    # looks up what the table kept
    rng = random.Random(5)
    alphabet = string.ascii_letters + string.digits + " .,-\U0001F9A0"
    text = "".join(rng.choice(alphabet) for _ in range(45_000))
    dim = 7
    backend = OfflineHashEmbedder(dim=dim)
    assert len(set(oracle.grams(text))) > embedding.GRAM_CACHE_SIZE
    for batch in ([text], [text[::-1], text[:3000]]):
        _same_bytes(backend.embed_many(batch), oracle.embed_many(batch, dim))
        table = _table_grams(fresh_tables, dim)
        assert len(table) == embedding.GRAM_CACHE_SIZE
        assert all(table[g] == oracle.gram_bucket(g, dim)
                   for g in list(table)[::97])
