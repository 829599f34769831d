"""Embedding backends: offline hashing and HTTP client behavior."""

import numpy as np
import pytest

from adam.embedding import (
    API_KEY_VARIABLE,
    DEFAULT_DIMENSION,
    DEFAULT_MAX_CHARS,
    OfflineHashEmbedder,
    RemoteEmbedder,
)
from adam.errors import (
    BackendError,
    DimensionError,
    EmptyInputError,
    SizeGuardError,
)
from adam.http_retry import BACKOFF_BASE_SECONDS


# --- offline backend --------------------------------------------------------

def test_offline_determinism_and_normalization():
    backend = OfflineHashEmbedder(dim=256)
    v1 = backend.embed("gut microbiome diversity")
    v2 = backend.embed("gut microbiome diversity")
    assert np.array_equal(v1, v2)
    assert v1.shape == (256,)
    assert v1.dtype == np.float32
    assert abs(float(np.linalg.norm(v1)) - 1.0) < 1e-6
    assert not np.array_equal(v1, backend.embed("gut microbiome diversitY"))


def test_offline_default_dimension():
    assert OfflineHashEmbedder().dim == DEFAULT_DIMENSION


def test_offline_distinguishes_unrelated_texts():
    backend = OfflineHashEmbedder(dim=512)
    a = backend.embed("aaa aaa aaa")
    z = backend.embed("zzz zzz zzz")
    assert float(a @ z) < 0.99


def test_offline_short_and_degenerate_texts():
    backend = OfflineHashEmbedder(dim=64)
    for text in ("a", "ab", "x"):
        v = backend.embed(text)
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-6
    with pytest.raises(EmptyInputError):
        backend.embed("")


def test_offline_batch_order():
    backend = OfflineHashEmbedder(dim=128)
    texts = ["first text", "second text", "third text"]
    matrix = backend.embed_many(texts)
    assert matrix.shape == (3, 128)
    for i, text in enumerate(texts):
        assert np.array_equal(matrix[i], backend.embed(text))


def test_offline_dim_guard():
    with pytest.raises(DimensionError):
        OfflineHashEmbedder(dim=0)


# --- remote backend through a fake HTTP session -----------------------------

class _Response:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body if body is not None else {}

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class _Session:
    """Scripted responses; records every POST."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "payload": json,
                           "headers": headers, "timeout": timeout})
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def _ok_body(vectors, reorder=False):
    data = [{"index": i, "embedding": v} for i, v in enumerate(vectors)]
    if reorder:
        data = data[::-1]
    return {"data": data}


def _remote(script):
    sleeps = []
    session = _Session(script)
    backend = RemoteEmbedder("http://example.test/v1/embeddings",
                             model="test-model", dim=3, api_key="k",
                             session=session, sleeper=sleeps.append)
    return backend, session, sleeps


def test_remote_success_and_payload():
    backend, session, sleeps = _remote([_Response(200, _ok_body([[1, 0, 0]]))])
    v = backend.embed("hello")
    assert np.allclose(v, [1.0, 0.0, 0.0])
    call = session.calls[0]
    assert call["url"] == "http://example.test/v1/embeddings"
    assert call["payload"] == {"model": "test-model", "input": ["hello"]}
    assert call["timeout"] == 60.0
    assert call["headers"]["Authorization"] == "Bearer k"
    assert sleeps == []


def test_remote_resorts_by_index():
    body = _ok_body([[1, 0, 0], [0, 1, 0]], reorder=True)
    backend, _, _ = _remote([_Response(200, body)])
    matrix = backend.embed_many(["a", "b"])
    assert np.allclose(matrix[0], [1, 0, 0])
    assert np.allclose(matrix[1], [0, 1, 0])


def test_remote_keeps_file_order_without_indices():
    body = {"data": [{"embedding": [0, 1, 0]}, {"embedding": [1, 0, 0]}]}
    backend, _, _ = _remote([_Response(200, body)])
    matrix = backend.embed_many(["a", "b"])
    assert np.allclose(matrix[0], [0, 1, 0])
    assert np.allclose(matrix[1], [1, 0, 0])


def test_remote_retries_on_5xx_with_backoff():
    backend, session, sleeps = _remote([
        _Response(500), _Response(503),
        _Response(200, _ok_body([[0, 2, 0]])),
    ])
    v = backend.embed("text")
    assert np.allclose(v, [0, 1, 0])
    assert len(session.calls) == 3
    assert sleeps == [BACKOFF_BASE_SECONDS, BACKOFF_BASE_SECONDS * 2]


def test_remote_retries_on_429():
    backend, session, _ = _remote([
        _Response(429), _Response(200, _ok_body([[1, 1, 0]]))])
    backend.embed("text")
    assert len(session.calls) == 2


def test_remote_fails_fast_on_4xx():
    backend, session, sleeps = _remote([_Response(400)])
    with pytest.raises(BackendError, match="HTTP 400"):
        backend.embed("text")
    assert len(session.calls) == 1
    assert sleeps == []


def test_remote_exhausts_attempts():
    import requests as _requests
    script = [_Response(500), _requests.ConnectionError("boom"),
              _Response(502), _Response(503), _Response(504)]
    backend, session, sleeps = _remote(script)
    with pytest.raises(BackendError, match="after 5 attempts: HTTP 504"):
        backend.embed("text")
    assert len(session.calls) == 5
    assert sleeps == [1.0, 2.0, 4.0, 8.0]


def test_remote_dimension_mismatch():
    backend, _, _ = _remote([_Response(200, _ok_body([[1, 0]]))])
    with pytest.raises(DimensionError):
        backend.embed("text")


def test_remote_malformed_and_short_responses():
    backend, _, _ = _remote([_Response(200, {"nope": []})])
    with pytest.raises(BackendError, match="malformed"):
        backend.embed("text")
    backend2, _, _ = _remote([_Response(200, _ok_body([]))])
    with pytest.raises(BackendError, match="expected 1 vectors"):
        backend2.embed("text")


@pytest.mark.parametrize("body", [
    pytest.param({"data": [1]}, id="row-int"),
    pytest.param({"data": "abc"}, id="data-str"),
    pytest.param({"data": {"index": 0}}, id="data-dict"),
    pytest.param({"data": [{"index": "x", "embedding": [1, 0, 0]},
                           {"index": 0, "embedding": [0, 1, 0]}]}, id="index-mixed"),
    # indices are 0..n-1 on every row, or on none
    pytest.param({"data": [{"index": 0, "embedding": [1, 0, 0]},
                           {"index": 0, "embedding": [0, 1, 0]}]}, id="index-repeated"),
    pytest.param({"data": [{"index": 7, "embedding": [1, 0, 0]}]},
                 id="index-out-of-range"),
    pytest.param({"data": [{"index": True, "embedding": [1, 0, 0]},
                           {"index": False, "embedding": [0, 1, 0]}]}, id="index-bool"),
    pytest.param({"data": [{"embedding": [1, 0, 0]},
                           {"index": 1, "embedding": [0, 1, 0]}]}, id="index-on-some-rows"),
    pytest.param({"data": [{"embedding": 5}]}, id="embedding-int"),
    pytest.param({"data": [{"embedding": "abc"}]}, id="embedding-str"),
    pytest.param({"data": [{"embedding": {"a": 1}}]}, id="embedding-dict"),
    pytest.param({"data": [{"embedding": None}]}, id="embedding-null"),
    pytest.param({"data": [{"embedding": [1, "x", 0]}]}, id="element-str"),
    pytest.param({"data": [{"embedding": [True, 0, 0]}]}, id="element-bool"),
    pytest.param({"data": [{"embedding": [[1], 0, 0]}]}, id="element-list"),
    pytest.param({"data": [{"embedding": [0, 0, 0]}]}, id="zero-vector"),
    pytest.param({"data": [{"embedding": [float("nan"), 1, 0]}]}, id="element-nan"),
    pytest.param({"data": [{"embedding": [float("inf"), 1, 0]}]}, id="element-inf"),
])
def test_remote_rejects_malformed_embedding_shapes(body):
    expected = len(body["data"]) if isinstance(body["data"], list) else 1
    backend, session, _ = _remote([_Response(200, body)])
    with pytest.raises(BackendError, match="malformed embeddings response"):
        backend.embed_many(["text"] * expected)
    assert len(session.calls) == 1


def test_remote_rejects_non_json_body():
    backend, session, sleeps = _remote([_Response(200, ValueError("<html>"))])
    with pytest.raises(BackendError, match="embedding response body is not JSON"):
        backend.embed("text")
    assert len(session.calls) == 1
    assert sleeps == []


def test_remote_requires_credential(monkeypatch):
    monkeypatch.delenv(API_KEY_VARIABLE, raising=False)
    backend = RemoteEmbedder("http://example.test", dim=3,
                             session=_Session([]), sleeper=lambda s: None)
    with pytest.raises(BackendError, match=API_KEY_VARIABLE):
        backend.embed("text")
    monkeypatch.setenv(API_KEY_VARIABLE, "from-env")
    backend2 = RemoteEmbedder(
        "http://example.test", dim=3,
        session=_Session([_Response(200, _ok_body([[0, 0, 3]]))]),
        sleeper=lambda s: None)
    assert np.allclose(backend2.embed("text"), [0, 0, 1])


def test_remote_size_guard():
    backend, session, _ = _remote([])
    with pytest.raises(SizeGuardError, match="remote-test-model backend limit of 8000"):
        backend.embed("y" * (DEFAULT_MAX_CHARS + 1))
    assert session.calls == []
    with pytest.raises(DimensionError):
        RemoteEmbedder("http://example.test", dim=0)


def test_remote_empty_batch():
    backend, session, _ = _remote([])
    out = backend.embed_many([])
    assert out.shape == (0, 3)
    assert session.calls == []

