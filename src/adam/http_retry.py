"""One JSON POST with retries, shared by the remote LLM and embedding clients.

A request makes up to max_attempts POSTs. Transport errors and HTTP
429/5xx replies are retried after exponential backoffs (1 s base,
doubling); any other non-200 reply raises at once, as does a 200 reply
whose body is not JSON. Every failure is a BackendError. ``requests``
is imported only here and by the clients' constructors, so mock runs
never load it.
"""

from __future__ import annotations

import os

from .errors import BackendError

MAX_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0


def post_with_backoff(session, url: str, payload: dict, *, what: str,
                      api_key: str | None, key_variable: str,
                      timeout: float, max_attempts: int, sleeper):
    """The decoded JSON body of the first 200 reply.

    :param what: request kind named in error messages ("chat", ...).
    :param api_key: bearer token; falls back to the environment
        variable key_variable.
    :param sleeper: called with each backoff in seconds.
    """
    import requests

    key = api_key or os.environ.get(key_variable, "")
    if not key:
        raise BackendError(f"no API key: pass api_key or set {key_variable}")
    headers = {"Authorization": f"Bearer {key}"}
    delay = BACKOFF_BASE_SECONDS
    last = "no attempt made"
    for attempt in range(1, max_attempts + 1):
        try:
            response = session.post(url, json=payload, headers=headers,
                                    timeout=timeout)
        except requests.RequestException as exc:
            last = f"transport error: {exc}"
        else:
            if response.status_code == 200:
                try:
                    return response.json()
                except ValueError as exc:
                    raise BackendError(
                        f"{what} response body is not JSON: {exc}") from exc
            last = f"HTTP {response.status_code}"
            if response.status_code < 500 and response.status_code != 429:
                raise BackendError(
                    f"{what} request rejected after {attempt} attempt(s): "
                    f"{last}")
        if attempt < max_attempts:
            sleeper(delay)
            delay *= BACKOFF_FACTOR
    raise BackendError(
        f"{what} request failed after {max_attempts} attempts: {last}")
