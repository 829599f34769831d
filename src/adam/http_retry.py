"""One JSON endpoint with retries, held by the remote LLM and embedding clients.

A post makes up to MAX_ATTEMPTS POSTs. Transport errors and HTTP
429/5xx replies are retried after exponential backoffs (1 s base,
doubling); any other non-200 reply raises at once, as does a 200 reply
whose body is not JSON. Every failure is a BackendError. ``requests``
is imported only here, on the first post, so mock runs never load it.
"""

from __future__ import annotations

import os
import time

from .errors import BackendError

MAX_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0


class JsonEndpoint:
    """POSTs JSON documents to one URL with a bearer token.

    :param key_variable: environment variable holding the token when
        api_key is not given.
    :param timeout: seconds each POST may take.
    :param session: object with ``requests.Session.post``'s signature;
        a ``requests.Session`` is made on the first post when None.
    :param sleeper: called with each backoff in seconds.
    """

    def __init__(self, url: str, key_variable: str, timeout: float,
                 api_key: str | None = None, session=None, sleeper=time.sleep):
        self.url = url
        self._key_variable = key_variable
        self._timeout = timeout
        self._api_key = api_key
        self._session = session
        self._sleep = sleeper

    def post(self, payload: dict, what: str):
        """The decoded JSON body of the first 200 reply.

        :param what: request kind named in error messages ("chat", ...).
        """
        import requests

        key = self._api_key or os.environ.get(self._key_variable, "")
        if not key:
            raise BackendError(
                f"no API key: pass api_key or set {self._key_variable}")
        if self._session is None:
            self._session = requests.Session()
        headers = {"Authorization": f"Bearer {key}"}
        delay = BACKOFF_BASE_SECONDS
        last = "no attempt made"
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                response = self._session.post(self.url, json=payload,
                                              headers=headers,
                                              timeout=self._timeout)
            except requests.RequestException as exc:
                last = f"transport error: {exc}"
            else:
                if response.status_code == 200:
                    try:
                        return response.json()
                    except (ValueError, RecursionError) as exc:
                        raise BackendError(
                            f"{what} response body is not JSON: {exc}") from exc
                last = f"HTTP {response.status_code}"
                if response.status_code < 500 and response.status_code != 429:
                    raise BackendError(
                        f"{what} request rejected after {attempt} attempt(s): "
                        f"{last}")
            if attempt < MAX_ATTEMPTS:
                self._sleep(delay)
                delay *= BACKOFF_FACTOR
        raise BackendError(
            f"{what} request failed after {MAX_ATTEMPTS} attempts: {last}")
