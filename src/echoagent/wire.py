"""One JSON endpoint with bounded retries, shared by every HTTP client.

Connection errors, 5xx, 408 and 429 are retried with exponential backoff;
they may clear on their own (RFC 9110 §15.5, RFC 6585 §4). Any other
non-200 status says the request itself is wrong and fails at once. A 200
whose body is not JSON breaks the backend's contract and is never retried.
This is the only module that imports ``requests``.
"""
from __future__ import annotations

import time

import requests

from .config import EngineConfig
from .errors import ContractError, TransportError

_RETRIED_4XX = (408, 429)


class JsonEndpoint:
    """A remote JSON endpoint: one session, one URL, and the transport settings
    (``http_timeout_s``, ``http_retries``, ``http_backoff_s``) of ``config``.

    ``what`` names the backend in error messages."""

    def __init__(self, url: str, what: str, config: EngineConfig):
        self.url = url
        self.what = what
        self.config = config
        self._session = requests.Session()

    def post(self, body) -> tuple[object, int]:
        """POST ``body``; return the decoded JSON body and the attempts made.

        Both errors raised carry the attempts made as ``attempts``."""
        what, config = self.what, self.config
        attempts = config.http_retries + 1
        for attempt in range(1, attempts + 1):
            try:
                resp = self._session.post(self.url, json=body, timeout=config.http_timeout_s)
            except requests.RequestException as exc:
                error = str(exc)
            else:
                if resp.status_code == 200:
                    try:
                        return resp.json(), attempt
                    except ValueError as exc:
                        broken = ContractError(f"{what} returned a non-JSON body")
                        broken.attempts = attempt
                        raise broken from exc
                error = f"HTTP {resp.status_code}"
                if resp.status_code < 500 and resp.status_code not in _RETRIED_4XX:
                    raise TransportError(f"{what} failed: {error}", attempts=attempt)
            if attempt < attempts:
                time.sleep(config.http_backoff_s * 2 ** (attempt - 1))
        raise TransportError(f"{what} failed after {attempts} attempts: {error}",
                             attempts=attempts)
