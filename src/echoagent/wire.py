"""One JSON POST with bounded retries, shared by every HTTP client.

Connection errors, 5xx, 408 and 429 are retried with exponential backoff;
they may clear on their own (RFC 9110 §15.5, RFC 6585 §4). Any other
non-200 status says the request itself is wrong and fails at once. A 200
whose body is not JSON breaks the backend's contract and is never retried.
"""
from __future__ import annotations

import time

import requests

from .errors import ContractError, TransportError

_RETRIED_4XX = (408, 429)


def post_json(session: requests.Session, url: str, body, what: str,
              timeout_s: float, retries: int, backoff_s: float) -> tuple[object, int]:
    """POST ``body`` to ``url``; return the decoded JSON body and the attempts made.

    ``what`` names the backend in error messages. Both errors raised carry
    the attempts made as ``attempts``."""
    attempts = retries + 1
    for attempt in range(1, attempts + 1):
        try:
            resp = session.post(url, json=body, timeout=timeout_s)
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
                raise TransportError(f"{what} failed: {error}", backend=url, attempts=attempt)
        if attempt < attempts:
            time.sleep(backoff_s * 2 ** (attempt - 1))
    raise TransportError(
        f"{what} failed after {attempts} attempts: {error}", backend=url, attempts=attempts
    )
