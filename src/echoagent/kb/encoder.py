"""Text embedding backends.

The shipped encoder is a deterministic hashed bag-of-words: tokens are
lowercased ASCII alphanumeric runs, each token is hashed into one of ``dim``
buckets with a stable (non-salted) hash, bucket counts are L2-normalized.
It exists so that retrieval behaviour is exactly reproducible without any
model weights. ``tokenize`` maps every UTF-8 byte outside ``a-z0-9`` to a
space and splits; a non-ASCII character encodes to bytes >= 0x80, so it
splits tokens as the pattern ``[a-z0-9]+`` would. ``embed_batch`` hashes
each distinct token once per call (a token -> bucket dict local to that
call). It counts each block of ``COUNT_BLOCK`` texts with one
``np.bincount`` over ``row * dim + bucket``, written straight into a
column-major (n, dim) matrix, and normalises the whole matrix at once.
Counts are exact integers, so every sum of squares is exact whatever the
layout. ``embed`` is the one-text batch. A remote encoder can be plugged in
over HTTP with the same batch interface.
"""
from __future__ import annotations

import hashlib
from itertools import chain

import numpy as np

from ..config import EngineConfig
from ..errors import ContractError, EncoderError
from ..wire import JsonEndpoint

# texts counted per np.bincount call: its (COUNT_BLOCK * dim) counts stay small
COUNT_BLOCK = 512

# every byte outside a-z0-9 becomes a space
_TOKEN_BYTES = bytes(
    b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for b in range(256)
)


def tokenize(text: str) -> list[str]:
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).decode(
        "ascii").split()


def _bucket(token: str, dim: int) -> int:
    # python's hash() is salted per process; sha1 keeps buckets stable across runs
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dim


def normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise EncoderError("text produced a zero embedding vector (no tokens)")
    return vec / norm


class HashedBowEncoder:
    def __init__(self, dim: int = 256):
        if dim < 1:
            raise EncoderError("embedding dimension must be >= 1")
        self.dim = dim

    @property
    def encoder_id(self) -> str:
        return f"hashed-bow-{self.dim}"

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """The (n, dim) column-major matrix whose row i embeds ``texts[i]``."""
        if not all(texts):
            raise EncoderError("cannot embed empty text")
        dim = self.dim
        buckets: dict[str, int] = {}
        out = np.empty((len(texts), dim), dtype=np.float64, order="F")
        for start in range(0, len(texts), COUNT_BLOCK):
            block = [tokenize(text) for text in texts[start:start + COUNT_BLOCK]]
            for token in set(chain.from_iterable(block)).difference(buckets):
                buckets[token] = _bucket(token, dim)
            lengths = np.fromiter(map(len, block), dtype=np.intp, count=len(block))
            cells = np.fromiter(map(buckets.__getitem__, chain.from_iterable(block)),
                                dtype=np.intp, count=int(lengths.sum()))
            cells += np.repeat(np.arange(0, len(block) * dim, dim), lengths)
            out[start:start + len(block)] = np.bincount(
                cells, minlength=len(block) * dim).reshape(len(block), dim)
        norms = np.sqrt(np.einsum("ij,ij->i", out, out))
        if not norms.all():
            raise EncoderError("text produced a zero embedding vector (no tokens)")
        out /= norms[:, None]
        return out


class HttpEncoder:
    """Remote encoder speaking POST {url}/embed with {"texts": [...]}.

    Responses are re-normalized defensively; a zero vector from the backend
    is still an encoder error, not a silent bad embedding.
    """

    def __init__(self, config: EngineConfig):
        self.url = config.encoder_url.rstrip("/")
        self.dim = config.embedding_dim
        self._post = JsonEndpoint(
            f"{self.url}/embed", f"encoder backend {self.url}", config
        ).post

    @property
    def encoder_id(self) -> str:
        return f"http:{self.url}"

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        for t in texts:
            if not t:
                raise EncoderError("cannot embed empty text")
        payload, _ = self._post({"texts": list(texts)})
        vectors = payload.get("vectors") if isinstance(payload, dict) else None
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ContractError(
                f"encoder backend {self.url} returned a malformed vectors field"
            )
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for i, vec in enumerate(vectors):
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self.dim,):
                raise ContractError(
                    f"encoder backend returned shape {arr.shape}, expected ({self.dim},)"
                )
            out[i] = normalize(arr)
        return out
