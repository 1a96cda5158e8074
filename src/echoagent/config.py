"""Engine configuration: one flat, validated threshold block.

The same keys accepted here are accepted in the JSON config file passed to
the CLI (``--config`` or the ``ECHOAGENT_CONFIG`` environment variable).
Unknown keys are rejected rather than ignored.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

ENV_CONFIG_VAR = "ECHOAGENT_CONFIG"
# the values each declared field type accepts; a bool is never a number here
_ACCEPTS = {"int": (int,), "float": (int, float), "str | None": (str, type(None))}


@dataclass(frozen=True)
class EngineConfig:
    # retrieval / knowledge base
    s_min: float = 0.05            # minimum query similarity to resolve an anatomy
    k: int = 8                     # top-k primitives per repository entry
    embedding_dim: int = 256
    max_chunk_chars: int = 800
    # reasoning loop
    c_min: float = 0.5             # evidence confidence floor before re-measurement
    e_max: float = 0.8             # normalized posterior entropy ceiling
    p_stop: float = 0.9            # max posterior below which a conclusion is low-consistency
    d_max: int = 40                # hard cap on executed steps
    beta: float = 1.0              # support edge boost, log(1 + beta) per unit weight
    gamma: float = 0.8             # contradiction damping, log(1 - gamma) per unit weight
    # quantification
    n_disks: int = 20
    # view taxonomy file (newline-delimited names); default trio + placeholders
    taxonomy_path: str | None = None
    # remote backends (all optional; mocks/native used when unset)
    encoder_url: str | None = None
    summarizer_url: str | None = None
    tool_url: str | None = None
    http_timeout_s: float = 5.0
    http_retries: int = 2
    http_backoff_s: float = 0.1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        checks = [
            (-1.0 <= self.s_min <= 1.0, "s_min must be in [-1, 1]"),
            (self.k >= 1, "k must be >= 1"),
            (self.embedding_dim >= 1, "embedding_dim must be >= 1"),
            (self.max_chunk_chars >= 1, "max_chunk_chars must be >= 1"),
            (0.0 <= self.c_min <= 1.0, "c_min must be in [0, 1]"),
            (0.0 <= self.e_max <= 1.0, "e_max must be in [0, 1]"),
            (0.0 <= self.p_stop <= 1.0, "p_stop must be in [0, 1]"),
            (self.d_max >= 0, "d_max must be >= 0"),
            (self.beta >= 0.0, "beta must be >= 0"),
            (0.0 <= self.gamma < 1.0, "gamma must be in [0, 1)"),
            (self.n_disks >= 1, "n_disks must be >= 1"),
            (self.http_timeout_s > 0, "http_timeout_s must be > 0"),
            (self.http_retries >= 0, "http_retries must be >= 0"),
            (self.http_backoff_s >= 0, "http_backoff_s must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    @classmethod
    def from_dict(cls, raw: dict) -> "EngineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "EngineConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # invalid JSON or undecodable bytes
            raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        return cls.from_dict(raw)

    @classmethod
    def resolve(cls, explicit_path: str | None = None) -> "EngineConfig":
        """Explicit path wins; otherwise the env var; otherwise defaults."""
        if explicit_path:
            return cls.from_file(explicit_path)
        env_path = os.environ.get(ENV_CONFIG_VAR)
        if env_path:
            return cls.from_file(env_path)
        return cls()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
