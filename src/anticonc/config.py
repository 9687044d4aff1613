"""Runtime numeric configuration.

One record collects every tunable tolerance: the 2F1 series truncation,
the oracle quadrature tolerance, the Monte Carlo sample count, and the
master seed.  The CLI commands `curve` and `verify` read it from a JSON
file (--config or the ANTICONC_CONFIG environment variable); the library
defaults match the values the acceptance tolerances were pinned against.

Random streams are numpy PCG64 generators: reproducible from a 64-bit
seed, period 2^128.  Per-task streams are derived from the master seed
with numpy's SeedSequence so fan-out order never changes results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import DomainError
from .specfun import SeriesConfig

__all__ = ["NumericConfig", "DEFAULT_CONFIG"]

_FIELDS = ("rel_tol", "max_terms", "quad_tol", "mc_samples", "seed")


@dataclass(frozen=True)
class NumericConfig:
    rel_tol: float = 1e-15
    max_terms: int = 10**6
    quad_tol: float = 1e-12
    mc_samples: int = 10**6
    seed: int = 123456789

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if not (0.0 < self.quad_tol < 1.0):
            raise DomainError(f"quad_tol must lie in (0, 1), got {self.quad_tol}")
        if self.mc_samples < 1:
            raise DomainError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if not (0 <= int(self.seed) < 2**64):
            raise DomainError(f"seed must be a 64-bit integer, got {self.seed}")

    def series(self) -> SeriesConfig:
        return SeriesConfig(rel_tol=self.rel_tol, max_terms=self.max_terms)

    def with_seed(self, seed: int) -> "NumericConfig":
        return replace(self, seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "NumericConfig":
        """Parse a (possibly partial) JSON object; unknown keys are errors."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DomainError("config JSON must be an object")
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for key in _FIELDS:
            if key in data:
                value = data[key]
                kwargs[key] = int(value) if key in ("max_terms", "mc_samples", "seed") else float(value)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "NumericConfig":
        return cls.from_json(Path(path).read_text())

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in _FIELDS}, indent=2)


DEFAULT_CONFIG = NumericConfig()
