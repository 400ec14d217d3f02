"""Seedable random streams with cheap independent sub-streams.

Streams are backed by the counter-based Philox generator keyed by the
pair ``(seed, stream_id)``: the same pair always reproduces the same
draw sequence, and distinct stream ids give statistically independent
sequences without any coordination between them.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; bijective on 64-bit words.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for child component ``index``.

    Used wherever one user-facing seed has to fan out into several
    independent seeds (e.g. one chain seed per simulation replicate).
    """
    return _splitmix64((seed & _MASK64) ^ _splitmix64((index + 1) & _MASK64))


class RngStream:
    """Single-owner random stream; not safe to share across threads."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def standard_normal(self, k: int) -> np.ndarray:
        """k independent N(0, 1) draws."""
        return self._gen.standard_normal(int(k))

    def uniform(self, size: int | None = None):
        """Uniform draws on the open interval (0, 1); scalar when size is None."""
        if size is None:
            u = self._gen.random()
            return u if u > 0.0 else np.nextafter(0.0, 1.0)
        u = self._gen.random(int(size))
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        return u

    def gamma(self, shape: float, rate: float) -> float:
        """One Gamma(shape, rate) draw (density x^(shape-1) e^(-rate x))."""
        if not (shape > 0.0 and rate > 0.0):
            raise InvalidParameter(
                f"gamma requires shape > 0 and rate > 0, got {shape}, {rate}"
            )
        return float(self._gen.gamma(shape, 1.0 / rate))
