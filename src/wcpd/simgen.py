"""Seeded synthetic series: IID normal/laplace segments with planted changes.

Randomness comes from PCG64 uniform draws pushed through fixed transforms
(Box-Muller for the normal family, inverse CDF for laplace), so outputs are
reproducible bit for bit. Each (seed, segment, dimension) triple owns its own
stream and generation order cannot change the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TimeSeries

__all__ = ["DistSpec", "SeriesSpec", "sample", "generate"]

FAMILIES = ("normal", "laplace")

_TINY = 2.0 ** -60  # floor for log arguments when a uniform lands on 0


@dataclass(frozen=True)
class DistSpec:
    """Location/scale member of the normal or laplace family.

    For ``normal`` the scale is the standard deviation. For ``laplace`` the
    scale is the b of the exp(-|x - loc|/b) density, so the variance is 2*b**2
    and b = 1/sqrt(2) gives unit variance.
    """

    family: str
    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not np.isfinite(self.location):
            raise ValueError("non-finite location")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class SeriesSpec:
    """Plan for a concatenation of IID segments."""

    segments: tuple[tuple[DistSpec, int], ...]
    dimension: int = 1
    seed: int = 0

    def __post_init__(self):
        segments = tuple((spec, int(length)) for spec, length in self.segments)
        if not segments:
            raise ValueError("series spec needs at least one segment")
        for spec, length in segments:
            if not isinstance(spec, DistSpec):
                raise ValueError("segment specs must be DistSpec instances")
            if length < 1:
                raise ValueError("segment lengths must be at least 1")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "segments", segments)


def _uniforms(n: int, entropy) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    return rng.random(n)


def _draw(spec: DistSpec, n: int, entropy) -> np.ndarray:
    """n draws of the spec; a ValueError if location and scale overflow float64."""
    if spec.family == "normal":
        pairs = (n + 1) // 2
        u = _uniforms(2 * pairs, entropy)
        u1 = 1.0 - u[:pairs]  # maps [0, 1) onto (0, 1] so the log stays finite
        u2 = u[pairs:]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        z = z[:n]
    else:
        u = _uniforms(n, entropy)
        centered = u - 0.5
        body = np.maximum(1.0 - 2.0 * np.abs(centered), _TINY)
        z = -np.sign(centered) * np.log(body)
    with np.errstate(over="ignore"):
        values = spec.location + spec.scale * z
    if not np.isfinite(values).all():
        raise ValueError("location and scale overflow to a non-finite sample")
    return values


def sample(spec: DistSpec, n: int, seed: int) -> np.ndarray:
    """Draw n IID values from the spec, deterministically for a given seed."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return _draw(spec, n, seed)


def generate(series_spec: SeriesSpec) -> TimeSeries:
    """Materialize the spec into a series with ground-truth structure.

    Change points sit at the cumulative segment boundaries; per-sample labels
    reuse one id per distinct DistSpec, so repeated specs share a class. A
    segment whose draws overflow float64 raises a ValueError naming it.
    """
    total = sum(length for _, length in series_spec.segments)
    d = series_spec.dimension
    data = np.empty((total, d))
    labels = np.empty(total, dtype=int)

    spec_ids: dict[DistSpec, int] = {}
    change_points = []
    offset = 0
    for seg_idx, (spec, length) in enumerate(series_spec.segments):
        if spec not in spec_ids:
            spec_ids[spec] = len(spec_ids)
        for dim in range(d):
            try:
                data[offset : offset + length, dim] = _draw(
                    spec, length, [series_spec.seed, seg_idx, dim]
                )
            except ValueError as exc:
                raise ValueError(f"segment {seg_idx}: {exc}") from None
        labels[offset : offset + length] = spec_ids[spec]
        offset += length
        if offset < total:
            change_points.append(offset)

    return TimeSeries(
        data=data,
        labels=labels,
        change_points=np.asarray(change_points, dtype=int),
    )
