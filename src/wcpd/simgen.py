"""Seeded synthetic series: IID normal/laplace segments with planted changes.

Randomness comes from PCG64 uniform draws pushed through fixed transforms
(Box-Muller for the normal family, inverse CDF for laplace), so outputs are
reproducible bit for bit. Each (seed, segment, dimension) triple owns its own
stream and generation order cannot change the result.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries, _integer

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
        for name, value in (("location", self.location), ("scale", self.scale)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not {value!r}")
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
        segments = tuple(
            (spec, _integer(length, "segment length", 1)) for spec, length in self.segments
        )
        dimension = _integer(self.dimension, "dimension", 1)
        seed = _integer(self.seed, "seed", 0)
        if not segments:
            raise ValueError("series spec needs at least one segment")
        if not all(isinstance(spec, DistSpec) for spec, _ in segments):
            raise ValueError("segment specs must be DistSpec instances")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "seed", seed)


def _uniforms(n: int, entropies) -> np.ndarray:
    """n uniforms on [0, 1) per entropy, one row each from its own PCG64 stream."""
    u = np.empty((len(entropies), n))
    for row, entropy in zip(u, entropies):
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy))).random(out=row)
    return u


def _draw(spec: DistSpec, n: int, entropies) -> np.ndarray:
    """n draws of the spec per stream entropy, one row each.

    Each row equals the one-stream draw of its entropy: the transforms act
    elementwise on all rows at once. A ValueError if location and scale
    overflow float64.
    """
    if spec.family == "normal":
        pairs = (n + 1) // 2
        u = _uniforms(2 * pairs, entropies)
        u1 = 1.0 - u[:, :pairs]  # maps [0, 1) onto (0, 1] so the log stays finite
        u2 = u[:, pairs:]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.empty(u.shape)
        z[:, 0::2] = radius * np.cos(angle)
        z[:, 1::2] = radius * np.sin(angle)
        z = z[:, :n]
    else:
        u = _uniforms(n, entropies)
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
    n = _integer(n, "sample count", 1)
    return _draw(spec, n, [_integer(seed, "seed", 0)])[0]


def _series_rows(segments, seeds, dimension: int) -> np.ndarray:
    """Row r * dimension + j: dimension j of the series of seed ``seeds[r]``.

    Its segment i draws from the stream of entropy (seed, i, j). The rows are
    allocated before any stream is listed, so numpy refuses a size it cannot
    hold up front. A segment whose draws overflow float64 raises a ValueError
    naming it.
    """
    rows = np.empty((len(seeds) * dimension, sum(length for _, length in segments)))
    start = 0
    for index, (spec, length) in enumerate(segments):
        entropies = [[seed, index, dim] for seed in seeds for dim in range(dimension)]
        try:
            rows[:, start : start + length] = _draw(spec, length, entropies)
        except ValueError as exc:
            raise ValueError(f"segment {index}: {exc}") from None
        start += length
    return rows


def generate(series_spec: SeriesSpec) -> TimeSeries:
    """Materialize the spec into a series with ground-truth structure.

    The data are the seed's :func:`_series_rows`, transposed. Change points
    sit at the cumulative segment boundaries; per-sample labels reuse one id
    per distinct DistSpec, so repeated specs share a class.
    """
    specs, lengths = zip(*series_spec.segments)
    ids = {spec: i for i, spec in enumerate(dict.fromkeys(specs))}  # in order of first use
    return TimeSeries(
        data=_series_rows(series_spec.segments, [series_spec.seed], series_spec.dimension).T,
        labels=np.repeat([ids[spec] for spec in specs], lengths),
        change_points=np.cumsum(lengths)[:-1],
    )
