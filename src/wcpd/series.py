"""Core time series container shared across the detection and clustering stages."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["TimeSeries"]


def _integer(value, name: str, least: int | None = None) -> int:
    """value as a Python int, refusing bools, non-integers and values below least."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be {'nonnegative' if least == 0 else f'at least {least}'}")
    return value


def _integers(values, name: str) -> np.ndarray:
    """A new int array of values, refusing floats and bools; empty passes."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, not {array.dtype}")
    return array.astype(int)


def _float(value) -> float:
    """A real number as a float, ±inf if it is beyond float64; NaN for a bool or a non-real."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real(value, name: str) -> None:
    """Refuse value unless it is a real number that is finite in float64; a bool is not one."""
    if not math.isfinite(_float(value)):
        raise ValueError(f"{name} must be a finite real number, not {value!r}")


def _reals(values, name: str, finite: str | None = None) -> np.ndarray:
    """A new float array of values, refusing strings, bools and complex numbers.

    numpy holds Python ints beyond int64 in an object array; one whose
    entries are all ints and floats is converted entry by entry. Given
    ``finite``, the noun for one entry, NaN and ±inf are refused too, as
    ``non-finite <finite>``; a longdouble beyond float64 counts as inf.
    """
    array = np.asarray(values)
    if not isinstance(values, np.ndarray) and array.ndim and array.dtype.kind in "iuf":
        # numpy reads a bool among the numbers of a sequence as 0 or 1
        if not {bool, np.bool_}.isdisjoint(map(type, np.asarray(values, dtype=object).flat)):
            raise ValueError(f"{name} must be real numbers, not bool")
    if array.dtype == object and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in array.flat
    ):
        try:
            array = np.array([float(v) for v in array.flat]).reshape(array.shape)
        except OverflowError:
            raise ValueError(f"{name} must fit in a float: an integer is too large") from None
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, not {array.dtype}")
    with np.errstate(over="ignore"):
        array = array.astype(float)
    if finite is not None and not np.isfinite(array).all():
        raise ValueError(f"non-finite {finite}")
    return array


@dataclass(frozen=True)
class TimeSeries:
    """t-indexed, d-dimensional samples with optional ground truth.

    ``data`` is coerced to shape (T, d); a 1-D input becomes a single column.
    ``change_points`` are strictly increasing indices in (0, T), each marking
    the first sample of a new segment. ``labels`` holds one integer class per
    sample.
    """

    data: np.ndarray
    labels: np.ndarray | None = None
    change_points: np.ndarray | None = None

    def __post_init__(self):
        data = _reals(self.data, "data", "sample")
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("data must be a nonempty (T, d) array")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

        if self.labels is not None:
            labels = _integers(self.labels, "labels")
            if labels.shape != (data.shape[0],):
                raise ValueError("labels must have one entry per sample")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

        if self.change_points is not None:
            cps = _integers(self.change_points, "change points")
            if cps.ndim != 1:
                raise ValueError("change points must be a flat index sequence")
            if cps.size:
                if np.any(np.diff(cps) <= 0):
                    raise ValueError("change points must be strictly increasing")
                if cps[0] <= 0 or cps[-1] >= data.shape[0]:
                    raise ValueError("change points must lie strictly inside (0, T)")
            cps.setflags(write=False)
            object.__setattr__(self, "change_points", cps)

    def __len__(self) -> int:
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])
