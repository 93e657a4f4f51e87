"""Core time series container shared across the detection and clustering stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeSeries"]


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
        data = np.array(self.data, dtype=float)
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("data must be a nonempty (T, d) array")
        if not np.all(np.isfinite(data)):
            raise ValueError("non-finite sample")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind not in "iu":
                raise ValueError(f"labels must be integers, not {labels.dtype}")
            labels = labels.astype(int)
            if labels.shape != (data.shape[0],):
                raise ValueError("labels must have one entry per sample")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

        if self.change_points is not None:
            cps = np.array(self.change_points, dtype=int)
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
