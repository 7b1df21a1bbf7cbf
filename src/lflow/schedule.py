"""The straight-line interpolation path and its clamp window.

The package works on the path z_t = (1 - t) z0 + t z1: coefficient 1 - t
on the data side, t on the noise side. The formulas divide by t or 1 - t,
so a run keeps time in [t_min, t_max], by default [1e-3, 1 - 1e-3]: it
starts at t_s <= t_max, moves down, and clamps stage times up to t_min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

T_MIN_DEFAULT = 1e-3
T_MAX_DEFAULT = 1.0 - 1e-3


def _check_unit_time(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return t


@dataclass(frozen=True)
class PathSchedule:
    """The straight-line (conditional optimal transport) path with a
    clamped working window."""

    t_min: float = T_MIN_DEFAULT
    t_max: float = T_MAX_DEFAULT

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max < 1.0:
            raise ValueError(
                f"need 0 < t_min < t_max < 1, got [{self.t_min}, {self.t_max}]"
            )

    def interpolate(self, z0, z1, t: float):
        """(1-t) z0 + t z1. Exact at both endpoints, no clamping."""
        t = _check_unit_time(t)
        z0 = np.asarray(z0, dtype=np.float64)
        z1 = np.asarray(z1, dtype=np.float64)
        if z0.shape != z1.shape:
            raise ShapeMismatchError(
                f"endpoint shapes differ: {z0.shape} vs {z1.shape}"
            )
        if t == 0.0:
            return z0.copy()
        if t == 1.0:
            return z1.copy()
        return (1.0 - t) * z0 + t * z1
