"""Velocity fields and the posterior moments they induce.

The reference field is the one generated by a Gaussian prior N(0, sigma^2 I)
on the clean variable: along the straight-line path its velocity is exactly
linear, v(z, t) = s(t) z with

    s(t) = (t - (1 - t) sigma^2) / ((1 - t)^2 sigma^2 + t^2),

under the convention used throughout this package that a field predicts the
noising direction E[z1 - z0 | z_t]. Everything that matters downstream
follows from two denoising identities:

    E[z0 | z_t]  = z_t - t v(z_t, t)
    Cov[z0 | z_t] = t^2/(1-t) (I - t grad v)

which for the Gaussian field reproduce the exact conditional moments
(1-t) sigma^2 / s2 * z and t^2 sigma^2 / s2 * I, with
s2 = (1-t)^2 sigma^2 + t^2.

External (learned) fields plug in through `CallbackField`; their covariance
must come from a CovarianceMode since nothing here differentiates a black
box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .numerics import RealField

COV_MODE_KINDS = ("lflow", "eq17", "pigdm", "zero")


@dataclass(frozen=True)
class AnalyticGaussianField:
    """Exact velocity field for a Gaussian prior with std sigma_latr."""

    sigma_latr: float = 1.0

    def __post_init__(self):
        if self.sigma_latr <= 0:
            raise ValueError(f"sigma_latr must be > 0, got {self.sigma_latr}")

    def scalar(self, t: float) -> float:
        """s(t) such that v(z, t) = s(t) z."""
        s2 = self.sigma_latr**2
        om = 1.0 - t
        return (t - om * s2) / (om * om * s2 + t * t)


@dataclass(frozen=True)
class CallbackField:
    """A velocity field supplied as a callable f(z, t) -> array.

    `surrogate_sigma_latr` sets the Gaussian stand-in used wherever a
    formula needs the field's Jacobian (the guidance mean-Jacobian factor
    and the lflow covariance); with a black-box callable those cannot be
    computed directly.
    """

    fn: Callable[[np.ndarray, float], np.ndarray]
    surrogate_sigma_latr: float = 1.0


VectorFieldSpec = Union[AnalyticGaussianField, CallbackField]


def eval_field(field: VectorFieldSpec, z: RealField, t: float) -> RealField:
    """Velocity v(z, t) of the given field."""
    if isinstance(field, AnalyticGaussianField):
        return field.scalar(t) * np.asarray(z, dtype=np.float64)
    return np.asarray(field.fn(z, t), dtype=np.float64)


def posterior_mean(field: VectorFieldSpec, z: RealField, t: float) -> RealField:
    """Denoised mean E[z0 | z_t] = z - t v(z, t)."""
    return np.asarray(z, dtype=np.float64) - t * eval_field(field, z, t)


def field_sigma_latr(field: VectorFieldSpec) -> float:
    """Prior std associated with a field (surrogate for callbacks)."""
    if isinstance(field, AnalyticGaussianField):
        return field.sigma_latr
    return field.surrogate_sigma_latr


def mean_jacobian_scalar(field: VectorFieldSpec, t: float) -> float:
    """Scalar c(t) with grad_z E[z0 | z_t] = c(t) I.

    Exact for the Gaussian field, where the mean map is
    (1-t) sigma^2 / ((1-t)^2 sigma^2 + t^2) * z. For callback fields the
    same expression is evaluated at the surrogate sigma, i.e.
    c(t) = 1 - t j(t) with j the surrogate field's velocity Jacobian.
    """
    s2 = field_sigma_latr(field) ** 2
    om = 1.0 - t
    return om * s2 / (om * om * s2 + t * t)


@dataclass(frozen=True)
class CovarianceMode:
    """Scalar stand-in r^2(t) for the denoising covariance Cov[z0 | z_t].

    kind selects the formula (the names double as the CLI vocabulary):

    * ``lflow``: exact conditional variance of the Gaussian-prior field,
      t^2 s^2 / ((1-t)^2 s^2 + t^2) with s = sigma_latr (taken from the
      field unless overridden here). This is also the Cramer-Rao equality
      case (gamma + (1-t)^2/t^2)^(-1) at gamma = s^(-2).
    * ``eq17``: a unit-prior-scale variant,
      t^2 ((1-t)(1-2t) + 2t^2) / ((1-t)((1-t)^2 + t^2)). Kept for ablation
      comparisons; it agrees with lflow at t = 0.5 but not elsewhere, and
      grows without bound as t -> 1, so callers evaluate it at clamped t.
    * ``pigdm``: the data-prior heuristic
      sigma_data^2 t^2 / ((1-t)^2 sigma_data^2 + t^2), which depends only
      on the path, not on the field.
    * ``zero``: no covariance (hard data-consistency style guidance).
    """

    kind: str = "lflow"
    sigma_data: float = 1.0
    sigma_latr: float | None = None

    def __post_init__(self):
        if self.kind not in COV_MODE_KINDS:
            raise ValueError(
                f"unknown covariance mode {self.kind!r}; "
                f"expected one of {COV_MODE_KINDS}"
            )
        if self.sigma_data <= 0:
            raise ValueError(f"sigma_data must be > 0, got {self.sigma_data}")


def posterior_cov_scalar(
    mode: CovarianceMode, t: float, field: VectorFieldSpec | None = None
) -> float:
    """Evaluate the covariance mode at time t (see CovarianceMode)."""
    t = float(t)
    if mode.kind == "zero":
        return 0.0
    if mode.kind == "pigdm":
        sd2 = mode.sigma_data**2
        om = 1.0 - t
        return sd2 * t * t / (om * om * sd2 + t * t)
    if mode.kind == "eq17":
        om = 1.0 - t
        return t * t * (om * (1.0 - 2.0 * t) + 2.0 * t * t) / (om * (om * om + t * t))
    # lflow
    if mode.sigma_latr is not None:
        s2 = mode.sigma_latr**2
    elif field is not None:
        s2 = field_sigma_latr(field) ** 2
    else:
        s2 = 1.0
    om = 1.0 - t
    return t * t * s2 / (om * om * s2 + t * t)


def jacobian_bounds(gamma: float, t: float) -> tuple[float, float]:
    """Two-sided envelope for a velocity field's Jacobian eigenvalues.

    For a prior whose precision is bounded below by gamma, the Jacobian of
    the (noising-direction) velocity field along the straight-line path is
    sandwiched between

        lower = (gamma t - (1 - t)) / ((1 - t)^2 + gamma t^2)
        upper = 1 / t.

    The Gaussian field at sigma_latr = gamma^(-1/2) attains the lower bound
    exactly, which `test_fields` pins.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly inside (0, 1), got {t}")
    om = 1.0 - t
    lower = (gamma * t - om) / (om * om + gamma * t * t)
    upper = 1.0 / t
    return lower, upper

