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
comes from a CovarianceMode evaluated at the field's surrogate sigma, since
nothing here differentiates a black box. Every mode takes the field: lflow
reads its sigma, and the other three ignore it. Both field kinds expose
`velocity(z, t)` and `sigma_latr` (a callback field's is its surrogate).

Each field also owns its denoised mean, the one formula that guidance,
`posterior_mean` and the sampler's final step all read:
`velocity_and_mean(z, t)` returns v(z, t) with z_bar = z - t v(z, t), and
`velocity_and_coeffs(z, zc, t, apply_coeffs)` returns v(z, t), its
coefficients in a measurement operator's basis and those of z_bar, given
the coefficients zc = apply_coeffs(z) of the state. The Gaussian field's
velocity is s(t) z, so z_bar = (1 - t s(t)) z and the coefficients are
s(t) zc and (1 - t s(t)) zc: one multiply each, and no transform. A
callback field forms z - t v, and its coefficients cost one
`apply_coeffs(v)`. Every returned array is fresh, so a caller may write
it in place; neither member writes z or zc.
"""

from __future__ import annotations

import math
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
        s = self.sigma_latr
        if not (s > 0.0 and 0.0 < s * s < math.inf):
            raise ValueError("sigma_latr must be > 0 with a square that neither "
                             f"overflows nor underflows, got {s}")

    def scalar(self, t: float) -> float:
        """s(t) such that v(z, t) = s(t) z."""
        s2 = self.sigma_latr**2
        om = 1.0 - t
        return (t - om * s2) / (om * om * s2 + t * t)

    def velocity(self, z: RealField, t: float) -> RealField:
        return self.scalar(t) * np.asarray(z, dtype=np.float64)

    def velocity_and_mean(self, z: RealField, t: float):
        """v(z, t) = s(t) z and z_bar = (1 - t s(t)) z, one multiply each."""
        s = self.scalar(t)
        return np.multiply(z, s), np.multiply(z, 1.0 - t * s)

    def velocity_and_coeffs(self, z: RealField, zc: np.ndarray, t: float, apply_coeffs):
        """v(z, t) with the coefficients s(t) zc of v and (1 - t s(t)) zc of
        z_bar, from the coefficients zc of z: the field is linear, so no
        transform."""
        s = self.scalar(t)
        return np.multiply(z, s), np.multiply(zc, s), np.multiply(zc, 1.0 - t * s)


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

    def velocity(self, z: RealField, t: float) -> RealField:
        return np.asarray(self.fn(z, t), dtype=np.float64)

    def velocity_and_mean(self, z: RealField, t: float):
        """v(z, t) and z_bar = z - t v, built as (-t) v + z on a fresh array
        (the same bits); v is never written."""
        v = self.velocity(z, t)
        zbar = np.multiply(v, -t)
        zbar += z
        return v, zbar

    def velocity_and_coeffs(self, z: RealField, zc: np.ndarray, t: float, apply_coeffs):
        """v(z, t), its coefficients vc = apply_coeffs(v) (one transform) and
        zc - t vc, those of z_bar; v is never written."""
        v = self.velocity(z, t)
        vc = apply_coeffs(v)
        zbar_c = np.multiply(vc, -t)
        zbar_c += zc
        return v, vc, zbar_c

    @property
    def sigma_latr(self) -> float:
        return self.surrogate_sigma_latr


VectorFieldSpec = Union[AnalyticGaussianField, CallbackField]


def eval_field(field: VectorFieldSpec, z: RealField, t: float) -> RealField:
    """Velocity v(z, t) of the given field."""
    return field.velocity(z, t)


def posterior_mean(field: VectorFieldSpec, z: RealField, t: float) -> RealField:
    """Denoised mean E[z0 | z_t] = z - t v(z, t), by the field's own formula."""
    return field.velocity_and_mean(np.asarray(z, dtype=np.float64), t)[1]


def mean_jacobian_fn(field: VectorFieldSpec) -> Callable[[float], float]:
    """mean_jacobian_scalar(field, t) as a function of t alone."""
    s2 = field.sigma_latr**2

    def c(t: float) -> float:
        om = 1.0 - t
        return om * s2 / (om * om * s2 + t * t)

    return c


def mean_jacobian_scalar(field: VectorFieldSpec, t: float) -> float:
    """Scalar c(t) with grad_z E[z0 | z_t] = c(t) I.

    Exact for the Gaussian field, where the mean map is
    (1-t) sigma^2 / ((1-t)^2 sigma^2 + t^2) * z. For callback fields the
    same expression is evaluated at the surrogate sigma, i.e.
    c(t) = 1 - t j(t) with j the surrogate field's velocity Jacobian.
    """
    return mean_jacobian_fn(field)(t)


@dataclass(frozen=True)
class CovarianceMode:
    """Scalar stand-in r^2(t) for the denoising covariance Cov[z0 | z_t].

    kind selects the formula (the names double as the CLI vocabulary):

    * ``lflow``: exact conditional variance of the Gaussian-prior field,
      t^2 s^2 / ((1-t)^2 s^2 + t^2) with s the field's sigma_latr (its
      surrogate for a callback field). This is also the Cramer-Rao
      equality case (gamma + (1-t)^2/t^2)^(-1) at gamma = s^(-2).
    * ``eq17``: a unit-prior-scale variant,
      t^2 ((1-t)(1-2t) + 2t^2) / ((1-t)((1-t)^2 + t^2)). Kept for ablation
      comparisons; it agrees with lflow at t = 0.5 but not elsewhere, and
      grows without bound as t -> 1, so callers evaluate it at clamped t.
    * ``pigdm``: the prior-agnostic pseudoinverse-guidance profile, the
      lflow formula at s = 1 whatever the field's scale.
    * ``zero``: no covariance (hard data-consistency style guidance).
    """

    kind: str = "lflow"

    def __post_init__(self):
        if self.kind not in COV_MODE_KINDS:
            raise ValueError(
                f"unknown covariance mode {self.kind!r}; "
                f"expected one of {COV_MODE_KINDS}"
            )


def posterior_cov_fn(mode: CovarianceMode, field: VectorFieldSpec) -> Callable[[float], float]:
    """posterior_cov_scalar(mode, t, field) as a function of t alone, with
    the kind and the prior scale resolved once."""
    if mode.kind == "zero":
        return lambda t: 0.0
    if mode.kind == "eq17":
        def r2(t: float) -> float:
            om = 1.0 - t
            return t * t * (om * (1.0 - 2.0 * t) + 2.0 * t * t) / (om * (om * om + t * t))

        return r2
    s2 = 1.0 if mode.kind == "pigdm" else field.sigma_latr**2

    def r2(t: float) -> float:
        om = 1.0 - t
        return t * t * s2 / (om * om * s2 + t * t)

    return r2


def posterior_cov_scalar(mode: CovarianceMode, t: float, field: VectorFieldSpec) -> float:
    """Evaluate the covariance mode at time t (see CovarianceMode)."""
    return posterior_cov_fn(mode, field)(float(t))


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

