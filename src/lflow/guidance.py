"""Measurement guidance: the likelihood gradient and the corrected velocity.

The sampler follows the unconditional velocity field plus a correction
that pulls the trajectory toward states whose denoised mean explains the
measurement. The correction is the gradient of a Gaussian surrogate
likelihood built from three pieces:

* the denoised mean z_bar = z - t v(z, t) and its scalar Jacobian c(t),
* an isotropic denoising covariance r2(t) (see `CovarianceMode`),
* the measurement model y = B z0 + noise, std sigma_y, where B = A o
  decode is the measurement map seen from latent space
  (`decoders.latent_operator`, built once per run).

Those combine into grad = c(t) B^T S^{-1} (y - B z_bar) with S =
sigma_y^2 I + r2(t) B B^T. `inner_vector` evaluates B^T S^{-1} residual,
the only part that touches the operator structure. Every operator, and
so every B, diagonalizes B B^T in its own basis (see `lflow.operators`),
so the closed form divides the residual's basis coefficients by
sigma_y^2 + r2 lambda, mode by mode; the conjugate-gradient solver is the
iterative reference. It solves S u = residual on the measurement grid
with the matvec sigma_y^2 u + r2 B.gram(u), where `gram` is the
operator's own B B^T product (one transform pair for the convolution
operators), and applies B^T once to the solution. Buffer discipline: the
matvec scales the fresh array gram returns and adds sigma_y^2 u to it in
place; `conjugate_gradient` updates x, r and p in place through one
scratch buffer per solve and never writes rhs or an array that a matvec
returned (a caller's matvec may hand back a cached buffer or its input).

In the linear-Gaussian setting (analytic field, linear decoder) nothing
here is approximate: the gradient equals the gradient of the explicit
marginal log N(y; c B z, S), and the K = 1 velocity is the exact
conditional flow velocity, which the oracle checks to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoders import DecoderSpec, latent_operator
from .errors import CgConvergenceError
from .fields import (
    CovarianceMode,
    VectorFieldSpec,
    eval_field,
    field_evaluator,
    mean_jacobian_fn,
    mean_jacobian_scalar,
    posterior_cov_fn,
    posterior_cov_scalar,
    posterior_mean,
)
from .numerics import RealField, as_field
from .operators import LinearOperatorDescriptor

CG_MAX_ITER_DEFAULT = 500
CG_TOL_DEFAULT = 1e-10


@dataclass(frozen=True)
class ClosedFormSolver:
    """Solve mode by mode in the operator's own A A^T eigenbasis."""


@dataclass(frozen=True)
class ConjugateGradientSolver:
    """Solve S u = residual iteratively; works for every operator kind."""

    max_iter: int = CG_MAX_ITER_DEFAULT
    tol: float = CG_TOL_DEFAULT

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


SolverSpec = ClosedFormSolver | ConjugateGradientSolver


@dataclass(frozen=True)
class GuidanceSpec:
    """Everything the corrected velocity needs beyond the model pieces.

    k_steps is the number of correction passes per velocity evaluation.
    Each pass recomputes the denoised mean from the current corrected
    velocity before re-evaluating the gradient, so passes beyond the
    first actually move. literal_update=True repeats the single-pass
    update instead, which is idempotent, so it runs one pass (K = 1).
    """

    cov_mode: CovarianceMode = CovarianceMode()
    solver: SolverSpec = ClosedFormSolver()
    sigma_y: float = 0.01
    k_steps: int = 2
    literal_update: bool = False

    def __post_init__(self):
        if self.sigma_y < 0:
            raise ValueError(f"sigma_y must be >= 0, got {self.sigma_y}")
        if self.k_steps < 1:
            raise ValueError(f"k_steps must be >= 1, got {self.k_steps}")


def conjugate_gradient(matvec, rhs: np.ndarray, tol: float = CG_TOL_DEFAULT,
                       max_iter: int = CG_MAX_ITER_DEFAULT) -> np.ndarray:
    """Solve M x = rhs for symmetric positive definite M.

    Zero initial guess; stops when the residual norm falls below
    tol * ||rhs||. The iterates are updated in place through one scratch
    buffer per solve; neither rhs nor any array matvec returns is
    written, since a matvec may return a cached buffer or its input.
    Raises CgConvergenceError when a search direction p has p^T M p not
    finite and positive (M is not positive definite, e.g. a singular S)
    or when max_iter steps were not enough, which in this package usually
    means S lost definiteness.
    """
    rhs = as_field(rhs)
    rs = float(np.vdot(rhs, rhs).real)
    rhs_norm = math.sqrt(rs)
    x = np.zeros_like(rhs)
    if rhs_norm == 0.0:
        return x
    r = rhs.copy()
    p = r.copy()
    scratch = np.empty_like(rhs)
    for k in range(max_iter):
        mp = matvec(p)
        curvature = float(np.vdot(p, mp).real)
        if not (math.isfinite(curvature) and curvature > 0.0):
            raise CgConvergenceError(iterations=k, residual_norm=math.sqrt(rs),
                                     reason=f"breakdown (p^T M p = {curvature:.3e})")
        alpha = rs / curvature
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(mp, alpha, out=scratch)
        rs_next = float(np.vdot(r, r).real)
        if math.sqrt(rs_next) <= tol * rhs_norm:
            return x
        p *= rs_next / rs
        p += r
        rs = rs_next
    raise CgConvergenceError(iterations=max_iter, residual_norm=math.sqrt(rs))


def _inner_vector_cg(op, residual, sigma_y: float, r2: float,
                     tol: float, max_iter: int) -> RealField:
    sy2 = sigma_y * sigma_y
    gram = op.gram

    def matvec(u):
        # gram returns a fresh array, so it can take the sum in place.
        out = gram(u)
        out *= r2
        out += sy2 * u
        return out

    u = conjugate_gradient(matvec, residual, tol=tol, max_iter=max_iter)
    return op.adjoint(u)


def inner_vector(op: LinearOperatorDescriptor, residual, sigma_y: float, r2: float,
                 solver: SolverSpec | None = None) -> RealField:
    """Evaluate A^T (sigma_y^2 I + r2 A A^T)^{-1} residual.

    The closed form divides in the operator's eigenbasis of A A^T; a
    ConjugateGradientSolver solves the system iteratively instead.
    """
    residual = as_field(residual)
    if isinstance(solver, ConjugateGradientSolver):
        return _inner_vector_cg(op, residual, sigma_y, r2, solver.tol, solver.max_iter)
    return op.adjoint_coeffs(op.coeffs(residual) / (sigma_y * sigma_y + r2 * op.gram_eigenvalues))


def _gradient_at_mean(spec: GuidanceSpec, field: VectorFieldSpec, b, y: np.ndarray,
                      z0_mean: np.ndarray, t: float) -> RealField:
    residual = y - b.apply(z0_mean)
    r2 = posterior_cov_scalar(spec.cov_mode, t, field)
    u = inner_vector(b, residual, spec.sigma_y, r2, solver=spec.solver)
    return mean_jacobian_scalar(field, t) * u


def likelihood_gradient(spec: GuidanceSpec, field: VectorFieldSpec, dec: DecoderSpec,
                        op: LinearOperatorDescriptor, y, z, t: float) -> RealField:
    """Gradient of the measurement log-likelihood surrogate at state z, time t."""
    y = as_field(y)
    z = as_field(z)
    b = latent_operator(op, dec)
    return _gradient_at_mean(spec, field, b, y, posterior_mean(field, z, t), t)


def _corrected_velocity(spec: GuidanceSpec, field: VectorFieldSpec, b, y: np.ndarray,
                        z, t: float) -> RealField:
    z = as_field(z)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"corrected velocity needs t in [0, 1), got {t}")
    v_uncond = eval_field(field, z, t)
    g = t / (1.0 - t)
    v = v_uncond
    for _ in range(1 if spec.literal_update else spec.k_steps):
        grad = _gradient_at_mean(spec, field, b, y, z - t * v, t)
        v = v_uncond - g * grad
    return v


def corrected_velocity(spec: GuidanceSpec, field: VectorFieldSpec, dec: DecoderSpec,
                       op: LinearOperatorDescriptor, y, z, t: float) -> RealField:
    """Unconditional velocity minus t/(1-t) times the likelihood gradient.

    The generic reference path. Runs spec.k_steps correction passes (one
    when literal_update is set); pass k re-derives the denoised mean from
    the velocity produced by pass k-1 and rebuilds the gradient there.
    """
    return _corrected_velocity(spec, field, latent_operator(op, dec), as_field(y), z, t)


def make_velocity(spec: GuidanceSpec, field: VectorFieldSpec, dec: DecoderSpec,
                  op: LinearOperatorDescriptor, y):
    """Build velocity(z, t) with per-run constants hoisted out of the loop.

    B = latent_operator(op, dec) is built once here. With the closed-form
    solver the K passes of corrected_velocity collapse into one per-mode
    multiplier. In B's basis, with d = sigma_y^2 + r2 lambda, pass one
    gives w = (y_hat - B_hat z_bar) / d at z_bar = z - t v_u, and pass k
    gives w (1 - mu + ... + (-mu)^(k-1)) with mu = g t c lambda / d,
    because B B^T acts as lambda on each mode. The K-pass velocity is
    therefore

        v_u - g c B^T (w (1 - (-mu)^K) / (1 + mu)),

    one forward and one inverse transform per evaluation for any K. The
    conjugate-gradient solver runs the pass-by-pass route on the same B.
    """
    y = as_field(y)
    b = latent_operator(op, dec)
    if not isinstance(spec.solver, ClosedFormSolver):
        def velocity(z, t: float) -> RealField:
            return _corrected_velocity(spec, field, b, y, z, t)
        return velocity

    sy2 = spec.sigma_y * spec.sigma_y
    passes = 1 if spec.literal_update else spec.k_steps
    lam = b.gram_eigenvalues
    y_hat = b.coeffs(y)
    apply_coeffs = b.apply_coeffs
    adjoint_coeffs = b.adjoint_coeffs
    # The field kind and the covariance mode are fixed for the run.
    field_velocity = field_evaluator(field)
    mean_jacobian = mean_jacobian_fn(field)
    cov = posterior_cov_fn(spec.cov_mode, field)

    def velocity(z, t: float) -> RealField:
        v_uncond = field_velocity(z, t)
        c = mean_jacobian(t)
        g = t / (1.0 - t)
        d = sy2 + cov(t) * lam
        # w = (y_hat - B_hat z_bar) / d, in place on a fresh array.
        w = apply_coeffs(z - t * v_uncond)
        np.subtract(y_hat, w, out=w)
        w /= d
        if passes > 1:
            mu = (g * t * c) * lam / d
            w *= (1.0 - (-mu) ** passes) / (1.0 + mu)
        return v_uncond - (g * c) * adjoint_coeffs(w)

    return velocity
