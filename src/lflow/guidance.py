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
sigma_y^2 + r2 lambda, mode by mode (`make_velocity` folds that division
and all K passes into one real gain per mode); the conjugate-gradient
solver is the iterative reference. It solves S u = residual on the
measurement grid with the matvec sigma_y^2 u + r2 B.gram(u), where
`gram` is the operator's own B B^T product (one transform pair for the
convolution operators), and applies B^T once to the solution. Buffer
discipline: the matvec scales the fresh array gram returns and adds
sigma_y^2 u to it in place; `conjugate_gradient` updates x, r and p in
place through one scratch buffer per solve and never writes rhs or an
array that a matvec returned (a caller's matvec may hand back a cached
buffer or its input).

Predicted start: consecutive velocity evaluations of one run solve
almost the same system with almost the same right-hand side, so the
velocity that `make_velocity` builds for the CG solver keeps one
`CgSlot` per correction pass, created with the closure and so private to
one run. Before each solve `_corrected_velocity` tells the slot the time
t, and the slot predicts the solution from its pass's history:

* A solve at the same t as the pass's previous solve is a Heun
  re-evaluation at the state just accepted, so the previous solve was
  the stage that produced it. It starts from that stage's solution minus
  the last stage offset (stage solution minus accepted-state solution at
  one time), scaled by (h / h_prev)^2, since a stage state differs from
  its accepted state by O(h^2).
* Every other solve (the next Heun stage, a retry after a rejection, an
  Euler step) starts from the Lagrange extrapolation in t of the pass's
  solutions at its last four accepted states, linear from the last two
  while fewer than four are known, and the plain last solution while
  fewer than two are.

The first solve of a run and every same-time solve count as accepted
states; that is the call pattern of every stepper in `lflow.sampler`. The
stored arrays are the ones `conjugate_gradient` returned, never written
afterwards; a prediction is a fresh array that the solve copies. The
stopping rule stays tol * ||rhs||, so the prediction changes the work,
not the accuracy guarantee. The public `corrected_velocity` and
`inner_vector` without a slot are the stateless cold reference: every
solve starts from zero.

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
# Accepted-state solutions a CgSlot keeps: the nodes of its cubic prediction.
CG_HISTORY = 4


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
                       max_iter: int = CG_MAX_ITER_DEFAULT, x0=None) -> np.ndarray:
    """Solve M x = rhs for symmetric positive definite M.

    Starts from zero, or from a copy of x0 when one is given: then the
    first residual rhs - M x0 costs one extra matvec, and the solve
    returns that copy if the residual already passes. Either way it stops
    when the residual norm falls below tol * ||rhs||, so a good x0 saves
    iterations without loosening the result. The iterates are updated in
    place through one scratch buffer per solve; neither rhs, x0 nor any
    array matvec returns is written, since a matvec may return a cached
    buffer or its input. Raises CgConvergenceError when a search
    direction p has p^T M p not finite and positive (M is not positive
    definite, e.g. a singular S) or when max_iter steps were not enough.
    """
    rhs = as_field(rhs)
    rs = float(np.vdot(rhs, rhs).real)
    rhs_norm = math.sqrt(rs)
    x = np.zeros_like(rhs)
    if rhs_norm == 0.0:
        return x
    if x0 is None:
        r = rhs.copy()
    else:
        x[...] = x0
        r = rhs - matvec(x)
        rs = float(np.vdot(r, r).real)
        if math.sqrt(rs) <= tol * rhs_norm:
            return x
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


class CgSlot:
    """One correction pass's CG history for a run, and its predicted start.

    `at(t)` sets the time of the next solve, `start()` predicts its
    solution (None before the first solve: start from zero) and
    `store(u)` records the solution. A solve is an accepted state when it
    is the slot's first or repeats the previous solve's time; its
    solution joins `times`/`states` (the last CG_HISTORY accepted
    states), and when the previous solve was the stage at that time,
    `offset` becomes that stage's solution minus this one, measured at
    step `offset_h`. Stored arrays are the ones `conjugate_gradient`
    returned and are never written; at most CG_HISTORY + 2 are held.
    """

    __slots__ = ("t", "t_last", "u", "times", "states", "offset", "offset_h")

    def __init__(self):
        self.t = None
        self.t_last = None
        self.u = None
        self.times = []
        self.states = []
        self.offset = None
        self.offset_h = 0.0

    def at(self, t: float) -> CgSlot:
        self.t = t
        return self

    def start(self):
        t, times = self.t, self.times
        if t == self.t_last:
            if self.offset is None:
                return self.u
            return self.u - self.offset * ((t - times[-1]) / self.offset_h) ** 2
        n = len(times)
        if n < 2:
            return self.u
        nodes = range(n) if n == CG_HISTORY else range(n - 2, n)
        x = None
        for i in nodes:
            w = 1.0
            for j in nodes:
                if j != i:
                    w *= (t - times[j]) / (times[i] - times[j])
            term = self.states[i] * w
            x = term if x is None else np.add(x, term, out=x)
        return x

    def store(self, u: np.ndarray) -> None:
        t, times = self.t, self.times
        if self.u is None or t == self.t_last:
            if times and times[-1] == t:
                self.states[-1] = u
            else:
                if self.u is not None:
                    self.offset = self.u - u
                    self.offset_h = t - times[-1]
                times.append(t)
                self.states.append(u)
                if len(times) > CG_HISTORY:
                    del times[0], self.states[0]
        self.t_last = t
        self.u = u


def _inner_vector_cg(op, residual, sigma_y: float, r2: float,
                     tol: float, max_iter: int, slot: CgSlot | None) -> RealField:
    sy2 = sigma_y * sigma_y
    gram = op.gram

    def matvec(u):
        # gram returns a fresh array, so it can take the sum in place.
        out = gram(u)
        out *= r2
        out += sy2 * u
        return out

    if slot is None:
        u = conjugate_gradient(matvec, residual, tol=tol, max_iter=max_iter)
    else:
        u = conjugate_gradient(matvec, residual, tol=tol, max_iter=max_iter,
                               x0=slot.start())
        slot.store(u)
    return op.adjoint(u)


def inner_vector(op: LinearOperatorDescriptor, residual, sigma_y: float, r2: float,
                 solver: SolverSpec | None = None, slot: CgSlot | None = None) -> RealField:
    """Evaluate A^T (sigma_y^2 I + r2 A A^T)^{-1} residual.

    The closed form divides in the operator's eigenbasis of A A^T; a
    ConjugateGradientSolver solves the system iteratively instead, from
    zero, or, given a CgSlot set to the solve's time, from the slot's
    predicted start, and records the solution in the slot. The closed
    form ignores the slot.
    """
    residual = as_field(residual)
    if isinstance(solver, ConjugateGradientSolver):
        return _inner_vector_cg(op, residual, sigma_y, r2, solver.tol, solver.max_iter,
                                slot)
    return op.adjoint_coeffs(op.coeffs(residual) / (sigma_y * sigma_y + r2 * op.gram_eigenvalues))


def _gradient_at_mean(spec: GuidanceSpec, field: VectorFieldSpec, b, y: np.ndarray,
                      z0_mean: np.ndarray, t: float, slot: CgSlot | None = None) -> RealField:
    residual = y - b.apply(z0_mean)
    r2 = posterior_cov_scalar(spec.cov_mode, t, field)
    # Through the module attribute, so a wrapper of inner_vector sees every pass.
    u = inner_vector(b, residual, spec.sigma_y, r2, solver=spec.solver, slot=slot)
    return mean_jacobian_scalar(field, t) * u


def likelihood_gradient(spec: GuidanceSpec, field: VectorFieldSpec, dec: DecoderSpec,
                        op: LinearOperatorDescriptor, y, z, t: float) -> RealField:
    """Gradient of the measurement log-likelihood surrogate at state z, time t."""
    y = as_field(y)
    z = as_field(z)
    b = latent_operator(op, dec)
    return _gradient_at_mean(spec, field, b, y, posterior_mean(field, z, t), t)


def _corrected_velocity(spec: GuidanceSpec, field: VectorFieldSpec, b, y: np.ndarray,
                        z, t: float, slots=None) -> RealField:
    z = as_field(z)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"corrected velocity needs t in [0, 1), got {t}")
    v_uncond = eval_field(field, z, t)
    g = t / (1.0 - t)
    v = v_uncond
    for k in range(1 if spec.literal_update else spec.k_steps):
        slot = None if slots is None else slots[k].at(t)
        grad = _gradient_at_mean(spec, field, b, y, z - t * v, t, slot)
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

        v_u - B^T (gain (y_hat - B_hat z_bar)),
        gain = g c (1 - mu + mu^2 - ... +- mu^(K-1)) / d,

    the partial sum (1 - (-mu)^K) / (1 + mu) evaluated in Horner form, so
    neither 1 + mu nor a complex spectrum is ever divided. The gain is one
    real array per evaluation (a scalar for the mask's lambda = 1), applied
    by one real-by-complex product on the residual coefficients. An
    evaluation costs one forward and one inverse transform for any K. Buffer
    discipline: the residual and the final difference are formed in place
    on the fresh arrays apply_coeffs and adjoint_coeffs return; z and v_u
    are never written. The gain depends on t alone, so the closure keeps
    the last (t, gain) and reuses it when Heun re-evaluates at its
    previous stage's time; the kept array is never written. The
    conjugate-gradient solver runs the pass-by-pass route on the same B,
    with one CgSlot per pass: each pass starts its solve from the slot's
    prediction out of its own accepted-state solutions (module docstring).
    """
    y = as_field(y)
    b = latent_operator(op, dec)
    passes = 1 if spec.literal_update else spec.k_steps
    if not isinstance(spec.solver, ClosedFormSolver):
        slots = [CgSlot() for _ in range(passes)]

        def velocity(z, t: float) -> RealField:
            return _corrected_velocity(spec, field, b, y, z, t, slots)
        return velocity

    sy2 = spec.sigma_y * spec.sigma_y
    lam = b.gram_eigenvalues
    y_hat = b.coeffs(y)
    apply_coeffs = b.apply_coeffs
    adjoint_coeffs = b.adjoint_coeffs
    # The field kind and the covariance mode are fixed for the run.
    field_velocity = field_evaluator(field)
    mean_jacobian = mean_jacobian_fn(field)
    cov = posterior_cov_fn(spec.cov_mode, field)

    last_t = None
    last_gain = None

    def gain_at(t: float):
        # g c (1 - mu + ... +- mu^(K-1)) / d with mu = t lambda (g c / d),
        # the series in Horner form; its temporaries die on return. The last
        # gain is kept for a repeated t and never written.
        nonlocal last_t, last_gain
        if t == last_t:
            return last_gain
        gain = (t / (1.0 - t)) * mean_jacobian(t) / (sy2 + cov(t) * lam)
        if passes > 1:
            mu = (t * lam) * gain
            series = 1.0 - mu
            for _ in range(passes - 2):
                series = 1.0 - mu * series
            gain *= series
        last_t, last_gain = t, gain
        return gain

    def velocity(z, t: float) -> RealField:
        v_uncond = field_velocity(z, t)
        # gain (y_hat - B_hat z_bar), in place on the fresh array apply_coeffs
        # returns, then v_u minus its adjoint, in place on the adjoint's output.
        w = apply_coeffs(z - t * v_uncond)
        np.subtract(y_hat, w, out=w)
        w *= gain_at(t)
        u = adjoint_coeffs(w)
        return np.subtract(v_uncond, u, out=u)

    return velocity
