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
the only part that touches the operator structure. Each guidance solver
carries its own `inner_vector` and `velocity`. Every operator, and so
every B, diagonalizes B B^T in its own basis (see `lflow.operators`), so
the closed form divides the residual's basis coefficients by sigma_y^2 +
r2 lambda, mode by mode (`ClosedFormSolver.velocity` folds that division
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

Carried coefficients: every state a stepper forms is a linear
combination of earlier states and velocities, so its coefficients B_hat z
are the same combination of theirs. A stepper that carries them beside
the state hands them to `velocity(z, t, zc)`, which returns the
velocity's coefficients B_hat k = B_hat v_u - lambda r with it, r the
gained residual coefficients whose adjoint k subtracts: B_hat B^T
acts as lambda in B's basis, so no forward transform is needed, and with
the Gaussian field (B_hat v_u = s(t) B_hat z) an evaluation costs one
inverse transform for any K. The closure's `coeffs` tells the sampler
whether to carry: B's `apply_coeffs` when B sets `carry_coeffs` (the
convolution class, bare or scaled, whose coefficients are a transform of
the whole grid), else None. Masks and dense operators, whose coefficients
cost a gather or a small product, and the conjugate-gradient solver step
the state alone.

Projected start: consecutive velocity evaluations of one run solve
almost the same system with almost the same right-hand side, so the
velocity that `ConjugateGradientSolver.velocity` builds keeps one
`CgSlot` per correction pass, created with the closure and so private to
one run. The slot holds the pass's last CG_HISTORY solutions u_i with
their products g_i = B B^T u_i, which cost no matvec: a solve of
S u = b that ends with residual r gives g = (b - r - sigma_y^2 u) / r2.
Each solve starts from the Galerkin projection of its solution onto
span(u_i) (Fischer 1998, "Projection techniques for iterative solution
of Ax = b with successive right-hand sides"): x0 = sum c_i u_i with
(sigma_y^2 P + r2(t) Q) c = (u_i . b), P = (u_i . u_j) and
Q = (u_i . g_j) symmetrized, both kept up to date one row per stored
solution. That needs no time, step size or call pattern, so every
stepper in `lflow.sampler` gets the same start rule. The small system is
solved by least squares with singular values below machine epsilon
times the largest dropped, so a (near-)collinear history neither fails
nor inflates the start. The start residual b - S x0 costs one true
matvec and the stopping rule stays tol * ||b||: the stored products
change the work, not the accuracy guarantee. A slot whose first solve,
from zero, took a single matvec starts every later solve from zero: S is
then a multiple of the identity (a mask's A A^T = I), where a started
solve pays one matvec for its residual and still iterates once. The
public `corrected_velocity` and `inner_vector` without a slot are the
stateless cold reference: every solve starts from zero.

Finiteness: `make_velocity` checks the measurement y's shape and entries
once per run, before the first evaluation, and `corrected_velocity` and
`likelihood_gradient` on every call; each error names y. The
transforms inside an evaluation are the operators' unchecked ones (see
`lflow.operators`); a state that turns non-finite fails in the sampler's
checks, and in the CG route already at the residual's checked `apply`.

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
    mean_jacobian_fn,
    mean_jacobian_scalar,
    posterior_cov_fn,
    posterior_cov_scalar,
    posterior_mean,
)
from .numerics import RealField, as_field, check_shape, dot, require_finite
from .operators import LinearOperatorDescriptor

CG_MAX_ITER_DEFAULT = 500
CG_TOL_DEFAULT = 1e-10
# Recent solutions a CgSlot projects each start onto.
CG_HISTORY = 8
# Singular values of a CgSlot's small system below this times the largest
# are dropped: directions of its history that rounding cannot resolve.
_GALERKIN_RCOND = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ClosedFormSolver:
    """Solve mode by mode in the operator's own A A^T eigenbasis."""

    def inner_vector(self, op, residual: np.ndarray, sigma_y: float, r2: float,
                     slot: CgSlot | None = None) -> RealField:
        d = sigma_y * sigma_y + r2 * op.gram_eigenvalues
        return op.adjoint_coeffs(op.coeffs(residual) / d)

    def velocity(self, spec: GuidanceSpec, field: VectorFieldSpec, b, y: np.ndarray):
        """The K = spec.k_steps passes of corrected_velocity, fused.

        In B's basis, with d = sigma_y^2 + r2 lambda, pass one gives
        w = (y_hat - B_hat z_bar) / d at z_bar = z - t v_u, and pass k gives
        w (1 - mu + ... + (-mu)^(k-1)) with mu = g t c lambda / d, because
        B B^T acts as lambda on each mode. The K-pass velocity is therefore

            k = v_u - B^T (gain (y_hat - B_hat z_bar)),
            gain = g c (1 - mu + mu^2 - ... +- mu^(K-1)) / d,

        the partial sum (1 - (-mu)^K) / (1 + mu) evaluated in Horner form, so
        neither 1 + mu nor a complex spectrum is ever divided. The gain is one
        real array per evaluation (a scalar for the mask's lambda = 1), applied
        by one real-by-complex product on the residual coefficients.

        The field supplies v_u and the denoised mean z_bar by its own formula
        (`velocity_and_mean`; for the Gaussian field z_bar = (1 - t s) z, one
        multiply), and `velocity(z, t)` forms B_hat z_bar = apply_coeffs(z_bar):
        one forward and one inverse transform for any K. `velocity(z, t, zc)`
        takes the coefficients zc = B_hat z of the state instead and returns
        (k, B_hat k): the field's `velocity_and_coeffs` gives B_hat v_u and
        B_hat z_bar from zc, and B_hat k = B_hat v_u - lambda r with
        r = gain (y_hat - B_hat z_bar), since B_hat B^T acts as lambda. With
        the Gaussian field that is one inverse transform and no forward one.
        The closure's `coeffs` is apply_coeffs when B says a run should carry
        zc (`carry_coeffs`, the convolution class: there B_hat z is a
        transform of the whole grid), else None.

        Buffer discipline: the residual and the final differences are formed
        in place on fresh arrays (apply_coeffs's, adjoint_coeffs's and the
        field's coefficients); z, zc and v_u are never written. The gain
        depends on t alone, so the closure keeps the last (t, gain) and
        reuses it when Heun re-evaluates at its previous stage's time; the
        kept array is never written.
        """
        passes = spec.k_steps
        sy2 = spec.sigma_y * spec.sigma_y
        lam = b.gram_eigenvalues
        y_hat = b.coeffs(y)
        apply_coeffs = b.apply_coeffs
        adjoint_coeffs = b.adjoint_coeffs
        # The field and the covariance mode are fixed for the run.
        field_mean = field.velocity_and_mean
        field_coeffs = field.velocity_and_coeffs
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

        def velocity(z, t: float, zc=None):
            # w = B_hat z_bar, then r = gain (y_hat - w) in place on it, then
            # v_u minus its adjoint, in place on the adjoint's output.
            if zc is None:
                v_uncond, zbar = field_mean(z, t)
                w = apply_coeffs(zbar)
            else:
                v_uncond, vc, w = field_coeffs(z, zc, t, apply_coeffs)
            np.subtract(y_hat, w, out=w)
            w *= gain_at(t)
            u = adjoint_coeffs(w)
            k = np.subtract(v_uncond, u, out=u)
            if zc is None:
                return k
            # B_hat k = B_hat v_u - lambda r, in place on the field's coefficients.
            w *= lam
            return k, np.subtract(vc, w, out=vc)

        velocity.coeffs = apply_coeffs if b.carry_coeffs else None
        return velocity


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

    def inner_vector(self, op, residual: np.ndarray, sigma_y: float, r2: float,
                     slot: CgSlot | None = None) -> RealField:
        sy2 = sigma_y * sigma_y
        gram = op.gram
        matvecs = 0

        def matvec(u):
            nonlocal matvecs
            matvecs += 1
            # gram returns a fresh array, so it can take the sum in place.
            out = gram(u)
            out *= r2
            out += sy2 * u
            return out

        if slot is None:
            return op.adjoint(conjugate_gradient(matvec, residual, self.tol, self.max_iter))
        x0 = slot.start(residual, sy2, r2)
        u, r = _cg_solve(matvec, residual, self.tol, self.max_iter, x0)
        if not slot.sols and matvecs == 1:
            slot.cold = True
        elif r2 > 0.0:
            # B B^T u = (S u - sy2 u) / r2 with S u = residual - r: no matvec.
            g = residual - r
            g -= sy2 * u
            g /= r2
            slot.store(u, g)
        return op.adjoint(u)

    def velocity(self, spec: GuidanceSpec, field: VectorFieldSpec, b, y: np.ndarray):
        """corrected_velocity pass by pass, each pass with its own CgSlot."""
        slots = [CgSlot() for _ in range(spec.k_steps)]

        def velocity(z, t: float) -> RealField:
            return _corrected_velocity(spec, field, b, y, z, t, slots)

        velocity.coeffs = None
        return velocity


SolverSpec = ClosedFormSolver | ConjugateGradientSolver
_CLOSED_FORM = ClosedFormSolver()


@dataclass(frozen=True)
class GuidanceSpec:
    """Everything the corrected velocity needs beyond the model pieces.

    k_steps is the number of correction passes per velocity evaluation.
    Each pass recomputes the denoised mean from the current corrected
    velocity before re-evaluating the gradient, so passes beyond the
    first actually move; K = 1 is the exact conditional velocity.
    """

    cov_mode: CovarianceMode = CovarianceMode()
    solver: SolverSpec = ClosedFormSolver()
    sigma_y: float = 0.01
    k_steps: int = 2

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
    return _cg_solve(matvec, as_field(rhs), tol, max_iter, x0)[0]


def _cg_solve(matvec, rhs, tol, max_iter, x0):
    """`conjugate_gradient`, returning the solution and its final residual."""
    rs = dot(rhs, rhs)
    rhs_norm = math.sqrt(rs)
    x = np.zeros_like(rhs)
    if rhs_norm == 0.0:
        return x, rhs
    if x0 is None:
        r = rhs.copy()
    else:
        x[...] = x0
        r = rhs - matvec(x)
        rs = dot(r, r)
        if math.sqrt(rs) <= tol * rhs_norm:
            return x, r
    p = r.copy()
    scratch = np.empty_like(rhs)
    for k in range(max_iter):
        mp = matvec(p)
        curvature = dot(p, mp)
        if not (math.isfinite(curvature) and curvature > 0.0):
            raise CgConvergenceError(iterations=k, residual_norm=math.sqrt(rs),
                                     reason=f"breakdown (p^T M p = {curvature:.3e})")
        alpha = rs / curvature
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(mp, alpha, out=scratch)
        rs_next = dot(r, r)
        if math.sqrt(rs_next) <= tol * rhs_norm:
            return x, r
        p *= rs_next / rs
        p += r
        rs = rs_next
    raise CgConvergenceError(iterations=max_iter, residual_norm=math.sqrt(rs))


class CgSlot:
    """One correction pass's recent CG solutions in a run, and their start.

    `sols` holds the last CG_HISTORY solutions u_i and `prods` their
    products g_i; `p` and `q` hold P and Q for them (module docstring).
    `start(rhs, sy2, r2)` returns the projected start, or None (start from
    zero) while nothing is held, when the small system fails or gives a
    non-finite c, and for good once `cold` is set. `store(u, g)` replaces
    the oldest pair once the slot is full and updates one row and column
    of P and Q. Stored arrays are never written.
    """

    __slots__ = ("cold", "sols", "prods", "p", "q", "oldest")

    def __init__(self):
        self.cold = False
        self.sols = []
        self.prods = []
        self.p = np.zeros((CG_HISTORY, CG_HISTORY))
        self.q = np.zeros((CG_HISTORY, CG_HISTORY))
        self.oldest = 0

    def start(self, rhs: np.ndarray, sy2: float, r2: float):
        n = len(self.sols)
        if self.cold or n == 0:
            return None
        m = sy2 * self.p[:n, :n] + r2 * self.q[:n, :n]
        try:
            c = np.linalg.lstsq(m, [dot(w, rhs) for w in self.sols], rcond=_GALERKIN_RCOND)[0]
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(c).all():
            return None
        x = self.sols[0] * c[0]
        for w, ci in zip(self.sols[1:], c[1:]):
            x += w * ci
        return x

    def store(self, u: np.ndarray, g: np.ndarray) -> None:
        sols, prods = self.sols, self.prods
        if len(sols) < CG_HISTORY:
            j = len(sols)
            sols.append(u)
            prods.append(g)
        else:
            j = self.oldest
            self.oldest = (j + 1) % CG_HISTORY
            sols[j], prods[j] = u, g
        for i, (w, h) in enumerate(zip(sols, prods)):
            self.p[i, j] = self.p[j, i] = dot(w, u)
            self.q[i, j] = self.q[j, i] = 0.5 * (dot(w, g) + dot(h, u))


def inner_vector(op: LinearOperatorDescriptor, residual, sigma_y: float, r2: float,
                 solver: SolverSpec | None = None, slot: CgSlot | None = None) -> RealField:
    """Evaluate A^T (sigma_y^2 I + r2 A A^T)^{-1} residual by the solver's own
    `inner_vector`, the closed form when solver is None.

    The closed form divides in the operator's eigenbasis of A A^T; a
    ConjugateGradientSolver solves the system iteratively instead, from
    zero, or, given a CgSlot, from the slot's projected start, and
    records the solution in the slot. The closed form ignores the slot.
    """
    return (solver or _CLOSED_FORM).inner_vector(op, as_field(residual), sigma_y, r2, slot)


def _gradient_at_mean(spec: GuidanceSpec, b, y: np.ndarray, z0_mean: np.ndarray,
                      r2: float, c: float, slot: CgSlot | None = None) -> RealField:
    """c B^T S^{-1} (y - B z0_mean) with S = sigma_y^2 I + r2 B B^T; r2 and
    c = mean_jacobian_scalar are the caller's, computed once per t."""
    residual = y - b.apply(z0_mean)
    # Through the module attribute, so a wrapper of inner_vector sees every pass.
    u = inner_vector(b, residual, spec.sigma_y, r2, solver=spec.solver, slot=slot)
    return c * u


def likelihood_gradient(spec: GuidanceSpec, field: VectorFieldSpec, dec: DecoderSpec,
                        op: LinearOperatorDescriptor, y, z, t: float) -> RealField:
    """Gradient of the measurement log-likelihood surrogate at state z, time t."""
    y = _checked_measurement(op, y)
    z = as_field(z)
    b = latent_operator(op, dec)
    return _gradient_at_mean(spec, b, y, posterior_mean(field, z, t),
                             posterior_cov_scalar(spec.cov_mode, t, field),
                             mean_jacobian_scalar(field, t))


def _corrected_velocity(spec: GuidanceSpec, field: VectorFieldSpec, b, y: np.ndarray,
                        z, t: float, slots=None) -> RealField:
    z = as_field(z)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"corrected velocity needs t in [0, 1), got {t}")
    v_uncond = eval_field(field, z, t)
    g = t / (1.0 - t)
    # r2 and c depend on t alone: once per evaluation, not once per pass.
    r2 = posterior_cov_scalar(spec.cov_mode, t, field)
    c = mean_jacobian_scalar(field, t)
    v = v_uncond
    for k in range(spec.k_steps):
        slot = None if slots is None else slots[k]
        grad = _gradient_at_mean(spec, b, y, z - t * v, r2, c, slot)
        v = v_uncond - g * grad
    return v


def corrected_velocity(spec: GuidanceSpec, field: VectorFieldSpec, dec: DecoderSpec,
                       op: LinearOperatorDescriptor, y, z, t: float) -> RealField:
    """Unconditional velocity minus t/(1-t) times the likelihood gradient.

    The generic reference path. Runs spec.k_steps correction passes; pass
    k re-derives the denoised mean from the velocity produced by pass k-1
    and rebuilds the gradient there.
    """
    y = _checked_measurement(op, y)
    return _corrected_velocity(spec, field, latent_operator(op, dec), y, z, t)


def make_velocity(spec: GuidanceSpec, field: VectorFieldSpec, dec: DecoderSpec,
                  op: LinearOperatorDescriptor, y):
    """Build velocity(z, t) with per-run constants hoisted out of the loop.

    B = latent_operator(op, dec) is built once here for the guidance
    solver's own `velocity`. The callable's `coeffs` is B's `apply_coeffs`
    when a run should carry the state's coefficients zc beside it, and
    then velocity(z, t, zc) returns (k, B_hat k); otherwise it is None
    (see "Carried coefficients" above). y is checked once here, so a mis-shaped or
    non-finite measurement fails the run (ShapeMismatchError, NonFiniteError)
    before its first evaluation; the transforms inside an evaluation check nothing.
    """
    y = _checked_measurement(op, y)
    return spec.solver.velocity(spec, field, latent_operator(op, dec), y)


def _checked_measurement(op: LinearOperatorDescriptor, y) -> RealField:
    """y on op's measurement grid and finite, or an error naming it."""
    return require_finite("measurement y", check_shape("measurement y", y, op.output_shape))
