"""Exactly solvable ground truth for everything the package approximates.

With a Gaussian prior, a linear decoder, a dense operator, and Gaussian
noise, the posterior is Gaussian with closed-form moments, so every
quantity the guidance and sampler modules produce can be checked against
direct dense linear algebra. The formulas here are deliberately written
out again rather than imported from the modules under test: two
independent derivations agreeing is the whole point. For the same reason
the solves are direct (Cholesky), never conjugate gradients.

`run_oracle_checks` bundles the cross-checks behind the `oracle-check`
CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoders import DecoderSpec, DiagonalScaleDecoder, IdentityDecoder, LinearMatrixDecoder
from .errors import DimensionGuardError
from .fields import CovarianceMode
from .numerics import as_field, make_rng
from .operators import DenseOperator

DENSE_GUIDANCE_LIMIT = 512


@dataclass(frozen=True)
class LinearGaussianModel:
    """Gaussian prior N(0, prior_std^2 I) pushed through decoder then operator."""

    operator: DenseOperator
    prior_std: float = 1.0
    sigma_y: float = 0.1
    decoder: DecoderSpec | None = None

    def __post_init__(self):
        if self.prior_std <= 0:
            raise ValueError(f"prior_std must be > 0, got {self.prior_std}")
        if self.sigma_y < 0:
            raise ValueError(f"sigma_y must be >= 0, got {self.sigma_y}")
        if self.decoder is None:
            object.__setattr__(self, "decoder", IdentityDecoder(self.operator.input_shape))

    def decoder_matrix(self) -> np.ndarray:
        dec = self.decoder
        if isinstance(dec, LinearMatrixDecoder):
            return dec.matrix.copy()
        return dec.scale * np.eye(int(np.prod(dec.shape)))

    def effective_matrix(self) -> np.ndarray:
        """B = A M, the measurement map seen from latent space."""
        return self.operator.matrix @ self.decoder_matrix()


def _chol_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    low = np.linalg.cholesky(mat)
    return np.linalg.solve(low.T, np.linalg.solve(low, rhs))


def exact_posterior(model: LinearGaussianModel, y) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance of z0 given y, latent-space route.

    Sigma = (B^T B / sigma_y^2 + I / prior_std^2)^{-1}, mean =
    Sigma B^T y / sigma_y^2. The noiseless case delegates to the
    measurement-space route, which stays finite there.
    """
    y = as_field(y).ravel()
    if model.sigma_y == 0.0:
        return measurement_form_posterior(model, y)
    b = model.effective_matrix()
    d = b.shape[1]
    sy2 = model.sigma_y**2
    precision = b.T @ b / sy2 + np.eye(d) / model.prior_std**2
    cov = np.linalg.inv(precision)
    cov = 0.5 * (cov + cov.T)
    mean = _chol_solve(precision, b.T @ y / sy2)
    return mean, cov


def measurement_form_posterior(model: LinearGaussianModel, y) -> tuple[np.ndarray, np.ndarray]:
    """Same posterior through the measurement-space (low-rank) identity.

    mean = s^2 B^T (s^2 B B^T + sigma_y^2 I)^{-1} y and the matching
    covariance s^2 I - s^4 B^T (.)^{-1} B, algebraically equal to
    exact_posterior but computed along a different route; the pair
    cross-checks itself in the oracle suite.
    """
    y = as_field(y).ravel()
    b = model.effective_matrix()
    m, d = b.shape
    s2 = model.prior_std**2
    gram = s2 * (b @ b.T) + model.sigma_y**2 * np.eye(m)
    mean = s2 * (b.T @ np.linalg.solve(gram, y))
    cov = s2 * np.eye(d) - s2 * s2 * (b.T @ np.linalg.solve(gram, b))
    return mean, 0.5 * (cov + cov.T)


def _cov_scalar(mode: CovarianceMode, t: float, prior_std: float) -> float:
    # Written out on purpose; must not be imported from the fields module.
    if mode.kind == "zero":
        return 0.0
    om = 1.0 - t
    if mode.kind == "eq17":
        return t * t * (om * (1.0 - 2.0 * t) + 2.0 * t * t) / (om * (om * om + t * t))
    s2 = 1.0 if mode.kind == "pigdm" else prior_std**2
    return t * t * s2 / (om * om * s2 + t * t)


def _mean_factor(t: float, prior_std: float) -> float:
    s2 = prior_std**2
    om = 1.0 - t
    return om * s2 / (om * om * s2 + t * t)


def guidance_system_matrix(model: LinearGaussianModel, t: float,
                           cov_mode: CovarianceMode) -> np.ndarray:
    """S = sigma_y^2 I + r^2(t) B B^T, materialized."""
    b = model.effective_matrix()
    r2 = _cov_scalar(cov_mode, t, model.prior_std)
    return model.sigma_y**2 * np.eye(b.shape[0]) + r2 * (b @ b.T)


def marginal_loglik(model: LinearGaussianModel, y, z, t: float,
                    cov_mode: CovarianceMode) -> float:
    """log N(y; c(t) B z, S) with S as in guidance_system_matrix."""
    y = as_field(y).ravel()
    z = as_field(z).ravel()
    b = model.effective_matrix()
    s_mat = guidance_system_matrix(model, t, cov_mode)
    residual = y - _mean_factor(t, model.prior_std) * (b @ z)
    sign, logdet = np.linalg.slogdet(s_mat)
    if sign <= 0:
        raise np.linalg.LinAlgError("system matrix is not positive definite")
    quad = float(residual @ _chol_solve(s_mat, residual))
    return -0.5 * (quad + logdet + len(y) * np.log(2.0 * np.pi))


def dense_guidance(model: LinearGaussianModel, y, z, t: float,
                   cov_mode: CovarianceMode) -> np.ndarray:
    """Gradient of marginal_loglik in z, by explicit dense algebra.

    c(t) B^T S^{-1} (y - c(t) B z), reshaped like z. Guarded at
    DENSE_GUIDANCE_LIMIT latent entries.
    """
    z_arr = as_field(z)
    if z_arr.size > DENSE_GUIDANCE_LIMIT:
        raise DimensionGuardError(
            f"dense guidance limited to {DENSE_GUIDANCE_LIMIT} entries, got {z_arr.size}"
        )
    y = as_field(y).ravel()
    b = model.effective_matrix()
    c = _mean_factor(t, model.prior_std)
    s_mat = guidance_system_matrix(model, t, cov_mode)
    residual = y - c * (b @ z_arr.ravel())
    grad = c * (b.T @ _chol_solve(s_mat, residual))
    return grad.reshape(z_arr.shape)


def conditional_score_velocity(model: LinearGaussianModel, y, z, t: float) -> np.ndarray:
    """Exact velocity of the conditional flow p(z_t | y) at time t.

    The conditional z0 | y is Gaussian with the exact_posterior moments;
    pushing it along the straight-line path gives z_t with mean
    (1-t) mu and covariance (1-t)^2 Sigma + t^2 I, whose velocity field
    is again available in closed form. This is what a perfectly guided
    sampler should follow, independently of any guidance algebra.
    """
    z = as_field(z).ravel()
    mu, cov = exact_posterior(model, y)
    om = 1.0 - t
    cov_t = om * om * cov + t * t * np.eye(len(z))
    w = np.linalg.solve(cov_t, z - om * mu)
    e_z0 = mu + om * (cov @ w)
    e_z1 = t * w
    return e_z1 - e_z0


def finite_diff_jacobian(f, at, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a field-to-field map, flattened."""
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    x0 = as_field(at)
    n = x0.size
    cols = []
    flat = x0.ravel()
    for j in range(n):
        up_at = flat.copy()
        up_at[j] += step
        down_at = flat.copy()
        down_at[j] -= step
        # Separate buffers per evaluation: f may return a view of its input.
        up = as_field(f(up_at.reshape(x0.shape))).ravel()
        down = as_field(f(down_at.reshape(x0.shape))).ravel()
        cols.append((up - down) / (2.0 * step))
    return np.stack(cols, axis=1)


def mc_moments(sampler_runner, n_seeds: int):
    """Sample mean, covariance, and per-coordinate standard errors.

    Runs sampler_runner(seed) for seed = 0 .. n_seeds-1 and returns
    unbiased moments of the stacked outputs.
    """
    if n_seeds < 2:
        raise ValueError(f"need at least 2 seeds, got {n_seeds}")
    rows = [sampler_runner(s) for s in range(n_seeds)]
    x = np.stack([as_field(r).ravel() for r in rows])
    mean = x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    std_errors = np.sqrt(np.diag(cov) / n_seeds)
    return mean, cov, std_errors


@dataclass(frozen=True)
class OracleCheck:
    name: str
    passed: bool
    detail: str


def _check(name: str, worst: float, tol: float) -> OracleCheck:
    return OracleCheck(name, worst <= tol, f"max deviation {worst:.3e} (tol {tol:.0e})")


def run_oracle_checks(seed: int = 0) -> list[OracleCheck]:
    """The cross-validation battery behind `oracle-check`.

    Everything here pits two independent computations against each other;
    a failure means a real defect, not a flaky tolerance.
    """
    from .decoders import decode
    from .fields import AnalyticGaussianField, posterior_cov_scalar, posterior_mean
    from .guidance import (
        ClosedFormSolver,
        ConjugateGradientSolver,
        GuidanceSpec,
        corrected_velocity,
        inner_vector,
        likelihood_gradient,
        make_velocity,
    )
    from .operators import CircConvOperator, build_gaussian_kernel

    rng = make_rng(seed)
    checks: list[OracleCheck] = []
    t_grid = np.linspace(0.05, 0.95, 19)

    # Two posterior routes on random instances.
    worst = 0.0
    for _ in range(5):
        a = DenseOperator(rng.normal(size=(5, 8)))
        model = LinearGaussianModel(a, prior_std=float(rng.uniform(0.5, 2.0)),
                                    sigma_y=float(rng.uniform(0.05, 0.5)))
        y = rng.normal(size=5)
        m1, c1 = exact_posterior(model, y)
        m2, c2 = measurement_form_posterior(model, y)
        worst = max(worst, float(np.max(np.abs(m1 - m2))), float(np.max(np.abs(c1 - c2))))
    checks.append(_check("posterior-dual-route", worst, 1e-10))

    # Tweedie moments: exact Gaussian conditioning vs the field formulas.
    worst = 0.0
    for sig in (0.5, 1.0, 2.0):
        field = AnalyticGaussianField(sigma_latr=sig)
        mode = CovarianceMode(kind="lflow")
        z = rng.normal(size=4)
        for t in t_grid:
            om = 1.0 - t
            denom = om * om * sig * sig + t * t
            exact_mean = om * sig * sig / denom * z
            exact_var = t * t * sig * sig / denom
            got_mean = posterior_mean(field, z, float(t))
            got_var = posterior_cov_scalar(mode, float(t), field)
            worst = max(worst, float(np.max(np.abs(got_mean - exact_mean))),
                        abs(got_var - exact_var))
    checks.append(_check("tweedie-moments", worst, 1e-12))

    # Guidance gradient vs this module's dense route, all covariance modes.
    worst = 0.0
    a = DenseOperator(rng.normal(size=(5, 8)))
    model = LinearGaussianModel(a, prior_std=1.3, sigma_y=0.2)
    field = AnalyticGaussianField(sigma_latr=1.3)
    y = rng.normal(size=5)
    z = rng.normal(size=8)
    for kind in ("lflow", "eq17", "pigdm", "zero"):
        mode = CovarianceMode(kind=kind)
        spec = GuidanceSpec(cov_mode=mode, solver=ClosedFormSolver(), sigma_y=0.2,
                            k_steps=1)
        for t in (0.2, 0.5, 0.8):
            got = likelihood_gradient(spec, field, model.decoder, a, y, z, t)
            want = dense_guidance(model, y, z, t, mode)
            worst = max(worst, float(np.max(np.abs(got - want))))
    checks.append(_check("guidance-vs-dense", worst, 1e-10))

    # Gradient vs finite differences of the explicit marginal likelihood.
    worst = 0.0
    mode = CovarianceMode(kind="lflow")
    spec = GuidanceSpec(cov_mode=mode, sigma_y=0.2, k_steps=1)
    for t in (0.3, 0.6):
        grad = likelihood_gradient(spec, field, model.decoder, a, y, z, t)
        for _ in range(5):
            d = rng.normal(size=8)
            d = d / np.linalg.norm(d)
            eps = 1e-6
            fd = (marginal_loglik(model, y, z + eps * d, t, mode)
                  - marginal_loglik(model, y, z - eps * d, t, mode)) / (2.0 * eps)
            worst = max(worst, abs(fd - float(grad @ d)) / max(1.0, abs(fd)))
    checks.append(_check("gradient-finite-diff", worst, 1e-5))

    # Closed-form vs CG inner vectors on a circulant instance.
    worst = 0.0
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (16, 16))
    res = rng.normal(size=(16, 16))
    for r2 in (0.0, 0.1, 1.0):
        closed = inner_vector(op, res, 0.1, r2)
        viacg = inner_vector(op, res, 0.1, r2,
                             solver=ConjugateGradientSolver(tol=1e-12))
        scale = float(np.max(np.abs(closed)))
        worst = max(worst, float(np.max(np.abs(closed - viacg))) / scale)
    checks.append(_check("inner-vector-cg", worst, 1e-8))

    # Corrected velocity vs the exact conditional-flow velocity (K = 1).
    worst = 0.0
    model1 = LinearGaussianModel(a, prior_std=1.0, sigma_y=0.2)
    field1 = AnalyticGaussianField(sigma_latr=1.0)
    spec1 = GuidanceSpec(cov_mode=CovarianceMode(kind="lflow"), sigma_y=0.2, k_steps=1)
    for t in (0.2, 0.5, 0.8):
        got = corrected_velocity(spec1, field1, model1.decoder, a, y, z, t)
        want = conditional_score_velocity(model1, y, z, t)
        worst = max(worst, float(np.max(np.abs(got - want))))
    checks.append(_check("conditional-velocity", worst, 1e-10))

    # The same through a decoder, folded into B = A o decode: an
    # anisotropic matrix decoder and a scale decoder, reference and fused.
    worst = 0.0
    for dec in (LinearMatrixDecoder(rng.normal(size=(8, 6))), DiagonalScaleDecoder(1.7, (8,))):
        model_d = LinearGaussianModel(a, prior_std=1.0, sigma_y=0.2, decoder=dec)
        z_d = rng.normal(size=dec.latent_shape)
        fused = make_velocity(spec1, field1, dec, a, y)
        for t in (0.2, 0.5, 0.8):
            want = conditional_score_velocity(model_d, y, z_d, t)
            for got in (corrected_velocity(spec1, field1, dec, a, y, z_d, t), fused(z_d, t)):
                worst = max(worst, float(np.max(np.abs(got - want))))
    checks.append(_check("decoder-velocity", worst, 1e-10))

    # decode() consistency so the checks above cover the decoder path too.
    dec = model.decoder
    worst = float(np.max(np.abs(decode(dec, z) - z)))
    checks.append(_check("identity-decode", worst, 0.0))

    return checks
