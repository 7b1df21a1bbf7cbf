"""Tests for the likelihood gradient and the corrected velocity.

The linear-Gaussian setting makes everything here exact, so the tests
lean on explicit dense algebra written out locally: the per-operator
closed forms, the conjugate-gradient route, and the fused velocity
closure must all land on the same vectors to tight tolerances. The
correction-pass semantics get their own regression: with the matched
covariance, pass two rescales each measurement eigenmode by
sigma_y^2 / (sigma_y^2 + r^2 lambda), a consequence of the identity
t * g(t) * c(t) = r^2(t).
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import lflow.guidance
from lflow.decoders import DiagonalScaleDecoder, IdentityDecoder, LinearMatrixDecoder
from lflow.errors import CgConvergenceError
from lflow.fields import (
    COV_MODE_KINDS,
    AnalyticGaussianField,
    CallbackField,
    CovarianceMode,
    eval_field,
    mean_jacobian_scalar,
    posterior_cov_scalar,
    posterior_mean,
)
from lflow.guidance import (
    ClosedFormSolver,
    ConjugateGradientSolver,
    GuidanceSpec,
    conjugate_gradient,
    corrected_velocity,
    inner_vector,
    likelihood_gradient,
    make_velocity,
)
from lflow.numerics import make_rng
from lflow.operators import (
    CircConvOperator,
    ConvDownsampleOperator,
    DenseOperator,
    Kernel,
    MaskOperator,
    build_bicubic_kernel,
    build_gaussian_kernel,
    dense_materialize,
)
from lflow.sampler import AdaptiveHeunSolver, SamplerConfig, init_state, sample_posterior
from lflow.tasks import default_task_config, degrade


def dense_inner_vector(op, residual, sigma_y, r2):
    """Reference route: materialize A, solve S u = residual directly."""
    a = dense_materialize(op).matrix
    s_mat = sigma_y**2 * np.eye(a.shape[0]) + r2 * (a @ a.T)
    u = np.linalg.solve(s_mat, np.asarray(residual, dtype=np.float64).ravel())
    return (a.T @ u).reshape(op.input_shape)


def make_operator(kind, rng, shape=(16, 16)):
    """One instance per operator kind, with a random mask or matrix."""
    kernel = build_gaussian_kernel(3, 1.0)
    if kind == "mask":
        mask = (rng.uniform(size=shape) < 0.5).astype(np.float64)
        mask[0, 0] = 1.0
        return MaskOperator(mask)
    if kind == "circconv":
        return CircConvOperator(kernel, shape)
    if kind == "convdown":
        return ConvDownsampleOperator(kernel, shape, 2)
    return DenseOperator(rng.normal(size=(5, 8)))


def test_conjugate_gradient_matches_direct_solve():
    rng = make_rng(0)
    m = rng.normal(size=(12, 12))
    spd = m @ m.T + 12.0 * np.eye(12)
    rhs = rng.normal(size=12)
    got = conjugate_gradient(lambda v: spd @ v, rhs, tol=1e-14)
    np.testing.assert_allclose(got, np.linalg.solve(spd, rhs), atol=1e-9)


def test_conjugate_gradient_zero_rhs_short_circuits():
    calls = []

    def matvec(v):
        calls.append(1)
        return v

    out = conjugate_gradient(matvec, np.zeros(4))
    np.testing.assert_array_equal(out, np.zeros(4))
    assert calls == []


def test_conjugate_gradient_reports_non_convergence():
    rng = make_rng(1)
    m = rng.normal(size=(20, 20))
    spd = m @ m.T + 1e-8 * np.eye(20)
    with pytest.raises(CgConvergenceError) as info:
        conjugate_gradient(lambda v: spd @ v, rng.normal(size=20), tol=1e-14, max_iter=2)
    assert info.value.iterations == 2
    assert info.value.residual_norm > 0


def test_conjugate_gradient_leaves_rhs_unmodified():
    rng = make_rng(11)
    m = rng.normal(size=(9, 9))
    spd = m @ m.T + 9.0 * np.eye(9)
    rhs = rng.normal(size=(3, 3))
    before = rhs.copy()
    got = conjugate_gradient(lambda v: (spd @ v.ravel()).reshape(v.shape), rhs, tol=1e-14)
    np.testing.assert_array_equal(rhs, before)
    assert not np.shares_memory(got, rhs)


def test_conjugate_gradient_never_writes_a_returned_buffer():
    # The matvec hands back one cached buffer on every call; CG may read
    # it but must not write it, nor rhs.
    rng = make_rng(15)
    m = rng.normal(size=(16, 16))
    spd = m @ m.T + 16.0 * np.eye(16)
    rhs = rng.normal(size=(4, 4))
    before = rhs.copy()
    cached = np.empty((4, 4))
    returned = []

    def matvec(v):
        if returned:
            np.testing.assert_array_equal(cached, returned[-1])
        cached[...] = (spd @ v.ravel()).reshape(v.shape)
        returned.append(cached.copy())
        return cached

    got = conjugate_gradient(matvec, rhs, tol=1e-14)
    assert len(returned) > 1
    np.testing.assert_array_equal(cached, returned[-1])
    np.testing.assert_array_equal(rhs, before)
    np.testing.assert_allclose(got.ravel(), np.linalg.solve(spd, rhs.ravel()), atol=1e-9)


@pytest.mark.parametrize("kind", ["mask", "circconv", "convdown", "dense"])
def test_cg_matvec_equals_the_out_of_place_formula_bit_for_bit(kind):
    # The matvec sums in place on gram's fresh output; the bits must be
    # those of sigma_y^2 u + r2 gram(u) formed out of place.
    op = make_operator(kind, make_rng(16))
    residual = make_rng(17).normal(size=op.output_shape)
    sy2, r2 = 0.1 * 0.1, 0.5
    u = conjugate_gradient(lambda v: sy2 * v + r2 * op.gram(v), residual, tol=1e-12)
    got = inner_vector(op, residual, 0.1, r2, solver=ConjugateGradientSolver(tol=1e-12))
    assert np.array_equal(got, op.adjoint(u))


@pytest.mark.parametrize("matvec", [
    lambda v: np.zeros_like(v),
    lambda v: -v,
    lambda v: np.full_like(v, np.nan),
], ids=["singular", "negative_definite", "nan"])
def test_conjugate_gradient_breakdown_is_a_cg_error(matvec):
    with pytest.raises(CgConvergenceError, match="breakdown") as info:
        conjugate_gradient(matvec, np.ones(4))
    assert info.value.iterations == 0


def cold_cg_reference(matvec, rhs, tol):
    """The zero-start CG loop, out of place: the bits a slot-less solve keeps."""
    rs = float(np.vdot(rhs, rhs).real)
    rhs_norm = np.sqrt(rs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    for _ in range(500):
        mp = matvec(p)
        alpha = rs / float(np.vdot(p, mp).real)
        x = x + alpha * p
        r = r - alpha * mp
        rs_next = float(np.vdot(r, r).real)
        if np.sqrt(rs_next) <= tol * rhs_norm:
            return x
        p = r + (rs_next / rs) * p
        rs = rs_next
    raise AssertionError("reference CG did not converge")


def spd_problem(seed):
    rng = make_rng(seed)
    m = rng.normal(size=(12, 12))
    return m @ m.T + 12.0 * np.eye(12), rng.normal(size=12)


def test_conjugate_gradient_from_the_exact_solution_returns_after_one_matvec():
    spd, rhs = spd_problem(20)
    exact = np.linalg.solve(spd, rhs)
    x0 = exact.copy()
    calls = []

    def matvec(v):
        calls.append(1)
        return spd @ v

    got = conjugate_gradient(matvec, rhs, x0=x0)
    assert calls == [1]
    assert np.array_equal(got, exact)
    assert np.array_equal(x0, exact)
    assert not np.shares_memory(got, x0)


def test_conjugate_gradient_from_an_arbitrary_start_matches_a_direct_solve():
    spd, rhs = spd_problem(21)
    x0 = make_rng(22).normal(size=rhs.shape)
    before = x0.copy()
    got = conjugate_gradient(lambda v: spd @ v, rhs, tol=1e-12, x0=x0)
    np.testing.assert_array_equal(x0, before)
    want = np.linalg.solve(spd, rhs)
    assert np.max(np.abs(got - want)) < 1e-10 * float(np.max(np.abs(want)))


def test_conjugate_gradient_start_is_never_written_by_an_identity_matvec():
    # A matvec that returns its input: neither the start, rhs nor the
    # returned buffer may be written.
    rhs = make_rng(23).normal(size=6)
    x0 = make_rng(24).normal(size=6)
    before = x0.copy()
    got = conjugate_gradient(lambda v: v, rhs, tol=1e-14, x0=x0)
    np.testing.assert_array_equal(x0, before)
    np.testing.assert_allclose(got, rhs, atol=1e-14)


@pytest.mark.parametrize("matvec", [
    lambda v: np.zeros_like(v),
    lambda v: -v,
    lambda v: np.full_like(v, np.nan),
], ids=["singular", "negative_definite", "nan"])
def test_conjugate_gradient_breakdown_from_a_start_is_a_cg_error(matvec):
    with pytest.raises(CgConvergenceError, match="breakdown"):
        conjugate_gradient(matvec, np.ones(4), x0=np.full(4, 0.5))


@pytest.mark.parametrize("kind", ["mask", "circconv", "convdown", "dense"])
def test_slotless_cg_inner_vector_keeps_the_zero_start_bits(kind):
    # inner_vector without a slot is the stateless cold reference.
    op = make_operator(kind, make_rng(26))
    residual = make_rng(27).normal(size=op.output_shape)
    sy2, r2 = 0.1 * 0.1, 0.5
    u = cold_cg_reference(lambda v: sy2 * v + r2 * op.gram(v), residual, 1e-10)
    got = inner_vector(op, residual, 0.1, r2, solver=ConjugateGradientSolver())
    assert np.array_equal(got, op.adjoint(u))


@pytest.mark.parametrize("kind", ["mask", "circconv", "convdown"])
def test_cg_solve_stays_on_the_measurement_grid(kind, monkeypatch):
    # Every CG matvec goes through op.gram; the operator's apply and
    # adjoint run once, for the final A^T u, never inside the loop.
    op = make_operator(kind, make_rng(12))
    residual = make_rng(13).normal(size=op.output_shape)
    expected = inner_vector(op, residual, 0.1, 0.5)
    calls = {"apply": 0, "adjoint": 0, "gram": 0}
    cls = type(op)
    for name in calls:
        def counted(self, arg, _name=name, _original=getattr(cls, name)):
            calls[_name] += 1
            return _original(self, arg)
        monkeypatch.setattr(cls, name, counted)
    got = inner_vector(op, residual, 0.1, 0.5, solver=ConjugateGradientSolver(tol=1e-13))
    assert calls["apply"] == 0
    assert calls["adjoint"] == 1
    assert calls["gram"] >= 1
    assert np.max(np.abs(got - expected)) < 1e-10 * float(np.max(np.abs(expected)))


def test_singular_cg_guidance_fails_with_a_cg_error():
    # sigma_y = 0 in zero mode makes S = 0: the first CG step breaks down,
    # and the error carries the partial trajectory like any solver failure.
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (8, 8))
    guidance = GuidanceSpec(cov_mode=CovarianceMode(kind="zero"), sigma_y=0.0,
                            solver=ConjugateGradientSolver())
    config = SamplerConfig(t_s=0.8, solver=AdaptiveHeunSolver(atol=1e-3, rtol=1e-3),
                           guidance=guidance, seed=0)
    y = make_rng(14).normal(size=(8, 8))
    with pytest.raises(CgConvergenceError) as info:
        sample_posterior(config, AnalyticGaussianField(sigma_latr=0.5),
                         IdentityDecoder((8, 8)), op, y)
    assert info.value.trajectory is not None


def test_cg_run_builds_the_latent_operator_once(monkeypatch):
    real_latent_operator = lflow.guidance.latent_operator
    builds = []

    def counting_latent_operator(*args):
        builds.append(1)
        return real_latent_operator(*args)

    monkeypatch.setattr(lflow.guidance, "latent_operator", counting_latent_operator)
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (8, 8))
    guidance = GuidanceSpec(sigma_y=0.1, solver=ConjugateGradientSolver())
    config = SamplerConfig(t_s=0.8, solver=AdaptiveHeunSolver(atol=1e-3, rtol=1e-3),
                           guidance=guidance, seed=0)
    y = make_rng(19).normal(size=(8, 8))
    _, traj = sample_posterior(config, AnalyticGaussianField(sigma_latr=0.5),
                               DiagonalScaleDecoder(1.4, (8, 8)), op, y)
    assert traj.nfe > 1
    assert builds == [1]


def cg_problem(seed, shape=(16, 16)):
    op = CircConvOperator(build_gaussian_kernel(5, 1.2), shape)
    rng = make_rng(seed)
    return op, rng.normal(size=shape), rng.normal(size=shape)


def count_grams(monkeypatch, cls):
    calls = []
    real_gram = cls.gram

    def counted(self, u):
        calls.append(1)
        return real_gram(self, u)

    monkeypatch.setattr(cls, "gram", counted)
    return calls


def test_warm_cg_velocity_tracks_the_cold_reference():
    op, y, z = cg_problem(30)
    field = AnalyticGaussianField(sigma_latr=0.5)
    dec = IdentityDecoder(op.input_shape)
    step = make_rng(31).normal(size=z.shape)
    for k_steps, literal in ((1, False), (2, False), (3, False), (2, True)):
        spec = GuidanceSpec(sigma_y=0.05, k_steps=k_steps, literal_update=literal,
                            solver=ConjugateGradientSolver())
        warm = make_velocity(spec, field, dec, op, y)
        for i, t in enumerate((0.8, 0.79, 0.77, 0.6, 0.62, 0.3, 0.05)):
            zi = z + 0.01 * i * step
            want = corrected_velocity(spec, field, dec, op, y, zi, t)
            got = warm(zi, t)
            err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
            assert err < 1e-9, (k_steps, literal, t, err)


def test_warm_cg_velocity_needs_fewer_matvecs_at_a_nearby_time(monkeypatch):
    op, y, z = cg_problem(32)
    spec = GuidanceSpec(sigma_y=0.05, solver=ConjugateGradientSolver())
    velocity = make_velocity(spec, AnalyticGaussianField(sigma_latr=0.5),
                             IdentityDecoder(op.input_shape), op, y)
    calls = count_grams(monkeypatch, CircConvOperator)
    velocity(z, 0.8)
    first = len(calls)
    calls.clear()
    velocity(z, 0.79)
    assert 0 < len(calls) < first


def test_cg_velocity_makes_one_inner_vector_call_per_pass(monkeypatch):
    # perfbench wraps guidance.inner_vector by name to split an NFE into
    # layers, so the CG velocity must reach the solve through it.
    real_inner_vector = lflow.guidance.inner_vector
    passes = []

    def counting_inner_vector(*args, **kwargs):
        passes.append(1)
        return real_inner_vector(*args, **kwargs)

    monkeypatch.setattr(lflow.guidance, "inner_vector", counting_inner_vector)
    op, y, z = cg_problem(33, shape=(8, 8))
    field = AnalyticGaussianField(sigma_latr=0.5)
    dec = IdentityDecoder(op.input_shape)
    for k_steps, literal, want in ((1, False, 1), (2, False, 2), (3, False, 3), (3, True, 1)):
        spec = GuidanceSpec(sigma_y=0.05, k_steps=k_steps, literal_update=literal,
                            solver=ConjugateGradientSolver())
        velocity = make_velocity(spec, field, dec, op, y)
        for t in (0.8, 0.7):
            passes.clear()
            velocity(z, t)
            assert len(passes) == want, (k_steps, literal, t)


def test_warm_cg_runs_share_no_state():
    # Run A, then run B on another measurement, then A again: the warm
    # starts live in one run's closure, so the two A runs are identical.
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (8, 8))
    guidance = GuidanceSpec(sigma_y=0.1, solver=ConjugateGradientSolver())
    config = SamplerConfig(t_s=0.8, solver=AdaptiveHeunSolver(atol=1e-4, rtol=1e-4),
                           guidance=guidance, seed=3)
    field = AnalyticGaussianField(sigma_latr=0.5)
    dec = IdentityDecoder((8, 8))
    y_a = make_rng(34).normal(size=(8, 8))
    y_b = make_rng(35).normal(size=(8, 8))
    z_a1, traj_a1 = sample_posterior(config, field, dec, op, y_a)
    z_b, traj_b = sample_posterior(config, field, dec, op, y_b)
    z_a2, traj_a2 = sample_posterior(config, field, dec, op, y_a)
    assert traj_a1.nfe > 2
    assert not np.array_equal(z_a1, z_b)
    assert np.array_equal(z_a1, z_a2)
    assert traj_a1.nfe == traj_a2.nfe


def heun_shaped_calls(velocity, z, steps, t=0.8):
    """Drive velocity like an adaptive Heun run; return every (z, t) it saw.

    steps holds (h, accepted) pairs: each evaluates the stage at t + h from
    the current first stage, and an accepted step re-evaluates at the Heun
    state there, as `lflow.sampler` does.
    """
    calls = [(z, t)]
    k1 = velocity(z, t)
    for h, accepted in steps:
        z_euler = z + h * k1
        calls.append((z_euler, t + h))
        k2 = velocity(z_euler, t + h)
        if accepted:
            z, t = z + 0.5 * h * (k1 + k2), t + h
            calls.append((z, t))
            k1 = velocity(z, t)
    return calls


def restart_velocity(spec, field, op, y):
    """The CG velocity whose passes restart from their previous solutions."""
    previous = [None] * spec.k_steps
    sy2 = spec.sigma_y * spec.sigma_y

    def velocity(z, t):
        v_uncond = eval_field(field, z, t)
        r2 = posterior_cov_scalar(spec.cov_mode, t, field)

        def matvec(u):
            out = op.gram(u)
            out *= r2
            out += sy2 * u
            return out

        v = v_uncond
        for k in range(spec.k_steps):
            previous[k] = conjugate_gradient(matvec, y - op.apply(z - t * v),
                                             x0=previous[k])
            grad = mean_jacobian_scalar(field, t) * op.adjoint(previous[k])
            v = v_uncond - t / (1.0 - t) * grad
        return v
    return velocity


def test_predicted_cg_start_tracks_the_cold_reference_with_fewer_matvecs(monkeypatch):
    # Same-time re-evaluations, a rejected stage and its shorter retry, and
    # enough accepted states for the linear and then the cubic prediction.
    op, y, z = cg_problem(36)
    field = AnalyticGaussianField(sigma_latr=0.5)
    dec = IdentityDecoder(op.input_shape)
    spec = GuidanceSpec(sigma_y=0.05, solver=ConjugateGradientSolver())
    steps = [(-0.02, True), (-0.02, True), (-0.03, True), (-0.05, False),
             (-0.025, True), (-0.02, True), (-0.02, True)]
    calls = count_grams(monkeypatch, CircConvOperator)
    predicted = make_velocity(spec, field, dec, op, y)
    outputs = []

    def recorded(zi, t):
        outputs.append(predicted(zi, t))
        return outputs[-1]

    states = heun_shaped_calls(recorded, z, steps)
    predicted_grams = len(calls)
    calls.clear()
    restart = restart_velocity(spec, field, op, y)
    for zi, t in states:
        restart(zi, t)
    restart_grams = len(calls)
    for (zi, t), got in zip(states, outputs):
        want = corrected_velocity(spec, field, dec, op, y, zi, t)
        err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
        assert err < 1e-9, (t, err)
    assert predicted_grams < restart_grams, (predicted_grams, restart_grams)
    # More evaluations at the last accepted time keep one history node
    # there, so the next extrapolation still has distinct nodes.
    t_last = states[-1][1]
    for zi, t in ((z, t_last), (2.0 * z, t_last), (z, t_last - 0.02)):
        want = corrected_velocity(spec, field, dec, op, y, zi, t)
        err = float(np.max(np.abs(predicted(zi, t) - want))) / float(np.max(np.abs(want)))
        assert err < 1e-9, (t, err)


def test_cg_velocity_at_64_squared_pigdm_with_a_larger_iteration_cap():
    # The gaussian-deblur preset at 64^2 has A A^T eigenvalues from 1.4e-14
    # to 1, so in pigdm mode the first (cold) solve at t_s needs about 607
    # matvecs: the default cap of 500 fails it, 1000 does not.
    cfg = default_task_config("gaussian-deblur", guidance_solver="cg", cov_mode="pigdm",
                              seed=1, cg_max_iter=1000)
    op, _ = cfg.build_operator()
    field, dec, sampler_cfg = cfg.build_field(), cfg.build_decoder(), cfg.build_sampler()
    y = degrade(cfg) - op.apply(np.full(op.input_shape, 0.5))
    z = init_state(sampler_cfg, dec, op, y, make_rng(cfg.seed))
    got = make_velocity(sampler_cfg.guidance, field, dec, op, y)(z, cfg.t_s)
    closed = replace(sampler_cfg.guidance, solver=ClosedFormSolver())
    want = make_velocity(closed, field, dec, op, y)(z, cfg.t_s)
    assert float(np.max(np.abs(got - want))) < 1e-9 * float(np.max(np.abs(want)))


def test_inner_vector_all_ones_mask_with_unit_noise():
    op = MaskOperator(np.ones((3, 3)))
    residual = make_rng(2).normal(size=9)
    out = inner_vector(op, residual, sigma_y=1.0, r2=0.0)
    np.testing.assert_allclose(out.ravel(), residual, atol=1e-15)


def test_inner_vector_delta_kernel_divides_by_the_scalar_denominator():
    op = CircConvOperator(Kernel(np.array([[1.0]])), (4, 4))
    residual = make_rng(3).normal(size=(4, 4))
    out = inner_vector(op, residual, sigma_y=0.3, r2=0.2)
    np.testing.assert_allclose(out, residual / (0.3**2 + 0.2), atol=1e-12)


def test_inner_vector_closed_form_vs_dense_solve_on_convolution():
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (16, 16))
    residual = make_rng(4).normal(size=(16, 16))
    closed = inner_vector(op, residual, sigma_y=0.1, r2=0.3)
    reference = dense_inner_vector(op, residual, 0.1, 0.3)
    scale = float(np.max(np.abs(reference)))
    assert np.max(np.abs(closed - reference)) < 1e-8 * scale


@pytest.mark.parametrize("kind", ["mask", "circconv", "convdown", "dense"])
def test_inner_vector_three_routes_agree(kind):
    rng = make_rng(5)
    op = make_operator(kind, rng)
    residual = rng.normal(size=op.output_shape)
    for r2 in (0.0, 0.1, 1.0):
        closed = inner_vector(op, residual, 0.1, r2)
        viacg = inner_vector(op, residual, 0.1, r2, solver=ConjugateGradientSolver(tol=1e-13))
        dense = dense_inner_vector(op, residual, 0.1, r2)
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(closed - dense)) < 1e-8 * scale
        assert np.max(np.abs(viacg - dense)) < 1e-8 * scale


def test_inner_vector_noiseless_measurements_still_solve():
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (8, 8))
    residual = make_rng(6).normal(size=(8, 8))
    closed = inner_vector(op, residual, sigma_y=0.0, r2=0.5)
    reference = dense_inner_vector(op, residual, 0.0, 0.5)
    assert np.max(np.abs(closed - reference)) < 1e-8 * float(np.max(np.abs(reference)))


def test_zero_residual_gives_zero_gradient():
    field = AnalyticGaussianField(sigma_latr=0.8)
    dec = IdentityDecoder((4, 4))
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (4, 4))
    z = make_rng(7).normal(size=(4, 4))
    t = 0.6
    y = op.apply(posterior_mean(field, z, t))
    spec = GuidanceSpec(sigma_y=0.1, k_steps=1)
    grad = likelihood_gradient(spec, field, dec, op, y, z, t)
    np.testing.assert_allclose(grad, np.zeros((4, 4)), atol=1e-12)


def test_gradient_hand_formula_at_the_midpoint():
    # Identity operator and decoder, unit prior, t = 1/2: the denoised
    # mean is z itself, c = 1, r^2 = 1/2, so the gradient is (y - z)/1.5.
    field = AnalyticGaussianField(sigma_latr=1.0)
    dec = IdentityDecoder((3, 3))
    op = CircConvOperator(Kernel(np.array([[1.0]])), (3, 3))
    rng = make_rng(8)
    z = rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3))
    spec = GuidanceSpec(sigma_y=1.0, k_steps=1)
    grad = likelihood_gradient(spec, field, dec, op, y, z, 0.5)
    np.testing.assert_allclose(grad, (y - z) / 1.5, atol=1e-12)


@pytest.mark.parametrize("kind", ["lflow", "eq17", "pigdm", "zero"])
def test_gradient_matches_explicit_marginal_gaussian(kind):
    # Independent algebra: grad = c A^T S^{-1} (y - c A z) written out here.
    rng = make_rng(9)
    a = rng.normal(size=(5, 8))
    op = DenseOperator(a)
    sigma = 1.2
    field = AnalyticGaussianField(sigma_latr=sigma)
    dec = IdentityDecoder((8,))
    y = rng.normal(size=5)
    z = rng.normal(size=8)
    mode = CovarianceMode(kind=kind)
    spec = GuidanceSpec(cov_mode=mode, sigma_y=0.2, k_steps=1)
    for t in (0.2, 0.5, 0.8):
        om = 1.0 - t
        c = om * sigma**2 / (om**2 * sigma**2 + t**2)
        r2 = posterior_cov_scalar(mode, t, field)
        s_mat = 0.2**2 * np.eye(5) + r2 * (a @ a.T)
        expected = c * (a.T @ np.linalg.solve(s_mat, y - c * (a @ z)))
        got = likelihood_gradient(spec, field, dec, op, y, z, t)
        assert np.max(np.abs(got - expected)) < 1e-10


def test_gradient_matches_finite_differences_of_the_marginal():
    from lflow.oracle import LinearGaussianModel, marginal_loglik

    rng = make_rng(10)
    a = DenseOperator(rng.normal(size=(5, 8)))
    model = LinearGaussianModel(a, prior_std=1.0, sigma_y=0.15)
    field = AnalyticGaussianField(sigma_latr=1.0)
    mode = CovarianceMode(kind="lflow")
    spec = GuidanceSpec(cov_mode=mode, sigma_y=0.15, k_steps=1)
    y = rng.normal(size=5)
    z = rng.normal(size=8)
    t = 0.45
    grad = likelihood_gradient(spec, field, model.decoder, a, y, z, t)
    eps = 1e-6
    for _ in range(5):
        d = rng.normal(size=8)
        d /= np.linalg.norm(d)
        fd = (
            marginal_loglik(model, y, z + eps * d, t, mode)
            - marginal_loglik(model, y, z - eps * d, t, mode)
        ) / (2 * eps)
        assert abs(fd - float(grad @ d)) < 1e-5 * max(1.0, abs(fd))


def test_corrected_velocity_with_zero_residual_is_unconditional():
    field = AnalyticGaussianField(sigma_latr=1.0)
    dec = IdentityDecoder((2,))
    op = DenseOperator(np.zeros((2, 2)))
    z = np.array([0.4, -1.1])
    spec = GuidanceSpec(sigma_y=0.1, k_steps=3)
    v = corrected_velocity(spec, field, dec, op, np.zeros(2), z, 0.5)
    np.testing.assert_allclose(v, eval_field(field, z, 0.5), atol=1e-14)


def test_single_pass_velocity_matches_the_exact_conditional_field():
    from lflow.oracle import LinearGaussianModel, conditional_score_velocity

    rng = make_rng(11)
    a = DenseOperator(rng.normal(size=(5, 8)))
    model = LinearGaussianModel(a, prior_std=1.0, sigma_y=0.2)
    field = AnalyticGaussianField(sigma_latr=1.0)
    spec = GuidanceSpec(cov_mode=CovarianceMode(kind="lflow"), sigma_y=0.2, k_steps=1)
    y = rng.normal(size=5)
    z = rng.normal(size=8)
    for t in (0.15, 0.5, 0.85):
        got = corrected_velocity(spec, field, model.decoder, a, y, z, t)
        want = conditional_score_velocity(model, y, z, t)
        assert np.max(np.abs(got - want)) < 1e-10


def test_one_vs_two_passes_difference_norm_is_reported():
    rng = make_rng(12)
    a = DenseOperator(rng.normal(size=(3, 4)))
    field = AnalyticGaussianField(sigma_latr=1.0)
    dec = IdentityDecoder((4,))
    y = rng.normal(size=3)
    z = rng.normal(size=4)
    one = GuidanceSpec(sigma_y=0.1, k_steps=1)
    two = GuidanceSpec(sigma_y=0.1, k_steps=2)
    v1 = corrected_velocity(one, field, dec, a, y, z, 0.5)
    v2 = corrected_velocity(two, field, dec, a, y, z, 0.5)
    diff = float(np.linalg.norm(v2 - v1))
    # Recorded, not bounded: the two-pass update genuinely moves.
    print(f"one-vs-two correction passes, velocity difference norm: {diff:.6e}")
    assert np.isfinite(diff)


def test_literal_repeated_update_is_idempotent():
    rng = make_rng(13)
    a = DenseOperator(rng.normal(size=(3, 4)))
    field = AnalyticGaussianField(sigma_latr=0.9)
    dec = IdentityDecoder((4,))
    y = rng.normal(size=3)
    z = rng.normal(size=4)
    base = dict(cov_mode=CovarianceMode(kind="lflow"), sigma_y=0.1)
    v1 = corrected_velocity(GuidanceSpec(k_steps=1, **base), field, dec, a, y, z, 0.6)
    for k in (2, 3, 5):
        spec = GuidanceSpec(k_steps=k, literal_update=True, **base)
        vk = corrected_velocity(spec, field, dec, a, y, z, 0.6)
        np.testing.assert_allclose(vk, v1, atol=1e-14)


def test_second_pass_rescales_measurement_modes_by_the_derived_factor():
    rng = make_rng(14)
    a = rng.normal(size=(5, 8))
    op = DenseOperator(a)
    sigma, sigma_y, t = 0.7, 0.15, 0.6
    field = AnalyticGaussianField(sigma_latr=sigma)
    dec = IdentityDecoder((8,))
    y = rng.normal(size=5)
    z = rng.normal(size=8)
    base = dict(cov_mode=CovarianceMode(kind="lflow"), sigma_y=sigma_y)
    v_uncond = eval_field(field, z, t)
    g = t / (1.0 - t)
    v1 = corrected_velocity(GuidanceSpec(k_steps=1, **base), field, dec, op, y, z, t)
    v2 = corrected_velocity(GuidanceSpec(k_steps=2, **base), field, dec, op, y, z, t)
    grad1 = (v_uncond - v1) / g
    grad2 = (v_uncond - v2) / g

    om = 1.0 - t
    c = om * sigma**2 / (om**2 * sigma**2 + t**2)
    r2 = t**2 * sigma**2 / (om**2 * sigma**2 + t**2)
    # The matched covariance turns t*g*c into r^2 on the nose.
    assert abs(t * g * c - r2) < 1e-14

    lam, q = np.linalg.eigh(a @ a.T)
    multiplier = sigma_y**2 / (sigma_y**2 + r2 * lam)
    lhs = q.T @ (a @ grad2)
    rhs = multiplier * (q.T @ (a @ grad1))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale


def test_corrected_velocity_rejects_times_at_or_beyond_one():
    field = AnalyticGaussianField()
    dec = IdentityDecoder((2,))
    op = DenseOperator(np.eye(2))
    spec = GuidanceSpec()
    with pytest.raises(ValueError):
        corrected_velocity(spec, field, dec, op, np.zeros(2), np.zeros(2), 1.0)


def make_decoder(kind, shape, rng):
    if kind == "identity":
        return IdentityDecoder(shape)
    if kind == "scale":
        return DiagonalScaleDecoder(1.4, shape)
    return LinearMatrixDecoder(rng.normal(size=(int(np.prod(shape)), 7)), field_shape=shape)


@pytest.mark.parametrize("dec_kind", ["identity", "scale", "matrix"])
def test_fused_dense_velocity_matches_the_generic_path(dec_kind, monkeypatch):
    # The fused closure of make_velocity against the pass-by-pass
    # reference, over all four operators, covariance modes, pass counts,
    # update flavours and field kinds, for every decoder kind.
    real_inner_vector = lflow.guidance.inner_vector
    passes = []

    def counting_inner_vector(*args, **kwargs):
        passes.append(1)
        return real_inner_vector(*args, **kwargs)

    monkeypatch.setattr(lflow.guidance, "inner_vector", counting_inner_vector)
    rng = make_rng(15)
    fields = (
        AnalyticGaussianField(sigma_latr=0.8),
        CallbackField(lambda z, t: np.sin(z) - t * z, surrogate_sigma_latr=0.8),
    )
    # Non-default mode parameters check that the per-run mode dispatch
    # honours them.
    modes = [CovarianceMode(kind=kind) for kind in COV_MODE_KINDS] + [
        CovarianceMode(kind="lflow", sigma_latr=0.5),
        CovarianceMode(kind="pigdm", sigma_data=0.7),
    ]
    # The matrix decoder's unit-variance entries give B B^T eigenvalues up
    # to about 40, and the two routes round differently: in the worst case
    # here they differ by 1.8e-12, each within 1.6e-12 of a direct solve.
    tol = 1e-11 if dec_kind == "matrix" else 1e-12
    for op_kind in ("mask", "circconv", "convdown", "dense"):
        op = make_operator(op_kind, rng, shape=(6, 6))
        dec = make_decoder(dec_kind, op.input_shape, rng)
        y = rng.normal(size=op.output_shape)
        z = rng.normal(size=dec.latent_shape)
        for field, mode, k_steps, literal in itertools.product(
            fields, modes, (1, 2, 3, 5), (False, True)
        ):
            spec = GuidanceSpec(cov_mode=mode, sigma_y=0.1,
                                k_steps=k_steps, literal_update=literal)
            fused = make_velocity(spec, field, dec, op, y)
            for t in (0.1, 0.5, 0.9):
                want = corrected_velocity(spec, field, dec, op, y, z, t)
                passes.clear()
                got = fused(z, t)
                assert not passes, "the fused closure fell back to the per-pass route"
                err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
                assert err < tol, (op_kind, type(field).__name__, mode, k_steps, literal, t, err)


def _read_only(arr):
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize("field_kind", ["analytic", "read-only callback"])
@pytest.mark.parametrize("k_steps", [1, 2, 3])
@pytest.mark.parametrize("op_kind", ["circconv", "convdown"])
def test_fused_velocity_at_256_squared_matches_the_generic_path(op_kind, k_steps,
                                                                field_kind):
    # At 256^2 a real half-spectrum is past numpy's 256 KiB threshold for
    # reusing temporaries in place, so this is where the fused closure's
    # in-place buffers meet numpy's own: the result must match the
    # pass-by-pass route, repeat bit for bit, and write neither z, y nor
    # the unconditional velocity (read-only here, as a field may cache it).
    shape = (256, 256)
    if op_kind == "circconv":
        op = CircConvOperator(build_gaussian_kernel(9, 1.5), shape)
    else:
        op = ConvDownsampleOperator(build_bicubic_kernel(2), shape, 2)
    rng = make_rng(41)
    field = AnalyticGaussianField(sigma_latr=0.5)
    if field_kind != "analytic":
        field = CallbackField(lambda z, t, s=field.scalar: _read_only(s(t) * z),
                              surrogate_sigma_latr=0.5)
    dec = IdentityDecoder(shape)
    y = rng.normal(size=op.output_shape)
    z = rng.normal(size=shape)
    y.flags.writeable = False
    z.flags.writeable = False
    spec = GuidanceSpec(sigma_y=0.01, k_steps=k_steps)
    velocity = make_velocity(spec, field, dec, op, y)
    for t in (0.2, 0.5, 0.8):
        want = corrected_velocity(spec, field, dec, op, y, z, t)
        got = velocity(z, t)
        err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
        assert err < 1e-12, (t, err)
        assert np.array_equal(velocity(z, t), got)


@pytest.mark.parametrize("k_steps", [1, 2])
@pytest.mark.parametrize("op_kind", ["mask", "circconv", "convdown"])
def test_closed_form_gain_is_built_once_per_time(op_kind, k_steps, monkeypatch):
    real_cov_fn = lflow.guidance.posterior_cov_fn
    cov_times = []

    def counting_cov_fn(mode, field):
        cov = real_cov_fn(mode, field)

        def counted(t):
            cov_times.append(t)
            return cov(t)
        return counted

    monkeypatch.setattr(lflow.guidance, "posterior_cov_fn", counting_cov_fn)
    rng = make_rng(40)
    op = make_operator(op_kind, rng)
    field = AnalyticGaussianField(sigma_latr=0.5)
    dec = IdentityDecoder(op.input_shape)
    y = rng.normal(size=op.output_shape)
    z1, z2 = rng.normal(size=(2,) + op.input_shape)
    spec = GuidanceSpec(sigma_y=0.05, k_steps=k_steps)
    velocity = make_velocity(spec, field, dec, op, y)
    velocity(z1, 0.6)
    got = velocity(z2, 0.6)
    assert cov_times == [0.6]
    assert np.array_equal(got, make_velocity(spec, field, dec, op, y)(z2, 0.6))
    velocity(z2, 0.5)
    assert cov_times == [0.6, 0.6, 0.5]


def test_fused_path_honors_the_literal_update_flag():
    rng = make_rng(16)
    a = DenseOperator(rng.normal(size=(4, 6)))
    field = AnalyticGaussianField(sigma_latr=1.0)
    dec = IdentityDecoder((6,))
    y = rng.normal(size=4)
    spec = GuidanceSpec(sigma_y=0.05, k_steps=2, literal_update=True)
    fast = make_velocity(spec, field, dec, a, y)
    z = rng.normal(size=6)
    want = corrected_velocity(spec, field, dec, a, y, z, 0.7)
    np.testing.assert_allclose(fast(z, 0.7), want, atol=1e-7, rtol=1e-7)


def test_make_velocity_generic_fallback_for_structured_operators():
    # Structured operators no longer fall back to the per-pass route; the
    # fused closure must still reproduce it for a circular convolution.
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (6, 6))
    field = AnalyticGaussianField(sigma_latr=0.5)
    dec = IdentityDecoder((6, 6))
    y = make_rng(17).normal(size=(6, 6))
    spec = GuidanceSpec(sigma_y=0.1)
    velocity = make_velocity(spec, field, dec, op, y)
    z = make_rng(18).normal(size=(6, 6))
    np.testing.assert_allclose(
        velocity(z, 0.4), corrected_velocity(spec, field, dec, op, y, z, 0.4), atol=1e-14
    )


def test_guidance_spec_validation():
    with pytest.raises(ValueError):
        GuidanceSpec(sigma_y=-0.1)
    with pytest.raises(ValueError):
        GuidanceSpec(k_steps=0)
    with pytest.raises(ValueError):
        ConjugateGradientSolver(max_iter=0)
    with pytest.raises(ValueError):
        ConjugateGradientSolver(tol=0.0)
