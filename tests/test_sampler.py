"""Tests for initialization, the three steppers, and run bookkeeping.

The linear field has a closed-form flow (z(t) scales with the marginal
standard deviation), which pins the integrator order checks without a
brute-force reference run. The prior-matching check batches ten thousand
independent trajectories as rows of one state array; with a fixed-step
stepper and a purely elementwise velocity the rows never interact, so
the batch is distributionally identical to separate runs.
"""

import csv
import functools
import tracemalloc

import numpy as np
import pytest

import lflow.numerics
import lflow.operators
import lflow.sampler
from lflow.decoders import DiagonalScaleDecoder, IdentityDecoder, encode, latent_operator
from lflow.errors import (
    MaxStepsExceededError,
    NonFiniteError,
    ShapeMismatchError,
    StepUnderflowError,
)
from lflow.fields import AnalyticGaussianField, CallbackField, CovarianceMode, posterior_mean
from lflow.guidance import ConjugateGradientSolver, GuidanceSpec, corrected_velocity
from lflow.numerics import gaussian_vector, make_rng
from lflow.operators import (
    CircConvOperator,
    ConvDownsampleOperator,
    DenseOperator,
    MaskOperator,
    build_bicubic_kernel,
    build_gaussian_kernel,
)
from lflow.sampler import (
    TRAJECTORY_COLUMNS,
    AdaptiveHeunSolver,
    EulerSolver,
    HeunSolver,
    SamplerConfig,
    Trajectory,
    final_denoise,
    init_state,
    inpaint_splice,
    integrate,
    sample_posterior,
)
from lflow.schedule import PathSchedule
from lflow.tasks import default_task_config, degrade, reconstruct, resolve_truth


class PinnedRng:
    """Stand-in generator whose single draw is a fixed vector."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self.values.reshape(size)


def marginal_std(sigma: float, t: float) -> float:
    return float(np.sqrt((1.0 - t) ** 2 * sigma * sigma + t * t))


def quiet_guidance() -> GuidanceSpec:
    # Noise floor so high the measurement pull is numerically nil.
    return GuidanceSpec(sigma_y=1e12, k_steps=1)


def test_init_blends_encoded_measurement_with_noise():
    config = SamplerConfig(t_s=0.8)
    dec = IdentityDecoder((2,))
    op = DenseOperator(np.eye(2))
    z = init_state(config, dec, op, np.array([1.0, 0.0]), PinnedRng([0.0, 1.0]))
    np.testing.assert_allclose(z, [0.2, 0.8], atol=1e-9)


def test_init_limits_recover_encoding_and_noise():
    dec = IdentityDecoder((2,))
    op = DenseOperator(np.eye(2))
    y = np.array([1.0, 0.0])
    rng = PinnedRng([0.0, 1.0])
    schedule = PathSchedule()
    low = SamplerConfig(t_s=schedule.t_min * 1.001)
    z = init_state(low, dec, op, y, rng)
    np.testing.assert_allclose(z, y, atol=2e-3)
    high = SamplerConfig(t_s=schedule.t_max)
    z = init_state(high, dec, op, y, rng)
    np.testing.assert_allclose(z, [0.0, 1.0], atol=2e-3)


def test_init_pure_noise_ignores_the_measurement():
    config = SamplerConfig(init_mode="pure-noise", seed=0)
    dec = IdentityDecoder((3,))
    op = DenseOperator(np.eye(3))
    rng = make_rng(5)
    z = init_state(config, dec, op, np.array([9.0, 9.0, 9.0]), rng)
    np.testing.assert_array_equal(z, gaussian_vector(make_rng(5), (3,)))


def test_init_zero_fills_masked_measurements():
    mask = np.zeros((2, 2))
    mask[0, 0] = 1.0
    op = MaskOperator(mask)
    dec = IdentityDecoder((2, 2))
    config = SamplerConfig(t_s=0.5)
    y = np.array([4.0])
    z = init_state(config, dec, op, y, PinnedRng(np.zeros(4)))
    lifted = op.adjoint(y)
    expected = 0.5 * encode(dec, lifted)
    np.testing.assert_allclose(z, expected, atol=1e-12)


def test_init_upsample_lift_preserves_the_mean_level():
    op = ConvDownsampleOperator(build_bicubic_kernel(2), (8, 8), 2)
    dec = IdentityDecoder((8, 8))
    level = 0.37
    y = op.apply(np.full((8, 8), level))
    config = SamplerConfig(t_s=0.5)
    z = init_state(config, dec, op, y, PinnedRng(np.zeros(64)))
    # z = 0.5 * encode(lift(y)); the s^2-scaled adjoint keeps the mean.
    assert float(z.mean()) == pytest.approx(0.5 * level, abs=1e-9)


def test_init_passthrough_for_shape_preserving_operators():
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (4, 4))
    dec = IdentityDecoder((4, 4))
    y = make_rng(6).normal(size=(4, 4))
    config = SamplerConfig(t_s=0.5)
    z = init_state(config, dec, op, y, PinnedRng(np.zeros(16)))
    np.testing.assert_allclose(z, 0.5 * encode(dec, y), atol=1e-12)


def test_init_state_lifts_each_operator_kind_by_its_formula():
    # Start states are pinned bit for bit: mask -> adjoint, conv-downsample
    # -> s^2 adjoint, shape-preserving -> y, any other dense -> adjoint.
    rng = make_rng(11)
    mask = np.ones((6, 6))
    mask[2:4, 1:5] = 0.0
    masked = MaskOperator(mask)
    down = ConvDownsampleOperator(build_bicubic_kernel(3), (12, 12), 3)
    conv = CircConvOperator(build_gaussian_kernel(3, 1.0), (6, 6))
    square = DenseOperator(rng.normal(size=(8, 8)))
    rect = DenseOperator(rng.normal(size=(5, 8)))
    cases = [
        (masked, masked.adjoint),
        (down, lambda y: 9.0 * down.adjoint(y)),
        (conv, lambda y: y),
        (square, lambda y: y),
        (rect, rect.adjoint),
    ]
    config = SamplerConfig(t_s=0.7)
    for seed, (op, formula) in enumerate(cases):
        dec = IdentityDecoder(op.input_shape)
        y = rng.normal(size=op.output_shape)
        z = init_state(config, dec, op, y, make_rng(seed))
        z1 = gaussian_vector(make_rng(seed), op.input_shape)
        expected = config.schedule.interpolate(encode(dec, formula(y)), z1, 0.7)
        np.testing.assert_array_equal(z, expected)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(t_s=1e-3)
    with pytest.raises(ValueError):
        SamplerConfig(t_s=0.9999)
    with pytest.raises(ValueError):
        SamplerConfig(init_mode="bootstrap")


def test_solver_parameter_validation():
    with pytest.raises(ValueError):
        EulerSolver(steps=0)
    with pytest.raises(ValueError):
        HeunSolver(steps=-1)
    with pytest.raises(ValueError):
        AdaptiveHeunSolver(atol=0.0)
    with pytest.raises(ValueError):
        AdaptiveHeunSolver(h_min=0.0)
    with pytest.raises(ValueError):
        AdaptiveHeunSolver(h_init=-0.5)
    with pytest.raises(ValueError):
        AdaptiveHeunSolver(max_steps=0)


def test_a_first_step_below_h_min_is_blamed_on_the_value_that_set_it():
    with pytest.raises(ValueError, match=r"^h_min = 1\.0 exceeds the first adaptive step "
                                         r"0\.01598, \(t_s - t_min\) / 50$"):
        SamplerConfig(solver=AdaptiveHeunSolver(h_min=1.0))
    with pytest.raises(ValueError, match=r"^h_init = 0\.001 makes the first adaptive step "
                                         r"0\.001, below h_min = 0\.002$"):
        SamplerConfig(solver=AdaptiveHeunSolver(h_init=1e-3, h_min=2e-3))


def test_an_h_init_clipped_to_the_span_leaves_h_min_to_blame():
    # t_s - t_min = 0.799 at t_s = 0.8: a larger h_init is clipped to it, so
    # no h_init can lift the first step to h_min = 1.0.
    with pytest.raises(ValueError, match=r"^h_min = 1\.0 exceeds the first adaptive step "
                                         r"0\.799, the whole span t_s - t_min$"):
        SamplerConfig(solver=AdaptiveHeunSolver(h_init=5.0, h_min=1.0))


def test_h_min_above_the_first_adaptive_step_fails_before_any_evaluation():
    # The first step is (t_s - t_min) / 50 = 0.01598 at t_s = 0.8, or h_init.
    dec = IdentityDecoder((2, 2))
    op = MaskOperator(np.ones((2, 2)))
    calls = []
    field = CallbackField(lambda z, t: calls.append(t) or np.zeros_like(z))
    for solver in (AdaptiveHeunSolver(h_min=1.0), AdaptiveHeunSolver(h_min=0.02),
                   AdaptiveHeunSolver(h_init=1e-3, h_min=2e-3)):
        with pytest.raises(ValueError, match="h_min"):
            sample_posterior(SamplerConfig(solver=solver, guidance=quiet_guidance()),
                             field, dec, op, np.zeros(4))
    assert calls == []
    # At the first step itself the run starts; a fixed grid takes any span.
    span = 0.8 - PathSchedule().t_min
    for solver in (AdaptiveHeunSolver(h_min=span / 50), EulerSolver(steps=1)):
        sample_posterior(SamplerConfig(solver=solver, guidance=quiet_guidance()),
                         field, dec, op, np.zeros(4))
    assert calls


def small_problem(sigma=1.0, seed=3):
    rng = make_rng(seed)
    op = DenseOperator(rng.normal(size=(3, 4)))
    field = AnalyticGaussianField(sigma_latr=sigma)
    dec = IdentityDecoder((4,))
    y = rng.normal(size=3)
    return field, dec, op, y


def test_identical_config_and_seed_reproduce_bits():
    field, dec, op, y = small_problem()
    config = SamplerConfig(seed=11, guidance=GuidanceSpec(sigma_y=0.1))
    za, ta = sample_posterior(config, field, dec, op, y, record_trace=True)
    zb, tb = sample_posterior(config, field, dec, op, y, record_trace=True)
    np.testing.assert_array_equal(za, zb)
    assert ta.nfe == tb.nfe
    assert ta.times == tb.times


def test_fixed_step_evaluation_counts():
    # Every fixed step is an accepted step. The endpoints are pinned so that
    # the shared grid loop must keep z + h f and z + (h/2)(k1 + k2) exactly.
    field, dec, op, y = small_problem()
    euler = SamplerConfig(solver=EulerSolver(steps=23), guidance=quiet_guidance())
    z, traj = integrate(euler, field, dec, op, y, make_rng(0), record_trace=True)
    assert traj.nfe == traj.accepted == 23
    assert len(traj.times) == traj.accepted + 1
    np.testing.assert_allclose(
        z, [0.26651705820726107, -0.7388263596110018, 0.8281605202114826, 0.2577051001279371],
        rtol=0.0, atol=1e-13,
    )
    heun = SamplerConfig(solver=HeunSolver(steps=23), guidance=quiet_guidance())
    z, traj = integrate(heun, field, dec, op, y, make_rng(0), record_trace=True)
    assert traj.nfe == 2 * traj.accepted == 46
    assert len(traj.times) == traj.accepted + 1
    np.testing.assert_allclose(
        z, [0.2771651154195225, -0.7683444152280903, 0.8612477104253644, 0.26800109644619097],
        rtol=0.0, atol=1e-13,
    )


def test_fixed_step_solvers_keep_their_own_identity():
    # Euler and Heun share their base's fields and grid loop, not equality or repr.
    assert EulerSolver(steps=5) != HeunSolver(steps=5)
    assert repr(EulerSolver(steps=5)) == "EulerSolver(steps=5)"
    assert repr(HeunSolver(steps=5)) == "HeunSolver(steps=5)"
    with pytest.raises(ValueError, match="steps must be >= 1"):
        HeunSolver(steps=0)


def test_adaptive_run_is_pinned():
    # Counts and endpoint of one adaptive run (one rejection included),
    # pinned so that a rewrite of the step loop must keep its arithmetic.
    field, dec, op, y = small_problem()
    config = SamplerConfig(guidance=GuidanceSpec(sigma_y=0.1))
    z, traj = integrate(config, field, dec, op, y, make_rng(5))
    assert (traj.nfe, traj.accepted, traj.rejected) == (745, 372, 1)
    np.testing.assert_allclose(
        z, [-0.6865393050241806, -1.3720785794420605, 0.2041404023189987, 0.509066216796141],
        rtol=0.0, atol=1e-13,
    )


def _read_only(arr):
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


def _conv_problem():
    # A circular convolution, whose closed-form runs carry the coefficients.
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (8, 8))
    y = make_rng(105).normal(size=op.output_shape)
    return AnalyticGaussianField(sigma_latr=1.0), IdentityDecoder(op.input_shape), op, y


@pytest.mark.parametrize("problem", ["dense", "circconv"])
def test_adaptive_run_never_writes_its_stages_or_state(problem, monkeypatch):
    # Read-only velocities, coefficients and start state: any in-place write
    # to k1, k2, their coefficients, an accepted state or its coefficients
    # raises. The run must still take its rejection and land on the bits of
    # an unguarded run. The dense run carries no coefficients, the
    # convolution's does.
    field, dec, op, y = small_problem() if problem == "dense" else _conv_problem()
    config = SamplerConfig(guidance=GuidanceSpec(sigma_y=0.1))
    z_free, traj_free = integrate(config, field, dec, op, y, make_rng(5))
    real_make_velocity = lflow.sampler.make_velocity
    real_init_state = lflow.sampler.init_state
    carried = []

    def frozen_make_velocity(*args):
        velocity = real_make_velocity(*args)

        def frozen(z, t, zc=None):
            if zc is None:
                return _read_only(velocity(z, t))
            carried.append(t)
            return tuple(map(_read_only, velocity(z, t, zc)))

        frozen.coeffs = (None if velocity.coeffs is None
                         else lambda z: _read_only(velocity.coeffs(z)))
        return frozen

    monkeypatch.setattr(lflow.sampler, "make_velocity", frozen_make_velocity)
    monkeypatch.setattr(lflow.sampler, "init_state",
                        lambda *args: _read_only(real_init_state(*args)))
    z, traj = integrate(config, field, dec, op, y, make_rng(5))
    assert traj.rejected >= 1
    assert len(carried) == (traj.nfe if problem == "circconv" else 0)
    assert (traj.nfe, traj.accepted, traj.rejected) == (
        traj_free.nfe, traj_free.accepted, traj_free.rejected)
    np.testing.assert_array_equal(z, z_free)


def _carry_operator(kind):
    shape = (12, 12)
    if kind == "circconv":
        return CircConvOperator(build_gaussian_kernel(3, 1.0), shape)
    if kind.startswith("convdown"):
        factor = int(kind[-1])
        return ConvDownsampleOperator(build_bicubic_kernel(factor), shape, factor)
    if kind == "mask":
        mask = np.ones(shape)
        mask[3:8, 4:10] = 0.0
        return MaskOperator(mask)
    return DenseOperator(make_rng(70).normal(size=(20, 144)) / 12.0, input_shape=shape)


@pytest.mark.parametrize("field_kind", ["analytic", "callback"])
@pytest.mark.parametrize("stepper", ["adaptive-heun", "heun", "euler"])
@pytest.mark.parametrize("scale", [1.0, 0.7])
@pytest.mark.parametrize("kind", ["circconv", "convdown2", "convdown3", "mask", "dense"])
def test_a_carried_run_steps_like_the_stateless_reference(kind, scale, stepper,
                                                          field_kind, monkeypatch):
    # Against a run whose every NFE is corrected_velocity, pass by pass and
    # from the state alone: the same counts, endpoints within 1e-12, and,
    # where the run carries B_hat z, a final carried B_hat z within 1e-12 of
    # B_hat z itself, so the carried coefficients do not drift from the state.
    op = _carry_operator(kind)
    dec = DiagonalScaleDecoder(scale, op.input_shape)
    b = latent_operator(op, dec)
    field = AnalyticGaussianField(sigma_latr=0.8)
    if field_kind == "callback":
        field = CallbackField(lambda z, t, s=field.scalar: s(t) * z + 0.1 * np.sin(z),
                              surrogate_sigma_latr=0.8)
    y = 0.5 * make_rng(71).normal(size=op.output_shape)
    solver = {"adaptive-heun": AdaptiveHeunSolver(atol=1e-4, rtol=1e-4),
              "heun": HeunSolver(steps=12), "euler": EulerSolver(steps=12)}[stepper]
    ends = []
    real_run = type(solver).run

    def recording_run(self, *args):
        ends.append(real_run(self, *args))
        return ends[-1]

    monkeypatch.setattr(type(solver), "run", recording_run)
    for k_steps in (1, 2, 3):
        spec = GuidanceSpec(sigma_y=0.05, k_steps=k_steps)
        config = SamplerConfig(solver=solver, guidance=spec, seed=3)
        z, traj = sample_posterior(config, field, dec, op, y)
        z_end, zc_end = ends[-1]
        with monkeypatch.context() as m:
            m.setattr(lflow.sampler, "make_velocity",
                      lambda *args: lambda z, t: corrected_velocity(*args, z, t))
            z_ref, traj_ref = sample_posterior(config, field, dec, op, y)
        assert ends[-1][1] is None  # the reference carried nothing
        assert (traj.nfe, traj.accepted, traj.rejected) == (
            traj_ref.nfe, traj_ref.accepted, traj_ref.rejected), k_steps
        err = float(np.max(np.abs(z - z_ref))) / float(np.max(np.abs(z_ref)))
        assert err < 1e-12, (k_steps, err)
        if kind in ("mask", "dense"):
            assert zc_end is None
            continue
        want = b.apply_coeffs(z_end)
        drift = float(np.max(np.abs(zc_end - want))) / float(np.max(np.abs(want)))
        assert drift < 1e-12, (k_steps, drift)


def _transform_events(monkeypatch):
    """Log each private transform ("fwd", "inv") and each velocity call
    ("nfe") of the runs that follow, in order. The checked forward goes
    through the private one, so the measurement's transform is logged too."""
    events = []
    for module in (lflow.numerics, lflow.operators):
        for name, tag in (("_rdft2", "fwd"), ("_irdft2", "inv")):
            real = getattr(module, name)

            def logged(*args, _real=real, _tag=tag):
                events.append(_tag)
                return _real(*args)

            monkeypatch.setattr(module, name, logged)
    real_make_velocity = lflow.sampler.make_velocity

    def logging_make_velocity(*args):
        velocity = real_make_velocity(*args)

        @functools.wraps(velocity)
        def logged(*call_args):
            events.append("nfe")
            return velocity(*call_args)
        return logged

    monkeypatch.setattr(lflow.sampler, "make_velocity", logging_make_velocity)
    return events


def _per_nfe(events):
    """The events before the first evaluation, and those of each evaluation."""
    start, *evaluations = " ".join(events).split("nfe")
    return start.split(), [e.split() for e in evaluations]


@pytest.mark.parametrize("field_kind", ["analytic", "callback"])
@pytest.mark.parametrize("task", ["gaussian-deblur", "super-resolution"])
def test_a_closed_form_convolution_run_transforms_forward_only_at_its_start(
        task, field_kind, monkeypatch):
    # The run carries B_hat z: with the Gaussian field an NFE is one inverse
    # transform and no forward one, and the forwards (the measurement's and
    # the start state's; super-resolution also lifts y through the adjoint)
    # come before the first NFE. A callback field pays one forward per NFE
    # for its velocity's coefficients.
    cfg = default_task_config(task, size=64, seed=0)
    op, _ = cfg.build_operator()
    y = degrade(cfg) - 0.5
    field = cfg.field
    if field_kind == "callback":
        field = CallbackField(lambda z, t, s=field.scalar: s(t) * z,
                              surrogate_sigma_latr=field.sigma_latr)
    events = _transform_events(monkeypatch)
    _, traj = sample_posterior(cfg.sampler, field, cfg.decoder, op, y)
    start, evaluations = _per_nfe(events)
    lift = ["fwd", "inv"] if task == "super-resolution" else []
    assert start == ["fwd"] + lift + ["fwd"]
    per_nfe = ["inv"] if field_kind == "analytic" else ["fwd", "inv"]
    assert len(evaluations) == traj.nfe > 100
    assert all(e == per_nfe for e in evaluations)


@pytest.mark.parametrize("kind", ["mask", "dense"])
def test_mask_and_dense_runs_step_the_state_alone(kind, monkeypatch):
    # No coefficients are carried: each NFE is the stateless velocity(z, t),
    # one apply_coeffs and one adjoint_coeffs.
    op = _carry_operator(kind)
    field, dec = AnalyticGaussianField(sigma_latr=0.8), IdentityDecoder(op.input_shape)
    y = 0.5 * make_rng(72).normal(size=op.output_shape)
    calls = []
    for member in ("apply_coeffs", "adjoint_coeffs"):
        real = getattr(type(op), member)

        def counted(self, arg, _real=real, _member=member):
            calls.append(_member)
            return _real(self, arg)

        monkeypatch.setattr(type(op), member, counted)
    arities = []
    real_make_velocity = lflow.sampler.make_velocity

    def recording_make_velocity(*args):
        velocity = real_make_velocity(*args)
        assert velocity.coeffs is None

        def recorded(*call_args):
            arities.append(len(call_args))
            return velocity(*call_args)
        return recorded

    monkeypatch.setattr(lflow.sampler, "make_velocity", recording_make_velocity)
    config = SamplerConfig(guidance=GuidanceSpec(sigma_y=0.05), seed=2)
    _, traj = sample_posterior(config, field, dec, op, y)
    assert arities == [2] * traj.nfe
    assert calls == ["apply_coeffs", "adjoint_coeffs"] * traj.nfe


def test_a_256_squared_deblur_run_stays_within_its_memory_guard():
    # Carrying B_hat z costs a half-spectrum per carried array; the stepper
    # releases each attempt's stages before the next evaluation, so the
    # run's tracemalloc peak stays at or below 7.8 MiB, what it was before
    # the coefficients were carried.
    cfg = default_task_config("gaussian-deblur", size=256, seed=1)
    x_true = resolve_truth(cfg)
    y = degrade(cfg, x_true)
    tracemalloc.start()
    try:
        _, report = reconstruct(cfg, y, x_true=x_true)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status == "ok"
    assert peak <= 7.8 * 2**20, peak / 2**20


def test_adaptive_evaluation_accounting():
    field, dec, op, y = small_problem()
    config = SamplerConfig(
        solver=AdaptiveHeunSolver(atol=1e-7, rtol=1e-7),
        guidance=GuidanceSpec(sigma_y=0.1),
    )
    _, traj = integrate(config, field, dec, op, y, make_rng(1), record_trace=True)
    # One bootstrap evaluation, one trial stage per attempt, and a fresh
    # first stage after every accepted step except the last.
    assert traj.nfe == 2 * traj.accepted + traj.rejected
    assert traj.accepted > 0
    assert len(traj.times) == traj.accepted + 1


def test_trajectory_times_decrease_from_start_to_t_min():
    field, dec, op, y = small_problem()
    config = SamplerConfig(guidance=GuidanceSpec(sigma_y=0.1))
    _, traj = integrate(config, field, dec, op, y, make_rng(2), record_trace=True)
    times = traj.times
    assert times[0] == config.t_s
    assert times[-1] == config.schedule.t_min
    assert all(b < a for a, b in zip(times, times[1:]))
    assert all(b >= a for a, b in zip(traj.nfe_cumulative, traj.nfe_cumulative[1:]))


def test_tightening_tolerances_never_lowers_the_evaluation_count():
    field, dec, op, y = small_problem()
    counts = []
    for tol in (1e-3, 1e-5, 1e-7):
        config = SamplerConfig(
            solver=AdaptiveHeunSolver(atol=tol, rtol=tol),
            guidance=GuidanceSpec(sigma_y=0.1),
        )
        _, traj = integrate(config, field, dec, op, y, make_rng(3))
        counts.append(traj.nfe)
    assert counts[0] <= counts[1] <= counts[2]


def endpoint_error(solver, sigma=0.6):
    """Endpoint error of the pure prior flow against its closed form."""
    schedule = PathSchedule(t_min=0.1, t_max=1.0 - 1e-3)
    config = SamplerConfig(
        t_s=0.9,
        solver=solver,
        guidance=quiet_guidance(),
        init_mode="pure-noise",
        seed=7,
        schedule=schedule,
    )
    field = AnalyticGaussianField(sigma_latr=sigma)
    dec = IdentityDecoder((2, 2))
    op = MaskOperator(np.ones((2, 2)))

    # One fixed draw shared across resolutions.
    z0 = gaussian_vector(make_rng(7), (2, 2))
    exact = z0 * marginal_std(sigma, 0.1) / marginal_std(sigma, 0.9)
    z, _ = integrate(config, field, dec, op, np.zeros(4), make_rng(7))
    return float(np.linalg.norm(z - exact))


def test_heun_halving_shows_second_order_decay():
    coarse = endpoint_error(HeunSolver(steps=40))
    fine = endpoint_error(HeunSolver(steps=80))
    assert 3.3 <= coarse / fine <= 4.7


def test_euler_halving_shows_first_order_decay():
    coarse = endpoint_error(EulerSolver(steps=40))
    fine = endpoint_error(EulerSolver(steps=80))
    assert 1.7 <= coarse / fine <= 2.3


def test_unguided_endpoints_match_the_prior_marginal():
    # 10^4 independent trajectories batched as rows: the velocity is
    # elementwise and the stepper is fixed-step, so rows never couple.
    n, d, sigma = 10_000, 2, 1.0
    field = AnalyticGaussianField(sigma_latr=sigma)
    dec = IdentityDecoder((n, d))
    op = MaskOperator(np.ones((n, d)))
    schedule = PathSchedule()
    config = SamplerConfig(
        t_s=schedule.t_max,
        solver=HeunSolver(steps=80),
        guidance=quiet_guidance(),
        init_mode="pure-noise",
        seed=21,
    )
    z, _ = integrate(config, field, dec, op, np.zeros(n * d), make_rng(21))
    target_var = marginal_std(sigma, schedule.t_min) ** 2
    assert np.max(np.abs(z.mean(axis=0))) < 0.05
    assert np.max(np.abs(z.var(axis=0, ddof=1) - target_var)) < 0.05


def test_final_denoise_closed_form_and_small_time_limit():
    field = AnalyticGaussianField(sigma_latr=1.0)
    z = np.array([1.0, 0.0])
    t = 1e-3
    c = (1 - t) / ((1 - t) ** 2 + t * t)
    np.testing.assert_allclose(final_denoise(field, z, t), c * z, atol=1e-15)
    assert c == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("field", [AnalyticGaussianField(sigma_latr=0.3),
                                   CallbackField(lambda z, t: np.tanh(z) - z)],
                         ids=["analytic", "callback"])
def test_final_denoise_is_the_fields_posterior_mean(field):
    z = make_rng(40).normal(size=(3, 5))
    for t in (1e-3, 0.2, 0.7):
        want = field.velocity_and_mean(z, t)[1]
        np.testing.assert_array_equal(final_denoise(field, z, t), want)
        np.testing.assert_array_equal(posterior_mean(field, z, t), want)


def test_final_denoise_stays_within_the_residual_scale():
    field, dec, op, y = small_problem()
    config = SamplerConfig(guidance=GuidanceSpec(sigma_y=0.1))
    z, _ = integrate(config, field, dec, op, y, make_rng(4))
    t_min = config.schedule.t_min
    denoised = final_denoise(field, z, t_min)
    # The one-step gap closure moves the state by at most a few residual
    # standard deviations; r(t_min) is about sigma * t_min here.
    r = np.sqrt(t_min**2 * 1.0 / ((1 - t_min) ** 2 + t_min**2))
    assert float(np.linalg.norm(denoised - z)) < 10.0 * r


def test_splice_keeps_observed_pixels_and_fills_the_rest():
    mask = np.ones((4, 4))
    mask[1:3, 1:3] = 0.0
    y0 = np.full((4, 4), 2.0) * mask
    decoded = np.full((4, 4), 7.0)
    out = inpaint_splice(mask, y0, decoded)
    np.testing.assert_array_equal(out[1:3, 1:3], np.full((2, 2), 7.0))
    np.testing.assert_array_equal(out[0, :], np.full(4, 2.0))


def test_splice_degenerate_masks():
    y0 = make_rng(8).normal(size=(3, 3))
    decoded = make_rng(9).normal(size=(3, 3))
    np.testing.assert_array_equal(inpaint_splice(np.ones((3, 3)), y0, decoded), y0)
    np.testing.assert_array_equal(inpaint_splice(np.zeros((3, 3)), y0, decoded), decoded)


def test_splice_rejects_mismatched_shapes():
    with pytest.raises(ShapeMismatchError):
        inpaint_splice(np.ones((2, 2)), np.zeros((2, 2)), np.zeros((3, 3)))


def test_exploding_state_raises_instead_of_returning():
    field = CallbackField(lambda z, t: z * 1e160)
    dec = IdentityDecoder((2, 2))
    op = MaskOperator(np.ones((2, 2)))
    config = SamplerConfig(solver=EulerSolver(steps=10), guidance=quiet_guidance())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            integrate(config, field, dec, op, np.zeros(4), make_rng(10))


def test_non_finite_velocity_raises_instead_of_underflowing():
    # NaN stages make the error estimate NaN; that is a failed run, not a
    # rejection that shrinks h down to the underflow floor.
    def field_fn(z, t):
        return np.full_like(z, np.nan) if t <= 0.5 else -z

    dec = IdentityDecoder((2, 2))
    op = MaskOperator(np.ones((2, 2)))
    config = SamplerConfig(
        guidance=GuidanceSpec(cov_mode=CovarianceMode(kind="zero"), sigma_y=1.0)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="velocity became non-finite") as info:
            integrate(config, CallbackField(field_fn), dec, op, np.zeros(4), make_rng(0),
                      record_trace=True)
    traj = info.value.trajectory
    # Beyond a finished run's count: the first stage after the last
    # accepted step and the failed step's trial stage.
    assert traj.nfe == 2 * traj.accepted + traj.rejected + 2
    assert traj.times[-1] > 0.5
    t_failed = float(str(info.value).rsplit("t=", 1)[1])
    assert t_failed <= 0.5


def test_an_untraced_run_keeps_its_counters_and_fills_no_trace():
    field, dec, op, y = small_problem()
    config = SamplerConfig(guidance=GuidanceSpec(sigma_y=0.1))
    z, traj = integrate(config, field, dec, op, y, make_rng(2))
    z_traced, traced = integrate(config, field, dec, op, y, make_rng(2), record_trace=True)
    np.testing.assert_array_equal(z, z_traced)
    counters = ("nfe", "accepted", "rejected", "clamp_events", "t_last")
    assert [getattr(traj, c) for c in counters] == [getattr(traced, c) for c in counters]
    assert traj.accepted > 0 and traj.rejected > 0
    assert traj.t_last == traced.times[-1] == config.schedule.t_min
    assert len(traced.residual_norms) == traj.accepted + 1
    assert traj.times == traj.nfe_cumulative == traj.state_norms == traj.residual_norms == []

    # A NaN velocity still fails the untraced run, adaptive or fixed-step,
    # and the error carries the counters of the steps before it.
    def field_fn(z, t):
        return np.full_like(z, np.nan) if t <= 0.5 else -z

    dec = IdentityDecoder((2, 2))
    op = MaskOperator(np.ones((2, 2)))
    guidance = GuidanceSpec(cov_mode=CovarianceMode(kind="zero"), sigma_y=1.0)
    for solver, message in ((AdaptiveHeunSolver(), "velocity became non-finite"),
                            (EulerSolver(steps=10), "state became non-finite")):
        config = SamplerConfig(solver=solver, guidance=guidance)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteError, match=message) as info:
                integrate(config, CallbackField(field_fn), dec, op, np.zeros(4), make_rng(0))
        failed = info.value.trajectory
        t_failed = float(str(info.value).rsplit("t=", 1)[1])
        assert failed.accepted > 0 and t_failed <= 0.5
        assert t_failed < failed.t_last
        assert failed.times == failed.state_norms == []


def test_finite_state_whose_norm_overflows_is_recorded():
    # Every entry is finite but the squared norm is not: the run goes on
    # and records an infinite state norm.
    field = CallbackField(lambda z, t: np.full_like(z, -1e200))
    dec = IdentityDecoder((2, 2))
    op = MaskOperator(np.ones((2, 2)))
    config = SamplerConfig(solver=EulerSolver(steps=4), guidance=quiet_guidance())
    z, traj = integrate(config, field, dec, op, np.zeros(4), make_rng(0), record_trace=True)
    assert np.all(np.isfinite(z))
    assert traj.accepted == 4
    assert traj.state_norms[-1] == np.inf


def test_step_budget_exhaustion_carries_the_last_state():
    field, dec, op, y = small_problem()
    config = SamplerConfig(
        solver=AdaptiveHeunSolver(atol=1e-12, rtol=1e-12, max_steps=3),
        guidance=GuidanceSpec(sigma_y=0.1),
    )
    with pytest.raises(MaxStepsExceededError) as info:
        integrate(config, field, dec, op, y, make_rng(11))
    assert 0.0 < info.value.t <= 0.8
    assert np.all(np.isfinite(info.value.state))


def test_persistent_rejection_underflows_the_step():
    # A wildly oscillating velocity keeps the error estimate above one,
    # so the controller shrinks h until it hits the floor. At amplitude
    # 1e308 the finite stages' difference overflows: an infinite error
    # estimate from finite stages is still a rejection.
    dec = IdentityDecoder((2, 2))
    op = MaskOperator(np.ones((2, 2)))
    config = SamplerConfig(
        solver=AdaptiveHeunSolver(atol=1e-8, rtol=1e-8, h_min=1e-6),
        guidance=quiet_guidance(),
    )
    for amplitude in (1e9, 1e308):
        field = CallbackField(
            lambda z, t, a=amplitude: a * np.cos(1e9 * t) * np.ones_like(z)
        )
        with pytest.raises(StepUnderflowError):
            integrate(config, field, dec, op, np.zeros(4), make_rng(12))


def test_trajectory_csv_round_trip(tmp_path):
    field, dec, op, y = small_problem()
    config = SamplerConfig(guidance=GuidanceSpec(sigma_y=0.1))
    _, traj = integrate(config, field, dec, op, y, make_rng(13), record_trace=True)
    path = tmp_path / "trace.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRAJECTORY_COLUMNS
    assert len(rows) == len(traj.times) + 1
    np.testing.assert_allclose(
        [float(r[0]) for r in rows[1:]], traj.times, atol=0.0
    )
    np.testing.assert_allclose(
        [float(r[3]) for r in rows[1:]], traj.residual_norms, atol=0.0
    )


def test_trajectory_csv_leaves_residual_column_empty_when_not_recorded(tmp_path):
    traj = Trajectory(times=[0.8, 0.5], nfe_cumulative=[0, 2], state_norms=[1.0, 0.9])
    path = tmp_path / "trace.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][3] == ""


def _counting_field(sigma_latr: float = 0.5, nan_from: float | None = None):
    """A callback copy of the analytic field that counts its evaluations,
    and returns NaN at every t at or below `nan_from` when one is given."""
    scalar = AnalyticGaussianField(sigma_latr=sigma_latr).scalar
    calls = []

    def fn(z, t):
        calls.append(t)
        if nan_from is not None and t <= nan_from:
            return np.full_like(z, np.nan)
        return scalar(t) * z

    return CallbackField(fn, surrogate_sigma_latr=sigma_latr), calls


def _boundary_operator(kind: str, shape=(8, 8)):
    if kind == "mask":
        mask = np.ones(shape)
        mask[2:5, 3:6] = 0.0
        return MaskOperator(mask)
    if kind == "circconv":
        return CircConvOperator(build_gaussian_kernel(3, 1.0), shape)
    if kind == "convdown":
        return ConvDownsampleOperator(build_bicubic_kernel(2), shape, 2)
    return DenseOperator(make_rng(50).normal(size=(12, shape[0] * shape[1])),
                         input_shape=shape)


@pytest.mark.parametrize("init_mode", ["pure-noise", "encoded-measurement"])
@pytest.mark.parametrize("solver", ["closed-form", "cg"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["mask", "circconv", "convdown", "dense"])
def test_a_non_finite_measurement_fails_the_run_before_its_first_evaluation(
        kind, bad, solver, init_mode):
    # The transforms inside an evaluation check nothing, so the run checks
    # y once, by name, before the field is ever called.
    op = _boundary_operator(kind)
    y = make_rng(51).normal(size=op.output_shape)
    y.flat[y.size // 2] = bad
    guidance = GuidanceSpec(sigma_y=0.05)
    if solver == "cg":
        guidance = GuidanceSpec(sigma_y=0.05, solver=ConjugateGradientSolver())
    config = SamplerConfig(guidance=guidance, init_mode=init_mode, seed=0)
    field, calls = _counting_field()
    with pytest.raises(NonFiniteError, match="measurement y"):
        sample_posterior(config, field, IdentityDecoder(op.input_shape), op, y)
    assert calls == []


@pytest.mark.parametrize("init_mode", ["pure-noise", "encoded-measurement"])
@pytest.mark.parametrize("solver", ["closed-form", "cg"])
@pytest.mark.parametrize("short", ["one entry", "one row short"])
@pytest.mark.parametrize("kind", ["mask", "circconv", "convdown", "dense"])
def test_a_mis_shaped_measurement_fails_the_run_before_its_first_evaluation(
        kind, short, solver, init_mode):
    # A single entry would broadcast against every residual, and a short y
    # would fail inside numpy; the run checks y's shape by name first.
    op = _boundary_operator(kind)
    shape = (1,) if short == "one entry" else (op.output_shape[0] - 1,) + op.output_shape[1:]
    y = make_rng(53).normal(size=shape)
    guidance = GuidanceSpec(sigma_y=0.05)
    if solver == "cg":
        guidance = GuidanceSpec(sigma_y=0.05, solver=ConjugateGradientSolver())
    config = SamplerConfig(guidance=guidance, init_mode=init_mode, seed=0)
    field, calls = _counting_field()
    with pytest.raises(ShapeMismatchError, match="measurement y"):
        sample_posterior(config, field, IdentityDecoder(op.input_shape), op, y)
    assert calls == []


@pytest.mark.parametrize("stepper", ["adaptive-heun", "heun", "cg"])
@pytest.mark.parametrize("kind", ["circconv", "convdown"])
def test_a_field_that_turns_nan_fails_the_run(kind, stepper):
    op = _boundary_operator(kind)
    y = make_rng(52).normal(size=op.output_shape)
    solver = HeunSolver(steps=8) if stepper == "heun" else AdaptiveHeunSolver()
    guidance = GuidanceSpec(sigma_y=0.05)
    if stepper == "cg":
        guidance = GuidanceSpec(sigma_y=0.05, solver=ConjugateGradientSolver())
    config = SamplerConfig(solver=solver, guidance=guidance, seed=0)
    field, calls = _counting_field(nan_from=0.5)
    with pytest.raises(NonFiniteError):
        sample_posterior(config, field, IdentityDecoder(op.input_shape), op, y)
    assert max(calls) > 0.5 >= min(calls)
