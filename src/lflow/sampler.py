"""Reverse-time ODE sampling of the corrected velocity field.

A run starts at t_s (default 0.8) from either a noised encoding of the
measurement or pure noise, integrates dz/dt = corrected_velocity(z, t)
down to t_min with one of three steppers, then closes the residual gap
to t = 0 with a single denoising step. Time decreases along the run;
under the noising-direction velocity convention that is exactly the
reverse flow, no sign flip needed.

Steppers: `integrate` calls the solver's own `run`, which steps the state
z and, beside it, its coefficients zc = B_hat z in the latent operator's
basis when the velocity's `coeffs` says the route carries them (the
closed form on the convolution class; see `lflow.guidance`). Each stage
is f(z, t, zc) -> (k, kc), and every state the stepper forms, z + h k1
and the Heun or Euler update, has its coefficients formed by the same
combination of zc and the stages' kc, so the velocity needs no forward
transform. The start state's coefficients cost one `apply_coeffs` per
run. Where the route carries none, zc and every kc are None and the
state steps alone, with the same bits as without them.

* `EulerSolver(steps)` / `HeunSolver(steps)`: fixed uniform grid; every
  step counts as accepted. Each defines only its `step`; the grid loop
  is their shared base's `run`.
* `AdaptiveHeunSolver`: Heun step with the embedded Euler estimate,
  componentwise error scale atol + rtol * |z|, RMS norm, accept when the
  scaled error is at most 1, step factor 0.9 * err^(-1/2) clamped to
  [0.2, 5.0]. The first stage is reused when a step is rejected, so NFE
  counts one evaluation per rejection and two per accepted step.

`SamplerConfig` asks its solver's `check_span` about the span t_s - t_min:
a fixed grid takes any span, and the adaptive solver rejects an h_min
above its first step, where a run would underflow at once.

Finiteness: a run never silently returns garbage. Every accepted state
is checked through the dot product of the state with itself, which is
the traced run's state norm; only when that is not finite does an
elementwise scan tell a NaN or Inf entry (NonFiniteError) from a finite
state whose squared norm overflows (the run goes on, and a trace records
an infinite norm). In the adaptive stepper a non-finite error estimate
whose stages hold a non-finite entry is a NonFiniteError naming the
stage's time, not a rejection; a finite stage pair whose error estimate
overflows stays a rejection. Since both overflows are handled, the
stepping loop runs under one np.errstate(over="ignore") per run, not one
per dot product.

The adaptive loop forms each attempt in `_heun_attempt`. From the one
difference k2 - k1 of an attempt it forms the Heun state z_euler +
(h/2)(k2 - k1) and the error |h/2| sqrt(sum(((k2 - k1) / scale)^2) / n),
the sum taken as one dot product. Each intermediate (trial state,
difference, Heun state, inverse scale 1 / (atol + rtol |z|)) is built in
place on its own fresh array. The loop never writes k1 or kc1, which a
rejected step reuses, or the accepted state z and zc, which the next
step reads and a solver error carries. Memory: the inverse scale is
built once per attempt, after the trial's evaluation, and the attempt's
arrays die when it returns, so an evaluation runs beside the accepted
state, its first stage and the Euler trial alone (with their
coefficients), and the start state's coefficients are not kept once the
run has moved on.

Trace: every run counts its evaluations, accepted and rejected steps and
clamp events, and keeps its last accepted time (`Trajectory.t_last`).
The per-point lists (times, cumulative NFE, state and residual norms)
are filled only when the caller asks for a trace (`record_trace`, which
`lflow sample --trajectory` sets); an untraced run appends nothing per
step.

Failures raise MaxStepsExceededError or StepUnderflowError, both
carrying the last good state; any error raised mid-run also carries the
partial trajectory, so its NFE is not lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .decoders import DecoderSpec, decode, encode
from .errors import (
    LflowError,
    MaxStepsExceededError,
    NonFiniteError,
    ShapeMismatchError,
    StepUnderflowError,
)
from .fields import VectorFieldSpec, posterior_mean
from .guidance import GuidanceSpec, make_velocity
from .numerics import RealField, SeededRng, as_field, dot, gaussian_vector, make_rng
from .operators import LinearOperatorDescriptor
from .schedule import PathSchedule

INIT_MODES = ("encoded-measurement", "pure-noise")

H_INIT_FRACTION = 50
TRAJECTORY_COLUMNS = ("t", "nfe_cumulative", "state_norm", "residual_norm")


@dataclass(frozen=True)
class _FixedStepSolver:
    """`steps` uniform steps from t_s to t_min, each a subclass's `step`."""

    steps: int = 100

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def check_span(self, span: float) -> None:
        """A uniform grid fits any span t_s - t_min."""

    def run(self, config, f, z, zc, t_min, rec):
        n = self.steps
        h = (t_min - config.t_s) / n
        t = config.t_s
        for i in range(n):
            t_next = config.t_s + (i + 1) * h if i + 1 < n else t_min
            z, zc = self.step(f, z, zc, t, t_next, h)
            t = t_next
            rec.add(t, z)
        return z, zc


@dataclass(frozen=True)
class EulerSolver(_FixedStepSolver):
    """Fixed-step first-order integration."""

    def step(self, f, z, zc, t, t_next, h):
        k, kc = f(z, t, zc)
        return z + h * k, None if zc is None else _axpy(h, kc, zc)


@dataclass(frozen=True)
class HeunSolver(_FixedStepSolver):
    """Fixed-step second-order (trapezoidal predictor-corrector)."""

    def step(self, f, z, zc, t, t_next, h):
        k1, kc1 = f(z, t, zc)
        k2, kc2 = f(z + h * k1, t_next, None if zc is None else _axpy(h, kc1, zc))
        return (z + 0.5 * h * (k1 + k2),
                None if zc is None else _axpy(0.5 * h, kc1 + kc2, zc))


@dataclass(frozen=True)
class AdaptiveHeunSolver:
    """Step-controlled Heun; h_init = None means (t_s - t_min) / 50."""

    atol: float = 1e-5
    rtol: float = 1e-5
    h_init: float | None = None
    h_min: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        if not self.atol > 0:
            raise ValueError(f"atol must be > 0, got {self.atol}")
        if not self.rtol > 0:
            raise ValueError(f"rtol must be > 0, got {self.rtol}")
        if not self.h_min > 0:
            raise ValueError(f"h_min must be > 0, got {self.h_min}")
        if self.h_init is not None and not self.h_init > 0:
            raise ValueError(f"h_init must be > 0, got {self.h_init}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    def first_step(self, span: float) -> float:
        """The loop's first step size over the span t_s - t_min."""
        return min(self.h_init or span / H_INIT_FRACTION, span)

    def check_span(self, span: float) -> None:
        """Reject a first step below h_min, where a run would underflow at once;
        the message leads with h_init when the first step is h_init itself,
        and otherwise with h_min, the only value that can fix it."""
        h_first = self.first_step(span)
        if span > 1e-12 and h_first < self.h_min:
            if h_first == self.h_init:
                raise ValueError(f"h_init = {self.h_init!r} makes the first adaptive step "
                                 f"{h_first:.6g}, below h_min = {self.h_min!r}")
            rule = (f"(t_s - t_min) / {H_INIT_FRACTION}" if self.h_init is None
                    else "the whole span t_s - t_min")
            raise ValueError(f"h_min = {self.h_min!r} exceeds the first adaptive step "
                             f"{h_first:.6g}, {rule}")

    def run(self, config, f, z, zc, t_min, rec):
        atol, rtol = self.atol, self.rtol
        traj = rec.traj
        t = config.t_s
        h_abs = self.first_step(t - t_min)
        steps = 0
        k1, kc1 = f(z, t, zc)
        while t - t_min > 1e-12:
            if steps >= self.max_steps:
                raise MaxStepsExceededError(t, z, self.max_steps)
            if h_abs < self.h_min:
                raise StepUnderflowError(t, z, h_abs)
            steps += 1
            h_abs = min(h_abs, t - t_min)
            h = -h_abs
            err, z_heun, zc_heun = _heun_attempt(f, z, zc, k1, kc1, t, h, atol, rtol)
            if err <= 1.0:
                t = t + h
                if t - t_min <= 1e-12:
                    t = t_min
                z, zc = z_heun, zc_heun
                rec.add(t, z)
                if t - t_min > 1e-12:
                    k1, kc1 = f(z, t, zc)
            else:
                traj.rejected += 1
            if err == 0.0:
                factor = 5.0
            else:
                factor = 0.9 / math.sqrt(err)
                if factor > 5.0:
                    factor = 5.0
                elif factor < 0.2:
                    factor = 0.2
            h_abs = h_abs * factor
        return z, zc


SolverKind = EulerSolver | HeunSolver | AdaptiveHeunSolver


@dataclass(frozen=True)
class SamplerConfig:
    t_s: float = 0.8
    solver: SolverKind = AdaptiveHeunSolver()
    guidance: GuidanceSpec = GuidanceSpec()
    seed: int = 0
    init_mode: str = "encoded-measurement"
    schedule: PathSchedule = PathSchedule()

    def __post_init__(self):
        if not self.schedule.t_min < self.t_s <= self.schedule.t_max:
            raise ValueError(
                f"t_s={self.t_s} must lie in ({self.schedule.t_min}, "
                f"{self.schedule.t_max}]"
            )
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode: {self.init_mode!r} not one of {INIT_MODES}")
        self.solver.check_span(self.t_s - self.schedule.t_min)


@dataclass
class Trajectory:
    """Per-run record: evaluation accounting plus, on request, the trace.

    Every run fills the counters: nfe counts every velocity evaluation
    including rejected attempts, accepted and rejected count steps, and
    t_last is the time of the last accepted point (t_s before the first
    step). When the run was asked for a trace, the parallel lists
    times / nfe_cumulative / state_norms / residual_norms hold one entry
    per accepted point, starting at t_s; otherwise they stay empty.
    """

    times: list = dataclass_field(default_factory=list)
    nfe_cumulative: list = dataclass_field(default_factory=list)
    state_norms: list = dataclass_field(default_factory=list)
    residual_norms: list = dataclass_field(default_factory=list)
    nfe: int = 0
    clamp_events: int = 0
    accepted: int = 0
    rejected: int = 0
    t_last: float = math.nan

    def to_csv(self, path) -> None:
        """Dump the accepted points as CSV (t, nfe_cumulative, state_norm,
        residual_norm); the residual column is empty if not recorded."""
        import csv

        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRAJECTORY_COLUMNS)
            have_res = len(self.residual_norms) == len(self.times)
            for i, t in enumerate(self.times):
                res = f"{self.residual_norms[i]:.17g}" if have_res else ""
                writer.writerow(
                    [f"{t:.17g}", self.nfe_cumulative[i],
                     f"{self.state_norms[i]:.17g}", res]
                )


def init_state(config: SamplerConfig, dec: DecoderSpec, op: LinearOperatorDescriptor,
               y, rng: SeededRng) -> RealField:
    """Draw the start state z at t_s.

    pure-noise: a standard Gaussian, period. encoded-measurement: lift y
    back to the field grid with the operator's `lift`, encode it, and
    place it at t_s on the line toward a fresh noise draw.
    """
    if config.init_mode == "pure-noise":
        return gaussian_vector(rng, dec.latent_shape)
    encoded = encode(dec, op.lift(as_field(y)))
    z1 = gaussian_vector(rng, dec.latent_shape)
    return config.schedule.interpolate(encoded, z1, config.t_s)


class _Recorder:
    """Checks and counts the accepted points of a run, tracing none."""

    def __init__(self, traj: Trajectory):
        self.traj = traj

    def add(self, t: float, z: np.ndarray, step: int = 1) -> float:
        """Check the point (t, z) and count it: step is 1 for an accepted
        step and 0 for the start state. Returns z's squared norm.

        The dot product of z with itself is the finiteness check: it is
        finite whenever z is. Only a non-finite one costs an elementwise
        scan, which tells a NaN or Inf entry (raise) from a finite state
        whose squared norm overflows (go on).
        """
        sq = dot(z, z)
        if not math.isfinite(sq) and not np.isfinite(z).all():
            raise NonFiniteError(f"state became non-finite at t={t:.6g}")
        traj = self.traj
        traj.accepted += step
        traj.t_last = t
        return sq


class _TraceRecorder(_Recorder):
    """A `_Recorder` that also appends each point to the trajectory's lists."""

    def __init__(self, traj: Trajectory, residual_fn):
        super().__init__(traj)
        self.residual_fn = residual_fn

    def add(self, t: float, z: np.ndarray, step: int = 1) -> float:
        sq = super().add(t, z, step)
        traj = self.traj
        traj.times.append(float(t))
        traj.nfe_cumulative.append(traj.nfe)
        traj.state_norms.append(math.sqrt(sq))
        traj.residual_norms.append(self.residual_fn(z, t))
        return sq


def integrate(config: SamplerConfig, field: VectorFieldSpec, dec: DecoderSpec,
              op: LinearOperatorDescriptor, y, rng: SeededRng,
              record_trace: bool = False) -> tuple[RealField, Trajectory]:
    """Run the reverse ODE from t_s down to t_min.

    Returns the endpoint state (still at t_min; apply final_denoise to
    close the gap to zero) and the trajectory record, whose per-point
    lists are filled only when record_trace is true.
    """
    y = as_field(y)
    schedule = config.schedule
    t_min, t_max = schedule.t_min, schedule.t_max
    # make_velocity checks y, so a mis-shaped or non-finite one fails here by name.
    velocity = make_velocity(config.guidance, field, dec, op, y)
    z = init_state(config, dec, op, y, rng)
    # A wrapper of the velocity that does not forward `coeffs` steps without them.
    coeffs = getattr(velocity, "coeffs", None)
    traj = Trajectory()

    def f(state, t, state_coeffs):
        # Clamp t into the schedule's window, counting clamp events.
        traj.nfe += 1
        if t < t_min:
            traj.clamp_events += 1
            t = t_min
        elif t > t_max:
            traj.clamp_events += 1
            t = t_max
        if state_coeffs is None:
            return velocity(state, t), None
        return velocity(state, t, state_coeffs)

    if record_trace:
        def residual_fn(state, t):
            r = y - op.apply(decode(dec, posterior_mean(field, state, t)))
            return math.sqrt(dot(r, r))

        rec = _TraceRecorder(traj, residual_fn)
    else:
        rec = _Recorder(traj)
    try:
        with np.errstate(over="ignore"):
            rec.add(config.t_s, z, step=0)
            # The start state's coefficients, when the route carries them, are
            # the run's alone: they go once it has moved on.
            z, _ = config.solver.run(config, f, z, None if coeffs is None else coeffs(z),
                                     t_min, rec)
    except LflowError as exc:
        exc.trajectory = traj
        raise
    return z, traj


def _heun_attempt(f, z, zc, k1, kc1, t: float, h: float, atol: float, rtol: float):
    """One adaptive Heun attempt from the accepted state z at t with step h.

    Returns the scaled error |h/2| rms((k2 - k1) / (atol + rtol |z|)) and,
    when it is at most 1, the Heun state z + h k1 + (h/2)(k2 - k1) with its
    coefficients (None for both otherwise). The Euler trial z + h k1 and
    the difference k2 - k1, which gives both, are each built in place on
    their own fresh array, and the Heun state on the difference's; the
    coefficients take the same steps on the trial's coefficients, where
    the run carries them. k1 and kc1 are reused after a rejection and z
    and zc are the accepted state, so none of them is written. The inverse
    scale is built after the trial's evaluation, and the attempt's arrays
    die on return, before the next evaluation allocates.
    """
    half_h = 0.5 * h
    z_euler = h * k1
    z_euler += z
    zc_euler = None if zc is None else _axpy(h, kc1, zc)
    k2, kc2 = f(z_euler, t + h, zc_euler)
    diff = k2 - k1
    scaled = _inverse_error_scale(z, atol, rtol)
    scaled *= diff
    err = abs(half_h) * math.sqrt(dot(scaled, scaled) / z.size)
    if not err <= 1.0:
        # err is NaN or inf when a stage is; from finite stages it can
        # still overflow to inf, and that stays a rejection.
        if not math.isfinite(err):
            _check_stages(k1, k2, t, h)
        return err, None, None
    diff *= half_h
    diff += z_euler
    if zc_euler is not None:
        dkc = kc2 - kc1
        dkc *= half_h
        zc_euler += dkc
    return err, diff, zc_euler


def _axpy(a: float, x, y):
    """a x + y on a fresh array."""
    out = np.multiply(x, a)
    out += y
    return out


def _check_stages(k1, k2, t: float, h: float) -> None:
    """Raise NonFiniteError if a stage of the step from t to t + h is not
    finite; called only when the step's error estimate is not finite."""
    for k, t_stage in ((k1, t), (k2, t + h)):
        if not np.isfinite(k).all():
            raise NonFiniteError(f"velocity became non-finite at t={t_stage:.6g}")


def _inverse_error_scale(z, atol: float, rtol: float) -> np.ndarray:
    """1 / (atol + rtol |z|), the componentwise weight of the error norm."""
    inv = np.abs(z)
    inv *= rtol
    inv += atol
    return np.reciprocal(inv, out=inv)


def final_denoise(field: VectorFieldSpec, z, t_min: float) -> RealField:
    """One denoising step from t_min to 0: the conditional mean E[z0 | z],
    by the field's own formula (`posterior_mean`)."""
    return posterior_mean(field, z, t_min)


def inpaint_splice(mask, y_zero_filled, decoded) -> RealField:
    """Keep observed pixels from the measurement, fill the rest from the
    reconstruction."""
    mask = as_field(mask)
    y0 = as_field(y_zero_filled)
    dec = as_field(decoded)
    if not (mask.shape == y0.shape == dec.shape):
        raise ShapeMismatchError(
            f"splice shapes differ: {mask.shape}, {y0.shape}, {dec.shape}"
        )
    return mask * y0 + (1.0 - mask) * dec


def sample_posterior(config: SamplerConfig, field: VectorFieldSpec, dec: DecoderSpec,
                     op: LinearOperatorDescriptor, y,
                     record_trace: bool = False) -> tuple[RealField, Trajectory]:
    """Full run from the config's own seed: integrate, then denoise to 0.

    Returns the latent reconstruction (decode it for pixels) and the
    trajectory, traced when record_trace is true.
    """
    rng = make_rng(config.seed)
    z, traj = integrate(config, field, dec, op, y, rng, record_trace=record_trace)
    return final_denoise(field, z, config.schedule.t_min), traj
