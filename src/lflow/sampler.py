"""Reverse-time ODE sampling of the corrected velocity field.

A run starts at t_s (default 0.8) from either a noised encoding of the
measurement or pure noise, integrates dz/dt = corrected_velocity(z, t)
down to t_min with one of three steppers, then closes the residual gap
to t = 0 with a single denoising step. Time decreases along the run;
under the noising-direction velocity convention that is exactly the
reverse flow, no sign flip needed.

Steppers:

* `EulerSolver(steps)` / `HeunSolver(steps)`: fixed uniform grid; every
  step counts as accepted.
* `AdaptiveHeunSolver`: Heun step with the embedded Euler estimate,
  componentwise error scale atol + rtol * |z|, RMS norm, accept when the
  scaled error is at most 1, step factor 0.9 * err^(-1/2) clamped to
  [0.2, 5.0]. The first stage is reused when a step is rejected, so NFE
  counts one evaluation per rejection and two per accepted step.

Finiteness: a run never silently returns garbage. Every accepted state
is checked through the dot product the recorder takes for its state
norm anyway; only when that is not finite does an elementwise scan tell
a NaN or Inf entry (NonFiniteError) from a finite state whose squared
norm overflows (recorded as an infinite norm). In the adaptive stepper a
non-finite error estimate whose stages hold a non-finite entry is a
NonFiniteError naming the stage's time, not a rejection; a finite stage
pair whose error estimate overflows stays a rejection.

The adaptive loop builds each intermediate (trial state, Heun state,
error scale, error vector) in place on its own fresh array. It never
writes k1, which a rejected step reuses, or the accepted state z, which
the next step reads and a solver error carries.

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
from .numerics import RealField, SeededRng, as_field, gaussian_vector, make_rng
from .operators import LinearOperatorDescriptor
from .schedule import PathSchedule

INIT_MODES = ("encoded-measurement", "pure-noise")

H_INIT_FRACTION = 50
TRAJECTORY_COLUMNS = ("t", "nfe_cumulative", "state_norm", "residual_norm")


@dataclass(frozen=True)
class EulerSolver:
    """Fixed-step first-order integration."""

    steps: int = 100

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class HeunSolver:
    """Fixed-step second-order (trapezoidal predictor-corrector)."""

    steps: int = 100

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class AdaptiveHeunSolver:
    """Step-controlled Heun; h_init = None means (t_s - t_min) / 50."""

    atol: float = 1e-5
    rtol: float = 1e-5
    h_init: float | None = None
    h_min: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        if not (self.atol > 0 and self.rtol > 0):
            raise ValueError("atol and rtol must be > 0")
        if not self.h_min > 0:
            raise ValueError(f"h_min must be > 0, got {self.h_min}")
        if self.h_init is not None and not self.h_init > 0:
            raise ValueError(f"h_init must be > 0, got {self.h_init}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


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
            raise ValueError(
                f"unknown init mode {self.init_mode!r}; expected one of {INIT_MODES}"
            )


@dataclass
class Trajectory:
    """Per-run record: accepted times plus evaluation accounting.

    The parallel lists times / nfe_cumulative / state_norms (and
    residual_norms and states, when their recording was requested) hold
    one entry per accepted point, starting at t_s. nfe counts every
    velocity evaluation including rejected attempts.
    """

    times: list = dataclass_field(default_factory=list)
    nfe_cumulative: list = dataclass_field(default_factory=list)
    state_norms: list = dataclass_field(default_factory=list)
    residual_norms: list = dataclass_field(default_factory=list)
    states: list | None = None
    nfe: int = 0
    clamp_events: int = 0
    accepted: int = 0
    rejected: int = 0

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
    """Accumulates the trajectory during a run."""

    def __init__(self, traj: Trajectory, record_states: bool, residual_fn):
        self.traj = traj
        self.residual_fn = residual_fn
        if record_states:
            traj.states = []

    def add(self, t: float, z: np.ndarray) -> None:
        """Record the point (t, z); every point after the start is an
        accepted step.

        The dot product behind the state norm is also the finiteness
        check: it is finite whenever z is. Only a non-finite norm costs
        an elementwise scan, which tells a NaN or Inf entry (raise) from
        a finite state whose squared norm overflows (record inf).
        """
        flat = z.ravel(order="K")
        sq = float(flat.dot(flat))
        if not math.isfinite(sq) and not np.isfinite(z).all():
            raise NonFiniteError(f"state became non-finite at t={t:.6g}")
        traj = self.traj
        traj.accepted = len(traj.times)
        traj.times.append(float(t))
        traj.nfe_cumulative.append(traj.nfe)
        traj.state_norms.append(math.sqrt(sq))
        if self.residual_fn is not None:
            traj.residual_norms.append(self.residual_fn(z, t))
        if traj.states is not None:
            traj.states.append(z.copy())


def integrate(config: SamplerConfig, field: VectorFieldSpec, dec: DecoderSpec,
              op: LinearOperatorDescriptor, y, rng: SeededRng,
              record_states: bool = False,
              record_residuals: bool = False) -> tuple[RealField, Trajectory]:
    """Run the reverse ODE from t_s down to t_min.

    Returns the endpoint state (still at t_min; apply final_denoise to
    close the gap to zero) and the trajectory record.
    """
    y = as_field(y)
    schedule = config.schedule
    t_min = schedule.t_min
    z = init_state(config, dec, op, y, rng)
    traj = Trajectory()
    velocity = make_velocity(config.guidance, field, dec, op, y)

    t_max = schedule.t_max

    def f(state, t):
        # Clamp t into the schedule's window, counting clamp events.
        traj.nfe += 1
        if t < t_min:
            traj.clamp_events += 1
            t = t_min
        elif t > t_max:
            traj.clamp_events += 1
            t = t_max
        return velocity(state, t)

    residual_fn = None
    if record_residuals:
        def residual_fn(state, t):
            r = y - op.apply(decode(dec, posterior_mean(field, state, t)))
            return float(np.linalg.norm(r))

    rec = _Recorder(traj, record_states, residual_fn)
    if isinstance(config.solver, EulerSolver):
        run = _run_euler
    elif isinstance(config.solver, HeunSolver):
        run = _run_heun
    else:
        run = _run_adaptive
    try:
        rec.add(config.t_s, z)
        z = run(config, f, z, t_min, rec)
    except LflowError as exc:
        exc.trajectory = traj
        raise
    return z, traj


def _run_euler(config, f, z, t_min, rec):
    n = config.solver.steps
    h = (t_min - config.t_s) / n
    t = config.t_s
    for i in range(n):
        z = z + h * f(z, t)
        t = config.t_s + (i + 1) * h if i + 1 < n else t_min
        rec.add(t, z)
    return z


def _run_heun(config, f, z, t_min, rec):
    n = config.solver.steps
    h = (t_min - config.t_s) / n
    t = config.t_s
    for i in range(n):
        t_next = config.t_s + (i + 1) * h if i + 1 < n else t_min
        k1 = f(z, t)
        k2 = f(z + h * k1, t_next)
        z = z + 0.5 * h * (k1 + k2)
        t = t_next
        rec.add(t, z)
    return z


def _check_stages(k1, k2, t: float, h: float) -> None:
    """Raise NonFiniteError if a stage of the step from t to t + h is not
    finite; called only when the step's error estimate is not finite."""
    for k, t_stage in ((k1, t), (k2, t + h)):
        if not np.isfinite(k).all():
            raise NonFiniteError(f"velocity became non-finite at t={t_stage:.6g}")


def _run_adaptive(config, f, z, t_min, rec):
    solver = config.solver
    atol, rtol = solver.atol, solver.rtol
    t = config.t_s
    span = t - t_min
    h_abs = solver.h_init if solver.h_init is not None else span / H_INIT_FRACTION
    h_abs = min(h_abs, span)
    size = z.size
    steps = 0
    k1 = f(z, t)
    while t - t_min > 1e-12:
        if steps >= solver.max_steps:
            raise MaxStepsExceededError(t, z, solver.max_steps)
        if h_abs < solver.h_min:
            raise StepUnderflowError(t, z, h_abs)
        steps += 1
        h_abs = min(h_abs, t - t_min)
        h = -h_abs
        half_h = 0.5 * h
        # z + h k1, z + (h/2)(k1 + k2) and (h/2)(k2 - k1) / (atol + rtol |z|),
        # each built in place on its own fresh array: k1 is reused after a
        # rejection and z is the accepted state, so neither is written.
        z_euler = h * k1
        z_euler += z
        k2 = f(z_euler, t + h)
        z_heun = k1 + k2
        z_heun *= half_h
        z_heun += z
        scale = np.abs(z)
        scale *= rtol
        scale += atol
        err_vec = k2 - k1
        err_vec *= half_h
        err_vec /= scale
        err_vec *= err_vec
        err = math.sqrt(float(err_vec.sum()) / size)
        if err <= 1.0:
            t = t + h
            if t - t_min <= 1e-12:
                t = t_min
            z = z_heun
            rec.add(t, z)
            if t - t_min > 1e-12:
                k1 = f(z, t)
        else:
            # err is NaN or inf when a stage is; from finite stages it can
            # still overflow to inf, and that stays a rejection.
            if not math.isfinite(err):
                _check_stages(k1, k2, t, h)
            rec.traj.rejected += 1
        if err == 0.0:
            factor = 5.0
        else:
            factor = 0.9 / math.sqrt(err)
            if factor > 5.0:
                factor = 5.0
            elif factor < 0.2:
                factor = 0.2
        h_abs = h_abs * factor
    return z


def final_denoise(field: VectorFieldSpec, z, t_min: float) -> RealField:
    """One denoising step from t_min to 0: the conditional mean E[z0 | z]."""
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
                     record_states: bool = False,
                     record_residuals: bool = False) -> tuple[RealField, Trajectory]:
    """Full run from the config's own seed: integrate, then denoise to 0.

    Returns the latent reconstruction (decode it for pixels) and the
    trajectory.
    """
    rng = make_rng(config.seed)
    z, traj = integrate(config, field, dec, op, y, rng,
                        record_states=record_states,
                        record_residuals=record_residuals)
    return final_denoise(field, z, config.schedule.t_min), traj
