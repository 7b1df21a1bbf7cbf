"""Reverse-time ODE sampling of the corrected velocity field.

A run starts at t_s (default 0.8) from either a noised encoding of the
measurement or pure noise, integrates dz/dt = corrected_velocity(z, t)
down to t_min with one of three steppers, then closes the residual gap
to t = 0 with a single denoising step. Time decreases along the run;
under the noising-direction velocity convention that is exactly the
reverse flow, no sign flip needed.

Steppers:

* `EulerSolver(steps)` / `HeunSolver(steps)`: fixed uniform grid.
* `AdaptiveHeunSolver`: Heun step with the embedded Euler estimate,
  componentwise error scale atol + rtol * |z|, RMS norm, accept when the
  scaled error is at most 1, step factor 0.9 * err^(-1/2) clamped to
  [0.2, 5.0]. The first stage is reused when a step is rejected, so NFE
  counts one evaluation per rejection and two per accepted step.

Every accepted state is checked finite; a run never silently returns
garbage. Failures raise MaxStepsExceededError or StepUnderflowError,
both carrying the last good state; any error raised mid-run also carries
the partial trajectory, so its NFE is not lost.
"""

from __future__ import annotations

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
from .operators import ConvDownsampleOperator, LinearOperatorDescriptor, MaskOperator
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
    back to the field grid (masks zero-fill, convolutions pass through,
    downsamplers upsample through the adjoint scaled by s^2 so flat
    signals keep their level, dense operators use the plain adjoint),
    encode it, and place it at t_s on the line toward a fresh noise draw.
    """
    y = as_field(y)
    if config.init_mode == "pure-noise":
        return gaussian_vector(rng, dec.latent_shape)
    if isinstance(op, MaskOperator):
        lifted = op.adjoint(y)
    elif isinstance(op, ConvDownsampleOperator):
        lifted = float(op.factor**2) * op.adjoint(y)
    elif op.output_shape == op.input_shape:
        lifted = y
    else:
        lifted = op.adjoint(y)
    encoded = encode(dec, lifted)
    z1 = gaussian_vector(rng, dec.latent_shape)
    return config.schedule.interpolate(encoded, z1, config.t_s)


def _check_accepted(z: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(z)):
        raise NonFiniteError(f"state became non-finite at t={t:.6g}")


class _Recorder:
    """Accumulates the trajectory during a run."""

    def __init__(self, traj: Trajectory, record_states: bool, residual_fn):
        self.traj = traj
        self.residual_fn = residual_fn
        if record_states:
            traj.states = []

    def add(self, t: float, z: np.ndarray) -> None:
        traj = self.traj
        traj.times.append(float(t))
        traj.nfe_cumulative.append(traj.nfe)
        traj.state_norms.append(float(np.linalg.norm(z)))
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

    def f(state, t):
        tc = schedule.clamp(t)
        if tc != t:
            traj.clamp_events += 1
        traj.nfe += 1
        return velocity(state, tc)

    residual_fn = None
    if record_residuals:
        def residual_fn(state, t):
            r = y - op.apply(decode(dec, posterior_mean(field, state, t)))
            return float(np.linalg.norm(r))

    rec = _Recorder(traj, record_states, residual_fn)
    rec.add(config.t_s, z)

    if isinstance(config.solver, EulerSolver):
        run = _run_euler
    elif isinstance(config.solver, HeunSolver):
        run = _run_heun
    else:
        run = _run_adaptive
    try:
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
        _check_accepted(z, t)
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
        _check_accepted(z, t)
        rec.add(t, z)
    return z


def _run_adaptive(config, f, z, t_min, rec):
    solver = config.solver
    t = config.t_s
    span = t - t_min
    h_abs = solver.h_init if solver.h_init is not None else span / H_INIT_FRACTION
    h_abs = min(h_abs, span)
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
        z_euler = z + h * k1
        k2 = f(z_euler, t + h)
        z_heun = z + (0.5 * h) * (k1 + k2)
        scale = solver.atol + solver.rtol * np.abs(z)
        err_vec = (0.5 * h) * (k2 - k1) / scale
        err = float(np.sqrt(np.mean(err_vec * err_vec)))
        if err <= 1.0:
            t = t + h
            if t - t_min <= 1e-12:
                t = t_min
            z = z_heun
            _check_accepted(z, t)
            rec.traj.accepted += 1
            rec.add(t, z)
            if t - t_min > 1e-12:
                k1 = f(z, t)
        else:
            rec.traj.rejected += 1
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 / np.sqrt(err)))
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
