"""Exception types shared across the package.

Solver errors that interrupt an ODE run carry the last valid state so a
caller can inspect or salvage the partial trajectory.
"""

from __future__ import annotations


class LflowError(Exception):
    """Base class for all package-specific errors.

    An error that interrupts `sampler.integrate` carries the partial
    Trajectory of that run (NFE and clamp events spent so far) as
    `trajectory`; it is None everywhere else.
    """

    trajectory = None


class ShapeMismatchError(LflowError):
    """An array does not match the shape a contract requires."""


class NonFiniteError(LflowError):
    """A value that must be finite contains NaN or Inf."""


class ZeroScaleError(LflowError):
    """A diagonal decoder entry is too close to zero to invert."""


class DimensionGuardError(LflowError):
    """A brute-force materialization was requested above the size guard."""


class CgConvergenceError(LflowError):
    """Conjugate gradient broke down or missed tolerance within max_iter.

    Usually means the system matrix is not symmetric positive definite,
    which the guidance solve guarantees only when sigma_y > 0.
    """

    def __init__(self, iterations: int, residual_norm: float,
                 reason: str = "no convergence"):
        self.iterations = iterations
        self.residual_norm = residual_norm
        super().__init__(
            f"{reason} after {iterations} iterations "
            f"(residual norm {residual_norm:.3e})"
        )


class _SolverError(LflowError):
    """Base for integrator failures; keeps the last accepted state."""

    def __init__(self, message: str, t: float, state):
        self.t = t
        self.state = state
        super().__init__(f"{message} (stopped at t={t:.6g})")


class MaxStepsExceededError(_SolverError):
    """The integrator hit its step budget before reaching t_min."""

    def __init__(self, t: float, state, max_steps: int):
        super().__init__(f"exceeded {max_steps} steps", t, state)


class StepUnderflowError(_SolverError):
    """Step-size control drove the step below h_min."""

    def __init__(self, t: float, state, h: float):
        super().__init__(f"step size underflow (|h|={abs(h):.3e})", t, state)


class ConfigError(LflowError):
    """A run configuration file is malformed or contains unknown keys."""


class ImageFormatError(LflowError):
    """An image file is malformed, truncated, or in an unsupported format."""
