"""Task presets and the degrade/reconstruct pipeline.

A `TaskConfig` is a flat, serializable bundle of every knob a run needs;
it mirrors the config-file grammar one to one (see `config.CONFIG_SCHEMA`),
checks its values when constructed and keeps the runtime objects it
builds for the run. The four task kinds cover the canonical desk-scale
suite: 64x64 images, 9x9 blur kernels, 2x super-resolution, 32x32
centered box inpainting.

Pixel fields live in [0, 1]; the prior field is zero-mean, so the
pipeline subtracts mid-gray, 0.5, from the measurements before sampling
and adds it back afterwards. Every task operator maps a constant 0.5
field to 0.5 measurements (a mask selects entries, and blur taps are
normalized to sum to one), so subtracting the constant instead of A·0.5
is exact, not approximate, and costs no operator call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import CONFIG_SCHEMA, config_hash
from .decoders import DiagonalScaleDecoder, decode
from .errors import ConfigError, ImageFormatError, LflowError, ZeroScaleError
from .fields import AnalyticGaussianField, COV_MODE_KINDS, CovarianceMode
from .guidance import ClosedFormSolver, ConjugateGradientSolver, GuidanceSpec
from .metrics import SSIM_WINDOW_SIZE, mse as mse_metric, psnr, ssim
from .numerics import check_shape, make_rng
from .operators import (
    CircConvOperator,
    ConvDownsampleOperator,
    MaskOperator,
    build_bicubic_kernel,
    build_box_mask,
    build_gaussian_kernel,
    build_motion_kernel,
)
from .report import RunReport
from .sampler import (
    AdaptiveHeunSolver,
    EulerSolver,
    HeunSolver,
    SamplerConfig,
    inpaint_splice,
    sample_posterior,
)

TASK_KINDS = ("gaussian-deblur", "motion-deblur", "super-resolution", "box-inpaint")
GUIDANCE_SOLVER_NAMES = ("closed-form", "cg")
ODE_SOLVER_NAMES = ("adaptive", "euler", "heun")
REPORT_FORMATS = ("csv", "json")
SYNTHETIC_IMAGE = "synthetic"
SYNTHETIC_MIN_SIZE = 4

# Measurement noise must not replay the sampler's noise stream, so the
# degrade generator runs at a fixed offset from the run seed.
DEGRADE_SEED_OFFSET = 1_000_003

# (section, key) in the config grammar -> TaskConfig attribute: the key
# itself, except for the two keys both named `solver`.
_RENAMED = {("guidance", "solver"): "guidance_solver", ("sampler", "solver"): "ode_solver"}
_FIELD_MAP = {(section, key): _RENAMED.get((section, key), key)
              for section, keys in CONFIG_SCHEMA.items() for key in keys}
_CONFIG_KEY = {attr: f"[{section}] {key}" for (section, key), attr in _FIELD_MAP.items()}


@dataclass(frozen=True)
class TaskConfig:
    """Flat run configuration; see the module docstring and config grammar.

    h_init = 0 means automatic (span / 50). literal_update = true builds a
    one-pass (K = 1) guidance whatever k_steps holds. Defaults here are the
    shared base; `default_task_config` applies the per-task tolerance presets.

    Construction is the only validation stage, for files, CLI flags and
    library code alike: a value no run could use raises ValueError naming
    its `[section] key`, and a singular measurement system raises
    ConfigError: sigma_y = 0 with cov_mode = zero, or with an operator
    whose A A^T has an exact zero eigenvalue (only a config whose sigma_y
    squares to 0 builds its operator to check that).
    The field, decoder and sampler it builds to check are kept as `field`,
    `decoder` and `sampler` (the guidance is `sampler.guidance`).
    """

    kind: str = "gaussian-deblur"
    size: int = 64
    kernel_size: int = 9
    kernel_std: float = 1.5
    kernel_angle: float = 0.0
    kernel_length: int = 9
    sr_factor: int = 2
    box_size: int = 32
    sigma_y: float = 0.01
    image: str = SYNTHETIC_IMAGE
    sigma_latr: float = 0.04
    decoder_kind: str = "identity"
    decoder_scale: float = 1.0
    cov_mode: str = "lflow"
    k_steps: int = 2
    guidance_solver: str = "closed-form"
    cg_tol: float = 1e-10
    cg_max_iter: int = 500
    literal_update: bool = False
    ode_solver: str = "adaptive"
    t_s: float = 0.8
    atol: float = 1e-5
    rtol: float = 1e-5
    steps: int = 100
    h_init: float = 0.0
    h_min: float = 1e-10
    max_steps: int = 100_000
    init_mode: str = "encoded-measurement"
    seed: int = 0
    out_dir: str = "."
    report_format: str = "csv"

    def __post_init__(self):
        for attr, allowed in (
            ("kind", TASK_KINDS),
            ("cov_mode", COV_MODE_KINDS),
            ("guidance_solver", GUIDANCE_SOLVER_NAMES),
            ("ode_solver", ODE_SOLVER_NAMES),
            ("report_format", REPORT_FORMATS),
            ("decoder_kind", ("identity", "scale")),
        ):
            value = getattr(self, attr)
            if value not in allowed:
                raise ValueError(f"{_CONFIG_KEY[attr]}: {value!r} not one of {allowed}")
        # Values whose runtime message could not name the config key.
        std = self.kernel_std
        s = self.sr_factor
        size = f"{_CONFIG_KEY['size']} ({self.size})"
        deblur = self.kind in ("gaussian-deblur", "motion-deblur")
        for attr, ok, rule in (
            ("size", self.size >= SSIM_WINDOW_SIZE,
             f">= {SSIM_WINDOW_SIZE}, the side of the SSIM window"),
            ("sigma_y", self.sigma_y >= 0.0, ">= 0"),
            ("k_steps", self.k_steps >= 1, ">= 1"),
            ("kernel_std", self.kind != "gaussian-deblur" or (std > 0.0 and std * std > 0.0),
             "> 0 with a square that does not underflow"),
            ("kernel_size", not deblur or (self.kernel_size >= 1 and self.kernel_size % 2),
             "odd and >= 1"),
            ("cg_tol", self.guidance_solver != "cg" or self.cg_tol > 0.0, "> 0"),
            ("cg_max_iter", self.guidance_solver != "cg" or self.cg_max_iter >= 1, ">= 1"),
            ("h_init", self.h_init >= 0.0, ">= 0 (0 means automatic)"),
            ("seed", self.seed >= 0, ">= 0"),
            ("box_size", self.kind != "box-inpaint" or 0 <= self.box_size <= self.size,
             f"between 0 and {size}"),
            ("kernel_size", not deblur or self.kernel_size <= self.size, f"<= {size}"),
            ("kernel_length", self.kind != "motion-deblur"
             or 1 <= self.kernel_length <= self.kernel_size,
             f"between 1 and {_CONFIG_KEY['kernel_size']} ({self.kernel_size})"),
            ("kernel_angle", self.kind != "motion-deblur" or math.isfinite(self.kernel_angle),
             "finite"),
            # The bicubic kernel of factor s has 4 s - 1 taps a side.
            ("sr_factor", self.kind != "super-resolution"
             or (s >= 1 and self.size % s == 0 and 4 * s - 1 <= self.size),
             f">= 1, divide {size} and keep its 4 s - 1 kernel within it"),
        ):
            if not ok:
                raise ValueError(f"{_CONFIG_KEY[attr]}: must be {rule}, "
                                 f"got {getattr(self, attr)!r}")
        if self.sigma_y * self.sigma_y == 0.0:
            if self.cov_mode == "zero":
                raise ConfigError(f"{_CONFIG_KEY['sigma_y']} = 0 with "
                                  f"{_CONFIG_KEY['cov_mode']} = zero makes the measurement "
                                  f"system S = sigma_y^2 I + r2 A A^T singular (r2 = 0 in "
                                  f"zero mode, and sigma_y^2 = 0 at sigma_y = {self.sigma_y!r})")
            # Only a noiseless config builds its operator here: S = r2 A A^T is
            # then singular wherever A A^T has an exact zero eigenvalue.
            lam = self.build_operator()[0].gram_eigenvalues
            zeros = np.count_nonzero(lam == 0.0)
            if zeros:
                raise ConfigError(f"{_CONFIG_KEY['sigma_y']} = 0 makes the measurement system "
                                  f"S = sigma_y^2 I + r2 A A^T singular: {zeros} of the "
                                  f"{np.size(lam)} eigenvalues of A A^T for this "
                                  f"{_CONFIG_KEY['kind']} = {self.kind} operator are exactly "
                                  f"0 (sigma_y^2 = 0 at sigma_y = {self.sigma_y!r})")
        # The runtime objects, kept for the run, check the rest under their own
        # names (the decoder's only rejectable value is its scale; the rules
        # above cover the guidance's and the operator's inputs).
        for where, attr in (("[prior]", "field"),
                            (f"{_CONFIG_KEY['decoder_scale']}:", "decoder"),
                            ("[sampler]", "sampler")):
            try:
                getattr(self, attr)
            except (ValueError, ZeroScaleError) as exc:
                raise ValueError(f"{where} {exc}") from exc

    def to_sections(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for (section, key), attr in _FIELD_MAP.items():
            out.setdefault(section, {})[key] = getattr(self, attr)
        return out

    def hash(self) -> str:
        return config_hash(self.to_sections())

    @property
    def run_id(self) -> str:
        return f"{self.kind}-{self.cov_mode}-{self.seed}"

    def image_shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    def build_operator(self):
        """(operator, mask), built on the first call and kept; mask is the
        binary observation mask for box-inpaint and None for the other kinds.
        """
        return self._operator

    @cached_property
    def _operator(self):
        shape = self.image_shape()
        if self.kind == "gaussian-deblur":
            kernel = build_gaussian_kernel(self.kernel_size, self.kernel_std)
            return CircConvOperator(kernel, shape), None
        if self.kind == "motion-deblur":
            kernel = build_motion_kernel(self.kernel_size, self.kernel_angle,
                                         self.kernel_length)
            return CircConvOperator(kernel, shape), None
        if self.kind == "super-resolution":
            kernel = build_bicubic_kernel(self.sr_factor)
            return ConvDownsampleOperator(kernel, shape, self.sr_factor), None
        top = (self.size - self.box_size) // 2
        mask = build_box_mask(shape, (top, top, self.box_size, self.box_size))
        return MaskOperator(mask), mask

    @cached_property
    def field(self) -> AnalyticGaussianField:
        return AnalyticGaussianField(sigma_latr=self.sigma_latr)

    @cached_property
    def decoder(self):
        scale = 1.0 if self.decoder_kind == "identity" else self.decoder_scale
        return DiagonalScaleDecoder(scale, self.image_shape())

    @cached_property
    def sampler(self) -> SamplerConfig:
        if self.ode_solver == "euler":
            solver = EulerSolver(steps=self.steps)
        elif self.ode_solver == "heun":
            solver = HeunSolver(steps=self.steps)
        else:
            solver = AdaptiveHeunSolver(
                atol=self.atol, rtol=self.rtol,
                h_init=self.h_init if self.h_init > 0 else None,
                h_min=self.h_min, max_steps=self.max_steps,
            )
        guidance = GuidanceSpec(
            cov_mode=CovarianceMode(kind=self.cov_mode),
            solver=(ConjugateGradientSolver(max_iter=self.cg_max_iter, tol=self.cg_tol)
                    if self.guidance_solver == "cg" else ClosedFormSolver()),
            sigma_y=self.sigma_y,
            k_steps=1 if self.literal_update else self.k_steps,
        )
        return SamplerConfig(
            t_s=self.t_s, solver=solver, guidance=guidance,
            seed=self.seed, init_mode=self.init_mode,
        )


def default_task_config(kind: str, **overrides) -> TaskConfig:
    """The per-task preset: loose tolerances where the guidance is rough
    (inpainting, motion) and tight ones for the smooth-spectrum tasks."""
    tol = 1e-3 if kind in ("box-inpaint", "motion-deblur") else 1e-5
    base = {"kind": kind, "atol": tol, "rtol": tol}
    base.update(overrides)
    return TaskConfig(**base)


def task_config_from_sections(sections: dict[str, dict]) -> TaskConfig:
    """Build a TaskConfig from parsed config sections over the preset
    defaults for the file's task kind.

    TaskConfig's own pre-flight rejects what no run could use; here its
    ValueError becomes the ConfigError naming the section and key.
    """
    values = {"kind": "gaussian-deblur"}
    for (section, key), attr in _FIELD_MAP.items():
        if key in sections.get(section, {}):
            values[attr] = sections[section][key]
    try:
        return default_task_config(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def synthetic_image(size: int = 64) -> np.ndarray:
    """Deterministic piecewise-smooth test card in [0, 1].

    A shallow horizontal ramp carries two soft-edged shapes (a bright
    rectangle and a dark disk) over a textured ground: chirped
    concentric rings blending into an oblique grating. The texture
    wavelengths (around 8 to 11 pixels at the default size) sit where a
    9x9 blur loses a substantial share of the signal yet a deblurrer
    can still get it back, so degradation and recovery both register
    clearly in the metrics.
    """
    if size < SYNTHETIC_MIN_SIZE:
        raise ValueError(f"size must be >= {SYNTHETIC_MIN_SIZE}, got {size}")
    f = size / 64.0
    ii, jj = np.mgrid[0:size, 0:size].astype(float)
    img = 0.48 + 0.08 * (jj / (size - 1.0) - 0.5)

    def soft(d, tau=1.0):
        return 0.5 * (1.0 + np.tanh(d / (tau * f)))

    rect = soft(
        np.minimum.reduce([ii - 7.0 * f, 24.0 * f - ii, jj - 5.0 * f, 22.0 * f - jj])
    )
    disk = soft(9.0 * f - np.hypot(ii - 45.0 * f, jj - 14.0 * f))
    img += 0.24 * rect - 0.22 * disk

    free = (1.0 - rect) * (1.0 - disk)
    r = np.hypot(ii - 26.0 * f, jj - 45.0 * f)
    rings = np.sin(2.0 * np.pi * r / (8.5 * f + 0.06 * r))
    theta = np.deg2rad(32.0)
    grating = np.sin(2.0 * np.pi * (ii * np.sin(theta) + jj * np.cos(theta)) / (9.0 * f))
    ring_weight = np.exp(-((r / (22.0 * f)) ** 2) / 2.0)
    img += 0.36 * free * (ring_weight * rings + (1.0 - ring_weight) * grating)
    return np.clip(img, 0.0, 1.0)


def resolve_truth(cfg: TaskConfig) -> np.ndarray:
    """Ground-truth field for a config: synthetic or loaded from disk."""
    if cfg.image == SYNTHETIC_IMAGE:
        return synthetic_image(cfg.size)
    from .imageio import read_image

    try:
        image = read_image(cfg.image)
    except (OSError, ImageFormatError) as exc:
        raise ConfigError(f"{_CONFIG_KEY['image']}: cannot read {cfg.image!r}: {exc}") from exc
    if image.shape != cfg.image_shape():
        raise ConfigError(f"{_CONFIG_KEY['image']}: {cfg.image!r} is "
                          f"{image.shape[0]}x{image.shape[1]}, but {_CONFIG_KEY['size']} "
                          f"= {cfg.size} needs {cfg.size}x{cfg.size}")
    return image


def degrade(cfg: TaskConfig, x_true=None) -> np.ndarray:
    """Forward model only: y = A x + sigma_y * noise.

    The noise generator is seeded from cfg.seed at a fixed offset so
    measurement noise is reproducible but independent of the sampler's
    own draws.
    """
    if x_true is None:
        x_true = resolve_truth(cfg)
    op, _ = cfg.build_operator()
    y = op.apply(x_true)
    if cfg.sigma_y > 0:
        rng = make_rng(cfg.seed + DEGRADE_SEED_OFFSET)
        y = y + cfg.sigma_y * rng.standard_normal(y.shape)
    return y


def reconstruct(cfg: TaskConfig, y, x_true=None,
                trajectory_path=None) -> tuple[np.ndarray | None, RunReport]:
    """Full pipeline: init, integrate, denoise, decode, splice, report.

    Metrics are computed against x_true when available (passed in, or
    regenerated for synthetic configs); otherwise they are NaN. Solver
    failures produce a report row with a failed status, and the NFE and
    clamp events spent before the failure, instead of raising. The
    reconstruction is None exactly when status is not ok. A y or x_true
    of the wrong shape raises ShapeMismatchError before any evaluation.
    trajectory_path receives the run's trace as CSV, the partial trace of
    a failed run included.
    """
    start = time.perf_counter()
    op, mask = cfg.build_operator()
    # A mis-shaped y fails here: subtracting the scalar mid-gray would not catch it.
    y = check_shape("measurement y", y, op.output_shape)
    if x_true is not None:
        x_true = check_shape("x_true", x_true, cfg.image_shape())
    x_hat = None
    traj = None
    status = "ok"
    try:
        z_hat, traj = sample_posterior(
            cfg.sampler, cfg.field, cfg.decoder, op, y - 0.5,
            record_trace=trajectory_path is not None,
        )
        x_hat = np.clip(decode(cfg.decoder, z_hat) + 0.5, 0.0, 1.0)
        if mask is not None:
            x_hat = inpaint_splice(mask, op.adjoint(y), x_hat)
    except LflowError as exc:
        status = f"failed:{type(exc).__name__}"
        if traj is None:
            traj = exc.trajectory
    nfe = 0 if traj is None else traj.nfe
    clamp_events = 0 if traj is None else traj.clamp_events
    if traj is not None and trajectory_path is not None:
        traj.to_csv(trajectory_path)
    wall_ms = (time.perf_counter() - start) * 1e3
    if x_true is None and cfg.image == SYNTHETIC_IMAGE:
        x_true = synthetic_image(cfg.size)
    if x_hat is not None and x_true is not None:
        psnr_db = psnr(x_hat, x_true, peak=1.0)
        ssim_val = ssim(x_hat, x_true, peak=1.0)
        mse_val = mse_metric(x_hat, x_true)
    else:
        psnr_db = ssim_val = mse_val = float("nan")
    report = RunReport(
        run_id=cfg.run_id,
        task=cfg.kind,
        cov_mode=cfg.cov_mode,
        solver=cfg.ode_solver,
        nfe=nfe,
        psnr_db=psnr_db,
        ssim=ssim_val,
        mse=mse_val,
        wall_ms=wall_ms,
        seed=cfg.seed,
        config_hash=cfg.hash(),
        clamp_events=clamp_events,
        status=status,
    )
    return x_hat, report


def bench_cov_modes(cfg: TaskConfig, modes=COV_MODE_KINDS) -> list[RunReport]:
    """One reconstruction per covariance mode on identical y and seed.

    Per-mode failures are recorded in their rows; the sweep always
    returns one row per requested mode, in the requested order. A mode
    the config rejects (zero with sigma_y = 0) raises ConfigError before
    any run starts. cfg serves its own mode; each other mode gets a copy.
    y comes from the first mode's config, whose operator that mode's run
    reuses: the operator depends on the task keys only.
    """
    configs = [cfg if mode == cfg.cov_mode else replace(cfg, cov_mode=mode)
               for mode in modes]
    if not configs:
        raise ValueError("need at least one covariance mode")
    x_true = resolve_truth(cfg)
    y = degrade(configs[0], x_true)
    return [reconstruct(mode_cfg, y, x_true=x_true)[1] for mode_cfg in configs]
