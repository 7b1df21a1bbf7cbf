"""Task presets and the degrade/reconstruct pipeline.

A `TaskConfig` is a flat, serializable bundle of every knob a run needs;
it mirrors the config-file grammar one to one (see `config.CONFIG_SCHEMA`)
and builds the runtime objects on demand. The four task kinds cover the
canonical desk-scale suite: 64x64 images, 9x9 blur kernels, 2x
super-resolution, 32x32 centered box inpainting.

Pixel fields live in [0, 1]; the prior field is zero-mean, so the
pipeline centers measurements around the operator image of mid-gray
before sampling and undoes the shift afterwards. All four operator kinds
map a constant 0.5 field to 0.5 measurements exactly (blur taps sum to
one), so the centering is exact, not approximate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields as dataclass_fields, replace

import numpy as np

from .config import config_hash
from .decoders import DiagonalScaleDecoder, IdentityDecoder, decode
from .errors import ConfigError, LflowError, ZeroScaleError
from .fields import AnalyticGaussianField, COV_MODE_KINDS, CovarianceMode
from .guidance import ClosedFormSolver, ConjugateGradientSolver, GuidanceSpec
from .metrics import mse as mse_metric, psnr, ssim
from .numerics import make_rng
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
    INIT_MODES,
    SamplerConfig,
    inpaint_splice,
    sample_posterior,
)

TASK_KINDS = ("gaussian-deblur", "motion-deblur", "super-resolution", "box-inpaint")
GUIDANCE_SOLVER_NAMES = ("closed-form", "cg")
ODE_SOLVER_NAMES = ("adaptive", "euler", "heun")
REPORT_FORMATS = ("csv", "json")
SYNTHETIC_IMAGE = "synthetic"

# Measurement noise must not replay the sampler's noise stream, so the
# degrade generator runs at a fixed offset from the run seed.
DEGRADE_SEED_OFFSET = 1_000_003

# (section, key) in the config grammar -> TaskConfig attribute.
_FIELD_MAP = {
    ("task", "kind"): "kind",
    ("task", "size"): "size",
    ("task", "kernel_size"): "kernel_size",
    ("task", "kernel_std"): "kernel_std",
    ("task", "kernel_angle"): "kernel_angle",
    ("task", "kernel_length"): "kernel_length",
    ("task", "sr_factor"): "sr_factor",
    ("task", "box_size"): "box_size",
    ("task", "sigma_y"): "sigma_y",
    ("task", "image"): "image",
    ("prior", "sigma_latr"): "sigma_latr",
    ("prior", "decoder_kind"): "decoder_kind",
    ("prior", "decoder_scale"): "decoder_scale",
    ("guidance", "cov_mode"): "cov_mode",
    ("guidance", "k_steps"): "k_steps",
    ("guidance", "solver"): "guidance_solver",
    ("guidance", "cg_tol"): "cg_tol",
    ("guidance", "cg_max_iter"): "cg_max_iter",
    ("guidance", "literal_update"): "literal_update",
    ("sampler", "solver"): "ode_solver",
    ("sampler", "t_s"): "t_s",
    ("sampler", "atol"): "atol",
    ("sampler", "rtol"): "rtol",
    ("sampler", "steps"): "steps",
    ("sampler", "h_init"): "h_init",
    ("sampler", "h_min"): "h_min",
    ("sampler", "max_steps"): "max_steps",
    ("sampler", "init_mode"): "init_mode",
    ("sampler", "seed"): "seed",
    ("run", "out_dir"): "out_dir",
    ("run", "report_format"): "report_format",
}
_CONFIG_KEY = {attr: f"[{section}] {key}" for (section, key), attr in _FIELD_MAP.items()}


@dataclass(frozen=True)
class TaskConfig:
    """Flat run configuration; see the module docstring and config grammar.

    h_init = 0 means automatic (span / 50). Defaults here are the shared
    base; `default_task_config` applies the per-task tolerance presets.
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
            ("init_mode", INIT_MODES),
            ("report_format", REPORT_FORMATS),
            ("decoder_kind", ("identity", "scale")),
        ):
            value = getattr(self, attr)
            if value not in allowed:
                raise ValueError(f"{_CONFIG_KEY[attr]}: {value!r} not one of {allowed}")
        if self.size < 1:
            raise ValueError(f"{_CONFIG_KEY['size']}: must be >= 1, got {self.size}")
        if self.sigma_y == 0.0 and self.cov_mode == "zero":
            raise ConfigError(f"{_CONFIG_KEY['sigma_y']} = 0 with {_CONFIG_KEY['cov_mode']} "
                              f"= zero makes the measurement system S = sigma_y^2 I "
                              f"+ r2 A A^T singular (r2 = 0 in zero mode)")
        size = f"{_CONFIG_KEY['size']} ({self.size})"
        if self.kind == "box-inpaint" and not 0 <= self.box_size <= self.size:
            raise ValueError(f"{_CONFIG_KEY['box_size']}: must be between 0 and {size}, "
                             f"got {self.box_size}")
        if self.kind in ("gaussian-deblur", "motion-deblur") and self.kernel_size > self.size:
            raise ValueError(f"{_CONFIG_KEY['kernel_size']}: must be <= {size}, "
                             f"got {self.kernel_size}")
        if self.kind == "motion-deblur" and not 1 <= self.kernel_length <= self.kernel_size:
            raise ValueError(f"{_CONFIG_KEY['kernel_length']}: must be between 1 and "
                             f"{_CONFIG_KEY['kernel_size']} ({self.kernel_size}), "
                             f"got {self.kernel_length}")
        # The bicubic kernel of factor s has 4 s - 1 taps a side.
        if self.kind == "super-resolution" and (
                self.sr_factor < 1 or self.size % self.sr_factor
                or 4 * self.sr_factor - 1 > self.size):
            raise ValueError(f"{_CONFIG_KEY['sr_factor']}: must be >= 1, divide {size} "
                             f"and keep its 4 s - 1 kernel within it, got {self.sr_factor}")

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
        """Instantiate the measurement operator; returns (operator, mask).

        mask is the binary observation mask for box-inpaint and None for
        the other kinds.
        """
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

    def build_field(self) -> AnalyticGaussianField:
        return AnalyticGaussianField(sigma_latr=self.sigma_latr)

    def build_decoder(self):
        shape = self.image_shape()
        if self.decoder_kind == "identity":
            return IdentityDecoder(shape)
        return DiagonalScaleDecoder(self.decoder_scale, shape)

    def build_guidance(self) -> GuidanceSpec:
        if self.guidance_solver == "cg":
            solver = ConjugateGradientSolver(max_iter=self.cg_max_iter,
                                             tol=self.cg_tol)
        else:
            solver = ClosedFormSolver()
        return GuidanceSpec(
            cov_mode=CovarianceMode(kind=self.cov_mode),
            solver=solver,
            sigma_y=self.sigma_y,
            k_steps=self.k_steps,
            literal_update=self.literal_update,
        )

    def build_sampler(self) -> SamplerConfig:
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
        return SamplerConfig(
            t_s=self.t_s, solver=solver, guidance=self.build_guidance(),
            seed=self.seed, init_mode=self.init_mode,
        )


def default_task_config(kind: str, **overrides) -> TaskConfig:
    """The per-task preset: loose tolerances where the guidance is rough
    (inpainting, motion) and tight ones for the smooth-spectrum tasks."""
    if kind not in TASK_KINDS:
        raise ValueError(f"unknown task kind {kind!r}; expected one of {TASK_KINDS}")
    tol = 1e-3 if kind in ("box-inpaint", "motion-deblur") else 1e-5
    base = {"kind": kind, "atol": tol, "rtol": tol}
    base.update(overrides)
    return TaskConfig(**base)


def task_config_from_sections(sections: dict[str, dict]) -> TaskConfig:
    """Build a TaskConfig from parsed config sections over the preset
    defaults for the file's task kind.

    The runtime objects are built once here, so a value they reject
    surfaces as a ConfigError naming its section (and its key where the
    message knows it) before any run starts.
    """
    kind = sections.get("task", {}).get("kind", "gaussian-deblur")
    if kind not in TASK_KINDS:
        raise ConfigError(f"[task] kind: {kind!r} not one of {TASK_KINDS}")
    values = {}
    for (section, key), attr in _FIELD_MAP.items():
        if section in sections and key in sections[section]:
            values[attr] = sections[section][key]
    try:
        cfg = replace(default_task_config(kind), **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # The decoder's only rejectable value is its scale.
    for where, build in (("[task]", cfg.build_operator),
                         (f"{_CONFIG_KEY['decoder_scale']}:", cfg.build_decoder),
                         ("[guidance]", cfg.build_guidance),
                         ("[sampler]", cfg.build_sampler)):
        try:
            build()
        except (ValueError, ZeroScaleError) as exc:
            raise ConfigError(f"{where} {exc}") from exc
    return cfg


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
    if size < 4:
        raise ValueError(f"size must be >= 4, got {size}")
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

    image = read_image(cfg.image)
    if image.shape != cfg.image_shape():
        raise ConfigError(f"{_CONFIG_KEY['image']}: {cfg.image!r} is "
                          f"{image.shape[0]}x{image.shape[1]}, but {_CONFIG_KEY['size']} "
                          f"= {cfg.size} needs {cfg.size}x{cfg.size}")
    return image


def degrade(cfg: TaskConfig, x_true=None, rng=None) -> np.ndarray:
    """Forward model only: y = A x + sigma_y * noise.

    The default generator is seeded from cfg.seed at a fixed offset so
    measurement noise is reproducible but independent of the sampler's
    own draws.
    """
    if x_true is None:
        x_true = resolve_truth(cfg)
    if rng is None:
        rng = make_rng(cfg.seed + DEGRADE_SEED_OFFSET)
    op, _ = cfg.build_operator()
    y = op.apply(x_true)
    if cfg.sigma_y > 0:
        y = y + cfg.sigma_y * rng.standard_normal(y.shape)
    return y


def reconstruct(cfg: TaskConfig, y, x_true=None,
                trajectory_path=None) -> tuple[np.ndarray | None, RunReport]:
    """Full pipeline: init, integrate, denoise, decode, splice, report.

    Metrics are computed against x_true when available (passed in, or
    regenerated for synthetic configs); otherwise they are NaN. Solver
    failures produce a report row with a failed status, and the NFE and
    clamp events spent before the failure, instead of raising. The
    reconstruction is None exactly when status is not ok.
    """
    start = time.perf_counter()
    y = np.asarray(y, dtype=np.float64)
    op, mask = cfg.build_operator()
    field = cfg.build_field()
    dec = cfg.build_decoder()
    sampler_cfg = cfg.build_sampler()
    offset = op.apply(np.full(op.input_shape, 0.5))
    x_hat = None
    nfe = 0
    clamp_events = 0
    status = "ok"
    try:
        z_hat, traj = sample_posterior(
            sampler_cfg, field, dec, op, y - offset,
            record_residuals=trajectory_path is not None,
        )
        nfe = traj.nfe
        clamp_events = traj.clamp_events
        if trajectory_path is not None:
            traj.to_csv(trajectory_path)
        x_hat = np.clip(decode(dec, z_hat) + 0.5, 0.0, 1.0)
        if mask is not None:
            x_hat = inpaint_splice(mask, op.adjoint(y), x_hat)
    except LflowError as exc:
        status = f"failed:{type(exc).__name__}"
        if exc.trajectory is not None:
            nfe = exc.trajectory.nfe
            clamp_events = exc.trajectory.clamp_events
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
    any run starts.
    """
    configs = [replace(cfg, cov_mode=mode) for mode in modes]
    if not configs:
        raise ValueError("need at least one covariance mode")
    x_true = resolve_truth(cfg)
    y = degrade(cfg, x_true)
    return [reconstruct(mode_cfg, y, x_true=x_true)[1] for mode_cfg in configs]
