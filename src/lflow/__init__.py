"""Posterior-guided flow sampling for linear inverse problems.

The package solves deblurring, super-resolution, and inpainting by
integrating a reverse-time ODE along the straight-line noising path,
steering the unconditional velocity field with an exact or surrogate
measurement-likelihood gradient. Every approximation is validated
against a closed-form linear-Gaussian oracle shipped in `lflow.oracle`.
"""

from .decoders import (
    DiagonalScaleDecoder,
    IdentityDecoder,
    LinearMatrixDecoder,
    decode,
    encode,
    gram_scalar,
    jvp,
    vjp,
)
from .errors import (
    CgConvergenceError,
    ConfigError,
    DimensionGuardError,
    ImageFormatError,
    LflowError,
    MaxStepsExceededError,
    NonFiniteError,
    ShapeMismatchError,
    StepUnderflowError,
    ZeroScaleError,
)
from .fields import (
    AnalyticGaussianField,
    CallbackField,
    CovarianceMode,
    eval_field,
    jacobian_bounds,
    mean_jacobian_scalar,
    posterior_cov_scalar,
    posterior_mean,
)
from .guidance import (
    ClosedFormSolver,
    ConjugateGradientSolver,
    GuidanceSpec,
    conjugate_gradient,
    corrected_velocity,
    inner_vector,
    likelihood_gradient,
)
from .metrics import mse, psnr, ssim
from .operators import (
    CircConvOperator,
    ConvDownsampleOperator,
    DenseOperator,
    Kernel,
    MaskOperator,
    block_downsample_check,
    build_bicubic_kernel,
    build_box_mask,
    build_gaussian_kernel,
    build_motion_kernel,
    dense_materialize,
)
from .oracle import (
    LinearGaussianModel,
    dense_guidance,
    exact_posterior,
    finite_diff_jacobian,
    mc_moments,
    measurement_form_posterior,
    run_oracle_checks,
)
from .sampler import (
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
from .schedule import PathSchedule
from .tasks import (
    TaskConfig,
    bench_cov_modes,
    default_task_config,
    degrade,
    reconstruct,
    synthetic_image,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
