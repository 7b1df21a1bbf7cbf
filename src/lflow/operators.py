"""Linear measurement operators and their adjoints.

Four kinds cover the tasks the package solves plus brute-force testing:

* `MaskOperator`: entry selection (compact output) for inpainting; the
  adjoint zero-fills back onto the grid.
* `CircConvOperator`: circular (periodic) convolution, diagonal in the
  real 2-D DFT basis, for deblurring.
* `ConvDownsampleOperator`: circular convolution followed by s-fold
  subsampling of both axes, for super-resolution.
* `DenseOperator`: an explicit matrix, the anything-goes case used by the
  verification oracle.

Each operator also owns a basis in which A A^T is diagonal, so that
apply_coeffs(adjoint_coeffs(w)) = gram_eigenvalues * w: `coeffs(y)` expands
a measurement in it, `apply_coeffs(x)` gives the coefficients of A x, and
`adjoint_coeffs(w)` applies A^T to the measurement with coefficients w.
`gram(u)` returns A A^T u on the measurement grid without leaving it:
the convolution operators multiply u's coefficients by `gram_eigenvalues`
(one forward and one inverse transform on the measurement grid), the mask
copies u, and a dense operator applies A^T then A.
The two convolution operators use the real DFT (see `lflow.numerics`):
their coefficients and `gram_eigenvalues` are half-spectra of the
measurement grid, (h, w//2 + 1) for an (h, w) grid; the other half follows
by Hermitian symmetry.

`lift(y)` maps a measurement back onto the input grid to seed a sampler
run: masks zero-fill, shape-preserving operators pass y through,
downsamplers upsample through the adjoint scaled by s^2 so flat signals
keep their level, and other dense operators use the plain adjoint.

Boundary handling is periodic everywhere; that is what makes the Fourier
bases exact rather than approximate. Kernels are odd-sized grids anchored
at their geometric center (even sizes are rejected: they would smuggle in
a half-pixel shift).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionGuardError, ShapeMismatchError
from .numerics import RealField, as_field, dft2_forward, dft2_inverse, make_rng

DENSE_MATERIALIZE_LIMIT = 4096


@dataclass(frozen=True)
class Kernel:
    """A 2-D tap grid with odd side lengths, anchored at the center."""

    taps: np.ndarray

    def __post_init__(self):
        taps = as_field(self.taps)
        if taps.ndim != 2:
            raise ShapeMismatchError(f"kernel taps must be 2-D, got {taps.ndim}-D")
        if taps.shape[0] % 2 == 0 or taps.shape[1] % 2 == 0:
            raise ValueError(f"kernel sides must be odd, got {taps.shape}")
        object.__setattr__(self, "taps", taps)

    @property
    def center(self) -> tuple[int, int]:
        return self.taps.shape[0] // 2, self.taps.shape[1] // 2


def embed_kernel(kernel: Kernel, shape: tuple[int, int]) -> np.ndarray:
    """Place the kernel on a field-sized grid with its anchor at (0, 0).

    The placement wraps, matching the periodic convolution it feeds.
    """
    h, w = shape
    kh, kw = kernel.taps.shape
    if kh > h or kw > w:
        raise ShapeMismatchError(
            f"kernel {kernel.taps.shape} does not fit field {shape}"
        )
    padded = np.zeros(shape, dtype=np.float64)
    padded[:kh, :kw] = kernel.taps
    ci, cj = kernel.center
    return np.roll(padded, (-ci, -cj), axis=(0, 1))


def _check_shape(name: str, x: np.ndarray, shape: tuple) -> np.ndarray:
    arr = as_field(x)
    if arr.shape != tuple(shape):
        raise ShapeMismatchError(f"{name}: expected shape {tuple(shape)}, got {arr.shape}")
    return arr


class MaskOperator:
    """Selects the entries where the mask is 1; output is a flat vector.

    Convention: mask value 1 = observed pixel, 0 = hidden. The adjoint
    zero-fills the compact measurement back onto the grid, and
    apply(adjoint(y)) = y exactly (the operator acts as the identity on the
    measurement space), so its basis is the measurement's own entries.
    """

    kind = "mask"
    gram_eigenvalues = 1.0

    def __init__(self, mask):
        mask = as_field(mask)
        if mask.ndim != 2:
            raise ShapeMismatchError("mask must be a 2-D field")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("mask entries must be exactly 0 or 1")
        self.mask = mask
        self._idx = np.flatnonzero(mask.ravel())
        self.input_shape = mask.shape
        self.output_shape = (int(self._idx.size),)

    def apply(self, x) -> np.ndarray:
        x = _check_shape("mask apply", x, self.input_shape)
        return x.ravel()[self._idx].copy()

    def adjoint(self, y) -> np.ndarray:
        y = _check_shape("mask adjoint", y, self.output_shape)
        out = np.zeros(self.mask.size, dtype=np.float64)
        out[self._idx] = y
        return out.reshape(self.input_shape)

    def coeffs(self, y) -> np.ndarray:
        return as_field(y)

    def apply_coeffs(self, x) -> np.ndarray:
        return self.apply(x)

    def adjoint_coeffs(self, w) -> np.ndarray:
        return self.adjoint(w)

    def gram(self, u) -> np.ndarray:
        return _check_shape("mask gram", u, self.output_shape).copy()

    def lift(self, y) -> np.ndarray:
        return self.adjoint(y)


class CircConvOperator:
    """Circular convolution with a fixed kernel on a fixed grid shape.

    Its basis is the real 2-D DFT: coefficients are (h, w//2 + 1)
    half-spectra, on which A A^T multiplies by |k_hat|^2.
    """

    kind = "circconv"

    def __init__(self, kernel: Kernel, shape: tuple[int, int]):
        self.kernel = kernel
        self.input_shape = tuple(shape)
        self.output_shape = tuple(shape)
        self.khat = dft2_forward(embed_kernel(kernel, self.input_shape))
        self.gram_eigenvalues = np.abs(self.khat) ** 2

    def coeffs(self, y) -> np.ndarray:
        return dft2_forward(_check_shape("circconv coeffs", y, self.output_shape))

    def apply_coeffs(self, x) -> np.ndarray:
        x = _check_shape("circconv apply", x, self.input_shape)
        return self.khat * dft2_forward(x)

    def adjoint_coeffs(self, w) -> np.ndarray:
        return dft2_inverse(np.conj(self.khat) * w, self.input_shape)

    def apply(self, x) -> np.ndarray:
        return dft2_inverse(self.apply_coeffs(x), self.output_shape)

    def adjoint(self, y) -> np.ndarray:
        return self.adjoint_coeffs(self.coeffs(y))

    def gram(self, u) -> np.ndarray:
        return dft2_inverse(self.gram_eigenvalues * self.coeffs(u), self.output_shape)

    def lift(self, y) -> np.ndarray:
        return as_field(y)


class ConvDownsampleOperator:
    """Circular convolution followed by s-fold subsampling of both axes.

    The subsample keeps indices 0, s, 2s, ... so the adjoint is zero-fill
    upsampling followed by correlation with the kernel. Its basis is the
    real DFT of the (m1, m2) = (h/s, w/s) low-resolution grid, with
    (m1, m2//2 + 1) half-spectrum coefficients. Subsampling folds a full
    spectrum onto its s x s aliased blocks (`block_average`) and zero-fill
    upsampling tiles it, so A A^T multiplies by the block-folded |k_hat|^2;
    `gram` applies that with one transform pair on the low-resolution grid.

    Both need columns that a half-spectrum does not store: the fold reads
    high-resolution columns j2 + b2 m2 up to (s - 1) m2 + m2//2, and the
    tile reads low-resolution columns k2 mod m2 past m2//2. They are read
    through the Hermitian mirror F[k1, k2] = conj(F[(-k1) % h, w - k2]),
    with gather indices built once in `__init__`.
    """

    kind = "convdown"

    def __init__(self, kernel: Kernel, shape: tuple[int, int], factor: int):
        h, w = shape
        factor = int(factor)
        if factor < 1:
            raise ValueError(f"downsample factor must be >= 1, got {factor}")
        if h % factor or w % factor:
            raise ShapeMismatchError(
                f"factor {factor} must divide both sides of {shape}"
            )
        self.kernel = kernel
        self.factor = factor
        self.input_shape = (h, w)
        m1, m2 = h // factor, w // factor
        self.output_shape = (m1, m2)
        # Fold: column b2 (m2//2 + 1) + j2 of the gathered array is
        # high-resolution column j2 + b2 m2. These increase, so the ones
        # past w//2, read through the mirror, are the last ones.
        n2 = m2 // 2 + 1
        cols = (np.arange(n2) + m2 * np.arange(factor)[:, None]).ravel()
        self._fold_direct = cols[cols <= w // 2]
        self._fold_mirror = w - cols[cols > w // 2]
        self._fold_rows = (-np.arange(h)) % h
        # Tile: low-resolution columns n2..m2 - 1 come from the mirror;
        # high-resolution column k2 is low-resolution column k2 mod m2.
        self._tile_mirror = m2 - np.arange(n2, m2)
        self._tile_rows = (-np.arange(m1)) % m1
        self._tile_cols = np.arange(w // 2 + 1) % m2
        self.khat = dft2_forward(embed_kernel(kernel, self.input_shape))
        self.gram_eigenvalues = self._fold(np.abs(self.khat) ** 2)

    def _fold(self, half: np.ndarray) -> np.ndarray:
        """(h, w//2 + 1) half-spectrum -> its (m1, m2//2 + 1) block fold."""
        mirrored = np.conj(half[self._fold_rows[:, None], self._fold_mirror])
        gathered = np.concatenate((half[:, self._fold_direct], mirrored), axis=1)
        return block_average(gathered, self.factor)

    def _tile(self, low: np.ndarray) -> np.ndarray:
        """(m1, m2//2 + 1) half-spectrum -> its (h, w//2 + 1) s x s tiling."""
        mirrored = np.conj(low[self._tile_rows[:, None], self._tile_mirror])
        full = np.concatenate((low, mirrored), axis=1)
        return np.tile(full[:, self._tile_cols], (self.factor, 1))

    def coeffs(self, y) -> np.ndarray:
        return dft2_forward(_check_shape("convdown coeffs", y, self.output_shape))

    def apply_coeffs(self, x) -> np.ndarray:
        x = _check_shape("convdown apply", x, self.input_shape)
        return self._fold(self.khat * dft2_forward(x))

    def adjoint_coeffs(self, w) -> np.ndarray:
        return dft2_inverse(np.conj(self.khat) * self._tile(w), self.input_shape)

    def apply(self, x) -> np.ndarray:
        x = _check_shape("convdown apply", x, self.input_shape)
        blurred = dft2_inverse(self.khat * dft2_forward(x), self.input_shape)
        return blurred[:: self.factor, :: self.factor].copy()

    def adjoint(self, y) -> np.ndarray:
        return self.adjoint_coeffs(self.coeffs(y))

    def gram(self, u) -> np.ndarray:
        return dft2_inverse(self.gram_eigenvalues * self.coeffs(u), self.output_shape)

    def lift(self, y) -> np.ndarray:
        return float(self.factor**2) * self.adjoint(y)


class DenseOperator:
    """Explicit matrix acting on flattened input, with flattened output
    unless an output shape is given.

    Its basis is the eigenvectors Q of A A^T, cached on first use together
    with Q^T A and A^T Q.
    """

    kind = "dense"

    def __init__(self, matrix, input_shape: tuple | None = None,
                 output_shape: tuple | None = None):
        matrix = as_field(matrix)
        if matrix.ndim != 2:
            raise ShapeMismatchError("dense operator needs a 2-D matrix")
        m, n = matrix.shape
        input_shape = (n,) if input_shape is None else tuple(input_shape)
        output_shape = (m,) if output_shape is None else tuple(output_shape)
        for name, shape, size in (("input", input_shape, n), ("output", output_shape, m)):
            if int(np.prod(shape)) != size:
                raise ShapeMismatchError(f"{name} shape {shape} does not flatten to {size}")
        self.matrix = matrix
        self.input_shape = input_shape
        self.output_shape = output_shape

    def apply(self, x) -> np.ndarray:
        x = _check_shape("dense apply", x, self.input_shape)
        return (self.matrix @ x.ravel()).reshape(self.output_shape)

    def adjoint(self, y) -> np.ndarray:
        y = _check_shape("dense adjoint", y, self.output_shape)
        return (self.matrix.T @ y.ravel()).reshape(self.input_shape)

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        lam, q = np.linalg.eigh(self.matrix @ self.matrix.T)
        return lam, q.T, q.T @ self.matrix, self.matrix.T @ q

    @property
    def gram_eigenvalues(self) -> np.ndarray:
        return self._basis[0]

    def coeffs(self, y) -> np.ndarray:
        return self._basis[1] @ as_field(y).ravel()

    def apply_coeffs(self, x) -> np.ndarray:
        return self._basis[2] @ as_field(x).ravel()

    def adjoint_coeffs(self, w) -> np.ndarray:
        return (self._basis[3] @ w).reshape(self.input_shape)

    def gram(self, u) -> np.ndarray:
        return self.apply(self.adjoint(u))

    def lift(self, y) -> np.ndarray:
        if self.output_shape == self.input_shape:
            return as_field(y)
        return self.adjoint(y)


LinearOperatorDescriptor = (
    MaskOperator | CircConvOperator | ConvDownsampleOperator | DenseOperator
)


def block_average(spectrum: np.ndarray, factor: int) -> np.ndarray:
    """Average an (h, w) grid over its s x s aliasing blocks -> (h/s, w/s).

    Entry (j1, j2) of the result is the mean of spectrum[j1 + b1*h/s,
    j2 + b2*w/s] over all (b1, b2), which is how subsampling folds a
    spectrum.
    """
    h, w = spectrum.shape
    s = int(factor)
    if h % s or w % s:
        raise ShapeMismatchError(f"factor {s} must divide spectrum shape {spectrum.shape}")
    m1, m2 = h // s, w // s
    return spectrum.reshape(s, m1, s, m2).mean(axis=(0, 2))


def dense_materialize(op) -> DenseOperator:
    """Build the explicit matrix of any operator by basis application.

    Brute force on purpose (this backs the oracle tests); guarded at
    DENSE_MATERIALIZE_LIMIT input entries.
    """
    n = int(np.prod(op.input_shape))
    if n > DENSE_MATERIALIZE_LIMIT:
        raise DimensionGuardError(
            f"refusing to materialize {n} columns (limit {DENSE_MATERIALIZE_LIMIT})"
        )
    m = int(np.prod(op.output_shape))
    matrix = np.zeros((m, n), dtype=np.float64)
    basis = np.zeros(n, dtype=np.float64)
    for j in range(n):
        basis[j] = 1.0
        matrix[:, j] = np.asarray(op.apply(basis.reshape(op.input_shape))).ravel()
        basis[j] = 0.0
    return DenseOperator(matrix, input_shape=op.input_shape)


def block_downsample_check(n: int, s: int, seed: int = 0, trials: int = 5) -> float:
    """Max discrepancy between spatial subsampling and spectral folding.

    Checks, with explicit DFT matrices (independent of the FFT used
    everywhere else), that subsampling every s-th sample of an inverse
    transform equals inverse-transforming the block-averaged spectrum:

        F_m . D_down . F_n^{-1} = B

    where B averages the s aliasing blocks of a length-n spectrum with
    weight 1/s. Returns the worst absolute error over random spectra.
    """
    n, s = int(n), int(s)
    if n < 1 or s < 1 or n % s:
        raise ValueError(f"need s | n with positive sizes, got n={n}, s={s}")
    m = n // s
    j = np.arange(n)
    f_n_inv = np.exp(2j * np.pi * np.outer(j, j) / n) / n
    jm = np.arange(m)
    f_m = np.exp(-2j * np.pi * np.outer(jm, jm) / m)
    subsample = np.zeros((m, n))
    subsample[jm, jm * s] = 1.0
    lhs = f_m @ subsample @ f_n_inv
    rhs = np.zeros((m, n), dtype=np.complex128)
    for b in range(s):
        rhs[jm, jm + b * m] = 1.0 / s
    worst = float(np.max(np.abs(lhs - rhs)))
    rng = make_rng(seed)
    for _ in range(trials):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        worst = max(worst, float(np.max(np.abs(lhs @ v - rhs @ v))))
    return worst


def build_gaussian_kernel(size: int, std: float) -> Kernel:
    """Normalized discrete Gaussian, centered. size must be odd."""
    if size % 2 == 0 or size < 1:
        raise ValueError(f"kernel size must be odd and positive, got {size}")
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std}")
    c = size // 2
    r = np.arange(size, dtype=np.float64) - c
    g = np.exp(-(r**2) / (2.0 * std * std))
    taps = np.outer(g, g)
    return Kernel(taps / taps.sum())


def build_motion_kernel(size: int, angle: float, length: int) -> Kernel:
    """Normalized straight-line motion kernel.

    `length` unit-weight taps are laid out along `angle` (radians,
    measured from the positive x axis), centered, with positions rounded
    to the grid; coincident taps accumulate before normalization.
    """
    if size % 2 == 0 or size < 1:
        raise ValueError(f"kernel size must be odd and positive, got {size}")
    if not 1 <= length <= size:
        raise ValueError(f"need 1 <= length <= size, got length={length}, size={size}")
    c = size // 2
    taps = np.zeros((size, size), dtype=np.float64)
    for i in range(length):
        r = i - (length - 1) / 2.0
        col = c + int(round(r * np.cos(angle)))
        row = c - int(round(r * np.sin(angle)))
        if not (0 <= row < size and 0 <= col < size):
            raise ValueError(
                f"length {length} at angle {angle} leaves the {size}x{size} grid"
            )
        taps[row, col] += 1.0
    return Kernel(taps / taps.sum())


def build_bicubic_kernel(factor: int) -> Kernel:
    """Cubic anti-aliasing kernel for s-fold downsampling, size 4s-1.

    The standard two-lobed cubic (a = -0.5) stretched by the factor, so
    that convolve-then-subsample approximates cubic downscaling. At
    factor 1 it degenerates to the delta kernel.
    """
    s = int(factor)
    if s < 1:
        raise ValueError(f"factor must be >= 1, got {s}")

    def keys(x):
        ax = abs(x)
        if ax <= 1.0:
            return 1.5 * ax**3 - 2.5 * ax**2 + 1.0
        if ax < 2.0:
            return -0.5 * ax**3 + 2.5 * ax**2 - 4.0 * ax + 2.0
        return 0.0

    half = 2 * s - 1
    profile = np.array([keys(r / s) for r in range(-half, half + 1)])
    taps = np.outer(profile, profile)
    return Kernel(taps / taps.sum())


def build_box_mask(shape: tuple[int, int], box: tuple[int, int, int, int]) -> np.ndarray:
    """Binary mask that hides a box: 0 inside it, 1 outside.

    box = (top, left, height, width), required to lie within the shape.
    """
    h, w = shape
    top, left, bh, bw = (int(v) for v in box)
    if bh < 0 or bw < 0 or top < 0 or left < 0 or top + bh > h or left + bw > w:
        raise ValueError(f"box {box} does not fit inside shape {shape}")
    mask = np.ones(shape, dtype=np.float64)
    mask[top : top + bh, left : left + bw] = 0.0
    return mask
