"""Linear measurement operators and their adjoints.

Three classes cover the tasks the package solves plus brute-force testing:

* `MaskOperator`: entry selection (compact output) for inpainting; the
  adjoint zero-fills back onto the grid.
* `ConvDownsampleOperator`: circular (periodic) convolution followed by
  s-fold subsampling of both axes, for super-resolution. At s = 1 it is
  plain circular convolution, for deblurring: `CircConvOperator(kernel,
  shape)` is this class at factor 1 under the kind "circconv".
* `DenseOperator`: an explicit matrix, the anything-goes case used by the
  verification oracle.

Each operator also owns a basis in which A A^T is diagonal, so that
apply_coeffs(adjoint_coeffs(w)) = gram_eigenvalues * w: `coeffs(y)` expands
a measurement in it, `apply_coeffs(x)` gives the coefficients of A x, and
`adjoint_coeffs(w)` applies A^T to the measurement with coefficients w.
`gram(u)` returns A A^T u on the measurement grid without leaving it:
the convolution multiplies u's coefficients by `gram_eigenvalues`
(one forward and one inverse transform on the measurement grid), the mask
copies u, and a dense operator applies A^T then A. Its result is always a
fresh array, which the CG matvec in `lflow.guidance` scales in place.
The convolution uses the real DFT (see `lflow.numerics`): its
coefficients and `gram_eigenvalues` are half-spectra of the measurement
grid, (h, w//2 + 1) for an (h, w) grid; the other half follows by
Hermitian symmetry. Where an array enters from outside a run, its
forward transform is the checked `dft2_forward`, which rejects non-finite
input: `coeffs` (a measurement), `apply`, `adjoint`, `lift` and the
kernel spectrum built in `__init__`. The members a guidance evaluation
calls, `apply_coeffs`, `adjoint_coeffs` and `gram`, use the unchecked
private `_rdft2` instead: their inputs are states and solver iterates
that the run checks elsewhere (the measurement once per run in
`lflow.guidance.make_velocity`, every accepted state in the sampler's
recorder). Every inverse is the private `_irdft2` on a spectrum built
for it from a checked or run-checked input, which it overwrites. The
convolution caches conj(k_hat) next to k_hat, so the adjoint does not
conjugate per call, and `gram` scales the spectrum it has just computed
in place. Complex-by-complex products keep the written form
`khat * spec`: numpy's complex multiply can round differently with its
operands swapped, so a rewrite must keep the bits of that expression as
numpy evaluates it. Numpy computes `a * b` whose b is an unreferenced
temporary of 256 KiB or more in place on b, with the operands swapped;
`khat * _rdft2(x)` and `khat * dft2_forward(x)` do that at 256^2, in the
code and in the reference formula alike. Where a buffer is reused on
purpose the order is spelled out instead: the adjoint writes
np.multiply(conj_khat, tiled, out=tiled), the operand order of
`conj_khat * tile`, which its owned tile would otherwise swap.

The dense operator takes its basis from the thin SVD of its m x n matrix
A for every shape: the min(m, n) left singular vectors U, with
eigenvalues s^2. For m > n, A A^T has rank at most n, and an m x n SVD
(0.02 s at m = 4096, n = 64 on a 2-vCPU VM) replaces an m^2 eigensolve
of A A^T (6.7 s); the measurement coefficients it drops lie in the null
space of A^T, which `adjoint_coeffs` maps to zero, so the closed form
loses nothing. U stays orthonormal where A is rank-deficient; a zero
singular value is only a zero eigenvalue, never a divisor. Every dense
product with a vector goes through `lflow.numerics.matvec`.

`carry_coeffs` says whether a closed-form run should step a state's
coefficients beside the state (`lflow.guidance`, `lflow.sampler`): true
for the convolution, whose `apply_coeffs` is a transform of the whole
input grid, and false for the mask and the dense operator, whose
coefficients cost a gather or a small product, less than carrying them.

Subsampling acts only through its fold, which `lflow lemma-b1` checks
against subsampling in space: `apply` inverts the folded product on the
measurement grid. The fold and the tile are the identity at s = 1, and
there the convolution skips them: `apply`, `apply_coeffs` and
`gram_eigenvalues` take the product spectrum as it is, and the adjoint
multiplies conj(k_hat) into a fresh product and leaves its input alone.
At s > 1 each is one gather through a flat index table that `__init__`
builds, then one conjugation masked to the entries read through the
Hermitian mirror; the fold then sums its s^2 gathered blocks in order
and divides by s^2, the bits of a reshaped `mean` over the blocks.

`lift(y)` maps a measurement back onto the input grid to seed a sampler
run: masks zero-fill, shape-preserving operators (the convolution at
s = 1) pass y through, downsamplers upsample through the adjoint scaled
by s^2 so flat signals keep their level, and other dense operators use
the plain adjoint.

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
from .numerics import (
    _irdft2,
    _rdft2,
    as_field,
    check_shape,
    dft2_forward,
    make_rng,
    matvec,
)

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


class MaskOperator:
    """Selects the entries where the mask is 1; output is a flat vector.

    Convention: mask value 1 = observed pixel, 0 = hidden. The adjoint
    zero-fills the compact measurement back onto the grid, and
    apply(adjoint(y)) = y exactly (the operator acts as the identity on the
    measurement space), so its basis is the measurement's own entries.
    """

    kind = "mask"
    gram_eigenvalues = 1.0
    carry_coeffs = False

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
        x = check_shape("mask apply", x, self.input_shape)
        return x.ravel()[self._idx]

    def adjoint(self, y) -> np.ndarray:
        y = check_shape("mask adjoint", y, self.output_shape)
        out = np.zeros(self.mask.size, dtype=np.float64)
        out[self._idx] = y
        return out.reshape(self.input_shape)

    def coeffs(self, y) -> np.ndarray:
        return check_shape("mask coeffs", y, self.output_shape)

    def apply_coeffs(self, x) -> np.ndarray:
        return self.apply(x)

    def adjoint_coeffs(self, w) -> np.ndarray:
        return self.adjoint(w)

    def gram(self, u) -> np.ndarray:
        return check_shape("mask gram", u, self.output_shape).copy()

    def lift(self, y) -> np.ndarray:
        return self.adjoint(y)


class ConvDownsampleOperator:
    """Circular convolution followed by s-fold subsampling of both axes.

    The subsample keeps indices 0, s, 2s, ... so the adjoint is zero-fill
    upsampling followed by correlation with the kernel. Its basis is the
    real DFT of the (m1, m2) = (h/s, w/s) low-resolution grid, with
    (m1, m2//2 + 1) half-spectrum coefficients. Subsampling folds a full
    spectrum onto the mean of its s x s aliased blocks and zero-fill
    upsampling tiles it, so A A^T multiplies by the block-folded |k_hat|^2;
    `gram` applies that with one transform pair on the low-resolution grid,
    and `apply` inverts the folded product k_hat x_hat there.

    Both need entries that a half-spectrum does not store: the fold reads
    high-resolution columns j2 + b2 m2 up to (s - 1) m2 + m2//2, and the
    tile reads low-resolution columns k2 mod m2 past m2//2. They are read
    through the Hermitian mirror F[k1, k2] = conj(F[(-k1) % h, w - k2]).
    `__init__` resolves every entry once into a flat index of the C-ordered
    half-spectrum and a mask of the mirrored ones: the fold's table has
    shape (s^2, m1, m2//2 + 1), block (b1, b2) at b1 s + b2, and the tile's
    (h, w//2 + 1). Each call is then one `take`, one conjugation where the
    mask is set, and for the fold a sum over the blocks.

    At s = 1 it is circular convolution: its basis is the real 2-D DFT of
    the grid itself, on which A A^T multiplies by |k_hat|^2, and the fold
    and the tile are skipped.
    """

    kind = "convdown"
    carry_coeffs = True

    def __init__(self, kernel: Kernel, shape: tuple[int, int], factor: int):
        h, w = shape
        factor = int(factor)
        if factor < 1:
            raise ValueError(f"downsample factor must be >= 1, got {factor}")
        if h % factor or w % factor:
            raise ShapeMismatchError(
                f"factor {factor} must divide both sides of {shape}"
            )
        self.factor = factor
        self.input_shape = (h, w)
        m1, m2 = h // factor, w // factor
        self.output_shape = (m1, m2)
        if factor > 1:
            # Fold: block (b1, b2), b1 outer, entry (j1, j2) reads high-resolution
            # point (j1 + b1 m1, j2 + b2 m2). Tile: entry (k1, k2) reads
            # low-resolution point (k1 mod m1, k2 mod m2).
            b1, b2, j1, j2 = np.ix_(*map(range, (factor, factor, m1, m2 // 2 + 1)))
            self._fold_index, self._fold_mirror = (
                a.reshape(factor * factor, m1, -1) for a in
                _half_index(j1 + b1 * m1, j2 + b2 * m2, (h, w)))
            k1, k2 = np.ix_(range(h), range(w // 2 + 1))
            self._tile_index, self._tile_mirror = _half_index(k1 % m1, k2 % m2, (m1, m2))
        self.khat = dft2_forward(embed_kernel(kernel, self.input_shape))
        self._khat_conj = np.conj(self.khat)
        self.gram_eigenvalues = self._fold(np.abs(self.khat) ** 2)

    def _fold(self, half: np.ndarray) -> np.ndarray:
        """(h, w//2 + 1) half-spectrum -> its (m1, m2//2 + 1) block fold."""
        if self.factor == 1:
            return half
        blocks = half.take(self._fold_index)
        np.conjugate(blocks, out=blocks, where=self._fold_mirror)
        folded = np.add.reduce(blocks, axis=0)
        folded /= self.factor * self.factor
        return folded

    def _tile(self, low: np.ndarray) -> np.ndarray:
        """(m1, m2//2 + 1) half-spectrum -> its (h, w//2 + 1) s x s tiling."""
        if self.factor == 1:
            return low
        tiled = low.take(self._tile_index)
        np.conjugate(tiled, out=tiled, where=self._tile_mirror)
        return tiled

    def coeffs(self, y) -> np.ndarray:
        return dft2_forward(check_shape(f"{self.kind} coeffs", y, self.output_shape))

    def apply_coeffs(self, x) -> np.ndarray:
        x = check_shape(f"{self.kind} apply", x, self.input_shape)
        return self._fold(self.khat * _rdft2(x))

    def _adjoint_spectrum(self, w) -> np.ndarray:
        # At s = 1 a fresh product, so w is neither written nor copied.
        if self.factor == 1:
            return self._khat_conj * w
        # Spelled out with conj(k_hat) first: the tile is a fresh, unreferenced
        # array, which `self._khat_conj * self._tile(w)` would let numpy reuse
        # with the operands swapped (see the module docstring).
        tiled = self._tile(w)
        return np.multiply(self._khat_conj, tiled, out=tiled)

    def adjoint_coeffs(self, w) -> np.ndarray:
        return _irdft2(self._adjoint_spectrum(w), self.input_shape)

    def apply(self, x) -> np.ndarray:
        x = check_shape(f"{self.kind} apply", x, self.input_shape)
        return _irdft2(self._fold(self.khat * dft2_forward(x)), self.output_shape)

    def adjoint(self, y) -> np.ndarray:
        return _irdft2(self._adjoint_spectrum(self.coeffs(y)), self.input_shape)

    def gram(self, u) -> np.ndarray:
        spec = _rdft2(check_shape(f"{self.kind} gram", u, self.output_shape))
        spec *= self.gram_eigenvalues
        return _irdft2(spec, self.output_shape)

    def lift(self, y) -> np.ndarray:
        if self.factor == 1:
            return as_field(y)
        return float(self.factor**2) * self.adjoint(y)


class CircConvOperator(ConvDownsampleOperator):
    """Circular convolution with a fixed kernel on a fixed grid shape: the
    convolution-downsampler at factor 1."""

    kind = "circconv"

    def __init__(self, kernel: Kernel, shape: tuple[int, int]):
        super().__init__(kernel, shape, 1)


def _half_index(k1, k2, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Where full-spectrum points (k1, k2) of a real (r, c) grid lie in its
    C-ordered (r, c//2 + 1) half-spectrum: the flat index, and a mask of
    the points read through the mirror F[k1, k2] = conj(F[(-k1) % r, c - k2])."""
    rows, cols = shape
    width = cols // 2 + 1
    k1, k2 = np.broadcast_arrays(k1, k2)
    mirror = k2 >= width
    index = np.where(mirror, (-k1) % rows * width + cols - k2, k1 * width + k2)
    return index, mirror


class DenseOperator:
    """Explicit matrix acting on flattened input, with flattened output
    unless an output shape is given.

    Its basis Q, the left singular vectors of A's thin SVD (module
    docstring), is cached on first use together with Q^T A and A^T Q.
    `apply_coeffs` takes a float64 array, a run's state, as it is: an
    evaluation does not re-wrap it.
    """

    kind = "dense"
    carry_coeffs = False

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
        x = check_shape("dense apply", x, self.input_shape)
        return matvec(self.matrix, x.ravel()).reshape(self.output_shape)

    def adjoint(self, y) -> np.ndarray:
        y = check_shape("dense adjoint", y, self.output_shape)
        return matvec(self.matrix.T, y.ravel()).reshape(self.input_shape)

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        q, s, _ = np.linalg.svd(self.matrix, full_matrices=False)
        return s * s, q.T, q.T @ self.matrix, self.matrix.T @ q

    @property
    def gram_eigenvalues(self) -> np.ndarray:
        return self._basis[0]

    def coeffs(self, y) -> np.ndarray:
        return matvec(self._basis[1], check_shape("dense coeffs", y, self.output_shape).ravel())

    def apply_coeffs(self, x) -> np.ndarray:
        return matvec(self._basis[2], x.ravel())

    def adjoint_coeffs(self, w) -> np.ndarray:
        return matvec(self._basis[3], w).reshape(self.input_shape)

    def gram(self, u) -> np.ndarray:
        return self.apply(self.adjoint(u))

    def lift(self, y) -> np.ndarray:
        if self.output_shape == self.input_shape:
            return as_field(y)
        return self.adjoint(y)


LinearOperatorDescriptor = (
    MaskOperator | ConvDownsampleOperator | DenseOperator
)


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
    if not (std > 0 and std * std > 0):
        raise ValueError(f"std must be > 0 with a square that does not underflow, got {std}")
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
