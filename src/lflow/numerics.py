"""Deterministic numeric substrate: fields, 2-D DFTs, seeded Gaussians.

Conventions, fixed once for the whole package:

* Real fields are 2-D float64 arrays (height, width), row-major. Measurement
  vectors may be 1-D; everything is 64-bit.
* The DFT is unnormalized forward, 1/N inverse (numpy's default). All
  frequency-domain quotients used elsewhere are scale-free, so this choice
  never leaks into results.
* Spectra of real fields are half-spectra (numpy's rfft2): an (h, w) field
  maps to (h, w//2 + 1) coefficients, columns 0..w//2 of the full DFT. The
  other columns follow from Hermitian symmetry,
  F[k1, k2] = conj(F[(-k1) % h, w - k2]), so the inverse needs the field's
  shape (an odd width cannot be told from the half-spectrum) and returns a
  real field by construction. Parseval reads
  ||x||^2 * N = sum_k c_k2 |x_hat[k1, k2]|^2 with N = h * w, where the
  column weight c is 1 for the DC column and, at even w, for the Nyquist
  column w/2, and 2 for every other column (it stands for its mirror).
* Each 2-D transform is two 1-D passes: the forward runs rfft along
  axis 1 then fft along axis 0, the inverse ifft along axis 0 then irfft
  along axis 1. That is the order numpy's rfft2/irfft2 use, so the bits
  are the same; calling the 1-D transforms directly skips rfftn/irfftn's
  argument handling, which is a sizeable share of a 64 x 64 transform.
  The axis-0 pass runs in place (`out=`), which gives the same bits
  without a second full-size spectrum.
* Two transform pairs share that code. The public `dft2_forward` and
  `dft2_inverse` check shapes and reject non-finite input; the inverse
  copies its argument, so it never writes a caller's array. The private
  `_rdft2` and `_irdft2` check nothing and are for operator internals
  whose inputs a run has already checked (the operators' `apply_coeffs`,
  `adjoint_coeffs` and `gram`). `_rdft2` returns a fresh array that
  nothing else references. `_irdft2` takes ownership of the spectrum it
  is given and overwrites it, so the caller hands over an array it built
  for the call and never reads again. These four functions are the
  package's only route to np.fft.
* Inner products go through `dot`, whose bits do not depend on the BLAS
  thread count: OpenBLAS splits a long dot product across threads, so
  `ndarray.dot` of 65,536 entries rounds differently with one thread
  than with two. `dot` calls BLAS up to `BLAS_DOT_MAX` entries (measured
  thread-independent at 8 and 4,096) and einsum's own loop above that.
  Matrix-vector products go through `matvec`, which is `ndarray.dot`:
  the same BLAS gemv as `@` and the same bits, without matmul's ufunc
  dispatch (at 5 x 8 on a 2-vCPU VM, 0.44 µs per product against 0.85
  µs for `@`). Its bits do not depend on the thread count either
  (measured next to `BLAS_DOT_MAX`). `dot` and `matvec` are the
  package's only routes to `ndarray.dot` and `np.vdot`.
* Randomness comes from numpy's PCG64 via `make_rng`; identical seeds give
  identical streams on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError

RealField = np.ndarray
ComplexSpectrum = np.ndarray
SeededRng = np.random.Generator

# Longest inner product `dot` hands to BLAS: at 8 and 4,096 entries the bits
# were measured equal for 1 and 2 OpenBLAS threads, at 16,384 they differ.
BLAS_DOT_MAX = 4096
# `matvec` needs no such bound: A x and A^T y through `ndarray.dot` were
# measured equal to `@` and equal for 1 and 2 OpenBLAS threads at 5 x 8,
# 8 x 5, 64 x 4096, 4096 x 64, 1024 x 1024 and 4096 x 4096.


def as_field(x) -> RealField:
    """Coerce to a float64 array."""
    return np.asarray(x, dtype=np.float64)


def check_shape(name: str, x, shape: tuple) -> RealField:
    """x as a float64 array of exactly the given shape; the error names x."""
    arr = as_field(x)
    if arr.shape != tuple(shape):
        raise ShapeMismatchError(f"{name}: expected shape {tuple(shape)}, got {arr.shape}")
    return arr


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) over two float64 arrays of one shape, as a Python float.

    The same bits for any BLAS thread count (module docstring).
    """
    a, b = a.ravel(), b.ravel()
    if a.size <= BLAS_DOT_MAX:
        return float(a.dot(b))
    return float(np.einsum("i,i->", a, b))


def matvec(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x for a 2-D float64 matrix and a 1-D vector, as a fresh array.

    The same bits as `@` for any BLAS thread count (module docstring).
    """
    return matrix.dot(x)


def _rdft2(field: RealField) -> ComplexSpectrum:
    """Unchecked half-spectrum of a 2-D float64 field; a fresh array."""
    spec = np.fft.rfft(field, axis=1)
    return np.fft.fft(spec, axis=0, out=spec)


def _irdft2(spectrum: ComplexSpectrum, shape: tuple[int, int]) -> RealField:
    """Unchecked real field of an owned complex128 half-spectrum.

    Overwrites `spectrum`: its axis-0 pass runs in place.
    """
    return np.fft.irfft(np.fft.ifft(spectrum, axis=0, out=spectrum), n=shape[1], axis=1)


def dft2_forward(field: RealField) -> ComplexSpectrum:
    """Unnormalized 2-D half-spectrum of a real field: (h, w) -> (h, w//2 + 1).

    Rejects non-finite input: a NaN anywhere poisons the whole spectrum and
    every closed-form guidance solve downstream.
    """
    arr = as_field(field)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatchError(f"expected a 2-D field, got shape {arr.shape}")
    require_finite("dft2_forward input", arr)
    return _rdft2(arr)


def dft2_inverse(spectrum: ComplexSpectrum, shape: tuple[int, int]) -> RealField:
    """Real (h, w) field of an (h, w//2 + 1) half-spectrum (1/N normalization).

    The shape is required because an odd width cannot be told from the
    half-spectrum. A DC column (or, at even w, a Nyquist column) that is
    not Hermitian along axis 0 has no real field to come from; the final
    irfft drops its anti-Hermitian part, so the output is always real.
    The transform runs on a copy, so `spectrum` is never written.
    """
    spec = np.array(spectrum, dtype=np.complex128)
    h, w = (int(n) for n in shape)
    if spec.shape != (h, w // 2 + 1):
        raise ShapeMismatchError(
            f"expected a half-spectrum of shape {(h, w // 2 + 1)} for field "
            f"{(h, w)}, got {spec.shape}"
        )
    require_finite("dft2_inverse input", spec.view(np.float64))
    return _irdft2(spec, (h, w))


def make_rng(seed: int) -> SeededRng:
    """Seeded generator with a platform-stable stream (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


def gaussian_vector(rng: SeededRng, shape, mean: float = 0.0, std: float = 1.0):
    """I.i.d. Gaussian draws.

    std = 0 returns exactly `mean` everywhere without touching the
    generator (no degenerate sampling).
    """
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    if std == 0.0:
        return np.full(shape, float(mean), dtype=np.float64)
    return rng.normal(loc=mean, scale=std, size=shape)
