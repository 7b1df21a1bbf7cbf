"""Decoders mapping latent states to pixel fields.

Sampling runs in latent space; the measurement operators act on fields.
A decoder bridges the two. All three kinds here are linear, so their
Jacobian products (`jvp`, `vjp`) do not depend on the base point and the
encode direction is a ridge-regularized least-squares solve.

The guidance math wants to treat the decoder Gram matrix J J^T as a
scalar multiple of the identity. `gram_scalar` returns that multiple
when it is exact (identity and uniform scaling) and falls back to 1.0
with a one-time warning otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ZeroScaleError
from .numerics import RealField, as_field

ENCODE_RIDGE = 1e-10
ZERO_SCALE_TOL = 1e-12
GRAM_ISO_RTOL = 1e-10


@dataclass(frozen=True)
class IdentityDecoder:
    """Latent and field coincide."""

    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))

    @property
    def latent_shape(self) -> tuple:
        return self.shape

    @property
    def field_shape(self) -> tuple:
        return self.shape


@dataclass(frozen=True)
class DiagonalScaleDecoder:
    """Field is the latent times one global scale factor."""

    scale: float
    shape: tuple

    def __post_init__(self):
        if abs(self.scale) < ZERO_SCALE_TOL:
            raise ZeroScaleError(f"decoder scale {self.scale} is numerically zero")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "shape", tuple(self.shape))

    @property
    def latent_shape(self) -> tuple:
        return self.shape

    @property
    def field_shape(self) -> tuple:
        return self.shape


class LinearMatrixDecoder:
    """Field is an arbitrary matrix applied to the flattened latent."""

    def __init__(self, matrix, field_shape: tuple | None = None):
        matrix = as_field(matrix)
        if matrix.ndim != 2:
            raise ShapeMismatchError("decoder matrix must be 2-D")
        m, n = matrix.shape
        if field_shape is None:
            field_shape = (m,)
        if int(np.prod(field_shape)) != m:
            raise ShapeMismatchError(
                f"field shape {field_shape} does not flatten to {m} rows"
            )
        self.matrix = matrix
        self.latent_shape = (n,)
        self.field_shape = tuple(field_shape)
        self._encode_factor = None

    def _solve_encode(self, rhs: np.ndarray) -> np.ndarray:
        if self._encode_factor is None:
            mtm = self.matrix.T @ self.matrix
            mtm = mtm + ENCODE_RIDGE * np.eye(mtm.shape[0])
            self._encode_factor = np.linalg.cholesky(mtm)
        low = self._encode_factor
        return np.linalg.solve(low.T, np.linalg.solve(low, rhs))


DecoderSpec = IdentityDecoder | DiagonalScaleDecoder | LinearMatrixDecoder


def _check(name: str, x, shape: tuple) -> np.ndarray:
    arr = as_field(x)
    if arr.shape != shape:
        raise ShapeMismatchError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


def decode(decoder: DecoderSpec, latent) -> RealField:
    """Map a latent state to its pixel field."""
    z = _check("decode", latent, decoder.latent_shape)
    if isinstance(decoder, IdentityDecoder):
        return z.copy()
    if isinstance(decoder, DiagonalScaleDecoder):
        return decoder.scale * z
    return (decoder.matrix @ z.ravel()).reshape(decoder.field_shape)


def encode(decoder: DecoderSpec, field) -> RealField:
    """Ridge least-squares preimage of a field under the decoder.

    Solves (J^T J + 1e-10 I) c = J^T x, which is exact inversion for the
    identity and scaling decoders up to the negligible ridge.
    """
    x = _check("encode", field, decoder.field_shape)
    if isinstance(decoder, IdentityDecoder):
        return x / (1.0 + ENCODE_RIDGE)
    if isinstance(decoder, DiagonalScaleDecoder):
        return decoder.scale * x / (decoder.scale**2 + ENCODE_RIDGE)
    rhs = decoder.matrix.T @ x.ravel()
    return decoder._solve_encode(rhs).reshape(decoder.latent_shape)


def jvp(decoder: DecoderSpec, tangent) -> RealField:
    """Jacobian-vector product J v; base-point free because J is constant."""
    v = _check("jvp", tangent, decoder.latent_shape)
    if isinstance(decoder, IdentityDecoder):
        return v.copy()
    if isinstance(decoder, DiagonalScaleDecoder):
        return decoder.scale * v
    return (decoder.matrix @ v.ravel()).reshape(decoder.field_shape)


def vjp(decoder: DecoderSpec, cotangent) -> RealField:
    """Transposed product J^T w, the adjoint of jvp."""
    w = _check("vjp", cotangent, decoder.field_shape)
    if isinstance(decoder, IdentityDecoder):
        return w.copy()
    if isinstance(decoder, DiagonalScaleDecoder):
        return decoder.scale * w
    return (decoder.matrix.T @ w.ravel()).reshape(decoder.latent_shape)


def gram_scalar(decoder: DecoderSpec) -> float:
    """The kappa^2 with J J^T = kappa^2 I, or 1.0 with a warning.

    Exact for the identity (1) and uniform scaling (scale^2). A matrix
    decoder qualifies only if its Gram matrix is isotropic to rounding;
    anything else falls back to 1.0 so the guidance covariance stays a
    scalar, and says so once.
    """
    if isinstance(decoder, IdentityDecoder):
        return 1.0
    if isinstance(decoder, DiagonalScaleDecoder):
        return decoder.scale**2
    gram = decoder.matrix @ decoder.matrix.T
    kappa2 = float(np.trace(gram)) / gram.shape[0]
    dev = float(np.max(np.abs(gram - kappa2 * np.eye(gram.shape[0]))))
    if dev <= GRAM_ISO_RTOL * max(1.0, abs(kappa2)):
        return kappa2
    _warn_anisotropic_once()
    return 1.0


_warned_anisotropic = False


def _warn_anisotropic_once() -> None:
    global _warned_anisotropic
    if not _warned_anisotropic:
        warnings.warn(
            "decoder Gram matrix is not isotropic; guidance treats it as identity",
            stacklevel=3,
        )
        _warned_anisotropic = True
