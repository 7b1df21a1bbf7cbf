"""Decoders mapping latent states to pixel fields.

Sampling runs in latent space; the measurement operators act on fields.
A decoder bridges the two. All three kinds here are linear, and the
encode direction is a ridge-regularized least-squares solve.

Guidance sees the measurement map from latent space, B = A o decode.
`latent_operator` builds it once per run and is the only place that
decides how a decoder enters it: the identity decoder gives the operator
itself, a scale decoder wraps it in a `ScaledOperator` over the same
basis, and a matrix decoder gives a `DenseOperator` whose columns are A
applied to the decoder's columns. Each result has the operator protocol
of `lflow.operators`, basis members included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ZeroScaleError
from .numerics import RealField, as_field
from .operators import DenseOperator, LinearOperatorDescriptor

ENCODE_RIDGE = 1e-10
ZERO_SCALE_TOL = 1e-12


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
        if not math.isfinite(self.scale):
            raise ValueError(f"decoder scale {self.scale} is not finite")
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


class ScaledOperator:
    """An operator composed with a scale decoder: x -> op.apply(scale x).

    It keeps op's basis: a measurement has op's coefficients, A and A^T
    (and their coefficient forms) pick up the scale, and A A^T and its
    eigenvalues pick up its square.
    """

    def __init__(self, op: LinearOperatorDescriptor, scale: float):
        self.op = op
        self.scale = float(scale)
        self.kind = f"scaled-{op.kind}"
        self.input_shape = op.input_shape
        self.output_shape = op.output_shape
        self.gram_eigenvalues = self.scale * self.scale * op.gram_eigenvalues
        self.coeffs = op.coeffs

    def apply(self, x) -> np.ndarray:
        return self.scale * self.op.apply(x)

    def adjoint(self, y) -> np.ndarray:
        return self.scale * self.op.adjoint(y)

    def apply_coeffs(self, x) -> np.ndarray:
        return self.scale * self.op.apply_coeffs(x)

    def adjoint_coeffs(self, w) -> np.ndarray:
        return self.scale * self.op.adjoint_coeffs(w)

    def gram(self, u) -> np.ndarray:
        return self.scale * self.scale * self.op.gram(u)


def latent_operator(op: LinearOperatorDescriptor, decoder: DecoderSpec):
    """B = A o decode, the measurement map seen from latent space.

    The identity decoder returns op itself, a scale decoder a
    `ScaledOperator` over op's basis, and a matrix decoder M the
    `DenseOperator` with columns A M[:, j] (any operator kind; its basis
    is the cached eigendecomposition of B B^T), on op's measurement grid.
    """
    if decoder.field_shape != tuple(op.input_shape):
        raise ShapeMismatchError(f"decoder field shape {decoder.field_shape} is not "
                                 f"the operator input shape {tuple(op.input_shape)}")
    if isinstance(decoder, IdentityDecoder):
        return op
    if isinstance(decoder, DiagonalScaleDecoder):
        return ScaledOperator(op, decoder.scale)
    columns = [op.apply(col.reshape(decoder.field_shape)).ravel() for col in decoder.matrix.T]
    return DenseOperator(np.stack(columns, axis=1), input_shape=decoder.latent_shape,
                         output_shape=op.output_shape)
