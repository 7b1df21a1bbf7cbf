"""Decoders mapping latent states to pixel fields.

Sampling runs in latent space; the measurement operators act on fields.
A decoder bridges the two. Both kinds here are linear, and each owns its
formulas: `decode(z)`, the ridge-regularized least-squares preimage
`encode(x)`, and `compose(op)`. The identity decoder is the scale
decoder at scale 1.0: its decode is exact, but its encode divides by
1 + ENCODE_RIDGE, which moves every nonzero entry by a relative 1e-10.

Guidance sees the measurement map from latent space, B = A o decode.
`latent_operator` builds it once per run through the decoder's
`compose`: a scale decoder wraps the operator in a `ScaledOperator` over
the same basis (the unit scale returns the operator itself), and a
matrix decoder gives a `DenseOperator` whose columns are A applied to
the decoder's columns. Each result has the operator protocol of
`lflow.operators`, basis members included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ShapeMismatchError, ZeroScaleError
from .numerics import RealField, as_field, check_shape, matvec
from .operators import DenseOperator, LinearOperatorDescriptor

ENCODE_RIDGE = 1e-10
ZERO_SCALE_TOL = 1e-12


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

    def decode(self, z: np.ndarray) -> RealField:
        return self.scale * z

    def encode(self, x: np.ndarray) -> RealField:
        return self.scale * x / (self.scale**2 + ENCODE_RIDGE)

    def compose(self, op: LinearOperatorDescriptor):
        return op if self.scale == 1.0 else ScaledOperator(op, self.scale)


# Latent and field coincide: the unit scale, whose decode is an exact
# copy and whose composition is the operator itself.
IdentityDecoder = partial(DiagonalScaleDecoder, 1.0)


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

    def decode(self, z: np.ndarray) -> RealField:
        return matvec(self.matrix, z.ravel()).reshape(self.field_shape)

    @cached_property
    def _ridge_inverse(self) -> np.ndarray:
        u, s, vt = np.linalg.svd(self.matrix, full_matrices=False)
        return (vt.T * (s / (s * s + ENCODE_RIDGE))) @ u.T

    def encode(self, x: np.ndarray) -> RealField:
        return matvec(self._ridge_inverse, x.ravel()).reshape(self.latent_shape)

    def compose(self, op: LinearOperatorDescriptor) -> DenseOperator:
        columns = [op.apply(col.reshape(self.field_shape)).ravel() for col in self.matrix.T]
        return DenseOperator(np.stack(columns, axis=1), input_shape=self.latent_shape,
                             output_shape=op.output_shape)


DecoderSpec = DiagonalScaleDecoder | LinearMatrixDecoder


def decode(decoder: DecoderSpec, latent) -> RealField:
    """Map a latent state to its pixel field."""
    return decoder.decode(check_shape("decode", latent, decoder.latent_shape))


def encode(decoder: DecoderSpec, field) -> RealField:
    """Ridge least-squares preimage of a field under the decoder.

    c = (J^T J + 1e-10 I)^{-1} J^T x, exact inversion for the scale decoders
    up to the negligible ridge. Per singular value s of J it is
    s / (s^2 + 1e-10): a matrix decoder applies V diag(s / (s^2 + 1e-10)) U^T
    from its thin SVD J = U diag(s) V^T, cached on first use.
    """
    return decoder.encode(check_shape("encode", field, decoder.field_shape))


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
        self.carry_coeffs = op.carry_coeffs
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

    A scale decoder gives a `ScaledOperator` over op's basis, or op
    itself at scale 1.0, and a matrix decoder M the `DenseOperator` with
    columns A M[:, j] (any operator kind; its basis is cached from B's
    thin SVD, `lflow.operators.DenseOperator`), on op's measurement grid.
    """
    if decoder.field_shape != tuple(op.input_shape):
        raise ShapeMismatchError(f"decoder field shape {decoder.field_shape} is not "
                                 f"the operator input shape {tuple(op.input_shape)}")
    return decoder.compose(op)
