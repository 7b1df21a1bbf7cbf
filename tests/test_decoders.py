"""Tests for the latent-to-field decoders and their linear algebra.

Covers exact decode/encode round trips, linearity, shape checks, and how
`latent_operator` folds each decoder kind into the measurement map. The
operator protocol of the folded maps is tested with the operators, and
their guidance velocities against the oracle.
"""

import numpy as np
import pytest

from lflow.decoders import (
    ENCODE_RIDGE,
    DiagonalScaleDecoder,
    IdentityDecoder,
    LinearMatrixDecoder,
    decode,
    encode,
    latent_operator,
)
from lflow.errors import ShapeMismatchError, ZeroScaleError
from lflow.numerics import make_rng
from lflow.operators import CircConvOperator, DenseOperator, build_gaussian_kernel


def make_decoders(seed=0):
    rng = make_rng(seed)
    return [
        IdentityDecoder((3, 2)),
        DiagonalScaleDecoder(1.7, (3, 2)),
        LinearMatrixDecoder(rng.normal(size=(6, 4)), field_shape=(3, 2)),
    ]


def test_identity_decode_returns_a_copy():
    dec = IdentityDecoder((2, 2))
    z = np.ones((2, 2))
    out = decode(dec, z)
    np.testing.assert_array_equal(out, z)
    out[0, 0] = 5.0
    assert z[0, 0] == 1.0


def test_scale_decode_example():
    dec = DiagonalScaleDecoder(2.0, (2,))
    np.testing.assert_array_equal(decode(dec, np.array([1.0, -1.0])), [2.0, -2.0])


def test_matrix_decode_matches_dense_reference():
    rng = make_rng(1)
    matrix = rng.normal(size=(6, 4))
    dec = LinearMatrixDecoder(matrix, field_shape=(2, 3))
    z = rng.normal(size=4)
    np.testing.assert_allclose(
        decode(dec, z).ravel(), matrix @ z, atol=1e-12
    )


@pytest.mark.parametrize("idx", range(3))
def test_decode_is_linear(idx):
    dec = make_decoders()[idx]
    rng = make_rng(10 + idx)
    u = rng.normal(size=dec.latent_shape)
    w = rng.normal(size=dec.latent_shape)
    lhs = decode(dec, 2.0 * u - 3.0 * w)
    rhs = 2.0 * decode(dec, u) - 3.0 * decode(dec, w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_identity_encode_example():
    dec = IdentityDecoder((2,))
    np.testing.assert_allclose(encode(dec, np.array([3.0, 4.0])), [3.0, 4.0], atol=1e-9)


@pytest.mark.parametrize("idx", range(3))
def test_encode_inverts_decode(idx):
    dec = make_decoders()[idx]
    z = make_rng(20 + idx).normal(size=dec.latent_shape)
    tol = 1e-8 if isinstance(dec, LinearMatrixDecoder) else 1e-9
    np.testing.assert_allclose(encode(dec, decode(dec, z)), z, atol=tol)


def test_matrix_encode_is_the_least_squares_preimage():
    rng = make_rng(2)
    matrix = rng.normal(size=(8, 3))
    dec = LinearMatrixDecoder(matrix)
    x = rng.normal(size=8)
    expected, *_ = np.linalg.lstsq(matrix, x, rcond=None)
    np.testing.assert_allclose(encode(dec, x), expected, atol=1e-7)


def test_scale_decoder_rejects_numerically_zero_scale():
    with pytest.raises(ZeroScaleError):
        DiagonalScaleDecoder(1e-13, (2,))


def test_shape_validation_on_all_entry_points():
    dec = DiagonalScaleDecoder(2.0, (3,))
    with pytest.raises(ShapeMismatchError):
        decode(dec, np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        encode(dec, np.zeros((3, 1)))
    with pytest.raises(ShapeMismatchError):
        latent_operator(DenseOperator(np.eye(4)), dec)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_scale_decoder_rejects_a_non_finite_scale(value):
    with pytest.raises(ValueError, match="not finite"):
        DiagonalScaleDecoder(value, (2,))


def test_latent_operator_composes_the_operator_with_decode():
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (4, 4))
    assert latent_operator(op, IdentityDecoder((4, 4))) is op
    assert latent_operator(op, DiagonalScaleDecoder(1.0, (4, 4))) is op
    rng = make_rng(8)
    for dec in (DiagonalScaleDecoder(-1.5, (4, 4)),
                LinearMatrixDecoder(rng.normal(size=(16, 5)), field_shape=(4, 4))):
        b = latent_operator(op, dec)
        assert b.input_shape == dec.latent_shape and b.output_shape == op.output_shape
        z = rng.normal(size=dec.latent_shape)
        np.testing.assert_allclose(b.apply(z), op.apply(decode(dec, z)), atol=1e-12)


def test_identity_decoder_keeps_the_exact_formulas():
    # The unit scale gives the bits of a copy and of x / (1 + ridge), over
    # the whole exponent range.
    dec = IdentityDecoder((3, 4))
    rng = make_rng(9)
    z = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-300, 300, size=(3, 4))
    np.testing.assert_array_equal(decode(dec, z), z.copy())
    np.testing.assert_array_equal(encode(dec, z), z / (1.0 + ENCODE_RIDGE))
