"""Tests for the latent-to-field decoders and their linear algebra.

Covers exact decode/encode round trips, the jvp/vjp transpose pairing,
finite-difference agreement for the Jacobian products, and the isotropy
detection behind the scalar Gram factor.
"""

import numpy as np
import pytest

import lflow.decoders
from lflow.decoders import (
    DiagonalScaleDecoder,
    IdentityDecoder,
    LinearMatrixDecoder,
    decode,
    encode,
    gram_scalar,
    jvp,
    vjp,
)
from lflow.errors import ShapeMismatchError, ZeroScaleError
from lflow.numerics import make_rng
from lflow.oracle import finite_diff_jacobian


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


@pytest.mark.parametrize("idx", range(3))
def test_jvp_vjp_transpose_pairing(idx):
    dec = make_decoders()[idx]
    rng = make_rng(30 + idx)
    for _ in range(5):
        u = rng.normal(size=dec.latent_shape)
        w = rng.normal(size=dec.field_shape)
        lhs = float(np.vdot(jvp(dec, u), w))
        rhs = float(np.vdot(u, vjp(dec, w)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_identity_jvp_norm_preservation():
    dec = IdentityDecoder((4,))
    u = make_rng(3).normal(size=4)
    assert np.linalg.norm(jvp(dec, u)) == pytest.approx(np.linalg.norm(u), abs=1e-12)


def test_unit_scale_jvp_norm_preservation():
    dec = DiagonalScaleDecoder(1.0, (4,))
    u = make_rng(4).normal(size=4)
    assert np.linalg.norm(jvp(dec, u)) == pytest.approx(np.linalg.norm(u), abs=1e-12)


@pytest.mark.parametrize("idx", range(3))
def test_jvp_matches_finite_differences_of_decode(idx):
    dec = make_decoders()[idx]
    at = make_rng(40 + idx).normal(size=dec.latent_shape)
    jac = finite_diff_jacobian(lambda z: decode(dec, z), at, step=1e-5)
    u = make_rng(50 + idx).normal(size=dec.latent_shape)
    np.testing.assert_allclose(jac @ u.ravel(), jvp(dec, u).ravel(), atol=1e-6)


def test_shape_validation_on_all_entry_points():
    dec = DiagonalScaleDecoder(2.0, (3,))
    with pytest.raises(ShapeMismatchError):
        decode(dec, np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        encode(dec, np.zeros((3, 1)))
    with pytest.raises(ShapeMismatchError):
        jvp(dec, np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        vjp(dec, np.zeros(5))


def test_gram_scalar_for_the_exact_cases():
    assert gram_scalar(IdentityDecoder((3,))) == 1.0
    assert gram_scalar(DiagonalScaleDecoder(-2.0, (3,))) == pytest.approx(4.0, abs=1e-15)


def test_gram_scalar_detects_isotropic_matrix_decoders():
    # Orthonormal rows scaled by 3: M M^T = 9 I exactly (up to rounding).
    q, _ = np.linalg.qr(make_rng(6).normal(size=(5, 3)))
    dec = LinearMatrixDecoder(3.0 * q.T)
    assert gram_scalar(dec) == pytest.approx(9.0, rel=1e-9)


def test_gram_scalar_warns_once_for_anisotropic_decoders(monkeypatch):
    monkeypatch.setattr(lflow.decoders, "_warned_anisotropic", False)
    dec = LinearMatrixDecoder(make_rng(7).normal(size=(5, 3)))
    with pytest.warns(UserWarning):
        assert gram_scalar(dec) == 1.0
    # The second call stays silent.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gram_scalar(dec) == 1.0
