"""Tests for the numeric substrate: DFTs, seeded randomness, field coercion.

The transform checks run two routes against each other wherever possible:
the FFT-backed functions versus explicit DFT matrices, plus the round-trip
and Parseval identities that any correct convention must satisfy. Spectra
are half-spectra: an (h, w) field has (h, w//2 + 1) coefficients.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lflow.errors import NonFiniteError, ShapeMismatchError
from lflow.numerics import (
    _irdft2,
    _rdft2,
    as_field,
    check_shape,
    dft2_forward,
    dft2_inverse,
    gaussian_vector,
    make_rng,
    require_finite,
)


def test_as_field_coerces_to_float64():
    out = as_field([[1, 2], [3, 4]])
    assert out.dtype == np.float64
    assert out.shape == (2, 2)


def test_check_shape_names_the_value_and_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"probe: expected shape \(3, 2\), got \(2, 3\)"):
        check_shape("probe", np.zeros((2, 3)), (3, 2))
    out = check_shape("probe", [[1, 2], [3, 4]], (2, 2))
    assert out.dtype == np.float64


def test_require_finite_rejects_nan_and_inf():
    with pytest.raises(NonFiniteError):
        require_finite("probe", np.array([0.0, np.nan]))
    with pytest.raises(NonFiniteError):
        require_finite("probe", np.array([np.inf]))


def test_forward_dft_of_constant_field_is_dc_only():
    spec = dft2_forward(np.full((4, 4), 0.75))
    assert spec.shape == (4, 3)
    assert spec[0, 0] == pytest.approx(16 * 0.75, abs=1e-12)
    rest = spec.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_forward_dft_of_origin_delta_is_all_ones():
    field = np.zeros((3, 5))
    field[0, 0] = 1.0
    spec = dft2_forward(field)
    np.testing.assert_allclose(spec, np.ones((3, 3)), atol=1e-12)


def test_inverse_dft_of_all_ones_spectrum_is_origin_delta():
    field = dft2_inverse(np.ones((4, 3), dtype=np.complex128), (4, 4))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(field, expected, atol=1e-12)


def test_inverse_dft_of_constant_spectrum_dc_gives_constant_field():
    spec = np.zeros((4, 3), dtype=np.complex128)
    spec[0, 0] = 16 * 0.3
    np.testing.assert_allclose(dft2_inverse(spec, (4, 4)), np.full((4, 4), 0.3), atol=1e-12)


def test_round_trip_on_random_8x8_field():
    rng = make_rng(0)
    x = rng.normal(size=(8, 8))
    back = dft2_inverse(dft2_forward(x), x.shape)
    assert np.max(np.abs(back - x)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=64),
    w=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(h=5, w=7, seed=0)  # w = 7 and w = 6 share the half-spectrum width 4
@example(h=1, w=1, seed=0)
def test_round_trip_identity_over_random_shapes(h, w, seed):
    x = make_rng(seed).normal(size=(h, w))
    spec = dft2_forward(x)
    assert spec.shape == (h, w // 2 + 1)
    back = dft2_inverse(spec, (h, w))
    assert back.shape == (h, w)
    scale = max(1.0, float(np.max(np.abs(x))))
    assert np.max(np.abs(back - x)) < 1e-12 * scale


def test_inverse_dft_rejects_a_mismatched_shape():
    spec = dft2_forward(make_rng(4).normal(size=(5, 7)))
    with pytest.raises(ShapeMismatchError):
        dft2_inverse(spec, (5, 8))
    with pytest.raises(ShapeMismatchError):
        dft2_inverse(spec, (4, 7))


def test_forward_dft_matches_explicit_matrix():
    # Independent route: the raw double sum via explicit DFT matrices,
    # of which the half-spectrum keeps columns 0..w//2.
    for h, w in ((5, 7), (4, 6)):
        x = make_rng(3).normal(size=(h, w))
        fi = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
        fj = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
        reference = fi @ x @ fj.T
        np.testing.assert_allclose(dft2_forward(x), reference[:, : w // 2 + 1], atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=32),
    w=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_parseval_under_the_documented_convention(h, w, seed):
    x = make_rng(seed).normal(size=(h, w))
    # Each column other than DC (and Nyquist at even w) stands for its mirror.
    weight = np.full(w // 2 + 1, 2.0)
    weight[0] = 1.0
    if w % 2 == 0:
        weight[-1] = 1.0
    lhs = float(np.sum(x * x)) * (h * w)
    rhs = float(np.sum(weight * np.abs(dft2_forward(x)) ** 2))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("shape", [(64, 64), (63, 65), (45, 42), (7, 9), (1, 8), (1, 7),
                                   (8, 1), (7, 1), (1, 1)])
def test_transforms_equal_numpys_2d_real_transforms_bit_for_bit(shape):
    rng = make_rng(11)
    x = rng.normal(size=shape)
    assert np.array_equal(dft2_forward(x), np.fft.rfft2(x))
    spec = np.fft.rfft2(x) * rng.normal(size=(shape[0], shape[1] // 2 + 1))
    assert np.array_equal(dft2_inverse(spec, shape), np.fft.irfft2(spec, s=shape))


@pytest.mark.parametrize("shape", [(64, 64), (63, 65), (45, 42), (7, 9), (1, 8), (1, 7),
                                   (8, 1), (7, 1), (1, 1), (256, 256)])
def test_private_pair_equals_numpys_2d_real_transforms_bit_for_bit(shape):
    # The unchecked pair behind the operators' hot members: in-place axis-0
    # passes, same bits as rfft2/irfft2, a fresh forward output, and an
    # inverse that consumes the spectrum it is handed.
    rng = make_rng(12)
    x = rng.normal(size=shape)
    x_before = x.copy()
    spec = _rdft2(x)
    assert np.array_equal(spec, np.fft.rfft2(x))
    assert np.array_equal(x, x_before)
    assert spec.flags.owndata and spec.base is None
    spec *= rng.normal(size=spec.shape)
    want = np.fft.irfft2(spec, s=shape)
    assert np.array_equal(_irdft2(spec, shape), want)


def test_inverse_dft_never_writes_its_argument():
    spec = np.fft.rfft2(make_rng(13).normal(size=(6, 7)))
    spec.flags.writeable = False
    before = spec.copy()
    assert np.array_equal(dft2_inverse(spec, (6, 7)), np.fft.irfft2(before, s=(6, 7)))
    assert np.array_equal(spec, before)


def test_forward_dft_of_a_huge_finite_field_does_not_warn():
    # The finiteness scan must not square the input: 1e200 squared
    # overflows, and the suite turns that RuntimeWarning into an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = dft2_forward(np.full((4, 4), 1e200))
    assert abs(spec[0, 0] - 16e200) <= 1e-12 * 16e200


def test_forward_dft_rejects_non_finite_input():
    bad = np.zeros((4, 4))
    bad[1, 2] = np.nan
    with pytest.raises(NonFiniteError):
        dft2_forward(bad)


def test_inverse_dft_rejects_non_finite_input():
    spec = np.zeros((4, 3), dtype=np.complex128)
    spec[1, 1] = complex(0.0, np.inf)
    with pytest.raises(NonFiniteError):
        dft2_inverse(spec, (4, 4))


def test_forward_dft_rejects_non_2d_input():
    with pytest.raises(ShapeMismatchError):
        dft2_forward(np.zeros(8))


def test_rng_streams_are_reproducible():
    a = make_rng(42).normal(size=16)
    b = make_rng(42).normal(size=16)
    np.testing.assert_array_equal(a, b)


def test_rng_streams_differ_across_seeds():
    a = make_rng(1).normal(size=16)
    b = make_rng(2).normal(size=16)
    assert np.max(np.abs(a - b)) > 0


def test_gaussian_vector_zero_std_returns_mean_without_drawing():
    rng = make_rng(9)
    out = gaussian_vector(rng, (3, 2), mean=1.5, std=0.0)
    np.testing.assert_array_equal(out, np.full((3, 2), 1.5))
    # The generator state must be untouched by the degenerate call.
    np.testing.assert_array_equal(rng.normal(size=4), make_rng(9).normal(size=4))


def test_gaussian_vector_determinism_per_seed():
    a = gaussian_vector(make_rng(42), (8,))
    b = gaussian_vector(make_rng(42), (8,))
    np.testing.assert_array_equal(a, b)


def test_gaussian_vector_moments_at_scale():
    draws = gaussian_vector(make_rng(7), (100_000,))
    assert abs(float(draws.mean())) < 0.02
    assert abs(float(draws.std()) - 1.0) < 0.02


def test_gaussian_vector_rejects_negative_std():
    with pytest.raises(ValueError):
        gaussian_vector(make_rng(0), (4,), std=-0.1)
