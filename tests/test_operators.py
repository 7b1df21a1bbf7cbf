"""Tests for the measurement operators, kernels and masks.

Adjointness and dense materialization are the workhorses: every operator
kind, and every latent measurement map B = A o decode that
`latent_operator` builds from one, is checked against the inner-product
identity and against its brute-force matrix, and the convolution path is
additionally compared to a literal space-domain double sum so the
spectral route never validates itself.
"""

import numpy as np
import pytest

from lflow.decoders import DiagonalScaleDecoder, LinearMatrixDecoder, latent_operator
from lflow.errors import DimensionGuardError, ShapeMismatchError
from lflow.numerics import dft2_inverse, make_rng
from lflow.operators import (
    DENSE_MATERIALIZE_LIMIT,
    CircConvOperator,
    ConvDownsampleOperator,
    DenseOperator,
    Kernel,
    MaskOperator,
    block_average,
    block_downsample_check,
    build_bicubic_kernel,
    build_box_mask,
    build_gaussian_kernel,
    build_motion_kernel,
    dense_materialize,
    embed_kernel,
)


def delta_kernel() -> Kernel:
    return Kernel(np.array([[1.0]]))


def latent_operators(ops, rng, matrix_base):
    """A scale decoder over each operator, then a matrix decoder over
    matrix_base, folded in by latent_operator."""
    scaled = [latent_operator(op, DiagonalScaleDecoder(-1.3, op.input_shape)) for op in ops]
    field_shape = matrix_base.input_shape
    matrix = rng.normal(size=(field_shape[0] * field_shape[1], 7))
    dec = LinearMatrixDecoder(matrix, field_shape=field_shape)
    return scaled + [latent_operator(matrix_base, dec)]


def make_operators(shape=(8, 8), seed=0):
    rng = make_rng(seed)
    mask = (rng.uniform(size=shape) < 0.6).astype(np.float64)
    mask[0, 0] = 1.0
    ops = [
        MaskOperator(mask),
        CircConvOperator(build_gaussian_kernel(3, 1.0), shape),
        ConvDownsampleOperator(build_gaussian_kernel(3, 1.0), shape, 2),
        DenseOperator(rng.normal(size=(5, shape[0] * shape[1])), input_shape=shape),
    ]
    return ops + latent_operators(ops, rng, ops[2])


OPERATOR_COUNT = len(make_operators())


def brute_force_circular_convolution(taps, x):
    h, w = x.shape
    kh, kw = taps.shape
    ci, cj = kh // 2, kw // 2
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for u in range(kh):
                for v in range(kw):
                    acc += taps[u, v] * x[(i - (u - ci)) % h, (j - (v - cj)) % w]
            out[i, j] = acc
    return out


@pytest.mark.parametrize("idx", range(OPERATOR_COUNT))
def test_adjoint_inner_product_identity(idx):
    op = make_operators()[idx]
    rng = make_rng(100 + idx)
    for _ in range(5):
        x = rng.normal(size=op.input_shape)
        y = rng.normal(size=op.output_shape)
        lhs = float(np.vdot(op.apply(x), y))
        rhs = float(np.vdot(x, op.adjoint(y)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("idx", range(OPERATOR_COUNT))
def test_dense_materialization_agrees_with_apply_and_adjoint(idx):
    op = make_operators()[idx]
    dense = dense_materialize(op)
    rng = make_rng(200 + idx)
    x = rng.normal(size=op.input_shape)
    y = rng.normal(size=op.output_shape)
    np.testing.assert_allclose(
        dense.matrix @ x.ravel(), np.asarray(op.apply(x)).ravel(), atol=1e-10
    )
    np.testing.assert_allclose(
        dense.matrix.T @ np.asarray(y).ravel(),
        np.asarray(op.adjoint(y)).ravel(),
        atol=1e-10,
    )


def basis_operators():
    """Every operator kind at even and odd shapes, then latent maps.

    The conv-downsamplers include odd low-resolution widths (21 at
    (42, 42)/2, 15 at (45, 45)/3, 11 at (21, 33)/3) and factor 1. A scale
    decoder is folded into one operator of each kind (the conv-downsampler
    with the odd low-resolution width), and a matrix decoder into the
    (45, 45)/3 conv-downsampler.
    """
    rng = make_rng(7)
    kernel = build_gaussian_kernel(5, 1.2)
    motion = build_motion_kernel(5, 0.4, 4)
    mask = (rng.uniform(size=(9, 7)) < 0.5).astype(np.float64)
    ops = [
        MaskOperator(mask),
        CircConvOperator(kernel, (16, 16)),
        CircConvOperator(motion, (9, 7)),
        ConvDownsampleOperator(build_bicubic_kernel(2), (64, 64), 2),
        ConvDownsampleOperator(build_bicubic_kernel(2), (42, 42), 2),
        ConvDownsampleOperator(build_bicubic_kernel(3), (45, 45), 3),
        ConvDownsampleOperator(kernel, (21, 33), 3),
        ConvDownsampleOperator(kernel, (25, 25), 5),
        ConvDownsampleOperator(kernel, (64, 64), 4),
        ConvDownsampleOperator(motion, (10, 12), 1),
        DenseOperator(rng.normal(size=(6, 20)), input_shape=(4, 5)),
        DenseOperator(rng.normal(size=(12, 12))),
    ]
    return ops + latent_operators([ops[0], ops[2], ops[4], ops[10]], rng, ops[5])


def assert_rel_close(actual, expected, rtol=1e-12):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


@pytest.mark.parametrize("op", basis_operators(), ids=lambda op: f"{op.kind}{op.input_shape}")
def test_basis_members_diagonalize_the_gram_operator(op):
    rng = make_rng(300)
    x = rng.normal(size=op.input_shape)
    y = rng.normal(size=op.output_shape)
    c = op.coeffs(y)
    lam = op.gram_eigenvalues
    assert np.broadcast_shapes(np.shape(lam), np.shape(c)) == np.shape(c)
    assert_rel_close(op.apply_coeffs(op.adjoint_coeffs(c)), lam * c)
    assert_rel_close(op.adjoint_coeffs(c), op.adjoint(y))
    assert_rel_close(op.apply_coeffs(x), op.coeffs(op.apply(x)))
    gram = op.gram(y)
    assert_rel_close(gram, op.apply(op.adjoint(y)))
    assert gram is not y and not np.shares_memory(gram, y)
    if op.kind.removeprefix("scaled-") in ("circconv", "convdown"):
        assert np.shape(c) == (op.output_shape[0], op.output_shape[1] // 2 + 1)
        assert_rel_close(dft2_inverse(op.apply_coeffs(x), op.output_shape), op.apply(x))


@pytest.mark.parametrize("idx", range(OPERATOR_COUNT))
def test_gram_rejects_a_wrongly_shaped_measurement(idx):
    op = make_operators(shape=(8, 6))[idx]
    with pytest.raises(ShapeMismatchError):
        op.gram(np.zeros((op.output_shape[0] + 1,) + op.output_shape[1:]))


def test_convolution_with_delta_kernel_is_identity():
    op = CircConvOperator(delta_kernel(), (6, 6))
    x = make_rng(1).normal(size=(6, 6))
    np.testing.assert_allclose(op.apply(x), x, atol=1e-12)


def test_convolution_matches_brute_force_double_sum():
    kernel = build_gaussian_kernel(3, 1.0)
    op = CircConvOperator(kernel, (8, 8))
    x = make_rng(2).normal(size=(8, 8))
    np.testing.assert_allclose(
        op.apply(x), brute_force_circular_convolution(kernel.taps, x), atol=1e-12
    )


def test_convolution_adjoint_is_convolution_with_reversed_kernel():
    taps = make_rng(3).normal(size=(3, 3))
    op = CircConvOperator(Kernel(taps), (8, 8))
    reversed_op = CircConvOperator(Kernel(taps[::-1, ::-1].copy()), (8, 8))
    y = make_rng(4).normal(size=(8, 8))
    np.testing.assert_allclose(op.adjoint(y), reversed_op.apply(y), atol=1e-10)


def test_mask_with_all_ones_passes_everything_through():
    op = MaskOperator(np.ones((4, 4)))
    x = make_rng(5).normal(size=(4, 4))
    np.testing.assert_array_equal(op.apply(x), x.ravel())


def test_mask_apply_after_adjoint_is_identity_on_measurements():
    mask = np.zeros((4, 4))
    mask[1:3, 1:3] = 1.0
    op = MaskOperator(mask)
    y = make_rng(6).normal(size=op.output_shape)
    np.testing.assert_array_equal(op.apply(op.adjoint(y)), y)


def test_mask_rejects_non_binary_entries():
    with pytest.raises(ValueError):
        MaskOperator(np.full((2, 2), 0.5))


def test_downsample_with_delta_kernel_is_pure_subsampling():
    op = ConvDownsampleOperator(delta_kernel(), (2, 4), 2)
    x = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    np.testing.assert_allclose(op.apply(x), [[1.0, 3.0]], atol=1e-12)


def test_downsample_shapes_and_factor_validation():
    op = ConvDownsampleOperator(build_gaussian_kernel(3, 1.0), (8, 8), 2)
    assert op.output_shape == (4, 4)
    with pytest.raises(ShapeMismatchError):
        ConvDownsampleOperator(delta_kernel(), (6, 6), 4)
    with pytest.raises(ValueError):
        ConvDownsampleOperator(delta_kernel(), (6, 6), 0)


def test_block_average_folds_aliasing_blocks():
    spectrum = np.arange(16.0).reshape(4, 4)
    out = block_average(spectrum, 2)
    # Entry (j1, j2) averages spectrum[j1 + 2 b1, j2 + 2 b2] over b1, b2.
    expected = np.empty((2, 2))
    for j1 in range(2):
        for j2 in range(2):
            expected[j1, j2] = np.mean(
                [spectrum[j1 + 2 * b1, j2 + 2 * b2] for b1 in range(2) for b2 in range(2)]
            )
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_spectral_folding_matches_spatial_subsampling():
    assert block_downsample_check(8, 1) < 1e-12
    assert block_downsample_check(16, 2) < 1e-10
    assert block_downsample_check(16, 4) < 1e-10
    with pytest.raises(ValueError):
        block_downsample_check(10, 4)


def test_dense_materialize_guard():
    op = CircConvOperator(delta_kernel(), (65, 65))
    assert 65 * 65 > DENSE_MATERIALIZE_LIMIT
    with pytest.raises(DimensionGuardError):
        dense_materialize(op)


def test_gaussian_kernel_normalization_and_shape():
    kernel = build_gaussian_kernel(9, 1.5)
    assert kernel.taps.shape == (9, 9)
    assert kernel.taps.sum() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_kernel_size_one_is_delta():
    kernel = build_gaussian_kernel(1, 2.0)
    np.testing.assert_array_equal(kernel.taps, [[1.0]])


def test_gaussian_kernel_cross_section_ratio():
    kernel = build_gaussian_kernel(3, 1.0)
    # Along the center row the tap ratio is exp(1/2) regardless of the
    # normalization constant.
    ratio = kernel.taps[1, 1] / kernel.taps[1, 0]
    assert ratio == pytest.approx(np.exp(0.5), abs=1e-6)


def test_gaussian_kernel_validation():
    with pytest.raises(ValueError):
        build_gaussian_kernel(4, 1.0)
    with pytest.raises(ValueError):
        build_gaussian_kernel(3, 0.0)


def test_motion_kernel_length_one_is_delta():
    kernel = build_motion_kernel(5, 0.7, 1)
    expected = np.zeros((5, 5))
    expected[2, 2] = 1.0
    np.testing.assert_array_equal(kernel.taps, expected)


def test_motion_kernel_horizontal_line():
    kernel = build_motion_kernel(5, 0.0, 3)
    expected = np.zeros((5, 5))
    expected[2, 1:4] = 1.0 / 3.0
    np.testing.assert_allclose(kernel.taps, expected, atol=1e-15)


def test_motion_kernel_vertical_line():
    kernel = build_motion_kernel(5, np.pi / 2, 3)
    assert kernel.taps.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(kernel.taps[1:4, 2], np.full(3, 1.0 / 3.0), atol=1e-12)


def test_motion_kernel_validation():
    with pytest.raises(ValueError):
        build_motion_kernel(4, 0.0, 3)
    with pytest.raises(ValueError):
        build_motion_kernel(5, 0.0, 6)


def test_bicubic_kernel_degenerates_to_delta_at_factor_one():
    kernel = build_bicubic_kernel(1)
    delta = np.zeros((3, 3))
    delta[1, 1] = 1.0
    np.testing.assert_allclose(kernel.taps, delta, atol=1e-15)


def test_bicubic_kernel_shape_and_normalization():
    kernel = build_bicubic_kernel(2)
    assert kernel.taps.shape == (7, 7)
    assert kernel.taps.sum() == pytest.approx(1.0, abs=1e-12)


def test_box_mask_degenerate_boxes():
    np.testing.assert_array_equal(build_box_mask((4, 4), (0, 0, 0, 0)), np.ones((4, 4)))
    np.testing.assert_array_equal(build_box_mask((4, 4), (0, 0, 4, 4)), np.zeros((4, 4)))


def test_box_mask_centered_box_counts():
    mask = build_box_mask((64, 64), (16, 16, 32, 32))
    # Hidden box pixels are 0, observed surroundings are 1.
    assert int(np.sum(mask == 0.0)) == 1024
    assert int(np.sum(mask == 1.0)) == 3072


def test_box_mask_rejects_out_of_bounds_boxes():
    with pytest.raises(ValueError):
        build_box_mask((8, 8), (4, 4, 8, 8))


def test_kernel_rejects_even_sides():
    with pytest.raises(ValueError):
        Kernel(np.ones((2, 3)))


def test_embed_kernel_anchors_center_at_origin():
    taps = np.arange(9.0).reshape(3, 3)
    grid = embed_kernel(Kernel(taps), (5, 5))
    assert grid[0, 0] == taps[1, 1]
    assert grid[4, 4] == taps[0, 0]
    assert grid[0, 1] == taps[1, 2]
    assert grid.sum() == pytest.approx(taps.sum(), abs=1e-12)
    with pytest.raises(ShapeMismatchError):
        embed_kernel(Kernel(np.ones((5, 5))), (3, 3))

