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
from lflow.errors import DimensionGuardError, NonFiniteError, ShapeMismatchError
from lflow.numerics import dft2_forward, dft2_inverse, make_rng
from lflow.operators import (
    DENSE_MATERIALIZE_LIMIT,
    CircConvOperator,
    ConvDownsampleOperator,
    DenseOperator,
    Kernel,
    MaskOperator,
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


def block_average(spectrum: np.ndarray, factor: int) -> np.ndarray:
    """Average an (h, w) grid over its s x s aliasing blocks -> (h/s, w/s).

    Entry (j1, j2) of the result is the mean of spectrum[j1 + b1*h/s,
    j2 + b2*w/s] over all (b1, b2), which is how subsampling folds a
    spectrum: the reference for the operator's fold.
    """
    h, w = spectrum.shape
    s = int(factor)
    return spectrum.reshape(s, h // s, s, w // s).mean(axis=(0, 2))


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
    (45, 45)/3 conv-downsampler. Last come two tall dense matrices, whose
    basis is the thin SVD: one of full column rank and one with a repeated
    column (the suite turns any warning in building either into an error).
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
    return (ops + latent_operators([ops[0], ops[2], ops[4], ops[10]], rng, ops[5])
            + tall_dense_operators())


def tall_dense_operators():
    """A 20 x 6 matrix on a (4, 5) output grid, and a 12 x 6 matrix on a
    (2, 3) input grid whose last column repeats its third (rank 5)."""
    rng = make_rng(8)
    deficient = rng.normal(size=(12, 6))
    deficient[:, 5] = deficient[:, 2]
    return [DenseOperator(rng.normal(size=(20, 6)), output_shape=(4, 5)),
            DenseOperator(deficient, input_shape=(2, 3))]


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


@pytest.mark.parametrize("op", basis_operators(), ids=lambda op: f"{op.kind}{op.input_shape}")
def test_gram_leaves_its_input_untouched(op):
    u = make_rng(301).normal(size=op.output_shape)
    before = u.copy()
    op.gram(u)
    np.testing.assert_array_equal(u, before)


@pytest.mark.parametrize("op", basis_operators(), ids=lambda op: f"{op.kind}{op.input_shape}")
def test_adjoint_coeffs_leaves_its_coefficients_untouched(op):
    # At factor 1 the convolution's adjoint multiplies into a fresh
    # spectrum, not into w.
    w = op.coeffs(make_rng(302).normal(size=op.output_shape))
    before = w.copy()
    op.adjoint_coeffs(w)
    np.testing.assert_array_equal(w, before)


def test_a_tall_dense_basis_is_the_thin_svd_and_survives_rank_deficiency():
    # m > n: n eigenvalues s^2 >= 0 and n orthonormal columns, also where a
    # repeated column leaves a zero singular value (no division by it).
    ops = tall_dense_operators()
    for op in ops:
        m, n = op.matrix.shape
        lam = op.gram_eigenvalues
        q = op._basis[1].T
        assert lam.shape == (n,) and q.shape == (m, n) and np.all(lam >= 0.0)
        np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-14)
        assert_rel_close(op.matrix @ (op.matrix.T @ q), q * lam)
    deficient = ops[1].gram_eigenvalues
    assert np.min(deficient) <= 1e-28 * np.max(deficient)


def dense_matmul_cases():
    """Criterion 07's 5 x 8 matrix, a square and a tall one, each on flat
    and on 2-D grids, and a wide 4 x 9 matrix whose last row repeats its
    first (rank 3)."""
    criterion_07 = make_rng(2026).normal(size=(5, 8))
    rng = make_rng(9)
    square, tall = rng.normal(size=(12, 12)), rng.normal(size=(20, 6))
    wide_deficient = rng.normal(size=(4, 9))
    wide_deficient[3] = wide_deficient[0]
    cases = [(criterion_07, (8,), (5,)), (criterion_07, (2, 4), (5,)),
             (square, (12,), (12,)), (square, (3, 4), (4, 3)),
             (tall, (6,), (20,)), (tall, (2, 3), (4, 5)),
             (wide_deficient, (3, 3), (4,))]
    return [pytest.param(*case, id=f"{case[0].shape}-in{case[1]}-out{case[2]}")
            for case in cases]


@pytest.mark.parametrize("matrix, input_shape, output_shape", dense_matmul_cases())
def test_dense_members_equal_their_matmul_formulas_bit_for_bit(matrix, input_shape,
                                                               output_shape):
    # numerics.matvec is ndarray.dot: the same BLAS gemv as `@`, so every
    # member keeps the bits of the `@` formula, and the basis is the thin
    # SVD for every shape.
    op = DenseOperator(matrix, input_shape=input_shape, output_shape=output_shape)
    m, n = matrix.shape
    q, s, _ = np.linalg.svd(matrix, full_matrices=False)
    lam = s * s
    rng = make_rng(m * n)
    x = rng.normal(size=input_shape)
    y = rng.normal(size=output_shape)
    w = q.T @ y.ravel()
    assert np.array_equal(op.gram_eigenvalues, lam)
    for got, want in (
        (op.apply(x), (matrix @ x.ravel()).reshape(output_shape)),
        (op.adjoint(y), (matrix.T @ y.ravel()).reshape(input_shape)),
        (op.coeffs(y), w),
        (op.apply_coeffs(x), (q.T @ matrix) @ x.ravel()),
        (op.adjoint_coeffs(w), ((matrix.T @ q) @ w).reshape(input_shape)),
        (op.gram(y), (matrix @ (matrix.T @ y.ravel())).reshape(output_shape)),
    ):
        assert got.shape == want.shape and np.array_equal(got, want)
    dec = LinearMatrixDecoder(matrix, field_shape=output_shape)
    z = rng.normal(size=n)
    assert np.array_equal(dec.decode(z), (matrix @ z).reshape(output_shape))


@pytest.mark.parametrize("side", [64, 256])
def test_spectral_members_equal_their_out_of_place_formulas_bit_for_bit(side):
    # Cached conj(k_hat) and the in-place gram scaling change no bit of
    # the plain formulas.
    rng = make_rng(side)
    kernel = build_gaussian_kernel(7, 1.5)
    for op in (CircConvOperator(kernel, (side, side)),
               ConvDownsampleOperator(build_bicubic_kernel(2), (side, side), 2)):
        x = rng.normal(size=op.input_shape)
        u = rng.normal(size=op.output_shape)
        w = op.coeffs(rng.normal(size=op.output_shape))
        # Formed outside the asserts: the assert rewriting keeps the
        # temporaries alive, which stops numpy from reusing them in place
        # (for a large complex product that changes operand order and bits).
        # At factor 1 the fold and the tile are the identity.
        apply_ref = op._fold(op.khat * dft2_forward(x))
        adjoint_ref = dft2_inverse(np.conj(op.khat) * op._tile(w), op.input_shape)
        gram_ref = dft2_inverse(op.gram_eigenvalues * op.coeffs(u), op.output_shape)
        assert np.array_equal(op.apply_coeffs(x), apply_ref)
        assert np.array_equal(op.adjoint_coeffs(w), adjoint_ref)
        assert np.array_equal(op.gram(u), gram_ref)


@pytest.mark.parametrize("side", [64, 256])
def test_apply_and_adjoint_keep_the_checked_pair_bits_and_input_checks(side):
    # Their inverse runs on the product spectrum they built, with no copy
    # and no scan: the bits of the checked pair, while a non-finite input
    # still fails in the checked forward transform.
    rng = make_rng(side + 1)
    kernel = build_gaussian_kernel(7, 1.5)
    for op in (CircConvOperator(kernel, (side, side)),
               ConvDownsampleOperator(build_bicubic_kernel(2), (side, side), 2)):
        x = rng.normal(size=op.input_shape)
        y = rng.normal(size=op.output_shape)
        # The product spectra as the members spell them: numpy's operand
        # order for a large complex product depends on the spelling.
        apply_ref = dft2_inverse(op._fold(op.khat * dft2_forward(x)), op.output_shape)
        adjoint_ref = dft2_inverse(op._adjoint_spectrum(op.coeffs(y)), op.input_shape)
        assert np.array_equal(op.apply(x), apply_ref)
        assert np.array_equal(op.adjoint(y), adjoint_ref)
        x[3, 5] = np.nan
        y[1, 2] = np.inf
        with pytest.raises(NonFiniteError):
            op.apply(x)
        with pytest.raises(NonFiniteError):
            op.adjoint(y)


def test_circconv_defines_only_its_kind_and_constructor():
    own = {name for name in vars(CircConvOperator)
           if not name.startswith("__") or name == "__init__"}
    assert own == {"kind", "__init__"}
    assert issubclass(CircConvOperator, ConvDownsampleOperator)


@pytest.mark.parametrize("side", [64, 256])
def test_circconv_is_the_downsampler_at_factor_one_bit_for_bit(side):
    rng = make_rng(side + 2)
    kernel = build_gaussian_kernel(7, 1.5)
    conv = CircConvOperator(kernel, (side, side))
    down = ConvDownsampleOperator(kernel, (side, side), 1)
    assert (conv.kind, down.kind) == ("circconv", "convdown")
    assert conv.input_shape == conv.output_shape == down.output_shape == (side, side)
    x = rng.normal(size=(side, side))
    y = rng.normal(size=(side, side))
    w = conv.coeffs(rng.normal(size=(side, side)))
    for member, arg in (("coeffs", y), ("apply_coeffs", x), ("adjoint_coeffs", w),
                        ("apply", x), ("adjoint", y), ("gram", y), ("lift", y)):
        got, want = getattr(conv, member)(arg), getattr(down, member)(arg)
        assert np.array_equal(got, want), member
    assert np.array_equal(conv.gram_eigenvalues, down.gram_eigenvalues)
    assert np.array_equal(conv.gram_eigenvalues, np.abs(conv.khat) ** 2)
    # A shape-preserving operator seeds a run with the measurement itself.
    lifted = down.lift(y)
    assert np.array_equal(lifted, y)
    with pytest.raises(ShapeMismatchError, match="circconv apply"):
        conv.apply(np.zeros((side, side + 1)))
    with pytest.raises(ShapeMismatchError, match="convdown apply"):
        down.apply(np.zeros((side, side + 1)))


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


# Odd low-resolution sides (5x7, 3x3, 21x21, 7x11, 3x2) and s in {2, 3, 4, 5}.
SUBSAMPLE_CASES = [((10, 14), 2), ((9, 9), 3), ((42, 42), 2), ((21, 33), 3),
                   ((16, 16), 4), ((15, 10), 5)]


@pytest.mark.parametrize("shape, s", SUBSAMPLE_CASES,
                         ids=[f"{h}x{w}-s{s}" for (h, w), s in SUBSAMPLE_CASES])
def test_downsampler_apply_matches_the_brute_force_sum_subsampled_in_space(shape, s):
    # `apply` inverts the folded spectrum; the reference never leaves space.
    rng = make_rng(shape[0] * 10 + s)
    taps = rng.normal(size=(3, 5))
    op = ConvDownsampleOperator(Kernel(taps), shape, s)
    x = rng.normal(size=shape)
    np.testing.assert_allclose(
        op.apply(x), brute_force_circular_convolution(taps, x)[::s, ::s], atol=1e-12
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


@pytest.mark.parametrize("all_observed", [False, True])
def test_mask_apply_returns_its_own_copy(all_observed):
    # The gather copies, so the measurement never aliases the field, even
    # when every pixel is observed.
    mask = np.ones((6, 6))
    if not all_observed:
        mask[2:4, 1:5] = 0.0
    op = MaskOperator(mask)
    x = make_rng(7).normal(size=(6, 6))
    got = op.apply(x)
    assert not np.shares_memory(got, x)
    np.testing.assert_array_equal(got, x[mask == 1.0])


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


# Odd low-resolution widths, non-square grids, s in {2, 3, 4, 5} and
# s equal to a side (a single low-resolution row, column or entry).
FOLD_CASES = [((8, 8), 2), ((12, 10), 2), ((10, 14), 2), ((9, 9), 3), ((18, 12), 3),
              ((24, 24), 3), ((16, 16), 4), ((12, 20), 4), ((15, 10), 5), ((20, 15), 5),
              ((5, 5), 5), ((4, 8), 4), ((9, 3), 3), ((2, 6), 2)]


@pytest.mark.parametrize("shape, s", FOLD_CASES,
                         ids=[f"{h}x{w}-s{s}" for (h, w), s in FOLD_CASES])
def test_fold_and_tile_match_the_full_spectrum_block_mean_and_tiling(shape, s):
    # Independent of the operator's index tables: the full complex spectrum
    # of np.fft.fft2, block-averaged or tiled, cut to the half-spectrum columns.
    op = ConvDownsampleOperator(delta_kernel(), shape, s)
    (h, w), (m1, m2) = op.input_shape, op.output_shape
    rng = make_rng(h * 100 + w * 10 + s)
    x = rng.normal(size=op.input_shape)
    low = rng.normal(size=op.output_shape)
    fold_ref = block_average(np.fft.fft2(x), s)[:, : m2 // 2 + 1]
    tile_ref = np.tile(np.fft.fft2(low), (s, s))[:, : w // 2 + 1]
    assert_rel_close(op._fold(dft2_forward(x)), fold_ref)
    assert_rel_close(op._tile(dft2_forward(low)), tile_ref)


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


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Kernel(np.ones(3)), "kernel taps must be 2-D", id="kernel-1d"),
    pytest.param(lambda: Kernel(np.ones((3, 3, 3))), "kernel taps must be 2-D",
                 id="kernel-3d"),
    pytest.param(lambda: MaskOperator(np.ones(4)), "mask must be a 2-D field", id="mask-1d"),
    pytest.param(lambda: MaskOperator(np.ones((2, 2, 1))), "mask must be a 2-D field",
                 id="mask-3d"),
    pytest.param(lambda: DenseOperator(np.ones(4)), "dense operator needs a 2-D matrix",
                 id="dense-1d"),
    pytest.param(lambda: DenseOperator(np.ones((2, 6)), input_shape=(4,)),
                 r"input shape \(4,\) does not flatten to 6", id="dense-input-shape"),
    pytest.param(lambda: DenseOperator(np.ones((2, 6)), output_shape=(3,)),
                 r"output shape \(3,\) does not flatten to 2", id="dense-output-shape"),
    pytest.param(lambda: LinearMatrixDecoder(np.ones(4)), "decoder matrix must be 2-D",
                 id="decoder-1d"),
    pytest.param(lambda: LinearMatrixDecoder(np.ones((6, 2)), field_shape=(2, 2)),
                 r"field shape \(2, 2\) does not flatten to 6 rows", id="decoder-field-shape"),
])
def test_constructors_reject_a_wrong_rank_or_a_shape_that_does_not_flatten(build, message):
    with pytest.raises(ShapeMismatchError, match=message):
        build()


@pytest.mark.parametrize("idx", range(OPERATOR_COUNT))
def test_coeffs_rejects_a_wrongly_shaped_measurement(idx):
    # Every kind checks the measurement it expands, as its gram does.
    op = make_operators(shape=(8, 6))[idx]
    with pytest.raises(ShapeMismatchError, match=f"{op.kind.removeprefix('scaled-')} coeffs"):
        op.coeffs(np.zeros((op.output_shape[0] + 1,) + op.output_shape[1:]))


def test_embed_kernel_anchors_center_at_origin():
    taps = np.arange(9.0).reshape(3, 3)
    grid = embed_kernel(Kernel(taps), (5, 5))
    assert grid[0, 0] == taps[1, 1]
    assert grid[4, 4] == taps[0, 0]
    assert grid[0, 1] == taps[1, 2]
    assert grid.sum() == pytest.approx(taps.sum(), abs=1e-12)
    with pytest.raises(ShapeMismatchError):
        embed_kernel(Kernel(np.ones((5, 5))), (3, 3))

