"""Tests for velocity fields, denoised moments, and covariance modes.

The linear-Gaussian prior admits exact conditional moments, so most
assertions here compare the field formulas against independently written
closed forms at 1e-12, including the tightness of the Jacobian sandwich
bound for the matched prior width.
"""

import numpy as np
import pytest

from lflow.fields import (
    COV_MODE_KINDS,
    AnalyticGaussianField,
    CallbackField,
    CovarianceMode,
    eval_field,
    jacobian_bounds,
    mean_jacobian_scalar,
    posterior_cov_scalar,
    posterior_mean,
)
from lflow.operators import CircConvOperator, build_gaussian_kernel

T_GRID = np.linspace(0.05, 0.95, 19)


def exact_conditional_mean_factor(sigma: float, t: float) -> float:
    # Gaussian conditioning of z0 ~ N(0, sigma^2 I) given z_t = (1-t) z0 + t z1.
    om = 1.0 - t
    return om * sigma * sigma / (om * om * sigma * sigma + t * t)


def exact_conditional_variance(sigma: float, t: float) -> float:
    om = 1.0 - t
    return t * t * sigma * sigma / (om * om * sigma * sigma + t * t)


def test_field_vanishes_at_the_symmetric_midpoint():
    field = AnalyticGaussianField(sigma_latr=1.0)
    z = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(eval_field(field, z, 0.5), np.zeros(3), atol=1e-15)


def test_field_at_time_zero_points_back_to_the_origin():
    field = AnalyticGaussianField(sigma_latr=1.0)
    z = np.array([1.0, -2.0])
    np.testing.assert_allclose(eval_field(field, z, 0.0), -z, atol=1e-15)


def test_field_scalar_at_a_quarter():
    field = AnalyticGaussianField(sigma_latr=1.0)
    out = eval_field(field, np.array([1.0, 0.0]), 0.25)
    np.testing.assert_allclose(out, [-0.8, 0.0], atol=1e-12)


def test_denoised_mean_examples():
    field = AnalyticGaussianField(sigma_latr=1.0)
    z = np.array([1.0, 0.0])
    np.testing.assert_allclose(posterior_mean(field, z, 0.5), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(posterior_mean(field, z, 0.25), [1.2, 0.0], atol=1e-12)


def test_denoised_mean_approaches_identity_at_small_times():
    field = AnalyticGaussianField(sigma_latr=1.0)
    z = np.array([0.7, -0.3])
    gap_coarse = np.max(np.abs(posterior_mean(field, z, 1e-3) - z))
    gap_fine = np.max(np.abs(posterior_mean(field, z, 1e-6) - z))
    assert gap_fine < gap_coarse
    assert gap_fine < 1e-5


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_denoised_mean_matches_exact_gaussian_conditioning(sigma):
    field = AnalyticGaussianField(sigma_latr=sigma)
    rng = np.random.default_rng(11)
    z = rng.normal(size=6)
    for t in T_GRID:
        expected = exact_conditional_mean_factor(sigma, float(t)) * z
        got = posterior_mean(field, z, float(t))
        assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_matched_covariance_equals_exact_conditional_variance(sigma):
    field = AnalyticGaussianField(sigma_latr=sigma)
    mode = CovarianceMode(kind="lflow")
    for t in T_GRID:
        got = posterior_cov_scalar(mode, float(t), field)
        assert abs(got - exact_conditional_variance(sigma, float(t))) < 1e-12


def test_covariance_table_at_pinned_times():
    field = AnalyticGaussianField(sigma_latr=1.0)
    lflow = CovarianceMode(kind="lflow")
    eq17 = CovarianceMode(kind="eq17")
    pigdm = CovarianceMode(kind="pigdm")
    assert posterior_cov_scalar(lflow, 0.5, field) == pytest.approx(0.5, abs=1e-12)
    assert posterior_cov_scalar(eq17, 0.5, field) == pytest.approx(0.5, abs=1e-12)
    assert posterior_cov_scalar(lflow, 0.25, field) == pytest.approx(0.1, abs=1e-12)
    assert posterior_cov_scalar(eq17, 0.25, field) == pytest.approx(1.0 / 15.0, abs=1e-12)
    assert posterior_cov_scalar(pigdm, 0.25, field) == pytest.approx(0.1, abs=1e-12)


def test_all_modes_vanish_toward_the_data_end():
    field = AnalyticGaussianField(sigma_latr=1.0)
    for kind in COV_MODE_KINDS:
        mode = CovarianceMode(kind=kind)
        assert posterior_cov_scalar(mode, 1e-3, field) < 1e-5


def test_unit_width_matched_mode_coincides_with_the_forward_process_mode():
    field = AnalyticGaussianField(sigma_latr=1.0)
    lflow = CovarianceMode(kind="lflow")
    pigdm = CovarianceMode(kind="pigdm")
    for t in T_GRID:
        a = posterior_cov_scalar(lflow, float(t), field)
        b = posterior_cov_scalar(pigdm, float(t), field)
        assert a == b


def test_zero_mode_is_identically_zero():
    mode = CovarianceMode(kind="zero")
    field = AnalyticGaussianField(sigma_latr=0.5)
    for t in T_GRID:
        assert posterior_cov_scalar(mode, float(t), field) == 0.0


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_matched_covariance_equals_the_information_bound(sigma):
    # r^2(t) = 1 / (gamma + (1-t)^2 / t^2) with gamma the prior precision.
    gamma = 1.0 / (sigma * sigma)
    field = AnalyticGaussianField(sigma_latr=sigma)
    mode = CovarianceMode(kind="lflow")
    for t in T_GRID:
        om = 1.0 - t
        bound = 1.0 / (gamma + om * om / (t * t))
        assert abs(posterior_cov_scalar(mode, float(t), field) - bound) < 1e-12


def test_only_the_lflow_mode_reads_the_field_width():
    # lflow takes its width from the field (the surrogate for a callback);
    # pigdm, eq17 and zero give the same value whatever the field's width.
    unit = AnalyticGaussianField(sigma_latr=1.0)
    for field in (AnalyticGaussianField(sigma_latr=2.0),
                  CallbackField(lambda z, t: z, surrogate_sigma_latr=2.0)):
        lflow = posterior_cov_scalar(CovarianceMode(kind="lflow"), 0.3, field)
        assert lflow == pytest.approx(exact_conditional_variance(2.0, 0.3), abs=1e-15)
        for kind in ("pigdm", "eq17", "zero"):
            mode = CovarianceMode(kind=kind)
            assert posterior_cov_scalar(mode, 0.3, field) == posterior_cov_scalar(mode, 0.3, unit)


def test_jacobian_bounds_pinned_values():
    lower, upper = jacobian_bounds(1.0, 0.5)
    assert lower == pytest.approx(0.0, abs=1e-15)
    assert upper == pytest.approx(2.0, abs=1e-12)
    lower, _ = jacobian_bounds(1.0, 0.25)
    assert lower == pytest.approx(-0.8, abs=1e-12)


@pytest.mark.parametrize("gamma, t, message", [
    (0.0, 0.5, "gamma must be > 0"),
    (-1.0, 0.5, "gamma must be > 0"),
    (1.0, 0.0, r"t must lie strictly inside \(0, 1\)"),
    (1.0, 1.0, r"t must lie strictly inside \(0, 1\)"),
    (1.0, -0.2, r"t must lie strictly inside \(0, 1\)"),
    (1.0, 1.5, r"t must lie strictly inside \(0, 1\)"),
])
def test_jacobian_bounds_rejects_a_non_positive_gamma_or_t_outside_the_open_unit(
        gamma, t, message):
    with pytest.raises(ValueError, match=message):
        jacobian_bounds(gamma, t)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_gaussian_field_jacobian_sits_exactly_on_the_lower_bound(sigma):
    field = AnalyticGaussianField(sigma_latr=sigma)
    gamma = 1.0 / (sigma * sigma)
    for t in T_GRID:
        scalar = field.scalar(float(t))
        lower, upper = jacobian_bounds(gamma, float(t))
        assert abs(scalar - lower) < 1e-12
        assert scalar < upper


def test_mean_jacobian_scalar_closed_form():
    field = AnalyticGaussianField(sigma_latr=1.3)
    for t in T_GRID:
        om = 1.0 - t
        s2 = 1.3 * 1.3
        expected = om * s2 / (om * om * s2 + t * t)
        assert mean_jacobian_scalar(field, float(t)) == pytest.approx(expected, abs=1e-14)


def test_callback_field_delegates_evaluation():
    calls = []

    def fn(z, t):
        calls.append(t)
        return 2.0 * z

    field = CallbackField(fn, surrogate_sigma_latr=0.7)
    z = np.array([1.0, -1.0])
    np.testing.assert_allclose(eval_field(field, z, 0.4), 2.0 * z)
    assert calls == [0.4]
    assert field.sigma_latr == 0.7
    # The denoised-mean chain and its Jacobian use the surrogate width.
    surrogate = AnalyticGaussianField(sigma_latr=0.7)
    assert mean_jacobian_scalar(field, 0.4) == pytest.approx(
        mean_jacobian_scalar(surrogate, 0.4), abs=1e-15
    )


def _both_fields():
    # The Gaussian field at a small and a unit width, and a callback field
    # with a nonlinear velocity.
    return [AnalyticGaussianField(sigma_latr=0.04), AnalyticGaussianField(sigma_latr=1.0),
            CallbackField(lambda z, t: np.sin(z) - t * z, surrogate_sigma_latr=0.5)]


def _rel_gap(got, want, scale):
    # Relative to the state's scale: z - t v can cancel (the Gaussian field
    # vanishes at its width's midpoint), so the gap is not measured against it.
    return float(np.max(np.abs(got - want)) / np.max(np.abs(scale)))


@pytest.mark.parametrize("field", _both_fields(), ids=["analytic-0.04", "analytic-1", "callback"])
def test_each_field_owns_its_denoised_mean_on_both_routes(field):
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (8, 6))
    z = np.random.default_rng(31).normal(size=(8, 6))
    zc = op.apply_coeffs(z)
    for t in (1e-3, 0.1, 0.37, 0.5, 0.8, 0.999):
        v = eval_field(field, z, t)
        # Plain route: v and z_bar = z - t v, by the field's own formula.
        v_plain, zbar = field.velocity_and_mean(z, t)
        np.testing.assert_array_equal(v_plain, v)
        assert _rel_gap(zbar, z - t * v, z) <= 1e-15
        np.testing.assert_array_equal(posterior_mean(field, z, t), zbar)
        # Carried route: the coefficients of v and of z_bar from those of z.
        v_carried, vc, zbar_c = field.velocity_and_coeffs(z, zc, t, op.apply_coeffs)
        np.testing.assert_array_equal(v_carried, v)
        assert _rel_gap(vc, op.apply_coeffs(v), zc) <= 1e-12
        assert _rel_gap(zbar_c, zc - t * vc, zc) <= 1e-15


@pytest.mark.parametrize("field", _both_fields(), ids=["analytic-0.04", "analytic-1", "callback"])
def test_field_members_return_fresh_arrays_and_never_write_their_inputs(field):
    op = CircConvOperator(build_gaussian_kernel(3, 1.0), (4, 4))
    z = np.random.default_rng(32).normal(size=(4, 4))
    zc = op.apply_coeffs(z)
    z.flags.writeable = False
    zc.flags.writeable = False
    plain = field.velocity_and_mean(z, 0.3)
    carried = field.velocity_and_coeffs(z, zc, 0.3, op.apply_coeffs)
    # The closed form writes z_bar's coefficients and B_hat v in place.
    for out in (plain[1], carried[1], carried[2]):
        assert out.flags.writeable and not np.shares_memory(out, z)
        assert not np.shares_memory(out, zc)


def test_field_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        AnalyticGaussianField(sigma_latr=0.0)
    with pytest.raises(ValueError):
        AnalyticGaussianField(sigma_latr=-1.0)


@pytest.mark.parametrize("width", [1.35e154, 1e-200, float("nan"), float("inf")])
def test_field_rejects_a_width_whose_square_is_not_finite_and_positive(width):
    with pytest.raises(ValueError, match="neither overflows nor underflows"):
        AnalyticGaussianField(sigma_latr=width)


def test_covariance_mode_validation():
    with pytest.raises(ValueError):
        CovarianceMode(kind="exact")
