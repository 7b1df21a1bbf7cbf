"""Tests for the dense linear-Gaussian reference implementation.

The oracle module is itself test infrastructure, so these checks lean on
scalar cases and textbook identities that can be verified by hand rather
than on the package modules the oracle exists to validate.
"""

import numpy as np
import pytest

from lflow.decoders import DiagonalScaleDecoder
from lflow.errors import DimensionGuardError
from lflow.fields import CovarianceMode
from lflow.numerics import make_rng
from lflow.operators import DenseOperator
from lflow.oracle import (
    LinearGaussianModel,
    conditional_score_velocity,
    dense_guidance,
    exact_posterior,
    finite_diff_jacobian,
    marginal_loglik,
    mc_moments,
    measurement_form_posterior,
    run_oracle_checks,
)

ORACLE_CHECK_NAMES = (
    "posterior-dual-route",
    "tweedie-moments",
    "guidance-vs-dense",
    "gradient-finite-diff",
    "inner-vector-cg",
    "conditional-velocity",
    "decoder-velocity",
    "identity-decode",
)


def test_full_battery_passes():
    checks = run_oracle_checks(seed=0)
    assert tuple(c.name for c in checks) == ORACLE_CHECK_NAMES
    failures = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failures, "\n".join(failures)


def test_scalar_posterior_by_hand():
    # Unit prior, unit noise, scalar identity map: precision 2, so the
    # posterior is N(y/2, 1/2).
    model = LinearGaussianModel(DenseOperator(np.eye(1)), prior_std=1.0, sigma_y=1.0)
    mean, cov = exact_posterior(model, np.array([2.0]))
    np.testing.assert_allclose(mean, [1.0], atol=1e-14)
    np.testing.assert_allclose(cov, [[0.5]], atol=1e-14)


def test_noiseless_posterior_pins_the_observed_direction():
    # Observing the first coordinate exactly leaves the second at the prior.
    model = LinearGaussianModel(
        DenseOperator(np.array([[1.0, 0.0]])), prior_std=1.0, sigma_y=0.0
    )
    mean, cov = exact_posterior(model, np.array([0.7]))
    np.testing.assert_allclose(mean, [0.7, 0.0], atol=1e-12)
    np.testing.assert_allclose(cov, np.diag([0.0, 1.0]), atol=1e-12)


def test_zero_measurement_centers_the_posterior():
    rng = make_rng(1)
    model = LinearGaussianModel(DenseOperator(rng.normal(size=(3, 5))), sigma_y=0.3)
    mean, _ = exact_posterior(model, np.zeros(3))
    np.testing.assert_allclose(mean, np.zeros(5), atol=1e-14)


def test_both_posterior_routes_agree_with_a_decoder():
    rng = make_rng(2)
    op = DenseOperator(rng.normal(size=(4, 6)))
    dec = DiagonalScaleDecoder(1.7, (6,))
    model = LinearGaussianModel(op, prior_std=0.8, sigma_y=0.25, decoder=dec)
    y = rng.normal(size=4)
    m1, c1 = exact_posterior(model, y)
    m2, c2 = measurement_form_posterior(model, y)
    np.testing.assert_allclose(m1, m2, atol=1e-11)
    np.testing.assert_allclose(c1, c2, atol=1e-11)


def test_effective_matrix_folds_the_decoder_in():
    rng = make_rng(3)
    a = rng.normal(size=(3, 4))
    model = LinearGaussianModel(
        DenseOperator(a), decoder=DiagonalScaleDecoder(2.0, (4,))
    )
    np.testing.assert_allclose(model.effective_matrix(), 2.0 * a, atol=0.0)


def test_model_parameter_validation():
    op = DenseOperator(np.eye(2))
    with pytest.raises(ValueError):
        LinearGaussianModel(op, prior_std=0.0)
    with pytest.raises(ValueError):
        LinearGaussianModel(op, sigma_y=-0.1)


def test_marginal_loglik_matches_a_direct_density_evaluation():
    rng = make_rng(4)
    b = rng.normal(size=(3, 5))
    model = LinearGaussianModel(DenseOperator(b), prior_std=1.2, sigma_y=0.3)
    mode = CovarianceMode(kind="lflow")
    y = rng.normal(size=3)
    z = rng.normal(size=5)
    t = 0.4
    om = 1.0 - t
    s2 = 1.2**2
    c = om * s2 / (om * om * s2 + t * t)
    r2 = t * t * s2 / (om * om * s2 + t * t)
    s_mat = 0.3**2 * np.eye(3) + r2 * (b @ b.T)
    res = y - c * (b @ z)
    _, logdet = np.linalg.slogdet(s_mat)
    want = -0.5 * (res @ np.linalg.inv(s_mat) @ res + logdet + 3 * np.log(2 * np.pi))
    got = marginal_loglik(model, y, z, t, mode)
    assert got == pytest.approx(want, rel=1e-12)


def test_dense_guidance_is_the_loglik_gradient():
    rng = make_rng(5)
    model = LinearGaussianModel(DenseOperator(rng.normal(size=(3, 4))), sigma_y=0.2)
    mode = CovarianceMode(kind="eq17")
    y = rng.normal(size=3)
    z = rng.normal(size=4)
    t = 0.55
    grad = dense_guidance(model, y, z, t, mode)
    eps = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = eps
        fd = (
            marginal_loglik(model, y, z + e, t, mode)
            - marginal_loglik(model, y, z - e, t, mode)
        ) / (2 * eps)
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_dense_guidance_vanishes_on_a_consistent_state():
    rng = make_rng(6)
    b = rng.normal(size=(3, 4))
    model = LinearGaussianModel(DenseOperator(b), prior_std=1.0, sigma_y=0.2)
    z = rng.normal(size=4)
    t = 0.3
    c = (1 - t) / ((1 - t) ** 2 + t * t)
    y = c * (b @ z)
    grad = dense_guidance(model, y, z, t, CovarianceMode(kind="lflow"))
    np.testing.assert_allclose(grad, np.zeros(4), atol=1e-14)


def test_dense_guidance_size_guard():
    model = LinearGaussianModel(DenseOperator(np.ones((1, 600))), sigma_y=0.1)
    with pytest.raises(DimensionGuardError):
        dense_guidance(
            model, np.zeros(1), np.zeros(600), 0.5, CovarianceMode(kind="zero")
        )


def test_conditional_velocity_reduces_to_the_prior_flow_without_information():
    # A nearly infinite noise floor makes the measurement useless, so the
    # conditional flow must collapse onto the unconditional one, whose
    # velocity is (t - (1-t) s^2) / ((1-t)^2 s^2 + t^2) z.
    rng = make_rng(7)
    s = 1.4
    model = LinearGaussianModel(
        DenseOperator(rng.normal(size=(3, 4))), prior_std=s, sigma_y=1e8
    )
    z = rng.normal(size=4)
    for t in (0.2, 0.5, 0.8):
        om = 1.0 - t
        expected = (t - om * s * s) / (om * om * s * s + t * t) * z
        got = conditional_score_velocity(model, rng.normal(size=3), z, t)
        np.testing.assert_allclose(got, expected, atol=1e-9)


def test_conditional_velocity_with_an_exact_identity_observation():
    # B = I and sigma_y = 0 give posterior z0 = y exactly; conditioning the
    # path on z_t then yields the transport velocity (z - y) / t.
    model = LinearGaussianModel(DenseOperator(np.eye(3)), prior_std=1.0, sigma_y=0.0)
    rng = make_rng(8)
    y = rng.normal(size=3)
    z = rng.normal(size=3)
    for t in (0.25, 0.6, 0.9):
        got = conditional_score_velocity(model, y, z, t)
        np.testing.assert_allclose(got, (z - y) / t, atol=1e-10)


def test_finite_diff_jacobian_of_linear_maps():
    np.testing.assert_allclose(
        finite_diff_jacobian(lambda x: x, np.zeros(3)), np.eye(3), atol=1e-9
    )
    m = make_rng(9).normal(size=(4, 4))
    jac = finite_diff_jacobian(lambda x: m @ x, np.ones(4))
    np.testing.assert_allclose(jac, m, atol=1e-8)
    with pytest.raises(ValueError):
        finite_diff_jacobian(lambda x: x, np.zeros(2), step=0.0)


def test_finite_diff_jacobian_keeps_field_shapes():
    jac = finite_diff_jacobian(lambda x: 2.0 * x, np.zeros((2, 3)))
    np.testing.assert_allclose(jac, 2.0 * np.eye(6), atol=1e-9)


def test_mc_moments_of_a_constant_runner():
    mean, cov, se = mc_moments(lambda seed: np.array([1.0, -2.0]), 16)
    np.testing.assert_allclose(mean, [1.0, -2.0], atol=0.0)
    np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=0.0)
    np.testing.assert_allclose(se, np.zeros(2), atol=0.0)


def test_mc_moments_recover_a_known_gaussian():
    target = np.array([0.5, -1.0, 2.0])

    def runner(seed):
        return target + make_rng(seed).normal(size=3)

    mean, cov, se = mc_moments(runner, 500)
    assert np.all(np.abs(mean - target) <= 3.0 * se)
    np.testing.assert_allclose(np.diag(cov), np.ones(3), atol=0.2)


def test_mc_moments_rejects_degenerate_sample_sizes():
    with pytest.raises(ValueError):
        mc_moments(lambda seed: np.zeros(2), 1)
