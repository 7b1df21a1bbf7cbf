"""Tests for the straight-line path and its clamp window."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lflow.errors import ShapeMismatchError
from lflow.schedule import T_MAX_DEFAULT, T_MIN_DEFAULT, PathSchedule


@pytest.fixture
def schedule():
    return PathSchedule()


@pytest.mark.parametrize("t", [-0.1, 1.1, 2.0])
def test_times_outside_unit_interval_are_rejected(schedule, t):
    with pytest.raises(ValueError):
        schedule.interpolate(np.zeros(2), np.ones(2), t)


def test_default_clamp_window():
    assert T_MIN_DEFAULT == 1e-3
    assert T_MAX_DEFAULT == 1.0 - 1e-3
    schedule = PathSchedule()
    assert schedule.t_min == T_MIN_DEFAULT
    assert schedule.t_max == T_MAX_DEFAULT


def test_interpolate_endpoints_are_exact_copies(schedule):
    z0 = np.array([2.0, 0.0])
    z1 = np.array([0.0, 2.0])
    np.testing.assert_array_equal(schedule.interpolate(z0, z1, 0.0), z0)
    np.testing.assert_array_equal(schedule.interpolate(z0, z1, 1.0), z1)


def test_interpolate_midpoint(schedule):
    out = schedule.interpolate(np.array([2.0, 0.0]), np.array([0.0, 2.0]), 0.5)
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_interpolating_a_point_with_itself_is_identity(t):
    z = np.array([0.3, -1.7, 2.2])
    np.testing.assert_allclose(PathSchedule().interpolate(z, z, t), z, atol=1e-15)


def test_interpolate_rejects_mismatched_shapes(schedule):
    with pytest.raises(ShapeMismatchError):
        schedule.interpolate(np.zeros(2), np.zeros(3), 0.5)


@pytest.mark.parametrize(
    "t_min,t_max",
    [(0.0, 0.5), (0.5, 0.5), (0.6, 0.4), (0.1, 1.0), (-0.1, 0.9)],
)
def test_schedule_rejects_bad_clamp_windows(t_min, t_max):
    with pytest.raises(ValueError):
        PathSchedule(t_min=t_min, t_max=t_max)
