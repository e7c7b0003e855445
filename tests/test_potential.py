import math

import numpy as np
import pytest

from magtun import DoubleWellConfig, RadialWell, eval_V


def test_bump_minimum_and_support(well):
    assert well.v0(0.0) == -1.0
    assert well.v0(1.0) == 0.0
    assert well.v0(5.0) == 0.0


def test_bump_symbolic_value(well):
    # independent symbolic evaluation of the bump formula at r = 0.5
    expected = -math.exp(1.0 - 1.0 / (1.0 - 0.25))
    assert well.v0(0.5) == pytest.approx(expected, rel=1e-15)
    assert -1.0 < well.v0(0.5) < 0.0


def test_support_exact_zero(well):
    r = np.linspace(1.0, 3.0, 501)
    assert np.all(well.v0(r) == 0.0)


def test_unique_minimum_grid_scan(well):
    r = np.arange(0.0, 1.0 + 1e-3, 1e-3)
    vals = well.v0(r)
    near_min = np.abs(vals - well.v0_min) < 1e-12
    assert near_min[0] and near_min.sum() == 1


@pytest.mark.parametrize("depth,a,expected", [(1.0, 1.0, 2.0),
                                              (4.0, 1.0, 8.0),
                                              (1.0, 2.0, 0.5)])
def test_curvature_closed_form_and_fd(depth, a, expected):
    w = RadialWell.bump(depth=depth, a=a)
    assert w.v0_second_deriv_at_0 == pytest.approx(expected, rel=1e-14)
    # central finite-difference oracle at step 1e-4
    s = 1e-4 * a
    fd = (w.v0(2 * s) - 2 * w.v0(s) + w.v0(0.0)) / s**2
    assert fd == pytest.approx(expected, rel=1e-5)
    assert w.v0_second_deriv_at_0 > 0


def test_v0_prime_matches_fd(well):
    r = np.array([0.2, 0.5, 0.8])
    s = 1e-6
    fd = (well.v0(r + s) - well.v0(r - s)) / (2 * s)
    assert np.allclose(well.v0_prime(r), fd, rtol=1e-6, atol=1e-10)


def test_double_well_values(config4):
    assert eval_V(config4, [-2.0, 0.0]) == pytest.approx(-1.0, abs=1e-15)
    assert eval_V(config4, [0.0, 0.0]) == 0.0


def test_double_well_symmetry(config4):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-4, 4, size=(100, 2))
    flipped = pts * np.array([-1.0, 1.0])
    assert np.array_equal(eval_V(config4, pts), eval_V(config4, flipped))


def test_config_validation(well):
    with pytest.raises(ValueError):
        DoubleWellConfig(well, 2.0)
    assert not DoubleWellConfig(well, 4.0).fsw_condition
    assert DoubleWellConfig(well, 8.5).fsw_condition
