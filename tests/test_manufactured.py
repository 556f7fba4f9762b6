"""Consistency checks of the manufactured solution and its source term."""

import itertools

import numpy as np
import pytest

from kronheat.errors import DimensionMismatch, UsageError
from kronheat.manufactured import _EXP_CUT, CENTER, ExactFields

from conftest import exact_dt, exact_grad, exact_u, source_f

# probe points inside the L-shape, away from the removed quadrant
POINTS = np.array([
    (-0.5, 0.5), (0.5, 0.5), (-0.5, -0.5), (-0.1, 0.9),
    (0.3, 0.1), (-0.9, -0.1), (0.05, 0.4),
])
TIMES = np.array([0.05, 0.1, 0.25, 0.5])


def central_dt(x1, x2, t, h=1e-5):
    return (exact_u(x1, x2, t + h) - exact_u(x1, x2, t - h)) / (2 * h)


def central_laplace(x1, x2, t, h=1e-4):
    return (
        exact_u(x1 + h, x2, t) + exact_u(x1 - h, x2, t)
        + exact_u(x1, x2 + h, t) + exact_u(x1, x2 - h, t)
        - 4.0 * exact_u(x1, x2, t)
    ) / h**2


class TestDerivatives:
    def test_dt_matches_difference_quotient(self):
        x1, x2 = POINTS[:, :1], POINTS[:, 1:]
        t = TIMES[None, :]
        fd = central_dt(x1, x2, t)
        exact = exact_dt(x1, x2, t)
        assert np.allclose(exact, fd, rtol=1e-5, atol=1e-9)

    def test_grad_matches_difference_quotient(self):
        h = 1e-6
        x1, x2 = POINTS[:, :1], POINTS[:, 1:]
        t = TIMES[None, :]
        g1, g2 = exact_grad(x1, x2, t)
        fd1 = (exact_u(x1 + h, x2, t) - exact_u(x1 - h, x2, t)) / (2 * h)
        fd2 = (exact_u(x1, x2 + h, t) - exact_u(x1, x2 - h, t)) / (2 * h)
        assert np.allclose(g1, fd1, rtol=1e-5, atol=1e-9)
        assert np.allclose(g2, fd2, rtol=1e-5, atol=1e-9)

    def test_source_is_heat_residual(self):
        # f = dt u - laplace u, via second-order difference quotients
        x1, x2 = POINTS[:, :1], POINTS[:, 1:]
        t = TIMES[None, :]
        fd = central_dt(x1, x2, t) - central_laplace(x1, x2, t)
        f = source_f(x1, x2, t)
        assert np.allclose(f, fd, rtol=1e-4, atol=1e-7)


class TestLimits:
    def test_zero_at_t0(self):
        x1, x2 = POINTS[:, 0], POINTS[:, 1]
        assert np.all(exact_u(x1, x2, 0.0) == 0.0)
        assert np.all(exact_dt(x1, x2, 0.0) == 0.0)
        g1, g2 = exact_grad(x1, x2, 0.0)
        assert np.all(g1 == 0.0) and np.all(g2 == 0.0)
        assert np.all(source_f(x1, x2, 0.0) == 0.0)

    def test_tiny_t_underflows_cleanly(self):
        # far from the center the Gaussian underflows; no warnings, no nans
        vals = exact_u(np.array([-0.9]), np.array([0.9]), np.array([1e-12]))
        assert np.isfinite(vals).all()
        assert abs(vals[0]) < 1e-300

    def test_center_outside_domain(self):
        # the Gaussian center sits in the removed quadrant, so u stays
        # bounded on the domain for every positive time
        cx, cy = CENTER
        assert 0.0 <= cx <= 1.0 and -1.0 <= cy <= 0.0


class TestBroadcasting:
    def test_shapes(self):
        x1 = POINTS[:, :1]
        x2 = POINTS[:, 1:]
        t = TIMES[None, :]
        assert exact_u(x1, x2, t).shape == (len(POINTS), len(TIMES))
        assert source_f(x1, x2, t).shape == (len(POINTS), len(TIMES))
        g1, g2 = exact_grad(x1, x2, t)
        assert g1.shape == g2.shape == (len(POINTS), len(TIMES))

    def test_scalar_inputs(self):
        val = exact_u(0.5, 0.5, 0.25)
        assert np.ndim(val) == 0
        r2 = (0.5 - CENTER[0]) ** 2 + (0.5 - CENTER[1]) ** 2
        expect = 5.0 / (2 * np.pi * 0.25) * np.exp(-r2 / 1.0) * np.sin(np.pi * 0.25)
        assert val == pytest.approx(expect, rel=1e-14)


def lshape_points(n, seed):
    # uniform points of (-1, 1)^2 outside the removed quadrant x1 > 0 > x2
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(4 * n, 2))
    pts = pts[~((pts[:, 0] > 0.0) & (pts[:, 1] < 0.0))][:n]
    return pts[:, 0].reshape(-1, 5), pts[:, 1].reshape(-1, 5)


def assert_matches_oracle(fields, x1, x2, t):
    # within 1e-13 of the largest entry; a zero oracle must be matched
    # exactly
    got = (fields.u(x1, x2, t), *fields.grad(x1, x2, t), fields.dt(x1, x2, t))
    want = (exact_u(x1, x2, t), *exact_grad(x1, x2, t), exact_dt(x1, x2, t))
    for name, a, b in zip(("u", "u_x1", "u_x2", "u_t"), got, want):
        assert a.shape == b.shape, name
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= 1e-13 * scale, (name, t)


def assert_source_matches_oracle(fields, x1, x2, t):
    # within 1e-13 of the largest entry, exact where the oracle is zero
    got = fields.source(x1, x2, t)
    want = source_f(x1, x2, t)
    assert got.shape == want.shape
    assert not got.flags.writeable
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), t


def all_fields(fields, x1, x2, t):
    return (fields.u(x1, x2, t), *fields.grad(x1, x2, t),
            fields.dt(x1, x2, t), fields.source(x1, x2, t))


class TestExactFields:
    TIMES = (0.0, 1e-6, 1.0 / 64.0, 0.5)
    # r2 / (4 t) passes the cut at part of lshape_points(200, 1), not all
    STRADDLE = (1e-4, 3e-4)

    @pytest.mark.parametrize("order", list(itertools.permutations(TIMES)))
    def test_matches_oracle_in_any_time_order(self, order):
        x1, x2 = lshape_points(200, seed=1)
        fields = ExactFields()
        for t in order:
            assert_matches_oracle(fields, x1, x2, t)

    def test_source_matches_oracle(self):
        # every order of the times; the source and the other fields
        # write one Gaussian buffer at one time and point set, in either
        # order, and a switch of point sets drops the cached fields
        xa1, xa2 = lshape_points(200, seed=5)
        xb1, xb2 = lshape_points(200, seed=6)
        for order in itertools.permutations(self.TIMES):
            fields = ExactFields()
            for t in order:
                assert_source_matches_oracle(fields, xa1, xa2, t)
                assert_matches_oracle(fields, xa1, xa2, t)
                assert_source_matches_oracle(fields, xb1, xb2, t)
                assert_matches_oracle(fields, xa1, xa2, t)
                assert_source_matches_oracle(fields, xa1, xa2, t)
        for t in (1.0 / 64.0, 0.5):
            assert np.max(np.abs(source_f(xa1, xa2, t))) > 1e-3

    def test_matches_oracle_where_part_underflows(self):
        # the oracle is subnormal at some points; the fields are 0 there
        # and nowhere subnormal, in either order of source and fields
        x1, x2 = lshape_points(200, seed=1)
        r2 = (x1 - CENTER[0]) ** 2 + (x2 - CENTER[1]) ** 2
        tiny = np.finfo(float).tiny
        for t in self.STRADDLE:
            past = r2 / (4.0 * t) > _EXP_CUT
            assert past.any() and not past.all()
            want = np.abs(exact_u(x1, x2, t))
            assert np.any((want > 0.0) & (want < tiny))
            for source_first in (True, False):
                fields = ExactFields()
                if source_first:
                    assert_source_matches_oracle(fields, x1, x2, t)
                assert_matches_oracle(fields, x1, x2, t)
                assert_source_matches_oracle(fields, x1, x2, t)
                for field in all_fields(fields, x1, x2, t):
                    a = np.abs(field)
                    assert np.all((a == 0.0) | (a >= tiny)), t
                    assert np.all(field[past] == 0.0), t

    def test_nan_comes_out_nan(self):
        # a NaN coordinate stays NaN, also where the other points pass
        # the cut, and so does a NaN time
        x1, x2 = lshape_points(200, seed=1)
        x1_nan = x1.copy()
        x1_nan[3, 2] = np.nan
        fields = ExactFields()
        for t in (*self.STRADDLE, 1e-6):
            for field in all_fields(fields, x1_nan, x2, t):
                assert np.isnan(field[3, 2]), t
                assert np.isnan(field).sum() == 1, t
        for field in all_fields(fields, x1, x2, np.nan):
            assert np.isnan(field).all()

    def test_broadcasting_nan_time_comes_out_nan(self):
        # the broadcasting fields agree with ExactFields at a NaN time,
        # next to finite and zero times that stay finite
        x1, x2 = lshape_points(200, seed=1)
        t = np.array([np.nan, 0.0, 0.25])[:, None, None]
        fields = (exact_u(x1, x2, t), *exact_grad(x1, x2, t),
                  exact_dt(x1, x2, t))
        for field in fields:
            assert np.isnan(field[0]).all()
            assert np.all(field[1] == 0.0)
            assert np.isfinite(field[2]).all()
        for field in (exact_u(0.5, 0.5, np.nan), *exact_grad(0.5, 0.5, np.nan),
                      exact_dt(0.5, 0.5, np.nan)):
            assert np.isnan(field)

    def test_nonzero_at_sampled_times(self):
        # guards the oracle comparison against vacuous all-zero fields
        x1, x2 = lshape_points(200, seed=1)
        for t in (1.0 / 64.0, 0.5):
            assert np.max(np.abs(exact_u(x1, x2, t))) > 1e-3

    def test_new_point_set_and_back(self):
        xa1, xa2 = lshape_points(200, seed=2)
        xb1, xb2 = lshape_points(200, seed=3)
        fields = ExactFields()
        for x1, x2 in ((xa1, xa2), (xb1, xb2), (xa1, xa2)):
            assert_matches_oracle(fields, x1, x2, 0.25)
        # one array of the pair replaced is a new point set too
        assert_matches_oracle(fields, xa1, xb2, 0.25)

    def test_repeated_times(self):
        x1, x2 = lshape_points(200, seed=4)
        fields = ExactFields()
        for t in (0.1, 0.1, 0.3, 0.1, 0.1):
            assert_matches_oracle(fields, x1, x2, t)

    def test_scalar_and_broadcast_points(self):
        # 0-d points and arrays of one shape; x1 and x2 of two shapes
        # are refused rather than broadcast
        fields = ExactFields()
        x1, x2 = np.meshgrid(POINTS[:, 0], POINTS[:, 1])
        assert fields.u(x1, x2, 0.2).shape == (len(POINTS), len(POINTS))
        assert_matches_oracle(fields, x1, x2, 0.2)
        assert fields.u(0.5, 0.5, 0.25) == pytest.approx(
            exact_u(0.5, 0.5, 0.25), rel=1e-14)
        assert_matches_oracle(fields, np.float64(0.5), np.float64(0.5), 0.25)
        with pytest.raises(DimensionMismatch):
            fields.u(POINTS[:, :1], POINTS[:, 1:].T, 0.2)

    def test_rejects_time_arrays(self):
        with pytest.raises(UsageError):
            ExactFields().u(POINTS[:, 0], POINTS[:, 1], TIMES)

    def test_returned_fields_are_read_only(self):
        fields = ExactFields()
        u = fields.u(POINTS[:, 0], POINTS[:, 1], 0.2)
        with pytest.raises(ValueError):
            u[0] = 1.0
