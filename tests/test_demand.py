import math

import numpy as np
import pytest

import bathtub as bt
from helpers import paper_btilde, paper_pulse, riemann_integral


class TestInflux:
    def test_pulse_plateau(self):
        assert bt.influx(paper_pulse(), 0.5) == 4000.0

    def test_pulse_start(self):
        assert bt.influx(paper_pulse(), 0.0) == 0.0

    def test_pulse_on_ramp(self):
        # min{10000*0.2, 4000, 10000*0.8}
        assert min(2000.0, 4000.0, 8000.0) == 2000.0
        assert bt.influx(paper_pulse(), 0.2) == 2000.0

    def test_pulse_vanishes_after_end(self):
        assert bt.influx(paper_pulse(), 1.5) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(bt.DomainError):
            bt.influx(paper_pulse(), -0.1)

    def test_piecewise_linear_zero_outside_nodes(self):
        p = bt.PiecewiseLinearInflux([(1.0, 100.0), (2.0, 100.0)])
        assert p.rate(0.5) == 0.0
        assert p.rate(1.5) == 100.0
        assert p.rate(3.0) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(bt.DomainError):
            bt.PiecewiseLinearInflux([(0.0, -5.0), (1.0, 5.0)])

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_constant_rate_rejected(self, rate):
        with pytest.raises(bt.DomainError):
            bt.ConstantInflux(rate)


class _RateOnly(bt.InfluxProfile):
    """A profile that defines only the scalar rate."""

    def _rate(self, t):
        return 3.0 * t


INFLUX_PROFILES = {
    "zero": bt.ZeroInflux(), "constant": bt.ConstantInflux(5.0),
    "piecewise": bt.PiecewiseLinearInflux([(0.0, 1.0), (2.0, 3.0)]),
    "pulse": paper_pulse(), "rate_only": _RateOnly()}


class TestRateArray:
    """``rate_array`` checks its times as ``rate`` does, in every profile."""

    @pytest.mark.parametrize("name", sorted(INFLUX_PROFILES))
    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    def test_bad_time_rejected(self, name, bad):
        with pytest.raises(bt.DomainError):
            INFLUX_PROFILES[name].rate_array([0.0, bad, 0.5])

    @pytest.mark.parametrize("name", sorted(INFLUX_PROFILES))
    def test_matches_scalar_rate(self, name):
        prof = INFLUX_PROFILES[name]
        ts = np.array([0.0, 0.1, 0.5, 0.95, 1.5, 3.0])
        assert np.array_equal(prof.rate_array(ts), [prof.rate(t) for t in ts])
        assert prof.rate_array(np.array([])).shape == (0,)

class TestCumulativeInflow:
    def test_zero(self):
        assert bt.cumulative_inflow(bt.ZeroInflux(), 7.0) == 0.0

    def test_constant_rectangle(self):
        assert bt.cumulative_inflow(bt.ConstantInflux(4000.0), 0.5) == 2000.0

    def test_pulse_total_matches_quadrature(self):
        p = paper_pulse()
        oracle = riemann_integral(p.rate, 0.0, 1.0, n=400_000)
        assert oracle == pytest.approx(2400.0, abs=1e-4)
        assert bt.cumulative_inflow(p, 1.0) == pytest.approx(2400.0, abs=1e-9)

    @pytest.mark.parametrize("t", [0.1, 0.4, 0.55, 0.85, 1.0, 2.0])
    def test_pulse_partial_integrals(self, t):
        p = paper_pulse()
        oracle = riemann_integral(p.rate, 0.0, t, n=200_000)
        assert bt.cumulative_inflow(p, t) == pytest.approx(oracle, abs=1e-8 * 4000)

    def test_non_decreasing(self):
        p = paper_pulse()
        ts = np.linspace(0.0, 1.5, 50)
        F = [bt.cumulative_inflow(p, t) for t in ts]
        assert np.all(np.diff(F) >= 0.0)


class TestSurvival:
    @pytest.mark.parametrize("dist", [
        bt.ExponentialDistances(2.0),
        bt.UniformDistances(2.5),
        bt.DeterministicDistances(3.0),
    ])
    def test_starts_at_one(self, dist):
        assert bt.survival(dist, 0.3, 0.0) == 1.0

    def test_uniform_support_edge(self):
        assert bt.survival(bt.UniformDistances(2.5), 0.0, 5.0) == 0.0

    def test_exponential_closed_form(self):
        assert bt.survival(bt.ExponentialDistances(1.0), 0.0, 1.0) == \
            pytest.approx(math.exp(-1.0))

    def test_deterministic_heaviside(self):
        d = bt.DeterministicDistances(2.0)
        assert bt.survival(d, 0.0, 2.0) == 1.0
        assert bt.survival(d, 0.0, 2.0001) == 0.0

    @pytest.mark.parametrize("dist", [
        bt.ExponentialDistances(2.0),
        bt.UniformDistances(paper_btilde()),
        bt.DeterministicDistances(1.5),
    ])
    def test_non_increasing_in_distance(self, dist):
        xs = np.linspace(0.0, 12.0, 500)
        s = dist.survival_array(np.asarray(0.5), xs)
        assert np.all(s <= 1.0 + 1e-12) and np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 1e-12)

    def test_negative_arguments_rejected(self):
        with pytest.raises(bt.DomainError):
            bt.survival(bt.ExponentialDistances(1.0), -0.1, 0.0)
        with pytest.raises(bt.DomainError):
            bt.survival(bt.ExponentialDistances(1.0), 0.0, -0.1)


class TestMeanDistance:
    def test_deterministic(self):
        assert bt.mean_distance(bt.DeterministicDistances(2.0), 0.0) == 2.0

    def test_uniform_peak_of_paper_profile(self):
        d = bt.UniformDistances(paper_btilde())
        assert bt.mean_distance(d, 0.5) == 5.0
        assert bt.mean_distance(d, 0.0) == 2.0
        assert bt.mean_distance(d, 2.0) == 2.0  # clamped outside nodes

    def test_exponential(self):
        assert bt.mean_distance(bt.ExponentialDistances(3.0), 1.0) == 3.0

    @pytest.mark.parametrize("dist,xmax", [
        (bt.ExponentialDistances(2.0), 60.0),
        (bt.UniformDistances(2.5), 5.0),
        (bt.DeterministicDistances(3.0), 3.0),
    ])
    def test_equals_integral_of_survival(self, dist, xmax):
        xs = np.linspace(0.0, xmax, 400_001)
        quad = float(np.trapezoid(dist.survival_array(np.asarray(0.0), xs), xs))
        assert bt.mean_distance(dist, 0.0) == pytest.approx(quad, rel=1e-6)

    def test_capped_mean(self):
        d = bt.ExponentialDistances(2.0)
        assert d.mean_distance_capped(0.0, 4.0) == \
            pytest.approx(2.0 * (1 - math.exp(-2.0)))
        u = bt.UniformDistances(2.0)
        assert u.mean_distance_capped(0.0, 10.0) == pytest.approx(2.0)
        assert u.mean_distance_capped(0.0, 2.0) == pytest.approx(2.0 - 0.5)


class TestTabulatedSurvival:
    def _table(self):
        x = [0.0, 1.0, 2.0]
        t = [0.0, 1.0]
        vals = [[1.0, 0.5, 0.0], [1.0, 0.8, 0.0]]
        return bt.TabulatedSurvival(x, t, vals)

    def test_bilinear_interpolation(self):
        d = self._table()
        assert d.survival(0.0, 0.5) == pytest.approx(0.75)
        assert d.survival(0.5, 1.0) == pytest.approx(0.65)
        assert d.survival(2.0, 1.0) == pytest.approx(0.8)  # clamped in t

    def test_renormalizes_tiny_deviation(self):
        d = bt.TabulatedSurvival([0.0, 1.0], [0.0], [[1.0 + 5e-7, 0.0]])
        assert d.survival(0.0, 0.0) == 1.0

    def test_rejects_bad_normalization(self):
        with pytest.raises(bt.DataError):
            bt.TabulatedSurvival([0.0, 1.0], [0.0], [[0.9, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(bt.DataError):
            bt.TabulatedSurvival([0.0, 1.0], [0.0], [[1.0, float("nan")]])

    def test_rejects_increasing_rows(self):
        with pytest.raises(bt.DataError):
            bt.TabulatedSurvival([0.0, 1.0, 2.0], [0.0], [[1.0, 0.2, 0.4]])

    def test_mean_by_trapezoid(self):
        d = self._table()
        assert d.mean_distance(0.0) == pytest.approx(0.75 + 0.25)

    @pytest.mark.parametrize("X, want", [(1.5, 1.21875), (2.0, 1.5), (5.0, 2.0)])
    def test_capped_mean_of_a_uniform_table(self, X, want):
        d = bt.TabulatedSurvival([0.0, 4.0], [0.0], [[1.0, 0.0]])
        got = d.mean_distance_capped(0.0, X)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(bt.UniformDistances(2.0).mean_distance_capped(0.0, X),
                                    abs=1e-12)

    def test_capped_mean_interpolates_between_rows(self):
        d = self._table()  # the row at t = 0.5 is [1, 0.65, 0]
        assert d.mean_distance_capped(0.5, 1.5) == pytest.approx(0.825 + 0.24375, abs=1e-12)
        assert d.mean_distance_capped(0.5, 2.0) == pytest.approx(1.15, abs=1e-12)

    def test_capped_mean_takes_one_value_per_time(self):
        got = self._table().mean_distance_capped(np.array([0.0, 0.5, 1.0]), 2.0)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, [1.0, 1.15, 1.3], rtol=0.0, atol=1e-12)


class TestInitialProfile:
    def test_empty(self):
        assert bt.initial_profile(bt.EmptyNetwork(), 3.0) == 0.0

    def test_exponential_at_zero_is_lambda0(self):
        ic = bt.ExponentialProfile(100.0, 1.0)
        assert bt.initial_profile(ic, 0.0) == 100.0

    def test_exponential_decay(self):
        ic = bt.ExponentialProfile(100.0, 1.0)
        assert bt.initial_profile(ic, 1.0) == pytest.approx(100.0 * math.exp(-1))

    def test_tabulated_interp_and_clamp(self):
        ic = bt.TabulatedProfile([0.0, 1.0, 2.0], [10.0, 6.0, 0.0])
        assert ic.lambda0 == 10.0
        assert bt.initial_profile(ic, 0.5) == 8.0
        assert bt.initial_profile(ic, 5.0) == 0.0

    def test_rejects_increasing_counts(self):
        with pytest.raises(bt.DataError):
            bt.TabulatedProfile([0.0, 1.0], [5.0, 6.0])

    @pytest.mark.parametrize("lam0, B", [(math.nan, 1.0), (math.inf, 1.0),
                                         (100.0, math.inf)])
    def test_exponential_rejects_non_finite(self, lam0, B):
        with pytest.raises(bt.DomainError):
            bt.ExponentialProfile(lam0, B)


class TestNonFiniteArguments:
    # a NaN or infinite time and a NaN distance lie outside the valid range,
    # but pass a plain ``t < 0`` / ``x < 0`` test and then read as numbers
    @pytest.mark.parametrize("call", [
        lambda: bt.ConstantInflux(5.0).rate(math.nan),
        lambda: paper_pulse().rate(math.inf),
        lambda: paper_pulse().rate(math.nan),
        lambda: bt.UniformDistances(2.0).survival(math.nan, 1.0),
        lambda: bt.UniformDistances(2.0).survival(0.0, math.nan),
        lambda: bt.ExponentialProfile(100.0, 1.0).profile(math.nan),
        lambda: bt.mean_distance(bt.UniformDistances(2.0), math.nan),
        lambda: bt.mean_distance(bt.UniformDistances(2.0), math.inf),
        lambda: paper_pulse().cumulative(math.nan),
        lambda: bt.ConstantInflux(5.0).cumulative(math.nan),
        lambda: bt.PiecewiseLinearInflux([(0.0, 1.0), (1.0, 2.0)]).cumulative(math.inf),
    ], ids=["constant-rate-nan", "pulse-rate-inf", "pulse-rate-nan",
            "survival-t-nan", "survival-x-nan", "profile-nan",
            "mean-distance-nan", "mean-distance-inf", "pulse-cumulative-nan",
            "constant-cumulative-nan", "piecewise-cumulative-inf"])
    def test_rejected(self, call):
        with pytest.raises(bt.DomainError):
            call()
