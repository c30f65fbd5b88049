import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathtub as bt
from helpers import (assert_same_bits, paper_btilde, paper_pulse, riemann_integral,
                     tabulated_survival_reference, traced_peak)


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
    "piecewise_pulse": bt.PiecewiseLinearInflux([(0.1, 0.0), (0.3, 3000.0),
                                                 (0.5, 500.0), (0.9, 0.0)]),
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
        """Bit for bit at t = j*dt, j = 0..60000, dt = 2e-5, the times the
        Vickrey march reads in blocks (past every node but the piecewise
        profile's last), and at six times reaching that node too."""
        prof = INFLUX_PROFILES[name]
        dt = 2e-5
        assert_same_bits(prof.rate_array(np.arange(60_001) * dt),
                         np.array([prof.rate(j * dt) for j in range(60_001)]))
        ts = np.array([0.0, 0.1, 0.5, 0.95, 1.5, 3.0])
        assert_same_bits(prof.rate_array(ts), np.array([prof.rate(t) for t in ts]))
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

    @pytest.mark.parametrize("x, values", [([0.0], [[1.0]]), ([], [[]])])
    def test_rejects_fewer_than_two_x_nodes(self, x, values):
        # one node has no cell: its survival would divide by zero
        with pytest.raises(bt.DataError, match="at least 2 nodes"):
            bt.TabulatedSurvival(x, [0.0], values)

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


    @pytest.mark.parametrize("times", [1, 2, 5])
    def test_survival_keeps_the_bits_of_whole_row_interpolation(self, times):
        # only the columns that bracket each x are interpolated in t, with
        # the arithmetic of the whole interpolated row the survival used to
        # read them from: below, between and beyond the time rows, at the
        # nodes, between them and past the last one
        rng = np.random.default_rng(times)
        x = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 4.0, 6))))
        vals = np.sort(rng.uniform(0.0, 1.0, (times, x.size)), axis=1)[:, ::-1]
        vals[:, 0] = 1.0
        t_grid = np.sort(rng.uniform(0.2, 2.0, times))
        d = bt.TabulatedSurvival(x, t_grid, vals)
        t = np.concatenate(([0.0], t_grid, rng.uniform(0.0, 3.0, 20)))[:, None]
        xs = np.concatenate((x, rng.uniform(0.0, 6.0, 30)))[None, :]
        assert_same_bits(d.survival_array(t, xs), tabulated_survival_reference(d, t, xs))
        assert_same_bits(d.survival_array(0.7, xs[0]),
                         tabulated_survival_reference(d, 0.7, xs[0]))
        assert_same_bits(d.survival_array(t[:, 0], 1.1),
                         tabulated_survival_reference(d, t[:, 0], 1.1))

    def test_survival_holds_no_table_row_per_pair(self):
        # 41 x nodes: a whole interpolated row per (t, x) pair took about
        # 125 times the bytes of the result; two columns take about 9
        x = np.linspace(0.0, 10.0, 41)
        B = np.array([2.0, 3.875, 5.0, 3.875, 2.0])[:, None]  # uniform laws
        d = bt.TabulatedSurvival(x, np.linspace(0.0, 1.0, 5),
                                 np.maximum(0.0, 1.0 - x / (2.0 * B)))
        t = np.linspace(0.0, 1.2, 200)[:, None]
        xs = np.arange(160) * 2.0**-5
        d.survival_array(t[:2], xs)  # numpy's first-call allocations
        out, peak = traced_peak(lambda: d.survival_array(t, xs))
        assert out.shape == (200, 160)
        assert peak < 16 * out.nbytes

KEY_NODES = [0.2, 0.45, 0.7, 1.3]


def keyed_laws():
    """Every law, with a B~ that varies between ``KEY_NODES`` where it can."""
    btilde = bt.PiecewiseLinear(KEY_NODES, [1.5, 3.7, 2.9, 0.8])
    table = bt.TabulatedSurvival([0.0, 0.5, 1.0, 2.0, 3.0], [0.2, 0.7],
                                 [[1.0, 0.8, 0.5, 0.2, 0.0],
                                  [1.0, 0.9, 0.7, 0.3, 0.0]])
    return {"exponential": bt.ExponentialDistances(btilde),
            "uniform": bt.UniformDistances(btilde),
            "deterministic": bt.DeterministicDistances(btilde),
            "uniform_constant": bt.UniformDistances(2.25),
            "tabulated": table}


CAPPED_MEAN_LAWS = {
    "exponential": lambda: bt.ExponentialDistances(2.0),
    "exponential_btilde": lambda: bt.ExponentialDistances(paper_btilde()),
    "uniform": lambda: bt.UniformDistances(paper_btilde()),
    "deterministic": lambda: bt.DeterministicDistances(paper_btilde()),
    "tabulated": lambda: keyed_laws()["tabulated"],
}


class TestCappedMeanArray:
    @pytest.mark.parametrize("name", sorted(CAPPED_MEAN_LAWS))
    def test_matches_scalar_calls(self, name):
        """One array call gives the bits of one scalar call per time, at
        t = j * 1e-4, j = 0..20010, across and past every node of B~ (every
        tenth of them for the table, whose scalar call is slow), with X
        cutting each law's support: the audit reads the entered trip-miles
        in one call."""
        law, X = CAPPED_MEAN_LAWS[name](), 2.5
        t = np.arange(20_011) * 1e-4
        if name == "tabulated":
            t = t[::10]
        loop = np.asarray([float(law.mean_distance_capped(float(s), X)) for s in t])
        assert_same_bits(law.mean_distance_capped(t, X), loop)


# entry times on a node, between nodes, before the first and after the last
entry_times = st.one_of(st.sampled_from(KEY_NODES),
                        st.floats(KEY_NODES[0], KEY_NODES[-1]),
                        st.floats(0.0, KEY_NODES[0], exclude_max=True),
                        st.floats(KEY_NODES[-1], 50.0, exclude_min=True))


class TestEntryKey:
    """A march logs each entry's key once and evaluates the survival from
    it; that must give the bits of the survival from the entry time."""

    @pytest.mark.parametrize("law", [bt.ExponentialDistances, bt.UniformDistances,
                                     bt.DeterministicDistances])
    def test_zero_extended_btilde_rejected(self, law):
        btilde = bt.PiecewiseLinear([0.5, 1.0], [2.0, 3.0], extend="zero")
        with pytest.raises(bt.DomainError, match="'zero'"):
            law(btilde)

    @pytest.mark.parametrize("kind", sorted(keyed_laws()))
    @settings(max_examples=25)
    @given(t=entry_times, ts=st.lists(entry_times, min_size=1, max_size=12),
           x=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12))
    def test_key_path_is_bitwise_equal_to_time_path(self, kind, t, ts, x):
        dist = keyed_laws()[kind]
        x = np.array(x)
        key = dist.entry_key(t)
        assert isinstance(key, float)
        # a float key against the array path of the time
        assert_same_bits(dist.survival_from_key(key, x),
                         dist.survival_array(np.full(x.size, t), x))
        ts = np.array(ts)
        xs = x[np.arange(ts.size) % x.size]
        want = dist.survival_array(ts, xs)
        assert_same_bits(dist.survival_from_key(dist.entry_key(ts), xs), want)
        # keys logged one float at a time, as the march logs them
        logged = np.array([dist.entry_key(float(ti)) for ti in ts])
        assert_same_bits(dist.survival_from_key(logged, xs), want)


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

    @pytest.mark.parametrize("ic", [bt.EmptyNetwork(), bt.ExponentialProfile(300.0, 1.5),
                                    bt.TabulatedProfile([0.0, 1.0, 3.0],
                                                        [400.0, 200.0, 0.0])],
                             ids=["empty", "exponential", "tabulated"])
    def test_profile_array_matches_scalar_profile(self, ic):
        """Bit for bit at x = (j + 1)*dz, j = 0..8191, dz = 2**-8, the
        points the deterministic march reads in blocks (past the table's
        nodes and its zero tail)."""
        dz = 2.0**-8
        assert_same_bits(ic.profile_array(np.arange(1, 8193) * dz),
                         np.array([ic.profile((j + 1) * dz) for j in range(8192)]))


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
