import collections
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathtub as bt
from bathtub.solver import (_CAP, _CHUNK, _MAX_CELLS, _aged_out, _cell,
                            _profile_capped_lin, _rebuild, _window_survival)
from helpers import (DX_LEVELS, PAPER_FD, PAPER_L, assert_same_bits, paper_btilde, paper_char,
                     paper_integral, paper_pulse, paper_scenario,
                     reference_march, reference_rows, ring_windows,
                     solve_fixed_step, survival_capped_lin, traced_peak)
from strategies import gridlocking, plateaus, ramps


def empty_scenario(horizon, dx=2**-5, dt=None):
    grid = bt.GridSpec(dx=dx, X=4.0, horizon=horizon, dt=dt)
    return bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ZeroInflux(),
                       distances=bt.UniformDistances(2.0), grid=grid)


def shift_scenario(dx=2**-6, X=24.0, stop=1.0, dt=None):
    """Zero influx, exponential initial profile: pure characteristic shift."""
    grid = bt.GridSpec(dx=dx, X=X, horizon=bt.MaxCumulativeDistance(stop),
                       dt=dt)
    return bt.Scenario(L=PAPER_L, fd=bt.Greenshields(30.0, 200.0),
                       influx=bt.ZeroInflux(),
                       distances=bt.ExponentialDistances(1.0), grid=grid,
                       ic=bt.ExponentialProfile(100.0, 1.0))


class TestGridSpec:
    def test_x_must_be_multiple_of_dx(self):
        with pytest.raises(bt.DomainError):
            bt.GridSpec(dx=0.3, X=1.0, horizon=bt.MaxTime(1.0))

    @pytest.mark.parametrize("dx", [1.0, 2**-20])
    def test_cell_count_is_bounded(self, dx):
        # built at the bound and one cell past it; neither allocates a grid
        X = _MAX_CELLS * dx
        assert bt.GridSpec(dx=dx, X=X, horizon=bt.MaxTime(1.0)).cells == _MAX_CELLS
        with pytest.raises(bt.DomainError, match=r"X/dx .*dx = .*X = "):
            bt.GridSpec(dx=dx, X=X + dx, horizon=bt.MaxTime(1.0))

    @pytest.mark.parametrize("solver", ["integral", "mobility_service",
                                        "multi_commodity"])
    def test_integral_scheme_requires_dt(self, solver):
        scen = empty_scenario(bt.MaxTime(0.5))
        with pytest.raises(bt.DomainError, match="requires grid.dt"):
            solve_fixed_step(solver, scen)

    @pytest.mark.parametrize("horizon", [1.0, None, "z:30"])
    def test_horizon_must_be_a_horizon_type(self, horizon):
        with pytest.raises(bt.DomainError, match="horizon must be"):
            bt.GridSpec(dx=2**-5, X=4.0, horizon=horizon)

    def test_each_horizon_answers_both_limits(self):
        # the other limit is a class attribute, so it is not a field
        assert (bt.MaxTime(2.0).T, bt.MaxTime(2.0).Z) == (2.0, math.inf)
        stop = bt.MaxCumulativeDistance(3.0)
        assert (stop.T, stop.Z) == (math.inf, 3.0)
        assert [f.name for f in dataclasses.fields(bt.MaxTime)] == ["T"]
        assert [f.name for f in dataclasses.fields(stop)] == ["Z"]

    @pytest.mark.parametrize("v_min", [0.0, -1.0, math.inf, math.nan])
    def test_v_min_must_be_finite_and_positive(self, v_min):
        # with v_min = 0 a jammed characteristic step divides by zero and an
        # integral run under a z horizon never ends
        with pytest.raises(bt.DomainError):
            bt.GridSpec(dx=2**-5, X=4.0, horizon=bt.MaxTime(1.0), v_min=v_min)

    @pytest.mark.parametrize("field", ["dx", "X", "dt"])
    def test_infinite_grid_length_rejected(self, field):
        args = dict(dx=2**-5, X=4.0, dt=1e-3)
        args[field] = math.inf
        with pytest.raises(bt.DomainError):
            bt.GridSpec(horizon=bt.MaxTime(1.0), **args)

    @pytest.mark.parametrize("horizon", [bt.MaxTime, bt.MaxCumulativeDistance])
    def test_infinite_horizon_rejected(self, horizon):
        with pytest.raises(bt.DomainError):
            horizon(math.inf)

    def test_infinite_lane_miles_rejected(self):
        scen = empty_scenario(bt.MaxTime(0.5))
        with pytest.raises(bt.DomainError):
            bt.Scenario(L=math.inf, fd=scen.fd, influx=scen.influx,
                        distances=scen.distances, grid=scen.grid)


class TestFreeFlow:
    def test_empty_network_runs_at_free_speed(self):
        traj = bt.solve_characteristic(empty_scenario(bt.MaxTime(0.5)))
        assert np.all(traj.lam == 0.0)
        assert np.all(traj.v == 30.0)
        assert np.allclose(traj.z, 30.0 * traj.t, atol=1e-12)
        assert traj.termination is bt.Termination.HORIZON

    def test_integral_scheme_matches(self):
        traj = bt.solve_integral(empty_scenario(bt.MaxTime(0.5), dt=1e-3))
        assert np.all(traj.lam == 0.0)
        assert np.allclose(traj.z, 30.0 * traj.t, atol=1e-12)


class TestInitialValueShift:
    def test_count_follows_initial_profile_exactly(self):
        # with no inflow the grid state is a pure shift of the profile
        traj = bt.solve_characteristic(shift_scenario())
        lam_at_1 = traj.lam[np.searchsorted(traj.z, 1.0)]
        assert lam_at_1 == pytest.approx(100.0 * math.exp(-1.0), rel=1e-12)

    def test_profile_constant_along_characteristics(self):
        traj = bt.solve_characteristic(shift_scenario(stop=0.5))
        j = traj.n_steps - 1
        K = traj.K_history[j]
        expected = traj.scenario_profile if hasattr(traj, "scenario_profile") \
            else 100.0 * np.exp(-(traj.x_grid + traj.z[j]) / 1.0)
        inside = traj.x_grid + traj.z[j] <= 24.0
        assert np.max(np.abs(K[inside] - expected[inside])) < 1e-9

    def test_integral_scheme_tracks_closed_form(self):
        traj = bt.solve_integral(shift_scenario(dx=2**-6, dt=2**-6 / 30.0))
        lam_at_1 = np.interp(1.0, traj.z, traj.lam)
        # first-order in dt plus profile interpolation
        assert lam_at_1 == pytest.approx(100.0 * math.exp(-1.0), rel=2e-3)


class TestPaperScenario:
    def test_count_peaks_in_expected_window(self):
        traj = paper_char(2**-6)
        t_peak = traj.t[int(np.argmax(traj.lam))]
        assert 0.75 <= t_peak <= 1.0

    def test_integral_scheme_peaks_in_the_same_window(self):
        traj = paper_integral(2**-6)
        t_peak = traj.t[int(np.argmax(traj.lam))]
        assert 0.75 <= t_peak <= 1.0

    def test_profiles_stay_monotone_and_positive(self):
        traj = paper_char(2**-5)
        assert np.all(traj.K_history >= 0.0)
        assert np.all(np.diff(traj.K_history, axis=1) <= 1e-9)
        assert np.array_equal(traj.K_history[:, 0], traj.lam)

    def test_conservation_identity_every_step(self):
        for traj in (paper_char(2**-5), paper_integral(2**-5)):
            scale = np.maximum(traj.lam[0] + traj.F, 1.0)
            resid = np.abs(traj.G - (traj.lam[0] + traj.F - traj.lam)) / scale
            assert np.max(resid) < 1e-9

    def test_series_monotonicity(self):
        traj = paper_char(2**-5)
        for name in ("t", "z", "F", "G"):
            assert np.all(np.diff(traj.series[name]) >= -1e-12), name

    def test_truncated_mass_reported(self):
        # the peak-period distance law has support beyond the grid limit
        traj = paper_char(2**-5)
        assert traj.truncated_mass > 0.0

    def test_results_stop_moving_once_x_holds_every_trip(self):
        # uniform distances run up to 2 max Btilde = 10 miles: the cap at X
        # exits the longer trips early while X < 10, and nothing after
        def solve(X):
            grid = bt.GridSpec(dx=2**-4, X=X, horizon=bt.MaxCumulativeDistance(30.0))
            traj = bt.solve_characteristic(bt.Scenario(
                L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                distances=bt.UniformDistances(paper_btilde()), grid=grid))
            return traj.time_to_distance(30.0), float(traj.lam.max()), traj.truncated_mass

        t30, peak, capped = solve(10.0)
        assert (t30, peak, capped) == solve(12.0)
        assert capped == 0.0
        assert t30 == pytest.approx(1.9820270805160058, rel=1e-12)
        assert peak == pytest.approx(1508.2521632667926, rel=1e-12)
        for X, t30_capped, trips in ((5.0, 1.6973, 974.0), (8.0, 1.9701, 264.0)):
            t, _, capped = solve(X)
            assert t < t30
            assert t == pytest.approx(t30_capped, abs=1e-4)
            assert capped == pytest.approx(trips, abs=1.0)

    def test_strict_truncation_rejects_lossy_grid(self):
        scen = paper_scenario(2**-4)
        grid = bt.GridSpec(dx=scen.grid.dx, X=scen.grid.X,
                           horizon=scen.grid.horizon, strict_truncation=True)
        strict = bt.Scenario(L=scen.L, fd=scen.fd, influx=scen.influx,
                             distances=scen.distances, grid=grid)
        with pytest.raises(bt.DataError):
            bt.solve_characteristic(strict)

    def test_schemes_agree_and_gap_shrinks(self):
        gaps = []
        for dx in (2**-4, 2**-5):
            tc, ti = paper_char(dx), paper_integral(dx)
            tmax = min(tc.t[-1], ti.t[-1])
            tg = ti.t[ti.t <= tmax]
            gaps.append(float(np.max(np.abs(np.interp(tg, tc.t, tc.z)
                                            - ti.z[:tg.size]))))
        assert gaps[1] < 0.65 * gaps[0]


def exact_runs(solver, cell):
    """The runs of an exact solver on cells of ``cell`` miles: the paper
    pulse from an empty network to z = 12 (to t = 0.8 for two commodities
    sharing one density)."""
    stop = bt.MaxCumulativeDistance(12.0)
    if solver in ("deterministic", "constant_distance"):
        c = bt.DeterministicConfig(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                                   dz=cell, horizon=stop,
                                   btilde=paper_btilde() if solver == "deterministic" else 2.0)
        return [bt.solve_deterministic(c) if solver == "deterministic"
                else bt.solve_constant_distance(c)[0]]
    grid = bt.GridSpec(dx=cell, X=5.0, horizon=stop, dt=cell / 30.0)
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                       distances=bt.UniformDistances(paper_btilde()), grid=grid)
    if solver == "characteristic":
        return [bt.solve_characteristic(scen)]
    if solver == "integral":
        return [bt.solve_integral(scen)]
    if solver == "mobility_service":
        esr = bt.BoardingDelaySpeed(PAPER_FD, alpha=1e-3, lane_miles=PAPER_L)
        return [bt.solve_mobility_service(scen, esr)]
    coms = [bt.CommodityDemand(bt.TrapezoidalPulse(7000.0, 2000.0, 1.0),
                               bt.UniformDistances(paper_btilde())),
            bt.CommodityDemand(bt.TrapezoidalPulse(3000.0, 2000.0, 1.0),
                               bt.ExponentialDistances(1.5))]
    rel = lambda lam, f, g: PAPER_FD.speed(lam.sum() / PAPER_L)
    return bt.solve_multi_commodity(PAPER_L, coms, [rel] * 2,
                                    dataclasses.replace(grid, horizon=bt.MaxTime(0.8)))


class TestReconstruction:
    @pytest.mark.parametrize("cell", [2**-4, 0.1])
    @pytest.mark.parametrize("solver", ["characteristic", "integral",
                                        "mobility_service", "multi_commodity",
                                        "deterministic", "constant_distance"])
    def test_matches_count_series_exactly(self, solver, cell):
        # Vickrey runs are left out: their rebuild differs by O(dt) by design
        for traj in exact_runs(solver, cell):
            got = [bt.reconstruct_K(traj, float(t), 0.0) for t in traj.t]
            np.testing.assert_allclose(got, traj.lam, rtol=0.0,
                                       atol=1e-9 * traj.lam.max())

    def test_matches_marched_profile_exactly(self):
        traj = paper_char(2**-5)
        j = traj.n_steps // 2
        rec = bt.reconstruct_K(traj, float(traj.t[j]), traj.x_grid)
        assert np.max(np.abs(rec - traj.K_history[j])) < 1e-9

    def test_no_inflow_reduces_to_shifted_initial_profile(self):
        traj = bt.solve_characteristic(shift_scenario(stop=0.5))
        t = float(traj.t[-1])
        z = traj.z[-1]
        xs = np.array([0.0, 0.5, 1.0, 3.0])
        got = np.array([bt.reconstruct_K(traj, t, x) for x in xs])
        assert np.allclose(got, 100.0 * np.exp(-(xs + z)), atol=1e-9)

    def test_vanishes_at_grid_limit(self):
        traj = paper_char(2**-5)
        j = int(np.argmax(traj.lam))
        assert bt.reconstruct_K(traj, float(traj.t[j]), 5.0) == 0.0

    def test_out_of_range_time_rejected(self):
        traj = paper_char(2**-5)
        with pytest.raises(bt.DomainError):
            bt.reconstruct_K(traj, traj.t[-1] + 1.0, 0.0)


def window_distances():
    table = bt.TabulatedSurvival([0.0, 0.5, 1.0, 2.0, 3.0], [0.0, 0.5],
                                 [[1.0, 0.8, 0.5, 0.2, 0.0],
                                  [1.0, 0.9, 0.7, 0.3, 0.0]])
    # B~ nodes inside window_run's 0.2 h, so each entry logs its own key
    varying = bt.PiecewiseLinear([0.03, 0.08, 0.15], [0.8, 1.6, 1.1])
    return {"uniform": bt.UniformDistances(1.2),
            "uniform_varying": bt.UniformDistances(varying),
            "exponential": bt.ExponentialDistances(0.8),
            "deterministic": bt.DeterministicDistances(1.5),
            "tabulated": table}


def full_log_K(traj, t, xs):
    """K(t, x) summed over every entry logged before t, none skipped."""
    dx, cells = float(traj.x_grid[1]), traj.x_grid.size - 1
    z = np.interp(t, traj.t, traj.z)
    sel = traj.entry_t < t - 1e-12
    nodes = traj.ic.profile_array(traj.x_grid).astype(float)
    ages = xs[:, None] + (z - traj.entry_z[sel])
    return (_profile_capped_lin(nodes, xs + z, dx)
            + survival_capped_lin(traj.distances, traj.entry_t[sel], ages, dx, cells)
            @ traj.entry_mass[sel])


def window_scenario(kind, ic_kind, dx=2**-4, inflow=6000.0):
    X = 2.0
    ic = bt.EmptyNetwork() if ic_kind == "empty" else bt.ExponentialProfile(300.0, 1.0)
    grid = bt.GridSpec(dx=dx, X=X, horizon=bt.MaxCumulativeDistance(3 * X),
                       dt=dx / 30.0)
    return bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(inflow),
                       distances=window_distances()[kind], grid=grid, ic=ic)


@functools.lru_cache(maxsize=None)
def window_run(kind, ic_kind, solver="integral", dx=2**-4, inflow=6000.0):
    return solve_fixed_step(solver, window_scenario(kind, ic_kind, dx, inflow))


class TestIntegralWindow:
    """The march weights only the live window of the entering-mass log; a
    full-log sum over every logged entry must give the same lambda."""

    @pytest.mark.parametrize("ic_kind", ["empty", "exponential_ic"])
    @pytest.mark.parametrize("kind", sorted(window_distances()))
    def test_lambda_matches_full_log_sum(self, kind, ic_kind):
        traj = window_run(kind, ic_kind)
        assert traj.z[-1] >= 3 * traj.x_grid[-1]
        # step j carries the entries logged before it, aged to z_j
        ref = np.array([full_log_K(traj, t, np.zeros(1))[0] for t in traj.t])
        np.testing.assert_allclose(traj.lam, ref, rtol=1e-12, atol=0.0)


class TestReferenceMarch:
    """Every fixed-step solver gives the bits of the plain reference march
    of ``helpers.reference_march``: the t, z, lambda, v and mass series and
    the termination."""

    def check(self, trajs, demands, grid, speed_of):
        t, series, termination = reference_march(demands, grid, speed_of)
        assert len(trajs) == len(series)
        for traj, ref in zip(trajs, series):
            assert traj.termination is termination
            assert_same_bits(traj.t, t)
            for key, want in ref.items():
                assert_same_bits(getattr(traj, key), want)

    @pytest.mark.parametrize("kind, ic_kind", [("uniform_varying", "exponential_ic"),
                                               ("exponential", "empty"),
                                               ("deterministic", "empty"),
                                               ("tabulated", "exponential_ic")])
    def test_integral(self, kind, ic_kind):
        s = window_scenario(kind, ic_kind)
        self.check([window_run(kind, ic_kind)], [(s.influx, s.distances, s.ic)],
                   s.grid, lambda t, lam, f, g: [PAPER_FD.speed(lam[0] / PAPER_L)])

    def test_mobility_service(self):
        # the boarding delay jams the network at 6000 trips/h
        s = window_scenario("uniform_varying", "exponential_ic", inflow=3000.0)
        esr = bt.BoardingDelaySpeed(PAPER_FD, alpha=1e-3, lane_miles=PAPER_L)
        self.check([window_run("uniform_varying", "exponential_ic",
                               "mobility_service", inflow=3000.0)],
                   [(s.influx, s.distances, s.ic)], s.grid,
                   lambda t, lam, f, g: [esr.speed(lam[0] / PAPER_L, lam[0], f[0],
                                                   max(g[0], 0.0))])

    def test_two_commodities(self):
        laws = window_distances()
        demands = [(bt.ConstantInflux(4000.0), laws["uniform_varying"],
                    bt.ExponentialProfile(300.0, 1.0)),
                   (paper_pulse(), laws["tabulated"], bt.EmptyNetwork())]
        grid = bt.GridSpec(dx=2**-4, X=2.0, horizon=bt.MaxTime(0.25), dt=2**-4 / 30.0)
        # one shared density; the second commodity also slows with the out-flux
        rels = [lambda lam, f, g: PAPER_FD.speed(lam.sum() / PAPER_L),
                lambda lam, f, g: PAPER_FD.speed((lam.sum() + 1e-3 * g.sum()) / PAPER_L)]
        trajs = bt.solve_multi_commodity(
            PAPER_L, [bt.CommodityDemand(*d) for d in demands], rels, grid)
        self.check(trajs, demands, grid,
                   lambda t, lam, f, g: [rel(lam, f, np.maximum(g, 0.0)) for rel in rels])

    def test_gridlocking_run(self):
        # the first entries age X (z reaches 8.3) before the jam
        grid = bt.GridSpec(dx=2**-3, X=2.0, horizon=bt.MaxTime(40.0), dt=2**-3 / 30.0,
                           v_min=0.5)
        s = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(8000.0),
                        distances=window_distances()["uniform"], grid=grid)
        traj = bt.solve_integral(s)
        assert traj.termination is bt.Termination.GRIDLOCK and traj.z[-1] > 2 * grid.X
        self.check([traj], [(s.influx, s.distances, s.ic)], grid,
                   lambda t, lam, f, g: [PAPER_FD.speed(lam[0] / PAPER_L)])

    # Runs whose log holds masses of exactly 0: the march evaluates the
    # survival only up to the last nonzero mass of the live window.
    def check_integral(self, influx, distances, grid, ic=bt.EmptyNetwork()):
        s = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=influx, distances=distances,
                        grid=grid, ic=ic)
        traj = bt.solve_integral(s)
        self.check([traj], [(influx, distances, ic)], grid,
                   lambda t, lam, f, g: [PAPER_FD.speed(lam[0] / PAPER_L)])
        return traj

    def test_pulse_run_past_its_end(self):
        # the pulse ends at 0.1 h and its trips have left by about 0.2 h, so
        # the last steps' live windows hold nothing but zero masses
        grid = bt.GridSpec(dx=2**-4, X=2.0, horizon=bt.MaxTime(0.25), dt=2**-4 / 30.0)
        traj = self.check_integral(bt.TrapezoidalPulse(ramp=1e5, plateau=5000.0, end=0.1),
                                   window_distances()["uniform_varying"], grid)
        assert traj.lam.max() > 0.0 and np.all(traj.lam[traj.t > 0.22] == 0.0)

    @pytest.mark.parametrize("kind, ic_kind", [("uniform_varying", "empty"),
                                               ("tabulated", "exponential_ic")])
    def test_late_start_and_a_zero_gap(self, kind, ic_kind):
        influx = bt.PiecewiseLinearInflux([(0.03, 0.0), (0.05, 4000.0), (0.08, 0.0),
                                           (0.12, 0.0), (0.14, 6000.0), (0.2, 2000.0)])
        ic = bt.EmptyNetwork() if ic_kind == "empty" else bt.ExponentialProfile(300.0, 1.0)
        grid = bt.GridSpec(dx=2**-4, X=2.0, horizon=bt.MaxTime(0.25), dt=2**-4 / 30.0)
        traj = self.check_integral(influx, window_distances()[kind], grid, ic)
        assert traj.entry_mass[0] == 0.0 and traj.entry_mass[-1] == 0.0

    def test_two_commodities_one_without_inflow(self):
        laws = window_distances()
        demands = [(bt.ConstantInflux(4000.0), laws["uniform_varying"], bt.EmptyNetwork()),
                   (bt.ZeroInflux(), laws["exponential"], bt.ExponentialProfile(200.0, 1.0))]
        grid = bt.GridSpec(dx=2**-4, X=2.0, horizon=bt.MaxTime(0.2), dt=2**-4 / 30.0)
        rels = [lambda lam, f, g: PAPER_FD.speed(lam.sum() / PAPER_L)] * 2
        trajs = bt.solve_multi_commodity(
            PAPER_L, [bt.CommodityDemand(*d) for d in demands], rels, grid)
        assert trajs[0].entry_mass.all() and not trajs[1].entry_mass.any()
        self.check(trajs, demands, grid,
                   lambda t, lam, f, g: [rel(lam, f, np.maximum(g, 0.0)) for rel in rels])

    def test_window_longer_than_the_first_buffer(self):
        # at free flow a step moves z by 1/1100 mi, so X holds 1,100 entries;
        # the window outgrows the buffer's first size after the inflow stops,
        # so the grown part meets zero masses only
        grid = bt.GridSpec(dx=2**-3, X=1.0, horizon=bt.MaxTime(0.032), dt=1 / 33000.0)
        influx = bt.PiecewiseLinearInflux([(0.0, 600.0), (0.015, 600.0), (0.0155, 0.0)])
        traj = self.check_integral(influx, window_distances()["uniform"], grid)
        live = np.count_nonzero(traj.z[-1] - traj.entry_z < grid.X)
        assert live > _CAP and traj.entry_mass[-1] == 0.0


@st.composite
def live_windows(draw, dx):
    """A live window of the march: ages in cells 0..cells-1, not increasing,
    some on nodes or a rounding error either side of one, and up to three
    forced into the last cell, whose upper node is X; entry times rise."""
    cells = draw(st.integers(1, 40))
    frac = st.one_of(st.sampled_from([0.0, 1e-12, -1e-12, 0.5]),
                     st.floats(0.0, 1.0, exclude_max=True))
    ages = draw(st.lists(st.tuples(st.integers(0, cells - 1), frac),
                         min_size=1, max_size=60))
    ages += [(cells - 1, f) for f in draw(st.lists(frac, max_size=3))]
    y = np.array([max((c + f) * dx, 0.0) for c, f in ages])
    y = np.sort(y[np.floor(y / dx + 1e-9) <= cells - 1])[::-1].copy()
    t = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=y.size,
                              max_size=y.size)))
    return t, y, cells


@pytest.mark.parametrize("dx", [2**-4, 0.1, 0.3])
@pytest.mark.parametrize("kind", sorted(window_distances()))
@settings(max_examples=25)
@given(data=st.data())
def test_window_kernel_is_bitwise_equal_to_masked_reference(kind, dx, data):
    """The march's mask-free kernel, fed the keys the march logs, gives the
    bits of the masked reference, which evaluates the survival from the
    entry times, on every live window."""
    t, y, cells = data.draw(live_windows(dx))
    dist = window_distances()[kind]
    keys = np.array([dist.entry_key(float(ti)) for ti in t])
    p = int(np.count_nonzero(_aged_out(y, dx, cells - 1)))  # the last cell's
    got = _window_survival(dist, keys, y, dx, p, out=np.empty_like(y))
    assert_same_bits(got, survival_capped_lin(dist, t, y, dx, cells))


class TestCellRule:
    """``_cell`` places an offset in its cell for every gridded kernel, and
    ``_aged_out`` says when an age has reached X by the same rule."""

    def test_a_rounding_error_below_a_node_is_on_it(self):
        # 0.3/0.1 and 0.7/0.1 round to just below 3 and 7
        assert 0.3 / 0.1 < 3.0 and 0.7 / 0.1 < 7.0
        k, th = _cell(np.array([0.3, 0.7, 0.35]), 0.1)
        assert k.tolist() == [3.0, 7.0, 3.0]
        assert th[:2].tolist() == [0.0, 0.0] and 0.0 < th[2] < 1.0

    @pytest.mark.parametrize("dx", [2**-4, 0.1])
    def test_ages_between_minus_dx_and_zero_sit_in_cell_minus_one(self, dx):
        y = -np.array([0.25, 0.5, 0.999, 1.0 - 1e-6]) * dx
        k, th = _cell(y, dx)
        assert np.all(k == -1.0) and np.all(th >= 0.0)
        assert _cell(np.array(-0.5 * dx), dx)[0] == -1.0  # 0-d input

    @pytest.mark.parametrize("dx, cells", [(2**-4, 80), (0.1, 20), (0.3, 7)])
    def test_aged_out_at_exactly_cells_dx(self, dx, cells):
        X = cells * dx
        assert _aged_out(X, dx, cells) and _aged_out(X + dx, dx, cells)
        # a rounding error below X is on X, as in _cell
        assert _aged_out(math.nextafter(X, 0.0), dx, cells)
        assert not _aged_out(X - 1e-6 * dx, dx, cells)
        assert not _aged_out((cells - 1) * dx, dx, cells)
        assert type(_aged_out(X, dx, cells)) is bool  # no array for a float
        ages = np.linspace(X - 2 * dx, X + dx, 301)
        assert np.array_equal(_aged_out(ages, dx, cells), _cell(ages, dx)[0] >= cells)


class NegativeSurvival(bt.DistanceDistribution):
    """A user-defined law whose survival is negative beyond 1 mile."""

    def survival_array(self, t, x):
        return np.where(np.asarray(x) > 1.0, -0.5, 1.0) + 0.0 * np.asarray(t)


class NaNSurvival(bt.DistanceDistribution):
    def survival_array(self, t, x):
        return np.full(np.broadcast(t, x).shape, np.nan)


class NegativeRate(bt.InfluxProfile):
    def _rate(self, t):
        return -100.0


class NegativeProfile(bt.InitialCondition):
    lambda0 = 10.0

    def profile_array(self, x):
        return 10.0 - 20.0 * np.asarray(x, dtype=float)


class TestCharacteristicProfileCheck:
    """The package's own laws keep K >= 0; a user-defined law that makes K
    negative, at the start or after a step, stops the march."""

    @pytest.mark.parametrize("case", ["survival", "nan_survival", "rate", "profile"])
    def test_negative_profile_raises(self, case):
        influx = NegativeRate() if case == "rate" else bt.ConstantInflux(600.0)
        dist = {"survival": NegativeSurvival(),
                "nan_survival": NaNSurvival()}.get(case, bt.UniformDistances(2.0))
        ic = NegativeProfile() if case == "profile" else bt.EmptyNetwork()
        grid = bt.GridSpec(dx=2**-4, X=2.0, horizon=bt.MaxCumulativeDistance(1.0))
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=influx, distances=dist,
                           grid=grid, ic=ic)
        with pytest.raises(bt.DataError, match="negative"):
            bt.solve_characteristic(scen)


class TestProfiles:
    """``Trajectory.profiles`` rebuilds K in one batch from the live window
    of the log and a table of node survivals; every row must equal a sum
    over the whole log.  A characteristic run replays its update instead,
    and its rows must not depend on which steps are asked for."""

    @pytest.mark.parametrize("ic_kind", ["empty", "exponential_ic"])
    @pytest.mark.parametrize("kind", sorted(window_distances()))
    def test_rows_match_full_log_sum(self, kind, ic_kind):
        traj = window_run(kind, ic_kind)
        assert traj.z[-1] >= 3 * traj.x_grid[-1]
        rows = traj.profiles(np.arange(traj.n_steps))
        assert rows.shape == (traj.n_steps, traj.x_grid.size)
        ref = np.array([full_log_K(traj, t, traj.x_grid) for t in traj.t])
        np.testing.assert_allclose(rows, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("ic_kind", ["empty", "exponential_ic"])
    @pytest.mark.parametrize("kind", sorted(window_distances()))
    @pytest.mark.parametrize("solver", ["mobility_service", "multi_commodity"])
    def test_other_fixed_step_solvers_match_full_log_sum(self, solver, kind, ic_kind):
        # the boarding delay jams the network at 6000 trips/h
        inflow = 3000.0 if solver == "mobility_service" else 6000.0
        traj = window_run(kind, ic_kind, solver, inflow=inflow)
        assert traj.scheme == solver and traj.z[-1] >= 3 * traj.x_grid[-1]
        rows = traj.profiles(np.arange(traj.n_steps))
        ref = np.array([full_log_K(traj, t, traj.x_grid) for t in traj.t])
        np.testing.assert_allclose(rows, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("ic_kind", ["empty", "exponential_ic"])
    @pytest.mark.parametrize("kind", sorted(window_distances()))
    def test_rows_match_full_log_sum_on_a_non_dyadic_grid(self, kind, ic_kind):
        # at dx = 0.1, n + age/dx and (n dx + age)/dx round apart, so a tail
        # value may differ from the full-log sum by more than 1e-12 of
        # itself, though not of max lambda
        traj = window_run(kind, ic_kind, dx=0.1)
        assert traj.x_grid.size == 21 and traj.z[-1] > 2 * traj.x_grid[-1]
        rows = traj.profiles(np.arange(traj.n_steps))
        ref = np.array([full_log_K(traj, t, traj.x_grid) for t in traj.t])
        np.testing.assert_allclose(rows, ref, rtol=1e-12,
                                   atol=1e-12 * float(traj.lam.max()))

    def test_no_steps_give_no_rows(self):
        traj = window_run("uniform", "exponential_ic")
        assert traj.profiles([]).shape == (0, traj.x_grid.size)
        assert traj.profiles([], 5).shape == (0, 5)

    def test_step_count_not_a_multiple_of_the_chunk(self):
        traj = window_run("uniform", "exponential_ic")
        steps = np.arange(5, traj.n_steps, 3)[:2 * _CHUNK + 3]
        assert steps.size % _CHUNK != 0
        rows = traj.profiles(steps, 9)
        ref = np.array([full_log_K(traj, traj.t[j], traj.x_grid[:9]) for j in steps])
        np.testing.assert_allclose(rows, ref, rtol=1e-12, atol=0.0)
        # one-step calls and unordered batches give the same rows
        np.testing.assert_allclose(traj.profile(int(steps[-1]), 9), ref[-1],
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.profiles(steps[::-1], 9), ref[::-1],
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", sorted(window_distances()))
    def test_reconstruct_K_off_grid(self, kind):
        traj = window_run(kind, "exponential_ic")
        dx = float(traj.x_grid[1])
        xs = np.array([0.0, 0.37, 1.3, 5.5, 31.77, 32.2, 40.0]) * dx
        for j in (1, traj.n_steps // 3, traj.n_steps - 1):
            t = float(traj.t[j])
            np.testing.assert_allclose(bt.reconstruct_K(traj, t, xs),
                                       full_log_K(traj, t, xs), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scheme", ["integral", "characteristic"])
    def test_reconstruct_K_splits_x_into_node_and_shift(self, scheme):
        # one call per distinct shift: an array mixing on-grid x, off-grid x
        # and x >= X gives each value its own call's result, also between
        # steps, where a characteristic run's newest entries have negative ages
        if scheme == "integral":
            traj = window_run("uniform", "exponential_ic")
        else:
            traj = bt.solve_characteristic(paper_scenario(2**-4, stop=6.0))
        dx, X = float(traj.x_grid[1]), float(traj.x_grid[-1])
        on = np.array([0.0, 3.0, 1.0, 17.0]) * dx
        off = np.array([0.37, 3.37, 5.5, 0.37, 13.9]) * dx
        beyond = np.array([X, X + 0.5 * dx, X + dx, 2 * X, 40.0 * X])
        xs = np.concatenate([on, off[:2], beyond[:3], off[2:], on[::-1], beyond[3:]])
        mid = traj.n_steps // 2
        cases = [(float(traj.t[j]), j) for j in (1, traj.n_steps // 3, traj.n_steps - 1)]
        cases.append((float(0.6 * traj.t[mid] + 0.4 * traj.t[mid + 1]), None))
        for t, j in cases:  # j is None between steps
            got = bt.reconstruct_K(traj, t, xs)
            one = np.array([bt.reconstruct_K(traj, t, x) for x in xs])
            np.testing.assert_allclose(got, one, rtol=1e-14, atol=0.0)
            # ages are at least 0 at a step, and more than -dx between steps
            assert np.all(got[xs >= (X if j is not None else X + dx)] == 0.0)
            if scheme == "integral" and j is not None:  # a characteristic run replays
                assert np.array_equal(got[:on.size],
                                      traj.profile(j)[np.array([0, 3, 1, 17])])
            np.testing.assert_allclose(got, full_log_K(traj, t, xs),
                                       rtol=1e-12, atol=0.0)

    def test_reconstruct_K_between_steps(self):
        # a characteristic entry ages from the end of its step, so between
        # steps the newest entry has a negative age at small x
        traj = bt.solve_characteristic(paper_scenario(2**-4, stop=6.0))
        dx = float(traj.x_grid[1])
        xs = np.array([0.0, 0.2, 0.5, 0.99, 1.0, 1.4, 7.3]) * dx
        for j in (3, traj.n_steps // 2, traj.n_steps - 2):
            t = float(0.6 * traj.t[j] + 0.4 * traj.t[j + 1])
            got = bt.reconstruct_K(traj, t, xs)
            np.testing.assert_allclose(got, full_log_K(traj, t, xs),
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("run", ["paper", "gridlocked"])
    def test_replayed_rows_are_returned_bitwise(self, run):
        if run == "paper":
            traj = paper_char(2**-5)
        else:
            traj = z_grid_run("characteristic", bt.MaxTime(20.0), gridlock=True)[0]
            assert traj.termination is bt.Termination.GRIDLOCK
        every = traj.profiles(slice(None))
        assert np.array_equal(every[:, 0], traj.lam)  # the march returns K[0]
        assert np.array_equal(traj.profiles(traj.profile_steps(9)), every)
        steps = np.array([17, 0, -1, 5, 17, 4, -3])
        assert np.array_equal(traj.profiles(steps), every[steps])
        assert np.array_equal(traj.profiles(steps, 7), every[steps, :7])
        assert np.array_equal(traj.profile(-1), every[-1])
        assert traj.profiles([]).shape == (0, traj.x_grid.size)

    def test_states_use_the_batched_rows(self):
        traj = window_run("exponential", "exponential_ic")
        rows = traj.profiles(np.arange(traj.n_steps))
        states = list(traj.states())
        assert len(states) == traj.n_steps
        assert all(np.array_equal(st.K, row) for st, row in zip(states, rows))
        assert np.array_equal(traj.state(7).K, rows[7])

    def test_each_entry_survival_row_is_evaluated_once(self, monkeypatch):
        # the rebuilt chunks share one ring of node survivals, filled at most
        # _CHUNK entries per call: each entry in a chunk's window is asked
        # once, where a table per chunk asked 6,972 rows for these 1,605
        traj = paper_integral(2**-5)
        steps = traj.profile_steps(257)
        windows = ring_windows(traj, traj.t[steps])
        law, asked = type(traj.distances), []
        survival_array = law.survival_array

        def counted(self, t, x):
            asked.append(np.broadcast_shapes(np.shape(t), np.shape(x)))
            return survival_array(self, t, x)

        monkeypatch.setattr(law, "survival_array", counted)
        for _ in traj.profile_blocks(steps):
            pass
        distinct = set().union(*(range(base, top) for base, top in windows))
        assert len(distinct) == 1605
        assert sum(rows for rows, _ in asked) == len(distinct)
        assert all(rows <= _CHUNK and cells == traj.x_grid.size - 1
                   for rows, cells in asked)

    def test_read_blocks_free_the_ring(self):
        # the rebuilt blocks share a ring of 783 x 322 node survivals (about
        # 2 MB); an iterator read to its end no longer holds it
        traj = paper_integral(2**-5)
        steps = traj.profile_steps(257)

        def read_all():  # the memory held while the read iterator lives
            blocks = traj.profile_blocks(steps)
            collections.deque(blocks, maxlen=0)
            return tracemalloc.get_traced_memory()[0]

        held, peak = traced_peak(read_all)
        assert peak > 1e6  # the ring was built
        assert held < 1e5

    @pytest.mark.parametrize("t, x", [(math.nan, 0.0), (None, math.nan),
                                      (None, math.inf), (math.inf, 0.0)])
    def test_non_finite_query_rejected(self, t, x):
        traj = paper_integral(2**-5)
        t = float(traj.t[-1]) if t is None else t
        with pytest.raises(bt.DomainError):
            bt.reconstruct_K(traj, t, x)
        with pytest.raises(bt.DomainError):
            bt.reconstruct_K(traj, t, np.array([0.0, x]))


REFERENCE_LAWS = {
    "exponential": bt.ExponentialDistances(paper_btilde()),
    "uniform": bt.UniformDistances(paper_btilde()),
    "deterministic": bt.DeterministicDistances(1.5),
    "tabulated": bt.TabulatedSurvival([0.0, 0.5, 1.0, 2.0, 3.0], [0.2, 0.7],
                                      [[1.0, 0.8, 0.5, 0.2, 0.0],
                                       [1.0, 0.9, 0.7, 0.3, 0.0]])}
REFERENCE_STARTS = {
    "empty": bt.EmptyNetwork(),
    "exponential": bt.ExponentialProfile(80.0, 1.0),
    "tabulated": bt.TabulatedProfile([0.0, 1.0, 3.0], [300.0, 150.0, 0.0])}


@settings(max_examples=25)
@given(solver=st.sampled_from(["integral", "mobility_service"]),
       ramp=ramps, plateau=plateaus,
       law=st.sampled_from(sorted(REFERENCE_LAWS)),
       start=st.sampled_from(sorted(REFERENCE_STARTS)),
       steps=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
       nodes=st.one_of(st.none(), st.integers(1, 17)),
       when=st.floats(0.0, 1.0), xs=st.lists(st.floats(0.0, 2.5), min_size=1, max_size=4))
def test_rebuilt_rows_equal_rows_built_alone(solver, ramp, plateau, law, start,
                                             steps, nodes, when, xs):
    """``profiles`` (steps in any order, with repeats), ``states``,
    ``reconstruct_K`` at any x and the kernel itself on unordered times
    (where a chunk may start before the entries its ring holds) share one
    survival ring across their rows; each row must have the bytes of that
    row rebuilt alone from a table of its own live window."""
    grid = bt.GridSpec(dx=2**-3, X=2.0, horizon=bt.MaxCumulativeDistance(6.0),
                       dt=2**-3 / 30.0)
    traj = solve_fixed_step(solver, bt.Scenario(
        L=PAPER_L, fd=PAPER_FD, influx=bt.TrapezoidalPulse(ramp, plateau, 1.0),
        distances=REFERENCE_LAWS[law], grid=grid, ic=REFERENCE_STARTS[start]))
    steps = np.array(steps) % traj.n_steps
    width = traj.x_grid[:nodes].size
    assert_same_bits(traj.profiles(steps, nodes), reference_rows(traj, traj.t[steps], width))
    shift = when * traj.x_grid[1]
    assert_same_bits(_rebuild(traj, traj.t[steps], width, shift),
                     reference_rows(traj, traj.t[steps], width, shift))
    # chunks of one time each, in a shuffled order: narrow windows that wrap
    # the ring, and chunks that start before the entries it holds
    picks = np.random.default_rng(len(steps)).permutation(traj.n_steps)[:12]
    t_shuffled = np.repeat(traj.t[picks], _CHUNK)
    assert_same_bits(_rebuild(traj, t_shuffled, width, shift),
                     reference_rows(traj, t_shuffled, width, shift))
    states = list(traj.states(steps))
    assert [state.t for state in states] == traj.t[np.unique(steps)].tolist()
    assert_same_bits(np.array([state.K for state in states]),
                     reference_rows(traj, traj.t[np.unique(steps)], traj.x_grid.size))
    dx, cells = float(traj.x_grid[1]), traj.x_grid.size - 1
    t = when * float(traj.t[-1])  # between steps, as a rule
    for x in xs:
        n = int(np.floor(x / dx + 1e-9))
        want = reference_rows(traj, [t], n + 1, x - n * dx)[0, n] if n <= cells else 0.0
        assert_same_bits(np.float64(bt.reconstruct_K(traj, t, x)), np.float64(want))


class NaNRate(bt.InfluxProfile):
    def _rate(self, t):
        return math.nan


def test_nan_mass_is_not_skipped_as_zero():
    # the march skips the survival of masses of exactly 0; a NaN mass is not
    # one, so lambda turns NaN and the speed law rejects it
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=NaNRate(),
                       distances=bt.UniformDistances(2.0),
                       grid=bt.GridSpec(dx=2**-4, X=2.0, horizon=bt.MaxTime(0.1),
                                        dt=2**-4 / 30.0))
    with pytest.raises(bt.DomainError, match="density must be finite"):
        bt.solve_integral(scen)


class TestIntegralStepGuard:
    """A fixed step that moves z by more than one cell is rejected.  Here a
    3-mile step with X = 1 aged every entry past X before it was counted,
    and the run reported lambda = 0 while trips kept entering."""

    GRID = dict(dx=0.5, X=1.0, horizon=bt.MaxTime(1.0))

    def test_integral_rejects_step_longer_than_a_cell(self):
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(600.0),
                           distances=bt.UniformDistances(0.5),
                           grid=bt.GridSpec(dt=0.1, **self.GRID))
        with pytest.raises(bt.DomainError, match=r"dt <= dx/v"):
            bt.solve_integral(scen)

    def test_multi_commodity_rejects_step_longer_than_a_cell(self):
        com = bt.CommodityDemand(bt.ConstantInflux(600.0), bt.UniformDistances(0.5))
        with pytest.raises(bt.DomainError, match=r"dt <= dx/v"):
            bt.solve_multi_commodity(
                PAPER_L, [com], [lambda lam, f, g: PAPER_FD.speed(lam[0] / PAPER_L)],
                bt.GridSpec(dt=0.1, **self.GRID))

    def test_step_of_exactly_one_cell_is_accepted(self):
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(600.0),
                           distances=bt.UniformDistances(0.5),
                           grid=bt.GridSpec(dt=0.5 / 30.0, **self.GRID))
        traj = bt.solve_integral(scen)
        assert traj.termination is bt.Termination.HORIZON
        assert traj.lam.max() > 0.0


def truncation_run(solver, distances, ic, strict=False):
    grid = bt.GridSpec(dx=2**-4, X=2.0, horizon=bt.MaxCumulativeDistance(5.0),
                       dt=2**-4 / 30.0, strict_truncation=strict)
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                       distances=distances, grid=grid, ic=ic)
    if solver == "characteristic":
        return bt.solve_characteristic(scen)
    return solve_fixed_step(solver, scen)


def truncation_laws():
    """Every law reaches X = 2: the deterministic one exactly (its tail
    beyond X is a strict test, so nothing is truncated), its time-varying
    twin now and then, the others with a tail."""
    return {"deterministic_at_X": bt.DeterministicDistances(2.0),
            "deterministic_crossing": bt.DeterministicDistances(
                bt.PiecewiseLinear([0.0, 0.05, 0.1], [1.0, 3.0, 1.0])),
            "uniform": bt.UniformDistances(paper_btilde()),
            "exponential": bt.ExponentialDistances(0.8)}


FIXED_STEP = ["integral", "mobility_service", "multi_commodity"]
GRIDDED = ["characteristic"] + FIXED_STEP


class TestTruncatedMass:
    """A gridded run reports the initial trips beyond X plus, in log order,
    each entering mass times its share beyond X at its entry time."""

    @pytest.mark.parametrize("ic_kind", ["empty", "exponential_ic"])
    @pytest.mark.parametrize("kind", sorted(truncation_laws()))
    @pytest.mark.parametrize("solver", GRIDDED)
    def test_equals_the_tally_in_log_order(self, solver, kind, ic_kind):
        ic = bt.EmptyNetwork() if ic_kind == "empty" else bt.ExponentialProfile(300.0, 1.0)
        traj = truncation_run(solver, truncation_laws()[kind], ic)
        X = float(traj.x_grid[-1])
        want = float(ic.tail_beyond(X))
        for t, m in zip(traj.entry_t.tolist(), traj.entry_mass.tolist()):
            want += m * float(traj.distances.tail_beyond(t, X))
        assert traj.truncated_mass == want
        if kind == "deterministic_at_X":
            assert want == float(ic.tail_beyond(X))
        else:
            assert want > float(ic.tail_beyond(X))

    @pytest.mark.parametrize("solver", GRIDDED)
    def test_strict_truncation_rejects_lossy_grid(self, solver):
        with pytest.raises(bt.DataError):
            truncation_run(solver, truncation_laws()["uniform"], bt.EmptyNetwork(),
                           strict=True)
        truncation_run(solver, truncation_laws()["deterministic_at_X"],
                       bt.EmptyNetwork(), strict=True)


INITIAL_CONDITIONS = {
    "empty": bt.EmptyNetwork(),
    "exponential": bt.ExponentialProfile(300.0, 1.0),
    "tabulated": bt.TabulatedProfile([0.0, 0.5, 1.5], [400.0, 250.0, 0.0]),
}


class TestInitialCount:
    """lambda(0) is K(0, 0): an initial condition has no count of its own."""

    def test_empty_network_takes_no_count(self):
        with pytest.raises(TypeError):
            bt.EmptyNetwork(lambda0=5.0)
        assert dataclasses.fields(bt.EmptyNetwork) == ()
        assert bt.EmptyNetwork().lambda0 == 0.0

    @pytest.mark.parametrize("ic", sorted(INITIAL_CONDITIONS))
    @pytest.mark.parametrize("solver", GRIDDED + ["deterministic"])
    def test_first_count_is_the_profile_at_zero(self, solver, ic):
        ic = INITIAL_CONDITIONS[ic]
        if solver == "deterministic":
            traj = bt.solve_deterministic(bt.DeterministicConfig(
                L=PAPER_L, fd=PAPER_FD, btilde=2.0, influx=paper_pulse(),
                dz=2**-4, horizon=bt.MaxCumulativeDistance(1.0), ic=ic))
        else:
            traj = truncation_run(solver, bt.UniformDistances(1.0), ic)
        assert_same_bits(traj.lam[0], ic.profile(0.0))


class TestOutflux:
    def test_empty_run_has_zero_outflux(self):
        traj = bt.solve_characteristic(empty_scenario(bt.MaxTime(0.5)))
        assert np.all(traj.g == 0.0)

    def test_exponential_run_matches_count_speed_ratio(self):
        # with exponential distances everywhere, g = lam v / B pointwise
        B = 1.0
        grid = bt.GridSpec(dx=2**-6, X=14.0, horizon=bt.MaxTime(0.4),
                           dt=2**-6 / 30.0)
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD,
                           influx=bt.ConstantInflux(3000.0),
                           distances=bt.ExponentialDistances(B), grid=grid,
                           ic=bt.ExponentialProfile(100.0, B))
        traj = bt.solve_characteristic(scen)
        g = traj.g[:-1]
        pred = (traj.lam * traj.v / B)[:-1]
        mask = traj.lam[:-1] > 1.0
        rel = np.abs(g[mask] - pred[mask]) / pred[mask]
        assert np.max(rel) < 0.02

    def test_profile_estimator_agrees_for_characteristic(self):
        traj = paper_char(2**-5)
        g = traj.g
        g2 = bt.outflux_from_profile(traj)
        # for the characteristic scheme the two estimators coincide
        assert np.max(np.abs(g[:-1] - g2[:-1])) < 1e-6

    @pytest.mark.parametrize("solver", ["integral", "mobility_service", "multi_commodity"])
    def test_gap_to_the_profile_slope_halves_with_dx(self, solver):
        """The paper's out-flux form at x = 0, dlam/dt = f - v k(t, 0+), as a
        check that can fail: the fixed-step g, a forward difference of the
        count G, and the profile slope v (K_0 - K_1) / dx of the rebuilt K
        differ at first order, so the largest gap over the largest g halves
        with dx.  On the paper's uniform law at X = 12 no trip is capped
        (B~ <= 5, so no trip is longer than 10 miles).  The last g repeats
        the one before it, a step behind the last profile, so it is left out."""
        gaps = []
        for dx in DX_LEVELS:
            grid = bt.GridSpec(dx=dx, X=12.0, horizon=bt.MaxCumulativeDistance(10.0),
                               dt=dx / 30.0)
            traj = solve_fixed_step(solver, bt.Scenario(
                L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                distances=bt.UniformDistances(paper_btilde()), grid=grid))
            assert traj.truncated_mass == 0.0
            g = traj.g[:-1]
            slope = bt.outflux_from_profile(traj, traj.n_steps)[:-1]
            gaps.append(np.max(np.abs(g - slope)) / np.max(np.abs(g)))
        ratios = [c / f for c, f in zip(gaps, gaps[1:])]
        assert all(1.8 <= r <= 2.2 for r in ratios), ratios

    def test_no_exits_before_first_distance_consumed(self):
        # deterministic distances from an empty start: g = 0 while z < Btilde
        grid = bt.GridSpec(dx=2**-5, X=2.0,
                           horizon=bt.MaxCumulativeDistance(4.0))
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD,
                           influx=bt.ConstantInflux(500.0),
                           distances=bt.DeterministicDistances(2.0), grid=grid)
        traj = bt.solve_characteristic(scen)
        before = traj.z < 2.0
        assert np.all(traj.G[before] == 0.0)


class TestRemainingStats:
    def test_exponential_profile_keeps_its_mean(self):
        traj = bt.solve_characteristic(shift_scenario(stop=1.0))
        for j in (0, traj.n_steps // 2, traj.n_steps - 1):
            stats = bt.remaining_distance_stats(traj.state(j))
            assert stats.mean == pytest.approx(1.0, abs=0.02)

    def test_box_profile_mean(self):
        a, lam0, dx = 1.0, 50.0, 2**-5
        grid = bt.GridSpec(dx=dx, X=2.0, horizon=bt.MaxTime(0.01))
        ic = bt.TabulatedProfile([0.0, a, a + dx], [lam0, lam0, 0.0])
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ZeroInflux(),
                           distances=bt.UniformDistances(1.0), grid=grid, ic=ic)
        traj = bt.solve_characteristic(scen)
        stats = bt.remaining_distance_stats(traj.state(0))
        assert stats.mean == pytest.approx(a, abs=dx)
        assert np.all(stats.survival <= 1.0 + 1e-12)

    def test_undefined_on_empty_network(self):
        traj = bt.solve_characteristic(empty_scenario(bt.MaxTime(0.1)))
        with pytest.raises(bt.UndefinedStatisticsError):
            bt.remaining_distance_stats(traj.state(0))

    def test_states_of_integral_runs_are_reconstructed(self):
        traj = bt.solve_integral(shift_scenario(dx=2**-5, X=24.0,
                                                dt=2**-5 / 30.0, stop=0.5))
        st = traj.state(traj.n_steps - 1)
        assert st.K[0] == pytest.approx(traj.lam[-1], abs=1e-9)
        stats = bt.remaining_distance_stats(st)
        assert stats.mean == pytest.approx(1.0, abs=0.02)
        assert sum(1 for _ in traj.states()) == traj.n_steps


@pytest.fixture(scope="module")
def gridlocked():
    grid = bt.GridSpec(dx=2**-6, X=24.0, horizon=bt.MaxTime(8.0))
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD,
                       influx=bt.ConstantInflux(4000.0),
                       distances=bt.ExponentialDistances(2.0), grid=grid)
    return bt.solve_characteristic(scen)


class TestGridlock:
    def test_oversaturated_demand_terminates_gridlock(self, gridlocked):
        assert gridlocked.termination is bt.Termination.GRIDLOCK
        assert gridlocked.v[-1] < 1e-9

    def test_jam_is_absorbing(self, gridlocked):
        traj = gridlocked
        assert traj.lam[-1] >= PAPER_L * 200.0 * (1.0 - 1e-9)
        # once speeds collapse the count can only grow
        slow = traj.v < 1.0
        assert np.all(np.diff(traj.lam[slow]) >= -1e-9)

    def test_diverting_short_trips_drains_a_jam(self, gridlocked):
        # forcing out trips with less than a mile to go frees real mass even
        # though the ordinary out-flux is zero
        state = gridlocked.state(gridlocked.n_steps - 1)
        diverted = bt.diversion_outflux(state, 1.0)
        assert diverted > 0.0
        assert diverted < state.lam


def two_halves(scen):
    """``scen``'s demand run as two commodities of half its constant
    rate each, on one density."""
    half = bt.CommodityDemand(bt.ConstantInflux(scen.influx.rate_vph / 2), scen.distances)
    rel = lambda lam, rates, g: PAPER_FD.speed(lam.sum() / PAPER_L)
    return bt.solve_multi_commodity(PAPER_L, [half] * 2, [rel] * 2, scen.grid)


class TestGridlockIsAbsorbing:
    """Where ``gridlock_predict`` claims gridlock, every solver that can
    take the demand stops in it before a long time horizon: its last speed
    is the first below v_min."""

    def check(self, traj, f, mean, v_min):
        assert bt.gridlock_predict(f, mean, PAPER_L, PAPER_FD) \
            is bt.GridlockPrediction.WILL_GRIDLOCK
        assert traj.termination is bt.Termination.GRIDLOCK
        assert traj.v[-1] < v_min <= traj.v[:-1].min()

    @pytest.mark.parametrize("solver", ["characteristic", "integral",
                                        "mobility_service", "multi_commodity"])
    @settings(max_examples=10)
    @given(draw=gridlocking(v_min=st.sampled_from([0.1, 0.5, 2.0])))
    def test_gridded_solvers_end_in_gridlock(self, solver, draw):
        scen, grid = draw.scenario, draw.scenario.grid
        if solver == "characteristic":
            traj = bt.solve_characteristic(scen)
        elif solver == "multi_commodity":
            traj = two_halves(scen)[0]
        else:
            traj = solve_fixed_step(solver, scen)
        self.check(traj, scen.influx.rate_vph,
                   scen.distances.mean_distance_capped(0.0, grid.X), grid.v_min)

    @settings(max_examples=10)
    @given(draw=gridlocking(v_min=st.sampled_from([0.1, 0.5, 2.0])))
    def test_vickrey_ends_in_gridlock(self, draw):
        scen, v_min = draw.scenario, draw.scenario.grid.v_min
        B = scen.distances.mean_distance(0.0)
        c = bt.VickreyConfig(L=PAPER_L, fd=PAPER_FD, B=B, lambda0=0.0,
                             influx=scen.influx, dt=5e-3,
                             horizon=bt.MaxTime(40.0), v_min=v_min)
        self.check(bt.solve_vickrey(c), scen.influx.rate_vph, B, v_min)


class TestFixedStepGridlockThreshold:
    """``gridlock_predict``'s f B~ > L C is the condition for the continuous
    model.  The integral scheme counts a trip for up to one cell less than
    its distance, so on cell dx it gridlocks where f (B~ - dx) > L C and
    otherwise settles at lam = f (B~ - dx) / u.  With B~ = X = 1 and
    L C = 7,500/h, f = 9,000/h stays free at dx = 1/4 and jams at dx = 1/8."""

    @pytest.mark.parametrize("f, dx", [(9000.0, 2**-2), (9000.0, 2**-3), (12000.0, 2**-1),
                                       (12000.0, 2**-2), (7000.0, 2**-3)])
    def test_integral_gridlocks_only_past_the_cell_short_count(self, f, dx):
        B, LC = 1.0, PAPER_L * PAPER_FD.capacity()[0]
        assert abs(f * (B - dx) / LC - 1.0) > 0.04 and abs(f * B / LC - 1.0) > 0.04
        grid = bt.GridSpec(dx=dx, X=1.0, horizon=bt.MaxTime(10.0), dt=dx / 30.0)
        traj = bt.solve_integral(bt.Scenario(
            L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(f),
            distances=bt.DeterministicDistances(B), grid=grid))
        predicted = bt.gridlock_predict(f, B, PAPER_L, PAPER_FD)
        assert (predicted is bt.GridlockPrediction.WILL_GRIDLOCK) == (f * B > LC)
        if f * (B - dx) > LC:
            assert traj.termination is bt.Termination.GRIDLOCK
        else:
            assert traj.termination is bt.Termination.HORIZON
            assert traj.lam[-1] == pytest.approx(f * (B - dx) / PAPER_FD.u, rel=1e-9)


class TestFixedStepGridlockOvershoot:
    """A fixed-step run that gridlocks ends with lam <= L kappa + f dt:
    a step adds at most its entering mass f dt, and the last step starts
    at a positive speed, so below the jam count.  (The z-grid marches,
    whose last step can last hours, are not held to this.)"""

    def check(self, ends, f, dt):
        jam = PAPER_L * PAPER_FD.kappa
        for termination, lam in ends:
            assert termination is bt.Termination.GRIDLOCK
            assert jam * (1.0 - 1e-9) <= lam <= jam + f * dt

    @pytest.mark.parametrize("f", [6498.7, 8539.0, 20000.0])
    @pytest.mark.parametrize("solver", ["integral", "vickrey"])
    def test_last_count_is_within_one_step_of_the_jam(self, solver, f):
        B = 2.0
        for dx in (2.0**-3, 2.0**-4, 2.0**-5):
            dt = dx / 30.0
            if solver == "integral":
                grid = bt.GridSpec(dx=dx, X=8.0, horizon=bt.MaxTime(10.0), dt=dt)
                traj = bt.solve_integral(bt.Scenario(
                    L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(f),
                    distances=bt.ExponentialDistances(B), grid=grid))
            else:
                traj = bt.solve_vickrey(bt.VickreyConfig(
                    L=PAPER_L, fd=PAPER_FD, B=B, lambda0=0.0,
                    influx=bt.ConstantInflux(f), dt=dt, horizon=bt.MaxTime(10.0)))
            self.check([(traj.termination, traj.lam[-1])], f, dt)

    @settings(max_examples=10)
    @given(draw=gridlocking())
    def test_generated_last_count_is_within_one_step_of_the_jam(self, draw):
        """The integral scheme, the mobility service with the trip density
        fed back, the two-commodity march (its counts summed) and, on the
        exponential draws, Vickrey's march, at the default v_min."""
        scen, dt = draw.scenario, draw.scenario.grid.dt
        runs = [bt.solve_integral(scen), solve_fixed_step("mobility_service", scen)]
        if draw.kind == "exponential":
            runs.append(bt.solve_vickrey(bt.VickreyConfig(
                L=PAPER_L, fd=PAPER_FD, B=scen.distances.B, lambda0=0.0,
                influx=scen.influx, dt=dt, horizon=scen.grid.horizon)))
        a, b = two_halves(scen)
        ends = [(tr.termination, tr.lam[-1]) for tr in runs]
        ends.append((a.termination, a.lam[-1] + b.lam[-1]))
        self.check(ends, scen.influx.rate_vph, dt)


class TestOrderingProperties:
    def test_monotone_demand_response(self):
        base = paper_char(2**-4)
        double = bt.TrapezoidalPulse(20000.0, 8000.0, 1.0)
        grid = bt.GridSpec(dx=2**-4, X=5.0,
                           horizon=bt.MaxCumulativeDistance(30.0))
        scen2 = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=double,
                            distances=bt.UniformDistances(paper_btilde()),
                            grid=grid)
        heavy = bt.solve_characteristic(scen2)
        t_hi = min(base.t[-1], heavy.t[-1])
        ts = np.linspace(0.0, t_hi, 200)
        lam1 = np.interp(ts, base.t, base.lam)
        lam2 = np.interp(ts, heavy.t, heavy.lam)
        assert np.all(lam2 >= lam1 - 1e-9)

    def test_shorter_effective_distance_exits_first(self):
        traj = paper_char(2**-5)
        rng = np.random.default_rng(42)
        picks = rng.choice(traj.entry_t.size // 2, size=12, replace=False)
        trips = []
        for i in picks:
            s = float(traj.entry_t[i])
            for q in (0.3, 0.7):
                x = 2.0 * bt.mean_distance(traj_distances(), s) * q
                theta = x + np.interp(s, traj.t, traj.z)
                trips.append((theta, s, x))
        exits = []
        for theta, s, x in trips:
            if theta <= traj.z[-1]:
                exits.append((theta, traj.time_to_distance(theta)))
        exits.sort()
        times = [e[1] for e in exits]
        assert all(t2 >= t1 - 1e-12 for t1, t2 in zip(times, times[1:]))

    def test_rank_along_characteristic_never_drops(self):
        traj = paper_char(2**-5)
        s = float(traj.entry_t[traj.entry_t.size // 3])
        x0 = 1.5
        z_s = np.interp(s, traj.t, traj.z)
        ranks = []
        for t in np.linspace(s, traj.time_to_distance(min(x0 + z_s, traj.z[-1])), 25):
            x_t = x0 - (np.interp(t, traj.t, traj.z) - z_s)
            if x_t < 0:
                break
            ranks.append(bt.reconstruct_K(traj, float(t), float(x_t)))
        assert all(b >= a - 1e-9 for a, b in zip(ranks, ranks[1:]))


def traj_distances():
    return bt.UniformDistances(paper_btilde())


class TestMultiCommodity:
    def test_single_commodity_reduction_is_bitwise(self):
        dist = bt.ExponentialDistances(2.0)
        grid = bt.GridSpec(dx=2**-4, X=6.0, horizon=bt.MaxTime(1.0),
                           dt=2**-4 / 30.0)
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                           distances=dist, grid=grid)
        ref = bt.solve_integral(scen)
        got = bt.solve_multi_commodity(
            PAPER_L, [bt.CommodityDemand(paper_pulse(), dist)],
            [lambda lam, f, g: PAPER_FD.speed(lam[0] / PAPER_L)], grid)[0]
        for key in ("t", "z", "lambda", "v", "f", "F", "g", "G"):
            assert np.array_equal(ref.series[key], got.series[key]), key

    def test_uncoupled_commodities_match_standalone_runs(self):
        d1 = bt.ExponentialDistances(2.0)
        d2 = bt.UniformDistances(1.5)
        grid = bt.GridSpec(dx=2**-4, X=6.0, horizon=bt.MaxTime(1.0),
                           dt=2**-4 / 30.0)
        rels = [lambda lam, f, g: PAPER_FD.speed(lam[0] / PAPER_L),
                lambda lam, f, g: PAPER_FD.speed(lam[1] / PAPER_L)]
        runs = bt.solve_multi_commodity(
            PAPER_L,
            [bt.CommodityDemand(paper_pulse(), d1),
             bt.CommodityDemand(bt.ConstantInflux(800.0), d2)],
            rels, grid)
        solo1 = bt.solve_integral(bt.Scenario(L=PAPER_L, fd=PAPER_FD,
                                              influx=paper_pulse(),
                                              distances=d1, grid=grid))
        solo2 = bt.solve_integral(bt.Scenario(L=PAPER_L, fd=PAPER_FD,
                                              influx=bt.ConstantInflux(800.0),
                                              distances=d2, grid=grid))
        assert np.allclose(runs[0].lam, solo1.lam, atol=1e-9)
        assert np.allclose(runs[1].lam, solo2.lam, atol=1e-9)

    def test_symmetric_shared_density_commodities_coincide(self):
        dist = bt.UniformDistances(2.0)
        half = bt.TrapezoidalPulse(5000.0, 2000.0, 1.0)
        grid = bt.GridSpec(dx=2**-4, X=4.0, horizon=bt.MaxTime(1.2),
                           dt=2**-4 / 30.0)
        rel = lambda lam, f, g: PAPER_FD.speed((lam[0] + lam[1]) / PAPER_L)
        runs = bt.solve_multi_commodity(
            PAPER_L,
            [bt.CommodityDemand(half, dist), bt.CommodityDemand(half, dist)],
            [rel, rel], grid)
        assert np.array_equal(runs[0].lam, runs[1].lam)
        assert np.array_equal(runs[0].z, runs[1].z)

    @pytest.mark.parametrize("case, error, match", [
        ("no_commodity", bt.DomainError, "at least one commodity"),
        ("one_relation_for_two", bt.DomainError, "one speed relation per commodity"),
        ("two_under_a_z_stop", bt.ContractError, "require a MaxTime horizon"),
    ])
    def test_bad_arguments_rejected(self, case, error, match):
        horizon = (bt.MaxCumulativeDistance(1.0) if case == "two_under_a_z_stop"
                   else bt.MaxTime(0.5))
        grid = bt.GridSpec(dx=2**-4, X=4.0, horizon=horizon, dt=1e-3)
        dem = bt.CommodityDemand(bt.ZeroInflux(), bt.ExponentialDistances(1.0))
        rel = lambda lam, f, g: 30.0
        commodities, rels = {"no_commodity": ([], []),
                             "one_relation_for_two": ([dem, dem], [rel]),
                             "two_under_a_z_stop": ([dem, dem], [rel, rel])}[case]
        with pytest.raises(error, match=match):
            bt.solve_multi_commodity(PAPER_L, commodities, rels, grid)


class TestMobilityService:
    def test_density_feedback_reduces_to_integral_scheme(self):
        dist = bt.ExponentialDistances(2.0)
        grid = bt.GridSpec(dx=2**-4, X=6.0, horizon=bt.MaxTime(1.0),
                           dt=2**-4 / 30.0)
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                           distances=dist, grid=grid)
        ref = bt.solve_integral(scen)
        esr = bt.BoardingDelaySpeed(PAPER_FD, alpha=0.0, lane_miles=PAPER_L)
        got = bt.solve_mobility_service(scen, esr)
        assert np.array_equal(ref.lam, got.lam)
        assert np.array_equal(ref.z, got.z)

    def test_empty_roads_run_at_free_speed(self):
        dist = bt.ExponentialDistances(2.0)
        grid = bt.GridSpec(dx=2**-4, X=6.0, horizon=bt.MaxTime(0.5),
                           dt=1e-3)
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                           distances=dist, grid=grid)
        esr = bt.BoardingDelaySpeed(PAPER_FD, alpha=0.0, lane_miles=PAPER_L)
        traj = bt.solve_mobility_service(scen, esr, vehicle_density=lambda t: 0.0)
        assert np.all(traj.v == 30.0)
        assert np.allclose(traj.z, 30.0 * traj.t, atol=1e-12)

    def test_exponential_outflux_form_survives_extension(self):
        B = 2.0
        grid = bt.GridSpec(dx=2**-5, X=24.0, horizon=bt.MaxTime(1.0),
                           dt=2**-5 / 30.0)
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD,
                           influx=bt.ConstantInflux(1000.0),
                           distances=bt.ExponentialDistances(B), grid=grid)
        esr = bt.BoardingDelaySpeed(PAPER_FD, alpha=2e-4, lane_miles=PAPER_L)
        traj = bt.solve_mobility_service(scen, esr,
                                         vehicle_density=lambda t: 30.0)
        g = traj.g
        pred = traj.lam * traj.v / B
        mask = traj.lam > 0.5 * traj.lam.max()
        rel = np.abs(g[mask][:-1] - pred[mask][:-1]) / pred[mask][:-1]
        assert np.max(rel) < 0.03

    @pytest.mark.parametrize("density, error, match", [
        (30.0, bt.ContractError, "vehicle_density must be a callable"),
        (lambda t: -1.0, bt.DomainError, "vehicle density must be non-negative"),
    ])
    def test_bad_vehicle_density_rejected(self, density, error, match):
        scen = empty_scenario(bt.MaxTime(0.5), dt=1e-3)
        esr = bt.BoardingDelaySpeed(PAPER_FD, alpha=0.0, lane_miles=PAPER_L)
        with pytest.raises(error, match=match):
            bt.solve_mobility_service(scen, esr, vehicle_density=density)


def _one_commodity(L, T=0.01):
    grid = bt.GridSpec(dx=0.25, X=1.0, horizon=bt.MaxTime(T), dt=1e-3)
    dem = bt.CommodityDemand(bt.ZeroInflux(), bt.ExponentialDistances(1.0))
    return bt.solve_multi_commodity(L, [dem], [lambda lam, f, g: 30.0], grid)


_GS = bt.Greenshields(30.0, 200.0)
# Every constructor that takes a model parameter: a factory and the keyword
# arguments that build a valid object.
FINITE_CONSTRUCTORS = {
    "Triangular": (bt.Triangular, dict(u=30.0, w=10.0, kappa=200.0)),
    "Trapezoidal": (bt.Trapezoidal, dict(u=30.0, C=750.0, w=10.0, kappa=200.0)),
    "Greenshields": (bt.Greenshields, dict(u=30.0, kappa=200.0)),
    "BoardingDelaySpeed": (functools.partial(bt.BoardingDelaySpeed, _GS),
                           dict(alpha=1e-3, lane_miles=10.0)),
    "TrapezoidalPulse": (bt.TrapezoidalPulse, dict(ramp=1e4, plateau=4e3, end=1.0)),
    "MaxTime": (bt.MaxTime, dict(T=1.0)),
    "MaxCumulativeDistance": (bt.MaxCumulativeDistance, dict(Z=1.0)),
    "GridSpec": (functools.partial(bt.GridSpec, horizon=bt.MaxTime(1.0)),
                 dict(dx=0.25, X=1.0, dt=1e-3, v_min=1e-9)),
    "Scenario": (lambda L: bt.Scenario(
        L=L, fd=_GS, influx=bt.ZeroInflux(), distances=bt.ExponentialDistances(1.0),
        grid=bt.GridSpec(dx=0.25, X=1.0, horizon=bt.MaxTime(1.0))), dict(L=10.0)),
    "solve_multi_commodity": (_one_commodity, dict(L=10.0)),
    "ConstantInflux": (bt.ConstantInflux, dict(rate_vph=500.0)),
    "ExponentialProfile": (bt.ExponentialProfile, dict(lambda0=50.0, B=1.0)),
}


class TestFiniteParameters:
    @pytest.mark.parametrize("name", sorted(FINITE_CONSTRUCTORS))
    def test_valid_parameters_build(self, name):
        make, args = FINITE_CONSTRUCTORS[name]
        make(**args)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name, param", sorted(
        (name, param) for name, (_m, args) in FINITE_CONSTRUCTORS.items()
        for param in args))
    def test_non_finite_parameter_is_named(self, name, param, value):
        make, args = FINITE_CONSTRUCTORS[name]
        with pytest.raises(bt.DomainError, match=rf"\b{param}\b"):
            make(**dict(args, **{param: value}))

    def test_nan_speed_from_a_relation_raises(self):
        # a NaN speed passes the gridlock test v < v_min and never moves z,
        # so a z horizon is never reached without the step guard
        class NanSpeed:
            def speed(self, rho, lam, f, g):
                return math.nan

        grid = bt.GridSpec(dx=0.25, X=1.0, horizon=bt.MaxCumulativeDistance(5.0),
                           dt=1e-3)
        scen = bt.Scenario(L=10.0, fd=_GS, influx=bt.ConstantInflux(100.0),
                           distances=bt.ExponentialDistances(1.0), grid=grid)
        with pytest.raises(bt.DomainError, match=r"speed at t = 0 h is v = nan mph"):
            bt.solve_mobility_service(scen, NanSpeed())

    def test_nan_speed_from_a_multi_commodity_relation_raises(self):
        # the relation turns NaN once trips are on the network, at t = dt
        grid = bt.GridSpec(dx=0.25, X=1.0, horizon=bt.MaxTime(1.0), dt=1e-3)
        com = bt.CommodityDemand(bt.ConstantInflux(100.0), bt.ExponentialDistances(1.0))
        with pytest.raises(bt.DomainError, match=r"speed at t = 0\.001 h is v = nan mph"):
            bt.solve_multi_commodity(10.0, [com], [lambda lam, f, g: math.nan if lam[0] else 30.0],
                                     grid)


def z_grid_run(solver, horizon, gridlock=False):
    """One run of a solver on the z-grid and its cell: the paper pulse, or
    an oversaturating constant inflow with Btilde = 4 and v_min = 0.5."""
    influx = bt.ConstantInflux(6000.0) if gridlock else paper_pulse()
    v_min = 0.5 if gridlock else 1e-9
    if solver == "characteristic":
        dist = (bt.DeterministicDistances(4.0) if gridlock
                else bt.UniformDistances(paper_btilde()))
        grid = bt.GridSpec(dx=2**-5, X=5.0, horizon=horizon, v_min=v_min)
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=influx,
                           distances=dist, grid=grid)
        return bt.solve_characteristic(scen), grid.dx
    if gridlock:
        btilde = 4.0
    else:
        btilde = paper_btilde() if solver == "deterministic" else 2.0
    c = bt.DeterministicConfig(L=PAPER_L, fd=PAPER_FD, btilde=btilde,
                               influx=influx, dz=2**-6, horizon=horizon,
                               v_min=v_min)
    if solver == "deterministic":
        return bt.solve_deterministic(c), c.dz
    return bt.solve_constant_distance(c)[0], c.dz


@pytest.mark.parametrize("solver", ["characteristic", "deterministic",
                                    "constant_distance"])
class TestZGridStops:
    """Every solver on the z-grid stops under the same three tests."""

    def check_series(self, traj, dz):
        assert traj.v.size == traj.t.size
        np.testing.assert_array_equal(traj.z, np.arange(traj.t.size) * dz)

    def test_off_grid_distance_stop_takes_the_first_node_past_Z(self, solver):
        Z = 7.3
        traj, dz = z_grid_run(solver, bt.MaxCumulativeDistance(Z))
        self.check_series(traj, dz)
        assert traj.termination is bt.Termination.HORIZON
        assert traj.z[-1] == math.ceil(Z / dz) * dz
        assert traj.z[-2] < Z

    def test_unaligned_time_stop_skips_the_step_that_passes_T(self, solver):
        T = 0.77
        traj, dz = z_grid_run(solver, bt.MaxTime(T))
        self.check_series(traj, dz)
        assert traj.termination is bt.Termination.HORIZON
        assert traj.t[-1] <= T + 1e-12 < traj.t[-1] + dz / traj.v[-1]

    def test_gridlock_stops_at_the_first_slow_speed(self, solver):
        traj, dz = z_grid_run(solver, bt.MaxTime(20.0), gridlock=True)
        self.check_series(traj, dz)
        assert traj.termination is bt.Termination.GRIDLOCK
        assert traj.v[-1] < 0.5 <= traj.v[:-1].min()


def fixed_step_run(solver, horizon, gridlock=False):
    """One run of a fixed-step solver and its step: the paper pulse, or an
    oversaturating constant inflow with v_min = 0.5.  Multi-commodity runs
    split the demand over two commodities sharing one density, except under
    a distance stop, which takes a single commodity."""
    v_min = 0.5 if gridlock else 1e-9
    if solver == "vickrey":
        c = bt.VickreyConfig(L=PAPER_L, fd=PAPER_FD, B=5.0 if gridlock else 2.0,
                             lambda0=0.0,
                             influx=bt.ConstantInflux(8000.0) if gridlock else paper_pulse(),
                             dt=1e-3, horizon=horizon, v_min=v_min)
        return bt.solve_vickrey(c), c.dt
    dx, X = (0.25, 8.0) if gridlock else (2**-4, 5.0)
    dist = (bt.DeterministicDistances(4.0) if gridlock
            else bt.UniformDistances(paper_btilde()))
    grid = bt.GridSpec(dx=dx, X=X, horizon=horizon, dt=dx / 30.0, v_min=v_min)
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, distances=dist, grid=grid,
                       influx=bt.ConstantInflux(6000.0) if gridlock else paper_pulse())
    if solver == "integral":
        return bt.solve_integral(scen), grid.dt
    if solver == "mobility_service":
        esr = bt.BoardingDelaySpeed(PAPER_FD, alpha=1e-3, lane_miles=PAPER_L)
        return bt.solve_mobility_service(scen, esr), grid.dt
    M = 1 if isinstance(horizon, bt.MaxCumulativeDistance) else 2
    if gridlock:
        influx = bt.ConstantInflux(6000.0 / M)
    else:
        influx = paper_pulse() if M == 1 else bt.TrapezoidalPulse(5000.0, 2000.0, 1.0)
    rel = lambda lam, f, g: PAPER_FD.speed(lam.sum() / PAPER_L)
    runs = bt.solve_multi_commodity(PAPER_L, [bt.CommodityDemand(influx, dist)] * M,
                                    [rel] * M, grid)
    return runs[0], grid.dt


@pytest.mark.parametrize("solver", ["integral", "mobility_service",
                                    "multi_commodity", "vickrey"])
class TestFixedStepStops:
    """Every fixed-step solver stops under the same three tests."""

    def check_series(self, traj, dt):
        assert traj.v.size == traj.t.size
        np.testing.assert_array_equal(traj.t, np.arange(traj.t.size) * dt)

    def test_distance_stop_takes_the_first_step_past_Z(self, solver):
        Z = 7.3
        traj, dt = fixed_step_run(solver, bt.MaxCumulativeDistance(Z))
        self.check_series(traj, dt)
        assert traj.termination is bt.Termination.HORIZON
        assert traj.z[-2] < Z - 1e-12 <= traj.z[-1]

    def test_unaligned_time_stop_takes_the_first_step_past_T(self, solver):
        T = 0.7705
        traj, dt = fixed_step_run(solver, bt.MaxTime(T))
        self.check_series(traj, dt)
        assert traj.termination is bt.Termination.HORIZON
        assert traj.t[-2] < T - 1e-12 <= traj.t[-1]

    def test_gridlock_stops_at_the_first_slow_speed(self, solver):
        traj, dt = fixed_step_run(solver, bt.MaxTime(20.0), gridlock=True)
        self.check_series(traj, dt)
        assert traj.termination is bt.Termination.GRIDLOCK
        assert traj.v[-1] < 0.5 <= traj.v[:-1].min()
