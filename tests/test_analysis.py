import dataclasses

import numpy as np
import pytest

import bathtub as bt
from bathtub import analysis
from bathtub.solver import _even_steps
from helpers import (PAPER_FD, PAPER_L, assert_same_bits, paper_char, paper_integral,
                     paper_pulse)

GS = bt.Greenshields(30.0, 200.0)


def bisect_oracle(fd, L, B, f, lo, hi, iters=100):
    """Independent bisection for B*f = L*Q(lam/L) on the rising branch."""
    target = B * f / L
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fd.flow(mid / L) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStationaryState:
    def test_matches_bisection_oracle(self):
        got = bt.stationary_state(PAPER_FD, 10.0, 1000.0,
                                  bt.ExponentialDistances(2.0))
        oracle = bisect_oracle(PAPER_FD, 10.0, 2.0, 1000.0, 0.0, 250.0)
        assert got.lam == pytest.approx(66.67, abs=0.01)
        assert got.lam == pytest.approx(oracle, abs=1e-6)
        assert got.stability is bt.StabilityClass.STABLE
        assert got.v == pytest.approx(30.0)
        assert got.Btilde == 2.0

    def test_zero_inflow_is_the_empty_state(self):
        got = bt.stationary_state(PAPER_FD, 10.0, 0.0,
                                  bt.ExponentialDistances(2.0))
        assert got.lam == 0.0
        assert got.v == 30.0

    def test_capacity_demand_is_marginal(self):
        # B*f equals L*C exactly: the state sits at the capacity density and
        # the flow slope vanishes there for a smooth law
        C, rho_star = bt.capacity(GS)
        got = bt.stationary_state(GS, 10.0, 10.0 * C / 2.0,
                                  bt.ExponentialDistances(2.0))
        assert got.lam == pytest.approx(rho_star * 10.0, rel=1e-6)
        assert got.stability is bt.StabilityClass.MARGINAL

    def test_capacity_demand_at_a_kinked_law(self):
        # the trapezoidal plateau starts with a kink, so the central
        # difference sees the rising branch and classifies it stable
        C, rho_star = bt.capacity(PAPER_FD)
        got = bt.stationary_state(PAPER_FD, 10.0, 10.0 * C / 2.0,
                                  bt.ExponentialDistances(2.0))
        assert got.lam == pytest.approx(rho_star * 10.0, rel=1e-6)
        assert got.stability is bt.StabilityClass.STABLE

    def test_oversaturated_demand_is_infeasible(self):
        got = bt.stationary_state(PAPER_FD, 10.0, 4000.0,
                                  bt.ExponentialDistances(2.0))
        assert isinstance(got, bt.Infeasible)
        assert got.demand == 8000.0 and got.supply == 7500.0

    def test_rejects_time_varying_distribution(self):
        dist = bt.ExponentialDistances(bt.PiecewiseLinear([0.0, 1.0],
                                                          [2.0, 3.0]))
        with pytest.raises(bt.ContractError):
            bt.stationary_state(PAPER_FD, 10.0, 100.0, dist)

    def test_rejects_non_exponential_family(self):
        with pytest.raises(bt.ContractError):
            bt.stationary_state(PAPER_FD, 10.0, 100.0, bt.UniformDistances(2.0))

    def test_survival_profile_consistency(self):
        got = bt.stationary_state(PAPER_FD, 10.0, 1000.0,
                                  bt.ExponentialDistances(2.0))
        xs = np.linspace(0.0, 10.0, 50)
        assert np.allclose(got.survival(xs), np.exp(-xs / 2.0))

    def test_implied_demand_inverts_a_profile(self):
        B, lam = 2.0, 66.6667
        xs = np.linspace(0.0, 30.0, 30_001)
        implied = bt.stationary_demand_from_profile(PAPER_FD, 10.0, lam, xs,
                                                    np.exp(-xs / B))
        assert implied.f == pytest.approx(1000.0, rel=1e-3)
        assert implied.Btilde == pytest.approx(B, rel=1e-3)
        assert np.allclose(implied.survival_tilde[:100],
                           np.exp(-xs[:100] / B), atol=1e-3)


class TestStability:
    def test_low_density_is_stable(self):
        assert bt.stability_classify(GS, 10.0, 500.0) is bt.StabilityClass.STABLE

    def test_hypercongestion_is_unstable(self):
        assert bt.stability_classify(GS, 10.0, 1500.0) is \
            bt.StabilityClass.UNSTABLE

    def test_capacity_point_is_marginal(self):
        assert bt.stability_classify(GS, 10.0, 1000.0) is \
            bt.StabilityClass.MARGINAL

    def test_unstable_state_drifts_to_gridlock_when_nudged(self):
        # +1% disturbance on a hypercongested balance point grows without
        # bound even though the demand alone would not imply gridlock
        lam0 = 1500.0
        f_star = lam0 * GS.speed(lam0 / 10.0) / 2.0  # balances lam0 at B=2
        vc = bt.VickreyConfig(L=10.0, fd=GS, B=2.0, lambda0=lam0 * 1.01,
                              influx=bt.ConstantInflux(f_star), dt=1e-3,
                              horizon=bt.MaxTime(40.0))
        traj = bt.solve_vickrey(vc)
        assert traj.termination is bt.Termination.GRIDLOCK
        assert np.all(np.diff(traj.lam) >= -1e-9)
        assert bt.gridlock_predict(f_star, 2.0, 10.0, GS) is \
            bt.GridlockPrediction.NOT_IMPLIED


class TestGridlockPredict:
    def test_demand_above_supply(self):
        assert bt.gridlock_predict(4000.0, 2.0, 10.0, PAPER_FD) is \
            bt.GridlockPrediction.WILL_GRIDLOCK

    def test_zero_demand(self):
        assert bt.gridlock_predict(0.0, 2.0, 10.0, PAPER_FD) is \
            bt.GridlockPrediction.NOT_IMPLIED

    def test_demand_below_supply(self):
        assert bt.gridlock_predict(3000.0, 2.0, 10.0, PAPER_FD) is \
            bt.GridlockPrediction.NOT_IMPLIED


class TestDiversion:
    def test_small_threshold_diverts_nobody(self):
        traj = paper_char(2**-5)
        state = traj.state(int(np.argmax(traj.lam)))
        assert bt.diversion_outflux(state, 1e-9) == pytest.approx(0.0, abs=1e-3)

    def test_full_support_diverts_everyone(self):
        traj = paper_char(2**-5)
        state = traj.state(int(np.argmax(traj.lam)))
        assert bt.diversion_outflux(state, 5.0) == pytest.approx(state.lam)
        assert bt.diversion_outflux(state, 7.0) == pytest.approx(state.lam)

    def test_congested_state_has_short_trips_to_divert(self):
        traj = paper_char(2**-5)
        state = traj.state(int(np.argmax(traj.lam)))
        assert bt.diversion_outflux(state, 1.0) > 0.0

    def test_non_positive_threshold_rejected(self):
        traj = paper_char(2**-5)
        with pytest.raises(bt.DomainError):
            bt.diversion_outflux(traj.state(0), 0.0)


class TestTripTravelTime:
    def free_flow_run(self):
        grid = bt.GridSpec(dx=2**-5, X=4.0, horizon=bt.MaxTime(0.5))
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ZeroInflux(),
                           distances=bt.UniformDistances(2.0), grid=grid)
        return bt.solve_characteristic(scen)

    def test_free_flow_is_distance_over_speed(self):
        traj = self.free_flow_run()
        assert bt.trip_travel_time(traj, 0.1, 3.0) == \
            pytest.approx(3.0 / 30.0, abs=1e-12)

    def test_zero_distance_takes_no_time(self):
        traj = self.free_flow_run()
        assert bt.trip_travel_time(traj, 0.1, 0.0) == pytest.approx(0.0)

    def test_congestion_slows_trips(self):
        traj = paper_char(2**-6)
        assert bt.trip_travel_time(traj, 0.5, 2.0) > 2.0 / 30.0

    def test_incomplete_trip_reports_remainder(self):
        traj = self.free_flow_run()
        with pytest.raises(bt.TripNotCompleted) as info:
            bt.trip_travel_time(traj, 0.49, 3.0)
        assert info.value.remaining_distance > 0.0


class TestAverageTravelTime:
    def test_free_flow_collapses_all_three_estimates(self):
        grid = bt.GridSpec(dx=2**-5, X=4.0, horizon=bt.MaxTime(0.5))
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ZeroInflux(),
                           distances=bt.UniformDistances(2.0), grid=grid)
        traj = bt.solve_characteristic(scen)
        est = bt.average_travel_time(traj, scen.distances, 0.1)
        assert est.exact == pytest.approx(2.0 / 30.0, rel=1e-9)
        assert est.entry_speed == pytest.approx(2.0 / 30.0, rel=1e-9)
        assert est.exit_speed == pytest.approx(2.0 / 30.0, rel=1e-9)

    def test_single_valued_distances_reduce_to_one_trip_time(self):
        dist = bt.DeterministicDistances(2.0)
        grid = bt.GridSpec(dx=2**-6, X=2.0, horizon=bt.MaxCumulativeDistance(20.0))
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                           distances=dist, grid=grid)
        traj = bt.solve_characteristic(scen)
        t0 = 0.45
        est = bt.average_travel_time(traj, dist, t0)
        single = bt.trip_travel_time(traj, t0, 2.0)
        assert est.exact == pytest.approx(single, rel=5e-3)

    def test_entry_speed_estimate_is_optimistic_when_slowing(self):
        # choose an entry time while the network keeps getting slower
        traj = paper_char(2**-6)
        t0 = 0.35
        est = bt.average_travel_time(traj,
                                     bt.UniformDistances(
                                         bt.PiecewiseLinear(
                                             [0.0, 0.4, 0.6, 1.0],
                                             [2.0, 5.0, 5.0, 2.0])), t0)
        assert est.entry_speed < est.exact

    @pytest.mark.parametrize("t_enter", [-0.5, np.nan, 0.5 + 1e-3])
    def test_entry_time_outside_the_run_rejected(self, t_enter):
        traj = TestTripTravelTime().free_flow_run()  # solved up to t = 0.5
        with pytest.raises(bt.DomainError, match="t_enter"):
            bt.average_travel_time(traj, traj.distances, t_enter)


class TestAudit:
    def test_clean_free_flow_run(self):
        grid = bt.GridSpec(dx=2**-5, X=4.0, horizon=bt.MaxTime(0.5))
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ZeroInflux(),
                           distances=bt.UniformDistances(2.0), grid=grid)
        traj = bt.solve_characteristic(scen)
        rep = bt.audit(traj)
        assert rep.total_trip_residual < 1e-9
        assert rep.trip_miles_residual < 1e-9
        assert rep.monotonicity_violations == 0

    def test_perturbed_count_is_flagged(self):
        traj = paper_char(2**-4)
        traj.lam[traj.n_steps // 2] += 5.0
        rep = bt.audit(traj)
        assert rep.total_trip_residual > 1e-6
        traj.lam[traj.n_steps // 2] -= 5.0

    def test_refinement_shrinks_trip_miles_residual(self):
        r_coarse = bt.audit(paper_char(2**-4)).trip_miles_residual
        r_fine = bt.audit(paper_char(2**-5)).trip_miles_residual
        assert r_coarse >= 1.5 * r_fine


def audit_reference(traj, max_profiles=129):
    """The trip-miles residuals and violation count of :func:`analysis.audit`,
    one profile row at a time."""
    xg = traj.x_grid
    X = float(xg[-1])
    bmean = np.asarray([float(traj.distances.mean_distance_capped(float(s), X))
                        for s in traj.t])
    added = analysis._cumtrapz(traj.f * bmean, traj.t)
    processed = analysis._cumtrapz(traj.lam * traj.v, traj.t)
    tol = 1e-9 * max(1.0, float(traj.lam.max(initial=0.0)))
    miles = np.full(traj.t.size, np.nan)
    violations = 0
    steps = traj.profile_steps(max_profiles)
    for i, row in zip(steps, traj.profiles(steps)):
        remaining = float(np.trapezoid(row, xg))
        if i == 0:
            initial = remaining
        miles[i] = abs(initial + added[i] - processed[i] - remaining)
        violations += int(np.sum(np.diff(row) > tol))
    return miles, violations


def assert_same_report(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert_same_bits(x, y)
        else:
            assert type(x) is type(y) and x == y, field.name


class TestAuditBlocks:
    @pytest.mark.parametrize("rows", [1, 15, 17, 50])
    def test_blocks_keep_the_bits_of_each_row(self, rows):
        rng = np.random.default_rng(rows)
        x = np.arange(321) * 2**-6
        K = np.cumsum(rng.random((rows + 3, 321)), axis=1)[:, ::-1] * 37.0
        K += rng.normal(0.0, 0.5, K.shape)  # some pairs rise
        idx = rng.permutation(rows + 3)[:rows]
        remaining, violations = analysis._remaining_miles(K, idx, x, 0.2)
        assert_same_bits(remaining, np.array([np.trapezoid(K[i], x) for i in idx]))
        assert violations == sum(int(np.sum(np.diff(K[i]) > 0.2)) for i in idx)

    @pytest.mark.parametrize("solve,max_profiles", [(paper_char, 129),
                                                    (paper_integral, 129),
                                                    (paper_integral, 37)])
    def test_audit_matches_a_per_row_reference(self, solve, max_profiles):
        traj = solve(2**-4)
        assert traj.profile_steps(max_profiles).size % 16 != 0
        rep = analysis.audit(traj, max_profiles=max_profiles)
        miles, violations = audit_reference(traj, max_profiles)
        assert_same_bits(rep.trip_miles_steps, miles)
        assert rep.monotonicity_violations == violations

    @pytest.mark.parametrize("solve", [paper_char, paper_integral])
    def test_given_profiles_give_the_same_report(self, solve):
        # one block of every row, or ksurface's 16-row blocks, of which
        # the audit reads only its own steps
        traj = solve(2**-4)
        steps = traj.profile_steps(257)
        own = analysis.audit(traj)
        pair = steps, traj.profiles(steps)
        assert_same_report(analysis.audit(traj, profiles=[pair]), own)
        assert_same_report(analysis.audit(traj, profiles=traj.profile_blocks(steps)),
                           own)

    @pytest.mark.parametrize("drop", [0, -1, 64])
    def test_profiles_missing_an_audited_step_are_rejected(self, drop):
        traj = paper_integral(2**-4)
        steps = traj.profile_steps(257)
        steps = np.delete(steps, drop)
        with pytest.raises(bt.DomainError, match="profiles"):
            analysis.audit(traj, profiles=[(steps, traj.profiles(steps))])
        with pytest.raises(bt.DomainError, match="profiles"):
            analysis.audit(traj, profiles=traj.profile_blocks(steps))

    def test_audited_steps_are_among_ksurface_steps(self):
        # linspace(0, n - 1, 129)[i] is linspace(0, n - 1, 257)[2 i]: the
        # step sizes differ by an exact factor of 2
        ns = [*range(1, 5001), 999_983, 10**6 - 1, 10**6, 10**6 + 1, 2**20 + 3]
        for n in ns:
            assert np.isin(_even_steps(n, 129), _even_steps(n, 257)).all(), n


class TestStationaryDrift:
    def test_stationary_start_stays_put(self):
        # seed the generalized solver with the balance profile; after the
        # discrete equilibrium settles, the drift over one mean trip time is
        # far below the 1e-3 relative bound
        ss = bt.stationary_state(PAPER_FD, 10.0, 1000.0,
                                 bt.ExponentialDistances(2.0))
        dx = 2**-6
        grid = bt.GridSpec(dx=dx, X=24.0, horizon=bt.MaxTime(0.5))
        scen = bt.Scenario(L=10.0, fd=PAPER_FD, influx=bt.ConstantInflux(1000.0),
                           distances=bt.ExponentialDistances(2.0), grid=grid,
                           ic=bt.ExponentialProfile(ss.lam, 2.0))
        traj = bt.solve_characteristic(scen)
        window = 2.0 / ss.v
        t1 = 2.0 * window
        lam_a = float(np.interp(t1, traj.t, traj.lam))
        lam_b = float(np.interp(t1 + window, traj.t, traj.lam))
        assert abs(lam_b - lam_a) < 1e-3 * ss.lam
        assert abs(traj.lam[-1] - ss.lam) < 0.02 * ss.lam


class TestConvergenceStudy:
    def test_forward_euler_is_first_order(self):
        def solve(dt):
            vc = bt.VickreyConfig(L=10.0, fd=GS, B=1.0, lambda0=100.0,
                                  influx=bt.ZeroInflux(), dt=dt,
                                  horizon=bt.MaxTime(0.05))
            return bt.solve_vickrey(vc)

        rep = bt.convergence_study(solve, [4e-4, 2e-4, 1e-4, 5e-5],
                                   lambda tr: float(tr.lam[-1]))
        assert rep.mean_order == pytest.approx(1.0, abs=0.2)

    def test_free_flow_distance_is_exact(self):
        def solve(dx):
            grid = bt.GridSpec(dx=dx, X=4.0, horizon=bt.MaxTime(0.5))
            scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ZeroInflux(),
                               distances=bt.UniformDistances(2.0), grid=grid)
            return bt.solve_characteristic(scen)

        rep = bt.convergence_study(solve, [2**-3, 2**-4, 2**-5],
                                   lambda tr: float(tr.z[-1] / tr.t[-1]))
        assert rep.exact_to_machine

    def test_non_monotone_differences_make_no_order_claim(self):
        targets = iter([1.0, 0.5, 0.75])
        rep = bt.convergence_study(lambda dx: next(targets),
                                   [0.4, 0.2, 0.1], lambda s: float(s))
        assert rep.orders == []
        assert rep.mean_order is None
        assert rep.ratios  # raw ratios still reported

    def test_needs_three_levels(self):
        with pytest.raises(bt.DomainError):
            bt.convergence_study(lambda dx: None, [0.2, 0.1], lambda s: 0.0)

    @pytest.mark.parametrize("diffs, ratios, orders", [
        ([0.4, 0.2, 0.1], [2.0, 2.0], [1.0, 1.0]),
        ([0.4, 0.2, -0.1], [2.0, -2.0], [1.0, np.nan]),
        ([0.4, 0.0, 0.1], [np.inf, 0.0], [np.nan, np.nan]),
    ])
    def test_observed_orders_per_pair(self, diffs, ratios, orders):
        got_ratios, got_orders = analysis.observed_orders(diffs)
        assert got_ratios == ratios
        np.testing.assert_array_equal(got_orders, orders)

    def test_time_to_distance_target(self):
        traj = paper_char(2**-4)
        extract = bt.time_to_distance_target(30.0)
        assert extract(traj) == pytest.approx(traj.t[-1])


NAN = np.nan
NAN_CALLS = {
    "flow_slope_sign": lambda: bt.flow_slope_sign(PAPER_FD, NAN),
    "stability_classify": lambda: bt.stability_classify(PAPER_FD, 10.0, NAN),
    "gridlock_predict": lambda: bt.gridlock_predict(NAN, 2.0, 10.0, PAPER_FD),
    "extended_speed": lambda: bt.extended_speed(bt.BoardingDelaySpeed(PAPER_FD),
                                                10.0, 1.0, NAN, 0.0),
    "stationary_state": lambda: bt.stationary_state(PAPER_FD, 10.0, NAN,
                                                    bt.ExponentialDistances(2.0)),
    "trip_travel_time_x": lambda: bt.trip_travel_time(
        TestTripTravelTime().free_flow_run(), 0.1, NAN),
    "trip_travel_time_t_enter": lambda: bt.trip_travel_time(
        TestTripTravelTime().free_flow_run(), NAN, 0.5),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS.keys())
def test_nan_argument_rejected(call):
    # NaN fails every range comparison, so it must be rejected, not answered
    with pytest.raises(bt.DomainError):
        call()



def _implied(x, survival, L=10.0):
    return bt.stationary_demand_from_profile(PAPER_FD, L, 50.0, x, survival)


EXP2 = bt.ExponentialDistances(2.0)
XS = np.linspace(0.0, 10.0, 11)
L_CALLS = {
    "stability_classify": lambda L: bt.stability_classify(PAPER_FD, L, 10.0),
    "gridlock_predict": lambda L: bt.gridlock_predict(100.0, 2.0, L, PAPER_FD),
    "stationary_state": lambda L: bt.stationary_state(PAPER_FD, L, 100.0, EXP2),
    "stationary_demand_from_profile": lambda L: _implied(XS, np.exp(-XS / 2.0), L),
}


@pytest.mark.parametrize("L", [0.0, -1.0, NAN, np.inf])
@pytest.mark.parametrize("entry", sorted(L_CALLS))
def test_bad_L_rejected(entry, L):
    # L = 0 divided by zero, and a NaN or negative L was answered quietly
    with pytest.raises(bt.DomainError, match="L must be finite and positive"):
        L_CALLS[entry](L)


INFINITE_CALLS = {
    "stationary_state_f": lambda: bt.stationary_state(PAPER_FD, 10.0, np.inf, EXP2),
    "gridlock_predict_f": lambda: bt.gridlock_predict(np.inf, 2.0, 10.0, PAPER_FD),
    "gridlock_predict_Btilde": lambda: bt.gridlock_predict(100.0, np.inf, 10.0,
                                                           PAPER_FD),
    "stability_classify_lam0": lambda: bt.stability_classify(PAPER_FD, 10.0, np.inf),
}


@pytest.mark.parametrize("call", INFINITE_CALLS.values(), ids=INFINITE_CALLS.keys())
def test_infinite_argument_rejected(call):
    with pytest.raises(bt.DomainError, match="must be finite and non-negative"):
        call()


BAD_PROFILES = {
    "x_nan": ([0.0, NAN, 2.0], [1.0, 0.5, 0.2]),
    "x_inf": ([0.0, 1.0, np.inf], [1.0, 0.5, 0.2]),
    "x_not_increasing": ([0.0, 2.0, 1.0], [1.0, 0.5, 0.2]),
    "x_repeated": ([0.0, 1.0, 1.0], [1.0, 0.5, 0.2]),
    "survival_nan": ([0.0, 1.0, 2.0], [1.0, NAN, 0.2]),
    "survival_rising": ([0.0, 1.0, 2.0], [1.0, 0.5, 0.7]),
}


@pytest.mark.parametrize("x, survival", BAD_PROFILES.values(), ids=BAD_PROFILES.keys())
def test_bad_profile_rejected(x, survival):
    with pytest.raises(bt.DataError):
        _implied(x, survival)
