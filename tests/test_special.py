import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathtub as bt
from bathtub import special
from bathtub.special import _BLOCK, _points
from helpers import (PAPER_FD, PAPER_L, assert_same_bits, assert_same_run, paper_btilde,
                     paper_char, paper_pulse, paper_scenario, reference_constant_distance,
                     reference_deterministic, reference_vickrey,
                     stationary_exponential_scenario, traced_peak)

GS = bt.Greenshields(30.0, 200.0)


class TestVickrey:
    def test_initial_value_problem_decay(self):
        vc = bt.VickreyConfig(L=10.0, fd=GS, B=1.0, lambda0=100.0,
                              influx=bt.ZeroInflux(), dt=1e-4,
                              horizon=bt.MaxCumulativeDistance(1.2))
        traj = bt.solve_vickrey(vc)
        lam1 = float(np.interp(1.0, traj.z, traj.lam))
        exact = 100.0 * math.exp(-1.0)
        assert abs(lam1 - exact) / exact < 5e-3

    def test_error_halves_with_the_step(self):
        errs = []
        for dt in (1e-4, 5e-5):
            vc = bt.VickreyConfig(L=10.0, fd=GS, B=1.0, lambda0=100.0,
                                  influx=bt.ZeroInflux(), dt=dt,
                                  horizon=bt.MaxCumulativeDistance(1.2))
            traj = bt.solve_vickrey(vc)
            lam1 = float(np.interp(1.0, traj.z, traj.lam))
            errs.append(abs(lam1 - 100.0 * math.exp(-1.0)))
        assert 0.35 < errs[1] / errs[0] < 0.65

    def test_constant_demand_settles_at_balance_point(self):
        vc = bt.VickreyConfig(L=10.0, fd=PAPER_FD, B=2.0, lambda0=0.0,
                              influx=bt.ConstantInflux(1000.0), dt=1e-3,
                              horizon=bt.MaxTime(3.0))
        traj = bt.solve_vickrey(vc)
        assert traj.termination is bt.Termination.HORIZON
        # 2*1000 = 10*Q  =>  Q = 200 on the free branch  =>  lam = 200/30*10
        assert traj.lam[-1] == pytest.approx(2000.0 / 30.0, rel=1e-4)

    def test_oversaturated_demand_gridlocks(self):
        vc = bt.VickreyConfig(L=10.0, fd=PAPER_FD, B=2.0, lambda0=0.0,
                              influx=bt.ConstantInflux(4000.0), dt=1e-3,
                              horizon=bt.MaxTime(50.0))
        traj = bt.solve_vickrey(vc)
        assert traj.termination is bt.Termination.GRIDLOCK
        assert traj.lam[-1] >= 10.0 * 200.0 * (1 - 1e-9)

    def test_outflux_column_is_count_speed_over_mean(self):
        vc = bt.VickreyConfig(L=10.0, fd=PAPER_FD, B=2.0, lambda0=50.0,
                              influx=bt.ConstantInflux(1000.0), dt=1e-3,
                              horizon=bt.MaxTime(0.5))
        traj = bt.solve_vickrey(vc)
        assert np.allclose(traj.g, traj.lam * traj.v / 2.0, atol=1e-9)

    def test_zero_count_exits_immediately_possible(self):
        # exponential distances put mass at zero distance, so outflow starts
        # at once when trips are present
        vc = bt.VickreyConfig(L=10.0, fd=PAPER_FD, B=2.0, lambda0=50.0,
                              influx=bt.ZeroInflux(), dt=1e-3,
                              horizon=bt.MaxTime(0.1))
        traj = bt.solve_vickrey(vc)
        assert traj.g[0] > 0.0


class TestEquivalenceCheck:
    def test_matched_exponential_run_stays_exponential(self):
        scen = stationary_exponential_scenario(2**-6, T=0.4)
        traj = bt.solve_characteristic(scen)
        res = bt.vickrey_equivalence_check(traj, B=1.0)
        assert res.max_profile_deviation < 0.02

    def test_pure_shift_is_exact(self):
        grid = bt.GridSpec(dx=2**-6, X=24.0,
                           horizon=bt.MaxCumulativeDistance(1.0))
        scen = bt.Scenario(L=10.0, fd=GS, influx=bt.ZeroInflux(),
                           distances=bt.ExponentialDistances(1.0), grid=grid,
                           ic=bt.ExponentialProfile(100.0, 1.0))
        traj = bt.solve_characteristic(scen)
        res = bt.vickrey_equivalence_check(traj, B=1.0)
        assert res.max_profile_deviation < 1e-9

    def test_uniform_distances_fail_the_check(self):
        grid = bt.GridSpec(dx=2**-5, X=14.0, horizon=bt.MaxTime(0.8),
                           dt=2**-5 / 30.0)
        scen = bt.Scenario(L=10.0, fd=PAPER_FD, influx=bt.ConstantInflux(3000.0),
                           distances=bt.UniformDistances(1.0), grid=grid)
        traj = bt.solve_integral(scen)
        res = bt.vickrey_equivalence_check(traj, B=1.0)
        assert res.max_profile_deviation > 0.05

    def test_lambda_deviation_against_reduced_model(self):
        scen = stationary_exponential_scenario(2**-5, T=0.4)
        traj = bt.solve_integral(scen)
        res = bt.vickrey_equivalence_check(traj, B=1.0,
                                           influx=bt.ConstantInflux(3000.0),
                                           fd=PAPER_FD, dt=1e-5)
        assert res.max_lambda_deviation < 3.0 * (2**-5 + 2**-5 / 30.0) * 100.0

    @pytest.mark.parametrize("law", ["exponential", "uniform"])
    def test_outflux_deviation_halves_only_for_exponential_distances(self, law):
        # g = v*lam/B is Vickrey's out-flux: an exponential run meets it to
        # first order in dx, a uniform law of the same mean does not
        distances = (bt.ExponentialDistances(2.0) if law == "exponential"
                     else bt.UniformDistances(2.0))
        devs = []
        for k in range(3, 7):
            grid = bt.GridSpec(dx=2.0**-k, X=24.0, horizon=bt.MaxTime(1.5))
            traj = bt.solve_characteristic(bt.Scenario(
                L=PAPER_L, fd=PAPER_FD, influx=bt.TrapezoidalPulse(6000.0, 2000.0, 1.0),
                distances=distances, grid=grid))
            res = bt.vickrey_equivalence_check(traj, B=2.0, profile_samples=1)
            devs.append(res.max_outflux_deviation)
        ratios = np.array(devs[:-1]) / np.array(devs[1:])
        if law == "exponential":
            assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios
        else:
            assert np.all(ratios < 1.3), ratios

    def test_outflux_deviation_of_an_empty_run_is_zero(self):
        # g is 0 at every step: the deviation is 0.0, with no 0/0
        grid = bt.GridSpec(dx=2**-3, X=4.0, horizon=bt.MaxTime(0.25))
        traj = bt.solve_characteristic(bt.Scenario(
            L=PAPER_L, fd=PAPER_FD, influx=bt.ZeroInflux(),
            distances=bt.ExponentialDistances(1.0), grid=grid))
        assert not traj.g.any()
        assert bt.vickrey_equivalence_check(traj, B=1.0).max_outflux_deviation == 0.0

    @pytest.mark.parametrize("B", [0.0, math.nan, -1.0, math.inf])
    def test_mean_must_be_finite_and_positive(self, B):
        # each used to report a deviation: 0.0, perfect agreement, at B = 0
        # and NaN, 148.4 at B = -1 and 1.0 at B = inf
        with pytest.raises(bt.DomainError, match=r"^B must be finite and positive"):
            bt.vickrey_equivalence_check(paper_char(2**-3), B)

    @pytest.mark.parametrize("lambda0", [2500.0, 100.0], ids=["one_state", "many_steps"])
    def test_reference_step_without_dt(self, monkeypatch, lambda0):
        # a run of one state (it starts past the jam count L kappa = 2000)
        # has no step to copy and takes 1e-3; a longer run takes its
        # shortest step, at least 1e-6
        steps = []

        def recording(c):
            steps.append(c.dt)
            return bt.solve_vickrey(c)

        monkeypatch.setattr(special, "solve_vickrey", recording)
        grid = bt.GridSpec(dx=2**-3, X=4.0, horizon=bt.MaxTime(0.25))
        traj = bt.solve_characteristic(bt.Scenario(
            L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(500.0),
            distances=bt.ExponentialDistances(1.0), grid=grid,
            ic=bt.ExponentialProfile(lambda0, 1.0)))
        bt.vickrey_equivalence_check(traj, 1.0, influx=bt.ConstantInflux(500.0),
                                     fd=PAPER_FD)
        if lambda0 > 2000.0:
            assert traj.t.size == 1 and steps == [1e-3]
        else:
            assert steps == [max(float(np.min(np.diff(traj.t))), 1e-6)]


def _vickrey(influx=None, dt=2e-4, horizon=None, lambda0=0.0):
    return bt.VickreyConfig(L=PAPER_L, fd=PAPER_FD, B=2.0, lambda0=lambda0,
                            influx=paper_pulse() if influx is None else influx,
                            dt=dt, horizon=horizon or bt.MaxCumulativeDistance(30.0))


def _time_after(k, dt):
    """The clock of the z-grid march after k steps of ``dt`` each."""
    t = 0.0
    for _ in range(k):
        t += dt
    return t


STEP_COUNTS = [0, _BLOCK - 1, _BLOCK, _BLOCK + 1]

VICKREY_CASES = {
    "reduced_scalar": lambda: _vickrey(),
    "lambda0_positive": lambda: _vickrey(bt.ConstantInflux(1500.0), dt=1e-4,
                                         horizon=bt.MaxTime(0.5), lambda0=300.0),
    "gridlock": lambda: _vickrey(bt.ConstantInflux(4000.0), dt=1e-3,
                                 horizon=bt.MaxTime(50.0)),
    "gridlock_at_start": lambda: _vickrey(lambda0=PAPER_L * 200.0),
    # the block's times past t_1 overflow to inf, and no rate is asked there
    "huge_dt": lambda: _vickrey(bt.ZeroInflux(), dt=1e305),
    # dt u / B = 1.5, so the first Euler step 50 - 0.1 * 50 * 30 / 2 = -25
    # undershoots 0 and is clamped
    "euler_undershoot": lambda: _vickrey(bt.ZeroInflux(), dt=0.1, lambda0=50.0),
    "piecewise_influx": lambda: _vickrey(
        bt.PiecewiseLinearInflux([(0.1, 0.0), (0.3, 3000.0), (0.5, 500.0),
                                  (0.9, 0.0)]), dt=1e-4, horizon=bt.MaxTime(1.0)),
    **{f"max_time_{k}_steps": (lambda k=k: _vickrey(
        dt=2.0**-14, horizon=bt.MaxTime(k * 2.0**-14 if k else 1e-13), lambda0=50.0))
       for k in STEP_COUNTS},
}


def _deterministic(influx=None, btilde=None, dz=2.0**-6, horizon=None,
                   ic=None, coordinate="t"):
    return bt.DeterministicConfig(
        L=PAPER_L, fd=PAPER_FD, btilde=paper_btilde() if btilde is None else btilde,
        influx=paper_pulse() if influx is None else influx, dz=dz,
        horizon=horizon or bt.MaxCumulativeDistance(30.0),
        ic=ic or bt.EmptyNetwork(), btilde_coordinate=coordinate)


DETERMINISTIC_CASES = {
    "reduced_scalar": lambda: _deterministic(),
    "gridlock": lambda: _deterministic(bt.ConstantInflux(4000.0), btilde=2.0,
                                       horizon=bt.MaxTime(50.0)),
    "exponential_start": lambda: _deterministic(horizon=bt.MaxCumulativeDistance(10.0),
                                                ic=bt.ExponentialProfile(300.0, 1.5)),
    "tabulated_start": lambda: _deterministic(
        horizon=bt.MaxCumulativeDistance(10.0),
        ic=bt.TabulatedProfile([0.0, 1.0, 3.0], [400.0, 200.0, 0.0])),
    # the block's points past z_2 overflow to inf, where K0 reads 0
    "huge_dz": lambda: _deterministic(dz=1e305, ic=bt.ExponentialProfile(100.0, 1.0)),
    "btilde_against_z": lambda: _deterministic(
        bt.ConstantInflux(500.0), btilde=bt.PiecewiseLinear([0.0, 2.0, 50.0],
                                                            [2.0, 0.0, 0.0]),
        ic=bt.ExponentialProfile(100.0, 1.0), coordinate="z"),
    # light demand on a light start keeps v = u, so the clock after k steps
    # is known and a MaxTime stop lands on step k; these runs cross a block's
    # end with an exponential start
    **{f"max_time_{k}_steps": (lambda k=k: _deterministic(
        bt.ConstantInflux(100.0), btilde=2.0, dz=2.0**-12,
        horizon=bt.MaxTime(_time_after(k, 2.0**-12 / 30.0) if k else 1e-13),
        ic=bt.ExponentialProfile(50.0, 1.0)))
       for k in STEP_COUNTS},
}

CONSTANT_CASES = {
    "reduced_scalar": lambda: _deterministic(btilde=2.0, dz=2.0**-7),
    "gridlock": lambda: _deterministic(bt.ConstantInflux(4000.0), btilde=2.0,
                                       horizon=bt.MaxTime(50.0)),
}


# step counts the cases must land on: a gridlock at the start, one step of
# a huge dt or dz, and MaxTime stops on both sides of a block's end
CASE_STEPS = {"gridlock_at_start": 0, "huge_dt": 1, "huge_dz": 1, **{f"max_time_{k}_steps": k for k in STEP_COUNTS}}


def _check_case(case, run):
    gridlock = case.startswith("gridlock")
    assert run.termination is (bt.Termination.GRIDLOCK if gridlock
                               else bt.Termination.HORIZON)
    if case in CASE_STEPS:
        assert run.n_steps == CASE_STEPS[case] + 1


class TestReducedSolversBits:
    """The reduced solvers against their plain per-step loops, bit for bit;
    the Vickrey and deterministic marches read their inflow rates and
    initial-profile terms in blocks of ``_BLOCK`` steps."""

    @pytest.mark.parametrize("case", sorted(VICKREY_CASES))
    def test_vickrey(self, case):
        c = VICKREY_CASES[case]()
        run = bt.solve_vickrey(c)
        _check_case(case, run)
        assert_same_run(run, reference_vickrey(c))

    def test_vickrey_clamps_an_undershoot_to_positive_zero(self):
        lam = bt.solve_vickrey(VICKREY_CASES["euler_undershoot"]()).lam
        assert lam[0] == 50.0
        assert_same_bits(lam[1:], np.zeros(lam.size - 1))  # +0.0, not -0.0

    @pytest.mark.parametrize("case", sorted(DETERMINISTIC_CASES))
    def test_deterministic(self, case):
        c = DETERMINISTIC_CASES[case]()
        run = bt.solve_deterministic(c)
        _check_case(case, run)
        assert_same_run(run, reference_deterministic(c))

    @pytest.mark.parametrize("case", sorted(CONSTANT_CASES))
    def test_constant_distance(self, case):
        c = CONSTANT_CASES[case]()
        run = bt.solve_constant_distance(c)[0]
        _check_case(case, run)
        assert_same_run(run, reference_constant_distance(c))


@st.composite
def crossing_exits(draw):
    """A deterministic run whose trips leave out of entry order: Btilde
    against z falls to 0 at more than 1 mile per mile (LIFO) straight
    away, or first rises (FIFO) and then falls so; entries past the fall
    are never active.  The z stop lies past the largest theta, so the run
    ends with no trip left."""
    b0 = draw(st.floats(0.5, 1.5))
    fall = draw(st.floats(1.5, 4.0))  # miles of Btilde lost per mile of z
    if draw(st.booleans()):  # LIFO from the start
        z_top, b_top = 0.0, b0
        x, y = [], []
    else:  # FIFO while Btilde rises to b_top at z_top
        z_top = draw(st.floats(0.2, 0.5))
        b_top = b0 + draw(st.floats(0.1, 1.0))
        x, y = [0.0], [b0]
    btilde = bt.PiecewiseLinear(x + [z_top, z_top + b_top / fall, 50.0],
                                y + [b_top, 0.0, 0.0])
    ic = draw(st.sampled_from([bt.EmptyNetwork(), bt.ExponentialProfile(200.0, 0.5)]))
    return _deterministic(bt.ConstantInflux(draw(st.floats(500.0, 6000.0))),
                          btilde=btilde, dz=2.0 ** -draw(st.integers(8, 10)),
                          horizon=bt.MaxCumulativeDistance(z_top + b_top + 0.25),
                          ic=ic, coordinate="z")


class TestExitHeap:
    """The exit heap and its exact active sum on runs where trips leave
    out of entry order, at the dz where a rounded running sum drove lam
    below 0."""

    @settings(max_examples=8)
    @given(c=crossing_exits())
    def test_runs_match_the_masked_reference(self, c):
        run = bt.solve_deterministic(c)
        assert_same_run(run, reference_deterministic(c))
        assert np.all(run.lam >= 0.0)
        # where no logged entry is active, lam is exactly its K0 term
        z_end = run.z[1:]
        idle = np.maximum.accumulate(run.entry_theta) <= z_end + 1e-12
        assert idle[-1]
        k0 = c.ic.profile_array(z_end)
        assert np.array_equal(run.lam[1:][idle], k0[idle])


SERIES = ("t", "z", "lam", "v", "f", "F", "G", "g", "entry_mass", "entry_theta")


class TestPeakMemory:
    """A march's traced peak stays within a small multiple of the series it
    can return, stored or derived (9 doubles a step, 10 with the theta log).
    The marches append their per-step values as packed doubles, 8 bytes
    each, and a trajectory stores only what its march produced, so the
    ratios read 0.78, 0.82, 0.96-1.06 and 1.10 at these sizes.  When the
    Vickrey and z-grid solvers still built z (and Vickrey its t, log and
    g), and the constant-distance frame held a derived F, they read 1.00,
    0.93, 1.16-1.23 and 1.10, and the Vickrey and deterministic solvers
    storing z again read 0.89 and 1.23, past these bounds.  The
    constant-distance peak is its TripFrame's z, and the integral one its
    march's logs, which a stored derived series does not raise;
    ``test_trajectory_stores_only_its_march`` holds those two."""

    @pytest.mark.parametrize("solve, config, bound", [
        (bt.solve_vickrey, lambda: _vickrey(dt=1e-4), 0.84),
        (lambda c: bt.solve_constant_distance(c)[0],
         lambda: _deterministic(btilde=2.0, dz=2.0**-7), 0.9),
        (bt.solve_deterministic, lambda: _deterministic(dz=2.0**-7), 1.13),
        (bt.solve_integral, lambda: paper_scenario(2.0**-5, dt=2.0**-7 / 30.0), 1.2),
    ], ids=["vickrey", "constant_distance", "deterministic", "integral"])
    def test_peak_is_near_the_returned_series(self, solve, config, bound):
        c = config()
        run, peak = traced_peak(lambda: solve(c))
        kept = sum(getattr(run, name).nbytes for name in SERIES
                   if getattr(run, name) is not None)
        assert run.n_steps > 3000
        assert peak < bound * kept

    def test_a_suspended_point_reader_holds_about_one_block(self):
        # a block of 4,096 doubles takes 32 kB; as a list of floats it took 163 kB
        points = _points(bt.ExponentialProfile(100.0, 1.0).profile_array, 2.0**-8, 1, "dz")

        def first():  # the memory held once the reader has yielded a point
            next(points)
            return tracemalloc.get_traced_memory()[0]

        held, _ = traced_peak(first)
        assert held < 100e3


class TestOverflow:
    """A step that carries t or z past the largest float raises instead of
    ending the run on an infinite z."""

    @pytest.mark.parametrize("dz", [1e307, 1e308])
    @pytest.mark.parametrize("ic", [bt.EmptyNetwork(), bt.ExponentialProfile(100.0, 1.0)],
                             ids=["empty", "exponential"])
    def test_deterministic(self, dz, ic):
        with pytest.raises(bt.DomainError, match="dz"):
            bt.solve_deterministic(_deterministic(bt.ZeroInflux(), dz=dz, ic=ic,
                                                  horizon=bt.MaxTime(1e308)))

    @pytest.mark.parametrize("dz", [1e307, 1e308])
    def test_constant_distance(self, dz):
        with pytest.raises(bt.DomainError, match="dz"):
            bt.solve_constant_distance(_deterministic(bt.ZeroInflux(), btilde=dz, dz=dz,
                                                      horizon=bt.MaxTime(1e308)))

    @pytest.mark.parametrize("horizon", [bt.MaxTime(1e308), bt.MaxCumulativeDistance(30.0)],
                             ids=["max_time", "max_distance"])
    def test_vickrey(self, horizon):
        with pytest.raises(bt.DomainError, match="dt"):
            bt.solve_vickrey(_vickrey(bt.ZeroInflux(), dt=1e308, horizon=horizon))

    def test_z_stop_on_a_finite_z_still_ends_the_run(self):
        run = bt.solve_deterministic(_deterministic(bt.ZeroInflux(), dz=1e307,
                                                    horizon=bt.MaxCumulativeDistance(1e308)))
        assert run.termination is bt.Termination.HORIZON
        assert run.z[-1] == 1e308


class TestRegimeClassification:
    def test_constant_distance_is_first_in_first_out(self):
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                     influx=bt.ConstantInflux(500.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(4.0))
        traj = bt.solve_deterministic(cfg)
        regs = bt.classify_regime(cfg, traj)
        assert len(regs) == 1
        assert regs[0][2] is bt.SortingRegime.FIFO

    def test_distance_falling_with_travel_is_simultaneous_exit(self):
        bz = bt.PiecewiseLinear([0.0, 2.0, 50.0], [2.0, 0.0, 0.0])
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=bz,
                                     btilde_coordinate="z",
                                     influx=bt.ConstantInflux(500.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(1.5))
        traj = bt.solve_deterministic(cfg)
        regs = bt.classify_regime(cfg, traj)
        assert regs[0][2] is bt.SortingRegime.EQUAL_MINUS_ONE

    def test_steeply_falling_distance_is_last_in_first_out(self):
        # dBtilde/dt = -60 < -u, so dBtilde/dz < -1 in free flow
        bz = bt.PiecewiseLinear([0.0, 0.05, 50.0], [4.0, 1.0, 1.0])
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=bz,
                                     influx=bt.ConstantInflux(200.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(1.0))
        traj = bt.solve_deterministic(cfg)
        regs = bt.classify_regime(cfg, traj)
        assert regs[0][2] is bt.SortingRegime.LIFO


class TestDeterministicSolve:
    def test_constant_distance_count_formulas(self):
        B, f = 2.0, 500.0
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=B,
                                     influx=bt.ConstantInflux(f), dz=2**-6,
                                     horizon=bt.MaxCumulativeDistance(6.0))
        traj = bt.solve_deterministic(cfg)
        # light demand stays in free flow: lam(z) = F(tau(z)) - F(tau(z - B))
        for j in (20, 60, traj.n_steps // 2, traj.n_steps - 1):
            z = traj.z[j]
            expect = f * traj.t[j]
            if z >= B:
                expect -= f * float(np.interp(z - B, traj.z, traj.t))
            assert traj.lam[j] == pytest.approx(expect, abs=f * 2**-6 / 25.0)

    def test_simultaneous_exit_dumps_all_entrants_at_once(self):
        bz = bt.PiecewiseLinear([0.0, 2.0, 50.0], [2.0, 0.0, 0.0])
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=bz,
                                     btilde_coordinate="z",
                                     influx=bt.ConstantInflux(500.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(3.0))
        traj = bt.solve_deterministic(cfg)
        i = int(np.searchsorted(traj.z, 2.0))
        assert traj.G[i - 1] == 0.0
        assert traj.G[i] == pytest.approx(traj.F[i], abs=1e-9)

    def test_first_in_first_out_exit_order(self):
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                     influx=bt.ConstantInflux(500.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(5.0))
        traj = bt.solve_deterministic(cfg)
        theta = traj.entry_theta
        # strictly increasing effective distances: exits follow entries
        assert np.all(np.diff(theta) > 0)
        exits = [traj.time_to_distance(th) for th in theta[10:60:10]]
        assert all(b > a for a, b in zip(exits, exits[1:]))

    def test_last_in_first_out_exit_order(self):
        bz = bt.PiecewiseLinear([0.0, 0.05, 50.0], [4.0, 1.0, 1.0])
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=bz,
                                     btilde_coordinate="z",
                                     influx=bt.ConstantInflux(200.0), dz=2**-6,
                                     horizon=bt.MaxCumulativeDistance(5.0))
        traj = bt.solve_deterministic(cfg)
        theta = traj.entry_theta
        seg = theta[:3]  # inside the falling stretch
        assert np.all(np.diff(seg) < 0)
        exits = [traj.time_to_distance(th) for th in seg]
        assert exits[0] > exits[1] > exits[2]

    def test_reconstruction_follows_the_march(self):
        # an entry counts while theta > z + x + 1e-12, as in the march
        cfg = bt.DeterministicConfig(L=PAPER_L, fd=PAPER_FD, btilde=paper_btilde(),
                                     influx=paper_pulse(), dz=2**-7,
                                     horizon=bt.MaxCumulativeDistance(30.0))
        traj = bt.solve_deterministic(cfg)
        rec = np.array([bt.reconstruct_K(traj, float(t), 0.0) for t in traj.t])
        np.testing.assert_allclose(rec, traj.lam, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_entering_mass_is_a_domain_error(self, value):
        class Broken(bt.InfluxProfile):
            def _rate(self, t):
                return 0.0

            def _cumulative(self, t):
                return value

        with pytest.raises(bt.DomainError):
            bt.solve_deterministic(_deterministic(Broken()))

    def test_theta_inverse_recovers_entry_point(self):
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                     influx=bt.ConstantInflux(500.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(5.0))
        traj = bt.solve_deterministic(cfg)
        theta = traj.entry_theta
        i = 40
        z_entry = bt.theta_inverse(traj, float(theta[i]))
        assert z_entry == pytest.approx(traj.entry_z[i], abs=1e-9)

    def test_theta_inverse_hits_the_first_entry_exactly(self):
        traj = bt.solve_deterministic(_deterministic(
            bt.ConstantInflux(500.0), horizon=bt.MaxCumulativeDistance(5.0)))
        assert bt.theta_inverse(traj, float(traj.entry_theta[0])) == traj.entry_z[0]

    def test_theta_inverse_errors_name_what_is_missing(self):
        cfg = _deterministic(bt.ConstantInflux(500.0), btilde=2.0,
                             horizon=bt.MaxCumulativeDistance(5.0))
        with pytest.raises(bt.ContractError, match="trajectory carries no"):
            bt.theta_inverse(bt.solve_constant_distance(cfg)[0], 2.5)
        one = bt.solve_deterministic(dataclasses.replace(
            cfg, horizon=bt.MaxCumulativeDistance(cfg.dz)))
        assert one.entry_theta.size == 1
        with pytest.raises(bt.DomainError, match="trajectory logs fewer than 2"):
            bt.theta_inverse(one, 2.0)
        traj = bt.solve_deterministic(cfg)
        with pytest.raises(bt.DomainError, match="z_exit = 1000.0"):
            bt.theta_inverse(traj, 1000.0)


@pytest.fixture(scope="module")
def run():
    cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                 influx=bt.ConstantInflux(500.0), dz=2**-6,
                                 horizon=bt.MaxCumulativeDistance(10.0))
    return bt.solve_constant_distance(cfg)


@pytest.fixture(scope="module")
def congested():
    cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                 influx=paper_pulse(), dz=2**-6,
                                 horizon=bt.MaxCumulativeDistance(30.0))
    return bt.solve_constant_distance(cfg)


class TestConstantDistance:
    def test_no_exit_before_one_full_distance(self, run):
        traj, _ = run
        assert np.all(traj.G[traj.z < 2.0] == 0.0)
        assert traj.G[-1] > 0.0

    def test_first_exit_time_in_free_flow(self, run):
        traj, _ = run
        first = traj.t[np.argmax(traj.G > 0)]
        assert first == pytest.approx(2.0 / 30.0, rel=0.02)

    def test_stationary_count_and_outflux(self, run):
        traj, _ = run
        lam_inf = traj.lam[-1]
        assert lam_inf == pytest.approx(500.0 * 2.0 / 30.0, rel=1e-6)
        assert traj.g[-2] == pytest.approx(lam_inf * traj.v[-1] / 2.0, rel=1e-3)

    def test_stationary_remaining_profile_is_uniform(self, run):
        traj, _ = run
        t_late = float(traj.t[-1])
        xs = np.linspace(0.0, 2.0, 33)
        K = np.array([bt.reconstruct_K(traj, t_late, float(x)) for x in xs])
        Phi = K / K[0]
        assert np.max(np.abs(Phi - (1.0 - xs / 2.0))) < 0.02

    def test_no_immediate_exit_from_empty_start(self, run):
        # single-valued distances: nothing can complete at t=0+, unlike the
        # exponential reduced model where g(0) > 0 whenever lam(0) > 0
        traj, _ = run
        assert traj.g[0] == 0.0

    def test_matches_characteristic_scheme(self):
        dz = 2**-6
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                     influx=paper_pulse(), dz=dz,
                                     horizon=bt.MaxCumulativeDistance(8.0))
        traj_c, _ = bt.solve_constant_distance(cfg)
        grid = bt.GridSpec(dx=dz, X=2.0, horizon=bt.MaxCumulativeDistance(8.0))
        scen = bt.Scenario(L=10.0, fd=PAPER_FD, influx=paper_pulse(),
                           distances=bt.DeterministicDistances(2.0), grid=grid)
        traj_k = bt.solve_characteristic(scen)
        n = min(traj_c.n_steps, traj_k.n_steps)
        dev = np.max(np.abs(traj_c.lam[:n] - traj_k.lam[:n]))
        assert dev <= 5.0 * dz * 4000.0 / 30.0

    def test_rejects_nonempty_start(self):
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                     influx=bt.ConstantInflux(500.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(4.0),
                                     ic=bt.ExponentialProfile(10.0, 1.0))
        with pytest.raises(bt.ContractError):
            bt.solve_constant_distance(cfg)

    def test_distance_must_sit_on_the_grid(self):
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.1,
                                     influx=bt.ConstantInflux(500.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(4.0))
        with pytest.raises(bt.DomainError):
            bt.solve_constant_distance(cfg)

    @pytest.mark.parametrize("btilde, error, match", [
        (bt.PiecewiseLinear([0.0, 1.0], [2.0, 3.0]), bt.ContractError,
         "btilde must be constant"),
        (0.0, bt.DomainError, "btilde must be positive"),
    ], ids=["varying", "zero"])
    def test_distance_must_be_constant_and_positive(self, btilde, error, match):
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=btilde,
                                     influx=bt.ConstantInflux(500.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(4.0))
        with pytest.raises(error, match=match):
            bt.solve_constant_distance(cfg)


# the arguments of each TripFrame query: a time, a rank or a fixed x
FRAME_QUERIES = {"entry_time": ("rank",), "position": ("t", "rank"),
                 "exit_travel_time": ("t",), "entry_travel_time": ("t",),
                 "passing_time": ("rank", 1.0), "cumulative_passing": ("t", 1.0)}


class TestTripFrame:
    def test_free_flow_travel_time(self):
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                     influx=bt.ConstantInflux(100.0), dz=2**-6,
                                     horizon=bt.MaxCumulativeDistance(6.0))
        traj, frame = bt.solve_constant_distance(cfg)
        assert frame.entry_travel_time(0.05) == pytest.approx(2.0 / 30.0,
                                                              abs=1e-9)
        res = bt.delay_formulation_check(traj, frame)
        assert res.max_flow_residual < 1e-9
        assert res.max_distance_residual < 1e-9

    def test_congested_residuals_stay_at_round_off(self):
        # the z-grid recursion satisfies the delay identities structurally,
        # so the residuals sit at round-off and never grow under refinement
        res = {}
        for dz in (2**-4, 2**-6):
            cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                         influx=paper_pulse(), dz=dz,
                                         horizon=bt.MaxCumulativeDistance(30.0))
            traj, frame = bt.solve_constant_distance(cfg)
            res[dz] = bt.delay_formulation_check(traj, frame)
        assert res[2**-6].max_flow_residual <= res[2**-4].max_flow_residual + 1e-12
        assert res[2**-4].max_flow_residual < 1e-8
        assert res[2**-4].max_distance_residual < 1e-9

    def test_position_and_passing_time_are_inverse(self, congested):
        traj, frame = congested
        dtau = float(np.max(np.diff(traj.t)))
        checked = 0
        for rank in frame.sample_ranks(9):
            t0 = frame.entry_time(float(rank))
            for t in np.linspace(t0 + 0.01, t0 + 0.15, 4):
                if t > traj.t[-1]:
                    continue
                x = frame.position(float(t), float(rank))
                if not 0.0 <= x <= 2.0:
                    continue
                back = frame.passing_time(float(rank), float(x))
                assert abs(back - t) <= dtau + 1e-9
                checked += 1
        assert checked > 10

    def test_cumulative_passing_counts_completions_at_zero(self, congested):
        traj, frame = congested
        t = float(traj.t[-1])
        assert frame.cumulative_passing(t, 0.0) == pytest.approx(
            float(traj.G[-1]), abs=1e-6)

    def test_exit_travel_time_requires_a_completed_trip(self, congested):
        traj, frame = congested
        with pytest.raises(bt.DomainError):
            frame.exit_travel_time(0.01)

    @pytest.mark.parametrize("query, match", [
        (lambda f: f.entry_travel_time(float(f.tau[-1])), r"entering at t = "),
        (lambda f: f.cumulative_passing(0.1, -0.5), r"x must lie in \[0, Btilde\]"),
        (lambda f: f.cumulative_passing(0.1, 2.5), r"x must lie in \[0, Btilde\]"),
        (lambda f: f.passing_time(1.0, -0.5), r"x must lie in \[0, Btilde\]"),
        (lambda f: f.passing_time(1.0, 2.5), r"x must lie in \[0, Btilde\]"),
        (lambda f: f.passing_time(float(f.F[-1]), 0.0), r"does not reach x"),
    ], ids=["entry_past_horizon", "passing_x_below", "passing_x_above",
            "passing_time_x_below", "passing_time_x_above", "passing_time_past_horizon"])
    def test_query_outside_the_run_names_the_argument(self, run, query, match):
        _, frame = run
        with pytest.raises(bt.DomainError, match=match):
            query(frame)

    def test_nothing_passes_x_before_the_first_trip_gets_there(self, run):
        # at t = 0.01 h the first trip has 2 - 0.3 miles left
        _, frame = run
        assert frame.cumulative_passing(0.01, 1.0) == 0.0
        assert frame.cumulative_passing(0.01, 1.8) > 0.0

    def test_delay_check_of_a_run_shorter_than_one_trip_is_zero(self):
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                     influx=bt.ConstantInflux(500.0), dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(1.0))
        res = bt.delay_formulation_check(*bt.solve_constant_distance(cfg))
        assert (res.max_flow_residual, res.max_distance_residual) == (0.0, 0.0)

    def test_delay_check_skips_a_sample_whose_trip_does_not_complete(self):
        # a solved run's z only rises, so every sampled trip completes; this
        # hand-built run's z falls, so the trip entering at 1 h completes (no
        # early return) and the one sample, t = 0, is a trip that does not
        traj = bt.Trajectory(scheme="constant_distance", L=10.0,
                             t=np.array([0.0, 1.0, 2.0]), z=np.array([2.5, 0.5, 3.0]),
                             lam=np.zeros(3), v=np.ones(3), entry_mass=np.zeros(2),
                             termination=bt.Termination.HORIZON, influx=bt.ZeroInflux(),
                             distances=bt.DeterministicDistances(1.0), ic=bt.EmptyNetwork())
        frame = bt.TripFrame(Btilde=1.0, z=traj.z, tau=traj.t, F=traj.F, G=traj.G)
        with pytest.raises(bt.DomainError, match="does not complete"):
            frame.entry_travel_time(0.0)
        res = bt.delay_formulation_check(traj, frame, samples=1)
        assert (res.max_flow_residual, res.max_distance_residual) == (0.0, 0.0)

    def test_frame_holds_the_run_s_own_series(self, run):
        # its F is the recursion's running sum, which the derived F equals
        traj, frame = run
        for mine, own in ((frame.z, traj.z), (frame.tau, traj.t), (frame.F, traj.F),
                          (frame.G, traj.G)):
            assert_same_bits(mine, own)

    @pytest.mark.parametrize("series", ["z", "tau", "F", "G", "all"])
    def test_delay_check_rejects_a_frame_of_another_run(self, run, series):
        # it never read traj: a frame checked against any trajectory passed
        traj, frame = run
        if series == "all":  # the frame of the same demand on another grid
            cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                         influx=bt.ConstantInflux(500.0), dz=2**-5,
                                         horizon=bt.MaxCumulativeDistance(10.0))
            other = bt.solve_constant_distance(cfg)[1]
        else:
            moved = getattr(frame, series).copy()
            moved[-1] += 1.0
            other = dataclasses.replace(frame, **{series: moved})
        with pytest.raises(bt.ContractError, match="own z, t, F and G"):
            bt.delay_formulation_check(traj, other)
        # equal values pass: the trajectory's z and t are derived copies
        copies = dataclasses.replace(frame, z=traj.z.copy(), tau=traj.t.copy())
        assert (bt.delay_formulation_check(traj, copies)
                == bt.delay_formulation_check(traj, frame))

    @pytest.mark.parametrize("name", sorted(FRAME_QUERIES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "below", "above"])
    def test_non_finite_time_or_rank_raises(self, run, name, bad):
        # the range checks are false for NaN, and np.interp answers NaN and
        # clamps a t outside the run (entry_travel_time(-1) read 1.07 h);
        # each query is valid at t = 0.2 h (z near 6 mi), rank 1
        _, frame = run
        valid = {"t": 0.2, "rank": 1.0}
        outside = {"below": {"t": -1.0, "rank": -1.0},
                   "above": {"t": frame.tau[-1] + 5.0, "rank": frame.F[-1] + 5.0}}
        query, args = getattr(frame, name), FRAME_QUERIES[name]
        assert math.isfinite(query(*[valid.get(a, a) for a in args]))
        for i in [i for i, a in enumerate(args) if a in valid]:
            bad_args = [valid.get(a, a) for a in args]
            bad_args[i] = outside[bad][args[i]] if bad in outside else bad
            with pytest.raises(bt.DomainError):
                query(*bad_args)

    def test_time_at_either_end_of_the_run_is_accepted(self, run):
        _, frame = run
        end = float(frame.tau[-1])
        assert frame.entry_travel_time(0.0) == pytest.approx(2.0 / 30.0, abs=1e-9)
        assert math.isfinite(frame.exit_travel_time(end))
        assert frame.position(end, 1.0) < 0.0  # trip 1 finished long before

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_sample_count_must_be_at_least_one(self, run, n):
        # n = 0 divided by zero, -1 raised numpy's ValueError, 2.5 a TypeError
        traj, frame = run
        with pytest.raises(bt.DomainError, match=r"^n must be at least 1, an integer"):
            frame.sample_ranks(n)
        with pytest.raises(bt.DomainError,
                           match=r"^samples must be at least 1, an integer"):
            bt.delay_formulation_check(traj, frame, samples=n)  # 0 checked nothing

    def test_delay_check_restricts_to_pre_gridlock_times(self):
        cfg = bt.DeterministicConfig(L=10.0, fd=PAPER_FD, btilde=2.0,
                                     influx=bt.ConstantInflux(4000.0),
                                     dz=2**-5,
                                     horizon=bt.MaxCumulativeDistance(30.0))
        traj, frame = bt.solve_constant_distance(cfg)
        assert traj.termination is bt.Termination.GRIDLOCK
        res = bt.delay_formulation_check(traj, frame)
        # only trips that complete before the jam are sampled
        assert res.max_flow_residual < 1e-6


class TestConfigValidation:
    @staticmethod
    def vickrey(**kw):
        args = dict(L=10.0, fd=PAPER_FD, B=2.0, lambda0=0.0,
                    influx=bt.ConstantInflux(100.0), dt=1e-3,
                    horizon=bt.MaxTime(1.0))
        return bt.VickreyConfig(**dict(args, **kw))

    @staticmethod
    def deterministic(**kw):
        args = dict(L=10.0, fd=PAPER_FD, btilde=2.0,
                    influx=bt.ConstantInflux(100.0), dz=2**-5,
                    horizon=bt.MaxTime(1.0))
        return bt.DeterministicConfig(**dict(args, **kw))

    @pytest.mark.parametrize("v_min", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("make", ["vickrey", "deterministic"])
    def test_v_min_must_be_finite_and_positive(self, make, v_min):
        # with v_min = 0 a jammed z-grid step divides by a zero speed
        with pytest.raises(bt.DomainError, match="v_min"):
            getattr(self, make)(v_min=v_min)

    @pytest.mark.parametrize("horizon", [1.0, None])
    @pytest.mark.parametrize("make", ["vickrey", "deterministic"])
    def test_horizon_must_be_a_horizon_type(self, make, horizon):
        with pytest.raises(bt.DomainError, match="horizon must be"):
            getattr(self, make)(horizon=horizon)

    @pytest.mark.parametrize("field", ["L", "B", "dt", "lambda0"])
    def test_vickrey_rejects_infinite_values(self, field):
        with pytest.raises(bt.DomainError):
            self.vickrey(**{field: math.inf})

    @pytest.mark.parametrize("field", ["L", "dz"])
    def test_deterministic_rejects_infinite_values(self, field):
        with pytest.raises(bt.DomainError):
            self.deterministic(**{field: math.inf})

    @pytest.mark.parametrize("field, value, match", [
        ("btilde_coordinate", "x", "btilde_coordinate must be 't' or 'z'"),
        ("btilde", bt.PiecewiseLinear([0.0, 1.0], [2.0, -1.0]),
         "btilde must be non-negative"),
        ("btilde", -2.0, "btilde must be non-negative"),
    ], ids=["coordinate", "negative_profile", "negative_constant"])
    def test_deterministic_rejects_a_bad_btilde(self, field, value, match):
        with pytest.raises(bt.DomainError, match=match):
            self.deterministic(**{field: value})
