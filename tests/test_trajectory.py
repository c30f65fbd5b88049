"""The trajectory data model: K(t, x) is rebuilt from data the trajectory
carries, so every solver's trajectory pickles, and a characteristic run's
replayed profile equals its reconstruction."""

import dataclasses
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathtub as bt
from bathtub.solver import _rebuild
from helpers import (PAPER_FD, PAPER_L, paper_btilde, paper_char, paper_pulse,
                     solve_fixed_step)


def _gridded_scenario(dt=None):
    grid = bt.GridSpec(dx=2**-4, X=4.0, horizon=bt.MaxCumulativeDistance(8.0),
                       dt=dt)
    return bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                       distances=bt.UniformDistances(paper_btilde()), grid=grid,
                       ic=bt.ExponentialProfile(50.0, 1.0))


def _shared_speed(lam, f, g):
    return PAPER_FD.speed((lam[0] + lam[1]) / PAPER_L)


def _solve(name):
    """One trajectory (the first, for the multi-commodity solver) of each
    of the seven solvers."""
    if name == "characteristic":
        return bt.solve_characteristic(_gridded_scenario())
    if name == "integral":
        return bt.solve_integral(_gridded_scenario(dt=2**-4 / 30.0))
    if name == "mobility_service":
        esr = bt.BoardingDelaySpeed(PAPER_FD, alpha=1e-4, lane_miles=PAPER_L)
        return bt.solve_mobility_service(_gridded_scenario(dt=2**-4 / 30.0), esr)
    if name == "multi_commodity":
        grid = bt.GridSpec(dx=2**-4, X=4.0, horizon=bt.MaxTime(0.6),
                           dt=2**-4 / 30.0)
        coms = [bt.CommodityDemand(paper_pulse(), bt.UniformDistances(2.0)),
                bt.CommodityDemand(bt.ConstantInflux(500.0),
                                   bt.ExponentialDistances(1.0),
                                   bt.ExponentialProfile(30.0, 1.0))]
        return bt.solve_multi_commodity(PAPER_L, coms, [_shared_speed] * 2, grid)[1]
    if name == "vickrey":
        return bt.solve_vickrey(bt.VickreyConfig(
            L=PAPER_L, fd=PAPER_FD, B=2.0, lambda0=40.0, influx=paper_pulse(),
            dt=1e-3, horizon=bt.MaxCumulativeDistance(8.0)))
    cfg = bt.DeterministicConfig(L=PAPER_L, fd=PAPER_FD, btilde=paper_btilde(),
                                 influx=paper_pulse(), dz=2**-6,
                                 horizon=bt.MaxCumulativeDistance(8.0))
    if name == "deterministic":
        return bt.solve_deterministic(cfg)
    cfg = dataclasses.replace(cfg, btilde=2.0)
    return bt.solve_constant_distance(cfg)[0]


SOLVERS = ["characteristic", "integral", "mobility_service", "multi_commodity",
           "vickrey", "deterministic", "constant_distance"]
_solved = functools.lru_cache(maxsize=None)(_solve)  # for tests that only read


@pytest.mark.parametrize("name", SOLVERS)
def test_pickle_round_trip_reconstructs_identically(name):
    traj = _solve(name)
    back = pickle.loads(pickle.dumps(traj))
    for key, col in traj.series.items():
        assert np.array_equal(back.series[key], col), key
    xs = traj.x_grid if traj.x_grid is not None else np.linspace(0.0, 5.0, 41)
    for j in np.linspace(0, traj.n_steps - 1, 7).astype(int):
        t = float(traj.t[j])
        assert np.array_equal(bt.reconstruct_K(back, t, xs),
                              bt.reconstruct_K(traj, t, xs))


@pytest.mark.parametrize("name", SOLVERS[:4])
def test_profile_steps_follow_the_scheme(name):
    traj = _solve(name)
    steps = traj.profile_steps(5)
    if name == "characteristic":
        assert np.array_equal(steps, np.arange(traj.n_steps))
        return
    assert steps.size == 5 and steps[0] == 0 and steps[-1] == traj.n_steps - 1
    j = int(steps[2])
    assert np.array_equal(traj.profile(j, 2),
                          bt.reconstruct_K(traj, float(traj.t[j]), traj.x_grid[:2]))


_LIMITED_CALLS = {
    "profile_steps": ("limit", lambda traj, n: traj.profile_steps(n)),
    "audit": ("max_profiles", lambda traj, n: bt.audit(traj, max_profiles=n)),
    "outflux_from_profile": ("max_points",
                             lambda traj, n: bt.outflux_from_profile(traj, max_points=n)),
    "vickrey_equivalence_check": ("profile_samples", lambda traj, n:
                                  bt.vickrey_equivalence_check(traj, 1.0, profile_samples=n)),
}


@pytest.mark.parametrize("limit", [0, -1, -3])
@pytest.mark.parametrize("call", sorted(_LIMITED_CALLS))
@pytest.mark.parametrize("name", SOLVERS[:4])
def test_profile_limit_below_one_rejected(name, call, limit):
    # a limit of 0 used to rebuild no profile, so audit reported a
    # trip-miles residual of 0.0; a negative one raised numpy's ValueError
    arg, fn = _LIMITED_CALLS[call]
    with pytest.raises(bt.DomainError, match=f"^{arg} must be at least 1"):
        fn(_solved(name), limit)


def test_characteristic_trajectory_keeps_no_profile_rows():
    # the paper example at dx = 2^-6: its 1,921 rows of K would pickle to 5 MB
    traj = paper_char(2**-6)
    assert len(pickle.dumps(traj)) < 1e6
    assert np.array_equal(traj.K_history, traj.profiles(slice(None)))
    assert _solve("integral").K_history is None


def test_profile_needs_a_grid():
    with pytest.raises(bt.ContractError):
        _solve("vickrey").profile(0)


_distances = st.one_of(
    st.floats(0.3, 3.0).map(bt.UniformDistances),
    st.floats(0.3, 3.0).map(bt.ExponentialDistances),
    st.floats(0.3, 3.0).map(bt.DeterministicDistances))
_initial = st.one_of(
    st.just(bt.EmptyNetwork()),
    st.tuples(st.floats(1.0, 400.0), st.floats(0.3, 2.0)).map(
        lambda a: bt.ExponentialProfile(*a)))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(ramp=st.floats(500.0, 20000.0), plateau=st.floats(100.0, 4000.0),
       distances=_distances, ic=_initial)
def test_replayed_profile_equals_its_reconstruction(ramp, plateau, distances, ic):
    grid = bt.GridSpec(dx=2**-3, X=2.0, horizon=bt.MaxCumulativeDistance(6.0))
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD,
                       influx=bt.TrapezoidalPulse(ramp, plateau, 1.0),
                       distances=distances, grid=grid, ic=ic)
    traj = bt.solve_characteristic(scen)
    np.testing.assert_allclose(traj.profiles(slice(None)),
                               _rebuild(traj, traj.t, traj.x_grid.size),
                               rtol=0.0, atol=1e-9 * float(traj.lam.max()))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(ramp=st.floats(500.0, 20000.0), plateau=st.floats(100.0, 4000.0),
       distances=_distances, ic=_initial)
def test_rebuilt_profiles_are_monotone_and_start_at_lambda(ramp, plateau,
                                                          distances, ic):
    grid = bt.GridSpec(dx=2**-3, X=2.0, horizon=bt.MaxCumulativeDistance(6.0),
                       dt=2**-3 / 30.0)
    traj = bt.solve_integral(bt.Scenario(
        L=PAPER_L, fd=PAPER_FD, influx=bt.TrapezoidalPulse(ramp, plateau, 1.0),
        distances=distances, grid=grid, ic=ic))
    K = traj.profiles(np.arange(traj.n_steps))
    tol = 1e-9 * max(1.0, float(traj.lam.max()))
    assert np.all(K >= 0.0)
    assert np.all(np.diff(K, axis=1) <= tol)
    np.testing.assert_allclose(K[:, 0], traj.lam, rtol=1e-12, atol=tol * 1e-3)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(solver=st.sampled_from(["integral", "mobility_service", "multi_commodity"]),
       ramp=st.floats(500.0, 20000.0), plateau=st.floats(100.0, 4000.0),
       distances=_distances, ic=_initial)
def test_fixed_step_exits_never_decrease(solver, ramp, plateau, distances, ic):
    """G = lambda(0) + F - lambda counts the completed trips, so the exit
    rate g is non-negative up to rounding; a mass weighted twice would make
    it fall."""
    grid = bt.GridSpec(dx=2**-3, X=2.0, horizon=bt.MaxCumulativeDistance(6.0),
                       dt=2**-3 / 30.0)
    traj = solve_fixed_step(solver, bt.Scenario(
        L=PAPER_L, fd=PAPER_FD, influx=bt.TrapezoidalPulse(ramp, plateau, 1.0),
        distances=distances, grid=grid, ic=ic))
    assert np.all(traj.g >= -1e-9 * float(np.max(traj.lam[0] + traj.F)))
