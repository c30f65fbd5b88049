"""The trajectory data model: K(t, x) is rebuilt from data the trajectory
carries, so every solver's trajectory pickles, and a stored profile equals
its reconstruction."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathtub as bt
from helpers import PAPER_FD, PAPER_L, paper_btilde, paper_pulse, solve_fixed_step


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


def test_profile_accessor_picks_stored_or_rebuilt_rows():
    stored = _solve("characteristic")
    rebuilt = dataclasses.replace(stored, K_history=None)
    assert np.array_equal(stored.profile_steps(5), np.arange(stored.n_steps))
    steps = rebuilt.profile_steps(5)
    assert steps.size == 5 and steps[0] == 0 and steps[-1] == stored.n_steps - 1
    j = int(steps[2])
    assert np.array_equal(stored.profile(j), stored.K_history[j])
    assert np.array_equal(rebuilt.profile(j, 2),
                          bt.reconstruct_K(stored, float(stored.t[j]),
                                           stored.x_grid[:2]))


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
def test_stored_profile_equals_its_reconstruction(ramp, plateau, distances, ic):
    grid = bt.GridSpec(dx=2**-3, X=2.0, horizon=bt.MaxCumulativeDistance(6.0))
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD,
                       influx=bt.TrapezoidalPulse(ramp, plateau, 1.0),
                       distances=distances, grid=grid, ic=ic)
    stored = bt.solve_characteristic(scen)
    rebuilt = dataclasses.replace(stored, K_history=None)
    tol = 1e-9 * float(stored.lam.max())
    for j in rebuilt.profile_steps(9):
        np.testing.assert_allclose(rebuilt.profile(j), stored.profile(j),
                                   rtol=0.0, atol=tol)


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
