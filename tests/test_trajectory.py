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
from helpers import (PAPER_FD, PAPER_L, assert_same_bits, held_nbytes, paper_btilde,
                     paper_char, paper_integral, paper_pulse, solve_fixed_step)
from strategies import initial_profiles, mean_laws, plateaus, ramps


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
def test_F_is_the_running_sum_of_the_entry_log(name):
    """Every solver but the deterministic one leaves F to the trajectory,
    which sums the log in order; the deterministic solver supplies the exact
    cumulative inflow at each step."""
    traj = _solved(name)
    if name == "deterministic":
        want = np.array([paper_pulse().cumulative(t) for t in traj.t.tolist()])
    else:
        want = np.concatenate(([0.0], np.cumsum(traj.entry_mass)))
        running = [0.0]
        for m in traj.entry_mass.tolist():
            running.append(running[-1] + m)
        assert want.tobytes() == np.array(running).tobytes()
    assert traj.F.dtype == np.float64 and traj.F.tobytes() == want.tobytes()


class TestTimeToDistance:
    def test_array_of_targets_matches_scalar_calls(self):
        traj = paper_char(2**-4)
        Z = np.array([[0.0, 1.3], [7.77, 30.0]])
        got = traj.time_to_distance(Z)
        assert got.shape == Z.shape
        assert got.tolist() == [[traj.time_to_distance(float(z)) for z in row]
                                for row in Z]
        assert isinstance(traj.time_to_distance(7.77), float)

    @pytest.mark.parametrize("Z", [np.nan, np.inf, -np.inf, [1.0, np.nan]])
    def test_non_finite_target_rejected(self, Z):
        with pytest.raises(bt.DomainError, match="finite"):
            paper_char(2**-4).time_to_distance(Z)

    @pytest.mark.parametrize("Z", [30.5, [1.0, 30.5]])
    def test_target_beyond_the_horizon_rejected(self, Z):
        with pytest.raises(bt.DomainError, match="never reaches"):
            paper_char(2**-4).time_to_distance(Z)

    @pytest.mark.parametrize("Z", [-1.0, -1e-300, [1.0, -1.0]])
    def test_negative_target_rejected(self, Z):
        # np.interp clamped it: time_to_distance(-1.0) returned 0.0
        traj = paper_integral(2**-4)
        with pytest.raises(bt.DomainError, match="non-negative"):
            traj.time_to_distance(Z)


def _built_columns(name, traj):
    """f, F, G and g as every trajectory once stored them, built from its
    march's series and its demand: the inflow rate at each step, the running
    sum of the log (the exact cumulative inflow for the deterministic
    solver), the conservation count, and its forward difference with the
    last value repeated (Vickrey's lam v / B)."""
    influx = bt.ConstantInflux(500.0) if name == "multi_commodity" else paper_pulse()
    f = influx.rate_array(traj.t)
    if name == "deterministic":
        F = np.array([influx.cumulative(t) for t in traj.t.tolist()])
    else:
        F = np.concatenate(([0.0], np.cumsum(traj.entry_mass)))
    G = traj.lam[0] + F - traj.lam
    if name == "vickrey":
        g = traj.lam * traj.v / 2.0
    else:
        g = np.zeros_like(traj.t)
        g[:-1] = np.diff(G) / np.diff(traj.t)
        g[-1] = g[-2]
    return {"f": f, "F": F, "G": G, "g": g}


@pytest.mark.parametrize("name", SOLVERS)
def test_derived_columns_equal_the_stored_ones(name):
    """f, F and g are computed when read; they, G and the series keep the
    bits the stored columns had, and keep them through a pickle."""
    traj = _solve(name)
    want = _built_columns(name, traj)
    for run in (traj, pickle.loads(pickle.dumps(traj))):
        for key, col in want.items():
            assert_same_bits(getattr(run, key), col)
        series = run.series
        assert list(series) == ["t", "z", "lambda", "v", "f", "F", "g", "G"]
        for key in ("f", "F", "g", "G"):
            assert_same_bits(series[key], want[key])
        for key, col in (("t", traj.t), ("z", traj.z), ("lambda", traj.lam), ("v", traj.v)):
            assert_same_bits(series[key], col)


@pytest.mark.parametrize("name", SOLVERS)
def test_trajectory_stores_only_its_march(name):
    """A trajectory holds t, z, lam, v, the entry log and G, the columns a
    solver supplies (Vickrey's g, the deterministic F and theta log) and the
    grid, and no derived column: 7, 8 and 6 doubles a step for the Vickrey,
    deterministic and other runs."""
    traj = _solve(name)
    columns = {"vickrey": 7, "deterministic": 8}.get(name, 6)
    grid = 0 if traj.x_grid is None else traj.x_grid.nbytes
    assert held_nbytes(traj) <= columns * 8 * traj.n_steps + grid


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


@pytest.mark.parametrize("limit", [2.5, 3.0, "4", None])
def test_profile_limit_must_be_an_integer(limit):
    # numpy's linspace raised a raw TypeError for a float count
    with pytest.raises(bt.DomainError, match="^limit must be at least 1, an integer"):
        _solved("integral").profile_steps(limit)


@pytest.mark.parametrize("name", SOLVERS[:4])
def test_profile_steps_outside_the_run_rejected(name):
    traj = _solved(name)
    for steps in ([traj.n_steps + 3], [0, -traj.n_steps - 1], 2.5):
        with pytest.raises(bt.DomainError, match="^steps must index"):
            traj.profiles(steps)
    assert traj.profiles([-1], 2).shape == (1, 2)  # numpy indexing from the end


def test_characteristic_trajectory_keeps_no_profile_rows():
    # the paper example at dx = 2^-6: its 1,921 rows of K would pickle to 5 MB
    traj = paper_char(2**-6)
    assert len(pickle.dumps(traj)) < 1e6
    assert np.array_equal(traj.K_history, traj.profiles(slice(None)))
    assert _solve("integral").K_history is None


@pytest.mark.parametrize("name", SOLVERS)
def test_metadata_is_read_off_the_grid(name):
    traj = _solved(name)
    if name in SOLVERS[:4]:
        assert traj.metadata == {"dx": 2**-4, "X": 4.0}
    else:
        assert traj.metadata == {}
    assert "metadata" not in {f.name for f in dataclasses.fields(traj)}


def test_profile_needs_a_grid():
    with pytest.raises(bt.ContractError):
        _solve("vickrey").profile(0)


@settings(max_examples=25)
@given(ramp=ramps, plateau=plateaus, distances=mean_laws, ic=initial_profiles)
def test_replayed_profile_equals_its_reconstruction(ramp, plateau, distances, ic):
    grid = bt.GridSpec(dx=2**-3, X=2.0, horizon=bt.MaxCumulativeDistance(6.0))
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD,
                       influx=bt.TrapezoidalPulse(ramp, plateau, 1.0),
                       distances=distances, grid=grid, ic=ic)
    traj = bt.solve_characteristic(scen)
    np.testing.assert_allclose(traj.profiles(slice(None)),
                               _rebuild(traj, traj.t, traj.x_grid.size),
                               rtol=0.0, atol=1e-9 * float(traj.lam.max()))


@settings(max_examples=25)
@given(ramp=ramps, plateau=plateaus, distances=mean_laws, ic=initial_profiles)
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


@settings(max_examples=25)
@given(solver=st.sampled_from(["integral", "mobility_service", "multi_commodity"]),
       ramp=ramps, plateau=plateaus,
       distances=mean_laws, ic=initial_profiles)
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
