"""Exact relations between runs, on generated inputs.

Scaling the demand (L, the inflow and the initial trips) by a power of two
c changes no clock, distance or speed, and scales every count by c exactly;
measuring distance in a unit c times smaller (every length, L and the
speeds times c, the jam density over c, the capacity kept) changes no
clock or count and scales z and v by c exactly; splitting a pulse 1:1
over two commodities adds back to the one-commodity run; under a
constant inflow below capacity, Vickrey's march settles on the
stationary state and both gridded schemes converge on it from opposite
sides; with a constant distance, the deterministic march and the
characteristic scheme converge on the constant-distance recursion at
first order; the audit's trip-miles residual halves with dx; and on
congested runs of time-dependent laws both gridded schemes share one limit,
as criterion 06 asks of the paper example.  None of these needs a
reference solution.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathtub as bt
from helpers import (DX_LEVELS, PAPER_FD, PAPER_L, assert_same_bits, paper_btilde,
                     paper_pulse, scheme_gaps)
from strategies import congested, fixed_laws, initial_kinds, pulses, scales
# under the name the test bodies call it by, which seeds their draws
from strategies import initial_condition as _ic

SOLVERS = ["vickrey", "deterministic", "constant_distance", "characteristic",
           "integral", "mobility_service", "multi_commodity"]
HORIZON = bt.MaxTime(0.5)
DX = 2**-3

def _solve(solver, c, pulse, distances, ic):
    """One run of ``solver`` with L, the inflow and the initial trips
    scaled by c (and a mobility service's lane-miles with L)."""
    L = PAPER_L * c
    influx = bt.TrapezoidalPulse(pulse[0] * c, pulse[1] * c, 1.0)
    ic = _ic(ic, c)
    if solver == "vickrey":
        return bt.solve_vickrey(bt.VickreyConfig(
            L=L, fd=PAPER_FD, B=1.5, lambda0=ic.lambda0, influx=influx,
            dt=2**-10, horizon=HORIZON))
    if solver in ("deterministic", "constant_distance"):
        c_det = bt.DeterministicConfig(
            L=L, fd=PAPER_FD, btilde=paper_btilde() if solver == "deterministic" else 2.0,
            influx=influx, dz=2**-5, horizon=HORIZON,
            ic=ic if solver == "deterministic" else bt.EmptyNetwork())
        if solver == "deterministic":
            return bt.solve_deterministic(c_det)
        return bt.solve_constant_distance(c_det)[0]
    grid = bt.GridSpec(dx=DX, X=4.0, horizon=HORIZON, dt=DX / 32.0)
    scen = bt.Scenario(L=L, fd=PAPER_FD, influx=influx, distances=distances,
                       grid=grid, ic=ic)
    if solver == "characteristic":
        return bt.solve_characteristic(scen)
    if solver == "integral":
        return bt.solve_integral(scen)
    if solver == "mobility_service":
        esr = bt.BoardingDelaySpeed(PAPER_FD, alpha=1e-3, lane_miles=L)
        return bt.solve_mobility_service(scen, esr)
    return bt.solve_multi_commodity(
        L, [bt.CommodityDemand(influx, distances, ic)],
        [lambda lam, f, g: PAPER_FD.speed(lam[0] / L)], grid)[0]


def _check_demand_scale(solver, c, pulse, distances, ic):
    base = _solve(solver, 1.0, pulse, distances, ic)
    run = _solve(solver, c, pulse, distances, ic)
    assert run.termination is base.termination
    for name in ("t", "z", "v"):
        assert_same_bits(getattr(run, name), getattr(base, name))
    for name in ("lam", "F", "G", "g", "f", "entry_mass"):
        assert_same_bits(getattr(run, name), c * getattr(base, name))


@settings(max_examples=25)
@given(solver=st.sampled_from(SOLVERS), c=scales, pulse=pulses,
       distances=fixed_laws, ic=initial_kinds)
def test_demand_scale_is_exact(solver, c, pulse, distances, ic):
    _check_demand_scale(solver, c, pulse, distances, ic)


def test_demand_scale_is_exact_on_every_solver():
    """Every solver once, at both ends of the scale range, so a draw that
    misses one does not leave it unchecked."""
    for solver in SOLVERS:
        for c in (2.0**-4, 2.0**4):
            _check_demand_scale(solver, c, (10000.0, 4000.0),
                                bt.UniformDistances(paper_btilde()), "exponential")


def _in_units(c, scheme, pulse, law, ic):
    """A gridded run with distances in a unit 1/c: B~, X, dx, the z stop,
    L, u and w times c, kappa over c, C and the inflow as they are."""
    fd = bt.Trapezoidal(u=30.0 * c, C=750.0, w=10.0 * c, kappa=200.0 / c)
    distances = {
        "exponential": bt.ExponentialDistances(1.5 * c),
        "uniform": bt.UniformDistances(bt.PiecewiseLinear(
            [0.0, 0.4, 0.6, 1.0], [2.0 * c, 5.0 * c, 5.0 * c, 2.0 * c], extend="clamp")),
        "deterministic": bt.DeterministicDistances(2.0 * c),
        "tabulated": bt.TabulatedSurvival([0.0, 1.0 * c, 3.0 * c], [0.0, 1.0],
                                          [[1.0, 0.5, 0.0], [1.0, 0.8, 0.0]]),
    }[law]
    ic = {"empty": bt.EmptyNetwork(),
          "exponential": bt.ExponentialProfile(100.0, 1.0 * c),
          "tabulated": bt.TabulatedProfile([0.0, 1.0 * c, 3.0 * c],
                                           [400.0, 200.0, 0.0])}[ic]
    L, influx = PAPER_L * c, bt.TrapezoidalPulse(*pulse, 1.0)
    # a run with more than one commodity needs a time horizon
    horizon = (bt.MaxTime(0.5) if scheme == "multi_commodity"
               else bt.MaxCumulativeDistance(3.0 * c))
    grid = bt.GridSpec(dx=DX * c, X=4.0 * c, horizon=horizon, dt=DX / 32.0)
    if scheme == "multi_commodity":
        shared = lambda lam, f, g: fd.speed((lam[0] + lam[1]) / L)
        return bt.solve_multi_commodity(
            L, [bt.CommodityDemand(influx, distances, ic),
                bt.CommodityDemand(bt.TrapezoidalPulse(pulse[0] / 2, pulse[1] / 2, 1.0),
                                   distances)], [shared, shared], grid)[0]
    scen = bt.Scenario(L=L, fd=fd, influx=influx, distances=distances, grid=grid, ic=ic)
    if scheme == "mobility_service":
        # alpha scales with L, so the delay factor alpha (f + g) / L keeps its bits
        esr = bt.BoardingDelaySpeed(fd, alpha=1e-4 * c, lane_miles=L)
        return bt.solve_mobility_service(scen, esr)
    return (bt.solve_integral if scheme == "integral" else bt.solve_characteristic)(scen)


@settings(max_examples=24)
@given(c=st.sampled_from([2.0, 0.5]),
       scheme=st.sampled_from(["characteristic", "integral", "mobility_service",
                               "multi_commodity"]), pulse=pulses,
       law=st.sampled_from(["exponential", "uniform", "deterministic", "tabulated"]),
       ic=initial_kinds)
def test_distance_unit_is_exact(c, scheme, pulse, law, ic):
    base = _in_units(1.0, scheme, pulse, law, ic)
    run = _in_units(c, scheme, pulse, law, ic)
    assert run.termination is base.termination
    for name in ("t", "lam", "F", "G", "g", "entry_mass"):
        assert_same_bits(getattr(run, name), getattr(base, name))
    for name in ("z", "v"):
        assert_same_bits(getattr(run, name), c * getattr(base, name))


def _reduced_in_units(c, solver, pulse, ic, coordinate):
    """A reduced-model run with distances in a unit 1/c: Vickrey's B, the
    z-grid solvers' B~ (and its z nodes when it is given against z) and dz,
    the initial profile's lengths, L, u, w and the z stop times c, kappa
    over c, C, dt and the inflow as they are."""
    fd = bt.Trapezoidal(u=30.0 * c, C=750.0, w=10.0 * c, kappa=200.0 / c)
    influx = bt.TrapezoidalPulse(*pulse, 1.0)
    stop = bt.MaxCumulativeDistance(20.0 * c)
    if solver == "vickrey":
        return bt.solve_vickrey(bt.VickreyConfig(
            L=PAPER_L * c, fd=fd, B=1.5 * c, lambda0=_ic(ic, 1.0).lambda0,
            influx=influx, dt=2**-10, horizon=stop))
    if solver == "constant_distance":
        return bt.solve_constant_distance(bt.DeterministicConfig(
            L=PAPER_L * c, fd=fd, btilde=2.0 * c, influx=influx, dz=2**-5 * c,
            horizon=stop))[0]
    nodes = [0.0, 0.4, 0.6, 1.0]
    btilde = bt.PiecewiseLinear([x * c if coordinate == "z" else x for x in nodes],
                                [2.0 * c, 5.0 * c, 5.0 * c, 2.0 * c], extend="clamp")
    profile = {"empty": bt.EmptyNetwork(),
               "exponential": bt.ExponentialProfile(100.0, 1.0 * c),
               "tabulated": bt.TabulatedProfile([0.0, 1.0 * c, 3.0 * c],
                                                [400.0, 200.0, 0.0])}[ic]
    return bt.solve_deterministic(bt.DeterministicConfig(
        L=PAPER_L * c, fd=fd, btilde=btilde, influx=influx, dz=2**-5 * c,
        horizon=stop, ic=profile, btilde_coordinate=coordinate))


@pytest.mark.parametrize("solver", ["vickrey", "deterministic", "constant_distance"])
@settings(max_examples=8)
@given(c=st.sampled_from([2.0, 0.5]), pulse=pulses, ic=initial_kinds,
       coordinate=st.sampled_from(["t", "z"]))
def test_distance_unit_is_exact_on_the_reduced_solvers(c, solver, pulse, ic, coordinate):
    base = _reduced_in_units(1.0, solver, pulse, ic, coordinate)
    run = _reduced_in_units(c, solver, pulse, ic, coordinate)
    assert run.termination is base.termination
    for name in ("t", "lam", "F", "G", "g", "entry_mass"):
        assert_same_bits(getattr(run, name), getattr(base, name))
    for name in ("z", "v"):
        assert_same_bits(getattr(run, name), c * getattr(base, name))
    if run.entry_theta is not None:
        assert_same_bits(run.entry_theta, c * base.entry_theta)


@settings(max_examples=10)
@given(pulse=pulses, distances=fixed_laws, ic=initial_kinds)
def test_even_commodity_split_adds_back(pulse, distances, ic):
    grid = bt.GridSpec(dx=DX, X=4.0, horizon=HORIZON, dt=DX / 32.0)
    whole = bt.CommodityDemand(bt.TrapezoidalPulse(*pulse, 1.0), distances, _ic(ic, 1.0))
    half = bt.CommodityDemand(bt.TrapezoidalPulse(pulse[0] / 2, pulse[1] / 2, 1.0),
                              distances, _ic(ic, 0.5))
    one = bt.solve_multi_commodity(
        PAPER_L, [whole], [lambda lam, f, g: PAPER_FD.speed(lam[0] / PAPER_L)], grid)[0]
    shared = lambda lam, f, g: PAPER_FD.speed((lam[0] + lam[1]) / PAPER_L)
    a, b = bt.solve_multi_commodity(PAPER_L, [half, half], [shared, shared], grid)
    assert_same_bits(a.t, one.t)
    assert_same_bits(a.z, one.z)
    assert_same_bits(a.lam + b.lam, one.lam)


@settings(max_examples=25)
@given(B=st.floats(1.0, 3.0), share=st.floats(0.05, 0.9))
def test_vickrey_settles_on_the_stationary_state(B, share):
    C, _ = PAPER_FD.capacity()
    f = share * PAPER_L * C / B
    run = bt.solve_vickrey(bt.VickreyConfig(
        L=PAPER_L, fd=PAPER_FD, B=B, lambda0=0.0, influx=bt.ConstantInflux(f),
        dt=1e-3, horizon=bt.MaxTime(3.0)))
    target = bt.stationary_state(PAPER_FD, PAPER_L, f, bt.ExponentialDistances(B))
    assert abs(run.lam[-1] - target.lam) <= 1e-9 * target.lam


@settings(max_examples=3)
@given(B=st.floats(1.0, 3.0), share=st.floats(0.05, 0.9))
def test_gridded_schemes_converge_on_the_stationary_state(B, share):
    # both schemes' final count approaches lam* at first order in dx, the
    # characteristic scheme from above and the integral scheme from below
    # (about +-dx/(2B) relative); X is a whole number of coarse cells
    C, _ = PAPER_FD.capacity()
    f = share * PAPER_L * C / B
    X = round(16.0 * B * 8.0) / 8.0
    target = bt.stationary_state(PAPER_FD, PAPER_L, f, bt.ExponentialDistances(B)).lam
    for solve, sign in ((bt.solve_characteristic, 1.0), (bt.solve_integral, -1.0)):
        gaps = []
        for k in range(3, 6):
            grid = bt.GridSpec(dx=2.0**-k, X=X, horizon=bt.MaxTime(3.0),
                               dt=2.0**-k / 30.0)
            traj = solve(bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(f),
                                     distances=bt.ExponentialDistances(B), grid=grid))
            gaps.append(sign * (traj.lam[-1] - target))
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert min(gaps) > 0.0, gaps
        assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios


def _constant_distance_march(kind, c):
    """The deterministic march, or the characteristic scheme with dx = dz,
    of the constant-distance config ``c``."""
    if kind == "deterministic":
        return bt.solve_deterministic(c)
    grid = bt.GridSpec(dx=c.dz, X=4.0, horizon=c.horizon)
    return bt.solve_characteristic(bt.Scenario(
        L=c.L, fd=c.fd, influx=c.influx, distances=bt.DeterministicDistances(c.btilde),
        grid=grid))


@pytest.mark.parametrize("B, march", [
    (1.5, "deterministic"), (2.0, "deterministic"),
    (1.5, "characteristic"), (2.0, "characteristic")],
    ids=["1.5", "2.0", "1.5-characteristic", "2.0-characteristic"])
def test_deterministic_march_converges_on_the_constant_distance_recursion(B, march):
    # the recursion counts a trip while its age is at most B~, the march
    # while its theta exceeds z, so their counts differ by one cell's
    # entering mass: the largest gap halves with dz
    gaps = []
    for k in range(4, 8):
        c = bt.DeterministicConfig(L=PAPER_L, fd=PAPER_FD, btilde=B, influx=paper_pulse(),
                                   dz=2.0**-k, horizon=bt.MaxCumulativeDistance(30.0))
        a, b = _constant_distance_march(march, c), bt.solve_constant_distance(c)[0]
        n = min(a.n_steps, b.n_steps)
        gaps.append(np.max(np.abs(a.lam[:n] - b.lam[:n])))
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios


@settings(max_examples=6)
@given(pulse=pulses, scheme=st.sampled_from(["characteristic", "integral"]),
       law=st.sampled_from(["uniform", "exponential"]))
def test_trip_miles_residual_halves_with_dx(pulse, scheme, law):
    # the audit's trip-miles balance holds to first order in dx
    distances = (bt.UniformDistances(paper_btilde()) if law == "uniform"
                 else bt.ExponentialDistances(1.5))
    residuals = []
    for k in range(3, 7):
        grid = bt.GridSpec(dx=2.0**-k, X=6.0, horizon=bt.MaxTime(1.5),
                           dt=2.0**-k / 32.0)
        scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.TrapezoidalPulse(*pulse, 1.0),
                           distances=distances, grid=grid)
        traj = (bt.solve_integral if scheme == "integral" else bt.solve_characteristic)(scen)
        residuals.append(bt.audit(traj).trip_miles_residual)
    ratios = np.array(residuals[:-1]) / np.array(residuals[1:])
    assert np.all((1.8 <= ratios) & (ratios <= 2.2)), ratios


@settings(max_examples=4)
@given(draw=congested())
def test_schemes_share_one_limit_on_congested_draws(draw):
    """Criterion 06's measures on a generated congested run whose law
    varies in time: the raw z(t) gap halves with dx and the Richardson
    extrapolates agree within 5 cells."""
    char, integral = {}, {}
    for dx in DX_LEVELS:
        scen = dataclasses.replace(draw.scenario, grid=dataclasses.replace(
            draw.scenario.grid, dx=dx, dt=dx / 30.0))
        char[dx], integral[dx] = bt.solve_characteristic(scen), bt.solve_integral(scen)
    got = scheme_gaps(char, integral)
    assert got.ok, got
