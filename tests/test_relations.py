"""Exact relations between runs, on generated inputs.

Scaling the demand (L, the inflow and the initial trips) by a power of two
c changes no clock, distance or speed, and scales every count by c exactly;
splitting a pulse 1:1 over two commodities adds back to the one-commodity
run; and under a constant inflow below capacity, Vickrey's march settles on
the stationary state.  None of these needs a reference solution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bathtub as bt
from helpers import PAPER_FD, PAPER_L, assert_same_bits, paper_btilde

SOLVERS = ["vickrey", "deterministic", "constant_distance", "characteristic",
           "integral", "mobility_service", "multi_commodity"]
HORIZON = bt.MaxTime(0.5)
DX = 2**-3

_scale = st.integers(-4, 4).map(lambda k: 2.0**k)
_pulse = st.tuples(st.floats(500.0, 20000.0), st.floats(100.0, 4000.0))
_distances = st.sampled_from([bt.ExponentialDistances(1.5),
                              bt.UniformDistances(paper_btilde()),
                              bt.DeterministicDistances(2.0),
                              bt.TabulatedSurvival([0.0, 1.0, 3.0], [0.0, 1.0],
                                                   [[1.0, 0.5, 0.0], [1.0, 0.8, 0.0]])])
_initial = st.sampled_from(["empty", "exponential", "tabulated"])


def _ic(kind, c):
    """The initial condition ``kind`` with its trips scaled by c."""
    if kind == "exponential":
        return bt.ExponentialProfile(100.0 * c, 1.0)
    if kind == "tabulated":
        return bt.TabulatedProfile([0.0, 1.0, 3.0], [400.0 * c, 200.0 * c, 0.0])
    return bt.EmptyNetwork()


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


@settings(max_examples=25, derandomize=True, deadline=None)
@given(solver=st.sampled_from(SOLVERS), c=_scale, pulse=_pulse,
       distances=_distances, ic=_initial)
def test_demand_scale_is_exact(solver, c, pulse, distances, ic):
    _check_demand_scale(solver, c, pulse, distances, ic)


def test_demand_scale_is_exact_on_every_solver():
    """Every solver once, at both ends of the scale range, so a draw that
    misses one does not leave it unchecked."""
    for solver in SOLVERS:
        for c in (2.0**-4, 2.0**4):
            _check_demand_scale(solver, c, (10000.0, 4000.0),
                                bt.UniformDistances(paper_btilde()), "exponential")


@settings(max_examples=10, derandomize=True, deadline=None)
@given(pulse=_pulse, distances=_distances, ic=_initial)
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


@settings(max_examples=25, derandomize=True, deadline=None)
@given(B=st.floats(1.0, 3.0), share=st.floats(0.05, 0.9))
def test_vickrey_settles_on_the_stationary_state(B, share):
    C, _ = PAPER_FD.capacity()
    f = share * PAPER_L * C / B
    run = bt.solve_vickrey(bt.VickreyConfig(
        L=PAPER_L, fd=PAPER_FD, B=B, lambda0=0.0, influx=bt.ConstantInflux(f),
        dt=1e-3, horizon=bt.MaxTime(3.0)))
    target = bt.stationary_state(PAPER_FD, PAPER_L, f, bt.ExponentialDistances(B))
    assert abs(run.lam[-1] - target.lam) <= 1e-9 * target.lam
