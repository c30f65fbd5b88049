"""Scenario strategies for the generated tests.

The plain strategies draw the pieces of a scenario: pulses, distance laws
and initial conditions.  The composites ``free_flowing``, ``congested`` and
``gridlocking`` draw whole scenarios on the paper network
(``Trapezoidal(30, 750, 10, 200)``, L = 10), each sized from the network's
bounds to reach one flow regime, and return it as a :class:`Draw` tagged
with that regime and with its capped share.  ``test_strategies.py`` runs
the composites' draws to check the tags.
"""

import math
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

import bathtub as bt
from helpers import PAPER_FD, PAPER_L, paper_btilde

# the pieces of a scenario ----------------------------------------------------

scales = st.integers(-4, 4).map(lambda k: 2.0**k)
ramps = st.floats(500.0, 20000.0)
plateaus = st.floats(100.0, 4000.0)
pulses = st.tuples(ramps, plateaus)
fixed_laws = st.sampled_from([bt.ExponentialDistances(1.5),
                              bt.UniformDistances(paper_btilde()),
                              bt.DeterministicDistances(2.0),
                              bt.TabulatedSurvival([0.0, 1.0, 3.0], [0.0, 1.0],
                                                   [[1.0, 0.5, 0.0], [1.0, 0.8, 0.0]])])
mean_laws = st.one_of(
    st.floats(0.3, 3.0).map(bt.UniformDistances),
    st.floats(0.3, 3.0).map(bt.ExponentialDistances),
    st.floats(0.3, 3.0).map(bt.DeterministicDistances))
# one to five nodes from a first one at or before 0 (-0.0 too) or after it
piecewise_profiles = st.builds(
    lambda first, steps, ys, extend: bt.PiecewiseLinear(
        np.cumsum([first, *steps]), ys[:len(steps) + 1], extend=extend),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
    st.lists(st.floats(0.05, 1.5), max_size=4),
    st.lists(st.floats(-1.0, 5.0), min_size=5, max_size=5),
    st.sampled_from(["zero", "clamp"]))
initial_kinds = st.sampled_from(["empty", "exponential", "tabulated"])
initial_profiles = st.one_of(
    st.just(bt.EmptyNetwork()),
    st.tuples(st.floats(1.0, 400.0), st.floats(0.3, 2.0)).map(
        lambda a: bt.ExponentialProfile(*a)))


def initial_condition(kind, c):
    """The initial condition ``kind`` with its trips scaled by c."""
    if kind == "exponential":
        return bt.ExponentialProfile(100.0 * c, 1.0)
    if kind == "tabulated":
        return bt.TabulatedProfile([0.0, 1.0, 3.0], [400.0 * c, 200.0 * c, 0.0])
    return bt.EmptyNetwork()


# scenarios tagged with the flow regime they reach ---------------------------

FREE, CONGESTED, GRIDLOCK = "free", "congested", "gridlock"
KINDS = ("exponential", "uniform", "deterministic", "tabulated")
LC = PAPER_L * PAPER_FD.C  # 7,500 trip-miles an hour at capacity
FREE_COUNT = LC / PAPER_FD.u  # 250 trips: v = u up to here
# 1,250 trips: the flow stays at capacity, v = C / rho, up to here
CAPACITY_COUNT = PAPER_L * (PAPER_FD.kappa - PAPER_FD.C / PAPER_FD.w)
B_NODES = [0.0, 0.4, 0.6, 1.0]  # the paper's times of a varying mean, h
COARSE = 2.0**-3  # X is a whole number of these cells, or of dx if larger
_MEAN_LAWS = {"exponential": (bt.ExponentialDistances, 8.0),
              "uniform": (bt.UniformDistances, 2.0),
              "deterministic": (bt.DeterministicDistances, 1.0)}


class Draw(NamedTuple):
    """A scenario, the regime it is sized to reach, its law's kind, and its
    capped share: the largest tail of the law beyond X over entry times."""
    scenario: bt.Scenario
    regime: str
    kind: str
    capped: float


class _Law(NamedTuple):
    kind: str
    law: bt.DistanceDistribution
    X: float
    top: float  # capped mean of the largest survival over entry times
    least: float  # smallest capped mean over entry times
    capped: float


@st.composite
def _laws(draw, varying=True, means=(1.0, 3.0), cell=COARSE):
    """A law of one of ``KINDS``, with a mean drawn from ``means`` that
    varies over ``B_NODES`` (a table: over two rows) when ``varying``, and
    an X that holds its support (eight of an exponential law's largest
    means)."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "tabulated":
        # rows [1, a, b, 0] on nodes [0, s, 2s, 3s], the first of mean
        # s (1 + 2a + 2b) / 2 drawn from means
        times = [0.0, 1.0] if varying else [0.0]
        rows = [[1.0, *sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=2,
                                             max_size=2)), reverse=True), 0.0]
                for _ in times]
        s = draw(st.floats(*means)) * 2.0 / (1.0 + 2.0 * sum(rows[0][1:3]))
        xs = [0.0, s, 2.0 * s, 3.0 * s]
        law, reach = bt.TabulatedSurvival(xs, times, rows), xs[-1]
        # the node-wise largest row bounds every row from above
        top = bt.TabulatedSurvival(xs, [0.0], [np.max(rows, axis=0)])
    else:
        times = B_NODES if varying else [0.0]
        values = draw(st.lists(st.floats(*means), min_size=len(times),
                               max_size=len(times)))
        make, span = _MEAN_LAWS[kind]
        law = make(bt.PiecewiseLinear(times, values, extend="clamp"))
        reach = span * max(values)
        top = make(max(values))  # the survival grows with the mean
    X = math.ceil(reach / cell - 1e-9) * cell
    caps = [float(law.mean_distance_capped(t, X)) for t in times]
    return _Law(kind, law, X, float(top.mean_distance_capped(0.0, X)), min(caps),
                max(float(law.tail_beyond(t, X)) for t in times))


def _draw(regime, law, influx, dx, horizon, ic=bt.EmptyNetwork(), v_min=1e-9):
    grid = bt.GridSpec(dx=dx, X=law.X, horizon=horizon, dt=dx / 30.0, v_min=v_min)
    return Draw(bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=influx,
                            distances=law.law, grid=grid, ic=ic),
                regime, law.kind, law.capped)


@st.composite
def free_flowing(draw):
    """A pulse and an initial count lambda(0) with f_max times the capped
    mean of the largest survival at most 0.9 L C - u lambda(0).  At free
    flow lambda(t) <= lambda(0) + f_max mean / u, which then stays below
    L C / u, so v = u at every step.  dx = 1/16; it stops at z = 20."""
    law = draw(_laws())
    lam0 = draw(st.floats(0.0, 0.1 * FREE_COUNT))
    ic = bt.ExponentialProfile(lam0, draw(st.floats(0.3, 2.0)))
    ramp = draw(ramps)
    f_max = draw(st.floats(0.05, 0.9)) * (LC - PAPER_FD.u * lam0) / law.top
    influx = bt.TrapezoidalPulse(ramp, min(f_max, ramp / 2.0), 1.0)
    return _draw(FREE, law, influx, 2.0**-4, bt.MaxCumulativeDistance(20.0), ic)


def _free_flow_peak(influx, law, X):
    """The largest count ``influx`` reaches if every trip runs at u,
    max_t int_0^t f(s) S(s, u (t - s)) ds with a trip capped at X leaving
    at age X, by the midpoint rule on 1,024 entry times."""
    ds = influx.end / 1024
    s = (np.arange(1024) + 0.5) * ds
    t = np.linspace(0.0, influx.end + X / PAPER_FD.u, 257)[:, None]
    age = PAPER_FD.u * (t - s)
    S = np.where((age >= 0.0) & (age < X),
                 law.survival_array(np.broadcast_to(s, age.shape), np.clip(age, 0.0, X)),
                 0.0)
    return float(np.max(S @ influx.rate_array(s)) * ds)


@st.composite
def congested(draw):
    """A pulse scaled so that at free flow its count would peak at 1.2 to
    1.8 times L C / u, so the run must slow down, and short enough that its
    excess trip-miles, about (share - 1) L C an hour, are a quarter to
    three quarters of what the count can carry at capacity: from L C / u
    up to L (kappa - C / w) trips at the least capped mean.  dx = 1/16; it
    stops at z = 30, past the end of the pulse."""
    law = draw(_laws(means=(1.5, 3.0)))
    share = draw(st.floats(1.2, 1.8))
    room = (CAPACITY_COUNT - FREE_COUNT) * law.least
    end = min(1.0, draw(st.floats(0.25, 0.75)) * room / ((share - 1.0) * LC))
    unit = bt.TrapezoidalPulse(1.0 / (draw(st.floats(0.1, 0.3)) * end), 1.0, end)
    plateau = share * FREE_COUNT / _free_flow_peak(unit, law.law, law.X)
    influx = bt.TrapezoidalPulse(unit.ramp * plateau, plateau, end)
    return _draw(CONGESTED, law, influx, 2.0**-4, bt.MaxCumulativeDistance(30.0))


@st.composite
def gridlocking(draw, v_min=st.just(1e-9)):
    """A constant demand f on a law of constant capped mean with
    f (mean - dx) = (1 + m) L C, m from 0.1 to 2, dx from 1/8 to 1/2, and
    v_min drawn from ``v_min``.  A fixed-step scheme counts a trip for up
    to one cell less than its distance (with X at a deterministic law's
    distance and dx = X / 2, exactly one), so f must pass
    ``gridlock_predict``'s bound, f mean > L C, by more than dx / mean of
    it.  It stops at t = 40 h."""
    dx = draw(st.sampled_from([2.0**-3, 2.0**-2, 2.0**-1]))
    law = draw(_laws(varying=False, cell=max(dx, COARSE)))
    f = (1.0 + draw(st.floats(0.1, 2.0))) * LC / (law.least - dx)
    return _draw(GRIDLOCK, law, bt.ConstantInflux(f), dx, bt.MaxTime(40.0),
                 v_min=draw(v_min))
