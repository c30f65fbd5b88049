"""Shared scenario builders and cached solves for the test suite."""

import functools

import numpy as np

import bathtub as bt

PAPER_FD = bt.Trapezoidal(u=30.0, C=750.0, w=10.0, kappa=200.0)
PAPER_L = 10.0
PAPER_X = 5.0
PAPER_Z_STOP = 30.0


def paper_pulse() -> bt.TrapezoidalPulse:
    return bt.TrapezoidalPulse(ramp=10000.0, plateau=4000.0, end=1.0)


def paper_btilde() -> bt.PiecewiseLinear:
    return bt.PiecewiseLinear([0.0, 0.4, 0.6, 1.0], [2.0, 5.0, 5.0, 2.0],
                              extend="clamp")


def paper_scenario(dx: float, dt=None, stop=PAPER_Z_STOP) -> bt.Scenario:
    grid = bt.GridSpec(dx=dx, X=PAPER_X,
                       horizon=bt.MaxCumulativeDistance(stop), dt=dt)
    return bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                       distances=bt.UniformDistances(paper_btilde()),
                       grid=grid)


def solve_fixed_step(solver: str, scen: bt.Scenario) -> bt.Trajectory:
    """``scen`` solved by one fixed-step solver: the integral scheme, the
    mobility service with a boarding delay, or a single commodity of the
    multi-commodity march with the scenario's speed law."""
    if solver == "integral":
        return bt.solve_integral(scen)
    if solver == "mobility_service":
        esr = bt.BoardingDelaySpeed(scen.fd, alpha=1e-3, lane_miles=scen.L)
        return bt.solve_mobility_service(scen, esr)
    return bt.solve_multi_commodity(
        scen.L, [bt.CommodityDemand(scen.influx, scen.distances, scen.ic)],
        [lambda lam, f, g: scen.fd.speed(lam[0] / scen.L)], scen.grid)[0]


@functools.lru_cache(maxsize=None)
def paper_char(dx: float) -> bt.Trajectory:
    return bt.solve_characteristic(paper_scenario(dx))


@functools.lru_cache(maxsize=None)
def paper_integral(dx: float) -> bt.Trajectory:
    return bt.solve_integral(paper_scenario(dx, dt=dx / 30.0))


def stationary_exponential_scenario(dx: float, f: float = 3000.0, B: float = 1.0,
                                    X: float = 14.0, T: float = 0.8,
                                    lam0: float = 100.0) -> bt.Scenario:
    grid = bt.GridSpec(dx=dx, X=X, horizon=bt.MaxTime(T), dt=dx / 30.0)
    ic = bt.ExponentialProfile(lam0, B) if lam0 > 0 else bt.EmptyNetwork()
    return bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(f),
                       distances=bt.ExponentialDistances(B), grid=grid, ic=ic)


@functools.lru_cache(maxsize=None)
def stationary_exponential_integral(dx: float) -> bt.Trajectory:
    return bt.solve_integral(stationary_exponential_scenario(dx))


def riemann_integral(fn, a: float, b: float, n: int = 200_000) -> float:
    """Brute-force trapezoid quadrature used as an independent oracle."""
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray([fn(x) for x in xs])
    return float(np.trapezoid(ys, xs))


def brute_force_capacity(fd, rho_max: float, n: int = 200_001):
    """Grid-scan flow maximum used as an oracle against capacity().

    Reports the smallest density within one part in 1e12 of the maximum so
    that flat capacity plateaus (where float noise scrambles argmax) resolve
    to their left edge.
    """
    rho = np.linspace(0.0, rho_max, n)
    q = fd.flow(rho)
    qmax = float(np.max(q))
    i = int(np.argmax(q >= qmax * (1.0 - 1e-12)))
    return qmax, float(rho[i])
