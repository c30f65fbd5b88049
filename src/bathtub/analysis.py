"""Stationary states, stability, gridlock prediction, travel times,
conservation audits and grid-convergence studies."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence

import numpy as np

from .demand import DistanceDistribution, ExponentialDistances
from .diagrams import FundamentalDiagram, flow_slope_sign
from .errors import (ContractError, DataError, DomainError, TripNotCompleted,
                     finite_non_negative, finite_positive)
from .solver import BathtubState, Trajectory


class StabilityClass(Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


class GridlockPrediction(Enum):
    WILL_GRIDLOCK = "WillGridlock"
    NOT_IMPLIED = "NotImplied"


@dataclass
class StationaryState:
    """A self-sustaining state: constant trip count, speed and profiles."""

    lam: float
    v: float
    f: float
    B: float
    Btilde: float
    stability: StabilityClass

    def survival(self, x):
        """Remaining-distance survival profile of the stationary state."""
        return np.exp(-np.asarray(x, dtype=float) / self.B)


@dataclass
class Infeasible:
    """No stationary state exists: trip-miles demand exceeds network supply."""

    demand: float
    supply: float


def stationary_state(fd: FundamentalDiagram, L: float, f: float,
                     dist: DistanceDistribution):
    """Stationary trip count for constant inflow and exponential distances.

    Solves B*f = L*Q(lam/L) for the smallest root by bisection on the rising
    branch of the flow law; returns :class:`Infeasible` when the trip-miles
    demand B*f exceeds the supply L*C.  Only time-independent exponential
    distributions admit this closed inversion; use
    :func:`stationary_demand_from_profile` to go from a profile to the
    demand that sustains it.
    """
    finite_positive(L=L)
    finite_non_negative(f=f)
    if not isinstance(dist, ExponentialDistances):
        raise ContractError("stationary_state inverts the exponential relation "
                            "B*f = L*Q; supply an ExponentialDistances instance")
    if dist.time_dependent:
        raise ContractError("the distance distribution must be time-independent")
    B = dist.B
    C, rho_star = fd.capacity()
    demand = B * f
    supply = L * C
    if demand > supply:
        return Infeasible(demand=demand, supply=supply)
    if f == 0.0:
        return StationaryState(lam=0.0, v=fd.speed(0.0), f=0.0, B=B, Btilde=B,
                               stability=stability_classify(fd, L, 0.0))
    target = demand / L  # required per-lane flow
    lo, hi = 0.0, rho_star
    qhi = fd.flow(hi)
    if target >= qhi:
        rho = rho_star
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fd.flow(mid) < target:
                lo = mid
            else:
                hi = mid
        rho = 0.5 * (lo + hi)
    lam = rho * L
    return StationaryState(lam=lam, v=fd.speed(rho), f=f, B=B, Btilde=B,
                           stability=stability_classify(fd, L, lam))


@dataclass
class ImpliedDemand:
    """Demand pattern sustaining a given stationary remaining-distance profile."""

    f: float
    Btilde: float
    x_grid: np.ndarray
    survival_tilde: np.ndarray


def stationary_demand_from_profile(fd: FundamentalDiagram, L: float, lam: float,
                                   x_grid, survival) -> ImpliedDemand:
    """Invert a stationary profile into the (f, entering-distance) demand.

    The stationary balance gives f = L Q(lam/L) phi(0) and an entering
    survival proportional to the remaining-distance density phi(x)/phi(0);
    the density is taken from one-sided differences of the profile.  An
    x-grid that is not finite and strictly increasing, or a survival that
    is not finite and non-increasing, raises :class:`DataError`.
    """
    finite_positive(L=L)
    finite_non_negative(lam=lam)
    x = np.asarray(x_grid, dtype=float)
    Phi = np.asarray(survival, dtype=float)
    if x.size != Phi.size or x.size < 2:
        raise DomainError("need matching x-grid and survival arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
        raise DataError("x_grid must be finite and strictly increasing")
    if not (np.all(np.isfinite(Phi)) and np.all(np.diff(Phi) <= 0)):
        raise DataError("survival must be finite and non-increasing")
    if abs(Phi[0] - 1.0) > 1e-9:
        raise DomainError("a survival profile must start at 1")
    phi = -np.gradient(Phi, x)
    phi0 = (Phi[0] - Phi[1]) / (x[1] - x[0])
    if phi0 <= 0:
        raise DomainError("profile density at zero must be positive")
    f = L * fd.flow(lam / L) * phi0
    tilde = np.clip(phi / phi0, 0.0, None)
    tilde[0] = 1.0
    return ImpliedDemand(f=f, Btilde=1.0 / phi0, x_grid=x, survival_tilde=tilde)


def stability_classify(fd: FundamentalDiagram, L: float,
                       lam0: float) -> StabilityClass:
    """Stability of the stationary state at trip count ``lam0``.

    Positive flow slope at the stationary density is stable, negative
    (hypercongestion) unstable, vanishing slope marginal.
    """
    finite_positive(L=L)
    finite_non_negative(lam0=lam0)
    sign = flow_slope_sign(fd, lam0 / L)
    if sign > 0:
        return StabilityClass.STABLE
    if sign < 0:
        return StabilityClass.UNSTABLE
    return StabilityClass.MARGINAL


def gridlock_predict(f: float, Btilde: float, L: float,
                     fd: FundamentalDiagram) -> GridlockPrediction:
    """Sufficient gridlock test for constant demand: f * Btilde > L * C.

    The condition is sufficient but not necessary, so the negative answer is
    reported as NOT_IMPLIED rather than as safety.  It is the condition for
    the continuous model: a fixed-step scheme counts each trip for up to one
    cell less than its distance, so :func:`solve_integral` on cell dx needs
    f * (Btilde - dx) > L * C to gridlock.
    """
    finite_positive(L=L)
    finite_non_negative(f=f, Btilde=Btilde)
    C, _ = fd.capacity()
    if f * Btilde > L * C:
        return GridlockPrediction.WILL_GRIDLOCK
    return GridlockPrediction.NOT_IMPLIED


def diversion_outflux(state: BathtubState, x0: float) -> float:
    """Trips that must be diverted to clear remaining distances below x0.

    Counts active trips with remaining distance < x0, i.e. lam - K(t, x0);
    positive even in gridlock whenever some trips are short.
    """
    if not x0 > 0:
        raise DomainError("x0 must be positive")
    K_x0 = float(np.interp(x0, state.x_grid, state.K, right=0.0))
    return float(state.lam - K_x0)


def trip_travel_time(traj: Trajectory, t_enter: float, x: float) -> float:
    """Travel time of a trip entering at ``t_enter`` with distance ``x``.

    Inverts the stored cumulative-distance series; raises
    :class:`TripNotCompleted` (carrying the remaining distance at the
    horizon) if the trip does not finish within the solved range.
    """
    if not x >= 0:
        raise DomainError("x must be non-negative")
    if not traj.t[0] <= t_enter <= traj.t[-1]:
        raise DomainError("t_enter outside the solved range")
    z_enter = float(np.interp(t_enter, traj.t, traj.z))
    target = z_enter + x
    if target > traj.z[-1] + 1e-12:
        raise TripNotCompleted(
            "trip does not complete within the horizon",
            remaining_distance=float(target - traj.z[-1]))
    return traj.time_to_distance(target) - t_enter


@dataclass
class TravelTimeEstimates:
    exact: float
    entry_speed: float
    exit_speed: float


def average_travel_time(traj: Trajectory, demand: DistanceDistribution,
                        t_enter: float) -> TravelTimeEstimates:
    """Average travel time of trips entering at ``t_enter`` plus two
    single-speed approximations.  A ``t_enter`` outside the solved range,
    or NaN, raises :class:`DomainError`.

    ``exact`` integrates survival / v(tau(x + z)) over the distance grid by
    the trapezoid rule (distances capped at the grid limit, consistent with
    the solvers); ``entry_speed`` divides the mean distance by the speed at
    entry; ``exit_speed`` by the speed when the average-distance trip exits.
    """
    if traj.x_grid is None:
        raise ContractError("average travel time needs a gridded trajectory")
    if not traj.t[0] <= t_enter <= traj.t[-1]:
        raise DomainError("t_enter outside the solved range")
    X = float(traj.x_grid[-1])
    Bt = float(demand.mean_distance_capped(t_enter, X))
    z_enter = float(np.interp(t_enter, traj.t, traj.z))
    if z_enter + X > traj.z[-1] + 1e-12:
        raise TripNotCompleted("the longest trip entering here does not "
                               "complete within the horizon",
                               remaining_distance=float(z_enter + X - traj.z[-1]))
    tau_exit = traj.time_to_distance(z_enter + traj.x_grid)
    v_along = np.interp(tau_exit, traj.t, traj.v)
    surv = demand.survival_array(np.asarray(t_enter, dtype=float), traj.x_grid)
    surv = np.where(traj.x_grid < X, surv, 0.0)
    exact = float(np.trapezoid(surv / v_along, traj.x_grid))
    v_entry = float(np.interp(t_enter, traj.t, traj.v))
    tau_B = traj.time_to_distance(z_enter + Bt)
    v_exit = float(np.interp(tau_B, traj.t, traj.v))
    return TravelTimeEstimates(exact=exact, entry_speed=Bt / v_entry,
                               exit_speed=Bt / v_exit)


# ---------------------------------------------------------------------------
# conservation audits
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    """Worst-step conservation residuals of a solved trajectory."""

    total_trip_residual: float
    trip_miles_residual: float
    truncation_mass: float
    monotonicity_violations: int
    t: np.ndarray
    total_trip_steps: np.ndarray
    trip_miles_steps: np.ndarray


def audit(traj: Trajectory, demand: Optional[DistanceDistribution] = None,
          max_profiles: int = 129, profiles=None) -> AuditReport:
    """Check conservation of total trips and of trip-miles at stored steps.

    The total-trip identity G = lam(0) + F - lam is checked relative to the
    scale lam(0) + F at every step.  Trip-miles conservation compares the
    initial plus entered trip-miles (means capped at the grid limit) against
    the processed plus remaining miles, with time integrals by the trapezoid
    rule on the stored series; profiles for the remaining miles are
    replayed at every step of a characteristic run and rebuilt on at most
    ``max_profiles`` steps of any other (:meth:`Trajectory.profile_steps`).
    Monotonicity violations count grid pairs with K increasing in x.

    ``demand`` defaults to the distribution stored with the trajectory.
    The initial trip-miles are read from the step-0 profile, which already
    embeds the initial condition.  The rows are read one block at a time
    from :meth:`Trajectory.profile_blocks`, or from ``profiles``, an
    iterable of ``(steps, rows)`` blocks of ascending steps, such as that
    method yields, whose steps must include the audit's, or
    :class:`DomainError` is raised.
    """
    F = traj.F  # derived on each read
    scale = np.maximum(traj.lam[0] + F, 1e-12)
    tt_steps = np.abs(traj.G - (traj.lam[0] + F - traj.lam)) / scale
    if demand is None:
        demand = traj.distances

    miles_steps = np.full(traj.t.size, np.nan)
    violations = 0
    mono_tol = 1e-9 * max(1.0, float(traj.lam.max(initial=0.0)))
    if traj.x_grid is not None:
        xg = traj.x_grid
        bmean = demand.mean_distance_capped(traj.t, float(xg[-1]))
        added = _cumtrapz(traj.f * bmean, traj.t)
        processed = _cumtrapz(traj.lam * traj.v, traj.t)
        steps = traj.profile_steps(max_profiles, "max_profiles")  # step 0 comes first
        if profiles is None:
            profiles = traj.profile_blocks(steps)
        remaining = np.empty(steps.size)
        done = 0  # audited steps whose rows were read
        for have, rows in profiles:
            have = np.asarray(have)
            end = int(np.searchsorted(steps, have[-1], "right")) if have.size else done
            idx = np.searchsorted(have, steps[done:end])
            if np.any(have[idx] != steps[done:end]):
                break  # an audited step before the block's last is missing
            remaining[done:end], found = _remaining_miles(rows, idx, xg, mono_tol)
            violations += found
            done = end
        if done < steps.size:
            raise DomainError("profiles must hold a row at each of the "
                              f"{steps.size} audited steps")
        miles_steps[steps] = np.abs(remaining[0] + added[steps] - processed[steps]
                                    - remaining)
    miles_max = float(np.nanmax(miles_steps)) if np.any(~np.isnan(miles_steps)) else 0.0
    return AuditReport(total_trip_residual=float(tt_steps.max()),
                       trip_miles_residual=miles_max,
                       truncation_mass=float(traj.truncated_mass),
                       monotonicity_violations=violations,
                       t=traj.t, total_trip_steps=tt_steps,
                       trip_miles_steps=miles_steps)


def _remaining_miles(rows: np.ndarray, idx: np.ndarray, x: np.ndarray,
                     tol: float):
    """The trapezoid integral over ``x`` of each row ``rows[idx]``, and the
    count of grid pairs over all of them where K rises by more than
    ``tol``.  The sums run along the gathered rows, each pairwise as for
    one row alone, so every integral has the bits of
    ``np.trapezoid(rows[i], x)``."""
    blk = rows[idx]
    return np.trapezoid(blk, x, axis=1), int(np.sum(np.diff(blk, axis=1) > tol))


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if y.size > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


# ---------------------------------------------------------------------------
# grid-convergence studies
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Observed-order estimate from a sequence of grid refinements."""

    dx: List[float]
    targets: List[float]
    diffs: List[float]
    ratios: List[float]
    orders: List[float]
    mean_order: Optional[float]
    exact_to_machine: bool


def convergence_study(solve: Callable[[float], Trajectory],
                      dx_list: Sequence[float],
                      target: Callable[[Trajectory], float]) -> ConvergenceReport:
    """Estimate the convergence order of a scalar target under refinement.

    ``solve(dx)`` produces a trajectory at grid spacing ``dx`` (each entry
    should halve the previous one); ``target`` extracts the scalar to
    compare.  Orders come from log2 ratios of successive differences; if the
    differences change sign the raw ratios are reported without an order
    claim, and an all-zero difference sequence sets ``exact_to_machine``.
    """
    if len(dx_list) < 3:
        raise DomainError("need at least three grid levels")
    targets = [float(target(solve(float(dx)))) for dx in dx_list]
    diffs = [targets[i] - targets[i + 1] for i in range(len(targets) - 1)]
    scale = max(1.0, max(abs(s) for s in targets))
    if all(abs(d) <= 1e-13 * scale for d in diffs):
        return ConvergenceReport(dx=list(map(float, dx_list)), targets=targets,
                                 diffs=diffs, ratios=[], orders=[],
                                 mean_order=None, exact_to_machine=True)
    ratios, orders = observed_orders(diffs)
    if any(np.isnan(orders)):
        orders = []
    mean_order = float(np.mean(orders)) if orders else None
    return ConvergenceReport(dx=list(map(float, dx_list)), targets=targets,
                             diffs=diffs, ratios=ratios, orders=orders,
                             mean_order=mean_order, exact_to_machine=False)


def observed_orders(diffs: Sequence[float]):
    """Ratios d_i / d_{i+1} of successive differences (inf when d_{i+1}
    is 0) and, per pair, the observed order log2 of the ratio, NaN unless
    the ratio is positive."""
    ratios: List[float] = []
    orders: List[float] = []
    for a, b in zip(diffs, diffs[1:]):
        r = a / b if b != 0.0 else float("inf")
        ratios.append(r)
        orders.append(float(np.log2(r)) if b != 0.0 and r > 0 else float("nan"))
    return ratios, orders


def time_to_distance_target(Z: float) -> Callable[[Trajectory], float]:
    """Target extractor: time for the cumulative travel distance to reach Z."""
    def extract(traj: Trajectory) -> float:
        return traj.time_to_distance(Z)
    return extract
