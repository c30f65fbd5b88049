"""Forward solvers for the reservoir model of network trip flows.

The master state is K(t, x), the number of active trips at time t whose
remaining distance is at least x.  Two equivalent first-order schemes are
provided:

* a characteristic scheme marching the K profile on a fixed x-grid with the
  adaptive time step dt_j = dx / v_j, so the cumulative travel distance z
  advances exactly one cell per step; and
* a difference-integration scheme marching (z, lambda) on a fixed time step,
  with lambda rebuilt each step from the initial profile and the logged
  entering masses.

Both schemes truncate trip distances at the grid limit X: a trip longer
than X behaves as if its distance were X, and the affected mass is reported
in ``Trajectory.truncated_mass``.  Survival functions and the initial
profile are evaluated, at off-grid arguments, by linear interpolation
between exact evaluations at the bracketing grid nodes, which keeps the two
schemes and :func:`reconstruct_K` mutually consistent at first order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Sequence

import numpy as np

from .demand import DistanceDistribution, EmptyNetwork, InfluxProfile, InitialCondition
from .diagrams import FundamentalDiagram
from .errors import (ContractError, DataError, DomainError, UndefinedStatisticsError,
                     finite_positive)


class Termination(Enum):
    HORIZON = "HorizonReached"
    GRIDLOCK = "Gridlock"


@dataclass(frozen=True)
class MaxTime:
    """Stop when the simulated clock reaches T hours."""
    T: float

    def __post_init__(self):
        finite_positive(T=self.T)


@dataclass(frozen=True)
class MaxCumulativeDistance:
    """Stop when the cumulative travel distance z reaches Z miles."""
    Z: float

    def __post_init__(self):
        finite_positive(Z=self.Z)


@dataclass(frozen=True)
class GridSpec:
    """Remaining-distance grid and stopping rule.

    ``X`` must be an integer multiple of ``dx``; ``dt`` is only consumed by
    the fixed-step (integral) scheme.  A run ends in gridlock once the speed
    drops below ``v_min``, which must be positive: every step taken then
    advances z, which the integral scheme's live window relies on.  When
    ``strict_truncation`` is set, a run aborts if the mass of trips capped
    at X exceeds ``truncation_tolerance`` times the total entering trips.
    """

    dx: float
    X: float
    horizon: object  # MaxTime | MaxCumulativeDistance
    dt: Optional[float] = None
    v_min: float = 1e-9
    strict_truncation: bool = False
    truncation_tolerance: float = 1e-6

    def __post_init__(self):
        finite_positive(dx=self.dx, X=self.X, v_min=self.v_min)
        if self.dt is not None:
            finite_positive(dt=self.dt)
        n = self.X / self.dx
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise DomainError("X must be an integer multiple of dx")
        if not isinstance(self.horizon, (MaxTime, MaxCumulativeDistance)):
            raise DomainError("horizon must be MaxTime or MaxCumulativeDistance")

    @property
    def cells(self) -> int:
        return int(round(self.X / self.dx))

    def x_nodes(self) -> np.ndarray:
        return np.arange(self.cells + 1) * self.dx


@dataclass(frozen=True)
class Scenario:
    """A complete solvable problem: supply, demand, initial state, grid."""

    L: float
    fd: FundamentalDiagram
    influx: InfluxProfile
    distances: DistanceDistribution
    grid: GridSpec
    ic: InitialCondition = field(default_factory=EmptyNetwork)

    def __post_init__(self):
        finite_positive(L=self.L)


@dataclass
class BathtubState:
    """One snapshot of the reservoir: counts over the remaining-distance grid."""

    t: float
    z: float
    lam: float
    v: float
    x_grid: np.ndarray
    K: np.ndarray


@dataclass
class RemainingStats:
    mean: float
    survival: np.ndarray
    density_at_zero: float


@dataclass
class Trajectory:
    """A solved run: aligned series, the entering-mass log, and the data
    that rebuilds K(t, x) from that log.

    Every solver logs one entering mass per step taken, at the step's start,
    so only ``entry_mass`` is stored: ``entry_t`` is ``t[:-1]``, and
    ``entry_z``, the cumulative distance from which each mass ages in the
    discrete dynamics, is the step end ``z[1:]`` in the characteristic
    scheme and the step start ``z[:-1]`` in every other, so that
    :func:`reconstruct_K` and :meth:`profiles`, its batch form, reproduce
    the scheme's own K values (a characteristic run's :meth:`profiles`
    replays its update over the log, bit for bit).  ``distances`` and
    ``ic`` are the run's distance law and initial condition.  Deterministic
    runs log each entry's effective distance in ``entry_theta`` instead of
    a distance law (their B~ may be given against z).  ``G`` is derived
    from the counts, and ``g`` from ``G`` unless the solver supplies it.  A
    trajectory holds data only, so it pickles.
    """

    scheme: str
    L: float
    t: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    f: np.ndarray
    F: np.ndarray
    entry_mass: np.ndarray
    termination: Termination
    distances: Optional[DistanceDistribution]
    ic: InitialCondition
    truncated_mass: float = 0.0
    x_grid: Optional[np.ndarray] = None
    entry_theta: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)
    G: np.ndarray = field(init=False)

    def __post_init__(self):
        self.G = self.lam[0] + self.F - self.lam
        if self.g is None:
            self.g = np.zeros_like(self.t)
            if self.t.size > 1:
                self.g[:-1] = np.diff(self.G) / np.diff(self.t)
                self.g[-1] = self.g[-2]

    @property
    def n_steps(self) -> int:
        return self.t.size

    @property
    def entry_t(self) -> np.ndarray:
        return self.t[:-1]

    @property
    def entry_z(self) -> np.ndarray:
        return self.z[1:] if self.scheme == "characteristic" else self.z[:-1]

    @property
    def series(self) -> dict:
        return {"t": self.t, "z": self.z, "lambda": self.lam, "v": self.v,
                "f": self.f, "F": self.F, "g": self.g, "G": self.G}

    @property
    def K_history(self) -> Optional[np.ndarray]:
        """Every row of K for a characteristic run, replayed; else None."""
        return self.profiles(slice(None)) if self.scheme == "characteristic" else None

    def profiles(self, steps, nodes: Optional[int] = None) -> np.ndarray:
        """Rows of K at ``steps`` on the first ``nodes`` grid nodes (all by
        default): a characteristic run replays its update over the log,
        every other gridded run is rebuilt in one batch by :func:`_rebuild`,
        the kernel :func:`reconstruct_K` uses too."""
        if self.x_grid is None:
            raise ContractError("this trajectory does not carry a distance grid")
        steps = np.arange(self.n_steps)[steps].reshape(-1)
        if self.scheme == "characteristic":
            return _replay(self, steps, nodes)
        return _rebuild(self, self.t[steps], self.x_grid[:nodes].size)

    def profile(self, j: int, nodes: Optional[int] = None) -> np.ndarray:
        """K at step ``j`` on the first ``nodes`` grid nodes."""
        return self.profiles([j], nodes)[0]

    def profile_steps(self, limit: int, name: str = "limit") -> np.ndarray:
        """Every step of a characteristic run, else at most ``limit``
        evenly spaced steps (the first and the last among them).  A
        ``limit`` below 1 raises :class:`DomainError` naming it as ``name``,
        the caller's argument, for every scheme."""
        if not limit >= 1:
            raise DomainError(f"{name} must be at least 1, got {limit!r}")
        if self.scheme == "characteristic":
            return np.arange(self.n_steps)
        return np.unique(np.linspace(0, self.n_steps - 1,
                                     min(limit, self.n_steps)).astype(int))

    def state(self, j: int) -> BathtubState:
        return next(self.states([j]))

    def states(self, steps=None):
        """States at ``steps`` (all by default), profiles built in one batch."""
        steps = np.arange(self.n_steps) if steps is None else steps
        for j, K in zip(steps, self.profiles(steps)):
            yield BathtubState(t=float(self.t[j]), z=float(self.z[j]),
                               lam=float(self.lam[j]), v=float(self.v[j]),
                               x_grid=self.x_grid, K=K)

    def time_to_distance(self, Z: float) -> float:
        """Time at which z first reaches Z, by linear interpolation."""
        if Z > self.z[-1] + 1e-12:
            raise DomainError(f"z never reaches {Z} within the horizon")
        zz, idx = np.unique(self.z, return_index=True)
        return float(np.interp(Z, zz, self.t[idx]))


# ---------------------------------------------------------------------------
# capped grid-node evaluation
# ---------------------------------------------------------------------------

def _window_survival(dist: DistanceDistribution, t, y, dx: float,
                     cells: int) -> np.ndarray:
    """Survival of a live window at ages ``y``, interpolated between exact
    evaluations at the grid nodes; the node at X (= cells*dx) counts as 0,
    which caps every trip's distance at X as the characteristic update
    does.  Live means each age lies in cell ``k = floor(y/dx + 1e-9)`` with
    0 <= k <= cells - 1 and the ages do not increase along the window, so
    the entries of the last cell, which have no upper node, are a prefix.
    """
    th = y / dx
    k = np.floor(th + 1e-9)
    th -= k
    np.maximum(th, 0.0, out=th)
    p = int(np.count_nonzero(k == cells - 1))
    surv = (1.0 - th) * dist.survival_array(t, k * dx)
    surv[p:] += th[p:] * dist.survival_array(t[p:], (k[p:] + 1.0) * dx)
    return surv


def _profile_capped_lin(nodes: np.ndarray, y_arr, dx: float) -> np.ndarray:
    """Initial-profile node values interpolated at offsets ``y``, 0 beyond X."""
    y = np.asarray(y_arr, dtype=float)
    I = nodes.size - 1
    k = np.floor(y / dx + 1e-9).astype(np.int64)
    th = np.clip(y / dx - k, 0.0, None)
    inside = (k >= 0) & (y <= I * dx + 1e-9 * dx)
    klo = np.clip(k, 0, I)
    khi = np.clip(k + 1, 0, I)
    vlo = nodes[klo]
    vhi = np.where(k + 1 <= I, nodes[khi], 0.0)
    return np.where(inside, (1.0 - th) * vlo + th * vhi, 0.0)


# ---------------------------------------------------------------------------
# march on the cumulative-distance axis (shared with bathtub.special)
# ---------------------------------------------------------------------------

def _march_z(fd: FundamentalDiagram, L: float, dz: float, horizon, v_min: float,
             lam0: float, step: Callable):
    """March shared by the solvers on the cumulative-distance axis.

    Step j starts at z = j dz with lambda_j, takes the speed
    v_j = V(lambda_j / L) and lasts dt_j = dz / v_j, so z advances exactly
    one cell.  ``step(j, t_j, dt_j)`` advances the solver's own state and
    logs the mass entering during the step; it returns lambda_{j+1}.  The
    run ends in gridlock once v_j < ``v_min``, at a z stop once j dz
    reaches Z, and at a time stop once the next step would pass T.  One
    entry is logged per step taken, at its start, so the entry times are
    ``t[:-1]``.  Returns the t, z, lambda and v series (v holds the speed
    at the final state too) and the termination.
    """
    t_list = [0.0]
    lam_list = [lam0]
    v_list: List[float] = []
    t = 0.0
    lam = lam0
    j = 0
    termination = Termination.HORIZON
    while True:
        v = float(fd.speed(lam / L))
        v_list.append(v)
        if v < v_min:
            termination = Termination.GRIDLOCK
            break
        if isinstance(horizon, MaxCumulativeDistance) and j * dz >= horizon.Z - 1e-12:
            break
        dt = dz / v
        if isinstance(horizon, MaxTime) and t + dt > horizon.T + 1e-12:
            break
        lam = step(j, t, dt)
        t += dt
        j += 1
        t_list.append(t)
        lam_list.append(lam)
    return (np.asarray(t_list), np.arange(len(t_list)) * dz, np.asarray(lam_list),
            np.asarray(v_list), termination)


# ---------------------------------------------------------------------------
# characteristic scheme
# ---------------------------------------------------------------------------

def solve_characteristic(s: Scenario) -> Trajectory:
    """March K on the x-grid along characteristics (z advances dx per step).

    Update: K_i^{j+1} = K_{i+1}^j + f(t_j) * S(t_j, i dx) * dt_j with
    dt_j = dx / v_j.  Terminates at the horizon, or with
    ``Termination.GRIDLOCK`` once v drops below ``grid.v_min``.

    The mass entering during step j starts aging at the end of the step
    (``entry_z = (j + 1) dx``), whereas ``solve_integral`` starts it at the
    step start.  The two first-order errors in z(t) therefore have opposite
    signs on congested runs: the schemes share their limit as the grid is
    refined, not their values on any one grid.
    """
    grid = s.grid
    x_nodes = grid.x_nodes()
    K = s.ic.profile_array(x_nodes).astype(float)
    _check_profile(K)
    ent_m: List[float] = []
    F_list = [0.0]
    truncated = float(s.ic.tail_beyond(grid.X))

    def step(j, t, dt):
        nonlocal truncated
        mass = s.influx.rate(t) * dt
        _advance(K, mass, t, s.distances, x_nodes)
        truncated += mass * float(s.distances.tail_beyond(t, grid.X))
        ent_m.append(mass)
        F_list.append(F_list[-1] + mass)
        return float(K[0])

    t, z, lam, v, termination = _march_z(s.fd, s.L, grid.dx, grid.horizon,
                                         grid.v_min, float(K[0]), step)
    return _gridded("characteristic", s.L, s.influx, s.distances, s.ic, grid,
                    t, z, lam, v, np.asarray(F_list), np.asarray(ent_m),
                    termination, truncated)


def _advance(K: np.ndarray, mass: float, t: float,
             distances: DistanceDistribution, x_nodes: np.ndarray):
    """One characteristic step of ``K``, in place."""
    K[:-1] = K[1:] + mass * distances.survival_array(t, x_nodes[:-1])
    K[-1] = 0.0
    _check_profile(K)


def _replay(traj: Trajectory, steps: np.ndarray, nodes: Optional[int]) -> np.ndarray:
    """Rows of a characteristic run's K at ``steps`` (any order, repeats
    allowed) on the first ``nodes`` grid nodes: :func:`_advance` replayed
    from the initial profile over the log, as the march ran it."""
    x = traj.x_grid
    K = traj.ic.profile_array(x).astype(float)
    _check_profile(K)
    mass, et = traj.entry_mass.tolist(), traj.entry_t.tolist()
    out = np.empty((steps.size, x[:nodes].size))
    j = 0  # steps replayed so far
    order = np.argsort(steps)
    for r, s in zip(order.tolist(), steps[order].tolist()):
        for m, t in zip(mass[j:s], et[j:s]):
            _advance(K, m, t, traj.distances, x)
        out[r] = K[:nodes]
        j = s
    return out


def _check_profile(K: np.ndarray):
    neg = K < 0
    if np.any(neg):
        if np.min(K) < -1e-12:
            raise DataError("count profile went negative beyond tolerance")
        K[neg] = 0.0


# ---------------------------------------------------------------------------
# difference-integration scheme (shared marcher)
# ---------------------------------------------------------------------------

class _Commodity:
    """One commodity of the fixed-step march: its z, lambda, F, v and
    entering-mass series, and the live window of its log.

    Step j logs the mass entering during it at the step start (t_j, z_j),
    then weights only the live window of the log.  An entry whose age
    z - z_i has reached X (``cells`` cells, by the floor test of
    :func:`_window_survival`) has capped survival exactly 0.  Every step
    taken has v >= v_min > 0, so z never decreases: ages only grow, and
    since z_i is non-decreasing the dead entries form a prefix of the log
    that stays dead.  ``start`` skips that prefix; likewise the
    initial-profile term is 0 once z passes X, and from the start when
    every initial node is 0.  The sum differs from one over the whole log
    only in summation order.  The truncated mass is tallied once, from the
    whole log, when the trajectory is built.
    """

    def __init__(self, influx, distances, ic, grid: GridSpec):
        self.influx = influx
        self.distances = distances
        self.ic = ic
        self.grid = grid
        self.k0_nodes = ic.profile_array(grid.x_nodes()).astype(float)
        # the negation of _profile_capped_lin's ``inside`` test: beyond this
        # offset every initial trip has left (at once, for an empty start)
        self.k0_reach = (grid.cells * grid.dx + 1e-9 * grid.dx
                         if self.k0_nodes.any() else -np.inf)
        self.z, self.lam, self.F, self.mass = _Buf(), _Buf(), _Buf(), _Buf()
        self.z.push(0.0)
        self.lam.push(ic.lambda0)
        self.F.push(0.0)
        self.v: List[float] = []
        self.start = 0  # first live entry of the log

    def step(self, t_log: np.ndarray, dt: float, f: float, v: float) -> float:
        """Advance one step from the last time in ``t_log``; returns its
        out-flux.  A step that moves z by more than one cell raises."""
        dx, cells = self.grid.dx, self.grid.cells
        if not v * dt <= dx * (1.0 + 1e-9):  # NaN fails too
            raise DomainError(
                f"a step of dt = {dt:g} h at v = {v:g} mph moves z by more "
                f"than one cell dx = {dx:g} mi; use dt <= dx/v = {dx / v:g} h")
        ez = self.z.view()
        z = ez[-1] + v * dt
        self.mass.push(f * dt)
        i = self.start
        while i < ez.size and (z - ez[i]) / dx + 1e-9 >= cells:
            i += 1
        self.start = i
        surv = _window_survival(self.distances, t_log[i:], z - ez[i:], dx, cells)
        boundary = float(np.dot(self.mass.view()[i:], surv))
        if z > self.k0_reach:
            initial = 0.0
        else:
            initial = float(_profile_capped_lin(self.k0_nodes, z, dx))
        lam_new = initial + boundary
        lam0, lam = self.lam.a[0], self.lam.view()[-1]
        F = self.F.view()[-1] + f * dt
        g = ((lam0 + F - lam_new) - (lam0 + (F - f * dt) - lam)) / dt
        self.z.push(z)
        self.lam.push(lam_new)
        self.F.push(F)
        return g

    def trajectory(self, scheme: str, L: float, t: np.ndarray,
                   termination: Termination) -> Trajectory:
        mass = self.mass.view().copy()
        tails = self.distances.tail_beyond(t[:mass.size], self.grid.X)
        truncated = float(self.ic.tail_beyond(self.grid.X))
        for m, tail in zip(mass.tolist(), tails.tolist()):  # np.dot may reorder
            truncated += m * tail
        return _gridded(scheme, L, self.influx, self.distances, self.ic, self.grid,
                        t, self.z.view().copy(), self.lam.view().copy(),
                        np.asarray(self.v), self.F.view().copy(), mass,
                        termination, truncated)


class _Buf:
    """Append-only float buffer backed by a doubling numpy array."""

    def __init__(self, cap: int = 1024):
        self.a = np.empty(cap)
        self.n = 0

    def push(self, v: float):
        if self.n == self.a.size:
            self.a = np.concatenate([self.a, np.empty(self.a.size)])
        self.a[self.n] = v
        self.n += 1

    def view(self) -> np.ndarray:
        return self.a[:self.n]


def _march_integral(dt: float, horizon, coms: Sequence[_Commodity],
                    speed_of: Callable, v_min: float):
    """Fixed-step marcher shared by the single-commodity, mobility-service
    and multi-commodity solvers.  ``speed_of(t, lam, f, g)`` returns the
    per-commodity speed vector from the joint state.  Returns the time
    series and the termination; each commodity keeps its own series.
    """
    t_buf = _Buf()
    t_buf.push(0.0)
    g = np.zeros(len(coms))
    t = 0.0
    termination = Termination.HORIZON
    while True:
        f = np.array([c.influx.rate(t) for c in coms])
        lam = np.array([c.lam.view()[-1] for c in coms])
        v = np.asarray(speed_of(t, lam, f, g), dtype=float)
        for c, vm in zip(coms, v):
            c.v.append(vm)
        if np.any(v < v_min):
            termination = Termination.GRIDLOCK
            break
        if isinstance(horizon, MaxTime) and t >= horizon.T - 1e-12:
            break
        if (isinstance(horizon, MaxCumulativeDistance)
                and coms[0].z.view()[-1] >= horizon.Z - 1e-12):
            break
        g = np.array([c.step(t_buf.view(), dt, fm, float(vm))
                      for c, fm, vm in zip(coms, f, v)])
        t = t_buf.n * dt  # the step count times dt
        t_buf.push(t)
    return t_buf.view().copy(), termination


def _gridded(scheme: str, L: float, influx: InfluxProfile,
             distances: DistanceDistribution, ic: InitialCondition,
             grid: GridSpec, t, z, lam, v, F, ent_m, termination,
             truncated) -> Trajectory:
    """Trajectory of a run on ``grid``; enforces ``grid.strict_truncation``."""
    if grid.strict_truncation:
        total_in = lam[0] + F[-1]
        if truncated > grid.truncation_tolerance * max(total_in, 1.0):
            raise DataError(
                f"{truncated:.6g} trips were capped at the grid limit X, "
                f"more than the allowed fraction of the {total_in:.6g} total")
    return Trajectory(scheme=scheme, L=L, t=t, z=z, lam=lam, v=v,
                      f=influx.rate_array(t), F=F, entry_mass=ent_m,
                      termination=termination, distances=distances, ic=ic,
                      truncated_mass=truncated, x_grid=grid.x_nodes(),
                      metadata={"dx": grid.dx, "X": grid.X,
                                "horizon": grid.horizon})


def solve_integral(s: Scenario) -> Trajectory:
    """March (z, lambda) on a fixed time step via the integral form.

    Each step evaluates lambda as the surviving initial trips plus the sum of
    the logged entering masses weighted by their survival at the distance
    already traveled since entry.  Requires ``grid.dt``, short enough that
    no step moves z by more than one cell (v dt <= dx).

    Only the live window of the log is evaluated: a mass that has traveled
    X or more since entry has survival exactly 0, and because every step
    taken has v >= ``grid.v_min`` > 0, z never decreases, so such masses
    form a prefix of the log that stays dead and is skipped.  A step costs
    the number of live entries, not the length of the log.

    The mass entering during step j starts aging at the start of the step
    (``entry_z = z_j``), whereas ``solve_characteristic`` starts it at the
    step end.  The two first-order errors in z(t) therefore have opposite
    signs on congested runs: the schemes share their limit as the grid is
    refined, not their values on any one grid.
    """
    if s.grid.dt is None:
        raise DomainError("solve_integral requires grid.dt")
    com = _Commodity(s.influx, s.distances, s.ic, s.grid)
    speed_of = lambda t, lam, f, g: np.array([s.fd.speed(lam[0] / s.L)])
    t, termination = _march_integral(s.grid.dt, s.grid.horizon, [com], speed_of,
                                     s.grid.v_min)
    return com.trajectory("integral", s.L, t, termination)


def solve_mobility_service(s: Scenario, speed_relation,
                           vehicle_density=None) -> Trajectory:
    """Fixed-step march with speed from an extended relation.

    ``speed_relation`` exposes ``speed(rho, lam, f, g)``; ``vehicle_density``
    is an exogenous profile of per-lane vehicle density, a callable of t
    such as a :class:`PiecewiseLinear`; when omitted the trip density lam/L is fed
    back, which reduces to :func:`solve_integral` when the relation ignores
    (f, g).  The out-flux enters the speed evaluation lagged one step.
    """
    if s.grid.dt is None:
        raise DomainError("solve_mobility_service requires grid.dt")
    if vehicle_density is not None and not callable(vehicle_density):
        raise ContractError("vehicle_density must be a callable of t")

    def speed_of(t, lam, f, g):
        rho = lam[0] / s.L if vehicle_density is None else float(vehicle_density(t))
        if rho < 0:
            raise DomainError("vehicle density must be non-negative")
        return np.array([speed_relation.speed(rho, lam[0], f[0], max(g[0], 0.0))])

    com = _Commodity(s.influx, s.distances, s.ic, s.grid)
    t, termination = _march_integral(s.grid.dt, s.grid.horizon, [com], speed_of,
                                     s.grid.v_min)
    return com.trajectory("mobility_service", s.L, t, termination)


@dataclass(frozen=True)
class CommodityDemand:
    influx: InfluxProfile
    distances: DistanceDistribution
    ic: InitialCondition = field(default_factory=EmptyNetwork)


def solve_multi_commodity(L: float, commodities: Sequence[CommodityDemand],
                          speed_relations: Sequence[Callable],
                          grid: GridSpec) -> List[Trajectory]:
    """Advance several trip commodities on a shared fixed time grid.

    ``speed_relations[m]`` is a callable ``rel(lam_vec, f_vec, g_vec)``
    giving commodity m's speed from the joint state (out-fluxes lagged one
    step).  With a single commodity whose relation depends only on its own
    density this reproduces :func:`solve_integral` exactly.
    """
    finite_positive(L=L)
    if grid.dt is None:
        raise DomainError("solve_multi_commodity requires grid.dt")
    M = len(commodities)
    if M < 1:
        raise DomainError("at least one commodity is required")
    if len(speed_relations) != M:
        raise DomainError("one speed relation per commodity is required")
    if M > 1 and not isinstance(grid.horizon, MaxTime):
        raise ContractError("multi-commodity runs require a MaxTime horizon")
    coms = [_Commodity(c.influx, c.distances, c.ic, grid) for c in commodities]

    def speed_of(t, lam, f, g):
        return np.array([rel(lam, f, np.maximum(g, 0.0)) for rel in speed_relations])

    t, termination = _march_integral(grid.dt, grid.horizon, coms, speed_of, grid.v_min)
    return [c.trajectory("multi_commodity", L, t, termination) for c in coms]


# ---------------------------------------------------------------------------
# reconstruction and derived views
# ---------------------------------------------------------------------------

_CHUNK = 16  # steps per rebuild chunk, which share one survival table


def _rebuild(traj: Trajectory, t: np.ndarray, nodes: int,
             shift: float = 0.0) -> np.ndarray:
    """K of a gridded run at times ``t`` (one row each) and offsets
    x = n dx + ``shift``, n = 0, ..., ``nodes`` - 1.

    An entry of age a = z(t) - z_i meets the offsets at a + shift + n dx,
    so one floor test per entry, k = floor((a + shift)/dx + 1e-9), puts its
    pair with node n in cell n + k, at the same fraction theta of the cell
    for every n.  The entries logged before t that have not aged X
    (k <= cells - 1) are the row's live window.  Each chunk of rows shares a
    table of the node survivals S(t_i, c dx), c = 0, ..., cells - 1, with
    one zero column on the left (c = -1) and zeros from c = cells on, so
    an entry's reads for n = 0, ..., nodes are one slice of its table row,
    G[i, n] = S_{n+k}, with no clip.  The row is then two matrix-vector
    products, (m (1 - theta)) @ G[:, :-1] + (m theta) @ G[:, 1:].  Between
    the steps of a characteristic run the newest entries' ages can lie in
    (-dx, 0), so k = -1: their pairs with n = 0 read 0, the lower node from
    the left column, the upper one by leaving them out of that column's
    product.  The initial-profile term is evaluated once for all rows, and
    not at all for an empty start.
    """
    dx, cells = float(traj.x_grid[1]), traj.x_grid.size - 1  # x_grid[1] is dx
    et, ez, em = traj.entry_t, traj.entry_z, traj.entry_mass
    z = np.interp(t, traj.t, traj.z)
    hi = np.searchsorted(et, t - 1e-12)  # entries logged strictly before t
    lo = _dead_prefix(z, ez, hi, dx, cells, shift)
    k0 = traj.ic.profile_array(traj.x_grid).astype(float)
    if k0.any():
        out = _profile_capped_lin(k0, np.arange(nodes) * dx + shift + z[:, None], dx)
    else:
        out = np.zeros((t.size, nodes))
    for a in range(0, t.size, _CHUNK):
        rows = range(a, min(a + _CHUNK, t.size))
        base, top = lo[rows].min(), hi[rows].max()
        table = np.zeros((top - base, cells + nodes + 1))
        table[:, 1:cells + 1] = traj.distances.survival_array(
            et[base:top, None], np.arange(cells) * dx)
        slices = np.lib.stride_tricks.sliding_window_view(table, nodes + 1, axis=1)
        for r in rows:
            y = (z[r] - ez[lo[r]:hi[r]] + shift) / dx
            k = np.floor(y + 1e-9)
            th = np.maximum(y - k, 0.0)
            k = k.astype(np.intp)
            G = slices[np.arange(lo[r] - base, hi[r] - base), k + 1]
            m = em[lo[r]:hi[r]]
            w_lo, w_hi = m * (1.0 - th), m * th
            row = w_lo @ G[:, :-1] + w_hi @ G[:, 1:]
            if k.size and k[-1] < 0:  # k does not increase along the window
                up = k >= 0
                row[0] = w_lo @ G[:, 0] + w_hi[up] @ G[up, 1]
            out[r] += row
    return out


def _dead_prefix(z: np.ndarray, ez: np.ndarray, hi: np.ndarray, dx: float,
                 cells: int, shift: float) -> np.ndarray:
    """Per row, how many of the entries before ``hi`` have aged X or more
    by :func:`_rebuild`'s floor test.  ``ez`` does not decrease, so they
    are a prefix, found by bisection on all rows at once."""
    lo, up = np.zeros_like(hi), hi.copy()
    while True:
        open_ = lo < up
        if not open_.any():
            return lo
        mid = (lo + up) // 2
        dead = (z - ez[np.minimum(mid, ez.size - 1)] + shift) / dx + 1e-9 >= cells
        lo = np.where(open_ & dead, mid + 1, lo)
        up = np.where(open_ & ~dead, mid, up)


def reconstruct_K(traj: Trajectory, t: float, x) -> float:
    """K(t, x) rebuilt from the initial profile and the entering-mass log.

    ``t`` between stored steps interpolates z linearly; a non-finite ``t``
    or ``x`` raises :class:`DomainError`.  Gridded runs use the kernel of
    :meth:`Trajectory.profiles`: each x is a grid node plus a sub-cell
    shift added to every entry's age, each entry takes the march's floor
    test once per distinct shift, and the entries logged after t or aged X
    or more are skipped.  A deterministic entry counts while its effective
    distance exceeds z + x + 1e-12, the march's own test, and a
    constant-distance entry while its age is at most B~ give or take 1e-9
    cells, since that march counts whole cells.  Vickrey runs age each
    logged mass by exp(-age/B), which differs from the Euler count by
    O(dt): 2.12 trips at a peak of 287 on the paper pulse, dt = 1e-3, B = 2.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xx = np.asarray(x, dtype=float)
    if not (np.isfinite(t) and np.all(np.isfinite(xx))):
        raise DomainError("t and x must be finite")
    if t < traj.t[0] - 1e-12 or t > traj.t[-1] + 1e-12:
        raise DomainError("t outside the solved range")
    if np.any(xx < 0):
        raise DomainError("x must be non-negative")
    if traj.x_grid is not None:
        out = _reconstruct_gridded(traj, float(t), xx.reshape(-1)).reshape(xx.shape)
        return float(out) if scalar else out
    z_t = float(np.interp(t, traj.t, traj.z))
    out = traj.ic.profile_array(xx + z_t)
    sel = traj.entry_t < t - 1e-12
    if np.any(sel):
        if traj.entry_theta is not None:
            reach = (xx + z_t)[..., None] + 1e-12
            surv = np.where(traj.entry_theta[sel] > reach, 1.0, 0.0)
        else:
            ages = xx[..., None] + (z_t - traj.entry_z[sel])
            if traj.scheme == "constant_distance":  # the march counts whole cells
                ages -= 1e-9 * traj.metadata["dz"]
            surv = traj.distances.survival_array(traj.entry_t[sel], ages)
        out = out + surv @ traj.entry_mass[sel]
    return float(out) if scalar else out


def _reconstruct_gridded(traj: Trajectory, t: float, x: np.ndarray) -> np.ndarray:
    """K at time ``t`` and offsets ``x`` of a gridded run: each x is node
    n = floor(x/dx + 1e-9) plus a shift x - n dx, and :func:`_rebuild` runs
    once per distinct shift (on-grid x have shift 0).  From node cells + 1
    on every pair's cell is at least cells and x + z passes X, so K reads 0.
    """
    dx, cells = float(traj.x_grid[1]), traj.x_grid.size - 1
    n = np.floor(x / dx + 1e-9)
    shift = x - n * dx
    out = np.zeros(x.size)
    near = n <= cells
    for s in np.unique(shift[near]):
        sel = near & (shift == s)
        nn = n[sel].astype(np.intp)
        out[sel] = _rebuild(traj, np.array([t]), int(nn.max()) + 1, float(s))[0, nn]
    return out


def reconstruct_profile(traj: Trajectory, t: float) -> np.ndarray:
    """K(t, x) over the trajectory's x-grid."""
    if traj.x_grid is None:
        raise ContractError("trajectory does not carry a distance grid")
    return np.asarray(reconstruct_K(traj, t, traj.x_grid), dtype=float)


def outflux_series(traj: Trajectory) -> np.ndarray:
    """Completion rate g(t) from differences of the conserved cumulative G."""
    return traj.g.copy()


def outflux_from_profile(traj: Trajectory, max_points: int = 2048) -> np.ndarray:
    """Diagnostic out-flux estimator k(t,0+) * v from the K profile.

    A characteristic run gives every step; any other gridded run is
    rebuilt on at most ``max_points`` evenly spaced steps (NaN elsewhere).
    """
    if traj.x_grid is None:
        raise ContractError("trajectory does not carry a distance grid")
    dx = float(traj.x_grid[1] - traj.x_grid[0])
    out = np.full(traj.n_steps, np.nan)
    steps = traj.profile_steps(max_points, "max_points")
    K = traj.profiles(steps, 2)
    out[steps] = (K[:, 0] - K[:, 1]) / dx * traj.v[steps]
    return out


def remaining_distance_stats(state: BathtubState) -> RemainingStats:
    """Mean remaining distance, survival profile and density at zero.

    Undefined on an empty network (lam = 0).
    """
    if state.lam <= 0:
        raise UndefinedStatisticsError("no active trips: remaining-distance "
                                       "statistics are undefined")
    Phi = state.K / state.lam
    dx = float(state.x_grid[1] - state.x_grid[0])
    mean = float(np.trapezoid(Phi, state.x_grid))
    phi0 = float((state.K[0] - state.K[1]) / (state.lam * dx))
    return RemainingStats(mean=mean, survival=Phi, density_at_zero=phi0)
