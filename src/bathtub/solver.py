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

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
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
    Z = math.inf  # no distance limit; a class attribute, not a field

    def __post_init__(self):
        finite_positive(T=self.T)


@dataclass(frozen=True)
class MaxCumulativeDistance:
    """Stop when the cumulative travel distance z reaches Z miles."""
    Z: float
    T = math.inf  # no time limit; a class attribute, not a field

    def __post_init__(self):
        finite_positive(Z=self.Z)


def _check_horizon(horizon):
    """The one check that a config's ``horizon`` is a horizon type."""
    if not isinstance(horizon, (MaxTime, MaxCumulativeDistance)):
        raise DomainError("horizon must be MaxTime or MaxCumulativeDistance")


_MAX_CELLS = 2**20  # the most cells X/dx a grid may have


@dataclass(frozen=True)
class GridSpec:
    """Remaining-distance grid and stopping rule.

    ``X`` must be an integer multiple of ``dx``, at most ``_MAX_CELLS``
    (2^20) times it, so that one row of the grid takes at most 8 MB (the
    steps × cells work of a run is not bounded).  ``dt`` is only consumed
    by the fixed-step (integral) scheme.  A run ends in gridlock once the
    speed drops below ``v_min``, which must be positive: every step taken then
    advances z, which the integral scheme's live window relies on.  When
    ``strict_truncation`` is set, a run aborts if the mass of trips capped
    at X exceeds one millionth of the total entering trips.  ``cells``,
    X/dx, is computed once.
    """

    dx: float
    X: float
    horizon: object  # MaxTime | MaxCumulativeDistance
    dt: Optional[float] = None
    v_min: float = 1e-9
    strict_truncation: bool = False

    def __post_init__(self):
        finite_positive(dx=self.dx, X=self.X, v_min=self.v_min)
        if self.dt is not None:
            finite_positive(dt=self.dt)
        n = self.X / self.dx
        if n > _MAX_CELLS:
            raise DomainError(f"X/dx must be at most {_MAX_CELLS} cells, got "
                              f"{n:.6g} (dx = {self.dx!r}, X = {self.X!r})")
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise DomainError("X must be an integer multiple of dx")
        _check_horizon(self.horizon)

    @cached_property
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
    a distance law (their B~ may be given against z).  ``F`` is the running
    sum of ``entry_mass`` (``np.cumsum`` adds in log order) unless the
    solver supplies it, ``G`` is derived from the counts, and ``g`` from
    ``G`` unless the solver supplies it.  A trajectory holds data only, so
    it pickles.
    """

    scheme: str
    L: float
    t: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    f: np.ndarray
    entry_mass: np.ndarray
    termination: Termination
    distances: Optional[DistanceDistribution]
    ic: InitialCondition
    truncated_mass: float = 0.0
    x_grid: Optional[np.ndarray] = None
    entry_theta: Optional[np.ndarray] = None
    F: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    G: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.F is None:
            self.F = np.concatenate(([0.0], np.cumsum(self.entry_mass)))
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

    @property
    def metadata(self) -> dict:
        """dx and X read off ``x_grid``, ``{}`` for an ungridded run.  Like
        :attr:`K_history`, it goes once perfbench stops reading it (ROADMAP item 7)."""
        return {} if self.x_grid is None else {"dx": float(self.x_grid[1]),
                                               "X": float(self.x_grid[-1])}

    def profiles(self, steps, nodes: Optional[int] = None) -> np.ndarray:
        """Rows of K at ``steps`` on the first ``nodes`` grid nodes (all by
        default): a characteristic run replays its update over the log,
        every other gridded run is rebuilt in one batch by :func:`_rebuild`,
        the kernel :func:`reconstruct_K` uses too.  ``steps`` that do not
        index the steps raise :class:`DomainError`."""
        if self.x_grid is None:
            raise ContractError("this trajectory does not carry a distance grid")
        try:
            steps = np.arange(self.n_steps)[steps].reshape(-1)
        except IndexError:
            raise DomainError(f"steps must index the {self.n_steps} steps, "
                              f"got {steps!r}") from None
        if self.scheme == "characteristic":
            return _replay(self, steps, nodes)
        return _rebuild(self, self.t[steps], self.x_grid[:nodes].size)

    def profile(self, j: int, nodes: Optional[int] = None) -> np.ndarray:
        """K at step ``j`` on the first ``nodes`` grid nodes."""
        return self.profiles([j], nodes)[0]

    def profile_steps(self, limit: int, name: str = "limit") -> np.ndarray:
        """Every step of a characteristic run, else at most ``limit``
        evenly spaced steps (the first and the last among them).  A
        ``limit`` that is not an integer of at least 1 raises
        :class:`DomainError` naming it as ``name``, the caller's argument,
        for every scheme."""
        if not (isinstance(limit, (int, np.integer)) and limit >= 1):
            raise DomainError(f"{name} must be at least 1, an integer, got {limit!r}")
        if self.scheme == "characteristic":
            return np.arange(self.n_steps)
        return _even_steps(self.n_steps, limit)

    def state(self, j: int) -> BathtubState:
        return next(self.states([j]))

    def states(self, steps=None):
        """States at ``steps`` (all by default), profiles built in one batch."""
        steps = np.arange(self.n_steps) if steps is None else steps
        for j, K in zip(steps, self.profiles(steps)):
            yield BathtubState(t=float(self.t[j]), z=float(self.z[j]),
                               lam=float(self.lam[j]), v=float(self.v[j]),
                               x_grid=self.x_grid, K=K)

    def time_to_distance(self, Z):
        """Time at which z first reaches Z, by linear interpolation; an
        array of targets gives an array of times.  A non-finite or negative
        Z, or one that z never reaches, raises :class:`DomainError`."""
        ZZ = np.asarray(Z, dtype=float)
        if not np.all(np.isfinite(ZZ) & (ZZ >= 0)):
            raise DomainError(f"Z must be finite and non-negative, got {Z!r}")
        if np.any(ZZ > self.z[-1] + 1e-12):
            raise DomainError(f"z never reaches {Z} within the horizon")
        zz, idx = np.unique(self.z, return_index=True)
        out = np.interp(ZZ, zz, self.t[idx])
        return float(out) if ZZ.ndim == 0 else out


def _even_steps(n: int, limit: int) -> np.ndarray:
    """At most ``limit`` evenly spaced steps of ``n``, the first and the last."""
    return np.unique(np.linspace(0, n - 1, min(limit, n)).astype(int))


# ---------------------------------------------------------------------------
# capped grid-node evaluation
# ---------------------------------------------------------------------------

def _cell(y, dx: float):
    """The cell rule of every gridded kernel: k = floor(y/dx + 1e-9), as
    floats, so an offset a rounding error below a node is on it, and
    theta = max(y/dx - k, 0), for offsets ``y`` (an array)."""
    th = np.asarray(y / dx)  # a 0-d y divides to a scalar
    k = np.floor(th + 1e-9)
    th -= k
    np.maximum(th, 0.0, out=th)
    return k, th


def _aged_out(age, dx: float, cells: int):
    """Whether ``age``'s cell by :func:`_cell` is ``cells`` or more, i.e.
    it has aged X; a float age gives a bool, with no array built."""
    return age / dx + 1e-9 >= cells


_NODES = np.array([[0.0], [1.0]])  # a cell's lower and upper node


def _window_survival(dist: DistanceDistribution, keys, y, dx: float,
                     p: int, out: np.ndarray) -> np.ndarray:
    """Survival of a live window with entry keys ``keys`` at ages ``y``,
    interpolated between exact evaluations at the grid nodes, written into
    ``out`` (of the window's length); the node at X (= cells*dx) counts as
    0, which caps every trip's distance at X as the characteristic update
    does.  Live means each age lies in a cell k of :func:`_cell` with
    0 <= k <= cells - 1 and the ages do not increase along the window, so
    the entries of the last cell, which have no upper node, are a prefix,
    of length ``p``.  One call evaluates both nodes.
    """
    k, th = _cell(y, dx)
    s = dist.survival_from_key(keys, (k + _NODES) * dx)
    np.multiply(1.0 - th, s[0], out=out)
    out[p:] += th[p:] * s[1, p:]
    return out


def _profile_capped_lin(nodes: np.ndarray, y, dx: float) -> np.ndarray:
    """Initial-profile node values interpolated at offsets ``y``, 0 beyond X."""
    I = nodes.size - 1
    k, th = _cell(y, dx)
    k = k.astype(np.int64)
    inside = (k >= 0) & (y <= I * dx + 1e-9 * dx)
    pad = np.append(nodes, 0.0)  # the node past X reads 0
    vlo = pad[np.clip(k, 0, I)]
    vhi = pad[np.clip(k + 1, 0, I + 1)]
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
    reaches Z, and at a time stop once the next step would pass T; a j dz
    that overflows to inf raises :class:`DomainError` there.  One
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
    T, Z = horizon.T + 1e-12, horizon.Z - 1e-12
    termination = Termination.HORIZON
    while True:
        v = float(fd.speed(lam / L))
        v_list.append(v)
        if v < v_min:
            termination = Termination.GRIDLOCK
            break
        if j * dz >= Z:
            if j * dz == math.inf:
                raise DomainError(f"dz = {dz!r} carries z past the largest float")
            break
        dt = dz / v
        if t + dt > T:
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

    An input that makes K negative or NaN raises :class:`DataError`.
    """
    grid = s.grid
    x_nodes = grid.x_nodes()
    K = s.ic.profile_array(x_nodes).astype(float)
    ent_m: List[float] = []

    def lam_checked() -> float:
        if not K.min() >= 0:  # NaN fails too
            raise DataError("K went negative or NaN: check the influx rate, "
                            "the survival and the initial profile")
        return float(K[0])

    def step(j, t, dt):
        mass = s.influx.rate(t) * dt
        _advance(K, mass, t, s.distances, x_nodes)
        ent_m.append(mass)
        return lam_checked()

    t, z, lam, v, termination = _march_z(s.fd, s.L, grid.dx, grid.horizon,
                                         grid.v_min, lam_checked(), step)
    return _gridded("characteristic", s.L, s.influx, s.distances, s.ic, grid,
                    t, z, lam, v, np.asarray(ent_m), termination)


def _advance(K: np.ndarray, mass: float, t: float,
             distances: DistanceDistribution, x_nodes: np.ndarray):
    """One characteristic step of ``K``, in place and unchecked."""
    K[:-1] = K[1:] + mass * distances.survival_array(t, x_nodes[:-1])
    K[-1] = 0.0


def _replay(traj: Trajectory, steps: np.ndarray, nodes: Optional[int]) -> np.ndarray:
    """Rows of a characteristic run's K at ``steps`` (any order, repeats
    allowed) on the first ``nodes`` grid nodes: :func:`_advance` replayed
    from the initial profile over the log the march ran and checked."""
    x = traj.x_grid
    K = traj.ic.profile_array(x).astype(float)
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


# ---------------------------------------------------------------------------
# difference-integration scheme (shared marcher)
# ---------------------------------------------------------------------------

_CAP = 1024  # first capacity of the march's buffers
_TRUNCATION_TOLERANCE = 1e-6  # the share of all trips a strict run may cap at X


class _Commodity:
    """One commodity of the fixed-step march: its z, lambda and v series,
    its log of entering masses and their entry keys, the live window of
    that log, and the running total F of the log, which the out-flux g of
    a step needs.

    Step j logs the mass entering during it at the step start (t_j, z_j)
    with the distance law's ``entry_key(t_j)``, B~(t_j) for a law set by
    its mean distance: that mass's survival law is fixed once it has
    entered, so its key is evaluated once, not on every later step.  Then
    the step weights only the live window of the log.  An entry whose age
    z - z_i has reached X (:func:`_aged_out`) has capped survival exactly 0.
    Every step taken has v >= v_min > 0, so z never decreases: ages only
    grow, and since z_i is non-decreasing the dead entries form a prefix of
    the log that stays dead.  ``start`` skips that prefix, and ``last`` ends
    the next, the entries in the last cell; likewise the initial-profile
    term is 0 once z passes X, and from the start when every initial node
    is 0.  A mass of exactly 0 adds nothing, so a step evaluates the live
    entries only up to ``live_end``, one past the last logged mass that is
    not 0 (NaN is not, so it still propagates), into the window buffer
    ``surv``, and a window of zero masses only gives 0 with no call.  The
    dot product still runs over the whole live window, since BLAS groups
    its sum by the vector length: past the evaluated part the buffer holds
    zeros or survivals of earlier steps, finite values that each meet a
    zero mass, so their products are +0.0 and the sum keeps its bits.  The
    sum differs from one over the whole log only in summation order.  z,
    lambda and lambda(0) are also kept as floats.  The trajectory derives
    its F series and :func:`_gridded` its truncated mass from the log.
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
        self.z, self.lam, self.v = _Buf(), _Buf(), _Buf()
        self.mass, self.key = _Buf(), _Buf()
        self.z.push(0.0)
        self.lam.push(ic.lambda0)
        self.z_now, self.lam0, self.lam_now = 0.0, float(ic.lambda0), float(ic.lambda0)
        self.F = 0.0
        self.start = 0  # first live entry of the log
        self.last = 0  # first live entry not in the last cell
        self.live_end = 0  # one past the last entry whose mass is not 0
        self.surv = np.zeros(_CAP)  # survivals of the live window

    def step(self, t: float, dt: float, f: float, v: float) -> float:
        """Advance one step from time ``t``; returns its out-flux.  A speed
        that is not finite, or a step that moves z by more than one cell,
        raises."""
        dx, cells = self.grid.dx, self.grid.cells
        if not v * dt <= dx * (1.0 + 1e-9):  # NaN fails too
            if not math.isfinite(v):
                raise DomainError(f"the speed at t = {t:g} h is v = {v} mph, "
                                  "not a finite number: check the speed relation")
            raise DomainError(
                f"a step of dt = {dt:g} h at v = {v:g} mph moves z by more "
                f"than one cell dx = {dx:g} mi; use dt <= dx/v = {dx / v:g} h")
        ez, n = self.z.a, self.z.n
        z = self.z_now + v * dt
        mass = f * dt
        self.mass.push(mass)
        self.key.push(self.distances.entry_key(t))
        if mass != 0.0:
            self.live_end = n
        i = self.start
        while i < n and _aged_out(z - ez.item(i), dx, cells):
            i += 1
        p = self.last  # an entry aged X has aged into the last cell too
        while p < n and _aged_out(z - ez.item(p), dx, cells - 1):
            p += 1
        self.start, self.last = i, p
        e = self.live_end
        if e > i:
            if self.surv.size < n - i:
                self.surv = np.zeros(2 * (n - i))
            surv = self.surv[:n - i]
            _window_survival(self.distances, self.key.a[i:e], z - ez[i:e],
                             dx, min(p, e) - i, surv[:e - i])
            boundary = float(np.dot(self.mass.a[i:n], surv))
        else:
            boundary = 0.0
        if z > self.k0_reach:
            initial = 0.0
        else:
            initial = float(_profile_capped_lin(self.k0_nodes, z, dx))
        lam_new = initial + boundary
        lam0, F = self.lam0, self.F + f * dt
        g = ((lam0 + F - lam_new) - (lam0 + (F - f * dt) - self.lam_now)) / dt
        self.z.push(z)
        self.lam.push(lam_new)
        self.z_now, self.lam_now, self.F = z, lam_new, F
        return g

    def trajectory(self, scheme: str, L: float, t: np.ndarray,
                   termination: Termination) -> Trajectory:
        return _gridded(scheme, L, self.influx, self.distances, self.ic, self.grid,
                        t, self.z.view().copy(), self.lam.view().copy(),
                        self.v.view().copy(), self.mass.view().copy(), termination)


class _Buf:
    """Append-only float buffer backed by a doubling numpy array."""

    def __init__(self, cap: int = _CAP):
        self.a = np.empty(cap)
        self.n = 0

    def push(self, v: float):
        if self.n == self.a.size:
            self.a = np.concatenate([self.a, np.empty(self.a.size)])
        self.a[self.n] = v
        self.n += 1

    def view(self) -> np.ndarray:
        return self.a[:self.n]


def _march_integral(grid: GridSpec, coms: Sequence[_Commodity], speed_of: Callable):
    """Fixed-step marcher shared by the single-commodity, mobility-service
    and multi-commodity solvers; it reads the dt, horizon and v_min of the
    commodities' ``grid`` once.  ``speed_of(t, lam, f, g)`` returns the
    per-commodity speeds, a list of floats, from the joint state, given
    lists.  Returns the time series and the termination; each commodity
    keeps its own series.
    """
    g = [0.0] * len(coms)
    n = 0  # steps taken
    t = 0.0
    dt, v_min = grid.dt, grid.v_min
    T, Z = grid.horizon.T - 1e-12, grid.horizon.Z - 1e-12
    termination = Termination.HORIZON
    while True:
        f = [c.influx.rate(t) for c in coms]
        v = speed_of(t, [c.lam_now for c in coms], f, g)
        for c, vm in zip(coms, v):
            c.v.push(vm)
        if any(vm < v_min for vm in v):
            termination = Termination.GRIDLOCK
            break
        if t >= T or coms[0].z_now >= Z:
            break
        g = [c.step(t, dt, fm, vm) for c, fm, vm in zip(coms, f, v)]
        n += 1
        t = n * dt
    return np.arange(n + 1) * dt, termination


def _gridded(scheme: str, L: float, influx: InfluxProfile,
             distances: DistanceDistribution, ic: InitialCondition,
             grid: GridSpec, t, z, lam, v, ent_m, termination) -> Trajectory:
    """Trajectory of a run on ``grid`` that logged the masses ``ent_m`` at
    the step starts ``t[:-1]``.  The mass capped at X is tallied here, for
    every gridded scheme: the initial trips beyond X plus each logged mass
    times its law's tail beyond X, summed in log order.  Enforces
    ``grid.strict_truncation``."""
    # np.cumsum adds in log order, where np.dot and np.sum may reorder
    truncated = float(np.cumsum(np.concatenate((
        [float(ic.tail_beyond(grid.X))],
        ent_m * distances.tail_beyond(t[:-1], grid.X))))[-1])
    traj = Trajectory(scheme=scheme, L=L, t=t, z=z, lam=lam, v=v,
                      f=influx.rate_array(t), entry_mass=ent_m,
                      termination=termination, distances=distances, ic=ic,
                      truncated_mass=truncated, x_grid=grid.x_nodes())
    if grid.strict_truncation:
        total_in = lam[0] + traj.F[-1]
        if truncated > _TRUNCATION_TOLERANCE * max(total_in, 1.0):
            raise DataError(
                f"{truncated:.6g} trips were capped at the grid limit X, "
                f"more than the allowed fraction of the {total_in:.6g} total")
    return traj


def solve_integral(s: Scenario) -> Trajectory:
    """March (z, lambda) on a fixed time step via the integral form.

    Each step evaluates lambda as the surviving initial trips plus the sum of
    the logged entering masses weighted by their survival at the distance
    already traveled since entry.  Requires ``grid.dt``, short enough that
    no step moves z by more than one cell (v dt <= dx).

    Only the live window of the log is evaluated: a mass that has traveled
    X or more since entry has survival exactly 0, and because every step
    taken has v >= ``grid.v_min`` > 0, z never decreases, so such masses
    form a prefix of the log that stays dead and is skipped.  A mass of
    exactly 0 adds nothing, so a step evaluates the survival of the live
    entries only up to the last nonzero mass, and none at all while every
    live mass is 0 (as after a pulse has ended).  A step costs the number
    of live entries, not the length of the log.

    The mass entering during step j starts aging at the start of the step
    (``entry_z = z_j``), whereas ``solve_characteristic`` starts it at the
    step end.  The two first-order errors in z(t) therefore have opposite
    signs on congested runs: the schemes share their limit as the grid is
    refined, not their values on any one grid.
    """
    if s.grid.dt is None:
        raise DomainError("solve_integral requires grid.dt")
    com = _Commodity(s.influx, s.distances, s.ic, s.grid)
    speed_of = lambda t, lam, f, g: [float(s.fd.speed(lam[0] / s.L))]
    t, termination = _march_integral(s.grid, [com], speed_of)
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
        return [float(speed_relation.speed(rho, lam[0], f[0], max(g[0], 0.0)))]

    com = _Commodity(s.influx, s.distances, s.ic, s.grid)
    t, termination = _march_integral(s.grid, [com], speed_of)
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
        lam, f = np.array(lam), np.array(f)
        return [float(rel(lam, f, np.maximum(g, 0.0))) for rel in speed_relations]

    t, termination = _march_integral(grid, coms, speed_of)
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
    so one floor test per entry, the cell k of a + shift by :func:`_cell`,
    puts its pair with node n in cell n + k, at the same fraction theta of
    the cell for every n.  The entries logged before t that have not aged X
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
            k, th = _cell(z[r] - ez[lo[r]:hi[r]] + shift, dx)
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
    (:func:`_aged_out`) at the offset ``shift``.  ``ez`` does not decrease,
    so they are a prefix, found by bisection on all rows at once."""
    lo, up = np.zeros_like(hi), hi.copy()
    while True:
        open_ = lo < up
        if not open_.any():
            return lo
        mid = (lo + up) // 2
        dead = _aged_out(z - ez[np.minimum(mid, ez.size - 1)] + shift, dx, cells)
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
        # node n plus a shift, one _rebuild per distinct shift; from node
        # cells + 1 on, x + z passes X for every entry and K reads 0
        dx, cells = float(traj.x_grid[1]), traj.x_grid.size - 1
        n = _cell(xx, dx)[0]
        shift = xx - n * dx
        out = np.zeros(xx.shape)
        near = n <= cells
        for s in np.unique(shift[near]):
            sel = near & (shift == s)
            nn = n[sel].astype(np.intp)
            out[sel] = _rebuild(traj, np.array([float(t)]), int(nn.max()) + 1,
                                float(s))[0, nn]
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
                ages -= 1e-9 * traj.z[1]  # z[1] is dz
            surv = traj.distances.survival_array(traj.entry_t[sel], ages)
        out = out + surv @ traj.entry_mass[sel]
    return float(out) if scalar else out


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
