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
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, List, Optional, Sequence

import numpy as np

from .demand import DistanceDistribution, EmptyNetwork, InfluxProfile, InitialCondition
from .diagrams import FundamentalDiagram
from .errors import (ContractError, DataError, DomainError, UndefinedStatisticsError,
                     count_at_least_one, finite_positive)


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


def _cumulative_inflow(traj) -> np.ndarray:
    """``[0, cumsum(entry_mass)]``: ``np.cumsum`` adds in log order.  The
    log is read first, so a derived log's temporaries are gone before F
    is allocated."""
    mass = traj.entry_mass
    F = np.empty(mass.size + 1)
    F[0] = 0.0
    np.cumsum(mass, out=F[1:])
    return F


def _axis(n: int, step: float) -> np.ndarray:
    """``j * step`` for j = 0, ..., n - 1, built in place: the axis a run
    fixed, t_j = j dt on a fixed time step or z_j = j dz on the z-grid.  j
    is exact as a float, so each value has the bits of ``j * step``."""
    axis = np.arange(n, dtype=float)
    axis *= step
    return axis


def _distance(traj) -> np.ndarray:
    """z of a z-grid run, ``j * dz``; Vickrey's z, which no grid fixes, is
    ``[0, cumsum(v[:-1] dt)]``, its Euler steps summed in order."""
    if traj.scheme != "vickrey":
        return _axis(traj.lam.size, traj.step)
    z = np.empty(traj.v.size)
    z[0] = 0.0
    np.cumsum(traj.v[:-1] * traj.step, out=z[1:])
    return z


def _entering_mass(traj) -> np.ndarray:
    """``f(t_j) dt`` at each step start: Vickrey's log, read off its influx."""
    return traj.influx.rate_array(traj.entry_t) * traj.step


def _outflux(traj) -> np.ndarray:
    """Vickrey's lam v / B; for any other run dG/dt by forward differences,
    the last value repeated: the last step has no step after it, so its g
    is the one before, a step behind the state beside it, and a check that
    reads g at the end of a run drops the last value."""
    if traj.scheme == "vickrey":
        return traj.lam * traj.v / traj.distances.B
    t = traj.t
    g = np.zeros_like(t)
    if t.size > 1:
        g[:-1] = np.diff(traj.G) / np.diff(t)
        g[-1] = g[-2]
    return g


class _Supplied:
    """A series a solver may supply: stored when given, else derived by
    ``derive(traj)`` on each read and not kept.  As a dataclass field's
    default it reads None."""

    def __init__(self, derive: Callable):
        self.derive = derive

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, traj, owner=None):
        if traj is None:
            return None
        given = traj.__dict__[self.slot]
        return self.derive(traj) if given is None else given

    def __set__(self, traj, value):
        traj.__dict__[self.slot] = value


@dataclass
class Trajectory:
    """A solved run: aligned series, the entering-mass log, and the data
    that rebuilds K(t, x) from that log.

    Every solver logs one entering mass per step taken, at the step's start,
    so only ``entry_mass`` is logged: ``entry_t`` is ``t[:-1]``, and
    ``entry_z``, the cumulative distance from which each mass ages in the
    discrete dynamics, is the step end ``z[1:]`` in the characteristic
    scheme and the step start ``z[:-1]`` in every other, so that
    :func:`reconstruct_K` and :meth:`profile_blocks`, its batch form,
    reproduce the scheme's own K values (a characteristic run's blocks
    replay its update over the log, bit for bit).  ``influx``,
    ``distances`` and ``ic`` are the run's demand: its inflow rate, distance
    law and initial condition.  Deterministic runs log each entry's
    effective distance in ``entry_theta`` instead of a distance law (their
    B~ may be given against z).

    A trajectory stores only what its march produced: ``lam``, ``v``, the
    axis the scheme did not fix, the logs, and ``G = lam(0) + F - lam``.
    ``step`` is the step the scheme fixed: dt of a fixed-step run, whose
    ``t`` is ``j * dt``, and dz of a z-grid run, whose ``z`` is ``j * dz``.
    Vickrey's run keeps only ``lam`` and ``v``: its ``z`` is
    ``[0, cumsum(v[:-1] dt)]``, its ``entry_mass`` ``f(entry_t) dt`` and its
    ``g`` ``lam v / B``.  Each of ``t``, ``z``, ``entry_mass``, ``F`` and
    ``g`` is stored when the solver passes it and otherwise derived on each
    read, not cached, by the expression the march would have used, so its
    bits are the same; ``f`` is always ``influx.rate_array(t)``.  ``F`` is
    the running sum of ``entry_mass``, and any other ``g`` the forward
    difference of ``G``, whose last value repeats the one before, so a
    check of g at the end of a run drops the last value.  ``G`` stays
    stored although ``F`` and ``lam`` give it: it is the record the audit
    checks, and only a stored G notices a ``lam`` changed after the run
    (``TestAudit::test_perturbed_count_is_flagged``).  A read of a derived
    series costs O(steps), so a caller that needs one twice, or in a loop,
    binds it once.  A trajectory holds data only, so it pickles.
    """

    scheme: str
    L: float
    lam: np.ndarray
    v: np.ndarray
    termination: Termination
    influx: InfluxProfile
    distances: Optional[DistanceDistribution]
    ic: InitialCondition
    truncated_mass: float = 0.0
    x_grid: Optional[np.ndarray] = None
    entry_theta: Optional[np.ndarray] = None
    step: Optional[float] = None
    t: Optional[np.ndarray] = _Supplied(lambda traj: _axis(traj.lam.size, traj.step))
    z: Optional[np.ndarray] = _Supplied(_distance)
    entry_mass: Optional[np.ndarray] = _Supplied(_entering_mass)
    F: Optional[np.ndarray] = _Supplied(_cumulative_inflow)
    g: Optional[np.ndarray] = _Supplied(_outflux)
    G: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.step is None and any(self.__dict__[k] is None
                                     for k in ("_t", "_z", "_entry_mass")):
            raise ContractError("a trajectory without t, z or entry_mass needs "
                                "the step that derives it")
        self.G = np.add(self.lam[0], self.F)
        self.G -= self.lam

    @property
    def f(self) -> np.ndarray:
        return self.influx.rate_array(self.t)

    @property
    def n_steps(self) -> int:
        return self.lam.size

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

    def profile_blocks(self, steps, nodes: Optional[int] = None):
        """The rows of K at the distinct ``steps``, ascending, on the first
        ``nodes`` grid nodes (all by default), as ``(steps, rows)`` blocks
        of at most ``_CHUNK`` (16) rows, each built as it is read: a
        characteristic run replays its update over the log once, forward
        (:func:`_replay`), and every other gridded run rebuilds them with
        :func:`_rebuild_blocks`, the kernel :func:`reconstruct_K` uses too.
        ``steps`` that do not index the steps raise :class:`DomainError`
        at the call, not when the blocks are read."""
        if self.x_grid is None:
            raise ContractError("this trajectory does not carry a distance grid")
        try:
            steps = np.unique(np.arange(self.n_steps)[steps])
        except IndexError:
            raise DomainError(f"steps must index the {self.n_steps} steps, "
                              f"got {steps!r}") from None
        if self.scheme == "characteristic":
            blocks = [steps[a:a + _CHUNK] for a in range(0, steps.size, _CHUNK)]
            return _replay(self, blocks, nodes)
        rebuilt = _rebuild_blocks(self, self.t[steps], self.x_grid[:nodes].size)
        return ((steps[rows], block) for rows, block in rebuilt)

    def profiles(self, steps, nodes: Optional[int] = None) -> np.ndarray:
        """Rows of K at ``steps`` (any order, repeats allowed) on the first
        ``nodes`` grid nodes, collected from :meth:`profile_blocks`."""
        blocks = self.profile_blocks(steps, nodes)
        steps = np.arange(self.n_steps)[steps].reshape(-1)
        distinct, at = np.unique(steps, return_inverse=True)
        rows = np.empty((distinct.size, self.x_grid[:nodes].size))
        for b, block in blocks:
            rows[np.searchsorted(distinct, b)] = block
        return rows if np.array_equal(distinct, steps) else rows[at]

    def profile(self, j: int, nodes: Optional[int] = None) -> np.ndarray:
        """K at step ``j`` on the first ``nodes`` grid nodes."""
        return self.profiles([j], nodes)[0]

    def profile_steps(self, limit: int, name: str = "limit") -> np.ndarray:
        """Every step of a characteristic run, else at most ``limit``
        evenly spaced steps (the first and the last among them).  A
        ``limit`` that is not an integer of at least 1 raises
        :class:`DomainError` naming it as ``name``, the caller's argument,
        for every scheme."""
        count_at_least_one(**{name: limit})
        if self.scheme == "characteristic":
            return np.arange(self.n_steps)
        return _even_steps(self.n_steps, limit)

    def state(self, j: int) -> BathtubState:
        return next(self.states([j]))

    def states(self, steps=None):
        """States at the distinct ``steps`` (all by default), ascending,
        their profiles read from :meth:`profile_blocks`."""
        blocks = self.profile_blocks(slice(None) if steps is None else steps)
        t, z = self.t, self.z
        for b, rows in blocks:
            for j, K in zip(b.tolist(), rows):
                yield BathtubState(t=float(t[j]), z=float(z[j]),
                                   lam=float(self.lam[j]), v=float(self.v[j]),
                                   x_grid=self.x_grid, K=K)

    def time_to_distance(self, Z):
        """Time at which z first reaches Z, by linear interpolation; an
        array of targets gives an array of times.  A non-finite or negative
        Z, or one that z never reaches, raises :class:`DomainError`."""
        ZZ = np.asarray(Z, dtype=float)
        if not np.all(np.isfinite(ZZ) & (ZZ >= 0)):
            raise DomainError(f"Z must be finite and non-negative, got {Z!r}")
        z = self.z
        if np.any(ZZ > z[-1] + 1e-12):
            raise DomainError(f"z never reaches {Z} within the horizon")
        zz, idx = np.unique(z, return_index=True)
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
    ``t[:-1]``.  Returns the t, lambda and v series (v holds the speed
    at the final state too) and the termination.  No z is built: it is
    j dz, which the trajectory derives from its ``step``, dz.  The series
    grow as packed doubles (``array("d")``, 8 bytes a value where a list
    of floats takes 32) and are returned as zero-copy numpy views of them.
    """
    speed = fd.speed
    t_list = array("d", [0.0])
    lam_list = array("d", [lam0])
    v_list = array("d")
    t = 0.0
    lam = lam0
    j = 0
    T, Z = horizon.T + 1e-12, horizon.Z - 1e-12
    termination = Termination.HORIZON
    while True:
        v = speed(lam / L)
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
    return np.asarray(t_list), np.asarray(lam_list), np.asarray(v_list), termination


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
    ent_m = array("d")

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

    t, lam, v, termination = _march_z(s.fd, s.L, grid.dx, grid.horizon,
                                      grid.v_min, lam_checked(), step)
    return _gridded("characteristic", s.L, s, grid, np.asarray(ent_m), termination,
                    t=t, lam=lam, v=v, step=grid.dx)


def _advance(K: np.ndarray, mass: float, t: float,
             distances: DistanceDistribution, x_nodes: np.ndarray):
    """One characteristic step of ``K``, in place and unchecked."""
    K[:-1] = K[1:] + mass * distances.survival_array(t, x_nodes[:-1])
    K[-1] = 0.0


def _replay(traj: Trajectory, blocks: List[np.ndarray], nodes: Optional[int]):
    """Yield ``(steps, rows)`` for each block of ascending, distinct steps
    of a characteristic run, the rows of K at those steps on the first
    ``nodes`` grid nodes: :func:`_advance` replayed once, forward, from the
    initial profile over the log the march ran and checked."""
    x = traj.x_grid
    K = traj.ic.profile_array(x).astype(float)
    mass, et = traj.entry_mass.tolist(), traj.entry_t.tolist()
    j = 0  # steps replayed so far
    for steps in blocks:
        rows = np.empty((steps.size, x[:nodes].size))
        for r, s in enumerate(steps.tolist()):
            for m, t in zip(mass[j:s], et[j:s]):
                _advance(K, m, t, traj.distances, x)
            rows[r] = K[:nodes]
            j = s
        yield steps, rows


# ---------------------------------------------------------------------------
# difference-integration scheme (shared marcher)
# ---------------------------------------------------------------------------

_CAP = 1024  # first size of the survival window's buffer
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
    sum differs from one over the whole log only in summation order.  The
    series and logs are packed doubles (``array("d")``), read through
    :func:`_items` views, and handed to the trajectory without a copy.  The
    trajectory derives its F series and :func:`_gridded` its truncated mass
    from the log.
    """

    def __init__(self, demand, grid: GridSpec):
        self.demand, self.grid = demand, grid
        self.influx, self.distances = demand.influx, demand.distances
        ic = demand.ic
        self.k0_nodes = ic.profile_array(grid.x_nodes()).astype(float)
        # the negation of _profile_capped_lin's ``inside`` test: beyond this
        # offset every initial trip has left (at once, for an empty start)
        self.k0_reach = (grid.cells * grid.dx + 1e-9 * grid.dx
                         if self.k0_nodes.any() else -np.inf)
        self.z, self.lam, self.v = array("d", [0.0]), array("d", [ic.lambda0]), array("d")
        self.mass, self.key = array("d"), array("d")
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
        ez, n = self.z, len(self.z)
        z = ez[-1] + v * dt
        mass = f * dt
        self.mass.append(mass)
        self.key.append(self.distances.entry_key(t))
        if mass != 0.0:
            self.live_end = n
        i = self.start
        while i < n and _aged_out(z - ez[i], dx, cells):
            i += 1
        p = self.last  # an entry aged X has aged into the last cell too
        while p < n and _aged_out(z - ez[p], dx, cells - 1):
            p += 1
        self.start, self.last = i, p
        e = self.live_end
        if e > i:
            if self.surv.size < n - i:
                self.surv = np.zeros(2 * (n - i))
            surv = self.surv[:n - i]
            _window_survival(self.distances, _items(self.key, i, e), z - _items(ez, i, e),
                             dx, min(p, e) - i, surv[:e - i])
            boundary = float(np.dot(_items(self.mass, i, n), surv))
        else:
            boundary = 0.0
        if z > self.k0_reach:
            initial = 0.0
        else:
            initial = float(_profile_capped_lin(self.k0_nodes, z, dx))
        lam_new = initial + boundary
        lam0, F = self.lam[0], self.F + f * dt
        g = ((lam0 + F - lam_new) - (lam0 + (F - f * dt) - self.lam[-1])) / dt
        ez.append(z)
        self.lam.append(lam_new)
        self.F = F
        return g


def _items(log: array, i: int, j: int) -> np.ndarray:
    """Items ``i`` to ``j`` of a log, as a numpy view of it.  The log cannot
    grow while a view of it lives, so a step takes its views as temporaries
    that die before its next ``append``."""
    return np.frombuffer(log, float, j - i, 8 * i)


def _solve_fixed_step(scheme: str, L: float, demands: Sequence, grid: GridSpec,
                      speed_of: Callable) -> List[Trajectory]:
    """The fixed-step run of the integral, mobility-service and
    multi-commodity solvers, which differ only in ``speed_of``: one
    :class:`_Commodity` per demand (anything with ``influx``, ``distances``
    and ``ic``, such as a :class:`Scenario`), marched on the dt, horizon
    and v_min of ``grid``, read once.  ``speed_of(t, lam, f, g)`` returns
    the per-commodity speeds, a list of floats, from the joint state, given
    lists.  Returns one trajectory per demand, labelled ``scheme``.
    """
    if grid.dt is None:
        raise DomainError(f"solve_{scheme} requires grid.dt")
    coms = [_Commodity(d, grid) for d in demands]
    g = [0.0] * len(coms)
    n = 0  # steps taken
    t = 0.0
    dt, v_min = grid.dt, grid.v_min
    T, Z = grid.horizon.T - 1e-12, grid.horizon.Z - 1e-12
    termination = Termination.HORIZON
    while True:
        f = [c.influx.rate(t) for c in coms]
        v = speed_of(t, [c.lam[-1] for c in coms], f, g)
        for c, vm in zip(coms, v):
            c.v.append(vm)
        if any(vm < v_min for vm in v):
            termination = Termination.GRIDLOCK
            break
        if t >= T or coms[0].z[-1] >= Z:
            break
        g = [c.step(t, dt, fm, vm) for c, fm, vm in zip(coms, f, v)]
        n += 1
        t = n * dt
    return [_gridded(scheme, L, c.demand, grid, np.asarray(c.mass), termination,
                     z=np.asarray(c.z), lam=np.asarray(c.lam), v=np.asarray(c.v), step=dt)
            for c in coms]


def _gridded(scheme: str, L: float, demand, grid: GridSpec, ent_m, termination,
             **series) -> Trajectory:
    """Trajectory of a run of ``demand`` (its ``influx``, ``distances`` and
    ``ic``) on ``grid`` that logged the masses ``ent_m`` at its step
    starts, with the march's ``series`` (lam, v, the axis it did not fix
    and the step it fixed).  The mass capped at X is tallied here, for
    every gridded scheme: the initial trips beyond X plus each logged mass
    times its law's tail beyond X, summed in log order.  Enforces
    ``grid.strict_truncation``."""
    t = series.get("t")  # else a fixed-step run, whose entry times are j dt
    entry_t = _axis(ent_m.size, series["step"]) if t is None else t[:-1]
    # np.cumsum adds in log order, where np.dot and np.sum may reorder
    truncated = float(np.cumsum(np.concatenate((
        [demand.ic.profile(grid.X)],
        ent_m * demand.distances.tail_beyond(entry_t, grid.X))))[-1])
    del entry_t  # freed before the trajectory builds F and G
    traj = Trajectory(scheme=scheme, L=L, entry_mass=ent_m, termination=termination,
                      influx=demand.influx, distances=demand.distances, ic=demand.ic,
                      truncated_mass=truncated, x_grid=grid.x_nodes(), **series)
    if grid.strict_truncation:
        total_in = traj.lam[0] + traj.F[-1]
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

    The scheme counts each trip for up to one cell less than its distance,
    so f B~ > L C, the condition for the continuous model
    (:func:`gridlock_predict`), does not make a constant demand f gridlock
    here: on cell dx it needs f (B~ - dx) > L C.  A distance B~ on a grid
    node is counted exactly one cell short, so with f B~ > L C >= f (B~ - dx)
    a run can stay free of gridlock.
    """
    speed, L = s.fd.speed, s.L
    speed_of = lambda t, lam, f, g: [speed(lam[0] / L)]
    return _solve_fixed_step("integral", L, [s], s.grid, speed_of)[0]


def solve_mobility_service(s: Scenario, speed_relation,
                           vehicle_density=None) -> Trajectory:
    """Fixed-step march with speed from an extended relation.

    ``speed_relation`` exposes ``speed(rho, lam, f, g)``; ``vehicle_density``
    is an exogenous profile of per-lane vehicle density, a callable of t
    such as a :class:`PiecewiseLinear`; when omitted the trip density lam/L is fed
    back, which reduces to :func:`solve_integral` when the relation ignores
    (f, g).  The out-flux enters the speed evaluation lagged one step.
    """
    if vehicle_density is not None and not callable(vehicle_density):
        raise ContractError("vehicle_density must be a callable of t")

    def speed_of(t, lam, f, g):
        rho = lam[0] / s.L if vehicle_density is None else float(vehicle_density(t))
        if rho < 0:
            raise DomainError("vehicle density must be non-negative")
        return [float(speed_relation.speed(rho, lam[0], f[0], max(g[0], 0.0)))]

    return _solve_fixed_step("mobility_service", s.L, [s], s.grid, speed_of)[0]


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
    M = len(commodities)
    if M < 1:
        raise DomainError("at least one commodity is required")
    if len(speed_relations) != M:
        raise DomainError("one speed relation per commodity is required")
    if M > 1 and not isinstance(grid.horizon, MaxTime):
        raise ContractError("multi-commodity runs require a MaxTime horizon")

    def speed_of(t, lam, f, g):
        lam, f = np.array(lam), np.array(f)
        return [float(rel(lam, f, np.maximum(g, 0.0))) for rel in speed_relations]

    return _solve_fixed_step("multi_commodity", L, commodities, grid, speed_of)


# ---------------------------------------------------------------------------
# reconstruction and derived views
# ---------------------------------------------------------------------------

_CHUNK = 16  # rows per block of K; a rebuilt block shares one survival table


def _rebuild(traj: Trajectory, t: np.ndarray, nodes: int,
             shift: float = 0.0) -> np.ndarray:
    """The blocks of :func:`_rebuild_blocks` as one array, a row per t."""
    blocks = _rebuild_blocks(traj, t, nodes, shift)
    return np.concatenate([np.empty((0, nodes)), *(block for _, block in blocks)])


def _rebuild_blocks(traj: Trajectory, t: np.ndarray, nodes: int,
                    shift: float = 0.0):
    """Yield K of a gridded run at times ``t`` (one row each), ``_CHUNK``
    rows at a time, at offsets x = n dx + ``shift``, n = 0, ..., nodes - 1,
    each block as ``(rows, block)`` with ``rows`` the slice of ``t`` it
    holds.  The ring table below is freed once the blocks are exhausted.

    An entry of age a = z(t) - z_i meets the offsets at a + shift + n dx,
    so one floor test per entry, the cell k of a + shift by :func:`_cell`,
    puts its pair with node n in cell n + k, at the same fraction theta of
    the cell for every n.  The entries logged before t that have not aged X
    (k <= cells - 1) are the row's live window, found for all rows at once.
    One table of the node survivals S(t_i, c dx), c = 0, ..., cells - 1,
    with one zero column on the left (c = -1) and zeros from c = cells on,
    serves every chunk, so an entry's reads for n = 0, ..., nodes are one
    slice of its table row, G[i, n] = S_{n+k}, with no clip.  The table is
    a ring of as many rows as the widest chunk window: entry i lives in row
    i % cap, filled ``_CHUNK`` entries at a time when a chunk first needs
    it, so ascending times evaluate each entry's row once; a chunk whose
    window starts before the entries held refills.  The row
    is then two matrix-vector products,
    (m (1 - theta)) @ G[:, :-1] + (m theta) @ G[:, 1:].  Between the steps
    of a characteristic run the newest entries' ages can lie in (-dx, 0),
    so k = -1: their pairs with n = 0 read 0, the lower node from the left
    column, the upper one by leaving them out of that column's product.
    The initial-profile term is evaluated per chunk, and not at all for an
    empty start.
    """
    dx, cells = float(traj.x_grid[1]), traj.x_grid.size - 1  # x_grid[1] is dx
    et, ez, em = traj.entry_t, traj.entry_z, traj.entry_mass
    z = np.interp(t, traj.t, traj.z)
    hi = np.searchsorted(et, t - 1e-12)  # entries logged strictly before t
    lo = _dead_prefix(z, ez, hi, dx, cells, shift)
    k0 = traj.ic.profile_array(traj.x_grid).astype(float)
    offsets = np.arange(nodes) * dx + shift
    chunks = [range(a, min(a + _CHUNK, t.size)) for a in range(0, t.size, _CHUNK)]
    windows = [(lo[rows].min(), hi[rows].max()) for rows in chunks]
    cap = max([1] + [top - base for base, top in windows])
    table = np.zeros((cap, cells + nodes + 1))
    slices = np.lib.stride_tricks.sliding_window_view(table, nodes + 1, axis=1)
    held = filled = 0  # the ring holds entries held, ..., filled - 1
    for rows, (base, top) in zip(chunks, windows):
        if not held <= base <= filled:
            held = filled = base
        for i in range(filled, top, _CHUNK):
            e = np.arange(i, min(i + _CHUNK, top))
            table[e % cap, 1:cells + 1] = traj.distances.survival_array(
                et[e, None], np.arange(cells) * dx)
        filled = max(filled, top)
        held = max(held, filled - cap)
        if k0.any():
            out = _profile_capped_lin(k0, offsets + z[rows, None], dx)
        else:
            out = np.zeros((len(rows), nodes))
        for r in rows:
            k, th = _cell(z[r] - ez[lo[r]:hi[r]] + shift, dx)
            k = k.astype(np.intp)
            G = slices[np.arange(lo[r], hi[r]) % cap, k + 1]
            m = em[lo[r]:hi[r]]
            w_lo, w_hi = m * (1.0 - th), m * th
            row = w_lo @ G[:, :-1] + w_hi @ G[:, 1:]
            if k.size and k[-1] < 0:  # k does not increase along the window
                up = k >= 0
                row[0] = w_lo @ G[:, 0] + w_hi[up] @ G[up, 1]
            del G
            out[r - rows.start] += row
        yield slice(rows.start, rows.stop), out


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
    :meth:`Trajectory.profile_blocks`: each x is a grid node plus a sub-cell
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
    tt = traj.t
    if t < tt[0] - 1e-12 or t > tt[-1] + 1e-12:
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
    z = traj.z
    z_t = float(np.interp(t, tt, z))
    out = traj.ic.profile_array(xx + z_t)
    et = traj.entry_t
    sel = et < t - 1e-12
    if np.any(sel):
        if traj.entry_theta is not None:
            reach = (xx + z_t)[..., None] + 1e-12
            surv = np.where(traj.entry_theta[sel] > reach, 1.0, 0.0)
        else:
            ages = xx[..., None] + (z_t - traj.entry_z[sel])
            if traj.scheme == "constant_distance":  # the march counts whole cells
                ages -= 1e-9 * z[1]  # z[1] is dz
            surv = traj.distances.survival_array(et[sel], ages)
        out = out + surv @ traj.entry_mass[sel]
    return float(out) if scalar else out


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
