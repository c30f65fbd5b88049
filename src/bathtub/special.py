"""Exact and semi-analytic solvers for special trip-distance laws.

Three families admit reduced dynamics:

* time-independent negative-exponential distances, where the trip count
  obeys the scalar ODE  dlam/dt = f - lam V(lam/L) / B;
* deterministic (single-valued, time-varying) distances, where trips exit
  in an order set by the sign of dBtilde/dz + 1 and the count has closed
  forms on the cumulative-distance axis; and
* constant distances, solved on a z-grid by the recursion
  dtau_j = dz / V(lam_j / L), with the cumulative-flow frames N, T and X.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .demand import (DeterministicDistances, EmptyNetwork, ExponentialDistances,
                     ExponentialProfile, InfluxProfile, InitialCondition)
from .diagrams import FundamentalDiagram
from .errors import (ContractError, DomainError, count_at_least_one, finite_non_negative,
                     finite_positive)
from .piecewise import as_profile
from .solver import MaxTime, Termination, Trajectory, _check_horizon, _march_z

_BLOCK = 4096  # values per array call of _points


def _points(values_at, step: float, j0: int, name: str):
    """Yield ``values_at(j * step)`` for j = j0, j0 + 1, ..., as floats
    read one at a time from one array call per ``_BLOCK`` values.  Asking
    for a point whose j * step overflows raises :class:`DomainError`
    naming ``step`` as ``name``."""
    j = j0
    while True:
        with np.errstate(over="ignore"):
            x = np.arange(j, j + _BLOCK) * step
        x = x[x < np.inf]
        yield from memoryview(values_at(x))
        if x.size < _BLOCK:
            raise DomainError(f"{name} = {step!r} carries the grid past the "
                              "largest float")
        j += _BLOCK


# ---------------------------------------------------------------------------
# Vickrey's exponential model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VickreyConfig:
    """Scalar-ODE model inputs: exponential distances with constant mean B."""

    L: float
    fd: FundamentalDiagram
    B: float
    lambda0: float
    influx: InfluxProfile
    dt: float
    horizon: object
    v_min: float = 1e-9

    def __post_init__(self):
        finite_positive(L=self.L, B=self.B, dt=self.dt, v_min=self.v_min)
        finite_non_negative(lambda0=self.lambda0)
        _check_horizon(self.horizon)


def solve_vickrey(c: VickreyConfig) -> Trajectory:
    """Forward-Euler march of dlam/dt = f - lam V(lam/L) / B.

    The out-flux column holds lam*v/B; the cumulative out-flow follows from
    conservation of total trips.  Terminates at the horizon or at gridlock
    (v below ``v_min``); a dt that carries t or z past the largest float
    raises :class:`DomainError`.  The march reads the inflow rates at
    t_j = j*dt from :func:`_points` and hands over only lam, v and dt: the
    trajectory derives t = j dt, z = [0, cumsum(v[:-1] dt)], the entering
    masses f(t_j) dt and g = lam v / B on each read (see
    :class:`Trajectory`), so a run holds three doubles a step, lam, v and G.
    """
    dt, B, L, v_min, speed = c.dt, c.B, c.L, c.v_min, c.fd.speed
    lam = float(c.lambda0)
    z = 0.0
    lam_l, v_l = array("d", [lam]), array("d")
    f_next = _points(c.influx.rate_array, dt, 0, "dt").__next__
    termination = Termination.HORIZON
    j = 0
    T, Z = c.horizon.T - 1e-12, c.horizon.Z - 1e-12
    while True:
        v = speed(lam / L)
        v_l.append(v)
        if v < v_min:
            termination = Termination.GRIDLOCK
            break
        if j * dt >= T or z >= Z:
            if max(j * dt, z) == np.inf:
                raise DomainError(f"dt = {dt!r} carries t or z past the largest float")
            break
        lam = lam + dt * (f_next() - lam * v / B)
        if 0.0 > lam:  # max(lam, 0.0)
            lam = 0.0
        z = z + v * dt
        j += 1
        lam_l.append(lam)

    return Trajectory(scheme="vickrey", L=L, lam=np.asarray(lam_l), v=np.asarray(v_l),
                      step=dt, termination=termination, influx=c.influx,
                      distances=ExponentialDistances(B),
                      ic=ExponentialProfile(c.lambda0, B))


@dataclass
class EquivalenceResult:
    """Deviation of a generalized run from the exponential reduced model."""

    max_profile_deviation: float
    max_lambda_deviation: float
    max_outflux_deviation: float


def vickrey_equivalence_check(traj: Trajectory, B: float,
                              influx: Optional[InfluxProfile] = None,
                              fd: Optional[FundamentalDiagram] = None,
                              dt: Optional[float] = None,
                              profile_samples: int = 65) -> EquivalenceResult:
    """Measure how far a generalized run stays from exponential form.

    Returns the maximum over steps of |K(t,x)/lam(t) - exp(-x/B)| on the
    x-grid, skipping the steps whose lam is at most 1e-9 * max(1, max lam)
    (near-empty networks, where K/lam is noise), and, when ``influx`` and
    ``fd`` are supplied, the maximum |lam - lam_vickrey| against a matched
    scalar-ODE run interpolated onto the trajectory's times, and the
    maximum over steps of |g - v*lam/B|, the out-flux against Vickrey's
    form, over the maximum |g| (0.0 when g is 0 at every step).  ``B`` must
    be finite and positive.
    """
    finite_positive(B=B)
    if traj.x_grid is None:
        raise ContractError("profile comparison needs a trajectory with a grid")
    ref = np.exp(-traj.x_grid / B)
    dev = 0.0
    floor = 1e-9 * max(1.0, traj.lam.max())
    steps = traj.profile_steps(profile_samples, "profile_samples")
    for b, rows in traj.profile_blocks(steps):
        lam = traj.lam[b]
        live = lam > floor
        row_dev = np.max(np.abs(rows[live] / lam[live, None] - ref), axis=1)
        dev = max([dev, *row_dev.tolist()])

    lam_dev = float("nan")
    if influx is not None and fd is not None:
        t = traj.t
        if dt is not None:
            step = dt
        elif t.size > 1:
            step = max(float(np.min(np.diff(t))), 1e-6)
        else:
            step = 1e-3
        vc = VickreyConfig(L=traj.L, fd=fd, B=B, lambda0=float(traj.lam[0]),
                           influx=influx, dt=step,
                           horizon=MaxTime(float(t[-1]) + step))
        ref_run = solve_vickrey(vc)
        lam_ref = np.interp(t, ref_run.t, ref_run.lam)
        lam_dev = float(np.max(np.abs(traj.lam - lam_ref)))
    g = traj.g
    g_max = float(np.max(np.abs(g)))
    out_dev = 0.0
    if g_max > 0.0:
        out_dev = float(np.max(np.abs(g - traj.v * traj.lam / B))) / g_max
    return EquivalenceResult(max_profile_deviation=dev,
                             max_lambda_deviation=lam_dev,
                             max_outflux_deviation=out_dev)


# ---------------------------------------------------------------------------
# deterministic (single-valued) trip distances
# ---------------------------------------------------------------------------

class SortingRegime(Enum):
    """Exit-order regime from the sign of dBtilde/dz + 1."""

    EQUAL_MINUS_ONE = "all_enterers_exit_together"
    LIFO = "last_in_first_out"
    FIFO = "first_in_first_out"


@dataclass(frozen=True)
class DeterministicConfig:
    """Inputs for the deterministic-distance solvers on a z-grid.

    ``btilde`` is piecewise-linear in time by default; pass
    ``btilde_coordinate="z"`` to specify it directly against the cumulative
    travel distance (useful to realize exact sorting regimes).
    """

    L: float
    fd: FundamentalDiagram
    btilde: object
    influx: InfluxProfile
    dz: float
    horizon: object
    ic: InitialCondition = field(default_factory=EmptyNetwork)
    btilde_coordinate: str = "t"
    v_min: float = 1e-9

    def __post_init__(self):
        finite_positive(L=self.L, dz=self.dz, v_min=self.v_min)
        if self.btilde_coordinate not in ("t", "z"):
            raise DomainError("btilde_coordinate must be 't' or 'z'")
        pl = as_profile(self.btilde)
        if np.any(pl.y < 0):
            raise DomainError("btilde must be non-negative")
        object.__setattr__(self, "btilde", pl)
        _check_horizon(self.horizon)

    def btilde_at(self, t: float, z: float) -> float:
        return float(self.btilde(z if self.btilde_coordinate == "z" else t))


_UNIT = 1 << 1074  # 2**-1074 is the smallest subnormal: every float is a whole count of it


def _units(x: float) -> int:
    """``x`` (finite) as an exact whole number of 2**-1074."""
    n, d = x.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def solve_deterministic(c: DeterministicConfig) -> Trajectory:
    """March the deterministic-distance model on the z-grid.

    Entering mass during each z-cell is logged with its effective distance
    theta = z_entry + Btilde(entry); a trip is active at z exactly while its
    theta exceeds z, which realizes the FIFO / LIFO / simultaneous-exit
    solutions uniformly across regime changes.  Trips therefore leave in
    theta order: each entry with non-zero mass that is still active at the
    end of its own cell goes onto a heap keyed by theta, and a step pops
    the entries whose theta is at most z_end + 1e-12, so it costs
    O(log live) rather than a pass over the whole log.  The active mass is
    kept as one exact sum (an int in units of 2**-1074, the smallest
    subnormal) and read out correctly rounded, so lam is the initial-profile
    term plus ``math.fsum`` of the active masses.  A rounded running sum
    would not do: its add-and-subtract error drove lam below 0, and it need
    not return to 0 when the last trip leaves.  A non-finite entering mass
    raises :class:`DomainError`, as does a dz that carries z past the
    largest float.
    """
    from heapq import heappop, heappush  # on first use: other runs load nothing for it

    dz = c.dz
    F_l = array("d", [0.0])
    ic_next = _points(c.ic.profile_array, dz, 1, "dz").__next__  # K0 at z_end
    theta_l, mass_l = array("d"), array("d")
    live: List[Tuple[float, float]] = []  # (theta, mass) of the active entries
    units = 0  # their exact mass sum, in units of 2**-1074

    def step(j, tau, dtau):
        nonlocal units
        z = j * dz
        F_next = c.influx.cumulative(tau + dtau)
        theta = z + c.btilde_at(tau, z)
        mass = F_next - F_l[-1]
        if 0.0 > mass:  # max(mass, 0.0)
            mass = 0.0
        if not mass < np.inf:
            raise DomainError(f"the mass entering at z = {z!r} is {mass!r}; "
                              "the inflow's cumulative must stay finite")
        theta_l.append(theta)
        mass_l.append(mass)
        F_l.append(F_next)
        gone = (j + 1) * dz + 1e-12  # z_end + 1e-12: active while theta > gone
        if mass and theta > gone:
            heappush(live, (theta, mass))
            units += _units(mass)
        while live and live[0][0] <= gone:
            units -= _units(heappop(live)[1])
        return ic_next() + units / _UNIT

    t, lam, v, termination = _march_z(c.fd, c.L, dz, c.horizon, c.v_min,
                                      float(c.ic.lambda0), step)
    return Trajectory(scheme="deterministic", L=c.L, t=t, lam=lam, v=v, step=dz,
                      F=np.asarray(F_l), entry_mass=np.asarray(mass_l),
                      termination=termination, influx=c.influx, distances=None,
                      ic=c.ic, entry_theta=np.asarray(theta_l))


def classify_regime(c: DeterministicConfig, traj: Trajectory,
                    tie_tol: float = 1e-9) -> List[Tuple[float, float, SortingRegime]]:
    """Sorting regime per z-interval of a solved run.

    Computed from the sign of dBtilde/dz + 1 on each marching interval,
    with dBtilde/dz = (dBtilde/dt)/v when the profile is given in time.
    Adjacent intervals with the same regime are merged.
    """
    t, z = traj.t, traj.z
    out: List[Tuple[float, float, SortingRegime]] = []
    for i in range(z.size - 1):
        if c.btilde_coordinate == "z":
            dbdz = (c.btilde(z[i + 1]) - c.btilde(z[i])) / (z[i + 1] - z[i])
        else:
            dbdt = (c.btilde(t[i + 1]) - c.btilde(t[i])) / (t[i + 1] - t[i])
            dbdz = dbdt / traj.v[i]
        s = dbdz + 1.0
        if abs(s) < tie_tol:
            reg = SortingRegime.EQUAL_MINUS_ONE
        elif s < 0:
            reg = SortingRegime.LIFO
        else:
            reg = SortingRegime.FIFO
        if out and out[-1][2] is reg:
            out[-1] = (out[-1][0], float(z[i + 1]), reg)
        else:
            out.append((float(z[i]), float(z[i + 1]), reg))
    return out


def theta_inverse(traj: Trajectory, z_exit: float) -> float:
    """Entry z-coordinate whose effective distance equals ``z_exit``.

    Finds the first pair of consecutive logged entries whose theta values
    bracket ``z_exit`` and interpolates linearly between them; raises
    :class:`DomainError` if no pair does.
    """
    theta = traj.entry_theta
    if theta is None:
        raise ContractError("trajectory carries no effective-distance log")
    ez = traj.entry_z
    if theta.size < 2:
        raise DomainError("the trajectory logs fewer than 2 entries to invert")
    crossings = np.where((theta[:-1] - z_exit) * (theta[1:] - z_exit) <= 0)[0]
    if crossings.size == 0:
        raise DomainError(f"no entry has the effective distance z_exit = {z_exit!r}")
    i = int(crossings[0])
    a, b = float(ez[i]), float(ez[i + 1])
    fa, fb = float(theta[i] - z_exit), float(theta[i + 1] - z_exit)
    if fa == 0.0:
        return a
    return a + (b - a) * fa / (fa - fb)


# ---------------------------------------------------------------------------
# constant trip distances on a z-grid
# ---------------------------------------------------------------------------

@dataclass
class TripFrame:
    """Trip-level views of a constant-distance run.

    Wraps the (z, tau, F, G) series of a solved run with the shared distance
    ``Btilde`` and exposes the cumulative count passing a location, per-trip
    positions and passing times, and the travel time of the trip exiting at
    a given instant.  A ``t`` outside [0, tau[-1]] or a ``rank`` outside
    [0, F[-1]] (NaN included) raises :class:`DomainError`, as an ``x``
    outside [0, Btilde] does.
    """

    Btilde: float
    z: np.ndarray
    tau: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def _tau_of_z(self, zq):
        return np.interp(zq, self.z, self.tau)

    def _z_of_t(self, tq):
        if not -1e-12 <= tq <= self.tau[-1] + 1e-12:  # np.interp would clamp
            raise DomainError(f"t must lie in [0, {self.tau[-1]:g}] h, got {tq!r}")
        return np.interp(tq, self.tau, self.z)

    def exit_travel_time(self, t: float) -> float:
        """Travel time of the trip completing at ``t``: t - tau(z(t) - Btilde)."""
        zt = float(self._z_of_t(t))
        if zt < self.Btilde - 1e-12:
            raise DomainError("no trip has completed yet at this time")
        return t - float(self._tau_of_z(zt - self.Btilde))

    def entry_travel_time(self, t: float) -> float:
        """Travel time of the trip entering at ``t``: tau(z(t) + Btilde) - t."""
        zt = float(self._z_of_t(t)) + self.Btilde
        if zt > self.z[-1] + 1e-12:
            raise DomainError(f"the trip entering at t = {t!r} does not "
                              "complete within the horizon")
        return float(self._tau_of_z(zt)) - t

    def cumulative_passing(self, t: float, x: float) -> float:
        """Trips that have passed remaining-distance x by time t."""
        if not 0.0 <= x <= self.Btilde + 1e-12:
            raise DomainError("x must lie in [0, Btilde]")
        arg = x + float(self._z_of_t(t)) - self.Btilde
        if arg <= 0.0:
            return 0.0
        return float(np.interp(float(self._tau_of_z(arg)), self.tau, self.F))

    def entry_time(self, rank: float) -> float:
        """Entry time of trip ``rank`` (cumulative count), by inverting F."""
        if not 0 <= rank <= self.F[-1]:  # NaN fails too
            raise DomainError("rank outside the entered range")
        ff, ii = np.unique(self.F, return_index=True)
        return float(np.interp(rank, ff, self.tau[ii]))

    def position(self, t: float, rank: float) -> float:
        """Remaining distance of trip ``rank`` at time ``t`` (may be <0 or >B)."""
        z_entry = float(self._z_of_t(self.entry_time(rank)))
        return self.Btilde - (float(self._z_of_t(t)) - z_entry)

    def passing_time(self, rank: float, x: float) -> float:
        """Time at which trip ``rank`` reaches remaining distance ``x``."""
        if not 0.0 <= x <= self.Btilde + 1e-12:
            raise DomainError("x must lie in [0, Btilde]")
        z_entry = float(self._z_of_t(self.entry_time(rank)))
        target = z_entry + self.Btilde - x
        if target > self.z[-1] + 1e-12:
            raise DomainError("trip does not reach x within the horizon")
        return float(self._tau_of_z(target))

    def sample_ranks(self, n: int = 200) -> np.ndarray:
        count_at_least_one(n=n)
        top = float(self.F[-1])
        return np.linspace(0.0, top, n, endpoint=False) + top / (2.0 * n)


def solve_constant_distance(c: DeterministicConfig) -> Tuple[Trajectory, TripFrame]:
    """z-grid recursion for constant trip distance on an initially empty net.

    dtau_j = dz / V(lam_j / L);  F_{j+1} = F_j + dtau_j f_j;
    lam_{j+1} = F_{j+1} - F_{j+1-I}  (I = Btilde/dz cells, 0 before index I).
    Requires an empty initial network and a constant ``btilde`` that is an
    integer multiple of dz.
    """
    if c.ic.lambda0 != 0.0:
        raise ContractError("the constant-distance recursion starts from an "
                            "empty network; use the generalized solver for "
                            "non-empty initial conditions")
    B = float(c.btilde(0.0))
    if c.btilde.x.size > 1 and (np.max(c.btilde.y) != np.min(c.btilde.y)):
        raise ContractError("btilde must be constant for the constant-distance "
                            "solver")
    if not B > 0:
        raise DomainError("btilde must be positive")
    I = B / c.dz
    if abs(I - round(I)) > 1e-9 * max(1.0, I):
        raise DomainError("btilde must be an integer multiple of dz")
    I = int(round(I))

    dz = c.dz
    F_l, ent_m = array("d", [0.0]), array("d")
    F = 0.0  # F_{j+1}, kept here so a step reads back only F_{j+1-I}

    def step(j, tau, dtau):
        nonlocal F
        mass = c.influx.rate(tau) * dtau
        ent_m.append(mass)
        F += mass
        F_l.append(F)
        return F - (F_l[j + 1 - I] if j + 1 >= I else 0.0)

    t, lam, v, termination = _march_z(c.fd, c.L, dz, c.horizon, c.v_min, 0.0, step)
    traj = Trajectory(scheme="constant_distance", L=c.L, t=t, lam=lam, v=v, step=dz,
                      entry_mass=np.asarray(ent_m), termination=termination,
                      influx=c.influx, distances=DeterministicDistances(B), ic=c.ic)
    # the recursion's running sum is F bit for bit (np.cumsum adds in log
    # order), so the frame reads it rather than a second, derived copy
    frame = TripFrame(Btilde=B, z=traj.z, tau=traj.t, F=np.asarray(F_l), G=traj.G)
    return traj, frame


@dataclass
class DelayCheckResult:
    max_flow_residual: float
    max_distance_residual: float


def delay_formulation_check(traj: Trajectory, frame: TripFrame,
                            samples: int = 50) -> DelayCheckResult:
    """Residuals of the delay (cumulative-flow) formulation on a solved run.

    At sampled entry times t it checks F(t) = G(t + Y(t)) and that the
    distance covered over the trip duration Y(t) equals Btilde; only times
    whose trips complete within the horizon are sampled.  A ``frame`` whose
    z, tau, F and G are not ``traj``'s z, t, F and G, value for value,
    raises :class:`ContractError`.
    """
    count_at_least_one(samples=samples)
    own = (traj.z, traj.t, traj.F, traj.G)
    if not all(map(np.array_equal, (frame.z, frame.tau, frame.F, frame.G), own)):
        raise ContractError("frame must be built from traj's own z, t, F and G")
    B = frame.Btilde
    ok = frame.z + B <= frame.z[-1] + 1e-12
    if not np.any(ok):
        return DelayCheckResult(0.0, 0.0)
    t_max = float(frame.tau[np.where(ok)[0][-1]])
    ts = np.linspace(0.0, t_max, samples)
    r_flow = 0.0
    r_dist = 0.0
    for t in ts:
        try:
            Y = frame.entry_travel_time(float(t))
        except DomainError:
            continue
        zt = float(np.interp(t, frame.tau, frame.z))
        z_exit = float(np.interp(t + Y, frame.tau, frame.z))
        Ft = float(np.interp(t, frame.tau, frame.F))
        Gt = float(np.interp(t + Y, frame.tau, frame.G))
        r_flow = max(r_flow, abs(Ft - Gt))
        r_dist = max(r_dist, abs((z_exit - zt) - B))
    return DelayCheckResult(max_flow_residual=r_flow,
                            max_distance_residual=r_dist)
