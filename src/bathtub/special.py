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

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .demand import (DeterministicDistances, EmptyNetwork, ExponentialDistances,
                     ExponentialProfile, InfluxProfile, InitialCondition)
from .diagrams import FundamentalDiagram
from .errors import ContractError, DomainError, finite_non_negative, finite_positive
from .piecewise import as_profile
from .solver import MaxTime, Termination, Trajectory, _Buf, _check_horizon, _march_z

_BLOCK = 4096  # values per array call of _points


def _points(values_at, step: float, j0: int, name: str):
    """Yield ``values_at(j * step)`` for j = j0, j0 + 1, ..., as floats,
    from one array call per ``_BLOCK`` values.  Asking for a point whose
    j * step overflows raises :class:`DomainError` naming ``step`` as
    ``name``."""
    j = j0
    while True:
        with np.errstate(over="ignore"):
            x = np.arange(j, j + _BLOCK) * step
        x = x[x < np.inf]
        yield from values_at(x).tolist()
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
    t_j = j*dt from :func:`_points`, and every series but lam and v is
    built once after it.
    """
    dt, B, L, v_min, speed = c.dt, c.B, c.L, c.v_min, c.fd.speed
    lam = float(c.lambda0)
    z = 0.0
    lam_l, v_l = [lam], []
    f_next = _points(c.influx.rate_array, dt, 0, "dt").__next__
    termination = Termination.HORIZON
    j = 0
    T, Z = c.horizon.T - 1e-12, c.horizon.Z - 1e-12
    while True:
        v = float(speed(lam / L))
        v_l.append(v)
        if v < v_min:
            termination = Termination.GRIDLOCK
            break
        if j * dt >= T or z >= Z:
            if max(j * dt, z) == np.inf:
                raise DomainError(f"dt = {dt!r} carries t or z past the largest float")
            break
        lam = lam + dt * (f_next() - lam * v / B)
        lam = max(lam, 0.0)
        z = z + v * dt
        j += 1
        lam_l.append(lam)

    t = np.arange(j + 1) * dt
    lam_a, v_a = np.asarray(lam_l), np.asarray(v_l)
    f = c.influx.rate_array(t)
    # the Vickrey out-flux lam*v/B replaces the conservation-difference column
    return Trajectory(scheme="vickrey", L=L, t=t,
                      z=np.concatenate(([0.0], np.cumsum(v_a[:j] * dt))),
                      lam=lam_a, v=v_a, f=f, entry_mass=f[:j] * dt,
                      termination=termination, distances=ExponentialDistances(B),
                      ic=ExponentialProfile(c.lambda0, B), g=lam_a * v_a / B)


@dataclass
class EquivalenceResult:
    """Deviation of a generalized run from the exponential reduced model."""

    max_profile_deviation: float
    max_lambda_deviation: float


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
    scalar-ODE run interpolated onto the trajectory's times.
    """
    if traj.x_grid is None:
        raise ContractError("profile comparison needs a trajectory with a grid")
    ref = np.exp(-traj.x_grid / B)
    dev = 0.0
    steps = traj.profile_steps(profile_samples, "profile_samples")
    for j, row in zip(steps, traj.profiles(steps)):
        lam = traj.lam[j]
        if lam <= 1e-9 * max(1.0, traj.lam.max()):
            continue
        dev = max(dev, float(np.max(np.abs(row / lam - ref))))

    lam_dev = float("nan")
    if influx is not None and fd is not None:
        if dt is not None:
            step = dt
        elif traj.t.size > 1:
            step = max(float(np.min(np.diff(traj.t))), 1e-6)
        else:
            step = 1e-3
        vc = VickreyConfig(L=traj.L, fd=fd, B=B, lambda0=float(traj.lam[0]),
                           influx=influx, dt=step,
                           horizon=MaxTime(float(traj.t[-1]) + step))
        ref_run = solve_vickrey(vc)
        lam_ref = np.interp(traj.t, ref_run.t, ref_run.lam)
        lam_dev = float(np.max(np.abs(traj.lam - lam_ref)))
    return EquivalenceResult(max_profile_deviation=dev,
                             max_lambda_deviation=lam_dev)


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
        pl = as_profile(self.btilde, extend="clamp")
        if np.any(pl.y < 0):
            raise DomainError("btilde must be non-negative")
        object.__setattr__(self, "btilde", pl)
        _check_horizon(self.horizon)

    def btilde_at(self, t: float, z: float) -> float:
        return float(self.btilde(z if self.btilde_coordinate == "z" else t))


def solve_deterministic(c: DeterministicConfig) -> Trajectory:
    """March the deterministic-distance model on the z-grid.

    Entering mass during each z-cell is logged with its effective distance
    theta = z_entry + Btilde(entry); a trip is active at z exactly while its
    theta exceeds z, which realizes the FIFO / LIFO / simultaneous-exit
    solutions uniformly across regime changes.  A dz that carries z past
    the largest float raises :class:`DomainError`.
    """
    dz = c.dz
    F_l = [0.0]
    ic_next = _points(c.ic.profile_array, dz, 1, "dz").__next__  # K0 at z_end
    theta_buf, mass_buf = _Buf(), _Buf()

    def step(j, tau, dtau):
        z = j * dz
        F_next = c.influx.cumulative(tau + dtau)
        theta_buf.push(z + c.btilde_at(tau, z))
        mass_buf.push(max(F_next - F_l[-1], 0.0))
        F_l.append(F_next)
        z_end = (j + 1) * dz
        active = float(np.sum(mass_buf.view()[theta_buf.view() > z_end + 1e-12]))
        return ic_next() + active

    t, z, lam, v, termination = _march_z(c.fd, c.L, dz, c.horizon, c.v_min,
                                         float(c.ic.lambda0), step)
    return Trajectory(scheme="deterministic", L=c.L, t=t, z=z, lam=lam, v=v,
                      f=c.influx.rate_array(t), F=np.asarray(F_l),
                      entry_mass=mass_buf.view().copy(), termination=termination,
                      distances=None, ic=c.ic,
                      entry_theta=theta_buf.view().copy())


def classify_regime(c: DeterministicConfig, traj: Trajectory,
                    tie_tol: float = 1e-9) -> List[Tuple[float, float, SortingRegime]]:
    """Sorting regime per z-interval of a solved run.

    Computed from the sign of dBtilde/dz + 1 on each marching interval,
    with dBtilde/dz = (dBtilde/dt)/v when the profile is given in time.
    Adjacent intervals with the same regime are merged.
    """
    z = traj.z
    out: List[Tuple[float, float, SortingRegime]] = []
    for i in range(z.size - 1):
        if c.btilde_coordinate == "z":
            dbdz = (c.btilde(z[i + 1]) - c.btilde(z[i])) / (z[i + 1] - z[i])
        else:
            dbdt = (c.btilde(traj.t[i + 1]) - c.btilde(traj.t[i])) / (traj.t[i + 1] - traj.t[i])
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
        raise DomainError("not enough entries to invert")
    crossings = np.where((theta[:-1] - z_exit) * (theta[1:] - z_exit) <= 0)[0]
    if crossings.size == 0:
        raise DomainError("no entry has this effective distance")
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
            raise DomainError("the trip entering at this time does not "
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
    F_l = [0.0]
    ent_m: List[float] = []

    def step(j, tau, dtau):
        mass = c.influx.rate(tau) * dtau
        ent_m.append(mass)
        F_l.append(F_l[-1] + mass)
        return F_l[j + 1] - (F_l[j + 1 - I] if j + 1 >= I else 0.0)

    t, z, lam, v, termination = _march_z(c.fd, c.L, dz, c.horizon, c.v_min, 0.0, step)
    traj = Trajectory(scheme="constant_distance", L=c.L, t=t, z=z, lam=lam, v=v,
                      f=c.influx.rate_array(t),
                      entry_mass=np.asarray(ent_m), termination=termination,
                      distances=DeterministicDistances(B), ic=c.ic)
    frame = TripFrame(Btilde=B, z=traj.z, tau=traj.t, F=traj.F, G=traj.G)
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
    whose trips complete within the horizon are sampled.
    """
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
