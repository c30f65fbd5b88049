"""Trip demand: time-varying inflow rates, trip-distance distributions and
initial remaining-distance profiles.

Conventions: times in hours, distances in miles, rates in trips/hr.  A
distance distribution is described by its survival function S(t, x) = the
proportion of trips entering at time t whose total distance is at least x,
with S(t, 0) = 1 and S non-increasing in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DataError, DomainError, finite_non_negative, finite_positive
from .piecewise import PiecewiseLinear, as_profile


# ---------------------------------------------------------------------------
# inflow rates
# ---------------------------------------------------------------------------

class InfluxProfile:
    """Base class for entering-trip rates f(t) with exact cumulatives."""

    def rate(self, t: float) -> float:
        if not 0 <= t < math.inf:
            raise DomainError("time must be finite and non-negative")
        return self._rate(t)

    def _rate(self, t):
        raise NotImplementedError

    def rate_array(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0) & (t < np.inf)):
            raise DomainError("times must be finite and non-negative")
        return self._rate_array(t)

    def _rate_array(self, t):
        return np.asarray([self._rate(float(tt)) for tt in t])

    def cumulative(self, t: float) -> float:
        """Exact integral of the rate over [0, t]; 0 for t <= 0."""
        if not t < math.inf:
            raise DomainError("time must be finite")
        return self._cumulative(t)

    def _cumulative(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroInflux(InfluxProfile):
    def _rate(self, t):
        return 0.0

    def _rate_array(self, t):
        return np.zeros_like(t)

    def _cumulative(self, t):
        return 0.0


@dataclass(frozen=True)
class ConstantInflux(InfluxProfile):
    rate_vph: float

    def __post_init__(self):
        finite_non_negative(rate_vph=self.rate_vph)

    def _rate(self, t):
        return self.rate_vph

    def _rate_array(self, t):
        return np.full(t.shape, self.rate_vph)

    def _cumulative(self, t):
        return self.rate_vph * max(0.0, float(t))


class PiecewiseLinearInflux(InfluxProfile):
    """Rate interpolated through ``(time, rate)`` nodes, zero outside them."""

    def __init__(self, nodes: Sequence[Tuple[float, float]]):
        t = [float(a) for a, _ in nodes]
        r = [float(b) for _, b in nodes]
        if any(a < 0 for a in t):
            raise DomainError("node times must be non-negative")
        if any(b < 0 for b in r):
            raise DomainError("rates must be non-negative")
        self._pl = PiecewiseLinear(t, r, extend="zero")

    def _rate(self, t):
        return float(self._pl(t))

    def _rate_array(self, t):
        return self._pl(t)

    def _cumulative(self, t):
        return self._pl.integral(t)


class TrapezoidalPulse(InfluxProfile):
    """Pulse max{0, min{ramp*t, plateau, ramp*(end-t)}} on [0, end]."""

    def __init__(self, ramp: float, plateau: float, end: float):
        finite_positive(ramp=ramp, plateau=plateau, end=end)
        self.ramp = float(ramp)
        self.plateau = float(plateau)
        self.end = float(end)
        t_rise = plateau / ramp
        if t_rise < end / 2.0:
            nodes = [(0.0, 0.0), (t_rise, plateau), (end - t_rise, plateau), (end, 0.0)]
        else:
            nodes = [(0.0, 0.0), (end / 2.0, ramp * end / 2.0), (end, 0.0)]
        self._pl = PiecewiseLinear([a for a, _ in nodes], [b for _, b in nodes],
                                   extend="zero")

    def _rate(self, t):
        ramp = self.ramp
        r = ramp * t
        if self.plateau < r:  # min(ramp t, plateau, ramp (end - t))
            r = self.plateau
        fall = ramp * (self.end - t)
        if fall < r:
            r = fall
        return r if r > 0.0 else 0.0  # max(0.0, r)

    def _rate_array(self, t):
        return np.maximum(0.0, np.minimum(self.ramp * t,
                                          np.minimum(self.plateau,
                                                     self.ramp * (self.end - t))))

    def _cumulative(self, t):
        return self._pl.integral(t)


def influx(profile: InfluxProfile, t: float) -> float:
    """Entering-trip rate f(t) in trips/hr."""
    return profile.rate(t)


def cumulative_inflow(profile: InfluxProfile, t: float) -> float:
    """Cumulative entering trips F(t) by exact closed-form integration."""
    return profile.cumulative(t)


# ---------------------------------------------------------------------------
# distance distributions
# ---------------------------------------------------------------------------

def _check_tx(t, x):
    t = np.asarray(t)
    if not np.all((t >= 0) & (t < np.inf)):
        raise DomainError("time must be finite and non-negative")
    if not np.all(np.asarray(x) >= 0):
        raise DomainError("distance must be non-negative")


class DistanceDistribution:
    """Base class for entering-trip distance distributions."""

    time_dependent: bool = True

    def survival(self, t: float, x: float) -> float:
        _check_tx(t, x)
        return float(self.survival_array(np.asarray(t, dtype=float),
                                         np.asarray(x, dtype=float)))

    def survival_array(self, t, x) -> np.ndarray:
        """Vectorized survival (``t``, ``x`` broadcast); unchecked: it runs per step."""
        raise NotImplementedError

    def entry_key(self, t):
        """What the survival of trips entering at ``t`` depends on, fixed once
        they have entered, so a march evaluates it once per entry; a float
        for a float ``t``.  A key belongs to its law: only that law's
        :meth:`survival_from_key` reads it."""
        return t

    def survival_from_key(self, key, x) -> np.ndarray:
        """:meth:`survival_array` given :meth:`entry_key` of the times."""
        return self.survival_array(key, x)

    def mean_distance(self, t: float) -> float:
        """Average entering-trip distance, the x-integral of the survival."""
        raise NotImplementedError

    def mean_distance_capped(self, t, X: float):
        """x-integral of survival over [0, X] (trips capped at distance X)."""
        raise NotImplementedError

    def tail_beyond(self, t, x: float):
        """Proportion of entering trips with distance strictly beyond ``x``:
        the survival at ``x`` for a law without an atom there."""
        return self.survival_array(t, x)


class _MeanDistances(DistanceDistribution):
    """A law set by its mean distance Btilde(t), a constant or a profile."""

    def __init__(self, Btilde):
        self._B = as_profile(Btilde)
        if self._B.extend != "clamp":  # a mean distance of 0 outside the nodes
            raise DomainError(f"Btilde must extend by 'clamp', not {self._B.extend!r}")
        if self._B.minimum() <= 0:
            raise DomainError("Btilde, the mean distance, must be positive")
        self.time_dependent = self._B.x.size > 1

    def mean_distance(self, t):
        return float(self._B(t))

    def entry_key(self, t):
        return self._B(t)

    def survival_array(self, t, x):
        return self.survival_from_key(self.entry_key(t), x)


class ExponentialDistances(_MeanDistances):
    """Negative-exponential distances with mean B (optionally varying in t)."""

    @property
    def B(self) -> float:
        return float(self._B(0.0))

    def survival_from_key(self, b, x):
        return np.exp(-np.asarray(x, dtype=float) / b)

    def mean_distance_capped(self, t, X):
        b = self._B(t)
        return b * (1.0 - np.exp(-X / b))


class UniformDistances(_MeanDistances):
    """Uniform distances on [0, 2*Btilde(t)] so the mean is Btilde(t)."""

    def entry_key(self, t):
        """2*Btilde(t), the end of the support: a survival call divides by
        the key as it is, and doubling is exact, so the survival equals
        1 - x/(2*Btilde(t)) bit for bit."""
        return 2.0 * self._B(t)

    def survival_from_key(self, b2, x):
        return np.maximum(0.0, 1.0 - np.asarray(x, dtype=float) / b2)

    def mean_distance_capped(self, t, X):
        b = self._B(t)
        sup = 2.0 * b
        xc = np.minimum(X, sup)
        return xc - xc * xc / (4.0 * b)


class DeterministicDistances(_MeanDistances):
    """All trips entering at t share the single distance Btilde(t)."""

    def survival_from_key(self, b, x):
        return np.where(np.asarray(x, dtype=float) <= b, 1.0, 0.0)

    def mean_distance_capped(self, t, X):
        return np.minimum(self._B(t), X)

    def tail_beyond(self, t, x):
        return np.where(np.asarray(x, dtype=float) < self._B(t), 1.0, 0.0)


class TabulatedSurvival(DistanceDistribution):
    """Survival sampled on an x-grid (at least two nodes, the first at 0) at
    a set of times, bilinear interpolation.

    Rows whose value at x=0 deviates from 1 by less than 1e-6 are
    renormalized; larger deviations are rejected.  Queries beyond the last
    time clamp to the nearest row; beyond the last x, to the last column
    (supply a grid that reaches 0).
    """

    def __init__(self, x_grid, t_grid, values):
        x = np.asarray(x_grid, dtype=float)
        t = np.asarray(t_grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if v.shape != (t.size, x.size):
            raise DataError("values must have shape (len(t_grid), len(x_grid))")
        if np.any(~np.isfinite(x)) or np.any(~np.isfinite(t)) or np.any(~np.isfinite(v)):
            raise DataError("survival table contains non-finite values")
        if x.size < 2:  # one node has no cell to interpolate in
            raise DataError("x_grid needs at least 2 nodes")
        if x[0] != 0.0:
            raise DataError("x_grid must start at 0")
        if np.any(np.diff(x) <= 0):
            raise DataError("x_grid must be strictly increasing")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise DataError("t_grid must be strictly increasing")
        if np.any(np.abs(v[:, 0] - 1.0) >= 1e-6):
            raise DataError("survival at x=0 must equal 1 (within 1e-6)")
        v = v / v[:, :1]
        if np.any(np.diff(v, axis=1) > 1e-12):
            raise DataError("survival must be non-increasing in x")
        if np.any(v < -1e-12):
            raise DataError("survival values must be non-negative")
        self.x_grid = x
        self.t_grid = t
        self.values = np.maximum(v, 0.0)
        self.time_dependent = t.size > 1

    def _columns(self, t):
        """``at(c)``: the table interpolated in t at times ``t``, read at
        the columns ``c`` (broadcast against ``t``) and nowhere else."""
        v = self.values
        if self.t_grid.size == 1:
            return lambda c: v[0, c]
        i = np.clip(np.searchsorted(self.t_grid, t, side="right") - 1, 0,
                    self.t_grid.size - 2)
        w = np.clip((t - self.t_grid[i]) / (self.t_grid[i + 1] - self.t_grid[i]),
                    0.0, 1.0)
        return lambda c: (1.0 - w) * v[i, c] + w * v[i + 1, c]

    def _row(self, t):
        t = np.asarray(t, dtype=float)
        return self._columns(t[..., None])(np.arange(self.x_grid.size))

    def survival_array(self, t, x):
        """Bilinear in (t, x); only the two columns that bracket each x, and
        the last one, are interpolated in t, so the temporaries hold one
        value per (t, x) pair, not a table row."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        t, x = np.broadcast_arrays(t, x)
        at = self._columns(t)
        xg = self.x_grid
        j = np.clip(np.searchsorted(xg, x, side="right") - 1, 0, xg.size - 2)
        w = (x - xg[j]) / (xg[j + 1] - xg[j])
        w = np.clip(w, 0.0, None)
        out = (1.0 - w) * at(j) + w * at(j + 1)
        return np.where(x >= xg[-1], at(xg.size - 1), out)

    def mean_distance(self, t):
        row = self._row(np.asarray(t, dtype=float))
        return float(np.trapezoid(row, self.x_grid, axis=-1))

    def mean_distance_capped(self, t, X):
        t = np.asarray(t, dtype=float)
        xs = np.append(self.x_grid[self.x_grid < X], X)
        rows = self.survival_array(t[..., None] if t.ndim else t, xs)
        return np.trapezoid(rows, xs, axis=-1)


def survival(dist: DistanceDistribution, t: float, x: float) -> float:
    """Proportion of trips entering at t with total distance >= x."""
    return dist.survival(t, x)


def mean_distance(dist: DistanceDistribution, t: float) -> float:
    """Average entering-trip distance at time t."""
    if not 0 <= t < math.inf:
        raise DomainError("time must be finite and non-negative")
    return dist.mean_distance(t)


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

class InitialCondition:
    """Initial count profile K(0, x): trips with remaining distance >= x."""

    lambda0: float = 0.0

    def profile(self, x: float) -> float:
        if not x >= 0:
            raise DomainError("distance must be non-negative")
        return float(self.profile_array(np.asarray(x, dtype=float)))

    def profile_array(self, x) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class EmptyNetwork(InitialCondition):
    def profile_array(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class ExponentialProfile(InitialCondition):
    """lambda0 initial trips with exponential remaining distances, mean B."""

    def __init__(self, lambda0: float, B: float):
        finite_non_negative(lambda0=lambda0)
        finite_positive(B=B)
        self.lambda0 = float(lambda0)
        self.B = float(B)

    def profile_array(self, x):
        return self.lambda0 * np.exp(-np.asarray(x, dtype=float) / self.B)


class TabulatedProfile(InitialCondition):
    """Initial profile given on an x-grid; linear interpolation, 0 beyond."""

    def __init__(self, x_grid, counts):
        x = np.asarray(x_grid, dtype=float)
        c = np.asarray(counts, dtype=float)
        if x.ndim != 1 or x.shape != c.shape or x.size == 0:
            raise DataError("x_grid and counts must be equal-length 1-d arrays")
        if np.any(~np.isfinite(x)) or np.any(~np.isfinite(c)):
            raise DataError("x_grid and counts must be finite")
        if x[0] != 0.0:
            raise DataError("x_grid must start at 0")
        if x.size > 1 and np.any(np.diff(x) <= 0):
            raise DataError("x_grid must be strictly increasing")
        if np.any(c < -1e-12):
            raise DataError("counts must be non-negative")
        c = np.maximum(c, 0.0)
        if np.any(np.diff(c) > 1e-9 * max(1.0, float(c[0]))):
            raise DataError("counts must be non-increasing in x")
        self.x_grid = x
        self.counts = c
        self.lambda0 = float(c[0])

    def profile_array(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x_grid, self.counts,
                         right=0.0)


def initial_profile(ic: InitialCondition, x: float) -> float:
    """Initial trip count with remaining distance >= x."""
    return ic.profile(x)
