"""Network fundamental diagrams: speed-density laws and derived flow quantities.

Densities are per-lane (veh/lane-mile), speeds in mph, flows per-lane (vph).
All diagram objects are immutable and safe to share between concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DataError, DomainError, finite_non_negative, finite_positive

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _as_density(rho):
    scalar = np.isscalar(rho) or np.ndim(rho) == 0
    r = np.asarray(rho, dtype=float)
    if not np.all((r >= 0) & (r < np.inf)):
        raise DomainError("density must be finite and non-negative")
    return r, scalar


class FundamentalDiagram:
    """Base class for speed-density relations.

    Subclasses implement :meth:`_speed` on a validated finite non-negative
    density array.  ``speed`` raises a negative value of the law to 0.0, as
    the laws with a jam density give beyond it.  A float density (``np.float64``
    too) takes :meth:`_speed_float`, which Trapezoidal and Greenshields
    override with float arithmetic equal to the array path's bit for bit,
    and returns a float, not an array.  A NaN, negative or infinite density
    is rejected.
    """

    def _speed(self, rho: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _speed_float(self, rho: float) -> float:
        return float(self._speed(np.asarray(rho)))

    def speed(self, rho):
        if isinstance(rho, float):
            if not 0 <= rho < math.inf:
                raise DomainError("density must be finite and non-negative")
            v = self._speed_float(float(rho))
            return 0.0 if 0.0 > v else v  # max(v, 0.0)
        r, scalar = _as_density(rho)
        v = np.maximum(self._speed(r), 0.0)
        return float(v) if scalar else v

    def flow(self, rho):
        if isinstance(rho, float):
            return float(rho) * self.speed(rho)
        r, scalar = _as_density(rho)
        q = r * np.maximum(self._speed(r), 0.0)
        return float(q) if scalar else q

    @property
    def jam_density(self) -> Optional[float]:
        """Density at which speed reaches zero, if the variant defines one."""
        return None

    @property
    def density_scale(self) -> float:
        """A positive density magnitude used to size finite-difference steps."""
        jd = self.jam_density
        if jd is not None:
            return jd
        return self._max_tabulated_density()

    def _max_tabulated_density(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    def capacity(self) -> Tuple[float, float]:
        """Maximum per-lane flow and its smallest maximizing density."""
        return self._capacity_numeric()

    def _capacity_numeric(self) -> Tuple[float, float]:
        # 4096-interval scan, then golden-section refinement around the best
        # grid point; robust for non-concave flow laws.
        hi = self.density_scale
        grid = np.linspace(0.0, hi, 4097)
        q = self.flow(grid)
        best = int(np.argmax(q))
        a = grid[max(best - 1, 0)]
        b = grid[min(best + 1, grid.size - 1)]
        c, rho_star = self._golden_max(a, b)
        if q[best] >= c:
            return float(q[best]), float(grid[best])
        return float(c), float(rho_star)

    def _golden_max(self, a: float, b: float):
        x1 = b - _GOLDEN * (b - a)
        x2 = a + _GOLDEN * (b - a)
        f1, f2 = self.flow(x1), self.flow(x2)
        while (b - a) > 1e-12 * max(1.0, self.density_scale):
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _GOLDEN * (b - a)
                f2 = self.flow(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _GOLDEN * (b - a)
                f1 = self.flow(x1)
        mid = 0.5 * (a + b)
        return self.flow(mid), mid


@dataclass(frozen=True)
class Triangular(FundamentalDiagram):
    """Free-flow branch at speed ``u``, congested branch with wave speed ``w``."""

    u: float
    w: float
    kappa: float

    def __post_init__(self):
        finite_positive(u=self.u, w=self.w, kappa=self.kappa)

    def _speed(self, rho):
        with np.errstate(divide="ignore", over="ignore"):
            congested = np.where(rho > 0, self.w * (self.kappa / np.where(rho > 0, rho, 1.0) - 1.0), np.inf)
        return np.minimum(self.u, congested)

    @property
    def jam_density(self):
        return self.kappa

    def capacity(self):
        rho_star = self.w * self.kappa / (self.u + self.w)
        return self.u * rho_star, rho_star


@dataclass(frozen=True)
class Trapezoidal(FundamentalDiagram):
    """Triangular law with an additional capacity cap ``C`` (per-lane vph)."""

    u: float
    C: float
    w: float
    kappa: float

    def __post_init__(self):
        finite_positive(u=self.u, C=self.C, w=self.w, kappa=self.kappa)
        for name in ("u", "C", "w", "kappa"):  # so speed returns u as a float
            object.__setattr__(self, name, float(getattr(self, name)))

    def _speed(self, rho):
        with np.errstate(divide="ignore", over="ignore"):
            pos = np.where(rho > 0, rho, 1.0)
            capped = np.where(rho > 0, self.C / pos, np.inf)
            congested = np.where(rho > 0, self.w * (self.kappa / pos - 1.0), np.inf)
        return np.minimum(self.u, np.minimum(capped, congested))

    def _speed_float(self, rho):
        u = self.u
        if not rho > 0:
            return u
        v = self.C / rho
        congested = self.w * (self.kappa / rho - 1.0)
        if congested < v:  # min(v, congested)
            v = congested
        return v if v < u else u  # min(u, v)

    @property
    def jam_density(self):
        return self.kappa

    def capacity(self):
        triangular_cap = self.u * self.w * self.kappa / (self.u + self.w)
        if self.C >= triangular_cap:
            rho_star = self.w * self.kappa / (self.u + self.w)
            return triangular_cap, rho_star
        return self.C, self.C / self.u


@dataclass(frozen=True)
class Greenshields(FundamentalDiagram):
    """Linear speed-density law ``u (1 - rho/kappa)``."""

    u: float
    kappa: float

    def __post_init__(self):
        finite_positive(u=self.u, kappa=self.kappa)

    def _speed(self, rho):
        return self.u * (1.0 - rho / self.kappa)

    _speed_float = _speed

    @property
    def jam_density(self):
        return self.kappa

    def capacity(self):
        return self.u * self.kappa / 4.0, self.kappa / 2.0


@dataclass(frozen=True)
class PiecewiseConstantSpeed(FundamentalDiagram):
    """Step speed law: speed of the interval containing rho, intervals
    closed on the left, so the speed changes exactly when the density
    crosses a breakpoint from above.

    ``breakpoints`` is a sequence of ``(density, speed)`` pairs whose first
    density must be 0.  Increasing speed steps are rejected unless
    ``allow_increasing`` is set (the stability theory assumes a
    non-increasing law).
    """

    breakpoints: Tuple[Tuple[float, float], ...]
    allow_increasing: bool = False

    def __post_init__(self):
        bp = tuple((float(d), float(v)) for d, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if len(bp) == 0:
            raise DataError("at least one breakpoint is required")
        d = np.array([p[0] for p in bp])
        v = np.array([p[1] for p in bp])
        if np.any(~np.isfinite(d)) or np.any(~np.isfinite(v)):
            raise DataError("breakpoints must be finite")
        if d[0] != 0.0:
            raise DataError("first breakpoint density must be 0")
        if np.any(np.diff(d) <= 0):
            raise DataError("breakpoint densities must be strictly increasing")
        if np.any(v < 0):
            raise DomainError("breakpoint speeds must be non-negative")
        if not self.allow_increasing and np.any(np.diff(v) > 0):
            raise DataError("speed must be non-increasing in density "
                            "(pass allow_increasing=True to override)")

    def _speed(self, rho):
        d = np.array([p[0] for p in self.breakpoints])
        v = np.array([p[1] for p in self.breakpoints])
        idx = np.searchsorted(d, rho, side="right") - 1
        return v[np.clip(idx, 0, v.size - 1)]

    @property
    def jam_density(self):
        if self.breakpoints[-1][1] == 0.0:
            return self.breakpoints[-1][0]
        return None

    def _max_tabulated_density(self):
        last = self.breakpoints[-1][0]
        return last if last > 0 else 1.0


@dataclass(frozen=True)
class TabulatedSpeed(FundamentalDiagram):
    """Monotone piecewise-linear interpolation of ``(density, speed)`` samples
    at non-negative, strictly increasing densities.  Beyond the sampled
    range the speed clamps to the nearest end value, preserving the
    non-increasing property.
    """

    densities: Tuple[float, ...]
    speeds: Tuple[float, ...]
    allow_increasing: bool = False

    def __post_init__(self):
        d = np.asarray(self.densities, dtype=float)
        v = np.asarray(self.speeds, dtype=float)
        object.__setattr__(self, "densities", tuple(d.tolist()))
        object.__setattr__(self, "speeds", tuple(v.tolist()))
        if d.ndim != 1 or d.shape != v.shape or d.size < 2:
            raise DataError("densities and speeds need equally many samples, 2 or more")
        if np.any(~np.isfinite(d)) or np.any(~np.isfinite(v)):
            raise DataError("densities and speeds must be finite")
        if np.any(np.diff(d) <= 0):
            raise DataError("densities must be strictly increasing")
        with np.errstate(over="ignore"):  # an infinite slope makes np.interp read 0
            if not np.all(np.isfinite(np.diff(v) / np.diff(d))):
                raise DataError("the speed's slope between neighbouring samples "
                                "must be finite: densities too close together")
        if d[0] < 0:
            raise DataError("densities must be non-negative")
        if np.any(v < 0):
            raise DomainError("speeds must be non-negative")
        if not self.allow_increasing and np.any(np.diff(v) > 1e-12):
            raise DataError("speed must be non-increasing in density "
                            "(pass allow_increasing=True to override)")

    def _speed(self, rho):
        return np.interp(rho, self.densities, self.speeds)

    @property
    def jam_density(self):
        if self.speeds[-1] == 0.0:
            return self.densities[-1]
        return None

    def _max_tabulated_density(self):
        return self.densities[-1]


def speed(fd: FundamentalDiagram, rho) -> float:
    """Travel speed at per-lane density ``rho`` (clamped to 0 beyond jam)."""
    return fd.speed(rho)


def flow(fd: FundamentalDiagram, rho) -> float:
    """Per-lane flow ``rho * speed(rho)``."""
    return fd.flow(rho)


def capacity(fd: FundamentalDiagram) -> Tuple[float, float]:
    """Maximum per-lane flow and the smallest density achieving it."""
    return fd.capacity()


def flow_slope_sign(fd: FundamentalDiagram, rho: float) -> int:
    """Sign of dQ/drho at ``rho`` by central finite difference.

    The step is ``density_scale * 1e-6``; slopes below ``density_scale * 1e-9``
    in magnitude report 0.  The stencil is shifted to stay inside
    ``[0, density_scale]`` at the boundaries.
    """
    scale = fd.density_scale
    if not 0 <= rho <= scale * (1 + 1e-9):
        raise DomainError("rho must lie in [0, jam density]")
    h = scale * 1e-6
    lo = max(0.0, rho - h)
    hi = min(scale, rho + h)
    if hi <= lo:
        return 0
    slope = (fd.flow(hi) - fd.flow(lo)) / (hi - lo)
    if abs(slope) < scale * 1e-9:
        return 0
    return 1 if slope > 0 else -1


@dataclass(frozen=True)
class BoardingDelaySpeed:
    """Extended speed relation for trips served by shared vehicles.

    The base diagram speed at the (possibly exogenous) vehicle density is
    reduced by a boarding/alighting delay factor ``1 / (1 + alpha*(f+g)/L)``
    driven by the passenger turnover per lane-mile.  ``alpha = 0`` reduces to
    the plain speed-density law.
    """

    fd: FundamentalDiagram
    alpha: float = 0.0
    lane_miles: float = 1.0

    def __post_init__(self):
        finite_non_negative(alpha=self.alpha)
        finite_positive(lane_miles=self.lane_miles)

    def speed(self, rho: float, lam: float, f: float, g: float) -> float:
        base = self.fd.speed(rho)
        return base / (1.0 + self.alpha * (f + g) / self.lane_miles)


def extended_speed(relation, rho: float, lam: float, f: float, g: float) -> float:
    """Evaluate an extended speed relation ``V(rho, lam, f, g)``.

    ``relation`` is any object exposing ``speed(rho, lam, f, g)`` such as
    :class:`BoardingDelaySpeed`.  All arguments must be non-negative.
    """
    for name, val in (("rho", rho), ("lam", lam), ("f", f), ("g", g)):
        if not val >= 0:
            raise DomainError(f"{name} must be non-negative")
    return float(relation.speed(rho, lam, f, g))
