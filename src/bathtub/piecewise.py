"""Piecewise-linear functions of one variable with exact integration.

Used for time-varying inflow rates and trip-distance parameters.  Two
extension modes are supported outside the node range: ``"zero"`` (the
function vanishes, appropriate for pulse-like inflow rates) and
``"clamp"`` (the end values extend as constants, appropriate for
slowly-varying parameters).
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import DataError


class PiecewiseLinear:
    """Piecewise-linear interpolant through ``(x, y)`` nodes.

    ``x`` must be strictly increasing and all values finite.  Calling the
    object evaluates it; scalars in, scalar out; arrays in, array out.  A
    float is evaluated in plain floats on node lists, with the arithmetic
    of ``np.interp``, so it gives the array path's result bit for bit.
    """

    def __init__(self, x, y, extend: str = "clamp"):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size == 0:
            raise DataError("x and y must be two equal-length non-empty 1-d sequences")
        if np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
            raise DataError("piecewise-linear nodes must be finite")
        if x.size > 1 and np.any(np.diff(x) <= 0):
            raise DataError("node abscissae must be strictly increasing")
        if extend not in ("clamp", "zero"):
            raise DataError(f"extend must be 'clamp' or 'zero', got {extend!r}")
        self.x = x
        self.y = y
        self.extend = extend
        self._xs, self._ys = x.tolist(), y.tolist()
        # cumulative trapezoid areas between consecutive nodes
        if x.size > 1:
            seg = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
            self._cum = [0.0] + np.cumsum(seg).tolist()
        else:
            self._cum = [0.0]

    def __call__(self, t):
        if isinstance(t, float) and t == t:  # NaN takes the numpy path
            xs, ys, t = self._xs, self._ys, float(t)
            j = bisect_right(xs, t) - 1
            if j < 0 or (j == len(xs) - 1 and t > xs[j]):
                return 0.0 if self.extend == "zero" else ys[0 if j < 0 else j]
            if t == xs[j]:
                return ys[j]
            return (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (t - xs[j]) + ys[j]
        scalar = np.isscalar(t) or np.ndim(t) == 0
        tt = np.asarray(t, dtype=float)
        out = np.interp(tt, self.x, self.y)
        if self.extend == "zero":
            out = np.where((tt < self.x[0]) | (tt > self.x[-1]), 0.0, out)
        return float(out) if scalar else out

    def integral(self, t: float) -> float:
        """Exact integral of the extended function over ``[0, t]``, ``t >= 0``."""
        t = float(t)
        if t <= 0.0:
            return 0.0
        x, y = self._xs, self._ys
        first, last = x[0], x[-1]
        total = 0.0
        # stretch before the first node
        if first > 0.0:
            if self.extend == "clamp":
                total += y[0] * (first if first < t else t)  # min(t, x[0])
            if t <= first:
                return total
        lo = first if first > 0.0 else 0.0  # max(0.0, x[0])
        hi = last if last < t else t  # min(t, x[-1])
        if hi > lo:
            total += self._segment_area(lo, hi)
        if t > last and self.extend == "clamp":
            total += y[-1] * (t - (0.0 if 0.0 > last else last))  # max(x[-1], 0.0)
        return total

    def _segment_area(self, a: float, b: float) -> float:
        # exact area over [a, b], x[0] <= a < b <= x[-1]; each end is read
        # off the segment its bisect found, with the float path's arithmetic
        x, y = self._xs, self._ys
        ia = bisect_right(x, a) - 1
        ya = y[ia] if a == x[ia] else (
            (y[ia + 1] - y[ia]) / (x[ia + 1] - x[ia]) * (a - x[ia]) + y[ia])
        ib = bisect_right(x, b) - 1
        yb = y[ib] if b == x[ib] else (
            (y[ib + 1] - y[ib]) / (x[ib + 1] - x[ib]) * (b - x[ib]) + y[ib])
        if ib == len(x) - 1:  # b is the last node: its segment ends there
            ib -= 1
        if ia == ib:
            return 0.5 * (ya + yb) * (b - a)
        area = 0.5 * (ya + y[ia + 1]) * (x[ia + 1] - a)
        area += self._cum[ib] - self._cum[ia + 1]
        area += 0.5 * (y[ib] + yb) * (b - x[ib])
        return area

    def minimum(self) -> float:
        return float(self.y.min())


def as_profile(value) -> PiecewiseLinear:
    """Coerce a constant or an existing profile into a :class:`PiecewiseLinear`;
    a constant extends by ``"clamp"``."""
    if isinstance(value, PiecewiseLinear):
        return value
    v = float(value)
    if not math.isfinite(v):
        raise DataError("profile value must be finite")
    return PiecewiseLinear([0.0], [v])
