"""Span recording around the calls into bathtub's layers, and the per-layer
metrics computed from the spans and from what the calls returned.

A :class:`Tracer` replaces the public functions and methods of the layer
modules (and the CLI's CSV writers) with wrappers that time each call,
then puts the originals back.  Nothing in the package is edited.  Spans
are aggregated in memory per name: calls, calls that raised, busy time
(the span's duration) and self time (busy time minus the time of the
spans it directly caused).
"""

from __future__ import annotations

import functools
import sys
import time
import types
from enum import Enum
from pathlib import Path
from typing import Dict, List

import numpy as np

LAYERS = ("diagrams", "demand", "piecewise", "solver", "special", "analysis", "cli")
WRITERS = ("series", "ksurface", "audit", "traveltimes")
_CAPTURED = ("solver.solve_integral", "solver.solve_characteristic",
             "solver.reconstruct_K", "special.solve_vickrey",
             "special.solve_constant_distance", "special.solve_deterministic")
_SPECIAL = {"vickrey": "special.solve_vickrey",
            "constant": "special.solve_constant_distance",
            "deterministic": "special.solve_deterministic"}


class Tracer:
    """Installs span-recording wrappers; ``remove`` restores the package."""

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}   # calls, raised, busy, self, items
        self.captured: Dict[str, list] = {name: [] for name in _CAPTURED}
        self._stack: List[List[float]] = []
        self._undo: List[tuple] = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "bathtub" or name.startswith("bathtub.")]
        for short in LAYERS:
            mod = sys.modules["bathtub." + short]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and _traced_name(short, attr):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    for m in modules:  # every module-level binding, e.g. imports
                        for key, val in list(vars(m).items()):
                            if val is obj:
                                self._replace(m, key, wrapped)
                elif (isinstance(obj, type) and not attr.startswith("_")
                      and not issubclass(obj, (Enum, BaseException))):
                    for meth, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and (
                                not meth.startswith("_") or meth == "__call__"):
                            self._replace(obj, meth,
                                          self._wrap(f"{short}.{attr}.{meth}", fn))

    def remove(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def reset(self):
        for row in self.stats.values():
            row[:] = [0, 0, 0.0, 0.0, 0]
        for calls in self.captured.values():
            calls.clear()

    def _replace(self, owner, key, new):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def _wrap(self, name: str, fn):
        row = self.stats.setdefault(name, [0, 0, 0.0, 0.0, 0])
        stack = self._stack
        capture = self.captured.get(name)
        count_items = name.endswith(".survival_array")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                row[1] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                row[0] += 1
                row[2] += dur
                row[3] += dur - child[0]
            if capture is not None:
                capture.append((args, out))
            if count_items:
                row[4] += np.size(out)
            return out

        return functools.update_wrapper(traced, fn)

    def span(self, name: str) -> List[float]:
        return self.stats.get(name, [0, 0, 0.0, 0.0, 0])

    def spans_matching(self, prefix: str, suffix: str) -> List[float]:
        total = [0, 0, 0.0, 0.0, 0]
        for name, row in self.stats.items():
            if name.startswith(prefix) and name.endswith(suffix):
                total = [a + b for a, b in zip(total, row)]
        return total

    def table(self) -> List[str]:
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][3])
        return [f"  {name:<48} calls {int(r[0]):>8}  busy {r[2]:9.4f} s  "
                f"self {r[3]:9.4f} s" for name, r in rows if r[0]]


def _traced_name(layer: str, attr: str) -> bool:
    if not attr.startswith("_"):
        return True
    return layer == "cli" and attr.startswith("_write_") and attr[7:] in WRITERS


# ---------------------------------------------------------------------------
# exact counts recomputed from returned trajectories and written files
# ---------------------------------------------------------------------------

def _first_live(age_at, lo: np.ndarray, hi: np.ndarray, guess: np.ndarray,
                dx: float, cells: int) -> np.ndarray:
    """Index of the first entry whose capped survival is evaluated (age below
    X), per query.  Ages fall as the entry index rises, so live entries are
    the suffix [first, hi); ``guess`` is corrected with the solver's own
    floor test so that rounding at the cut matches it exactly."""
    def live(i):
        ages = age_at(np.clip(i, lo, np.maximum(hi - 1, lo)))
        return np.floor(ages / dx + 1e-9) <= cells - 1

    i = np.clip(guess, lo, hi)
    while True:
        down = (i > lo) & live(i - 1)
        if not down.any():
            break
        i = i - down
    while True:
        up = (i < hi) & ~live(i)
        if not up.any():
            break
        i = i + up
    return i


def integral_counts(trajs) -> Dict[str, float]:
    """Entry-age evaluations of the integral march and their live share.

    Step k evaluates entries 0..k at ages z[k+1] - entry_z."""
    evals = live = steps = 0
    for traj in trajs:
        n = traj.entry_z.size
        dx, X = traj.metadata["dx"], traj.metadata["X"]
        cells = int(round(X / dx))
        ez, znew = traj.entry_z, traj.z[1:n + 1]
        hi = np.arange(1, n + 1)
        guess = np.searchsorted(ez, znew - X, side="right")
        first = _first_live(lambda i: znew - ez[i], np.zeros(n, dtype=int), hi,
                            guess, dx, cells)
        steps += n
        evals += n * (n + 1) // 2
        live += int(np.sum(hi - first))
    return {"steps": steps, "evals": evals, "live": live}


def reconstruct_counts(calls) -> Dict[str, float]:
    """Entry evaluations of ``reconstruct_K`` calls (one per x value and
    logged entry before t) and their live share."""
    evals = live = 0
    for args, _out in calls:
        traj, t, x = args[0], float(args[1]), np.atleast_1d(np.asarray(args[2], float))
        n = int(np.sum(traj.entry_t < t - 1e-12))
        if n == 0:
            continue
        dx, X = traj.metadata["dx"], traj.metadata["X"]
        cells = int(round(X / dx))
        d = float(np.interp(t, traj.t, traj.z)) - traj.entry_z[:n]
        m = x.size
        guess = n - np.searchsorted(d[::-1], X - x, side="left")
        first = _first_live(lambda i: x + d[i], np.zeros(m, dtype=int),
                            np.full(m, n), guess, dx, cells)
        evals += m * n
        live += int(np.sum(n - first))
    return {"evals": evals, "live": live}


def layer_metrics(tracer: Tracer, out: Path) -> Dict[str, float]:
    """Per-layer metrics of one traced pass whose outputs are in ``out``."""
    m: Dict[str, float] = {}

    def per_call(prefix, row):
        calls, busy = int(row[0]), row[2]
        m[prefix + ".calls"] = calls
        m[prefix + ".us_per_call"] = busy / calls * 1e6 if calls else 0.0

    per_call("diagrams.speed", tracer.span("diagrams.FundamentalDiagram.speed"))
    per_call("demand.rate", tracer.span("demand.InfluxProfile.rate"))
    per_call("piecewise.call", tracer.span("piecewise.PiecewiseLinear.__call__"))

    integ = integral_counts(out for _a, out in tracer.captured["solver.solve_integral"])
    self_s = tracer.span("solver.solve_integral")[3]
    m["solver.integral.steps"] = integ["steps"]
    m["solver.integral.self_us_per_step"] = _per(self_s * 1e6, integ["steps"])
    m["solver.integral.survival_evals"] = integ["evals"]
    m["solver.integral.live_fraction"] = _per(integ["live"], integ["evals"])

    surv = tracer.spans_matching("demand.", ".survival_array")
    m["demand.survival_array.calls"] = int(surv[0])
    m["demand.survival_array.values"] = int(surv[4])
    m["demand.survival_array.busy_s"] = surv[2]

    rec = tracer.span("solver.reconstruct_K")
    rc = reconstruct_counts(tracer.captured["solver.reconstruct_K"])
    m["solver.reconstruct.calls"] = int(rec[0])
    m["solver.reconstruct.busy_s"] = rec[2]
    m["solver.reconstruct.entry_evals"] = rc["evals"]
    m["solver.reconstruct.live_fraction"] = _per(rc["live"], rc["evals"])

    m["analysis.audit.profiles"] = _audit_profiles(out / "audit.csv")
    m["analysis.audit.self_s"] = tracer.span("analysis.audit")[3]

    for w in WRITERS:
        row = tracer.span(f"cli._write_{w}")
        m[f"cli.write.{w}.self_s"] = row[3]
        path = out / f"{w}.csv"
        m[f"cli.write.{w}.bytes"] = path.stat().st_size if row[0] and path.exists() else 0

    chars = [o for _a, o in tracer.captured["solver.solve_characteristic"]]
    steps = sum(t.entry_t.size for t in chars)
    m["solver.characteristic.steps"] = steps
    m["solver.characteristic.self_us_per_step"] = _per(
        tracer.span("solver.solve_characteristic")[3] * 1e6, steps)
    m["solver.k_history_mb"] = sum(t.K_history.nbytes for t in chars) / 1e6

    for label, name in _SPECIAL.items():
        outs = [o[0] if isinstance(o, tuple) else o for _a, o in tracer.captured[name]]
        steps = sum(t.entry_t.size for t in outs)
        m[f"special.{label}.steps"] = steps
        m[f"special.{label}.self_us_per_step"] = _per(tracer.span(name)[3] * 1e6, steps)

    att = tracer.span("analysis.average_travel_time")
    m["analysis.average_travel_time.calls"] = int(att[0])
    m["analysis.average_travel_time.completed_fraction"] = _per(
        _data_rows(out / "traveltimes.csv"), att[0])

    m["cli.parse.busy_s"] = tracer.span("cli.parse_config")[2]
    return m


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def _data_rows(path: Path) -> int:
    if not path.exists():
        return 0
    return len(path.read_text(encoding="utf-8").splitlines()) - 1


def _audit_profiles(path: Path) -> int:
    """Steps whose trip-miles residual was computed from a profile."""
    if not path.exists():
        return 0
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return sum(1 for ln in lines
               if not ln.startswith("#") and ln.split(",")[2] != "nan")
