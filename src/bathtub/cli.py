"""Config-driven command line front end.

Configs are flat ``section.key = value`` lines with ``#`` comments.  Keys
ending in ``_nodes`` may repeat and carry comma-separated ``t:value`` pairs
of a piecewise-linear profile; every other key may appear once.  Unknown
keys are errors.  Numeric CSV output uses the shortest round-trip decimal
representation so that identical configs reproduce byte-identical files.

Exit codes: 0 run reached its horizon, 1 error, 2 run ended in gridlock
(outputs are still written up to termination).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, demand as demand_mod, diagrams, solver, special
from .errors import BathtubError, ConfigError
from .piecewise import PiecewiseLinear

# Numeric keys must be finite and positive; these two may also be zero.
_FLOAT_KEYS = {"network.L", "fd.u", "fd.w", "fd.kappa", "fd.C",
               "demand.influx.ramp", "demand.influx.plateau", "demand.influx.end",
               "demand.influx.rate", "demand.distance.B", "ic.lambda0", "ic.B",
               "grid.dx", "grid.X", "grid.dt", "grid.dz"}
_ZERO_OK = {"demand.influx.rate", "ic.lambda0"}
_STR_KEYS = {"fd.variant", "demand.influx.kind", "demand.distance.kind",
             "demand.table", "fd.table", "ic.kind", "ic.table", "grid.stop",
             "model.kind", "model.scheme", "outputs", "output_dir"}
_NODE_KEYS = {"demand.distance.Btilde_nodes", "demand.influx.nodes"}
_KNOWN = _FLOAT_KEYS | _STR_KEYS | _NODE_KEYS

_OUTPUTS = ("series", "ksurface", "audit", "traveltimes")
_TRAVELTIME_SAMPLES = 65  # evenly spaced entry times traveltimes.csv tries


@dataclass
class RunConfig:
    """Validated run description built from a parsed config."""

    L: float
    fd: diagrams.FundamentalDiagram
    influx: demand_mod.InfluxProfile
    distances: Optional[demand_mod.DistanceDistribution]
    btilde: object
    ic: demand_mod.InitialCondition
    model_kind: str
    scheme: str
    stop: Tuple[str, float]
    dx: Optional[float]
    X: Optional[float]
    dt: Optional[float]
    dz: Optional[float]
    outputs: Tuple[str, ...]
    output_dir: str


def _scan(text: str) -> Dict[str, object]:
    """Tokenize config text into a key -> value-string map.

    Raises :class:`ConfigError` with line numbers on syntax errors and on
    duplicated keys (node-list keys may repeat and accumulate)."""
    values: Dict[str, object] = {}
    first_line: Dict[str, int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in _NODE_KEYS:
            values.setdefault(key, []).append(value)
            first_line.setdefault(key, lineno)
            continue
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {first_line[key]})")
        values[key] = value
        first_line[key] = lineno
    return values


def _parse_nodes(key: str, chunks: List[str]) -> List[Tuple[float, float]]:
    nodes: List[Tuple[float, float]] = []
    for chunk in chunks:
        for pair in chunk.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if ":" not in pair:
                raise ConfigError(f"{key}: expected 't:value' pairs, got {pair!r}")
            a, b = pair.split(":", 1)
            try:
                nodes.append((float(a), float(b)))
            except ValueError:
                raise ConfigError(f"{key}: non-numeric node {pair!r}") from None
    if not nodes:
        raise ConfigError(f"{key}: no nodes given")
    return nodes


def _float(key: str, text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite, got {v}")
    if v < 0 or (v == 0 and key not in _ZERO_OK):
        bound = "non-negative" if key in _ZERO_OK else "positive"
        raise ConfigError(f"{key}: must be {bound}, got {v}")
    return v


def _need(vals: Dict[str, object], label: str, keys: Sequence[str]):
    missing = [key for key in keys if vals.get(key) is None]
    if missing:
        raise ConfigError(f"{label} needs {', '.join(missing)}")


def _kind(vals: Dict[str, object], key: str, table, default: str = "") -> str:
    kind = str(vals.get(key, default)).strip()
    if kind not in table:
        raise ConfigError(f"{key} must be one of {', '.join(table)}, got {kind!r}")
    return kind


def _build(vals: Dict[str, object], kind_key: str, table, default: str = ""):
    """The kind named by ``kind_key`` and the object its row of ``table``
    builds: the row's constructor called with the values of its keys, each
    of which must be set.  A :class:`BathtubError` from the constructor
    becomes a :class:`ConfigError` naming those keys."""
    kind = _kind(vals, kind_key, table, default)
    make, keys = table[kind]
    _need(vals, f"{kind_key}={kind}", keys)
    return kind, _call(", ".join(keys), make, *(vals[key] for key in keys))


def _call(label: str, make, *args):
    try:
        return make(*args)
    except ConfigError:
        raise
    except BathtubError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def _read_csv_columns(path: str, key: str) -> List[List[float]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"{key}: cannot read {path!r}: {exc}") from None
    rows = []
    for ln in lines:
        cells = [c.strip() for c in ln.split(",")]
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            if not rows:
                continue  # header row
            raise ConfigError(f"{key}: non-numeric row in {path!r}") from None
    if not rows:
        raise ConfigError(f"{key}: no numeric rows in {path!r}")
    return rows


def _two_columns(make, key: str, names: str):
    """A row constructor that reads the two-column table at the path set
    by ``key`` and returns ``make(first_column, second_column)``."""
    def build(path: str):
        rows = _read_csv_columns(path, key)
        if any(len(r) != 2 for r in rows):
            raise ConfigError(f"{key}: expected two columns {names}")
        return make([r[0] for r in rows], [r[1] for r in rows])
    return build


def _tabulated_survival(path: str) -> demand_mod.DistanceDistribution:
    rows = _read_csv_columns(path, "demand.table")
    x_grid, body = rows[0], rows[1:]
    if any(len(r) != len(x_grid) + 1 for r in body):
        raise ConfigError("demand.table: row lengths do not match the x grid")
    return demand_mod.TabulatedSurvival(x_grid, [r[0] for r in body],
                                        [r[1:] for r in body])


# The mean of a distance law: demand.distance.Btilde_nodes when given, else
# the constant demand.distance.B.  Not a config key, only a row's label.
_MEAN = "demand.distance.B or Btilde_nodes"

# kind -> (constructor, the keys whose values it takes in order)
_FD = {
    "triangular": (diagrams.Triangular, ("fd.u", "fd.w", "fd.kappa")),
    "trapezoidal": (diagrams.Trapezoidal, ("fd.u", "fd.C", "fd.w", "fd.kappa")),
    "greenshields": (diagrams.Greenshields, ("fd.u", "fd.kappa")),
    "tabulated": (_two_columns(diagrams.TabulatedSpeed, "fd.table", "density,speed"),
                  ("fd.table",)),
}
_INFLUX = {
    "zero": (demand_mod.ZeroInflux, ()),
    "constant": (demand_mod.ConstantInflux, ("demand.influx.rate",)),
    "pulse": (demand_mod.TrapezoidalPulse, ("demand.influx.ramp",
                                            "demand.influx.plateau",
                                            "demand.influx.end")),
    "piecewise_linear": (demand_mod.PiecewiseLinearInflux, ("demand.influx.nodes",)),
}
_DISTANCES = {
    "exponential": (demand_mod.ExponentialDistances, (_MEAN,)),
    "uniform": (demand_mod.UniformDistances, (_MEAN,)),
    "deterministic": (demand_mod.DeterministicDistances, (_MEAN,)),
    "tabulated": (_tabulated_survival, ("demand.table",)),
}
_IC = {
    "empty": (demand_mod.EmptyNetwork, ()),
    "exponential": (demand_mod.ExponentialProfile, ("ic.lambda0", "ic.B")),
    "tabulated": (_two_columns(demand_mod.TabulatedProfile, "ic.table", "x,count"),
                  ("ic.table",)),
}
_SCHEMES = ("characteristic", "integral")

# model.kind -> (keys it needs, the demand.distance.kind it solves or None
# for any, the outputs it can write)
_MODELS = {
    "generalized": (("grid.dx", "grid.X"), None, _OUTPUTS),
    "vickrey": (("grid.dt", "demand.distance.B"), "exponential", ("series", "audit")),
    "deterministic": (("grid.dz",), "deterministic", ("series",)),
    "constant": (("grid.dz", "demand.distance.B"), "deterministic", ("series", "audit")),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; unknown keys and bad values are errors."""
    return _config_from_raw(_scan(text))


def _config_from_raw(raw: Dict[str, object]) -> RunConfig:
    """Validate a scanned key -> value map into a :class:`RunConfig`."""
    unknown = sorted(set(raw) - _KNOWN)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
    # every numeric and node-list key is checked, whether or not a kind uses it
    vals = {key: _float(key, text) if key in _FLOAT_KEYS
            else _parse_nodes(key, text) if key in _NODE_KEYS else text
            for key, text in raw.items()}
    if "network.L" not in vals:
        raise ConfigError("network.L is required")
    if "grid.stop" not in vals:
        raise ConfigError("grid.stop is required (e.g. grid.stop = z:30)")

    nodes = vals.get("demand.distance.Btilde_nodes")
    vals[_MEAN] = (vals.get("demand.distance.B") if nodes is None else
                   _call("demand.distance.Btilde_nodes", PiecewiseLinear, *zip(*nodes)))

    _, fd = _build(vals, "fd.variant", _FD)
    _, influx = _build(vals, "demand.influx.kind", _INFLUX)
    dist_kind, distances = _build(vals, "demand.distance.kind", _DISTANCES)
    ic_kind, ic = _build(vals, "ic.kind", _IC, default="empty")
    model_kind = _kind(vals, "model.kind", _MODELS)
    scheme = _kind(vals, "model.scheme", _SCHEMES, default="characteristic")
    stop = _parse_stop(vals["grid.stop"])

    needs, model_distance, model_outputs = _MODELS[model_kind]
    _need(vals, f"model.kind={model_kind}", needs)
    if model_kind == "generalized" and scheme == "integral":
        _need(vals, "model.scheme=integral", ("grid.dt",))
    if model_distance not in (None, dist_kind):
        raise ConfigError(f"model.kind={model_kind} needs "
                          f"demand.distance.kind={model_distance}")
    if model_kind in ("vickrey", "constant"):
        _check_reduced(vals, model_kind, ic_kind, ic)
    outputs_raw = str(vals.get("outputs", "series"))
    outputs = tuple(s.strip() for s in outputs_raw.split(",") if s.strip())
    if not outputs:
        raise ConfigError("outputs: empty list")
    for o in outputs:
        if o not in _OUTPUTS:
            raise ConfigError(f"outputs: unknown output {o!r}")
        if o not in model_outputs:
            raise ConfigError(f"outputs={o} is not available for "
                              f"model.kind={model_kind}")

    return RunConfig(L=vals["network.L"], fd=fd, influx=influx,
                     distances=distances, btilde=vals[_MEAN], ic=ic,
                     model_kind=model_kind, scheme=scheme, stop=stop,
                     dx=vals.get("grid.dx"), X=vals.get("grid.X"),
                     dt=vals.get("grid.dt"), dz=vals.get("grid.dz"),
                     outputs=outputs, output_dir=str(vals.get("output_dir", ".")))


def _check_reduced(vals: Dict[str, object], model_kind: str, ic_kind: str,
                   ic: demand_mod.InitialCondition):
    """Reject, naming the key, what Vickrey's ODE and the constant-distance
    recursion cannot solve.  Both take one constant mean distance,
    ``demand.distance.B``, so B~ nodes beside it would go unread.  The
    recursion starts from an empty network and needs a whole number of
    ``grid.dz`` cells in B; the ODE starts empty or from an exponential
    profile with the same mean."""
    label = f"model.kind={model_kind}"
    if "demand.distance.Btilde_nodes" in vals:
        raise ConfigError(f"{label} takes the constant demand.distance.B; "
                          "remove demand.distance.Btilde_nodes")
    B = vals["demand.distance.B"]
    if model_kind == "constant":
        cells = B / vals["grid.dz"]  # the test solve_constant_distance makes
        if abs(cells - round(cells)) > 1e-9 * max(1.0, cells):
            raise ConfigError(f"{label} needs demand.distance.B = {B:g} to be a "
                              f"whole number of grid.dz = {vals['grid.dz']:g} cells")
    if ic.lambda0 == 0.0:
        return
    if model_kind == "constant" or ic_kind != "exponential":
        start = "an empty" if model_kind == "constant" else "an empty or exponential"
        raise ConfigError(f"{label} needs {start} start, got ic.kind={ic_kind} "
                          f"with {ic.lambda0:g} initial trips")
    if ic.B != B:
        raise ConfigError(f"{label} needs ic.B = demand.distance.B = {B:g}, "
                          f"got ic.B = {ic.B:g}")


def _parse_stop(text: str) -> Tuple[str, float]:
    text = str(text).strip()
    if ":" not in text:
        raise ConfigError("grid.stop: expected 'z:<miles>' or 't:<hours>'")
    kind, val = (p.strip() for p in text.split(":", 1))
    if kind not in ("z", "t"):
        raise ConfigError("grid.stop: kind must be 'z' or 't'")
    try:
        v = float(val)
    except ValueError:
        raise ConfigError(f"grid.stop: not a number: {val!r}") from None
    if not 0 < v < math.inf:
        raise ConfigError("grid.stop: target must be finite and positive")
    return kind, v


def execute(cfg: RunConfig):
    """Solve the configured model; returns the trajectory."""
    kind, val = cfg.stop
    horizon = (solver.MaxCumulativeDistance(val) if kind == "z"
               else solver.MaxTime(val))
    if cfg.model_kind == "generalized":
        grid = solver.GridSpec(dx=cfg.dx, X=cfg.X, horizon=horizon, dt=cfg.dt)
        scen = solver.Scenario(L=cfg.L, fd=cfg.fd, influx=cfg.influx,
                               distances=cfg.distances, grid=grid, ic=cfg.ic)
        if cfg.scheme == "integral":
            return solver.solve_integral(scen)
        return solver.solve_characteristic(scen)
    if cfg.model_kind == "vickrey":
        vc = special.VickreyConfig(L=cfg.L, fd=cfg.fd, B=cfg.distances.B,
                                   lambda0=cfg.ic.lambda0, influx=cfg.influx,
                                   dt=cfg.dt, horizon=horizon)
        return special.solve_vickrey(vc)
    dc = special.DeterministicConfig(L=cfg.L, fd=cfg.fd, btilde=cfg.btilde,
                                     influx=cfg.influx, dz=cfg.dz,
                                     horizon=horizon, ic=cfg.ic)
    if cfg.model_kind == "deterministic":
        return special.solve_deterministic(dc)
    traj, _frame = special.solve_constant_distance(dc)
    return traj


@contextmanager
def _csv_file(path: str, header):
    """``path`` open for a CSV file, UTF-8 with LF line ends, with its
    ``header`` cells written.  Every CSV output is written here.  A cell
    is written as ``str`` gives it: a string as it is, a float as the
    shortest decimal that reads back to the same float, so callers pass
    strings and floats only."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(map(str, header)) + "\n")
        yield fh


def _write_csv(path: str, header, rows, footer=()):
    """Write a CSV file: the ``header`` cells, one line per row of cells,
    then the ``footer`` lines as given."""
    with _csv_file(path, header) as fh:
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
        for line in footer:
            fh.write(line + "\n")


def _rows(*columns):
    """The rows of equal-length columns, one list of floats at a time: a
    list of every value at once would raise the peak memory."""
    return (row.tolist() for row in np.column_stack(columns))


def _write_series(path: str, traj: solver.Trajectory):
    data = traj.series  # t, z, lambda, v, f, F, g, G: the CSV's column order
    _write_csv(path, list(data), _rows(*data.values()))


def _ksurface_rows(t: np.ndarray, K: np.ndarray):
    """One CSV line per time in ``t`` and row of ``K``, with the bytes of
    ``",".join(map(str, [t_j, *K[j]]))`` and a line end, built one row at a
    time (a whole-array list is large).  ``str`` of a float depends only on
    its bits, so the cells after a row's last one whose bits are not those
    of +0.0 are written as "0.0", not formatted (a -0.0 has other bits and
    is formatted)."""
    cols = K.shape[1]
    for tj, row, bits in zip(t.tolist(), K, K.view(np.uint64)):
        nonzero = np.flatnonzero(bits)
        end = int(nonzero[-1]) + 1 if nonzero.size else 0
        yield (",".join(map(str, [tj, *row[:end].tolist()]))
               + ",0.0" * (cols - end) + "\n")


def _write_ksurface(path: str, traj: solver.Trajectory, blocks):
    """Write ``ksurface.csv``, one row per step of the ``(steps, rows)``
    ``blocks`` of K, and yield each block on once its rows are written, so
    that the audit can read the same blocks in the same pass."""
    with _csv_file(path, ["t", *traj.x_grid.tolist()]) as fh:
        for steps, K in blocks:
            fh.writelines(_ksurface_rows(traj.t[steps], K))
            yield steps, K


def _write_audit(path: str, traj: solver.Trajectory, blocks):
    rep = analysis.audit(traj, profiles=blocks)
    _write_csv(path, ["t", "total_trip_residual", "trip_miles_residual"],
               _rows(rep.t, rep.total_trip_steps, rep.trip_miles_steps),
               [f"# max_total_trip_residual = {rep.total_trip_residual}",
                f"# max_trip_miles_residual = {rep.trip_miles_residual}",
                f"# truncation_mass = {rep.truncation_mass}",
                f"# monotonicity_violations = {rep.monotonicity_violations}"])


def _write_traveltimes(path: str, traj: solver.Trajectory):
    def rows():
        for t in traj.t[solver._even_steps(traj.n_steps, _TRAVELTIME_SAMPLES)].tolist():
            try:
                est = analysis.average_travel_time(traj, traj.distances, t)
            except BathtubError:
                continue
            yield t, est.exact, est.entry_speed, est.exit_speed
    _write_csv(path, ["t_enter", "exact", "entry_speed", "exit_speed"], rows())


def run(cfg: RunConfig, output_dir: Optional[str] = None) -> int:
    """Execute a config and write its outputs; returns the exit status."""
    out = output_dir if output_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    traj = execute(cfg)
    if "series" in cfg.outputs:
        _write_series(os.path.join(out, "series.csv"), traj)
    # One pass over blocks of K rows serves ksurface and the audit: the
    # audit's steps are among ksurface's, all of a characteristic run's,
    # else at most 129 of 257 evenly spaced ones (linspace(0, n - 1, 129)[i]
    # is linspace(0, n - 1, 257)[2 i]).  Without ksurface the audit reads
    # only its own rows.
    blocks = None
    if "ksurface" in cfg.outputs:
        steps = traj.profile_steps(257, "max_rows")
        blocks = _write_ksurface(os.path.join(out, "ksurface.csv"), traj,
                                 traj.profile_blocks(steps))
    if "audit" in cfg.outputs:
        _write_audit(os.path.join(out, "audit.csv"), traj, blocks)
    elif blocks is not None:
        for _ in blocks:
            pass
    if "traveltimes" in cfg.outputs:
        _write_traveltimes(os.path.join(out, "traveltimes.csv"), traj)
    return 0 if traj.termination is solver.Termination.HORIZON else 2


def _sweep_row(raw: Dict[str, object], value: float) -> dict:
    """The summary row of one sweep level: the config ``raw`` is parsed
    and solved here and only the row is returned, so a level's trajectory
    is freed before the next level solves."""
    row = {"value": value, "status": "ok", "termination": "",  # the CSV's columns
           "peak_lambda": float("nan"), "peak_t": float("nan"),
           "time_to_target": float("nan")}
    try:
        cfg = _config_from_raw(raw)
        traj = execute(cfg)
        j = int(np.argmax(traj.lam))
        row["termination"] = traj.termination.value
        row["peak_lambda"] = float(traj.lam[j])
        row["peak_t"] = float(traj.t[j])
        if cfg.stop[0] == "z" and traj.termination is solver.Termination.HORIZON:
            row["time_to_target"] = traj.time_to_distance(cfg.stop[1])
    except BathtubError as exc:
        status = f"failed: {exc}"
        if any(c in status for c in ',"\r\n'):  # quoted as RFC 4180 asks
            status = '"' + status.replace('"', '""') + '"'
        row["status"] = status
    return row


def sweep(text: str, param: str, values: Sequence[float],
          output_dir: str = ".") -> int:
    """Run one job per parameter value and write a summary CSV.

    Each row records the peak trip count, its time, the termination reason
    and (for distance-stopped runs) the time to reach the z target.  When
    the swept key is ``grid.dx`` and a z stop is set, an observed-order
    estimate is appended to ``convergence.csv``.
    """
    if param not in _FLOAT_KEYS:
        raise ConfigError(f"sweep parameter must be a numeric key, got {param!r}")
    if len(values) == 0:
        raise ConfigError("sweep needs a non-empty value list")
    values = [float(v) for v in values]  # an int value is written as a float
    base_raw = _scan(text)
    os.makedirs(output_dir, exist_ok=True)
    rows = [_sweep_row({**base_raw, param: repr(v)}, v) for v in values]
    _write_csv(os.path.join(output_dir, "summary.csv"), list(rows[0]),
               (list(row.values()) for row in rows))
    targets = [row["time_to_target"] for row in rows]  # NaN where a run failed
    if param == "grid.dx" and len(values) >= 3 and not any(np.isnan(targets)):
        diffs = [targets[i] - targets[i + 1] for i in range(len(targets) - 1)]
        _, orders = analysis.observed_orders(diffs)
        _write_csv(os.path.join(output_dir, "convergence.csv"),
                   ["dx_coarse", "dx_fine", "target_coarse", "target_fine", "order"],
                   zip(values, values[1:], targets, targets[1:], orders))
    return 0 if all(row["status"] == "ok" for row in rows) else 1


def _read_config(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None


def load_config(path: str) -> RunConfig:
    return parse_config(_read_config(path))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bathtub",
        description="Network trip-flow reservoir simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one configured scenario")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_sweep = sub.add_parser("sweep", help="run a one-parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            code = run(cfg, output_dir=args.out)
            print(f"termination: "
                  f"{'Gridlock' if code == 2 else 'HorizonReached'}")
            return code
        text = _read_config(args.config)
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ConfigError("--values must be comma-separated numbers") from None
        out = args.out if args.out is not None else "."
        return sweep(text, args.param, values, output_dir=out)
    except BathtubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
