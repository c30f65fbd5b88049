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
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, demand as demand_mod, diagrams, solver, special
from .errors import BathtubError, ConfigError

_FLOAT_KEYS = {
    "network.L": (0.0, False), "fd.u": (0.0, False), "fd.w": (0.0, False),
    "fd.kappa": (0.0, False), "fd.C": (0.0, False),
    "demand.influx.ramp": (0.0, False), "demand.influx.plateau": (0.0, False),
    "demand.influx.end": (0.0, False), "demand.influx.rate": (0.0, True),
    "demand.distance.B": (0.0, False), "ic.lambda0": (0.0, True),
    "ic.B": (0.0, False), "grid.dx": (0.0, False), "grid.X": (0.0, False),
    "grid.dt": (0.0, False), "grid.dz": (0.0, False),
}
_STR_KEYS = {"fd.variant", "demand.influx.kind", "demand.distance.kind",
             "demand.table", "fd.table", "ic.kind", "ic.table", "grid.stop",
             "model.kind", "model.scheme", "outputs", "output_dir"}
_NODE_KEYS = {"demand.distance.Btilde_nodes", "demand.influx.nodes"}
_KNOWN = set(_FLOAT_KEYS) | _STR_KEYS | _NODE_KEYS

_OUTPUTS = ("series", "ksurface", "audit", "traveltimes")


@dataclass
class RunConfig:
    """Validated run description built from a parsed config."""

    L: float
    fd: diagrams.FundamentalDiagram
    influx: demand_mod.InfluxProfile
    distance_kind: str
    distances: Optional[demand_mod.DistanceDistribution]
    btilde: object
    B: Optional[float]
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


def _get_float(raw: Dict[str, object], key: str) -> Optional[float]:
    if key not in raw:
        return None
    try:
        v = float(raw[key])  # type: ignore[arg-type]
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw[key]!r}") from None
    lo, inclusive = _FLOAT_KEYS[key]
    if (v < lo) or (v == lo and not inclusive):
        bound = "non-negative" if inclusive else "positive"
        raise ConfigError(f"{key}: must be {bound}, got {v}")
    return v


def _require(raw, key, kind_desc):
    if key not in raw:
        raise ConfigError(f"{key} is required {kind_desc}")
    return raw[key]


def _read_csv_columns(path: str, key: str) -> np.ndarray:
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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; unknown keys and bad values are errors."""
    return _config_from_raw(_scan(text))


def _config_from_raw(raw: Dict[str, object]) -> RunConfig:
    """Validate a scanned key -> value map into a :class:`RunConfig`."""
    unknown = sorted(set(raw) - _KNOWN)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")

    L = _get_float(raw, "network.L")
    if L is None:
        raise ConfigError("network.L is required")

    fd = _build_fd(raw)
    influx = _build_influx(raw)
    model_kind = str(raw.get("model.kind", "")).strip()
    if model_kind not in ("generalized", "vickrey", "deterministic", "constant"):
        raise ConfigError("model.kind must be one of generalized, vickrey, "
                          "deterministic, constant")
    scheme = str(raw.get("model.scheme", "characteristic")).strip()
    if scheme not in ("characteristic", "integral"):
        raise ConfigError("model.scheme must be characteristic or integral")

    dist_kind, distances, btilde, B = _build_distances(raw, model_kind)
    ic = _build_ic(raw)
    stop = _parse_stop(_require(raw, "grid.stop", "(e.g. grid.stop = z:30)"))

    outputs_raw = str(raw.get("outputs", "series"))
    outputs = tuple(s.strip() for s in outputs_raw.split(",") if s.strip())
    for o in outputs:
        if o not in _OUTPUTS:
            raise ConfigError(f"outputs: unknown output {o!r}")
    if not outputs:
        raise ConfigError("outputs: empty list")

    cfg = RunConfig(L=L, fd=fd, influx=influx, distance_kind=dist_kind,
                    distances=distances, btilde=btilde, B=B, ic=ic,
                    model_kind=model_kind, scheme=scheme, stop=stop,
                    dx=_get_float(raw, "grid.dx"), X=_get_float(raw, "grid.X"),
                    dt=_get_float(raw, "grid.dt"), dz=_get_float(raw, "grid.dz"),
                    outputs=outputs,
                    output_dir=str(raw.get("output_dir", ".")))
    _validate_model_requirements(cfg)
    return cfg


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
    if v <= 0:
        raise ConfigError("grid.stop: target must be positive")
    return kind, v


def _build_fd(raw) -> diagrams.FundamentalDiagram:
    variant = str(_require(raw, "fd.variant", "")).strip()
    u = _get_float(raw, "fd.u")
    w = _get_float(raw, "fd.w")
    kappa = _get_float(raw, "fd.kappa")
    C = _get_float(raw, "fd.C")
    if variant == "triangular":
        if None in (u, w, kappa):
            raise ConfigError("fd.variant=triangular needs fd.u, fd.w, fd.kappa")
        return diagrams.Triangular(u=u, w=w, kappa=kappa)
    if variant == "trapezoidal":
        if None in (u, C, w, kappa):
            raise ConfigError("fd.variant=trapezoidal needs fd.u, fd.C, fd.w, "
                              "fd.kappa")
        return diagrams.Trapezoidal(u=u, C=C, w=w, kappa=kappa)
    if variant == "greenshields":
        if None in (u, kappa):
            raise ConfigError("fd.variant=greenshields needs fd.u, fd.kappa")
        return diagrams.Greenshields(u=u, kappa=kappa)
    if variant == "tabulated":
        path = _require(raw, "fd.table", "for fd.variant=tabulated")
        rows = _read_csv_columns(str(path), "fd.table")
        if any(len(r) != 2 for r in rows):
            raise ConfigError("fd.table: expected two columns density,speed")
        d = [r[0] for r in rows]
        v = [r[1] for r in rows]
        try:
            return diagrams.TabulatedSpeed(tuple(d), tuple(v))
        except BathtubError as exc:
            raise ConfigError(f"fd.table: {exc}") from None
    raise ConfigError(f"fd.variant: unknown variant {variant!r}")


def _build_influx(raw) -> demand_mod.InfluxProfile:
    kind = str(_require(raw, "demand.influx.kind", "")).strip()
    if kind == "zero":
        return demand_mod.ZeroInflux()
    if kind == "constant":
        rate = _get_float(raw, "demand.influx.rate")
        if rate is None:
            raise ConfigError("demand.influx.kind=constant needs "
                              "demand.influx.rate")
        return demand_mod.ConstantInflux(rate)
    if kind == "pulse":
        ramp = _get_float(raw, "demand.influx.ramp")
        plateau = _get_float(raw, "demand.influx.plateau")
        end = _get_float(raw, "demand.influx.end")
        if None in (ramp, plateau, end):
            raise ConfigError("demand.influx.kind=pulse needs ramp, plateau, end")
        return demand_mod.TrapezoidalPulse(ramp=ramp, plateau=plateau, end=end)
    if kind == "piecewise_linear":
        if "demand.influx.nodes" not in raw:
            raise ConfigError("demand.influx.kind=piecewise_linear needs "
                              "demand.influx.nodes")
        nodes = _parse_nodes("demand.influx.nodes", raw["demand.influx.nodes"])
        try:
            return demand_mod.PiecewiseLinearInflux(nodes)
        except BathtubError as exc:
            raise ConfigError(f"demand.influx.nodes: {exc}") from None
    raise ConfigError(f"demand.influx.kind: unknown kind {kind!r}")


def _btilde_profile(raw):
    from .piecewise import PiecewiseLinear
    if "demand.distance.Btilde_nodes" in raw:
        nodes = _parse_nodes("demand.distance.Btilde_nodes",
                             raw["demand.distance.Btilde_nodes"])
        ts = [a for a, _ in nodes]
        bs = [b for _, b in nodes]
        try:
            return PiecewiseLinear(ts, bs, extend="clamp")
        except BathtubError as exc:
            raise ConfigError(f"demand.distance.Btilde_nodes: {exc}") from None
    return None


def _build_distances(raw, model_kind):
    kind = str(_require(raw, "demand.distance.kind", "")).strip()
    B = _get_float(raw, "demand.distance.B")
    btilde = _btilde_profile(raw)
    param = btilde if btilde is not None else B
    try:
        if kind == "exponential":
            if param is None:
                raise ConfigError("demand.distance.B or Btilde_nodes required")
            return kind, demand_mod.ExponentialDistances(param), param, B
        if kind == "uniform":
            if param is None:
                raise ConfigError("demand.distance.B or Btilde_nodes required")
            return kind, demand_mod.UniformDistances(param), param, B
        if kind == "deterministic":
            if param is None:
                raise ConfigError("demand.distance.B or Btilde_nodes required")
            return kind, demand_mod.DeterministicDistances(param), param, B
        if kind == "tabulated":
            path = _require(raw, "demand.table", "for demand.distance.kind=tabulated")
            rows = _read_csv_columns(str(path), "demand.table")
            x_grid = rows[0]
            t_grid = [r[0] for r in rows[1:]]
            values = [r[1:] for r in rows[1:]]
            if any(len(v) != len(x_grid) for v in values):
                raise ConfigError("demand.table: row lengths do not match the "
                                  "x grid")
            dist = demand_mod.TabulatedSurvival(x_grid, t_grid, values)
            return kind, dist, None, None
    except ConfigError:
        raise
    except BathtubError as exc:
        raise ConfigError(f"demand.distance: {exc}") from None
    raise ConfigError(f"demand.distance.kind: unknown kind {kind!r}")


def _build_ic(raw) -> demand_mod.InitialCondition:
    kind = str(raw.get("ic.kind", "empty")).strip()
    try:
        if kind == "empty":
            return demand_mod.EmptyNetwork()
        if kind == "exponential":
            lam0 = _get_float(raw, "ic.lambda0")
            B = _get_float(raw, "ic.B")
            if None in (lam0, B):
                raise ConfigError("ic.kind=exponential needs ic.lambda0, ic.B")
            return demand_mod.ExponentialProfile(lam0, B)
        if kind == "tabulated":
            path = _require(raw, "ic.table", "for ic.kind=tabulated")
            rows = _read_csv_columns(str(path), "ic.table")
            if any(len(r) != 2 for r in rows):
                raise ConfigError("ic.table: expected two columns x,count")
            return demand_mod.TabulatedProfile([r[0] for r in rows],
                                               [r[1] for r in rows])
    except ConfigError:
        raise
    except BathtubError as exc:
        raise ConfigError(f"ic: {exc}") from None
    raise ConfigError(f"ic.kind: unknown kind {kind!r}")


def _validate_model_requirements(cfg: RunConfig):
    kind = cfg.model_kind
    if kind == "generalized":
        if cfg.dx is None or cfg.X is None:
            raise ConfigError("model.kind=generalized needs grid.dx and grid.X")
        if cfg.scheme == "integral" and cfg.dt is None:
            raise ConfigError("model.scheme=integral needs grid.dt")
    elif kind == "vickrey":
        if cfg.dt is None:
            raise ConfigError("model.kind=vickrey needs grid.dt")
        if cfg.distance_kind != "exponential" or cfg.B is None:
            raise ConfigError("model.kind=vickrey needs "
                              "demand.distance.kind=exponential with a "
                              "constant demand.distance.B")
    elif kind in ("deterministic", "constant"):
        if cfg.dz is None:
            raise ConfigError(f"model.kind={kind} needs grid.dz")
        if cfg.distance_kind != "deterministic":
            raise ConfigError(f"model.kind={kind} needs "
                              "demand.distance.kind=deterministic")
        if kind == "constant" and cfg.B is None:
            raise ConfigError("model.kind=constant needs a constant "
                              "demand.distance.B")
    if "ksurface" in cfg.outputs and kind != "generalized":
        raise ConfigError("outputs=ksurface requires model.kind=generalized")
    if "traveltimes" in cfg.outputs and kind != "generalized":
        raise ConfigError("outputs=traveltimes requires model.kind=generalized")
    if "audit" in cfg.outputs and kind in ("deterministic",):
        raise ConfigError("outputs=audit is not available for "
                          "model.kind=deterministic")


def _horizon(cfg: RunConfig):
    kind, val = cfg.stop
    if kind == "z":
        return solver.MaxCumulativeDistance(val)
    return solver.MaxTime(val)


def execute(cfg: RunConfig):
    """Solve the configured model; returns the trajectory."""
    horizon = _horizon(cfg)
    if cfg.model_kind == "generalized":
        grid = solver.GridSpec(dx=cfg.dx, X=cfg.X, horizon=horizon, dt=cfg.dt)
        scen = solver.Scenario(L=cfg.L, fd=cfg.fd, influx=cfg.influx,
                               distances=cfg.distances, grid=grid, ic=cfg.ic)
        if cfg.scheme == "integral":
            return solver.solve_integral(scen)
        return solver.solve_characteristic(scen)
    if cfg.model_kind == "vickrey":
        vc = special.VickreyConfig(L=cfg.L, fd=cfg.fd, B=cfg.B,
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


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_series(path: str, traj: solver.Trajectory):
    cols = ["t", "z", "lambda", "v", "f", "F", "g", "G"]
    data = traj.series
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(traj.n_steps):
            fh.write(",".join(_fmt(data[c][i]) for c in cols) + "\n")


def _write_ksurface(path: str, traj: solver.Trajectory, max_rows: int = 257):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(_fmt(x) for x in traj.x_grid) + "\n")
        for j in traj.profile_steps(max_rows):
            fh.write(_fmt(traj.t[j]) + "," +
                     ",".join(_fmt(v) for v in traj.profile(j)) + "\n")


def _write_audit(path: str, traj: solver.Trajectory,
                 dist: demand_mod.DistanceDistribution):
    rep = analysis.audit(traj, dist)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,total_trip_residual,trip_miles_residual\n")
        for i in range(rep.t.size):
            fh.write(",".join([_fmt(rep.t[i]), _fmt(rep.total_trip_steps[i]),
                               _fmt(rep.trip_miles_steps[i])]) + "\n")
        fh.write(f"# max_total_trip_residual = {_fmt(rep.total_trip_residual)}\n")
        fh.write(f"# max_trip_miles_residual = {_fmt(rep.trip_miles_residual)}\n")
        fh.write(f"# truncation_mass = {_fmt(rep.truncation_mass)}\n")
        fh.write(f"# monotonicity_violations = {rep.monotonicity_violations}\n")


def _write_traveltimes(path: str, traj: solver.Trajectory,
                       dist: demand_mod.DistanceDistribution, samples: int = 65):
    ts = np.unique(np.linspace(0, traj.n_steps - 1,
                               min(samples, traj.n_steps)).astype(int))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_enter,exact,entry_speed,exit_speed\n")
        for j in ts:
            t = float(traj.t[j])
            try:
                est = analysis.average_travel_time(traj, dist, t)
            except BathtubError:
                continue
            fh.write(",".join([_fmt(t), _fmt(est.exact), _fmt(est.entry_speed),
                               _fmt(est.exit_speed)]) + "\n")


def run(cfg: RunConfig, output_dir: Optional[str] = None) -> int:
    """Execute a config and write its outputs; returns the exit status."""
    out = output_dir if output_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    traj = execute(cfg)
    if "series" in cfg.outputs:
        _write_series(os.path.join(out, "series.csv"), traj)
    if "ksurface" in cfg.outputs:
        _write_ksurface(os.path.join(out, "ksurface.csv"), traj)
    if "audit" in cfg.outputs:
        _write_audit(os.path.join(out, "audit.csv"), traj, cfg.distances)
    if "traveltimes" in cfg.outputs:
        _write_traveltimes(os.path.join(out, "traveltimes.csv"), traj,
                           cfg.distances)
    return 0 if traj.termination is solver.Termination.HORIZON else 2


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
    base_raw = _scan(text)
    os.makedirs(output_dir, exist_ok=True)
    rows = []
    any_failed = False
    targets = []
    for v in values:
        raw = dict(base_raw)
        raw[param] = repr(float(v))
        row = {"value": float(v), "status": "ok", "termination": "",
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
            row["status"] = f"failed: {exc}"
            any_failed = True
        rows.append(row)
        targets.append(row["time_to_target"])
    cols = ["value", "status", "termination", "peak_lambda", "peak_t",
            "time_to_target"]
    with open(os.path.join(output_dir, "summary.csv"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = [repr(row["value"]), row["status"], row["termination"],
                     _fmt(row["peak_lambda"]), _fmt(row["peak_t"]),
                     _fmt(row["time_to_target"])]
            fh.write(",".join(cells) + "\n")
    if param == "grid.dx" and len(values) >= 3 and not any_failed \
            and not any(np.isnan(targets)):
        diffs = [targets[i] - targets[i + 1] for i in range(len(targets) - 1)]
        with open(os.path.join(output_dir, "convergence.csv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write("dx_coarse,dx_fine,target_coarse,target_fine,order\n")
            for i in range(len(diffs) - 1):
                if diffs[i + 1] == 0 or diffs[i] * diffs[i + 1] <= 0:
                    order = float("nan")
                else:
                    order = float(np.log2(abs(diffs[i] / diffs[i + 1])))
                fh.write(",".join([repr(float(values[i])),
                                   repr(float(values[i + 1])),
                                   _fmt(targets[i]), _fmt(targets[i + 1]),
                                   _fmt(order)]) + "\n")
    return 1 if any_failed else 0


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None


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
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
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
