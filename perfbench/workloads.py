"""Workloads of the bathtub benchmark: seeded inputs, one pass of each
workload, and the checks run on every pass's outputs.

The program under test is the ``bathtub`` package in ``src/`` of the
checkout; this module imports it, so the caller puts ``src`` on
``sys.path`` first.  Every workload is the paper's peak-period example
(trapezoidal law u=30, C=750, w=10, kappa=200 on L=10 lane-miles, pulse
10000/4000/1.0, uniform distances with Btilde nodes 0:2, 0.4:5, 0.6:5,
1.0:2, X=5, stop at z=30) solved by a different path through the code.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from bathtub import cli, diagrams, demand, piecewise, solver, special

# Largest relative change a seed applies to the ramp, the plateau and the
# Btilde peak.  Seed 0 is the paper config unchanged.
PERTURBATION = 0.02

SWEEP_DX = (2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)
SWEEP_DT = 2.0**-7 / 30.0
ORDER_RANGE = (0.7, 1.3)
REL_TOL = 1e-9

# Accuracy values of seed 0 taken at the seed commit (full float precision).
REFERENCE = {
    "char_cli": {"t30_h": 1.6841039344037754, "peak_lambda": 1347.1039892211027},
    "integral_cli": {"t30_h": 1.6711164048162632,
                     "peak_lambda": 1332.8809286070352},
    "integral_sweep": {
        "t30_h": [1.6730898143517139, 1.675694485940834,
                  1.6769962385476502, 1.6776467757520892],
        "peak_lambda": [1336.6320021299655, 1338.9610424917694,
                        1340.1331926919222, 1340.7216197976707]},
    "reduced_scalar": {
        "t30_h": [1.0190181818692492, 1.0628604447032177, 3.606587942065082],
        "peak_lambda": [286.824118502277, 355.41467633319644,
                        1893.7016196090008]},
}


def demand_factors(seed: int) -> Dict[str, float]:
    """Multipliers for the ramp, the plateau and the Btilde peak."""
    if seed == 0:
        return {"ramp": 1.0, "plateau": 1.0, "btilde_peak": 1.0}
    rng = random.Random(seed)
    return {k: 1.0 + rng.uniform(-PERTURBATION, PERTURBATION)
            for k in ("ramp", "plateau", "btilde_peak")}


def config_text(seed: int, extra: Dict[str, str]) -> str:
    """The paper config with the seed's demand, plus ``extra`` keys."""
    fac = demand_factors(seed)
    peak = repr(5.0 * fac["btilde_peak"])
    keys = {
        "network.L": "10", "fd.variant": "trapezoidal", "fd.u": "30",
        "fd.C": "750", "fd.w": "10", "fd.kappa": "200",
        "demand.influx.kind": "pulse",
        "demand.influx.ramp": repr(10000.0 * fac["ramp"]),
        "demand.influx.plateau": repr(4000.0 * fac["plateau"]),
        "demand.influx.end": "1.0",
        "demand.distance.kind": "uniform",
        "demand.distance.Btilde_nodes": f"0:2, 0.4:{peak}, 0.6:{peak}, 1.0:2",
        "grid.X": "5", "grid.stop": "z:30", "model.kind": "generalized",
    }
    keys.update(extra)
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _t30(t: np.ndarray, z: np.ndarray) -> float:
    # Trajectory.time_to_distance(30.0) for a trajectory read back from
    # series.csv; z reaches 30 on every run, since the horizon is z:30
    zz, idx = np.unique(z, return_index=True)
    return float(np.interp(30.0, zz, t[idx]))


def _reference_failures(name: str, got: Dict[str, object]) -> List[str]:
    out = []
    for key, ref in REFERENCE[name].items():
        vals = np.atleast_1d(got[key])
        refs = np.atleast_1d(ref)
        if vals.shape != refs.shape:
            out.append(f"{key}: {vals.size} values, expected {refs.size}")
            continue
        for v, r in zip(vals, refs):
            if not _rel_err(float(v), float(r)) <= REL_TOL:
                out.append(f"{key} = {float(v)!r} differs from the seed-commit "
                           f"value {float(r)!r}")
    return out


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One workload: ``write_inputs`` from a seed, ``build`` them (the part
    timed as set-up), ``run_pass`` (the timed part) and ``check`` its
    outputs, returning the failures and the accuracy values."""

    name = ""

    def accuracy_extra(self, built, out: Path) -> Dict[str, float]:
        """Accuracy values computed once per run, outside the passes."""
        return {}


class CliRun(Workload):
    """``cli.run`` of the paper config with all four outputs."""

    outputs = "series,ksurface,audit,traveltimes"

    def __init__(self, name: str, extra: Dict[str, str]):
        self.name = name
        self.extra = dict(extra, outputs=self.outputs)

    def write_inputs(self, seed: int, work: Path) -> Path:
        path = work / "input.conf"
        path.write_text(config_text(seed, self.extra), encoding="utf-8")
        return path

    def build(self, path: Path):
        cfg = cli.load_config(str(path))
        return cfg, scenario_of(cfg)

    def run_pass(self, built, out: Path):
        cfg, _scen = built
        return cli.run(cfg, output_dir=str(out))

    def check(self, status, built, out: Path, seed: int) -> Tuple[List[str], Dict]:
        cfg, _scen = built
        fails = []
        if status != 0:
            fails.append(f"termination is not HorizonReached (exit status {status})")
        series = _read_csv(out / "series.csv")
        t, z, lam, F, G = (series[:, i] for i in (0, 1, 2, 5, 7))
        scale = np.maximum(lam[0] + F, 1e-12)
        g_err = float(np.max(np.abs(G - (lam[0] + F - lam)) / scale))
        if not g_err <= REL_TOL:
            fails.append(f"G = lambda(0) + F - lambda off by {g_err:.3g} relative")

        footer = {}
        for line in (out / "audit.csv").read_text(encoding="utf-8").splitlines():
            if line.startswith("# "):
                key, _, val = line[2:].partition(" = ")
                footer[key] = val
        if footer.get("monotonicity_violations") != "0":
            fails.append("audit monotonicity_violations = "
                         f"{footer.get('monotonicity_violations')}")

        fails += _check_ksurface(out / "ksurface.csv", t, lam, stored=cfg.scheme != "integral")

        tt = _read_csv(out / "traveltimes.csv")
        if tt.shape[0] < 1 or not np.all(np.isfinite(tt)) or not np.all(tt[:, 1:] > 0):
            fails.append("traveltimes.csv has no rows or non-positive times")

        acc = {"t30_h": _t30(t, z), "peak_lambda": float(lam.max())}
        if seed == 0:
            fails += _reference_failures(self.name, acc)
        return fails, acc

    def accuracy_extra(self, built, out: Path) -> Dict[str, float]:
        """Criterion-06 gap/dx of an integral run against a characteristic
        solve at the same dx; reported, never checked."""
        cfg, scen = built
        if cfg.scheme != "integral":
            return {}
        series = _read_csv(out / "series.csv")
        ti, zi = series[:, 0], series[:, 1]
        char = solver.solve_characteristic(scen)
        tg = ti[ti <= min(char.t[-1], ti[-1])]
        gap = float(np.max(np.abs(np.interp(tg, char.t, char.z) - zi[:tg.size])))
        return {"crit06_gap_over_dx": gap / cfg.dx}


def _check_ksurface(path: Path, t: np.ndarray, lam: np.ndarray,
                    stored: bool) -> List[str]:
    surf = _read_csv(path)
    rows_t, K = surf[:, 0], surf[:, 1:]
    fails = []
    expect_rows = t.size if stored else min(257, t.size)
    if K.shape[0] != expect_rows:
        fails.append(f"ksurface.csv has {K.shape[0]} rows, expected {expect_rows}")
    tol = 1e-9 * max(1.0, float(lam.max()))
    if np.any(K < 0) or np.any(np.diff(K, axis=1) > tol):
        fails.append("ksurface K is negative or increases in x")
    j = np.searchsorted(t, rows_t)
    if np.any(j >= t.size) or np.any(t[np.minimum(j, t.size - 1)] != rows_t):
        fails.append("ksurface row times are not series times")
    elif np.max(np.abs(K[:, 0] - lam[j])) > tol:
        fails.append("ksurface K(t, 0) differs from the series lambda")
    return fails


class Sweep(Workload):
    """``cli.sweep`` of the integral config over grid.dx, dt fixed."""

    name = "integral_sweep"

    def write_inputs(self, seed: int, work: Path) -> Path:
        path = work / "input.conf"
        text = config_text(seed, {"model.scheme": "integral",
                                  "grid.dx": repr(SWEEP_DX[0]),
                                  "grid.dt": repr(SWEEP_DT),
                                  "outputs": "series"})
        path.write_text(text, encoding="utf-8")
        return path

    def build(self, path: Path):
        text = path.read_text(encoding="utf-8")
        cfg = cli.parse_config(text)
        return text, scenario_of(cfg)

    def run_pass(self, built, out: Path):
        text, _scen = built
        return cli.sweep(text, "grid.dx", SWEEP_DX, output_dir=str(out))

    def check(self, status, built, out: Path, seed: int) -> Tuple[List[str], Dict]:
        fails = []
        if status != 0:
            fails.append(f"sweep exit status {status}")
        lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        rows = [ln.split(",") for ln in lines]
        bad = [r[0] for r in rows if r[1] != "ok" or r[2] != "HorizonReached"]
        if bad or len(rows) != len(SWEEP_DX):
            fails.append(f"sweep runs not ok or not HorizonReached: {bad}")
        conv = _read_csv(out / "convergence.csv")
        orders = conv[:, 4]
        if orders.size != len(SWEEP_DX) - 2 or not np.all(
                (orders >= ORDER_RANGE[0]) & (orders <= ORDER_RANGE[1])):
            fails.append(f"observed orders {orders.tolist()} outside {ORDER_RANGE}")
        acc = {"t30_h": [float(r[5]) for r in rows],
               "peak_lambda": [float(r[3]) for r in rows],
               "orders": orders.tolist()}
        if seed == 0:
            fails += _reference_failures(self.name, acc)
        return fails, acc


class Reduced(Workload):
    """The Vickrey, constant-distance and deterministic solvers as library
    calls."""

    name = "reduced_scalar"

    def write_inputs(self, seed: int, work: Path) -> Path:
        path = work / "input.json"
        path.write_text(json.dumps(demand_factors(seed)), encoding="utf-8")
        return path

    def build(self, path: Path):
        fac = json.loads(path.read_text(encoding="utf-8"))
        fd = diagrams.Trapezoidal(u=30.0, C=750.0, w=10.0, kappa=200.0)
        pulse = demand.TrapezoidalPulse(ramp=10000.0 * fac["ramp"],
                                        plateau=4000.0 * fac["plateau"], end=1.0)
        peak = 5.0 * fac["btilde_peak"]
        btilde = piecewise.PiecewiseLinear([0.0, 0.4, 0.6, 1.0],
                                           [2.0, peak, peak, 2.0])
        stop = solver.MaxCumulativeDistance(30.0)
        vickrey = special.VickreyConfig(L=10.0, fd=fd, B=2.0, lambda0=0.0,
                                        influx=pulse, dt=2e-5, horizon=stop)
        constant = special.DeterministicConfig(L=10.0, fd=fd, btilde=2.0,
                                               influx=pulse, dz=2.0**-10,
                                               horizon=stop)
        determ = special.DeterministicConfig(L=10.0, fd=fd, btilde=btilde,
                                             influx=pulse, dz=2.0**-8,
                                             horizon=stop)
        return vickrey, constant, determ

    def run_pass(self, built, out: Path):
        vickrey, constant, determ = built
        return (special.solve_vickrey(vickrey),
                special.solve_constant_distance(constant)[0],
                special.solve_deterministic(determ))

    def check(self, trajs, built, out: Path, seed: int) -> Tuple[List[str], Dict]:
        fails = []
        for label, tr in zip(("vickrey", "constant", "deterministic"), trajs):
            if tr.termination is not solver.Termination.HORIZON:
                fails.append(f"{label}: termination {tr.termination.value}")
            scale = np.maximum(tr.lam[0] + tr.F, 1e-12)
            g_err = float(np.max(np.abs(tr.G - (tr.lam[0] + tr.F - tr.lam)) / scale))
            if not g_err <= REL_TOL:
                fails.append(f"{label}: G identity off by {g_err:.3g} relative")
        acc = {"t30_h": [tr.time_to_distance(30.0) for tr in trajs],
               "peak_lambda": [float(tr.lam.max()) for tr in trajs]}
        if seed == 0:
            fails += _reference_failures(self.name, acc)
        return fails, acc


def scenario_of(cfg) -> solver.Scenario:
    """The scenario ``cli.execute`` builds for a generalized config.

    A copy of that construction, since ``cli`` offers no function returning
    it; set-up time counts this build, and ``integral_cli`` solves it with
    the characteristic scheme for the criterion-06 gap.  It must follow any
    change to ``cli.execute``.
    """
    kind, val = cfg.stop
    horizon = (solver.MaxCumulativeDistance(val) if kind == "z"
               else solver.MaxTime(val))
    grid = solver.GridSpec(dx=cfg.dx, X=cfg.X, horizon=horizon, dt=cfg.dt)
    return solver.Scenario(L=cfg.L, fd=cfg.fd, influx=cfg.influx,
                           distances=cfg.distances, grid=grid, ic=cfg.ic)


WORKLOADS = {w.name: w for w in (
    CliRun("char_cli", {"grid.dx": repr(2.0**-6)}),
    CliRun("integral_cli", {"grid.dx": repr(2.0**-5), "model.scheme": "integral",
                            "grid.dt": repr(2.0**-5 / 30.0)}),
    Sweep(),
    Reduced(),
)}
