#!/usr/bin/env python3
"""Benchmark of the bathtub simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload char_cli --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seconds 16

``--trace 0`` times whole passes and prints the end-to-end metrics
(times scaled to a nominal machine speed, see speed.py);
``--trace 1`` wraps the package's layers in span-recording wrappers and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

# single-threaded BLAS, fixed before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("char_cli", "integral_cli", "integral_sweep", "reduced_scalar")
MIN_PASSES = 3
SETUP_RUNS = 5


def load_program():
    """Import the package from ``src/`` of this checkout, or exit."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bathtub
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bathtub from {ROOT / 'src'}: {exc}")
    if ROOT / "src" not in Path(bathtub.__file__).resolve().parents:
        sys.exit(f"perfbench: bathtub was imported from {bathtub.__file__}, "
                 f"not from {ROOT / 'src'}")
    return workloads


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": int(BLAS_THREADS), "machine": platform.machine()}


def current_rss() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure_setup(name: str, inputs: Path) -> list:
    """``import bathtub`` plus input build in fresh interpreters, as (raw,
    normalized) pairs; the first, which may compile bytecode, is dropped."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        res = subprocess.run([sys.executable, str(BENCH / "probe_setup.py"),
                              name, str(inputs)], capture_output=True,
                             text=True, timeout=120, check=False)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        raw, normalized = res.stdout.split()
        times.append((float(raw), float(normalized)))
    return times[1:]


class Passes:
    """Runs checked passes of one workload and counts their failures."""

    def __init__(self, wl, built, out: Path, seed: int):
        self.wl, self.built, self.out, self.seed = wl, built, out, seed
        self.attempted = 0
        self.failures = []
        self.accuracy = None
        self.peak_rss = 0  # the process's peak resident set as the last pass ended

    def run(self, built=None):
        """One pass; returns its (raw, normalized) wall time, or None if it
        raised or failed a check.  Checks run outside the timed region and
        after ``peak_rss`` is read, so their memory is not counted."""
        built = self.built if built is None else built
        self.attempted += 1
        gc.collect()
        try:
            with speed.SpeedSampler() as timer:
                result = self.wl.run_pass(built, self.out)
            self.peak_rss = peak_rss()
            fails, acc = self.wl.check(result, built, self.out, self.seed)
        except Exception as exc:  # a raising pass counts as failed
            fails, acc = [f"{type(exc).__name__}: {exc}"], None
        if fails:
            self.failures.append(fails)
            return None
        self.accuracy = acc
        return timer.raw, timer.normalized


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = load_program()
    wl = workloads.WORKLOADS[name]
    work = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        inputs = wl.write_inputs(seed, work)
        setup = [] if trace else measure_setup(name, inputs)
        passes = Passes(wl, wl.build(inputs), work / "out", seed)
        # untimed first pass: lazy set-up finishes, peak memory is read
        rss0 = current_rss()
        passes.run()
        peak_mb = (passes.peak_rss - rss0) / 1e6
        if trace:
            report = traced_passes(passes, wl, inputs, seconds)
        else:
            walls = timed_passes(passes, seconds)
            report = {"walls": walls, "setup": setup, "peak_mb": peak_mb}
        if passes.accuracy is not None:
            passes.accuracy.update(wl.accuracy_extra(passes.built, passes.out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    report.update(attempted=passes.attempted, failures=passes.failures,
                  accuracy=passes.accuracy)
    return report


def timed_passes(passes: Passes, seconds: float) -> list:
    """Passes until ``seconds`` have elapsed and at least ``MIN_PASSES`` ran;
    returns the (raw, normalized) times of those that passed their checks."""
    walls = []
    start = time.perf_counter()
    runs = 0
    while runs < MIN_PASSES or time.perf_counter() - start < seconds:
        runs += 1
        wall = passes.run()
        if wall is not None:
            walls.append(wall)
    return walls


def traced_passes(passes: Passes, wl, inputs: Path, seconds: float) -> dict:
    """Alternate plain and traced passes; per-layer metrics are the median
    over traced passes, the overhead compares normalized pass times."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall = passes.run()
        tracer.reset()
        tracer.install()
        try:
            built = wl.build(inputs)  # config parse is traced too
            wall_t = passes.run(built)
        finally:
            tracer.remove()
        if wall is None or wall_t is None:
            break
        plain.append(wall[1])
        traced.append(wall_t[1])
        layers.append(tracing.layer_metrics(tracer, passes.out))
    metrics = {k: statistics.median_low(d[k] for d in layers) for k in layers[0]} if layers else {}
    if plain:
        metrics["trace.overhead_pct"] = (statistics.median(traced)
                                         / statistics.median(plain) - 1.0) * 100.0
    return {"layers": metrics, "table": tracer.table()}


def _describe(key: str, values: list, unit: str) -> dict:
    q1, med, q3 = quartiles(values) if values else (0.0, 0.0, 0.0)
    print(f"{key:<16} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def emit(name: str, seed: int, trace: bool, report: dict, spec: dict) -> bool:
    """Print the human-readable report and, last, the result line."""
    failed = len(report["failures"])
    attempted = report["attempted"]
    print(f"workload {name} seed {seed} trace {int(trace)}")
    print("env " + json.dumps(environment()))
    for fails in report["failures"]:
        print("check failed: " + "; ".join(fails))
    if report["accuracy"] is not None:
        print("accuracy " + json.dumps(report["accuracy"]))
    if trace:
        print("spans of the last traced pass:")
        for line in report["table"]:
            print(line)
        metrics = {m["name"]: {"value": report["layers"].get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        walls, setup = report["walls"], report["setup"]
        summary = {
            "wall_s": _describe("wall_s", [w[1] for w in walls], "s"),
            "wall_raw_s": _describe("wall_raw_s", [w[0] for w in walls], "s"),
            "setup_s": _describe("setup_s", [s[1] for s in setup], "s"),
            "setup_raw_s": _describe("setup_raw_s", [s[0] for s in setup], "s"),
            "peak_mem_mb": _describe("peak_mem_mb", [report["peak_mb"]], "MB"),
            "fail_rate": {"value": failed / attempted, "failed": failed,
                          "n": attempted, "unit": "ratio"},
        }
        print(f"{'fail_rate':<16} {failed}/{attempted} = {failed / attempted:.6g}")
        print("summary " + json.dumps(summary))
        metrics = {key: {"value": summary[key]["median"], "unit": summary[key]["unit"]}
                   for key in ("wall_s", "setup_s", "peak_mem_mb")}
    correct = failed == 0 and report["accuracy"] is not None
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return correct


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        res = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        lines = res.stdout.splitlines()
        summary = next((json.loads(ln[8:]) for ln in lines if ln.startswith("summary ")), None)
        rows.append((name, res.returncode, summary))
    if not args.trace:
        print(f"\n{'workload':<16}{'wall_s median [q1, q3] n':<34}"
              f"{'setup_s median n':<22}{'peak_mem_mb':<14}fail_rate")
        for name, code, s in rows:
            if s is None:
                print(f"{name:<16}no result (exit {code})")
                continue
            w, st, pm, fr = (s[k] for k in ("wall_s", "setup_s", "peak_mem_mb", "fail_rate"))
            print(f"{name:<16}{w['median']:.4f} s [{w['q1']:.4f}, {w['q3']:.4f}] "
                  f"n={w['n']:<6}{st['median']:.4f} s n={st['n']:<8}"
                  f"{pm['median']:.2f} MB    {fr['failed']}/{fr['n']} = {fr['value']:.3g}")
    return 0 if all(code == 0 for _n, code, _s in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if emit(args.workload, args.seed, bool(args.trace), report, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
