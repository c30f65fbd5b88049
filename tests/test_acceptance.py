"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the criterion at its stated tolerance.
"""

import functools
import math
import time

import numpy as np

import bathtub as bt
from bathtub import cli
from helpers import (DX_LEVELS, PAPER_FD, PAPER_L, paper_char, paper_integral,
                     paper_pulse, paper_scenario, scheme_gaps,
                     stationary_exponential_scenario)

GS = bt.Greenshields(30.0, 200.0)


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=None)
def gridlock_run():
    grid = bt.GridSpec(dx=2**-6, X=24.0, horizon=bt.MaxTime(8.0))
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(4000.0),
                       distances=bt.ExponentialDistances(2.0), grid=grid)
    return bt.solve_characteristic(scen)


@functools.lru_cache(maxsize=None)
def stationary_run():
    grid = bt.GridSpec(dx=2**-6, X=24.0, horizon=bt.MaxTime(1.5))
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(3000.0),
                       distances=bt.ExponentialDistances(2.0), grid=grid)
    return bt.solve_characteristic(scen)


@functools.lru_cache(maxsize=None)
def vickrey_ivp(dt: float):
    vc = bt.VickreyConfig(L=10.0, fd=GS, B=1.0, lambda0=100.0,
                          influx=bt.ZeroInflux(), dt=dt,
                          horizon=bt.MaxCumulativeDistance(1.2))
    return bt.solve_vickrey(vc)


@functools.lru_cache(maxsize=None)
def exponential_preservation(dx: float):
    traj = bt.solve_integral(stationary_exponential_scenario(dx))
    res = bt.vickrey_equivalence_check(traj, B=1.0,
                                       influx=bt.ConstantInflux(3000.0),
                                       fd=PAPER_FD, dt=1e-5,
                                       profile_samples=33)
    return traj, res


@functools.lru_cache(maxsize=None)
def uniform_control(dx: float):
    grid = bt.GridSpec(dx=dx, X=14.0, horizon=bt.MaxTime(0.8), dt=dx / 30.0)
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(3000.0),
                       distances=bt.UniformDistances(1.0), grid=grid)
    traj = bt.solve_integral(scen)
    return bt.vickrey_equivalence_check(traj, B=1.0, profile_samples=33)


@functools.lru_cache(maxsize=None)
def constant_distance_runs(dz: float):
    cfg = bt.DeterministicConfig(L=PAPER_L, fd=PAPER_FD, btilde=2.0,
                                 influx=paper_pulse(), dz=dz,
                                 horizon=bt.MaxCumulativeDistance(30.0))
    traj_z, frame = bt.solve_constant_distance(cfg)
    grid = bt.GridSpec(dx=dz, X=2.0, horizon=bt.MaxCumulativeDistance(30.0))
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                       distances=bt.DeterministicDistances(2.0), grid=grid)
    traj_k = bt.solve_characteristic(scen)
    return traj_z, frame, traj_k


@functools.lru_cache(maxsize=None)
def multi_commodity_runs():
    dist = bt.ExponentialDistances(2.0)
    grid = bt.GridSpec(dx=2**-5, X=12.0, horizon=bt.MaxTime(1.2),
                       dt=2**-5 / 30.0)
    scen = bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                       distances=dist, grid=grid)
    single = bt.solve_integral(scen)
    wrapped = bt.solve_multi_commodity(
        PAPER_L, [bt.CommodityDemand(paper_pulse(), dist)],
        [lambda lam, f, g: PAPER_FD.speed(lam[0] / PAPER_L)], grid)[0]
    half = bt.TrapezoidalPulse(5000.0, 2000.0, 1.0)
    rel = lambda lam, f, g: PAPER_FD.speed((lam[0] + lam[1]) / PAPER_L)
    pair = bt.solve_multi_commodity(
        PAPER_L, [bt.CommodityDemand(half, dist), bt.CommodityDemand(half, dist)],
        [rel, rel], grid)
    return single, wrapped, pair


def test_criterion_01_paper_example_reproduction():
    t0 = time.perf_counter()
    traj = bt.solve_characteristic(paper_scenario(2**-6))
    elapsed = time.perf_counter() - t0
    t_peak = float(traj.t[int(np.argmax(traj.lam))])
    ok = 0.75 <= t_peak <= 1.0 and elapsed < 10.0
    report(1, "peak-period example: count peaks in [0.75, 1.0] hr",
           ok, f"t*={t_peak:.4f} hr, solve took {elapsed:.2f} s")


def test_criterion_02_convergence_order_near_one():
    rep = bt.convergence_study(paper_char, DX_LEVELS,
                               bt.time_to_distance_target(30.0))
    ok = rep.mean_order is not None and 0.7 <= rep.mean_order <= 1.3
    report(2, "time-to-30-miles converges at order ~1",
           ok, f"orders={['%.3f' % p for p in rep.orders]}")


def test_criterion_03_reduced_model_closed_form():
    exact = 100.0 * math.exp(-1.0)
    errs = []
    for dt in (1e-4, 5e-5):
        traj = vickrey_ivp(dt)
        lam1 = float(np.interp(1.0, traj.z, traj.lam))
        errs.append(abs(lam1 - exact))
    rel = errs[0] / exact
    halves = 0.35 <= errs[1] / errs[0] <= 0.65
    ok = rel < 5e-3 and halves
    report(3, "exponential decay law hit within 0.5%, error halves with dt",
           ok, f"rel={rel:.2e}, ratio={errs[1] / errs[0]:.3f}")


def test_criterion_04_exponential_profile_preservation():
    devs = {}
    lam_devs = {}
    for dx in (2**-4, 2**-5, 2**-6):
        _, res = exponential_preservation(dx)
        devs[dx] = res.max_profile_deviation
        lam_devs[dx] = res.max_lambda_deviation
    bound_ok = devs[2**-6] < 0.02
    profile_monotone = devs[2**-6] <= devs[2**-5] + 1e-9 <= devs[2**-4] + 2e-9
    shrink_ok = (lam_devs[2**-5] <= 0.65 * lam_devs[2**-4]
                 and lam_devs[2**-6] <= 0.65 * lam_devs[2**-5])
    neg_coarse = uniform_control(2**-5).max_profile_deviation
    neg_fine = uniform_control(2**-6).max_profile_deviation
    control_ok = neg_fine > 0.05 and neg_fine > 0.75 * neg_coarse
    ok = bound_ok and profile_monotone and shrink_ok and control_ok
    report(4, "exponential inputs stay exponential; uniform control fails",
           ok, f"dev={devs[2**-6]:.2e}, lam-dev ratios="
               f"{lam_devs[2**-5] / lam_devs[2**-4]:.2f},"
               f"{lam_devs[2**-6] / lam_devs[2**-5]:.2f}, "
               f"control={neg_fine:.3f}")


def test_criterion_05_gridlock_sufficiency_and_stationarity():
    jam = gridlock_run()
    jam_ok = (jam.termination is bt.Termination.GRIDLOCK
              and jam.lam[-1] >= PAPER_L * 200.0 * (1 - 1e-9))
    calm = stationary_run()
    v_star = 30.0
    window = 2.0 / v_star
    lam_end = float(calm.lam[-1])
    lam_prev = float(np.interp(calm.t[-1] - window, calm.t, calm.lam))
    drift = abs(lam_end - lam_prev)
    calm_ok = (calm.termination is bt.Termination.HORIZON
               and drift < 1e-3 * lam_end)
    report(5, "demand beyond supply gridlocks; below it settles",
           jam_ok and calm_ok,
           f"jam lam={jam.lam[-1]:.0f}, drift/lam={drift / lam_end:.2e}")


def test_criterion_06_scheme_equivalence_within_five_cells():
    # The characteristic scheme starts an entering mass aging at the end of
    # its step and the integral scheme at the start, so their first-order
    # errors in z(t) have opposite signs; hypercongestion amplifies them to
    # ~16.6 cells apart on every grid.  What the paper promises is a common
    # limit: the raw gap must halve with dx, and the Richardson extrapolates
    # 2 z_{dx/2} - z_{dx} of the two schemes must agree within 5 fine cells.
    gaps, ratios, extrap, ok = scheme_gaps({dx: paper_char(dx) for dx in DX_LEVELS},
                                           {dx: paper_integral(dx) for dx in DX_LEVELS})
    report(6, "both schemes converge at first order to one z(t) "
              "(extrapolates within 5 cells)", ok,
           "gap/dx=" + ",".join(f"{gaps[dx] / dx:.1f}" for dx in DX_LEVELS)
           + "; ratios=" + ",".join(f"{r:.3f}" for r in ratios)
           + "; extrap gap/(dx/2)="
           + ",".join(f"{extrap[f] / f:.2f}" for f in extrap))


def test_criterion_07_constant_distance_cross_checks():
    dz = 2**-6
    traj_z, frame, traj_k = constant_distance_runs(dz)
    n = min(traj_z.n_steps, traj_k.n_steps)
    lam_gap = float(np.max(np.abs(traj_z.lam[:n] - traj_k.lam[:n])))
    agree_ok = lam_gap <= 5.0 * dz * 4000.0 / 30.0

    # stationary tail of a constant-demand run has a linear survival profile
    cfg = bt.DeterministicConfig(L=PAPER_L, fd=PAPER_FD, btilde=2.0,
                                 influx=bt.ConstantInflux(500.0), dz=dz,
                                 horizon=bt.MaxCumulativeDistance(10.0))
    steady, _ = bt.solve_constant_distance(cfg)
    xs = np.linspace(0.0, 2.0, 33)
    K = np.array([bt.reconstruct_K(steady, float(steady.t[-1]), float(x))
                  for x in xs])
    profile_dev = float(np.max(np.abs(K / K[0] - (1.0 - xs / 2.0))))
    profile_ok = profile_dev < 0.02

    first_exit_ok = bool(np.all(traj_z.G[traj_z.z < 2.0] == 0.0))
    ok = agree_ok and profile_ok and first_exit_ok
    report(7, "constant-distance solver matches the profile scheme",
           ok, f"lam gap={lam_gap:.2f} (tol {5.0 * dz * 4000.0 / 30.0:.2f}), "
               f"profile dev={profile_dev:.3f}")


def _criterion_runs():
    runs = [("paper char 2^-6", paper_char(2**-6), None),
            ("paper char 2^-4", paper_char(2**-4), None),
            ("paper integral 2^-6", paper_integral(2**-6), None),
            ("vickrey ivp", vickrey_ivp(1e-4), None),
            ("gridlock", gridlock_run(), None),
            ("stationary", stationary_run(), None),
            ("exponential preservation 2^-5", exponential_preservation(2**-5)[0], None)]
    traj_z, _, traj_k = constant_distance_runs(2**-6)
    runs.append(("constant-distance z-grid", traj_z, None))
    runs.append(("constant-distance profile", traj_k,
                 bt.DeterministicDistances(2.0)))
    single, wrapped, pair = multi_commodity_runs()
    runs.extend([("multi single", single, None),
                 ("multi wrapped", wrapped, None),
                 ("multi pair a", pair[0], None),
                 ("multi pair b", pair[1], None)])
    return runs


def test_criterion_08_conservation_audits():
    worst_total = 0.0
    for name, traj, dist in _criterion_runs():
        rep = bt.audit(traj, dist) if (dist or traj.x_grid is not None) \
            else bt.audit(traj)
        worst_total = max(worst_total, rep.total_trip_residual)
    total_ok = worst_total < 1e-9

    miles = {dx: bt.audit(paper_char(dx)).trip_miles_residual
             for dx in DX_LEVELS}
    shrink_ok = all(miles[DX_LEVELS[i]] >= 1.5 * miles[DX_LEVELS[i + 1]]
                    for i in range(len(DX_LEVELS) - 1))
    report(8, "total trips conserved at 1e-9; trip-miles residual shrinks",
           total_ok and shrink_ok,
           f"worst total={worst_total:.1e}, miles="
           + ",".join(f"{miles[dx]:.1f}" for dx in DX_LEVELS))


def test_criterion_09_stationary_oracle_and_instability():
    got = bt.stationary_state(PAPER_FD, 10.0, 1000.0,
                              bt.ExponentialDistances(2.0))
    lo, hi = 0.0, 250.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if PAPER_FD.flow(mid / 10.0) < 2.0 * 1000.0 / 10.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    state_ok = (abs(got.lam - 66.67) <= 0.01
                and abs(got.lam - oracle) < 1e-6
                and got.stability is bt.StabilityClass.STABLE)

    unstable_ok = bt.stability_classify(GS, 10.0, 1500.0) is \
        bt.StabilityClass.UNSTABLE
    lam0 = 1500.0
    f_star = lam0 * GS.speed(lam0 / 10.0) / 2.0
    vc = bt.VickreyConfig(L=10.0, fd=GS, B=2.0, lambda0=lam0 * 1.01,
                          influx=bt.ConstantInflux(f_star), dt=1e-3,
                          horizon=bt.MaxTime(40.0))
    drift_run = bt.solve_vickrey(vc)
    drift_ok = (drift_run.termination is bt.Termination.GRIDLOCK
                and bool(np.all(np.diff(drift_run.lam) >= -1e-9)))
    report(9, "balance point at 66.67 trips; hypercongestion diverges",
           state_ok and unstable_ok and drift_ok,
           f"lam={got.lam:.4f}, perturbed run end={drift_run.lam[-1]:.0f}")


def test_criterion_10_multi_commodity_reduction(tmp_path):
    single, wrapped, pair = multi_commodity_runs()
    p1, p2 = tmp_path / "single.csv", tmp_path / "wrapped.csv"
    cli._write_series(str(p1), single)
    cli._write_series(str(p2), wrapped)
    reduction_ok = p1.read_bytes() == p2.read_bytes()
    symmetric_ok = all(np.array_equal(pair[0].series[k], pair[1].series[k])
                       for k in ("t", "z", "lambda", "v", "f", "F", "g", "G"))
    report(10, "single-commodity wrapper is bit-identical; twins coincide",
           reduction_ok and symmetric_ok)
