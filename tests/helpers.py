"""Shared scenario builders and cached solves for the test suite."""

import functools
import math
import tracemalloc
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

import bathtub as bt
from bathtub.solver import Termination, Trajectory, _march_z, _profile_capped_lin

PAPER_FD = bt.Trapezoidal(u=30.0, C=750.0, w=10.0, kappa=200.0)
PAPER_L = 10.0
PAPER_X = 5.0
PAPER_Z_STOP = 30.0
DX_LEVELS = (2**-3, 2**-4, 2**-5, 2**-6)


def paper_pulse() -> bt.TrapezoidalPulse:
    return bt.TrapezoidalPulse(ramp=10000.0, plateau=4000.0, end=1.0)


def paper_btilde() -> bt.PiecewiseLinear:
    return bt.PiecewiseLinear([0.0, 0.4, 0.6, 1.0], [2.0, 5.0, 5.0, 2.0],
                              extend="clamp")


def paper_scenario(dx: float, dt=None, stop=PAPER_Z_STOP) -> bt.Scenario:
    grid = bt.GridSpec(dx=dx, X=PAPER_X,
                       horizon=bt.MaxCumulativeDistance(stop), dt=dt)
    return bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=paper_pulse(),
                       distances=bt.UniformDistances(paper_btilde()),
                       grid=grid)


def solve_fixed_step(solver: str, scen: bt.Scenario) -> bt.Trajectory:
    """``scen`` solved by one fixed-step solver: the integral scheme, the
    mobility service with a boarding delay, or a single commodity of the
    multi-commodity march with the scenario's speed law."""
    if solver == "integral":
        return bt.solve_integral(scen)
    if solver == "mobility_service":
        esr = bt.BoardingDelaySpeed(scen.fd, alpha=1e-3, lane_miles=scen.L)
        return bt.solve_mobility_service(scen, esr)
    return bt.solve_multi_commodity(
        scen.L, [bt.CommodityDemand(scen.influx, scen.distances, scen.ic)],
        [lambda lam, f, g: scen.fd.speed(lam[0] / scen.L)], scen.grid)[0]


def assert_same_bits(a, b):
    """``a`` and ``b`` have the same dtype, shape and bytes: unlike
    ``np.array_equal``, -0.0 differs from +0.0 and float32 from float64."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def held_nbytes(traj) -> int:
    """Bytes of the distinct ndarray buffers a trajectory stores (its
    ``vars``): arrays that view one numpy array count it once, whole."""
    owners = {}
    for a in vars(traj).values():
        if isinstance(a, np.ndarray):
            while isinstance(a.base, np.ndarray):
                a = a.base
            owners[id(a)] = a.nbytes
    return sum(owners.values())


def traced_peak(fn):
    """``(fn(), peak)``: the result of ``fn()`` and the peak bytes that
    tracemalloc saw allocated while it ran.  Tracing stops even if ``fn``
    raises."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_integral(pl: bt.PiecewiseLinear, t: float) -> float:
    """``pl.integral(t)`` written with the builtin ``min`` and ``max``, a
    bitwise reference for the comparisons that replace them."""
    t = float(t)
    if t <= 0.0:
        return 0.0
    x, y = pl.x.tolist(), pl.y.tolist()
    total = 0.0
    if x[0] > 0.0:
        left = min(t, x[0])
        if pl.extend == "clamp":
            total += y[0] * left
        if t <= x[0]:
            return total
    a, b = max(0.0, x[0]), min(t, x[-1])
    if b > a:
        ia = max(0, min(bisect_right(x, a) - 1, len(x) - 2))
        ib = max(0, min(bisect_right(x, b) - 1, len(x) - 2))
        if ia == ib:
            total += 0.5 * (pl(a) + pl(b)) * (b - a)
        else:
            cum = [0.0] + np.cumsum(0.5 * (pl.y[1:] + pl.y[:-1]) * np.diff(pl.x)).tolist()
            area = 0.5 * (pl(a) + y[ia + 1]) * (x[ia + 1] - a)
            area += cum[ib] - cum[ia + 1]
            area += 0.5 * (y[ib] + pl(b)) * (b - x[ib])
            total += area
    if t > x[-1] and pl.extend == "clamp":
        total += y[-1] * (t - max(x[-1], 0.0))
    return total


def survival_capped_lin(dist, t_arr, y_arr, dx, cells):
    """Masked reference for the march's kernel: survival at distance offsets
    ``y`` of any shape, interpolated between grid nodes, with the node at
    x = X (= cells*dx) forced to zero and every offset outside [0, X)
    reading 0."""
    t = np.asarray(t_arr, dtype=float)
    th = np.asarray(y_arr, dtype=float) / dx
    k = np.floor(th + 1e-9).astype(np.int64)
    th -= k
    np.maximum(th, 0.0, out=th)
    lo_ok = (k >= 0) & (k <= cells - 1)
    hi_ok = (k + 1 <= cells - 1)
    xlo = np.where(lo_ok, k, 0) * dx
    xhi = np.where(hi_ok, k + 1, 0) * dx
    slo = np.where(lo_ok, dist.survival_array(t, xlo), 0.0)
    shi = np.where(hi_ok, dist.survival_array(t, xhi), 0.0)
    return np.where(lo_ok, (1.0 - th) * slo + th * shi, 0.0)


def tabulated_survival_reference(table, t, x):
    """``TabulatedSurvival.survival_array`` by its first formula, a bitwise
    reference: a whole table row interpolated in t for every (t, x) pair,
    then its two bracketing columns (or the last) read off that row."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    v, tg, xg = table.values, table.t_grid, table.x_grid
    if tg.size == 1:
        rows = np.broadcast_to(v[0], t.shape + (xg.size,))
    else:
        i = np.clip(np.searchsorted(tg, t, side="right") - 1, 0, tg.size - 2)
        w = np.clip((t - tg[i]) / (tg[i + 1] - tg[i]), 0.0, 1.0)
        rows = (1.0 - w)[..., None] * v[i] + w[..., None] * v[i + 1]
    j = np.clip(np.searchsorted(xg, x, side="right") - 1, 0, xg.size - 2)
    w = np.clip((x - xg[j]) / (xg[j + 1] - xg[j]), 0.0, None)
    lo = np.take_along_axis(rows, j[..., None], axis=-1)[..., 0]
    hi = np.take_along_axis(rows, (j + 1)[..., None], axis=-1)[..., 0]
    return np.where(x >= xg[-1], rows[..., -1], (1.0 - w) * lo + w * hi)


def reference_rows(traj, t, nodes, shift=0.0):
    """K of a gridded run at times ``t`` (any order, one row each) on the
    offsets n dx + ``shift``, n < ``nodes``, each row built alone: a
    bitwise reference for ``solver._rebuild_blocks``.

    A row's live window is every entry logged before t whose age plus
    ``shift`` has not aged X (found by a mask, not a bisection); its table
    holds only that window's node survivals, with the kernel's zero column
    on the left and zeros from X on, and the row is the kernel's gather and
    two matrix-vector products, with its fix-up for the pairs in cell -1.
    """
    dx, cells = float(traj.x_grid[1]), traj.x_grid.size - 1
    et, ez, em = traj.entry_t, traj.entry_z, traj.entry_mass
    k0 = traj.ic.profile_array(traj.x_grid).astype(float)
    offsets = np.arange(nodes) * dx + shift
    out = []
    for tr in np.asarray(t, dtype=float).tolist():
        z = np.interp(tr, traj.t, traj.z)
        before = np.flatnonzero(et < tr - 1e-12)
        live = before[(z - ez[before] + shift) / dx + 1e-9 < cells]
        th = (z - ez[live] + shift) / dx
        k = np.floor(th + 1e-9)
        th = np.maximum(th - k, 0.0)
        k = k.astype(np.intp)
        table = np.zeros((live.size, cells + nodes + 1))
        table[:, 1:cells + 1] = traj.distances.survival_array(
            et[live, None], np.arange(cells) * dx)
        slices = np.lib.stride_tricks.sliding_window_view(table, nodes + 1, axis=1)
        G = slices[np.arange(live.size), k + 1]
        w_lo, w_hi = em[live] * (1.0 - th), em[live] * th
        row = w_lo @ G[:, :-1] + w_hi @ G[:, 1:]
        if k.size and k[-1] < 0:
            up = k >= 0
            row[0] = w_lo @ G[:, 0] + w_hi[up] @ G[up, 1]
        ic = (_profile_capped_lin(k0, offsets + z, dx) if k0.any()
              else np.zeros(nodes))
        out.append(ic + row)
    return np.array(out).reshape(-1, nodes)


def ring_windows(traj, t, rows=16):
    """The part [base, top) of the entry log that each ``rows``-row chunk
    of the times ``t`` reads when its K rows are rebuilt: top is the most
    entries logged before one of its times, base the fewest of them that
    have aged X (each counted by a mask)."""
    dx, cells = float(traj.x_grid[1]), traj.x_grid.size - 1
    z = np.interp(t, traj.t, traj.z)
    hi = [int(np.sum(traj.entry_t < tr - 1e-12)) for tr in np.asarray(t).tolist()]
    lo = [int(np.sum((zr - traj.entry_z[:h]) / dx + 1e-9 >= cells))
          for zr, h in zip(z.tolist(), hi)]
    return [(min(lo[a:a + rows]), max(hi[a:a + rows])) for a in range(0, len(hi), rows)]


def reference_march(demands, grid, speed_of):
    """The fixed-step march written out plainly, a bitwise reference for
    ``solve_integral``, ``solve_mobility_service`` and
    ``solve_multi_commodity``.

    ``demands`` holds one (influx, distances, ic) triple per commodity, and
    ``speed_of(t, lam, f, g)`` gives the commodity speeds from the joint
    state, the out-fluxes g lagged one step.  Step j logs each commodity's
    mass f(t_j) dt at (t_j, z_j).  Its lambda is the initial profile at z
    plus ``np.dot`` of the masses and the survivals, by the masked
    reference from the entry times, over the log past its dead prefix (the
    entries aged X or more, found by a loop); only that live slice of the
    log is made an array, so a step costs the window, not the log.
    Returns the t series, one
    dict of z, lam, v and entry_mass series per commodity, and the
    termination.
    """
    dx, cells, dt, stop = grid.dx, grid.cells, grid.dt, grid.horizon
    runs = [{"z": [0.0], "lam": [float(ic.lambda0)], "v": [], "entry_mass": [],
             "F": 0.0, "start": 0,
             "nodes": ic.profile_array(grid.x_nodes()).astype(float)}
            for _, _, ic in demands]
    t = [0.0]
    g = np.zeros(len(demands))
    termination = bt.Termination.HORIZON
    while True:
        f = [influx.rate(t[-1]) for influx, _, _ in demands]
        lam = np.array([r["lam"][-1] for r in runs])
        v = [float(vm) for vm in speed_of(t[-1], lam, np.array(f), g)]
        for r, vm in zip(runs, v):
            r["v"].append(vm)
        if any(vm < grid.v_min for vm in v):
            termination = bt.Termination.GRIDLOCK
            break
        if isinstance(stop, bt.MaxTime) and t[-1] >= stop.T - 1e-12:
            break
        if (isinstance(stop, bt.MaxCumulativeDistance)
                and runs[0]["z"][-1] >= stop.Z - 1e-12):
            break
        for m, (r, (_, dist, _)) in enumerate(zip(runs, demands)):
            z = r["z"][-1] + v[m] * dt
            r["entry_mass"].append(f[m] * dt)
            ez = r["z"]  # the entry z of each logged mass
            while r["start"] < len(ez) and (z - ez[r["start"]]) / dx + 1e-9 >= cells:
                r["start"] += 1
            i = r["start"]  # only the live slice becomes an array
            surv = survival_capped_lin(dist, np.array(t[i:]), z - np.array(ez[i:]),
                                       dx, cells)
            lam_new = (float(_profile_capped_lin(r["nodes"], z, dx))
                       + float(np.dot(np.array(r["entry_mass"][i:]), surv)))
            lam0, F = r["lam"][0], r["F"] + f[m] * dt
            g[m] = ((lam0 + F - lam_new) - (lam0 + (F - f[m] * dt) - r["lam"][-1])) / dt
            r["z"].append(z)
            r["lam"].append(lam_new)
            r["F"] = F
        t.append(len(t) * dt)
    series = [{key: np.array(r[key]) for key in ("z", "lam", "v", "entry_mass")}
              for r in runs]
    return np.array(t), series, termination


def fixed_axis(n: int, step: float) -> np.ndarray:
    """``j * step`` for the ``n`` steps of a run, from Python floats: the z
    array the z-grid marches once built, or the t of a fixed-step run."""
    return np.array([j * step for j in range(n)])


def reference_vickrey(c) -> bt.Trajectory:
    """The Vickrey march with a scalar rate call per step and every series
    appended as it goes, a bitwise reference for ``solve_vickrey``."""
    lam = float(c.lambda0)
    t = 0.0
    z = 0.0
    t_l, z_l, lam_l, v_l, g_l = [0.0], [0.0], [lam], [], []
    ent_m = []
    termination = Termination.HORIZON
    j = 0
    T, Z = c.horizon.T - 1e-12, c.horizon.Z - 1e-12
    while True:
        v = float(c.fd.speed(lam / c.L))
        v_l.append(v)
        g_l.append(lam * v / c.B)
        if v < c.v_min:
            termination = Termination.GRIDLOCK
            break
        if t >= T or z >= Z:
            break
        f_t = c.influx.rate(t)
        ent_m.append(f_t * c.dt)
        lam = lam + c.dt * (f_t - lam * v / c.B)
        lam = max(lam, 0.0)
        z = z + v * c.dt
        j += 1
        t = j * c.dt
        t_l.append(t)
        z_l.append(z)
        lam_l.append(lam)

    t_arr = np.asarray(t_l)
    return Trajectory(scheme="vickrey", L=c.L, t=t_arr, z=np.asarray(z_l),
                      lam=np.asarray(lam_l), v=np.asarray(v_l),
                      entry_mass=np.asarray(ent_m), termination=termination,
                      influx=c.influx, distances=bt.ExponentialDistances(c.B),
                      ic=bt.ExponentialProfile(c.lambda0, c.B), g=np.asarray(g_l))


def reference_deterministic(c) -> bt.Trajectory:
    """The deterministic-distance march with a scalar initial-profile call
    per step and plain lists for its logs, a bitwise reference for
    ``solve_deterministic``: each step masks the whole log for the entries
    still active and sums their masses with ``math.fsum``, the correctly
    rounded sum that the solver's exit heap keeps exactly."""
    dz = c.dz
    F_l, theta_l, mass_l = [0.0], [], []

    def step(j, tau, dtau):
        z = j * dz
        F_next = c.influx.cumulative(tau + dtau)
        theta_l.append(z + c.btilde_at(tau, z))
        mass_l.append(max(F_next - F_l[-1], 0.0))
        F_l.append(F_next)
        z_end = (j + 1) * dz
        mass, theta = np.fromiter(mass_l, float), np.fromiter(theta_l, float)
        active = math.fsum(mass[theta > z_end + 1e-12])
        return float(c.ic.profile(z_end)) + active

    t, lam, v, termination = _march_z(c.fd, c.L, dz, c.horizon, c.v_min,
                                      float(c.ic.lambda0), step)
    return Trajectory(scheme="deterministic", L=c.L, t=t, z=fixed_axis(t.size, dz),
                      lam=lam, v=v, F=np.asarray(F_l), entry_mass=np.array(mass_l),
                      termination=termination, influx=c.influx, distances=None,
                      ic=c.ic, entry_theta=np.array(theta_l))


def reference_constant_distance(c) -> bt.Trajectory:
    """The constant-distance recursion on the z-grid, a bitwise reference
    for the trajectory of ``solve_constant_distance`` (its checks of the
    config are left out)."""
    B = float(c.btilde(0.0))
    I = int(round(B / c.dz))
    F_l = [0.0]
    ent_m = []

    def step(j, tau, dtau):
        mass = c.influx.rate(tau) * dtau
        ent_m.append(mass)
        F_l.append(F_l[-1] + mass)
        return F_l[j + 1] - (F_l[j + 1 - I] if j + 1 >= I else 0.0)

    t, lam, v, termination = _march_z(c.fd, c.L, c.dz, c.horizon, c.v_min, 0.0, step)
    return Trajectory(scheme="constant_distance", L=c.L, t=t, z=fixed_axis(t.size, c.dz),
                      lam=lam, v=v, entry_mass=np.asarray(ent_m), termination=termination,
                      influx=c.influx, distances=bt.DeterministicDistances(B), ic=c.ic)


def assert_same_run(a: bt.Trajectory, b: bt.Trajectory):
    """Every series, both logs and the termination of two runs agree bit
    for bit."""
    for name in ("t", "z", "lam", "v", "f", "F", "G", "g", "entry_mass"):
        assert_same_bits(getattr(a, name), getattr(b, name))
    assert (a.entry_theta is None) == (b.entry_theta is None)
    if a.entry_theta is not None:
        assert_same_bits(a.entry_theta, b.entry_theta)
    assert a.termination is b.termination


def _common_times(runs):
    """Time nodes of the last run that every run in ``runs`` reaches."""
    tmax = min(tr.t[-1] for tr in runs)
    return runs[-1].t[runs[-1].t <= tmax]


class SchemeGaps(NamedTuple):
    gaps: dict  # dx: the largest raw z(t) gap between the schemes
    ratios: list  # each gap over the next finer one
    extrap: dict  # finer dx: the largest gap between the extrapolates
    ok: bool


def scheme_gaps(char, integral) -> SchemeGaps:
    """Criterion 06's two measures of one scenario solved by the
    characteristic and the integral scheme, each a dict of runs by dx
    halving from coarse to fine: the raw z(t) gap must halve with dx
    (ratios in [1.8, 2.2]), and the schemes' Richardson extrapolates
    2 z(dx) - z(2 dx) must agree within 5 cells of the finer dx."""
    levels = sorted(char, reverse=True)
    gaps = {}
    for dx in levels:
        tc, ti = char[dx], integral[dx]
        tg = _common_times([tc, ti])
        gaps[dx] = float(np.max(np.abs(np.interp(tg, tc.t, tc.z)
                                       - ti.z[:tg.size])))
    ratios = [gaps[c] / gaps[f] for c, f in zip(levels, levels[1:])]
    extrap = {}
    for c, f in zip(levels, levels[1:]):
        runs = [char[c], char[f], integral[c], integral[f]]
        tg = _common_times(runs)
        char_c, char_f, int_c, int_f = (np.interp(tg, tr.t, tr.z) for tr in runs)
        extrap[f] = float(np.max(np.abs((2.0 * char_f - char_c)
                                        - (2.0 * int_f - int_c))))
    ok = (all(1.8 <= r <= 2.2 for r in ratios)
          and all(extrap[f] <= 5.0 * f for f in extrap))
    return SchemeGaps(gaps, ratios, extrap, ok)


@functools.lru_cache(maxsize=None)
def paper_char(dx: float) -> bt.Trajectory:
    return bt.solve_characteristic(paper_scenario(dx))


@functools.lru_cache(maxsize=None)
def paper_integral(dx: float) -> bt.Trajectory:
    return bt.solve_integral(paper_scenario(dx, dt=dx / 30.0))


def stationary_exponential_scenario(dx: float, f: float = 3000.0, B: float = 1.0,
                                    X: float = 14.0, T: float = 0.8,
                                    lam0: float = 100.0) -> bt.Scenario:
    grid = bt.GridSpec(dx=dx, X=X, horizon=bt.MaxTime(T), dt=dx / 30.0)
    ic = bt.ExponentialProfile(lam0, B) if lam0 > 0 else bt.EmptyNetwork()
    return bt.Scenario(L=PAPER_L, fd=PAPER_FD, influx=bt.ConstantInflux(f),
                       distances=bt.ExponentialDistances(B), grid=grid, ic=ic)


@functools.lru_cache(maxsize=None)
def stationary_exponential_integral(dx: float) -> bt.Trajectory:
    return bt.solve_integral(stationary_exponential_scenario(dx))


def riemann_integral(fn, a: float, b: float, n: int = 200_000) -> float:
    """Brute-force trapezoid quadrature used as an independent oracle."""
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray([fn(x) for x in xs])
    return float(np.trapezoid(ys, xs))


def brute_force_capacity(fd, rho_max: float, n: int = 200_001):
    """Grid-scan flow maximum used as an oracle against capacity().

    Reports the smallest density within one part in 1e12 of the maximum so
    that flat capacity plateaus (where float noise scrambles argmax) resolve
    to their left edge.
    """
    rho = np.linspace(0.0, rho_max, n)
    q = fd.flow(rho)
    qmax = float(np.max(q))
    i = int(np.argmax(q >= qmax * (1.0 - 1e-12)))
    return qmax, float(rho[i])
