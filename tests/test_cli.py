import csv
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

import bathtub as bt
from bathtub import analysis, cli
from helpers import assert_same_bits, ring_windows, traced_peak

PAPER_CONF = """\
network.L = 10
fd.variant = trapezoidal
fd.u = 30
fd.C = 750
fd.w = 10
fd.kappa = 200
demand.influx.kind = pulse
demand.influx.ramp = 10000
demand.influx.plateau = 4000
demand.influx.end = 1.0
demand.distance.kind = uniform
demand.distance.Btilde_nodes = 0:2, 0.4:5, 0.6:5, 1.0:2
grid.dx = 0.015625
grid.X = 5
grid.stop = z:30
model.kind = generalized
outputs = series,ksurface,audit
"""

MINIMAL_CONF = """\
network.L = 10
fd.variant = greenshields
fd.u = 30
fd.kappa = 200
demand.influx.kind = zero
demand.distance.kind = exponential
demand.distance.B = 2
grid.dx = 0.25
grid.X = 4
grid.stop = t:0.25
model.kind = generalized
"""

GRIDLOCK_CONF = """\
network.L = 10
fd.variant = trapezoidal
fd.u = 30
fd.C = 750
fd.w = 10
fd.kappa = 200
demand.influx.kind = constant
demand.influx.rate = 4000
demand.distance.kind = exponential
demand.distance.B = 2
grid.dx = 0.03125
grid.X = 16
grid.stop = t:8
model.kind = generalized
outputs = series
"""


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
GOLDEN_FILES = ["run/series.csv", "run/ksurface.csv", "run/audit.csv",
                "run/traveltimes.csv", "sweep/summary.csv", "sweep/convergence.csv"]


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    """The six CSV files of ``pulse.conf``: a characteristic run, and a
    sweep of its integral form over three grid levels."""
    out = tmp_path_factory.mktemp("golden")
    text = (GOLDEN / "pulse.conf").read_text(encoding="utf-8")
    assert cli.run(cli.parse_config(text), output_dir=str(out / "run")) == 0
    assert cli.sweep(text + "model.scheme = integral\n", "grid.dx",
                     [0.25, 0.125, 0.0625], output_dir=str(out / "sweep")) == 0
    return out


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_csv_bytes_match_the_committed_files(golden_outputs, name):
    assert (golden_outputs / name).read_bytes() == (GOLDEN / name).read_bytes()


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = cli.parse_config(MINIMAL_CONF)
        assert cfg.outputs == ("series",)
        assert cfg.scheme == "characteristic"
        assert isinstance(cfg.ic, bt.EmptyNetwork)
        assert cfg.output_dir == "."

    def test_invalid_kappa_names_the_key(self):
        bad = MINIMAL_CONF.replace("fd.kappa = 200", "fd.kappa = -5")
        with pytest.raises(bt.ConfigError, match="fd.kappa"):
            cli.parse_config(bad)

    def test_duplicate_key_cites_both_lines(self):
        bad = MINIMAL_CONF + "network.L = 12\n"
        with pytest.raises(bt.ConfigError, match="line 12.*line 1"):
            cli.parse_config(bad)

    def test_unknown_key_is_an_error(self):
        with pytest.raises(bt.ConfigError, match="unknown key"):
            cli.parse_config(MINIMAL_CONF + "grid.foo = 1\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(bt.ConfigError, match="line 2"):
            cli.parse_config("network.L = 10\nnonsense\n")

    def test_comments_and_blanks_ignored(self):
        cfg = cli.parse_config("# header\n\n" + MINIMAL_CONF)
        assert cfg.L == 10.0

    def test_node_lists_accumulate_over_lines(self):
        split = MINIMAL_CONF.replace(
            "demand.distance.B = 2",
            "demand.distance.Btilde_nodes = 0:2, 0.4:5\n"
            "demand.distance.Btilde_nodes = 0.6:5, 1.0:2")
        cfg = cli.parse_config(split)
        assert cfg.btilde(0.5) == 5.0

    def test_btilde_nodes_reproduce_peak_profile(self):
        cfg = cli.parse_config(PAPER_CONF)
        formula = lambda t: 2.0 + max(0.0, min(7.5 * t, 3.0, 7.5 * (1.0 - t)))
        for t in (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0, 1.5):
            assert cfg.btilde(t) == pytest.approx(formula(t), abs=1e-12)

    def test_vickrey_requires_exponential_distances(self):
        bad = MINIMAL_CONF.replace("model.kind = generalized",
                                   "model.kind = vickrey")
        bad = bad.replace("demand.distance.kind = exponential",
                          "demand.distance.kind = uniform")
        with pytest.raises(bt.ConfigError):
            cli.parse_config(bad)


class TestRun:
    def test_paper_config_reaches_horizon(self, tmp_path):
        cfg = cli.parse_config(PAPER_CONF)
        code = cli.run(cfg, output_dir=str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "series.csv")
        lam = [float(r["lambda"]) for r in rows]
        t = [float(r["t"]) for r in rows]
        assert 0.75 <= t[lam.index(max(lam))] <= 1.0

    def test_series_satisfies_conservation_identity(self, tmp_path):
        cfg = cli.parse_config(PAPER_CONF)
        cli.run(cfg, output_dir=str(tmp_path))
        rows = read_csv(tmp_path / "series.csv")
        lam0 = float(rows[0]["lambda"])
        for r in rows:
            lhs = float(r["G"])
            rhs = lam0 + float(r["F"]) - float(r["lambda"])
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, lam0 + float(r["F"]))

    def test_ksurface_layout(self, tmp_path):
        cfg = cli.parse_config(PAPER_CONF)
        cli.run(cfg, output_dir=str(tmp_path))
        with open(tmp_path / "ksurface.csv") as fh:
            header = fh.readline().strip().split(",")
            row = fh.readline().strip().split(",")
        assert header[0] == "t"
        assert float(header[1]) == 0.0
        assert float(header[-1]) == 5.0
        assert len(row) == len(header)

    def test_gridlock_exits_2_with_outputs(self, tmp_path):
        cfg = cli.parse_config(GRIDLOCK_CONF)
        code = cli.run(cfg, output_dir=str(tmp_path))
        assert code == 2
        rows = read_csv(tmp_path / "series.csv")
        assert float(rows[-1]["v"]) < 1e-9

    def test_zero_influx_gives_all_zero_counts(self, tmp_path):
        cfg = cli.parse_config(MINIMAL_CONF)
        code = cli.run(cfg, output_dir=str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "series.csv")
        assert all(float(r["lambda"]) == 0.0 for r in rows)

    def test_traveltimes_output(self, tmp_path):
        text = PAPER_CONF.replace("outputs = series,ksurface,audit",
                                  "outputs = series,traveltimes")
        cfg = cli.parse_config(text)
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        rows = read_csv(tmp_path / "traveltimes.csv")
        assert len(rows) > 10
        for r in rows:
            assert float(r["exact"]) > 0.0

    def test_every_numeric_cell_reads_back_to_its_value(self, tmp_path):
        # a cell is str(float), the shortest decimal that reads back exactly
        text = PAPER_CONF.replace("grid.dx = 0.015625", "grid.dx = 0.03125")
        cfg = cli.parse_config(text.replace("outputs = series,ksurface,audit",
                                            "outputs = " + ",".join(cli._OUTPUTS)))
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        traj = cli.execute(cfg)

        def cells(name):
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            return lines[0].split(","), [ln.split(",") for ln in lines[1:]
                                         if not ln.startswith("#")]

        def reads_back(rows, want):
            got = np.array([[float(c) for c in row] for row in rows])
            assert_same_bits(got, np.asarray(want, dtype=float))

        cols, rows = cells("series.csv")
        reads_back(rows, np.column_stack([traj.series[c] for c in cols]))
        header, rows = cells("ksurface.csv")
        reads_back([header[1:]], [traj.x_grid])
        steps = traj.profile_steps(257)
        reads_back(rows, np.column_stack([traj.t[steps], traj.profiles(steps)]))
        rep = analysis.audit(traj)
        _, rows = cells("audit.csv")
        reads_back(rows, np.column_stack([rep.t, rep.total_trip_steps,
                                          rep.trip_miles_steps]))
        footer = dict(ln[2:].split(" = ") for ln in
                      (tmp_path / "audit.csv").read_text().splitlines()
                      if ln.startswith("# "))
        reads_back([[footer["max_total_trip_residual"],
                     footer["max_trip_miles_residual"], footer["truncation_mass"]]],
                   [[rep.total_trip_residual, rep.trip_miles_residual,
                     rep.truncation_mass]])
        _, rows = cells("traveltimes.csv")
        assert len(rows) > 10
        want = []
        for row in rows:
            est = analysis.average_travel_time(traj, traj.distances, float(row[0]))
            want.append([float(row[0]), est.exact, est.entry_speed, est.exit_speed])
        reads_back(rows, want)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = cli.parse_config(PAPER_CONF)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        cli.run(cfg, output_dir=str(d1))
        cli.run(cli.parse_config(PAPER_CONF), output_dir=str(d2))
        for name in ("series.csv", "ksurface.csv", "audit.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_main_entry_point(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(MINIMAL_CONF)
        code = cli.main(["run", str(conf), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "series.csv").exists()

    def test_main_reports_config_errors(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("nonsense\n")
        assert cli.main(["run", str(conf)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_vickrey_model_runs(self, tmp_path):
        text = MINIMAL_CONF.replace("model.kind = generalized",
                                    "model.kind = vickrey")
        text = text.replace("grid.stop = t:0.25", "grid.stop = t:0.25\ngrid.dt = 0.001")
        text = text.replace("demand.influx.kind = zero",
                            "demand.influx.kind = constant\n"
                            "demand.influx.rate = 1000")
        cfg = cli.parse_config(text)
        code = cli.run(cfg, output_dir=str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "series.csv")
        assert float(rows[-1]["lambda"]) > 0.0

    def test_constant_distance_model_runs(self, tmp_path):
        text = MINIMAL_CONF.replace("model.kind = generalized",
                                    "model.kind = constant")
        text = text.replace("demand.distance.kind = exponential",
                            "demand.distance.kind = deterministic")
        text = text.replace("grid.stop = t:0.25",
                            "grid.stop = z:6\ngrid.dz = 0.125")
        text = text.replace("demand.influx.kind = zero",
                            "demand.influx.kind = constant\n"
                            "demand.influx.rate = 500")
        cfg = cli.parse_config(text)
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0


class TestTableInputs:
    def test_tabulated_diagram_from_csv(self, tmp_path):
        table = tmp_path / "fd.csv"
        table.write_text("density,speed\n0,30\n100,10\n200,0\n")
        text = MINIMAL_CONF.replace(
            "fd.variant = greenshields\nfd.u = 30\nfd.kappa = 200",
            f"fd.variant = tabulated\nfd.table = {table}")
        cfg = cli.parse_config(text)
        assert cfg.fd.speed(50.0) == pytest.approx(20.0)
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0

    def test_tabulated_survival_from_csv(self, tmp_path):
        table = tmp_path / "surv.csv"
        # first row: x grid; then rows of t followed by survival values
        table.write_text("0,1,2\n0.0,1,0.5,0\n1.0,1,0.8,0\n")
        text = MINIMAL_CONF.replace(
            "demand.distance.kind = exponential\ndemand.distance.B = 2",
            f"demand.distance.kind = tabulated\ndemand.table = {table}")
        cfg = cli.parse_config(text)
        assert cfg.distances.survival(0.0, 1.0) == pytest.approx(0.5)
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0

    def test_one_node_survival_table_is_a_config_error(self, tmp_path):
        table = tmp_path / "surv.csv"
        table.write_text("0\n0.0,1\n")
        text = MINIMAL_CONF.replace(
            "demand.distance.kind = exponential\ndemand.distance.B = 2",
            f"demand.distance.kind = tabulated\ndemand.table = {table}")
        with pytest.raises(bt.ConfigError, match="demand.table.*at least 2 nodes"):
            cli.parse_config(text)

    def test_tabulated_initial_profile_from_csv(self, tmp_path):
        table = tmp_path / "ic.csv"
        table.write_text("x,count\n0,50\n1,25\n2,0\n")
        text = MINIMAL_CONF + f"ic.kind = tabulated\nic.table = {table}\n"
        cfg = cli.parse_config(text)
        assert cfg.ic.lambda0 == 50.0
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0

    def test_missing_table_file_is_a_config_error(self, tmp_path):
        text = MINIMAL_CONF.replace(
            "fd.variant = greenshields\nfd.u = 30\nfd.kappa = 200",
            "fd.variant = tabulated\nfd.table = /nonexistent.csv")
        with pytest.raises(bt.ConfigError, match="fd.table"):
            cli.parse_config(text)


class TestSweep:
    def test_peak_count_monotone_in_plateau(self, tmp_path):
        text = PAPER_CONF.replace("grid.dx = 0.015625", "grid.dx = 0.0625")
        text = text.replace("outputs = series,ksurface,audit",
                            "outputs = series")
        code = cli.sweep(text, "demand.influx.plateau",
                         [2000.0, 3000.0, 4000.0], output_dir=str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "summary.csv")
        assert len(rows) == 3
        peaks = [float(r["peak_lambda"]) for r in rows]
        assert peaks == sorted(peaks)

    def test_dx_sweep_emits_convergence_orders(self, tmp_path):
        text = PAPER_CONF.replace("outputs = series,ksurface,audit",
                                  "outputs = series")
        code = cli.sweep(text, "grid.dx", [2**-3, 2**-4, 2**-5, 2**-6],
                         output_dir=str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "convergence.csv")
        orders = [float(r["order"]) for r in rows]
        assert all(0.7 <= p <= 1.3 for p in orders)

    def test_empty_value_list_rejected(self, tmp_path):
        with pytest.raises(bt.ConfigError):
            cli.sweep(PAPER_CONF, "grid.dx", [], output_dir=str(tmp_path))

    def test_failed_run_marks_row_and_exit(self, tmp_path):
        code = cli.sweep(PAPER_CONF, "network.L", [10.0, -1.0],
                         output_dir=str(tmp_path))
        assert code == 1
        rows = read_csv(tmp_path / "summary.csv")
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("failed")

    def test_failure_message_with_a_comma_stays_one_cell(self, tmp_path):
        text = (GOLDEN / "pulse.conf").read_text(encoding="utf-8")
        values = [0.25, 3.0, -1.0]
        assert cli.sweep(text, "grid.dx", values, output_dir=str(tmp_path)) == 1
        with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [6] * 4
        assert "," in rows[3][1]
        for v, row in zip(values[1:], rows[2:]):
            with pytest.raises(bt.BathtubError) as exc:
                cli.execute(cli.parse_config(
                    text.replace("grid.dx = 0.25", f"grid.dx = {v!r}")))
            assert row[1] == f"failed: {exc.value}"

    def test_quotes_in_a_failure_message_are_doubled(self, tmp_path, monkeypatch):
        def fail(cfg):
            raise bt.DomainError('a "quoted", message')
        monkeypatch.setattr(cli, "execute", fail)
        assert cli.sweep(PAPER_CONF, "network.L", [10.0],
                         output_dir=str(tmp_path)) == 1
        lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == '10.0,"failed: a ""quoted"", message",,nan,nan,nan'
        assert read_csv(tmp_path / "summary.csv")[0]["status"] == \
            'failed: a "quoted", message'

    def test_int_values_write_as_floats(self, tmp_path):
        text = (GOLDEN / "pulse.conf").read_text(encoding="utf-8")
        text += "model.scheme = integral\n"
        for name, values in (("int", [1, 0.5, 0.25]), ("float", [1.0, 0.5, 0.25])):
            assert cli.sweep(text, "grid.dx", values,
                             output_dir=str(tmp_path / name)) == 0
        for name in ("summary.csv", "convergence.csv"):
            assert ((tmp_path / "int" / name).read_bytes()
                    == (tmp_path / "float" / name).read_bytes())


def with_section(text, prefix, lines):
    """``text`` with every line starting ``prefix`` replaced by ``lines``."""
    kept = [ln for ln in text.splitlines() if not ln.startswith(prefix)]
    return "\n".join(kept + lines.splitlines()) + "\n"


def probe(obj):
    """Values that tell two built section objects apart."""
    if isinstance(obj, bt.FundamentalDiagram):
        return type(obj), obj.speed(np.array([0.0, 50.0, 150.0, 250.0])).tolist()
    if isinstance(obj, bt.InfluxProfile):
        ts = [0.0, 0.05, 0.15, 0.3]
        return type(obj), [obj.rate(t) for t in ts], obj.cumulative(0.3)
    if isinstance(obj, bt.DistanceDistribution):
        return (type(obj), obj.survival(0.1, 1.0), obj.mean_distance(0.1),
                obj.mean_distance(0.5))
    return type(obj), obj.lambda0, obj.profile_array(np.array([0.0, 1.0, 3.0])).tolist()


# One row per section kind: the section's attribute on RunConfig, the config
# lines that state the kind, and the object those lines must build.
SECTION_ROWS = {
    "fd=triangular": ("fd", "fd.variant = triangular\nfd.u = 30\nfd.w = 10\n"
                      "fd.kappa = 200", bt.Triangular(u=30.0, w=10.0, kappa=200.0)),
    "fd=trapezoidal": ("fd", "fd.variant = trapezoidal\nfd.u = 30\nfd.C = 750\n"
                       "fd.w = 10\nfd.kappa = 200",
                       bt.Trapezoidal(u=30.0, C=750.0, w=10.0, kappa=200.0)),
    "fd=greenshields": ("fd", "fd.variant = greenshields\nfd.u = 30\nfd.kappa = 200",
                        bt.Greenshields(u=30.0, kappa=200.0)),
    "influx=zero": ("influx", "demand.influx.kind = zero", bt.ZeroInflux()),
    "influx=constant": ("influx", "demand.influx.kind = constant\n"
                        "demand.influx.rate = 500", bt.ConstantInflux(500.0)),
    "influx=pulse": ("influx", "demand.influx.kind = pulse\ndemand.influx.ramp = 8000\n"
                     "demand.influx.plateau = 600\ndemand.influx.end = 0.2",
                     bt.TrapezoidalPulse(ramp=8000.0, plateau=600.0, end=0.2)),
    "influx=piecewise_linear": ("influx", "demand.influx.kind = piecewise_linear\n"
                                "demand.influx.nodes = 0:0, 0.1:800\n"
                                "demand.influx.nodes = 0.2:0",
                                bt.PiecewiseLinearInflux([(0.0, 0.0), (0.1, 800.0),
                                                          (0.2, 0.0)])),
    "distance=exponential": ("distances", "demand.distance.kind = exponential\n"
                             "demand.distance.B = 2", bt.ExponentialDistances(2.0)),
    "distance=uniform": ("distances", "demand.distance.kind = uniform\n"
                         "demand.distance.Btilde_nodes = 0:1, 0.4:3",
                         bt.UniformDistances(bt.PiecewiseLinear([0.0, 0.4], [1.0, 3.0]))),
    "distance=deterministic": ("distances", "demand.distance.kind = deterministic\n"
                               "demand.distance.B = 1.5",
                               bt.DeterministicDistances(1.5)),
    "ic=empty": ("ic", "ic.kind = empty", bt.EmptyNetwork()),
    "ic=exponential": ("ic", "ic.kind = exponential\nic.lambda0 = 50\nic.B = 0.5",
                       bt.ExponentialProfile(50.0, 0.5)),
}
_PREFIX = {"fd": "fd.", "influx": "demand.influx.", "distances": "demand.distance.",
           "ic": "ic."}


def row_config(name):
    attr, lines, _expected = SECTION_ROWS[name]
    return with_section(MINIMAL_CONF, _PREFIX[attr], lines)


class TestSectionRows:
    @pytest.mark.parametrize("name", sorted(SECTION_ROWS))
    def test_row_builds_its_object_and_runs(self, name, tmp_path):
        attr, _lines, expected = SECTION_ROWS[name]
        cfg = cli.parse_config(row_config(name))
        assert probe(getattr(cfg, attr)) == probe(expected)
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        assert len(read_csv(tmp_path / "series.csv")) > 1

    @pytest.mark.parametrize("name, key", sorted({
        (name, line.split("=")[0].strip())
        for name, (_a, lines, _e) in SECTION_ROWS.items()
        for line in lines.splitlines()[1:]}))
    def test_row_without_a_key_names_it(self, name, key):
        text = "".join(ln + "\n" for ln in row_config(name).splitlines()
                       if not ln.startswith(key + " "))
        short = re.escape(key.rsplit(".", 1)[1])
        with pytest.raises(bt.ConfigError, match=rf"\b{short}\b"):
            cli.parse_config(text)

    @pytest.mark.parametrize("key, value", [
        ("fd.variant", "parabolic"), ("demand.influx.kind", "sine"),
        ("demand.distance.kind", "gamma"), ("ic.kind", "full")])
    def test_unknown_kind_names_its_key(self, key, value):
        text = with_section(MINIMAL_CONF, key + " ", f"{key} = {value}")
        with pytest.raises(bt.ConfigError, match=re.escape(key)):
            cli.parse_config(text)


# One config per model.kind (and scheme) that the model accepts; each
# ``needs`` entry is a key whose removal the model must reject.
DET_CONF = with_section(
    with_section(MINIMAL_CONF, "demand.distance.", "demand.distance.kind = "
                 "deterministic\ndemand.distance.Btilde_nodes = 0:1.5, 0.5:2.5"),
    "grid.stop", "grid.stop = z:3\ngrid.dz = 0.125")
MODEL_ROWS = {
    "generalized": (MINIMAL_CONF, ("grid.dx", "grid.X")),
    "integral": (MINIMAL_CONF + "model.scheme = integral\ngrid.dt = 0.002\n",
                 ("grid.dx", "grid.X", "grid.dt")),
    "vickrey": (with_section(row_config("influx=constant"), "model.kind",
                             "model.kind = vickrey\ngrid.dt = 0.002"),
                ("grid.dt", "demand.distance.B")),
    "deterministic": (with_section(with_section(DET_CONF, "demand.influx.",
                                                SECTION_ROWS["influx=pulse"][1]),
                                   "model.kind", "model.kind = deterministic"),
                      ("grid.dz",)),
    "constant": (with_section(with_section(DET_CONF, "demand.distance.B",
                                           "demand.distance.B = 1.5"),
                              "model.kind", "model.kind = constant"),
                 ("grid.dz", "demand.distance.B")),
}


class TestModelRows:
    @pytest.mark.parametrize("model", sorted(MODEL_ROWS))
    def test_model_parses_and_runs(self, model, tmp_path):
        text, _needs = MODEL_ROWS[model]
        cfg = cli.parse_config(text)
        assert cfg.model_kind == ("generalized" if model == "integral" else model)
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        rows = read_csv(tmp_path / "series.csv")
        assert len(rows) > 1 and float(rows[-1]["t"]) > 0.0

    @pytest.mark.parametrize("model, key", [
        (model, key) for model, (_t, needs) in sorted(MODEL_ROWS.items())
        for key in needs])
    def test_model_without_a_key_names_it(self, model, key):
        text = "".join(ln + "\n" for ln in MODEL_ROWS[model][0].splitlines()
                       if not ln.startswith(key + " "))
        with pytest.raises(bt.ConfigError, match=re.escape(key)):
            cli.parse_config(text)

    @pytest.mark.parametrize("model, kind", [
        ("vickrey", "uniform"), ("deterministic", "exponential"),
        ("constant", "uniform")])
    def test_model_rejects_other_distance_kinds(self, model, kind):
        text = MODEL_ROWS[model][0].replace(
            "demand.distance.kind = " + ("exponential" if model == "vickrey"
                                         else "deterministic"),
            "demand.distance.kind = " + kind)
        with pytest.raises(bt.ConfigError, match="demand.distance.kind"):
            cli.parse_config(text)

    @pytest.mark.parametrize("model", ["vickrey", "constant"])
    def test_reduced_model_needs_a_constant_mean(self, model):
        text = with_section(MODEL_ROWS[model][0], "demand.distance.B ",
                            "demand.distance.Btilde_nodes = 0:1.5, 0.5:2.5")
        with pytest.raises(bt.ConfigError, match=r"demand\.distance\.B\b"):
            cli.parse_config(text)

    @pytest.mark.parametrize("model, output", [
        ("vickrey", "ksurface"), ("vickrey", "traveltimes"),
        ("deterministic", "ksurface"), ("deterministic", "audit"),
        ("constant", "traveltimes")])
    def test_model_rejects_outputs_it_cannot_write(self, model, output):
        text = MODEL_ROWS[model][0] + f"outputs = series,{output}\n"
        with pytest.raises(bt.ConfigError, match=f"outputs={output}"):
            cli.parse_config(text)


REDUCED_ICS = {
    "empty": "ic.kind = empty",
    "exponential": "ic.kind = exponential\nic.lambda0 = 100\nic.B = 7",
    "tabulated": "ic.kind = tabulated\nic.table = {table}",
}
REDUCED_MEANS = {
    "B": "demand.distance.B = 2",
    "nodes": "demand.distance.Btilde_nodes = 0:1.5, 0.5:2.5",
    "both": "demand.distance.B = 2\ndemand.distance.Btilde_nodes = 0:1.5, 0.5:2.5",
}


def model_config(model, ic, mean, table):
    """``MODEL_ROWS[model]`` on a small grid with the start ``ic`` and the
    mean distance ``mean``."""
    text = MODEL_ROWS[model][0]
    for prefix, lines in (("grid.dx", "grid.dx = 0.125"), ("grid.X", "grid.X = 3"),
                          ("grid.stop", "grid.stop = z:4"),
                          ("demand.distance.B", REDUCED_MEANS[mean]),
                          ("ic.", REDUCED_ICS[ic].format(table=table))):
        text = with_section(text, prefix, lines)
    return text


def reduced_key(model, ic, mean):
    """The key a config must name when Vickrey's ODE or the constant-distance
    recursion cannot solve it, else None."""
    if model not in ("vickrey", "constant"):
        return None
    if mean != "B":
        return {"nodes": "demand.distance.B", "both": "demand.distance.Btilde_nodes"}[mean]
    if ic == "tabulated" or (ic == "exponential" and model == "constant"):
        return "ic.kind"
    return "ic.B" if ic == "exponential" else None


class TestReducedModelInputs:
    """Vickrey's ODE reads only demand.distance.B and lambda(0), and the
    constant-distance recursion starts empty: what they cannot solve fails
    at parse time, naming its key, instead of running with wrong counts."""

    @pytest.mark.parametrize("mean", sorted(REDUCED_MEANS))
    @pytest.mark.parametrize("ic", sorted(REDUCED_ICS))
    @pytest.mark.parametrize("model", sorted(MODEL_ROWS))
    def test_runs_or_fails_with_one_named_error(self, model, ic, mean, tmp_path,
                                                capsys):
        table = tmp_path / "ic.csv"
        table.write_text("x,count\n0,400\n0.5,250\n1.5,0\n")
        conf = tmp_path / "run.conf"
        conf.write_text(model_config(model, ic, mean, table))
        code = cli.main(["run", str(conf), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        key = reduced_key(model, ic, mean)
        if key is None:
            assert code in (0, 2), err
            return
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert key in lines[0]

    def test_vickrey_runs_from_an_exponential_start_of_the_same_mean(self, tmp_path):
        text = with_section(model_config("vickrey", "exponential", "B", ""),
                            "ic.B", "ic.B = 2")
        cfg = cli.parse_config(text)
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        # g(0) = lambda(0) v(0) / B
        g0 = float(read_csv(tmp_path / "series.csv")[0]["g"])
        assert g0 == pytest.approx(100.0 * float(cfg.fd.speed(10.0)) / 2.0)

    @pytest.mark.parametrize("model", ["vickrey", "constant"])
    def test_empty_start_of_any_kind_is_accepted(self, model, tmp_path):
        text = with_section(model_config(model, "exponential", "B", ""),
                            "ic.lambda0", "ic.lambda0 = 0")
        assert cli.run(cli.parse_config(text), output_dir=str(tmp_path)) == 0

    def test_constant_mean_must_be_whole_dz_cells(self, tmp_path):
        # B = 2 is 6.67 cells of dz = 0.3, which the recursion cannot place
        text = model_config("constant", "empty", "B", "")
        with pytest.raises(bt.ConfigError,
                           match=r"demand\.distance\.B\b.*grid\.dz"):
            cli.parse_config(with_section(text, "grid.dz", "grid.dz = 0.3"))
        cfg = cli.parse_config(with_section(text, "grid.dz", "grid.dz = 0.5"))
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0


# A config that reads each numeric key, with the key's line last.
NUMERIC_USES = {
    "network.L": MINIMAL_CONF,
    **{key: row_config("fd=trapezoidal") for key in ("fd.u", "fd.C", "fd.w",
                                                     "fd.kappa")},
    **{key: row_config("influx=pulse") for key in (
        "demand.influx.ramp", "demand.influx.plateau", "demand.influx.end")},
    "demand.influx.rate": row_config("influx=constant"),
    "demand.distance.B": MINIMAL_CONF,
    "ic.lambda0": row_config("ic=exponential"),
    "ic.B": row_config("ic=exponential"),
    "grid.dx": MINIMAL_CONF, "grid.X": MINIMAL_CONF,
    "grid.dt": MINIMAL_CONF + "grid.dt = 0.002\n",
    "grid.dz": MINIMAL_CONF + "grid.dz = 0.125\n",
}


class TestNumericKeys:
    def test_every_numeric_key_is_covered(self):
        assert set(NUMERIC_USES) == set(cli._FLOAT_KEYS)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("key", sorted(NUMERIC_USES))
    def test_bad_value_names_the_key(self, key, value):
        text = with_section(NUMERIC_USES[key], key + " ", f"{key} = {value}")
        with pytest.raises(bt.ConfigError, match=re.escape(key)):
            cli.parse_config(text)

    @pytest.mark.parametrize("key", sorted(NUMERIC_USES))
    def test_zero_only_where_allowed(self, key):
        text = with_section(NUMERIC_USES[key], key + " ", f"{key} = 0")
        if key in ("demand.influx.rate", "ic.lambda0"):
            assert cli.parse_config(text) is not None
        else:
            with pytest.raises(bt.ConfigError, match=re.escape(key)):
                cli.parse_config(text)

    @pytest.mark.parametrize("stop", ["t:inf", "z:nan", "t:-1", "z:0"])
    def test_bad_stop_target_names_the_key(self, stop):
        text = with_section(MINIMAL_CONF, "grid.stop", f"grid.stop = {stop}")
        with pytest.raises(bt.ConfigError, match="grid.stop"):
            cli.parse_config(text)

    def test_run_with_infinite_speed_fails_at_parse_time(self, tmp_path, capsys):
        # an infinite free-flow speed makes every characteristic step dt = 0,
        # so a t: stop is never reached
        conf = tmp_path / "inf.conf"
        conf.write_text(with_section(MINIMAL_CONF, "fd.u", "fd.u = inf"))
        assert cli.main(["run", str(conf), "--out", str(tmp_path / "out")]) == 1
        assert "fd.u" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "grid.dx",
                                                   "--values", "0.25"]])
    def test_missing_config_file_is_an_error(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.conf")
        argv = command[:1] + [missing] + command[1:] + ["--out", str(tmp_path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot read config" in err

    def test_sweep_reads_the_config_file(self, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text(MINIMAL_CONF)
        assert cli.main(["sweep", str(conf), "--param", "network.L",
                         "--values", "10,20", "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "summary.csv")) == 2


def golden_config(scheme, outputs):
    """``pulse.conf`` under ``scheme`` with only ``outputs`` written."""
    text = (GOLDEN / "pulse.conf").read_text(encoding="utf-8")
    text = with_section(text, "outputs", f"outputs = {outputs}")
    return text + f"model.scheme = {scheme}\n"


class TestOnePass:
    @pytest.mark.parametrize("scheme", ["characteristic", "integral"])
    @pytest.mark.parametrize("outputs,limit", [
        (",".join(cli._OUTPUTS), 257), ("ksurface", 257), ("audit", 129), ("series", 0)])
    def test_each_row_is_built_once_per_pass(self, scheme, outputs, limit, tmp_path,
                                             monkeypatch):
        # ksurface and the audit read one stream of row blocks: every row
        # either needs is built once, and no array of all rows is collected
        built, runs = [], []
        produce = bt.Trajectory.profile_blocks

        def counted(traj, *args, **kwargs):
            runs.append(traj)
            for steps, rows in produce(traj, *args, **kwargs):
                assert len(steps) == len(rows) <= 16
                built.append(steps)
                yield steps, rows

        def collected(*args, **kwargs):
            raise AssertionError("cli.run collected every row at once")

        monkeypatch.setattr(bt.Trajectory, "profile_blocks", counted)
        monkeypatch.setattr(bt.Trajectory, "profiles", collected)
        cfg = cli.parse_config(golden_config(scheme, outputs))
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        assert len(runs) == (limit > 0)
        if limit:
            expected = runs[0].profile_steps(limit)
            assert_same_bits(np.concatenate(built), expected)

    def test_peak_memory_holds_no_steps_by_cells_array(self, tmp_path):
        # the rows of K stream through ksurface and the audit in blocks of
        # 16: a quarter of the surface's bytes (steps x nodes x 8, sized
        # from the written file) bounds the pass's peak, where an array of
        # every row would take all of them
        text = with_section(PAPER_CONF, "outputs",
                            "outputs = " + ",".join(cli._OUTPUTS))
        cfg = cli.parse_config(text)
        status, peak = traced_peak(lambda: cli.run(cfg, output_dir=str(tmp_path)))
        assert status == 0
        with open(tmp_path / "ksurface.csv", encoding="utf-8") as fh:
            nodes = len(fh.readline().split(",")) - 1
            steps = sum(1 for _ in fh)
        assert (steps, nodes) == (1921, 321)
        assert peak < 0.25 * steps * nodes * 8

    def test_integral_peak_memory_is_one_survival_ring(self, tmp_path):
        # an integral run rebuilds its rows from one ring of node survivals,
        # as tall as the widest 16-row window of the entry log: twice the
        # ring's bytes, cap x (cells + nodes + 1) x 8, bound the pass's peak,
        # where a table per chunk (with the last one and its gathers still
        # alive) took about 3.5 times them
        text = with_section(PAPER_CONF, "grid.dx", "grid.dx = 0.03125\n"
                            f"grid.dt = {2.0**-5 / 30.0!r}\nmodel.scheme = integral")
        cfg = cli.parse_config(with_section(text, "outputs",
                                            "outputs = " + ",".join(cli._OUTPUTS)))
        traj = cli.execute(cfg)
        cap = max(top - base for base, top in
                  ring_windows(traj, traj.t[traj.profile_steps(257)]))
        cells = traj.x_grid.size - 1
        ring = cap * (cells + (cells + 1) + 1) * 8
        status, peak = traced_peak(lambda: cli.run(cfg, output_dir=str(tmp_path)))
        assert status == 0
        assert (cap, cells) == (783, 160)
        assert peak < 2 * ring

    def test_sweep_holds_one_level_at_a_time(self, tmp_path):
        # three integral levels of about 800 steps each at one dt: a sweep
        # that keeps the last level's trajectory while the next one solves
        # peaks near 1.8 times one level's solve, one that keeps only each
        # level's row near 1.1 times
        text = with_section(PAPER_CONF, "outputs", "outputs = series")
        text = with_section(text, "grid.dt", f"grid.dt = {2.0**-4 / 30.0!r}\n"
                            "model.scheme = integral")
        values = [2.0**-2, 2.0**-3, 2.0**-4]
        status, peak = traced_peak(lambda: cli.sweep(text, "grid.dx", values,
                                                     output_dir=str(tmp_path)))
        assert status == 0
        cfg = cli.parse_config(with_section(text, "grid.dx",
                                            f"grid.dx = {values[-1]!r}"))
        traj, one = traced_peak(lambda: cli.execute(cfg))
        assert traj.n_steps == 800
        assert peak < 1.3 * one

    def test_too_fine_a_grid_is_one_error_line(self, tmp_path, capsys):
        # X/dx = 2e9 cells: an x grid alone would take 16 GB
        conf = tmp_path / "fine.conf"
        conf.write_text(with_section(golden_config("characteristic", "series"),
                                     "grid.dx", "grid.dx = 1e-9"))
        assert cli.main(["run", str(conf), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "dx" in err[0] and "X" in err[0]


@pytest.mark.parametrize("scheme", ["characteristic", "integral"])
def test_doubled_demand_doubles_the_series_counts(scheme, tmp_path):
    # L and the inflow times 2 (an empty start): no clock, distance or speed
    # moves, and every count doubles exactly, as the solvers' relation
    # tests find; the CSV cells read back to the same floats
    text = with_section(PAPER_CONF, "outputs", "outputs = series")
    text = with_section(text, "grid.dx", "grid.dx = 0.03125\n"
                        f"grid.dt = {2.0**-5 / 30.0!r}\nmodel.scheme = {scheme}")
    doubled = text
    for key, value in [("network.L", "20"), ("demand.influx.ramp", "20000"),
                       ("demand.influx.plateau", "8000")]:
        doubled = with_section(doubled, key, f"{key} = {value}")
    series = {}
    for name, conf in [("one", text), ("two", doubled)]:
        assert cli.run(cli.parse_config(conf), output_dir=str(tmp_path / name)) == 0
        rows = read_csv(tmp_path / name / "series.csv")
        series[name] = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    one, two = series["one"], series["two"]
    assert sorted(one) == sorted(["t", "z", "lambda", "v", "f", "F", "g", "G"])
    for key in ("t", "z", "v"):
        assert_same_bits(two[key], one[key])
    for key in ("lambda", "f", "F", "g", "G"):
        assert_same_bits(two[key], 2.0 * one[key])
    assert one["lambda"].max() > 1000.0


def ksurface_reference(t, K):
    return [",".join(map(str, [tj, *row]))
            for tj, row in zip(t, np.asarray(K).tolist())]


# Hand-built K rows for the ksurface row rule: each case names what it holds.
KSURFACE_CASES = {
    "-0.0 in the middle": [[5.0, 4.0, -0.0, 2.0, 0.0],
                           [4.0, -0.0, -0.0, 0.0, 0.0]],
    "-0.0 inside a +0.0 tail": [[1.0, 0.0, -0.0, 0.0, 0.0],
                                [0.0, -0.0, 0.0, 0.0, 0.0]],
    "-0.0 under a +0.0 of the previous row": [[2.0, 1.0, 0.0, 3.0, 0.0],
                                              [1.0, -0.0, 3.0, 0.0, 0.0],
                                              [-0.0, 3.0, 0.0, 0.0, -0.0]],
    "an all-zero row": [[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 0.0],
                        [0.0, 0.0, 0.0]],
    "rows with no zero": [[3.0, 2.5, 2.0, 1.5], [2.5, 2.0, 1.5, 1.25],
                          [0.1, 0.2, 0.3, 0.4]],
    "a subnormal": [[1e-300, 5e-324, 0.0], [5e-324, 0.0, 0.0],
                    [2.2250738585072014e-308 / 3, 5e-324, -5e-324]],
    "an exact shift": [[4.0, 3.0, 2.0, 1.0, 0.1], [3.0, 2.0, 1.0, 0.1, 0.0],
                       [2.0, 1.0, 0.1, 0.0, 0.0], [1.0, 0.1, 0.0, 0.0, 0.0]],
    "one row": [[0.1, 0.2, 0.30000000000000004]],
    "nan and inf": [[np.inf, np.nan, 1.0], [np.nan, 1.0, 0.0], [1.0, -np.inf, 0.0]],
}


class TestKsurfaceRows:
    @pytest.mark.parametrize("case", sorted(KSURFACE_CASES))
    def test_rows_match_cell_by_cell_formatting(self, case):
        K = np.array(KSURFACE_CASES[case])
        t = (np.arange(len(K)) * 0.1).tolist()
        rows = list(cli._ksurface_rows(np.array(t), K))
        assert all(row.endswith("\n") for row in rows)
        assert [row[:-1] for row in rows] == ksurface_reference(t, K)

    @pytest.mark.parametrize("split", [1, 5, 16])
    def test_rows_split_over_calls_match(self, split, tmp_path):
        # the writer formats one block of rows at a time
        K = np.array(KSURFACE_CASES["an exact shift"] * 5)
        traj = SimpleNamespace(t=np.arange(len(K)) / 3.0,
                               x_grid=np.arange(K.shape[1]) * 0.5)
        blocks = [(np.arange(a, min(a + split, len(K))), K[a:a + split])
                  for a in range(0, len(K), split)]
        path = tmp_path / "ksurface.csv"
        yielded = list(cli._write_ksurface(str(path), traj, blocks))
        assert len(yielded) == len(blocks)  # each block passed on as it is
        assert all(s is bs and k is bk for (s, k), (bs, bk) in zip(yielded, blocks))
        lines = path.read_text().splitlines()
        assert lines[0] == "t," + ",".join(map(str, traj.x_grid.tolist()))
        assert lines[1:] == ksurface_reference(traj.t.tolist(), K)

    def test_shifted_rows_with_changes_match(self):
        rng = np.random.default_rng(7)
        rows = [rng.random(40)]
        for _ in range(60):
            row = np.append(rows[-1][1:], 0.0)
            hit = rng.random(40) < 0.3
            row[hit] += rng.random(hit.sum())
            row[rng.random(40) < 0.05] = -0.0
            row[rng.integers(0, 41):] = 0.0
            rows.append(row)
        K = np.array(rows)
        t = np.arange(len(K)) / 7.0
        assert ([row[:-1] for row in cli._ksurface_rows(t, K)]
                == ksurface_reference(t.tolist(), K))
