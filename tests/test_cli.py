"""End-to-end tests of the command-line interface.

Most tests call :func:`limitcycles.cli.main` in-process from a temporary
working directory; two run ``python -m limitcycles`` as a child process to
check the exit code and stderr of the real entry point, and one runs a
fresh interpreter to check which modules a cold start loads.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import limitcycles
import limitcycles.integrator as integrator
from limitcycles.cli import (
    OUTPUT_DIR_ENV,
    ComparisonRow,
    RunConfig,
    build_comparison,
    main,
    write_comparison_csv,
)
from limitcycles.errors import DomainError
from limitcycles.geometry import MAX_PIECES, read_curve
from limitcycles.integrator import IntegratorConfig, limit_cycle
from limitcycles.oscillators import OscillatorSpec


# The directory holding the package these tests imported.  The child process
# runs in a temporary working directory, so a relative PYTHONPATH inherited
# from the caller would no longer find the package; putting this absolute path
# first makes the child import the same source tree as the tests.
PACKAGE_ROOT = str(Path(limitcycles.__file__).resolve().parents[1])


def run_python(*args, cwd):
    env = dict(os.environ)
    paths = (PACKAGE_ROOT, env.get("PYTHONPATH", ""))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )


def run_cli(*args, cwd):
    return run_python("-m", "limitcycles", *args, cwd=cwd)


def refuse_integration(*args, **kw):
    raise AssertionError("integrated an input that should have been refused")


@pytest.fixture
def cli(tmp_path, monkeypatch, capsys):
    """``cli(*args)`` runs ``main(args)`` with ``tmp_path`` as the working
    directory and returns its exit code and captured output."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)

    def run(*args):
        code = main(list(args))
        out = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out.out, out.err)

    return run


def printed_amplitude(stdout: str) -> float:
    match = re.search(r"amplitude = ([-+0-9.eE]+)", stdout)
    assert match, f"no amplitude line in {stdout!r}"
    return float(match.group(1))


class TestAmplitudeCommand:
    def test_exact_rayleigh_anchor(self, cli, tmp_path):
        result = cli(
            "amplitude", "--system", "rayleigh", "--eps", "1", "--method", "exact",
        )
        assert result.returncode == 0, result.stderr
        assert printed_amplitude(result.stdout) == pytest.approx(2.17271, abs=0.002)
        record = json.loads(
            (tmp_path / "amplitude_rayleigh_exact_eps1.json").read_text()
        )
        assert record["system"] == "rayleigh"
        assert record["method"] == "exact"
        assert record["amplitude"] == pytest.approx(2.17271, abs=0.002)
        assert record["period"] == pytest.approx(6.663, abs=0.01)

    def test_exact_is_the_sweep_reading(self, cli, tmp_path):
        result = cli(
            "amplitude", "--system", "vdp", "--eps", "3", "--method", "exact",
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(
            (tmp_path / "amplitude_vanderpol_exact_eps3.json").read_text()
        )
        swept = integrator.amplitude_sweep("vanderpol", [3.0]).amplitude[0]
        assert record["amplitude"] == swept
        assert record["cycles_used"] >= 2

    def test_calibrated_closed_form_matches_anchor(self, cli):
        result = cli(
            "amplitude", "--system", "rayleigh", "--eps", "1",
            "--method", "irgm", "--preset", "rayleigh",
        )
        assert result.returncode == 0, result.stderr
        assert printed_amplitude(result.stdout) == pytest.approx(2.1727, abs=1e-3)

    def test_vdp_alias_and_fit_method(self, cli):
        result = cli(
            "amplitude", "--system", "vdp", "--eps", "50", "--method", "fit",
        )
        assert result.returncode == 0, result.stderr
        assert printed_amplitude(result.stdout) == pytest.approx(2.0025, abs=0.01)

    def test_table_only_keeps_the_table_past_the_switch(self, cli, tmp_path):
        result = cli(
            "amplitude", "--system", "rayleigh", "--eps", "10",
            "--method", "ham", "--table-only",
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(
            (tmp_path / "amplitude_rayleigh_ham_eps10.json").read_text()
        )
        h = record["control_h"]
        assert h == pytest.approx(1.0 / (0.5 + 10.0 * 0.176), abs=1e-6)
        assert h == pytest.approx(0.442478, abs=1e-6)
        assert record["amplitude"] == pytest.approx(2.0 + h * 100.0 / 8.0, abs=1e-12)
        # the default reading is on the linear tail there
        assert record["amplitude"] != pytest.approx(7.604156, abs=1e-3)

    def test_large_eps_exits_two_at_the_field_call_budget(self, cli, tmp_path):
        # it used to run for minutes; the budget stops it in about 3 s
        start = time.monotonic()
        result = cli(
            "amplitude", "--system", "rayleigh", "--eps", "1e4", "--method", "exact",
        )
        assert time.monotonic() - start < 30.0
        assert result.returncode == 2
        assert "past its budget of 5000000" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_domain_error_exits_one(self, tmp_path):
        result = run_cli(
            "amplitude", "--system", "rayleigh", "--eps", "1", "--method", "fit",
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "vanderpol" in result.stderr

    def test_unknown_system_exits_one(self, cli):
        result = cli(
            "amplitude", "--system", "duffing", "--eps", "1", "--method", "exact",
        )
        assert result.returncode == 1
        assert "unknown system" in result.stderr

    @pytest.mark.parametrize(
        "method, eps, power",
        [("rg", "1e120", "eps**3"), ("irgm", "1e200", "eps**h_rg"),
         ("exact", "1e308", "the transient 2*eps")],
    )
    def test_overflow_exits_one(self, cli, method, eps, power):
        result = cli(
            "amplitude", "--system", "rayleigh", "--eps", eps,
            "--method", method, "--hrg", "2",
        )
        assert result.returncode == 1
        assert f"{power} overflows at eps={float(eps)!r}" in result.stderr

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--method", "irgm", "--hrg", "nan"), "h_rg must be finite"),
            (("--method", "exact", "--rel-tol", "nan"), "tolerances must be positive"),
        ],
        ids=["hrg", "rel-tol"],
    )
    def test_nan_option_exits_one_before_integrating(
        self, cli, monkeypatch, option, message
    ):
        # NaN passes every `<= 0` check: it used to be written out as a NaN
        # amplitude, or to spin the stepper forever on a NaN step
        monkeypatch.setattr(integrator, "solve_ivp", refuse_integration)
        result = cli("amplitude", "--system", "rayleigh", "--eps", "2", *option)
        assert result.returncode == 1
        assert message in result.stderr


class TestSweepCommand:
    def test_csv_and_svg_artifacts(self, cli, tmp_path):
        result = cli(
            "sweep", "--system", "rayleigh", "--grid", "0.5,1,2",
            "--methods", "exact,ham,rg", "--jobs", "3",
        )
        assert result.returncode == 0, result.stderr
        csv_path = tmp_path / "sweep_rayleigh.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ComparisonRow.CSV_HEADER
        assert len(lines) == 4
        # fixed 12-significant-digit fields
        first = lines[1].split(",")
        assert re.fullmatch(r"5\.00000000000e-01", first[0])
        assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2,3}", first[1])
        # tuned expansion stays under a percent on this grid
        rel = [float(line.split(",")[5]) for line in lines[1:]]
        assert max(rel) < 1.0
        svg = (tmp_path / "sweep_rayleigh.svg").read_text()
        ET.fromstring(svg)  # well-formed XML
        assert "series exact" in svg and "x: " in svg  # embedded numeric data
        assert "href" not in svg  # self-contained

    def test_deterministic_output(self, cli, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            result = cli(
                "sweep", "--system", "vdp", "--grid", "1,2",
                "--methods", "exact,fit", "--output-dir", sub,
            )
            assert result.returncode == 0, result.stderr
        assert (tmp_path / "a/sweep_vanderpol.csv").read_bytes() == (
            tmp_path / "b/sweep_vanderpol.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ("sweep", "--system", "rayleigh", "--grid", "1"),
            ("report",),
            ("sweep", "--system", "rayleigh", "--grid", "1", "--methods", "ham"),
        ],
    )
    def test_jobs_below_one_exits_one(self, cli, tmp_path, args):
        out = tmp_path / "out"
        out.mkdir()
        result = cli(*args, "--jobs", "0", "--output-dir", str(out))
        assert result.returncode == 1
        assert "jobs must be at least 1" in result.stderr
        assert list(out.iterdir()) == []  # rejected before any work

    def test_irgm_takes_the_system_preset(self, cli, tmp_path):
        # without --preset, sweep and amplitude both use the system's own one
        result = cli(
            "sweep", "--system", "vdp", "--grid", "1.5", "--methods", "irgm",
        )
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "sweep_vanderpol.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["error"] == ""
        result = cli(
            "amplitude", "--system", "vdp", "--eps", "1.5", "--method", "irgm",
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(
            (tmp_path / "amplitude_vanderpol_irgm_eps1p5.json").read_text()
        )
        assert record["preset"] == "vdp-consistent"
        assert float(row["a_irgm"]) == float(f"{record['amplitude']:.11e}")

    def test_overflow_is_recorded_in_its_row(self, cli, tmp_path):
        result = cli(
            "sweep", "--system", "rayleigh", "--grid", "1,1e120", "--methods", "rg",
        )
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "sweep_rayleigh.csv", newline="") as fh:
            ok, overflow = csv.DictReader(fh)
        assert ok["error"] == "" and float(ok["a_rg"]) > 2.0
        assert overflow["a_rg"] == ""
        assert overflow["error"] == "rg: eps**3 overflows at eps=1e+120"

    def test_transient_overflow_is_recorded_in_its_row(self, cli, tmp_path):
        # 2*eps used to reach the solver as an infinite span
        result = cli("sweep", "--system", "rayleigh", "--grid", "1,1e308")
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "sweep_rayleigh.csv", newline="") as fh:
            ok, overflow = csv.DictReader(fh)
        assert ok["error"] == "" and float(ok["a_exact"]) > 2.0
        assert overflow["a_exact"] == ""
        assert overflow["error"] == (
            "DomainError: the transient 2*eps overflows at eps=1e+308"
        )

    def test_failed_plot_leaves_no_svg(self, cli, tmp_path):
        # every row fails, so there is nothing to plot
        result = cli(
            "sweep", "--system", "rayleigh", "--grid", "1,2",
            "--methods", "irgm", "--preset", "vdp-paper",
        )
        assert result.returncode == 1
        assert "no finite data to plot" in result.stderr
        assert (tmp_path / "sweep_rayleigh.csv").exists()
        assert not (tmp_path / "sweep_rayleigh.svg").exists()

    def test_one_failed_series_still_plots(self, cli, tmp_path):
        # two readings cannot settle to 1e-16, so the exact point fails; the
        # ham column alone sets the plot's bounds
        config = {"integrator": {"transient_time": 0, "max_cycles": 2, "cycle_tol": 1e-16}}
        (tmp_path / "run.json").write_text(json.dumps(config))
        result = cli(
            "sweep", "--config", "run.json", "--grid", "1", "--methods", "exact,ham",
        )
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "sweep_rayleigh.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["a_exact"] == "" and float(row["a_ham"]) > 2.0
        assert row["error"].startswith("ConvergenceError: amplitude not settled")
        svg = (tmp_path / "sweep_rayleigh.svg").read_text()
        ET.fromstring(svg)
        assert svg.count("<circle") == 1  # the ham point; exact draws nothing

    @pytest.mark.parametrize(
        "section, message",
        [
            # every config an older to_json() wrote carries "method": "RK45"
            ({"integrator": {"method": "DOP853"}}, "method"),
            ({"integrator": {"rel_tol": math.nan}}, "tolerances must be positive"),
            # the step-control law is fixed; a config carrying it is refused by name
            ({"ham_control": {}}, "ham_control"),
            # the equilibrium would pass as a converged cycle of amplitude 0
            ({"integrator": {"seed": [0.0, 0.0]}}, "seed must be finite and not the origin"),
            ({"integrator": {"seed": [math.nan, 0.0]}}, "seed must be finite"),
            # each used to pass, and every exact point then failed in the CSV
            ({"integrator": {"seed": [2]}}, "seed must be a (y, z) pair"),
            ({"integrator": 5}, "integrator must be a JSON object"),
            ({"integrator": None}, "integrator must be a JSON object"),
            ({"eps_grid": ["a"]}, "cannot read config"),
            # used to end in a TypeError traceback
            (None, "a run config must be a JSON object, got None"),
        ],
        ids=["method", "rel_tol", "ham_control", "seed_origin", "seed_nan",
             "seed_short", "integrator_scalar", "integrator_null", "eps_grid_text",
             "config_null"],
    )
    def test_config_refused_before_any_work(
        self, cli, tmp_path, monkeypatch, section, message
    ):
        monkeypatch.setattr(integrator, "solve_ivp", refuse_integration)
        (tmp_path / "run.json").write_text(json.dumps(section))
        result = cli(
            "sweep", "--config", "run.json", "--grid", "1", "--methods", "exact,ham",
        )
        assert result.returncode == 1
        assert message in result.stderr
        assert not list(tmp_path.glob("sweep_*"))

    def test_irgm_and_fit_conflict(self, cli):
        result = cli(
            "sweep", "--system", "vdp", "--grid", "1", "--methods", "irgm,fit",
        )
        assert result.returncode == 1
        assert "share the closed-form column" in result.stderr

    def test_range_grid_parsing(self, cli, tmp_path):
        result = cli(
            "sweep", "--system", "vdp", "--grid", "1:2:0.5", "--methods", "fit",
        )
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / "sweep_vanderpol.csv").read_text().splitlines()
        eps = [float(line.split(",")[0]) for line in lines[1:]]
        assert eps == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("grid", ["0:nan:1", "1:inf:1", "a:2:1"])
    def test_range_grid_refused(self, cli, tmp_path, grid):
        # each used to end in a ValueError or OverflowError traceback
        result = cli("sweep", "--grid", grid, "--methods", "rg")
        assert result.returncode == 1
        assert result.stderr.startswith("error:") and repr(grid) in result.stderr
        assert not list(tmp_path.glob("sweep_*"))


class TestCycleCommand:
    def test_appendix_table_audit(self, cli, tmp_path):
        result = cli(
            "cycle", "--system", "vdp", "--eps", "5", "--appendix-c",
        )
        assert result.returncode == 0, result.stderr
        assert "piece 8 is non-real" in result.stdout
        assert "right side non-real" in result.stdout
        assert (tmp_path / "cycle_vanderpol_eps5.csv").exists()
        svg = (tmp_path / "phase_vanderpol_eps5.svg").read_text()
        ET.fromstring(svg)
        assert "published table" in svg

    def test_bundled_tables_only_at_eps_five(self, cli, tmp_path, monkeypatch):
        # refused before the cycle is integrated and its CSV written
        monkeypatch.setattr(integrator, "solve_ivp", refuse_integration)
        result = cli(
            "cycle", "--system", "vdp", "--eps", "2", "--appendix-c",
        )
        assert result.returncode == 1
        assert "eps = 5" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_bad_fit_tolerance_exits_one_before_integrating(
        self, cli, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(integrator, "solve_ivp", refuse_integration)
        result = cli("cycle", "--system", "rayleigh", "--eps", "1", "--fit", "0")
        assert result.returncode == 1
        assert "fit tolerance must be positive and finite" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_fit_overlay_writes_curve(self, cli, tmp_path):
        result = cli(
            "cycle", "--system", "rayleigh", "--eps", "5", "--fit", "0.1",
        )
        assert result.returncode == 0, result.stderr
        curve = read_curve(tmp_path / "fit_rayleigh_eps5.curve")
        assert 1 <= len(curve.pieces) <= 20
        assert "max distance" in result.stdout

    def test_fit_past_the_piece_budget_exits_two(self, tmp_path):
        # the fit fails before the cycle's CSV is written
        result = run_cli(
            "cycle", "--system", "vdp", "--eps", "5", "--fit", "1e-4", cwd=tmp_path,
        )
        assert result.returncode == 2
        assert f"more than {MAX_PIECES} pieces" in result.stderr
        assert list(tmp_path.iterdir()) == []


class TestFitCommand:
    """The fitted-curve job, run as `cycle --fit TOL`."""

    def test_writes_loadable_curve(self, cli, tmp_path):
        result = cli("cycle", "--system", "vdp", "--eps", "5", "--fit", "0.1")
        assert result.returncode == 0, result.stderr
        curve = read_curve(tmp_path / "fit_vanderpol_eps5.curve")
        assert len(curve.pieces) <= 20
        assert curve.symmetric

    def test_nan_tolerance_exits_one(self, cli, tmp_path, monkeypatch):
        monkeypatch.setattr(integrator, "solve_ivp", refuse_integration)
        result = cli("cycle", "--system", "vdp", "--eps", "1", "--fit", "nan")
        assert result.returncode == 1
        assert "fit tolerance must be positive and finite" in result.stderr
        assert list(tmp_path.iterdir()) == []


class TestOutputDirResolution:
    def test_sweep_takes_the_flag_then_the_config_then_the_env_var(
        self, cli, tmp_path, monkeypatch
    ):
        # a config's output_dir used to default to ".", which hid the env var
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "from_env"))
        args = ("sweep", "--system", "vdp", "--grid", "1,2", "--methods", "fit")
        (tmp_path / "run.json").write_text(json.dumps({"output_dir": "from_config"}))
        for extra, target in [
            ((), "from_env"),
            (("--config", "run.json"), "from_config"),
            (("--config", "run.json", "--output-dir", "flagged"), "flagged"),
        ]:
            result = cli(*args, *extra)
            assert result.returncode == 0, result.stderr
            assert (tmp_path / target / "sweep_vanderpol.csv").exists(), target
        assert not (tmp_path / "sweep_vanderpol.csv").exists()

    def test_env_var_override(self, cli, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        result = cli(
            "amplitude", "--system", "vdp", "--eps", "1", "--method", "fit",
        )
        assert result.returncode == 0, result.stderr
        assert (target / "amplitude_vanderpol_fit_eps1.json").exists()

    def test_flag_beats_env(self, cli, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ignored"))
        result = cli(
            "amplitude", "--system", "vdp", "--eps", "1", "--method", "fit",
            "--output-dir", "flagged",
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "flagged/amplitude_vanderpol_fit_eps1.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestReportCommand:
    def test_bundle_contents(self, cli, tmp_path):
        config = RunConfig(eps_grid=(1.0, 5.0), output_dir=str(tmp_path / "bundle"))
        (tmp_path / "run.json").write_text(config.to_json())
        result = cli(
            "report", "--config", "run.json", "--jobs", "4",
        )
        assert result.returncode == 0, result.stderr
        bundle = tmp_path / "bundle"
        for name in (
            "anchors.json",
            "rayleigh_comparison.csv",
            "rayleigh_amplitude.svg",
            "vdp_comparison.csv",
            "vdp_amplitude.svg",
            "phase_rayleigh_eps5.svg",
            "phase_vanderpol_eps5.svg",
            "fit_rayleigh_eps5.curve",
            "fit_vanderpol_eps5.curve",
            "discrepancy_notes.txt",
        ):
            assert (bundle / name).exists(), name
        anchors = json.loads((bundle / "anchors.json").read_text())
        assert all(a["status"] == "ok" for a in anchors)
        notes = (bundle / "discrepancy_notes.txt").read_text()
        # the calibration inconsistency must be detected and reported
        assert "INCONSISTENT" in notes
        assert "4.08785" in notes
        # the published table defects are part of the bundle
        assert "piece 8 is non-real" in notes
        # so is the reading of the published amplitude maximum as a hump
        # value, set against the fit's hump location
        assert "amplitude maximum" in notes

    def test_anchors_state_the_comparison_rows(self, cli, tmp_path):
        # Rayleigh 1 and van der Pol 1 lie on the report grids; Rayleigh 7
        # lies off this config's grid and is read as a sweep point would be
        config = RunConfig(eps_grid=(0.5, 1.0), output_dir=str(tmp_path / "bundle"))
        (tmp_path / "run.json").write_text(config.to_json())
        result = cli("report", "--config", "run.json")
        assert result.returncode == 0, result.stderr
        bundle = tmp_path / "bundle"
        cells = {}
        for system, name in (("rayleigh", "rayleigh_comparison.csv"),
                             ("vanderpol", "vdp_comparison.csv")):
            with open(bundle / name, newline="") as fh:
                for row in csv.DictReader(fh):
                    cells[system, float(row["eps"])] = row["a_exact"]
        anchors = json.loads((bundle / "anchors.json").read_text())
        assert [(a["system"], a["eps"]) for a in anchors] == [
            ("rayleigh", 1.0), ("rayleigh", 7.0), ("vanderpol", 1.0),
        ]
        for anchor in anchors:
            key = anchor["system"], anchor["eps"]
            if key in cells:
                assert f"{anchor['amplitude']:.11e}" == cells[key]
            else:
                swept = integrator.amplitude_sweep(key[0], [key[1]]).amplitude[0]
                assert anchor["amplitude"] == swept

    def test_failed_anchor_fails_before_writing(self, cli, tmp_path):
        config = {"integrator": {"transient_time": 0.0, "max_cycles": 2, "cycle_tol": 1e-16}}
        (tmp_path / "bad.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        out.mkdir()
        result = cli("report", "--config", "bad.json", "--output-dir", str(out))
        assert result.returncode == 2
        assert "anchor rayleigh eps=1" in result.stderr
        assert "not settled" in result.stderr
        assert list(out.iterdir()) == []


class TestRunConfig:
    def test_json_round_trip(self):
        config = RunConfig(
            system="vdp",
            eps_grid=(0.5, 1.0, 2.0),
            integrator=IntegratorConfig(rel_tol=1e-8, n_samples=500),
            irgm_preset="vdp-consistent",
            output_dir="artifacts",
        )
        assert RunConfig.from_json(config.to_json()) == config

    def test_defaults_round_trip(self):
        assert RunConfig.from_json(RunConfig().to_json()) == RunConfig()

    def test_missing_keys_keep_defaults(self):
        config = RunConfig.from_json('{"integrator": {"rel_tol": 1e-8}}')
        assert config == RunConfig(integrator=IntegratorConfig(rel_tol=1e-8))
        with pytest.raises(TypeError):
            RunConfig.from_json('{"integrator": {"tolerance": 1e-8}}')

    def test_zero_config_is_valid(self):
        config = RunConfig()
        assert config.system == "rayleigh"
        assert config.eps_grid[0] == 0.5 and config.eps_grid[-1] == 50.0
        assert config.irgm_preset is None  # each system's own preset
        assert config.output_dir is None  # the env var, else the working directory

    def test_grid_validation(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            RunConfig(eps_grid=(2.0, 1.0))
        for grid in ((-1.0, 1.0), (1.0, math.nan), (math.nan,), (1.0, math.inf)):
            with pytest.raises(DomainError, match="positive and finite"):
                RunConfig(eps_grid=grid)
        with pytest.raises(DomainError, match="empty"):
            RunConfig(eps_grid=())

    def test_preset_validation(self):
        with pytest.raises(DomainError, match="preset"):
            RunConfig(irgm_preset="nonsense")


CLOSED_FORMS = {
    "ham": ("rayleigh", "amplitude_ham"),
    "rg": ("rayleigh", "a_rg"),
    "irgm": ("rayleigh", "amplitude_irgm"),
    "fit": ("vanderpol", "vdp_fit"),
}


@pytest.fixture
def closed_form_calls(monkeypatch):
    """Spy on the closed forms under their names in ``limitcycles.cli``, the
    names perfbench's tracer patches; returns the list of names called."""
    calls = []
    for _, name in CLOSED_FORMS.values():
        original = getattr(limitcycles.cli, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(limitcycles.cli, name, spy)
    return calls


class TestBuildComparison:
    @pytest.mark.parametrize("method", sorted(CLOSED_FORMS))
    def test_closed_forms_are_called_through_cli_names(
        self, cli, closed_form_calls, method
    ):
        system, name = CLOSED_FORMS[method]
        rows = build_comparison(system, (1.0,), (method,))
        assert rows[0].error == ""
        assert closed_form_calls == [name]
        result = cli("amplitude", "--system", system, "--eps", "1", "--method", method)
        assert result.returncode == 0, result.stderr
        assert closed_form_calls == [name, name]

    def test_rows_follow_error_definition(self):
        rows = build_comparison(
            "vanderpol", (1.0, 2.0), ("fit",),
        )
        assert all(r.a_exact is None and r.rel_err_irgm is None for r in rows)
        rows = build_comparison(
            "vanderpol", (1.0,), ("exact", "fit"),
            config=IntegratorConfig(),
        )
        row = rows[0]
        expected = abs((row.a_exact - row.a_irgm) / row.a_exact) * 100.0
        assert row.rel_err_irgm == pytest.approx(expected, rel=1e-12)

    def test_method_failures_recorded_not_raised(self):
        # ham is undefined for vanderpol: the row notes it, the run continues
        rows = build_comparison("vanderpol", (1.0,), ("ham", "fit"))
        assert rows[0].a_ham is None
        assert rows[0].a_irgm is not None
        assert "ham" in rows[0].error

    def test_csv_quotes_an_error_with_a_comma(self, tmp_path):
        message = "ConvergenceError: not settled (last delta 1e-07, tol 1e-16)"
        rows = [
            ComparisonRow(eps=1.0, a_ham=2.5),
            ComparisonRow(eps=2.0, error=message),
        ]
        path = tmp_path / "table.csv"
        write_comparison_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == [
            ComparisonRow.CSV_HEADER,
            "1.00000000000e+00,,2.50000000000e+00,,,,,",
        ]
        with open(path, newline="", encoding="utf-8") as fh:
            parsed = list(csv.reader(fh))
        assert [len(row) for row in parsed] == [8, 8, 8]
        assert parsed[2][-1] == message


# A fresh interpreter serves every closed form, the bundled tables, curve
# files, an ``amplitude --method ham`` call, cycles, sweeps, the slow-flow
# root and a cycle fit with numpy alone.  Only a score loads scipy.
COLD_START = """
import sys
import limitcycles, limitcycles.cli
from limitcycles import geometry, ham, irgm
from limitcycles.integrator import amplitude_sweep, limit_cycle
from limitcycles.oscillators import OscillatorSpec
from limitcycles.rgflow import a_rg

def scipy_modules():
    return {m for m in sys.modules if m.partition(".")[0] == "scipy"}

tables = [geometry.load_bundled(name) for name in geometry.BUNDLED_CURVES]
ham.amplitude_ham(1.0)
irgm.vdp_fit(5.0)
irgm.amplitude_irgm(1.0, 1.0, irgm.RAYLEIGH_CONSTANT)
ham.expansion(2)
geometry.write_curve(tables[0], "table.curve")
geometry.read_curve("table.curve")
argv = ["amplitude", "--system", "rayleigh", "--eps", "1", "--method", "ham"]
assert limitcycles.cli.main(argv) == 0
cycle = limit_cycle(OscillatorSpec.rayleigh(5.0))
amplitude_sweep("vanderpol", [0.5, 2.0])
a_rg(5.0)
print("scipy:", sorted(scipy_modules()))
print("amplitude:", repr(cycle.amplitude))
for name, call in [
    ("score", lambda: geometry.curve_distance(geometry.load_bundled("rayleigh_eps5"), cycle)),
    ("fit", lambda: geometry.fit_cycle(cycle)),
]:
    before = scipy_modules()
    call()
    print(name, "loads scipy:", bool(scipy_modules() - before))
"""


def test_cold_start_loads_scipy_only_to_score(tmp_path):
    result = run_python("-c", COLD_START, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    *_, scipy_line, amplitude_line, score, fit = result.stdout.splitlines()
    assert scipy_line == "scipy: []"
    amplitude = float(amplitude_line.removeprefix("amplitude: "))
    assert amplitude == limit_cycle(OscillatorSpec.rayleigh(5.0)).amplitude
    assert [score, fit] == ["score loads scipy: True", "fit loads scipy: False"]
