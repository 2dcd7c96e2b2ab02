"""End-to-end command-line behavior: outputs, manifests, exit codes."""

import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import thermoforge
from thermoforge import cli
from thermoforge.errors import DomainError, NumericError
from thermoforge.pressure import pressure
from thermoforge.symbolic import CylinderPotential, SubshiftSpec, potential_to_dict

TWO_POINT = {"n": 2, "window": 1, "values": [0.0, 1.0]}
GOLDEN_DECAY = {"n": 2, "f": [0.0, 1.0], "r": 0.5}


def _child_env():
    """The environment with the tested package first on the child's path."""
    env = dict(os.environ)
    src = str(Path(thermoforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_cli(*argv, stdin_text=None, env_extra=None):
    env = _child_env()
    env.pop("THERMOFORGE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "thermoforge", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )


@pytest.fixture
def potential_file(tmp_path):
    path = tmp_path / "potential.json"
    path.write_text(json.dumps(TWO_POINT))
    return str(path)


@pytest.fixture
def decay_file(tmp_path):
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(GOLDEN_DECAY))
    return str(path)


class TestPressureCommand:
    def test_matches_library_value(self, potential_file):
        proc = run_cli("pressure", "--potential", potential_file, "--t", "1.0")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["pressure"] == pytest.approx(
            math.log(1.0 + math.e), rel=1e-15
        )
        assert payload["t"] == 1.0
        manifest = payload["manifest"]
        assert manifest["subcommand"] == "pressure"
        assert manifest["version"]
        assert len(manifest["input_digests"]) == 1

    def test_jet_payload(self, potential_file):
        proc = run_cli(
            "pressure", "--potential", potential_file, "--t", "1.0", "--order", "3"
        )
        payload = json.loads(proc.stdout)
        assert len(payload["jet"]["derivs"]) == 4
        assert payload["jet"]["t_star"] == 1.0

    def test_reads_stdin(self):
        proc = run_cli(
            "pressure", "--potential", "-", "--t", "0.0", stdin_text=json.dumps(TWO_POINT)
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["pressure"] == pytest.approx(math.log(2.0), rel=1e-15)
        assert "<stdin>" in payload["manifest"]["input_digests"]

    def test_output_file(self, potential_file, tmp_path):
        out = tmp_path / "result.json"
        proc = run_cli(
            "pressure",
            "--potential",
            potential_file,
            "--t",
            "1.0",
            "--output",
            str(out),
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text())["pressure"] > 0.0

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("order", ["0", "2"])
    def test_non_finite_t_exits_2_and_writes_nothing(self, t, order, potential_file, capsys):
        # "--t=-inf": a bare "-inf" would parse as a flag.
        assert cli.main(["pressure", "--potential", potential_file, f"--t={t}",
                         "--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_negative_exponent_value_is_a_number(self, potential_file, capsys):
        assert cli.main(["pressure", "--potential", potential_file, "--t", "-1e-3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t"] == -1e-3
        assert payload["pressure"] == pytest.approx(math.log(1.0 + math.exp(-1e-3)), rel=1e-15)

    @pytest.mark.parametrize(
        "spec, error",
        [
            ({"n": 2.9, "window": 1, "values": [0.0, 1.0]}, "'n' must be an integer"),
            ({"n": "two", "window": 1, "values": [0.0, 1.0]}, "'n' must be an integer"),
            ({"n": 2, "window": 1.7, "values": [0.0, 1.0]}, "'window' must be an integer"),
            ({"n": 2, "window": True, "values": [0.0, 1.0]}, "'window' must be an integer"),
            ({"n": 2, "window": 1, "values": [0.0, "1.0"]}, "must be numbers"),
            ({"n": 2, "window": 1, "values": [0.0, None]}, "must be numbers"),
            ({"n": 2, "window": 1, "values": [0.0, [1.0, 2.0]]}, "must be numbers"),
            ({**TWO_POINT, "transition": [[1, 0.7], [1, 1]]}, "0 or 1"),
            ({**TWO_POINT, "transition": [[1, math.nan], [1, 1]]}, "0 or 1"),
            ({**TWO_POINT, "transition": [[1, math.inf], [1, 1]]}, "0 or 1"),
            ({**TWO_POINT, "transition": [[1, "1"], [1, 1]]}, "0 or 1"),
        ],
    )
    def test_malformed_potential_exits_2(self, spec, error, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["pressure", "--potential", str(path), "--t", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err and error in captured.err

    @pytest.mark.parametrize(
        "spec, error",
        [
            ({"n": 2, "window": 0, "values": [0.0]}, "window must be >= 1, got 0"),
            ({"n": 2, "window": 1, "values": [0.0, 1.0, 2.0]}, "expected 2 values, got 3"),
            ({"n": 2, "window": 27, "values": [0.0]}, "table size 2**27 exceeds 67108864"),
        ],
    )
    def test_constructor_errors_keep_their_message(self, spec, error, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["pressure", "--potential", str(path), "--t", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"thermoforge: domain error: {error}\n"

    def test_word_table_past_the_ceiling_exits_2(self, tmp_path, monkeypatch, capsys):
        # Four window-1 values pass the constructor, but the graph's word
        # table has 4 * 4 words.
        monkeypatch.setattr(importlib.import_module("thermoforge.pressure"), "MAX_TABLE_SIZE", 15)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 4, "window": 1, "values": [0.0, 1.0, 2.0, 3.0],
                                    "transition": [[1, 1, 0, 0], [0, 1, 1, 0],
                                                   [0, 0, 1, 1], [1, 0, 0, 1]]}))
        assert cli.main(["pressure", "--potential", str(path), "--t", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "thermoforge: domain error: word table of 4*4*1 words exceeds 15\n"

    def test_integral_floats_are_sizes(self, tmp_path, capsys):
        path = tmp_path / "sizes.json"
        path.write_text(json.dumps({"n": 2.0, "window": 1.0, "values": [0, 1]}))
        assert cli.main(["pressure", "--potential", str(path), "--t", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pressure"] == pytest.approx(math.log(1.0 + math.e), rel=1e-15)

    def test_missing_file_is_domain_error(self):
        proc = run_cli("pressure", "--potential", "/nonexistent.json", "--t", "1.0")
        assert proc.returncode == 2
        assert "domain error" in proc.stderr


class TestFitCommands:
    def test_fit1_payload(self):
        proc = run_cli(
            "fit1", "--tstar", "1", "--a0", "2", "--a1", "1", "--n", "11"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["n"] == 11
        assert len(payload["z"]) == 11
        assert payload["achieved_jet"]["derivs"][0] == pytest.approx(2.0, abs=1e-12)
        assert payload["achieved_jet"]["derivs"][1] == pytest.approx(1.0, abs=1e-10)
        assert payload["residuals"]["value"] <= 1e-10 * math.exp(2.0)

    def test_fit1_negative_exponent_target(self, capsys):
        argv = ["fit1", "--tstar", "1", "--a0", "2", "--a1", "-2.5e-2", "--n", "11"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["germ"] == [2.0, -0.025]
        assert payload["achieved_jet"]["derivs"][1] == pytest.approx(-0.025, abs=1e-10)

    def test_fit1_infeasible_exits_2(self):
        proc = run_cli("fit1", "--tstar", "1", "--a0", "2", "--a1", "2", "--n", "3")
        assert proc.returncode == 2
        assert "domain error" in proc.stderr
        assert "a1" in proc.stderr

    def test_fit2_round_trips_through_pressure(self, tmp_path):
        proc = run_cli(
            "fit2",
            "--tstar", "1", "--a0", "2", "--a1", "1", "--a2", "0.8", "--n", "5",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["residuals"]["curvature"] <= 1e-8
        assert payload["feasible_a2"] is not None
        # Feed the fitted potential back through the pressure command.
        text = json.dumps(payload["potential"])
        redo = run_cli(
            "pressure", "--potential", "-", "--t", "1.0", "--order", "2",
            stdin_text=text,
        )
        assert redo.returncode == 0
        jet = json.loads(redo.stdout)["jet"]["derivs"]
        assert jet == pytest.approx(payload["achieved_jet"]["derivs"], rel=1e-14)

    def test_fit2_out_of_range_exits_2(self):
        proc = run_cli(
            "fit2",
            "--tstar", "1", "--a0", "2", "--a1", "1", "--a2", "99", "--n", "5",
        )
        assert proc.returncode == 2
        assert "range" in proc.stderr

    def test_fit2_wide_scale_target_inside_the_range(self, capsys):
        # The fitted values lie near -50, where a split's Newton residual
        # cannot reach 1e-13 in absolute terms.
        argv = ["fit2", "--tstar", "0.304", "--a0", "-14.9", "--a1", "-65.6749246125332",
                "--a2", "1.52", "--n", "504"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no split may be skipped
            assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        low, high = payload["feasible_a2"]
        assert low < 1.52 < high
        assert payload["residuals"]["curvature"] <= 1e-8


class TestTable3Command:
    def test_row_ten_to_twelve_digits(self):
        proc = run_cli("table3", "--n-list", "1e1", "--out", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        row = payload["rows"][0]
        assert row["z_low"] == pytest.approx(-1.85995393917976, rel=1e-12)
        assert row["label"] == "1e1"
        assert row["multiplicity"] == 10.0

    def test_csv_output(self):
        proc = run_cli("table3", "--n-list", "1e1,1e2", "--out", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "# schema: thermoforge.table3.v1"
        assert lines[1].startswith("# manifest: ")
        assert lines[2].split(",")[0] == "label"
        assert len(lines) == 5
        first = lines[3].split(",")
        assert first[0] == "1e1"
        assert float(first[2]) == pytest.approx(-1.85995393917976, rel=1e-12)

    def test_bad_entry_exits_2(self):
        proc = run_cli("table3", "--n-list", "ten")
        assert proc.returncode == 2


class TestRigidityCommand:
    def test_csv_schema_and_columns(self):
        proc = run_cli(
            "rigidity", "--a", "1", "--b", "1", "--c", "1",
            "--grid", "1:3:1", "--mphi", "0.5",
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "# schema: thermoforge.rigidity.v1"
        assert lines[1].startswith("# manifest: ")
        assert lines[2].startswith("# m_phi: ")
        assert lines[3].startswith("# tension: ")
        header = lines[4].split(",")
        assert header == [
            "t", "second", "third", "fourth", "d_value", "curvature_ok",
            "cubic_lhs", "cubic_rhs", "cubic_holds",
            "quartic_lhs", "quartic_rhs", "quartic_holds",
        ]
        assert len(lines) == 8  # 3 grid points
        assert lines[5].split(",")[5] == "true"

    def test_potential_candidate_via_file(self, potential_file):
        proc = run_cli(
            "rigidity", "--potential", potential_file,
            "--grid", "0.5,1.0", "--mphi", "1.0", "--out", "json",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)["report"]
        assert len(report["grid"]) == 2
        assert all(report["cubic_holds"])

    def test_missing_family_params_exit_2(self):
        proc = run_cli("rigidity", "--grid", "1:3:1", "--mphi", "0.5")
        assert proc.returncode == 2
        assert "--a" in proc.stderr


class TestCltsimCommand:
    def test_byte_identical_reruns(self, potential_file):
        argv = (
            "cltsim", "--potential", potential_file, "--tstar", "0",
            "--m", "100,400", "--samples", "10000", "--seed", "7",
        )
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["report"]["deltas"] == [0.25, 0.0, -0.125]
        assert payload["manifest"]["seed"] == 7

    def test_env_seed_override(self, potential_file):
        argv = (
            "cltsim", "--potential", potential_file, "--tstar", "0",
            "--m", "100", "--samples", "10000", "--seed", "7",
        )
        default = run_cli(*argv)
        overridden = run_cli(*argv, env_extra={"THERMOFORGE_SEED": "99"})
        assert overridden.returncode == 0
        assert json.loads(overridden.stdout)["manifest"]["seed"] == 99
        assert overridden.stdout != default.stdout
        same = run_cli(*argv, env_extra={"THERMOFORGE_SEED": "7"})
        assert same.stdout == default.stdout

    def test_csv_output(self, potential_file):
        proc = run_cli(
            "cltsim", "--potential", potential_file, "--tstar", "0",
            "--m", "100", "--samples", "10000", "--seed", "1", "--out", "csv",
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "# schema: thermoforge.cltsim.v1"
        assert any(line.startswith("# deltas: ") for line in lines[:6])
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx].split(",") == [
            "m", "ks_distance", "bound", "sample_mean", "sample_variance",
        ]

    def test_stdout_does_not_depend_on_threads(self, potential_file, capsys, monkeypatch):
        monkeypatch.delenv("THERMOFORGE_SEED", raising=False)
        for out in ("json", "csv"):
            outputs = []
            for threads in (1, 2, 3):
                assert cli.main([
                    "cltsim", "--potential", potential_file, "--tstar", "0",
                    "--m", "100,400", "--samples", "10000", "--seed", "7",
                    "--threads", str(threads), "--out", out,
                ]) == 0
                text = capsys.readouterr().out
                flag = f'"threads": {threads}'
                assert text.count(flag) == 1
                outputs.append(text.replace(flag, ""))
            assert outputs == [outputs[0]] * 3

    @pytest.mark.parametrize(
        "sizes, error",
        [
            (["--m", "1e300", "--samples", "10000"], "2\\*\\*63"),
            (["--m", "100", "--samples", "1000000000000000000000"], "exceeds"),
        ],
    )
    def test_huge_sizes_exit_2_before_sampling(
        self, sizes, error, potential_file, capsys, monkeypatch
    ):
        def never(config):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli, "simulate_gm", never)
        assert cli.main(["cltsim", "--potential", potential_file, "--tstar", "0", *sizes]) == 2
        err = capsys.readouterr().err
        assert "domain error" in err and re.search(error, err)

    @pytest.mark.parametrize(
        "m, lengths",
        [
            ("9007199254740993", (9007199254740993,)),
            ("100000000000000001,100000000000000003", (100000000000000001, 100000000000000003)),
            ("9007199254740993:9007199254740997:2",
             (9007199254740993, 9007199254740995, 9007199254740997)),
            ("1e3,2000.0", (1000, 2000)),
        ],
    )
    def test_orbit_lengths_are_exact_integers(self, m, lengths, potential_file, monkeypatch):
        configs = []

        def record(config):
            configs.append(config)
            raise _Recorded

        monkeypatch.setattr(cli, "simulate_gm", record)
        with pytest.raises(_Recorded):
            cli.main([
                "cltsim", "--potential", potential_file, "--tstar", "0",
                "--m", m, "--samples", "10000",
            ])
        assert [config.orbit_lengths for config in configs] == [lengths]

    def test_constant_potential_exits_2(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"n": 2, "window": 1, "values": [1.0, 1.0]}))
        proc = run_cli(
            "cltsim", "--potential", str(path), "--tstar", "0",
            "--m", "100", "--samples", "10000",
        )
        assert proc.returncode == 2


class _Recorded(Exception):
    """Raised by a fake ``simulate_gm`` once it has recorded its config."""


class TestApproxCommand:
    def test_csv_gaps_halve(self, decay_file):
        proc = run_cli(
            "approx", "--spec", decay_file, "--t", "1.0", "--windows", "1:6"
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "# schema: thermoforge.approx.v1"
        rows = [line.split(",") for line in lines[3:]]
        gaps = [float(row[3]) for row in rows]
        for window, gap in zip(range(1, 7), gaps):
            assert gap == pytest.approx(2.0 ** (1 - window), rel=1e-9)

    def test_json_output(self, decay_file):
        proc = run_cli(
            "approx", "--spec", decay_file, "--t", "1.0",
            "--windows", "1,3,5", "--out", "json",
        )
        payload = json.loads(proc.stdout)
        assert payload["spec"] == GOLDEN_DECAY
        assert [row["window"] for row in payload["rows"]] == [1, 3, 5]

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"n": 3.7}, "'n' must be an integer"),
            ({"f": [0.1, None, 0.3]}, "base table entry must be a number"),
            ({"r": "x"}, "decay ratio must be a number"),
            ({"f": "abc"}, "base table entry must be a number"),
        ],
    )
    def test_malformed_spec_exits_2(self, change, error, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 3, "f": [0.1, 0.2, 0.3], "r": 0.5, **change}))
        assert cli.main(["approx", "--spec", str(path), "--t", "1.0", "--windows", "1,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err and error in captured.err


class TestSelftestCommand:
    def test_exits_zero_and_reports_checks(self):
        proc = run_cli("selftest")
        assert proc.returncode == 0
        assert proc.stdout.count("ok - ") >= 7
        assert "ok - word-graph-closed-forms" in proc.stdout
        assert "FAIL" not in proc.stdout
        assert "all checks passed" in proc.stdout


class TestUsageErrors:
    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 64

    def test_unknown_flag(self):
        proc = run_cli("table3", "--n-list", "1e1", "--frob")
        assert proc.returncode == 64

    def test_missing_required_flag(self):
        proc = run_cli("pressure", "--t", "1.0")
        assert proc.returncode == 64

    def test_no_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 64


class TestExitCodeMapping:
    def test_numeric_error_maps_to_3(self, monkeypatch, capsys):
        def explode(args):
            raise NumericError("synthetic failure")

        parser = cli.build_parser()
        args = parser.parse_args(["selftest"])
        monkeypatch.setattr(args, "func", explode, raising=False)
        # main() reaches its parser through the cache accessor, so stub that.
        monkeypatch.setattr(cli, "_parser", lambda: _FixedParser(parser, args))
        code = cli.main(["selftest"])
        assert code == 3
        assert "numeric error" in capsys.readouterr().err

    def test_unwritable_output_maps_to_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        argv = ["fit1", "--tstar", "1.25", "--a0", "0.8", "--a1", "0.3", "--n", "7",
                "--output", str(target)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "domain error" in captured.err
        assert "cannot write output file" in captured.err
        assert captured.out == ""


class _FixedParser:
    """Parser stub returning a pre-built namespace."""

    def __init__(self, parser, args):
        self._args = args

    def parse_args(self, argv=None):
        return self._args


class TestManifestStability:
    def test_no_timestamps_and_sorted_keys(self, potential_file):
        proc = run_cli("pressure", "--potential", potential_file, "--t", "1.0")
        payload = json.loads(proc.stdout)
        manifest = payload["manifest"]
        assert set(manifest) == {
            "subcommand", "flags", "input_digests", "seed", "version"
        }
        text = proc.stdout
        # Keys must be emitted in sorted order for byte stability.
        assert text.index('"flags"') < text.index('"input_digests"')
        assert text.index('"input_digests"') < text.index('"seed"')

    def test_float_round_trip_precision(self):
        # CSV floats serialize via repr: parsing them back must be exact.
        proc = run_cli("table3", "--n-list", "1e1", "--out", "csv")
        row = proc.stdout.splitlines()[3].split(",")
        z_low_text = row[2]
        assert repr(float(z_low_text)) == z_low_text


class TestOutsideInput:
    """Bad numbers in grids and lists are domain errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rigidity", "--a", "1", "--b", "1", "--c", "1", "--grid", "0.5:inf",
             "--mphi", "0.5"],
            ["rigidity", "--a", "1", "--b", "1", "--c", "1", "--grid", "0.5,nan",
             "--mphi", "0.5"],
            ["approx", "--spec", "decay.json", "--t", "1.0", "--windows", "1:inf"],
            ["cltsim", "--potential", "potential.json", "--tstar", "0", "--m", "nan",
             "--samples", "10000"],
            ["rigidity", "--a", "1", "--b", "1", "--c", "1", "--grid", "0:1e9:1e-3",
             "--mphi", "0.5"],
            ["approx", "--spec", "decay.json", "--t", "1.0", "--windows", "1,2.0000000005"],
            ["cltsim", "--potential", "potential.json", "--tstar", "0", "--m", "2.0000000005",
             "--samples", "10000"],
            ["cltsim", "--potential", "potential.json", "--tstar", "0", "--m", "10:20:2.5",
             "--samples", "10000"],
            ["cltsim", "--potential", "potential.json", "--tstar", "0", "--m", "1:1000001",
             "--samples", "10000"],
        ],
    )
    def test_exits_2(self, argv, potential_file, decay_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        assert "domain error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["file", "stdin", "stdin-surrogateescape"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["pressure", "--potential", "INPUT", "--t", "1.0"],
            ["rigidity", "--potential", "INPUT", "--grid", "0.5", "--mphi", "1.0"],
            ["cltsim", "--potential", "INPUT", "--tstar", "0", "--m", "10",
             "--samples", "10000"],
            ["approx", "--spec", "INPUT", "--t", "1.0", "--windows", "1"],
        ],
        ids=["pressure", "rigidity", "cltsim", "approx"],
    )
    def test_input_that_is_not_utf8_exits_2(self, argv, source, tmp_path, monkeypatch, capsys):
        raw = b"\xff\xfe{}"
        if source == "file":
            path = tmp_path / "input.json"
            path.write_bytes(raw)
            argv = [str(path) if arg == "INPUT" else arg for arg in argv]
        else:
            errors = "surrogateescape" if source.endswith("surrogateescape") else "strict"
            stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors=errors)
            monkeypatch.setattr(sys, "stdin", stdin)
            argv = ["-" if arg == "INPUT" else arg for arg in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err and "not UTF-8" in captured.err

    def test_long_range_fails_on_the_count(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="more than"):
                cli._parse_grid("0:1e9:1e-3", "--grid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_largest_range_still_parses(self):
        assert len(cli._parse_grid("1:1000000", "--windows")) == 1_000_000


def test_import_loads_no_scipy():
    code = (
        "import sys, thermoforge, thermoforge.cli; "
        "from thermoforge.cltsim import SimConfig, simulate_gm; "
        "phi = thermoforge.CylinderPotential(thermoforge.SubshiftSpec(2), 1, [0.0, 1.0]); "
        "simulate_gm(SimConfig(phi, 0.5, (10,), 10_000, 1, 2)); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_thread_pool_loads_with_the_first_simulation():
    code = (
        "import sys, thermoforge, thermoforge.cli; "
        "print('concurrent.futures' in sys.modules, '_hashlib' in sys.modules); "
        "from thermoforge.cltsim import SimConfig, simulate_gm; "
        "phi = thermoforge.CylinderPotential(thermoforge.SubshiftSpec(2), 1, [0.0, 1.0]); "
        "simulate_gm(SimConfig(phi, 0.5, (10,), 10_000, 1, 2)); "
        "print('concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


def test_parser_is_built_on_first_use_only():
    code = (
        "import thermoforge.cli as cli; "
        "print(cli._parser.cache_info().currsize); "
        "print(cli.build_parser() is not cli.build_parser()); "
        "print(cli._parser.cache_info().currsize); "
        "print(cli._parser() is cli._parser())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "0", "True"]
