"""Byte-for-byte CLI output: every subcommand in every format it supports.

``cli_golden.json`` holds the input files (as exact text, so their
digests are fixed) and the recorded stdout of each invocation.  Runs are
in-process with the input files in the working directory, so the
manifests carry stable relative paths.  Re-record after an intended
output change with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from thermoforge import cli

FIXTURE = pathlib.Path(__file__).with_name("cli_golden.json")

FILES = {
    "w1.json": json.dumps({"n": 3, "window": 1, "values": [0.0, 0.5, 1.25]}),
    "golden.json": json.dumps(
        {"n": 2, "window": 2, "values": [0.1, 0.4, -0.3, 0.9], "transition": [[1, 1], [1, 0]]}
    ),
    "clt.json": json.dumps({"n": 4, "window": 1, "values": [0.0, 0.3, 0.7, 1.0]}),
    "spec.json": json.dumps({"n": 3, "f": [0.25, -0.5, 1.0], "r": 0.6}),
}

_TABLES = [
    ["table3", "--n-list", "1e1,2.5e3,1e40"],
    ["rigidity", "--a", "1.5", "--b", "0.5", "--c", "0.8", "--grid", "0.5:2.0:0.5", "--mphi", "1.2"],
    ["cltsim", "--potential", "clt.json", "--tstar", "0.8", "--m", "10,100",
     "--samples", "10000", "--seed", "11"],
    ["approx", "--spec", "spec.json", "--t", "1.3", "--windows", "1:5"],
]

ARGVS = [
    ["pressure", "--potential", "w1.json", "--t", "0.7", "--order", "4"],
    ["pressure", "--potential", "golden.json", "--t", "1.1"],
    ["fit1", "--tstar", "1.25", "--a0", "0.8", "--a1", "0.3", "--n", "7"],
    ["fit2", "--tstar", "1.0", "--a0", "2.0", "--a1", "0.4", "--a2", "0.018", "--n", "5"],
] + [argv + ["--out", fmt] for argv in _TABLES for fmt in ("json", "csv")]


def _write_files(directory: pathlib.Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def _run(argv: list) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": buffer.getvalue()}


def _run_all(directory: pathlib.Path) -> list[dict]:
    """Write the input files into ``directory`` (the cwd) and run every argv."""
    _write_files(directory)
    return [_run(argv) for argv in ARGVS]


def test_fixture_covers_every_invocation():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert recorded["files"] == FILES
    assert [case["argv"] for case in recorded["cases"]] == ARGVS


def test_stdout_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("THERMOFORGE_SEED", raising=False)
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]
    for expected, actual in zip(recorded, _run_all(tmp_path)):
        assert actual["code"] == expected["code"] == 0, actual["argv"]
        assert actual["stdout"] == expected["stdout"], actual["argv"]


def test_one_parser_carries_no_state_between_calls(tmp_path, monkeypatch):
    """The cached parser, reused in reverse order with usage errors in between."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("THERMOFORGE_SEED", raising=False)
    _write_files(tmp_path)
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]
    for expected in reversed(recorded):
        with pytest.raises(SystemExit) as usage:
            cli.main(["table3", "--frob"])
        assert usage.value.code == 64
        actual = _run(expected["argv"])
        assert actual["code"] == expected["code"] == 0, actual["argv"]
        assert actual["stdout"] == expected["stdout"], actual["argv"]

    argv = next(case["argv"] for case in recorded if case["argv"][0] == "cltsim")
    flag = argv.index("--seed") + 1
    monkeypatch.setenv("THERMOFORGE_SEED", "7")
    from_env = _run(argv)
    monkeypatch.delenv("THERMOFORGE_SEED")
    from_flag = _run(argv[:flag] + ["7"] + argv[flag + 1:])
    assert from_env["code"] == from_flag["code"] == 0
    env_out, flag_out = json.loads(from_env["stdout"]), json.loads(from_flag["stdout"])
    # The manifest records the --seed flag as given; everything else must agree.
    assert env_out["manifest"]["flags"].pop("seed") == 11
    assert flag_out["manifest"]["flags"].pop("seed") == 7
    assert env_out == flag_out
    expected = next(case for case in recorded if case["argv"] == argv)
    assert _run(argv)["stdout"] == expected["stdout"]


@pytest.mark.parametrize("threads", [2, 3])
def test_cltsim_bytes_do_not_depend_on_threads(threads, tmp_path, monkeypatch):
    """The recorded single-thread cltsim runs, replayed on queued worker threads."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("THERMOFORGE_SEED", raising=False)
    _write_files(tmp_path)
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]
    cases = [case for case in recorded if case["argv"][0] == "cltsim"]
    assert [case["argv"][-1] for case in cases] == ["json", "csv"]
    for expected in cases:
        actual = _run(expected["argv"] + ["--threads", str(threads)])
        assert actual["code"] == 0, actual["argv"]
        # Only the manifest's record of the flag may differ.
        assert expected["stdout"].count('"threads": 1,') == 1
        assert actual["stdout"] == expected["stdout"].replace(
            '"threads": 1,', f'"threads": {threads},'
        ), actual["argv"]


if __name__ == "__main__":
    os.environ.pop("THERMOFORGE_SEED", None)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            cases = _run_all(pathlib.Path(tmp))
        finally:
            os.chdir(home)
    FIXTURE.write_text(
        json.dumps({"files": FILES, "cases": cases}, indent=1) + "\n", encoding="utf-8"
    )
