"""Replay tests/data/cli_golden.json: every case's exit code, stdout and stderr, byte for byte.

tests/data/make_cli_golden.py writes the file; regenerate it only for a
deliberate change of output.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ceresa_kit.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SRC = DATA.parent.parent / "src"
CASES = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"])[:80])
def test_cli_output_matches_golden(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def test_check_replays_the_file_and_reports_each_mismatch(capsys, monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("make_cli_golden", DATA / "make_cli_golden.py")
    make_cli_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_cli_golden)
    golden = tmp_path / "cli_golden.json"
    monkeypatch.setattr(make_cli_golden, "OUT", golden)
    golden.write_text(json.dumps(CASES[:3]), encoding="utf-8")
    assert make_cli_golden.main(["--check"]) == 0
    assert capsys.readouterr().out == "3 cases, 0 mismatches\n"
    changed = [dict(case) for case in CASES[:3]]
    changed[1]["code"] = 9
    golden.write_text(json.dumps(changed), encoding="utf-8")
    assert make_cli_golden.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"mismatch: {changed[1]['argv']}\n  code: expected 9, got ")
    assert out.endswith("3 cases, 1 mismatches\n")
    assert golden.read_text(encoding="utf-8") == json.dumps(changed)


def test_check_passes_with_asserts_stripped():
    # `python -O` drops every assert, so no CLI output may hang on one: the
    # asserts left in the package check its own arithmetic, not its input.
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-O", str(DATA / "make_cli_golden.py"), "--check"],
                            capture_output=True, text=True, env=env, timeout=300)
    assert (result.returncode, result.stdout, result.stderr) == (
        0, f"{len(CASES)} cases, 0 mismatches\n", "")


def test_parser_check_reads_every_case_without_argparse():
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, str(DATA / "make_cli_golden.py"), "--parser"],
                            capture_output=True, text=True, env=env, timeout=300)
    assert (result.returncode, result.stdout, result.stderr) == (
        0, f"{4 * len(CASES)} plain calls, 0 mismatches\n", "")
