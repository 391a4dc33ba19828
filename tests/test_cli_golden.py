"""Replay tests/data/cli_golden.json: every case's exit code, stdout and stderr, byte for byte.

tests/data/make_cli_golden.py writes the file; regenerate it only for a
deliberate change of output.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from ceresa_kit.cli import main

CASES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"])[:80])
def test_cli_output_matches_golden(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])
