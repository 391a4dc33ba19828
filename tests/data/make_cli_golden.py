"""Write tests/data/cli_golden.json: argv -> (exit code, stdout, stderr) of `cli.main`.

Each case runs in process, as tests/test_cli_golden.py replays it.  The file
pins the CLI's output byte for byte: every subcommand in text and JSON,
domain errors and scan CSV on stdout.  Help and argparse usage errors are
left out (their text changes between Python versions; test_cli_parser.py
covers them), and so is everything that writes or reads a file.

Run from the repository root:  PYTHONPATH=src python tests/data/make_cli_golden.py

With --check it writes nothing: it replays every case of the file through
`cli.main`, prints each mismatch and exits 1 on any, so an interpreter
without pytest can check the output too.

With --parser it writes nothing either: it reads every case's call, as
given, with each "flag value" written "flag=value" and with its flags in
reverse order, both through the single-command reader of `cli.build_parser`
and through the full argparse parser, and exits 1 unless the reader reads
each one itself and gets the same namespace.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from ceresa_kit import cli

OUT = pathlib.Path(__file__).with_name("cli_golden.json")

TRIPLES = [
    ("1", "0", "1"), ("-12", "1", "-12"), ("0", "0", "-1"), ("0", "1", "0"),
    ("1", "2", "3"), ("-1", "1", "-1"), ("2", "-3", "5/2"), ("1/2", "1/3", "1/5"),
    ("-7/3", "0", "4"), ("0", "1", "1"), ("3", "0", "-2"), ("10", "-10", "7"),
    ("0", "0", "0"), ("1", "0", "1/4"), ("-2", "0", "1"), ("1.25", "-0.5", "3"),
    ("123456789012345", "-98765432109876543", "1/1000000000000000007"),
    ("1e3", "0", "1"), ("5/0", "1", "1"), ("x", "1", "1"), ("1" * 391, "0", "1"),
]

FORMATS = ([], ["--format", "json"])


def cases():
    for a, b, c in TRIPLES:
        for fmt in FORMATS:
            yield ["invariants", "-a", a, "-b", b, "-c", c, *fmt]
            yield ["decide", "-a", a, "-b", b, "-c", c, *fmt]
    for a, c in (("1", "1"), ("-3", "2"), ("1/2", "5"), ("0", "1"), ("2", "1"), ("1", "0")):
        for fmt in FORMATS:
            yield ["bielliptic", "-a", a, "-c", c, *fmt]
    for A, B, x, y in (("0", "-432", "12", "36"), ("0", "-62208", "52", "280"),
                       ("0", "1", "-1", "0"), ("-1", "0", "0", "0"),
                       ("0", "1", "5", "5"), ("0", "0", "0", "0")):
        for fmt in FORMATS:
            yield ["torsion", "-A", A, "-B", B, "-x", x, "-y", y, *fmt]
    for i, j, t in (("3", "9", "0"), ("3", "9", "2"), ("3", "9", "-1/2"), ("0", "1", "1"),
                    ("3", "10", "0"), ("1", "2", "3")):
        for fmt in FORMATS:
            yield ["family", "-I", i, "-J", j, "-t", t, *fmt]
    for fmt in FORMATS:
        yield ["e0-torsion", *fmt]
    for profile in ("picard_c3", "c9_x4px", "klein_c7", "dihedral:5,1,2",
                    "dihedral:7,1,2", "dihedral:9,1,3", "dihedral:61,1,3"):
        for criterion in ([], ["--criterion", "a"], ["--criterion", "b"]):
            for fmt in FORMATS:
                yield ["repcrit", "--profile", profile, *criterion, *fmt]
    for profile in ("nope", "dihedral:x", "dihedral:4,1,2", "dihedral:12,2,4",
                    "dihedral:100001,1,3"):
        yield ["repcrit", "--profile", profile]
    for m, a, b in (("5", "1", "2"), ("7", "1", "2"), ("9", "1", "3"), ("12", "3", "4"),
                    ("13", "2", "5"), ("30", "7", "11"), ("4", "1", "2"), ("12", "2", "4"),
                    ("10", "3", "2"), ("100001", "1", "3")):
        for fmt in FORMATS:
            yield ["dihedral", "-m", m, "-a", a, "-b", b, *fmt]
    for fmt in FORMATS:
        yield ["strata", *fmt]
        yield ["strata", "--check", *fmt]
        for group in ("C9", "C2", "S4", "C5"):
            yield ["strata", "--group", group, *fmt]
    for ranges in (("-12", "1:3", "-12"), ("-2:2", "0", "1"), ("0:1:1/2", "1", "1,3/2"),
                   ("1:0:-1/2", "-1,0", "1/7"), ("0", "0", "0:1"), ("1:0", "1", "1"),
                   ("1:2:3:4", "1", "1"), ("0:1:0", "1", "1"), ("0:1E3", "1", "1"),
                   ("0:2000", "0:1000", "1"), ("a", "1", "1")):
        yield ["scan", "--a-range", ranges[0], "--b-range", ranges[1],
               "--c-range", ranges[2]]


STORE_TRUE = {flags[0] for _, _, _, arguments in cli._COMMANDS
              for flags, options in arguments if options.get("action") == "store_true"}


def plain_calls():
    """Each case's call, with "flag=value" spellings and its flags reversed."""
    for argv in cases():
        tokens, chunks = iter(argv[1:]), []
        for token in tokens:
            chunks.append([token] if token in STORE_TRUE else [token, next(tokens)])
        joined = [["=".join(chunk)] for chunk in chunks]
        for variant in (chunks, joined, chunks[::-1], joined[::-1]):
            yield [argv[0], *(token for chunk in variant for token in chunk)]


def check_parser() -> int:
    calls = list(plain_calls())
    parser = cli.build_parser()
    mismatches = 0
    for argv in calls:
        plain = cli._read_plain(argv[0], argv[1:])
        full = vars(parser.parse_args(argv))
        if plain is None or vars(plain) != full:
            mismatches += 1
            print(f"mismatch: {argv}\n  reader: {plain!r}\n  parser: {full!r}")
    print(f"{len(calls)} plain calls, {mismatches} mismatches")
    return 1 if mismatches else 0


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def check() -> int:
    golden = json.loads(OUT.read_text(encoding="utf-8"))
    mismatches = 0
    for case in golden:
        result = run(case["argv"])
        if result != case:
            mismatches += 1
            print(f"mismatch: {case['argv']}")
            for key in ("code", "stdout", "stderr"):
                if result[key] != case[key]:
                    print(f"  {key}: expected {case[key]!r}, got {result[key]!r}")
    print(f"{len(golden)} cases, {mismatches} mismatches")
    return 1 if mismatches else 0


def main(args: list[str]) -> int:
    if args == ["--check"]:
        return check()
    if args == ["--parser"]:
        return check_parser()
    if args:
        print("usage: make_cli_golden.py [--check | --parser]", file=sys.stderr)
        return 1
    results = [run(argv) for argv in cases()]
    OUT.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(results)} cases, {OUT.stat().st_size} bytes -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
