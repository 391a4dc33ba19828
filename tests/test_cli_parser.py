"""The single-command reader against the full parser, and a bounded CLI fuzz."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ceresa_kit import cli

NAMES = [row[0] for row in cli._COMMANDS]
FLAGS = {name: [flags[0] for flags, _ in arguments]
         for name, _, _, arguments in cli._COMMANDS}

# Small values only: every call the fuzz makes must finish quickly.
VALUES = ["0", "1", "-1", "2", "-12/7", "3/2", "-3", "12", "json", "text", "a", "b",
          "x", "", "1e3", "5/0", "0:1", "-1:1:1/2", "0,1/2", "1:0", "picard_c3",
          "klein_c7", "dihedral:7,1,2", "dihedral:x", "C2", "nope"]
NEGATIVES = ["-12/7", "-1", "-3", "-0", "-1:1"]
STRAYS = ["bogus", "--", "-", "-z", "--zzz", "1 2", "-h", "--help", "--he", "--for=json"]


def _abbreviations(flag: str) -> list[str]:
    return [flag[:k] for k in range(3, len(flag))] if flag.startswith("--") else []


def _tokens(name: str):
    flags = FLAGS[name] + ["-h"]
    flag = st.sampled_from(flags + [a for f in flags for a in _abbreviations(f)])
    value = st.sampled_from(VALUES)
    negative = st.sampled_from(NEGATIVES)
    return st.one_of(
        st.tuples(flag, value).map(list),
        st.tuples(flag, negative).map(list),  # "-a -12/7"
        st.tuples(flag, negative).map(lambda fv: [f"{fv[0]}={fv[1]}"]),  # "-a=-12/7"
        flag.map(lambda f: [f]),  # a flag missing its value, or repeated
        value.map(lambda v: [v]),  # a stray value
        st.sampled_from(STRAYS).map(lambda s: [s]),
    )


def _argv(names):
    def build(name):
        return st.lists(_tokens(name), max_size=7).map(
            lambda chunks: [name] + [token for chunk in chunks for token in chunk])
    return st.sampled_from(names).flatmap(build)


def _outcome(parser, argv):
    """The parsed namespace without `command`, the usage error, or the exit and its output."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            namespace = parser.parse_args(argv)
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    return "parsed", {k: v for k, v in vars(namespace).items() if k != "command"}


# Values a plain call may give a flag without choices or a type: nonempty,
# and starting with "-" only before a digit or ".digit".
PLAIN_VALUES = ["0", "1", "-1", "-0", "-12/7", "-.5", "3/2", "+2", "-2:2", "0:1:1/2", "0,1/2",
                "1e3", "x", "a=b", " -1", "1 2", "picard_c3", "dihedral:7,1,2", "C9",
                "out.csv", "-1.csv"]
INTEGER_VALUES = st.one_of(st.integers(-10**12, 10**12).map(str),
                           st.sampled_from(["+7", "-0", " 12", "3\t", "007"]))


def _plain_value(options):
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if "type" in options:
        return INTEGER_VALUES
    return st.sampled_from(PLAIN_VALUES)


@st.composite
def plain_calls(draw):
    """A plain call of any subcommand: every required flag, some optional
    ones, in any order, each as "flag value" or "flag=value"."""
    name = draw(st.sampled_from(NAMES))
    chunks = []
    for flags, options in cli._COMMANDS_BY_NAME[name][3]:
        if not options.get("required") and draw(st.booleans()):
            continue
        if options.get("action") == "store_true":
            chunks.append([flags[0]])
            continue
        value = draw(_plain_value(options))
        chunks.append([f"{flags[0]}={value}"] if draw(st.booleans()) else [flags[0], value])
    return [name, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


@settings(max_examples=400, deadline=None)
@given(plain_calls())
def test_reader_reads_plain_calls_as_the_full_parser_does(argv):
    namespace = cli._read_plain(argv[0], argv[1:])
    assert namespace is not None
    assert vars(namespace) == vars(cli.build_parser().parse_args(argv))
    assert _outcome(cli.build_parser(argv[0]), argv[1:]) == _outcome(cli.build_parser(), argv)


@pytest.mark.parametrize("argv", [
    ["invariants", "-a", "-x", "-b", "1", "-c", "1"],  # a value that reads as a flag
    ["invariants", "-a", "--", "-b", "1", "-c", "1"],
    ["invariants", "-a", "-b", "1", "-c", "1"],
    ["scan", "--a-range", "0", "--b-range", "1", "--c-range", "1", "--out", "-"],
    ["invariants", "-a=-x", "-b", "1", "-c", "1"],  # argparse reads "-x"
    ["invariants", "-a", "", "-b", "1", "-c", "1"],  # argparse reads ""
    ["invariants", "-a=", "-b", "1", "-c", "1"],
    ["strata", "--check=1"],
    ["strata", "--format", "xml"],
    ["invariants", "-a", "1", "-b", "0"],  # -c missing
])
def test_reader_hands_near_plain_calls_to_argparse(argv):
    assert cli._read_plain(argv[0], argv[1:]) is None
    assert _outcome(cli.build_parser(argv[0]), argv[1:]) == _outcome(cli.build_parser(), argv)


@settings(max_examples=400, deadline=None)
@given(_argv(NAMES))
def test_flat_parser_matches_full_parser(argv):
    assert _outcome(cli.build_parser(argv[0]), argv[1:]) == _outcome(cli.build_parser(), argv)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(_argv(NAMES),
                      st.lists(st.sampled_from(VALUES + STRAYS + NAMES), max_size=4)))
def test_main_exits_0_1_or_2_and_never_raises(argv, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # scan --out writes its CSV here
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(argv))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
