"""The flat single-command parser against the full parser, and a bounded CLI fuzz."""

from __future__ import annotations

import contextlib
import io

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
