"""Command-line front end: every operation with text/JSON output, CSV scans."""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator

# Each handler reads the kernel modules it runs as attributes of the package,
# which imports each on first use (`ceresa_kit.__getattr__`): help and usage
# errors load none of them (nor `fractions`), and a subcommand loads only its
# own.  An import statement in a handler would run importlib's code on every
# call, a few microseconds, even for a module already loaded.
import ceresa_kit

from .errors import DomainError, clipped, open_path, quoted
from .literals import PRESET_NAMES, int_max_str_digits, integer, max_literal_chars


class UsageError(Exception):
    pass


# A token that starts "-<digit>" or "-.<digit>" is a value, never a flag:
# argparse's own pattern lets "-12" and "-1.5" through but would refuse the
# negative rationals "-12/7" and ranges "-2:2".
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        # An unknown command's list of choices repeats the usage line after it.
        if message.startswith("argument command: invalid choice: "):
            message = message.rpartition(" (choose from ")[0]
        raise UsageError(message)


#: Most points a `scan` grid may have: the product of its axis lengths,
#: counted before any value is built.  The CLI decides 1,180-1,410 points a
#: second on a 21^3 grid of sevenths and 1,470-1,890 on one of integers
#: (CPython 3.11, shared 2-vCPU machine), so a grid at the cap takes 9-14 min.
MAX_SCAN_POINTS = 10**6


def _parse_axis(text: str) -> tuple[int, Iterable]:
    """A grid axis, "lo:hi[:step]" (inclusive) or a comma-separated list.

    Returns its exact number of values and the values; a range's values
    are built only as they are read.
    """
    from fractions import Fraction

    rat = ceresa_kit.exactmath.rat
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise DomainError(f"bad range {quoted(text)}; expected lo:hi[:step]")
        lo, hi = rat(parts[0]), rat(parts[1])
        step = rat(parts[2]) if len(parts) == 3 else Fraction(1)
        if step == 0:
            raise DomainError("range step must be nonzero")
        # lo + k*step lies in the range exactly when 0 <= k <= (hi - lo)/step
        count = max(0, (hi - lo) // step + 1)
        return count, _range_values(text, lo, step, count)
    values = [rat(part) for part in text.split(",")]
    return len(values), values


def _range_values(text: str, lo, step, count: int) -> Iterator:
    # A range value, like a literal, must have numerator and denominator
    # below 10^max_literal_chars(), so that every scan row can be printed.
    cap = max_literal_chars()
    bound = 10**cap
    v = lo
    for _ in range(count):
        if max(abs(v.numerator), v.denominator) >= bound:
            raise DomainError(f"range {quoted(text)} reaches a value of more than {cap} digits")
        yield v
        v += step


def _scan_axes(*texts: str) -> list[list]:
    """The values of each grid axis, once the grid is known to fit the cap.

    An empty grid builds no value; `ceresa.scan` reports it.
    """
    axes = [_parse_axis(text) for text in texts]
    points = math.prod(count for count, _ in axes)
    if points > MAX_SCAN_POINTS:
        raise DomainError(f"scan grid has more than {MAX_SCAN_POINTS} points")
    return [list(values) if points else [] for _, values in axes]


def _cmd_invariants(args) -> tuple[dict, Iterable[str]]:
    inv = ceresa_kit.quartic.DepressedQuartic(args.a, args.b, args.c).invariants
    return inv.to_json(), (f"I = {inv.I}", f"J = {inv.J}", f"disc = {inv.disc}")


def _cmd_decide(args) -> tuple[dict, Iterable[str]]:
    ceresa = ceresa_kit.ceresa
    verdict = ceresa.decide(ceresa.PicardCurve.from_coefficients(args.a, args.b, args.c))
    return verdict.to_json(), _decide_lines(verdict)


def _decide_lines(verdict: ceresa_kit.ceresa.CeresaVerdict) -> Iterator[str]:
    curve, chow = verdict.curve, verdict.chow
    inv = curve.invariants
    yield f"curve: y^3 = {curve.quartic}"
    yield f"I = {inv.I}, J = {inv.J}, disc = {inv.disc}"
    yield f"invariant point (short model y^2 = x^3 + ({-432 * inv.disc})): {verdict.point}"
    yield (f"chow: torsion (point order {chow.point_order})" if chow.torsion
           else "chow: non-torsion")
    yield f"griffiths: {verdict.griffiths}"


def _cmd_torsion(args) -> tuple[dict, Iterable[str]]:
    elliptic = ceresa_kit.elliptic
    curve = elliptic.WeierstrassCurve(args.A, args.B)
    point = elliptic.affine(args.x, args.y)
    order = elliptic.torsion_order_q(curve, point)
    text = "infinite order (non-torsion over Q)" if order is None else f"torsion of order {order}"
    document = {"curve": curve.to_json(), "point": point.to_json(),
                "torsion": order is not None, "order": order}
    return document, (text,)


def _check_member_printable(values) -> None:
    # A member's coefficients and disc have degree up to 18 in t, so a long
    # t reaches values that CPython refuses to convert to a decimal string.
    limit = int_max_str_digits()
    if limit and any(max(abs(v.numerator), v.denominator) >= 10**limit for v in values):
        raise DomainError(
            f"the family member has a value of more than {limit} digits, "
            "beyond Python's int-to-string limit; choose a shorter t"
        )


def _cmd_family(args) -> tuple[dict, Iterable[str]]:
    curve = ceresa_kit.ceresa.family_generate(args.I, args.J, args.t)
    inv = curve.invariants
    _check_member_printable((*curve.quartic.coefficients(), inv.I, inv.J, inv.disc))
    return (
        {"curve": curve.quartic.to_json(), **inv.to_json()},
        (f"member: y^3 = {curve.quartic}", f"I = {inv.I}, J = {inv.J}, disc = {inv.disc}"),
    )


def _cmd_e0_torsion(args) -> tuple[dict, Iterable[str]]:
    points = ceresa_kit.ceresa.e0_rational_torsion()
    return (
        {"model": "y^2 = 4x^3 - 27", "points": [p.to_json() for p in points]},
        ("rational torsion of y^2 = 4x^3 - 27:", *(f"  {p}" for p in points)),
    )


def _cmd_bielliptic(args) -> tuple[dict, Iterable[str]]:
    consistent = ceresa_kit.ceresa.bielliptic_consistency(args.a, args.c)
    rat = ceresa_kit.exactmath.rat
    return (
        {"a": str(rat(args.a)), "c": str(rat(args.c)), "consistent": consistent},
        (f"consistent: {'true' if consistent else 'false'}",),
    )


def _cmd_repcrit(args) -> tuple[dict, Iterable[str]]:
    repcrit = ceresa_kit.repcrit
    profile = repcrit.load_profile(args.profile)
    d_v = repcrit.dim_inv_wedge3(profile, "V")
    d3 = repcrit.dim_inv_wedge3(profile, "H1")
    d1 = repcrit.invariant_dim(profile, "H1")
    prim = repcrit.primitive_dim(d3, d1)
    document = {
        "group_order": profile.group_order,
        "level": profile.level,
        "dim_v": profile.dim,
        "wedge3_v_invariants": d_v,
        "wedge3_h1_invariants": d3,
        "h1_invariants": d1,
        "prim3_invariants": prim,
    }
    if args.criterion in (None, "a"):
        document["criterion_a"] = prim == 0
    if args.criterion in (None, "b"):
        document["criterion_b"] = d_v == 0
    return document, _repcrit_lines(document)


def _repcrit_lines(document: dict) -> Iterator[str]:
    yield (f"group order {document['group_order']}, level {document['level']}, "
           f"dim V = {document['dim_v']}")
    yield f"dim (wedge^3 V)^G = {document['wedge3_v_invariants']}"
    yield (f"dim (wedge^3 H1)^G = {document['wedge3_h1_invariants']}, "
           f"dim (H1)^G = {document['h1_invariants']}, "
           f"primitive part = {document['prim3_invariants']}")
    if "criterion_a" in document:
        yield ("criterion a (chow-level, primitive H^3 invariants vanish): "
               f"{'holds' if document['criterion_a'] else 'fails'}")
    if "criterion_b" in document:
        yield ("criterion b (griffiths-level, wedge^3 V invariants vanish): "
               f"{'holds' if document['criterion_b'] else 'fails'}")


def _cmd_dihedral(args) -> tuple[dict, Iterable[str]]:
    genus, witness = ceresa_kit.repcrit.dihedral_criterion(args.m, args.a, args.b)
    head = f"genus {genus}; (⋀³V)^{{D_{args.m}}}"
    text = (f"{head} = 0: criterion holds" if witness is None
            else f"{head} ≠ 0: criterion fails (triple {'+'.join(map(str, witness))})")
    document = {"m": args.m, "a": args.a, "b": args.b, "genus": genus,
                "vanishing": witness is None,
                "witness_triple": list(witness) if witness else None}
    return document, (text,)


def _strata_table(records: list[ceresa_kit.strata.StratumRecord]) -> Iterable[str]:
    rows = (
        f"{r.label:<7} {r.dim:>3}   "
        f"{'yes' if r.chow_torsion else 'no':<5} "
        f"{'yes' if r.griffiths_torsion else 'no':<10} "
        f"{r.gap_label or '-':<9} {r.model_equation or '-'}"
        for r in records
    )
    return ("label    dim   chow  griffiths  gap       model", *rows)


def _cmd_strata(args) -> tuple[dict, Iterable[str]]:
    strata = ceresa_kit.strata
    if args.check:
        consistent = strata.verdict_consistency()
        return {"consistent": consistent}, (f"consistency: {'ok' if consistent else 'FAILED'}",)
    if args.group is not None:
        record = strata.stratum_info(args.group)
        return record.to_json(), _strata_table([record])
    records = [strata.stratum_info(label) for label in strata.labels()]
    return {"strata": [r.to_json() for r in records]}, _strata_table(records)


def _cmd_scan(args) -> tuple[None, Iterable[str]]:
    ceresa = ceresa_kit.ceresa
    records = ceresa.scan(*_scan_axes(args.a_range, args.b_range, args.c_range))
    return None, ceresa.scan_csv_lines(records)


def _arg(*flags: str, **options) -> tuple:
    return flags, options


def _required(*flags: str, **options) -> tuple:
    return tuple(_arg(flag, required=True, **options) for flag in flags)


_FORMAT = _arg("--format", choices=("text", "json"), default="text")

# One row per subcommand: name, help, handler, and its arguments as
# (flags, add_argument keywords) pairs, in the order its help lists them.
_COMMANDS = (
    ("invariants", "invariants (I, J, disc) of a quartic", _cmd_invariants,
     (*_required("-a", "-b", "-c"), _FORMAT)),
    ("decide", "Ceresa torsion verdict for y^3 = quartic", _cmd_decide,
     (*_required("-a", "-b", "-c"), _FORMAT)),
    ("torsion", "order of a point on y^2 = x^3 + Ax + B over Q", _cmd_torsion,
     (*_required("-A", "-B", "-x", "-y"), _FORMAT)),
    ("family", "torsion-family member for (I, J) at parameter t", _cmd_family,
     (*_required("-I", "-J", "-t"), _FORMAT)),
    ("e0-torsion", "rational torsion of y^2 = 4x^3 - 27", _cmd_e0_torsion, (_FORMAT,)),
    ("bielliptic", "cross-check the b = 0 isogeny route", _cmd_bielliptic,
     (*_required("-a", "-c"), _FORMAT)),
    ("repcrit", "group-action vanishing criteria from a profile", _cmd_repcrit, (
        _arg("--profile", required=True,
             help="profile JSON file or preset: "
                  f"{', '.join(PRESET_NAMES)}, dihedral:m,a,b"),
        _arg("--criterion", choices=("a", "b"), default=None),
        _FORMAT,
    )),
    ("dihedral", "genus and triple criterion of a dihedral cover", _cmd_dihedral,
     (*_required("-m", "-a", "-b", type=integer), _FORMAT)),
    ("strata", "genus-3 automorphism strata table", _cmd_strata, (
        _arg("--group", default=None),
        _arg("--check", action="store_true"),
        _FORMAT,
    )),
    ("scan", "decide a coefficient grid, emit CSV", _cmd_scan, (
        _arg("--a-range", required=True),
        _arg("--b-range", required=True),
        _arg("--c-range", required=True),
        _arg("--out", default=None),
        _arg("--threads", type=integer, default=None,
             help="accepted and ignored: scan runs in one thread, and its "
                  "output is the same for every value"),
    )),
)
_COMMANDS_BY_NAME = {row[0]: row for row in _COMMANDS}


def _dest(flags: tuple[str, ...]) -> str:
    # argparse's rule: the first long flag, else the first flag, without its
    # leading dashes and with "-" read as "_".
    return ([f for f in flags if f.startswith("--")] or flags)[0].lstrip("-").replace("-", "_")


def _plain_reader(handler, arguments) -> tuple:
    # What `_read_plain` reads for one command: its handler, the default of
    # each dest, flag -> (dest, add_argument keywords), and the required dests.
    defaults, actions = {}, {}
    for flags, options in arguments:
        dest = _dest(flags)
        defaults[dest] = False if options.get("action") == "store_true" else options.get("default")
        actions.update((flag, (dest, options)) for flag in flags)
    required = {dest for dest, options in actions.values() if options.get("required")}
    return handler, defaults, actions, required


# Built once at import, so that a plain call reads the table and builds nothing.
_PLAIN_READERS = {name: _plain_reader(handler, arguments)
                  for name, _, handler, arguments in _COMMANDS}


def _read_plain(command: str, args: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser gives `command` `args`, if they are a plain call.

    A call is plain when each token is one of the command's flags, spelt in
    full, as "flag value" or "flag=value" (a store_true flag alone); no flag
    is repeated and every required one is given; and each value is
    nonempty, starts with "-" only as `_NEGATIVE_VALUE` allows, and passes
    the flag's type and choices.  Any other call gives None.
    """
    handler, defaults, actions, required = _PLAIN_READERS[command]
    namespace = argparse.Namespace(command=command, handler=handler, **defaults)
    given = set()
    tokens = iter(args)
    for token in tokens:
        flag, equals, value = token.partition("=")
        if flag not in actions or actions[flag][0] in given:
            return None
        dest, options = actions[flag]
        given.add(dest)
        if options.get("action") == "store_true":
            if equals:
                return None
            value = True
        else:
            if not equals:
                value = next(tokens, "")
            if not value or (value[0] == "-" and not _NEGATIVE_VALUE.match(value)):
                return None
            if "type" in options:
                try:
                    value = options["type"](value)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    return None
            if "choices" in options and value not in options["choices"]:
                return None
        setattr(namespace, dest, value)
    return namespace if required <= given else None


class _CommandReader:
    """One subcommand's arguments: a plain call read from `_COMMANDS`, any other by argparse."""

    def __init__(self, command: str):
        self.command = command

    def parse_args(self, args: list[str]) -> argparse.Namespace:
        namespace = _read_plain(self.command, args)
        if namespace is None:
            namespace = build_parser().parse_args([self.command, *args])
        return namespace


def build_parser(command: str | None = None) -> _Parser | _CommandReader:
    """The ceresa-kit parser with every subcommand, or a reader for `command`'s arguments.

    The reader builds no parser for a plain call (see `_read_plain`): it
    makes the namespace the full parser would make, straight from
    `_COMMANDS`.  It hands every other call to the full parser, so help,
    usage errors and exit codes are argparse's own.  The table it reads
    is built once, at import; no parser is kept between calls.
    """
    if command is not None:
        return _CommandReader(command)
    parser = _Parser(prog="ceresa-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text, handler, arguments in _COMMANDS:
        subparser = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            subparser.add_argument(*flags, **options)
        subparser.set_defaults(handler=handler)
    return parser


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without the json module
    for a document of dicts with text keys, lists, ints, bools, None and
    text that needs no escaping (see `_json_string`).

    ``indent`` is the newline and padding that the value's own line starts
    with.  Any other value, such as a tuple, a float or a dict with a key
    that is not text, goes through ``json.dumps``, imported only then.
    """
    cls = value.__class__
    if cls is str:
        return _json_string(value)
    if cls is int:
        return int.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    inner = indent + "  "
    if cls is list:
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if cls is dict and all([key.__class__ is str for key in value]):
        items = [f"{_json_string(key)}: {_json_text(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    import json

    return json.dumps(value, indent=2).replace("\n", indent)


def _json_string(text: str) -> str:
    # Printable ASCII without '"' or '\' is its own JSON; json escapes the rest.
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json

    return json.dumps(text)


def _usage_message(message: str, argv: list[str]) -> str:
    """argparse's `message`, with each value it repeats from `argv` cut as `quoted` cuts it.

    argparse writes a value as its repr or as typed, and takes it from a
    whole token, the part after "=", or the part after a short flag.
    """
    for token in argv:
        for value in (token, token.partition("=")[2], token[2:]):
            message = message.replace(repr(value), quoted(value)).replace(value, clipped(value))
    return message


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS_BY_NAME else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv if command is None else argv[1:])
    except UsageError as exc:
        print(f"usage error: {_usage_message(str(exc), argv)}", file=sys.stderr)
        if command is not None:  # the usage line lists every subcommand
            parser = build_parser()
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        document, lines = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "format", None) == "json":
        lines = (_json_text(document),)
    # The handler has made every check; scan decides each point as its row is written.
    path = getattr(args, "out", None)
    try:
        with (open_path(path, "w", encoding="utf-8", newline="") if path
              else contextlib.nullcontext(sys.stdout)) as handle:
            if handle is None:  # fd 1 was closed at startup, so Python set no sys.stdout
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            try:
                for line in lines:
                    handle.write(line + "\n")
                handle.flush()
            except OSError:
                # Send what is still buffered nowhere, so that neither closing
                # the file nor flushing stdout at exit fails a second time.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, handle.fileno())
                os.close(devnull)
                raise
    except BrokenPipeError:  # the reader closed the pipe (`... | head`)
        return 0
    except (OSError, UnicodeEncodeError) as exc:  # or a line the stream's encoding lacks
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"error: cannot write {quoted(path or '<stdout>')}: {reason}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
