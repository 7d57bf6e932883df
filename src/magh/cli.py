"""Command line interface.

Subcommands: gen, compute, mx, certify, spectrum, verify. Spaces travel as
JSON ({"labels": [...], "d": [["p/q", ...], ...]}) on stdin/stdout so
commands pipe into each other. Exit codes: 0 success, 1 a verification
check failed, 2 bad usage, bad input, an input that cannot be read as
UTF-8 text or an `--out` path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .algebra import HomologyTable
from .chains import length_spectra, realized_totals, resolve_cap
from .errors import MaghError
from .frames import m_x
from .metric import (
    FiniteMetricSpace,
    complete_space,
    cycle_space,
    format_rational,
    parse_rational,
    path_space,
    random_metric,
)
from .posets import magnitude_homology_rows, mh2_certificate
from .verify import CHECKS, default_suite, run_checks


def _read_text(path):
    stdin = path is None or path == "-"
    try:
        if stdin:
            buffer = getattr(sys.stdin, "buffer", None)
            if buffer is None:  # a text stream with no bytes beneath, like io.StringIO
                return sys.stdin.read()
            # strict UTF-8, whatever the locale; newlines as `open` reads them
            return buffer.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise MaghError(f"cannot read input {'from stdin' if stdin else repr(path)}: {reason}")


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MaghError(f"cannot write output {path!r}: {exc.strerror or exc}") from None


def _load_space(args):
    text = _read_text(getattr(args, "infile", None))
    if not text.strip():
        raise MaghError("empty input: expected a metric space as JSON or CSV")
    if text.lstrip().startswith("{"):
        return FiniteMetricSpace.from_json(text)
    return FiniteMetricSpace.from_csv(text)


def _cmd_gen(args):
    if args.kind == "cycle":
        space = cycle_space(args.n)
    elif args.kind == "path":
        space = path_space(args.n)
    elif args.kind == "complete":
        space = complete_space(args.n)
    else:
        space = random_metric(args.n, seed=args.seed, max_w=args.max_w)
    indent = 2 if args.pretty else None
    _write_text(args.outfile, space.to_json(indent=indent) + "\n")
    return 0


def _gradings(space, args):
    if args.l.strip() == "spectrum":
        fraction = space.integer_view.fraction
        out = [fraction(t) for t in realized_totals(space, args.n_max, args.cap)]
    else:
        out = sorted({parse_rational(part) for part in args.l.split(",") if part.strip()})
    if args.l_max is not None:
        bound = parse_rational(args.l_max)
        out = [l for l in out if l <= bound]
    for l in out:
        if l < 0:
            raise MaghError(f"negative grading {l} requested")
    return out


def _cmd_compute(args):
    space = _load_space(args)
    gradings = _gradings(space, args)
    # a grading too long to print is refused before any homology is computed
    for l in gradings:
        format_rational(l)
    table = HomologyTable(
        magnitude_homology_rows(space, gradings, args.n_max, resolve_cap(args.cap))
    )
    if args.format == "json":
        _write_text(args.outfile, table.to_json() + "\n")
    elif args.format == "csv":
        _write_text(args.outfile, table.to_csv())
    else:
        _write_text(args.outfile, table.to_table())
    return 0


def _cmd_mx(args):
    space = _load_space(args)
    _write_text(args.outfile, _json_line(m_x(space).to_json_dict()))
    return 0


def _cmd_certify(args):
    space = _load_space(args)
    a, b = args.pair
    if not (0 <= a < space.n and 0 <= b < space.n):
        raise MaghError(f"pair ({a}, {b}) out of range for n={space.n}")
    cert = mh2_certificate(space, a, b)
    _write_text(args.outfile, _json_line(cert.to_json_dict()))
    return 0


def _cmd_spectrum(args):
    space = _load_space(args)
    if args.n_max and space.n > 1:
        # the longest length, n_max steps back and forth between two
        # farthest points, is always printed: refuse it before the count
        view = space.integer_view
        format_rational(view.fraction(args.n_max * max(map(max, view.idist))))
    lines = ["n,l,count"]
    for spectrum in length_spectra(space, args.n_max, args.cap):
        for l, count in zip(spectrum.lengths, spectrum.counts):
            lines.append(f"{spectrum.degree},{format_rational(l)},{count}")
    _write_text(args.outfile, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args):
    checks = args.check or None
    if args.infile is not None:
        spaces = [_load_space(args)]
    else:
        spaces = default_suite(seed=args.seed)
    reports = run_checks(spaces, checks=checks, n_max=args.n_max, cap=args.cap)
    out = "".join(r.to_json() + "\n" for r in reports)
    _write_text(args.outfile, out)
    failed = sum(1 for r in reports if not r.passed)
    if failed:
        print(f"{failed} of {len(reports)} checks failed", file=sys.stderr)
        return 1
    return 0


def _int_at_least(low):
    """An argparse type: an int no smaller than `low`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _json_line(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def _add_io(parser, needs_input=True):
    if needs_input:
        parser.add_argument(
            "--in",
            dest="infile",
            default=None,
            help="input file (JSON or CSV); default stdin",
        )
    parser.add_argument(
        "--out", dest="outfile", default=None, help="output file; default stdout"
    )


def _gen_arguments(p):
    p.add_argument("kind", choices=["cycle", "path", "complete", "random"])
    p.add_argument("n", type=int, help="number of points")
    p.add_argument("--seed", type=int, default=0, help="random kind only")
    p.add_argument("--max-w", type=_int_at_least(1), default=9, help="random kind only")
    p.add_argument("--pretty", action="store_true", help="indent the JSON")
    _add_io(p, needs_input=False)


def _compute_arguments(p):
    p.add_argument(
        "--l",
        default="spectrum",
        help="'spectrum' or comma-separated gradings like '1,3/2,2'",
    )
    p.add_argument("--l-max", default=None, help="drop gradings above this value")
    p.add_argument("--n-max", type=_int_at_least(0), default=3)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument(
        "--cap",
        type=_int_at_least(0),
        default=None,
        help="cap on enumeration steps: length-count steps for the spectrum, "
        "for l < m_X the frame tuples counted plus the order-complex simplices "
        "of pairs not yet held, and for l >= m_X the chain prefixes kept plus "
        "the top-degree chains kept by insertion",
    )
    _add_io(p)


def _certify_arguments(p):
    p.add_argument("--pair", nargs=2, type=int, required=True, metavar=("A", "B"))
    _add_io(p)


def _spectrum_arguments(p):
    p.add_argument("--n-max", type=_int_at_least(0), default=3)
    p.add_argument(
        "--cap",
        type=_int_at_least(0),
        default=None,
        help="cap on the (state, next point) steps of the count",
    )
    _add_io(p)


def _verify_arguments(p):
    p.add_argument(
        "--check",
        action="append",
        choices=sorted(CHECKS),
        help="run only this check (repeatable); default all",
    )
    p.add_argument("--n-max", type=_int_at_least(0), default=3)
    p.add_argument("--seed", type=int, default=1, help="seed for the random suite spaces")
    p.add_argument("--cap", type=_int_at_least(0), default=None)
    _add_io(p)


# name -> (help line, the function declaring its arguments, the command)
COMMANDS = {
    "gen": ("generate a named space as JSON", _gen_arguments, _cmd_gen),
    "compute": ("magnitude homology table of a space", _compute_arguments, _cmd_compute),
    "mx": ("minimum four-cut length of a space", _add_io, _cmd_mx),
    "certify": ("lower bound for MH_2 at grading d(a,b)", _certify_arguments, _cmd_certify),
    "spectrum": (
        "number of chains per degree and length, CSV, counted without enumerating",
        _spectrum_arguments,
        _cmd_spectrum,
    ),
    "verify": ("run cross-checks, one JSON report per line", _verify_arguments, _cmd_verify),
}


def _declare(parser, name):
    _, arguments, command = COMMANDS[name]
    arguments(parser)
    parser.set_defaults(func=command)
    return parser


def build_parser():
    """The full `magh` parser: top-level options and every command."""
    parser = argparse.ArgumentParser(
        prog="magh",
        description="Integer magnitude homology of finite metric spaces, exactly.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        _declare(sub.add_parser(name, help=help_line), name)
    return parser


def command_parser(name):
    """The parser of one command alone, as `magh <name>`.

    It prints the help, usage and errors that the full parser's
    subparser for `name` prints.
    """
    return _declare(argparse.ArgumentParser(prog=f"magh {name}"), name)


# command name -> its parser, built on the first call that names the
# command: in-process callers run many commands
_PARSERS = {}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    if argv and argv[0] in COMMANDS:
        parser = _PARSERS.get(argv[0])
        if parser is None:
            parser = _PARSERS[argv[0]] = command_parser(argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if extra:
            args = None
    if args is None:
        # top-level -h or --version, no or an unknown command, or leftover
        # arguments: the full parser prints what a user of `magh` expects
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MaghError as exc:
        print(f"magh: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
