"""Command-line front end.

Subcommands: ``eval`` (exact bound and profile values), ``curves`` (level
curve vertices as CSV or JSON), ``verify`` (property suites), ``brute``
(small-depth brute-force report), ``extremize`` and ``corollary``
(constructive extremizers with attainment reports).  The library returns
exact values and only this module turns them into text: ``_dumps`` writes
every JSON report, each ``Fraction`` as its ``"p/q"`` string.  Exit status: 0
all checks pass, 1 a violation or missed attainment was found, 2 usage error,
3 the run did not complete (an unexpected error, or stdout closed early).

``_COMMANDS`` holds each command's help, description, arguments and
handler.  A call that names a command first is parsed once, by that
command's own parser, built on its first use; any other call (no
arguments, ``-h``, an unknown command) goes to the whole tree of parsers,
which also reports extra arguments.  ``verify`` and ``brute`` import
``verify``, ``extremize`` and ``corollary`` import ``extremal``, and each
reads them at every run, so that a function replaced there is the one called.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .candidate import (
    Family,
    bellman_value,
    classify_region,
    curve_vertices,
    f_region,
    f_value,
    g_region,
    g_value,
)
from .rational import DomainError, format_rational, parse_rational

if TYPE_CHECKING:  # imported at run time only by the commands that build a configuration
    from .dyadic import Config
    from .extremal import AttainmentTarget


# The curves output grows about as m_max**3 bytes: 11 MB of CSV at the cap.
CURVES_CAP = 400


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# ASCII digits only, as in ``parse_rational``: int() also reads other scripts' digits and "_".
_INTEGER_RE = re.compile(r"\s*[+-]?[0-9]+\s*\Z")


def _integer(text: str) -> int:
    if _INTEGER_RE.match(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-p/q`` as a negative rational, not an option."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(?:/\d+)?$|^-\d*\.\d+$", re.ASCII
        )


_encode_str = json.encoder.encode_basestring_ascii


def _json_rational(value: Fraction) -> str:
    return _encode_str(format_rational(value))


# The JSON text of each scalar type a report holds.
_SCALARS = {
    str: _encode_str,
    Fraction: _json_rational,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


class _Rows(NamedTuple):
    """A list of dicts that share ``keys``, as rows of their values' JSON texts or ints."""

    keys: tuple[str, ...]
    rows: Iterable[tuple]


def _dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, default=format_rational)``, for the reports.

    A report holds dicts with string keys, lists, ``_Rows``, strings,
    ``Fraction``s, ints, bools and ``None``; anything else, such as a float
    or a key that is not a string, raises ``TypeError``.  The standard
    encoder runs in pure Python when it indents; this looks scalars up by
    type and writes one in a container inline, writes the rows of a
    ``_Rows`` from one template, and joins all the pieces once.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar:
        return scalar(obj)
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    inner = newline + "  "
    sep, brackets, start = "," + inner, "[]", len(out)
    if isinstance(obj, dict):
        brackets = "{}"
        for key, value in obj.items():
            scalar = _SCALARS.get(type(value))
            out.append(f"{sep}{_encode_str(key)}: {scalar(value) if scalar else ''}")
            if not scalar:
                _write(value, inner, out)
    elif isinstance(obj, list):
        for value in obj:
            scalar = _SCALARS.get(type(value))
            out.append(sep + scalar(value) if scalar else sep)
            if not scalar:
                _write(value, inner, out)
    elif type(obj) is _Rows:
        keys = [f"{inner}  {_encode_str(key).replace('%', '%%')}: %s" for key in obj.keys]
        template = sep + ("{" + ",".join(keys) + inner + "}" if keys else "{}")
        out += map(template.__mod__, obj.rows)
    else:
        raise TypeError(f"a report cannot hold {type(obj).__name__} {obj!r}")
    if len(out) == start:
        out.append(brackets)
    else:  # each item begins with its separator; the first one's comma opens the container
        out[start] = brackets[0] + out[start][1:]
        out.append(newline + brackets[1])


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` and a final newline to stdout, or the same bytes to ``output``.

    A file is written whole or not at all: into a temporary file beside it,
    which then replaces it, so a failed write leaves the old file as it was.
    A target that is not a regular file, such as ``/dev/null``, is written
    in place.
    """
    def put(handle) -> None:  # the newline apart: text + "\n" copies the report
        handle.write(text)
        handle.write("" if text.endswith("\n") else "\n")

    if output is None:
        return put(sys.stdout)
    target = os.path.realpath(output)  # through a symlink, as opening it would
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            return put(handle)
    import tempfile

    try:
        fd, temp = tempfile.mkstemp(".tmp", ".sparsebound-", os.path.dirname(target))
    except OSError as exc:  # named by the file asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, output) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            put(handle)
        os.chmod(temp, _file_mode(target))
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _file_mode(path: str) -> int:
    """The permissions ``open(path, "w")`` leaves: the file's own, or the umask's for a new one."""
    try:
        return os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _csv(rows) -> str:
    return "\n".join(",".join(row) for row in rows)


def _eval_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--which", choices=("B", "f", "g"), default="B")
    parser.add_argument("args", nargs="+", type=_rational, metavar="RATIONAL")


def _cmd_eval(args: argparse.Namespace) -> tuple[str, int]:
    values = args.args
    if args.which == "B":
        if len(values) != 3:
            raise DomainError("eval --which B needs x A lambda")
        x, a, level = values
        result = bellman_value(x, a, level)
        tag = classify_region(x, a, level).describe()
    else:
        if len(values) != 2:
            raise DomainError(f"eval --which {args.which} needs x lambda")
        x, level = values
        value, region = (f_value, f_region) if args.which == "f" else (g_value, g_region)
        result, tag = value(x, level), region(x, level).describe()
    return f"{format_rational(result)} ({tag})", 0


def _curves_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("m_max", type=_integer)
    parser.add_argument("--family", choices=("F", "G"), default="F")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", "-o", default=None)


def _cmd_curves(args: argparse.Namespace) -> tuple[str, int]:
    if args.m_max < 0:
        raise DomainError("m_max must be nonnegative")
    if args.m_max > CURVES_CAP:
        raise DomainError(f"curves are capped at m_max={CURVES_CAP}, got {args.m_max}")
    family = Family(args.family)
    curves = [(m, curve_vertices(family, m)) for m in range(args.m_max + 1)]
    if args.format == "json":
        payload = [{"m": m, "vertices": [[p.x, p.y] for p in verts]} for m, verts in curves]
        return _dumps(payload), 0
    rows = [["m", "k", "x", "lambda"]]
    for m, verts in curves:
        # The origin has no vertex index; then k runs from m down to 0.
        ks = [""] + [str(k) for k in range(m, -1, -1)]
        rows += [[str(m), k, format_rational(p.x), format_rational(p.y)] for k, p in zip(ks, verts)]
    return _csv(rows), 0


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    from .verify import SUITE_NAMES

    parser.add_argument("suite", choices=SUITE_NAMES + ("all",))
    parser.add_argument("--seed", type=_integer, default=0)
    parser.add_argument("--count", type=_integer, default=1000)


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from .verify import SUITE_NAMES, SampleSpec, run_suite

    spec = SampleSpec(seed=args.seed, count=args.count)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    runs = [
        (name, [{**vars(v), "witness": dict(v.witness)} for v in run_suite(name, spec)])
        for name in names
    ]
    report = [{"check": name, "samples": args.count, "violations": found} for name, found in runs]
    return _dumps(report), 1 if any(found for _, found in runs) else 0


def _brute_arguments(parser: argparse.ArgumentParser) -> None:
    from .verify import EXHAUSTIVE_DEPTH_CAP, SAMPLED_DEPTH_CAP

    parser.description = (
        f"Exhaustive up to depth {EXHAUSTIVE_DEPTH_CAP}; deeper runs need --sample. "
        f"Sampled mode is capped at depth {SAMPLED_DEPTH_CAP}."
    )
    parser.add_argument("depth", type=_integer)
    parser.add_argument("--sample", type=_integer, default=None)
    parser.add_argument("--seed", type=_integer, default=0)
    parser.add_argument(
        "--lambda", dest="lambdas", type=_rational, action="append", default=[]
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", "-o", default=None)


_BRUTE_KEYS = ("x", "A", "lambda", "maxV", "B", "attained")


def _cmd_brute(args: argparse.Namespace) -> tuple[str, int]:
    from .verify import brute_force_sup

    report = brute_force_sup(
        args.depth, lambda_values=args.lambdas, sample=args.sample, seed=args.seed
    )
    status = 0 if report.domination else 1
    if args.format == "csv":
        return _csv([_BRUTE_KEYS, *report.rows(format_rational, ("0", "1"))]), status
    payload = {
        "depth": report.depth,
        "exhaustive": report.exhaustive,
        "configs_scanned": report.configs_scanned,
        "domination": report.domination,
        "entries": _Rows(_BRUTE_KEYS, report.rows(_json_rational, ("false", "true"))),
    }
    return _dumps(payload), status


def _attainment(config: Config, target: AttainmentTarget) -> tuple[str, int]:
    from . import dyadic, extremal  # one import per call, and the cheapest form of it

    report = extremal.attainment_report(config, target)
    seq = config.seq
    texts = {v: _json_rational(Fraction(v, seq._den)) for v in set(seq._values)}
    # Generated, not listed: thousands of live row tuples set off a full garbage collection.
    weights = dyadic._weight_rows(seq, texts.__getitem__)
    config_json = {
        "E": {"intervals": _Rows(("d", "i"), map(dyadic._depth_index, config.subset._keys))},
        "alpha": {"weights": _Rows(("d", "i", "w"), weights)},
    }
    return _dumps({"config": config_json, "report": report}), 0 if report["attained"] else 1


def _extremize_arguments(parser: argparse.ArgumentParser) -> None:
    from .extremal import EXTREMIZER_CURVE_CAP

    parser.description = (
        "The configuration of curve m has 2**(m+2) - 1 weights; "
        f"m above {EXTREMIZER_CURVE_CAP} is a usage error."
    )
    parser.add_argument("m", type=_integer)
    parser.add_argument("k", type=_integer)


def _cmd_extremize(args: argparse.Namespace) -> tuple[str, int]:
    from .extremal import curve_vertex_config, curve_vertex_target

    return _attainment(curve_vertex_config(args.m, args.k), curve_vertex_target(args.m, args.k))


def _corollary_arguments(parser: argparse.ArgumentParser) -> None:
    from .extremal import EXTREMIZER_CURVE_CAP

    parser.description = (
        "The extremizer is that of curve m = N + n - 3, with 2**(m+2) - 1 weights; "
        f"m above {EXTREMIZER_CURVE_CAP} is a usage error."
    )
    parser.add_argument("n", type=_integer)
    parser.add_argument("N", type=_integer)


def _cmd_corollary(args: argparse.Namespace) -> tuple[str, int]:
    from .extremal import corollary_config, corollary_target

    return _attainment(corollary_config(args.n, args.N), corollary_target(args.n, args.N))


class _Command(NamedTuple):
    help: str
    description: str | None
    arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], tuple[str, int]]


# In the order ``sparsebound -h`` lists them.  A description that names a cap
# is set by the arguments function, which imports the cap's module.
_COMMANDS = {
    "eval": _Command(
        "evaluate the bound or a boundary profile", None, _eval_arguments, _cmd_eval
    ),
    "curves": _Command(
        "emit level-curve vertices",
        f"Output grows as m_max**3 bytes; m_max above {CURVES_CAP} is a usage error.",
        _curves_arguments,
        _cmd_curves,
    ),
    "verify": _Command("run a verification suite", None, _verify_arguments, _cmd_verify),
    "brute": _Command(
        "enumerate configurations at one depth", None, _brute_arguments, _cmd_brute
    ),
    "extremize": _Command(
        "construct a curve-vertex extremizer", None, _extremize_arguments, _cmd_extremize
    ),
    "corollary": _Command(
        "construct a lattice-bound extremizer", None, _corollary_arguments, _cmd_corollary
    ),
}


# Each parser is built on its first use and kept: parsing reads a parser and
# writes only the namespace it returns, so one parser serves every call of ``main``.
@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """What ``sparsebound NAME`` parses its arguments with: the subparser of the tree, alone."""
    command = _COMMANDS[name]
    parser = _Parser(prog=f"sparsebound {name}", description=command.description)
    command.arguments(parser)
    return parser


@functools.cache
def _tree_parser() -> argparse.ArgumentParser:
    """The top-level parser, with every command's parser under it."""
    parser = _Parser(
        prog="sparsebound",
        description="Exact level-set bounds for dyadic sparse averaging operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        command.arguments(sub.add_parser(name, help=command.help, description=command.description))
    return parser


def _parse(argv: list[str]) -> tuple[_Command, argparse.Namespace]:
    """The command ``argv`` names and its arguments, or a usage error as the tree reports it."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        args = _tree_parser().parse_args(argv)
        return _COMMANDS[args.command], args
    args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
    if extra:
        _tree_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    return command, args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; each returns its text and exit status, written here."""
    command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        text, status = command.run(args)
        _emit(text, getattr(args, "output", None))
        sys.stdout.flush()
        return status
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone; what is still buffered goes nowhere at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
