"""Command-line front end.

Subcommands: ``eval`` (exact bound and profile values), ``curves`` (level
curve vertices as CSV or JSON), ``verify`` (property suites), ``brute``
(small-depth brute-force report), ``extremize`` and ``corollary``
(constructive extremizers with attainment reports).  The library returns
exact values and only this module turns them into text: ``_dumps`` writes
every JSON report, each ``Fraction`` as its ``"p/q"`` string.  Exit status: 0
all checks pass, 1 a violation or missed attainment was found, 2 usage error,
3 the run did not complete (an unexpected error, or stdout closed early).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

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
from .dyadic import Config, _depth_index
from .extremal import (
    attainment_report,
    corollary_config,
    corollary_target,
    curve_vertex_config,
    curve_vertex_target,
    AttainmentTarget,
    EXTREMIZER_CURVE_CAP,
)
from .rational import DomainError, format_rational, parse_rational
from .verify import (
    EXHAUSTIVE_DEPTH_CAP,
    SAMPLED_DEPTH_CAP,
    SampleSpec,
    SUITE_NAMES,
    brute_force_sup,
    run_suite,
)


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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsebound",
        description="Exact level-set bounds for dyadic sparse averaging operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the bound or a boundary profile")
    p_eval.add_argument("--which", choices=("B", "f", "g"), default="B")
    p_eval.add_argument("args", nargs="+", type=_rational, metavar="RATIONAL")

    p_curves = sub.add_parser(
        "curves",
        help="emit level-curve vertices",
        description=f"Output grows as m_max**3 bytes; m_max above {CURVES_CAP} is a usage error.",
    )
    p_curves.add_argument("m_max", type=_integer)
    p_curves.add_argument("--family", choices=("F", "G"), default="F")
    p_curves.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curves.add_argument("--output", "-o", default=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=_integer, default=0)
    p_verify.add_argument("--count", type=_integer, default=1000)

    p_brute = sub.add_parser(
        "brute",
        help="enumerate configurations at one depth",
        description=(
            f"Exhaustive up to depth {EXHAUSTIVE_DEPTH_CAP}; deeper runs need --sample. "
            f"Sampled mode is capped at depth {SAMPLED_DEPTH_CAP}."
        ),
    )
    p_brute.add_argument("depth", type=_integer)
    p_brute.add_argument("--sample", type=_integer, default=None)
    p_brute.add_argument("--seed", type=_integer, default=0)
    p_brute.add_argument(
        "--lambda", dest="lambdas", type=_rational, action="append", default=[]
    )
    p_brute.add_argument("--format", choices=("json", "csv"), default="json")
    p_brute.add_argument("--output", "-o", default=None)

    p_ext = sub.add_parser(
        "extremize",
        help="construct a curve-vertex extremizer",
        description=(
            "The configuration of curve m has 2**(m+2) - 1 weights; "
            f"m above {EXTREMIZER_CURVE_CAP} is a usage error."
        ),
    )
    p_ext.add_argument("m", type=_integer)
    p_ext.add_argument("k", type=_integer)

    p_cor = sub.add_parser(
        "corollary",
        help="construct a lattice-bound extremizer",
        description=(
            "The extremizer is that of curve m = N + n - 3, with 2**(m+2) - 1 weights; "
            f"m above {EXTREMIZER_CURVE_CAP} is a usage error."
        ),
    )
    p_cor.add_argument("n", type=_integer)
    p_cor.add_argument("N", type=_integer)

    return parser


# Built once, at import: parsing reads the parser and writes only the
# namespace it returns, so one parser serves every call of ``main``.
_PARSER = _build_parser()

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
    type, writes the rows of a ``_Rows`` from one template, and joins all
    the pieces once.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
        return
    inner = newline + "  "
    sep, brackets, start = "," + inner, "[]", len(out)
    if isinstance(obj, dict):
        brackets = "{}"
        for key, value in obj.items():
            out.append(f"{sep}{_encode_str(key)}: ")
            _write(value, inner, out)
    elif isinstance(obj, list):
        for value in obj:
            out.append(sep)
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
    """Write ``text`` and a final newline to stdout, or the same bytes to ``output``."""
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _csv(rows) -> str:
    return "\n".join(",".join(row) for row in rows)


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


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    spec = SampleSpec(seed=args.seed, count=args.count)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    runs = [
        (name, [{**vars(v), "witness": dict(v.witness)} for v in run_suite(name, spec)])
        for name in names
    ]
    report = [{"check": name, "samples": args.count, "violations": found} for name, found in runs]
    return _dumps(report), 1 if any(found for _, found in runs) else 0


_BRUTE_KEYS = ("x", "A", "lambda", "maxV", "B", "attained")


def _cmd_brute(args: argparse.Namespace) -> tuple[str, int]:
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
    report = attainment_report(config, target)
    seq = config.seq
    texts = {v: _json_rational(Fraction(v, seq._den)) for v in set(seq._values)}
    # Generated, not listed: thousands of live row tuples set off a full garbage collection.
    intervals = map(_depth_index, config.subset._keys)
    weights = ((d, i, texts[v]) for (d, i), v in zip(map(_depth_index, seq._keys), seq._values))
    config_json = {
        "E": {"intervals": _Rows(("d", "i"), intervals)},
        "alpha": {"weights": _Rows(("d", "i", "w"), weights)},
    }
    return _dumps({"config": config_json, "report": report}), 0 if report["attained"] else 1


def _cmd_extremize(args: argparse.Namespace) -> tuple[str, int]:
    return _attainment(curve_vertex_config(args.m, args.k), curve_vertex_target(args.m, args.k))


def _cmd_corollary(args: argparse.Namespace) -> tuple[str, int]:
    return _attainment(corollary_config(args.n, args.N), corollary_target(args.n, args.N))


_DISPATCH = {
    "eval": _cmd_eval,
    "curves": _cmd_curves,
    "verify": _cmd_verify,
    "brute": _cmd_brute,
    "extremize": _cmd_extremize,
    "corollary": _cmd_corollary,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; each returns its text and exit status, written here."""
    args = _PARSER.parse_args(argv)
    try:
        text, status = _DISPATCH[args.command](args)
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
