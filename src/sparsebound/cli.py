"""Command-line front end.

Subcommands: ``eval`` (exact bound and profile values), ``curves`` (level
curve vertices as CSV or JSON), ``verify`` (property suites), ``brute``
(small-depth brute-force report), ``extremize`` and ``corollary``
(constructive extremizers with attainment reports).  Every printed value is
an exact rational string.  Exit status: 0 all checks pass, 1 a violation or
missed attainment was found, 2 usage error, 3 the run did not complete (an
unexpected error, or stdout closed before the report was written).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from .candidate import (
    Family,
    bellman_value,
    classify_region,
    corollary_bound,
    curve_vertices,
    f_region,
    f_value,
    g_region,
    g_value,
    vertex_f,
)
from .dyadic import config_to_json
from .extremal import (
    attainment_report,
    corollary_config,
    curve_vertex_config,
    curve_vertex_target,
    AttainmentTarget,
    EXTREMIZER_CURVE_CAP,
)
from .rational import DomainError, format_rational, parse_rational
from .verify import (
    EXHAUSTIVE_DEPTH_CAP,
    SAMPLED_DEPTH_CAP,
    ExhaustiveModeError,
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
    p_curves.add_argument("m_max", type=int)
    p_curves.add_argument("--family", choices=("F", "G"), default="F")
    p_curves.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curves.add_argument("--output", "-o", default=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=1000)

    p_brute = sub.add_parser(
        "brute",
        help="enumerate configurations at one depth",
        description=(
            f"Exhaustive up to depth {EXHAUSTIVE_DEPTH_CAP}; deeper runs need --sample. "
            f"Sampled mode is capped at depth {SAMPLED_DEPTH_CAP}."
        ),
    )
    p_brute.add_argument("depth", type=int)
    p_brute.add_argument("--sample", type=int, default=None)
    p_brute.add_argument("--seed", type=int, default=0)
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
    p_ext.add_argument("m", type=int)
    p_ext.add_argument("k", type=int)

    p_cor = sub.add_parser(
        "corollary",
        help="construct a lattice-bound extremizer",
        description=(
            "The extremizer is that of curve m = N + n - 3, with 2**(m+2) - 1 weights; "
            f"m above {EXTREMIZER_CURVE_CAP} is a usage error."
        ),
    )
    p_cor.add_argument("n", type=int)
    p_cor.add_argument("N", type=int)

    return parser


# Built once, at import: parsing reads the parser and writes only the
# namespace it returns, so one parser serves every call of ``main``.
_PARSER = _build_parser()

_encode_str = json.encoder.encode_basestring_ascii
# The JSON text of each scalar type a report holds.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dumps(obj, newline: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2)``, for the reports the commands print.

    A report holds dicts with string keys, lists, strings, ints, bools and
    ``None``; anything else, a float or a key that is not a string in
    particular, raises ``TypeError``.  The standard encoder runs in pure
    Python when it indents; this writes each container in one join, with
    its scalars looked up by type.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            scalar = _SCALARS.get(type(value))
            text = scalar(value) if scalar is not None else _dumps(value, inner)
            items.append(f"{_encode_str(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = []
        for value in obj:
            scalar = _SCALARS.get(type(value))
            items.append(scalar(value) if scalar is not None else _dumps(value, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"a report cannot hold {type(obj).__name__} {obj!r}")


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` and a final newline to stdout, or the same bytes to ``output``."""
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _cmd_eval(args: argparse.Namespace) -> int:
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
    print(f"{format_rational(result)} ({tag})")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    if args.m_max < 0:
        raise DomainError("m_max must be nonnegative")
    if args.m_max > CURVES_CAP:
        raise DomainError(f"curves are capped at m_max={CURVES_CAP}, got {args.m_max}")
    family = Family(args.family)
    curves = [(m, curve_vertices(family, m)) for m in range(args.m_max + 1)]
    if args.format == "json":
        payload = [
            {"m": m, "vertices": [[format_rational(p.x), format_rational(p.y)] for p in verts]}
            for m, verts in curves
        ]
        _emit(_dumps(payload), args.output)
        return 0
    rows = [["m", "k", "x", "lambda"]]
    for m, verts in curves:
        # The origin has no vertex index; then k runs from m down to 0.
        ks = [""] + [str(k) for k in range(m, -1, -1)]
        rows += [[str(m), k, format_rational(p.x), format_rational(p.y)] for k, p in zip(ks, verts)]
    text = "\n".join(",".join(row) for row in rows) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = SampleSpec(seed=args.seed, count=args.count)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    report = []
    failed = False
    for name in names:
        violations = run_suite(name, spec)
        report.append(
            {
                "check": name,
                "samples": args.count,
                "violations": [v.to_json() for v in violations],
            }
        )
        failed = failed or bool(violations)
    print(_dumps(report))
    return 1 if failed else 0


def _cmd_brute(args: argparse.Namespace) -> int:
    report = brute_force_sup(
        args.depth, lambda_values=args.lambdas, sample=args.sample, seed=args.seed
    )
    if args.format == "json":
        _emit(_dumps(report.to_json()), args.output)
    else:
        text = "\n".join(",".join(row) for row in report.to_csv_rows()) + "\n"
        _emit(text, args.output)
    return 0 if report.domination else 1


def _attainment_exit(config, target: AttainmentTarget) -> int:
    report = attainment_report(config, target)
    payload = {"config": config_to_json(config), "report": report}
    print(_dumps(payload))
    return 0 if report["attained"] else 1


def _cmd_extremize(args: argparse.Namespace) -> int:
    config = curve_vertex_config(args.m, args.k)
    return _attainment_exit(config, curve_vertex_target(args.m, args.k))


def _cmd_corollary(args: argparse.Namespace) -> int:
    config = corollary_config(args.n, args.N)
    point = vertex_f(args.n, args.N + args.n - 3)
    target = AttainmentTarget(point.x, Fraction(2), point.y, corollary_bound(args.n, args.N))
    return _attainment_exit(config, target)


_DISPATCH = {
    "eval": _cmd_eval,
    "curves": _cmd_curves,
    "verify": _cmd_verify,
    "brute": _cmd_brute,
    "extremize": _cmd_extremize,
    "corollary": _cmd_corollary,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        status = _DISPATCH[args.command](args)
        sys.stdout.flush()
        return status
    except (ExhaustiveModeError, DomainError) as exc:
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
