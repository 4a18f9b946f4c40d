"""Command line front end.

Four subcommands:

    eval       evaluate one family at (z, m) by any or all methods
    verify     run a verification suite and emit its report
    integral   evaluate one log-singular integral by quadrature
    constants  print the closed-form constant registry and the
               special-value table it rests on

Exit codes: 0 success / all records pass, 1 a verification comparison
failed, 2 usage or domain error.  eval --method all judges agreement by
the suites' rule (harness._record) with --tol as the tolerance: the
spread of the values, max - min, within tol * max(1, |reference|).

z is the |z| >= 1 parameterization of the A and B families.  --w accepts
the reciprocal convention (|w| <= 1) and converts via z = 1/w.  --z, --w
and --tol take a negative value after a space also in exponent form
(--z -1e6).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .closedform import REGISTRY, closed_sum
from .errors import DomainError, TrisumError
from .harness import (_QUAD_TOL, _SERIES_TOL, SUITES, _fmt, _record, columns, csv_text,
                      emit_report, run_suite)
from .quadrature import (_MIN_TOL, IntegrandSpec, Kernel, Variant, integrate,
                         series_via_quadrature)
from .series import SeriesFamily, check_point, family_entry, sum_series
from .specfun import catalan, clausen2, dilog

__all__ = ["build_parser", "main"]

_METHODS = ("closed", "series", "quadrature", "all")
_FORMATS = ("table", "json", "csv")


def _add_z_group(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--z", type=float, help="series argument, |z| >= 1 for A/B")
    group.add_argument("--w", type=float,
                       help="reciprocal argument, converted via z = 1/w")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_FORMATS, default="table",
                        help="output format (default table)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisum",
        description="Evaluate and verify central-binomial harmonic series.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="evaluate one series family at (z, m)")
    p.add_argument("--family", required=True, choices=[f.value for f in SeriesFamily])
    _add_z_group(p)
    p.add_argument("--m", type=int, default=0, help="binomial weight order")
    p.add_argument("--method", choices=_METHODS, default="all")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="agreement gate for --method all (default 1e-10)")
    _add_output_flags(p)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--tol", type=float, default=None,
                   help="pass threshold (default: per-suite)")
    _add_output_flags(p)

    p = sub.add_parser("integral", help="evaluate one log-singular integral")
    p.add_argument("--kernel", required=True, choices=[k.value for k in Kernel])
    p.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    _add_z_group(p)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10,
                   help=f"quadrature tolerance, at least {_MIN_TOL:g} (default 1e-10)")
    _add_output_flags(p)

    p = sub.add_parser("constants",
                       help="print the constant registry and special values")
    _add_output_flags(p)

    return parser


# flags that take a number, which may be negative
_NUMBER_FLAGS = ("--z", "--w", "--tol")


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """Write "--z -1e6" as "--z=-1e6" for every flag in _NUMBER_FLAGS,
    or a prefix of one, as argparse accepts ("--to" for "--tol").

    argparse reads an argument such as "-1e6" or "-1e-3" as an option
    (its negative-number pattern covers "-2" and "-2.5" only), so a
    negative value in exponent form would otherwise not reach the flag.
    """
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (len(flag) > 2 and flag.startswith("--")
                and any(name.startswith(flag) for name in _NUMBER_FLAGS)
                and arg.startswith("-") and _is_number(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _normalize(args: argparse.Namespace) -> None:
    """Check --tol and fold --w into args.z."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"--tol must be a positive finite value, got {tol!r}")
    w = getattr(args, "w", None)
    if w is not None:
        if w == 0.0 or not math.isfinite(w):
            raise DomainError(f"--w must be finite and nonzero, got {w!r}")
        args.z = 1.0 / w
        if not math.isfinite(args.z):
            raise DomainError(f"--w must have a finite reciprocal z = 1/w, got {w!r}")


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(args: argparse.Namespace, doc: dict, header, rows, table: str) -> None:
    """Write one result in args.format: doc as json, header and rows as
    csv, or the table text."""
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        text = csv_text(header, rows)
    else:
        text = table
    _write(text, args.out)


# -- eval --------------------------------------------------------------------

def _cmd_eval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    family, spec = family_entry(args.family)
    # the series defines the object, so its convergence domain gates every
    # method, closed form included
    check_point(family, spec, args.z, args.m)

    # methods always run at the suites' tolerances; args.tol is the
    # agreement gate for --method all
    values: dict[str, float] = {}
    if args.method == "closed" or (args.method == "all" and spec.outer):
        # raises for C families, which have no closed form
        values["closed"] = closed_sum(family, args.z, args.m).total
    if args.method in ("series", "all"):
        values["series"] = sum_series(family, args.z, args.m, tol=_SERIES_TOL)
    if args.method in ("quadrature", "all"):
        values["quadrature"] = series_via_quadrature(
            family, args.z, args.m, tol=_QUAD_TOL)
    # the suites' verdict, so a nan value disagrees
    record = _record("eval", family.value, args.z, args.m, values.get("closed"),
                     values.get("series"), values.get("quadrature"), tuple(values.values()),
                     args.tol, (time.perf_counter() - started) * 1000.0)
    agree = record.passed if args.method == "all" else None

    if agree is None:
        (value,) = values.values()
        table = _fmt(value) + "\n"
    else:
        width = max(map(len, values))
        lines = [f"{name.ljust(width)}  {_fmt(v)}" for name, v in values.items()]
        verdict = "agree" if agree else "DISAGREE"
        lines.append(f"max deviation {record.abs_diff:.3e}  tolerance {args.tol:g}  {verdict}")
        table = "\n".join(lines) + "\n"
    doc = {
        "family": family.value, "z": args.z, "m": args.m,
        "method": args.method, "tol": args.tol,
        "values": values, "max_abs_diff": record.abs_diff, "agree": agree,
    }
    rows = [(family.value, _fmt(args.z), str(args.m), name, _fmt(v))
            for name, v in values.items()]
    _emit(args, doc, ("family", "z", "m", "method", "value"), rows, table)
    return 1 if agree is False else 0


# -- verify ------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    records = run_suite(args.suite, args.tol)
    text = emit_report(records, args.format, suite=args.suite,
                       tol=records[0].tol if records else args.tol)
    _write(text, args.out)
    return 0 if all(r.passed for r in records) else 1


# -- integral ----------------------------------------------------------------

def _cmd_integral(args: argparse.Namespace) -> int:
    spec = IntegrandSpec(args.kernel, args.z, args.m, args.variant)
    value = integrate(spec, tol=args.tol)
    doc = {"kernel": args.kernel, "variant": args.variant,
           "z": args.z, "m": args.m, "tol": args.tol, "value": value}
    row = (args.kernel, args.variant, _fmt(args.z), str(args.m), _fmt(value))
    _emit(args, doc, ("kernel", "variant", "z", "m", "value"), [row],
          _fmt(value) + "\n")
    return 0


# -- constants ---------------------------------------------------------------

def _special_values() -> list[tuple[str, str, complex]]:
    pi = math.pi
    return [
        ("Li2(1)", "pi^2/6", complex(dilog(1.0))),
        ("Li2(1/2)", "pi^2/12 - ln(2)^2/2", complex(dilog(0.5))),
        ("Li2(i)", "-pi^2/48 + i G", dilog(1j)),
        ("Li2(-i)", "-pi^2/48 - i G", dilog(-1j)),
        ("Cl2(pi/2)", "G", complex(clausen2(pi / 2))),
        ("G", "Catalan constant", complex(catalan())),
    ]


def _cmd_constants(args: argparse.Namespace) -> int:
    registry = [{"id": e.id, "family": e.family.value, "z": e.z, "m": e.m,
                 "value": e.value(), "expression": e.expression()}
                for e in REGISTRY.values()]
    header = tuple(registry[0])
    rows = [(d["id"], d["family"], f"{d['z']:g}", str(d["m"]), _fmt(d["value"]),
             d["expression"]) for d in registry]
    specials = _special_values()
    doc = {
        "registry": registry,
        "special_values": [
            {"name": name, "expression": expr, "real": val.real, "imag": val.imag}
            for name, expr, val in specials
        ],
    }
    table = [*columns(header, rows), "", "special values"]
    for name, expr, val in specials:
        shown = _fmt(val.real) if val.imag == 0 else \
            f"{_fmt(val.real)} {'+' if val.imag >= 0 else '-'} {_fmt(abs(val.imag))} i"
        table.append(f"  {name.ljust(9)}  = {expr.ljust(20)}  = {shown}")
    _emit(args, doc, header, rows, "\n".join(table) + "\n")
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "integral": _cmd_integral,
    "constants": _cmd_constants,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_negative_numbers(argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        _normalize(args)
        return _DISPATCH[args.subcommand](args)
    except (TrisumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
