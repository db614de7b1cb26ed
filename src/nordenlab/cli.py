"""Command-line interface.

Subcommands:

* ``check``      — structural identity checks (Jacobi, Norden pairing,
                   metric invariance, commutator orthogonality/isotropy)
* ``classify``   — basic-class membership and the Lie form
* ``curvature``  — curvature components, Ricci, scalar, sectional table
* ``report``     — the full geometry report (text, CSV, or JSON)
* ``family``     — built-in family: identity regression or spec export

Input is either a spec-file path or ``--family table1``.  ``--eval``
substitutes rational values for all parameters before computing.

Exit codes: 0 success / all checks pass, 1 at least one check failed,
2 usage or input errors.  All output is byte-deterministic.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import NordenLabError
from .family import Table1Family, build_table1, check_eq22, regression_report
from .lie import format_vector
from .norden import AlmostNordenAlgebra
from .report import Geometry, document_for
from .specfile import RATIONAL, emit_spec, parse_spec

_MAX_SHOWN_VIOLATIONS = 5


class _CliError(Exception):
    """Input/usage failure destined for exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nordenlab",
        description="Exact geometry of Lie algebras with almost complex "
                    "structure and Norden metric.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p: argparse.ArgumentParser):
        p.add_argument("spec", nargs="?", metavar="SPEC",
                       help="path to an algebra spec file")
        p.add_argument("--family", choices=["table1"],
                       help="use a built-in family instead of a spec file")
        p.add_argument("--eval", dest="assignment", metavar="NAME=VALUE,...",
                       help="substitute rational parameter values "
                            "(all parameters required)")

    p = sub.add_parser("check",
                       help="verify the structural identities")
    add_input_options(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify",
                       help="basic-class membership and Lie form")
    add_input_options(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("curvature",
                       help="curvature components, Ricci, scalar, "
                            "sectional curvatures")
    add_input_options(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("report", help="full geometry report")
    add_input_options(p)
    p.add_argument("--format", choices=["text", "csv", "json"],
                   default="text")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("family", help="work with built-in families")
    p.add_argument("--table1", action="store_true",
                   help="select the 3-parameter 6-dimensional family")
    p.add_argument("--emit-spec", action="store_true",
                   help="print the canonical spec file instead of "
                        "running the identity regression")
    p.set_defaults(func=cmd_family)

    return parser


def _parse_assignment(text: str,
                      params: tuple[str, ...]) -> dict[str, Fraction]:
    values: dict[str, Fraction] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, raw = piece.partition("=")
        name = name.strip()
        raw = raw.strip()
        if not eq or not name or not raw:
            raise _CliError(f"--eval entries must look like name=value, "
                            f"got {piece!r}")
        if name not in params:
            raise _CliError(f"--eval names unknown parameter {name!r} "
                            f"(parameters: {', '.join(params) or 'none'})")
        if name in values:
            raise _CliError(f"--eval assigns {name!r} twice")
        if not RATIONAL.match(raw):
            raise _CliError(f"--eval value for {name!r} is not a "
                            f"rational number p or p/q: {raw!r}")
        values[name] = Fraction(raw)
    missing = [p for p in params if p not in values]
    if missing:
        raise _CliError("--eval must assign every parameter; missing: "
                        + ", ".join(missing))
    return values


def _resolve(args) -> AlmostNordenAlgebra | Table1Family:
    if (args.spec is None) == (args.family is None):
        raise _CliError("provide exactly one input: a spec file path or "
                        "--family table1")
    if args.family is not None:
        source: AlmostNordenAlgebra | Table1Family = build_table1()
    else:
        source = parse_spec(args.spec)
    assignment = getattr(args, "assignment", None)
    if assignment is not None:
        values = _parse_assignment(assignment, tuple(source.params))
        source = source.evaluate(values)
    return source


def _algebra_of(source: AlmostNordenAlgebra | Table1Family
                ) -> AlmostNordenAlgebra:
    return source.algebra if isinstance(source, Table1Family) else source


def _print_violations(lines: list[str]):
    for line in lines[:_MAX_SHOWN_VIOLATIONS]:
        print(f"    {line}")
    if len(lines) > _MAX_SHOWN_VIOLATIONS:
        print(f"    ... and {len(lines) - _MAX_SHOWN_VIOLATIONS} more")


def cmd_check(args) -> int:
    a = _algebra_of(_resolve(args))
    failed = False

    jacobi = a.algebra.check_jacobi()
    if jacobi.ok:
        print("jacobi: ok")
    else:
        failed = True
        print("jacobi: FAIL")
        _print_violations([
            f"jacobiator({i},{j},{k}) = {format_vector(vec)}"
            for i, j, k, vec in jacobi.violations])

    # The Norden pairing is enforced whenever an algebra is constructed,
    # so reaching this point means it holds.
    print("norden: ok")

    invariant = a.check_invariant_metric()
    if invariant.ok:
        print("invariant-metric: ok")
    else:
        failed = True
        print("invariant-metric: FAIL")
        _print_violations([
            f"g([X{i},X{j}],X{k}) + g([X{i},X{k}],X{j}) = {residual}"
            for i, j, k, residual in invariant.violations])

    isotropy = check_eq22(a)
    if isotropy.ok:
        print("eq22: ok")
    else:
        failed = True
        print("eq22: FAIL")
        lines = []
        for violation in isotropy.violations:
            if violation[0] == "orthogonality":
                _, i, j, k, l, residual = violation
                lines.append(f"g([X{i},X{j}],[X{k},X{l}]) = {residual}")
            else:
                _, i, residual = violation
                lines.append(f"g([X{i},JX{i}],[X{i},JX{i}]) = {residual}")
        _print_violations(lines)

    return 1 if failed else 0


def cmd_classify(args) -> int:
    geo = Geometry(_algebra_of(_resolve(args)))
    print(geo.flags.label())
    print("  ".join(f"{name}={'true' if value else 'false'}"
                    for name, value in geo.flags.as_dict().items()))
    print(f"lie form theta: {format_vector(geo.theta)}")
    return 0


def cmd_curvature(args) -> int:
    geo = Geometry(_algebra_of(_resolve(args)))
    dim = geo.algebra.dim

    print("curvature components (representatives with i<j, k<l, "
          "(i,j) <= (k,l)):")
    shown = 0
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(1, dim + 1):
                for l in range(k + 1, dim + 1):
                    if (k, l) < (i, j):
                        continue
                    value = geo.R.component(i, j, k, l)
                    if value.terms:
                        print(f"  R({i},{j},{k},{l}) = {value}")
                        shown += 1
    if not shown:
        print("  (all components vanish)")

    rho, tau = geo.ricci_and_tau
    print("ricci:")
    for row in rho.grid:
        print("  " + "  ".join(str(v) for v in row))
    print(f"tau: {tau}")

    print("sectional curvatures:")
    for pid, ptype, value in geo.sectional:
        shown_value = ("undefined (degenerate plane)" if value is None
                       else value)
        print(f"  {pid}  {ptype}  {shown_value}")
    return 0


def cmd_report(args) -> int:
    source = _resolve(args)
    doc = document_for(_algebra_of(source))
    if args.format == "json":
        sys.stdout.write(doc.to_json())
    elif args.format == "csv":
        sys.stdout.write(doc.to_csv())
    else:
        sys.stdout.write(doc.to_text())
    return 0


def cmd_family(args) -> int:
    if not args.table1:
        raise _CliError("select a family: --table1")
    family = build_table1()
    if args.emit_spec:
        sys.stdout.write(emit_spec(family.algebra))
        return 0
    rep = regression_report(family)
    for line in rep.summary_lines():
        print(line)
    if not rep.ok:
        for check in rep.failures()[:_MAX_SHOWN_VIOLATIONS]:
            print(f"  {check.group}/{check.item}: expected "
                  f"{check.expected}, computed {check.computed}")
        return 1
    print("all identities verified")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage/help itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NordenLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
