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
from .lie import format_vector
from .norden import AlmostNordenAlgebra, check_eq22

# Each subcommand imports the stages it runs, so a call compiles only
# those modules: ``check`` and ``classify`` never load curvature or report.

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
    from .poly import _shown
    from .specfile import RATIONAL

    values: dict[str, Fraction] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, raw = piece.partition("=")
        name, raw = name.strip(), raw.strip()
        if not eq or not name or not raw:
            raise _CliError(f"--eval entries must look like name=value, "
                            f"got {_shown(piece)}")
        if name not in params:
            known = _shown(", ".join(params), str) or "none"
            raise _CliError(f"--eval names unknown parameter {_shown(name)} "
                            f"(parameters: {known})")
        if name in values:
            raise _CliError(f"--eval assigns {_shown(name)} twice")
        if not RATIONAL.match(raw):
            raise _CliError(f"--eval value for {_shown(name)} is not a "
                            f"rational number p or p/q: {_shown(raw)}")
        try:
            values[name] = Fraction(raw)
        except ValueError:  # more digits than Python converts
            raise _CliError(f"--eval value for {_shown(name)} has {len(raw)} "
                            f"characters, too long to read") from None
    missing = [p for p in params if p not in values]
    if missing:
        raise _CliError("--eval must assign every parameter; missing: "
                        + _shown(", ".join(missing), str))
    return values


def _resolve(args) -> AlmostNordenAlgebra:
    if (args.spec is None) == (args.family is None):
        raise _CliError("provide exactly one input: a spec file path or "
                        "--family table1")
    if args.family is not None:
        from .family import build_table1
        a = build_table1().algebra
    else:
        from .specfile import parse_spec
        a = parse_spec(args.spec)
    assignment = getattr(args, "assignment", None)
    if assignment is not None:
        a = a.evaluate(_parse_assignment(assignment, a.params))
    return a


def _verdict(name: str, result, describe) -> bool:
    """Print ``name: ok``, or ``name: FAIL`` and the first violations,
    each rendered by ``describe``; True on failure."""
    print(f"{name}: {'ok' if result.ok else 'FAIL'}")
    for v in result.violations[:_MAX_SHOWN_VIOLATIONS]:
        print(f"    {describe(*v)}")
    if len(result.violations) > _MAX_SHOWN_VIOLATIONS:
        print(f"    ... and {len(result.violations) - _MAX_SHOWN_VIOLATIONS}"
              " more")
    return not result.ok


def _eq22_line(kind: str, *rest) -> str:
    if kind == "orthogonality":
        i, j, k, l, residual = rest
        return f"g([X{i},X{j}],[X{k},X{l}]) = {residual}"
    i, residual = rest
    return f"g([X{i},JX{i}],[X{i},JX{i}]) = {residual}"


def cmd_check(args) -> int:
    a = _resolve(args)
    failed = _verdict("jacobi", a.algebra.check_jacobi(), lambda i, j, k, v:
                      f"jacobiator({i},{j},{k}) = {format_vector(v)}")
    # The Norden pairing is enforced whenever an algebra is constructed,
    # so reaching this point means it holds.
    print("norden: ok")
    failed |= _verdict("invariant-metric", a.check_invariant_metric(),
                       lambda i, j, k, r:
                       f"g([X{i},X{j}],X{k}) + g([X{i},X{k}],X{j}) = {r}")
    failed |= _verdict("eq22", check_eq22(a), _eq22_line)
    return 1 if failed else 0


def cmd_classify(args) -> int:
    a = _resolve(args)
    F = a.tensor_F()  # Geometry's wiring of F, theta and flags, sans report
    theta = a.lie_form(F)
    flags = a.classify(F, theta)
    print(flags.label())
    print("  ".join(f"{name}={'true' if value else 'false'}"
                    for name, value in flags.as_dict().items()))
    print(f"lie form theta: {format_vector(theta)}")
    return 0


def cmd_curvature(args) -> int:
    from .curvature import _representatives
    from .report import Geometry, _curvature_lines, _rows_text

    geo = Geometry(_resolve(args))

    print("curvature components (representatives with i<j, k<l, "
          "(i,j) <= (k,l)):")
    shown = [f"  R({i + 1},{j + 1},{k + 1},{l + 1}) = {value}"
             for (i, j, k, l), value in _representatives(geo.R)]
    print("\n".join(shown or ["  (all components vanish)"]))

    rho, tau = geo.ricci_and_tau
    print("\n".join(_curvature_lines(_rows_text(rho), tau, geo.sectional)))
    return 0


def cmd_report(args) -> int:
    from .report import document_for

    doc = document_for(_resolve(args))
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
    from .family import build_table1, regression_report

    family = build_table1()
    if args.emit_spec:
        from .specfile import emit_spec
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
    except (_CliError, NordenLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
