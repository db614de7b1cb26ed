"""nordenlab: exact geometry of Lie algebras with almost complex
structure and Norden metric.

Everything runs over exact rational arithmetic — structure constants are
polynomials in named parameters, and every identity the package checks
(Jacobi, metric invariance, class membership, curvature properties) is
decided as an exact polynomial statement, never numerically.

Typical use::

    from nordenlab import build_table1, regression_report

    family = build_table1()
    print(regression_report(family).summary_lines())

or from a spec file, reading single stages from one lazy pipeline::

    from nordenlab import Geometry, parse_spec

    geo = Geometry(parse_spec("my_algebra.spec"))
    print(geo.flags.label(), geo.ricci_and_tau[1])
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  The submodules are
# imported on first access (PEP 562), so a CLI call compiles only what its
# subcommand runs.
_EXPORTS = {name: module for module, names in {
    "curvature": "ConnectionCoeffs PlaneSpec coordinate_plane curvature_R "
                 "curvature_invariant_formula is_locally_symmetric "
                 "levi_civita nabla_R plane_type ricci_and_scalar "
                 "sectional_curvature square_norm_nabla_J",
    "errors": "DegeneratePlaneError DimensionMismatchError "
              "NonSymmetricMatrixError NordenLabError ParameterMismatchError "
              "PolyParseError SingularMatrixError SpecFileError StructureError",
    "family": "RegressionCheck RegressionReport Table1Family build_table1 "
              "regression_report",
    "lie": "CheckResult LieAlgebra",
    "linalg": "PolyMatrix RationalMatrix Tensor",
    "norden": "AlmostNordenAlgebra ClassFlags check_eq22 check_norden "
              "default_J default_metric",
    "poly": "Poly format_poly parse_poly",
    "report": "Geometry ReportDocument compute_report document_for",
    "specfile": "AlgebraSpecFile emit_spec parse_spec parse_spec_text",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)

# not in __all__: the benchmark's oracle imports it from the package
_EXPORTS["rational_rank"] = "linalg"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
