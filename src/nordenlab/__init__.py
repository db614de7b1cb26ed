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

from .curvature import (
    ConnectionCoeffs,
    PlaneSpec,
    coordinate_plane,
    curvature_R,
    curvature_invariant_formula,
    is_locally_symmetric,
    levi_civita,
    nabla_R,
    plane_discriminant,
    plane_type,
    ricci_and_scalar,
    sectional_curvature,
    square_norm_nabla_J,
)
from .errors import (
    DegenerateFormError,
    DegeneratePlaneError,
    DimensionMismatchError,
    NonSymmetricMatrixError,
    NordenLabError,
    ParameterMismatchError,
    PolyParseError,
    SingularMatrixError,
    SpecFileError,
    StructureError,
)
from .family import (
    RegressionCheck,
    RegressionReport,
    Table1Family,
    build_table1,
    check_eq22,
    regression_report,
)
from .lie import (
    CheckResult,
    LieAlgebra,
    Vector,
    format_vector,
    vec_add,
    vec_is_zero,
    vec_sub,
    zero_vector,
)
from .linalg import PolyMatrix, RationalMatrix, rational_rank, signature
from .norden import (
    AlmostNordenAlgebra,
    ClassFlags,
    Covector,
    Tensor,
    check_norden,
    default_J,
    default_metric,
)
from .poly import Poly, as_fraction, as_poly, format_poly, parse_poly
from .report import Geometry, GeometryReport, ReportDocument, compute_report, document_for
from .specfile import AlgebraSpecFile, emit_spec, parse_spec, parse_spec_text

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpecFile",
    "AlmostNordenAlgebra",
    "CheckResult",
    "ClassFlags",
    "ConnectionCoeffs",
    "Covector",
    "DegenerateFormError",
    "DegeneratePlaneError",
    "DimensionMismatchError",
    "Geometry",
    "GeometryReport",
    "LieAlgebra",
    "NonSymmetricMatrixError",
    "NordenLabError",
    "ParameterMismatchError",
    "PlaneSpec",
    "Poly",
    "PolyMatrix",
    "PolyParseError",
    "RationalMatrix",
    "RegressionCheck",
    "RegressionReport",
    "ReportDocument",
    "SingularMatrixError",
    "SpecFileError",
    "StructureError",
    "Table1Family",
    "Tensor",
    "Vector",
    "as_fraction",
    "as_poly",
    "build_table1",
    "check_eq22",
    "check_norden",
    "compute_report",
    "coordinate_plane",
    "curvature_R",
    "curvature_invariant_formula",
    "default_J",
    "default_metric",
    "document_for",
    "emit_spec",
    "format_poly",
    "format_vector",
    "is_locally_symmetric",
    "levi_civita",
    "nabla_R",
    "parse_poly",
    "parse_spec",
    "parse_spec_text",
    "plane_discriminant",
    "plane_type",
    "rational_rank",
    "regression_report",
    "ricci_and_scalar",
    "sectional_curvature",
    "signature",
    "square_norm_nabla_J",
    "vec_add",
    "vec_is_zero",
    "vec_sub",
    "zero_vector",
]
