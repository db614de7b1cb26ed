"""The built-in 3-parameter family on a 6-dimensional Lie algebra.

`build_table1` constructs the family: fifteen bracket rows in three
parameters (default names l1, l2, l3), the standard J and the neutral
diagonal metric.  Construction validates rather than trusts the data —
Jacobi, the Norden pairing, metric invariance, and the orthogonality /
isotropy conditions on commutators are all checked exactly, and any
failure raises.

`regression_report` then re-derives every published identity of the
family from scratch — fundamental-tensor components, curvature
components, Ricci, scalar and sectional curvatures, the vanishing norm
of grad J, local symmetry, and the Killing form — and compares each
against expected values stored here as data.  Expected tensors are
closed under the exact symmetries of F and R before comparison, so the
tables also certify that everything *not* listed is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Mapping

from .curvature import curvature_invariant_formula
from .errors import StructureError
from .lie import CheckResult, LieAlgebra
from .linalg import PolyMatrix
from .norden import AlmostNordenAlgebra
from .poly import Poly, RationalLike
from .report import Geometry

PARAM_NAMES = ("l1", "l2", "l3")

# Bracket rows (i < j) as {target: (parameter number, sign)}.
_BRACKET_ROWS: dict[tuple[int, int], dict[int, tuple[int, int]]] = {
    (1, 2): {4: (2, +1), 5: (3, +1)},
    (1, 3): {4: (1, -1), 6: (3, -1)},
    (1, 4): {2: (2, +1), 3: (1, -1), 5: (2, +1), 6: (1, -1)},
    (1, 5): {2: (3, +1), 4: (2, -1)},
    (1, 6): {3: (3, -1), 4: (1, +1)},
    (2, 3): {5: (1, +1), 6: (2, +1)},
    (2, 4): {1: (2, -1), 5: (3, +1)},
    (2, 5): {1: (3, -1), 3: (1, +1), 4: (3, -1), 6: (1, +1)},
    (2, 6): {3: (2, +1), 5: (1, -1)},
    (3, 4): {1: (1, +1), 6: (3, -1)},
    (3, 5): {2: (1, -1), 6: (2, +1)},
    (3, 6): {1: (3, +1), 2: (2, -1), 4: (3, +1), 5: (2, -1)},
    (4, 5): {1: (2, -1), 2: (3, -1)},
    (4, 6): {1: (1, +1), 3: (3, +1)},
    (5, 6): {2: (1, -1), 3: (2, -1)},
}

# Signed multiples of F components equal to each parameter:
# (multiplier, i, j, k) meaning  multiplier * F_ijk = parameter.
_F_ITEMS: dict[int, tuple[tuple[int, int, int, int], ...]] = {
    1: (
        (2, 1, 1, 6), (2, 1, 6, 1), (-2, 1, 3, 4), (-2, 1, 4, 3),
        (2, 2, 2, 3), (2, 2, 3, 2), (2, 2, 5, 6), (2, 2, 6, 5),
        (-1, 3, 2, 2), (-1, 3, 5, 5), (2, 4, 1, 3), (2, 4, 3, 1),
        (2, 4, 4, 6), (2, 4, 6, 4), (-2, 5, 2, 6), (-2, 5, 6, 2),
        (2, 5, 3, 5), (2, 5, 5, 3), (-1, 6, 1, 1), (-1, 6, 4, 4),
        (-2, 1, 1, 3), (-2, 1, 3, 1), (-2, 1, 4, 6), (-2, 1, 6, 4),
        (-2, 2, 2, 6), (-2, 2, 6, 2), (2, 2, 3, 5), (2, 2, 5, 3),
        (1, 3, 1, 1), (1, 3, 4, 4), (2, 4, 1, 6), (2, 4, 6, 1),
        (-2, 4, 3, 4), (-2, 4, 4, 3), (-2, 5, 2, 3), (-2, 5, 3, 2),
        (-2, 5, 5, 6), (-2, 5, 6, 5), (1, 6, 2, 2), (1, 6, 5, 5),
    ),
    2: (
        (-2, 1, 1, 5), (-2, 1, 5, 1), (2, 1, 2, 4), (2, 1, 4, 2),
        (1, 2, 3, 3), (1, 2, 6, 6), (-2, 3, 2, 3), (-2, 3, 3, 2),
        (-2, 3, 5, 6), (-2, 3, 6, 5), (-2, 4, 1, 2), (-2, 4, 2, 1),
        (-2, 4, 4, 5), (-2, 4, 5, 4), (1, 5, 1, 1), (1, 5, 4, 4),
        (-2, 6, 2, 6), (-2, 6, 6, 2), (2, 6, 3, 5), (2, 6, 5, 3),
        (2, 1, 1, 2), (2, 1, 2, 1), (2, 1, 4, 5), (2, 1, 5, 4),
        (-1, 2, 1, 1), (-1, 2, 4, 4), (-2, 3, 2, 6), (-2, 3, 6, 2),
        (2, 3, 3, 5), (2, 3, 5, 3), (-2, 4, 1, 5), (-2, 4, 5, 1),
        (2, 4, 2, 4), (2, 4, 4, 2), (-1, 5, 3, 3), (-1, 5, 6, 6),
        (2, 6, 2, 3), (2, 6, 3, 2), (2, 6, 5, 6), (2, 6, 6, 5),
    ),
    3: (
        (-1, 1, 3, 3), (-1, 1, 6, 6), (-2, 2, 1, 5), (-2, 2, 5, 1),
        (2, 2, 2, 4), (2, 2, 4, 2), (2, 3, 1, 3), (2, 3, 3, 1),
        (2, 3, 4, 6), (2, 3, 6, 4), (-1, 4, 2, 2), (-1, 4, 5, 5),
        (2, 5, 1, 2), (2, 5, 2, 1), (2, 5, 4, 5), (2, 5, 5, 4),
        (2, 6, 1, 6), (2, 6, 6, 1), (-2, 6, 3, 4), (-2, 6, 4, 3),
        (1, 1, 2, 2), (1, 1, 5, 5), (-2, 2, 1, 2), (-2, 2, 2, 1),
        (-2, 2, 4, 5), (-2, 2, 5, 4), (2, 3, 1, 6), (2, 3, 6, 1),
        (-2, 3, 3, 4), (-2, 3, 4, 3), (1, 4, 3, 3), (1, 4, 6, 6),
        (-2, 5, 1, 5), (-2, 5, 5, 1), (2, 5, 2, 4), (2, 5, 4, 2),
        (-2, 6, 1, 3), (-2, 6, 3, 1), (-2, 6, 4, 6), (-2, 6, 6, 4),
    ),
}

# Curvature components: (sign, i, j, k, l, kind, args) meaning
# R_ijkl = sign * expr(kind, args), with expressions
#   pp (a, b): (la^2 + lb^2)/4      pm (a, b): (la^2 - lb^2)/4
#   sq (a,):   la^2/4               prod (a, b): la*lb/4
_R_ITEMS: tuple[tuple, ...] = (
    (-1, 1, 2, 2, 1, "pp", (2, 3)), (+1, 4, 5, 5, 4, "pp", (2, 3)),
    (-1, 1, 5, 5, 1, "pm", (2, 3)), (+1, 2, 4, 4, 2, "pm", (2, 3)),
    (-1, 1, 3, 3, 1, "pp", (1, 3)), (+1, 4, 6, 6, 4, "pp", (1, 3)),
    (-1, 1, 6, 6, 1, "pm", (1, 3)), (+1, 3, 4, 4, 3, "pm", (1, 3)),
    (-1, 2, 3, 3, 2, "pp", (1, 2)), (+1, 5, 6, 6, 5, "pp", (1, 2)),
    (-1, 2, 6, 6, 2, "pm", (1, 2)), (+1, 3, 5, 5, 3, "pm", (1, 2)),
    (+1, 1, 3, 6, 1, "sq", (1,)), (+1, 2, 3, 6, 2, "sq", (1,)),
    (-1, 4, 3, 6, 4, "sq", (1,)), (-1, 5, 3, 6, 5, "sq", (1,)),
    (+1, 1, 2, 5, 1, "sq", (2,)), (+1, 3, 2, 5, 3, "sq", (2,)),
    (-1, 4, 2, 5, 4, "sq", (2,)), (-1, 6, 2, 5, 6, "sq", (2,)),
    (+1, 2, 1, 4, 2, "sq", (3,)), (+1, 3, 1, 4, 3, "sq", (3,)),
    (-1, 5, 1, 4, 5, "sq", (3,)), (-1, 6, 1, 4, 6, "sq", (3,)),
    (+1, 1, 5, 6, 1, "prod", (1, 2)), (+1, 2, 5, 6, 2, "prod", (1, 2)),
    (+1, 3, 5, 6, 3, "prod", (1, 2)), (-1, 4, 5, 6, 4, "prod", (1, 2)),
    (-1, 1, 2, 6, 1, "prod", (1, 2)), (-1, 3, 2, 6, 3, "prod", (1, 2)),
    (+1, 4, 2, 6, 4, "prod", (1, 2)), (+1, 5, 2, 6, 5, "prod", (1, 2)),
    (-1, 1, 3, 5, 1, "prod", (1, 2)), (-1, 2, 3, 5, 2, "prod", (1, 2)),
    (+1, 4, 3, 5, 4, "prod", (1, 2)), (+1, 6, 3, 5, 6, "prod", (1, 2)),
    (+1, 1, 2, 3, 1, "prod", (1, 2)), (-1, 4, 2, 3, 4, "prod", (1, 2)),
    (-1, 5, 2, 3, 5, "prod", (1, 2)), (-1, 6, 2, 3, 6, "prod", (1, 2)),
    (-1, 1, 3, 4, 1, "prod", (1, 3)), (-1, 2, 3, 4, 2, "prod", (1, 3)),
    (+1, 5, 3, 4, 5, "prod", (1, 3)), (+1, 6, 3, 4, 6, "prod", (1, 3)),
    (+1, 2, 1, 3, 2, "prod", (1, 3)), (-1, 4, 1, 3, 4, "prod", (1, 3)),
    (-1, 5, 1, 3, 5, "prod", (1, 3)), (-1, 6, 1, 3, 6, "prod", (1, 3)),
    (+1, 1, 4, 6, 1, "prod", (1, 3)), (+1, 2, 4, 6, 2, "prod", (1, 3)),
    (+1, 3, 4, 6, 3, "prod", (1, 3)), (-1, 5, 4, 6, 5, "prod", (1, 3)),
    (-1, 2, 1, 6, 2, "prod", (1, 3)), (-1, 3, 1, 6, 3, "prod", (1, 3)),
    (+1, 4, 1, 6, 4, "prod", (1, 3)), (+1, 5, 1, 6, 5, "prod", (1, 3)),
    (+1, 3, 1, 2, 3, "prod", (2, 3)), (-1, 4, 1, 2, 4, "prod", (2, 3)),
    (-1, 5, 1, 2, 5, "prod", (2, 3)), (-1, 6, 1, 2, 6, "prod", (2, 3)),
    (-1, 1, 2, 4, 1, "prod", (2, 3)), (-1, 3, 2, 4, 3, "prod", (2, 3)),
    (+1, 5, 2, 4, 5, "prod", (2, 3)), (+1, 6, 2, 4, 6, "prod", (2, 3)),
    (-1, 2, 1, 5, 2, "prod", (2, 3)), (-1, 3, 1, 5, 3, "prod", (2, 3)),
    (+1, 4, 1, 5, 4, "prod", (2, 3)), (+1, 6, 1, 5, 6, "prod", (2, 3)),
    (+1, 1, 4, 5, 1, "prod", (2, 3)), (+1, 2, 4, 5, 2, "prod", (2, 3)),
    (+1, 3, 4, 5, 3, "prod", (2, 3)), (-1, 6, 4, 5, 6, "prod", (2, 3)),
)

# Sectional curvatures of the coordinate planes: (i, j, type, sign, kind,
# args) with the same expression vocabulary as _R_ITEMS.
_SECTIONAL_ITEMS: tuple[tuple, ...] = (
    (1, 4, "holomorphic", +1, "zero", ()),
    (2, 5, "holomorphic", +1, "zero", ()),
    (3, 6, "holomorphic", +1, "zero", ()),
    (1, 2, "totally_real", -1, "pp", (2, 3)),
    (4, 5, "totally_real", +1, "pp", (2, 3)),
    (1, 5, "totally_real", +1, "pm", (2, 3)),
    (2, 4, "totally_real", -1, "pm", (2, 3)),
    (1, 3, "totally_real", -1, "pp", (1, 3)),
    (4, 6, "totally_real", +1, "pp", (1, 3)),
    (1, 6, "totally_real", +1, "pm", (1, 3)),
    (3, 4, "totally_real", -1, "pm", (1, 3)),
    (2, 3, "totally_real", -1, "pp", (1, 2)),
    (5, 6, "totally_real", +1, "pp", (1, 2)),
    (2, 6, "totally_real", +1, "pm", (1, 2)),
    (3, 5, "totally_real", -1, "pm", (1, 2)),
)


def _expr(params: tuple[str, ...], kind: str, args: tuple[int, ...]) -> Poly:
    var = [Poly.variable(name, params) for name in params]
    if kind == "zero":
        return Poly.zero(params)
    if kind == "pp":
        a, b = args
        return (var[a - 1] * var[a - 1] + var[b - 1] * var[b - 1]) / 4
    if kind == "pm":
        a, b = args
        return (var[a - 1] * var[a - 1] - var[b - 1] * var[b - 1]) / 4
    if kind == "sq":
        (a,) = args
        return (var[a - 1] * var[a - 1]) / 4
    if kind == "prod":
        a, b = args
        return (var[a - 1] * var[b - 1]) / 4
    raise ValueError(f"unknown expression kind {kind!r}")


def _l_matrix(params: tuple[str, ...]) -> PolyMatrix:
    """The 3x3 symmetric building block of the Killing form and Ricci."""
    l1, l2, l3 = (Poly.variable(name, params) for name in params)
    return PolyMatrix(params, [
        [l3 * l3, -(l2 * l3), -(l1 * l3)],
        [-(l2 * l3), l2 * l2, -(l1 * l2)],
        [-(l1 * l3), -(l1 * l2), l1 * l1],
    ])


def _block2x2(a: PolyMatrix, b: PolyMatrix, c: PolyMatrix,
              d: PolyMatrix) -> PolyMatrix:
    rows = []
    for r1, r2 in zip(a.grid, b.grid):
        rows.append(list(r1) + list(r2))
    for r1, r2 in zip(c.grid, d.grid):
        rows.append(list(r1) + list(r2))
    return PolyMatrix(a.params, rows)


def expected_killing_form(params: tuple[str, ...] = PARAM_NAMES) -> PolyMatrix:
    """4 * [[L, -L], [-L, L]] with the standard L block."""
    L = _l_matrix(params)
    return _block2x2(L, -L, -L, L).scale(4)


def expected_ricci(params: tuple[str, ...] = PARAM_NAMES) -> PolyMatrix:
    """[[-L, L], [L, -L]]: the published component table in block form."""
    L = _l_matrix(params)
    return _block2x2(-L, L, L, -L)


def expected_F_components(params: tuple[str, ...] = PARAM_NAMES
                          ) -> dict[tuple[int, int, int], Poly]:
    """The published F equalities, closed under the F symmetries.

    Closure uses F(x,y,z) = F(x,z,y) and F(x,Jy,Jz) = F(x,y,z); any
    component outside the closure is expected to vanish.  An internal
    inconsistency in the stored data would raise, so the closure also
    acts as a sanity check on the tables.
    """
    var = [Poly.variable(name, params) for name in params]
    expected: dict[tuple[int, int, int], Poly] = {}

    def put(key: tuple[int, int, int], value: Poly):
        if key in expected:
            if expected[key] != value:
                raise StructureError(
                    f"inconsistent expected F data at {key}: "
                    f"{expected[key]} vs {value}")
        else:
            expected[key] = value

    for p, items in _F_ITEMS.items():
        for mult, i, j, k in items:
            put((i, j, k), var[p - 1] / mult)

    def j_image(idx: int) -> tuple[int, int]:
        return (idx + 3, +1) if idx <= 3 else (idx - 3, -1)

    frontier = list(expected.items())
    while frontier:
        (i, j, k), value = frontier.pop()
        moves = []
        moves.append(((i, k, j), value))
        ja, sa = j_image(j)
        jb, sb = j_image(k)
        moves.append(((i, ja, jb), value * (sa * sb)))
        for key, val in moves:
            if key not in expected:
                expected[key] = val
                frontier.append((key, val))
            elif expected[key] != val:
                raise StructureError(
                    f"inconsistent expected F data at {key}: "
                    f"{expected[key]} vs {val}")
    return expected


def expected_R_components(params: tuple[str, ...] = PARAM_NAMES
                          ) -> dict[tuple[int, int, int, int], Poly]:
    """The published curvature equalities, closed under the R symmetries
    (antisymmetry in each index pair and pair exchange)."""
    expected: dict[tuple[int, int, int, int], Poly] = {}
    for sign, i, j, k, l, kind, args in _R_ITEMS:
        key = (i, j, k, l)
        value = _expr(params, kind, args) * sign
        if key in expected and expected[key] != value:
            raise StructureError(
                f"inconsistent expected R data at {key}")
        expected[key] = value
    frontier = list(expected.items())
    while frontier:
        (i, j, k, l), value = frontier.pop()
        moves = (((j, i, k, l), -value), ((i, j, l, k), -value),
                 ((k, l, i, j), value))
        for key, val in moves:
            if key not in expected:
                expected[key] = val
                frontier.append((key, val))
            elif expected[key] != val:
                raise StructureError(
                    f"inconsistent expected R data at {key}: "
                    f"{expected[key]} vs {val}")
    return expected


@dataclass(frozen=True)
class Table1Family:
    """The validated 6-dimensional family and its parameter names."""

    params: tuple[str, str, str]
    algebra: AlmostNordenAlgebra

    def evaluate(self, assignment: Mapping[str, RationalLike]
                 ) -> AlmostNordenAlgebra:
        """Numeric member of the family at the given parameter values."""
        return self.algebra.evaluate(assignment)


def build_table1(params: tuple[str, str, str] = PARAM_NAMES) -> Table1Family:
    """Construct and fully validate the 3-parameter family.

    Raises :class:`StructureError` if any stored bracket row fails
    Jacobi, the invariant-metric condition, or the commutator
    orthogonality/isotropy conditions — a transcription defect in the
    data tables, were it ever to happen, cannot slip through silently.
    """
    if len(params) != 3:
        raise ValueError(f"exactly three parameter names required, "
                         f"got {params!r}")
    var = {p: Poly.variable(name, params)
           for p, name in enumerate(params, start=1)}
    brackets = {
        pair: {k: var[p] * sign for k, (p, sign) in row.items()}
        for pair, row in _BRACKET_ROWS.items()
    }
    lie = LieAlgebra.from_brackets(6, params, brackets)
    algebra = AlmostNordenAlgebra(lie)  # Norden pairing checked here
    family = Table1Family(tuple(params), algebra)

    jacobi = lie.check_jacobi()
    if not jacobi.ok:
        i, j, k, _ = jacobi.violations[0]
        raise StructureError(
            f"family data violates the Jacobi identity at ({i},{j},{k})")
    invariant = algebra.check_invariant_metric()
    if not invariant.ok:
        i, j, k, residual = invariant.violations[0]
        raise StructureError(
            f"family metric is not invariant: residual {residual} at "
            f"({i},{j},{k})")
    isotropy = check_eq22(family)
    if not isotropy.ok:
        raise StructureError(
            f"family commutators violate orthogonality/isotropy: "
            f"{isotropy.violations[0]}")
    return family


def check_eq22(f: Table1Family | AlmostNordenAlgebra) -> CheckResult:
    """Commutator orthogonality and isotropy conditions.

    ok iff g([X_i,X_j], [X_k,X_l]) = 0 for every quadruple of pairwise
    distinct indices, and g([X_i, JX_i], [X_i, JX_i]) = 0 for every i —
    each commutator of a basis vector with its J-image is an isotropic
    vector.  Accepts the family wrapper or any almost Norden algebra.
    """
    a = f.algebra if isinstance(f, Table1Family) else f
    alg = a.algebra
    dim = a.dim
    violations = []
    for i, j, k, l in permutations(range(1, dim + 1), 4):
        residual = a.metric(alg.bracket_basis(i, j), alg.bracket_basis(k, l))
        if residual.terms:
            violations.append(("orthogonality", i, j, k, l, residual))
    for i in range(1, dim + 1):
        v = alg.bracket(alg.basis_vector(i), a.j_basis(i))
        residual = a.metric(v, v)
        if residual.terms:
            violations.append(("isotropy", i, residual))
    return CheckResult(not violations, tuple(violations))


@dataclass(frozen=True)
class RegressionCheck:
    """A single expected-vs-computed comparison."""

    group: str
    item: str
    expected: str
    computed: str
    passed: bool


@dataclass(frozen=True)
class RegressionReport:
    checks: tuple[RegressionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[RegressionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def groups(self) -> list[str]:
        seen = []
        for c in self.checks:
            if c.group not in seen:
                seen.append(c.group)
        return seen

    def summary_lines(self) -> list[str]:
        lines = []
        for group in self.groups():
            members = [c for c in self.checks if c.group == group]
            failed = [c for c in members if not c.passed]
            if failed:
                lines.append(f"{group}: FAIL ({len(failed)} of "
                             f"{len(members)} checks)")
            else:
                lines.append(f"{group}: ok ({len(members)} checks)")
        return lines


def regression_report(f: Table1Family) -> RegressionReport:
    """Recompute every published identity of the family and compare.

    Groups: structure, classification, f-components, curvature,
    curvature-routes, ricci, tau, sectional, nabla-j-norm, nabla-r,
    killing-form.  Every comparison is exact polynomial equality.
    """
    a = f.algebra
    alg = a.algebra
    params = f.params
    checks: list[RegressionCheck] = []

    def add(group: str, item: str, expected, computed):
        checks.append(RegressionCheck(group, item, str(expected),
                                      str(computed), expected == computed))

    # structure
    add("structure", "jacobi", True, alg.check_jacobi().ok)
    add("structure", "norden", True, True)  # enforced at construction
    add("structure", "invariant-metric", True,
        a.check_invariant_metric().ok)
    add("structure", "eq22", True, check_eq22(f).ok)

    # classification
    geo = Geometry(a)
    F, flags = geo.F, geo.flags
    add("classification", "w0", False, flags.w0)
    add("classification", "w1", False, flags.w1)
    add("classification", "w2", False, flags.w2)
    add("classification", "w3", True, flags.w3)
    add("classification", "lie-form", True,
        all(t.is_zero for t in geo.theta))

    # f-components
    expected_f = expected_F_components(params)
    for p, items in sorted(_F_ITEMS.items()):
        for mult, i, j, k in items:
            add("f-components", f"{mult}*F({i},{j},{k})",
                Poly.variable(params[p - 1], params),
                F.component(i, j, k) * mult)
    unexpected = [
        (i, j, k)
        for i in range(1, 7) for j in range(1, 7) for k in range(1, 7)
        if (i, j, k) not in expected_f and F.component(i, j, k).terms
    ]
    add("f-components", "unlisted-components-zero", (), tuple(unexpected))

    # curvature
    R = geo.R
    expected_r = expected_R_components(params)
    for sign, i, j, k, l, kind, args in _R_ITEMS:
        add("curvature", f"R({i},{j},{k},{l})",
            _expr(params, kind, args) * sign, R.component(i, j, k, l))
    unexpected = [
        key for key in (
            (i, j, k, l)
            for i in range(1, 7) for j in range(1, 7)
            for k in range(1, 7) for l in range(1, 7))
        if key not in expected_r and R.component(*key).terms
    ]
    add("curvature", "unlisted-components-zero", (), tuple(unexpected))
    add("curvature-routes", "connection-vs-bracket-formula",
        True, R == curvature_invariant_formula(a))

    # ricci and tau
    rho, tau = geo.ricci_and_tau
    exp_rho = expected_ricci(params)
    for i in range(1, 7):
        for j in range(i, 7):
            add("ricci", f"rho({i},{j})", exp_rho.entry(i, j),
                rho.entry(i, j))
    add("tau", "tau", Poly.zero(params), tau)

    # sectional curvatures of the coordinate planes
    computed = {pid: (ptype, value) for pid, ptype, value in geo.sectional}
    for i, j, ptype, sign, kind, args in _SECTIONAL_ITEMS:
        got_type, got_value = computed[f"a{i}{j}"]
        add("sectional", f"type(a{i}{j})", ptype, got_type)
        add("sectional", f"k(a{i}{j})", _expr(params, kind, args) * sign,
            got_value)

    # vanishing norm of grad J
    add("nabla-j-norm", "square-norm", Poly.zero(params), geo.nabla_j_norm)

    # local symmetry
    add("nabla-r", "all-components-zero", True, geo.locally_symmetric)

    # Killing form
    B = geo.killing_form
    exp_B = expected_killing_form(params)
    for i in range(1, 7):
        for j in range(i, 7):
            add("killing-form", f"B({i},{j})", exp_B.entry(i, j),
                B.entry(i, j))
    add("killing-form", "determinant", Poly.zero(params),
        B.determinant())

    return RegressionReport(tuple(checks))
