"""Seeded inputs for the benchmark workloads.

Every generator draws from a ``random.Random`` seeded with ``--seed``, so
the same seed gives the same inputs.  Sizes never depend on the seed: the
filiform chain is fixed per dimension, every evaluation point assigns every
parameter a nonzero rational from the same range, and the change of basis
always has the same nonzero cells.  Seeds change values, not sizes, so the
amount of work per operation is the same on every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from nordenlab import AlmostNordenAlgebra, LieAlgebra, Poly, emit_spec
from nordenlab.linalg import RationalMatrix

#: Dimensions of the filiform sweep.  Dimension 12 (about 6.5 s per report)
#: would leave too few samples per run for a steady median.
FILIFORM_DIMS = (8, 10)
#: Dimension of the filiform spec fed to the CLI and of the sheared copy.
FILIFORM_SMALL_DIM = 8
#: Off-diagonal cells of P - I (0-based, strictly upper triangular, so P is
#: always invertible).  On table1 they raise the nonzero structure constants
#: from 72 to 116 and the report cost from about 0.8 s to about 2.2 s.
SHEAR_CELLS = ((0, 1), (3, 5))
#: Distinct evaluation points per run, used in turn.
POINTS_PER_RUN = 8
#: Numerators and denominators of generated rationals stay within this.
ENTRY_RANGE = 9


def filiform_spec(dim: int) -> str:
    """Spec text of the filiform chain [X1, Xk] = t*X(k+1), k = 2..dim-1."""
    lines = [f"dimension = {dim}", "parameters = t", "", "[brackets]"]
    lines += [f"1 {k} -> {k + 1}: t" for k in range(2, dim)]
    return "\n".join(lines) + "\n"


def nonzero_rational(rng: random.Random) -> Fraction:
    numerator = rng.choice([n for n in range(-ENTRY_RANGE, ENTRY_RANGE + 1)
                            if n])
    return Fraction(numerator, rng.randint(1, ENTRY_RANGE))


def eval_points(rng: random.Random, params) -> list[dict[str, Fraction]]:
    """Points where every parameter is nonzero, so the numeric twin keeps
    the symbolic class flags and local-symmetry verdict."""
    return [{name: nonzero_rational(rng) for name in params}
            for _ in range(POINTS_PER_RUN)]


def eval_argument(point: dict[str, Fraction]) -> str:
    """The same point in the CLI's ``--eval`` syntax."""
    return ",".join(f"{name}={value}" for name, value in point.items())


def basis_change(rng: random.Random, dim: int) -> RationalMatrix:
    """P = I + N with N nonzero exactly on SHEAR_CELLS."""
    rows = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i, j in SHEAR_CELLS:
        rows[i][j] = nonzero_rational(rng)
    return RationalMatrix(rows)


def sheared_spec(a: AlmostNordenAlgebra, P: RationalMatrix) -> str:
    """Spec text of ``a`` written in the basis E_b = sum_i P[i][b] X_i.

    Brackets, metric and J are transformed as tensors, so every
    basis-independent quantity (scalar curvature, the norm of grad J, the
    class flags, local symmetry, the Killing-form rank) is unchanged.
    """
    dim, params = a.dim, a.params
    P_inv = P.inverse()
    columns = [tuple(Poly.constant(P[i][b], params) for i in range(dim))
               for b in range(dim)]
    brackets = {}
    for x in range(dim):
        for y in range(x + 1, dim):
            image = P_inv.apply(a.algebra.bracket(columns[x], columns[y]))
            row = {c + 1: value for c, value in enumerate(image)
                   if value.terms}
            if row:
                brackets[(x + 1, y + 1)] = row
    lie = LieAlgebra.from_brackets(dim, params, brackets)
    g = P.transpose() @ a.g @ P
    J = P_inv @ a.J @ P
    return emit_spec(AlmostNordenAlgebra(lie, g, J))
