"""Product acceptance: the headline guarantees, one test per criterion.

Every comparison below is exact — polynomial identity over the rationals
or Fraction equality — never a floating-point tolerance.  Each test
prints its own pass/fail line so a plain ``pytest -v`` run shows the
tally directly.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from nordenlab import (
    Poly,
    check_eq22,
    check_norden,
    coordinate_plane,
    curvature_R,
    curvature_invariant_formula,
    emit_spec,
    is_locally_symmetric,
    levi_civita,
    parse_spec_text,
    plane_type,
    ricci_and_scalar,
    sectional_curvature,
    square_norm_nabla_J,
    vec_sub,
)
from nordenlab import family as family_mod
from nordenlab.cli import main

P3 = ("l1", "l2", "l3")


@contextmanager
def verdict(capsys, label):
    """Print one [PASS]/[FAIL] line for the enclosed criterion."""
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {label}", end=" ")


def test_c01_family_passes_all_structure_checks(family, falg, capsys):
    with verdict(capsys, "family passes jacobi, norden-compatibility, "
                         "invariant-metric and commutator checks"):
        assert falg.algebra.check_jacobi().ok
        assert check_norden(falg.g, falg.J).ok
        assert falg.check_invariant_metric().ok
        assert check_eq22(family).ok


def test_c02_family_class_is_w3_with_zero_lie_form(falg, ftensor, capsys):
    with verdict(capsys, "family sits exactly in W3 with vanishing "
                         "Lie form"):
        flags = falg.classify(ftensor)
        assert (flags.w0, flags.w1, flags.w2, flags.w3) == (
            False, False, False, True)
        assert flags.label() == "W3 (quasi-Kähler with Norden metric)"
        assert all(t.is_zero for t in falg.lie_form(ftensor))


def test_c03_fundamental_tensor_components(ftensor, capsys):
    with verdict(capsys, "all 120 recorded F components reproduced; "
                         "the rest vanish"):
        table = family_mod.expected_F_components()
        assert len(table) == 120
        for i, j, k in itertools.product(range(1, 7), repeat=3):
            got = ftensor.component(i, j, k)
            want = table.get((i, j, k))
            if want is None:
                assert got.is_zero, (i, j, k)
            else:
                assert got == want, (i, j, k)


def test_c04_curvature_components_both_routes(falg, fcurv, capsys):
    with verdict(capsys, "all 528 recorded R components reproduced "
                         "on both curvature routes"):
        table = family_mod.expected_R_components()
        assert len(table) == 528
        for i, j, k, l in itertools.product(range(1, 7), repeat=4):
            got = fcurv.component(i, j, k, l)
            want = table.get((i, j, k, l))
            if want is None:
                assert got.is_zero, (i, j, k, l)
            else:
                assert got == want, (i, j, k, l)
        assert curvature_invariant_formula(falg) == fcurv


def test_c05_ricci_and_scalar_curvature(fricci, capsys):
    with verdict(capsys, "Ricci tensor matches its recorded form "
                         "and tau = 0"):
        rho, tau = fricci
        assert rho == family_mod.expected_ricci()
        assert tau.is_zero


SECTIONAL_TABLE = [
    ("a12", "totally_real", "-1/4*l2^2 - 1/4*l3^2"),
    ("a13", "totally_real", "-1/4*l1^2 - 1/4*l3^2"),
    ("a14", "holomorphic", "0"),
    ("a15", "totally_real", "1/4*l2^2 - 1/4*l3^2"),
    ("a16", "totally_real", "1/4*l1^2 - 1/4*l3^2"),
    ("a23", "totally_real", "-1/4*l1^2 - 1/4*l2^2"),
    ("a24", "totally_real", "-1/4*l2^2 + 1/4*l3^2"),
    ("a25", "holomorphic", "0"),
    ("a26", "totally_real", "1/4*l1^2 - 1/4*l2^2"),
    ("a34", "totally_real", "-1/4*l1^2 + 1/4*l3^2"),
    ("a35", "totally_real", "-1/4*l1^2 + 1/4*l2^2"),
    ("a36", "holomorphic", "0"),
    ("a45", "totally_real", "1/4*l2^2 + 1/4*l3^2"),
    ("a46", "totally_real", "1/4*l1^2 + 1/4*l3^2"),
    ("a56", "totally_real", "1/4*l1^2 + 1/4*l2^2"),
]


def test_c06_sectional_curvature_table(falg, fcurv, capsys):
    with verdict(capsys, "sectional curvature table for all 15 "
                         "coordinate planes"):
        rows = []
        for i in range(1, 7):
            for j in range(i + 1, 7):
                plane = coordinate_plane(6, i, j)
                rows.append((f"a{i}{j}", plane_type(falg, plane),
                             str(sectional_curvature(falg, fcurv, plane))))
        assert rows == SECTIONAL_TABLE
        # the three holomorphic planes all carry zero curvature
        assert [r[0] for r in rows if r[1] == "holomorphic"] == [
            "a14", "a25", "a36"]


def test_c07_isotropic_kahler_norm(falg, ftensor, capsys):
    with verdict(capsys, "grad-J norm vanishes while F does not "
                         "(isotropic Kähler)"):
        norm = square_norm_nabla_J(falg, ftensor)
        assert norm.is_zero
        assert not ftensor.is_zero


def test_c08_locally_symmetric(fnabla_r, capsys):
    with verdict(capsys, "grad R = 0: the family is locally symmetric"):
        count = 0
        for block in fnabla_r:
            for cube in block:
                for plane in cube:
                    for row in plane:
                        for value in row:
                            assert value.is_zero
                            count += 1
        assert count == 6 ** 5
        assert is_locally_symmetric(fnabla_r)


def test_c09_killing_form_shape(falg, capsys):
    with verdict(capsys, "Killing form has the recorded block shape "
                         "and is degenerate"):
        B = falg.algebra.killing_form()
        assert B == family_mod.expected_killing_form()
        for i in range(1, 7):
            for j in range(1, 7):
                assert B.entry(i, j) == B.entry(j, i)
        for i in range(1, 4):
            for j in range(1, 4):
                assert (B.entry(i, j + 3) + B.entry(i, j)).is_zero
                assert B.entry(i + 3, j + 3) == B.entry(i, j)
        assert B.determinant().is_zero


def test_c10_specialization_commutes(family, ftensor, fcurv, fricci,
                                     falg, capsys):
    with verdict(capsys, "numeric specialization commutes with every "
                         "symbolic computation"):
        rho_sym, tau_sym = fricci
        theta_sym = falg.lie_form(ftensor)
        norm_sym = square_norm_nabla_J(falg, ftensor)

        rng = random.Random(20260823)
        assignments = [
            {"l1": Fraction(2), "l2": Fraction(3), "l3": Fraction(5)},
            {"l1": Fraction(1), "l2": Fraction(0), "l3": Fraction(0)},
        ]
        while len(assignments) < 22:
            assignments.append(
                {name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for name in P3})

        for asg in assignments:
            num = family.evaluate(asg)
            F_num = num.tensor_F()
            assert ftensor.evaluate(asg) == F_num
            R_num = curvature_R(num, levi_civita(num))
            assert fcurv.evaluate(asg) == R_num
            rho_num, tau_num = ricci_and_scalar(num, R_num)
            assert rho_sym.evaluate(asg) == rho_num.evaluate({})
            assert tau_sym.evaluate(asg) == tau_num.evaluate({})
            assert tuple(t.evaluate(asg) for t in theta_sym) == tuple(
                t.evaluate({}) for t in num.lie_form(F_num))
            assert norm_sym.evaluate(asg) == square_norm_nabla_J(
                num, F_num).evaluate({})


def test_c11_connection_is_half_bracket_iff_invariant(falg, fconn,
                                                      affine6, capsys):
    with verdict(capsys, "grad = half bracket exactly for the invariant "
                         "metric, not otherwise"):
        alg = falg.algebra
        for i in range(1, 7):
            for j in range(1, 7):
                half = tuple(v * Fraction(1, 2)
                             for v in alg.bracket_basis(i, j))
                assert fconn.vector(i, j) == half

        other = levi_civita(affine6)
        oalg = affine6.algebra
        for i in range(1, 7):
            for j in range(1, 7):
                torsion = vec_sub(vec_sub(other.vector(i, j),
                                          other.vector(j, i)),
                                  oalg.bracket_basis(i, j))
                assert all(v.is_zero for v in torsion)
                for k in range(1, 7):
                    residual = (affine6.metric(other.vector(i, j),
                                               oalg.basis_vector(k))
                                + affine6.metric(oalg.basis_vector(j),
                                                 other.vector(i, k)))
                    assert residual.is_zero
        assert not affine6.check_invariant_metric().ok
        assert other.vector(1, 1) != tuple(
            v * Fraction(1, 2) for v in oalg.bracket_basis(1, 1))


def test_c12_cli_and_canonical_round_trip(falg, spec_fixture_path,
                                          tmp_path, capsys):
    with verdict(capsys, "CLI verdicts and canonical spec round-trip "
                         "are stable"):
        assert main(["check", "--family", "table1"]) == 0
        assert capsys.readouterr().out == (
            "jacobi: ok\nnorden: ok\ninvariant-metric: ok\neq22: ok\n")

        fixture_text = spec_fixture_path.read_text(encoding="utf-8")
        broken = tmp_path / "broken.spec"
        broken.write_text(fixture_text.replace("2 3 -> 5: l1; 6: l2",
                                               "2 3 -> 5: l1 + 1; 6: l2"),
                          encoding="utf-8")
        assert main(["check", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "invariant-metric: FAIL" in out
        assert "g([X2,X3],X5) + g([X2,X5],X3) = -1" in out

        emitted = emit_spec(falg)
        assert emitted == fixture_text
        assert emit_spec(parse_spec_text(emitted).to_algebra()) == emitted
