"""The three-parameter six-dimensional family and its regression data."""

import re
from pathlib import Path

import pytest

from nordenlab import (
    AlmostNordenAlgebra,
    CheckResult,
    LieAlgebra,
    Poly,
    StructureError,
    Table1Family,
    build_table1,
    check_eq22,
    parse_poly,
    regression_report,
)
from nordenlab import family as family_mod
from nordenlab.lie import format_vector
from nordenlab.family import (
    expected_F_components,
    expected_R_components,
    expected_killing_form,
    expected_ricci,
)
from reference import metric

P3 = ("l1", "l2", "l3")


def test_build_returns_validated_family(family):
    assert isinstance(family, Table1Family)
    assert family.params == P3
    assert family.algebra.dim == 6
    assert family.algebra.params == P3


def test_build_rejects_wrong_parameter_count():
    with pytest.raises(ValueError):
        build_table1(("a", "b"))


def test_build_with_custom_parameter_names():
    fam = build_table1(("a", "b", "c"))
    assert fam.params == ("a", "b", "c")
    g = fam.algebra.algebra
    assert format_vector(g.bracket_basis(2, 3)) == "a*X5 + b*X6"


def test_bracket_row_spot_checks(falg):
    g = falg.algebra
    assert format_vector(g.bracket_basis(2, 3)) == "l1*X5 + l2*X6"
    assert format_vector(g.bracket_basis(3, 6)) == (
        "l3*X1 - l2*X2 + l3*X4 - l2*X5")
    assert format_vector(g.bracket_basis(4, 5)) == "-l2*X1 - l3*X2"


def test_self_validation_catches_tampered_rows(monkeypatch):
    # drop one target from [X2, X3]; metric invariance must now fail
    monkeypatch.setitem(family_mod._BRACKET_ROWS, (2, 3), {5: (1, +1)})
    with pytest.raises(StructureError):
        build_table1()


def test_build_refuses_a_non_invariant_metric(monkeypatch):
    failed = CheckResult(False, ((1, 2, 4, Poly.constant(3, P3)),))
    monkeypatch.setattr(AlmostNordenAlgebra, "check_invariant_metric",
                        lambda self: failed)
    with pytest.raises(StructureError,
                       match=r"not invariant: residual 3 at \(1,2,4\)"):
        build_table1()


def test_build_refuses_an_eq22_failure(monkeypatch):
    failed = CheckResult(False, (("isotropy", 2, Poly.constant(1, P3)),))
    monkeypatch.setattr(family_mod, "check_eq22", lambda f: failed)
    with pytest.raises(StructureError,
                       match="violate orthogonality/isotropy: "
                             r"\('isotropy', 2, "):
        build_table1()


# -- commutator orthogonality and isotropy ---------------------------------

def test_eq22_family(family):
    assert check_eq22(family).ok
    assert check_eq22(family.algebra).ok  # bare-algebra form


def test_eq22_isotropy_is_not_vacuous(falg):
    # [X1, J X1] is a nonzero vector whose metric square still vanishes
    g = falg.algebra
    v = g.bracket(g.basis_vector(1), falg.J.apply(g.basis_vector(1)))
    assert any(not c.is_zero for c in v)
    assert metric(falg, v, v).is_zero


def test_eq22_orthogonality_violation():
    a = AlmostNordenAlgebra(LieAlgebra.from_brackets(
        6, (), {(1, 2): {3: 1}, (4, 5): {3: 1}}))
    result = check_eq22(a)
    assert not result.ok
    assert ("orthogonality", 1, 2, 4, 5, Poly.constant(1)) in result.violations


def test_eq22_isotropy_violation():
    a = AlmostNordenAlgebra(LieAlgebra.from_brackets(6, (), {(1, 4): {1: 1}}))
    result = check_eq22(a)
    assert not result.ok
    assert result.violations[0][:2] == ("isotropy", 1)


# -- frozen component tables -----------------------------------------------

def test_expected_f_table_matches_computed(ftensor):
    table = expected_F_components()
    assert len(table) == 120
    for (i, j, k), value in table.items():
        assert ftensor.component(i, j, k) == value, (i, j, k)
    for i in range(1, 7):
        for j in range(1, 7):
            for k in range(1, 7):
                if (i, j, k) not in table:
                    assert ftensor.component(i, j, k).is_zero, (i, j, k)


def test_expected_r_table_matches_computed(fcurv):
    table = expected_R_components()
    assert len(table) == 528
    for (i, j, k, l), value in table.items():
        assert fcurv.component(i, j, k, l) == value, (i, j, k, l)
    for i in range(1, 7):
        for j in range(1, 7):
            for k in range(1, 7):
                for l in range(1, 7):
                    if (i, j, k, l) not in table:
                        assert fcurv.component(i, j, k, l).is_zero, (i, j, k, l)


def test_expected_r_table_spot_values():
    table = expected_R_components()
    assert table[(1, 2, 2, 1)] == parse_poly("-1/4*l2^2 - 1/4*l3^2", P3)
    assert table[(1, 2, 1, 2)] == parse_poly("1/4*l2^2 + 1/4*l3^2", P3)
    assert table[(1, 3, 6, 1)] == parse_poly("1/4*l1^2", P3)


def test_expected_ricci_matches_computed(fricci):
    rho, _ = fricci
    assert rho == expected_ricci()
    assert expected_ricci().entry(1, 1) == parse_poly("-l3^2", P3)


def test_expected_killing_form(falg):
    B = expected_killing_form()
    assert falg.algebra.killing_form() == B
    assert B.entry(1, 1) == parse_poly("4*l3^2", P3)
    assert B.entry(1, 4) == parse_poly("-4*l3^2", P3)
    assert B.determinant().is_zero  # always degenerate, never semisimple


# -- full regression -------------------------------------------------------

def test_regression_report_all_green(family):
    report = regression_report(family)
    assert report.ok
    assert report.failures() == ()
    assert len(report.checks) == 280
    assert report.groups() == [
        "structure", "classification", "f-components", "curvature",
        "curvature-routes", "ricci", "tau", "sectional", "nabla-j-norm",
        "nabla-r", "killing-form",
    ]
    lines = report.summary_lines()
    assert "structure: ok (4 checks)" in lines
    assert "f-components: ok (121 checks)" in lines
    assert "curvature: ok (73 checks)" in lines
    assert all(": ok (" in line for line in lines)


def test_regression_checks_are_golden(family):
    golden = Path(__file__).parent / "data" / "table1_regression.txt"
    lines = ["\t".join((c.group, c.item, c.expected, c.computed,
                        str(c.passed))) + "\n"
             for c in regression_report(family).checks]
    assert lines == golden.read_text(encoding="utf-8").splitlines(True)


def test_regression_builds_its_tables_in_every_call(family, monkeypatch):
    assert regression_report(family).ok
    first = family_mod._R_ITEMS[0]
    monkeypatch.setattr(family_mod, "_R_ITEMS",
                        ((-first[0],) + first[1:],) + family_mod._R_ITEMS[1:])
    failures = regression_report(family).failures()
    assert [(c.group, c.item, c.expected, c.computed) for c in failures] == [
        ("curvature", "R(1,2,2,1)", "1/4*l2^2 + 1/4*l3^2",
         "-1/4*l2^2 - 1/4*l3^2")]
    monkeypatch.undo()
    assert regression_report(family).ok


def test_unlisted_curvature_components_are_named_by_canonical_key(
        family, monkeypatch):
    # R is stored one entry per orbit, so a component missing from the
    # expected table is named once, at its orbit's representative
    real = family_mod._expected_R
    orbit = {(1, 2, 1, 3), (2, 1, 1, 3), (1, 2, 3, 1), (2, 1, 3, 1),
             (1, 3, 1, 2), (3, 1, 1, 2), (1, 3, 2, 1), (3, 1, 2, 1)}
    monkeypatch.setattr(family_mod, "_expected_R", lambda exprs: {
        key: v for key, v in real(exprs).items() if key not in orbit})
    failures = regression_report(family).failures()
    assert [(c.group, c.item, c.expected, c.computed) for c in failures] == [
        ("curvature", "unlisted-components-zero", "()", "((1, 2, 1, 3),)")]


# -- the tables' consistency guard -------------------------------------------

def test_inconsistent_r_data_is_refused(monkeypatch):
    monkeypatch.setattr(family_mod, "_R_ITEMS", family_mod._R_ITEMS + (
        (+1, 2, 1, 1, 2, "pp", (2, 3)),))
    with pytest.raises(StructureError, match=re.escape(
            "inconsistent expected R data at (1, 2, 2, 1): "
            "1/4*l2^2 + 1/4*l3^2 vs -1/4*l2^2 - 1/4*l3^2")):
        expected_R_components()


def test_inconsistent_f_data_is_refused(monkeypatch):
    monkeypatch.setitem(family_mod._F_ITEMS, 1,
                        family_mod._F_ITEMS[1] + ((-2, 1, 1, 6),))
    with pytest.raises(StructureError, match=re.escape(
            "inconsistent expected F data at (1, 4, 3): "
            "1/2*l1 vs -1/2*l1")):
        expected_F_components()


# -- perturbed family ------------------------------------------------------

def test_perturbed_bracket_breaks_invariance():
    var = {name: Poly.variable(name, P3) for name in P3}
    brackets = {
        pair: {k: var[P3[p - 1]] * sign for k, (p, sign) in row.items()}
        for pair, row in family_mod._BRACKET_ROWS.items()
    }
    # shift the X5-coefficient of [X2, X3] from l1 to l1 + 1
    brackets[(2, 3)] = dict(brackets[(2, 3)])
    brackets[(2, 3)][5] = parse_poly("l1 + 1", P3)
    lie = LieAlgebra.from_brackets(6, P3, brackets)
    assert not lie.check_jacobi().ok
    a = AlmostNordenAlgebra(lie)
    result = a.check_invariant_metric()
    assert not result.ok
    found = {v[:3]: v[3] for v in result.violations}
    assert found[(2, 3, 5)] == Poly.constant(-1, P3)


# -- numeric members -------------------------------------------------------

def test_evaluate_member(family):
    member = family.evaluate({"l1": 1, "l2": 1, "l3": 1})
    assert member.params == ()
    rho_11 = expected_ricci().entry(1, 1).evaluate({"l3": 1})
    assert rho_11 == -1
    flags = member.classify(member.tensor_F())
    assert flags.label() == "W3 (quasi-Kähler with Norden metric)"


def test_evaluate_requires_all_occurring_parameters(family):
    with pytest.raises(KeyError):
        family.evaluate({"l1": 1})


def test_regression_builds_F_once(monkeypatch):
    calls = []
    original = AlmostNordenAlgebra.tensor_F

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(AlmostNordenAlgebra, "tensor_F", counted)
    assert regression_report(build_table1()).ok
    assert len(calls) == 1
