"""Spec file parsing, emission, and round-trips."""

import pytest

from nordenlab import (
    NonSymmetricMatrixError,
    RationalMatrix,
    SingularMatrixError,
    SpecFileError,
    StructureError,
    emit_spec,
    parse_spec,
    parse_spec_text,
)

MINIMAL = """
dimension = 2
parameters =
"""

HEISENBERG_LIKE = """
# a nilpotent example with explicit sections
dimension = 6
parameters =

[brackets]
1 2 -> 3: 1
"""


def test_minimal_spec_defaults_to_abelian():
    spec = parse_spec_text(MINIMAL)
    assert spec.dimension == 2
    assert spec.parameters == ()
    assert spec.metric is None and spec.J is None
    assert spec.brackets == ()
    a = spec.to_algebra()
    assert a.g == RationalMatrix.diagonal([1, -1])
    assert a.classify(a.tensor_F()).w0


def test_comments_and_blank_lines_are_ignored():
    spec = parse_spec_text(HEISENBERG_LIKE)
    assert spec.dimension == 6
    assert len(spec.brackets) == 1
    i, j, targets = spec.brackets[0]
    assert (i, j) == (1, 2)
    assert targets[0][0] == 3


def test_fixture_parses_to_the_family(family, spec_fixture_path):
    algebra = parse_spec(spec_fixture_path)
    assert algebra == family.algebra


def test_emit_matches_frozen_fixture(family, spec_fixture_path):
    assert emit_spec(family.algebra) == spec_fixture_path.read_text(
        encoding="utf-8")


def test_emit_parse_emit_is_byte_identical(family):
    text = emit_spec(family.algebra)
    again = emit_spec(parse_spec_text(text).to_algebra())
    assert again == text


def test_round_trip_with_nontrivial_metric():
    # the hyperbolic pairing is Norden-compatible with the default J
    text = (
        "dimension = 2\n"
        "parameters = t\n"
        "\n"
        "[metric]\n"
        "0 1\n"
        "1 0\n"
        "\n"
        "[brackets]\n"
        "1 2 -> 1: 2*t; 2: -1/3\n"
    )
    a = parse_spec_text(text).to_algebra()
    emitted = emit_spec(a)
    assert "0 1\n1 0" in emitted  # non-diagonal metric rows survive
    assert emit_spec(parse_spec_text(emitted).to_algebra()) == emitted


def raises_on_line(text, lineno):
    with pytest.raises(SpecFileError) as exc:
        parse_spec_text(text)
    assert exc.value.line == lineno
    assert str(exc.value).startswith(f"line {lineno}:")


def test_error_missing_header():
    with pytest.raises(SpecFileError):
        parse_spec_text("dimension = 6\n")


def test_error_bad_dimension():
    raises_on_line("dimension = nope\nparameters =\n", 1)
    raises_on_line("dimension = 0\nparameters =\n", 1)
    raises_on_line("dimension = 5\nparameters =\n", 1)  # odd
    raises_on_line("dimension = \u00b2\nparameters =\n", 1)  # not ASCII


def test_limits_are_inclusive():
    spec = parse_spec_text("dimension = 20\nparameters = t\n[brackets]\n"
                           "1 2 -> 3: t^16\n")
    assert spec.dimension == 20
    assert spec.brackets[0][2][0][1].total_degree() == 16


def test_error_bad_parameters():
    raises_on_line("dimension = 2\nparameters = 1bad\n", 2)
    raises_on_line("dimension = 2\nparameters = a, a\n", 2)


def test_error_unknown_section():
    raises_on_line("dimension = 2\nparameters =\n[nope]\n", 3)


def test_error_duplicate_section():
    raises_on_line(
        "dimension = 2\nparameters =\n[brackets]\n[brackets]\n", 4)


def test_error_content_outside_section():
    raises_on_line("dimension = 2\nparameters =\nstray\n", 3)


def test_error_bad_bracket_lines():
    base = "dimension = 6\nparameters = l1\n[brackets]\n"
    raises_on_line(base + "1 2 4: l1\n", 4)        # missing arrow
    raises_on_line(base + "2 1 -> 3: l1\n", 4)     # i >= j
    raises_on_line(base + "1 9 -> 3: l1\n", 4)     # index out of range
    raises_on_line(base + "1 2 -> 7: l1\n", 4)     # target out of range
    raises_on_line(base + "1 2 -> 3: l1; 3: l1\n", 4)  # duplicate target
    raises_on_line(base + "1 2 -> 3: l1 +\n", 4)   # bad polynomial
    raises_on_line(base + "1 2 -> 3: mu\n", 4)     # undeclared parameter
    raises_on_line(base + "1 2 -> 3: l1\n1 2 -> 4: l1\n", 5)  # dup pair


def test_error_bad_matrix_sections():
    base = "dimension = 2\nparameters =\n"
    raises_on_line(base + "[metric]\ndiag = 1, -1, 1\n", 4)  # wrong length
    raises_on_line(base + "[metric]\n1 0\n", 4)              # missing row
    raises_on_line(base + "[metric]\n1 0\n0 x\n", 5)         # bad rational
    raises_on_line(base + "[J]\ndiag = 1, -1\n", 4)          # J has no diag


def test_semantic_errors_surface_from_construction():
    base = "dimension = 2\nparameters =\n[metric]\n"
    with pytest.raises(NonSymmetricMatrixError):
        parse_spec_text(base + "1 1\n0 -1\n").to_algebra()
    with pytest.raises(SingularMatrixError):
        parse_spec_text(base + "0 0\n0 0\n").to_algebra()
    # a metric that is nondegenerate but not Norden-compatible
    with pytest.raises(StructureError):
        parse_spec_text(base + "diag = 1, 1\n").to_algebra()


def test_parse_spec_reads_from_path(tmp_path, family):
    target = tmp_path / "fam.spec"
    target.write_text(emit_spec(family.algebra), encoding="utf-8")
    assert parse_spec(target) == family.algebra
