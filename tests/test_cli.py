"""End-to-end CLI behavior: exit codes, output text, error channel."""

import hashlib
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import reference
from nordenlab import (AlmostNordenAlgebra, Poly, Tensor, curvature,
                       parse_spec_text, poly, report, specfile)
from nordenlab import family as family_mod
from nordenlab.cli import main
from test_reference import ad_skew_brackets

CHECK_OK = "jacobi: ok\nnorden: ok\ninvariant-metric: ok\neq22: ok\n"

W3_LABEL = "W3 (quasi-Kähler with Norden metric)"

MINIMAL_SPEC = "dimension = 2\nparameters =\n"


@pytest.fixture()
def perturbed_spec(tmp_path, spec_fixture_path):
    """Fixture family with the [X2,X3] row shifted off the identity."""
    text = spec_fixture_path.read_text(encoding="utf-8")
    assert "2 3 -> 5: l1; 6: l2\n" in text
    broken = text.replace("2 3 -> 5: l1; 6: l2\n",
                          "2 3 -> 5: l1 + 1; 6: l2\n")
    target = tmp_path / "perturbed.spec"
    target.write_text(broken, encoding="utf-8")
    return target


# -- usage and input errors ------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_both_inputs_rejected(tmp_path, capsys):
    spec = tmp_path / "x.spec"
    spec.write_text(MINIMAL_SPEC, encoding="utf-8")
    assert main(["check", str(spec), "--family", "table1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_neither_input_rejected(capsys):
    assert main(["check"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file(capsys):
    assert main(["check", "/no/such/file.spec"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_spec_reports_line(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("dimension = 6\nparameters =\n[brackets]\n1 2 3\n",
                    encoding="utf-8")
    assert main(["check", str(spec)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_eval_validation(capsys):
    base = ["classify", "--family", "table1", "--eval"]
    assert main(base + ["l1=1"]) == 2                       # missing params
    assert "missing" in capsys.readouterr().err
    assert main(base + ["l1=1,l2=1,l3=1,mu=2"]) == 2        # unknown name
    capsys.readouterr()
    assert main(base + ["l1=1,l2=1,l1=2,l3=1"]) == 2        # duplicate
    capsys.readouterr()
    assert main(base + ["l1=1,l2=oops,l3=1"]) == 2          # not rational
    capsys.readouterr()
    assert main(base + ["l1=1,,l2=2,l3=3"]) == 0            # empty piece
    capsys.readouterr()
    assert main(base + ["l1=1,l2,l3=3"]) == 2               # no '='
    assert "must look like name=value, got 'l2'" in capsys.readouterr().err
    # the spec-file grammar: an integer or p/q, nothing else
    for bad in ("0.5", "1e5", "1/0"):
        assert main(base + [f"l1=1,l2={bad},l3=1"]) == 2
        assert "not a rational number" in capsys.readouterr().err


def test_non_utf8_spec_is_input_error(tmp_path, capsys):
    spec = tmp_path / "latin1.spec"
    spec.write_bytes(b"# caf\xe9\n" + MINIMAL_SPEC.encode())
    assert main(["check", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err
    assert err.count("\n") == 1


def test_zero_denominator_in_spec_is_input_error(tmp_path, capsys):
    spec = tmp_path / "zero.spec"
    spec.write_text(MINIMAL_SPEC + "[metric]\ndiag = 1/0, -1\n",
                    encoding="utf-8")
    assert main(["check", str(spec)]) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("body, args, message", [
    (b"dimension = 40\nparameters =\n", ["check"],
     "dimension 40 exceeds the limit of 20"),
    (b"dimension = 2\nparameters = t\n[brackets]\n1 2 -> 1: t^99999999\n",
     ["report", "--eval", "t=3/2"], "total degree 99999999, above the limit"),
    # one byte over the limit, and not UTF-8: size is checked first
    (MINIMAL_SPEC.encode().ljust(specfile.MAX_SPEC_BYTES + 1, b"\xe9"),
     ["check"], "larger than the limit of 1048576 bytes"),
    (("dimension = 2\nparameters = s, t\n[brackets]\n1 2 -> 1: "
      + " + ".join(f"s^{a}*t^{b}" for a in range(5) for b in range(13))
      ).encode(), ["check"], "has 65 terms, above the limit of 64"),
], ids=["dimension", "degree", "size", "terms"])
def test_spec_limits_are_input_errors(tmp_path, capsys, body, args, message):
    spec = tmp_path / "limit.spec"
    spec.write_bytes(body)
    assert main(args[:1] + [str(spec)] + args[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


def test_a_long_product_is_refused_at_its_first_factor_past_the_limit(
        tmp_path, capsys, monkeypatch):
    # 524,000 one-digit factors fill the file to within its size limit;
    # 9^21 is the first power of 9 past MAX_DIGITS digits, so the parser
    # reads 21 factors, not all of them, before the term is refused
    spec = tmp_path / "product.spec"
    spec.write_text("dimension = 2\nparameters = t\n[brackets]\n1 2 -> 1: "
                    + "*".join(["9"] * 524_000) + "\n", encoding="utf-8")
    assert spec.stat().st_size <= specfile.MAX_SPEC_BYTES
    read, to_int = [], poly._int
    monkeypatch.setattr(poly, "_int",
                        lambda digits: read.append(digits) or to_int(digits))
    assert main(["check", str(spec)]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: [brackets] over its common denominator has a number "
        f"with more digits than the limit of {specfile.MAX_DIGITS}\n")
    assert len(read) == 21


#: More digits than Python converts to an int (its limit is 4300).
LONG = "9" * 5000


@pytest.mark.parametrize("command", ["check", "classify", "report"])
def test_a_value_too_long_to_print_is_an_input_error(tmp_path, capsys,
                                                     command):
    # within every limit: p = a1^16 + ... + a64^16 at a_i = 1/q_i, each q_i
    # of MAX_DIGITS digits, has a denominator of about 20,000 digits
    names = [f"a{i}" for i in range(1, 65)]
    spec = tmp_path / "wide.spec"
    spec.write_text(f"dimension = 2\nparameters = {', '.join(names)}\n"
                    "[brackets]\n1 2 -> 2: "
                    + " + ".join(f"{name}^16" for name in names) + "\n",
                    encoding="utf-8")
    low = 10 ** (specfile.MAX_DIGITS - 1)
    point = ",".join(f"{name}=1/{low + i}" for i, name in enumerate(names))
    assert main([command, str(spec), "--eval", point]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a coefficient of ")
    assert err.endswith(" bits is too long to print\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("digits, code", [(specfile.MAX_DIGITS, 0),
                                           (specfile.MAX_DIGITS + 1, 2)])
def test_eval_values_take_at_most_max_digits(tmp_path, capsys, digits, code):
    spec = tmp_path / "eval.spec"
    spec.write_text("dimension = 2\nparameters = t\n", encoding="utf-8")
    for value in ("9" * digits, "-1/" + "9" * digits):
        assert main(["check", str(spec), "--eval", f"t={value}"]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else f"error: --eval value for 't' "
                       f"has {len(value)} characters, too long to read\n")


@pytest.mark.parametrize("body, args", [
    (f"[brackets]\n1 2 -> 1: t^{LONG}\n", ["check"]),
    (f"[brackets]\n1 2 -> 1: {LONG}*t\n", ["check"]),
    (f"[brackets]\n1 {LONG} -> 1: t\n", ["check"]),
    (f"[brackets]\n1 2 -> {LONG}: t\n", ["check"]),
    (f"[metric]\ndiag = {LONG}, -1\n", ["check"]),
    (f"[J]\n0 -{LONG}\n1 0\n", ["check"]),
    ("", ["check", "--eval", f"t={LONG}"]),
], ids=["exponent", "coefficient", "bracket-index", "target-index",
        "metric", "J", "eval"])
def test_long_integers_are_input_errors(tmp_path, capsys, body, args):
    spec = tmp_path / "long.spec"
    spec.write_text("dimension = 2\nparameters = t\n" + body,
                    encoding="utf-8")
    assert main(args[:1] + [str(spec)] + args[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "report"])
def test_trailing_star_in_a_bracket_is_input_error(tmp_path, capsys, command,
                                                   spec_fixture_path):
    text = spec_fixture_path.read_text(encoding="utf-8")
    assert "\n1 2 -> 4: l2; 5: l3\n" in text  # line 16
    spec = tmp_path / "star.spec"
    spec.write_text(text.replace("1 2 -> 4: l2;", "1 2 -> 4: l2*;"),
                    encoding="utf-8")
    assert main([command, str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line 16: cannot read the term at column "
                            "1 of polynomial 'l2*'\n")


def test_overlong_polynomial_text_is_one_short_error_line(tmp_path, capsys):
    spec = tmp_path / "spaces.spec"
    spec.write_text("dimension = 2\nparameters = t\n[brackets]\n1 2 -> 1: t"
                    + " " * 1_000_000 + "*\n", encoding="utf-8")
    assert main(["check", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4:") and err.count("\n") == 1
    assert len(err.encode()) < 300


#: Each refusal that echoes outside input, fed 100,000 characters of it
#: (a 4000-digit exponent for the Poly constructor; a 100,000-character
#: parameter name for the --eval refusals that list the parameters).
HUGE = 100_000
ECHOES = {
    "key-value": ("x" * HUGE + "\nparameters = t\n", []),
    "parameter-name": ("dimension = 2\nparameters = " + "1" * HUGE + "\n",
                       []),
    "section": (MINIMAL_SPEC + "[" + "x" * HUGE + "]\n", []),
    "outside-section": (MINIMAL_SPEC + "x" * HUGE + "\n", []),
    "rational": (MINIMAL_SPEC + "[metric]\ndiag = " + "a" * HUGE + ", 1\n",
                 []),
    "bracket-line": (MINIMAL_SPEC + "[brackets]\n" + "x" * HUGE + "\n", []),
    "bracket-target": (MINIMAL_SPEC + "[brackets]\n1 2 -> " + "x" * HUGE
                       + "\n", []),
    "target-index": (MINIMAL_SPEC + "[brackets]\n1 2 -> " + "a" * HUGE
                     + ": 1\n", []),
    "eval-entry": ("dimension = 2\nparameters = t\n", ["--eval", "x" * HUGE]),
    "eval-name": ("dimension = 2\nparameters = t\n",
                  ["--eval", "q" * HUGE + "=1"]),
    "eval-value": ("dimension = 2\nparameters = t\n",
                   ["--eval", "t=" + "a" * HUGE]),
    "eval-digits": ("dimension = 2\nparameters = t\n",
                    ["--eval", "t=" + "9" * HUGE]),
    "exponent": ("dimension = 2\nparameters = t\n[brackets]\n1 2 -> 1: t^"
                 + "9" * 4000 + "\n", []),
    "eval-parameters": ("dimension = 2\nparameters = " + "p" * HUGE + "\n",
                        ["--eval", "q=1"]),
    "eval-missing": ("dimension = 2\nparameters = " + "p" * HUGE + "\n",
                     ["--eval", ""]),
}


@pytest.mark.parametrize("name", ECHOES)
def test_echoed_input_is_cut_to_one_short_error_line(tmp_path, capsys, name):
    text, args = ECHOES[name]
    spec = tmp_path / "echo.spec"
    spec.write_text(text, encoding="utf-8")
    assert main(["check", str(spec)] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 300


@pytest.mark.parametrize("text, args, message", [
    ("[foo]\n", [], "line 3: unknown section [foo]"),
    ("stray\n", [], "line 3: content outside any section: 'stray'"),
    ("[brackets]\n1 2 -> a: t\n", [],
     "line 4: bracket target index must be an integer, got 'a'"),
    ("[brackets]\n1 2 -> 1: t^2147483648\n", [],
     "line 4: exponent above 2147483647 in (2147483648,)"),
    ("", ["--eval", "t=abc"],
     "--eval value for 't' is not a rational number p or p/q: 'abc'"),
    ("", ["--eval", "q=1"],
     "--eval names unknown parameter 'q' (parameters: t)"),
    ("", ["--eval", ""], "--eval must assign every parameter; missing: t"),
], ids=["section", "outside-section", "target-index", "exponent", "eval",
        "eval-parameters", "eval-missing"])
def test_short_echoed_input_is_shown_whole(tmp_path, capsys, text, args,
                                           message):
    spec = tmp_path / "short.spec"
    spec.write_text("dimension = 2\nparameters = t\n" + text,
                    encoding="utf-8")
    assert main(["check", str(spec)] + args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# -- check -----------------------------------------------------------------

def test_check_family_all_ok(capsys):
    assert main(["check", "--family", "table1"]) == 0
    assert capsys.readouterr().out == CHECK_OK


def test_check_fixture_file(spec_fixture_path, capsys):
    assert main(["check", str(spec_fixture_path)]) == 0
    assert capsys.readouterr().out == CHECK_OK


def test_check_perturbed_spec_names_identity(perturbed_spec,
                                             spec_fixture_path, capsys):
    # jacobi, invariant-metric and eq22 all FAIL, each naming the
    # violated instances in a fixed order
    assert main(["check", str(perturbed_spec)]) == 1
    expected = spec_fixture_path.parent / "perturbed_check.txt"
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")


def test_report_perturbed_spec_names_broken_symmetry(perturbed_spec, capsys):
    # without Jacobi the curvature lacks pair symmetry, so grad R cannot
    # be filled from its canonical components: an input error, no report
    assert main(["report", str(perturbed_spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: curvature tensor violates "
                            "R(j,k,l,m) = R(l,m,j,k) at (j,k,l,m) = "
                            "(1, 2, 2, 3)\n")


def test_curvature_of_perturbed_spec_lists_representatives(
        perturbed_spec, spec_fixture_path, capsys):
    # without Jacobi R is stored in full: the listing keeps only the
    # components with i < j, k < l, (i, j) <= (k, l); the golden pins
    # the whole output, Ricci, tau and the sectional table included
    assert main(["curvature", str(perturbed_spec)]) == 0
    out = capsys.readouterr().out
    expected = spec_fixture_path.parent / "perturbed_curvature.txt"
    assert out == expected.read_text(encoding="utf-8")
    lines = out.splitlines()
    listed = lines[1:lines.index("ricci:")]
    a = parse_spec_text(perturbed_spec.read_text(encoding="utf-8")
                        ).to_algebra()
    c = reference.levi_civita(a)
    assert listed == [
        f"  R({i + 1},{j + 1},{k + 1},{l + 1}) = {v}"
        for (i, j, k, l), v in reference.curvature_R(a, c).nonzero
        if i < j and k < l and (i, j) <= (k, l)]
    assert len(listed) == 87


def test_check_abelian_spec(tmp_path, capsys):
    spec = tmp_path / "flat.spec"
    spec.write_text(MINIMAL_SPEC, encoding="utf-8")
    assert main(["check", str(spec)]) == 0
    assert capsys.readouterr().out == CHECK_OK


# -- classify --------------------------------------------------------------

def test_classify_family(capsys):
    assert main(["classify", "--family", "table1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == W3_LABEL
    assert lines[1] == "w0=false  w1=false  w2=false  w3=true"
    assert lines[2] == "lie form theta: 0"


def test_classify_abelian(tmp_path, capsys):
    spec = tmp_path / "flat.spec"
    spec.write_text(MINIMAL_SPEC, encoding="utf-8")
    assert main(["classify", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "W0 (Kähler with Norden metric)"


def test_classify_builds_F_once(monkeypatch, capsys):
    calls = []
    original = AlmostNordenAlgebra.tensor_F

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(AlmostNordenAlgebra, "tensor_F", counted)
    assert main(["classify", "--family", "table1"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_classify_computes_theta_once(monkeypatch, capsys):
    # the class flags read the Lie form that `classify` also prints
    calls = []
    original = AlmostNordenAlgebra.lie_form

    def counted(self, F):
        calls.append(self)
        return original(self, F)

    monkeypatch.setattr(AlmostNordenAlgebra, "lie_form", counted)
    assert main(["classify", "--family", "table1"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_classify_with_eval(capsys):
    assert main(["classify", "--family", "table1",
                 "--eval", "l1=2,l2=3,l3=5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == W3_LABEL


# -- curvature -------------------------------------------------------------

def test_curvature_family(capsys):
    assert main(["curvature", "--family", "table1"]) == 0
    out = capsys.readouterr().out
    assert "R(1,2,1,2) = 1/4*l2^2 + 1/4*l3^2" in out
    assert "tau: 0" in out
    assert "a45  totally_real  1/4*l2^2 + 1/4*l3^2" in out


def test_curvature_skips_nabla_R(monkeypatch, spec_fixture_path, capsys):
    # `curvature` prints no grad R, so it must never compute it
    def refuse(*args):
        raise AssertionError("nabla_R called")

    monkeypatch.setattr(curvature, "nabla_R", refuse)
    monkeypatch.setattr(curvature, "nabla_R_blocks", refuse)
    monkeypatch.setattr(curvature, "_block_streams", refuse)
    monkeypatch.setattr(report, "nabla_R_witness", refuse)
    assert main(["curvature", "--family", "table1"]) == 0
    expected = spec_fixture_path.parent / "table1_curvature.txt"
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")


def test_curvature_abelian_collapses(tmp_path, capsys):
    spec = tmp_path / "flat.spec"
    spec.write_text(MINIMAL_SPEC, encoding="utf-8")
    assert main(["curvature", str(spec)]) == 0
    assert "(all components vanish)" in capsys.readouterr().out


# -- report ----------------------------------------------------------------

def test_report_default_is_text(capsys):
    assert main(["report", "--family", "table1"]) == 0
    assert capsys.readouterr().out.startswith(
        f"classification: {W3_LABEL}\n")


def test_report_json(capsys):
    assert main(["report", "--family", "table1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"]["label"] == W3_LABEL
    assert data["tau"] == "0"
    assert data["locally_symmetric"] is True


def test_report_csv_numeric(capsys):
    assert main(["report", "--family", "table1",
                 "--eval", "l1=1,l2=1,l3=1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"classification,{W3_LABEL}" in lines
    assert "rho_11,-1" in lines
    assert "tau,0" in lines
    assert "k(a45),1/2" in lines


def test_report_is_deterministic(capsys):
    assert main(["report", "--family", "table1", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--family", "table1", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("command, golden", [
    (["report", "--format", "json"], "report.json"),
    (["curvature"], "curvature.txt"),
    (["check"], "check.txt"),
    (["classify"], "classify.txt"),
])
@pytest.mark.parametrize("name", ["heisenberg6", "affine6", "filiform12"])
def test_koszul_route_outputs_are_golden(name, command, golden,
                                         spec_fixture_path, capsys):
    # none of these metrics is invariant, so `check` fails (exit 1) and
    # the connection is not half the bracket
    data = spec_fixture_path.parent
    code = 1 if command == ["check"] else 0
    assert main(command[:1] + [str(data / f"{name}.spec")] + command[1:]) == code
    expected = (data / f"{name}_{golden}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command, golden", [
    (["curvature"], "curvature.txt"),
    (["report", "--format", "json"], "report.json"),
])
def test_null_plane_outputs_are_golden(command, golden, spec_fixture_path,
                                       capsys):
    # every plane type, and a degenerate plane where R_3443 = 1/4
    data = spec_fixture_path.parent
    spec = str(data / "null_heisenberg6.spec")
    assert main(command[:1] + [spec] + command[1:]) == 0
    expected = data / f"null_heisenberg6_{golden}"
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")


@pytest.mark.parametrize("extra, golden", [
    ([], "table1_report.txt"),
    (["--format", "csv"], "table1_report.csv"),
    (["--format", "json"], "table1_report.json"),
    (["--eval", "l1=3/2,l2=-2,l3=5/7", "--format", "json"],
     "table1_eval_report.json"),
])
def test_table1_report_is_golden(extra, golden, spec_fixture_path, capsys):
    assert main(["report", "--family", "table1"] + extra) == 0
    expected = (spec_fixture_path.parent / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_many_term_report_is_golden(spec_fixture_path, capsys):
    # eight terms in three parameters per bracket: every component of
    # the report is a long polynomial, so this golden pins the term order
    data = spec_fixture_path.parent
    spec = data / "manyterm6.spec"
    assert spec.read_text(encoding="utf-8") == reference.many_term_spec(
        6, 8, random.Random(1))
    assert main(["report", str(spec), "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        data / "manyterm6_report.json").read_text(encoding="utf-8")


def test_sheared_report_is_golden(sheared_family, spec_fixture_path, capsys):
    # the dense symbolic case: table1 under a two-cell shear, 116 nonzero
    # structure constants of up to three terms and a grad R whose
    # products all cancel
    data = spec_fixture_path.parent
    spec = data / "sheared_table1.spec"
    assert spec.read_text(encoding="utf-8") == specfile.emit_spec(
        sheared_family)
    assert main(["report", str(spec), "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        data / "sheared_table1_report.json").read_text(encoding="utf-8")


def test_sheared_eval_report_is_golden(spec_fixture_path, capsys):
    # the dense case at a rational point, parameter-free: Jacobi holds
    # and the metric is ad-skew, so grad R = 0 is decided by theorem
    data = spec_fixture_path.parent
    assert main(["report", str(data / "sheared_table1.spec"), "--eval",
                 "l1=2,l2=-1/3,l3=7", "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        data / "sheared_table1_eval_report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("command, golden", [
    (["report", "--format", "json"], "report.json"),
    (["classify"], "classify.txt"),
])
def test_scaled_metric_outputs_are_golden(command, golden, spec_fixture_path,
                                          capsys):
    # table1 with the metric diag(1/2, 1/3, 2, -1/2, -1/3, -2): every
    # weight of g and g^-1 has a denominator above 1
    data = spec_fixture_path.parent
    spec = data / "scaled_table1.spec"
    assert spec.read_text(encoding="utf-8") == spec_fixture_path.read_text(
        encoding="utf-8").replace("diag = 1, 1, 1, -1, -1, -1",
                                  "diag = 1/2, 1/3, 2, -1/2, -1/3, -2")
    assert main(command[:1] + [str(spec)] + command[1:]) == 0
    assert capsys.readouterr().out == (
        data / f"scaled_table1_{golden}").read_text(encoding="utf-8")


def test_ad_skew_spec_outputs_are_golden(spec_fixture_path, capsys):
    # an ad-skew metric on brackets that fail Jacobi: R is stored in full,
    # passes the slot check, and grad R is nonzero
    data = spec_fixture_path.parent
    spec = data / "adskew6.spec"
    text = spec.read_text(encoding="utf-8")
    assert text == specfile.emit_spec(ad_skew_brackets(0))
    a = parse_spec_text(text).to_algebra()
    R = curvature.curvature_R(a, curvature.levi_civita(a))
    assert type(R) is Tensor
    assert main(["report", str(spec), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (data / "adskew6_report.json").read_text(encoding="utf-8")
    assert json.loads(out)["locally_symmetric"] is False
    assert main(["check", str(spec)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line[0] != " "] == [
        "jacobi: FAIL", "norden: ok", "invariant-metric: ok", "eq22: FAIL"]


def test_sheared_check_is_golden(spec_fixture_path, capsys):
    # the dense case fails eq22 (exit 1): its residuals, read from the
    # bracket Gram tensor of multi-term structure constants, have
    # fractional coefficients
    data = spec_fixture_path.parent
    assert main(["check", str(data / "sheared_table1.spec")]) == 1
    out = capsys.readouterr().out
    assert out == (data / "sheared_table1_check.txt").read_text(
        encoding="utf-8")
    assert "eq22: FAIL" in out and "/" in out


def test_sheared_classify_is_golden(spec_fixture_path, capsys):
    # theta = 0, so both cyclic sums run, and the weights of J^T (over
    # 12) and of g^-1 (over 144) are not all units
    data = spec_fixture_path.parent
    assert main(["classify", str(data / "sheared_table1.spec")]) == 0
    assert capsys.readouterr().out == (
        data / "sheared_table1_classify.txt").read_text(encoding="utf-8")


def test_check_runs_jacobi_once(monkeypatch, capsys):
    # build_table1 validates the family and `check` reports on it: the
    # Jacobiator and the bracket Gram tensor are each built once for both
    builders = []
    original = Tensor.__init__

    def recorded(self, *args, **kwargs):
        builders.append(sys._getframe(1).f_code.co_name)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", recorded)
    assert main(["check", "--family", "table1"]) == 0
    assert capsys.readouterr().out == CHECK_OK
    assert builders.count("jacobiator_tensor") == 1
    assert builders.count("bracket_gram") == 1


@pytest.mark.parametrize("extra, golden", [
    ([], "table1_report.txt"),
    (["--eval", "l1=3/2,l2=-2,l3=5/7", "--format", "json"],
     "table1_eval_report.json"),
])
def test_report_on_a_spec_builds_the_jacobiator_once(extra, golden,
                                                     spec_fixture_path,
                                                     monkeypatch, capsys):
    # R takes its canonical route on the Jacobi verdict, which is read
    # from the Jacobiator cached on the one algebra the report is about
    builders = []
    original = Tensor.__init__

    def recorded(self, *args, **kwargs):
        builders.append(sys._getframe(1).f_code.co_name)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", recorded)
    assert main(["report", str(spec_fixture_path)] + extra) == 0
    expected = (spec_fixture_path.parent / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
    assert builders.count("jacobiator_tensor") == 1


# -- family ----------------------------------------------------------------

def test_family_requires_selection(capsys):
    assert main(["family"]) == 2
    assert "table1" in capsys.readouterr().err


def test_family_regression_summary(capsys):
    assert main(["family", "--table1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "structure: ok (4 checks)" in lines
    assert "f-components: ok (121 checks)" in lines
    assert "curvature: ok (73 checks)" in lines
    assert lines[-1] == "all identities verified"


def test_family_regression_failure_exits_1(monkeypatch, capsys):
    real = family_mod.expected_killing_form

    def off_by_one():  # B(1,1) one more than the computed value
        B = real()
        return SimpleNamespace(
            entry=lambda i, j: B.entry(i, j) + int(i == j == 1))

    monkeypatch.setattr(family_mod, "expected_killing_form", off_by_one)
    assert main(["family", "--table1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "killing-form: FAIL (1 of 22 checks)" in lines
    assert lines[-1] == ("  killing-form/B(1,1): expected 4*l3^2 + 1, "
                         "computed 4*l3^2")
    assert "all identities verified" not in lines


def test_family_emit_spec_matches_fixture(spec_fixture_path, capsys):
    assert main(["family", "--table1", "--emit-spec"]) == 0
    assert capsys.readouterr().out == spec_fixture_path.read_text(
        encoding="utf-8")


# -- the command set -------------------------------------------------------

#: The golden CLI outputs under tests/data, as file-name patterns.
GOLDEN_PATTERNS = ("*_report.txt", "*_report.csv", "*_report.json",
                   "*_curvature.txt", "*_check.txt", "*_classify.txt",
                   "table1_family.txt", "table1.spec")

#: Each golden CLI output, with the command-set line that prints it and
#: that line's exit code.
GOLDEN_COMMANDS = {
    "table1_report.txt": ("report --family table1", 0),
    "table1_report.csv": ("report --family table1 --format csv", 0),
    "table1_report.json": ("report --family table1 --format json", 0),
    "table1_eval_report.json": ("report --family table1 --eval "
                                "l1=3/2,l2=-2,l3=5/7 --format json", 0),
    "sheared_table1_eval_report.json": (
        "report sheared_table1.spec --eval l1=2,l2=-1/3,l3=7 --format json",
        0),
    "table1_curvature.txt": ("curvature --family table1", 0),
    "table1_family.txt": ("family --table1", 0),
    "table1.spec": ("family --table1 --emit-spec", 0),
    **{f"{name}_report.json": (f"report {name}.spec --format json", 0)
       for name in ("heisenberg6", "affine6", "filiform12", "manyterm6",
                    "sheared_table1", "scaled_table1", "null_heisenberg6",
                    "adskew6")},
    **{f"{name}_curvature.txt": (f"curvature {name}.spec", 0)
       for name in ("heisenberg6", "affine6", "filiform12",
                    "null_heisenberg6", "perturbed")},
    **{f"{name}_check.txt": (f"check {name}.spec", 1)
       for name in ("heisenberg6", "affine6", "filiform12", "filiform20",
                    "sheared_table1", "perturbed")},
    **{f"{name}_classify.txt": (f"classify {name}.spec", 0)
       for name in ("heisenberg6", "affine6", "filiform12",
                    "sheared_table1", "scaled_table1")},
}


def test_command_set_prints_every_golden_cli_output():
    # tests/commandset.py runs each command as a child process and records
    # its exit code and the sha256 of its stdout: every golden CLI output
    # has a command there, whose recorded bytes are the golden file's
    data = Path(__file__).parent / "data"
    goldens = {p.name for pattern in GOLDEN_PATTERNS
               for p in data.glob(pattern)}
    assert goldens == set(GOLDEN_COMMANDS)
    recorded = {}
    for line in (data / "commandset.txt").read_text(
            encoding="utf-8").splitlines():
        args, code, stdout, _ = line.rsplit(" ", 3)
        recorded[args] = int(code), stdout
    assert {name: recorded.get(args)
            for name, (args, _) in GOLDEN_COMMANDS.items()} == {
        name: (code, hashlib.sha256((data / name).read_bytes()).hexdigest())
        for name, (_, code) in GOLDEN_COMMANDS.items()}
