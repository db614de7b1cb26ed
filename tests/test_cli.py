"""End-to-end CLI behavior: exit codes, output text, error channel."""

import json

import pytest

from nordenlab import AlmostNordenAlgebra, curvature, report
from nordenlab.cli import main

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


# -- check -----------------------------------------------------------------

def test_check_family_all_ok(capsys):
    assert main(["check", "--family", "table1"]) == 0
    assert capsys.readouterr().out == CHECK_OK


def test_check_fixture_file(spec_fixture_path, capsys):
    assert main(["check", str(spec_fixture_path)]) == 0
    assert capsys.readouterr().out == CHECK_OK


def test_check_perturbed_spec_names_identity(perturbed_spec, capsys):
    assert main(["check", str(perturbed_spec)]) == 1
    out = capsys.readouterr().out
    assert "jacobi: FAIL" in out
    assert "invariant-metric: FAIL" in out
    assert "norden: ok" in out
    assert "g([X2,X3],X5) + g([X2,X5],X3) = -1" in out


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
    monkeypatch.setattr(report, "nabla_R", refuse)
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


def test_family_emit_spec_matches_fixture(spec_fixture_path, capsys):
    assert main(["family", "--table1", "--emit-spec"]) == 0
    assert capsys.readouterr().out == spec_fixture_path.read_text(
        encoding="utf-8")
