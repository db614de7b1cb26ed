"""Report assembly and its JSON / CSV / text renderings."""

import json

import pytest

from nordenlab import (
    Geometry,
    Poly,
    ReportDocument,
    compute_report,
    document_for,
)
from nordenlab.curvature import _block_products, nabla_R_witness

JSON_KEYS = ["classification", "theta", "ricci", "tau", "nabla_j_norm",
             "locally_symmetric", "sectional", "killing_form"]

W3_LABEL = "W3 (quasi-Kähler with Norden metric)"


@pytest.fixture(scope="module")
def fdoc(falg):
    return document_for(falg)


@pytest.fixture(scope="module")
def ndoc(family):
    return document_for(family.evaluate({"l1": 1, "l2": 1, "l3": 1}))


@pytest.fixture(scope="module")
def degenerate_plane_doc(degenerate_plane):
    return document_for(degenerate_plane)


def test_compute_report_live_objects(falg):
    report = compute_report(falg)
    assert report.flags.w3 and not report.flags.w0
    _, tau = report.ricci_and_tau
    assert isinstance(tau, Poly)
    assert tau.is_zero
    assert report.nabla_j_norm.is_zero
    assert report.locally_symmetric
    assert len(report.sectional) == 15
    pid, ptype, value = report.sectional[0]
    assert (pid, ptype) == ("a12", "totally_real")
    assert isinstance(value, Poly)


def test_document_content(fdoc):
    assert fdoc.classification["label"] == W3_LABEL
    assert fdoc.classification["w3"] is True
    assert fdoc.classification["w0"] is False
    assert fdoc.theta == ["0"] * 6
    assert fdoc.tau == "0"
    assert fdoc.nabla_j_norm == "0"
    assert fdoc.locally_symmetric is True
    assert [e["plane"] for e in fdoc.sectional] == [
        f"a{i}{j}" for i in range(1, 7) for j in range(i + 1, 7)]
    assert fdoc.ricci[0][0] == "-l3^2"
    assert fdoc.killing_form[0][0] == "4*l3^2"


def test_json_round_trip(fdoc):
    text = fdoc.to_json()
    assert text.endswith("\n")
    assert ReportDocument.from_json(text) == fdoc
    data = json.loads(text)
    assert list(data.keys()) == JSON_KEYS


def test_json_round_trip_numeric(ndoc):
    assert ReportDocument.from_json(ndoc.to_json()) == ndoc


def test_from_json_rejects_missing_keys(fdoc):
    data = json.loads(fdoc.to_json())
    del data["tau"]
    with pytest.raises(ValueError):
        ReportDocument.from_json(json.dumps(data))


def test_csv_rows_symbolic(fdoc):
    lines = fdoc.to_csv().splitlines()
    assert f"classification,{W3_LABEL}" in lines
    assert "w3,true" in lines
    assert "w0,false" in lines
    assert "theta_1,0" in lines
    assert "rho_11,-l3^2" in lines
    assert "tau,0" in lines
    assert "nabla_j_norm,0" in lines
    assert "locally_symmetric,true" in lines
    assert "type(a12),totally_real" in lines
    assert "k(a14),0" in lines
    assert "killing_11,4*l3^2" in lines
    # only the upper triangle of the symmetric matrices is listed
    assert not any(line.startswith("rho_21,") for line in lines)


def test_csv_rows_numeric(ndoc):
    lines = ndoc.to_csv().splitlines()
    assert f"classification,{W3_LABEL}" in lines
    assert "rho_11,-1" in lines
    assert "tau,0" in lines
    assert "k(a45),1/2" in lines
    assert "killing_11,4" in lines


def test_text_rendering(fdoc):
    text = fdoc.to_text()
    assert text.startswith(f"classification: {W3_LABEL}\n")
    assert "locally symmetric: true" in text
    assert "square norm of grad J: 0" in text


def test_renderings_are_deterministic(family, fdoc):
    from nordenlab import build_table1

    rebuilt = document_for(build_table1().algebra)
    assert rebuilt == fdoc
    assert rebuilt.to_json() == fdoc.to_json()
    assert rebuilt.to_csv() == fdoc.to_csv()


def test_degenerate_plane_reporting(degenerate_plane_doc):
    doc = degenerate_plane_doc
    by_plane = {e["plane"]: e for e in doc.sectional}
    assert by_plane["a12"]["type"] == "degenerate"
    assert by_plane["a12"]["k"] is None
    assert "k(a12),undefined" in doc.to_csv().splitlines()
    assert "undefined (degenerate plane)" in doc.to_text()
    assert json.loads(doc.to_json())["sectional"][0]["k"] is None
    assert ReportDocument.from_json(doc.to_json()) == doc


@pytest.mark.parametrize("name, verdict, blocks", [
    ("filiform8", False, 1), ("falg", True, 0), ("sheared", True, 0),
    ("affine6", True, 6)])
def test_local_symmetry_stops_at_first_nonzero_block(name, verdict, blocks,
                                                     monkeypatch, request):
    calls, reached = [], []

    def counted_witness(*args):
        calls.append(nabla_R_witness(*args))
        return calls[-1]

    def counted_block(*args):
        reached.append(args)
        return _block_products(*args)

    # Jacobi and an ad-skew metric (falg, sheared) decide it by theorem,
    # with no call to the witness; affine6's metric is not ad-skew, so
    # its zero is computed from all six blocks' products
    monkeypatch.setattr("nordenlab.report.nabla_R_witness", counted_witness)
    monkeypatch.setattr("nordenlab.curvature._block_products", counted_block)
    geo = Geometry(request.getfixturevalue(name))
    assert geo.locally_symmetric is verdict
    assert len(reached) == blocks
    assert calls == ([] if blocks == 0 else [geo.nabla_R_witness])
    if not verdict:
        assert geo.nabla_R_witness[0] == blocks - 1
