"""Sparse storage end to end.

A ``Tensor`` is its nonzero map; its dense view ``components`` is kept
only for the benchmark's traced replay.  The guard makes it raise and
runs every pipeline, check and CLI command on every
fixture of ``test_reference``, rebuilt from its spec text so no cached
stage hides a reader.  The dimension-20 inputs show what sparse storage
buys: an abelian algebra stores nothing at all, and ``check`` on the
filiform chain keeps its golden FAIL lines.
"""

import pytest

from test_reference import FIXTURES
from nordenlab import (Tensor, build_table1, check_eq22, emit_spec,
                       parse_spec_text, regression_report)
from nordenlab.cli import main
from nordenlab.curvature import nabla_R_blocks
from nordenlab.report import ReportDocument, compute_report


@pytest.fixture()
def no_dense_views(monkeypatch):
    def refuse(*_):
        raise AssertionError("a dense Tensor view was read")

    monkeypatch.setattr(Tensor, "components", property(refuse))


@pytest.mark.parametrize("name", [name for name, _ in FIXTURES])
def test_pipeline_reads_no_dense_view(name, request, tmp_path, capsys):
    text = emit_spec(request.getfixturevalue(name))
    path = tmp_path / f"{name}.spec"
    path.write_text(text, encoding="utf-8")
    request.getfixturevalue("no_dense_views")
    a = parse_spec_text(text).to_algebra()
    doc = ReportDocument.from_report(compute_report(a))
    doc.to_text(), doc.to_csv(), doc.to_json()
    a = parse_spec_text(text).to_algebra()
    a.algebra.check_jacobi()
    a.check_invariant_metric()
    check_eq22(a)
    a.classify(a.tensor_F())
    for command in ("check", "classify", "curvature", "report"):
        assert main([command, str(path)]) in (0, 1)
    capsys.readouterr()


def test_table1_regression_reads_no_dense_view(no_dense_views, capsys):
    # regression_report compares against table 1, so it has one input
    assert main(["family", "--table1"]) == 0
    for command in ("check", "classify", "curvature", "report"):
        assert main([command, "--family", "table1"]) == 0
    capsys.readouterr()
    assert regression_report(build_table1()).ok


def test_abelian20_report_stores_nothing(abelian20):
    geo = compute_report(abelian20)
    assert geo.flags.w0 and geo.locally_symmetric
    assert geo.ricci_and_tau[1].is_zero and geo.nabla_j_norm.is_zero
    assert all(t.is_zero for t in geo.theta)
    assert len(geo.sectional) == 190
    assert all(value is None or value.is_zero
               for _, _, value in geo.sectional)
    a = abelian20
    tensors = [a.algebra.gamma, a.G, a.T, a.bracket_gram,
               a.algebra.jacobiator_tensor, geo.F, geo.connection, geo.R,
               geo.ricci_and_tau[0], geo.killing_form,
               *nabla_R_blocks(a, geo.connection, geo.R)]
    assert all(T.nonzero == () for T in tensors)


def test_filiform20_check_is_golden(filiform20, tmp_path, spec_fixture_path,
                                    capsys):
    path = tmp_path / "filiform20.spec"
    path.write_text(emit_spec(filiform20), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    expected = (spec_fixture_path.parent
                / "filiform20_check.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
