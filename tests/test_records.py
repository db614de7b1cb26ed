"""The package's value records: plain ``__slots__`` classes with the
constructor signatures, attributes, equality, hashing and immutability of
frozen records, and no ``dataclasses`` import in a CLI process.
Polynomials, matrices, tensors (a canonically stored R too) and algebras
refuse assignment and deletion alike and still read as before.  Records,
polynomials, matrices, tensors and algebras copy and pickle through
their validating constructors, and an algebra's copy gives the same
report.  A cached stage is built on its first read, and no copy carries
it.  That protocol is declared once, by ``record.Frozen``: polynomials,
matrices, Lie algebras and records of hashable fields hash, and tensors
and almost Norden algebras do not."""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from nordenlab import (AlmostNordenAlgebra, CheckResult, ClassFlags,
                       LieAlgebra, PlaneSpec, Poly, PolyMatrix,
                       RationalMatrix, RegressionCheck, RegressionReport,
                       Table1Family, Tensor, build_table1, curvature_R,
                       emit_spec, levi_civita, parse_spec_text)
from nordenlab.curvature import _SlotSymmetric
from nordenlab.errors import DimensionMismatchError
from nordenlab.record import Frozen, Record
from nordenlab.report import ReportDocument, compute_report, document_for
from test_reference import FIXTURES
from nordenlab.specfile import AlgebraSpecFile

ALGEBRA = AlmostNordenAlgebra(LieAlgebra.abelian(2, ()))
CHECK = RegressionCheck("tau", "tau", "0", "0", True)

#: (class, constructor parameter names, positional arguments)
RECORDS = [
    (CheckResult, ["ok", "violations"], (False, ((1, 2, 3),))),
    (ClassFlags, ["w0", "w1", "w2", "w3"], (False, True, False, True)),
    (PlaneSpec, ["x", "y"], ((Fraction(1), Fraction(0)),
                             (Fraction(0), Fraction(1, 2)))),
    (Table1Family, ["params", "algebra"], (("a", "b", "c"), ALGEBRA)),
    (RegressionCheck, ["group", "item", "expected", "computed", "passed"],
     ("tau", "tau", "0", "0", True)),
    (RegressionReport, ["checks"], ((CHECK,),)),
    (ReportDocument, ["classification", "theta", "ricci", "tau",
                      "nabla_j_norm", "locally_symmetric", "sectional",
                      "killing_form"],
     ({"label": "W0"}, ["0"], [["0"]], "0", "0", True, [], [["0"]])),
    (AlgebraSpecFile, ["dimension", "parameters", "metric", "J",
                       "brackets"], (2, (), None, None, ())),
]


@pytest.mark.parametrize("cls, names, args", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_fields_equality_and_immutability(cls, names, args):
    assert list(inspect.signature(cls).parameters) == names
    record = cls(*args)
    assert [getattr(record, name) for name in names] == list(args)
    assert record == cls(**dict(zip(names, args)))
    other = cls(*args[:-1], (0, 2) if cls is PlaneSpec else "other")
    assert record != other
    assert record != tuple(args)
    assert record.__eq__(tuple(args)) is NotImplemented
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert not hasattr(record, "__dict__")
    assert repr(record).startswith(f"{cls.__name__}({names[0]}=")
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    try:
        hash(args)
    except TypeError:  # a field value is unhashable: so is the record
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*args))


def round_trips(obj):
    return copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("name", [name for name, _ in FIXTURES])
def test_algebras_copy_and_pickle_through_their_constructors(name, request):
    a = request.getfixturevalue(name)
    report = document_for(a)
    for copied in round_trips(a):
        assert copied == a and copied is not a
        assert document_for(copied) == report  # a Geometry of the copy


def test_family_and_stages_copy_and_pickle():
    family = build_table1()
    geo = compute_report(family.algebra)
    parts = [family, geo.F, geo.connection, geo.R, geo.killing_form,
             geo.ricci_and_tau[1], family.algebra.g, family.algebra.algebra]
    for obj in parts:
        for copied in round_trips(obj):
            assert type(copied) is type(obj) and copied == obj
    copied = copy.deepcopy(family)
    assert compute_report(copied.algebra).R == geo.R


def cached_stages(obj) -> set[str]:
    """The names of the ``cached_property`` stages stored on ``obj``."""
    return {name for name in vars(obj)
            if isinstance(getattr(type(obj), name, None), cached_property)}


def test_stages_are_built_once_on_first_read_and_never_copied():
    a = parse_spec_text(emit_spec(build_table1().algebra)).to_algebra()
    tensor = Tensor(("t",), 2, 1, {(1,): Poly.variable("t", ("t",))})
    matrix = RationalMatrix([[0, 1], [1, 0]])
    stages = [
        (a, ("G", "T", "bracket_gram", "_ad_skew", "_invariance")),
        (a.algebra, ("jacobiator_tensor",)),
        (tensor, ("nonzero",)),
        (matrix, ("nonzero_columns",)),
    ]
    for obj, names in stages:
        assert not cached_stages(obj), obj
        first = [getattr(obj, name) for name in names]
        assert cached_stages(obj) == set(names)
        assert all(getattr(obj, name) is stage
                   for name, stage in zip(names, first))
        for copied in round_trips(obj):
            assert copied == obj and not cached_stages(copied), obj
    assert a.check_invariant_metric() is a._invariance


def heisenberg6():
    text = (Path(__file__).parent / "data" / "heisenberg6.spec").read_text(
        encoding="utf-8")
    return parse_spec_text(text).to_algebra()


def canonical_R():
    a = heisenberg6()
    R = curvature_R(a, levi_civita(a))
    assert type(R) is _SlotSymmetric
    return R


TVAR = Poly.variable("t", ("t",))
TENSOR_FIELDS = ("dim", "rank", "params", "_entries", "_zero", "nonzero")

#: Each immutable value class that is not a Record: a builder, the class
#: its refusals name, and the attributes to delete (the constructor's,
#: then cached stages, each read first).
FROZEN = {
    "Poly": (lambda: TVAR + 1, "Poly", ("params", "nums", "den")),
    "RationalMatrix": (lambda: RationalMatrix([[0, 1], [1, 0]]),
                       "RationalMatrix", ("rows", "nonzero_columns")),
    "Tensor": (lambda: Tensor(("t",), 2, 1, {(1,): TVAR}), "Tensor",
               TENSOR_FIELDS),
    "PolyMatrix": (lambda: PolyMatrix(("t",), 2, 2, {(0, 1): TVAR}), "Tensor",
                   TENSOR_FIELDS),
    "canonical R": (canonical_R, "Tensor", TENSOR_FIELDS + ("_minus",)),
    "LieAlgebra": (lambda: heisenberg6().algebra, "LieAlgebra",
                   ("dim", "params", "gamma", "jacobiator_tensor")),
    "AlmostNordenAlgebra": (heisenberg6, "AlmostNordenAlgebra",
                            ("algebra", "g", "J", "g_inv", "_gJ", "G")),
}


@pytest.mark.parametrize("case", FROZEN)
def test_deleting_an_attribute_is_refused(case):
    build, owner, names = FROZEN[case]
    obj, twin = build(), build()
    message = f"^{owner} is immutable$"
    for name in names:
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=message):
            delattr(obj, name)
        with pytest.raises(AttributeError, match=message):
            setattr(obj, name, None)
        assert getattr(obj, name) is before
        assert before == getattr(twin, name)
    assert obj == twin and repr(obj) == repr(twin)


#: Whether each value class hashes: equal values hash alike where it does.
HASHABLE = {"Poly": True, "RationalMatrix": True, "Tensor": False,
            "PolyMatrix": False, "canonical R": False, "LieAlgebra": True,
            "AlmostNordenAlgebra": False, "ConnectionCoeffs": False}
BUILDERS = {case: build for case, (build, _, _) in FROZEN.items()}
BUILDERS["ConnectionCoeffs"] = lambda: levi_civita(heisenberg6())


@pytest.mark.parametrize("case", HASHABLE)
def test_hashability_and_equality_with_another_type(case):
    build = BUILDERS[case]
    obj = build()
    assert isinstance(obj, Frozen)
    if HASHABLE[case]:
        assert hash(obj) == hash(build())
    else:
        with pytest.raises(TypeError):
            hash(obj)
    assert obj.__eq__("other") is NotImplemented
    assert obj != "other" and not obj == "other"


def test_the_value_protocol_is_defined_in_record_py_alone():
    protocol = {"__setattr__", "__delattr__", "__reduce__"}
    found = set()
    for path in sorted(Path(inspect.getfile(Frozen)).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found |= {(path.name, name) for name in names if name in protocol}
    assert found == {("record.py", name) for name in protocol}
    assert all(issubclass(cls, Record) for cls, _, _ in RECORDS)


def test_record_defaults_and_conversions():
    assert CheckResult(True) == CheckResult(True, ())
    assert not CheckResult(False) and CheckResult(True)
    empty = ReportDocument()
    assert empty.classification == {} and empty.theta == []
    assert empty.classification is not ReportDocument().classification
    assert (empty.tau, empty.nabla_j_norm, empty.locally_symmetric) == (
        "0", "0", True)
    plane = PlaneSpec((1, "1/2"), (0, 3))
    assert plane.x == (Fraction(1), Fraction(1, 2))
    assert all(type(v) is Fraction for v in plane.x + plane.y)
    with pytest.raises(DimensionMismatchError):
        PlaneSpec((1, 0), (0, 1, 0))


def test_cli_process_does_not_import_dataclasses():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, nordenlab.cli; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
