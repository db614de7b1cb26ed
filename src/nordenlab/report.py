"""The stage graph of one algebra, the report built on it, and its
serialization.

:class:`Geometry` owns the wiring of the pipeline: each derived object
(F, the class flags, the Lie form, the connection, R, Ricci and scalar
curvature, the norm of grad J, local symmetry, the sectional table and
the Killing form) is computed on first use from its upstream stages and
kept.  The report is a ``Geometry``: :func:`compute_report` builds every
stage of one and returns it.

:class:`ReportDocument` is the same content flattened to strings and
booleans, with text, CSV, and JSON renderings.  The JSON form
round-trips losslessly; all renderings are byte-deterministic because
polynomial text is canonical.
"""

from __future__ import annotations

import json
from functools import cached_property

from .curvature import (
    ConnectionCoeffs,
    coordinate_sectional,
    curvature_R,
    levi_civita,
    nabla_R_witness,
    ricci_and_scalar,
    square_norm_nabla_J,
)
from .linalg import PolyMatrix, Tensor
from .norden import AlmostNordenAlgebra, ClassFlags, Covector
from .poly import Poly
from .record import Record

SectionalTable = tuple[tuple[str, str, Poly | None], ...]


class Geometry:
    """Every derived object of one algebra, each computed once on first use.

    A stage reads its upstream stages from this object, so F, the
    connection and R are built at most once however many consumers ask:

        F           -> theta, flags (with theta), nabla_j_norm
        connection  -> R -> ricci_and_tau, sectional, nabla_R_witness
        killing_form

    ``locally_symmetric`` is True by theorem where Jacobi holds and g is
    ad-skew (grad = ad/2 is a derivation: Milnor, Adv. Math. 21, 1976,
    section 7; O'Neill, Semi-Riemannian Geometry, 1983, ch. 11); else
    grad R is summed one component at a time up to the first nonzero
    one, ``nabla_R_witness``, which ``locally_symmetric`` reads.
    """

    def __init__(self, a: AlmostNordenAlgebra):
        self.algebra = a

    @cached_property
    def F(self) -> Tensor:
        return self.algebra.tensor_F()

    @cached_property
    def flags(self) -> ClassFlags:
        return self.algebra.classify(self.F, self.theta)

    @cached_property
    def theta(self) -> Covector:
        return self.algebra.lie_form(self.F)

    @cached_property
    def nabla_j_norm(self) -> Poly:
        return square_norm_nabla_J(self.algebra, self.F)

    @cached_property
    def connection(self) -> ConnectionCoeffs:
        return levi_civita(self.algebra)

    @cached_property
    def R(self) -> Tensor:
        return curvature_R(self.algebra, self.connection)

    @cached_property
    def ricci_and_tau(self) -> tuple[PolyMatrix, Poly]:
        return ricci_and_scalar(self.algebra, self.R)

    @cached_property
    def nabla_R_witness(self) -> tuple[int, ...] | None:
        """grad R's first nonzero component, 0-based (i, j, k, l, m), or
        None: by the theorem, with nothing computed, where it holds."""
        a = self.algebra
        if a.algebra.jacobiator_tensor.is_zero and a._ad_skew:
            return None
        return nabla_R_witness(a, self.connection, self.R)

    @cached_property
    def locally_symmetric(self) -> bool:
        return self.nabla_R_witness is None

    @cached_property
    def sectional(self) -> SectionalTable:
        """One (plane-id, plane-type, value) triple per coordinate plane
        span{X_i, X_j}, i < j; the value is None exactly for metrically
        degenerate planes, where sectional curvature is undefined."""
        return tuple((f"a{i + 1}{j + 1}", ptype, value) for i, j, ptype, value
                     in coordinate_sectional(self.algebra, self.R))

    @cached_property
    def killing_form(self) -> PolyMatrix:
        return self.algebra.algebra.killing_form()


def compute_report(a: AlmostNordenAlgebra) -> Geometry:
    """One :class:`Geometry` of ``a`` with every stage built."""
    geo = Geometry(a)
    for name, attr in vars(Geometry).items():
        if isinstance(attr, cached_property):
            getattr(geo, name)
    return geo


def _rows_text(M: PolyMatrix) -> list[list[str]]:
    """The text of every entry of ``M``, row by row."""
    return [[str(M.at((i, j))) for j in range(M.dim)] for i in range(M.dim)]


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _curvature_lines(ricci, tau, sectional, between=()) -> list[str]:
    """The ricci rows (entry texts), ``tau:``, the ``between`` lines and
    the sectional table of (plane, type, value) triples, value None for a
    degenerate plane: the layout ``curvature`` and the text report share."""
    lines = ["ricci:"]
    lines.extend("  " + "  ".join(row) for row in ricci)
    lines.append(f"tau: {tau}")
    lines.extend(between)
    lines.append("sectional curvatures:")
    for plane, ptype, value in sectional:
        shown = "undefined (degenerate plane)" if value is None else value
        lines.append(f"  {plane}  {ptype}  {shown}")
    return lines


class ReportDocument(Record):
    """String-level report with deterministic renderings.

    Field layout matches the JSON object: classification (label and the
    four flags), theta (component texts), ricci and killing_form (row
    lists of entry texts), tau and nabla_j_norm (scalar texts),
    locally_symmetric, sectional (one object per plane, ``k`` null for
    degenerate planes).
    """

    __slots__ = ("classification", "theta", "ricci", "tau", "nabla_j_norm",
                 "locally_symmetric", "sectional", "killing_form")

    def __init__(self, classification: dict | None = None,
                 theta: list | None = None, ricci: list | None = None,
                 tau: str = "0", nabla_j_norm: str = "0",
                 locally_symmetric: bool = True,
                 sectional: list | None = None,
                 killing_form: list | None = None):
        self._fill({} if classification is None else classification,
                   [] if theta is None else theta,
                   [] if ricci is None else ricci, tau, nabla_j_norm,
                   locally_symmetric, [] if sectional is None else sectional,
                   [] if killing_form is None else killing_form)

    @classmethod
    def from_report(cls, geo: Geometry) -> ReportDocument:
        flags = geo.flags
        rho, tau = geo.ricci_and_tau
        return cls(
            classification={"label": flags.label(), **flags.as_dict()},
            theta=[str(t) for t in geo.theta],
            ricci=_rows_text(rho),
            tau=str(tau),
            nabla_j_norm=str(geo.nabla_j_norm),
            locally_symmetric=geo.locally_symmetric,
            sectional=[
                {"plane": pid, "type": ptype,
                 "k": None if value is None else str(value)}
                for pid, ptype, value in geo.sectional
            ],
            killing_form=_rows_text(geo.killing_form),
        )

    # -- renderings --------------------------------------------------------

    def to_json(self) -> str:
        payload = dict(zip(self.__slots__, self._values()))
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ReportDocument:
        data = json.loads(text)
        missing = set(cls.__slots__) - set(data)
        if missing:
            raise ValueError(
                f"report document lacks keys: {sorted(missing)}")
        return cls(*(data[key] for key in cls.__slots__))

    def to_csv(self) -> str:
        rows: list[tuple[str, str]] = []
        rows.append(("classification", self.classification["label"]))
        for flag in ("w0", "w1", "w2", "w3"):
            rows.append((flag, _bool_text(self.classification[flag])))
        for i, value in enumerate(self.theta, start=1):
            rows.append((f"theta_{i}", value))
        dim = len(self.ricci)
        for i in range(dim):
            for j in range(i, dim):
                rows.append((f"rho_{i + 1}{j + 1}", self.ricci[i][j]))
        rows.append(("tau", self.tau))
        rows.append(("nabla_j_norm", self.nabla_j_norm))
        rows.append(("locally_symmetric",
                     _bool_text(self.locally_symmetric)))
        for entry in self.sectional:
            rows.append((f"type({entry['plane']})", entry["type"]))
            value = entry["k"]
            rows.append((f"k({entry['plane']})",
                         "undefined" if value is None else value))
        for i in range(dim):
            for j in range(i, dim):
                rows.append((f"killing_{i + 1}{j + 1}",
                             self.killing_form[i][j]))
        return "".join(f"{key},{value}\n" for key, value in rows)

    def to_text(self) -> str:
        lines = [f"classification: {self.classification['label']}"]
        lines.append("  " + "  ".join(
            f"{flag}={_bool_text(self.classification[flag])}"
            for flag in ("w0", "w1", "w2", "w3")))
        lines.append("lie form theta: " + "  ".join(self.theta))
        lines.extend(_curvature_lines(
            self.ricci, self.tau,
            [(e["plane"], e["type"], e["k"]) for e in self.sectional],
            (f"square norm of grad J: {self.nabla_j_norm}",
             f"locally symmetric: {_bool_text(self.locally_symmetric)}")))
        lines.append("killing form:")
        lines.extend("  " + "  ".join(row) for row in self.killing_form)
        return "\n".join(lines) + "\n"


def document_for(a: AlmostNordenAlgebra) -> ReportDocument:
    """compute_report + flattening in one call."""
    return ReportDocument.from_report(compute_report(a))
