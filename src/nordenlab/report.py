"""The stage graph of one algebra, the report built on it, and its
serialization.

:class:`Geometry` owns the wiring of the pipeline: each derived object
(F, the class flags, the Lie form, the connection, R, Ricci and scalar
curvature, the norm of grad J, local symmetry, the sectional table and
the Killing form) is computed on first use from its upstream stages and
kept.  :func:`compute_report` reads every stage of one ``Geometry`` and
returns a :class:`GeometryReport` of live objects.

:class:`ReportDocument` is the same content flattened to strings and
booleans, with text, CSV, and JSON renderings.  The JSON form
round-trips losslessly; all renderings are byte-deterministic because
polynomial text is canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .curvature import (
    ConnectionCoeffs,
    coordinate_plane,
    curvature_R,
    is_locally_symmetric,
    levi_civita,
    nabla_R,
    plane_type,
    ricci_and_scalar,
    sectional_curvature,
    square_norm_nabla_J,
)
from .errors import DegeneratePlaneError
from .linalg import PolyMatrix
from .norden import AlmostNordenAlgebra, ClassFlags, Covector, Tensor
from .poly import Poly

SectionalTable = tuple[tuple[str, str, Poly | None], ...]


class Geometry:
    """Every derived object of one algebra, each computed once on first use.

    A stage reads its upstream stages from this object, so F, the
    connection and R are built at most once however many consumers ask:

        F           -> flags, theta, nabla_j_norm
        connection  -> R -> ricci_and_tau, sectional, locally_symmetric
        killing_form

    ``locally_symmetric`` keeps only the verdict; the rank-5 array of
    grad R is dropped as soon as it has been scanned.
    """

    def __init__(self, a: AlmostNordenAlgebra):
        self.algebra = a

    @cached_property
    def F(self) -> Tensor:
        return self.algebra.tensor_F()

    @cached_property
    def flags(self) -> ClassFlags:
        return self.algebra.classify(self.F)

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
    def locally_symmetric(self) -> bool:
        return is_locally_symmetric(
            nabla_R(self.algebra, self.connection, self.R))

    @cached_property
    def sectional(self) -> SectionalTable:
        """One (plane-id, plane-type, value) triple per coordinate plane
        span{X_i, X_j}, i < j; the value is None exactly for metrically
        degenerate planes, where sectional curvature is undefined."""
        a = self.algebra
        table = []
        for i in range(1, a.dim + 1):
            for j in range(i + 1, a.dim + 1):
                plane = coordinate_plane(a.dim, i, j)
                try:
                    value = sectional_curvature(a, self.R, plane)
                except DegeneratePlaneError:
                    value = None
                table.append((f"a{i}{j}", plane_type(a, plane), value))
        return tuple(table)

    @cached_property
    def killing_form(self) -> PolyMatrix:
        return self.algebra.algebra.killing_form()


@dataclass(frozen=True)
class GeometryReport:
    """All derived geometry of one algebra, as live polynomial objects;
    ``sectional`` is laid out as :attr:`Geometry.sectional`."""

    flags: ClassFlags
    theta: Covector
    ricci: PolyMatrix
    tau: Poly
    nabla_j_norm: Poly
    locally_symmetric: bool
    sectional: SectionalTable
    killing_form: PolyMatrix


def compute_report(a: AlmostNordenAlgebra) -> GeometryReport:
    """Run every pipeline stage once and aggregate the results."""
    geo = Geometry(a)
    rho, tau = geo.ricci_and_tau
    return GeometryReport(
        flags=geo.flags,
        theta=geo.theta,
        ricci=rho,
        tau=tau,
        nabla_j_norm=geo.nabla_j_norm,
        locally_symmetric=geo.locally_symmetric,
        sectional=geo.sectional,
        killing_form=geo.killing_form,
    )


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


@dataclass(frozen=True)
class ReportDocument:
    """String-level report with deterministic renderings.

    Field layout matches the JSON object: classification (label and the
    four flags), theta (component texts), ricci and killing_form (row
    lists of entry texts), tau and nabla_j_norm (scalar texts),
    locally_symmetric, sectional (one object per plane, ``k`` null for
    degenerate planes).
    """

    classification: dict = field(default_factory=dict)
    theta: list = field(default_factory=list)
    ricci: list = field(default_factory=list)
    tau: str = "0"
    nabla_j_norm: str = "0"
    locally_symmetric: bool = True
    sectional: list = field(default_factory=list)
    killing_form: list = field(default_factory=list)

    @classmethod
    def from_report(cls, report: GeometryReport) -> ReportDocument:
        flags = report.flags
        return cls(
            classification={
                "label": flags.label(),
                "w0": flags.w0, "w1": flags.w1,
                "w2": flags.w2, "w3": flags.w3,
            },
            theta=[str(t) for t in report.theta],
            ricci=[[str(v) for v in row] for row in report.ricci.grid],
            tau=str(report.tau),
            nabla_j_norm=str(report.nabla_j_norm),
            locally_symmetric=report.locally_symmetric,
            sectional=[
                {"plane": pid, "type": ptype,
                 "k": None if value is None else str(value)}
                for pid, ptype, value in report.sectional
            ],
            killing_form=[[str(v) for v in row]
                          for row in report.killing_form.grid],
        )

    # -- renderings --------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "classification": self.classification,
            "theta": self.theta,
            "ricci": self.ricci,
            "tau": self.tau,
            "nabla_j_norm": self.nabla_j_norm,
            "locally_symmetric": self.locally_symmetric,
            "sectional": self.sectional,
            "killing_form": self.killing_form,
        }
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ReportDocument:
        data = json.loads(text)
        expected = {"classification", "theta", "ricci", "tau",
                    "nabla_j_norm", "locally_symmetric", "sectional",
                    "killing_form"}
        missing = expected - set(data)
        if missing:
            raise ValueError(
                f"report document lacks keys: {sorted(missing)}")
        return cls(**{key: data[key] for key in expected})

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
        lines.append("ricci:")
        lines.extend("  " + "  ".join(row) for row in self.ricci)
        lines.append(f"tau: {self.tau}")
        lines.append(f"square norm of grad J: {self.nabla_j_norm}")
        lines.append("locally symmetric: "
                     + _bool_text(self.locally_symmetric))
        lines.append("sectional curvatures:")
        for entry in self.sectional:
            value = entry["k"]
            shown = "undefined (degenerate plane)" if value is None else value
            lines.append(f"  {entry['plane']}  {entry['type']}  {shown}")
        lines.append("killing form:")
        lines.extend("  " + "  ".join(row) for row in self.killing_form)
        return "\n".join(lines) + "\n"


def document_for(a: AlmostNordenAlgebra) -> ReportDocument:
    """compute_report + flattening in one call."""
    return ReportDocument.from_report(compute_report(a))
