"""Line-oriented text format for algebra inputs.

A spec file fixes the dimension, parameter names, optionally a metric
and an almost-complex matrix (defaulting to the standard neutral pair),
and the bracket rows:

    # comments run to end of line
    dimension = 6
    parameters = l1, l2, l3

    [metric]
    diag = 1, 1, 1, -1, -1, -1

    [J]
    0 0 0 -1 0 0
    ...

    [brackets]
    1 2 -> 4: l2; 5: l3
    2 3 -> 5: l1; 6: l2

Limits, checked before any algebra is built (each violation is a
:class:`~nordenlab.errors.SpecFileError`):

* the file is at most :data:`MAX_SPEC_BYTES` bytes (1 MiB);
* the dimension is at most :data:`MAX_DIMENSION` (20);
* every bracket coefficient has total degree at most :data:`MAX_DEGREE`
  (16) and at most :data:`MAX_TERMS` (64) terms.

A bracket line ``i j -> k: p; ...`` declares [X_i, X_j] = sum p * X_k with
i < j; the mirrored rows follow by antisymmetry.  The metric section takes
either a ``diag =`` line or a full symmetric matrix, one row per line.

:func:`parse_spec` and :func:`emit_spec` are inverse up to formatting;
emitting is canonical (sorted bracket rows, canonical polynomial text),
so emit-then-parse-then-emit is byte-identical.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .errors import ExponentOverflowError, PolyParseError, SpecFileError
from .lie import LieAlgebra
from .linalg import RationalMatrix
from .norden import AlmostNordenAlgebra
from .poly import VARIABLE, Poly, _shown, parse_poly
from .record import Record

_NAME = re.compile(rf"{VARIABLE}\Z")
#: Rationals as written in spec files and ``--eval``: an integer or p/q,
#: with a nonzero denominator.
RATIONAL = re.compile(r"[+-]?\d+(?:/0*[1-9]\d*)?\Z")

#: Largest accepted spec file, in bytes, checked before decoding.
MAX_SPEC_BYTES = 1 << 20
#: Largest accepted dimension: grad R alone has dimension^5 components.
MAX_DIMENSION = 20
#: Largest accepted total degree of one bracket coefficient.
MAX_DEGREE = 16
#: Most terms in one bracket coefficient: products of coefficients (the
#: isotropy check squares them) cost the product of their term counts.
MAX_TERMS = 64

BracketEntry = tuple[int, int, tuple[tuple[int, Poly], ...]]


class AlgebraSpecFile(Record):
    """Parsed, validated content of a spec file.

    ``metric`` and ``J`` are None when the file relies on the defaults
    for its dimension.
    """

    __slots__ = ("dimension", "parameters", "metric", "J", "brackets")

    def __init__(self, dimension: int, parameters: tuple[str, ...],
                 metric: RationalMatrix | None, J: RationalMatrix | None,
                 brackets: tuple[BracketEntry, ...]):
        self._fill(dimension, parameters, metric, J, brackets)

    def to_algebra(self) -> AlmostNordenAlgebra:
        rows = {(i, j): dict(targets) for i, j, targets in self.brackets}
        lie = LieAlgebra.from_brackets(self.dimension, self.parameters, rows)
        return AlmostNordenAlgebra(lie, self.metric, self.J)


def _convert(kind, token: str, lineno: int):
    """``kind(token)``, where Python's refusal (an integer of more than
    4300 digits, or a digit ``int`` does not read) is an input error."""
    try:
        return kind(token)
    except ValueError:
        raise SpecFileError(f"unreadable number {token[:20]!r} of "
                            f"{len(token)} characters", line=lineno) from None


def _fraction(token: str, lineno: int) -> Fraction:
    token = token.strip()
    if not RATIONAL.match(token):
        raise SpecFileError(f"not a rational number: {_shown(token)}",
                            line=lineno)
    return _convert(Fraction, token, lineno)


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _key_value(line: str, key: str, lineno: int) -> str:
    head, eq, tail = line.partition("=")
    if head.strip() != key or not eq:
        raise SpecFileError(f"expected '{key} = ...', got {_shown(line)}",
                            line=lineno)
    return tail.strip()


def parse_spec_text(text: str) -> AlgebraSpecFile:
    """Parse spec-file text into its validated structure."""
    lines = list(_meaningful_lines(text))
    if len(lines) < 2:
        raise SpecFileError("file must start with 'dimension =' and "
                            "'parameters =' lines")

    lineno, line = lines[0]
    dim_text = _key_value(line, "dimension", lineno)
    digits = dim_text.lstrip("0")
    if not (dim_text.isascii() and dim_text.isdigit()) or not digits:
        raise SpecFileError(f"dimension must be a positive integer, got "
                            f"{dim_text[:20]!r}", line=lineno)
    if len(digits) > 2 or int(digits) > MAX_DIMENSION:
        raise SpecFileError(f"dimension {digits[:20]} exceeds the limit of "
                            f"{MAX_DIMENSION}", line=lineno)
    dim = int(digits)
    if dim % 2:
        raise SpecFileError(f"dimension must be even for an almost "
                            f"complex structure, got {dim}", line=lineno)

    lineno, line = lines[1]
    params_text = _key_value(line, "parameters", lineno)
    parameters: tuple[str, ...] = ()
    if params_text:
        names = [p.strip() for p in params_text.split(",")]
        for name in names:
            if not _NAME.match(name):
                raise SpecFileError(f"invalid parameter name {_shown(name)}",
                                    line=lineno)
        if len(set(names)) != len(names):
            raise SpecFileError("duplicate parameter name", line=lineno)
        parameters = tuple(names)

    # Split the remainder into sections: name -> (header line, body)
    sections: dict[str, tuple[int, list[tuple[int, str]]]] = {}
    current: tuple[int, list[tuple[int, str]]] | None = None
    for lineno, line in lines[2:]:
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("metric", "J", "brackets"):
                raise SpecFileError(f"unknown section [{_shown(name, str)}]",
                                    line=lineno)
            if name in sections:
                raise SpecFileError(f"duplicate section [{name}]",
                                    line=lineno)
            current = sections[name] = (lineno, [])
        elif current is None:
            raise SpecFileError(f"content outside any section: "
                                f"{_shown(line)}", line=lineno)
        else:
            current[1].append((lineno, line))

    metric = _parse_matrix_section(sections, "metric", dim, allow_diag=True)
    J = _parse_matrix_section(sections, "J", dim, allow_diag=False)
    brackets = _parse_bracket_section(sections.get("brackets", (0, []))[1],
                                      dim, parameters)
    return AlgebraSpecFile(dim, parameters, metric, J, brackets)


def _parse_matrix_section(sections: dict, name: str, dim: int,
                          allow_diag: bool) -> RationalMatrix | None:
    if name not in sections:
        return None
    header, body = sections[name]
    if not body:
        raise SpecFileError(f"[{name}] section is empty", line=header)
    first_lineno, first = body[0]
    if allow_diag and first.startswith("diag"):
        if len(body) > 1:
            raise SpecFileError("unexpected content after 'diag =' line",
                                line=body[1][0])
        tail = _key_value(first, "diag", first_lineno)
        entries = [_fraction(tok, first_lineno) for tok in tail.split(",")]
        if len(entries) != dim:
            raise SpecFileError(
                f"diagonal has {len(entries)} entries, expected {dim}",
                line=first_lineno)
        return RationalMatrix.diagonal(entries)
    if len(body) != dim:
        raise SpecFileError(
            f"matrix section has {len(body)} rows, expected {dim}",
            line=first_lineno)
    rows = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != dim:
            raise SpecFileError(
                f"matrix row has {len(tokens)} entries, expected {dim}",
                line=lineno)
        rows.append([_fraction(tok, lineno) for tok in tokens])
    return RationalMatrix(rows)


_BRACKET_LINE = re.compile(r"(\d+)\s+(\d+)\s*->\s*(.+)\Z")


def _parse_bracket_section(body: list[tuple[int, str]], dim: int,
                           parameters: tuple[str, ...]
                           ) -> tuple[BracketEntry, ...]:
    entries: list[BracketEntry] = []
    seen_pairs: set[tuple[int, int]] = set()
    for lineno, line in body:
        m = _BRACKET_LINE.match(line)
        if not m:
            raise SpecFileError(
                f"bracket line must look like 'I J -> K: poly; ...', "
                f"got {_shown(line)}", line=lineno)
        i, j = (_convert(int, m.group(n), lineno) for n in (1, 2))
        for idx in (i, j):
            if not (1 <= idx <= dim):
                raise SpecFileError(
                    f"bracket [X{i},X{j}]: index {idx} out of range "
                    f"1..{dim}", line=lineno)
        if i >= j:
            raise SpecFileError(
                f"bracket [X{i},X{j}]: left index must be smaller than "
                f"right (the mirror row is implied)", line=lineno)
        if (i, j) in seen_pairs:
            raise SpecFileError(f"duplicate bracket row for [X{i},X{j}]",
                                line=lineno)
        seen_pairs.add((i, j))
        targets: list[tuple[int, Poly]] = []
        seen_targets: set[int] = set()
        for piece in m.group(3).split(";"):
            head, colon, poly_text = piece.partition(":")
            if not colon:
                raise SpecFileError(
                    f"bracket target must look like 'K: poly', got "
                    f"{_shown(piece.strip())}", line=lineno)
            head = head.strip()
            if not head.isdigit():
                raise SpecFileError(
                    f"bracket target index must be an integer, got "
                    f"{_shown(head)}", line=lineno)
            k = _convert(int, head, lineno)
            if not (1 <= k <= dim):
                raise SpecFileError(
                    f"bracket [X{i},X{j}]: target X{k} out of range "
                    f"1..{dim}", line=lineno)
            if k in seen_targets:
                raise SpecFileError(
                    f"bracket [X{i},X{j}]: duplicate target X{k}",
                    line=lineno)
            seen_targets.add(k)
            try:
                coeff = parse_poly(poly_text.strip(), parameters)
            except (PolyParseError, ExponentOverflowError) as exc:
                raise SpecFileError(str(exc), line=lineno) from exc
            if coeff.total_degree() > MAX_DEGREE:
                raise SpecFileError(
                    f"bracket [X{i},X{j}]: coefficient of X{k} has total "
                    f"degree {coeff.total_degree()}, above the limit of "
                    f"{MAX_DEGREE}", line=lineno)
            if len(coeff.nums) > MAX_TERMS:
                raise SpecFileError(
                    f"bracket [X{i},X{j}]: coefficient of X{k} has "
                    f"{len(coeff.nums)} terms, above the limit of "
                    f"{MAX_TERMS}", line=lineno)
            targets.append((k, coeff))
        entries.append((i, j, tuple(targets)))
    return tuple(entries)


def parse_spec(path) -> AlmostNordenAlgebra:
    """Read, parse, and fully validate a spec file from ``path``."""
    with open(path, "rb") as handle:
        data = handle.read(MAX_SPEC_BYTES + 1)
    if len(data) > MAX_SPEC_BYTES:
        raise SpecFileError(f"{path}: larger than the limit of "
                            f"{MAX_SPEC_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: not UTF-8 text (byte {exc.start})"
                            ) from exc
    return parse_spec_text(text).to_algebra()


def _format_fraction_row(row: Iterable[Fraction]) -> str:
    return " ".join(str(v) for v in row)


def _is_diagonal(m: RationalMatrix) -> bool:
    return all(m[i][j] == 0
               for i in range(m.nrows) for j in range(m.ncols) if i != j)


def emit_spec(a: AlmostNordenAlgebra) -> str:
    """Canonical spec text for an algebra; inverse of :func:`parse_spec`.

    Metric and J are always written explicitly, so the output does not
    depend on whether the algebra was built from defaults.
    """
    params_line = ("parameters = " + ", ".join(a.params)
                   if a.params else "parameters =")
    out = [f"dimension = {a.dim}", params_line]
    out.append("")
    out.append("[metric]")
    if _is_diagonal(a.g):
        out.append("diag = " + ", ".join(
            str(a.g[i][i]) for i in range(a.dim)))
    else:
        out.extend(_format_fraction_row(row) for row in a.g.rows)
    out.append("")
    out.append("[J]")
    out.extend(_format_fraction_row(row) for row in a.J.rows)
    out.append("")
    out.append("[brackets]")
    for i, j, targets in a.algebra.bracket_rows():
        body = "; ".join(f"{k}: {p}" for k, p in sorted(targets.items()))
        out.append(f"{i} {j} -> {body}")
    out.append("")
    return "\n".join(out).rstrip() + "\n"

