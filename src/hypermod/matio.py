"""Line-oriented text formats for matroids and point configurations.

Matroid documents (``.mat``)::

    # comments run to end of line
    matroid <name>
    ground <n>
    rank <r>
    flat <k>: i1 i2 ...     # one line per flat; the empty flat is "flat 0:"

Every flat of every grade must be listed — the lattice IS the
representation.  Parsing verifies the flat axioms by default, so garbage
is rejected at the boundary; serialization is canonical (grade
ascending, flats lexicographic) and byte-stable across runs.

Point documents (``.pts``)::

    points <name>
    field <p>
    dim <d>
    point: c1 ... cd        # one line per point, kept in file order

Coordinates are reduced mod p and normalized projectively on parse;
serialization of a normalized configuration round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Matroid, verify_flat_axioms
from .realize import PointConfig, is_prime


class ParseError(ValueError):
    """Malformed document; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class MatroidDocument:
    name: str
    matroid: Matroid


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _expect_header(lines, keyword: str, caster):
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise ParseError(f"missing '{keyword}' header") from None
    parts = line.split()
    if parts[0] != keyword or len(parts) != 2:
        raise ParseError(f"expected '{keyword} <value>', got {line!r}", lineno)
    try:
        return caster(parts[1])
    except ValueError:
        raise ParseError(f"bad {keyword} value {parts[1]!r}", lineno) from None


def parse_matroid_document(text: str, *, verify: bool = True) -> MatroidDocument:
    lines = _content_lines(text)
    name = _expect_header(lines, "matroid", str)
    ground = _expect_header(lines, "ground", int)
    rank = _expect_header(lines, "rank", int)
    if ground < 0 or rank < 0:
        raise ParseError("ground and rank must be nonnegative")

    # Flats are collected by grade before anything is sized by a header
    # value, so a huge ``rank`` or ``ground`` costs nothing until the flat
    # lines confirm it.
    by_grade: dict[int, list[frozenset[int]]] = {}
    count = 0
    for lineno, line in lines:
        if not line.startswith("flat"):
            raise ParseError(f"expected 'flat <k>: ...', got {line!r}", lineno)
        head, sep, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "flat" or not sep:
            raise ParseError(f"expected 'flat <k>: ...', got {line!r}", lineno)
        try:
            k = int(parts[1])
        except ValueError:
            raise ParseError(f"bad grade {parts[1]!r}", lineno) from None
        if not (0 <= k <= rank):
            raise ParseError(f"grade {k} out of range 0..{rank}", lineno)
        try:
            members = frozenset(int(tok) for tok in rest.split())
        except ValueError:
            raise ParseError(f"bad element list {rest.strip()!r}", lineno) from None
        for e in members:
            if not (0 <= e < ground):
                raise ParseError(f"element {e} out of range for ground {ground}", lineno)
        by_grade.setdefault(k, []).append(members)
        count += 1

    if rank > count:
        raise ParseError(f"rank {rank} exceeds the {count} flats listed")
    # Members are distinct and below ``ground``, so ``ground`` of them are all of it.
    if not any(len(f) == ground for f in by_grade.get(rank, ())):
        raise ParseError(f"missing rank-{rank} flat listing the whole ground set")
    if 0 not in by_grade:
        raise ParseError("missing the rank-0 flat")
    grades = [by_grade.get(k, []) for k in range(rank + 1)]
    try:
        matroid = Matroid(ground, grades, name=name)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if verify:
        report = verify_flat_axioms(matroid)
        if not report.passed:
            first = report.violations[0]
            raise ParseError(
                f"flat axioms violated ({first.axiom}): {first.detail}; "
                "pass verify=False to defer"
            )
    return MatroidDocument(name=name, matroid=matroid)


def parse_matroid(text: str, *, verify: bool = True) -> Matroid:
    """Parse a matroid document; axiom failures are parse errors by default."""
    return parse_matroid_document(text, verify=verify).matroid


def _header_name(name: str) -> str:
    """``name`` if it parses back as itself: one token without ``#``."""
    if name.split() != [name] or "#" in name:
        raise ValueError(f"name {name!r} must be one token without whitespace or '#'")
    return name


def serialize_matroid(M: Matroid, name: str | None = None) -> str:
    """Canonical document: headers, then flats grade-ascending, lexicographic.

    ValueError if the name is empty or holds whitespace or ``#``, since it
    would not parse back.
    """
    label = name if name is not None else M.name or "matroid"
    out = [
        f"matroid {_header_name(label)}",
        f"ground {M.ground_size}",
        f"rank {M.rank}",
    ]
    for k, grade in enumerate(M.flats_by_rank):
        for flat in grade:
            members = " ".join(str(e) for e in sorted(flat))
            out.append(f"flat {k}: {members}" if members else f"flat {k}:")
    return "\n".join(out) + "\n"


def parse_points(text: str) -> PointConfig:
    """Parse a point configuration; vectors are normalized projectively."""
    lines = _content_lines(text)
    name = _expect_header(lines, "points", str)
    p = _expect_header(lines, "field", int)
    dim = _expect_header(lines, "dim", int)
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if not prime:
        raise ParseError(f"field order {p} is not prime")
    vectors: list[tuple[int, ...]] = []
    for lineno, line in lines:
        head, sep, rest = line.partition(":")
        if head.strip() != "point" or not sep:
            raise ParseError(f"expected 'point: c1 ... cd', got {line!r}", lineno)
        try:
            vec = tuple(int(tok) for tok in rest.split())
        except ValueError:
            raise ParseError(f"bad coordinates {rest.strip()!r}", lineno) from None
        if len(vec) != dim:
            raise ParseError(f"point has arity {len(vec)}, expected {dim}", lineno)
        if all(c % p == 0 for c in vec):
            raise ParseError("zero vector is not a projective point", lineno)
        vectors.append(vec)
    try:
        return PointConfig(prime=p, dim=dim, points=tuple(vectors), name=name)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_points(cfg: PointConfig, name: str | None = None) -> str:
    label = name if name is not None else cfg.name or "points"
    out = [
        f"points {_header_name(label)}",
        f"field {cfg.prime}",
        f"dim {cfg.dim}",
    ]
    for vec in cfg.points:
        out.append("point: " + " ".join(str(c) for c in vec))
    return "\n".join(out) + "\n"
