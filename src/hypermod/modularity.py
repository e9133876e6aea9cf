"""Modular pairs, defects, modular/hypermodular decisions, defect totals.

The modular defect of two flats A, B is r(A) + r(B) - r(A∪B) - r(A∩B),
nonnegative by submodularity.  A matroid is modular when every pair of
flats has defect zero and hypermodular (defined for rank >= 3) when
every pair of corank-1 flats does.  For loopless rank-4 matroids the
gap between the two notions is witnessed exactly by disjoint
(rank-3, rank-2) flat pairs, which is what :func:`disjoint_rank32_pairs`
enumerates and the extension machinery repairs.

Defects are defined only between flats; close arbitrary sets first.

The pair table of :mod:`hypermod.core` is the one kernel that lists
pair defects (:func:`_defective_pairs`).  It meets every flat with every
other and is exact on any family the constructor accepts, lattice or
not, of any rank.  A loopless rank-4 matroid that carries a passing flat
report, stored by parsing, by :func:`hypermod.core.verify_flat_axioms`
or by :func:`hypermod.extension.extend_once`, is the lattice of flats of
a matroid, so its positive pairs are of three kinds only, and their
numbers follow from point, line and plane incidence counts
(:func:`total_modular_defect`).  Such matroids are what a completion
visits: a parsed input, and every extension.  Their total, flag count
and hypermodularity verdict are counted off the up-set rows, with no
pair listed; on PG(3,5) less two points the pair table visits 627 000
pairs to find 2 480, where the counts read the rows of its 960 points
and lines.  A witness of such a matroid that is not hypermodular is the
first pair of planes sharing no line (:func:`_first_apart_planes`).
Their pairs are listed off the pair table, and their disjoint flags by
:func:`_walk_flags`, only when a caller reads them.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .core import ElementSet, Matroid, _bits, _defect_block, _defect_by_index, _upper_cells, pair_key
from .core import _BLOCK_BYTES, _has_passing_flat_report, _unpacked


class DefectReport:
    """All strictly positive pair defects, their sum, and the disjoint flags.

    ``pair_defects`` maps canonically ordered flat pairs to their defect;
    zero-defect pairs are omitted, since they add nothing to ``total``.  For
    loopless rank-4 matroids ``disjoint_flags`` lists the disjoint
    (rank-3, rank-2) pairs; it is empty for other ranks.  ``flag_count`` is
    their number.

    ``DefectReport(pair_defects, total, disjoint_flags)`` holds all three.
    A report counted off incidences holds ``total`` and ``flag_count``; it
    lists ``pair_defects`` off the pair table and ``disjoint_flags`` by
    :func:`_walk_flags` when they are first read.  The fields are
    read-only: assigning one raises
    :class:`dataclasses.FrozenInstanceError`.  Two reports are equal when
    their pairs, totals and flags are.
    """

    def __init__(self, pair_defects: dict, total: int, disjoint_flags: tuple) -> None:
        vars(self).update(
            pair_defects=pair_defects, total=total, disjoint_flags=disjoint_flags, flag_count=len(disjoint_flags)
        )

    @classmethod
    def _counted(cls, M: Matroid, total: int, flag_count: int) -> "DefectReport":
        """The report of ``M``, which :func:`_by_incidence` accepts, listing nothing yet.

        It keeps the rows ``M`` was set from, not ``M``, whose cache holds
        the report: so no reference cycle keeps ``M`` alive.
        """
        report = cls.__new__(cls)
        rows = (M.ground_size, M.flats_by_rank, (M._flat_masks, M._elem_flatbits, M._sup_bits))
        vars(report).update(total=total, flag_count=flag_count, _rows=rows)
        return report

    def _lattice(self) -> Matroid:
        """A matroid set from the kept rows, with an empty cache; each listing builds its own."""
        M = Matroid.__new__(Matroid)
        M._set_rows(*self._rows)
        return M

    @cached_property
    def pair_defects(self) -> dict[tuple[ElementSet, ElementSet], int]:
        return {pair_key(a, b): d for a, b, d in _defective_pairs(self._lattice())}

    @cached_property
    def disjoint_flags(self) -> tuple[tuple[ElementSet, ElementSet], ...]:
        return tuple(_walk_flags(self._lattice()))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefectReport):
            return NotImplemented
        return (self.pair_defects, self.total, self.disjoint_flags) == (
            other.pair_defects, other.total, other.disjoint_flags
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DefectReport(total={self.total}, flag_count={self.flag_count})"


def _defective_pairs(
    M: Matroid, grade: int | None = None
) -> Iterator[tuple[ElementSet, ElementSet, int]]:
    """Pairs of distinct flats with nonzero defect, as ``(A, B, defect)``.

    Scans every flat, or only the flats of one grade, in the global flat
    order with A before B, lazily per block of rows of the pair table.
    """
    starts = M._grade_starts
    lo, hi = (0, starts[-1]) if grade is None else (starts[grade], starts[grade + 1])
    flats = M._flat_list
    for i, j, d in _upper_cells(M, lo, hi, _defect_block):
        yield flats[i], flats[j], d


def modular_defect(M: Matroid, a, b) -> int:
    """Defect r(A) + r(B) - r(A∪B) - r(A∩B) of two flats."""
    return _defect_by_index(M, M._flat_index(a), M._flat_index(b))


def is_modular_pair(M: Matroid, a, b) -> bool:
    return modular_defect(M, a, b) == 0


def is_modular_flat(M: Matroid, flat) -> bool:
    """Whether the flat has defect zero against every flat of the matroid."""
    i = M._flat_index(flat)
    return not _defect_block(M, i, i + 1, 0, len(M._flat_masks)).any()


def is_modular(M: Matroid) -> bool:
    """Whether every pair of flats is modular."""
    return total_modular_defect(M).total == 0


def hypermodularity_witness(M: Matroid) -> tuple[ElementSet, ElementSet] | None:
    """First (canonical order) non-modular pair of corank-1 flats, or None."""
    if M.rank < 3:
        raise ValueError(f"hypermodularity is defined for rank >= 3, got rank {M.rank}")
    if "hm_witness" not in M._cache:
        if _by_incidence(M):
            witness = None if _incidence_counts(M).hypermodular else _first_apart_planes(M)
        else:
            first = next(_defective_pairs(M, M.rank - 1), None)
            witness = None if first is None else first[:2]
        M._cache["hm_witness"] = witness
    return M._cache["hm_witness"]


def is_hypermodular(M: Matroid) -> bool:
    """Whether every pair of corank-1 flats is modular (rank >= 3 only)."""
    return hypermodularity_witness(M) is None


def total_modular_defect(M: Matroid) -> DefectReport:
    """Sum of defects over all unordered pairs of distinct flats.

    The pairs are listed off the pair table in the global flat order, A
    before B, and keyed canonically.  A loopless rank-4 matroid that
    carries a passing flat report has positive pairs of three kinds only;
    its total and its flag count are counted off incidences
    (:func:`_incidence_counts`), and its pairs and flags are listed only
    when first read.  Any other matroid is scanned over the pair table.

    Proof of the three kinds.  A family that passes F1, F2 and grading is
    the lattice of flats of a matroid, graded by height (Oxley, *Matroid
    Theory*, §1.4); the join J of flats A, B is cl(A ∪ B) and their meet
    G = A ∩ B is a flat, so the defect g(A) + g(B) - g(J) - g(G) is
    nonnegative by R3.  Nested pairs have defect zero.  Otherwise J
    strictly holds both flats and G lies strictly inside both, so
    g(J) >= max(g(A), g(B)) + 1 and the defect is at most
    min(g(A), g(B)) - 1 - g(G).  With the bottom flat ∅ (loopless),
    g(G) = 0 exactly when A and B are disjoint.  So a point, the bottom
    or the top flat is in no positive pair, and a pair holding a line is
    positive only when disjoint, with defect 1 at most:

    * two disjoint lines have defect 4 - g(J), which is 1 when J is a
      plane, that is, when they are coplanar, and 0 when J is the top;
    * a disjoint plane and line join in the top flat: defect 1;
    * two distinct planes join in the top flat, with defect 2 - g(G):
      positive when they share no line, 2 when disjoint and 1 when they
      meet in a point.

    Proof of the counts.  Write X, L, P for the points, lines and planes;
    c_L and n_L for the planes above and the points below a line L; d_x
    and m_x for the planes and the lines above a point x; k_P for the
    lines below a plane P.  The meet of two flats strictly inside both is
    ∅ or a point when one of them is a line, and ∅, a point or a line
    when both are planes.

    * Flags.  A plane P and a line L ⊄ P meet in ∅ or in exactly one
      point.  The pairs (P, L) with a point x in both number
      Σ_x m_x·d_x; a pair with L ⊆ P is among them n_L times, and one
      meeting in a point once.  So |L|·|P| - Σ_L c_L - Σ_x m_x·d_x
      + Σ_L n_L·c_L pairs are disjoint.
    * Disjoint coplanar lines.  Two distinct lines lie in at most one
      common plane, since two planes holding both would hold their join,
      of grade 3, so Σ_P C(k_P, 2) counts the coplanar pairs once each.
      Two distinct lines through a point x meet only in x, and by R3
      their join has grade at most 2 + 2 - 1 = 3, so they are coplanar:
      Σ_x C(m_x, 2) of those pairs meet, and the rest are disjoint.
    * Plane pairs.  Two distinct planes share at most one line, their
      meet, so A2 = Σ_L C(c_L, 2) pairs meet in a line.  Σ_x C(d_x, 2)
      counts each pair once per point of its meet: n_L times when the
      meet is L, once when it is a point.  So A1 = Σ_x C(d_x, 2)
      - Σ_L n_L·C(c_L, 2) pairs meet in a point, and the other
      A0 = C(|P|, 2) - A1 - A2 are disjoint.

    So the total is flags + coplanar + A1 + 2·A0, and the matroid is
    hypermodular exactly when A0 + A1 = 0.
    """
    if "defect_report" not in M._cache:
        if _by_incidence(M):
            counts = _incidence_counts(M)
            report = DefectReport._counted(M, counts.total, counts.flags)
        else:
            pairs = {pair_key(a, b): d for a, b, d in _defective_pairs(M)}
            flags = tuple(disjoint_rank32_pairs(M)) if M.rank == 4 and M.is_loopless else ()
            report = DefectReport(pairs, sum(pairs.values()), flags)
        M._cache["defect_report"] = report
    return M._cache["defect_report"]


def _by_incidence(M: Matroid) -> bool:
    """Whether the report of ``M`` is read off incidences: loopless, rank 4, known to be a lattice."""
    return M.rank == 4 and M.is_loopless and _has_passing_flat_report(M)


class _Counts(NamedTuple):
    """The pair counts of :func:`total_modular_defect`'s proof."""

    flags: int
    coplanar: int
    line_meets: int  # A2
    point_meets: int  # A1
    apart: int  # A0

    @property
    def total(self) -> int:
        return self.flags + self.coplanar + self.point_meets + 2 * self.apart

    @property
    def hypermodular(self) -> bool:
        return self.point_meets + self.apart == 0


def _incidence_counts(M: Matroid) -> _Counts:
    """The counts of ``M``, which :func:`_by_incidence` accepts, cached on it.

    c_L, d_x and m_x are bit counts of up-set rows; n_L and k_P are
    column sums of the rows of the points over the lines and of the
    lines over the planes (:func:`_column_counts`).
    """
    counts = M._cache.get("incidence_counts")
    if counts is None:
        starts, sup = M._grade_starts, M._sup_bits
        x0, l0, p0, top = starts[1:5]
        lines, planes = p0 - l0, top - p0
        over_lines = [sup[x] >> l0 & (1 << lines) - 1 for x in range(x0, l0)]
        over_planes = [sup[x] >> p0 & (1 << planes) - 1 for x in range(x0, p0)]
        m = np.array([row.bit_count() for row in over_lines], dtype=np.int64)
        above = np.array([row.bit_count() for row in over_planes], dtype=np.int64)
        d, c = above[: l0 - x0], above[l0 - x0 :]
        n = _column_counts(over_lines, lines)
        k = _column_counts(over_planes[l0 - x0 :], planes)
        line_meets = int(_pairs(c).sum())
        point_meets = int(_pairs(d).sum() - n @ _pairs(c))
        counts = M._cache["incidence_counts"] = _Counts(
            flags=int(lines * planes - c.sum() - m @ d + n @ c),
            coplanar=int(_pairs(k).sum() - _pairs(m).sum()),
            line_meets=line_meets,
            point_meets=point_meets,
            apart=planes * (planes - 1) // 2 - line_meets - point_meets,
        )
    return counts


def _pairs(v: np.ndarray) -> np.ndarray:
    """C(v, 2), elementwise."""
    return v * (v - 1) // 2


def _column_counts(rows: list[int], width: int) -> np.ndarray:
    """Per bit below ``width``, how many of ``rows`` set it.

    The rows are unpacked a block of about ``_BLOCK_BYTES`` at a time.
    """
    counts = np.zeros(width, dtype=np.int64)
    step = max(1, _BLOCK_BYTES // max(1, width))
    for a in range(0, len(rows), step):
        counts += _unpacked(rows[a : a + step], width).sum(axis=0, dtype=np.int64)
    return counts


def _first_apart_planes(M: Matroid) -> tuple[ElementSet, ElementSet]:
    """The first pair of planes, in canonical order, that shares no line.

    ``M`` is what :func:`_by_incidence` accepts, and its incidence counts
    say it is not hypermodular, so such a pair exists.  The common
    elements of two planes form a flat, their meet, and they share no
    line when its grade is below 2.  The scan stops at the first.
    """
    masks, index, grade, flats = M._flat_masks, M._index_of_mask, M._grade_of_index, M._flat_list
    pairs = itertools.combinations(range(*M._grade_starts[3:5]), 2)
    p, q = next((p, q) for p, q in pairs if grade[index[masks[p] & masks[q]]] < 2)
    return flats[p], flats[q]


def disjoint_rank32_pairs(M: Matroid) -> list[tuple[ElementSet, ElementSet]]:
    """All disjoint (rank-3 flat, rank-2 flat) pairs, canonically ordered.

    For a loopless rank-4 hypermodular matroid this list is empty
    exactly when the matroid is modular, so it enumerates the defects
    the completion loop must repair.
    """
    if M.rank != 4:
        raise ValueError(f"defined for rank-4 matroids, got rank {M.rank}")
    if not M.is_loopless:
        raise ValueError("defined for loopless matroids")
    return list(_walk_flags(M))


def _walk_flags(M: Matroid) -> Iterator[tuple[ElementSet, ElementSet]]:
    """The disjoint (plane, line) pairs in canonical order, plane by plane, as they are read.

    A line misses a plane when it is outside the plane's meet row, the OR
    of the element bits of its members.  Each plane's row is built only
    when the walk reaches it.
    """
    starts, flats, masks, elem = M._grade_starts, M._flat_list, M._flat_masks, M._elem_flatbits
    lines = (1 << starts[3]) - (1 << starts[2])
    for p in range(starts[3], starts[4]):
        meets = 0
        for e in _bits(masks[p]):
            meets |= elem[e]
        for x in _bits(lines & ~meets):
            yield flats[p], flats[x]
