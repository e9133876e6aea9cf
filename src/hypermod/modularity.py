"""Modular pairs, defects, modular/hypermodular decisions, defect totals.

The modular defect of two flats A, B is r(A) + r(B) - r(A∪B) - r(A∩B),
nonnegative by submodularity.  A matroid is modular when every pair of
flats has defect zero and hypermodular (defined for rank >= 3) when
every pair of corank-1 flats does.  For loopless rank-4 matroids the
gap between the two notions is witnessed exactly by disjoint
(rank-3, rank-2) flat pairs, which is what :func:`disjoint_rank32_pairs`
enumerates and the extension machinery repairs.

Defects are defined only between flats; close arbitrary sets first.

Two paths list a matroid's positive pairs.  The pair table of
:mod:`hypermod.core` meets every flat with every other; it is exact on
any family the constructor accepts, lattice or not, of any rank, and it
is the reference the tests hold the other path to.  A loopless rank-4
matroid that already carries a passing flat report, stored by parsing,
by :func:`hypermod.core.verify_flat_axioms` or by
:func:`hypermod.extension.extend_once`, is the lattice of flats of a
matroid, so its positive pairs are of three kinds only
(:func:`total_modular_defect`).  Its report and its hypermodularity
witness are read off plane–line incidences (:func:`_incidence_report`)
at a cost that follows the output.  That second path earns its lines
because such a matroid is the input of a parsed completion, the paper's
headline operation, where the all-pairs scan was the largest cost: on
PG(3,5) less two points it visits 627 000 pairs to find 2 480.  No
report is computed to take it.

The report of a one-element extension is not scanned: given the modular
cut that fixes it, its defects are its parent's, less one on each pair
of cut flats whose meet is outside the cut, and its disjoint flags are
its parent's, less those of two cut flats (:func:`_extension_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import ElementSet, Matroid, _bits, _defect_block, _defect_by_index, _upper_cells, pair_key
from .core import _has_passing_flat_report, _lsb_index


@dataclass(frozen=True)
class DefectReport:
    """All strictly positive pair defects, their sum, and the disjoint flags.

    ``pair_defects`` maps canonically ordered flat pairs to their defect;
    zero-defect pairs are omitted, since they add nothing to ``total``.  For
    loopless rank-4 matroids ``disjoint_flags`` lists the disjoint
    (rank-3, rank-2) pairs; it is empty for other ranks.
    """

    pair_defects: dict[tuple[ElementSet, ElementSet], int]
    total: int
    disjoint_flags: tuple[tuple[ElementSet, ElementSet], ...]


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
            _incidence_report(M)
        else:
            first = next(_defective_pairs(M, M.rank - 1), None)
            M._cache["hm_witness"] = None if first is None else first[:2]
    return M._cache["hm_witness"]


def is_hypermodular(M: Matroid) -> bool:
    """Whether every pair of corank-1 flats is modular (rank >= 3 only)."""
    return hypermodularity_witness(M) is None


def total_modular_defect(M: Matroid) -> DefectReport:
    """Sum of defects over all unordered pairs of distinct flats.

    The pairs are listed in the global flat order, A before B, and keyed
    canonically.  A loopless rank-4 matroid that carries a passing flat
    report has positive pairs of three kinds only, which
    :func:`_incidence_report` lists; any other matroid is scanned over
    the pair table.

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
    """
    if "defect_report" not in M._cache:
        if _by_incidence(M):
            return _incidence_report(M)
        pairs = {pair_key(a, b): d for a, b, d in _defective_pairs(M)}
        flags = tuple(disjoint_rank32_pairs(M)) if M.rank == 4 and M.is_loopless else ()
        M._cache["defect_report"] = DefectReport(pairs, sum(pairs.values()), flags)
    return M._cache["defect_report"]


def _by_incidence(M: Matroid) -> bool:
    """Whether the report of ``M`` is read off incidences: loopless, rank 4, known to be a lattice."""
    return M.rank == 4 and M.is_loopless and _has_passing_flat_report(M)


def _incidence_report(M: Matroid) -> DefectReport:
    """The defect report of ``M``, cached with its hypermodularity witness, from incidences.

    ``M`` is what :func:`_by_incidence` accepts, so only the three kinds
    of :func:`total_modular_defect` are listed, row by row in the global
    flat order.  Each line's row holds the lines after it in the planes
    through it, and all planes, less the flats that share an element
    with it; the join of two disjoint coplanar lines is their one common
    plane, so each such pair appears once.  Such a line and plane are
    keyed by their least elements: two disjoint nonempty flats' sorted
    members differ at position 0, so the flat holding the smaller least
    element comes first in canonical order.  Each plane's row holds the
    planes after it outside the OR of the up-sets of its lines, the
    planes sharing no line with it; one it shares an element with meets
    it in a point.  The first plane with a nonempty row gives the first
    non-modular pair of planes, the hypermodularity witness.
    """
    starts, flats, masks, sup = M._grade_starts, M._flat_list, M._flat_masks, M._sup_bits
    l0, p0, top = starts[2], starts[3], starts[4]
    planes = (1 << top) - (1 << p0)
    plane_meets = _meet_rows(M, 3)
    through = [_bits(sup[x] >> p0 & (1 << top - p0) - 1) for x in range(l0, p0)]
    plane_lines = [0] * len(plane_meets)
    for x, offsets in enumerate(through, l0):
        for p in offsets:
            plane_lines[p] |= 1 << x

    # A grade's flats are in canonical order, so a pair within one grade is
    # keyed as listed.  -(2 << i) keeps the bits above i: each pair is
    # listed from its first flat.
    pairs = {}
    for x, meets in enumerate(_meet_rows(M, 2), l0):
        coplanar = 0
        for p in through[x - l0]:
            coplanar |= plane_lines[p]
        for y in _bits(coplanar & -(2 << x) & ~meets):
            pairs[flats[x], flats[y]] = 1
        least = masks[x] & -masks[x]
        for y in _bits(planes & ~meets):
            pairs[(flats[x], flats[y]) if least < masks[y] & -masks[y] else (flats[y], flats[x])] = 1
    witness = None
    for p, meets, inner in zip(range(p0, top), plane_meets, plane_lines):
        shared = 0
        for x in _bits(inner):
            shared |= sup[x]
        apart = planes & -(2 << p) & ~shared
        if apart and witness is None:
            witness = flats[p], flats[_lsb_index(apart)]
        for q in _bits(apart):
            pairs[flats[p], flats[q]] = 1 if meets >> q & 1 else 2

    M._cache["hm_witness"] = witness
    report = DefectReport(pairs, sum(pairs.values()), tuple(_flags(M, plane_meets)))
    M._cache["defect_report"] = report
    return report


def _extension_report(M: Matroid, N: Matroid, cut: list[int]) -> DefectReport:
    """The defect report of ``N``, cached on ``N``, read off ``M``'s report and the cut.

    ``N`` is a one-element extension of ``M`` as :func:`hypermod.extension.extend_once`
    builds it: the new element m is added to each flat of the cut D, M's
    flats listed by index in ``cut``, and {m} is a new flat.  If N passes
    the flat axioms and restricts back to M, each image of M's flats keeps
    its grade and containments, so nestedness, and D is up-closed, so the
    join of two images is the image of their join.  So is their meet G,
    unless both are cut flats and G is not in D (a flat under one outside
    D is outside D); then G + m, a flat of N holding m and no image of a
    flat of D, is {m}: G is the empty bottom flat, and the pair loses
    one.  {m}, a point, has defect zero with every flat.  N is
    submodular, so only M's positive pairs need reading, and adding m,
    the largest element, to flats neither of which holds the other keeps
    their canonical order.

    The meet test matters only from rank 5 on.  A pair of positive defect
    r(A) + r(B) - r(A∨B) - r(A∧B) is not nested, so its join is a grade
    above each flat, neither of which is the top flat: it meets in grade
    at most rank - 3.  In rank 4 that is grade 1 or less, which D never
    holds, so there lowering every pair of cut flats is the same rule,
    and no rank-4 test tells the two apart.

    No defect grows, so N is hypermodular when M is, and then its
    witness is cached as None; otherwise :func:`hypermodularity_witness`
    scans N when asked.  N has no new lines or planes, and a flag (P, L)
    of M stays disjoint in N unless m joins both, so N's disjoint flags
    are M's, mapped to their images in the same order, less those whose
    plane and line are both cut flats.
    """
    new = frozenset([M.ground_size])
    image = {M._flat_list[i]: M._flat_list[i] | new for i in cut}
    parent = total_modular_defect(M)
    pairs = {}
    for (a, b), d in parent.pair_defects.items():
        if a in image and b in image and a & b not in image:
            d -= 1
        if d:
            pairs[image.get(a, a), image.get(b, b)] = d
    flags = ()
    if N.rank == 4 and N.is_loopless:
        flags = tuple(
            (image.get(p, p), image.get(x, x))
            for p, x in parent.disjoint_flags
            if not (p in image and x in image)
        )
    if M.rank >= 3 and hypermodularity_witness(M) is None:
        N._cache["hm_witness"] = None
    N._cache["defect_report"] = report = DefectReport(pairs, sum(pairs.values()), flags)
    return report


def disjoint_rank32_pairs(M: Matroid) -> list[tuple[ElementSet, ElementSet]]:
    """All disjoint (rank-3 flat, rank-2 flat) pairs, canonically ordered.

    For a loopless rank-4 hypermodular matroid this list is empty
    exactly when the matroid is modular, so it enumerates the defects
    the completion loop must repair.  A line misses a plane when it is
    outside the OR of the element bits of the plane's members.
    """
    if M.rank != 4:
        raise ValueError(f"defined for rank-4 matroids, got rank {M.rank}")
    if not M.is_loopless:
        raise ValueError("defined for loopless matroids")
    return _flags(M, _meet_rows(M, 3))


def _meet_rows(M: Matroid, grade: int) -> list[int]:
    """Per flat of ``grade``, in order, the flats sharing an element with it, as bits.

    Each row is the OR of the element bits of the flat's members.
    """
    starts, elem = M._grade_starts, M._elem_flatbits
    rows = []
    for mask in M._flat_masks[starts[grade] : starts[grade + 1]]:
        meets = 0
        for e in _bits(mask):
            meets |= elem[e]
        rows.append(meets)
    return rows


def _flags(M: Matroid, plane_meets: list[int]) -> list[tuple[ElementSet, ElementSet]]:
    """The disjoint (plane, line) pairs in order, read off the planes' meet rows."""
    starts, flats = M._grade_starts, M._flat_list
    lines = (1 << starts[3]) - (1 << starts[2])
    return [
        (flats[p], flats[x])
        for p, meets in enumerate(plane_meets, starts[3])
        for x in _bits(lines & ~meets)
    ]
