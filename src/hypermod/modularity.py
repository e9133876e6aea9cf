"""Modular pairs, defects, modular/hypermodular decisions, defect totals.

The modular defect of two flats A, B is r(A) + r(B) - r(A∪B) - r(A∩B),
nonnegative by submodularity.  A matroid is modular when every pair of
flats has defect zero and hypermodular (defined for rank >= 3) when
every pair of corank-1 flats does.  For loopless rank-4 matroids the
gap between the two notions is witnessed exactly by disjoint
(rank-3, rank-2) flat pairs, which is what :func:`disjoint_rank32_pairs`
enumerates and the extension machinery repairs.

Defects are defined only between flats; close arbitrary sets first.

The report of a one-element extension is not scanned: given the modular
cut that fixes it, its defects are its parent's, less one on each pair
of cut flats whose meet is outside the cut, and its disjoint flags are
its parent's, less those of two cut flats (:func:`_extension_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import ElementSet, Matroid, _bits, _defect_block, _defect_by_index, _upper_cells, pair_key


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
        first = next(_defective_pairs(M, M.rank - 1), None)
        M._cache["hm_witness"] = None if first is None else first[:2]
    return M._cache["hm_witness"]


def is_hypermodular(M: Matroid) -> bool:
    """Whether every pair of corank-1 flats is modular (rank >= 3 only)."""
    return hypermodularity_witness(M) is None


def total_modular_defect(M: Matroid) -> DefectReport:
    """Sum of defects over all unordered pairs of distinct flats."""
    if "defect_report" not in M._cache:
        pairs = {pair_key(a, b): d for a, b, d in _defective_pairs(M)}
        flags = tuple(disjoint_rank32_pairs(M)) if M.rank == 4 and M.is_loopless else ()
        M._cache["defect_report"] = DefectReport(pairs, sum(pairs.values()), flags)
    return M._cache["defect_report"]


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
    starts = M._grade_starts
    lines = ((1 << starts[3]) - 1) ^ ((1 << starts[2]) - 1)
    out = []
    for i in range(starts[3], starts[4]):
        meets = 0
        for e in _bits(M._flat_masks[i]):
            meets |= M._elem_flatbits[e]
        out.extend((M._flat_list[i], M._flat_list[j]) for j in _bits(lines & ~meets))
    return out
