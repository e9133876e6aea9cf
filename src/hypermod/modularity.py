"""Modular pairs, defects, modular/hypermodular decisions, defect totals.

The modular defect of two flats A, B is r(A) + r(B) - r(A∪B) - r(A∩B),
nonnegative by submodularity.  A matroid is modular when every pair of
flats has defect zero and hypermodular (defined for rank >= 3) when
every pair of corank-1 flats does.  For loopless rank-4 matroids the
gap between the two notions is witnessed exactly by disjoint
(rank-3, rank-2) flat pairs, which is what :func:`disjoint_rank32_pairs`
enumerates and the extension machinery repairs.

Defects are defined only between flats; close arbitrary sets first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import ElementSet, Matroid, _bits, _defect_block, _defect_by_index, _upper_cells, pair_key


@dataclass
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
    cached = M._cache.get("defect_report")
    if cached is None:
        cached = _cache_report(M, {pair_key(a, b): d for a, b, d in _defective_pairs(M)})
    return cached


def _cache_report(M: Matroid, pairs: dict) -> DefectReport:
    """The report of ``M`` with these positive pair defects, stored in its cache."""
    flags: tuple = ()
    if M.rank == 4 and M.is_loopless:
        flags = tuple(disjoint_rank32_pairs(M))
    report = DefectReport(pair_defects=pairs, total=sum(pairs.values()), disjoint_flags=flags)
    M._cache["defect_report"] = report
    return report


def _extension_report(M: Matroid, N: Matroid) -> DefectReport:
    """The defect report of ``N``, cached on ``N``, scanning only the flats that changed.

    ``N`` is a one-element extension of ``M`` as :func:`hypermod.extension.extend_once`
    builds it: M's flats, some with the new element m added, plus {m}.
    The *changed* flats of N are those holding m.  Two flats of N that
    both avoid m are flats of M, and the flats of N holding their union,
    or their intersection, are the images of M's flats holding it, with
    the same grades (and {m} if the intersection is empty, of grade 1,
    where the bottom flat already has grade 0); so the pair keeps its
    join grade, meet rank and nestedness, and hence its defect.  That
    uses no lattice axiom.  So
    M's pairs are kept unless they touch a changed flat with m removed,
    and only the rows of the changed flats are read off the pair table.

    The report lists every nonzero pair, so N's hypermodularity witness,
    the first corank-1 pair among them in row-major flat order, is
    cached too.
    """
    m = M.ground_size
    flats = N._flat_list
    new = frozenset([m])
    changed = _bits(N._elem_flatbits[m])
    stale = {flats[i] - new for i in changed if flats[i] != new}
    pairs = {
        key: d for key, d in total_modular_defect(M).pair_defects.items() if stale.isdisjoint(key)
    }
    done = set()
    for i in changed:
        row = _defect_block(N, i, i + 1, 0, len(flats))[0]
        for j in map(int, np.flatnonzero(row)):
            if j not in done:
                pairs[pair_key(flats[i], flats[j])] = int(row[j])
        done.add(i)
    if N.rank >= 3:
        starts = N._grade_starts
        corank = {flats[i]: i for i in range(starts[-3], starts[-2])}
        # Inside a grade, flat order is the canonical order of pair keys.
        cells = ((corank[a], corank[b]) for a, b in pairs if a in corank and b in corank)
        first = min(cells, default=None)
        N._cache["hm_witness"] = None if first is None else (flats[first[0]], flats[first[1]])
    return _cache_report(N, pairs)


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
