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

from .core import ElementSet, Matroid, _bits, _lsb_index, pair_key

# Cells (rows x columns) in one row block of the pair table; it bounds the
# 2-D temporaries of each block.
_BLOCK_CELLS = 1 << 14


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


def _defect_by_index(M: Matroid, i: int, j: int) -> int:
    mi, mj = M._flat_masks[i], M._flat_masks[j]
    inter = mi & mj
    if inter == mi or inter == mj:
        return 0
    join = _lsb_index(M._sup_bits[i] & M._sup_bits[j])
    return (
        M._grade_of_index[i]
        + M._grade_of_index[j]
        - M._grade_of_index[join]
        - M._rank_of_mask(inter)
    )


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on ``uint64`` words."""
    h = h ^ (h >> np.uint64(30))
    h = h * np.uint64(0xBF58476D1CE4E5B9)
    h = h ^ (h >> np.uint64(27))
    h = h * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _hash(words) -> np.ndarray:
    """Hash of masks given word by word as equal-shape ``uint64`` arrays."""
    h = np.uint64(0)
    for w in words:
        h = _mix(h ^ w)
    return h


def _packed(ints: list[int], bits: int) -> np.ndarray:
    """Nonnegative ints below ``2**bits`` as rows of little-endian ``uint64`` words."""
    width = -(-bits // 64)
    raw = b"".join(m.to_bytes(8 * width, "little") for m in ints)
    return np.frombuffer(raw, dtype="<u8").reshape(len(ints), width)


def _pair_table_inputs(M: Matroid) -> tuple:
    """What :func:`_defect_block` reads, built once per matroid.

    ``words``: the flat masks packed, at least one word per flat.
    ``keys``, ``order``: the sorted flat hashes and the flat index behind each.
    ``grade``: every flat's grade.
    ``up_sets[k][i]``: the grade-k flats above flat i, bit b for the b-th
    flat of grade k, sliced from ``M._sup_bits``.
    """
    table = M._cache.get("pair_table")
    if table is None:
        words = _packed(M._flat_masks, max(1, M.ground_size))
        hashes = _hash(words[:, w] for w in range(words.shape[1]))
        order = np.argsort(hashes, kind="stable")
        starts = M._grade_starts
        up_sets = tuple(
            _packed([(up >> a) & ((1 << (b - a)) - 1) for up in M._sup_bits], b - a)
            for a, b in zip(starts, starts[1:])
        )
        table = (words, hashes[order], order, np.asarray(M._grade_of_index), up_sets)
        M._cache["pair_table"] = table
    return table


def _defect_block(M: Matroid, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Defects of flats ``r0..r1-1`` (rows) against flats ``c0..c1-1`` (columns).

    Equal to :func:`_defect_by_index` on every cell, provided
    ``M._graded`` holds.  The meet of a pair is its
    intersection, found among the stored flats by hash and confirmed word
    by word; a pair whose intersection is not confirmed is computed by
    :func:`_defect_by_index`.  The join grade is the lowest grade with a
    flat above both.  Temporaries are rows x columns, one word at a time.
    """
    words, keys, order, grade, up_sets = _pair_table_inputs(M)
    rows, cols = words[r0:r1], words[c0:c1]
    width = words.shape[1]
    h = _hash(rows[:, w, None] & cols[None, :, w] for w in range(width))
    meet = order[np.minimum(np.searchsorted(keys, h), len(keys) - 1)]
    found = np.ones(h.shape, dtype=bool)
    for w in range(width):
        found &= words[:, w][meet] == (rows[:, w, None] & cols[None, :, w])

    # The top flat lies above every pair.  A flat strictly above F_i has a
    # larger grade, so only flats of grade below k can have a join of grade
    # k; those are an index prefix.  The join of a nested pair is not
    # needed, as its defect is zero.
    starts = M._grade_starts
    join = np.full(h.shape, M.rank)
    for k in range(M.rank - 1, 0, -1):
        nr, nc = min(r1, starts[k]) - r0, min(c1, starts[k]) - c0
        if nr <= 0 or nc <= 0:
            continue
        up = up_sets[k]
        common = np.zeros((nr, nc), dtype=bool)
        for w in range(up.shape[1]):
            common |= (up[r0 : r0 + nr, w, None] & up[None, c0 : c0 + nc, w]) != 0
        join[:nr, :nc][common] = k

    defect = grade[r0:r1, None] + grade[None, c0:c1] - join - grade[meet]
    # A pair whose meet is one of its own flats is nested.
    nested = (meet == np.arange(r0, r1)[:, None]) | (meet == np.arange(c0, c1)[None, :])
    defect[nested] = 0
    for b, c in zip(*np.nonzero(~found)):
        defect[b, c] = _defect_by_index(M, r0 + int(b), c0 + int(c))
    return defect


def _defective_pairs(
    M: Matroid, grade: int | None = None
) -> Iterator[tuple[ElementSet, ElementSet, int]]:
    """Pairs of distinct flats with nonzero defect, as ``(A, B, defect)``.

    Scans every flat, or only the flats of one grade, in the global flat
    order with A before B.  The scan is lazy per block of rows, so a
    caller that wants one witness stops early.  A lattice in which some
    flat lies strictly inside a flat of equal or lower grade is scanned
    pair by pair with :func:`_defect_by_index`, since there a stored flat
    need not be its own closure.
    """
    starts = M._grade_starts
    lo, hi = (0, starts[-1]) if grade is None else (starts[grade], starts[grade + 1])
    flats = M._flat_list
    if not M._graded:
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                d = _defect_by_index(M, i, j)
                if d:
                    yield flats[i], flats[j], d
        return
    step = max(1, _BLOCK_CELLS // max(1, hi - lo))
    for r0 in range(lo, hi, step):
        defect = np.triu(_defect_block(M, r0, min(r0 + step, hi), r0, hi), 1)
        for b, c in zip(*np.nonzero(defect)):
            yield flats[r0 + b], flats[r0 + c], int(defect[b, c])


def modular_defect(M: Matroid, a, b) -> int:
    """Defect r(A) + r(B) - r(A∪B) - r(A∩B) of two flats."""
    return _defect_by_index(M, M._flat_index(a), M._flat_index(b))


def is_modular_pair(M: Matroid, a, b) -> bool:
    return modular_defect(M, a, b) == 0


def is_modular_flat(M: Matroid, flat) -> bool:
    """Whether the flat has defect zero against every flat of the matroid."""
    i = M._flat_index(flat)
    return all(_defect_by_index(M, i, j) == 0 for j in range(len(M._flat_masks)) if j != i)


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
        pairs = {pair_key(a, b): d for a, b, d in _defective_pairs(M)}
        total = sum(pairs.values())
        flags: tuple = ()
        if M.rank == 4 and M.is_loopless:
            flags = tuple(disjoint_rank32_pairs(M))
        cached = DefectReport(pair_defects=pairs, total=total, disjoint_flags=flags)
        M._cache["defect_report"] = cached
    return cached


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
