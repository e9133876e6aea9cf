"""Combinatorial hyperplane-arrangement view of a loopless matroid.

Every proper flat F determines a subspace (the contraction by F) with
dimension r(M) - r(F) - 1 and codimension r(F); for rank-4 matroids the
rank-3 / rank-2 / rank-1 flats play the roles of points, lines and
planes.  Everything here is flat-level bookkeeping — no coordinates are
ever computed — but the incidence statements translate directly:
subspaces meet at a point exactly when their flats' union has rank
r(M) - 1, and hypermodularity says any two points lie on a common line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import _VIOLATION_CAP, AxiomReport, ElementSet, Matroid, Violation, closure
from .extension import ExtensionContext
from .modularity import _defective_pairs, is_hypermodular


@dataclass(frozen=True)
class Subspace:
    flat: ElementSet
    sdim: int
    scodim: int


@dataclass(frozen=True)
class LabeledHyperplane:
    label: int
    subspace: Subspace


def subspace_of(M: Matroid, flat) -> Subspace:
    """The subspace of a proper flat: sdim = r(M) - r(F) - 1, scodim = r(F)."""
    f = frozenset(flat)
    k = M._grade_of_index[M._flat_index(f)]
    if k == M.rank:
        raise ValueError("the full ground set has no subspace")
    return Subspace(flat=f, sdim=M.rank - k - 1, scodim=k)


def labeled_hyperplanes(M: Matroid) -> tuple[LabeledHyperplane, ...]:
    """One labeled hyperplane per element: the subspace of its closure."""
    return tuple(
        LabeledHyperplane(label=e, subspace=subspace_of(M, closure(M, [e])))
        for e in range(M.ground_size)
    )


def classify(M: Matroid) -> tuple[tuple[ElementSet, ...], tuple[ElementSet, ...], tuple[ElementSet, ...]]:
    """Points, lines, planes of a loopless rank-4 matroid's arrangement.

    Points are the rank-3 flats (sdim 0), lines the rank-2 flats,
    planes the rank-1 flats.  Other ranks have no such triple; use
    :func:`subspace_census` for them.
    """
    if M.rank != 4:
        raise ValueError(f"point/line/plane classification requires rank 4, got {M.rank}")
    if not M.is_loopless:
        raise ValueError("classification requires a loopless matroid")
    return M.flats_by_rank[3], M.flats_by_rank[2], M.flats_by_rank[1]


def subspace_census(M: Matroid) -> dict[int, tuple[ElementSet, ...]]:
    """Proper flats grouped by subspace dimension, for any rank."""
    census: dict[int, list[ElementSet]] = {}
    for k in range(M.rank):
        for f in M.flats_by_rank[k]:
            census.setdefault(M.rank - k - 1, []).append(f)
    return {d: tuple(fs) for d, fs in census.items()}


def meet_at_point(M: Matroid, flats) -> bool:
    """Whether the given subspaces meet at a point: rank of the union is r(M) - 1."""
    top = len(M._flat_masks) - 1
    seen: set[int] = set()
    union = 0
    for f in flats:
        i = M._flat_index(f)  # raises unless f is a flat
        if i == top:
            raise ValueError("flats must be proper")
        if i in seen:
            raise ValueError("flats must be distinct")
        seen.add(i)
        union |= M._flat_masks[i]
    if len(seen) < 2:
        raise ValueError("need at least two flats")
    return M._rank_of_mask(union) == M.rank - 1


def check_line_connectivity(M: Matroid) -> AxiomReport:
    """Whether every two points of the arrangement lie on a common line.

    For rank-4 loopless matroids this asks that any two distinct rank-3
    flats intersect in a rank-2 flat, which is exactly hypermodularity:
    two distinct planes A, B join to the top, so their modular defect is
    2 - r(A∩B), nonzero exactly when they share no line.  The verdict is
    :func:`hypermod.modularity.is_hypermodular`.  When it fails, the
    report lists the first ``_VIOLATION_CAP`` such pairs, in the canonical
    pair order, and the lazy scan of the planes' pair table stops there.
    """
    if M.rank != 4:
        raise ValueError(f"line connectivity requires rank 4, got {M.rank}")
    if not M.is_loopless:
        raise ValueError("line connectivity requires a loopless matroid")
    apart = () if is_hypermodular(M) else itertools.islice(_defective_pairs(M, 3), _VIOLATION_CAP)
    return AxiomReport.from_violations(
        [
            Violation(
                "line-connectivity",
                (a, b),
                "two points of the arrangement lie on no common line",
            )
            for a, b, _ in apart
        ]
    )


def plane_cover_check(M: Matroid, ctx: ExtensionContext) -> AxiomReport:
    """Whether every plane of the arrangement passes through a pencil point.

    For a context built on a disjoint flag, every rank-1 flat must be
    contained in some pencil member.
    """
    if ctx.matroid != M:
        raise ValueError("context was built for a different matroid")
    violations: list[Violation] = []
    for p in M.flats_by_rank[1]:
        if not any(p <= a for a in ctx.pencil):
            violations.append(
                Violation(
                    "plane-cover",
                    (p,),
                    "a plane of the arrangement avoids every pencil point",
                )
            )
    return AxiomReport.from_violations(violations)
