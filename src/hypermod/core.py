"""Matroids stored as graded lattices of flats.

A matroid is represented by the complete list of its flats, grade by
grade; every query (closure, rank, surgery, connectivity, isomorphism)
is answered from that lattice alone.  Elements are dense integers
``0..n-1`` and subsets of the ground set are plain frozensets (the
``ElementSet`` alias).

Instances are immutable after construction and all operations are pure
functions, so matroids may be shared freely between threads.  Internally
flats are mirrored as integer bitmasks, which keeps closure and rank
queries cheap even for lattices with a few hundred flats.  The
constructor also builds the containment order of the stored flats once,
as bits over flat indices (:func:`_flat_relation`); the shape check,
:func:`verify_flat_axioms`, :func:`contract` and the pair table of
:mod:`hypermod.modularity` all read it.

Declared grades are *stored*, not recomputed: :func:`verify_flat_axioms`
checks them against longest-chain lengths (:func:`_chain_lengths`, the
same routine that grades :func:`restrict`) so that corrupt input files
are caught loudly instead of silently re-ranked.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

ElementSet = frozenset[int]

# Exhaustive rank verification walks all 4^n subset pairs; past this
# ground size that blows up and callers must sample instead.
EXHAUSTIVE_LIMIT = 14

# Backtracking isomorphism search is only intended for small fixtures.
ISO_GROUND_LIMIT = 20


def flat_key(flat: ElementSet) -> tuple[int, ...]:
    """Canonical sort key: members ascending, flats lexicographic."""
    return tuple(sorted(flat))


def pair_key(a: ElementSet, b: ElementSet) -> tuple[ElementSet, ElementSet]:
    """Canonical unordered-pair key for two flats."""
    return (a, b) if flat_key(a) <= flat_key(b) else (b, a)


def _mask_of(members: Iterable[int]) -> int:
    m = 0
    for e in members:
        m |= 1 << e
    return m


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _members_of(mask: int) -> ElementSet:
    return frozenset(_bits(mask))


def _lsb_index(x: int) -> int:
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: which axiom, on which witnesses."""

    axiom: str
    witnesses: tuple[ElementSet, ...]
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: tuple[Violation, ...]

    @staticmethod
    def from_violations(violations: list[Violation]) -> "AxiomReport":
        return AxiomReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of a matroid; ``kappa`` is the block count."""

    blocks: tuple[ElementSet, ...]
    kappa: int


@dataclass(frozen=True)
class Profile:
    """Deterministic lattice fingerprint: flat counts and flat sizes per grade."""

    counts: tuple[int, ...]
    sizes: tuple[tuple[int, ...], ...]


class Matroid:
    """A matroid given by its graded flats.

    ``flats_by_rank[k]`` holds the rank-``k`` flats.  The constructor
    canonicalizes order and enforces the cheap shape invariants (dense
    indices in range, exactly one bottom flat, the top grade is exactly
    the full ground set, no duplicates, no nesting within a grade).  The
    lattice axioms themselves are *not* assumed here; run
    :func:`verify_flat_axioms` on untrusted input.
    """

    def __init__(
        self,
        ground_size: int,
        flats_by_rank: Iterable[Iterable[Iterable[int]]],
        *,
        name: str | None = None,
        element_map: tuple[int, ...] | None = None,
    ):
        n = int(ground_size)
        if n < 0:
            raise ValueError("ground_size must be nonnegative")
        grades: list[tuple[ElementSet, ...]] = []
        seen: set[ElementSet] = set()
        for k, grade in enumerate(flats_by_rank):
            flats = [frozenset(f) for f in grade]
            for f in flats:
                for e in f:
                    if not (0 <= e < n):
                        raise ValueError(f"element {e} out of range for ground size {n}")
                if f in seen:
                    raise ValueError(f"duplicate flat {sorted(f)} (grade {k})")
                seen.add(f)
            flats.sort(key=flat_key)
            grades.append(tuple(flats))
        if not grades:
            raise ValueError("at least one grade is required")
        full = frozenset(range(n))
        if grades[-1] != (full,):
            raise ValueError("top grade must contain exactly the full ground set")
        if len(grades[0]) != 1:
            raise ValueError("grade 0 must contain exactly one flat")

        self.ground_size = n
        self.flats_by_rank: tuple[tuple[ElementSet, ...], ...] = tuple(grades)
        self.name = name
        self.element_map = element_map

        # Global flat order: grade ascending, lexicographic inside a grade.
        flat_list: list[ElementSet] = []
        grade_of: list[int] = []
        for k, grade in enumerate(self.flats_by_rank):
            flat_list.extend(grade)
            grade_of.extend([k] * len(grade))
        self._flat_list = flat_list
        self._flat_masks = [_mask_of(f) for f in flat_list]
        self._grade_of_index = grade_of
        self._index_of_mask = {m: i for i, m in enumerate(self._flat_masks)}
        self._all_flat_bits = (1 << len(flat_list)) - 1
        self._elem_flatbits, self._sup_bits = _flat_relation(n, self._flat_masks)
        # A flat inside another of its own grade breaks the shape.  One inside
        # a flat of lower grade is left to verify_flat_axioms, but there a
        # stored flat need not be its own closure, so ``_graded`` is False.
        self._graded = True
        starts = self._grade_starts
        for i, up in enumerate(self._sup_bits):
            k = grade_of[i]
            a, b = starts[k], starts[k + 1]
            peers = ((up >> a) & ((1 << (b - a)) - 1)) ^ (1 << (i - a))
            if peers:
                raise ValueError(
                    f"grade {k} flats must be pairwise incomparable: "
                    f"{sorted(flat_list[i])} vs {sorted(flat_list[a + _lsb_index(peers)])}"
                )
            if up & ((1 << a) - 1):
                self._graded = False
        self._cache: dict = {}

    # -- basic views ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.flats_by_rank) - 1

    @property
    def ground_set(self) -> ElementSet:
        return frozenset(range(self.ground_size))

    @property
    def loops(self) -> ElementSet:
        return self.flats_by_rank[0][0]

    @property
    def is_loopless(self) -> bool:
        return not self.loops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = tuple(len(g) for g in self.flats_by_rank)
        label = f" {self.name!r}" if self.name else ""
        return f"Matroid{label}(n={self.ground_size}, rank={self.rank}, flats={counts})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return (
            self.ground_size == other.ground_size
            and self.flats_by_rank == other.flats_by_rank
        )

    def __hash__(self) -> int:
        h = self._cache.get("hash")
        if h is None:
            h = hash((self.ground_size, self.flats_by_rank))
            self._cache["hash"] = h
        return h

    # -- bitmask internals --------------------------------------------

    def _subset_mask(self, subset: Iterable[int]) -> int:
        m = 0
        for e in subset:
            if not (0 <= e < self.ground_size):
                raise ValueError(f"element {e} out of range for ground size {self.ground_size}")
            m |= 1 << e
        return m

    def _closure_bits(self, mask: int) -> int:
        bits = self._all_flat_bits
        m = mask
        while m:
            low = m & -m
            bits &= self._elem_flatbits[low.bit_length() - 1]
            m ^= low
        return bits

    def _closure_index(self, mask: int) -> int:
        # The top flat contains everything, so bits is never zero.
        return _lsb_index(self._closure_bits(mask))

    def _rank_of_mask(self, mask: int) -> int:
        return self._grade_of_index[self._closure_index(mask)]

    def _is_flat_mask(self, mask: int) -> bool:
        return mask in self._index_of_mask

    def _flat_index(self, flat: Iterable[int]) -> int:
        """Position of ``flat`` in the global flat order; ValueError if it is not a flat."""
        mask = self._subset_mask(flat)
        idx = self._index_of_mask.get(mask)
        if idx is None:
            raise ValueError(f"{sorted(_members_of(mask))} is not a flat")
        return idx

    @cached_property
    def _grade_starts(self) -> tuple[int, ...]:
        """``starts[k]`` is the first index of grade ``k``; ``starts[-1]`` is the flat count."""
        starts = [0]
        for grade in self.flats_by_rank:
            starts.append(starts[-1] + len(grade))
        return tuple(starts)

    @cached_property
    def _sub_bits(self) -> list[int]:
        """Transpose of ``_sup_bits``: flats contained in F_i (self included)."""
        sub = [0] * len(self._flat_masks)
        for i, bits in enumerate(self._sup_bits):
            b = bits
            while b:
                low = b & -b
                sub[low.bit_length() - 1] |= 1 << i
                b ^= low
        return sub


def _flat_relation(n: int, masks: list[int]) -> tuple[list[int], list[int]]:
    """Element and containment bits of a family of subsets of ``0..n-1``.

    Bit i of ``elem_bits[e]`` says that set i holds element e.  Bit j of
    ``sup_bits[i]`` says that set i lies inside set j, itself included:
    the AND of ``elem_bits`` over the elements of set i, exact for any
    family, lattice or not.
    """
    members = [_bits(m) for m in masks]
    elem_bits = [0] * n
    for i, elems in enumerate(members):
        bit = 1 << i
        for e in elems:
            elem_bits[e] |= bit
    everything = (1 << len(masks)) - 1
    sup_bits = []
    for elems in members:
        up = everything
        for e in elems:
            up &= elem_bits[e]
        sup_bits.append(up)
    return elem_bits, sup_bits


def _chain_lengths(masks: list[int], sup: list[int]) -> list[int]:
    """Length of the longest chain of strict inclusions ending at each set.

    ``masks`` are distinct sets and ``sup`` their containment bits from
    :func:`_flat_relation`.  A strict subset is smaller, so visiting the
    sets by size fixes each length before it is pushed to the sets above.
    """
    chain = [0] * len(masks)
    for i in sorted(range(len(masks)), key=lambda i: masks[i].bit_count()):
        longer = chain[i] + 1
        above = sup[i] & ~(1 << i)
        while above:
            low = above & -above
            above ^= low
            j = low.bit_length() - 1
            if chain[j] < longer:
                chain[j] = longer
    return chain


# ---------------------------------------------------------------------------
# Closure / rank / flat access
# ---------------------------------------------------------------------------


def closure(M: Matroid, subset: Iterable[int]) -> ElementSet:
    """Smallest flat containing ``subset`` (the intersection of all flats above it)."""
    return M._flat_list[M._closure_index(M._subset_mask(subset))]


def rank_of(M: Matroid, subset: Iterable[int]) -> int:
    """Declared grade of the closure of ``subset``."""
    return M._rank_of_mask(M._subset_mask(subset))


def flats_of_rank(M: Matroid, k: int) -> tuple[ElementSet, ...]:
    """The stored grade-``k`` family in canonical order."""
    if not (0 <= k <= M.rank):
        raise ValueError(f"grade {k} out of range 0..{M.rank}")
    return M.flats_by_rank[k]


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------


def verify_flat_axioms(M: Matroid) -> AxiomReport:
    """Check the lattice axioms on the stored flats.

    Verifies closure under pairwise intersection, the cover property
    (for every flat F and element s outside it there is a unique
    smallest flat containing F and s, with nothing strictly between),
    and that every declared grade equals the longest chain length from
    the bottom flat.  Violations are reported, never thrown.
    """
    violations: list[Violation] = []
    masks = M._flat_masks
    flats = M._flat_list
    idx_of = M._index_of_mask

    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            inter = masks[i] & masks[j]
            if inter not in idx_of:
                violations.append(
                    Violation(
                        "F1",
                        (flats[i], flats[j]),
                        f"intersection {sorted(_members_of(inter))} is not a flat",
                    )
                )

    sup = M._sup_bits
    sub = M._sub_bits
    for i, fmask in enumerate(masks):
        outside = _ground_mask(M) & ~fmask
        s_mask = outside
        while s_mask:
            low = s_mask & -s_mask
            s_mask ^= low
            s = low.bit_length() - 1
            cand = sup[i] & M._elem_flatbits[s]
            if cand == 0:
                violations.append(
                    Violation("F2", (flats[i], frozenset([s])), "no flat contains the union")
                )
                continue
            minimal = []
            b = cand
            while b:
                lowb = b & -b
                b ^= lowb
                j = lowb.bit_length() - 1
                if cand & sub[j] == lowb:
                    minimal.append(j)
            if len(minimal) != 1:
                wit = tuple(flats[j] for j in minimal[:3])
                violations.append(
                    Violation(
                        "F2",
                        (flats[i], frozenset([s])) + wit,
                        "no unique smallest flat containing the union",
                    )
                )
                continue
            top = minimal[0]
            between = sup[i] & sub[top] & ~(1 << i) & ~(1 << top)
            if between:
                g = _lsb_index(between)
                violations.append(
                    Violation(
                        "F2",
                        (flats[i], frozenset([s]), flats[top], flats[g]),
                        "cover skipped: a flat lies strictly between",
                    )
                )

    # Declared grades vs longest chains from the bottom flat.
    chain = _chain_lengths(masks, sup)
    for j in sorted(range(len(masks)), key=lambda j: masks[j].bit_count()):
        if chain[j] != M._grade_of_index[j]:
            violations.append(
                Violation(
                    "grading",
                    (flats[j],),
                    f"declared grade {M._grade_of_index[j]} but longest chain has length {chain[j]}",
                )
            )

    return AxiomReport.from_violations(violations)


def _ground_mask(M: Matroid) -> int:
    return (1 << M.ground_size) - 1


_VIOLATION_CAP = 16


def verify_rank_axioms(
    M: Matroid,
    mode: str = "sampled",
    *,
    seed: int = 0,
    trials: int = 10000,
) -> AxiomReport:
    """Check the rank axioms R1-R3 induced by the lattice.

    ``mode="exhaustive"`` scans every subset for R1, every subset/element
    pair for R2 and every pair of subsets for R3 (vectorized; only
    allowed for ground sizes up to ``EXHAUSTIVE_LIMIT``).
    ``mode="sampled"`` draws ``trials`` seeded random subset pairs.  In
    both modes submodularity is additionally checked on every pair of
    flats.  At most a handful of witnesses per axiom are reported.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    n = M.ground_size
    if mode == "exhaustive" and n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive mode scans 4^n subset pairs; limited to ground size {EXHAUSTIVE_LIMIT}"
        )
    violations: list[Violation] = []

    # Submodularity over all pairs of flats, in every mode.
    masks = M._flat_masks
    grades = M._grade_of_index
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            mi, mj = masks[i], masks[j]
            inter = mi & mj
            if inter == mi or inter == mj:
                continue
            lhs = M._rank_of_mask(mi | mj) + M._rank_of_mask(inter)
            if lhs > grades[i] + grades[j]:
                violations.append(
                    Violation(
                        "R3",
                        (M._flat_list[i], M._flat_list[j]),
                        f"r(A∪B)+r(A∩B)={lhs} exceeds r(A)+r(B)={grades[i] + grades[j]}",
                    )
                )
                if len(violations) >= _VIOLATION_CAP:
                    return AxiomReport.from_violations(violations)

    if mode == "exhaustive":
        violations.extend(_exhaustive_rank_violations(M))
    else:
        rng = random.Random(seed)
        for _ in range(trials):
            a = rng.getrandbits(n) if n else 0
            b = rng.getrandbits(n) if n else 0
            ra, rb = M._rank_of_mask(a), M._rank_of_mask(b)
            ru = M._rank_of_mask(a | b)
            ri = M._rank_of_mask(a & b)
            for m, r in ((a, ra), (b, rb)):
                if not (0 <= r <= bin(m).count("1")):
                    violations.append(
                        Violation("R1", (_members_of(m),), f"rank {r} exceeds cardinality")
                    )
            if ra > ru or rb > ru:
                violations.append(
                    Violation(
                        "R2",
                        (_members_of(a), _members_of(b)),
                        "rank decreases on a superset",
                    )
                )
            if ru + ri > ra + rb:
                violations.append(
                    Violation(
                        "R3",
                        (_members_of(a), _members_of(b)),
                        f"r(A∪B)+r(A∩B)={ru + ri} exceeds r(A)+r(B)={ra + rb}",
                    )
                )
            if len(violations) >= _VIOLATION_CAP:
                break

    return AxiomReport.from_violations(violations)


def _exhaustive_rank_violations(M: Matroid) -> list[Violation]:
    n = M.ground_size
    size = 1 << n
    grades = M._grade_of_index
    elem_bits = M._elem_flatbits

    bits_tbl = [0] * size
    rank_tbl = np.empty(size, dtype=np.uint8)
    bits_tbl[0] = M._all_flat_bits
    rank_tbl[0] = grades[_lsb_index(M._all_flat_bits)]
    for m in range(1, size):
        low = m & -m
        b = bits_tbl[m ^ low] & elem_bits[low.bit_length() - 1]
        bits_tbl[m] = b
        rank_tbl[m] = grades[_lsb_index(b)]

    violations: list[Violation] = []
    all_masks = np.arange(size, dtype=np.int64)
    popcount = np.zeros(size, dtype=np.uint8)
    for e in range(n):
        popcount += ((all_masks >> e) & 1).astype(np.uint8)

    bad = np.nonzero(rank_tbl > popcount)[0]
    for m in bad[:_VIOLATION_CAP]:
        violations.append(
            Violation("R1", (_members_of(int(m)),), f"rank {rank_tbl[m]} exceeds cardinality")
        )

    for e in range(n):
        up = rank_tbl[all_masks | (1 << e)]
        bad = np.nonzero(rank_tbl > up)[0]
        for m in bad[:_VIOLATION_CAP]:
            violations.append(
                Violation(
                    "R2",
                    (_members_of(int(m)), frozenset([e])),
                    "rank decreases when adding an element",
                )
            )
        if len(violations) >= _VIOLATION_CAP:
            return violations

    rank16 = rank_tbl.astype(np.int16)
    for a in range(size):
        lhs = rank16[all_masks | a] + rank16[all_masks & a]
        rhs = int(rank_tbl[a]) + rank16
        bad = np.nonzero(lhs > rhs)[0]
        for m in bad[:_VIOLATION_CAP]:
            violations.append(
                Violation(
                    "R3",
                    (_members_of(a), _members_of(int(m))),
                    "submodularity fails",
                )
            )
        if len(violations) >= _VIOLATION_CAP:
            break
    return violations


# ---------------------------------------------------------------------------
# Surgery: restrict / delete / contract
# ---------------------------------------------------------------------------


def restrict(M: Matroid, subset: Iterable[int]) -> Matroid:
    """Restriction to ``subset``, re-indexed densely.

    The flats are the intersections of M's flats with the subset,
    deduplicated and re-graded by longest-chain length.  The returned
    matroid records which original element each new index came from in
    ``element_map``.
    """
    mask = M._subset_mask(subset)
    if mask == 0:
        raise ValueError("cannot restrict to the empty set")
    elems = sorted(_members_of(mask))
    reindex = {old: new for new, old in enumerate(elems)}

    inter_masks = list({fm & mask for fm in M._flat_masks})
    chain = _chain_lengths(inter_masks, _flat_relation(M.ground_size, inter_masks)[1])
    grades: list[list[ElementSet]] = [[] for _ in range(max(chain) + 1)]
    for m, c in zip(inter_masks, chain):
        grades[c].append(frozenset(reindex[e] for e in _bits(m)))
    return Matroid(len(elems), grades, element_map=tuple(elems))


def delete(M: Matroid, removed: Iterable[int]) -> Matroid:
    """Deletion of ``removed``: the restriction to the complement."""
    mask = M._subset_mask(removed)
    ground = _ground_mask(M)
    if mask == ground:
        raise ValueError("cannot delete the whole ground set")
    return restrict(M, _members_of(ground & ~mask))


def contract(M: Matroid, flat: Iterable[int]) -> Matroid:
    """Contraction by a flat, re-indexed densely.

    The flats are ``L - F`` for flats ``L`` containing ``F``, graded by
    the rank drop ``r(L) - r(F)``.
    """
    idx = M._flat_index(flat)
    fmask = M._flat_masks[idx]
    base_grade = M._grade_of_index[idx]
    elems = sorted(_members_of(_ground_mask(M) & ~fmask))
    reindex = {old: new for new, old in enumerate(elems)}
    grades: list[list[ElementSet]] = [[] for _ in range(M.rank - base_grade + 1)]
    b = M._sup_bits[idx]
    while b:
        low = b & -b
        b ^= low
        j = low.bit_length() - 1
        newflat = frozenset(reindex[e] for e in _members_of(M._flat_masks[j] & ~fmask))
        grades[M._grade_of_index[j] - base_grade].append(newflat)
    return Matroid(len(elems), grades, element_map=tuple(elems))


# ---------------------------------------------------------------------------
# Circuits and connectivity
# ---------------------------------------------------------------------------


def circuits_up_to(M: Matroid, max_size: int) -> list[ElementSet]:
    """All minimal dependent sets of size at most ``max_size``.

    Every circuit has size at most r+1, so that bound captures all of
    them.  Enumeration is by increasing size; a dependent set with no
    smaller circuit inside it is minimal.
    """
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    n = M.ground_size
    found_masks: list[int] = []
    circuits: list[ElementSet] = []
    for e in M.loops:
        found_masks.append(1 << e)
        circuits.append(frozenset([e]))
    nonloops = [e for e in range(n) if e not in M.loops]
    for size in range(2, min(max_size, n) + 1):
        for combo in itertools.combinations(nonloops, size):
            m = _mask_of(combo)
            if any(c & m == c for c in found_masks):
                continue
            if M._rank_of_mask(m) < size:
                found_masks.append(m)
                circuits.append(frozenset(combo))
    if max_size < 1:
        return []
    return sorted(circuits, key=flat_key)


def components(M: Matroid) -> ComponentPartition:
    """Connected components: the transitive closure of "lie on a common circuit".

    Loops (and elements on no circuit at all, i.e. coloops) end up as
    singleton blocks.  Circuit enumeration runs by increasing size up to
    r+1 and stops early once everything has merged into one block.
    """
    n = M.ground_size
    if n == 0:
        return ComponentPartition((), 0)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    loops = M.loops
    known = [1 << e for e in loops]
    nonloops = [e for e in range(n) if e not in loops]
    for size in range(2, min(M.rank + 1, len(nonloops)) + 1):
        if len({find(e) for e in nonloops}) <= 1:
            break
        for combo in itertools.combinations(nonloops, size):
            m = _mask_of(combo)
            if any(c & m == c for c in known):
                continue
            if M._rank_of_mask(m) < size:
                known.append(m)
                first = combo[0]
                for e in combo[1:]:
                    union(first, e)
    groups: dict[int, list[int]] = {}
    for e in range(n):
        groups.setdefault(find(e), []).append(e)
    blocks = tuple(sorted((frozenset(g) for g in groups.values()), key=flat_key))
    return ComponentPartition(blocks, len(blocks))


def is_inseparable(M: Matroid) -> bool:
    """True when the matroid has a single connected component."""
    return components(M).kappa == 1


def is_nondegenerate(M: Matroid, subset: Iterable[int]) -> bool:
    """Whether restriction and contraction components add up to kappa + 1.

    Convention: the contraction by the full ground set has an empty
    ground set, and its component count is taken to be 1 here (the
    lattice alone does not dictate a value for the empty matroid).
    """
    mask = M._subset_mask(subset)
    kr = components(restrict(M, _members_of(mask))).kappa if mask else 0
    cl = closure(M, _members_of(mask))
    contraction = contract(M, cl)
    kc = components(contraction).kappa if contraction.ground_size else 1
    return kr + kc == components(M).kappa + 1


# ---------------------------------------------------------------------------
# Fingerprint and isomorphism
# ---------------------------------------------------------------------------


def profile(M: Matroid) -> Profile:
    counts = tuple(len(g) for g in M.flats_by_rank)
    sizes = tuple(tuple(sorted(len(f) for f in g)) for g in M.flats_by_rank)
    return Profile(counts, sizes)


def is_isomorphic(M1: Matroid, M2: Matroid) -> Optional[dict[int, int]]:
    """Search for a flat-preserving element bijection.

    Backtracking over element assignments, pruned by per-element flat
    signatures and by closure signatures of assigned pairs and triples;
    a candidate map is accepted only if it sends every flat to a flat of
    the same grade.  Returns the bijection or None.  Rejects ground sets
    larger than ``ISO_GROUND_LIMIT``; compare profiles instead at that
    scale.
    """
    if M1.ground_size > ISO_GROUND_LIMIT or M2.ground_size > ISO_GROUND_LIMIT:
        raise ValueError(
            f"isomorphism search is limited to {ISO_GROUND_LIMIT} elements; compare profiles instead"
        )
    if M1.ground_size != M2.ground_size or profile(M1) != profile(M2):
        return None
    n = M1.ground_size
    if n == 0:
        return {}

    def elem_colors(M: Matroid) -> list[tuple]:
        cols = []
        for e in range(n):
            sig = sorted(
                (M._grade_of_index[i], len(M._flat_list[i]))
                for i in range(len(M._flat_list))
                if M._flat_masks[i] >> e & 1
            )
            cols.append(tuple(sig))
        return cols

    col1, col2 = elem_colors(M1), elem_colors(M2)
    if sorted(col1) != sorted(col2):
        return None

    def pair_sigs(M: Matroid) -> dict[tuple[int, int], tuple[int, int]]:
        sigs = {}
        for a in range(n):
            for b in range(a + 1, n):
                i = M._closure_index((1 << a) | (1 << b))
                sigs[(a, b)] = (M._grade_of_index[i], len(M._flat_list[i]))
        return sigs

    def triple_sigs(M: Matroid) -> dict[tuple[int, int, int], tuple[int, int]]:
        sigs = {}
        for combo in itertools.combinations(range(n), 3):
            i = M._closure_index(_mask_of(combo))
            sigs[combo] = (M._grade_of_index[i], len(M._flat_list[i]))
        return sigs

    ps1, ps2 = pair_sigs(M1), pair_sigs(M2)
    ts1, ts2 = triple_sigs(M1), triple_sigs(M2)

    freq: dict[tuple, int] = {}
    for c in col1:
        freq[c] = freq.get(c, 0) + 1
    order = sorted(range(n), key=lambda e: (freq[col1[e]], col1[e], e))
    candidates = {e: [f for f in range(n) if col2[f] == col1[e]] for e in order}

    assigned: dict[int, int] = {}

    def key3(a: int, b: int, c: int) -> tuple[int, int, int]:
        return tuple(sorted((a, b, c)))  # type: ignore[return-value]

    def consistent(e: int, f: int) -> bool:
        items = list(assigned.items())
        for a, x in items:
            if ps1[tuple(sorted((a, e)))] != ps2[tuple(sorted((x, f)))]:
                return False
        for (a, x), (b, y) in itertools.combinations(items, 2):
            if ts1[key3(a, b, e)] != ts2[key3(x, y, f)]:
                return False
        return True

    def flats_match() -> bool:
        perm = [assigned[e] for e in range(n)]
        for i, fm in enumerate(M1._flat_masks):
            target = 0
            b = fm
            while b:
                low = b & -b
                b ^= low
                target |= 1 << perm[low.bit_length() - 1]
            j = M2._index_of_mask.get(target)
            if j is None or M2._grade_of_index[j] != M1._grade_of_index[i]:
                return False
        return True

    used = [False] * n

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return flats_match()
        e = order[pos]
        for f in candidates[e]:
            if used[f] or not consistent(e, f):
                continue
            assigned[e] = f
            used[f] = True
            if backtrack(pos + 1):
                return True
            del assigned[e]
            used[f] = False
        return False

    if backtrack(0):
        return dict(sorted(assigned.items()))
    return None
