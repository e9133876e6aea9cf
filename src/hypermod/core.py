"""Matroids stored as graded lattices of flats.

A matroid is represented by the complete list of its flats, grade by
grade; every query (closure, rank, surgery, connectivity, isomorphism)
is answered from that lattice alone.  Elements are dense integers
``0..n-1`` and subsets of the ground set are plain frozensets (the
``ElementSet`` alias).

Instances are immutable after construction and all operations are pure
functions, so matroids may be shared freely between threads.  Internally
flats are mirrored as integer bitmasks, which keeps closure and rank
queries cheap even for lattices with a few thousand flats: a closure
ANDs the bits of the flats holding each element, and stops once only
the top flat is left, which on a spanning set comes after a handful of
elements.  One row builder, :meth:`Matroid._build`, makes every
matroid but a one-element extension from each grade's flats, given as
sorted members, mask and frozenset, with their unpacked 0/1 rows: the
constructor converts its input to those once, and :func:`_minor` and
:func:`hypermod.realize.matroid_from_points` hand over the masks and
rows they hold, so no frozenset is turned back into a mask.  It checks
the shape, sorts each grade by its member lists and builds the
containment order of the stored flats once, as bits over flat indices
(:func:`_flat_relation`): the element rows are the columns of the
unpacked rows, transposed and packed a block at a time, and each
up-set is the AND of its members' rows.  The shape
check, :func:`contract`, the pair table and :func:`verify_flat_axioms`
all read that order.  The last decides the cover axiom F2, the
grading and the irreducible flats, the hyperplanes, on the declared
grades, which every valid family passes: a flat strictly above another
has a higher grade, each flat but the bottom lies above one a grade
lower, and the flats one grade above a flat below the hyperplanes hold
every element and share only it.  Any other family takes one exact
pass over every flat's covers, its up-set reduced a block of flats at
a time.
Connectivity comes from one basis: :func:`components` merges the
stars of its fundamental circuits with 2r closure queries and
enumerates no circuits.  :func:`is_isomorphic` places elements one at a
time and checks each flat once, when its last element is placed, with
no table over pairs or triples of elements.

One packed pair table, exact on any family the constructor accepts,
answers every all-pairs question in row blocks.  Its meet index, the
packed flat masks and their sorted hashes (:func:`_meet_index`), is
built apart from the rest: F1 meets every flat with the flats that are
not the intersection of their covers, each such pair once, settles most
cells by counting shared elements, nested pairs among them, and looks
up only the others there, and lists witnesses from all pairs only when
it fails.  The flat-pair R3 check and the
defect scans of :mod:`hypermod.modularity` read the table's defects
(:func:`_defect_block`), except on a loopless rank-4 matroid that
carries a passing flat report, whose few positive pairs are read off
incidences there, so no up-set column is built for it.
Validity is decided once, by :func:`verify_flat_axioms`: a family that
passes it is the lattice of flats of a matroid, graded by height, so
:func:`verify_rank_axioms` passes it with no further work.  On any other
family the flat-pair R3 check also decides R3 on subsets, and the ranks
of the single elements, one lookup each, then decide R1, so both modes
of :func:`verify_rank_axioms` give the exact verdict and its subset
passes run only when they have witnesses to list.

Declared grades are *stored*, not recomputed: :func:`verify_flat_axioms`
checks them against longest-chain lengths, proved equal by the
checks above or found along the exact covers, by size, so that corrupt
input files are caught loudly instead of silently re-ranked.  Every report lists at most
``_VIOLATION_CAP`` witnesses per axiom, with an exact verdict.
:func:`restrict` and :func:`contract`
build through one minor builder (:func:`_minor`) that keeps each mask
with the first grade it arrives with, re-indexes the kept elements with
one column selection, none when they are a prefix, and reads the
members off the unpacked masks:
a restriction grades F ∩ S by the first flat that yields it, which is
cl(F ∩ S) on a valid lattice, so it makes no closure query, and a
contraction grades L - F by rank drop.  A matroid carries its flat-axiom report once
:func:`verify_flat_axioms` has computed it, and a one-element extension
of a loopless matroid, whose axioms hold iff a check on its modular cut,
the parent's flats that gain the new element, passes
(:func:`_extension_passes_flat_axioms`), carries a passing one from the
start; its rows are built from its parent's and that cut, with no call
to the constructor (:func:`_extension`), and its defects are counted
off its own incidences, so it builds no pair table.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

ElementSet = frozenset[int]

# A flat as the row builder takes it: its members ascending, its mask, itself.
_Flat = tuple[list[int], int, ElementSet]

# Exhaustive rank verification tabulates the rank of all 2^n subsets when
# R1 or R3 can fail, and then lists R3 witnesses from all 4^n subset pairs
# if R3 does; past this ground size that blows up and callers must sample.
EXHAUSTIVE_LIMIT = 14

# Backtracking isomorphism search is only intended for small fixtures.
ISO_GROUND_LIMIT = 20

# Building and checking a lattice costs time and memory quadratic in its
# flat count, so past this many flats ``generate`` builds nothing and
# parsing refuses the document.  PG(3,7) has 3652 flats.
FLAT_LIMIT = 5000


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
    checks that every element is in range, the smallest one out of range
    being named, converts each flat to its sorted members and mask, and
    builds through :meth:`_build`, which canonicalizes order and enforces
    the other cheap shape invariants (exactly one bottom flat, the top
    grade is exactly the full ground set, no duplicates, no nesting
    within a grade).  The lattice axioms themselves are *not* assumed
    here; run :func:`verify_flat_axioms` on untrusted input.
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
        grades: list[list[_Flat]] = []
        for grade in flats_by_rank:
            flats = []
            for f in map(frozenset, grade):
                members = sorted(f)
                if members and (members[0] < 0 or members[-1] >= n):
                    e = next(e for e in members if not 0 <= e < n)
                    raise ValueError(f"element {e} out of range for ground size {n}")
                flats.append((members, _mask_of(members), f))
            grades.append(flats)
        bits = _unpacked([mask for grade in grades for _, mask, _ in grade], n)
        self._build(n, grades, bits, name=name, element_map=element_map)

    def _build(
        self,
        n: int,
        grades: list[list[_Flat]],
        bits: np.ndarray,
        *,
        name: str | None = None,
        element_map: tuple[int, ...] | None = None,
    ) -> "Matroid":
        """Build this matroid on ``0..n-1`` from each grade's flats, and return it.

        ``grades[k]`` lists the grade-k flats as ``(members, mask, flat)``:
        the members ascending and below ``n``, their bitmask, and the flat
        as the frozenset that ``flats_by_rank`` will hold.  ``bits`` holds
        the same flats unpacked, one row of ``n`` 0/1 bytes per flat, in
        the order they are listed, grade by grade.  Every caller hands over
        what it holds: the constructor its input flats, converted, and so
        parsing too; :func:`_minor` its masks with their unpacked rows; and
        :func:`hypermod.realize.matroid_from_points` the flats it lists
        with their rows over the points.

        The shape is checked, in this order, each refusal a ValueError: a
        flat listed twice, no grade, a top grade other than the ground
        set alone, a bottom grade of more or fewer than one flat, and two
        nested flats of one grade.  No flat axiom is assumed, so the rows
        are exact on any family that passes.  Each grade is sorted by its
        member lists, and every attribute is set by :meth:`_set_rows`,
        with the grade starts and the rows of :func:`_flat_relation`.
        """
        seen: set[int] = set()
        for k, grade in enumerate(grades):
            for members, mask, _ in grade:
                if mask in seen:
                    raise ValueError(f"duplicate flat {members} (grade {k})")
                seen.add(mask)
        if not grades:
            raise ValueError("at least one grade is required")
        if len(grades[-1]) != 1 or grades[-1][0][1] != (1 << n) - 1:
            raise ValueError("top grade must contain exactly the full ground set")
        if len(grades[0]) != 1:
            raise ValueError("grade 0 must contain exactly one flat")

        flats = [flat for grade in grades for flat in grade]
        # Canonical order: grade ascending, member lists ascending inside a grade.
        order: list[int] = []
        starts = [0]
        for grade in grades:
            a = starts[-1]
            starts.append(a + len(grade))
            order.extend(sorted(range(a, starts[-1]), key=flats.__getitem__))
        members, masks, flat_list = map(list, zip(*[flats[i] for i in order]))
        rows = (masks, *_flat_relation(members, bits, order))
        self._set_rows(n, flat_list, starts, rows, name=name, element_map=element_map)
        # A flat inside another of its own grade breaks the shape.  One inside
        # a flat of lower grade is left to verify_flat_axioms.
        spans = [(1 << b) - (1 << a) for a, b in itertools.pairwise(starts)]
        for i, (up, k) in enumerate(zip(self._sup_bits, self._grade_of_index)):
            peers = up & spans[k] ^ 1 << i
            if peers:
                raise ValueError(
                    f"grade {k} flats must be pairwise incomparable: "
                    f"{members[i]} vs {members[_lsb_index(peers)]}"
                )
        return self

    def _set_rows(
        self,
        n: int,
        flats: list[ElementSet],
        starts: Iterable[int],
        rows: tuple[list[int], list[int], list[int]],
        *,
        name: str | None = None,
        element_map: tuple[int, ...] | None = None,
    ) -> None:
        """Set every attribute from the canonical flat list, the grade starts and the rows.

        ``flats`` is in the global flat order, grade ascending and member
        lists ascending inside a grade; grade k is ``starts[k]`` up to
        ``starts[k + 1]``.  ``rows`` is ``(masks, elem_flatbits, sup_bits)``
        in that order.  The only setter of a matroid's attributes, so
        ``flats_by_rank`` and every flat's grade are derived here alone.
        """
        self.ground_size = n
        self._grade_starts = starts = tuple(starts)
        spans = list(itertools.pairwise(starts))
        self.flats_by_rank: tuple[tuple[ElementSet, ...], ...] = tuple(tuple(flats[a:b]) for a, b in spans)
        self.name = name
        self.element_map = element_map
        self._flat_list = flats
        self._flat_masks, self._elem_flatbits, self._sup_bits = rows
        self._grade_of_index = [k for k, (a, b) in enumerate(spans) for _ in range(a, b)]
        self._index_of_mask = {m: i for i, m in enumerate(self._flat_masks)}
        self._all_flat_bits = (1 << len(flats)) - 1
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
        """Equal flats by grade: the masks in canonical order and the grade starts fix them."""
        if not isinstance(other, Matroid):
            return NotImplemented
        return (self.ground_size, self._grade_starts, self._flat_masks) == (
            other.ground_size, other._grade_starts, other._flat_masks
        )

    def __hash__(self) -> int:
        h = self._cache.get("hash")
        if h is None:
            h = hash((self.ground_size, self._grade_starts, tuple(self._flat_masks)))
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
        # The top flat holds every element and has the highest bit, so once
        # its bit is the only one left no further AND can change the result.
        bits = self._all_flat_bits
        top = (bits + 1) >> 1
        m = mask
        while m and bits != top:
            low = m & -m
            bits &= self._elem_flatbits[low.bit_length() - 1]
            m ^= low
        return bits

    def _closure_index(self, mask: int) -> int:
        # The top flat contains everything, so bits is never zero.
        return _lsb_index(self._closure_bits(mask))

    def _rank_of_mask(self, mask: int) -> int:
        return self._grade_of_index[self._closure_index(mask)]

    def _flat_index(self, flat: Iterable[int]) -> int:
        """Position of ``flat`` in the global flat order; ValueError if it is not a flat."""
        mask = self._subset_mask(flat)
        idx = self._index_of_mask.get(mask)
        if idx is None:
            raise ValueError(f"{sorted(_members_of(mask))} is not a flat")
        return idx


def _flat_relation(
    members: list[list[int]], bits: np.ndarray, order: list[int]
) -> tuple[list[int], list[int]]:
    """Element and containment bits of a family of subsets of ``0..n-1``.

    Set i has the members ``members[i]`` and the row ``bits[order[i]]``,
    one 0/1 byte per element.  Bit i of ``elem_bits[e]`` says that set i
    holds element e: column e of those rows, packed.  The columns are
    gathered, transposed and packed a block of about ``_BLOCK_BYTES`` at
    a time.  Bit j of ``sup_bits[i]`` says that set i lies inside set j,
    itself included: the AND of ``elem_bits`` over the members of set i,
    exact for any family, lattice or not.
    """
    rows = np.asarray(order)
    step = max(1, _BLOCK_BYTES // len(rows))
    elem_bits: list[int] = []
    for e0 in range(0, bits.shape[1], step):
        columns = np.ascontiguousarray(bits[rows, e0 : e0 + step].T)
        elem_bits += _ints(np.packbits(columns, axis=1, bitorder="little"))
    everything = (1 << len(members)) - 1
    sup_bits = []
    for elems in members:
        up = everything
        for e in elems:
            up &= elem_bits[e]
        sup_bits.append(up)
    return elem_bits, sup_bits


# ---------------------------------------------------------------------------
# The pair table: meets, joins and defects of blocks of flat pairs
# ---------------------------------------------------------------------------

# Cells (rows x columns) in one row block of the pair table; it bounds the
# 2-D temporaries of each block.
_BLOCK_CELLS = 1 << 14

# Bytes of rows packed, unpacked or gathered in one step of the packing and
# of the cover pass; it bounds the temporaries of each step.
_BLOCK_BYTES = 1 << 17


def _join_index(M: Matroid, i: int, j: int) -> int:
    """Index of the closure of flats i and j: the first flat holding both."""
    return _lsb_index(M._sup_bits[i] & M._sup_bits[j])


def _defect_by_index(M: Matroid, i: int, j: int) -> int:
    """r(A)+r(B)-r(A∪B)-r(A∩B) of flats i and j, with declared r(A), r(B); 0 if nested."""
    mi, mj = M._flat_masks[i], M._flat_masks[j]
    inter = mi & mj
    if inter == mi or inter == mj:
        return 0
    grade = M._grade_of_index
    return grade[i] + grade[j] - grade[_join_index(M, i, j)] - M._rank_of_mask(inter)


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
    """Nonnegative ints below ``2**bits`` as rows of little-endian ``uint64`` words, writable.

    The rows are written into place a block at a time, so no second copy
    of them is made.
    """
    width = 8 * -(-bits // 64)
    raw = bytearray(width * len(ints))
    step = max(1, _BLOCK_BYTES // max(1, width))
    for k in range(0, len(ints), step):
        block = ints[k : k + step]
        raw[k * width : (k + len(block)) * width] = b"".join(m.to_bytes(width, "little") for m in block)
    return np.frombuffer(raw, dtype="<u8").reshape(len(ints), width // 8)


def _unpacked(masks: list[int], bits: int) -> np.ndarray:
    """Nonnegative ints below ``2**bits`` as rows of ``bits`` 0/1 bytes, bit e in column e."""
    words = _packed(masks, max(1, bits)).view(np.uint8)
    return np.unpackbits(words, axis=1, count=bits, bitorder="little")


def _members(rows: np.ndarray) -> list[list[int]]:
    """The columns set in each row of 0/1 rows, ascending, read off one ``np.flatnonzero``."""
    r, c = np.divmod(np.flatnonzero(rows.view(bool)), max(1, rows.shape[1]))
    ends = np.cumsum(np.bincount(r, minlength=len(rows))).tolist()
    c = c.tolist()
    return [c[a:b] for a, b in zip([0] + ends, ends)]


def _ints(rows: np.ndarray) -> list[int]:
    """Rows of little-endian bytes as ints, one per row."""
    raw, width = rows.tobytes(), rows.shape[1]
    return [int.from_bytes(raw[k : k + width], "little") for k in range(0, width * len(rows), width)]


def _meet_index(M: Matroid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a meet lookup reads, built once per matroid.

    ``words``: the flat masks packed, at least one word per flat.
    ``keys``, ``order``: the sorted flat hashes and the flat index behind each.
    """
    index = M._cache.get("meet_index")
    if index is None:
        words = _packed(M._flat_masks, max(1, M.ground_size))
        hashes = _hash(words[:, w] for w in range(words.shape[1]))
        order = np.argsort(hashes, kind="stable")
        index = M._cache["meet_index"] = (words, hashes[order], order)
    return index


def _pair_table(M: Matroid) -> tuple:
    """What the defect blocks read, built once per matroid: the meet index, then

    ``grade``, ``rank``: every flat's declared grade, and that of the lowest flat above it.
    ``up_sets[k][i]``: the grade-k flats above flat i, bit b for the b-th
    flat of grade k, sliced from ``M._sup_bits``.
    ``prefix[k]``: one past the last flat with a grade-k flat strictly above it.
    """
    table = M._cache.get("pair_table")
    if table is None:
        grade = M._grade_of_index
        rank = [grade[_lsb_index(s)] for s in M._sup_bits]
        up_sets, prefix = [], []
        for a, b in zip(M._grade_starts, M._grade_starts[1:]):
            up = [(s >> a) & ((1 << (b - a)) - 1) for s in M._sup_bits]
            # A grade-k flat holds only its own bit: its grade peers are incomparable.
            below = [i for i, bits in enumerate(up) if bits and not a <= i < b]
            prefix.append(below[-1] + 1 if below else 0)
            up_sets.append(_packed(up, b - a))
        table = (*_meet_index(M), np.asarray(grade), np.asarray(rank), up_sets, prefix)
        M._cache["pair_table"] = table
    return table


def _lookup(M: Matroid, inter: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stored flats with the masks given word by word in ``inter``, equal-shape arrays.

    Returns ``(meet, found)``: where ``found``, the mask is that of the
    stored flat ``meet``, looked up by hash and confirmed word by word.
    A cell not found is no stored flat, or lost a hash collision.
    """
    words, keys, order = _meet_index(M)
    meet = order[np.minimum(np.searchsorted(keys, _hash(inter)), len(keys) - 1)]
    found = np.ones(meet.shape, dtype=bool)
    for w, x in enumerate(inter):
        found &= words[:, w][meet] == x
    return meet, found


def _meet_block(M: Matroid, rows: slice, cols) -> tuple[np.ndarray, np.ndarray]:
    """Intersections of the flats ``rows`` with the flats ``cols``, a slice or an index array.

    Returns :func:`_lookup`'s ``(meet, found)`` for each cell.
    """
    words = _meet_index(M)[0]
    return _lookup(M, [words[rows, w][:, None] & words[cols, w][None, :] for w in range(words.shape[1])])


def _defect_block(M: Matroid, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Defects of flats ``r0..r1-1`` (rows) against flats ``c0..c1-1`` (columns).

    Equal to :func:`_defect_by_index` on every cell of any family the
    constructor accepts, by two identities of ``_rank_of_mask``: the join
    has the lowest grade whose up-sets meet, and a found meet k has rank
    ``rank[k]``, the closure bits of F_k being ``_sup_bits[k]``.  Cells
    whose meet is not found fall back to :func:`_defect_by_index`.
    """
    grade, rank, up_sets, prefix = _pair_table(M)[3:]
    meet, found = _meet_block(M, slice(r0, r1), slice(c0, c1))
    # The top flat lies above every pair.  Up-sets of grade k meet only
    # below ``prefix[k]``, or at a grade-k flat of the pair, which is then
    # nested with the other and has defect zero.
    join = np.full(meet.shape, M.rank)
    for k in range(M.rank - 1, -1, -1):
        nr, nc = min(r1, prefix[k]) - r0, min(c1, prefix[k]) - c0
        if nr <= 0 or nc <= 0:
            continue
        up = up_sets[k]
        common = np.zeros((nr, nc), dtype=bool)
        for w in range(up.shape[1]):
            common |= (up[r0 : r0 + nr, w, None] & up[None, c0 : c0 + nc, w]) != 0
        join[:nr, :nc][common] = k

    defect = grade[r0:r1, None] + grade[None, c0:c1] - join - rank[meet]
    # A pair whose meet is one of its own flats is nested.
    nested = (meet == np.arange(r0, r1)[:, None]) | (meet == np.arange(c0, c1)[None, :])
    defect[nested] = 0
    for b, c in zip(*np.nonzero(~found)):
        defect[b, c] = _defect_by_index(M, r0 + int(b), c0 + int(c))
    return defect


def _upper_cells(M: Matroid, lo: int, hi: int, block: Callable) -> Iterator[tuple[int, int, int]]:
    """Nonzero cells ``(i, j, value)``, lo <= i < j < hi, of a block routine, row-major.

    ``block(M, r0, r1, c0, c1)`` is called like :func:`_defect_block`, lazily on
    rows of about ``_BLOCK_CELLS`` cells, so a caller that wants one cell stops early.
    """
    step = max(1, _BLOCK_CELLS // max(1, hi - lo))
    for r0 in range(lo, hi, step):
        values = np.triu(block(M, r0, min(r0 + step, hi), r0, hi), 1)
        for b, c in zip(*np.nonzero(values)):
            yield r0 + int(b), r0 + int(c), int(values[b, c])


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

# Each axiom lists at most this many witnesses, so a report stays small
# however corrupt the family; every verdict is still exact.
_VIOLATION_CAP = 16


def verify_flat_axioms(M: Matroid) -> AxiomReport:
    """Check the lattice axioms on the stored flats.

    F1: the intersection of two flats is a flat.  Call a flat
    *irreducible* when it is not the intersection of its covers, its
    minimal flats strictly above.  F1 holds iff every flat meets every
    irreducible flat in a flat, since every flat is the intersection of
    the irreducible flats at or above it (induction from the top flat,
    the intersection of none), so any meet is a chain of meets with
    irreducible flats.  This needs no axiom, only distinct subsets of a
    top set.  F1 is decided on those cells (:func:`_meets_are_flats`),
    which on a geometric lattice are the meets with its hyperplanes;
    only when it fails are all pairs of the pair table scanned to list
    the witnesses.  A meet not confirmed in the table is looked up among
    the stored masks before it counts.

    F2, the cover axiom (Oxley, *Matroid Theory*, 2nd ed., §1.4, F3):
    the covers of each flat F hold every element outside F.  Each element
    s that none holds is reported as (F, {s}), in flat order and then
    element order.  No overlap test is needed: given F1, two covers
    G1 != G2 holding s would meet in a flat strictly between F and G1.

    Grading: every declared grade equals the longest chain length from
    the bottom flat, along covers, since a longest chain of strict
    inclusions has no room for a flat between two of its steps.

    The declared grades decide F2, the grading and the irreducible flats,
    flat order being grade-ascending, when three checks pass
    (:func:`_grades_decide`): *downward*, every flat of grade g + 1 lies
    above one of grade g; and, for each flat F below the hyperplanes, the
    next-grade flats above F hold every element (*OR*) and share only F
    (*AND*).  Downward gives *monotone*: no other flat G of grade h <= g
    lies above a flat F of grade g, since downward leads from F down to a
    grade-h flat inside F, so strictly inside G, and the constructor
    refuses two nested flats of one grade.  Then the grading holds: the
    constructor keeps one grade-0 flat, the grades along a strict chain
    ending at F rise from 0, by monotone, so it has at most grade(F)
    steps, and by downward one has exactly that many.  A next-grade flat
    above F covers F: a flat strictly between would have a grade strictly
    between grade(F) and grade(F) + 1.  So OR gives F2, the top flat E
    being the one cover of a hyperplane, by monotone; F ⊆ ∩ covers ⊆ ∩
    next-grade flats = F by AND, so F is reducible; every hyperplane is
    irreducible, and the irreducible flats are exactly the hyperplanes.

    A valid family passes all three.  It is graded by height, so monotone
    and downward hold, and the covers of F are the next-grade flats
    above it.  F2 makes them hold E - F.  Below the hyperplanes F has
    two at least, as one would hold E, and F1 makes two meet in F.  So
    :func:`_cover_violations`, exact on any family, runs only on one
    that fails an axiom, and the report is the same either way.
    Violations are reported, never thrown: the first ``_VIOLATION_CAP``
    of each axiom, in the order above, so the all-pairs F1 scan stops
    once it has listed them.

    The report is stored in ``M._cache["flat_report"]`` and returned as it
    is on later calls; the only other writer is :func:`_extension`, which
    stores a passing report on the extension that its check proves.
    """
    stored = M._cache.get("flat_report")
    if stored is not None:
        return stored
    if _grades_decide(M):
        first_hyperplane = M._grade_starts[max(M.rank - 1, 0)]
        irreducible, cover_violations = np.arange(first_hyperplane, len(M._flat_list) - 1), []
    else:
        irreducible, cover_violations = _cover_violations(M)
    violations: list[Violation] = []
    masks, flats = M._flat_masks, M._flat_list

    # F1: a cell whose meet is not confirmed may have lost a hash collision.
    if not _meets_are_flats(M, irreducible):
        def unconfirmed(M, r0, r1, c0, c1):
            return ~_meet_block(M, slice(r0, r1), slice(c0, c1))[1]

        cells = _upper_cells(M, 0, len(masks), unconfirmed)
        missing = ((i, j) for i, j, _ in cells if masks[i] & masks[j] not in M._index_of_mask)
        for i, j in itertools.islice(missing, _VIOLATION_CAP):
            detail = f"intersection {sorted(_members_of(masks[i] & masks[j]))} is not a flat"
            violations.append(Violation("F1", (flats[i], flats[j]), detail))
    violations.extend(cover_violations)

    return M._cache.setdefault("flat_report", AxiomReport.from_violations(violations))


def _has_passing_flat_report(M: Matroid) -> bool:
    """Whether ``M`` already carries a passing flat report; never computes one."""
    report = M._cache.get("flat_report")
    return report is not None and report.passed


def _grades_decide(M: Matroid) -> bool:
    """Whether the declared grades decide F2, the grading and the irreducible flats.

    The three checks of :func:`verify_flat_axioms`, where they are proved
    and monotone is derived from them.  Downward is read off Python int
    masks; OR and AND off one pass over the flats below the hyperplanes,
    one OR and one AND over the set bits of every grade's packed
    next-grade slices.  AND keeps an irreducible flat below the
    hyperplanes among F1's columns.
    """
    starts, sup = M._grade_starts, M._sup_bits
    words = _meet_index(M)[0]
    ground = words[-1]  # the top flat is the ground set
    h = starts[max(M.rank - 1, 0)]
    r, c = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for g in range(M.rank):
        a, b, end = starts[g : g + 3]
        full = (1 << (end - b)) - 1
        slices = [s >> b & full for s in sup[a:b]]
        if reduce(or_, slices, 0) != full:
            return False
        if full and g < M.rank - 1:
            packed = _packed(slices, end - b)
            step = max(1, _BLOCK_BYTES // (end - b))
            for k in range(0, len(slices), step):
                rows, cols = _set_bits(packed[k : k + step])
                r.append(rows + a + k)
                c.append(cols + b)
    r, c = np.concatenate(r), np.concatenate(c)
    held = words[:h].copy()
    _reduce_rows(np.bitwise_or, words, r, c, held)
    if (held != ground).any():
        return False
    meet = np.tile(ground, (h, 1))
    _reduce_rows(np.bitwise_and, words, r, c, meet)
    return bool((meet == words[:h]).all())


def _cover_violations(M: Matroid) -> tuple[np.ndarray, list[Violation]]:
    """The irreducible flats, and the F2 and grading violations, read off each flat's covers.

    One pass over blocks of flats, by size, finds each flat's covers, ORs
    and ANDs their packed element words, one ``reduceat`` per step, and
    reads F2 and irreducibility off the two.  F's covers are its packed
    strictly-above row less the OR of the rows of the flats in it.
    The same pass finds each flat's longest chain length from the bottom
    flat: 0 if it covers no flat, else 1 + the largest length among the
    flats it covers.  Those are smaller, so their lengths are final
    before its own; once a run of flats of one size is reached, each
    pushes its length plus one to its covers.  The F2 witnesses are
    listed in flat order, the grading ones by size.

    Apart from :func:`verify_flat_axioms` so that its rows are freed
    before the F1 pass.
    """
    flats, grade = M._flat_list, np.asarray(M._grade_of_index)
    count = len(flats)
    above = _packed(M._sup_bits, count)
    diagonal = np.arange(count)
    above[diagonal, diagonal >> 6] ^= np.uint64(1) << (diagonal & 63).astype(np.uint64)
    words = _meet_index(M)[0]
    ground = words[-1]  # the top flat is the ground set
    sizes = np.bitwise_count(words).sum(axis=1)
    by_size = np.argsort(sizes, kind="stable")
    chain = np.zeros(count, dtype=np.intp)
    irreducible, unheld, held_words = [], [], []
    step = max(1, _BLOCK_BYTES // count)
    for r0 in range(0, count, step):
        rows = by_size[r0 : r0 + step]
        block = above[rows]
        r, c = _set_bits(block)
        skipped = np.zeros_like(block)
        _reduce_rows(np.bitwise_or, above, r, c, skipped)
        r, c = _set_bits(block & ~skipped)
        held, meet = words[rows], np.tile(ground, (len(rows), 1))
        _reduce_rows(np.bitwise_or, words, r, c, held)
        _reduce_rows(np.bitwise_and, words, r, c, meet)
        irreducible.append(rows[(meet != words[rows]).any(axis=1)])
        short = (held != ground).any(axis=1)
        unheld.append(rows[short])
        held_words.append(held[short])
        bounds = np.flatnonzero(np.diff(sizes[rows], prepend=-1, append=-1))
        for lo, hi in itertools.pairwise(np.searchsorted(r, bounds)):
            np.maximum.at(chain, c[lo:hi], chain[rows[r[lo:hi]]] + 1)

    # Stable sorts throughout: numpy's default sort loads about 0.3 MB more
    # code into a process on first use, and the indices are distinct anyway.
    f2: list[Violation] = []
    unheld, held_words = np.concatenate(unheld), np.concatenate(held_words)
    for k in np.argsort(unheld, kind="stable")[:_VIOLATION_CAP]:
        held = int.from_bytes(held_words[k].tobytes(), "little")
        for e in _bits(_ground_mask(M) & ~held)[: _VIOLATION_CAP - len(f2)]:
            detail = "no cover of the flat holds the element"
            f2.append(Violation("F2", (flats[unheld[k]], frozenset([e])), detail))

    grading: list[Violation] = []
    for j in by_size[chain[by_size] != grade[by_size]][:_VIOLATION_CAP]:
        detail = f"declared grade {grade[j]} but longest chain has length {chain[j]}"
        grading.append(Violation("grading", (flats[j],), detail))
    return np.sort(np.concatenate(irreducible), kind="stable"), f2 + grading


def _set_bits(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of every set bit of packed rows, row-major.

    Only the words set in some row are unpacked.
    """
    live = np.flatnonzero(np.bitwise_or.reduce(rows, axis=0))
    bits = np.unpackbits(np.ascontiguousarray(rows[:, live]).view(np.uint8), axis=1, bitorder="little")
    r, c = np.divmod(np.flatnonzero(bits.view(bool)), bits.shape[1])
    return r, live[c >> 6] * 64 + (c & 63)


def _reduce_rows(op: np.ufunc, table: np.ndarray, r: np.ndarray, c: np.ndarray, out: np.ndarray) -> None:
    """Fold ``table[c[k]]`` into ``out[r[k]]`` with ``op``, for every k; ``r`` ascending.

    Each step gathers at most ``_BLOCK_BYTES`` of ``table`` and folds
    each run of equal ``r`` with one ``reduceat``.
    """
    step = max(1, _BLOCK_BYTES // table[0].nbytes)
    for p0 in range(0, len(r), step):
        rr, cc = r[p0 : p0 + step], c[p0 : p0 + step]
        first = np.flatnonzero(np.diff(rr, prepend=-1))
        at = rr[first]
        out[at] = op(out[at], op.reduceat(table[cc], first, axis=0))


def _meets_are_flats(M: Matroid, cols: np.ndarray) -> bool:
    """Whether every flat meets each flat of the index array ``cols`` in a stored flat.

    Per row block, each cell counts the elements its two flats share, by
    popcount of the word ANDs.  Only the words set in some row of the
    block and in some flat of ``cols`` are ANDed: a word that is zero on
    either side adds 0 to every count.  Three rules settle a cell with
    no lookup, each exact on any family the constructor accepts, since
    each reads only the two masks: a count of 0 means the meet is ∅,
    settled if ∅ is stored; a count of 1 means it is a singleton, settled
    if every singleton is stored; a count equal to the size of either
    flat means the two are nested, so the meet is one of them, and
    stored.  A cell whose row is in ``cols`` too is the cell of its
    column's row and its row's column read the other way, so only the
    one whose row index is the smaller is checked.  Every other cell is
    looked up in the meet index (:func:`_lookup`), and one not found
    there, a miss or a lost hash collision, in ``M._index_of_mask``.
    """
    words, index, masks = _meet_index(M)[0], M._index_of_mask, M._flat_masks
    settled = [0] if 0 in index else []
    if all(1 << e in index for e in range(M.ground_size)):
        settled.append(1)
    sizes = np.bitwise_count(words).sum(axis=1)
    # Row i, at position p of cols, is read the other way in the columns up to p.
    first_col = np.zeros(len(masks), dtype=np.intp)
    first_col[cols] = np.arange(1, len(cols) + 1)
    col_words, col_sizes = words[cols], sizes[cols]
    col_live = col_words.any(axis=0)
    step = max(1, _BLOCK_CELLS // max(1, len(cols)))
    chunk = max(1, _BLOCK_CELLS // words.shape[1])
    for r0 in range(0, len(masks), step):
        row_words = words[r0 : r0 + step]
        shared = np.zeros((len(row_words), len(cols)), dtype=np.int32)
        for w in np.flatnonzero(row_words.any(axis=0) & col_live):
            shared += np.bitwise_count(row_words[:, w, None] & col_words[None, :, w])
        open_cells = np.ones(shared.shape, dtype=bool)
        for k in settled:
            open_cells &= shared != k
        b, c = np.divmod(np.flatnonzero(open_cells), len(cols))
        row, count = r0 + b, shared[b, c]
        live = (count != sizes[row]) & (count != col_sizes[c]) & (c >= first_col[row])
        b, c = b[live], c[live]
        for q0 in range(0, len(b), chunk):
            bb, cc = b[q0 : q0 + chunk], c[q0 : q0 + chunk]
            found = _lookup(M, [row_words[bb, w] & col_words[cc, w] for w in range(words.shape[1])])[1]
            for i, j in zip(bb[~found], cc[~found]):
                if masks[r0 + i] & masks[cols[j]] not in index:
                    return False
    return True


def _extension_passes_flat_axioms(M: Matroid, cut: list[int]) -> bool:
    """Whether N passes F1, F2 and grading, decided from ``M``'s and the cut ``cut``.

    ``M`` must pass all three.  ``cut`` lists the indices of a family D of
    M's flats, and N is ``M`` with a new element m added to every flat of
    D, plus the grade-1 flat {m}, built as
    :func:`hypermod.extension.extend_once` builds it and accepted by the
    constructor.  A single-element extension is fixed by a modular cut, an
    up-closed family of flats closed under meets (Crapo 1965; Oxley,
    *Matroid Theory*, §7.2), so only D is checked.  If M's bottom flat is
    empty, N passes iff:

    (i) D is up-closed in M;
    (iii) any two flats of D meet in a flat of D or in the bottom flat;
    (v) the grade-2 flats of D cover the ground set.

    The other conditions follow, so they are not checked.  D holds the
    top flat, since N's top flat is its ground set.  And:

    (ii) D has no flat of grade 0 or 1, or the constructor would have
         refused N: {m} would equal the enlarged bottom flat, or lie
         inside an enlarged flat of its own grade;
    (iv) every flat G outside D but the bottom lies under a flat of D one
         grade higher: by (v) a grade-2 flat L of D holds an element of
         G, L is not inside G by (i), so L meets G in a grade-1 flat and
         G ∨ L, in D by (i), is one grade above G by semimodularity.

    By (i) no containment among M's flats is lost, so F2 for M's flats in
    D and every chain length carry over from M; with (ii) a chain through
    {m} is no longer than grade(F) for F above it.  (i) and (iii) give F1;
    the bottom flat is empty, so {m} meets every flat outside D in a flat.
    A flat one grade higher covers, so (iv) puts m in a cover of every
    flat outside D, and by (v) the covers of {m} hold every other element.

    Conversely, let N pass.  If (i) fails, a flat F of D lies under a flat
    G outside it, and (F+m) ∩ G = F is not a flat of N, which holds F only
    as F+m.  If (iii) fails, F+m and G+m meet in (F∩G)+m, not a flat of N:
    N's flats holding m are {m} and the images of D.  If (v) fails, F2
    fails at the atom {m}: N is then a matroid's lattice, so the covers of
    {m} have grade 2 and are the images of D's grade-2 flats.  If M has a
    loop, False means no proof, not a failure.
    """
    masks, index, grade, sup = M._flat_masks, M._index_of_mask, M._grade_of_index, M._sup_bits
    in_cut = sum(1 << j for j in set(cut))
    if masks[0] or any(sup[j] & ~in_cut for j in cut):
        return False
    for a, b in itertools.combinations(cut, 2):
        meet = index.get(masks[a] & masks[b])
        if meet is None or (meet and not in_cut >> meet & 1):
            return False
    covered = 0
    for j in cut:
        if grade[j] == 2:
            covered |= masks[j]
    return covered == _ground_mask(M)


def _extension(M: Matroid, cut: list[int]) -> Matroid:
    """The N of :func:`_extension_passes_flat_axioms`, built from ``M``'s rows and the cut.

    ``M`` is loopless, the check on ``cut`` passes and ``cut`` holds only
    flats of grade 2 or more, so the constructor would accept N, with the
    rows built here.  N's flats are M's, with the new element m added to
    each cut flat, and the grade-1 flat {m}.  m is the largest element,
    so adding it keeps each grade's canonical order: two flats of one
    grade are incomparable, so their sorted members differ before either
    ends.  And {m} comes last among the points.  So N's flat order is
    M's, with every index from the end of grade 1 on shifted up by one to
    make room for {m}, and its rows follow from M's:

    * the cut flats gain bit m, and m's element row is {m} and the cut;
    * {m}'s up-set is {m} and the cut, the flats holding m;
    * the bottom flat's up-set gains {m}, which holds the empty bottom
      flat and, being a point, no other flat of M;
    * nothing else changes.  An image F' of a flat of M lies in G' iff F
      lies in G: if F is in the cut, so is every G above it, since the
      cut is up-closed (condition (i)).

    N carries the passing flat report that the check proves, so it is
    never re-verified; :func:`verify_flat_axioms` is the other writer.
    """
    m, s = M.ground_size, M._grade_starts[2]
    point = frozenset([m])

    def shift(bits: int) -> int:
        return bits & ((1 << s) - 1) | ((bits >> s) << (s + 1))

    flats = M._flat_list[:s] + [point] + M._flat_list[s:]
    masks = M._flat_masks[:s] + [1 << m] + M._flat_masks[s:]
    holding_m = 1 << s
    for j in cut:
        flats[j + 1] = flats[j + 1] | point
        masks[j + 1] |= 1 << m
        holding_m |= 1 << (j + 1)
    sup = [shift(up) for up in M._sup_bits]
    sup.insert(s, holding_m)
    sup[0] |= 1 << s

    starts = M._grade_starts[:2] + tuple(t + 1 for t in M._grade_starts[2:])
    elem = [shift(bits) for bits in M._elem_flatbits] + [holding_m]
    N = Matroid.__new__(Matroid)
    N._set_rows(m + 1, flats, starts, (masks, elem, sup))
    N._cache["flat_report"] = AxiomReport(True, ())
    return N


def _ground_mask(M: Matroid) -> int:
    return (1 << M.ground_size) - 1


def verify_rank_axioms(
    M: Matroid,
    mode: str = "sampled",
    *,
    seed: int = 0,
    trials: int = 10000,
) -> AxiomReport:
    """Check the rank axioms R1-R3 induced by the lattice.

    r(A) is the lowest grade of a stored flat holding A.  If M passes
    :func:`verify_flat_axioms`, R1-R3 hold and the report is a pass with
    no further work.  F1, F2 (with the top flat the ground set) and the
    grading make the stored flats the lattice of flats of a matroid,
    graded by height (Oxley, *Matroid Theory*, 2nd ed., §1.4).  By F1,
    cl(A), the meet of the flats holding A, is stored, and every other
    flat holding A lies strictly above it, so has a longer chain and a
    higher grade: the stored lowest grade is grade(cl A), which is the
    matroid's rank of A.  That report is computed by
    :func:`verify_flat_axioms` or stored on a proved extension, so no
    validity is assumed.

    On a family that fails the flat axioms, submodularity is checked on
    every pair of flats: those of negative
    defect in the pair table, which equals r(A)+r(B)-r(A∪B)-r(A∩B) on
    pairs that are not nested.  ``mode="exhaustive"`` then checks R1 on
    every subset and R3 on every pair of subsets (only for ground sizes up
    to ``EXHAUSTIVE_LIMIT``); ``mode="sampled"`` checks R1 on every single
    element and R3 on ``trials`` seeded random subset pairs.  At most a
    handful of witnesses per axiom are reported.  R2 always holds: r(A)
    is the lowest grade of a stored flat holding A, and fewer flats hold
    a superset.

    Both modes give the same verdict, whatever ``trials`` is, and the
    subset passes run only when they can report.  Subset R3 fails iff the
    flat-pair check fails on two flats that are their own closures, and
    then that check has listed a witness.  Once subset R3 holds, R1 fails
    iff some element has rank 2 or more (Oxley, *Matroid Theory*, §1.3):
    r(∅) = 0, the grade of the bottom flat, so for e outside A
    submodularity on A and {e} gives r(A+e) ≤ r(A) + r({e}), and by
    induction r(A) ≤ |A| when every r({e}) ≤ 1.  The rank of {e} is the
    grade of the lowest flat holding e, read off its element bits with no
    closure query.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    n = M.ground_size
    if mode == "exhaustive" and n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive mode tabulates 2^n subset ranks; limited to ground size {EXHAUSTIVE_LIMIT}"
        )
    if verify_flat_axioms(M).passed:
        return AxiomReport(True, ())
    violations: list[Violation] = []

    # Submodularity over all pairs of flats.  The pass lists every violation
    # unless it fills the cap, so it sees each failing pair of closed flats:
    # a flat is its own closure when no flat before it holds it.
    grades, sup = M._grade_of_index, M._sup_bits
    r3_fails = False
    negative = _upper_cells(M, 0, len(grades), lambda *span: np.minimum(_defect_block(*span), 0))
    for i, j, d in itertools.islice(negative, _VIOLATION_CAP):
        bound = grades[i] + grades[j]
        detail = f"r(A∪B)+r(A∩B)={bound - d} exceeds r(A)+r(B)={bound}"
        violations.append(Violation("R3", (M._flat_list[i], M._flat_list[j]), detail))
        r3_fails |= _lsb_index(sup[i]) == i and _lsb_index(sup[j]) == j
    ranks = [grades[_lsb_index(bits)] for bits in M._elem_flatbits]
    singles = [e for e, r in enumerate(ranks) if r > 1]
    if len(violations) >= _VIOLATION_CAP or not (r3_fails or singles):
        return AxiomReport.from_violations(violations)

    if mode == "exhaustive":
        violations.extend(_exhaustive_rank_violations(M, r3_fails))
        return AxiomReport.from_violations(violations)
    for e in singles[: _VIOLATION_CAP - len(violations)]:
        violations.append(Violation("R1", (frozenset([e]),), f"rank {ranks[e]} exceeds cardinality"))
    if r3_fails:
        rng = random.Random(seed)
        for _ in range(trials):
            if len(violations) >= _VIOLATION_CAP:
                break
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            ca, cb = M._closure_bits(a), M._closure_bits(b)
            ra, rb = grades[_lsb_index(ca)], grades[_lsb_index(cb)]
            # The flats holding A∪B are the flats holding both A and B.
            ru = grades[_lsb_index(ca & cb)]
            ri = M._rank_of_mask(a & b)
            if ru + ri > ra + rb:
                violations.append(
                    Violation(
                        "R3",
                        (_members_of(a), _members_of(b)),
                        f"r(A∪B)+r(A∩B)={ru + ri} exceeds r(A)+r(B)={ra + rb}",
                    )
                )
    return AxiomReport.from_violations(violations)


def _exhaustive_rank_violations(M: Matroid, r3_fails: bool) -> list[Violation]:
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
    bad = np.nonzero(rank_tbl > np.bitwise_count(all_masks))[0]
    for m in bad[:_VIOLATION_CAP]:
        violations.append(
            Violation("R1", (_members_of(int(m)),), f"rank {rank_tbl[m]} exceeds cardinality")
        )
    if len(violations) >= _VIOLATION_CAP or not r3_fails:
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


def _minor(ground: int, masks: list[int], ranks: list[int]) -> Matroid:
    """The matroid on the elements of the mask ``ground``, re-indexed densely in order.

    Its flats are ``masks``, all inside ``ground``, each with the grade
    ``ranks`` gives its first occurrence.  The kept masks are unpacked
    once, grade by grade, and the rows go to :meth:`Matroid._build` with
    them.  When the kept elements are a prefix, the masks already index
    them; otherwise their columns are selected once and the new masks
    packed from them.  Every flat's members are read off one
    ``np.flatnonzero``.  ``element_map`` records the original element of
    each new index.
    """
    first = dict(zip(reversed(masks), reversed(ranks)))  # the earliest occurrence is set last
    by_grade: list[list[int]] = [[] for _ in range(max(first.values()) + 1)]
    for mask, grade in first.items():
        by_grade[grade].append(mask)
    kept = [mask for grade in by_grade for mask in grade]
    elems = _bits(ground)
    bits = _unpacked(kept, ground.bit_length())
    if ground & (ground + 1):
        bits = bits[:, elems]
        kept = _ints(np.packbits(bits, axis=1, bitorder="little"))
    members = _members(bits)
    flats = zip(members, kept, map(frozenset, members))
    grades = [list(itertools.islice(flats, len(grade))) for grade in by_grade]
    return Matroid.__new__(Matroid)._build(len(elems), grades, bits, element_map=tuple(elems))


def restrict(M: Matroid, subset: Iterable[int]) -> Matroid:
    """Restriction to ``subset``, re-indexed densely.

    The flats are the intersections F ∩ S of M's flats with the subset S,
    each graded by the first flat, in flat order, that yields it.  That
    grade is r(F ∩ S), with no closure query, when M passes the flat
    axioms.  Let K = F ∩ S.  Every flat G with G ∩ S = K holds K, so it
    holds cl(K), the least flat holding K.  And cl(K) ∩ S = K, since
    K ⊆ cl(K) ⊆ F.  Flat order is grade ascending, and a flat strictly
    above cl(K) has a higher grade, so cl(K) is the first flat to yield
    K and its grade is r(K).  The grades run from 0 to r(S), and each is
    a longest-chain length of the restriction.  M must pass the flat
    axioms; an invalid lattice may be graded differently, or refused by
    the constructor.  The returned matroid records which original element
    each new index came from in ``element_map``.  The masks F ∩ S go to
    :func:`_minor` as they are; a restriction to ``range(m)``, such as
    the round trip of :func:`hypermod.extension.extend_once`, keeps a
    prefix and re-indexes nothing.
    """
    mask = M._subset_mask(subset)
    if mask == 0:
        raise ValueError("cannot restrict to the empty set")
    return _minor(mask, [fm & mask for fm in M._flat_masks], M._grade_of_index)


def delete(M: Matroid, removed: Iterable[int]) -> Matroid:
    """Deletion of ``removed``: the restriction to the complement."""
    mask = M._subset_mask(removed)
    ground = _ground_mask(M)
    if mask == ground:
        raise ValueError("cannot delete the whole ground set")
    return restrict(M, _bits(ground & ~mask))


def contract(M: Matroid, flat: Iterable[int]) -> Matroid:
    """Contraction by a flat, re-indexed densely.

    The flats are ``L - F`` for flats ``L`` containing ``F``, graded by
    the rank drop ``r(L) - r(F)`` and built as :func:`restrict` builds
    its flats; distinct flats above F leave distinct differences.  The
    returned matroid records which original element each new index came
    from in ``element_map``: the complement of F, in order.  A flat L of
    lower grade than F, which only a family that fails the flat axioms
    has, has no rank drop, and is refused.
    """
    idx = M._flat_index(flat)
    fmask, base = M._flat_masks[idx], M._grade_of_index[idx]
    above = _bits(M._sup_bits[idx])
    drops = [M._grade_of_index[j] - base for j in above]
    lower = [j for j, drop in zip(above, drops) if drop < 0]
    if lower:
        inner, outer = sorted(M._flat_list[idx]), sorted(M._flat_list[lower[0]])
        raise ValueError(f"{inner} lies inside {outer}, a flat of lower grade")
    masks = [M._flat_masks[j] & ~fmask for j in above]
    return _minor(_ground_mask(M) & ~fmask, masks, drops)


# ---------------------------------------------------------------------------
# Circuits and connectivity
# ---------------------------------------------------------------------------


def circuits_up_to(M: Matroid, max_size: int) -> list[ElementSet]:
    """All minimal dependent sets of size at most ``max_size``.

    Every circuit has size at most r+1, so that bound captures all of
    them.  Enumeration is by increasing size; a dependent set with no
    smaller circuit inside it is minimal.  The cost is exponential in
    ``max_size``; :func:`components` does not need circuits.
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

    Read off one basis B, chosen greedily in element order.  The star of
    b in B is everything outside cl(B - b): b and each e whose
    fundamental circuit C(e, B) holds b.  Overlapping stars merge into
    the components (Krogdahl 1977; Oxley, *Matroid Theory*, ch. 4), and
    each loop, lying in no star, is a singleton block, as is each coloop.
    """
    basis, span = 0, M._flat_masks[0]
    for e in range(M.ground_size):
        if not span >> e & 1:
            basis |= 1 << e
            span = M._flat_masks[M._closure_index(basis)]
    blocks = [1 << e for e in M.loops]
    for b in _bits(basis):
        star = _ground_mask(M) & ~M._flat_masks[M._closure_index(basis ^ (1 << b))]
        for other in [m for m in blocks if m & star]:
            blocks.remove(other)
            star |= other
        blocks.append(star)
    parts = tuple(sorted((_members_of(m) for m in blocks), key=flat_key))
    return ComponentPartition(parts, len(parts))


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

    With equal profiles, a bijection is an isomorphism iff it sends every
    flat of ``M1`` to a flat of ``M2`` of the same grade: distinct flats
    have distinct images, so each grade's flats then map onto the equally
    many flats of that grade, and the inverse sends flats to flats too.
    Elements are placed one at a time, each next the one that completes
    the most flats, then the one of the rarest colour, then the lowest.
    An element's colour is the sorted (grade, size) of the flats holding
    it, and it is placed only on elements of its own colour.  A flat is
    checked once, when its last element is placed, so a failed flat
    prunes the search as early as this order allows.  Returns the
    bijection or None.  Rejects ground sets larger than
    ``ISO_GROUND_LIMIT``; compare profiles instead at that scale.
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

    def colours(M: Matroid, held: list[list[int]]) -> list[tuple]:
        return [tuple(sorted((M._grade_of_index[i], len(M._flat_list[i])) for i in h)) for h in held]

    held = [_bits(bits) for bits in M1._elem_flatbits]
    col1 = colours(M1, held)
    col2 = colours(M2, [_bits(bits) for bits in M2._elem_flatbits])
    if sorted(col1) != sorted(col2):
        return None

    # Each step is an element with the flats whose last element it is.
    left = [mask.bit_count() for mask in M1._flat_masks]
    steps: list[tuple[int, list[int]]] = []
    rest = set(range(n))
    while rest:
        e = max(rest, key=lambda e: (sum(left[i] == 1 for i in held[e]), -col1.count(col1[e]), -e))
        rest.remove(e)
        for i in held[e]:
            left[i] -= 1
        steps.append((e, [i for i in held[e] if not left[i]]))

    image = [0] * n  # each placed element's image bit; distinct bits, so a sum is an OR

    def fits(i: int) -> bool:
        j = M2._index_of_mask.get(sum(image[e] for e in _bits(M1._flat_masks[i])))
        return j is not None and M2._grade_of_index[j] == M1._grade_of_index[i]

    def place(pos: int, used: int) -> bool:
        if pos == n:
            return True
        e, closed = steps[pos]
        for f in range(n):
            if col2[f] != col1[e] or used >> f & 1:
                continue
            image[e] = 1 << f
            if all(fits(i) for i in closed) and place(pos + 1, used | 1 << f):
                return True
        return False

    return {e: _lsb_index(bit) for e, bit in enumerate(image)} if place(0, 0) else None
