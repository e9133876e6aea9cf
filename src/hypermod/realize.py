"""Matroids from point configurations over prime fields, plus named fixtures.

A :class:`PointConfig` holds homogeneous coordinate vectors over GF(p).
Its matroid is built a grade at a time.  A flat F is the set of points
inside span(F), so the covers of F are F + C for the projective classes C
of the residues of the other points modulo span(F).

Each grade keeps, for all its flats, their pivot columns and echelon
rows (pivot entry 1, zeros at every earlier pivot).  Blocks of at most
``core._BLOCK_CELLS`` int64 cells (flats x points x dim; a single flat
may exceed it) reduce every point modulo every flat of the block, scale
each nonzero residue to a leading 1 with one inverse per distinct
leading value, and sort the rows by (flat, residue) once; each run of
equal rows is one class, and its first row holds its smallest point.

Reverse search (Avis and Fukuda, 1996) gives each flat one parent, so
no cover is built twice.  Let top(F) be the last point of F's greedy
basis, scanning points in index order, with top(empty) = -1.  F emits
F + C only when min(C) > top(F), and top(F + C) = min(C):

* every point of G = F + C below min(C) lies in F, which top(F) < min(C)
  already spans, so G's greedy basis is F's followed by min(C);
* if G's greedy basis is b_1 < ... < b_(k+1), its one parent is
  cl(b_1, ..., b_k), with top b_k < b_(k+1) = min of the rest of G; any
  parent that emits G has, by the line above, that same basis.

The new flat's rows are its parent's plus the class residue.
Arithmetic is mod p in int64, where every product is of two residues
below p.  That is exact while (p - 1)^2 < 2^63, so
:func:`matroid_from_points` rejects primes above
``_EXACT_PRIME_LIMIT`` = 3037000500.

Only prime field orders are supported; the fixtures (PG(3,q) for prime
q up to 7, uniform matroids, the Vámos matroid) never need extension fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import _BLOCK_CELLS, FLAT_LIMIT, ElementSet, Matroid


# Miller-Rabin with every prime base up to 41 decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_LIMIT = 3317044064679887385961981
_EXACT_PRIME_LIMIT = 3037000500  # the largest p with (p - 1)**2 < 2**63


def is_prime(p: int) -> bool:
    """Exact primality below ``_PRIMALITY_LIMIT``; ValueError at or above it."""
    if p >= _PRIMALITY_LIMIT:
        raise ValueError(f"primality of {p} is only decided below {_PRIMALITY_LIMIT}")
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _normalize(vec: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1 (projective representative)."""
    reduced = tuple(c % p for c in vec)
    for c in reduced:
        if c:
            inv = pow(c, -1, p)
            return tuple((inv * x) % p for x in reduced)
    raise ValueError("zero vector has no projective representative")


@dataclass(frozen=True)
class PointConfig:
    """Homogeneous coordinates over GF(prime).

    Vectors are normalized at construction.  Duplicate normalized
    vectors are permitted (they become parallel elements) but are
    surfaced in ``duplicate_groups``.
    """

    prime: int
    dim: int
    points: tuple[tuple[int, ...], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ValueError(f"field order {self.prime} is not prime")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        normalized = []
        for vec in self.points:
            if len(vec) != self.dim:
                raise ValueError(f"point {vec} has arity {len(vec)}, expected {self.dim}")
            normalized.append(_normalize(tuple(int(c) for c in vec), self.prime))
        object.__setattr__(self, "points", tuple(normalized))

    @property
    def duplicate_groups(self) -> tuple[tuple[int, ...], ...]:
        seen: dict[tuple[int, ...], list[int]] = {}
        for i, vec in enumerate(self.points):
            seen.setdefault(vec, []).append(i)
        return tuple(tuple(g) for g in seen.values() if len(g) > 1)


def _next_grade(
    pts: np.ndarray,
    p: int,
    flats: list[ElementSet],
    tops: np.ndarray,
    pivots: np.ndarray,
    rows: np.ndarray,
    built: int,
) -> tuple[list[ElementSet], np.ndarray, np.ndarray, np.ndarray]:
    """Every cover of one grade's flats, each emitted once, by its parent.

    ``tops``, ``pivots`` and ``rows`` hold, per flat, the last point of its
    greedy basis, its pivot columns (F x k) and its echelon rows (F x k x d).
    Blocks of flats reduce every point at once; the flat F emits the cover
    F + C of a residue class C only when min(C) > top(F).  Returns the
    covers with the same three arrays for them.  ValueError once the
    covers and the ``built`` flats of the earlier grades pass
    ``FLAT_LIMIT``, checked after each block, so the covers listed never
    pass it by more than one block's worth.
    """
    n, d = pts.shape
    step = max(1, _BLOCK_CELLS // (n * d))
    covers: list[ElementSet] = []
    parts = []
    for lo in range(0, len(flats), step):
        piv, ech = pivots[lo : lo + step], rows[lo : lo + step]
        b = len(piv)
        res = np.broadcast_to(pts, (b, n, d))
        for j in range(piv.shape[1]):
            res = (res - res[np.arange(b), :, piv[:, j]][:, :, None] * ech[:, None, j]) % p
        own, pt = np.nonzero(res.any(axis=2))
        res = res[own, pt]
        lead = res[np.arange(len(res)), (res != 0).argmax(axis=1)]
        values, which = np.unique(lead, return_inverse=True)
        inverses = np.array([pow(int(c), -1, p) for c in values], dtype=np.int64)
        res = res * inverses[which][:, None] % p
        # The rows arrive by (flat, point) and lexsort is stable, so each
        # class lists its points ascending: its first row holds min(C).
        order = np.lexsort((*res.T[::-1], own))
        own, pt, res = own[order] + lo, pt[order], res[order]
        split = np.ones(len(own), dtype=bool)
        split[1:] = (own[1:] != own[:-1]) | (res[1:] != res[:-1]).any(axis=1)
        starts = np.flatnonzero(split)
        ends = np.append(starts[1:], len(own))
        keep = pt[starts] > tops[own[starts]]
        starts, ends = starts[keep], ends[keep]
        members = pt.tolist()
        for f, s, e in zip(own[starts].tolist(), starts.tolist(), ends.tolist()):
            covers.append(flats[f].union(members[s:e]))
        if built + len(covers) > FLAT_LIMIT:
            raise ValueError(f"the configuration has more than {FLAT_LIMIT} flats, the limit")
        parts.append((own[starts], pt[starts], res[starts]))
    owner, tops, residues = (np.concatenate(arrays) for arrays in zip(*parts))
    pivots = np.concatenate([pivots[owner], (residues != 0).argmax(axis=1)[:, None]], axis=1)
    rows = np.concatenate([rows[owner], residues[:, None]], axis=1)
    return covers, tops, pivots, rows


def matroid_from_points(cfg: PointConfig) -> Matroid:
    """The linear matroid of the configuration, as a lattice of flats.

    Grade k holds the rank-k flats; the grading is the span dimension of
    the flat's coordinate vectors.  Grade k + 1 is built from grade k in
    blocks of flats, each cover once, by the flat spanned by all but the
    last point of its greedy basis (see the module docstring).  Points in
    general position have a number of flats that grows as a power of
    their count, so a configuration with more than ``core.FLAT_LIMIT``
    flats is a ValueError, raised while that many are being listed.
    """
    n, d, p = len(cfg.points), cfg.dim, cfg.prime
    if p > _EXACT_PRIME_LIMIT:
        raise ValueError(f"field order {p} exceeds {_EXACT_PRIME_LIMIT}, the int64-exact bound")
    pts = np.array(cfg.points, dtype=np.int64).reshape(n, d)
    flats: list[ElementSet] = [frozenset()]
    tops = np.array([-1])
    pivots = np.zeros((1, 0), dtype=np.int64)
    rows = np.zeros((1, 0, d), dtype=np.int64)
    grades = [flats]
    built = 1
    # The flats of a grade are incomparable, so the ground set comes alone.
    while len(flats[0]) < n:
        flats, tops, pivots, rows = _next_grade(pts, p, flats, tops, pivots, rows, built)
        grades.append(flats)
        built += len(flats)
    return Matroid(n, grades, name=cfg.name)


def pg3_points(q: int) -> PointConfig:
    """All points of projective 3-space over GF(q), in lexicographic order.

    Each point is listed once, as the vector whose first nonzero coordinate is 1.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    reps = [
        (0,) * i + (1,) + tail
        for i in range(4)
        for tail in itertools.product(range(q), repeat=3 - i)
    ]
    return PointConfig(prime=q, dim=4, points=tuple(sorted(reps)), name=f"pg3_{q}")


def pg3(q: int) -> Matroid:
    """The rank-4 matroid of PG(3,q): (q^4-1)/(q-1) points, all flats."""
    return matroid_from_points(pg3_points(q))


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid U_{r,n}: every subset of size < r is a flat."""
    if not (0 <= r <= n):
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    grades: list[list[ElementSet]] = [
        [frozenset(c) for c in itertools.combinations(range(n), k)] for k in range(r)
    ]
    grades.append([frozenset(range(n))])
    return Matroid(n, grades, name=f"uniform_{r}_{n}")


_VAMOS_PLANES = (
    frozenset({0, 1, 2, 3}),
    frozenset({0, 1, 4, 5}),
    frozenset({2, 3, 4, 5}),
    frozenset({0, 1, 6, 7}),
    frozenset({2, 3, 6, 7}),
)


def vamos() -> Matroid:
    """The Vámos matroid on 8 elements.

    Rank 4; five 4-point rank-3 flats arranged so that {4,5,6,7} is NOT
    one of them, every other 3-set is a rank-3 flat, and all pairs are
    rank-2 flats.  The standard small matroid with a pair of disjoint
    corank-1 flats, i.e. a hypermodularity counterexample.
    """
    triples = [
        frozenset(c)
        for c in itertools.combinations(range(8), 3)
        if not any(frozenset(c) <= plane for plane in _VAMOS_PLANES)
    ]
    grades = [
        [frozenset()],
        [frozenset([e]) for e in range(8)],
        [frozenset(c) for c in itertools.combinations(range(8), 2)],
        list(_VAMOS_PLANES) + triples,
        [frozenset(range(8))],
    ]
    return Matroid(8, grades, name="vamos")
