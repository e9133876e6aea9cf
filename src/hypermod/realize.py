"""Matroids from point configurations over prime fields, plus named fixtures.

A :class:`PointConfig` holds homogeneous coordinate vectors over GF(p).
Its matroid is built a grade at a time.  A flat F is the set of points
inside span(F), so the covers of F are F + C for the projective classes C
of the residues of the other points modulo span(F).

Each grade keeps, for all its flats, a basis of their normals: the
c = d - k functionals that vanish on span(F), its annihilator (Oxley,
*Matroid Theory*, section 6.1), the identity for the empty flat.  They
name the quotient GF(p)^d / span(F) in c coordinates, so a point x has
the coordinates N_F . x; it lies in span(F) iff they are all zero, and x
and y lie in the same cover iff their coordinates are proportional.
Blocks of at most ``core._BLOCK_CELLS`` int64 cells (flats x points x
dim; a single flat may exceed it) compute every point's coordinates for
every flat of the block in one accumulation, scale them to a leading 1
with one vectorized inverse x^(p - 2), and sort the rows by (flat,
coordinates), packed into as few int64 keys as fit, once; each run of
equal rows is one class, and its first row holds its smallest point.
A cover's row over the points marks the points of zero coordinates,
its parent's, and its class; one ``np.flatnonzero`` over a grade's rows
gives every member list, and the rows go to the row builder with them.
A flat with one normal is a hyperplane, whose only cover is the ground
set, so the top grade takes no pass.

Reverse search (Avis and Fukuda, 1996) gives each flat one parent, so
no cover is built twice.  Let top(F) be the last point of F's greedy
basis, scanning points in index order, with top(empty) = -1.  F emits
F + C only when min(C) > top(F), and top(F + C) = min(C):

* every point of G = F + C below min(C) lies in F, which top(F) < min(C)
  already spans, so G's greedy basis is F's followed by min(C);
* if G's greedy basis is b_1 < ... < b_(k+1), its one parent is
  cl(b_1, ..., b_k), with top b_k < b_(k+1) = min of the rest of G; any
  parent that emits G has, by the line above, that same basis.

F's own points, the class of zero coordinates, are never emitted: their
least is at most top(F), and no point is the zero vector, so ∅ has none.

The new flat's normals are those of its parent that vanish on min(C),
derived from its parent's (see ``_next_grade``).  Arithmetic is mod p in
int64, where every product is of two residues below p and sums of them
are reduced often enough to stay below 2^63.  That is exact while
(p - 1)^2 < 2^63, so :func:`matroid_from_points` rejects primes above
``_EXACT_PRIME_LIMIT`` = 3037000500.

Only prime field orders are supported; the fixtures (PG(3,q) for prime
q up to 7, uniform matroids, the Vámos matroid) never need extension fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import _BLOCK_CELLS, FLAT_LIMIT, ElementSet, Matroid, _Flat, _ints, _members


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


def _refuse_past_limit(count: int) -> None:
    if count > FLAT_LIMIT:
        raise ValueError(f"the configuration has more than {FLAT_LIMIT} flats, the limit")


def _inverse(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p - 2) mod p, elementwise: the inverse of every nonzero residue."""
    result, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            result = result * x % p
        x, e = x * x % p, e >> 1
    return result


def _next_grade(
    pts: np.ndarray,
    p: int,
    tops: np.ndarray,
    normals: np.ndarray,
    built: int,
) -> tuple[list[_Flat], np.ndarray, np.ndarray, np.ndarray]:
    """Every cover of one grade's flats, each emitted once, by its parent.

    ``tops`` and ``normals`` hold, per flat, the last point of its greedy
    basis and a basis of its normals (F x c x d, c = d - k).  Blocks of
    flats compute every point's coordinates at once; the flat F emits the
    cover F + C of a class C only when min(C) > top(F).  Returns the
    covers, each as its sorted members, mask and frozenset, their 0/1 rows
    over the points, and the same two arrays for them.  ValueError once
    the covers and the ``built`` flats of the earlier grades pass
    ``FLAT_LIMIT``, checked after each block, so the covers listed never
    pass it by more than one block's worth.

    The coordinates N_F . x sum d products, each at most (p - 1)^2, so they
    are reduced mod p at least every floor((2^63 - p) / (p - 1)^2) terms:
    a reduced sum below p plus that many products stays below 2^63.  That
    is at least one term for every prime up to ``_EXACT_PRIME_LIMIT``.

    Let u be the coordinates of x = min(C) scaled to a leading 1 at l, so
    N_i . x = s u_i for some s != 0.  The rows N_i - u_i N_l, i != l, are
    c - 1 independent normals of F (they and N_l span F's normals), and
    each annihilates x, since s u_i - u_i s u_l = 0.  The normals of
    span(F + C) = span(F) + <x> are those of F that annihilate x, a space
    of dimension c - 1, so these rows are a basis of it.
    """
    n, d = pts.shape
    c = normals.shape[1]
    step = max(1, _BLOCK_CELLS // (n * d))
    terms = ((1 << 63) - p) // (p - 1) ** 2
    rows, parts = [], []
    count = 0
    for lo in range(0, len(normals), step):
        block = normals[lo : lo + step]
        b = len(block)
        coords = np.zeros((b, n, c), dtype=np.int64)
        for j in range(0, d, terms):
            coords += pts[:, j : j + terms] @ block[:, :, j : j + terms].transpose(0, 2, 1)
            coords %= p
        coords = coords.reshape(b * n, c)
        lead = (coords != 0).argmax(axis=1)
        pivot = coords[np.arange(b * n), lead]
        # Rows inside span F are all zero and stay so, whatever their "inverse".
        coords *= _inverse(pivot, p)[:, None]
        coords %= p
        own = np.arange(b * n) // n
        # The flat index and the c coordinates are the digits of as few keys as fit.
        keys, key, room = [], own, b
        for i in range(c):
            if room * p > 1 << 63:
                keys.append(key)
                key, room = coords[:, i], p
            else:
                key, room = key * p + coords[:, i], room * p
        keys.append(key)
        # The rows arrive by (flat, point) and both sorts are stable, so each
        # class lists its points ascending: its first row holds min(C).
        if len(keys) == 1:
            # numpy sorts 16-bit keys stably by radix, an order faster.
            order = np.argsort(key.astype(np.uint16) if room <= 1 << 16 else key, kind="stable")
        else:
            order = np.lexsort(keys[::-1])
        change = np.zeros(b * n - 1, dtype=bool)
        for key in keys:
            key = key[order]
            change |= key[1:] != key[:-1]
        starts = np.flatnonzero(np.concatenate(([True], change)))
        ends = np.append(starts[1:], b * n)
        first = order[starts]
        pt = order % n
        keep = pt[starts] > tops[lo + own[first]]
        starts, ends, first = starts[keep], ends[keep], first[keep]
        owner = own[first]
        # A cover's row: the points inside its parent's span, then its class.
        held = (pivot == 0).reshape(b, n)[owner]
        sizes = ends - starts
        at = np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        held[np.repeat(np.arange(len(owner)), sizes), pt[at]] = True
        rows.append(held)
        count += len(owner)
        _refuse_past_limit(built + count)
        parent, u, at = block[owner], coords[first], lead[first]
        derived = (parent - u[:, :, None] * parent[np.arange(len(first)), at][:, None]) % p
        derived = derived[np.arange(c) != at[:, None]].reshape(len(first), c - 1, d)
        parts.append((pt[starts], derived))
    held = np.concatenate(rows)
    members = _members(held)
    masks = _ints(np.packbits(held, axis=1, bitorder="little"))
    tops, normals = (np.concatenate(arrays) for arrays in zip(*parts))
    return list(zip(members, masks, map(frozenset, members))), held, tops, normals


def matroid_from_points(cfg: PointConfig) -> Matroid:
    """The linear matroid of the configuration, as a lattice of flats.

    Grade k holds the rank-k flats; the grading is the span dimension of
    the flat's coordinate vectors.  Grade k + 1 is built from grade k in
    blocks of flats, each cover once, by the flat spanned by all but the
    last point of its greedy basis (see the module docstring).  A proper
    flat with one normal is a hyperplane: its quotient is a line, so the
    ground set is its only cover, and that grade is followed by the top
    grade with no pass over the points.  Points in general position have
    a number of flats that grows as a power of their count, so a
    configuration with more than ``core.FLAT_LIMIT`` flats is a
    ValueError, raised while that many are being listed.  Each flat is
    listed as its sorted members, mask and frozenset, which go to the
    row builder (``core.Matroid._build``) as they are, with every flat's
    0/1 row over the points.
    """
    n, d, p = len(cfg.points), cfg.dim, cfg.prime
    if p > _EXACT_PRIME_LIMIT:
        raise ValueError(f"field order {p} exceeds {_EXACT_PRIME_LIMIT}, the int64-exact bound")
    pts = np.array(cfg.points, dtype=np.int64).reshape(n, d)
    flats: list[_Flat] = [([], 0, frozenset())]
    tops = np.array([-1])
    normals = np.eye(d, dtype=np.int64)[None]
    grades, rows = [flats], [np.zeros((1, n), dtype=bool)]
    built = 1
    # The flats of a grade are incomparable, so the ground set comes alone.
    while len(flats[0][0]) < n:
        if normals.shape[1] == 1:
            # Proper flats with one normal have a 1-dimensional quotient: E covers them.
            flats = [(list(range(n)), (1 << n) - 1, frozenset(range(n)))]
            held = np.ones((1, n), dtype=bool)
            _refuse_past_limit(built + 1)
        else:
            flats, held, tops, normals = _next_grade(pts, p, tops, normals, built)
        grades.append(flats)
        rows.append(held)
        built += len(flats)
    return Matroid.__new__(Matroid)._build(n, grades, np.concatenate(rows), name=cfg.name)


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
