"""Matroids from point configurations over prime fields, plus named fixtures.

A :class:`PointConfig` holds homogeneous coordinate vectors over GF(p).
Its matroid is built bottom-up: each grade-(k+1) flat is the set of
points inside the linear span of a grade-k flat plus one more point,
with span membership decided by exact Gaussian elimination mod p.

Only prime field orders are supported; the fixtures used here (the
projective spaces PG(3,2) and PG(3,3), uniform matroids, the Vámos
matroid) never need extension fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import ElementSet, Matroid


# Miller-Rabin with every prime base up to 41 decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_LIMIT = 3317044064679887385961981


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


def _echelon(rows: np.ndarray, p: int) -> list[tuple[np.ndarray, int]]:
    """Reduced basis of the row space: list of (row with pivot 1, pivot column)."""
    basis: list[tuple[np.ndarray, int]] = []
    for row in rows:
        r = row.copy() % p
        for b, piv in basis:
            if r[piv]:
                r = (r - r[piv] * b) % p
        nz = np.nonzero(r)[0]
        if nz.size:
            piv = int(nz[0])
            r = (r * pow(int(r[piv]), -1, p)) % p
            basis.append((r, piv))
    return basis


def _span_members(pts: np.ndarray, basis: list[tuple[np.ndarray, int]], p: int) -> ElementSet:
    """Indices of all points lying in the span of the basis."""
    residual = pts.copy()
    for row, piv in basis:
        residual = (residual - np.outer(residual[:, piv], row)) % p
    return frozenset(int(i) for i in np.nonzero(~residual.any(axis=1))[0])


def matroid_from_points(cfg: PointConfig) -> Matroid:
    """The linear matroid of the configuration, as a lattice of flats.

    Grade k holds the rank-k flats; the grading is the span dimension of
    the flat's coordinate vectors.
    """
    n = len(cfg.points)
    p = cfg.prime
    pts = np.array(cfg.points, dtype=np.int64) % p
    full = frozenset(range(n))
    grades: list[list[ElementSet]] = [[frozenset()]]
    current: set[ElementSet] = {frozenset()}
    while full not in current:
        nxt: set[ElementSet] = set()
        for flat in current:
            remaining = full - flat
            covered: set[int] = set()
            for e in sorted(remaining):
                if e in covered:
                    continue
                members = sorted(flat | {e})
                basis = _echelon(pts[members], p)
                span = _span_members(pts, basis, p)
                covered |= span
                nxt.add(span)
        grades.append(sorted(nxt, key=lambda f: tuple(sorted(f))))
        current = nxt
    return Matroid(n, grades, name=cfg.name)


def pg3_points(q: int) -> PointConfig:
    """All points of projective 3-space over GF(q), in lexicographic order."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    reps = {
        _normalize(vec, q)
        for vec in itertools.product(range(q), repeat=4)
        if any(vec)
    }
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
