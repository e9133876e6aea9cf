"""Independent brute-force oracles used to compute expected values.

Everything here is deliberately simple and separate from the library's
own machinery: plain-Python Gaussian elimination over GF(p), uniform
rank formulas, and closure/rank read straight off a matroid's stored
flat lists by literal intersection.  Tests compare the library against
these, never the library against itself.
"""

from __future__ import annotations

import itertools


def modp_matrix_rank(rows, p: int) -> int:
    """Rank of an integer matrix over GF(p) by textbook elimination."""
    mat = [[c % p for c in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def modp_span_members(points, subset, p: int) -> frozenset[int]:
    """Indices of all points inside the GF(p)-linear span of the subset."""
    base = [points[i] for i in subset]
    r = modp_matrix_rank(base, p) if base else 0
    members = set()
    for i, vec in enumerate(points):
        if modp_matrix_rank(base + [vec], p) == r:
            members.add(i)
    return frozenset(members)


def uniform_rank(subset, r: int) -> int:
    return min(len(subset), r)


def brute_closure(M, subset) -> frozenset[int]:
    """Intersection of all stored flats containing the subset."""
    subset = frozenset(subset)
    result = M.ground_set
    for grade in M.flats_by_rank:
        for flat in grade:
            if subset <= flat:
                result = result & flat
    return frozenset(result)


def brute_rank(M, subset) -> int:
    """Grade of the smallest stored flat containing the subset."""
    subset = frozenset(subset)
    for k, grade in enumerate(M.flats_by_rank):
        for flat in grade:
            if subset <= flat:
                return k
    raise AssertionError("no flat contains the subset")


def brute_defect(M, a, b) -> int:
    return brute_rank(M, a) + brute_rank(M, b) - brute_rank(M, set(a) | set(b)) - brute_rank(
        M, set(a) & set(b)
    )


def pg_point_list(q: int, dim: int = 4):
    """All normalized points of projective (dim-1)-space over GF(q), lex order."""
    reps = set()
    for vec in itertools.product(range(q), repeat=dim):
        if not any(vec):
            continue
        for c in vec:
            if c:
                inv = pow(c, q - 2, q)
                reps.add(tuple((inv * x) % q for x in vec))
                break
    return sorted(reps)


def brute_containment(M) -> list[int]:
    """Per stored flat (grade by grade, as listed), the bits of the stored flats above it."""
    flats = [f for grade in M.flats_by_rank for f in grade]
    return [sum(1 << j for j, g in enumerate(flats) if f <= g) for f in flats]


def brute_chain_lengths(sets) -> dict[frozenset[int], int]:
    """Longest chain of strict inclusions among ``sets`` that ends at each set."""
    sets = {frozenset(s) for s in sets}
    memo: dict[frozenset[int], int] = {}

    def length(s):
        if s not in memo:
            memo[s] = max((length(t) + 1 for t in sets if t < s), default=0)
        return memo[s]

    return {s: length(s) for s in sets}
