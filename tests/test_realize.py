from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc

import pytest

from hypermod import (
    Matroid,
    PointConfig,
    delete,
    flats_of_rank,
    is_hypermodular,
    is_modular,
    is_prime,
    matroid_from_points,
    pg3,
    pg3_points,
    profile,
    rank_of,
    uniform,
    vamos,
    verify_flat_axioms,
    verify_rank_axioms,
)
from hypermod import realize
from oracles import modp_flats, modp_matrix_rank, pg_point_list


def test_is_prime_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert [p for p in range(10**5) if is_prime(p)] == [p for p in range(10**5) if trial(p)]


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 - 11)
    assert not is_prime(999999937 * 999999929)
    # strong pseudoprimes to every prime base up to 7, and up to 37
    assert not is_prime(3215031751)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(3317044064679887385961981)


def test_point_config_validation():
    with pytest.raises(ValueError, match="prime"):
        PointConfig(prime=4, dim=2, points=((1, 0),))
    with pytest.raises(ValueError, match="zero vector"):
        PointConfig(prime=2, dim=2, points=((0, 0),))
    with pytest.raises(ValueError, match="arity"):
        PointConfig(prime=2, dim=3, points=((1, 0),))
    with pytest.raises(ValueError, match=r"\Adimension must be positive\Z"):
        PointConfig(prime=2, dim=0, points=())


def test_point_config_normalization():
    cfg = PointConfig(prime=5, dim=3, points=((2, 4, 1), (0, 3, 3)))
    # first nonzero coordinate scaled to one
    assert cfg.points == ((1, 2, 3), (0, 1, 1))


def test_duplicate_points_flagged_and_parallel():
    cfg = PointConfig(prime=3, dim=2, points=((1, 0), (2, 0), (0, 1)))
    assert cfg.duplicate_groups == ((0, 1),)
    M = matroid_from_points(cfg)
    assert frozenset({0, 1}) in M.flats_by_rank[1]


def test_unit_vectors_give_free_matroid():
    cfg = PointConfig(
        prime=2, dim=4, points=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    M = matroid_from_points(cfg)
    assert M == uniform(4, 4)


def test_pg32_from_all_vectors(pg32):
    assert profile(pg32).counts == (1, 15, 35, 15, 1)
    assert is_modular(pg32) and is_hypermodular(pg32)
    assert pg_point_list(2) == list(pg3_points(2).points)


def test_pg33(pg33):
    assert pg33.ground_size == 40
    assert profile(pg33).counts == (1, 40, 130, 40, 1)
    assert is_modular(pg33)
    assert all(len(l) == 4 for l in flats_of_rank(pg33, 2))
    assert all(len(p) == 13 for p in flats_of_rank(pg33, 3))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_pg3_points_are_the_normalized_vectors(q):
    assert pg3_points(q).points == tuple(pg_point_list(q))


def test_pg3_rejects_nonprime():
    with pytest.raises(ValueError, match="prime"):
        pg3(4)
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)


def _dependent_config(p: int) -> PointConfig:
    """Points a, b, a + b, c over GF(p), with seeded residues spread over the field."""
    rng = random.Random(p)
    a, b, c = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(3)]
    return PointConfig(prime=p, dim=3, points=(a, b, tuple(x + y for x, y in zip(a, b)), c))


@pytest.mark.parametrize("p", [4294967311, 2**61 - 1])
def test_primes_past_the_exact_bound_are_rejected_at_once(p):
    # int64 products of residues overflow once (p - 1)**2 >= 2**63: 4294967311
    # gave a bogus duplicate flat and 2**61 - 1 never returned.
    cfg = _dependent_config(p)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="3037000500"):
        matroid_from_points(cfg)
    assert time.perf_counter() - start < 1.0


def test_largest_primes_below_the_bound_stay_exact():
    p = 3037000493
    assert is_prime(p) and (p - 1) ** 2 < 2**63
    cfg = _dependent_config(p)
    M = matroid_from_points(cfg)
    assert rank_of(M, {0, 1, 2}) == 2
    for k in range(5):
        for sub in itertools.combinations(range(4), k):
            assert rank_of(M, sub) == modp_matrix_rank([cfg.points[i] for i in sub], p)


def test_single_deletions_stay_hypermodular(pg32, pg33):
    for M, p in ((pg32, 3), (pg33, 17)):
        D = delete(M, {p})
        assert is_hypermodular(D)


def test_uniform_profiles():
    assert profile(uniform(3, 4)).counts == (1, 4, 6, 1)
    assert profile(uniform(4, 4)).counts == (1, 4, 6, 4, 1)
    u03 = uniform(0, 3)
    assert u03.rank == 0
    assert u03.loops == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        uniform(4, 3)


def test_vamos(vamos_m):
    assert profile(vamos_m).counts == (1, 8, 28, 41, 1)
    assert verify_flat_axioms(vamos_m).passed
    assert not is_hypermodular(vamos_m)
    assert rank_of(vamos_m, {4, 5, 6, 7}) == 4
    assert frozenset({4, 5, 6, 7}) not in vamos_m.flats_by_rank[3]
    assert frozenset({0, 1, 2, 3}) in vamos_m.flats_by_rank[3]


def test_rank_matches_matrix_rank(pg32):
    pts = pg_point_list(2)
    rng = random.Random(3)
    for _ in range(150):
        size = rng.randint(0, 6)
        sub = rng.sample(range(15), size)
        assert rank_of(pg32, sub) == modp_matrix_rank([pts[i] for i in sub], 2)


def test_rank_matches_matrix_rank_gf3(pg33):
    pts = pg_point_list(3)
    rng = random.Random(4)
    for _ in range(60):
        sub = rng.sample(range(40), rng.randint(0, 6))
        assert rank_of(pg33, sub) == modp_matrix_rank([pts[i] for i in sub], 3)


def test_generated_matroids_pass_axioms(pg32, two_cover):
    for M in (pg32, two_cover, uniform(2, 4), vamos()):
        assert verify_flat_axioms(M).passed
        mode = "exhaustive" if M.ground_size <= 14 else "sampled"
        assert verify_rank_axioms(M, mode=mode, seed=0).passed


# Each flat is emitted once, by the flat spanned by all but the last point of
# its greedy basis.  The greedy basis of the first example skips 2e; the
# second repeats points and has e + f on the line of e and f; the last skips
# a sum and a multiple of two points, over the largest int64-exact prime.
_PARENT_RULE_CASES = {
    "skips a dependent point": PointConfig(
        prime=5, dim=3, points=((1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0))
    ),
    "parallel repeats": PointConfig(
        prime=3,
        dim=3,
        points=((0, 1, 0), (1, 0, 0), (0, 2, 0), (1, 1, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ),
    "all parallel": PointConfig(prime=7, dim=2, points=((1, 3), (2, 6), (1, 3))),
    "dim 1": PointConfig(prime=2, dim=1, points=((1,), (1,))),
    "dim 5 near the exact bound": PointConfig(
        prime=3037000493,
        dim=5,
        points=(
            (3, 1, 0, 0, 7),
            (1, 4, 1, 5, 9),
            (4, 5, 1, 5, 16),
            (0, 0, 0, 1, 3037000492),
            (2, 6, 2, 10, 18),
            (5, 3, 5, 8, 9),
        ),
    ),
}


def _near_the_bound() -> PointConfig:
    """Points with coordinates within 50 of p - 1 after a leading 1, and differences.

    The first three lead at the second coordinate, the next three at the
    first.  The normals of a line through two of the first hold residues
    anywhere in the field at two places where the next three hold
    coordinates near p - 1, so those coordinates sum two products of up
    to (p - 1)^2 each, past 2^63 for about half the lines.  The difference
    z - x of such points, with x on the line, lies in the plane of the
    line and z, but its coordinates sum one such product.
    """
    p = 3037000493
    rng = random.Random(7)
    lead1 = [(0, 1, *(p - 1 - rng.randrange(51) for _ in range(2))) for _ in range(3)]
    lead0 = [(1, *(p - 1 - rng.randrange(51) for _ in range(3))) for _ in range(3)]
    differences = [tuple(a - b for a, b in zip(z, x)) for z in lead0 for x in lead1]
    return PointConfig(prime=p, dim=4, points=(*lead1, *lead0, *differences))


# Flats carry their normals.  The first two configurations span a line and a
# plane of GF(p)^4, so the ground set arrives while flats have two or more
# normals; the third sums products near (p - 1)^2, past 2^63 unless reduced
# after each one; at p = 2 the inverse x^(p - 2) is x^0.
_NORMAL_CASES = {
    "rank 2 in dim 4": PointConfig(
        prime=5,
        dim=4,
        points=((1, 2, 3, 4), (0, 1, 1, 2), (1, 3, 4, 1), (1, 4, 0, 3), (0, 2, 2, 4), (2, 4, 1, 3)),
    ),
    "rank 3 in dim 4": PointConfig(
        prime=3,
        dim=4,
        points=tuple(v for v in pg_point_list(3) if (v[0] + v[1] - v[3]) % 3 == 0),
    ),
    "dependent dim 4 near the exact bound": _near_the_bound(),
    "p = 2": PointConfig(
        prime=2,
        dim=4,
        points=tuple(v for v in pg_point_list(2) if v[3] == 0) + ((0, 0, 0, 1), (1, 1, 1, 1), (1, 1, 0, 1)),
    ),
}


@pytest.mark.parametrize(
    "cfg", [*_PARENT_RULE_CASES.values(), *_NORMAL_CASES.values()], ids=[*_PARENT_RULE_CASES, *_NORMAL_CASES]
)
def test_each_flat_is_built_once_from_its_parent(cfg):
    M = matroid_from_points(cfg)
    assert [set(grade) for grade in M.flats_by_rank] == modp_flats(cfg.points, cfg.prime)


@pytest.mark.parametrize("limit", [66, 67])
def test_the_flat_limit_counts_the_top_flat(monkeypatch, limit):
    # PG(3,2) has 1 + 15 + 35 + 15 + 1 = 67 flats; the last is the ground set.
    monkeypatch.setattr(realize, "FLAT_LIMIT", limit)
    if limit < 67:
        with pytest.raises(ValueError, match="more than 66 flats, the limit"):
            pg3(2)
    else:
        assert profile(pg3(2)).counts == (1, 15, 35, 15, 1)


def test_no_points_give_the_empty_matroid():
    assert matroid_from_points(PointConfig(prime=2, dim=3, points=())) == Matroid(0, [[()]])


def test_realization_inverts_once_per_leading_value_and_block(monkeypatch):
    # One inverse per distinct leading coefficient in a block of flats: 173
    # at q = 5.  One set of inverses per flat took 4464.
    cfg = pg3_points(5)
    calls = []

    def counted_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(realize, "pow", counted_pow, raising=False)
    M = matroid_from_points(cfg)
    assert profile(M).counts == (1, 156, 806, 156, 1)
    assert len(calls) < 300


def test_realization_transients_stay_within_a_megabyte():
    # The residue blocks are bounded by core._BLOCK_CELLS int64 cells; one
    # block per grade peaked about 15 MB above the result at q = 5.
    cfg = pg3_points(5)
    tracemalloc.start()
    try:
        M = matroid_from_points(cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert M.ground_size == 156
    assert peak - kept <= 1 << 20


def _moment_curve(count, p):
    """``count`` points (1, t, t^2, t^3) over GF(p): any four are independent."""
    return PointConfig(prime=p, dim=4, points=tuple((1, t, t * t % p, t**3 % p) for t in range(count)))


def test_a_configuration_past_the_flat_limit_is_refused_while_it_is_built():
    # 30 points give 1 + 30 + 435 + 4060 + 1 = 4527 flats, within the limit.
    assert profile(matroid_from_points(_moment_curve(30, 31))).counts == (1, 30, 435, 4060, 1)
    # 45 points would give 15 227; building them all took 1.75 s and 38 MB.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="more than 5000 flats, the limit"):
            matroid_from_points(_moment_curve(45, 47))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 10 << 20
