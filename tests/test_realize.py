from __future__ import annotations

import itertools
import math
import random

import pytest

from hypermod import (
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
from oracles import modp_matrix_rank, pg_point_list


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


def test_pg3_rejects_nonprime():
    with pytest.raises(ValueError, match="prime"):
        pg3(4)
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)


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
