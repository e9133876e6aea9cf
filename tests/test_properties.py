from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from hypermod import (
    PointConfig,
    closure,
    matroid_from_points,
    modular_defect,
    parse_matroid,
    rank_of,
    serialize_matroid,
    verify_flat_axioms,
)
from oracles import modp_flats, modp_matrix_rank


@st.composite
def point_configs(draw):
    p = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(min_value=2, max_value=4))
    count = draw(st.integers(min_value=1, max_value=7))
    points = [
        tuple(draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(dim))
        for _ in range(count)
    ]
    points = [vec if any(vec) else (1,) + (0,) * (dim - 1) for vec in points]
    return PointConfig(prime=p, dim=dim, points=tuple(points))


@given(point_configs())
@settings(max_examples=60, deadline=None)
def test_point_matroids_satisfy_flat_axioms(cfg):
    M = matroid_from_points(cfg)
    assert verify_flat_axioms(M).passed


@given(point_configs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_point_matroid_rank_is_matrix_rank(cfg, rng):
    M = matroid_from_points(cfg)
    n = M.ground_size
    subset = [e for e in range(n) if rng.random() < 0.5]
    assert rank_of(M, subset) == modp_matrix_rank([cfg.points[i] for i in subset], cfg.prime)


@given(point_configs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_closure_is_a_closure_operator(cfg, rng):
    M = matroid_from_points(cfg)
    n = M.ground_size
    a = frozenset(e for e in range(n) if rng.random() < 0.4)
    b = a | frozenset(e for e in range(n) if rng.random() < 0.4)
    ca = closure(M, a)
    assert a <= ca
    assert closure(M, ca) == ca
    assert ca <= closure(M, b)


@given(point_configs())
@settings(max_examples=40, deadline=None)
def test_serialize_parse_roundtrip(cfg):
    M = matroid_from_points(cfg)
    assert parse_matroid(serialize_matroid(M)) == M


@st.composite
def dependent_configs(draw):
    """Up to 10 points over GF(p), with repeated points and a combination of two others."""
    p = draw(st.sampled_from([2, 3, 5, 7, 3037000493]))
    dim = draw(st.integers(min_value=1, max_value=5))
    coord = st.integers(min_value=0, max_value=p - 1)
    scalar = st.integers(min_value=1, max_value=p - 1)
    points = draw(st.lists(st.tuples(*[coord] * dim).filter(any), max_size=8))
    for _ in range(draw(st.integers(min_value=0, max_value=10 - len(points)))):
        if not points:
            break
        u, v = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        s, t = draw(scalar), draw(st.integers(min_value=0, max_value=p - 1))
        # t = 0 repeats u, up to the scalar s; otherwise s u + t v
        vec = tuple((s * a + t * b) % p for a, b in zip(u, v))
        if any(vec):
            points.insert(draw(st.integers(min_value=0, max_value=len(points))), vec)
    return PointConfig(prime=p, dim=dim, points=tuple(points))


@given(dependent_configs())
@settings(max_examples=150, deadline=None)
def test_point_matroid_flats_are_the_span_oracle_flats(cfg):
    M = matroid_from_points(cfg)
    expected = modp_flats(cfg.points, cfg.prime)
    assert [set(grade) for grade in M.flats_by_rank] == expected


def _deletion_fixture():
    from hypermod import delete, pg3

    if not hasattr(_deletion_fixture, "value"):
        M = pg3(2)
        _deletion_fixture.value = (M, delete(M, {0}))
    return _deletion_fixture.value


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_defect_symmetry_on_deletion(seed):
    _, M = _deletion_fixture()
    rng = random.Random(seed)
    flats = [f for grade in M.flats_by_rank for f in grade]
    a, b = rng.sample(flats, 2)
    d = modular_defect(M, a, b)
    assert d >= 0
    assert d == modular_defect(M, b, a)
    if a <= b or b <= a:
        assert d == 0


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_rank_axioms_spot_checks(rng):
    M, _ = _deletion_fixture()
    n = M.ground_size
    a = frozenset(e for e in range(n) if rng.random() < 0.5)
    b = frozenset(e for e in range(n) if rng.random() < 0.5)
    ra, rb = rank_of(M, a), rank_of(M, b)
    assert 0 <= ra <= len(a)
    assert ra <= rank_of(M, a | b)
    assert rank_of(M, a | b) + rank_of(M, a & b) <= ra + rb
