from __future__ import annotations

import dataclasses
import random

import pytest

from hypermod import (
    build_context,
    check_line_connectivity,
    classify,
    closure,
    disjoint_rank32_pairs,
    flats_of_rank,
    is_hypermodular,
    labeled_hyperplanes,
    meet_at_point,
    plane_cover_check,
    profile,
    rank_of,
    subspace_census,
    subspace_of,
    uniform,
)


def test_subspace_dimensions(pg32):
    for k in (1, 2, 3):
        s = subspace_of(pg32, flats_of_rank(pg32, k)[0])
        assert s.scodim == k
        assert s.sdim == pg32.rank - k - 1
        assert s.sdim + s.scodim == pg32.rank - 1
    bottom = subspace_of(pg32, frozenset())
    assert bottom.sdim == 3 and bottom.scodim == 0
    with pytest.raises(ValueError, match="subspace"):
        subspace_of(pg32, pg32.ground_set)
    with pytest.raises(ValueError, match="not a flat"):
        subspace_of(pg32, frozenset({0, 1, 3}))


def test_labeled_hyperplanes(pg32):
    hps = labeled_hyperplanes(pg32)
    assert len(hps) == 15
    for hp in hps:
        assert hp.subspace.scodim == 1
        assert hp.label in hp.subspace.flat


def test_classify(pg32, del32):
    points, lines, planes = classify(pg32)
    assert (len(points), len(lines), len(planes)) == (15, 35, 15)
    points, lines, planes = classify(del32)
    assert (len(points), len(lines), len(planes)) == (15, 35, 14)
    points, lines, planes = classify(uniform(4, 5))
    assert (len(points), len(lines), len(planes)) == (10, 10, 5)
    with pytest.raises(ValueError, match="rank 4"):
        classify(uniform(3, 4))


def test_arrangement_refuses_a_matroid_with_a_loop(looped_u44):
    with pytest.raises(ValueError) as error:
        classify(looped_u44)
    assert str(error.value) == "classification requires a loopless matroid"
    with pytest.raises(ValueError) as error:
        check_line_connectivity(looped_u44)
    assert str(error.value) == "line connectivity requires a loopless matroid"


def test_subspace_census(pg32):
    census = subspace_census(uniform(3, 4))
    assert {d: len(fs) for d, fs in census.items()} == {2: 1, 1: 4, 0: 6}
    assert {d: len(fs) for d, fs in subspace_census(pg32).items()} == {3: 1, 2: 15, 1: 35, 0: 15}


def test_meet_at_point(pg32):
    lines = flats_of_rank(pg32, 2)
    coplanar = next(
        (a, b)
        for a in lines
        for b in lines
        if a != b and rank_of(pg32, a | b) == 3
    )
    assert meet_at_point(pg32, coplanar)
    skew = next(
        (a, b)
        for a in lines
        for b in lines
        if a != b and rank_of(pg32, a | b) == 4
    )
    assert not meet_at_point(pg32, skew)
    with pytest.raises(ValueError, match="distinct"):
        meet_at_point(pg32, [lines[0], lines[0]])
    with pytest.raises(ValueError, match="proper"):
        meet_at_point(pg32, [lines[0], pg32.ground_set])
    with pytest.raises(ValueError, match="need at least two flats"):
        meet_at_point(pg32, [lines[0]])
    with pytest.raises(ValueError, match="need at least two flats"):
        meet_at_point(pg32, [])
    nonflat = frozenset(sorted(lines[0])[:2])
    with pytest.raises(ValueError, match="is not a flat"):
        meet_at_point(pg32, [lines[0], nonflat])


def test_meet_at_point_matches_rank(pg32):
    rng = random.Random(2)
    proper = [f for k in (1, 2, 3) for f in flats_of_rank(pg32, k)]
    for _ in range(300):
        a, b = rng.sample(proper, 2)
        assert meet_at_point(pg32, [a, b]) == (rank_of(pg32, a | b) == 3)


def test_line_connectivity_equals_hypermodularity(pg32, del32, del33ab, vamos_m):
    fixtures = [pg32, del32, del33ab, vamos_m, uniform(4, 4), uniform(4, 6)]
    for M in fixtures:
        report = check_line_connectivity(M)
        assert report.passed == is_hypermodular(M)
    report = check_line_connectivity(vamos_m)
    assert not report.passed
    a, b = report.violations[0].witnesses
    assert rank_of(vamos_m, a & b) != 2


def test_line_connectivity_requires_rank4():
    with pytest.raises(ValueError, match="rank 4"):
        check_line_connectivity(uniform(3, 4))


def test_plane_cover(del32):
    for f3, f2 in disjoint_rank32_pairs(del32):
        ctx = build_context(del32, f3, f2)
        assert plane_cover_check(del32, ctx).passed


def test_plane_cover_names_the_points_a_tampered_pencil_misses(del32):
    for f3, f2 in disjoint_rank32_pairs(del32):
        ctx = build_context(del32, f3, f2)
        dropped = ctx.pencil[0]
        report = plane_cover_check(del32, dataclasses.replace(ctx, pencil=ctx.pencil[1:]))
        missed = [(p,) for p in flats_of_rank(del32, 1) if p <= dropped - f2]
        assert not report.passed and missed
        assert [v.witnesses for v in report.violations] == missed
        assert {v.axiom for v in report.violations} == {"plane-cover"}


def test_plane_cover_wrong_matroid(pg32, del32):
    f3, f2 = disjoint_rank32_pairs(del32)[0]
    ctx = build_context(del32, f3, f2)
    with pytest.raises(ValueError, match="different matroid"):
        plane_cover_check(pg32, ctx)
