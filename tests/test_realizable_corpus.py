"""The paper's realizable claim on a seeded corpus of PG(3,2), PG(3,3) and PG(3,5) deletions.

Two planes of PG(3,q) meet in a line, so PG(3,q)∖S is hypermodular
exactly when every line keeps at least two points.  For such S the
completion must take |S| steps, with a strictly decreasing defect
trajectory, and end with the profile of PG(3,q); every matroid it visits
has unit pair defects totalling its disjoint flags plus its pairs of
disjoint coplanar lines (``oracles.brute_defect_identity``), and every
step matches ``oracles.reverified_extension``.  In coordinates, each step
adds the GF(q) point where its flag's plane meets its line
(``oracles.modp_line_plane_meet``), and the completed lattice must be the
matroid of the remaining points and those, flat for flat and label for
label.  For every other S, ``hypermod complete`` must refuse the input
with exit code 2.

Corpus (24 deletions): for q = 2 and q = 3 and each seed 0..7, S is
``random.Random(100 * q + seed).sample(points, 1 + seed % (q + 2))``.
Two deletions per q fail the line condition on purpose: all points but
one of the line picked by ``random.Random(q)``, once alone and once with
the first point off that line.  For q = 5 and each seed 0..3, S is
``random.Random(500 + seed).sample(points, 3 + seed)``, so |S| runs from
3 to 6.  Lines come from the GF(q) span oracle, not from the library.

Long completions: for q = 3 and q = 5, S is the elliptic quadric
x0·x1 + x2² − n·x3² = 0 with n a non-square mod q, an ovoid of q² + 1
points, no three collinear (Hirschfeld, *Finite Projective Spaces of
Three Dimensions*, 1985).  Each deleted point carries its own defect,
so the trajectory is exactly (|S| − i)·d_q, and the points the
completion adds are exactly the ovoid.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypermod import (
    PointConfig,
    build_context,
    complete_to_modular,
    criterion_holds,
    delete,
    disjoint_rank32_pairs,
    extend_once,
    flats_of_rank,
    is_hypermodular,
    matroid_from_points,
    pg3_points,
    profile,
    serialize_matroid,
    total_modular_defect,
    verify_flat_axioms,
)
from hypermod import extension
from hypermod.cli import main
import oracles
from oracles import (
    brute_defect_identity,
    brute_modular_cut,
    brute_rank,
    modp_line_plane_meet,
    modp_matrix_rank,
    modp_span_members,
    pg_point_list,
)

PG_PROFILE = {
    2: (1, 15, 35, 15, 1),
    3: (1, 40, 130, 40, 1),
    5: (1, 156, 806, 156, 1),
    7: (1, 400, 2850, 400, 1),
}
SEEDS = range(8)


@functools.cache
def _lines(q: int) -> list[frozenset[int]]:
    points = pg_point_list(q)
    lines: list[frozenset[int]] = []
    covered: set[tuple[int, int]] = set()
    for pair in itertools.combinations(range(len(points)), 2):
        if pair not in covered:
            lines.append(modp_span_members(points, pair, q))
            covered.update(itertools.combinations(sorted(lines[-1]), 2))
    return sorted(lines, key=sorted)


def _corpus(q: int) -> list[frozenset[int]]:
    n = len(pg_point_list(q))
    if q == 5:
        return [frozenset(random.Random(500 + seed).sample(range(n), 3 + seed)) for seed in range(4)]
    sets = [
        frozenset(random.Random(100 * q + seed).sample(range(n), 1 + seed % (q + 2)))
        for seed in SEEDS
    ]
    line = random.Random(q).choice(_lines(q))
    thinned = frozenset(sorted(line)[1:])
    off_line = min(set(range(n)) - line)
    return sets + [thinned, thinned | {off_line}]


CASES = [(q, S) for q in (2, 3, 5) for S in _corpus(q)]
IDS = [f"pg3{q}-minus-{'_'.join(map(str, sorted(S)))}" for q, S in CASES]


@pytest.fixture(scope="module")
def spaces(pg32, pg33, pg35, pg37):
    return {2: pg32, 3: pg33, 5: pg35, 7: pg37}


def test_corpus_has_both_kinds():
    # element i of pg3(q) is point i of the oracle's list
    for q in (2, 3, 5):
        assert list(pg3_points(q).points) == pg_point_list(q)
    assert len(CASES) == 24
    kinds = {(q, all(len(line - S) >= 2 for line in _lines(q))) for q, S in CASES}
    assert kinds == {(2, True), (2, False), (3, True), (3, False), (5, True)}
    assert [len(S) for q, S in CASES if q == 5] == [3, 4, 5, 6]


def _assert_completed_in_coordinates(q: int, S, outcome) -> list[tuple[int, ...]]:
    """Each step adds the point where its flag's plane meets its line; the result is their matroid.

    Returns the added points.
    """
    points = [x for i, x in enumerate(pg_point_list(q)) if i not in S]
    kept = len(points)
    for step in outcome.steps:
        assert step.new_element == len(points)
        points.append(modp_line_plane_meet(points, step.flat3, step.flat2, q))
    assert outcome.matroid == matroid_from_points(PointConfig(q, 4, tuple(points)))
    return points[kept:]


def _record_visits(monkeypatch) -> list:
    visited = []
    original = extension.first_extendable_flag

    def recording(M):
        visited.append(M)
        return original(M)

    monkeypatch.setattr(extension, "first_extendable_flag", recording)
    return visited


@pytest.mark.parametrize("q,S", CASES, ids=IDS)
def test_deletion_completes_exactly_when_every_line_keeps_two_points(
    q, S, spaces, tmp_path, monkeypatch, check_local_step
):
    D = delete(spaces[q], S)
    keeps_lines = all(len(line - S) >= 2 for line in _lines(q))
    assert is_hypermodular(D) == keeps_lines
    if not keeps_lines:
        path = tmp_path / "deletion.mat"
        path.write_text(serialize_matroid(D, name="deletion"))
        assert main(["complete", str(path), "--machine"]) == 2
        return
    visited = _record_visits(monkeypatch)
    monkeypatch.setattr(extension, "extend_once", check_local_step)
    outcome = complete_to_modular(D)
    assert outcome.ok
    assert visited[0] is D and len(visited) == len(S)
    for M in visited + [outcome.matroid]:
        report = total_modular_defect(M)
        assert set(report.pair_defects.values()) <= {1}
        assert report.total == sum(brute_defect_identity(M))
    assert len(outcome.steps) == len(S)
    trajectory = [s.defect_before for s in outcome.steps] + [outcome.steps[-1].defect_after]
    assert all(a > b for a, b in zip(trajectory, trajectory[1:]))
    assert trajectory[-1] == 0
    assert profile(outcome.matroid).counts == PG_PROFILE[q]
    _assert_completed_in_coordinates(q, S, outcome)


def test_pg37_two_point_deletion_completes_to_pg37(pg37, monkeypatch):
    # 8778 = 2 * 4389: a deleted point leaves 57 * 49 = 2793 disjoint flags
    # (a plane through it and a line through it outside that plane) and
    # C(57, 2) = 1596 disjoint coplanar pairs of lines through it.
    visited = _record_visits(monkeypatch)
    outcome = complete_to_modular(delete(pg37, {0, 1}))
    assert outcome.ok
    trajectory = [s.defect_before for s in outcome.steps] + [outcome.steps[-1].defect_after]
    assert trajectory == [8778, 4389, 0]
    assert profile(outcome.matroid) == profile(pg37)
    assert profile(pg37).counts == PG_PROFILE[7]
    for M in visited + [outcome.matroid]:
        assert total_modular_defect(M).total == sum(brute_defect_identity(M))
    _assert_completed_in_coordinates(7, {0, 1}, outcome)


def _ovoid(q: int) -> frozenset[int]:
    """The points of the elliptic quadric x0·x1 + x2² − n·x3² = 0, n the least non-square mod q."""
    n = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
    points = pg_point_list(q)
    return frozenset(i for i, (a, b, c, d) in enumerate(points) if (a * b + c * c - n * d * d) % q == 0)


def _no_three_collinear(q: int, S) -> bool:
    """Whether the line through any two points of S holds no third.

    The points of the line through u and v are v and u + t·v for t in
    GF(q), each scaled so its first nonzero coordinate is 1, as in
    ``pg_point_list``.
    """
    points = pg_point_list(q)
    chosen = {points[i] for i in S}
    for u, v in itertools.combinations(chosen, 2):
        for t in range(1, q):
            w = [(a + t * b) % q for a, b in zip(u, v)]
            lead = pow(next(c for c in w if c), q - 2, q)
            if tuple(c * lead % q for c in w) in chosen:
                return False
    return True


def _point_defect(q: int) -> int:
    # A deleted point lies on q² + q + 1 planes and as many lines; each plane
    # through it is disjoint from the q² lines through it outside the plane,
    # and any two lines through it become disjoint coplanar lines.
    n = q * q + q + 1
    return n * q * q + n * (n - 1) // 2


@pytest.mark.parametrize("q", [3, 5, 7])
def test_ovoid_deletion_completes_one_point_defect_at_a_time(q, spaces, monkeypatch, check_local_step):
    S = _ovoid(q)
    assert len(S) == q * q + 1
    if q < 7:
        assert all(len(line & S) <= 2 for line in _lines(q))
    else:  # the line oracle takes about 10 s at q = 7
        assert _no_three_collinear(q, S)
    assert _point_defect(q) == {3: 195, 5: 1240, 7: 4389}[q]
    visited = _record_visits(monkeypatch)
    if q == 3:  # at q = 5 the full re-verification of 26 steps costs about 6 s
        monkeypatch.setattr(extension, "extend_once", check_local_step)
    D = delete(spaces[q], S)
    if q == 7:
        # Checked, the input's report is counted, not scanned over the
        # 6.6 M flat pairs of the pair table (about 2.5 s).
        assert verify_flat_axioms(D).passed
    outcome = complete_to_modular(D)
    assert outcome.ok
    trajectory = [s.defect_before for s in outcome.steps] + [outcome.steps[-1].defect_after]
    assert trajectory == [(len(S) - i) * _point_defect(q) for i in range(len(S) + 1)]
    if q == 3:
        for M in visited + [outcome.matroid]:
            report = total_modular_defect(M)
            assert set(report.pair_defects.values()) <= {1}
            assert report.total == sum(brute_defect_identity(M))
    assert profile(outcome.matroid).counts == PG_PROFILE[q]
    added = _assert_completed_in_coordinates(q, S, outcome)
    assert sorted(added) == [x for i, x in enumerate(pg_point_list(q)) if i in S]


def test_every_extension_has_the_rows_of_the_constructor(spaces, monkeypatch, constructor_rows):
    # Each extension's rows are built from its parent's and the cut; they
    # must be those the constructor builds from the extension's flats.
    completable = [(q, S) for q, S in CASES if all(len(line - S) >= 2 for line in _lines(q))]
    completable += [(q, _ovoid(q)) for q in (3, 5)]
    visited = _record_visits(monkeypatch)
    for q, S in completable:
        visited.clear()
        outcome = complete_to_modular(delete(spaces[q], S))
        assert outcome.ok and len(visited) == len(S)
        for M in visited[1:] + [outcome.matroid]:
            constructor_rows(M)


@pytest.fixture(scope="module")
def ovoid33(pg33):
    S = _ovoid(3)
    points = pg_point_list(3)
    return delete(pg33, S), [x for i, x in enumerate(points) if i not in S], {points[i] for i in S}


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_sampled_ovoid_flag_has_the_star_through_its_meet_point(ovoid33, data):
    """A flag's star lines and star planes are the flats whose GF(3) span holds its meet point."""
    D, points, ovoid = ovoid33
    f3, f2 = data.draw(st.sampled_from(disjoint_rank32_pairs(D)))
    ctx = build_context(D, f3, f2)
    assert criterion_holds(D, ctx).holds
    meet = modp_line_plane_meet(points, f3, f2, 3)
    assert meet in ovoid

    def through_meet(flat, k):
        return modp_matrix_rank([points[i] for i in flat] + [meet], 3) == k

    lines = {x for x in flats_of_rank(D, 2) if through_meet(x, 2)}
    planes = {x for x in flats_of_rank(D, 3) if through_meet(x, 3)}
    assert len(lines) == len(planes) == 13  # the lines and planes of PG(3,3) through a point
    assert set(ctx.star_lines) == lines
    assert set(ctx.star_planes) == planes


def test_every_flag_generates_the_modular_cut_of_its_star(del32, del33a, del33ab, spaces, monkeypatch):
    """The criterion against Crapo's theorem, on every flag and four sampled q = 5 flags per deletion.

    A new point on a flag's plane and line is a single-element extension
    whose modular cut holds both, so it holds the least such cut, built
    from brute ranks alone (``oracles.brute_modular_cut``).  The criterion
    must hold exactly when that cut holds no flat of rank 1 or less; the
    cut must then be the star lines, the star planes and the ground set,
    and the flats ``extend_once`` enlarges plus the ground set.  The
    oracle's ranks are memoized: flags share most of their unions.
    """
    monkeypatch.setattr(oracles, "brute_rank", functools.cache(oracles.brute_rank))
    inputs = [(M, disjoint_rank32_pairs(M)) for M in (del32, del33a, del33ab)]
    for q, S in CASES + [(3, _ovoid(3))]:
        if all(len(line - S) >= 2 for line in _lines(q)):
            D = delete(spaces[q], S)
            flags = disjoint_rank32_pairs(D)
            inputs.append((D, random.Random(q).sample(flags, 4) if q == 5 else flags))
    # 28 flags per point deleted from PG(3,2), 117 from PG(3,3): the q = 3 corpus deletes 16.
    assert sum(len(flags) for _, flags in inputs) == 28 + 117 + 234 + 2 * 28 + 16 * 117 + 4 * 4 + 10 * 117
    for M, flags in inputs:
        for f3, f2 in flags:
            ctx = build_context(M, f3, f2)
            cut = brute_modular_cut(M, [f3, f2])
            holds = criterion_holds(M, ctx).holds
            assert holds == all(brute_rank(M, f) >= 2 for f in cut)
            if holds:
                assert cut == set(ctx.star_lines) | set(ctx.star_planes) | {M.ground_set}
                assert cut == set(extend_once(M, ctx).enlarged) | {M.ground_set}
