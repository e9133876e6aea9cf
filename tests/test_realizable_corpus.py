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
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from hypermod import (
    PointConfig,
    complete_to_modular,
    delete,
    is_hypermodular,
    matroid_from_points,
    pg3_points,
    profile,
    serialize_matroid,
    total_modular_defect,
)
from hypermod import extension
from hypermod.cli import main
from oracles import brute_defect_identity, modp_line_plane_meet, modp_span_members, pg_point_list

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
def spaces(pg32, pg33, pg35):
    return {2: pg32, 3: pg33, 5: pg35}


def test_corpus_has_both_kinds():
    # element i of pg3(q) is point i of the oracle's list
    for q in (2, 3, 5):
        assert list(pg3_points(q).points) == pg_point_list(q)
    assert len(CASES) == 24
    kinds = {(q, all(len(line - S) >= 2 for line in _lines(q))) for q, S in CASES}
    assert kinds == {(2, True), (2, False), (3, True), (3, False), (5, True)}
    assert [len(S) for q, S in CASES if q == 5] == [3, 4, 5, 6]


def _assert_completed_in_coordinates(q: int, S, outcome) -> None:
    """Each step adds the point where its flag's plane meets its line; the result is their matroid."""
    points = [x for i, x in enumerate(pg_point_list(q)) if i not in S]
    for step in outcome.steps:
        assert step.new_element == len(points)
        points.append(modp_line_plane_meet(points, step.flat3, step.flat2, q))
    assert outcome.matroid == matroid_from_points(PointConfig(q, 4, tuple(points)))


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
