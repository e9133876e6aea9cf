from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import weakref

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from hypermod import (
    Matroid,
    PointConfig,
    check_line_connectivity,
    closure,
    contract,
    delete,
    disjoint_rank32_pairs,
    flats_of_rank,
    hypermodularity_witness,
    is_hypermodular,
    is_inseparable,
    is_modular,
    is_modular_flat,
    is_modular_pair,
    matroid_from_points,
    modular_defect,
    pair_key,
    parse_matroid,
    pg3_points,
    pg3,
    restrict,
    serialize_matroid,
    total_modular_defect,
    uniform,
    vamos,
    verify_flat_axioms,
    verify_rank_axioms,
)
from hypermod import cli, complete_to_modular, core, modularity
from hypermod.core import _defect_block, _defect_by_index, _pair_table
from hypermod.modularity import _defective_pairs
from oracles import (
    brute_closed_pair_r3_fails,
    brute_defect,
    brute_defect_identity,
    brute_f1,
    brute_f2,
    brute_flat_jumps,
    brute_flat_r3,
    brute_flat_report,
    brute_flat_verdict,
    brute_irreducible,
    brute_rank,
    brute_rank_violations,
    brute_subset_r1_fails,
    brute_subset_r3_fails,
    brute_unit_increase,
    pg_point_list,
)
from test_realizable_corpus import CASES, _lines, _ovoid


def _capped(violations) -> list:
    """The first ``core._VIOLATION_CAP`` violations of each axiom, in order: what a flat report lists."""
    seen: dict[str, int] = {}
    kept = []
    for v in violations:
        seen[v.axiom] = seen.get(v.axiom, 0) + 1
        if seen[v.axiom] <= core._VIOLATION_CAP:
            kept.append(v)
    return kept


# Pinned by the brute-force defect oracle over all flat pairs of the
# one-point deletion of PG(3,2): 28 disjoint (rank-3, rank-2) flags plus
# 21 pairs of two-point lines meeting nowhere, one unit of defect each.
DELETION_TOTAL_DEFECT = 49


def test_defect_nested(pg32):
    line = flats_of_rank(pg32, 2)[0]
    plane = next(p for p in flats_of_rank(pg32, 3) if line <= p)
    assert modular_defect(pg32, line, plane) == 0


def test_defect_uniform():
    u34 = uniform(3, 4)
    assert modular_defect(u34, {0, 1}, {2, 3}) == 1


def test_defect_deletion_flag(del32):
    f3, f2 = disjoint_rank32_pairs(del32)[0]
    assert modular_defect(del32, f3, f2) == 1
    assert modular_defect(del32, f3, f2) == brute_defect(del32, f3, f2)


def test_defect_symmetry_and_nonnegativity(del32):
    import random

    rng = random.Random(11)
    flats = [f for grade in del32.flats_by_rank for f in grade]
    for _ in range(200):
        a, b = rng.sample(flats, 2)
        d = modular_defect(del32, a, b)
        assert d == modular_defect(del32, b, a)
        assert d >= 0
        assert d == brute_defect(del32, a, b)


def test_defect_requires_flats(pg32):
    line = flats_of_rank(pg32, 2)[0]
    nonflat = frozenset(list(line)[:2])
    with pytest.raises(ValueError, match="not a flat"):
        modular_defect(pg32, nonflat, line)


def test_rank1_flats_are_modular(pg32, del32, vamos_m):
    for M in (pg32, del32, vamos_m):
        for f in M.flats_by_rank[1]:
            assert is_modular_flat(M, f)


def test_modular_pair_examples(pg32):
    planes = flats_of_rank(pg32, 3)
    assert is_modular_pair(pg32, planes[0], planes[1])
    u34 = uniform(3, 4)
    assert not is_modular_pair(u34, {0, 1}, {2, 3})


def test_modular_flat_examples(pg32):
    assert is_modular_flat(pg32, pg32.ground_set)
    assert not is_modular_flat(uniform(3, 4), {0, 1})


def test_is_modular(pg32, del32):
    assert is_modular(pg32)
    assert not is_modular(del32)
    assert is_modular(uniform(3, 3))  # free matroid


def test_is_hypermodular(pg32, pg33, del32, vamos_m):
    assert is_hypermodular(pg32)
    assert is_hypermodular(pg33)
    assert is_hypermodular(del32)
    assert not is_hypermodular(vamos_m)
    with pytest.raises(ValueError, match="rank"):
        is_hypermodular(uniform(2, 3))


def test_vamos_disjoint_witness(vamos_m):
    witness = hypermodularity_witness(vamos_m)
    assert witness is not None
    a, b = witness
    assert modular_defect(vamos_m, a, b) > 0
    # the named disjoint pair of corank-1 flats is also a witness
    assert modular_defect(vamos_m, {0, 2, 4}, {1, 3, 6}) == 2


def test_total_defect(pg32, del32):
    assert total_modular_defect(pg32).total == 0
    report = total_modular_defect(del32)
    assert report.total == DELETION_TOTAL_DEFECT
    assert sum(report.pair_defects.values()) == report.total
    assert all(d > 0 for d in report.pair_defects.values())
    assert len(report.disjoint_flags) == 28
    u34 = uniform(3, 4)
    assert total_modular_defect(u34).total == 3


def test_the_cached_defect_report_is_frozen():
    # The report is cached on the matroid and shared with every caller.
    M = uniform(3, 4)
    report = total_modular_defect(M)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.total = 0
    assert total_modular_defect(M).total == 3


def test_total_defect_flag_invariants(del32):
    report = total_modular_defect(del32)
    from hypermod import rank_of

    for f3, f2 in report.disjoint_flags:
        assert not (f3 & f2)
        assert rank_of(del32, f3) == 3
        assert rank_of(del32, f2) == 2


def _assert_defect_identity(M):
    """Loopless rank-4 hypermodular: unit defects, totalling flags plus disjoint coplanar lines."""
    report = total_modular_defect(M)
    flags, coplanar = brute_defect_identity(M)
    assert set(report.pair_defects.values()) <= {1}
    assert report.total == flags + coplanar
    assert len(report.disjoint_flags) == flags
    return report.total, flags, coplanar


@pytest.mark.parametrize(
    "q,removed,expected",
    [
        (3, {0}, (195, 117, 78)),
        (5, {0, 1}, (2480, 1550, 930)),
        (5, {0, 7, 30}, (3720, 2325, 1395)),
    ],
)
def test_total_defect_is_flags_plus_disjoint_coplanar_lines(q, removed, expected):
    M = delete(pg3(q), removed)
    assert is_hypermodular(M)
    assert _assert_defect_identity(M) == expected


def test_disjoint_pairs(pg32, del32):
    assert disjoint_rank32_pairs(pg32) == []
    flags = disjoint_rank32_pairs(del32)
    assert len(flags) == 28
    # each flag is a deleted plane (6 points) against a deleted line (2 points)
    assert {(len(f), len(l)) for f, l in flags} == {(6, 2)}
    with pytest.raises(ValueError, match="rank"):
        disjoint_rank32_pairs(uniform(3, 4))


def test_disjoint_pairs_requires_loopless(loop_fixture):
    with pytest.raises(ValueError, match="rank"):
        disjoint_rank32_pairs(loop_fixture)
    # U(4,4) plus a loop: rank 4, but not loopless
    looped = [[{4} | set(c) for c in itertools.combinations(range(4), k)] for k in range(5)]
    with pytest.raises(ValueError, match="loopless"):
        disjoint_rank32_pairs(Matroid(5, looped))


def _brute_flags(M):
    return [(f, l) for f in M.flats_by_rank[3] for l in M.flats_by_rank[2] if not f & l]


def test_disjoint_pairs_match_the_double_loop(pg32, pg33, del32, del33a, del33ab, vamos_m):
    for M in (pg32, pg33, del32, del33a, del33ab, vamos_m, uniform(4, 6), uniform(4, 4)):
        assert disjoint_rank32_pairs(M) == _brute_flags(M)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_disjoint_pairs_match_the_double_loop_on_deletions(pg32, pg33, data):
    base = data.draw(st.sampled_from([pg32, pg33]))
    removed = data.draw(
        st.lists(st.integers(0, base.ground_size - 1), min_size=1, max_size=2, unique=True)
    )
    M = delete(base, set(removed))
    assert disjoint_rank32_pairs(M) == _brute_flags(M)


def test_modular_implies_hypermodular(pg32, pg33):
    for M in (pg32, pg33, uniform(4, 4)):
        if is_modular(M):
            assert is_hypermodular(M)


def test_rank3_hypermodular_is_modular(pg32, del32, two_cover):
    # over the rank-3 fixtures and all rank-1 contractions of rank-4 ones
    rank3 = [uniform(3, 3), two_cover, restrict(pg32, flats_of_rank(pg32, 3)[0])]
    for M in (pg32, del32):
        rank3.extend(contract(M, f) for f in M.flats_by_rank[1])
    for Q in rank3:
        if Q.rank == 3 and is_hypermodular(Q):
            assert is_modular(Q)


def test_equiv_biconditional_flag_vs_nested(pg32, del32, del33ab, vamos_m):
    # a disjoint (rank-3, rank-2) pair exists iff some rank-3 flat holds
    # two disjoint rank-2 flats; checked independently on each fixture
    for M in (pg32, del32, del33ab):
        flags_exist = bool(disjoint_rank32_pairs(M))
        nested = False
        for t in M.flats_by_rank[3]:
            inside = [l for l in M.flats_by_rank[2] if l <= t]
            if any(not (a & b) for a, b in itertools.combinations(inside, 2)):
                nested = True
                break
        assert flags_exist == nested


def test_modular_iff_no_flags(pg32, del32, del33ab):
    for M in (pg32, del32, del33ab):
        assert is_modular(M) == (not disjoint_rank32_pairs(M))


def test_inseparable_rank3_flats(pg32, del32, del33ab):
    for M in (pg32, del32, del33ab):
        assert is_inseparable(M)
        for f in M.flats_by_rank[3]:
            assert is_inseparable(restrict(M, f))


def test_corank1_union_splits(del32):
    # when two corank-1 flats cover the ground set, one of them is a
    # union of two rank-2 flats with a common element
    for M in (uniform(4, 4), del32):
        tops = M.flats_by_rank[3]
        lines = M.flats_by_rank[2]
        for f, l in itertools.combinations(tops, 2):
            if f | l != M.ground_set:
                continue
            def splits(top):
                inside = [x for x in lines if x <= top]
                return any(
                    a | b == top and a & b
                    for a, b in itertools.combinations(inside, 2)
                )
            assert splits(f) or splits(l)


def test_defect_answers_match_the_oracle(
    pg32, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture
):
    # every all-pairs answer against brute_defect over all distinct flat
    # pairs, taken in the global flat order (grade, then canonical)
    fixtures = [
        pg32, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture, uniform(3, 4), uniform(4, 6)
    ]
    fixtures += [contract(del32, f) for f in del32.flats_by_rank[1]]
    for M in fixtures:
        flats = [f for grade in M.flats_by_rank for f in grade]
        positive = {}
        for a, b in itertools.combinations(flats, 2):
            d = brute_defect(M, a, b)
            if d:
                positive[(a, b)] = d
        total = sum(positive.values())
        report = total_modular_defect(M)
        assert report.total == total
        assert report.pair_defects == {pair_key(a, b): d for (a, b), d in positive.items()}
        assert is_modular(M) == (total == 0)
        for f in flats:
            assert is_modular_flat(M, f) == all(brute_defect(M, f, g) == 0 for g in flats)
        if M.rank < 3:
            continue
        tops = set(M.flats_by_rank[M.rank - 1])
        top_pairs = [(a, b) for a, b in positive if a in tops and b in tops]
        assert hypermodularity_witness(M) == (top_pairs[0] if top_pairs else None)
        if M.rank == 4 and M.is_loopless:
            report = check_line_connectivity(M)
            assert report.passed == (not top_pairs)
            assert [v.witnesses for v in report.violations] == top_pairs[: core._VIOLATION_CAP]


# -- the packed pair table against the scalar single-pair routine ----------


def _scalar_defects(M):
    count = len(M._flat_list)
    return np.array([[_defect_by_index(M, i, j) for j in range(count)] for i in range(count)])


def _scalar_pairs(M, lo, hi):
    flats = M._flat_list
    return [
        (flats[i], flats[j], d)
        for i in range(lo, hi)
        for j in range(i + 1, hi)
        if (d := _defect_by_index(M, i, j))
    ]


def _assert_scan_matches_scalar(M):
    starts = M._grade_starts
    assert list(_defective_pairs(M)) == _scalar_pairs(M, 0, starts[-1])
    for k in range(M.rank + 1):
        assert list(_defective_pairs(M, k)) == _scalar_pairs(M, starts[k], starts[k + 1])


def test_pair_table_matches_scalar_on_every_pair(
    monkeypatch, pg32, pg33, del32, del33a, del33ab, vamos_m, two_cover, direct_sum_u12,
    loop_fixture,
):
    zoo = [
        pg32, pg33, del32, del33a, del33ab, vamos_m, two_cover, direct_sum_u12, loop_fixture,
        uniform(3, 6), uniform(4, 6), uniform(0, 2),
    ]
    for M in zoo:
        count = len(M._flat_list)
        # every cell, zeros and the diagonal included
        assert np.array_equal(_defect_block(M, 0, count, 0, count), _scalar_defects(M))
    # small row blocks, so every scan crosses block boundaries
    monkeypatch.setattr(core, "_BLOCK_CELLS", 40)
    for M in zoo:
        _assert_scan_matches_scalar(M)


def test_pair_table_up_sets_are_the_containment_by_grade(pg33, del33ab, vamos_m):
    for M in (pg33, del33ab, vamos_m, uniform(4, 6)):
        up_sets = _pair_table(M)[5]
        for k, grade in enumerate(M.flats_by_rank):
            for i, f in enumerate(M._flat_list):
                packed = int.from_bytes(up_sets[k][i].tobytes(), "little")
                assert packed == sum(1 << b for b, g in enumerate(grade) if f <= g)


def _count_scalar_calls(monkeypatch):
    calls = []

    def counted(M, i, j):
        calls.append((i, j))
        return _defect_by_index(M, i, j)

    monkeypatch.setattr(core, "_defect_by_index", counted)
    return calls


def test_pair_table_falls_back_per_pair_where_the_meet_is_no_flat(monkeypatch):
    # {0,1,2} and {1,2,3} meet in {1,2}, which is not a stored flat.
    M = Matroid(4, [[()], [{0}, {1}, {2}, {3}], [{0, 1, 2}, {1, 2, 3}], [{0, 1, 2, 3}]])
    calls = _count_scalar_calls(monkeypatch)
    assert np.array_equal(_defect_block(M, 0, 8, 0, 8), _scalar_defects(M))
    assert sorted(calls) == [(5, 6), (6, 5)]


def test_pair_table_matches_scalar_with_a_flat_nested_downward():
    # {0} has grade 2 but lies inside {0,1} of grade 1, so the closure of
    # {0} is {0,1}: a stored flat need not be its own closure, and its
    # rank (1) is not its grade (2).  The same lattice with {0} moved to
    # grade 1 is graded.
    nested = Matroid(3, [[()], [{0, 1}, {2}], [{0}, {1, 2}], [{0, 1, 2}]])
    repaired = Matroid(3, [[()], [{0}, {1}, {2}], [{0, 1}, {1, 2}], [{0, 1, 2}]])
    for M in (nested, repaired):
        count = len(M._flat_list)
        assert np.array_equal(_defect_block(M, 0, count, 0, count), _scalar_defects(M))
        _assert_scan_matches_scalar(M)


def test_pair_table_survives_hash_collisions(monkeypatch, pg32):
    # Every mask hashes alike, so each lookup lands on one flat and the
    # word check must send every other meet to the scalar routine, and
    # every other F1 cell to the dictionary of stored masks.  The
    # matroids are built here, so no lookup table is cached yet.
    monkeypatch.setattr(core, "_mix", lambda h: h & np.uint64(0))
    calls = _count_scalar_calls(monkeypatch)
    grades = [list(g) for g in pg32.flats_by_rank]
    grades[2].pop(0)
    holey = Matroid(15, grades)
    for M in (delete(pg32, {0}), vamos(), uniform(3, 6), holey):
        calls.clear()
        count = len(M._flat_list)
        assert np.array_equal(_defect_block(M, 0, count, 0, count), _scalar_defects(M))
        assert calls
        f1 = [v for v in verify_flat_axioms(M).violations if v.axiom == "F1"]
        assert f1 == brute_f1(M)
    assert brute_f1(holey)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pair_table_matches_scalar_on_random_deletions(pg32, pg33, vamos_m, data):
    base = data.draw(st.sampled_from([pg32, pg33, vamos_m, uniform(3, 6)]))
    removed = data.draw(
        st.lists(st.integers(0, base.ground_size - 1), min_size=1, max_size=2, unique=True)
    )
    M = delete(base, set(removed))
    _assert_scan_matches_scalar(M)


@st.composite
def _small_families(draw):
    """Families the constructor accepts, lattices or not: 2-8 proper subsets at random grades.

    Half of the bottom flats are nonempty, so flats can nest inside grade 0 too.
    """
    n, r = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    proper = st.integers(1, (1 << n) - 2)
    bottom = draw(st.one_of(st.just(0), proper))
    masks = draw(st.lists(proper, min_size=2, max_size=8, unique=True))
    grades = [[bottom]] + [[] for _ in range(r - 1)] + [[(1 << n) - 1]]
    for m in masks:
        grades[draw(st.integers(1, r - 1))].append(m)
    grades = [[[e for e in range(n) if m >> e & 1] for m in grade] for grade in grades]
    try:
        return Matroid(n, grades)
    except ValueError:
        assume(False)


@st.composite
def _realized_families(draw):
    """Matroids of 3-9 points over GF(2) or GF(3) in dimension 2-4, repeats allowed."""
    p = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(2, 4))
    vector = st.tuples(*[st.integers(0, p - 1)] * dim).filter(any)
    points = draw(st.lists(vector, min_size=3, max_size=9))
    return matroid_from_points(PointConfig(prime=p, dim=dim, points=tuple(points)))


def _assert_flat_axioms_match_the_walk(M):
    """The oracles' verdict, and the walk's first F2 pairs, or a subsequence of them where F1 fails."""
    report = verify_flat_axioms(M)
    assert report.passed == brute_flat_verdict(M)
    f2 = [v.witnesses for v in report.violations if v.axiom == "F2"]
    walk = iter(v.witnesses[:2] for v in brute_f2(M))
    if brute_f1(M):
        assert all(pair in walk for pair in f2)
    else:
        assert f2 == list(walk)[: core._VIOLATION_CAP]


@settings(max_examples=300, deadline=None)
@given(M=_small_families())
# {0,1} and {1,2} meet in {1} and join inside the bottom flat: a join of grade 0.
@example(M=Matroid(4, [[{0, 1, 2}], [{1}], [{0, 1}, {1, 2}], [range(4)]]))
# Graded, and the covers {0,1} and {0,2} of the bottom flat hold everything,
# but they meet in {0}, which is no flat: only F1 fails.
@example(M=Matroid(3, [[()], [{0, 1}, {0, 2}], [{0, 1, 2}]]))
def test_pair_table_is_exact_on_any_accepted_family(M):
    count = len(M._flat_list)
    assert np.array_equal(_defect_block(M, 0, count, 0, count), _scalar_defects(M))
    r3 = [v for v in verify_rank_axioms(M, trials=0).violations if v.axiom == "R3"]
    assert r3 == brute_flat_r3(M)
    f1 = [v for v in verify_flat_axioms(M).violations if v.axiom == "F1"]
    assert f1 == _capped(brute_f1(M))
    _assert_flat_axioms_match_the_walk(M)


def _assert_rank_axioms_match_the_oracle(M, seed, trials):
    """Both modes' reports are the oracle's, and every closure is the flats above the set.

    Exhaustive mode and the closure of every mask are checked up to ground
    size 8; past that, the closures of 64 seeded random masks.
    """
    n = M.ground_size
    for mode in ("sampled", "exhaustive") if n <= 8 else ("sampled",):
        report = verify_rank_axioms(M, mode, seed=seed, trials=trials)
        assert list(report.violations) == brute_rank_violations(M, mode, seed, trials)
    rng = random.Random(seed)
    masks = range(1 << n) if n <= 8 else [rng.getrandbits(n) for _ in range(64)]
    for mask in masks:
        above = [i for i, f in enumerate(M._flat_masks) if f & mask == mask]
        assert M._closure_bits(mask) == sum(1 << i for i in above)


@settings(max_examples=300, deadline=None)
@given(M=_small_families(), seed=st.integers(0, 2**32 - 1), trials=st.integers(0, 60))
# The golden lattice of tests/test_cli.py: {0} of grade 2 inside {0,1} of grade 1.
@example(M=Matroid(3, [[()], [{0, 1}, {2}], [{0}, {1, 2}], [{0, 1, 2}]]), seed=0, trials=20)
def test_rank_axioms_match_the_oracle_on_any_accepted_family(M, seed, trials):
    _assert_rank_axioms_match_the_oracle(M, seed, trials)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), trials=st.integers(0, 200))
def test_rank_axioms_match_the_oracle_on_the_zoo(
    pg32, pg33, del32, del33ab, vamos_m, two_cover, direct_sum_u12, loop_fixture, data, seed, trials
):
    zoo = [pg32, pg33, del32, del33ab, vamos_m, two_cover, direct_sum_u12, loop_fixture]
    corrupt = _corrupt_families(pg32)
    M = data.draw(st.sampled_from(zoo + [uniform(3, 6), uniform(4, 8), uniform(0, 2)] + corrupt))
    _assert_rank_axioms_match_the_oracle(M, seed, trials)


def _corrupt_families(pg32):
    grades = [list(g) for g in pg32.flats_by_rank]
    grades[2].pop(0)
    return [
        Matroid(15, grades),  # a missing line
        Matroid(3, [[frozenset()], [{2}], [], [{0, 1}], [{0, 1, 2}]]),  # rank beyond size
        Matroid(8, [[()], [{e} for e in range(8)], [], [], [range(8)]]),  # 28 bad flat pairs
    ]


@st.composite
def _mutated(draw, bases):
    """One flat of a known lattice dropped, moved to another grade, or with one element toggled.

    Only grades strictly between the bottom and the top change, since the
    constructor pins those two to one flat each.
    """
    base = draw(st.sampled_from(bases))
    grades = [list(g) for g in base.flats_by_rank]
    k = draw(st.integers(1, base.rank - 1))
    flat = draw(st.sampled_from(grades[k]))
    kind = draw(st.sampled_from(["drop", "move", "toggle"]))
    grades[k].remove(flat)
    if kind == "move":
        grades[draw(st.integers(1, base.rank - 1).filter(lambda g: g != k))].append(flat)
    elif kind == "toggle":
        grades[k].append(flat ^ {draw(st.integers(0, base.ground_size - 1))})
    try:
        return Matroid(base.ground_size, grades)
    except ValueError:
        assume(False)


def _assert_the_rank_axioms_reduce_to_the_lattice(M):
    """R2 never fails, subset R3 is flat-pair R3 on closed flats, R1 is decided on the points.

    Once subset R3 holds, R1 fails iff some single element has rank 2 or more.
    """
    assert not [v for v in brute_rank_violations(M, "exhaustive") if v.axiom == "R2"]
    assert brute_subset_r3_fails(M) == brute_closed_pair_r3_fails(M)
    jumps = brute_flat_jumps(M)
    assert jumps or not brute_subset_r1_fails(M)
    assert (not jumps) == brute_unit_increase(M)
    assert brute_subset_r3_fails(M) or brute_subset_r1_fails(M) == any(
        brute_rank(M, {e}) > 1 for e in range(M.ground_size)
    )


@settings(max_examples=300, deadline=None)
@given(M=_small_families())
@example(M=Matroid(3, [[()], [{0, 1}, {2}], [{0}, {1, 2}], [{0, 1, 2}]]))
def test_the_rank_axioms_reduce_to_the_lattice_on_any_accepted_family(M):
    _assert_the_rank_axioms_reduce_to_the_lattice(M)


def _corrupt_or_mutated(pg32, vamos_m):
    """A corrupt family or a mutated lattice, of at most 8 elements."""
    small = [M for M in _corrupt_families(pg32) if M.ground_size <= 8]
    fano = restrict(pg32, pg32.flats_by_rank[3][0])
    mutated = _mutated([fano, vamos_m, uniform(3, 6), uniform(4, 7), uniform(4, 8)])
    return st.one_of(st.sampled_from(small), mutated)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_rank_axioms_reduce_to_the_lattice_on_corrupt_and_mutated_lattices(
    pg32, vamos_m, data
):
    _assert_the_rank_axioms_reduce_to_the_lattice(data.draw(_corrupt_or_mutated(pg32, vamos_m)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_passing_flat_report_implies_the_rank_axioms(pg32, vamos_m, data):
    """F1, F2 and grading make a matroid's lattice of flats, so R1-R3 hold on every subset.

    Realized point configurations give most of the lattices that pass;
    the small, corrupt and mutated families seldom do.
    """
    sources = [_small_families(), _corrupt_or_mutated(pg32, vamos_m), _realized_families()]
    M = data.draw(st.one_of(sources))
    if brute_flat_verdict(M):
        event("passes the flat axioms")
        assert brute_rank_violations(M, "exhaustive") == []


def test_rank_axioms_scan_no_flat_pair_once_the_flat_report_passes(monkeypatch, pg33, rebuild):
    # The flat report is computed here, on matroids that carry none yet.
    scans = _count_calls(monkeypatch, core, "_upper_cells")
    blocks = _count_calls(monkeypatch, core, "_defect_block")
    space, u414 = rebuild(pg33), uniform(4, 14)
    for M, mode in ((space, "sampled"), (u414, "sampled"), (u414, "exhaustive")):
        assert verify_rank_axioms(M, mode).passed
        assert M._cache["flat_report"].passed
    assert not scans and not blocks


def _assert_the_sampled_verdict_is_exact(M, seed, trials):
    """Sampled mode passes iff the brute-force exhaustive check finds nothing."""
    report = verify_rank_axioms(M, "sampled", seed=seed, trials=trials)
    assert report.passed == (not brute_rank_violations(M, "exhaustive"))


@settings(max_examples=300, deadline=None)
@given(M=_small_families(), seed=st.integers(0, 2**32 - 1), trials=st.integers(0, 60))
# No pair of flats fails R3, but the points {0} and {1} both have rank 2.
@example(M=Matroid(2, [[()], [], [{0, 1}]]), seed=0, trials=0)
def test_the_sampled_verdict_is_exact_on_any_accepted_family(M, seed, trials):
    _assert_the_sampled_verdict_is_exact(M, seed, trials)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), trials=st.integers(0, 60))
def test_the_sampled_verdict_is_exact_on_corrupt_and_mutated_lattices(
    pg32, vamos_m, data, seed, trials
):
    _assert_the_sampled_verdict_is_exact(data.draw(_corrupt_or_mutated(pg32, vamos_m)), seed, trials)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_rank_axioms_skip_the_subset_passes_that_cannot_report(monkeypatch, pg33, vamos_m):
    closures = _count_calls(monkeypatch, Matroid, "_closure_bits")
    tables = _count_calls(monkeypatch, core, "_exhaustive_rank_violations")
    assert verify_rank_axioms(pg33, "sampled", trials=10000).passed
    for M in (uniform(4, 14), vamos_m):
        assert verify_rank_axioms(M, "exhaustive").passed
    assert not closures and not tables

    # The golden lattice of tests/test_cli.py fails R1 and R3 on subsets, so
    # both subset passes run and list witnesses past the flat pairs.
    nested = Matroid(3, [[()], [{0, 1}, {2}], [{0}, {1, 2}], [{0, 1, 2}]])
    for mode, calls in (("sampled", closures), ("exhaustive", tables)):
        report = verify_rank_axioms(nested, mode, trials=20)
        assert calls and len(report.violations) > len(brute_flat_r3(nested))
        assert list(report.violations) == brute_rank_violations(nested, mode, trials=20)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flat_axioms_match_the_walk_on_mutated_lattices(pg32, del32, vamos_m, data):
    """About 30 % of the mutated families the constructor accepts pass F1 but fail F2."""
    M = data.draw(_mutated([pg32, del32, vamos_m, uniform(3, 6), uniform(4, 7)]))
    _assert_flat_axioms_match_the_walk(M)


# -- F1 decided on the irreducible flats ----------------------------------


def _assert_f1_is_decided_on_the_irreducible_flats(M):
    """Every flat is the AND of the irreducible flats at or above it, so F1 is decided there.

    ``verify_flat_axioms`` decides F1 on the oracle's irreducible flats,
    with the all-pairs oracle's verdict, and lists the report of the
    brute-force flat oracle.
    """
    flats = M._flat_list
    irreducible = brute_irreducible(M)
    ground = frozenset(range(M.ground_size))
    for f in flats:
        assert f == ground.intersection(*(flats[j] for j in irreducible if f <= flats[j]))
    decided = []
    original = core._meets_are_flats

    def recording(M, cols):
        decided.append((cols.tolist(), original(M, cols)))
        return decided[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_meets_are_flats", recording)
        report = verify_flat_axioms(M)
    assert decided == [(irreducible, not brute_f1(M))]
    assert list(report.violations) == _capped(brute_flat_report(M))


@settings(max_examples=300, deadline=None)
@given(M=_small_families())
@example(M=Matroid(3, [[()], [{0, 1}, {2}], [{0}, {1, 2}], [{0, 1, 2}]]))
@example(M=Matroid(3, [[()], [{0, 1}, {0, 2}], [{0, 1, 2}]]))
# A nonempty bottom flat: {0} and {1} meet in ∅, which is not stored.
@example(M=Matroid(3, [[{0}], [{1}], [{0, 1, 2}]]))
# Nested pairs sharing two elements: the meet is the smaller flat, found by lookup.
@example(M=Matroid(4, [[()], [{0, 1}], [{0, 1, 2}], [range(4)]]))
# {0,1,2} and {1,2,3} meet in {1,2}, which is not stored.
@example(M=Matroid(4, [[()], [{0}, {1}, {2}, {3}], [{0, 1, 2}, {1, 2, 3}], [range(4)]]))
def test_f1_is_decided_on_the_irreducible_flats_of_any_accepted_family(M):
    _assert_f1_is_decided_on_the_irreducible_flats(M)


def test_f1_is_decided_on_the_irreducible_flats_of_the_zoo(
    pg32, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture, rebuild
):
    zoo = [pg32, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture, uniform(4, 8), uniform(0, 2)]
    for M in zoo + _corrupt_families(pg32):
        _assert_f1_is_decided_on_the_irreducible_flats(rebuild(M))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_f1_is_decided_on_the_irreducible_flats_of_mutated_lattices(pg32, del32, vamos_m, data):
    M = data.draw(_mutated([pg32, del32, vamos_m, uniform(3, 6), uniform(4, 7)]))
    _assert_f1_is_decided_on_the_irreducible_flats(M)


def _graded_by_chains(n, masks) -> Matroid:
    """The family of ``masks`` on ``0..n-1``, ∅ and the ground set added, graded by longest chain."""
    masks = sorted(set(masks) - {0, (1 << n) - 1}, key=int.bit_count)
    chain = {0: 0}
    for m in masks:
        chain[m] = 1 + max(k for x, k in chain.items() if x & m == x)
    grades = [[] for _ in range(max(chain.values()) + 2)]
    for m, k in chain.items():
        grades[k].append([e for e in range(n) if m >> e & 1])
    grades[-1].append(range(n))
    return Matroid(n, grades)


@st.composite
def _regraded(draw, bases):
    """A known lattice with a random subset added, then perhaps another change, graded by longest chain.

    The second change adds a subset, or drops a flat or toggles one of
    its elements.  Such a family is always accepted.  About one draw in
    five passes the checks on the declared grades that decide F2 and the
    grading, half of those failing F1; under one in twenty of
    ``_small_families`` does.
    """
    base = draw(st.sampled_from(bases))
    n, masks = base.ground_size, set(base._flat_masks)
    masks.add(draw(st.integers(1, (1 << n) - 2)))
    kind = draw(st.sampled_from(["none", "add", "drop", "toggle"]))
    if kind == "add":
        masks.add(draw(st.integers(1, (1 << n) - 2)))
    elif kind != "none":
        m = draw(st.sampled_from(sorted(masks)))
        masks.remove(m)
        if kind == "toggle":
            masks.add(m ^ 1 << draw(st.integers(0, n - 1)))
    return _graded_by_chains(n, masks)


_PG32_LESS_012 = delete(pg3(2), {0, 1, 2})
# {10} is covered by {0,2,3,10} of grade 3, two grades up, yet every check
# on the declared grades passes; F1 fails.
_SKIPPING_COVER = _graded_by_chains(12, _PG32_LESS_012._flat_masks + [0b10000001101])
# The lines through {0} meet in {0,1}, so the declared grades leave {0}
# undecided and the exact cover pass runs; F1 fails.
_LINES_MEET_IN_A_PAIR = Matroid(4, [[()], [{0}, {1}, {2}, {3}], [{0, 1, 2}, {0, 1, 3}, {2, 3}], [range(4)]])


@settings(max_examples=150, deadline=None)
@given(M=_regraded([pg3(2), _PG32_LESS_012, vamos(), uniform(3, 6), uniform(4, 7)]))
@example(M=_SKIPPING_COVER)
@example(M=_LINES_MEET_IN_A_PAIR)
def test_f1_is_decided_on_the_irreducible_flats_of_regraded_lattices(M):
    _assert_f1_is_decided_on_the_irreducible_flats(M)


def _wide_families() -> list[tuple[Matroid, bool]]:
    """Families on 130 to 133 elements, three mask words each, and whether each fails F1.

    Each failing family fails F1 only at meets inside the third word,
    elements 128 and up; skipping a word that is zero on either side must
    not hide them.
    """
    plane = matroid_from_points(PointConfig(prime=11, dim=3, points=tuple(pg_point_list(11, dim=3))))
    grades = [list(g) for g in plane.flats_by_rank]
    grades[1].remove(frozenset([128]))  # the 12 lines through 128 meet in {128}
    parallel = [{0, 1}, {63, 64, 128}, {127, 129}]
    singles = [{e} for e in range(130) if not any(e in p for p in parallel)]
    overlapping = [{0, 128, 129}, {1, 128, 129}] + [{e} for e in range(2, 128)]
    return [
        (plane, False),
        (delete(plane, {0, 1}), False),
        (uniform(2, 130), False),
        (Matroid(130, [[()], parallel + singles, [range(130)]]), False),
        (Matroid(133, grades), True),
        (Matroid(130, [[()], overlapping, [range(130)]]), True),
    ]


def test_f1_is_decided_on_the_irreducible_flats_of_families_past_two_words():
    for M, fails in _wide_families():
        f1 = brute_f1(M)
        assert bool(f1) == fails
        assert all(min(v.witnesses[0] & v.witnesses[1]) >= 128 for v in f1)
        _assert_f1_is_decided_on_the_irreducible_flats(M)


def test_the_exact_cover_pass_runs_only_on_families_the_declared_grades_do_not_decide(
    monkeypatch, pg32, del32, pg33, pg35, vamos_m, two_cover, direct_sum_u12, loop_fixture,
    looped_u44, rebuild,
):
    passes = _count_calls(monkeypatch, core, "_cover_violations")
    zoo = [pg32, del32, pg33, pg35, delete(pg35, {0, 1}), vamos_m, two_cover, direct_sum_u12]
    zoo += [loop_fixture, looped_u44, uniform(4, 8), uniform(4, 14), uniform(0, 2)]
    for M in zoo:
        assert verify_flat_axioms(rebuild(M)).passed
    skipping = rebuild(_SKIPPING_COVER)
    assert {v.axiom for v in verify_flat_axioms(skipping).violations} == {"F1"}
    assert not passes

    # The covers of ∅ miss 2: only F2 fails.  Grade 2 is empty, so the top
    # flat's longest chain has length 2: the grading fails.
    no_cover = Matroid(3, [[()], [{0}, {1}], [{0, 1, 2}]])
    gap = Matroid(3, [[()], [{0}, {1}, {2}], [], [{0, 1, 2}]])
    lines = rebuild(_LINES_MEET_IN_A_PAIR)
    for M, axioms in ((no_cover, {"F2"}), (gap, {"grading"}), (lines, {"F1"})):
        passes.clear()
        report = verify_flat_axioms(M)
        assert len(passes) == 1
        assert {v.axiom for v in report.violations} == axioms
        assert list(report.violations) == _capped(brute_flat_report(M))


def test_flat_axioms_scan_all_pairs_only_when_f1_fails(monkeypatch, pg33, pg35, vamos_m, rebuild):
    scans = _count_calls(monkeypatch, core, "_upper_cells")
    for M in (pg33, delete(pg35, {0, 1}), uniform(4, 8), vamos_m):
        assert verify_flat_axioms(rebuild(M)).passed
    assert not scans
    # The golden lattice of tests/test_cli.py fails F1.
    nested = Matroid(3, [[()], [{0, 1}, {2}], [{0}, {1, 2}], [{0, 1, 2}]])
    f1 = [v for v in verify_flat_axioms(nested).violations if v.axiom == "F1"]
    assert scans and f1 == brute_f1(nested)


def test_completion_scans_all_flat_pairs_once(monkeypatch, pg33, pg35):
    # Later matroids carry their passing flat reports, so their defects are counted.
    scans = _count_calls(monkeypatch, modularity, "_defective_pairs")
    for space in (pg33, pg35):
        scans.clear()
        outcome = complete_to_modular(delete(space, {0, 1}))
        assert outcome.ok and len(outcome.steps) == 2
        assert [args[1:] for args in scans].count(()) == 1


# -- the rank-4 report read off incidences ---------------------------------


def _assert_the_incidence_report_is_the_pair_table_report(M, rebuild):
    """A matroid that carries a passing flat report has the report and witness of the pair table.

    Equal means the same pairs with the same key order, the same total
    and the same flags in order.  The witness is asked for first, so it
    is read off incidences before the report is, and the pair table
    scans a copy that carries no flat report.
    """
    known, table = rebuild(M), rebuild(M)
    assert verify_flat_axioms(known).passed
    with pytest.MonkeyPatch.context() as patch:
        scans = _count_calls(patch, modularity, "_defective_pairs")
        witness = hypermodularity_witness(known) if M.rank >= 3 else None
        got = total_modular_defect(known)
    if M.rank == 4 and M.is_loopless:
        assert not scans
    want = total_modular_defect(table)
    assert list(got.pair_defects.items()) == list(want.pair_defects.items())
    assert (got.total, got.disjoint_flags) == (want.total, want.disjoint_flags)
    if M.rank >= 3:
        assert witness == hypermodularity_witness(table)
    return got


def test_the_incidence_report_is_the_pair_table_report_on_named_matroids(
    pg32, pg33, pg35, del32, del33ab, vamos_m, two_cover, direct_sum_u12, loop_fixture, rebuild
):
    spaces = {2: pg32, 3: pg33, 5: pg35}
    named = [pg32, pg33, del32, del33ab, vamos_m, two_cover, direct_sum_u12, loop_fixture]
    named += [uniform(4, n) for n in range(5, 10)]  # disjoint planes: defect 2
    named += [delete(spaces[q], S) for q, S in CASES]
    named += [delete(spaces[q], _ovoid(q)) for q in (3, 5)]
    # Without the points of a line the planes through it are disjoint;
    # without all but one, they meet in that point.
    for line in _lines(3)[::40]:
        named += [delete(pg33, line), delete(pg33, sorted(line)[1:])]
    # PG(3,2) with a point doubled: a parallel class.
    doubled = pg3_points(2).points
    named.append(matroid_from_points(PointConfig(2, 4, doubled + doubled[:1])))
    plane_defects = set()
    for M in named:
        report = _assert_the_incidence_report_is_the_pair_table_report(M, rebuild)
        planes = set(M.flats_by_rank[3]) if M.rank == 4 else set()
        plane_defects |= {d for (a, b), d in report.pair_defects.items() if {a, b} <= planes}
    assert plane_defects == {1, 2}


@settings(max_examples=150, deadline=None)
@given(M=_realized_families().filter(lambda M: M.rank == 4))
def test_the_incidence_report_is_the_pair_table_report_on_realized_families(rebuild, M):
    _assert_the_incidence_report_is_the_pair_table_report(M, rebuild)


# -- the incidence counts against brute force ----------------------------------


def _brute_plane_meets(M) -> tuple[int, int, int]:
    """Pairs of distinct planes whose common elements have brute rank 0, 1 and 2."""
    ranks: dict = {}
    tally = [0, 0, 0]
    for a, b in itertools.combinations(M.flats_by_rank[3], 2):
        meet = a & b
        if meet not in ranks:
            ranks[meet] = brute_rank(M, meet)
        tally[ranks[meet]] += 1
    return tally[0], tally[1], tally[2]


def _assert_the_counts_are_the_brute_counts(M, rebuild, summed):
    """The counts of a copy of M that carries a passing flat report, against brute force.

    The flags and the disjoint coplanar lines are ``brute_defect_identity``'s,
    and the plane pairs meeting in ∅, in a point and in a line are counted
    by the brute rank of their common elements.  When ``summed``, the total
    is the sum of ``brute_defect`` over all flat pairs and the verdict that
    of the brute scan of the corank-1 pairs; otherwise both are read off
    the brute counts.  Returns the counts.
    """
    known = rebuild(M)
    assert verify_flat_axioms(known).passed
    counts = modularity._incidence_counts(known)
    flags, coplanar = brute_defect_identity(M)
    apart, point, line = _brute_plane_meets(M)
    assert counts == (flags, coplanar, line, point, apart)
    if summed:
        flats = [f for grade in M.flats_by_rank for f in grade]
        total = sum(brute_defect(M, a, b) for a, b in itertools.combinations(flats, 2))
        planes = itertools.combinations(M.flats_by_rank[3], 2)
        hypermodular = not any(brute_defect(M, a, b) for a, b in planes)
    else:
        total, hypermodular = flags + coplanar + point + 2 * apart, apart + point == 0
    report = total_modular_defect(known)
    assert (report.total, report.flag_count) == (counts.total, flags) == (total, flags)
    assert counts.hypermodular == hypermodular == is_hypermodular(known)
    return counts


def test_the_counts_are_the_brute_counts_on_named_matroids(pg32, pg33, pg35, del32, del33ab, vamos_m, rebuild):
    # The brute sum over all flat pairs costs about 0.4 s at PG(3,3); it is
    # taken on the matroids of at most 150 flats and on PG(3,3) less two points.
    spaces = {2: pg32, 3: pg33, 5: pg35}
    named = [pg32, pg33, pg35, del32, del33ab, vamos_m]
    named += [uniform(4, n) for n in range(5, 10)]
    named += [delete(spaces[q], S) for q, S in CASES]
    named += [delete(spaces[q], _ovoid(q)) for q in (3, 5)]
    for line in _lines(3)[::40]:
        named += [delete(pg33, line), delete(pg33, sorted(line)[1:])]
    doubled = pg3_points(2).points
    named.append(matroid_from_points(PointConfig(2, 4, doubled + doubled[:1])))
    seen = set()
    for M in named:
        assert M.rank == 4 and M.is_loopless
        summed = len(M._flat_list) <= 150 or M is del33ab
        counts = _assert_the_counts_are_the_brute_counts(M, rebuild, summed)
        seen |= {name for name, n in counts._asdict().items() if n}
    assert seen == {"flags", "coplanar", "line_meets", "point_meets", "apart"}


@settings(max_examples=150, deadline=None)
@given(M=_realized_families().filter(lambda M: M.rank == 4))
def test_the_counts_are_the_brute_counts_on_realized_families(rebuild, M):
    _assert_the_counts_are_the_brute_counts(M, rebuild, summed=True)


def test_analyze_counts_u430_and_lists_nothing(monkeypatch, tmp_path, capsys):
    # U(4,30) has 4527 flats, within FLAT_LIMIT: its lines are the 435 pairs
    # and its planes the 4060 triples.  C(30,3)·C(27,2) = 1 425 060 flags, no
    # coplanar lines (two disjoint pairs span the top), 30·C(29,2)·C(27,2)/2
    # = 2 137 590 plane pairs meeting in a point and C(30,3)·C(27,3)/2
    # = 5 937 750 disjoint ones.  Listing them would take about 1 GB.
    path = tmp_path / "u430.mat"
    path.write_text(serialize_matroid(uniform(4, 30)))
    names = ("_walk_flags", "_defective_pairs", "disjoint_rank32_pairs")
    listings = [_count_calls(monkeypatch, modularity, name) for name in names]
    assert cli.main(["analyze", str(path), "--machine"]) == 0
    out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert out["total_defect"] == str(1_425_060 + 2_137_590 + 2 * 5_937_750) == "15438150"
    assert out["disjoint_flags"] == "1425060"
    assert out["hypermodular_witness"] == "({0,1,2},{0,3,4})"
    assert listings == [[]] * len(names)


def test_a_counted_report_keeps_no_reference_cycle(pg33):
    # A counted report keeps rows, not its matroid, and each listing builds
    # and drops its own lattice: with the collector off, dropping the last
    # reference to the matroid frees it, whatever was listed.
    D = parse_matroid(serialize_matroid(delete(pg33, {0, 1})))
    outcome = complete_to_modular(D)
    assert outcome.ok
    gc.disable()
    try:
        for M in (D, outcome.matroid):
            report = total_modular_defect(M)
            assert sum(report.pair_defects.values()) == report.total
            assert len(report.disjoint_flags) == report.flag_count
        refs = [weakref.ref(D), weakref.ref(outcome.matroid)]
        del D, M, outcome
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("q", [3, 5])
def test_a_parsed_completion_builds_no_pair_defects(monkeypatch, q, pg33, pg35):
    # A parsed input carries its passing flat report, so its defect report
    # and its hypermodularity witness are read off incidences.
    D = parse_matroid(serialize_matroid(delete({3: pg33, 5: pg35}[q], {0, 1})))
    scans = _count_calls(monkeypatch, modularity, "_defective_pairs")
    # modularity binds its own name for the block routine.
    blocks = [_count_calls(monkeypatch, owner, "_defect_block") for owner in (core, modularity)]
    outcome = complete_to_modular(D)
    assert outcome.ok and len(outcome.steps) == 2
    assert not scans and blocks == [[], []]


@pytest.mark.parametrize("verb", ["analyze", "arrangement"])
@pytest.mark.parametrize("q", [3, 5])
def test_an_analyzed_parsed_deletion_builds_no_up_set_columns(monkeypatch, tmp_path, q, verb, pg33, pg35):
    # F1 reads only the meet index, and the defect report, the witness and
    # the line connectivity verdict of a parsed deletion are read off
    # incidences, so no defect block asks for the pair table's up-set columns.
    path = tmp_path / "deletion.mat"
    path.write_text(serialize_matroid(delete({3: pg33, 5: pg35}[q], {0, 1})))
    loaded, load = [], cli._load
    monkeypatch.setattr(cli, "_load", lambda path: loaded.append(load(path)) or loaded[-1])
    assert cli.main([verb, str(path), "--machine"]) == 0
    (M,) = loaded
    assert "meet_index" in M._cache and "pair_table" not in M._cache


def test_flat_pair_r3_keeps_the_violation_cap():
    # Eight points whose joins all jump to grade 4: 28 pairs of defect -2.
    M = Matroid(8, [[()], [{e} for e in range(8)], [], [], [range(8)]])
    violations = list(verify_rank_axioms(M, trials=0).violations)
    assert violations == brute_flat_r3(M) == brute_flat_r3(M, cap=28)[:16]
    assert len(brute_flat_r3(M, cap=28)) == 28
