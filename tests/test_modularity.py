from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypermod import (
    Matroid,
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
    modular_defect,
    pair_key,
    restrict,
    total_modular_defect,
    uniform,
    vamos,
)
from hypermod import modularity
from hypermod.modularity import (
    _defect_block,
    _defect_by_index,
    _defective_pairs,
    _pair_table_inputs,
)
from oracles import brute_defect

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


def test_total_defect_flag_invariants(del32):
    report = total_modular_defect(del32)
    from hypermod import rank_of

    for f3, f2 in report.disjoint_flags:
        assert not (f3 & f2)
        assert rank_of(del32, f3) == 3
        assert rank_of(del32, f2) == 2


def test_disjoint_pairs(pg32, del32):
    assert disjoint_rank32_pairs(pg32) == []
    flags = disjoint_rank32_pairs(del32)
    assert len(flags) == 28
    # each flag is a deleted plane (6 points) against a deleted line (2 points)
    assert {(len(f), len(l)) for f, l in flags} == {(6, 2)}
    with pytest.raises(ValueError, match="rank"):
        disjoint_rank32_pairs(uniform(3, 4))


def test_disjoint_pairs_requires_loopless(loop_fixture):
    # build a rank-4 matroid with a loop by contracting nothing useful;
    # simplest: a loop fixture is rank 1, so check the rank error instead
    with pytest.raises(ValueError):
        disjoint_rank32_pairs(loop_fixture)


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
        if M.rank < 3:
            continue
        tops = set(M.flats_by_rank[M.rank - 1])
        top_pairs = [(a, b) for a, b in positive if a in tops and b in tops]
        assert hypermodularity_witness(M) == (top_pairs[0] if top_pairs else None)
        if M.rank == 4 and M.is_loopless:
            violations = check_line_connectivity(M).violations
            assert [v.witnesses for v in violations] == top_pairs


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
        assert M._graded
        count = len(M._flat_list)
        # every cell, zeros and the diagonal included
        assert np.array_equal(_defect_block(M, 0, count, 0, count), _scalar_defects(M))
    # small row blocks, so every scan crosses block boundaries
    monkeypatch.setattr(modularity, "_BLOCK_CELLS", 40)
    for M in zoo:
        _assert_scan_matches_scalar(M)


def test_pair_table_up_sets_are_the_containment_by_grade(pg33, del33ab, vamos_m):
    for M in (pg33, del33ab, vamos_m, uniform(4, 6)):
        up_sets = _pair_table_inputs(M)[4]
        for k, grade in enumerate(M.flats_by_rank):
            for i, f in enumerate(M._flat_list):
                packed = int.from_bytes(up_sets[k][i].tobytes(), "little")
                assert packed == sum(1 << b for b, g in enumerate(grade) if f <= g)


def _count_scalar_calls(monkeypatch):
    calls = []

    def counted(M, i, j):
        calls.append((i, j))
        return _defect_by_index(M, i, j)

    monkeypatch.setattr(modularity, "_defect_by_index", counted)
    return calls


def test_pair_table_falls_back_per_pair_where_the_meet_is_no_flat(monkeypatch):
    # {0,1,2} and {1,2,3} meet in {1,2}, which is not a stored flat.
    M = Matroid(4, [[()], [{0}, {1}, {2}, {3}], [{0, 1, 2}, {1, 2, 3}], [{0, 1, 2, 3}]])
    assert M._graded
    calls = _count_scalar_calls(monkeypatch)
    assert np.array_equal(_defect_block(M, 0, 8, 0, 8), _scalar_defects(M))
    assert sorted(calls) == [(5, 6), (6, 5)]


def test_lattice_with_a_flat_nested_downward_is_scanned_pair_by_pair():
    # {0} has grade 2 but lies inside {0,1} of grade 1, so the closure of
    # {0} is {0,1}: a stored flat need not be its own closure.  The same
    # lattice with {0} moved to grade 1 is graded and takes the table.
    nested = Matroid(3, [[()], [{0, 1}, {2}], [{0}, {1, 2}], [{0, 1, 2}]])
    repaired = Matroid(3, [[()], [{0}, {1}, {2}], [{0, 1}, {1, 2}], [{0, 1, 2}]])
    assert [M._graded for M in (nested, repaired)] == [False, True]
    for M in (nested, repaired):
        _assert_scan_matches_scalar(M)


def test_pair_table_survives_hash_collisions(monkeypatch, pg32):
    # Every mask hashes alike, so each lookup lands on one flat and the
    # word check must send every other meet to the scalar routine.  The
    # matroids are built here, so no lookup table is cached yet.
    monkeypatch.setattr(modularity, "_mix", lambda h: h & np.uint64(0))
    calls = _count_scalar_calls(monkeypatch)
    for M in (delete(pg32, {0}), vamos(), uniform(3, 6)):
        calls.clear()
        count = len(M._flat_list)
        assert np.array_equal(_defect_block(M, 0, count, 0, count), _scalar_defects(M))
        assert calls


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pair_table_matches_scalar_on_random_deletions(pg32, pg33, vamos_m, data):
    base = data.draw(st.sampled_from([pg32, pg33, vamos_m, uniform(3, 6)]))
    removed = data.draw(
        st.lists(st.integers(0, base.ground_size - 1), min_size=1, max_size=2, unique=True)
    )
    M = delete(base, set(removed))
    assert M._graded
    _assert_scan_matches_scalar(M)
