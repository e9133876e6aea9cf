from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hypermod import (
    Matroid,
    circuits_up_to,
    closure,
    components,
    contract,
    delete,
    flats_of_rank,
    is_hypermodular,
    is_inseparable,
    is_isomorphic,
    is_modular,
    is_nondegenerate,
    pg3,
    profile,
    rank_of,
    restrict,
    uniform,
    verify_flat_axioms,
    verify_rank_axioms,
)
from oracles import (
    brute_chain_lengths,
    brute_closure,
    brute_containment,
    brute_rank,
    modp_span_members,
    pg_point_list,
    uniform_rank,
)


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="top grade"):
        Matroid(3, [[frozenset()], [{0, 1}]])
    with pytest.raises(ValueError, match="grade 0"):
        Matroid(2, [[frozenset(), {0}], [{0, 1}]])
    with pytest.raises(ValueError, match="out of range"):
        Matroid(2, [[frozenset()], [{5}], [{0, 1}]])
    with pytest.raises(ValueError, match="duplicate"):
        Matroid(2, [[frozenset()], [{0}, {0}], [{0, 1}]])
    with pytest.raises(ValueError, match="incomparable"):
        Matroid(3, [[frozenset()], [{0}, {0, 1}], [{0, 1, 2}]])


# ---------------------------------------------------------------------------
# closure / rank / flats
# ---------------------------------------------------------------------------


def test_closure_loopless_empty(pg32):
    assert closure(pg32, ()) == frozenset()


def test_closure_uniform_oracle():
    u23 = uniform(2, 3)
    assert closure(u23, {0, 1}) == frozenset({0, 1, 2})
    u34 = uniform(3, 4)
    for size in range(5):
        for sub in itertools.combinations(range(4), size):
            assert rank_of(u34, sub) == uniform_rank(sub, 3)


def test_closure_pg32_pairs_are_lines(pg32):
    pts = pg_point_list(2)
    for pair in itertools.combinations(range(15), 2):
        line = closure(pg32, pair)
        assert len(line) == 3
        assert line == modp_span_members(pts, pair, 2)


def test_closure_matches_brute_force(pg32, del32, vamos_m):
    import random

    rng = random.Random(5)
    for M in (pg32, del32, vamos_m):
        for _ in range(100):
            sub = frozenset(rng.sample(range(M.ground_size), rng.randint(0, 4)))
            assert closure(M, sub) == brute_closure(M, sub)
            assert rank_of(M, sub) == brute_rank(M, sub)


def test_rank_of_full_set(pg32, vamos_m):
    for M in (pg32, vamos_m):
        assert rank_of(M, M.ground_set) == M.rank


def test_rank_of_line_plus_point(pg32):
    line = flats_of_rank(pg32, 2)[0]
    off = min(pg32.ground_set - line)
    assert rank_of(pg32, line | {off}) == 3


def test_rank_of_out_of_range(pg32):
    with pytest.raises(ValueError, match="out of range"):
        rank_of(pg32, {99})


def test_flats_of_rank(pg32):
    assert len(flats_of_rank(pg32, 2)) == 35
    assert flats_of_rank(pg32, 4) == (pg32.ground_set,)
    u34 = uniform(3, 4)
    assert flats_of_rank(u34, 1) == tuple(frozenset([e]) for e in range(4))
    with pytest.raises(ValueError, match="grade"):
        flats_of_rank(pg32, 5)


def test_flats_canonical_order(pg32):
    for grade in pg32.flats_by_rank:
        keys = [tuple(sorted(f)) for f in grade]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def test_flat_axioms_pass_on_fixtures(pg32, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture):
    for M in (pg32, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture, uniform(1, 3)):
        report = verify_flat_axioms(M)
        assert report.passed, report.violations[:3]


def test_flat_axioms_detect_missing_line(pg32):
    grades = [list(g) for g in pg32.flats_by_rank]
    removed = grades[2].pop(0)
    mutated = Matroid(15, grades)
    report = verify_flat_axioms(mutated)
    assert not report.passed
    axioms = {v.axiom for v in report.violations}
    assert "F2" in axioms
    # the removed line is the intersection of the planes through it
    assert "F1" in axioms
    assert all(v.witnesses for v in report.violations)


def test_flat_axioms_detect_bad_grading():
    # {0,1} declared at grade 2 although its chain length is 1
    M = Matroid(3, [[frozenset()], [{2}], [{0, 1}], [{0, 1, 2}]])
    report = verify_flat_axioms(M)
    assert not report.passed
    assert any(v.axiom == "grading" for v in report.violations)


def test_containment_bits_match_brute_force(
    pg32, pg33, del32, del33ab, vamos_m, two_cover, direct_sum_u12, loop_fixture
):
    grades = [list(g) for g in pg32.flats_by_rank]
    grades[2].pop(0)
    corrupt = [
        Matroid(15, grades),  # a missing line
        Matroid(3, [[frozenset()], [{2}], [{0, 1}], [{0, 1, 2}]]),  # bad grading
        Matroid(3, [[()], [{0, 1}, {2}], [{0}, {1, 2}], [{0, 1, 2}]]),  # {0} below {0,1}
    ]
    zoo = [pg32, pg33, del32, del33ab, vamos_m, two_cover, direct_sum_u12, loop_fixture]
    for M in zoo + [uniform(3, 6), uniform(0, 2)] + corrupt:
        sup = brute_containment(M)
        assert M._sup_bits == sup
        grade = [k for k, g in enumerate(M.flats_by_rank) for _ in g]
        strict = [(i, j) for i, up in enumerate(sup) for j in range(len(sup)) if j != i and up >> j & 1]
        assert M._graded == all(grade[i] < grade[j] for i, j in strict)
    assert [M._graded for M in corrupt] == [True, True, False]


def test_rank_axioms_exhaustive_uniform():
    report = verify_rank_axioms(uniform(3, 4), mode="exhaustive")
    assert report.passed


def test_rank_axioms_sampled_pg32(pg32):
    report = verify_rank_axioms(pg32, mode="sampled", seed=1, trials=10000)
    assert report.passed


def test_rank_axioms_r1_violation():
    # a two-element set parked at grade 3: its rank exceeds its size
    M = Matroid(3, [[frozenset()], [{2}], [], [{0, 1}], [{0, 1, 2}]])
    report = verify_rank_axioms(M, mode="exhaustive")
    assert not report.passed
    assert any(v.axiom == "R1" for v in report.violations)


def test_rank_axioms_exhaustive_rejects_large(pg32):
    with pytest.raises(ValueError, match="exhaustive"):
        verify_rank_axioms(pg32, mode="exhaustive")
    with pytest.raises(ValueError, match="mode"):
        verify_rank_axioms(pg32, mode="everything")


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------


def test_restrict_identity(pg32):
    M = restrict(pg32, pg32.ground_set)
    assert M == pg32
    assert M.element_map == tuple(range(15))


def test_restrict_plane_is_fano(pg32):
    plane = flats_of_rank(pg32, 1 + 2)[0]
    assert len(plane) == 7
    fano = restrict(pg32, plane)
    assert profile(fano).counts == (1, 7, 7, 1)
    assert verify_flat_axioms(fano).passed


def test_restrict_uniform():
    u34 = uniform(3, 4)
    assert restrict(u34, {0, 1}) == uniform(2, 2)
    with pytest.raises(ValueError, match="empty"):
        restrict(u34, ())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_restrict_grades_are_longest_chains(pg32, pg33, vamos_m, data):
    M = data.draw(st.sampled_from([pg32, pg33, vamos_m, uniform(3, 6)]))
    subset = frozenset(data.draw(st.sets(st.integers(0, M.ground_size - 1), min_size=1)))
    R = restrict(M, subset)
    back = R.element_map
    grades = {frozenset(back[e] for e in f): k for k, g in enumerate(R.flats_by_rank) for f in g}
    assert grades == brute_chain_lengths(f & subset for g in M.flats_by_rank for f in g)


def test_delete_identity_and_small(pg32):
    assert delete(pg32, ()) == pg32
    assert delete(uniform(2, 3), {2}) == uniform(2, 2)
    with pytest.raises(ValueError, match="whole ground"):
        delete(uniform(2, 3), {0, 1, 2})


def test_delete_point_census(pg32, del32):
    assert profile(del32).counts == (1, 14, 35, 15, 1)
    sizes = sorted(len(f) for f in del32.flats_by_rank[2])
    assert sizes.count(2) == 7 and sizes.count(3) == 28
    assert verify_flat_axioms(del32).passed


def test_contract_bottom_identity(pg32):
    assert contract(pg32, closure(pg32, ())) == pg32


def test_contract_point_is_fano(pg32):
    fano = contract(pg32, {0})
    assert profile(fano).counts == (1, 7, 7, 1)
    assert fano.element_map == tuple(range(1, 15))
    assert verify_flat_axioms(fano).passed


def test_contract_requires_flat(pg32):
    line = flats_of_rank(pg32, 2)[0]
    nonflat = frozenset(list(line)[:2])
    with pytest.raises(ValueError, match="not a flat"):
        contract(pg32, nonflat)


def test_contract_grading(pg32):
    for k, grade in enumerate(pg32.flats_by_rank):
        for f in grade[:3]:
            assert contract(pg32, f).rank == pg32.rank - k
    u34 = uniform(3, 4)
    for grade in u34.flats_by_rank:
        for f in grade:
            assert contract(u34, f).rank == u34.rank - rank_of(u34, f)


def test_contract_rank1_of_hypermodular_is_modular(pg32, del32):
    for M in (pg32, del32):
        for f in M.flats_by_rank[1]:
            q = contract(M, f)
            assert q.rank == 3
            assert is_hypermodular(q)
            assert is_modular(q)


# ---------------------------------------------------------------------------
# circuits / connectivity / degeneracy
# ---------------------------------------------------------------------------


def test_circuits_small():
    assert circuits_up_to(uniform(2, 3), 3) == [frozenset({0, 1, 2})]
    assert circuits_up_to(uniform(3, 3), 4) == []


def test_circuits_pg32_lines(pg32):
    three = circuits_up_to(pg32, 3)
    assert set(three) == set(flats_of_rank(pg32, 2))


def test_components(pg32, direct_sum_u12, loop_fixture):
    assert components(pg32).kappa == 1
    part = components(direct_sum_u12)
    assert part.kappa == 2
    assert part.blocks == (frozenset({0, 1}), frozenset({2, 3}))
    part = components(loop_fixture)
    assert frozenset({2}) in part.blocks
    assert part.kappa == 2
    assert components(uniform(3, 3)).kappa == 3  # free: all coloops


def test_component_ranks_add_up(pg32, del32, direct_sum_u12, loop_fixture, vamos_m):
    for M in (pg32, del32, direct_sum_u12, loop_fixture, vamos_m):
        part = components(M)
        assert sum(rank_of(M, b) for b in part.blocks) == M.rank


def test_is_nondegenerate_single_element(pg32):
    assert is_inseparable(pg32)
    assert is_nondegenerate(pg32, {0})


def test_two_cover_degenerate_point(two_cover):
    # lines {0,1,2} and {2,3,4} cover the fixture and share exactly 2
    assert two_cover.rank == 3
    assert is_inseparable(two_cover)
    assert rank_of(two_cover, {0, 1, 2}) == 2
    assert rank_of(two_cover, {2, 3, 4}) == 2
    assert not is_nondegenerate(two_cover, {2})
    for f in two_cover.flats_by_rank[1]:
        assert is_nondegenerate(two_cover, f) == (f != frozenset({2}))
    # and such a matroid is never hypermodular
    assert not is_hypermodular(two_cover)


def test_is_nondegenerate_full_set_convention(pg32):
    # kappa(restriction to E) = kappa(M) and the empty contraction counts as 1
    assert is_nondegenerate(pg32, pg32.ground_set)


# ---------------------------------------------------------------------------
# profile / isomorphism
# ---------------------------------------------------------------------------


def test_profile(pg32):
    assert profile(pg32).counts == (1, 15, 35, 15, 1)
    assert profile(uniform(3, 4)).counts == (1, 4, 6, 1)
    assert profile(delete(pg32, ())) == profile(pg32)


def test_isomorphic_identity(pg32):
    mapping = is_isomorphic(pg32, pg32)
    assert mapping is not None


def test_isomorphic_deletions(pg32):
    a = delete(pg32, {0})
    b = delete(pg32, {7})
    mapping = is_isomorphic(a, b)
    assert mapping is not None
    # mapping must carry flats to flats of the same grade
    for k, grade in enumerate(a.flats_by_rank):
        for f in grade:
            image = frozenset(mapping[e] for e in f)
            assert image in b.flats_by_rank[k]


def test_isomorphic_profile_mismatch(pg32):
    assert is_isomorphic(pg32, uniform(4, 15)) is None


def test_isomorphic_rejects_large(pg33):
    with pytest.raises(ValueError, match="profiles"):
        is_isomorphic(pg33, pg33)


def test_not_isomorphic_same_size():
    assert is_isomorphic(uniform(2, 4), uniform(3, 4)) is None
