from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from hypermod import (
    Matroid,
    PointConfig,
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
    matroid_from_points,
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
    brute_components,
    brute_containment,
    brute_f1,
    brute_f2,
    brute_flat_verdict,
    brute_isomorphic,
    brute_rank,
    modp_span_members,
    pg_point_list,
    uniform_rank,
)
from test_modularity import _corrupt_or_mutated, _small_families


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


@pytest.mark.parametrize(
    "n, grades, message",
    [
        (-1, [[()]], "ground_size must be nonnegative"),
        (2, [], "at least one grade is required"),
        # Of two elements out of range, the smallest is named.
        (2, [[()], [{9, 5}], [{0, 1}]], "element 5 out of range for ground size 2"),
        (2, [[()], [{1, -3, 7}], [{0, 1}]], "element -3 out of range for ground size 2"),
    ],
)
def test_constructor_refusals_name_their_cause(n, grades, message):
    with pytest.raises(ValueError) as refused:
        Matroid(n, grades)
    assert str(refused.value) == message


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
        assert M._sup_bits == brute_containment(M)
        # and the flat axioms, which read the containment bits, against the walk
        report = verify_flat_axioms(M)
        assert report.passed == brute_flat_verdict(M)
        if not brute_f1(M):
            f2 = [v.witnesses for v in report.violations if v.axiom == "F2"]
            assert f2 == [v.witnesses[:2] for v in brute_f2(M)]


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


def test_rank_axioms_reject_negative_trials(pg32):
    with pytest.raises(ValueError, match="trials must be nonnegative, got -5"):
        verify_rank_axioms(pg32, trials=-5)
    assert verify_rank_axioms(pg32, trials=0).passed


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
def test_restrict_grades_are_longest_chains(
    pg32, pg33, vamos_m, loop_fixture, two_cover, del33ab, data
):
    zoo = [pg32, pg33, vamos_m, uniform(3, 6), loop_fixture, two_cover, del33ab]
    M = data.draw(st.sampled_from(zoo))
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


def test_contract_grades_by_rank_drop(pg32, pg33, vamos_m, loop_fixture, two_cover, del33ab):
    for M in (pg32, pg33, vamos_m, uniform(3, 6), loop_fixture, two_cover, del33ab):
        rank = {f: brute_rank(M, f) for g in M.flats_by_rank for f in g}
        for F in rank:
            C = contract(M, F)
            back = C.element_map
            assert back == tuple(e for e in range(M.ground_size) if e not in F)
            grades = {
                frozenset(back[e] for e in f): k for k, g in enumerate(C.flats_by_rank) for f in g
            }
            assert grades == {L - F: rank[L] - rank[F] for L in rank if F <= L}


def test_minors_make_no_closure_query(monkeypatch, pg33):
    calls = []
    closure_bits = Matroid._closure_bits

    def counted(M, mask):
        calls.append(mask)
        return closure_bits(M, mask)

    monkeypatch.setattr(Matroid, "_closure_bits", counted)
    restrict(pg33, range(0, 40, 3))
    restrict(pg33, pg33.flats_by_rank[3][0])
    delete(pg33, {0, 1})
    for grade in pg33.flats_by_rank:
        contract(pg33, grade[0])
    assert not calls


def _first_grade_family(ground: frozenset[int], graded) -> tuple[int, list, tuple[int, ...]]:
    """A minor's flats by definition: each set of ``graded`` re-indexed into ``ground``.

    ``graded`` lists ``(subset of ground, grade)`` pairs; a set listed
    twice keeps the grade it is first listed with.  Returns the ground
    size, the grades and the element map that the constructor takes.
    """
    elems = tuple(sorted(ground))
    first: dict[frozenset[int], int] = {}
    for subset, grade in graded:
        first.setdefault(subset, grade)
    grades: list[list[list[int]]] = [[] for _ in range(max(first.values()) + 1)]
    for subset, grade in first.items():
        grades[grade].append([i for i, e in enumerate(elems) if e in subset])
    return len(elems), grades, elems


def _assert_minor_is_the_family(minor, family, constructor_rows):
    """``minor()`` refuses the family as the constructor does, or builds it with exact rows.

    The rows are checked against the constructor and, since the
    constructor shares their builder, against the oracles: the up-sets
    are ``brute_containment``, each element row lists the flats holding
    the element, and each grade is an antichain.
    """
    n, grades, elems = family
    try:
        expected = Matroid(n, grades, element_map=elems)
    except ValueError as error:
        event("refused")
        with pytest.raises(ValueError) as refused:
            minor()
        assert str(refused.value) == str(error)
        return
    N = minor()
    assert N == expected and N.element_map == elems
    constructor_rows(N)
    flats = N._flat_list
    assert N._sup_bits == brute_containment(N)
    assert N._elem_flatbits == [
        sum(1 << i for i, f in enumerate(flats) if e in f) for e in range(N.ground_size)
    ]
    assert all(not f < g for grade in N.flats_by_rank for f in grade for g in grade)


@functools.cache
def _accepted_families(pg32, vamos_m):
    fano = restrict(pg32, pg32.flats_by_rank[3][0])
    zoo = [fano, vamos_m, uniform(3, 6), uniform(4, 7)]
    return st.one_of(_small_families(), _corrupt_or_mutated(pg32, vamos_m), st.sampled_from(zoo))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_restriction_of_any_accepted_family_is_its_first_grade_family(
    pg32, vamos_m, constructor_rows, data
):
    M = data.draw(_accepted_families(pg32, vamos_m))
    subset = data.draw(st.sets(st.integers(0, M.ground_size - 1), min_size=1))
    event("prefix" if subset == set(range(len(subset))) else "columns selected")
    graded = [(f & subset, k) for k, grade in enumerate(M.flats_by_rank) for f in grade]
    family = _first_grade_family(frozenset(subset), graded)
    _assert_minor_is_the_family(lambda: restrict(M, subset), family, constructor_rows)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_contraction_of_any_accepted_family_is_its_rank_drop_family(
    pg32, vamos_m, constructor_rows, data
):
    M = data.draw(_accepted_families(pg32, vamos_m))
    graded = [(f, k) for k, grade in enumerate(M.flats_by_rank) for f in grade]
    F, k = data.draw(st.sampled_from(graded))
    above = [(L, j) for L, j in graded if F <= L]
    if any(j < k for _, j in above):
        event("a flat above F has a lower grade")
        with pytest.raises(ValueError, match="a flat of lower grade"):
            contract(M, F)
        return
    family = _first_grade_family(M.ground_set - F, [(L - F, j - k) for L, j in above])
    _assert_minor_is_the_family(lambda: contract(M, F), family, constructor_rows)


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


def test_circuits_of_a_looped_matroid_are_its_loops(looped_u44):
    # U(4,4) plus the loop 4: {4} is the one circuit, of size 1, so it is
    # listed from max_size 1 on, and no set holding the loop is tried.
    assert circuits_up_to(looped_u44, 0) == []
    assert [circuits_up_to(looped_u44, k) for k in range(1, 6)] == [[frozenset({4})]] * 5
    with pytest.raises(ValueError, match=r"\Amax_size must be nonnegative\Z"):
        circuits_up_to(looped_u44, -1)


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


def test_components_match_the_oracle(pg32, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture):
    # Basis {0,1,2}: the stars of 0 and 1 are disjoint, and the star of 2
    # meets both, so one star merges two earlier blocks.
    diamond = matroid_from_points(
        PointConfig(prime=2, dim=3, points=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)))
    )
    fixtures = [pg32, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture, diamond]
    fixtures += [uniform(3, 3), uniform(0, 3), uniform(0, 2), uniform(2, 5), uniform(4, 4)]
    for M in fixtures:
        assert components(M).blocks == tuple(brute_components(M))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_components_of_minors_match_the_oracle(pg32, vamos_m, del33ab, data):
    M = data.draw(st.sampled_from([pg32, vamos_m, del33ab]))
    subset = data.draw(st.sets(st.integers(0, M.ground_size - 1), min_size=1, max_size=12))
    R = restrict(M, subset)
    flat = data.draw(st.sampled_from([f for g in R.flats_by_rank[:-1] for f in g]))
    for N in (R, contract(R, flat)):
        assert components(N).blocks == tuple(brute_components(N))


def test_is_nondegenerate_matches_the_oracle(two_cover, del32, vamos_m):
    for M in (two_cover, del32, vamos_m):
        kappa = len(brute_components(M))
        for grade in M.flats_by_rank:
            for f in grade:
                kr = len(brute_components(M, ground=f))
                kc = len(brute_components(M, contracted=f)) if f != M.ground_set else 1
                assert is_nondegenerate(M, f) == (kr + kc == kappa + 1)


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


def _relabelled(M, perm):
    return Matroid(M.ground_size, [[[perm[e] for e in f] for f in grade] for grade in M.flats_by_rank])


@st.composite
def _small_family(draw, n):
    """A matroid of ``n`` points over GF(2) or GF(3), or a rank-2 or rank-3 family the constructor accepts."""
    if draw(st.booleans()):
        p, dim = draw(st.sampled_from([2, 3])), draw(st.integers(2, 4))
        points = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * dim), min_size=n, max_size=n))
        points = [vec if any(vec) else (1,) + vec[1:] for vec in points]
        return matroid_from_points(PointConfig(prime=p, dim=dim, points=tuple(points)))
    r = draw(st.integers(2, 3))
    proper = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1)
    grades = [[()]] + [draw(st.lists(proper, max_size=6, unique=True)) for _ in range(r - 1)]
    try:
        return Matroid(n, grades + [[range(n)]])
    except ValueError:
        assume(False)


def _graph(n, edges):
    """The rank-2 family whose grade-1 flats are the edges of a graph on ``n`` vertices."""
    return Matroid(n, [[()], edges, [range(n)]])


@st.composite
def _iso_pairs(draw):
    """Two families on 3 to 7 elements.

    A family and a relabelling of it, two families, or two graphs with as
    many edges: graphs share a profile, so most such pairs are decided by
    the search.
    """
    n = draw(st.integers(3, 7))
    kind = draw(st.sampled_from(["relabelled", "two families", "two graphs"]))
    if kind == "relabelled":
        M = draw(_small_family(n))
        return M, _relabelled(M, draw(st.permutations(range(n))))
    if kind == "two families":
        return draw(_small_family(n)), draw(_small_family(n))
    pairs = list(itertools.combinations(range(n), 2))
    m = draw(st.integers(1, len(pairs)))
    edges = st.lists(st.sampled_from(pairs), min_size=m, max_size=m, unique=True)
    return _graph(n, draw(edges)), _graph(n, draw(edges))


# A 6-cycle and two triangles of 2-element flats: one profile, one colour
# for every element, and no isomorphism, so the search itself must refuse.
_CYCLE = _graph(6, [(e, (e + 1) % 6) for e in range(6)])
_TRIANGLES = _graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
# The same four 2-element flats with their grades swapped: the identity
# sends flats to flats but not to flats of their grade; swapping 1 and 2 does.
_HALVES = Matroid(4, [[()], [{0, 1}, {2, 3}], [{0, 2}, {1, 3}], [range(4)]])
_HALVES_SWAPPED = Matroid(4, [[()], [{0, 2}, {1, 3}], [{0, 1}, {2, 3}], [range(4)]])


@settings(max_examples=200, deadline=None)
@given(pair=_iso_pairs())
@example(pair=(_CYCLE, _TRIANGLES))
@example(pair=(_HALVES, _HALVES_SWAPPED))
@example(pair=(_TRIANGLES, _relabelled(_TRIANGLES, [5, 3, 1, 0, 2, 4])))
def test_isomorphism_matches_the_permutation_search(pair):
    M1, M2 = pair
    mapping = is_isomorphic(M1, M2)
    assert (mapping is not None) == brute_isomorphic(M1, M2)
    if profile(M1) == profile(M2):
        event("same profile, " + ("isomorphic" if mapping is not None else "not isomorphic"))
    if mapping is not None:
        assert sorted(mapping.values()) == list(range(M1.ground_size)) == sorted(mapping)
        for k, grade in enumerate(M1.flats_by_rank):
            for f in grade:
                assert frozenset(mapping[e] for e in f) in M2.flats_by_rank[k]
