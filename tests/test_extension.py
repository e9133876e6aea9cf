from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from hypermod import (
    ExtensionContext,
    InternalConsistencyError,
    Matroid,
    build_context,
    complete_to_modular,
    components,
    contract,
    criterion_holds,
    delete,
    disjoint_rank32_pairs,
    extend_once,
    first_extendable_flag,
    flats_of_rank,
    hypermodularity_witness,
    is_hypermodular,
    is_inseparable,
    is_isomorphic,
    is_modular,
    join_spectrum,
    modular_defect,
    parse_matroid,
    pg3,
    profile,
    rank_of,
    restrict,
    serialize_matroid,
    total_modular_defect,
    uniform,
    verify_flat_axioms,
    verify_star_structure,
)
from hypermod import core, extension, modularity
from hypermod.core import flat_key
import oracles
from oracles import (
    brute_context,
    brute_criterion,
    brute_flat_verdict,
    brute_join_spectrum,
    brute_star_violations,
)
from test_modularity import _realized_families, _small_families

# Pinned by the defect oracle: deleting two points of PG(3,3) costs 195
# per point (117 plane/line pairs plus 78 line pairs through it).
PG33_TWO_POINT_DEFECT = 390
PG33_ONE_POINT_DEFECT = 195


@pytest.fixture(scope="module")
def del32_context(del32):
    f3, f2 = disjoint_rank32_pairs(del32)[0]
    return build_context(del32, f3, f2)


# ---------------------------------------------------------------------------
# context construction
# ---------------------------------------------------------------------------


def test_context_shape(del32, del32_context):
    ctx = del32_context
    assert ctx.pencil_size == 3
    assert len(ctx.traces) == 4
    assert ctx.traces[0] == ctx.flat2
    # traces beyond the first tile the flag's rank-3 flat in rank-2 pieces
    union = frozenset().union(*ctx.traces[1:])
    assert union == ctx.flat3
    for t in ctx.traces[1:]:
        assert rank_of(del32, t) == 2
    assert len(ctx.cross_lines) == 3
    assert len(ctx.star_lines) == 7
    assert len(ctx.star_planes) == 7
    # star lines are the deleted point's lines (2 points each), star
    # planes its planes (6 points each)
    assert all(len(j) == 2 for j in ctx.star_lines)
    assert all(len(x) == 6 for x in ctx.star_planes)


def test_context_on_every_flag(del32):
    for f3, f2 in disjoint_rank32_pairs(del32):
        ctx = build_context(del32, f3, f2)
        assert ctx.pencil_size == 3
        assert frozenset().union(*ctx.pencil) == del32.ground_set
        residues = [a - ctx.flat2 for a in ctx.pencil]
        for i in range(len(residues)):
            for j in range(i + 1, len(residues)):
                assert not (residues[i] & residues[j])
        for a in ctx.pencil:
            assert a - (ctx.flat3 | ctx.flat2)


def test_context_connectivity_facts(del32, del32_context):
    ctx = del32_context
    assert is_inseparable(del32)
    assert is_inseparable(restrict(del32, ctx.flat3))
    for a in ctx.pencil:
        assert is_inseparable(restrict(del32, a))


def test_context_rejects_bad_input(pg32, del32, vamos_m):
    f3 = flats_of_rank(del32, 3)[0]
    inside = next(l for l in flats_of_rank(del32, 2) if l <= f3)
    with pytest.raises(ValueError, match="disjoint"):
        build_context(del32, f3, inside)
    with pytest.raises(ValueError, match="rank 4"):
        build_context(uniform(3, 4), {0}, {1})
    with pytest.raises(ValueError, match="hypermodular"):
        build_context(vamos_m, frozenset({0, 2, 4}), frozenset({1, 3}))
    line = flats_of_rank(pg32, 2)[0]
    # {0,1,3} is independent in PG(3,2), so it is not a flat
    with pytest.raises(ValueError, match="not a flat"):
        build_context(pg32, frozenset({0, 1, 3}), line)


def test_star_lines_region(del32, del32_context):
    ctx = del32_context
    flag = ctx.flat3 | ctx.flat2
    for j in ctx.cross_lines:
        assert not (j & flag)
    assert set(ctx.star_lines) == set(ctx.cross_lines) | set(ctx.traces)


def test_star_planes_contain_flag_members(del32, del32_context):
    ctx = del32_context
    assert ctx.flat3 in ctx.star_planes
    for a in ctx.pencil:
        assert a in ctx.star_planes


def test_join_spectrum(del32, del32_context):
    ctx = del32_context
    # self-join sits in the spectrum at the flat's own rank
    assert ctx.flat2 in join_spectrum(del32, ctx.flat2, ctx.traces, 2)
    # beyond the matroid rank the spectrum is empty
    assert join_spectrum(del32, ctx.cross_lines[0], ctx.traces, 5) == set()
    # pinned by the span oracle: the four trace joins of a cross line
    # produce exactly 3 distinct rank-3 flats (two coincide)
    assert len(join_spectrum(del32, ctx.cross_lines[0], ctx.traces, 3)) == 3
    three_line = next(l for l in flats_of_rank(del32, 2) if len(l) == 3)
    nonflat = frozenset(sorted(three_line)[:2])
    with pytest.raises(ValueError, match="not a flat"):
        join_spectrum(del32, nonflat, ctx.traces, 3)


# ---------------------------------------------------------------------------
# criterion and star structure
# ---------------------------------------------------------------------------


def test_criterion_holds_on_deletion(del32):
    for f3, f2 in disjoint_rank32_pairs(del32):
        ctx = build_context(del32, f3, f2)
        verdict = criterion_holds(del32, ctx)
        assert verdict.holds and verdict.witness is None
        report = verify_star_structure(del32, ctx)
        assert report.passed, report.violations[:3]


def test_criterion_witness_on_tampered_context(del32, del32_context):
    ctx = dataclasses.replace(del32_context, star_planes=del32_context.star_planes[1:])
    verdict = criterion_holds(del32, ctx)
    assert not verdict.holds
    a, b = verdict.witness
    assert a in ctx.star_lines and b in ctx.star_lines
    from hypermod import closure

    assert closure(del32, a | b) not in set(ctx.star_planes)
    with pytest.raises(ValueError, match="criterion"):
        verify_star_structure(del32, ctx)


def test_star_partition(del32, del32_context):
    ctx = del32_context
    seen = set()
    for line in ctx.star_lines:
        assert not (seen & line)
        seen |= line
    assert frozenset(seen) == del32.ground_set
    # every star plane is a union of exactly 3 star lines
    for x in ctx.star_planes:
        inside = [j for j in ctx.star_lines if j <= x]
        assert len(inside) == 3
        assert frozenset().union(*inside) == x


# Disjoint flags per fixture, so that every flag is seen to be compared.
ORACLE_FLAGS = {"del32": 28, "del33a": 117, "del33ab": 234}


@pytest.mark.parametrize("name", sorted(ORACLE_FLAGS))
def test_extension_layer_matches_the_frozenset_oracle(name, request, monkeypatch):
    """Contexts, verdicts, witnesses, star reports and join spectra on every flag.

    Each context is also checked with its first star plane, its last star
    plane or its first star line dropped, and with one more line among
    the star lines and every plane and the top flat among the star planes,
    which passes the criterion but breaks the star structure.
    Frozensets compare by value.  The oracles' closures are memoized:
    flags share most of their joins.
    """
    monkeypatch.setattr(oracles, "brute_closure", functools.cache(oracles.brute_closure))
    M = request.getfixturevalue(name)
    flags = disjoint_rank32_pairs(M)
    assert len(flags) == ORACLE_FLAGS[name]
    failed_verdicts = 0
    reported = set()
    for f3, f2 in flags:
        ctx = build_context(M, f3, f2)
        expected = brute_context(M, f3, f2)
        assert {field: getattr(ctx, field) for field in expected} == expected
        # The star lines partition the ground set, so any other line meets one.
        other = next(x for x in flats_of_rank(M, 2) if x not in ctx.star_lines)
        variants = (
            ctx,
            dataclasses.replace(ctx, star_planes=ctx.star_planes[1:]),
            dataclasses.replace(ctx, star_planes=ctx.star_planes[:-1]),
            dataclasses.replace(ctx, star_lines=ctx.star_lines[1:]),
            dataclasses.replace(
                ctx,
                star_lines=ctx.star_lines + (other,),
                star_planes=flats_of_rank(M, 3) + (M.ground_set,),
            ),
        )
        for variant in variants:
            verdict = criterion_holds(M, variant)
            assert tuple(verdict) == brute_criterion(M, variant.star_lines, variant.star_planes)
            failed_verdicts += not verdict.holds
            if not verdict.holds:
                with pytest.raises(ValueError, match="criterion does not hold") as expected_error:
                    brute_star_violations(M, variant)
                with pytest.raises(ValueError, match="criterion does not hold") as error:
                    verify_star_structure(M, variant)
                assert str(error.value) == str(expected_error.value)
                continue
            report = verify_star_structure(M, variant)
            violations = brute_star_violations(M, variant)
            assert report.violations == tuple(violations)
            assert report.passed == (not violations)
            reported |= {v.axiom for v in report.violations}
        for x in ctx.star_lines:
            for k in (2, 3, 4):
                assert join_spectrum(M, x, ctx.traces, k) == brute_join_spectrum(M, x, ctx.traces, k)
    # every star plane is a join of star lines, so dropping one breaks the
    # criterion; dropping a star line never does
    assert failed_verdicts == 2 * len(flags)
    assert {"star-planes-equality", "star-lines-disjoint", "line-in-plane-dichotomy"} <= reported


# Unverified rank-4 families around the flag ({2,...,7}, {0,1}): the planes
# through {0,1} meet {2,...,7} in the lines {2,3}, {4,5} and {6,7}, and each
# adds a point of its own.  Every two planes meet in a set whose closure is a
# line, so each family is hypermodular, though none passes the flat axioms.
_PLANES = [range(2, 8), {0, 1, 2, 3, 8}, {0, 1, 4, 5, 9}, {0, 1, 6, 7, 10}]
_LINES = [{0, 1}, {2, 3}, {4, 5}, {6, 7}]


def _around_the_flag(n, planes, lines, pointless=()):
    """The family with these planes and lines, and every element a point but those ``pointless``."""
    points = [{e} for e in range(n) if e not in pointless]
    return Matroid(n, [[()], points, lines, planes, [range(n)]])


@pytest.mark.parametrize(
    "M, message",
    [
        # The line through 2 and 3 holds 11 too, so the trace {2,3} is no flat.
        (
            _around_the_flag(12, _PLANES, [{0, 1}, {2, 3, 11}, {4, 5}, {6, 7}]),
            "pencil member [0, 1, 2, 3, 8] meets the flag's rank-3 flat in a non-flat",
        ),
        (_around_the_flag(11, _PLANES[:3], _LINES), "pencil has 2 members, expected at least 3"),
        (
            _around_the_flag(11, [*_PLANES[:1], {0, 1, 2, 3}, *_PLANES[2:]], _LINES),
            "pencil member [0, 1, 2, 3] adds nothing beyond the flag",
        ),
        # Element 11 lies on no plane.
        (_around_the_flag(12, _PLANES, _LINES), "pencil does not cover the ground set"),
        # The plane {2,3,9,10} holds the trace {2,3} but no other star line:
        # it meets the pencil in 9 and 10, whose closures {9,11} and {10,12}
        # join one trace each at rank 3, so neither is a cross line.
        (
            _around_the_flag(
                13,
                [range(2, 8), {0, 1, 2, 3, 8}, {0, 1, 4, 5, 9, 11}, {0, 1, 6, 7, 10, 12}, {2, 3, 9, 10}],
                _LINES + [{9, 11}, {10, 12}],
                pointless=(9, 10),
            ),
            "a star plane is not a join of two star lines",
        ),
    ],
    ids=["trace", "pencil", "residue", "cover", "join"],
)
def test_context_checks_refuse_crafted_families(M, message):
    flag = (frozenset(range(2, 8)), frozenset({0, 1}))
    assert is_hypermodular(M) and not verify_flat_axioms(M).passed
    assert build_context(_around_the_flag(11, _PLANES, _LINES), *flag).pencil_size == 3
    with pytest.raises(InternalConsistencyError) as error:
        build_context(M, *flag)
    assert str(error.value) == message


def test_star_structure_rejects_a_trace_that_is_no_flat(del32, del32_context):
    # The criterion reads only star lines and planes, so the bad trace reaches the outside-line check.
    three_line = next(l for l in flats_of_rank(del32, 2) if len(l) == 3)
    nonflat = frozenset(sorted(three_line)[:2])
    ctx = dataclasses.replace(del32_context, traces=del32_context.traces + (nonflat,))
    assert criterion_holds(del32, ctx).holds
    with pytest.raises(ValueError, match="not a flat"):
        verify_star_structure(del32, ctx)


def test_context_of_another_matroid_is_rejected(pg32):
    built_on = delete(pg32, {0})
    other = delete(pg32, {1})
    assert built_on.ground_size == other.ground_size and built_on != other
    for f3, f2 in disjoint_rank32_pairs(built_on):
        ctx = build_context(built_on, f3, f2)
        for check in (criterion_holds, verify_star_structure, extend_once):
            with pytest.raises(ValueError, match="context was built for a different matroid"):
                check(other, ctx)


# ---------------------------------------------------------------------------
# extending
# ---------------------------------------------------------------------------


def test_extend_once(del32, del32_context, pg32):
    result = extend_once(del32, del32_context)
    ext = result.extended
    assert result.new_element == 14
    assert profile(ext).counts == (1, 15, 35, 15, 1)
    assert restrict(ext, range(14)) == del32
    assert result.defect_before == 49 and result.defect_after == 0
    assert total_modular_defect(ext).total == 0
    assert is_hypermodular(ext)
    assert verify_flat_axioms(ext).passed
    assert is_isomorphic(ext, pg32) is not None
    assert profile(contract(ext, {14})).counts == (1, 7, 7, 1)
    assert set(result.enlarged) == set(del32_context.star_lines) | set(
        del32_context.star_planes
    )


def test_extend_repairs_the_flag(del32, del32_context):
    result = extend_once(del32, del32_context)
    new = frozenset([result.new_element])
    ext = result.extended
    assert modular_defect(ext, del32_context.flat3 | new, del32_context.flat2 | new) == 0


def test_extend_requires_criterion(del32, del32_context):
    ctx = dataclasses.replace(del32_context, star_planes=del32_context.star_planes[1:])
    with pytest.raises(ValueError, match="criterion"):
        extend_once(del32, ctx)


def test_criterion_errors_print_the_witness_sorted(pg33):
    # The witness lines are frozensets whose repr order depends on how
    # each set was built; the message prints them as sorted lists.
    M = delete(pg33, {0, 1, 13})
    ctx = build_context(M, frozenset(range(11)), {11, 14, 17})
    ctx = dataclasses.replace(ctx, star_planes=ctx.star_planes[:-1])
    for check in (extend_once, verify_star_structure):
        with pytest.raises(ValueError) as error:
            check(M, ctx)
        assert str(error.value) == "criterion does not hold; witness ([4, 7, 10], [13, 16])"


def test_extend_detects_corrupt_star(del32, del32_context):
    # dropping a star line breaks the constructed lattice; the
    # post-construction verification must catch it rather than return
    ctx = dataclasses.replace(del32_context, star_lines=del32_context.star_lines[1:])
    with pytest.raises((InternalConsistencyError, ValueError)):
        extend_once(del32, ctx)


# ---------------------------------------------------------------------------
# the local step against full re-verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,steps", [("del32", 1), ("del33a", 1), ("del33ab", 2)])
def test_every_completion_step_matches_the_reverified_extension(
    name, steps, request, monkeypatch, check_local_step
):
    taken = []

    def checked(M, ctx):
        result = check_local_step(M, ctx)
        assert isinstance(result, extension.ExtensionResult), result
        taken.append(result)
        return result

    monkeypatch.setattr(extension, "extend_once", checked)
    outcome = complete_to_modular(request.getfixturevalue(name))
    assert outcome.ok and len(taken) == len(outcome.steps) == steps
    assert taken[-1].extended is outcome.matroid


def test_tampered_contexts_fail_as_the_reverified_extension_does(del33ab, check_local_step):
    f3, f2 = disjoint_rank32_pairs(del33ab)[0]
    ctx = build_context(del33ab, f3, f2)
    line = next(x for x in flats_of_rank(del33ab, 2) if x not in ctx.star_lines)
    plane = next(x for x in flats_of_rank(del33ab, 3) if x not in ctx.star_planes)
    cross = ctx.cross_lines[0]
    variants = [
        dataclasses.replace(ctx, star_planes=ctx.star_planes[1:]),
        dataclasses.replace(ctx, star_lines=tuple(sorted(ctx.star_lines + (line,), key=flat_key))),
        dataclasses.replace(
            ctx,
            cross_lines=ctx.cross_lines[1:],
            star_lines=tuple(x for x in ctx.star_lines if x != cross),
        ),
        # The criterion reads joins of star lines only, so a foreign plane reaches the lattice.
        dataclasses.replace(ctx, star_planes=tuple(sorted(ctx.star_planes + (plane,), key=flat_key))),
    ]
    outcomes = [check_local_step(del33ab, variant) for variant in variants]
    assert [kind for kind, _ in outcomes] == [
        ValueError, ValueError, InternalConsistencyError, InternalConsistencyError
    ]


def test_enlarged_lists_the_flats_that_gained_the_new_element(del32, del32_context, check_local_step):
    # The criterion reads the star planes only as joins to look up, so a line
    # among them reaches extend_once, which adds m to planes alone.
    line = next(x for x in flats_of_rank(del32, 2) if x not in del32_context.star_lines)
    star = set(del32_context.star_lines) | set(del32_context.star_planes)
    planes = tuple(sorted(del32_context.star_planes + (line,), key=flat_key))
    result = check_local_step(del32, dataclasses.replace(del32_context, star_planes=planes))
    assert isinstance(result, extension.ExtensionResult), result
    assert len(star) == 14
    assert result.enlarged == tuple(sorted(star, key=flat_key))


def test_completion_checks_the_flat_axioms_of_its_input_only(monkeypatch, pg33, pg35):
    # Every extension's flat axioms are proved on its star.  A parsed input
    # was checked when it was parsed; a built one is checked by the first
    # step, which keeps the report it computes.
    passes = []
    original = core._meets_are_flats

    def counted(M, cols):
        passes.append(M)
        return original(M, cols)

    monkeypatch.setattr(core, "_meets_are_flats", counted)
    for space in (pg33, pg35):
        built = delete(space, {0, 1})
        passes.clear()
        parsed = parse_matroid(serialize_matroid(built))
        assert complete_to_modular(parsed).ok
        assert len(passes) == 1 and passes[0] is parsed
        passes.clear()
        assert complete_to_modular(built).ok
        assert len(passes) == 1 and passes[0] is built
        assert built._cache["flat_report"].passed


def test_completion_builds_a_pair_table_for_its_input_only(monkeypatch, pg33, pg35):
    # Each extension's defects, disjoint flags and hypermodularity witness are
    # counted off its own incidences, so no later matroid of a completion
    # builds a pair table, lists its flags or scans its corank pairs.
    built, listed, scanned = [], [], []
    table, flags, pairs = core._pair_table, modularity.disjoint_rank32_pairs, modularity._defective_pairs

    def recorded_table(M):
        if "pair_table" not in M._cache:
            built.append(M)
        return table(M)

    def recorded_flags(M):
        listed.append(M)
        return flags(M)

    def recorded_pairs(M, grade=None):
        if grade is not None:
            scanned.append(M)
        return pairs(M, grade)

    monkeypatch.setattr(core, "_pair_table", recorded_table)
    monkeypatch.setattr(modularity, "disjoint_rank32_pairs", recorded_flags)
    monkeypatch.setattr(modularity, "_defective_pairs", recorded_pairs)
    for space in (pg33, pg35):
        D = delete(space, {0, 1})
        for record in (built, listed, scanned):
            record.clear()
        outcome = complete_to_modular(D)
        assert outcome.ok and len(outcome.steps) == 2
        assert built == listed == scanned == [D]


def test_extension_refuses_input_that_is_not_hypermodular(pg33):
    # All but one point of a line deleted: the line's planes meet in a point.
    # A hand-built context whose one star line passes the criterion vacuously
    # must be refused as build_context refuses the flag.
    line = flats_of_rank(pg33, 2)[0]
    M = delete(pg33, sorted(line)[1:])
    assert M.rank == 4 and M.is_loopless and not is_hypermodular(M)
    f3, f2 = disjoint_rank32_pairs(M)[0]
    ctx = ExtensionContext(M, f3, f2, pencil=(), traces=(f2,), cross_lines=(),
                           star_lines=(f2,), star_planes=(f3,))
    assert criterion_holds(M, ctx).holds
    for step in (lambda: build_context(M, f3, f2), lambda: extend_once(M, ctx)):
        with pytest.raises(ValueError) as error:
            step()
        assert str(error.value) == "extension requires a hypermodular matroid"


def test_extension_refuses_a_matroid_with_a_loop(looped_u44):
    M = looped_u44
    for step in (
        lambda: build_context(M, flats_of_rank(M, 3)[0], flats_of_rank(M, 2)[0]),
        lambda: first_extendable_flag(M),
        lambda: complete_to_modular(M),
    ):
        with pytest.raises(ValueError) as error:
            step()
        assert str(error.value) == "extension requires a loopless matroid"


def test_extension_refuses_input_that_fails_the_flat_axioms(del32):
    # PG(3,2)∖{0} with one plane left out fails F2.  Parsed unverified, 8 of
    # the 15 such lattices still have an extendable flag (the other 7 leave
    # a pencil of two planes), and each must be refused before anything is built.
    lines = serialize_matroid(del32, name="holed").splitlines(keepends=True)
    refused = 0
    for i, line in enumerate(lines):
        if not line.startswith("flat 3:"):
            continue
        M = parse_matroid("".join(lines[:i] + lines[i + 1 :]), verify=False)
        try:
            ctx = first_extendable_flag(M)
        except InternalConsistencyError:
            continue
        assert isinstance(ctx, ExtensionContext)
        with pytest.raises(ValueError) as error:
            extend_once(M, ctx)
        assert str(error.value) == (
            "extension requires a matroid that satisfies the flat axioms; "
            "it fails F2: no cover of the flat holds the element"
        )
        refused += 1
    assert refused == 8


# ---------------------------------------------------------------------------
# the extension's flat axioms, proved on the changed flats
# ---------------------------------------------------------------------------


def _extension_of(M, cut):
    """M with a new element m added to every flat of ``cut``, plus the grade-1 flat {m}.

    ``extend_once`` builds its extension this way.  None if the constructor refuses it.
    """
    m = M.ground_size
    new = frozenset([m])
    grades = [[x | new if x in cut else x for x in grade] for grade in M.flats_by_rank]
    grades[1].append(new)
    try:
        return Matroid(m + 1, grades)
    except ValueError:
        return None


def _star(M) -> set:
    """The star lines and planes of M's first extendable flag; empty if it has none."""
    try:
        found = first_extendable_flag(M)
    except ValueError:  # not a loopless hypermodular rank-4 matroid
        return set()
    return set(found.star_lines) | set(found.star_planes) if isinstance(found, ExtensionContext) else set()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_extension_proof_is_sound(
    pg32, pg33, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture, data
):
    """The proof holds iff the extension built afresh passes the flat axioms.

    M is a small accepted family that passes them, a realized point
    configuration, a deletion of a zoo lattice, or a hypermodular one- or
    two-point deletion of PG(3,2) or PG(3,3), which always has a star whose
    cut flats keep positive pairs.  The enlarged flats are
    the star of M's first extendable flag with up to two flats dropped and
    two added, lines kept greedily disjoint in a random order, or up to
    four random flats; they are then closed upward or not, and hold the
    top flat.  On an unchanged star the proof must hold, and whenever M is
    loopless it must hold exactly when the fresh lattice passes.

    Whenever the fresh lattice passes the flat axioms and restricts back
    to M, proved or not, N's report, taken once N carries its passing flat
    report, must equal the pair-table scan of a copy that carries none
    (pairs in key order, total and flags), and so must its
    hypermodularity witness.
    """
    source = data.draw(st.sampled_from(["small", "realized", "zoo", "projective"]))
    if source == "small":
        M = data.draw(_small_families())
        assume(verify_flat_axioms(M).passed)
    elif source == "realized":
        M = data.draw(_realized_families())
    elif source == "zoo":
        looped = Matroid(4, [[{3}], [{0, 3}, {1, 3}, {2, 3}], [range(4)]])  # U(2,3) and a loop
        zoo = [pg32, del32, vamos_m, two_cover, direct_sum_u12, loop_fixture, looped]
        base = data.draw(st.sampled_from(zoo + [uniform(3, 5), uniform(4, 6)]))
        removed = data.draw(
            st.sets(st.integers(0, base.ground_size - 1), max_size=min(3, base.ground_size - 1))
        )
        M = delete(base, removed) if removed else base
    else:
        # Two-point deletions of PG(3,2) are not hypermodular.
        base = data.draw(st.sampled_from([pg32, pg33]))
        size = 1 if base is pg32 else data.draw(st.integers(1, 2))
        points = st.integers(0, base.ground_size - 1)
        M = delete(base, data.draw(st.sets(points, min_size=size, max_size=size)))
    assume(M.rank >= 2)  # below, grade 1 is the top and has no room for {m}
    flats = M._flat_list
    star = _star(M)
    assert star or source != "projective"
    kind = data.draw(st.sampled_from(["star", "spread", "random"] if star else ["spread", "random"]))
    if kind == "star":
        drop = data.draw(st.sets(st.sampled_from(sorted(star, key=flat_key)), max_size=2))
        add = data.draw(st.sets(st.sampled_from(flats), max_size=2))
        cut = (star - drop) | add
    elif kind == "spread":
        cut = set()
        for line in data.draw(st.permutations(M.flats_by_rank[2])):
            if not any(line & x for x in cut):
                cut.add(line)
    else:
        cut = data.draw(st.sets(st.sampled_from(flats), max_size=4))
    if data.draw(st.booleans()):
        cut = {g for g in flats if any(f <= g for f in cut)}
    cut = cut | {M.ground_set}
    N = _extension_of(M, cut)
    if N is None:
        return
    indices = [M._flat_index(x) for x in cut]
    proved = core._extension_passes_flat_axioms(M, indices)
    if star and cut == star | {M.ground_set}:
        assert proved
    fresh = Matroid(N.ground_size, N.flats_by_rank)
    valid = verify_flat_axioms(fresh).passed
    if proved:
        assert valid
        assert brute_flat_verdict(fresh)
    if M.is_loopless:
        assert proved == valid
    if not valid or restrict(fresh, range(M.ground_size)) != M:
        return
    event(f"valid extension of a {kind} cut, {'proved' if proved else 'not proved'}")
    # N now carries its passing flat report; the scanned copy carries none.
    assert verify_flat_axioms(N).passed
    table = Matroid(N.ground_size, N.flats_by_rank)
    counted, scanned = total_modular_defect(N), total_modular_defect(table)
    assert list(counted.pair_defects.items()) == list(scanned.pair_defects.items())
    assert (counted.total, counted.disjoint_flags) == (scanned.total, scanned.disjoint_flags)
    if N.rank >= 3:
        assert hypermodularity_witness(N) == hypermodularity_witness(table)


# ---------------------------------------------------------------------------
# completion loop
# ---------------------------------------------------------------------------


def test_complete_modular_input(pg32):
    outcome = complete_to_modular(pg32)
    assert outcome.ok and not outcome.steps
    assert outcome.matroid == pg32


def test_complete_single_step(del32):
    outcome = complete_to_modular(del32)
    assert outcome.ok
    assert len(outcome.steps) == 1
    assert profile(outcome.matroid).counts == (1, 15, 35, 15, 1)


def test_complete_two_steps(pg33):
    start = delete(pg33, {0, 1})
    assert total_modular_defect(start).total == PG33_TWO_POINT_DEFECT
    outcome = complete_to_modular(start)
    assert outcome.ok
    assert [s.defect_before for s in outcome.steps] == [
        PG33_TWO_POINT_DEFECT,
        PG33_ONE_POINT_DEFECT,
    ]
    assert outcome.steps[-1].defect_after == 0
    assert profile(outcome.matroid).counts == (1, 40, 130, 40, 1)
    assert is_modular(outcome.matroid)
    assert restrict(outcome.matroid, range(start.ground_size)) == start


def test_complete_preconditions(vamos_m, del32):
    with pytest.raises(ValueError, match="hypermodular"):
        complete_to_modular(vamos_m)
    with pytest.raises(ValueError, match="rank"):
        complete_to_modular(uniform(3, 4))
    with pytest.raises(RuntimeError, match="steps"):
        complete_to_modular(del32, max_steps=0)


def test_completion_keeps_hypermodularity(pg33):
    start = delete(pg33, {0, 1})
    outcome = complete_to_modular(start)
    current = start
    for step in outcome.steps:
        assert is_hypermodular(current)
        ctx = build_context(current, step.flat3, step.flat2)
        current = extend_once(current, ctx).extended
    assert current == outcome.matroid
