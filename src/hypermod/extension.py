"""Single-element extensions that repair modular defects in rank 4.

A loopless rank-4 hypermodular matroid that is not modular has a
disjoint flag: a rank-3 flat and a rank-2 flat with empty intersection.
Around one flag we assemble an :class:`ExtensionContext`, computed on
flat indices with joins read off the containment relation:

* the *pencil*: all rank-3 flats containing the flag's rank-2 flat
  (they tile the ground set, overlapping only in that flat);
* the *traces*: the flag's rank-2 flat together with the pencil's
  intersections with the flag's rank-3 flat (they tile that flat);
* the *cross lines*: rank-2 flats outside the flag whose joins hit two
  or more traces at rank 3;
* the *star lines* (traces plus cross lines) and *star planes* (rank-3
  flats through some trace) — the flats that would pass through a new
  point sitting where the flag fails to meet.

The extension criterion asks whether every join of two distinct star
lines is a star plane.  When it holds, :func:`extend_once` adjoins a
new element to exactly the star lines and star planes.  Those flats,
the *cut*, fix the extension (a modular cut, Crapo 1965).  Given its
parent's flat axioms, the new lattice passes them exactly when a check
on the cut passes (:func:`hypermod.core._extension_passes_flat_axioms`),
and the full check runs only to name a refusal; a passing extension's
rows are built from its parent's and the cut, and it carries its
passing flat report.  So its total defect, flag count and
hypermodularity verdict are counted off its own incidences, as a parsed
input's are (:func:`hypermod.modularity.total_modular_defect`), and its
positive pairs and disjoint flags are listed only if a caller reads
them.  No defect grows, so the extension stays hypermodular, and
:func:`extend_once` proves that the total strictly drops.  Only the
first matroid of a completion has its flat axioms checked (a parsed
input when it was parsed, a built one by the first step), and only a
built first matroid's defect report is scanned over the pair table.
:func:`first_extendable_flag` walks the flags plane by plane and stops
at the first whose criterion holds, and :func:`complete_to_modular`
repeats the step until no disjoint flag is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, NamedTuple, Optional

from .core import (
    AxiomReport,
    ElementSet,
    Matroid,
    Violation,
    _extension,
    _extension_passes_flat_axioms,
    _join_index,
    flat_key,
    restrict,
    verify_flat_axioms,
)
from .modularity import _walk_flags, is_hypermodular, total_modular_defect


class InternalConsistencyError(RuntimeError):
    """A structural guarantee failed; the input is corrupt or there is a bug."""


class StepBudgetExhausted(RuntimeError):
    """The completion loop used up its step budget before reaching a modular matroid."""


@dataclass(frozen=True)
class ExtensionContext:
    """The flag neighbourhood data for one single-element extension."""

    matroid: Matroid
    flat3: ElementSet
    flat2: ElementSet
    pencil: tuple[ElementSet, ...]
    traces: tuple[ElementSet, ...]
    cross_lines: tuple[ElementSet, ...]
    star_lines: tuple[ElementSet, ...]
    star_planes: tuple[ElementSet, ...]

    @property
    def pencil_size(self) -> int:
        return len(self.pencil)


class CriterionResult(NamedTuple):
    holds: bool
    witness: Optional[tuple[ElementSet, ElementSet]]


@dataclass(frozen=True)
class ExtensionResult:
    extended: Matroid
    new_element: int
    enlarged: tuple[ElementSet, ...]
    defect_before: int
    defect_after: int


@dataclass(frozen=True)
class CompletionStep:
    step: int
    flat3: ElementSet
    flat2: ElementSet
    new_element: int
    defect_before: int
    defect_after: int


@dataclass(frozen=True)
class FlagFailure:
    flat3: ElementSet
    flat2: ElementSet
    witness: tuple[ElementSet, ElementSet]


@dataclass(frozen=True)
class CompletionOutcome:
    ok: bool
    matroid: Matroid | None
    steps: tuple[CompletionStep, ...]
    failures: tuple[FlagFailure, ...]


def _require_extendable(M: Matroid) -> None:
    """Reject input outside the extension theory: loopless, hypermodular, rank 4."""
    if M.rank != 4:
        raise ValueError(f"extension requires rank 4, got rank {M.rank}")
    if not M.is_loopless:
        raise ValueError("extension requires a loopless matroid")
    if not is_hypermodular(M):
        raise ValueError("extension requires a hypermodular matroid")


def _require_flat_of_rank(M: Matroid, flat, k: int) -> int:
    idx = M._flat_index(flat)
    grade = M._grade_of_index[idx]
    if grade != k:
        raise ValueError(f"{sorted(M._flat_list[idx])} has rank {grade}, expected {k}")
    return idx


def _star_line_pairs(M: Matroid, lines) -> Iterator[tuple[ElementSet, ElementSet, int]]:
    """Each pair of ``lines`` in canonical order, with the index of its join."""
    indexed = [(x, M._flat_index(x)) for x in lines]
    for (a, i), (b, j) in combinations(indexed, 2):
        yield a, b, _join_index(M, i, j)


def _first_escape(pairs, planes: set[int]) -> CriterionResult:
    """The criterion's verdict on ``(a, b, join)`` triples: the first whose join is not in ``planes``."""
    for a, b, join in pairs:
        if join not in planes:
            return CriterionResult(False, (a, b))
    return CriterionResult(True, None)


def build_context(M: Matroid, flat3, flat2) -> ExtensionContext:
    """Assemble and validate the context of one disjoint flag.

    Requires a loopless hypermodular rank-4 matroid and a disjoint
    (rank-3, rank-2) flat pair.  The structural consequences that are
    forced for such input (traces that are flats, pencil size >= 3,
    pencil members adding to the flag and covering the ground set, star
    planes arising as joins of star lines) are re-checked; their failure
    aborts loudly since it means the input was not what it claimed to
    be.  The constructor accepts lattices that fail the flat axioms, and
    some of those reach these checks.

    Two consequences need no check, since hypermodularity, decided by
    the exact pair table or on a lattice known to pass the flat axioms,
    and the constructor force them on any accepted family.  Pencil
    planes P1 != P2 meet only in the flag's line f2, so their residues
    beyond f2 are disjoint: both hold f2, and their defect
    6 - g(J) - r(P1 ∩ P2), J their join, is zero only if
    (g(J), r) is (4, 2) or (3, 3), since r <= g(J) <= 4.  If g(J) = 3,
    J and one of P1, P2 are distinct nested grade-3 flats, and the
    constructor refuses nesting within a grade; if r = 2, a grade-2 flat holds P1 ∩ P2, and
    if that strictly held f2 the constructor would refuse it too.  And
    no trace is empty: its closure would be the bottom flat ∅, of grade
    0, so its pencil plane and the flag's plane, distinct since only
    the first holds f2, would have defect at least 2.
    """
    _require_extendable(M)
    i3 = _require_flat_of_rank(M, flat3, 3)
    i2 = _require_flat_of_rank(M, flat2, 2)
    flats, masks = M._flat_list, M._flat_masks
    m3, m2 = masks[i3], masks[i2]
    if m3 & m2:
        raise ValueError("the two flats of a flag must be disjoint")

    planes = range(*M._grade_starts[3:5])
    pencil = [a for a in planes if M._sup_bits[i2] >> a & 1]
    traces = [i2]
    for a in pencil:
        t = masks[a] & m3
        if t not in M._index_of_mask:
            raise InternalConsistencyError(
                f"pencil member {sorted(flats[a])} meets the flag's rank-3 flat in a non-flat"
            )
        traces.append(M._index_of_mask[t])

    n = len(pencil)
    if n < 3:
        raise InternalConsistencyError(f"pencil has {n} members, expected at least 3")
    flag_mask = m3 | m2
    covered = 0
    for a in pencil:
        covered |= masks[a]
        if not masks[a] & ~flag_mask:
            raise InternalConsistencyError(
                f"pencil member {sorted(flats[a])} adds nothing beyond the flag"
            )
    if covered != (1 << M.ground_size) - 1:
        raise InternalConsistencyError("pencil does not cover the ground set")

    cross_lines = [
        x
        for x in range(*M._grade_starts[2:4])
        if not masks[x] & flag_mask
        and sum(j in planes for j in {_join_index(M, x, t) for t in traces}) >= 2
    ]
    star_lines = tuple(sorted((flats[x] for x in cross_lines + traces), key=flat_key))
    star_planes = [x for x in planes if any(M._sup_bits[t] >> x & 1 for t in traces)]
    pairs = list(_star_line_pairs(M, star_lines))
    if not set(star_planes) <= {join for _, _, join in pairs}:
        raise InternalConsistencyError("a star plane is not a join of two star lines")
    ctx = ExtensionContext(
        matroid=M,
        flat3=flats[i3],
        flat2=flats[i2],
        pencil=tuple(flats[a] for a in pencil),
        traces=tuple(flats[t] for t in traces),
        cross_lines=tuple(flats[x] for x in cross_lines),
        star_lines=star_lines,
        star_planes=tuple(flats[x] for x in star_planes),
    )
    M._cache["criterion"] = (star_lines, ctx.star_planes, _first_escape(pairs, set(star_planes)))
    return ctx


def join_spectrum(M: Matroid, flat, family, k: int) -> set[ElementSet]:
    """Closures of ``flat`` with each member of ``family`` whose union has rank ``k``."""
    i = M._flat_index(flat)
    joins = {_join_index(M, i, M._flat_index(t)) for t in family}
    return {M._flat_list[j] for j in joins if M._grade_of_index[j] == k}


def criterion_holds(M: Matroid, ctx: ExtensionContext) -> CriterionResult:
    """Whether every join of two distinct star lines is a star plane.

    On failure the witness is the first (canonical order) pair of star
    lines whose join escapes the star planes.  :func:`build_context`
    walks every join once and keeps the verdict on ``M``, with the star
    lines and star planes it holds for, so the checks of that context in
    :func:`first_extendable_flag` and :func:`extend_once` read it; any
    other star walks its joins here.
    """
    if ctx.matroid != M:
        raise ValueError("context was built for a different matroid")
    lines, planes, verdict = M._cache.get("criterion", ((), (), None))
    if verdict is not None and lines == ctx.star_lines and planes == ctx.star_planes:
        return verdict
    planes = {M._flat_index(x) for x in ctx.star_planes}
    return _first_escape(_star_line_pairs(M, ctx.star_lines), planes)


def verify_star_structure(M: Matroid, ctx: ExtensionContext) -> AxiomReport:
    """Check the structure forced on the star once the criterion holds.

    Five checks: the star planes are exactly the pairwise star-line
    joins; star lines are pairwise disjoint; they partition the ground
    set; every other rank-2 flat joins exactly one trace at rank 3; and
    each star line is inside or disjoint from each star plane.
    """
    verdict = criterion_holds(M, ctx)
    if not verdict.holds:
        a, b = verdict.witness
        raise ValueError(f"criterion does not hold; witness ({sorted(a)}, {sorted(b)})")
    violations: list[Violation] = []
    lines = ctx.star_lines
    planes = {M._flat_index(x) for x in ctx.star_planes}

    joins = {join for _, _, join in _star_line_pairs(M, lines)}
    if joins != planes:
        diff = (M._flat_list[x] for x in joins ^ planes)
        violations.append(
            Violation("star-planes-equality", tuple(sorted(diff, key=flat_key)),
                      "star planes differ from pairwise star-line joins")
        )
    for a, b in combinations(lines, 2):
        if a & b:
            violations.append(Violation("star-lines-disjoint", (a, b), "two star lines intersect"))

    seen: set[int] = set()
    for x in lines:
        seen |= x
    if frozenset(seen) != M.ground_set:
        violations.append(
            Violation("star-lines-partition", (frozenset(seen),),
                      "star lines do not cover the ground set")
        )

    star_line_set = set(lines)
    traces = [M._flat_index(t) for t in ctx.traces]
    for x in range(*M._grade_starts[2:4]):
        if M._flat_list[x] in star_line_set:
            continue
        size = len({j for j in (_join_index(M, x, t) for t in traces) if M._grade_of_index[j] == 3})
        if size != 1:
            violations.append(
                Violation("outside-line-unique-join", (M._flat_list[x],),
                          f"rank-3 join spectrum has size {size}, expected 1")
            )

    for x in ctx.star_planes:
        for j in lines:
            if j & x and not j <= x:
                violations.append(
                    Violation("line-in-plane-dichotomy", (x, j),
                              "a star line partially meets a star plane")
                )

    return AxiomReport.from_violations(violations)


def extend_once(M: Matroid, ctx: ExtensionContext) -> ExtensionResult:
    """Adjoin one element through the context's star.

    The input must be what :func:`build_context` accepts, a loopless
    hypermodular rank-4 matroid, and must satisfy the flat axioms, read
    through :func:`verify_flat_axioms` (parsing and the previous step
    store the report, so it is not recomputed).  Either failure is a
    ValueError raised before anything is built.  The new element m
    (labelled with the next dense index) is added to every flat of the
    cut D: the input's star lines and star planes and its top flat.  {m}
    becomes a new rank-1 flat; all other flats are untouched.  The
    resulting lattice N must satisfy the flat axioms, which hold exactly
    when a check on the cut passes, and must restrict back to the input;
    a failure of either is raised as an internal error.  The check on the
    cut runs first: when it passes, N's rows are built from the input's
    and the cut (:func:`hypermod.core._extension`); when it fails, the
    constructor builds N and the full check on it names the first
    violation.  ``enlarged`` lists the input's flats that gained m, the
    cut less the top flat.  N keeps its passing flat report, so its
    defect report, cached on N for the next step, is counted off its own
    incidences and lists nothing.

    No defect grows.  The images of M's flats keep their grades and
    containments, and the cut is up-closed, so the join of two images is
    the image of their join, and so is their meet G, unless both are cut
    flats and G is not: then their meet in N holds m and no image of a
    cut flat, so it is {m} and G is ∅, and the pair loses one.  {m}, a
    point, has defect zero with every flat.  So N is hypermodular when M
    is.

    The total modular defect strictly drops.  F1 in N makes the cut lines
    pairwise disjoint, since two cut lines meeting at p would make {p, m}
    a non-flat meet, and F2 at {m} makes them cover the ground set E.
    Take a cut line L1, a plane P ⊇ L1, which is in D because D is
    up-closed, and a point p ∈ P∖L1.  Then cl_N{m, p} is the image of a
    cut line L' ⊆ P.  L1 and L' are disjoint coplanar cut flats with
    defect 1 whose meet ∅ is outside D, so that pair loses one.
    """
    verdict = criterion_holds(M, ctx)
    if not verdict.holds:
        a, b = verdict.witness
        raise ValueError(f"criterion does not hold; witness ({sorted(a)}, {sorted(b)})")
    _require_extendable(M)
    given = verify_flat_axioms(M)
    if not given.passed:
        first = given.violations[0]
        raise ValueError(
            "extension requires a matroid that satisfies the flat axioms; "
            f"it fails {first.axiom}: {first.detail}"
        )

    m = M.ground_size
    star_lines = set(ctx.star_lines)
    star_planes = set(ctx.star_planes)
    # The cut: M's star lines, its star planes and its top flat.
    flats, starts = M._flat_list, M._grade_starts
    cut = [i for i in range(*starts[2:4]) if flats[i] in star_lines]
    cut += [i for i in range(*starts[3:5]) if flats[i] in star_planes] + [starts[4]]

    # M is loopless, so the proof fails exactly when the extension does;
    # the full check on the constructed lattice then only names the first
    # violation.
    if not _extension_passes_flat_axioms(M, cut):
        new = frozenset([m])
        images = list(flats)
        for i in cut:
            images[i] = flats[i] | new
        grades = [[frozenset()], list(M.flats_by_rank[1]) + [new]]
        grades += (images[a:b] for a, b in zip(starts[2:], starts[3:]))
        first = verify_flat_axioms(Matroid(m + 1, grades)).violations[0]
        raise InternalConsistencyError(
            f"extension lattice fails {first.axiom}: {first.detail}"
        )
    extended = _extension(M, cut)
    if restrict(extended, range(m)) != M:
        raise InternalConsistencyError("extension does not restrict back to the input")

    return ExtensionResult(
        extended=extended,
        new_element=m,
        enlarged=tuple(sorted((flats[i] for i in cut[:-1]), key=flat_key)),
        defect_before=total_modular_defect(M).total,
        defect_after=total_modular_defect(extended).total,
    )


def first_extendable_flag(M: Matroid) -> ExtensionContext | tuple[FlagFailure, ...]:
    """The context of the first disjoint flag whose criterion holds.

    Flags are walked in canonical order, plane by plane, and the walk
    stops at the first that passes.  If none passes, the result is one
    :class:`FlagFailure` per flag instead; it is empty exactly when the
    matroid has no disjoint flag, that is, when it is modular.
    """
    _require_extendable(M)
    failures = []
    for f3, f2 in _walk_flags(M):
        ctx = build_context(M, f3, f2)
        verdict = criterion_holds(M, ctx)
        if verdict.holds:
            return ctx
        failures.append(FlagFailure(f3, f2, verdict.witness))
    return tuple(failures)


def complete_to_modular(M: Matroid, max_steps: int | None = None) -> CompletionOutcome:
    """Repeatedly extend along disjoint flags until the matroid is modular.

    Each step extends along :func:`first_extendable_flag`; the extension
    stays hypermodular and its total modular defect, which the loop reads
    off each matroid's cached defect report, is strictly lower, as
    :func:`extend_once` proves.  So the loop ends after at most the
    initial total steps.  A caller may cap the steps with ``max_steps``;
    running out raises :class:`StepBudgetExhausted`.  If at some step no
    flag passes the criterion, the outcome carries one witness per failed
    flag instead of a matroid.
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    _require_extendable(M)

    current = M
    steps: list[CompletionStep] = []
    while total_modular_defect(current).total:
        if max_steps is not None and len(steps) >= max_steps:
            raise StepBudgetExhausted(f"no modular completion within {max_steps} steps")
        found = first_extendable_flag(current)
        if not isinstance(found, ExtensionContext):
            return CompletionOutcome(False, None, tuple(steps), found)
        result = extend_once(current, found)
        steps.append(
            CompletionStep(
                step=len(steps) + 1,
                flat3=found.flat3,
                flat2=found.flat2,
                new_element=result.new_element,
                defect_before=result.defect_before,
                defect_after=result.defect_after,
            )
        )
        current = result.extended
    return CompletionOutcome(True, current, tuple(steps), ())
