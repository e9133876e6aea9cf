"""Independent brute-force oracles used to compute expected values.

Everything here is deliberately simple and separate from the library's
own machinery: plain-Python Gaussian elimination over GF(p), uniform
rank formulas, and closure/rank read straight off a matroid's stored
flat lists by literal intersection.  Tests compare the library against
these, never the library against itself.  The exception is
``brute_f1`` and ``brute_flat_r3``: scalar flat-pair loops over the
library's own closure, the reference the pair table must reproduce; and
``brute_f2``, the per-(flat, element) walk the cover axiom replaced.
The extension oracles (``brute_context``, ``brute_criterion``,
``brute_star_violations``, ``brute_join_spectrum``) are the frozenset
path the index-based extension layer replaced, with every join taken by
``brute_closure``.  ``reverified_extension`` is ``extend_once`` as it
was before it read the new defects off its parent's report and cut: the
extension re-verified in full, with a full pair scan of the new lattice,
and its enlarged flats read off the new lattice's flats that hold the
new element.
"""

from __future__ import annotations

import itertools
import random

from hypermod.core import Matroid, Violation, _mask_of, _members_of, flat_key, restrict, verify_flat_axioms
from hypermod.extension import ExtensionResult, InternalConsistencyError, criterion_holds
from hypermod.modularity import is_hypermodular, total_modular_defect


def modp_matrix_rank(rows, p: int) -> int:
    """Rank of an integer matrix over GF(p) by textbook elimination."""
    mat = [[c % p for c in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def modp_span_members(points, subset, p: int) -> frozenset[int]:
    """Indices of all points inside the GF(p)-linear span of the subset."""
    base = [points[i] for i in subset]
    r = modp_matrix_rank(base, p) if base else 0
    members = set()
    for i, vec in enumerate(points):
        if modp_matrix_rank(base + [vec], p) == r:
            members.add(i)
    return frozenset(members)


def modp_line_plane_meet(points, plane, line, p: int) -> tuple[int, ...]:
    """The projective point where the spans of a plane and a disjoint line meet.

    ``plane`` and ``line`` index spans of ``points`` in GF(p)^4 of rank 3
    and 2 that share no point; so their spans meet in exactly one
    projective point (2 + 3 - 4 = 1), which is none of ``points``.  The
    line's projective points are v and u + t v for its first two points
    u, v and every t; the one the plane's span holds is returned with its
    first nonzero coordinate scaled to 1.
    """
    rows = [points[i] for i in sorted(plane)]
    u, v = (points[i] for i in sorted(line)[:2])
    assert modp_span_members(points, plane, p) == frozenset(plane)
    assert modp_span_members(points, line, p) == frozenset(line)
    assert modp_matrix_rank(rows, p) == 3 and modp_matrix_rank([u, v], p) == 2
    assert not frozenset(plane) & frozenset(line)
    on_line = [v] + [tuple((a + t * b) % p for a, b in zip(u, v)) for t in range(p)]
    (meet,) = [w for w in on_line if modp_matrix_rank(rows + [w], p) == 3]
    lead = next(c for c in meet if c)
    return tuple(c * pow(lead, p - 2, p) % p for c in meet)


def modp_flats(points, p: int) -> list[set[frozenset[int]]]:
    """Flats of the GF(p) point configuration, grade by grade.

    Every span of a flat plus one point, from the span of nothing up;
    each flat is graded by the matrix rank of its points.
    """
    flats = frontier = {modp_span_members(points, (), p)}
    while frontier:
        frontier = {
            modp_span_members(points, sorted(flat | {e}), p)
            for flat in frontier
            for e in range(len(points))
            if e not in flat
        } - flats
        flats = flats | frontier
    grades: list[set[frozenset[int]]] = []
    for flat in flats:
        k = modp_matrix_rank([points[i] for i in flat], p)
        grades.extend(set() for _ in range(k + 1 - len(grades)))
        grades[k].add(flat)
    return grades


def uniform_rank(subset, r: int) -> int:
    return min(len(subset), r)


def brute_closure(M, subset) -> frozenset[int]:
    """Intersection of all stored flats containing the subset."""
    subset = frozenset(subset)
    result = M.ground_set
    for grade in M.flats_by_rank:
        for flat in grade:
            if subset <= flat:
                result = result & flat
    return frozenset(result)


def brute_rank(M, subset) -> int:
    """Grade of the smallest stored flat containing the subset."""
    subset = frozenset(subset)
    for k, grade in enumerate(M.flats_by_rank):
        for flat in grade:
            if subset <= flat:
                return k
    raise AssertionError("no flat contains the subset")


def brute_defect(M, a, b) -> int:
    return brute_rank(M, a) + brute_rank(M, b) - brute_rank(M, set(a) | set(b)) - brute_rank(
        M, set(a) & set(b)
    )


def pg_point_list(q: int, dim: int = 4):
    """All normalized points of projective (dim-1)-space over GF(q), lex order."""
    reps = set()
    for vec in itertools.product(range(q), repeat=dim):
        if not any(vec):
            continue
        for c in vec:
            if c:
                inv = pow(c, q - 2, q)
                reps.add(tuple((inv * x) % q for x in vec))
                break
    return sorted(reps)


def brute_containment(M) -> list[int]:
    """Per stored flat (grade by grade, as listed), the bits of the stored flats above it."""
    flats = [f for grade in M.flats_by_rank for f in grade]
    return [sum(1 << j for j, g in enumerate(flats) if f <= g) for f in flats]


def brute_chain_lengths(sets) -> dict[frozenset[int], int]:
    """Longest chain of strict inclusions among ``sets`` that ends at each set."""
    sets = {frozenset(s) for s in sets}
    memo: dict[frozenset[int], int] = {}

    def length(s):
        if s not in memo:
            memo[s] = max((length(t) + 1 for t in sets if t < s), default=0)
        return memo[s]

    return {s: length(s) for s in sets}


def brute_components(M, ground=None, contracted=()) -> list[frozenset[int]]:
    """Blocks of (M / contracted) | ground, canonically ordered: unions of overlapping circuits.

    Subsets are enumerated by size up to the minor's rank + 1, with the
    minor's rank r(X ∪ T) - r(T) from ``brute_rank``; a dependent set is
    a circuit when dropping any one element leaves it independent.
    """
    T = frozenset(contracted)
    ground = sorted(M.ground_set - T if ground is None else ground)

    def rank(X):
        return brute_rank(M, T | set(X)) - brute_rank(M, T)

    blocks = [frozenset([e]) for e in ground]
    for size in range(1, rank(ground) + 2):
        for combo in itertools.combinations(ground, size):
            if rank(combo) == size or any(
                rank(combo[:i] + combo[i + 1 :]) < size - 1 for i in range(size)
            ):
                continue
            touching = [b for b in blocks if b & set(combo)]
            blocks = [b for b in blocks if b not in touching] + [frozenset().union(*touching)]
    return sorted(blocks, key=sorted)


def brute_f1(M) -> list:
    """F1 violations of ``verify_flat_axioms``, one flat pair at a time."""
    violations = []
    masks = M._flat_masks
    flats = M._flat_list
    idx_of = M._index_of_mask

    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            inter = masks[i] & masks[j]
            if inter not in idx_of:
                violations.append(
                    Violation(
                        "F1",
                        (flats[i], flats[j]),
                        f"intersection {sorted(_members_of(inter))} is not a flat",
                    )
                )
    return violations


def brute_covers(M) -> list[list[frozenset[int]]]:
    """Per stored flat in the global order, its minimal stored flats strictly above, by subset tests."""
    out = []
    for f in M._flat_list:
        above = [g for g in M._flat_list if f < g]
        out.append([g for g in above if not any(h < g for h in above)])
    return out


def brute_irreducible(M) -> list[int]:
    """Indices of the stored flats that are not the intersection of their covers.

    The top flat has no cover, and the intersection of none is the ground set.
    """
    ground = frozenset(range(M.ground_size))
    return [
        i
        for i, (f, covers) in enumerate(zip(M._flat_list, brute_covers(M)))
        if ground.intersection(*covers) != f
    ]


def brute_flat_report(M) -> list:
    """The violations ``verify_flat_axioms`` lists, in its order, each axiom by brute force.

    F1 from ``brute_f1``; F2 as every element outside a flat that none of
    its covers holds; grading against ``brute_chain_lengths``, flats by size.
    """
    violations = brute_f1(M)
    for f, covers in zip(M._flat_list, brute_covers(M)):
        for s in sorted(set(range(M.ground_size)) - f.union(*covers)):
            detail = "no cover of the flat holds the element"
            violations.append(Violation("F2", (f, frozenset([s])), detail))
    chain = brute_chain_lengths(M._flat_list)
    graded = [(f, k) for k, grade in enumerate(M.flats_by_rank) for f in grade]
    for f, grade in sorted(graded, key=lambda pair: len(pair[0])):
        if chain[f] != grade:
            detail = f"declared grade {grade} but longest chain has length {chain[f]}"
            violations.append(Violation("grading", (f,), detail))
    return violations


def brute_f2(M) -> list:
    """F2 violations of the per-(flat, element) walk that ``verify_flat_axioms`` replaced.

    For every flat F and element s outside it: the flats holding F and s
    must have a unique minimal member, with no flat strictly between it
    and F.  Where F1 holds, it flags the same (F, {s}) pairs as the cover
    axiom; where F1 fails, a superset of them.
    """
    violations = []
    masks = M._flat_masks
    flats = M._flat_list
    sup = brute_containment(M)
    sub = [sum(1 << i for i, up in enumerate(sup) if up >> j & 1) for j in range(len(sup))]
    for i, fmask in enumerate(masks):
        outside = ((1 << M.ground_size) - 1) & ~fmask
        s_mask = outside
        while s_mask:
            low = s_mask & -s_mask
            s_mask ^= low
            s = low.bit_length() - 1
            cand = sup[i] & M._elem_flatbits[s]
            if cand == 0:
                violations.append(
                    Violation("F2", (flats[i], frozenset([s])), "no flat contains the union")
                )
                continue
            minimal = []
            b = cand
            while b:
                lowb = b & -b
                b ^= lowb
                j = lowb.bit_length() - 1
                if cand & sub[j] == lowb:
                    minimal.append(j)
            if len(minimal) != 1:
                wit = tuple(flats[j] for j in minimal[:3])
                violations.append(
                    Violation(
                        "F2",
                        (flats[i], frozenset([s])) + wit,
                        "no unique smallest flat containing the union",
                    )
                )
                continue
            top = minimal[0]
            between = sup[i] & sub[top] & ~(1 << i) & ~(1 << top)
            if between:
                g = (between & -between).bit_length() - 1
                violations.append(
                    Violation(
                        "F2",
                        (flats[i], frozenset([s]), flats[top], flats[g]),
                        "cover skipped: a flat lies strictly between",
                    )
                )
    return violations


def brute_flat_verdict(M) -> bool:
    """Whether F1, the F2 walk and the grading all hold, each read off its oracle."""
    chain = brute_chain_lengths(M._flat_list)
    graded = all(chain[f] == k for k, grade in enumerate(M.flats_by_rank) for f in grade)
    return graded and not brute_f1(M) and not brute_f2(M)


def brute_flat_r3(M, cap: int = 16) -> list:
    """Flat-pair R3 violations of ``verify_rank_axioms``, one pair at a time, at most ``cap``."""
    violations = []

    # Submodularity over all pairs of flats, in every mode.
    masks = M._flat_masks
    grades = M._grade_of_index
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            mi, mj = masks[i], masks[j]
            inter = mi & mj
            if inter == mi or inter == mj:
                continue
            lhs = M._rank_of_mask(mi | mj) + M._rank_of_mask(inter)
            if lhs > grades[i] + grades[j]:
                violations.append(
                    Violation(
                        "R3",
                        (M._flat_list[i], M._flat_list[j]),
                        f"r(A∪B)+r(A∩B)={lhs} exceeds r(A)+r(B)={grades[i] + grades[j]}",
                    )
                )
                if len(violations) >= cap:
                    return violations
    return violations


def brute_rank_violations(M, mode: str, seed: int = 0, trials: int = 10000, cap: int = 16) -> list:
    """The report of ``verify_rank_axioms``, every rank read off ``brute_rank``.

    Flat pairs first, then R1, R2 and R3 on subsets: every subset, every
    (subset, element) and every ordered pair of subsets in exhaustive
    mode.  In sampled mode, R1 on every single element, then R2 and R3 on
    the same ``random.Random(seed)`` draws, which run whether or not the
    library would skip them.  The order and the cap per pass are the
    library's.
    """
    n = M.ground_size
    memo: dict[int, int] = {}

    def rank(mask):
        if mask not in memo:
            memo[mask] = brute_rank(M, _members_of(mask))
        return memo[mask]

    violations = []
    flats, grades = M._flat_list, M._grade_of_index
    for i, j in itertools.combinations(range(len(flats)), 2):
        a, b = _mask_of(flats[i]), _mask_of(flats[j])
        if a & b in (a, b):
            continue
        lhs, rhs = rank(a | b) + rank(a & b), grades[i] + grades[j]
        if lhs > rhs:
            detail = f"r(A∪B)+r(A∩B)={lhs} exceeds r(A)+r(B)={rhs}"
            violations.append(Violation("R3", (flats[i], flats[j]), detail))
            if len(violations) >= cap:
                return violations

    if mode == "sampled":
        for e in range(n):
            if rank(1 << e) > 1 and len(violations) < cap:
                detail = f"rank {rank(1 << e)} exceeds cardinality"
                violations.append(Violation("R1", (frozenset([e]),), detail))
        rng = random.Random(seed)
        for _ in range(trials):
            if len(violations) >= cap:
                break
            a = rng.getrandbits(n) if n else 0
            b = rng.getrandbits(n) if n else 0
            ra, rb, ru, ri = rank(a), rank(b), rank(a | b), rank(a & b)
            if ra > ru or rb > ru:
                violations.append(
                    Violation("R2", (_members_of(a), _members_of(b)), "rank decreases on a superset")
                )
            if ru + ri > ra + rb:
                detail = f"r(A∪B)+r(A∩B)={ru + ri} exceeds r(A)+r(B)={ra + rb}"
                violations.append(Violation("R3", (_members_of(a), _members_of(b)), detail))
        return violations

    masks = range(1 << n)
    found = [
        Violation("R1", (_members_of(m),), f"rank {rank(m)} exceeds cardinality")
        for m in masks
        if rank(m) > bin(m).count("1")
    ][:cap]
    for e in range(n):
        found += [
            Violation("R2", (_members_of(m), frozenset([e])), "rank decreases when adding an element")
            for m in masks
            if rank(m) > rank(m | 1 << e)
        ][:cap]
        if len(found) >= cap:
            return violations + found
    for a in masks:
        found += [
            Violation("R3", (_members_of(a), _members_of(m)), "submodularity fails")
            for m in masks
            if rank(a | m) + rank(a & m) > rank(a) + rank(m)
        ][:cap]
        if len(found) >= cap:
            break
    return violations + found


def brute_rank_table(M) -> list[int]:
    """``brute_rank`` of every subset, indexed by its mask."""
    return [brute_rank(M, _members_of(m)) for m in range(1 << M.ground_size)]


def brute_closed_flats(M) -> list[frozenset[int]]:
    """Stored flats that are their own closure: no flat of lower grade holds them."""
    return [f for k, grade in enumerate(M.flats_by_rank) for f in grade if brute_rank(M, f) == k]


def brute_subset_r3_fails(M) -> bool:
    """Whether r(A∪B)+r(A∩B) > r(A)+r(B) for some pair of subsets."""
    rank = brute_rank_table(M)
    masks = range(len(rank))
    return any(rank[a | b] + rank[a & b] > rank[a] + rank[b] for a in masks for b in masks)


def brute_closed_pair_r3_fails(M) -> bool:
    """Whether submodularity fails on a pair of closed flats, neither inside the other."""
    return any(
        brute_rank(M, f | g) + brute_rank(M, f & g) > brute_rank(M, f) + brute_rank(M, g)
        for f, g in itertools.combinations(brute_closed_flats(M), 2)
        if not (f <= g or g <= f)
    )


def brute_subset_r1_fails(M) -> bool:
    """Whether r(A) > |A| for some subset A."""
    return any(r > bin(m).count("1") for m, r in enumerate(brute_rank_table(M)))


def brute_flat_jumps(M) -> list[tuple[frozenset[int], int]]:
    """Each closed flat F with an element e such that r(F+e) >= r(F)+2."""
    return [
        (f, e)
        for f in brute_closed_flats(M)
        for e in sorted(M.ground_set - f)
        if brute_rank(M, f | {e}) >= brute_rank(M, f) + 2
    ]


def brute_unit_increase(M) -> bool:
    """Whether r(A+e) <= r(A)+1 for every subset A and element e."""
    rank = brute_rank_table(M)
    return all(rank[m | 1 << e] <= rank[m] + 1 for m in range(len(rank)) for e in range(M.ground_size))


def brute_defect_identity(M) -> tuple[int, int]:
    """``(disjoint flags, disjoint coplanar line pairs)`` of a loopless rank-4 matroid.

    Flags are (plane, line) pairs with no common element.  Two distinct
    lines of a plane meet in at most one point, so the disjoint pairs of
    a plane are C(lines, 2) minus, per point, C(lines through it, 2).
    Read off ``flats_by_rank`` with subset tests only.
    """
    points, lines, planes = M.flats_by_rank[1:4]
    flags = sum(not plane & line for plane in planes for line in lines)
    coplanar = 0
    for plane in planes:
        inside = [line for line in lines if line <= plane]
        through = [sum(point <= line for line in inside) for point in points if point <= plane]
        coplanar += len(inside) * (len(inside) - 1) // 2 - sum(c * (c - 1) // 2 for c in through)
    return flags, coplanar


def brute_join_spectrum(M, flat, family, k: int) -> set[frozenset[int]]:
    """Closures of ``flat`` with each member of ``family`` whose union has rank ``k``."""
    joins = {brute_closure(M, frozenset(flat) | frozenset(t)) for t in family}
    return {j for j in joins if brute_rank(M, j) == k}


def brute_context(M, f3, f2) -> dict:
    """The public fields of ``build_context`` on one disjoint flag, by subset tests."""
    pencil = tuple(a for a in M.flats_by_rank[3] if f2 <= a)
    traces = (f2,) + tuple(a & f3 for a in pencil)
    cross_lines = tuple(
        x
        for x in M.flats_by_rank[2]
        if not x & (f3 | f2) and len(brute_join_spectrum(M, x, traces, 3)) >= 2
    )
    return {
        "flat3": f3,
        "flat2": f2,
        "pencil": pencil,
        "traces": traces,
        "cross_lines": cross_lines,
        "star_lines": tuple(sorted(cross_lines + traces, key=sorted)),
        "star_planes": tuple(x for x in M.flats_by_rank[3] if any(t <= x for t in traces)),
    }


def brute_criterion(M, star_lines, star_planes) -> tuple:
    """``(holds, witness)``: the first pair of star lines whose join is not a star plane."""
    planes = set(star_planes)
    for a, b in itertools.combinations(star_lines, 2):
        if brute_closure(M, a | b) not in planes:
            return False, (a, b)
    return True, None


def brute_star_violations(M, ctx) -> list:
    """The violations ``verify_star_structure`` reports, in order; ValueError if the criterion fails."""
    holds, witness = brute_criterion(M, ctx.star_lines, ctx.star_planes)
    if not holds:
        a, b = witness
        raise ValueError(f"criterion does not hold; witness ({sorted(a)}, {sorted(b)})")
    violations = []
    lines, planes = ctx.star_lines, set(ctx.star_planes)
    joins = {brute_closure(M, a | b) for a, b in itertools.combinations(lines, 2)}
    if joins != planes:
        violations.append(
            Violation(
                "star-planes-equality",
                tuple(sorted(joins ^ planes, key=sorted)),
                "star planes differ from pairwise star-line joins",
            )
        )
    for a, b in itertools.combinations(lines, 2):
        if a & b:
            violations.append(Violation("star-lines-disjoint", (a, b), "two star lines intersect"))
    seen = frozenset().union(*lines)
    if seen != M.ground_set:
        violations.append(
            Violation("star-lines-partition", (seen,), "star lines do not cover the ground set")
        )
    for x in M.flats_by_rank[2]:
        if x in lines:
            continue
        size = len(brute_join_spectrum(M, x, ctx.traces, 3))
        if size != 1:
            violations.append(
                Violation(
                    "outside-line-unique-join",
                    (x,),
                    f"rank-3 join spectrum has size {size}, expected 1",
                )
            )
    for x in ctx.star_planes:
        for j in lines:
            if j & x and not j <= x:
                violations.append(
                    Violation(
                        "line-in-plane-dichotomy", (x, j), "a star line partially meets a star plane"
                    )
                )
    return violations


def brute_modular_cut(M, seeds) -> set[frozenset[int]]:
    """The least modular cut of ``M`` that holds the flats ``seeds``, every rank from ``brute_rank``.

    A modular cut is a family of flats that holds every flat above one of
    its members and the meet F ∩ G of every modular pair F, G among them:
    r(F) + r(G) = r(F ∪ G) + r(F ∩ G) (Crapo 1965; Oxley, *Matroid
    Theory*, §7.2).  It fixes a single-element extension, whose new
    element lies on exactly the flats of the cut, and it is proper, a
    new point and no loop or parallel element, when it holds no flat of
    rank 1 or less.  The family grows from ``seeds`` one flat at a time;
    each is paired once with every flat already in it, and a pair whose
    meet is already in it adds nothing, so its ranks are not read.
    """
    flats = [f for grade in M.flats_by_rank for f in grade]
    cut: set[frozenset[int]] = set()
    todo = [frozenset(s) for s in seeds]
    while todo:
        f = todo.pop()
        if f in cut:
            continue
        cut.add(f)
        todo += [g for g in flats if f < g]
        for g in cut:
            meet = f & g
            if meet not in cut and (
                brute_rank(M, f) + brute_rank(M, g) == brute_rank(M, f | g) + brute_rank(M, meet)
            ):
                todo.append(meet)
    return cut


def reverified_extension(M, ctx) -> ExtensionResult:
    """``extend_once`` re-verified in full: flat axioms, restriction, full defect scan."""
    verdict = criterion_holds(M, ctx)
    if not verdict.holds:
        a, b = verdict.witness
        raise ValueError(f"criterion does not hold; witness ({sorted(a)}, {sorted(b)})")

    m = M.ground_size
    new = frozenset([m])
    star_lines = set(ctx.star_lines)
    star_planes = set(ctx.star_planes)
    grades = [
        [frozenset()],
        list(M.flats_by_rank[1]) + [new],
        [x | new if x in star_lines else x for x in M.flats_by_rank[2]],
        [x | new if x in star_planes else x for x in M.flats_by_rank[3]],
        [M.ground_set | new],
    ]
    extended = Matroid(m + 1, grades)

    report = verify_flat_axioms(extended)
    if not report.passed:
        first = report.violations[0]
        raise InternalConsistencyError(
            f"extension lattice fails {first.axiom}: {first.detail}"
        )
    if restrict(extended, range(m)) != M:
        raise InternalConsistencyError("extension does not restrict back to the input")
    before = total_modular_defect(M).total
    after = total_modular_defect(extended).total
    if not after < before:
        raise InternalConsistencyError(
            f"total modular defect did not decrease ({before} -> {after})"
        )
    if not is_hypermodular(extended):
        raise InternalConsistencyError("extension lost hypermodularity")

    enlarged = tuple(
        sorted(
            (x - new for g in extended.flats_by_rank[1:-1] for x in g if m in x and x != new),
            key=flat_key,
        )
    )
    return ExtensionResult(
        extended=extended,
        new_element=m,
        enlarged=enlarged,
        defect_before=before,
        defect_after=after,
    )


def brute_isomorphic(M1, M2) -> bool:
    """Whether some permutation of the elements carries each grade of ``M1`` onto that of ``M2``."""
    if M1.ground_size != M2.ground_size or len(M1.flats_by_rank) != len(M2.flats_by_rank):
        return False
    targets = [set(grade) for grade in M2.flats_by_rank]
    return any(
        all({frozenset(perm[e] for e in f) for f in grade} == target
            for grade, target in zip(M1.flats_by_rank, targets))
        for perm in itertools.permutations(range(M1.ground_size))
    )
