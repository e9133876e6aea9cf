"""Workloads of the hypermod benchmark.

Each workload builds its input files from a seed and returns one
*operation*: the list of ``hypermod`` CLI calls that is timed as a unit.
Every call must exit 0 and print the ``--machine`` values it carries.
The expected values are closed-form facts about PG(3,q) and its point
deletions; none of them is computed with the code under test, which
only builds the input files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Call:
    """One ``hypermod`` invocation and the ``--machine`` values it must print."""

    argv: tuple[str, ...]
    expect: dict[str, str]


@dataclass(frozen=True)
class Workload:
    name: str
    # Writes the input files into the directory and returns the operation.
    setup: Callable[[Path, int], list[Call]]


# ---------------------------------------------------------------------------
# closed-form facts about PG(3,q)
# ---------------------------------------------------------------------------


def pg3_profile(q: int) -> tuple[int, ...]:
    """Flat counts per grade of PG(3,q): 1, n, (q²+1)(q²+q+1), n, 1."""
    n = (q**4 - 1) // (q - 1)
    return (1, n, (q * q + 1) * (q * q + q + 1), n, 1)


def deletion_profile(q: int, k: int) -> tuple[int, ...]:
    """Profile of PG(3,q) minus k <= 2 points, q >= 3.

    Every line keeps at least q - 1 >= 2 points, so only the point count
    drops.
    """
    one, n, lines, planes, top = pg3_profile(q)
    return (one, n - k, lines, planes, top)


def flags_per_point(q: int) -> int:
    """Disjoint (plane, line) flags a deleted point leaves: q²(q²+q+1)."""
    return q * q * (q * q + q + 1)


def defect_per_point(q: int) -> int:
    """Total modular defect a deleted point adds.

    One for each disjoint flag it leaves, plus one for each pair of the
    q²+q+1 lines through it, which no longer meet.
    """
    return flags_per_point(q) + comb(q * q + q + 1, 2)


def _fmt(values) -> str:
    return ",".join(str(v) for v in values)


def _require_deletable(q: int) -> None:
    if q < 3:
        raise ValueError(f"the deletion closed forms need q >= 3, got q={q}")


def _write_deletion(hm, M, removed, path: Path) -> None:
    path.write_text(hm.serialize_matroid(hm.delete(M, removed)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def complete_workload(q: int) -> Workload:
    """``complete`` on a seeded two-point deletion of PG(3,q)."""
    _require_deletable(q)
    d = defect_per_point(q)

    def setup(workdir: Path, seed: int) -> list[Call]:
        import hypermod as hm

        rng = random.Random(seed)
        M = hm.pg3(q)
        removed = rng.sample(range(M.ground_size), 2)
        src, out = workdir / "in.mat", workdir / "out.mat"
        _write_deletion(hm, M, removed, src)
        expect = {
            "steps": "2",
            "defect_trajectory": _fmt((2 * d, d, 0)),
            "completed": "true",
            "profile": _fmt(pg3_profile(q)),
            "output": str(out),
        }
        return [Call(("complete", str(src), "-o", str(out), "--machine"), expect)]

    return Workload(f"complete-q{q}", setup)


def ingest_workload(q: int, uniform_n: int) -> Workload:
    """``generate`` PG(3,q), sampled ``verify`` of it, exhaustive ``verify`` of U(4,n)."""

    def setup(workdir: Path, seed: int) -> list[Call]:
        import hypermod as hm

        pg_mat, pg_pts = workdir / "pg.mat", workdir / "pg.pts"
        u_mat = workdir / "uniform.mat"
        u_mat.write_text(hm.serialize_matroid(hm.uniform(4, uniform_n)))
        n = pg3_profile(q)[1]
        generate = Call(
            ("generate", "pg3", "--q", str(q), "-o", str(pg_mat), "--pts", str(pg_pts), "--machine"),
            {
                "points_file": str(pg_pts),
                "output": str(pg_mat),
                "ground": str(n),
                "rank": "4",
                "profile": _fmt(pg3_profile(q)),
            },
        )
        passed = {"flat_axioms": "pass", "rank_axioms": "pass", "violations": "0"}
        sampled = Call(
            ("verify", str(pg_mat), "--seed", str(seed), "--machine"),
            {**passed, "rank_mode": f"sampled seed={seed} trials=10000"},
        )
        exhaustive = Call(
            ("verify", str(u_mat), "--exhaustive", "--machine"),
            {**passed, "rank_mode": "exhaustive"},
        )
        return [generate, sampled, exhaustive]

    return Workload(f"ingest-q{q}", setup)


def analyze_workload(q: int, batch: int) -> Workload:
    """``analyze`` over seeded one- and two-point deletions of PG(3,q)."""
    _require_deletable(q)

    def setup(workdir: Path, seed: int) -> list[Call]:
        import hypermod as hm

        rng = random.Random(seed)
        M = hm.pg3(q)
        calls = []
        for i in range(batch):
            k = 1 + i % 2
            path = workdir / f"del{i}.mat"
            _write_deletion(hm, M, rng.sample(range(M.ground_size), k), path)
            expect = {
                "ground": str(M.ground_size - k),
                "rank": "4",
                "profile": _fmt(deletion_profile(q, k)),
                "kappa": "1",
                "loopless": "true",
                "hypermodular": "true",
                "modular": "false",
                "total_defect": str(k * defect_per_point(q)),
                "disjoint_flags": str(k * flags_per_point(q)),
            }
            calls.append(Call(("analyze", str(path), "--machine"), expect))
        return calls

    return Workload(f"analyze-q{q}", setup)


WORKLOADS = {
    w.name: w
    for w in (
        complete_workload(5),
        ingest_workload(5, 14),
        analyze_workload(3, 8),
    )
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def parse_machine(text: str) -> dict[str, str]:
    """``key value`` lines of ``--machine`` output; the value may hold spaces."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def mismatches(call: Call, exit_code: int | None, stdout: str) -> list[str]:
    """Every way the call's exit code and output differ from what it expects."""
    found = []
    if exit_code != 0:
        found.append(f"{call.argv[0]}: exit code {exit_code}, expected 0")
    got = parse_machine(stdout)
    for key, want in call.expect.items():
        if got.get(key) != want:
            found.append(f"{call.argv[0]}: {key} = {got.get(key)!r}, expected {want!r}")
    return found
