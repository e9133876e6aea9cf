"""Command-line front door.

Verbs: generate, analyze, extend, complete, verify, iso, arrangement.
Exit codes: 0 success, 1 a checked property is false (including a
completion that runs out of ``--max-steps``), 2 usage error (including
a path that cannot be read or written), 3 internal error.  Past
argparse's own checks, every exit-2 case prints one ``error: <message>``
line on stderr and nothing on stdout: the verbs raise ``ValueError``
and only :func:`main` prints it.  ``--machine`` switches to key-value
output; every number in the human report also appears there.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

from . import core, matio, realize
from .arrangement import check_line_connectivity, classify, meet_at_point
from .core import Matroid, flats_of_rank, is_isomorphic, profile
from .extension import (
    ExtensionContext,
    InternalConsistencyError,
    StepBudgetExhausted,
    build_context,
    complete_to_modular,
    criterion_holds,
    extend_once,
    first_extendable_flag,
)
from .modularity import hypermodularity_witness, is_modular, total_modular_defect

USAGE_ERROR = 2
PROPERTY_FALSE = 1
INTERNAL_ERROR = 3


class Report:
    """Accumulates (key, value) pairs plus their human-readable rendering."""

    def __init__(self, machine: bool):
        self.machine = machine
        self.rows: list[tuple[str, str, str]] = []

    def add(self, key: str, value, label: str | None = None):
        self.rows.append((key, _fmt(value), label or key.replace("_", " ")))

    def emit(self):
        if self.machine:
            for key, value, _ in self.rows:
                print(f"{key} {value}")
        else:
            width = max((len(label) for _, _, label in self.rows), default=0)
            for _, value, label in self.rows:
                print(f"{label.ljust(width)}  {value}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, frozenset):
        return "{" + ",".join(str(e) for e in sorted(value)) + "}"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _fmt_flag(pair) -> str:
    return f"({_fmt(pair[0])},{_fmt(pair[1])})"


def _load(path: str) -> Matroid:
    return matio.parse_matroid(Path(path).read_text())


def _require_count(flag: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")


def _parse_flat(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"bad element list {text!r}") from None


def _require_writable(*paths: str | None) -> None:
    """Refuse, before any work, an output path that is a directory or lies in a missing directory."""
    for path in paths:
        if path is None:
            continue
        if Path(path).is_dir():
            raise ValueError(f"output path {path} is a directory")
        if not Path(path).parent.is_dir():
            raise ValueError(f"output directory {Path(path).parent} does not exist")


def _too_large(args) -> bool:
    """Whether ``generate`` is asked for more than ``core.FLAT_LIMIT`` flats or elements.

    Flats and elements are counted in closed form, before anything is
    built; the sum over uniform grades stops once it passes the limit.
    """
    if args.kind == "pg3":
        q = args.q
        size = 2 + 2 * (q**3 + q**2 + q + 1) + (q**2 + 1) * (q**2 + q + 1)
    else:
        size = 1
        for k in range(args.r):
            size += math.comb(args.n, k)
            if size > core.FLAT_LIMIT:
                break
        size = max(size, args.n)
    return size > core.FLAT_LIMIT


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.pts is not None and args.kind != "pg3":
        raise ValueError(f"--pts is only for pg3, not {args.kind}")
    rep = Report(args.machine)
    if args.kind == "pg3":
        if args.q is None:
            raise ValueError("generate pg3 requires --q")
        if not realize.is_prime(args.q):
            raise ValueError(f"q must be prime, got {args.q}")
        name = f"pg3_{args.q}"
    elif args.kind == "uniform":
        if args.r is None or args.n is None:
            raise ValueError("generate uniform requires --r and --n")
        if not (0 <= args.r <= args.n):
            raise ValueError(f"need 0 <= r <= n, got r={args.r}, n={args.n}")
        name = f"uniform_{args.r}_{args.n}"
    else:
        name = "vamos"
    if args.kind != "vamos" and _too_large(args):
        raise ValueError(f"generate builds at most {core.FLAT_LIMIT} flats or elements")
    # The default output is named after the configuration, known before it is built.
    out = args.output or f"{name}.mat"
    _require_writable(out, args.pts)
    if args.kind == "pg3":
        cfg = realize.pg3_points(args.q)
        M = realize.matroid_from_points(cfg)
        if args.pts:
            Path(args.pts).write_text(matio.serialize_points(cfg))
            rep.add("points_file", args.pts)
    elif args.kind == "uniform":
        M = realize.uniform(args.r, args.n)
    else:
        M = realize.vamos()
    Path(out).write_text(matio.serialize_matroid(M))
    rep.add("output", out)
    rep.add("ground", M.ground_size)
    rep.add("rank", M.rank)
    rep.add("profile", profile(M).counts)
    rep.emit()
    return 0


def cmd_analyze(args) -> int:
    M = _load(args.path)
    rep = Report(args.machine)
    rep.add("ground", M.ground_size)
    rep.add("rank", M.rank)
    rep.add("profile", profile(M).counts)
    rep.add("kappa", core.components(M).kappa)
    rep.add("loopless", M.is_loopless)
    if M.rank >= 3:
        witness = hypermodularity_witness(M)
        rep.add("hypermodular", witness is None)
        if witness is not None:
            rep.add("hypermodular_witness", _fmt_flag(witness), "hypermodularity witness")
    else:
        rep.add("hypermodular", "n/a")
    rep.add("modular", is_modular(M))
    report = total_modular_defect(M)
    rep.add("total_defect", report.total)
    if M.rank == 4 and M.is_loopless:
        rep.add("disjoint_flags", report.flag_count)
    else:
        rep.add("disjoint_flags", "n/a")
    rep.emit()
    return 0


def _pick_flag(args):
    if args.f is not None or args.l is not None:
        if args.f is None or args.l is None:
            raise ValueError("--f and --l must be given together")
        return _parse_flat(args.f), _parse_flat(args.l)
    return None


def cmd_extend(args) -> int:
    _require_writable(args.output)
    M = _load(args.path)
    rep = Report(args.machine)
    chosen = _pick_flag(args)
    if chosen is None:
        found = first_extendable_flag(M)
        if not isinstance(found, ExtensionContext):
            rep.add("criterion", False)
            if not found:
                rep.add("reason", "no disjoint flag: the matroid is already modular")
            _add_failures(rep, found)
            rep.emit()
            return PROPERTY_FALSE
        ctx = found
    else:
        ctx = build_context(M, chosen[0], chosen[1])
        verdict = criterion_holds(M, ctx)
        if not verdict.holds:
            rep.add("criterion", False)
            rep.add("witness", _fmt_flag(verdict.witness))
            rep.emit()
            return PROPERTY_FALSE

    result = extend_once(M, ctx)
    rep.add("flag", _fmt_flag((ctx.flat3, ctx.flat2)))
    rep.add("pencil", ctx.pencil_size)
    rep.add("cross_lines", len(ctx.cross_lines))
    rep.add("star_lines", len(ctx.star_lines))
    rep.add("star_planes", len(ctx.star_planes))
    rep.add("criterion", True)
    rep.add("new_element", result.new_element)
    rep.add("defect_before", result.defect_before)
    rep.add("defect_after", result.defect_after)
    rep.add("profile", profile(result.extended).counts)
    if args.output:
        Path(args.output).write_text(
            matio.serialize_matroid(result.extended, name=f"{M.name or 'matroid'}_ext")
        )
        rep.add("output", args.output)
    rep.emit()
    return 0


def _add_failures(rep: Report, failures) -> None:
    for i, fail in enumerate(failures):
        rep.add(
            f"witness_{i}",
            f"{_fmt_flag((fail.flat3, fail.flat2))} escapes at {_fmt_flag(fail.witness)}",
        )


def cmd_complete(args) -> int:
    _require_writable(args.output)
    M = _load(args.path)
    rep = Report(args.machine)
    outcome = complete_to_modular(M, max_steps=args.max_steps)
    rep.add("steps", len(outcome.steps))
    trajectory = [s.defect_before for s in outcome.steps]
    trajectory.append(outcome.steps[-1].defect_after if outcome.steps else total_modular_defect(M).total)
    rep.add("defect_trajectory", trajectory)
    for s in outcome.steps:
        rep.add(
            f"step_{s.step}",
            f"flag {_fmt_flag((s.flat3, s.flat2))} defect {s.defect_before} -> {s.defect_after}",
        )
    if not outcome.ok:
        rep.add("completed", False)
        _add_failures(rep, outcome.failures)
        rep.emit()
        return PROPERTY_FALSE
    rep.add("completed", True)
    rep.add("profile", profile(outcome.matroid).counts)
    if args.output:
        Path(args.output).write_text(
            matio.serialize_matroid(outcome.matroid, name=f"{M.name or 'matroid'}_completed")
        )
        rep.add("output", args.output)
    rep.emit()
    return 0


def cmd_verify(args) -> int:
    _require_count("--trials", args.trials)
    # The flat axioms are checked once, below, so a failure is reported, not a parse error.
    M = matio.parse_matroid(Path(args.path).read_text(), verify=False)
    if args.exhaustive and M.ground_size > core.EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive mode is limited to {core.EXHAUSTIVE_LIMIT} elements")
    rep = Report(args.machine)
    flat_report = core.verify_flat_axioms(M)
    rep.add("flat_axioms", "pass" if flat_report.passed else "fail")
    if args.exhaustive or (args.seed is None and M.ground_size <= core.EXHAUSTIVE_LIMIT):
        rank_report = core.verify_rank_axioms(M, mode="exhaustive")
        rep.add("rank_mode", "exhaustive")
    else:
        seed = args.seed if args.seed is not None else 0
        rank_report = core.verify_rank_axioms(M, mode="sampled", seed=seed, trials=args.trials)
        rep.add("rank_mode", f"sampled seed={seed} trials={args.trials}")
    rep.add("rank_axioms", "pass" if rank_report.passed else "fail")
    violations = list(flat_report.violations) + list(rank_report.violations)
    rep.add("violations", len(violations))
    for i, v in enumerate(violations):
        witnesses = " ".join(_fmt(w) for w in v.witnesses)
        rep.add(f"violation_{i}", f"{v.axiom} {witnesses} ({v.detail})")
    rep.emit()
    return 0 if not violations else PROPERTY_FALSE


def cmd_iso(args) -> int:
    M1, M2 = _load(args.path_a), _load(args.path_b)
    rep = Report(args.machine)
    bijection = is_isomorphic(M1, M2)
    rep.add("isomorphic", bijection is not None)
    if bijection is not None:
        rep.add("bijection", ";".join(f"{a}:{b}" for a, b in bijection.items()))
    rep.emit()
    return 0 if bijection is not None else PROPERTY_FALSE


def cmd_arrangement(args) -> int:
    _require_count("--samples", args.samples)
    M = _load(args.path)
    rep = Report(args.machine)
    if M.rank != 4 or not M.is_loopless:
        raise ValueError("arrangement report requires a loopless rank-4 matroid")
    points, lines, planes = classify(M)
    rep.add("points", len(points))
    rep.add("lines", len(lines))
    rep.add("planes", len(planes))
    connectivity = check_line_connectivity(M)
    rep.add("line_connectivity", "pass" if connectivity.passed else "fail")
    for i, v in enumerate(connectivity.violations[:4]):
        rep.add(f"disconnected_{i}", _fmt_flag(v.witnesses))

    rng = random.Random(args.seed if args.seed is not None else 0)
    proper = [f for k in range(1, M.rank) for f in flats_of_rank(M, k)]
    rep.add("incidence_checks", args.samples)
    meeting = sum(meet_at_point(M, rng.sample(proper, 2)) for _ in range(args.samples))
    rep.add("incidence_meeting", meeting)
    rep.emit()
    return 0 if connectivity.passed else PROPERTY_FALSE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermod",
        description="Flat-lattice matroid toolkit: analyze, verify, extend, complete.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine(p):
        p.add_argument("--machine", action="store_true", help="key-value output")

    p = sub.add_parser("generate", help="write a fixture matroid to a .mat file")
    p.add_argument("kind", choices=["pg3", "uniform", "vamos"])
    p.add_argument("--q", type=int, help="field order for pg3 (prime)")
    p.add_argument("--r", type=int, help="rank for uniform")
    p.add_argument("--n", type=int, help="ground size for uniform")
    p.add_argument("-o", "--output", help="output path (default <name>.mat)")
    p.add_argument("--pts", help="also write the point configuration (pg3 only)")
    add_machine(p)

    p = sub.add_parser("analyze", help="rank, profile, connectivity, modularity summary")
    p.add_argument("path")
    add_machine(p)

    p = sub.add_parser("extend", help="single-element extension along a disjoint flag")
    p.add_argument("path")
    p.add_argument("--f", help="rank-3 flat of the flag, e.g. '0,1,2' (default: auto)")
    p.add_argument("--l", help="rank-2 flat of the flag (default: auto)")
    p.add_argument("-o", "--output", help="write the extended matroid here")
    add_machine(p)

    p = sub.add_parser("complete", help="iterate extensions until modular")
    p.add_argument("path")
    p.add_argument("-o", "--output", help="write the completed matroid here")
    p.add_argument("--max-steps", type=int, default=None)
    add_machine(p)

    p = sub.add_parser("verify", help="flat and rank axiom suites")
    p.add_argument("path")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=10000)
    add_machine(p)

    p = sub.add_parser("iso", help="search for an isomorphism between two matroids")
    p.add_argument("path_a")
    p.add_argument("path_b")
    add_machine(p)

    p = sub.add_parser("arrangement", help="point/line/plane census and incidence checks")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=200)
    add_machine(p)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        # Looked up at call time, so a replaced ``cmd_<verb>`` is the one called.
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:  # matio.ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except StepBudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PROPERTY_FALSE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
