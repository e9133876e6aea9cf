"""hypermod benchmark: drives ``hypermod.cli.main`` in-process on one workload.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload complete-q5 --seed 1 --seconds 30 --trace 0

The loop is closed: one caller, and the next operation starts only after
the previous one returned.  Set-up builds the workload's input files from
the seed (several times, to time it), then every operation re-reads its
inputs, so no per-matroid cache survives from one operation to the next.
Every call's exit code and ``--machine`` output are checked against
closed-form values.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half traced and reports the per-layer metrics.
The last line of standard output is the JSON result; the line before
it records the environment, the seed and the raw samples.  The program
is imported from ``src/`` of the checkout this file sits in; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_MIN_SECONDS = 1.0


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import hypermod from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hypermod" / "__init__.py").is_file():
        raise ProgramMissing(f"no hypermod sources under {src}")
    sys.path.insert(0, str(src))
    import hypermod

    if Path(hypermod.__file__).resolve().parent != (src / "hypermod").resolve():
        raise ProgramMissing(f"hypermod imported from {hypermod.__file__}, not {src}")
    return hypermod


@dataclass
class Measurement:
    op_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_call(call) -> tuple[float, list[str]]:
    """Time one CLI call on a freshly collected heap; return its time and mismatches."""
    from hypermod import cli

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(call.argv))
        except Exception:  # an uncaught error is a failed call, not a crashed benchmark
            code = None
            traceback.print_exc()
    elapsed = perf_counter() - start
    found = mismatches(call, code, out.getvalue())
    if code is None:
        found.append(err.getvalue().strip().splitlines()[-1])
    return elapsed, found


def measure(calls, seconds: float, tracer=None) -> Measurement:
    """Run the operation until another one would overrun ``seconds`` (at least once)."""
    m = Measurement()
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_op(len(m.op_seconds))
        op_time = 0.0
        for call in calls:
            elapsed, found = run_call(call)
            op_time += elapsed
            m.attempted += 1
            if found:
                m.failed += 1
                m.problems.extend(found)
        m.op_seconds.append(op_time)
        if perf_counter() - start + statistics.median(m.op_seconds) > seconds:
            return m


def set_up(workload, workdir: Path, seed: int, reps: int, min_seconds: float):
    """Build the inputs at least ``reps`` times and for ``min_seconds``; return the calls and times."""
    times = []
    while True:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = perf_counter()
        calls = workload.setup(workdir, seed)
        times.append(perf_counter() - start)
        if len(times) >= reps and (
            sum(times) >= min_seconds or len(times) >= SETUP_MAX_REPS
        ):
            return calls, times


def environment(seed: int) -> dict:
    import numpy

    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def benchmark(
    workload, seed: int, seconds: float, trace: bool, workdir: Path,
    setup_seconds: float = SETUP_MIN_SECONDS,
):
    """One benchmark run; returns (result, detail) as printed on the last two lines.

    Set-up is timed only in the untraced run, so the traced run builds
    its inputs once.
    """
    if trace:
        calls, setup_times = set_up(workload, workdir, seed, 1, 0.0)
    else:
        calls, setup_times = set_up(workload, workdir, seed, SETUP_MIN_REPS, setup_seconds)
    gc.collect()
    if trace:
        untraced = measure(calls, seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(calls, seconds / 2, tracer)
        runs = [untraced, traced]
        metrics = layer_metrics(tracer, traced.op_seconds, untraced.op_seconds)
    else:
        runs = [measure(calls, seconds)]
        metrics = {
            "op_s": {"value": statistics.median(runs[0].op_seconds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload.name,
        "trace": int(trace),
        "env": environment(seed),
        "calls_per_op": len(calls),
        "op_seconds": [r.op_seconds for r in runs],
        "setup_seconds": setup_times,
        "error_rate": failed / attempted,
        "problems": [p for r in runs for p in r.problems][:20],
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, detail = benchmark(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
