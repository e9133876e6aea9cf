"""Tests of the benchmark itself, on small versions of its workloads.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import hypermod  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "complete": workloads.complete_workload(3),
    "ingest": workloads.ingest_workload(3, 8),
    "analyze": workloads.analyze_workload(3, 2),
}

# Layers that must read 0 on each workload, as the README's layer map says.
IDLE = {
    "complete": [
        "cli.analyze.s", "cli.generate.s", "cli.verify.s",
        "realize.flats_built", "core.verify_rank_axioms.calls", "core.components.calls",
    ],
    "ingest": [
        "cli.complete.s", "cli.analyze.s", "core.restrict.calls", "core.components.calls",
        "modularity.total_modular_defect.calls", "modularity.is_modular.calls",
        "modularity.hypermodularity_witness.calls", "modularity.pair_scans",
        "extension.build_context.calls", "extension.criterion_holds.calls",
        "extension.extend_once.calls", "extension.steps",
    ],
    "analyze": [
        "cli.complete.s", "cli.generate.s", "cli.verify.s", "matio.bytes_serialized",
        "realize.flats_built", "core.verify_rank_axioms.calls", "core.restrict.calls",
        "extension.build_context.calls", "extension.criterion_holds.calls",
        "extension.extend_once.calls", "extension.steps",
    ],
}

# Layers that must do work on each workload.
BUSY = {
    "complete": [
        "cli.complete.s", "core.Matroid.calls", "core.restrict.calls",
        "modularity.pair_scans", "extension.build_context.calls",
        "extension.extend_once.calls", "matio.bytes_serialized",
    ],
    "ingest": [
        "cli.generate.s", "cli.verify.s", "realize.flats_built",
        "core.verify_rank_axioms.calls", "matio.bytes_parsed", "matio.bytes_serialized",
    ],
    "analyze": ["cli.analyze.s", "core.components.calls", "modularity.pair_scans"],
}


def _bench(kind, tmp_path, trace, workload=None, seed=3):
    return run.benchmark(workload or SMALL[kind], seed, 0.0, trace, tmp_path / "work", 0.0)


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def _bindings():
    """Every callable bound in a hypermod namespace, plus the constructor."""
    out = {
        (name, key): value
        for name, module in sys.modules.items()
        if name.split(".")[0] == "hypermod"
        for key, value in vars(module).items()
        if callable(value)
    }
    out[("Matroid", "__init__")] = hypermod.Matroid.__init__
    return out


def test_closed_forms_match_pinned_values():
    assert workloads.pg3_profile(3) == (1, 40, 130, 40, 1)
    assert workloads.pg3_profile(5) == (1, 156, 806, 156, 1)
    assert (workloads.defect_per_point(3), workloads.flags_per_point(3)) == (195, 117)
    assert (workloads.defect_per_point(5), workloads.flags_per_point(5)) == (1240, 775)
    assert workloads.deletion_profile(3, 1) == (1, 39, 130, 40, 1)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_untraced_run_is_correct_and_reports_end_to_end(kind, tmp_path):
    result, detail = _bench(kind, tmp_path, trace=False)
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert set(result["metrics"]) == set(_benchmark_json()["end_to_end_names"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["env"]["seed"] == 3 and detail["env"]["nproc"] >= 1


def test_wrappers_are_installed_everywhere_and_restored(tmp_path):
    before = _bindings()
    _bench("complete", tmp_path, trace=False)
    assert _bindings() == before  # the untraced run calls the original functions

    original = hypermod.modularity.total_modular_defect
    t = tracer.Tracer()
    with t.installed():
        wrapped = hypermod.modularity.total_modular_defect
        assert wrapped is not original and wrapped.__wrapped__ is original
        for module in (hypermod.extension, hypermod.cli, hypermod):
            assert module.total_modular_defect is wrapped
        assert hypermod.Matroid.__init__ is not before[("Matroid", "__init__")]
    after = _bindings()
    assert after == before
    assert not any(hasattr(v, "__wrapped__") for v in after.values())


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_counts_repeat_and_idle_layers_read_zero(kind, tmp_path):
    first, _ = _bench(kind, tmp_path, trace=True)
    second, _ = _bench(kind, tmp_path, trace=True)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(tracer.PER_LAYER)
    a, b = _values(first), _values(second)
    counts = [m for m, unit in tracer.PER_LAYER.items() if unit in ("count", "bytes")]
    assert {m: a[m] for m in counts} == {m: b[m] for m in counts}
    for metric in IDLE[kind]:
        assert a[metric] == 0, metric
    for metric in BUSY[kind]:
        assert a[metric] > 0, metric
    assert a["trace.spans"] > 0


def test_traced_completion_counts(tmp_path):
    result, _ = _bench("complete", tmp_path, trace=True)
    v = _values(result)
    assert v["extension.steps"] == 2
    assert v["cli.complete.s"] >= v["extension.complete_to_modular.s"] > 0
    assert 0 < v["extension.flag_accept_ratio"] <= 1
    assert v["core.verify_flat_axioms.calls"] == 3  # one parse, one per step


def test_checker_flags_tampered_output():
    call = workloads.Call(("complete", "in.mat"), {"steps": "2", "defect_trajectory": "390,195,0"})
    good = "steps 2\ndefect_trajectory 390,195,0\ncompleted true\n"
    assert workloads.mismatches(call, 0, good) == []
    assert workloads.mismatches(call, 0, good.replace("390,195,0", "390,194,0"))
    assert workloads.mismatches(call, 1, good)
    assert workloads.mismatches(call, 0, "steps 2\n")


def test_tampered_expectation_counts_toward_error_rate(tmp_path):
    base = SMALL["analyze"]

    def tampered_setup(workdir, seed):
        calls = base.setup(workdir, seed)
        wrong = {**calls[0].expect, "total_defect": "0"}
        return [dataclasses.replace(calls[0], expect=wrong), calls[1]]

    workload = workloads.Workload(base.name, tampered_setup)
    result, detail = _bench("analyze", tmp_path, trace=False, workload=workload)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert detail["error_rate"] == 0.5
    assert "total_defect" in detail["problems"][0]


def _benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec["end_to_end_names"] = [m["name"] for m in spec["end_to_end"]]
    return spec


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert spec["end_to_end_names"] == ["op_s", "setup_s", "peak_rss_mb"]


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-q3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not Path(tmp_path / "perfbench" / "_work").exists()
