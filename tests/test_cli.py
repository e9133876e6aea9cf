from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from hypermod import (
    Matroid,
    components,
    delete,
    matroid_from_points,
    pg3,
    serialize_matroid,
    total_modular_defect,
    uniform,
    vamos,
    verify_rank_axioms,
)
from hypermod import cli, core, extension, matio
from hypermod.cli import _too_large, main
from hypermod.extension import CriterionResult, InternalConsistencyError


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["generate", "pg3", "--q", "2", "-o", str(d / "pg32.mat"), "--pts", str(d / "pg32.pts")])
    assert rc == 0
    (d / "pg32m0.mat").write_text(serialize_matroid(delete(pg3(2), {0}), name="pg32_minus0"))
    return d


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def machine_dict(out: str) -> dict[str, str]:
    pairs = [line.split(" ", 1) for line in out.strip().splitlines()]
    return {k: v for k, v in pairs}


def test_generate_pg3(workdir, capsys):
    rc, out = run(capsys, ["analyze", str(workdir / "pg32.mat"), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert d["profile"] == "1,15,35,15,1"
    assert d["modular"] == "true"
    assert d["total_defect"] == "0"


def test_generate_uniform(tmp_path, capsys):
    rc, out = run(capsys, ["generate", "uniform", "--r", "3", "--n", "4", "-o", str(tmp_path / "u.mat"), "--machine"])
    assert rc == 0
    assert machine_dict(out)["profile"] == "1,4,6,1"


def test_generate_vamos_analyze(tmp_path, capsys):
    rc, _ = run(capsys, ["generate", "vamos", "-o", str(tmp_path / "v.mat")])
    assert rc == 0
    rc, out = run(capsys, ["analyze", str(tmp_path / "v.mat"), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert d["hypermodular"] == "false"
    assert "hypermodular_witness" in d


def test_generate_rejects_nonprime(capsys):
    assert main(["generate", "pg3", "--q", "4", "-o", "/tmp/never.mat"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["pg3", "--q", "1000003"],  # prime: q^4 candidate vectors
        ["uniform", "--r", "12", "--n", "60"],  # about 10^11 flats
        ["uniform", "--r", "1", "--n", "10000000000"],  # two flats on a huge ground set
    ],
)
def test_generate_refuses_a_lattice_past_the_limit(tmp_path, capsys, argv):
    start = time.perf_counter()
    rc = main(["generate", *argv, "-o", str(tmp_path / "never.mat")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "at most" in capsys.readouterr().err
    assert not (tmp_path / "never.mat").exists()


def test_generate_admits_the_largest_fixtures():
    # PG(3,7) has 3652 flats, U(4,14) 471 and U(12,12) 4096.
    admitted = [("pg3", 7, None, None), ("uniform", None, 4, 14), ("uniform", None, 12, 12)]
    for kind, q, r, n in admitted:
        assert not _too_large(argparse.Namespace(kind=kind, q=q, r=r, n=n))
    assert _too_large(argparse.Namespace(kind="uniform", q=None, r=13, n=13))


def test_generate_builds_the_largest_projective_fixture(tmp_path, capsys):
    q = 7
    out = tmp_path / "pg37.mat"
    start = time.perf_counter()
    rc, text = run(capsys, ["generate", "pg3", "--q", str(q), "-o", str(out), "--machine"])
    assert time.perf_counter() - start < 4.0
    assert rc == 0
    assert machine_dict(text)["profile"] == "1,400,2850,400,1"
    sizes: dict[int, set[int]] = {}
    for line in out.read_text().splitlines():
        if line.startswith("flat "):
            grade, members = line[len("flat "):].split(":")
            sizes.setdefault(int(grade), set()).add(len(members.split()))
    # a line of PG(3,q) has q + 1 points, a plane q^2 + q + 1
    assert sizes[2] == {q + 1} and sizes[3] == {q * q + q + 1}


def test_a_document_past_the_flat_limit_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    # U(4,32) has 1 + 32 + 496 + 4960 + 1 = 5490 flats.
    lines = ["matroid u432", "ground 32", "rank 4"]
    for k in range(4):
        lines += (f"flat {k}: " + " ".join(map(str, f)) for f in itertools.combinations(range(32), k))
    lines.append("flat 4: " + " ".join(map(str, range(32))))
    path = tmp_path / "u432.mat"
    path.write_text("\n".join(lines) + "\n")

    def unreachable(*args, **kwargs):
        raise AssertionError("a Matroid was built")

    monkeypatch.setattr(matio, "Matroid", unreachable)
    for verb in ("verify", "analyze"):
        start = time.perf_counter()
        rc = main([verb, str(path), "--machine"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        # The 5001st flat is on line 5004, after the three headers.
        assert captured.err == "error: line 5004: more than 5000 flats, the limit of a document\n"


def test_verify_checks_the_largest_exhaustive_fixture_fast(tmp_path, capsys):
    path = tmp_path / "u414.mat"
    path.write_text(serialize_matroid(uniform(4, 14), name="u414"))
    start = time.perf_counter()
    rc, text = run(capsys, ["verify", str(path), "--exhaustive", "--machine"])
    assert time.perf_counter() - start < 0.5
    assert rc == 0
    assert machine_dict(text)["violations"] == "0"


def test_analyze_deletion(workdir, capsys):
    rc, out = run(capsys, ["analyze", str(workdir / "pg32m0.mat"), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert d["hypermodular"] == "true"
    assert d["modular"] == "false"
    assert d["disjoint_flags"] == "28"
    assert d["total_defect"] == "49"


@pytest.fixture(scope="module")
def pg35m01(pg35, tmp_path_factory):
    """PG(3,5) without two points, and the .mat file it serializes to."""
    D = delete(pg35, {0, 1})
    path = tmp_path_factory.mktemp("scale") / "pg35m01.mat"
    path.write_text(serialize_matroid(D, name="pg35_minus01"))
    return D, path


def test_analyze_pg35_deletion_at_scale(pg35m01, capsys):
    D, path = pg35m01
    start = time.perf_counter()
    assert components(D).kappa == 1
    assert time.perf_counter() - start < 2.0
    rc, out = run(capsys, ["analyze", str(path), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    # two deleted points, each adding q^2(q^2+q+1) = 775 flags and 1240 defect at q = 5
    assert (d["kappa"], d["total_defect"], d["disjoint_flags"]) == ("1", "2480", "1550")


def test_extend_auto(workdir, tmp_path, capsys):
    out_path = tmp_path / "ext.mat"
    rc, out = run(capsys, ["extend", str(workdir / "pg32m0.mat"), "-o", str(out_path), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert d["criterion"] == "true"
    assert d["pencil"] == "3"
    assert d["star_lines"] == "7"
    assert d["star_planes"] == "7"
    assert d["defect_before"] == "49"
    assert d["defect_after"] == "0"
    assert d["profile"] == "1,15,35,15,1"
    assert out_path.exists()


def test_extend_explicit_flag(workdir, capsys):
    from hypermod import disjoint_rank32_pairs, delete, pg3

    f3, f2 = disjoint_rank32_pairs(delete(pg3(2), {0}))[5]
    rc, out = run(
        capsys,
        [
            "extend",
            str(workdir / "pg32m0.mat"),
            "--f", ",".join(str(e) for e in sorted(f3)),
            "--l", ",".join(str(e) for e in sorted(f2)),
            "--machine",
        ],
    )
    assert rc == 0
    assert machine_dict(out)["criterion"] == "true"


def test_extend_modular_input(workdir, capsys):
    rc, out = run(capsys, ["extend", str(workdir / "pg32.mat")])
    assert rc == 1
    assert "no disjoint flag" in out


def test_extend_bad_flag(workdir, capsys):
    rc = main(["extend", str(workdir / "pg32m0.mat"), "--f", "0,1", "--l", "0,1,2"])
    assert rc == 2
    rc = main(["extend", str(workdir / "pg32m0.mat"), "--f", "0,1"])
    assert rc == 2


def test_extend_refuses_a_bad_element_list(workdir, capsys):
    rc = main(["extend", str(workdir / "pg32m0.mat"), "--f", "0 x", "--l", "1,2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: bad element list '0 x'\n"
    assert captured.out == ""


def test_extend_outside_the_theory_is_a_usage_error(tmp_path, capsys):
    # rank 3, and rank 4 but not hypermodular
    for name, M in (("u35", uniform(3, 5)), ("vamos", vamos())):
        path = tmp_path / f"{name}.mat"
        path.write_text(serialize_matroid(M, name=name))
        rc, out = run(capsys, ["extend", str(path), "--machine"])
        assert rc == 2
        assert out == ""


def test_extend_then_complete_agree(workdir, tmp_path, capsys):
    # the auto flag order of extend matches the completion loop
    ext_path = tmp_path / "e.mat"
    comp_path = tmp_path / "c.mat"
    run(capsys, ["extend", str(workdir / "pg32m0.mat"), "-o", str(ext_path)])
    run(capsys, ["complete", str(workdir / "pg32m0.mat"), "-o", str(comp_path)])
    ext = ext_path.read_text().splitlines()[1:]  # names differ
    comp = comp_path.read_text().splitlines()[1:]
    assert ext == comp


def test_complete(workdir, tmp_path, capsys):
    rc, out = run(capsys, ["complete", str(workdir / "pg32m0.mat"), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert d["steps"] == "1"
    assert d["defect_trajectory"] == "49,0"
    assert d["completed"] == "true"


def test_complete_two_step_fixture(tmp_path, capsys):
    from hypermod import pg3

    path = tmp_path / "pg33m01.mat"
    path.write_text(serialize_matroid(delete(pg3(3), {0, 1}), name="pg33_minus01"))
    rc, out = run(capsys, ["complete", str(path), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert d["steps"] == "2"
    assert d["defect_trajectory"] == "390,195,0"
    assert d["profile"] == "1,40,130,40,1"


def test_complete_modular_is_identity(workdir, tmp_path, capsys):
    out_path = tmp_path / "same.mat"
    rc, out = run(capsys, ["complete", str(workdir / "pg32.mat"), "-o", str(out_path), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert d["steps"] == "0"
    body = out_path.read_text().splitlines()[1:]
    assert body == (workdir / "pg32.mat").read_text().splitlines()[1:]


def test_complete_exhausted_budget_is_property_false(workdir, capsys):
    rc = main(["complete", str(workdir / "pg32m0.mat"), "--max-steps", "0", "--machine"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "no modular completion within 0 steps" in captured.err
    # a modular input needs no step, so the same budget suffices
    rc, out = run(capsys, ["complete", str(workdir / "pg32.mat"), "--max-steps", "0", "--machine"])
    assert rc == 0
    assert machine_dict(out)["steps"] == "0"


def _refuse_every_flag(monkeypatch):
    """Make the criterion fail on every flag, with its first and last star lines as the witness."""

    def refuse(M, ctx):
        return CriterionResult(False, (ctx.star_lines[0], ctx.star_lines[-1]))

    monkeypatch.setattr(extension, "criterion_holds", refuse)
    monkeypatch.setattr(cli, "criterion_holds", refuse)


def test_refusals_print_a_witness_per_flag(workdir, capsys, monkeypatch):
    _refuse_every_flag(monkeypatch)
    path = str(workdir / "pg32m0.mat")
    # All 28 disjoint flags of PG(3,2)∖{0} are refused, in canonical order.
    flags = total_modular_defect(delete(pg3(2), {0})).disjoint_flags
    assert len(flags) == 28

    def shown(flat):
        return "{" + ",".join(map(str, sorted(flat))) + "}"

    escapes = [
        f"witness_{i} ({shown(f3)},{shown(f2)}) escapes at " + "({0,1},{12,13})"
        for i, (f3, f2) in enumerate(flags)
    ]
    assert escapes[0] == "witness_0 ({0,1,2,3,4,5},{6,7}) escapes at ({0,1},{12,13})"

    rc, out = run(capsys, ["complete", path, "--machine"])
    assert rc == 1
    assert out.splitlines() == ["steps 0", "defect_trajectory 49", "completed false", *escapes]
    rc, out = run(capsys, ["extend", path, "--machine"])
    assert rc == 1
    assert out.splitlines() == ["criterion false", *escapes]
    rc, out = run(capsys, ["extend", path, "--f", "0,1,2,3,4,5", "--l", "6,7", "--machine"])
    assert rc == 1
    assert out == "criterion false\nwitness ({0,1},{12,13})\n"


def test_complete_negative_budget_is_usage_error(workdir, capsys):
    rc, out = run(capsys, ["complete", str(workdir / "pg32.mat"), "--max-steps", "-1", "--machine"])
    assert rc == 2
    assert out == ""


def test_verify(workdir, capsys):
    rc, out = run(capsys, ["verify", str(workdir / "pg32m0.mat"), "--exhaustive", "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert d["flat_axioms"] == "pass"
    assert d["rank_axioms"] == "pass"
    assert d["violations"] == "0"
    rc, out = run(capsys, ["verify", str(workdir / "pg32.mat"), "--seed", "3", "--machine"])
    assert rc == 0


def test_verify_negative_trials_is_usage_error(workdir, capsys):
    rc = main(["verify", str(workdir / "pg32.mat"), "--trials", "-3", "--machine"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--trials must be nonnegative" in captured.err


def test_verify_refuses_exhaustive_before_checking(workdir, capsys, monkeypatch):
    def unreachable(M):
        raise AssertionError("verify_flat_axioms ran before the ground size was checked")

    monkeypatch.setattr(core, "verify_flat_axioms", unreachable)
    rc = main(["verify", str(workdir / "pg32.mat"), "--exhaustive", "--machine"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "exhaustive mode is limited to 14 elements" in captured.err


def test_verify_reports_a_flat_axiom_failure(tmp_path, capsys):
    # Without one line, the two planes through it meet in no stored flat.
    grades = [list(g) for g in pg3(2).flats_by_rank]
    grades[2].pop(0)
    path = tmp_path / "holey.mat"
    path.write_text(serialize_matroid(Matroid(15, grades), name="holey"))
    rc, out = run(capsys, ["verify", str(path), "--trials", "100", "--machine"])
    assert rc == 1
    d = machine_dict(out)
    assert d["flat_axioms"] == "fail"
    assert int(d["violations"]) > 0
    assert any(k.startswith("violation_") and v.startswith("F1 ") for k, v in d.items())


def test_verify_golden_for_a_flat_nested_downward(tmp_path, capsys):
    # {0} has grade 2 but lies inside {0,1} of grade 1.  Ground 3 is checked exhaustively.
    M = Matroid(3, [[()], [{0, 1}, {2}], [{0}, {1, 2}], [{0, 1, 2}]])
    path = tmp_path / "nested.mat"
    path.write_text(serialize_matroid(M, name="nested"))
    rc, out = run(capsys, ["verify", str(path), "--machine"])
    assert rc == 1
    assert out == "".join(line + "\n" for line in [
        "flat_axioms fail",
        "rank_mode exhaustive",
        "rank_axioms fail",
        "violations 15",
        "violation_0 F1 {0,1} {1,2} (intersection [1] is not a flat)",
        "violation_1 F2 {} {1} (no cover of the flat holds the element)",
        "violation_2 F2 {2} {0} (no cover of the flat holds the element)",
        "violation_3 F2 {0} {2} (no cover of the flat holds the element)",
        "violation_4 grading {0} (declared grade 2 but longest chain has length 1)",
        "violation_5 grading {0,1} (declared grade 1 but longest chain has length 2)",
        "violation_6 R3 {0,1} {2} (r(A∪B)+r(A∩B)=3 exceeds r(A)+r(B)=2)",
        "violation_7 R3 {0,1} {1,2} (r(A∪B)+r(A∩B)=4 exceeds r(A)+r(B)=3)",
        "violation_8 R1 {0,2} (rank 3 exceeds cardinality)",
        "violation_9 R3 {0} {2} (submodularity fails)",
        "violation_10 R3 {0,1} {2} (submodularity fails)",
        "violation_11 R3 {0,1} {1,2} (submodularity fails)",
        "violation_12 R3 {2} {0} (submodularity fails)",
        "violation_13 R3 {2} {0,1} (submodularity fails)",
        "violation_14 R3 {1,2} {0,1} (submodularity fails)",
    ])


def test_verify_with_no_trials_is_exact(tmp_path, capsys):
    # No pair of flats fails R3, but the points {0} and {1} both have rank 2.
    path = tmp_path / "jump.mat"
    path.write_text(serialize_matroid(Matroid(2, [[()], [], [{0, 1}]]), name="jump"))
    rc, out = run(capsys, ["verify", str(path), "--seed", "0", "--trials", "0", "--machine"])
    assert rc == 1
    lines = out.splitlines()
    assert "rank_axioms fail" in lines
    assert "violation_1 R1 {0} (rank 2 exceeds cardinality)" in lines
    assert "violation_2 R1 {1} (rank 2 exceeds cardinality)" in lines


def test_verify_pg35_deletion_at_scale(pg35m01, capsys):
    D, path = pg35m01
    start = time.perf_counter()
    assert verify_rank_axioms(D, trials=0).passed
    assert time.perf_counter() - start < 2.0
    rc, out = run(capsys, ["verify", str(path), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert (d["flat_axioms"], d["rank_axioms"], d["violations"]) == ("pass", "pass", "0")


def test_iso(workdir, tmp_path, capsys):
    other = tmp_path / "pg32m7.mat"
    other.write_text(serialize_matroid(delete(pg3(2), {7}), name="pg32_minus7"))
    rc, out = run(capsys, ["iso", str(workdir / "pg32m0.mat"), str(other), "--machine"])
    assert rc == 0
    assert machine_dict(out)["isomorphic"] == "true"
    rc, out = run(capsys, ["iso", str(workdir / "pg32.mat"), str(workdir / "pg32m0.mat")])
    assert rc == 1


def test_arrangement(workdir, capsys):
    rc, out = run(capsys, ["arrangement", str(workdir / "pg32.mat"), "--seed", "7", "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert (d["points"], d["lines"], d["planes"]) == ("15", "35", "15")
    assert d["line_connectivity"] == "pass"
    assert set(d) == {
        "points", "lines", "planes", "line_connectivity", "incidence_checks", "incidence_meeting",
    }
    assert d["incidence_checks"] == "200"


def test_arrangement_names_the_first_disconnected_points(tmp_path, capsys):
    # The planes of U(4,6) are its triples; {0,1,2} and {0,3,4} share one
    # element and no line.  The report lists the first four such pairs.
    path = tmp_path / "u46.mat"
    path.write_text(serialize_matroid(uniform(4, 6), name="u46"))
    rc, out = run(capsys, ["arrangement", str(path), "--machine"])
    assert rc == 1
    d = machine_dict(out)
    assert (d["points"], d["lines"], d["planes"], d["line_connectivity"]) == ("20", "15", "6", "fail")
    assert [d[f"disconnected_{i}"] for i in range(4)] == [
        "({0,1,2},{0,3,4})", "({0,1,2},{0,3,5})", "({0,1,2},{0,4,5})", "({0,1,2},{1,3,4})",
    ]
    assert "disconnected_4" not in d


def test_arrangement_lists_few_disconnected_points_in_bounded_time_and_memory(tmp_path, capsys):
    # U(4,20) has 1140 planes and about 620 000 pairs of them sharing no
    # line; listing a witness for each took 1.4 s and about 100 MB.
    path = tmp_path / "u420.mat"
    path.write_text(serialize_matroid(uniform(4, 20), name="u420"))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rc, out = run(capsys, ["arrangement", str(path), "--machine"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    d = machine_dict(out)
    assert d["line_connectivity"] == "fail"
    assert [d[f"disconnected_{i}"] for i in range(4)] == [
        "({0,1,2},{0,3,4})", "({0,1,2},{0,3,5})", "({0,1,2},{0,3,6})", "({0,1,2},{0,3,7})",
    ]
    assert elapsed < 1.0 and peak < 10_000_000


@pytest.mark.parametrize("seed,samples,meeting", [(0, 200, 91), (1, 10000, 4568), (7, 200, 90)])
def test_arrangement_samples_repeat_per_seed(workdir, capsys, seed, samples, meeting):
    argv = ["arrangement", str(workdir / "pg32.mat"), "--seed", str(seed), "--samples", str(samples)]
    rc, out = run(capsys, argv + ["--machine"])
    assert rc == 0
    assert out.endswith(f"incidence_checks {samples}\nincidence_meeting {meeting}\n")
    assert run(capsys, argv + ["--machine"]) == (rc, out)


def test_arrangement_samples_in_constant_memory(workdir, capsys):
    # Listing the samples first grew the peak by about 77 bytes per sample.
    def peak(samples):
        tracemalloc.start()
        try:
            main(["arrangement", str(workdir / "pg32.mat"), "--samples", str(samples), "--machine"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(0)  # the first call also pays for one-time allocations
    assert peak(10_000) < peak(1_000) + 100_000


def test_arrangement_negative_samples_is_usage_error(workdir, capsys):
    rc = main(["arrangement", str(workdir / "pg32.mat"), "--samples", "-5", "--machine"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--samples must be nonnegative" in captured.err


def test_missing_file(capsys):
    assert main(["analyze", "/tmp/does-not-exist.mat"]) == 2


def test_a_document_with_a_million_bad_meets_is_reported_in_seconds(tmp_path, capsys):
    # Every 3-set {0,a,b} of 61 elements is a grade-1 flat: 1772 flats, and
    # each of the 1 565 565 pairs of lines meets in {0} or {0,a}, no flat.
    lines = ["matroid crafted", "ground 61", "rank 2", "flat 0:"]
    lines += [f"flat 1: 0 {a} {b}" for a, b in itertools.combinations(range(1, 61), 2)]
    lines.append("flat 2: " + " ".join(map(str, range(61))))
    path = tmp_path / "crafted.mat"
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    rc, out = run(capsys, ["verify", str(path), "--machine"])
    assert time.perf_counter() - start < 3.0
    assert rc == 1
    d = machine_dict(out)
    f1 = [v for k, v in d.items() if k.startswith("violation_") and v.startswith("F1 ")]
    assert len(f1) == core._VIOLATION_CAP
    assert f1[0] == "F1 {0,1,2} {0,1,3} (intersection [0, 1] is not a flat)"
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 2
    assert time.perf_counter() - start < 3.0
    assert "flat axioms violated (F1)" in capsys.readouterr().err


@pytest.mark.parametrize("error", [InternalConsistencyError("broken star"), RuntimeError("broken")])
def test_an_internal_error_exits_3(workdir, capsys, monkeypatch, error):
    def fail(M):
        raise error

    monkeypatch.setattr(cli, "total_modular_defect", fail)
    assert main(["analyze", str(workdir / "pg32.mat")]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and str(error) in captured.err


def _with_loop(M):
    """``M`` with a loop added as its last element."""
    return Matroid(M.ground_size + 1, [[set(f) | {M.ground_size} for f in g] for g in M.flats_by_rank])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "pg3"], "requires --q"),
        (["generate", "uniform", "--r", "3"], "requires --r and --n"),
        (["generate", "uniform", "--n", "3"], "requires --r and --n"),
        (["generate", "uniform", "--r", "4", "--n", "3"], "need 0 <= r <= n"),
    ],
)
def test_generate_usage_errors_exit_2(tmp_path, capsys, argv, message):
    assert main(argv + ["-o", str(tmp_path / "never.mat")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "never.mat").exists()


@pytest.mark.parametrize("kind", [["uniform", "--r", "2", "--n", "4"], ["vamos"]])
def test_generate_refuses_pts_for_a_kind_without_points(tmp_path, capsys, monkeypatch, kind):
    def unreachable(*args, **kwargs):
        raise AssertionError("built before --pts was refused")

    for name in ("uniform", "vamos"):
        monkeypatch.setattr(cli.realize, name, unreachable)
    argv = ["generate", *kind, "-o", str(tmp_path / "never.mat"), "--pts", str(tmp_path / "never.pts")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --pts is only for pg3")
    assert list(tmp_path.iterdir()) == []


def test_calls_in_one_process_share_a_parser_but_not_options(workdir, capsys):
    # PG(3,2) has 15 elements, one past the exhaustive limit, so verify samples.
    path = str(workdir / "pg32.mat")
    rc, out = run(capsys, ["verify", path, "--seed", "3", "--trials", "7", "--machine"])
    assert rc == 0 and machine_dict(out)["rank_mode"] == "sampled seed=3 trials=7"
    parser = cli._parser
    rc, out = run(capsys, ["verify", path, "--machine"])
    assert rc == 0 and machine_dict(out)["rank_mode"] == "sampled seed=0 trials=10000"
    assert cli._parser is parser


def test_main_calls_the_verb_bound_at_call_time(workdir, capsys, monkeypatch):
    main(["analyze", str(workdir / "pg32.mat")])
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.path) or 0)
    assert main(["analyze", "anything.mat"]) == 0
    assert seen == ["anything.mat"] and capsys.readouterr().out.count("profile") == 1


UNWRITABLE_OUTPUTS = [
    (verb, output)
    for verb in ["complete", "extend", "generate", "generate --pts"]
    for output in ["directory", "missing/out.mat"]
]


# The last case gives generate no -o: its default, pg3_5.mat in the working
# directory, is a directory.
@pytest.mark.parametrize("verb, output", UNWRITABLE_OUTPUTS + [("generate", "pg3_5.mat")])
def test_an_unwritable_output_is_refused_before_any_work(
    workdir, tmp_path, capsys, monkeypatch, verb, output
):
    def unreachable(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    for owner in (cli, extension):
        monkeypatch.setattr(owner, "complete_to_modular", unreachable)
    monkeypatch.setattr(cli, "_load", unreachable)
    monkeypatch.setattr(cli.realize, "matroid_from_points", unreachable)
    monkeypatch.chdir(tmp_path)
    if "/" not in output:
        (tmp_path / output).mkdir()
    target = str(tmp_path / output)
    source = str(workdir / "pg32m0.mat")
    argv = {
        "complete": ["complete", source, "-o", target],
        "extend": ["extend", source, "-o", target],
        "generate": ["generate", "pg3", "--q", "5"] + (["-o", target] if output != "pg3_5.mat" else []),
        "generate --pts": ["generate", "pg3", "--q", "5", "-o", str(tmp_path / "pg.mat"), "--pts", target],
    }[verb]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: output")
    assert not (tmp_path / "pg.mat").exists()


GENERATE_KINDS = {
    "pg3_2": ["pg3", "--q", "2"],
    "uniform_3_5": ["uniform", "--r", "3", "--n", "5"],
    "vamos": ["vamos"],
}


@pytest.mark.parametrize("name", GENERATE_KINDS)
def test_generate_without_output_writes_the_matroid_name(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", *GENERATE_KINDS[name]]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [f"{name}.mat"]
    assert matio.parse_matroid((tmp_path / f"{name}.mat").read_text()).name == name


@pytest.mark.parametrize("M", [uniform(3, 5), _with_loop(uniform(4, 5))], ids=["rank-3", "looped"])
def test_arrangement_outside_loopless_rank_4_exits_2(tmp_path, capsys, M):
    path = tmp_path / "m.mat"
    path.write_text(serialize_matroid(M, name="m"))
    assert main(["arrangement", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "requires a loopless rank-4 matroid" in captured.err


def test_analyze_marks_what_is_undefined_n_a(tmp_path, capsys):
    # Hypermodularity needs rank 3 or more; disjoint flags a loopless rank-4 matroid.
    rows = {}
    for name, M in {"u24": uniform(2, 4), "looped": _with_loop(pg3(2))}.items():
        path = tmp_path / f"{name}.mat"
        path.write_text(serialize_matroid(M, name=name))
        rc, out = run(capsys, ["analyze", str(path), "--machine"])
        assert rc == 0
        rows[name] = machine_dict(out)
    assert (rows["u24"]["hypermodular"], rows["u24"]["disjoint_flags"]) == ("n/a", "n/a")
    assert (rows["looped"]["hypermodular"], rows["looped"]["disjoint_flags"]) == ("true", "n/a")
    assert rows["looped"]["loopless"] == "false"


def _run_module(*argv):
    """``python -m hypermod.cli`` in a fresh interpreter, with this checkout's package first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "hypermod.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_the_entry_point_exits_with_each_class(workdir, tmp_path):
    analyzed = _run_module("analyze", str(workdir / "pg32.mat"), "--machine")
    assert analyzed.returncode == 0 and "modular true" in analyzed.stdout
    # One line of PG(3,2) left out: F1 fails at the planes through it.
    grades = [list(g) for g in pg3(2).flats_by_rank]
    grades[2].pop(0)
    corrupt = tmp_path / "holey.mat"
    corrupt.write_text(serialize_matroid(Matroid(15, grades), name="holey"))
    verified = _run_module("verify", str(corrupt), "--machine")
    assert verified.returncode == 1 and "flat_axioms fail" in verified.stdout
    missing = _run_module("analyze", str(tmp_path / "missing.mat"))
    assert missing.returncode == 2 and missing.stdout == "" and "error:" in missing.stderr
    # A directory is no readable input and no writable output.
    for argv in (("analyze", str(tmp_path)), ("complete", str(workdir / "pg32.mat"), "-o", str(tmp_path))):
        unreadable = _run_module(*argv)
        assert unreadable.returncode == 2 and unreadable.stdout == ""
        assert unreadable.stderr.startswith("error:") and "Traceback" not in unreadable.stderr


def test_the_module_exits_with_the_code_main_returns(workdir, capsys):
    """``python -m hypermod.cli`` prints what ``main()`` prints and exits with its code."""
    for argv, code in ((["analyze", str(workdir / "pg32.mat"), "--machine"], 0), (["generate", "pg3"], 2)):
        assert main(argv) == code
        captured = capsys.readouterr()
        ran = _run_module(*argv)
        assert (ran.returncode, ran.stdout, ran.stderr) == (code, captured.out, captured.err)


# Every usage refusal of the verbs, each with the one line it prints.  ``{dir}``
# is the module's work directory; ``u36.mat`` is U(3,6), rank 3.
REFUSALS = [
    (["generate", "pg3"], "generate pg3 requires --q"),
    (["generate", "pg3", "--q", "4"], "q must be prime, got 4"),
    (["generate", "pg3", "--q", "11"], "generate builds at most 5000 flats or elements"),
    (["generate", "uniform", "--r", "3"], "generate uniform requires --r and --n"),
    (["generate", "uniform", "--r", "4", "--n", "3"], "need 0 <= r <= n, got r=4, n=3"),
    (["generate", "uniform", "--r", "1", "--n", "-1"], "need 0 <= r <= n, got r=1, n=-1"),
    (["generate", "uniform", "--r", "13", "--n", "13"], "generate builds at most 5000 flats or elements"),
    (["generate", "vamos", "--pts", "v.pts"], "--pts is only for pg3, not vamos"),
    (["extend", "{dir}/pg32m0.mat", "--f", "0,1"], "--f and --l must be given together"),
    (["extend", "{dir}/pg32m0.mat", "--l", "0,1"], "--f and --l must be given together"),
    (["extend", "{dir}/pg32m0.mat", "--f", "0,1", "--l", "2"], "[0, 1] has rank 2, expected 3"),
    (["extend", "{dir}/pg32m0.mat", "--f", "x", "--l", "2"], "bad element list 'x'"),
    (["extend", "u36.mat"], "extension requires rank 4, got rank 3"),
    (["complete", "{dir}/pg32m0.mat", "--max-steps", "-1"], "max_steps must be nonnegative, got -1"),
    (["verify", "{dir}/pg32.mat", "--exhaustive"], "exhaustive mode is limited to 14 elements"),
    (["verify", "{dir}/pg32.mat", "--trials", "-3"], "--trials must be nonnegative, got -3"),
    (["arrangement", "u36.mat"], "arrangement report requires a loopless rank-4 matroid"),
    (["arrangement", "{dir}/pg32.mat", "--samples", "-1"], "--samples must be nonnegative, got -1"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_each_refusal_prints_one_error_line_and_exits_2(workdir, tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u36.mat").write_text(serialize_matroid(uniform(3, 6), name="u36"))
    argv = [arg.format(dir=workdir) for arg in argv]
    if argv[0] in ("extend", "complete"):
        argv += ["-o", "out.mat"]
    assert main(argv + ["--machine"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["u36.mat"]
