from __future__ import annotations

import pytest

from hypermod import Matroid, delete, matroid_from_points, pg3, serialize_matroid, uniform, vamos
from hypermod.cli import main


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


def test_analyze_deletion(workdir, capsys):
    rc, out = run(capsys, ["analyze", str(workdir / "pg32m0.mat"), "--machine"])
    assert rc == 0
    d = machine_dict(out)
    assert d["hypermodular"] == "true"
    assert d["modular"] == "false"
    assert d["disjoint_flags"] == "28"
    assert d["total_defect"] == "49"


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


def test_arrangement_negative_samples_is_usage_error(workdir, capsys):
    rc = main(["arrangement", str(workdir / "pg32.mat"), "--samples", "-5", "--machine"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--samples must be nonnegative" in captured.err


def test_missing_file(capsys):
    assert main(["analyze", "/tmp/does-not-exist.mat"]) == 2
