"""Config validation, orchestration, artifacts, exit codes, determinism."""

import contextlib
import copy
import decimal
import functools
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hamca import automaton, cli, conservation, gaussian, multipartite, sampling
from hamca.automaton import Trajectory, evolve
from hamca.cli import ConfigError, load_config, main, run
from hamca.gaussian import (GaussianInt, GIMatrix, GIVector, HermitianIntMatrix,
                            exact_int_text)
from hamca.multipartite import MultiWave
from conftest import (STEP_MATRICES, count_applies, count_calls, count_split_steps,
                      reference_csv, reference_json, step_matrix, wrap_steps)

PAULI_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


def write_config(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def evolve_config(tmp_path, steps=8, **extra):
    obj = {"kind": "evolve", "hamiltonians": [PAULI_X],
           "seeds": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]], "steps": steps}
    obj.update(extra)
    return write_config(tmp_path / "cfg.json", obj)


def test_minimal_evolve_config_accepted(tmp_path):
    cfg = load_config(evolve_config(tmp_path))
    assert cfg.kind == "evolve"
    assert cfg.params["hamiltonian"].dim == 2
    assert cfg.params["steps"] == 8


def test_zero_steps_accepted(tmp_path):
    cfg = load_config(evolve_config(tmp_path, steps=0))
    assert cfg.params["steps"] == 0


SKEW = [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]  # i off the diagonal, not -i
SEEDS_2 = [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]
MULTI_1x1 = {"kind": "multi", "hamiltonians": [[[[1, 0]]], [[[1, 0]]]],
             "seeds": [[[[1, 0]], [[1, 0]]], [[[1, 0]], [[1, 0]]]], "steps": 3}


@pytest.mark.parametrize("obj, errors", [
    pytest.param({"kind": "evolve", "hamiltonians": [SKEW], "seeds": SEEDS_2,
                  "steps": 3},
                 [("hamiltonians[0]", "matrix is not self-adjoint")], id="evolve"),
    pytest.param({"kind": "audit", "hamiltonians": [PAULI_X], "seeds": SEEDS_2,
                  "steps": 3, "observables": [SKEW]},
                 [("observables[0]", "matrix is not self-adjoint")], id="audit"),
    pytest.param(dict(MULTI_1x1, hamiltonians=[[[[1, 0]]],
                                               [[[1, 0], [2, 0]], [[3, 0], [1, 0]]]]),
                 [("hamiltonians[1]", "matrix is not self-adjoint")], id="multi"),
    pytest.param(dict(MULTI_1x1, interaction=[[[1, 1]]]),
                 [("interaction", "interaction must be self-adjoint")],
                 id="interaction"),
    pytest.param({"kind": "evolve", "hamiltonians": [[[[1, 0], [0, 0]], [[0, 0], [2, 3]]]],
                  "seeds": SEEDS_2, "steps": 3},
                 [("hamiltonians[0]", "matrix is not self-adjoint")],
                 id="imaginary-diagonal"),
])
def test_non_self_adjoint_hamiltonian_rejected(tmp_path, obj, errors):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path / "cfg.json", obj))
    assert err.value.errors == errors


def test_unknown_fields_are_rejected(tmp_path):
    path = evolve_config(tmp_path, bogus=1)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert [p for p, _ in err.value.errors] == ["bogus"]


def test_kind_mismatch_rejected(tmp_path):
    path = evolve_config(tmp_path)
    with pytest.raises(ConfigError):
        load_config(path, expected_kind="audit")


def test_missing_fields_reported_with_paths(tmp_path):
    path = write_config(tmp_path / "cfg.json", {"kind": "evolve"})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    missing = {p for p, _ in err.value.errors}
    assert {"hamiltonians", "seeds", "steps"} <= missing


def test_seed_dimension_mismatch_rejected(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "evolve", "hamiltonians": [PAULI_X],
        "seeds": [[[1, 0]], [[1, 0], [0, 0]]], "steps": 1})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any(p == "seeds[0]" for p, _ in err.value.errors)


def test_parse_error_reported(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


HUGE_LITERAL = "7" * 400  # past float range, so float() of it overflows


@pytest.mark.parametrize("field, literal", [
    ("scale_l", "NaN"), ("times", "[Infinity]"),
    pytest.param("scale_l", HUGE_LITERAL, id="scale_l-huge"),
    pytest.param("times", f"[1.0, {HUGE_LITERAL}]", id="times-huge"),
    pytest.param("horizon", HUGE_LITERAL, id="horizon-huge"),
    pytest.param("scales", f"[0.4, {HUGE_LITERAL}]", id="scales-huge"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, field, literal):
    kind = "converge" if field in ("horizon", "scales") else "reconstruct"
    obj = dict(EXAMPLES[kind], **{field: "@"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj).replace('"@"', literal), encoding="utf-8")
    assert main([kind, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "CONFIG ERROR" in err and "Traceback" not in err


def test_bad_output_format_rejected(tmp_path):
    path = evolve_config(tmp_path, output={"format": "xml"})
    with pytest.raises(ConfigError):
        load_config(path)
    path = evolve_config(tmp_path, output={"format": "json", "path": "x"})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any(p == "output.path" for p, _ in err.value.errors)


def test_evolve_run_and_artifact_contract(tmp_path):
    cfg = load_config(evolve_config(tmp_path))
    report = run(cfg, tmp_path / "out")
    assert all(c["passed"] for c in report["checks"])
    text = (tmp_path / "out" / "trajectory.csv").read_text()
    traj = Trajectory.from_csv(text)
    assert len(traj) == 10 and traj.dim == 2


def test_runs_are_deterministic(tmp_path):
    cfg = load_config(evolve_config(tmp_path, steps=40))
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
        (tmp_path / "b" / "trajectory.csv").read_bytes()


def test_report_roundtrips_through_json(tmp_path):
    cfg = load_config(evolve_config(tmp_path))
    report = run(cfg, tmp_path / "out")
    loaded = json.loads((tmp_path / "out" / "report.json").read_text())
    assert loaded["kind"] == report["kind"]
    assert loaded["checks"] == report["checks"]
    assert loaded["config"] == report["config"]
    csv = tmp_path / "out" / "trajectory.csv"
    assert report["artifact_bytes"] == {"trajectory.csv": csv.stat().st_size}
    assert loaded["artifact_bytes"] == report["artifact_bytes"]


def test_json_format_artifact(tmp_path):
    cfg = load_config(evolve_config(tmp_path, output={"format": "json"}))
    run(cfg, tmp_path / "out")
    obj = json.loads((tmp_path / "out" / "trajectory.json").read_text())
    assert Trajectory.from_json_obj(obj).dim == 2


def test_exit_codes_via_main(tmp_path):
    ok_cfg = evolve_config(tmp_path)
    assert main(["evolve", "--config", ok_cfg,
                 "--out", str(tmp_path / "ok")]) == 0
    bad_cfg = evolve_config(tmp_path, bogus=2)
    assert main(["evolve", "--config", bad_cfg,
                 "--out", str(tmp_path / "bad")]) == 2


def test_a_failing_run_leaves_no_earlier_verdict(tmp_path, capsys, monkeypatch):
    cfg, out = evolve_config(tmp_path), str(tmp_path / "out")
    assert main(["evolve", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "report.json").exists()

    def raising(params, out_dir):
        raise RuntimeError("module error")

    monkeypatch.setitem(cli._RUNNERS, "evolve", raising)
    capsys.readouterr()
    assert main(["evolve", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == "FAIL evolve — RuntimeError: module error\n"
    assert not (tmp_path / "out" / "report.json").exists()


def test_a_failing_run_leaves_no_earlier_artifact(tmp_path, capsys):
    # H = [[3]] grows past a float's range in 2000 steps, so the second
    # reconstruction raises OverflowError after the stale names are gone
    ok = write_config(tmp_path / "ok.json", EXAMPLES["reconstruct"])
    bad = write_config(tmp_path / "bad.json", dict(
        EXAMPLES["reconstruct"], hamiltonians=[[[[3, 0]]]], seeds=[[[1, 0]], [[1, 0]]],
        steps=2000))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", ok, "--out", str(out)]) == 0
    assert (out / "reconstruction.csv").exists()
    capsys.readouterr()
    assert main(["reconstruct", "--config", bad, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("FAIL reconstruct — OverflowError")
    assert list(out.iterdir()) == []


def test_a_run_removes_the_stale_names_of_its_kind(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    stale = [".trajectory.csv.part", "trajectory.json", ".report.json.part",
             "report.json", "series.csv"]
    for name in stale + ["notes.txt"]:
        (out / name).write_text("stale\n")

    def raising(params, out_dir):
        raise RuntimeError("module error")

    monkeypatch.setitem(cli._RUNNERS, "evolve", raising)
    with pytest.raises(RuntimeError, match="module error"):
        run(load_config(evolve_config(tmp_path)), out)
    # an evolve writes no series.csv, and notes.txt is no artifact name
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "series.csv"]


# configs whose writer child takes a tenth of a second or more to stage
# its text: a 4000-step trajectory of about 24 MB, and a 25^3-point field
# of about 19 MB
KILLED_RUNS = {
    "evolve": {"kind": "evolve", "hamiltonians": [
        [[[2, 0], [1, 0], [0, 0]], [[1, 0], [2, 0], [1, 0]], [[0, 0], [1, 0], [2, 0]]]],
        "seeds": [[[1, 0], [0, -1], [2, 1]], [[0, 1], [1, 0], [-1, 0]]],
        "steps": 4000},
    "multi": {"kind": "multi", "hamiltonians": [
        PAULI_X, [[[1, 0], [1, 1]], [[1, -1], [0, 0]]], PAULI_X],
        "seeds": [[[[1, 0], [0, 0]], [[1, 0], [0, 0]]],
                  [[[0, 1], [1, 0]], [[1, 0], [0, -1]]],
                  [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]],
        "steps": 24},
}


def live_in_group(pgid):
    """The pids of processes in group `pgid` that have not exited (a
    zombie, exited and not yet reaped, is not live)."""
    live = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # the fields after the command name: state, ppid, pgrp, ...
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while the table was read
            continue
        if int(fields[2]) == pgid and fields[0] not in "ZX":
            live.append(int(entry.name))
    return live


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 200])
def test_a_writer_passes_its_pieces_while_its_parent_lives(monkeypatch, count):
    # a piece is one slice's text, which grows with the steps, so the
    # writer pulls none before it is asked for; it checks its parent with
    # the first of every `_PIECES_PER_CHECK`
    pulled = []

    def pieces():
        for k in range(count):
            pulled.append(k)
            yield f"{k}\n"

    parent = os.getppid()
    checks = count_calls(monkeypatch, os, "getppid")
    passed = cli._while_parent(pieces(), parent)
    for k in range(count):
        assert next(passed) == f"{k}\n" and len(pulled) == k + 1
        assert len(checks) == k // cli._PIECES_PER_CHECK + 1
    assert next(passed, None) is None and len(pulled) == count
    assert len(checks) == -(-count // cli._PIECES_PER_CHECK)
    if count:
        with pytest.raises(RuntimeError, match="parent is gone"):
            next(cli._while_parent(iter(["0\n"]), os.getpid()))


# (signal, whom it is sent to) per kind; a SIGKILL of the run alone
# keeps the kind's own test id
KILLS = [pytest.param(kind, sig, group,
                      id=kind if sig == signal.SIGKILL else
                      f"{kind}-{sig.name}-{'group' if group else 'parent'}")
         for sig, group in ((signal.SIGKILL, False), (signal.SIGTERM, False),
                            (signal.SIGTERM, True))
         for kind in ("evolve", "multi")]


@pytest.mark.skipif(not hasattr(os, "fork") or not Path("/proc/self/stat").exists(),
                    reason="needs os.fork and a /proc process table")
@pytest.mark.parametrize("kind, sig, group", KILLS)
def test_a_killed_run_leaves_no_writer_and_no_staging_file(tmp_path, kind, sig, group):
    # the run, or its whole process group as a shell's `kill %1` does, is
    # killed while its forked child writes: a child sent SIGTERM itself
    # removes what it staged and exits, and one left behind sees that it
    # was reparented and does the same
    path = write_config(tmp_path / "cfg.json", KILLED_RUNS[kind])
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "hamca.cli", kind, "--config", path,
                             "--out", str(out)], env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not any(out.glob(".*.part")):
            assert proc.poll() is None, "the run ended before its child staged a file"
            assert time.monotonic() < deadline, "no staging file appeared"
            time.sleep(0.001)
        (os.killpg if group else os.kill)(proc.pid, sig)
        assert proc.wait(timeout=10) == -sig
        deadline = time.monotonic() + 10
        while live_in_group(proc.pid) or any(out.glob(".*.part")):
            assert time.monotonic() < deadline, \
                (live_in_group(proc.pid), sorted(p.name for p in out.iterdir()))
            time.sleep(0.01)
        assert not any(out.glob("*.part")) and not (out / "report.json").exists()
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


# `hamca audit` whose forked child passes on a piece a millisecond, so the
# run stages its own two files long before the child is done
SLOW_WRITER = """
import sys, time
from hamca import cli
checked = cli._while_parent

def slow(pieces, parent):
    for piece in checked(pieces, parent):
        time.sleep(0.001)
        yield piece

cli._while_parent = slow
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not Path("/proc/self/stat").exists(),
                    reason="needs os.fork and a /proc process table")
@pytest.mark.parametrize("sig, group", [
    pytest.param(signal.SIGKILL, False, id="KILL"),
    pytest.param(signal.SIGTERM, False, id="TERM"),
    pytest.param(signal.SIGTERM, True, id="TERM-group")])
def test_an_audit_killed_while_it_waits_leaves_no_staging_file(tmp_path, sig, group):
    # the run, or its whole process group, is killed while it waits for
    # its child, with `audit.json` and `series.csv` staged: the child,
    # reparented, removes them too, and a run sent SIGTERM removes them
    # itself, before the child can see it gone
    path = write_config(tmp_path / "cfg.json", {
        "kind": "audit", "hamiltonians": [KILLED_RUNS["evolve"]["hamiltonians"][0]],
        "seeds": KILLED_RUNS["evolve"]["seeds"], "steps": 1000})
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", SLOW_WRITER, "audit", "--config", path,
                             "--out", str(out)], env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (out / ".series.csv.part").exists():
            assert proc.poll() is None, "the run ended before it staged series.csv"
            assert time.monotonic() < deadline, "series.csv was not staged"
            time.sleep(0.001)
        assert (out / ".trajectory.csv.part").exists()  # the child is still writing
        (os.killpg if group else os.kill)(proc.pid, sig)
        assert proc.wait(timeout=10) == -sig
        deadline = time.monotonic() + 10
        while live_in_group(proc.pid) or any(out.glob(".*.part")):
            assert time.monotonic() < deadline, \
                (live_in_group(proc.pid), sorted(p.name for p in out.iterdir()))
            time.sleep(0.01)
        assert list(out.iterdir()) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


@pytest.mark.parametrize("kind", cli.KINDS)
def test_each_kind_writes_only_names_it_removes_first(tmp_path, kind):
    for fmt in (("csv", "json") if kind in FORMAT_KINDS else (None,)):
        obj = EXAMPLES[kind] if fmt is None else dict(EXAMPLES[kind],
                                                      output={"format": fmt})
        report = run(load_config(write_config(tmp_path / "cfg.json", obj)),
                     tmp_path / str(fmt))
        assert set(report["artifact_bytes"]) <= set(cli._ARTIFACTS[kind])


def test_failed_check_returns_one(tmp_path):
    # copy seeding degrades the scaling order below the declared bar
    path = write_config(tmp_path / "cfg.json", {
        "kind": "converge", "hamiltonians": [PAULI_X],
        "seeds": [[[1, 0], [0, 0]]], "horizon": 2.0,
        "scales": [0.4, 0.2, 0.1], "psi1_rule": "copy"})
    assert main(["converge", "--config", path,
                 "--out", str(tmp_path / "out")]) == 1


def test_audit_with_noncommuting_observable_is_informational(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "audit", "hamiltonians": [PAULI_X],
        "seeds": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]], "steps": 12,
        "observables": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]})
    assert main(["audit", "--config", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "noncommuting:G0" in names
    audit = json.loads((tmp_path / "out" / "audit.json").read_text())
    entry = audit["observables"][0]
    assert entry["commutes"] is False and "drift" in entry


def test_audit_default_basis_and_series(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "audit", "hamiltonians": [PAULI_X],
        "seeds": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "steps": 20})
    assert main(["audit", "--config", path, "--out", str(tmp_path / "out")]) == 0
    series = (tmp_path / "out" / "series.csv").read_text().splitlines()
    assert series[0] == "label,n,re,im"
    labels = {line.split(",")[0] for line in series[1:]}
    assert labels == {"1", "H", "H^2", "H^3"}


def test_reconstruct_run(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "reconstruct", "hamiltonians": [PAULI_X],
        "seeds": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]], "steps": 16,
        "scale_l": 0.5, "times": [0.0, 0.25, 1.0, 4.0, 40.0], "window": 8})
    assert main(["reconstruct", "--config", path,
                 "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "reconstruction.csv").read_text().splitlines()
    assert lines[0] == "t,alpha,re,im"
    assert len(lines) == 1 + 5 * 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["info"]["extrapolated_times"] == [40.0]


def test_converge_run_artifacts(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "converge", "hamiltonians": [PAULI_X],
        "seeds": [[[1, 0], [0, 0]]], "horizon": 2.0,
        "scales": [0.4, 0.2, 0.1, 0.05]})
    assert main(["converge", "--config", path,
                 "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "l,error,fitted_order"
    assert len(lines) == 5
    summary = json.loads((tmp_path / "out" / "convergence.json").read_text())
    assert summary["order"] >= 1.7


def test_multi_residual_checks(tmp_path):
    base = {"kind": "multi",
            "hamiltonians": [[[[2, 0]]], [[[2, 0]]]],
            "seeds": [[[[1, 0]], [[0, -1]]], [[[1, 0]], [[0, -1]]]],
            "steps": 4}
    path = write_config(tmp_path / "free.json", base)
    assert main(["multi", "--config", path, "--out", str(tmp_path / "f")]) == 0
    wave = MultiWave.from_json_obj(
        json.loads((tmp_path / "f" / "field.json").read_text()))
    assert wave.parts == 2

    coupled = dict(base)
    coupled["interaction"] = [[[1, 0]]]
    path = write_config(tmp_path / "coupled.json", coupled)
    assert main(["multi", "--config", path, "--out", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["checks"][0]["name"] == "interaction_breaks_factorization"
    assert report["checks"][0]["passed"]
    residual = (tmp_path / "c" / "residual.csv").read_text().splitlines()
    assert residual[0] == "n1,n2,re,im".replace("re", "alpha1,alpha2,re", 1) \
        or residual[0] == "n1,n2,alpha1,alpha2,re,im"


def test_multi_synchronized_gap(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "multi",
        "hamiltonians": [[[[1, 0]]], [[[1, 0]]]],
        "seeds": [[[[1, 0]], [[1, 0]]], [[[1, 0]], [[1, 0]]]],
        "steps": 3, "synchronized": True})
    assert main(["multi", "--config", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    gap = report["info"]["synchronized_gap"]
    assert gap["synchronized"] == [1, -2] and gap["product"] == [0, -2]


def test_the_synchronized_model_steps_once(tmp_path, monkeypatch):
    # the gap is read at clock 2, so the shared-clock model takes one
    # step, whatever the parts' step counts
    made, synchronized = [], multipartite.evolve_synchronized

    def spy(*args):
        made.append(synchronized(*args))
        return made[-1]

    monkeypatch.setattr(multipartite, "evolve_synchronized", spy)
    obj, _ = GOLDEN_RUNS["multi"]
    report = run(load_config(write_config(tmp_path / "cfg.json", obj)), tmp_path / "out")
    assert report["info"]["synchronized_gap"]["clock"] == 2
    assert [len(t) for t in made] == [3]


def test_bell_run(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "bell", "hamiltonians": [PAULI_X],
        "seeds": [[[[1, 0], [0, 0]], [[1, 0], [0, 0]]],
                  [[[0, 0], [1, 0]], [[0, 0], [1, 0]]]],
        "steps": 4})
    assert main(["bell", "--config", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(c["passed"] for c in report["checks"])


def test_leibniz_run(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "leibniz", "sequences": [[1, 2, 4, 8], [1, 2, 4, 8]]})
    assert main(["leibniz", "--config", path, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "leibniz.csv").read_text().splitlines()
    assert lines[0] == "n,product_rate,split_num,split_den,naive,naive_matches"
    assert lines[1] == "1,15,15,1,12,false"


def test_interaction_must_be_self_adjoint(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "multi",
        "hamiltonians": [[[[1, 0]]], [[[1, 0]]]],
        "seeds": [[[[1, 0]], [[1, 0]]], [[[1, 0]], [[1, 0]]]],
        "steps": 3, "interaction": [[[0, 1]]]})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any(p == "interaction" for p, _ in err.value.errors)


def test_audit_computes_each_series_once(tmp_path, monkeypatch):
    # 401 slice pairs: in both schedules this process feeds every one of
    # them to one series pass of the one observable that does not commute
    # with H, and the child only writes the trajectory
    path = write_config(tmp_path / "cfg.json", dict(TILTED_AUDIT, steps=400))
    cfg = load_config(path)
    h, obs = cfg.params["hamiltonian"], cfg.params["observables"]
    tilt = obs[-1]
    traj = evolve(*cfg.params["seeds"], h, 400)
    index = {(s.re, s.im): n for n, s in enumerate(traj)}
    assert len(index) == len(traj)  # each slice names its clock index
    labels = [f"G{k}" for k in range(len(obs))]
    every = [[v.re for v in conservation.two_point_series(traj, g)] for g in obs]
    for schedule in ("inline", "forked"):
        with monkeypatch.context() as patched:
            forks = use_schedule(patched, schedule)
            fed, per_g_series = [], conservation._per_g_series

            def recording(observables, out):
                feed = per_g_series(observables, out)

                def feeding(u, w):
                    n = index[u.re, u.im]
                    assert index[w.re, w.im] == n - 1
                    fed.append(n)
                    feed(u, w)

                return feeding

            patched.setattr(conservation, "_per_g_series", recording)
            passes = count_calls(patched, conservation, "_per_g_series")
            reports = count_calls(patched, conservation._AuditWindow, "report")
            series = count_calls(patched, conservation, "two_point_series")
            rates = count_calls(patched, conservation, "conservation_rate")
            quantities = count_calls(patched, conservation, "conserved_quantity")
            audits = count_calls(patched, conservation, "audit_conservation")
            histories = count_calls(patched, Trajectory, "__init__")
            run(cfg, tmp_path / schedule)
        # one per-G series pass here, fed by the window, for the one
        # observable whose series is not derived from the brackets, and no
        # stored trajectory
        assert len(passes) == 1 and len(passes[0][0]) == 1
        assert passes[0][0][0] is tilt
        assert series == []
        assert rates == [] and quantities == []
        assert audits == [] and histories == [] and len(reports) == 1
        assert fed == list(range(1, 402))
        assert len(forks) == (schedule == "forked")
        assert (tmp_path / schedule / "series.csv").read_text() == \
            conservation.series_to_csv(
                [(l, [GaussianInt(v, 0) for v in w]) for l, w in zip(labels, every)])


def test_evolve_and_audit_sweep_the_brackets_once(tmp_path, monkeypatch):
    applied = count_applies(monkeypatch)
    predicted = count_split_steps(monkeypatch)
    made, stream = [], automaton._evolve_slices

    def keep(*args):
        for s in stream(*args):
            made.append(s)
            yield s

    monkeypatch.setattr(automaton, "_evolve_slices", keep)

    def on_window(h):
        """The applies of -iH on the window's own slices, and those of
        them whose product is no slice: none, since the forward step's
        products are the slices and the pass predicts with the split form."""
        y = automaton._step(h, "-iH")
        slices = {id(s) for s in made}
        on = [out for m, v, _, out in applied if m is y and id(v) in slices]
        return len(on), sum(id(out) not in slices for out in on)

    def brackets():
        """The split-form predictions of the pass, each on psi_n with the
        slice before it, for every interior slice psi_n in order."""
        return [(psi, base) for _, psi, base in predicted] == \
            [(s, before) for before, s in zip(made, made[1:-1])]

    def printed():
        """Takes out of `applied` the forward steps on Decimal slices, the
        replay by which this process prints its share of the text,
        slices k ... N-1, and returns how many there were."""
        count = len(applied)
        applied[:] = [c for c in applied if not isinstance(c[1].re[0], decimal.Decimal)]
        return count - len(applied)

    rest = {}
    for doubling, steps, fmt in ((True, 9, "csv"), (True, 9, "json"),
                                 (True, 500, "csv"), (False, 9, "csv")):
        monkeypatch.setattr(automaton, "_doubling_pays", lambda *args: doubling)
        cfg = load_config(evolve_config(tmp_path, steps=steps,
                                        output={"format": fmt}))
        made.clear()
        applied.clear()
        predicted.clear()
        run(cfg, tmp_path / f"evolve-{steps}-{fmt}-{doubling}")
        assert len(made) == steps + 2
        assert printed() == steps + 2 - cli._split_slice(steps + 2)
        # one bracket pass for the verdicts and the writer, each bracket
        # one split-form step, and no apply of -iH on ints but the
        # forward step's
        assert len(predicted) == steps and brackets()
        if doubling:
            # reversal applies only its own matrices
            assert on_window(cfg.params["hamiltonian"]) == (steps, 0)
            rest[steps] = len(applied) - steps
        else:
            # walking back applies iH once per step
            assert len(applied) == 2 * steps
    # reversal's products grow with log2 of the steps, not with the steps
    assert rest[500] <= rest[9] * math.log2(500) / math.log2(9)
    cfg = load_config(write_config(tmp_path / "audit.json", {
        "kind": "audit", "hamiltonians": [PAULI_X],
        "seeds": [[[1, 0], [0, 0]], [[0, 0], [1, 1]]], "steps": 9}))
    made.clear()
    applied.clear()
    predicted.clear()
    run(cfg, tmp_path / "audit")
    # -iH on the window's slices: the forward step only; one bracket pass
    # shared by the solution check and the writer (the observables are
    # matrices of their own)
    assert len(made) == 9 + 2 and printed() == 11 - cli._split_slice(11)
    assert on_window(cfg.params["hamiltonian"]) == (9, 0)
    assert len(predicted) == 9 and brackets()


def test_audit_series_of_a_drifting_observable(tmp_path):
    pauli_z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
    path = write_config(tmp_path / "cfg.json", {
        "kind": "audit", "hamiltonians": [PAULI_X],
        "seeds": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]], "steps": 12,
        "observables": [pauli_z, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]})
    cfg = load_config(path)
    run(cfg, tmp_path / "out")
    traj = evolve(*cfg.params["seeds"], cfg.params["hamiltonian"], 12)
    values = [conservation.two_point_series(traj, g)
              for g in cfg.params["observables"]]
    assert len(set(values[0])) > 1 and len(set(values[1])) == 1
    assert (tmp_path / "out" / "series.csv").read_text() == \
        conservation.series_to_csv(list(zip(["G0", "G1"], values)))


def test_multi_reuses_the_certified_residual(tmp_path, monkeypatch):
    base = {"kind": "multi",
            "hamiltonians": [[[[2, 0]]], [[[2, 0]]]],
            "seeds": [[[[1, 0]], [[0, -1]]], [[[1, 0]], [[0, -1]]]],
            "steps": 4}
    residuals = count_calls(monkeypatch, multipartite, "many_time_residual")
    report = run(load_config(write_config(tmp_path / "free.json", base)),
                 tmp_path / "f")
    assert len(residuals) == 1
    assert [c["name"] for c in report["checks"]] == \
        ["residual_zero_without_interaction"]
    assert report["checks"][0]["passed"]

    coupled = dict(base, interaction=[[[1, 0]]])
    cfg = load_config(write_config(tmp_path / "coupled.json", coupled))
    residuals.clear()
    report = run(cfg, tmp_path / "c")
    # the product is still certified, then the interacting residual is taken
    assert len(residuals) == 2 and residuals[0][2] is None
    assert residuals[1][2] is cfg.params["interaction"]
    assert report["checks"][0]["name"] == "interaction_breaks_factorization"
    assert report["checks"][0]["passed"]
    rows = (tmp_path / "c" / "residual.csv").read_text().splitlines()[1:]
    assert any(not row.endswith(",0,0") for row in rows)


COMPLEX_H = [[[1, 0], [2, -1]], [[2, 1], [-1, 0]]]

# sha256 of each artifact, recorded from the per-neighbour residual loop
# that the strided one replaced; the bench pins only a non-interacting run
GOLDEN_RUNS = {
    "multi": ({"kind": "multi",
               "hamiltonians": [[[[2, 0]]], PAULI_X, COMPLEX_H],
               "seeds": [[[[1, 0]], [[0, -1]]],
                         [[[1, 0], [0, 1]], [[2, 0], [-1, 0]]],
                         [[[0, 1], [1, 1]], [[1, -1], [0, 0]]]],
               "steps": [3, 4, 5], "synchronized": True,
               "interaction": [[[1, 0], [0, 1], [0, 0], [2, 0]],
                               [[0, -1], [0, 0], [1, 0], [0, 0]],
                               [[0, 0], [1, 0], [-1, 0], [0, 2]],
                               [[2, 0], [0, 0], [0, -2], [3, 0]]]},
              {"field.json": "c712f9fc815dc4c09d3798d2dfd1bad3"
                             "9be488cec82a5c6d63330699ca545879",
               "residual.csv": "4532337b3e58f175bbf9176bad3deccd"
                               "9a332445f5902d24ada3b5f472f35a03"}),
    "bell": ({"kind": "bell", "hamiltonians": [COMPLEX_H],
              "seeds": [[[[1, 0], [0, 1]], [[2, -1], [0, 0]]],
                        [[[0, 0], [1, 0]], [[1, 1], [3, 0]]]],
              "steps": 5},
             {"bell_field.json": "cbb04d56577353c687c9d7289595458"
                                 "609a9a07f3ff8d8791e1e4890555f1209",
              "residual.csv": "02d7d2ef0ee32a6fa0f668188dc426ad"
                              "078896fa7913277ffd39ae54a46a550d"}),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_RUNS))
def test_residual_runs_keep_their_golden_artifacts(tmp_path, kind):
    obj, digests = GOLDEN_RUNS[kind]
    report = run(load_config(write_config(tmp_path / "cfg.json", obj)),
                 tmp_path / "out")
    assert all(c["passed"] for c in report["checks"])
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in digests} == digests


COMPLEX_H3 = [[[1, 0], [2, -1], [0, 0]], [[2, 1], [-1, 0], [1, 2]],
              [[0, 0], [1, -2], [2, 0]]]
H4 = [[[2, 0], [1, 1], [0, 0], [0, -1]], [[1, -1], [0, 0], [1, 0], [0, 0]],
      [[0, 0], [1, 0], [-1, 0], [2, 1]], [[0, 1], [0, 0], [2, -1], [1, 0]]]
DENSE_G4 = [[[1, 0], [1, 2], [-1, 1], [2, 0]], [[1, -2], [0, 0], [3, -1], [0, 1]],
            [[-1, -1], [3, 1], [2, 0], [1, 1]], [[2, 0], [0, -1], [1, -1], [-2, 0]]]

TRIDIAGONAL = [[[2, 0], [1, 0], [0, 0]],
               [[1, 0], [2, 0], [1, 0]],
               [[0, 0], [1, 0], [2, 0]]]
TRIDIAGONAL_SEEDS = [[[1, 0], [0, -1], [2, 1]], [[0, 1], [1, 0], [-1, 0]]]
TRIDIAGONAL_BASIS = [g for _, g in conservation.default_commutant_basis(
    HermitianIntMatrix(GIMatrix.from_pairs(TRIDIAGONAL)))]
TILT = [[[1, 0], [0, 0], [0, 0]], [[0, 0]] * 3, [[0, 0]] * 3]
# TRIDIAGONAL's default basis, each power with diag(1, 0, 0) added: none of
# the four commutes with TRIDIAGONAL
TILTED_BASIS = [(g + GIMatrix.from_pairs(TILT)).to_pairs() for g in TRIDIAGONAL_BASIS]


def tridiagonal_audit(steps, observables, fmt="csv"):
    return {"kind": "audit", "hamiltonians": [TRIDIAGONAL], "seeds": TRIDIAGONAL_SEEDS,
            "steps": steps, "observables": observables, "output": {"format": fmt}}


# sha256 of audit.json and series.csv, recorded from the audit that ran
# one two_point_series per observable: the default basis of a complex H,
# user observables with a non-commuting complex G (the drift path), and
# one dense observable (the per-G series).  The tilted basis (with its
# trajectory, in both formats) and the two dense real observables of
# "tie" were recorded while the audit still fed several non-commuting
# observables to one block of entry products per slice pair
GOLDEN_AUDITS = {
    "complex-default": (
        {"kind": "audit", "hamiltonians": [COMPLEX_H3],
         "seeds": [[[1, 0], [0, 1], [-1, 2]], [[0, -1], [2, 0], [1, 1]]],
         "steps": 40},
        {"audit.json": "a34419211329219eaff47618aa9493c4"
                       "b57d34df8caaae6e41630dcf09885b6e",
         "series.csv": "704f26f12bfa990df95e2ab6c4458ef8"
                       "d083f5cc53c70ec600e1ce98ec7ca754"}),
    "drift": (
        {"kind": "audit", "hamiltonians": [COMPLEX_H],
         "seeds": [[[1, 0], [0, 1]], [[2, -1], [0, 0]]], "steps": 30,
         "observables": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                         [[[0, 0], [1, 1]], [[1, -1], [1, 0]]], COMPLEX_H]},
        {"audit.json": "c855bf28719d64234c0ea54b5cff5e37"
                       "094cb1f9a9805b81360410d5be3e0fc2",
         "series.csv": "138b3f3af53b9e118613f348ddb01fa2"
                       "3a749817e03f979f89213f730f2cb038"}),
    "dense-single": (
        {"kind": "audit", "hamiltonians": [H4],
         "seeds": [[[1, 0], [0, 1], [-1, 2], [0, 0]],
                   [[0, -1], [2, 0], [1, 1], [3, -1]]],
         "steps": 25, "observables": [DENSE_G4]},
        {"audit.json": "3f75f2efccfbe4c99c6c023409cb9226"
                       "c313c5aa65c47595bab91d5d5d4079f5",
         "series.csv": "25eae018890b7a23febf51e02a6e9a2c"
                       "56289cf0f5f23a04b4f1ed7c9e91242d"}),
    "tilted-basis-csv": (
        tridiagonal_audit(400, TILTED_BASIS),
        {"trajectory.csv": "93bd023658407681c966d1c42c13b764"
                           "f443a9a1afa066dd6a4ae1fb0e3eed60",
         "audit.json": "4177a51a2231dd06dbe32c48bf7e5347"
                       "46d1f3b30501e017429d145217fac089",
         "series.csv": "bdcbe3071c861b41d7fc286254e745fb"
                       "d1a3deaf4668e7fb49ac5dd3f0e8a7cf"}),
    "tilted-basis-json": (
        tridiagonal_audit(400, TILTED_BASIS, "json"),
        {"trajectory.json": "752ec3a94ca9ed176f4019967cc04b69"
                            "fb2c438d7193dd591af97d208c8b8839",
         "audit.json": "4177a51a2231dd06dbe32c48bf7e5347"
                       "46d1f3b30501e017429d145217fac089",
         "series.csv": "bdcbe3071c861b41d7fc286254e745fb"
                       "d1a3deaf4668e7fb49ac5dd3f0e8a7cf"}),
    "tie": (
        tridiagonal_audit(40, [[[[k + a + b, 0] for b in range(3)] for a in range(3)]
                               for k in (1, 2)]),
        {"audit.json": "e2f266eebaeae6cf73242e3623048ba7"
                       "2dd37751e4cc4ea6e3dc699d38a988bb",
         "series.csv": "6842b288f907d25245c35f7c7390cd15"
                       "f7f043ad416c1091b76bc7f28db373e5"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_AUDITS))
def test_audit_runs_keep_their_golden_artifacts(tmp_path, name):
    obj, digests = GOLDEN_AUDITS[name]
    report = run(load_config(write_config(tmp_path / "cfg.json", obj)),
                 tmp_path / "out")
    assert all(c["passed"] for c in report["checks"])
    assert {a: hashlib.sha256((tmp_path / "out" / a).read_bytes()).hexdigest()
            for a in digests} == digests


def test_evolve_is_exact_past_the_int_text_limit(tmp_path):
    # seeds near 10**5000, written as text: no int<->str conversion here
    big = "1" + "0" * 5000
    b = 10**5000
    want = evolve(GIVector([GaussianInt(b, 3), GaussianInt(0, -b)]),
                  GIVector([GaussianInt(1, 0), GaussianInt(b, b)]),
                  HermitianIntMatrix.from_pairs(PAULI_X), 5)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for fmt in ("csv", "json"):
        path = tmp_path / f"{fmt}.json"
        path.write_text(
            '{"kind": "evolve", "hamiltonians": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]], '
            f'"seeds": [[[{big}, 3], [0, -{big}]], [[1, 0], [{big}, {big}]]], '
            f'"steps": 5, "output": {{"format": "{fmt}"}}}}', encoding="utf-8")
        assert main(["evolve", "--config", str(path), "--out",
                     str(tmp_path / fmt)]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    text = (tmp_path / "csv" / "trajectory.csv").read_text()
    assert Trajectory.from_csv(text) == want
    with exact_int_text():
        obj = json.loads((tmp_path / "json" / "trajectory.json").read_text())
    assert Trajectory.from_json_obj(obj) == want


def test_seed_flag_is_gone(tmp_path):
    report = run(load_config(evolve_config(tmp_path)), tmp_path / "out")
    assert "seed" not in report
    with pytest.raises(SystemExit):
        main(["evolve", "--config", evolve_config(tmp_path), "--seed", "1"])


def test_json_artifacts_reject_nan_and_infinity(tmp_path):
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "x.json", {"value": value})


def strict_json(path):
    def refuse(literal):
        raise AssertionError(f"non-standard JSON constant {literal}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("order, error", [(float("inf"), 0.01),
                                          (float("nan"), 0.01),
                                          (2.0, float("nan")),
                                          (2.0, float("inf"))])
def test_non_finite_convergence_fails_the_check(tmp_path, monkeypatch, order, error):
    report = sampling.ConvergenceReport(
        horizon=2.0, psi1_rule="oracle", order=order,
        points=(sampling.ConvergencePoint(scale=0.2, error=0.04, included=True),
                sampling.ConvergencePoint(scale=0.1, error=error, included=True)))
    monkeypatch.setattr(sampling, "convergence_study", lambda *a, **k: report)
    path = write_config(tmp_path / "cfg.json", {
        "kind": "converge", "hamiltonians": [PAULI_X],
        "seeds": [[[1, 0], [0, 0]]], "horizon": 2.0, "scales": [0.2, 0.1]})
    out = tmp_path / "out"
    assert main(["converge", "--config", path, "--out", str(out)]) == 1
    check = strict_json(out / "report.json")["checks"][0]
    assert check["name"] == "convergence_order" and not check["passed"]
    summary = strict_json(out / "convergence.json")
    assert summary["order"] == (order if math.isfinite(order) else None)
    assert summary["points"][1]["error"] == (error if math.isfinite(error) else None)


SEED_PAIR = [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]
ONE_DOF = [[[1, 0]]]

# one config per kind, every field present, optional ones included
EXAMPLES = {
    "evolve": {"kind": "evolve", "hamiltonians": [PAULI_X], "seeds": SEED_PAIR,
               "steps": 4, "output": {"format": "csv"}},
    "audit": {"kind": "audit", "hamiltonians": [PAULI_X], "seeds": SEED_PAIR,
              "steps": 4, "observables": [PAULI_X], "output": {"format": "csv"}},
    "reconstruct": {"kind": "reconstruct", "hamiltonians": [PAULI_X],
                    "seeds": SEED_PAIR, "steps": 4, "scale_l": 0.5,
                    "times": [1.0], "window": 8, "output": {"format": "csv"}},
    "converge": {"kind": "converge", "hamiltonians": [PAULI_X],
                 "seeds": [[[1, 0], [0, 0]]], "horizon": 2.0,
                 "scales": [0.4, 0.2], "window": 16, "psi1_rule": "oracle"},
    "multi": {"kind": "multi", "hamiltonians": [ONE_DOF, ONE_DOF],
              "seeds": [[[[1, 0]], [[1, 0]]], [[[1, 0]], [[1, 0]]]],
              "steps": 3, "interaction": ONE_DOF, "synchronized": True},
    "bell": {"kind": "bell", "hamiltonians": [PAULI_X],
             "seeds": [SEED_PAIR, [[[0, 0], [1, 0]], [[0, 0], [1, 0]]]],
             "steps": 4},
    "leibniz": {"kind": "leibniz", "sequences": [[1, 2, 4, 8], [1, 2, 4, 8]]},
}
FORMAT_KINDS = ("evolve", "audit", "reconstruct")  # the verbs that read output


# a fresh interpreter, since this test module itself loads numpy
NUMPY_FREE = """
import sys
import hamca.automaton, hamca.conservation, hamca.gaussian, hamca.multipartite
from hamca.cli import main
code = main(sys.argv[1:])
print(code, sorted({"numpy", "hamca.sampling"} & set(sys.modules)))
"""


@pytest.mark.parametrize("kind", ["evolve", "audit", "multi", "bell", "leibniz"])
def test_integer_verbs_load_no_numpy(tmp_path, kind):
    path = write_config(tmp_path / "cfg.json", EXAMPLES[kind])
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", NUMPY_FREE, kind, "--config", path,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 []", done.stderr


def test_every_example_config_is_valid(tmp_path):
    for kind, obj in EXAMPLES.items():
        assert load_config(write_config(tmp_path / f"{kind}.json", obj),
                           expected_kind=kind).kind == kind


@pytest.mark.parametrize("kind, field", [(kind, field)
                                         for kind, obj in EXAMPLES.items()
                                         for field in obj])
def test_a_null_field_is_a_config_error(tmp_path, capsys, kind, field):
    path = write_config(tmp_path / "cfg.json", dict(EXAMPLES[kind], **{field: None}))
    assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"CONFIG ERROR {field}: " in err and "Traceback" not in err


@pytest.mark.parametrize("kind", sorted(set(EXAMPLES) - set(FORMAT_KINDS)))
@pytest.mark.parametrize("output", [None, {"format": "csv"}, {"format": "json"}],
                         ids=["null", "csv", "json"])
def test_output_is_rejected_where_the_format_is_fixed(tmp_path, capsys, kind,
                                                       output):
    path = write_config(tmp_path / "cfg.json", dict(EXAMPLES[kind], output=output))
    assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "CONFIG ERROR output: unknown field (strict schema)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", FORMAT_KINDS)
@pytest.mark.parametrize("output, errors", [
    ([], [("output", "expected an object")]),
    ({"format": "xml"}, [("output.format", "expected 'csv' or 'json'")]),
    ({"path": "x"}, [("output.path", "unknown field (strict schema)")]),
], ids=["list", "xml", "path"])
def test_a_bad_output_field_is_reported_at_its_path(tmp_path, kind, output, errors):
    path = write_config(tmp_path / "cfg.json", dict(EXAMPLES[kind], output=output))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.errors == errors


REPLAYS = [(kind, None) for kind in EXAMPLES] + \
    [(kind, fmt) for kind in FORMAT_KINDS for fmt in ("csv", "json")]


@pytest.mark.parametrize("kind, fmt", REPLAYS)
def test_a_run_replays_from_the_config_its_report_records(tmp_path, capsys, kind,
                                                          fmt):
    obj = dict(EXAMPLES[kind], **({} if fmt is None else {"output": {"format": fmt}}))
    runs = []
    for side in ("first", "replay"):
        path = write_config(tmp_path / f"{side}.json", obj)
        out = tmp_path / side
        code = main([kind, "--config", path, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        obj = report["config"]
        names = sorted(report["artifact_bytes"])
        runs.append((code, capsys.readouterr().out.replace(str(out), "<out>"),
                     names, [(out / n).read_bytes() for n in names],
                     report["checks"], report["info"]))
    assert runs[0] == runs[1]
    if fmt is not None:
        assert any(n.endswith(f".{fmt}") for n in runs[0][2])


@pytest.mark.parametrize("kind", sorted(EXAMPLES))
def test_format_flag_is_gone(tmp_path, capsys, kind):
    path = write_config(tmp_path / "cfg.json", EXAMPLES[kind])
    with pytest.raises(SystemExit) as info:
        main([kind, "--config", path, "--out", str(tmp_path / "out"),
              "--format", "json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, fields, bad", [
    ("bell", {"steps": 0}, "steps"),
    ("bell", {"steps": 1}, None),
    ("multi", {"steps": 0, "synchronized": False}, "steps"),
    ("multi", {"steps": [3, 0], "synchronized": False}, "steps[1]"),
    ("multi", {"steps": [1, 3], "synchronized": False}, None),
    ("multi", {"steps": 1}, "steps"),
    ("multi", {"steps": [2, 1]}, "steps[1]"),
    ("multi", {"steps": [2, 3]}, None),
])
def test_composites_need_an_interior_clock_site(tmp_path, capsys, kind, fields, bad):
    """`bad` names the rejected field; None marks a config at the minimum."""
    path = write_config(tmp_path / "cfg.json", dict(EXAMPLES[kind], **fields))
    code = main([kind, "--config", path, "--out", str(tmp_path / "out")])
    if bad is None:
        assert code == 0
    else:
        assert code == 2
        assert f"CONFIG ERROR {bad}: expected an integer >= " in capsys.readouterr().err


def test_multi_steps_are_checked_when_a_hamiltonian_is_invalid(tmp_path):
    obj = dict(EXAMPLES["multi"], hamiltonians=[ONE_DOF, [[[0, 1]]]], steps=[3, 3])
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path / "cfg.json", obj))
    assert [path for path, _ in info.value.errors] == ["hamiltonians[1]"]
    obj["steps"] = [3, 0]
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path / "cfg.json", obj))
    assert [path for path, _ in info.value.errors] == ["hamiltonians[1]", "steps[1]"]


NESTED_DUPLICATE = json.dumps(EXAMPLES["evolve"]).replace(
    '"format": "csv"', '"format": "json", "format": "csv"')
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text, reason", [
    ('{"kind": "evolve", "kind": "audit"}', "duplicate key 'kind'"),
    # in a nested object too, where the last value would otherwise win
    (NESTED_DUPLICATE, "duplicate key 'format'"),
    ('{"kind": "evolve", "steps": ' + DEEP + "}", "nested too deeply"),
], ids=["duplicate", "nested-duplicate", "deep"])
def test_duplicate_keys_and_deep_nesting_are_config_errors(tmp_path, capsys, text,
                                                           reason):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert info.value.errors == [(str(path), f"not valid JSON: {reason}")]
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"CONFIG ERROR {path}: not valid JSON: {reason}\n"


def test_a_seed_past_the_digit_limit_is_reported_as_what_it_is(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = 10**5000
    with exact_int_text():
        path = evolve_config(tmp_path, seeds=[[[big, 0, 0], [0, 0]], [[1, 0], [0, 0]]])
        want = f"CONFIG ERROR seeds[0]: seeds[0][0]: expected [re, im], got [{big}, 0, 0]\n"
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == want
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_each_config_error_is_one_line(tmp_path, capsys):
    # an unknown key is printed in the error's path, and a key may hold any character
    path = write_config(tmp_path / "cfg.json",
                        dict(EXAMPLES["evolve"], **{"a\nb": 1, "c\u2028d": 2}))
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["CONFIG ERROR a\\nb: unknown field (strict schema)",
                                "CONFIG ERROR c\\u2028d: unknown field (strict schema)"]


# -- the loader under fuzzed configs ----------------------------------------

HUGE = int(HUGE_LITERAL)
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.sampled_from([HUGE, -HUGE])
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)


def value_paths(obj, prefix=()):
    """The path to every value inside a JSON object or list."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def type_swaps(value):
    swaps = [[value], {"v": value}, str(value), True]
    if isinstance(value, list) and value:
        swaps.append(value[0])
    if isinstance(value, (int, float)) and abs(value) < 1e300:
        swaps += [float(value), int(value)]
    return swaps


@st.composite
def mutated_configs(draw):
    """(kind, bytes): an example config after a few value and text mutations."""
    kind = draw(st.sampled_from(sorted(EXAMPLES)))
    obj = copy.deepcopy(EXAMPLES[kind])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(value_paths(obj))
        if not paths:
            break
        *outer, key = draw(st.sampled_from(paths))
        holder = obj
        for step in outer:
            holder = holder[step]
        op = draw(st.sampled_from(["delete", "null", "junk", "swap", "huge"]))
        if op == "delete":
            del holder[key]
        elif op == "null":
            holder[key] = None
        elif op == "junk":
            holder[key] = draw(JUNK)
        elif op == "swap":
            holder[key] = draw(st.sampled_from(type_swaps(holder[key])))
        else:
            holder[key] = draw(st.sampled_from([HUGE, -HUGE, [HUGE], [[HUGE, 0]]]))
    text = json.dumps(obj)
    form = draw(st.sampled_from(["as is", "non-UTF-8", "duplicate key", "deep"]))
    if form == "duplicate key" and obj:
        key = draw(st.sampled_from(sorted(obj)))
        text = "{" + f"{json.dumps(key)}: {json.dumps(draw(JUNK))}, " + text[1:]
    elif form == "deep":
        depth = draw(st.sampled_from([900, 100_000]))
        text = text[:-1] + (", " if obj else "") + \
            '"deep": ' + "[" * depth + "]" * depth + "}"
    data = text.encode("utf-8")
    if form == "non-UTF-8":
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return kind, data


@settings(max_examples=100)
@given(case=mutated_configs())
def test_a_mutated_config_loads_or_is_a_config_error(tmp_path_factory, case):
    kind, data = case
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(data)
    try:
        load_config(str(path), expected_kind=kind)
        return  # accepted: not run, since a fuzzed steps may be astronomically large
    except ConfigError:
        pass
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main([kind, "--config", str(path),
                     "--out", str(tmp_path_factory.getbasetemp() / "unused")])
    assert code == 2 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert lines and all(line.startswith("CONFIG ERROR ") for line in lines)
    assert err.getvalue() == "\n".join(lines) + "\n"


# -- artifacts are streamed to disk ----------------------------------------


def use_schedule(monkeypatch, schedule):
    """Have `evolve` and `audit` write the trajectory in a forked child
    ("forked") or, with `os.fork` taken away, after the pass ("inline").

    Returns the calls to `os.fork` made from here on.
    """
    if schedule == "inline":
        monkeypatch.delattr(os, "fork")
        return []
    return count_calls(monkeypatch, os, "fork")


# (fmt, schedule) cases; a forked run keeps the format's own test id
FMT_SCHEDULES = [pytest.param(fmt, schedule,
                              id=fmt if schedule == "forked" else f"{fmt}-inline")
                 for schedule in ("forked", "inline") for fmt in ("csv", "json")]


def test_a_failing_writer_leaves_no_file(tmp_path, monkeypatch):
    seeds = GIVector([1, 0]), GIVector([0, 1])
    for schedule in ("forked", "inline"):
        with monkeypatch.context() as patched:
            use_schedule(patched, schedule)
            for fmt in ("csv", "json"):
                h = HermitianIntMatrix.identity(3)
                window = automaton._Window(automaton._evolve_slices(*seeds, h, 4), h)
                with pytest.raises(ValueError):
                    cli._write_trajectory(window, seeds, 4, tmp_path, fmt, list)
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "trajectory.json").exists()
        assert list(tmp_path.iterdir()) == []


def test_write_text_takes_pieces_and_removes_a_partial_file(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(TypeError):
        cli._write_text(path, "one string")  # would be written char by char
    assert not path.exists()

    def pieces():
        yield "first\n"
        raise OverflowError("writer interrupted")

    with pytest.raises(OverflowError):
        cli._write_text(path, pieces())
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []  # nor its staging file
    cli._write_text(path, iter(["a\n", "", "b\n"]))
    assert path.read_bytes() == b"a\nb\n"
    with pytest.raises(RuntimeError, match="cannot write"):
        cli._write_text(tmp_path / "missing" / "out.txt", ("x",))


def test_an_artifact_appears_only_when_complete(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    seen = []

    def pieces():
        for piece in ("a\n", "b\n", "c\n"):
            seen.append(path.exists())
            yield piece

    cli._write_text(path, pieces())
    assert seen == [False] * 3 and path.read_text() == "a\nb\nc\n"
    # a forked run publishes the trajectory only once the pass is over
    cfg = load_config(evolve_config(tmp_path, steps=40))
    out = tmp_path / "out"
    forks = use_schedule(monkeypatch, "forked")
    stream = automaton._evolve_slices

    def watched(*args):
        for s in stream(*args):
            seen.append((out / "trajectory.csv").exists())
            yield s

    monkeypatch.setattr(automaton, "_evolve_slices", watched)
    seen.clear()
    assert all(c["passed"] for c in run(cfg, out)["checks"])
    assert len(forks) == 1 and seen == [False] * 42
    assert (out / "trajectory.csv").read_text() == \
        evolve(*cfg.params["seeds"], cfg.params["hamiltonian"], 40).to_csv()


def failing_stream(after):
    """`_evolve_slices` that raises once it has made `after` slices."""
    stream = automaton._evolve_slices

    def failing(*args):
        yield from itertools.islice(stream(*args), after)
        raise RuntimeError("stream interrupted")

    return failing


def failing_writer(texts, first=0):
    yield "n,alpha,re,im\n"
    raise RuntimeError("writer interrupted")


def failing_field(wave):
    yield "{\n"
    raise RuntimeError("writer interrupted")


def failing_residual(*args):
    raise RuntimeError("residual interrupted")


# (owner, name, replacement, message) of a raising writer and a raising check
TRAJECTORY_FAILURES = [
    (automaton, "_csv_pieces", failing_writer, "writer interrupted"),
    (automaton, "_evolve_slices", failing_stream(100), "stream interrupted")]
COMPOSITE_FAILURES = [
    (MultiWave, "_json_pieces", failing_field, "writer interrupted"),
    (multipartite, "many_time_residual", failing_residual, "residual interrupted")]
# per forking verb: a config and its failures
FORK_RUNS = {
    "evolve": ({"kind": "evolve", "hamiltonians": [TRIDIAGONAL],
                "seeds": TRIDIAGONAL_SEEDS, "steps": 200}, TRAJECTORY_FAILURES),
    "audit": ({"kind": "audit", "hamiltonians": [TRIDIAGONAL],
               "seeds": TRIDIAGONAL_SEEDS, "steps": 200}, TRAJECTORY_FAILURES),
    "multi": ({"kind": "multi",
               "hamiltonians": [PAULI_X, [[[1, 0], [1, 1]], [[1, -1], [0, 0]]],
                                PAULI_X],
               "seeds": [SEED_PAIR, [[[0, 1], [1, 0]], [[1, 0], [0, -1]]],
                         [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]],
               "steps": 6}, COMPOSITE_FAILURES),
    "bell": (dict(EXAMPLES["bell"], steps=30), COMPOSITE_FAILURES),
}
# the audit with TRIDIAGONAL's default basis written out and diag(1, 0, 0),
# which does not commute with it: the basis's series are derived from the
# brackets, so only that one observable's series takes a series pass
TILTED_AUDIT = dict(FORK_RUNS["audit"][0],
                    observables=[g.to_pairs() for g in TRIDIAGONAL_BASIS] + [TILT])


@pytest.mark.parametrize("schedule", ["forked", "inline"])
@pytest.mark.parametrize("kind", ["evolve", "audit", "multi", "bell"])
def test_no_run_leaves_a_child_or_a_staging_file(tmp_path, monkeypatch, capsys,
                                                  kind, schedule):
    obj, patches = FORK_RUNS[kind]
    path = write_config(tmp_path / "cfg.json", obj)
    out = tmp_path / "out"
    forks = use_schedule(monkeypatch, schedule)
    for patch in [None, *patches]:
        with monkeypatch.context() as patched:
            if patch:
                patched.setattr(*patch[:3])
            capsys.readouterr()
            code = main([kind, "--config", path, "--out", str(out)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        names = sorted(p.name for p in out.iterdir())
        if patch is None:
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            assert names == sorted(["report.json", *report["artifact_bytes"]])
            shutil.rmtree(out)
        else:
            assert code == 1 and names == []
            assert capsys.readouterr().err == \
                f"FAIL {kind} — RuntimeError: {patch[3]}\n"
    assert len(forks) == (3 if schedule == "forked" else 0)


@pytest.mark.parametrize("kind", ["evolve", "multi", "audit"])
def test_an_interrupted_wait_kills_and_reaps_the_writer(tmp_path, monkeypatch, kind):
    # an exception in the parent's wait for the writer child, as a ^C
    # there raises, must not leave the child or its staged file
    cfg = load_config(write_config(tmp_path / "cfg.json", FORK_RUNS[kind][0]))
    waitpid, interrupted = os.waitpid, []

    def interrupting(*args):
        if not interrupted and args[1] == 0:
            interrupted.append(args[0])
            raise KeyboardInterrupt
        return waitpid(*args)

    forks = use_schedule(monkeypatch, "forked")
    monkeypatch.setattr(os, "waitpid", interrupting)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run(cfg, out)
    assert len(forks) == len(interrupted) == 1
    with pytest.raises(ChildProcessError):
        waitpid(-1, os.WNOHANG)
    assert [p.name for p in out.iterdir() if p.name.endswith(".part")] == []


@pytest.mark.parametrize("kind", ["evolve", "audit"])
def test_the_wait_for_the_writer_is_the_last_of_the_parents_work(tmp_path, monkeypatch,
                                                                 kind):
    # by the time this process waits for its child, `evolve` has checked
    # reversal and `audit` has staged, not published, its own two files
    cfg = load_config(write_config(tmp_path / "cfg.json", FORK_RUNS[kind][0]))
    out = tmp_path / "out"
    waitpid, seen = os.waitpid, []
    forks = use_schedule(monkeypatch, "forked")
    reversals = count_calls(monkeypatch, automaton._EvolveWindow, "reverses")

    def waiting(pid, options):
        if options == 0:
            seen.append((len(reversals), sorted(p.name for p in out.iterdir())))
        return waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waiting)
    report = run(cfg, out)
    assert all(c["passed"] for c in report["checks"]) and len(forks) == 1
    # the child's staged trajectory may or may not be there yet
    own = [(n, [name for name in names if "trajectory" not in name])
           for n, names in seen]
    assert own == ([(1, [])] if kind == "evolve" else
                   [(0, [".audit.json.part", ".series.csv.part"])])
    assert sorted(p.name for p in out.iterdir()) == \
        sorted(["report.json", *report["artifact_bytes"]])


# short runs whose trajectory text is split at every slice k = 2 ... N:
# H of one and three dofs, seeds with zero and negative parts, and the
# fewest steps there are
SPLIT_RUNS = [pytest.param(kind, coupling, seeds, steps,
                           id=f"{kind}-d{len(seeds[0])}-{steps}")
              for kind, coupling, seeds in (
                  ("evolve", [[[-2, 0]]], [[[0, -1]], [[-3, 0]]]),
                  ("evolve", TRIDIAGONAL, TRIDIAGONAL_SEEDS),
                  ("audit", TRIDIAGONAL, [[[0, 0], [-1, 0], [0, 2]],
                                          [[0, -1], [0, 0], [-2, -1]]]))
              for steps in (0, 1, 38)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind, coupling, seeds, steps", SPLIT_RUNS)
def test_the_trajectory_text_is_the_same_wherever_it_is_split(tmp_path, monkeypatch, kind,
                                                               coupling, seeds, steps, fmt):
    # the child prints slices 0 ... k-1 and this process the rest, at the
    # offset it counted; k is forced through the share the split is fixed
    # by, and the run without `os.fork`, which does not split, prints the
    # same bytes
    cfg = load_config(write_config(tmp_path / "cfg.json", {
        "kind": kind, "hamiltonians": [coupling], "seeds": seeds, "steps": steps,
        "output": {"format": fmt}}))
    h = cfg.params["hamiltonian"]
    traj = evolve(*cfg.params["seeds"], h, steps)
    want = (traj.to_csv(h) if fmt == "csv" else traj.to_json_text(h)).encode()
    slices = steps + 2
    for split in [*range(2, slices + 1), "inline"]:
        with monkeypatch.context() as patched:
            if split == "inline":
                forks = use_schedule(patched, "inline")
            else:
                forks = use_schedule(patched, "forked")
                patched.setattr(cli, "_CHILD_SHARE", split / slices)
                assert cli._split_slice(slices) == split
            out = tmp_path / str(split)
            report = run(cfg, out)
        assert all(c["passed"] for c in report["checks"])
        assert len(forks) == (split != "inline")
        assert (out / f"trajectory.{fmt}").read_bytes() == want, split
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(["report.json", *report["artifact_bytes"]])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# `hamca evolve` whose forked child passes on a piece a millisecond, and
# whose own share of the text, once its verdicts are made, does too,
# printing "tail" as it starts on it
SLOW_TAIL = SLOW_WRITER.replace("cli._while_parent = slow\n", """cli._while_parent = slow
written = cli._pwrite_text

def slow_tail(path, offset, pieces):
    print("tail", flush=True)
    written(path, offset, slow(pieces, cli.os.getppid()))

cli._pwrite_text = slow_tail
""")


@pytest.mark.skipif(not hasattr(os, "fork") or not Path("/proc/self/stat").exists(),
                    reason="needs os.fork and a /proc process table")
@pytest.mark.parametrize("sig, group", [
    pytest.param(signal.SIGKILL, False, id="KILL"),
    pytest.param(signal.SIGTERM, False, id="TERM"),
    pytest.param(signal.SIGTERM, True, id="TERM-group")])
def test_a_run_killed_while_it_prints_its_tail_leaves_no_staging_file(tmp_path, sig,
                                                                      group):
    # the run, or its whole process group, is killed while it prints its
    # share of the trajectory into the file its child prints into: a run
    # sent SIGTERM kills its child and removes the file, and a child left
    # behind sees that it was reparented and removes it
    assert "cli._while_parent = slow\n" in SLOW_WRITER
    path = write_config(tmp_path / "cfg.json", dict(KILLED_RUNS["evolve"], steps=1000))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", SLOW_TAIL, "evolve", "--config", path,
                             "--out", str(out)], env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        assert proc.stdout.readline() == "tail\n"
        assert (out / ".trajectory.csv.part").exists() and live_in_group(proc.pid) != []
        (os.killpg if group else os.kill)(proc.pid, sig)
        assert proc.wait(timeout=10) == -sig
        deadline = time.monotonic() + 10
        while live_in_group(proc.pid) or any(out.glob(".*.part")):
            assert time.monotonic() < deadline, \
                (live_in_group(proc.pid), sorted(p.name for p in out.iterdir()))
            time.sleep(0.01)
        assert list(out.iterdir()) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()


def failing_series(series):
    yield "n,G0\n"
    raise RuntimeError("series interrupted")


def failing_reversal(window):
    raise RuntimeError("reversal interrupted")


@pytest.mark.parametrize("schedule", ["forked", "inline"])
@pytest.mark.parametrize("kind, patch", [
    pytest.param("evolve", (automaton._EvolveWindow, "reverses", failing_reversal,
                            "reversal interrupted"), id="evolve"),
    pytest.param("audit", (conservation, "_series_csv_pieces", failing_series,
                           "series interrupted"), id="audit")])
def test_a_raising_verdict_kills_the_writer_and_leaves_no_file(tmp_path, monkeypatch,
                                                               capsys, kind, patch,
                                                               schedule):
    # a verdict fails while the child may still be writing: the child is
    # killed and reaped, and neither its text nor any file this process
    # staged (the audit's `audit.json`, before `series.csv` fails) is left
    path = write_config(tmp_path / "cfg.json", FORK_RUNS[kind][0])
    out = tmp_path / "out"
    with monkeypatch.context() as patched:
        forks = use_schedule(patched, schedule)
        kills = count_calls(patched, os, "kill")
        patched.setattr(*patch[:3])
        code = main([kind, "--config", path, "--out", str(out)])
    assert code == 1 and list(out.iterdir()) == []
    assert capsys.readouterr().err == f"FAIL {kind} — RuntimeError: {patch[3]}\n"
    assert len(forks) == len(kills) == (schedule == "forked")
    assert all(sig == signal.SIGKILL for _, sig in kills)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_in_both_schedules(tmp_path, monkeypatch, capsys, obj, patch=None):
    """Exit code, stdout less its last line, report.json less the timing
    and paths, and the artifact bytes of `hamca audit` on `obj`, with
    `os.fork` ("forked") and without ("inline"), with no child or staged
    file left."""
    path = write_config(tmp_path / "cfg.json", obj)
    runs = []
    for schedule in ("forked", "inline"):
        out = tmp_path / schedule
        with monkeypatch.context() as patched:
            forks = use_schedule(patched, schedule)
            if patch:
                patched.setattr(*patch)
            capsys.readouterr()
            code = main(["audit", "--config", path, "--out", str(out)])
        assert len(forks) == (schedule == "forked")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        report = json.loads((out / "report.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(["report.json", *report["artifact_bytes"]])
        del report["wall_time_s"], report["artifacts"]
        runs.append((code, capsys.readouterr().out.splitlines()[:-1], report,
                     [(out / n).read_bytes() for n in sorted(report["artifact_bytes"])]))
    return runs


# a drifting observable's per-G series, at step counts from 127 to 384;
# and `TILTED_AUDIT` with a corrupted slice
PER_G_DRIFT = dict(GOLDEN_AUDITS["drift"][0],
                   observables=[[[[1, 0], [1, 2]], [[1, -2], [0, 0]]]])


@pytest.mark.parametrize("obj, bumped", [
    pytest.param(dict(PER_G_DRIFT, steps=steps), None, id=str(steps))
    for steps in (127, 128, 191, 192, 319, 320, 383, 384)]
    + [pytest.param(TILTED_AUDIT, 150, id="slice-150")])
def test_a_drifting_audit_writes_the_same_bytes_in_both_schedules(tmp_path, monkeypatch,
                                                                  capsys, obj, bumped):
    patch = None
    if bumped is not None:
        patch = (automaton, "_evolve_slices", bump_slice(automaton._evolve_slices,
                                                         bumped))
    forked, inline = run_in_both_schedules(tmp_path, monkeypatch, capsys, obj, patch)
    assert forked == inline
    assert forked[0] == (0 if bumped is None else 1)
    # and they are the library's audit of the slices
    cfg = load_config(write_config(tmp_path / "lib.json", obj))
    h, (s0, s1), steps = (cfg.params[k] for k in ("hamiltonian", "seeds", "steps"))
    stream = automaton._evolve_slices
    if bumped is not None:
        stream = bump_slice(stream, bumped)
    traj = Trajectory(stream(s0, s1, h, steps))
    obs = cfg.params["observables"]
    labels = [f"G{k}" for k in range(len(obs))]
    audit = conservation.audit_conservation(traj, h, obs, labels)
    assert any(not e.conserved for e in audit.entries)
    out = tmp_path / "forked"
    assert (out / "audit.json").read_text() == \
        json.dumps(audit.to_json_obj(), indent=2, sort_keys=True) + "\n"
    assert (out / "series.csv").read_text() == conservation.series_to_csv(
        [(l, conservation.two_point_series(traj, g)) for l, g in zip(labels, obs)])


# the composite configs run in both schedules, with the artifacts this
# process writes itself in a forked run (a zero interaction, like none,
# predicts a zero residual; the child writes the rest)
SCHEDULE_RUNS = {
    "multi-example": (EXAMPLES["multi"], ["residual.csv"]),
    "bell-example": (EXAMPLES["bell"], []),
    "multi-interacting": ({k: v for k, v in GOLDEN_RUNS["multi"][0].items()
                           if k != "synchronized"}, ["residual.csv"]),
    "multi-synchronized": ({k: v for k, v in GOLDEN_RUNS["multi"][0].items()
                            if k != "interaction"}, []),
    "multi-zero-interaction": (dict(MULTI_1x1, interaction=[[[0, 0]]]), []),
    "bell-golden": (GOLDEN_RUNS["bell"][0], []),
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_RUNS))
def test_a_composite_run_writes_the_same_bytes_in_both_schedules(tmp_path,
                                                                 monkeypatch, name):
    obj, rewritten = SCHEDULE_RUNS[name]
    cfg = load_config(write_config(tmp_path / "cfg.json", obj))
    runs = []
    for schedule in ("forked", "inline"):
        out = tmp_path / schedule
        with monkeypatch.context() as patched:
            forks = use_schedule(patched, schedule)
            writes = count_calls(patched, cli, "_write_text")
            report = run(cfg, out)
        assert len(forks) == (schedule == "forked")
        names = sorted(report["artifact_bytes"])
        assert sorted(path.name for path, _ in writes) == sorted(
            ["report.json", *(rewritten if forks else names)])
        del report["wall_time_s"], report["artifacts"]
        runs.append((report, [(out / n).read_bytes() for n in names]))
    assert runs[0] == runs[1]


def bump_one_value(residual):
    """`many_time_residual` with one unit added to one interior value."""

    def bumped(*args):
        res = residual(*args)
        vec = res.field.vector
        k = len(vec) // 2
        re = vec.re[:k] + (vec.re[k] + 1,) + vec.re[k + 1:]
        return multipartite.ManyTimeResidual(MultiWave(
            res.field.dims, res.field.clock_shape, GIVector._from_parts(re, vec.im)))

    return bumped


@pytest.mark.parametrize("schedule", ["forked", "inline"])
def test_a_nonzero_bell_residual_is_written_as_computed(tmp_path, monkeypatch,
                                                        capsys, schedule):
    # the child's zero residual is a prediction; a computed residual that
    # is not zero is written, and fails its check, whatever the child did
    path = write_config(tmp_path / "cfg.json", EXAMPLES["bell"])
    cfg = load_config(path)
    h, ((a0, a1), (b0, b1)) = cfg.params["hamiltonian"], cfg.params["seed_pairs"]
    wave = multipartite.bell_state(evolve(a0, a1, h, 4), evolve(b0, b1, h, 4))
    bumped = bump_one_value(multipartite.many_time_residual)
    expected = bumped(wave, [h, h])
    monkeypatch.setattr(multipartite, "many_time_residual", bumped)
    forks = use_schedule(monkeypatch, schedule)
    out = tmp_path / "out"
    assert main(["bell", "--config", path, "--out", str(out)]) == 1
    assert len(forks) == (schedule == "forked")
    assert capsys.readouterr().out.splitlines()[0] == "FAIL residual_zero"
    rows = (out / "residual.csv").read_text().splitlines()
    assert "\n".join(rows) + "\n" == expected.to_csv()
    assert sum(not row.endswith(",0,0") for row in rows[1:]) == 1
    assert (out / "bell_field.json").read_text() == wave.to_json_text()


@pytest.mark.parametrize("schedule", ["forked", "inline"])
def test_a_field_that_cannot_be_published_leaves_no_staged_file(tmp_path, monkeypatch,
                                                                capsys, schedule):
    publish = cli._publish

    def failing(path):
        if path.name != "field.json":
            return publish(path)
        cli._staged(path).unlink()
        raise RuntimeError(f"cannot write {path.name}")

    monkeypatch.setattr(cli, "_publish", failing)
    use_schedule(monkeypatch, schedule)
    path = write_config(tmp_path / "cfg.json", FORK_RUNS["multi"][0])
    out = tmp_path / "out"
    assert main(["multi", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "FAIL multi — RuntimeError: cannot write field.json\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("schedule", ["forked", "inline"])
def test_a_product_that_fails_its_certificate_writes_nothing(tmp_path, monkeypatch,
                                                             capsys, schedule):
    # the child may have staged the field and the zero residual by the
    # time the certificate fails; neither may be left in --out
    path = write_config(tmp_path / "cfg.json", FORK_RUNS["multi"][0])
    product = multipartite.product_wave

    def bumped(factors):
        wave = product(factors)
        k = wave._flat((1, 1, 1), (0, 0, 0))  # an interior clock point
        return wave + MultiWave(wave.dims, wave.clock_shape,
                                [int(i == k) for i in range(len(wave.vector))])

    monkeypatch.setattr(multipartite, "product_wave", bumped)
    forks = use_schedule(monkeypatch, schedule)
    out = tmp_path / "out"
    assert main(["multi", "--config", path, "--out", str(out)]) == 1
    assert len(forks) == (schedule == "forked")
    assert capsys.readouterr().err == (
        "FAIL multi — AssertionError: product of solutions has nonzero residual; "
        "this indicates a bug, not bad input\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("fmt, schedule", FMT_SCHEDULES)
def test_evolve_peak_memory_stays_below_its_artifact(tmp_path, monkeypatch, fmt,
                                                     schedule):
    # entries grow ~1.63 bits per step, so the history and its text both
    # grow as steps**2; decimal text costs ~2.3x the int storage, so only a
    # run that streams its text and compares the oracle slice by slice
    # stays below the artifact's size (the whole text would not fit)
    cfg = load_config(write_config(tmp_path / "cfg.json", {
        "kind": "evolve", "hamiltonians": [TRIDIAGONAL],
        "seeds": [[[1, 0], [0, -1], [2, 1]], [[0, 1], [1, 0], [-1, 0]]],
        "steps": 1000, "output": {"format": fmt}}))
    use_schedule(monkeypatch, schedule)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        report = run(cfg, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert all(c["passed"] for c in report["checks"])
    assert peak < report["artifact_bytes"][f"trajectory.{fmt}"]


def test_the_phase_space_check_compares_every_slice_and_the_length(tmp_path,
                                                                   monkeypatch):
    # each faulty stream but the bumped one keeps to the rule, so only one
    # part of the check can catch it: the slice count or the seeds
    cfg = load_config(evolve_config(tmp_path, steps=6))
    stream = automaton._evolve_slices

    def short(*args):
        return itertools.islice(stream(*args), 7)

    def bumped(*args):
        for n, s in enumerate(stream(*args)):
            yield s + GIVector([1, 0]) if n == 4 else s

    def long(s0, s1, h, steps):
        return stream(s0, s1, h, steps + 1)

    def reseeded(s0, s1, h, steps):
        return stream(s0 + GIVector([0, 1]), s1, h, steps)

    for slices, ok in ((stream, True), (short, False), (bumped, False), (long, False),
                       (reseeded, False)):
        monkeypatch.setattr(automaton, "_evolve_slices", slices)
        checks = {c["name"]: c["passed"]
                  for c in run(cfg, tmp_path / "out")["checks"]}
        assert checks["phase_space_equivalence"] is ok
        assert checks["recurrence_holds_everywhere"] is (slices is not bumped)


def evolve_peak(tmp_path, h, steps, fmt):
    """Traced peak bytes of one `hamca evolve` run from the tridiagonal seeds."""
    cfg = load_config(write_config(tmp_path / "cfg.json", {
        "kind": "evolve", "hamiltonians": [h],
        "seeds": [[[1, 0], [0, -1], [2, 1]], [[0, 1], [1, 0], [-1, 0]]],
        "steps": steps, "output": {"format": fmt}}))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        report = run(cfg, tmp_path / f"out-{steps}")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert all(c["passed"] for c in report["checks"])
    return peak


@pytest.mark.parametrize("fmt, schedule", FMT_SCHEDULES)
def test_evolve_peak_memory_does_not_grow_with_the_history(tmp_path, monkeypatch,
                                                           fmt, schedule):
    # entries grow ~11.6 bits per step under 1000x the tridiagonal
    # coupling, so a window of slices grows about linearly in steps and a
    # held history quadratically: 4x the steps costs a window ~4x (less,
    # with the run's fixed costs) and a history ~16x (measured: 12x)
    h = [[[1000 * re, im] for re, im in row] for row in TRIDIAGONAL]
    use_schedule(monkeypatch, schedule)
    small, large = (evolve_peak(tmp_path, h, steps, fmt) for steps in (250, 1000))
    assert large < 8 * small


def bump_slice(stream, k):
    """`stream` with entry 0 of slice k raised by one, later slices unchanged."""

    def bumped(*args):
        for n, s in enumerate(stream(*args)):
            yield s + GIVector([1, 0, 0]) if n == k else s

    return bumped


def bump_step(monkeypatch, target):
    """Hand out H's forward step so that it raises entry 0 of the slice
    the forward stream's own call makes from `target`, (psi_{k-2},
    psi_{k-1}); every other call gives the step's value."""
    stream = automaton._evolve_slices.__code__

    def bumping(h, kind, step):
        def bumped(v, base):
            out = step(v, base)
            if sys._getframe(1).f_code is stream and (base, v) == target:
                return out + GIVector([1, 0, 0])
            return out

        return bumped

    wrap_steps(monkeypatch, ("forward",), bumping)


def flipped_kernel(m, v, base=None):
    """`GIMatrix.apply` with one sign flipped: its imaginary loop adds
    c * Im v to the real part instead of subtracting it."""
    base_re, base_im = (itertools.repeat(0),) * 2 if base is None else (base.re, base.im)
    out_re, out_im = [], []
    for (re_terms, im_terms), r, i in zip(m._program, base_re, base_im):
        for j, c in re_terms:
            r += c * v.re[j]
            i += c * v.im[j]
        for j, c in im_terms:
            r += c * v.im[j]
            i += c * v.re[j]
        out_re.append(r)
        out_im.append(i)
    return GIVector._from_parts(tuple(out_re), tuple(out_im))


def use_flipped_kernel(monkeypatch):
    """Run H's forward and backward steps, and `automaton._affine`, as
    `flipped_kernel` on the step's matrix."""
    monkeypatch.setattr(automaton, "_affine", flipped_kernel)
    wrap_steps(monkeypatch, STEP_MATRICES,
               lambda h, kind, step: functools.partial(flipped_kernel, step_matrix(h, kind)))


def flipped_generator():
    """`gaussian._straight_line` with one sign flipped: the term it emits
    for an imaginary coefficient c in a real part adds c * Im v instead
    of subtracting it (the operator before the shared product |c| * Im v,
    or before Im v itself where |c| = 1, is the one flipped)."""
    source = inspect.getsource(gaussian._straight_line)
    emitted = 'r.append(term(-c, f"xi{j}"))'
    assert source.count(emitted) == 1
    namespace = dict(vars(gaussian))
    exec(source.replace(emitted, 'r.append(term(c, f"xi{j}"))'), namespace)
    return namespace["_straight_line"]


def flipped_split_generator():
    """`automaton._split_line` with one sign flipped: the term it emits
    for hS_i . x_n in p_i adds it instead of subtracting it (the operator
    before the shared product |c| * x_j, or before x_j itself where
    |c| = 1, is the one flipped)."""
    source = inspect.getsource(automaton._split_line)
    emitted = 'p += term(-1, c, f"xc{j}")'
    assert source.count(emitted) == 1
    namespace = dict(vars(automaton))
    exec(source.replace(emitted, 'p += term(1, c, f"xc{j}")'), namespace)
    return namespace["_split_line"]


def flipped_split_step(rows, psi, base):
    """`automaton._split_step` with one sign flipped: hS_i . x_n is added
    to p_i instead of subtracted."""
    xc, pc = psi.re, psi.im
    x_out, p_out = [], []
    for (s_terms, a_terms), x, p in zip(rows, base.re, base.im):
        for j, c in s_terms:
            x += c * pc[j]
            p += c * xc[j]
        for j, c in a_terms:
            x += c * xc[j]
            p += c * pc[j]
        x_out.append(x)
        p_out.append(p)
    return tuple(x_out), tuple(p_out)


# TRIDIAGONAL's pattern at d = 9, one past the cap on generated kernels,
# so its forward step runs `apply`'s loop and its checked pass the loop
# `_split_step`
WIDE = 9
WIDE_TRIDIAGONAL = [[[2 if i == j else int(abs(i - j) == 1), 0] for j in range(WIDE)]
                    for i in range(WIDE)]
WIDE_SEEDS = [[[i % 3 - 1, (2 * i) % 3 - 1] for i in range(WIDE)],
              [[(i + 1) % 2, i % 3 - 1] for i in range(WIDE)]]


@pytest.mark.parametrize("schedule", ["forked", "inline"])
@pytest.mark.parametrize("mutant", ["kernel", "generator", "split form", "split generator"])
@pytest.mark.parametrize("kind", ["evolve", "audit"])
def test_a_mutant_program_fails_the_recurrence_check(tmp_path, monkeypatch, capsys,
                                                     kind, mutant, schedule):
    # the kernel makes the slices and the split form checks them, so a
    # sign flipped in either program, or in the generator of the step
    # matrices' straight-line kernels or of H's straight-line split step,
    # shows: the checks fail by name and no run ends in an internal error;
    # the trajectory written, in either format, is the slices the run made
    forks = use_schedule(monkeypatch, schedule)
    config = FORK_RUNS[kind][0]
    if mutant == "kernel":
        monkeypatch.setattr(GIMatrix, "apply", flipped_kernel)
        use_flipped_kernel(monkeypatch)
    elif mutant == "generator":
        monkeypatch.setattr(automaton, "_straight_line", flipped_generator())
    elif mutant == "split generator":
        monkeypatch.setattr(automaton, "_split_line", flipped_split_generator())
    else:
        # the loop form checks only an H past the cap
        monkeypatch.setattr(automaton, "_split_step", flipped_split_step)
        config = dict(config, hamiltonians=[WIDE_TRIDIAGONAL], seeds=WIDE_SEEDS)
    for fmt in ("csv", "json"):
        obj = dict(config, output={"format": fmt})
        path = write_config(tmp_path / f"{fmt}.json", obj)
        out_dir = tmp_path / fmt
        code = main([kind, "--config", path, "--out", str(out_dir)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        failed = [line.split(" — ")[0] for line in out.splitlines()
                  if line.startswith("FAIL ")]
        want = (["FAIL recurrence_holds_everywhere", "FAIL action_zero_on_solution"]
                if kind == "evolve" else ["FAIL trajectory_is_solution"])
        assert failed[:len(want)] == want
        cfg = load_config(path)
        made = Trajectory(automaton._evolve_slices(*cfg.params["seeds"],
                                                   cfg.params["hamiltonian"], obj["steps"]))
        text = (reference_csv(made) if fmt == "csv"
                else reference_json(made.to_json_obj()))
        # compared line by line: a failing comparison reports the first
        # line that differs
        assert (out_dir / f"trajectory.{fmt}").read_text().splitlines(True) == \
            text.splitlines(True)
    assert len(forks) == (2 if schedule == "forked" else 0)


@pytest.mark.parametrize("fmt, schedule", FMT_SCHEDULES)
@pytest.mark.parametrize("where", ["slice", "step"])
def test_the_window_checks_the_slices_it_writes(tmp_path, monkeypatch, fmt, schedule,
                                                where):
    # a corrupted slice k, whether it keeps to the rule after k (a forward
    # step went wrong) or not (a slice changed after it was made), must
    # show in every verdict and be written as it is: the window's bracket
    # comes from the split form, not from the kernel that made the slice
    cfg = load_config(write_config(tmp_path / "cfg.json", {
        "kind": "evolve", "hamiltonians": [TRIDIAGONAL],
        "seeds": [[[1, 0], [0, -1], [2, 1]], [[0, 1], [1, 0], [-1, 0]]],
        "steps": 9, "output": {"format": fmt}}))
    h, (s0, s1) = cfg.params["hamiltonian"], cfg.params["seeds"]
    clean = evolve(s0, s1, h, 9)
    if where == "slice":
        monkeypatch.setattr(automaton, "_evolve_slices",
                            bump_slice(automaton._evolve_slices, 5))
    else:
        bump_step(monkeypatch, (clean[3], clean[4]))
    corrupted = Trajectory(automaton._evolve_slices(s0, s1, h, 9))
    assert corrupted != clean and corrupted[5] != clean[5]
    forks = use_schedule(monkeypatch, schedule)
    report = run(cfg, tmp_path / "out")
    assert len(forks) == (schedule == "forked")
    checks = {c["name"]: (c["passed"], c["info"]) for c in report["checks"]}
    action = automaton.action_evaluate(corrupted, h).as_int
    assert action != 0
    assert checks["recurrence_holds_everywhere"] == (False, "")
    assert checks["action_zero_on_solution"] == (False, f"value {action}")
    assert checks["phase_space_equivalence"] == (False, "")
    nxt, cur = corrupted[-1], corrupted[-2]
    for _ in range(9):
        nxt, cur = cur, automaton.step_backward(nxt, cur, h)
    assert checks["reversibility_roundtrip"] == \
        ((cur, nxt) == (corrupted[0], corrupted[1]), "")
    written = (tmp_path / "out" / f"trajectory.{fmt}").read_text()
    assert written == (corrupted.to_csv(h) if fmt == "csv"
                       else corrupted.to_json_text(h))


# sha256 of each artifact and of report.json without `wall_time_s` and the
# artifact paths, for a complex coupling; steps 0 has no action check and
# steps 1 one bracket site
EVOLVE_GOLDEN = {
    (0, "csv"): ("bdc91f83d474eff0f60ca700b76536d13929e11ce3bea5259f6fb5afb6d015c0",
                 "02c4b1302a9df41d55db2f707913bb564b3725308f224721dcdf62e11ea2494d"),
    (0, "json"): ("dba5d00c135ac6bac08e43bcda8b53b73c096c572ccf0e2dd38b12ebd71a6958",
                  "71ab1e39d83fb7781be42e450244b05c5abcb81bea574e8c7166b38bb533aa8a"),
    (1, "csv"): ("13c2646ddd86eb8df16e9805b64dcfb5c9a778a58f3236c86394db60d42641dc",
                 "07bfa4923eaa61470978f1ae5cbf7f247706aaad8f3f52ee8170eadab2b396e1"),
    (1, "json"): ("3d59e6b3791ff5d6a00a1a1e00d99d82ba1f875dabb69173862ba1eeeca1e0cb",
                  "a8fc2cb93f539939c73ce26db2a20575dbd41b02d5326d27cf3d8597d2cf1469"),
    (2, "csv"): ("48706f5387ca161d1d458cd96053943852213facf1c8d2dc9ddb48305fa07f04",
                 "ded6c77b63471715d168b27c9e7bc9cab230422d863342f5ab91f59a8ea9a48f"),
    (2, "json"): ("90554a4728a237f1a1d5e50c3da3c8e9d7d7bf7405c5d228779778bac1078129",
                  "51c932473615e6197ee47bc2f98486f79bc81aa44aef2d2cc3e43e7208a0b498"),
}


@pytest.mark.parametrize("steps, fmt", sorted(EVOLVE_GOLDEN))
def test_short_evolve_runs_keep_their_bytes(tmp_path, capsys, steps, fmt):
    path = write_config(tmp_path / "cfg.json", {
        "kind": "evolve", "hamiltonians": [[[[2, 0], [1, 1]], [[1, -1], [-1, 0]]]],
        "seeds": [[[1, 0], [0, -1]], [[0, 1], [2, 0]]], "steps": steps,
        "output": {"format": fmt}})
    out = tmp_path / "out"
    assert main(["evolve", "--config", path, "--out", str(out)]) == 0
    names = ["recurrence_holds_everywhere", "reversibility_roundtrip",
             "phase_space_equivalence"]
    lines = [f"PASS {name}" for name in names]
    if steps:
        lines.insert(1, "PASS action_zero_on_solution — value 0")
    assert capsys.readouterr().out.splitlines()[:-1] == lines
    report = json.loads((out / "report.json").read_text())
    del report["wall_time_s"], report["artifacts"]
    digests = (hashlib.sha256((out / f"trajectory.{fmt}").read_bytes()).hexdigest(),
               hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
    assert digests == EVOLVE_GOLDEN[(steps, fmt)]


def audit_peak(tmp_path, monkeypatch, h, steps, fmt):
    """Traced peak bytes of one `hamca audit` run from the tridiagonal
    seeds, and the growth of a forked child's `ru_maxrss` past the RSS it
    started with (None without a child)."""
    cfg = load_config(write_config(tmp_path / "cfg.json", {
        "kind": "audit", "hamiltonians": [h],
        "seeds": [[[1, 0], [0, -1], [2, 1]], [[0, 1], [1, 0], [-1, 0]]],
        "steps": steps, "output": {"format": fmt}}))
    start, child = tmp_path / f"child-start-{steps}", []
    fork = getattr(os, "fork", None)

    def forking():
        pid = fork()
        if pid == 0:  # the child's peak so far is the RSS it starts with
            import resource
            start.write_text(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
        return pid

    def waiting(pid, options):
        pid, status, usage = os.wait4(pid, options)
        child.append(usage.ru_maxrss)
        return pid, status

    started = not tracemalloc.is_tracing()
    with monkeypatch.context() as patched:
        if fork is not None:
            patched.setattr(os, "fork", forking)
            patched.setattr(os, "waitpid", waiting)
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            report = run(cfg, tmp_path / f"out-{steps}")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
    assert all(c["passed"] for c in report["checks"])
    return peak, (child[0] - int(start.read_text()) if child else None)


@pytest.mark.parametrize("fmt, schedule", FMT_SCHEDULES)
def test_audit_peak_memory_does_not_grow_with_the_history(tmp_path, monkeypatch,
                                                          fmt, schedule):
    # as for evolve: 4x the steps costs a window of slices (and the
    # series, one int per observable and step) ~4x, and a held history
    # ~16x (measured with the run's fixed costs: 2.1x and 9.8x).  The
    # forked child runs the forward step too, to write the text: its RSS
    # grew 1.0-1.9x as much at 1000 steps as at 250 (0.7-1.3 MB) while it
    # also held a third of the series, and 5.7-7.3x had it held the
    # history, so 4x is the bound
    h = [[[1000 * re, im] for re, im in row] for row in TRIDIAGONAL]
    use_schedule(monkeypatch, schedule)
    (small, child_small), (large, child_large) = (
        audit_peak(tmp_path, monkeypatch, h, steps, fmt) for steps in (250, 1000))
    assert large < 8 * small
    if schedule == "forked":
        assert child_large < 4 * child_small
    else:
        assert child_small is child_large is None


@pytest.mark.parametrize("fmt, schedule", FMT_SCHEDULES)
@pytest.mark.parametrize("where", ["slice", "step"])
def test_the_audit_window_checks_the_slices_it_writes(tmp_path, monkeypatch, fmt,
                                                       schedule, where):
    # the audit twin of the evolve test: a corrupted slice k shows in the
    # solution check at the site the stored history gives, and every
    # artifact is the one the library writes for that history
    cfg = load_config(write_config(tmp_path / "cfg.json", {
        "kind": "audit", "hamiltonians": [TRIDIAGONAL],
        "seeds": [[[1, 0], [0, -1], [2, 1]], [[0, 1], [1, 0], [-1, 0]]],
        "steps": 9, "output": {"format": fmt}}))
    h, (s0, s1) = cfg.params["hamiltonian"], cfg.params["seeds"]
    clean = evolve(s0, s1, h, 9)
    if where == "slice":
        monkeypatch.setattr(automaton, "_evolve_slices",
                            bump_slice(automaton._evolve_slices, 5))
    else:
        bump_step(monkeypatch, (clean[3], clean[4]))
    corrupted = Trajectory(automaton._evolve_slices(s0, s1, h, 9))
    assert corrupted != clean and corrupted[5] != clean[5]
    forks = use_schedule(monkeypatch, schedule)
    report = run(cfg, tmp_path / "out")
    assert len(forks) == (schedule == "forked")
    checks = {c["name"]: (c["passed"], c["info"]) for c in report["checks"]}
    bad = automaton.first_recurrence_violation(corrupted, h)
    assert bad is not None
    assert checks["trajectory_is_solution"] == (False, f"first bad site {bad}")
    labels, basis = zip(*conservation.default_commutant_basis(h))
    audit = conservation.audit_conservation(corrupted, h, basis, labels)
    out = tmp_path / "out"
    assert (out / "audit.json").read_text() == \
        json.dumps(audit.to_json_obj(), indent=2, sort_keys=True) + "\n"
    assert (out / "series.csv").read_text() == conservation.series_to_csv(
        [(l, conservation.two_point_series(corrupted, g))
         for l, g in zip(labels, basis)])
    written = (out / f"trajectory.{fmt}").read_text()
    assert written == (corrupted.to_csv(h) if fmt == "csv"
                       else corrupted.to_json_text(h))


# sha256 of the trajectory, audit.json, series.csv and report.json without
# `wall_time_s` and the artifact paths, recorded from the audit that held
# its whole history: the default basis of a complex coupling, and one
# non-commuting complex observable (the per-G series and the drift);
# steps 0 has one series value and steps 1 one bracket site
AUDIT_GOLDEN = {
    ("default", 0, "csv"): (
        "bdc91f83d474eff0f60ca700b76536d13929e11ce3bea5259f6fb5afb6d015c0",
        "bba9f55b0b6756d1882b12995792ec9a2c67430b32da5fdc1aa224578694f6b4",
        "5d845e26439b5a35dd44182cc78582b97913a4915d619e8dc969ec9c89869528",
        "c04f053cc481ef51b3af6e29c183f9a64c06280611578938c602830f95007d22"),
    ("default", 0, "json"): (
        "dba5d00c135ac6bac08e43bcda8b53b73c096c572ccf0e2dd38b12ebd71a6958",
        "bba9f55b0b6756d1882b12995792ec9a2c67430b32da5fdc1aa224578694f6b4",
        "5d845e26439b5a35dd44182cc78582b97913a4915d619e8dc969ec9c89869528",
        "ae2a742e2b5b2899a4d7078ba8acfe0e1b07f66d40c8b0cc558c99cc34f03e5b"),
    ("default", 1, "csv"): (
        "13c2646ddd86eb8df16e9805b64dcfb5c9a778a58f3236c86394db60d42641dc",
        "f20507944fe286e8adcae404de051d831acd6d36e8144e23b6416619fc219ce5",
        "62d7a82d79c82c7ab6d701d2dec8b3139361eeffc3ce20652c5045638c94f9cc",
        "c76ad3dae146608adf09b55619f69c2d91fb45d2f4e7bded9ed73f4c8dd5118b"),
    ("default", 1, "json"): (
        "3d59e6b3791ff5d6a00a1a1e00d99d82ba1f875dabb69173862ba1eeeca1e0cb",
        "f20507944fe286e8adcae404de051d831acd6d36e8144e23b6416619fc219ce5",
        "62d7a82d79c82c7ab6d701d2dec8b3139361eeffc3ce20652c5045638c94f9cc",
        "a12a19f37e13ef9ce208c062af329832451a7e7da9082bdacf41acd8122dbb1b"),
    ("default", 2, "csv"): (
        "48706f5387ca161d1d458cd96053943852213facf1c8d2dc9ddb48305fa07f04",
        "ebd43b5562dc2a24e788d7f98e989a01b911cee33ca5f7361e3eb58f536ceb39",
        "aa5cc2fabff67672d2b25378ab162b672dca554643876b8c34bec1094a613dd5",
        "aef4179f724832a976bdc213e2ada174b1cc3468a229c833759b0acaa6f2c58a"),
    ("default", 2, "json"): (
        "90554a4728a237f1a1d5e50c3da3c8e9d7d7bf7405c5d228779778bac1078129",
        "ebd43b5562dc2a24e788d7f98e989a01b911cee33ca5f7361e3eb58f536ceb39",
        "aa5cc2fabff67672d2b25378ab162b672dca554643876b8c34bec1094a613dd5",
        "d0b701409cacb6cbcd967fe515cc9752bc1e4def02e49ed9a26dbde62600169d"),
    ("drift", 0, "csv"): (
        "bdc91f83d474eff0f60ca700b76536d13929e11ce3bea5259f6fb5afb6d015c0",
        "a6877a76d5597da5f30667c392f526c309e662cc338ee70e8b583ac7c7b12b00",
        "bb0a6bf4d0533aac57122e6c1410c5e543d59f52253a31631fcda4092cda7cf5",
        "d9382e451685272b58d11ed238b86ae54cd569e29910b6dc2f0c7b99c4945016"),
    ("drift", 0, "json"): (
        "dba5d00c135ac6bac08e43bcda8b53b73c096c572ccf0e2dd38b12ebd71a6958",
        "a6877a76d5597da5f30667c392f526c309e662cc338ee70e8b583ac7c7b12b00",
        "bb0a6bf4d0533aac57122e6c1410c5e543d59f52253a31631fcda4092cda7cf5",
        "355414240039e5868831077ad4c17cce40e5b20621177f57c27972da0d8d6229"),
    ("drift", 1, "csv"): (
        "13c2646ddd86eb8df16e9805b64dcfb5c9a778a58f3236c86394db60d42641dc",
        "079e7a5d516413e52802e95e1b5cf5dfd8ec6b92c07e365550f7adf0dcfa3817",
        "a0eadc6f7e8e0fa51fcaa71c4f3d769db86e3cb75962370e283966eb7a4d4f9c",
        "e998296bf501c753c7ef5d95697cf904e426e7a56a82add0f336a9efef60e6af"),
    ("drift", 1, "json"): (
        "3d59e6b3791ff5d6a00a1a1e00d99d82ba1f875dabb69173862ba1eeeca1e0cb",
        "079e7a5d516413e52802e95e1b5cf5dfd8ec6b92c07e365550f7adf0dcfa3817",
        "a0eadc6f7e8e0fa51fcaa71c4f3d769db86e3cb75962370e283966eb7a4d4f9c",
        "ae9a2d2bab631bc900a9c3bac4376d2ac4274141b1dc80efd84b56d813398ffd"),
    ("drift", 2, "csv"): (
        "48706f5387ca161d1d458cd96053943852213facf1c8d2dc9ddb48305fa07f04",
        "57374d3c667d072f9058a5de0d114646d88bcf76a7ff1b608d7f0343c27c3557",
        "f2bd5ecf46af80f5331fececc499aa3441ba002f1c8ff8a4baa7e12b49dba219",
        "39d624a2c6b7ee8e4559447471670d378dc63f04659194afe91e4accea34a227"),
    ("drift", 2, "json"): (
        "90554a4728a237f1a1d5e50c3da3c8e9d7d7bf7405c5d228779778bac1078129",
        "57374d3c667d072f9058a5de0d114646d88bcf76a7ff1b608d7f0343c27c3557",
        "f2bd5ecf46af80f5331fececc499aa3441ba002f1c8ff8a4baa7e12b49dba219",
        "ff0a1b8fdc8eb5a5baeac45187cd205a93dc357d21f59c06b0da9aa7f6527c73"),
}

SHORT_AUDITS = {
    "default": {},
    "drift": {"observables": [[[[1, 0], [1, 2]], [[1, -2], [0, 0]]]]},
}


@pytest.mark.parametrize("name, steps, fmt", sorted(AUDIT_GOLDEN))
def test_short_and_drifting_audits_keep_their_bytes(tmp_path, capsys, name, steps,
                                                    fmt):
    path = write_config(tmp_path / "cfg.json", dict({
        "kind": "audit", "hamiltonians": [[[[2, 0], [1, 1]], [[1, -1], [-1, 0]]]],
        "seeds": [[[1, 0], [0, -1]], [[0, 1], [2, 0]]], "steps": steps,
        "output": {"format": fmt}}, **SHORT_AUDITS[name]))
    out = tmp_path / "out"
    assert main(["audit", "--config", path, "--out", str(out)]) == 0
    if name == "default":
        lines = ["PASS trajectory_is_solution"] + [
            f"PASS conserved:{label} — value {value}+0i"
            for label, value in (("1", 0), ("H", 2), ("H^2", 2), ("H^3", 10))]
    else:
        lines = ["PASS trajectory_is_solution",
                 "PASS noncommuting:G0 — informational; " +
                 ("drift recorded from n=2" if steps else "constant anyway")]
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:-1] == lines and captured.err == ""
    report = json.loads((out / "report.json").read_text())
    del report["wall_time_s"], report["artifacts"]
    digests = tuple(hashlib.sha256((out / a).read_bytes()).hexdigest()
                    for a in (f"trajectory.{fmt}", "audit.json", "series.csv"))
    digests += (hashlib.sha256(json.dumps(report, sort_keys=True).encode()
                               ).hexdigest(),)
    assert digests == AUDIT_GOLDEN[(name, steps, fmt)]
