"""The benchmark's workloads still produce their committed results.

`bench/workloads.py` checks a run's artifacts, and `pool`'s verdicts,
against the sha256 digests in `bench/expected.json` and against its own
plain-integer reference arithmetic.  This loads it by file path and runs
one untimed, fully checked pass of each workload at the default seed,
so a change that alters an artifact byte or a verdict fails the suite,
not only the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["multi-box", "audit-deep", "evolve-deep"])
def test_cli_workload_matches_its_committed_digest(tmp_path, name):
    workloads = load_workloads()
    workload = workloads.make(name, workloads.DEFAULT_SEED, tmp_path)
    workload.setup()
    checks = workloads.Checks()
    workload.warmup(checks)
    assert checks.attempted and checks.failed == 0, checks.notes


class UntimedClock:
    """The one method of the harness clock that `Pool.run_pass` calls,
    without the timing: each fn() in turn, numbered."""

    def time_each(self, fns):
        return [(i, fn()) for i, fn in enumerate(fns)]


def test_pool_matches_its_committed_digest(tmp_path):
    workloads = load_workloads()
    workload = workloads.make("pool", workloads.DEFAULT_SEED, tmp_path)
    workload.setup()
    checks = workloads.Checks()
    results = workload.run_pass(UntimedClock())
    assert len(results) == workload.INSTANCES == 30
    # the first pass is checked in full: every final slice against the
    # reference recurrence, every verdict, and the digest of the record
    facts = workload.check(results, checks)
    assert checks.attempted and checks.failed == 0, checks.notes
    assert facts["digest"] == \
        workloads.json.loads(workloads.EXPECTED_PATH.read_text())["pool"]["0"]
