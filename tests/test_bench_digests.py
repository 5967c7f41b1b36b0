"""The benchmark's CLI workloads still produce their committed artifacts.

`bench/workloads.py` checks a run's artifacts against the sha256
digests in `bench/expected.json` and against its own plain-integer
reference arithmetic.  This loads it by file path and runs one untimed,
fully checked pass of each CLI workload at the default seed, so a
change that alters an artifact byte fails the suite, not only the
benchmark.
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
