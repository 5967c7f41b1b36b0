"""Every function the benchmark's tracer wraps still exists.

`bench/tracing.py` wraps hamca functions by owner path and attribute
name; a rename in `src/hamca` would make a traced benchmark run fail at
install time.  This imports the tracer by file path and resolves each
target the way its installer does.
"""

import importlib.util
from pathlib import Path

# the tracer resolves owners from sys.modules
import hamca.cli  # noqa: F401
import hamca.sampling  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    missing = []
    for layer, owners in tracing.TARGETS.items():
        for owner_path, attr in owners:
            try:
                owner = tracing._resolve(owner_path)
            except (LookupError, AttributeError):
                missing.append(f"{layer}: {owner_path}")
                continue
            # the installer reads a class's own __dict__, a module's attribute
            found = attr in vars(owner) if isinstance(owner, type) \
                else callable(getattr(owner, attr, None))
            if not found:
                missing.append(f"{layer}: {owner_path}.{attr}")
    assert not missing


def test_every_folded_leaf_is_a_target():
    tracing = load_tracing()
    assert set(tracing.LEAVES) <= set(tracing.TARGETS)
