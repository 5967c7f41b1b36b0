"""hamca benchmark: run one workload (or all), check every output, print metrics.

    python3 bench/run.py --workload pool --seed 0 --seconds 16 --trace 0
    python3 bench/run.py                       # every workload, default seed

Load is a closed loop: one client, one process, one thread.  A run makes
its inputs from --seed, sets up several times in child processes (the
median is `setup_s`), runs one untimed warm-up, then times workload
passes until --seconds of pass time is used.  With --trace 0 it prints
the end-to-end metrics; with --trace 1 it times untraced passes for half
the budget, then exactly one traced pass, and prints the per-layer
metrics of that pass.  Spans go to .bench_out/ at the checkout root.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 when every check
passed, 1 when one failed, 2 when the hamca sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from hostclock import HostClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units(layers, leaves):
    units = {}
    for layer in layers:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
        if layer in leaves:
            units[f"{layer}.entries"] = "count"
    units.update({
        "gaussian.max_bits": "bits",
        "multipartite.field_values": "count",
        "cli.artifact_bytes": "bytes",
        "size.dim": "count",
        "size.slices": "count",
        "trace_overhead_s": "s",
    })
    return units


def _tail(samples):
    """p90 when at least ten samples lie beyond it (100 or more), else the median."""
    if len(samples) < 100:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _setup_times(clock, workload, seed, checks):
    """Set-up seconds at uncontended speed, each timed in a fresh interpreter.

    The child times the host kernel during its own set-up and reports the
    raw time with the kernel's mean; this run's floor then scales it.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    out = []
    for k in range(SETUP_REPEATS):
        work = OUT / f"setup-{workload}-{os.getpid()}-{k}"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(seed), str(work)],
            capture_output=True, text=True, timeout=120, env=env, check=False)
        shutil.rmtree(work, ignore_errors=True)
        if checks.expect(proc.returncode == 0, f"setup probe failed: "
                                               f"{proc.stderr.strip()[-300:]}"):
            raw, level = (float(x) for x in proc.stdout.split()[-2:])
            out.append(clock.add(raw, level))
    return out


def _timed_passes(clock, wl, checks, budget, min_passes, run=None):
    """Run passes until their summed raw time reaches the budget.

    Returns the interval indices of each pass (one per instance).
    """
    passes = []
    while True:
        wl.prepare()
        result = (run or wl.run_pass)(clock)
        passes.append(wl.check(result, checks)["intervals"])
        if len(passes) >= min_passes and \
                sum(clock.raw(i) for p in passes for i in p) >= budget:
            return passes


def _pass_seconds(clock, intervals, scaled=True):
    return sum((clock.seconds if scaled else clock.raw)(i) for i in intervals)


def run_workload(name, seed, seconds, trace):
    import workloads

    checks = workloads.Checks()
    work = OUT / f"work-{name}-{os.getpid()}"
    try:
        wl = workloads.make(name, seed, work)
        wl.setup()
        wl.warmup(checks)
        if not trace:
            clock = HostClock()
            setup = _setup_times(clock, name, seed, checks)
            passes = _timed_passes(clock, wl, checks, seconds, wl.MIN_PASSES)
            walls = [_pass_seconds(clock, p) for p in passes]
            inst = [clock.seconds(i) for p in passes for i in p]
            factors = [_pass_seconds(clock, p, False) / w for p, w in zip(passes, walls)]
            metrics = {
                "setup_s": statistics.median(clock.seconds(i) for i in setup),
                "wall_s": statistics.median(walls),
                "instance_p50_s": statistics.median(inst),
                "instance_tail_s": _tail(inst),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            detail = (f"{len(passes)} passes, {len(inst)} instance samples, "
                      f"{len(setup)} set-ups; raw set-up median "
                      f"{statistics.median(clock.raw(i) for i in setup):.4f} s, raw wall median "
                      f"{statistics.median(_pass_seconds(clock, p, False) for p in passes):.4f}"
                      f" s, contention factors "
                      + " ".join(f"{f:.2f}" for f in factors))
        else:
            metrics, units, detail = _traced(name, seed, wl, checks, seconds)
        facts = wl.facts
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {name} seed {seed}: {detail}")
    print(f"size: dim {facts['dim']}, slices {facts['slices']}, "
          f"max_bits {facts['max_bits']}, field_values {facts['field_values']}")
    print(f"digest {name} seed {seed}: {facts['digest']}")
    print(f"failed_ratio: {checks.failed}/{checks.attempted}")
    for note in checks.notes:
        print(f"FAILED: {note}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _traced(name, seed, wl, checks, seconds):
    import tracing

    clock = HostClock()
    untraced = [_pass_seconds(clock, p)
                for p in _timed_passes(clock, wl, checks, seconds / 2, 1)]
    tracer = tracing.Tracer()
    tracer.install()
    if hasattr(wl, "load_config"):
        tracer.run_pass(0, wl.load_config)
    (traced_pass,) = _timed_passes(
        clock, wl, checks, 0, 1, run=lambda c: tracer.run_pass(1, lambda: wl.run_pass(c)))
    traced = _pass_seconds(clock, traced_pass)
    facts = wl.facts
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json.gz",
                 {"workload": name, "seed": seed,
                  "traced_pass_s": _pass_seconds(clock, traced_pass, False)})
    units = per_layer_units(tracing.TARGETS, tracing.LEAVES)
    metrics = {}
    for layer, (calls, incl, own) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.s"] = incl
        metrics[f"{layer}.self_s"] = own
        if layer in tracing.LEAVES:
            metrics[f"{layer}.entries"] = tracer.leaves[layer][2]
    metrics.update({
        "gaussian.max_bits": facts["max_bits"],
        "multipartite.field_values": facts["field_values"],
        "cli.artifact_bytes": facts["artifact_bytes"],
        "size.dim": facts["dim"],
        "size.slices": facts["slices"],
        "trace_overhead_s": traced - statistics.median(untraced),
    })
    metrics = {k: metrics[k] for k in units}
    detail = (f"traced pass {traced:.3f} s against untraced median "
              f"{statistics.median(untraced):.3f} s over {len(untraced)} "
              f"(uncontended-speed seconds; layer times are raw)")
    if name == "pool":
        detail += "; " + _stage_order(metrics)
    return metrics, units, detail


def _stage_order(m):
    """Whether the ROADMAP's baseline ordering of pool stages still holds."""
    stages = [("series", m["conservation.two_point_series.s"]),
              ("action+stationarity", m["automaton.action_evaluate.s"]
               + m["automaton.verify_stationarity.s"]),
              ("is_solution", m["automaton.is_solution.s"]),
              ("evolve", m["automaton.evolve.s"])]
    held = all(a[1] > b[1] for a, b in zip(stages, stages[1:]))
    text = " > ".join(f"{n} {s:.2f} s" for n, s in stages)
    return f"stage order {text}: {'reproduced' if held else 'NOT reproduced'}"


def run_all(seed, seconds, trace):
    """Every workload, each in its own process so peak memory stays its own."""
    ok = True
    attempted = failed = 0
    merged = {}
    for name in ("pool", "audit-deep", "evolve-deep", "multi-box"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or proc.returncode not in (0, 1):
            ok = False
            failed += 1
            attempted += 1
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for key, value in res["metrics"].items():
            merged[f"{name}.{key}"] = value
    return {"correct": ok and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": merged}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "pool", "audit-deep", "evolve-deep",
                                 "multi-box"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hamca" / "__init__.py").is_file():
        print(f"hamca sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        import hamca
        if Path(hamca.__file__).resolve().parent != SRC / "hamca":
            print(f"imported hamca from {hamca.__file__}, not {SRC}", file=sys.stderr)
            return 2
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
