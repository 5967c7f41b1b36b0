"""Timing wrappers installed around hamca's public functions from outside.

The traced run patches every `hamca` module namespace (and class) that
binds a wrapped object, so calls made through a name imported with
`from .automaton import evolve` are seen as well as calls through the
module attribute.  Spans stay in memory and are written once, at the end.

Two hot kernels, `GIVector.inner` and `GIMatrix.apply`, run hundreds of
thousands of times per pass.  They are leaves (they call nothing that is
wrapped), so their calls are folded into the enclosing span as a count
and a summed duration instead of being stored one by one.  Self time is
still exact: a span's self time is its duration minus its stored child
spans and its folded leaf time.

`GaussianInt` scalar operators are deliberately not wrapped: a wrapper
costs about as much as one small-integer operation, which would swamp
the `multi-box` workload.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# metric layer name -> list of (owner path, attribute) it wraps
TARGETS = {
    "gaussian.inner": [("hamca.gaussian.GIVector", "inner")],
    "gaussian.apply": [("hamca.gaussian.GIMatrix", "apply")],
    "gaussian.power": [("hamca.gaussian.GIMatrix", "power")],
    "gaussian.commutator": [("hamca.gaussian.GIMatrix", "commutator")],
    "automaton.evolve": [("hamca.automaton", "evolve")],
    "automaton.is_solution": [("hamca.automaton", "is_solution")],
    "automaton.first_recurrence_violation": [
        ("hamca.automaton", "first_recurrence_violation")],
    "automaton.action_evaluate": [("hamca.automaton", "action_evaluate")],
    "automaton.verify_stationarity": [("hamca.automaton", "verify_stationarity")],
    "automaton.step_backward": [("hamca.automaton", "step_backward")],
    "automaton.evolve_phase_space": [("hamca.automaton", "evolve_phase_space")],
    "automaton.encode": [("hamca.automaton.Trajectory", "to_csv"),
                         ("hamca.automaton.Trajectory", "to_json_obj")],
    "conservation.two_point_series": [("hamca.conservation", "two_point_series")],
    "conservation.conservation_rate": [("hamca.conservation", "conservation_rate")],
    "conservation.conserved_quantity": [("hamca.conservation", "conserved_quantity")],
    "conservation.audit_conservation": [("hamca.conservation", "audit_conservation")],
    "conservation.series_to_csv": [("hamca.conservation", "series_to_csv")],
    "multipartite.evolve_factorized": [("hamca.multipartite", "evolve_factorized")],
    "multipartite.product_wave": [("hamca.multipartite", "product_wave")],
    "multipartite.many_time_residual": [("hamca.multipartite", "many_time_residual")],
    "multipartite.encode": [("hamca.multipartite.MultiWave", "to_json_obj"),
                            ("hamca.multipartite.ManyTimeResidual", "to_csv")],
    "sampling.reconstruct": [("hamca.sampling.ContinuumSignal", "from_trajectory"),
                             ("hamca.sampling.ContinuumSignal", "eval")],
    "cli.load_config": [("hamca.cli", "load_config")],
    "cli.run": [("hamca.cli", "run")],
}

# leaf kernels, folded into the caller's span; value: Gaussian entry
# products one call makes (d for an inner product, d*d for a matvec)
LEAVES = {
    "gaussian.inner": lambda vec: len(vec.entries),
    "gaussian.apply": lambda mat: len(mat.rows) ** 2,
}

PASS_SPAN = "bench.pass"

_NAME, _PARENT, _PASS, _T0, _T1, _LEAF_S = range(6)


def _resolve(path):
    """Return the module or class named by a dotted hamca path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(f"{path} is not imported")


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = [PASS_SPAN] + list(TARGETS)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.spans = []          # [name, parent, pass, t0, t1, leaf_s]
        self.stack = []
        self.leaves = {n: [0, 0.0, 0] for n in LEAVES}
        self.pass_id = 0

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target and rebind it wherever hamca bound it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "hamca" or name.startswith("hamca.")]
        for layer, owners in TARGETS.items():
            for owner_path, attr in owners:
                owner = _resolve(owner_path)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    owner_wrapped = classmethod(self._wrap(layer, raw.__func__))
                    setattr(owner, attr, owner_wrapped)
                    continue
                wrapped = self._wrap(layer, raw)
                setattr(owner, attr, wrapped)
                if isinstance(owner, type):
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def _wrap(self, layer, fn):
        if layer in LEAVES:
            return self._wrap_leaf(layer, fn)
        name_id = self.index[layer]
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, self.pass_id,
                    clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[_T1] = clock()
                stack.pop()

        return wrapper

    def _wrap_leaf(self, layer, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        size_of = LEAVES[layer]
        acc = self.leaves[layer]     # [calls, seconds, entries]

        @functools.wraps(fn)
        def wrapper(self_, other):
            t0 = clock()
            result = fn(self_, other)
            dt = clock() - t0
            acc[0] += 1
            acc[1] += dt
            acc[2] += size_of(self_)
            if stack:
                spans[stack[-1]][_LEAF_S] += dt
            return result

        return wrapper

    # -- one traced workload pass ----------------------------------------

    def run_pass(self, pass_id, fn):
        """Call fn() under a root span carrying this pass's id."""
        self.pass_id = pass_id
        span = [self.index[PASS_SPAN], -1, pass_id, time.perf_counter(), 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn()
        finally:
            span[_T1] = time.perf_counter()
            self.stack.pop()

    # -- aggregation -------------------------------------------------------

    def layer_totals(self):
        """Per layer: calls, inclusive seconds and self seconds, from the spans.

        Inclusive time counts only the outermost span of a layer, so a
        layer that reaches itself again is not counted twice.
        """
        n = len(self.names)
        calls = [0] * n
        incl = [0.0] * n
        own = [0.0] * n
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_T1] - span[_T0]
        for i, span in enumerate(self.spans):
            name = span[_NAME]
            dur = span[_T1] - span[_T0]
            calls[name] += 1
            own[name] += dur - child[i] - span[_LEAF_S]
            parent = span[_PARENT]
            while parent >= 0 and self.spans[parent][_NAME] != name:
                parent = self.spans[parent][_PARENT]
            if parent < 0:
                incl[name] += dur
        out = {}
        for layer in TARGETS:
            if layer in LEAVES:
                calls_, seconds, _ = self.leaves[layer]
                out[layer] = (calls_, seconds, seconds)
            else:
                i = self.index[layer]
                out[layer] = (calls[i], incl[i], own[i])
        return out

    def write(self, path, meta):
        """Write every span (times relative to the first) as gzipped JSON."""
        base = self.spans[0][_T0] if self.spans else 0.0
        obj = dict(meta)
        obj["names"] = self.names
        obj["span_fields"] = ["name", "parent", "pass", "t0_s", "t1_s",
                              "folded_leaf_s"]
        obj["spans"] = [[s[_NAME], s[_PARENT], s[_PASS], s[_T0] - base,
                         s[_T1] - base, s[_LEAF_S]] for s in self.spans]
        obj["folded_leaves"] = {
            layer: dict(zip(("calls", "s", "entries"), acc))
            for layer, acc in self.leaves.items()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(obj, fh)
