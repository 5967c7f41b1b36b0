"""Experiment runner: config ingestion, orchestration, persistence.

One experiment per invocation.  Configs are strict JSON: every field is
either consumed or rejected, so a typo cannot silently change an
experiment.  Integer data is written as exact decimal text; floats are
printed with 17 significant digits in CSV and as shortest round-trip
literals in JSON.  Identical configs produce byte-identical integer
artifacts.  Trajectories and composite fields are written by their own
linear-time text writers, which print the same bytes as `json.dumps`
with `indent=2, sort_keys=True`; `json.dumps` writes the small files.
Every artifact is written by `_write_text` from an iterable of text
pieces, and the large ones are streamed a slice or clock point at a
time, so no artifact's text is held whole; `evolve` compares the
phase-space oracle with its trajectory slice by slice for the same
reason, and peaks at about one history.  `report.json` lists each
artifact's size in `artifact_bytes`.

Exit status: 0 all checks passed, 1 a check failed or a module error
surfaced, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Optional

import numpy as np

from . import automaton, conservation, multipartite, sampling
from .gaussian import GIVector, GIMatrix, HermitianIntMatrix, exact_int_text

KINDS = ("evolve", "audit", "reconstruct", "converge", "multi", "bell", "leibniz")

ORDER_THRESHOLD = 1.7          # declared pass bar for the scaling study
SAMPLE_FIDELITY_TOL = 1e-12    # relative, at sample points


class ConfigError(Exception):
    """Carries a list of (field path, reason) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {r}" for p, r in self.errors))


@dataclass
class ExperimentConfig:
    kind: str
    raw: dict
    params: dict = field(default_factory=dict)
    out_format: str = "csv"


@dataclass
class Check:
    name: str
    passed: bool
    info: str = ""


# -- config loading ------------------------------------------------------


class _Reader:
    """Strict field-by-field reader that accumulates precise errors."""

    def __init__(self, raw):
        self.raw = raw
        self.errors = []
        self.seen = set()

    def fail(self, path, reason):
        self.errors.append((path, reason))

    def take(self, key, required=True):
        """The field's value; None once a missing or null field is reported.

        An optional field that is absent is None without a report.
        """
        self.seen.add(key)
        value = self.raw.get(key)
        if value is None:
            if key in self.raw:
                self.fail(key, "null is not a value (omit the field instead)")
            elif required:
                self.fail(key, "required field is missing")
        return value

    def finish(self):
        for key in self.raw:
            if key not in self.seen:
                self.fail(key, "unknown field (strict schema)")
        if self.errors:
            raise ConfigError(self.errors)


def _as_count(value, path, reader, minimum=0):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        reader.fail(path, f"expected an integer >= {minimum}")
        return None
    return value


def _as_positive_float(value, path, reader):
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        reader.fail(path, "expected a positive number")
        return None
    return float(value)


def _hermitian(value, path, reader):
    try:
        return HermitianIntMatrix.from_pairs(value, path)
    except ValueError as exc:
        reader.fail(path, str(exc))
        return None


def _vector(value, path, reader, dim=None):
    try:
        v = GIVector.from_pairs(value, path)
    except ValueError as exc:
        reader.fail(path, str(exc))
        return None
    if dim is not None and v.dim != dim:
        reader.fail(path, f"dimension {v.dim} does not match the coupling ({dim})")
        return None
    return v


def _seed_pair(value, path, reader, dim):
    if not isinstance(value, list) or len(value) != 2:
        reader.fail(path, "expected [seed0, seed1]")
        return None
    s0 = _vector(value[0], f"{path}[0]", reader, dim)
    s1 = _vector(value[1], f"{path}[1]", reader, dim)
    if s0 is None or s1 is None:
        return None
    return s0, s1


def _single_hamiltonian(reader):
    hams = reader.take("hamiltonians")
    if hams is None:
        return None
    if not isinstance(hams, list) or len(hams) != 1:
        reader.fail("hamiltonians", "expected a list with exactly one matrix")
        return None
    return _hermitian(hams[0], "hamiltonians[0]", reader)


def _evolution_core(reader):
    h = _single_hamiltonian(reader)
    seeds = reader.take("seeds")
    pair = None
    if seeds is not None and h is not None:
        pair = _seed_pair(seeds, "seeds", reader, h.dim)
    steps = reader.take("steps")
    steps = _as_count(steps, "steps", reader) if steps is not None else None
    return h, pair, steps


def _parse_output(reader):
    out = reader.take("output", required=False)
    fmt = "csv"
    if out is not None:
        if not isinstance(out, dict):
            reader.fail("output", "expected an object")
        else:
            for key in out:
                if key != "format":
                    reader.fail(f"output.{key}", "unknown field (strict schema)")
            if "format" in out:
                if out["format"] not in ("csv", "json"):
                    reader.fail("output.format", "expected 'csv' or 'json'")
                else:
                    fmt = out["format"]
    return fmt


def _finite_float(text: str) -> float:
    # json accepts NaN, Infinity and overflowing literals; none is a number here
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text}")
    return x


def load_config(path, expected_kind: Optional[str] = None) -> ExperimentConfig:
    """Parse and fully validate an experiment config.

    Raises ConfigError carrying every (field path, reason) pair found.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh, exact_int_text():
            raw = json.load(fh, parse_float=_finite_float,
                            parse_constant=_finite_float)
    except OSError as exc:
        raise ConfigError([(str(path), f"cannot read config: {exc}")])
    except ValueError as exc:  # JSONDecodeError or a non-finite number
        raise ConfigError([(str(path), f"not valid JSON: {exc}")])
    if not isinstance(raw, dict):
        raise ConfigError([("<root>", "config must be a JSON object")])

    reader = _Reader(raw)
    kind = reader.take("kind")
    if kind is not None and kind not in KINDS:
        reader.fail("kind", f"expected one of {', '.join(KINDS)}")
        reader.finish()
    if expected_kind is not None and kind is not None and kind != expected_kind:
        reader.fail("kind", f"config is for {kind!r} but the {expected_kind!r} "
                            "command was invoked")
    fmt = _parse_output(reader)
    params = {}

    if kind in ("evolve", "audit"):
        h, pair, steps = _evolution_core(reader)
        params.update(hamiltonian=h, seeds=pair, steps=steps)
        if kind == "audit":
            obs = reader.take("observables", required=False)
            if obs is not None:
                if not isinstance(obs, list) or not obs:
                    reader.fail("observables", "expected a nonempty list of matrices")
                else:
                    parsed = []
                    for i, m in enumerate(obs):
                        g = _hermitian(m, f"observables[{i}]", reader)
                        if g is not None and h is not None and g.dim != h.dim:
                            reader.fail(f"observables[{i}]",
                                        "dimension does not match the coupling")
                            g = None
                        parsed.append(g)
                    params["observables"] = parsed
    elif kind == "reconstruct":
        h, pair, steps = _evolution_core(reader)
        scale_l = reader.take("scale_l")
        scale_l = _as_positive_float(scale_l, "scale_l", reader) \
            if scale_l is not None else None
        times = reader.take("times")
        if times is not None:
            if not isinstance(times, list) or not times or \
                    any(isinstance(t, bool) or not isinstance(t, (int, float))
                        for t in times):
                reader.fail("times", "expected a nonempty list of numbers")
                times = None
            else:
                times = [float(t) for t in times]
        window = reader.take("window", required=False)
        window = _as_count(window, "window", reader, minimum=1) \
            if window is not None else 32
        params.update(hamiltonian=h, seeds=pair, steps=steps,
                      scale_l=scale_l, times=times, window=window)
    elif kind == "converge":
        h = _single_hamiltonian(reader)
        seeds = reader.take("seeds")
        psi0 = None
        if seeds is not None:
            if not isinstance(seeds, list) or len(seeds) != 1:
                reader.fail("seeds", "expected a list with exactly one vector")
            elif h is not None:
                psi0 = _vector(seeds[0], "seeds[0]", reader, h.dim)
        horizon = reader.take("horizon")
        if horizon is not None and (isinstance(horizon, bool)
                                    or not isinstance(horizon, (int, float))
                                    or horizon < 0):
            reader.fail("horizon", "expected a number >= 0")
            horizon = None
        scales = reader.take("scales")
        if scales is not None:
            if not isinstance(scales, list) or not scales:
                reader.fail("scales", "expected a nonempty list of spacings")
                scales = None
            else:
                scales = [_as_positive_float(s, f"scales[{i}]", reader)
                          for i, s in enumerate(scales)]
                if any(s is None for s in scales):
                    scales = None
        window = reader.take("window", required=False)
        window = _as_count(window, "window", reader, minimum=1) \
            if window is not None else 64
        rule = reader.take("psi1_rule", required=False)
        if rule is None:
            rule = "oracle"
        elif rule not in ("oracle", "copy"):
            reader.fail("psi1_rule", "expected 'oracle' or 'copy'")
        params.update(hamiltonian=h, psi0=psi0,
                      horizon=None if horizon is None else float(horizon),
                      scales=scales, window=window, psi1_rule=rule)
    elif kind == "multi":
        hams = reader.take("hamiltonians")
        parsed_h = None
        if hams is not None:
            if not isinstance(hams, list) or not hams:
                reader.fail("hamiltonians", "expected one matrix per part")
            else:
                parsed_h = [_hermitian(m, f"hamiltonians[{i}]", reader)
                            for i, m in enumerate(hams)]
                if any(h is None for h in parsed_h):
                    parsed_h = None
        seeds = reader.take("seeds")
        pairs = None
        if seeds is not None and parsed_h is not None:
            if not isinstance(seeds, list) or len(seeds) != len(parsed_h):
                reader.fail("seeds", "expected one [seed0, seed1] pair per part")
            else:
                pairs = [_seed_pair(p, f"seeds[{i}]", reader, parsed_h[i].dim)
                         for i, p in enumerate(seeds)]
                if any(p is None for p in pairs):
                    pairs = None
        synchronized = reader.take("synchronized", required=False)
        if synchronized is None:
            synchronized = False
        elif not isinstance(synchronized, bool):
            reader.fail("synchronized", "expected true or false")
            synchronized = False
        # every clock axis needs an interior site; the synchronized
        # comparison is made at clock 2
        least = 2 if synchronized else 1
        steps = reader.take("steps")
        parsed_steps = None
        if steps is not None:
            if isinstance(steps, int) and not isinstance(steps, bool):
                parsed_steps = [steps] * (len(parsed_h) if parsed_h else 0)
                if steps < least:
                    reader.fail("steps", f"expected an integer >= {least}")
                    parsed_steps = None
            elif isinstance(steps, list) and steps and \
                    (parsed_h is None or len(steps) == len(parsed_h)):
                # with the parts unknown, each entry is still checked
                parsed_steps = [_as_count(s, f"steps[{i}]", reader, least)
                                for i, s in enumerate(steps)]
                if any(s is None for s in parsed_steps):
                    parsed_steps = None
            else:
                reader.fail("steps", "expected an integer or one count per part")
        interaction = reader.take("interaction", required=False)
        tensor = None
        if interaction is not None and parsed_h is not None:
            try:
                mat = GIMatrix.from_pairs(interaction, "interaction")
                tensor = multipartite.InteractionTensor(
                    tuple(h.dim for h in parsed_h), mat)
            except ValueError as exc:
                reader.fail("interaction", str(exc))
        params.update(hamiltonians=parsed_h, seed_pairs=pairs,
                      steps=parsed_steps, interaction=tensor,
                      synchronized=synchronized)
    elif kind == "bell":
        h = _single_hamiltonian(reader)
        seeds = reader.take("seeds")
        pairs = None
        if seeds is not None and h is not None:
            if h.dim != 2:
                reader.fail("hamiltonians[0]", "pair states need two dofs per part")
            elif not isinstance(seeds, list) or len(seeds) != 2:
                reader.fail("seeds", "expected two [seed0, seed1] pairs")
            else:
                pairs = [_seed_pair(p, f"seeds[{i}]", reader, h.dim)
                         for i, p in enumerate(seeds)]
                if any(p is None for p in pairs):
                    pairs = None
        steps = reader.take("steps")
        # every clock axis needs an interior site
        steps = _as_count(steps, "steps", reader, minimum=1) \
            if steps is not None else None
        params.update(hamiltonian=h, seed_pairs=pairs, steps=steps)
    elif kind == "leibniz":
        seqs = reader.take("sequences")
        parsed = None
        if seqs is not None:
            ok = (isinstance(seqs, list) and len(seqs) == 2
                  and all(isinstance(s, list) and len(s) >= 3 for s in seqs)
                  and all(isinstance(x, int) and not isinstance(x, bool)
                          for s in seqs for x in s)
                  and len(seqs[0]) == len(seqs[1]))
            if ok:
                parsed = seqs
            else:
                reader.fail("sequences", "expected two equal-length integer "
                                         "lists with >= 3 entries")
        params.update(sequences=parsed)

    reader.finish()
    return ExperimentConfig(kind=kind, raw=raw, params=params, out_format=fmt)


# -- artifact writers ----------------------------------------------------


@exact_int_text()
def _write_text(path: Path, pieces):
    """Write the text pieces in order, as `Path.write_text` writes their join.

    The first piece is made before the file is opened, so a writer that
    rejects its input leaves no file, and a failure partway removes the
    partial one.  The int digit limit stays lifted for the whole write.
    """
    if isinstance(pieces, str):
        raise TypeError("_write_text takes an iterable of text pieces, not a str")
    pieces = iter(pieces)
    first = next(pieces, "")
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            fh.write(first)
            fh.writelines(pieces)
    except BaseException as exc:
        path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise RuntimeError(f"cannot write {path}: {exc}") from exc
        raise


@exact_int_text()
def _write_json(path: Path, obj):
    # standard JSON only: a NaN or Infinity raises instead of being written
    _write_text(path, (json.dumps(obj, indent=2, sort_keys=True,
                                  allow_nan=False) + "\n",))


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _write_trajectory(traj, h, out_dir: Path, fmt: str) -> Path:
    # h, the coupling traj solves, keeps the decimal text linear-time
    if fmt == "csv":
        path = out_dir / "trajectory.csv"
        _write_text(path, traj._csv_pieces(h))
    else:
        path = out_dir / "trajectory.json"
        _write_text(path, traj._json_pieces(h))
    return path


# -- per-kind runners ----------------------------------------------------


def _run_evolve(params, out_dir, fmt):
    h, (s0, s1), steps = params["hamiltonian"], params["seeds"], params["steps"]
    traj = automaton.evolve(s0, s1, h, steps)
    checks = []
    checks.append(Check("recurrence_holds_everywhere",
                        automaton.is_solution(traj, h)))
    if len(traj) >= 3:
        action = automaton.action_evaluate(traj, h)
        checks.append(Check("action_zero_on_solution", action.as_int == 0,
                            f"value {action.as_int}"))
    nxt, cur = traj[-1], traj[-2]
    for _ in range(len(traj) - 2):
        nxt, cur = cur, automaton.step_backward(nxt, cur, h)
    checks.append(Check("reversibility_roundtrip",
                        (cur, nxt) == (traj[0], traj[1])))
    hs, ha = h.split()
    # slice by slice, with the lengths compared too: no second history is held
    oracle = automaton._phase_space_slices(s0.re, s0.im, s1.re, s1.im, hs, ha, steps)
    same = all(a == b for a, b in zip_longest(traj, oracle))
    checks.append(Check("phase_space_equivalence", same))
    artifacts = [_write_trajectory(traj, h, out_dir, fmt)]
    return checks, artifacts, {}


def _run_audit(params, out_dir, fmt):
    h, (s0, s1), steps = params["hamiltonian"], params["seeds"], params["steps"]
    traj = automaton.evolve(s0, s1, h, steps)
    if params.get("observables"):
        pairs = [(f"G{i}", g) for i, g in enumerate(params["observables"])]
    else:
        pairs = conservation.default_commutant_basis(h)
    labels = [l for l, _ in pairs]
    obs = [g for _, g in pairs]
    report = conservation.audit_conservation(traj, h, obs, labels)
    checks = [Check("trajectory_is_solution", report.solution_ok,
                    "" if report.solution_ok
                    else f"first bad site {report.first_bad_site}")]
    for e in report.entries:
        if e.commutes:
            checks.append(Check(f"conserved:{e.label}",
                                e.conserved and bool(e.rate_ok),
                                f"value {e.value}" if e.conserved
                                else f"first drift at n={e.drift[0][0]}"))
        else:
            drift_note = "constant anyway" if e.conserved else \
                f"drift recorded from n={next(n for n, v in e.drift if v != e.drift[0][1]) if e.drift else '?'}"
            checks.append(Check(f"noncommuting:{e.label}", True,
                                "informational; " + drift_note))
    info = {"norm_invariant": {"value": report.norm_value,
                               "zero": report.norm_is_zero}}
    artifacts = [_write_trajectory(traj, h, out_dir, fmt)]
    audit_path = out_dir / "audit.json"
    _write_json(audit_path, report.to_json_obj())
    artifacts.append(audit_path)
    series = [(e.label, [e.value] * traj.last if e.conserved
               else [v for _, v in e.drift]) for e in report.entries]
    series_path = out_dir / "series.csv"
    _write_text(series_path, (conservation.series_to_csv(series),))
    artifacts.append(series_path)
    return checks, artifacts, info


def _run_reconstruct(params, out_dir, fmt):
    h, (s0, s1), steps = params["hamiltonian"], params["seeds"], params["steps"]
    scale = sampling.DiscretenessScale(params["scale_l"])
    traj = automaton.evolve(s0, s1, h, steps)
    sig = sampling.ContinuumSignal.from_trajectory(traj, scale, params["window"])
    # at a sample point the kernel snaps to the stored sample for any window
    worst = 0.0
    for n in range(len(traj)):
        got = sig.eval(n * scale.l)
        want = sig.samples[n]
        ref = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))) / ref)
    checks = [Check("sample_point_fidelity", worst <= SAMPLE_FIDELITY_TOL,
                    f"worst relative deviation {worst:.3e}")]
    rows = []
    extrapolated = []
    for t in params["times"]:
        if not sig.covers(t):
            extrapolated.append(t)
        values = sig.eval(t)
        for a in range(traj.dim):
            rows.append((t, a, values[a].real, values[a].imag))
    if fmt == "csv":
        lines = ["t,alpha,re,im"]
        lines += [f"{_fmt_float(t)},{a},{_fmt_float(re)},{_fmt_float(im)}"
                  for t, a, re, im in rows]
        path = out_dir / "reconstruction.csv"
        _write_text(path, ("\n".join(lines) + "\n",))
    else:
        path = out_dir / "reconstruction.json"
        _write_json(path, [{"t": t, "alpha": a, "re": re, "im": im}
                           for t, a, re, im in rows])
    info = {"extrapolated_times": extrapolated}
    return checks, [path], info


def _run_converge(params, out_dir, fmt):
    h = params["hamiltonian"]
    psi0 = np.array(list(map(complex, params["psi0"].re, params["psi0"].im)))
    report = sampling.convergence_study(h, psi0, params["horizon"],
                                        params["scales"],
                                        psi1_rule=params["psi1_rule"],
                                        window=params["window"])
    order_txt = "none" if report.order is None else _fmt_float(report.order)
    # inf would pass `>= ORDER_THRESHOLD`; a non-finite order or error is no fit
    finite = report.order is not None and math.isfinite(report.order) and all(
        math.isfinite(p.error) for p in report.points if p.error is not None)
    info = f"fitted order {order_txt}"
    if report.order is not None and not finite:
        info += "; non-finite order or error"
    checks = [Check("convergence_order",
                    finite and report.order >= ORDER_THRESHOLD, info)]
    lines = ["l,error,fitted_order"]
    for p in report.points:
        err = "" if p.error is None else _fmt_float(p.error)
        lines.append(f"{_fmt_float(p.scale)},{err},{order_txt}")
    csv_path = out_dir / "convergence.csv"
    _write_text(csv_path, ("\n".join(lines) + "\n",))
    json_path = out_dir / "convergence.json"
    _write_json(json_path, report.to_json_obj())
    info = {"excluded": [p.scale for p in report.points if not p.included]}
    return checks, [csv_path, json_path], info


def _run_multi(params, out_dir, fmt):
    hams = params["hamiltonians"]
    _, wave, res = multipartite.evolve_factorized(
        hams, params["seed_pairs"], params["steps"])
    tensor = params["interaction"]
    checks = []
    if tensor is None or tensor.is_zero():
        # the residual without interaction, already certified zero
        checks.append(Check("residual_zero_without_interaction", res.is_zero))
    else:
        res = multipartite.many_time_residual(wave, hams, tensor)
        bad = res.nonzero()
        checks.append(Check("interaction_breaks_factorization", bool(bad),
                            f"{len(bad)} nonzero residual entries"
                            if bad else "product still solves the equations"))
    info = {}
    if params["synchronized"]:
        # at equal clocks (n, ..., n) the product field is the product state
        prev = wave.alpha_vector((0,) * wave.parts)
        curr = wave.alpha_vector((1,) * wave.parts)
        min_steps = min(params["steps"])
        sync = multipartite.evolve_synchronized(prev, curr, hams, tensor,
                                                min_steps)
        # load_config guarantees min_steps >= 2
        synced, product = sync[2], wave.alpha_vector((2,) * wave.parts)
        gap = next(({"clock": 2, "indices": list(alphas),
                     "synchronized": synced[i].to_pair(),
                     "product": product[i].to_pair()}
                    for i, alphas in enumerate(wave.dof_indices())
                    if synced[i] != product[i]), None)
        checks.append(Check("synchronized_product_gap_exhibited", gap is not None,
                            json.dumps(gap) if gap else "no gap at clock 2"))
        info["synchronized_gap"] = gap
    field_path = out_dir / "field.json"
    _write_text(field_path, wave._json_pieces())
    residual_path = out_dir / "residual.csv"
    _write_text(residual_path, res._csv_pieces())
    return checks, [field_path, residual_path], info


def _run_bell(params, out_dir, fmt):
    h = params["hamiltonian"]
    (a0, a1), (b0, b1) = params["seed_pairs"]
    steps = params["steps"]
    psi = automaton.evolve(a0, a1, h, steps)
    phi = automaton.evolve(b0, b1, h, steps)
    wave = multipartite.bell_state(psi, phi)
    res = multipartite.many_time_residual(wave, [h, h])
    checks = [Check("residual_zero", res.is_zero)]
    clock = (1, 1)  # steps >= 1, so (1, 1) is interior
    rows = wave.bipartite_slice(clock)
    witness = multipartite.factorizability_witness(rows)
    detail = ""
    if witness.entangled:
        detail = (f"minor {witness.minor_value} at rows {witness.minor_rows} "
                  f"cols {witness.minor_cols}")
    checks.append(Check("slice_entangled",
                        witness.entangled and witness.verify(rows), detail))
    info = {"witness_clock": list(clock),
            "slice": [[z.to_pair() for z in row] for row in rows]}
    field_path = out_dir / "bell_field.json"
    _write_text(field_path, wave._json_pieces())
    residual_path = out_dir / "residual.csv"
    _write_text(residual_path, res._csv_pieces())
    return checks, [field_path, residual_path], info


def _run_leibniz(params, out_dir, fmt):
    a, b = params["sequences"]
    demo = multipartite.leibniz_failure_demo(a, b)
    checks = [Check("split_identity_exact", demo.identity_ok)]
    checks.append(Check("naive_rule_divergence", True,
                        f"differs at n={list(demo.failure_sites)}"
                        if demo.failure_sites
                        else "informational; naive rule holds on this pair"))
    lines = ["n,product_rate,split_num,split_den,naive,naive_matches"]
    for r in demo.rows:
        lines.append(f"{r.n},{r.product_rate},{r.split_form.numerator},"
                     f"{r.split_form.denominator},{r.naive},"
                     f"{str(r.naive_matches).lower()}")
    path = out_dir / "leibniz.csv"
    _write_text(path, ("\n".join(lines) + "\n",))
    info = {"failure_sites": list(demo.failure_sites)}
    return checks, [path], info


_RUNNERS = {
    "evolve": _run_evolve,
    "audit": _run_audit,
    "reconstruct": _run_reconstruct,
    "converge": _run_converge,
    "multi": _run_multi,
    "bell": _run_bell,
    "leibniz": _run_leibniz,
}


def run(config: ExperimentConfig, out_dir) -> dict:
    """Execute one experiment; returns the report object (also written)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    checks, artifacts, info = _RUNNERS[config.kind](config.params, out_dir,
                                                    config.out_format)
    report = {
        "kind": config.kind,
        "config": config.raw,
        "checks": [{"name": c.name, "passed": c.passed, "info": c.info}
                   for c in checks],
        "artifacts": [str(p) for p in artifacts],
        "artifact_bytes": {p.name: p.stat().st_size for p in artifacts},
        "info": info,
        "wall_time_s": time.perf_counter() - started,
    }
    _write_json(out_dir / "report.json", report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hamca",
        description="Exact integer-automaton experiments: evolution, "
                    "conservation audits, continuum reconstruction, scaling "
                    "studies, and multi-clock composites.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind!r} experiment")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="artifact format (default csv, or config output.format)")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, expected_kind=args.command)
    except ConfigError as exc:
        for path, reason in exc.errors:
            print(f"CONFIG ERROR {path}: {reason}", file=sys.stderr)
        return 2
    if args.format is not None:
        config.out_format = args.format

    try:
        report = run(config, args.out)
    except Exception as exc:  # module errors surface with the operation named
        print(f"FAIL {args.command} — {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1

    ok = True
    for c in report["checks"]:
        tag = "PASS" if c["passed"] else "FAIL"
        ok = ok and c["passed"]
        suffix = f" — {c['info']}" if c["info"] else ""
        print(f"{tag} {c['name']}{suffix}")
    print(f"report: {Path(args.out) / 'report.json'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
