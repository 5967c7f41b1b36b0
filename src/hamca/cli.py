"""Experiment runner: config ingestion, orchestration, persistence.

One experiment per invocation.  Configs are strict JSON: every field is
either consumed or rejected, so a typo cannot silently change an
experiment.  Integer data is written as exact decimal text; floats are
printed with 17 significant digits in CSV and as shortest round-trip
literals in JSON.  Identical configs produce byte-identical integer
artifacts.  `output.format` (`csv` or `json`) applies to `evolve`,
`audit` and `reconstruct`; `converge` (CSV, JSON), `multi` and `bell`
(JSON field, CSV residual) and `leibniz` (CSV) reject `output`.
Trajectories and composite fields are written by their own
linear-time text writers, which print the same bytes as `json.dumps`
with `indent=2, sort_keys=True`; `json.dumps` writes the small files.
Every artifact is written by `_write_text` from an iterable of text
pieces under a staging name, and renamed into place once complete, so
no artifact name ever holds a partial file.  The large ones are
streamed a slice or clock point at a time, so no large artifact's text
is held whole.  `evolve` and `audit` go further: one pass over a
window of three slices checks the slices as the forward step makes
them, with the split form (`audit` feeds its series pass each slice
pair), so no history is held but the slices at nonzero brackets.  Where
`os.fork` exists, four verbs fork one child that stages the text the
config predicts while this process makes the checks (`_while_staging`):
`evolve` and `audit` the trajectory of a solution, published only if
the pass found every bracket zero; `multi` and `bell` the field, and
the zero residual where the config predicts it (no interaction, or a
zero one, and always for `bell`), published only if the computed
residual is zero.  This process makes every check (`evolve` its
reversal too), and `audit` stages `audit.json` and `series.csv`,
before it waits for the child, so the wait is the last of its work;
those two are published after the trajectory, and removed if the run
fails.  Any text the child did not stage, or that the checks reject, is
written here after the wait, and without `os.fork` all of it is.  The
child stages text only: every verdict and every series value comes
from slices this process checked.  A child whose parent is gone,
killed say, or that is sent SIGTERM, as a shell's `kill %1` sends its
whole process group, removes what it staged and exits, so no writer
outlives its run; one whose parent is gone removes what the parent
staged too; `main` has a SIGTERM unwind the run, which removes what
it staged, before it ends by it.  The bytes are the same either way.
Before the runner starts, `run` removes the `report.json` and every
artifact name the kind can write, and their staging names, from the
output directory.  `report.json` lists each artifact's size in
`artifact_bytes`.

Exit status: 0 all checks passed, 1 a check failed or a module error
surfaced, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Optional

from . import automaton, conservation, multipartite
from .gaussian import GIVector, GIMatrix, HermitianIntMatrix, exact_int_text

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


@dataclass
class Check:
    name: str
    passed: bool
    info: str = ""


# -- config loading ------------------------------------------------------


class _Reader:
    """Strict field-by-field reader that accumulates precise errors and params."""

    def __init__(self, raw):
        self.raw = raw
        self.errors = []
        self.seen = set()
        self.params = {}

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


def _as_real(value):
    """A JSON number as a float; None for anything else or an int past float range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _as_number(value, path, reader, zero_ok=False):
    """A positive float, or one >= 0 when zero_ok."""
    x = _as_real(value)
    if x is None or x < 0 or (x == 0 and not zero_ok):
        reader.fail(path, "expected a number >= 0" if zero_ok
                    else "expected a positive number")
        return None
    return x


def _each(read, wanted, value, path, reader, *columns):
    """A nonempty list read entry by entry; None once it or an entry is reported.

    Entry i is read as read(entry, path[i], reader, c[i], ...) for each
    column c, and the columns fix the list's length.
    """
    if not isinstance(value, list) or not value or \
            any(len(c) != len(value) for c in columns):
        reader.fail(path, wanted)
        return None
    entries = [read(entry, f"{path}[{i}]", reader, *args)
               for i, (entry, *args) in enumerate(zip(value, *columns))]
    return None if any(e is None for e in entries) else entries


def _hermitian(value, path, reader):
    try:
        return HermitianIntMatrix.from_pairs(value, path)
    except ValueError as exc:
        reader.fail(path, str(exc))
        return None


def _vector(value, path, reader, dim):
    try:
        v = GIVector.from_pairs(value, path)
    except ValueError as exc:
        reader.fail(path, str(exc))
        return None
    if v.dim != dim:
        reader.fail(path, f"dimension {v.dim} does not match the coupling ({dim})")
        return None
    return v


def _seed_pair(value, path, reader, dim):
    pair = _each(_vector, "expected [seed0, seed1]", value, path, reader, [dim, dim])
    return None if pair is None else tuple(pair)


def _coupling(value, path, reader):
    if not isinstance(value, list) or len(value) != 1:
        reader.fail(path, "expected a list with exactly one matrix")
        return None
    return _hermitian(value[0], f"{path}[0]", reader)


def _seeds(value, path, reader):
    h = reader.params["hamiltonian"]
    return None if h is None else _seed_pair(value, path, reader, h.dim)


def _observable(value, path, reader):
    g = _hermitian(value, path, reader)
    h = reader.params["hamiltonian"]
    if g is not None and h is not None and g.dim != h.dim:
        reader.fail(path, "dimension does not match the coupling")
        return None
    return g


_observables = partial(_each, _observable, "expected a nonempty list of matrices")


def _times(value, path, reader):
    times = [_as_real(t) for t in value] if isinstance(value, list) else []
    if not times or None in times:
        reader.fail(path, "expected a nonempty list of numbers")
        return None
    return times


def _psi0(value, path, reader):
    if not isinstance(value, list) or len(value) != 1:
        reader.fail(path, "expected a list with exactly one vector")
        return None
    h = reader.params["hamiltonian"]
    return None if h is None else _vector(value[0], f"{path}[0]", reader, h.dim)


_scales = partial(_each, _as_number, "expected a nonempty list of spacings")


def _psi1_rule(value, path, reader):
    if value not in ("oracle", "copy"):
        reader.fail(path, "expected 'oracle' or 'copy'")
        return None
    return value


_part_couplings = partial(_each, _hermitian, "expected one matrix per part")


def _part_seeds(value, path, reader):
    hams = reader.params["hamiltonians"]
    if hams is None:
        return None
    return _each(_seed_pair, "expected one [seed0, seed1] pair per part",
                 value, path, reader, [h.dim for h in hams])


def _flag(value, path, reader):
    if not isinstance(value, bool):
        reader.fail(path, "expected true or false")
        return None
    return value


def _part_steps(value, path, reader):
    # one count for all parts or one per part; every clock axis needs an
    # interior site, and the synchronized comparison is made at clock 2
    least = 2 if reader.params["synchronized"] else 1
    hams = reader.params["hamiltonians"]
    if isinstance(value, int) and not isinstance(value, bool):
        steps = _as_count(value, path, reader, least)
        return None if steps is None else [steps] * len(hams or ())
    # with the parts unknown, each entry is still checked
    parts = len(hams) if hams else len(value) if isinstance(value, list) else 0
    return _each(_as_count, "expected an integer or one count per part",
                 value, path, reader, [least] * parts)


def _interaction(value, path, reader):
    hams = reader.params["hamiltonians"]
    if hams is None:
        return None
    try:
        mat = GIMatrix.from_pairs(value, path)
        return multipartite.InteractionTensor(tuple(h.dim for h in hams), mat)
    except ValueError as exc:
        reader.fail(path, str(exc))
        return None


def _bell_seeds(value, path, reader):
    h = reader.params["hamiltonian"]
    if h is None:
        return None
    if h.dim != 2:
        reader.fail("hamiltonians[0]", "pair states need two dofs per part")
        return None
    return _each(_seed_pair, "expected two [seed0, seed1] pairs",
                 value, path, reader, [2, 2])


def _sequences(value, path, reader):
    ok = (isinstance(value, list) and len(value) == 2
          and all(isinstance(s, list) and len(s) >= 3 for s in value)
          and all(isinstance(x, int) and not isinstance(x, bool)
                  for s in value for x in s)
          and len(value[0]) == len(value[1]))
    if not ok:
        reader.fail(path, "expected two equal-length integer lists with >= 3 entries")
        return None
    return value


def _output(value, path, reader):
    if not isinstance(value, dict):
        reader.fail(path, "expected an object")
        return None
    for key in value:
        if key != "format":
            reader.fail(f"{path}.{key}", "unknown field (strict schema)")
    fmt = value.get("format", "csv")
    if fmt not in ("csv", "json"):
        reader.fail(f"{path}.format", "expected 'csv' or 'json'")
        return None
    return fmt


_REQUIRED = object()  # the default of a field that must be given

_H = ("hamiltonians", "hamiltonian", _coupling, _REQUIRED)
_SEEDS = ("seeds", "seeds", _seeds, _REQUIRED)
_STEPS = ("steps", "steps", _as_count, _REQUIRED)
_OUTPUT = ("output", "format", _output, "csv")

# kind -> (field, params key, reader, default), read in order.  A reader
# takes (value, path, reader) and returns None once it reported the field.
_FIELDS = {
    "evolve": (_H, _SEEDS, _STEPS, _OUTPUT),
    "audit": (_H, _SEEDS, _STEPS,
              ("observables", "observables", _observables, None), _OUTPUT),
    "reconstruct": (_H, _SEEDS, _STEPS,
                    ("scale_l", "scale_l", _as_number, _REQUIRED),
                    ("times", "times", _times, _REQUIRED),
                    ("window", "window", partial(_as_count, minimum=1), 32),
                    _OUTPUT),
    "converge": (_H,
                 ("seeds", "psi0", _psi0, _REQUIRED),
                 ("horizon", "horizon", partial(_as_number, zero_ok=True),
                  _REQUIRED),
                 ("scales", "scales", _scales, _REQUIRED),
                 ("window", "window", partial(_as_count, minimum=1), 64),
                 ("psi1_rule", "psi1_rule", _psi1_rule, "oracle")),
    "multi": (("hamiltonians", "hamiltonians", _part_couplings, _REQUIRED),
              ("seeds", "seed_pairs", _part_seeds, _REQUIRED),
              ("synchronized", "synchronized", _flag, False),
              ("steps", "steps", _part_steps, _REQUIRED),
              ("interaction", "interaction", _interaction, None)),
    # every clock axis needs an interior site
    "bell": (_H,
             ("seeds", "seed_pairs", _bell_seeds, _REQUIRED),
             ("steps", "steps", partial(_as_count, minimum=1), _REQUIRED)),
    "leibniz": (("sequences", "sequences", _sequences, _REQUIRED),),
}

KINDS = tuple(_FIELDS)


def _finite_float(text: str) -> float:
    # json accepts NaN, Infinity and overflowing literals; none is a number here
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text}")
    return x


def _unique_keys(pairs) -> dict:
    # json keeps the last of repeated keys; a repeat is ambiguous here
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


@exact_int_text()
def load_config(path, expected_kind: Optional[str] = None) -> ExperimentConfig:
    """Parse and fully validate an experiment config.

    Raises ConfigError carrying every (field path, reason) pair found.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_float,
                            parse_constant=_finite_float,
                            object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError([(str(path), f"cannot read config: {exc}")])
    except ValueError as exc:  # bad JSON or UTF-8, a non-finite number, a repeated key
        raise ConfigError([(str(path), f"not valid JSON: {exc}")])
    except RecursionError:
        raise ConfigError([(str(path), "not valid JSON: nested too deeply")])
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
    for name, key, read, default in _FIELDS.get(kind, ()):
        value = reader.take(name, required=default is _REQUIRED)
        if value is not None:
            value = read(value, name, reader)
        elif default is not _REQUIRED:
            value = default
        reader.params[key] = value
    reader.finish()
    return ExperimentConfig(kind=kind, raw=raw, params=reader.params)


# -- artifact writers ----------------------------------------------------


def _staged(path: Path) -> Path:
    """The name an artifact is written under until it is complete."""
    return path.with_name(f".{path.name}.part")


@exact_int_text()
def _stage_text(path: Path, pieces):
    """Write the text pieces in order under `_staged(path)`, as
    `Path.write_text` writes their join.

    The first piece is made before the file is opened, so a writer that
    rejects its input leaves no file, and a failure partway removes the
    partial one.  The int digit limit stays lifted for the whole write.
    """
    if isinstance(pieces, str):
        raise TypeError("_write_text takes an iterable of text pieces, not a str")
    pieces = iter(pieces)
    first = next(pieces, "")
    staged = _staged(path)
    try:
        fh = open(staged, "w", encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            fh.write(first)
            fh.writelines(pieces)
    except BaseException as exc:
        staged.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise RuntimeError(f"cannot write {path}: {exc}") from exc
        raise


def _publish(path: Path):
    """Rename the complete `_staged(path)` to `path`."""
    try:
        os.replace(_staged(path), path)
    except OSError as exc:
        _staged(path).unlink(missing_ok=True)
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _write_text(path: Path, pieces):
    """`_stage_text`, then `_publish`: no artifact name ever holds a
    partial file."""
    _stage_text(path, pieces)
    _publish(path)


@exact_int_text()
def _json_text(obj) -> str:
    # standard JSON only: a NaN or Infinity raises instead of being written
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: Path, obj):
    _write_text(path, (_json_text(obj),))


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _trajectory_pieces(h, slices, stored, fmt):
    """The text of `trajectory.<fmt>`: `automaton._decimal_slices` in pieces."""
    texts = automaton._decimal_slices(h, slices, stored)
    if fmt == "csv":
        return automaton._csv_pieces(texts)
    return automaton._json_pieces(texts, h.dim)


def _zero_residual_pieces(wave):
    """The text of `residual.csv` for `wave` when its residual is zero,
    as `ManyTimeResidual._csv_pieces` writes it: each clock point's rows
    are one join of the dof cells, every row ending in a zero value.
    Nothing is computed until the first piece is asked for."""
    header, dofs, leads = multipartite._residual_csv_cells(
        wave.dims, [c - 2 for c in wave.clock_shape])
    yield header
    for lead in leads:
        yield lead + ("0,0\n" + lead).join(dofs) + "0,0\n"


# pieces a writer child stages between two checks of its parent
_PIECES_PER_CHECK = 64


def _while_parent(pieces, parent: int):
    """`pieces`, checked with the first of every `_PIECES_PER_CHECK` of
    them that this process's parent is still `parent`: once it has been
    reparented, RuntimeError.  A check is a system call: on a field of
    8,290 small pieces a check per piece took 1.6 ms of the child's
    time and a check per batch 0.2 ms (CPython 3.11, x86-64).  No piece
    is pulled before it is asked for, so no more than one is held: the
    checks are the selectors `compress` pulls after each piece, a run of
    true ones per check."""
    selected = (True,) * _PIECES_PER_CHECK

    def check():
        if os.getppid() != parent:
            raise RuntimeError("the writer's parent is gone")
        return selected

    return compress(pieces, chain.from_iterable(iter(check, None)))


def _fork_writer(staged, own=()) -> Optional[int]:
    """The pid of a forked child that stages each (path, pieces) of
    `staged`, in order, and exits 0 once all is staged; None where
    `os.fork` does not exist or fails.

    With the first of every batch of pieces the child checks that its
    parent is still the process that forked it (`_while_parent`), and
    once more at the end.  A child that fails, whose parent is gone, killed or not, or
    that is sent SIGTERM (raised in it as KeyboardInterrupt, as SIGINT
    is) removes every staged name and exits 1, so no writer outlives its
    run and no staging file is left in the output directory.  A child
    whose parent is gone also removes the staging names of `own`, the
    paths its parent stages itself while it waits.  The child leaves by
    `os._exit`, whatever happens, so it never unwinds into the caller or
    flushes buffers it inherited.
    """
    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    parent = os.getpid()
    try:
        pid = fork()
    except OSError:
        return None
    if pid:
        return pid
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        for path, pieces in staged:
            _stage_text(path, _while_parent(pieces, parent))
        code = 0
    finally:
        names = [path for path, _ in staged]
        if os.getppid() != parent:
            code, names = 1, names + list(own)
        if code:
            for path in names:
                _staged(path).unlink(missing_ok=True)
        os._exit(code)


def _while_staging(staged, work, own=()):
    """`work()`, run while a forked child (`_fork_writer`) stages
    `staged`; returns work's result and whether the child staged every
    file (False without a child).  `own` names the paths `work` stages,
    which the child removes if it finds this process gone.

    `work` is all of the caller's work that does not need the child's
    text, so the wait for the child is the last thing done here.  The
    child is reaped before this returns.  If `work` or the wait raises,
    the child is killed and reaped and every staged name removed.
    """
    pid = _fork_writer(staged, own)
    try:
        result = work()
        status = None if pid is None else os.waitpid(pid, 0)[1]
    except BaseException:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for path, _ in staged:
            _staged(path).unlink(missing_ok=True)
        raise
    return result, status is not None and os.waitstatus_to_exitcode(status) == 0


def _settle(path: Path, keep: bool, pieces):
    """Publish the staged `path` if `keep`; otherwise remove it and write
    `pieces` as `path` here."""
    if keep:
        _publish(path)
    else:
        _staged(path).unlink(missing_ok=True)
        _write_text(path, pieces)


def _predicted(window, seeds, steps) -> bool:
    """Whether `window` read the slices `seeds` and `steps` predict: steps + 2
    from `seeds`, with no nonzero bracket."""
    return not window.brackets and (window.seeds, window.slices) == (seeds, steps + 2)


def _write_trajectory(window, seeds, steps, out_dir: Path, fmt: str, verdicts,
                      own=()):
    """Drain `window`, the pass over the slices `seeds` and `steps` make,
    then run `verdicts()`, and write the slices' text as
    `trajectory.<fmt>`; returns the path and what `verdicts()` returned.

    The text is `_trajectory_pieces` of H, the slice count and the
    slices the window keeps (`_Window.stored`).  While this process
    drains the window and runs the verdicts, a forked child
    (`_while_staging`) stages the text of the seeds alone, the solution
    they start.  That text is renamed into place only if the child
    exited 0 and the window read what it predicts (`_predicted`), and so
    kept the seeds alone; otherwise it is removed and the text is
    written here, after the wait, from the slices the window kept.
    `own` names the paths `verdicts()` stages: they are published after
    the trajectory, in order, and removed if anything fails.
    """
    h = window.h
    path = out_dir / f"trajectory.{fmt}"

    def work():
        window.drain()
        return verdicts()

    try:
        result, staged = _while_staging(
            [(path, _trajectory_pieces(h, steps + 2, dict(enumerate(seeds)), fmt))],
            work, own)
        _settle(path, staged and _predicted(window, seeds, steps),
                _trajectory_pieces(h, window.slices, window.stored, fmt))
        for name in own:
            _publish(name)
    finally:  # a failed run leaves nothing of its own staged
        for name in own:
            _staged(name).unlink(missing_ok=True)
    return path, result


def _write_composite(out_dir: Path, name: str, wave, zero: bool, verdicts):
    """Run `verdicts()`, which returns (residual, checks, info), and write
    `wave` as `name` and the residual as `residual.csv`; returns the
    checks, the two paths and the info.

    While `verdicts()` runs, a forked child (`_while_staging`) stages the
    field and, if `zero` (the config predicts a zero residual), the zero
    residual's text.  The field is renamed into place if the child staged
    it, the residual only if the computed one is zero too; any other file
    is written here, after the verdicts.
    """
    field_path, residual_path = out_dir / name, out_dir / "residual.csv"
    staged = [(field_path, wave._json_pieces())]
    if zero:
        staged.append((residual_path, _zero_residual_pieces(wave)))
    (res, checks, info), ok = _while_staging(staged, verdicts)
    try:
        _settle(field_path, ok, wave._json_pieces())
        _settle(residual_path, ok and zero and res.is_zero, res._csv_pieces())
    finally:  # a failed publish of the field leaves no staged residual
        _staged(residual_path).unlink(missing_ok=True)
    return checks, [field_path, residual_path], info


# -- per-kind runners ----------------------------------------------------


def _run_evolve(params, out_dir):
    h, seeds, steps = params["hamiltonian"], params["seeds"], params["steps"]
    # one pass checks the slices as they are made, keeping only bracketed ones
    window = automaton._EvolveWindow(automaton._evolve_slices(*seeds, h, steps), h)

    def verdicts():
        checks = [Check("recurrence_holds_everywhere", window.first_bad is None)]
        if steps >= 1:
            checks.append(Check("action_zero_on_solution", window.action == 0,
                                f"value {window.action}"))
        checks.append(Check("reversibility_roundtrip", window.reverses()))
        checks.append(Check("phase_space_equivalence", _predicted(window, seeds, steps)))
        return checks

    path, checks = _write_trajectory(window, seeds, steps, out_dir,
                                     params["format"], verdicts)
    return checks, [path], {}


def _run_audit(params, out_dir):
    h, (s0, s1), steps = params["hamiltonian"], params["seeds"], params["steps"]
    obs, labels = params["observables"], None  # audit labels them G0, G1, ...
    if obs is None:
        labels, obs = zip(*conservation.default_commutant_basis(h))
    # one pass checks the slices and makes the series, keeping only bracketed ones
    window = conservation._AuditWindow(
        automaton._evolve_slices(s0, s1, h, steps), h, obs, labels)
    audit_path, series_path = out_dir / "audit.json", out_dir / "series.csv"

    def verdicts():
        report = window.report()
        checks = [Check("trajectory_is_solution", report.solution_ok,
                        "" if report.solution_ok
                        else f"first bad site {report.first_bad_site}")]
        for e in report.entries:
            if e.commutes:
                checks.append(Check(f"conserved:{e.label}",
                                    e.conserved,
                                    f"value {e.value}" if e.conserved
                                    else f"first drift at n={e.drift[0][0]}"))
            else:
                drift_note = "constant anyway" if e.conserved else (
                    "drift recorded from n="
                    f"{next(n for n, v in e.drift if v != e.drift[0][1])}")
                checks.append(Check(f"noncommuting:{e.label}", True,
                                    "informational; " + drift_note))
        info = {"norm_invariant": {"value": report.norm_value,
                                   "zero": report.norm_is_zero}}
        _stage_text(audit_path, (_json_text(report.to_json_obj()),))
        series = [(e.label, repeat(e.value, report.slices - 1) if e.conserved
                   else [v for _, v in e.drift]) for e in report.entries]
        _stage_text(series_path, conservation._series_csv_pieces(series))
        return checks, info

    path, (checks, info) = _write_trajectory(window, (s0, s1), steps, out_dir,
                                             params["format"], verdicts,
                                             (audit_path, series_path))
    return checks, [path, audit_path, series_path], info


def _run_reconstruct(params, out_dir):
    from . import sampling
    h, (s0, s1), steps = params["hamiltonian"], params["seeds"], params["steps"]
    scale = sampling.DiscretenessScale(params["scale_l"])
    traj = automaton.evolve(s0, s1, h, steps)
    sig = sampling.ContinuumSignal.from_trajectory(traj, scale, params["window"])
    # at a sample point the kernel snaps to the stored sample for any window
    worst = 0.0
    for n in range(len(traj)):
        got = sig.eval(n * scale.l)
        want = sig.samples[n]
        ref = max(1.0, float(abs(want).max()))
        worst = max(worst, float(abs(got - want).max()) / ref)
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
    if params["format"] == "csv":
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


def _run_converge(params, out_dir):
    from . import sampling
    h = params["hamiltonian"]
    psi0 = list(map(complex, params["psi0"].re, params["psi0"].im))
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


def _run_multi(params, out_dir):
    hams, tensor = params["hamiltonians"], params["interaction"]
    _, wave = multipartite._factors_and_field(hams, params["seed_pairs"],
                                              params["steps"])
    free = tensor is None or tensor.is_zero()

    def verdicts():
        # the product is certified to solve the free equations
        res = multipartite._certified_free_residual(wave, hams)
        checks = []
        if free:
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
            # one shared-clock step makes clock 2, the only clock compared;
            # load_config gives every part's axis that clock too
            sync = multipartite.evolve_synchronized(prev, curr, hams, tensor, 1)
            synced, product = sync[2], wave.alpha_vector((2,) * wave.parts)
            gap = next(({"clock": 2, "indices": list(alphas),
                         "synchronized": synced[i].to_pair(),
                         "product": product[i].to_pair()}
                        for i, alphas in enumerate(wave.dof_indices())
                        if synced[i] != product[i]), None)
            checks.append(Check("synchronized_product_gap_exhibited",
                                gap is not None,
                                json.dumps(gap) if gap else "no gap at clock 2"))
            info["synchronized_gap"] = gap
        return res, checks, info

    # without interaction the residual of a product of solutions is zero
    return _write_composite(out_dir, "field.json", wave, free, verdicts)


def _run_bell(params, out_dir):
    h = params["hamiltonian"]
    (a0, a1), (b0, b1) = params["seed_pairs"]
    steps = params["steps"]
    psi = automaton.evolve(a0, a1, h, steps)
    phi = automaton.evolve(b0, b1, h, steps)
    wave = multipartite.bell_state(psi, phi)

    def verdicts():
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
        return res, checks, info

    # the residual is linear in the two solutions, so it is zero
    return _write_composite(out_dir, "bell_field.json", wave, True, verdicts)


def _run_leibniz(params, out_dir):
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


# kind -> every artifact name its runner can write, in either format
_ARTIFACTS = {
    "evolve": ("trajectory.csv", "trajectory.json"),
    "audit": ("trajectory.csv", "trajectory.json", "audit.json", "series.csv"),
    "reconstruct": ("reconstruction.csv", "reconstruction.json"),
    "converge": ("convergence.csv", "convergence.json"),
    "multi": ("field.json", "residual.csv"),
    "bell": ("bell_field.json", "residual.csv"),
    "leibniz": ("leibniz.csv",),
}


def run(config: ExperimentConfig, out_dir) -> dict:
    """Execute one experiment; returns the report object (also written).

    The `report.json` and every artifact name the kind can write that an
    earlier run left in `out_dir`, and each one's staging name, are
    removed before the runner starts, so a run that raises leaves nothing
    of an earlier run's output.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("report.json", *_ARTIFACTS[config.kind]):
        (out_dir / name).unlink(missing_ok=True)
        _staged(out_dir / name).unlink(missing_ok=True)
    started = time.perf_counter()
    checks, artifacts, info = _RUNNERS[config.kind](config.params, out_dir)
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


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signum)


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
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, expected_kind=args.command)
    except ConfigError as exc:
        for path, reason in exc.errors:
            line = f"CONFIG ERROR {path}: {reason}"
            # a key in the path may hold a line break; each error stays one line
            if not line.isprintable():
                line = line.encode("unicode_escape").decode("ascii")
            print(line, file=sys.stderr)
        return 2

    previous = signal.signal(signal.SIGTERM, _interrupt)  # unwinds: no name stays staged
    try:
        report = run(config, args.out)
    except Exception as exc:  # module errors surface with the operation named
        print(f"FAIL {args.command} — {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        if exc.args == (signal.SIGTERM,):  # end by the SIGTERM, not as a SIGINT
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)

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
