"""Two-step dynamics of a single integer-valued automaton.

The state is a Gaussian-integer vector psi_n advanced by the reversible
recurrence

    psi_{n+1} = psi_{n-1} - i*H*psi_n

for a self-adjoint integer matrix H.  The same dynamics follows from
requiring the lattice action

    S = sum_n [ Im(psi_n^* . (psi_{n+1} - psi_{n-1})) + psi_n^* H psi_n ]

to be stationary under arbitrary integer shifts of any single real
component, with psi and its starred partner varied independently.  This
module provides the recurrence (complex and split real/imaginary form),
the action, the symmetric-difference variation operator, and the
stationarity audit.

H's step programs are built here, each on first use, and kept on H
(`_step`): the forward step's affine call Y psi_n + psi_{n-1} with
Y = -iH, which makes the slices, the backward step's with iH, and the
split form's prediction of psi_{n+1}, which checks them.  Each takes
(psi_n, psi_{n-1}).  Up to `_STRAIGHT_LINE_DIM` each is one generated
straight-line function: `gaussian._straight_line` of the matrix's
program, and `_split_line` of the nonzero rows of hS and hA, which
shares no helper or term writer with it, so a fault in one generator
cannot show the same way in the other's output.  Above the cap they
are the loops `GIMatrix.apply` and `_split_step`.

One quantity, the Euler-Lagrange bracket

    E_n = H psi_n - i (psi_{n+1} - psi_{n-1}),

is at once -i times the recurrence residual, the action's per-site
factor and every stationarity coefficient.  `_bracket` alone forms it:
it predicts psi_{n+1} from psi_n and psi_{n-1} with the split form,
never with the step that made the slices, and where the prediction
differs from psi_{n+1} returns E_n = -i (psi_{n+1} - prediction); so
each recurrence verdict compares two separately written programs.  Up
to the cap both are generated, and each computes a product |c| * x of
a coefficient magnitude and a part once, from a table of its own, so a
product reused where it does not belong in either shows as a nonzero
bracket.
`_Window` is the one loop that runs it, over any stream of slices
three at a time.  The pass records the nonzero brackets, the slices at
them and the action; those slices and the seeds are all the trajectory
writer needs of it.  On a stored trajectory the drained pass is kept on
it for the coupling it ran with (`_kept_pass`), so the recurrence,
action and fast stationarity checks and the writer all read one pass,
whether a caller asks for them together or one at a time.  On the
forward step's slices it checks a run that holds no history but the
slices at nonzero brackets; a CLI verb adds its own part:
`_EvolveWindow` reversal, the conservation audit its series pass.

Reversal steps back from the last two slices to the first two in one of
two ways, whichever a cost estimate (`_doubling_pays`) finds cheaper:
slice by slice with `step_backward`, or at once by the N-step backward
map, whose blocks are polynomials in iH built by fast doubling in
O(log N) `GIMatrix` products.  Exact products are associative, so both
end on the same two slices bit for bit.  Doubling wins at many steps, a
small d and small coefficients; its d x d products of big entries lose
to the walk at few steps, a large d or large coefficients.

Boundary convention: `action_evaluate` sums over interior clock sites
only (end slices are fixed data).  The direct stationarity audit
differences the doubled action over the three slices m-1, m, m+1 around
the varied site m, which hold every term that couples to slice m;
slices outside that window contribute zero, and the terms this drops
hold no slice m, so they cancel from every difference.  With that
bookkeeping a variation vanishes at an interior site exactly when the
recurrence holds there.

Trajectory text is printed from an exact `decimal` stream, because
libmpdec prints in linear time and CPython's `str(int)` may not.  The
stream (`_decimal_slices`) prints each slice the checked pass keeps
(`_Window.stored`: the seeds, and the slices at each nonzero bracket)
as it is, and makes every other one from the two Decimal slices before
it with the forward step's own affine call, in an exact context
that traps rounding.  So one program makes, prints and (through the
split form) checks every slice, and the text is the bytes per-entry
`str` gives, even of a faulty kernel's slices.  On a solution the pass
keeps the seeds alone, so the stream can run beside it.  Each format
is one private generator of text pieces, one per slice: the CLI writes
the pieces as they come, and `to_csv` / `to_json_text` join them, so
no artifact's text need be held whole.  The stream and both writers
can start at any slice, from the two slices before it, and the length
of a slice's piece is counted from its int parts without printing them
(`_csv_length`, `_json_length`), so two writers can print one file,
the second from the byte offset where the first one's text ends.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact,
                     InvalidOperation, Overflow, Rounded, localcontext)
from functools import partial
from operator import neg, sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .gaussian import (
    GaussianInt,
    GIMatrix,
    GIVector,
    HermitianIntMatrix,
    IMAG_UNIT,
    _plain_ints,
    _straight_line,
    exact_int_text,
    int_matrix_is_antisymmetric,
    int_matrix_is_symmetric,
)

__all__ = [
    "Trajectory",
    "ActionValue",
    "VariationSpec",
    "StationarityViolation",
    "StationarityReport",
    "VARIATION_PARTS",
    "step_forward",
    "step_backward",
    "evolve",
    "evolve_phase_space",
    "recurrence_residual",
    "first_recurrence_violation",
    "is_solution",
    "action_evaluate",
    "discrete_variation",
    "stationarity_variation",
    "verify_stationarity",
]


# four integer cells exactly as str(int) writes them: no leading zero or -0
_CSV_ROW = _re.compile(",".join([r"(0|-?[1-9][0-9]*)"] * 4))


class Trajectory:
    """Clock-indexed sequence of exact state vectors psi_0 ... psi_N.

    Treat it as immutable: the checked pass for the last coupling it was
    checked against is kept on it (see `_kept_pass`).  `replace` and every
    other constructor start without one; `==` and `repr` ignore it.
    """

    __slots__ = ("states", "_swept")

    def __init__(self, states: Iterable[GIVector]):
        sts = tuple(states)
        if len(sts) < 2:
            raise ValueError("trajectory needs at least two slices")
        d = sts[0].dim
        if any(s.dim != d for s in sts):
            raise ValueError("all slices must share one dimension")
        self.states = sts
        self._swept = None

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def last(self) -> int:
        """Largest clock index N."""
        return len(self.states) - 1

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, n):
        return self.states[n]

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.states == other.states

    def __repr__(self):
        return f"Trajectory(dim={self.dim}, slices={len(self.states)})"

    def replace(self, n: int, state: GIVector) -> "Trajectory":
        """Copy with slice n, a clock index 0..N, replaced (used to study
        corrupted histories)."""
        _check_site(n, self.last, "slice {!r} out of range 0..{}", first=0)
        if state.dim != self.dim:
            raise ValueError("replacement slice has wrong dimension")
        sts = list(self.states)
        sts[n] = state
        return Trajectory(sts)

    # -- serialization ------------------------------------------------

    def _decimal_texts(self, h: Optional[HermitianIntMatrix]):
        """`_decimal_slices` of this trajectory and the slices h's pass
        keeps; without h, the kept pass's, or else every slice."""
        if h is None and self._swept is not None:
            h = self._swept.h
        stored = (dict(enumerate(self.states)) if h is None
                  else _kept_pass(self, h).stored)
        return _decimal_slices(h, len(self.states), stored)

    def to_csv(self, h: Optional[HermitianIntMatrix] = None) -> str:
        """CSV text `n,alpha,re,im`, one row per entry.

        Pass the coupling the trajectory solves to make the decimal text
        linear in its length; any H (or none) gives the same exact text.
        Without `h`, the coupling of the last check kept on the trajectory
        (see `_kept_pass`) serves; a trajectory that was never checked
        takes the path quadratic in the digits.
        """
        return "".join(_csv_pieces(self._decimal_texts(h)))

    def to_json_text(self, h: Optional[HermitianIntMatrix] = None) -> str:
        """`json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\\n"`.

        Same bytes, with entries printed from the stream `to_csv` uses,
        for the same `h` or the same kept coupling without one.
        """
        return "".join(_json_pieces(self._decimal_texts(h), self.dim))

    @classmethod
    @exact_int_text()
    def from_csv(cls, text: str) -> "Trajectory":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].split(",") != ["n", "alpha", "re", "im"]:
            raise ValueError("bad trajectory CSV header")
        cells = {}
        for ln in lines[1:]:
            row = _CSV_ROW.fullmatch(ln)
            if row is None:
                raise ValueError(f"bad trajectory CSV row: {ln!r}")
            n, a, re, im = map(int, row.groups())
            if n < 0 or a < 0:
                raise ValueError(f"trajectory CSV row has a negative index: {ln!r}")
            if (n, a) in cells:
                raise ValueError(f"trajectory CSV repeats cell {(n, a)}")
            cells[(n, a)] = (re, im)
        if not cells:
            raise ValueError("empty trajectory CSV")
        n_max = max(k[0] for k in cells)
        dim = max(k[1] for k in cells) + 1
        states = []
        for n in range(n_max + 1):
            try:
                re, im = zip(*(cells[(n, a)] for a in range(dim)))
            except KeyError as exc:
                raise ValueError(f"trajectory CSV is missing cell {exc}") from exc
            states.append(GIVector._from_parts(re, im))
        return cls(states)

    def to_json_obj(self) -> dict:
        return {"dim": self.dim, "states": [s.to_pairs() for s in self.states]}

    @classmethod
    def from_json_obj(cls, obj) -> "Trajectory":
        if not isinstance(obj, dict) or not isinstance(obj.get("states"), list):
            raise ValueError("bad trajectory JSON object")
        states = [GIVector.from_pairs(s, f"states[{i}]")
                  for i, s in enumerate(obj["states"])]
        traj = cls(states)
        if "dim" in obj:
            if type(obj["dim"]) is not int:
                raise ValueError("trajectory JSON dim field must be an integer")
            if obj["dim"] != traj.dim:
                raise ValueError("trajectory JSON dim field disagrees with states")
        return traj


# -- trajectory text ---------------------------------------------------


def _decimal_slices(h: Optional[HermitianIntMatrix], slices: int, stored: Mapping,
                    first: int = 0):
    """The decimal text of the parts of psi_first ... psi_{slices-1}, per slice.

    Slice n is Decimal(psi_n) where `stored` (clock index -> slice) has
    it, and otherwise one call of H's forward step, -iH psi_{n-1} +
    psi_{n-2}, on the two Decimal slices before it; from `first` >= 2
    on, the first two of those are psi_{first-2} and psi_{first-1},
    which `stored` then holds.  With `_Window.stored` that is psi_n on
    any trajectory and any H: the window keeps each slice whose bracket
    one site back is nonzero, as it is wherever the kernel that made the
    slices strays from the split form.  With `h=None` the map holds
    every slice: the same text, in time quadratic in the digits.  Each
    replay runs in a local context that traps `Inexact` and `Rounded`,
    left before the slice is yielded.  The step accumulates each row
    onto psi_{n-2}, never -0, so a negative coefficient times a zero
    entry never prints as -0.
    """
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                  traps=[Inexact, Rounded, InvalidOperation, Overflow])
    forward = None if h is None else _step(h, "forward")
    before = psi = None
    for n in range(max(first - 2, 0), slices):
        kept = stored.get(n)
        if kept is None:
            with localcontext(ctx):
                nxt = forward(psi, before)
        else:
            nxt = GIVector._from_parts(tuple(map(Decimal, kept.re)),
                                       tuple(map(Decimal, kept.im)))
        before, psi = psi, nxt
        if n >= first:
            yield tuple(map(str, psi.re)), tuple(map(str, psi.im))


_CSV_HEADER = "n,alpha,re,im\n"


def _csv_pieces(texts: Iterable, first: int = 0) -> Iterator[str]:
    """`Trajectory.to_csv`'s text of a decimal stream, one piece per slice.

    The header rides on the first piece, unless the stream starts at
    slice `first` > 0.
    """
    head = "" if first else _CSV_HEADER
    for n, (res, ims) in enumerate(texts, first):
        yield head + "".join(f"{n},{a},{re},{im}\n"
                             for a, (re, im) in enumerate(zip(res, ims)))
        head = ""


def _json_opening(dim: int) -> str:
    return f'{{\n  "dim": {dim},\n  "states": [\n'


def _json_pieces(texts: Iterable, dim: int, first: int = 0) -> Iterator[str]:
    """`Trajectory.to_json_text`'s text: one piece per slice, then the
    footer.  Each piece opens with its separator, the object's opening
    on slice 0, so a stream that starts at slice `first` > 0 continues
    the array."""
    sep = ",\n" if first else _json_opening(dim)
    for res, ims in texts:
        yield (sep + "    [\n"
               + ",\n".join(f"      [\n        {re},\n        {im}\n      ]"
                            for re, im in zip(res, ims))
               + "\n    ]")
        sep = ",\n"
    yield "\n  ]\n}\n"


_LOG10_2 = math.log10(2)


def _text_length(x: int) -> int:
    """len(str(x)), without printing x: its sign and its digit count.

    2**(b-1) <= |x| < 2**b for b = x.bit_length(), so the count is
    floor(log10 |x|) + 1 for a log10 |x| between (b-1) log10 2 and
    b log10 2: read from b alone where no integer lies between those
    two, as for seven bit lengths in ten.  Otherwise the count is
    floor(log10 |x|) + 1 from `math.log10`, and where that lies within
    float error of an integer e, so near 10**e, one exact compare with
    10**e decides it.  Each margin is thousands of times the float
    error it guards against, at any size.
    """
    if not x:
        return 1
    b = x.bit_length()
    margin = 1e-12 * b
    low = int((b - 1) * _LOG10_2 - margin)
    if low == int(b * _LOG10_2 + margin):
        return low + 1 + (x < 0)
    size = -x if x < 0 else x
    t = math.log10(size)
    e = round(t)
    if abs(t - e) < 1e-9 * (1 + t):
        return e + (size >= 10 ** e) + (x < 0)
    return int(t) + 1 + (x < 0)


def _parts_length(psi: GIVector) -> int:
    """The length of the text of psi's parts, summed."""
    return sum(map(_text_length, psi.re + psi.im))


def _csv_length(n: int, psi: GIVector) -> int:
    """len of `_csv_pieces`' piece for slice n, psi_n: its rows
    `n,alpha,re,im`, and the header with n = 0."""
    d = psi.dim
    return ((0 if n else len(_CSV_HEADER)) + _parts_length(psi)
            + d * (len(str(n)) + 4) + sum(map(len, map(str, range(d)))))


def _json_length(n: int, psi: GIVector) -> int:
    """len of `_json_pieces`' piece for slice n, psi_n: its separator,
    the object's opening with n = 0, and the slice's entries."""
    d = psi.dim
    # around the d entries "    [\n" and "\n    ]", 12; around each
    # entry's parts "      [\n        ", ",\n        " and "\n      ]",
    # 34; between two entries ",\n", 2
    return ((2 if n else len(_json_opening(d))) + _parts_length(psi)
            + 12 + 34 * d + 2 * (d - 1))


# -- evolution ---------------------------------------------------------


# The one matvec kernel, bound once: the benchmark's tracer replaces the
# class's `apply` with a one-vector wrapper, and reversal's products and
# the steps of an H past the cap run `apply` itself through this name.
_affine = GIMatrix.apply

# The largest d whose steps are generated code: up to d = 32 it took
# 0.6-1.07x the loop's time per call, but compiling -iH and iH costs
# 0.2-3 ms up to d = 8 and 3.5-8 ms at d = 16.
_STRAIGHT_LINE_DIM = 8


def _step(h: HermitianIntMatrix, kind: str):
    """H's step program `kind`, built on first use and kept in `h._steps`,
    which does not pickle: the step matrices "-iH" and "iH"; their affine
    calls "forward" and "back", (psi_n, base) -> M psi_n + base; and
    "split", the split form's (x_{n+1}, p_{n+1}) from (psi_n, psi_{n-1}).
    Up to `_STRAIGHT_LINE_DIM` a call is generated code, `_straight_line`
    of M's program or `_split_line` of H's split rows; above the cap it
    is `_affine` on M or `_split_step` on the rows."""
    kept = h._steps
    program = kept.get(kind)
    if program is None:
        small = h.dim <= _STRAIGHT_LINE_DIM
        if kind in ("-iH", "iH"):
            program = h.scale(-IMAG_UNIT if kind == "-iH" else IMAG_UNIT)
        elif kind == "split":
            rows = _split_rows(*h.split())
            program = _split_line(rows) if small else partial(_split_step, rows)
        else:
            m = _step(h, {"forward": "-iH", "back": "iH"}[kind])
            program = (_straight_line(m._program) if small
                       else lambda v, base: _affine(m, v, base))
        kept[kind] = program
    return program


def _check_states(h: HermitianIntMatrix, *states: GIVector):
    if any(s.dim != h.dim for s in states):
        raise ValueError(f"dimension mismatch: states "
                         f"{'/'.join(str(s.dim) for s in states)}, matrix {h.dim}")


def step_forward(psi_prev: GIVector, psi_curr: GIVector,
                 h: HermitianIntMatrix) -> GIVector:
    """One exact forward step: psi_next = psi_prev - i*H*psi_curr, one
    call of H's kept forward step."""
    _check_states(h, psi_prev, psi_curr)
    return _step(h, "forward")(psi_curr, psi_prev)


def step_backward(psi_next: GIVector, psi_curr: GIVector,
                  h: HermitianIntMatrix) -> GIVector:
    """Exact inverse step: psi_prev = psi_next + i*H*psi_curr, one call
    of H's kept backward step."""
    _check_states(h, psi_next, psi_curr)
    return _step(h, "back")(psi_curr, psi_next)


def _evolve_slices(seed0: GIVector, seed1: GIVector, h: HermitianIntMatrix,
                   steps: int) -> Iterator[GIVector]:
    """The forward step's slices psi_0 ... psi_{steps+1}, one at a time,
    each one call of H's kept forward step; the seeds' dimensions and
    the step count are checked before the first slice."""
    _check_states(h, seed0, seed1)
    if type(steps) is not int or steps < 0:
        raise ValueError("steps must be an int >= 0")
    forward = _step(h, "forward")
    yield seed0
    yield seed1
    for _ in range(steps):
        seed0, seed1 = seed1, forward(seed1, seed0)
        yield seed1


def evolve(seed0: GIVector, seed1: GIVector, h: HermitianIntMatrix,
           steps: int) -> Trajectory:
    """Iterate the forward step; returns a trajectory of steps+2 slices."""
    return Trajectory(_evolve_slices(seed0, seed1, h, steps))


def _split_rows(hs: Sequence[Sequence[int]], ha: Sequence[Sequence[int]]) -> tuple:
    """Per row i, the nonzero (j, c) of hS_i and of hA_i: the split form's program."""
    return tuple((tuple((j, c) for j, c in enumerate(s) if c),
                  tuple((j, c) for j, c in enumerate(a) if c))
                 for s, a in zip(hs, ha))


def _split_step(rows: tuple, psi: GIVector, base: GIVector) -> tuple:
    """(x_{n+1}, p_{n+1}) from psi_n = x_n + i p_n and base psi_{n-1},
    row i's sums started at x_{n-1} and p_{n-1}:
    x_i += hS_i . p_n + hA_i . x_n,  p_i += -hS_i . x_n + hA_i . p_n."""
    xc, pc = psi.re, psi.im
    x_out, p_out = [], []
    for (s_terms, a_terms), x, p in zip(rows, base.re, base.im):
        for j, c in s_terms:
            x += c * pc[j]
            p -= c * xc[j]
        for j, c in a_terms:
            x += c * xc[j]
            p += c * pc[j]
        x_out.append(x)
        p_out.append(p)
    return tuple(x_out), tuple(p_out)


def _split_line(rows: tuple) -> Callable:
    """`_split_step` of `rows` as one generated function of (psi, base).

    The two vectors' parts are unpacked once into locals, and each
    distinct product |c| * x of a coefficient magnitude and a local is
    computed once: into a local of its own where two terms or more use
    it, and within its one term otherwise.  Each output part is then one
    expression that adds or subtracts those products, the sign on the
    operator.  A +1 or -1 term adds or subtracts the part itself, with no
    multiply.  A coefficient enters the source only as the name of a
    keyword default bound to it, never as a literal.  Written apart from
    `gaussian._straight_line`, with no helper or term writer in common,
    so that a fault in either generator cannot show the same way in the
    other's output.
    """
    bound = {}  # coefficient magnitude -> the keyword default it is bound to
    shared = {}  # (magnitude, part local) -> [its slot in the sums, the terms using it]

    def term(sign, c, var):
        """`sign * c * var` as source, led by its operator; a product is a
        format slot, filled once every term is known."""
        op = " + " if sign * c > 0 else " - "
        if c in (1, -1):
            return op + var
        slot = shared.setdefault((abs(c), var), [len(shared), 0])
        slot[1] += 1
        return f"{op}{{{slot[0]}}}"

    xs, ps = [], []
    for i, (s_terms, a_terms) in enumerate(rows):
        x, p = f"xp{i}", f"pp{i}"
        for j, c in s_terms:
            x += term(1, c, f"pc{j}")
            p += term(-1, c, f"xc{j}")
        for j, c in a_terms:
            x += term(1, c, f"xc{j}")
            p += term(1, c, f"pc{j}")
        xs.append(x + ",")
        ps.append(p + ",")
    # a product of one term is written into it, any other kept in a local
    products, slots = [], []
    for (c, var), (_, used) in shared.items():
        factor = f"{bound.setdefault(c, f'c{len(bound)}')} * {var}"
        if used == 1:
            slots.append(factor)
        else:
            slots.append(f"m{len(products)}")
            products.append(f"    {slots[-1]} = {factor}\n")
    params = ["psi", "base"] + (["*", *bound.values()] if bound else [])
    source = (f"def split_step({', '.join(params)}):\n"
              + "".join(f"    ({''.join(f'{v}{j},' for j in range(len(rows)))}) = {parts}\n"
                        for v, parts in (("xp", "base.re"), ("pp", "base.im"),
                                         ("xc", "psi.re"), ("pc", "psi.im")))
              + "".join(products)
              + f"    return ({' '.join(xs)}), ({' '.join(ps)})\n".format(*slots))
    namespace = {}
    exec(source, namespace)
    step = namespace["split_step"]
    step.__kwdefaults__ = {name: c for c, name in bound.items()}
    return step


def evolve_phase_space(x0: Sequence[int], p0: Sequence[int],
                       x1: Sequence[int], p1: Sequence[int],
                       hs: Sequence[Sequence[int]],
                       ha: Sequence[Sequence[int]],
                       steps: int) -> Trajectory:
    """Evolve the split form:

        x_{n+1} = x_{n-1} + hS p_n + hA x_n
        p_{n+1} = p_{n-1} - hS x_n + hA p_n

    Returns the trajectory psi_n = x_n + i*p_n, which equals `evolve`
    with H = hS + i*hA.  Seeds and couplings must hold plain ints; the
    inputs are checked before the first step.
    """
    if not int_matrix_is_symmetric(hs):
        raise ValueError("hS must be symmetric")
    if not int_matrix_is_antisymmetric(ha):
        raise ValueError("hA must be antisymmetric")
    d = len(hs)
    for name, v in (("x0", x0), ("p0", p0), ("x1", x1), ("p1", p1)):
        if len(v) != d or len(ha) != d:
            raise ValueError(f"dimension mismatch for {name}")
    if type(steps) is not int or steps < 0:
        raise ValueError("steps must be an int >= 0")
    hs, ha = ([_plain_ints(r, name) for r in m] for name, m in (("hS", hs), ("hA", ha)))
    rows = _split_rows(hs, ha)
    states = [GIVector._from_parts(_plain_ints(x0, "x0"), _plain_ints(p0, "p0")),
              GIVector._from_parts(_plain_ints(x1, "x1"), _plain_ints(p1, "p1"))]
    for _ in range(steps):
        states.append(GIVector._from_parts(*_split_step(rows, states[-1], states[-2])))
    return Trajectory(states)


# -- the checked pass ----------------------------------------------------


def _check_dims(traj: Trajectory, h: HermitianIntMatrix):
    if traj.dim != h.dim:
        raise ValueError(f"dimension mismatch: trajectory {traj.dim}, matrix {h.dim}")


def _check_site(n, last: int, message: str, first: int = 1):
    """ValueError(message.format(n, last)) unless n is a plain int in first..last."""
    if type(n) is not int or not first <= n <= last:
        with exact_int_text():
            raise ValueError(message.format(n, last))


def _bracket(down: GIVector, psi: GIVector, up: GIVector,
             step: Callable) -> Optional[tuple]:
    """Int parts (re, im) of E_n = H psi_n - i (psi_{n+1} - psi_{n-1}).

    The bracket predicts psi_{n+1} with one call of `step`, H's split
    form (`_step(h, "split")`), on psi_n and psi_{n-1} and returns None
    when the prediction is psi_{n+1}; otherwise E_n = -i (psi_{n+1} -
    prediction).
    """
    x, p = step(psi, down)
    if x == up.re and p == up.im:
        return None
    # -i (a + ib) = b - ia
    return tuple(map(sub, up.im, p)), tuple(map(sub, x, up.re))


class _Window:
    """One checked pass over a stream of slices psi_0 ... psi_N, three at a time.

    `drain()` pulls the stream through.  On the way the pass brackets
    every interior site with `_bracket`, on H's split step, and records
    the nonzero brackets as (site, (re, im)) in increasing site order
    (`brackets`, a tuple once drained), and in `stored` (read-only once
    drained) the seeds and, at each such site m, psi_m and psi_{m+1}:
    the slices `_decimal_slices` prints as they are and the derived
    series apply G to, none past the seeds on a solution.  E_n is -i
    times `recurrence_residual`, so `first_bad`, the first bracketed
    site, is None exactly on a solution; E_n is also the action's
    per-site factor, so `action` sums the nonzero brackets' summands
    only.  Only these, the slice count, the seeds and the last
    two slices (`ends`, as (psi_{N-1}, psi_N)) outlive the pass.  A verb
    adds its own checks in `_visit`, which sees each slice with the one
    before it (None for psi_0) and the bracket there.
    """

    def __init__(self, slices: Iterable[GIVector], h: HermitianIntMatrix):
        self._slices = slices
        self.h = h
        self.seeds = self.ends = None
        self.brackets = []
        self.stored = {}
        self.action = 0
        self.slices = 0

    @property
    def first_bad(self) -> Optional[int]:
        return self.brackets[0][0] if self.brackets else None

    def drain(self):
        step = _step(self.h, "split")
        down = psi = None
        for n, up in enumerate(self._slices):
            e = None if down is None else _bracket(down, psi, up, step)
            if e is not None:
                self.brackets.append((n - 1, e))
                self.stored[n - 1], self.stored[n] = psi, up
                self.action += psi.inner_re(GIVector._from_parts(*e))
            self._visit(psi, up, e)
            down, psi = psi, up
            if n == 1:
                self.seeds = (down, psi)
                self.stored.update(enumerate(self.seeds))
        self.slices = n + 1
        self.ends = (down, psi)
        self.brackets = tuple(self.brackets)
        self.stored = MappingProxyType(self.stored)

    def _visit(self, psi: Optional[GIVector], up: GIVector, e: Optional[tuple]):
        pass


class _EvolveWindow(_Window):
    """`_Window` with reversal, the evolve verdict the pass does not give."""

    def reverses(self) -> bool:
        """Whether stepping back from the last two slices ends on the seeds.

        Where `_doubling_pays`, the steps back are taken at once by
        `_stepped_back`; elsewhere one `step_backward` at a time.  Integer
        products are associative, so both give the same two slices on any
        window and any H: only the cost differs.
        """
        if self.seeds is None:  # fewer than two slices: no seeds to reach
            return False
        before, last = self.ends
        steps = self.slices - 2
        if _doubling_pays(self.h, steps, last):
            return _stepped_back(self.h, steps, before, last) == self.seeds
        for _ in range(steps):
            last, before = before, step_backward(last, before, self.h)
        return (before, last) == self.seeds


def _stepped_back(h: HermitianIntMatrix, steps: int, before: GIVector,
                  last: GIVector) -> tuple:
    """(psi_0, psi_1), `steps` backward steps from (psi_{N-1}, psi_N).

    The backward step psi_{n-1} = psi_{n+1} + Y psi_n, Y = iH, is the
    forward recurrence in Y, so with N = steps + 1
        psi_0 = F_N psi_{N-1} + F_{N-1} psi_N,
        psi_1 = F_{N-1} psi_{N-1} + F_{N-2} psi_N,
    F_k = F_k(Y) from `_backward_polys`, and F_{N-2} psi_N is
    F_N psi_N - Y F_{N-1} psi_N, whose last term is one call of H's
    forward step, in -Y = -iH.
    """
    f_back, f_n = _backward_polys(_step(h, "iH"), steps)
    back_last = f_back.apply(last)
    return (_affine(f_n, before, back_last),
            _step(h, "forward")(back_last, _affine(f_back, before, f_n.apply(last))))


def _backward_polys(y: GIMatrix, m: int) -> tuple:
    """(F_m, F_{m+1}) of F_0 = 0, F_1 = 1, F_{k+1} = Y F_k + F_{k-1}.

    Fast doubling over m's bits.  With L_k = F_{k+1} + F_{k-1} =
    2 F_{k+1} - Y F_k,
        F_{2k} = F_k L_k  and  F_{2k+1} = F_{k+1} L_k - (-1)^k,
    the second being F_{k+1}^2 + F_k^2 by Cassini's identity
    F_{k+1} F_{k-1} - F_k^2 = (-1)^k.  Both hold because every F_k is a
    polynomial in the one matrix Y.  Each bit costs two d x d products
    of F's own entries and one product by Y (two on a 1 bit); those are
    cheap because Y's entries are small, not because Y is sparse.  After
    a doubling k is even, so (-1)^k is -1 just after a 1 bit.
    """
    one = GIMatrix.identity(y.dim)
    a, b, sign = GIMatrix.zeros(y.dim), one, 1
    for bit in bin(m)[2:]:
        lucas = b.scale(2) - y @ a
        a, b, sign = a @ lucas, b @ lucas - one.scale(sign), 1
        if bit == "1":
            a, b, sign = b, y @ b + a, -1
    return a, b


def _doubling_pays(h: HermitianIntMatrix, steps: int, last: GIVector) -> bool:
    """Whether `_stepped_back` is estimated to cost less than `steps`
    calls of `step_backward` from a window whose last slice is `last`.

    The walk pays, per step, for H's terms times entries of about half
    psi_N's size.  Doubling pays, per bit of the steps, for d x d products
    (four real products per complex entry when H has a real and an
    imaginary part), whose entries grow to F_N's, about psi_N's size; a
    product of two p-digit ints costs p^2 digit products up to CPython's
    Karatsuba cutoff of 70 digits and p^1.585 past it.  So doubling wins
    at many steps, a small d and small coefficients, and the walk wins
    otherwise.  The constants are rough nanoseconds of CPython 3.11 on
    x86-64, fitted to timings of both paths over dims 1-32, 10-6,000
    steps and coefficients of 1-700 bits, the walk's to its one call of
    H's backward step per step, iH's generated code up to d = 8; only
    their ratio matters.
    """
    d = h.dim
    coeffs = [abs(c) for row in h._program for part in row for _, c in part]
    terms = len(coeffs)
    coeff_digits = max(coeffs, default=0).bit_length() // 30 + 1
    digits = max(map(abs, last.re + last.im)).bit_length() // 30 + 1
    half = digits // 2 + 1
    walk = steps * (350 + 115 * terms + 240 * d
                    + 1.8 * half * (terms * (coeff_digits + 1) + d))
    parts = 2 if any(r for r, _ in h._program) and any(i for _, i in h._program) else 1

    def product(p):
        return p * p if p <= 70 else 4900 * (p / 70) ** 1.585

    doubling = (steps.bit_length() * (80000 + 8000 * d * d + 150 * parts * d ** 3)
                + 6.5 * parts * (d ** 3 * product(half) + d * d * product(digits)))
    return doubling < walk


def _kept_pass(traj: Trajectory, h: HermitianIntMatrix) -> _Window:
    """The drained `_Window` of traj's slices for h, kept on traj.

    It is kept for the coupling object it ran with (compared with `is`),
    so every reader shares one pass; an equal but distinct H, or another
    H, runs it again and replaces it.  Its brackets are a tuple and its
    stored slices a read-only map, so no reader can change what the next
    one reads.
    """
    _check_dims(traj, h)
    kept = traj._swept
    if kept is None or kept.h is not h:
        kept = _Window(traj.states, h)
        kept.drain()
        traj._swept = kept
    return kept


def recurrence_residual(traj: Trajectory, h: HermitianIntMatrix, n: int) -> GIVector:
    """psi_{n+1} - psi_{n-1} + i*H*psi_n; zero iff the rule holds at n."""
    _check_site(n, traj.last - 1, "site {!r} is not interior")
    _check_dims(traj, h)
    e = _bracket(traj[n - 1], traj[n], traj[n + 1], _step(h, "split"))
    if e is None:
        return GIVector.zero(traj.dim)
    # i * (re + i im)
    return GIVector._from_parts(tuple(map(neg, e[1])), e[0])


def first_recurrence_violation(traj: Trajectory, h: HermitianIntMatrix) -> Optional[int]:
    return _kept_pass(traj, h).first_bad


def is_solution(traj: Trajectory, h: HermitianIntMatrix) -> bool:
    return first_recurrence_violation(traj, h) is None


# -- action ------------------------------------------------------------


@dataclass(frozen=True)
class ActionValue:
    """Exact action value; real for self-adjoint couplings."""

    value: GaussianInt

    def __post_init__(self):
        if self.value.im != 0:
            raise ValueError(f"action came out non-real: {self.value}")

    @property
    def as_int(self) -> int:
        return self.value.re


def action_evaluate(traj: Trajectory, h: HermitianIntMatrix) -> ActionValue:
    """Exact action over interior sites; zero on every solution.

    Per interior site the summand is Im(psi_n^* . (psi_{n+1}-psi_{n-1}))
    plus the real bilinear psi_n^* H psi_n, evaluated as one real
    reduction

        Re psi_n^* . [H psi_n - i (psi_{n+1} - psi_{n-1})].

    The bracket is -i times `recurrence_residual`, so on a solution it
    is exactly zero and the checked pass sums the nonzero brackets' sites
    only; on any other trajectory the value is the same integer.
    """
    if len(traj) < 3:
        raise ValueError("action needs at least three slices")
    return ActionValue(GaussianInt(_kept_pass(traj, h).action, 0))


# -- variation operator ------------------------------------------------


def discrete_variation(g: Callable[[int], object], at: int, delta: int):
    """Symmetric difference quotient [g(at+delta) - g(at-delta)] / (2*delta).

    Exact: raises if 2*delta does not divide the difference (it always
    does for polynomials of degree <= 2 in the varied variable).  By
    convention the variation for delta == 0 is 0, reported without
    attempting the division.  `at` and `delta` must be plain ints.
    """
    for name, value in (("at", at), ("delta", delta)):
        if type(value) is not int:
            raise ValueError(f"{name} must be a plain integer")
    if delta == 0:
        return 0
    num = g(at + delta) - g(at - delta)
    if isinstance(num, GaussianInt):
        return num.divide_exact(2 * delta)
    q, r = divmod(num, 2 * delta)
    if r:
        with exact_int_text():
            raise ValueError(f"difference {num} is not divisible by {2 * delta}")
    return q


VARIATION_PARTS = ("psi_re", "psi_im", "star_re", "star_im")


@dataclass(frozen=True)
class VariationSpec:
    """One elementary variation: which site, dof, real component, and shift."""

    site: int
    dof: int
    part: str
    delta: int

    def __post_init__(self):
        for name in ("site", "dof"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be a plain integer")
        if self.part not in VARIATION_PARTS:
            raise ValueError(f"unknown variation part {self.part!r}")
        if type(self.delta) is not int or self.delta == 0:
            raise ValueError("delta must be a nonzero plain integer")


def _doubled_action(psis, stars, h: HermitianIntMatrix) -> GaussianInt:
    """Twice the action over independent psi / star families of three
    slices m-1, m, m+1, less the terms that hold no slice m.

    Families are lists of (re, im) pair lists.  Every site keeps its
    kinetic term, with neighbor slices beyond either end taken as zero;
    only the centre keeps its potential term, since those at m-1 and m+1
    hold no slice m.  Doubling keeps every intermediate value a Gaussian
    integer even off the star == conj(psi) slice.
    """
    d = len(psis[0])
    zero = [(0, 0)] * d
    last = len(psis) - 1
    tot_re = 0
    tot_im = 0
    for n in range(last + 1):
        sp = stars[n]
        pp = psis[n]
        p_next = psis[n + 1] if n + 1 <= last else zero
        p_prev = psis[n - 1] if n - 1 >= 0 else zero
        s_next = stars[n + 1] if n + 1 <= last else zero
        s_prev = stars[n - 1] if n - 1 >= 0 else zero
        # w = star_n . (psi_{n+1} - psi_{n-1}) - (star_{n+1} - star_{n-1}) . psi_n
        wre = 0
        wim = 0
        for a in range(d):
            sre, sim = sp[a]
            dre = p_next[a][0] - p_prev[a][0]
            dim_ = p_next[a][1] - p_prev[a][1]
            wre += sre * dre - sim * dim_
            wim += sre * dim_ + sim * dre
            tre = s_next[a][0] - s_prev[a][0]
            tim = s_next[a][1] - s_prev[a][1]
            pre, pim = pp[a]
            wre -= tre * pre - tim * pim
            wim -= tre * pim + tim * pre
        # kinetic contribution: -i * w
        tot_re += wim
        tot_im -= wre
    # potential contribution at the centre: 2 * star_m . H . psi_m
    sp = stars[1]
    for a, row in enumerate(h.rows):
        are = 0
        aim = 0
        for hre, him, (xre, xim) in zip(row.re, row.im, psis[1]):
            are += hre * xre - him * xim
            aim += hre * xim + him * xre
        sre, sim = sp[a]
        tot_re += 2 * (sre * are - sim * aim)
        tot_im += 2 * (sre * aim + sim * are)
    return GaussianInt(tot_re, tot_im)


def stationarity_variation(traj: Trajectory, h: HermitianIntMatrix,
                           spec: VariationSpec) -> GaussianInt:
    """Exact variation of the action for one elementary variation.

    Differences twice the action, as an exact function g of the varied
    component, with `discrete_variation` and halves the result
    (exactly).  Every term of the doubled action that holds slice m =
    `spec.site` pairs it with slice m-1, m or m+1, so g sums
    `_doubled_action` over those three slices alone, in a fresh copy
    with the component set.  The terms this drops or changes pair slice
    m+-1 with slice m+-2 or with itself (the potential there), hold no
    slice m and cancel from every difference.  Zero for every elementary
    variation at a site iff the recurrence and its starred partner hold
    there.
    """
    _check_dims(traj, h)
    m = spec.site
    _check_site(m, traj.last - 1, "variation site {} is not interior")
    if not 0 <= spec.dof < traj.dim:
        with exact_int_text():
            raise ValueError(f"dof {spec.dof} out of range")
    window = traj.states[m - 1:m + 2]

    def g(f: int) -> GaussianInt:
        psis = [list(zip(s.re, s.im)) for s in window]
        stars = [list(zip(s.re, map(neg, s.im))) for s in window]
        family = psis if spec.part.startswith("psi") else stars
        re, im = family[1][spec.dof]
        family[1][spec.dof] = (f, im) if spec.part.endswith("_re") else (re, f)
        return _doubled_action(psis, stars, h)

    re, im = window[1].re[spec.dof], window[1].im[spec.dof]
    f0 = (re, im, re, -im)[VARIATION_PARTS.index(spec.part)]
    doubled = discrete_variation(g, f0, spec.delta)
    return doubled.divide_exact(2)


@dataclass(frozen=True)
class StationarityViolation:
    site: int
    dof: int
    part: str
    delta: int
    value: GaussianInt


@dataclass(frozen=True)
class StationarityReport:
    dim: int
    sites_checked: int
    deltas: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_stationarity(traj: Trajectory, h: HermitianIntMatrix,
                        deltas: Sequence[int] = (1, 2, 3),
                        method: str = "fast") -> StationarityReport:
    """Check that every elementary variation of the action vanishes.

    Covers every interior site, dof, all four real components, and the
    given deltas.  `method="direct"` differences the doubled action for
    each variation; `method="fast"` evaluates the equivalent per-site
    coefficients once; the action is quadratic in each varied component,
    so the symmetric quotient equals that coefficient for every delta.
    Both produce identical reports (asserted in tests); the direct path
    is the independent oracle, the fast path makes long histories
    affordable.
    """
    if len(traj) < 3:
        raise ValueError("stationarity needs at least three slices")
    _check_dims(traj, h)
    deltas = tuple(deltas) if isinstance(deltas, Iterable) else ()
    if not deltas or any(type(d) is not int or d == 0 for d in deltas):
        raise ValueError("deltas must be nonzero plain integers, at least one")
    violations = []
    if method == "direct":
        for m in range(1, traj.last):
            for a in range(traj.dim):
                for part in VARIATION_PARTS:
                    for delta in deltas:
                        spec = VariationSpec(m, a, part, delta)
                        val = stationarity_variation(traj, h, spec)
                        if val:
                            violations.append(
                                StationarityViolation(m, a, part, delta, val))
    elif method == "fast":
        for m, (c_re, c_im) in _kept_pass(traj, h).brackets:
            # c_star[a] is the variation under a unit shift of star_m^a's
            # real part: the bracket -i psi_dot_m + H psi_m.  The psi
            # analogue is i star_dot + H^T star_m = conj(c_star[a]) for
            # self-adjoint H, and imaginary-part shifts multiply both by
            # i, so all four coefficients vanish together.  Derived from
            # the same doubled action the direct path differences; the
            # two paths are asserted equal in the test suite.
            for a, (re, im) in enumerate(zip(c_re, c_im)):
                if not (re or im):
                    continue
                c_star = GaussianInt(re, im)
                c_psi = c_star.conjugate()
                for part, coeff in (
                    ("psi_re", c_psi),
                    ("psi_im", IMAG_UNIT * c_psi),
                    ("star_re", c_star),
                    ("star_im", IMAG_UNIT * c_star),
                ):
                    for delta in deltas:
                        violations.append(
                            StationarityViolation(m, a, part, delta, coeff))
    else:
        raise ValueError(f"unknown method {method!r}")
    return StationarityReport(
        dim=traj.dim,
        sites_checked=max(traj.last - 1, 0),
        deltas=deltas,
        violations=tuple(violations),
    )
