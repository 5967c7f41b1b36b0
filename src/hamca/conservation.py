"""Discrete conserved quantities of the two-step dynamics.

For any self-adjoint integer matrix G commuting with the coupling
matrix H, the two-point correlation

    q_G(n) = psi_n^* G psi_{n-1} + psi_{n-1}^* G psi_n

takes a single integer value along every solution.  For self-adjoint G
the second term is the complex conjugate of the first, so q_G(n) is
exactly the real integer 2 Re psi_n^* G psi_{n-1}.  `two_point_series`
computes one G's series that way, with one G-apply and one real inner
product per clock index.  The audit serves all of its observables at
once from one block of entry products per slice (`_block_series`), a
bilinear-form identity that needs no G-apply; the two-term form stays
as the independent oracle `two_point_invariant`.
With G the identity this is the constraint 2 Re psi_n^* psi_{n-1} =
const, the discrete stand-in for state normalization.  The symmetrized
single-site variant

    Q(n) = (1/2) Re psi_n^* (psi_{n+1} + psi_{n-1})

is an exact half-integer, constant on solutions as well.  The audit in
this module verifies conservation bit-exactly and reports observed
drift for non-commuting G instead of rejecting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Optional, Sequence

from .automaton import Trajectory, _check_dims, first_recurrence_violation
from .gaussian import GaussianInt, HermitianIntMatrix, exact_int_text

__all__ = [
    "ConservedQuantity",
    "conserved_quantity",
    "AuditEntry",
    "AuditReport",
    "two_point_invariant",
    "two_point_series",
    "norm_like_invariant",
    "symmetrized_Q",
    "conservation_rate",
    "default_commutant_basis",
    "audit_conservation",
    "series_to_csv",
]


def two_point_invariant(traj: Trajectory, g: HermitianIntMatrix, n: int) -> GaussianInt:
    """psi_n^* G psi_{n-1} + psi_{n-1}^* G psi_n at clock index n (1 <= n <= N)."""
    _check_dims(traj, g)
    if not 1 <= n <= traj.last:
        raise ValueError(f"index {n} out of range 1..{traj.last}")
    a = traj[n]
    b = traj[n - 1]
    return a.inner(g.apply(b)) + b.inner(g.apply(a))


def two_point_series(traj: Trajectory, g: HermitianIntMatrix) -> list:
    """The two-point invariant at every n = 1..N as 2 Re psi_n^* G psi_{n-1}.

    Exact because G is self-adjoint (checked when it is built): then
    psi_{n-1}^* G psi_n = conj(psi_n^* G psi_{n-1}), so the two terms of
    q_G(n) sum to twice the real part of one.  One G-apply per slice
    0..N-1 and one real inner product per n; every value is real.
    """
    _check_dims(traj, g)
    states = traj.states
    return [GaussianInt(2 * states[n].inner_re(g.apply(states[n - 1])), 0)
            for n in range(1, traj.last + 1)]


def _cross_check(series: Sequence, traj: Trajectory, g: HermitianIntMatrix):
    # the 2 Re series is always real, so compare it with the two-term form
    # at both ends: n = 1 at seed size and n = N at the run's largest entries
    if series[0] != two_point_invariant(traj, g, 1):
        raise AssertionError("two-point series disagrees with the two-term "
                             "invariant at n = 1")
    if series[-1] != two_point_invariant(traj, g, traj.last):
        raise AssertionError("two-point series disagrees with the two-term "
                             f"invariant at the last index n = {traj.last}")


def _block_program(observables: Sequence, dim: int):
    """The pairs the product block needs and each observable's combination.

    Returns (s_pairs, t_pairs, programs).  `s_pairs` are the a < b where
    some G has a nonzero Re G_ab, `t_pairs` those with a nonzero Im G_ab.
    A slice's block is the list R_0..R_{d-1}, then S_ab for `s_pairs`,
    then T_ab for `t_pairs`; each program is (positions, coefficients)
    into that list with q_G(n) = 2 * sum(coefficient * block entry).
    """
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    s_pairs = [p for p in pairs if any(g.rows[p[0]][p[1]].re for g in observables)]
    t_pairs = [p for p in pairs if any(g.rows[p[0]][p[1]].im for g in observables)]
    programs = []
    for g in observables:
        terms = [(a, g.rows[a][a].re) for a in range(dim)]
        terms += [(dim + k, g.rows[a][b].re) for k, (a, b) in enumerate(s_pairs)]
        terms += [(dim + len(s_pairs) + k, -g.rows[a][b].im)
                  for k, (a, b) in enumerate(t_pairs)]
        terms = [(i, c) for i, c in terms if c]
        programs.append((tuple(i for i, _ in terms), tuple(c for _, c in terms)))
    return s_pairs, t_pairs, programs


def _block_series(traj: Trajectory, program) -> list:
    """`two_point_series(traj, g)` for every g of a `_block_program`, from
    one product block per slice.

    With u = psi_n, w = psi_{n-1} and X_a = ur_a wr_a, Y_a = ui_a wi_a,
    R_a = X_a + Y_a, the entries the observables read are
        S_ab = (ur_a+ur_b)(wr_a+wr_b) + (ui_a+ui_b)(wi_a+wi_b) - R_a - R_b
             = Re(conj(u_a) w_b + conj(u_b) w_a),
        T_ab = (ur_a+ui_b)(wr_a+wi_b) - (ui_a+ur_b)(wi_a+wr_b)
               - X_a - Y_b + Y_a + X_b
             = Im(conj(u_a) w_b - conj(u_b) w_a),
    and q_G(n) = 2 [sum_a G_aa R_a + sum_{a<b} (Re G_ab S_ab - Im G_ab T_ab)]
    for self-adjoint G.  Pure algebra of the bilinear form, so exact on any
    trajectory: 2d + 2|S pairs| + 2|T pairs| big products per slice and
    only small-coefficient multiplies after them.
    """
    s_pairs, t_pairs, programs = program
    out = [[] for _ in programs]
    states = traj.states
    for n in range(1, len(states)):
        u, w = states[n], states[n - 1]
        ur, ui, wr, wi = u.re, u.im, w.re, w.im
        x = list(map(mul, ur, wr))
        y = list(map(mul, ui, wi))
        block = list(map(add, x, y))  # R_a, at positions 0..d-1
        for a, b in s_pairs:
            block.append((ur[a] + ur[b]) * (wr[a] + wr[b])
                         + (ui[a] + ui[b]) * (wi[a] + wi[b]) - block[a] - block[b])
        for a, b in t_pairs:
            block.append((ur[a] + ui[b]) * (wr[a] + wi[b])
                         - (ui[a] + ur[b]) * (wi[a] + wr[b])
                         - x[a] - y[b] + y[a] + x[b])
        at = block.__getitem__
        for series, (positions, coefficients) in zip(out, programs):
            series.append(GaussianInt(2 * sum(map(mul, coefficients,
                                                  map(at, positions))), 0))
    return out


def _audit_series(traj: Trajectory, observables: Sequence) -> list:
    """Every observable's series, from the block when it takes no more big
    products per slice than one `two_point_series` per G (2d each)."""
    d = traj.dim
    program = _block_program(observables, d)
    s_pairs, t_pairs, _ = program
    if 2 * d + 2 * len(s_pairs) + 2 * len(t_pairs) <= 2 * d * len(observables):
        return _block_series(traj, program)
    return [two_point_series(traj, g) for g in observables]


def norm_like_invariant(traj: Trajectory, n: int) -> int:
    """2 Re psi_n^* psi_{n-1}; the normalization stand-in (G = identity)."""
    if not 1 <= n <= traj.last:
        raise ValueError(f"index {n} out of range 1..{traj.last}")
    return 2 * traj[n].inner_re(traj[n - 1])


def symmetrized_Q(traj: Trajectory, n: int) -> Fraction:
    """(1/2) Re psi_n^* (psi_{n+1} + psi_{n-1}) as an exact half-integer."""
    if not 1 <= n <= traj.last - 1:
        raise ValueError(f"index {n} is not interior")
    s = traj[n].inner_re(traj[n + 1] + traj[n - 1])
    return Fraction(s, 2)


def conservation_rate(traj: Trajectory, g: HermitianIntMatrix, n: int) -> GaussianInt:
    """psi_n^* G psi_dot_n + psi_dot_n^* G psi_n at interior n.

    Vanishes on solutions for commuting G; equals q_G(n+1) - q_G(n).
    """
    _check_dims(traj, g)
    if not 1 <= n <= traj.last - 1:
        raise ValueError(f"index {n} is not interior")
    dot = traj[n + 1] - traj[n - 1]
    return traj[n].inner(g.apply(dot)) + dot.inner(g.apply(traj[n]))


@dataclass(frozen=True)
class ConservedQuantity:
    """Label plus the values of one two-point invariant at each clock index."""

    label: str
    values_by_n: tuple

    def __post_init__(self):
        for v in self.values_by_n:
            if not isinstance(v, GaussianInt):
                raise ValueError("values must be GaussianInt")

    @property
    def constant(self) -> bool:
        return len(set(self.values_by_n)) <= 1


def conserved_quantity(traj: Trajectory, g: HermitianIntMatrix,
                       label: str) -> ConservedQuantity:
    """Labelled invariant series; values are real for self-adjoint g."""
    values = tuple(two_point_series(traj, g))
    _cross_check(values, traj, g)
    return ConservedQuantity(label=label, values_by_n=values)


def default_commutant_basis(h: HermitianIntMatrix, max_power: int = 3) -> list:
    """(label, G) pairs for the powers 1, H, H^2, ..., H^max_power."""
    return [(f"H^{k}" if k > 1 else ("1" if k == 0 else "H"), h.power(k))
            for k in range(max_power + 1)]


@dataclass(frozen=True)
class AuditEntry:
    label: str
    commutes: bool
    conserved: bool
    rate_ok: Optional[bool]
    value: Optional[GaussianInt]
    drift: Optional[tuple]

    def to_json_obj(self) -> dict:
        obj = {"label": self.label, "commutes": self.commutes,
               "conserved": self.conserved}
        if self.rate_ok is not None:
            obj["rate_ok"] = self.rate_ok
        if self.value is not None:
            obj["value"] = self.value.to_pair()
        if self.drift is not None:
            obj["drift"] = [[n, v.to_pair()] for n, v in self.drift]
        return obj


@dataclass(frozen=True)
class AuditReport:
    dim: int
    slices: int
    solution_ok: bool
    first_bad_site: Optional[int]
    norm_value: int
    norm_is_zero: bool
    entries: tuple

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "slices": self.slices,
            "solution_ok": self.solution_ok,
            "first_bad_site": self.first_bad_site,
            "norm_invariant": {"value": self.norm_value, "zero": self.norm_is_zero},
            "observables": [e.to_json_obj() for e in self.entries],
        }


def audit_conservation(traj: Trajectory, h: HermitianIntMatrix,
                       observables: Sequence, labels: Sequence[str] = None) -> AuditReport:
    """Full conservation audit of a trajectory against a list of observables.

    Verifies the trajectory is a solution first (reported, not raised),
    then for every G: whether [G, H] = 0; for commuting G that the
    two-point invariant takes exactly one value and the per-site rate
    vanishes; for non-commuting G the observed values.  A zero
    normalization invariant is legitimate but flagged.

    All series come from one pass: one shared block of entry products
    per slice (see `_block_series`) whenever that takes no more big
    products, 2d + 2 per off-diagonal pair with a nonzero real part in
    some G + 2 per pair with a nonzero imaginary part, than the 2d per
    G of one `two_point_series` each; otherwise `two_point_series` per
    G.  The choice depends only on the observables' nonzero pattern.
    Raises ValueError if `labels` and `observables` differ in length,
    and AssertionError if a series disagrees with the two-term
    `two_point_invariant` at n = 1 or at n = N.
    """
    _check_dims(traj, h)
    if labels is None:
        labels = [f"G{i}" for i in range(len(observables))]
    if len(labels) != len(observables):
        raise ValueError(f"{len(labels)} labels for {len(observables)} observables")
    for g in observables:
        _check_dims(traj, g)
    bad = first_recurrence_violation(traj, h)
    norm = norm_like_invariant(traj, 1)
    entries = []
    for label, g, series in zip(labels, observables, _audit_series(traj, observables)):
        commutes = g.commutator(h).is_zero()
        _cross_check(series, traj, g)
        distinct = {(v.re, v.im) for v in series}
        conserved = len(distinct) == 1
        value = series[0] if conserved else None
        drift = None
        # conservation_rate(n) == q(n+1) - q(n) on any trajectory, so the
        # rate vanishes at every interior n exactly when q is constant
        rate_ok = conserved if commutes else None
        if not conserved:
            drift = tuple((n + 1, v) for n, v in enumerate(series))
        entries.append(AuditEntry(label=label, commutes=commutes,
                                  conserved=conserved, rate_ok=rate_ok,
                                  value=value, drift=drift))
    return AuditReport(
        dim=traj.dim,
        slices=len(traj),
        solution_ok=bad is None,
        first_bad_site=bad,
        norm_value=norm,
        norm_is_zero=norm == 0,
        entries=tuple(entries),
    )


@exact_int_text()
def series_to_csv(named_series: Sequence) -> str:
    """CSV rows (label, n, re, im) for labelled invariant series."""
    lines = ["label,n,re,im"]
    for label, series in named_series:
        for n, v in enumerate(series, start=1):
            lines.append(f"{label},{n},{v.re},{v.im}")
    return "\n".join(lines) + "\n"
