"""Discrete conserved quantities of the two-step dynamics.

For any self-adjoint integer matrix G commuting with the coupling
matrix H, the two-point correlation

    q_G(n) = psi_n^* G psi_{n-1} + psi_{n-1}^* G psi_n

takes a single integer value along every solution.  For self-adjoint G
the second term is the complex conjugate of the first, so q_G(n) is
exactly the real integer 2 Re psi_n^* G psi_{n-1}; the series is
computed that way, with one real inner product per clock index, and
the two-term form stays as the independent oracle `two_point_invariant`.
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
    if series[0] != two_point_invariant(traj, g, 1):
        raise AssertionError("two-point series disagrees with the two-term "
                             "invariant at n = 1")


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
    normalization invariant is legitimate but flagged.  Raises
    AssertionError if the series' first value disagrees with the
    two-term `two_point_invariant` at n = 1.
    """
    _check_dims(traj, h)
    bad = first_recurrence_violation(traj, h)
    norm = norm_like_invariant(traj, 1)
    entries = []
    if labels is None:
        labels = [f"G{i}" for i in range(len(observables))]
    for label, g in zip(labels, observables):
        _check_dims(traj, g)
        commutes = g.commutator(h).is_zero()
        series = two_point_series(traj, g)
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
