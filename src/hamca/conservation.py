"""Discrete conserved quantities of the two-step dynamics.

For any self-adjoint integer matrix G commuting with the coupling
matrix H, the two-point correlation

    q_G(n) = psi_n^* G psi_{n-1} + psi_{n-1}^* G psi_n

takes a single integer value along every solution.  For self-adjoint G
the second term is the complex conjugate of the first, so q_G(n) is
exactly the real integer 2 Re psi_n^* G psi_{n-1}.  When [G, H] = 0
exactly, the series needs no big products per slice pair: on any
trajectory, q_G(m+1) - q_G(m) = -2 Im (G psi_m)^* E_m, where E_m is
the bracket of `automaton._bracket`, so q_G holds its value across
every site whose bracket is zero, and q_G(1) from the seeds and
q_G(m+1) from the pair (psi_{m+1}, psi_m) the checked pass keeps at
each nonzero bracket m give every value (`_derived_runs`).  A wrong
bracket value cannot reach the series; a bracket program that gets
the sites wrong shows as a failed solution verdict, or in the two-term
cross-check below.
That is how `two_point_series` serves a trajectory that carries a
checked pass (`automaton._kept_pass`) for an H that G commutes with,
and how the audit serves each commuting G.  Every other series is
direct: 2 Re (G psi_n)^* psi_{n-1} lets one product G psi_n serve both
q_G(n) and q_G(n+1), so the per-G series (`_per_g_series`) takes one
real inner product per clock index and one G-apply per two; a G that
is not self-adjoint is rejected before any series.  The audit feeds
its non-commuting observables' slice pairs to one such pass.
One report assembly turns the direct series and one checked pass
(`automaton._Window`: the solution verdict, the seeds, the brackets,
the slices kept at them and the last two slices) into the verdicts,
deriving each commuting G's series there, with the two-term form,
the independent oracle `two_point_invariant`, checked at n = 1 and
n = N on the first and last pairs for every series, derived or direct.
The library audit reads the pass kept on a stored trajectory;
`_AuditWindow` is the pass over the forward step's slices and feeds
the direct series every slice pair as the trajectory is written, so
the CLI audit holds no history but the slices at nonzero brackets, and
every series value comes from slices the pass checked itself.
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
from itertools import chain, repeat, starmap
from typing import Iterable, Iterator, Optional, Sequence

from .automaton import Trajectory, _Window, _check_dims, _check_site, _kept_pass
from .gaussian import GaussianInt, GIVector, HermitianIntMatrix, exact_int_text

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


def _pair_invariant(u: GIVector, w: GIVector, g: HermitianIntMatrix) -> GaussianInt:
    """The two-term q_G of the pair (u, w) = (psi_n, psi_{n-1})."""
    return u.inner(g.apply(w)) + w.inner(g.apply(u))


def two_point_invariant(traj: Trajectory, g: HermitianIntMatrix, n: int) -> GaussianInt:
    """psi_n^* G psi_{n-1} + psi_{n-1}^* G psi_n at clock index n (1 <= n <= N)."""
    _check_dims(traj, g)
    _check_site(n, traj.last, "index {!r} out of range 1..{}")
    return _pair_invariant(traj[n], traj[n - 1], g)


def two_point_series(traj: Trajectory, g: HermitianIntMatrix) -> list:
    """The two-point invariant at every n = 1..N as 2 Re psi_n^* G psi_{n-1}.

    Exact because G is self-adjoint (a `HermitianIntMatrix` is checked
    when built, any other G here, and ValueError rejects it otherwise):
    then psi_{n-1}^* G psi_n = conj(psi_n^* G psi_{n-1}), so the two terms
    of q_G(n) sum to twice the real part of one.  If the trajectory was
    checked (`automaton._kept_pass`) against an H with [G, H] = 0, the
    series is derived from that pass (`_derived_runs`): q_G(1) from the
    seeds plus one value per nonzero bracket, from the two slices the
    pass keeps there, exact on any trajectory.  Any
    other G, or a trajectory never checked, goes through `_per_g_series`:
    one real inner product per n and one G-apply per two (at n = 1, 3,
    5, ...).  On either path the two-term form at n = 1 and n = N must
    agree with the series (AssertionError otherwise).  Every value is real.
    """
    _check_dims(traj, g)
    _check_self_adjoint(g)
    kept = traj._swept
    if kept is not None and g.commutator(kept.h).is_zero():
        values = _expanded((GaussianInt(q, 0), k) for q, k in _derived_runs(g, kept))
    else:
        values = [GaussianInt(v, 0) for v in _stored_series([g], traj.states)[0]]
    _cross_check(values, (traj[1], traj[0]), (traj[-1], traj[-2]), g)
    return values


def _check_self_adjoint(g):
    # the 2 Re shortcut is exact only for G = G^*
    if not (isinstance(g, HermitianIntMatrix) or g.is_hermitian()):
        raise ValueError("observable is not self-adjoint")


def _split(observables: Sequence, h: HermitianIntMatrix) -> tuple:
    """(commutes, direct), once every G is checked self-adjoint: whether
    [G, H] = 0 for each G, then the Gs that do not commute, whose series
    are direct, in order."""
    for g in observables:
        _check_self_adjoint(g)
    commutes = [g.commutator(h).is_zero() for g in observables]
    return commutes, [g for g, c in zip(observables, commutes) if not c]


def _derived_runs(g: HermitianIntMatrix, window: _Window) -> Iterator[tuple]:
    """q_G(1..N) as runs (value, count), for a G with [G, H] = 0, from the
    drained `window` over psi_0 ... psi_N: q_G(1) = 2 Re (G psi_0)^* psi_1
    from its seeds, then at each nonzero bracket site m of its
    `brackets`, in site order, q_G(m+1) = 2 Re (G psi_m)^* psi_{m+1}
    from the two slices it keeps there (`stored`); q_G(m+1) is q_G(m)
    at every site whose bracket is zero.  Only where the brackets are
    nonzero is read, not their values."""
    stored = window.stored
    sites = [0, *(m for m, _ in window.brackets), window.slices - 1]
    for m, nxt in zip(sites, sites[1:]):
        yield 2 * g.apply(stored[m]).inner_re(stored[m + 1]), nxt - m


def _expanded(runs: Iterable[tuple]) -> list:
    """The series of runs (value, count), such as `_derived_runs` yields."""
    return list(chain.from_iterable(starmap(repeat, runs)))


def _cross_check(series: Sequence, first: tuple, last: tuple,
                 g: HermitianIntMatrix):
    """Compare a series with the two-term form at both ends: n = 1 from the
    pair `first` = (psi_1, psi_0), at seed size, and n = N = len(series)
    from `last` = (psi_N, psi_{N-1}), at the run's largest entries."""
    if _pair_invariant(*first, g) != series[0]:
        raise AssertionError("two-point series disagrees with the two-term "
                             "invariant at n = 1")
    if _pair_invariant(*last, g) != series[-1]:
        raise AssertionError("two-point series disagrees with the two-term "
                             f"invariant at the last index n = {len(series)}")


def _per_g_series(observables: Sequence, out: list):
    """The feed that appends q_G(n) to out[k] for the k-th G, with one
    real inner product per G and slice pair and one G-apply per G and
    two pairs fed in order.

    For self-adjoint G, q_G(n) = 2 Re psi_n^* G psi_{n-1} = 2 Re
    (G psi_n)^* psi_{n-1}.  The feed keeps (psi_m, G psi_m) from the last
    pair that applied G.  A pair whose psi_{n-1} `is` that psi_m reads
    G psi_{n-1} from it; any other pair applies G to its psi_n and keeps
    that.  Pure algebra of the bilinear form, so exact on any pairs, in
    any order, solution or not.
    """
    kept = products = None  # psi_m, and G psi_m for each G

    def feed(u: GIVector, w: GIVector):
        nonlocal kept, products
        if w is kept:
            y = u
        else:
            kept, products, y = u, [g.apply(u) for g in observables], w
        for series, gx in zip(out, products):
            series.append(2 * gx.inner_re(y))

    return feed


def _stored_series(observables: Sequence, states: Sequence) -> list:
    """Each G's q_G(1..N) as ints, from one `_per_g_series` pass over the
    stored slices `states`, or no pass when there is no G."""
    series = [[] for _ in observables]
    if observables:
        feed = _per_g_series(observables, series)
        for u, w in zip(states[1:], states):
            feed(u, w)
    return series


def _pair_norm(u: GIVector, w: GIVector) -> int:
    """2 Re u^* w: the normalization stand-in of the pair (psi_n, psi_{n-1})."""
    return 2 * u.inner_re(w)


def norm_like_invariant(traj: Trajectory, n: int) -> int:
    """2 Re psi_n^* psi_{n-1}; the normalization stand-in (G = identity)."""
    _check_site(n, traj.last, "index {!r} out of range 1..{}")
    return _pair_norm(traj[n], traj[n - 1])


def symmetrized_Q(traj: Trajectory, n: int) -> Fraction:
    """(1/2) Re psi_n^* (psi_{n+1} + psi_{n-1}) as an exact half-integer."""
    _check_site(n, traj.last - 1, "index {!r} is not interior")
    s = traj[n].inner_re(traj[n + 1] + traj[n - 1])
    return Fraction(s, 2)


def conservation_rate(traj: Trajectory, g: HermitianIntMatrix, n: int) -> GaussianInt:
    """psi_n^* G psi_dot_n + psi_dot_n^* G psi_n at interior n.

    Vanishes on solutions for commuting G; equals q_G(n+1) - q_G(n).
    """
    _check_dims(traj, g)
    _check_site(n, traj.last - 1, "index {!r} is not interior")
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
    return ConservedQuantity(label=label, values_by_n=tuple(two_point_series(traj, g)))


def default_commutant_basis(h: HermitianIntMatrix, max_power: int = 3) -> list:
    """(label, G) pairs for the powers 1, H, H^2, ..., H^max_power, each
    power one product past the one before it."""
    if type(max_power) is not int:
        raise ValueError("max_power must be a plain integer")
    if max_power < 0:
        raise ValueError("max_power must be >= 0")
    powers = [h.power(0)]
    for _ in range(max_power):
        powers.append(HermitianIntMatrix(powers[-1] @ h))
    return [(f"H^{k}" if k > 1 else ("1" if k == 0 else "H"), g)
            for k, g in enumerate(powers)]


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


def _labels(labels: Optional[Sequence[str]], observables: Sequence) -> Sequence[str]:
    if labels is None:
        return [f"G{i}" for i in range(len(observables))]
    if len(labels) != len(observables):
        raise ValueError(f"{len(labels)} labels for {len(observables)} observables")
    return labels


def _report(window: _Window, observables: Sequence, labels: Sequence[str],
            commutes: Sequence[bool], direct: Sequence) -> AuditReport:
    """The audit of the slices of a drained `window`.

    `commutes` says for each G whether [G, H] = 0 (`_split`).  A
    commuting G's series is derived (`_derived_runs`) from the window's
    seeds, brackets and the slices it keeps there; any other G's is the
    next of `direct`, its q_G(1..N) as ints from a series pass.  H, the
    solution verdict, the slice count and the pairs
    (psi_1, psi_0) and (psi_N, psi_{N-1}) come from the window.  Per G:
    the two-term cross-check at both ends, and the value or the drift.
    """
    h = window.h
    first, last = window.seeds[::-1], window.ends[::-1]
    norm = _pair_norm(*first)
    direct = iter(direct)
    entries = []
    for label, g, commutes in zip(labels, observables, commutes):
        if commutes:
            values = _expanded(_derived_runs(g, window))
        else:
            values = next(direct)
        _cross_check(values, first, last, g)
        conserved = len(set(values)) == 1
        value = GaussianInt(values[0], 0) if conserved else None
        drift = None
        # conservation_rate(n) == q(n+1) - q(n) on any trajectory, so the
        # rate vanishes at every interior n exactly when q is constant
        rate_ok = conserved if commutes else None
        if not conserved:
            drift = tuple((n, GaussianInt(v, 0)) for n, v in enumerate(values, 1))
        entries.append(AuditEntry(label=label, commutes=commutes,
                                  conserved=conserved, rate_ok=rate_ok,
                                  value=value, drift=drift))
    return AuditReport(
        dim=h.dim,
        slices=window.slices,
        solution_ok=window.first_bad is None,
        first_bad_site=window.first_bad,
        norm_value=norm,
        norm_is_zero=norm == 0,
        entries=tuple(entries),
    )


def audit_conservation(traj: Trajectory, h: HermitianIntMatrix,
                       observables: Sequence, labels: Sequence[str] = None) -> AuditReport:
    """Full conservation audit of a trajectory against a list of observables.

    Verifies the trajectory is a solution first (reported, not raised),
    then for every G: whether [G, H] = 0; for commuting G that the
    two-point invariant takes exactly one value and the per-site rate
    vanishes; for non-commuting G the observed values.  A zero
    normalization invariant is legitimate but flagged.

    The solution verdict is the checked pass kept on the trajectory
    (`automaton._kept_pass`), so no second H sweep runs.  A commuting G's
    series is derived from that pass (`_derived_runs`): q_G(1) from the
    seeds, then at each nonzero bracket one G-apply, to the slice the
    pass keeps there, and 2d big products; none on a solution.  The
    other observables' series come from one per-G series pass over the
    slice pairs (`_per_g_series`: one real inner product per G and
    slice, one G-apply per G and two slices).
    `_AuditWindow` makes the same report from a three-slice window.
    Raises ValueError if `labels` and `observables` differ in length or a
    G is not self-adjoint, and AssertionError if a series disagrees with
    the two-term `two_point_invariant` at n = 1 or at n = N.
    """
    _check_dims(traj, h)
    labels = _labels(labels, observables)
    for g in observables:
        _check_dims(traj, g)
    window = _kept_pass(traj, h)
    commutes, direct = _split(observables, h)
    return _report(window, observables, labels, commutes,
                   _stored_series(direct, traj.states))


class _AuditWindow(_Window):
    """`audit_conservation` of a slice stream, fed from the three-slice
    window that checks it.

    `drain()` (see `automaton._Window`) visits each slice pair (psi_n,
    psi_{n-1}) and feeds it to the non-commuting observables' one series
    pass (`_per_g_series`).  After it, `report()` is the audit of the
    slices it pulled; the commuting observables' series are derived
    there from the slices the window kept.
    """

    def __init__(self, slices: Iterable[GIVector], h: HermitianIntMatrix,
                 observables: Sequence, labels: Sequence[str] = None):
        super().__init__(slices, h)
        self._labels = _labels(labels, observables)
        self._observables = observables
        self._commutes, direct = _split(observables, h)
        self._series = [[] for _ in direct]
        self._feed = _per_g_series(direct, self._series) if direct else None

    def _visit(self, psi, up, e):
        if psi is not None and self._feed:
            self._feed(up, psi)

    def report(self) -> AuditReport:
        return _report(self, self._observables, self._labels, self._commutes,
                       self._series)


def _series_csv_pieces(named_series: Sequence) -> Iterator[str]:
    """`series_to_csv`'s text: the header, then one piece per label.

    Each piece is formatted with the int digit limit lifted, and the
    limit is restored before the piece is yielded.
    """
    yield "label,n,re,im\n"
    for label, series in named_series:
        with exact_int_text():
            piece = "".join(f"{label},{n},{v.re},{v.im}\n"
                            for n, v in enumerate(series, start=1))
        yield piece


@exact_int_text()
def series_to_csv(named_series: Sequence) -> str:
    """CSV rows (label, n, re, im) for labelled invariant series."""
    return "".join(_series_csv_pieces(named_series))
