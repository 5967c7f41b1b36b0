"""Bandlimited bridge between discrete histories and continuous time.

A trajectory sampled at spacing l defines a unique bandlimited signal
(frequencies within [-pi/l, pi/l]) through the cardinal-series
reconstruction

    psi(t) = sum_n psi_n * sinc((t - n*l) / l),

truncated here to a window of samples around t.  At sample points every
kernel term is exactly 0 or 1, so evaluation there returns the stored
sample for any window size; the implementation honors those exact
kernel zeros rather than trusting sin(pi*k) in floating point.

The module also provides the conserved-density evaluations on the
continuous side (exact shifted-sample form and its small-l expansion),
the phase-advance law of single modes, a unitary reference propagator,
and the scaling study that drives the spacing to zero.

Rate convention: the two-step rule psi_{n+1} = psi_{n-1} - i*(l*H)*psi_n
with samples at t = n*l approaches the flow generated by H/2 (the
symmetric difference spans two steps), so a mode of integer eigenvalue E
advances by arcsin(E*l/2) per step against a continuum rate of E/2 per
unit time.  All comparisons in this module pair those two consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .automaton import Trajectory, _check_site
from .gaussian import HermitianIntMatrix, exact_int_text

__all__ = [
    "DiscretenessScale",
    "ContinuumSignal",
    "ReconstructedPoint",
    "ShiftMapResidual",
    "DispersionPoint",
    "ConvergencePoint",
    "ConvergenceReport",
    "samples_from_trajectory",
    "reconstruct",
    "shift_map_check",
    "continuum_Q",
    "dispersion_theta",
    "eigenmode_phase_step",
    "continuum_oracle",
    "convergence_study",
    "fit_power_law",
]

_SNAP = 1e-9  # relative distance below which t counts as a sample point


def _finite(x) -> bool:
    """`math.isfinite(x)`, False for an int past the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class DiscretenessScale:
    """Physical time per clock step; fixes the band limit pi/l."""

    l: float

    def __post_init__(self):
        if isinstance(self.l, (bool, np.bool_)) or not (_finite(self.l) and self.l > 0):
            raise ValueError("discreteness scale must be positive and finite")


def _clock(t: float, l: float) -> float:
    """t / l, the time t in clock steps; ValueError naming t unless finite."""
    u = t / l if _finite(t) else math.inf
    if not math.isfinite(u):
        with exact_int_text():
            raise ValueError(f"time {t!r} is not a finite number of clock steps of {l!r}")
    return u


def samples_from_trajectory(traj: Trajectory) -> np.ndarray:
    """Complex float array of shape (slices, dim).

    Raises OverflowError if any exact integer exceeds float range.
    """
    try:
        return np.array([list(map(complex, s.re, s.im)) for s in traj],
                        dtype=np.complex128)
    except OverflowError as exc:
        raise OverflowError(
            "trajectory values exceed float range; use a shorter history "
            "or a bounded-spectrum coupling for continuum comparisons") from exc


def _kernel_weights(n_samples: int, l: float, t: float, window: int):
    """Sample indices and cardinal-kernel weights for evaluation at t.

    Snaps to the stored sample when t is (numerically) a sample point:
    there the kernel is exactly one at that sample and exactly zero at
    every other, for any window.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    u = _clock(t, l)
    k0 = int(round(u))
    if abs(u - k0) <= _SNAP * max(1.0, abs(u)):
        if 0 <= k0 < n_samples:
            return np.array([k0]), np.array([1.0])
        return np.array([], dtype=int), np.array([])
    lo = max(0, k0 - window)
    hi = min(n_samples - 1, k0 + window)
    if lo > hi:
        return np.array([], dtype=int), np.array([])
    idx = np.arange(lo, hi + 1)
    return idx, np.sinc(u - idx)


@dataclass(frozen=True)
class ReconstructedPoint:
    values: np.ndarray
    extrapolated: bool


class ContinuumSignal:
    """Samples plus scale: a truncated cardinal-series interpolant."""

    def __init__(self, samples: np.ndarray, scale: DiscretenessScale,
                 window: int = 32):
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise ValueError("samples must be a (slices, dim) array")
        if isinstance(window, bool) or not isinstance(window, (int, np.integer)) \
                or window < 1:
            raise ValueError("window must be an integer >= 1")
        self.samples = samples
        self.scale = scale
        self.window = window

    @classmethod
    def from_trajectory(cls, traj: Trajectory, scale: DiscretenessScale,
                        window: int = 32) -> "ContinuumSignal":
        return cls(samples_from_trajectory(traj), scale, window)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return (self.samples.shape[0] - 1) * self.scale.l

    def covers(self, t: float) -> bool:
        return 0.0 <= t <= self.duration

    def eval(self, t: float) -> np.ndarray:
        idx, w = _kernel_weights(self.samples.shape[0], self.scale.l, t,
                                 self.window)
        if idx.size == 0:
            return np.zeros(self.dim, dtype=np.complex128)
        return w @ self.samples[idx]

    def second_derivative(self, t: float) -> np.ndarray:
        """Second time derivative of the truncated interpolant at t."""
        l = self.scale.l
        u = _clock(t, l)
        k0 = int(round(u))
        lo = max(0, k0 - self.window)
        hi = min(self.samples.shape[0] - 1, k0 + self.window)
        if lo > hi:
            return np.zeros(self.dim, dtype=np.complex128)
        idx = np.arange(lo, hi + 1)
        w = _sinc_dd(u - idx) / (l * l)
        return w @ self.samples[idx]


def _sinc_dd(x: np.ndarray) -> np.ndarray:
    """Second derivative of sin(pi x)/(pi x), elementwise.

    Closed form away from zero, series within |x| < 1e-3 (next omitted
    term is ~x^6, far below double precision there).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    xs = x[small]
    pi2 = math.pi * math.pi
    out[small] = (-pi2 / 3.0 + (pi2 * pi2 / 10.0) * xs * xs
                  - (pi2 ** 3 / 168.0) * xs ** 4)
    xl = x[~small]
    s = np.sinc(xl)
    out[~small] = -pi2 * s + 2.0 * (s - np.cos(math.pi * xl)) / (xl * xl)
    return out


def reconstruct(traj: Trajectory, scale: DiscretenessScale, t: float,
                window: int = 32) -> ReconstructedPoint:
    """Evaluate the truncated cardinal series of a trajectory at time t."""
    sig = ContinuumSignal.from_trajectory(traj, scale, window)
    return ReconstructedPoint(values=sig.eval(t), extrapolated=not sig.covers(t))


@dataclass(frozen=True)
class ShiftMapResidual:
    backward: float
    forward: float


def shift_map_check(traj: Trajectory, scale: DiscretenessScale, n: int,
                    window: int = 32) -> ShiftMapResidual:
    """Residual of reproducing the n-1 and n+1 samples by evaluation.

    Reconstruction at t = (n+-1)*l must return psi_{n+-1}; reports the
    max absolute deviation across dofs for each side.
    """
    _check_site(n, traj.last - 1, "site {!r} is not interior")
    sig = ContinuumSignal.from_trajectory(traj, scale, window)
    res = []
    for m in (n - 1, n + 1):
        got = sig.eval(m * scale.l)
        res.append(float(np.max(np.abs(got - sig.samples[m]))))
    return ShiftMapResidual(backward=res[0], forward=res[1])


def continuum_Q(signal: ContinuumSignal, t: float, mode: str = "exact-cosh") -> float:
    """Conserved density on the continuous side, summed over dofs.

    mode "exact-cosh": Re psi*(t) . (psi(t+l) + psi(t-l)) / 2, the exact
    shifted-sample form; at sample times it equals the discrete
    symmetrized invariant cast to float.
    mode "order-l2": |psi(t)|^2 + (l^2/2) Re psi*(t) . psi''(t), the
    small-l expansion; the two differ at fourth order in l.
    """
    l = signal.scale.l
    if mode == "exact-cosh":
        mid = signal.eval(t)
        plus = signal.eval(t + l)
        minus = signal.eval(t - l)
        return float(np.real(np.vdot(mid, plus + minus)) / 2.0)
    if mode == "order-l2":
        mid = signal.eval(t)
        dd = signal.second_derivative(t)
        return float(np.vdot(mid, mid).real + 0.5 * l * l * np.vdot(mid, dd).real)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class DispersionPoint:
    """Per-step phase advance of a mode with integer eigenvalue E.

    Oscillatory for |E| <= 2 with theta = arcsin(E/2); beyond that the
    two-step transfer map has a growing branch of modulus
    |E|/2 + sqrt(E^2/4 - 1) and the bandlimit premise fails.
    """

    energy: float
    oscillatory: bool
    theta: Optional[float]
    growth_factor: float


def dispersion_theta(energy: float) -> DispersionPoint:
    if not _finite(energy):
        with exact_int_text():
            raise ValueError(f"energy {energy!r} is not finite")
    if abs(energy) <= 2.0:
        return DispersionPoint(energy=energy, oscillatory=True,
                               theta=math.asin(energy / 2.0), growth_factor=1.0)
    g = abs(energy) / 2.0 + math.sqrt(energy * energy / 4.0 - 1.0)
    return DispersionPoint(energy=energy, oscillatory=False, theta=None,
                           growth_factor=g)


def eigenmode_phase_step(energy: float, steps: int = 256) -> float:
    """Measured per-step phase advance of a single oscillatory mode.

    Seeds the scalar two-step recurrence on its non-growing transfer
    branch (cos component from the characteristic equation, no inverse
    trig involved) and averages the observed step-to-step phase.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError("steps must be an integer >= 1")
    if not dispersion_theta(energy).oscillatory:
        raise ValueError("mode is not oscillatory")
    lam = math.sqrt(1.0 - energy * energy / 4.0) - 0.5j * energy
    c_prev, c_curr = 1.0 + 0.0j, lam
    increments = []
    for _ in range(steps):
        c_next = c_prev - 1j * energy * c_curr
        increments.append(-np.angle(c_next / c_curr))
        c_prev, c_curr = c_curr, c_next
    return float(np.mean(increments))


def _hermitian_to_array(h: HermitianIntMatrix) -> np.ndarray:
    return np.array([list(map(complex, r.re, r.im)) for r in h.rows],
                    dtype=np.complex128)


def continuum_oracle(h: HermitianIntMatrix, psi0: Sequence[complex],
                     t: float) -> np.ndarray:
    """exp(-i*H*t) psi0 by eigendecomposition; unitary to float precision."""
    if not _finite(t):
        with exact_int_text():
            raise ValueError(f"time {t!r} is not finite")
    if h.dim > 64:
        raise ValueError("oracle is limited to dimension <= 64")
    psi0 = np.asarray(psi0, dtype=np.complex128)
    if psi0.shape != (h.dim,):
        raise ValueError("state dimension does not match the matrix")
    hm = _hermitian_to_array(h)
    evals, vecs = np.linalg.eigh(hm)
    recon_err = np.max(np.abs(vecs @ np.diag(evals) @ vecs.conj().T - hm))
    if recon_err > 1e-9 * max(1.0, float(np.max(np.abs(hm)))):
        raise ArithmeticError(
            f"eigendecomposition failed to reproduce the matrix "
            f"(residual {recon_err:.3e})")
    return vecs @ (np.exp(-1j * evals * t) * (vecs.conj().T @ psi0))


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    for name, values in (("xs", xs), ("ys", ys)):
        if not all(map(_finite, values)):
            raise ValueError(f"{name} must be finite")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two points to fit a slope")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


@dataclass(frozen=True)
class ConvergencePoint:
    scale: float
    error: Optional[float]
    included: bool
    note: str = ""


@dataclass(frozen=True)
class ConvergenceReport:
    horizon: float
    psi1_rule: str
    points: tuple
    order: Optional[float]

    def to_json_obj(self) -> dict:
        """Standard JSON: a non-finite order or error is written as null."""
        return {
            "horizon": self.horizon,
            "psi1_rule": self.psi1_rule,
            "order": _finite_or_none(self.order),
            "points": [
                {"scale": p.scale, "error": _finite_or_none(p.error),
                 "included": p.included, "note": p.note}
                for p in self.points
            ],
        }


def _finite_or_none(x: Optional[float]) -> Optional[float]:
    return x if x is not None and math.isfinite(x) else None


def convergence_study(h: HermitianIntMatrix, psi0: Sequence[complex],
                      horizon: float, scales: Sequence[float],
                      psi1_rule: str = "oracle",
                      window: int = 64) -> ConvergenceReport:
    """Error of the two-step evolution against the unitary flow vs spacing.

    For each spacing l the recurrence runs in floating point with the
    scaled matrix l*H (a controlled relaxation of the integer engine;
    the exactness claims stay on the integer side), is reconstructed at
    the horizon and compared with exp(-i*H*horizon/2) psi0.  Spacings
    whose largest |eigenvalue|*l exceeds 2 leave the oscillatory regime
    and are excluded from the fit with a note.

    psi1_rule fixes the second seed slice: "oracle" takes the flow value
    at t = l (isolates the phase-advance error), "copy" repeats psi0
    (adds an O(l) seeding error; useful as a negative control).
    """
    if psi1_rule not in ("oracle", "copy"):
        raise ValueError(f"unknown psi1 rule {psi1_rule!r}")
    if not (_finite(horizon) and horizon >= 0):
        with exact_int_text():
            raise ValueError(f"horizon must be finite and >= 0, not {horizon!r}")
    scales = tuple(scales)
    for l in scales:
        if not (_finite(l) and l > 0):
            with exact_int_text():
                raise ValueError(f"scales must be finite and positive, not {l!r}")
    psi0 = np.asarray(psi0, dtype=np.complex128)
    hm = _hermitian_to_array(h)
    if psi0.shape != (h.dim,):
        raise ValueError("state dimension does not match the matrix")
    e_max = float(np.max(np.abs(np.linalg.eigvalsh(hm)))) if h.dim else 0.0
    reference = continuum_oracle(h, psi0, horizon / 2.0)
    norm0 = float(np.linalg.norm(psi0))
    if norm0 == 0:
        raise ValueError("seed state must be nonzero")
    points = []
    errors = []
    used_scales = []
    for l in scales:
        if e_max * l > 2.0:
            points.append(ConvergencePoint(
                scale=l, error=None, included=False,
                note=f"non-oscillatory: max |E|*l = {e_max * l:.3g} > 2"))
            continue
        steps = int(round(horizon / l)) + window + 2
        m = l * hm
        prev = psi0.copy()
        curr = continuum_oracle(h, psi0, l / 2.0) if psi1_rule == "oracle" \
            else psi0.copy()
        history = [prev, curr]
        for _ in range(steps):
            prev, curr = curr, prev - 1j * (m @ curr)
            history.append(curr)
        samples = np.asarray(history)
        sig = ContinuumSignal(samples, DiscretenessScale(l), window)
        err = float(np.linalg.norm(sig.eval(horizon) - reference)) / norm0
        points.append(ConvergencePoint(scale=l, error=err, included=True))
        errors.append(err)
        used_scales.append(l)
    order = None
    # a fit below the float noise floor would measure round-off, not rate
    if len(used_scales) >= 2 and all(e > 1e-13 for e in errors):
        order = fit_power_law(used_scales, errors)
    return ConvergenceReport(horizon=horizon, psi1_rule=psi1_rule,
                             points=tuple(points), order=order)
