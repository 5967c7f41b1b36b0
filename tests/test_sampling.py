"""Cardinal-series reconstruction, conserved densities, phase law, oracle."""

import math

import numpy as np
import pytest

from hamca import sampling
from hamca.automaton import Trajectory, evolve
from hamca.conservation import symmetrized_Q
from hamca.gaussian import GaussianInt, GIVector, GIMatrix, HermitianIntMatrix
from hamca.sampling import (
    ContinuumSignal,
    DiscretenessScale,
    _sinc_dd,
    continuum_Q,
    continuum_oracle,
    convergence_study,
    dispersion_theta,
    eigenmode_phase_step,
    fit_power_law,
    reconstruct,
    samples_from_trajectory,
    shift_map_check,
)
from conftest import random_hermitian, random_vector


def gi(re, im=0):
    return GaussianInt(re, im)


def vec(*pairs):
    return GIVector(gi(re, im) for re, im in pairs)


PAULI_X = HermitianIntMatrix(GIMatrix([[gi(0), gi(1)], [gi(1), gi(0)]]))


def spike_trajectory(length=9):
    states = [GIVector([gi(1) if n == 0 else gi(0)]) for n in range(length)]
    return Trajectory(states)


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        DiscretenessScale(0.0)


@pytest.mark.parametrize("l", [True, np.True_, math.inf, math.nan, -1.0])
def test_scale_rejects_a_bool_or_non_finite_l(l):
    with pytest.raises(ValueError, match="discreteness scale must be positive and finite"):
        DiscretenessScale(l)


@pytest.mark.parametrize("window", [2.5, 2.0, True, "3", None, 0])
def test_window_must_be_an_integer(window):
    with pytest.raises(ValueError, match="window must be an integer >= 1"):
        ContinuumSignal(np.zeros((3, 1)), DiscretenessScale(1.0), window)


def test_scale_and_window_take_numpy_scalars():
    # convergence_study passes caller-supplied spacings straight through
    for l in (2, np.float64(0.5), np.float32(0.25), np.int64(1)):
        assert DiscretenessScale(l).l == l
    sig = ContinuumSignal(np.ones((3, 1)), DiscretenessScale(np.float64(1.0)), np.int64(2))
    plain = ContinuumSignal(np.ones((3, 1)), DiscretenessScale(1.0), 2)
    assert sig.eval(0.5)[0] == plain.eval(0.5)[0]


def test_single_spike_kernel_values():
    traj = spike_trajectory()
    scale = DiscretenessScale(1.0)
    assert reconstruct(traj, scale, 0.0, window=4).values[0] == pytest.approx(1.0)
    assert reconstruct(traj, scale, 1.0, window=4).values[0] == pytest.approx(0.0, abs=1e-15)


def test_two_sample_midpoint_value():
    states = [GIVector([gi(1)]), GIVector([gi(1)])] + \
        [GIVector([gi(0)]) for _ in range(6)]
    traj = Trajectory(states)
    for window in (1, 2, 8, 32):
        got = reconstruct(traj, DiscretenessScale(1.0), 0.5, window=window).values[0]
        assert got == pytest.approx(4.0 / math.pi, rel=1e-12)


def test_sample_point_fidelity_any_window(rng):
    for _ in range(10):
        d = rng.randint(1, 3)
        h = random_hermitian(rng, d, bound=1)
        traj = evolve(random_vector(rng, d, 2), random_vector(rng, d, 2), h, 18)
        l = rng.choice([0.1, 0.25, 1.0, 2.5])
        sig = ContinuumSignal.from_trajectory(traj, DiscretenessScale(l))
        for window in (1, 2, 5, 32):
            sig.window = window
            for n in (0, 1, len(traj) // 2, traj.last):
                got = sig.eval(n * l)
                want = sig.samples[n]
                scale_ref = max(1.0, float(np.max(np.abs(want))))
                assert float(np.max(np.abs(got - want))) <= 1e-12 * scale_ref


def test_extrapolation_is_flagged():
    traj = spike_trajectory(5)
    scale = DiscretenessScale(1.0)
    assert not reconstruct(traj, scale, 2.0).extrapolated
    assert reconstruct(traj, scale, 7.5).extrapolated
    assert reconstruct(traj, scale, -1.5).extrapolated


def test_shift_map_check(rng):
    h = random_hermitian(rng, 2, bound=1)
    traj = evolve(vec((1, 0), (0, 0)), vec((0, 1), (1, 0)), h, 14)
    res = shift_map_check(traj, DiscretenessScale(0.5), 7, window=16)
    assert max(res.backward, res.forward) <= 1e-12
    const = Trajectory([vec((2, 1))] * 9)
    res = shift_map_check(const, DiscretenessScale(1.0), 4)
    assert max(res.backward, res.forward) <= 1e-12
    res = shift_map_check(spike_trajectory(), DiscretenessScale(1.0), 3)
    assert max(res.backward, res.forward) <= 1e-12


def test_sinc_second_derivative_values():
    assert _sinc_dd(np.array([0.0]))[0] == pytest.approx(-math.pi**2 / 3)
    for k in (1, 2, 3, 7):
        want = -2.0 * (-1) ** k / k**2
        assert _sinc_dd(np.array([float(k)]))[0] == pytest.approx(want, rel=1e-12)


def test_sinc_second_derivative_matches_finite_differences():
    eps = 1e-5
    for x in (0.0004, 0.3, 0.9, 1.4, 2.2, 5.7):
        fd = (np.sinc(x + eps) - 2 * np.sinc(x) + np.sinc(x - eps)) / eps**2
        assert _sinc_dd(np.array([x]))[0] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_cosh_density_matches_discrete_invariant(rng):
    checked = 0
    for _ in range(50):
        d = rng.randint(1, 3)
        h = random_hermitian(rng, d, bound=1)
        traj = evolve(random_vector(rng, d, 2), random_vector(rng, d, 2), h, 14)
        l = rng.choice([0.2, 0.7, 1.0])
        sig = ContinuumSignal.from_trajectory(traj, DiscretenessScale(l), window=16)
        for n in (1, len(traj) // 2, traj.last - 1):
            want = float(symmetrized_Q(traj, n))
            got = continuum_Q(sig, n * l, "exact-cosh")
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
            checked += 1
    assert checked >= 50


def test_zero_signal_density_is_zero():
    sig = ContinuumSignal(np.zeros((9, 2), dtype=complex), DiscretenessScale(1.0))
    assert continuum_Q(sig, 3.0, "exact-cosh") == 0.0
    assert continuum_Q(sig, 3.0, "order-l2") == 0.0
    with pytest.raises(ValueError):
        continuum_Q(sig, 3.0, "nonsense")


def test_density_difference_scales_as_fourth_power():
    omega = 1.5
    half = 2500
    diffs = []
    scales = [1.0 * 0.68 ** k for k in range(7)]  # one decade, 7 points
    for l in scales:
        n = np.arange(-half, half + 1)
        samples = np.exp(-1j * omega * n * l)[:, None]
        sig = ContinuumSignal(samples, DiscretenessScale(l), window=half)
        t = half * l  # center of the sampled stretch (index offset absorbed)
        diffs.append(abs(continuum_Q(sig, t, "exact-cosh")
                         - continuum_Q(sig, t, "order-l2")))
    slope = fit_power_law(scales, diffs)
    assert 3.7 <= slope <= 4.3
    # leading coefficient is omega^4 l^4 / 24
    assert diffs[-1] == pytest.approx(omega**4 * scales[-1] ** 4 / 24, rel=0.05)


def test_dispersion_examples():
    assert dispersion_theta(2.0).theta == pytest.approx(math.pi / 2)
    assert dispersion_theta(0.0).theta == 0.0
    p = dispersion_theta(1.0)
    assert p.oscillatory and p.theta == pytest.approx(math.asin(0.5))
    assert abs(p.theta - 0.5) == pytest.approx(1.0 / 48, rel=0.15)  # ~E^3/48 leading
    g = dispersion_theta(3.0)
    assert not g.oscillatory and g.theta is None
    assert g.growth_factor == pytest.approx(1.5 + math.sqrt(1.25))
    assert dispersion_theta(-3.0).growth_factor == g.growth_factor


NON_FINITE_SIGNAL = ContinuumSignal(np.ones((9, 2), dtype=complex), DiscretenessScale(0.5))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, name", [
    pytest.param(NON_FINITE_SIGNAL.eval, "time", id="eval"),
    pytest.param(NON_FINITE_SIGNAL.second_derivative, "time", id="second_derivative"),
    pytest.param(lambda t: continuum_Q(NON_FINITE_SIGNAL, t), "time",
                 id="continuum_Q-exact-cosh"),
    pytest.param(lambda t: continuum_Q(NON_FINITE_SIGNAL, t, "order-l2"), "time",
                 id="continuum_Q-order-l2"),
    pytest.param(dispersion_theta, "energy", id="dispersion_theta"),
    pytest.param(eigenmode_phase_step, "energy", id="eigenmode_phase_step")])
def test_the_continuum_bridge_rejects_a_non_finite_value(call, name, value):
    # its own message, naming the value, not CPython's from int(round(u))
    # and no point or phase computed from it
    with pytest.raises(ValueError, match=f"^{name} {value!r} is not (finite$|a finite)"):
        call(value)


def test_measured_phase_matches_arcsin():
    for e in (2.0, 1.0, 0.5, -1.0, 0.0, 1.9, -2.0):
        measured = eigenmode_phase_step(e)
        assert abs(measured - math.asin(e / 2.0)) <= 1e-9
    with pytest.raises(ValueError):
        eigenmode_phase_step(2.5)


def test_measured_phase_for_integer_coupling_eigenmodes(rng):
    # matrix modes: every eigenvalue of the coupling advances per the law
    for h in (PAULI_X, HermitianIntMatrix(GIMatrix([[gi(1), gi(1)], [gi(1), gi(-1)]]))):
        hm = np.array([[complex(z.re, z.im) for z in row] for row in h.rows])
        for e in np.linalg.eigvalsh(hm):
            if abs(e) <= 2:
                assert abs(eigenmode_phase_step(float(e))
                           - math.asin(float(e) / 2.0)) <= 1e-9


def test_period_four_orbit_has_quarter_turn_phase():
    traj = evolve(vec((1, 0)), vec((0, -1)),
                  HermitianIntMatrix(GIMatrix([[gi(2)]])), 6)
    samples = samples_from_trajectory(traj)[:, 0]
    steps = samples[1:] / samples[:-1]
    assert np.allclose(np.angle(steps), -math.pi / 2)


def test_oracle_identity_and_rotation():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(continuum_oracle(PAULI_X, psi0, 0.0), psi0)
    got = continuum_oracle(PAULI_X, psi0, math.pi / 2)
    assert np.allclose(got, np.array([0.0, -1.0j]), atol=1e-10)


def test_oracle_is_unitary(rng):
    for _ in range(20):
        d = rng.randint(1, 6)
        h = random_hermitian(rng, d)
        psi0 = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                         for _ in range(d)])
        t = rng.uniform(0, 5)
        out = continuum_oracle(h, psi0, t)
        assert abs(np.linalg.norm(out) - np.linalg.norm(psi0)) <= 1e-10


def test_oracle_rejects_large_dimension():
    with pytest.raises(ValueError):
        continuum_oracle(HermitianIntMatrix.identity(65), np.zeros(65), 1.0)


def test_overflow_guard_on_casting():
    h = HermitianIntMatrix(GIMatrix([[gi(10)]]))
    traj = evolve(vec((1, 0)), vec((1, 0)), h, 400)
    with pytest.raises(OverflowError):
        samples_from_trajectory(traj)


def test_convergence_order_two():
    report = convergence_study(PAULI_X, np.array([1.0, 0.0]), 2.0,
                               [0.4, 0.2, 0.1, 0.05])
    assert all(p.included for p in report.points)
    assert report.order is not None and report.order >= 1.7
    assert abs(report.order - 2.0) <= 0.3


def test_convergence_zero_horizon():
    report = convergence_study(PAULI_X, np.array([1.0, 0.0]), 0.0, [0.4, 0.2])
    assert all(p.error <= 1e-12 for p in report.points)
    assert report.order is None


def test_convergence_excludes_non_oscillatory_scales():
    h = HermitianIntMatrix(GIMatrix([[gi(3)]]))
    report = convergence_study(h, np.array([1.0]), 1.0, [1.0, 0.5])
    assert not report.points[0].included
    assert "non-oscillatory" in report.points[0].note
    assert report.points[1].included
    assert report.order is None  # single point left, nothing to fit


def test_copy_seeding_degrades_to_first_order():
    report = convergence_study(PAULI_X, np.array([1.0, 0.0]), 2.0,
                               [0.4, 0.2, 0.1, 0.05], psi1_rule="copy")
    assert report.order is not None and report.order < 1.7


def test_single_mode_phase_error_matches_dispersion_law():
    e, l, horizon = 1.0, 0.3, 3.0  # horizon divisible by l
    h = HermitianIntMatrix(GIMatrix([[gi(1)]]))
    theta = dispersion_theta(e * l).theta
    lam = math.cos(theta) - 1j * math.sin(theta)
    # pure-branch seeding, then reconstruct at the horizon sample point
    steps = int(round(horizon / l))
    prev, curr = 1.0 + 0j, lam
    history = [prev, curr]
    for _ in range(steps):
        prev, curr = curr, prev - 1j * (e * l) * curr
        history.append(curr)
    sig = ContinuumSignal(np.array(history)[:, None], DiscretenessScale(l))
    recon = sig.eval(horizon)[0]
    ref = continuum_oracle(h, np.array([1.0 + 0j]), horizon / 2.0)[0]
    measured = abs(np.angle(recon * np.conj(ref))) / horizon
    predicted = abs(theta / l - e / 2.0)
    assert abs(measured - predicted) <= 1e-9


def test_convergence_rejects_bad_input():
    with pytest.raises(ValueError):
        convergence_study(PAULI_X, np.array([1.0, 0.0]), 1.0, [0.1],
                          psi1_rule="nonsense")
    with pytest.raises(ValueError):
        convergence_study(PAULI_X, np.array([0.0, 0.0]), 1.0, [0.1])
    with pytest.raises(ValueError):
        convergence_study(PAULI_X, np.array([1.0, 0.0]), 1.0, [-0.1])


@pytest.mark.parametrize("horizon, scales, name", [
    (math.nan, [0.4, 0.2], "horizon"), (math.inf, [0.4, 0.2], "horizon"),
    (-math.inf, [0.4, 0.2], "horizon"), (1.0, [math.nan, 0.2], "scales"),
    (1.0, [0.4, math.inf], "scales"), (1.0, [0.4, 0.0], "scales")],
    ids=["nan", "inf", "-inf", "scales-nan", "scales-inf", "scales-zero"])
def test_convergence_rejects_a_non_finite_horizon_or_scale(monkeypatch, horizon, scales,
                                                           name):
    # rejected by name before any numpy call: with numpy taken away, a
    # check made later would fail on the missing module instead
    monkeypatch.setattr(sampling, "np", None)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        convergence_study(PAULI_X, [1.0, 0.0], horizon, scales)
