"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 1-4 share one pool of 100 random instances (dimension <= 6,
entries bounded by 3 in each part) evolved exactly for 500 steps.
"""

import math
import random

import numpy as np
import pytest

from hamca.automaton import (
    Trajectory,
    action_evaluate,
    evolve,
    evolve_phase_space,
    step_backward,
    verify_stationarity,
)
from hamca.conservation import default_commutant_basis, symmetrized_Q, two_point_series
from hamca.gaussian import GaussianInt, GIVector, GIMatrix, HermitianIntMatrix
from hamca.multipartite import (
    InteractionTensor,
    bell_state,
    evolve_factorized,
    evolve_synchronized,
    factorizability_witness,
    leibniz_failure_demo,
    many_time_residual,
)
from hamca.sampling import (
    ContinuumSignal,
    DiscretenessScale,
    continuum_Q,
    convergence_study,
    eigenmode_phase_step,
    fit_power_law,
)
from conftest import random_gaussian_int, random_hermitian, random_vector

N_INSTANCES = 100
N_STEPS = 500


def gi(re, im=0):
    return GaussianInt(re, im)


def vec(*pairs):
    return GIVector(gi(re, im) for re, im in pairs)


def verdict(num: int, label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{tag} criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(0xACCE97)
    pool = []
    for _ in range(N_INSTANCES):
        d = rng.randint(1, 6)
        h = random_hermitian(rng, d, bound=3)
        s0 = random_vector(rng, d, bound=3)
        s1 = random_vector(rng, d, bound=3)
        pool.append((h, s0, s1, evolve(s0, s1, h, N_STEPS)))
    return pool


def test_criterion_1_exact_conservation(instances):
    checked = 0
    for h, _, _, traj in instances:
        for label, g in default_commutant_basis(h):
            series = two_point_series(traj, g)
            assert len(series) == N_STEPS + 1
            assert len({(v.re, v.im) for v in series}) == 1, label
            assert series[0].im == 0
            checked += 1
    verdict(1, "two-point invariants single-valued over 500 exact steps",
            True, f"{checked} (instance, observable) pairs, bit-exact")


def test_criterion_2_action_principle(instances):
    rng = random.Random(0xAC7101)
    for h, _, _, traj in instances:
        assert action_evaluate(traj, h).as_int == 0
        assert verify_stationarity(traj, h, deltas=(1, 2, 3)).ok
        # one +1 corruption of a random interior entry must be detected
        site = rng.randint(1, traj.last - 1)
        dof = rng.randrange(traj.dim)
        bump = GIVector([gi(1) if a == dof else gi(0) for a in range(traj.dim)])
        report = verify_stationarity(traj.replace(site, traj[site] + bump), h)
        assert not report.ok
        assert any(abs(v.site - site) <= 1 for v in report.violations)
    # exhaustive corruption sweep on one small instance, both components
    h = random_hermitian(rng, 2)
    traj = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 6)
    for site in range(1, traj.last):
        for dof in range(2):
            for comp in (gi(1), gi(0, 1)):
                bump = GIVector([comp if a == dof else gi(0) for a in range(2)])
                assert not verify_stationarity(traj.replace(site, traj[site] + bump), h).ok
    # spot-check the differencing oracle path against the fast path
    for h, _, _, traj in instances[:3]:
        prefix = Trajectory(traj.states[:8])
        fast = verify_stationarity(prefix, h, method="fast")
        direct = verify_stationarity(prefix, h, method="direct")
        assert fast.ok and direct.ok
    # and over one whole instance, clean and with one bumped slice
    h, _, _, traj = instances[0]
    site = rng.randint(1, traj.last - 1)
    bumped = traj.replace(site, traj[site] + GIVector([gi(1, 1)] * traj.dim))
    for t in (traj, bumped):
        assert verify_stationarity(t, h, method="direct") == verify_stationarity(t, h)
    assert not verify_stationarity(bumped, h).ok
    verdict(2, "action vanishes, stationarity exact, corruptions detected",
            True, f"{len(instances)} instances at 500 steps, deltas 1-3; "
            f"direct path on {len(traj)} slices at dim {traj.dim}")


def test_criterion_3_reversibility_and_superposition(instances):
    rng = random.Random(0xAC7103)
    for h, s0, s1, traj in instances:
        nxt, cur = traj[-1], traj[-2]
        for _ in range(len(traj) - 2):
            nxt, cur = cur, step_backward(nxt, cur, h)
        assert (cur, nxt) == (s0, s1)
    for h, s0, s1, traj in instances:
        d = h.dim
        t0, t1 = random_vector(rng, d), random_vector(rng, d)
        a, b = random_gaussian_int(rng), random_gaussian_int(rng)
        combo = evolve(s0.scale(a) + t0.scale(b), s1.scale(a) + t1.scale(b),
                       h, N_STEPS)
        other = evolve(t0, t1, h, N_STEPS)
        assert all(combo[n] == traj[n].scale(a) + other[n].scale(b)
                   for n in range(len(combo)))
    verdict(3, "500-step reversibility and exact seed linearity", True,
            f"{len(instances)} instances, bit-exact")


def test_criterion_4_phase_space_equivalence(instances):
    for h, s0, s1, traj in instances:
        hs, ha = h.split()
        pt = evolve_phase_space(
            tuple(z.re for z in s0), tuple(z.im for z in s0),
            tuple(z.re for z in s1), tuple(z.im for z in s1),
            hs, ha, N_STEPS)
        assert pt == traj
    verdict(4, "complex and split-form evolutions agree entrywise", True,
            f"{len(instances)} instances at 500 steps")


def test_criterion_5_sampling_fidelity(instances):
    rng = random.Random(0xAC7105)
    worst = 0.0
    for h, s0, s1, _ in instances:
        short = evolve(s0, s1, h, 30)
        l = rng.choice([0.25, 0.5, 1.0, 2.0])
        sig = ContinuumSignal.from_trajectory(short, DiscretenessScale(l))
        for window in (1, 2, 3, 8, 32):
            sig.window = window
            for n in range(len(short)):
                got = sig.eval(n * l)
                want = sig.samples[n]
                ref = max(1.0, float(np.max(np.abs(want))))
                worst = max(worst, float(np.max(np.abs(got - want))) / ref)
    verdict(5, "sample-point reconstruction fidelity for every window",
            worst <= 1e-12, f"worst relative deviation {worst:.3e}")


def test_criterion_6_finite_scale_corrections(instances):
    rng = random.Random(0xAC7106)
    # (a) exact shifted-sample density equals the discrete invariant
    worst = 0.0
    trajectories = 0
    while trajectories < 50:
        d = rng.randint(1, 3)
        h = random_hermitian(rng, d, bound=1)
        traj = evolve(random_vector(rng, d, 2), random_vector(rng, d, 2), h, 14)
        l = rng.choice([0.2, 0.5, 1.0])
        sig = ContinuumSignal.from_trajectory(traj, DiscretenessScale(l), window=16)
        for n in (1, len(traj) // 2, traj.last - 1):
            want = float(symmetrized_Q(traj, n))
            got = continuum_Q(sig, n * l, "exact-cosh")
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        trajectories += 1
    ok_a = worst <= 1e-10
    # (b) cosh-form minus quadratic expansion scales as the fourth power
    omega = 1.5
    half = 2500
    scales = [1.0 * 0.68 ** k for k in range(7)]
    diffs = []
    for l in scales:
        n = np.arange(-half, half + 1)
        samples = np.exp(-1j * omega * n * l)[:, None]
        sig = ContinuumSignal(samples, DiscretenessScale(l), window=half)
        t = half * l
        diffs.append(abs(continuum_Q(sig, t, "exact-cosh")
                         - continuum_Q(sig, t, "order-l2")))
    slope = fit_power_law(scales, diffs)
    ok_b = 3.7 <= slope <= 4.3
    verdict(6, "density matches discrete invariant; correction slope 4.0±0.3",
            ok_a and ok_b,
            f"worst match {worst:.3e} over {trajectories} runs, slope {slope:.3f}")


def test_criterion_7_dispersion_and_continuum_limit(instances):
    # (a) measured per-step phase of oscillatory eigenmodes
    energies = {0.0, 0.5, 1.0, -1.0, 2.0, -2.0, 1.9}
    for h, _, _, _ in instances:
        hm = np.array([[complex(z.re, z.im) for z in row]
                       for row in h.rows])
        for e in np.linalg.eigvalsh(hm):
            if abs(e) <= 2.0:
                energies.add(round(float(e), 12))
    worst = max(abs(eigenmode_phase_step(e) - math.asin(e / 2.0))
                for e in energies)
    ok_a = worst <= 1e-9
    # (b) scaling study against the unitary flow
    h = HermitianIntMatrix(GIMatrix([[gi(0), gi(1)], [gi(1), gi(0)]]))
    report = convergence_study(h, np.array([1.0, 0.0]), 2.0,
                               [0.4, 0.2, 0.1, 0.05])
    ok_b = report.order is not None and report.order >= 1.7
    order_txt = f"{report.order:.3f}" if report.order is not None else "no fit"
    verdict(7, "phase law matches arcsin(E/2); scaling order >= 1.7",
            ok_a and ok_b,
            f"{len(energies)} modes, worst {worst:.3e}; order {order_txt}")


def test_criterion_8_many_time_factorization():
    rng = random.Random(0xAC7108)
    cases = 0
    for _ in range(20):
        m = rng.randint(1, 3)
        hams, seeds, steps = [], [], []
        for _ in range(m):
            d = rng.randint(1, 3)
            hams.append(random_hermitian(rng, d, bound=2))
            seeds.append((random_vector(rng, d, 2), random_vector(rng, d, 2)))
            steps.append(rng.randint(2, 4))  # boxes of 4..6 slices per axis
        _, wave, _ = evolve_factorized(hams, seeds, steps)
        assert many_time_residual(wave, hams).is_zero
        cases += 1
    # nonzero interaction must break the factorized solution
    h = HermitianIntMatrix(GIMatrix([[gi(2)]]))
    _, wave, _ = evolve_factorized(
        [h, h], [(vec((1, 0)), vec((0, -1))), (vec((1, 0)), vec((0, -1)))],
        [3, 3])
    coupling = InteractionTensor((1, 1), GIMatrix([[gi(1)]]))
    res = many_time_residual(wave, [h, h], coupling)
    broke = not res.is_zero
    # and a random interacting bipartite case
    hams = [random_hermitian(rng, 2, bound=2), random_hermitian(rng, 2, bound=2)]
    _, wave2, _ = evolve_factorized(
        hams, [(random_vector(rng, 2), random_vector(rng, 2)),
               (random_vector(rng, 2), random_vector(rng, 2))], [3, 3])
    tensor = InteractionTensor((2, 2), GIMatrix.identity(4))
    broke2 = not many_time_residual(wave2, hams, tensor).is_zero
    verdict(8, "factorized residual exactly zero; interaction breaks it",
            broke and broke2, f"{cases} non-interacting instances bit-exact")


def test_criterion_9_leibniz_and_synchronization_critique():
    rng = random.Random(0xAC7109)
    for _ in range(100):
        n = rng.randint(3, 10)
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        assert leibniz_failure_demo(a, b).identity_ok
    geo = leibniz_failure_demo([1, 2, 4, 8], [1, 2, 4, 8])
    assert geo.identity_ok and 1 in geo.failure_sites
    assert geo.rows[0].product_rate == 15 and geo.rows[0].naive == 12
    # concrete non-interacting shared-clock run vs the factor product at n=2
    h1 = HermitianIntMatrix(GIMatrix([[gi(1)]]))
    psi = evolve(vec((1, 0)), vec((1, 0)), h1, 2)
    product = psi[2][0] * psi[2][0]
    sync = evolve_synchronized(vec((1, 0)), vec((1, 0)), [h1, h1], None, 2)
    assert product == gi(0, -2) and sync[2][0] == gi(1, -2)
    diverged = sync[2][0] != product
    verdict(9, "product-rule identity exact; shared clock provably deviates",
            diverged, "100 random sequence pairs; gap 1-2i vs -2i at n=2")


def test_criterion_10_entangled_pair_state():
    rng = random.Random(0xAC7110)
    h = random_hermitian(rng, 2)
    psi = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 4)
    phi = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 4)
    wave = bell_state(psi, phi)
    res_zero = many_time_residual(wave, [h, h]).is_zero
    rows = wave.bipartite_slice((2, 2))
    witness = factorizability_witness(rows)
    certified = witness.entangled and witness.verify(rows) \
        and bool(witness.minor_value)
    # every outer-product slice must come back factorizable
    products_ok = True
    for _ in range(30):
        n_r, n_c = rng.randint(1, 4), rng.randint(1, 4)
        u = [random_gaussian_int(rng, 4) for _ in range(n_r)]
        v = [random_gaussian_int(rng, 4) for _ in range(n_c)]
        slice_rows = tuple(tuple(a * b for b in v) for a in u)
        w = factorizability_witness(slice_rows)
        products_ok = products_ok and not w.entangled and w.verify(slice_rows)
    verdict(10, "pair state solves the equations and is certified entangled",
            res_zero and certified and products_ok,
            f"minor {witness.minor_value}")
