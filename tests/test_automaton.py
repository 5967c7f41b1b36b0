"""Two-step dynamics: evolution, reversibility, action and stationarity."""

import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from hamca import automaton
from hamca.automaton import (
    Trajectory,
    VariationSpec,
    action_evaluate,
    discrete_variation,
    evolve,
    evolve_phase_space,
    first_recurrence_violation,
    is_solution,
    recurrence_residual,
    stationarity_variation,
    step_backward,
    step_forward,
    verify_stationarity,
)
from hamca.gaussian import (GaussianInt, GIVector, GIMatrix, HermitianIntMatrix,
                            exact_int_text)
from conftest import (COEFF, SMALL, count_applies, count_calls, hermitian_splits,
                      random_gaussian_int, random_hermitian, random_trajectory,
                      random_vector)


def gi(re, im=0):
    return GaussianInt(re, im)


def vec(*pairs):
    return GIVector(gi(re, im) for re, im in pairs)


PAULI_X = HermitianIntMatrix(GIMatrix([[gi(0), gi(1)], [gi(1), gi(0)]]))
H_TWO = HermitianIntMatrix(GIMatrix([[gi(2)]]))


def test_step_forward_examples():
    assert step_forward(vec((1, 0), (0, 0)), vec((1, 0), (0, 0)), PAULI_X) == \
        vec((1, 0), (0, -1))
    hz = HermitianIntMatrix.zeros(2)
    a = vec((3, -1), (2, 5))
    b = vec((7, 2), (0, 1))
    assert step_forward(a, b, hz) == a


def test_step_forward_dimension_mismatch():
    # both public steps, on a wrong current slice, a wrong base, or both:
    # each is named before H's step unpacks them
    right, wrong = vec((1, 0), (0, 1)), vec((1, 0))
    for step in (step_forward, step_backward):
        for base, current in ((right, wrong), (wrong, right), (wrong, wrong)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                step(base, current, PAULI_X)


def test_period_four_orbit():
    traj = evolve(vec((1, 0)), vec((0, -1)), H_TWO, 6)
    got = [s[0] for s in traj]
    expect = [gi(1), gi(0, -1), gi(-1), gi(0, 1)] * 2
    assert got == expect


def test_evolve_zero_steps_and_zero_coupling():
    s0, s1 = vec((4, 1)), vec((-2, 3))
    traj = evolve(s0, s1, HermitianIntMatrix.zeros(1), 0)
    assert list(traj) == [s0, s1]
    traj = evolve(s0, s1, HermitianIntMatrix.zeros(1), 5)
    assert list(traj) == [s0, s1, s0, s1, s0, s1, s0]


def test_step_backward_inverts_the_example():
    assert step_backward(vec((1, 0), (0, -1)), vec((1, 0), (0, 0)), PAULI_X) == \
        vec((1, 0), (0, 0))


def test_roundtrip_over_many_random_steps(rng):
    for _ in range(25):
        d = rng.randint(1, 5)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 100)
        # walk back from the last two slices to the seeds, bit-exactly
        nxt, cur = traj[-1], traj[-2]
        for n in range(len(traj) - 2, 0, -1):
            nxt, cur = cur, step_backward(nxt, cur, h)
        assert (cur, nxt) == (traj[0], traj[1])


def test_forward_backward_single_steps_are_inverse(rng):
    for _ in range(1000):
        d = rng.randint(1, 4)
        h = random_hermitian(rng, d)
        prev, curr = random_vector(rng, d), random_vector(rng, d)
        assert step_backward(step_forward(prev, curr, h), curr, h) == prev


def walked_back(slices, h):
    """Reversal by definition: step back one slice at a time to the seeds."""
    nxt, cur = slices[-1], slices[-2]
    for _ in range(len(slices) - 2):
        nxt, cur = cur, step_backward(nxt, cur, h)
    return cur, nxt


def walk_reverses(slices, h):
    return walked_back(slices, h) == (slices[0], slices[1])


def window_reverses(slices, h):
    window = automaton._EvolveWindow(slices, h)
    window.drain()
    return window.reverses()


def doubled_back(slices, h):
    return automaton._stepped_back(h, len(slices) - 2, slices[-2], slices[-1])


def bumped(slices, n, by):
    return slices[:n] + [slices[n] + by] + slices[n + 1:]


def split_hermitian(hs, ha):
    return HermitianIntMatrix([[gi(r, i) for r, i in zip(rs, ia)]
                               for rs, ia in zip(hs, ha)])


def faulty_windows(data, dim, steps, coeff):
    """A clean history of a drawn H, and windows that must not reverse:
    its last slice or one interior slice bumped, and the history checked
    against a second H."""
    h, other = (split_hermitian(*data.draw(hermitian_splits(dim, coeff)))
                for _ in range(2))
    parts = st.lists(st.tuples(SMALL, SMALL), min_size=dim, max_size=dim)
    clean = list(evolve(vec(*data.draw(parts)), vec(*data.draw(parts)), h, steps).states)
    by = vec(*[(0, 0)] * (dim - 1), data.draw(st.sampled_from([(1, 0), (0, 1)])))
    windows = [(clean, h), (bumped(clean, steps + 1, by), h), (clean, other)]
    if steps >= 1:
        windows.append((bumped(clean, data.draw(st.integers(1, steps)), by), h))
    return windows


@settings(max_examples=40)
@given(data=st.data(), dim=st.integers(1, 6), steps=st.integers(0, 300))
def test_reversal_equals_the_backward_walk(data, dim, steps):
    # entries bounded by 3: 300 steps already reach hundreds of bits
    windows = faulty_windows(data, dim, steps, SMALL)
    for slices, g in windows:
        assert doubled_back(slices, g) == walked_back(slices, g)
        assert window_reverses(slices, g) == walk_reverses(slices, g)
    assert window_reverses(*windows[0])


@settings(max_examples=40)
@given(data=st.data(), dim=st.integers(1, 4), steps=st.integers(0, 12))
def test_reversal_equals_the_backward_walk_on_large_entries(data, dim, steps):
    # the default coefficients reach 700 bits
    for slices, g in faulty_windows(data, dim, steps, COEFF):
        assert doubled_back(slices, g) == walked_back(slices, g)


TRIDIAGONAL = HermitianIntMatrix([[gi(2), gi(1), gi(0)],
                                  [gi(1), gi(2), gi(1)],
                                  [gi(0), gi(1), gi(2)]])


@pytest.mark.parametrize("doubling", [True, False])
@pytest.mark.parametrize("fault", ["corrupted step", "bumped interior slice",
                                   "bumped last slice", "another coupling"])
def test_reversal_fails_on_a_faulty_window(fault, doubling, monkeypatch):
    s0, s1 = vec((1, 0), (0, -1), (2, 1)), vec((0, 1), (1, 0), (-1, 0))
    by = vec((0, 0), (1, 1), (0, 0))
    h, clean = TRIDIAGONAL, list(evolve(s0, s1, TRIDIAGONAL, 9).states)
    if fault == "corrupted step":
        # psi_5 off by one and the recurrence run on from it
        slices = clean[:5] + list(evolve(clean[4], clean[5] + by, h, 5).states)[1:]
    elif fault == "bumped interior slice":
        # psi_{N-1}: reversal reads only the seeds and the last two slices
        slices = bumped(clean, 9, by)
    elif fault == "bumped last slice":
        slices = bumped(clean, 10, by)
    else:
        slices = clean
        h = split_hermitian([[2, 1, 0], [1, 2, 0], [0, 0, 2]], [[0] * 3] * 3)
    assert not walk_reverses(slices, h)
    monkeypatch.setattr(automaton, "_doubling_pays", lambda *args: doubling)
    stepped = count_calls(monkeypatch, automaton, "step_backward")
    assert window_reverses(clean, TRIDIAGONAL)
    assert not window_reverses(slices, h)
    assert len(stepped) == (0 if doubling else 2 * 9)


def test_a_window_of_one_slice_has_no_seeds_to_reach():
    assert not window_reverses([vec((1, 0))], H_TWO)


def test_reversal_at_the_deep_bench_size(monkeypatch):
    s0, s1 = vec((1, 2), (0, 1), (-1, 0)), vec((2, 0), (1, -1), (0, 3))
    clean = list(evolve(s0, s1, TRIDIAGONAL, 6000).states)
    assert max(abs(x).bit_length() for x in clean[-1].re + clean[-1].im) > 9000
    last = bumped(clean, 6001, vec((0, 0), (0, 0), (0, 1)))
    assert walk_reverses(clean, TRIDIAGONAL) and not walk_reverses(last, TRIDIAGONAL)
    assert not window_reverses(last, TRIDIAGONAL)
    window = automaton._EvolveWindow(clean, TRIDIAGONAL)
    window.drain()
    stepped = [count_calls(monkeypatch, automaton, name)
               for name in ("step_backward", "step_forward")]
    applied = count_applies(monkeypatch)
    assert window.reverses()
    assert stepped == [[], []]
    # per bit of N at most four products of d columns, then five
    # matrix-vector products: no apply per slice
    assert len(applied) <= 4 * 3 * (6000).bit_length() + 5


def dense_hermitian(dim, bits, seed):
    rng = random.Random(seed)
    entry = lambda: rng.choice([-1, 1]) * rng.randint(2 ** (bits - 1), 2 ** bits - 1)
    hs = [[0] * dim for _ in range(dim)]
    ha = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        hs[i][i] = entry()
        for j in range(i + 1, dim):
            hs[i][j] = hs[j][i] = entry()
            ha[i][j] = entry()
            ha[j][i] = -ha[i][j]
    return split_hermitian(hs, ha)


@pytest.mark.parametrize("h, steps, doubling", [
    (TRIDIAGONAL, 6000, True),           # the deep bench size
    (TRIDIAGONAL, 9, False),             # too few steps to repay the products
    (dense_hermitian(6, 64, 0), 300, False),   # 64-bit entries
    (dense_hermitian(16, 1, 1), 100, False),   # d^3 products outweigh the steps
], ids=["deep", "few steps", "large entries", "large dim"])
def test_reversal_takes_the_cheaper_path(h, steps, doubling, monkeypatch):
    rng = random.Random(steps)
    seeds = [vec(*[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(h.dim)])
             for _ in range(2)]
    window = automaton._EvolveWindow(automaton._evolve_slices(*seeds, h, steps), h)
    window.drain()
    assert automaton._doubling_pays(h, steps, window.ends[1]) is doubling
    stepped = count_calls(monkeypatch, automaton, "step_backward")
    assert window.reverses()
    assert len(stepped) == (0 if doubling else steps)


def test_evolution_is_linear_in_the_seeds(rng):
    for _ in range(20):
        d = rng.randint(1, 4)
        h = random_hermitian(rng, d)
        s0, s1 = random_vector(rng, d), random_vector(rng, d)
        t0, t1 = random_vector(rng, d), random_vector(rng, d)
        a, b = random_gaussian_int(rng), random_gaussian_int(rng)
        combo = evolve(s0.scale(a) + t0.scale(b), s1.scale(a) + t1.scale(b), h, 60)
        lhs = evolve(s0, s1, h, 60)
        rhs = evolve(t0, t1, h, 60)
        for n in range(len(combo)):
            assert combo[n] == lhs[n].scale(a) + rhs[n].scale(b)


def test_phase_space_example_orbit():
    pt = evolve_phase_space((1,), (0,), (0,), (-1,), ((2,),), ((0,),), 2)
    assert tuple(s.re for s in pt) == ((1,), (0,), (-1,), (0,))
    assert tuple(s.im for s in pt) == ((0,), (-1,), (0,), (1,))
    assert pt == evolve(vec((1, 0)), vec((0, -1)), H_TWO, 2)


def test_phase_space_frozen_when_couplings_vanish():
    pt = evolve_phase_space((1, 2), (0, 1), (3, 4), (1, 0),
                            ((0, 0), (0, 0)), ((0, 0), (0, 0)), 4)
    assert pt[2].re == (1, 2) and pt[3].re == (3, 4)
    assert pt[2].im == (0, 1) and pt[3].im == (1, 0)


def test_phase_space_rejects_bad_split():
    with pytest.raises(ValueError):
        evolve_phase_space((1,), (0,), (0,), (1,), ((1,),), ((1,),), 1)


def test_phase_space_matches_complex_evolution(rng):
    for _ in range(15):
        d = rng.randint(1, 5)
        h = random_hermitian(rng, d)
        hs, ha = h.split()
        s0, s1 = random_vector(rng, d), random_vector(rng, d)
        steps = 100
        traj = evolve(s0, s1, h, steps)
        pt = evolve_phase_space(
            tuple(z.re for z in s0), tuple(z.im for z in s0),
            tuple(z.re for z in s1), tuple(z.im for z in s1),
            hs, ha, steps)
        assert pt == traj


def test_recurrence_residual_flags_the_bad_site(rng):
    h = random_hermitian(rng, 3)
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 20)
    assert is_solution(traj, h)
    bumped = traj[7] + GIVector([gi(1), gi(0), gi(0)])
    corrupt = traj.replace(7, bumped)
    bad = first_recurrence_violation(corrupt, h)
    assert bad is not None and abs(bad - 7) <= 1


def test_action_zero_on_solutions(rng):
    for _ in range(20):
        d = rng.randint(1, 5)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 50)
        assert action_evaluate(traj, h).as_int == 0


def test_action_zero_on_zero_trajectory():
    h = HermitianIntMatrix(GIMatrix([[gi(1)]]))
    traj = Trajectory([GIVector([gi(0)])] * 5)
    assert action_evaluate(traj, h).as_int == 0


def test_action_on_non_solution():
    h = HermitianIntMatrix(GIMatrix([[gi(1)]]))
    traj = Trajectory([GIVector([gi(1)])] * 3)
    assert action_evaluate(traj, h).as_int == 1


def literal_action(traj, h):
    """Sum over interior n of Im<psi_n, psi_{n+1} - psi_{n-1}> + <psi_n, H psi_n>,
    on plain integer parts."""
    rows = [[(e.re, e.im) for e in row] for row in h.rows]
    total = 0
    for n in range(1, traj.last):
        psi = [(z.re, z.im) for z in traj[n]]
        up = [(z.re, z.im) for z in traj[n + 1]]
        down = [(z.re, z.im) for z in traj[n - 1]]
        for (x, y), (ur, ui), (dr, di) in zip(psi, up, down):
            # Im of conj(x + iy) * ((ur - dr) + i(ui - di))
            total += x * (ui - di) - y * (ur - dr)
        for (x, y), row in zip(psi, rows):
            for (hr, hi), (u, v) in zip(row, psi):
                # Re of conj(x + iy) * (hr + i hi) * (u + iv)
                total += x * (hr * u - hi * v) + y * (hr * v + hi * u)
    return total


@settings(max_examples=40)
@given(dim=st.integers(1, 4), slices=st.integers(3, 6),
       bits=st.sampled_from([2, 64, 600]), rng=st.randoms(use_true_random=False))
def test_action_is_the_literal_sum_off_solutions(dim, slices, bits, rng):
    # the fused summand cancels on solutions, so only non-solutions test it
    h = random_hermitian(rng, dim, 2 ** 20)
    traj = random_trajectory(rng, dim, slices, 2 ** bits)
    assume(not is_solution(traj, h))
    assert action_evaluate(traj, h).as_int == literal_action(traj, h)


def test_action_needs_three_slices():
    h = HermitianIntMatrix(GIMatrix([[gi(1)]]))
    with pytest.raises(ValueError):
        action_evaluate(Trajectory([GIVector([gi(1)])] * 2), h)


def test_discrete_variation_examples():
    square = lambda f: f * f
    assert discrete_variation(square, 3, 1) == 6
    assert discrete_variation(square, 3, 2) == 6
    assert discrete_variation(lambda f: 42, 5, 3) == 0
    assert discrete_variation(square, 3, 0) == 0
    assert discrete_variation(square, 3, -2) == 6


def test_discrete_variation_on_cubic_is_still_exact():
    # symmetric differences of integer polynomials keep only odd powers
    # of delta, so the quotient stays an integer: 3f^2 + delta^2 here
    assert discrete_variation(lambda f: f**3, 1, 2) == 7
    assert discrete_variation(lambda f: f**3, 1, 1) == 4


def test_discrete_variation_rejects_inexact_division():
    with pytest.raises(ValueError):
        discrete_variation(lambda f: 2**abs(f), 1, 1)


def test_variation_spec_validation():
    with pytest.raises(ValueError):
        VariationSpec(1, 0, "psi_re", 0)
    with pytest.raises(ValueError):
        VariationSpec(1, 0, "nonsense", 1)


@pytest.mark.parametrize("at, delta, name", [
    (3, 0.5, "delta"), (3, 1.0, "delta"), (3, True, "delta"), (3, 0.0, "delta"),
    (3.0, 1, "at"), (True, 1, "at"), ("3", 1, "at")])
def test_discrete_variation_takes_plain_ints_only(at, delta, name):
    # a float shift would return a float quotient (6.0 at delta 0.5), and a
    # float zero would take the delta == 0 convention
    with pytest.raises(ValueError, match=f"^{name} must be a plain integer"):
        discrete_variation(lambda f: f * f, at, delta)
    with pytest.raises(ValueError, match=f"^{name} must be a plain integer"):
        discrete_variation(lambda f: GaussianInt(f, 0), at, delta)


@pytest.mark.parametrize("site, dof, delta, name", [
    (2, 0, 1.5, "delta"), (2, 0, 2.0, "delta"), (2, 0, True, "delta"),
    (2.0, 0, 1, "site"), (True, 0, 1, "site"), (2, 0.0, 1, "dof"),
    (2, False, 1, "dof")])
def test_variation_spec_takes_plain_ints_only(site, dof, delta, name):
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        VariationSpec(site, dof, "psi_re", delta)


@pytest.mark.parametrize("method", ["fast", "direct"])
@pytest.mark.parametrize("deltas", [(0,), (1.5,), ("a",), (True,), (1, 2.0), (), 1],
                         ids=["zero", "float", "str", "bool", "one-float", "empty",
                              "bare-int"])
def test_stationarity_deltas_must_be_nonzero_plain_ints(method, deltas):
    # rejected before either path runs, so the report never names an unchecked
    # delta, and a check of no variation at all is never reported as ok
    traj = evolve(vec((1, 0), (0, 0)), vec((0, 1), (1, 0)), PAULI_X, 3)
    with pytest.raises(ValueError, match="^deltas must be nonzero plain integers"):
        verify_stationarity(traj, PAULI_X, deltas=deltas, method=method)


@pytest.mark.parametrize("method", ["fast", "direct"])
def test_stationarity_reads_an_iterator_of_deltas_once(method):
    traj = evolve(vec((1, 0), (0, 0)), vec((0, 1), (1, 0)), PAULI_X, 3)
    bumped = traj.replace(2, traj[2] + vec((1, 0), (0, 0)))
    report = verify_stationarity(bumped, PAULI_X, deltas=iter([1, 2]), method=method)
    assert report == verify_stationarity(bumped, PAULI_X, deltas=(1, 2), method=method)
    assert not report.ok and report.deltas == (1, 2)


def test_stationarity_clean_on_solutions(rng):
    for _ in range(10):
        d = rng.randint(1, 4)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 12)
        assert verify_stationarity(traj, h).ok


def test_stationarity_clean_on_zero_trajectory():
    h = PAULI_X
    traj = Trajectory([GIVector.zero(2)] * 6)
    assert verify_stationarity(traj, h).ok


def test_stationarity_detects_every_single_entry_bump(rng):
    d = 2
    h = random_hermitian(rng, d)
    traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 6)
    assert verify_stationarity(traj, h).ok
    for site in range(1, traj.last):
        for dof in range(d):
            for comp in range(2):
                bump = GIVector([gi(1, 0) if (a, comp) == (dof, 0)
                                 else gi(0, 1) if (a, comp) == (dof, 1)
                                 else gi(0)
                                 for a in range(d)])
                rep = verify_stationarity(traj.replace(site, traj[site] + bump), h)
                assert not rep.ok
                assert any(abs(v.site - site) <= 1 for v in rep.violations)


def test_stationarity_fast_and_direct_paths_agree(rng):
    def key(rep):
        return sorted((v.site, v.dof, v.part, v.delta, v.value.re, v.value.im)
                      for v in rep.violations)

    for _ in range(6):
        d = rng.randint(1, 3)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 6)
        corrupt = traj.replace(3, traj[3] + random_vector(rng, d, 2))
        for t in (traj, corrupt):
            fast = verify_stationarity(t, h, method="fast")
            direct = verify_stationarity(t, h, method="direct")
            assert key(fast) == key(direct)


@settings(max_examples=30)
@given(dim=st.integers(1, 3), slices=st.integers(3, 40),
       bound=st.sampled_from([1, 2 ** 70]), solution=st.booleans(),
       corrupt_ends=st.booleans(), rng=st.randoms(use_true_random=False))
def test_stationarity_paths_agree_on_random_trajectories(dim, slices, bound, solution,
                                                         corrupt_ends, rng):
    # small entries make coefficients with one zero part common; sites 1 and
    # N-1 are where the direct path's three-slice window meets the ends
    h = random_hermitian(rng, dim, 1)
    if solution:
        traj = evolve(random_vector(rng, dim, bound), random_vector(rng, dim, bound),
                      h, slices - 2)
    else:
        traj = random_trajectory(rng, dim, slices, bound)
    for site in {1, traj.last - 1} if corrupt_ends else ():
        traj = traj.replace(site, traj[site] + random_vector(rng, dim, bound))
    fast = verify_stationarity(traj, h, deltas=(1, 2), method="fast")
    direct = verify_stationarity(traj, h, deltas=(1, 2), method="direct")
    assert fast == direct


def test_variation_is_delta_independent(rng):
    for _ in range(5):
        d = rng.randint(1, 3)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 5)
        corrupt = traj.replace(2, traj[2] + random_vector(rng, d, 1))
        for t in (traj, corrupt):
            for part in ("psi_re", "psi_im", "star_re", "star_im"):
                vals = {stationarity_variation(t, h, VariationSpec(2, 0, part, delta))
                        for delta in (1, 2, 3, 4, 5)}
                assert len(vals) == 1


def test_variation_vanishes_iff_recurrence_holds(rng):
    for _ in range(10):
        d = rng.randint(1, 3)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 6)
        corrupt = traj.replace(3, traj[3] + random_vector(rng, d, 2))
        for t in (traj, corrupt):
            for site in range(1, t.last):
                residual_zero = recurrence_residual(t, h, site).is_zero()
                all_zero = all(
                    not stationarity_variation(t, h, VariationSpec(site, a, part, 1))
                    for a in range(d)
                    for part in ("psi_re", "psi_im", "star_re", "star_im"))
                assert all_zero == residual_zero


def test_direct_stationarity_differences_three_slices_at_a_time(monkeypatch, rng):
    # a variation at site m touches only the terms in slices m-1, m, m+1, so
    # no evaluation of the action reads more, and the path is linear in N
    calls = count_calls(monkeypatch, automaton, "_doubled_action")
    h = random_hermitian(rng, 2)
    traj = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 18)
    corrupt = traj.replace(9, traj[9] + vec((1, 0), (0, 1)))
    assert len(traj) == 20
    assert verify_stationarity(traj, h, method="direct").ok
    assert not verify_stationarity(corrupt, h, method="direct").ok
    # two evaluations per (site, dof, part, delta), on each history
    assert len(calls) == 2 * 18 * 2 * 4 * 3 * 2
    assert all(len(psis) <= 3 and len(stars) <= 3 for psis, stars, _ in calls)


@pytest.mark.parametrize("dof", [-1, 2, pytest.param(10 ** 5000, id="huge")])
def test_variation_names_a_dof_out_of_range(dof):
    traj = evolve(vec((1, 0), (0, 0)), vec((0, 1), (1, 0)), PAULI_X, 3)
    with exact_int_text():
        message = f"^dof {dof} out of range$"
    with pytest.raises(ValueError, match=message):
        stationarity_variation(traj, PAULI_X, VariationSpec(1, dof, "psi_re", 1))


def test_variation_rejects_a_coupling_of_the_wrong_size(rng):
    h = random_hermitian(rng, 3)
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 5)
    corrupt = traj.replace(2, traj[2] + random_vector(rng, 3, 1))
    spec = VariationSpec(1, 2, "star_re", 1)
    for d in (2, 4):
        with pytest.raises(ValueError, match=f"dimension mismatch: trajectory 3, matrix {d}"):
            stationarity_variation(corrupt, random_hermitian(rng, d), spec)


def test_trajectory_csv_roundtrip(rng):
    h = random_hermitian(rng, 3)
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 40)
    assert Trajectory.from_csv(traj.to_csv()) == traj
    text = traj.to_csv()
    assert text.splitlines()[0] == "n,alpha,re,im"
    assert "e" not in text.splitlines()[1]  # exact decimal, no exponents


def test_trajectory_json_roundtrip(rng):
    import json
    h = random_hermitian(rng, 2)
    traj = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 60)
    obj = json.loads(json.dumps(traj.to_json_obj()))
    assert Trajectory.from_json_obj(obj) == traj


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory([GIVector([gi(1)])])
    with pytest.raises(ValueError):
        Trajectory([GIVector([gi(1)]), GIVector([gi(1), gi(2)])])


@pytest.mark.parametrize("n", [True, False, -1, -4, 4, 1.0, "1", None,
                               pytest.param(10 ** 5000, id="huge")])
def test_replace_takes_only_a_clock_index(n):
    # a bool would index slice 0 or 1, and a negative int count from the end
    traj = evolve(vec((1, 0), (0, 0)), vec((0, 1), (1, 0)), PAULI_X, 2)
    state = vec((5, 0), (0, 5))
    assert [traj.replace(k, state)[k] for k in range(4)] == [state] * 4
    with exact_int_text():
        message = re.escape(f"slice {n!r} out of range 0..3")
    with pytest.raises(ValueError, match=f"^{message}$"):
        traj.replace(n, state)


def test_trajectory_csv_rejects_duplicate_rows():
    text = "n,alpha,re,im\n0,0,1,0\n1,0,2,0\n1,0,5,0\n"
    with pytest.raises(ValueError, match="repeats"):
        Trajectory.from_csv(text)


@pytest.mark.parametrize("row", ["-1,0,9,9", "0,-1,7,7"])
def test_trajectory_csv_rejects_negative_indices(row):
    text = f"n,alpha,re,im\n0,0,1,0\n1,0,2,0\n{row}\n"
    with pytest.raises(ValueError, match=f"negative index: '{row}'"):
        Trajectory.from_csv(text)


@pytest.mark.parametrize("row, other", [("0,0,1_0,0", "1,0,2,0"),
                                        ("1, 0 ,+2,0", "0,0,1,0"),
                                        ("0,0,٣,0", "1,0,2,0"),
                                        ("0,0,007,0", "1,0,2,0"),
                                        ("0,0,1,00", "1,0,2,0"),
                                        ("1,0,-0,0", "0,0,1,0"),
                                        ("01,0,2,0", "0,0,1,0"),
                                        ("1,-0,2,0", "0,0,1,0")])
def test_trajectory_csv_accepts_only_ascii_integer_cells(row, other):
    # int() would read these as 10, (1, 0, 2), 3, 7, 0, 0, 1 and 0: cells
    # the writer never emits, so each text names one trajectory only
    text = f"n,alpha,re,im\n{other}\n{row}\n"
    with pytest.raises(ValueError, match=re.escape(f"bad trajectory CSV row: {row!r}")):
        Trajectory.from_csv(text)


@pytest.mark.parametrize("dim", [True, 1.0, "1", None])
def test_trajectory_json_dim_must_be_a_plain_int(dim):
    obj = {"dim": dim, "states": [[[1, 0]], [[2, 0]]]}
    with pytest.raises(ValueError, match="dim field must be an integer"):
        Trajectory.from_json_obj(obj)
    obj["dim"] = 1
    assert Trajectory.from_json_obj(obj).dim == 1
    del obj["dim"]
    assert Trajectory.from_json_obj(obj).dim == 1


@pytest.mark.parametrize("states", [5, None, {}, "ab"],
                         ids=["int", "null", "object", "string"])
def test_trajectory_json_states_must_be_a_list(states):
    with pytest.raises(ValueError, match="bad trajectory JSON object"):
        Trajectory.from_json_obj({"dim": 1, "states": states})


# -- the checked pass kept on the trajectory -------------------------------


def every_reader(traj, h):
    """What the recurrence, action, fast stationarity and writer report."""
    return (first_recurrence_violation(traj, h), action_evaluate(traj, h).as_int,
            verify_stationarity(traj, h, method="fast"), traj.to_csv(h))


def test_the_kept_pass_belongs_to_one_coupling_object(rng):
    h = random_hermitian(rng, 3)
    other = random_hermitian(rng, 3)
    twin = HermitianIntMatrix(GIMatrix([list(row) for row in h.rows]))
    assert twin.rows == h.rows and twin is not h
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 10)
    bumped = traj.replace(4, traj[4] + vec((1, 0), (0, 0), (0, 0)))
    assert not is_solution(traj, other)
    with pytest.raises(TypeError):  # readers share the pass, so it is read-only
        automaton._kept_pass(bumped, h).brackets[0] = None
    for t in (traj, bumped):
        # h first warms the pass; each later coupling must not read h's
        for g in (h, other, twin, h, other, other):
            assert every_reader(t, g) == every_reader(Trajectory(t.states), g)
            # the kept pass is invisible to ==, repr and hashing
            assert t == Trajectory(t.states)
            assert repr(t) == repr(Trajectory(t.states))
            with pytest.raises(TypeError):
                hash(t)


def test_replace_on_a_swept_solution_is_rejected(rng):
    h = random_hermitian(rng, 3)
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 10)
    assert every_reader(traj, h)[:2] == (None, 0)
    bumped = traj.replace(5, traj[5] + vec((0, 0), (0, 1), (0, 0)))
    # the bump breaks the rule at 4 and 6, and at 5 through H psi_5
    assert not is_solution(bumped, h)
    assert first_recurrence_violation(bumped, h) == 4
    assert action_evaluate(bumped, h).as_int == literal_action(bumped, h)
    assert not verify_stationarity(bumped, h).ok
    assert Trajectory.from_csv(bumped.to_csv(h)) == bumped
    # and the original still keeps its own (clean) pass
    assert is_solution(traj, h) and verify_stationarity(traj, h).ok


@settings(max_examples=30)
@given(dim=st.integers(1, 3), slices=st.integers(3, 5),
       rng=st.randoms(use_true_random=False))
def test_a_warm_map_gives_the_oracles_answers_off_solutions(dim, slices, rng):
    h = random_hermitian(rng, dim, 1)
    other = random_hermitian(rng, dim, 1)
    traj = random_trajectory(rng, dim, slices, 2 ** 64)
    # asked on a copy, so that traj's first sweep is with `other`
    assume(not is_solution(Trajectory(traj.states), h))
    for warm in (other, h):
        is_solution(traj, warm)
        fast = verify_stationarity(traj, h, deltas=(1, 2), method="fast")
        assert fast == verify_stationarity(traj, h, deltas=(1, 2), method="direct")
        is_solution(traj, warm)
        assert action_evaluate(traj, h).as_int == literal_action(traj, h)
