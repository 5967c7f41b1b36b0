"""Two-point invariants, the symmetrized variant, and the audit."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hamca import conservation
from hamca.automaton import (Trajectory, VariationSpec, evolve, is_solution,
                             recurrence_residual, stationarity_variation)
from hamca.conservation import (
    audit_conservation,
    conservation_rate,
    conserved_quantity,
    default_commutant_basis,
    norm_like_invariant,
    series_to_csv,
    symmetrized_Q,
    two_point_invariant,
    two_point_series,
)
from hamca.gaussian import GaussianInt, GIVector, GIMatrix, HermitianIntMatrix
from hamca.sampling import DiscretenessScale, shift_map_check
from conftest import (count_applies, count_calls, random_hermitian, random_trajectory,
                      random_vector)


def gi(re, im=0):
    return GaussianInt(re, im)


def vec(*pairs):
    return GIVector(gi(re, im) for re, im in pairs)


PAULI_X = HermitianIntMatrix(GIMatrix([[gi(0), gi(1)], [gi(1), gi(0)]]))
PAULI_Z = HermitianIntMatrix(GIMatrix([[gi(1), gi(0)], [gi(0), gi(-1)]]))
H_TWO = HermitianIntMatrix(GIMatrix([[gi(2)]]))


def tilted(g):
    """g + diag(1, 0, ..., 0).  For a g that commutes with H, this still
    commutes only if H's first row is zero off the diagonal, so it moves g
    off the derived path onto a series pass."""
    d = g.dim
    return HermitianIntMatrix(g + GIMatrix([[gi(int(a == b == 0)) for b in range(d)]
                                            for a in range(d)]))


def test_two_point_identity_example():
    traj = Trajectory([vec((1, 0), (0, 0)), vec((1, 0), (0, 0))])
    assert two_point_invariant(traj, HermitianIntMatrix.identity(2), 1) == gi(2)


def test_two_point_on_the_flip_run():
    traj = evolve(vec((1, 0), (0, 0)), vec((1, 0), (0, 0)), PAULI_X, 1)
    ident = HermitianIntMatrix.identity(2)
    assert traj[2] == vec((1, 0), (0, -1))
    assert two_point_invariant(traj, ident, 2) == gi(2)
    assert two_point_invariant(traj, ident, 1) == gi(2)


def test_two_point_zero_matrix():
    traj = evolve(vec((2, 1), (3, -1)), vec((0, 2), (1, 1)), PAULI_X, 10)
    zero = HermitianIntMatrix.zeros(2)
    assert all(v == gi(0) for v in two_point_series(traj, zero))


@settings(max_examples=40)
@given(dim=st.integers(1, 4), slices=st.integers(2, 7),
       observable=st.sampled_from(["power", "polynomial", "random"]),
       bits=st.sampled_from([2, 64, 600]), rng=st.randoms(use_true_random=False))
def test_two_point_series_is_the_two_term_invariant(dim, slices, observable, bits, rng):
    # non-solutions only, so conservation cannot hide an error; slice
    # counts of both parities, so the series ends on a fresh G-apply or on
    # a reused one
    h = random_hermitian(rng, dim)
    traj = random_trajectory(rng, dim, slices, 2 ** bits)
    if observable == "power":
        g = h.power(rng.randint(0, 3))
    elif observable == "polynomial":
        g = HermitianIntMatrix(GIMatrix.identity(dim).scale(rng.randint(-5, 5))
                               + h.scale(rng.randint(-5, 5))
                               + h.power(2).scale(rng.randint(-5, 5)))
    else:
        g = random_hermitian(rng, dim, 2 ** 20)
    # two slices have no interior site, so no recurrence to violate
    assume(slices == 2 or not is_solution(traj, h))
    assert two_point_series(traj, g) == [two_point_invariant(traj, g, n)
                                         for n in range(1, slices)]


@settings(max_examples=80)
@given(dim=st.integers(1, 4), slices=st.integers(2, 8),
       observable=st.sampled_from(["zero", "identity", "power", "polynomial",
                                   "noncommuting"]),
       bits=st.sampled_from([2, 64, 620]), rng=st.randoms(use_true_random=False))
def test_the_derived_series_is_the_direct_one(dim, slices, observable, bits, rng):
    # random slices, almost never a solution: a G that commutes with the H
    # of the kept pass gets its series from q_G(1) and the brackets, and
    # any other G the direct series, in the library and the window alike
    h = random_hermitian(rng, dim)
    traj = random_trajectory(rng, dim, slices, 2 ** bits)
    if observable == "zero":
        g = HermitianIntMatrix.zeros(dim)
    elif observable == "identity":
        g = HermitianIntMatrix.identity(dim)
    elif observable == "power":
        g = h.power(rng.randint(1, 4))
    elif observable == "polynomial":
        g = HermitianIntMatrix(GIMatrix.identity(dim).scale(rng.randint(-5, 5))
                               + h.scale(rng.randint(-5, 5))
                               + h.power(3).scale(rng.randint(-5, 5)))
    else:
        g = random_hermitian(rng, dim, 2 ** 20)
    commutes = g.commutator(h).is_zero()
    if observable == "noncommuting":
        assume(not commutes)  # a random G may commute by chance, as at d = 1
    else:
        assert commutes
    direct = two_point_series(traj, g)  # no pass is kept on traj yet
    # two slices have no interior site, so no recurrence to violate
    assume(not is_solution(traj, h) or slices == 2)
    with pytest.MonkeyPatch.context() as m:
        per_g = count_calls(m, conservation, "_per_g_series")
        assert two_point_series(traj, g) == direct
        assert (per_g == []) == commutes
        report = audit_conservation(traj, h, [g])
        window = conservation._AuditWindow(iter(traj.states), h, [g])
        window.drain()
        assert window.report() == report
    entry, = report.entries
    assert entry.commutes == commutes
    assert (entry.value,) == tuple(set(direct)) if entry.conserved else \
        entry.drift == tuple(enumerate(direct, 1))


@pytest.mark.parametrize("steps", [10, 200])
@pytest.mark.parametrize("corrupted", [False, True], ids=["solution", "corrupted"])
def test_a_checked_trajectory_derives_each_basis_series(rng, monkeypatch, steps,
                                                        corrupted):
    # the G-applies of each basis series do not grow with the steps: d in
    # the commutator's G @ H, one for q_G(1), four in the two-term
    # cross-checks at n = 1 and n = N, and one per nonzero bracket
    d = 4
    h = random_hermitian(rng, d)
    traj = evolve(random_vector(rng, d), random_vector(rng, d), h, steps)
    if corrupted:
        traj = traj.replace(5, traj[5] + vec((1, 0), (0, 0), (0, 1), (0, 0)))
    assert is_solution(traj, h) != corrupted
    brackets = len(conservation._kept_pass(traj, h).brackets)
    assert brackets == (3 if corrupted else 0)
    per_g = count_calls(monkeypatch, conservation, "_per_g_series")
    applied = count_calls(monkeypatch, GIMatrix, "apply")
    for _, g in default_commutant_basis(h):
        applied.clear()
        series = two_point_series(traj, g)
        assert per_g == []
        assert sum(m is g for m, _ in applied) == d + 5 + brackets
        assert len(series) == traj.last
        assert series[0] == two_point_invariant(traj, g, 1)
        assert series[-1] == two_point_invariant(traj, g, traj.last)


def test_two_point_index_bounds():
    traj = Trajectory([vec((1, 0)), vec((1, 0))])
    ident = HermitianIntMatrix.identity(1)
    with pytest.raises(ValueError):
        two_point_invariant(traj, ident, 0)
    with pytest.raises(ValueError):
        two_point_invariant(traj, ident, 2)


def test_norm_like_examples():
    traj = Trajectory([vec((1, 0), (0, 0)), vec((1, 0), (1, 0))])
    assert norm_like_invariant(traj, 1) == 2
    orth = Trajectory([vec((1, 0), (0, 0)), vec((0, 0), (1, 0))])
    assert norm_like_invariant(orth, 1) == 0  # legitimate zero; audit flags it
    same = Trajectory([vec((1, 0)), vec((1, 0))])
    assert norm_like_invariant(same, 1) == 2


def test_symmetrized_on_the_period_four_orbit():
    traj = evolve(vec((1, 0)), vec((0, -1)), H_TWO, 2)
    assert symmetrized_Q(traj, 1) == 0
    assert symmetrized_Q(traj, 2) == 0


def test_symmetrized_constant_trajectory():
    a = gi(2, -1)
    traj = Trajectory([GIVector([a])] * 3)
    assert symmetrized_Q(traj, 1) == a.norm2()
    zero = Trajectory([GIVector.zero(2)] * 3)
    assert symmetrized_Q(zero, 1) == 0


def test_symmetrized_is_exact_half_integer():
    traj = Trajectory([vec((1, 0)), vec((1, 0)), vec((0, 0))])
    q = symmetrized_Q(traj, 1)
    assert q == Fraction(1, 2)


def test_symmetrized_bookkeeping_identity(rng):
    # 4*Q(n) == q_1(n) + q_1(n+1) on any history; Q == q_1/2 on solutions
    for _ in range(10):
        d = rng.randint(1, 4)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 30)
        for n in range(1, traj.last):
            assert 4 * symmetrized_Q(traj, n) == \
                norm_like_invariant(traj, n) + norm_like_invariant(traj, n + 1)
            assert symmetrized_Q(traj, n) == Fraction(norm_like_invariant(traj, 1), 2)


def test_symmetrized_rejects_boundary():
    traj = Trajectory([vec((1, 0)), vec((1, 0)), vec((0, 0))])
    with pytest.raises(ValueError):
        symmetrized_Q(traj, 0)
    with pytest.raises(ValueError):
        symmetrized_Q(traj, 2)


def test_conserved_exactly_for_powers_of_the_coupling(rng):
    for _ in range(30):
        d = rng.randint(1, 5)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 200)
        for label, g in default_commutant_basis(h):
            series = two_point_series(traj, g)
            assert len({(v.re, v.im) for v in series}) == 1, label
            assert all(v.im == 0 for v in series)


def test_conserved_for_integer_polynomials_in_the_coupling(rng):
    # any integer polynomial in the coupling commutes with it
    for _ in range(10):
        d = rng.randint(1, 4)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 80)
        poly = (h @ h).scale(3) - h.scale(2) + GIMatrix.identity(d).scale(5)
        g = HermitianIntMatrix(poly)
        assert g.commutator(h).is_zero()
        series = two_point_series(traj, g)
        assert len({(v.re, v.im) for v in series}) == 1


def test_rate_vanishes_for_commuting_observables(rng):
    for _ in range(10):
        d = rng.randint(1, 4)
        h = random_hermitian(rng, d)
        traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 40)
        for _, g in default_commutant_basis(h):
            for n in range(1, traj.last):
                assert conservation_rate(traj, g, n) == gi(0)


def test_rate_equals_series_step(rng):
    h = random_hermitian(rng, 3)
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 20)
    g = HermitianIntMatrix(GIMatrix([[gi(1), gi(0), gi(0)],
                                     [gi(0), gi(0), gi(0)],
                                     [gi(0), gi(0), gi(0)]]))
    series = two_point_series(traj, g)
    for n in range(1, traj.last):
        assert conservation_rate(traj, g, n) == series[n] - series[n - 1]


def test_shift_invariance_both_forms(rng):
    # the (n, n-1) and (n+1, n) expressions agree along solutions
    h = random_hermitian(rng, 3)
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 50)
    for _, g in default_commutant_basis(h):
        series = two_point_series(traj, g)
        assert all(v == series[0] for v in series)


def test_noncommuting_observable_drifts():
    traj = evolve(vec((1, 0), (0, 0)), vec((1, 0), (0, 0)), PAULI_X, 3)
    series = two_point_series(traj, PAULI_Z)
    assert [v.re for v in series[:3]] == [2, 2, -2]
    report = audit_conservation(traj, PAULI_X, [PAULI_Z], ["z"])
    entry = report.entries[0]
    assert not entry.commutes
    assert not entry.conserved
    assert entry.drift is not None and entry.drift[0][0] == 1


def test_audit_on_solution(rng):
    d = 3
    h = random_hermitian(rng, d)
    traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 60)
    basis = default_commutant_basis(h)
    report = audit_conservation(traj, h, [g for _, g in basis],
                                [l for l, _ in basis])
    assert report.solution_ok
    assert all(e.conserved for e in report.entries if e.commutes)
    for e in report.entries:
        assert e.commutes and e.conserved and e.rate_ok
        assert e.value is not None and e.value.im == 0


def test_audit_rate_verdict_matches_the_rate_on_a_corrupted_solution(rng):
    d = 3
    h = random_hermitian(rng, d)
    traj = evolve(random_vector(rng, d), random_vector(rng, d), h, 30)
    corrupt = traj.replace(12, traj[12] + vec((1, 0), (0, 1), (0, 0)))
    basis = default_commutant_basis(h)
    report = audit_conservation(corrupt, h, [g for _, g in basis],
                                [l for l, _ in basis])
    assert any(e.rate_ok is False for e in report.entries)
    for e, (_, g) in zip(report.entries, basis):
        assert e.commutes
        assert e.rate_ok == all(not conservation_rate(corrupt, g, n)
                                for n in range(1, corrupt.last))


def test_audit_zero_trajectory():
    traj = Trajectory([GIVector.zero(2)] * 8)
    report = audit_conservation(traj, PAULI_X, [HermitianIntMatrix.identity(2)], ["1"])
    assert report.solution_ok
    assert report.norm_is_zero
    assert report.entries[0].conserved and report.entries[0].value == gi(0)


def test_audit_flags_non_solutions(rng):
    h = random_hermitian(rng, 2)
    traj = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 10)
    corrupt = traj.replace(4, traj[4] + vec((1, 0), (0, 0)))
    report = audit_conservation(corrupt, h, [h], ["H"])
    assert not report.solution_ok
    assert report.first_bad_site is not None


def test_audit_json_shape(rng):
    import json
    h = random_hermitian(rng, 2)
    traj = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 10)
    basis = default_commutant_basis(h)
    report = audit_conservation(traj, h, [g for _, g in basis], [l for l, _ in basis])
    obj = json.loads(json.dumps(report.to_json_obj()))
    assert obj["solution_ok"] is True
    assert {e["label"] for e in obj["observables"]} == {"1", "H", "H^2", "H^3"}
    for e in obj["observables"]:
        assert e["commutes"] and e["conserved"]
        assert isinstance(e["value"], list)


def test_conserved_quantity_series(rng):
    h = random_hermitian(rng, 3)
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 25)
    q = conserved_quantity(traj, h, "H")
    assert q.constant and len(q.values_by_n) == traj.last
    drifting = conserved_quantity(
        evolve(vec((1, 0), (0, 0)), vec((1, 0), (0, 0)), PAULI_X, 5),
        PAULI_Z, "z")
    assert not drifting.constant


def test_series_csv_format():
    series = [("1", [gi(2), gi(2)]), ("H", [gi(0), gi(0)])]
    text = series_to_csv(series)
    lines = text.strip().splitlines()
    assert lines[0] == "label,n,re,im"
    assert lines[1] == "1,1,2,0"
    assert lines[-1] == "H,2,0,0"


def test_the_two_term_cross_check_fires_on_disagreement(rng, monkeypatch):
    h = random_hermitian(rng, 2)
    traj = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 6)
    ident = HermitianIntMatrix.identity(2)
    good = two_point_invariant(traj, ident, 1)
    monkeypatch.setattr(conservation, "_pair_invariant",
                        lambda u, w, g: good + gi(2))
    with pytest.raises(AssertionError, match="two-term"):
        audit_conservation(traj, h, [ident])
    with pytest.raises(AssertionError, match="two-term"):
        conserved_quantity(traj, ident, "1")


def test_the_cross_check_reaches_the_last_value(rng, monkeypatch):
    h = random_hermitian(rng, 2)
    traj = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 6)
    basis = [g for _, g in default_commutant_basis(h)]

    def corrupt_last(factory):
        def corrupted(source, out):
            feed = factory(source, out)

            def bumped(u, w):
                feed(u, w)
                if u is traj[-1]:
                    out[-1][-1] += 2
            return bumped
        return corrupted

    # the basis commutes with H, so its series is derived from the checked
    # pass; the basis tilted by diag(1, 0) does not, and takes the per-G
    # series, all four tilts in one pass or one alone
    tilts = [tilted(g) for g in basis]
    assert not any(g.commutator(h).is_zero() for g in tilts)
    for observables in (tilts, tilts[1:2]):
        with monkeypatch.context() as m:
            m.setattr(conservation, "_per_g_series",
                      corrupt_last(conservation._per_g_series))
            with pytest.raises(AssertionError, match=f"last index n = {traj.last}"):
                audit_conservation(traj, h, observables)

    derived_runs = conservation._derived_runs

    def bumped_last(*args):
        # the same runs, with the value at n = N alone raised by 2
        *runs, (q, k) = derived_runs(*args)
        return [*runs, (q, k - 1), (q + 2, 1)]

    monkeypatch.setattr(conservation, "_derived_runs", bumped_last)
    for call in (lambda: audit_conservation(traj, h, basis),
                 lambda: two_point_series(traj, basis[2])):
        with pytest.raises(AssertionError, match=f"last index n = {traj.last}"):
            call()


@pytest.mark.parametrize("labels, count", [(["a"], 2), (["a", "b", "c"], 2)])
def test_audit_rejects_labels_that_do_not_match_the_observables(rng, labels, count):
    h = random_hermitian(rng, 2)
    traj = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 4)
    with pytest.raises(ValueError, match=f"{len(labels)} labels for {count} observables"):
        audit_conservation(traj, h, [h.power(k) for k in range(count)], labels)


def _observable(rng, kind, dim, bound=4):
    """A self-adjoint G with the named nonzero pattern."""
    if kind == "identity":
        return HermitianIntMatrix.identity(dim)
    if kind == "zero":
        return HermitianIntMatrix.zeros(dim)
    rows = [[gi(0)] * dim for _ in range(dim)]
    for a in range(dim):
        rows[a][a] = gi(rng.randint(-bound, bound))
        for b in range(a + 1, dim):
            if kind == "sparse" and rng.random() < 0.7:
                continue
            re = 0 if kind == "imaginary" else rng.randint(-bound, bound)
            im = 0 if kind == "real" else rng.randint(-bound, bound)
            rows[a][b], rows[b][a] = gi(re, im), gi(re, -im)
    return HermitianIntMatrix(rows)


def fed(feed, traj):
    """`feed` handed every slice pair (psi_n, psi_{n-1}) of `traj`, in order."""
    for u, w in zip(traj.states[1:], traj.states):
        feed(u, w)


@settings(max_examples=60)
@given(dim=st.integers(1, 6), slices=st.integers(2, 7),
       kinds=st.lists(st.sampled_from(["complex", "real", "imaginary", "zero",
                                       "identity", "sparse"]), min_size=1, max_size=6),
       solution=st.booleans(), bits=st.sampled_from([2, 64, 620]),
       rng=st.randoms(use_true_random=False))
def test_the_audit_direct_series_is_the_two_point_series(dim, slices, kinds, solution,
                                                        bits, rng):
    h = random_hermitian(rng, dim)
    if solution:
        traj = evolve(random_vector(rng, dim, 2 ** bits),
                      random_vector(rng, dim, 2 ** bits), h, slices - 2)
    else:
        traj = random_trajectory(rng, dim, slices, 2 ** bits)
    observables = [_observable(rng, kind, dim) for kind in kinds]
    want = [[v.re for v in two_point_series(traj, g)] for g in observables]
    commutes = [g.commutator(h).is_zero() for g in observables]
    # whatever the nonzero patterns, the observables that do not commute
    # with H take one per-G series pass, and it is each G's series
    with pytest.MonkeyPatch.context() as m:
        per_g = count_calls(m, conservation, "_per_g_series")
        report = audit_conservation(traj, h, observables)
    if all(commutes):
        assert per_g == []
    else:
        (passed, series), = per_g
        assert [id(g) for g in passed] == \
            [id(g) for g, c in zip(observables, commutes) if not c]
        assert series == [w for w, c in zip(want, commutes) if not c]
    assert [[v.re for _, v in e.drift] if e.drift else [e.value.re] * (slices - 1)
            for e in report.entries] == want


@pytest.mark.parametrize("steps", range(0, 7))
def test_the_per_g_series_applies_each_g_once_per_two_values(rng, monkeypatch, steps):
    # N = steps + 1 values; q_G(n) at odd n applies G to psi_n, and the
    # product serves q_G(n+1) as well
    h = random_hermitian(rng, 6)
    traj = evolve(random_vector(rng, 6), random_vector(rng, 6), h, steps)
    n = traj.last
    dense = HermitianIntMatrix([[gi(a + 1) if a == b else gi(a + b + 1, b - a)
                                 for b in range(6)] for a in range(6)])
    # H^2 tilted by diag(1, 0, ..., 0) does not commute with H, so the
    # audit gives it a series pass, as it does the dense G
    square = tilted(h.power(2))
    assert not square.commutator(h).is_zero() and not dense.commutator(h).is_zero()
    want = {id(g): [v.re for v in two_point_series(traj, g)] for g in (square, dense)}
    per_g = count_calls(monkeypatch, conservation, "_per_g_series")
    applied = count_applies(monkeypatch)
    # and the two-term cross-check applies G to psi_0 and psi_1, then to
    # psi_{N-1} and psi_N
    for g in (h, dense):
        applied.clear()
        two_point_series(traj, g)
        assert [v for m, v, *_ in applied if m is g] == \
            list(traj.states[1::2]) + [traj[0], traj[1], traj[-2], traj[-1]]
        assert len(applied) == (n + 1) // 2 + 4
    # the audit's per-G path: one G-apply per G and two values, besides
    # the two-term cross-checks' own four per G
    for observables in ([dense], [square, dense]):
        series = [[] for _ in observables]
        feed = conservation._per_g_series(observables, series)
        applied.clear()
        fed(feed, traj)
        assert len(applied) == len(observables) * ((n + 1) // 2)
        assert series == [want[id(g)] for g in observables]
        applied.clear()
        per_g.clear()
        audit_conservation(traj, h, observables)
        assert len(per_g) == 1
        slices, ids = {id(s) for s in traj}, {id(g) for g in observables}
        assert sum(id(m) in ids and id(v) in slices for m, v, *_ in applied) == \
            len(observables) * ((n + 1) // 2 + 4)


@settings(max_examples=40)
@given(dim=st.integers(1, 4), slices=st.integers(2, 7), count=st.integers(1, 12),
       bits=st.sampled_from([2, 64, 600]), rng=st.randoms(use_true_random=False))
def test_the_per_g_series_is_exact_on_pairs_out_of_order(dim, slices, count, bits, rng):
    # any pairs, repeated, reversed or unrelated: a kept G psi_m serves only
    # a pair whose second slice is that very psi_m
    traj = random_trajectory(rng, dim, slices, 2 ** bits)
    observables = [random_hermitian(rng, dim), HermitianIntMatrix.identity(dim),
                   random_hermitian(rng, dim, 2 ** 20)]
    pairs = [(rng.choice(traj.states), rng.choice(traj.states)) for _ in range(count)]
    if rng.random() < 0.5:
        n = rng.randint(1, traj.last)
        pairs += [(traj[n], traj[n - 1]), (traj[n - 1], traj[n])]
    series = [[] for _ in observables]
    feed = conservation._per_g_series(observables, series)
    for u, w in pairs:
        feed(u, w)
    assert series == [[conservation._pair_invariant(u, w, g).re for u, w in pairs]
                      for g in observables]


def test_the_audit_feeds_only_the_non_commuting_observables_to_one_pass(rng,
                                                                        monkeypatch):
    per_g = count_calls(monkeypatch, conservation, "_per_g_series")
    applied = count_applies(monkeypatch)

    def audited(traj, h, observables):
        """Check the audit's series pass and its G-applies to the slices:
        a commuting G applies for q_G(1) and the two-term cross-checks' two
        at n = 1 and two at n = N, and the others take one per-G series
        pass holding exactly them, with one apply per two values besides
        the cross-checks' four."""
        commutes = [g.commutator(h).is_zero() for g in observables]
        slices, ids = {id(s) for s in traj}, {id(g) for g in observables}
        applied.clear()
        per_g.clear()
        audit_conservation(traj, h, observables)
        if all(commutes):
            assert per_g == []
        else:
            (passed, _), = per_g
            assert [id(g) for g in passed] == \
                [id(g) for g, c in zip(observables, commutes) if not c]
        assert sum(id(m) in ids and id(v) in slices for m, v, *_ in applied) == \
            sum(5 if c else (traj.last + 1) // 2 + 4 for c in commutes)
        return commutes

    # the default basis of a real tridiagonal H commutes with it, and the
    # basis tilted by diag(1, 0, 0) does not
    h = HermitianIntMatrix([[gi(1), gi(1), gi(0)], [gi(1), gi(0), gi(1)],
                            [gi(0), gi(1), gi(-1)]])
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 40)
    basis = [g for _, g in default_commutant_basis(h)]
    tilts = [tilted(g) for g in basis]
    assert all(audited(traj, h, basis))
    assert not any(audited(traj, h, tilts))
    assert audited(traj, h, basis + tilts) == [True] * 4 + [False] * 4
    # two dense real G at d = 3, and one dense complex G at d = 6
    tie = [HermitianIntMatrix([[gi(k + a + b) for b in range(3)] for a in range(3)])
           for k in (1, 2)]
    assert not any(audited(traj, h, tie))
    h6 = random_hermitian(rng, 6)
    g6 = HermitianIntMatrix([[gi(a + 1) if a == b else gi(a + b + 1, b - a)
                              for b in range(6)] for a in range(6)])
    traj6 = evolve(random_vector(rng, 6), random_vector(rng, 6), h6, 10)
    assert audited(traj6, h6, [g6]) == [False]


def site_readers(traj):
    """(reader of site n, first site past its range, its message there)."""
    end = traj.last
    scale = DiscretenessScale(1.0)
    return [
        (lambda n: recurrence_residual(traj, PAULI_X, n), end,
         f"site {end} is not interior"),
        (lambda n: two_point_invariant(traj, PAULI_Z, n), end + 1,
         f"index {end + 1} out of range 1..{end}"),
        (lambda n: norm_like_invariant(traj, n), end + 1,
         f"index {end + 1} out of range 1..{end}"),
        (lambda n: symmetrized_Q(traj, n), end, f"index {end} is not interior"),
        (lambda n: conservation_rate(traj, PAULI_Z, n), end,
         f"index {end} is not interior"),
        (lambda n: shift_map_check(traj, scale, n), end, f"site {end} is not interior"),
        (lambda n: stationarity_variation(traj, PAULI_X, VariationSpec(n, 0, "psi_re", 1)),
         end, f"variation site {end} is not interior"),
    ]


@pytest.mark.parametrize("bad", [True, 1.0, "1", None])
def test_site_indices_are_plain_ints(bad):
    traj = evolve(vec((1, 0), (0, 0)), vec((0, 0), (1, 1)), PAULI_X, 3)
    for read, past, message in site_readers(traj):
        read(1)
        for n in (0, past):
            with pytest.raises(ValueError, match=re.escape(message) if n else None):
                read(n)
        # named past the int digit limit too
        with pytest.raises(ValueError, match="is not interior|out of range"):
            read(10 ** 5000)
        with pytest.raises(ValueError):
            read(bad)


def test_a_non_self_adjoint_observable_is_rejected_before_any_series():
    traj = evolve(vec((1, 0), (0, 0)), vec((0, 0), (1, 1)), PAULI_X, 3)
    nilpotent = GIMatrix([[0, 1], [0, 0]])
    for call in (lambda: two_point_series(traj, nilpotent),
                 lambda: conserved_quantity(traj, nilpotent, "N"),
                 lambda: audit_conservation(traj, PAULI_X, [PAULI_Z, nilpotent])):
        with pytest.raises(ValueError, match="observable is not self-adjoint"):
            call()
    # a self-adjoint G built as a plain GIMatrix takes the same shortcut
    plain_z = GIMatrix(PAULI_Z.rows)
    assert two_point_series(traj, plain_z) == two_point_series(traj, PAULI_Z)
    assert (audit_conservation(traj, PAULI_X, [plain_z])
            == audit_conservation(traj, PAULI_X, [PAULI_Z]))


@pytest.mark.parametrize("max_power", [True, 2.0, "2"])
def test_commutant_basis_takes_a_plain_int_power(max_power):
    with pytest.raises(ValueError, match="max_power must be a plain integer"):
        default_commutant_basis(PAULI_X, max_power=max_power)
    assert [label for label, _ in default_commutant_basis(PAULI_X, 1)] == ["1", "H"]


@pytest.mark.parametrize("max_power", [0, 1, 3, 5])
def test_commutant_basis_takes_one_product_per_power(rng, monkeypatch, max_power):
    h = random_hermitian(rng, 3)
    products = count_calls(monkeypatch, GIMatrix, "__matmul__")
    basis = default_commutant_basis(h, max_power)
    assert len(products) == max_power
    assert [label for label, _ in basis] == \
        ["1", "H", "H^2", "H^3", "H^4", "H^5"][:max_power + 1]
    assert all(type(g) is HermitianIntMatrix for _, g in basis)
    monkeypatch.undo()
    assert [g for _, g in basis] == [h.power(k) for k in range(max_power + 1)]


@pytest.mark.parametrize("max_power", [-1, -5])
def test_commutant_basis_rejects_a_negative_power(max_power):
    # an empty basis would make an audit that checks nothing and passes
    with pytest.raises(ValueError, match="max_power must be >= 0"):
        default_commutant_basis(PAULI_X, max_power=max_power)
    assert [label for label, _ in default_commutant_basis(PAULI_X, 0)] == ["1"]


@pytest.mark.parametrize("count", [1, 4])
def test_an_audit_window_of_random_slices_is_the_library_audit(rng, count):
    # random slices, almost never a solution: the window feeds every pair
    # to one per-G series pass of its one or four observables and reports
    # what the library audit of the stored slices does
    traj = random_trajectory(rng, 3, 194, 2 ** 40)
    h = random_hermitian(rng, 3)
    observables = [random_hermitian(rng, 3) for _ in range(count)]
    window = conservation._AuditWindow(iter(traj.states), h, observables)
    window.drain()
    assert window.report() == audit_conservation(traj, h, observables)
