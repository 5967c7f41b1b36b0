"""Many-clock composites: residuals, factorization, product-rule failure,
shared-clock critique, antisymmetric pair states, rank witness."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hamca.automaton import Trajectory, evolve
from hamca.conservation import default_commutant_basis, two_point_series
from hamca import multipartite
from hamca.gaussian import GaussianInt, GIVector, GIMatrix, HermitianIntMatrix
from hamca.multipartite import (
    InteractionTensor,
    MultiWave,
    bell_state,
    evolve_factorized,
    evolve_synchronized,
    factorizability_witness,
    flatten_index,
    kron_sum,
    leibniz_failure_demo,
    many_time_residual,
    product_wave,
    total_hamiltonian,
)
from conftest import (count_calls, random_gaussian_int, random_hermitian,
                      random_vector)


def gi(re, im=0):
    return GaussianInt(re, im)


def vec(*pairs):
    return GIVector(gi(re, im) for re, im in pairs)


H_TWO = HermitianIntMatrix(GIMatrix([[gi(2)]]))
H_ONE = HermitianIntMatrix(GIMatrix([[gi(1)]]))
PAULI_X = HermitianIntMatrix(GIMatrix([[gi(0), gi(1)], [gi(1), gi(0)]]))


def test_product_of_two_period_four_orbits_has_zero_residual():
    _, wave, _ = evolve_factorized(
        [H_TWO, H_TWO],
        [(vec((1, 0)), vec((0, -1))), (vec((1, 0)), vec((0, -1)))],
        [4, 4])
    res = many_time_residual(wave, [H_TWO, H_TWO])
    assert res.is_zero


def test_the_factorized_field_is_certified_before_it_is_returned(monkeypatch):
    seeds = [(vec((1, 0)), vec((0, -1))), (vec((1, 0)), vec((0, -1)))]
    factors, wave, res = evolve_factorized([H_TWO, H_TWO], seeds, [4, 4])
    assert multipartite._factors_and_field([H_TWO, H_TWO], seeds, [4, 4]) == \
        (factors, wave)
    assert res == multipartite._certified_free_residual(wave, [H_TWO, H_TWO])
    # one value off the product, at an interior clock, fails the certificate
    bumped = wave + MultiWave(wave.dims, wave.clock_shape,
                              [int(i == wave._flat((2, 2), (0, 0)))
                               for i in range(len(wave.vector))])
    with pytest.raises(AssertionError, match="indicates a bug"):
        multipartite._certified_free_residual(bumped, [H_TWO, H_TWO])
    monkeypatch.setattr(multipartite, "product_wave", lambda factors: bumped)
    with pytest.raises(AssertionError, match="indicates a bug"):
        evolve_factorized([H_TWO, H_TWO], seeds, [4, 4])


def test_zero_field_has_zero_residual():
    wave = MultiWave((2, 2), (4, 4))
    assert many_time_residual(wave, [PAULI_X, PAULI_X]).is_zero


def test_interaction_makes_the_residual_nonzero():
    _, wave, _ = evolve_factorized(
        [H_TWO, H_TWO],
        [(vec((1, 0)), vec((0, -1))), (vec((1, 0)), vec((0, -1)))],
        [3, 3])
    coupling = InteractionTensor((1, 1), GIMatrix([[gi(1)]]))
    res = many_time_residual(wave, [H_TWO, H_TWO], coupling)
    assert not res.is_zero
    # with zero couplings the residual is exactly i * interaction * field
    bad = res.nonzero()
    assert bad
    for clocks, alphas, value in bad:
        assert value == wave.get(clocks, alphas) * gi(0, 1)


def test_residual_flags_a_corrupted_product(rng):
    _, wave, _ = evolve_factorized(
        [PAULI_X], [(random_vector(rng, 2), random_vector(rng, 2))], [4])
    values = [v + 1 if (c, a) == ((3,), (1,)) else v for c, a, v in wave.items()]
    wave = MultiWave(wave.dims, wave.clock_shape, values)
    assert not many_time_residual(wave, [PAULI_X]).is_zero


def test_single_part_degenerates_to_plain_evolution(rng):
    h = random_hermitian(rng, 2)
    s0, s1 = random_vector(rng, 2), random_vector(rng, 2)
    factors, wave, _ = evolve_factorized([h], [(s0, s1)], [5])
    traj = evolve(s0, s1, h, 5)
    assert factors == (traj,)
    for n in range(len(traj)):
        for a in range(2):
            assert wave.get((n,), (a,)) == traj[n][a]


def test_constant_part_scales_the_other_factor(rng):
    h = random_hermitian(rng, 2)
    s0, s1 = random_vector(rng, 2), random_vector(rng, 2)
    frozen = GIVector([gi(3, -1)])
    _, wave, _ = evolve_factorized(
        [h, HermitianIntMatrix.zeros(1)],
        [(s0, s1), (frozen, frozen)],
        [3, 3])
    traj = evolve(s0, s1, h, 3)
    for n1 in range(len(traj)):
        for n2 in range(5):
            for a in range(2):
                assert wave.get((n1, n2), (a, 0)) == traj[n1][a] * frozen[0]


def test_no_spurious_correlations_random_instances(rng):
    for _ in range(12):
        m = rng.randint(1, 3)
        hams, seeds, steps = [], [], []
        for _ in range(m):
            d = rng.randint(1, 3)
            hams.append(random_hermitian(rng, d, bound=2))
            seeds.append((random_vector(rng, d, 2), random_vector(rng, d, 2)))
            steps.append(rng.randint(2, 4))
        _, wave, _ = evolve_factorized(hams, seeds, steps)
        assert many_time_residual(wave, hams).is_zero


def random_field(rng, dims, shape, bound=4):
    size = 1
    for n in dims + shape:
        size *= n
    return MultiWave(dims, shape, [random_gaussian_int(rng, bound) for _ in range(size)])


def test_residual_is_linear(rng):
    dims = (2, 2)
    shape = (4, 5)
    hams = [random_hermitian(rng, 2), random_hermitian(rng, 2)]

    a, b = random_gaussian_int(rng), random_gaussian_int(rng)
    psi, phi = random_field(rng, dims, shape), random_field(rng, dims, shape)
    combo = psi.scale(a) + phi.scale(b)
    lhs = many_time_residual(combo, hams).field
    rhs = (many_time_residual(psi, hams).field.scale(a)
           + many_time_residual(phi, hams).field.scale(b))
    assert lhs == rhs


def reference_residual(psi, hams, interaction):
    """Per-point, per-axis evaluation of the many-clock equations.

    Keyed by (interior clocks shifted down by 1, alphas), as the
    residual field stores them.
    """
    out = {}
    for clocks in psi.interior_clock_points():
        for alphas in psi.dof_indices():
            lhs = gi(0)
            rhs = gi(0)
            for k, h in enumerate(hams):
                up = clocks[:k] + (clocks[k] + 1,) + clocks[k + 1:]
                down = clocks[:k] + (clocks[k] - 1,) + clocks[k + 1:]
                lhs = lhs + psi.get(up, alphas) - psi.get(down, alphas)
                for beta in range(psi.dims[k]):
                    contracted = alphas[:k] + (beta,) + alphas[k + 1:]
                    rhs = rhs + h.entry(alphas[k], beta) * psi.get(
                        clocks, contracted)
            if interaction is not None:
                for betas in psi.dof_indices():
                    rhs = rhs + interaction.matrix.entry(
                        flatten_index(alphas, psi.dims),
                        flatten_index(betas, psi.dims)) * psi.get(clocks, betas)
            out[(tuple(n - 1 for n in clocks), alphas)] = lhs + rhs * gi(0, 1)
    return out


@settings(max_examples=25)
@given(dims=st.sampled_from([(2, 3), (3, 2), (1, 2, 2), (2, 1, 3)]),
       interacting=st.booleans(), data=st.data(),
       rng=st.randoms(use_true_random=False))
def test_residual_matches_a_per_axis_reference(dims, interacting, data, rng):
    shape = tuple(data.draw(st.integers(3, 4)) for _ in dims)
    hams = [random_hermitian(rng, d) for d in dims]
    interaction = None
    if interacting:
        size = 1
        for d in dims:
            size *= d
        interaction = InteractionTensor(dims, random_hermitian(rng, size))
    psi = random_field(rng, dims, shape)
    res = many_time_residual(psi, hams, interaction)
    want = reference_residual(psi, hams, interaction)
    assert res.field.clock_shape == tuple(c - 2 for c in shape)
    assert {key: res.field.get(*key) for key in want} == want
    assert res.nonzero() == [(tuple(n + 1 for n in clocks), alphas, v)
                             for (clocks, alphas), v in want.items() if v]


@settings(max_examples=40)
@given(data=st.data(), parts=st.integers(1, 3), interacting=st.booleans(),
       bits=st.sampled_from([2, 64, 700]), rng=st.randoms(use_true_random=False))
def test_residual_matches_the_reference_on_every_slab(data, parts, interacting,
                                                      bits, rng):
    # clock sides 3-5: one to three interior slabs along axis 0, and runs
    # of one to three points along the last axis; entries up to 2**700
    dims = tuple(data.draw(st.integers(1, 3)) for _ in range(parts))
    shape = tuple(data.draw(st.integers(3, 5)) for _ in range(parts))
    hams = [random_hermitian(rng, d, 2 ** bits) for d in dims]
    interaction = None
    if interacting:
        size = 1
        for d in dims:
            size *= d
        interaction = InteractionTensor(dims, random_hermitian(rng, size, 2 ** bits))
    psi = random_field(rng, dims, shape, 2 ** bits)
    res = many_time_residual(psi, hams, interaction)
    want = reference_residual(psi, hams, interaction)
    # the reference runs over interior points and dofs in storage order
    assert res.field.clock_shape == tuple(c - 2 for c in shape)
    assert list(res.field.vector) == list(want.values())


def _interior_neighbours(clocks, shape):
    """`clocks` and its axis neighbours that are interior points."""
    near = [clocks] + [clocks[:k] + (clocks[k] + step,) + clocks[k + 1:]
                       for k in range(len(clocks)) for step in (-1, 1)]
    return {c for c in near if all(0 < n < m - 1 for n, m in zip(c, shape))}


@settings(max_examples=25)
@given(dims=st.sampled_from([(1,), (2,), (3,), (2, 3), (1, 2, 1, 2)]),
       corrupt=st.booleans(), data=st.data(),
       rng=st.randoms(use_true_random=False))
def test_strided_residual_matches_the_reference_on_uneven_boxes(dims, corrupt,
                                                                data, rng):
    # clock ranges 3-6 that differ per axis; 3-4 for the four-part field
    top = 2 if len(dims) == 4 else 4
    steps = [data.draw(st.integers(1, top)) for _ in dims]
    hams = [random_hermitian(rng, d, bound=2) for d in dims]
    seeds = [(random_vector(rng, d, 2), random_vector(rng, d, 2)) for d in dims]
    _, psi, _ = evolve_factorized(hams, seeds, steps)
    shape = psi.clock_shape
    allowed = set()
    if corrupt:
        # one value on an interior face (index 1 or c - 2 on one axis) ...
        k = data.draw(st.integers(0, len(dims) - 1))
        face = tuple(data.draw(st.sampled_from([1, c - 2])) if j == k
                     else data.draw(st.integers(1, c - 2))
                     for j, c in enumerate(shape))
        # ... and one on the boundary (index 0 or c - 1 on one axis)
        k = data.draw(st.integers(0, len(dims) - 1))
        edge = tuple(data.draw(st.sampled_from([0, c - 1])) if j == k
                     else data.draw(st.integers(0, c - 1))
                     for j, c in enumerate(shape))
        bumps = {psi._flat(face, [rng.randrange(d) for d in dims]): gi(1, -2),
                 psi._flat(edge, [rng.randrange(d) for d in dims]): gi(3)}
        psi = MultiWave(dims, shape, [v + bumps.get(i, 0)
                                      for i, v in enumerate(psi.vector)])
        allowed = _interior_neighbours(face, shape) | _interior_neighbours(edge, shape)
    res = many_time_residual(psi, hams)
    want = reference_residual(psi, hams, None)
    assert {key: res.field.get(*key) for key in want} == want
    assert {clocks for clocks, _, _ in res.nonzero()} <= allowed


def test_residual_applies_once_per_interior_point_and_slices_no_blocks(
        rng, monkeypatch):
    dims = (2, 1, 3)
    hams = [random_hermitian(rng, d) for d in dims]
    psi = random_field(rng, dims, (4, 5, 3))
    want = reference_residual(psi, hams, None)
    applied = count_calls(monkeypatch, GIMatrix, "apply")
    sliced = count_calls(monkeypatch, MultiWave, "alpha_vector")
    res = many_time_residual(psi, hams)
    assert len(applied) == 2 * 3 * 1 and sliced == []
    assert {key: res.field.get(*key) for key in want} == want


def test_residual_needs_interior_sites():
    wave = MultiWave((1, 1), (2, 3))
    with pytest.raises(ValueError):
        many_time_residual(wave, [H_ONE, H_ONE])


def test_leibniz_identity_and_failure_examples():
    demo = leibniz_failure_demo([0, 1, 2, 3], [0, 1, 2, 3])
    assert demo.identity_ok
    row = demo.rows[0]
    assert row.n == 1 and row.product_rate == 4
    assert row.split_form == 4 and row.naive == 4 and row.naive_matches

    demo = leibniz_failure_demo([1, 2, 4, 8], [1, 2, 4, 8])
    assert demo.identity_ok
    row = demo.rows[0]
    assert row.product_rate == 15 and row.naive == 12 and not row.naive_matches
    assert 1 in demo.failure_sites

    demo = leibniz_failure_demo([5, 5, 5, 5], [0, 2, 7, -3])
    assert demo.identity_ok
    assert not demo.failure_sites  # constant factor: the naive rule holds


def test_leibniz_identity_on_random_sequences(rng):
    for _ in range(50):
        n = rng.randint(3, 9)
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        assert leibniz_failure_demo(a, b).identity_ok


def test_leibniz_halves_can_be_proper_fractions():
    demo = leibniz_failure_demo([0, 1, 0], [0, 1, 1])
    assert demo.identity_ok
    assert isinstance(demo.rows[0].split_form, Fraction)


def test_kron_sum_of_single_part_is_the_part():
    assert kron_sum([PAULI_X]) == PAULI_X


def test_total_hamiltonian_concrete():
    total = total_hamiltonian([H_ONE, H_ONE])
    assert total == GIMatrix([[gi(2)]])
    ident2 = HermitianIntMatrix.identity(2)
    total = total_hamiltonian([ident2, ident2])
    assert total == GIMatrix.identity(4).scale(2)


def test_synchronized_diverges_from_the_product_at_step_two():
    # two 1x1 parts, couplings [[1]], all seeds 1
    psi = evolve(vec((1, 0)), vec((1, 0)), H_ONE, 2)
    phi = evolve(vec((1, 0)), vec((1, 0)), H_ONE, 2)
    assert psi[2][0] == gi(1, -1)
    product_slice = psi[2][0] * phi[2][0]
    assert product_slice == gi(0, -2)
    sync = evolve_synchronized(vec((1, 0)), vec((1, 0)), [H_ONE, H_ONE], None, 2)
    assert sync[2][0] == gi(1, -2)
    assert sync[2][0] != product_slice  # the exact inequality


def test_synchronized_with_zero_couplings_alternates():
    seeds = vec((1, 0), (2, 0), (0, 1), (0, 0))
    other = vec((0, 0), (1, 0), (1, 1), (3, 0))
    sync = evolve_synchronized(
        seeds, other,
        [HermitianIntMatrix.zeros(2), HermitianIntMatrix.zeros(2)], None, 3)
    assert sync[2] == seeds and sync[3] == other


def test_synchronized_single_part_is_plain_evolution(rng):
    h = random_hermitian(rng, 3)
    s0, s1 = random_vector(rng, 3), random_vector(rng, 3)
    assert evolve_synchronized(s0, s1, [h], None, 7) == evolve(s0, s1, h, 7)


def test_synchronized_interacting_evolution_runs():
    coupling = InteractionTensor((1, 1), GIMatrix([[gi(1)]]))
    sync = evolve_synchronized(vec((1, 0)), vec((1, 0)),
                               [H_ONE, H_ONE], coupling, 2)
    # total coupling is [[3]]: psi_2 = 1 - 3i
    assert sync[2][0] == gi(1, -3)


def test_flattened_composite_keeps_its_invariants(rng):
    hams = [random_hermitian(rng, 2), random_hermitian(rng, 2)]
    h_tot = total_hamiltonian(hams)
    s0, s1 = random_vector(rng, 4), random_vector(rng, 4)
    traj = evolve_synchronized(s0, s1, hams, None, 50)
    for label, g in default_commutant_basis(h_tot, max_power=2):
        series = two_point_series(traj, g)
        assert len({(v.re, v.im) for v in series}) == 1, label


def test_bell_static_slice_is_the_canonical_antisymmetric_form():
    psi = Trajectory([vec((1, 0), (0, 0))] * 3)
    phi = Trajectory([vec((0, 0), (1, 0))] * 3)
    wave = bell_state(psi, phi)
    assert wave.bipartite_slice((1, 1)) == (
        (gi(0), gi(1)),
        (gi(-1), gi(0)),
    )


def test_bell_of_identical_histories_vanishes_diagonally(rng):
    h = random_hermitian(rng, 2)
    traj = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 4)
    wave = bell_state(traj, traj)
    for n1 in range(len(traj)):
        for n2 in range(len(traj)):
            assert wave.get((n1, n2), (0, 0)) == gi(0)
            assert wave.get((n1, n2), (1, 1)) == gi(0)
            # exchange antisymmetry at equal clocks
            if n1 == n2:
                assert wave.get((n1, n2), (0, 1)) == -wave.get((n1, n2), (1, 0))


def test_bell_field_solves_the_equations(rng):
    h = random_hermitian(rng, 2)
    psi = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 4)
    phi = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 5)
    wave = bell_state(psi, phi)
    assert many_time_residual(wave, [h, h]).is_zero


def test_bell_truncates_to_the_common_clock_box(rng):
    h = random_hermitian(rng, 2)
    psi = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 6)
    phi = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 3)
    common = len(phi)
    assert len(psi) > common
    wave = bell_state(psi, phi)
    assert wave.clock_shape == (common, common)
    for n1 in range(common):
        for n2 in range(common):
            for a in range(2):
                for b in range(2):
                    assert wave.get((n1, n2), (a, b)) == (
                        psi[n1][a] * phi[n2][b] - phi[n1][a] * psi[n2][b])


def test_bell_rejects_wrong_dof_count(rng):
    bad = Trajectory([GIVector([gi(1)])] * 3)
    good = Trajectory([vec((1, 0), (0, 0))] * 3)
    with pytest.raises(ValueError):
        bell_state(bad, good)


def test_witness_on_canonical_slices():
    bell = ((gi(0), gi(1)), (gi(-1), gi(0)))
    w = factorizability_witness(bell)
    assert w.entangled and w.minor_value == gi(1)
    assert w.verify(bell)

    flat = ((gi(1), gi(1)), (gi(1), gi(1)))
    w = factorizability_witness(flat)
    assert not w.entangled
    assert w.verify(flat)

    diag = ((gi(2), gi(0)), (gi(0), gi(3)))
    w = factorizability_witness(diag)
    assert w.entangled and w.minor_value == gi(6)
    assert w.verify(diag)


def test_witness_on_outer_products(rng):
    for _ in range(30):
        n_r, n_c = rng.randint(1, 4), rng.randint(1, 4)
        u = [random_gaussian_int(rng, 4) for _ in range(n_r)]
        v = [random_gaussian_int(rng, 4) for _ in range(n_c)]
        rows = tuple(tuple(a * b for b in v) for a in u)
        w = factorizability_witness(rows)
        assert not w.entangled
        assert w.verify(rows)


def test_witness_certificates_are_checkable(rng):
    found = 0
    for _ in range(40):
        rows = tuple(tuple(random_gaussian_int(rng, 3) for _ in range(3))
                     for _ in range(3))
        w = factorizability_witness(rows)
        assert w.verify(rows)
        found += w.entangled
    assert found > 0  # random 3x3 slices are generically entangled


def test_witness_zero_slice_is_factorizable():
    rows = ((gi(0), gi(0)), (gi(0), gi(0)))
    w = factorizability_witness(rows)
    assert not w.entangled and w.verify(rows)


def test_multiwave_json_roundtrip(rng):
    _, wave, _ = evolve_factorized(
        [PAULI_X, H_TWO],
        [(random_vector(rng, 2), random_vector(rng, 2)),
         (vec((1, 0)), vec((0, -1)))],
        [3, 4])
    obj = json.loads(json.dumps(wave.to_json_obj()))
    assert MultiWave.from_json_obj(obj) == wave


def _two_part_field_obj():
    wave = MultiWave((1, 1), (2, 2), [gi(1), gi(2), gi(3), gi(4)])
    return wave.to_json_obj()


def test_multiwave_json_rejects_missing_records():
    obj = _two_part_field_obj()
    del obj["values"][2]
    with pytest.raises(ValueError, match="3 of 4 records"):
        MultiWave.from_json_obj(obj)


def test_multiwave_json_rejects_duplicate_records():
    obj = _two_part_field_obj()
    obj["values"][3] = [obj["values"][2][0], [0, 0], [9, 9]]
    with pytest.raises(ValueError, match="duplicate"):
        MultiWave.from_json_obj(obj)


def test_multiwave_json_rejects_a_clock_box_not_starting_at_zero():
    obj = _two_part_field_obj()
    obj["clock_box"] = [[1, 2], [0, 1]]
    with pytest.raises(ValueError, match="clock_box"):
        MultiWave.from_json_obj(obj)


@pytest.mark.parametrize("clocks", [[0, 2], [-1, 0], [0]])
def test_multiwave_json_rejects_a_clock_outside_the_box(clocks):
    obj = _two_part_field_obj()
    obj["values"][0][0] = clocks
    with pytest.raises(ValueError):
        MultiWave.from_json_obj(obj)


# each index equals its record's own as a number, so only its type is wrong
@pytest.mark.parametrize("record, at, indices", [
    (3, 0, [1.0, 1]), (3, 0, [True, 1]), (3, 0, [1, 1.0]),
    (1, 1, [0.0, 0]), (1, 1, [False, 0]), (2, 1, [0, False]),
], ids=["clock-float", "clock-true", "last-clock-float", "dof-float",
        "dof-false", "last-dof-false"])
def test_multiwave_json_rejects_indices_that_are_not_plain_ints(record, at,
                                                                indices):
    obj = _two_part_field_obj()
    obj["values"][record][at] = indices
    with pytest.raises(ValueError, match="not in shape"):
        MultiWave.from_json_obj(obj)


@pytest.mark.parametrize("bounds", [[False, 1], [0.0, 1], [0, 1.0], [0, True]],
                         ids=["low-false", "low-float", "high-float", "high-true"])
def test_multiwave_json_rejects_clock_box_bounds_that_are_not_plain_ints(bounds):
    obj = _two_part_field_obj()
    obj["clock_box"][1] = bounds
    with pytest.raises(ValueError, match="clock_box"):
        MultiWave.from_json_obj(obj)


@pytest.mark.parametrize("dims", [[1.9], [True]])
def test_multiwave_json_rejects_inexact_dims(dims):
    obj = MultiWave((1,), (2,), [gi(1), gi(2)]).to_json_obj()
    obj["dims"] = dims
    with pytest.raises(ValueError, match="plain integers"):
        MultiWave.from_json_obj(obj)


@pytest.mark.parametrize("parts, reason", [
    (7, "disagrees"), (2, "disagrees"), (0, "disagrees"),
    (True, "must be an integer"), (1.0, "must be an integer"),
    ("1", "must be an integer"), (None, "must be an integer"),
], ids=["seven", "two", "zero", "true", "float", "text", "null"])
def test_multiwave_json_checks_parts(parts, reason):
    wave = MultiWave((1,), (2,), [gi(1), gi(2)])
    obj = wave.to_json_obj()
    assert MultiWave.from_json_obj(obj) == wave
    obj["parts"] = parts
    with pytest.raises(ValueError, match=f"field parts {reason}"):
        MultiWave.from_json_obj(obj)


def test_multiwave_json_rejects_a_fractional_clock_box():
    obj = MultiWave((1,), (2,), [gi(1), gi(2)]).to_json_obj()
    obj["clock_box"] = [[0, 1.5]]
    with pytest.raises(ValueError, match="clock_box"):
        MultiWave.from_json_obj(obj)


@pytest.mark.parametrize("key, value", [("dims", 2), ("values", 5)])
def test_multiwave_json_rejects_a_field_that_is_not_a_list(key, value):
    obj = {"dims": [1], "clock_box": [[0, 1]], "values": []}
    obj[key] = value
    with pytest.raises(ValueError, match=f"field {key} must be a list"):
        MultiWave.from_json_obj(obj)


HUGE = 10**5000  # past CPython's 4,300-digit int-to-text limit


@pytest.mark.parametrize("field, match", [
    ({"dims": [1], "clock_box": [[0, HUGE, 1]], "values": []}, "clock_box"),
    ({"dims": [1], "clock_box": [[0, 1]],
      "values": [[[0], [0], [1, 0]], [[HUGE], [0], [1, 0]]]}, "bad field record"),
    ({"dims": [1], "clock_box": [[0, HUGE]], "values": []}, r"has 0 of \d+ records"),
    ({"dims": [HUGE], "clock_box": [[0, 1]], "values": []}, r"has 0 of \d+ records"),
    ({"dims": [1, HUGE], "clock_box": [[0, 1], [0, 0]], "values": []},
     r"has 0 of \d+ records"),
], ids=["clock-box-entry", "record-clock", "clock-range", "dims", "second-dims"])
def test_multiwave_json_names_the_field_holding_a_huge_int(field, match):
    # the sizes are checked against the records before the field is made
    with pytest.raises(ValueError, match=match):
        MultiWave.from_json_obj(field)


def test_interaction_rejects_inexact_dims():
    with pytest.raises(ValueError, match="plain integers"):
        InteractionTensor([2.7], GIMatrix.identity(2))


def test_residual_csv_layout():
    _, wave, _ = evolve_factorized(
        [H_TWO, H_TWO],
        [(vec((1, 0)), vec((0, -1))), (vec((1, 0)), vec((0, -1)))],
        [3, 3])
    coupling = InteractionTensor((1, 1), GIMatrix([[gi(1)]]))
    res = many_time_residual(wave, [H_TWO, H_TWO], coupling)
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "n1,n2,alpha1,alpha2,re,im"
    assert len(lines) == 1 + 3 * 3  # interior points of a 5x5 box


def test_interaction_validation():
    with pytest.raises(ValueError):
        InteractionTensor((2, 2), GIMatrix.identity(3))
    with pytest.raises(ValueError):
        InteractionTensor((1, 1), GIMatrix([[gi(0, 1)]]))
    # dims (2, 1): the multi-index (a, 0) is flat index a
    t = InteractionTensor((2, 1), GIMatrix([[gi(0), gi(2, 1)], [gi(2, -1), gi(0)]]))
    assert t.matrix.entry(flatten_index((0, 0), t.dims),
                          flatten_index((1, 0), t.dims)) == gi(2, 1)
    assert not t.is_zero()
    assert InteractionTensor((2, 2), GIMatrix.zeros(4)).is_zero()


def test_field_stores_plain_int_parts_and_builds_scalars_on_read():
    wave = MultiWave((1,), (2,), [1, gi(2, -1)])
    re, im = wave.vector.re, wave.vector.im
    assert type(re) is tuple and type(im) is tuple
    assert all(type(x) is int for x in re + im)
    assert (re, im) == ((1, 2), (0, -1))
    assert type(wave.get((1,), (0,))) is GaussianInt
    assert wave.get((1,), (0,)) == gi(2, -1)
    assert list(wave.items()) == [((0,), (0,), gi(1)), ((1,), (0,), gi(2, -1))]
    assert all(type(v) is GaussianInt for _, _, v in wave.items())
    assert type(wave.alpha_vector((0,))) is GIVector
    assert wave.alpha_vector((0,)) == GIVector([gi(1)])
    assert [v for _, _, v in wave.to_json_obj()["values"]] == [[1, 0], [2, -1]]
    for bad in (1.5, True):
        with pytest.raises(ValueError):
            MultiWave((1,), (2,), [bad, gi(0)])


_PART = st.one_of(st.integers(-9, 9), st.integers(2**600, 2**700),
                  st.integers(-2**700, -2**600))


@settings(max_examples=40)
@given(data=st.data())
def test_product_wave_matches_a_per_value_reference(data):
    """Every stored value is prod_k f_k[n_k][a_k], in storage order."""
    factors = []
    for _ in range(data.draw(st.integers(1, 3))):
        dim, slices = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4))
        factors.append(Trajectory(
            GIVector(gi(data.draw(_PART), data.draw(_PART)) for _ in range(dim))
            for _ in range(slices)))
    wave = product_wave(factors)
    assert wave.dims == tuple(f.dim for f in factors)
    assert wave.clock_shape == tuple(len(f) for f in factors)
    want = []
    for clocks in itertools.product(*(range(len(f)) for f in factors)):
        for alphas in itertools.product(*(range(f.dim) for f in factors)):
            v = gi(1)
            for f, n, a in zip(factors, clocks, alphas):
                v = v * f[n][a]
            want.append(v)
    assert list(wave.vector) == want
