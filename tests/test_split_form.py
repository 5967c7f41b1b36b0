"""The split storage of exact vectors and its one matvec kernel.

`GIVector` keeps two tuples of plain ints and `GIMatrix.apply` runs a
precompiled, zero-skipping program.  These checks compare every vector
operation with a plain-int reference written out entry by entry, pin
that vectors built by every path compare and hash alike, and pin that
the independent oracles never reach the kernel.
"""

import pickle
from decimal import Decimal
from itertools import zip_longest
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from hamca import automaton, gaussian
from hamca.automaton import (Trajectory, action_evaluate, evolve, evolve_phase_space,
                             first_recurrence_violation, is_solution,
                             recurrence_residual, step_forward, verify_stationarity)
from hamca.conservation import audit_conservation
from hamca.gaussian import GaussianInt, GIMatrix, GIVector, HermitianIntMatrix, IMAG_UNIT
from conftest import (BIG, COEFF, H_SHAPES, PARTS_5000, SMALL, count_applies,
                      count_split_steps, hermitian_splits, random_hermitian, random_vector)

PART = st.one_of(st.just(0), SMALL, st.integers(-2**64, 2**64), BIG)
ROW_KINDS = ("complex", "real", "imaginary", "zero", "identity")


@st.composite
def split_vectors(draw, dim):
    return ([draw(PART) for _ in range(dim)], [draw(PART) for _ in range(dim)])


@st.composite
def split_matrices(draw, dim):
    """Rows that are complex, purely real, purely imaginary, zero or e_i."""
    m_re = []
    m_im = []
    for i in range(dim):
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "identity":
            m_re.append([int(i == j) for j in range(dim)])
            m_im.append([0] * dim)
            continue
        m_re.append([draw(COEFF) if kind in ("complex", "real") else 0
                     for _ in range(dim)])
        m_im.append([draw(COEFF) if kind in ("complex", "imaginary") else 0
                     for _ in range(dim)])
    return m_re, m_im


def vector(re, im):
    return GIVector(GaussianInt(r, i) for r, i in zip(re, im))


def matrix(m_re, m_im):
    return GIMatrix([[GaussianInt(r, i) for r, i in zip(rr, ri)]
                     for rr, ri in zip(m_re, m_im)])


def parts(v):
    """The stored parts, which must be tuples of plain ints."""
    assert type(v.re) is tuple and type(v.im) is tuple
    assert all(type(x) is int for x in v.re + v.im)
    return list(v.re), list(v.im)


def reference_apply(m_re, m_im, x_re, x_im):
    d = len(x_re)
    out_re = [0] * d
    out_im = [0] * d
    for i in range(d):
        for j in range(d):
            out_re[i] += m_re[i][j] * x_re[j] - m_im[i][j] * x_im[j]
            out_im[i] += m_re[i][j] * x_im[j] + m_im[i][j] * x_re[j]
    return out_re, out_im


@settings(max_examples=80)
@given(data=st.data(), dim=st.integers(1, 6))
def test_kernel_matches_a_plain_int_reference(data, dim):
    m_re, m_im = data.draw(split_matrices(dim))
    x_re, x_im = data.draw(split_vectors(dim))
    y_re, y_im = data.draw(split_vectors(dim))
    a_re, a_im = data.draw(PART), data.draw(PART)
    x, y = vector(x_re, x_im), vector(y_re, y_im)
    d = range(dim)

    assert parts(matrix(m_re, m_im).apply(x)) == reference_apply(m_re, m_im, x_re, x_im)
    assert parts(x + y) == ([x_re[k] + y_re[k] for k in d],
                            [x_im[k] + y_im[k] for k in d])
    assert parts(x - y) == ([x_re[k] - y_re[k] for k in d],
                            [x_im[k] - y_im[k] for k in d])
    assert parts(-x) == ([-x_re[k] for k in d], [-x_im[k] for k in d])
    assert parts(x.conjugate()) == (x_re, [-x_im[k] for k in d])
    assert parts(x.scale(GaussianInt(a_re, a_im))) == (
        [a_re * x_re[k] - a_im * x_im[k] for k in d],
        [a_re * x_im[k] + a_im * x_re[k] for k in d])
    assert parts(x.scale(a_re)) == ([a_re * x_re[k] for k in d],
                                    [a_re * x_im[k] for k in d])
    # conj(x_k) * y_k summed
    inner_re = sum(x_re[k] * y_re[k] + x_im[k] * y_im[k] for k in d)
    inner_im = sum(x_re[k] * y_im[k] - x_im[k] * y_re[k] for k in d)
    assert x.inner(y) == GaussianInt(inner_re, inner_im)
    assert x.inner_re(y) == inner_re


def test_kernel_handles_identity_and_zero_matrices(rng):
    for dim in range(1, 7):
        v = random_vector(rng, dim, 2**700)
        assert GIMatrix.identity(dim).apply(v) == v
        assert GIMatrix.zeros(dim).apply(v) == GIVector.zero(dim)


# -- one value, every construction path ---------------------------------


def assert_same_vector(built, public):
    assert type(built.re) is tuple and type(built.im) is tuple
    assert built == public and public == built
    assert hash(built) == hash(public)
    assert {public: "found"}[built] == "found"


@settings(max_examples=30)
@given(data=st.data(), dim=st.integers(1, 4))
def test_every_path_builds_vectors_that_compare_and_hash_alike(data, dim):
    m_re, m_im = data.draw(split_matrices(dim))
    a_re, a_im = data.draw(split_vectors(dim))
    b_re, b_im = data.draw(split_vectors(dim))
    a, b, h = vector(a_re, a_im), vector(b_re, b_im), matrix(m_re, m_im)

    w_re, w_im = reference_apply(m_re, m_im, b_re, b_im)
    assert_same_vector(h.apply(b), vector(w_re, w_im))
    # a - i*H*b
    assert_same_vector(step_forward(a, b, HermitianIntMatrix.identity(dim)),
                       vector([a_re[k] + b_im[k] for k in range(dim)],
                              [a_im[k] - b_re[k] for k in range(dim)]))
    assert_same_vector(a + b, vector([x + y for x, y in zip(a_re, b_re)],
                                     [x + y for x, y in zip(a_im, b_im)]))
    assert_same_vector(a - b, vector([x - y for x, y in zip(a_re, b_re)],
                                     [x - y for x, y in zip(a_im, b_im)]))
    assert_same_vector(GIVector.from_pairs([[r, i] for r, i in zip(a_re, a_im)]), a)

    traj = Trajectory([a, b])
    # lists in, as a caller would pass them; with 0 steps only the seeds come back
    zero = [[0] * len(a_re) for _ in a_re]
    phase = evolve_phase_space(a_re, a_im, b_re, b_im, zero, zero, 0)
    for built in (phase, Trajectory.from_csv(traj.to_csv()),
                  Trajectory.from_json_obj(traj.to_json_obj())):
        assert_same_vector(built[0], a)
        assert_same_vector(built[1], b)


def test_step_forward_matches_an_evolved_slice(rng):
    h = random_hermitian(rng, 3)
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 6)
    rebuilt = GIVector(list(traj[6]))
    assert_same_vector(step_forward(traj[4], traj[5], h), rebuilt)


def test_phase_trajectory_rejects_non_integer_parts():
    # checked up front, before any step: the seeds and both couplings
    with pytest.raises(TypeError, match="plain integers"):
        evolve_phase_space([1.0], [0], [2], [0], [[1]], [[0]], 3)
    with pytest.raises(TypeError, match="plain integers"):
        evolve_phase_space([1], [True], [2], [0], [[1]], [[0]], 3)
    with pytest.raises(TypeError, match="plain integers"):
        evolve_phase_space([1], [0], [2], [0], [[1.0]], [[0]], 3)
    with pytest.raises(TypeError, match="plain integers"):
        evolve_phase_space([1], [0], [2], [0], [[1]], [[0.0]], 0)


@settings(max_examples=60)
@given(data=st.data(), dim=st.integers(1, 6), steps=st.integers(0, 30))
def test_the_streamed_oracle_equals_evolve_slice_by_slice(data, dim, steps):
    hs, ha = data.draw(hermitian_splits(dim))
    (x0, p0), (x1, p1) = data.draw(split_vectors(dim)), data.draw(split_vectors(dim))
    h = HermitianIntMatrix(matrix(hs, ha))
    phase = evolve_phase_space(x0, p0, x1, p1, hs, ha, steps)
    pairs = list(zip_longest(phase, evolve(vector(x0, p0), vector(x1, p1), h, steps)))
    assert len(pairs) == steps + 2
    for got, want in pairs:
        assert_same_vector(got, want)


def test_the_streamed_oracle_checks_its_inputs_before_the_first_slice():
    # raised before the first step
    phase = evolve_phase_space
    for steps in (-1, True, 2.0):
        with pytest.raises(ValueError, match="steps"):
            phase([1], [0], [2], [0], [[1]], [[0]], steps)
        # evolve takes the same step counts
        with pytest.raises(ValueError, match="steps"):
            evolve(GIVector([1]), GIVector([2]), HermitianIntMatrix.identity(1), steps)
    with pytest.raises(ValueError, match="symmetric"):
        phase([1, 0], [0, 0], [2, 0], [0, 0], [[1, 2], [0, 1]], [[0, 0], [0, 0]], 3)
    with pytest.raises(ValueError, match="antisymmetric"):
        phase([1, 0], [0, 0], [2, 0], [0, 0], [[0, 1], [1, 0]], [[0, 1], [1, 0]], 3)
    with pytest.raises(ValueError, match="dimension"):
        phase([1, 0], [0], [2], [0], [[1]], [[0]], 3)
    with pytest.raises(TypeError, match="plain integers"):
        phase([1], [0], [2], [0], [[1]], [[0.0]], 3)


def test_scalars_are_built_on_demand():
    v = GIVector([GaussianInt(1, -2), 3])
    assert v[0] == GaussianInt(1, -2) and v[1] == GaussianInt(3, 0)
    assert v[-1] == GaussianInt(3, 0)
    assert v[0:1] == (GaussianInt(1, -2),)
    assert list(v) == list(v.entries) == [GaussianInt(1, -2), GaussianInt(3, 0)]
    assert repr(v) == "GIVector([1-2i, 3+0i])"
    with pytest.raises(ValueError):
        GIVector([1.5])
    with pytest.raises(ValueError):
        GIVector([])


# -- the independent oracles stay off the kernel ------------------------


def counted_kernel(kernel, m, calls):
    """A generated kernel of step matrix m that records m at each call."""

    def counted(*args):
        calls.append(m)
        return kernel(*args)

    return counted


def test_independent_oracles_never_call_the_matvec_kernel(monkeypatch, rng):
    h = random_hermitian(rng, 3)
    traj = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 8)
    bumped = traj.replace(4, traj[4] + GIVector([1, 0, 0]))
    hs, ha = h.split()
    # E_n = H psi_n - i (psi_{n+1} - psi_{n-1}) at every interior site, by
    # the kernel before it is refused
    brackets = [[h.apply(t[n]) - (t[n + 1] - t[n - 1]).scale(IMAG_UNIT)
                 for n in range(1, t.last)] for t in (traj, bumped)]

    def refuse_split(*args):
        raise AssertionError("the forward step reached a split-form step")

    # the step matrices' generated kernels are reached only through
    # apply, so `count_applies` records every one of their calls; the
    # forward and backward steps never reach H's split step or its
    # generator
    kernel_calls = []
    for m in h._step_matrices():
        monkeypatch.setattr(m, "_kernel", counted_kernel(m._kernel, m, kernel_calls))
    with monkeypatch.context() as patched:
        patched.setattr(h, "_split_kernel", refuse_split)
        patched.setattr(automaton, "_split_line", lambda rows: refuse_split)
        patched.setattr(automaton, "_split_step", refuse_split)
        applied = count_applies(patched)
        walked = evolve(traj[0], traj[1], h, 8)
        nxt, cur = walked[-1], walked[-2]
        for _ in range(8):
            nxt, cur = cur, automaton.step_backward(nxt, cur, h)
        assert walked == traj and (cur, nxt) == (traj[0], traj[1])
        forward, back = h._step_matrices()
        assert len(kernel_calls) == len(applied) == 16
        assert all(k is want and m is want for k, (m, *_), want
                   in zip(kernel_calls, applied, [forward] * 8 + [back] * 8))

    def refuse(self, v, base=None):
        raise AssertionError("an independent oracle called GIMatrix.apply")

    def refuse_kernel(*args):
        raise AssertionError("an independent oracle called a generated kernel")

    def refuse_pass(traj, h):
        raise AssertionError("an independent oracle read the bracket pass")

    # every generated kernel raises: those of H's step matrices, and any
    # a step matrix built from here on compiles
    for m in h._step_matrices():
        monkeypatch.setattr(m, "_kernel", refuse_kernel)
    monkeypatch.setattr(gaussian, "_straight_line", lambda program: refuse_kernel)
    with pytest.raises(AssertionError, match="generated kernel"):
        evolve(traj[0], traj[1], h, 8)
    monkeypatch.setattr(GIMatrix, "apply", refuse)
    monkeypatch.setattr(automaton, "_affine", refuse)
    with monkeypatch.context() as patched:
        patched.setattr(automaton, "_kept_pass", refuse_pass)
        phase = evolve_phase_space(traj[0].re, traj[0].im, traj[1].re, traj[1].im,
                                   hs, ha, 8)
        assert phase == traj
        assert list(phase) == list(traj)
        direct = [verify_stationarity(t, h, method="direct") for t in (traj, bumped)]
        assert direct[0].ok and not direct[1].ok
        with pytest.raises(AssertionError, match="independent oracle"):
            verify_stationarity(traj, h, method="fast")
    # the checked pass predicts with the split form, so it needs no kernel
    # call either, and every verdict it gives is the kernel's; H's split
    # step is compiled here, with every generated kernel refused, by its
    # own generator
    assert h._split_kernel is None
    for t, es, report in zip((traj, bumped), brackets, direct):
        bad = [n for n, e in enumerate(es, start=1) if not e.is_zero()]
        assert bad == ([] if t is traj else [3, 4, 5])
        assert is_solution(t, h) is not bad
        assert first_recurrence_violation(t, h) == (bad[0] if bad else None)
        assert [recurrence_residual(t, h, n) for n in range(1, t.last)] == \
            [e.scale(IMAG_UNIT) for e in es]
        assert action_evaluate(t, h).as_int == sum(
            sum(map(mul, t[n].re, e.re)) + sum(map(mul, t[n].im, e.im))
            for n, e in enumerate(es, start=1))
        assert verify_stationarity(t, h, method="fast") == report
    assert h._split_kernel is not None and h._split_kernel is not refuse_kernel


@pytest.mark.parametrize("shape", H_SHAPES)
@settings(max_examples=30)
@given(data=st.data(), dim=st.integers(1, gaussian._STRAIGHT_LINE_DIM))
def test_the_generated_split_step_is_the_loop(shape, data, dim):
    # up to the cap the checked pass runs H's straight-line split step,
    # compiled on first use and kept on H; it gives the loop's parts, and
    # no coefficient is printed into its source, so a 640-digit int<->str
    # limit never trips
    hs, ha = data.draw(hermitian_splits(dim, PARTS_5000, shape))
    h = HermitianIntMatrix(matrix(hs, ha))
    assert h._split_kernel is None
    step = automaton._split_program(h)
    assert step is h._split_kernel is automaton._split_program(h)
    parts = [tuple(data.draw(PARTS_5000) for _ in range(dim)) for _ in range(4)]
    got = step(*parts)
    assert type(got) is tuple and all(type(half) is tuple for half in got)
    assert all(type(x) is int for half in got for x in half)
    assert got == automaton._split_step(automaton._split_rows(hs, ha), *parts)


def test_only_an_h_within_the_cap_keeps_a_split_step(rng):
    cap = gaussian._STRAIGHT_LINE_DIM
    for dim in (1, cap, cap + 1):
        h = random_hermitian(rng, dim)
        step = automaton._split_program(h)
        assert (h._split_kernel is step) is (dim <= cap)
        if dim > cap:
            assert h._split_kernel is None and step.func is automaton._split_step
        # H pickles as its rows alone, so a copy compiles its own step
        back = pickle.loads(pickle.dumps(h))
        assert back == h and back._split_kernel is None


# -- one bracket pass ----------------------------------------------------


def test_each_verdict_applies_h_once_per_stored_interior_slice(monkeypatch, rng):
    h = random_hermitian(rng, 3)
    y = h._step_matrices()[0]
    solution = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 12)
    applied = count_applies(monkeypatch)
    predicted = count_split_steps(monkeypatch)
    observables = [h.power(2), HermitianIntMatrix.identity(3)]
    readers = [lambda t: is_solution(t, h),
               lambda t: action_evaluate(t, h),
               lambda t: verify_stationarity(t, h, method="fast"),
               lambda t: audit_conservation(t, h, observables),
               lambda t: t.to_csv(h)]
    for order in (readers, readers[::-1]):  # verdicts first, then writer first
        for fresh in (Trajectory(solution.states),
                      solution.replace(5, solution[5] + GIVector([1, 0, 0]))):
            applied.clear()
            predicted.clear()
            for read in order:
                read(fresh)
            # together one pass: last - 1 split-form steps, each on the
            # stored slice with the one before it, and -iH never applied
            # to a stored slice: only the writer applies it, once per
            # printed slice past the seeds that the pass did not keep
            # (psi_m and psi_{m+1} at each nonzero bracket m), on Decimal
            # parts; H's only applies are the audit's commutator
            # columns, and the observables are matrices of their own
            assert len(predicted) == fresh.last - 1
            assert all(step is h._split_kernel for step, *_ in predicted)
            assert all(xp is before.re and pp is before.im and xc is s.re and pc is s.im
                       for (_, xp, pp, xc, pc), before, s
                       in zip(predicted, fresh.states, fresh.states[1:-1]))
            kept = [n for n in fresh._swept.stored if n >= 2]
            assert kept == ([] if fresh == solution else [4, 5, 6, 7])
            stepped = [(v, base) for m, v, base, _ in applied if m is y]
            assert len(stepped) == fresh.last - 1 - len(kept)
            assert all(type(part) is Decimal for v, base in stepped
                       for part in v.re + v.im + base.re + base.im)
            assert sum(m is h for m, *_ in applied) == fresh.dim * len(observables)
    applied.clear()
    predicted.clear()
    recurrence_residual(solution, h, 5)
    assert applied == [] and len(predicted) == 1
    assert predicted[0][3] is solution[5].re and predicted[0][1] is solution[4].re
