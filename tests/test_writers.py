"""The linear-time artifact writers print exactly what per-entry `str` does.

Trajectory text comes from an exact `Decimal` stream, and `field.json`
and `residual.csv` from per-record templates.  Each writer is checked
byte for byte against a plain reference, on solutions,
corrupted histories, mismatched or missing couplings and entries past
CPython's 4300-digit limit; and no writer may leave the global decimal
context or the digit limit changed, whether it returns, raises or has
its stream dropped partway.
"""

import decimal
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hamca import automaton, cli, multipartite
from hamca.automaton import Trajectory, evolve
from hamca.gaussian import (GaussianInt, GIMatrix, GIVector, HermitianIntMatrix,
                            exact_int_text)
from hamca.multipartite import (ManyTimeResidual, MultiWave, bell_state,
                                many_time_residual)
from conftest import (count_applies, count_calls, count_split_steps, random_hermitian,
                      random_vector, reference_csv, reference_json)
from test_cli import use_flipped_kernel

PAST_LIMIT = st.builds(lambda sign, hi, lo: sign * (hi * 10**4300 + lo),
                       st.sampled_from([1, -1]), st.integers(1, 2**64),
                       st.integers(0, 2**64))
# zeros are frequent, so negative coefficients meet zero entries
SMALL = st.one_of(st.just(0), st.integers(-3, 3))
PART = st.one_of(SMALL, st.integers(-2**70, 2**70))


@st.composite
def hermitians(draw, dim):
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = GaussianInt(draw(SMALL), 0)
        for j in range(i + 1, dim):
            z = GaussianInt(draw(SMALL), draw(SMALL))
            rows[i][j] = z
            rows[j][i] = z.conjugate()
    return HermitianIntMatrix(GIMatrix(rows))


def vectors(draw, dim, part=PART):
    return GIVector(GaussianInt(draw(part), draw(part)) for _ in range(dim))


@st.composite
def written_trajectories(draw):
    """(trajectory, coupling handed to the writer)."""
    # one dimension past the generated kernels', which the loop prints
    dim = draw(st.one_of(st.integers(1, 4), st.just(automaton._STRAIGHT_LINE_DIM + 1)))
    h = draw(hermitians(dim))
    s0, s1 = vectors(draw, dim), vectors(draw, dim)
    if draw(st.booleans()):
        s0 = GIVector([GaussianInt(draw(PAST_LIMIT), draw(SMALL))] + list(s0)[1:])
    traj = evolve(s0, s1, h, draw(st.integers(0, 12)))
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, traj.last))
        traj = traj.replace(n, vectors(draw, dim, st.one_of(PART, PAST_LIMIT)))
    writer_h = draw(st.sampled_from(["own", "none", "other"]))
    if writer_h == "own":
        return traj, h
    if writer_h == "none":
        return traj, None
    return traj, draw(hermitians(dim))


@settings(max_examples=60)
@given(case=written_trajectories())
def test_trajectory_text_matches_per_entry_str(case):
    traj, h = case
    text = traj.to_csv(h)
    assert text == reference_csv(traj)
    assert traj.to_json_text(h) == reference_json(traj.to_json_obj())


def test_trajectory_text_on_zero_entries_and_negative_couplings():
    h = HermitianIntMatrix(GIMatrix([[-1, 0], [0, -2]]))
    zero = GIVector([0, 0])
    traj = Trajectory([zero, zero, zero, GIVector([0, -1]), zero])
    for coupling in (h, None):
        text = traj.to_csv(coupling)
        assert text == reference_csv(traj)
        assert "-0" not in text
        assert traj.to_json_text(coupling) == reference_json(traj.to_json_obj())


def test_trajectory_text_without_a_coupling_applies_nothing(monkeypatch):
    h = HermitianIntMatrix(GIMatrix([[2, 1], [1, -1]]))
    traj = evolve(GIVector([3, -1]), GIVector([0, 5]), h, 20)
    want_csv, want_json = traj.to_csv(h), traj.to_json_text(h)
    applied = count_applies(monkeypatch)
    assert traj.to_csv() == want_csv
    assert traj.to_json_text() == want_json
    # nothing to a stored slice: the kept coupling's -iH steps only the
    # printer's Decimal slices, once per slice past the seeds
    y = automaton._step(h, "-iH")
    assert len(applied) == 2 * (traj.last - 1)
    assert all(m is y and type(v.re[0]) is type(base.re[0]) is decimal.Decimal
               for m, v, base, _ in applied)


def test_the_printer_steps_with_the_kernel_it_is_given(monkeypatch, rng):
    # a kernel with one sign flipped makes other slices than the true
    # ones; given the seeds alone, the printer must print the slices the
    # kernel makes, not a solution of its own
    use_flipped_kernel(monkeypatch)
    h = random_hermitian(rng, 3)
    assert any(im_terms for _, im_terms in h._program)
    mutant = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 12)
    assert not automaton.is_solution(mutant, h)
    texts = automaton._decimal_slices(h, len(mutant), {0: mutant[0], 1: mutant[1]})
    with exact_int_text():
        assert list(texts) == [(tuple(map(str, s.re)), tuple(map(str, s.im)))
                               for s in mutant]


def test_a_faulty_kernels_slices_print_as_made(monkeypatch, rng):
    # the split form finds the flipped kernel's slices off the rule, and
    # the text must still be the slices the kernel made, with the
    # coupling given, kept or replaced by another
    use_flipped_kernel(monkeypatch)
    h = random_hermitian(rng, 3)
    mutant = evolve(random_vector(rng, 3), random_vector(rng, 3), h, 12)
    assert automaton.first_recurrence_violation(mutant, h) == 1
    for coupling in (h, None, random_hermitian(rng, 3)):
        assert mutant.to_csv(coupling) == reference_csv(mutant)
        assert mutant.to_json_text(coupling) == reference_json(mutant.to_json_obj())


def test_trajectory_text_without_a_coupling_reads_the_kept_one(monkeypatch):
    h = HermitianIntMatrix(GIMatrix([[2, 1], [1, -1]]))
    solution = evolve(GIVector([3, -1]), GIVector([0, 5]), h, 20)
    corrupt = solution.replace(7, solution[7] + GIVector([1, 0]))
    for traj in (solution, corrupt):
        assert automaton.is_solution(traj, h) is (traj is solution)
        want_csv, want_json = traj.to_csv(h), traj.to_json_text(h)
        predicted = count_split_steps(monkeypatch)
        streams = count_calls(monkeypatch, automaton, "_decimal_slices")
        assert traj.to_csv() == want_csv
        assert traj.to_json_text() == want_json
        # the linear path: the kept pass's coupling and the slices it
        # kept, and no new sweep
        kept = traj._swept.stored
        assert sorted(kept) == ([0, 1] if traj is solution else [0, 1, 6, 7, 8, 9])
        assert predicted == [] and \
            [s[0] is h and s[2] is kept for s in streams] == [True, True]
        monkeypatch.undo()
    # a trajectory never checked prints from the slices alone
    fresh = Trajectory(solution.states)
    streams = count_calls(monkeypatch, automaton, "_decimal_slices")
    assert fresh.to_csv() == solution.to_csv(h)
    assert streams[0][0] is None
    assert all(streams[0][2][n] is s for n, s in enumerate(fresh))


def test_trajectory_writer_rejects_a_mismatched_coupling():
    traj = Trajectory([GIVector([1]), GIVector([2])])
    with pytest.raises(ValueError):
        traj.to_csv(HermitianIntMatrix.identity(2))


@st.composite
def waves(draw):
    parts = draw(st.integers(1, 3))
    dims = [draw(st.integers(1, 3)) for _ in range(parts)]
    shape = [draw(st.integers(1, 3)) for _ in range(parts)]
    size = 1
    for n in dims + shape:
        size *= n
    values = [GaussianInt(draw(PART), draw(PART)) for _ in range(size)]
    if draw(st.booleans()):
        values[draw(st.integers(0, size - 1))] = GaussianInt(draw(PAST_LIMIT), 0)
    return MultiWave(dims, shape, values)


@settings(max_examples=40)
@given(wave=waves())
def test_field_json_matches_indented_json_dumps(wave):
    assert wave.to_json_text() == reference_json(wave.to_json_obj())


def test_bell_field_json_matches_indented_json_dumps(rng):
    h = random_hermitian(rng, 2)
    psi = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 5)
    phi = evolve(random_vector(rng, 2), random_vector(rng, 2), h, 5)
    wave = bell_state(psi, phi)
    assert wave.to_json_text() == reference_json(wave.to_json_obj())


def reference_residual_csv(res):
    m = res.field.parts
    header = ([f"n{k + 1}" for k in range(m)]
              + [f"alpha{k + 1}" for k in range(m)] + ["re", "im"])
    lines = [",".join(header)]
    with exact_int_text():
        for clocks, alphas, v in res.field.items():
            cells = [n + 1 for n in clocks] + list(alphas) + [v.re, v.im]
            lines.append(",".join(str(c) for c in cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=40)
@given(wave=waves())
def test_residual_csv_matches_the_cell_join(wave):
    res = ManyTimeResidual(field=wave)
    assert res.to_csv() == reference_residual_csv(res)


def test_residual_csv_of_a_computed_residual(rng):
    hams = [random_hermitian(rng, 2), random_hermitian(rng, 1)]
    values = [GaussianInt(rng.randint(-2, 2), 0) for _ in range(2 * 1 * 4 * 5)]
    res = many_time_residual(MultiWave([2, 1], [4, 5], values), hams)
    assert not res.is_zero
    assert res.to_csv() == reference_residual_csv(res)


@settings(max_examples=40)
@given(data=st.data(), parts=st.integers(1, 4))
def test_zero_residual_text_is_the_zero_residual_csv(data, parts):
    # what the forked writer stages where the config predicts a zero residual
    dims = [data.draw(st.integers(1, 3)) for _ in range(parts)]
    shape = [data.draw(st.integers(3, 5 if parts < 4 else 4)) for _ in range(parts)]
    zero = ManyTimeResidual(field=MultiWave(dims, [c - 2 for c in shape]))
    assert "".join(cli._zero_residual_pieces(MultiWave(dims, shape))) == zero.to_csv()


# -- no writer leaks its arithmetic or digit-limit settings -----------------


def global_state():
    ctx = decimal.getcontext()
    return (ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax, ctx.capitals, ctx.clamp,
            dict(ctx.traps), dict(ctx.flags),
            getattr(sys, "get_int_max_str_digits", lambda: 0)())


def failing_after(calls, fn):
    count = [0]

    def wrapper(*args, **kwargs):
        count[0] += 1
        if count[0] > calls:
            raise RuntimeError("writer interrupted")
        return fn(*args, **kwargs)

    return wrapper


def writer_cases():
    """(writer, module or class, attribute it calls while writing)."""
    h = HermitianIntMatrix(GIMatrix([[2, 1], [1, -1]]))
    traj = evolve(GIVector([10**5100, 1]), GIVector([0, -1]), h, 6)
    wave = MultiWave([2], [4], [GaussianInt(10**5100 * k, -k) for k in range(8)])
    return [
        (lambda: traj.to_csv(h), automaton, "Decimal"),
        (lambda: traj.to_json_text(h), automaton, "Decimal"),
        (lambda: traj.to_csv(None), automaton, "Decimal"),
        (wave.to_json_text, multipartite, "_json_ints"),
        (ManyTimeResidual(field=wave).to_csv, multipartite, "_residual_csv_cells"),
        # the streams the CLI writes from, consumed partway and dropped
        (partway(lambda: automaton._csv_pieces(traj._decimal_texts(h))),
         automaton, "Decimal"),
        (partway(lambda: automaton._json_pieces(traj._decimal_texts(h), 2)),
         automaton, "Decimal"),
        (partway(lambda: automaton._csv_pieces(traj._decimal_texts(None))),
         automaton, "Decimal"),
        (partway(wave._json_pieces), multipartite, "_json_ints"),
        (partway(ManyTimeResidual(field=wave)._csv_pieces), multipartite,
         "_residual_csv_cells"),
    ]


def partway(stream):
    """Pull two pieces under the consumer's lift, then drop the stream."""

    def write():
        with exact_int_text():
            pieces = stream()
            next(pieces)
            next(pieces)
        del pieces  # unfinished: closed here, outside the lift

    return write


@pytest.fixture
def distinct_digit_limit():
    """A digit limit of 5000, so that a leaked lift shows as a change."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(5000)
    try:
        yield
    finally:
        set_limit(old)


@pytest.mark.parametrize("case", range(10))
def test_writers_leave_the_global_settings_unchanged(case, monkeypatch,
                                                     distinct_digit_limit):
    write, owner, name = writer_cases()[case]
    original = getattr(owner, name)
    with decimal.localcontext() as mine:
        # a caller's context that no writer would make by itself
        mine.prec = 41
        mine.flags[decimal.Inexact] = True
        before = global_state()
        write()
        assert global_state() == before
        seen = []

        def spy(*args, **kwargs):
            seen.append(global_state()[:8] == before[:8])
            return original(*args, **kwargs)

        # mid-stream, the thread's decimal context is still the caller's
        monkeypatch.setattr(owner, name, spy)
        write()
        assert seen and all(seen)
        monkeypatch.setattr(owner, name, failing_after(len(seen) // 2, original))
        with pytest.raises(RuntimeError):
            write()
        assert global_state() == before
