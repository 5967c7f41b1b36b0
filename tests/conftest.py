"""Shared generators for randomized exact-arithmetic checks."""

import json
import random

import pytest
from hypothesis import settings, strategies as st

from hamca import automaton
from hamca.automaton import Trajectory
from hamca.gaussian import GaussianInt, GIVector, GIMatrix, HermitianIntMatrix, exact_int_text

# Big-integer examples on a shared host can exceed Hypothesis's default
# 200 ms deadline without anything being wrong; each property test
# bounds its own max_examples instead.
settings.register_profile("hamca", deadline=None)
settings.load_profile("hamca")


def random_gaussian_int(rng: random.Random, bound: int = 3) -> GaussianInt:
    return GaussianInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_vector(rng: random.Random, dim: int, bound: int = 3) -> GIVector:
    return GIVector(random_gaussian_int(rng, bound) for _ in range(dim))


def random_hermitian(rng: random.Random, dim: int, bound: int = 3) -> HermitianIntMatrix:
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = GaussianInt(rng.randint(-bound, bound), 0)
        for j in range(i + 1, dim):
            z = random_gaussian_int(rng, bound)
            rows[i][j] = z
            rows[j][i] = z.conjugate()
    return HermitianIntMatrix(GIMatrix(rows))


def random_trajectory(rng: random.Random, dim: int, slices: int,
                      bound: int = 3) -> Trajectory:
    """Independent random slices: almost never a solution for any H."""
    return Trajectory(random_vector(rng, dim, bound) for _ in range(slices))


def random_matrix(rng: random.Random, dim: int, bound: int = 3) -> GIMatrix:
    return GIMatrix([[random_gaussian_int(rng, bound) for _ in range(dim)]
                     for _ in range(dim)])


def reference_csv(traj):
    """`Trajectory.to_csv` text, per-entry `str` of each part."""
    with exact_int_text():
        rows = [f"{n},{a},{z.re},{z.im}" for n, s in enumerate(traj)
                for a, z in enumerate(s)]
    return "\n".join(["n,alpha,re,im"] + rows) + "\n"


def reference_json(obj):
    """Indented, key-sorted `json.dumps` text, as the JSON writers print it."""
    with exact_int_text():
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call to `owner.name` (a module
    function or a method) while still running it."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


SMALL = st.integers(-3, 3)
BIG = st.one_of(st.integers(2**600, 2**700), st.integers(-2**700, -2**600))
COEFF = st.one_of(st.just(0), SMALL, BIG)
# parts up to 2**5000 (1,506 decimal digits), with zero and unit values
PARTS_5000 = st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-3, 3),
                       st.integers(-2**5000, 2**5000))
# "real tridiagonal" has hA all zero, as the bench H does; "imaginary"
# is i*hA with a zero diagonal; "repeated" is as dense as "complex", with
# every entry part one of +-c1 and +-c2, so the generated steps share
# their products |c| * x, across opposite signs too
H_SHAPES = ("complex", "real tridiagonal", "imaginary", "diagonal", "zero", "repeated")


@st.composite
def hermitian_splits(draw, dim, coeff=COEFF, shape=None):
    """(hS, hA), symmetric and antisymmetric, of a self-adjoint hS + i*hA,
    of the given shape or one of `H_SHAPES` drawn."""
    if shape is None:
        shape = draw(st.sampled_from(H_SHAPES))
    if shape == "repeated":
        pair = draw(coeff), draw(coeff)
        coeff = st.sampled_from([sign * c for c in pair for sign in (1, -1)])
    dense = shape in ("complex", "repeated")
    hs = [[0] * dim for _ in range(dim)]
    ha = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        if dense or shape in ("real tridiagonal", "diagonal"):
            hs[i][i] = draw(coeff)
        for j in range(i + 1, dim):
            if dense or (shape == "real tridiagonal" and j == i + 1):
                hs[i][j] = hs[j][i] = draw(coeff)
            if dense or shape == "imaginary":
                ha[i][j] = draw(coeff)
                ha[j][i] = -ha[i][j]
    return hs, ha


@pytest.fixture
def rng():
    return random.Random(20240817)


# the matrix of each of H's affine steps, as `automaton._step` names them
STEP_MATRICES = {"forward": "-iH", "back": "iH"}


def wrap_steps(monkeypatch, kinds, wrap):
    """Hand out each program of `kinds` that `automaton._step` gives as
    `wrap(h, kind, program)`, and every other program as it is; the
    programs H keeps are not changed."""
    step = automaton._step

    def wrapped(h, kind):
        program = step(h, kind)
        return wrap(h, kind, program) if kind in kinds else program

    monkeypatch.setattr(automaton, "_step", wrapped)


def step_matrix(h, kind):
    """The matrix, -iH or iH, of H's kept affine step `kind`."""
    return h._steps[STEP_MATRICES[kind]]


def count_applies(monkeypatch):
    """Record (matrix, vector, base, result) of every call to the matvec
    kernel, while still running it: through `GIMatrix.apply`, through
    the recurrence's own binding of it (`automaton._affine`, which H's
    steps call above the cap), or as a step of a small H, which runs
    generated code in its place."""
    calls = []
    kernel = GIMatrix.apply

    def counted(m, v, base=None):
        out = kernel(m, v, base)
        calls.append((m, v, base, out))
        return out

    def generated(h, kind, step):
        if h.dim > automaton._STRAIGHT_LINE_DIM:
            return step
        m = step_matrix(h, kind)

        def counted_step(v, base):
            out = step(v, base)
            calls.append((m, v, base, out))
            return out

        return counted_step

    monkeypatch.setattr(GIMatrix, "apply", counted)
    monkeypatch.setattr(automaton, "_affine", counted)
    wrap_steps(monkeypatch, STEP_MATRICES, generated)
    return calls


def count_split_steps(monkeypatch):
    """Record (step, psi_n, psi_{n-1}) of every split-form step a checked
    pass or `recurrence_residual` runs, while still running it: the step
    H keeps (`automaton._step(h, "split")`), its straight-line function
    up to the cap and the loop `_split_step` above it."""
    calls = []

    def counted_split(h, kind, step):
        def counted(psi, base):
            calls.append((step, psi, base))
            return step(psi, base)

        return counted

    wrap_steps(monkeypatch, ("split",), counted_split)
    return calls
