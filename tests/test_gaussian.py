"""Ring arithmetic, matrix kernel and literal-format round trips."""

import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hamca import automaton
from hamca.gaussian import (
    GaussianInt,
    GIVector,
    GIMatrix,
    HermitianIntMatrix,
    IMAG_UNIT,
    int_matrix_is_antisymmetric,
    int_matrix_is_symmetric,
)
from conftest import (COEFF, PARTS_5000, STEP_MATRICES, count_calls, hermitian_splits,
                      random_gaussian_int, random_hermitian, random_matrix, random_vector)


def gi(re, im=0):
    return GaussianInt(re, im)


def test_scalar_arithmetic_examples():
    assert gi(1, 2) * gi(3, -1) == gi(5, 5)
    assert gi(2, -3).conjugate() == gi(2, 3)
    assert gi(0, 0) + gi(7, -4) == gi(7, -4)


def test_conjugation_is_an_involution(rng):
    for _ in range(100):
        z = random_gaussian_int(rng, 10**6)
        assert z.conjugate().conjugate() == z


def test_ring_axioms_on_random_triples(rng):
    for _ in range(300):
        a = random_gaussian_int(rng, 50)
        b = random_gaussian_int(rng, 50)
        c = random_gaussian_int(rng, 50)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == gi(0)
        assert a * gi(1) == a


def test_int_mixing_and_mul_i():
    assert 2 * gi(1, 1) == gi(2, 2)
    assert gi(1, 1) + 1 == gi(2, 1)
    assert 1 - gi(0, 1) == gi(1, -1)
    assert gi(3, -2) * gi(0, 1) == gi(2, 3)
    assert gi(3, 4).norm2() == 25


def test_divide_exact():
    assert gi(6, -4).divide_exact(2) == gi(3, -2)
    with pytest.raises(ValueError):
        gi(5, 0).divide_exact(2)
    with pytest.raises(ZeroDivisionError):
        gi(2, 2).divide_exact(0)
    assert gi(-6, 9).divide_exact(-3) == gi(2, -3)


@pytest.mark.parametrize("k", [2.0, 3.0, 0.0, True, "2", None])
def test_divide_exact_takes_a_plain_int_divisor(k):
    # 2.0 used to fail on the float parts it made, 3.0 as "not divisible"
    with pytest.raises(ValueError, match="^k must be a plain integer$"):
        gi(4, 6).divide_exact(k)


def test_matrix_vector_examples():
    flip = GIMatrix.from_pairs([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
    assert flip.apply(GIVector([gi(1), gi(0)])) == GIVector([gi(0), gi(1)])
    ident = GIMatrix.identity(3)
    v = GIVector([gi(2, 1), gi(-1, 4), gi(0, -2)])
    assert ident.apply(v) == v
    m = GIMatrix([[gi(1), gi(0, 1)], [gi(0, -1), gi(2)]])
    assert m.apply(GIVector([gi(1), gi(1)])) == GIVector([gi(1, 1), gi(2, -1)])


def test_matrix_vector_dimension_mismatch():
    m = GIMatrix.identity(2)
    with pytest.raises(ValueError):
        m.apply(GIVector([gi(1)]))
    for base in (GIVector([gi(1)]), GIVector([gi(1)] * 3)):
        with pytest.raises(ValueError, match="base"):
            m.apply(GIVector([gi(1), gi(2)]), base)


# parts up to 2**2000, with the zero and unit values the program skips or
# multiplies by one
WIDE = st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-3, 3),
                 st.integers(-2**2000, 2**2000))


def reference_affine(rows, v, base):
    """sum_j M_ij v_j + base_i, on (re, im) pairs of plain ints."""
    out = []
    for row, (br, bi) in zip(rows, base):
        r, i = br, bi
        for (mr, mi), (xr, xi) in zip(row, v):
            r += mr * xr - mi * xi
            i += mr * xi + mi * xr
        out.append((r, i))
    return out


@settings(max_examples=80)
@given(data=st.data(), dim=st.integers(1, 6))
def test_the_affine_kernel_is_the_product_plus_the_base(data, dim):
    # H with zero, unit and 2000-bit coefficients, and the step matrices
    # -iH and iH made from it
    hs, ha = data.draw(hermitian_splits(dim, WIDE))
    h = HermitianIntMatrix([[gi(s, a) for s, a in zip(rs, ra)]
                            for rs, ra in zip(hs, ha)])
    v, base = ([(data.draw(WIDE), data.draw(WIDE)) for _ in range(dim)]
               for _ in range(2))
    vec, bvec = GIVector([gi(*p) for p in v]), GIVector([gi(*p) for p in base])
    for m in (h, automaton._step(h, "-iH"), automaton._step(h, "iH")):
        rows = [list(zip(r.re, r.im)) for r in m.rows]
        got = m.apply(vec, bvec)
        assert type(got.re) is type(got.im) is tuple
        assert all(type(x) is int for x in got.re + got.im)
        assert got == m.apply(vec) + bvec
        assert list(zip(got.re, got.im)) == reference_affine(rows, v, base)
        assert m.apply(vec) == GIVector([gi(*p) for p in
                                         reference_affine(rows, v, [(0, 0)] * dim)])


# one coefficient past CPython's default 4,300-digit int<->str limit
PAST_TEXT_LIMIT = 2**14300 + 3**9001  # 4,305 decimal digits


@settings(max_examples=60)
@given(data=st.data(), dim=st.integers(1, automaton._STRAIGHT_LINE_DIM))
def test_the_generated_kernel_is_the_loop(data, dim):
    # every step of an H up to the cap runs a generated function of its
    # matrix's program, kept on H, and it gives the loop's parts, with a
    # zero base and another; no coefficient is printed into its source,
    # so the int<->str limit never trips
    if hasattr(sys, "get_int_max_str_digits"):
        assert 0 < sys.get_int_max_str_digits() <= 4300
    assert PAST_TEXT_LIMIT > 10**4300
    hs, ha = data.draw(hermitian_splits(dim, PARTS_5000))
    if data.draw(st.booleans()):
        a = data.draw(st.integers(0, dim - 1))
        hs[a][a] += data.draw(st.sampled_from([1, -1])) * PAST_TEXT_LIMIT
    h = HermitianIntMatrix([[gi(s, a) for s, a in zip(rs, ra)]
                            for rs, ra in zip(hs, ha)])
    vec, bvec = (GIVector([gi(data.draw(PARTS_5000), data.draw(PARTS_5000))
                           for _ in range(dim)]) for _ in range(2))
    assert h._steps == {}
    for kind, matrix in STEP_MATRICES.items():
        step = automaton._step(h, kind)
        assert step.__name__ == "kernel" and step is automaton._step(h, kind)
        loop = h._steps[matrix]  # the same program, which `apply` loops over
        for base in (GIVector.zero(dim), bvec):
            got = step(vec, base)
            assert type(got) is GIVector
            assert type(got.re) is type(got.im) is tuple
            assert all(type(x) is int for x in got.re + got.im)
            assert got == loop.apply(vec, base)


def test_only_the_step_matrices_of_a_small_h_get_a_generated_kernel(rng):
    cap = automaton._STRAIGHT_LINE_DIM
    for dim in (1, cap, cap + 1):
        h = random_hermitian(rng, dim)
        steps = [automaton._step(h, kind) for kind in STEP_MATRICES]
        assert [step.__name__ == "kernel" for step in steps] == [dim <= cap] * 2
        # H keeps them, and no other matrix keeps a step program
        turns = [h._steps[matrix] for matrix in STEP_MATRICES.values()]
        assert h.power(2)._steps == {} and all(type(m) is GIMatrix for m in turns)
        assert not hasattr(h @ turns[0], "_steps") and not hasattr(turns[0].scale(1), "_steps")


def test_a_matrix_pickles_with_its_step_matrices_built(rng):
    h = random_hermitian(rng, 3)
    for kind in (*STEP_MATRICES, "split"):
        automaton._step(h, kind)
    turns = [h._steps[matrix] for matrix in STEP_MATRICES.values()]
    for m in (h, *turns):
        back = pickle.loads(pickle.dumps(m))
        assert type(back) is type(m) and back == m and getattr(back, "_steps", {}) == {}
    again = pickle.loads(pickle.dumps(h))
    assert [automaton._step(again, matrix) for matrix in STEP_MATRICES.values()] == turns
    assert all(automaton._step(again, kind).__name__ == "kernel" for kind in STEP_MATRICES)


def test_the_step_matrices_are_built_once_and_kept(rng):
    h = random_hermitian(rng, 3)
    forward, back = (automaton._step(h, matrix) for matrix in STEP_MATRICES.values())
    assert forward == h.scale(-IMAG_UNIT) and back == h.scale(IMAG_UNIT)
    assert automaton._step(h, "-iH") is forward and automaton._step(h, "iH") is back


@settings(max_examples=50)
@given(dim=st.integers(1, 4), bits=st.sampled_from([2, 64, 1500]),
       rng=st.randoms(use_true_random=False))
def test_inner_re_is_the_real_part_of_inner(dim, bits, rng):
    u = random_vector(rng, dim, 2 ** bits)
    v = random_vector(rng, dim, 2 ** bits)
    assert u.inner_re(v) == u.inner(v).re == v.inner_re(u)


def test_inner_re_dimension_mismatch():
    with pytest.raises(ValueError):
        GIVector([gi(1)]).inner_re(GIVector([gi(1), gi(2)]))


def test_commutator_examples():
    x = GIMatrix([[gi(0), gi(1)], [gi(1), gi(0)]])
    z = GIMatrix([[gi(1), gi(0)], [gi(0), gi(-1)]])
    assert x.commutator(x).is_zero()
    assert GIMatrix.identity(2).commutator(z).is_zero()
    assert x.commutator(z) == GIMatrix([[gi(0), gi(-2)], [gi(2), gi(0)]])


def test_commutator_antisymmetry(rng):
    for _ in range(50):
        a = random_matrix(rng, rng.randint(1, 4))
        b = random_matrix(rng, a.dim)
        assert a.commutator(b) == -b.commutator(a)


def test_hermitian_validation():
    with pytest.raises(ValueError):
        HermitianIntMatrix.from_pairs([[[0, 0], [0, 1]], [[0, 1], [0, 0]]])
    h = HermitianIntMatrix.from_pairs([[[1, 0], [2, 1]], [[2, -1], [3, 0]]])
    assert h.dim == 2


def test_a_self_adjoint_matrix_is_a_gimatrix():
    pairs = [[[1, 0], [2, 1]], [[2, -1], [3, 0]]]
    h = HermitianIntMatrix.from_pairs(pairs)
    plain = GIMatrix.from_pairs(pairs)
    assert isinstance(h, GIMatrix) and not hasattr(h, "matrix")
    assert "apply" not in vars(HermitianIntMatrix)  # the one kernel, inherited
    assert h == plain and hash(h) == hash(plain)
    assert HermitianIntMatrix(plain) == h == HermitianIntMatrix(plain.rows)
    for kept in (h.power(0), h.power(3), HermitianIntMatrix.identity(2),
                 HermitianIntMatrix.zeros(2), HermitianIntMatrix.from_pairs(pairs)):
        assert type(kept) is HermitianIntMatrix
    for ring in (h + h, h - h, -h, h @ h, h.scale(gi(0, 1)), h.kron(h)):
        assert type(ring) is GIMatrix
    assert h.scale(gi(0, 1)) == plain.scale(gi(0, 1))


def test_split_examples():
    h = HermitianIntMatrix.from_pairs([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
    hs, ha = h.split()
    assert hs == ((0, 1), (1, 0))
    assert ha == ((0, 0), (0, 0))

    h = HermitianIntMatrix.from_pairs([[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
    hs, ha = h.split()
    assert hs == ((0, 0), (0, 0))
    assert ha == ((0, 1), (-1, 0))

    h = HermitianIntMatrix.from_pairs([[[1, 0], [2, 1]], [[2, -1], [3, 0]]])
    hs, ha = h.split()
    assert hs == ((1, 2), (2, 3))
    assert ha == ((0, 1), (-1, 0))


def test_split_recombine_roundtrip(rng):
    for _ in range(50):
        h = random_hermitian(rng, rng.randint(1, 5))
        hs, ha = h.split()
        assert int_matrix_is_symmetric(hs)
        assert int_matrix_is_antisymmetric(ha)
        assert HermitianIntMatrix(GIMatrix(
            [[GaussianInt(s, a) for s, a in zip(rs, ra)]
             for rs, ra in zip(hs, ha)])) == h


def test_hermitian_diagonal_is_real(rng):
    for _ in range(20):
        h = random_hermitian(rng, rng.randint(1, 5))
        for i in range(h.dim):
            assert h.entry(i, i).im == 0


def test_kron_flattening_is_row_major():
    a = GIMatrix([[gi(1), gi(2)], [gi(3), gi(4)]])
    b = GIMatrix([[gi(0), gi(1)], [gi(1), gi(0)]])
    k = a.kron(b)
    assert k.dim == 4
    # entry ((a1,b1),(a2,b2)) = a[a1][a2] * b[b1][b2] at flat a1*2+b1, a2*2+b2
    for a1 in range(2):
        for b1 in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    assert k.entry(a1 * 2 + b1, a2 * 2 + b2) == \
                        a.entry(a1, a2) * b.entry(b1, b2)


def test_matrix_power():
    x = GIMatrix([[gi(0), gi(1)], [gi(1), gi(0)]])
    assert x.power(0) == GIMatrix.identity(2)
    assert x.power(2) == GIMatrix.identity(2)
    assert x.power(3) == x


@pytest.mark.parametrize("k", [True, 2.0, "2", None])
def test_matrix_power_takes_a_plain_int(k):
    x = GIMatrix([[gi(0), gi(1)], [gi(1), gi(0)]])
    for m in (x, HermitianIntMatrix(x)):
        with pytest.raises(ValueError, match="matrix power must be a plain integer"):
            m.power(k)
        with pytest.raises(ValueError, match="negative matrix powers"):
            m.power(-1)


def test_pair_roundtrip_is_bit_exact(rng):
    big = 10**60 + 12345
    z = gi(big, -(big + 7))
    assert GaussianInt.from_pair(z.to_pair()) == z
    v = random_vector(rng, 4, 10**40)
    assert GIVector.from_pairs(v.to_pairs()) == v
    m = random_matrix(rng, 3, 10**40)
    assert GIMatrix.from_pairs(m.to_pairs()) == m


def test_pair_rejects_non_integers():
    with pytest.raises(ValueError):
        GaussianInt.from_pair([1.0, 2])
    with pytest.raises(ValueError):
        GaussianInt.from_pair([True, 2])
    with pytest.raises(ValueError):
        GaussianInt.from_pair([1, 2, 3])
    with pytest.raises(ValueError):
        GIVector.from_pairs([])


def test_real_scalars_hash_like_the_ints_they_equal():
    assert gi(3) == 3 and hash(gi(3)) == hash(3)
    assert len({gi(3), 3}) == 1
    assert len({gi(-7), -7, gi(-7, 0)}) == 1
    assert len({gi(3, 1), 3}) == 2
    assert {gi(0): "zero"}[0] == "zero"


@pytest.mark.parametrize("parts", [(1.5,), (2, 0.0), (True,), (1, False),
                                   ("3",), (1, "0")])
def test_scalar_constructor_rejects_non_integer_parts(parts):
    with pytest.raises(TypeError):
        GaussianInt(*parts)


@pytest.mark.parametrize("make", [GIVector.zero, GIMatrix.identity, GIMatrix.zeros,
                                  HermitianIntMatrix.identity, HermitianIntMatrix.zeros])
@pytest.mark.parametrize("dim", [True, False, 0, -1, 2.0, "2", None])
def test_sizes_are_plain_ints_of_at_least_one(make, dim):
    # True used to give dimension 1 and 2.0 a raw TypeError
    with pytest.raises(ValueError, match=r"^dimension must be a plain integer >= 1$"):
        make(dim)


# -- every matrix operation against a per-scalar reference --------------

# past CPython's default 4,300-digit int<->str limit
HUGE = st.one_of(st.integers(10**4300, 10**4310), st.integers(-10**4310, -10**4300))


def scalar_rows(hs, ha):
    return [[gi(s, a) for s, a in zip(rs, ra)] for rs, ra in zip(hs, ha)]


def reference_product(a, b):
    d = range(len(a))
    return [[sum((a[i][k] * b[k][j] for k in d), gi(0)) for j in d] for i in d]


def reference_kron(a, b):
    db = len(b)
    return [[a[i // db][j // db] * b[i % db][j % db] for j in range(len(a) * db)]
            for i in range(len(a) * db)]


@settings(max_examples=60)
@given(data=st.data(), left=st.integers(1, 4), right=st.integers(1, 4))
def test_kron_matches_the_reference_on_any_entries(data, left, right):
    # zero, real, imaginary and complex entries, parts up to 2**700
    ra, rb = ([[gi(data.draw(COEFF), data.draw(COEFF)) for _ in range(d)]
               for _ in range(d)] for d in (left, right))
    assert_entries(GIMatrix(ra).kron(GIMatrix(rb)), reference_kron(ra, rb))


def entrywise(op, *mats):
    return [[op(*es) for es in zip(*rows)] for rows in zip(*mats)]


def assert_entries(m, want):
    assert type(m.rows) is tuple and all(type(r) is GIVector for r in m.rows)
    assert all(type(x) is int for r in m.rows for x in r.re + r.im)
    assert m.dim == len(want)
    assert [[m.entry(i, j) for j in range(m.dim)] for i in range(m.dim)] == want


@settings(max_examples=40)
@given(data=st.data(), dim=st.integers(1, 6), small=st.integers(1, 3),
       k=st.integers(0, 3))
def test_matrix_operations_match_a_per_scalar_reference(data, dim, small, k):
    coeff = st.one_of(COEFF, HUGE)
    ra = scalar_rows(*data.draw(hermitian_splits(dim, coeff)))
    rb = scalar_rows(*data.draw(hermitian_splits(dim, coeff)))
    rs = scalar_rows(*data.draw(hermitian_splits(small, coeff)))
    z = gi(data.draw(coeff), data.draw(coeff))
    rc = [[z * x for x in row] for row in ra]  # self-adjoint only if z is real
    a, b, c, s = GIMatrix(ra), GIMatrix(rb), GIMatrix(rc), GIMatrix(rs)

    assert_entries(c.scale(z), [[z * x for x in row] for row in rc])
    assert_entries(a.scale(z), rc)
    assert_entries(c @ b, reference_product(rc, rb))
    assert_entries(b @ c, reference_product(rb, rc))
    assert_entries(c.commutator(b), entrywise(
        lambda x, y: x - y, reference_product(rc, rb), reference_product(rb, rc)))
    want = [[gi(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(k):
        want = reference_product(want, rc)
    assert_entries(c.power(k), want)
    assert_entries(c.kron(s), reference_kron(rc, rs))
    assert_entries(s.kron(c), reference_kron(rs, rc))
    assert_entries(c + b, entrywise(lambda x, y: x + y, rc, rb))
    assert_entries(c - b, entrywise(lambda x, y: x - y, rc, rb))
    assert_entries(-c, entrywise(lambda x: -x, rc))

    for m, rows in ((a, ra), (c, rc), (c @ b, reference_product(rc, rb))):
        d = range(m.dim)
        assert m.is_hermitian() == all(rows[i][j] == rows[j][i].conjugate()
                                       for i in d for j in d)
        assert m.is_zero() == all(not x for row in rows for x in row)
        pairs = m.to_pairs()
        assert pairs == [[x.to_pair() for x in row] for row in rows]
        assert GIMatrix.from_pairs(pairs) == m and GIMatrix(m.rows) == m
    assert a.is_hermitian()

    h = HermitianIntMatrix(a)
    for same in (h, HermitianIntMatrix(a.rows), HermitianIntMatrix(ra),
                 GIMatrix(a.rows), GIMatrix.from_pairs(a.to_pairs())):
        assert same == a and a == same and hash(same) == hash(a)
        assert {a: "found"}[same] == "found"
    assert (c == a) == (rc == ra) and (b == a) == (rb == ra)


def test_matrix_products_build_no_scalars(monkeypatch, rng):
    h = random_hermitian(rng, 3, 2**700)
    g = random_hermitian(rng, 2)
    m = random_matrix(rng, 3, 2**700)
    built = count_calls(monkeypatch, GaussianInt, "__init__")
    for name, op in [("@", lambda: (h @ m, m @ h)),
                     ("power", lambda: (h.power(3), m.power(2))),
                     ("commutator", lambda: h.commutator(m)),
                     ("kron", lambda: (h.kron(g), g.kron(m))),
                     ("split", h.split)]:
        op()
        assert built == [], f"{name} built {len(built)} scalars"
