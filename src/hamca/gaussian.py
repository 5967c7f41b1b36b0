"""Exact Gaussian-integer scalars, vectors and matrices.

Every dynamical quantity in this package is a complex integer a + ib
with arbitrary-precision integer parts.  Gaussian integers form a
commutative ring, not a field, so the operations provided here are ring
operations: add, subtract, multiply, negate, conjugate.  Nothing is
ever rounded and nothing can overflow.

`GaussianInt` is the scalar at the API edges.  Vectors are stored
split, as two tuples of plain ints (`GIVector.re`, `GIVector.im`), a
matrix as a tuple of such rows (`GIMatrix.rows`), and every operation
works on those tuples; `GIMatrix.apply`, the one matvec kernel, runs a
per-row program of nonzero real and imaginary coefficients compiled
when the matrix is built, and gives M v or, with a base, M v + base in
the same pass.  `_straight_line` generates a program's sums as one
straight-line function that computes each distinct product |c| * x
once, the form `automaton` steps a small H with.
Scalars are built only when a caller indexes or iterates.  A
self-adjoint coupling or observable is a `HermitianIntMatrix`, the
`GIMatrix` subtype whose constructor checks it: symmetric real part,
antisymmetric imaginary part.

The literal encoding shared with the CLI writes a scalar as the
two-element pair [re, im], a vector as a list of pairs, and a matrix as
a row-major list of rows of pairs.  Encoding and decoding round-trip
bit-exactly for integers of any size.
"""

from __future__ import annotations

import contextlib
import sys
from itertools import chain, repeat
from operator import add, mul, neg, sub
from typing import Iterable, Optional, Sequence

__all__ = [
    "GaussianInt",
    "GIVector",
    "GIMatrix",
    "HermitianIntMatrix",
    "ZERO",
    "ONE",
    "IMAG_UNIT",
    "int_matrix_is_symmetric",
    "int_matrix_is_antisymmetric",
    "exact_int_text",
]


@contextlib.contextmanager
def exact_int_text():
    """Lift CPython's int<->str digit limit (4300 by default) until exit.

    Exact integers here grow without bound and every literal must
    round-trip, so hamca's own encoders and decoders run inside this.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _as_exact_int(value, where: str) -> int:
    # bool is an int subclass; it is never a legitimate literal here.
    if type(value) is not int:
        with exact_int_text():  # the bad value may hold a huge int
            raise ValueError(f"{where}: expected a plain integer, got {value!r}")
    return value


class GaussianInt:
    """Complex integer re + i*im.  Immutable by convention."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        # bool and other int subclasses are rejected like floats and strings
        if type(re) is not int or type(im) is not int:
            with exact_int_text():
                raise TypeError(f"GaussianInt parts must be plain integers, "
                                f"got {re!r}, {im!r}")
        self.re = re
        self.im = im

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianInt):
            return other
        if type(other) is int:
            return GaussianInt(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianInt(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianInt(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianInt(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianInt(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm2(self) -> int:
        """Ring norm re**2 + im**2."""
        return self.re * self.re + self.im * self.im

    def divide_exact(self, k: int) -> "GaussianInt":
        """Divide both parts by the nonzero integer k; k must divide exactly."""
        if type(k) is not int:
            raise ValueError("k must be a plain integer")
        if k == 0:
            raise ZeroDivisionError("exact division by zero")
        qr, rr = divmod(self.re, k)
        qi, ri = divmod(self.im, k)
        if rr or ri:
            raise ValueError(f"{self!r} is not divisible by {k}")
        return GaussianInt(qr, qi)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value equals the plain int re, so it must hash like it
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __complex__(self):
        return complex(self.re, self.im)

    @exact_int_text()
    def __repr__(self):
        return f"GaussianInt({self.re}, {self.im})"

    @exact_int_text()
    def __str__(self):
        return f"{self.re}{self.im:+d}i"

    def to_pair(self) -> list:
        return [self.re, self.im]

    @classmethod
    def from_pair(cls, obj, where: str = "pair") -> "GaussianInt":
        return cls(*_pair_parts(obj, where))


def _pair_parts(obj, where: str) -> tuple:
    """The validated plain-int parts (re, im) of a literal [re, im] pair."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        with exact_int_text():
            raise ValueError(f"{where}: expected [re, im], got {obj!r}")
    return _as_exact_int(obj[0], where + "[0]"), _as_exact_int(obj[1], where + "[1]")


ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)
IMAG_UNIT = GaussianInt(0, 1)


def _to_gi(value, where: str) -> GaussianInt:
    g = GaussianInt._coerce(value)
    if g is None:
        with exact_int_text():
            raise ValueError(f"{where}: expected GaussianInt or int, got {value!r}")
    return g


def _split(entries: Iterable, where: str) -> tuple:
    """The parts (re, im) of GaussianInts or ints, as two tuples of plain ints."""
    gs = [_to_gi(e, where) for e in entries]
    return tuple(g.re for g in gs), tuple(g.im for g in gs)


_PLAIN_INT = frozenset((int,))


def _plain_ints(values, where: str) -> tuple:
    """`values` as a tuple, which must hold plain ints only."""
    values = tuple(values)
    if not _PLAIN_INT.issuperset(map(type, values)):
        raise TypeError(f"{where}: parts must be plain integers")
    return values


class GIVector:
    """Fixed-dimension vector of Gaussian integers, indexed by dof label.

    Stored split: `re` and `im` are equal-length tuples of plain ints.
    Indexing, iteration and `entries` build `GaussianInt`s on demand.
    """

    __slots__ = ("re", "im")

    def __init__(self, entries: Iterable):
        self.re, self.im = _split(entries, "vector entry")
        if not self.re:
            raise ValueError("vector needs dimension >= 1")

    @classmethod
    def _from_parts(cls, re: tuple, im: tuple) -> "GIVector":
        """Wrap two equal-length, nonempty tuples of plain ints, unchecked.

        Only for parts computed by ring operations on parts that were
        validated already, and for the trajectory printer's transient
        Decimal parts, which H's forward step steps in an exact context
        and which never leave the printer.
        """
        v = object.__new__(cls)
        v.re = re
        v.im = im
        return v

    @property
    def entries(self) -> tuple:
        return tuple(map(GaussianInt, self.re, self.im))

    @property
    def dim(self) -> int:
        return len(self.re)

    @classmethod
    def zero(cls, dim: int) -> "GIVector":
        if type(dim) is not int or dim < 1:
            raise ValueError("dimension must be a plain integer >= 1")
        return cls._from_parts((0,) * dim, (0,) * dim)

    def __len__(self):
        return len(self.re)

    def __iter__(self):
        return map(GaussianInt, self.re, self.im)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.entries[i]
        return GaussianInt(self.re[i], self.im[i])

    def __add__(self, other):
        if not isinstance(other, GIVector):
            return NotImplemented
        self._check_dim(other)
        return GIVector._from_parts(tuple(map(add, self.re, other.re)),
                                    tuple(map(add, self.im, other.im)))

    def __sub__(self, other):
        if not isinstance(other, GIVector):
            return NotImplemented
        self._check_dim(other)
        return GIVector._from_parts(tuple(map(sub, self.re, other.re)),
                                    tuple(map(sub, self.im, other.im)))

    def __neg__(self):
        return GIVector._from_parts(tuple(map(neg, self.re)),
                                    tuple(map(neg, self.im)))

    def scale(self, a) -> "GIVector":
        ga = _to_gi(a, "scalar")
        ar, ai = ga.re, ga.im
        pairs = tuple(zip(self.re, self.im))
        return GIVector._from_parts(tuple(ar * r - ai * i for r, i in pairs),
                                    tuple(ar * i + ai * r for r, i in pairs))

    def __rmul__(self, a):
        try:
            return self.scale(a)
        except ValueError:
            return NotImplemented

    def conjugate(self) -> "GIVector":
        return GIVector._from_parts(self.re, tuple(map(neg, self.im)))

    def inner(self, other: "GIVector") -> GaussianInt:
        """Sesquilinear product sum_a conj(self_a) * other_a."""
        self._check_dim(other)
        # conj(a) * b expanded on integer parts
        return GaussianInt(
            sum(map(mul, self.re, other.re)) + sum(map(mul, self.im, other.im)),
            sum(map(mul, self.re, other.im)) - sum(map(mul, self.im, other.re)))

    def inner_re(self, other: "GIVector") -> int:
        """Re of `inner`: sum_a self_a.re * other_a.re + self_a.im * other_a.im.

        Two big multiplies per entry instead of four, for callers that
        keep only the real part.
        """
        self._check_dim(other)
        return sum(map(mul, self.re, other.re)) + sum(map(mul, self.im, other.im))

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def _check_dim(self, other):
        if len(self.re) != len(other.re):
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __eq__(self, other):
        if not isinstance(other, GIVector):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GIVector([{', '.join(str(e) for e in self)}])"

    def to_pairs(self) -> list:
        return [[r, i] for r, i in zip(self.re, self.im)]

    @classmethod
    def from_pairs(cls, obj, where: str = "vector") -> "GIVector":
        if not isinstance(obj, (list, tuple)) or not obj:
            raise ValueError(f"{where}: expected a nonempty list of [re, im] pairs")
        re, im = zip(*(_pair_parts(p, f"{where}[{i}]") for i, p in enumerate(obj)))
        return cls._from_parts(re, im)


class GIMatrix:
    """Square matrix of Gaussian integers.

    `rows` is a tuple of split `GIVector`s, taken as they are when given
    so.  Construction compiles their parts into the program `apply`
    runs: per row, the (column, coefficient) terms of the nonzero real
    parts and of the nonzero imaginary parts, so zero entry parts (real
    diagonals, zero entries, the identity) cost nothing.
    """

    __slots__ = ("rows", "_program")

    def __init__(self, rows: Iterable[Iterable]):
        rws = tuple(r if isinstance(r, GIVector)
                    else GIVector._from_parts(*_split(r, "matrix entry")) for r in rows)
        if not rws:
            raise ValueError("matrix needs dimension >= 1")
        d = len(rws)
        if any(len(r.re) != d for r in rws):
            raise ValueError("matrix must be square")
        self.rows = rws
        self._program = tuple(
            (tuple((j, c) for j, c in enumerate(r.re) if c),
             tuple((j, c) for j, c in enumerate(r.im) if c))
            for r in rws)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, dim: int) -> "GIMatrix":
        zero = GIVector.zero(dim).re
        return cls(GIVector._from_parts(zero[:i] + (1,) + zero[i + 1:], zero)
                   for i in range(dim))

    @classmethod
    def zeros(cls, dim: int) -> "GIMatrix":
        return cls([GIVector.zero(dim)] * dim)

    def entry(self, i: int, j: int) -> GaussianInt:
        return self.rows[i][j]

    def apply(self, v: GIVector, base: Optional[GIVector] = None) -> GIVector:
        """M v + base (M v without a base), exact; the one matvec kernel.

        One loop over `_program`, whose row sums start at base's parts,
        so the affine form costs no second pass over the vector.
        """
        d = len(self.rows)
        if d != len(v.re):
            raise ValueError(f"dimension mismatch: matrix {d} vs vector {v.dim}")
        if base is not None and d != len(base.re):
            raise ValueError(f"dimension mismatch: matrix {d} vs base {base.dim}")
        if base is None:
            base_re = base_im = repeat(0)
        else:
            base_re, base_im = base.re, base.im
        xr = v.re
        xi = v.im
        out_re = []
        out_im = []
        for (re_terms, im_terms), r, i in zip(self._program, base_re, base_im):
            for j, c in re_terms:
                r += c * xr[j]
                i += c * xi[j]
            for j, c in im_terms:
                r -= c * xi[j]
                i += c * xr[j]
            out_re.append(r)
            out_im.append(i)
        return GIVector._from_parts(tuple(out_re), tuple(out_im))

    def __matmul__(self, other):
        if not isinstance(other, GIMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return GIMatrix(_transposed([self.apply(c) for c in _transposed(other.rows)]))

    # row by row; the row vectors check that the dimensions agree
    def __add__(self, other):
        if not isinstance(other, GIMatrix):
            return NotImplemented
        return GIMatrix(map(add, self.rows, other.rows))

    def __sub__(self, other):
        if not isinstance(other, GIMatrix):
            return NotImplemented
        return GIMatrix(map(sub, self.rows, other.rows))

    def __neg__(self):
        return GIMatrix(map(neg, self.rows))

    def scale(self, a) -> "GIMatrix":
        return GIMatrix(r.scale(a) for r in self.rows)

    def is_hermitian(self) -> bool:
        """Self-adjoint: symmetric real part, antisymmetric imaginary part."""
        return (int_matrix_is_symmetric([r.re for r in self.rows])
                and int_matrix_is_antisymmetric([r.im for r in self.rows]))

    def is_zero(self) -> bool:
        return all(r.is_zero() for r in self.rows)

    def commutator(self, other: "GIMatrix") -> "GIMatrix":
        """self @ other - other @ self, exact."""
        return (self @ other) - (other @ self)

    def power(self, k: int) -> "GIMatrix":
        if type(k) is not int:
            raise ValueError("matrix power must be a plain integer")
        if k < 0:
            raise ValueError("negative matrix powers are not defined over the ring")
        out = GIMatrix.identity(self.dim)
        for _ in range(k):
            out = out @ self
        return out

    def kron(self, other: "GIMatrix") -> "GIMatrix":
        """Kronecker product; index (a, b) flattens row-major to a*dim(other)+b."""
        n = self.dim * other.dim
        re, im = _kron(_stacked(self.rows), self.dim, _stacked(other.rows), other.dim)
        return GIMatrix(GIVector._from_parts(re[k:k + n], im[k:k + n])
                        for k in range(0, n * n, n))

    def __eq__(self, other):
        if not isinstance(other, GIMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __reduce__(self):
        # the rows alone: the program is rebuilt from them, and an H's
        # step programs, generated code that does not pickle, on first use
        return type(self), (self.rows,)

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"{type(self).__name__}[{body}]"

    def to_pairs(self) -> list:
        return [r.to_pairs() for r in self.rows]

    @classmethod
    def from_pairs(cls, obj, where: str = "matrix") -> "GIMatrix":
        if not isinstance(obj, (list, tuple)) or not obj:
            raise ValueError(f"{where}: expected a nonempty list of rows")
        rows = []
        for i, row in enumerate(obj):
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"{where}[{i}]: expected a row of [re, im] pairs")
            rows.append([GaussianInt.from_pair(p, f"{where}[{i}][{j}]")
                         for j, p in enumerate(row)])
        return cls(rows)


def _straight_line(program: tuple):
    """`GIMatrix.apply`'s sums for one `_program`, as a generated function.

    kernel(v, base) takes two `GIVector`s of the program's length and
    returns the `GIVector` of the product plus the base.  The parts are
    unpacked once into locals, and each distinct product |c| * x of a
    coefficient magnitude and a local is computed once: into a local of
    its own where two terms or more use it, before the sums, and inside
    its term where one does, so it is freed once added.  Each output
    part is then one expression that adds or subtracts those products,
    the sign on the operator, so a coefficient that recurs over a column
    costs one multiply, not one per term.  A +1 or -1 term adds or
    subtracts the part itself, with no multiply.
    A coefficient enters the source only as the name of a keyword
    default bound to it, never as a literal, so no user value is printed
    into the text.
    """
    d = len(program)
    names = {}  # coefficient magnitude -> the name of the default it is bound to
    uses = {}  # (magnitude, part local) -> how many terms multiply the two

    def term(c, var):
        """`c * var` as (operator, magnitude, part local), its product counted."""
        if c not in (1, -1):
            uses[abs(c), var] = uses.get((abs(c), var), 0) + 1
        return " + " if c > 0 else " - ", abs(c), var

    terms = []  # per row, the terms of its real and of its imaginary sum
    for re_terms, im_terms in program:
        r, m = [], []
        for j, c in re_terms:
            r.append(term(c, f"xr{j}"))
            m.append(term(c, f"xi{j}"))
        for j, c in im_terms:
            r.append(term(-c, f"xi{j}"))
            m.append(term(c, f"xr{j}"))
        terms.append((r, m))
    products = {}  # (magnitude, part local) of two terms or more -> their product's local

    def written(op, c, var):
        if c == 1:
            return op + var
        k = names.setdefault(c, f"k{len(names)}")
        if uses[c, var] == 1:
            return f"{op}{k} * {var}"
        return op + products.setdefault((c, var), f"q{len(products)}")

    sums_re = [f"br{i}" + "".join(written(*t) for t in r) for i, (r, _) in enumerate(terms)]
    sums_im = [f"bi{i}" + "".join(written(*t) for t in m) for i, (_, m) in enumerate(terms)]
    multiplies = "".join(f"    {q} = {names[c]} * {var}\n"
                         for (c, var), q in products.items())

    def locals_of(part):
        return "".join(f"{part}{j}, " for j in range(d))

    source = (f"def kernel(v, base, *, {', '.join(('vector', *names.values()))}):\n"
              + "".join(f"    {locals_of(part)}= {parts}\n" for part, parts in (
                  ("xr", "v.re"), ("xi", "v.im"), ("br", "base.re"), ("bi", "base.im")))
              + multiplies
              + f"    return vector(({', '.join(sums_re)},), ({', '.join(sums_im)},))\n")
    namespace = {}
    exec(source, namespace)
    kernel = namespace["kernel"]
    kernel.__kwdefaults__ = dict(zip(names.values(), names), vector=GIVector._from_parts)
    return kernel


def _transposed(rows: Sequence[GIVector]):
    """The columns of the square matrix with these rows, as `GIVector`s."""
    return map(GIVector._from_parts,
               zip(*(r.re for r in rows)), zip(*(r.im for r in rows)))


def _stacked(vectors: Iterable[GIVector]) -> tuple:
    """(re, im) of the `GIVector`s one after another, as two tuples."""
    vectors = tuple(vectors)
    return (tuple(chain.from_iterable(v.re for v in vectors)),
            tuple(chain.from_iterable(v.im for v in vectors)))


def _kron(left: tuple, a: int, right: tuple, b: int) -> tuple:
    """(re, im) of u (x) w, entry u_i * w_j at i*b + j, for each block u
    of `left` and w of `right`, u-major; each side is (re, im) of its
    blocks stacked (`_stacked`), `a` and `b` values long.  The one
    Kronecker kernel: `GIMatrix.kron` runs it on rows, `product_wave` on
    slices.

    With W right blocks, output value (u, w, i, j) sits at
    (u*W + w)*a*b + i*b + j, so for fixed (w, i, j) the values over every
    u are one extended slice, a*W*b apart.
    Each dof column i of `left` (entry i of every block) is multiplied
    by each nonzero right entry w_j in one pass and assigned to that
    slice; a zero entry leaves its zeros.
    """
    lre, lim = left
    step = a * len(right[0])
    out_re = [0] * (len(lre) * len(right[0]))
    out_im = out_re.copy()
    cols = [(lre[i::a], lim[i::a]) for i in range(a)]
    for k, (x, y) in enumerate(zip(*right)):
        if not (x or y):
            continue
        w, j = divmod(k, b)
        for i, (cr, ci) in enumerate(cols):
            at = slice((w * a + i) * b + j, None, step)
            out_re[at] = map(sub, map(x.__mul__, cr), map(y.__mul__, ci))
            out_im[at] = map(add, map(x.__mul__, ci), map(y.__mul__, cr))
    return tuple(out_re), tuple(out_im)


class HermitianIntMatrix(GIMatrix):
    """A `GIMatrix`, from rows or a `GIMatrix`, checked self-adjoint on construction.

    `identity`, `zeros`, `from_pairs` and `power` keep the subtype; the
    ring operations (`+`, `-`, `@`, `scale`, `kron`) give a plain `GIMatrix`.
    `_steps` keeps the step programs `automaton._step` builds for this H.
    """

    __slots__ = ("_steps",)

    def __init__(self, rows):
        super().__init__(rows.rows if isinstance(rows, GIMatrix) else rows)
        if not self.is_hermitian():
            raise ValueError("matrix is not self-adjoint")
        self._steps = {}

    def power(self, k: int) -> "HermitianIntMatrix":
        # integer powers of a self-adjoint matrix stay self-adjoint
        return HermitianIntMatrix(super().power(k))

    def split(self):
        """Real symmetric and imaginary antisymmetric integer parts (hS, hA).

        The original matrix reconstructs exactly as hS + i*hA.
        """
        return tuple(r.re for r in self.rows), tuple(r.im for r in self.rows)


def int_matrix_is_symmetric(m: Sequence[Sequence[int]]) -> bool:
    d = len(m)
    return all(len(row) == d for row in m) and \
        all(m[i][j] == m[j][i] for i in range(d) for j in range(i + 1, d))


def int_matrix_is_antisymmetric(m: Sequence[Sequence[int]]) -> bool:
    d = len(m)
    return all(len(row) == d for row in m) and \
        all(m[i][j] == -m[j][i] for i in range(d) for j in range(i, d))
