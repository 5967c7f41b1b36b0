"""Composites of automata with one clock per part.

A composite wave carries one clock index and one dof index per part.
Because the symmetric clock difference f(n+1) - f(n-1) violates the
product rule, a shared-clock composite of non-interacting parts picks
up spurious cross correlations; giving each part its own clock removes
them.  The per-axis equations verified here read, at every interior
lattice point and every multi-index,

    sum_k [Psi(.., n_k+1, ..) - Psi(.., n_k-1, ..)]
        = -i * ( sum_k H_k Psi + I Psi )

with H_k contracting only the k-th dof index and the interaction I
contracting all of them.  Products of single-part solutions solve this
exactly when I = 0, superpositions of solutions stay solutions, and an
antisymmetrized two-part product gives an exactly entangled state whose
fixed-clock slice is certified by a nonzero 2x2 minor.

The right-hand side is the kron-sum operator sum_k 1 x .. x H_k x .. x 1
plus I on the flattened dof space, the same total Hamiltonian the
shared-clock model evolves with.  The residual is therefore evaluated
on the flat storage, one slab of clock axis 0 at a time: the block at
clocks n starts at b = sum_k n_k * s_k (s_k: clock axis k's stride in
values), and its residual is i times that operator applied to the
slice at b plus, per axis, the slice at b + s_k minus the slice at
b - s_k.  The interior points of a slab lie in runs along the last
clock axis, contiguous in storage; the axis differences of a run are
one chain of C-level `map`s, and each point in it adds one `apply`.

No propagation scheme is offered for I != 0 on the many-clock lattice
(the per-point equations underdetermine a layer-by-layer fill); the
residual check accepts arbitrary supplied fields instead, and the
shared-clock evolution on the flattened product space covers the
interacting single-time case.

Multi-index flattening is row-major throughout: (a_1, ..., a_m) maps to
a_1*D_2*...*D_m + ... + a_m, and clock tuples flatten the same way.

A field stores every value, clock-major and then dof, as one split
`GIVector`, so a clock block is a slice of its two int tuples; scalars
are built only when a caller reads single values.  A product field is
built by the one Kronecker kernel (`gaussian._kron`), a whole column
of values per pass.

The field's JSON text and the residual's CSV are assembled from
per-record templates in that storage order: each clock and dof fragment
is formatted once and reused, so writing costs one short format per
value.  The bytes are those of `json.dumps(..., indent=2,
sort_keys=True)` and of the per-cell join.  Each is one private
generator of text pieces, one per clock point, that the CLI streams to
disk and `to_json_text` / `to_csv` join.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .automaton import Trajectory, evolve
from .gaussian import (GaussianInt, GIMatrix, GIVector, HermitianIntMatrix,
                       _kron, _stacked, exact_int_text)

__all__ = [
    "MultiWave",
    "InteractionTensor",
    "ManyTimeResidual",
    "LeibnizRow",
    "LeibnizDemo",
    "FactorizabilityWitness",
    "product_wave",
    "many_time_residual",
    "evolve_factorized",
    "leibniz_failure_demo",
    "kron_sum",
    "total_hamiltonian",
    "evolve_synchronized",
    "bell_state",
    "factorizability_witness",
]


def flatten_index(index: Sequence[int], shape: Sequence[int]) -> int:
    flat = 0
    for i, d in zip(index, shape):
        # type, not isinstance: neither 1.0 nor true is an index
        if type(i) is not int or not 0 <= i < d:
            raise IndexError(f"index {tuple(index)} not in shape {tuple(shape)}")
        flat = flat * d + i
    return flat


def _exact_sizes(sizes: Sequence[int], what: str) -> tuple:
    sizes = tuple(sizes)
    # type, not isinstance: bool is an int subclass and never a size
    if any(type(n) is not int for n in sizes):
        raise ValueError(f"{what} must be plain integers, got {list(sizes)!r}")
    return sizes


def _field_shape(dims: Sequence[int], clock_shape: Sequence[int]) -> tuple:
    """(dims, clock_shape, number of values) of a field, checked."""
    dims = _exact_sizes(dims, "dof dimensions")
    clock_shape = _exact_sizes(clock_shape, "clock ranges")
    if len(dims) != len(clock_shape) or not dims:
        raise ValueError("need one dof dimension and one clock range per part")
    if any(d < 1 for d in dims) or any(c < 1 for c in clock_shape):
        raise ValueError("dimensions and clock ranges must be >= 1")
    return dims, clock_shape, math.prod(clock_shape) * math.prod(dims)


class MultiWave:
    """Exact field over a product clock box and product dof indices.

    `vector` holds every value in storage order; the field's ring
    operations are its own.  Values are `GaussianInt`s or plain ints
    (anything else raises ValueError) or a ready `GIVector`, used as is.
    """

    __slots__ = ("dims", "clock_shape", "vector")

    def __init__(self, dims: Sequence[int], clock_shape: Sequence[int],
                 values: Optional[Iterable] = None):
        self.dims, self.clock_shape, size = _field_shape(dims, clock_shape)
        if values is None:
            values = GIVector._from_parts((0,) * size, (0,) * size)
        elif not isinstance(values, GIVector):
            values = GIVector(values)
        if len(values) != size:
            raise ValueError(f"expected {size} values, got {len(values)}")
        self.vector = values

    @property
    def parts(self) -> int:
        return len(self.dims)

    def _flat(self, clocks: Sequence[int], alphas: Sequence[int]) -> int:
        return (flatten_index(clocks, self.clock_shape) * math.prod(self.dims)
                + flatten_index(alphas, self.dims))

    def get(self, clocks: Sequence[int], alphas: Sequence[int]) -> GaussianInt:
        return self.vector[self._flat(clocks, alphas)]

    def clock_points(self) -> Iterable[tuple]:
        return itertools.product(*(range(c) for c in self.clock_shape))

    def interior_clock_points(self) -> Iterable[tuple]:
        return itertools.product(*(range(1, c - 1) for c in self.clock_shape))

    def dof_indices(self) -> Iterable[tuple]:
        return itertools.product(*(range(d) for d in self.dims))

    def items(self) -> Iterator[tuple]:
        """(clocks, alphas, value) for every value, in storage order."""
        return ((c, a, v) for (c, a), v in zip(
            itertools.product(self.clock_points(), self.dof_indices()), self.vector))

    def alpha_vector(self, clocks: Sequence[int]) -> GIVector:
        """All dof components at one clock point, flattened row-major."""
        size = math.prod(self.dims)
        base = flatten_index(clocks, self.clock_shape) * size
        return GIVector._from_parts(self.vector.re[base:base + size],
                                    self.vector.im[base:base + size])

    def scale(self, a) -> "MultiWave":
        return MultiWave(self.dims, self.clock_shape, self.vector.scale(a))

    def _check_shape(self, other: "MultiWave"):
        if self.dims != other.dims or self.clock_shape != other.clock_shape:
            raise ValueError("field shapes disagree")

    def __add__(self, other):
        if not isinstance(other, MultiWave):
            return NotImplemented
        self._check_shape(other)
        return MultiWave(self.dims, self.clock_shape, self.vector + other.vector)

    def __sub__(self, other):
        if not isinstance(other, MultiWave):
            return NotImplemented
        self._check_shape(other)
        return MultiWave(self.dims, self.clock_shape, self.vector - other.vector)

    def __eq__(self, other):
        if not isinstance(other, MultiWave):
            return NotImplemented
        return (self.dims == other.dims and self.clock_shape == other.clock_shape
                and self.vector == other.vector)

    def is_zero(self) -> bool:
        return self.vector.is_zero()

    def bipartite_slice(self, clocks: Sequence[int]) -> tuple:
        """D_1 x D_2 coefficient matrix at fixed clocks (two parts only)."""
        if self.parts != 2:
            raise ValueError("slice extraction is for two-part fields")
        d1, d2 = self.dims
        return tuple(tuple(self.get(clocks, (a, b)) for b in range(d2))
                     for a in range(d1))

    def __repr__(self):
        return f"MultiWave(dims={self.dims}, clock_shape={self.clock_shape})"

    def to_json_obj(self) -> dict:
        return {
            "parts": self.parts,
            "dims": list(self.dims),
            "clock_box": [[0, c - 1] for c in self.clock_shape],
            "values": [[list(clocks), list(alphas), v.to_pair()]
                       for clocks, alphas, v in self.items()],
        }

    def _json_pieces(self) -> Iterator[str]:
        """`to_json_text`'s text: one piece per clock point, then the footer.

        Per-record templates: `json.dumps` writes the small header, and
        each clock and dof fragment is formatted once, not once per
        value.  Values print as decimal ints, so the consumer holds
        `exact_int_text()` around the whole join or write.
        """
        head = json.dumps({"clock_box": [[0, c - 1] for c in self.clock_shape],
                           "dims": list(self.dims), "parts": self.parts},
                          indent=2, sort_keys=True)
        dofs = [f"{_json_ints(alphas)},\n      [\n        "
                for alphas in self.dof_indices()]
        values = zip(self.vector.re, self.vector.im)
        # head ends "\n}" and "values" sorts after every header key
        sep = f'{head[:-2]},\n  "values": [\n'
        for clocks in self.clock_points():
            lead = f"    [\n{_json_ints(clocks)},\n"
            yield sep + ",\n".join(f"{lead}{dof}{re},\n        {im}\n      ]\n    ]"
                                    for dof, (re, im) in zip(dofs, values))
            sep = ",\n"
        yield "\n  ]\n}\n"

    @exact_int_text()
    def to_json_text(self) -> str:
        """`json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\\n"`."""
        return "".join(self._json_pieces())

    @classmethod
    @exact_int_text()  # a rejected field may hold ints past 4,300 digits
    def from_json_obj(cls, obj) -> "MultiWave":
        if not isinstance(obj, dict):
            raise ValueError("bad field JSON object")
        for key in ("dims", "clock_box", "values"):
            if key not in obj:
                raise ValueError(f"field JSON is missing {key!r}")
        box = obj["clock_box"]
        if not isinstance(box, list) or not all(
                isinstance(b, list) and len(b) == 2 and type(b[0]) is int
                and b[0] == 0 and type(b[1]) is int for b in box):
            raise ValueError(f"field clock_box must be [[0, last], ...], got {box!r}")
        for key in ("dims", "values"):
            if not isinstance(obj[key], list):
                raise ValueError(f"field {key} must be a list, got {obj[key]!r}")
        # the field's size against its records before anything is allocated
        shape = [hi + 1 for _, hi in box]
        size = _field_shape(obj["dims"], shape)[2]
        if size > len(obj["values"]):
            raise ValueError(f"field JSON has {len(obj['values'])} of {size} records")
        wave = cls(obj["dims"], shape)
        if "parts" in obj:
            if type(obj["parts"]) is not int:
                raise ValueError("field parts must be an integer")
            if obj["parts"] != wave.parts:
                raise ValueError("field parts disagrees with dims")
        pairs = [None] * len(wave.vector)
        seen = set()
        for rec in obj["values"]:
            try:
                clocks, alphas, pair = rec
                if len(clocks) != wave.parts or len(alphas) != wave.parts:
                    raise IndexError("one clock and one dof index per part")
                flat = wave._flat(clocks, alphas)
            except (TypeError, ValueError, IndexError) as exc:
                raise ValueError(f"bad field record {rec!r}: {exc}") from exc
            if flat in seen:
                raise ValueError(f"duplicate field record {rec!r}")
            seen.add(flat)
            pairs[flat] = pair
        if len(seen) != len(pairs):
            raise ValueError(f"field JSON has {len(seen)} of {len(pairs)} records")
        wave.vector = GIVector.from_pairs(pairs, "field value")
        return wave


def _json_ints(ints: Sequence[int]) -> str:
    """A list of ints as `json.dumps(indent=2)` writes it three levels deep."""
    items = ",\n".join(f"        {i}" for i in ints)
    return f"      [\n{items}\n      ]"


class InteractionTensor:
    """Self-adjoint coupling of all parts, stored on the product space as
    the flattened self-adjoint matrix (row-major flattening as documented
    above, `flatten_index`).
    """

    __slots__ = ("dims", "matrix")

    def __init__(self, dims: Sequence[int], matrix: GIMatrix):
        self.dims = _exact_sizes(dims, "dof dimensions")
        if matrix.dim != math.prod(self.dims):
            raise ValueError("matrix size does not match the product of dims")
        if not matrix.is_hermitian():
            raise ValueError("interaction must be self-adjoint")
        self.matrix = matrix

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def product_wave(factors: Sequence[Trajectory]) -> MultiWave:
    """Outer product of single-part histories over the full clock box.

    Each part multiplies every clock block of the parts before it by
    each of its slices, a Kronecker product (`gaussian._kron`) on the
    stacked blocks; row-major is storage order.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one part")
    field, size = _stacked(factors[0]), factors[0].dim
    for f in factors[1:]:
        field = _kron(field, size, _stacked(f), f.dim)
        size *= f.dim
    return MultiWave([f.dim for f in factors], [len(f) for f in factors],
                     GIVector._from_parts(*field))


@dataclass(frozen=True)
class ManyTimeResidual:
    """Exact equation residuals at every interior lattice point."""

    field: MultiWave          # indexed by interior clocks shifted down by 1

    @property
    def is_zero(self) -> bool:
        return self.field.is_zero()

    def nonzero(self) -> list:
        """(lattice clocks, alphas, value) of every nonzero residual."""
        return [(tuple(n + 1 for n in clocks), alphas, v)
                for clocks, alphas, v in self.field.items() if v]

    def _csv_pieces(self) -> Iterator[str]:
        """`to_csv`'s text: the header, then one piece per clock point.

        Values print as decimal ints, so the consumer holds
        `exact_int_text()` around the whole join or write.
        """
        header, dofs, leads = _residual_csv_cells(self.field.dims,
                                                  self.field.clock_shape)
        yield header
        values = zip(self.field.vector.re, self.field.vector.im)
        for lead in leads:
            yield "".join(f"{lead}{dof}{re},{im}\n"
                          for dof, (re, im) in zip(dofs, values))

    @exact_int_text()
    def to_csv(self) -> str:
        return "".join(self._csv_pieces())


def _residual_csv_cells(dims: Sequence[int], clock_shape: Sequence[int]) -> tuple:
    """The parts of a residual's CSV that hold no value: its header line,
    the cells of each dof index, and an iterator over the lead cells of
    each clock point (its lattice clocks, one past the residual's), in
    storage order."""
    m = len(dims)
    header = ",".join([f"n{k + 1}" for k in range(m)]
                      + [f"alpha{k + 1}" for k in range(m)] + ["re", "im"]) + "\n"
    dofs = list(map("".join, itertools.product(
        *([f"{a}," for a in range(d)] for d in dims))))
    leads = map("".join, itertools.product(
        *([f"{n + 1}," for n in range(c)] for c in clock_shape)))
    return header, dofs, leads


def many_time_residual(psi: MultiWave, hams: Sequence[HermitianIntMatrix],
                       interaction: Optional[InteractionTensor] = None
                       ) -> ManyTimeResidual:
    """Exact residual of the per-axis equations at interior lattice points.

    Zero everywhere iff the supplied field solves the equations there.
    Each clock block is sum_k [Psi(n+e_k) - Psi(n-e_k)] + i*H_tot Psi(n)
    with H_tot = total_hamiltonian(hams, interaction), taken slab by slab
    along clock axis 0 and, in a slab, one run of interior points along
    the last clock axis at a time: the run's axis differences are one
    chain of `map`s over slices s_k apart (s_k: clock axis k's stride),
    to which each point adds i times one `apply` to its block.
    """
    m = psi.parts
    if len(hams) != m:
        raise ValueError(f"need {m} coupling matrices, got {len(hams)}")
    for k, h in enumerate(hams):
        if h.dim != psi.dims[k]:
            raise ValueError(f"part {k}: matrix dim {h.dim} != dof dim {psi.dims[k]}")
    if interaction is not None and interaction.dims != psi.dims:
        raise ValueError("interaction dims do not match the field")
    if any(c < 3 for c in psi.clock_shape):
        raise ValueError("every clock axis needs at least one interior site")
    h_tot = total_hamiltonian(hams, interaction)
    size = math.prod(psi.dims)
    strides = [size * math.prod(psi.clock_shape[k + 1:]) for k in range(m)]
    # interior points come in runs along the last clock axis, contiguous
    # in storage and `width` values long, one from each interior
    # (n_0, ..., n_{m-2}, 1) in storage order: slab by slab along axis 0
    width = size * (psi.clock_shape[-1] - 2)
    starts = [sum(map(operator.mul, clocks, strides[:-1])) + size
              for clocks in itertools.product(*(range(1, c - 1)
                                                for c in psi.clock_shape[:-1]))]
    re, im = psi.vector.re, psi.vector.im

    def differences(x, lo):
        """sum_k x(n+e_k) - x(n-e_k) over the run from `lo`, unevaluated."""
        hi, out = lo + width, None
        for s in strides:
            diff = map(operator.sub, x[lo + s:hi + s], x[lo - s:hi - s])
            out = diff if out is None else map(operator.add, out, diff)
        return out

    out_re, out_im = [], []
    for lo in starts:
        h_psi = [h_tot.apply(GIVector._from_parts(re[b:b + size], im[b:b + size]))
                 for b in range(lo, lo + width, size)]
        # + i * (x + iy) = -y + ix
        out_re.extend(map(operator.sub, differences(re, lo),
                          itertools.chain.from_iterable(h.im for h in h_psi)))
        out_im.extend(map(operator.add, differences(im, lo),
                          itertools.chain.from_iterable(h.re for h in h_psi)))
    interior = GIVector._from_parts(tuple(out_re), tuple(out_im))
    return ManyTimeResidual(field=MultiWave(
        psi.dims, [c - 2 for c in psi.clock_shape], interior))


def evolve_factorized(hams: Sequence[HermitianIntMatrix],
                      seed_pairs: Sequence, steps: Sequence[int]):
    """Evolve each part on its own clock and assemble the product field.

    Non-interacting by construction; the assembled field is certified to
    have zero residual before being returned.  Returns the tuple of
    single-part trajectories, the product field and that residual.  The
    two steps are `_factors_and_field` and `_certified_free_residual`;
    `hamca multi` runs them apart, with its field writer forked between.
    """
    factors, wave = _factors_and_field(hams, seed_pairs, steps)
    return factors, wave, _certified_free_residual(wave, hams)


def _factors_and_field(hams: Sequence[HermitianIntMatrix],
                       seed_pairs: Sequence, steps: Sequence[int]) -> tuple:
    """Each part's history on its own clock, and their product field."""
    if not (len(hams) == len(seed_pairs) == len(steps)):
        raise ValueError("need one coupling, seed pair and step count per part")
    factors = tuple(evolve(s0, s1, h, n)
                    for h, (s0, s1), n in zip(hams, seed_pairs, steps))
    return factors, product_wave(factors)


def _certified_free_residual(wave: MultiWave,
                             hams: Sequence[HermitianIntMatrix]) -> ManyTimeResidual:
    """The residual of a product of solutions without interaction,
    asserted zero."""
    res = many_time_residual(wave, list(hams), None)
    if not res.is_zero:
        raise AssertionError("product of solutions has nonzero residual; "
                             "this indicates a bug, not bad input")
    return res


# -- product-rule failure of the symmetric difference -------------------


@dataclass(frozen=True)
class LeibnizRow:
    n: int
    product_rate: int          # [A B]dot at n
    split_form: Fraction       # Adot*(B_+ + B_-)/2 + (A_+ + A_-)/2*Bdot
    naive: int                 # Adot*B + A*Bdot
    naive_matches: bool


@dataclass(frozen=True)
class LeibnizDemo:
    rows: tuple
    identity_ok: bool
    failure_sites: tuple


def leibniz_failure_demo(a_seq: Sequence[int], b_seq: Sequence[int]) -> LeibnizDemo:
    """Compare the symmetric difference of a product with the product rule.

    At each interior n the exact identity

        [A B]dot = Adot*(B_{n+1}+B_{n-1})/2 + (A_{n+1}+A_{n-1})/2*Bdot

    holds, while the naive rule Adot*B + A*Bdot generally does not; the
    returned rows exhibit both.  The halves are evaluated as exact
    rationals so the identity check is literal.
    """
    if len(a_seq) != len(b_seq) or len(a_seq) < 3:
        raise ValueError("need two equal-length sequences with >= 3 entries")
    rows = []
    for n in range(1, len(a_seq) - 1):
        am, a0, ap = a_seq[n - 1], a_seq[n], a_seq[n + 1]
        bm, b0, bp = b_seq[n - 1], b_seq[n], b_seq[n + 1]
        rate = ap * bp - am * bm
        split = (Fraction((ap - am) * (bp + bm), 2)
                 + Fraction((ap + am) * (bp - bm), 2))
        naive = (ap - am) * b0 + a0 * (bp - bm)
        rows.append(LeibnizRow(n=n, product_rate=rate, split_form=split,
                               naive=naive, naive_matches=naive == rate))
    return LeibnizDemo(
        rows=tuple(rows),
        identity_ok=all(r.split_form == r.product_rate for r in rows),
        failure_sites=tuple(r.n for r in rows if not r.naive_matches))


# -- shared-clock composite on the flattened product space --------------


def kron_sum(hams: Sequence[HermitianIntMatrix]) -> GIMatrix:
    """sum_k 1 x ... x H_k x ... x 1 on the flattened product space."""
    if not hams:
        raise ValueError("need at least one part")
    dims = [h.dim for h in hams]
    total = GIMatrix.zeros(math.prod(dims))
    for k, h in enumerate(hams):  # 1 x .. x 1 is the identity of the product size
        left = GIMatrix.identity(math.prod(dims[:k]))
        total = total + left.kron(h).kron(GIMatrix.identity(math.prod(dims[k + 1:])))
    return total


def total_hamiltonian(hams: Sequence[HermitianIntMatrix],
                      interaction: Optional[InteractionTensor] = None
                      ) -> HermitianIntMatrix:
    total = kron_sum(hams)
    if interaction is not None:
        if interaction.dims != tuple(h.dim for h in hams):
            raise ValueError("interaction dims do not match the parts")
        total = total + interaction.matrix
    return HermitianIntMatrix(total)


def evolve_synchronized(seed_prev: GIVector, seed_curr: GIVector,
                        hams: Sequence[HermitianIntMatrix],
                        interaction: Optional[InteractionTensor],
                        steps: int) -> Trajectory:
    """Single shared clock on the flattened product space.

    This is the interacting single-time model; for non-interacting parts
    it deviates from the product of independent evolutions (the product
    rule failure above), which the suite exhibits as exact inequality.
    """
    h_tot = total_hamiltonian(hams, interaction)
    if seed_prev.dim != h_tot.dim or seed_curr.dim != h_tot.dim:
        raise ValueError("seed slices do not match the product-space dimension")
    return evolve(seed_prev, seed_curr, h_tot, steps)


# -- antisymmetric two-part state and the factorizability test ----------


def bell_state(psi_traj: Trajectory, phi_traj: Trajectory) -> MultiWave:
    """Antisymmetrized two-part product psi x phi - phi x psi.

    Both parts must have two dofs.  When both histories solve the
    single-part equations of a common coupling matrix, each product term
    is a solution of the two-clock equations and so is the difference;
    the fixed-clock slices are exactly non-factorizable whenever the two
    histories are not proportional.

    The swapped term assigns each history to the other part's clock, so
    the field lives on the common clock box: histories of unequal length
    are truncated to the shorter one.
    """
    if psi_traj.dim != 2 or phi_traj.dim != 2:
        raise ValueError("antisymmetric pair state needs two dofs per part")
    length = min(len(psi_traj), len(phi_traj))
    psi, phi = Trajectory(psi_traj[:length]), Trajectory(phi_traj[:length])
    return product_wave([psi, phi]) - product_wave([phi, psi])


@dataclass(frozen=True)
class FactorizabilityWitness:
    """Outcome of the exact rank test on a bipartite coefficient slice.

    Entangled slices carry a nonzero 2x2 minor; factorizable ones carry
    a rank-one factorization over the fraction field (Gaussian
    rationals: pairs of Fractions).  Rank one over the fraction field is
    the implemented criterion; a Gaussian-integer factorization may
    still fail to exist for content reasons.
    """

    entangled: bool
    minor_rows: Optional[tuple] = None
    minor_cols: Optional[tuple] = None
    minor_value: Optional[GaussianInt] = None
    factor_left: Optional[tuple] = None   # pairs (Fraction re, Fraction im)
    factor_right: Optional[tuple] = None  # GaussianInt row

    def verify(self, rows: Sequence[Sequence[GaussianInt]]) -> bool:
        """Re-check the certificate against the slice it was issued for."""
        if self.entangled:
            (i, k), (j, l) = self.minor_rows, self.minor_cols
            minor = rows[i][j] * rows[k][l] - rows[i][l] * rows[k][j]
            return bool(minor) and minor == self.minor_value
        for i, (ure, uim) in enumerate(self.factor_left):
            for j, v in enumerate(self.factor_right):
                # (ure + i*uim) * v over exact rationals
                pre = ure * v.re - uim * v.im
                pim = ure * v.im + uim * v.re
                if pre != rows[i][j].re or pim != rows[i][j].im:
                    return False
        return True


def factorizability_witness(rows: Sequence[Sequence[GaussianInt]]
                            ) -> FactorizabilityWitness:
    """Exact entanglement test of a bipartite slice via 2x2 minors.

    All minors zero means rank <= 1, hence factorizable over the
    fraction field; any nonzero minor certifies entanglement.
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("slice must be a nonempty rectangular matrix")
    n_r, n_c = len(rows), len(rows[0])
    for (i, k), (j, l) in itertools.product(itertools.combinations(range(n_r), 2),
                                            itertools.combinations(range(n_c), 2)):
        minor = rows[i][j] * rows[k][l] - rows[i][l] * rows[k][j]
        if minor:
            return FactorizabilityWitness(entangled=True, minor_rows=(i, k),
                                          minor_cols=(j, l), minor_value=minor)
    pivot = next(((i, j) for i in range(n_r) for j in range(n_c) if rows[i][j]),
                 None)
    if pivot is None:
        left = tuple((Fraction(0), Fraction(0)) for _ in range(n_r))
        right = tuple(GaussianInt(0) for _ in range(n_c))
        return FactorizabilityWitness(entangled=False, factor_left=left,
                                      factor_right=right)
    i0, j0 = pivot
    denom = rows[i0][j0]
    norm = denom.norm2()
    left = []
    for i in range(n_r):
        z = rows[i][j0]
        # z / denom over the fraction field
        left.append((Fraction(z.re * denom.re + z.im * denom.im, norm),
                     Fraction(z.im * denom.re - z.re * denom.im, norm)))
    right = tuple(rows[i0])
    return FactorizabilityWitness(entangled=False, factor_left=tuple(left),
                                  factor_right=right)
