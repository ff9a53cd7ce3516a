"""Representations of the preprojective algebra on a type-A window.

A ``QuiverRep`` is a graded vector space (one rational vector space per
integer weight in a window) together with one matrix per double-quiver
arrow.  This module decides everything the classification work needs:
whether the Gelfand-Ponomarev relations hold, nilpotency, intertwiner
(Hom) spaces, endomorphism algebras with their Jacobson radical,
indecomposability, direct sums, splitting into summands, and isomorphism
testing under the base-change group.  Nilpotency walks down the spans of
the path images (``linalg.column_space_basis``), so no two paths cancel.

The radical of End(M) is the kernel of the trace form (a, b) -> Tr_M(ab) on M
itself, read off End's kernel coordinates with no graded map and no structure
constants.  Splitting has one mechanism: the primary decomposition of M under
one endomorphism (the End basis in order, then seeded combinations), whose
components ker f_i(phi) for the coprime factors f_i of its minimal polynomial
are submodules with direct sum M.  The f_i come from Musser's square-free
blocks and their integer roots, found p-adically with no size cap.

Results are exact rationals, and the inner loops run on Python ints, the
one number format of ``linalg.Matrix``: integers over one denominator, read
with ``Matrix.ints``.  Every elimination and every ``Matrix`` product is
``linalg``'s; the split multiplies integer list blocks (``_int_matmul``).
The intertwiner rows of the Hom system are integer rows.
Hom keeps its kernel vectors as integers over a denominator, so the trace
pairing under ``decompose`` rescales nothing.  A split candidate phi comes
as the integer map D phi, one D for all weight spaces, and every
polynomial of the split is a monic integer polynomial of D phi, whose
kernels ker f_i(D phi) are the components.  One integer
inverse per weight space gives the coordinates along every component, for
both the projection and the restriction, which are integer products.

Isomorphism testing and framed equivalence share one search for an
invertible element of the solutions of a linear system of graded maps:
deterministic when they form a point or a line and Monte Carlo (seeded,
one-sided error) otherwise, with an exhaustive grid mode for small
instances.  No spanning maps are built: the search keeps the integer
echelon form of the system (``linalg.Echelon``), makes each candidate by
one fraction-free back-substitution (``linalg.back_substitute``), and
tests its integer blocks by Bareiss elimination (``linalg._bareiss``).
The isomorphism test first compares the ranks of the arrow maps
(``linalg.rank``, the same Bareiss elimination), a base-change invariant
whose mismatch is a certain False with no Hom elimination; it separates
sums of thin indecomposables that differ in a summand, and it stops at
the first arrow whose ranks differ.  Then it looks for a witness: a few
draws run before the Hom dimensions it compares, ranks of the intertwiner
system (hom_dim).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, isqrt, lcm
from operator import mul
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .linalg import (
    Echelon,
    IntVector,
    Matrix,
    SparseRow,
    Vector,
    _bareiss,
    back_substitute,
    block_diag,
    column_space_basis,
    inverse,
    rank,
    shown,
    sparse_int_kernel,
    sparse_kernel,
    sparse_rank,
)
from .quiver import (
    Arrow,
    DimensionVector,
    Frozen,
    Window,
    check_size,
    double_arrows,
    json_fields,
    json_int,
    json_object,
    window_of_support,
)

# A graded linear map between two representations: one matrix per vertex of
# the working window (explicit zero-shape matrices included).
GradedMap = dict[int, Matrix]


class QuiverRep(Frozen):
    """A point of the representation variety of the double quiver on a window.

    Every arrow of the window carries exactly one matrix of shape
    dims(target) x dims(source); arrows touching zero-dimensional weight
    spaces carry explicit zero-shape matrices.  The value is immutable:
    maps is a read-only mapping, so check_relations keeps its verdict in
    the slot _violated (None until the first check).
    """

    __slots__ = ("window", "dims", "maps", "_violated")

    # The keys from_json_dict reads, with the annotations the CLI adds to the
    # documents it emits (enumerate-thin, decompose), so that they read back.
    JSON_KEYS = ("window", "dims", "maps", "indecomposable", "verdict")

    def __init__(
        self,
        window: Window,
        dims: DimensionVector,
        maps: Mapping[str, Matrix] | None = None,
    ):
        for k in dims.support():
            if not window.contains(k):
                raise ValueError(f"dimension vector has weight {k} outside window [{window.a}, {window.b}]")
        given = dict(maps) if maps else {}
        complete: dict[str, Matrix] = {}
        for arrow in double_arrows(window):
            nrows = dims[arrow.target]
            ncols = dims[arrow.source]
            m = given.pop(arrow.name, None)
            if m is None:
                m = Matrix.zero(nrows, ncols)
            elif m.shape != (nrows, ncols):
                raise ValueError(
                    f"map {arrow.name} has shape {m.shape}, expected ({nrows}, {ncols})"
                )
            complete[arrow.name] = m
        if given:
            raise ValueError(f"maps for arrows outside the window: {sorted(given)}")
        self._set(window=window, dims=dims, maps=MappingProxyType(complete), _violated=None)

    @classmethod
    def zero(cls, dims: DimensionVector, window: Window | None = None) -> "QuiverRep":
        if window is None:
            window = window_of_support(dims)
        return cls(window, dims)

    def dim(self, k: int) -> int:
        return self.dims[k]

    @property
    def total_dim(self) -> int:
        return self.dims.total()

    def map(self, arrow: Arrow | str) -> Matrix:
        name = arrow.name if isinstance(arrow, Arrow) else arrow
        return self.maps[name]

    def embed(self, window: Window) -> "QuiverRep":
        """The same representation viewed on a larger window."""
        if window.a > self.window.a or window.b < self.window.b:
            raise ValueError("embedding window must contain the current one")
        if window == self.window:
            return self
        return QuiverRep(window, self.dims, dict(self.maps))

    def __reduce__(self):
        return QuiverRep, (self.window, self.dims, dict(self.maps))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuiverRep):
            return NotImplemented
        return self.window == other.window and self.dims == other.dims and self.maps == other.maps

    def __repr__(self) -> str:
        return f"QuiverRep(window=[{self.window.a},{self.window.b}], dims={self.dims.to_json_dict()})"

    def to_json_dict(self) -> dict:
        maps = {}
        for arrow in double_arrows(self.window):
            m = self.maps[arrow.name]
            if m.rows > 0 and m.cols > 0:
                maps[arrow.name] = m.to_lists()
        return {
            "window": [self.window.a, self.window.b],
            "dims": self.dims.to_json_dict(),
            "maps": maps,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "QuiverRep":
        data = json_fields(data, "representation", cls.JSON_KEYS)
        bounds = data.get("window")
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ValueError("window must be an array [a, b] of two integers")
        window = Window(json_int(bounds[0], "window bound"), json_int(bounds[1], "window bound"))
        check_size("window width", window.width)
        dims = DimensionVector.from_json_dict(data.get("dims", {}))
        check_size("sum of squared dimensions", sum(d * d for _, d in dims.items()))
        raw = json_object(data.get("maps", {}), "maps")
        maps: dict[str, Matrix] = {}
        for arrow in double_arrows(window):
            nrows, ncols = dims[arrow.target], dims[arrow.source]
            if arrow.name in raw:
                maps[arrow.name] = Matrix.from_lists(raw[arrow.name], rows=nrows, cols=ncols)
            elif nrows > 0 and ncols > 0:
                raise ValueError(f"missing map {arrow.name} between nonzero weight spaces")
        unknown = set(raw) - {arrow.name for arrow in double_arrows(window)}
        if unknown:
            raise ValueError(f"maps for arrows outside the window: {shown(sorted(unknown))}")
        return cls(window, dims, maps)


def check_relations(x: QuiverRep) -> list[int]:
    """Vertices where the preprojective relation fails; empty iff x is a
    module over the preprojective algebra.

    Each representation is checked once: the verdict stays on x, and every
    call returns a new list of it.
    """
    violated = x._violated
    if violated is None:
        violated = tuple(_relation_violations(x))
        x._set(_violated=violated)
    return list(violated)


def _relation_violations(x: QuiverRep) -> list[int]:
    """check_relations computed afresh.

    The relation at i is hbar_i h_i - h_{i-1} hbar_{i-1}, each term dropped
    at its window end.  The two paths at a vertex are Matrix products,
    compared exactly: a Matrix is stored in lowest terms.
    """
    w, maps = x.window, x.maps
    violated = []
    for i in w.vertices():
        p = q = Matrix.zero(x.dim(i), x.dim(i))
        if i < w.b:
            p = maps[f"hbar{i}"] * maps[f"h{i}"]
        if i > w.a:
            q = maps[f"h{i - 1}"] * maps[f"hbar{i - 1}"]
        if p != q:
            violated.append(i)
    return violated


def is_nilpotent(x: QuiverRep) -> bool:
    """Whether every long enough path evaluates to zero on x.

    The walk down the arrow images: U_0 = x and U_{k+1} = J U_k, with
    (J W)_t the sum of x_a W_s over the arrows a: s -> t, so U_k is spanned
    by the images of the paths of length k.  Each U_{k+1} lies in U_k, as
    J x lies in x.  True when some U_k is 0; False once U_{k+1} = U_k != 0,
    which every power of J keeps.  Each earlier step drops a dimension, so
    the walk ends within total_dim steps.
    """
    span = {v: Matrix.identity(x.dim(v)) for v in x.window.vertices()}
    dim = x.total_dim
    while dim:
        images: dict[int, list[Vector]] = {v: [] for v in span}
        for arrow in double_arrows(x.window):
            image = x.map(arrow) * span[arrow.source]
            images[arrow.target] += map(image.col, range(image.cols))
        span = {v: column_space_basis(Matrix.from_columns(cols, rows=x.dim(v))) for v, cols in images.items()}
        shrunk = sum(m.cols for m in span.values())
        if shrunk == dim:
            return False
        dim = shrunk
    return True


# ---------------------------------------------------------------------------
# Hom spaces and endomorphism algebras


@dataclass
class HomSpace:
    """A basis of the graded intertwiners from source to target: the kernel
    vectors (coords) of their system on layout's coordinates, each as
    integers over its least denominator, and the same maps as graded maps
    (basis), built on first read."""

    source: QuiverRep
    target: QuiverRep
    layout: _HomLayout = field(compare=False, repr=False)
    coords: list[IntVector]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def basis(self) -> list[GradedMap]:
        return [self.layout.unvec(v) for v in self.coords]


class _HomLayout:
    """Flattening of a graded unknown g (one dims_y(i) x dims_x(i) block per
    vertex) into a single coordinate vector, row-major inside each block."""

    def __init__(self, x: QuiverRep, y: QuiverRep):
        self.window = x.window.union(y.window)
        self.x = x.embed(self.window)
        self.y = y.embed(self.window)
        self.offsets: dict[int, int] = {}
        pos = 0
        for v in self.window.vertices():
            self.offsets[v] = pos
            pos += self.y.dim(v) * self.x.dim(v)
        self.size = pos

    def intertwiner_rows(self) -> list[SparseRow]:
        """Linear system expressing g_target x_a = y_a g_source for all
        arrows, in integers: the equations of each arrow are homogeneous, so
        they are scaled by the lcm of the denominators of x_a and y_a.

        Arrows come in double_arrows order, and each arrow's equations with
        their entry (r, c) descending: the order of the rows sets how much
        fill-in Echelon makes, and on the Hom and End systems of sums of
        thin representations this one costs it about a fifth fewer
        clearings than ascending order, under either pivot rule.  Nothing
        read off the system depends on the order."""
        rows: list[SparseRow] = []
        for arrow in double_arrows(self.window):
            xa = self.x.map(arrow)
            ya = self.y.map(arrow)
            (x_ints, dx), (y_ints, dy) = xa.ints(), ya.ints()
            if dx != dy:
                g = gcd(dx, dy)
                x_ints, y_ints = [v * (dy // g) for v in x_ints], [v * (dx // g) for v in y_ints]
            tgt_base, src_base = self.offsets[arrow.target], self.offsets[arrow.source]
            # unknown g_target[r, k] sits at tgt_base + r * xa.rows + k and
            # g_source[k, c] at src_base + k * xa.cols + c; the two never meet
            for r in reversed(range(ya.rows)):
                for c in reversed(range(xa.cols)):
                    row: SparseRow = {}
                    for k in range(xa.rows):
                        v = x_ints[k * xa.cols + c]
                        if v:
                            row[tgt_base + r * xa.rows + k] = v
                    for k in range(ya.cols):
                        v = y_ints[r * ya.cols + k]
                        if v:
                            row[src_base + k * xa.cols + c] = -v
                    if row:
                        rows.append(row)
        return rows

    def unvec(self, coords: IntVector) -> GradedMap:
        (ints, den), rows, cols = coords, self.y.dim, self.x.dim
        return {v: Matrix._of(rows(v), cols(v), ints[o : o + rows(v) * cols(v)], den) for v, o in self.offsets.items()}


def hom_basis(x: QuiverRep, y: QuiverRep) -> HomSpace:
    """Basis of all graded maps g with g_target x_a = y_a g_source for every
    double-quiver arrow, computed as the kernel of the stacked linear system."""
    layout = _HomLayout(x, y)
    return HomSpace(x, y, layout, sparse_int_kernel(layout.intertwiner_rows(), layout.size))


def hom_dim(x: QuiverRep, y: QuiverRep) -> int:
    """dim Hom(x, y) = hom_basis(x, y).dim: the number of unknowns of the
    intertwiner system minus its rank, with no basis built."""
    layout = _HomLayout(x, y)
    return layout.size - sparse_rank(layout.intertwiner_rows(), layout.size)


@dataclass
class EndAlgebra:
    """The endomorphism algebra of a representation M.

    hom is End(M) as a Hom space; radical_coeffs spans its Jacobson
    radical in basis coordinates.  The radical is the kernel of Dickson's
    trace form (a, b) -> Tr_M(ab), the trace of ab acting on M itself.  This
    holds because M is a faithful End(M)-module in characteristic zero: the
    kernel is an ideal whose elements a have Tr_M(a^k) = 0 for every k, so
    they are nilpotent, and every radical element lies in it.  Both
    dimensions are read from radical_coeffs and hom.dim.
    """

    rep: QuiverRep
    hom: HomSpace
    radical_coeffs: list[Vector]

    @property
    def radical_dim(self) -> int:
        return len(self.radical_coeffs)

    @property
    def semisimple_quotient_dim(self) -> int:
        return self.hom.dim - self.radical_dim

    @property
    def basis(self) -> list[GradedMap]:
        return self.hom.basis

    @property
    def dim(self) -> int:
        return self.hom.dim


def trace_pairing(layout: _HomLayout, left: Sequence[IntVector], right: Sequence[IntVector]) -> list[dict[int, Fraction]]:
    """The Gram matrix G[i][j] = Tr(b_j a_i) of graded maps a_i: X -> Y in
    left and b_j: Y -> X in right, the traces summed over the vertices, as
    sparse rows: row i holds the nonzero G[i][j] under j.

    Computed in integers on the coordinates of layout = _HomLayout(X, Y)
    and of _HomLayout(Y, X), which give each vertex the same offset: each
    vector is integers n over a denominator d (HomSpace.coords), each b_j
    is read transposed through one index permutation, and the entry is
    Fraction(s, d_i d_j) for the integer dot product s.  When right is left,
    G is symmetric and only half of it is computed.
    """
    dx, dy = layout.x.dim, layout.y.dim
    # position of a_v[r, c] -> position of b_v[c, r]
    perm = [o + c * dy(v) + r for v, o in layout.offsets.items() for r in range(dy(v)) for c in range(dx(v))]
    b_side = [([ints[k] for k in perm], den) for ints, den in right]
    symmetric = left is right
    gram: list[dict[int, Fraction]] = [{} for _ in left]
    for i, (ints, di) in enumerate(left):
        nonzero = [k for k, e in enumerate(ints) if e]
        values = [ints[k] for k in nonzero]
        for j in range(i if symmetric else 0, len(right)):
            transposed, dj = b_side[j]
            s = sum(map(mul, values, map(transposed.__getitem__, nonzero)))
            if s:
                gram[i][j] = Fraction(s, di * dj)
                if symmetric:
                    gram[j][i] = gram[i][j]
    return gram


def end_algebra(x: QuiverRep) -> EndAlgebra:
    """Endomorphism algebra with its radical from the trace form on x."""
    if x.total_dim == 0:
        raise ValueError("endomorphism algebra of the zero representation")
    hom = hom_basis(x, x)
    return EndAlgebra(x, hom, sparse_kernel(trace_pairing(hom.layout, hom.coords, hom.coords), hom.dim))


# ---------------------------------------------------------------------------
# Primary decomposition, splitting, indecomposability

INDECOMPOSABLE = "indecomposable"
DECOMPOSABLE = "decomposable"
UNRESOLVED = "indecomposable_over_Q_unresolved"


@dataclass
class IndecomposabilityResult:
    verdict: str
    idempotent: GradedMap | None = None


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_quo(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """p / q for a monic q that divides p."""
    rem = list(p)
    quot = [0] * max(0, len(rem) - len(q) + 1)
    for d in reversed(range(len(quot))):
        f = quot[d] = rem[d + len(q) - 1]
        for i, b in enumerate(q):
            rem[d + i] -= f * b
    return quot


def _poly_primitive(p: Sequence[int]) -> list[int]:
    g = gcd(*p)
    return [c // g for c in p]


def _poly_gcd(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The monic gcd of a monic p and any q: the primitive part of the last
    nonzero pseudo-remainder (Collins, J. ACM 14, 1967).  It divides p, so
    its leading coefficient is 1 or -1."""
    a, b = list(p), _poly_primitive(q)
    while b:
        rem = a
        while len(rem) >= len(b):
            f, d = rem[-1], len(rem) - len(b)
            rem = [c * b[-1] for c in rem]
            for i, c in enumerate(b):
                rem[d + i] -= f * c
            _poly_trim(rem)
        a, b = b, _poly_primitive(rem)
    return a if a[-1] > 0 else [-c for c in a]


def _poly_lcm(p: Sequence[int], q: Sequence[int]) -> list[int]:
    return _poly_quo(_poly_mul(p, q), _poly_gcd(p, q))


def _poly_deriv(p: Sequence[int]) -> list[int]:
    return _poly_trim([p[i] * i for i in range(1, len(p))])


def _squarefree_blocks(p: Sequence[int]) -> list[tuple[list[int], int]]:
    """Musser's square-free decomposition p = prod f_i^i of a monic integer
    polynomial (nonconstant f_i only, each monic with integer coefficients)
    by repeated gcds: from a = gcd(p, p') and b = p / a, with c = gcd(a, b)
    each step keeps f_i = b / c and goes on with a / c and c."""
    a = _poly_gcd(p, _poly_deriv(p))
    b = _poly_quo(p, a)
    blocks = []
    i = 1
    while len(b) > 1:
        c = _poly_gcd(a, b)
        f = _poly_quo(b, c)
        if len(f) > 1:
            blocks.append((f, i))
        a, b = _poly_quo(a, c), c
        i += 1
    return blocks


def _int_poly_at(coeffs: Sequence[int], x: int) -> int:
    """An integer polynomial (low-to-high coefficients) at x, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _integer_roots(g: Sequence[int]) -> list[int]:
    """All integer roots of a monic square-free integer polynomial (a
    Musser block), ascending; being monic, g has no other rational roots.  Each
    root of g mod the first odd prime at which all are simple is lifted by
    Newton's iteration past twice g's Cauchy bound, and exact roots are read
    off the symmetric residues (Loos, SIAM J. Comput. 12, 1983).  Only
    primes dividing the discriminant are skipped, so nothing is capped."""
    deriv = _poly_deriv(g)
    bound = 2 * (1 + max(abs(c) for c in g))
    prime = 1
    while True:
        prime += 2
        if any(prime % q == 0 for q in range(3, isqrt(prime) + 1, 2)):
            continue
        reduced = [c % prime for c in g]
        residues = [r for r in range(prime) if _int_poly_at(reduced, r) % prime == 0]
        if all(_int_poly_at(deriv, r) % prime for r in residues):
            break
    roots = []
    for r in residues:
        modulus = prime
        while modulus <= bound:
            modulus *= modulus
            r = (r - _int_poly_at(g, r) * pow(_int_poly_at(deriv, r), -1, modulus)) % modulus
        s = r if 2 * r <= modulus else r - modulus
        if _int_poly_at(g, s) == 0:
            roots.append(s)
    return sorted(roots)


def _coprime_factors(minpoly: Sequence[int]) -> list[list[int]]:
    """A monic integer minpoly as a product of pairwise coprime monic
    factors: (t - r)^i for each integer root r of a square-free block f_i,
    and the rest of f_i to the power i."""
    factors = []
    for f, mult in _squarefree_blocks(minpoly):
        for r in _integer_roots(f):
            linear = [-r, 1]
            f = _poly_quo(f, linear)
            factors.append(_poly_power(linear, mult))
        if len(f) > 1:
            factors.append(_poly_power(f, mult))
    return factors


def _poly_power(p: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


def _minimal_polynomial(block: list[list[int]]) -> list[int]:
    """Minimal polynomial of a square integer matrix M (low-to-high coefficients).

    The powers I, M, ..., M^d are linearly dependent.  The first free column
    k of their stacked entries is the degree, and every later column is free
    too, so the first pivot-normalized kernel vector (1 at t^k, 0 above) is
    the minimal polynomial.  By Gauss's lemma it is monic with integer
    coefficients.
    """
    d = len(block)
    power = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    flat = [[e for row in power for e in row]]
    for _ in range(d):
        power = _int_matmul(power, block)
        flat.append([e for row in power for e in row])
    stacked = [{j: e for j, e in enumerate(entry) if e} for entry in zip(*flat)]
    return _poly_trim(sparse_int_kernel(stacked, d + 1)[0][0])


def _kernel_at(f: Sequence[int], block: list[list[int]]) -> list[IntVector]:
    """Pivot-normalized basis of ker f(M), as integer vectors over their
    denominators, for a monic integer polynomial f and a square integer
    matrix M, with f(M) evaluated by Horner's rule."""
    d = len(block)
    acc = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for c in reversed(f[:-1]):
        acc = _int_matmul(acc, block)
        for i in range(d):
            acc[i][i] += c
    return sparse_int_kernel([{j: v for j, v in enumerate(row) if v} for row in acc], d)


def _candidates(end: EndAlgebra) -> Iterator[Sequence[int]]:
    """The End coordinate vectors in order but for radical elements (e_i
    among the radical_coeffs; a power of t never splits), then 8 seeded
    combinations, drawn as if none were skipped and made on demand: each
    phi as the integers of D phi, D the least denominator of its entries."""
    radical = {v.index(1) for v in end.radical_coeffs if sum(1 for c in v if c) == 1}
    coords = end.hom.coords
    yield from (ints for i, (ints, _) in enumerate(coords) if i not in radical)
    rng = random.Random(0)
    draws = ([rng.randint(-3, 3) for _ in coords] for _ in range(8))
    den = lcm(*(d for _, d in coords))
    columns = list(zip(*([v * (den // d) for v in ints] for ints, d in coords)))
    for c in draws:
        phi = [sum(map(mul, c, column)) for column in columns]
        g = gcd(den, *phi)
        yield [v // g for v in phi]


# A component of a primary decomposition: the column basis B of the
# submodule per vertex and the rows P of its coordinates along the other
# components, with P B = I and sum over the components of B P = I.
Component = tuple[GradedMap, GradedMap]


def _primary_components(x: QuiverRep, end: EndAlgebra) -> list[Component] | None:
    """The primary decomposition of x under the first candidate endomorphism
    phi whose minimal polynomial has two or more coprime factors f_i.

    Each candidate comes as the integer map D phi, with D the lcm of its
    denominators over all weight spaces.  The minimal polynomial of D phi is
    monic with integer coefficients, and so are the f_i; each component is
    ker f_i(D phi).  It is a submodule because phi commutes with the arrows,
    and x is the direct sum of the components (Fitting's lemma).  phi is
    graded, so its minimal polynomial is the lcm of those of its nonempty
    blocks; empty weight spaces add no columns.  The bases B_i are the
    integer kernel vectors, and one inverse of [B_1 ... B_k] per nonempty
    weight space gives every component's coordinate rows.  None when no
    candidate splits.
    """
    vertices = [v for v in x.window.vertices() if x.dim(v)]
    blocks_at = [(end.hom.layout.offsets[v], x.dim(v)) for v in vertices]
    empty = {v: Matrix.zero(0, 0) for v in x.window.vertices()}
    for ints in _candidates(end):
        blocks = [[ints[o + r * k : o + r * k + k] for r in range(k)] for o, k in blocks_at]
        minpoly = reduce(_poly_lcm, {tuple(_minimal_polynomial(block)) for block in blocks})
        factors = _coprime_factors(minpoly)
        if len(factors) < 2:
            continue
        kernels = [[_kernel_at(f, block) for block in blocks] for f in factors]
        components: list[Component] = [(dict(empty), dict(empty)) for _ in factors]
        for i, v in enumerate(vertices):
            n = x.dim(v)
            columns = [col for kernel in kernels for col in kernel[i]]
            if len(columns) != n:
                raise AssertionError(f"primary components do not fill weight {v}")
            inv, den = inverse(Matrix._of_columns(n, columns)).ints()
            first = 0
            for (basis, coords), kernel in zip(components, kernels):
                k = len(kernel[i])
                basis[v] = Matrix._of_columns(n, kernel[i])
                coords[v] = Matrix._of(k, n, inv[first * n : (first + k) * n], den)
                first += k
        return components
    return None


def _projection(component: Component) -> GradedMap:
    """The idempotent onto a component along the others."""
    basis, coords = component
    return {v: basis[v] * coords[v] for v in basis}


def is_indecomposable(x: QuiverRep) -> IndecomposabilityResult:
    """Three-valued indecomposability over the rationals.

    "indecomposable" is only reported when the semisimple quotient of the
    endomorphism algebra has dimension 1 (a local algebra), which is valid
    over any extension field as well.  When a primary decomposition splits x
    the verdict is "decomposable", with the projection onto its first
    component as the idempotent witness.  Otherwise the question could only
    be settled over an extension of Q and the verdict is left unresolved.
    """
    if x.total_dim == 0:
        raise ValueError("indecomposability of the zero representation")
    verdict, components = _split_components(x)
    return IndecomposabilityResult(verdict, None if components is None else _projection(components[0]))


def split(x: QuiverRep) -> tuple[QuiverRep, ...] | None:
    """The primary components of x as two or more representations, or None
    when End(x) is local or no candidate endomorphism splits x."""
    if x.total_dim == 0:
        return None
    _, components = _split_components(x)
    if components is None:
        return None
    return tuple(_restrict(x, c) for c in components)


def _split_components(x: QuiverRep) -> tuple[str, list[Component] | None]:
    """The indecomposability verdict for a nonzero x, with the primary
    components exactly when it is DECOMPOSABLE."""
    end = end_algebra(x)
    if end.semisimple_quotient_dim == 1:
        return INDECOMPOSABLE, None
    components = _primary_components(x, end)
    if components is None:
        return UNRESOLVED, None
    return DECOMPOSABLE, components


def _restrict(x: QuiverRep, component: Component) -> QuiverRep:
    """x restricted to a submodule: each arrow map becomes P_t x_a B_s, since
    x_a B_s lies in the span of B_t and P_t reads its coordinates there.  The
    contract: at every vertex, B_v is a column basis of the submodule and
    P_v B_v = I, as for a primary component or (g^{-1}, g) in apply_gv."""
    basis, coords = component
    dims = DimensionVector({v: basis[v].cols for v in x.window.vertices()})
    maps = {
        arrow.name: coords[arrow.target] * x.map(arrow) * basis[arrow.source]
        for arrow in double_arrows(x.window)
    }
    return QuiverRep(x.window, dims, maps)


def decompose(x: QuiverRep) -> list[QuiverRep]:
    """Full splitting into summands no further split is found for.

    Every split is a primary decomposition, so this realizes the
    Krull-Schmidt decomposition at the scales this package targets;
    unresolved summands are returned as-is.
    """
    return [part for part, _ in _decompose(x)]


def _decompose(x: QuiverRep) -> list[tuple[QuiverRep, str]]:
    """decompose(x), each summand with the indecomposability verdict of the
    _split_components call that found it unsplittable."""
    if x.total_dim == 0:
        return []
    verdict, components = _split_components(x)
    if components is None:
        return [(x, verdict)]
    return [leaf for c in components for leaf in _decompose(_restrict(x, c))]


def direct_sum(x: QuiverRep, y: QuiverRep) -> QuiverRep:
    """Block-diagonal direct sum; the windows are merged to their union."""
    window = x.window.union(y.window)
    xe, ye = x.embed(window), y.embed(window)
    dims = xe.dims + ye.dims
    maps = {}
    for arrow in double_arrows(window):
        maps[arrow.name] = block_diag([xe.map(arrow), ye.map(arrow)])
    return QuiverRep(window, dims, maps)


# ---------------------------------------------------------------------------
# Isomorphism testing and the base-change group action


def is_isomorphic(
    x: QuiverRep,
    y: QuiverRep,
    *,
    seed: int = 0,
    trials: int = 20,
    exhaustive: bool = False,
) -> bool:
    """Whether x and y lie in the same base-change orbit.

    The steps, in order:
    1. the dimension vectors: False when they differ;
    2. the arrow ranks (_same_arrow_ranks), one Bareiss pass on each
       arrow map's integer rows: False at the first arrow whose ranks
       differ, in every mode, before any Hom elimination;
    3. the integer echelon form (Echelon) of the Hom(x, y) intertwiner
       system, from which the search for an invertible element (_attempts)
       back-substitutes each candidate, with no basis: deterministic when
       dim Hom <= 1, on a grid with `exhaustive`, and otherwise `trials`
       seeded Monte Carlo draws (one-sided error: True is a witness);
    4. unless `exhaustive`, the first _WITNESS_DRAWS draws (or the single
       candidate when dim Hom = 1): an invertible one is the answer;
    5. the rank fast paths: False unless dim End(x), dim Hom(y, x) and
       dim End(y), read as ranks (hom_dim), all equal dim Hom(x, y), as an
       isomorphism requires (Hom(x, y) is then isomorphic to End(x));
    6. the rest of the same draws.

    A False from step 1, 2 or 5 is certain (dim Hom(x, y) != dim End(x)
    among them, dim Hom(x, y) = 0 too, as dim End(x) >= 1); a later one is
    a failed search, certain only on a grid or when dim Hom(x, y) = 1.  The verdicts are those
    of steps 1, 2 and 5 followed by the whole search: a witness proves x and
    y isomorphic, so step 5 would have passed and the search stopped there.
    """
    if x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    if not _same_arrow_ranks(x, y):
        return False
    layout = _HomLayout(x, y)
    echelon, pivots = Echelon(layout.intertwiner_rows()).form()
    dim = layout.size - len(pivots)
    attempts = _attempts(layout, echelon, pivots, seed=seed, trials=trials, exhaustive=exhaustive)
    if not exhaustive and any(itertools.islice(attempts, _WITNESS_DRAWS)):
        return True
    if dim != hom_dim(x, x) or dim != hom_dim(y, x) or dim != hom_dim(y, y):
        return False
    return any(attempts)


# The map of an arrow that is not on a representation's window.
_NO_MAP = Matrix(0, 0, ())


def _same_arrow_ranks(x: QuiverRep, y: QuiverRep) -> bool:
    """Whether each arrow map of x has the rank of y's map of the same name,
    an arrow on one window only counting as rank 0: a base change keeps
    rank(g_t x_a g_s^-1) = rank(x_a), so isomorphic representations agree
    on it whatever their windows.  Arrow by arrow, up to the first one
    whose ranks differ."""
    for name in itertools.chain(x.maps, (name for name in y.maps if name not in x.maps)):
        if rank(x.maps.get(name, _NO_MAP)) != rank(y.maps.get(name, _NO_MAP)):
            return False
    return True


# Draws that is_isomorphic makes before it computes the three Hom ranks.  On
# the 150 positive pairs of the benchmark's orbit_tests at seeds 1-3 (hidden
# sums of 4 thin indecomposables), the first draw was invertible for 99 of
# them, one of the first two for 138 and one of the first three for 148.
_WITNESS_DRAWS = 3

# The exhaustive search refuses grids of more than this many points.  On a
# 2-vCPU Xeon host it walks 40,000-600,000 points a second at total dimension
# 4-6, the most where points stop at a singular block: a full walk takes < 1 s.
_GRID_LIMIT = 10_000


def _attempts(
    layout: _HomLayout,
    echelon: list[dict[int, int]],
    pivots: list[int],
    *,
    affine: bool = False,
    seed: int,
    trials: int,
    exhaustive: bool,
) -> Iterator[bool]:
    """The search for an invertible map among the solutions of a system of
    graded maps between equal dimension vectors, given as the rows and
    pivots of its Echelon.form on layout's coordinates (a consistent affine
    one has its right-hand side as column layout.size): whether each
    candidate is invertible.

    A candidate is the solution with free coordinates c (pivot-normalized:
    the particular solution plus sum c_i kernel_i), tested as D v for an
    integer D != 0.  c = (1, ..., 1) when the space is a point or a line;
    else c runs through the grid {0, ..., d}^n for `exhaustive` (d the total
    dimension, n = len(c): the determinant has degree at most d in each c_i,
    so it vanishes on the grid only if it vanishes everywhere) or through
    `trials` seeded draws in [-2^t, 2^t], t = 1, 2, ... (one-sided: True is a
    witness).  An all-zero c of a homogeneous system is False; a grid of
    more than _GRID_LIMIT points raises ValueError.

    Each candidate is back-substituted (back_substitute) one vertex block
    at a time, last first, on the echelon rows whose pivots lie in that
    block, and a block is tested once complete (a later rescaling of D v
    keeps it invertible): the first singular one settles the candidate.
    """
    blocks = [(layout.offsets[v], k) for v in reversed(layout.window.vertices()) if (k := layout.x.dim(v))]
    cuts = [bisect_left(pivots, o) for o, _ in blocks]  # the first pivot row of each block
    stages = [(echelon[lo:hi], pivots[lo:hi], o, k) for (o, k), lo, hi in zip(blocks, cuts, [len(pivots)] + cuts)]
    for _, w in _solutions(layout, pivots, affine, seed, trials, exhaustive):
        invertible = w is not None
        for rows, cols, o, k in stages if invertible else ():
            w = back_substitute(rows, cols, w)
            if not (w[o] if k == 1 else all(_bareiss([w[o + r * k : o + r * k + k] for r in range(k)]))):
                invertible = False
                break
        yield invertible


def _solutions(
    layout: _HomLayout, pivots: list[int], affine: bool, seed: int, trials: int, exhaustive: bool
) -> Iterator[tuple[Sequence[int], list[int] | None]]:
    """Each candidate's free coordinates c, on the columns with no pivot,
    with the w that back_substitute completes to D v (c in the free
    columns, -1 in the right-hand side column: [A | b] (v, -1) = 0), or
    None for an all-zero homogeneous c."""
    free = sorted(set(range(layout.size)).difference(pivots))
    n, d = len(free), layout.x.total_dim
    if n + affine == 1:
        points = [[1] * n]
    elif exhaustive:
        if (d + 1) ** n > _GRID_LIMIT:
            raise ValueError(f"exhaustive grid of {d + 1}^{n} points is over the limit of {_GRID_LIMIT}")
        points = itertools.product(range(d + 1), repeat=n)
    else:
        rng = random.Random(seed)
        points = ([rng.randint(-(2**t), 2**t) for _ in range(n)] for t in range(1, trials + 1))
    start = [0] * layout.size + [-1] * affine
    for c in points:
        w = start.copy()
        for col, a in zip(free, c):
            w[col] = a
        yield c, (w if affine or any(c) else None)


def apply_gv(x: QuiverRep, g: GradedMap) -> QuiverRep:
    """The base-change action: each arrow map becomes g_target x_a g_source^{-1},
    _restrict along (B, P) = (g^{-1}, g).  The image keeps x's relation
    verdict, since g conjugates the relation value at each vertex."""
    inverses = {}
    for v in x.window.vertices():
        m = g[v]
        if m.shape != (x.dim(v), x.dim(v)):
            raise ValueError(f"group element has wrong shape at weight {v}")
        inv = inverse(m)
        if inv is None:
            raise ValueError(f"group element is singular at weight {v}")
        inverses[v] = inv
    image = _restrict(x, (inverses, g))
    image._set(_violated=x._violated)
    return image


def random_gv(x: QuiverRep, rng: random.Random) -> GradedMap:
    """A seeded invertible graded base change (unit triangular times unit
    triangular, so the determinant is 1)."""
    g = {}
    for v in x.window.vertices():
        n = x.dim(v)
        lower = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(n)] for i in range(n)]
        upper = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(n)] for i in range(n)]
        g[v] = Matrix.from_rows(lower, cols=n) * Matrix.from_rows(upper, cols=n)
    return g
