"""Representations of the preprojective algebra on a type-A window.

A ``QuiverRep`` is a graded vector space (one rational vector space per
integer weight in a window) together with one matrix per double-quiver
arrow.  This module decides everything the classification work needs:
whether the Gelfand-Ponomarev relations hold, nilpotency, intertwiner
(Hom) spaces, endomorphism algebras with their Jacobson radical,
indecomposability, direct sums, splitting into summands, and isomorphism
testing under the base-change group.

The radical of End(M) is the kernel of the trace form (a, b) -> Tr_M(ab)
on M itself, read off the Hom basis with no structure constants.  Splitting
has one mechanism: the primary decomposition of M under one endomorphism
(the End basis in order, then seeded combinations), whose components
ker f_i(phi) for the coprime factors f_i of its minimal polynomial are
submodules with direct sum M.  The f_i come from Yun's square-free blocks
and their integer roots, found p-adically with no size cap.

Results are exact rationals, but the inner loops under ``decompose`` run on
Python ints: each input is scaled by the lcm of its denominators and the
scale is divided out once at the end.  That covers the intertwiner rows of
the Hom system and the trace pairing.  A split candidate phi is scaled once,
by one D for all weight spaces, and every polynomial of the split is a
monic integer polynomial of D phi, whose kernels ker f_i(D phi) are the
components.  One inverse per weight space gives the coordinates along every
component, for both the projection and the restriction.

Isomorphism testing and framed equivalence share one search for an
invertible element of an affine space of graded maps: deterministic when the
space is a point or a line and Monte Carlo (seeded, one-sided error)
otherwise, with an exhaustive grid mode for small instances.  Its candidates
are integer combinations of the spanning maps, each scaled once by the lcm
of all their denominators, and each integer block is tested by fraction-free
(Bareiss) elimination.  The isomorphism test looks for a witness first: a
few draws of its seeded search run before the Hom dimensions it compares,
which are ranks of the intertwiner system (hom_dim), with no basis.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator, Mapping, Sequence

from .linalg import (
    Matrix,
    SparseRow,
    Vector,
    block_diag,
    frac,
    inverse,
    kernel_basis,
    rank,  # not called here; bench/test_bench.py reads the binding preproj.rank
    scale_to_ints,
    sparse_kernel,
    sparse_rank,
)
from .quiver import (
    Arrow,
    DimensionVector,
    Window,
    check_size,
    double_arrows,
    gp_relation,
    json_int,
    json_object,
    window_of_support,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A graded linear map between two representations: one matrix per vertex of
# the working window (explicit zero-shape matrices included).
GradedMap = dict[int, Matrix]


class QuiverRep:
    """A point of the representation variety of the double quiver on a window.

    Every arrow of the window carries exactly one matrix of shape
    dims(target) x dims(source); arrows touching zero-dimensional weight
    spaces carry explicit zero-shape matrices.
    """

    __slots__ = ("window", "dims", "maps")

    def __init__(
        self,
        window: Window,
        dims: DimensionVector,
        maps: Mapping[str, Matrix] | None = None,
    ):
        for k in dims.support():
            if not window.contains(k):
                raise ValueError(f"dimension vector has weight {k} outside window [{window.a}, {window.b}]")
        self.window = window
        self.dims = dims
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
        self.maps = complete

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
        data = json_object(data, "representation")
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
            raise ValueError(f"maps for arrows outside the window: {sorted(unknown)}")
        return cls(window, dims, maps)


def relation_value(x: QuiverRep, i: int) -> Matrix:
    """The matrix of the Gelfand-Ponomarev relation r_i evaluated at x."""
    term = gp_relation(x.window, i)
    n = x.dim(i)
    value = Matrix.zero(n, n)
    for first, second in term.positive:
        value = value + x.map(second) * x.map(first)
    for first, second in term.negative:
        value = value - x.map(second) * x.map(first)
    return value


def check_relations(x: QuiverRep) -> list[int]:
    """Vertices where the preprojective relation fails; empty iff x is a
    module over the preprojective algebra."""
    return [i for i in x.window.vertices() if not relation_value(x, i).is_zero()]


def total_matrix(x: QuiverRep) -> Matrix:
    """The endomorphism of the direct sum of all weight spaces whose blocks
    are the arrow matrices (weights ordered ascending)."""
    verts = list(x.window.vertices())
    offsets = {}
    pos = 0
    for v in verts:
        offsets[v] = pos
        pos += x.dim(v)
    total = pos
    entries = [[_ZERO] * total for _ in range(total)]
    for arrow in double_arrows(x.window):
        m = x.map(arrow)
        r0, c0 = offsets[arrow.target], offsets[arrow.source]
        for i in range(m.rows):
            row = m.row(i)
            for j in range(m.cols):
                if row[j] != 0:
                    entries[r0 + i][c0 + j] += row[j]
    return Matrix.from_rows(entries, cols=total)


def is_nilpotent(x: QuiverRep) -> bool:
    """Whether all long enough path evaluations vanish.

    Equivalent formulation: the total arrow-sum operator A on the direct sum
    of the weight spaces satisfies A^d = 0 for d the total dimension, since
    the blocks of A^n are the sums of path evaluations over length-n paths.
    """
    d = x.total_dim
    if d == 0:
        return True
    power = total_matrix(x)
    steps = 1
    while steps < d:
        power = power * power
        steps *= 2
    return power.is_zero()


# ---------------------------------------------------------------------------
# Hom spaces and endomorphism algebras


@dataclass
class HomSpace:
    """A basis of the graded intertwiners from source to target."""

    source: QuiverRep
    target: QuiverRep
    basis: list[GradedMap]

    @property
    def dim(self) -> int:
        return len(self.basis)


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

    def index(self, vertex: int, r: int, c: int) -> int:
        return self.offsets[vertex] + r * self.x.dim(vertex) + c

    def intertwiner_rows(self) -> list[SparseRow]:
        """Linear system expressing g_target x_a = y_a g_source for all
        arrows, in integers: the equations of each arrow are homogeneous, so
        they are scaled by the lcm of the denominators of x_a and y_a."""
        rows: list[SparseRow] = []
        for arrow in double_arrows(self.window):
            xa = self.x.map(arrow)
            ya = self.y.map(arrow)
            ints, _ = scale_to_ints(xa.entries() + ya.entries())
            x_ints, y_ints = ints[: len(xa.entries())], ints[len(xa.entries()) :]
            tgt_base, src_base = self.offsets[arrow.target], self.offsets[arrow.source]
            # unknown g_target[r, k] sits at tgt_base + r * xa.rows + k and
            # g_source[k, c] at src_base + k * xa.cols + c; the two never meet
            for r in range(ya.rows):
                for c in range(xa.cols):
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

    def unvec(self, coords: Sequence[Fraction]) -> GradedMap:
        g: GradedMap = {}
        for v in self.window.vertices():
            nr, nc = self.y.dim(v), self.x.dim(v)
            base = self.offsets[v]
            g[v] = Matrix(nr, nc, (coords[base + r * nc + c] for r in range(nr) for c in range(nc)))
        return g


def hom_basis(x: QuiverRep, y: QuiverRep) -> HomSpace:
    """Basis of all graded maps g with g_target x_a = y_a g_source for every
    double-quiver arrow, computed as the kernel of the stacked linear system."""
    layout = _HomLayout(x, y)
    kernel = sparse_kernel(layout.intertwiner_rows(), layout.size)
    return HomSpace(x, y, [layout.unvec(v) for v in kernel])


def hom_dim(x: QuiverRep, y: QuiverRep) -> int:
    """dim Hom(x, y) = hom_basis(x, y).dim: the number of unknowns of the
    intertwiner system minus its rank, with no basis built."""
    layout = _HomLayout(x, y)
    return layout.size - sparse_rank(layout.intertwiner_rows(), layout.size)


@dataclass
class EndAlgebra:
    """The endomorphism algebra of a representation M.

    basis is the Hom basis of End(M); radical_coeffs spans its Jacobson
    radical in basis coordinates.  The radical is the kernel of Dickson's
    trace form (a, b) -> Tr_M(ab), the trace of ab acting on M itself.  This
    holds because M is a faithful End(M)-module in characteristic zero: the
    kernel is an ideal whose elements a have Tr_M(a^k) = 0 for every k, so
    they are nilpotent, and every radical element lies in it.
    """

    rep: QuiverRep
    basis: list[GradedMap]
    radical_dim: int
    semisimple_quotient_dim: int
    radical_coeffs: list[Vector]

    @property
    def dim(self) -> int:
        return len(self.basis)


def trace_pairing(left: Sequence[GradedMap], right: Sequence[GradedMap]) -> list[list[Fraction]]:
    """The Gram matrix G[i][j] = Tr(b_j a_i) of graded maps a_i: X -> Y in
    left and b_j: Y -> X in right, the traces summed over the vertices.

    Computed in integers: each map is flattened over (vertex, row, column)
    and scaled by the lcm d of its denominators, each b_j is read transposed
    through one index permutation, and the entry is Fraction(s, d_i d_j) for
    the integer dot product s.  When right is left, G is symmetric and only
    half of it is computed.
    """
    if not left:
        return []
    vertices = list(left[0])
    # flat position of a_v[r, c] -> flat position of b_v[c, r]
    perm = []
    for v in vertices:
        m = left[0][v]
        base = len(perm)
        perm.extend(base + c * m.rows + r for r in range(m.rows) for c in range(m.cols))
    a_side = []
    for g in left:
        ints, den = scale_to_ints(e for v in vertices for e in g[v].entries())
        nonzero = [k for k, e in enumerate(ints) if e]
        a_side.append((nonzero, [ints[k] for k in nonzero], den))
    b_side = []
    for g in right:
        ints, den = scale_to_ints(e for v in vertices for e in g[v].entries())
        b_side.append(([ints[k] for k in perm], den))
    symmetric = left is right
    gram = [[_ZERO] * len(right) for _ in left]
    for i, (nonzero, values, di) in enumerate(a_side):
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
    basis = hom_basis(x, x).basis
    n = len(basis)
    radical_coeffs = kernel_basis(Matrix.from_rows(trace_pairing(basis, basis), cols=n))
    radical_dim = len(radical_coeffs)
    return EndAlgebra(
        rep=x,
        basis=basis,
        radical_dim=radical_dim,
        semisimple_quotient_dim=n - radical_dim,
        radical_coeffs=radical_coeffs,
    )


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
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_sub(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
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
    """Yun's square-free decomposition p = prod f_i^i of a monic integer
    polynomial (nonconstant f_i only, each monic with integer coefficients)."""
    if len(p) <= 1:
        return []
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) <= 1:
        return [(list(p), 1)]
    c = _poly_quo(p, g)
    d = _poly_sub(_poly_quo(_poly_deriv(p), g), _poly_deriv(c))
    blocks = []
    i = 1
    while len(c) > 1:
        h = _poly_gcd(c, d)
        if len(h) > 1:
            blocks.append((h, i))
        c = _poly_quo(c, h)
        d = _poly_sub(_poly_quo(d, h), _poly_deriv(c))
        i += 1
    return blocks


def _int_poly_at(coeffs: Sequence[int], x: int) -> int:
    """An integer polynomial (low-to-high coefficients) at x, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _integer_roots(g: Sequence[int]) -> list[int]:
    """All integer roots of a monic square-free integer polynomial (a Yun
    block), ascending; being monic, g has no other rational roots.  Each
    root of g mod the first odd prime at which all are simple is lifted by
    Newton's iteration past twice g's Cauchy bound, and exact roots are read
    off the symmetric residues (Loos, SIAM J. Comput. 12, 1983).  Only
    primes dividing the discriminant are skipped, so nothing is capped."""
    deriv = [j * g[j] for j in range(1, len(g))]
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
    return _poly_trim([int(c) for c in sparse_kernel(stacked, d + 1)[0]])


def _kernel_at(f: Sequence[int], block: list[list[int]]) -> list[Vector]:
    """Pivot-normalized basis of ker f(M) for a monic integer polynomial f
    and a square integer matrix M, with f(M) evaluated by Horner's rule."""
    d = len(block)
    acc = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for c in reversed(f[:-1]):
        acc = _int_matmul(acc, block)
        for i in range(d):
            acc[i][i] += c
    return sparse_kernel([{j: v for j, v in enumerate(row) if v} for row in acc], d)


def _candidates(end: EndAlgebra):
    """The End basis in order but for its radical elements (e_i among the
    radical_coeffs; a power of t never splits), then 8 seeded combinations,
    drawn as if none were skipped and made on demand."""
    radical = {v.index(_ONE) for v in end.radical_coeffs if sum(1 for c in v if c) == 1}
    yield from (g for i, g in enumerate(end.basis) if i not in radical)
    rng = random.Random(0)
    for _ in range(8):
        yield _combination(end.basis, [rng.randint(-3, 3) for _ in end.basis])


# A component of a primary decomposition: the column basis B of the
# submodule per vertex and the rows P of its coordinates along the other
# components, with P B = I and sum over the components of B P = I.
Component = tuple[GradedMap, GradedMap]


def _primary_components(x: QuiverRep, end: EndAlgebra) -> list[Component] | None:
    """The primary decomposition of x under the first candidate endomorphism
    phi whose minimal polynomial has two or more coprime factors f_i.

    phi is scaled once to the integer map D phi, with D the lcm of its
    denominators over all weight spaces.  The minimal polynomial of D phi is
    monic with integer coefficients, and so are the f_i; each component is
    ker f_i(D phi).  It is a submodule because phi commutes with the arrows,
    and x is the direct sum of the components (Fitting's lemma).  phi is
    graded, so its minimal polynomial is the lcm of those of its nonempty
    blocks; empty weight spaces add no columns.  One inverse of
    [B_1 ... B_k] per nonempty weight space gives every component's
    coordinate rows.  None when no candidate splits.
    """
    vertices = [v for v, m in end.basis[0].items() if m.rows]
    empty = {v: Matrix.zero(0, 0) for v in x.window.vertices()}
    for phi in _candidates(end):
        blocks = [[flat[r * k : (r + 1) * k] for r in range(k)] for k, (flat,) in _scaled_blocks([phi])]
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
            inv = inverse(Matrix(n, n, (col[r] for r in range(n) for col in columns))).entries()
            first = 0
            for (basis, coords), kernel in zip(components, kernels):
                k = len(kernel[i])
                basis[v] = Matrix(n, k, (col[r] for r in range(n) for col in kernel[i]))
                coords[v] = Matrix(k, n, inv[first * n : (first + k) * n])
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
    x_a B_s lies in the span of B_t and P_t reads its coordinates there."""
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


def _combination(basis: list[GradedMap], coeffs: Sequence[Fraction | int]) -> GradedMap:
    """sum c_i basis_i, accumulated in one pass over each vertex's entries."""
    terms = [(frac(c), g) for c, g in zip(coeffs, basis) if c]
    out = {}
    for v, m in basis[0].items():
        acc = [_ZERO] * (m.rows * m.cols)
        for c, g in terms:
            for r in range(m.rows):
                base = r * m.cols
                for k, a in enumerate(g[v].row(r)):
                    if a:
                        acc[base + k] += c * a
        out[v] = Matrix(m.rows, m.cols, acc)
    return out


def is_isomorphic(
    x: QuiverRep,
    y: QuiverRep,
    *,
    seed: int = 0,
    trials: int = 20,
    exhaustive: bool = False,
) -> bool:
    """Whether x and y lie in the same base-change orbit.

    False when the dimension vectors differ.  Only Hom(x, y) is solved for a
    basis, which the search for an invertible element needs (see
    _find_invertible): deterministic when dim Hom <= 1, on a grid with
    `exhaustive`, and otherwise by `trials` seeded Monte Carlo draws
    (one-sided error: True is always a witness).

    Witness first: unless `exhaustive`, the first _WITNESS_DRAWS draws (or
    the single candidate when dim Hom = 1) run right after the basis, and an
    invertible one is the answer.  Only when they fail come the fast paths,
    False unless dim Hom(y, x), dim End(x) and dim End(y), read as ranks
    (hom_dim), agree as an isomorphism requires, and then the rest of the
    same draws.  The verdicts are those of the fast paths followed by the
    whole search: a witness proves x and y isomorphic, so the fast paths
    would have passed and the search would have stopped at that draw.
    """
    if x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    forward = hom_basis(x, y)
    if forward.dim == 0:
        return False
    attempts = _attempts(forward.basis, seed=seed, trials=trials, exhaustive=exhaustive)
    if not exhaustive and any(itertools.islice(attempts, _WITNESS_DRAWS)):
        return True
    if forward.dim != hom_dim(y, x):
        return False
    if hom_dim(x, x) != hom_dim(y, y):
        return False
    return any(attempts)


# Draws that is_isomorphic makes before it computes the three Hom ranks.  On
# the 150 positive pairs of the benchmark's orbit_tests at seeds 1-3 (hidden
# sums of 4 thin indecomposables), the first draw was invertible for 99 of
# them, one of the first two for 138 and one of the first three for 148.
_WITNESS_DRAWS = 3

# The exhaustive search refuses grids of more than this many points.  On a
# 2-vCPU Xeon host it checks 5,000-8,000 points a second on maps of total
# dimension 6, so a full walk takes seconds, not hours.
_GRID_LIMIT = 10_000


def _find_invertible(
    kernel: list[GradedMap],
    particular: GradedMap | None = None,
    *,
    seed: int,
    trials: int,
    exhaustive: bool,
) -> bool:
    """Whether particular + span(kernel), or span(kernel) when particular is
    None, contains an invertible graded map.

    Deterministic when the space is one point or one line.  Otherwise every
    candidate is particular + sum c_i kernel_i, with coefficient vectors c
    from the grid {0, ..., d}^n for `exhaustive` (d the total dimension of
    the maps, n = len(kernel); the determinant is a polynomial of degree at
    most d in each c_i, so it vanishes on the whole grid only if it vanishes
    everywhere) or else from `trials` seeded draws with ranges [-2^t, 2^t]
    for t = 1, 2, ... (one-sided error: True is always a witness).  A grid of
    more than _GRID_LIMIT points raises ValueError.
    """
    return any(_attempts(kernel, particular, seed=seed, trials=trials, exhaustive=exhaustive))


def _attempts(
    kernel: list[GradedMap],
    particular: GradedMap | None = None,
    *,
    seed: int,
    trials: int,
    exhaustive: bool,
) -> Iterator[bool]:
    """Whether each candidate of _find_invertible's search is invertible, in
    search order and made on demand: one verdict per grid point or draw (an
    all-zero one is False), one for a single point or line, none when the
    maps are not square.

    Candidates are integer combinations: the maps are scaled once by D, the
    lcm of the denominators of all their entries, and D times a candidate is
    invertible exactly when the candidate is.  Each vertex block is read
    transposed, one column of coefficients per entry, so an entry of a
    candidate is one dot product with the coefficient vector.
    """
    basis, fixed = (kernel, []) if particular is None else ([particular] + kernel, [1])
    if any(m.rows != m.cols for m in basis[0].values()):
        return
    blocks = [(k, list(zip(*maps))) for k, maps in _scaled_blocks(basis)]
    if len(basis) == 1:
        yield _invertible(blocks, [1])
        return
    n = len(kernel)
    if exhaustive:
        d = sum(m.rows for m in basis[0].values())
        if (d + 1) ** n > _GRID_LIMIT:
            raise ValueError(f"exhaustive grid of {d + 1}^{n} points is over the limit of {_GRID_LIMIT}")
        points = itertools.product(range(d + 1), repeat=n)
    else:
        rng = random.Random(seed)
        points = ([rng.randint(-(2**t), 2**t) for _ in range(n)] for t in range(1, trials + 1))
    for coeffs in points:
        coeffs = fixed + list(coeffs)
        yield any(coeffs) and _invertible(blocks, coeffs)


def _scaled_blocks(basis: list[GradedMap]) -> list[tuple[int, list[list[int]]]]:
    """For each nonempty vertex block of the square maps in basis, in vertex
    order: its size k and, for every map b, the k * k entries of D b as one
    row-major integer list, with D the lcm of all the denominators."""
    vertices = [v for v, m in basis[0].items() if m.rows]
    scaled = [scale_to_ints([a for v in vertices for a in g[v].entries()]) for g in basis]
    den = lcm(*(d for _, d in scaled))
    flat = [ints if d == den else [a * (den // d) for a in ints] for ints, d in scaled]
    blocks = []
    pos = 0
    for v in vertices:
        k = basis[0][v].rows
        blocks.append((k, [f[pos : pos + k * k] for f in flat]))
        pos += k * k
    return blocks


def _invertible(blocks: list[tuple[int, list[tuple[int, ...]]]], coeffs: Sequence[int]) -> bool:
    """Whether sum c_i b_i is nonsingular at every vertex.  A block is given
    by its size k and its k * k row-major entries, each as the column of that
    entry's values in the b_i.  The blocks are tested in vertex order up to
    the first singular one, each by fraction-free elimination (Bareiss,
    Math. Comp. 22, 1968): after step i every entry is a minor of order
    i + 1 of the block with its rows reordered, so the division by the
    previous pivot is exact, and the block is singular exactly when a step
    finds no nonzero entry left in its column."""
    for k, columns in blocks:
        entries = [sum(map(mul, coeffs, col)) for col in columns]
        rows = [entries[r * k : (r + 1) * k] for r in range(k)]
        previous = 1
        while rows:
            i = next((i for i, row in enumerate(rows) if row[0]), None)
            if i is None:
                return False
            pivot = rows.pop(i)
            p = pivot[0]
            rows = [[(p * a - row[0] * b) // previous for a, b in zip(row[1:], pivot[1:])] for row in rows]
            previous = p
    return True


def apply_gv(x: QuiverRep, g: GradedMap) -> QuiverRep:
    """The base-change action: each arrow map becomes g_target x_a g_source^{-1}."""
    inverses = {}
    for v in x.window.vertices():
        m = g[v]
        if m.shape != (x.dim(v), x.dim(v)):
            raise ValueError(f"group element has wrong shape at weight {v}")
        inv = inverse(m) if m.rows > 0 else m
        if inv is None:
            raise ValueError(f"group element is singular at weight {v}")
        inverses[v] = inv
    maps = {}
    for arrow in double_arrows(x.window):
        maps[arrow.name] = g[arrow.target] * x.map(arrow) * inverses[arrow.source]
    return QuiverRep(x.window, x.dims, maps)


def random_gv(x: QuiverRep, rng: random.Random) -> GradedMap:
    """A seeded invertible graded base change (unit triangular times unit
    triangular, so the determinant is 1)."""
    g = {}
    for v in x.window.vertices():
        n = x.dim(v)
        lower = [[_ONE if i == j else (frac(rng.randint(-2, 2)) if i > j else _ZERO) for j in range(n)] for i in range(n)]
        upper = [[_ONE if i == j else (frac(rng.randint(-2, 2)) if i < j else _ZERO) for j in range(n)] for i in range(n)]
        g[v] = Matrix.from_rows(lower, cols=n) * Matrix.from_rows(upper, cols=n)
    return g
