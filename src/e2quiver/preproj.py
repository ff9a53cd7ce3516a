"""Representations of the preprojective algebra on a type-A window.

A ``QuiverRep`` is a graded vector space (one rational vector space per
integer weight in a window) together with one matrix per double-quiver
arrow.  This module decides everything the classification work needs:
whether the Gelfand-Ponomarev relations hold, nilpotency, intertwiner
(Hom) spaces, endomorphism algebras with their Jacobson radical,
indecomposability, direct sums, splitting off summands, and isomorphism
testing under the base-change group.

Isomorphism testing is deterministic when the Hom space has dimension at
most one and Monte Carlo (seeded, one-sided error) otherwise, with an
exhaustive grid mode for small instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import (
    Matrix,
    SparseRow,
    Vector,
    block_diag,
    column_space_basis,
    frac,
    inverse,
    kernel_basis,
    rank,
    solve,
    solve_multi,
    sparse_kernel,
)
from .quiver import (
    Arrow,
    DimensionVector,
    Window,
    arrow_from_name,
    double_arrows,
    gp_relation,
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
    def from_json_dict(cls, data: Mapping) -> "QuiverRep":
        try:
            a, b = data["window"]
            window = Window(int(a), int(b))
            dims = DimensionVector.from_json_dict(data.get("dims", {}))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed representation document: {exc}") from exc
        raw = data.get("maps", {})
        maps: dict[str, Matrix] = {}
        for arrow in double_arrows(window):
            nrows, ncols = dims[arrow.target], dims[arrow.source]
            if arrow.name in raw:
                maps[arrow.name] = Matrix.from_lists(raw[arrow.name], rows=nrows, cols=ncols)
            elif nrows > 0 and ncols > 0:
                raise ValueError(f"missing map {arrow.name} between nonzero weight spaces")
        unknown = set(raw) - {arrow.name for arrow in double_arrows(window)}
        if unknown:
            # validate the names at least parse as arrows before rejecting
            for name in sorted(unknown):
                arrow_from_name(name)
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
        """Linear system expressing g_target x_a = y_a g_source for all arrows."""
        rows: list[SparseRow] = []
        for arrow in double_arrows(self.window):
            xa = self.x.map(arrow)
            ya = self.y.map(arrow)
            src, tgt = arrow.source, arrow.target
            for r in range(self.y.dim(tgt)):
                for c in range(self.x.dim(src)):
                    row: SparseRow = {}
                    for k in range(self.x.dim(tgt)):
                        v = xa[k, c]
                        if v != 0:
                            idx = self.index(tgt, r, k)
                            row[idx] = row.get(idx, _ZERO) + v
                    for k in range(self.y.dim(src)):
                        v = ya[r, k]
                        if v != 0:
                            idx = self.index(src, k, c)
                            row[idx] = row.get(idx, _ZERO) - v
                    row = {i: v for i, v in row.items() if v != 0}
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

    def vec(self, g: GradedMap) -> Vector:
        coords = [_ZERO] * self.size
        for v in self.window.vertices():
            m = g[v]
            base = self.offsets[v]
            nc = m.cols
            for r in range(m.rows):
                row = m.row(r)
                for c in range(nc):
                    coords[base + r * nc + c] = row[c]
        return tuple(coords)


def hom_basis(x: QuiverRep, y: QuiverRep) -> HomSpace:
    """Basis of all graded maps g with g_target x_a = y_a g_source for every
    double-quiver arrow, computed as the kernel of the stacked linear system."""
    layout = _HomLayout(x, y)
    kernel = sparse_kernel(layout.intertwiner_rows(), layout.size)
    return HomSpace(x, y, [layout.unvec(v) for v in kernel])


def intertwines(x: QuiverRep, y: QuiverRep, g: GradedMap) -> bool:
    """Direct check of the intertwiner condition for a graded map x -> y."""
    window = x.window.union(y.window)
    xe, ye = x.embed(window), y.embed(window)
    for v in window.vertices():
        if v not in g or g[v].shape != (ye.dim(v), xe.dim(v)):
            return False
    for arrow in double_arrows(window):
        if g[arrow.target] * xe.map(arrow) != ye.map(arrow) * g[arrow.source]:
            return False
    return True


def graded_identity(x: QuiverRep) -> GradedMap:
    return {v: Matrix.identity(x.dim(v)) for v in x.window.vertices()}


def _gm_compose(g: GradedMap, h: GradedMap) -> GradedMap:
    return {v: g[v] * h[v] for v in g}


def _gm_add(g: GradedMap, h: GradedMap) -> GradedMap:
    return {v: g[v] + h[v] for v in g}


def _gm_sub(g: GradedMap, h: GradedMap) -> GradedMap:
    return {v: g[v] - h[v] for v in g}


def _gm_scale(c: Fraction, g: GradedMap) -> GradedMap:
    return {v: g[v].scale(c) for v in g}


def _gm_is_zero(g: GradedMap) -> bool:
    return all(m.is_zero() for m in g.values())


def _gm_equal(g: GradedMap, h: GradedMap) -> bool:
    return all(g[v] == h[v] for v in g)


def _gm_invertible(g: GradedMap) -> bool:
    for m in g.values():
        if m.rows != m.cols:
            return False
        if m.rows > 0 and rank(m) != m.rows:
            return False
    return True


@dataclass
class EndAlgebra:
    """The endomorphism algebra of a representation.

    multiplication_table[i][j][k] is the coefficient of basis[k] in the
    composition basis[i] o basis[j].  The radical dimension comes from the
    characteristic-zero trace-form criterion: an element a is in the Jacobson
    radical iff trace(L_{a b}) = 0 for every b, where L is left
    multiplication on the algebra.
    """

    rep: QuiverRep
    basis: list[GradedMap]
    multiplication_table: tuple[tuple[tuple[Fraction, ...], ...], ...]
    radical_dim: int
    semisimple_quotient_dim: int
    identity_coeffs: Vector
    radical_coeffs: list[Vector]

    @property
    def dim(self) -> int:
        return len(self.basis)


def end_algebra(x: QuiverRep) -> EndAlgebra:
    """Endomorphism algebra with multiplication table and radical dimension."""
    if x.total_dim == 0:
        raise ValueError("endomorphism algebra of the zero representation")
    layout = _HomLayout(x, x)
    homs = hom_basis(x, x)
    basis = homs.basis
    n = len(basis)
    basis_cols = Matrix.from_columns([layout.vec(g) for g in basis], rows=layout.size)
    products = Matrix.from_columns(
        [layout.vec(_gm_compose(basis[i], basis[j])) for i in range(n) for j in range(n)],
        rows=layout.size,
    )
    coeffs = solve_multi(basis_cols, products)
    if coeffs is None:
        raise AssertionError("endomorphism basis is not closed under composition")
    table = tuple(
        tuple(tuple(coeffs[k, i * n + j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    identity_coeffs = solve(basis_cols, layout.vec(graded_identity(x)))
    if identity_coeffs is None:
        raise AssertionError("identity endomorphism outside the computed basis span")
    # trace of left multiplication by each basis element
    left_traces = [sum((table[k][l][l] for l in range(n)), _ZERO) for k in range(n)]
    gram = Matrix.from_rows(
        [[sum((table[i][j][k] * left_traces[k] for k in range(n)), _ZERO) for j in range(n)] for i in range(n)],
        cols=n,
    )
    radical_coeffs = kernel_basis(gram)
    radical_dim = len(radical_coeffs)
    return EndAlgebra(
        rep=x,
        basis=basis,
        multiplication_table=table,
        radical_dim=radical_dim,
        semisimple_quotient_dim=n - radical_dim,
        identity_coeffs=identity_coeffs,
        radical_coeffs=radical_coeffs,
    )


# ---------------------------------------------------------------------------
# Idempotents, splitting, indecomposability

INDECOMPOSABLE = "indecomposable"
DECOMPOSABLE = "decomposable"
UNRESOLVED = "indecomposable_over_Q_unresolved"


@dataclass
class IndecomposabilityResult:
    verdict: str
    idempotent: GradedMap | None = None


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_sub(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    out = [_ZERO] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    return _poly_trim(out)


def _poly_divmod(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    q = list(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [_ZERO] * max(0, len(rem) - len(q) + 1)
    lead = q[-1]
    while len(rem) >= len(q):
        f = rem[-1] / lead
        d = len(rem) - len(q)
        quot[d] = f
        for i, b in enumerate(q):
            rem[d + i] -= f * b
        _poly_trim(rem)
        if not rem:
            break
    return _poly_trim(quot), rem


def _poly_monic(p: Sequence[Fraction]) -> list[Fraction]:
    p = _poly_trim(list(p))
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _poly_gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(list(p)), _poly_trim(list(q))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return _poly_monic(a)


def _poly_xgcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Monic g and u, v with u p + v q = g."""
    a, b = _poly_trim(list(p)), _poly_trim(list(q))
    ua, va = [_ONE], []
    ub, vb = [], [_ONE]
    while b:
        quot, r = _poly_divmod(a, b)
        a, b = b, r
        ua, ub = ub, _poly_sub(ua, _poly_mul(quot, ub))
        va, vb = vb, _poly_sub(va, _poly_mul(quot, vb))
    if not a:
        return [], [], []
    lead = a[-1]
    inv = _ONE / lead
    return (
        [c * inv for c in a],
        [c * inv for c in ua],
        [c * inv for c in va],
    )


def _poly_deriv(p: Sequence[Fraction]) -> list[Fraction]:
    return _poly_trim([p[i] * i for i in range(1, len(p))])


def _squarefree_blocks(p: Sequence[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's square-free decomposition p = prod f_i^i (nonconstant f_i only)."""
    p = _poly_monic(p)
    if len(p) <= 1:
        return []
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) <= 1:
        return [(p, 1)]
    c, _ = _poly_divmod(p, g)
    d = _poly_sub(_poly_divmod(_poly_deriv(p), g)[0], _poly_deriv(c))
    blocks = []
    i = 1
    while len(c) > 1:
        h = _poly_gcd(c, d)
        if len(h) > 1:
            blocks.append((h, i))
        c, _ = _poly_divmod(c, h)
        d = _poly_sub(_poly_divmod(d, h)[0], _poly_deriv(c))
        i += 1
    return blocks


def _rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, ascending."""
    p = _poly_trim(list(p))
    if len(p) <= 1:
        return []
    roots = []
    work = list(p)
    shift = 0
    while work[0] == 0:
        shift += 1
        work = work[1:]
    if shift:
        roots.append(_ZERO)
    if len(work) > 1:
        denom_lcm = 1
        for c in work:
            denom_lcm = denom_lcm * c.denominator // _gcd_int(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in work]
        a0, an = abs(ints[0]), abs(ints[-1])
        for num in _divisors(a0):
            for den in _divisors(an):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if cand in roots:
                        continue
                    if _poly_eval_scalar(work, cand) == 0:
                        roots.append(cand)
    return sorted(roots)


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_eval_scalar(p: Sequence[Fraction], t: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _poly_eval_graded(p: Sequence[Fraction], phi: GradedMap, one: GradedMap) -> GradedMap:
    """Horner evaluation of a polynomial at a graded endomorphism."""
    acc = {v: Matrix.zero(m.rows, m.cols) for v, m in one.items()}
    for c in reversed(p):
        acc = _gm_compose(acc, phi)
        if c != 0:
            acc = _gm_add(acc, _gm_scale(c, one))
    return acc


def _graded_block(g: GradedMap) -> Matrix:
    return block_diag([g[v] for v in sorted(g)])


def _minimal_polynomial(m: Matrix) -> list[Fraction]:
    """Minimal polynomial of a square matrix (monic, low-to-high coefficients)."""
    d = m.rows
    if d == 0:
        return [_ONE]
    powers = [Matrix.identity(d)]
    vecs = [tuple(powers[0].row(i)[j] for i in range(d) for j in range(d))]
    while True:
        nxt = powers[-1] * m
        v = tuple(nxt.row(i)[j] for i in range(d) for j in range(d))
        stacked = Matrix.from_columns(vecs, rows=d * d)
        coeffs = solve(stacked, v)
        if coeffs is not None:
            # m^k = sum coeffs_j m^j  =>  minpoly = t^k - sum coeffs_j t^j
            poly = [-c for c in coeffs] + [_ONE]
            return _poly_trim(poly)
        powers.append(nxt)
        vecs.append(v)


def _support_components(x: QuiverRep) -> list[list[int]]:
    """Connected components of the support under nonzero arrow maps."""
    support = [v for v in x.window.vertices() if x.dim(v) > 0]
    comps = []
    seen: set[int] = set()
    support_set = set(support)
    for start in support:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in (v - 1, v + 1):
                if u in seen or u not in support_set:
                    continue
                i = min(u, v)
                linked = not x.map(Arrow(i)).is_zero() or not x.map(Arrow(i, reverse=True)).is_zero()
                if linked:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def _coprime_split(minpoly: list[Fraction]) -> tuple[list[Fraction], list[Fraction]] | None:
    """A factorization minpoly = A * B into coprime nonconstant factors, found
    via square-free decomposition and rational-root extraction."""
    if len(minpoly) <= 2:
        return None
    blocks = _squarefree_blocks(minpoly)
    if len(blocks) >= 2:
        f, mult = blocks[0]
        a = [_ONE]
        for _ in range(mult):
            a = _poly_mul(a, f)
        b, rem = _poly_divmod(minpoly, a)
        assert not rem
        return a, b
    for root in _rational_roots(minpoly):
        linear = [-root, _ONE]
        a = [_ONE]
        rest = list(minpoly)
        while True:
            quot, rem = _poly_divmod(rest, linear)
            if rem:
                break
            a = _poly_mul(a, linear)
            rest = quot
        if len(rest) > 1:
            return a, rest
    return None


def _spectral_idempotent(phi: GradedMap, one: GradedMap) -> GradedMap | None:
    """Exact idempotent from a coprime factorization of the minimal polynomial
    of phi, via Bezout coefficients; None if no such factorization is found."""
    minpoly = _minimal_polynomial(_graded_block(phi))
    split_factors = _coprime_split(minpoly)
    if split_factors is None:
        return None
    a, b = split_factors
    _, u, v = _poly_xgcd(a, b)
    e = _poly_eval_graded(_poly_mul(v, b), phi, one)
    return e


def _lift_idempotent(e: GradedMap, one: GradedMap, max_iter: int) -> GradedMap | None:
    """Newton-style lifting e <- 3e^2 - 2e^3 until exactly idempotent.

    Converges when e is idempotent modulo the (nilpotent) radical."""
    for _ in range(max_iter):
        sq = _gm_compose(e, e)
        if _gm_equal(sq, e):
            return e
        cube = _gm_compose(sq, e)
        e = _gm_sub(_gm_scale(Fraction(3), sq), _gm_scale(Fraction(2), cube))
    sq = _gm_compose(e, e)
    return e if _gm_equal(sq, e) else None


def _nontrivial(e: GradedMap, one: GradedMap) -> bool:
    return not _gm_is_zero(e) and not _gm_equal(e, one)


def _find_idempotent(x: QuiverRep, end: EndAlgebra) -> GradedMap | None:
    """Deterministic search for a nontrivial idempotent endomorphism.

    Order: exact idempotents among the Hom basis elements; 0/1 projections
    onto weight blocks (connected components of the support); pairwise
    products of basis elements; spectral idempotents built from minimal
    polynomials (square-free decomposition, rational roots, Bezout); finally
    radical lifting of candidates idempotent modulo the radical.
    """
    one = graded_identity(x)
    basis = end.basis

    for g in basis:
        if _gm_equal(_gm_compose(g, g), g) and _nontrivial(g, one):
            return g

    comps = _support_components(x)
    if len(comps) > 1:
        first = set(comps[0])
        e = {
            v: Matrix.identity(x.dim(v)) if v in first else Matrix.zero(x.dim(v), x.dim(v))
            for v in x.window.vertices()
        }
        return e

    for gi in basis:
        for gj in basis:
            if gi is gj:
                continue
            g = _gm_compose(gi, gj)
            if _gm_equal(_gm_compose(g, g), g) and _nontrivial(g, one):
                return g

    candidates: list[GradedMap] = list(basis)
    combo = None
    for weight, g in enumerate(basis, start=1):
        scaled = _gm_scale(Fraction(weight), g)
        combo = scaled if combo is None else _gm_add(combo, scaled)
    if combo is not None:
        candidates.append(combo)
    rng = random.Random(0)
    for _ in range(8):
        mix = None
        for g in basis:
            scaled = _gm_scale(Fraction(rng.randint(-3, 3)), g)
            mix = scaled if mix is None else _gm_add(mix, scaled)
        if mix is not None:
            candidates.append(mix)

    for phi in candidates:
        e = _spectral_idempotent(phi, one)
        if e is not None and _nontrivial(e, one):
            assert _gm_equal(_gm_compose(e, e), e)
            return e

    max_iter = 8 + x.total_dim
    for phi in candidates:
        defect = _gm_sub(_gm_compose(phi, phi), phi)
        if _gm_is_zero(defect):
            continue
        lifted = _lift_idempotent(phi, one, max_iter)
        if lifted is not None and _nontrivial(lifted, one) and intertwines(x, x, lifted):
            return lifted
    return None


def is_indecomposable(x: QuiverRep) -> IndecomposabilityResult:
    """Three-valued indecomposability over the rationals.

    "indecomposable" is only reported when the semisimple quotient of the
    endomorphism algebra has dimension 1 (a local algebra), which is valid
    over any extension field as well.  When a nontrivial idempotent is found
    the verdict is "decomposable" with the idempotent as witness.  Otherwise
    the question could only be settled over an extension of Q and the verdict
    is left unresolved.
    """
    if x.total_dim == 0:
        raise ValueError("indecomposability of the zero representation")
    end = end_algebra(x)
    if end.semisimple_quotient_dim == 1:
        return IndecomposabilityResult(INDECOMPOSABLE)
    e = _find_idempotent(x, end)
    if e is not None:
        return IndecomposabilityResult(DECOMPOSABLE, idempotent=e)
    return IndecomposabilityResult(UNRESOLVED)


def split(x: QuiverRep) -> tuple[QuiverRep, QuiverRep] | None:
    """Split off a direct summand along a nontrivial idempotent, if one is
    found; the two parts restrict x to the image of e and of 1 - e."""
    if x.total_dim == 0:
        return None
    end = end_algebra(x)
    if end.semisimple_quotient_dim == 1:
        return None
    e = _find_idempotent(x, end)
    if e is None:
        return None
    return split_by_idempotent(x, e)


def split_by_idempotent(x: QuiverRep, e: GradedMap) -> tuple[QuiverRep, QuiverRep]:
    """Decompose x as image(e) + image(1-e) for an idempotent intertwiner e."""
    one = graded_identity(x)
    complement = _gm_sub(one, e)
    bases = {}
    for v in x.window.vertices():
        b1 = column_space_basis(e[v])
        b2 = column_space_basis(complement[v])
        if b1.cols + b2.cols != x.dim(v):
            raise ValueError("not an idempotent: image and co-image do not fill the space")
        bases[v] = (b1, b2)

    def restricted(which: int) -> QuiverRep:
        dims = DimensionVector({v: bases[v][which].cols for v in x.window.vertices()})
        maps = {}
        for arrow in double_arrows(x.window):
            b_src = bases[arrow.source][which]
            b_tgt = bases[arrow.target][which]
            image = x.map(arrow) * b_src
            y = solve_multi(b_tgt, image)
            if y is None:
                raise ValueError("image basis is not invariant; e is not an intertwiner")
            maps[arrow.name] = y
        return QuiverRep(x.window, dims, maps)

    return restricted(0), restricted(1)


def decompose(x: QuiverRep) -> list[QuiverRep]:
    """Full splitting into summands no further split is found for.

    With exact idempotents this realizes the Krull-Schmidt decomposition at
    the scales this package targets; unresolved summands are returned as-is.
    """
    if x.total_dim == 0:
        return []
    parts = split(x)
    if parts is None:
        return [x]
    return decompose(parts[0]) + decompose(parts[1])


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
    out = None
    for c, g in zip(coeffs, basis):
        scaled = _gm_scale(frac(c), g)
        out = scaled if out is None else _gm_add(out, scaled)
    assert out is not None
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

    Fast-path False when the dimension vectors or the Hom-space dimensions
    disagree.  Otherwise searches the Hom space for an invertible element:
    deterministically when dim Hom <= 1; with `exhaustive` by evaluating the
    determinant on the grid {0, ..., total_dim}^dim Hom (a nonzero polynomial
    of degree <= total_dim per variable cannot vanish on the whole grid);
    otherwise Monte Carlo with `trials` seeded attempts over integer
    coefficient ranges that double each trial (one-sided error: True is always
    a witness).
    """
    if x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    forward = hom_basis(x, y)
    if forward.dim == 0:
        return False
    if forward.dim != hom_basis(y, x).dim:
        return False
    if hom_basis(x, x).dim != hom_basis(y, y).dim:
        return False
    n = forward.dim
    if n == 1:
        return _gm_invertible(forward.basis[0])
    if exhaustive:
        d = x.total_dim
        grid = [0] * n
        while True:
            if any(grid):
                if _gm_invertible(_combination(forward.basis, grid)):
                    return True
            pos = 0
            while pos < n:
                grid[pos] += 1
                if grid[pos] <= d:
                    break
                grid[pos] = 0
                pos += 1
            if pos == n:
                return False
    rng = random.Random(seed)
    bound = 2
    for _ in range(trials):
        coeffs = [rng.randint(-bound, bound) for _ in range(n)]
        if any(coeffs) and _gm_invertible(_combination(forward.basis, coeffs)):
            return True
        bound *= 2
    return False


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
