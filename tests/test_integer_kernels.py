"""The integer paths under decompose against the Fraction code they replaced.

Each oracle below is the Fraction implementation that the package used
before its integer form: the dict-keyed trace-form Gram loop, the minimal
polynomial from Fraction matrix powers with Horner evaluation of a
polynomial at a matrix, the Fraction intertwiner rows, and the restriction
to a submodule by one solve per arrow; the Fraction polynomial layer of the
split is in fraction_polys.  The new code must agree with them exactly.
The corpus has sums of two thin representatives, isotypic squares of Young
modules and modules conjugated by base changes with non-integer entries, so
that the scaling by common denominators is exercised.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest

from e2quiver.euclid import to_quiver
from e2quiver.linalg import (
    Matrix,
    inverse,
    kernel_basis,
    scale_to_ints,
    solve_multi,
    sparse_affine_solve,
    sparse_kernel,
)
from e2quiver.moduli import FramedPoint, Partition, framed_equivalence_space, framed_point, young_module
from e2quiver.preproj import (
    QuiverRep,
    _HomLayout,
    _coprime_factors,
    _kernel_at,
    _minimal_polynomial,
    _poly_lcm,
    _poly_trim,
    _primary_components,
    apply_gv,
    direct_sum,
    end_algebra,
    hom_basis,
    split,
    trace_pairing,
)
from e2quiver.quiver import DimensionVector, double_arrows
import fraction_polys
from elimination_oracle import _primitive
from graded_oracles import _scaled_blocks

ZERO = Fraction(0)
ONE = Fraction(1)


# --- the Fraction oracles ---------------------------------------------------


def oracle_gram(basis):
    """Tr_M(ab) = sum over vertices v and entries (r, c) of a_v[r, c] b_v[c, r]."""
    n = len(basis)
    entries = [
        {(v, r, c): a for v, m in g.items() for r in range(m.rows) for c, a in enumerate(m.row(r)) if a}
        for g in basis
    ]
    gram = [[ZERO] * n for _ in range(n)]
    for i, a in enumerate(entries):
        for j in range(i, n):
            b = entries[j]
            gram[i][j] = gram[j][i] = sum(
                (value * b[v, c, r] for (v, r, c), value in a.items() if (v, c, r) in b), ZERO
            )
    return gram


def oracle_pairing(left, right):
    """Tr(b_j a_i) from the graded compositions themselves."""
    return [
        [sum((sum((m[i, i] for i in range(m.rows)), ZERO) for m in (b[v] * a[v] for v in a)), ZERO) for b in right]
        for a in left
    ]


def oracle_poly_at(p, m):
    """Horner evaluation of a polynomial at a square matrix."""
    d = m.rows
    acc = Matrix.zero(d, d)
    for c in reversed(p):
        acc = acc * m
        acc = Matrix.from_rows([[a + c if i == j else a for j, a in enumerate(acc.row(i))] for i in range(d)], cols=d)
    return acc


def oracle_minimal_polynomial(m):
    """First pivot-normalized kernel vector of the stacked Fraction powers."""
    d = m.rows
    powers = [Matrix.identity(d)]
    for _ in range(d):
        powers.append(powers[-1] * m)
    stacked = Matrix.from_columns([[a for r in range(d) for a in p.row(r)] for p in powers], rows=d * d)
    return _poly_trim(list(kernel_basis(stacked)[0]))


def coordinate(layout, vertex, r, c):
    """The position of g_vertex[r, c] in layout's coordinate vector."""
    return layout.offsets[vertex] + r * layout.x.dim(vertex) + c


def oracle_intertwiner_rows(layout, ascending=False):
    """The Fraction rows of g_target x_a = y_a g_source, one per entry (r, c),
    arrow by arrow, in the program's order: each arrow's entries last first,
    or first first when ascending."""
    rows = []
    for arrow in double_arrows(layout.window):
        xa = layout.x.map(arrow)
        ya = layout.y.map(arrow)
        src, tgt = arrow.source, arrow.target
        entries = [(r, c) for r in range(layout.y.dim(tgt)) for c in range(layout.x.dim(src))]
        for r, c in entries if ascending else reversed(entries):
            row = {}
            for k in range(layout.x.dim(tgt)):
                v = xa[k, c]
                if v != 0:
                    idx = coordinate(layout, tgt, r, k)
                    row[idx] = row.get(idx, ZERO) + v
            for k in range(layout.y.dim(src)):
                v = ya[r, k]
                if v != 0:
                    idx = coordinate(layout, src, k, c)
                    row[idx] = row.get(idx, ZERO) - v
            row = {i: v for i, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return rows


def oracle_restrict(x, bases):
    """x restricted to a submodule by one solve per arrow."""
    dims = DimensionVector({v: bases[v].cols for v in x.window.vertices()})
    maps = {}
    for arrow in double_arrows(x.window):
        y = solve_multi(bases[arrow.target], x.map(arrow) * bases[arrow.source])
        assert y is not None
        maps[arrow.name] = y
    return QuiverRep(x.window, dims, maps)


# --- the corpus -------------------------------------------------------------


def fractional_gv(x, rng):
    """A seeded invertible base change with non-integer entries: a diagonal
    of nonzero fractions times unit triangular factors with fractional
    entries."""
    g = {}
    for v in x.window.vertices():
        n = x.dim(v)

        def entry():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

        diag = Matrix.from_rows(
            [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)) if i == j else 0 for j in range(n)] for i in range(n)],
            cols=n,
        )
        lower = Matrix.from_rows([[1 if i == j else (entry() if i > j else 0) for j in range(n)] for i in range(n)], cols=n)
        upper = Matrix.from_rows([[1 if i == j else (entry() if i < j else 0) for j in range(n)] for i in range(n)], cols=n)
        g[v] = diag * lower * upper
    return g


@pytest.fixture(scope="module")
def corpus(thin16, young_corpus):
    """Sums of two thin representatives, isotypic Young squares, and both
    kinds conjugated by fractional base changes."""
    rng = random.Random(29)
    young = [to_quiver(gs.module) for _, gs in young_corpus]
    sums = [direct_sum(thin16[i], thin16[j]) for i, j in ((0, 5), (2, 9), (3, 3), (7, 12), (11, 15))]
    squares = [direct_sum(y, y) for y in (young[2], young[4], young[7])]
    hidden = [apply_gv(x, fractional_gv(x, rng)) for x in sums + squares]
    triple = direct_sum(direct_sum(thin16[1], thin16[6]), thin16[6])
    return sums + squares + hidden + [apply_gv(triple, fractional_gv(triple, rng))]


def test_corpus_has_non_integer_entries(corpus):
    assert any(e.denominator > 1 for x in corpus for m in x.maps.values() for e in m.entries())


# --- trace pairing ----------------------------------------------------------


def sparse_rows(gram):
    """A dense Gram matrix as trace_pairing gives it: row i holds its nonzero entries under their column."""
    return [{j: v for j, v in enumerate(row) if v} for row in gram]


def test_trace_pairing_matches_dict_keyed_gram(corpus):
    for x in corpus:
        hom = hom_basis(x, x)
        assert trace_pairing(hom.layout, hom.coords, hom.coords) == sparse_rows(oracle_gram(hom.basis))
        assert end_algebra(x).basis == hom.basis


def test_trace_pairing_of_two_bases_matches_compositions(corpus):
    for x, y in zip(corpus, corpus[1:] + corpus[:1]):
        forward, backward = hom_basis(x, y), hom_basis(y, x)
        assert trace_pairing(forward.layout, forward.coords, backward.coords) == sparse_rows(oracle_pairing(forward.basis, backward.basis))
        assert trace_pairing(backward.layout, backward.coords, forward.coords) == sparse_rows(oracle_pairing(backward.basis, forward.basis))


# --- intertwiner rows -------------------------------------------------------


def test_intertwiner_rows_are_integer_multiples_of_fraction_rows(corpus):
    for x, y in zip(corpus, corpus[2:] + corpus[:2]):
        layout = _HomLayout(x, y)
        rows, oracle = layout.intertwiner_rows(), oracle_intertwiner_rows(layout)
        assert all(type(v) is int for row in rows for v in row.values())
        assert [_primitive(r) for r in rows] == [_primitive(r) for r in oracle]
        kernel = sparse_kernel(oracle, layout.size)
        assert hom_basis(x, y).basis == [layout.unvec(scale_to_ints(v)) for v in kernel]


def oracle_framed_space(p, q):
    """framed_equivalence_space on the Fraction intertwiner rows."""
    layout = _HomLayout(p.rep, q.rep)
    rows = oracle_intertwiner_rows(layout)
    rhs = [ZERO] * len(rows)
    for k in layout.window.vertices():
        s, s2 = p.framing_map(k), q.framing_map(k)
        for r in range(layout.y.dim(k)):
            for c in range(p.framing_dims[k]):
                row = {coordinate(layout, k, r, j): s[j, c] for j in range(layout.x.dim(k)) if s[j, c] != 0}
                if row or s2[r, c] != 0:
                    rows.append(row)
                    rhs.append(s2[r, c])
    particular, kernel = sparse_affine_solve(rows, rhs, layout.size)
    return (None if particular is None else layout.unvec(scale_to_ints(particular))), [layout.unvec(scale_to_ints(v)) for v in kernel]


def test_framed_equivalence_space_matches_fraction_rows():
    rng = random.Random(31)
    checked = 0
    for parts, a in (((2, 1), 0), ((3, 1), -1), ((2, 2), 1), ((3, 2, 1), 0)):
        point = framed_point(young_module(Partition(parts), a))
        g = fractional_gv(point.rep, rng)
        moved = FramedPoint(
            apply_gv(point.rep, g), point.framing_dims, {k: g[k] * s for k, s in point.framing.items()}
        )
        zero = FramedPoint(point.rep, point.framing_dims, {})
        for p, q in ((point, moved), (moved, point), (moved, zero), (zero, moved)):
            assert framed_equivalence_space(p, q) == oracle_framed_space(p, q)
            checked += framed_equivalence_space(p, q)[0] is not None
    assert checked >= 4


def test_framed_equivalence_space_matches_fraction_rows_on_wide_framings():
    """Several framing columns at a weight space of another dimension, so
    that reading a column of s off its row-major entries is exercised."""
    rng = random.Random(33)
    checked = 0
    for parts, a in (((3, 2, 1), 0), ((3, 1), -1), ((2, 2), 1)):
        rep = to_quiver(young_module(Partition(parts), a).module)
        framing_dims = DimensionVector({a: 2, a + 1: 3})
        framing = {
            k: Matrix.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(w)] for _ in range(rep.dim(k))])
            for k, w in framing_dims.items()
            if rep.dim(k)
        }
        point = FramedPoint(rep, framing_dims, framing)
        g = fractional_gv(rep, rng)
        moved = FramedPoint(apply_gv(rep, g), framing_dims, {k: g[k] * s for k, s in point.framing.items()})
        other = FramedPoint(rep, framing_dims, {k: s.scale(2) for k, s in point.framing.items()})
        assert any(s.rows != s.cols and s.cols > 1 for s in point.framing.values())
        for p, q in ((point, moved), (moved, point), (moved, other)):
            assert framed_equivalence_space(p, q) == oracle_framed_space(p, q)
            checked += framed_equivalence_space(p, q)[0] is not None
    assert checked >= 3


# --- minimal polynomials and primary components ---------------------------------


def _endomorphisms(corpus):
    """The first three End basis elements of each module and two seeded
    combinations of its whole basis."""
    rng = random.Random(37)
    for x in corpus:
        basis = end_algebra(x).basis
        for _ in range(2):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            yield {v: sum((g[v] * c for c, g in zip(coeffs, basis)), Matrix.zero(x.dim(v), x.dim(v))) for v in basis[0]}
        yield from basis[:3]


def test_minimal_polynomial_and_kernels_match_fraction_powers(corpus):
    factored = 0
    for phi in _endomorphisms(corpus):
        matrices = [m for m in phi.values() if m.rows]
        blocks = _scaled_blocks(phi)
        minpoly = [1]
        for block in blocks:
            poly = _minimal_polynomial(block)
            assert poly == oracle_minimal_polynomial(Matrix.from_rows(block))
            minpoly = _poly_lcm(minpoly, poly)
        # phi's own minimal polynomial factors in the same order, its factors
        # g matching f = D^deg(g) g(t / D), with ker f(D phi) = ker g(phi)
        fraction_minpoly = reduce(fraction_polys._poly_lcm, map(oracle_minimal_polynomial, matrices), [ONE])
        fraction_factors = fraction_polys._coprime_factors(fraction_minpoly)
        factors = _coprime_factors(minpoly)
        assert len(factors) == len(fraction_factors)
        for f, g in zip(factors, fraction_factors):
            for block, m in zip(blocks, matrices):
                kernel = [tuple(Fraction(n, d) for n in ints) for ints, d in _kernel_at(f, block)]
                assert kernel == kernel_basis(oracle_poly_at(f, Matrix.from_rows(block)))
                assert kernel == kernel_basis(oracle_poly_at(g, m))
            factored += 1
    assert factored > 40


def test_restriction_matches_one_solve_per_arrow(corpus):
    split_count = 0
    for x in corpus:
        components = _primary_components(x, end_algebra(x))
        if components is None:
            continue
        assert split(x) == tuple(oracle_restrict(x, basis) for basis, _ in components)
        for basis, coords in components:
            assert all(coords[v] * basis[v] == Matrix.identity(basis[v].cols) for v in basis)
        split_count += 1
    assert split_count >= 10


# --- an independent check: sympy ---------------------------------------------


def sympy_minimal_polynomial(sympy, m):
    """Divide the characteristic polynomial by its irreducible factors for
    as long as the quotient still annihilates m."""
    t = sympy.Symbol("t")
    sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(v.numerator, v.denominator) for v in m.entries()])

    def annihilates(poly):
        acc = sympy.zeros(m.rows, m.rows)
        for c in sympy.Poly(poly, t).all_coeffs():
            acc = acc * sm + c * sympy.eye(m.rows)
        return acc.is_zero_matrix

    minpoly = sm.charpoly(t).as_expr()
    for factor, _ in sympy.factor_list(minpoly)[1]:
        while sympy.degree(factor, t) > 0 and sympy.rem(minpoly, factor, t) == 0 and annihilates(sympy.quo(minpoly, factor, t)):
            minpoly = sympy.quo(minpoly, factor, t)
    coeffs = sympy.Poly(minpoly, t).all_coeffs()
    lead = coeffs[0]
    return [Fraction(int((c / lead).p), int((c / lead).q)) for c in reversed(coeffs)]


def test_minimal_polynomial_agrees_with_sympy(corpus):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    matrices = []
    # conjugated Jordan forms, so the minimal polynomial is a proper divisor
    # of the characteristic one
    for blocks in (((2, 2), (2, 1)), ((Fraction(1, 3), 3),), ((0, 2), (0, 1), (5, 1)), ((-1, 1), (Fraction(7, 2), 2))):
        n = sum(size for _, size in blocks)
        jordan = [[ZERO] * n for _ in range(n)]
        pos = 0
        for value, size in blocks:
            for i in range(size):
                jordan[pos + i][pos + i] = Fraction(value)
                if i + 1 < size:
                    jordan[pos + i][pos + i + 1] = ONE
            pos += size
        g = fractional_gv(QuiverRep.zero(DimensionVector({0: n})), rng)[0]
        matrices.append(g * Matrix.from_rows(jordan) * inverse(g))
    matrices += [m for phi in list(_endomorphisms(corpus[-4:]))[::3] for m in phi.values() if 0 < m.rows <= 4]
    for m in matrices:
        (block,) = _scaled_blocks({0: m})
        assert _minimal_polynomial(block) == sympy_minimal_polynomial(sympy, Matrix.from_rows(block))

