"""The shared invertibility search against the two loops it replaced.

``is_isomorphic`` and ``framed_equivalent`` once ran separate searches: an
odometer grid and a Monte Carlo loop over a Hom basis, and an
``itertools.product`` grid and a second Monte Carlo loop over an affine
solution space.  Those loops are kept here as the reference, and
``_find_invertible`` must give the same verdict on every seeded input: a
change to the order of the random draws would flip some of the short-trial
verdicts below.  The reference loops form every candidate over ``Fraction``
with ``_combination`` and test it with ``_gm_invertible``, the per-vertex
rank check that ``_find_invertible`` used before it formed its candidates
in integers.
"""

import itertools
import random
from fractions import Fraction

from e2quiver.euclid import to_quiver
from e2quiver.linalg import Matrix, rank
from e2quiver.moduli import (
    FramedPoint,
    Partition,
    apply_gv_framed,
    enumerate_thin_indecomposables,
    framed_equivalence_space,
    framed_point,
    young_module,
)
from e2quiver.preproj import (
    GradedMap,
    _combination,
    _find_invertible,
    apply_gv,
    direct_sum,
    hom_basis,
    random_gv,
)
from e2quiver.quiver import DimensionVector, Window

SEEDS = (0, 1, 2, 3)
TRIALS = (1, 2, 5, 20)
SMALL_GRID = 700


def _gm_invertible(g: GradedMap) -> bool:
    for m in g.values():
        if m.rows != m.cols:
            return False
        if m.rows > 0 and rank(m) != m.rows:
            return False
    return True


def reference_hom_search(basis, d, seed, trials, exhaustive):
    n = len(basis)
    if n == 1:
        return _gm_invertible(basis[0])
    if exhaustive:
        grid = [0] * n
        while True:
            if any(grid):
                if _gm_invertible(_combination(basis, grid)):
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
        if any(coeffs) and _gm_invertible(_combination(basis, coeffs)):
            return True
        bound *= 2
    return False


def _gm_add(g, h):
    return {v: g[v] + h[v] for v in g}


def reference_affine_search(particular, kernel, d, seed, trials, exhaustive):
    if not kernel:
        return _gm_invertible(particular)
    if exhaustive:
        n = len(kernel)
        for coeffs in itertools.product(range(d + 1), repeat=n):
            candidate = _gm_add(particular, _combination(kernel, coeffs)) if any(coeffs) else particular
            if _gm_invertible(candidate):
                return True
        return False
    rng = random.Random(seed)
    bound = 2
    for _ in range(trials):
        coeffs = [rng.randint(-bound, bound) for _ in range(len(kernel))]
        candidate = _gm_add(particular, _combination(kernel, coeffs)) if any(coeffs) else particular
        if _gm_invertible(candidate):
            return True
        bound *= 2
    return False


def _hide(x, rng):
    return apply_gv(x, random_gv(x, rng))


def _hide_fractional(x, rng):
    """x under a base change with non-integer entries: a unit triangular
    pair times a diagonal of fractions, so that the Hom bases between such
    copies have entries with several different denominators."""
    g = random_gv(x, rng)
    for v, m in g.items():
        n = m.rows
        scale = [Fraction(rng.randint(1, 3), rng.randint(1, 5)) for _ in range(n)]
        g[v] = m * Matrix(n, n, [scale[i] if i == j else 0 for i in range(n) for j in range(n)])
    return apply_gv(x, g)


def _denominator(g):
    return max(a.denominator for m in g.values() for a in m.entries())


def _sum(parts):
    total = parts[0]
    for part in parts[1:]:
        total = direct_sum(total, part)
    return total


def hom_corpus():
    """(x, y) pairs of equal dimension vectors: hidden sums of k = 2-4 thin
    summands against a re-hidden copy (positive) and against a sum with one
    summand swapped for another of the same dimension vector (negative).
    The first two pairs are small enough for the exhaustive grid."""
    rng = random.Random(11)
    wide = enumerate_thin_indecomposables(Window(0, 2))
    narrow = enumerate_thin_indecomposables(Window(0, 1)) + enumerate_thin_indecomposables(Window(1, 2))
    pairs = []
    x = _hide(_sum([narrow[0], narrow[1]]), rng)
    pairs.append((x, _hide(x, rng)))
    pairs.append((x, _hide(_sum([narrow[1], narrow[1]]), rng)))
    for k in (2, 3, 4):
        for _ in range(2):
            first, second = rng.sample(range(len(wide)), 2)
            rest = [narrow[rng.randrange(len(narrow))] for _ in range(k - 1)]
            x = _hide(_sum([wide[first]] + rest), rng)
            pairs.append((x, _hide(x, rng)))
            pairs.append((x, _hide(_sum([wide[second]] + rest), rng)))
    return pairs


def fractional_hom_corpus():
    """(x, y) pairs whose Hom bases have elements with different
    denominators: sums of 2-3 thin summands, isotypic or not, under
    fractional base changes, against a fractional copy of themselves
    (positive) and of a sum with one summand swapped (negative)."""
    rng = random.Random(13)
    wide = enumerate_thin_indecomposables(Window(0, 2))
    narrow = enumerate_thin_indecomposables(Window(0, 1)) + enumerate_thin_indecomposables(Window(1, 2))
    pairs = []
    for parts in ([narrow[0], narrow[0]], [narrow[1], narrow[2]], [wide[0], wide[0], narrow[3]]):
        x = _hide_fractional(_sum(parts), rng)
        pairs.append((x, _hide_fractional(x, rng)))
    for k in (2, 3):
        first, second = rng.sample(range(len(wide)), 2)
        rest = [narrow[rng.randrange(len(narrow))] for _ in range(k - 1)]
        x = _hide_fractional(_sum([wide[first]] + rest), rng)
        pairs.append((x, _hide_fractional(x, rng)))
        pairs.append((x, _hide_fractional(_sum([wide[second]] + rest), rng)))
    return pairs


def framed_corpus():
    """Framed pairs: Young points against conjugates (stable, one point) and
    against a re-marked generator, re-marked points against conjugates, and
    zero-framed (unstable) points against conjugates and against a
    zero-framed point on another module."""
    rng = random.Random(12)
    pairs = []
    for parts, a in (((2, 1), 0), ((3, 1), -1), ((2, 2), 1)):
        point = framed_point(young_module(Partition(parts), a))
        pairs.append((point, apply_gv_framed(point, random_gv(point.rep, rng))))
        column = [0] * point.rep.dim(a)
        column[-1] = 1
        remarked = FramedPoint(point.rep, point.framing_dims, {a: Matrix.from_columns([column])})
        pairs.append((point, remarked))
        pairs.append((remarked, apply_gv_framed(remarked, random_gv(point.rep, rng))))
    for parts in ((2,), (2, 1), (3, 1)):
        rep = to_quiver(young_module(Partition(parts), 0).module)
        zero = FramedPoint(rep, DimensionVector.unit(0), {0: Matrix.zero(rep.dim(0), 1)})
        pairs.append((zero, apply_gv_framed(zero, random_gv(rep, rng))))
    for x, y in hom_corpus()[:6] + fractional_hom_corpus()[:4]:
        zero_x = FramedPoint(x, DimensionVector.unit(1), {1: Matrix.zero(x.dim(1), 1)})
        zero_y = FramedPoint(y, DimensionVector.unit(1), {1: Matrix.zero(y.dim(1), 1)})
        pairs.append((zero_x, zero_y))
    return pairs


def _modes(d, n):
    for seed in SEEDS:
        for trials in TRIALS:
            yield {"seed": seed, "trials": trials, "exhaustive": False}
    if (d + 1) ** n <= SMALL_GRID:
        yield {"seed": 0, "trials": 20, "exhaustive": True}


def test_hom_search_matches_reference():
    verdicts = {True: 0, False: 0}
    exhaustive = 0
    mixed = 0
    for x, y in hom_corpus() + fractional_hom_corpus():
        basis = hom_basis(x, y).basis
        if not basis:
            continue
        mixed += len({_denominator(g) for g in basis}) > 1
        d = x.total_dim
        for mode in _modes(d, len(basis)):
            got = _find_invertible(basis, **mode)
            assert got == reference_hom_search(basis, d, **mode), (x, y, mode)
            verdicts[got] += 1
            exhaustive += mode["exhaustive"]
    # the corpus reaches both verdicts and both modes, and bases whose
    # elements have different denominators
    assert verdicts[True] and verdicts[False] and exhaustive and mixed


def test_affine_search_matches_reference():
    verdicts = {True: 0, False: 0}
    exhaustive = 0
    for p, q in framed_corpus():
        particular, kernel = framed_equivalence_space(p, q)
        if particular is None:
            continue
        d = p.rep.total_dim
        for mode in _modes(d, len(kernel)):
            got = _find_invertible(kernel, particular, **mode)
            assert got == reference_affine_search(particular, kernel, d, **mode), (p, q, mode)
            verdicts[got] += 1
            exhaustive += mode["exhaustive"]
    assert verdicts[True] and verdicts[False] and exhaustive

