"""The shared invertibility search against the two loops it replaced.

``is_isomorphic`` and ``framed_equivalent`` once ran separate searches: an
odometer grid and a Monte Carlo loop over a Hom basis, and an
``itertools.product`` grid and a second Monte Carlo loop over an affine
solution space.  Those loops are kept here as the reference, and the shared
search (``_attempts``) must give the same verdict on every seeded input: a
change to the order of the random draws would flip some of the short-trial
verdicts below.  The reference loops form every candidate over ``Fraction``
with ``_combination`` (now in ``graded_oracles``) and test it with
``_gm_invertible``, the per-vertex rank check that the search used before
it formed its candidates in integers.

The search under test builds no basis: it keeps the integer echelon form
of its system (``linalg.Echelon``) and back-substitutes each candidate from
it (``_solutions`` and ``linalg.back_substitute``).  The references still
span the space with ``hom_basis`` or ``framed_equivalence_space``, and each
back-substituted candidate is checked to be the reference's combination of
the same coefficients, up to a nonzero scale.

``_gm_invertible`` is also the oracle for ``_invertible``, the fraction-free
(Bareiss) test of the integer candidate blocks, and ``reference_is_isomorphic``
keeps the order ``is_isomorphic`` had before it drew a few witnesses ahead of
the Hom-dimension fast paths, and before it compared arrow ranks first, on
the reference search.

The arrow-rank fingerprint is checked last, through its former package
form ``_arrow_ranks`` (now the oracle in ``arrow_ranks.py``; the package
compares the ranks arrow by arrow): it is a base-change invariant, it
settles the benchmark's negatives with no Hom elimination, and pairs whose
arrow ranks agree still reach the search with the reference verdicts.
"""

import itertools
import random
from fractions import Fraction

import pytest

from e2quiver import preproj
from e2quiver.euclid import to_quiver
from e2quiver.linalg import Echelon, Matrix, _augment, back_substitute, rank
from e2quiver.moduli import (
    FramedPoint,
    Partition,
    _framed_system,
    apply_gv_framed,
    enumerate_thin_indecomposables,
    framed_equivalence_space,
    framed_point,
    young_module,
)
from e2quiver.preproj import (
    _GRID_LIMIT,
    _WITNESS_DRAWS,
    GradedMap,
    _attempts,
    _HomLayout,
    _invertible,
    _solutions,
    apply_gv,
    direct_sum,
    hom_basis,
    hom_dim,
    is_isomorphic,
    random_gv,
)
from e2quiver.quiver import DimensionVector, Window
from arrow_ranks import _arrow_ranks
from graded_oracles import _combination, _scaled_blocks

SEEDS = (0, 1, 2, 3)
TRIALS = (1, 2, 5, 20)
SMALL_GRID = 700


def _hom_echelon(x, y):
    """The search's system for is_isomorphic: the intertwiner system of
    Hom(x, y) in echelon form, as (layout, echelon, pivots)."""
    layout = _HomLayout(x, y)
    return (layout, *Echelon(layout.intertwiner_rows()).form())


def _framed_echelon(p, q):
    """The search's system for framed_equivalent: the combined system with
    its right-hand side as column layout.size, in echelon form."""
    layout, rows, rhs = _framed_system(p, q)
    return (layout, *Echelon(_augment(rows, layout.size, ((v,) for v in rhs))).form())


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
        echelon = _hom_echelon(x, y)
        for mode in _modes(d, len(basis)):
            got = any(_attempts(*echelon, **mode))
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
        layout, echelon, pivots = _framed_echelon(p, q)
        # a pivot in the right-hand side column is an inconsistent system
        assert (particular is None) == (pivots[-1] == layout.size)
        if particular is None:
            continue
        d = p.rep.total_dim
        for mode in _modes(d, len(kernel)):
            got = any(_attempts(layout, echelon, pivots, affine=True, **mode))
            assert got == reference_affine_search(particular, kernel, d, **mode), (p, q, mode)
            verdicts[got] += 1
            exhaustive += mode["exhaustive"]
    assert verdicts[True] and verdicts[False] and exhaustive



def _scale_to(w, g):
    """The nonzero rational l with w = l g, for integer coordinates w in
    the layout order (vertex by vertex, row-major) and a graded map g, or
    None when there is none; 1 when both are zero."""
    flat = [a for v in sorted(g) for a in g[v].entries()]
    assert len(flat) == len(w)
    first = next((i for i, a in enumerate(flat) if a), None)
    if first is None:
        return 1 if not any(w) else None
    scale = Fraction(w[first]) / flat[first]
    return scale if all(b == scale * a for a, b in zip(flat, w)) else None


def _search_cases():
    """(echelon form, affine, particular, kernel, d) for the nonzero Hom
    spaces of hom_corpus, fractional_hom_corpus and iso_corpus and the
    consistent systems of framed_corpus, with the reference spanning maps
    and the total dimension d."""
    pairs = hom_corpus() + fractional_hom_corpus() + [(x, y) for _, x, y in iso_corpus()]
    for x, y in pairs:
        basis = hom_basis(x, y).basis
        if basis:
            yield _hom_echelon(x, y), False, None, basis, x.total_dim
    for p, q in framed_corpus():
        particular, kernel = framed_equivalence_space(p, q)
        if particular is not None:
            yield _framed_echelon(p, q), True, particular, kernel, p.rep.total_dim


def test_back_substituted_candidates_are_the_basis_combinations():
    checked = {"random": 0, "grid": 0, "affine": 0, "scaled": 0}
    for (layout, echelon, pivots), affine, particular, kernel, d in _search_cases():
        n = len(kernel)
        modes = [(seed, 4, False) for seed in (0, 1)]
        if (d + 1) ** n <= SMALL_GRID:
            modes.append((0, 0, True))
        for seed, trials, exhaustive in modes:
            candidates = _solutions(layout, pivots, affine, seed, trials, exhaustive)
            # the first points of a grid are enough to meet every shape
            for coeffs, w in itertools.islice(candidates, 12):
                assert len(coeffs) == n
                if w is None:
                    assert not affine and not any(coeffs)
                    continue
                w = back_substitute(echelon, pivots, w)
                combination = _combination(kernel, coeffs) if kernel else None
                if affine:
                    combination = particular if combination is None else _gm_add(particular, combination)
                scale = _scale_to(w[: layout.size], combination)
                assert scale, (coeffs, w)
                checked["grid" if exhaustive else "random"] += 1
                checked["affine"] += affine
                checked["scaled"] += scale != 1
    # both modes, both kinds of system, and candidates whose back-substitution
    # had to scale by a pivot
    assert all(checked.values()), checked


def _square_maps(*blocks_per_map):
    """Graded maps on the vertices 0, 1, ... with the given square integer
    blocks (lists of rows)."""
    return [{v: Matrix.from_rows(rows) for v, rows in enumerate(blocks)} for blocks in blocks_per_map]


def _assert_matches_rank(basis, coeffs):
    got = _invertible(_scaled_blocks(_combination(basis, coeffs)))
    assert got == _gm_invertible(_combination(basis, coeffs)), (basis, coeffs)
    return got


def test_bareiss_on_1x1_blocks():
    basis = _square_maps([[[3]], [[-2]]], [[[-3]], [[5]]])
    assert _assert_matches_rank(basis, [1, 0])
    assert not _assert_matches_rank(basis, [1, 1])  # the first vertex cancels
    assert _assert_matches_rank(basis, [2, 1])


def test_bareiss_swaps_rows_for_a_zero_first_column():
    basis = _square_maps([[[0, 1], [1, 0]]], [[[0, 0, 1], [0, 1, 0], [1, 0, 0]]])
    for b in basis:
        assert _assert_matches_rank([b], [1])
    # zero first column below a zero pivot: a row swap finds the pivot, and
    # a column with no nonzero entry left makes the block singular
    assert _assert_matches_rank(_square_maps([[[0, 2, 1], [0, 1, 0], [3, 0, 4]]]), [1])
    assert not _assert_matches_rank(_square_maps([[[0, 2, 1], [0, 1, 0], [0, 5, 4]]]), [1])


def test_bareiss_finds_singular_blocks_with_nonzero_pivots():
    for rows in ([[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[2, 3, 5], [1, 1, 1], [3, 4, 6]]):
        assert not _assert_matches_rank(_square_maps([rows]), [1])
    # a nonsingular first vertex does not hide a singular second one
    assert not _assert_matches_rank(_square_maps([[[1, 0], [0, 1]], [[1, 2], [3, 6]]]), [1])


def test_bareiss_rejects_the_all_zero_candidate():
    basis = _square_maps([[[1, 0], [0, 1]], [[2]]], [[[0, 1], [1, 0]], [[1]]])
    assert not _assert_matches_rank(basis, [0, 0])


def test_bareiss_is_exact_near_10_9():
    rng = random.Random(21)
    big = 10**9
    for k in range(1, 6):
        for _ in range(20):
            rows = [[rng.choice((1, -1)) * (big + rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
            if k > 1 and rng.random() < 0.5:
                # the last row the sum of two earlier ones (of the first
                # with itself when k = 2): singular, with nonzero pivots
                # before the last
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1 % (k - 1)])]
            other = [[rng.randint(-big, big) for _ in range(k)] for _ in range(k)]
            basis = _square_maps([rows], [other])
            for coeffs in ([1, 0], [0, 1], [1, 1], [big, -1]):
                _assert_matches_rank(basis, coeffs)


def test_bareiss_matches_rank_on_random_rank_deficient_blocks():
    rng = random.Random(22)
    singular = 0
    for _ in range(300):
        k = rng.randint(1, 5)
        r = rng.randint(0, k)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(k)]
        right = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(k)] for i in range(k)]
        singular += not _assert_matches_rank(_square_maps([rows]), [1])
    assert singular > 100


def reference_is_isomorphic(x, y):
    """is_isomorphic with every fast path ahead of the search, as a function
    of the search's keyword arguments (the fast paths do not depend on them,
    so a corpus pair runs them once for all its modes)."""
    if x.dims != y.dims:
        return lambda **mode: False
    if x.total_dim == 0:
        return lambda **mode: True
    forward = hom_basis(x, y)
    if forward.dim == 0:
        return lambda **mode: False
    if forward.dim != hom_dim(y, x):
        return lambda **mode: False
    if hom_dim(x, x) != hom_dim(y, y):
        return lambda **mode: False
    d, n = x.total_dim, forward.dim

    def search(seed, trials, exhaustive):
        if exhaustive and n > 1 and (d + 1) ** n > _GRID_LIMIT:
            raise ValueError(f"exhaustive grid of {d + 1}^{n} points is over the limit of {_GRID_LIMIT}")
        return reference_hom_search(forward.basis, d, seed, trials, exhaustive)

    return search


def _same_homs(x, y):
    return hom_dim(x, y) == hom_dim(y, x) and hom_dim(x, x) == hom_dim(y, y)


def iso_corpus():
    """Named (x, y) pairs for the isomorphism test: hidden sums of 2-3 thin
    summands against a re-hidden copy (pos), against a sum with one summand
    swapped whose Hom dimensions differ (neg) or agree (neg_eq, found as the
    benchmark's equal-Hom negatives are), and pairs with dim Hom(x, y) = 1,
    an indecomposable against a hidden copy and against another one."""
    rng = random.Random(23)
    wide = enumerate_thin_indecomposables(Window(0, 3))
    narrow = [m for a in range(3) for m in enumerate_thin_indecomposables(Window(a, a + 1))]
    pairs = []
    # the first pair's seed-3 draws find no witness before the fourth draw
    for parts in ([wide[1], narrow[1], narrow[2]], [wide[0], narrow[1]], [wide[2], wide[6], narrow[0]]):
        x = _hide(_sum(parts), rng)
        pairs.append(("pos", x, _hide(x, rng)))
    wanted = {"neg": 2, "neg_eq": 3}
    while any(wanted.values()):
        a, b = rng.sample(range(len(wide)), 2)
        rest = [narrow[rng.randrange(len(narrow))] for _ in range(rng.randint(1, 2))]
        left, right = _sum([wide[a]] + rest), _sum([wide[b]] + rest)
        kind = "neg_eq" if _same_homs(left, right) else "neg"
        if wanted[kind]:
            wanted[kind] -= 1
            pairs.append((kind, _hide(left, rng), _hide(right, rng)))
    pairs.append(("pos_hom1", _hide(wide[3], rng), _hide(wide[3], rng)))
    pairs.append(("neg_hom1", _hide(wide[0], rng), _hide(wide[1], rng)))
    return pairs


def test_witness_first_keeps_every_verdict():
    seen = set()
    for kind, x, y in iso_corpus():
        basis = hom_basis(x, y).basis
        reference = reference_is_isomorphic(x, y)
        assert (len(basis) == 1) == kind.endswith("hom1"), kind
        echelon = _hom_echelon(x, y)
        for seed in SEEDS:
            draws = list(_attempts(*echelon, seed=seed, trials=20, exhaustive=False))
            if True in draws and draws.index(True) >= _WITNESS_DRAWS:
                seen.add((kind, "late witness"))
            for trials in (0, 1, 2, 3, 4, 20):
                got = is_isomorphic(x, y, seed=seed, trials=trials)
                assert got == reference(seed=seed, trials=trials, exhaustive=False), (kind, seed, trials)
                seen.add((kind, got))
        if (x.total_dim + 1) ** len(basis) <= SMALL_GRID:
            got = is_isomorphic(x, y, exhaustive=True)
            assert got == reference(seed=0, trials=20, exhaustive=True), kind
            seen.add(("exhaustive", got))
    # both verdicts on the positives (few trials miss), a witness found only
    # after the fast paths, and both verdicts on the grid; no negative is
    # ever found isomorphic
    assert {("pos", True), ("pos", False), ("pos", "late witness"), ("pos_hom1", True)} <= seen
    assert {("exhaustive", True), ("exhaustive", False)} <= seen
    assert not {(kind, True) for kind in ("neg", "neg_eq", "neg_hom1")} & seen


def test_exhaustive_fast_paths_still_come_before_the_grid_check():
    # an unequal-Hom negative whose grid is over the limit is rejected by the
    # fast paths, as before; a positive with such a grid raises, as before
    wide = enumerate_thin_indecomposables(Window(0, 3))
    narrow = enumerate_thin_indecomposables(Window(0, 1))
    x = _sum([wide[0], wide[2], narrow[0]])
    y = _sum([wide[1], wide[2], narrow[0]])
    assert not _same_homs(x, y)
    assert (x.total_dim + 1) ** hom_dim(x, y) > _GRID_LIMIT
    grid = {"seed": 0, "trials": 20, "exhaustive": True}
    assert is_isomorphic(x, y, **grid) is False
    assert reference_is_isomorphic(x, y)(**grid) is False
    with pytest.raises(ValueError, match="over the limit"):
        is_isomorphic(x, x, **grid)
    with pytest.raises(ValueError, match="over the limit"):
        reference_is_isomorphic(x, x)(**grid)


# --- the arrow-rank fingerprint --------------------------------------------


def _count_hom_calls(monkeypatch):
    """Counts of the Hom eliminations is_isomorphic makes from here on: Hom
    bases, Hom ranks, and echelon forms of the Hom(x, y) system for the
    search (the Echelon objects that preproj builds)."""
    calls = {"hom_basis": 0, "hom_dim": 0, "Echelon": 0}
    for name in calls:
        original = getattr(preproj, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(preproj, name, counted)
    return calls


def test_arrow_ranks_are_a_base_change_invariant(thin16, young_corpus):
    rng = random.Random(31)
    wide = enumerate_thin_indecomposables(Window(0, 2))
    narrow = enumerate_thin_indecomposables(Window(0, 1)) + enumerate_thin_indecomposables(Window(1, 2))
    modules = thin16 + [to_quiver(gs.module) for _, gs in young_corpus]
    modules += [_sum([wide[i], narrow[j]]) for i, j in ((0, 0), (2, 1), (3, 2))]
    modules += [x for pair in hom_corpus() for x in pair]
    for x in modules:
        ranks = _arrow_ranks(x)
        assert ranks == _arrow_ranks(apply_gv(x, random_gv(x, rng)))
        assert all(ranks.values())
        # zero-shape arrows outside the support add nothing
        assert _arrow_ranks(x.embed(Window(x.window.a - 1, x.window.b + 2))) == ranks


def benchmark_negatives(rng, count):
    """(kind, x, y) made as the benchmark's orbit_tests negatives are: hidden
    sums of thin indecomposables on the windows [0, 4] and [-2, 1] that
    differ in one summand of [0, 4], count of each kind; neg_eq when every
    Hom dimension that is_isomorphic compares agrees, neg otherwise."""
    pools = enumerate_thin_indecomposables(Window(0, 4)), enumerate_thin_indecomposables(Window(-2, 1))
    members = [pool[i] for pool in pools for i in range(len(pool))]
    wanted = {"neg": count, "neg_eq": count}
    pairs = []
    while any(wanted.values()):
        a, b = rng.sample(range(len(pools[0])), 2)
        others = [i for i in range(len(members)) if i not in (a, b)]
        rest = [members[i] for i in rng.sample(others, rng.randint(1, 3))]
        left, right = _sum([members[a]] + rest), _sum([members[b]] + rest)
        kind = "neg_eq" if _same_homs(left, right) else "neg"
        if wanted[kind]:
            wanted[kind] -= 1
            pairs.append((kind, _hide(left, rng), _hide(right, rng)))
    return pairs


def test_arrow_ranks_make_benchmark_negatives_certain(monkeypatch):
    pairs = benchmark_negatives(random.Random(17), 4)
    # the grid check used to raise on equal-Hom negatives like these
    over = [(x, y) for kind, x, y in pairs if kind == "neg_eq" and (x.total_dim + 1) ** hom_dim(x, y) > _GRID_LIMIT]
    assert over
    with pytest.raises(ValueError, match="over the limit"):
        reference_is_isomorphic(*over[0])(seed=0, trials=20, exhaustive=True)
    calls = _count_hom_calls(monkeypatch)
    for kind, x, y in pairs:
        assert _arrow_ranks(x) != _arrow_ranks(y), kind
        assert is_isomorphic(x, y, trials=0) is False
        for seed in SEEDS:
            assert is_isomorphic(x, y, seed=seed, trials=20) is False
        # decided before the grid, whatever its size
        assert is_isomorphic(x, y, exhaustive=True) is False
    assert calls == {"hom_basis": 0, "hom_dim": 0, "Echelon": 0}


def equal_rank_negatives():
    """(same_homs, x, y): hidden sums of two thin indecomposables on
    sub-windows of [0, 3], not isomorphic (Krull-Schmidt: the summands
    differ), whose arrow ranks agree, found by adding up the summands' own
    arrow ranks; three pairs with equal compared Hom dimensions and three
    without, each with a grid small enough to walk."""
    rng = random.Random(29)
    pool = [m for a in range(4) for b in range(a, 4) for m in enumerate_thin_indecomposables(Window(a, b))]
    sums = {}
    for i, j in itertools.combinations_with_replacement(range(len(pool)), 2):
        ranks = dict(_arrow_ranks(pool[i]))
        for name, r in _arrow_ranks(pool[j]).items():
            ranks[name] = ranks.get(name, 0) + r
        key = (tuple(sorted((pool[i].dims + pool[j].dims).items())), tuple(sorted(ranks.items())))
        sums.setdefault(key, []).append((i, j))
    wanted = {True: 3, False: 3}
    pairs = []
    for key in sorted(sums):
        for first, second in itertools.combinations(sums[key], 2):
            x, y = _sum([pool[k] for k in first]), _sum([pool[k] for k in second])
            same = _same_homs(x, y)
            if wanted[same] and (x.total_dim + 1) ** hom_dim(x, y) <= SMALL_GRID:
                wanted[same] -= 1
                pairs.append((same, _hide(x, rng), _hide(y, rng)))
    assert not any(wanted.values())
    return pairs


def test_equal_arrow_ranks_still_reach_the_search(monkeypatch):
    pairs = equal_rank_negatives()
    calls = _count_hom_calls(monkeypatch)
    for same, x, y in pairs:
        assert _arrow_ranks(x) == _arrow_ranks(y)
        reference = reference_is_isomorphic(x, y)
        before = calls["Echelon"]
        for seed in SEEDS:
            for trials in (0, 1, 3, 20):
                mode = {"seed": seed, "trials": trials, "exhaustive": False}
                assert is_isomorphic(x, y, **mode) is reference(**mode) is False, (same, mode)
        mode = {"seed": 0, "trials": 20, "exhaustive": True}
        assert is_isomorphic(x, y, **mode) is reference(**mode) is False, same
        # one echelon form of Hom(x, y) per call, and no Hom basis
        assert calls["Echelon"] == before + 4 * 4 + 1
        assert calls["hom_basis"] == 0
