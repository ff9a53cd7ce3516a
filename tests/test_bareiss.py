"""linalg's dense Bareiss elimination against the sparse elimination core.

``linalg._bareiss`` is the elimination of every dense ``Matrix``: ``rank``,
``pivot_columns`` and ``column_space_basis`` read it, the arrow-rank
fingerprint of ``is_isomorphic`` ranks each arrow map with ``rank``, and the
invertibility search tests its integer candidate blocks with ``_bareiss``
itself.  The sparse core (``linalg.sparse_rank`` and ``linalg.Echelon``) is
the oracle for all of them.  ``is_isomorphic`` compares the arrow ranks of
its two sides arrow by arrow (``_same_arrow_ranks``); the oracle for that is
the comparison of whole dicts of nonzero ranks it made before
(``arrow_ranks._arrow_ranks``).
"""

import itertools
import random
from fractions import Fraction

from e2quiver import preproj
from e2quiver.linalg import Echelon, Matrix, _bareiss, column_space_basis, pivot_columns, rank
from e2quiver.moduli import enumerate_thin_indecomposables
from e2quiver.preproj import _same_arrow_ranks, apply_gv, random_gv
from e2quiver.quiver import Window
from arrow_ranks import _arrow_ranks, _sparse_rank


def _low_rank(rng, rows, cols, k, big, denominators=(1, 1, 2, 3, 7)):
    """A seeded rows x cols rational matrix of rank at most k: each row a
    small combination of k random rows, one row or column zeroed at times,
    with entries near 10^9 when big."""
    scale = 10**9 if big else 1
    basis = [
        [Fraction(rng.randint(-3, 3) * scale + rng.randint(-5, 5) * big, rng.choice(denominators)) for _ in range(cols)]
        for _ in range(k)
    ]
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for b in basis:
            b[j] = Fraction(0)
    m = []
    for _ in range(rows):
        coeffs = [rng.randint(-1, 1) for _ in basis] if rng.random() > 0.2 else [0] * k
        m.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0)) for j in range(cols)])
    return Matrix(rows, cols, [v for r in m for v in r])


def _sparse(rng, rows, cols, nonzeros):
    """A seeded rows x cols integer matrix with at most nonzeros entries
    that are not zero."""
    entries = [0] * (rows * cols)
    for _ in range(nonzeros):
        entries[rng.randrange(rows * cols)] = rng.choice((-2, -1, 1, 3))
    return Matrix(rows, cols, entries)


def _assert_matches_the_sparse_core(m):
    """rank, pivot_columns and column_space_basis against Echelon on m's rows;
    the rank."""
    pivots = Echelon({j: v for j, v in enumerate(m.row(i)) if v} for i in range(m.rows)).form()[1]
    assert rank(m) == len(pivots), m
    assert pivot_columns(m) == pivots, m
    basis = column_space_basis(m)
    assert basis.shape == (m.rows, len(pivots))
    assert [basis.col(c) for c in range(basis.cols)] == [m.col(j) for j in pivots]
    return len(pivots)


def test_rank_matches_the_sparse_core():
    rng = random.Random(1968)
    seen = set()
    for rows, cols in itertools.product(range(7), repeat=2):
        for k, big in itertools.product(range(min(rows, cols) + 1), (False, True, True)):
            m = _low_rank(rng, rows, cols, k, big)
            seen.add((min(rows, cols), _assert_matches_the_sparse_core(m)))
    # every rank from 0 to full, on every short side from 0 to 6
    assert {(short, r) for short in range(7) for r in (0, short)} <= seen
    assert len(seen) >= 20
    # empty, all-zero, and wide or tall sparse shapes
    shapes = [Matrix.zero(0, 5), Matrix.zero(5, 0), Matrix.zero(0, 0), Matrix.zero(4, 4), Matrix.zero(3, 40)]
    shapes += [_sparse(rng, r, c, n) for r, c in ((3, 40), (40, 3), (5, 40)) for n in (1, 3, 6, 12)]
    ranks = [_assert_matches_the_sparse_core(m) for m in shapes]
    # the sparse shapes meet ranks from 1 up to full on their short side
    assert ranks[:5] == [0] * 5 and set(ranks[5:]) == {1, 2, 3, 5}


def test_invertible_exactly_when_every_block_has_full_rank():
    rng = random.Random(22)
    verdicts = []
    for _ in range(400):
        big = rng.random() < 0.3
        blocks = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 5)
            # full rank more often than a low-rank draw gives it
            m = _low_rank(rng, k, k, rng.randint(0, k), big, denominators=(1,))
            if rng.random() < 0.5:
                m = Matrix(k, k, [v + (i % (k + 1) == 0) for i, v in enumerate(m.entries())])
            blocks.append(m)
        expected = all(_sparse_rank(m) == m.rows for m in blocks)
        rows = [[[int(v) for v in m.row(i)] for i in range(m.rows)] for m in blocks]
        assert all(all(_bareiss(block)) for block in rows) is expected, blocks
        verdicts.append(expected)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_lazy_arrow_comparison_matches_the_rank_dicts(thin16, monkeypatch):
    rng = random.Random(16)
    hidden = [apply_gv(x, random_gv(x, rng)) for x in thin16]
    # the same modules on windows with zero-dimensional end vertices, so the
    # two sides of a pair have different arrows
    left_wide = [x.embed(Window(-1, 4)) for x in thin16]
    right_wide = [x.embed(Window(0, 6)) for x in hidden]
    # and modules with nonzero arrows on one side's window only
    short, long = enumerate_thin_indecomposables(Window(0, 1)), enumerate_thin_indecomposables(Window(0, 2))
    oracle = {id(x): _arrow_ranks(x) for x in thin16 + hidden + left_wide + right_wide + short + long}
    calls = []
    original = preproj.rank

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(preproj, "rank", counted)
    outcomes = {True: 0, False: 0}
    lazy = 0
    groups = [(thin16, thin16), (hidden, hidden), (thin16, hidden), (left_wide, right_wide)]
    for left, right in groups + [(short, long), (long, short)]:
        for x, y in itertools.product(left, right):
            calls.clear()
            expected = oracle[id(x)] == oracle[id(y)]
            assert _same_arrow_ranks(x, y) is expected
            arrows = len(x.maps.keys() | y.maps.keys())
            assert len(calls) <= 2 * arrows
            if expected:
                assert len(calls) == 2 * arrows
            lazy += len(calls) < 2 * arrows
            outcomes[expected] += 1
    # each thin16 member is its own only match among the 16, on each window,
    # and a module on [0, 1] never matches one with support at 2
    assert outcomes[True] == 4 * 16
    # most mismatches settle before the last arrow
    assert lazy > outcomes[False] // 2
