"""``linalg.Matrix`` stores integers over one denominator: its arithmetic
checked against the ``Fraction`` arithmetic it replaced (``fraction_matrix``),
on entries near 10^9 and over 100-digit denominators, zero shapes included,
and its lowest-terms form checked after every operation."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_matrix as oracle
from e2quiver.linalg import Matrix, block_diag, inverse, solve, solve_multi

# derandomized, so that a tier-1 run is repeatable
EXAMPLES = settings(max_examples=20, deadline=None, derandomize=True, database=None)

BIG = 10**9
numerators = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(BIG - 5, BIG + 5),
    st.integers(-BIG - 5, -BIG + 5),
)
denominators = st.one_of(st.just(1), st.integers(1, 12), st.integers(10**99, 10**100 - 1))
rationals = st.builds(Fraction, numerators, denominators)
sizes = st.integers(0, 4)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(sizes) if rows is None else rows
    cols = draw(sizes) if cols is None else cols
    return draw(st.lists(rationals, min_size=rows * cols, max_size=rows * cols).map(lambda e: Matrix(rows, cols, e)))


@st.composite
def square_matrices(draw):
    """Square matrices, some of them singular: a repeated row or a zero row."""
    n = draw(st.integers(0, 4))
    m = draw(matrices(n, n))
    rows = [list(m.row(i)) for i in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = rows[0] if draw(st.booleans()) else [0] * n
    return Matrix.from_rows(rows, cols=n)


def lists(m: Matrix) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


def assert_lowest_terms(m: Matrix) -> None:
    ints, den = m.ints()
    assert den > 0 and gcd(den, *ints) == 1 and len(ints) == m.rows * m.cols
    assert all(type(v) is int for v in ints)


def assert_matches(m: Matrix, rows: list[list[Fraction]]) -> None:
    assert_lowest_terms(m)
    assert lists(m) == rows
    assert m == Matrix.from_rows(rows, cols=m.cols) and hash(m) == hash(Matrix.from_rows(rows, cols=m.cols))


@EXAMPLES
@given(st.data(), sizes, sizes, sizes)
def test_product_matches_fractions(data, n, k, p):
    a, b = data.draw(matrices(n, k)), data.draw(matrices(k, p))
    assert_matches(a * b, oracle.matmul(lists(a), lists(b), k, p))


@EXAMPLES
@given(st.data(), sizes, sizes)
def test_sum_difference_and_scale_match_fractions(data, n, k):
    a, b = data.draw(matrices(n, k)), data.draw(matrices(n, k))
    c = data.draw(rationals)
    assert_matches(a + b, oracle.add(lists(a), lists(b)))
    assert_matches(a - b, oracle.add(lists(a), lists(b), -1))
    assert_matches(a - a, oracle.add(lists(a), lists(a), -1))
    assert_matches(a.scale(c), oracle.scale(lists(a), c))
    assert_matches(a * c, oracle.scale(lists(a), c))


@EXAMPLES
@given(st.data(), sizes, sizes)
def test_apply_matches_fractions(data, n, k):
    a = data.draw(matrices(n, k))
    v = data.draw(st.lists(rationals, min_size=k, max_size=k))
    assert list(a.apply(v)) == oracle.apply(lists(a), v)


@EXAMPLES
@given(st.lists(matrices(), max_size=3))
def test_block_diag_matches_fractions(blocks):
    expected = oracle.block_diag([(lists(b), b.cols) for b in blocks])
    got = block_diag(blocks)
    assert got.shape == (sum(b.rows for b in blocks), sum(b.cols for b in blocks))
    assert_matches(got, expected)


@EXAMPLES
@given(square_matrices())
def test_inverse_matches_fractions(m):
    expected = oracle.inverse(lists(m))
    got = inverse(m)
    if expected is None:
        assert got is None
    else:
        assert_matches(got, expected)
        assert m * got == Matrix.identity(m.rows)


@EXAMPLES
@given(st.data(), square_matrices(), sizes)
def test_solve_matches_fractions(data, m, nrhs):
    rhs = data.draw(matrices(m.rows, nrhs))
    expected = oracle.solve(lists(m), lists(rhs), m.cols, nrhs)
    got = solve_multi(m, rhs)
    if expected is None:
        assert got is None
    else:
        assert_matches(got, expected)
    b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    one = oracle.solve(lists(m), [[v] for v in b], m.cols, 1)
    assert solve(m, b) == (None if one is None else tuple(row[0] for row in one))


def test_equal_rationals_give_equal_matrices_and_hashes():
    a, b = Matrix(1, 2, ["2/4", 1]), Matrix(1, 2, ["1/2", 1])
    assert a == b and hash(a) == hash(b)
    assert a.ints() == ((1, 2), 2)
    assert Matrix._of(1, 2, [2, 4], 4) == a
    assert Matrix(2, 2, [Fraction(6, 4), 0, 0, 3]).ints() == ((3, 0, 0, 6), 2)
    assert Matrix.zero(2, 3).ints() == ((0,) * 6, 1) and Matrix.zero(0, 3).ints() == ((), 1)
    assert Matrix(1, 1, [Fraction(5, 10**100)]) * Matrix(1, 1, [10**100]) == Matrix(1, 1, [5])


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_floats_and_bools_raise_type_error(bad):
    with pytest.raises(TypeError):
        Matrix(1, 2, [1, bad])
    with pytest.raises(TypeError):
        Matrix.from_rows([[bad]])
    with pytest.raises(TypeError):
        Matrix.identity(1).scale(bad)
