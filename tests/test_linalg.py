import random
from fractions import Fraction

import pytest

from e2quiver.linalg import (
    Matrix,
    block_diag,
    column_space_basis,
    frac,
    inverse,
    kernel_basis,
    rank,
    solve,
    solve_multi,
    trace,
)


def column(values) -> Matrix:
    return Matrix(len(values), 1, values)


def hstack(blocks) -> Matrix:
    nrows = blocks[0].rows
    assert all(b.rows == nrows for b in blocks)
    return Matrix.from_rows(
        [[v for b in blocks for v in b.row(i)] for i in range(nrows)],
        cols=sum(b.cols for b in blocks),
    )


def vstack(blocks) -> Matrix:
    ncols = blocks[0].cols
    assert all(b.cols == ncols for b in blocks)
    return Matrix.from_rows([list(b.row(i)) for b in blocks for i in range(b.rows)], cols=ncols)


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def test_rank_identity():
    assert rank(Matrix.identity(2)) == 2


def test_rank_empty_matrix():
    assert rank(Matrix.zero(0, 5)) == 0
    assert rank(Matrix.zero(5, 0)) == 0


def test_rank_dependent_rows():
    # row 2 = 2 * row 1, so elimination leaves a single pivot
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_injective():
    assert kernel_basis(Matrix.identity(2)) == []


def test_kernel_single_relation():
    # x - y = 0 has solution space spanned by (1, 1)
    m = Matrix.from_rows([[1, -1]])
    assert kernel_basis(m) == [(Fraction(1), Fraction(1))]


def test_kernel_zero_map():
    vecs = kernel_basis(Matrix.zero(2, 3))
    assert vecs == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_kernel_pivot_normalized():
    m = Matrix.from_rows([[2, 4, 6]])
    (v,), (w,) = kernel_basis(m)[0:1], kernel_basis(m)[1:2]
    # free coordinates carry exactly 1
    assert v[1] == 1 and v[2] == 0
    assert w[1] == 0 and w[2] == 1
    for vec in (v, w):
        assert m.apply(vec) == (Fraction(0),)


def test_solve_identity():
    assert solve(Matrix.identity(2), [3, 5]) == (Fraction(3), Fraction(5))


def test_solve_underdetermined_exact():
    m = Matrix.from_rows([[1, -1]])
    x = solve(m, [0])
    assert x is not None
    assert m.apply(x) == (Fraction(0),)


def test_solve_inconsistent():
    m = Matrix.from_rows([[1], [1]])
    assert solve(m, [0, 1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(Matrix.identity(2), [1, 2, 3])


def test_trace():
    assert trace(Matrix.identity(3)) == 3
    assert trace(Matrix.from_rows([[0, 1], [0, 0]])) == 0
    assert trace(Matrix.from_rows([["1/2", 0], [0, "1/3"]])) == Fraction(5, 6)


def test_trace_non_square():
    with pytest.raises(ValueError):
        trace(Matrix.zero(2, 3))


def test_floats_rejected():
    with pytest.raises(TypeError):
        Matrix.from_rows([[0.5]])


def test_rank_nullity_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = Matrix(
            rows,
            cols,
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows * cols)],
        )
        assert rank(m) + len(kernel_basis(m)) == cols
        for v in kernel_basis(m):
            assert all(c == 0 for c in m.apply(v))


def test_solve_agrees_with_rank_criterion():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(rows, cols, [Fraction(rng.randint(-3, 3)) for _ in range(rows * cols)])
        b = [Fraction(rng.randint(-3, 3)) for _ in range(rows)]
        x = solve(m, b)
        augmented = hstack([m, column(b)])
        if x is None:
            assert rank(augmented) > rank(m)
        else:
            assert m.apply(x) == tuple(b)
            assert rank(augmented) == rank(m)


def test_solve_multi_matches_columnwise_solve():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    rhs = Matrix.from_rows([[1, 0], [0, 1]])
    sol = solve_multi(m, rhs)
    assert sol is not None
    assert m * sol == rhs


def test_inverse():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    inv = inverse(m)
    assert inv is not None
    assert m * inv == Matrix.identity(2)
    assert inverse(Matrix.from_rows([[1, 2], [2, 4]])) is None
    assert is_invertible(Matrix.identity(3))
    assert not is_invertible(Matrix.zero(2, 2))


def test_column_space_basis_spans_image():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = column_space_basis(m)
    assert basis.cols == rank(m) == 2
    # first pivot column is the original first column
    assert basis.col(0) == m.col(0)


def test_stacking_and_blocks():
    a = Matrix.identity(2)
    b = Matrix.zero(2, 1)
    assert hstack([a, b]).shape == (2, 3)
    assert vstack([a, Matrix.zero(1, 2)]).shape == (3, 2)
    d = block_diag([a, Matrix.from_rows([[5]])])
    assert d.shape == (3, 3)
    assert d[2, 2] == 5
    assert d[0, 2] == 0


def test_zero_sized_matrices_are_legal():
    z = Matrix.zero(0, 3)
    assert z.shape == (0, 3)
    assert (z * Matrix.zero(3, 2)).shape == (0, 2)
    assert Matrix.zero(3, 0).apply(()) == (Fraction(0),) * 3


def test_rows_columns_and_entries_check_their_index():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.row(1) == (3, 4) and m.col(1) == (2, 4)
    for read in (lambda: m.row(2), lambda: m.row(-1), lambda: m.col(5), lambda: m.col(-1), lambda: m[5, 0]):
        with pytest.raises(IndexError):
            read()
    assert Matrix.zero(1, 0).row(0) == ()
    with pytest.raises(IndexError):
        Matrix.zero(0, 3).row(0)


def test_canonical_string_round_trip():
    m = Matrix.from_rows([["-1/2", "3"], ["0", "7/3"]])
    lists = m.to_lists()
    assert lists == [["-1/2", "3"], ["0", "7/3"]]
    assert Matrix.from_lists(lists) == m


def test_entries_always_canonical():
    m = Matrix.from_rows([["2/4"]])
    assert m.to_lists() == [["1/2"]]
    assert frac("3/6") == Fraction(1, 2)
