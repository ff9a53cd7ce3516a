"""Exact dense linear algebra over the rational numbers.

Every matrix entry is a ``fractions.Fraction``; there is no floating point
and no tolerance anywhere in this package.  Matrices are small (total
dimensions of the order of tens), so the elimination routines favour
exactness and determinism over asymptotics.  One elimination core serves
rank, pivots, kernels, solving and spinning: ``Echelon``, fraction-free
Gaussian elimination on primitive integer rows, which keeps each row that
is independent of the rows before it.  Rank and pivot columns are read off
its echelon form alone, with no back-substitution and no division.
Kernels and solutions are read off the integer reduced row echelon form
that back-substitution of its rows gives (pivot-normalized kernel bases,
solutions with free variables zero), each entry built once as a Fraction
over its row's pivot entry; no rational echelon form is formed.  The
invertibility search of ``preproj`` back-substitutes one integer vector at
a time from the echelon form instead (``back_substitute``).  (``preproj``
ranks its small dense integer blocks, the arrow maps and the
invertibility candidates, by its own Bareiss elimination; the public
``rank`` stays on this core, which large sparse systems need.)  The sparse
entry points take rows of Fractions, of Python ints or of both: callers
that have already scaled a homogeneous system to integers
(``scale_to_ints``) hand it over as it is.

Floats are rejected on input so a rounding error can never sneak in.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# The only string form of a rational.  Decimal points, "+" signs, exponents and
# whitespace are refused, so a string can never ask for a huge power of ten.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


# An error message shows at most this many characters of an offending
# value's repr, so that its size does not grow with the input.
_SHOWN = 40


def shown(value: object) -> str:
    """value's type and the start of its repr, for an error message: at
    most _SHOWN characters, the last three "..." when it is cut."""
    text = repr(value)
    if len(text) > _SHOWN:
        text = text[: _SHOWN - 3] + "..."
    return f"{type(value).__name__} {text}"


def frac(value: RationalLike) -> Fraction:
    """Coerce an int (not a bool), a Fraction or a string "-?digits(/digits)?"
    ("3", "-1/2") to Fraction.  Other types raise TypeError; other strings and
    zero denominators raise ValueError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"not a rational of the form -?digits(/digits)?: {shown(value)}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {shown(value)}") from None
    raise TypeError(f"expected an exact rational, got {shown(value)}")


Vector = tuple[Fraction, ...]


def vector(values: Iterable[RationalLike]) -> Vector:
    return tuple(frac(v) for v in values)


class Matrix:
    """Immutable dense rational matrix, row-major.

    0xN and Nx0 matrices are legal and represent maps to or from the zero
    space.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable[RationalLike]):
        self.rows = rows
        self.cols = cols
        self._e = tuple(v if v.__class__ is Fraction else frac(v) for v in entries)
        if len(self._e) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(self._e)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]], cols: int | None = None) -> "Matrix":
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                cols = 0
            return cls(0, cols, ())
        ncols = len(rows[0])
        if cols is not None and cols != ncols:
            raise ValueError(f"expected {cols} columns, got {ncols}")
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, (v for r in rows for v in r))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, (_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[RationalLike]], rows: int | None = None) -> "Matrix":
        if len(columns) == 0:
            return cls(rows if rows is not None else 0, 0, ())
        nrows = len(columns[0])
        if rows is not None and rows != nrows:
            raise ValueError(f"expected {rows} rows, got {nrows}")
        if any(len(c) != nrows for c in columns):
            raise ValueError("ragged columns")
        return cls(nrows, len(columns), (frac(columns[j][i]) for i in range(nrows) for j in range(len(columns))))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self._e[i * self.cols + j]

    def entries(self) -> Vector:
        """All entries, row-major."""
        return self._e

    def row(self, i: int) -> Vector:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self._e)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._e == other._e

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return Matrix(self.rows, self.cols, (a + b if b else a for a, b in zip(self._e, other._e)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} - {other.shape}")
        return Matrix(self.rows, self.cols, (a - b if b else a for a, b in zip(self._e, other._e)))

    def scale(self, c: RationalLike) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, (c * a for a in self._e))

    def __mul__(self, other: Union["Matrix", RationalLike]) -> "Matrix":
        if isinstance(other, Matrix):
            return self.matmul(other)
        return self.scale(other)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        n, m, p = self.rows, self.cols, other.cols
        out = [_ZERO] * (n * p)
        se, oe = self._e, other._e
        for i in range(n):
            base = i * m
            for k in range(m):
                a = se[base + k]
                if a == 0:
                    continue
                ob = k * p
                rb = i * p
                for j in range(p):
                    b = oe[ob + j]
                    if b != 0:
                        out[rb + j] += a * b
        return Matrix(n, p, out)

    def apply(self, v: Sequence[RationalLike]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"cannot apply {self.shape} to a vector of length {len(v)}")
        vv = vector(v)
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum((self._e[base + j] * vv[j] for j in range(self.cols)), _ZERO))
        return tuple(out)

    def to_lists(self) -> list[list[str]]:
        """Rows of canonical rational strings, for JSON interchange."""
        return [[str(v) for v in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_lists(cls, data: object, rows: int | None = None, cols: int | None = None) -> "Matrix":
        """Read a JSON matrix: an array of rows of integers and rational strings
        (see frac).  Anything else, or another shape than asked for, raises ValueError."""
        if not isinstance(data, list):
            raise ValueError(f"expected an array of arrays of rationals, got {type(data).__name__}")
        for r in data:
            if not isinstance(r, list):
                raise ValueError(f"expected an array of rationals, got {type(r).__name__}")
            for v in r:
                if type(v) is not int and type(v) is not str:
                    raise ValueError(f"expected an exact rational, got {type(v).__name__}")
        m = cls.from_rows(data, cols=cols)
        if rows is not None and m.rows != rows:
            raise ValueError(f"expected {rows} rows, got {m.rows}")
        return m

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows))
        return f"Matrix[{body}]"


# ---------------------------------------------------------------------------
# Elimination core.  Rows are kept as sparse {column: value} dicts of nonzero
# entries: the intertwiner systems assembled elsewhere are very sparse.
#
# The core eliminates fraction-free, on integer rows (in the spirit of
# Bareiss 1968).  Each row is first scaled to a primitive integer row (no
# denominators, entries without a common factor).  Clearing an entry f with
# a pivot p is row <- (p/g) row - (f/g) pivot_row with g = gcd(p, f),
# followed by division by the row's content, so entries stay small integers
# and no Fraction is built during elimination.  Echelon clears each new row
# at its leading column until it vanishes or leads where no kept row does
# (the forward phase, all that rank needs); _reduce then clears the entries
# above each pivot, last pivot first.  Kernels and solutions read each entry
# they need off the integer reduced rows, divided by the row's pivot entry
# once (_kernel, _particular).  The reduced row echelon form is unique, so
# this gives exactly what elimination over Fraction gives.  Only this module
# knows the row format: primitive rows with a positive leading entry.

SparseRow = dict[int, Union[Fraction, int]]
_IntRow = dict[int, int]


def scale_to_ints(values: Iterable[Union[Fraction, int]]) -> tuple[list[int], int]:
    """Integers n_k and the least d > 0 with values[k] = n_k / d."""
    values = list(values)
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _to_sparse_rows(m: Matrix) -> list[SparseRow]:
    rows = []
    for i in range(m.rows):
        r = m.row(i)
        rows.append({j: v for j, v in enumerate(r) if v != 0})
    return rows


def _primitive(row: SparseRow) -> _IntRow:
    """A nonzero rational row scaled to integers with no common factor."""
    den = lcm(*(v.denominator for v in row.values()))
    if den == 1:
        out = {c: v.numerator for c, v in row.items()}
    else:
        out = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*out.values())
    if g != 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _eliminate(row: _IntRow, col: int, piv: _IntRow, p: int) -> _IntRow:
    """row with its entry in col cleared by piv, whose entry there is p > 0,
    made primitive again.  Updates row in place when p divides that entry."""
    f = row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in piv.items():
        nv = row.get(c, 0) - b * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    content = gcd(*row.values())
    if content > 1:
        row = {c: v // content for c, v in row.items()}
    return row


class Echelon:
    """An integer row echelon form grown one row at a time: the forward
    elimination of every system here, and the membership test of spinning
    (MeatAxe-style closure under a set of maps).

    Each kept row is primitive with a positive leading entry and is stored
    under its leading column.  A new row is reduced by the kept row at its
    current leading column until it vanishes (it lies in the span) or leads
    at a column no kept row leads at (it is kept).  Clearing its leading
    entry leaves only later columns, so each kept row is used at most once.
    Kept rows never change: rows added in order give the echelon form of
    elimination column by column with the first remaining row as pivot.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[SparseRow] = ()) -> None:
        self._rows: dict[int, _IntRow] = {}
        for row in rows:
            self.add(row)

    def add(self, row: SparseRow) -> bool:
        """Keep row if it is independent of the rows kept so far; whether it
        was kept.  The row holds nonzero entries only."""
        if not row:
            return False
        row = _primitive(row)
        while row:
            col = min(row)
            piv = self._rows.get(col)
            if piv is None:
                if row[col] < 0:
                    row = {c: -v for c, v in row.items()}
                self._rows[col] = row
                return True
            row = _eliminate(row, col, piv, piv[col])
        return False

    def form(self) -> tuple[list[_IntRow], list[int]]:
        """The kept rows (themselves, not copies) in pivot order, and their
        pivot columns, ascending."""
        pivots = sorted(self._rows)
        return [self._rows[c] for c in pivots], pivots


def _reduce(rows: Iterable[SparseRow]) -> tuple[list[_IntRow], list[int]]:
    """Integer reduced row echelon form: the echelon rows of rows with
    zeros cleared into the later pivot columns as well, and its pivots."""
    reduced, pivots = Echelon(rows).form()
    # back-substitution, last pivot first, so that each pivot row used is
    # already zero in the later pivot columns
    for k in range(len(reduced) - 1, 0, -1):
        piv, col = reduced[k], pivots[k]
        p = piv[col]
        for i in range(k):
            if col in reduced[i]:
                reduced[i] = _eliminate(reduced[i], col, piv, p)
    return reduced, pivots


def back_substitute(echelon: list[_IntRow], pivots: list[int], w: list[int]) -> list[int]:
    """D v for some integer D > 0, v the solution of the echelon rows (from
    Echelon.form, or a run of them) that agrees with w off their pivot
    columns (w is 0 there, and is reused).  Fraction-free, last pivot
    first: a row with pivot entry p > 0 at column c gives p w_c = -s, s its
    dot product with w (w_c still 0, no entries left of c); when p does not
    divide s, w is first scaled by p / gcd(s, p)."""
    for row, col in zip(reversed(echelon), reversed(pivots)):
        s = -sum(map(mul, row.values(), map(w.__getitem__, row)))
        p = row[col]
        if s % p:
            m = p // gcd(s, p)
            w = [a * m for a in w]
            s *= m
        w[col] = s // p
    return w


def _augment(rows: list[SparseRow], ncols: int, rhs: Iterable[Sequence[Fraction]]) -> list[SparseRow]:
    """Copies of rows with the right-hand side entries rhs[i][j] placed in
    column ncols + j of row i."""
    out = [dict(r) for r in rows]
    for i, b in enumerate(rhs):
        for j, v in enumerate(b):
            if v != 0:
                out[i][ncols + j] = v
    return out


def _kernel(reduced: list[_IntRow], pivots: list[int], ncols: int) -> list[Vector]:
    """Pivot-normalized kernel basis of the first ncols columns of an
    integer reduced echelon form (_reduce): each entry is built once, as
    -v / p for the entry v of a row with pivot entry p."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[free] = _ONE
        for row, p in zip(reduced, pivots):
            if p >= ncols:
                break
            coeff = row.get(free)
            if coeff is not None:
                v[p] = Fraction(-coeff, row[p])
        basis.append(tuple(v))
    return basis


def _particular(reduced: list[_IntRow], pivots: list[int], ncols: int, nrhs: int) -> list[list[Fraction]] | None:
    """The solution X (ncols x nrhs, free variables zero) of A X = B read off
    the integer reduced echelon form of [A | B] (_reduce), or None when a
    pivot lies in B."""
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[_ZERO] * nrhs for _ in range(ncols)]
    for row, p in zip(reduced, pivots):
        for c, v in row.items():
            if c >= ncols:
                x[p][c - ncols] = Fraction(v, row[p])
    return x


def sparse_rank(rows: list[SparseRow], ncols: int) -> int:
    """Rank of a sparse system in ncols unknowns, from the forward
    elimination alone."""
    return len(Echelon(rows).form()[1])


def sparse_kernel(rows: list[SparseRow], ncols: int) -> list[Vector]:
    """Pivot-normalized kernel basis of a sparse homogeneous system."""
    reduced, pivots = _reduce(rows)
    return _kernel(reduced, pivots, ncols)


def sparse_affine_solve(
    rows: list[SparseRow], rhs: Sequence[Fraction], ncols: int
) -> tuple[Vector | None, list[Vector]]:
    """Solve a sparse inhomogeneous system.

    Returns (particular solution with free variables zero, kernel basis of the
    homogeneous part); the particular solution is None when inconsistent.
    """
    reduced, pivots = _reduce(_augment(rows, ncols, ((v,) for v in rhs)))
    x = _particular(reduced, pivots, ncols, 1)
    return (None if x is None else tuple(r[0] for r in x)), _kernel(reduced, pivots, ncols)


def rank(m: Matrix) -> int:
    """Rank over the rationals."""
    return sparse_rank(_to_sparse_rows(m), m.cols)


def pivot_columns(m: Matrix) -> list[int]:
    """Pivot columns of the reduced echelon form, ascending; the forward
    elimination already finds them."""
    return Echelon(_to_sparse_rows(m)).form()[1]


def column_space_basis(m: Matrix) -> Matrix:
    """The pivot columns of m itself: an exact basis of the column space."""
    return Matrix.from_columns([m.col(j) for j in pivot_columns(m)], rows=m.rows)


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the right kernel {v : m v = 0}, pivot-normalized.

    Each basis vector carries a 1 in its free coordinate, 0 in the other free
    coordinates, and the negated reduced-echelon entries in the pivot
    coordinates; vectors are ordered by free column.  Basis size equals
    cols - rank.
    """
    return sparse_kernel(_to_sparse_rows(m), m.cols)


def solve(m: Matrix, b: Sequence[RationalLike]) -> Vector | None:
    """A particular solution of m x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != m.rows:
        raise ValueError(f"right-hand side has {len(b)} entries, matrix has {m.rows} rows")
    x = solve_multi(m, Matrix(m.rows, 1, b))
    return None if x is None else x.col(0)


def solve_multi(m: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve m X = rhs for all right-hand columns at once.

    Returns a cols(m) x cols(rhs) matrix with free variables set to zero, or
    None if any column is inconsistent.
    """
    if rhs.rows != m.rows:
        raise ValueError(f"right-hand side has {rhs.rows} rows, matrix has {m.rows}")
    rows = _augment(_to_sparse_rows(m), m.cols, (rhs.row(i) for i in range(rhs.rows)))
    reduced, pivots = _reduce(rows)
    x = _particular(reduced, pivots, m.cols, rhs.cols)
    return None if x is None else Matrix.from_rows(x, cols=rhs.cols)


def trace(m: Matrix) -> Fraction:
    """Sum of diagonal entries; raises on non-square input."""
    if m.rows != m.cols:
        raise ValueError(f"trace of non-square {m.rows}x{m.cols} matrix")
    return sum((m[i, i] for i in range(m.rows)), _ZERO)


def inverse(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None if singular.

    One elimination: for square m, m X = I has a solution exactly when m is
    invertible, and the solution is then the inverse.
    """
    if m.rows != m.cols:
        raise ValueError(f"inverse of non-square {m.rows}x{m.cols} matrix")
    return solve_multi(m, Matrix.identity(m.rows))


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    nrows = sum(b.rows for b in blocks)
    ncols = sum(b.cols for b in blocks)
    out = [[_ZERO] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            row = b.row(i)
            for j in range(b.cols):
                if row[j] != 0:
                    out[r0 + i][c0 + j] = row[j]
        r0 += b.rows
        c0 += b.cols
    return Matrix.from_rows(out, cols=ncols)
