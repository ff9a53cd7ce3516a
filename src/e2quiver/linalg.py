"""Exact dense linear algebra over the rational numbers.

A ``Matrix`` holds one number format: a tuple of Python ints over one
positive denominator, in lowest terms.  Products, sums, inverses and
solutions run on those integers, and ``Fraction``s are built only where a
caller reads entries (``entries``, ``row``, ``col``, ``m[i, j]``), at the
JSON boundary (``frac``, ``to_lists``) and in the public kernel and solve
results.  Internal callers read the integers with ``Matrix.ints`` and
build matrices from integers.  There is no floating point and no
tolerance anywhere in this package.  Matrices are small (total dimensions
of the order of tens), so the elimination routines favour exactness and
determinism over asymptotics.  There is one elimination core per input
format.  A dense ``Matrix`` goes to ``_bareiss``, fraction-free Bareiss
elimination of its integer rows: ``rank``, ``pivot_columns`` and
``column_space_basis``, and the invertibility test of ``preproj``'s
integer candidate blocks.  Sparse rows go to ``Echelon``, fraction-free
Gaussian elimination on primitive integer rows, in which a working row
with fewer entries than the kept row at its leading column takes over
that pivot (Markowitz's sparsest-pivot rule, which cuts fill-in): rank,
kernels, solving and spinning.  Ranks are read off its echelon form
alone, with no back-substitution and no division.  Kernels and solutions are read off
the integer reduced row echelon form that back-substitution of its rows
gives (pivot-normalized kernel bases, solutions with free variables
zero), as integers over the lcm of the pivot entries they divide by; no
rational echelon form is formed.  The invertibility search of ``preproj``
back-substitutes one integer vector at a time from the echelon form
instead (``back_substitute``).  The sparse entry points take rows of
Fractions, of Python ints or of both: a homogeneous system already in
integers is handed over as it is.  Kernels and solutions of a dense
``Matrix`` go through the sparse core too.

Floats are rejected on input so a rounding error can never sneak in.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[int, str, Fraction]

# The only string form of a rational.  Decimal points, "+" signs, exponents and
# whitespace are refused, so a string can never ask for a huge power of ten.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


# An error message shows at most this many characters of an offending
# value's repr, so that its size does not grow with the input.
_SHOWN = 40


def cut(value: object) -> str:
    """The start of str(value), for an error message: at most _SHOWN
    characters, the last three "..." when it is cut.  An int is written by
    Decimal, which has no int-to-string digit limit."""
    text = str(Decimal(value)) if type(value) is int else str(value)
    return text if len(text) <= _SHOWN else text[: _SHOWN - 3] + "..."


def shown(value: object) -> str:
    """value's type and the start of its repr, cut for an error message."""
    return f"{type(value).__name__} {cut(repr(value))}"


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
# A rational vector as integers n over a denominator d > 0: the vector n / d.
IntVector = tuple[Sequence[int], int]


def vector(values: Iterable[RationalLike]) -> Vector:
    return tuple(frac(v) for v in values)


def _fractions(ints: Iterable[int], den: int) -> Vector:
    """The Fractions n / den, for n in ints."""
    return tuple(map(Fraction, ints)) if den == 1 else tuple(Fraction(n, den) for n in ints)


class Matrix:
    """Immutable dense rational matrix, row-major.

    Stored as one tuple of Python ints over one positive denominator, in
    lowest terms (the gcd of the denominator and every numerator is 1), so
    equal rationals give equal matrices and equal hashes.  Arithmetic runs
    on the integers; entries, rows and columns are read as Fractions, built
    on demand.  0xN and Nx0 matrices are legal and represent maps to or
    from the zero space.
    """

    __slots__ = ("rows", "cols", "_e", "_d")

    def __init__(self, rows: int, cols: int, entries: Iterable[RationalLike]):
        values = [v if v.__class__ is int or v.__class__ is Fraction else frac(v) for v in entries]
        if len(values) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(values)}")
        ints, self._d = scale_to_ints(values)
        self.rows, self.cols, self._e = rows, cols, tuple(ints)

    @classmethod
    def _of(cls, rows: int, cols: int, ints: Sequence[int], den: int = 1) -> "Matrix":
        """The matrix of the integers ints (row-major) over den > 0."""
        if den != 1 and (g := gcd(den, *ints)) != 1:
            ints, den = [v // g for v in ints], den // g
        m = cls.__new__(cls)
        m.rows, m.cols, m._e, m._d = rows, cols, tuple(ints), den
        return m

    @classmethod
    def _of_columns(cls, rows: int, columns: Sequence[IntVector]) -> "Matrix":
        """The matrix whose columns are the integer vectors given."""
        den = lcm(*(d for _, d in columns))
        scaled = [ints if d == den else [v * (den // d) for v in ints] for ints, d in columns]
        return cls._of(rows, len(columns), [col[r] for r in range(rows) for col in scaled], den)

    def ints(self) -> tuple[tuple[int, ...], int]:
        """The integer entries, row-major, and the denominator they share."""
        return self._e, self._d

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]], cols: int | None = None) -> "Matrix":
        if not rows:
            return cls._of(0, cols or 0, ())
        nrows, ncols = len(rows), len(rows[0])
        if cols is not None and cols != ncols:
            raise ValueError(f"expected {cols} columns, got {ncols}")
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, (v for r in rows for v in r))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[RationalLike]], rows: int | None = None) -> "Matrix":
        if not columns:
            return cls._of(rows or 0, 0, ())
        nrows = len(columns[0])
        if rows is not None and rows != nrows:
            raise ValueError(f"expected {rows} rows, got {nrows}")
        if any(len(c) != nrows for c in columns):
            raise ValueError("ragged columns")
        return cls(nrows, len(columns), (columns[j][i] for i in range(nrows) for j in range(len(columns))))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range for {self.rows}x{self.cols}")
        return Fraction(self._e[i * self.cols + j], self._d)

    def entries(self) -> Vector:
        """All entries, row-major."""
        return _fractions(self._e, self._d)

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols}")
        return _fractions(self._e[i * self.cols : (i + 1) * self.cols], self._d)

    def col(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.rows}x{self.cols}")
        return _fractions(self._e[j :: self.cols], self._d)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._e)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._d == other._d and self._e == other._e

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e, self._d))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        den = lcm(self._d, other._d)
        a, b = den // self._d, den // other._d
        return Matrix._of(self.rows, self.cols, [a * x + b * y for x, y in zip(self._e, other._e)], den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c: RationalLike) -> "Matrix":
        c = frac(c)
        return Matrix._of(self.rows, self.cols, [c.numerator * a for a in self._e], self._d * c.denominator)

    def __mul__(self, other: Union["Matrix", RationalLike]) -> "Matrix":
        return self.matmul(other) if isinstance(other, Matrix) else self.scale(other)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        p = other.cols
        if not (self.rows and self.cols and p):  # an empty side: the zero product, over 1
            return Matrix.zero(self.rows, p)
        columns = [other._e[j::p] for j in range(p)]
        out = [sum(map(mul, row, col)) for row in self._rows() for col in columns]
        return Matrix._of(self.rows, p, out, self._d * other._d)

    def apply(self, v: Sequence[RationalLike]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"cannot apply {self.shape} to a vector of length {len(v)}")
        ints, den = scale_to_ints(vector(v))
        return _fractions([sum(map(mul, row, ints)) for row in self._rows()], self._d * den)

    def _rows(self) -> list[tuple[int, ...]]:
        """The integer rows."""
        n = self.cols
        return [self._e[i : i + n] for i in range(0, self.rows * n, n)] if n else [()] * self.rows

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
# The core eliminates fraction-free (in the spirit of Bareiss 1968), on rows
# scaled to integers by the lcm of their denominators.  Clearing an entry f
# with a pivot p is row <- (p/g) row - (f/g) pivot_row with g = gcd(p, f),
# so no Fraction is built.  A row is made primitive (no common factor, a
# positive leading entry) once, when it is kept or fully reduced: a clearing
# only rescales the row's direction, so rows, pivots, kernels and solutions
# are those of making it primitive after every clearing.  A working row is
# l times its primitive form, and l divides the entry being cleared, so
# taking the content before clearing an entry of over _GROWTH_BITS bits
# keeps l < 2^_GROWTH_BITS.  Echelon clears each new row at its leading
# column until it vanishes or leads where no kept row does (the forward
# phase, all that rank needs), a shorter row taking over the pivot it
# meets; _reduce then clears the entries above each pivot, last row
# first.  Kernels and solutions read each entry they need off the integer
# reduced rows, as integers over the lcm of the pivot entries they divide
# by (_kernel, _particular).  The reduced row echelon form is unique, so
# this gives exactly what elimination over Fraction gives.  Only this
# module knows the row format: primitive rows with a positive leading
# entry.

SparseRow = dict[int, Union[Fraction, int]]
_IntRow = dict[int, int]
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")
_GROWTH_BITS = 128


def scale_to_ints(values: Iterable[Union[Fraction, int]]) -> tuple[list[int], int]:
    """Integers n_k and the least d > 0 with values[k] = n_k / d.  They are
    in lowest terms: a prime's full power in the lcm d divides the
    denominator q of some value n / q, so it does not divide n * (d / q)."""
    values = list(values)
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _to_sparse_rows(m: Matrix) -> list[_IntRow]:
    """The rows of m's integer entries: the rows of m times its denominator."""
    return [{j: v for j, v in enumerate(row) if v} for row in m._rows()]


def _divided(row: _IntRow, g: int) -> _IntRow:
    """row divided by g, which divides every entry (row itself when g is 1)."""
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _clear(row: _IntRow, col: int, piv: _IntRow) -> _IntRow:
    """row with its entry in col cleared by piv, up to a positive factor.
    Updates row in place when the pivot entry divides that entry."""
    if row[col].bit_length() > _GROWTH_BITS:
        row = _divided(row, gcd(*row.values()))
    f, p = row[col], piv[col]
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
    return row


class Echelon:
    """An integer row echelon form grown one row at a time: the forward
    elimination of every system here, and the membership test of spinning
    (MeatAxe-style closure under a set of maps).

    Each kept row is primitive with a positive leading entry and is stored
    under its leading column.  A new row is cleared by the kept row at its
    current leading column until it vanishes (it lies in the span) or leads
    at a column no kept row leads at, where it is made primitive (the same
    row as when made so after every clearing, see the comment above) and
    kept.  When the working row has strictly fewer entries than the kept
    row at its leading column, it is made primitive and kept there instead,
    and a copy of the displaced row is cleared on: the sparser pivot makes
    less fill-in in the rows it clears later (Markowitz, Management Sci. 3,
    1957).  Clearing a leading entry leaves only later columns, so each
    column is met at most once per added row.  A displaced row is replaced,
    not changed, so the rows that form returned earlier stay as they were.

    Which rows are kept depends on the rule and on the order of the rows;
    nothing read off them does: the pivot columns, the row space, the rows
    of _reduce (the unique reduced echelon form), kernels, solutions, and
    the v of back_substitute for given free coordinates.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[SparseRow] = ()) -> None:
        self._rows: dict[int, _IntRow] = {}
        for row in rows:
            self.add(row)

    def add(self, row: SparseRow) -> bool:
        """Add row to the echelon form; whether the rank grew.  The row holds
        nonzero entries only; it is not changed."""
        if not row:
            return False
        den = lcm(*map(_denominator, row.values()))
        if den == 1:
            row = dict(zip(row, map(_numerator, row.values())))
        else:
            row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        while row:
            col = min(row)
            piv = self._rows.get(col)
            if piv is None or len(row) < len(piv):
                g = gcd(*row.values())
                self._rows[col] = _divided(row, -g if row[col] < 0 else g)
                if piv is None:
                    return True
                row, piv = dict(piv), self._rows[col]
            row = _clear(row, col, piv)
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
    # back-substitution, last row first: the rows that clear a row are already reduced
    for i in range(len(reduced) - 2, -1, -1):
        row = reduced[i]
        for piv, col in zip(reduced[i + 1 :], pivots[i + 1 :]):
            if col in row:
                row = _clear(row, col, piv)
        reduced[i] = _divided(row, gcd(*row.values()))
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


def _kernel(reduced: list[_IntRow], pivots: list[int], ncols: int) -> list[IntVector]:
    """Pivot-normalized kernel basis of the first ncols columns of an
    integer reduced echelon form (_reduce), each vector as integers over
    its least denominator: the free entry is 1 and a pivot entry -v / p for
    the entry v of a row with pivot entry p, all over the lcm of those p."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        entries = [(p, -row[free], row[p]) for row, p in zip(reduced, pivots) if p < ncols and free in row]
        den = lcm(*(q for _, _, q in entries))
        v = [0] * ncols
        v[free] = den
        for p, coeff, q in entries:
            v[p] = coeff * (den // q)
        if den != 1 and (g := gcd(den, *v)) != 1:
            v, den = [c // g for c in v], den // g
        basis.append((v, den))
    return basis


def _particular(reduced: list[_IntRow], pivots: list[int], ncols: int, nrhs: int) -> Matrix | None:
    """The solution X (ncols x nrhs, free variables zero) of A X = B read off
    the integer reduced echelon form of [A | B] (_reduce), or None when a
    pivot lies in B: row by row, the entries in B over the pivot entry."""
    if pivots and pivots[-1] >= ncols:
        return None
    den = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    x = [0] * (ncols * nrhs)
    for row, p in zip(reduced, pivots):
        scale = den // row[p]
        for c, v in row.items():
            if c >= ncols:
                x[p * nrhs + c - ncols] = v * scale
    return Matrix._of(ncols, nrhs, x, den)


def sparse_rank(rows: list[SparseRow], ncols: int) -> int:
    """Rank of a sparse system in ncols unknowns, from the forward
    elimination alone."""
    return len(Echelon(rows).form()[1])


def sparse_int_kernel(rows: list[SparseRow], ncols: int) -> list[IntVector]:
    """sparse_kernel's basis, each vector as integers over a denominator."""
    reduced, pivots = _reduce(rows)
    return _kernel(reduced, pivots, ncols)


def sparse_kernel(rows: list[SparseRow], ncols: int) -> list[Vector]:
    """Pivot-normalized kernel basis of a sparse homogeneous system."""
    return [_fractions(*v) for v in sparse_int_kernel(rows, ncols)]


def sparse_affine_solve(
    rows: list[SparseRow], rhs: Sequence[Fraction], ncols: int
) -> tuple[Vector | None, list[Vector]]:
    """Solve a sparse inhomogeneous system.

    Returns (particular solution with free variables zero, kernel basis of the
    homogeneous part); the particular solution is None when inconsistent.
    """
    reduced, pivots = _reduce(_augment(rows, ncols, ((v,) for v in rhs)))
    x = _particular(reduced, pivots, ncols, 1)
    return (None if x is None else x.col(0)), [_fractions(*v) for v in _kernel(reduced, pivots, ncols)]


def _bareiss(rows: list[list[int]]) -> Iterator[bool]:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of integer
    rows of one length (reused): whether each column in turn has a pivot,
    up to the last column or the last row, so the rank is the number of
    pivots.  After each pivot every entry left is a minor of the rows, in a
    changed order, on the pivot columns so far and its own column, so the
    division by the previous pivot is exact.  A column with no nonzero
    entry left has no pivot and is dropped, which keeps that so."""
    previous = 1
    while rows and rows[0]:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            yield False
            continue
        pivot = rows.pop(i)
        p = pivot[0]
        rows = [[(p * a - row[0] * b) // previous for a, b in zip(row[1:], pivot[1:])] for row in rows]
        previous = p
        yield True


def rank(m: Matrix) -> int:
    """Rank over the rationals: the number of pivots _bareiss finds in m's
    integer rows."""
    return sum(_bareiss(m._rows()))


def pivot_columns(m: Matrix) -> list[int]:
    """Pivot columns of the reduced echelon form, ascending: the columns
    in which _bareiss finds a pivot."""
    return [j for j, pivot in enumerate(_bareiss(m._rows())) if pivot]


def column_space_basis(m: Matrix) -> Matrix:
    """The pivot columns of m itself: an exact basis of the column space."""
    pivots = pivot_columns(m)
    return Matrix._of(m.rows, len(pivots), [row[j] for row in m._rows() for j in pivots], m._d)


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
    # m X = rhs with m = M / dm and rhs = R / dr is [dr M | dm R] in integers
    g = gcd(m._d, rhs._d)
    a, b = rhs._d // g, m._d // g
    rows = [{j: a * v for j, v in row.items()} for row in _to_sparse_rows(m)]
    rows = _augment(rows, m.cols, ([b * v for v in row] for row in rhs._rows()))
    reduced, pivots = _reduce(rows)
    return _particular(reduced, pivots, m.cols, rhs.cols)


def trace(m: Matrix) -> Fraction:
    """Sum of diagonal entries; raises on non-square input."""
    if m.rows != m.cols:
        raise ValueError(f"trace of non-square {m.rows}x{m.cols} matrix")
    return Fraction(sum(m._e[:: m.cols + 1]), m._d)


def inverse(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None if singular.

    One elimination: for square m, m X = I has a solution exactly when m is
    invertible, and the solution is then the inverse.
    """
    if m.rows != m.cols:
        raise ValueError(f"inverse of non-square {m.rows}x{m.cols} matrix")
    return solve_multi(m, Matrix.identity(m.rows))


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    ncols = sum(b.cols for b in blocks)
    den = lcm(*(b._d for b in blocks))
    out: list[int] = []
    c0 = 0
    for b in blocks:
        scale = den // b._d
        for row in b._rows():
            out += [0] * c0 + [scale * v for v in row] + [0] * (ncols - c0 - b.cols)
        c0 += b.cols
    return Matrix._of(sum(b.rows for b in blocks), ncols, out, den)
