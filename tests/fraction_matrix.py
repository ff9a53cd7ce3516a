"""Dense matrix arithmetic over ``Fraction``, the oracle for ``linalg.Matrix``.

``Matrix`` stores integers over one denominator and multiplies, adds,
inverts and solves in integers.  This module keeps the arithmetic it
replaced: every entry a ``Fraction``, products and sums entry by entry, and
inverse and solve by Gauss-Jordan elimination over ``Fraction`` (which
shares no code with the integer elimination core).  A matrix here is a
list of rows of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Rows = list[list[Fraction]]

_ZERO = Fraction(0)


def matmul(a: Rows, b: Rows, inner: int, cols: int) -> Rows:
    """a (n x inner) times b (inner x cols)."""
    out = [[_ZERO] * cols for _ in a]
    for i, row in enumerate(a):
        for k in range(inner):
            if row[k]:
                for j in range(cols):
                    out[i][j] += row[k] * b[k][j]
    return out


def add(a: Rows, b: Rows, sign: int = 1) -> Rows:
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a: Rows, c: Fraction) -> Rows:
    return [[c * x for x in row] for row in a]


def apply(a: Rows, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), _ZERO) for row in a]


def block_diag(blocks: Sequence[tuple[Rows, int]]) -> Rows:
    """Blocks given as (rows, column count)."""
    ncols = sum(c for _, c in blocks)
    out: Rows = []
    c0 = 0
    for rows, c in blocks:
        out += [[_ZERO] * c0 + list(row) + [_ZERO] * (ncols - c0 - c) for row in rows]
        c0 += c
    return out


def rref(rows: Rows, ncols: int) -> tuple[Rows, list[int]]:
    """Reduced row echelon form over Fraction of the first ncols columns
    (later columns are carried along), and its pivot columns."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pick is None:
            continue
        work[r], work[pick] = work[pick], work[r]
        p = work[r][c]
        work[r] = [x / p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def solve(a: Rows, b: Rows, ncols: int, nrhs: int) -> Rows | None:
    """X with a X = b, free variables zero, or None when inconsistent."""
    reduced, pivots = rref([ra + rb for ra, rb in zip(a, b)], ncols)
    if any(any(row[ncols:]) for row in reduced[len(pivots) :]):
        return None
    x = [[_ZERO] * nrhs for _ in range(ncols)]
    for row, p in zip(reduced, pivots):
        x[p] = row[ncols:]
    return x


def inverse(a: Rows) -> Rows | None:
    n = len(a)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    _, pivots = rref(a, n)
    return solve(a, identity, n, n) if len(pivots) == n else None
