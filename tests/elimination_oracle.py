"""The integer elimination core as it was when every clearing step made the
row primitive again: the oracle of ``linalg.Echelon`` and ``linalg._reduce``.

``linalg`` takes a row's content once, when it keeps or finishes reducing
the row.  A clearing step only rescales the row's rational direction, so
its kept and reduced rows must equal the ones below exactly, row by row.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

SparseRow = dict[int, Union[Fraction, int]]
IntRow = dict[int, int]


def _primitive(row: SparseRow) -> IntRow:
    """A nonzero rational row scaled to integers with no common factor."""
    den = lcm(*(v.denominator for v in row.values()))
    out = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*out.values())
    return {c: v // g for c, v in out.items()}


def _eliminate(row: IntRow, col: int, piv: IntRow, p: int) -> IntRow:
    """row with its entry in col cleared by piv, whose entry there is p > 0,
    made primitive again."""
    f = row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    out = {c: a * v for c, v in row.items()}
    for c, v in piv.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            del out[c]
    content = gcd(*out.values())
    return {c: v // content for c, v in out.items()}


class Echelon:
    """The echelon form of rows added one at a time, each row made
    primitive before and after every clearing step."""

    def __init__(self, rows: Iterable[SparseRow] = ()) -> None:
        self.rows: dict[int, IntRow] = {}
        for row in rows:
            self.add(row)

    def add(self, row: SparseRow) -> bool:
        if not row:
            return False
        row = _primitive(row)
        while row:
            col = min(row)
            piv = self.rows.get(col)
            if piv is None:
                self.rows[col] = {c: -v for c, v in row.items()} if row[col] < 0 else row
                return True
            row = _eliminate(row, col, piv, piv[col])
        return False

    def form(self) -> tuple[list[IntRow], list[int]]:
        pivots = sorted(self.rows)
        return [self.rows[c] for c in pivots], pivots


def reduce(rows: Iterable[SparseRow]) -> tuple[list[IntRow], list[int]]:
    """The integer reduced row echelon form, cleared above each pivot, last
    pivot first, with the content taken after every clearing step."""
    reduced, pivots = Echelon(rows).form()
    for k in range(len(reduced) - 1, 0, -1):
        piv, col = reduced[k], pivots[k]
        for i in range(k):
            if col in reduced[i]:
                reduced[i] = _eliminate(reduced[i], col, piv, piv[col])
    return reduced, pivots
