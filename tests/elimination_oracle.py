"""The integer elimination core as it was when every clearing step made the
row primitive again: the oracle of ``linalg.Echelon`` and ``linalg._reduce``.

``linalg`` takes a row's content once, when it keeps or finishes reducing
the row.  A clearing step only rescales the row's rational direction, so
its kept and reduced rows must equal the ones of ``Echelon`` below exactly,
row by row: the same pivot rule, a working row with strictly fewer
entries than the kept row at its leading column taking that row's place.

``FirstRowEchelon`` keeps the earlier rule instead, each pivot kept by
the first row that leads there.  Its kept rows differ, but the pivots,
the reduced rows and everything read off them must not.
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


def _positive(row: IntRow) -> IntRow:
    """row with a positive leading entry."""
    return {c: -v for c, v in row.items()} if row[min(row)] < 0 else row


class Echelon:
    """The echelon form of rows added one at a time, each row made
    primitive before and after every clearing step.  A working row with
    fewer entries than the kept row at its leading column is kept there
    instead, and the displaced row is reduced on."""

    displaces = True

    def __init__(self, rows: Iterable[SparseRow] = ()) -> None:
        self.rows: dict[int, IntRow] = {}
        for row in rows:
            self.add(row)

    def add(self, row: SparseRow) -> bool:
        """Whether the rank grew."""
        if not row:
            return False
        row = _primitive(row)
        while row:
            col = min(row)
            piv = self.rows.get(col)
            if piv is None:
                self.rows[col] = _positive(row)
                return True
            if self.displaces and len(row) < len(piv):
                self.rows[col], row = _positive(row), piv
                piv = self.rows[col]
            row = _eliminate(row, col, piv, piv[col])
        return False

    def form(self) -> tuple[list[IntRow], list[int]]:
        pivots = sorted(self.rows)
        return [self.rows[c] for c in pivots], pivots


class FirstRowEchelon(Echelon):
    """The echelon form under the earlier rule: the first row that leads
    at a column keeps its pivot."""

    displaces = False


def reduce(rows: Iterable[SparseRow], echelon: type[Echelon] = Echelon) -> tuple[list[IntRow], list[int]]:
    """The integer reduced row echelon form, cleared above each pivot, last
    pivot first, with the content taken after every clearing step, from
    the forward elimination of echelon."""
    reduced, pivots = echelon(rows).form()
    for k in range(len(reduced) - 1, 0, -1):
        piv, col = reduced[k], pivots[k]
        for i in range(k):
            if col in reduced[i]:
                reduced[i] = _eliminate(reduced[i], col, piv, piv[col])
    return reduced, pivots
