"""The Gelfand-Ponomarev relations as signed paths, and the relation value
that preproj.check_relations once read its verdicts from, kept as a test
oracle.

``gp_relation`` lists the length-2 paths of each relation and
``relation_value`` evaluates them as a Fraction Matrix.  The code is the
former package code (``quiver.RelationTerm``, ``quiver.gp_relation`` and
``preproj.relation_value``), unchanged.
"""

from dataclasses import dataclass

from e2quiver.linalg import Matrix
from e2quiver.preproj import QuiverRep
from e2quiver.quiver import Arrow, Window


@dataclass(frozen=True)
class RelationTerm:
    """The Gelfand-Ponomarev relation at a vertex, as signed length-2 paths.

    Each pair (first, second) is applied first arrow first.  For an interior
    vertex i the positive part is (h_i, hbar_i) and the negative part is
    (hbar_{i-1}, h_{i-1}); the parts are trimmed at the window ends.
    """

    vertex: int
    positive: tuple[tuple[Arrow, Arrow], ...]
    negative: tuple[tuple[Arrow, Arrow], ...]


def gp_relation(w: Window, i: int) -> RelationTerm:
    """Relation r_i on the window: paths out of i via h minus paths into i via h."""
    if not w.contains(i):
        raise ValueError(f"vertex {i} outside window [{w.a}, {w.b}]")
    positive: tuple[tuple[Arrow, Arrow], ...] = ()
    negative: tuple[tuple[Arrow, Arrow], ...] = ()
    if i < w.b:
        positive = (((Arrow(i), Arrow(i, reverse=True))),)
    if i > w.a:
        negative = (((Arrow(i - 1, reverse=True), Arrow(i - 1))),)
    return RelationTerm(i, positive, negative)


def relation_value(x: QuiverRep, i: int) -> Matrix:
    """The matrix of the Gelfand-Ponomarev relation r_i evaluated at x."""
    term = gp_relation(x.window, i)
    n = x.dim(i)
    value = Matrix.zero(n, n)
    for first, second in term.positive:
        value = value + x.map(second) * x.map(first)
    for first, second in term.negative:
        value = value - x.map(second) * x.map(first)
    return value


def violated_vertices(x: QuiverRep) -> list[int]:
    """The vertices whose relation value is nonzero, ascending."""
    return [i for i in x.window.vertices() if not relation_value(x, i).is_zero()]
