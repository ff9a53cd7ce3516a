"""Nilpotency oracle that evaluates paths, independent of e2quiver.is_nilpotent.

A representation of the double quiver is nilpotent iff every path of length
total_dim evaluates to zero on it.  The oracle walks every path arrow by
arrow as a Matrix product and sums nothing, so no two paths can cancel.
A zero product stays zero, so it is dropped, and equal products ending at
one vertex extend the same way, so they are kept once.
"""

from e2quiver.linalg import Matrix
from e2quiver.preproj import QuiverRep
from e2quiver.quiver import double_arrows


def every_path_vanishes(x: QuiverRep) -> bool:
    """Whether each path of length x.total_dim evaluates to the zero map."""
    arrows = double_arrows(x.window)
    # the distinct nonzero evaluations of the paths walked so far, with
    # the vertex each path ends at
    live = {(v, Matrix.identity(x.dim(v))) for v in x.window.vertices() if x.dim(v)}
    for _ in range(x.total_dim):
        live = {
            (arrow.target, product)
            for end, path in live
            for arrow in arrows
            if arrow.source == end
            if not (product := x.map(arrow) * path).is_zero()
        }
    return not live
