"""The arrow-rank fingerprint that preproj.is_isomorphic compared before it
ranked each arrow map by Bareiss elimination and stopped at the first
arrow whose ranks differ, kept as a test oracle.

It ranks every map of one side and returns the nonzero ranks as a dict, so
two sides agree when their dicts are equal.  The code is the former
package code, except that it ranks with the sparse elimination core
(``linalg.sparse_rank``, ``Echelon``), not with ``linalg.rank``, which is
now the Bareiss code this oracle checks.
"""

from __future__ import annotations

from e2quiver.linalg import Matrix, sparse_rank
from e2quiver.preproj import QuiverRep


def _sparse_rank(m: Matrix) -> int:
    """The rank of m by the sparse core, on its rows of Fractions."""
    return sparse_rank([{j: v for j, v in enumerate(m.row(i)) if v} for i in range(m.rows)], m.cols)


def _arrow_ranks(x: QuiverRep) -> dict[str, int]:
    """The nonzero ranks of the arrow maps, by arrow name: a base change
    keeps rank(g_t x_a g_s^-1) = rank(x_a), so isomorphic representations
    agree on it whatever their windows."""
    return {name: r for name, m in x.maps.items() if (r := _sparse_rank(m))}
