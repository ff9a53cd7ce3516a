"""The arrow-rank fingerprint that preproj.is_isomorphic compared before it
ranked each arrow map by Bareiss elimination and stopped at the first
arrow whose ranks differ, kept as a test oracle.

It ranks every map of one side with the sparse elimination core
(``linalg.rank``) and returns the nonzero ranks as a dict, so two sides
agree when their dicts are equal.  The code is the former package code,
unchanged.
"""

from __future__ import annotations

from e2quiver.linalg import rank
from e2quiver.preproj import QuiverRep


def _arrow_ranks(x: QuiverRep) -> dict[str, int]:
    """The nonzero ranks of the arrow maps, by arrow name: a base change
    keeps rank(g_t x_a g_s^-1) = rank(x_a), so isomorphic representations
    agree on it whatever their windows."""
    return {name: r for name, m in x.maps.items() if (r := rank(m))}
