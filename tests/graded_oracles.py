"""Graded-map helpers that the split used before it read End's kernel
coordinates directly, kept as oracles for the tests.

``_combination`` forms sum c_i basis_i over ``Fraction`` from graded maps,
and ``_scaled_blocks`` scales a square graded map to the integer blocks of
D g.  The reference searches of ``test_find_invertible`` form their
candidates with the first, and the integer checks of the split and of the
Bareiss invertibility test read blocks with the second.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from e2quiver.linalg import Matrix, frac, scale_to_ints
from e2quiver.preproj import GradedMap

_ZERO = Fraction(0)


def _combination(basis: list[GradedMap], coeffs: Sequence[Fraction | int]) -> GradedMap:
    """sum c_i basis_i, accumulated in one pass over each vertex's entries."""
    terms = [(frac(c), g) for c, g in zip(coeffs, basis) if c]
    out = {}
    for v, m in basis[0].items():
        acc = [_ZERO] * (m.rows * m.cols)
        for c, g in terms:
            for r in range(m.rows):
                base = r * m.cols
                for k, a in enumerate(g[v].row(r)):
                    if a:
                        acc[base + k] += c * a
        out[v] = Matrix(m.rows, m.cols, acc)
    return out


def _scaled_blocks(g: GradedMap) -> list[list[list[int]]]:
    """The nonempty blocks of D g, a square graded map, in vertex order as
    integer rows, with D the lcm of the denominators of all of g's entries."""
    sizes = [m.rows for m in g.values() if m.rows]
    entries = iter(scale_to_ints(a for m in g.values() for a in m.entries())[0])
    return [[list(itertools.islice(entries, k)) for _ in range(k)] for k in sizes]
