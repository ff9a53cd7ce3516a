"""The invariant closure that moduli.invariant_closure replaced, kept as a
test oracle.

Every pass pushes every basis vector through every arrow again, and each
membership test is the rank of all current columns plus the new one.  The
code is the former package code, unchanged.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from e2quiver.linalg import Matrix, Vector, frac, rank
from e2quiver.preproj import QuiverRep
from e2quiver.quiver import double_arrows


def invariant_closure(
    x: QuiverRep, seed: Mapping[int, Sequence[Sequence]] | Mapping[int, Sequence[Vector]]
) -> dict[int, Matrix]:
    """Smallest invariant graded subspace containing the seed vectors.

    Images under all arrow maps are added until the dimensions stabilize;
    the result is a column basis per weight (deterministic: vectors are
    appended in arrow order and never rewritten).
    """
    basis_cols: dict[int, list[Vector]] = {v: [] for v in x.window.vertices()}

    def try_add(vertex: int, vec: Vector) -> bool:
        if all(c == 0 for c in vec):
            return False
        current = basis_cols[vertex]
        stacked = Matrix.from_columns(current + [vec], rows=x.dim(vertex))
        if rank(stacked) == len(current) + 1:
            current.append(vec)
            return True
        return False

    for k, vectors in seed.items():
        k = int(k)
        if not x.window.contains(k):
            raise ValueError(f"seed weight {k} outside window")
        for raw in vectors:
            vec = tuple(frac(c) for c in raw)
            if len(vec) != x.dim(k):
                raise ValueError(f"seed vector at weight {k} has wrong length")
            try_add(k, vec)

    changed = True
    while changed:
        changed = False
        for arrow in double_arrows(x.window):
            m = x.map(arrow)
            if m.rows == 0 or m.cols == 0:
                continue
            for vec in list(basis_cols[arrow.source]):
                if try_add(arrow.target, m.apply(vec)):
                    changed = True
    return {
        v: Matrix.from_columns(cols, rows=x.dim(v)) for v, cols in basis_cols.items()
    }
