"""Independent Hom computations that the tests compare with preproj.hom_basis.

module_side_hom_dimension solves the intertwiner equations straight from the
raising and lowering matrices of two Euclidean modules, with its own index
layout.  crawley_boevey_count reads dim Hom(Y, X) off the linearized
preprojective relations (Crawley-Boevey, "On the exceptional fibres of
Kleinian singularities", Amer. J. Math. 122 (2000), Lemma 1), a system that
shares nothing with the intertwiner rows.
"""

from fractions import Fraction

from e2quiver.euclid import EuclideanModule
from e2quiver.linalg import Matrix, SparseRow, rank, sparse_kernel
from e2quiver.preproj import QuiverRep
from e2quiver.quiver import double_arrows

from relation_oracle import gp_relation

_ZERO = Fraction(0)


def module_side_hom_dimension(m: EuclideanModule, m2: EuclideanModule) -> int:
    """Dimension of the space of grading-preserving maps commuting with the
    raising and lowering actions.

    This is assembled directly from the module data, independently of the
    quiver-side intertwiner computation, so the two sides of the dictionary
    can be compared against each other.
    """
    weights = sorted(set(m.dims.support()) | set(m2.dims.support()))
    offsets = {}
    pos = 0
    for k in weights:
        offsets[k] = pos
        pos += m2.dims[k] * m.dims[k]
    rows: list[SparseRow] = []

    def block_index(k: int, r: int, c: int) -> int:
        return offsets[k] + r * m.dims[k] + c

    for k in weights:
        # g_{k+1} p_plus^k = p_plus'^k g_k
        a, b = m.plus(k), m2.plus(k)
        for r in range(m2.dims[k + 1]):
            for c in range(m.dims[k]):
                row: SparseRow = {}
                for j in range(m.dims[k + 1]):
                    if a[j, c] != 0 and (k + 1) in offsets:
                        idx = block_index(k + 1, r, j)
                        row[idx] = row.get(idx, _ZERO) + a[j, c]
                for j in range(m2.dims[k]):
                    if b[r, j] != 0:
                        idx = block_index(k, j, c)
                        row[idx] = row.get(idx, _ZERO) - b[r, j]
                row = {i: val for i, val in row.items() if val != 0}
                if row:
                    rows.append(row)
        # g_{k-1} p_minus^k = p_minus'^k g_k
        a, b = m.minus(k), m2.minus(k)
        for r in range(m2.dims[k - 1]):
            for c in range(m.dims[k]):
                row = {}
                for j in range(m.dims[k - 1]):
                    if a[j, c] != 0 and (k - 1) in offsets:
                        idx = block_index(k - 1, r, j)
                        row[idx] = row.get(idx, _ZERO) + a[j, c]
                for j in range(m2.dims[k]):
                    if b[r, j] != 0:
                        idx = block_index(k, j, c)
                        row[idx] = row.get(idx, _ZERO) - b[r, j]
                row = {i: val for i, val in row.items() if val != 0}
                if row:
                    rows.append(row)
    return len(sparse_kernel(rows, pos))


def crawley_boevey_count(x: QuiverRep, y: QuiverRep) -> int:
    """sum_i x_i y_i - rank d1, which the exact sequence equates with dim Hom(Y, X).

    d1 is the linearization of the Gelfand-Ponomarev relations: it sends a
    family (phi_a : X_s(a) -> Y_t(a)) over the double arrows to, at each
    vertex i, the signed sum over the paths (first, second) of r_i of
    y_second phi_first + phi_second x_first.
    """
    window = x.window.union(y.window)
    x, y = x.embed(window), y.embed(window)
    # phi_a[r, c] is column col_base[a] + r * x_s(a) + c
    col_base = {}
    ncols = 0
    for a in double_arrows(window):
        col_base[a] = ncols
        ncols += y.dim(a.target) * x.dim(a.source)
    rows = []
    for i in window.vertices():
        term = gp_relation(window, i)
        signed = [(1, path) for path in term.positive] + [(-1, path) for path in term.negative]
        for r in range(y.dim(i)):
            for c in range(x.dim(i)):
                row = [_ZERO] * ncols
                for sign, (first, second) in signed:
                    y_second, x_first = y.map(second), x.map(first)
                    mid = first.target
                    # (y_second phi_first)[r, c] = sum_k y_second[r, k] phi_first[k, c]
                    for k in range(y.dim(mid)):
                        row[col_base[first] + k * x.dim(i) + c] += sign * y_second[r, k]
                    # (phi_second x_first)[r, c] = sum_k phi_second[r, k] x_first[k, c]
                    for k in range(x.dim(mid)):
                        row[col_base[second] + r * x.dim(mid) + k] += sign * x_first[k, c]
                rows.append(row)
    return len(rows) - rank(Matrix.from_rows(rows, cols=ncols))
