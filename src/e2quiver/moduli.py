"""Framed representations, stability, and the Young-diagram constructions.

A framed point is a nilpotent relation-satisfying representation together
with framing maps from auxiliary multiplicity spaces; it models a module
with a marked generating set of weight vectors.  Only the relations are
checked: on a finite window they imply nilpotency, because the
preprojective algebra of a finite type-A quiver is finite-dimensional, so
every long enough path is zero in it (Lusztig 1991).  Stability (no proper
invariant graded subspace contains the framing image) is exactly the
statement that the marked vectors generate, tested by spinning them in
Python ints.  Stable points have trivial stabilizer under the base-change
group, which makes framed equivalence testing deterministic.

Young diagrams enter through the single-generator modules: boxes are basis
vectors, the weight of a box is its anchor plus its residue (column minus
row), raising moves one column right and lowering one row down.  The
residue profile of a diagram determines it uniquely given the anchor,
which is what the greedy peeling in ``single_generator_check`` inverts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .euclid import EuclideanModule, to_quiver
# rank is unused here, but bench/test_bench.py checks that its tracer rewraps moduli.rank
from .linalg import Echelon, IntVector, Matrix, SparseRow, Vector, _augment, cut, frac, rank, scale_to_ints, sparse_affine_solve, vector
from .preproj import (
    GradedMap,
    QuiverRep,
    _attempts,
    _HomLayout,
    apply_gv,
    check_relations,
)
from .quiver import Arrow, DimensionVector, Frozen, Window, check_size, double_arrows, json_fields, json_weight_object


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the empty partition is allowed."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"partition part {cut(p)} is not positive")
            if i > 0 and p > self.parts[i - 1]:
                raise ValueError(f"parts not weakly decreasing: {cut(self.parts)}")

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def boxes(self) -> Iterator[tuple[int, int]]:
        """Boxes (column i, row j), 1-indexed, row by row."""
        for j, row_len in enumerate(self.parts, start=1):
            for i in range(1, row_len + 1):
                yield (i, j)

    def has_box(self, i: int, j: int) -> bool:
        return 1 <= j <= len(self.parts) and 1 <= i <= self.parts[j - 1]

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, largest first part first."""
    if n == 0:
        yield Partition(())
        return

    def gen(remaining: int, limit: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(limit, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n, ())


def partitions_up_to(n: int) -> list[Partition]:
    """All nonempty partitions of 1..n."""
    out: list[Partition] = []
    for size in range(1, n + 1):
        out.extend(partitions(size))
    return out


def residue_dim_vector(p: Partition, a: int) -> DimensionVector:
    """Weight multiplicities of the single-generator module: the box in
    column i, row j has residue i - j and contributes at weight a + i - j."""
    return DimensionVector((a + i - j, 1) for i, j in p.boxes())


@dataclass
class GeneratorSet:
    """A module with a marked generating set of weight vectors."""

    module: EuclideanModule
    generators: list[tuple[int, Vector]]

    def framing_dims(self) -> DimensionVector:
        return DimensionVector((k, 1) for k, _ in self.generators)

    def generates(self) -> bool:
        """Whether the marked vectors generate the module: exactly the
        stability of the associated framed point."""
        return is_stable(framed_point(self))


def young_module(p: Partition, a: int) -> GeneratorSet:
    """The single-generator module of a Young diagram, anchored at weight a.

    Basis vectors are the boxes; raising sends a box one column right,
    lowering one row down, and absent boxes go to zero.  Within one weight
    space the boxes are ordered by row.  The generator is the corner box, a
    weight vector of weight a.
    """
    if not p.parts:
        raise ValueError("empty partition has no generator")
    by_weight: dict[int, list[tuple[int, int]]] = {}
    for i, j in p.boxes():
        by_weight.setdefault(a + i - j, []).append((i, j))
    index: dict[tuple[int, int], tuple[int, int]] = {}
    for w, boxes in by_weight.items():
        boxes.sort(key=lambda box: box[1])
        for pos, box in enumerate(boxes):
            index[box] = (w, pos)
    dims = DimensionVector({w: len(boxes) for w, boxes in by_weight.items()})

    def action(di: int, dj: int) -> dict[int, Matrix]:
        step = di - dj  # weight change: +1 for raising, -1 for lowering
        out: dict[int, Matrix] = {}
        for w, boxes in by_weight.items():
            entries = {}
            for pos, (i, j) in enumerate(boxes):
                if p.has_box(i + di, j + dj):
                    _, tpos = index[(i + di, j + dj)]
                    entries[(tpos, pos)] = 1
            rows_data = [
                [entries.get((r, c), 0) for c in range(dims[w])]
                for r in range(dims[w + step])
            ]
            out[w] = Matrix.from_rows(rows_data, cols=dims[w])
        return out

    module = EuclideanModule(dims, action(1, 0), action(0, 1))
    gen_weight, gen_pos = index[(1, 1)]
    coords = vector(int(t == gen_pos) for t in range(dims[gen_weight]))
    return GeneratorSet(module, [(gen_weight, coords)])


class FramedPoint(Frozen):
    """A nilpotent relation-satisfying representation with framing maps.

    framing[i] has shape dims(i) x framing_dims(i); zero-shape framings are
    implied.  The relations are enforced here, and they make the
    representation nilpotent (see the module docstring), so every framed
    point lives in the nilpotent variety without a nilpotency test.  No
    constructor bypasses the check; on a to_quiver image it is a cached
    read.  The value is immutable, and framing is a read-only mapping.
    """

    __slots__ = ("rep", "framing_dims", "framing")

    def __init__(
        self,
        rep: QuiverRep,
        framing_dims: DimensionVector,
        framing: Mapping[int, Matrix] | None = None,
    ):
        violated = check_relations(rep)
        if violated:
            raise ValueError(f"relations violated at vertices {violated}")
        given = dict(framing) if framing else {}
        canonical: dict[int, Matrix] = {}
        keys = set(given) | set(framing_dims.support())
        for k in keys:
            expected = (rep.dims[k], framing_dims[k])
            m = given.get(k, Matrix.zero(*expected))
            if m.shape != expected:
                raise ValueError(f"framing at weight {cut(k)} has shape {m.shape}, expected {expected}")
            if m.rows > 0 and m.cols > 0:
                canonical[k] = m
        self._set(rep=rep, framing_dims=framing_dims, framing=canonical)

    def framing_map(self, k: int) -> Matrix:
        return self.framing.get(k, Matrix.zero(self.rep.dims[k], self.framing_dims[k]))

    def __repr__(self) -> str:
        return f"FramedPoint(dims={self.rep.dims.to_json_dict()}, framing_dims={self.framing_dims.to_json_dict()})"

    def to_json_dict(self) -> dict:
        doc = self.rep.to_json_dict()
        doc["framing_dims"] = self.framing_dims.to_json_dict()
        doc["framing"] = {str(k): m.to_lists() for k, m in sorted(self.framing.items())}
        return doc

    @classmethod
    def from_json_dict(cls, data: object) -> "FramedPoint":
        data = json_fields(data, "framed point", QuiverRep.JSON_KEYS + ("framing_dims", "framing"))
        rep = QuiverRep.from_json_dict({k: v for k, v in data.items() if k in QuiverRep.JSON_KEYS})
        framing_dims = DimensionVector.from_json_dict(data.get("framing_dims", {}))
        unknowns = sum(d * d for v in (rep.dims, framing_dims) for _, d in v.items())
        check_size("sum of squared dimensions", unknowns)
        framing = {k: Matrix.from_lists(m) for k, m in json_weight_object(data.get("framing", {}), "framing").items()}
        return cls(rep, framing_dims, framing)


def framed_point(gs: GeneratorSet) -> FramedPoint:
    """The framed point of a generator set: one framing column per marked
    vector, grouped by weight in listing order."""
    rep = to_quiver(gs.module)
    framing_dims = gs.framing_dims()
    columns: dict[int, list[Vector]] = {}
    for k, coords in gs.generators:
        if len(coords) != gs.module.dims[k]:
            raise ValueError(f"generator at weight {k} has wrong length")
        columns.setdefault(k, []).append(coords)
    framing = {
        k: Matrix.from_columns(cols, rows=gs.module.dims[k]) for k, cols in columns.items()
    }
    return FramedPoint(rep, framing_dims, framing)


def _spin(x: QuiverRep, seed: Iterable[tuple[int, IntVector]]) -> dict[int, list[IntVector]]:
    """invariant_closure's basis per vertex for the seed vectors (weight,
    vector) in order, each vector as integers over a denominator."""
    basis: dict[int, list[IntVector]] = {v: [] for v in x.window.vertices()}
    echelons = {v: Echelon() for v in basis}

    def try_add(vertex: int, ints: Sequence[int], den: int) -> bool:
        kept = echelons[vertex].add({j: c for j, c in enumerate(ints) if c})
        if kept:
            basis[vertex].append((ints, den))
        return kept

    for k, (ints, den) in seed:
        try_add(k, ints, den)

    # the nonzero arrow maps as integer rows over a denominator, and how many source vectors each pushed
    arrows = []
    for arrow in double_arrows(x.window):
        if (m := x.map(arrow)).rows and m.cols:
            ints, den = m.ints()
            arrows.append((arrow, [ints[r * m.cols : (r + 1) * m.cols] for r in range(m.rows)], den))
    pushed = [0] * len(arrows)
    changed = True
    while changed:
        changed = False
        for i, (arrow, rows, d) in enumerate(arrows):
            source = basis[arrow.source]
            start, pushed[i] = pushed[i], len(source)
            if len(basis[arrow.target]) == x.dim(arrow.target):
                continue
            for vec, vec_den in source[start : pushed[i]]:
                image, den = [sum(map(mul, row, vec)) for row in rows], vec_den * d
                if den > 1 and (g := gcd(den, *image)) > 1:
                    image, den = [c // g for c in image], den // g
                if try_add(arrow.target, image, den):
                    changed = True
    return basis


def invariant_closure(
    x: QuiverRep, seed: Mapping[int, Sequence[Sequence]] | Mapping[int, Sequence[Vector]]
) -> dict[int, Matrix]:
    """Smallest invariant graded subspace containing the seed vectors.

    Spinning: the seed vectors that are independent start a column basis
    per weight, and each arrow pushes every basis vector at its source
    through its map once, keeping the independent images.  An arrow keeps a
    cursor into its source's basis, so each (arrow, vector) pair is tried
    once, and an arrow into a full weight space is skipped.  The spin runs
    on Python ints: arrow maps and basis vectors are integers over a
    denominator, and membership is tested by fraction-free echelon
    (``Echelon``).  The result is deterministic: vectors are appended in
    arrow order, pass after pass, and never rewritten.
    """
    vectors = []
    for k, raw_vectors in seed.items():
        k = int(k)
        if not x.window.contains(k):
            raise ValueError(f"seed weight {k} outside window")
        for raw in raw_vectors:
            vec = [frac(c) for c in raw]
            if len(vec) != x.dim(k):
                raise ValueError(f"seed vector at weight {k} has wrong length")
            vectors.append((k, scale_to_ints(vec)))
    return {v: Matrix._of_columns(x.dim(v), cols) for v, cols in _spin(x, vectors).items()}


def is_stable(p: FramedPoint) -> bool:
    """Whether the only invariant graded subspace containing the framing
    image is the whole space; equivalently, the framing columns generate."""
    seed = [(k, (ints[j :: s.cols], d)) for k, s in p.framing.items() for ints, d in [s.ints()] for j in range(s.cols)]
    return all(len(cols) == p.rep.dim(v) for v, cols in _spin(p.rep, seed).items())


def _framed_system(p: FramedPoint, q: FramedPoint) -> tuple[_HomLayout, list[SparseRow], list[int]]:
    """The combined linear system g x = x' g, g s = s' on the coordinates of
    _HomLayout(p.rep, q.rep), in integers: its layout, rows and right-hand
    side, each equation of g s = s' (s = S / d, s' = S' / d') as g S d' = S' d."""
    if p.framing_dims != q.framing_dims:
        raise ValueError("framing dimension vectors differ")
    layout = _HomLayout(p.rep, q.rep)
    rows = layout.intertwiner_rows()
    rhs = [0] * len(rows)
    for k in sorted(p.framing.keys() | q.framing.keys()):  # elsewhere s = s' = 0 gives no row
        w, n, base = p.framing_dims[k], layout.x.dim(k), layout.offsets[k]
        (s, d), (s2, d2) = p.framing_map(k).ints(), q.framing_map(k).ints()
        for r, c in itertools.product(range(layout.y.dim(k)), range(w)):
            row: SparseRow = {base + r * n + j: a * d2 for j, a in enumerate(s[c::w]) if a}
            if row or s2[r * w + c]:
                rows.append(row)
                rhs.append(s2[r * w + c] * d)
    return layout, rows, rhs


def framed_equivalence_space(
    p: FramedPoint, q: FramedPoint
) -> tuple[GradedMap | None, list[GradedMap]]:
    """Solutions of the combined linear system g x = x' g, g s = s'.

    Returns (particular solution with free coordinates zero, kernel basis of
    the homogeneous system g x = x' g, g s = 0).  The particular solution is
    None when the system is inconsistent.
    """
    layout, rows, rhs = _framed_system(p, q)
    particular, kernel = sparse_affine_solve(rows, rhs, layout.size)
    maps = [layout.unvec(scale_to_ints(v)) for v in kernel]
    return (None if particular is None else layout.unvec(scale_to_ints(particular))), maps


def framed_equivalent(
    p: FramedPoint,
    q: FramedPoint,
    *,
    seed: int = 0,
    trials: int = 20,
    exhaustive: bool = False,
) -> bool:
    """Whether some base change carries (x, s) to (x', s').

    For stable points the solution space of the combined system is at most a
    single point (stable points have trivial stabilizer), so the test is
    deterministic; otherwise it is the isomorphism test's search for an
    invertible element, over the affine solution space.
    """
    if p.rep.dims != q.rep.dims or p.framing_dims != q.framing_dims:
        return False
    layout, rows, rhs = _framed_system(p, q)
    echelon, pivots = Echelon(_augment(rows, layout.size, ((v,) for v in rhs))).form()
    if pivots and pivots[-1] == layout.size:  # a pivot in the right-hand side: inconsistent
        return False
    return any(_attempts(layout, echelon, pivots, affine=True, seed=seed, trials=trials, exhaustive=exhaustive))


def apply_gv_framed(p: FramedPoint, g: GradedMap) -> FramedPoint:
    """Base-change action on framed points: (g . x, (g_i s_i))."""
    rep = apply_gv(p.rep, g)
    framing = {k: g[k] * s for k, s in p.framing.items()}
    return FramedPoint(rep, p.framing_dims, framing)


def nakajima_dim(v: DimensionVector, w: DimensionVector) -> int:
    """The dimension formula sum_i (v_i w_i - v_i^2 + v_i v_{i+1}).

    The value may be negative; a negative value (or the absence of stable
    points) means the corresponding variety is empty.  This only evaluates
    the formula.
    """
    return sum(v[i] * (w[i] - v[i] + v[i + 1]) for i in v.support())


# A thin enumeration walks one choice of maps per arrow pair, 2^width choices
# for the indecomposables and 3^width for the decomposables; windows with more
# choices than this are refused.  On a 2-vCPU Xeon host
# `enumerate-thin --window 0 12` prints its 4096 documents (7 MB) in 3 s.
_THIN_LIMIT = 2**12


def _thin_choices(window: Window, options: tuple[int, ...]):
    # the width is compared first, so a huge one never builds the power
    if window.width > _THIN_LIMIT or len(options) ** window.width > _THIN_LIMIT:
        raise ValueError(
            f"window [{cut(window.a)}, {cut(window.b)}] has {len(options)}^{cut(window.width)} thin choices, "
            f"over the limit of {_THIN_LIMIT}"
        )
    return itertools.product(options, repeat=window.width)


def _thin_rep(window: Window, choice: Sequence[int]) -> QuiverRep:
    """The thin representation with, per arrow pair in order, the forward map
    (0), the reversed map (1) or neither (2) equal to 1."""
    maps = {}
    for c, i in zip(choice, window.arrow_indices()):
        if c < 2:
            maps[Arrow(i, reverse=c == 1).name] = Matrix.from_rows([[1]])
    return QuiverRep(window, DimensionVector({v: 1 for v in window.vertices()}), maps)


def enumerate_thin_indecomposables(window: Window) -> list[QuiverRep]:
    """One representative per orbit of indecomposable relation-satisfying
    points with every weight space one-dimensional on the window.

    The relations force the composite through each vertex to vanish, which
    cascades from the left end, so for every arrow pair exactly one of the
    two maps is nonzero; the torus normalizes it to 1, and indecomposability
    rules out both maps vanishing.  That leaves 2^width choices, enumerated
    with the forward choice first at each arrow, the first arrow changing
    fastest (ascending bitmask order).
    """
    return [_thin_rep(window, choice[::-1]) for choice in _thin_choices(window, (0, 1))]


def enumerate_thin_decomposables(window: Window) -> list[QuiverRep]:
    """The remaining thin relation-satisfying choices: at least one arrow
    pair has both maps zero, which disconnects the support, so all of these
    are decomposable.  Useful as splitting fodder."""
    return [_thin_rep(window, choice) for choice in _thin_choices(window, (0, 1, 2)) if 2 in choice]


def single_generator_check(v: DimensionVector, a: int) -> Partition | None:
    """Invert the residue profile: the partition with residue counts v
    anchored at a, or None when no Young diagram fits.

    Greedy peeling: the top row must cover residues 0..max, peeling it and
    shifting the remaining counts up by one turns the rest into the profile
    of the diagram without its first row.  The reconstructed row lengths
    must come out weakly decreasing.
    """
    counts = {k - a: v[k] for k in v.support()}
    rows: list[int] = []
    while counts:
        top = max(counts)
        if top < 0:
            return None
        for r in range(top + 1):
            c = counts.get(r, 0) - 1
            if c < 0:
                return None
            if c == 0:
                counts.pop(r, None)
            else:
                counts[r] = c
        rows.append(top + 1)
        counts = {r + 1: c for r, c in counts.items()}
    for i in range(len(rows) - 1):
        if rows[i] < rows[i + 1]:
            return None
    candidate = Partition(tuple(rows))
    if residue_dim_vector(candidate, a) != v:
        return None
    return candidate
