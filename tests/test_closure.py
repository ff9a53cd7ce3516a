"""The spinning invariant closure against the rank-per-vector oracle, and the
work it does: each (arrow, vector) pair is pushed once, which the tests
count as the rows offered to the closure's echelons."""

import random
from fractions import Fraction

import pytest

from e2quiver import moduli
from e2quiver.euclid import to_quiver
from e2quiver.linalg import Echelon, Matrix
from e2quiver.moduli import (
    FramedPoint,
    apply_gv_framed,
    framed_point,
    invariant_closure,
    is_stable,
    partitions_up_to,
    young_module,
)
from e2quiver.preproj import apply_gv, direct_sum, random_gv
from e2quiver.quiver import double_arrows

import rank_closure
from test_integer_kernels import fractional_gv

ANCHORS = (-2, 0, 3)


def _framing_seed(p: FramedPoint) -> dict:
    """The seed that is_stable closes: the framing columns per weight."""
    return {
        k: [p.framing_map(k).col(j) for j in range(p.framing_map(k).cols)]
        for k in p.rep.window.vertices()
    }


def _assert_same_closure(rep, seed) -> dict:
    new = invariant_closure(rep, seed)
    old = rank_closure.invariant_closure(rep, seed)
    assert list(new.items()) == list(old.items())
    assert [m.to_lists() for m in new.values()] == [m.to_lists() for m in old.values()]
    return new


@pytest.fixture(scope="module")
def young_points():
    """Young framed points with at most 8 boxes at three anchors, each with
    a random_gv conjugate and an unstable re-marked copy whose framing
    vector has no corner-box component."""
    rng = random.Random(12)
    out = []
    for a in ANCHORS:
        for p in partitions_up_to(8):
            base = framed_point(young_module(p, a))
            conjugate = apply_gv_framed(base, random_gv(base.rep, rng))
            column = [0] + [rng.randint(-2, 2) for _ in range(base.rep.dim(a) - 1)]
            remarked = FramedPoint(base.rep, base.framing_dims, {a: Matrix.from_columns([column])})
            out.append((base, conjugate, remarked))
    return out


def test_closure_matches_oracle_on_young_points(young_points):
    assert len(young_points) == 3 * 66
    for base, conjugate, remarked in young_points:
        for point in (base, conjugate):
            closure = _assert_same_closure(point.rep, _framing_seed(point))
            assert all(closure[v].cols == point.rep.dim(v) for v in point.rep.window.vertices())
            assert is_stable(point)
        closure = _assert_same_closure(remarked.rep, _framing_seed(remarked))
        assert any(closure[v].cols < remarked.rep.dim(v) for v in remarked.rep.window.vertices())
        assert not is_stable(remarked)


def _awkward_seed(rep, rng, kinds: set) -> dict:
    """Per weight: no entry, an empty list, or up to four vectors among
    zero vectors, random ones, repeats and combinations of earlier ones.
    The kinds drawn are added to kinds."""
    seed = {}
    for k in rep.window.vertices():
        n = rep.dim(k)
        draw = rng.randrange(4)
        if draw == 0:
            continue
        vectors = []
        for _ in range(rng.randint(1, 4) if draw > 1 else 0):
            pick = rng.randrange(4)
            if pick == 0 or n == 0:
                kinds.add("zero")
                vectors.append([0] * n)
            elif pick == 1 or not vectors:
                kinds.add("random")
                vectors.append([Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)])
            elif pick == 2:
                kinds.add("repeat")
                vectors.append(list(rng.choice(vectors)))
            else:
                kinds.add("combination")
                u, w = rng.choice(vectors), rng.choice(vectors)
                s, t = Fraction(rng.randint(-3, 3), 2), rng.randint(-2, 2)
                vectors.append([s * a + t * b for a, b in zip(u, w)])
        if not vectors:
            kinds.add("empty")
        seed[k] = vectors
    return seed


def test_closure_matches_oracle_on_conjugated_thin_sums(thin16):
    rng = random.Random(5)
    kinds = set()
    for _ in range(100):
        rep = direct_sum(rng.choice(thin16), rng.choice(thin16))
        rep = apply_gv(rep, random_gv(rep, rng))
        _assert_same_closure(rep, _awkward_seed(rep, rng, kinds))
    assert kinds == {"empty", "zero", "random", "repeat", "combination"}


def test_closure_matches_oracle_on_fractional_hidden_sums(thin16, young_corpus):
    """Arrow maps with denominators: the integer spin's images carry the
    product of the map's and the vector's denominators."""
    rng = random.Random(7)
    kinds = set()
    young = [to_quiver(gs.module) for _, gs in young_corpus[3:29:5]]
    sums = [direct_sum(rng.choice(thin16), rng.choice(thin16)) for _ in range(30)] + [direct_sum(y, y) for y in young]
    hidden = [apply_gv(rep, fractional_gv(rep, rng)) for rep in sums]
    for rep in hidden:
        _assert_same_closure(rep, _awkward_seed(rep, rng, kinds))
    assert all(any(e.denominator > 1 for m in rep.maps.values() for e in m.entries()) for rep in hidden)
    assert kinds == {"empty", "zero", "random", "repeat", "combination"}


def _count_offers(monkeypatch) -> list:
    """The echelons that invariant_closure makes from now on, one per
    vertex in vertex order, each counting the rows offered to it: one per
    seed vector and one per (arrow, vector) pair pushed."""
    made = []

    class CountingEchelon(Echelon):
        def __init__(self):
            super().__init__()
            self.offered = 0
            made.append(self)

        def add(self, row):
            self.offered += 1
            return super().add(row)

    monkeypatch.setattr(moduli, "Echelon", CountingEchelon)
    return made


def test_closure_holds_where_shorter_rows_take_over_pivots(young_points, thin16, monkeypatch):
    """A shorter row displaces a kept pivot row in some of these spins; the
    closure and the stability verdict are still the oracle's."""
    displaced = []

    class DisplacementCounting(Echelon):
        def add(self, row):
            before = self.form()[0]
            kept = super().add(row)
            displaced.extend(r for r in before if all(r is not s for s in self.form()[0]))
            return kept

    monkeypatch.setattr(moduli, "Echelon", DisplacementCounting)
    rng = random.Random(5)
    sums = [direct_sum(rng.choice(thin16), rng.choice(thin16)) for _ in range(30)]
    for rep in [apply_gv(rep, random_gv(rep, rng)) for rep in sums]:
        _assert_same_closure(rep, _awkward_seed(rep, rng, set()))
    for base, conjugate, remarked in young_points:
        for point, stable in ((base, True), (conjugate, True), (remarked, False)):
            _assert_same_closure(point.rep, _framing_seed(point))
            assert is_stable(point) == stable
    assert displaced


def test_closure_counts_each_arrow_vector_pair_once(young_points, monkeypatch):
    made = _count_offers(monkeypatch)
    total = 0
    for _, conjugate, remarked in young_points[::5]:
        for point in (conjugate, remarked):
            rep = point.rep
            seed = _framing_seed(point)
            made.clear()
            closure = invariant_closure(rep, seed)
            pushed = sum(e.offered for e in made) - sum(len(vectors) for vectors in seed.values())
            bound = sum(closure[arrow.source].cols for arrow in double_arrows(rep.window))
            assert pushed <= bound
            total += pushed
    assert total > 0


def test_closure_skips_arrows_into_a_full_weight_space(young_points, monkeypatch):
    made = _count_offers(monkeypatch)
    checked = 0
    for base, _, _ in young_points:
        rep = base.rep
        # the whole weight space at the busiest vertex, as unit vectors
        k = max(rep.window.vertices(), key=rep.dim)
        n = rep.dim(k)
        if n < 2 or not (rep.window.contains(k - 1) or rep.window.contains(k + 1)):
            continue
        seed = _framing_seed(base)
        seed[k] = [[int(i == j) for i in range(n)] for j in range(n)]
        made.clear()
        invariant_closure(rep, seed)
        # nothing is pushed into k: its echelon sees only the seed vectors
        assert any(arrow.target == k for arrow in double_arrows(rep.window))
        assert made[list(rep.window.vertices()).index(k)].offered == n
        checked += 1
    assert checked > 50
