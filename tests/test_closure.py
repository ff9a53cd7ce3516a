"""The spinning invariant closure against the rank-per-vector oracle, and the
work it does: each (arrow, vector) pair is pushed once."""

import random
from fractions import Fraction

import pytest

from e2quiver.linalg import Matrix
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


def test_closure_counts_each_arrow_vector_pair_once(young_points, monkeypatch):
    applied = []
    original = Matrix.apply

    def counting_apply(self, v):
        applied.append(self)
        return original(self, v)

    monkeypatch.setattr(Matrix, "apply", counting_apply)
    for _, conjugate, remarked in young_points[::5]:
        for point in (conjugate, remarked):
            rep = point.rep
            applied.clear()
            closure = invariant_closure(rep, _framing_seed(point))
            bound = sum(closure[arrow.source].cols for arrow in double_arrows(rep.window))
            assert len(applied) <= bound


def test_closure_skips_arrows_into_a_full_weight_space(young_points, monkeypatch):
    applied = []
    original = Matrix.apply

    def counting_apply(self, v):
        applied.append(self)
        return original(self, v)

    monkeypatch.setattr(Matrix, "apply", counting_apply)
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
        applied.clear()
        invariant_closure(rep, seed)
        into_k = [rep.map(arrow) for arrow in double_arrows(rep.window) if arrow.target == k]
        assert into_k and not any(m is a for m in into_k for a in applied)
        checked += 1
    assert checked > 50
