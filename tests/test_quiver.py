import pytest

from e2quiver.euclid import EuclideanModule
from e2quiver.moduli import GeneratorSet
from e2quiver.quiver import (
    Arrow,
    DimensionVector,
    Window,
    double_arrows,
    window_of_support,
)

from relation_oracle import gp_relation


def test_dimension_vector_basics():
    v = DimensionVector({0: 1, 2: 3, 5: 0})
    assert v[0] == 1 and v[2] == 3
    assert v[5] == 0 and v[100] == 0
    assert v.support() == (0, 2)
    assert v.total() == 4
    assert v + DimensionVector.unit(0) == DimensionVector({0: 2, 2: 3})
    assert v.shift(2).support() == (2, 4)


def test_dimension_vector_sums_repeated_weights():
    # residue_dim_vector, GeneratorSet.framing_dims and __add__ hand the
    # constructor (weight, multiplicity) pairs and leave the counting to it
    assert DimensionVector([(0, 1), (2, 1), (0, 2)]) == DimensionVector({0: 3, 2: 1})
    assert DimensionVector((k % 2, 1) for k in range(5)) == DimensionVector({0: 3, 1: 2})
    assert DimensionVector({0: 1, 1: 2}) + DimensionVector({1: 3, 4: 1}) == DimensionVector({0: 1, 1: 5, 4: 1})
    module = EuclideanModule(DimensionVector({0: 2}))
    gs = GeneratorSet(module, [(0, (1, 0)), (0, (0, 1))])
    assert gs.framing_dims() == DimensionVector({0: 2})


def test_dimension_vector_rejects_negative():
    with pytest.raises(ValueError):
        DimensionVector({0: -1})


def test_dimension_vector_json():
    v = DimensionVector({-1: 1, 0: 2})
    assert v.to_json_dict() == {"-1": 1, "0": 2}
    assert DimensionVector.from_json_dict({"-1": 1, "0": 2}) == v


def test_window_of_support():
    assert window_of_support(DimensionVector.unit(0)) == Window(0, 0)
    assert window_of_support(DimensionVector({-1: 1, 0: 1, 1: 1})) == Window(-1, 1)
    # interior vertices with zero multiplicity are part of the window
    assert window_of_support(DimensionVector({2: 1, 5: 1})) == Window(2, 5)


def test_window_of_support_zero_vector():
    with pytest.raises(ValueError):
        window_of_support(DimensionVector())


def test_double_arrows_single_vertex():
    assert double_arrows(Window(0, 0)) == []


def test_double_arrows_order():
    arrows = double_arrows(Window(0, 1))
    assert [a.name for a in arrows] == ["h0", "hbar0"]
    assert len(double_arrows(Window(0, 4))) == 8


def test_arrow_endpoints():
    h = Arrow(3)
    assert (h.source, h.target) == (3, 4)
    hbar = Arrow(3, reverse=True)
    assert (hbar.source, hbar.target) == (4, 3)
    assert (h.name, Arrow(-2, reverse=True).name) == ("h3", "hbar-2")


def test_gp_relation_left_end():
    r = gp_relation(Window(0, 4), 0)
    assert r.positive == ((Arrow(0), Arrow(0, reverse=True)),)
    assert r.negative == ()


def test_gp_relation_interior():
    r = gp_relation(Window(0, 4), 2)
    assert r.positive == ((Arrow(2), Arrow(2, reverse=True)),)
    assert r.negative == ((Arrow(1, reverse=True), Arrow(1)),)


def test_gp_relation_right_end_and_trivial():
    r = gp_relation(Window(0, 4), 4)
    assert r.positive == ()
    assert r.negative == ((Arrow(3, reverse=True), Arrow(3)),)
    trivial = gp_relation(Window(0, 0), 0)
    assert trivial.positive == () and trivial.negative == ()


def test_gp_relation_outside_window():
    with pytest.raises(ValueError):
        gp_relation(Window(0, 2), 3)


def test_relation_terms_cover_each_composable_pair_once():
    # summing r_i over the window, every composable (h, hbar) pair at one
    # vertex appears exactly once positively and once negatively
    w = Window(-2, 3)
    positives = []
    negatives = []
    for i in w.vertices():
        r = gp_relation(w, i)
        positives.extend(r.positive)
        negatives.extend(r.negative)
    assert len(positives) == len(set(positives)) == w.width
    assert len(negatives) == len(set(negatives)) == w.width
    # the same unordered pairs occur on both sides, with swapped order
    assert {(a.index, b.index) for a, b in positives} == {
        (a.index, b.index) for a, b in negatives
    }
