import copy
import pickle
import random
from fractions import Fraction

import pytest

from e2quiver.euclid import (
    EuclideanModule,
    apply_word,
    basis_vectors,
    char_shift,
    from_quiver,
    graded_vector,
    hom_dimension,
    proj,
    to_quiver,
    validate,
    weight_runs,
)
from e2quiver.linalg import Matrix
from e2quiver.moduli import Partition, young_module
from e2quiver.preproj import QuiverRep, check_relations, direct_sum, hom_basis, split
from e2quiver.quiver import DimensionVector, Window
from hom_oracles import module_side_hom_dimension
from word_oracle import accumulating_apply_word

ONE = Matrix.from_rows([[1]])


def ladder(p_plus_scalar, p_minus_scalar) -> EuclideanModule:
    """Two weight spaces 0 and 1, both one-dimensional."""
    dims = DimensionVector({0: 1, 1: 1})
    p_plus = {0: Matrix.from_rows([[p_plus_scalar]])}
    p_minus = {1: Matrix.from_rows([[p_minus_scalar]])}
    return EuclideanModule(dims, p_plus, p_minus)


# --- validation -----------------------------------------------------------------


def test_zero_actions_valid():
    m = EuclideanModule(DimensionVector({0: 2, 3: 1}))
    assert validate(m) == []


def test_young_module_valid():
    gs = young_module(Partition.of(2, 1), 0)
    assert validate(gs.module) == []


def test_commutator_violation_detected():
    m = ladder(1, 1)
    problems = validate(m)
    assert any("weight 0" in p for p in problems)


def test_shape_violation_reported_not_thrown():
    m = EuclideanModule(DimensionVector({0: 1}), p_plus={0: Matrix.from_rows([[1, 2]])})
    assert any("shape" in p for p in validate(m))


def test_zero_map_of_wrong_shape_is_kept_and_reported():
    dims = DimensionVector({0: 1, 1: 1})
    m = EuclideanModule(dims, p_plus={0: Matrix.zero(1, 3)})
    assert validate(m) == ["p_plus at weight 0 has shape (1, 3), expected (1, 1)"]
    # a zero map of the right shape is implied, so it is still dropped
    assert EuclideanModule(dims, p_minus={1: Matrix.zero(1, 1)}) == EuclideanModule(dims)


def old_validate(m: EuclideanModule) -> list[str]:
    """validate as it was when it multiplied the maps itself: the shape
    checks, then the commutator on every weight of the support closure."""
    violations = []
    for k, mat in sorted(m.p_plus.items()):
        expected = (m.dims[k + 1], m.dims[k])
        if mat.shape != expected:
            violations.append(f"p_plus at weight {k} has shape {mat.shape}, expected {expected}")
    for k, mat in sorted(m.p_minus.items()):
        expected = (m.dims[k - 1], m.dims[k])
        if mat.shape != expected:
            violations.append(f"p_minus at weight {k} has shape {mat.shape}, expected {expected}")
    if violations:
        return violations
    support = m.dims.support()
    if not support:
        return []
    for k in range(support[0] - 1, support[-1] + 2):
        if m.minus(k + 1) * m.plus(k) != m.plus(k - 1) * m.minus(k):
            violations.append(f"commutator violation at weight {k}")
    return violations


def random_module(rng: random.Random) -> EuclideanModule:
    """Weight spaces of dimension 0-2 on a window of width 0-3, sparse or
    dense maps with entries -1, 0, 1, and now and then a map of the wrong
    shape, so that valid modules, commutator violations and shape
    violations all occur."""
    a = rng.randint(-2, 2)
    dims = DimensionVector({k: rng.randint(0, 2) for k in range(a, a + rng.randint(0, 3) + 1)})
    density = rng.choice((0.15, 0.5))

    def random_map(rows: int, cols: int) -> Matrix:
        if rng.random() < 0.05:
            rows, cols = rows + rng.randint(0, 1), cols + 1
        entries = [rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(rows * cols)]
        return Matrix(rows, cols, entries)

    weights = range(a - 1, a + 5)
    p_plus = {k: random_map(dims[k + 1], dims[k]) for k in weights}
    p_minus = {k: random_map(dims[k - 1], dims[k]) for k in weights}
    return EuclideanModule(dims, p_plus, p_minus)


def test_validate_matches_the_commutator_loop_oracle():
    rng = random.Random(2024)
    kinds = {"valid": 0, "commutator": 0, "shape": 0}
    for _ in range(600):
        m = random_module(rng)
        expected = old_validate(m)
        assert validate(m) == expected
        kinds["valid" if not expected else "shape" if "shape" in expected[0] else "commutator"] += 1
    assert min(kinds.values()) >= 50, kinds


# --- immutable values and the verdicts they keep ---------------------------------


def test_modules_and_representations_are_immutable():
    m = young_module(Partition.of(3, 1), 0).module
    x = to_quiver(m)
    assert validate(m) == [] and check_relations(x) == []
    for maps in (x.maps, m.p_plus, m.p_minus):
        with pytest.raises(TypeError):
            maps[0] = ONE
    for value, names, cache in ((x, ("window", "dims", "maps"), "_violated"), (m, ("dims", "p_plus", "p_minus"), "_checked")):
        assert getattr(value, cache) is not None
        with pytest.raises(TypeError):
            hash(value)
        # another type, also one holding the same value, is never equal
        assert (value == value.to_json_dict()) is False and (x == m) is False and (m == x) is False
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.label = "a new attribute"
        # pickle and copy rebuild through the constructor, with the cache empty
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value and twin is not value
            assert getattr(twin, cache) is None


def test_constructors_copy_the_maps_they_are_given():
    dims = DimensionVector({0: 1, 1: 1})
    given = {0: ONE}
    m = EuclideanModule(dims, given)
    arrows = {"h0": ONE}
    x = QuiverRep(Window(0, 1), dims, arrows)
    given[0] = arrows["h0"] = Matrix.from_rows([[2]])
    assert m.plus(0) == x.map("h0") == ONE


def test_validate_keeps_its_verdict_and_returns_new_lists():
    shape = EuclideanModule(DimensionVector({0: 1}), p_plus={0: Matrix.from_rows([[1, 2]])})
    for m in (ladder(1, 1), shape):
        first = validate(m)
        assert first
        first.append("changed by the caller")
        assert validate(m) == first[:-1] == validate(EuclideanModule(m.dims, m.p_plus, m.p_minus))
    x = QuiverRep(Window(0, 1), DimensionVector({0: 1, 1: 1}), {"h0": ONE, "hbar0": ONE})
    first = check_relations(x)
    first.append(7)
    assert check_relations(x) == first[:-1] == [0, 1]


def test_to_quiver_returns_one_image_per_module(young_corpus):
    for _, gs in young_corpus:
        assert to_quiver(gs.module) is to_quiver(gs.module)


# --- the dictionary -------------------------------------------------------------


def test_to_quiver_zero_maps():
    m = EuclideanModule(DimensionVector({0: 1, 1: 1}))
    x = to_quiver(m)
    assert x.window == Window(0, 1)
    assert x.map("h0").is_zero() and x.map("hbar0").is_zero()


def test_to_quiver_young_two_boxes():
    # one row of two boxes: raising is the identity V_0 -> V_1, lowering vanishes
    gs = young_module(Partition.of(2), 0)
    x = to_quiver(gs.module)
    assert x.window == Window(0, 1)
    assert x.map("h0") == ONE
    assert x.map("hbar0").is_zero()


def test_round_trip_module_to_quiver(young_corpus):
    for _, gs in young_corpus:
        m = gs.module
        assert from_quiver(to_quiver(m)) == m


def test_round_trip_quiver_to_module(thin16):
    for x in thin16:
        assert to_quiver(from_quiver(x)) == x


def test_to_quiver_requires_validity():
    with pytest.raises(ValueError):
        to_quiver(ladder(1, 1))


def test_from_quiver_requires_relations():
    x = QuiverRep(
        Window(0, 1),
        DimensionVector({0: 1, 1: 1}),
        {"h0": ONE, "hbar0": ONE},
    )
    with pytest.raises(ValueError):
        from_quiver(x)


def test_from_quiver_of_thin_representatives(thin16):
    for x in thin16:
        m = from_quiver(x)
        assert validate(m) == []
        assert m.dims == DimensionVector({k: 1 for k in range(5)})


def test_commutator_becomes_relation():
    gs = young_module(Partition.of(2, 2), 0)
    x = to_quiver(gs.module)
    from e2quiver.preproj import check_relations

    assert check_relations(x) == []
    # both composites through the corner box land on the last box, nonzero
    m = gs.module
    down_up = m.minus(1) * m.plus(0)
    up_down = m.plus(-1) * m.minus(0)
    assert down_up == up_down
    assert not down_up.is_zero()


# --- character shift --------------------------------------------------------------


def test_char_shift_identity():
    m = young_module(Partition.of(3, 1), 0).module
    assert char_shift(m, 0) == m


def test_char_shift_inverse():
    m = young_module(Partition.of(2, 1), 0).module
    assert char_shift(char_shift(m, 2), -2) == m


def test_char_shift_matches_anchored_construction():
    for a in (-2, 1, 3):
        shifted = char_shift(young_module(Partition.of(2, 1), 0).module, a)
        direct = young_module(Partition.of(2, 1), a).module
        assert shifted == direct


def test_char_shift_commutes_with_to_quiver():
    m = young_module(Partition.of(2, 2, 1), 0).module
    x = to_quiver(char_shift(m, 3))
    y = to_quiver(m)
    assert x.window == Window(y.window.a + 3, y.window.b + 3)
    for i in y.window.arrow_indices():
        assert x.map(f"h{i + 3}") == y.map(f"h{i}")
        assert x.map(f"hbar{i + 3}") == y.map(f"hbar{i}")


# --- word actions ------------------------------------------------------------------


def test_projections_orthogonal():
    m = young_module(Partition.of(2, 1), 0).module
    for k, _, v in basis_vectors(m):
        assert apply_word(m, [proj(k + 1), proj(k)], v) == {}
        assert apply_word(m, [proj(k), proj(k)], v) == v


def test_projection_commutation_with_raising():
    m = young_module(Partition.of(2, 1), 0).module
    for k in range(-2, 3):
        for _, _, v in basis_vectors(m):
            left = apply_word(m, [proj(k + 1), "P+"], v)
            right = apply_word(m, ["P+", proj(k)], v)
            assert left == right


def test_projection_sum_is_identity():
    m = young_module(Partition.of(3, 2), 0).module
    for _, _, v in basis_vectors(m):
        total = {}
        for k in m.dims.support():
            for w, coords in apply_word(m, [proj(k)], v).items():
                acc = total.get(w, (Fraction(0),) * len(coords))
                total[w] = tuple(a + b for a, b in zip(acc, coords))
        total = {w: c for w, c in total.items() if any(x != 0 for x in c)}
        assert total == v


def test_cartan_letter_scales_by_weight():
    m = young_module(Partition.of(2), 0).module
    v = graded_vector({1: ["1"]})
    assert apply_word(m, ["L"], v) == v
    assert apply_word(m, ["L"], graded_vector({0: ["1"]})) == {}


def test_word_actions_on_young_module():
    # raising the generator of the two-box row reaches the second box
    m = young_module(Partition.of(2), 0).module
    v = graded_vector({0: ["1"]})
    assert apply_word(m, ["P+"], v) == {1: (Fraction(1),)}
    assert apply_word(m, ["P-"], v) == {}


def test_unknown_letter_rejected():
    m = young_module(Partition.of(1), 0).module
    with pytest.raises(ValueError):
        apply_word(m, ["Q"], graded_vector({0: ["1"]}))


def test_commuting_composites_word_identity(random_thin_corpus):
    for m in random_thin_corpus[:10]:
        for k in range(min(m.dims.support()) - 1, max(m.dims.support()) + 2):
            for _, _, v in basis_vectors(m):
                left = apply_word(m, ["P+", "P-", proj(k)], v)
                right = apply_word(m, ["P-", "P+", proj(k)], v)
                assert left == right


def random_word(m: EuclideanModule, rng: random.Random) -> list[str]:
    """Up to six letters, the projections onto the support and one weight
    past either end."""
    support = m.dims.support()
    letters = ["P+", "P-", "L"] + [proj(k) for k in range(support[0] - 1, support[-1] + 2)]
    return [rng.choice(letters) for _ in range(rng.randint(0, 6))]


def test_apply_word_matches_the_accumulating_oracle(thin16, young_corpus):
    rng = random.Random(1919)
    modules = [from_quiver(rep) for rep in thin16] + [gs.module for _, gs in young_corpus]
    for m in modules:
        spread = {
            k: tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)) for k, n in m.dims.items()
        }
        vectors = [v for _, _, v in basis_vectors(m)] + [spread]
        for _ in range(16):
            word = random_word(m, rng)
            for v in vectors:
                assert apply_word(m, word, v) == accumulating_apply_word(m, word, v), (m, word, v)


# --- weight runs --------------------------------------------------------------------


def test_weight_runs_split_and_guarantee():
    report = weight_runs({0, 1, 2, 5, 6})
    assert report.runs == ((0, 2), (5, 6))
    assert report.max_run_length == 3
    assert report.finite_type_guarantee


def test_weight_runs_five_consecutive():
    report = weight_runs({0, 1, 2, 3, 4})
    assert report.runs == ((0, 4),)
    assert report.max_run_length == 5
    assert not report.finite_type_guarantee


def test_weight_runs_empty():
    report = weight_runs(set())
    assert report.runs == ()
    assert report.finite_type_guarantee


# --- Hom agreement across the dictionary ---------------------------------------------


def test_hom_dimension_agrees_with_quiver_side(thin16, young_corpus):
    modules = [from_quiver(x) for x in thin16[:5]]
    modules += [gs.module for _, gs in young_corpus[:8]]
    for m1 in modules:
        for m2 in modules:
            lhs = module_side_hom_dimension(m1, m2)
            rhs = hom_basis(to_quiver(m1), to_quiver(m2)).dim
            assert lhs == rhs


def test_hom_dimension_reads_hom_basis(young_corpus):
    modules = [gs.module for _, gs in young_corpus[:4]]
    for m1 in modules:
        for m2 in modules:
            assert hom_dimension(m1, m2) == hom_basis(to_quiver(m1), to_quiver(m2)).dim


def test_hom_dimension_rejects_invalid_modules():
    good = ladder(1, 0)
    misshapen = EuclideanModule(DimensionVector({0: 1}), p_plus={0: Matrix.from_rows([[1, 2]])})
    for bad in (ladder(1, 1), misshapen):
        with pytest.raises(ValueError, match="invalid module"):
            hom_dimension(bad, good)
        with pytest.raises(ValueError, match="invalid module"):
            hom_dimension(good, bad)


def test_hom_dimension_with_zero_module_is_zero():
    zero = EuclideanModule(DimensionVector({}))
    m = ladder(1, 0)
    assert hom_dimension(zero, m) == hom_dimension(m, zero) == hom_dimension(zero, zero) == 0


def test_gap_support_module_splits():
    # a valid module supported on {0, 3} cannot be indecomposable
    x = direct_sum(
        QuiverRep(Window(0, 0), DimensionVector.unit(0)),
        QuiverRep(Window(3, 3), DimensionVector.unit(3)),
    )
    parts = split(x)
    assert parts is not None
    assert sorted(p.dims.support() for p in parts) == [(0,), (3,)]


# --- serialization --------------------------------------------------------------------


def test_module_json_round_trip(young_corpus):
    for _, gs in young_corpus[:6]:
        doc = gs.module.to_json_dict()
        assert EuclideanModule.from_json_dict(doc) == gs.module


def test_module_json_zero_maps_omitted():
    m = EuclideanModule(DimensionVector({0: 1, 1: 1}))
    doc = m.to_json_dict()
    assert doc["p_plus"] == {} and doc["p_minus"] == {}
