import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from e2quiver import euclid, preproj
from e2quiver.euclid import EuclideanModule, to_quiver
from e2quiver.linalg import Matrix
from e2quiver.moduli import (
    FramedPoint,
    GeneratorSet,
    Partition,
    apply_gv_framed,
    enumerate_thin_decomposables,
    enumerate_thin_indecomposables,
    framed_equivalence_space,
    framed_equivalent,
    framed_point,
    invariant_closure,
    is_stable,
    nakajima_dim,
    partitions,
    partitions_up_to,
    residue_dim_vector,
    single_generator_check,
    young_module,
)
from e2quiver.preproj import (
    INDECOMPOSABLE,
    QuiverRep,
    apply_gv,
    check_relations,
    decompose,
    is_indecomposable,
    is_isomorphic,
    is_nilpotent,
    random_gv,
)
from e2quiver.quiver import DimensionVector, Window


# --- partitions -----------------------------------------------------------------


def test_partition_validation():
    Partition.of(3, 3, 1)
    with pytest.raises(ValueError):
        Partition.of(1, 2)
    with pytest.raises(ValueError):
        Partition.of(0)


def test_partition_counts():
    # number of partitions of 1..6: 1, 2, 3, 5, 7, 11
    counts = [len(list(partitions(n))) for n in range(1, 7)]
    assert counts == [1, 2, 3, 5, 7, 11]
    assert len(partitions_up_to(6)) == 29


def test_partition_boxes():
    assert list(Partition.of(2, 1).boxes()) == [(1, 1), (2, 1), (1, 2)]


# --- residues -------------------------------------------------------------------


def test_residue_dim_vector_empty():
    assert residue_dim_vector(Partition(()), 0) == DimensionVector()


def test_residue_dim_vector_hook():
    v = residue_dim_vector(Partition.of(2, 1), 0)
    assert v == DimensionVector({-1: 1, 0: 1, 1: 1})


def test_residue_dim_vector_shifted():
    v = residue_dim_vector(Partition.of(3, 1), 2)
    assert v == DimensionVector({1: 1, 2: 1, 3: 1, 4: 1})


# --- Young modules ----------------------------------------------------------------


def test_young_single_box():
    gs = young_module(Partition.of(1), 5)
    assert gs.module.dims == DimensionVector.unit(5)
    assert gs.module.p_plus == {} and gs.module.p_minus == {}
    assert gs.generators == [(5, (Fraction(1),))]


def test_young_hook_actions():
    gs = young_module(Partition.of(2, 1), 0)
    m = gs.module
    # raising the corner reaches the box on its right, lowering the one below
    assert m.plus(0) == Matrix.from_rows([[1]])
    assert m.minus(0) == Matrix.from_rows([[1]])
    assert m.plus(-1).is_zero() and m.minus(1).is_zero()


def test_young_empty_partition_rejected():
    with pytest.raises(ValueError):
        young_module(Partition(()), 0)


def test_young_dims_match_residues(young_corpus):
    for p, gs in young_corpus:
        assert gs.module.dims == residue_dim_vector(p, 0)


def test_young_framed_points_stable(young_corpus):
    for _, gs in young_corpus:
        assert is_stable(framed_point(gs))
        assert gs.generates()


# --- invariant closure and stability ------------------------------------------------


def test_closure_of_empty_seed():
    x = to_quiver(young_module(Partition.of(2, 1), 0).module)
    closure = invariant_closure(x, {})
    assert all(m.cols == 0 for m in closure.values())


def test_closure_of_generator_box_is_everything():
    gs = young_module(Partition.of(2, 1), 0)
    x = to_quiver(gs.module)
    closure = invariant_closure(x, {0: [gs.generators[0][1]]})
    assert all(closure[v].cols == x.dim(v) for v in x.window.vertices())


def test_closure_of_whole_space():
    x = to_quiver(young_module(Partition.of(2, 2), 0).module)
    seed = {
        k: [tuple(Fraction(int(i == j)) for i in range(x.dim(k))) for j in range(x.dim(k))]
        for k in x.window.vertices()
    }
    closure = invariant_closure(x, seed)
    assert all(closure[v].cols == x.dim(v) for v in x.window.vertices())


def test_empty_module_vacuously_stable():
    p = FramedPoint(
        QuiverRep(Window(0, 0), DimensionVector()),
        DimensionVector.unit(0, 2),
    )
    assert is_stable(p)


def test_zero_framing_unstable():
    rep = QuiverRep(Window(0, 0), DimensionVector.unit(0))
    p = FramedPoint(rep, DimensionVector())
    assert not is_stable(p)


def test_framed_point_requires_nilpotent_relations():
    bad = QuiverRep(
        Window(0, 1),
        DimensionVector({0: 1, 1: 1}),
        {"h0": Matrix.from_rows([[1]]), "hbar0": Matrix.from_rows([[1]])},
    )
    with pytest.raises(ValueError):
        FramedPoint(bad, DimensionVector())


def test_framed_point_checks_the_relations_once(monkeypatch):
    calls = []
    computed = preproj._relation_violations

    def counted(x):
        calls.append(x)
        return computed(x)

    monkeypatch.setattr(preproj, "_relation_violations", counted)
    point = framed_point(young_module(Partition.of(4, 3, 2, 1), 0))
    assert len(calls) == 1
    # the constructor still checks, with its message; on point.rep the check is a cached read
    assert FramedPoint(point.rep, point.framing_dims, point.framing) == point
    assert len(calls) == 1
    bad = QuiverRep(
        Window(0, 1),
        DimensionVector({0: 1, 1: 1}),
        {"h0": Matrix.from_rows([[1]]), "hbar0": Matrix.from_rows([[1]])},
    )
    with pytest.raises(ValueError, match="relations violated"):
        FramedPoint(bad, DimensionVector())
    assert calls[1:] == [bad]
    # and framed_point rejects an invalid module through to_quiver
    module = EuclideanModule(
        DimensionVector({0: 1, 1: 1}),
        {0: Matrix.from_rows([[1]])},
        {1: Matrix.from_rows([[1]])},
    )
    with pytest.raises(ValueError, match="invalid module: "):
        framed_point(GeneratorSet(module, [(0, (Fraction(1),))]))


def test_one_young_chain_checks_the_relations_once(monkeypatch):
    relation_checks, shape_checks = [], []

    def counted(calls, body):
        def call(value):
            calls.append(value)
            return body(value)

        return call

    monkeypatch.setattr(preproj, "_relation_violations", counted(relation_checks, preproj._relation_violations))
    monkeypatch.setattr(euclid, "_check_module", counted(shape_checks, euclid._check_module))
    gs = young_module(Partition.of(4, 3, 2, 1), 0)
    assert euclid.validate(gs.module) == []
    x = to_quiver(gs.module)
    assert euclid.from_quiver(x) == gs.module
    point = framed_point(gs)
    assert point.rep is x
    assert FramedPoint(point.rep, point.framing_dims, point.framing) == point
    assert relation_checks == [x]
    assert shape_checks == [gs.module]
    # hom_dimension(m, m) checks m once
    m = young_module(Partition.of(3, 1), 0).module
    assert euclid.hom_dimension(m, m) == 1
    assert shape_checks == [gs.module, m]


def test_framed_points_are_immutable():
    point = framed_point(young_module(Partition.of(2, 1), 0))
    with pytest.raises(TypeError):
        point.framing[0] = Matrix.from_rows([[1]])
    for name in ("rep", "framing_dims", "framing"):
        with pytest.raises(AttributeError):
            setattr(point, name, getattr(point, name))
        with pytest.raises(AttributeError):
            delattr(point, name)
    with pytest.raises(TypeError):
        hash(point)
    # another type, also one holding the same value, is never equal
    assert (point == point.rep) is False and (point == point.to_json_dict()) is False
    for twin in (pickle.loads(pickle.dumps(point)), copy.copy(point), copy.deepcopy(point)):
        assert twin == point and twin is not point


def test_apply_gv_framed_skips_the_relation_check(monkeypatch, young_corpus):
    rng = random.Random(41)
    points = [framed_point(gs) for _, gs in young_corpus[::4]]
    cases = [(p, random_gv(p.rep, rng)) for p in points]
    calls = []
    computed = preproj._relation_violations

    def counted(x):
        calls.append(x)
        return computed(x)

    monkeypatch.setattr(preproj, "_relation_violations", counted)
    moved = [apply_gv_framed(p, g) for p, g in cases]
    assert calls == []
    monkeypatch.undo()
    # the same point as the checked construction, whose check passes, also when computed afresh
    for (p, g), q in zip(cases, moved):
        framing = {k: g[k] * p.framing_map(k) for k in p.framing}
        assert q == FramedPoint(apply_gv(p.rep, g), p.framing_dims, framing)
        assert check_relations(q.rep) == []
        assert computed(q.rep) == []


def test_stability_is_orbit_invariant(young_corpus):
    rng = random.Random(31)
    for _, gs in young_corpus[:8]:
        p = framed_point(gs)
        g = random_gv(p.rep, rng)
        assert is_stable(apply_gv_framed(p, g)) == is_stable(p)


def test_unstable_framing_example():
    # framing hits only the top of a two-step module: the submodule it
    # generates misses the bottom
    gs = young_module(Partition.of(2), 0)
    rep = to_quiver(gs.module)
    p = FramedPoint(rep, DimensionVector.unit(1), {1: Matrix.from_rows([[1]])})
    assert not is_stable(p)


# --- framed equivalence ---------------------------------------------------------------


def test_framed_equivalent_reflexive(young_corpus):
    for _, gs in young_corpus[:6]:
        p = framed_point(gs)
        assert framed_equivalent(p, p)


def test_framed_equivalent_across_orbit(young_corpus):
    rng = random.Random(41)
    for _, gs in young_corpus[:6]:
        p = framed_point(gs)
        g = random_gv(p.rep, rng)
        assert framed_equivalent(p, apply_gv_framed(p, g))


def test_framed_points_with_different_dims_inequivalent():
    p = framed_point(young_module(Partition.of(2), 0))
    q = framed_point(young_module(Partition.of(1, 1), 0))
    assert p.rep.dims != q.rep.dims
    assert not framed_equivalent(p, q)


def test_framed_equivalent_on_unstable_points_searches_solution_space():
    # zero framing: the combined system reduces to plain intertwiners, so
    # the search must still find the identity among the solutions
    rep = to_quiver(young_module(Partition.of(2), 0).module)
    p = FramedPoint(rep, DimensionVector.unit(0), {0: Matrix.zero(1, 1)})
    assert not is_stable(p)
    assert framed_equivalent(p, p)
    assert framed_equivalent(p, p, exhaustive=True)


def test_stable_points_have_trivial_automorphisms(young_corpus):
    # the combined system at a stable point pins down the identity: the
    # homogeneous kernel vanishes and the particular solution is the identity
    for _, gs in young_corpus[:10]:
        p = framed_point(gs)
        particular, kernel = framed_equivalence_space(p, p)
        assert kernel == []
        assert particular is not None
        for v in p.rep.window.vertices():
            assert particular[v] == Matrix.identity(p.rep.dim(v))


def test_marking_different_generators_gives_inequivalent_points():
    # same module, framing vector scaled: no base change fixes the marking
    gs = young_module(Partition.of(2), 0)
    p = framed_point(gs)
    q = FramedPoint(
        p.rep,
        p.framing_dims,
        {0: Matrix.from_rows([[2]])},
    )
    # stabilizer of the module is the torus, which can rescale; scaling the
    # generator stays in the orbit here
    assert framed_equivalent(p, q)
    # but zeroing it leaves the stable locus entirely
    r = FramedPoint(p.rep, p.framing_dims, {0: Matrix.zero(1, 1)})
    assert not framed_equivalent(p, r)


def test_inconsistent_framed_system_is_inequivalent():
    # g s = s' has no solution for s = 0 and s' = 1: a pivot in the right-hand side
    rep = QuiverRep(Window(0, 1), DimensionVector({0: 1, 1: 1}), {"h0": Matrix.from_rows([[1]])})
    p = FramedPoint(rep, DimensionVector.unit(0), {0: Matrix.zero(1, 1)})
    q = FramedPoint(rep, DimensionVector.unit(0), {0: Matrix.from_rows([[1]])})
    assert not framed_equivalent(p, q)
    assert not framed_equivalent(p, q, exhaustive=True)
    assert framed_equivalence_space(p, q)[0] is None


def test_framed_points_on_the_zero_representation_are_equivalent():
    # the empty base change: the search's single candidate on no unknowns
    p = FramedPoint(QuiverRep(Window(0, 1), DimensionVector()), DimensionVector.unit(0))
    q = FramedPoint(QuiverRep(Window(0, 0), DimensionVector()), DimensionVector.unit(0))
    for a, b in ((p, p), (p, q), (q, p)):
        assert all(framed_equivalent(a, b, seed=seed) for seed in range(3))
        assert framed_equivalent(a, b, exhaustive=True)
        assert framed_equivalence_space(a, b) == ({0: Matrix.zero(0, 0), 1: Matrix.zero(0, 0)}, [])


# --- the dimension formula --------------------------------------------------------------


def test_dim_formula_zero_vector():
    assert nakajima_dim(DimensionVector(), DimensionVector.unit(0)) == 0


def test_dim_formula_hook():
    v = DimensionVector({-1: 1, 0: 1, 1: 1})
    assert nakajima_dim(v, DimensionVector.unit(0)) == 0


def test_dim_formula_double_point():
    assert nakajima_dim(DimensionVector.unit(0, 2), DimensionVector.unit(0)) == -2


def test_dim_formula_single_generator_zero(young_corpus):
    w = DimensionVector.unit(0)
    for p, _ in young_corpus:
        assert nakajima_dim(residue_dim_vector(p, 0), w) == 0


# --- thin enumeration ---------------------------------------------------------------------


def test_thin_count_single_vertex():
    reps = enumerate_thin_indecomposables(Window(0, 0))
    assert len(reps) == 1
    assert reps[0].total_dim == 1


def test_thin_counts_scale():
    for k in range(5):
        assert len(enumerate_thin_indecomposables(Window(0, k))) == 2 ** k


def test_thin_window_0_1_matches_young_images():
    reps = enumerate_thin_indecomposables(Window(0, 1))
    row = to_quiver(young_module(Partition.of(2), 0).module)
    column = to_quiver(young_module(Partition.of(1, 1), 1).module)
    matched_row = [r for r in reps if is_isomorphic(r, row)]
    matched_column = [r for r in reps if is_isomorphic(r, column)]
    assert len(matched_row) == 1 and len(matched_column) == 1
    assert matched_row[0] != matched_column[0]


def test_thin_representatives_properties(thin16):
    for x in thin16:
        assert check_relations(x) == []
        assert is_nilpotent(x)
        assert is_indecomposable(x).verdict == INDECOMPOSABLE
    for x, y in itertools.combinations(thin16, 2):
        assert not is_isomorphic(x, y)


def test_thin_decomposable_bucket():
    window = Window(0, 2)
    extra = enumerate_thin_decomposables(window)
    assert len(extra) == 3 ** 2 - 2 ** 2
    for x in extra:
        assert check_relations(x) == []
        parts = decompose(x)
        assert len(parts) > 1


def test_thin_enumeration_is_bounded():
    # 2^13 and 3^8 choices are over the limit of 4096; nothing is built
    with pytest.raises(ValueError, match="over the limit"):
        enumerate_thin_indecomposables(Window(0, 13))
    with pytest.raises(ValueError, match="over the limit"):
        enumerate_thin_decomposables(Window(0, 8))


# --- inverting the residue profile -----------------------------------------------------------


def test_single_generator_round_trip(young_corpus):
    for p, _ in young_corpus:
        for a in (-2, 0, 3):
            v = residue_dim_vector(p, a)
            assert single_generator_check(v, a) == p


def test_single_generator_rejects_double_point():
    assert single_generator_check(DimensionVector.unit(0, 2), 0) is None


def test_single_generator_rejects_far_anchor():
    # the anchor must sit at the top residue of its diagonal: weights {0, 1}
    # admit no diagram anchored at 5, and a gap in the support is fatal
    assert single_generator_check(DimensionVector({0: 1, 1: 1}), 5) is None
    assert single_generator_check(DimensionVector({0: 1, 2: 1}), 0) is None


def test_single_generator_single_box():
    assert single_generator_check(DimensionVector.unit(0), 0) == Partition.of(1)


def test_single_generator_zero_vector():
    assert single_generator_check(DimensionVector(), 0) == Partition(())


def test_single_generator_rejects_invalid_profiles():
    # {-1: 1, 0: 2, 1: 2} would need rows of lengths (2, 3): not a partition
    v = DimensionVector({-1: 1, 0: 2, 1: 2})
    assert single_generator_check(v, 0) is None
    # support missing the anchor residue
    assert single_generator_check(DimensionVector.unit(1), 0) is None


def test_single_generator_against_brute_force_enumeration():
    # independent oracle: tabulate the residue profile of every diagram with
    # at most 6 boxes, then ask the greedy inverter about every candidate
    # profile with support in [-3, 3]
    for total in range(7):
        profiles = {}
        for p in partitions(total):
            v = residue_dim_vector(p, 0)
            profiles[tuple(v.items())] = p
        for combo in itertools.combinations_with_replacement(range(-3, 4), total):
            counts = {}
            for w in combo:
                counts[w] = counts.get(w, 0) + 1
            v = DimensionVector(counts)
            assert single_generator_check(v, 0) == profiles.get(tuple(v.items()))


# --- uniqueness of single-generator modules at desk scale -------------------------------------


def _random_framed_candidate(rng, v: DimensionVector):
    """Rejection-sample a framed point with small integer maps satisfying
    the relations; None when the draw violates them."""
    window = Window(min(v.support()), max(v.support()))
    maps = {}
    for i in window.arrow_indices():
        up = Matrix(v[i + 1], v[i], [Fraction(rng.randint(-1, 1)) for _ in range(v[i + 1] * v[i])])
        down = Matrix(v[i], v[i + 1], [Fraction(rng.randint(-1, 1)) for _ in range(v[i] * v[i + 1])])
        maps[f"h{i}"] = up
        maps[f"hbar{i}"] = down
    rep = QuiverRep(window, v, maps)
    if check_relations(rep) or not is_nilpotent(rep):
        return None
    framing = {0: Matrix(v[0], 1, [Fraction(rng.randint(-1, 1)) for _ in range(v[0])])}
    return FramedPoint(rep, DimensionVector.unit(0), framing)


def test_stable_points_unique_up_to_framed_equivalence():
    rng = random.Random(99)
    for p in partitions_up_to(4):
        v = residue_dim_vector(p, 0)
        reference = framed_point(young_module(p, 0))
        stable_hits = 0
        attempts = 0
        while stable_hits < 3 and attempts < 6000:
            attempts += 1
            candidate = _random_framed_candidate(rng, v)
            if candidate is None or not is_stable(candidate):
                continue
            stable_hits += 1
            assert framed_equivalent(candidate, reference)
        assert stable_hits == 3


# --- serialization ------------------------------------------------------------------------------


def test_framed_point_json_round_trip(young_corpus):
    for _, gs in young_corpus[:4]:
        p = framed_point(gs)
        assert FramedPoint.from_json_dict(p.to_json_dict()) == p


# --- several marked generators ------------------------------------------------------------------


def _two_generator_point():
    from e2quiver.euclid import from_quiver
    from e2quiver.moduli import GeneratorSet
    from e2quiver.preproj import direct_sum

    row = to_quiver(young_module(Partition.of(2), 0).module)
    column = to_quiver(young_module(Partition.of(1, 1), 0).module)
    total = from_quiver(direct_sum(row, column))
    gs = GeneratorSet(
        total,
        [(0, (Fraction(1), Fraction(0))), (0, (Fraction(0), Fraction(1)))],
    )
    return gs


def test_two_marked_generators_generate():
    gs = _two_generator_point()
    assert gs.framing_dims() == DimensionVector.unit(0, 2)
    p = framed_point(gs)
    assert is_stable(p)
    particular, kernel = framed_equivalence_space(p, p)
    assert kernel == [] and particular is not None


def test_dropping_a_generator_destroys_stability():
    gs = _two_generator_point()
    partial = type(gs)(gs.module, gs.generators[:1])
    assert not partial.generates()


def test_two_column_framing_orbit_equivalence():
    rng = random.Random(5)
    p = framed_point(_two_generator_point())
    g = random_gv(p.rep, rng)
    assert framed_equivalent(p, apply_gv_framed(p, g))
