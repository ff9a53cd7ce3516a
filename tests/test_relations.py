"""The integer relation check against the Fraction relation values it
replaced (``relation_oracle``), on valid modules, on the same modules with
one entry changed, and on the degenerate shapes: single-vertex windows and
zero weight spaces."""

import random
from fractions import Fraction

import pytest

from e2quiver.euclid import EuclideanModule, to_quiver, validate
from e2quiver.linalg import Matrix
from e2quiver.moduli import partitions_up_to, young_module
from e2quiver.preproj import QuiverRep, apply_gv, check_relations, direct_sum
from e2quiver.quiver import Arrow, DimensionVector, Window

from relation_oracle import violated_vertices
from test_integer_kernels import fractional_gv

DELTAS = (1, -1, Fraction(1, 2))


@pytest.fixture(scope="module")
def valid_corpus(thin16):
    """thin16, the Young modules of at most 8 boxes at two anchors, and sums
    of thin and Young modules hidden by fractional base changes."""
    rng = random.Random(41)
    young = [to_quiver(young_module(p, a).module) for a in (0, -2) for p in partitions_up_to(8)]
    sums = [direct_sum(rng.choice(thin16), rng.choice(thin16)) for _ in range(12)]
    sums += [direct_sum(y, y) for y in young[4:40:6]]
    sums += [direct_sum(direct_sum(rng.choice(thin16), rng.choice(thin16)), rng.choice(thin16)) for _ in range(4)]
    hidden = [apply_gv(x, fractional_gv(x, rng)) for x in sums]
    return list(thin16) + young + hidden


def _with_entry_changed(x: QuiverRep, name: str, index: int, delta) -> QuiverRep:
    m = x.maps[name]
    entries = list(m.entries())
    entries[index] += delta
    return QuiverRep(x.window, x.dims, {**x.maps, name: Matrix(m.rows, m.cols, entries)})


def test_valid_corpus_satisfies_the_relations(valid_corpus):
    assert any(e.denominator > 1 for x in valid_corpus for m in x.maps.values() for e in m.entries())
    for x in valid_corpus:
        assert check_relations(x) == violated_vertices(x) == []


def test_one_changed_entry_gives_the_oracle_vertices(valid_corpus):
    rng = random.Random(43)
    seen = set()
    for x in valid_corpus:
        names = [name for name, m in x.maps.items() if m.rows and m.cols]
        if not names:  # a single box
            continue
        for delta in DELTAS:
            name = rng.choice(names)
            changed = _with_entry_changed(x, name, rng.randrange(len(x.maps[name].entries())), delta)
            expected = violated_vertices(changed)
            assert check_relations(changed) == expected, (x, name, delta)
            seen.add(len(expected))
    # violations at no vertex (a change that keeps a relation), one and two
    assert {0, 1, 2} <= seen


def _degenerate_cases() -> list[QuiverRep]:
    one = Matrix.from_rows([[1]])
    return [
        QuiverRep(Window(3, 3), DimensionVector({3: 2})),
        QuiverRep(Window(0, 0), DimensionVector({})),
        # zero interior weight space: every path through vertex 1 is zero
        QuiverRep(Window(0, 2), DimensionVector({0: 2, 2: 3})),
        QuiverRep(Window(0, 2), DimensionVector({0: 1, 1: 1}), {"h0": one, "hbar0": one}),
        QuiverRep(Window(-1, 2), DimensionVector({0: 1, 1: 1}), {"h0": one}),
        QuiverRep(Window(0, 2), DimensionVector({1: 1, 2: 1}), {"h1": one, "hbar1": Matrix.from_rows([["-1/2"]])}),
        QuiverRep(
            Window(0, 3),
            DimensionVector({0: 2, 1: 1, 3: 1}),
            {"h0": Matrix.from_rows([[1, 2]]), "hbar0": Matrix.from_rows([[2], [-1]])},
        ),
    ]


def test_degenerate_shapes_give_the_oracle_vertices():
    cases = _degenerate_cases()
    got = [check_relations(x) for x in cases]
    assert got == [violated_vertices(x) for x in cases]
    assert got == [[], [], [], [0, 1], [], [1, 2], [0]]


def test_the_check_builds_no_matrix(valid_corpus, monkeypatch):
    built = []
    original = Matrix.__init__

    def counting_init(self, *args):
        built.append(args)
        original(self, *args)

    unchecked = [_fresh(x) for x in valid_corpus[::7]]
    monkeypatch.setattr(Matrix, "__init__", counting_init)
    for x in unchecked:
        check_relations(x)
    assert built == []


def _fresh(x: QuiverRep) -> QuiverRep:
    """An equal representation that no check has seen."""
    return QuiverRep(x.window, x.dims, x.maps)


def _module_of(x: QuiverRep) -> EuclideanModule:
    """The module of x's arrow maps through the dictionary, built unchecked."""
    arrows = x.window.arrow_indices()
    p_plus = {i: x.map(Arrow(i)) for i in arrows}
    p_minus = {i + 1: x.map(Arrow(i, reverse=True)) for i in arrows}
    return EuclideanModule(x.dims, p_plus, p_minus)


def test_the_kept_verdict_is_that_of_a_fresh_copy(valid_corpus):
    rng = random.Random(47)
    violating = []
    for x in valid_corpus[::3]:
        names = [name for name, m in x.maps.items() if m.rows and m.cols]
        if names:
            name = rng.choice(names)
            violating.append(_with_entry_changed(x, name, rng.randrange(len(x.maps[name].entries())), 1))
    reps = valid_corpus + violating + _degenerate_cases()
    assert sum(bool(violated_vertices(x)) for x in violating) >= 20
    for x in reps:
        kept = check_relations(x)
        assert check_relations(x) == kept == check_relations(_fresh(x)) == violated_vertices(x)
        m = _module_of(x)
        kept = validate(m)
        assert validate(m) == kept == validate(_module_of(x))
