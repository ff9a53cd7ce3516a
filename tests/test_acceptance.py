"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All arithmetic is exact, so every comparison below is equality;
the only tolerances are the stated runtime budgets.
"""

import itertools
import json
import random
import time

from e2quiver.cli import main as cli_main
from e2quiver.euclid import (
    apply_word,
    basis_vectors,
    from_quiver,
    proj,
    to_quiver,
    validate,
    weight_runs,
)
from e2quiver.moduli import (
    enumerate_thin_indecomposables,
    framed_equivalence_space,
    framed_point,
    is_stable,
    nakajima_dim,
    partitions_up_to,
    residue_dim_vector,
    young_module,
)
from e2quiver.preproj import (
    DECOMPOSABLE,
    INDECOMPOSABLE,
    QuiverRep,
    check_relations,
    decompose,
    direct_sum,
    end_algebra,
    hom_basis,
    is_indecomposable,
    is_isomorphic,
    is_nilpotent,
)
from e2quiver.linalg import Matrix
from e2quiver.quiver import DimensionVector, Window
from hom_oracles import module_side_hom_dimension


class Criterion:
    """Prints one pass/fail line per criterion and enforces its time budget."""

    def __init__(self, number: int, description: str, budget_seconds: float):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is not None:
            print(f"[criterion {self.number}] FAIL  {self.description}")
            return False
        if elapsed > self.budget:
            print(
                f"[criterion {self.number}] FAIL  {self.description} "
                f"(runtime {elapsed:.2f}s exceeds {self.budget:.0f}s)"
            )
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s > {self.budget:.0f}s"
            )
        print(f"[criterion {self.number}] PASS  {self.description} ({elapsed:.2f}s)")
        return False


def run_cli_json(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"cli exited {code}"
    return json.loads(out)


def test_criterion_1_sixteen_orbit_theorem(capsys, tmp_path):
    with Criterion(1, "sixteen thin orbits on [0,4], pairwise distinct", 5.0):
        docs = run_cli_json(capsys, "enumerate-thin", "--window", "0", "4")
        assert len(docs) == 16
        reps = [QuiverRep.from_json_dict(d) for d in docs]
        paths = []
        for idx, (doc, rep) in enumerate(zip(docs, reps)):
            assert doc["indecomposable"] is True
            assert check_relations(rep) == []
            assert is_nilpotent(rep)
            end = end_algebra(rep)
            assert end.semisimple_quotient_dim == 1
            assert is_indecomposable(rep).verdict == INDECOMPOSABLE
            path = tmp_path / f"thin{idx}.json"
            path.write_text(json.dumps(rep.to_json_dict()), encoding="utf-8")
            paths.append(str(path))
        for i, j in itertools.combinations(range(16), 2):
            verdict = run_cli_json(
                capsys, "iso", "--module", paths[i], "--module", paths[j], "--exhaustive"
            )
            assert verdict == {"isomorphic": False}


def test_criterion_2_window_scaling(capsys):
    with Criterion(2, "thin enumeration counts 2^k on windows [0,k]", 5.0):
        for k in range(5):
            docs = run_cli_json(capsys, "enumerate-thin", "--window", "0", str(k))
            assert len(docs) == 2 ** k


def test_criterion_3_young_module_suite():
    with Criterion(3, "29 diagrams x 3 anchors: valid, stable, rigid, dim 0", 10.0):
        diagrams = partitions_up_to(6)
        assert len(diagrams) == 29
        for p in diagrams:
            for a in (-2, 0, 3):
                gs = young_module(p, a)
                assert validate(gs.module) == []
                v = residue_dim_vector(p, a)
                assert gs.module.dims == v
                point = framed_point(gs)
                assert is_stable(point)
                # trivial framed automorphisms: the homogeneous kernel of the
                # combined system vanishes and the unique solution is the
                # identity (solution space of the homogenized system has
                # dimension exactly 1)
                particular, kernel = framed_equivalence_space(point, point)
                assert kernel == []
                assert particular is not None
                for vertex in point.rep.window.vertices():
                    assert particular[vertex] == Matrix.identity(point.rep.dim(vertex))
                assert nakajima_dim(v, DimensionVector.unit(a)) == 0


def _corpus_modules(thin16, young_corpus, random_thin_corpus):
    modules = [from_quiver(x) for x in thin16]
    modules += [gs.module for _, gs in young_corpus]
    modules += list(random_thin_corpus)
    return modules


def test_criterion_4_functor_equivalence(thin16, young_corpus, random_thin_corpus):
    with Criterion(4, "dictionary round trips and Hom agreement on the corpus", 30.0):
        modules = _corpus_modules(thin16, young_corpus, random_thin_corpus)
        assert len(modules) == 16 + 29 + 50
        for m in modules:
            assert from_quiver(to_quiver(m)) == m
        for x in thin16:
            assert to_quiver(from_quiver(x)) == x
        by_dims = {}
        for m in modules:
            by_dims.setdefault(m.dims, []).append(m)
        checked = 0
        for group in by_dims.values():
            for m1 in group:
                for m2 in group:
                    assert module_side_hom_dimension(m1, m2) == hom_basis(to_quiver(m1), to_quiver(m2)).dim
                    checked += 1
        assert checked >= len(modules)


def test_criterion_5_modified_algebra_relations(thin16, young_corpus, random_thin_corpus):
    with Criterion(5, "projection and translation identities on a full basis", 60.0):
        modules = _corpus_modules(thin16, young_corpus, random_thin_corpus)
        for m in modules:
            support = m.dims.support()
            weights = range(support[0] - 1, support[-1] + 2)
            for _, _, v in basis_vectors(m):
                for k in weights:
                    for l in weights:
                        lhs = apply_word(m, [proj(k), proj(l)], v)
                        rhs = apply_word(m, [proj(k)], v) if k == l else {}
                        assert lhs == rhs
                    assert apply_word(m, ["P+", proj(k)], v) == apply_word(
                        m, [proj(k + 1), "P+"], v
                    )
                    assert apply_word(m, ["P-", proj(k)], v) == apply_word(
                        m, [proj(k - 1), "P-"], v
                    )
                    assert apply_word(m, ["P+", "P-", proj(k)], v) == apply_word(
                        m, ["P-", "P+", proj(k)], v
                    )


def test_criterion_6_dimension_formula_spot_checks():
    with Criterion(6, "dimension formula hand-checked values", 5.0):
        assert nakajima_dim(
            DimensionVector({-1: 1, 0: 1, 1: 1}), DimensionVector.unit(0)
        ) == 0
        assert nakajima_dim(DimensionVector.unit(0, 2), DimensionVector.unit(0)) == -2
        assert nakajima_dim(DimensionVector(), DimensionVector({2: 3})) == 0


def test_criterion_7_decomposition_oracle(thin16, young_corpus):
    with Criterion(7, "Krull-Schmidt recovery on 100 random sums", 60.0):
        rng = random.Random(77)
        pool_windows = [Window(a, a + k) for a in (-2, 0, 2) for k in range(5)]
        pools = {w: enumerate_thin_indecomposables(w) for w in pool_windows}
        for case in range(100):
            count = rng.randint(2, 3)
            summands = []
            for _ in range(count):
                w = pool_windows[rng.randrange(len(pool_windows))]
                summands.append(pools[w][rng.randrange(len(pools[w]))])
            total = summands[0]
            for s in summands[1:]:
                total = direct_sum(total, s)
            verdict = is_indecomposable(total)
            assert verdict.verdict == DECOMPOSABLE
            parts = decompose(total)
            assert len(parts) == count
            unused = list(summands)
            for part in parts:
                match = next(
                    (i for i, s in enumerate(unused) if is_isomorphic(part, s, seed=case)),
                    None,
                )
                assert match is not None, "recovered summand matches no constructed one"
                unused.pop(match)
            assert unused == []
        # the corpus indecomposables with local endomorphism algebras
        for x in thin16:
            assert is_indecomposable(x).verdict == INDECOMPOSABLE
        for _, gs in young_corpus:
            x = to_quiver(gs.module)
            end = end_algebra(x)
            if end.semisimple_quotient_dim == 1:
                assert is_indecomposable(x).verdict == INDECOMPOSABLE


def test_criterion_8_weight_run_guard(capsys):
    with Criterion(8, "runs of consecutive weights and the length-5 guard", 5.0):
        report = weight_runs({0, 1, 2, 3, 4})
        assert report.runs == ((0, 4),)
        assert report.max_run_length == 5
        assert not report.finite_type_guarantee
        report = weight_runs({0, 1, 2, 5, 6})
        assert report.runs == ((0, 2), (5, 6))
        assert report.finite_type_guarantee
        doc = run_cli_json(capsys, "weight-runs", "--set", "[0,1,2,3,4]")
        assert doc["finite_type_guarantee"] is False
