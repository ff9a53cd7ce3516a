"""Finite-dimensional modules over the planar Euclidean algebra.

A module is a weight-graded rational vector space on which the two
commuting translation generators act as degree +1 and degree -1 maps;
the rotation generator acts on the weight-k space as multiplication by
k, so its action is carried by the grading itself and never stored.

The dictionary with preprojective-algebra representations identifies the
degree +1 action restricted to weight i with the forward arrow map at i,
and the degree -1 action restricted to weight i+1 with the reversed
arrow map; the commutator condition becomes exactly the
Gelfand-Ponomarev relation.  Modules and representations are immutable,
so each is checked once: a module keeps its verdict and its quiver image,
which keeps its relation verdict, for every later crossing of the
dictionary.  Both directions of the dictionary are bit-exact inverses on
valid objects, and the dictionary is an equivalence of categories, so the
dimension of Hom between modules (hom_dimension) is read off the rank of
the intertwiner system of the quiver images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import Matrix, frac, shown
from .preproj import QuiverRep, check_relations, hom_dim
from .quiver import Arrow, DimensionVector, Frozen, check_size, json_fields, json_weight, json_weight_object, window_of_support

_ZERO = Fraction(0)

# Letters of words in the modified enveloping algebra.  "Proj:k" is the
# idempotent projecting onto the weight-k space; words apply right-to-left.
LETTER_PLUS = "P+"
LETTER_MINUS = "P-"
LETTER_L = "L"


def proj(k: int) -> str:
    return f"Proj:{k}"


# A graded vector: weight -> coordinate column; missing weights mean zero.
GradedVector = dict[int, tuple[Fraction, ...]]


class EuclideanModule(Frozen):
    """Weight-graded module with raising (p_plus) and lowering (p_minus) maps.

    p_plus[k] maps the weight-k space to the weight-(k+1) space, p_minus[k]
    maps it to the weight-(k-1) space.  Zero maps of the right shape are
    implied and dropped, so equality of modules is bit-exact equality of
    the stored data.  The value is immutable: p_plus and p_minus are
    read-only mappings, so the module keeps validate's verdict and its
    quiver image in the slot _checked (None until the first check).
    """

    __slots__ = ("dims", "p_plus", "p_minus", "_checked")

    def __init__(
        self,
        dims: DimensionVector,
        p_plus: Mapping[int, Matrix] | None = None,
        p_minus: Mapping[int, Matrix] | None = None,
    ):
        plus, minus = _canonical(dims, p_plus or {}, 1), _canonical(dims, p_minus or {}, -1)
        self._set(dims=dims, p_plus=plus, p_minus=minus, _checked=None)

    def plus(self, k: int) -> Matrix:
        return self.p_plus.get(k, Matrix.zero(self.dims[k + 1], self.dims[k]))

    def minus(self, k: int) -> Matrix:
        return self.p_minus.get(k, Matrix.zero(self.dims[k - 1], self.dims[k]))

    @property
    def total_dim(self) -> int:
        return self.dims.total()

    def __repr__(self) -> str:
        return f"EuclideanModule(dims={self.dims.to_json_dict()})"

    def to_json_dict(self) -> dict:
        return {
            "dims": self.dims.to_json_dict(),
            "p_plus": {str(k): m.to_lists() for k, m in sorted(self.p_plus.items())},
            "p_minus": {str(k): m.to_lists() for k, m in sorted(self.p_minus.items())},
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "EuclideanModule":
        data = json_fields(data, "module", ("dims", "p_plus", "p_minus"))
        dims = DimensionVector.from_json_dict(data.get("dims", {}))
        support = dims.support()
        if support:
            check_size("window width", support[-1] - support[0])
        check_size("sum of squared dimensions", sum(d * d for _, d in dims.items()))
        p_plus = {k: Matrix.from_lists(m) for k, m in json_weight_object(data.get("p_plus", {}), "p_plus").items()}
        p_minus = {k: Matrix.from_lists(m) for k, m in json_weight_object(data.get("p_minus", {}), "p_minus").items()}
        return cls(dims, p_plus, p_minus)


def _canonical(dims: DimensionVector, maps: Mapping[int, Matrix], step: int) -> dict[int, Matrix]:
    """The maps without the zero maps of the right shape, which plus and
    minus imply; a wrongly shaped map is kept for validate to report."""
    pairs = ((int(k), m) for k, m in maps.items())
    return {k: m for k, m in pairs if not m.is_zero() or m.shape != (dims[k + step], dims[k])}


def validate(m: EuclideanModule) -> list[str]:
    """Violations of the module axioms; empty iff m is a valid module.

    Checks map shapes against the weight-space dimensions, then the
    commutator condition, which the dictionary turns into the
    Gelfand-Ponomarev relation: its violations are read off check_relations
    of the to_quiver image.  Problems are reported, not thrown.  Each module
    is checked once; every call returns a new list of its verdict.
    """
    return list(_checked_image(m)[0])


def _checked_image(m: EuclideanModule) -> tuple[tuple[str, ...], QuiverRep | None]:
    """validate's violations, with the dictionary image that the relation
    check was run on, or None when m is zero or a map has the wrong shape;
    computed once per module and kept on it."""
    checked = m._checked
    if checked is None:
        checked = _check_module(m)
        m._set(_checked=checked)
    return checked


def _check_module(m: EuclideanModule) -> tuple[tuple[str, ...], QuiverRep | None]:
    """_checked_image computed afresh."""
    violations = []
    for name, maps, step in (("p_plus", m.p_plus, 1), ("p_minus", m.p_minus, -1)):
        for k, mat in sorted(maps.items()):
            expected = (m.dims[k + step], m.dims[k])
            if mat.shape != expected:
                violations.append(f"{name} at weight {k} has shape {mat.shape}, expected {expected}")
    if violations or m.dims.is_zero():
        return tuple(violations), None
    window = window_of_support(m.dims)
    maps = {}
    for i in window.arrow_indices():
        maps[Arrow(i).name] = m.plus(i)
        maps[Arrow(i, reverse=True).name] = m.minus(i + 1)
    image = QuiverRep(window, m.dims, maps)
    return tuple(f"commutator violation at weight {k}" for k in check_relations(image)), image


def to_quiver(m: EuclideanModule) -> QuiverRep:
    """The representation of the double quiver on the support window given by
    restricting the raising and lowering actions to the weight spaces.

    The commutator condition turns into the Gelfand-Ponomarev relation, so the
    result always satisfies the relations.  The image is built once per
    module: every call returns the same immutable QuiverRep.
    """
    image = _require_valid(m)
    if image is None:
        raise ValueError("zero module has no support window")
    return image


def _require_valid(m: EuclideanModule) -> QuiverRep | None:
    """The quiver image of a valid module, None for the zero module;
    ValueError naming every violation otherwise."""
    problems, image = _checked_image(m)
    if problems:
        raise ValueError("invalid module: " + "; ".join(problems))
    return image


def from_quiver(x: QuiverRep) -> EuclideanModule:
    """Inverse of to_quiver on objects: forward arrows become the raising
    action, reversed arrows the lowering action.  On an image of to_quiver
    the relations are not checked again: check_relations reads the verdict
    kept on it."""
    violated = check_relations(x)
    if violated:
        raise ValueError(f"relations violated at vertices {violated}")
    p_plus = {}
    p_minus = {}
    for i in x.window.arrow_indices():
        p_plus[i] = x.map(Arrow(i))
        p_minus[i + 1] = x.map(Arrow(i, reverse=True))
    return EuclideanModule(x.dims, p_plus, p_minus)


def char_shift(m: EuclideanModule, n: int) -> EuclideanModule:
    """Tensor with the one-dimensional character of weight n: every weight k
    becomes k + n, the raising and lowering matrices are re-indexed unchanged."""
    return EuclideanModule(
        m.dims.shift(n),
        {k + n: mat for k, mat in m.p_plus.items()},
        {k + n: mat for k, mat in m.p_minus.items()},
    )


def _canonical_vector(v: GradedVector) -> GradedVector:
    return {k: coords for k, coords in v.items() if any(c != 0 for c in coords)}


def graded_vector(entries: object) -> GradedVector:
    """Read a JSON graded vector {"weight": [coordinates]}, each array as a one-row matrix."""
    data = json_weight_object(entries, "graded vector")
    return _canonical_vector({k: Matrix.from_lists([coords]).row(0) for k, coords in data.items()})


def apply_word(m: EuclideanModule, word: Sequence[str], v: GradedVector) -> GradedVector:
    """Apply a word in the modified enveloping algebra to a graded vector.

    Letters apply right-to-left: "P+" and "P-" act through the raising and
    lowering matrices, "L" multiplies the weight-k component by k, and
    "Proj:k" keeps only the weight-k component.
    """
    for k, coords in v.items():
        if len(coords) != m.dims[k]:
            raise ValueError(
                f"component at weight {k} has length {len(coords)}, expected {m.dims[k]}"
            )
    current = _canonical_vector({k: tuple(coords) for k, coords in v.items()})
    # each letter sends distinct weights to distinct weights, so the image of
    # every component lands on a weight of its own
    for letter in reversed(list(word)):
        if letter == LETTER_PLUS:
            image = {k + 1: m.plus(k).apply(coords) for k, coords in current.items()}
        elif letter == LETTER_MINUS:
            image = {k - 1: m.minus(k).apply(coords) for k, coords in current.items()}
        elif letter == LETTER_L:
            image = {k: tuple(frac(k) * c for c in coords) for k, coords in current.items()}
        elif letter.startswith("Proj:"):
            k = json_weight(letter[5:], "weight of a Proj letter")
            image = {k: current[k]} if k in current else {}
        else:
            raise ValueError(f"unknown letter {shown(letter)}")
        current = _canonical_vector(image)
    return current


def basis_vectors(m: EuclideanModule) -> Iterator[tuple[int, int, GradedVector]]:
    """All graded unit vectors (weight, coordinate index, vector) of a module."""
    for k, n in m.dims.items():
        for j in range(n):
            coords = tuple(Fraction(1) if i == j else _ZERO for i in range(n))
            yield k, j, {k: coords}


@dataclass(frozen=True)
class WeightRunReport:
    """Maximal consecutive runs of a finite weight set, with the
    finite-classification guard: the finiteness guarantee applies exactly
    when no run has five or more consecutive integers."""

    runs: tuple[tuple[int, int], ...]
    max_run_length: int
    finite_type_guarantee: bool


def weight_runs(weights: Iterable[int]) -> WeightRunReport:
    """Partition a finite set of integers into maximal runs [start, end]."""
    sorted_weights = sorted(set(int(w) for w in weights))
    runs = []
    start = prev = None
    for w in sorted_weights:
        if start is None:
            start = prev = w
        elif w == prev + 1:
            prev = w
        else:
            runs.append((start, prev))
            start = prev = w
    if start is not None:
        runs.append((start, prev))
    max_len = max((e - s + 1 for s, e in runs), default=0)
    return WeightRunReport(tuple(runs), max_len, max_len <= 4)


def hom_dimension(m: EuclideanModule, m2: EuclideanModule) -> int:
    """Dimension of the grading-preserving maps commuting with the raising and
    lowering actions, read through the dictionary as hom_dim of the quiver
    images; 0 when either module is zero, ValueError when either is invalid."""
    x, y = _require_valid(m), _require_valid(m2)
    if x is None or y is None:
        return 0
    return hom_dim(x, y)
