"""euclid.apply_word as it was when each letter's image was added into an
accumulator, kept as a test oracle.

The code is the former package loop with its helper ``_vec_add``,
unchanged.  The accumulator never met a weight twice: every letter sends
distinct weights to distinct weights.
"""

from fractions import Fraction
from typing import Sequence

from e2quiver.euclid import LETTER_L, LETTER_MINUS, LETTER_PLUS, EuclideanModule, GradedVector, _canonical_vector
from e2quiver.linalg import frac, shown
from e2quiver.quiver import json_weight


def accumulating_apply_word(m: EuclideanModule, word: Sequence[str], v: GradedVector) -> GradedVector:
    for k, coords in v.items():
        if len(coords) != m.dims[k]:
            raise ValueError(
                f"component at weight {k} has length {len(coords)}, expected {m.dims[k]}"
            )
    current = _canonical_vector({k: tuple(coords) for k, coords in v.items()})
    for letter in reversed(list(word)):
        nxt: dict[int, list[Fraction]] = {}
        if letter == LETTER_PLUS:
            for k, coords in current.items():
                image = m.plus(k).apply(coords)
                if any(c != 0 for c in image):
                    _vec_add(nxt, k + 1, image)
        elif letter == LETTER_MINUS:
            for k, coords in current.items():
                image = m.minus(k).apply(coords)
                if any(c != 0 for c in image):
                    _vec_add(nxt, k - 1, image)
        elif letter == LETTER_L:
            for k, coords in current.items():
                _vec_add(nxt, k, tuple(frac(k) * c for c in coords))
        elif letter.startswith("Proj:"):
            k = json_weight(letter[5:], "weight of a Proj letter")
            if k in current:
                _vec_add(nxt, k, current[k])
        else:
            raise ValueError(f"unknown letter {shown(letter)}")
        current = _canonical_vector({k: tuple(c) for k, c in nxt.items()})
    return current


def _vec_add(acc: dict[int, list[Fraction]], k: int, coords: Sequence[Fraction]) -> None:
    if k in acc:
        acc[k] = [a + b for a, b in zip(acc[k], coords)]
    else:
        acc[k] = list(coords)
