"""The rational-root search that preproj._rational_roots replaced, kept as a
test oracle.

It tries every divisor pair of |a0| and |an| of the integer form, so it is
independent of the p-adic search but only usable on small coefficients: it
returns None, trying nothing, above _ROOT_SEARCH_LIMIT.  The code is the
former package code, unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from e2quiver.preproj import _poly_trim

_ZERO = Fraction(0)


# The rational-root search factors |a0| and |an| of the integer form by trial
# division up to their square roots and tries every divisor pair, so it is
# only attempted when |a0 * an| is at most this.
_ROOT_SEARCH_LIMIT = 10**12


def _rational_roots(p: Sequence[Fraction]) -> list[Fraction] | None:
    """All rational roots of a nonzero polynomial, ascending; None when its
    integer form has |a0 * an| above _ROOT_SEARCH_LIMIT (nothing is tried)."""
    work = _poly_trim(list(p))
    roots = []
    if len(work) > 1 and work[0] == 0:
        roots.append(_ZERO)
        while work[0] == 0:
            work = work[1:]
    if len(work) <= 1:
        return roots
    scale = lcm(*(c.denominator for c in work))
    ints = [int(c * scale) for c in work]
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 * an > _ROOT_SEARCH_LIMIT:
        return None
    for num in _divisors(a0):
        for den in _divisors(an):
            if gcd(num, den) != 1:
                continue
            for signed in (num, -num):
                # den^deg p(signed / den), by Horner on the homogenized form
                acc, power = 0, 1
                for c in reversed(ints):
                    acc = acc * signed + c * power
                    power *= den
                if acc == 0:
                    roots.append(Fraction(signed, den))
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
