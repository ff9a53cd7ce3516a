"""The Fraction polynomial layer that preproj's split used before it moved
to monic integer polynomials, kept as a test oracle.

The package now scales each split candidate phi once to D phi, with D the lcm
of all its denominators, and factors the monic integer minimal polynomial of
D phi.  This module factors the monic rational minimal polynomial of phi
itself, so its factors f correspond to the package's D^deg(f) f(t / D).  The
code is the former package code, unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

from e2quiver.linalg import scale_to_ints

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_sub(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    out = [_ZERO] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    return _poly_trim(out)


def _poly_divmod(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    q = list(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [_ZERO] * max(0, len(rem) - len(q) + 1)
    lead = q[-1]
    while len(rem) >= len(q):
        f = rem[-1] / lead
        d = len(rem) - len(q)
        quot[d] = f
        for i, b in enumerate(q):
            rem[d + i] -= f * b
        _poly_trim(rem)
        if not rem:
            break
    return _poly_trim(quot), rem


def _poly_monic(p: Sequence[Fraction]) -> list[Fraction]:
    p = _poly_trim(list(p))
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _poly_gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(list(p)), _poly_trim(list(q))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return _poly_monic(a)


def _poly_lcm(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    return _poly_monic(_poly_divmod(_poly_mul(p, q), _poly_gcd(p, q))[0])


def _poly_deriv(p: Sequence[Fraction]) -> list[Fraction]:
    return _poly_trim([p[i] * i for i in range(1, len(p))])


def _squarefree_blocks(p: Sequence[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's square-free decomposition p = prod f_i^i (nonconstant f_i only)."""
    p = _poly_monic(p)
    if len(p) <= 1:
        return []
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) <= 1:
        return [(p, 1)]
    c, _ = _poly_divmod(p, g)
    d = _poly_sub(_poly_divmod(_poly_deriv(p), g)[0], _poly_deriv(c))
    blocks = []
    i = 1
    while len(c) > 1:
        h = _poly_gcd(c, d)
        if len(h) > 1:
            blocks.append((h, i))
        c, _ = _poly_divmod(c, h)
        d = _poly_sub(_poly_divmod(d, h)[0], _poly_deriv(c))
        i += 1
    return blocks


def _int_poly_at(coeffs: Sequence[int], x: int) -> int:
    """An integer polynomial (low-to-high coefficients) at x, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero square-free polynomial (a Yun block),
    ascending.  For its integer form f of degree d and leading coefficient an,
    g(s) = an^(d-1) f(s/an) is monic with integer roots an times f's rational
    roots.  Each root of g mod the first odd prime at which all are simple is
    lifted by Newton's iteration past twice g's Cauchy bound, and exact roots
    are read off the symmetric residues (Loos, SIAM J. Comput. 12, 1983).
    Only primes dividing the discriminant are skipped, so nothing is capped."""
    work = _poly_trim(list(p))
    roots = []
    if len(work) > 1 and work[0] == 0:
        roots.append(_ZERO)
        while work[0] == 0:
            work = work[1:]
    if len(work) <= 1:
        return roots
    ints, _ = scale_to_ints(work)
    d = len(ints) - 1
    an = ints[-1]
    g = [c * an ** (d - 1 - j) for j, c in enumerate(ints[:d])] + [1]
    deriv = [j * g[j] for j in range(1, d + 1)]
    bound = 2 * (1 + max(abs(c) for c in g))
    prime = 1
    while True:
        prime += 2
        if any(prime % q == 0 for q in range(3, isqrt(prime) + 1, 2)):
            continue
        reduced = [c % prime for c in g]
        residues = [r for r in range(prime) if _int_poly_at(reduced, r) % prime == 0]
        if all(_int_poly_at(deriv, r) % prime for r in residues):
            break
    for r in residues:
        modulus = prime
        while modulus <= bound:
            modulus *= modulus
            r = (r - _int_poly_at(g, r) * pow(_int_poly_at(deriv, r), -1, modulus)) % modulus
        s = r if 2 * r <= modulus else r - modulus
        if _int_poly_at(g, s) == 0:
            roots.append(Fraction(s, an))
    return sorted(roots)


def _coprime_factors(minpoly: list[Fraction]) -> list[list[Fraction]]:
    """minpoly as a product of pairwise coprime factors: (t - r)^i for each
    rational root r of a square-free block f_i, and the rest of f_i to the
    power i."""
    factors = []
    for f, mult in _squarefree_blocks(minpoly):
        for r in _rational_roots(f):
            linear = [-r, _ONE]
            f = _poly_divmod(f, linear)[0]
            factors.append(_poly_power(linear, mult))
        if len(f) > 1:
            factors.append(_poly_power(f, mult))
    return factors


def _poly_power(p: list[Fraction], k: int) -> list[Fraction]:
    out = [_ONE]
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


