"""Walk the dictionary between weight-graded modules and quiver points.

A module with commuting raising and lowering operators is the same data as
a representation of the doubled linear quiver satisfying the
Gelfand-Ponomarev relations: restricting the raising action to one weight
space gives the forward arrow map, the lowering action gives the reversed
one.  The script builds a module by hand, crosses the dictionary in both
directions bit-exactly, reads Hom dimensions between modules off the quiver
side (the dictionary preserves Hom), shifts characters, and exercises the
projection-word calculus.
"""

from fractions import Fraction

from e2quiver import (
    DimensionVector,
    EuclideanModule,
    Matrix,
    apply_word,
    char_shift,
    from_quiver,
    hom_dimension,
    proj,
    to_quiver,
    validate,
    weight_runs,
)


def main():
    # a 4-dimensional module: weights -1, 0 (twice), 1, with the raising
    # action hitting the top and the lowering action the bottom
    dims = DimensionVector({-1: 1, 0: 2, 1: 1})
    m = EuclideanModule(
        dims,
        p_plus={0: Matrix.from_rows([[1, 0]])},
        p_minus={0: Matrix.from_rows([[0, 1]])},
    )
    print("violations:", validate(m))

    x = to_quiver(m)
    print("quiver window:", [x.window.a, x.window.b])
    print("forward map at 0:", x.map("h0").to_lists())
    print("reversed map at -1:", x.map("hbar-1").to_lists())

    back = from_quiver(x)
    print("round trip bit-exact:", back == m)

    print("\nHom dimensions read through the dictionary:")
    up = char_shift(m, 1)
    for name, source, target in (("Hom(m, m)", m, m), ("Hom(m, m shifted by 1)", m, up)):
        print(f"  {name}: {hom_dimension(source, target)}")

    shifted = char_shift(m, 3)
    print("\nshift by 3 moves the support:", shifted.dims.to_json_dict())
    print("shift round trip:", char_shift(shifted, -3) == m)

    print("\nword calculus on the generator of the middle weight space:")
    v = {0: (Fraction(1), Fraction(0))}
    for word in (["P+"], ["P-"], [proj(1), "P+"], ["P+", proj(5)], ["P+", "P-"], ["P-", "P+"]):
        result = apply_word(m, word, v)
        pretty = {k: [str(c) for c in coords] for k, coords in sorted(result.items())}
        print(f"  {word!r:28} -> {pretty}")

    print("\nweight-run guard for candidate supports:")
    for weights in ({0, 1, 2, 5, 6}, set(range(5))):
        report = weight_runs(weights)
        print(
            f"  {sorted(weights)}: runs {list(report.runs)}, "
            f"finiteness guarantee {report.finite_type_guarantee}"
        )


if __name__ == "__main__":
    main()
