"""Split direct sums back into their indecomposable pieces.

Direct sums of thin indecomposables are assembled at random, then handed
to the splitting machinery, which cuts the representation into the
primary components of an endomorphism (an End basis element or a seeded
combination) whose minimal polynomial has coprime factors.  Krull-Schmidt
at this scale: the recovered multiset of isomorphism classes always
matches the construction.
"""

import random

from e2quiver import (
    Window,
    decompose,
    direct_sum,
    end_algebra,
    enumerate_thin_indecomposables,
    is_indecomposable,
    is_isomorphic,
)


def main():
    rng = random.Random(8)
    pool = enumerate_thin_indecomposables(Window(0, 4))
    pool += enumerate_thin_indecomposables(Window(-2, 0))

    for case in range(5):
        count = rng.randint(2, 3)
        chosen = [pool[rng.randrange(len(pool))] for _ in range(count)]
        total = chosen[0]
        for s in chosen[1:]:
            total = direct_sum(total, s)

        end = end_algebra(total)
        verdict = is_indecomposable(total)
        parts = decompose(total)

        print(f"case {case}: sum of {count} thin modules, total dims {total.dims.to_json_dict()}")
        print(
            f"  dim End = {end.dim}, radical = {end.radical_dim}, "
            f"semisimple quotient = {end.semisimple_quotient_dim}"
        )
        print(f"  verdict: {verdict.verdict}; recovered {len(parts)} summands")

        unused = list(chosen)
        matched = 0
        for part in parts:
            for i, s in enumerate(unused):
                if is_isomorphic(part, s):
                    unused.pop(i)
                    matched += 1
                    break
        print(f"  matched {matched}/{count} summands to the construction\n")


if __name__ == "__main__":
    main()
