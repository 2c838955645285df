"""How many norms does it take to write every positive integer, per field?

Prints the minimum count m_d for each supported field.  m_d rests on the
290 theorem: it is the least layer of reach_layers over the norm form at
width 290 that holds every TWO_NINETY number, with no cross-check at run
time.  For three fields a coverage scan then shows the first integer
that m_d - 1 copies of the norm form miss.  Ends with the four
three-norm witness identities and the two diagonal-form criteria.
"""

from collections import defaultdict

from normsums.quadfield import SUPPORTED_FIELDS, make_field
from normsums.universality import FIFTEEN, DiagonalForm, check_criterion, m_d, norm_sum_first_gap

# Identities showing 7, 15, 23 and 31 as sums of three norms
# a^2 + a*b + ((1+d)/4)*b^2 for d = 15, 19, 23, 27: the inputs
# (a1, b1, a2, b2, a3, b3) and the value each must produce.
THREE_NORM_IDENTITIES = (
    (15, (1, 1, 1, 0, 0, 0), 7),
    (15, (2, 1, 1, 0, 2, 0), 15),
    (15, (1, 1, 1, 0, 4, 0), 23),
    (15, (1, 1, 5, 0, 0, 0), 31),
    (19, (1, 1, 0, 0, 0, 0), 7),
    (19, (1, 1, 2, 0, 2, 0), 15),
    (19, (1, 1, 4, 0, 0, 0), 23),
    (19, (5, 0, 1, 0, 0, 1), 31),
    (23, (1, 0, 0, 1, 0, 0), 7),
    (23, (1, 0, 0, 1, 1, 1), 15),
    (23, (1, 0, 0, 1, 4, 0), 23),
    (23, (5, 0, 0, 1, 0, 0), 31),
    (27, (0, 1, 0, 0, 0, 0), 7),
    (27, (0, 1, 2, 0, 2, 0), 15),
    (27, (0, 1, 4, 0, 0, 0), 23),
    (27, (2, 1, 3, 0, 3, 0), 31),
)


def main() -> None:
    by_count = defaultdict(list)
    for d in SUPPORTED_FIELDS:
        by_count[m_d(make_field(d))].append(d)
    for count in sorted(by_count):
        print(f"m_d = {count}: d in {by_count[count]}")
    print()

    for d in (2, 10, 23):
        f = make_field(d)
        count = m_d(f)
        gap = norm_sum_first_gap(f, count - 1, 10**4)
        print(f"d={d}: {count - 1} norms first miss {gap}; {count} norms cover up to 10^4")
    print()

    print("three-norm witness identities (d = 3 mod 4, one per target):")
    for d, coords, expected in THREE_NORM_IDENTITIES:
        pairs = list(zip(coords[::2], coords[1::2]))
        # plain polynomial evaluation: d = 27 is no field
        actual = sum(a * a + a * b + (1 + d) // 4 * b * b for a, b in pairs)
        terms = " + ".join(f"N({a}{b:+d}w)" for a, b in pairs)
        flag = "ok" if actual == expected else f"MISMATCH (got {actual})"
        print(f"  d={d:3d}: {expected:2d} = {terms}  [{flag}]")
    print()

    for coeffs in ((1, 1, 1, 1), (1, 1, 1, 5), (1, 1, 1, 6, 6), (1, 1, 1)):
        verdict = check_criterion(DiagonalForm(coeffs), FIFTEEN)
        print(f"sum of {coeffs} squares universal: {verdict}")


if __name__ == "__main__":
    main()
