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
from normsums.universality import (
    FIFTEEN,
    DiagonalForm,
    check_criterion,
    m_d,
    norm_sum_first_gap,
    three_norm_witness_table,
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
    for w in sorted(three_norm_witness_table(), key=lambda w: (w.d, w.expected)):
        a1, b1, a2, b2, a3, b3 = w.coords
        terms = " + ".join(f"N({a}{b:+d}w)" for a, b in ((a1, b1), (a2, b2), (a3, b3)))
        flag = "ok" if w.ok else f"MISMATCH (got {w.actual})"
        print(f"  d={w.d:3d}: {w.expected:2d} = {terms}  [{flag}]")
    print()

    for coeffs in ((1, 1, 1, 1), (1, 1, 1, 5), (1, 1, 1, 6, 6), (1, 1, 1)):
        verdict = check_criterion(DiagonalForm(coeffs), FIFTEEN)
        print(f"sum of {coeffs} squares universal: {verdict}")


if __name__ == "__main__":
    main()
