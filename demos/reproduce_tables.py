"""Recompute both expected-result tables from scratch and diff them.

Every class-number-2 and class-number-3 field is swept over the window
r <= 300: exceptional sets, minimum-count maxima, and stability of the
maximum on the lower half window.  Exit status 0 means every row agreed.
"""

import sys

from normsums.verify import report_table, verify_all


def main() -> int:
    ok = True
    for class_number in (2, 3):
        report = verify_all(class_number, r_max=300)
        print(f"== class number {class_number} ==")
        print(report_table(report))
        print(f"elapsed: {report.runtime_seconds:.2f}s")
        print()
        ok = ok and report.all_match
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
