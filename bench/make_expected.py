"""Record the answers the benchmark checks against.

Run once on the commit whose answers are the reference:

    python3 bench/make_expected.py

It writes bench/expected/queries.json (for every (d, class, r) a
queries op can ask, "m:hash": the minimum count, 0 when unrepresentable,
and a hash of the outcome and canonical certificate)
and bench/expected/coverage.json (the field list, the pool of forms the
coverage workload samples from, with their verdicts, and Sun's
polynomial verdict).  Regenerating them on a later commit would make the
benchmark check that commit against itself.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from normsums import quadfield, repsearch, universality  # noqa: E402


def queries_expected() -> dict:
    rs = list(range(1, wl.SMALL_R)) + wl.r_grid()
    answers = {}
    for d in quadfield.SUPPORTED_FIELDS:
        f = quadfield.make_field(d)
        for ci in range(1, f.class_number + 1):
            row = []
            for r in rs:
                q = repsearch.LatticeQuery(f, ci, r)
                res = repsearch.min_terms(q)
                gammas = []
                if res.is_representable:
                    gammas = repsearch.find_certificate(q, res.m).to_json_dict()["gammas"]
                row.append(f"{res.m or 0}:{wl.answer_hash(d, ci, r, res.outcome, res.m, gammas)}")
            answers[f"{d}:{ci}"] = " ".join(row)
            print(f"queries d={d} class {ci}", file=sys.stderr)
    return {"r": rs, "answers": answers}


def candidate_forms():
    for rank in (3, 4):
        for coeffs in itertools.combinations_with_replacement(range(1, 6), rank):
            yield {"diag": list(coeffs)}
    kinds = [(k, w) for k in ("Square", "Triangular") for w in (1, 2, 3)]
    for rank in (3, 4):
        for terms in itertools.combinations_with_replacement(kinds, rank):
            if any(k == "Triangular" for k, _ in terms):
                yield {"mixed": [list(t) for t in terms]}


def coverage_expected() -> dict:
    forms = []
    for spec in candidate_forms():
        form = wl.make_form(spec)
        ok, gap = universality.universal_up_to(form, wl.UNIVERSAL_LIMIT)
        criterion = universality.FIFTEEN if "diag" in spec else universality.TWO_NINETY
        forms.append({"form": spec, "universal": [ok, gap], "criterion": universality.check_criterion(form, criterion)})
    return {
        "fields": list(quadfield.SUPPORTED_FIELDS),
        "sun": list(universality.sun_polynomial_universal(wl.UNIVERSAL_LIMIT)),
        "forms": forms,
    }


def write(name: str, doc: dict) -> None:
    path = wl.EXPECTED_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write("coverage", coverage_expected())
    write("queries", queries_expected())
