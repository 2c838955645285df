"""Command-line surface.

Subcommands map one-to-one onto library operations, and every one of
them prints each of the three formats: json (the default), csv and
table.  Exit codes are part of the contract so CI can gate on them:

    0   success (for verify: zero mismatches)
    2   bad input (including non-squarefree d and window/work bound violations)
    3   squarefree d outside the supported class-number-1/2/3 lists
    4   verify found at least one mismatch
"""

import argparse
import csv
import io
import json
import sys

from .classdata import (
    class_reps,
    condition_display,
    congruence_for,
    reps_as_rows,
)
from .quadfield import NotSquarefree, Overflow, UnsupportedField, make_field
from .repsearch import (
    LatticeQuery,
    find_certificate,
    exceptional_set,
    g_invariant,
    min_terms,
)
from .universality import m_d
from .verify import report_table, report_to_json, verify_all


def _emit(fmt: str, doc: dict, rows: list[dict] | None = None, columns: list[str] | None = None,
          table: list[tuple[str, object]] | str | None = None) -> None:
    """Print one result in the format asked for.

    json prints doc compactly.  csv prints rows under a header of columns,
    by default doc as the one row under doc's keys.  table prints (key,
    value) pairs with the keys padded to one width, by default doc's
    items; a str table is the finished text of a hand-laid table.
    """
    if fmt == "json":
        print(json.dumps(doc, separators=(",", ":")))
    elif fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=columns or list(doc), lineterminator="\n")
        writer.writeheader()
        writer.writerows([doc] if rows is None else rows)
        sys.stdout.write(out.getvalue())
    elif isinstance(table, str):
        print(table)
    else:
        pairs = table or list(doc.items())
        width = max(len(key) for key, _ in pairs)
        for key, value in pairs:
            print(f"{key:<{width}}  {value}")


def _norm_form_text(f) -> str:
    _, q, c = f.form_coefficients()
    if q:
        return f"a^2+ab+{c}b^2"
    return f"a^2+{c}b^2"


def _omega_text(f) -> str:
    if f.is_half_branch:
        return f"(1+sqrt(-{f.d}))/2"
    return f"sqrt(-{f.d})"


def cmd_field_info(args) -> int:
    f = make_field(args.d)
    classes = [
        {
            "class_index": rep.class_index,
            "k": rep.k,
            "s": rep.s,
            "t": rep.t,
            "h_scale": "1" if rep.k == 1 else f"1/{rep.k}",
            "condition": condition_display(congruence_for(f, rep)),
        }
        for rep in class_reps(f)
    ]
    doc = {
        "d": f.d,
        "omega_branch": f.omega_branch.value,
        "class_number": f.class_number,
        "norm_form": _norm_form_text(f),
        "classes": classes,
    }
    table = [("d", f.d), ("omega", _omega_text(f)), ("class_number", f.class_number), ("norm_form", doc["norm_form"])]
    table += [
        (f"class {c['class_index']}", f"k={c['k']} s={c['s']} t={c['t']} h={c['h_scale']} condition: {c['condition']}")
        for c in classes
    ]
    columns = ["d", "class_index", "k", "s", "t"]
    rows = [{"d": f.d, **{key: c[key] for key in columns[1:]}} for c in classes]
    _emit(args.format, doc, rows, columns, table)
    return 0


def cmd_min_terms(args) -> int:
    q = LatticeQuery(field=make_field(args.d), class_index=args.class_index, r=args.r)
    result = min_terms(q)
    doc: dict = {"outcome": result.outcome}
    if result.m is not None:
        doc["m"] = result.m
    _emit(args.format, doc, columns=["outcome", "m"])
    return 0


def cmd_certificate(args) -> int:
    q = LatticeQuery(field=make_field(args.d), class_index=args.class_index, r=args.r)
    cert = find_certificate(q, args.m)
    if cert is None:
        result = min_terms(q)
        if result.is_representable:
            doc = {"outcome": "not_found", "min_m": result.m}
        else:
            doc = {"outcome": "unrepresentable"}
        _emit(args.format, doc, columns=["outcome", "min_m"])
        return 0
    doc = cert.to_json_dict()
    table = [(key, doc[key]) for key in ("d", "class_index", "k", "r", "m", "check")]
    table.append(("gammas", " ".join(f"({a},{b})" for a, b in doc["gammas"])))
    _emit(args.format, doc, [{"a": a, "b": b} for a, b in doc["gammas"]], ["a", "b"], table)
    return 0


def cmd_exceptional(args) -> int:
    exceptional = exceptional_set(make_field(args.d), args.class_index, args.r_max)
    doc = {"d": args.d, "class_index": args.class_index, "r_max": args.r_max, "exceptional": exceptional}
    table = list({**doc, "exceptional": " ".join(map(str, exceptional)) or "(none)"}.items())
    _emit(args.format, doc, [{"r": r} for r in exceptional], ["r"], table)
    return 0


def cmd_g(args) -> int:
    result = g_invariant(make_field(args.d), args.r_max)
    ci, r = result.witness.class_index, result.witness.r
    doc = {"d": args.d, "r_max": args.r_max, "g": result.g, "witness": {"class_index": ci, "r": r},
           "stable": result.stable}
    row = {"d": args.d, "r_max": args.r_max, "g": result.g, "witness_class_index": ci, "witness_r": r,
           "stable": result.stable}
    table = list({**doc, "witness": f"class {ci}, r={r}"}.items())
    _emit(args.format, doc, [row], list(row), table)
    return 0


def cmd_m_d(args) -> int:
    _emit(args.format, {"d": args.d, "m_d": m_d(make_field(args.d))})
    return 0


def cmd_verify(args) -> int:
    report = verify_all(args.class_number, r_max=args.r_max)
    rows = [
        {
            "d": fr.d,
            "class": fr.class_number,
            "g_expected": fr.g_expected,
            "g_computed": fr.g_computed,
            "exceptions_match": fr.exceptions_match,
            "stable": fr.stable,
        }
        for fr in report.fields
    ]
    _emit(args.format, report_to_json(report), rows, list(rows[0]), report_table(report))
    return 0 if report.all_match else 4


def cmd_class_table(args) -> int:
    rows = reps_as_rows()
    lines = [f"{'d':>5} {'class_index':>11} {'k':>3} {'s':>4} {'t':>2}"]
    lines += [f"{row['d']:>5} {row['class_index']:>11} {row['k']:>3} {row['s']:>4} {row['t']:>2}" for row in rows]
    _emit(args.format, {"rows": rows}, rows, list(rows[0]), "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normsums",
        description="Sums of norms in imaginary quadratic fields: minimum counts, exceptional sets, uniform bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **help_kw):
        p = sub.add_parser(name, **help_kw)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=["json", "csv", "table"], default="json")
        return p

    p = add("field-info", cmd_field_info, help="field parameters, class representatives, congruence conditions")
    p.add_argument("-d", type=int, required=True)

    p = add("min-terms", cmd_min_terms, help="minimum number of norms for one lattice")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--class", dest="class_index", type=int, required=True)
    p.add_argument("-r", type=int, required=True)

    p = add("certificate", cmd_certificate, help="explicit summand list with exactly m summands")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--class", dest="class_index", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-m", type=int, required=True)

    p = add("exceptional", cmd_exceptional, help="all unrepresentable r up to a bound")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--class", dest="class_index", type=int, required=True)
    p.add_argument("--r-max", dest="r_max", type=int, default=300)

    p = add("g", cmd_g, help="uniform bound g over all classes up to r-max")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--r-max", dest="r_max", type=int, default=300)

    p = add("m-d", cmd_m_d, help="minimum unconstrained-norm count m_d")
    p.add_argument("-d", type=int, required=True)

    p = add("verify", cmd_verify, help="recompute and diff the expected tables")
    p.add_argument("--class-number", dest="class_number", type=int, choices=[2, 3], required=True)
    p.add_argument("--r-max", dest="r_max", type=int, default=300)

    add("class-table", cmd_class_table, help="export every ideal class representative row")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotSquarefree as exc:
        print(f"NotSquarefree: {exc}", file=sys.stderr)
        return 2
    except UnsupportedField as exc:
        print(f"UnsupportedField: {exc}", file=sys.stderr)
        return 3
    except Overflow as exc:
        print(f"Overflow: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
