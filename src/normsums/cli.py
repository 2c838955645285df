"""Command-line surface.

Subcommands map one-to-one onto library operations, and every one of
them prints each of the three formats: json (the default), csv and
table.  Exit codes are part of the contract so CI can gate on them:

    0   success (for verify: zero mismatches)
    2   bad input (including non-squarefree d and window/work bound violations)
    3   squarefree d outside the supported class-number-1/2/3 lists
    4   verify found at least one mismatch

A library error prints one stderr line, `NotSquarefree: ...`,
`UnsupportedField: ...` or `Overflow: ...` after its class, and
`error: ...` for any other ValueError.  Each flag's argparse spec is
declared once, in `_FLAGS`, and each subcommand once, in `build_parser`,
as its name, `cmd_*` function, help text and the flags it takes.  The
csv and table views follow the records' field order: a csv header is
the first row's keys, and representative rows are `IdealClassRep`'s
fields.

`main` may be called many times in one process (a Python session, a
demo, a benchmark round).  It builds its argparse parser on its first
call and reuses it for every later one: a build makes nine parsers and
a formatter per argument, about a millisecond each time, which is a
sizable share of a small `verify` call.  The parser is not built at
import, so importing the module stays cheap.  See `build_parser` for
what the reuse binds.
"""

import argparse
import csv
import functools
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
from .verify import report_rows, report_table, report_to_json, verify_all


def _emit(fmt: str, doc, rows=None, columns: list[str] | None = None, table=None) -> None:
    """Print one result in the format asked for.

    json prints doc compactly.  csv prints rows, by default doc as the one
    row, under a header of the first row's keys; columns names the header
    where a row may lack a key or there may be no row.  table prints (key,
    value) pairs with the keys padded to one width, by default doc's
    items; a str table is the finished text of a hand-laid table.  doc
    (a dict), rows (a list of dicts) and table (a list of pairs or a str)
    may each be given as a callable that makes it, called only when the
    format asked for reads it.
    """
    def made(view):
        return view() if callable(view) else view

    if fmt == "json":
        print(json.dumps(made(doc), separators=(",", ":")))
        return
    if fmt == "csv":
        rows = [made(doc)] if rows is None else made(rows)
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=columns or list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
        return
    table = made(table)
    if isinstance(table, str):
        print(table)
        return
    pairs = table or list(made(doc).items())
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
    reps = class_reps(f)
    classes = [
        {
            **rep._asdict(),
            "h_scale": "1" if rep.k == 1 else f"1/{rep.k}",
            "condition": condition_display(congruence_for(f, rep)),
        }
        for rep in reps
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
    _emit(args.format, doc, [{"d": f.d, **rep._asdict()} for rep in reps], table=table)
    return 0


def cmd_min_terms(args) -> int:
    q = LatticeQuery(field=make_field(args.d), class_index=args.class_index, r=args.r)
    doc = {key: value for key, value in min_terms(q)._asdict().items() if value is not None}
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
    _emit(args.format, doc, [{"a": a, "b": b} for a, b in doc["gammas"]], table=table)
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
    _emit(args.format, doc, [row], table=table)
    return 0


def cmd_m_d(args) -> int:
    _emit(args.format, {"d": args.d, "m_d": m_d(make_field(args.d))})
    return 0


def cmd_verify(args) -> int:
    report = verify_all(args.class_number, r_max=args.r_max)
    _emit(args.format, lambda: report_to_json(report), lambda: report_rows(report),
          table=lambda: report_table(report))
    return 0 if report.all_match else 4


def cmd_class_table(args) -> int:
    rows = reps_as_rows()
    lines = [f"{'d':>5} {'class_index':>11} {'k':>3} {'s':>4} {'t':>2}"]
    lines += [f"{row['d']:>5} {row['class_index']:>11} {row['k']:>3} {row['s']:>4} {row['t']:>2}" for row in rows]
    _emit(args.format, {"rows": rows}, rows, table="\n".join(lines))
    return 0


# each flag's argparse spec; a subcommand names the flags it takes
_FLAGS = {
    "--format": {"choices": ["json", "csv", "table"], "default": "json"},
    "-d": {"type": int, "required": True},
    "--class": {"dest": "class_index", "type": int, "required": True},
    "-r": {"type": int, "required": True},
    "-m": {"type": int, "required": True},
    "--r-max": {"type": int, "default": 300},
    "--class-number": {"type": int, "choices": [2, 3], "required": True},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built on the first call in a process.

    Later calls return that same parser.  Parsing leaves no state on it,
    so a reused parser reads each argv as a fresh one would, defaults
    included.  Each subcommand's `set_defaults(func=cmd_*)` binds the
    `cmd_*` function found at the first build: rebinding a `cmd_*` name
    on this module after that does not reach `main`.
    """
    parser = argparse.ArgumentParser(
        prog="normsums",
        description="Sums of norms in imaginary quadratic fields: minimum counts, exceptional sets, uniform bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, flags in (
        ("field-info", cmd_field_info, "field parameters, class representatives, congruence conditions", ["-d"]),
        ("min-terms", cmd_min_terms, "minimum number of norms for one lattice", ["-d", "--class", "-r"]),
        ("certificate", cmd_certificate, "explicit summand list with exactly m summands",
         ["-d", "--class", "-r", "-m"]),
        ("exceptional", cmd_exceptional, "all unrepresentable r up to a bound", ["-d", "--class", "--r-max"]),
        ("g", cmd_g, "uniform bound g over all classes up to r-max", ["-d", "--r-max"]),
        ("m-d", cmd_m_d, "minimum unconstrained-norm count m_d", ["-d"]),
        ("verify", cmd_verify, "recompute and diff the expected tables", ["--class-number", "--r-max"]),
        ("class-table", cmd_class_table, "export every ideal class representative row", []),
    ):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        for flag in ("--format", *flags):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, Overflow) as exc:
        named = isinstance(exc, (NotSquarefree, UnsupportedField, Overflow))
        print(f"{type(exc).__name__ if named else 'error'}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, UnsupportedField) else 2


if __name__ == "__main__":
    raise SystemExit(main())
