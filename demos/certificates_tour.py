"""Walk through representation certificates for a few fields.

Shows the admissible norm values of a nonprincipal class, the minimum
summand counts for small r, explicit certificates with their independent
recheck, and the conjugation map between the paired classes of a
class-number-3 field.
"""

from normsums.classdata import condition_display, congruence_for, rep_for
from normsums.quadfield import conjugate, make_field, norm
from normsums.repsearch import LatticeQuery, find_certificate, min_terms
from normsums.verify import recheck_certificate


def show_field(d: int, class_index: int, r_values) -> None:
    f = make_field(d)
    rep = rep_for(f, class_index)
    cond = condition_display(congruence_for(f, rep))
    print(f"-- d={d}, class {class_index}: k={rep.k}, admissible iff {cond}")

    # r*k is one admissible norm exactly when r has a one-summand certificate
    bound = max(12 * rep.k, 2 * rep.k * rep.k)
    singles = (find_certificate(LatticeQuery(f, class_index, r), 1) for r in range(1, bound // rep.k + 1))
    norms = [(c.query.r * rep.k, c.gammas[0]) for c in singles if c is not None]
    pairs = ", ".join(f"{v}=N({w.a}{w.b:+d}w)" for v, w in norms[:6])
    print(f"   first admissible norms: {pairs}")

    for r in r_values:
        q = LatticeQuery(f, class_index, r)
        res = min_terms(q)
        if not res.is_representable:
            print(f"   r={r}: not a sum of norms")
            continue
        cert = find_certificate(q, res.m)
        doc = cert.to_json_dict()
        problems = recheck_certificate(doc)
        gam = " + ".join(f"N({a}{b:+d}w)" for a, b in doc["gammas"])
        status = "ok" if not problems else f"PROBLEMS: {problems}"
        plural = "s" if res.m != 1 else ""
        print(f"   r={r}: {r}*{rep.k} = {gam}  [{res.m} summand{plural}, recheck {status}]")
    print()


def show_transfer(d: int, r: int) -> None:
    f = make_field(d)
    q = LatticeQuery(f, 2, r)
    res = min_terms(q)
    cert = find_certificate(q, res.m)
    # conjugation preserves norms and swaps the paired classes' congruences
    moved = sorted((conjugate(f, g) for g in cert.gammas), key=lambda g: (norm(f, g), g.a, g.b))
    doc = {**cert.to_json_dict(), "class_index": 3, "gammas": [[g.a, g.b] for g in moved]}
    print(f"-- d={d}: conjugation carries class 2 to class 3")
    print(f"   class 2, r={r}: gammas {[(g.a, g.b) for g in cert.gammas]}")
    print(f"   class 3, r={r}: gammas {[(g.a, g.b) for g in moved]}")
    print(f"   moved certificate recheck: {recheck_certificate(doc) or 'ok'}")
    print()


def main() -> None:
    show_field(5, 2, [1, 2, 3, 4, 6])
    show_field(51, 2, [3, 4, 6, 7, 11])
    show_field(907, 2, [81])
    show_transfer(23, 3)

    # the d=907 peak: five summands needed, four provably impossible
    q = LatticeQuery(make_field(907), 2, 81)
    print(f"-- d=907, r=81: minimum summands = {min_terms(q).m}")
    print(f"   exact search with 4 summands: {find_certificate(q, 4)}")
    cert = find_certificate(q, 5)
    f = make_field(907)
    parts = [norm(f, g) for g in cert.gammas]
    print(f"   five-summand split of {sum(parts)}: {' + '.join(map(str, parts))}")


if __name__ == "__main__":
    main()
