"""Command line surface.

Subcommands: count, classify, bounds, verify, scan. Output is a human table
by default, or machine JSON/CSV; JSON and CSV are byte-identical across runs
for a fixed invocation and seed (class counts travel as decimal strings, and
timings are never serialized).

Exit codes: 0 success, 1 invalid input or failed verification, 2 budget
refusal (the job was understood but is too large for the configured limits).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from fractions import Fraction
from typing import Sequence

from . import bounds as bounds_mod
from . import classcount, combinatorics
from .actions import fix_subsets_direct, parse_group_spec, sigma_prime
from .budgets import Budgets, from_env
from .errors import BudgetExceeded, Infeasible, NotSemiprimitive, WreathcountError
from .permgroup import (
    class_count,
    closure_elements,
    coloring_stabilizer,
    numeric_invariants,
    parse_generators,
    structure_classify,
)

VERIFY_SUITES = ("oracles", "burnside", "formulas", "bounds", "semiprimitive")


class _UsageError(WreathcountError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; here 2 means budget refusal,
    # so usage problems are rerouted through an exception and become exit 1
    def error(self, message):
        raise _UsageError(message)


def _budget_limit(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(p: _Parser, with_group: bool = True, with_k: bool = True):
    if with_group:
        p.add_argument("--group", action="append", required=True,
                       help="group spec, e.g. cyclic:5 or gens:4,(1 2)(3 4); repeatable")
    if with_k:
        p.add_argument("--k", type=int, default=None,
                       help="number of classes of the base group X (k >= 1)")
        p.add_argument("--x-gens", default=None, metavar="CYCLES",
                       help="generators of X in cycle notation; only k(X) is used")
    p.add_argument("--output", choices=("table", "json", "csv"), default="table")
    p.add_argument("--budget-max-order", type=_budget_limit, default=None, metavar="N")
    p.add_argument("--budget-max-colorings", type=_budget_limit, default=None, metavar="N")
    p.add_argument("--budget-max-lift", type=_budget_limit, default=None, metavar="N")


def build_parser() -> _Parser:
    parser = _Parser(prog="wreathcount",
                     description="Exact conjugacy class counts for wreath products X wr H.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count classes of X wr H")
    _add_common(p)
    p.add_argument("--method", choices=("auto", "clifford", "brute", "closed-form", "all"),
                   default="auto")

    p = sub.add_parser("classify", help="structural classification of H")
    _add_common(p, with_k=False)

    p = sub.add_parser("bounds", help="evaluate the bound and predicate reports for (H, k)")
    _add_common(p)
    p.add_argument("--e-source", choices=("auto",) + bounds_mod.E_SOURCES, default="auto",
                   help="where the subgroup class-count maximum e comes from")

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled formula checks")
    _add_common(p, with_group=False, with_k=False)

    p = sub.add_parser("scan", help="exact counts for the counterexample family")
    p.add_argument("--m", default="2,3", metavar="LIST",
                   help="comma-separated m values (default 2,3)")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--probe-fixed-subsets", action="store_true",
                   help="probe the fixed-subset fraction claim instead of counting")
    _add_common(p, with_group=False, with_k=False)

    return parser


def _budgets_from_args(args) -> Budgets:
    return from_env().with_overrides(
        max_group_order=args.budget_max_order,
        max_coloring_space=args.budget_max_colorings,
        max_lift_degree=args.budget_max_lift,
    )


def _resolve_k(args, budgets: Budgets) -> int:
    if getattr(args, "x_gens", None):
        if args.k is not None:
            raise _UsageError("--k and --x-gens are mutually exclusive")
        xgrp = closure_elements(parse_generators(args.x_gens), budgets)
        return class_count(xgrp)
    if args.k is None:
        raise _UsageError("--k (or --x-gens) is required")
    if args.k < 1:
        raise _UsageError("--k must be >= 1")
    return args.k


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _csv_line(fields: Sequence[str]) -> str:
    """One CSV record, quoting fields that embed commas (group specs do)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# count


def _count_one(spec: str, k: int, method: str, budgets: Budgets) -> classcount.CountResult:
    group = parse_group_spec(spec, budgets)
    n = group.degree
    if method == "auto":
        return classcount.auto_count(group, k, budgets)
    if method == "clifford":
        return classcount.clifford_count(group, k, budgets)
    if method == "brute":
        return classcount.brute_force_count(k, group, budgets)
    closed = classcount.closed_form(group, k)
    if method == "closed-form":
        if closed is None:
            raise ValueError(f"no closed form for {group.spec_string()}")
        return classcount.CountResult(k=k, group=group, degree=n, method="closed-form",
                                      value=closed)
    # method == "all": every feasible route must agree
    ran = {} if closed is None else {"closed-form": closed}
    try:
        ran["clifford"] = classcount.clifford_count(group, k, budgets).value
    except BudgetExceeded:
        pass
    try:
        ran["brute"] = classcount.brute_force_count(k, group, budgets).value
    except BudgetExceeded:
        pass
    if not ran:
        return classcount.auto_count(group, k, budgets)  # raises Infeasible with a bracket
    if len(set(ran.values())) != 1:
        raise WreathcountError(f"methods disagree on {spec}, k={k}: {ran}")
    return classcount.CountResult(
        k=k, group=group, degree=n, method="all:" + "+".join(sorted(ran)),
        value=next(iter(ran.values())))


def _cmd_count(args) -> int:
    budgets = _budgets_from_args(args)
    k = _resolve_k(args, budgets)
    results = [_count_one(spec, k, args.method, budgets) for spec in args.group]
    if args.output == "json":
        dicts = [r.to_json_dict() for r in results]
        _emit_json(dicts[0] if len(dicts) == 1 else dicts)
    elif args.output == "csv":
        print("group,k,degree,method,value,orbit_count")
        for r in results:
            oc = "" if r.orbit_count is None else str(r.orbit_count)
            print(_csv_line([r.group.spec_string(), str(r.k), str(r.degree),
                             r.method, str(r.value), oc]))
    else:
        rows = [[r.group.spec_string(), str(r.k), r.method, str(r.value)] for r in results]
        print(_table(rows, ["group", "k", "method", "value"]))
    return 0


# ---------------------------------------------------------------------------
# classify


def _classify_one(spec: str, budgets: Budgets) -> dict:
    group = parse_group_spec(spec, budgets)
    report = structure_classify(group, budgets)
    out = {
        "group": group.spec_string(),
        "degree": group.degree,
        "order": group.order,
        "abelian": group.is_abelian(),
        "transitive": report.transitive,
        "semiregular": report.semiregular,
        "primitive": report.primitive,
        "semiprimitive": report.semiprimitive,
        "normal_subgroups": report.normal_subgroup_count,
    }
    if group.order > 1:
        inv = numeric_invariants(group)
        out.update(mu=inv.mu, base_size=inv.b, max_sigma=inv.max_sigma)
    return out


def _cmd_classify(args) -> int:
    budgets = _budgets_from_args(args)
    results = [_classify_one(spec, budgets) for spec in args.group]
    if args.output == "json":
        _emit_json(results[0] if len(results) == 1 else results)
    elif args.output == "csv":
        keys = ["group", "degree", "order", "abelian", "transitive", "semiregular",
                "primitive", "semiprimitive", "normal_subgroups", "mu", "base_size",
                "max_sigma"]
        print(",".join(keys))
        for r in results:
            print(_csv_line([_plain(r.get(key, "")) for key in keys]))
    else:
        for r in results:
            for key, val in r.items():
                print(f"{key}: {_plain(val)}")
    return 0


def _plain(val) -> str:
    if isinstance(val, bool):
        return "yes" if val else "no"
    return str(val)


# ---------------------------------------------------------------------------
# bounds


def _render_cell(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _nonregular_reports(group, k: int, budgets: Budgets) -> list:
    from .permgroup import max_cycle_count

    try:
        stats = classcount.nonregular_orbit_stats(group, k, budgets)
    except BudgetExceeded as exc:
        return [bounds_mod.BoundReport("nonregular-orbit-count", None, None,
                                       "indeterminate", "exact", {"k": k},
                                       note=f"orbit census skipped: {exc}")]
    ms = max_cycle_count(group)
    base = {"k": k, "n": group.degree, "order": group.order, "max_sigma": ms}
    return [
        bounds_mod.BoundReport("nonregular-orbit-count", stats.nonregular_orbits,
                               2 * k ** ms, stats.nonregular_orbits < 2 * k ** ms,
                               "exact", dict(base)),
        bounds_mod.BoundReport("nonregular-union-size", stats.delta_size,
                               (group.order - 1) * k ** ms,
                               stats.delta_size <= (group.order - 1) * k ** ms,
                               "exact", dict(base)),
    ]


def _bounds_one(spec: str, k: int, e_source: str, budgets: Budgets) -> dict:
    group = parse_group_spec(spec, budgets)
    if e_source == "auto":
        e_source = ("exact-lattice" if group.order <= budgets.max_subgroup_order
                    else "five-pow-n-third")
    reports = [bounds_mod.count_upper_bound(group, k, e_source, budgets)]
    reports.extend(bounds_mod.predicates(group, k, budgets))
    reports.extend(_nonregular_reports(group, k, budgets))

    match = bounds_mod.large_base_match(group)
    if match is not None:
        m, ell, t = match
        reports.append(bounds_mod.subset_orbit_bound(m, ell, k, budgets))
        try:
            reports.append(bounds_mod.product_orbit_identity(m, ell, t, k, budgets))
            reports.append(bounds_mod.large_base_count_bound(m, ell, t, k, budgets))
        except BudgetExceeded:
            pass

    semi = None
    try:
        struct = structure_classify(group, budgets)
        if struct.transitive and struct.semiprimitive and not struct.primitive:
            semi = bounds_mod.semiprimitive_report(group, k, budgets)
    except BudgetExceeded:
        pass  # bound reports stand on their own for groups too big to classify
    return {"group": group.spec_string(), "k": k, "reports": reports, "semiprimitive": semi}


def _cmd_bounds(args) -> int:
    budgets = _budgets_from_args(args)
    k = _resolve_k(args, budgets)
    results = [_bounds_one(spec, k, args.e_source, budgets) for spec in args.group]
    if args.output == "json":
        dicts = []
        for res in results:
            dicts.append({
                "group": res["group"],
                "k": res["k"],
                "reports": [r.to_json_dict() for r in res["reports"]],
                "semiprimitive": (None if res["semiprimitive"] is None
                                  else res["semiprimitive"].to_json_dict()),
            })
        _emit_json(dicts[0] if len(dicts) == 1 else dicts)
    elif args.output == "csv":
        print("group,name,lhs,rhs,holds,mode,asymptotic")
        for res in results:
            for r in res["reports"]:
                print(_csv_line([res["group"], r.name, _render_cell(r.lhs),
                                 _render_cell(r.rhs), str(r.holds).lower(), r.mode,
                                 str(r.asymptotic).lower()]))
    else:
        for res in results:
            print(f"group {res['group']}  k={res['k']}")
            rows = [[r.name, _render_cell(r.lhs), _render_cell(r.rhs),
                     str(r.holds).lower(), r.mode, r.note] for r in res["reports"]]
            print(_table(rows, ["name", "lhs", "rhs", "holds", "mode", "note"]))
            semi = res["semiprimitive"]
            if semi is not None:
                print(f"semiprimitive decomposition: r={semi.r} kernel={semi.kernel_order} "
                      f"quotient={semi.quotient_order} "
                      f"kernel_semiregular={_plain(semi.kernel_semiregular)} "
                      f"cycle_bound={_plain(semi.cycle_bound_holds)} "
                      f"alpha_bound={_plain(semi.alpha_bound_holds)}")
                print(f"  chain: {semi.orbit_count} < {_render_cell(semi.chain_rhs)} "
                      f"({semi.chain_mode}) holds={str(semi.chain_holds).lower()}")
    return 0


# ---------------------------------------------------------------------------
# verify

# the shared small-group matrix: every (k, H) with k**n * |H| <= 10**6
ORACLE_SPECS = ("cyclic:2", "cyclic:3", "cyclic:4", "gens:4,(1 2)(3 4),(1 3)(2 4)",
                "symmetric:3", "dihedral:4", "wreath-cyclic:2", "cyclic:5")


def _expect(cond: bool, detail: str):
    if not cond:
        raise AssertionError(detail)


def _oracle_cases(budgets: Budgets) -> list:
    cases = []

    def make(spec: str, k: int):
        def run():
            group = parse_group_spec(spec, budgets)
            if k ** group.degree * group.order > 1_000_000:
                return
            c = classcount.clifford_count(group, k, budgets).value
            b = classcount.brute_force_count(k, group, budgets).value
            _expect(c == b, f"clifford {c} != brute {b}")
        return run

    for k in (2, 3):
        for spec in ORACLE_SPECS:
            cases.append((f"clifford=brute {spec} k={k}", make(spec, k)))

    goldens = (("cyclic:2", 2, 5), ("cyclic:3", 2, 8), ("cyclic:2", 3, 9))
    for spec, k, want in goldens:
        def run(spec=spec, k=k, want=want):
            got = classcount.clifford_count(parse_group_spec(spec, budgets), k, budgets).value
            _expect(got == want, f"expected {want}, got {got}")
        cases.append((f"golden {spec} k={k} -> {want}", run))
    return cases


def _burnside_cases(budgets: Budgets) -> list:
    cases = []

    def make(spec: str, k: int):
        def run():
            group = parse_group_spec(spec, budgets)
            averaged = classcount.burnside_orbit_count(group, k)
            direct = classcount.direct_orbit_count(group, k, budgets)
            _expect(averaged == direct, f"burnside {averaged} != direct {direct}")
        return run

    for k in (2, 3):
        for spec in ORACLE_SPECS:
            cases.append((f"burnside=direct {spec} k={k}", make(spec, k)))
    for m, ell in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 2)):
        cases.append((f"burnside=direct subsets:{m},{ell} k=2", make(f"subsets:{m},{ell}", 2)))
    for m, ell in ((4, 2), (5, 2)):
        cases.append((f"burnside=direct subsets:{m},{ell} k=3", make(f"subsets:{m},{ell}", 3)))

    def comp(n: int, k: int):
        def run():
            group = parse_group_spec(f"symmetric:{n}", budgets)
            got = classcount.burnside_orbit_count(group, k)
            want = combinatorics.weak_composition_count(n, k)
            _expect(got == want, f"symmetric:{n} k={k}: burnside {got} != C(n+k-1,k-1) {want}")
        return run

    for n in range(2, 7):
        for k in (2, 3, 4):
            cases.append((f"compositions symmetric:{n} k={k}", comp(n, k)))
    return cases


def _iter_sym(m: int):
    from itertools import permutations

    from .permgroup import Permutation

    for images in permutations(range(m)):
        yield Permutation._unsafe(images)


def _formula_cases(budgets: Budgets, seed: int) -> list:
    from .actions import cycle_type
    from .permgroup import Permutation

    cases = []

    def fix_all(m: int):
        def run():
            for p in _iter_sym(m):
                ct = cycle_type(p)
                for ell in range(0, m + 1):
                    f = combinatorics.fix_subsets_formula(ct, ell, budgets)
                    d = fix_subsets_direct(p, ell, budgets)
                    _expect(f == d, f"m={m} ell={ell} pi={p.cycle_string()}: {f} != {d}")
        return run

    for m in range(1, 7):
        cases.append((f"fix-subsets formula=direct S_{m} exhaustive", fix_all(m)))

    def fix_random():
        rng = random.Random(seed)
        for _ in range(50):
            images = list(range(12))
            rng.shuffle(images)
            p = Permutation(images)
            ct = cycle_type(p)
            for ell in range(1, 6):
                f = combinatorics.fix_subsets_formula(ct, ell, budgets)
                d = fix_subsets_direct(p, ell, budgets)
                _expect(f == d, f"random m=12 ell={ell} pi={p.cycle_string()}: {f} != {d}")
    cases.append(("fix-subsets formula=direct m=12 sampled", fix_random))

    def stirling_rows():
        # stirling_first(j, m) = permutations of m points with j cycles
        for m in range(1, 13):
            total = sum(combinatorics.stirling_first(j, m) for j in range(0, m + 1))
            _expect(total == math.factorial(m), f"row {m} sums to {total}, not {m}!")
            by_cycles = {}
            for part in combinatorics.partition_enum(m):
                size = math.factorial(m)
                for length, mult in part.multiplicities().items():
                    size //= length ** mult * math.factorial(mult)
                by_cycles[part.num_parts] = by_cycles.get(part.num_parts, 0) + size
            for j, size in by_cycles.items():
                want = combinatorics.stirling_first(j, m)
                _expect(size == want, f"S({j},{m}): class sizes give {size}, table {want}")
    cases.append(("stirling first kind row identities", stirling_rows))

    def tuples_check():
        for n in range(0, 21):
            _expect(combinatorics.tuples_of_partitions_count(1, n)
                    == combinatorics.partition_count(n), f"k=1 mismatch at n={n}")
        _expect(combinatorics.tuples_of_partitions_count(2, 3) == 10, "tuples(2,3) != 10")
        for n in range(1, 6):
            for k in (2, 3):
                got = classcount.clifford_count(
                    parse_group_spec(f"symmetric:{n}", budgets), k, budgets).value
                want = combinatorics.tuples_of_partitions_count(k, n)
                _expect(got == want, f"clifford S_{n} k={k}: {got} != tuples {want}")
    cases.append(("tuples-of-partitions closed form", tuples_check))

    def schmid():
        for p in (2, 3, 5):
            for k in range(1, 5):
                exact, upper = classcount.schmid_cyclic(k, p)
                got = classcount.clifford_count(
                    parse_group_spec(f"cyclic:{p}", budgets), k, budgets).value
                _expect(got == exact, f"cyclic:{p} k={k}: clifford {got} != formula {exact}")
                _expect(got <= upper, f"cyclic:{p} k={k}: clifford {got} > upper {upper}")
        for n in range(2, 9):
            for k in range(1, 5):
                _, upper = classcount.schmid_cyclic(k, n)
                got = classcount.clifford_count(
                    parse_group_spec(f"cyclic:{n}", budgets), k, budgets).value
                _expect(got <= upper, f"cyclic:{n} k={k}: clifford {got} > upper {upper}")
    cases.append(("cyclic closed form and upper bound", schmid))
    return cases


def _bounds_cases(budgets: Budgets) -> list:
    cases = []

    def preds(spec: str, k: int):
        def run():
            group = parse_group_spec(spec, budgets)
            for rep in bounds_mod.predicates(group, k, budgets):
                if rep.name in ("min-degree-base-product", "fixed-point-ratio",
                                "cycle-count-half-bound"):
                    _expect(rep.holds is True,
                            f"{rep.name}: lhs={rep.lhs} rhs={rep.rhs} holds={rep.holds}")
        return run

    def upper(spec: str, k: int):
        def run():
            group = parse_group_spec(spec, budgets)
            rep = bounds_mod.count_upper_bound(group, k, "exact-lattice", budgets)
            _expect(rep.holds is True, f"lhs={rep.lhs} rhs={rep.rhs} holds={rep.holds}")
        return run

    def census(spec: str, k: int):
        def run():
            group = parse_group_spec(spec, budgets)
            classcount.nonregular_orbit_stats(group, k, budgets)  # raises on violation
        return run

    def identity(spec: str, k: int):
        def run():
            group = parse_group_spec(spec, budgets)
            n, order = group.degree, group.order
            reps = classcount.coloring_orbit_reps(group, k, budgets)
            delta = sum(size for _, size in reps if size < order)
            inertia = 0
            for enc, size in reps:
                if size < order:
                    stab = coloring_stabilizer(group, classcount.decode_coloring(enc, k, n))
                    inertia += class_count(stab)
            _expect((k ** n - delta) % order == 0, "regular part not divisible by |H|")
            want = (k ** n - delta) // order + inertia
            got = classcount.clifford_count(group, k, budgets).value
            _expect(got == want, f"identity value {want} != clifford {got}")
        return run

    for spec in ORACLE_SPECS:
        for k in (2, 3):
            cases.append((f"predicates {spec} k={k}", preds(spec, k)))
            cases.append((f"count-upper-bound {spec} k={k}", upper(spec, k)))
            cases.append((f"orbit census {spec} k={k}", census(spec, k)))
            cases.append((f"inertia identity {spec} k={k}", identity(spec, k)))

    def lifted_half_bound():
        for m in range(2, 7):
            for p in _iter_sym(m):
                for ell in range(1, m):
                    sp = sigma_prime(p, ell, budgets)
                    fx = fix_subsets_direct(p, ell, budgets)
                    c = math.comb(m, ell)
                    _expect(2 * sp - fx <= c,
                            f"m={m} ell={ell} pi={p.cycle_string()}: 2*{sp}-{fx} > {c}")
    cases.append(("lifted cycle-count-half-bound S_m ell-subsets", lifted_half_bound))

    def product_identity():
        for m in (2, 3, 4):
            for t in (1, 2):
                for k in (1, 2):
                    rep = bounds_mod.product_orbit_identity(m, 1, t, k, budgets)
                    _expect(rep.holds is True, f"m={m} t={t} k={k}: {rep.lhs} != {rep.rhs}")
    cases.append(("product action orbit identity", product_identity))

    def subset_exact():
        want = classcount.burnside_orbit_count(parse_group_spec("subsets:5,2", budgets), 2)
        got = bounds_mod.subset_orbit_count_exact(5, 2, 2, budgets)
        _expect(got == want, f"cycle-type route {got} != lifted-group route {want}")
    cases.append(("subset orbit count: cycle-type route", subset_exact))
    return cases


def _semiprimitive_cases(budgets: Budgets) -> list:
    cases = []

    def good(spec: str, k: int):
        def run():
            group = parse_group_spec(spec, budgets)
            rep = bounds_mod.semiprimitive_report(group, k, budgets)
            _expect(rep.kernel_semiregular, "kernel is not semiregular")
            _expect(rep.cycle_bound_holds, "sigma <= (n/r)*sigma_blocks failed")
            _expect(rep.alpha_bound_holds, "alpha bound failed")
            _expect(rep.chain_holds is True,
                    f"chain {rep.orbit_count} < {rep.chain_rhs} failed ({rep.chain_mode})")
        return run

    for spec in ("cyclic:4", "cyclic:6", "cyclic:8", "quaternion"):
        for k in (2, 3):
            cases.append((f"decomposition checks {spec} k={k}", good(spec, k)))

    def rejected():
        group = parse_group_spec("wreath-cyclic:2", budgets)
        try:
            bounds_mod.semiprimitive_report(group, 2, budgets)
        except NotSemiprimitive:
            return
        raise AssertionError("wreath-cyclic:2 accepted but is not semiprimitive")
    cases.append(("wreath-cyclic:2 rejected", rejected))

    def shapes():
        rep4 = bounds_mod.semiprimitive_report(parse_group_spec("cyclic:4", budgets), 2, budgets)
        _expect(rep4.r == 2 and rep4.kernel_order == 2,
                f"cyclic:4 expected r=2 |K|=2, got r={rep4.r} |K|={rep4.kernel_order}")
        rep6 = bounds_mod.semiprimitive_report(parse_group_spec("cyclic:6", budgets), 2, budgets)
        _expect(rep6.r in (2, 3), f"cyclic:6 expected r in {{2,3}}, got {rep6.r}")
    cases.append(("decomposition shapes", shapes))
    return cases


def _cmd_verify(args) -> int:
    budgets = _budgets_from_args(args)
    builders = {
        "oracles": lambda: _oracle_cases(budgets),
        "burnside": lambda: _burnside_cases(budgets),
        "formulas": lambda: _formula_cases(budgets, args.seed),
        "bounds": lambda: _bounds_cases(budgets),
        "semiprimitive": lambda: _semiprimitive_cases(budgets),
    }
    cases = builders[args.suite]()
    failed = 0
    for name, fn in cases:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - a suite must report, not crash
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{args.suite}: {len(cases) - failed}/{len(cases)} passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# scan


def _parse_m_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _UsageError(f"bad --m list: {text!r}")
    if not values or any(v < 1 for v in values):
        raise _UsageError("--m needs positive integers")
    return values


def _cmd_scan(args) -> int:
    budgets = _budgets_from_args(args)
    m_values = _parse_m_list(args.m)
    if args.probe_fixed_subsets:
        results = bounds_mod.fixed_subset_fraction_probe(m_values, budgets)
        if args.output == "json":
            _emit_json([{"m": m,
                         "clean": w is None,
                         "witness": None if w is None else {"parts": list(w[0]), "ell": w[1]}}
                        for m, w in results])
        elif args.output == "csv":
            print("m,clean,witness_parts,witness_ell")
            for m, w in results:
                if w is None:
                    print(f"{m},true,,")
                else:
                    print(f"{m},false,{'+'.join(map(str, w[0]))},{w[1]}")
        else:
            for m, w in results:
                if w is None:
                    print(f"m={m}: clean")
                else:
                    print(f"m={m}: counterexample at cycle type {w[0]} ell={w[1]}")
        return 0

    rows = bounds_mod.counterexample_scan(m_values, args.k, budgets)
    if args.output == "json":
        _emit_json([{"param": r.param, "k": r.k, "n": r.n, "order": r.order,
                     "value": None if r.value is None else str(r.value),
                     "bound": r.bound, "holds": r.holds, "mode": r.mode} for r in rows])
    elif args.output == "csv":
        sys.stdout.write(bounds_mod.rows_to_csv(rows))
    else:
        table_rows = [[r.param, str(r.k), str(r.n), str(r.order),
                       "-" if r.value is None else str(r.value),
                       r.bound, str(r.holds).lower(), r.mode] for r in rows]
        print(_table(table_rows, ["param", "k", "n", "order", "value", "bound",
                                  "holds", "mode"]))
    return 0


# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    dispatch = {
        "count": _cmd_count,
        "classify": _cmd_classify,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
    }
    try:
        return dispatch[args.command](args)
    except Infeasible as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        if exc.lower is not None:
            print(f"bracket: {exc.lower} <= value < {exc.upper}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 2
    except (WreathcountError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
