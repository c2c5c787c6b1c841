"""The cross-check suites behind ``wreathcount verify``.

Each suite in SUITES is a list of (name, check, args) cases. A check is
called as check(budgets, *args) and raises when its identity fails;
run_suite prints one PASS or FAIL line per case, in table order, then a
summary line. The suites re-check the exact identities the counts rest on:

* oracles: every exact route agrees (route_values, which count --method all
  also runs), clifford and brute both ran, and the agreed value equals its
  frozen golden in TRIANGULATION_GOLDENS on all 16 cells; three golden cases
  also check clifford alone.
* burnside: the Burnside orbit count equals the number of orbits in the
  full census (coloring_orbit_reps), and equals C(n+k-1, k-1) for the
  symmetric group.
* formulas: the fixed-subset formula, Stirling rows, tuples of partitions
  (clifford on S_n, n 1..7, k 1..3) and the cyclic closed form (exact on
  prime n, upper bound on n 2..8, k 1..4) against direct enumeration and
  clifford.
* bounds: the unconditional predicates, the class-count upper bound, the
  two census rows (bounds.census_rows), the inertia sum, the lifted
  cycle-count half bound 2*sigma' - fix <= C(m, ell) (sigma' and fix both
  read off one subset lift per (p, ell)) and the subset and product orbit
  identities.
* semiprimitive: block decomposition reports, with their exact (r, |K|)
  and exact orbit-count chain, and their rejections.
"""

from __future__ import annotations

import math
from itertools import permutations
from operator import eq

from . import bounds as bounds_mod
from . import classcount, combinatorics
from .actions import (cycle_type, cycle_type_class_size, fix_subsets_direct,
                      parse_group_spec, subsets_action_lift)
from .budgets import Budgets
from .errors import NotSemiprimitive
from .permgroup import class_count, coloring_stabilizers, cycle_count, cycle_string

# the shared small-group matrix: every (k, H) with k**n * |H| <= 10**6
ORACLE_SPECS = ("cyclic:2", "cyclic:3", "cyclic:4", "gens:4,(1 2)(3 4),(1 3)(2 4)",
                "symmetric:3", "dihedral:4", "wreath-cyclic:2", "cyclic:5")

# k(X wr H) on each ORACLE_SPECS cell at k = 2, 3, frozen after clifford and
# brute agreed
TRIANGULATION_GOLDENS = {
    ("cyclic:2", 2): 5,
    ("cyclic:2", 3): 9,
    ("cyclic:3", 2): 8,
    ("cyclic:3", 3): 17,
    ("cyclic:4", 2): 13,
    ("cyclic:4", 3): 36,
    ("gens:4,(1 2)(3 4),(1 3)(2 4)", 2): 16,
    ("gens:4,(1 2)(3 4),(1 3)(2 4)", 3): 45,
    ("symmetric:3", 2): 10,
    ("symmetric:3", 3): 22,
    ("dihedral:4", 2): 20,
    ("dihedral:4", 3): 54,
    ("wreath-cyclic:2", 2): 20,
    ("wreath-cyclic:2", 3): 54,
    ("cyclic:5", 2): 16,
    ("cyclic:5", 3): 63,
}

# stands for the run's seed in a case's args
_SEED = object()


def _expect(cond: bool, detail: str):
    if not cond:
        raise AssertionError(detail)


# ---------------------------------------------------------------------------
# oracles


def _routes_agree(budgets: Budgets, spec: str, k: int):
    ran = classcount.route_values(parse_group_spec(spec, budgets), k)
    refused = [route for route in ("clifford", "brute") if route not in ran]
    _expect(not refused, f"{' and '.join(refused)} refused by the budgets; ran {sorted(ran)}")
    want = TRIANGULATION_GOLDENS[(spec, k)]
    _expect(ran["clifford"] == want, f"routes agree on {ran['clifford']}, golden {want}")


def _golden(budgets: Budgets, spec: str, k: int, want: int):
    got = classcount.clifford_count(parse_group_spec(spec, budgets), k).value
    _expect(got == want, f"expected {want}, got {got}")


# ---------------------------------------------------------------------------
# burnside


def _burnside_direct(budgets: Budgets, spec: str, k: int):
    group = parse_group_spec(spec, budgets)
    averaged = classcount.burnside_orbit_count(group, k)
    direct = len(classcount.coloring_orbit_reps(group, k))
    _expect(averaged == direct, f"burnside {averaged} != direct {direct}")


def _compositions(budgets: Budgets, n: int, k: int):
    got = classcount.burnside_orbit_count(parse_group_spec(f"symmetric:{n}", budgets), k)
    want = math.comb(n + k - 1, k - 1)
    _expect(got == want, f"symmetric:{n} k={k}: burnside {got} != C(n+k-1,k-1) {want}")


# ---------------------------------------------------------------------------
# formulas


def _fix_formula_matches(p: tuple[int, ...], ells, budgets: Budgets, label: str):
    ct = cycle_type(p)
    for ell in ells:
        f = combinatorics.fix_subsets_formula(ct, ell)
        d = fix_subsets_direct(p, ell, budgets)
        if f != d:  # not _expect: cycle_string(p) runs only on failure
            raise AssertionError(f"{label} ell={ell} pi={cycle_string(p)}: {f} != {d}")


def _fix_exhaustive(budgets: Budgets, m: int):
    for p in permutations(range(m)):
        _fix_formula_matches(p, range(m + 1), budgets, f"m={m}")


def _fix_sampled(budgets: Budgets, seed: int):
    import random  # only this suite samples, so start-up does not pay for it

    rng = random.Random(seed)
    for _ in range(50):
        images = list(range(12))
        rng.shuffle(images)
        _fix_formula_matches(tuple(images), range(1, 6), budgets, "random m=12")


def _stirling_rows(budgets: Budgets):
    # stirling_first(j, m) = permutations of m points with j cycles
    for m in range(1, 13):
        total = sum(combinatorics.stirling_first(j, m) for j in range(0, m + 1))
        _expect(total == math.factorial(m), f"row {m} sums to {total}, not {m}!")
        by_cycles = {}
        for parts in combinatorics.partition_enum(m, budgets):
            by_cycles[len(parts)] = by_cycles.get(len(parts), 0) + cycle_type_class_size(parts)
        for j, size in by_cycles.items():
            want = combinatorics.stirling_first(j, m)
            _expect(size == want, f"S({j},{m}): class sizes give {size}, table {want}")


def _tuples_of_partitions(budgets: Budgets):
    for n in range(0, 21):
        _expect(combinatorics.tuples_of_partitions_count(1, n)
                == combinatorics.partition_count(n), f"k=1 mismatch at n={n}")
    _expect(combinatorics.tuples_of_partitions_count(2, 3) == 10, "tuples(2,3) != 10")
    for n in range(1, 8):
        for k in (1, 2, 3):
            got = classcount.clifford_count(parse_group_spec(f"symmetric:{n}", budgets), k).value
            want = combinatorics.tuples_of_partitions_count(k, n)
            _expect(got == want, f"clifford S_{n} k={k}: {got} != tuples {want}")


def _schmid(budgets: Budgets):
    for n in range(2, 9):
        for k in range(1, 5):
            exact, upper = classcount.schmid_cyclic(k, n)  # exact is None unless n is prime
            got = classcount.clifford_count(parse_group_spec(f"cyclic:{n}", budgets), k).value
            _expect(exact == (got if combinatorics.is_prime(n) else None),
                    f"cyclic:{n} k={k}: clifford {got} != formula {exact}")
            _expect(got <= upper, f"cyclic:{n} k={k}: clifford {got} > upper {upper}")


# ---------------------------------------------------------------------------
# bounds

_PREDICATES_THAT_HOLD = ("min-degree-base-product", "fixed-point-ratio",
                         "cycle-count-half-bound")


def _predicates_hold(budgets: Budgets, spec: str, k: int):
    for rep in bounds_mod.predicates(parse_group_spec(spec, budgets), k):
        if rep.name in _PREDICATES_THAT_HOLD:
            _expect(rep.holds is True,
                    f"{rep.name}: lhs={rep.lhs} rhs={rep.rhs} holds={rep.holds}")


def _upper_bound_holds(budgets: Budgets, spec: str, k: int):
    group = parse_group_spec(spec, budgets)
    rep = bounds_mod.count_upper_bound(group, k)
    _expect(rep.holds is True, f"lhs={rep.lhs} rhs={rep.rhs} holds={rep.holds}")


def _census_rows_hold(budgets: Budgets, spec: str, k: int):
    # census_rows raises on a violation; a refused census fails here with its note
    for rep in bounds_mod.census_rows(parse_group_spec(spec, budgets), k):
        _expect(rep.holds is True, f"{rep.name}: {rep.note}")


def _inertia_identity(budgets: Budgets, spec: str, k: int):
    group = parse_group_spec(spec, budgets)
    n, order = group.degree, group.order
    reps = classcount.coloring_orbit_reps(group, k)
    delta = sum(size for _, size in reps if size < order)
    inertia = sum(map(class_count, coloring_stabilizers(
        group, (classcount.decode_coloring(enc, k, n) for enc, size in reps if size < order))))
    _expect((k ** n - delta) % order == 0, "regular part not divisible by |H|")
    want = (k ** n - delta) // order + inertia
    got = classcount.clifford_count(group, k).value
    _expect(got == want, f"identity value {want} != clifford {got}")


def _lifted_half_bound(budgets: Budgets):
    for m in range(2, 7):
        for p in permutations(range(m)):
            for ell in range(1, m):
                lifted = subsets_action_lift(p, ell, budgets)
                c = len(lifted)
                sp, fx = cycle_count(lifted), sum(map(eq, lifted, range(c)))
                if 2 * sp - fx > c:  # not _expect: cycle_string(p) runs only on failure
                    raise AssertionError(
                        f"m={m} ell={ell} pi={cycle_string(p)}: 2*{sp}-{fx} > {c}")


def _product_identity(budgets: Budgets):
    for m in (2, 3, 4):
        for t in (1, 2):
            for k in (1, 2):
                single = bounds_mod.subset_orbit_count_exact(m, 1, k, budgets)
                rep = bounds_mod.product_orbit_identity(m, 1, t, k, single, budgets)
                _expect(rep.holds is True, f"m={m} t={t} k={k}: {rep.lhs} != {rep.rhs}")


def _subset_exact(budgets: Budgets):
    want = classcount.burnside_orbit_count(parse_group_spec("subsets:5,2", budgets), 2)
    got = bounds_mod.subset_orbit_count_exact(5, 2, 2, budgets)
    _expect(got == want, f"cycle-type route {got} != lifted-group route {want}")


# ---------------------------------------------------------------------------
# semiprimitive

# (r, |K|) of each decomposed group: its block count and kernel order
_DECOMPOSITION_SHAPES = {"cyclic:4": (2, 2), "cyclic:6": (2, 3), "cyclic:8": (2, 4),
                         "quaternion": (2, 4)}


def _decomposition_checks(budgets: Budgets, spec: str, k: int):
    rep = bounds_mod.semiprimitive_report(parse_group_spec(spec, budgets), k)
    _expect(rep.kernel_semiregular, "kernel is not semiregular")
    _expect(rep.cycle_bound_holds, "sigma <= (n/r)*sigma_blocks failed")
    _expect(rep.alpha_bound_holds, "alpha bound failed")
    _expect(rep.chain_holds is True,
            f"chain {rep.orbit_count} < {rep.chain_rhs} failed ({rep.chain_mode})")
    _expect(rep.chain_mode == "exact", f"chain mode {rep.chain_mode}, not exact")
    shape = (rep.r, rep.kernel_order)
    _expect(shape == _DECOMPOSITION_SHAPES[spec],
            f"expected (r, |K|) = {_DECOMPOSITION_SHAPES[spec]}, got {shape}")


def _rejects_wreath_cyclic(budgets: Budgets):
    group = parse_group_spec("wreath-cyclic:2", budgets)
    try:
        bounds_mod.semiprimitive_report(group, 2)
    except NotSemiprimitive:
        return
    raise AssertionError("wreath-cyclic:2 accepted but is not semiprimitive")


def _decomposition_shapes(budgets: Budgets):
    rep4 = bounds_mod.semiprimitive_report(parse_group_spec("cyclic:4", budgets), 2)
    _expect(rep4.r == 2 and rep4.kernel_order == 2,
            f"cyclic:4 expected r=2 |K|=2, got r={rep4.r} |K|={rep4.kernel_order}")
    rep6 = bounds_mod.semiprimitive_report(parse_group_spec("cyclic:6", budgets), 2)
    _expect(rep6.r in (2, 3), f"cyclic:6 expected r in {{2,3}}, got {rep6.r}")


# ---------------------------------------------------------------------------

SUITES = {
    "oracles": [
        *[(f"clifford=brute {spec} k={k}", _routes_agree, (spec, k))
          for k in (2, 3) for spec in ORACLE_SPECS],
        *[(f"golden {spec} k={k} -> {want}", _golden, (spec, k, want))
          for spec, k, want in (("cyclic:2", 2, 5), ("cyclic:3", 2, 8), ("cyclic:2", 3, 9))],
    ],
    "burnside": [
        *[(f"burnside=direct {spec} k={k}", _burnside_direct, (spec, k))
          for k in (2, 3) for spec in ORACLE_SPECS],
        *[(f"burnside=direct subsets:{m},{ell} k={k}", _burnside_direct,
           (f"subsets:{m},{ell}", k))
          for m, ell, k in ((4, 2, 2), (5, 2, 2), (6, 2, 2), (6, 3, 2), (7, 2, 2),
                            (4, 2, 3), (5, 2, 3))],
        *[(f"compositions symmetric:{n} k={k}", _compositions, (n, k))
          for n in range(2, 7) for k in (2, 3, 4)],
    ],
    "formulas": [
        *[(f"fix-subsets formula=direct S_{m} exhaustive", _fix_exhaustive, (m,))
          for m in range(1, 7)],
        ("fix-subsets formula=direct m=12 sampled", _fix_sampled, (_SEED,)),
        ("stirling first kind row identities", _stirling_rows, ()),
        ("tuples-of-partitions closed form", _tuples_of_partitions, ()),
        ("cyclic closed form and upper bound", _schmid, ()),
    ],
    "bounds": [
        *[case for spec in ORACLE_SPECS for k in (2, 3) for case in (
            (f"predicates {spec} k={k}", _predicates_hold, (spec, k)),
            (f"count-upper-bound {spec} k={k}", _upper_bound_holds, (spec, k)),
            (f"orbit census {spec} k={k}", _census_rows_hold, (spec, k)),
            (f"inertia identity {spec} k={k}", _inertia_identity, (spec, k)))],
        ("lifted cycle-count-half-bound S_m ell-subsets", _lifted_half_bound, ()),
        ("product action orbit identity", _product_identity, ()),
        ("subset orbit count: cycle-type route", _subset_exact, ()),
    ],
    "semiprimitive": [
        *[(f"decomposition checks {spec} k={k}", _decomposition_checks, (spec, k))
          for spec in _DECOMPOSITION_SHAPES for k in (2, 3)],
        ("wreath-cyclic:2 rejected", _rejects_wreath_cyclic, ()),
        ("decomposition shapes", _decomposition_shapes, ()),
    ],
}


def run_suite(suite: str, budgets: Budgets, seed: int) -> int:
    """Run every case of one suite, print PASS/FAIL lines and a summary; return the exit code."""
    cases = SUITES[suite]
    failed = 0
    for name, check, args in cases:
        try:
            check(budgets, *(seed if a is _SEED else a for a in args))
        except Exception as exc:  # noqa: BLE001 - a suite must report, not crash
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{suite}: {len(cases) - failed}/{len(cases)} passed")
    return 0 if failed == 0 else 1
