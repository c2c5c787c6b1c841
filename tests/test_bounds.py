"""Upper bounds, exact predicates, product identities, decomposition reports."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from wreathcount import (
    DEFAULT,
    BudgetExceeded,
    Budgets,
    NotSemiprimitive,
    auto_count,
    block_decomposition,
    bounds_report,
    burnside_orbit_count,
    census_rows,
    count_upper_bound,
    counterexample_scan,
    fixed_subset_fraction_probe,
    is_semiregular,
    large_base_count_bound,
    large_base_match,
    parse_group_spec,
    partition_enum,
    predicates,
    product_orbit_identity,
    semiprimitive_report,
    subset_orbit_bound,
    subset_orbit_count_exact,
)
from wreathcount import bounds
from wreathcount.combinatorics import fixed_subset_polynomial
from wreathcount.permgroup import compose, inverse

from test_actions import transitive_groups


def test_count_upper_bound_exact_lattice():
    cases = [
        ("cyclic:2", 5, Fraction(10)),
        ("cyclic:3", 8, Fraction(44, 3)),
        ("symmetric:3", 10, Fraction(76, 3)),
    ]
    for spec, lhs, rhs in cases:
        rep = count_upper_bound(parse_group_spec(spec), 2)
        assert rep.name == "count-upper-bound"
        assert rep.lhs == lhs
        assert rep.rhs == rhs
        assert rep.holds is True
        assert rep.mode == "exact"
        assert rep.e_source == "exact-lattice"


def test_count_upper_bound_alternate_e_sources():
    no_walk = Budgets(max_subgroup_order=0)  # the fallback e = 5**(n/3)
    rep = count_upper_bound(parse_group_spec("cyclic:3", no_walk), 2)
    assert rep.rhs == Fraction(68, 3)
    assert rep.mode == "exact"  # 3 divides n, the power is an integer
    rep = count_upper_bound(parse_group_spec("cyclic:4", no_walk), 2)
    assert rep.mode == "float"
    assert rep.holds is True


def test_auto_e_source_records_the_source_it_resolved_to():
    c4 = parse_group_spec("cyclic:4")
    rep = count_upper_bound(c4, 2)
    assert (rep.e_source, rep.rhs) == ("exact-lattice", 36)
    rep = count_upper_bound(parse_group_spec("cyclic:4", Budgets(max_subgroup_order=3)), 2)
    assert (rep.e_source, rep.mode) == ("five-pow-n-third", "float")
    # a walk refused by its subgroup count falls back too: wreath-cyclic:3 needs the walk
    # (2 * k(H) = 16 < |H| = 24) and holds more than 3 subgroups
    capped = Budgets(max_subgroup_count=3)
    reports, _ = bounds_report(parse_group_spec("wreath-cyclic:3", capped), 2)
    assert (len(reports), reports[0].e_source, reports[0].rhs) == (
        9, "five-pow-n-third", Fraction(4808, 3))
    # symmetric:3 needs no walk (2 * k(H) = |H|), so its e(H) = k(H) = 3 stays exact
    reports, _ = bounds_report(parse_group_spec("symmetric:3", capped), 2)
    assert (len(reports), reports[0].e_source, reports[0].rhs) == (
        9, "exact-lattice", Fraction(76, 3))


def test_bounds_report_returns_the_reports_and_the_decomposition():
    reports, semi = bounds_report(parse_group_spec("cyclic:4"), 2)
    assert (reports[0].name, reports[0].e_source) == ("count-upper-bound", "exact-lattice")
    census = {r.name: (r.lhs, r.rhs, r.holds) for r in reports[7:]}
    assert census == {"nonregular-orbit-count": (3, 8, True),
                      "nonregular-union-size": (4, 12, True)}
    assert (semi.r, semi.e_k) == (2, 1)  # only the regular orbits meet K trivially
    reports, semi = bounds_report(parse_group_spec("symmetric:3",
                                                   Budgets(max_subgroup_order=0)), 2)
    assert reports[0].e_source == "five-pow-n-third"
    assert semi is None  # primitive


def test_count_upper_bound_indeterminate_when_uncountable():
    rep = count_upper_bound(parse_group_spec("dihedral:40"), 2)
    assert rep.holds == "indeterminate"


def test_bound_report_json_serialization():
    rep = count_upper_bound(parse_group_spec("cyclic:3"), 2)
    doc = rep.to_json_dict()
    assert doc["lhs"] == "8"
    assert doc["rhs"] == "44/3"
    assert doc["holds"] is True
    assert doc["inputs"]["e"] == "3"


def test_predicates_symmetric3():
    reports = {r.name: r for r in predicates(parse_group_spec("symmetric:3"), 2)}
    assert len(reports) == 6
    mdb = reports["min-degree-base-product"]
    assert (mdb.lhs, mdb.rhs, mdb.holds) == (4, 3, True)
    fpr = reports["fixed-point-ratio"]
    assert (fpr.lhs, fpr.rhs, fpr.holds) == (8, 36, True)
    half = reports["cycle-count-half-bound"]
    assert (half.lhs, half.rhs, half.holds) == (3, 3, True)
    margin = reports["log-margin-condition"]
    assert (margin.lhs, margin.rhs, margin.holds) == (432, 2, False)
    notrans = reports["no-transposition"]
    assert (notrans.lhs, notrans.holds) == (1, False)
    small = reports["small-order-condition"]
    assert small.holds is False
    assert small.asymptotic is True


def test_predicates_log_margin_needs_two_colors():
    reports = {r.name: r for r in predicates(parse_group_spec("cyclic:3"), 1)}
    margin = reports["log-margin-condition"]
    assert margin.holds is False
    assert "k >= 2" in margin.note


def test_predicates_intransitive_note():
    reports = {r.name: r for r in predicates(parse_group_spec("gens:4,(1 2)"), 2)}
    assert reports["min-degree-base-product"].note != ""


def test_unconditional_predicates_hold_on_regular_groups():
    for spec in ("cyclic:4", "cyclic:5", "gens:4,(1 2)(3 4),(1 3)(2 4)",
                 "quaternion", "wreath-cyclic:2"):
        grp = parse_group_spec(spec)
        for k in (2, 3):
            reports = {r.name: r for r in predicates(grp, k)}
            assert reports["min-degree-base-product"].holds is True, spec
            assert reports["fixed-point-ratio"].holds is True, spec
            assert reports["cycle-count-half-bound"].holds is True, spec


def test_census_rows():
    # (t, |Delta|) against (2*k**max_sigma, (|H|-1)*k**max_sigma) at k = 2
    for spec, t, delta, max_sigma in (("symmetric:3", 4, 8, 2), ("wreath-cyclic:2", 6, 16, 3),
                                      ("cyclic:4", 3, 4, 2)):
        group = parse_group_spec(spec)
        bounds = (2 * 2 ** max_sigma, (group.order - 1) * 2 ** max_sigma)
        rows = census_rows(group, 2)
        assert [(r.name, r.lhs, r.rhs, r.holds) for r in rows] == [
            ("nonregular-orbit-count", t, bounds[0], True),
            ("nonregular-union-size", delta, bounds[1], True)]
        assert rows[0].inputs == {"k": 2, "n": group.degree, "order": group.order,
                                  "max_sigma": max_sigma}
    with pytest.raises(ValueError, match="nontrivial group"):
        census_rows(parse_group_spec("gens:2,()"), 2)


def test_subset_orbit_counts_match_known_graph_numbers():
    # 2-colorings of pairs under S_m are graphs on m vertices up to iso
    assert subset_orbit_count_exact(4, 2, 2) == 11
    assert subset_orbit_count_exact(5, 2, 2) == 34
    assert subset_orbit_count_exact(6, 2, 2) == 156
    assert subset_orbit_count_exact(7, 2, 2) == 1044
    assert subset_orbit_count_exact(6, 3, 2) == 2136
    assert subset_orbit_count_exact(5, 2, 3) == 792


def test_subset_orbit_count_matches_lifted_burnside():
    for m, ell, k in [(4, 2, 2), (5, 2, 2), (5, 2, 3), (6, 2, 2)]:
        grp = parse_group_spec(f"subsets:{m},{ell}")
        assert subset_orbit_count_exact(m, ell, k) == burnside_orbit_count(grp, k)


def test_subset_orbit_bound():
    rep = subset_orbit_bound(5, 2, 2)
    assert rep.lhs == 34
    assert rep.holds is True
    assert rep.mode == "float"
    assert rep.asymptotic is True
    assert 861.07 < rep.rhs < 861.08
    assert subset_orbit_bound(6, 2, 2).holds is True
    assert subset_orbit_bound(7, 3, 2).holds is True
    with pytest.raises(ValueError):
        subset_orbit_bound(6, 3, 2)  # ell must stay below m/2


def test_product_orbit_identity_small_grid():
    expected = {(2, 2): 9, (3, 2): 16, (4, 2): 25}
    for (m, t), value in expected.items():
        rep = product_orbit_identity(m, 1, t, 2, subset_orbit_count_exact(m, 1, 2))
        assert rep.lhs == rep.rhs == value
        assert rep.holds is True
        assert rep.mode == "exact"
    for m in (2, 3, 4):
        single = subset_orbit_count_exact(m, 1, 2)
        rep = product_orbit_identity(m, 1, 1, 2, single)
        assert rep.lhs == rep.rhs == single
    assert product_orbit_identity(3, 1, 2, 1, subset_orbit_count_exact(3, 1, 1)).lhs == 1


def test_product_orbit_identity_budget():
    with pytest.raises(BudgetExceeded):
        product_orbit_identity(4, 1, 12, 2, subset_orbit_count_exact(4, 1, 2))


def test_product_orbit_identity_enumerates_no_coloring():
    # the Burnside sum runs over conjugacy classes, so k**(t*C) = 64 needs no coloring budget
    tight = DEFAULT.with_overrides(max_coloring_space=10)
    single = subset_orbit_count_exact(3, 1, 2, tight)
    assert product_orbit_identity(3, 1, 2, 2, single, tight).holds is True


def _bound_on_family(spec, k):
    """large_base_count_bound on a large-base family spec, with its own n(S_m, B)."""
    group = parse_group_spec(spec)
    m, ell, t = group.family[1]
    return large_base_count_bound(group, m, ell, t, k, subset_orbit_count_exact(m, ell, k))


def test_large_base_count_bound():
    rep = _bound_on_family("product:6,1,1", 2)
    assert (rep.lhs, rep.rhs, rep.holds, rep.mode) == (65, 468750, True, "exact")
    rep = _bound_on_family("product:3,1,2", 2)
    assert (rep.lhs, rep.rhs, rep.holds, rep.mode) == (108, 2000000, True, "exact")
    rep = _bound_on_family("product:5,2,1", 2)
    assert rep.lhs == 136
    assert rep.mode == "float"  # 2n = 20 is not a multiple of 3
    assert rep.holds is True


def test_float_sides_past_binary64_read_inf():
    # each float expression overflows binary64; its side reads inf, not an OverflowError
    rep = count_upper_bound(parse_group_spec("cyclic:2002", Budgets(max_subgroup_order=0)), 2)
    assert (rep.rhs, rep.mode) == (math.inf, "float")  # e = 5.0 ** (2002 / 3)
    rep = _bound_on_family("product:4,1,1", 10 ** 200)  # 2n = 8 is not a multiple of 3
    assert (rep.rhs, rep.mode) == (math.inf, "float")


def test_infinite_rhs_decides_only_a_binary64_lhs():
    from wreathcount.bounds import _less

    assert _less(5, math.inf) is True
    assert _less(2 ** 1023, math.inf) is True
    assert _less(2 ** 1024, math.inf) == "indeterminate"


def test_large_base_match():
    assert large_base_match(parse_group_spec("subsets:5,2")) == (5, 2, 1)
    assert large_base_match(parse_group_spec("subsets-alt:6,1")) == (6, 1, 1)
    assert large_base_match(parse_group_spec("product:5,1,2")) == (5, 1, 2)
    assert large_base_match(parse_group_spec("subsets:4,1")) is None  # base too small
    assert large_base_match(parse_group_spec("subsets:6,3")) is None  # ell must stay below m/2
    assert large_base_match(parse_group_spec("cyclic:5")) is None


def test_semiprimitive_reports_regular_cyclic():
    rep = semiprimitive_report(parse_group_spec("cyclic:4"), 2)
    assert (rep.r, rep.kernel_order, rep.quotient_order) == (2, 2, 2)
    assert rep.kernel_semiregular and rep.cycle_bound_holds
    assert rep.alpha_bound_holds and rep.chain_holds
    assert (rep.orbit_count, rep.chain_rhs) == (6, 18)
    assert rep.chain_mode == "exact"
    assert rep.e_k == 1
    assert rep.e_k_quotient_bound_holds is True
    assert rep.e_k_five_eighths_holds is None  # abelian, not applicable

    rep = semiprimitive_report(parse_group_spec("cyclic:6"), 2)
    assert (rep.r, rep.kernel_order) == (2, 3)
    assert (rep.orbit_count, rep.chain_rhs) == (14, Fraction(164, 3))
    assert rep.e_k == 2
    assert rep.chain_holds

    rep = semiprimitive_report(parse_group_spec("cyclic:8"), 2)
    assert (rep.r, rep.kernel_order) == (2, 4)
    assert (rep.orbit_count, rep.chain_rhs) == (36, 184)
    assert rep.chain_holds


def test_semiprimitive_report_quaternion():
    rep = semiprimitive_report(parse_group_spec("quaternion"), 2)
    assert (rep.r, rep.kernel_order) == (2, 4)
    assert (rep.orbit_count, rep.chain_rhs) == (37, 184)
    assert rep.kernel_semiregular and rep.cycle_bound_holds
    assert rep.alpha_bound_holds and rep.chain_holds
    assert rep.e_k == 1
    assert rep.e_k_five_eighths_holds is True


def _reference_e_k(group, blocks, k):
    """e_K from every coloring: the largest class count of a stabilizer meeting K trivially.

    K fixes every block setwise, a stabilizer is {h : c[h[i]] == c[i] for all i},
    and classes are counted by conjugating each element by the whole stabilizer.
    """
    elements = group.elements
    kernel = {h for h in elements if all(h[b[0]] in b for b in blocks)}
    counts = {}
    best = None
    for c in product(range(k), repeat=group.degree):
        stab = frozenset(h for h in elements if tuple(map(c.__getitem__, h)) == c)
        if len(stab & kernel) == 1:
            if stab not in counts:
                counts[stab] = len({frozenset(compose(compose(g, x), inverse(g)) for g in stab)
                                    for x in stab})
            best = max(best or 0, counts[stab])
    return best


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6", "cyclic:8", "quaternion"])
def test_semiprimitive_e_k_matches_every_coloring(spec, k):
    group = parse_group_spec(spec)
    rep = semiprimitive_report(group, k)
    assert rep.e_k == _reference_e_k(group, rep.blocks, k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(group=transitive_groups())
def test_semiprimitive_e_k_matches_every_coloring_on_random_groups(group):
    decomp = block_decomposition(group)
    # the block kernel is an intransitive normal subgroup: semiregular in a semiprimitive group
    if decomp is None or not is_semiregular(decomp.kernel):
        return
    for k in (2, 3):
        try:
            rep = semiprimitive_report(group, k)
        except NotSemiprimitive:
            return
        assert rep.e_k == _reference_e_k(group, rep.blocks, k)


@pytest.mark.parametrize("call", [
    lambda: census_rows(parse_group_spec("cyclic:3"), 0),
    lambda: subset_orbit_bound(5, 2, 0),
    lambda: semiprimitive_report(parse_group_spec("cyclic:4"), 0),
    lambda: subset_orbit_count_exact(3, 1, -5),
    lambda: product_orbit_identity(3, 1, 2, 0, 0),
], ids=["census_rows", "subset_orbit_bound", "semiprimitive_report",
        "subset_orbit_count_exact", "product_orbit_identity"])
def test_k_below_one_is_refused(call):
    with pytest.raises(ValueError, match="k must be >= 1"):
        call()


def test_semiprimitive_rejections():
    with pytest.raises(NotSemiprimitive):
        semiprimitive_report(parse_group_spec("wreath-cyclic:2"), 2)
    with pytest.raises(NotSemiprimitive):
        semiprimitive_report(parse_group_spec("symmetric:3"), 2)  # primitive
    with pytest.raises(NotSemiprimitive):
        semiprimitive_report(parse_group_spec("gens:3,(1 2)"), 2)


def test_counterexample_scan_small():
    rows = counterexample_scan([2, 3])
    by_param = {row.param: row for row in rows}
    first = by_param["wreath-cyclic:2|5^m/m"]
    assert (first.value, first.bound, first.holds) == (20, "25/2", True)
    marker = by_param["wreath-cyclic:2|k^n"]
    assert (marker.value, marker.bound, marker.holds) == (20, "16", True)
    second = by_param["wreath-cyclic:3|5^m/m"]
    assert (second.value, second.holds) == (55, True)
    # the k^n marker is asymptotic; at m = 3 it genuinely fails
    assert by_param["wreath-cyclic:3|k^n"].holds is False
    for row in rows:
        assert row.value >= math.ceil(2 ** row.n / row.order)


def test_counterexample_scan_skips_over_budget():
    rows = counterexample_scan([2, 20])
    skipped = [row for row in rows if row.holds == "skipped"]
    assert len(skipped) == 2
    assert all(row.order == 2 ** 20 * 20 for row in skipped)
    assert all(row.value is None for row in skipped)


def _failing_ells(parts, m, comb=math.comb):
    # every 1 <= ell < m/2 at which this type fixes at least (3/4)comb(m, ell) ell-subsets
    fix = fixed_subset_polynomial(parts, m // 2)
    return [ell for ell in range(1, (m + 1) // 2) if 4 * fix[ell] >= 3 * comb(m, ell)]


def test_fixed_subset_fraction_probe_clean_small_range():
    # the reference walks every cycle type with at most floor(3m/4) cycles
    m_values = range(37)
    results = fixed_subset_fraction_probe(m_values)
    assert [m for m, _ in results] == list(m_values)
    for m, witness in results:
        clean = not any(_failing_ells(parts, m) for parts in partition_enum(m)
                        if 4 * len(parts) <= 3 * m)
        assert (witness is None) == clean, m


@pytest.mark.parametrize("m, divisor, low", [(16, 2, 1), (20, 28, 8), (24, 60, 10)])
def test_fixed_subset_fraction_probe_witness_is_the_first_failing_type(monkeypatch,
                                                                       m, divisor, low):
    # lower the thresholds from ell = low up so that some type fails; at
    # (16, 2, 1) types with fewer than floor(3m/4) cycles fail too
    real = math.comb

    def comb(n, k):
        return real(n, k) // divisor if k >= low else real(n, k)

    monkeypatch.setattr(bounds.math, "comb", comb)
    (_, witness), = fixed_subset_fraction_probe([m])
    parts, ell = witness
    cycles = 3 * m // 4
    assert len(parts) == cycles
    failing = _failing_ells(parts, m, comb)
    assert failing and failing[0] == ell
    # partition_enum streams reverse-lexicographic order
    types = [p for p in partition_enum(m) if len(p) == cycles]
    assert not any(_failing_ells(p, m, comb) for p in types[:types.index(parts)])


@pytest.mark.parametrize("spec, budgets, identity_refusal, bound_refusal", [
    # the power group S_7 is refused, and so is the product family it counts
    ("subsets-alt:7,2", Budgets(max_group_order=3000),
     "power group not built: power group order (7!)**1 = 5040 exceeds",
     "count not computed: closure order = 3002 exceeds"),
    # n(S_5, B) is refused, and both rows start from it
    ("subsets:5,2", Budgets(max_partition_size=3),
     "n(S_m, B) not computed: partition size n = 5 exceeds", None),
])
def test_refused_large_base_rows_read_indeterminate(spec, budgets, identity_refusal,
                                                    bound_refusal):
    reports, _ = bounds_report(parse_group_spec(spec, budgets), 2)
    rows = {r.name: r for r in reports}
    identity, bound = rows["product-orbit-identity"], rows["large-base-count-bound"]
    assert (identity.lhs, identity.holds) == (bound.lhs, bound.holds) == (None, "indeterminate")
    assert identity.note.startswith(identity_refusal)
    assert bound.note.startswith(bound_refusal or identity_refusal)


def test_large_base_bound_on_matched_family():
    # end to end: match a family spec, then check the bound it names
    spec = "subsets:6,1"
    group = parse_group_spec(spec)
    match = large_base_match(group)
    assert match == (6, 1, 1)
    rep = large_base_count_bound(group, *match, 2, subset_orbit_count_exact(6, 1, 2))
    assert rep.lhs == auto_count(parse_group_spec(spec), 2).value
    assert rep.holds is True


def test_bounds_report_walks_each_element_once(spy):
    from wreathcount import permgroup

    group = parse_group_spec("subsets:6,2", Budgets(max_subgroup_order=0))
    walked = []
    spy(permgroup, "cycle_count", walked)
    bounds_report(group, 2)
    # one pass over H's 720 elements, which also counts their fixed points;
    # the per-class sums walk a few class representatives again
    assert group.order <= len(walked) < group.order + group.order // 10
