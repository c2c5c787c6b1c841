"""Evaluators for the inequalities and decompositions backing the counts.

Every evaluator returns a BoundReport (or a structured report) rather than a
bare bool: the report records both sides, whether arithmetic was exact or
binary64, and echoes its inputs. Comparisons are exact whenever every
exponent in the expression is an integer; only fractional exponents fall
back to floats, with a relative tolerance of 1e-9 and an explicit
"indeterminate" verdict inside the tolerance band.

bounds_report gathers every row for (H, k). Each row family has one builder,
which reads its facts from their one owner: count_upper_bound, predicates,
census_rows (the census of classcount.coloring_census), subset_orbit_bound,
and the large-base rows product_orbit_identity and large_base_count_bound,
which take n(S_m, B) from the caller so a report counts it once.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import combinatorics
from .actions import (
    block_decomposition,
    cycle_type_class_size,
    family,
    induced_block_permutation,
    sigma_prime,
    subsets_action_lift,
    symmetric_gens,
)
from .budgets import DEFAULT, Budgets
from .classcount import (
    auto_count,
    burnside_orbit_count,
    clifford_count,
    coloring_census,
    count_upper_fraction,
)
from .errors import (
    BudgetExceeded,
    DivisibilityViolation,
    InvariantViolation,
    NotSemiprimitive,
)
from .permgroup import (
    PermGroup,
    class_count,
    cycle_count,
    cycle_stats,
    is_semiprimitive,
    is_semiregular,
    is_transitive,
    max_cycle_count,
    max_subgroup_class_count,
    normal_subgroups,
    numeric_invariants,
)

_TOL = Fraction(1, 10 ** 9)


@dataclass
class BoundReport:
    name: str
    lhs: object            # int | Fraction | float | None
    rhs: object
    holds: object          # True | False | "indeterminate"
    mode: str              # "exact" | "float"
    inputs: dict = field(default_factory=dict)
    e_source: str | None = None
    asymptotic: bool = False
    note: str = ""

    def to_json_dict(self) -> dict:
        def render(x):
            return x if x is None else _json_float(x) if isinstance(x, float) else fraction_text(x)

        out = {
            "name": self.name,
            "lhs": render(self.lhs),
            "rhs": render(self.rhs),
            "holds": self.holds,
            "mode": self.mode,
            "inputs": {k: render(v) if isinstance(v, (int, Fraction, float)) else v
                       for k, v in sorted(self.inputs.items())},
        }
        if self.e_source is not None:
            out["e_source"] = self.e_source
        if self.asymptotic:
            out["asymptotic"] = True
        if self.note:
            out["note"] = self.note
        return out


def _json_float(x: float) -> float | str:
    """x, or past binary64 the text a table cell prints ("inf"): JSON has no infinity."""
    return x if math.isfinite(x) else repr(x)


def _binary64(expr):
    """expr(), or inf when a binary64 operation in it overflows."""
    try:
        return expr()
    except OverflowError:
        return math.inf


def _mode(rhs) -> str:
    """A report's mode: "float" for a binary64 rhs, "exact" for any other."""
    return "float" if isinstance(rhs, float) else "exact"


def _less(lhs, rhs):
    """lhs < rhs for an exact lhs: exactly against an int or Fraction rhs.

    Against a float rhs, a 1e-9 relative tolerance band reads "indeterminate".
    """
    if not isinstance(rhs, float):
        return lhs < rhs
    if math.isinf(rhs):  # rhs is past binary64; is lhs?
        return lhs <= sys.float_info.max or "indeterminate"
    l, r = Fraction(lhs), Fraction(rhs)
    if abs(l - r) <= _TOL * max(Fraction(1), abs(r)):
        return "indeterminate"
    return l < r


def _refused(name: str, inputs: dict, note: str, rhs=None, **fields) -> BoundReport:
    """The indeterminate report that stands for one the budgets refused."""
    return BoundReport(name, None, rhs, "indeterminate", _mode(rhs), inputs,
                       note=note, **fields)


def _count_row(name: str, group: PermGroup, k: int, rhs, inputs: dict,
               **fields) -> BoundReport:
    """The report of k(G) < rhs, k(G) by auto_count; indeterminate when the budgets refuse it."""
    try:
        lhs = auto_count(group, k).value
    except BudgetExceeded as exc:
        return _refused(name, inputs, f"count not computed: {exc}", rhs, **fields)
    return BoundReport(name, lhs, rhs, _less(lhs, rhs), _mode(rhs), inputs, **fields)


# ---------------------------------------------------------------------------
# The main class-count upper bound k(G) < k**n/|H| + 2*e*k**max_sigma.


def _exact_e(group: PermGroup) -> int | None:
    """e(H), or None when the group's budgets refuse the subgroup-class walk."""
    try:
        return max_subgroup_class_count(group)
    except BudgetExceeded:
        return None


def count_upper_bound(group: PermGroup, k: int) -> BoundReport:
    """k(G) < k**n/|H| + 2*e*k**max_sigma, with e = max subgroup class count.

    e is exact (e_source "exact-lattice") when the subgroup-class walk fits
    the group's budgets, and the paper's 5**(n/3) ("five-pow-n-third")
    otherwise: exact when 3 divides n, binary64 if not. rhs is an exact
    rational whenever e is exact. lhs is the auto-dispatched count; when
    that is infeasible within budgets the verdict is indeterminate and the
    bracket lands in the note.
    """
    if group.order == 1:
        raise ValueError("bound needs a nontrivial group")
    n = group.degree
    max_sigma = max_cycle_count(group)
    e, e_source = _exact_e(group), "exact-lattice"
    if e is None:
        e_source = "five-pow-n-third"
        e = 5 ** (n // 3) if n % 3 == 0 else _binary64(lambda: 5.0 ** (n / 3))
    if isinstance(e, int):
        rhs: object = count_upper_fraction(group, k, e)
    else:
        rhs = _binary64(lambda: float(Fraction(k ** n, group.order))
                        + 2.0 * e * float(k ** max_sigma))
    inputs = {"k": k, "n": n, "order": group.order, "max_sigma": max_sigma, "e": e}
    return _count_row("count-upper-bound", group, k, rhs, inputs, e_source=e_source)


# ---------------------------------------------------------------------------
# Predicates.


def _leq_two_pow_quarter_sqrt(order: int, n: int):
    """Decide order <= 2**(sqrt(n)/4), exactly when integer brackets settle it.

    Equivalent to 16*log2(order)**2 <= n. With c = floor(log2(order)) the
    integer brackets decide every case except when n falls strictly between
    16c^2 and 16(c+1)^2 for a non-power-of-two order; that narrow band falls
    back to binary64.
    """
    if order == 1:
        return True, "exact"
    c = order.bit_length() - 1
    if order == 1 << c:
        return 16 * c * c <= n, "exact"
    if 16 * (c + 1) * (c + 1) <= n:
        return True, "exact"
    if 16 * c * c >= n:
        return False, "exact"
    x = 16.0 * math.log2(order) ** 2
    if abs(x - n) <= 1e-9 * max(1.0, abs(float(n))):
        return "indeterminate", "float"
    return x <= n, "float"


def predicates(group: PermGroup, k: int) -> list[BoundReport]:
    """The unconditional inequalities and hypothesis predicates for (H, k)."""
    if group.order == 1:
        raise ValueError("predicates need a nontrivial group")
    n = group.degree
    order = group.order
    inv = numeric_invariants(group)
    base: dict = {"k": k, "n": n, "order": order, "max_sigma": inv.max_sigma}
    reports = []

    # minimal degree times base size covers the domain (transitive groups)
    reports.append(BoundReport(
        "min-degree-base-product", inv.mu * inv.b, n, inv.mu * inv.b >= n, "exact",
        dict(base, mu=inv.mu, b=inv.b),
        note="" if is_transitive(group) else "guaranteed only for transitive groups"))

    # fixed point ratio: fpr(h) <= 1 - 1/log2|H| for all h != 1,
    # i.e. 2**n <= |H|**(n - fix); worst case has fix = n - mu
    reports.append(BoundReport(
        "fixed-point-ratio", 2 ** n, order ** inv.mu,
        2 ** n <= order ** inv.mu, "exact", dict(base, mu=inv.mu)))

    # sigma(h) <= (n + fix(h))/2 for every h, as 2*sigma - fix <= n
    stats = cycle_stats(group)
    worst = max(2 * sigma - fixed for sigma, fixed in stats)
    reports.append(BoundReport(
        "cycle-count-half-bound", worst, n, worst <= n, "exact", dict(base)))

    # max_sigma <= n - log_k(2*k*n*|H|^2), exactly: 2*k*n*|H|^2 <= k**(n - max_sigma)
    if k >= 2:
        lhs = 2 * k * n * order * order
        rhs = k ** (n - inv.max_sigma)
        reports.append(BoundReport(
            "log-margin-condition", lhs, rhs, lhs <= rhs, "exact", dict(base)))
    else:
        reports.append(BoundReport(
            "log-margin-condition", None, None, False, "exact", dict(base),
            note="condition needs k >= 2"))

    # no element moving exactly two points
    has_transposition = any(n - fixed == 2 for _, fixed in stats)
    reports.append(BoundReport(
        "no-transposition", int(has_transposition), 0, not has_transposition,
        "exact", dict(base)))

    # |H| <= 2**(sqrt(n)/4); vacuous at desk scale for transitive groups
    holds, mode = _leq_two_pow_quarter_sqrt(order, n)
    reports.append(BoundReport(
        "small-order-condition", order, 2.0 ** (math.sqrt(n) / 4), holds, mode,
        dict(base), asymptotic=True))

    return reports


# ---------------------------------------------------------------------------
# The non-regular coloring orbits.


def census_rows(group: PermGroup, k: int) -> list[BoundReport]:
    """The non-regular orbit bounds t < 2*k**max_sigma and |Delta| <= (|H|-1)*k**max_sigma.

    t and |Delta| come from coloring_census, the census clifford_count reads.
    A violation means a bug, so it raises InvariantViolation; when the budgets
    refuse the census, both rows read indeterminate with the refusal in
    their note.
    """
    names = ("nonregular-orbit-count", "nonregular-union-size")
    try:
        census = coloring_census(group, k)
    except BudgetExceeded as exc:
        return [_refused(name, {"k": k}, f"orbit census skipped: {exc}") for name in names]
    nonregular, delta, order = len(census.reps), census.delta, group.order
    max_sigma = max_cycle_count(group)
    orbit_bound, delta_bound = 2 * k ** max_sigma, (order - 1) * k ** max_sigma
    if not nonregular < orbit_bound:
        raise InvariantViolation(
            f"non-regular orbit count {nonregular} >= 2*k**max_sigma = {orbit_bound}")
    if not delta <= delta_bound:
        raise InvariantViolation(
            f"non-regular union {delta} > (|H|-1)*k**max_sigma = {delta_bound}")
    base = {"k": k, "n": group.degree, "order": order, "max_sigma": max_sigma}
    return [BoundReport(name, lhs, rhs, True, "exact", dict(base))
            for name, lhs, rhs in zip(names, (nonregular, delta), (orbit_bound, delta_bound))]


# ---------------------------------------------------------------------------
# Subset-action orbit counts and the large-base bounds.


def subset_orbit_count_exact(m: int, ell: int, k: int,
                             budgets: Budgets = DEFAULT) -> int:
    """n(S_m, k-colorings of the ell-subsets), exactly, via per-cycle-type Burnside."""
    if k < 1:
        raise ValueError("k must be >= 1")
    budgets.check("max_lift_degree", math.comb(m, ell), f"C({m},{ell})")
    fact = math.factorial(m)
    total = 0
    for parts in combinatorics.partition_enum(m, budgets):
        # one permutation of this cycle type: consecutive runs of points as cycles
        images = []
        for length in parts:
            start = len(images)
            images.extend(range(start + 1, start + length))
            images.append(start)
        total += cycle_type_class_size(parts) * k ** sigma_prime(tuple(images), ell, budgets)
    if total % fact:
        raise DivisibilityViolation("subset-action Burnside sum not divisible by m!")
    return total // fact


def subset_orbit_bound(m: int, ell: int, k: int, budgets: Budgets = DEFAULT) -> BoundReport:
    """n(S_m, B) < 2*max(k**(7/8 * C), (m!)**-0.58 * k**C) with C = C(m,ell).

    The guarantee is asymptotic in m, so the verdict is observational. rhs is
    binary64 (fractional exponents); lhs is the exact Burnside count.
    """
    if not (1 <= ell and 2 * ell < m):
        raise ValueError("need 1 <= ell < m/2")
    if k < 1:
        raise ValueError("k must be >= 1")
    c = math.comb(m, ell)
    rhs = 2.0  # k = 1: the larger term is k**(7/8 * C) = 1
    if k > 1:
        log2_k = math.log2(k)
        best = max(0.875 * c * log2_k, c * log2_k - 0.58 * math.log2(math.factorial(m)))
        rhs = math.inf if best > 1020 else 2.0 * 2.0 ** best
    inputs = {"m": m, "ell": ell, "k": k, "subset_count": c}
    try:
        lhs = subset_orbit_count_exact(m, ell, k, budgets)
    except BudgetExceeded as exc:
        return _refused("subset-orbit-bound", inputs, str(exc), rhs, asymptotic=True)
    return BoundReport("subset-orbit-bound", lhs, rhs, _less(lhs, rhs), "float",
                       inputs, asymptotic=True)


def product_orbit_identity(m: int, ell: int, t: int, k: int, single: int,
                           budgets: Budgets = DEFAULT) -> BoundReport:
    """n((S_m)^t, tuples of colorings) = n(S_m, colorings)**t, both sides exact.

    single is n(S_m, B), as subset_orbit_count_exact gives it. The direct
    power acts coordinatewise on t-tuples of k-colorings of the ell-subsets,
    equivalently on colorings of t disjoint copies of the subset domain. The
    lhs enumerates that group explicitly and runs Burnside on it; the rhs
    raises single to the t-th power. holds=False signals an implementation
    bug.

    Note the identity is about tuples of colorings, not colorings of the
    product-action domain: already for m=3, t=2, k=2 the latter space has
    36 orbits while the tuple space has 4**2 = 16.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    c = math.comb(m, ell)
    budgets.check("max_lift_degree", t * c, f"product Burnside degree t*C({m},{ell})")
    # the closure would refuse too, but only after building up to the whole budget
    budgets.check("max_group_order", math.factorial(m) ** t, f"power group order ({m}!)**{t}")

    gens = []
    for i in range(t):
        for g in symmetric_gens(m):
            lifted = subsets_action_lift(g, ell, budgets)
            images = list(range(t * c))
            for w in range(c):
                images[i * c + w] = i * c + lifted[w]
            gens.append(images)
    power_group = PermGroup(gens, budgets=budgets)
    lhs, rhs = burnside_orbit_count(power_group, k), single ** t
    inputs = {"m": m, "ell": ell, "t": t, "k": k}
    return BoundReport("product-orbit-identity", lhs, rhs, lhs == rhs, "exact", inputs)


def large_base_count_bound(group: PermGroup, m: int, ell: int, t: int, k: int,
                           single: int) -> BoundReport:
    """k(G) < 5**(m*t) * (2**t * n((S_m)^t, B_t) + k**(2n/3)) for product-action groups.

    group is the S_m-family group on the C(m,ell)**t points being counted,
    and single is n(S_m, B), as subset_orbit_count_exact gives it; the
    n(...) term is single**t, by the product identity. k**(2n/3) is exact
    when 3 | 2n. The verdict compares against the exact count of group when
    that fits its budgets.
    """
    n = math.comb(m, ell) ** t
    nterm = single ** t
    outer = 5 ** (m * t)
    inputs = {"m": m, "ell": ell, "t": t, "k": k, "n": n, "n_term": nterm}
    if (2 * n) % 3 == 0:
        rhs: object = outer * (2 ** t * nterm + k ** (2 * n // 3))
    else:
        rhs = _binary64(lambda: float(outer) * (float(2 ** t * nterm)
                                                + float(k) ** (2 * n / 3)))
    return _count_row("large-base-count-bound", group, k, rhs, inputs, asymptotic=True)


def large_base_match(group: PermGroup) -> tuple[int, int, int] | None:
    """(m, ell, t) when the group was built as a large-base family, else None.

    Matching is by construction metadata only: subsets:m,ell and
    subsets-alt:m,ell (t = 1) or product:m,ell,t, requiring m >= 5 and
    ell < m/2 (family already holds ell >= 1 and t >= 1).
    """
    name, params = group.family or (None, ())
    if name in ("subsets", "subsets-alt"):
        (m, ell), t = params, 1
    elif name == "product":
        m, ell, t = params
    else:
        return None
    return (m, ell, t) if m >= 5 and 2 * ell < m else None


# ---------------------------------------------------------------------------
# Semiprimitive decomposition report.


@dataclass
class SemiprimitiveReport:
    r: int
    blocks: tuple[tuple[int, ...], ...]
    kernel_order: int
    quotient_order: int
    kernel_semiregular: bool
    cycle_bound_holds: bool          # sigma(h) <= (n/r) * sigma_blocks(h) for all h
    alpha_bound_holds: bool          # max_sigma/n <= max(1/2, max over h not in K)
    orbit_count: int                 # n(H, k-colorings of the domain)
    quotient_orbit_count: int        # n(H/K, k**(n/r)-colorings of the blocks)
    chain_rhs: object
    chain_holds: object
    chain_mode: str
    e_k: int | None
    e_k_quotient_bound_holds: bool | None
    e_k_five_eighths_holds: bool | None
    note: str = ""

    def to_json_dict(self) -> dict:
        return {k: fraction_text(v) if isinstance(v, Fraction)
                else _json_float(v) if isinstance(v, float) else v
                for k, v in self.__dict__.items() if k != "blocks"} | {
            "blocks": [list(b) for b in self.blocks]}


def semiprimitive_report(group: PermGroup, k: int) -> SemiprimitiveReport:
    """Block decomposition checks for a transitive, imprimitive, semiprimitive group.

    Verifies that the block kernel K is semiregular, that cycle counts on the
    domain are bounded by (n/r) times cycle counts on the blocks, and that
    the orbit-count chain
        n(H, X-colorings) < n(H/K, blocks) + k**n/|H| + n*k**(n/2)/|H|
    holds with exact rational arithmetic (k**(n/2) exact iff n is even).
    """
    if not is_transitive(group):
        raise NotSemiprimitive("group is not transitive")
    if not is_semiprimitive(group, normal_subgroups(group)):
        raise NotSemiprimitive("group is not semiprimitive")
    decomp = block_decomposition(group)  # the one walk over H's block systems
    if decomp is None:
        raise NotSemiprimitive("group is primitive; no proper block system to decompose")
    n = group.degree
    r = decomp.r
    kernel = decomp.kernel
    quotient = decomp.quotient
    kernel_set = frozenset(kernel.elements)

    kernel_semiregular = is_semiregular(kernel)

    per_block = n // r
    cycle_bound = True
    max_quot_sigma = 0
    for h, (sigma, _) in zip(group.elements, cycle_stats(group)):
        induced_sigma = cycle_count(induced_block_permutation(h, decomp.blocks))
        if sigma > per_block * induced_sigma:
            cycle_bound = False
        if h not in kernel_set:
            max_quot_sigma = max(max_quot_sigma, induced_sigma)

    alpha = Fraction(max_cycle_count(group), n)
    alpha_bound = alpha <= max(Fraction(1, 2), Fraction(max_quot_sigma, r))

    lhs = burnside_orbit_count(group, k)
    quot_count = burnside_orbit_count(quotient, k ** per_block)
    term2 = Fraction(k ** n, group.order)
    if n % 2 == 0:
        chain_rhs: object = quot_count + term2 + Fraction(n * k ** (n // 2), group.order)
    else:
        chain_rhs = _binary64(lambda: float(quot_count) + float(term2)
                              + n * float(k) ** (n / 2) / group.order)

    # e_K: largest class count among coloring stabilizers meeting K trivially,
    # over the inertia groups clifford_count counts
    e_k: int | None = None
    note = ""
    try:
        census = coloring_census(group, k)
        if census.regular:
            e_k = 1  # a regular orbit's stabilizer is trivial
        for stab in dict.fromkeys(census.inertia):  # equal ones are one object
            if len(kernel_set.intersection(stab.elements)) == 1:
                e_k = max(e_k or 1, class_count(stab))
    except BudgetExceeded as exc:
        note = f"e_K skipped: {exc}"

    e_quot = None if e_k is None else _exact_e(quotient)
    e_k_quot = None if e_quot is None else e_k <= e_quot
    e_k_58 = None
    if e_k is not None and not group.is_abelian():
        e_k_58 = Fraction(e_k) <= Fraction(5, 8) * group.order

    return SemiprimitiveReport(
        r=r, blocks=decomp.blocks, kernel_order=kernel.order,
        quotient_order=quotient.order, kernel_semiregular=kernel_semiregular,
        cycle_bound_holds=cycle_bound, alpha_bound_holds=alpha_bound,
        orbit_count=lhs, quotient_orbit_count=quot_count, chain_rhs=chain_rhs,
        chain_holds=_less(lhs, chain_rhs), chain_mode=_mode(chain_rhs), e_k=e_k,
        e_k_quotient_bound_holds=e_k_quot, e_k_five_eighths_holds=e_k_58, note=note)


# ---------------------------------------------------------------------------
# Every report for one (H, k).


def bounds_report(group: PermGroup, k: int
                  ) -> tuple[list[BoundReport], SemiprimitiveReport | None]:
    """The bound reports for (H, k), and the semiprimitive report or None.

    The reports come in the order the CLI prints them; one the group's
    budgets refuse reads indeterminate, with the reason in its note. The
    semiprimitive report is None where the decomposition does not apply.
    """
    reports = [count_upper_bound(group, k)]
    reports.extend(predicates(group, k))
    reports.extend(census_rows(group, k))
    match = large_base_match(group)
    if match is not None:
        m, ell, t = match
        budgets = group.budgets
        subset = subset_orbit_bound(m, ell, k, budgets)  # lhs: n(S_m, B), the op's one count
        reports.append(subset)
        inputs = {"m": m, "ell": ell, "t": t, "k": k}
        if subset.lhs is None:  # both rows below start from n(S_m, B)
            note = f"n(S_m, B) not computed: {subset.note}"
            reports.append(_refused("product-orbit-identity", inputs, note))
            reports.append(_refused("large-base-count-bound", dict(inputs), note, asymptotic=True))
        else:
            try:
                reports.append(product_orbit_identity(m, ell, t, k, subset.lhs, budgets))
            except BudgetExceeded as exc:
                reports.append(_refused("product-orbit-identity", inputs,
                                        f"power group not built: {exc}"))
            # the bound is about the S_m family, which every match but subsets-alt is;
            # the product family's lift degree passed this budget when group was built
            counted = group
            if group.family[0] == "subsets-alt":
                counted = family("product", (m, ell, t), budgets)
            reports.append(large_base_count_bound(counted, m, ell, t, k, subset.lhs))
    try:
        semi = semiprimitive_report(group, k)
    except (BudgetExceeded, NotSemiprimitive):
        semi = None  # the bound reports stand on their own where the decomposition does not apply
    return reports, semi


# ---------------------------------------------------------------------------
# Scans.


@dataclass(frozen=True)
class ScanRow:
    param: str
    k: int
    n: int
    order: int
    value: int | None
    bound: str
    holds: object          # True | False | "skipped"
    mode: str


def counterexample_scan(m_values: Sequence[int], k: int = 2,
                        budgets: Budgets = DEFAULT) -> list[ScanRow]:
    """Exact counts for H = wreath-cyclic:m against the 5**m/m and k**n markers.

    Two rows per m: whether k(G) >= 5**m/m, and whether k(G) > k**n. The
    first is what makes these groups counterexamples to small count bounds;
    the second's failure at small m is expected (the guarantee is asymptotic).
    """
    rows = []
    for m in m_values:
        grp = family("wreath-cyclic", (m,), budgets)
        n = 2 * m
        order = (2 ** m) * m  # known for this family, avoids materializing it
        param = f"wreath-cyclic:{m}"
        try:
            value = clifford_count(grp, k).value
        except BudgetExceeded:
            for tag, bound in ((f"{param}|5^m/m", Fraction(5 ** m, m)),
                               (f"{param}|k^n", k ** n)):
                rows.append(ScanRow(tag, k, n, order, None,
                                    fraction_text(bound), "skipped", "exact"))
            continue
        if value < -(-k ** n // order):
            raise InvariantViolation(f"{param}: class count {value} below ceil(k**n/|H|)")
        five = Fraction(5 ** m, m)
        rows.append(ScanRow(f"{param}|5^m/m", k, n, grp.order, value,
                            fraction_text(five), value >= five, "exact"))
        rows.append(ScanRow(f"{param}|k^n", k, n, grp.order, value,
                            str(k ** n), value > k ** n, "exact"))
    return rows


def fraction_text(x: int | Fraction) -> str:
    """An exact rational as "p/q", or as "p" when it is an integer."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fixed_subset_fraction_probe(m_values: Sequence[int],
                                budgets: Budgets = DEFAULT) -> list[tuple[int, tuple | None]]:
    """Search for counterexamples to: sigma(pi) <= 3m/4 implies fix on
    ell-subsets < (3/4)C(m,ell) for all 1 <= ell < m/2.

    The claim is only guaranteed for large m, so this probes rather than
    asserts. Both sides depend only on the cycle type, and it suffices to
    walk the p(m - L) types with exactly L = floor(3m/4) cycles, by a
    refinement lemma: splitting one cycle into two never lowers a
    coefficient of fixed_subset_polynomial (a union of whole cycles stays
    one), and a type with fewer than L cycles has a cycle of length >= 2 to
    split, so a type with at most L cycles fails at some ell if and only if
    a type with exactly L cycles fails there. The walk is exact, not a
    sample.

    Returns (m, witness) pairs. The witness is None when the instance is
    clean; otherwise it is (parts, ell) with parts the first type with
    exactly L cycles, in reverse-lexicographic order, that fails at some
    ell, and ell its smallest failing ell. Each m is checked against
    max_partition_size before its walk, in partition_enum's words.
    """
    results = []
    for m in m_values:
        budgets.check("max_partition_size", m, "partition size n")
        cycles = 3 * m // 4
        top = max(m - 1, 0) // 2  # ell runs over 1 <= ell < m/2
        thresholds = [3 * math.comb(m, ell) for ell in range(top + 1)]
        witness = None
        # an L-cycle type is a partition of m - L plus one on each of L parts;
        # padding keeps the reverse-lexicographic order of partition_enum
        for extra in combinatorics.partition_enum(m - cycles, budgets):
            if len(extra) > cycles:
                continue  # only at m = 1, where no type has L = 0 cycles
            parts = tuple(e + 1 for e in extra) + (1,) * (cycles - len(extra))
            fix = combinatorics.fixed_subset_polynomial(parts, top)
            ell = next((ell for ell in range(1, top + 1)
                        if 4 * fix[ell] >= thresholds[ell]), None)
            if ell is not None:
                witness = (parts, ell)
                break
        results.append((m, witness))
    return results
