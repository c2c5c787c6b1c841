"""Conjugacy class counts for G = X wr H.

The count depends on X only through k = k(X), the number of classes of X, so
each route takes (H, k) and returns a CountResult; every enumeration is
gated by H.budgets, given where H was built. Three independent routes are
kept deliberately separate so they can cross-check each other:

* clifford_count: (k**n - |Delta|)/|H| regular orbits, which contribute 1
  each, plus k(I) for each inertia group I of coloring_census, one per
  non-regular orbit: H itself for a fixed coloring, else the coloring
  stabilizer from one coloring_stabilizers stream. Each distinct inertia
  group is class-counted once. nonregular_orbits finds the non-regular
  orbits and |Delta|, their union: it seeds from the colorings constant on
  the cycles of one prime-order element per conjugacy class and walks each
  seed's orbit on integer codes through split-radix generator tables, so its
  cost follows |Delta| rather than k**n. It takes the full census instead
  when k**n is at most a measured multiple of the seeds' bound U on |Delta|.
  Nothing in a walk decodes a coloring. The census stays on the group per k,
  where bounds.census_rows and bounds.semiprimitive_report read it too.
* brute_force_count: the number of conjugacy classes of Z_k wr H that
  WreathGroup.classes walks breadth-first on integer element codes, under
  conjugation by the generators, with one seen byte per element and no
  element stored.
* closed_form: family formulas for the trivial, symmetric and prime-degree
  cyclic top groups; None for every other group.

coloring_orbit_reps is the full census of every orbit, behind
nonregular_orbits' census and the verify suites: from
2**15 colorings up to 2**31 (int32's range) numpy labels every coloring with
its orbit minimum, then with its orbit's rank, in one int32 array (4 bytes a
coloring), taking the generators' images block by block from the same
tables; smaller spaces go through the seeded walk, started at every code.

burnside_orbit_count, (1/|H|) sum of k**sigma(h), gives the orbit count
alone, which lower-bounds the class count. auto_count is the one dispatch:
it tries closed form, clifford and brute in turn, each refusing through its
own budget check, and raises Infeasible, a BudgetExceeded with a bracket,
when all three refuse. route_values runs every route that fits the budgets
and raises when two disagree. count_by_method runs one of METHODS
(count --method): auto_count, one route, or route_values' agreed value.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import ceil

from . import combinatorics
from .actions import build_wreath_group
from .errors import (
    BudgetExceeded,
    DivisibilityViolation,
    Infeasible,
    InvariantViolation,
    WreathcountError,
)
from .permgroup import (
    PermGroup,
    class_count,
    coloring_stabilizers,
    conjugacy_classes,
    cycle_count,
    cycles,
    is_identity,
    max_cycle_count,
)

# full censuses of at least this many colorings are labelled by numpy in one
# int32 array of 4 bytes a coloring, which only pays once numpy is imported
# (about 0.03 s); `verify burnside` imports numpy anyway
_NUMPY_MIN_SPACE = 1 << 15
# the seeded walk's cost per coloring it visits over the numpy census's cost per
# coloring of the whole space, so nonregular_orbits takes the census once the
# space is at most this many times the seeds' bound U on |Delta|. Measured:
# 0.44-0.97 us against 0.05-0.09 us (2-core Xeon, Python 3.11, numpy 2.4), a
# ratio of 8-19; it stays 5 because dihedral:15 at k = 2 has k**n = 8.3 U, and
# any ratio above that would pay numpy's import on a 2**15-coloring space
_WALK_COST_RATIO = 5
# colorings per numpy block: the generator images and gathered labels of one
# block are int32 buffers small enough to stay in cache
_SWEEP_BLOCK = 1 << 16


def decode_coloring(e: int, k: int, n: int) -> tuple[int, ...]:
    """The coloring of code e: mixed radix, point 0 most significant, so code order = lex order."""
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        e, digits[i] = divmod(e, k)
    return tuple(digits)


def _generator_steps(group: PermGroup, k: int
                     ) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """Split-radix tables that apply each non-identity generator to coloring codes.

    (g.c)(j) = c(g^-1(j)): the digit at point i lands at position g(i), so
    g(x) = sum d_i * k**(n-1-g(i)) is linear in the digits of x. Writing
    x = q * radix + r, with q the digits of the first n//2 points, gives
    g(x) = hi[q] + lo[r]. Returns radix and one (hi, lo) pair per generator.
    """
    n = group.degree
    h = n // 2

    def half(images, points):
        part = [0]
        for i in points:
            w = k ** (n - 1 - images[i])
            part = [p + d * w for p in part for d in range(k)]
        return part

    return k ** (n - h), [(half(g, range(h)), half(g, range(h, n)))
                          for g in group.generators if not is_identity(g)]


def _orbit_reps_numpy(group: PermGroup, k: int, space: int) -> list[tuple[int, int]]:
    if space >= 1 << 31:  # numpy wraps int32 silently
        raise BudgetExceeded(f"coloring space k**n = {space} exceeds the numpy census's "
                             "int32 label limit 2**31 - 1")
    import numpy as np

    radix, steps = _generator_steps(group, k)
    for hi, lo in steps:
        # the gathers below run unchecked, so every image hi[q] + lo[r] must
        # be a code in [0, space); each label stays one, as a minimum of codes
        if min(hi) + min(lo) < 0 or max(hi) + max(lo) >= space:
            raise InvariantViolation(
                f"generator table images span {min(hi) + min(lo)}..{max(hi) + max(lo)}, "
                f"outside the coloring codes 0..{space - 1}")
    steps = [(np.array(hi, dtype=np.int32)[:, None], np.array(lo, dtype=np.int32))
             for hi, lo in steps]
    # the one whole-space array; every other buffer holds one block of whole
    # q-rows (a single row when radix > _SWEEP_BLOCK)
    label = np.arange(space, dtype=np.int32)
    height, rows = space // radix, max(1, _SWEEP_BLOCK // radix)
    spans = [(q * radix, min(q + rows, height) * radix) for q in range(0, height, rows)]
    images = np.empty((min(rows, height), radix), dtype=np.int32)
    buf = np.empty(images.size, dtype=np.int32)
    lower = np.empty(images.size, dtype=bool)

    def gather(a, b, idx):
        # label[idx] into buf: mode="wrap" writes out unbuffered and bounds no
        # index, where the default mode="raise" checks each one and copies out
        out = buf[:b - a]
        np.take(label, idx, out=out, mode="wrap")
        return out

    # label[x] = min(label[x], label[g(x)]) for each generator g, block by block,
    # until a whole sweep lowers no label, then label[x] = label[label[x]];
    # label[x] stays in x's orbit and <= x
    while True:
        changed = False  # set by the first block whose gathered labels undercut its own
        for hi, lo in steps:
            for a, b in spans:
                block = images[:(b - a) // radix]
                np.add(hi[a // radix:b // radix], lo, out=block)  # g(x) = hi[q] + lo[r]
                seg, out = label[a:b], gather(a, b, block.ravel())
                changed = changed or np.less(out, seg, out=lower[:b - a]).any()
                np.minimum(seg, out, out=seg)
        if not changed:
            break
        for a, b in spans:  # pointer jump
            seg = label[a:b]
            np.minimum(seg, gather(a, b, seg), out=seg)
    # no generator lowers a label, so label[x] <= label[g(x)] around every finite
    # cycle of g: label is constant on each orbit, hence the orbit minimum

    # label[x] becomes the rank of its orbit, block by block in increasing
    # order: x's minimum label[x] <= x is ranked in an earlier block, or in
    # this one just before the non-representatives read it
    reps, ranked = [], 0
    for a, b in spans:
        seg = label[a:b]
        own = seg == np.arange(a, b, dtype=np.int32)
        first = np.flatnonzero(own)
        seg[first] = np.arange(ranked, ranked + first.size, dtype=np.int32)
        np.copyto(seg, label.take(seg), where=~own)
        reps.append(first + a)
        ranked += first.size
    # add.at, not bincount: a block's ranks can span all of 0..ranked, and
    # one bincount per block would cost the blocks times the orbit count
    sizes = np.zeros(ranked, dtype=np.int64)
    for a, b in spans:
        np.add.at(sizes, label[a:b], 1)
    return list(zip(np.concatenate(reps).tolist(), sizes.tolist()))


def _check_space(group: PermGroup, k: int) -> int:
    """k**n, refused when it passes the group's max_coloring_space budget."""
    space = k ** group.degree
    group.budgets.check("max_coloring_space", space, "coloring space k**n")
    return space


def coloring_orbit_reps(group: PermGroup, k: int) -> list[tuple[int, int]]:
    """Orbit representatives of the group on k-colorings of its domain: the full census.

    Returns (encoding, orbit size) pairs in increasing encoding order; each
    representative is the lex-smallest coloring of its orbit. Every coloring
    is visited: from _NUMPY_MIN_SPACE colorings on, numpy labels each with
    its orbit minimum by array passes (refusing 2**31 colorings and more, past
    its int32 labels); below it, _seeded_walk walks the orbit of every code.
    """
    space = _check_space(group, k)
    if space < _NUMPY_MIN_SPACE:
        return _seeded_walk(group, k, range(space))[0]
    return _orbit_reps_numpy(group, k, space)


def _prime_seeds(group: PermGroup, k: int) -> tuple[Iterator[int], int]:
    """The seed codes and U = sum of |class| * k**sigma(r), over one r per prime-order class.

    The seeds are the codes of the colorings constant on the cycles of each r,
    generated lazily: U counts them, and it can pass k**n by far.
    """
    n = group.degree
    seed_cycles = []
    bound = 0
    for cls in conjugacy_classes(group):
        cycs = cycles(cls[0], include_fixed=True)
        lengths = {len(c) for c in cycs} - {1}
        if len(lengths) == 1 and combinatorics.is_prime(lengths.pop()):
            seed_cycles.append(cycs)
            bound += len(cls) * k ** len(cycs)

    def codes():
        for cycs in seed_cycles:
            seeds = [0]
            for cycle in cycs:
                w = sum(k ** (n - 1 - i) for i in cycle)
                seeds = [s + d * w for s in seeds for d in range(k)]
            yield from seeds

    return codes(), bound


def _seeded_walk(group: PermGroup, k: int, starts: Iterable[int]
                 ) -> tuple[list[tuple[int, int]], int]:
    """The orbits through the start codes, walked on integer codes: (minimum, size) pairs, |seen|.

    The pairs come in increasing order, and |seen| is the number of colorings
    in those orbits.
    """
    radix, steps = _generator_steps(group, k)
    seen: set[int] = set()
    reps = []
    for start in starts:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for x in orbit:  # grows while it is read: a breadth-first walk
            q, r = divmod(x, radix)
            for hi, lo in steps:
                y = hi[q] + lo[r]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        reps.append((min(orbit), len(orbit)))
    reps.sort()
    return reps, len(seen)


def nonregular_orbits(group: PermGroup, k: int) -> tuple[list[tuple[int, int]], int]:
    """The orbits of the group on k-colorings smaller than |H|, and |Delta|.

    Returns (reps, delta): the (encoding, orbit size) pairs that
    coloring_orbit_reps gives for orbits of size < |H|, in the same order,
    and delta, the number of colorings in those orbits. A coloring has a
    nontrivial stabilizer iff some element of prime order fixes it, and then
    a conjugate of that element's class representative r fixes another
    coloring of its orbit. So every non-regular orbit meets the colorings
    constant on the cycles of some prime-order class representative r, and
    U = sum of |class| * k**sigma(r) over those classes bounds |Delta|. The
    seeded walk follows the orbit of each of those colorings, at a cost that
    follows |Delta| rather than k**n. The full census, filtered, serves
    instead when k**n <= _WALK_COST_RATIO * U, the walk's cost per coloring
    over the census's.
    """
    space = _check_space(group, k)  # before anything closes the group
    seeds, bound = _prime_seeds(group, k)
    if space <= _WALK_COST_RATIO * bound:
        order = group.order
        reps = [(e, size) for e, size in coloring_orbit_reps(group, k) if size < order]
        return reps, sum(size for _, size in reps)
    return _seeded_walk(group, k, seeds)


class Census(namedtuple("Census", "reps delta regular inertia")):
    # reps: nonregular_orbits(group, k), (coloring code, orbit size) pairs
    # delta: |Delta|, the colorings in non-regular orbits
    # regular: (k**n - |Delta|)/|H| regular orbits
    # inertia: I_H(c) of each rep, in order: H for a fixed coloring
    __slots__ = ()


def coloring_census(group: PermGroup, k: int) -> Census:
    """The census of (group, k), built once and kept on the group like its class BFS.

    Refuses k < 1, then the coloring space over the budget, before anything
    closes the group. The inertia groups of the moved reps come from one
    coloring_stabilizers stream, so equal ones are one object. Checks: |H|
    divides k**n - |Delta|, each generator fixes each rep of size 1, and
    |I_H(c)| * |orbit| = |H|.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = group.degree
    space = _check_space(group, k)
    census = group._census.get(k)
    if census is not None:
        return census
    order = group.order
    reps, delta = nonregular_orbits(group, k)
    regular, rem = divmod(space - delta, order)
    if rem:
        raise InvariantViolation(
            f"regular part k**n - |Delta| = {space} - {delta} not divisible by |H| = {order}")
    radix, steps = _generator_steps(group, k)
    for hi, lo in steps:
        for enc, size in reps:
            if size == 1 and hi[enc // radix] + lo[enc % radix] != enc:
                raise InvariantViolation(
                    f"coloring {decode_coloring(enc, k, n)} has orbit size 1 but is moved")
    stabs = coloring_stabilizers(group, (decode_coloring(enc, k, n)
                                         for enc, size in reps if size != 1))
    inertia = [group if size == 1 else next(stabs) for _, size in reps]
    for (enc, size), stab in zip(reps, inertia):
        if stab.order * size != order:
            raise InvariantViolation(
                f"orbit-stabilizer: |I_H(c)| * |orbit| = {stab.order} * {size} != |H| = "
                f"{order} for coloring {decode_coloring(enc, k, n)}")
    census = group._census[k] = Census(reps, delta, regular, inertia)
    return census


class CountResult(namedtuple("CountResult", "k group method value orbit_count",
                             defaults=(None,))):
    """One class count with enough context to audit it."""

    # method: clifford | brute | closed-form | all:<routes>
    __slots__ = ()

    def to_json_dict(self) -> dict:
        # class counts travel as decimal strings: they routinely pass 2**64
        return {
            "k": self.k,
            "group": self.group.spec_string(),
            "degree": self.group.degree,
            "method": self.method,
            "value": str(self.value),
            "orbit_count": None if self.orbit_count is None else str(self.orbit_count),
        }


def burnside_orbit_count(group: PermGroup, k: int) -> int:
    """Orbit count of the group on k-colorings: (1/|H|) sum over h of k**sigma(h).

    Evaluated class-by-class. The sum is divisible by |H| by construction;
    a remainder means corrupted cycle counts, so it raises rather than rounds.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    for cls in conjugacy_classes(group):
        total += len(cls) * k ** cycle_count(cls[0])
    order = group.order
    if total % order:
        raise DivisibilityViolation(
            f"Burnside sum {total} not divisible by group order {order}")
    return total // order


def clifford_count(group: PermGroup, k: int) -> CountResult:
    """k(X wr H) = (k**n - |Delta|)/|H| + sum of k(I_H(c)) over the non-regular orbits.

    Regular orbits have trivial stabilizer and contribute 1 each. The
    non-regular orbits and their inertia groups come from coloring_census,
    and class_count runs once per distinct inertia group, since equal ones
    are one object.
    """
    census = coloring_census(group, k)
    # keyed by identity: equal inertia groups are one object
    counts = {stab: class_count(stab) for stab in dict.fromkeys(census.inertia)}
    value = census.regular + sum(map(counts.__getitem__, census.inertia))
    space, order = k ** group.degree, group.order
    if value * order < space:
        raise InvariantViolation(
            f"class count {value} below the orbit-count lower bound k**n/|H| = {space}/{order}")
    return CountResult(k=k, group=group, method="clifford", value=value,
                       orbit_count=census.regular + len(census.reps))


def brute_force_count(group: PermGroup, k: int) -> CountResult:
    """k(X wr H) by walking every conjugacy class of Z_k wr H, element by element.

    Independent of the Clifford route end to end: no coloring enumeration,
    no stabilizers. WreathGroup.classes walks each class breadth-first on
    integer element codes under conjugation by the generators; the count is
    the number of walks.
    """
    wr = build_wreath_group(k, group)
    # map drops each class before the next walk starts; the loop variable of
    # sum(1 for _ in ...) would hold it through that walk
    return CountResult(k=k, group=group, method="brute", value=sum(map(bool, wr.classes())))


def schmid_cyclic(k: int, n: int) -> tuple[int | None, int]:
    """(exact, upper) for cyclic top groups of degree n.

    exact = (k**n - k)/n + k*n, valid when n is prime (None otherwise);
    upper = k**n - k + k*n holds for every cyclic group of order n >= 2.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    upper = k ** n - k + k * n
    if not combinatorics.is_prime(n):
        return None, upper
    if (k ** n - k) % n:
        raise InvariantViolation(f"Fermat: {k}**{n} - {k} not divisible by prime {n}")
    return (k ** n - k) // n + k * n, upper


def closed_form(group: PermGroup, k: int) -> CountResult | None:
    """k(X wr H) from a family formula, or None when H has no closed form here.

    Covers the trivial top group (k**n), the full symmetric group (k-tuples
    of partitions with total size n) and cyclic groups of prime degree.
    Reads only the generators and the family tag: symmetric:40 must not
    enumerate 40! permutations. Refuses k < 1 like every other route.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = group.degree
    fam = group.family[0] if group.family else None
    if all(map(is_identity, group.generators)):
        value = k ** n  # trivial top group: G = X^n
    elif fam == "symmetric":
        value = combinatorics.tuples_of_partitions_count(k, n)
    elif fam == "cyclic" and combinatorics.is_prime(n):
        value, _ = schmid_cyclic(k, n)
    else:
        return None
    return CountResult(k=k, group=group, method="closed-form", value=value)


def route_values(group: PermGroup, k: int) -> dict[str, int]:
    """The value of every exact route that fits the budgets, keyed by route name.

    Routes are "closed-form" (when the family has one), "clifford" and
    "brute"; a route the budgets refuse is left out. Raises WreathcountError
    when two routes disagree.
    """
    closed = closed_form(group, k)
    ran = {} if closed is None else {"closed-form": closed.value}
    for name, route in (("clifford", clifford_count), ("brute", brute_force_count)):
        try:
            ran[name] = route(group, k).value
        except BudgetExceeded:
            pass
    if len(set(ran.values())) > 1:
        raise WreathcountError(f"methods disagree on {group.spec_string()}, k={k}: {ran}")
    return ran


def count_upper_fraction(group: PermGroup, k: int, e: int) -> Fraction:
    """Exact value of the bound k**n/|H| + 2*e*k**max_sigma."""
    n = group.degree
    return Fraction(k ** n, group.order) + 2 * e * k ** max_cycle_count(group)


def auto_count(group: PermGroup, k: int) -> CountResult:
    """Dispatch: the first of closed form, clifford and brute that gives a count.

    closed_form gives None where the family has no formula; clifford and
    brute refuse through their own budget checks with BudgetExceeded, which
    moves on to the next route. When all three refuse, raises Infeasible
    with the tightest available bracket.
    """
    # closed forms come before anything that would materialize the element set;
    # closed_form also refuses k < 1. The routes are named here, not in a module
    # tuple, so a replaced module attribute is the route that runs.
    for route in (closed_form, clifford_count, brute_force_count):
        try:
            result = route(group, k)
        except BudgetExceeded:
            continue
        if result is not None:
            return result

    n = group.degree
    lower = ceil(Fraction(k ** n, group.order))
    # e <= 5**(n/3) for any permutation group; round the exponent up to stay integral
    upper = count_upper_fraction(group, k, 5 ** ((n + 2) // 3))
    raise Infeasible(lower, upper)


METHODS = ("auto", "clifford", "brute", "closed-form", "all")


def count_by_method(group: PermGroup, k: int, method: str = "auto") -> CountResult:
    """k(X wr H) by one of METHODS: auto_count, one route alone, or "all".

    "all" is the value the routes that fit the budgets agree on (route_values),
    or auto_count's Infeasible bracket when the budgets refuse them all.
    """
    if method == "auto":
        return auto_count(group, k)
    if method == "clifford":
        return clifford_count(group, k)
    if method == "brute":
        return brute_force_count(group, k)
    if method == "closed-form":
        result = closed_form(group, k)
        if result is None:
            raise ValueError(f"no closed form for {group.spec_string()}")
        return result
    if method != "all":
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    ran = route_values(group, k)
    if not ran:
        return auto_count(group, k)  # raises Infeasible with a bracket
    return CountResult(k=k, group=group, method="all:" + "+".join(sorted(ran)),
                       value=next(iter(ran.values())))
