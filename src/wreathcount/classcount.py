"""Conjugacy class counts for G = X wr H.

The count depends on X only through k = k(X), the number of classes of X, so
every method takes (k, H). Three independent routes are kept deliberately
separate so they can cross-check each other:

* clifford_count: sum of k(I_H(c)) over orbit representatives c of H on
  colorings of the domain with k colors, I the coloring stabilizer (H
  itself for a fixed coloring, so k(H) is counted once). The other
  stabilizers come from one coloring_stabilizers stream, and each distinct
  one is class-counted once. The representatives come from
  coloring_orbit_reps: for 2**14 to 2**22 colorings, numpy labels every
  coloring with its orbit minimum through split-radix generator tables;
  other sizes walk the orbits in pure Python.
* brute_force_count: union-find over conjugation by the generators of
  Z_k wr H, walking every element by its integer code without storing the
  group.
* closed_form: family formulas for the trivial, symmetric and prime-degree
  cyclic top groups; None for every other group.

burnside_orbit_count, (1/|H|) sum of k**sigma(h), gives the orbit count
alone, which lower-bounds the class count. auto_count is the one dispatch:
closed form, else clifford, else brute, else Infeasible with a bracket.
route_values runs every route that fits the budgets and raises when two
disagree; count --method all and the verify oracles both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import tee
from math import ceil
from operator import eq

from . import combinatorics
from .actions import build_wreath_group
from .budgets import DEFAULT, Budgets
from .errors import (
    BudgetExceeded,
    DivisibilityViolation,
    Infeasible,
    InvariantViolation,
    WreathcountError,
)
from .permgroup import (
    PermGroup,
    Permutation,
    UnionFind,
    class_count,
    coloring_stabilizers,
    conjugacy_classes,
    max_cycle_count,
)

# coloring spaces in this range are labelled by whole-array numpy work; near
# 2**14 the pure-Python walk (about 2.4 us a coloring) costs as much as
# importing numpy (about 0.035 s), which only this path needs
_NUMPY_MIN_SPACE = 1 << 14
_NUMPY_MAX_SPACE = 1 << 22
# entries per numpy labelling step: int32 blocks small enough to stay in cache
_SWEEP_BLOCK = 1 << 16


def encode_coloring(coloring, k: int) -> int:
    """Mixed-radix encoding, point 0 most significant, so integer order = lex order."""
    e = 0
    for digit in coloring:
        e = e * k + digit
    return e


def decode_coloring(e: int, k: int, n: int) -> tuple[int, ...]:
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        e, digits[i] = divmod(e, k)
    return tuple(digits)


def _orbit_reps_numpy(gens: list[Permutation], k: int, space: int) -> list[tuple[int, int]]:
    import numpy as np

    n = gens[0].degree
    h = n // 2
    digits = np.arange(k, dtype=np.int32)

    # the image of a coloring is linear in its digits, sum d_i * k**(n-1-g(i)),
    # so each table is the outer sum of a top-half and a bottom-half table
    def half(images, points):
        part = np.zeros(1, dtype=np.int32)
        for i in points:
            part = np.add.outer(part, digits * k ** (n - 1 - images[i])).ravel()
        return part

    tables = [np.add.outer(half(g.images, range(h)), half(g.images, range(h, n))).ravel()
              for g in gens]

    # min-label propagation in place, one block at a time through one buffer:
    # label[x] = min(label[x], label[idx[x]]); label[x] stays in x's orbit and <= x
    label = np.arange(space, dtype=np.int32)
    buf = np.empty(min(space, _SWEEP_BLOCK), dtype=np.int32)

    def sweep(idx):
        for lo in range(0, space, _SWEEP_BLOCK):
            hi = min(lo + _SWEEP_BLOCK, space)
            out = buf[:hi - lo]
            np.take(label, idx[lo:hi], out=out)
            np.minimum(label[lo:hi], out, out=label[lo:hi])

    while True:
        before = label.sum(dtype=np.int64)
        for t in tables:
            sweep(t)
        if label.sum(dtype=np.int64) == before:
            break
        sweep(label)  # pointer jump
    # no generator lowers a label, so label[x] <= label[g(x)] around every finite
    # cycle of g: label is constant on each orbit, hence the orbit minimum
    del tables  # before bincount allocates its whole-space int64 counts
    sizes = np.bincount(label)
    reps = np.flatnonzero(sizes)
    return list(zip(reps.tolist(), sizes[reps].tolist()))


def _apply_generator(digits: tuple[int, ...], images: tuple[int, ...], k: int) -> int:
    # (g.c)(j) = c(g^-1(j)), i.e. the digit at i lands at position g(i)
    n = len(digits)
    out = [0] * n
    for i in range(n):
        out[images[i]] = digits[i]
    return encode_coloring(out, k)


def coloring_orbit_reps(group: PermGroup, k: int, budgets: Budgets = DEFAULT,
                        mode: str = "bfs") -> list[tuple[int, int]]:
    """Orbit representatives of the group on k-colorings of its domain.

    Returns (encoding, orbit size) pairs in increasing encoding order; each
    representative is the lex-smallest coloring of its orbit. ``mode`` is
    "bfs" (the default) or "scan" (keep a coloring iff no group element sends
    it lower; linear memory, |H|-fold slower; the reference the tests compare
    bfs against). bfs labels every coloring with its orbit minimum by numpy
    array passes when k**n lies in [2**14, 2**22], and otherwise walks each
    orbit in pure Python over a visited bitmap of the whole space.
    """
    n = group.degree
    space = k ** n
    if mode == "scan":
        return _orbit_reps_scan(group, k, space)
    if mode != "bfs":
        raise ValueError(f"unknown mode {mode!r}")
    if space > budgets.max_coloring_space:
        raise BudgetExceeded(
            f"coloring space k**n = {space} exceeds the max_coloring_space budget "
            f"{budgets.max_coloring_space}")

    gens = [g for g in group.generators if not g.is_identity()]
    if not gens:
        return [(e, 1) for e in range(space)]
    if _NUMPY_MIN_SPACE <= space <= _NUMPY_MAX_SPACE:
        return _orbit_reps_numpy(gens, k, space)

    gen_images = [g.images for g in gens]
    visited = bytearray(space)
    reps: list[tuple[int, int]] = []
    for start in range(space):
        if visited[start]:
            continue
        visited[start] = 1
        stack = [start]
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            digits = decode_coloring(x, k, n)
            for images in gen_images:
                y = _apply_generator(digits, images, k)
                if not visited[y]:
                    visited[y] = 1
                    stack.append(y)
        reps.append((start, size))
    return reps


def _orbit_reps_scan(group: PermGroup, k: int, space: int) -> list[tuple[int, int]]:
    n = group.degree
    order = group.order
    elems = [g.images for g in group.elements if not g.is_identity()]
    reps = []
    for e in range(space):
        digits = decode_coloring(e, k, n)
        minimal = True
        fixes = 1
        for images in elems:
            y = _apply_generator(digits, images, k)
            if y < e:
                minimal = False
                break
            if y == e:
                fixes += 1
        if minimal:
            reps.append((e, order // fixes))
    return reps


@dataclass
class CountResult:
    """One class count with enough context to audit it."""

    k: int
    group: PermGroup
    degree: int
    method: str                 # clifford | brute | burnside-lower | closed-form
    value: int
    orbit_count: int | None = None

    def to_json_dict(self) -> dict:
        # class counts travel as decimal strings: they routinely pass 2**64
        return {
            "k": self.k,
            "group": self.group.spec_string(),
            "degree": self.degree,
            "method": self.method,
            "value": str(self.value),
            "orbit_count": None if self.orbit_count is None else str(self.orbit_count),
        }


@dataclass(frozen=True)
class OrbitStats:
    """Orbit census of H on colorings; an orbit is regular when its size is |H|."""

    total_orbits: int
    nonregular_orbits: int
    delta_size: int            # number of colorings lying in non-regular orbits


def burnside_orbit_count(group: PermGroup, k: int) -> int:
    """Orbit count of the group on k-colorings: (1/|H|) sum over h of k**sigma(h).

    Evaluated class-by-class. The sum is divisible by |H| by construction;
    a remainder means corrupted cycle counts, so it raises rather than rounds.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    for cls in conjugacy_classes(group):
        total += len(cls) * k ** cls[0].cycle_count()
    order = group.order
    if total % order:
        raise DivisibilityViolation(
            f"Burnside sum {total} not divisible by group order {order}")
    return total // order


def burnside_lower(group: PermGroup, k: int) -> CountResult:
    """Orbit count packaged as a lower bound on the class count."""
    f = burnside_orbit_count(group, k)
    return CountResult(k=k, group=group, degree=group.degree, method="burnside-lower",
                       value=f, orbit_count=f)


def clifford_count(group: PermGroup, k: int, budgets: Budgets = DEFAULT) -> CountResult:
    """k(X wr H) as the sum of stabilizer class counts over coloring orbits.

    Regular orbits have trivial stabilizer and contribute 1 each. A fixed
    coloring (orbit size 1) has stabilizer H, so k(H) is counted once per
    call and reused, after checking that every generator fixes the coloring.
    The other representatives are decoded lazily into one
    coloring_stabilizers stream; each stabilizer must satisfy
    |I_H(c)| * |orbit| = |H|, and class_count runs once per distinct
    stabilizer, since equal stabilizers arrive as one object.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = group.degree
    reps = coloring_orbit_reps(group, k, budgets)
    order = group.order
    whole = None  # k(H), counted at the first fixed coloring
    value = 0
    for enc, size in reps:
        if size == order:
            value += 1
        elif size == 1:
            coloring = decode_coloring(enc, k, n)
            if not all(all(map(eq, map(coloring.__getitem__, g.images), coloring))
                       for g in group.generators):
                raise InvariantViolation(f"coloring {coloring} has orbit size 1 but is moved")
            if whole is None:
                whole = class_count(group)
            value += whole
    # streamed: tee buffers at most the block the stabilizer pass reads ahead
    moved, to_decode = tee((enc, size) for enc, size in reps if size not in (1, order))
    stabs = coloring_stabilizers(group, (decode_coloring(enc, k, n) for enc, _ in to_decode))
    counts: dict[PermGroup, int] = {}  # keyed by identity: equal stabilizers are one object
    for (enc, size), stab in zip(moved, stabs):
        if stab.order * size != order:
            raise InvariantViolation(
                f"orbit-stabilizer: |I_H(c)| * |orbit| = {stab.order} * {size} != |H| = "
                f"{order} for coloring {decode_coloring(enc, k, n)}")
        if stab not in counts:
            counts[stab] = class_count(stab)
        value += counts[stab]
    if value * order < k ** n:
        raise InvariantViolation(
            f"class count {value} below the orbit-count lower bound k**n/|H| = {k ** n}/{order}")
    return CountResult(k=k, group=group, degree=n, method="clifford", value=value,
                       orbit_count=len(reps))


def brute_force_count(k: int, group: PermGroup, budgets: Budgets = DEFAULT) -> CountResult:
    """k(X wr H) by union-find over conjugation in Z_k wr H, element by element.

    Independent of the Clifford route end to end: no coloring enumeration,
    no stabilizers. Every element of the wreath group is visited by its
    integer code and merged with its conjugate by each generator as that
    conjugate is computed; the class count is the order minus the merges.
    """
    wr = build_wreath_group(k, group, budgets)
    uf = UnionFind(wr.order)
    union = uf.union
    merges = 0
    for x, images in wr.conjugates():
        for y in images:
            if y != x and union(x, y):
                merges += 1
    return CountResult(k=k, group=group, degree=group.degree, method="brute",
                       value=wr.order - merges)


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


def symmetric_closed_form(k: int, n: int) -> int:
    """k(X wr S_n): the number of k-tuples of partitions with total size n."""
    return combinatorics.tuples_of_partitions_count(k, n)


def closed_form(group: PermGroup, k: int) -> int | None:
    """k(X wr H) from a family formula, or None when H has no closed form here.

    Covers the trivial top group (k**n), the full symmetric group (k-tuples
    of partitions) and cyclic groups of prime degree. Reads only the
    generators and the family tag: symmetric:40 must not enumerate 40!
    permutations.
    """
    n = group.degree
    fam = group.family[0] if group.family else None
    if all(g.is_identity() for g in group.generators):
        # trivial top group: G = X^n
        return k ** n
    if fam == "symmetric":
        return symmetric_closed_form(k, n)
    if fam == "cyclic" and combinatorics.is_prime(n):
        exact, _ = schmid_cyclic(k, n)
        return exact
    return None


def route_values(group: PermGroup, k: int, budgets: Budgets) -> dict[str, int]:
    """The value of every exact route that fits the budgets, keyed by route name.

    Routes are "closed-form" (when the family has one), "clifford" and
    "brute"; a route the budgets refuse is left out. Raises WreathcountError
    when two routes disagree.
    """
    closed = closed_form(group, k)
    ran = {} if closed is None else {"closed-form": closed}
    try:
        ran["clifford"] = clifford_count(group, k, budgets).value
    except BudgetExceeded:
        pass
    try:
        ran["brute"] = brute_force_count(k, group, budgets).value
    except BudgetExceeded:
        pass
    if len(set(ran.values())) > 1:
        raise WreathcountError(f"methods disagree on {group.spec_string()}, k={k}: {ran}")
    return ran


def direct_orbit_count(group: PermGroup, k: int, budgets: Budgets = DEFAULT) -> int:
    """Orbit count by explicit enumeration; the cross-check for Burnside."""
    return len(coloring_orbit_reps(group, k, budgets))


def nonregular_orbit_stats(group: PermGroup, k: int,
                           budgets: Budgets = DEFAULT) -> OrbitStats:
    """Census of non-regular coloring orbits, with its unconditional size bounds.

    For nontrivial H, the number t of non-regular orbits satisfies
    t < 2 * k**max_sigma and the union Delta of those orbits satisfies
    |Delta| <= (|H| - 1) * k**max_sigma. Violations mean a bug, so they raise.
    """
    reps = coloring_orbit_reps(group, k, budgets)
    order = group.order
    total = len(reps)
    nonregular = sum(1 for _, size in reps if size < order)
    delta = k ** group.degree - order * (total - nonregular)
    if delta != sum(size for _, size in reps if size < order):
        raise InvariantViolation(f"orbit sizes do not partition the {k ** group.degree} colorings")
    if order > 1:
        ms = max_cycle_count(group)
        if not nonregular < 2 * k ** ms:
            raise InvariantViolation(
                f"non-regular orbit count {nonregular} >= 2*k**max_sigma = {2 * k ** ms}")
        if not delta <= (order - 1) * k ** ms:
            raise InvariantViolation(
                f"non-regular union {delta} > (|H|-1)*k**max_sigma = {(order - 1) * k ** ms}")
    return OrbitStats(total_orbits=total, nonregular_orbits=nonregular, delta_size=delta)


def count_upper_fraction(group: PermGroup, k: int, e: int) -> Fraction:
    """Exact value of the bound k**n/|H| + 2*e*k**max_sigma."""
    n = group.degree
    return Fraction(k ** n, group.order) + 2 * e * k ** max_cycle_count(group)


def auto_count(group: PermGroup, k: int, budgets: Budgets = DEFAULT) -> CountResult:
    """Dispatch: closed form when the family allows it, else clifford, else brute.

    Raises Infeasible with the tightest available bracket when no exact
    method fits the budgets.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = group.degree

    # closed forms come before anything that would materialize the element set
    value = closed_form(group, k)
    if value is not None:
        return CountResult(k=k, group=group, degree=n, method="closed-form",
                           value=value)

    space = k ** n
    if space <= budgets.max_coloring_space:
        return clifford_count(group, k, budgets)
    if space * group.order <= budgets.max_group_order:
        return brute_force_count(k, group, budgets)

    lower = ceil(Fraction(space, group.order))
    # e <= 5**(n/3) for any permutation group; round the exponent up to stay integral
    upper = count_upper_fraction(group, k, 5 ** ((n + 2) // 3))
    raise Infeasible(lower, upper)
