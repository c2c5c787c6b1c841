"""Conjugacy class counts for G = X wr H.

The count depends on X only through k = k(X), the number of classes of X, so
every method takes (k, H). Three independent routes are kept deliberately
separate so they can cross-check each other:

* clifford_count: sum of k(I_H(c)) over orbit representatives c of H on
  colorings of the domain with k colors, I the coloring stabilizer.
* brute_force_count: materialize Z_k wr H and run union-find conjugacy.
* closed_form: family formulas for the trivial, symmetric and prime-degree
  cyclic top groups; None for every other group.

burnside_orbit_count, (1/|H|) sum of k**sigma(h), gives the orbit count
alone, which lower-bounds the class count. auto_count is the one dispatch:
closed form, else clifford, else brute, else Infeasible with a bracket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from . import combinatorics
from .actions import WreathGroup, build_wreath_group
from .budgets import DEFAULT, Budgets
from .errors import BudgetExceeded, DivisibilityViolation, Infeasible
from .permgroup import (
    PermGroup,
    UnionFind,
    class_count,
    coloring_stabilizer,
    conjugacy_classes,
    max_cycle_count,
)

# above this, orbit walks build per-generator transition tables with numpy
_NUMPY_MIN_SPACE = 1 << 16
_NUMPY_MAX_SPACE = 1 << 22


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


def _gen_tables_numpy(group: PermGroup, k: int, space: int):
    import numpy as np

    n = group.degree
    weights = [k ** (n - 1 - i) for i in range(n)]
    ar = np.arange(space, dtype=np.int64)
    tmp = np.empty(space, dtype=np.int64)
    tables = []
    for g in group.generators:
        acc = np.zeros(space, dtype=np.int64)
        for i in range(n):
            np.floor_divide(ar, weights[i], out=tmp)
            np.mod(tmp, k, out=tmp)
            tmp *= weights[g(i)]
            acc += tmp
        tables.append(acc.astype(np.int32) if space < 2 ** 31 else acc)
    return tables


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
    "bfs" (visited table over the whole space, the default) or "scan" (no
    table: keep a coloring iff no group element sends it lower; linear
    memory, |H|-fold slower; the reference the tests compare bfs against).
    """
    n = group.degree
    space = k ** n
    if mode == "scan":
        return _orbit_reps_scan(group, k, space)
    if mode != "bfs":
        raise ValueError(f"unknown mode {mode!r}")
    if space > budgets.max_coloring_space:
        raise BudgetExceeded(
            f"coloring space k**n = {space} exceeds budget "
            f"{budgets.max_coloring_space}; use scan mode or raise the budget")

    gens = [g for g in group.generators if not g.is_identity()]
    if not gens:
        return [(e, 1) for e in range(space)]

    tables = None
    if _NUMPY_MIN_SPACE <= space <= _NUMPY_MAX_SPACE:
        try:
            tables = _gen_tables_numpy(group, k, space)
        except ImportError:
            tables = None
    gen_images = [g.images for g in gens]

    visited = bytearray(space)
    reps: list[tuple[int, int]] = []
    for start in range(space):
        if visited[start]:
            continue
        visited[start] = 1
        stack = [start]
        size = 0
        if tables is not None:
            while stack:
                x = stack.pop()
                size += 1
                for t in tables:
                    y = int(t[x])
                    if not visited[y]:
                        visited[y] = 1
                        stack.append(y)
        else:
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
    elapsed: float = field(default=0.0, compare=False)

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
    t0 = time.perf_counter()
    f = burnside_orbit_count(group, k)
    return CountResult(k=k, group=group, degree=group.degree, method="burnside-lower",
                       value=f, orbit_count=f, elapsed=time.perf_counter() - t0)


def clifford_count(group: PermGroup, k: int, budgets: Budgets = DEFAULT) -> CountResult:
    """k(X wr H) as the sum of stabilizer class counts over coloring orbits.

    Regular orbits have trivial stabilizer and contribute 1 each; only the
    non-regular representatives need an explicit stabilizer.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    t0 = time.perf_counter()
    n = group.degree
    reps = coloring_orbit_reps(group, k, budgets)
    order = group.order
    value = 0
    for enc, size in reps:
        if size == order:
            value += 1
        else:
            stab = coloring_stabilizer(group, decode_coloring(enc, k, n))
            value += class_count(stab)
    if value * order < k ** n:
        raise AssertionError(
            f"class count {value} below the orbit-count lower bound k**n/|H| = {k ** n}/{order}")
    return CountResult(k=k, group=group, degree=n, method="clifford", value=value,
                       orbit_count=len(reps), elapsed=time.perf_counter() - t0)


def brute_force_count(k: int, group: PermGroup, budgets: Budgets = DEFAULT) -> CountResult:
    """k(X wr H) by materializing Z_k wr H and counting conjugation orbits.

    Independent of the Clifford route end to end: no coloring enumeration,
    no stabilizers, just union-find over the full wreath group.
    """
    t0 = time.perf_counter()
    wr = build_wreath_group(k, group, budgets)
    index = {el: i for i, el in enumerate(wr.elements)}
    uf = UnionFind(len(wr.elements))
    conj = [(g, wr.inverse(g)) for g in wr.generators()]
    for i, x in enumerate(wr.elements):
        for g, ginv in conj:
            y = wr.multiply(wr.multiply(g, x), ginv)
            uf.union(i, index[y])
    value = sum(1 for i in range(len(wr.elements)) if uf.find(i) == i)
    return CountResult(k=k, group=group, degree=group.degree, method="brute",
                       value=value, elapsed=time.perf_counter() - t0)


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
        raise AssertionError(f"Fermat: {k}**{n} - {k} not divisible by prime {n}")
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
        raise AssertionError(f"orbit sizes do not partition the {k ** group.degree} colorings")
    if order > 1:
        ms = max_cycle_count(group)
        if not nonregular < 2 * k ** ms:
            raise AssertionError(
                f"non-regular orbit count {nonregular} >= 2*k**max_sigma = {2 * k ** ms}")
        if not delta <= (order - 1) * k ** ms:
            raise AssertionError(
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

    t0 = time.perf_counter()
    # closed forms come before anything that would materialize the element set
    value = closed_form(group, k)
    if value is not None:
        return CountResult(k=k, group=group, degree=n, method="closed-form",
                           value=value, elapsed=time.perf_counter() - t0)

    space = k ** n
    if space <= budgets.max_coloring_space:
        return clifford_count(group, k, budgets)
    if space * group.order <= budgets.max_group_order:
        return brute_force_count(k, group, budgets)

    lower = ceil(Fraction(space, group.order))
    # e <= 5**(n/3) for any permutation group; round the exponent up to stay integral
    upper = count_upper_fraction(group, k, 5 ** ((n + 2) // 3))
    raise Infeasible(lower, upper)
