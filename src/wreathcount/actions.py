"""Derived actions and group constructors.

Covers cycle types, the induced action on ell-subsets, the product action
on tuples of subsets, explicit wreath product groups, the named group
families the CLI parses, and block decompositions of imprimitive groups. A
cycle type is the weakly decreasing tuple of cycle lengths (fixed points as
1s), the same part tuple combinatorics.partition_enum yields for its class.
The named families are one table, _FAMILIES, of parameter names, least
values and generator builders: family parses and checks a spec's integers
once, and the group's family tag holds them. gens alone takes cycle notation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import eq, itemgetter
from typing import Callable, Sequence

from .budgets import DEFAULT, Budgets
from .errors import (
    DegreeMismatch,
    InvariantViolation,
    ParseError,
    UnknownFamily,
)
from .permgroup import (
    PermGroup,
    all_block_systems,
    compose,
    cycle_count,
    from_cycles,
    inverse,
    is_identity,
    is_primitive,
    is_transitive,
    orbits,
    parse_generators,
    permutation,
)


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths, fixed points as 1s, weakly decreasing: the partition of the class."""
    lengths = []
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length, pt = 0, start
        while not seen[pt]:
            seen[pt] = True
            pt = p[pt]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def cycle_type_class_size(parts: Sequence[int]) -> int:
    """Size of the conjugacy class in the symmetric group with this cycle type."""
    denom = 1
    for length, mult in Counter(parts).items():
        denom *= length ** mult * math.factorial(mult)
    return math.factorial(sum(parts)) // denom


# ---------------------------------------------------------------------------
# ell-subset action, in colexicographic order.
#
# Subsets {s_1 < s_2 < ... < s_l} of {0..m-1} are ranked colexicographically:
# rank = sum_i C(s_i, i), which keeps the point labelling independent of m.


def subset_rank(subset: Sequence[int]) -> int:
    return sum(math.comb(s, i + 1) for i, s in enumerate(sorted(subset)))


def subsets_action_lift(p: tuple[int, ...], ell: int,
                        budgets: Budgets = DEFAULT) -> tuple[int, ...]:
    """Permutation induced by p on the ell-subsets of its domain."""
    m = len(p)
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= {m}, got {ell}")
    budgets.check("max_lift_degree", math.comb(m, ell), f"lifted degree C({m},{ell})")
    rank, to_colex = _subset_tables(m, ell)
    # combinations walks the index subsets S in lex order, so the bits of p's
    # images sum to the bitmask of p(S) at S's lex position
    return to_colex(tuple(map(rank.__getitem__,
                              map(sum, combinations([1 << j for j in p], ell)))))


@lru_cache(maxsize=8)
def _subset_tables(m: int, ell: int) -> tuple[dict[int, int], Callable[[tuple], tuple]]:
    """bitmask -> subset_rank of every ell-subset of {0..m-1}, and the reorder from lex to colex.

    Colex order on equal-size subsets is the numeric order of their
    bitmasks. The reorder maps values listed by subset in lex order to the
    same values in colex order. The cache is small because a table holds
    C(m, ell) subsets, yet it holds the m - 1 tables that verify's half-bound
    loop cycles through for each m <= 6.
    """
    masks = list(map(sum, combinations([1 << i for i in range(m)], ell)))  # lex order
    lex_of = sorted(range(len(masks)), key=masks.__getitem__)  # lex positions in colex order
    rank = {masks[i]: r for r, i in enumerate(lex_of)}
    # one subset when ell == m: itemgetter of a single index would return a scalar
    return rank, itemgetter(*lex_of) if len(lex_of) > 1 else tuple


def sigma_prime(p: tuple[int, ...], ell: int, budgets: Budgets = DEFAULT) -> int:
    """Cycle count of the induced action of p on ell-subsets."""
    return cycle_count(subsets_action_lift(p, ell, budgets))


def fix_subsets_direct(p: tuple[int, ...], ell: int, budgets: Budgets = DEFAULT) -> int:
    """Number of ell-subsets fixed setwise by p, by direct enumeration."""
    m = len(p)
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= {m}")
    budgets.check("max_lift_degree", math.comb(m, ell), f"C({m},{ell})")
    # a subset's bitmask is the sum of its points' bits; both combinations
    # walks visit the same index subsets in the same order, so the second
    # yields the bits of the image p(S) next to the bits of each S
    bits = [1 << i for i in range(m)]
    image_bits = [1 << j for j in p]
    return sum(map(eq, map(sum, combinations(bits, ell)),
                   map(sum, combinations(image_bits, ell))))


# ---------------------------------------------------------------------------
# Product action of S_m wr S_t on t-tuples of ell-subsets.


def product_action_build(coords: Sequence[tuple[int, ...]], top: tuple[int, ...],
                         m: int, ell: int, budgets: Budgets = DEFAULT) -> tuple[int, ...]:
    """Permutation of the C(m,ell)^t tuples realized by (coords, top).

    A point is a t-tuple (w_1, ..., w_t) of subset ranks, encoded in mixed
    radix with coordinate 0 most significant. The image tuple takes, at
    position j, coords[top^-1(j)] applied to w_{top^-1(j)}.
    """
    t = len(coords)
    if len(top) != t:
        raise DegreeMismatch("top degree must equal the number of coordinates")
    base = math.comb(m, ell)
    for c in coords:
        if len(c) != base:
            raise DegreeMismatch(
                f"coordinate degree {len(c)} != C({m},{ell}) = {base}")
    degree = base ** t
    budgets.check("max_lift_degree", degree, f"product action degree C({m},{ell})**{t}")
    topinv = inverse(top)
    images = [0] * degree
    for point in range(degree):
        # decode tuple, most significant = coordinate 0
        w = []
        rem = point
        for _ in range(t):
            rem, digit = divmod(rem, base)
            w.append(digit)
        w.reverse()
        img = 0
        for j in range(t):
            src = topinv[j]
            img = img * base + coords[src][w[src]]
        images[point] = img
    return tuple(images)


# ---------------------------------------------------------------------------
# Explicit wreath products Z_k wr H for the brute-force oracle.


class WreathGroup:
    """The abstract group Z_k wr H, for the brute-force oracle.

    Elements are pairs (v, h) with v in (Z_k)^n and h in H; the product is
    (v, h)(w, g) = (v + h.w, h g) where (h.w)_i = w_{h^-1(i)}. The order
    k**n * |H| is checked against H's budgets up front, before any table is
    built, and no element is stored: classes() walks every element by its
    integer code v * |H| + index(h), with v read in base k, point 0 most
    significant, and index(h) the position of h in H's sorted element list.
    """

    def __init__(self, k: int, top: PermGroup):
        if k < 1:
            raise ValueError("k must be >= 1")
        n = top.degree
        size = k ** n * top.order
        top.budgets.check("max_group_order", size, "wreath group order k**n * |H|")
        self.k = k
        self.top = top
        self.n = n
        self.order = size

    @property
    def identity(self):
        return ((0,) * self.n, self.top.identity)

    def multiply(self, a, b):
        (v, h), (w, g) = a, b
        hinv = inverse(h)
        moved = tuple((v[i] + w[hinv[i]]) % self.k for i in range(self.n))
        return (moved, compose(h, g))

    def inverse(self, a):
        # (v,h)^-1 = (w, h^-1) with w_i = -v_{h(i)}: then v + h.w = 0
        v, h = a
        w = tuple((-v[h[i]]) % self.k for i in range(self.n))
        return (w, inverse(h))

    def _base_points(self) -> list[int]:
        # (0, h)(e_i, 1)(0, h)^-1 = (e_{h(i)}, 1): one e_i per orbit of H
        # together with the lifted top generators reaches every e_j
        return [orbit[0] for orbit in orbits(self.top)] if self.k > 1 else []

    def generators(self):
        """One base unit vector per orbit of H plus the lifted top generators."""
        n = self.n
        gens = [(tuple(1 if j == i else 0 for j in range(n)), self.top.identity)
                for i in self._base_points()]
        zero = (0,) * n
        for g in self.top.generators:
            gens.append((zero, g))
        return gens

    def decode(self, code: int):
        """The element (v, h) with the given integer code."""
        code, hidx = divmod(code, self.top.order)
        digits = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            code, digits[i] = divmod(code, self.k)
        return (tuple(digits), self.top.elements[hidx])

    def classes(self):
        """Yield each conjugacy class as a list of element codes, by smallest member.

        A breadth-first walk from each code not yet seen, under conjugation by
        generators(): (e_i, 1)(v, h)(e_i, 1)^-1 = (v + e_i - e_{h(i)}, h) and
        (0, g)(v, h)(0, g)^-1 = (g.v, g h g^-1). A class is complete before
        the next walk starts. Beyond the class being walked, memory is one
        byte per element (the seen marks) and tables of O(|H| + k**(n/2))
        entries per generator.
        """
        k, n = self.k, self.n
        elems = self.top.elements
        order = len(elems)
        # digit j of the code y is (y // steps[j]) % k
        steps = [k ** (n - 1 - j) * order for j in range(n)]
        # base unit e_i: (step of digit i, its wrap, step of digit h(i) per h, 0 where
        # h(i) == i); +1 at digit i and -1 at digit h(i), each mod k
        units = [(steps[i], (k - 1) * steps[i],
                  [0 if h[i] == i else steps[h[i]] for h in elems])
                 for i in self._base_points()]
        # lifted top generator g: (g.v)_{g(j)} = v_j, so g.v = sum_j v_j * steps[g(j)],
        # split as hi[q] + lo[r] with (q, r) = divmod(v, radix), q the first n//2 digits
        radix = k ** (n - n // 2)
        index = {h: i for i, h in enumerate(elems)}

        def half(g, points):
            part = [0]
            for j in points:
                part = [p + d * steps[g[j]] for p in part for d in range(k)]
            return part

        tops = [(half(g, range(n // 2)), half(g, range(n // 2, n)),
                 [index[compose(compose(g, h), inverse(g))] for h in elems])
                for g in self.top.generators if not is_identity(g)]
        last = k - 1
        seen = bytearray(self.order)
        for start in range(self.order):
            if seen[start]:
                continue
            seen[start] = 1
            cls = [start]
            for y in cls:  # grows while it is walked
                v, hidx = divmod(y, order)
                q, r = divmod(v, radix)
                for hi, lo, conj in tops:
                    z = hi[q] + lo[r] + conj[hidx]
                    if not seen[z]:
                        seen[z] = 1
                        cls.append(z)
                for si, wi, moved in units:
                    sj = moved[hidx]
                    if sj:
                        z = (y + (-wi if y // si % k == last else si)
                             + (-sj if y // sj % k else last * sj))
                        if not seen[z]:
                            seen[z] = 1
                            cls.append(z)
            yield cls


def build_wreath_group(k: int, top: PermGroup) -> WreathGroup:
    return WreathGroup(k, top)


# ---------------------------------------------------------------------------
# Named families.


def _cyclic_gen(n: int) -> tuple[int, ...]:
    return tuple((i + 1) % n for i in range(n))


def symmetric_gens(n: int) -> list[tuple[int, ...]]:
    """(0 1) and, for n > 2, the n-cycle: generators of S_n (the identity for n = 1)."""
    if n == 1:
        return [(0,)]
    gens = [from_cycles([[0, 1]], n)]
    if n > 2:
        gens.append(_cyclic_gen(n))
    return gens


def _alternating_gens(n: int) -> list[tuple[int, ...]]:
    if n < 3:
        return [tuple(range(max(n, 1)))]
    three = from_cycles([[0, 1, 2]], n)
    if n == 3:
        return [three]
    if n % 2 == 1:
        return [three, _cyclic_gen(n)]
    # even n: the n-cycle is odd; use the (n-1)-cycle fixing 0 instead
    return [three, from_cycles([list(range(1, n))], n)]


def _dihedral_gens(n: int) -> list[tuple[int, ...]]:
    rot = _cyclic_gen(n)
    refl = tuple((n - i) % n for i in range(n))
    return [rot, refl]


def _wreath_cyclic_gens(m: int) -> list[tuple[int, ...]]:
    # C2 wr C_m on 2m points: pair blocks {2i, 2i+1}, first-pair swap plus block rotation
    n = 2 * m
    swap = from_cycles([[0, 1]], n)
    if m == 1:
        return [swap]
    rot = tuple((i + 2) % n for i in range(n))
    return [swap, rot]


def _product_gens(m: int, ell: int, t: int, budgets: Budgets) -> list[tuple[int, ...]]:
    # S_m wr S_t: S_m on the first coordinate, and S_t permuting the coordinates
    ident, top_ident = tuple(range(math.comb(m, ell))), tuple(range(t))
    gens = []
    for g in symmetric_gens(m):
        coords = [subsets_action_lift(g, ell, budgets)] + [ident] * (t - 1)
        gens.append(product_action_build(coords, top_ident, m, ell, budgets))
    return gens + [product_action_build([ident] * t, tau, m, ell, budgets)
                   for tau in symmetric_gens(t) if not is_identity(tau)]


# regular quaternion group of order 8, indexed 1,-1,i,-i,j,-j,k,-k
_QUATERNION_GENS = (
    (2, 3, 1, 0, 6, 7, 5, 4),   # left multiplication by i
    (4, 5, 7, 6, 1, 0, 2, 3),   # left multiplication by j
)

# name -> (parameter names, least value of each, generators from (*params, budgets)).
# A builder looks its functions up when it runs, so a wrapped or patched
# module function (subsets_action_lift above all) is the one called.
_FAMILIES = {
    "cyclic": (("n",), (1,), lambda n, budgets: [_cyclic_gen(n)]),
    "symmetric": (("n",), (1,), lambda n, budgets: symmetric_gens(n)),
    "alternating": (("n",), (1,), lambda n, budgets: _alternating_gens(n)),
    "dihedral": (("n",), (3,), lambda n, budgets: _dihedral_gens(n)),
    "wreath-cyclic": (("m",), (1,), lambda m, budgets: _wreath_cyclic_gens(m)),
    "quaternion": ((), (), lambda budgets: _QUATERNION_GENS),
    "subsets": (("m", "ell"), (2, 1), lambda m, ell, budgets: [
        subsets_action_lift(g, ell, budgets) for g in symmetric_gens(m)]),
    "subsets-alt": (("m", "ell"), (2, 1), lambda m, ell, budgets: [
        subsets_action_lift(g, ell, budgets) for g in _alternating_gens(m)]),
    "product": (("m", "ell", "t"), (2, 1, 1), _product_gens),
}


def family(name: str, params: Sequence = (), budgets: Budgets = DEFAULT) -> PermGroup:
    """Construct a named group family; see the CLI help for the grammar.

    Parameters are ints or their strings, checked against _FAMILIES (and
    ell < m); the family tag holds the ints. gens takes cycle notation, and
    its tag holds the stripped parameter strings.
    """
    params = tuple(map(str, params))
    if name == "gens":
        if not params:
            raise UnknownFamily("gens needs at least one permutation")
        rest = list(params)  # as typed, so a parse column counts in the list
        degree = None
        if rest[0].strip().isdecimal():
            degree = int(rest.pop(0))
            if not rest:
                raise UnknownFamily("gens needs at least one permutation after the degree")
        try:
            gens = parse_generators(",".join(rest), degree)
        except ParseError as exc:
            raise UnknownFamily(f"bad generator list: {exc}") from exc
        return PermGroup(gens, family=(name, tuple(map(str.strip, params))), budgets=budgets)
    if name not in _FAMILIES:
        raise UnknownFamily(f"unknown family {name!r}")
    names, least, build = _FAMILIES[name]
    params = tuple(map(str.strip, params))
    if len(params) != len(names):
        raise UnknownFamily(f"{name} takes {len(names)} parameter(s), got {len(params)}")
    try:
        values = tuple(map(int, params))
    except ValueError:
        raise UnknownFamily(f"{name} parameters must be integers: {params}")
    needs = [f"{p} >= {lo}" for p, lo in zip(names, least)]
    fits = all(v >= lo for v, lo in zip(values, least))
    if "ell" in names:  # the subset actions, parameters (m, ell, ...)
        needs.append("ell < m")
        fits = fits and values[1] < values[0]
    if not fits:
        raise UnknownFamily(f"{name} needs {', '.join(needs)}, got {','.join(map(str, values))}")
    return PermGroup(build(*values, budgets), family=(name, values), budgets=budgets)


def parse_group_spec(spec: str, budgets: Budgets = DEFAULT) -> PermGroup:
    """Parse ``name`` or ``name:p1,p2,...`` into a group.

    family gets the parameters as typed between the commas, so a generator
    parse error names its column in the list as typed.
    """
    spec = spec.strip()
    if not spec:
        raise UnknownFamily("empty group spec")
    name, _, raw = spec.partition(":")
    return family(name.strip(), raw.split(",") if raw else [], budgets)


# ---------------------------------------------------------------------------
# Block decompositions.


@dataclass(frozen=True)
class BlockDecomposition:
    """A block system with primitive quotient, plus kernel and quotient groups."""

    r: int
    blocks: tuple[tuple[int, ...], ...]
    kernel: PermGroup
    quotient: PermGroup


def induced_block_permutation(h: tuple[int, ...], blocks: Sequence[Sequence[int]]
                              ) -> tuple[int, ...]:
    """Permutation of block indices induced by h; blocks must be h-invariant as a system."""
    index = {}
    for bi, block in enumerate(blocks):
        for pt in block:
            index[pt] = bi
    return permutation(index[h[block[0]]] for block in blocks)


def block_decomposition(group: PermGroup) -> BlockDecomposition | None:
    """Coarsest block system of a transitive group, or None if primitive.

    Picks the system with the fewest blocks r > 1; ties break toward the
    lexicographically smallest block containing 0, then the smallest
    partition. No proper system is coarser than one with the fewest blocks,
    so its quotient action is primitive; only that one quotient is built,
    and its primitivity is checked. Kernel and quotient carry group.budgets.
    """
    if not is_transitive(group):
        raise ValueError("block decomposition needs a transitive group")
    systems = all_block_systems(group)
    if not systems:
        return None
    blocks = min(systems, key=lambda part: (
        len(part), next(b for b in part if 0 in b), part))
    quotient = PermGroup([induced_block_permutation(g, blocks) for g in group.generators],
                         budgets=group.budgets)
    if not is_primitive(quotient):
        raise InvariantViolation("a system with the fewest blocks has an imprimitive quotient")

    kernel_elems = []
    for h in group.elements:
        if is_identity(induced_block_permutation(h, blocks)):
            kernel_elems.append(h)
    kernel = PermGroup.from_elements(kernel_elems, budgets=group.budgets)
    if kernel.order * quotient.order != group.order:
        raise InvariantViolation("kernel/quotient orders do not multiply to the group order")
    return BlockDecomposition(r=len(blocks), blocks=blocks, kernel=kernel, quotient=quotient)
