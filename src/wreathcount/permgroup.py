"""Desk-scale permutation groups with fully materialized element sets.

Everything here works by explicit element enumeration. A permutation of
{0, ..., n-1} is the plain tuple of its images, so p[i] is the image of i
and len(p) its degree; the functions below compose, invert and read the
cycles of such tuples. A group holds one sorted element table. Closures add
one coset at a time (Dimino's algorithm), so the walk over the conjugacy
classes of subgroups (one subgroup per class) and the normal-subgroup
lattice extend each known subgroup from its own elements and return it with
the generators that built it; conjugacy classes, of elements and of
subgroups, are BFS over generator conjugations, orbits are union-find, block
systems are the join-closure of the minimal ones (a transitive group with
none is primitive; actions.block_decomposition reads the same walk), one
test over the normal-subgroup lattice decides semiprimitivity, and an
explicit element set gets a greedy generating set, each generator closed by
the same coset extension from the group generated before it.
Coloring stabilizers come in batches: one pass over a group's cached
elements tests every element against a block of colorings at once, through
bit masks with one bit per coloring. No stabilizer chains. That keeps results
exact, deterministic and easy to audit, and is the right tradeoff for the
group orders this package targets (closure budget defaults to 10**6 elements).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import islice, repeat
from operator import and_, eq, getitem, itemgetter

from .budgets import DEFAULT, Budgets
from .errors import BudgetExceeded, DegreeMismatch, InvariantViolation, ParseError

# colorings per pass of coloring_stabilizers over a group's elements: the
# pass keeps degree**2 masks of this many bits, and longer masks make every
# AND and every set-bit step slower
_STAB_BLOCK = 1 << 10
# bytes 0/1 -> ASCII "0"/"1", to read a byte per coloring as a base-2 int
_BINARY = bytes.maketrans(b"\0\1", b"01")


def permutation(images: Iterable[int]) -> tuple[int, ...]:
    """The image tuple, checked to be a permutation of 0..len-1."""
    p = tuple(images)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation of 0..{len(p) - 1}: {p}")
    return p


def from_cycles(cycles: Sequence[Sequence[int]], degree: int) -> tuple[int, ...]:
    """Build from 0-indexed cycles; points absent from all cycles are fixed."""
    images = list(range(degree))
    seen = set()
    for cyc in cycles:
        for pt in cyc:
            if not 0 <= pt < degree:
                raise ValueError(f"point {pt} out of range for degree {degree}")
            if pt in seen:
                raise ValueError(f"point {pt} appears twice")
            seen.add(pt)
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The product p*q, with q acting first: compose(p, q)[i] == p[q[i]]."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degree {len(p)} vs {len(q)}")
    return tuple(map(p.__getitem__, q))


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)


def is_identity(p: tuple[int, ...]) -> bool:
    return all(i == img for i, img in enumerate(p))


def cycles(p: tuple[int, ...], include_fixed: bool = False) -> list[tuple[int, ...]]:
    """Disjoint cycles, each rotated to start at its minimum, sorted by start."""
    out = []
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        pt = p[start]
        while pt != start:
            seen[pt] = True
            cyc.append(pt)
            pt = p[pt]
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


def cycle_count(p: tuple[int, ...]) -> int:
    """Number of cycles on the full domain, fixed points included."""
    n = 0
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        n += 1
        pt = start
        while not seen[pt]:
            seen[pt] = True
            pt = p[pt]
    return n


def cycle_string(p: tuple[int, ...]) -> str:
    """1-indexed disjoint cycle notation; identity prints as ``()``."""
    cycs = cycles(p)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(pt + 1) for pt in c) + ")" for c in cycs)


def _parse_cycles(text: str, offset: int = 0) -> list[list[int]]:
    """The 1-indexed cycles written in text, empty cycles dropped; checks syntax only.

    A syntax error names its column counted from offset + 1, so a part of a
    longer list that starts offset characters in reports the column in the list.
    """
    cycles: list[list[int]] = []
    cur: list[int] | None = None
    num = ""
    for col, ch in enumerate(text, offset + 1):
        if ch.isdecimal():  # isdigit would also take "²", which int() refuses
            if cur is None:
                raise ParseError("number outside of a cycle", col)
            num += ch
            continue
        if num:  # a digit run only starts inside a cycle
            cur.append(int(num))
            num = ""
        if ch == "(":
            if cur is not None:
                raise ParseError("nested '('", col)
            cur = []
        elif ch == ")":
            if cur is None:
                raise ParseError("unmatched ')'", col)
            if cur:
                cycles.append(cur)
            cur = None
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", col)
    if cur is not None:
        raise ParseError("unclosed '('", offset + len(text))
    return cycles


def parse_generators(text: str, degree: int | None = None) -> list[tuple[int, ...]]:
    """Parse a comma-separated list of 1-indexed cycle-notation permutations.

    Points within a cycle are whitespace-separated; fixed points may be
    omitted, and ``()`` or an empty part is the identity. All permutations
    share one degree: the explicit one, or the largest point in the list. A
    syntax error names its column, counted from the start of text.
    """
    if not text.replace(",", "").strip():
        raise ParseError("empty generator list")
    parts, offset = [], 0
    for part in text.split(","):
        parts.append(_parse_cycles(part, offset))
        offset += len(part) + 1
    if degree is None:
        degree = max((pt for cycles in parts for cyc in cycles for pt in cyc), default=0)
        if degree == 0:
            raise ParseError("cannot infer degree; no points mentioned")
    perms = []
    for cycles in parts:
        points = [pt for cyc in cycles for pt in cyc]
        if 0 in points:
            raise ParseError("points are 1-indexed, got 0")
        if max(points, default=0) > degree:
            raise ParseError(f"point {max(points)} exceeds degree {degree}")
        seen = set()
        for pt in points:
            if pt in seen:  # named as written, 1-indexed
                raise ParseError(f"point {pt} appears twice")
            seen.add(pt)
        perms.append(from_cycles([[pt - 1 for pt in cyc] for cyc in cycles], degree))
    return perms


def parse_permutation(text: str, degree: int | None = None) -> tuple[int, ...]:
    """Parse one permutation in cycle notation, like ``(1 2 3)(4 5)``.

    parse_generators on a list of one, so an identity needs an explicit degree.
    """
    if "," in text:
        raise ParseError("unexpected character ','", text.index(",") + 1)
    return parse_generators(text, degree)[0]


def _closure(generators: Sequence[tuple[int, ...]], limit: int,
             base: Iterable[tuple[int, ...]] | None = None) -> set[tuple[int, ...]]:
    """Image tuples of the group the generators generate; always holds the identity.

    Dimino's coset extension (Butler, Fundamental Algorithms for Permutation
    Groups, LNCS 559), mirrored to right cosets: each generator g not yet in
    the running group sub extends it. Coset representatives, starting from
    the identity, are multiplied on the right by every generator of
    <sub, g>; a product y outside the group so far opens the new coset
    sub*y, filled with one product per element of sub. So each element is
    made once, and only the representatives meet every generator. Every
    product is one itemgetter call, which builds its tuple at exact size.

    ``base``, when given, is the closed subgroup (as image tuples) generated
    by those of ``generators`` that lie in it, and the walk starts from it
    instead of from the identity. Refuses as soon as the order passes
    ``limit``.
    """
    degree = len(generators[0])
    ident = tuple(range(degree))
    group = {ident} if base is None else set(base)
    if degree == 1:  # the trivial group; itemgetter of one index returns an int
        return group
    # right multipliers r -> r * s for the generators of the running group;
    # those in base generate it
    multipliers = [itemgetter(*g) for g in generators if g in group]
    for g in generators:
        if g in group:
            continue
        multipliers.append(itemgetter(*g))
        sub = list(group)
        reps = [ident]
        for r in reps:  # grows while it is walked
            for s in multipliers:
                y = s(r)  # r * s
                if y not in group:
                    if len(group) + len(sub) > limit:
                        raise BudgetExceeded(
                            f"closure order = {len(group) + len(sub)} exceeds the "
                            f"max_group_order budget {limit}")
                    group.update(map(itemgetter(*y), sub))  # h * y
                    reps.append(y)
    return group


class PermGroup:
    """Finite permutation group given by generators; elements materialized lazily.

    The element tuple is sorted by image tuples, so all downstream
    enumerations (classes, stabilizers, orbit representatives) are
    deterministic. ``family`` optionally tags how the group was constructed,
    e.g. ("cyclic", (5,)); counting code uses it to dispatch closed forms.
    """

    def __init__(self, generators: Iterable[Sequence[int]], degree: int | None = None,
                 family: tuple[str, tuple] | None = None,
                 budgets: Budgets = DEFAULT):
        generators = tuple(map(permutation, generators))
        if not generators:
            if degree is None:
                raise ValueError("need generators or an explicit degree")
            generators = (tuple(range(degree)),)
        degrees = set(map(len, generators))
        if len(degrees) != 1:
            raise DegreeMismatch(f"mixed generator degrees {sorted(degrees)}")
        if degree is not None and degree != len(generators[0]):
            raise DegreeMismatch(f"degree {degree} vs generator degree {len(generators[0])}")
        self.generators = generators
        self.degree = len(generators[0])
        self.family = family
        self.budgets = budgets
        self._elements: tuple[tuple[int, ...], ...] | None = None
        self._refusal: str | None = None  # why the budget refused the closure
        self._classes: list[list[int]] | None = None
        self._cycle_stats: tuple[tuple[int, int], ...] | None = None
        # k -> the checked coloring census (classcount.coloring_census)
        self._census: dict = {}

    @classmethod
    def from_elements(cls, elements: Iterable[tuple[int, ...]],
                      budgets: Budgets = DEFAULT) -> "PermGroup":
        """Wrap an explicit, already-closed element set; finds a small generating set.

        The greedy walk takes the smallest element, by image tuple, not yet
        generated, so the generating set (and everything derived from it) is
        deterministic. Each new generator is checked to be a permutation and
        closed by _closure from the group generated so far, with the element
        count as its limit: a closed set never outgrows itself and an open
        one always does. Every other element is a product of generators, so
        a non-permutation in the set is always picked and refused. Raises
        ValueError when the set is not closed under products.
        """
        table = sorted(set(elements))
        if not table:
            raise ValueError("empty element set")
        degree = len(table[0])
        if any(len(x) != degree for x in table):
            raise DegreeMismatch(f"mixed element degrees {sorted(set(map(len, table)))}")
        gens: list[tuple[int, ...]] = []
        known = {tuple(range(degree))}
        for x in table:
            if x in known:
                continue
            gens.append(permutation(x))
            try:
                known = _closure(gens, limit=len(table), base=known)
            except BudgetExceeded:
                raise ValueError("element set is not closed under products") from None
        return cls._closed(gens, table, degree, budgets)

    @classmethod
    def _closed(cls, generators: Sequence[tuple[int, ...]],
                elements: Iterable[tuple[int, ...]], degree: int,
                budgets: Budgets = DEFAULT) -> "PermGroup":
        """The group the generators close to: these sorted elements, unchecked."""
        grp = cls(generators, degree=degree, budgets=budgets)
        grp._elements = tuple(elements)
        return grp

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Every element, sorted (by image tuple); closed on first use, not after a refusal."""
        if self._elements is None:
            if self._refusal is not None:
                raise BudgetExceeded(self._refusal)
            try:
                self._elements = tuple(sorted(
                    _closure(self.generators, limit=self.budgets.max_group_order)))
            except BudgetExceeded as exc:
                self._refusal = str(exc)
                raise
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple(range(self.degree))

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(compose(a, b) == compose(b, a)
                   for i, a in enumerate(gens) for b in gens[i + 1:])

    def spec_string(self) -> str:
        """Stable textual form; family spec if tagged, else explicit generators."""
        if self.family is not None:
            name, params = self.family
            if params:
                return f"{name}:{','.join(str(p) for p in params)}"
            return name
        gens = ",".join(map(cycle_string, self.generators))
        return f"gens:{self.degree},{gens}"

    def __repr__(self) -> str:
        return f"PermGroup({self.spec_string()!r}, degree={self.degree})"


class UnionFind:
    """Plain union-find over 0..n-1 with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def partition(self) -> tuple[tuple[int, ...], ...]:
        """The classes as sorted tuples, in order of their smallest members."""
        buckets: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            buckets.setdefault(self.find(i), []).append(i)
        return tuple(map(tuple, buckets.values()))  # i ascends: each class opens at its minimum


def orbits(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the domain.

    Only generators are applied, so this never materializes the group.
    """
    uf = UnionFind(group.degree)
    for g in group.generators:
        for i, img in enumerate(g):
            uf.union(i, img)
    return uf.partition()


def is_transitive(group: PermGroup) -> bool:
    return len(orbits(group)) == 1


def is_semiregular(group: PermGroup) -> bool:
    """True when every point stabilizer is trivial (no nonidentity element fixes a point)."""
    return all(fixed == 0 for _, fixed in cycle_stats(group)[1:])  # [0] is the identity


def cycle_stats(group: PermGroup) -> tuple[tuple[int, int], ...]:
    """(cycle count, fixed points) of each element, in element order; kept on the group."""
    if group._cycle_stats is None:
        points = range(group.degree)
        group._cycle_stats = tuple((cycle_count(g), sum(map(eq, g, points)))
                                   for g in group.elements)
    return group._cycle_stats


def coloring_stabilizer(group: PermGroup, coloring: Sequence[int]) -> PermGroup:
    """Subgroup preserving a coloring of the domain: {h : c(h(i)) = c(i) for all i}."""
    return next(coloring_stabilizers(group, [coloring]))


def _color_masks(column: tuple) -> dict[int, int]:
    """For one point across a block of colorings: color -> mask of the colorings giving it."""
    backwards = column[::-1]  # int(..., 2) reads its most significant bit first
    return {v: int(bytes(map(eq, backwards, repeat(v))).translate(_BINARY), 2)
            for v in set(column)}


def coloring_stabilizers(group: PermGroup, colorings: Iterable[Sequence[int]]
                         ) -> Iterator[PermGroup]:
    """The stabilizer of each coloring, yielded in input order.

    Colorings are read _STAB_BLOCK at a time, so a generator input is read
    at most one block ahead of what has been yielded. Within a block,
    same[i][p] is a mask whose bit r is set iff coloring r gives points i
    and p the same color; h fixes coloring r iff bit r survives the AND of
    same[i][h(i)] over i, so one pass over the elements of H serves the
    whole block. Colorings fixed by the same elements share one PermGroup,
    for the whole stream, so equal stabilizers are the same object.
    """
    degree = group.degree
    elements = group.elements
    shared: dict[tuple[int, ...], PermGroup] = {}
    stream = iter(colorings)
    while block := list(islice(stream, _STAB_BLOCK)):
        for c in block:
            if len(c) != degree:
                raise DegreeMismatch(f"coloring length {len(c)} vs degree {degree}")
        full = (1 << len(block)) - 1
        masks = [_color_masks(column) for column in zip(*block)]
        same = [[full] * degree for _ in range(degree)]
        for i in range(degree):
            for p in range(i + 1, degree):
                # masks of distinct colors are disjoint, so the sum is their union
                same[i][p] = same[p][i] = sum(
                    m & masks[p].get(v, 0) for v, m in masks[i].items())
        kept = [[0] for _ in block]  # position 0 holds the identity, the smallest tuple
        for pos in range(1, len(elements)):
            fixed = reduce(and_, map(getitem, same, elements[pos]), full)
            while fixed:
                low = fixed & -fixed
                kept[low.bit_length() - 1].append(pos)
                fixed ^= low
        for positions in map(tuple, kept):
            stab = shared.get(positions)
            if stab is None:
                stab = shared[positions] = PermGroup.from_elements(
                    map(elements.__getitem__, positions), budgets=group.budgets)
            yield stab


def _conjugations(group: PermGroup) -> list[list[int]]:
    """For each generator g, the map x -> g*x*g^-1 on element positions.

    Generator conjugations generate all conjugations, so a BFS under these
    maps walks a conjugacy class, of elements or of subgroups. Conjugates
    are looked up by position, so no product outlives its lookup.
    """
    elements = group.elements
    if group.degree == 1:  # the trivial group; itemgetter of one index returns an int
        return [[0] for _ in group.generators]
    position = dict(zip(elements, range(len(elements))))
    maps = []
    for g in group.generators:
        # x * g^-1 picks x at g^-1's images; g * (x * g^-1) picks g at those
        x_ginv = itemgetter(*inverse(g))
        maps.append([position[itemgetter(*x_ginv(x))(g)] for x in elements])
    return maps


def _class_indices(group: PermGroup) -> list[list[int]]:
    """Conjugacy classes as lists of element positions, ordered by smallest member.

    BFS from each element not yet reached, in sorted order, under the
    generator conjugations. A class is complete before the next start, so
    each class starts at its smallest member. The walk runs once per group;
    later calls return the same lists.
    """
    if group._classes is not None:
        return group._classes
    conj = _conjugations(group)
    seen = bytearray(group.order)
    classes = []
    for start in range(group.order):
        if seen[start]:
            continue
        seen[start] = 1
        cls = [start]
        for i in cls:  # grows while it is walked
            for c in conj:
                j = c[i]
                if not seen[j]:
                    seen[j] = 1
                    cls.append(j)
        classes.append(cls)
    group._classes = classes
    return classes


def conjugacy_classes(group: PermGroup) -> list[tuple[tuple[int, ...], ...]]:
    """Conjugacy classes as sorted element tuples, ordered by smallest member."""
    element = group.elements.__getitem__
    return [tuple(map(element, sorted(cls))) for cls in _class_indices(group)]


def class_count(group: PermGroup) -> int:
    """Number of conjugacy classes."""
    return len(_class_indices(group))


def normal_subgroups(group: PermGroup) -> list[PermGroup]:
    """All normal subgroups, by order and then by sorted elements; refuses over group.budgets.

    Every normal subgroup is a union of conjugacy classes and is generated by
    the classes it contains, so the lattice is exactly the join-closure of
    class closures: grow each known normal subgroup by one whole class at a
    time until nothing new appears. Each found subgroup keeps the classes
    that generated it, and a closure starts from the found subgroup itself,
    so it only adds the cosets the new class brings; a class member already
    in the running group costs a set lookup. The walk keys subgroups by
    image tuples; each distinct one is returned as a PermGroup generated by
    the classes that built it, with no further closure.
    """
    group.budgets.check("max_normal_order", group.order, "normal subgroup lattice: |H|")
    classes = conjugacy_classes(group)
    trivial = frozenset({group.identity})
    found = {trivial: ()}
    queue = [trivial]
    while queue:
        base = queue.pop()
        gens = found[base]
        for cls in classes:
            if cls[0] in base:
                continue
            grown = frozenset(_closure(gens + cls, limit=group.order, base=base))
            if grown not in found:
                group.budgets.check("max_subgroup_count", len(found) + 1, "normal subgroups found")
                found[grown] = gens + cls
                queue.append(grown)
    return _wrap_lattice(group, found)


def _wrap_lattice(group: PermGroup, lattice: dict[frozenset[tuple[int, ...]], tuple]
                  ) -> list[PermGroup]:
    """Image-tuple subgroups, keyed to their generators, as PermGroups by (order, elements).

    The whole group is returned as itself, so its cached classes serve the
    lattice; every other member carries group.budgets.
    """
    element = dict(zip(group.elements, group.elements)).__getitem__  # tuple -> group's own object
    ordered = sorted(((len(s), sorted(s), gens) for s, gens in lattice.items()),
                     key=lambda t: t[:2])
    return [group if size == group.order else
            PermGroup._closed(gens, map(element, members), group.degree, budgets=group.budgets)
            for size, members, gens in ordered]


def minimal_block_partition(group: PermGroup, point: int) -> tuple[tuple[int, ...], ...]:
    """Finest block system in which 0 and ``point`` share a block.

    Union-find pair propagation: whenever a ~ b is known, g(a) ~ g(b) must
    hold for every generator g; iterate to the fixpoint.
    """
    uf = UnionFind(group.degree)
    uf.union(0, point)
    queue = [(0, point)]
    while queue:
        a, b = queue.pop()
        for g in group.generators:
            x, y = g[a], g[b]
            if uf.union(x, y):
                queue.append((x, y))
    return uf.partition()


def _join_partitions(p1, p2, degree: int) -> tuple[tuple[int, ...], ...]:
    uf = UnionFind(degree)
    for part in (p1, p2):
        for block in part:
            for other in block[1:]:
                uf.union(block[0], other)
    return uf.partition()


def all_block_systems(group: PermGroup) -> list[tuple[tuple[int, ...], ...]]:
    """Every nontrivial proper block system of a transitive group.

    For a transitive action each congruence is the join of the minimal
    congruences identifying 0 with another point of its block, so the full
    congruence lattice is the join-closure of the minimal partitions. Sorted
    by block count, then by partition.
    """
    d = group.degree
    minimal = set()
    for q in range(1, d):
        part = minimal_block_partition(group, q)
        if 1 < len(part) < d:
            minimal.add(part)
    systems = set(minimal)
    frontier = list(minimal)
    while frontier:
        part = frontier.pop()
        for other in minimal:
            joined = _join_partitions(part, other, d)
            if 1 < len(joined) < d and joined not in systems:
                systems.add(joined)
                frontier.append(joined)
    return sorted(systems, key=lambda p: (len(p), p))


def is_primitive(group: PermGroup) -> bool:
    """Transitive with no nontrivial proper block system."""
    return is_transitive(group) and not all_block_systems(group)


@dataclass(frozen=True)
class StructureReport:
    transitive: bool
    semiregular: bool
    primitive: bool
    semiprimitive: bool
    normal_subgroup_count: int


def structure_classify(group: PermGroup) -> StructureReport:
    """Transitivity, semiregularity, primitivity, semiprimitivity.

    Semiprimitive: transitive and every normal subgroup is transitive or
    semiregular. Uses the full normal subgroup lattice, so it inherits that
    enumeration's budget.
    """
    normals = normal_subgroups(group)
    return StructureReport(
        transitive=is_transitive(group),
        semiregular=is_semiregular(group),
        primitive=is_primitive(group),
        semiprimitive=is_semiprimitive(group, normals),
        normal_subgroup_count=len(normals),
    )


def is_semiprimitive(group: PermGroup, normals: Iterable[PermGroup]) -> bool:
    """Transitive, with each of normals (its normal subgroups) transitive or semiregular."""
    return is_transitive(group) and all(is_transitive(n) or is_semiregular(n) for n in normals)


def _subgroup_class(group: PermGroup, sub: frozenset[tuple[int, ...]],
                    generators: tuple[tuple[int, ...], ...], conj: list[list[int]],
                    position: dict[tuple[int, ...], int]
                    ) -> tuple[list[frozenset[tuple[int, ...]]], list[tuple[int, ...]]]:
    """The conjugacy class of sub = <generators>, and elements that with sub generate N_H(sub).

    BFS under the generator conjugations, recording for each conjugate an
    element t with conjugate = t*sub*t^-1. When the generator g takes the
    conjugate of t to that of u, u^-1*g*t normalizes sub, and these
    generate N_H(sub) (Schreier's lemma). One is kept only if it lies
    outside the group generated so far, and none once that group has the
    order |H| / |class| of N_H(sub).
    """
    elements = group.elements
    ident = group.identity
    via = {sub: ident}
    cls = [(list(map(position.__getitem__, sub)), ident)]
    edges = []
    for member, t in cls:  # grows while walked
        for c, g in zip(conj, group.generators):
            moved = list(map(c.__getitem__, member))
            conjugate = frozenset(map(elements.__getitem__, moved))
            gt = tuple(map(g.__getitem__, t))  # g * t
            u = via.get(conjugate)
            if u is None:
                via[conjugate] = gt
                cls.append((moved, gt))
            else:
                edges.append((u, gt))
    if len(via) == 1:  # sub is normal: its Schreier generators are H's, and no closure sorts them
        return list(via), [g for g in group.generators if g not in sub]
    order = group.order // len(via)
    normalizing: list[tuple[int, ...]] = []
    normalizer, gens = set(sub), list(generators)
    for u, gt in edges:
        if len(normalizer) == order:
            break
        n = tuple(map(inverse(u).__getitem__, gt))  # u^-1 * g * t
        if n not in normalizer:
            normalizing.append(n)
            gens.append(n)
            normalizer = _closure(gens, limit=group.order, base=normalizer)
    return list(via), normalizing


def subgroups(group: PermGroup) -> list[PermGroup]:
    """One subgroup per conjugacy class, by order and then by sorted elements.

    Refuses over group.budgets. Walk the classes by extending a
    representative R of each with one more element x (Neubüser's cyclic
    extension). Every class is reached this way from the trivial subgroup:
    if K = <K', x> and K' = g*R*g^-1, then g^-1*K*g = <R, g^-1*x*g>. Each
    closure starts from R itself, so it only adds the cosets x brings. A
    subgroup not seen before becomes the representative of its class; its
    conjugates are marked seen and never extended. For s, t in R,
    <R, x> = <R, s*x*t>, and for n in the normalizer N_H(R),
    <R, n*x*n^-1> = n*<R, x>*n^-1 lies in the class of <R, x>. So once x is
    closed, its double coset R*x*R and the double cosets of its
    N_H(R)-conjugates are skipped. Each representative is returned as a
    PermGroup generated by the elements that built it, with no further
    closure; the representative of H's own class is H.
    """
    group.budgets.check("max_subgroup_order", group.order, "subgroup lattice: |H|")
    elements = group.elements
    position = dict(zip(elements, range(len(elements))))
    conj = _conjugations(group)
    seen: set[frozenset[tuple[int, ...]]] = set()  # every subgroup of a found class

    def mark(sub: frozenset[tuple[int, ...]]):
        group.budgets.check("max_subgroup_count", len(seen) + 1, "subgroups found")
        seen.add(sub)

    trivial = frozenset({group.identity})
    reps = {trivial: ()}
    normalizing = {trivial: list(group.generators)}  # with R, they generate N_H(R)
    mark(trivial)
    queue = [trivial]
    while queue:
        sub = queue.pop()
        gens = reps[sub]
        conjugators = [(n.__getitem__, inverse(n)) for n in normalizing.pop(sub)]
        done = set(sub)  # a union of double cosets R*z*R, closed under N_H(R)-conjugation
        for x in elements:
            if x in done:
                continue
            grown = frozenset(_closure(gens + (x,), limit=group.order, base=sub))
            if grown not in seen:
                reps[grown] = gens + (x,)
                queue.append(grown)
                cls, normalizing[grown] = _subgroup_class(group, grown, reps[grown], conj,
                                                          position)
                for member in cls:
                    mark(member)
            front = [x]
            while front:  # the double cosets of the N_H(R)-conjugates of x
                z = front.pop()
                for si in sub:
                    y = tuple(map(si.__getitem__, z))  # s * z
                    if y not in done:  # done is a union of cosets y*sub
                        y_of = y.__getitem__
                        done.update([tuple(map(y_of, ti)) for ti in sub])  # s * z * t
                z_of = z.__getitem__
                for n_of, n_inv in conjugators:
                    w = tuple(map(n_of, map(z_of, n_inv)))  # n * z * n^-1
                    if w not in done:
                        front.append(w)
    return _wrap_lattice(group, reps)


@dataclass(frozen=True)
class NumericInvariants:
    mu: int          # minimal degree: fewest points moved by a nonidentity element
    b: int           # minimal base size
    max_sigma: int   # largest cycle count (fixed points included) of a nonidentity element


def _min_base_size(group: PermGroup) -> int:
    """Smallest number of points whose pointwise stabilizer is trivial.

    Iterative deepening over ascending point tuples, pruning points that do
    not shrink the running stabilizer (such points are globally redundant
    because pointwise stabilizers are intersections).
    """
    elems = list(group.elements)
    d = group.degree

    def dfs(stab: list[tuple[int, ...]], start: int, depth: int) -> bool:
        if depth == 0:
            return False
        for x in range(start, d):
            sub = [g for g in stab if g[x] == x]
            if len(sub) == 1:
                return True
            if len(sub) < len(stab) and dfs(sub, x + 1, depth - 1):
                return True
        return False

    if len(elems) == 1:
        return 0
    for depth in range(1, d + 1):
        if dfs(elems, 0, depth):
            return depth
    raise InvariantViolation("faithful permutation group must have a base")


def numeric_invariants(group: PermGroup) -> NumericInvariants:
    """mu, minimal base size and max cycle count; max_subgroup_class_count gives e."""
    max_sigma = max_cycle_count(group)  # refuses the trivial group
    mu = group.degree - max(fixed for _, fixed in cycle_stats(group)[1:])
    return NumericInvariants(mu=mu, b=_min_base_size(group), max_sigma=max_sigma)


def max_subgroup_class_count(group: PermGroup) -> int:
    """e(H): the largest class count over all subgroups; inherits the budgets of subgroups.

    Conjugate subgroups are isomorphic, so one subgroup per class suffices.
    A proper subgroup S has k(S) <= |S| <= |H|/p, with p the smallest prime
    dividing |H|, so when p * k(H) >= |H| (every abelian H, for one) e(H) is
    k(H) and the walk is skipped.
    """
    # the walk's own order check, made first: a group past it is refused either way
    group.budgets.check("max_subgroup_order", group.order, "subgroup lattice: |H|")
    order, own = group.order, class_count(group)
    p = next((d for d in range(2, order + 1) if order % d == 0), 1)
    if p * own >= order:
        return own
    return max(map(class_count, subgroups(group)))


def max_cycle_count(group: PermGroup) -> int:
    """max_sigma: the largest cycle count of a nonidentity element."""
    if group.order == 1:
        raise ValueError("max cycle count needs a nontrivial group")
    return max(sigma for sigma, _ in cycle_stats(group)[1:])  # [0] is the identity
