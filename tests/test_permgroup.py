"""Permutation arithmetic, closure, and structure classification."""

import gc
import inspect
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wreathcount
from wreathcount import (
    DEFAULT,
    BudgetExceeded,
    Budgets,
    DegreeMismatch,
    ParseError,
    PermGroup,
    auto_count,
    block_decomposition,
    bounds_report,
    build_wreath_group,
    class_count,
    coloring_stabilizer,
    coloring_stabilizers,
    conjugacy_classes,
    fix_subsets_direct,
    fixed_subset_fraction_probe,
    is_primitive,
    is_semiregular,
    is_transitive,
    max_subgroup_class_count,
    normal_subgroups,
    numeric_invariants,
    orbits,
    parse_generators,
    parse_group_spec,
    parse_permutation,
    partition_enum,
    product_action_build,
    product_orbit_identity,
    structure_classify,
    subgroups,
    subset_orbit_count_exact,
    subsets_action_lift,
)
from wreathcount import classcount, permgroup
from wreathcount.verify import ORACLE_SPECS
from wreathcount.permgroup import (
    UnionFind,
    _closure,
    compose,
    cycle_count,
    cycle_string,
    inverse,
    is_identity,
    permutation,
)

from test_actions import transitive_groups


def test_parse_permutation_images():
    p = parse_permutation("(1 2)(3 4)")
    assert p == (1, 0, 3, 2)
    q = parse_permutation("(1 2)", degree=5)
    assert q == (1, 0, 2, 3, 4)


def test_parse_identity():
    p = parse_permutation("()", degree=3)
    assert is_identity(p)
    assert len(p) == 3


@pytest.mark.parametrize("text", ["(1 2", "(1 1)", "(0 2)", "(1 x)", "(1 ²)", "(1 2),(3 4)", "()"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_permutation(text)


def test_parse_error_reports_column():
    # a column counts in the whole list, whether the degree is inferred or given
    for text, message in [("(1 2)(3 4), (5 6", "unclosed '(' (column 16)"),
                          ("(1 x)", "unexpected character 'x' (column 4)"),
                          ("(1 2),(3 y", "unexpected character 'y' (column 10)"),
                          ("(1 2),(3 4", "unclosed '(' (column 10)")]:
        for degree in (None, 6):
            with pytest.raises(ParseError) as exc:
                parse_generators(text, degree)
            assert str(exc.value) == message, (text, degree)


def test_permutation_is_its_image_tuple():
    p = permutation([1, 0, 2])
    assert type(p) is tuple and p == (1, 0, 2)
    assert permutation(p) is p
    assert type(parse_permutation("(1 2)", 3)) is tuple
    with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.2: \(0, 0, 1\)$"):
        permutation([0, 0, 1])
    assert not hasattr(wreathcount, "Permutation")
    assert not hasattr(PermGroup, "image_tuples")


def test_groups_take_plain_tuples_and_refuse_non_permutations():
    assert PermGroup.from_elements([(0, 1), (1, 0)]).order == 2
    assert PermGroup([[1, 2, 0]]).generators == ((1, 2, 0),)
    with pytest.raises(ValueError, match="not a permutation"):
        PermGroup([(0, 0, 1)])
    with pytest.raises(ValueError, match="not a permutation"):
        PermGroup.from_elements([(0, 1), (0, 0)])


def test_group_elements_are_plain_tuples_untracked_by_the_gc():
    group = parse_group_spec("alternating:6")
    stab = coloring_stabilizer(group, (0, 0, 1, 1, 2, 2))
    sub = subgroups(parse_group_spec("dihedral:4"))[3]
    for grp in (group, stab, sub):
        assert grp.order > 1
        assert all(type(x) is tuple for x in grp.elements + grp.generators)
    gc.collect()
    assert not gc.is_tracked(group.elements[1])


def test_compose_applies_right_factor_first():
    p = parse_permutation("(1 2)", 3)
    q = parse_permutation("(2 3)", 3)
    r = compose(p, q)
    assert all(r[x] == p[q[x]] for x in range(3))
    with pytest.raises(DegreeMismatch):
        compose(p, (0, 1))


def test_compose_inverse_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        images = list(range(8))
        rng.shuffle(images)
        p = permutation(images)
        assert is_identity(compose(p, inverse(p)))
        assert is_identity(compose(inverse(p), p))
        images2 = list(range(8))
        rng.shuffle(images2)
        q = permutation(images2)
        assert is_identity(compose(inverse(compose(p, q)), compose(p, q)))
        assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


def test_cycle_string_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        images = list(range(7))
        rng.shuffle(images)
        p = permutation(images)
        assert parse_permutation(cycle_string(p), degree=7) == p


def test_cycle_and_point_counts():
    p = parse_permutation("(1 2)(3 4)", 5)
    assert cycle_count(p) == 3
    assert permgroup.cycle_stats(PermGroup([p])) == ((5, 5), (3, 1))


def test_closure_orders():
    s3 = PermGroup(parse_generators("(1 2), (1 2 3)"))
    assert s3.order == 6
    klein = PermGroup(parse_generators("(1 2)(3 4), (1 3)(2 4)"))
    assert klein.order == 4
    s5 = PermGroup(parse_generators("(1 2), (1 2 3 4 5)"))
    assert s5.order == 120


def test_closure_respects_order_budget():
    tight = DEFAULT.with_overrides(max_group_order=10)
    gens = parse_generators("(1 2), (1 2 3 4)")
    with pytest.raises(BudgetExceeded):
        PermGroup(gens, budgets=tight).order


def test_closure_order_divides_symmetric_order():
    rng = random.Random(23)
    for _ in range(10):
        a = list(range(6))
        b = list(range(6))
        rng.shuffle(a)
        rng.shuffle(b)
        grp = PermGroup([a, b])
        assert math.factorial(6) % grp.order == 0


def _reference_closure(generators):
    """Plain BFS over compose products: the reference for Dimino's coset extension."""
    ident = tuple(range(len(generators[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for b in frontier:
            for g in generators:
                c = compose(g, b)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
        frontier = fresh
    return seen


def test_closure_matches_permutation_product_reference():
    rng = random.Random(29)
    for _ in range(10):
        gens = []
        for _ in range(2):
            images = list(range(6))
            rng.shuffle(images)
            gens.append(tuple(images))
        assert _closure(gens, limit=DEFAULT.max_group_order) == _reference_closure(gens)


@st.composite
def subgroups_with_extra_elements(draw):
    """A random subgroup of a group of degree <= 6, its generators, and a few more elements."""
    degree = draw(st.integers(1, 6))
    group = PermGroup(draw(
        st.lists(st.permutations(range(degree)), min_size=1, max_size=3)))
    base_gens = draw(st.lists(st.sampled_from(group.elements), min_size=1, max_size=2))
    extra = draw(st.lists(st.sampled_from(group.elements), max_size=3))
    return base_gens, extra


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=subgroups_with_extra_elements(), data=st.data())
def test_closure_from_a_base_matches_the_reference(case, data):
    base_gens, extra = case
    base = frozenset(_reference_closure(base_gens))
    # the base's generators may sit anywhere among the generators
    gens = data.draw(st.permutations(base_gens + extra))
    want = _reference_closure(gens)
    assert _closure(gens, limit=DEFAULT.max_group_order, base=base) == want
    assert _closure(gens, limit=DEFAULT.max_group_order) == want


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:6", "wreath-cyclic:2"])
def test_closure_from_a_base_refuses_exactly_past_the_limit(spec):
    group = parse_group_spec(spec)
    base = frozenset(_reference_closure(group.generators[:1]))
    assert len(base) < group.order
    gens = group.generators
    assert len(_closure(gens, limit=group.order, base=base)) == group.order
    with pytest.raises(BudgetExceeded,
                       match=rf"^closure order = \d+ exceeds the max_group_order budget "
                             rf"{group.order - 1}$"):
        _closure(gens, limit=group.order - 1, base=base)


def _reference_from_elements(elements, degree):
    """Greedy walk re-closing over compose products at every new generator.

    Returns (generators, elements) as the wrapped group would hold them.
    """
    elems = sorted(set(elements))
    gens = []
    known = {tuple(range(degree))}
    for x in elems:
        if x not in known:
            gens.append(x)
            known = _reference_closure(gens)
            if len(known) > len(elems):
                raise ValueError("element set is not closed under products")
    return tuple(gens) or (tuple(range(degree)),), tuple(elems)


def _reference_conjugacy_classes(group):
    """Union-find over x ~ g*x*g^-1 for each generator g, on compose products."""
    elems = group.elements
    index = {g: i for i, g in enumerate(elems)}
    uf = UnionFind(len(elems))
    for i, x in enumerate(elems):
        for g in group.generators:
            uf.union(i, index[compose(compose(g, x), inverse(g))])
    buckets = {}
    for i, x in enumerate(elems):
        buckets.setdefault(uf.find(i), []).append(x)
    return sorted((tuple(v) for v in buckets.values()), key=lambda c: c[0])


def _reference_coloring_stabilizer(group, coloring):
    keep = [g for g in group.elements
            if all(coloring[g[i]] == coloring[i] for i in range(group.degree))]
    return _reference_from_elements(keep, group.degree)


@st.composite
def groups_with_coloring(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    k = draw(st.integers(1, 3))
    coloring = draw(st.lists(st.integers(0, k - 1), min_size=degree, max_size=degree))
    return PermGroup(gens), tuple(coloring)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=groups_with_coloring(), data=st.data())
def test_tuple_kernels_match_permutation_references(case, data):
    group, coloring = case
    classes = conjugacy_classes(group)
    assert classes == _reference_conjugacy_classes(group)
    assert class_count(group) == len(classes)

    wrapped = PermGroup.from_elements(reversed(group.elements))
    want_gens, want_elems = _reference_from_elements(group.elements, group.degree)
    assert (wrapped.generators, wrapped.elements) == (want_gens, want_elems)
    assert class_count(wrapped) == len(classes)

    # a random subset is usually open: both walks refuse it, or agree on it
    subset = data.draw(st.lists(st.sampled_from(group.elements), min_size=1, max_size=8))
    try:
        want = _reference_from_elements(subset, group.degree)
    except ValueError:
        with pytest.raises(ValueError, match="element set is not closed under products"):
            PermGroup.from_elements(subset)
    else:
        got = PermGroup.from_elements(subset)
        assert (got.generators, got.elements) == want

    stab = coloring_stabilizer(group, coloring)
    assert (stab.generators, stab.elements) == _reference_coloring_stabilizer(group, coloring)
    assert conjugacy_classes(stab) == _reference_conjugacy_classes(stab)


@st.composite
def groups_with_colorings(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    palette = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=4, unique=True))
    colorings = draw(st.lists(
        st.tuples(*[st.sampled_from(palette)] * degree), max_size=10))
    if colorings:
        colorings += draw(st.lists(st.sampled_from(colorings), max_size=5))  # duplicates
    colorings.append((palette[-1],) * degree)  # fixed by every element
    return PermGroup(gens), draw(st.permutations(colorings))


def _assert_stabilizers_match(group, colorings, stabs):
    assert len(stabs) == len(colorings)
    for coloring, stab in zip(colorings, stabs):
        want = _reference_coloring_stabilizer(group, coloring)
        assert (stab.generators, stab.elements) == want, coloring
        assert stab.budgets is group.budgets
    # equal stabilizers are one object, for the whole stream
    by_elements = {}
    for stab in stabs:
        assert by_elements.setdefault(stab.elements, stab) is stab


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=groups_with_colorings())
def test_coloring_stabilizers_match_the_reference(case):
    group, colorings = case
    stabs = list(coloring_stabilizers(group, colorings))
    _assert_stabilizers_match(group, colorings, stabs)
    assert list(coloring_stabilizers(group, [])) == []


def test_stabilizers_and_lattices_hold_the_groups_own_elements():
    group = parse_group_spec("dihedral:4")
    position = {x: i for i, x in enumerate(group.elements)}
    stab = next(coloring_stabilizers(group, [(0, 1, 0, 1)]))
    for sub in [stab, *subgroups(group), *normal_subgroups(group)]:
        assert all(x is group.elements[position[x]] for x in sub.elements)


@pytest.mark.parametrize("block", [1, 3])
def test_coloring_stabilizers_across_block_boundaries(block, monkeypatch):
    from wreathcount import permgroup

    group = parse_group_spec("dihedral:4")
    colorings = [tuple(map(int, f"{e:04b}")) for e in range(16)] * 2
    unblocked = list(coloring_stabilizers(group, colorings))
    monkeypatch.setattr(permgroup, "_STAB_BLOCK", block)
    stabs = list(coloring_stabilizers(group, colorings))
    _assert_stabilizers_match(group, colorings, stabs)
    assert [s.elements for s in stabs] == [s.elements for s in unblocked]


def test_coloring_stabilizers_read_at_most_one_block_ahead(monkeypatch):
    from wreathcount import permgroup

    monkeypatch.setattr(permgroup, "_STAB_BLOCK", 3)
    group = parse_group_spec("symmetric:3")
    read = 0

    def colorings():
        nonlocal read
        for e in range(10):
            read += 1
            yield (e % 2, e % 3, 0)

    yielded = 0
    for _ in coloring_stabilizers(group, colorings()):
        yielded += 1
        assert read <= yielded - 1 + 3
    assert (read, yielded) == (10, 10)


def test_coloring_stabilizers_reject_a_wrong_length():
    with pytest.raises(DegreeMismatch, match="coloring length 2 vs degree 3"):
        list(coloring_stabilizers(parse_group_spec("symmetric:3"), [(0, 0, 1), (0, 1)]))


def test_stabilizers_inherit_the_group_budgets():
    budgets = DEFAULT.with_overrides(max_group_order=500)
    s4 = PermGroup(parse_generators("(1 2), (1 2 3 4)"), budgets=budgets)
    assert coloring_stabilizer(s4, (0, 0, 1, 1)).budgets is s4.budgets


def test_derived_groups_inherit_the_group_budgets():
    d4 = parse_group_spec("dihedral:4", DEFAULT.with_overrides(max_group_order=500))
    decomp = block_decomposition(d4)
    stabs = classcount.coloring_census(d4, 2).inertia
    derived = [*subgroups(d4), *normal_subgroups(d4), decomp.kernel, decomp.quotient, *stabs]
    assert len(derived) > 18 and stabs
    assert all(sub.budgets is d4.budgets for sub in derived)


def test_no_group_function_takes_budgets():
    # budgets are given where a group is built; a function handed the group reads group.budgets
    functions = [getattr(wreathcount, name) for name in wreathcount.__all__]
    functions = [f for f in functions + [classcount.route_values] if inspect.isfunction(f)
                 or inspect.isclass(f) and not issubclass(f, Exception)]
    takes_group = [f for f in functions if any(p.annotation in ("PermGroup", PermGroup)
                                               for p in inspect.signature(f).parameters.values())]
    assert len(takes_group) > 30
    assert [f.__name__ for f in takes_group
            if "budgets" in inspect.signature(f).parameters] == []


def test_from_elements_rejects_non_closed_set():
    elems = [(0, 1, 2), parse_permutation("(1 2 3)")]
    with pytest.raises(ValueError, match="element set is not closed under products"):
        PermGroup.from_elements(elems)
    with pytest.raises(ValueError, match="element set is not closed under products"):
        PermGroup.from_elements([parse_permutation("(1 2)")])
    a6 = parse_group_spec("alternating:6").elements
    with pytest.raises(ValueError, match="element set is not closed under products"):
        PermGroup.from_elements(a6 + (parse_permutation("(1 2)", 6),))


@pytest.mark.parametrize("spec", ["alternating:6", "subsets:5,2", "wreath-cyclic:4"])
def test_from_elements_matches_the_reference_past_degree_six(spec):
    group = parse_group_spec(spec)
    wrapped = PermGroup.from_elements(reversed(group.elements))
    assert ((wrapped.generators, wrapped.elements)
            == _reference_from_elements(group.elements, group.degree))


@pytest.mark.parametrize("spec", ["alternating:6", "wreath-cyclic:4"])
def test_from_elements_closes_once_per_generator(spec, spy):
    elements = parse_group_spec(spec).elements
    closed = []
    spy(permgroup, "_closure", closed)
    wrapped = PermGroup.from_elements(elements)
    assert len(closed) == len(wrapped.generators) > 1


def test_from_elements_rejects_mixed_degrees():
    with pytest.raises(DegreeMismatch):
        PermGroup.from_elements([(0, 1, 2), (0, 1, 2, 3)])


def test_orbits():
    grp = parse_group_spec("gens:4,(1 2)")
    assert orbits(grp) == ((0, 1), (2,), (3,))
    assert orbits(parse_group_spec("symmetric:4")) == ((0, 1, 2, 3),)


def test_transitivity_and_semiregularity():
    c4 = parse_group_spec("cyclic:4")
    assert is_transitive(c4) and is_semiregular(c4)
    s3 = parse_group_spec("symmetric:3")
    assert is_transitive(s3) and not is_semiregular(s3)
    klein = parse_group_spec("gens:4,(1 2)(3 4),(1 3)(2 4)")
    assert is_transitive(klein) and is_semiregular(klein)
    assert not is_transitive(parse_group_spec("gens:4,(1 2)"))


def test_coloring_stabilizer():
    s3 = parse_group_spec("symmetric:3")
    stab = coloring_stabilizer(s3, (0, 0, 1))
    assert stab.order == 2
    assert coloring_stabilizer(s3, (0, 0, 0)).order == 6
    assert coloring_stabilizer(s3, (0, 1, 2)).order == 1


def test_conjugacy_classes_partition_the_group():
    s4 = parse_group_spec("symmetric:4")
    classes = conjugacy_classes(s4)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert sum(len(c) for c in classes) == 24
    assert class_count(s4) == 5
    seen = set()
    for cls in classes:
        seen.update(cls)
    assert len(seen) == 24


def test_classes_closed_under_conjugation():
    s4 = parse_group_spec("symmetric:4")
    for cls in conjugacy_classes(s4):
        members = set(cls)
        for g in s4.generators:
            for x in cls:
                assert compose(compose(inverse(g), x), g) in members


def _centralizer_order(group, x):
    return sum(1 for g in group.elements if compose(g, x) == compose(x, g))


def test_centralizer_class_size_product():
    s4 = parse_group_spec("symmetric:4")
    for cls in conjugacy_classes(s4):
        assert len(cls) * _centralizer_order(s4, cls[0]) == s4.order


def test_class_count_known_groups():
    assert class_count(parse_group_spec("symmetric:3")) == 3
    assert class_count(parse_group_spec("cyclic:4")) == 4
    assert class_count(parse_group_spec("dihedral:4")) == 5
    assert class_count(parse_group_spec("quaternion")) == 5


def test_normal_subgroup_counts():
    assert len(normal_subgroups(parse_group_spec("symmetric:3"))) == 3
    assert len(normal_subgroups(parse_group_spec("wreath-cyclic:2"))) == 6
    klein = parse_group_spec("gens:4,(1 2)(3 4),(1 3)(2 4)")
    assert len(normal_subgroups(klein)) == 5


def test_subgroups_of_klein():
    klein = parse_group_spec("gens:4,(1 2)(3 4),(1 3)(2 4)")
    subs = subgroups(klein)
    assert [s.order for s in subs] == [1, 2, 2, 2, 4]


def _reference_subgroups(group):
    """Every subgroup, closing over compose products.

    The walk extends each subgroup by every element outside it, skipping
    only the rest of the right coset sub*x, which generates the same group.
    """
    trivial = frozenset({group.identity})
    seen = {trivial: ()}
    queue = [trivial]
    while queue:
        sub = queue.pop()
        done = set(sub)
        for x in group.elements:
            if x in done:
                continue
            gens = seen[sub] + (x,)
            grown = frozenset(_reference_closure(list(gens)))
            if grown not in seen:
                seen[grown] = gens
                queue.append(grown)
            done.update(compose(s, x) for s in sub)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def _reference_classes(group, lattice):
    """The conjugacy classes of a list of subgroups, each a set of frozensets of permutations."""
    classes = []
    for sub in lattice:
        if not any(sub in cls for cls in classes):
            classes.append({frozenset(compose(compose(h, s), inverse(h)) for s in sub)
                            for h in group.elements})
    return classes


def _assert_one_subgroup_per_class(subs, classes):
    """Each class holds exactly one of subs, so no two of subs are conjugate."""
    hits = sorted(i for s in subs for i, cls in enumerate(classes)
                  if frozenset(s.elements) in cls)
    assert len(subs) == len(classes) and hits == list(range(len(classes)))


# conjugacy classes of subgroups, as the reference lattice and _reference_classes count them
_SUBGROUP_CLASSES = {"symmetric:4": 11, "dihedral:4": 8, "alternating:4": 5, "quaternion": 6,
                     "cyclic:6": 4, "wreath-cyclic:2": 8, "dihedral:6": 10, "wreath-cyclic:3": 12}


@pytest.mark.parametrize("spec,count", [
    ("symmetric:4", 30), ("dihedral:4", 10), ("alternating:4", 10),
    ("quaternion", 6), ("cyclic:6", 4), ("wreath-cyclic:2", 10), ("dihedral:6", 16),
    ("wreath-cyclic:3", 26)])
def test_subgroups_match_naive_lattice_walk(spec, count):
    grp = parse_group_spec(spec)
    reference = _reference_subgroups(grp)
    classes = _reference_classes(grp, reference)
    assert (len(reference), len(classes)) == (count, _SUBGROUP_CLASSES[spec])
    subs = subgroups(grp)
    _assert_one_subgroup_per_class(subs, classes)
    _assert_generators_close_to_elements(subs)


def _reference_e(lattice):
    """e(H) over every subgroup, with k(K) = #{commuting pairs of K} / |K| (Gustafson)."""
    return max(sum(compose(a, b) == compose(b, a) for a in sub for b in sub) // len(sub)
               for sub in lattice)


def _assert_matches_the_full_lattice(group):
    lattice = _reference_subgroups(group)
    _assert_one_subgroup_per_class(subgroups(group), _reference_classes(group, lattice))
    assert max_subgroup_class_count(group) == _reference_e(lattice)


@pytest.mark.parametrize("spec", [
    "symmetric:5", "alternating:5", "subsets:5,2", "product:3,1,2", "wreath-cyclic:4",
    "dihedral:24"])
def test_subgroups_and_e_match_the_full_lattice(spec):
    _assert_matches_the_full_lattice(parse_group_spec(spec))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(group=transitive_groups())
def test_subgroups_and_e_match_the_full_lattice_on_transitive_groups(group):
    assume(group.order <= 48)
    _assert_matches_the_full_lattice(group)


def _assert_generators_close_to_elements(lattice):
    """Each lattice group's recorded generators, closed afresh, give exactly its elements."""
    for sub in lattice:
        assert PermGroup(sub.generators).elements == sub.elements


def _reference_normal_subgroups(group):
    """The class-growing walk closing over every element of the base subgroup."""
    classes = conjugacy_classes(group)
    trivial = frozenset({group.identity})
    found = {trivial}
    queue = [trivial]
    while queue:
        base = queue.pop()
        for cls in classes:
            if cls[0] in base:
                continue
            grown = frozenset(_reference_closure(sorted(base.union(cls))))
            if grown not in found:
                found.add(grown)
                queue.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("spec", [
    "symmetric:4", "dihedral:4", "dihedral:6", "alternating:4", "alternating:5", "quaternion",
    "cyclic:6", "wreath-cyclic:2", "wreath-cyclic:3", "gens:4,(1 2)(3 4),(1 3)(2 4)",
    "gens:6,(1 2),(3 4),(5 6)"])
def test_normal_subgroups_match_reference_walk(spec):
    grp = parse_group_spec(spec)
    normals = normal_subgroups(grp)
    assert [frozenset(n.elements) for n in normals] == _reference_normal_subgroups(grp)
    _assert_generators_close_to_elements(normals)


def test_bounds_report_walks_the_class_bfs_of_h_once(spy):
    grp = parse_group_spec("wreath-cyclic:4")
    walked = []
    spy(permgroup, "_class_indices", walked)
    bounds_report(grp, 2)
    # the top of both lattices is H itself, so H's cached classes serve it
    assert [g for g in dict.fromkeys(walked) if g.order == grp.order] == [grp]
    assert subgroups(grp)[-1] is grp and normal_subgroups(grp)[-1] is grp


def test_max_subgroup_class_count_builds_no_group_from_elements(spy):
    grp = parse_group_spec("wreath-cyclic:3")
    wrapped = []
    spy(PermGroup, "from_elements", wrapped)
    assert max_subgroup_class_count(grp) == 8  # the abelian base (Z_2)^3
    assert wrapped == []


@pytest.mark.parametrize("spec", [*ORACLE_SPECS, "cyclic:60"])
def test_e_shortcut_equals_the_subgroup_walk(spec):
    grp = parse_group_spec(spec)
    assert max_subgroup_class_count(grp) == max(map(class_count, subgroups(grp)))


def test_e_of_an_abelian_group_walks_no_subgroup(spy):
    grp = parse_group_spec("cyclic:200")
    walked = []
    spy(permgroup, "subgroups", walked)
    assert max_subgroup_class_count(grp) == 200
    assert walked == []


@pytest.mark.parametrize("spec", ["alternating:5", "subsets:5,2", "dihedral:12", "quaternion",
                                  "symmetric:1", "cyclic:1"])
def test_conjugation_maps_equal_the_composed_conjugates(spec):
    grp = parse_group_spec(spec)
    position = {x: i for i, x in enumerate(grp.elements)}
    want = [[position[compose(compose(g, x), inverse(g))] for x in grp.elements]
            for g in grp.generators]
    assert permgroup._conjugations(grp) == want


# every budget refusal, keyed by test id: (call on budgets b, the field set to 10)
_REFUSALS = {
    "subgroups": (lambda b: subgroups(parse_group_spec("symmetric:4", b)),
                  "max_subgroup_order"),
    "subgroups_cap": (lambda b: subgroups(parse_group_spec("symmetric:4", b)),
                      "max_subgroup_count"),
    "normal_subgroups": (lambda b: normal_subgroups(parse_group_spec("symmetric:4", b)),
                         "max_normal_order"),
    "normal_subgroups_cap": (lambda b: normal_subgroups(
        parse_group_spec("gens:8,(1 2),(3 4),(5 6),(7 8)", b)), "max_subgroup_count"),
    "structure_classify": (lambda b: structure_classify(parse_group_spec("symmetric:4", b)),
                           "max_normal_order"),
    "max_subgroup_class_count": (lambda b: max_subgroup_class_count(
        parse_group_spec("symmetric:4", b)), "max_subgroup_order"),
    "auto_count": (lambda b: auto_count(parse_group_spec("alternating:6", b), 2),
                   "max_group_order"),
    "closure": (lambda b: PermGroup(parse_generators("(1 2), (1 2 3 4)"), budgets=b).elements,
                "max_group_order"),
    "wreath": (lambda b: build_wreath_group(2, parse_group_spec("symmetric:3", b)),
               "max_group_order"),
    "subsets_lift": (lambda b: subsets_action_lift(tuple(range(6)), 3, b),
                     "max_lift_degree"),
    "fix_subsets_direct": (lambda b: fix_subsets_direct(tuple(range(6)), 3, b),
                           "max_lift_degree"),
    "product_action": (lambda b: product_action_build(
        [(0, 1, 2)] * 3, (0, 1, 2), 3, 1, b), "max_lift_degree"),
    "subset_orbit_count": (lambda b: subset_orbit_count_exact(6, 3, 2, b), "max_lift_degree"),
    # 4 = n(S_3, 2-colorings of the points), the count the identity compares against
    "product_identity_lift": (lambda b: product_orbit_identity(3, 1, 4, 2, 4, b),
                              "max_lift_degree"),
    "product_identity_order": (lambda b: product_orbit_identity(3, 1, 2, 2, 4, b),
                               "max_group_order"),
    "partition_enum": (lambda b: partition_enum(12, b), "max_partition_size"),
    "fixed_subset_probe": (lambda b: fixed_subset_fraction_probe([12], b),
                           "max_partition_size"),
    "subset_orbit_count_partitions": (lambda b: subset_orbit_count_exact(12, 1, 2, b),
                                      "max_partition_size"),
    "coloring_space": (lambda b: classcount.coloring_census(parse_group_spec("cyclic:4", b), 2),
                       "max_coloring_space"),
}


@pytest.mark.parametrize("call,field", _REFUSALS.values(), ids=list(_REFUSALS))
def test_refusal_names_its_budget(call, field):
    with pytest.raises(BudgetExceeded, match=rf"^.+ = \d+ exceeds the {field} budget 10$"):
        call(DEFAULT.with_overrides(**{field: 10}))


def test_every_budget_has_a_refusal_row():
    assert set(Budgets._fields) <= {f for _, f in _REFUSALS.values()}


@pytest.mark.parametrize("enumerate_", [subgroups, normal_subgroups])
def test_lattice_safety_cap_names_its_budget(enumerate_):
    tight = DEFAULT.with_overrides(max_subgroup_count=2)
    with pytest.raises(BudgetExceeded, match="max_subgroup_count budget 2"):
        enumerate_(parse_group_spec("symmetric:4", tight))


def test_primitivity():
    assert is_primitive(parse_group_spec("symmetric:3"))
    assert is_primitive(parse_group_spec("cyclic:5"))
    assert not is_primitive(parse_group_spec("cyclic:4"))
    assert not is_primitive(parse_group_spec("wreath-cyclic:2"))


def test_structure_classify_wreath():
    rep = structure_classify(parse_group_spec("wreath-cyclic:2"))
    assert rep.transitive and not rep.semiregular
    assert not rep.primitive and not rep.semiprimitive
    assert rep.normal_subgroup_count == 6


def test_structure_classify_regular_cyclic():
    rep = structure_classify(parse_group_spec("cyclic:4"))
    assert rep.transitive and rep.semiregular
    assert not rep.primitive and rep.semiprimitive


def test_numeric_invariants_symmetric3():
    inv = numeric_invariants(parse_group_spec("symmetric:3"))
    assert (inv.mu, inv.b, inv.max_sigma) == (2, 2, 2)
    assert max_subgroup_class_count(parse_group_spec("symmetric:3")) == 3


def test_numeric_invariants_regular_groups():
    inv = numeric_invariants(parse_group_spec("gens:4,(1 2)(3 4),(1 3)(2 4)"))
    assert (inv.mu, inv.b, inv.max_sigma) == (4, 1, 2)
    inv = numeric_invariants(parse_group_spec("cyclic:5"))
    assert (inv.mu, inv.b, inv.max_sigma) == (5, 1, 1)
