"""Derived actions: cycle data, subset lifts, products, wreath elements."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wreathcount import (
    DEFAULT,
    BudgetExceeded,
    PermGroup,
    UnknownFamily,
    block_decomposition,
    build_wreath_group,
    cycle_type,
    family,
    fix_subsets_direct,
    is_primitive,
    is_transitive,
    parse_group_spec,
    parse_permutation,
    partition_enum,
    product_action_build,
    sigma_prime,
    subset_rank,
    subsets_action_lift,
)
from wreathcount.actions import cycle_type_class_size, induced_block_permutation
from wreathcount.permgroup import (
    all_block_systems,
    compose,
    cycle_count,
    inverse,
    is_identity,
    minimal_block_partition,
    permutation,
)


def _all_perms(m):
    for images in itertools.permutations(range(m)):
        yield images


def test_cycle_type_alpha():
    p = parse_permutation("(1 2)(3 4 5)", 6)
    ct = cycle_type(p)
    assert ct == (3, 2, 1)
    assert sum(ct) == 6
    assert len(ct) == cycle_count(p) == 3
    assert ct.count(1) == sum(x == i for i, x in enumerate(p)) == 1
    assert Counter(ct) == {1: 1, 2: 1, 3: 1}


def test_cycle_types_are_the_partitions():
    for m in range(1, 7):
        assert {cycle_type(p) for p in _all_perms(m)} == set(partition_enum(m))


def test_sigma_and_gamma_count_cycles():
    p = parse_permutation("(1 2 3)", 4)
    assert cycle_count(p) == 2
    assert cycle_count(tuple(range(4))) == 4


def test_class_sizes_sum_to_factorial():
    for m in range(1, 8):
        seen = Counter(cycle_type(p) for p in _all_perms(m))
        total = 0
        for parts, count in seen.items():
            size = cycle_type_class_size(parts)
            assert size == count
            total += size
        assert total == math.factorial(m)


def test_class_size_extremes():
    full = cycle_type(parse_permutation("(1 2 3 4 5)"))
    assert cycle_type_class_size(full) == math.factorial(4)
    ident = cycle_type(tuple(range(5)))
    assert cycle_type_class_size(ident) == 1


def test_subset_rank_unrank_roundtrip():
    # the ranks of the C(m, ell) subsets are exactly range(C(m, ell))
    for m, ell in [(7, 3), (6, 2), (5, 1), (5, 4)]:
        ranks = sorted(map(subset_rank, itertools.combinations(range(m), ell)))
        assert ranks == list(range(math.comb(m, ell)))
    assert subset_rank((0, 1, 2)) == 0


def test_lift_is_a_homomorphism():
    rng = random.Random(9)
    for _ in range(25):
        a = list(range(6))
        b = list(range(6))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = permutation(a), permutation(b)
        lift = lambda x: subsets_action_lift(x, 2)
        assert lift(compose(p, q)) == compose(lift(p), lift(q))
        assert lift(inverse(p)) == inverse(lift(p))
    assert is_identity(subsets_action_lift(tuple(range(6)), 2))
    assert len(subsets_action_lift(tuple(range(6)), 2)) == 15


def test_lift_maps_subset_ranks_to_image_ranks():
    for m in range(1, 7):
        for p in _all_perms(m):
            for ell in range(1, m + 1):
                lift = subsets_action_lift(p, ell)
                for subset in itertools.combinations(range(m), ell):
                    assert lift[subset_rank(subset)] == subset_rank([p[x] for x in subset])


def test_lift_budget_refusal():
    tight = DEFAULT.with_overrides(max_lift_degree=10)
    with pytest.raises(BudgetExceeded):
        subsets_action_lift(tuple(range(8)), 4, budgets=tight)


def test_sigma_prime_and_fix_match_lift():
    # fix_subsets_direct reads the lift, so its reference is a count of sets
    for p in _all_perms(5):
        for ell in range(0, 6):
            if ell:
                assert sigma_prime(p, ell) == cycle_count(subsets_action_lift(p, ell))
            fixed = sum({p[x] for x in subset} == set(subset)
                        for subset in itertools.combinations(range(5), ell))
            assert fix_subsets_direct(p, ell) == fixed


def test_product_action_single_factor_is_lift():
    rng = random.Random(31)
    for _ in range(10):
        a = list(range(5))
        rng.shuffle(a)
        p = subsets_action_lift(permutation(a), 2)
        built = product_action_build([p], (0,), 5, 2)
        assert built == p


def _product_action_by_points(coords, top, base):
    # the definition point by point: decode w, coordinate 0 most significant,
    # then place coords[j][w_j] at position top[j] and re-encode
    t = len(coords)
    images = []
    for point in range(base ** t):
        w = []
        for _ in range(t):
            point, digit = divmod(point, base)
            w.append(digit)
        w.reverse()
        image = [0] * t
        for j in range(t):
            image[top[j]] = coords[j][w[j]]
        images.append(sum(d * base ** (t - 1 - i) for i, d in enumerate(image)))
    return tuple(images)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_product_action_matches_its_definition(t):
    rng = random.Random(t)
    for _ in range(20):
        m = rng.randint(2, 5)
        ell = rng.randint(1, m - 1)
        base = math.comb(m, ell)
        coords = []
        for _ in range(t):
            images = list(range(m))
            rng.shuffle(images)
            coords.append(subsets_action_lift(tuple(images), ell))
        top = list(range(t))
        rng.shuffle(top)
        top = tuple(top)
        assert product_action_build(coords, top, m, ell) == _product_action_by_points(
            coords, top, base)


def test_product_action_group_order():
    from wreathcount import PermGroup

    gens = []
    swap = (1, 0)
    ident_top = (0, 1)
    s3_gens = [parse_permutation("(1 2)", 3), parse_permutation("(1 2 3)", 3)]
    ident3 = (0, 1, 2)
    for g in s3_gens:
        gens.append(product_action_build([g, ident3], ident_top, 3, 1))
        gens.append(product_action_build([ident3, g], ident_top, 3, 1))
    gens.append(product_action_build([ident3, ident3], swap, 3, 1))
    grp = PermGroup(gens)
    assert grp.degree == 9
    assert grp.order == 72


def test_wreath_group_multiplication():
    top = parse_group_spec("symmetric:3")
    wr = build_wreath_group(2, top)
    ident = wr.identity
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in wr.generators():
                y = wr.multiply(x, g)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(elements) == 2 ** 3 * 6
    for x in elements:
        assert wr.multiply(x, wr.inverse(x)) == ident
        assert wr.multiply(wr.inverse(x), x) == ident


def test_family_orders_and_degrees():
    cases = [
        ("cyclic:5", 5, 5),
        ("symmetric:4", 4, 24),
        ("alternating:4", 4, 12),
        ("dihedral:5", 5, 10),
        ("wreath-cyclic:3", 6, 24),
        ("quaternion", 8, 8),
        ("subsets:5,2", 10, 120),
        ("subsets-alt:5,2", 10, 60),
        ("product:3,1,2", 9, 72),
        ("product:2,1,3", 8, 48),
    ]
    for spec, degree, order in cases:
        grp = parse_group_spec(spec)
        assert grp.degree == degree, spec
        assert grp.order == order, spec
        assert grp.spec_string() == spec
        assert all(type(p) is int for p in grp.family[1]), spec
    assert parse_group_spec("cyclic:05").spec_string() == "cyclic:5"
    assert parse_group_spec("product: 3,01 ,2").family == ("product", (3, 1, 2))


def test_family_rejects_bad_parameters():
    with pytest.raises(UnknownFamily):
        family("nosuch", ("3",))
    # every refusal names its family, and the bad values where there are some
    for spec, message in [
            ("subsets:5,0", "subsets needs m >= 2, ell >= 1, ell < m, got 5,0"),
            ("subsets-alt:5,5", "subsets-alt needs m >= 2, ell >= 1, ell < m, got 5,5"),
            ("product:5,1,0", "product needs m >= 2, ell >= 1, t >= 1, ell < m, got 5,1,0"),
            ("cyclic:0", "cyclic needs n >= 1, got 0"),
            ("dihedral:2", "dihedral needs n >= 3, got 2"),
            ("wreath-cyclic:-1", "wreath-cyclic needs m >= 1, got -1"),
            ("symmetric:x", "symmetric parameters must be integers: ('x',)"),
            ("alternating:3,4", "alternating takes 1 parameter(s), got 2"),
            ("quaternion:1", "quaternion takes 0 parameter(s), got 1"),
            ("gens:4", "gens needs at least one permutation after the degree")]:
        with pytest.raises(UnknownFamily) as exc:
            parse_group_spec(spec)
        assert str(exc.value) == message
        assert str(exc.value).startswith(spec.partition(":")[0] + " "), spec


def test_gens_spec_parses_degree():
    grp = parse_group_spec("gens:4,(1 2)(3 4)")
    assert grp.degree == 4
    assert grp.order == 2


def test_block_decomposition_cyclic4():
    bd = block_decomposition(parse_group_spec("cyclic:4"))
    assert bd.r == 2
    assert bd.blocks == ((0, 2), (1, 3))
    assert bd.kernel.order == 2
    assert bd.quotient.order == 2


def test_block_decomposition_edge_cases():
    assert block_decomposition(parse_group_spec("symmetric:3")) is None
    with pytest.raises(ValueError):
        block_decomposition(parse_group_spec("gens:3,(1 2)"))


def _reference_is_primitive(group):
    """Transitive, and every minimal partition joining 0 to another point is one block."""
    if not is_transitive(group):
        return False
    return all(len(minimal_block_partition(group, q)) == 1 for q in range(1, group.degree))


def _reference_block_decomposition(group):
    """(r, blocks, quotient order): every system's quotient closed, the primitive ones kept."""
    candidates = []
    for part in all_block_systems(group):
        quotient = PermGroup([induced_block_permutation(g, part) for g in group.generators])
        if _reference_is_primitive(quotient):
            candidates.append((len(part), next(b for b in part if 0 in b), part, quotient.order))
    if not candidates:
        return None
    r, _, blocks, quotient_order = min(candidates)
    return r, blocks, quotient_order


def _iterated_wreath_element(draw, shape):
    """A random element of S_shape[0] wr S_shape[1] wr ..., on prod(shape) points.

    Point j * size + x lies in top-level block j, at point x of that block, so
    every element keeps the nested block systems of the shape.
    """
    if len(shape) == 1:
        return draw(st.permutations(range(shape[0])))
    size = math.prod(shape[:-1])
    top = draw(st.permutations(range(shape[-1])))
    images = []
    for j in range(shape[-1]):
        inner = _iterated_wreath_element(draw, shape[:-1])
        images += [top[j] * size + x for x in inner]
    return images


@st.composite
def transitive_groups(draw):
    """A transitive group of degree <= 8, from random elements of an iterated wreath product."""
    shape = draw(st.sampled_from([(1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2),
                                  (2, 3), (3, 2), (2, 4), (4, 2), (2, 2, 2)]))
    gens = [permutation(_iterated_wreath_element(draw, shape))
            for _ in range(draw(st.integers(1, 3)))]
    group = PermGroup(gens)
    assume(is_transitive(group))
    return group


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(group=transitive_groups())
def test_block_decomposition_matches_the_per_system_filter(group):
    assert is_primitive(group) == _reference_is_primitive(group)
    want = _reference_block_decomposition(group)
    got = block_decomposition(group)
    if want is None:
        assert got is None
    else:
        assert (got.r, got.blocks, got.quotient.order) == want
        assert got.kernel.order * got.quotient.order == group.order


@pytest.mark.parametrize("spec", ["cyclic:8", "quaternion"])
def test_block_decomposition_tests_one_quotient(spy, spec):
    from wreathcount import permgroup

    tested = []
    spy(permgroup, "is_primitive", tested)
    assert block_decomposition(parse_group_spec(spec)).r == 2
    assert len(tested) == 1
