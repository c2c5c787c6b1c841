"""Integer kernels of the oracles: coded wreath conjugation, Euler's recurrence,
the fixed-subset polynomial, and property checks that the routes agree."""

import math
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathcount import (
    PermGroup,
    brute_force_count,
    build_wreath_group,
    burnside_orbit_count,
    clifford_count,
    coloring_orbit_reps,
    fix_subsets_formula,
    orbits,
    parse_group_spec,
    partition_enum,
    tuples_of_partitions_count,
)
from wreathcount.classcount import decode_coloring, route_values
from wreathcount.combinatorics import _partition_table, fixed_subset_polynomial

from test_classcount import encode


@st.composite
def small_groups(draw):
    degree = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return PermGroup(gens)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(group=small_groups(), k=st.integers(1, 3))
def test_routes_agree_on_random_generator_sets(group, k):
    ran = route_values(group, k)  # raises when two routes disagree
    assert {"clifford", "brute"} <= set(ran), ran
    assert burnside_orbit_count(group, k) == len(coloring_orbit_reps(group, k))


def _census_and_walk(group, k):
    """The numpy census in blocks of 8 colorings, and the pure-Python walk."""
    from wreathcount import classcount

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classcount, "_NUMPY_MIN_SPACE", k ** group.degree + 1)
        walk = coloring_orbit_reps(group, k)
        mp.setattr(classcount, "_NUMPY_MIN_SPACE", 1)
        mp.setattr(classcount, "_SWEEP_BLOCK", 8)
        return coloring_orbit_reps(group, k), walk


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(group=small_groups(), k=st.integers(1, 4))
def test_numpy_census_in_tiny_blocks_matches_the_walk(group, k):
    census, walk = _census_and_walk(group, k)
    assert census == walk


def _block_layout(group, k):
    """What the census meets in blocks of 8: the kinds of block, and where orbits lie."""
    n = group.degree
    radix = k ** (n - n // 2)
    width = max(1, 8 // radix) * radix  # whole q-rows, or one row wider than 8
    found = {"single rows"} if radix > 8 else set()
    if k ** n % width:
        found.add("partial last block")
    for code, _ in coloring_orbit_reps(group, k):
        coloring = decode_coloring(code, k, n)
        others = set()
        for g in group.elements:
            image = [0] * n
            for i, digit in enumerate(coloring):
                image[g[i]] = digit
            others.add(encode(image, k))
        others.discard(code)
        blocks = {x // width for x in others}
        if code // width in blocks:
            found.add("rep in its orbit's block")
        if blocks - {code // width}:
            found.add("ranks read across blocks")
    return found


@pytest.mark.parametrize("spec, k, layout", [
    ("symmetric:2", 3, {"partial last block", "rep in its orbit's block",
                        "ranks read across blocks"}),
    ("dihedral:5", 3, {"single rows", "rep in its orbit's block", "ranks read across blocks"}),
])
def test_numpy_census_across_block_boundaries_matches_the_walk(spec, k, layout):
    group = parse_group_spec(spec)
    assert _block_layout(group, k) == layout
    census, walk = _census_and_walk(group, k)
    assert census == walk


def test_routes_agree_across_many_stabilizer_blocks():
    from wreathcount.permgroup import _STAB_BLOCK

    group = parse_group_spec("gens:14,(1 2),(3 4)")
    moved = [size for _, size in coloring_orbit_reps(group, 2) if size not in (1, group.order)]
    assert len(moved) > 3 * _STAB_BLOCK
    assert route_values(group, 2) == {"clifford": 25600, "brute": 25600}
    res = clifford_count(parse_group_spec("gens:18,(1 2),(3 4)"), 2)
    assert (res.value, res.orbit_count) == (409600, 147456)


def _reference_classes(wr):
    """Conjugacy classes of the wreath group as sets of codes, walked with multiply/inverse."""
    code = {wr.decode(x): x for x in range(wr.order)}
    gens = [(g, wr.inverse(g)) for g in wr.generators()]
    classes, seen = [], set()
    for element, x in code.items():
        if x in seen:
            continue
        seen.add(x)
        cls, front = {x}, [element]
        while front:
            a = front.pop()
            for g, ginv in gens:
                y = code[wr.multiply(wr.multiply(g, a), ginv)]
                if y not in seen:
                    seen.add(y)
                    cls.add(y)
                    front.append(wr.decode(y))
        classes.append(frozenset(cls))
    return classes


@pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:4", "quaternion",
                                  "gens:5,(1 2),(4 5)", "gens:3,()"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_coded_conjugation_matches_the_group_product(spec, k):
    wr = build_wreath_group(k, parse_group_spec(spec))
    # the codes name every element once
    assert len({wr.decode(x) for x in range(wr.order)}) == wr.order
    classes = list(wr.classes())
    starts = [cls[0] for cls in classes]
    assert starts == list(map(min, classes)) == sorted(starts)
    assert sum(map(len, classes)) == wr.order
    assert set(map(frozenset, classes)) == set(_reference_classes(wr))


@pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:4", "gens:5,(1 2),(4 5)",
                                  "gens:3,()"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_wreath_generators_take_one_unit_vector_per_orbit(spec, k):
    top = parse_group_spec(spec)
    wr = build_wreath_group(k, top)
    base = len(orbits(top)) if k > 1 else 0
    assert len(wr.generators()) == base + len(top.generators)


def test_brute_force_holds_one_byte_per_element_plus_the_class():
    import tracemalloc

    group = parse_group_spec("dihedral:6")
    group.elements  # H's closure and element list are not the walk's
    order = 4 ** group.degree * group.order
    tracemalloc.start()
    try:
        assert brute_force_count(group, 4).value == 640
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * order, (peak, order)


def _convolution_reference(k, n):
    # the k-fold convolution power of p(n), the formula the recurrence replaced
    p = _partition_table(n)
    acc = list(p)
    for _ in range(k - 1):
        acc = [sum(acc[i] * p[s - i] for i in range(s + 1)) for s in range(n + 1)]
    return acc[n]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 50, 1000])
def test_euler_recurrence_matches_convolution(k):
    for n in range(31):
        assert tuples_of_partitions_count(k, n) == _convolution_reference(k, n), (k, n)


def _dp_reference(alpha, ell):
    # the per-length DP over how many cycles of each length the subset takes
    lengths = sorted(alpha)

    @lru_cache(maxsize=None)
    def ways(idx, remaining):
        if remaining == 0:
            return 1
        if idx == len(lengths):
            return 0
        length, avail = lengths[idx], alpha[lengths[idx]]
        return sum(math.comb(avail, take) * ways(idx + 1, remaining - take * length)
                   for take in range(min(avail, remaining // length) + 1))

    return ways(0, ell)


@pytest.mark.parametrize("m", range(1, 13))
def test_fixed_subset_polynomial_matches_dp(m):
    for parts in partition_enum(m):
        poly = fixed_subset_polynomial(parts, m + 1)
        assert poly[m + 1] == 0
        for ell in range(m + 1):
            want = _dp_reference(Counter(parts), ell)
            assert poly[ell] == want, (parts, ell)
            assert fix_subsets_formula(parts, ell) == want, (parts, ell)
