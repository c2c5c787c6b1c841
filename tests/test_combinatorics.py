"""Partitions, Stirling numbers, and the fixed-subset counting formula."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathcount import (
    DEFAULT,
    BudgetExceeded,
    fix_subsets_formula,
    partition_count,
    partition_enum,
    stirling_first,
    tuples_of_partitions_count,
)
from wreathcount.combinatorics import fixed_subset_polynomial, is_prime

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_stirling_row_sums():
    for m in range(1, 13):
        assert sum(stirling_first(j, m) for j in range(1, m + 1)) == math.factorial(m)


def test_stirling_known_values():
    assert stirling_first(1, 5) == 24
    assert stirling_first(2, 5) == 50
    assert stirling_first(3, 5) == 35
    assert stirling_first(4, 5) == 10
    assert stirling_first(2, 4) == 11


def test_stirling_boundary_columns():
    for m in range(1, 12):
        assert stirling_first(m, m) == 1
        assert stirling_first(1, m) == math.factorial(m - 1)
    for m in range(2, 12):
        assert stirling_first(m - 1, m) == math.comb(m, 2)


def test_stirling_recurrence():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randrange(2, 14)
        j = rng.randrange(1, m + 1)
        expected = stirling_first(j - 1, m - 1) + (m - 1) * stirling_first(j, m - 1)
        assert stirling_first(j, m) == expected


def test_partition_count_small():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert partition_count(n) == expected
    assert partition_count(50) == 204226


def test_partition_enum_matches_count():
    for n in range(13):
        parts = list(partition_enum(n))
        assert len(parts) == partition_count(n)
        assert len(set(parts)) == len(parts)
        assert parts == sorted(parts, reverse=True)  # reverse-lexicographic
        for p in parts:
            assert sum(p) == n
            assert all(a >= b >= 1 for a, b in zip(p, p[1:] + (1,)))


def test_partition_enum_refuses_at_the_call():
    # the refusal comes before any iteration, not at the first next()
    with pytest.raises(BudgetExceeded, match="max_partition_size"):
        partition_enum(65)
    assert next(partition_enum(64)) == (64,)


def test_partition_enum_streams():
    # p(40) = 37338 partitions; streaming holds one at a time
    tracemalloc.start()
    try:
        count = sum(1 for _ in partition_enum(40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == partition_count(40)
    assert peak < 1_000_000, peak


def test_tuples_of_partitions_single():
    for n in range(11):
        assert tuples_of_partitions_count(1, n) == partition_count(n)
        assert tuples_of_partitions_count(n + 1, 0) == 1


def test_tuples_of_partitions_pairs():
    for n in range(9):
        direct = sum(partition_count(a) * partition_count(n - a)
                     for a in range(n + 1))
        assert tuples_of_partitions_count(2, n) == direct
    assert tuples_of_partitions_count(2, 3) == 10


def test_tuples_of_partitions_triples():
    for n in range(7):
        direct = sum(partition_count(a) * partition_count(b)
                     * partition_count(n - a - b)
                     for a in range(n + 1) for b in range(n - a + 1))
        assert tuples_of_partitions_count(3, n) == direct
    assert tuples_of_partitions_count(3, 4) == 51


def test_fix_subsets_identity_type():
    for m in range(1, 9):
        for ell in range(m + 1):
            assert fix_subsets_formula((1,) * m, ell) == math.comb(m, ell)


def test_fix_subsets_single_cycle():
    # a full cycle fixes no subset strictly between empty and everything
    for m in range(2, 9):
        for ell in range(1, m):
            assert fix_subsets_formula((m,), ell) == 0
        assert fix_subsets_formula((m,), 0) == 1
        assert fix_subsets_formula((m,), m) == 1


def test_fix_subsets_double_transposition():
    assert fix_subsets_formula((2, 2), 2) == 2
    assert fix_subsets_formula((2, 2), 1) == 0
    assert fix_subsets_formula((2, 1, 1), 1) == 2


def test_fix_subsets_total_over_sizes():
    # summing over all subset sizes counts every invariant subset once:
    # each cycle is either wholly in or out, giving 2**(cycle count)
    rng = random.Random(17)
    for _ in range(40):
        parts = ()
        for length in rng.sample(range(1, 7), rng.randrange(1, 4)):
            parts += (length,) * rng.randrange(1, 4)
        m = sum(parts)
        total = sum(fix_subsets_formula(parts, ell) for ell in range(m + 1))
        assert total == 2 ** len(parts)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rest=st.lists(st.integers(1, 12), max_size=7), length=st.integers(2, 12), data=st.data())
def test_splitting_a_cycle_never_lowers_a_fixed_subset_count(rest, length, data):
    # the refinement lemma the fixed-subset probe rests on: a union of whole
    # cycles stays one after a cycle is cut in two
    cut = data.draw(st.integers(1, length - 1))
    degree = sum(rest) + length
    before = fixed_subset_polynomial(rest + [length], degree)
    after = fixed_subset_polynomial(rest + [cut, length - cut], degree)
    assert all(a >= b for a, b in zip(after, before))


def test_fix_subsets_budget_refusal():
    tight = DEFAULT.with_overrides(max_partition_size=4)
    with pytest.raises(BudgetExceeded):
        partition_enum(12, tight)


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97}
    for n in range(100):
        assert is_prime(n) == (n in primes)
