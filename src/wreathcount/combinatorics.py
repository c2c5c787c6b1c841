"""Exact counting helpers: partitions, Stirling numbers, fixed subsets.

Every function here returns unbounded Python ints; no floats enter any
counting path. A partition, and so the cycle type of a permutation, is the
weakly decreasing tuple of its parts (fixed points count as parts 1). Two
kernels carry the closed forms and the probes: Euler's recurrence for
k-tuples of partitions (k(X wr S_n)), and the fixed-subset polynomial,
product over the cycles of a permutation of (1 + x**len), whose
coefficients count the subsets each size fixes. Both do polynomial integer
work and take no budgets; partition_enum streams p(n) partitions, which
grows like exp(pi * sqrt(2n/3)), so it checks max_partition_size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .budgets import DEFAULT, Budgets
from .errors import InvariantViolation


@lru_cache(maxsize=None)
def _partition_table(n: int) -> tuple[int, ...]:
    # classic coin-style DP: p[s] = number of partitions of s with parts <= current
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            table[s] += table[s - part]
    return tuple(table)


def partition_count(n: int) -> int:
    """p(n), the number of integer partitions of n; p(0) = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partition_table(n)[n]


def partition_enum(n: int, budgets: Budgets = DEFAULT) -> Iterator[tuple[int, ...]]:
    """The p(n) partitions of n as part tuples, streamed in reverse-lexicographic
    order: (n) first, (1,...,1) last. The budget is checked at the call."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    budgets.check("max_partition_size", n, "partition size n")

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return rec(n, n)


@lru_cache(maxsize=None)
def _stirling_row(m: int) -> tuple[int, ...]:
    # row m of the unsigned first-kind triangle, indexed by cycle count j
    if m == 0:
        return (1,)
    prev = _stirling_row(m - 1)
    row = [0] * (m + 1)
    for j in range(1, m + 1):
        row[j] = (prev[j - 1] if j - 1 < len(prev) else 0) \
            + (m - 1) * (prev[j] if j < len(prev) else 0)
    return tuple(row)


def stirling_first(j: int, m: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of m points with j cycles."""
    if m < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    if j > m:
        return 0
    return _stirling_row(m)[j]


def fixed_subset_polynomial(parts: Sequence[int], degree: int) -> list[int]:
    """Coefficients of x**0 .. x**degree in the product over cycles of (1 + x**len).

    ``parts`` are the cycle lengths (fixed points as length 1). A subset
    fixed setwise by a permutation is a union of whole cycles, so the
    coefficient of x**ell counts the fixed ell-subsets.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = [1] + [0] * degree
    for length in parts:
        # multiply by (1 + x**length), truncated; high degrees first
        for d in range(degree, length - 1, -1):
            coeffs[d] += coeffs[d - length]
    return coeffs


def fix_subsets_formula(parts: Sequence[int], ell: int) -> int:
    """Number of ell-subsets fixed setwise by a permutation with these cycle lengths.

    The x**ell coefficient of fixed_subset_polynomial; callers that need
    several ell for one type should read that polynomial once instead.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return fixed_subset_polynomial(parts, ell)[ell]


def tuples_of_partitions_count(k: int, n: int) -> int:
    """Number of k-tuples of partitions with total size n.

    The x**n coefficient F_n of P(x)**k, P the partition generating function,
    by Euler's recurrence m * F_m = k * sum_{j=1..m} sigma(j) * F_{m-j}
    (the logarithmic derivative of P(x)**k). O(n**2) with no k term; each
    division is exact, so a remainder means a bug and raises.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    sigma = [0] * (n + 1)  # sigma[j], the sum of the divisors of j
    for d in range(1, n + 1):
        for multiple in range(d, n + 1, d):
            sigma[multiple] += d
    f = [1] + [0] * n
    for m in range(1, n + 1):
        total = k * sum(sigma[j] * f[m - j] for j in range(1, m + 1))
        f[m], rem = divmod(total, m)
        if rem:
            raise InvariantViolation(
                f"Euler recurrence: {total} not divisible by {m} (k={k}, n={n})")
    return f[n]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True
