"""Size budgets that gate every potentially explosive enumeration.

A Budgets is given once, where a group is built (parse_group_spec, family,
PermGroup, PermGroup.from_elements): every function that takes the group
reads group.budgets, and every group derived from it (subgroups, kernels,
quotients, stabilizers) inherits them. Functions that take no group, such
as the subset lifts and partition_enum, take a Budgets argument of their
own. Each enumeration refuses through Budgets.check, where it runs; only
the element closure, which checks once per coset, compares inline, in the
same words. The CLI builds its Budgets from from_env()
(environment variables WREATHCOUNT_MAX_ORDER, WREATHCOUNT_MAX_COLORINGS,
WREATHCOUNT_MAX_LIFT_DEGREE, WREATHCOUNT_MAX_SUBGROUP_ORDER) and then its
--budget-max-* flags. DEFAULT, the library default, holds the built-in
limits and never reads the environment, so importing the package cannot
fail on a bad variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import BudgetExceeded


@dataclass(frozen=True)
class Budgets:
    # order of a closed group: element closure, the brute-force wreath group
    max_group_order: int = 1_000_000
    # size of the coloring space k**n a census or walk may span; the numpy
    # census holds 4 bytes a coloring, 512 MiB at the default 2**27
    max_coloring_space: int = 1 << 27
    # degree of a lifted action (subsets, product action, the subset Burnside sum)
    max_lift_degree: int = 100_000
    # the subgroup-class walk (exact e(H)) refuses larger groups; bounds then
    # takes e = 5**(n/3)
    max_subgroup_order: int = 2_000
    # safety cap on the subgroups a walk holds: every conjugate of each class
    # subgroups finds, or each normal subgroup normal_subgroups finds; where
    # the class walk refuses, bounds takes e = 5**(n/3)
    max_subgroup_count: int = 20_000
    # normal-subgroup enumeration refuses larger groups
    max_normal_order: int = 100_000
    # partition_enum refuses larger n (it streams p(n) partitions, so this bounds time)
    max_partition_size: int = 64

    def with_overrides(self, **kw) -> "Budgets":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self

    def check(self, field: str, value: int, what: str) -> None:
        """Refuse with BudgetExceeded when value passes the named budget."""
        limit = getattr(self, field)
        if value > limit:
            raise BudgetExceeded(f"{what} = {value} exceeds the {field} budget {limit}")


_ENV_KEYS = {
    "WREATHCOUNT_MAX_ORDER": "max_group_order",
    "WREATHCOUNT_MAX_COLORINGS": "max_coloring_space",
    "WREATHCOUNT_MAX_LIFT_DEGREE": "max_lift_degree",
    "WREATHCOUNT_MAX_SUBGROUP_ORDER": "max_subgroup_order",
}


def from_env() -> Budgets:
    """The built-in Budgets with environment-variable overrides applied."""
    kw = {}
    for env, field in _ENV_KEYS.items():
        raw = os.environ.get(env)
        if raw is None:
            continue
        try:
            kw[field] = int(raw)
        except ValueError:
            raise ValueError(f"{env} must be an integer, got {raw!r}")
        if kw[field] < 0:
            raise ValueError(f"{env} must be >= 0, got {raw!r}")
    return Budgets().with_overrides(**kw)


DEFAULT = Budgets()
