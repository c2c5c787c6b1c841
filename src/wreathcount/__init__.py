"""Exact conjugacy class counts for wreath products X wr H.

The count k(X wr H) depends on the base group X only through k = k(X), so the
whole API takes an integer k and a permutation group H. Three independent
counting routes (stabilizer sums, a brute-force class walk, family closed
forms) cross-check each other; Burnside orbit counting gives the orbit
count, a lower bound. A bounds module evaluates the exact inequalities that
govern the census of coloring orbits, and the verify module holds the
cross-check suites behind ``wreathcount verify``.
"""

from .actions import (
    BlockDecomposition,
    WreathGroup,
    block_decomposition,
    build_wreath_group,
    cycle_type,
    family,
    fix_subsets_direct,
    parse_group_spec,
    product_action_build,
    sigma_prime,
    subset_rank,
    subsets_action_lift,
)
from .bounds import (
    BoundReport,
    ScanRow,
    SemiprimitiveReport,
    bounds_report,
    census_rows,
    count_upper_bound,
    counterexample_scan,
    fixed_subset_fraction_probe,
    large_base_count_bound,
    large_base_match,
    predicates,
    product_orbit_identity,
    semiprimitive_report,
    subset_orbit_bound,
    subset_orbit_count_exact,
)
from .budgets import DEFAULT, Budgets
from .classcount import (
    CountResult,
    auto_count,
    brute_force_count,
    burnside_orbit_count,
    clifford_count,
    closed_form,
    coloring_orbit_reps,
    count_by_method,
    decode_coloring,
    nonregular_orbits,
    schmid_cyclic,
)
from .combinatorics import (
    fix_subsets_formula,
    partition_count,
    partition_enum,
    stirling_first,
    tuples_of_partitions_count,
)
from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    DivisibilityViolation,
    Infeasible,
    InvariantViolation,
    NotSemiprimitive,
    ParseError,
    UnknownFamily,
    WreathcountError,
)
from .permgroup import (
    NumericInvariants,
    PermGroup,
    StructureReport,
    class_count,
    coloring_stabilizer,
    coloring_stabilizers,
    conjugacy_classes,
    is_primitive,
    is_semiregular,
    is_transitive,
    max_subgroup_class_count,
    normal_subgroups,
    numeric_invariants,
    orbits,
    parse_generators,
    parse_permutation,
    structure_classify,
    subgroups,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition", "BoundReport", "BudgetExceeded", "Budgets", "CountResult",
    "DEFAULT", "DegreeMismatch", "DivisibilityViolation", "Infeasible", "InvariantViolation",
    "NotSemiprimitive", "NumericInvariants", "ParseError", "PermGroup",
    "ScanRow", "SemiprimitiveReport", "StructureReport", "UnknownFamily",
    "WreathGroup", "WreathcountError", "auto_count", "block_decomposition", "bounds_report",
    "brute_force_count", "build_wreath_group", "burnside_orbit_count", "census_rows",
    "class_count", "clifford_count", "closed_form", "coloring_orbit_reps",
    "coloring_stabilizer", "coloring_stabilizers", "conjugacy_classes",
    "count_by_method", "count_upper_bound", "counterexample_scan", "cycle_type",
    "decode_coloring", "family",
    "fix_subsets_direct", "fix_subsets_formula", "fixed_subset_fraction_probe",
    "is_primitive", "is_semiregular", "is_transitive",
    "large_base_count_bound", "large_base_match", "max_subgroup_class_count",
    "nonregular_orbits", "normal_subgroups", "numeric_invariants",
    "orbits", "parse_generators",
    "parse_group_spec", "parse_permutation", "partition_count", "partition_enum",
    "predicates", "product_action_build", "product_orbit_identity",
    "schmid_cyclic", "semiprimitive_report", "sigma_prime",
    "stirling_first", "structure_classify", "subgroups", "subset_orbit_bound",
    "subset_orbit_count_exact", "subset_rank", "subsets_action_lift",
    "tuples_of_partitions_count",
]
