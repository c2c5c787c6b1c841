"""The benchmark's workloads: fixed lists of wreathcount CLI ops.

Each op is the argument list of one `wreathcount` invocation. Every op ends
in `--output csv` so its stdout can be compared byte for byte with the golden
recorded in goldens.json. README.md explains why each workload exists and
which layers it stresses.
"""

from __future__ import annotations


def _ops(*lines: str) -> list[list[str]]:
    return [line.split() + ["--output", "csv"] for line in lines]


WORKLOADS: dict[str, list[list[str]]] = {
    # auto_count on the clifford route: orbit walk, stabilizers, class counts
    "count-clifford": _ops(
        "count --group subsets:6,3 --k 2",
        "count --group alternating:8 --k 2",
        "count --group dihedral:12 --k 3",
        "count --group dihedral:15 --k 2",
        "count --group quaternion --k 5",
        "scan --m 2,3,4,5,6,7",
        "verify burnside",
    ),
    # bound reports and classification: thousands of small closures in the
    # subgroup lattice rather than one closure of H and a walk
    "bounds-lattice": _ops(
        "bounds --group alternating:5 --k 2",
        "bounds --group wreath-cyclic:4 --k 2",
        "bounds --group product:3,1,2 --k 2",
        "bounds --group subsets-alt:5,2 --k 2",
        "classify --group alternating:6",
        "classify --group wreath-cyclic:4",
        "verify bounds",
        "verify semiprimitive",
    ),
    # cross-checks and closed forms: brute force and combinatorics, with the
    # clifford layers nearly idle (the bypass workload for clifford changes)
    "count-oracle": _ops(
        "count --group dihedral:6 --k 4 --method all",
        "count --group wreath-cyclic:3 --k 3 --method all",
        "count --group symmetric:4 --k 4 --method all",
        "verify oracles",
        "count --group symmetric:40 --k 20000",
        "count --group symmetric:60 --k 500",
        "count --group cyclic:101 --k 1000",
        "scan --probe-fixed-subsets --m 12,18,24,30",
    ),
}


def op_key(op: list[str]) -> str:
    """The op's key in goldens.json."""
    return " ".join(op)
