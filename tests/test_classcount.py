"""Class counting: Clifford route, brute oracle, closed forms, dispatch."""

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathcount import (
    DEFAULT,
    BudgetExceeded,
    Budgets,
    Infeasible,
    InvariantViolation,
    PermGroup,
    auto_count,
    burnside_orbit_count,
    brute_force_count,
    class_count,
    clifford_count,
    closed_form,
    coloring_orbit_reps,
    count_by_method,
    decode_coloring,
    nonregular_orbits,
    parse_group_spec,
    partition_count,
    schmid_cyclic,
    tuples_of_partitions_count,
)
from wreathcount.bounds import census_rows
from wreathcount.classcount import METHODS, coloring_census
from wreathcount.permgroup import inverse, is_identity
from wreathcount.verify import ORACLE_SPECS


def encode(coloring, k):
    """The code of a coloring, decode_coloring's inverse: point 0 is the most significant digit."""
    e = 0
    for digit in coloring:
        e = e * k + digit
    return e


def test_coloring_codes_roundtrip():
    k, n = 3, 4
    seen = set()
    for e in range(k ** n):
        coloring = decode_coloring(e, k, n)
        assert len(coloring) == n
        assert all(0 <= c < k for c in coloring)
        assert encode(coloring, k) == e
        seen.add(coloring)
    assert len(seen) == k ** n
    assert decode_coloring(0, k, n) == (0, 0, 0, 0)


def _orbit_reps_scan(group, k):
    """Reference census: keep a coloring iff no element of the group sends it lower.

    Linear memory and |H|-fold slower than the walks; (g.c)(j) = c(g^-1(j)),
    so the digit at point i lands at position g(i).
    """
    n, order = group.degree, group.order
    elems = [g for g in group.elements if not is_identity(g)]
    reps = []
    for e in range(k ** n):
        digits = decode_coloring(e, k, n)
        fixes = 1
        for images in elems:
            moved = [0] * n
            for i, d in enumerate(digits):
                moved[images[i]] = d
            y = encode(moved, k)
            if y < e:
                break
            fixes += y == e
        else:
            reps.append((e, order // fixes))
    return reps


def test_orbit_reps_symmetric3():
    reps = coloring_orbit_reps(parse_group_spec("symmetric:3"), 2)
    assert reps == [(0, 1), (1, 3), (3, 3), (7, 1)]
    assert sum(size for _, size in reps) == 8


def test_orbit_reps_scan_mode_agrees():
    for spec in ("symmetric:3", "cyclic:4", "dihedral:4"):
        grp = parse_group_spec(spec)
        for k in (2, 3):
            assert _orbit_reps_scan(grp, k) == coloring_orbit_reps(grp, k)


@pytest.mark.parametrize("spec", ["symmetric:3", "cyclic:4", "dihedral:4", "wreath-cyclic:2",
                                  "gens:4,(1 2)(3 4),(1 3)(2 4)", "gens:5,(1 2 3),(4 5)"])
def test_numpy_orbit_walk_agrees_with_scan(spec, monkeypatch):
    from wreathcount import classcount

    monkeypatch.setattr(classcount, "_NUMPY_MIN_SPACE", 1)  # every space takes the numpy path
    grp = parse_group_spec(spec)
    for k in (1, 2, 3):
        want = _orbit_reps_scan(grp, k)
        # one block; blocks of a few q-rows with a shorter last one; one row a block
        for block in (classcount._SWEEP_BLOCK, 20, 1):
            monkeypatch.setattr(classcount, "_SWEEP_BLOCK", block)
            assert coloring_orbit_reps(grp, k) == want, block


def test_numpy_orbit_walk_reps_are_orbit_minima():
    grp, k = parse_group_spec("dihedral:12"), 3
    n, order = grp.degree, grp.order
    reps = coloring_orbit_reps(grp, k)  # 3**12 colorings: the numpy range
    assert len(reps) == burnside_orbit_count(grp, k)
    assert sum(size for _, size in reps) == k ** n
    codes = np.array([code for code, _ in reps], dtype=np.int64)
    weights = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = codes[:, None] // weights % k
    fixes = np.zeros(len(codes), dtype=np.int64)
    for g in grp.elements:
        images = digits @ weights[list(g)]  # digit i lands at position g(i)
        assert (images >= codes).all()
        fixes += images == codes
    assert [size for _, size in reps] == (order // fixes).tolist()


def test_numpy_census_keeps_one_int32_array_per_coloring():
    import tracemalloc

    grp = parse_group_spec("subsets:7,2")  # 2**21 colorings: an 8 MiB int32 label array
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        reps = coloring_orbit_reps(grp, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reps) == burnside_orbit_count(grp, 2)
    assert peak < 12 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_orbit_reps_are_orbit_minima():
    grp = parse_group_spec("dihedral:4")
    reps = coloring_orbit_reps(grp, 2)
    for code, size in reps:
        coloring = decode_coloring(code, 2, 4)
        orbit = {encode([coloring[inverse(g)[i]] for i in range(4)], 2)
                 for g in grp.elements}
        assert min(orbit) == code
        assert len(orbit) == size


def _nonregular_census(group, k):
    reps = [(e, size) for e, size in coloring_orbit_reps(group, k) if size < group.order]
    return reps, sum(size for _, size in reps)


def _seeded_walk(group, k):
    """nonregular_orbits through the seeded walk, whichever way the census rule goes."""
    from wreathcount import classcount

    return classcount._seeded_walk(group, k, classcount._prime_seeds(group, k)[0])


# the seeded walk on every cell of the oracle matrix and on groups with
# several prime-order classes, an intransitive one among them
SEEDED_CASES = [(spec, k) for spec in ORACLE_SPECS for k in (2, 3)] + [
    (spec, k) for spec in ("subsets:5,2", "dihedral:6", "wreath-cyclic:3",
                           "gens:7,(1 2 3),(4 5)(6 7)") for k in (2, 3)]


@pytest.mark.parametrize("spec, k", SEEDED_CASES)
def test_nonregular_orbits_match_full_census(spec, k):
    grp = parse_group_spec(spec)
    want = _nonregular_census(grp, k)
    assert _seeded_walk(grp, k) == nonregular_orbits(grp, k) == want
    if k ** grp.degree * grp.order <= 10 ** 5:
        scan = [(e, size) for e, size in _orbit_reps_scan(grp, k) if size < grp.order]
        assert want == (scan, sum(size for _, size in scan))


@pytest.mark.parametrize("spec, k", [("dihedral:6", 2), ("subsets:5,2", 2)])
def test_nonregular_orbits_numpy_fallback_matches_walk(spec, k, monkeypatch, spy):
    from wreathcount import classcount

    grp = parse_group_spec(spec)
    want = _nonregular_census(grp, k)
    monkeypatch.setattr(classcount, "_NUMPY_MIN_SPACE", 1)  # every census takes numpy
    kernel = []
    spy(classcount, "_orbit_reps_numpy", kernel)
    assert nonregular_orbits(grp, k) == _seeded_walk(grp, k) == want
    assert kernel == [grp]  # k**n <= 5 * U: the filtered census


def _census_calls(monkeypatch, spec, k):
    """nonregular_orbits(spec, k), and the coloring_orbit_reps calls it made."""
    from wreathcount import classcount

    calls = []
    monkeypatch.setattr(classcount, "coloring_orbit_reps",
                        lambda *args: calls.append(args) or coloring_orbit_reps(*args))
    return nonregular_orbits(parse_group_spec(spec), k), calls


@pytest.mark.parametrize("spec, k, census", [
    ("alternating:8", 2, True),    # U = 84752 seeds for k**n = 256 colorings
    ("wreath-cyclic:7", 2, True),  # U = 265088 seeds for k**n = 16384 colorings
    ("subsets:6,3", 2, True),      # k**n = 2**20 is 2.2 U
    ("dihedral:6", 4, True),       # k**n = 4096 is 3.9 U
    ("dihedral:15", 2, False),     # k**n = 2**15 is 8.3 U
    ("dihedral:24", 2, False),     # k**n = 2**24 is 110 U
    ("quaternion", 5, False),      # k**n = 5**8 is 625 U
    ("dihedral:12", 3, False),     # k**n = 3**12 is 28.9 U
])
def test_nonregular_orbits_census_rule(spec, k, census, monkeypatch):
    got, calls = _census_calls(monkeypatch, spec, k)
    assert len(calls) == census
    assert got == _seeded_walk(parse_group_spec(spec), k)


@pytest.mark.parametrize("spec, k, census", [("dihedral:6", 4, True), ("dihedral:12", 3, False)])
@pytest.mark.parametrize("numpy_min", [1, 1 << 40], ids=["numpy-every-census", "numpy-none"])
def test_nonregular_orbits_census_rule_reads_no_numpy_constant(spec, k, census, numpy_min,
                                                               monkeypatch):
    from wreathcount import classcount

    monkeypatch.setattr(classcount, "_NUMPY_MIN_SPACE", numpy_min)
    _, calls = _census_calls(monkeypatch, spec, k)
    assert len(calls) == census


def test_numpy_census_past_2_pow_22(spy):
    from wreathcount import classcount

    grp = parse_group_spec("cyclic:23")  # 2**23 colorings
    kernel = []
    spy(classcount, "_orbit_reps_numpy", kernel)
    reps = coloring_orbit_reps(grp, 2)
    assert kernel == [grp]
    assert len(reps) == burnside_orbit_count(grp, 2) == 364724


@pytest.mark.parametrize("past", [True, False], ids=["at-k-pow-n", "below-zero"])
def test_numpy_census_refuses_a_generator_table_outside_the_codes(past, monkeypatch):
    from wreathcount import classcount

    steps = classcount._generator_steps

    def bad_steps(group, k):  # one image hi[0] + lo[r] at k**n, or at -1
        radix, tables = steps(group, k)
        hi, lo = tables[0]
        hi[0] = k ** group.degree - max(lo) if past else -min(lo) - 1
        return radix, tables

    monkeypatch.setattr(classcount, "_generator_steps", bad_steps)
    with pytest.raises(InvariantViolation, match="outside the coloring codes"):
        coloring_orbit_reps(parse_group_spec("cyclic:15"), 2)  # 2**15: the numpy census


def test_numpy_census_refuses_past_int32_labels():
    grp = parse_group_spec("cyclic:31", Budgets(max_coloring_space=1 << 40))
    with pytest.raises(BudgetExceeded, match="int32 label limit"):
        coloring_orbit_reps(grp, 2)  # 2**31 colorings: the labels would wrap


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return PermGroup(gens)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(group=generator_sets(), k=st.integers(1, 3))
def test_nonregular_orbits_match_census_on_random_generator_sets(group, k):
    assert _seeded_walk(group, k) == nonregular_orbits(group, k) == _nonregular_census(group, k)
    census = coloring_census(group, k)
    assert census.regular + len(census.reps) == burnside_orbit_count(group, k)


def test_burnside_counts():
    assert burnside_orbit_count(parse_group_spec("symmetric:3"), 2) == 4
    assert burnside_orbit_count(parse_group_spec("cyclic:4"), 2) == 6


def test_route_results_name_their_method():
    grp = parse_group_spec("cyclic:4")
    assert clifford_count(grp, 2).method == "clifford"
    assert brute_force_count(grp, 2).method == "brute"


def test_count_with_trivial_color_group():
    # k = 1 collapses the base: the wreath product is just the top group
    for spec in ("symmetric:3", "cyclic:4", "dihedral:4"):
        grp = parse_group_spec(spec)
        assert clifford_count(grp, 1).value == class_count(grp)


def test_schmid_cyclic_values():
    assert schmid_cyclic(2, 3) == (8, 12)
    assert schmid_cyclic(2, 4) == (None, 22)
    assert schmid_cyclic(3, 5) == (63, 255)
    assert schmid_cyclic(4, 2) == (14, 20)
    with pytest.raises(ValueError):
        schmid_cyclic(2, 1)


def test_symmetric_closed_form():
    assert tuples_of_partitions_count(2, 3) == 10
    assert tuples_of_partitions_count(4, 40) == 11984575498
    for n in range(8):
        assert tuples_of_partitions_count(1, n) == partition_count(n)
    for n in range(1, 8):
        for k in (2, 3):
            res = closed_form(parse_group_spec(f"symmetric:{n}"), k)
            assert (res.method, res.value) == ("closed-form", tuples_of_partitions_count(k, n))


@pytest.mark.parametrize("spec, k", [("wreath-cyclic:3", 2), ("subsets:5,2", 2)])
def test_clifford_counts_each_distinct_stabilizer_once(spec, k, monkeypatch):
    from wreathcount import classcount

    grp = parse_group_spec(spec)
    want = clifford_count(grp, k).value
    counted = []

    def counting(group):
        counted.append(group)
        return class_count(group)

    monkeypatch.setattr(classcount, "class_count", counting)
    assert clifford_count(grp, k).value == want
    assert len({g.elements for g in counted}) == len(counted)
    # some stabilizers repeat, so one count per representative would be more
    reps = coloring_orbit_reps(grp, k)
    assert len(counted) < sum(1 for _, size in reps if size != grp.order)


def test_a_refused_closure_is_not_retried(spy):
    from wreathcount import permgroup

    closures = []
    spy(permgroup, "_closure", closures)
    group = parse_group_spec("alternating:6", Budgets(max_group_order=10))
    with pytest.raises(BudgetExceeded) as exc:
        count_by_method(group, 2, "all")  # clifford, brute, then auto_count's bracket
    assert str(exc.value) == "closure order = 12 exceeds the max_group_order budget 10"
    assert len(closures) == 1


def test_cached_census_is_still_refused_under_a_tighter_budget():
    from wreathcount import classcount

    grp = parse_group_spec("cyclic:4")
    census = classcount.coloring_census(grp, 2)
    assert classcount.coloring_census(grp, 2) is census  # kept on the group object
    tight = parse_group_spec("cyclic:4", Budgets(max_coloring_space=8))
    for call in (lambda: classcount.coloring_census(tight, 2),
                 lambda: clifford_count(tight, 2)):
        with pytest.raises(BudgetExceeded,
                           match=r"k\*\*n = 16 exceeds the max_coloring_space budget 8"):
            call()
    assert [row.holds for row in census_rows(tight, 2)] == ["indeterminate"] * 2
    assert classcount.coloring_census(grp, 2) is census and grp._census == {2: census}
    assert [(row.lhs, row.rhs) for row in census_rows(grp, 2)] == [(3, 8), (4, 12)]


def test_auto_count_dispatch():
    res = auto_count(parse_group_spec("cyclic:3"), 2)
    assert (res.method, res.value) == ("closed-form", 8)
    res = auto_count(parse_group_spec("gens:4,(1 2)(3 4),(1 3)(2 4)"), 2)
    assert (res.method, res.value) == ("clifford", 16)
    res = auto_count(parse_group_spec("gens:3,()"), 2)
    assert (res.method, res.value) == ("closed-form", 8)
    # the brute rung: default budgets never reach it (2**27 > 10**6)
    res = auto_count(parse_group_spec("cyclic:4", Budgets(max_coloring_space=8)), 2)
    assert (res.method, res.value) == ("brute", 13)


def test_auto_count_moves_past_a_refusing_route(monkeypatch):
    from wreathcount import classcount

    def refuse(group, k):
        raise BudgetExceeded("clifford refused")

    monkeypatch.setattr(classcount, "clifford_count", refuse)
    res = auto_count(parse_group_spec("cyclic:4"), 2)  # default budgets fit clifford
    assert (res.method, res.value) == ("brute", 13)


@pytest.mark.parametrize("spec, k, want", [
    ("cyclic:1", 3, 3),        # trivial top group: k**n
    ("symmetric:5", 2, 36),    # pairs of partitions of total size 5
    ("cyclic:7", 2, 32),       # (2**7 - 2)/7 + 2*7
    ("cyclic:4", 2, None),     # composite degree
    ("dihedral:4", 2, None),
])
def test_closed_form_table(spec, k, want):
    grp = parse_group_spec(spec)
    res = closed_form(grp, k)
    assert (None if res is None else res.value) == want
    assert (auto_count(grp, k).method == "closed-form") == (want is not None)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("spec, k", [("cyclic:1", 0), ("gens:3,()", -2), ("symmetric:3", 0),
                                     ("cyclic:5", 0), ("dihedral:4", 0)])
def test_every_method_refuses_k_below_one(spec, k, method):
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        count_by_method(parse_group_spec(spec), k, method)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("spec", ["cyclic:5", "dihedral:4"])
def test_count_by_method_is_the_count_subcommand(run_cli, spec, method):
    code, out, err = run_cli("count", "--group", spec, "--k", "2", "--method", method,
                             "--output", "json")
    try:
        want = count_by_method(parse_group_spec(spec), 2, method).to_json_dict()
    except ValueError as exc:  # closed-form on a group without one
        assert (code, out, err) == (1, "", f"error: {exc}\n")
    else:
        assert (code, err) == (0, "") and json.loads(out) == want


def test_count_by_method_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="method must be one of"):
        count_by_method(parse_group_spec("cyclic:3"), 2, "fastest")


def test_invariant_check_survives_optimize_flag():
    # a class count of 0 for every stabilizer puts clifford below k**n/|H|
    script = ("import sys\n"
              "import wreathcount.classcount as cc\n"
              "from wreathcount import parse_group_spec\n"
              "cc.class_count = lambda group: 0\n"
              "print(sys.flags.optimize)\n"
              "cc.clifford_count(parse_group_spec('dihedral:4'), 2)\n")
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True)
    assert res.stdout == "1\n"
    assert res.returncode != 0
    assert "below the orbit-count lower bound" in res.stderr


_CLIFFORD = "cc.clifford_count(parse_group_spec('dihedral:4'), 2)"
_CENSUS_ROWS = "bd.census_rows(parse_group_spec('dihedral:4'), 2)"


@pytest.mark.parametrize("patch, call, message", [
    # a trivial stabilizer for every non-regular orbit breaks |I_H(c)| * |orbit| = |H|
    ("cc.coloring_stabilizers = lambda group, colorings: "
     "(PermGroup([], degree=group.degree) for _ in colorings)", _CLIFFORD,
     "InvariantViolation: orbit-stabilizer"),
    # an orbit walk that calls every coloring fixed would skip its stabilizer
    ("cc.nonregular_orbits = lambda group, k: "
     "([(e, 1) for e in range(k ** 4)], k ** 4)", _CLIFFORD,
     "InvariantViolation: coloring (0, 0, 0, 1) has orbit size 1 but is moved"),
    # a walk that drops one non-regular orbit leaves k**n - |Delta| off a multiple of |H|
    ("walk = cc.nonregular_orbits\n"
     "def dropping(group, k):\n"
     "    reps, delta = walk(group, k)\n"
     "    return reps[:-1], delta - reps[-1][1]\n"
     "cc.nonregular_orbits = dropping", _CLIFFORD,
     "InvariantViolation: regular part k**n - |Delta| = 16 - 15 not divisible by |H| = 8"),
    # a census with its 6 non-regular orbits listed three times breaks t < 2*k**max_sigma
    ("census = bd.coloring_census\n"
     "bd.coloring_census = lambda group, k: "
     "dataclasses.replace(census(group, k), reps=census(group, k).reps * 3)", _CENSUS_ROWS,
     "InvariantViolation: non-regular orbit count 18 >= 2*k**max_sigma = 16"),
    # and one with |Delta| = 100 breaks |Delta| <= (|H| - 1)*k**max_sigma
    ("census = bd.coloring_census\n"
     "bd.coloring_census = lambda group, k: dataclasses.replace(census(group, k), delta=100)",
     _CENSUS_ROWS, "InvariantViolation: non-regular union 100 > (|H|-1)*k**max_sigma = 56"),
], ids=["orbit-stabilizer", "fixed-coloring", "regular-divisibility", "census-orbit-count",
        "census-union-size"])
def test_orbit_stabilizer_checks_survive_optimize_flag(patch, call, message):
    script = ("import dataclasses, sys\n"
              "import wreathcount.bounds as bd\n"
              "import wreathcount.classcount as cc\n"
              "from wreathcount import PermGroup, parse_group_spec\n"
              f"{patch}\n"
              "print(sys.flags.optimize)\n"
              f"{call}\n")
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True)
    assert res.stdout == "1\n"
    assert res.returncode != 0
    assert message in res.stderr


def test_auto_count_huge_symmetric_without_materializing():
    res = auto_count(parse_group_spec("symmetric:40"), 4)
    assert res.method == "closed-form"
    assert res.value == 11984575498


def test_auto_count_infeasible_bracket():
    with pytest.raises(Infeasible) as exc:
        auto_count(parse_group_spec("dihedral:40"), 2)
    assert isinstance(exc.value, BudgetExceeded)  # one refusal type for every caller
    assert exc.value.lower == 13743895348
    assert exc.value.upper == Fraction(128000068719476736, 5)
    assert exc.value.lower <= exc.value.upper


def test_clifford_budget_message_names_coloring_space():
    with pytest.raises(BudgetExceeded) as exc:
        clifford_count(parse_group_spec("symmetric:30"), 2)
    assert "coloring space" in str(exc.value)


def test_brute_budget_refusal():
    tight = DEFAULT.with_overrides(max_group_order=40)
    with pytest.raises(BudgetExceeded):
        brute_force_count(parse_group_spec("symmetric:3", tight), 2)


def test_count_result_json_shape():
    res = clifford_count(parse_group_spec("symmetric:3"), 2)
    doc = res.to_json_dict()
    assert set(doc) == {"k", "group", "degree", "method", "value", "orbit_count"}
    assert doc["value"] == "10"
    assert doc["orbit_count"] == "4"
