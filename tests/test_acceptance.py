"""Acceptance gate: nine end-to-end criteria with one pass/fail line each.

Each test prints "ACCEPTANCE <n>: PASS|FAIL <summary>" (visible with -s, or
in the -v test listing as one line per criterion). Criteria 1, 2, 3, 5 and 6
run the `wreathcount verify` suites, which own those cross-checks; criterion
3 also runs wider cells through the burnside suite's checks. Criteria 1 and
4 record their wall time for the performance criterion 9; when criterion 9
runs on its own it re-times them.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from wreathcount import (
    DEFAULT,
    auto_count,
    counterexample_scan,
    cycle_type,
    fix_subsets_direct,
    fix_subsets_formula,
    parse_group_spec,
    tuples_of_partitions_count,
)
from wreathcount import verify
from wreathcount.actions import cycle_type_class_size
from wreathcount.permgroup import compose, inverse, permutation
from wreathcount.verify import ORACLE_SPECS, SUITES, TRIANGULATION_GOLDENS, run_suite

_DURATIONS: dict[int, float] = {}


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {verdict} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _run_suite(capsys, suite: str) -> int:
    """Run SUITES[suite] as `wreathcount verify` does; return its case count.

    Fails unless the exit code is 0 and the summary line reports every case
    passed; the FAIL lines are the assertion message.
    """
    code = run_suite(suite, DEFAULT, seed=0)
    lines = capsys.readouterr().out.splitlines()
    total = len(SUITES[suite])
    fails = [line for line in lines if line.startswith("FAIL")]
    assert (code, lines[-1]) == (0, f"{suite}: {total}/{total} passed"), "\n".join(fails)
    return total


def _run_triangulation(capsys) -> float:
    t0 = time.perf_counter()
    _run_suite(capsys, "oracles")
    return time.perf_counter() - t0


def test_triangulation_goldens_pin_the_oracle_matrix():
    assert set(TRIANGULATION_GOLDENS) == {(s, k) for s in ORACLE_SPECS for k in (2, 3)}


def test_criterion_1_oracle_triangulation(capsys):
    elapsed = _run_triangulation(capsys)
    _DURATIONS[1] = elapsed
    _report(1, elapsed < 60.0,
            f"clifford == brute == golden on {len(TRIANGULATION_GOLDENS)} cells, "
            f"{elapsed:.1f}s")


def test_criterion_2_closed_form_agreement(capsys, monkeypatch):
    closed_forms = [case for case in SUITES["formulas"]
                    if case[1] in (verify._tuples_of_partitions, verify._schmid)]
    monkeypatch.setitem(SUITES, "formulas", closed_forms)
    _report(2, _run_suite(capsys, "formulas") == 2,
            "S_n matches partition tuples (n<=7, k<=3), C_p matches the "
            "prime closed form (k<=4), cyclic upper bound clean on "
            "n<=8 k<=4")


def test_criterion_3_burnside_consistency(capsys, monkeypatch):
    # S_m on ell-subsets, C(m,ell) <= 30; direct enumeration needs the
    # coloring table, so cells with k**C(m,ell) > 2**22 are left out
    # (the default space budget already refuses (8,2) at k = 2)
    cells = [(verify._burnside_direct, (f"subsets:{m},{ell}", k))
             for m in range(2, 9) for ell in range(1, m) for k in (2, 3)
             if math.comb(m, ell) <= 30 and k ** math.comb(m, ell) <= 2 ** 22]
    cells += [(verify._compositions, (n, k)) for n in range(2, 8) for k in range(1, 5)]
    suite = SUITES["burnside"]
    ran = {(check, args) for _, check, args in suite}
    monkeypatch.setitem(SUITES, "burnside", suite + [
        (f"{check.__name__} {args}", check, args) for check, args in cells
        if (check, args) not in ran])
    checked = _run_suite(capsys, "burnside")
    _report(3, True, f"burnside == direct orbit enumeration on {checked} "
                     f"instances incl. subset actions and weak compositions")


def _formula_vector(parts: tuple, m: int) -> tuple:
    return tuple(fix_subsets_formula(parts, ell) for ell in range(m + 1))


def _direct_vector(p: tuple[int, ...], m: int) -> tuple:
    return tuple(fix_subsets_direct(p, ell) for ell in range(m + 1))


def _canonical_perm(parts: tuple, m: int) -> tuple[int, ...]:
    images = list(range(m))
    start = 0
    for length in parts:
        for i in range(length):
            images[start + i] = start + (i + 1) % length
        start += length
    return permutation(images)


def _random_conjugate(p: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    images = list(range(len(p)))
    rng.shuffle(images)
    g = permutation(images)
    return compose(compose(g, p), inverse(g))


def _run_fix_subset_sweep() -> tuple[float, int]:
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    checked = 0
    # m <= 8: both routes evaluated per permutation, every ell
    for m in range(1, 9):
        for p in itertools.permutations(range(m)):
            assert _formula_vector(cycle_type(p), m) == _direct_vector(p, m), p
            checked += 1
    # m = 9, 10: fixed-subset counts are class functions, so the direct
    # route runs once per cycle type (canonical representative plus one
    # random conjugate); every permutation is still visited, classified,
    # and compared against its type's verified vector, and the observed
    # type multiplicities are matched against the class-size formula
    for m in (9, 10):
        verified: dict[tuple, tuple] = {}
        observed: dict[tuple, int] = {}
        for p in itertools.permutations(range(m)):
            parts = cycle_type(p)
            vec = verified.get(parts)
            if vec is None:
                canon = _canonical_perm(parts, m)
                vec = _formula_vector(parts, m)
                assert vec == _direct_vector(canon, m), parts
                assert vec == _direct_vector(_random_conjugate(canon, rng), m), parts
                verified[parts] = vec
            observed[parts] = observed.get(parts, 0) + 1
            checked += 1
        for parts, count in observed.items():
            assert cycle_type(_canonical_perm(parts, m)) == parts
            assert count == cycle_type_class_size(parts), parts
    # m = 14: seeded random sample, one random subset size per draw
    for _ in range(1000):
        images = list(range(14))
        rng.shuffle(images)
        p = permutation(images)
        ell = rng.randrange(15)
        assert (fix_subsets_formula(cycle_type(p), ell)
                == fix_subsets_direct(p, ell))
        checked += 1
    return time.perf_counter() - t0, checked


def test_criterion_4_fixed_subset_formula():
    elapsed, checked = _run_fix_subset_sweep()
    _DURATIONS[4] = elapsed
    exhaustive = sum(math.factorial(m) for m in range(1, 11))
    ok = checked == exhaustive + 1000 and elapsed < 120.0
    _report(4, ok, f"formula == direct across {checked} permutation checks "
                   f"(exhaustive through S_10, 1000 draws at m=14), "
                   f"{elapsed:.1f}s")


def test_criterion_5_unconditional_inequalities(capsys):
    _run_suite(capsys, "bounds")
    _report(5, True, "half-bound, fpr, mu*b, orbit-count and union bounds, "
                     "exact-e upper bound, inertia identity, and the "
                     "product-orbit identity all hold exactly")


def test_criterion_6_semiprimitive_decomposition(capsys):
    _run_suite(capsys, "semiprimitive")
    _report(6, True, "kernel semiregularity, cycle bound, alpha bound, exact "
                     "(r, |K|) and the exact orbit-count chain verified on "
                     "C4/C6/C8/quaternion; C2 wr C2 correctly rejected")


def test_criterion_7_counterexample_scan():
    rows = {row.param: row for row in counterexample_scan([2, 3], k=2)}
    goldens = {"wreath-cyclic:2": 20, "wreath-cyclic:3": 55}
    marker_notes = []
    for m in (2, 3):
        spec = f"wreath-cyclic:{m}"
        grp = parse_group_spec(spec)
        main_row = rows[f"{spec}|5^m/m"]
        assert main_row.value == goldens[spec]
        assert main_row.value >= math.ceil(2 ** (2 * m) / grp.order)
        assert main_row.value >= Fraction(5 ** m, m)
        assert main_row.holds is True
        marker = rows[f"{spec}|k^n"]
        marker_notes.append(f"m={m}:{'>' if marker.holds else '<='}k^n")
    # the k^n comparison is asymptotic; record the small-m outcome only
    assert rows["wreath-cyclic:3|k^n"].holds is False
    _report(7, True, f"exact counts 20/55 beat ceil(k^n/|H|) and 5^m/m; "
                     f"k^n marker recorded ({', '.join(marker_notes)})")


def test_criterion_8_determinism_and_serialization():
    env = dict(os.environ)
    argv = [sys.executable, "-m", "wreathcount.cli", "count",
            "--group", "symmetric:150", "--group", "subsets:5,2",
            "--k", "4", "--output", "json"]
    runs = []
    for seed in ("0", "424242"):
        env["PYTHONHASHSEED"] = seed
        runs.append(subprocess.run(argv, capture_output=True, env=env))
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    docs = json.loads(runs[0].stdout)
    big = tuples_of_partitions_count(4, 150)
    assert big > 2 ** 64
    assert docs[0]["value"] == str(big)
    assert int(json.loads(json.dumps(docs[0]))["value"]) == big
    assert tuples_of_partitions_count(4, 40) == 11984575498
    again = auto_count(parse_group_spec("symmetric:150"), 4)
    assert again.to_json_dict() == {
        "k": 4, "group": "symmetric:150", "degree": 150,
        "method": "closed-form", "value": str(big), "orbit_count": None,
    }
    _report(8, True, f"byte-identical CLI output across hash seeds; "
                     f"{big} (> 2**64) round-trips the JSON decimal string")


def test_criterion_9_performance_envelope(capsys):
    t1 = _DURATIONS.get(1)
    if t1 is None:
        t1 = _run_triangulation(capsys)
    t4 = _DURATIONS.get(4)
    if t4 is None:
        t4, _ = _run_fix_subset_sweep()
    grp = parse_group_spec("subsets:6,3")  # degree 20, order 720
    t0 = time.perf_counter()
    res = auto_count(grp, 2)
    t_single = time.perf_counter() - t0
    assert res.value == 4304
    assert res.orbit_count == 2136
    ok = t1 < 60.0 and t4 < 120.0 and t_single < 30.0
    _report(9, ok, f"triangulation {t1:.1f}s < 60s, subset-formula sweep "
                   f"{t4:.1f}s < 120s, k**20 coloring-space count "
                   f"{t_single:.1f}s < 30s")
