"""Result records: field order, defaults, immutability, and the README's library snippet."""

import os
import re
import subprocess
import sys

import pytest

from wreathcount import DEFAULT, Budgets
from wreathcount.actions import BlockDecomposition
from wreathcount.bounds import BoundReport, ScanRow, SemiprimitiveReport
from wreathcount.classcount import Census, CountResult
from wreathcount.permgroup import NumericInvariants, StructureReport

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# record -> (field order, defaults), as the library has always published them
_RECORDS = {
    Budgets: (["max_group_order", "max_coloring_space", "max_lift_degree",
               "max_subgroup_order", "max_subgroup_count", "max_normal_order",
               "max_partition_size"],
              {"max_group_order": 1_000_000, "max_coloring_space": 1 << 27,
               "max_lift_degree": 100_000, "max_subgroup_order": 2_000,
               "max_subgroup_count": 20_000, "max_normal_order": 100_000,
               "max_partition_size": 64}),
    BlockDecomposition: (["r", "blocks", "kernel", "quotient"], {}),
    BoundReport: (["name", "lhs", "rhs", "holds", "mode", "inputs", "e_source",
                   "asymptotic", "note"],
                  {"e_source": None, "asymptotic": False, "note": ""}),
    SemiprimitiveReport: (["r", "blocks", "kernel_order", "quotient_order",
                           "kernel_semiregular", "cycle_bound_holds", "alpha_bound_holds",
                           "orbit_count", "quotient_orbit_count", "chain_rhs", "chain_holds",
                           "chain_mode", "e_k", "e_k_quotient_bound_holds",
                           "e_k_five_eighths_holds", "note"],
                          {"note": ""}),
    ScanRow: (["param", "k", "n", "order", "value", "bound", "holds", "mode"], {}),
    Census: (["reps", "delta", "regular", "inertia"], {}),
    CountResult: (["k", "group", "method", "value", "orbit_count"], {"orbit_count": None}),
    StructureReport: (["transitive", "semiregular", "primitive", "semiprimitive",
                       "normal_subgroup_count"], {}),
    NumericInvariants: (["mu", "b", "max_sigma"], {}),
}


@pytest.mark.parametrize("record", list(_RECORDS), ids=lambda r: r.__name__)
def test_record_fields_and_defaults(record):
    fields, defaults = _RECORDS[record]
    assert list(record._fields) == fields
    assert record._field_defaults == defaults


@pytest.mark.parametrize("record", list(_RECORDS), ids=lambda r: r.__name__)
def test_record_is_immutable(record):
    rec = record(*range(len(record._fields)))
    with pytest.raises(AttributeError):
        setattr(rec, record._fields[0], -1)
    with pytest.raises(AttributeError):  # no __dict__ for a stray attribute either
        rec.extra = -1
    assert rec._replace(**{record._fields[0]: -1})[0] == -1 and rec[0] == 0


def test_budgets_repr_and_overrides():
    assert repr(Budgets()) == (
        "Budgets(max_group_order=1000000, max_coloring_space=134217728, "
        "max_lift_degree=100000, max_subgroup_order=2000, max_subgroup_count=20000, "
        "max_normal_order=100000, max_partition_size=64)")
    assert DEFAULT.with_overrides(max_group_order=None) is DEFAULT
    tight = DEFAULT.with_overrides(max_group_order=5, max_lift_degree=None)
    assert tight == Budgets(max_group_order=5) and DEFAULT == Budgets()


def test_readme_library_snippet_prints_its_comments():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme[readme.index("## Library surface"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*(.+?)\s*$", code, re.M)]
    assert expected == ["20", "54", "all:brute+clifford", "13 36", "2 1"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected
