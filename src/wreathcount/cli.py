"""Command line surface: argument parsing, the choice of library call, and rendering.

Subcommands: count, classify, bounds, verify, scan. Each one calls the
library entry point its flags name (count calls classcount.count_by_method
with its --method, bounds calls bounds.bounds_report, verify runs a suite of
wreathcount.verify) and renders the result.
Output is a human table by default, or machine JSON/CSV; JSON and CSV are
byte-identical across runs for a fixed invocation and seed (class counts
travel as decimal strings, and timings are never serialized).

Exit codes: 0 success, 1 invalid input, failed verification or closed stdout,
2 budget refusal (the job was understood but is too large for the configured limits).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence

from . import bounds as bounds_mod
from . import verify
from .actions import parse_group_spec
from .budgets import Budgets, from_env
from .classcount import METHODS, count_by_method
from .errors import BudgetExceeded, Infeasible, WreathcountError
from .permgroup import (
    PermGroup,
    class_count,
    numeric_invariants,
    parse_generators,
    structure_classify,
)


class _UsageError(WreathcountError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; here 2 means budget refusal,
    # so usage problems are rerouted through an exception and become exit 1
    def error(self, message):
        raise _UsageError(message)


def _budget_limit(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(p: _Parser, with_group: bool = True, with_k: bool = True):
    if with_group:
        p.add_argument("--group", action="append", required=True,
                       help="group spec, e.g. cyclic:5 or gens:4,(1 2)(3 4); repeatable")
    if with_k:
        p.add_argument("--k", type=int, default=None,
                       help="number of classes of the base group X (k >= 1)")
        p.add_argument("--x-gens", default=None, metavar="CYCLES",
                       help="generators of X in cycle notation; only k(X) is used")
    p.add_argument("--output", choices=("table", "json", "csv"), default="table")
    p.add_argument("--budget-max-order", type=_budget_limit, default=None, metavar="N")
    p.add_argument("--budget-max-colorings", type=_budget_limit, default=None, metavar="N")
    p.add_argument("--budget-max-lift", type=_budget_limit, default=None, metavar="N")


def build_parser() -> _Parser:
    parser = _Parser(prog="wreathcount",
                     description="Exact conjugacy class counts for wreath products X wr H.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count classes of X wr H")
    _add_common(p)
    p.add_argument("--method", choices=METHODS, default="auto")

    p = sub.add_parser("classify", help="structural classification of H")
    _add_common(p, with_k=False)

    p = sub.add_parser("bounds", help="evaluate the bound and predicate reports for (H, k)")
    _add_common(p)

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("suite", choices=tuple(verify.SUITES))
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled formula checks")
    _add_common(p, with_group=False, with_k=False)

    p = sub.add_parser("scan", help="exact counts for the counterexample family")
    p.add_argument("--m", default="2,3", metavar="LIST",
                   help="comma-separated m values (default 2,3)")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--probe-fixed-subsets", action="store_true",
                   help="probe the fixed-subset fraction claim instead of counting")
    _add_common(p, with_group=False, with_k=False)

    return parser


def _budgets_from_args(args) -> Budgets:
    return from_env().with_overrides(
        max_group_order=args.budget_max_order,
        max_coloring_space=args.budget_max_colorings,
        max_lift_degree=args.budget_max_lift,
    )


def _resolve_k(args, budgets: Budgets) -> int:
    if getattr(args, "x_gens", None):
        if args.k is not None:
            raise _UsageError("--k and --x-gens are mutually exclusive")
        return class_count(PermGroup(parse_generators(args.x_gens), budgets=budgets))
    if args.k is None:
        raise _UsageError("--k (or --x-gens) is required")
    if args.k < 1:
        raise _UsageError("--k must be >= 1")
    return args.k


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False))


def _csv_line(fields: Sequence[str]) -> str:
    """One CSV record, quoting fields that embed commas (group specs do)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# count


def _cmd_count(args) -> int:
    budgets = _budgets_from_args(args)
    k = _resolve_k(args, budgets)
    groups = (parse_group_spec(spec, budgets) for spec in args.group)
    dicts = [count_by_method(g, k, args.method).to_json_dict() for g in groups]
    if args.output == "json":
        _emit_json(dicts[0] if len(dicts) == 1 else dicts)
    elif args.output == "csv":
        keys = ["group", "k", "degree", "method", "value", "orbit_count"]
        print(",".join(keys))
        for d in dicts:
            print(_csv_line(["" if d[key] is None else str(d[key]) for key in keys]))
    else:
        keys = ["group", "k", "method", "value"]
        print(_table([[str(d[key]) for key in keys] for d in dicts], keys))
    return 0


# ---------------------------------------------------------------------------
# classify


def _classify_one(spec: str, budgets: Budgets) -> dict:
    group = parse_group_spec(spec, budgets)
    report = structure_classify(group)
    out = {
        "group": group.spec_string(),
        "degree": group.degree,
        "order": group.order,
        "abelian": group.is_abelian(),
        "transitive": report.transitive,
        "semiregular": report.semiregular,
        "primitive": report.primitive,
        "semiprimitive": report.semiprimitive,
        "normal_subgroups": report.normal_subgroup_count,
    }
    if group.order > 1:
        inv = numeric_invariants(group)
        out.update(mu=inv.mu, base_size=inv.b, max_sigma=inv.max_sigma)
    return out


def _cmd_classify(args) -> int:
    budgets = _budgets_from_args(args)
    results = [_classify_one(spec, budgets) for spec in args.group]
    if args.output == "json":
        _emit_json(results[0] if len(results) == 1 else results)
    elif args.output == "csv":
        keys = ["group", "degree", "order", "abelian", "transitive", "semiregular",
                "primitive", "semiprimitive", "normal_subgroups", "mu", "base_size",
                "max_sigma"]
        print(",".join(keys))
        for r in results:
            print(_csv_line([_plain(r.get(key, "")) for key in keys]))
    else:
        for r in results:
            for key, val in r.items():
                print(f"{key}: {_plain(val)}")
    return 0


def _plain(val) -> str:
    if isinstance(val, bool):
        return "yes" if val else "no"
    return str(val)


# ---------------------------------------------------------------------------
# bounds


def _render_cell(x) -> str:
    if x is None:
        return "-"
    return repr(x) if isinstance(x, float) else bounds_mod.fraction_text(x)


def _cmd_bounds(args) -> int:
    budgets = _budgets_from_args(args)
    k = _resolve_k(args, budgets)
    groups = (parse_group_spec(spec, budgets) for spec in args.group)
    results = [(g.spec_string(), *bounds_mod.bounds_report(g, k))
               for g in groups]  # (spec, reports, semiprimitive report or None)
    if args.output == "json":
        dicts = [{"group": name, "k": k, "reports": [r.to_json_dict() for r in reports],
                  "semiprimitive": None if semi is None else semi.to_json_dict()}
                 for name, reports, semi in results]
        _emit_json(dicts[0] if len(dicts) == 1 else dicts)
    elif args.output == "csv":
        print("group,name,lhs,rhs,holds,mode,asymptotic")
        for name, reports, _ in results:
            for r in reports:
                print(_csv_line([name, r.name, _render_cell(r.lhs),
                                 _render_cell(r.rhs), str(r.holds).lower(), r.mode,
                                 str(r.asymptotic).lower()]))
    else:
        for name, reports, semi in results:
            print(f"group {name}  k={k}")
            rows = [[r.name, _render_cell(r.lhs), _render_cell(r.rhs),
                     str(r.holds).lower(), r.mode, r.note] for r in reports]
            print(_table(rows, ["name", "lhs", "rhs", "holds", "mode", "note"]))
            if semi is not None:
                print(f"semiprimitive decomposition: r={semi.r} kernel={semi.kernel_order} "
                      f"quotient={semi.quotient_order} "
                      f"kernel_semiregular={_plain(semi.kernel_semiregular)} "
                      f"cycle_bound={_plain(semi.cycle_bound_holds)} "
                      f"alpha_bound={_plain(semi.alpha_bound_holds)}")
                print(f"  chain: {semi.orbit_count} < {_render_cell(semi.chain_rhs)} "
                      f"({semi.chain_mode}) holds={str(semi.chain_holds).lower()}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    return verify.run_suite(args.suite, _budgets_from_args(args), args.seed)


# ---------------------------------------------------------------------------
# scan


def _parse_m_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _UsageError(f"bad --m list: {text!r}")
    if not values or any(v < 1 for v in values):
        raise _UsageError("--m needs positive integers")
    return values


def _cmd_scan(args) -> int:
    budgets = _budgets_from_args(args)
    k = _resolve_k(args, budgets)
    m_values = _parse_m_list(args.m)
    if args.probe_fixed_subsets:
        results = bounds_mod.fixed_subset_fraction_probe(m_values, budgets)
        if args.output == "json":
            _emit_json([{"m": m,
                         "clean": w is None,
                         "witness": None if w is None else {"parts": list(w[0]), "ell": w[1]}}
                        for m, w in results])
        elif args.output == "csv":
            print("m,clean,witness_parts,witness_ell")
            for m, w in results:
                parts, ell = ("", "") if w is None else ("+".join(map(str, w[0])), str(w[1]))
                print(_csv_line([str(m), str(w is None).lower(), parts, ell]))
        else:
            for m, w in results:
                print(f"m={m}: " + ("clean" if w is None
                                    else f"counterexample at cycle type {w[0]} ell={w[1]}"))
        return 0

    rows = bounds_mod.counterexample_scan(m_values, k, budgets)
    header = ["param", "k", "n", "order", "value", "bound", "holds", "mode"]
    fields = [[r.param, str(r.k), str(r.n), str(r.order), "" if r.value is None else str(r.value),
               r.bound, str(r.holds).lower(), r.mode] for r in rows]
    if args.output == "json":
        _emit_json([{"param": r.param, "k": r.k, "n": r.n, "order": r.order,
                     "value": None if r.value is None else str(r.value),
                     "bound": r.bound, "holds": r.holds, "mode": r.mode} for r in rows])
    elif args.output == "csv":
        print(",".join(header))
        for f in fields:
            print(_csv_line(f))
    else:  # a skipped row has no value
        print(_table([[c or "-" for c in f] for f in fields], header))
    return 0


# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values and --k may pass 4300 digits
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    dispatch = {
        "count": _cmd_count,
        "classify": _cmd_classify,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
    }
    try:
        code = dispatch[args.command](args)
        sys.stdout.flush()  # inside the try, so a closed pipe is caught here
        return code
    except BrokenPipeError:
        # the reader of stdout exited; point stdout at devnull so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        if isinstance(exc, Infeasible):
            print(f"bracket: {exc.lower} <= value < {exc.upper}", file=sys.stderr)
        return 2
    except (WreathcountError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
