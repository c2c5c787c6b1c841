"""Record goldens.json: each op's exit code and stdout at the current commit.

Usage, from the root of a checkout: python3 perfbench/record_goldens.py

Run it only at a commit whose outputs are known to be right. An op that
exits nonzero (a budget refusal, say) is refused: a later change that made
it countable would then read as a failure, so drop such an op instead.
"""

import json
import sys

import harness
from workloads import WORKLOADS


def main() -> int:
    problem = harness.check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    harness.warm_up()
    ops = [op for ops in WORKLOADS.values() for op in ops]
    goldens = harness.record_goldens(ops)
    bad = [key for key, g in goldens.items() if g["exit"] != 0]
    if bad:
        print("error: ops exit nonzero, drop them: " + "; ".join(bad), file=sys.stderr)
        return 1
    doc = {"recorded_at": harness.machine()["commit"], "ops": goldens}
    harness.GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} goldens in {harness.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
