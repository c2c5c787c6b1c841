"""Benchmark entry point: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count-clifford --seed 1 --seconds 40 --trace 0

With --trace 0 it reports the end-to-end metrics (wall_s, setup_s, cpu_s,
peak_rss_mb) from untraced runs; with --trace 1 the per-layer metrics of a
traced run. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 means every op matched its golden,
1 that some op failed, 2 that this is not a checkout it can run in.
"""

import argparse
import os
import sys

import harness
from workloads import WORKLOADS


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="sets the op order of each pass and each op's hash seed")
    p.add_argument("--seconds", type=float, required=True, help="target length of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    problem = harness.check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # the ops and the speed reference between them share one core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    harness.warm_up()
    info = harness.machine()
    result = harness.run_workload(WORKLOADS[args.workload], harness.load_goldens(),
                                  args.seed, args.seconds, bool(args.trace))
    return harness.emit(result, dict(info, workload=args.workload, seed=args.seed))


if __name__ == "__main__":
    sys.exit(main())
