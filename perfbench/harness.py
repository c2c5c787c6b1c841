"""Run wreathcount CLI ops as fresh processes, check them, and reduce the timings.

One driver process runs the ops one at a time (a closed loop with one
client). Each op runs in its own process through op.py, which reports the
time spent inside `wreathcount.cli.main`; the driver measures the process's
wall time and reads its CPU time and peak RSS from `os.wait4`. Every op's exit
code and stdout are compared byte for byte with its golden.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracer
from workloads import op_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"

# seconds before a single op is killed and counted as failed; the slowest
# op takes about 5 s, and a run must end within 180 s
OP_TIMEOUT = 60.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

# about the fastest time of reference_s() on the 2-core Xeon this benchmark
# was built on; op times are scaled to the machine speed it stands for
REFERENCE_QUIET_S = 0.036


def reference_s() -> float:
    """Time a fixed pure-Python kernel: five BFS closures of S_7 on tuples.

    Other tenants of a shared machine slow every process on it by up to 2x,
    in phases from a second to several minutes long. Timing this kernel in
    the driver next to each op tells how fast the machine ran then.
    """
    gc.disable()  # collector pauses would add jitter unrelated to machine speed
    t0 = perf_counter()
    for _ in range(5):
        gens = [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]
        seen = {tuple(range(7))}
        frontier = list(seen)
        while frontier:
            fresh = []
            for b in frontier:
                for g in gens:
                    c = tuple(g[i] for i in b)
                    if c not in seen:
                        seen.add(c)
                        fresh.append(c)
            frontier = fresh
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


def check_checkout() -> str | None:
    """Why this directory cannot be benchmarked, or None when it can."""
    if not (SRC / "wreathcount" / "cli.py").is_file():
        return f"no wreathcount sources under {SRC}; run from a full checkout"
    return None


def child_env(hash_seed: int) -> dict[str, str]:
    # budgets must be the defaults the goldens were recorded with
    env = {k: v for k, v in os.environ.items() if not k.startswith("WREATHCOUNT_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def warm_up() -> None:
    """Import the package once untimed, so bytecode caches exist before timing."""
    subprocess.run([sys.executable, "-c", "import wreathcount.cli"], env=child_env(0),
                   cwd=ROOT, check=True, timeout=OP_TIMEOUT)


def _drain(proc: subprocess.Popen, fds: list[int], deadline: float) -> dict[int, bytes]:
    """Read the given pipes to EOF; kill the op once the deadline passes."""
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - perf_counter()
            if left <= 0:
                proc.kill()
                deadline = float("inf")
                continue
            for key, _ in sel.select(min(left, 1.0)):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks[key.fd].append(chunk)
                else:
                    sel.unregister(key.fd)
    return {fd: b"".join(parts) for fd, parts in chunks.items()}


def run_op(op: list[str], op_id: int, trace: bool, hash_seed: int) -> dict:
    """Run one op in a fresh process; returns its exit code, output and timings."""
    side_r, side_w = os.pipe()
    cmd = [sys.executable, str(HERE / "op.py"), str(side_w), "1" if trace else "0",
           str(op_id), *op]
    t0 = perf_counter()
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                pass_fds=(side_w,), env=child_env(hash_seed), cwd=ROOT)
    except BaseException:
        os.close(side_r)
        raise
    finally:
        os.close(side_w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    try:
        data = _drain(proc, [out_fd, err_fd, side_r], t0 + OP_TIMEOUT)
    finally:
        os.close(side_r)
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = perf_counter() - t0
    try:
        record = json.loads(data[side_r])
    except ValueError:
        record = None  # the op died before reporting
    return {
        "op": op_id,
        "trace": trace,
        "exit": proc.returncode,
        "stdout": data[out_fd],
        "stderr": data[err_fd],
        "record": record,
        "wall": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    }


def load_goldens() -> dict[str, dict]:
    return json.loads(GOLDENS.read_text())["ops"]


def record_goldens(ops: list[list[str]]) -> dict[str, dict]:
    """Exit code and stdout of each op, from one untraced run."""
    goldens = {}
    for i, op in enumerate(ops):
        s = run_op(op, i, trace=False, hash_seed=0)
        goldens[op_key(op)] = {"exit": s["exit"], "stdout": s["stdout"].decode()}
    return goldens


def check(sample: dict, golden: dict | None) -> str | None:
    """Why a sample fails its golden, or None when it matches."""
    if golden is None:
        return "no golden recorded"
    if sample["exit"] != golden["exit"]:
        return f"exit {sample['exit']}, golden {golden['exit']}: {sample['stderr'][-300:]!r}"
    if sample["stdout"] != golden["stdout"].encode():
        return "stdout differs from golden"
    if sample["record"] is None:
        return "no timing record"
    return None


def _per_op(samples: dict[int, list[dict]], value, reduce=statistics.median) -> list[float]:
    return [reduce(value(s) for s in ss) for ss in samples.values() if ss]


def _main_s(sample: dict) -> float:
    return sample["record"]["main_s"]


def _scaled_main_s(sample: dict) -> float:
    return sample["record"]["main_s"] * sample["speed"]


def end_to_end(good: dict[int, list[dict]]) -> dict[str, float]:
    """The end-to-end metrics of one run: sums over ops of per-op medians.

    The op times, wall_s and cpu_s, are scaled by each sample's `speed`, so
    they read as the times on the machine at its quiet speed. Set-up time
    and peak RSS are as measured. Peak RSS is the largest per-op median.
    """
    return {
        "wall_s": sum(_per_op(good, _scaled_main_s)),
        "setup_s": sum(_per_op(good, lambda s: s["wall"] - _main_s(s))),
        "cpu_s": sum(_per_op(good, lambda s: s["cpu_s"] * s["speed"])),
        "peak_rss_mb": max(_per_op(good, lambda s: s["rss_mb"]), default=0.0),
    }


def per_layer(good: dict[int, list[dict]],
              traced: dict[int, list[dict]]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, and the span totals they come from.

    Each span total is the per-op median over traced samples, summed over ops
    (peak fractions take the largest op instead).
    """
    combined: dict[str, float] = {}
    for ss in traced.values():
        if not ss:
            continue
        per_sample = [tracer.op_totals(s["record"]["spans"]) for s in ss]
        for key in set().union(*per_sample):
            value = statistics.median(t.get(key, 0) for t in per_sample)
            if key.endswith("_frac"):
                combined[key] = max(combined.get(key, 0.0), value)
            else:
                combined[key] = combined.get(key, 0) + value
    both = {i: good.get(i, []) + traced.get(i, []) for i in set(good) | set(traced)}
    import_s = sum(_per_op(both, lambda s: s["record"]["import_s"]))
    untraced = sum(_per_op(good, _scaled_main_s))
    overhead = sum(_per_op(traced, _scaled_main_s)) / untraced - 1.0 if untraced else 0.0
    return tracer.layer_metrics(combined, import_s, overhead), combined


def run_workload(ops: list[list[str]], goldens: dict[str, dict], seed: int,
                 seconds: float, trace: bool) -> dict:
    """Run the ops over and over, in orders drawn from the seed, for about `seconds`.

    Ops run in passes, each pass in a fresh shuffled order. The first pass
    always completes. After it, the next op starts only if its last time says
    it will end within `seconds`. A traced run times each op untraced and then
    traced, back to back, so the tracing overhead compares neighbouring runs.

    reference_s() runs before the first op and after each op. A sample's
    `speed` is REFERENCE_QUIET_S over the mean of the two around it: below 1
    when the machine ran slow.
    """
    rng = random.Random(seed)
    good: dict[int, list[dict]] = {i: [] for i in range(len(ops))}
    traced: dict[int, list[dict]] = {i: [] for i in range(len(ops))}
    last_wall: dict[int, float] = {}
    failures: list[str] = []
    missing: set[str] = set()
    attempted = passes = 0
    queue: list[int] = []
    start = perf_counter()
    ref_before = reference_s()
    refs = [ref_before]
    while True:
        if not queue:
            queue = list(range(len(ops)))
            rng.shuffle(queue)
            passes += 1
        i = queue[0]
        if passes > 1 and perf_counter() - start + last_wall[i] > seconds:
            break
        queue.pop(0)
        last_wall[i] = 0.0
        for tr in ((False, True) if trace else (False,)):
            sample = run_op(ops[i], i, tr, rng.randrange(1 << 32))
            ref_after = reference_s()
            refs.append(ref_after)
            sample["speed"] = REFERENCE_QUIET_S / ((ref_before + ref_after) / 2)
            ref_before = ref_after
            attempted += 1
            last_wall[i] += sample["wall"] + ref_after
            why = check(sample, goldens.get(op_key(ops[i])))
            if why is not None:
                failures.append(f"{op_key(ops[i])}{' [traced]' if tr else ''}: {why}")
                continue
            (traced if tr else good)[i].append(sample)
            missing.update(sample["record"]["missing"])
    result = {"ops": ops, "passes": passes, "attempted": attempted, "failures": failures,
              "good": good, "missing": sorted(missing), "reference_s": statistics.median(refs)}
    if trace:
        result["metrics"], result["spans"] = per_layer(good, traced)
        result["units"] = tracer.LAYER_UNITS
    else:
        result["metrics"] = end_to_end(good)
        result["units"] = END_TO_END_UNITS
    return result


def machine() -> dict:
    """What a result must be compared within: the machine and the code measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy, "commit": commit, "load1_before": os.getloadavg()[0]}


def emit(result: dict, info: dict, out=sys.stdout) -> int:
    """Print the machine record, a readable summary and the final JSON line.

    Returns the exit code: 0 when every op matched its golden, else 1.
    """
    info = dict(info, load1_after=os.getloadavg()[0])
    failed = len(result["failures"])
    attempted = result["attempted"]
    print(json.dumps({"machine": info}), file=out)
    print(f"passes begun: {result['passes']}  ops attempted: {attempted}  failed: {failed}  "
          f"fail_frac: {failed / attempted:.4f} ratio  reference kernel: median "
          f"{result['reference_s']:.4f} s, quiet {REFERENCE_QUIET_S} s", file=out)
    for i, ss in result["good"].items():
        if ss:
            print(f"  op {i}: in cli.main median {statistics.median(map(_main_s, ss)):8.4f} s, "
                  f"scaled {statistics.median(map(_scaled_main_s, ss)):8.4f} s (n={len(ss)})  "
                  f"{op_key(result['ops'][i])}", file=out)
    if "spans" in result:
        t = result["spans"]
        total = t.get("incl:" + tracer.ROOT, 0) or 1.0
        names = sorted({k.split(":", 1)[1] for k in t if k.startswith("self:")},
                       key=lambda n: -t["self:" + n])
        print(f"  {'span':44} {'self_s':>9} {'incl_s':>9} {'calls':>8} {'self%':>6}", file=out)
        for n in names:
            print(f"  {n:44} {t['self:' + n]:9.4f} {t.get('incl:' + n, 0):9.4f} "
                  f"{int(t['calls:' + n]):8d} {100 * t['self:' + n] / total:6.1f}", file=out)
    for name in result["missing"]:
        print(f"warning: traced function for span {name} not found", file=sys.stderr)
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in result["units"].items()}
    for name, m in metrics.items():
        print(f"  {name:48} {m['value']:.6g} {m['unit']}", file=out)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), file=out)
    return 0 if failed == 0 else 1
