#!/usr/bin/env python3
"""eitsim benchmark: per-command latency of the `eitsim` CLI.

    python3 perfbench/run.py --workload evolve-pumping --seed 1 --seconds 25
    python3 perfbench/run.py --workload all            # all three, one process
    python3 perfbench/run.py --workload sweep-full --trace 1   # per-layer
    python3 perfbench/run.py --compare parent.jsonl change.jsonl
    python3 perfbench/run.py --record-references

Each workload is a closed loop with one client: every `eitsim <command>`
runs as a fresh `python -m eitsim` process, import included, and the next
starts only after the last has exited.  Run from the repository root; the
program is copied from `src/eitsim` into `perfbench/_work` and run from
there.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "eitsim")
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(HERE, "_work")
LAUNCHER = os.path.join(HERE, "launcher.py")
DEFAULT_RESULTS = os.path.join(WORK, "results.jsonl")

SETUP_REPEATS = 3
INVOCATION_TIMEOUT_S = 120.0
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
# Cycles per 25 s of --seconds.  A pass runs a fixed number of whole cycles,
# so every run of a workload holds the same number of samples (16, 40 and
# 133 at 25 s): the tail percentile cannot jump between runs, and the
# parent and a change do the same work.  On a shared 2-vCPU Xeon VM these
# runs last 25-35 s.
CYCLES_PER_25S = {"evolve-pumping": 2, "sweep-full": 8, "cli-short": 19}

END_TO_END = (
    ("latency_p50_s", "s"), ("latency_tail_s", "s"),
    ("invocations_per_s", "1/s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclass
class Record:
    inv: workloads.Invocation
    out_dir: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit: int
    spans_path: str = None


def spawn(inv, env, out_dir, spans_path=None) -> Record:
    """Run one invocation to completion and return its resource use."""
    os.makedirs(out_dir, exist_ok=True)
    if spans_path is None:
        argv = [sys.executable, "-m", "eitsim"]
    else:
        argv = [sys.executable, LAUNCHER, spans_path, "--"]
    argv += inv.argv() + ["--out", out_dir]
    with open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=out_dir,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Record(inv, out_dir, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss, proc.returncode, spans_path)


def build(tag) -> dict:
    """Copy the program into a fresh directory with empty bytecode and
    cache directories; return the environment that runs it."""
    base = os.path.join(WORK, f"build-{tag}")
    shutil.rmtree(base, ignore_errors=True)
    shutil.copytree(SOURCE, os.path.join(base, "eitsim"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    home = os.path.join(base, "home")
    os.makedirs(home)
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=base, HOME=home, XDG_CACHE_HOME=home,
               NUMBA_CACHE_DIR=os.path.join(home, "numba"))
    return env


def environment() -> dict:
    import numpy
    import scipy
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from eitsim import kernels
        active = kernels.ACTIVE_KERNELS
    finally:
        sys.path.pop(0)
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": numba_ok,
        "active_kernels": active,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(CYCLES_PER_25S[workload] * seconds / 25.0))


def run_cycles(cycle, env, cycles, out_root, traced=False) -> tuple:
    """Repeat the cycle `cycles` times as a closed loop; with `traced`,
    every invocation runs untraced and then traced, back to back, so the
    pairs see the same machine load.  Returns (records, wall seconds)."""
    records = []
    started = time.perf_counter()
    for _ in range(cycles):
        for inv in cycle:
            for with_spans in ((False, True) if traced else (False,)):
                out = os.path.join(out_root, f"{len(records):04d}")
                spans_path = (os.path.join(out, "spans.json") if with_spans
                              else None)
                records.append(spawn(inv, env, out, spans_path))
    return records, time.perf_counter() - started


def tail(latencies) -> tuple:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it (nearest rank), or the median when none
    has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def end_to_end(records, wall, setups) -> tuple:
    lat = [r.wall_s for r in records]
    pct, tail_s = tail(lat)
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_s,
        "invocations_per_s": len(records) / wall,
        "cpu_s": statistics.median(r.cpu_s for r in records),
        "peak_rss_mb": max(r.maxrss_kb for r in records) / 1024.0,
        "setup_s": statistics.median(setups),
    }
    extra = {"latency_samples": len(lat), "tail_percentile": pct,
             "latencies_s": lat}
    return metrics, extra


def layer_pass(records, cycle_len) -> tuple:
    """Per-layer metrics per traced cycle.  Counts of calls, steps and
    computed work must repeat exactly, so they come from the first cycle;
    times and bytes written (the summaries carry their own duration) are
    medians over cycles."""
    per_cycle = []
    for start in range(0, len(records), cycle_len):
        lists = []
        for rec in records[start:start + cycle_len]:
            with open(rec.spans_path, encoding="utf-8") as fh:
                lists.append(json.load(fh))
        per_cycle.append(spans.pass_metrics(lists))
    metrics = {}
    repeat = True
    for name, unit in spans.PER_LAYER + spans.LAYER_TIMES:
        if name == "trace.overhead_p50_s":
            continue
        values = [m[name] for m in per_cycle]
        if unit in ("count", "flop"):
            metrics[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
        else:
            metrics[name] = statistics.median(values)
    return metrics, repeat


class Checker:
    """Expected outputs for one workload and seed: the oracle for every
    seed, plus this commit's stored outputs when the seed has them."""

    def __init__(self, cycle, seed):
        import check
        import oracle
        self._check = check
        stored = check.load_references(ROOT, seed)
        self.expected = {}
        for inv in cycle:
            key = inv.key()
            if key in self.expected:
                continue
            wants = [("oracle", oracle.expected(inv))]
            if stored:
                wants.append(("reference", stored.get(key)))
            self.expected[key] = wants
        self.worst = 0.0
        self.failures = []

    def __call__(self, rec: Record) -> bool:
        check = self._check
        seen = check.observe(rec.out_dir, rec.inv.command, rec.exit)
        for source, want in self.expected[rec.inv.key()]:
            if want is None:
                ok, worst, why = False, math.inf, "no stored reference"
            else:
                ok, worst, why = check.compare(rec.inv, want, seen)
            self.worst = max(self.worst, worst)
            if not ok:
                self.failures.append(f"{rec.inv.key()}: {source}: {why}")
                return False
        return True


def measure(name, seed, seconds, trace) -> dict:
    """Run one workload's passes and keep the raw records.

    Nothing here imports numpy: a child's ru_maxrss starts from the RSS of
    the process that forked it, so the benchmark stays small until every
    child has run.
    """
    cycle = workloads.cycle(name, seed)
    root = os.path.join(WORK, name)
    shutil.rmtree(root, ignore_errors=True)
    m = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
         "started_unix": time.time(), "cycle": cycle}
    if not trace:
        # Set-up: copy the program and run the cycle's first invocation
        # with empty bytecode and JIT caches, several times.
        m["setup"], m["setup_s"] = [], []
        for i in range(SETUP_REPEATS):
            begun = time.perf_counter()
            env = build(i)
            m["setup"].append(spawn(cycle[0], env,
                                    os.path.join(root, f"setup-{i}")))
            m["setup_s"].append(time.perf_counter() - begun)
        m["cycles"] = cycles_for(name, seconds)
        m["timed"], m["wall_s"] = run_cycles(cycle, env, m["cycles"],
                                             os.path.join(root, "timed"))
    else:
        env = build(0)
        m["setup"] = [spawn(cycle[0], env, os.path.join(root, "setup-0"))]
        m["cycles"] = cycles_for(name, seconds / 2)
        records, _ = run_cycles(cycle, env, m["cycles"],
                                os.path.join(root, "paired"), traced=True)
        m["untraced"], m["traced"] = records[0::2], records[1::2]
    return m


def evaluate(m) -> dict:
    """Check every output of a measured workload and compute its metrics."""
    cycle = m["cycle"]
    checker = Checker(cycle, m["seed"])
    runs = [r for key in ("setup", "timed", "untraced", "traced")
            for r in m.get(key, ())]
    failed = sum(not checker(rec) for rec in runs)
    if not m["trace"]:
        metrics, extra = end_to_end(m["timed"], m["wall_s"], m["setup_s"])
        units = dict(END_TO_END)
        extra["setup_samples_s"] = m["setup_s"]
    else:
        metrics, repeat = layer_pass(m["traced"], len(cycle))
        metrics["trace.overhead_p50_s"] = statistics.median(
            t.wall_s - u.wall_s for u, t in zip(m["untraced"], m["traced"]))
        units = dict(spans.PER_LAYER)
        extra = {"counts_repeat": repeat,
                 "traced_invocations": len(m["traced"]),
                 "layer_times": {k: {"value": metrics.pop(k), "unit": u}
                                 for k, u in spans.LAYER_TIMES}}
    extra.update(cycles=m["cycles"], cycle_len=len(cycle),
                 failed_ratio=failed / len(runs),
                 worst_deviation=checker.worst,
                 failures=checker.failures[:20])
    return {
        "workload": m["workload"], "seed": m["seed"], "trace": m["trace"],
        "seconds": m["seconds"], "started_unix": m["started_unix"],
        "cycle": [inv.as_dict() for inv in cycle],
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "diagnostics": extra,
    }


def record_references() -> int:
    """Store this commit's outputs for the default and held-out seeds."""
    import gzip

    import check
    import oracle
    env = build(0)
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        stored = {}
        for name in workloads.WORKLOADS:
            for inv in workloads.cycle(name, seed):
                if inv.key() in stored:
                    continue
                rec = spawn(inv, env, os.path.join(WORK, "record",
                                                   str(len(stored))))
                seen = check.observe(rec.out_dir, inv.command, rec.exit)
                ok, worst, why = check.compare(inv, oracle.expected(inv), seen)
                if not ok:
                    print(f"refusing to store {inv.key()}: {why}",
                          file=sys.stderr)
                    return 1
                stored[inv.key()] = check.dump_reference(inv, seen)
                print(f"seed {seed}: {inv.key()} (oracle {worst:.2g})")
        with gzip.open(check.reference_path(ROOT, seed), "wt",
                       encoding="utf-8") as fh:
            json.dump(stored, fh, sort_keys=True)
    return 0


def report(result) -> None:
    diag = result["diagnostics"]
    print(f"[{result['workload']}] seed {result['seed']}, "
          f"{diag['cycles']} cycle(s) of {diag['cycle_len']} invocations, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name, m in {**result["metrics"],
                    **diag.get("layer_times", {})}.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio = {diag['failed_ratio']:.6g} ratio")
    if "tail_percentile" in diag:
        print(f"  latency_tail_s is p{diag['tail_percentile']} of "
              f"{diag['latency_samples']} samples")
    print(f"  worst output deviation = {diag['worst_deviation']:.3g} "
          "of its tolerance")
    for line in diag["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=DEFAULT_RESULTS,
                        help="JSON-lines file each run appends to")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two results files and exit")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1],
                            os.path.join(ROOT, "BENCHMARK.json"))
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"eitsim sources not found under {SOURCE}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.record_references:
        return record_references()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    measured = [measure(name, args.seed, args.seconds, args.trace)
                for name in names]
    env_record = environment()
    results = []
    for m in measured:
        result = evaluate(m)
        result["environment"] = env_record
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")
        report(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
