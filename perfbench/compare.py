"""Compare a parent run and a change run of the benchmark.

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Each file holds the JSON lines `run.py --results` appended.  Records pair up
in file order within each workload; run at least ten pairs, alternating
which side runs first.  For every workload and end-to-end metric the
verdict is, with the bound from BENCHMARK.json:

* better: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
* worse: the change's median is worse than the parent's by more than the
  bound;
* unresolved: fewer than ten pairs, or the parent's own spread (IQR over
  median) is wider than the bound, unless every change run reads better
  than every parent run;
* unchanged: otherwise.

Counts from traced runs (`*.calls`, `kernels.integrate.steps`) are
compared for exact equality between records of the same workload and seed.
"""

import json
import statistics

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return f"unresolved ({n} pairs < {MIN_PAIRS})"
    parent, change = parent[:n], change[:n]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    if wins >= WIN_SHARE * n and abs(med_c - med_p) > iqr:
        return "better"
    if all(sign * (c - p) > 0 for p in parent for c in change):
        return "unchanged"
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "worse"
    if iqr > bound * abs(med_p):
        return "unresolved (spread wider than bound)"
    return "unchanged"


def _counts(record: dict) -> dict:
    return {k: v["value"] for k, v in record["metrics"].items()
            if k.endswith(".calls") or k == "kernels.integrate.steps"}


def main(parent_path: str, change_path: str, benchmark_path: str) -> int:
    with open(benchmark_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = _load(parent_path), _load(change_path)

    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == workload
                  and not r["trace"]]
        c_runs = [r for r in change if r["workload"] == workload
                  and not r["trace"]]
        if not p_runs and not c_runs:
            continue
        print(f"[{workload}] {min(len(p_runs), len(c_runs))} pairs")
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        if c_failed > p_failed:
            print(f"  change failed {c_failed} invocations against "
                  f"{p_failed}: no gain counts")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            medians = (f"{statistics.median(p):.6g} -> "
                       f"{statistics.median(c):.6g} {metric['unit']}"
                       if p and c else "")
            result = verdict(p, c, metric["better"], metric["bound"])
            print(f"  {name}: {result}  {medians}")

    traced = {}
    for side, records in (("parent", parent), ("change", change)):
        for r in records:
            if r["trace"]:
                traced.setdefault((r["workload"], r["seed"]), {})[side] = r
    for (workload, seed), sides in sorted(traced.items()):
        if len(sides) < 2:
            continue
        before, after = _counts(sides["parent"]), _counts(sides["change"])
        moved = {k: (before.get(k), after.get(k)) for k in before.keys()
                 | after.keys() if before.get(k) != after.get(k)}
        print(f"[{workload} seed {seed}] counts "
              + ("equal" if not moved else "differ:"))
        for k, (b, a) in sorted(moved.items()):
            print(f"  {k}: {b} -> {a}")
    return 0
