"""A/B comparison of two result sets written by ``run.py --record``.

    python3 perfbench/ab.py PARENT.jsonl CHANGE.jsonl

For every workload and end-to-end metric it prints each side's median and
quartiles, the pairwise wins of the change (runs paired by seed, ties
counting for neither side) and a verdict:

- improved: at least ten pairs, the change wins at least nine tenths of
  them, and the medians differ by more than the parent's own spread (the
  distance between its quartiles);
- unresolved: the parent's spread is wider than the metric's bound and not
  every run of the change reads better than every run of the parent, or a
  gain is indicated by fewer than ten pairs;
- regressed: the change's median is worse than the parent's by more than
  the bound in ``BENCHMARK.json``;
- unchanged: otherwise.

Traced records (``--trace 1``) are listed per layer, medians only.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> metric values of that run."""
    runs: dict[tuple[str, int], dict[int, dict]] = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            values = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
            runs[(rec["workload"], rec["trace"])][rec["seed"]] = values
    return runs


def spread(values) -> tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float):
    """Verdict and pairwise wins of ``change`` over ``parent`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    p_med, p_q1, p_q3 = spread(list(parent.values()))
    c_med = statistics.median(change.values())
    gain = sign * (c_med - p_med)
    if wins >= WIN_SHARE * len(seeds) and gain > p_q3 - p_q1 and gain > 0:
        return ("improved" if len(seeds) >= MIN_PAIRS else "unresolved"), wins, len(seeds)
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in parent.values())
    if (p_q3 - p_q1) > bound * abs(p_med) and not all_better:
        return "unresolved", wins, len(seeds)
    if -gain > bound * abs(p_med):
        return "regressed", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def compare(parent_path, change_path, manifest=MANIFEST) -> list[dict]:
    spec = json.loads(Path(manifest).read_text())
    parent, change = load_records(parent_path), load_records(change_path)
    rows = []
    for wl in spec["workloads"]:
        name = wl["name"]
        p_runs, c_runs = parent.get((name, 0), {}), change.get((name, 0), {})
        if not p_runs or not c_runs:
            print(f"{name}: no end-to-end runs on both sides")
            continue
        for metric in spec["end_to_end"]:
            m = metric["name"]
            p = {s: v[m] for s, v in p_runs.items()}
            c = {s: v[m] for s, v in c_runs.items()}
            result, wins, pairs = verdict(p, c, metric["better"], metric["bound"])
            rows.append({"workload": name, "metric": m, "unit": metric["unit"],
                         "parent": spread(list(p.values())), "change": spread(list(c.values())),
                         "wins": wins, "pairs": pairs, "verdict": result})
    return rows


def print_report(parent_path, change_path, manifest=MANIFEST):
    rows = compare(parent_path, change_path, manifest)
    print(f"{'workload':<18} {'metric':<14} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>7}  verdict")
    for r in rows:
        p = "{:.5g} [{:.5g}, {:.5g}]".format(*r["parent"])
        c = "{:.5g} [{:.5g}, {:.5g}]".format(*r["change"])
        print(f"{r['workload']:<18} {r['metric']:<14} {p:>32} {c:>32} "
              f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    parent, change = load_records(parent_path), load_records(change_path)
    for (name, trace), p_runs in sorted(parent.items()):
        c_runs = change.get((name, trace))
        if trace != 1 or not c_runs:
            continue
        print(f"\nlayers of {name} (median of {len(p_runs)} parent / {len(c_runs)} change runs)")
        for metric in next(iter(p_runs.values())):
            p = statistics.median(v[metric] for v in p_runs.values())
            c = statistics.median(v[metric] for v in c_runs.values())
            print(f"  {metric:<38} {p:>14.6g} {c:>14.6g}")
    return rows


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    print_report(sys.argv[1], sys.argv[2])
