"""Repeat ``run.py`` over seeds and report each end-to-end metric's spread.

    python3 perfbench/sweep.py --runs 10 --out DIR [--workloads a,b] [--trace 0|1]
                               [--seed-base N] [--parent CHECKOUT]

Runs one benchmark process at a time and appends every record to
``DIR/change.jsonl``.  For each workload and end-to-end metric it prints
the median of the runs, the distance between the first and third quartile
as a share of the median, and that share against a third of the metric's
bound in ``BENCHMARK.json``.

With ``--parent`` the same benchmark code also measures the package of
another checkout (``run.py --program-root``) into ``DIR/parent.jsonl``.
The two sides of one workload and seed run back to back, alternating which
runs first from seed to seed, and the sweep ends with the ``ab.py`` report
of parent against change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import ab

HERE = Path(__file__).resolve().parent


def main(argv=None):
    spec = json.loads(ab.MANIFEST.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    args = p.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    sides = [("change", None)] + ([("parent", args.parent)] if args.parent else [])
    for i in range(args.runs):
        seed = args.seed_base + i
        for wl in args.workloads.split(","):
            for name, root in (sides if i % 2 == 0 else sides[::-1]):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--record", str(args.out / f"{name}.jsonl")]
                if root is not None:
                    cmd += ["--program-root", str(root)]
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
                print(f"{name} seed {seed} {wl}: exit {done.returncode} {last[:160]}", flush=True)
                if done.returncode != 0 or '"correct": true' not in last:
                    print(done.stderr[-2000:], file=sys.stderr)

    if args.trace:
        return
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, _ in sides:
        runs = ab.load_records(args.out / f"{name}.jsonl")
        print(f"\n{name}: median, (q3 - q1) / median, and that share / (bound / 3)")
        for wl in args.workloads.split(","):
            values = runs.get((wl, 0), {})
            for metric, bound in bounds.items():
                series = [v[metric] for v in values.values()]
                if not series:
                    continue
                med, q1, q3 = ab.spread(series)
                share = (q3 - q1) / abs(med) if med else 0.0
                print(f"  {wl:<18} {metric:<14} {med:>12.6g}  {share:8.4f}  "
                      f"{share / (bound / 3):6.2f}  ({len(series)} runs)")
    if args.parent:
        print()
        ab.print_report(args.out / "parent.jsonl", args.out / "change.jsonl")


if __name__ == "__main__":
    main()
