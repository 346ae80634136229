"""Benchmark of the ``mfdma`` command line over three fixed synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the real CLI end to end: a closed loop with one client,
one fresh ``python -m mfdma`` process at a time, each started after the
previous one exited.  Every invocation's outputs are checked, and their
bytes must match those of the first invocation of the run.

``--trace 1`` runs the CLI's entry point in this process with a span around
each call into a layer (see ``tracing.py``), checks that it writes the same
bytes as the untraced CLI, and reports per-layer time and counts.  Spans go
to ``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, and the environment.  ``--record FILE``
appends the full record (result, environment, raw samples) to FILE as one
JSON line, which is what ``sweep.py`` and ``ab.py`` read.
``--program-root DIR`` measures the package under ``DIR/src`` with this
benchmark's code, which is how a parent commit is measured for an A/B
comparison.  ``--smoke`` runs the same code on tiny inputs.

On a shared 2-vCPU virtual machine, each virtual CPU was seen to run in
one of two states, switching every few seconds to minutes, independently
per CPU; in the slow one, interpreted Python takes about 1.8x as long and
numpy array passes about 1.3x.  Raw wall times of ten runs there spread by
a quarter of their median.  So the benchmark and its children are pinned
to one CPU, and every timed CLI invocation and set-up is bracketed by a
fixed probe kernel that needs nothing from the package (``HostSpeed``).
``wall_s`` and ``setup_s`` are in reference seconds: the time the call
would take with the CPU in its fast state, in which the probe takes
``REF_PROBE_S``.  A measured time t with probes p1, p2 becomes
t * (REF_PROBE_S / mean(p1, p2)) ** SPEED_EXPONENT: the CLI's work follows
the probe between the two states with that exponent.  In the fast state
the scaling is 1 whatever the exponent.  Raw wall times and the probes are
kept in the record.  Pinned to one CPU, OpenBLAS runs one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
# the probe's time in the fast state of the 2-vCPU VM above (Python 3.11,
# numpy 2.4); reference seconds are seconds on a CPU this fast
REF_PROBE_S = 0.060
# Slope of log wall time on log probe time, one intercept per workload, over
# 75 invocations of the three workloads in both CPU states on that machine
# whose two probes agreed within 10%; each workload alone gave 0.71 to 0.75.
SPEED_EXPONENT = 0.72

# name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower"),
    "values_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
}

# set-up is repeated at least SETUP_MIN_REPEATS times and, while cheap, until
# SETUP_MIN_S seconds are spent, so that setup_s is a median of several
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
UNTRACED_RUNS = 3  # CLI invocations a traced run compares its output with
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 150.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--record", type=Path, help="append the full record to this JSON-lines file")
    p.add_argument("--program-root", type=Path, default=ROOT,
                   help="checkout whose src/mfdma is measured (default: this one)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(program_root: Path, seed: int) -> dict:
    import numpy

    return {
        "nproc": NPROC,
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(program_root),
        "seed": seed,
        "load": " ".join(f"{x:.2f}" for x in os.getloadavg()),
    }


class HostSpeed:
    """A fixed kernel of float parsing and array passes, like the CLI's work.

    It uses only numpy and Python, so a change to the package cannot move
    it.  ``timed`` calls a function between two probes.
    """

    ROUNDS = 44

    def __init__(self):
        import numpy as np

        self.x = np.random.default_rng(12345).standard_normal(2**15)
        self.text = [repr(v) for v in self.x[:3000].tolist()]

    def probe(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for _ in range(self.ROUNDS):
            np.array([float(t) for t in self.text])
            c = np.cumsum(self.x)
            (c[64:] - c[:-64]).sum()
            np.sort(self.x)
        return time.perf_counter() - start

    def timed(self, fn, *args):
        """Result, raw wall seconds and the probe times before and after."""
        before = self.probe()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        return result, wall, (before, self.probe())


def reference_seconds(wall: float, probes: tuple[float, float]) -> float:
    return wall * (REF_PROBE_S * 2 / sum(probes)) ** SPEED_EXPONENT


class Cli:
    """Runs ``python -m mfdma`` in a fresh process, one at a time."""

    def __init__(self, program_src: Path, cwd: Path):
        self.env = dict(os.environ, PYTHONPATH=str(program_src))
        self.cwd = cwd

    def run(self, args: list[str]) -> tuple[float, int, str]:
        """Peak RSS in MB, exit code and stderr tail."""
        with tempfile.TemporaryFile(dir=self.cwd) as err:
            proc = subprocess.Popen([sys.executable, "-m", "mfdma", *args], cwd=self.cwd,
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-2000:].decode(errors="replace").strip()
        # ru_maxrss is in KiB on Linux
        return usage.ru_maxrss * 1024 / 1e6, proc.returncode, tail


def checked_invocation(cli, speed, wl, inputs, out, reference, log):
    """One CLI invocation and its checks.

    Returns raw wall seconds, the probe times around it, peak RSS and the
    output digest, or None for it if the invocation failed.
    """
    from workloads import tree_digest

    shutil.rmtree(out, ignore_errors=True)
    (rss, code, err), wall, probes = speed.timed(cli.run, wl.argv(inputs, out))
    if code != 0:
        problems = [f"exit code {code}: {err}"]
    else:
        try:
            problems = wl.check(inputs, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    digest = None
    if not problems:
        digest = tree_digest(out)
        if reference is not None and digest != reference:
            problems.append("result bytes differ from the run's first invocation")
            digest = None
    for problem in problems:
        log(f"FAILED CHECK [{wl.name}]: {problem}")
    return wall, probes, rss, digest


def timed_setups(wl, work, args, speed):
    """Write the inputs once for a traced run, else several times.

    Returns the inputs, the raw times and the probe times around each.
    """
    raw, probes = [], []
    while True:
        inputs, wall, around = speed.timed(wl.make_inputs, work, args.seed, args.smoke)
        raw.append(wall)
        probes.append(around)
        enough = len(raw) >= SETUP_MIN_REPEATS and sum(raw) >= SETUP_MIN_S
        if args.trace or enough or len(raw) >= SETUP_MAX_REPEATS:
            return inputs, raw, probes


def run_end_to_end(wl, inputs, cli, speed, out, seconds, log):
    """Timed invocations for ``seconds``; the first one's bytes are the reference."""
    samples = {"wall_s": [], "raw_wall_s": [], "probe_s": [], "peak_rss_mb": []}
    reference = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        wall, probes, rss, digest = checked_invocation(
            cli, speed, wl, inputs, out, reference, log)
        attempted += 1
        if digest is None:
            failed += 1
        reference = reference or digest
        samples["wall_s"].append(reference_seconds(wall, probes))
        samples["raw_wall_s"].append(wall)
        samples["probe_s"].append(probes)
        samples["peak_rss_mb"].append(rss)
        if time.perf_counter() + wall > deadline:
            break
    wall = statistics.median(samples["wall_s"])
    metrics = {
        "wall_s": wall,
        "values_per_s": inputs.values * wl.passes / wall,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed, samples


def import_seconds(cli) -> list[float]:
    code = "import time; t = time.perf_counter(); import mfdma.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=cli.cwd, env=cli.env,
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(out.stdout))
    return times


def run_traced(wl, inputs, cli, speed, out, seconds, trace_path, log):
    """Untraced CLI reference, then the CLI in this process under spans for ``seconds``."""
    from mfdma.cli import main as cli_main
    from tracing import Tracer, hooked, layer_metrics, median_metrics
    from workloads import tree_digest

    reference = None
    attempted = failed = 0
    cli_walls = []
    for _ in range(UNTRACED_RUNS):
        wall, _, _, digest = checked_invocation(cli, speed, wl, inputs, out, reference, log)
        attempted += 1
        failed += digest is None
        reference = reference or digest
        cli_walls.append(wall)
    imports = import_seconds(cli)

    tracer = Tracer()
    per_run, traced_walls = [], []
    traced_out = out.parent / "traced"
    with hooked(tracer) as missing:
        for name in missing:
            log(f"NOTE [{wl.name}]: {name} not found; its layer reads 0")
        deadline = time.perf_counter() + seconds
        while True:
            shutil.rmtree(traced_out, ignore_errors=True)
            first_span = len(tracer.spans)
            with tracer.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(wl.argv(inputs, traced_out))
            metrics, wall = layer_metrics(tracer.spans[first_span:])
            per_run.append(metrics)
            traced_walls.append(wall)
            tracer.trace += 1
            attempted += 1
            if code != 0 or reference is None or tree_digest(traced_out) != reference:
                failed += 1
                log(f"FAILED CHECK [{wl.name}]: traced run exited {code} or its output "
                    "differs from the untraced CLI's")
            if time.perf_counter() + wall > deadline:
                break
    tracer.write(trace_path)

    metrics = median_metrics(per_run)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) + metrics["cli.import_s"] - statistics.median(cli_walls)
    )
    samples = {"cli_wall_s": cli_walls, "import_s": imports, "traced_wall_s": traced_walls}
    return metrics, attempted, failed, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    program_src = (args.program_root / "src").resolve()
    if not (program_src / "mfdma" / "__init__.py").is_file():
        print(f"error: no mfdma package under {program_src}", file=sys.stderr)
        return 2
    # pinned to one CPU, which children inherit, so one BLAS thread; set
    # before numpy is imported here or in a child
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(program_src))
    import mfdma

    if program_src not in Path(mfdma.__file__).resolve().parents:
        print(f"error: imported mfdma from {mfdma.__file__}, not {program_src}", file=sys.stderr)
        return 2

    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    def log(message):
        print(message, file=sys.stderr, flush=True)

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=state))
    try:
        cli = Cli(program_src, work)
        speed = HostSpeed()
        out = work / "out"
        inputs, raw_setup, setup_probes = timed_setups(wl, work, args, speed)
        setup = [reference_seconds(t, p) for t, p in zip(raw_setup, setup_probes)]
        if args.trace:
            trace_path = state / "traces" / f"{wl.name}-seed{args.seed}.jsonl"
            metrics, attempted, failed, samples = run_traced(
                wl, inputs, cli, speed, out, args.seconds, trace_path, log)
            units = LAYER_METRICS
        else:
            metrics, attempted, failed, samples = run_end_to_end(
                wl, inputs, cli, speed, out, args.seconds, log)
            metrics["setup_s"] = statistics.median(setup)
            units = END_TO_END
        samples["setup_s"] = setup
        samples["raw_setup_s"] = raw_setup
        samples["setup_probe_s"] = setup_probes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.program_root.resolve(), args.seed)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        from ab import spread

        for name in ("wall_s", "raw_wall_s"):
            walls = samples[name]
            med, q1, q3 = spread(walls)
            print(f"  {name} samples: {len(walls)}  median {med:.4f}  q1 {q1:.4f}  "
                  f"q3 {q3:.4f}  max {max(walls):.4f}")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name][0]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    if args.record:
        record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "smoke": args.smoke, "env": env,
                  "samples": samples, "result": result}
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
