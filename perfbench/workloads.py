"""The benchmark's three workloads: inputs, CLI command lines and output checks.

Every input is generated from the benchmark seed with the package's own
generators and CSV writers, which is what ``mfdma generate`` does; the CLI
under test only ever sees the written files.  The cascades are
deterministic, so for them the seed changes nothing; the noise series and
the shuffle seed of ``series-surrogate`` come from it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIVE_QS = (-4.0, -2.0, 0.0, 2.0, 4.0)
# Golden h(q) values of the acceptance gate (tests/test_acceptance.py).
ANALYTIC_H_1D = dict(zip(FIVE_QS, (1.499, 1.359, 1.126, 0.893, 0.753)))
ANALYTIC_H_2D = dict(zip(FIVE_QS, (2.849, 2.577, 2.176, 1.869, 1.705)))
H_TOL_1D = 0.05  # acceptance criterion 1
H_TOL_2D = 0.10  # acceptance criterion 3
# Over 60 noise seeds at N = 2^16 with scales up to N/4, h(2) had a
# standard deviation of 0.028 and reached 0.08 from 0.5, so +-0.05 would
# fail a few percent of seeds by chance alone.  0.15 is about 5 sigma and
# still rejects an estimator that lost the profile (h ~ 0) or integrated
# twice (h ~ 1.5).
H_TOL_NOISE = 0.15

P1 = 0.3
WEIGHTS = (0.1, 0.2, 0.3, 0.4)


@dataclass(frozen=True)
class Inputs:
    """What one workload's set-up wrote, and what its command needs."""

    path: Path
    values: int
    shuffle_seed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    passes: int  # estimator passes over the input per CLI invocation
    out_format: str

    def make_inputs(self, work: Path, seed: int, smoke: bool) -> Inputs:
        raise NotImplementedError

    def argv(self, inputs: Inputs, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, inputs: Inputs, out_dir: Path) -> list[str]:
        """Problems found in one invocation's outputs; empty when correct."""
        raise NotImplementedError


def _ols_slope(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    return float(np.dot(xc, y) / np.dot(xc, xc))


def _h_problems(label, qs, h, expected: dict[float, float], tol) -> list[str]:
    problems = []
    for q, ref in expected.items():
        idx = np.flatnonzero(np.isclose(qs, q, rtol=0, atol=1e-9))
        if idx.size == 0:
            problems.append(f"{label}: q={q:g} missing from the output")
        elif not abs(h[idx[0]] - ref) <= tol:
            problems.append(f"{label}: h({q:g}) = {h[idx[0]]:.4f}, expected {ref} +- {tol}")
    return problems


class SeriesSurrogate(Workload):
    def make_inputs(self, work, seed, smoke):
        from mfdma import gaussian_noise, write_series_csv

        rng = np.random.default_rng(seed)
        noise_seed, shuffle_seed = (int(s) for s in rng.integers(2**31, size=2))
        length = 2**12 if smoke else 2**16
        path = work / "noise.csv"
        write_series_csv(gaussian_noise(length, noise_seed), path)
        return Inputs(path, length, shuffle_seed)

    def argv(self, inputs, out_dir):
        return [
            "surrogate", "--input", str(inputs.path),
            "--n-min", "10", "--n-max", str(inputs.values // 4), "--n-count", "20",
            "--q-min", "-4", "--q-max", "4", "--q-step", "1",
            "--seed", str(inputs.shuffle_seed),
            "--out-dir", str(out_dir), "--format", self.out_format,
        ]

    def check(self, inputs, out_dir):
        doc = json.loads((out_dir / "raw" / "result.json").read_text())
        qs = np.array(doc["scaling"]["qs"])
        h = np.array(doc["scaling"]["h"])
        problems = _h_problems("raw", qs, h, {2.0: 0.5}, H_TOL_NOISE)
        summary = json.loads((out_dir / "surrogate_summary.json").read_text())
        if summary.get("multiset_preserved") is not True:
            problems.append("surrogate_summary.json: multiset_preserved is not true")
        return problems


class SeriesCompare(Workload):
    def make_inputs(self, work, seed, smoke):
        from mfdma import CascadeSpec1D, binomial_measure_1d, write_series_csv

        levels = 12 if smoke else 16
        path = work / "binomial.csv"
        write_series_csv(binomial_measure_1d(CascadeSpec1D(p1=P1, levels=levels)), path)
        return Inputs(path, 2**levels)

    def argv(self, inputs, out_dir):
        return [
            "compare", "--analytic-p1", str(P1), "--input", str(inputs.path),
            "--out-dir", str(out_dir), "--format", self.out_format,
        ]

    def check(self, inputs, out_dir):
        blocks: dict[float, list[tuple[float, float]]] = {}
        current = None
        for line in (out_dir / "mfdma_theta0" / "fq_vs_n.dat").read_text().splitlines():
            if line.startswith("# q ="):
                current = blocks.setdefault(float(line.split("=")[1]), [])
            elif line.strip():
                ln_n, ln_f = line.split()
                current.append((float(ln_n), float(ln_f)))
        qs = np.array(sorted(blocks))
        h = np.array([_ols_slope(*zip(*blocks[q])) for q in qs])
        problems = _h_problems("mfdma_theta0", qs, h, ANALYTIC_H_1D, H_TOL_1D)
        sums = json.loads((out_dir / "compare_summary.json").read_text())["sum_abs_dtau"]
        for rival in ("mfdma_theta0.5", "mfdfa"):
            if not sums["mfdma_theta0"] < sums[rival]:
                problems.append(
                    f"backward MFDMA does not rank ahead of {rival}: "
                    f"{sums['mfdma_theta0']:.4f} vs {sums[rival]:.4f}"
                )
        return problems


class SurfaceAnalyze(Workload):
    def make_inputs(self, work, seed, smoke):
        from mfdma import CascadeSpec2D, cascade_measure_2d, write_surface_csv

        levels = 8 if smoke else 10
        path = work / "surface.csv"
        write_surface_csv(cascade_measure_2d(CascadeSpec2D(weights=WEIGHTS, levels=levels)), path)
        return Inputs(path, 4**levels)

    def argv(self, inputs, out_dir):
        return [
            "analyze", "--mode", "surface", "--input", str(inputs.path),
            "--out-dir", str(out_dir), "--format", self.out_format,
        ]

    def check(self, inputs, out_dir):
        with open(out_dir / "scaling.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        qs = np.array([float(r["q"]) for r in rows])
        h = np.array([float(r["h"]) for r in rows])
        return _h_problems("surface", qs, h, ANALYTIC_H_2D, H_TOL_2D)


WORKLOADS = {
    w.name: w
    for w in (
        SeriesSurrogate("series-surrogate", passes=2, out_format="json"),
        SeriesCompare("series-compare", passes=4, out_format="plot-data"),
        SurfaceAnalyze("surface-analyze", passes=1, out_format="csv-set"),
    )
}


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
