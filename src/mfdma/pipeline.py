"""End-to-end analysis pipeline, file ingestion, and result emission.

A :class:`ResultBundle` carries everything one analysis produced: the
fluctuation table, the scaling estimate, the singularity spectrum, and a
provenance block (effective config, input digest, toolkit version) that
makes the run reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .dma1d import mfdfa_fluctuations_1d, mfdma_fluctuations_1d
from .dma2d import mfdfa_fluctuations_2d, mfdma_fluctuations_2d
from .exceptions import InputFormatError, ValidationError
from .generators import Series, Surface
from .spectrum import (
    FluctuationTable,
    QGrid,
    ScaleGrid,
    ScalingEstimate,
    SingularitySpectrum,
    build_q_grid,
    build_scale_grid,
    fit_scaling,
    legendre_spectrum,
)

__all__ = [
    "AnalysisConfig",
    "ResultBundle",
    "ingest_series",
    "ingest_surface",
    "write_series_csv",
    "write_surface_csv",
    "run_pipeline",
    "emit_results",
    "read_bundle",
]

MODES = ("series", "surface")
METHODS = ("mfdma", "mfdfa")
FORMATS = ("json", "csv-set", "plot-data")


@dataclass(frozen=True)
class AnalysisConfig:
    """Full configuration of one analysis run.

    Unset grid fields (None) are resolved against the ingested data:
    series default to scales (10, min(1000, N//4), 30), surfaces to
    (8, min(N1, N2)//4, 15).
    """

    mode: str = "series"
    method: str = "mfdma"
    theta: float = 0.0
    q_min: float = -4.0
    q_max: float = 4.0
    q_step: float = 0.1
    n_min: int | None = None
    n_max: int | None = None
    n_count: int | None = None
    fit_lo: float | None = None
    fit_hi: float | None = None
    legendre_half_window: int = 3
    seed: int = 0
    input_path: str | None = None
    out_dir: str | None = None
    out_format: str = "json"

    def validate(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValidationError(f"theta must lie in [0, 1], got {self.theta}")
        if self.out_format not in FORMATS:
            raise ValidationError(
                f"format must be one of {FORMATS}, got {self.out_format!r}"
            )
        if self.legendre_half_window < 1:
            raise ValidationError(
                f"legendre half-window must be at least 1, got {self.legendre_half_window}"
            )
        # grid parameters are validated for real when the grids are built
        build_q_grid(self.q_min, self.q_max, self.q_step)

    @classmethod
    def from_sources(cls, cli_options: dict, config_file: str | None = None):
        """Merge defaults, a JSON config file, and CLI options, in that order."""
        merged = dict(DEFAULTS)
        if config_file is not None:
            path = Path(config_file)
            try:
                loaded = json.loads(path.read_text())
            except OSError as exc:
                raise InputFormatError(f"cannot read config file: {exc}", path=str(path))
            except json.JSONDecodeError as exc:
                raise InputFormatError(
                    f"config file {path} is not valid JSON: {exc}", path=str(path)
                )
            if not isinstance(loaded, dict):
                raise ValidationError(f"config file {path} must hold a JSON object")
            unknown = sorted(set(loaded) - set(DEFAULTS))
            if unknown:
                raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
            merged.update(loaded)
        merged.update({k: v for k, v in cli_options.items() if v is not None})
        cfg = cls(**merged)
        cfg.validate()
        return cfg


# Static defaults; n_max of None resolves against the ingested data so the
# grid respects the N/4 cap.  The resolved values are echoed in provenance.
DEFAULTS = {f.name: f.default for f in fields(AnalysisConfig)}


@dataclass(eq=False)
class ResultBundle:
    """All artifacts of one analysis plus the provenance block."""

    table: FluctuationTable
    estimate: ScalingEstimate
    spectrum: SingularitySpectrum
    provenance: dict

    def __eq__(self, other):
        if not isinstance(other, ResultBundle):
            return NotImplemented
        return _bundle_to_dict(self) == _bundle_to_dict(other)


def _parse_float(token: str, path, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InputFormatError(
            f"{path}: line {line_no}: not a number: {token!r}", path=str(path), line=line_no
        ) from None
    if not np.isfinite(value):
        raise InputFormatError(
            f"{path}: line {line_no}: non-finite value {token!r}", path=str(path), line=line_no
        )
    return value


def ingest_series(path) -> Series:
    """Read a series from one-value-per-line text or single-column CSV.

    A non-numeric first line is treated as a header.  Any later
    non-numeric row raises InputFormatError naming the line.
    """
    path = Path(path)
    values = []
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if any(fields[1:]):
                raise InputFormatError(
                    f"{path}: line {line_no}: expected a single column, got {len(fields)} fields",
                    path=str(path),
                    line=line_no,
                )
            token = fields[0]
            if line_no == 1 and not values:
                try:
                    values.append(_parse_float(token, path, line_no))
                except InputFormatError:
                    continue  # header row
            else:
                values.append(_parse_float(token, path, line_no))
    if not values:
        raise InputFormatError(f"{path}: no data rows", path=str(path))
    return Series(np.array(values), name=path.name)


def ingest_surface(path) -> Surface:
    """Read a surface from comma-delimited numeric rows of equal length."""
    path = Path(path)
    rows = []
    width = None
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = [t.strip() for t in line.split(",")]
            if tokens and tokens[-1] == "":  # tolerate one trailing comma
                tokens = tokens[:-1]
            row = [_parse_float(t, path, line_no) for t in tokens]
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise InputFormatError(
                    f"{path}: line {line_no}: ragged row, got {len(row)} values, expected {width}",
                    path=str(path),
                    line=line_no,
                )
            rows.append(row)
    if not rows:
        raise InputFormatError(f"{path}: no data rows", path=str(path))
    return Surface(np.array(rows), name=path.name)


def _series_csv(series: Series) -> str:
    return "".join(f"{float(v)!r}\n" for v in series.values)


def write_series_csv(series: Series, path):
    """Write a series as single-column CSV with full float precision."""
    Path(path).write_text(_series_csv(series))


def write_surface_csv(surface: Surface, path):
    """Write a surface as comma-delimited rows with full float precision."""
    path = Path(path)
    with open(path, "w") as handle:
        for row in surface.values:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_grids(cfg: AnalysisConfig, data_shape) -> tuple[ScaleGrid, QGrid, dict]:
    if cfg.mode == "series":
        limit = data_shape[0] // 4
        n_min = 10 if cfg.n_min is None else cfg.n_min
        n_max = min(1000, limit) if cfg.n_max is None else cfg.n_max
        n_count = 30 if cfg.n_count is None else cfg.n_count
    else:
        limit = min(data_shape) // 4
        n_min = 8 if cfg.n_min is None else cfg.n_min
        n_max = limit if cfg.n_max is None else cfg.n_max
        n_count = 15 if cfg.n_count is None else cfg.n_count
    if n_max > limit:
        raise ValidationError(
            f"n_max = {n_max} exceeds the N/4 cap of {limit} for data shape {data_shape}"
        )
    scales = build_scale_grid(n_min, n_max, n_count)
    qs = build_q_grid(cfg.q_min, cfg.q_max, cfg.q_step)
    resolved = {"n_min": int(n_min), "n_max": int(n_max), "n_count": int(n_count)}
    return scales, qs, resolved


def _analyze(cfg: AnalysisConfig, data, digest: str) -> ResultBundle:
    """Shared analysis path for ingested and in-memory data."""
    if cfg.mode == "series":
        shape = (len(data),)
        fractal_dim = 1.0
        if shape[0] < 4:
            raise ValidationError(
                f"series has {shape[0]} points, analysis needs at least 4"
            )
    else:
        shape = data.shape
        fractal_dim = 2.0
        if min(shape) < 4:
            raise ValidationError(
                f"surface of shape {shape} is too small, "
                "analysis needs at least 4 rows and columns"
            )
    scales, qs, resolved = _resolve_grids(cfg, shape)
    if cfg.mode == "series":
        if cfg.method == "mfdma":
            table = mfdma_fluctuations_1d(data, scales, qs, cfg.theta)
        else:
            table = mfdfa_fluctuations_1d(data, scales, qs, order=1)
    else:
        if cfg.method == "mfdma":
            table = mfdma_fluctuations_2d(data, scales, qs, cfg.theta)
        else:
            table = mfdfa_fluctuations_2d(data, scales, qs)
    fit_range = None
    if cfg.fit_lo is not None or cfg.fit_hi is not None:
        fit_range = (
            cfg.fit_lo if cfg.fit_lo is not None else float(scales.values[0]),
            cfg.fit_hi if cfg.fit_hi is not None else float(scales.values[-1]),
        )
    estimate = fit_scaling(table, fit_range, fractal_dim)
    spectrum = legendre_spectrum(estimate, cfg.legendre_half_window)
    effective = asdict(cfg)
    effective.update(resolved)
    effective["fit_lo"], effective["fit_hi"] = estimate.fit_range
    # where results land is presentation, not provenance; dropping it keeps
    # emitted bytes identical across output directories
    effective.pop("out_dir")
    provenance = {
        "toolkit": "mfdma",
        "version": __version__,
        "config": effective,
        "input_digest": digest,
        "input_shape": list(shape),
    }
    return ResultBundle(table, estimate, spectrum, provenance)


def run_pipeline(cfg: AnalysisConfig) -> ResultBundle:
    """Ingest, analyze, and package one run as configured.

    Deterministic: identical input bytes and config produce an identical
    bundle.  Grid and cap validation happen before any heavy computation.
    """
    cfg.validate()
    if cfg.input_path is None:
        raise ValidationError("config has no input path")
    if cfg.mode == "series":
        data = ingest_series(cfg.input_path)
    else:
        data = ingest_surface(cfg.input_path)
    return _analyze(cfg, data, _sha256_file(cfg.input_path))


def analyze_series(cfg: AnalysisConfig, series: Series) -> ResultBundle:
    """Run the pipeline on an in-memory series (surrogate and compare paths)."""
    cfg.validate()
    if cfg.mode != "series":
        raise ValidationError("analyze_series needs a series-mode config")
    return _analyze(cfg, series, hashlib.sha256(_series_csv(series).encode()).hexdigest())


# ---------------------------------------------------------------------------
# serialization


def _bundle_to_dict(bundle: ResultBundle) -> dict:
    est = bundle.estimate
    qs = est.qs.values
    return {
        "schema": "mfdma.result/1",
        "provenance": bundle.provenance,
        "fluctuations": {
            "scales": bundle.table.scales.values.tolist(),
            "qs": bundle.table.qs.values.tolist(),
            "values": bundle.table.values.tolist(),
        },
        "scaling": {
            "qs": qs.tolist(),
            "h": est.h.tolist(),
            "h_se": est.h_se.tolist(),
            "tau": est.tau.tolist(),
            "tau_se": (np.abs(qs) * est.h_se).tolist(),
            "fractal_dim": est.fractal_dim,
            "fit_range": list(est.fit_range),
        },
        "spectrum": {
            "qs": bundle.spectrum.qs.tolist(),
            "alpha": bundle.spectrum.alpha.tolist(),
            "f": bundle.spectrum.f.tolist(),
            "width": bundle.spectrum.width,
        },
    }


def _bundle_from_dict(doc: dict) -> ResultBundle:
    try:
        fl = doc["fluctuations"]
        sc = doc["scaling"]
        sp = doc["spectrum"]
        table = FluctuationTable(
            ScaleGrid(np.array(fl["scales"])),
            QGrid(np.array(fl["qs"])),
            np.array(fl["values"]),
        )
        estimate = ScalingEstimate(
            QGrid(np.array(sc["qs"])),
            np.array(sc["h"]),
            np.array(sc["h_se"]),
            np.array(sc["tau"]),
            float(sc["fractal_dim"]),
            tuple(sc["fit_range"]),
        )
        spectrum = SingularitySpectrum(
            np.array(sp["qs"]), np.array(sp["alpha"]), np.array(sp["f"]), float(sp["width"])
        )
    except KeyError as exc:
        raise InputFormatError(f"result document is missing key {exc}") from None
    return ResultBundle(table, estimate, spectrum, doc.get("provenance", {}))


def read_bundle(path) -> ResultBundle:
    """Load a bundle previously emitted as JSON."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}", path=str(path))
    return _bundle_from_dict(doc)


def _write_rows(path, header, columns):
    rows = zip(*columns)
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def emit_results(bundle: ResultBundle, out_dir, out_format: str, tau_reference=None):
    """Write a bundle under ``out_dir`` in the requested format.

    json writes one structured document; csv-set one file each for F_q(n),
    the h/tau estimates, and the (alpha, f) spectrum; plot-data two-column
    blocks per panel (ln F_q vs ln n, tau vs q, delta tau vs q when a
    reference is given, f vs alpha).  Returns the written paths.
    """
    if out_format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {out_format!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    if out_format == "json":
        path = out_dir / "result.json"
        path.write_text(json.dumps(_bundle_to_dict(bundle), indent=2, sort_keys=True) + "\n")
        written.append(path)

    elif out_format == "csv-set":
        ns = bundle.table.scales.values
        qs = bundle.table.qs.values
        path = out_dir / "fluctuations.csv"
        header = ["n"] + [f"F[q={q:g}]" for q in qs]
        columns = [ns] + [bundle.table.values[:, j] for j in range(qs.size)]
        _write_rows(path, header, columns)
        written.append(path)

        est = bundle.estimate
        path = out_dir / "scaling.csv"
        _write_rows(
            path,
            ["q", "h", "h_se", "tau", "tau_se"],
            [est.qs.values, est.h, est.h_se, est.tau, np.abs(est.qs.values) * est.h_se],
        )
        written.append(path)

        path = out_dir / "spectrum.csv"
        _write_rows(
            path,
            ["q", "alpha", "f"],
            [bundle.spectrum.qs, bundle.spectrum.alpha, bundle.spectrum.f],
        )
        written.append(path)

        path = out_dir / "provenance.json"
        path.write_text(json.dumps(bundle.provenance, indent=2, sort_keys=True) + "\n")
        written.append(path)

    else:  # plot-data
        ns = bundle.table.scales.values.astype(float)
        path = out_dir / "fq_vs_n.dat"
        with open(path, "w") as handle:
            for j, q in enumerate(bundle.table.qs.values):
                handle.write(f"# q = {q:g}\n")
                for n, fval in zip(np.log(ns), np.log(bundle.table.values[:, j])):
                    handle.write(f"{float(n)!r} {float(fval)!r}\n")
                handle.write("\n")
        written.append(path)

        est = bundle.estimate
        path = out_dir / "tau_vs_q.dat"
        with open(path, "w") as handle:
            handle.write("# tau(q)\n")
            for q, t in zip(est.qs.values, est.tau):
                handle.write(f"{float(q)!r} {float(t)!r}\n")
        written.append(path)

        if tau_reference is not None:
            ref = np.asarray(tau_reference, dtype=float)
            if ref.shape != est.tau.shape:
                raise ValidationError(
                    f"tau reference shape {ref.shape} does not match estimate {est.tau.shape}"
                )
            path = out_dir / "dtau_vs_q.dat"
            with open(path, "w") as handle:
                handle.write("# tau(q) - tau_reference(q)\n")
                for q, d in zip(est.qs.values, est.tau - ref):
                    handle.write(f"{float(q)!r} {float(d)!r}\n")
            written.append(path)

        path = out_dir / "f_vs_alpha.dat"
        with open(path, "w") as handle:
            handle.write("# f(alpha)\n")
            for a, fv in zip(bundle.spectrum.alpha, bundle.spectrum.f):
                handle.write(f"{float(a)!r} {float(fv)!r}\n")
        written.append(path)

    return written
