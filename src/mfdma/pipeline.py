"""End-to-end analysis pipeline, file ingestion, and result emission.

A :class:`ResultBundle` carries everything one analysis produced: the
fluctuation table, the scaling estimate, the singularity spectrum, and a
provenance block (effective config, input digest, toolkit version) that
makes the run reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import typing
import warnings
from array import array
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .dma1d import _as_values, _mfdma_tables_1d, _validate_scales, mfdfa_fluctuations_1d
from .dma2d import _mfdma_tables_2d, mfdfa_fluctuations_2d
# perfbench/tracing.py hooks these names, though analyze_all runs the MFDMA tables directly
from .dma1d import mfdma_fluctuations_1d  # noqa: F401
from .dma2d import mfdma_fluctuations_2d  # noqa: F401
from .exceptions import InputFormatError, ValidationError
from .generators import Series, Surface
from .spectrum import (
    FluctuationTable,
    QGrid,
    ScaleGrid,
    ScalingEstimate,
    SingularitySpectrum,
    _check_legendre_window,
    _fit_mask,
    _real,
    build_q_grid,
    build_scale_grid,
    fit_scaling,
    legendre_spectrum,
    tau_error,
)

__all__ = [
    "AnalysisConfig",
    "ResultBundle",
    "ingest_series",
    "ingest_surface",
    "write_series_csv",
    "write_surface_csv",
    "ingest_input",
    "analyze",
    "analyze_all",
    "run_pipeline",
    "emit_results",
]

MODES = ("series", "surface")
# per mode: the default (n_min, n_max, n_count); n_max is further capped at N/4
SCALE_DEFAULTS = {"series": (10, 1000, 30), "surface": (8, math.inf, 15)}
METHODS = ("mfdma", "mfdfa")
FORMATS = ("json", "csv-set", "plot-data")
# the config fields whose value must be one of a fixed set
CHOICES = {"mode": MODES, "method": METHODS, "out_format": FORMATS}


@dataclass(frozen=True)
class AnalysisConfig:
    """Full configuration of one analysis run.

    Unset scale fields (None) take the mode's ``SCALE_DEFAULTS``; a default
    n_max is capped at N/4 of the ingested data.  Every instance, one from
    ``dataclasses.replace`` too, was checked when it was built.
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

    def __post_init__(self):
        _check_types(vars(self))
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                label = name.removeprefix("out_")
                raise ValidationError(
                    f"{label} must be one of {allowed}, got {getattr(self, name)!r}"
                )
        _real("theta", self.theta, 0, 1)
        for name in ("fit_lo", "fit_hi"):
            if getattr(self, name) is not None:
                _real(name, getattr(self, name))
        # grid parameters are validated for real when the grids are built
        qs = build_q_grid(self.q_min, self.q_max, self.q_step)
        _check_legendre_window(qs, self.legendre_half_window)

    @staticmethod
    def read_config_file(config_file: str | None) -> dict:
        """The fields a JSON config file sets, none for None, each of its declared type."""
        if config_file is None:
            return {}
        path = Path(config_file)
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise InputFormatError(f"cannot read config file: {exc}", path=str(path))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise InputFormatError(f"config file {path} is not valid JSON: {exc}", path=str(path))
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {path} must hold a JSON object")
        if unknown := sorted(set(loaded) - set(DEFAULTS)):
            raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
        _check_types(loaded, label="config key ")
        return loaded


# Static defaults; n_max of None resolves against the ingested data so the
# grid respects the N/4 cap.  The resolved values are echoed in provenance.
DEFAULTS = {f.name: f.default for f in fields(AnalysisConfig)}
# each field's allowed value types: the declared type first, then NoneType if optional
FIELD_TYPES = {
    name: typing.get_args(hint) or (hint,)
    for name, hint in typing.get_type_hints(AnalysisConfig).items()
}


def _check_types(values: dict, label: str = "") -> None:
    """Raise unless each AnalysisConfig field in ``values`` holds a value of its declared type.

    An integer is a valid float, as a JSON integer is; no field is boolean,
    and a boolean is never a number.
    """
    for key, value in values.items():
        allowed = FIELD_TYPES[key]
        if float in allowed:
            allowed += (int,)
        if isinstance(value, bool) or not isinstance(value, allowed):
            declared = AnalysisConfig.__annotations__[key]
            raise ValidationError(f"{label}{key} must be {declared}, got {value!r}")


@dataclass(eq=False)
class ResultBundle:
    """All artifacts of one analysis plus the provenance block."""

    table: FluctuationTable
    estimate: ScalingEstimate
    spectrum: SingularitySpectrum
    provenance: dict


def _line_error(path, line_no: int, problem: str) -> InputFormatError:
    return InputFormatError(f"{path}: line {line_no}: {problem}", path=str(path), line=line_no)


def _bad_token(path, line_no: int, tokens) -> InputFormatError:
    """The error naming the first token of a row that is not a finite float."""
    for token in tokens:
        try:
            if math.isfinite(float(token)):
                continue
            problem = "non-finite value"
        except ValueError:
            problem = "not a number:"
        return _line_error(path, line_no, f"{problem} {token.strip()!r}")


# a byte that is not UTF-8 is read as one of U+DC80..U+DCFF (errors="surrogateescape")
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _read_rows(path, columns, header: bool = False) -> np.ndarray:
    """Float rows from the non-blank lines of a comma-delimited text file.

    ``columns(tokens, path, line_no)`` applies the caller's column rule to
    one line's comma-split tokens and returns the tokens to convert.  Every
    row must convert to finite floats and be as wide as the first one; the
    first line that breaks a rule, or is not UTF-8, is named.  With
    ``header``, a line 1 that is not a number is skipped.  The values are
    kept in one flat double array, 8 bytes each.
    """
    values = array("d")
    width = None
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if not line.isascii() and (escaped := _ESCAPED_BYTE.search(line)):
                problem = f"not UTF-8 text (byte {ord(escaped[0]) - 0xDC00:#04x})"
                raise _line_error(path, line_no, problem)
            tokens = columns(line.split(","), path, line_no)
            try:
                row = list(map(float, tokens))
            except ValueError:
                if header and line_no == 1:
                    continue
                raise _bad_token(path, line_no, tokens) from None
            if not all(map(math.isfinite, row)):
                raise _bad_token(path, line_no, tokens)
            if width not in (None, len(row)):
                problem = f"ragged row, got {len(row)} values, expected {width}"
                raise _line_error(path, line_no, problem)
            width = len(row)
            values.fromlist(row)
    if width is None:
        raise InputFormatError(f"{path}: no data rows", path=str(path))
    return np.frombuffer(values).reshape(-1, width)


def _numpy_rows(path) -> np.ndarray | None:
    """The rows of a file in the written format as numpy's C reader reads them, else None.

    None leaves ``_read_rows`` to read the file or name its fault: numpy raised
    or warned (an empty file warns; a header or trailing comma raises), or read
    no value or one that is not finite.  A ``MemoryError`` propagates, since the
    Python reader holds more.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, delimiter=",", comments=None, encoding="utf-8-sig", ndmin=2)
    except MemoryError:
        raise
    except Exception:  # whatever else numpy raised, _read_rows re-reads the file
        return None
    return rows if rows.size and np.isfinite(rows).all() else None


def _single_column(tokens, path, line_no):
    if len(tokens) > 1 and any(token.strip() for token in tokens[1:]):
        raise _line_error(path, line_no, f"expected a single column, got {len(tokens)} fields")
    return tokens[:1]


def _one_trailing_comma(tokens, path, line_no):
    return tokens[:-1] if tokens[-1] == "" else tokens


def ingest_series(path) -> Series:
    """Read a series from one-value-per-line text or single-column CSV.

    A non-numeric line 1 is a header; empty trailing fields are ignored.
    Any other bad row raises InputFormatError naming its line.
    """
    path = Path(path)
    rows = _numpy_rows(path)
    if rows is None or rows.shape[1] != 1:
        rows = _read_rows(path, _single_column, header=True)
    return Series(rows[:, 0], name=path.name)


def ingest_surface(path) -> Surface:
    """Read a surface from comma-delimited numeric rows of equal length.

    One trailing comma per row is tolerated.
    """
    path = Path(path)
    rows = _numpy_rows(path)
    return Surface(_read_rows(path, _one_trailing_comma) if rows is None else rows, name=path.name)


_CSV_CHUNK = 4096  # values per piece: the whole file's text never exists at once


def _csv_pieces(values: np.ndarray):
    """The CSV text of a 1-d array, one value per row, or of a 2-d array's rows.

    Pieces of max(1, ``_CSV_CHUNK`` // width) rows share one :func:`_reprs` memo.
    """
    width = values.shape[1] if values.ndim == 2 else 1
    step, memo = max(1, _CSV_CHUNK // width), {}
    for start in range(0, len(values), step):
        piece = _reprs(values[start:start + step], memo)
        if width > 1:  # a width-1 row is its one text: no join per row
            piece = [",".join(piece[i:i + width]) for i in range(0, len(piece), width)]
        piece = "\n".join(piece) + "\n"  # so no list of texts outlives the yield
        yield piece


def write_series_csv(data: Series | Surface, path):
    """Write a series as one CSV column, or a surface as CSV rows, in full float precision."""
    with open(path, "w") as handle:
        handle.writelines(_csv_pieces(data.values))


write_surface_csv = write_series_csv


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_grids(cfg: AnalysisConfig, data_shape) -> tuple[ScaleGrid, QGrid, tuple, dict]:
    """Scale grid, q grid, fit range and resolved scale options of ``cfg``.

    Every grid rule left to the data is checked here, before any estimator runs.
    """
    default_min, default_max, default_count = SCALE_DEFAULTS[cfg.mode]
    n_min = default_min if cfg.n_min is None else cfg.n_min
    n_max = min(default_max, min(data_shape) // 4) if cfg.n_max is None else cfg.n_max
    n_count = default_count if cfg.n_count is None else cfg.n_count
    scales = _validate_scales(build_scale_grid(n_min, n_max, n_count), data_shape)
    if cfg.fit_lo is None and cfg.fit_hi is None and len(scales) < 3:
        raise ValidationError(
            f"scales (n_min, n_max, n_count) = ({n_min}, {n_max}, {n_count}) give "
            f"{len(scales)} distinct scales, need at least 3"
        )
    _, fit_range = _fit_mask(scales, (scales.values[0] if cfg.fit_lo is None else cfg.fit_lo,
                                      scales.values[-1] if cfg.fit_hi is None else cfg.fit_hi))
    qs = build_q_grid(cfg.q_min, cfg.q_max, cfg.q_step)
    resolved = {"n_min": int(n_min), "n_max": int(n_max), "n_count": int(n_count)}
    return scales, qs, fit_range, resolved


def analyze(cfg: AnalysisConfig, data, digest: str) -> ResultBundle:
    """Analyze ingested or in-memory data under ``cfg``."""
    return analyze_all(cfg, [(cfg.method, cfg.theta)], data, digest)[0]


def analyze_all(cfg: AnalysisConfig, pairs, data, digest: str) -> list[ResultBundle]:
    """The :func:`analyze` bundle of ``cfg`` under each (method, theta) pair.

    All share ``cfg``'s grids; the MFDMA pairs share one estimator pass,
    which forms the window averages, the same for every theta, once per scale.
    """
    runs = [replace(cfg, method=method, theta=theta) for method, theta in pairs]
    series = cfg.mode == "series"
    shape = _as_values(data, 1 if series else 2).shape
    scales, qs, fit_range, resolved = _resolve_grids(cfg, shape)
    thetas = [run.theta for run in runs if run.method == "mfdma"]
    mfdma = _mfdma_tables_1d if series else _mfdma_tables_2d
    mfdma_tables = iter(mfdma(data, scales, qs, thetas) if thetas else [])
    bundles = []
    for run in runs:
        if run.method == "mfdma":
            table = next(mfdma_tables)
        elif series:
            table = mfdfa_fluctuations_1d(data, scales, qs, order=1)
        else:
            table = mfdfa_fluctuations_2d(data, scales, qs)
        estimate = fit_scaling(table, fit_range, float(len(shape)))
        spectrum = legendre_spectrum(estimate, cfg.legendre_half_window)
        effective = asdict(run)
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
        bundles.append(ResultBundle(table, estimate, spectrum, provenance))
    return bundles


def ingest_input(cfg: AnalysisConfig):
    """Read ``cfg``'s input file as ``cfg.mode`` data.

    Returns the data and the SHA-256 of the file's bytes.
    """
    if cfg.input_path is None:
        raise ValidationError("config has no input path")
    ingest = ingest_series if cfg.mode == "series" else ingest_surface
    return ingest(cfg.input_path), _sha256_file(cfg.input_path)


def run_pipeline(cfg: AnalysisConfig) -> ResultBundle:
    """Ingest, analyze, and package one run as configured.

    Deterministic: identical input bytes and config produce an identical
    bundle.  Grid and cap validation happen before any heavy computation.
    """
    return analyze(cfg, *ingest_input(cfg))


# ---------------------------------------------------------------------------
# serialization


def _bundle_to_dict(bundle: ResultBundle) -> dict:
    """The document ``result.json`` holds: the bundle's arrays as float lists, and its provenance.

    Its bytes are deterministic for one numpy build on one set of CPU
    features.  numpy's SIMD ``exp`` and ``log`` round some values apart
    across CPU features, so on another machine the last digits may differ.
    """
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


def json_text(doc) -> str:
    """Indented JSON with sorted keys and a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def csv_table(header, columns) -> str:
    """CSV text: the header line, then one row of full-precision floats per index."""
    return ",".join(header) + "\n" + "".join(_csv_pieces(np.array(columns, dtype=float).T))


def _reprs(values, memo=None) -> list:
    """The full-precision text of each value, as a list of strings.

    The text is ``repr`` of the float.  When at most half the values are
    distinct, as in a cascade, each distinct one is formatted once.  Values
    are told apart by their bits: ``-0.0 == 0.0``, but the two print apart.
    ``memo`` maps the bits of each value formatted so far to its text; the
    pieces of one file share it, so a value is formatted once per file.
    Only pieces with at most half their values distinct read or feed it,
    and it is emptied before it would hold more texts than a piece has
    values, so a file of ever-new values costs memory of a piece, not of
    the file.
    """
    values = np.ascontiguousarray(values, dtype=float).reshape(-1)
    bits = values.view(np.int64)
    keys = np.sort(bits)
    new = keys[1:] != keys[:-1]
    if 2 * (np.count_nonzero(new) + 1) > keys.size:  # mostly distinct: sharing saves nothing
        return list(map(repr, values.tolist()))
    distinct = np.concatenate((keys[:1], keys[1:][new]))
    memo = {} if memo is None else memo
    if len(memo) + distinct.size > _CSV_CHUNK:
        memo.clear()
    pairs = zip(distinct.tolist(), distinct.view(float).tolist())
    texts = [memo[key] if key in memo else memo.setdefault(key, repr(value)) for key, value in pairs]
    return np.array(texts, dtype=object)[np.searchsorted(distinct, bits)].tolist()


def _plot_block(title, x_text, ys) -> str:
    """A gnuplot two-column block: a ``# title`` line, then one ``x y`` line per point.

    ``x_text`` is the x column as :func:`_reprs` gives it, so blocks that share it format it once.
    """
    return f"# {title}\n" + "".join(f"{x} {y}\n" for x, y in zip(x_text, _reprs(ys)))


def _q_labels(qs) -> list[str]:
    """Each q in the fewest significant digits, at least 6, that tell every q of the grid apart."""
    return next(labels for digits in range(6, 18)  # 17 digits name every float64 exactly
                if len(set(labels := [f"{q:.{digits}g}" for q in qs])) == len(labels))


def emit_results(bundle: ResultBundle, out_dir, out_format: str, tau_reference=None):
    """Write a bundle under ``out_dir`` in the requested format.

    json writes one structured document; csv-set one file each for F_q(n),
    the h/tau estimates, and the (alpha, f) spectrum; plot-data two-column
    blocks per panel (ln F_q vs ln n, tau vs q, delta tau vs q when a
    reference is given, f vs alpha).  Returns the written paths.
    """
    if out_format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {out_format!r}")
    est = bundle.estimate
    if out_format == "json":
        files = {"result.json": json_text(_bundle_to_dict(bundle))}

    elif out_format == "csv-set":
        doc = _bundle_to_dict(bundle)
        table, scaling, spectrum = doc["fluctuations"], doc["scaling"], doc["spectrum"]
        files = {
            "fluctuations.csv": csv_table(
                ["n"] + [f"F[q={q}]" for q in _q_labels(table["qs"])],
                [table["scales"], *zip(*table["values"])],
            ),
            "scaling.csv": csv_table(
                ["q", "h", "h_se", "tau", "tau_se"],
                [scaling[k] for k in ("qs", "h", "h_se", "tau", "tau_se")],
            ),
            "spectrum.csv": csv_table(
                ["q", "alpha", "f"], [spectrum[k] for k in ("qs", "alpha", "f")]
            ),
            "provenance.json": json_text(doc["provenance"]),
        }

    else:  # plot-data
        ln_n, qs = _reprs(np.log(bundle.table.scales.values.astype(float))), _reprs(est.qs.values)
        files = {
            "fq_vs_n.dat": "".join(
                _plot_block(f"q = {q}", ln_n, np.log(bundle.table.values[:, j])) + "\n"
                for j, q in enumerate(_q_labels(bundle.table.qs.values))
            ),
            "tau_vs_q.dat": _plot_block("tau(q)", qs, est.tau),
        }
        if tau_reference is not None:
            dtau = tau_error(est, tau_reference)
            files["dtau_vs_q.dat"] = _plot_block("tau(q) - tau_reference(q)", qs, dtau)
        alpha = _reprs(bundle.spectrum.alpha)
        files["f_vs_alpha.dat"] = _plot_block("f(alpha)", alpha, bundle.spectrum.f)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    return [out_dir / name for name in files]
