import hashlib
import json

import numpy as np
import pytest

from mfdma import (
    AnalysisConfig,
    CascadeSpec1D,
    CascadeSpec2D,
    InputFormatError,
    Series,
    Surface,
    ValidationError,
    binomial_measure_1d,
    cascade_measure_2d,
    emit_results,
    ingest_series,
    ingest_surface,
    pipeline,
    run_pipeline,
    write_series_csv,
    write_surface_csv,
)


# ----------------------------------------------------------------- ingest

def test_ingest_series_plain_values(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("1\n2\n3\n")
    series = ingest_series(path)
    assert np.array_equal(series.values, [1.0, 2.0, 3.0])


def test_ingest_series_with_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("ret\n0.5\n")
    assert np.array_equal(ingest_series(path).values, [0.5])


def test_ingest_series_names_the_bad_line(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("\n".join(str(v) for v in range(6)) + "\nabc\n8\n")
    with pytest.raises(InputFormatError, match="line 7") as err:
        ingest_series(path)
    assert err.value.line == 7


def test_ingest_series_rejects_empty_and_nonfinite(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(InputFormatError):
        ingest_series(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("ret\n")
    with pytest.raises(InputFormatError):
        ingest_series(header_only)
    bad = tmp_path / "inf.txt"
    bad.write_text("1\ninf\n")
    with pytest.raises(InputFormatError, match="line 2"):
        ingest_series(bad)


def test_ingest_series_rejects_multicolumn_rows(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n")
    with pytest.raises(InputFormatError, match="single column"):
        ingest_series(path)


def test_ingest_surface_small_matrix(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1,2\n3,4\n")
    surface = ingest_surface(path)
    assert np.array_equal(surface.values, [[1.0, 2.0], [3.0, 4.0]])


def test_ingest_surface_ragged_row_is_named(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(InputFormatError, match="line 2"):
        ingest_surface(path)


def test_ingest_surface_single_row_rejected_at_analysis(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(",".join(str(v) for v in range(64)) + "\n")
    surface = ingest_surface(path)  # parsing succeeds
    assert surface.shape == (1, 64)
    cfg = AnalysisConfig(mode="surface", input_path=str(path), n_min=2, n_max=4, n_count=3)
    with pytest.raises(ValidationError, match="at least 4"):
        run_pipeline(cfg)


def _fails(line, message):
    return InputFormatError, message, line


# (reader, file text, expected): expected is the ingested values, or the
# exception class, the message after "<path>: " and the error's .line.
INGEST_CORPUS = {
    "crlf-series": ("series", "1\r\n2\r\n3\r\n", [1.0, 2.0, 3.0]),
    "crlf-surface": ("surface", "1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    "blank-lines": ("series", "\n1\n\n  \n2\n\n", [1.0, 2.0]),
    "header": ("series", "ret\r\n0.5\n1.5\n", [0.5, 1.5]),
    "header-only": ("series", "ret\n", _fails(None, "no data rows")),
    "header-not-on-line-1": ("series", "1\nret\n", _fails(2, "line 2: not a number: 'ret'")),
    "header-after-blank-line": ("series", "\nret\n1\n", _fails(2, "line 2: not a number: 'ret'")),
    "surface-header": ("surface", "a,b\n1,2\n", _fails(1, "line 1: not a number: 'a'")),
    "whitespace-series": ("series", "  1.5 \n\t2.5\t\n", [1.5, 2.5]),
    "whitespace-surface": ("surface", " 1 ,  2 \n 3,4 \n", [[1.0, 2.0], [3.0, 4.0]]),
    "surface-trailing-comma": ("surface", "1,2,\n3,4 ,\n", [[1.0, 2.0], [3.0, 4.0]]),
    "surface-two-trailing-commas": ("surface", "1,2,,\n", _fails(1, "line 1: not a number: ''")),
    "series-empty-trailing-fields": ("series", "1,,\n2, ,\n3\n", [1.0, 2.0, 3.0]),
    "series-two-columns": ("series", "1\n2,3\n", _fails(
        2, "line 2: expected a single column, got 2 fields")),
    "ragged": ("surface", "1,2\n3,4,5\n", _fails(
        2, "line 2: ragged row, got 3 values, expected 2")),
    "ragged-row-with-bad-token": ("surface", "1,2\n3,x,5\n", _fails(
        2, "line 2: not a number: 'x'")),
    "non-numeric-series": ("series", "1\n2\nabc\n4\n", _fails(3, "line 3: not a number: 'abc'")),
    "non-numeric-surface": ("surface", "1,2\n3, abc\n", _fails(2, "line 2: not a number: 'abc'")),
    "non-finite-series": ("series", "1\ninf\n3\n", _fails(2, "line 2: non-finite value 'inf'")),
    "non-finite-surface": ("surface", "1,2\n3,nan\n", _fails(2, "line 2: non-finite value 'nan'")),
    "first-bad-token-in-row": ("surface", "1,2\ninf,abc\n", _fails(
        2, "line 2: non-finite value 'inf'")),
    "earlier-line-wins-series": ("series", "1\nx\ny\n", _fails(2, "line 2: not a number: 'x'")),
    "earlier-line-wins-surface": ("surface", "1,2\n3\nx,1\n", _fails(
        2, "line 2: ragged row, got 1 values, expected 2")),
    # bytes: the file is written as is, so it need not be UTF-8
    "bad-row-before-non-utf8-line": ("series", b"1\n2\nwat\n4\n\xe9\n", _fails(
        3, "line 3: not a number: 'wat'")),
    "bad-row-before-non-utf8-line-crlf-bom": (
        "surface", b"\xef\xbb\xbf1,2\r\n3,4\r5,6,7\r\n\xe9\r\n",
        _fails(3, "line 3: ragged row, got 3 values, expected 2"),
    ),
    "non-utf8-line-before-bad-row": ("series", b"ret\n1\n\xe9\nwat\n", _fails(
        3, "line 3: not UTF-8 text (byte 0xe9)")),
    # far past the first chunk the decoder reads
    "non-utf8-line-3000": ("series", b"1.25\n" * 2999 + b"2\xff5\n1\n", _fails(
        3000, "line 3000: not UTF-8 text (byte 0xff)")),
    "non-utf8-header": ("series", b"r\xe9t\n1\n", _fails(1, "line 1: not UTF-8 text (byte 0xe9)")),
    "utf8-header": ("series", "rét\n0.5\n", [0.5]),
    "utf8-token": ("series", "1\n½\n", _fails(2, "line 2: not a number: '½'")),
}


@pytest.mark.parametrize("case", INGEST_CORPUS)
def test_ingest_corpus(case, tmp_path):
    kind, text, expected = INGEST_CORPUS[case]
    path = tmp_path / "in.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    ingest = ingest_series if kind == "series" else ingest_surface
    if isinstance(expected, list):
        values = ingest(path).values
        assert values.dtype == np.float64
        assert values.tobytes() == np.array(expected).tobytes()
        assert values.shape == np.array(expected).shape
        return
    cls, message, line = expected
    with pytest.raises(cls) as err:
        ingest(path)
    assert str(err.value) == f"{path}: {message}"
    assert err.value.line == line


@pytest.mark.parametrize("text", ["\ufeff1.5\n2.5\n3.5\n", "\ufeffret\n1.5\n2.5\n3.5\n"])
def test_ingest_series_skips_a_utf8_bom(text, tmp_path):
    # a BOM must not turn the first value into a header
    path = tmp_path / "bom.csv"
    path.write_bytes(text.encode())
    assert np.array_equal(ingest_series(path).values, [1.5, 2.5, 3.5])


def test_ingest_surface_skips_a_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeff1.5,2\n3,4\n".encode())
    assert np.array_equal(ingest_surface(path).values, [[1.5, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
def test_ingest_series_non_finite_line_1_is_not_a_header(token, tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(f"{token}\n1\n2\n")
    with pytest.raises(InputFormatError) as err:
        ingest_series(path)
    assert str(err.value) == f"{path}: line 1: non-finite value {token!r}"
    assert err.value.line == 1


def test_series_csv_round_trip_is_exact(tmp_path):
    series = binomial_measure_1d(CascadeSpec1D(p1=0.3, levels=8))
    path = tmp_path / "m.csv"
    write_series_csv(series, path)
    again = ingest_series(path)
    assert np.array_equal(series.values, again.values)


def test_surface_csv_round_trip_is_exact(tmp_path):
    surface = cascade_measure_2d(CascadeSpec2D(weights=(0.1, 0.2, 0.3, 0.4), levels=4))
    path = tmp_path / "s.csv"
    write_surface_csv(surface, path)
    again = ingest_surface(path)
    assert np.array_equal(surface.values, again.values)


# ----------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValidationError):
        AnalysisConfig(mode="cube").validate()
    with pytest.raises(ValidationError):
        AnalysisConfig(method="wavelet").validate()
    with pytest.raises(ValidationError):
        AnalysisConfig(theta=1.5).validate()
    with pytest.raises(ValidationError):
        AnalysisConfig(out_format="yaml").validate()
    AnalysisConfig().validate()


def test_config_precedence_defaults_file_flags(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"theta": 0.5, "n_max": 200, "q_step": 0.5}))
    cfg = AnalysisConfig.from_sources(
        {"theta": 1.0, "input_path": "x.csv"}, config_file=str(cfg_file)
    )
    assert cfg.theta == 1.0       # flag beats file
    assert cfg.n_max == 200       # file beats default
    assert cfg.q_step == 0.5
    assert cfg.q_min == -4.0      # default survives


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"qmin": 1}))
    with pytest.raises(ValidationError, match="qmin"):
        AnalysisConfig.from_sources({}, config_file=str(cfg_file))


# --------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def measure_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "binomial_k12.csv"
    write_series_csv(binomial_measure_1d(CascadeSpec1D(p1=0.3, levels=12)), path)
    return path


def _quick_cfg(path, **kw):
    options = dict(
        input_path=str(path), n_min=8, n_max=256, n_count=12, q_min=-4.0, q_max=4.0, q_step=0.5
    )
    options.update(kw)
    return AnalysisConfig(**options)


def test_run_pipeline_is_deterministic(measure_file, tmp_path):
    a = run_pipeline(_quick_cfg(measure_file))
    b = run_pipeline(_quick_cfg(measure_file))
    emit_results(a, tmp_path / "a", "json")
    emit_results(b, tmp_path / "b", "json")
    assert (tmp_path / "a/result.json").read_bytes() == (tmp_path / "b/result.json").read_bytes()


def test_run_pipeline_validates_cap_before_work(measure_file):
    with pytest.raises(ValidationError, match="N/4"):
        run_pipeline(_quick_cfg(measure_file, n_max=4096))


def test_run_pipeline_records_input_digest(measure_file):
    bundle = run_pipeline(_quick_cfg(measure_file))
    expected = hashlib.sha256(measure_file.read_bytes()).hexdigest()
    assert bundle.provenance["input_digest"] == expected
    assert bundle.provenance["config"]["n_max"] == 256
    assert bundle.provenance["version"]


def test_run_pipeline_mfdfa_method(measure_file):
    bundle = run_pipeline(_quick_cfg(measure_file, method="mfdfa"))
    assert bundle.provenance["config"]["method"] == "mfdfa"
    assert np.all(bundle.table.values > 0)


def test_run_pipeline_golden_backward_h2(binomial_k14, tmp_path):
    path = tmp_path / "binomial_k14.csv"
    write_series_csv(binomial_k14, path)
    cfg = AnalysisConfig(
        input_path=str(path), theta=0.0,
        n_min=10, n_max=1000, n_count=30, q_min=-4.0, q_max=4.0, q_step=0.5,
    )
    bundle = run_pipeline(cfg)
    qs = bundle.estimate.qs.values
    h2 = float(bundle.estimate.h[np.flatnonzero(qs == 2.0)[0]])
    assert h2 == pytest.approx(0.874, abs=0.05)


@pytest.mark.parametrize("method", ["mfdma", "mfdfa"])
@pytest.mark.parametrize("mode", ["series", "surface"])
@pytest.mark.parametrize("options, message", [
    ({"q_step": 4.0}, "need at least 7 q points for half_window=3"),
    ({"fit_lo": 200.0, "fit_hi": 210.0}, r"fit range \(200, 210\) selects 0 scales, need at least 3"),
    # with the default fit range, the error names the scale-grid options
    ({"n_count": 2}, r"scales \(n_min, n_max, n_count\) = \(8, \d+, 2\) give 2 distinct scales"),
], ids=["q-grid", "fit-range", "scale-grid"])
def test_unusable_q_grid_or_fit_range_fails_before_any_estimator(
    options, message, mode, method, measure_file, tmp_path, monkeypatch
):
    def estimator(*args, **kwargs):
        raise AssertionError("an estimator ran before the grids were checked")

    for name in ("mfdma_fluctuations_1d", "mfdfa_fluctuations_1d",
                 "mfdma_fluctuations_2d", "mfdfa_fluctuations_2d"):
        monkeypatch.setattr(pipeline, name, estimator)
    path = measure_file
    if mode == "surface":
        path = tmp_path / "surf.csv"
        write_surface_csv(cascade_measure_2d(CascadeSpec2D((0.1, 0.2, 0.3, 0.4), levels=6)), path)
    n_max = 16 if mode == "surface" else 256
    with pytest.raises(ValidationError, match=message):
        run_pipeline(_quick_cfg(path, mode=mode, method=method, n_max=n_max, **options))


def test_degenerate_input_raises_degenerate_error(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("0.0\n" * 256)
    from mfdma import DegenerateDataError

    with pytest.raises(DegenerateDataError):
        run_pipeline(_quick_cfg(path, n_max=32))


# ------------------------------------------------------------------- emit

def _assert_json_holds(path, bundle):
    """result.json holds every array of ``bundle`` bit for bit: floats round-trip."""
    doc = json.loads(path.read_text())
    est, spec = bundle.estimate, bundle.spectrum
    expected = {
        "fluctuations": {
            "scales": bundle.table.scales.values,
            "qs": bundle.table.qs.values,
            "values": bundle.table.values,
        },
        "scaling": {
            "qs": est.qs.values,
            "h": est.h,
            "h_se": est.h_se,
            "tau": est.tau,
            "tau_se": np.abs(est.qs.values) * est.h_se,
            "fractal_dim": est.fractal_dim,
            "fit_range": est.fit_range,
        },
        "spectrum": {"qs": spec.qs, "alpha": spec.alpha, "f": spec.f, "width": spec.width},
    }
    assert doc["schema"] == "mfdma.result/1"
    assert doc["provenance"] == bundle.provenance
    for block, arrays in expected.items():
        assert set(doc[block]) == set(arrays)
        for key, value in arrays.items():
            got = np.asarray(doc[block][key], dtype=float)
            assert got.shape == np.shape(value), (block, key)
            assert got.tobytes() == np.asarray(value, dtype=float).tobytes(), (block, key)


def test_emit_json_round_trip(measure_file, tmp_path):
    bundle = run_pipeline(_quick_cfg(measure_file))
    (path,) = emit_results(bundle, tmp_path, "json")
    _assert_json_holds(path, bundle)


def test_emit_csv_set_contract(measure_file, tmp_path):
    bundle = run_pipeline(_quick_cfg(measure_file))
    written = emit_results(bundle, tmp_path, "csv-set")
    names = {p.name for p in written}
    assert {"fluctuations.csv", "scaling.csv", "spectrum.csv", "provenance.json"} <= names
    header = (tmp_path / "scaling.csv").read_text().splitlines()[0].split(",")
    assert {"q", "tau", "tau_se"} <= set(header)
    rows = (tmp_path / "scaling.csv").read_text().splitlines()[1:]
    assert len(rows) == len(bundle.estimate.qs.values)
    # tau_se column equals |q| * h_se
    first = rows[0].split(",")
    q0 = float(first[header.index("q")])
    assert float(first[header.index("tau_se")]) == pytest.approx(
        abs(q0) * bundle.estimate.h_se[0]
    )
    flu_header = (tmp_path / "fluctuations.csv").read_text().splitlines()[0]
    assert flu_header.startswith("n,")


def test_emit_plot_data_blocks(measure_file, tmp_path):
    # q in {-4, 0, 4}; the 3-point grid needs the smallest slope window
    cfg = _quick_cfg(measure_file, q_step=4.0, legendre_half_window=1)
    bundle = run_pipeline(cfg)
    written = emit_results(bundle, tmp_path, "plot-data")
    names = {p.name for p in written}
    assert {"fq_vs_n.dat", "tau_vs_q.dat", "f_vs_alpha.dat"} <= names
    text = (tmp_path / "fq_vs_n.dat").read_text()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert len(blocks) == 3
    assert blocks[0].startswith("# q = -4")
    # two columns of parseable floats
    row = blocks[0].splitlines()[1].split()
    assert len(row) == 2
    float(row[0]), float(row[1])


def test_emit_plot_data_with_reference(measure_file, tmp_path):
    from mfdma import analytic_tau_1d

    cfg = _quick_cfg(measure_file, legendre_half_window=1)
    bundle = run_pipeline(cfg)
    ref = analytic_tau_1d(0.3, bundle.estimate.qs.values)
    written = emit_results(bundle, tmp_path, "plot-data", tau_reference=ref)
    assert any(p.name == "dtau_vs_q.dat" for p in written)


def test_emit_rejects_unknown_format(measure_file, tmp_path):
    bundle = run_pipeline(_quick_cfg(measure_file))
    with pytest.raises(ValidationError):
        emit_results(bundle, tmp_path, "xml")


def test_surface_pipeline_round_trip(tmp_path):
    surface = cascade_measure_2d(CascadeSpec2D(weights=(0.1, 0.2, 0.3, 0.4), levels=6))
    path = tmp_path / "surf.csv"
    write_surface_csv(surface, path)
    cfg = AnalysisConfig(
        mode="surface", input_path=str(path), n_min=2, n_max=16, n_count=6, q_step=0.5
    )
    bundle = run_pipeline(cfg)
    assert bundle.estimate.fractal_dim == 2.0
    assert bundle.estimate.tau[bundle.estimate.qs.values == 0.0][0] == -2.0
    # singularity strengths of a positive cascade stay positive
    assert bundle.spectrum.alpha.min() > 0
    assert bundle.spectrum.width >= 0
    assert np.all(bundle.spectrum.f <= 2.0 + 1e-9)
    (json_path,) = emit_results(bundle, tmp_path / "out", "json")
    _assert_json_holds(json_path, bundle)
