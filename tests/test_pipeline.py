import hashlib
import json
import tracemalloc
import warnings
from dataclasses import replace
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfdma import (
    AnalysisConfig,
    CascadeSpec1D,
    CascadeSpec2D,
    InputFormatError,
    Series,
    Surface,
    ValidationError,
    binomial_measure_1d,
    build_q_grid,
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


@pytest.mark.parametrize("text", ["", "\n\n", "ret\n"])
def test_a_file_without_values_warns_nothing(text, tmp_path):
    # numpy's reader warns on a file without data; only the input error may surface
    path = tmp_path / "x.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputFormatError, match="no data rows"):
            ingest_series(path)
    assert caught == []


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
    "wide-row-after-comma-free-rows": ("surface", "1\n2,3\n", _fails(
        2, "line 2: ragged row, got 2 values, expected 1")),
    "one-column-surface": ("surface", "1\n2\n3\n", [[1.0], [2.0], [3.0]]),
    "series-mixes-commas": ("series", "1,\n2\n3,,\n", [1.0, 2.0, 3.0]),
    "series-extremes": ("series", "-0.0\n5e-324\n1e308\n", [-0.0, 5e-324, 1e308]),
    "non-finite-comma-free-line-3": ("series", "1\n2\n 1e999 \n", _fails(
        3, "line 3: non-finite value '1e999'")),
    # numpy's reader rejects every trailing comma; the Python reader drops one per line
    "commas-only-series": ("series", ",,", _fails(None, "no data rows")),
    "commas-only-surface": ("surface", ",,", _fails(1, "line 1: not a number: ''")),
    "trailing-comma-on-line-1-only": ("surface", "1,2,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "trailing-comma-without-final-newline-surface": (
        "surface", "1,2,\n3,4,", [[1.0, 2.0], [3.0, 4.0]]),
    "trailing-comma-without-final-newline-series": ("series", "1,\n2,", [1.0, 2.0]),
    "comma-only-line-after-trailing-commas": ("surface", "1,2,\n,\n3,4,\n", _fails(
        2, "line 2: not a number: ''")),
    "blank-comma-line-after-trailing-commas": ("series", "1,\n ,\n2,\n", _fails(
        2, "line 2: not a number: ''")),
}


def _outcome(ingest, path):
    """What ``ingest`` makes of ``path``: its values, or its input error."""
    try:
        values = ingest(path).values
    except InputFormatError as exc:
        return type(exc), str(exc), exc.line
    return values.dtype.name, values.shape, values.tobytes()


def _no_numpy_reader(*args, **kwargs):
    raise RuntimeError("numpy's reader is switched off")


def _both_readers(ingest, path):
    """The outcome with numpy's reader in front, and with the Python reader alone."""
    fast = _outcome(ingest, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline.np, "loadtxt", _no_numpy_reader)
        slow = _outcome(ingest, path)
    return fast, slow


@pytest.mark.parametrize("case", INGEST_CORPUS)
def test_ingest_corpus(case, tmp_path):
    kind, text, expected = INGEST_CORPUS[case]
    path = tmp_path / "in.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    fast, slow = _both_readers(ingest_series if kind == "series" else ingest_surface, path)
    assert fast == slow
    if isinstance(expected, list):
        expected = np.array(expected)
        assert fast == ("float64", expected.shape, expected.tobytes())
    else:
        cls, message, line = expected
        assert fast == (cls, f"{path}: {message}", line)


# lines drawn from a small alphabet, mostly not numbers
_ODD_TOKENS = ["0", "1", "7", ".", "e", "-", ",", " ", "\r", "a", "x", "nan", "inf", "1e999"]
_ODD_LINE = st.lists(st.sampled_from(_ODD_TOKENS), max_size=6).map("".join)
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def _ingest_texts(draw):
    """Short files: odd lines, or rows of reprs with one odd line or stray comma mixed in."""
    if draw(st.booleans()):
        lines = draw(st.lists(_ODD_LINE, max_size=5))
    else:
        width = draw(st.integers(1, 3))
        row = st.lists(_NUMBER, min_size=width, max_size=width).map(",".join)
        lines = draw(st.lists(row, min_size=1, max_size=5))
        i = draw(st.integers(0, len(lines) - 1))
        lead, trail = draw(st.sampled_from(["", ",", ", "])), draw(st.sampled_from(["", ",", " ,"]))
        lines[i] = lead + lines[i] + trail
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINE))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("parity") / "in.csv"


@settings(max_examples=400, deadline=None)
@given(text=_ingest_texts())
def test_numpy_reader_agrees_with_the_python_reader(text, scratch_csv):
    """numpy's reader may only return what the Python reader returns, under both column rules."""
    scratch_csv.write_bytes(text.encode())
    for ingest in (ingest_series, ingest_surface):
        fast, slow = _both_readers(ingest, scratch_csv)
        assert fast == slow


def test_series_and_surfaces_have_one_writer():
    assert write_surface_csv is write_series_csv


def test_ingest_input_needs_an_input_path():
    with pytest.raises(ValidationError, match="^config has no input path$"):
        pipeline.ingest_input(AnalysisConfig())


def _write_cascades(tmp_path):
    """A binomial series and a cascade surface as written, and the variants of their text."""
    series = binomial_measure_1d(CascadeSpec1D(p1=0.3, levels=8))
    surface = cascade_measure_2d(CascadeSpec2D(weights=(0.1, 0.2, 0.3, 0.4), levels=4))
    write_series_csv(series, tmp_path / "series.csv")
    write_surface_csv(surface, tmp_path / "surface.csv")
    text = (tmp_path / "series.csv").read_text()
    (tmp_path / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode())
    (tmp_path / "headed.csv").write_text("ret\n" + text)
    (tmp_path / "commas.csv").write_bytes(text.replace("\n", ",\r\n").encode())
    surface_text = (tmp_path / "surface.csv").read_text()
    (tmp_path / "surface-commas.csv").write_text(surface_text.replace("\n", ",\n"))
    return series, surface


def test_valid_files_never_reach_the_python_reader(tmp_path, monkeypatch):
    """A broken numpy path would fall back silently; here the fallback fails instead."""
    def python_reader(*args, **kwargs):
        raise AssertionError("the Python reader ran")

    series, surface = _write_cascades(tmp_path)
    monkeypatch.setattr(pipeline, "_read_rows", python_reader)
    for name in ("series.csv", "crlf.csv"):
        assert ingest_series(tmp_path / name).values.tobytes() == series.values.tobytes()
    assert ingest_surface(tmp_path / "surface.csv").values.tobytes() == surface.values.tobytes()


def test_headed_and_comma_files_read_the_written_values(tmp_path):
    # numpy's reader rejects a header or a trailing comma; the Python reader takes both
    series, surface = _write_cascades(tmp_path)
    for name in ("headed.csv", "commas.csv"):
        assert ingest_series(tmp_path / name).values.tobytes() == series.values.tobytes()
    surface_commas = ingest_surface(tmp_path / "surface-commas.csv")
    assert surface_commas.values.tobytes() == surface.values.tobytes()


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


# edge cases of repr: both signed zeros, equal as floats but printed apart,
# the smallest subnormal, the largest double, and the switches to exponent notation
REPR_EDGES = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e-7, 1e16]


def assert_same_lines(text, expected):
    """``text == expected``, reported as the first line that differs.

    pytest's own diff of two texts of some 100 KB can run for minutes.
    """
    pairs = zip_longest(text.splitlines(keepends=True), expected.splitlines(keepends=True))
    for line_no, (got, want) in enumerate(pairs, start=1):
        assert got == want, f"line {line_no}: got {got!r}, expected {want!r}"


@pytest.mark.parametrize("length, distinct", [
    *(pytest.param(length, 9, id=str(length)) for length in (1, 4095, 4096, 4097, 8193)),
    # pieces mostly distinct: one repr per value
    pytest.param(8193, 8193, id="8193-all-distinct"),
    # one piece with exactly half, and just over half, of its values distinct
    pytest.param(4096, 2048, id="4096-half-distinct"),
    pytest.param(4096, 2049, id="4096-over-half-distinct"),
])
def test_series_csv_pieces_make_the_one_shot_text(length, distinct, tmp_path):
    rng = np.random.default_rng(length)
    values = np.resize(REPR_EDGES + rng.standard_normal(distinct - len(REPR_EDGES)).tolist(), length)
    series = Series(values)
    path = tmp_path / "s.csv"
    write_series_csv(series, path)
    assert_same_lines(path.read_text(), "".join(f"{v!r}\n" for v in values.tolist()))
    assert ingest_series(path).values.tobytes() == values.tobytes()


def test_surface_csv_is_the_one_shot_text(tmp_path):
    # one piece; pieces of 4 rows and a last one of 1; rows wider than a piece.
    # The last row is noise, so a piece of it has mostly distinct values.
    for shape in [(3, 5), (5, 1000), (3, 4097)]:
        values = np.resize(REPR_EDGES + [1.5, -2.25], shape)
        values[-1] = np.random.default_rng(shape[1]).standard_normal(shape[1])
        path = tmp_path / f"{shape}.csv"
        write_surface_csv(Surface(values), path)
        expected = "".join(",".join(f"{v!r}" for v in row) + "\n" for row in values.tolist())
        assert_same_lines(path.read_text(), expected)
        assert ingest_surface(path).values.tobytes() == values.tobytes()


def _memo_pieces(piece):
    """Four pieces of ``piece`` values each, as the writers' memo meets them.

    Only -0.0, then only 0.0, which a memo keyed on float values would print
    alike; then noise, mostly distinct, and a repetition of that noise's
    first values, which the memo meets for the first time.
    """
    noise = np.random.default_rng(piece).standard_normal(piece)
    return np.concatenate([np.full(piece, -0.0), np.zeros(piece), noise, np.resize(noise[:9], piece)])


def test_series_csv_memo_spans_pieces(tmp_path):
    values = _memo_pieces(pipeline._CSV_CHUNK)
    path = tmp_path / "s.csv"
    write_series_csv(Series(values), path)
    assert_same_lines(path.read_text(), "".join(f"{v!r}\n" for v in values.tolist()))
    assert ingest_series(path).values.tobytes() == values.tobytes()


def test_surface_csv_memo_spans_row_pieces(tmp_path):
    width = 1024
    rows_per_piece = pipeline._CSV_CHUNK // width
    values = _memo_pieces(rows_per_piece * width).reshape(-1, width)
    path = tmp_path / "s.csv"
    write_surface_csv(Surface(values), path)
    expected = "".join(",".join(f"{v!r}" for v in row) + "\n" for row in values.tolist())
    assert_same_lines(path.read_text(), expected)
    assert ingest_surface(path).values.tobytes() == values.tobytes()


# columns as the emitters pass them: lists of ints, tuples, arrays; mostly repeated; empty;
# mostly repeated over several pieces, so the memo spans them; one column, no comma join
@pytest.mark.parametrize("columns", [
    [[1, 2, 3], (0.5, -0.0, 0.0), np.array(REPR_EDGES[:3])],
    [np.resize(REPR_EDGES, 64), np.arange(64)],
    [[], []],
    [np.resize(REPR_EDGES, 3000), np.resize([-0.0, 0.25], 3000), np.arange(3000) % 7],
    [np.resize(REPR_EDGES + [0.1], 50)],
])
def test_csv_table_is_one_repr_per_cell(columns):
    header = [f"c{i}" for i in range(len(columns))]
    rows = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    expected = "\n".join([",".join(header)] + rows) + "\n"
    assert_same_lines(pipeline.csv_table(header, columns), expected)


def _traced_peak(call):
    """The result of ``call()`` and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["series", "surface"])
def test_ingest_holds_little_more_than_its_values(kind, tmp_path):
    # 8 bytes per value: no Python float per value, no list per row
    rng = np.random.default_rng(5)
    path = tmp_path / "in.csv"
    if kind == "series":
        write_series_csv(Series(rng.standard_normal(2**16)), path)
        values, peak = _traced_peak(lambda: ingest_series(path).values)
    else:
        write_surface_csv(Surface(rng.standard_normal((256, 256))), path)
        values, peak = _traced_peak(lambda: ingest_surface(path).values)
    assert values.size == 2**16
    assert peak <= 2 * values.nbytes


@pytest.mark.parametrize("kind", ["cascade", "noise", "new-values"])
def test_surface_writer_holds_one_piece_at_a_time(kind, tmp_path):
    # a bound set by the piece, not by the surface's 2 MB of values and 5 MB of text
    rng = np.random.default_rng(6)
    if kind == "cascade":
        surface = cascade_measure_2d(CascadeSpec2D((0.1, 0.2, 0.3, 0.4), levels=9))
    elif kind == "noise":
        surface = Surface(rng.standard_normal((512, 512)))
    else:
        # every piece half distinct, with values no earlier piece had: the memo
        # of formatted values must not grow with the file
        surface = Surface(np.repeat(rng.standard_normal(2**17), 2).reshape(512, 512))
    _, peak = _traced_peak(lambda: write_surface_csv(surface, tmp_path / "s.csv"))
    assert peak <= 256 * pipeline._CSV_CHUNK


@pytest.mark.parametrize("ingest", [ingest_series, ingest_surface])
def test_ingest_does_not_fall_back_when_numpy_runs_out_of_memory(
    ingest, tmp_path, monkeypatch, count_calls
):
    # the Python reader holds more per value than numpy's
    path = tmp_path / "in.csv"
    path.write_text("1.0\n2.0\n")

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(np, "loadtxt", out_of_memory)
    calls = count_calls(pipeline, "_read_rows")
    with pytest.raises(MemoryError):
        ingest(path)
    assert calls["_read_rows"] == 0


# ----------------------------------------------------------------- config

def test_config_validation():
    # a config checks itself when it is built, by replace too
    with pytest.raises(ValidationError):
        AnalysisConfig(mode="cube")
    with pytest.raises(ValidationError):
        AnalysisConfig(method="wavelet")
    with pytest.raises(ValidationError):
        AnalysisConfig(theta=1.5)
    with pytest.raises(ValidationError):
        AnalysisConfig(out_format="yaml")
    with pytest.raises(ValidationError, match="theta must lie in"):
        replace(AnalysisConfig(), theta=2.0)
    AnalysisConfig()


@pytest.mark.parametrize("field, value", [
    ("n_min", 10.5), ("seed", np.int64(3)), ("theta", "0.5"), ("legendre_half_window", True),
], ids=["int-given-float", "int-given-numpy-int", "float-given-string", "int-given-bool"])
def test_config_fields_must_have_their_declared_type(field, value):
    # the rule a --config file's keys follow, for a config built in Python too
    with pytest.raises(ValidationError, match=f"^{field} must be "):
        AnalysisConfig(**{field: value})
    with pytest.raises(ValidationError, match=f"^{field} must be "):
        replace(AnalysisConfig(), **{field: value})


def test_config_precedence_defaults_file_flags(tmp_path):
    from mfdma import cli

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"theta": 0.5, "n_max": 200, "q_step": 0.5}))
    args = cli.build_parser().parse_args(
        ["analyze", "--theta", "1.0", "--input", "x.csv", "--config", str(cfg_file)]
    )
    cfg = cli._config(args, AnalysisConfig.read_config_file(args.config))
    assert cfg.theta == 1.0       # flag beats file
    assert cfg.n_max == 200       # file beats default
    assert cfg.q_step == 0.5
    assert cfg.q_min == -4.0      # default survives


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"qmin": 1}))
    with pytest.raises(ValidationError, match="qmin"):
        AnalysisConfig.read_config_file(str(cfg_file))


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

    # the names analyze_all looks up
    for name in ("_mfdma_tables_1d", "mfdfa_fluctuations_1d",
                 "_mfdma_tables_2d", "mfdfa_fluctuations_2d"):
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


def test_emitted_q_labels_name_every_q_apart(measure_file, tmp_path):
    # six significant digits would name these 31 q with 4 labels
    bundle = run_pipeline(_quick_cfg(measure_file, q_min=1.0, q_max=1.00003, q_step=0.000001))
    emit_results(bundle, tmp_path, "csv-set")
    emit_results(bundle, tmp_path, "plot-data")
    labels = [f"{1 + k / 1e6:.7g}" for k in range(31)]
    header = (tmp_path / "fluctuations.csv").read_text().splitlines()[0].split(",")
    assert header[1:] == [f"F[q={label}]" for label in labels]
    titles = [line for line in (tmp_path / "fq_vs_n.dat").read_text().splitlines()
              if line.startswith("#")]
    assert titles == [f"# q = {label}" for label in labels]


@pytest.mark.parametrize("grid", [(-4, 4, 0.1), (-4, 4, 1), (-4, 4, 0.001), (-10, 10, 0.001)])
def test_q_labels_that_six_digits_tell_apart_keep_six_digits(grid):
    # on -10..10 by 0.001, twelve digits would name q = -0.001 -0.000999999999999
    qs = build_q_grid(*grid).values
    assert pipeline._q_labels(qs) == [f"{q:g}" for q in qs]


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
