import tracemalloc

import numpy as np
import pytest

from mfdma import (
    DegenerateSegmentError,
    DetrendConfig2D,
    Surface,
    ValidationError,
    build_q_grid,
    build_scale_grid,
    fit_scaling,
    mfdfa_fluctuations_2d,
    mfdma_fluctuations_2d,
    residual_matrix_2d,
    segment_rms_2d,
    window_aggregates,
)
from mfdma import dma1d, dma2d
from mfdma.dma2d import RECOMPUTE_EVERY, _plane_residuals
from mfdma.pipeline import AnalysisConfig, _resolve_grids
from mfdma.spectrum import as_scale_grid


def naive_aggregates(values, n1, n2):
    """Brute-force re-derivation of the window sums and cumulative means."""
    rows = values.shape[0] - n1 + 1
    cols = values.shape[1] - n2 + 1
    total = np.empty((rows, cols))
    cummean = np.empty((rows, cols))
    for j in range(rows):
        for k in range(cols):
            window = values[j:j + n1, k:k + n2]
            cum = window.cumsum(axis=0).cumsum(axis=1)
            total[j, k] = cum[-1, -1]
            cummean[j, k] = cum.mean()
    return total, cummean


def dyadic_surface(rng, shape, denom=2**16):
    """Random surface whose values and window sums are exact in float64."""
    return rng.integers(0, denom, size=shape).astype(float) / denom


# ------------------------------------------------------------ aggregates

def test_window_aggregates_hand_example():
    cfg = DetrendConfig2D(2, 2)
    agg = window_aggregates(np.array([[1.0, 2.0], [3.0, 4.0]]), cfg)
    # cumulative sum field is [[1, 3], [4, 10]]
    assert agg.total.shape == (1, 1)
    assert agg.total[0, 0] == 10.0
    assert agg.cummean[0, 0] == 4.5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_window_aggregates_constant_surface_closed_form(n):
    c = 0.375
    values = np.full((12, 12), c)
    agg = window_aggregates(values, DetrendConfig2D(n, n))
    assert np.allclose(agg.total, n * n * c, rtol=1e-13)
    assert np.allclose(agg.cummean, c * (n + 1) ** 2 / 4.0, rtol=1e-13)
    # cross-check the closed form by brute force
    _, cummean = naive_aggregates(values, n, n)
    assert np.allclose(agg.cummean, cummean, rtol=1e-13)


def test_window_aggregates_zero_surface():
    agg = window_aggregates(np.zeros((8, 8)), DetrendConfig2D(3, 3))
    assert not agg.total.any()
    assert not agg.cummean.any()


def test_window_aggregates_match_brute_force(rng):
    for _ in range(10):
        shape = tuple(rng.integers(6, 17, size=2))
        n1, n2 = rng.integers(2, 5, size=2)
        values = rng.standard_normal(shape)
        agg = window_aggregates(values, DetrendConfig2D(int(n1), int(n2)))
        total, cummean = naive_aggregates(values, int(n1), int(n2))
        assert np.allclose(agg.total, total, rtol=1e-12, atol=1e-13)
        assert np.allclose(agg.cummean, cummean, rtol=1e-12, atol=1e-13)


def test_window_aggregates_exact_on_dyadic_inputs(rng):
    values = dyadic_surface(rng, (16, 16))
    agg = window_aggregates(values, DetrendConfig2D(4, 3))
    total, cummean = naive_aggregates(values, 4, 3)
    assert np.array_equal(agg.total, total)
    assert np.array_equal(agg.cummean, cummean)


def test_window_aggregates_rolling_refresh_long_slide(rng):
    # sliding span beyond RECOMPUTE_EVERY exercises the refresh path; the
    # incremental drift between refreshes stays below ~steps * eps * scale
    values = rng.standard_normal((600, 5))
    agg = window_aggregates(values, DetrendConfig2D(3, 2))
    total, cummean = naive_aggregates(values, 3, 2)
    assert np.allclose(agg.total, total, rtol=1e-12, atol=1e-12)
    assert np.allclose(agg.cummean, cummean, rtol=1e-12, atol=1e-12)


def test_window_aggregates_rolling_refresh_long_second_axis_slide(rng):
    # the second axis carries its steps by a cumsum per chunk of columns
    values = rng.standard_normal((5, 600))
    agg = window_aggregates(values, DetrendConfig2D(2, 3))
    total, cummean = naive_aggregates(values, 2, 3)
    assert np.allclose(agg.total, total, rtol=1e-12, atol=1e-12)
    assert np.allclose(agg.cummean, cummean, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize(
    "slides", [2 * RECOMPUTE_EVERY - 1, 2 * RECOMPUTE_EVERY, 2 * RECOMPUTE_EVERY + 1]
)
def test_window_aggregates_at_the_refresh_edges(rng, axis, slides):
    # `slides` window positions along `axis`: a full chunk and then a second one
    # short of full, two full chunks, or two full chunks plus a lone exactly
    # recomputed position
    n1, n2 = 3, 4
    shape = [6, 7]
    shape[axis] = slides + (n1, n2)[axis] - 1
    values = rng.standard_normal(shape)
    agg = window_aggregates(values, DetrendConfig2D(n1, n2))
    total, cummean = naive_aggregates(values, n1, n2)
    assert agg.total.shape[axis] == slides
    assert np.allclose(agg.total, total, rtol=1e-12, atol=1e-12)
    assert np.allclose(agg.cummean, cummean, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [2, 8])
def test_window_aggregates_peak_memory(rng, n):
    # both outputs plus two strips of RECOMPUTE_EVERY rows; no transposed copies
    values = rng.standard_normal((512, 512))
    tracemalloc.start()
    try:
        window_aggregates(values, DetrendConfig2D(n, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * values.nbytes


def test_window_aggregates_return_fresh_arrays_and_keep_their_input(rng):
    values = rng.standard_normal((40, 50))
    kept = values.copy()
    cfg = DetrendConfig2D(4, 4)
    first, second = window_aggregates(values, cfg), window_aggregates(values, cfg)
    for a in (first.total, first.cummean):
        for b in (second.total, second.cummean, values):
            assert not np.shares_memory(a, b)
    assert not np.shares_memory(first.total, first.cummean)
    assert np.array_equal(values, kept)


def test_window_aggregates_of_a_row_range_are_bitwise_those_rows_of_the_whole(rng):
    values = rng.standard_normal((300, 60))
    cfg = DetrendConfig2D(5, 4)
    whole = window_aggregates(values, cfg)
    for first, stop in [(0, 7), (RECOMPUTE_EVERY, 2 * RECOMPUTE_EVERY), (2 * RECOMPUTE_EVERY, 296)]:
        part = window_aggregates(values, cfg, rows=(first, stop))
        assert part.total.tobytes() == whole.total[first:stop].tobytes()
        assert part.cummean.tobytes() == whole.cummean[first:stop].tobytes()
    for rows in [(1, 7), (0, 0), (RECOMPUTE_EVERY, 297)]:
        with pytest.raises(ValidationError):
            window_aggregates(values, cfg, rows=rows)


def test_window_aggregates_reject_oversize_window():
    with pytest.raises(ValidationError):
        window_aggregates(np.zeros((4, 4)), DetrendConfig2D(5, 2))


# ------------------------------------------------------------- residuals

def test_residual_shapes_across_theta(rng):
    values = rng.standard_normal((40, 34))
    for n in range(2, 17):
        for theta in (0.0, 0.5, 1.0):
            cfg = DetrendConfig2D(n, n, theta)
            agg = window_aggregates(values, cfg)
            assert agg.total.shape == (40 - n + 1, 34 - n + 1)
            eps = residual_matrix_2d(agg, cfg)
            d = min(int(n * theta), n - 1)
            assert eps.shape == (40 - n + 1 - d, 34 - n + 1 - d)


def test_residual_backward_alignment_is_identity(rng):
    values = rng.standard_normal((12, 12))
    cfg = DetrendConfig2D(3, 3, 0.0)
    agg = window_aggregates(values, cfg)
    eps = residual_matrix_2d(agg, cfg)
    assert eps.shape == agg.total.shape
    assert np.array_equal(eps, agg.total - agg.cummean)


def test_residual_constant_surface_is_constant():
    c, n = 1.5, 4
    cfg = DetrendConfig2D(n, n, 0.0)
    agg = window_aggregates(np.full((16, 16), c), cfg)
    eps = residual_matrix_2d(agg, cfg)
    expected = c * (n * n - (n + 1) ** 2 / 4.0)
    assert np.allclose(eps, expected, rtol=1e-12)


def test_residual_forward_shrinks_by_n_minus_one(rng):
    values = rng.standard_normal((20, 20))
    cfg = DetrendConfig2D(4, 4, 1.0)
    eps = residual_matrix_2d(window_aggregates(values, cfg), cfg)
    assert eps.shape == (20 - 4 + 1 - 3, 20 - 4 + 1 - 3)


def test_residual_rejects_mismatched_config(rng):
    values = rng.standard_normal((12, 12))
    agg = window_aggregates(values, DetrendConfig2D(3, 3))
    with pytest.raises(ValidationError):
        residual_matrix_2d(agg, DetrendConfig2D(4, 4))


# -------------------------------------------------------------- segments

def test_segment_rms_2d_hand_example():
    segs = segment_rms_2d(np.array([[3.0, 4.0], [0.0, 0.0]]), 2)
    assert segs.values == pytest.approx([2.5])


def test_segment_rms_2d_zero_matrix():
    assert not segment_rms_2d(np.zeros((6, 6)), 3).values.any()


def test_segment_rms_2d_truncates_remainders(rng):
    eps = rng.standard_normal((5, 5))
    segs = segment_rms_2d(eps, 2)
    assert segs.values.size == 4
    manual = [
        np.sqrt(np.mean(eps[a:a + 2, b:b + 2] ** 2))
        for a in (0, 2)
        for b in (0, 2)
    ]
    assert np.allclose(segs.values, manual)


def test_segment_rms_2d_rejects_oversize_blocks():
    with pytest.raises(ValidationError):
        segment_rms_2d(np.ones((3, 8)), 4)


# ------------------------------------------------------------- mfdma 2d

def test_mfdma2d_monotone_in_q(rng):
    values = rng.random((64, 64)) + 0.1
    table = mfdma_fluctuations_2d(values, [4, 8, 16], [-2.0, 0.0, 2.0], theta=0.0)
    for row in table.values:
        assert row[0] <= row[1] <= row[2]


def test_mfdma2d_zero_surface_is_degenerate():
    with pytest.raises(DegenerateSegmentError):
        mfdma_fluctuations_2d(np.zeros((64, 64)), [4, 8], [-2.0, 0.0, 2.0])


def test_mfdma2d_scaling_equivariance(rng):
    values = rng.random((48, 48))
    base = mfdma_fluctuations_2d(values, [3, 6, 12], [-2.0, 0.0, 2.0])
    scaled = mfdma_fluctuations_2d(8.0 * values, [3, 6, 12], [-2.0, 0.0, 2.0])
    assert np.allclose(scaled.values, 8.0 * base.values, rtol=1e-12)
    assert np.allclose(fit_scaling(base, fractal_dim=2.0).h,
                       fit_scaling(scaled, fractal_dim=2.0).h, atol=1e-12)


def test_mfdma2d_transpose_symmetry(rng):
    dyadic = dyadic_surface(rng, (40, 40))
    for theta in (0.0, 0.5, 1.0):
        a = mfdma_fluctuations_2d(dyadic, [2, 4, 8], [-1.0, 0.0, 2.0], theta=theta)
        b = mfdma_fluctuations_2d(dyadic.T, [2, 4, 8], [-1.0, 0.0, 2.0], theta=theta)
        assert np.allclose(a.values, b.values, rtol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["noise-300x517", "dyadic-256x256"])
def test_pass_workspace_is_bitwise_the_allocating_functions(rng, kind, theta):
    if kind.startswith("noise"):
        values, scales = rng.standard_normal((300, 517)), build_scale_grid(2, 75, 10)
    else:
        values, scales = dyadic_surface(rng, (256, 256)), build_scale_grid(2, 64, 8)
    qs = [-3.0, 0.0, 2.0]

    def rms_at(n):
        cfg = DetrendConfig2D(n, n, theta)
        return segment_rms_2d(residual_matrix_2d(window_aggregates(values, cfg), cfg), n).values

    expected = dma1d._fluctuation_tables(scales, qs, lambda n: [rms_at(n)])[0]
    table = mfdma_fluctuations_2d(values, scales, qs, theta)
    assert table.values.tobytes() == expected.values.tobytes()


def test_the_pass_calls_each_traced_name_once_per_scale(count_calls):
    # perfbench/tracing.py times the layers through these names; a pass
    # that bypassed them would read 0 there
    counts = count_calls(dma2d, "window_aggregates", "residual_matrix_2d", "segment_rms_2d")
    count_calls(dma1d, "_power_mean")
    scales = [2, 4, 8]
    mfdma_fluctuations_2d(np.random.default_rng(1).random((40, 36)), scales, [-1.0, 2.0], 0.5)
    assert counts == dict.fromkeys(counts, len(scales))
    mfdfa_fluctuations_2d(np.random.default_rng(1).random((40, 36)), scales, [-1.0, 2.0])
    assert counts["_power_mean"] == 2 * len(scales)


THETAS = [0.0, 0.5, 1.0]


@pytest.mark.parametrize("kind", ["noise-300x517", "dyadic-256x256"])
def test_a_pass_over_three_thetas_is_bitwise_three_single_theta_passes(rng, kind):
    if kind.startswith("noise"):
        values, scales = rng.standard_normal((300, 517)), build_scale_grid(2, 75, 10)
    else:
        values, scales = dyadic_surface(rng, (256, 256)), build_scale_grid(2, 64, 8)
    qs = build_q_grid(-4.0, 4.0, 0.1)
    tables = dma2d._mfdma_tables_2d(values, scales, qs, THETAS)
    for theta, table in zip(THETAS, tables):
        expected = mfdma_fluctuations_2d(values, scales, qs, theta)
        assert table.values.tobytes() == expected.values.tobytes()


def test_a_pass_over_three_thetas_aggregates_once_per_scale(count_calls):
    counts = count_calls(dma2d, "window_aggregates", "residual_matrix_2d", "segment_rms_2d")
    count_calls(dma1d, "_power_mean")
    scales = [2, 4, 8]
    dma2d._mfdma_tables_2d(np.random.default_rng(1).random((40, 36)), scales, [-1.0, 2.0], THETAS)
    assert counts["window_aggregates"] == len(scales)
    assert counts["residual_matrix_2d"] == counts["segment_rms_2d"] == 3 * len(scales)
    assert counts["_power_mean"] == 3 * len(scales)


def test_pass_peak_memory(rng):
    # the window sums and means of the smallest scale and two strips, for the
    # whole pass; the residual and its squares overwrite the window sums
    values = rng.standard_normal((512, 512))
    scales = build_scale_grid(4, 128, 10)
    tracemalloc.start()
    try:
        mfdma_fluctuations_2d(values, scales, [-2.0, 0.0, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * values.nbytes


@pytest.mark.parametrize(
    "estimator, bound",
    [(mfdma_fluctuations_2d, 3.1), (mfdfa_fluctuations_2d, 2.8)],
    ids=["mfdma", "mfdfa"],
)
def test_pass_peak_memory_on_the_default_q_grid(rng, estimator, bound):
    # the power means of a block of q rows run in the pass's workspace; 2-d MFDFA
    # read 6.2x when its power means held every q at once in a fresh array, and
    # 3.22x when it formed its fitted planes and residuals in fresh arrays
    values = rng.standard_normal((512, 512))
    scales = build_scale_grid(4, 128, 10)
    qs = build_q_grid(-4.0, 4.0, 0.1)
    estimator(values, scales, qs)
    tracemalloc.start()
    try:
        estimator(values, scales, qs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * values.nbytes


# ------------------------------------------- the pass in bands of block rows

# more rows than one strip, and scales up to the N/4 cap, past one strip too
BANDED_SHAPE, BANDED_SCALES = (600, 530), build_scale_grid(2, 132, 12)


# the largest shift need not come last; at scales up to 4 the pass's workspace
# is sized by the power means of the smallest scale, not by its row window
@pytest.mark.parametrize("scales", [BANDED_SCALES, [2, 3, 4]], ids=["to-cap", "small"])
@pytest.mark.parametrize("thetas", [[0.0], [0.5], [1.0], THETAS, THETAS[::-1]], ids=str)
def test_the_banded_pass_is_bitwise_the_whole_surface_composition(rng, thetas, scales):
    values = rng.standard_normal(BANDED_SHAPE)
    qs = build_q_grid(-4.0, 4.0, 0.5)

    def rms_at(n):
        aggregates = window_aggregates(values, DetrendConfig2D(n, n))
        return [segment_rms_2d(residual_matrix_2d(aggregates, cfg), n).values
                for cfg in (DetrendConfig2D(n, n, theta) for theta in thetas)]

    expected = dma1d._fluctuation_tables(as_scale_grid(scales), qs, rms_at)
    tables = dma2d._mfdma_tables_2d(values, scales, qs, thetas)
    for table, reference in zip(tables, expected, strict=True):
        assert table.values.tobytes() == reference.values.tobytes()


def test_the_banded_pass_forms_each_window_row_once(rng, monkeypatch):
    values = rng.standard_normal(BANDED_SHAPE)
    formed = {}
    aggregate = dma2d.window_aggregates

    def spy(surface, cfg, **kwargs):
        start, stop = kwargs["rows"]
        assert start == sum(formed.get(cfg.n1, []))
        formed.setdefault(cfg.n1, []).append(stop - start)
        return aggregate(surface, cfg, **kwargs)

    monkeypatch.setattr(dma2d, "window_aggregates", spy)
    dma2d._mfdma_tables_2d(values, BANDED_SCALES, [-1.0, 2.0], THETAS)
    assert sorted(formed) == BANDED_SCALES.values.tolist()
    for n, strips in formed.items():
        assert sum(strips) == values.shape[0] - n + 1
        assert all(rows == RECOMPUTE_EVERY for rows in strips[:-1])


@pytest.mark.parametrize("thetas, bound", [([0.0], 1.25), (THETAS, 2.6)], ids=["one", "three"])
def test_the_banded_pass_holds_no_surface_sized_scratch(cascade_k10, thetas, bound):
    # with window sums and means over the whole surface the pass read 2.25x
    # with one theta, and 3.27x with three, whose spare residuals spanned it too
    scales, qs, *_ = _resolve_grids(AnalysisConfig(mode="surface"), cascade_k10.shape)
    tracemalloc.start()
    try:
        dma2d._mfdma_tables_2d(cascade_k10, scales, qs, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * cascade_k10.values.nbytes


def test_mfdma2d_scale_cap_is_enforced():
    with pytest.raises(ValidationError):
        mfdma_fluctuations_2d(np.ones((32, 32)), [2, 9], [2.0])


def test_mfdma2d_small_surface_needs_four_rows():
    with pytest.raises(ValidationError, match="at least 4"):
        mfdma_fluctuations_2d(np.ones((1, 32)), [2], [2.0])


# ------------------------------------------------------------- mfdfa 2d

def test_plane_residuals_remove_exact_planes():
    n = 4
    u, v = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float), indexing="ij")
    plane = 3.0 + 2.0 * u - 5.0 * v
    resid = _plane_residuals(plane[None, None])
    assert np.array_equal(resid, np.zeros_like(resid))


def test_mfdfa2d_planes_in_the_pass_buffer_are_bitwise_fresh_arrays(rng):
    # the block RMS sums the residuals in an order set by their layout, so
    # the buffered planes must be laid out as fresh arrays would be
    values = rng.standard_normal((300, 517))
    scales = build_scale_grid(4, 75, 10)
    qs = [-3.0, 0.0, 2.0]

    def rms_at(n):
        cut = values[:values.shape[0] // n * n, :values.shape[1] // n * n]
        cut = cut.reshape(cut.shape[0] // n, n, cut.shape[1] // n, n)
        blocks = np.empty(cut.shape).transpose(0, 2, 1, 3)
        np.cumsum(cut.transpose(0, 2, 1, 3), axis=2, out=blocks)
        np.cumsum(blocks, axis=3, out=blocks)
        uc = np.arange(n, dtype=float) - (n - 1) / 2
        denom = float(np.dot(uc, uc)) * n
        slope_u = np.einsum("...uv,u->...", blocks, uc) / denom
        slope_v = np.einsum("...uv,v->...", blocks, uc) / denom
        trend = (
            blocks.mean(axis=(-2, -1))[..., None, None]
            + slope_u[..., None, None] * uc[:, None]
            + slope_v[..., None, None] * uc[None, :]
        )
        return np.sqrt(np.mean(np.square(blocks - trend), axis=(2, 3))).ravel()

    expected = dma1d._fluctuation_tables(scales, qs, lambda n: [rms_at(n)])[0]
    table = mfdfa_fluctuations_2d(values, scales, qs)
    assert table.values.tobytes() == expected.values.tobytes()


def test_mfdfa2d_q0_column_is_geometric_mean_of_block_rms(rng):
    values = rng.random((32, 32)) + 0.1
    n = 8
    table = mfdfa_fluctuations_2d(values, [n], [0.0])
    # independent recomputation with per-block least squares
    rms = []
    for a in range(0, 32, n):
        for b in range(0, 32, n):
            block = values[a:a + n, b:b + n].cumsum(axis=0).cumsum(axis=1)
            u = np.arange(n, dtype=float)
            uu, vv = np.meshgrid(u, u, indexing="ij")
            design = np.column_stack([np.ones(n * n), uu.ravel(), vv.ravel()])
            coef, *_ = np.linalg.lstsq(design, block.ravel(), rcond=None)
            resid = block.ravel() - design @ coef
            rms.append(np.sqrt(np.mean(resid**2)))
    geo = np.exp(np.mean(np.log(rms)))
    assert table.values[0, 0] == pytest.approx(geo, rel=1e-10)


def test_mfdfa2d_reproduces_published_h2(cascade_k10):
    scales = build_scale_grid(8, 256, 15)
    table = mfdfa_fluctuations_2d(cascade_k10, scales, [2.0])
    h2 = fit_scaling(table, fractal_dim=2.0).h[0]
    assert h2 == pytest.approx(1.769, abs=0.05)


def test_mfdma2d_reproduces_published_h2(cascade_k10):
    scales = build_scale_grid(8, 256, 15)
    table = mfdma_fluctuations_2d(cascade_k10, scales, [2.0], theta=0.0)
    h2 = fit_scaling(table, fractal_dim=2.0).h[0]
    assert h2 == pytest.approx(1.829, abs=0.05)


def test_surface_validation():
    with pytest.raises(ValidationError):
        Surface(np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        Surface(np.array([[1.0, np.inf], [0.0, 1.0]]))
