"""Reference implementations the production code is checked against."""
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mfdma import DegenerateSegmentError


def scalar_power_mean(values: np.ndarray, q: float, scale) -> float:
    """q-order power mean of positive values at one q; geometric mean at q = 0.

    The per-q definition that ``dma1d._power_mean`` must match bit for bit
    at every q of a grid.
    """
    if q <= 0 and np.any(values == 0.0):
        raise DegenerateSegmentError(
            f"segment with zero RMS at scale n={scale} makes q={q:g} moments undefined",
            scale=scale,
            q=q,
        )
    if q == 0:
        return float(np.exp(np.mean(np.log(values))))
    with np.errstate(divide="ignore"):  # zeros allowed for q > 0
        logs = q * np.log(values)
    peak = logs.max()
    if peak == -np.inf:
        return 0.0
    return float(np.exp((peak + np.log(np.mean(np.exp(logs - peak)))) / q))


def window_mean(profile_values: np.ndarray, n: int) -> np.ndarray:
    """Mean of every length-n window of the profile, one window at a time.

    The O(N * n) sliding mean that ``dma1d.moving_average`` replaced; its
    per-segment F_v must agree with this one to a fixed tolerance.
    """
    return sliding_window_view(np.asarray(profile_values, dtype=float), n).mean(axis=-1)


def exact_window_mean(profile_values: np.ndarray, n: int) -> np.ndarray:
    """Mean of every length-n window, each sum exactly rounded by ``math.fsum``."""
    y = np.asarray(profile_values, dtype=float).tolist()
    return np.array([math.fsum(y[i:i + n]) / n for i in range(len(y) - n + 1)])


def ols_slope_and_se(x, y) -> tuple[float, float]:
    """Least-squares slope of y on x and its standard error, one line at a time.

    slope = sum (x_i - mean x)(y_i - mean y) / S_xx, with S_xx = sum (x_i - mean x)^2,
    and intercept = mean y - slope mean x.  The SE is taken from the explicit
    residuals r_i = y_i - intercept - slope x_i: sqrt(sum r_i^2 / (k - 2) / S_xx).
    """
    x, y = [float(v) for v in x], [float(v) for v in y]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    sxx = math.fsum((xi - x_mean) ** 2 for xi in x)
    slope = math.fsum((xi - x_mean) * (yi - y_mean) for xi, yi in zip(x, y)) / sxx
    intercept = y_mean - slope * x_mean
    rss = math.fsum((yi - intercept - slope * xi) ** 2 for xi, yi in zip(x, y))
    return slope, math.sqrt(rss / (len(x) - 2) / sxx)


# Literal transcriptions of the documented estimator conventions, one window or
# block at a time.  They share no code with the package beyond numpy.

def block_rms(residuals, n: int) -> np.ndarray:
    """RMS of each whole side-n block of a residual series or matrix.

    A series is cut into floor(L / n) segments of n points; a matrix into
    floor(L1 / n) x floor(L2 / n) blocks of n x n, listed in row-major
    order.  Every remainder is dropped.  F_v = sqrt(mean of eps^2 over v).
    """
    eps = np.asarray(residuals, dtype=float)
    if eps.ndim == 1:
        return np.array([math.sqrt(np.mean(eps[v * n:(v + 1) * n] ** 2))
                         for v in range(eps.size // n)])
    return np.array([math.sqrt(np.mean(eps[b1 * n:(b1 + 1) * n, b2 * n:(b2 + 1) * n] ** 2))
                     for b1 in range(eps.shape[0] // n) for b2 in range(eps.shape[1] // n)])


def power_mean(rms: np.ndarray, q: float) -> float:
    """F_q = (mean_v F_v^q)^(1/q), and F_0 = exp(mean_v ln F_v)."""
    rms = np.asarray(rms, dtype=float)
    if q == 0:
        return float(np.exp(np.mean(np.log(rms))))
    return float(np.mean(rms ** q) ** (1.0 / q))


def fluctuation_table(rms_at, scales, qs) -> np.ndarray:
    """F_q(n): one row per scale n, one column per q, from the F_v of ``rms_at(n)``."""
    return np.array([[power_mean(rms_at(n), q) for q in qs] for n in scales])


def mfdma_rms_1d(values, n: int, theta: float) -> np.ndarray:
    """Per-segment RMS of 1-d MFDMA at window size n and position theta.

    The profile is y(i) = x(1) + ... + x(i).  The moving average at i is
    the mean of y over the n points [i - ceil((n-1)(1-theta)), i +
    floor((n-1)theta)], taken at every i whose window lies inside the
    profile; eps(i) = y(i) - that mean, and the eps series goes to
    :func:`block_rms`.  The 1-d window puts floor((n-1)theta) points ahead
    of i; the 2-d shift of :func:`mfdma_rms_2d` is min(floor(n theta), n-1)
    instead (at n = 4, theta = 0.5: one point against two).  Which of the
    two the paper means is not yet settled; both are transcribed as coded.
    """
    y = np.cumsum(np.asarray(values, dtype=float))
    behind, ahead = math.ceil((n - 1) * (1 - theta)), math.floor((n - 1) * theta)
    eps = [y[i] - np.mean(y[i - behind:i + ahead + 1]) for i in range(behind, y.size - ahead)]
    return block_rms(np.array(eps), n)


def mfdma_rms_2d(values, n: int, theta: float) -> np.ndarray:
    """Per-block RMS of 2-d MFDMA at window side n and position theta.

    For the n x n window W(j) of the surface whose top-left entry is j =
    (j1, j2), total(j) is the sum of W(j) and cummean(j) the mean over its
    n^2 entries of the 2-d cumulative sum of W(j).  With the shift d =
    min(floor(n theta), n - 1) on both axes, eps(j) = total(j) -
    cummean(j + (d, d)) at every j where both windows lie in the surface;
    the eps matrix goes to :func:`block_rms`.  See :func:`mfdma_rms_1d`
    for how this shift differs from the 1-d one.
    """
    x = np.asarray(values, dtype=float)
    d = min(math.floor(n * theta), n - 1)
    rows, cols = x.shape[0] - n + 1 - d, x.shape[1] - n + 1 - d
    eps = np.empty((rows, cols))
    for j1 in range(rows):
        for j2 in range(cols):
            shifted = x[j1 + d:j1 + d + n, j2 + d:j2 + d + n]
            eps[j1, j2] = x[j1:j1 + n, j2:j2 + n].sum() - shifted.cumsum(0).cumsum(1).mean()
    return block_rms(eps, n)


def mfdfa_rms_1d(values, n: int) -> np.ndarray:
    """Per-segment RMS of first-order 1-d MFDFA at segment size n.

    The profile y (as in :func:`mfdma_rms_1d`) is cut into floor(N / n)
    segments of n points, the remainder dropped; each loses the degree-1
    ``np.polyfit`` over positions 0..n-1, and gives the RMS of the rest.
    """
    y = np.cumsum(np.asarray(values, dtype=float))
    u = np.arange(n)
    rms = []
    for v in range(y.size // n):
        segment = y[v * n:(v + 1) * n]
        rms.append(math.sqrt(np.mean((segment - np.polyval(np.polyfit(u, segment, 1), u)) ** 2)))
    return np.array(rms)


def mfdfa_rms_2d(values, n: int) -> np.ndarray:
    """Per-block RMS of 2-d MFDFA at block side n.

    The surface is cut into whole n x n blocks B, row-major, remainders
    dropped.  Each block's own 2-d cumulative sum C(u, v) = sum of B over
    [0, u] x [0, v] loses its least-squares plane a + b u + c v, fitted by
    ``np.linalg.lstsq``, and gives the RMS of the rest.
    """
    x = np.asarray(values, dtype=float)
    u, v = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    plane = np.column_stack([np.ones(n * n), u.ravel(), v.ravel()])
    rms = []
    for b1 in range(x.shape[0] // n):
        for b2 in range(x.shape[1] // n):
            c = x[b1 * n:(b1 + 1) * n, b2 * n:(b2 + 1) * n].cumsum(0).cumsum(1).ravel()
            fit = plane @ np.linalg.lstsq(plane, c, rcond=None)[0]
            rms.append(math.sqrt(np.mean((c - fit) ** 2)))
    return np.array(rms)


# Input families for the boundary conventions.  Reversal keeps a cascade's
# multifractal content: x[::-1] of the binomial cascade is the cascade with
# p1 -> 1 - p1, whose exact tau is the same.  A boundary shift keeps all but k
# points, so only where the segments start relative to the data changes.

def mirrored_pair(values) -> tuple[np.ndarray, np.ndarray]:
    """A series and its reversal, (x, x[::-1])."""
    x = np.asarray(values, dtype=float)
    return x, x[::-1]


def boundary_shifts(values, k: int) -> list[np.ndarray]:
    """The k + 1 cuts x[s : N - k + s], s = 0 ... k, each dropping s points first and k - s last."""
    x = np.asarray(values, dtype=float)
    return [x[s:x.size - k + s] for s in range(k + 1)]


# The white-noise oracle.  On unit-variance white noise every residual is a fixed
# linear combination of the inputs, so E[F_2(n)^2], the mean squared residual, is
# the sum of that combination's squared weights, exactly, at every n and theta.

def white_noise_weights_mfdma_1d(n: int, theta: float) -> np.ndarray:
    """The weights of 1-d MFDMA's residual eps(i) on the inputs, as coded.

    With b points behind i and f ahead, as in :func:`mfdma_rms_1d`, eps(i) =
    (1/n) sum_j (y(i) - y(j)) over the window, so the inputs x(i - b + 1) ..
    x(i) enter with weights 1/n .. b/n and x(i + 1) .. x(i + f) with
    -f/n .. -1/n; entry a of the result weighs x(i - b + 1 + a).
    """
    behind, ahead = math.ceil((n - 1) * (1 - theta)), math.floor((n - 1) * theta)
    return np.concatenate([np.arange(1, behind + 1), -np.arange(ahead, 0, -1)]) / n


def white_noise_weights_mfdfa_1d(n: int) -> np.ndarray:
    """The weights of first-order 1-d MFDFA's residuals on one segment's inputs: (I - P) C.

    C is the cumulative sum inside the segment (the profile's offset from
    earlier segments is a constant, which the line takes up) and P projects
    onto lines over positions 0..n-1; row u gives the residual at u.
    """
    line = np.column_stack([np.ones(n), np.arange(n)])
    cumsum = np.tril(np.ones((n, n)))
    return cumsum - line @ np.linalg.lstsq(line, cumsum, rcond=None)[0]


def white_noise_segment_weights_mfdma_1d(n: int, theta: float) -> np.ndarray:
    """The weights of one segment's n MFDMA residuals on its inputs.

    Row u is :func:`white_noise_weights_mfdma_1d` shifted u places along, so
    column a weighs the input a places after the first one residual 0 reads.
    """
    window = white_noise_weights_mfdma_1d(n, theta)
    rows = np.zeros((n, n + window.size - 1))
    for u in range(n):
        rows[u, u:u + window.size] = window
    return rows


def white_noise_moment_1d(weights: np.ndarray, q: float) -> float:
    """E[F_v(n)^q] on white noise, q 2, 4 or -2, of a segment whose n residuals are ``weights`` @ x.

    F_v^2 = x'Mx with M = W'W / n, a quadratic form in i.i.d. unit normals,
    so E[F_v^2] = tr M and E[F_v^4] = (tr M)^2 + 2 tr(M^2).  With lambda the
    eigenvalues of M, E[F_v^-2] = int_0^inf prod_k (1 + 2 lambda_k t)^(-1/2) dt
    (Mathai & Provost, Quadratic Forms in Random Variables, 1992), finite when
    M has rank above 2.  F_q(n)^q is the mean of F_v^q over the segments, so it
    has this expectation at every N.
    """
    m = weights.T @ weights / len(weights)
    if q == 2:
        return float(np.trace(m))
    if q == 4:
        return float(np.trace(m) ** 2 + 2 * np.sum(m * m))  # M is symmetric: tr(M^2) = sum M_ij^2
    assert q == -2, q
    lam = np.sort(np.clip(np.linalg.eigvalsh(m), 0, None))  # M's zero eigenvalues may round below 0
    # over s = ln t the integrand rises as e^s until t ~ 1 / (2 lambda_max) and falls at least
    # as e^(-s/2) once t passes 1 / (2 lambda_3); the trapezoid sum of a smooth integrand that
    # decays this fast at both ends converges geometrically in the step
    step = 0.05
    s = np.arange(-np.log(2 * lam[-1]) - 40, -np.log(2 * lam[-3]) + 80, step)
    f = np.exp(s - 0.5 * np.log1p(2 * np.outer(np.exp(s), lam)).sum(axis=1))
    return float(step * (f.sum() - (f[0] + f[-1]) / 2))


def white_noise_f2_mfdma_1d(n: int, theta: float) -> float:
    """E[F_2(n)^2] of 1-d MFDMA at window size n and position theta on white noise.

    The squared norm of :func:`white_noise_weights_mfdma_1d`.  Closed form,
    with b points behind and f ahead: [b(b+1)(2b+1) + f(f+1)(2f+1)] / (6 n^2).
    """
    weights = white_noise_weights_mfdma_1d(n, theta)
    return float(weights @ weights)


def white_noise_f2_mfdfa_1d(n: int) -> float:
    """E[F_2(n)^2] of first-order 1-d MFDFA at segment size n on white noise.

    The mean squared residual is the squared Frobenius norm of
    :func:`white_noise_weights_mfdfa_1d` over n.  Closed form: (n^2 - 4) / (15 n).
    """
    return float(np.sum(white_noise_weights_mfdfa_1d(n) ** 2) / n)


def white_noise_weights_mfdma_2d(n: int, theta: float) -> np.ndarray:
    """The weights of 2-d MFDMA's residual eps(j) on the inputs, as coded.

    With d = min(floor(n theta), n - 1), as in :func:`mfdma_rms_2d`, eps(j)
    = total(j) - cummean(j + (d, d)).  total weighs every entry of W(j) by
    +1; the input at offset (a, b) of W(j + (d, d)) is in (n - a)(n - b) of
    that window's n^2 cumulative sums, so cummean weighs it by -(n - a)(n -
    b) / n^2.  Entry (a, b) of the (n + d) x (n + d) result is the weight of
    the input at j + (a, b); the two windows overlap, since d < n.
    """
    d = min(math.floor(n * theta), n - 1)
    ramp = np.arange(n, 0, -1)
    weights = np.zeros((n + d, n + d))
    weights[:n, :n] += 1.0
    weights[d:, d:] -= np.outer(ramp, ramp) / n ** 2
    return weights


def white_noise_block_weights_mfdma_2d(n: int, theta: float) -> np.ndarray:
    """The weights of one n x n block's MFDMA residuals on its (2n - 1 + d)^2 inputs.

    Row (u, v), in row-major order, is :func:`white_noise_weights_mfdma_2d`
    placed (u, v) along, so a column weighs the input at that row-major
    offset from the first one residual (0, 0) reads.
    """
    window = white_noise_weights_mfdma_2d(n, theta)
    side = n - 1 + window.shape[0]
    rows = np.zeros((n, n, side, side))
    for u in range(n):
        for v in range(n):
            rows[u, v, u:u + window.shape[0], v:v + window.shape[1]] = window
    return rows.reshape(n * n, side * side)


def white_noise_weights_mfdfa_2d(n: int) -> np.ndarray:
    """The weights of 2-d MFDFA's residuals on one block's inputs: (I - P) L.

    L is the block-local 2-d cumulative sum, as in :func:`mfdfa_rms_2d`, and
    P projects onto planes a + b u + c v; rows and columns index the n x n
    block in row-major order, row (u, v) giving the residual at (u, v).
    """
    u, v = np.divmod(np.arange(n * n), n)
    cumsum = ((u[None, :] <= u[:, None]) & (v[None, :] <= v[:, None])).astype(float)
    plane = np.column_stack([np.ones(n * n), u, v])
    return cumsum - plane @ np.linalg.lstsq(plane, cumsum, rcond=None)[0]


def white_noise_f2_mfdma_2d(n: int, theta: float) -> float:
    """E[F_2(n)^2] of 2-d MFDMA at window side n and position theta on white noise."""
    return float(np.sum(white_noise_weights_mfdma_2d(n, theta) ** 2))


def white_noise_f2_mfdfa_2d(n: int) -> float:
    """E[F_2(n)^2] of 2-d MFDFA at block side n on white noise: ||(I - P) L||_F^2 / n^2."""
    return float(np.sum(white_noise_weights_mfdfa_2d(n) ** 2) / n ** 2)


# The fractional Gaussian noise oracle.  For any stationary Gaussian input with
# autocovariance gamma, the same weights give E[F_2(n)^2] exactly: w' Sigma w for
# MFDMA and trace(W Sigma W') / n for MFDFA, with Sigma_ij = gamma(i - j).

def fgn_autocovariance(lags, hurst: float) -> np.ndarray:
    """gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2 of unit-variance fGn; 1 at k = 0.

    At H = 1/2 it is 1 at lag 0 and 0 elsewhere: white noise.
    """
    k, power = np.abs(np.asarray(lags, dtype=float)), 2 * hurst
    return 0.5 * ((k + 1) ** power - 2 * k ** power + np.abs(k - 1) ** power)


def fgn_covariance(size: int, hurst: float) -> np.ndarray:
    """Sigma_ij = gamma(i - j) over ``size`` consecutive points of fGn."""
    lags = np.arange(size)
    return fgn_autocovariance(lags[:, None] - lags[None, :], hurst)


def fractional_gaussian_noise(size: int, hurst: float, rng) -> np.ndarray:
    """``size`` points of unit-variance fGn by Davies-Harte circulant embedding.

    gamma(0 .. size), mirrored, is the first row of a circulant of order
    2 size whose eigenvalues, the FFT of that row, are nonnegative for fGn at
    every H in (0, 1).  The FFT of complex normals scaled by their square
    roots then has real parts with covariance exactly gamma (Davies & Harte,
    Biometrika 74, 95, 1987).
    """
    eigen = _embedding_eigenvalues(size, hurst)
    normals = rng.standard_normal(eigen.size) + 1j * rng.standard_normal(eigen.size)
    return np.fft.fft(np.sqrt(eigen / eigen.size) * normals).real[:size]


def _embedding_eigenvalues(size: int, hurst: float) -> np.ndarray:
    """The eigenvalues of the order-2 ``size`` circulant that embeds ``size`` points of fGn."""
    gamma = fgn_autocovariance(np.arange(size + 1), hurst)
    eigen = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    assert eigen.min() > -1e-9 * eigen.max(), "the embedding needs nonnegative eigenvalues"
    return eigen.clip(0)


def fractional_gaussian_field(shape, hurst: float, rng) -> np.ndarray:
    """A surface of separable unit-variance fGn, covariance gamma(du) gamma(dv), by Davies-Harte.

    The 2-d circulant of order (2 N1, 2 N2) that embeds the field has as its
    eigenvalues the outer product of the two 1-d embeddings' ones, all
    nonnegative, so the 2-d FFT of complex normals scaled by their square roots
    has real parts with exactly that covariance, as in
    :func:`fractional_gaussian_noise`.
    """
    eigen = np.outer(*(_embedding_eigenvalues(size, hurst) for size in shape))
    normals = rng.standard_normal(eigen.shape) + 1j * rng.standard_normal(eigen.shape)
    return np.fft.fft2(np.sqrt(eigen / eigen.size) * normals).real[:shape[0], :shape[1]]


def fgn_f2_mfdma_1d(n: int, theta: float, hurst: float) -> float:
    """E[F_2(n)^2] of 1-d MFDMA at window size n and position theta on fGn: w' Sigma w."""
    weights = white_noise_weights_mfdma_1d(n, theta)
    return float(weights @ fgn_covariance(weights.size, hurst) @ weights)


def fgn_f2_mfdfa_1d(n: int, hurst: float) -> float:
    """E[F_2(n)^2] of first-order 1-d MFDFA at segment size n on fGn: trace(W Sigma W') / n."""
    weights = white_noise_weights_mfdfa_1d(n)
    return float(np.trace(weights @ fgn_covariance(n, hurst) @ weights.T) / n)


def fgn_f2_mfdma_2d(n: int, theta: float, hurst: float) -> float:
    """E[F_2(n)^2] of 2-d MFDMA on the separable fGn field: trace(W' Sigma W Sigma).

    W is :func:`white_noise_weights_mfdma_2d`; the residual sum_{a,b} W_ab x(j + (a, b))
    has variance sum W_ab W_a'b' gamma(a - a') gamma(b - b').
    """
    weights = white_noise_weights_mfdma_2d(n, theta)
    sigma = fgn_covariance(len(weights), hurst)
    return float(np.trace(weights.T @ sigma @ weights @ sigma))


def fgn_f2_mfdfa_2d(n: int, hurst: float) -> float:
    """E[F_2(n)^2] of 2-d MFDFA on the separable fGn field: trace(M (Sigma x Sigma) M') / n^2.

    M is :func:`white_noise_weights_mfdfa_2d`, on a block in row-major order, whose
    covariance is the Kronecker product of the two axes' ones.
    """
    weights, sigma = white_noise_weights_mfdfa_2d(n), fgn_covariance(n, hurst)
    return float(np.trace(weights @ np.kron(sigma, sigma) @ weights.T) / n ** 2)
