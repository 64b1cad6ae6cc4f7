"""Reciprocal-space performance measures.

Mean-square error between filtered and original lineshapes evaluated as
2*pi * integral |F|^2 |1-B|^2 dk, with closed forms for the running-average
and brick-wall cases; white-noise transmission along both the direct- and
reciprocal-space routes; noise-cutoff location on a measured spectrum; and
the Gibbs residual left by abrupt cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._gauss import QuadratureError, converged, exp_weighted, gauss_legendre, sorted_unique
from .engine import Spectrum
from .filters import (
    SINC_HALF_CROSSING,
    FilterSpec,
    _brentq,
    _checked,
    breakpoints,
    half_transfer_point,
    support_cutoff,
    transfer,
)
from .lineshapes import EtaRatio, LorentzianLine, lorentzian_rs

__all__ = [
    "NoiseReport",
    "GibbsReport",
    "QuadratureError",
    "mse_numeric",
    "mse_bw_analytic",
    "mse_ra_analytic",
    "mse_ratio_ra_bw",
    "crossover_eta",
    "noise_gain",
    "noise_cutoff",
    "gibbs_residual",
    "estimate_period",
]


@dataclass(frozen=True)
class NoiseReport:
    rms_gain: float
    ds_value: float
    rs_value: float


@dataclass(frozen=True)
class GibbsReport:
    residual: np.ndarray
    peak_amplitude: float
    period_estimate: float


def _mse_integrals(lines: Sequence[LorentzianLine], spec: FilterSpec) -> np.ndarray:
    """2*pi * integral |F_j|^2 (1-B)^2 dk for each line j; NaN where not converged."""
    # |F|^2 = (area/2pi)^2 exp(-2 gamma k); the tolerance applies to the
    # integral of |F|^2 (1-B)^2 before the factor 4 pi of the even integrand.
    # Beyond the transfer's support the integrand is pure |F|^2, so each end
    # sits far enough past it for the tail to be negligible relative to the
    # stop-band contribution, not just absolutely small.
    end = support_cutoff(spec)
    ends = [max(18.5 / line.gamma, (end or 0.0) + 12.5 / line.gamma) for line in lines]
    rates = [2.0 * line.gamma for line in lines]
    scale = np.array([(line.area / (2.0 * np.pi)) ** 2 for line in lines])
    # The panel width is the length over which (1-B)^2 changes: the fall from
    # B = 1/2 to the support cutoff, capped at the half-transfer point, which
    # is the scale itself where that fall is a step (bw) or there is no
    # cutoff (ra).
    k_half = half_transfer_point(spec)
    width = min(k_half, end - k_half) if end is not None and end > k_half else k_half
    values, errors = exp_weighted(lambda k: (1.0 - transfer(spec, k)) ** 2, rates, ends,
                                  breakpoints(spec), width, np.inf if end is None else end)
    values, errors = scale * values, scale * errors
    return 4.0 * np.pi * np.where(converged(values, errors), values, np.nan)


def mse_numeric(line: LorentzianLine | Sequence[LorentzianLine],
                spec: FilterSpec) -> float | np.ndarray:
    """2*pi * integral |F|^2 (1-B)^2 dk by composite Gauss-Legendre quadrature.

    Panels split at the breakpoints of the transfer and the rule's error
    estimate (n against 2n nodes per panel) must be at most
    max(1e-14, 1e-10 |value|).  For one LorentzianLine the result is a float
    and a missed estimate raises QuadratureError.  For a sequence of lines
    the result is an array, one entry per line, NaN wherever the estimate was
    missed; each entry equals the single-line result.
    """
    if isinstance(line, LorentzianLine):
        value = float(_mse_integrals([line], spec)[0])
        if np.isnan(value):
            raise QuadratureError(
                f"stop-band quadrature for gamma={line.gamma:g} did not converge")
        return value
    return _mse_integrals(list(line), spec)


def mse_bw_analytic(eta, x_o: float = 1.0) -> float:
    """Closed-form brick-wall MSE exp(-2*z*eta)/(2*pi*eta*x_o), z the sinc root."""
    e = float(eta)
    return np.exp(-2.0 * SINC_HALF_CROSSING * e) / (2.0 * np.pi * e * x_o)


def _log1p_inverse_square(e: float) -> float:
    """log1p(1/e^2) for e > 0, also where 1/e^2 overflows.

    Below e = 1e-150 it is -2 log(e) + log1p(e^2), and log1p(e^2) < 1e-300 is
    below the last bit of -2 log(e) >= 690.
    """
    return np.log1p(1.0 / e**2) if e > 1e-150 else -2.0 * np.log(e)


def mse_ra_analytic(eta, x_o: float = 1.0) -> float:
    """Closed-form running-average MSE for a unit-area line."""
    e = float(eta)
    bracket = (0.5 / e - 2.0 * np.arctan(0.5 / e)
               - 0.5 * e * _log1p_inverse_square(e) + np.arctan(1.0 / e))
    return bracket / (np.pi * x_o)


def mse_ratio_ra_bw(eta) -> float:
    """RA/BW MSE ratio in the published form with the rounded 3.79 exponent.

    Differs from the quotient of the two closed forms by up to ~0.3% over
    eta in [0.1, 5] purely because 2*z = 3.790988... is rounded to 3.79.
    """
    e = float(eta)
    bracket = (1.0 - 4.0 * e * np.arctan(0.5 / e)
               - e**2 * _log1p_inverse_square(e) + 2.0 * e * np.arctan(1.0 / e))
    return np.exp(3.79 * e) * bracket


def crossover_eta(which: str = "upper") -> EtaRatio:
    """Root of mse_ratio_ra_bw = 1: 'upper' in (0.5, 1.5), 'lower' in (0.1, 0.3)."""
    if which == "upper":
        lo, hi = 0.5, 1.5
    elif which == "lower":
        lo, hi = 0.1, 0.3
    else:
        raise ValueError(f"which must be 'upper' or 'lower', got {which!r}")
    return EtaRatio(_brentq(lambda e: mse_ratio_ra_bw(e) - 1.0, lo, hi, xtol=1e-9))


def noise_gain(spec: FilterSpec) -> NoiseReport:
    """White-noise power transmission along both integral routes.

    ds_value integrates the squared kernel over x, rs_value the squared
    transfer over k (with the 1/2pi convention); each spec class chooses its
    own two routes (``_noise_integrals`` in filters).  Parseval forces
    equality, and a mismatch beyond 1e-9 relative, or a value that is not
    finite, is raised as a numeric failure; no route runs adaptive
    quadrature.  RA and BW are closed forms on both routes.  GH sums each
    integrand on a whole-line trapezoid rule at unit scale, with a step that
    puts its one alias past the other space's cutoff, so the gap is rounding
    alone.  CT rs is the rolloff's elementary closed form, summed from
    Taylor series where it would cancel, and agrees with 40 digits to 1e-14
    for a up to 1e12.  CT ds sums the whole-line integrals of the products
    of the kernel's six pole terms, so it never evaluates the transfer; its
    terms cancel by a factor of about a^2, and it agrees with a 40-digit
    Parseval total to 1e-14 relative for a <= 5 and to max(1e-14, 8 a^2 eps)
    beyond.
    """
    ds, rs = _checked(spec)._noise_integrals()
    if not (np.isfinite(ds) and np.isfinite(rs) and abs(ds - rs) <= 1e-9 * abs(ds)):
        raise QuadratureError(
            f"direct- and reciprocal-space noise integrals disagree: "
            f"{float(ds)!r} vs {float(rs)!r}"
        )
    return NoiseReport(rms_gain=float(np.sqrt(rs)), ds_value=float(ds),
                       rs_value=float(rs))


def _moving_average(values: np.ndarray, win: int) -> np.ndarray:
    """Mean of each odd, centred window of win values, zero-padded at both ends.

    Each window sum is a difference of one running sum, accumulated from the
    end of the array down: a power spectrum is smallest there, so the small
    high-k windows are not differences of the large low-k sums.
    """
    pad = np.zeros(win // 2)
    tail = np.cumsum(np.concatenate((pad, values, pad, [0.0]))[::-1])[::-1]
    return (tail[:values.size] - tail[win:win + values.size]) / win


def _median(values: np.ndarray) -> float:
    """np.median of a 1-d array, bit for bit, without its masked-array check (numpy.ma)."""
    mid = [(values.size - 1) // 2, values.size // 2]  # one index twice at an odd size
    part = np.partition(values, [*mid, -1])
    return np.nan if np.isnan(part[-1]) else float(np.sum(part[mid])) / 2.0


# noise_cutoff searches spectra of at least this many points, 64 positive
# frequencies beside k = 0
_CUTOFF_MIN_POINTS = 129


def noise_cutoff(spectrum: Spectrum, noise_floor: float | None = None) -> float | None:
    """Locate where the smoothed signal power |F_k|^2 falls to the noise level.

    Works on the positive-frequency half k = 0..N of the spectrum's
    coefficients, N >= 64.  The flat white-noise background is estimated as
    median(top quarter)/ln2 (median-to-mean conversion for the
    exponentially distributed power of complex Gaussian noise) and subtracted;
    the cutoff is the interpolated end of the contiguous low-frequency band
    where the remaining signal exceeds noise_floor (default: the estimated
    background itself, the signal-equals-noise point).  Returns None when the
    power is still decaying at the top of the range (noiseless), when no
    signal band rises above the floor (noise-dominated), or when the signal
    never falls to the floor in range.
    """
    if spectrum.grid.size < _CUTOFF_MIN_POINTS:
        raise ValueError(f"need at least {_CUTOFF_MIN_POINTS} points, got {spectrum.grid.size}")
    half = np.abs(spectrum._half / spectrum.grid.size) ** 2
    npts = half.size
    if noise_floor is not None and not noise_floor > 0:
        raise ValueError(f"noise_floor must be positive, got {noise_floor}")
    win = max(9, npts // 100)
    win += 1 - win % 2
    smoothed = _moving_average(half, win)
    # background estimate: flat only if the top quarters match and sit well
    # above transform roundoff (else the spectrum is noiseless in range)
    med_top = _median(half[3 * npts // 4:])
    med_third = _median(half[npts // 2: 3 * npts // 4])
    flat = (med_top > 1e-24 * float(np.max(half)) and med_third <= 4.0 * med_top)
    background = med_top / np.log(2.0) if flat else 0.0
    if noise_floor is None:
        if not flat:
            return None  # power still decaying: noiseless within range
        threshold = background
    else:
        threshold = noise_floor
    signal = smoothed - background
    above = signal > threshold
    above[0] = False  # DC carries the area, not information bandwidth
    idx = np.nonzero(above)[0]
    if idx.size == 0 or idx[0] >= 3 * win:
        return None  # no low-frequency signal band: noise-dominated
    last = int(idx[0])
    while last + 1 < npts and above[last + 1]:
        last += 1
    if last >= npts - 1:
        return None  # never falls to the floor within range
    s0, s1 = signal[last], signal[last + 1]
    return float(last + (s0 - threshold) / (s0 - s1))


def estimate_period(x: np.ndarray, y: np.ndarray, center: float = 0.0,
                    half_window: float = np.inf,
                    fallback: float | None = None) -> float:
    """Oscillation period from sign changes of y within a window around center.

    Successive interpolated zero crossings are half a period apart.  With
    fewer than three crossings the fallback (typically the transfer-cutoff
    prediction 2*pi/k_c) is returned if given.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sel = np.abs(x - center) <= half_window
    xs, ys = x[sel], y[sel]
    # drop exact zeros: the interpolated flip across the gap recovers the
    # crossing, while a tangential touch correctly contributes none
    keep = ys != 0.0
    xs, ys = xs[keep], ys[keep]
    flips = np.nonzero(ys[:-1] * ys[1:] < 0.0)[0]
    crossings = xs[flips] - ys[flips] * (xs[flips + 1] - xs[flips]) / (ys[flips + 1] - ys[flips])
    if crossings.size < 3:
        if fallback is not None:
            return float(fallback)
        raise ValueError("fewer than three zero crossings in the window")
    return float(2.0 * np.mean(np.diff(crossings)))


def gibbs_residual(line: LorentzianLine, spec: FilterSpec,
                   x_grid: np.ndarray) -> GibbsReport:
    """Reconstruction error from the stop band: integral F (1-B) e^{ikx} dk.

    Evaluated as a vectorized cosine transform of (1-B)|F| over [0, S] plus
    the closed-form Lorentzian tail beyond S where B has died off; real by
    symmetry for the even integrand.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    gam = line.gamma
    s_end = support_cutoff(spec)
    if s_end is None:
        s_end = 30.0 / gam + 3.0 * half_transfer_point(spec)
    shift = x_grid - line.center
    x_ref = float(np.max(np.abs(shift)))
    edges = sorted_unique(np.concatenate([
        np.linspace(0.0, s_end, max(5, int(s_end * x_ref / 30.0) + 1)),
        [b for b in breakpoints(spec) if 0.0 < b < s_end],
    ]))
    nodes, wts = gauss_legendre(64)
    head = np.zeros_like(shift)
    for lo, hi in zip(edges[:-1], edges[1:]):
        kk = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ww = 0.5 * (hi - lo) * wts * (1.0 - transfer(spec, kk)) * lorentzian_rs(line, kk)
        head += np.cos(np.outer(shift, kk)) @ ww
    head *= 2.0
    tail = (line.area / np.pi) * np.exp(-s_end * gam) * (
        gam * np.cos(s_end * shift) - shift * np.sin(s_end * shift)
    ) / (gam**2 + shift**2)
    residual = head + tail
    k_c = half_transfer_point(spec)
    period = estimate_period(x_grid, residual, center=line.center,
                             half_window=3.0 * 2.0 * np.pi / k_c,
                             fallback=2.0 * np.pi / k_c)
    return GibbsReport(residual=residual, peak_amplitude=float(np.max(np.abs(residual))),
                       period_estimate=period)
