"""Reciprocal-space performance measures.

Mean-square error between filtered and original lineshapes evaluated as
2*pi * integral |F|^2 |1-B|^2 dk, with closed forms for the running-average
and brick-wall cases; white-noise transmission along both the direct- and
reciprocal-space routes; noise-cutoff location on measured coefficients; and
the Gibbs residual left by abrupt cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import exp1, sici

from ._gauss import MAX_PANELS, converged, exp_weighted, gauss_legendre
from .filters import (
    SINC_HALF_CROSSING,
    BrickWall,
    CosineTerminated,
    FilterSpec,
    GaussHermite,
    RunningAverage,
    _gh_y_cut,
    breakpoints,
    ds_cutoff,
    half_transfer_point,
    k2_of,
    kernel,
    support_cutoff,
    transfer,
)
from .lineshapes import EtaRatio, LorentzianLine, lorentzian_rs

__all__ = [
    "MseBreakdown",
    "NoiseReport",
    "GibbsReport",
    "QuadratureError",
    "mse_numeric",
    "mse_with_noise",
    "mse_bw_analytic",
    "mse_ra_analytic",
    "mse_ratio_ra_bw",
    "crossover_eta",
    "noise_gain",
    "noise_cutoff",
    "gibbs_residual",
    "estimate_period",
]


class QuadratureError(RuntimeError):
    """Quadrature failed to converge or routes disagree."""


@dataclass(frozen=True)
class MseBreakdown:
    total: float
    info_term: float
    noise_term: float
    eta: EtaRatio
    analytic_ref: float | None


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


def _k_max_for(line: LorentzianLine, spec: FilterSpec) -> float:
    # Beyond the transfer's support the integrand is pure |F|^2, so the cutoff
    # must sit far enough past it for the tail to be negligible relative to
    # the stop-band contribution, not just absolutely small.
    end = support_cutoff(spec) or 0.0
    return max(18.5 / line.gamma, end + 12.5 / line.gamma)


def _panel_width(spec: FilterSpec) -> float:
    # Length over which (1-B)^2 changes: the fall from B = 1/2 to the support
    # cutoff, capped at the half-transfer point, which is the scale itself
    # where that fall is a step (bw) or there is no cutoff (ra).
    k_half = half_transfer_point(spec)
    end = support_cutoff(spec)
    return min(k_half, end - k_half) if end is not None and end > k_half else k_half


def _stop_band_integrals(spec: FilterSpec, rates, ends, scale) -> np.ndarray:
    """scale_j * integral_0^{end_j} exp(-rate_j k) (1-B)^2 dk; NaN where not converged."""
    end = support_cutoff(spec)
    values, errors = exp_weighted(lambda k: (1.0 - transfer(spec, k)) ** 2, rates, ends,
                                  breakpoints(spec), _panel_width(spec),
                                  np.inf if end is None else end)
    values, errors = scale * values, scale * errors
    return np.where(converged(values, errors), values, np.nan)


def _mse_integrals(lines: Sequence[LorentzianLine], spec: FilterSpec,
                   ends=None) -> np.ndarray:
    # |F|^2 = (area/2pi)^2 exp(-2 gamma k); the tolerance applies to the
    # integral of |F|^2 (1-B)^2 before the factor 4 pi of the even integrand.
    if ends is None:
        ends = [_k_max_for(line, spec) for line in lines]
    rates = [2.0 * line.gamma for line in lines]
    scale = np.array([(line.area / (2.0 * np.pi)) ** 2 for line in lines])
    return 4.0 * np.pi * _stop_band_integrals(spec, rates, ends, scale)


def mse_numeric(line: LorentzianLine | Sequence[LorentzianLine],
                spec: FilterSpec) -> float | np.ndarray:
    """2*pi * integral |F|^2 (1-B)^2 dk by composite Gauss-Legendre quadrature.

    Panels split at the breakpoints of the transfer and the rule's error
    estimate (n against 2n nodes per panel) must meet epsrel 1e-10.  For one
    LorentzianLine the result is a float and a missed estimate raises
    QuadratureError.  For a sequence of lines the result is an array, one
    entry per line, NaN wherever the estimate was missed; each entry equals
    the single-line result.
    """
    if isinstance(line, LorentzianLine):
        value = float(_mse_integrals([line], spec)[0])
        if np.isnan(value):
            raise QuadratureError(
                f"stop-band quadrature for gamma={line.gamma:g} did not converge")
        return value
    return _mse_integrals(list(line), spec)


def mse_with_noise(line: LorentzianLine, spec: FilterSpec, noise_density: float,
                   k_max: float | None = None) -> MseBreakdown:
    """Split MSE into information and additive white-noise contributions.

    noise_density is the per-point mean-square fluctuation; it enters the
    reciprocal-space integral as the flat density noise_density/(2*pi), so
    the noise term needs a finite cutoff k_max.  The default is 3x the
    transfer support (first transfer zero for the running average), widened
    when necessary so the information term is fully converged.  The eta field
    reports gamma/x_o for specs that imply an x_o, else gamma itself.
    """
    if noise_density < 0:
        raise ValueError(f"noise_density must be >= 0, got {noise_density}")
    if k_max is None:
        end = support_cutoff(spec)
        if end is None:  # the running average: its first transfer zero
            end = np.pi / ds_cutoff(spec)
        # wide enough that the information term converges as in mse_numeric
        k_max = max(3.0 * end, _k_max_for(line, spec))
    if not np.isfinite(k_max) and noise_density > 0:
        raise ValueError("a finite k_max is required when noise_density > 0")
    info = float(_mse_integrals([line], spec, [min(k_max, _k_max_for(line, spec))])[0])
    noise = 0.0
    if noise_density > 0:
        noise = 2.0 * noise_density * float(_stop_band_integrals(spec, [0.0], [k_max], 1.0)[0])
    if np.isnan(info) or np.isnan(noise):
        raise QuadratureError(f"stop-band quadrature up to k_max={k_max:g} did not converge")
    closed_form = _MSE_CLOSED_FORMS.get(type(spec))
    x_o = ds_cutoff(spec) if closed_form else None
    eta = EtaRatio.from_line(line, x_o) if x_o else EtaRatio(line.gamma)
    ref = closed_form(eta, x_o) * line.area**2 if closed_form else None
    return MseBreakdown(total=info + noise, info_term=info, noise_term=noise,
                        eta=eta, analytic_ref=ref)


def _eta_value(eta) -> float:
    return float(eta)


def mse_bw_analytic(eta, x_o: float = 1.0) -> float:
    """Closed-form brick-wall MSE exp(-2*z*eta)/(2*pi*eta*x_o), z the sinc root."""
    e = _eta_value(eta)
    return np.exp(-2.0 * SINC_HALF_CROSSING * e) / (2.0 * np.pi * e * x_o)


def mse_ra_analytic(eta, x_o: float = 1.0) -> float:
    """Closed-form running-average MSE for a unit-area line."""
    e = _eta_value(eta)
    bracket = (0.5 / e - 2.0 * np.arctan(0.5 / e)
               - 0.5 * e * np.log1p(1.0 / e**2) + np.arctan(1.0 / e))
    return bracket / (np.pi * x_o)


# Families with a closed-form MSE for a unit-area line, as a function of
# (eta, x_o) with x_o the family's ds cutoff.
_MSE_CLOSED_FORMS = {RunningAverage: mse_ra_analytic, BrickWall: mse_bw_analytic}


def mse_ratio_ra_bw(eta) -> float:
    """RA/BW MSE ratio in the published form with the rounded 3.79 exponent.

    Differs from the quotient of the two closed forms by up to ~0.3% over
    eta in [0.1, 5] purely because 2*z = 3.790988... is rounded to 3.79.
    """
    e = _eta_value(eta)
    bracket = (1.0 - 4.0 * e * np.arctan(0.5 / e)
               - e**2 * np.log1p(1.0 / e**2) + 2.0 * e * np.arctan(1.0 / e))
    return np.exp(3.79 * e) * bracket


def crossover_eta(which: str = "upper") -> EtaRatio:
    """Root of mse_ratio_ra_bw = 1: 'upper' in (0.5, 1.5), 'lower' in (0.1, 0.3)."""
    if which == "upper":
        lo, hi = 0.5, 1.5
    elif which == "lower":
        lo, hi = 0.1, 0.3
    else:
        raise ValueError(f"which must be 'upper' or 'lower', got {which!r}")
    root = brentq(lambda e: mse_ratio_ra_bw(e) - 1.0, lo, hi, xtol=1e-9)
    return EtaRatio(float(root))


def _integral(g, end: float, width: float, cuts=(), var: str = "k",
              unit: float = 1.0) -> float:
    """integral_0^end g on the Gauss-Legendre core; a miss raises QuadratureError.

    The message names which limit was hit and gives the range of ``var`` in
    the spec's own units, ``unit`` being one step of g's argument in them.
    """
    values, errors = exp_weighted(g, [0.0], [end], cuts, width, np.inf)
    if not converged(values, errors)[0]:
        budget = np.isnan(values[0]) and np.isinf(errors[0])  # see exp_weighted
        limit = (f"it needs more than the {MAX_PANELS} panels allowed" if budget
                 else "the error estimate missed the tolerance")
        raise QuadratureError(
            f"quadrature over {var} in [0, {end * unit:g}] did not converge: {limit}")
    return float(values[0])


def _sinc2_tail(u: float) -> float:
    """integral_u^inf sin(t)^2/t^2 dt via the sine integral."""
    si_2u = sici(2.0 * u)[0]
    return np.sin(u) ** 2 / u + 0.5 * np.pi - si_2u


def _sinc2_to_inf() -> float:
    u = 40.0
    return _integral(lambda t: np.sinc(t / np.pi) ** 2, u, 1.0, var="t") + _sinc2_tail(u)


def _ct_sin_terms(spec: CosineTerminated):
    # For |x| away from 0 and 1/dk the kernel is exactly a six-term sum
    # A * sin(w x + phi) / (x - c); used for the far tail of integral b^2 dx.
    k1, a, d = spec.k_1, spec.a, 1.0 / spec.dk
    k2 = k2_of(spec)
    psi = np.arccos(1.0 - 1.0 / a)
    pi = np.pi
    return (
        (a / pi, k1, 0.0, 0.0),
        ((1.0 - a) / pi, k2, 0.0, 0.0),
        (a / (2 * pi), k2, psi, -d),
        (-a / (2 * pi), k1, 0.0, -d),
        (a / (2 * pi), k2, -psi, d),
        (-a / (2 * pi), k1, 0.0, d),
    )


def _exp_over_t(omega: float, psi: float, u: float) -> complex:
    """integral_u^inf exp(i(omega t + psi))/t dt = e^{i psi} E1(-i omega u), omega, u > 0.

    The real part is -cos(psi) Ci(omega u) + sin(psi) (Si(omega u) - pi/2), but
    E1 keeps the relative accuracy that pi/2 - Si loses at large omega u.
    """
    return np.exp(1j * psi) * exp1(-1j * omega * u)


def _cos_over_poles(omega: float, phi: float, ci: float, cj: float, lo: float) -> float:
    """integral_lo^inf cos(omega x + phi) / ((x-ci)(x-cj)) dx in closed form."""
    if omega < 0.0:
        omega, phi = -omega, -phi
    if omega == 0.0:
        if ci == cj:
            base = 1.0 / (lo - ci)
        else:
            base = np.log((lo - cj) / (lo - ci)) / (ci - cj)
        return np.cos(phi) * base
    if ci == cj:
        # by parts: integral_u^inf cos(omega t + psi)/t^2 dt with t = x - c
        u = lo - ci
        return np.cos(omega * lo + phi) / u - omega * _exp_over_t(omega, phi + omega * ci, u).imag
    # partial fractions: 1/((x-ci)(x-cj)) = (1/(x-ci) - 1/(x-cj)) / (ci - cj)
    near = _exp_over_t(omega, phi + omega * ci, lo - ci)
    far = _exp_over_t(omega, phi + omega * cj, lo - cj)
    return (near - far).real / (ci - cj)


def _ct_ds_tail(spec: CosineTerminated, lo: float) -> float:
    """integral_lo^inf b(x)^2 dx in closed form, from the pairwise product-to-sum expansion."""
    terms = _ct_sin_terms(spec)
    total = 0.0
    for a_i, w_i, p_i, c_i in terms:
        for a_j, w_j, p_j, c_j in terms:
            coeff = 0.5 * a_i * a_j
            total += coeff * _cos_over_poles(w_i - w_j, p_i - p_j, c_i, c_j, lo)
            total -= coeff * _cos_over_poles(w_i + w_j, p_i + p_j, c_i, c_j, lo)
    return total


def noise_gain(spec: FilterSpec) -> NoiseReport:
    """White-noise power transmission along both integral routes.

    ds_value integrates the squared kernel over x, rs_value the squared
    transfer over k (with the 1/2pi convention); Parseval forces equality, and
    a mismatch beyond 1e-9 relative is raised as a numeric failure.  RA ds and
    BW rs are closed forms.  Every other integral up to a finite end runs on
    the Gauss-Legendre core of mse_numeric, and a missed error estimate raises
    QuadratureError; GH ds integrates the closed-form kernel up to the point
    past which it is exactly zero.  Past x = 12 + 1/dk (at unit spread) the
    CT ds tail is a closed form in exponential integrals, so CT ds never
    evaluates the transfer.
    """
    if isinstance(spec, RunningAverage):
        ds = 1.0 / (2.0 * spec.x_o)                      # exact box integral
        rs = _sinc2_to_inf() / (np.pi * spec.x_o)
    elif isinstance(spec, BrickWall):
        rs = spec.k_o / np.pi                            # exact box integral
        ds = 2.0 * spec.k_o * _sinc2_to_inf() / np.pi**2
    elif isinstance(spec, GaussHermite):
        rs = _integral(lambda k: transfer(spec, k) ** 2, support_cutoff(spec),
                       _panel_width(spec)) / np.pi
        # At k_s = 2 the kernel's argument is y = k_s x / 2 itself, and
        # b(x) = (k_s / 2) b_2(y), so ds is k_s times the unit integral.  b_2^2
        # oscillates at most at twice its transfer's support: each panel
        # spans about four such periods.
        unit = GaussHermite(spec.m, 2.0)
        ds = spec.k_s * _integral(lambda y: kernel(unit, y) ** 2, _gh_y_cut(unit.m),
                                  12.0 / support_cutoff(unit), var="x", unit=2.0 / spec.k_s)
    elif isinstance(spec, CosineTerminated):
        # Both routes run at unit spread: B(k) = B_1(k/dk) and
        # b(x) = dk * b_1(dk * x), so each integral is dk times its unit-spread
        # value.  Panels and tail then depend on k_1/dk and a alone, not on
        # the physical scale.
        unit = CosineTerminated(spec.k_1 / spec.dk, spec.a, 1.0)
        k2 = k2_of(unit)
        rs = spec.dk * _integral(lambda k: transfer(unit, k) ** 2, k2, _panel_width(unit),
                                 breakpoints(unit), unit=spec.dk) / np.pi
        split = 12.0 + 1.0 / unit.dk
        head = _integral(lambda x: kernel(unit, x) ** 2, split, 1.0 / k2, var="x",
                         unit=1.0 / spec.dk)
        ds = spec.dk * 2.0 * (head + _ct_ds_tail(unit, split))
    else:
        raise TypeError(f"unknown filter spec {spec!r}")
    if abs(ds - rs) > 1e-9 * abs(ds):
        raise QuadratureError(
            f"direct- and reciprocal-space noise integrals disagree: "
            f"{ds!r} vs {rs!r}"
        )
    return NoiseReport(rms_gain=float(np.sqrt(rs)), ds_value=float(ds),
                       rs_value=float(rs))


def noise_cutoff(coeffs, noise_floor: float | None = None) -> float | None:
    """Locate where the smoothed signal power |F_k|^2 falls to the noise level.

    Works on the positive-frequency half.  The flat white-noise background is
    estimated as median(top quarter)/ln2 (median-to-mean conversion for the
    exponentially distributed power of complex Gaussian noise) and subtracted;
    the cutoff is the interpolated end of the contiguous low-frequency band
    where the remaining signal exceeds noise_floor (default: the estimated
    background itself, the signal-equals-noise point).  Returns None when the
    power is still decaying at the top of the range (noiseless), when no
    signal band rises above the floor (noise-dominated), or when the signal
    never falls to the floor in range.
    """
    c = np.asarray(getattr(coeffs, "coeffs", coeffs))
    half = np.abs(c[c.size // 2:]) ** 2
    npts = half.size
    if npts < 64:
        raise ValueError(f"need at least 64 positive-frequency points, got {npts}")
    if noise_floor is not None and not noise_floor > 0:
        raise ValueError(f"noise_floor must be positive, got {noise_floor}")
    win = max(9, npts // 100)
    win += 1 - win % 2
    smoothed = np.convolve(half, np.ones(win) / win, mode="same")
    # background estimate: flat only if the top quarters match and sit well
    # above transform roundoff (else the spectrum is noiseless in range)
    med_top = float(np.median(half[3 * npts // 4:]))
    med_third = float(np.median(half[npts // 2: 3 * npts // 4]))
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
    edges = np.unique(np.concatenate([
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
