"""Reciprocal-space error measures, noise transmission, ringing reports.

The closed forms here have independent numeric counterparts (adaptive
quadrature, literal tail sums); frozen values pin both routes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from specfilt import metrics
from specfilt.engine import dft_forward
from specfilt.filters import (
    BrickWall,
    CosineTerminated,
    GaussHermite,
    RunningAverage,
    calibrate,
    half_transfer_point,
    transfer,
)
from specfilt.lineshapes import (
    EtaRatio,
    LorentzianLine,
    NoiseModel,
    add_white_noise,
    lorentzian_rs,
    pseudo_lorentzian_discrete,
)
from specfilt.metrics import (
    QuadratureError,
    crossover_eta,
    estimate_period,
    gibbs_residual,
    mse_bw_analytic,
    mse_numeric,
    mse_ra_analytic,
    mse_ratio_ra_bw,
    mse_with_noise,
    noise_cutoff,
    noise_gain,
)


class TestMseClosedForms:
    def test_bw_matches_quadrature(self):
        bw = calibrate("bw", 1.0).spec
        for eta in (0.1, 0.5, 1.0, 2.0, 5.0):
            closed = mse_bw_analytic(eta)
            numeric = mse_numeric(LorentzianLine(eta), bw)
            assert numeric == pytest.approx(closed, rel=1e-8)

    def test_ra_matches_quadrature(self):
        ra = calibrate("ra", 1.0).spec
        for eta in (0.1, 0.5, 1.0, 2.0, 5.0):
            closed = mse_ra_analytic(eta)
            numeric = mse_numeric(LorentzianLine(eta), ra)
            assert numeric == pytest.approx(closed, rel=1e-6)

    def test_frozen_values(self):
        assert mse_bw_analytic(0.5) == pytest.approx(0.047824168367422655, rel=1e-13)
        assert mse_ra_analytic(0.5) == pytest.approx(0.04265126885166334, rel=1e-13)
        assert mse_ratio_ra_bw(0.5) == pytest.approx(0.8913943388829295, rel=1e-13)

    def test_published_ratio_close_to_exact(self):
        """The rounded-exponent ratio stays within 1% of the exact quotient."""
        for eta in (0.3, 1.0, 2.0):
            exact = mse_ra_analytic(eta) / mse_bw_analytic(eta)
            assert mse_ratio_ra_bw(eta) == pytest.approx(exact, rel=1e-2)

    def test_area_scaling(self):
        bw = calibrate("bw", 1.0).spec
        base = mse_numeric(LorentzianLine(1.0), bw)
        scaled = mse_numeric(LorentzianLine(1.0, area=3.0), bw)
        assert scaled == pytest.approx(9.0 * base, rel=1e-9)

    def test_eta_ratio_accepted(self):
        assert mse_bw_analytic(EtaRatio(0.5)) == mse_bw_analytic(0.5)

    def test_crossovers(self):
        assert float(crossover_eta("upper")) == pytest.approx(0.9720397160491081,
                                                              rel=1e-9)
        assert float(crossover_eta("lower")) == pytest.approx(0.18911048574099673,
                                                              rel=1e-9)
        with pytest.raises(ValueError):
            crossover_eta("sideways")

    @given(st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_mse_positive(self, eta):
        assert mse_bw_analytic(eta) > 0
        assert mse_ra_analytic(eta) > 0


def _reference_transfer(spec, k):
    """The transfer of each family written out here, apart from the library."""
    if isinstance(spec, RunningAverage):
        return np.sinc(k * spec.x_o / np.pi)
    if isinstance(spec, BrickWall):
        return 1.0 if k <= spec.k_o else 0.0
    if isinstance(spec, GaussHermite):
        return gammaincc(spec.m + 1, (k / spec.k_s) ** 2)
    k2 = spec.k_1 + spec.dk * np.arccos(1.0 - 1.0 / spec.a)
    if k <= spec.k_1:
        return 1.0
    return spec.a * np.cos((k - spec.k_1) / spec.dk) - spec.a + 1.0 if k < k2 else 0.0


def _reference_mse(gamma, spec, cuts):
    """2*pi * integral_{-inf}^{inf} |F|^2 (1-B)^2 dk by adaptive quadrature.

    Pieces end at the given cuts, then every 5/gamma up to where exp(-2 gamma k)
    has fallen by e^-80, so each piece is well within quad's reach.
    """
    def f(k):
        return np.exp(-2.0 * gamma * k) * (1.0 - _reference_transfer(spec, k)) ** 2

    top = max([0.0, *cuts]) + 40.0 / gamma
    edges = np.unique(np.concatenate([[0.0], cuts, np.arange(0.0, top, 5.0 / gamma), [top]]))
    total = sum(quad(f, lo, hi, epsabs=1e-30, epsrel=1e-13, limit=400)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
    return 4.0 * np.pi * total / (2.0 * np.pi) ** 2


class TestMseQuadratureCore:
    """The batched Gauss-Legendre MSE against references built in this file."""

    etas = (0.1, 0.3, 1.0, 2.0, 3.5, 5.0)

    def _cases(self, x0=1.0):
        yield calibrate("ra", x0).spec, (np.pi / x0 * j for j in range(1, 40))
        bw = calibrate("bw", x0).spec
        yield bw, (bw.k_o,)
        for m in (1, 20, 100):
            yield calibrate("gh", x0, m=m).spec, ()
        for dk in (0.12, 1.0):
            ct = calibrate("ct", x0, a=5.0, dk=dk / x0).spec
            yield ct, (ct.k_1, ct.k_1 + ct.dk * np.arccos(1.0 - 1.0 / ct.a))

    def test_matches_independent_quadrature(self):
        for spec, cuts in self._cases():
            cuts = list(cuts)
            got = mse_numeric([LorentzianLine(eta) for eta in self.etas], spec)
            for eta, value in zip(self.etas, got):
                ref = _reference_mse(eta, spec, cuts)
                assert value == pytest.approx(ref, rel=1e-9), (spec, eta)

    def test_dimensionless_ratios_independent_of_scale(self):
        ratios = {}
        for x0 in (1e-2, 1.0, 1e2):
            ratios[x0] = [
                mse_numeric([LorentzianLine(eta * x0) for eta in self.etas], spec)
                / np.array([mse_bw_analytic(eta, x0) for eta in self.etas])
                for spec, _ in self._cases(x0)
            ]
        for x0 in (1e-2, 1e2):
            for got, unit in zip(ratios[x0], ratios[1.0]):
                np.testing.assert_allclose(got, unit, rtol=1e-10, atol=0.0)

    def test_array_form_equals_scalar_calls(self):
        lines = [LorentzianLine(eta) for eta in np.linspace(0.05, 5.0, 23)]
        lines.append(LorentzianLine(0.7, area=3.0))
        for spec, _ in self._cases():
            got = mse_numeric(lines, spec)
            assert isinstance(got, np.ndarray) and got.shape == (len(lines),)
            assert got.tolist() == [mse_numeric(line, spec) for line in lines]

    def test_panel_budget_fails_fast(self):
        """A range of ten million half-widths raises instead of allocating."""
        with pytest.raises(QuadratureError):
            mse_numeric(LorentzianLine(1e-6), calibrate("ra", 1.0).spec)

    def test_nan_integrand_is_a_failure(self, monkeypatch):
        """A NaN transfer inside the range raises; an estimate never hides it."""
        real = metrics.transfer
        monkeypatch.setattr(metrics, "transfer", lambda spec, k: np.where(
            np.asarray(k) > 6.0, np.nan, real(spec, k)))
        gh = calibrate("gh", 1.0, m=100).spec
        with pytest.raises(QuadratureError):
            mse_numeric(LorentzianLine(1.0), gh)
        got = mse_numeric([LorentzianLine(1.0), LorentzianLine(5.0)], gh)
        assert np.isnan(got[0])
        assert got[1] == mse_numeric(LorentzianLine(5.0), gh)


class TestMseWithNoise:
    def test_zero_noise_reduces_to_plain_mse(self):
        line = LorentzianLine(1.0)
        spec = calibrate("bw", 1.0).spec
        br = mse_with_noise(line, spec, 0.0)
        assert br.noise_term == 0.0
        assert br.total == br.info_term
        assert br.total == pytest.approx(mse_numeric(line, spec), rel=1e-9)

    def test_bw_noise_term_closed_form(self):
        """For a step transfer the noise term is 2 rho (k_max - k_o)."""
        spec = calibrate("bw", 1.0).spec
        br = mse_with_noise(LorentzianLine(1.0), spec, 0.01, k_max=30.0)
        assert br.noise_term == pytest.approx(2 * 0.01 * (30.0 - spec.k_o), rel=1e-10)
        assert br.total == pytest.approx(br.info_term + br.noise_term, rel=1e-12)

    def test_monotone_in_density(self):
        line = LorentzianLine(2.0)
        spec = calibrate("ct", 1.0, a=5.0, dk=0.5).spec
        totals = [mse_with_noise(line, spec, rho, k_max=40.0).total
                  for rho in (0.0, 1e-4, 1e-3, 1e-2)]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_analytic_reference(self):
        br = mse_with_noise(LorentzianLine(0.8), calibrate("bw", 1.0).spec, 0.0)
        assert br.analytic_ref == pytest.approx(mse_bw_analytic(0.8), rel=1e-12)
        assert float(br.eta) == pytest.approx(0.8)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            mse_with_noise(LorentzianLine(1.0), BrickWall(1.0), -1e-3)


class TestNoiseGain:
    def test_frozen_gains(self):
        expected = {
            ("ra", frozenset()): 0.7071067811865476,
            ("bw", frozenset()): 0.7767590130803853,
        }
        assert noise_gain(calibrate("ra", 1.0).spec).rms_gain == pytest.approx(
            expected[("ra", frozenset())], rel=1e-12)
        assert noise_gain(calibrate("bw", 1.0).spec).rms_gain == pytest.approx(
            expected[("bw", frozenset())], rel=1e-12)
        assert noise_gain(calibrate("gh", 1.0, m=100).spec).rms_gain == pytest.approx(
            0.764735213625014, rel=1e-9)
        assert noise_gain(calibrate("ct", 1.0, a=5.0, dk=0.5).spec
                          ).rms_gain == pytest.approx(0.7671765734336621, rel=1e-9)

    def test_ra_closed_identity(self):
        rep = noise_gain(calibrate("ra", 2.0).spec)
        assert rep.rs_value == pytest.approx(0.25, rel=1e-10)

    def test_bw_closed_identity(self):
        spec = calibrate("bw", 1.0).spec
        rep = noise_gain(spec)
        assert rep.rs_value == pytest.approx(spec.k_o / np.pi, rel=1e-12)

    def test_dual_routes_agree(self):
        """Direct-space and reciprocal-space integrals of the same power."""
        specs = [calibrate("ct", 1.0, a=a, dk=dk).spec
                 for a, dk in ((0.5, 0.12), (5.0, 0.5), (50.0, 1.5))]
        specs += [calibrate("gh", 1.0, m=m).spec for m in (1, 10, 100)]
        for spec in specs:
            rep = noise_gain(spec)
            assert rep.ds_value == pytest.approx(rep.rs_value, rel=1e-9)

    def test_ct_scale_covariant(self):
        """Both ct routes run at unit spread, so no scale falls in a gap of the
        oscillatory tail: x0 = 18.7915506... once failed the Parseval check."""
        unit = noise_gain(calibrate("ct", 1.0, a=5.0, dk=0.5).spec)
        x0 = 18.791550682890122
        rep = noise_gain(calibrate("ct", x0, a=5.0, dk=0.5 / x0).spec)
        assert rep.ds_value * x0 == pytest.approx(unit.ds_value, rel=1e-10)
        assert rep.rs_value * x0 == pytest.approx(unit.rs_value, rel=1e-10)

    def test_bw_to_ra_ratio(self):
        ra = noise_gain(calibrate("ra", 1.0).spec).rms_gain
        bw = noise_gain(calibrate("bw", 1.0).spec).rms_gain
        assert bw / ra == pytest.approx(1.10, abs=0.01)


class TestNoiseCutoff:
    gamma = 0.1
    n = 3000

    def _noisy_coeffs(self, sigma, seed):
        s = pseudo_lorentzian_discrete(self.gamma, self.n)
        return dft_forward(add_white_noise(s, NoiseModel(sigma, seed)))

    def test_tracks_crossing_point(self):
        """Estimates stay within 15% of the analytic signal/noise crossing."""
        m = 2 * self.n + 1
        sigma = np.exp(-6.0) / np.sqrt(m)
        theory = np.log(1.0 / (sigma * np.sqrt(m))) / self.gamma
        for seed in (1, 2, 3):
            est = noise_cutoff(self._noisy_coeffs(sigma, seed))
            assert est == pytest.approx(theory, rel=0.15)

    def test_floor_doubling_shift(self):
        """Doubling the supplied power floor moves the cutoff by ln2/(2 gamma)."""
        m = 2 * self.n + 1
        sigma = np.exp(-6.0) / np.sqrt(m)
        c = self._noisy_coeffs(sigma, 1)
        base = noise_cutoff(c, noise_floor=sigma**2 / m)
        doubled = noise_cutoff(c, noise_floor=2 * sigma**2 / m)
        assert base - doubled == pytest.approx(np.log(2) / (2 * self.gamma), rel=0.2)

    def test_noiseless_returns_none(self):
        s = pseudo_lorentzian_discrete(self.gamma, self.n)
        assert noise_cutoff(dft_forward(s)) is None

    def test_noise_dominated_returns_none(self):
        s = pseudo_lorentzian_discrete(5.0, self.n)
        c = dft_forward(add_white_noise(s, NoiseModel(0.01, 4)))
        assert noise_cutoff(c) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            noise_cutoff(np.ones(40, dtype=complex))
        with pytest.raises(ValueError):
            noise_cutoff(np.ones(201, dtype=complex), noise_floor=-1.0)


class TestEstimatePeriod:
    def test_sinusoid(self):
        x = np.linspace(-20.0, 20.0, 4001)
        period = estimate_period(x, np.sin(1.7 * x), center=0.0, half_window=15.0)
        assert period == pytest.approx(2 * np.pi / 1.7, rel=1e-3)

    def test_fallback_when_flat(self):
        x = np.linspace(-1.0, 1.0, 101)
        y = np.ones_like(x)
        assert estimate_period(x, y, 0.0, 1.0, fallback=2.5) == 2.5
        with pytest.raises(ValueError):
            estimate_period(x, y, 0.0, 1.0)


class TestGibbsResidual:
    def test_step_filter_closed_form(self):
        """Residual of a step cutoff has an exact Lorentzian-tail form."""
        line = LorentzianLine(1.0, area=np.pi)
        spec = BrickWall(1.895494267033981)
        x = np.linspace(-10.0, 10.0, 801)
        rep = gibbs_residual(line, spec, x)
        k_o, g = spec.k_o, 1.0
        exact = np.exp(-k_o * g) * (g * np.cos(k_o * x) - x * np.sin(k_o * x)) \
            / (g**2 + x**2)
        np.testing.assert_allclose(rep.residual, exact, atol=1e-10)

    def test_ra_matches_frozen_quadrature(self):
        line = LorentzianLine(1.0, area=np.pi)
        rep = gibbs_residual(line, calibrate("ra", 1.0).spec,
                             np.array([0.0, 2.5]))
        np.testing.assert_allclose(rep.residual,
                                   [0.21460183660255167, -0.01692043778846948],
                                   atol=1e-8)

    def test_period_near_cutoff_wavelength(self):
        spec = calibrate("bw", 1.0).spec
        rep = gibbs_residual(LorentzianLine(1.0, area=np.pi), spec,
                             np.linspace(-30.0, 30.0, 4001))
        assert rep.period_estimate == pytest.approx(
            2 * np.pi / half_transfer_point(spec), rel=0.10)

    def test_amplitude_decay_rate(self):
        """Peak amplitude falls like exp(-k_c gamma) for unit-height lines."""
        spec = calibrate("bw", 1.0).spec
        k_c = half_transfer_point(spec)
        x = np.linspace(-30.0, 30.0, 4001)
        peaks = [gibbs_residual(LorentzianLine(g, area=np.pi * g), spec, x
                                ).peak_amplitude for g in (1.0, 2.0)]
        assert peaks[0] / peaks[1] == pytest.approx(np.exp(k_c), rel=0.05)
