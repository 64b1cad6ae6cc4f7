"""Reciprocal-space error measures, noise transmission, ringing reports.

The closed forms here have independent numeric counterparts (adaptive
quadrature, literal tail sums); frozen values pin both routes.
"""

import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from specfilt import _gauss, filters, metrics
from specfilt._gauss import exp_weighted
from specfilt.engine import SampleGrid, Spectrum
from specfilt.filters import (
    BrickWall,
    CosineTerminated,
    GaussHermite,
    RunningAverage,
    calibrate,
    half_transfer_point,
    kernel,
    transfer,
)
from specfilt.lineshapes import (
    EtaRatio,
    LorentzianLine,
    NoiseModel,
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

    @pytest.mark.parametrize("eta", [1e-300, 1e-200, 1e-160, 1e-151, 1e-149, 1e-100, 1e-3])
    def test_ra_at_tiny_eta(self, eta):
        """Where 1/eta^2 overflows, log1p(1/eta^2) is taken as -2 log(eta):
        both closed forms stay finite and match 40-digit mpmath to 1e-12."""
        with mp.workdps(40):
            e = mp.mpf(eta)
            log_term = mp.log(1 + 1 / e**2)
            ra = (0.5 / e - 2 * mp.atan(0.5 / e) - 0.5 * e * log_term + mp.atan(1 / e)) / mp.pi
            ratio = mp.exp(mp.mpf("3.79") * e) * (
                1 - 4 * e * mp.atan(0.5 / e) - e**2 * log_term + 2 * e * mp.atan(1 / e))
        assert mse_ra_analytic(eta) == pytest.approx(float(ra), rel=1e-12)
        assert mse_ratio_ra_bw(eta) == pytest.approx(float(ratio), rel=1e-12)

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

    @pytest.mark.parametrize("flat_from", [1.0, np.inf])
    def test_infinite_end_is_over_the_panel_budget(self, flat_from):
        """A subnormal rate's range ends at inf: its panel count is over the
        budget (NaN, inf estimate), and the other rates keep their values."""
        values, errors = exp_weighted(np.ones_like, [2e-310, 1.0], [np.inf, 30.0], (), 1.0,
                                      flat_from)
        assert np.isnan(values[0]) and np.isinf(errors[0])
        assert values[1] == pytest.approx(-np.expm1(-30.0), rel=1e-13)

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

    def test_mismatch_message_prints_plain_floats(self):
        class Disagreeing(BrickWall):
            def _noise_integrals(self):
                return np.float64(0.25), 0.5

        with pytest.raises(QuadratureError) as info:
            noise_gain(Disagreeing(1.0))
        assert str(info.value) == \
            "direct- and reciprocal-space noise integrals disagree: 0.25 vs 0.5"

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

    def test_small_dk_finishes(self):
        """Near the brick-wall end of the ct family (k_1/dk up to ~1900) both
        routes finish and agree, and the gain climbs towards BW's."""
        rs = []
        for dk in (0.5, 0.01, 0.001):
            rep = noise_gain(calibrate("ct", 1.0, a=5.0, dk=dk).spec)
            assert rep.ds_value == pytest.approx(rep.rs_value, rel=1e-9)
            rs.append(rep.rs_value)
        assert rs[0] < rs[1] < rs[2] < calibrate("bw", 1.0).spec.k_o / np.pi

    def test_panel_budget_fails_fast(self):
        """Past the core's panel budget either route raises at once."""
        for ratio in (1e5, 1e9):  # the rs route over [0, k_2] runs out of panels
            start = time.perf_counter()
            with pytest.raises(QuadratureError):
                noise_gain(CosineTerminated(ratio, 5.0, 1.0))
            assert time.perf_counter() - start < 2.0

    def test_nan_integrand_is_a_failure(self, monkeypatch):
        """A NaN transfer or kernel inside a range raises, never returns NaN.

        gh's ds integrates its kernel; ct's ds is a closed form that reads no
        kernel value."""
        gh = calibrate("gh", 1.0, m=20).spec
        ct = calibrate("ct", 1.0, a=5.0, dk=0.5).spec
        real_transfer, real_kernel = filters.transfer, filters.kernel
        with monkeypatch.context() as patch:
            patch.setattr(filters, "transfer", lambda spec, k: np.where(
                np.asarray(k) > 1.0, np.nan, real_transfer(spec, k)))
            for spec in (gh, ct):
                with pytest.raises(QuadratureError):
                    noise_gain(spec)
        with monkeypatch.context() as patch:
            patch.setattr(filters, "kernel", lambda spec, x: np.where(
                np.asarray(x) > 5.0, np.nan, real_kernel(spec, x)))
            with pytest.raises(QuadratureError):
                noise_gain(gh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("family, kw", [("ra", {}), ("bw", {}), ("gh", {"m": 20}),
                                            ("ct", {"a": 5.0, "dk": 0.5})],
                             ids=["ra", "bw", "gh", "ct"])
    def test_route_that_is_not_finite_is_a_failure(self, family, kw, bad, monkeypatch):
        """A ds that is NaN or inf fails the Parseval test; a bare `>` would pass NaN."""
        spec = calibrate(family, 1.0, **kw).spec
        real = type(spec)._noise_integrals
        monkeypatch.setattr(type(spec), "_noise_integrals", lambda self: (bad, real(self)[1]))
        with pytest.raises(QuadratureError, match="disagree"):
            noise_gain(spec)

    def test_failure_names_the_limit(self, monkeypatch):
        """A miss says whether the panel budget or the estimate failed, in the spec's units."""
        budget = np.isinf(exp_weighted(np.ones_like, [0.0], [1e9], (), 1.0, np.inf)[1][0])
        missed = np.isnan(exp_weighted(lambda k: np.where(k > 0.5, np.nan, 1.0),
                                       [0.0], [2.0], (), 1.0, np.inf)[1][0])
        assert budget and missed
        # k_1/dk = 2e4: the rs route over k in [0, k_2] needs too many panels
        with pytest.raises(QuadratureError, match=r"over k in \[0, 2\.00006\] did not "
                           r"converge: it needs more than the 65536 panels allowed"):
            noise_gain(CosineTerminated(2.0, 5.0, 1e-4))
        real_kernel = filters.kernel
        monkeypatch.setattr(filters, "kernel", lambda spec, x: np.where(
            np.asarray(x) > 5.0, np.nan, real_kernel(spec, x)))
        with pytest.raises(QuadratureError, match="the error estimate missed the tolerance"):
            noise_gain(GaussHermite(20, 1.0))


# ds_value and rs_value of CosineTerminated(r, a, 1) for r = k_1/dk in
# _CT_RATIOS, captured from the adaptive-quadrature routes (scipy QUADPACK,
# incl. QAWF for the ds tail) before they moved to the Gauss-Legendre core.
_CT_RATIOS = (0.0, 1.0, 3.0, 10.0, 30.0)
_CT_FROZEN = {
    0.5: ((0.37500000000000006, 0.375), (0.6933098861837909, 0.6933098861837906),
          (1.3299296585513718, 1.329929658551372), (3.5580988618379075, 3.5580988618379066),
          (9.924296585513707, 9.924296585513721)),
    1.0: ((0.25, 0.25), (0.5683098861837907, 0.5683098861837906),
          (1.2049296585513722, 1.204929658551372), (3.433098861837907, 3.4330988618379066),
          (9.799296585513718, 9.799296585513721)),
    2.0: ((0.173006656867312, 0.17300665686731198), (0.4913165430511027, 0.4913165430511026),
          (1.1279363154186839, 1.1279363154186839), (3.3561055187052196, 3.356105518705219),
          (9.722303242381031, 9.722303242381033)),
    5.0: ((0.1081558426170722, 0.10815584261707128),
          (0.42646572880086453, 0.42646572880086203),
          (1.0630855011684428, 1.0630855011684432), (3.2912547044549796, 3.2912547044549783),
          (9.6574524281308, 9.65745242813079)),
    10.0: ((0.07619594069197877, 0.07619594069197928),
           (0.3945058268757795, 0.39450582687576996),
           (1.031125599243356, 1.0311255992433512), (3.259294802529891, 3.2592948025298862),
           (9.625492526205699, 9.625492526205699)),
}
_ISLAND_X0 = 18.791550682890122


class TestCtNoiseRoutes:
    """The ct noise routes against values frozen from the former quadrature
    and against a 40-digit oracle for the closed-form direct-space integral."""

    def test_frozen_values(self):
        for a, rows in _CT_FROZEN.items():
            for r, (ds, rs) in zip(_CT_RATIOS, rows):
                for dk in (1.0, 0.5 / _ISLAND_X0, 37.0):
                    rep = noise_gain(CosineTerminated(r * dk, a, dk))
                    assert rep.ds_value == pytest.approx(dk * ds, rel=1e-12), (a, r, dk)
                    assert rep.rs_value == pytest.approx(dk * rs, rel=1e-12), (a, r, dk)
        # the scale that once failed the Parseval check
        rep = noise_gain(calibrate("ct", _ISLAND_X0, a=5.0, dk=0.5 / _ISLAND_X0).spec)
        assert rep.ds_value == pytest.approx(0.03132045379103838, rel=1e-12)
        assert rep.rs_value == pytest.approx(0.031320453791038344, rel=1e-12)

    def test_ds_against_oracle(self):
        """The whole-line closed form against a 40-digit Parseval total (1/pi) integral B^2 dk.

        The kernel's terms cancel by a factor of about a^2, so the bound is
        1e-14 relative for a <= 5 and max(1e-14, 8 a^2 eps) beyond.
        """
        with mp.workdps(40):
            for a in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 1e3):
                tol = 1e-14 if a <= 5 else max(1e-14, 8 * a * a * np.finfo(float).eps)
                big_a = mp.mpf(a)
                psi = mp.acos(1 - 1 / big_a)
                roll = mp.quad(lambda u: (1 - big_a + big_a * mp.cos(u)) ** 2, [0, psi],
                               method="gauss-legendre")
                for r in (0.0, 1.0, 3.0, 30.0, 1e3, 6e3):
                    total = float((r + roll) / mp.pi)
                    got = filters._ct_ds(CosineTerminated(r, a, 1.0))
                    assert abs(got - total) <= tol * total, (a, r)

    def test_ds_reads_no_transfer_kernel_or_quadrature(self, monkeypatch):
        """ct's ds is a closed form over the kernel's terms alone; only
        test_ct_pole_terms_sum_to_the_kernel ties those terms to the kernel."""
        spec = CosineTerminated(30.0, 5.0, 1.0)
        expected = filters._ct_ds(spec)

        def refuse(*args, **kwargs):
            raise AssertionError("ct ds evaluated a transfer, a kernel or a quadrature")

        for module, name in ((filters, "transfer"), (filters, "kernel"),
                             (filters, "integral"), (_gauss, "integral")):
            monkeypatch.setattr(module, name, refuse)
        assert filters._ct_ds(spec) == expected


class TestNoiseCutoff:
    gamma = 0.1
    n = 3000

    def _noisy_spectrum(self, sigma, seed):
        s = pseudo_lorentzian_discrete(self.gamma, self.n)
        return Spectrum(s.grid, s.values + NoiseModel(sigma, seed).sequence(0, s.grid.size))

    def test_tracks_crossing_point(self):
        """Estimates stay within 15% of the analytic signal/noise crossing."""
        m = 2 * self.n + 1
        sigma = np.exp(-6.0) / np.sqrt(m)
        theory = np.log(1.0 / (sigma * np.sqrt(m))) / self.gamma
        for seed in (1, 2, 3):
            est = noise_cutoff(self._noisy_spectrum(sigma, seed))
            assert est == pytest.approx(theory, rel=0.15)

    def test_floor_doubling_shift(self):
        """Doubling the supplied power floor moves the cutoff by ln2/(2 gamma)."""
        m = 2 * self.n + 1
        sigma = np.exp(-6.0) / np.sqrt(m)
        s = self._noisy_spectrum(sigma, 1)
        base = noise_cutoff(s, noise_floor=sigma**2 / m)
        doubled = noise_cutoff(s, noise_floor=2 * sigma**2 / m)
        assert base - doubled == pytest.approx(np.log(2) / (2 * self.gamma), rel=0.2)

    def test_noiseless_returns_none(self):
        s = pseudo_lorentzian_discrete(self.gamma, self.n)
        assert noise_cutoff(s) is None

    def test_noise_dominated_returns_none(self):
        s = pseudo_lorentzian_discrete(5.0, self.n)
        noisy = Spectrum(s.grid, s.values + NoiseModel(0.01, 4).sequence(0, s.grid.size))
        assert noise_cutoff(noisy) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            noise_cutoff(Spectrum(SampleGrid(62), np.ones(125)))  # 63 points k = 0..N
        with pytest.raises(ValueError, match="need at least 129 points, got 127"):
            noise_cutoff(Spectrum(SampleGrid(63), np.ones(127)))  # 63 beside k = 0
        with pytest.raises(ValueError):
            noise_cutoff(Spectrum(SampleGrid(100), np.ones(201)), noise_floor=-1.0)

    def test_running_sum_matches_convolution_on_a_long_file(self, monkeypatch):
        """At n = 70 000 (a window of 701 points) the running-sum smoothing
        gives the estimate that np.convolve smoothing gives."""
        n = 70_000
        m = 2 * n + 1
        s = pseudo_lorentzian_discrete(0.02, n)
        noise = NoiseModel(np.exp(-6.0) / np.sqrt(m), 5)
        noisy = Spectrum(s.grid, s.values + noise.sequence(0, s.grid.size))
        est = noise_cutoff(noisy)
        assert est is not None
        monkeypatch.setattr(metrics, "_moving_average",
                            lambda v, win: np.convolve(v, np.ones(win) / win, mode="same"))
        assert est == pytest.approx(noise_cutoff(noisy), rel=1e-12, abs=0.0)


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

    def test_panel_count_scale_free(self, monkeypatch):
        """The same transfer points at every x_o for the same grid in units of x_o."""
        real = metrics.transfer
        counts = []
        for x_o in (1e-3, 1.0, 1e3):
            spec = calibrate("gh", x_o, m=20).spec
            seen = []
            monkeypatch.setattr(metrics, "transfer",
                                lambda s, k: seen.append(np.size(k)) or real(s, k))
            gibbs_residual(LorentzianLine(x_o, area=np.pi * x_o), spec,
                           np.linspace(-12.0 * x_o, 12.0 * x_o, 241))
            counts.append(sum(seen))
        assert counts[0] == counts[1] == counts[2]

    def test_amplitude_decay_rate(self):
        """Peak amplitude falls like exp(-k_c gamma) for unit-height lines."""
        spec = calibrate("bw", 1.0).spec
        k_c = half_transfer_point(spec)
        x = np.linspace(-30.0, 30.0, 4001)
        peaks = [gibbs_residual(LorentzianLine(g, area=np.pi * g), spec, x
                                ).peak_amplitude for g in (1.0, 2.0)]
        assert peaks[0] / peaks[1] == pytest.approx(np.exp(k_c), rel=0.05)


# free parameter of each family and the power of x_o that makes it scale-free
_FREE_PARAMETER = {"ra": ("x_o", -1), "bw": ("k_o", 1), "gh": ("k_s", 1), "ct": ("k_1", 1)}
_KERNEL_U = np.array([0.0, 0.4, 1.0, 2.5])  # kernel abscissae in units of x_o


def _dimensionless(family: str, x_o: float, m: int | None = None,
                   shape: bool = True) -> dict:
    """Results made dimensionless with x_o: at fixed eta they cannot depend on it.

    ct has a = 5 and dk = 0.5/x_o; the MSE is taken at eta = gamma/x_o = 1.
    """
    params = {"gh": {"m": m}, "ct": {"a": 5.0, "dk": 0.5 / x_o}}.get(family, {})
    spec = calibrate(family, x_o, **params).spec
    name, power = _FREE_PARAMETER[family]
    out = {"parameter": getattr(spec, name) * x_o**power,
           "mse": mse_numeric(LorentzianLine(x_o), spec) * x_o}
    if shape:
        out["gain"] = noise_gain(spec).rms_gain * np.sqrt(x_o)
        out["kernel"] = x_o * np.asarray(kernel(spec, _KERNEL_U * x_o))
    return out


_SCALE_CASES = [("ra", None, True), ("bw", None, True), ("ct", None, True),
                ("gh", 1, False), ("gh", 20, False), ("gh", 100, False),
                ("gh", 1, True), ("gh", 20, True), ("gh", 100, True)]


@pytest.fixture(scope="module")
def at_unit_scale():
    """x_o = 1 values of every case, computed before any timed example."""
    return {case: _dimensionless(case[0], 1.0, *case[1:]) for case in _SCALE_CASES}


def _assert_scale_free(ref: dict, family: str, x_o: float, m: int | None = None,
                       shape: bool = True) -> None:
    ref = ref[(family, m, shape)]
    for key, value in _dimensionless(family, x_o, m, shape).items():
        if key == "kernel":  # relative to b(0), since b crosses zero
            assert np.max(np.abs(value - ref[key])) <= 1e-10 * abs(ref[key][0]), key
        else:
            assert value == pytest.approx(ref[key], rel=1e-10, abs=0.0), key


class TestScaleCovariance:
    """Results do not depend on the physical scale x_o (ROADMAP item 4).

    x_o is drawn log-uniform; each dimensionless result must equal its
    x_o = 1 value to 1e-10 relative, and each example must take under 1 s.
    """

    @pytest.mark.parametrize("family", ["ra", "bw", "ct"])
    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=15, deadline=1000)
    def test_closed_form_families(self, at_unit_scale, family, log10_x_o):
        _assert_scale_free(at_unit_scale, family, 10.0**log10_x_o)

    @pytest.mark.parametrize("m", [1, 20, 100])
    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=15, deadline=1000)
    def test_gh_calibration_and_mse(self, at_unit_scale, m, log10_x_o):
        _assert_scale_free(at_unit_scale, "gh", 10.0**log10_x_o, m, shape=False)

    # The GH kernel is a closed form in y = k_s x / 2, and the DS noise route
    # integrates it over y, so both cost the same at every x_o.
    @pytest.mark.parametrize("m", [1, 20, 100])
    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=15, deadline=1000)
    def test_gh_kernel_and_gain(self, at_unit_scale, m, log10_x_o):
        _assert_scale_free(at_unit_scale, "gh", 10.0**log10_x_o, m)

    @pytest.mark.parametrize("m", [1, 100])
    @pytest.mark.parametrize("x_o", [1e-3, 1e3])
    def test_gh_calibration_and_gain_time(self, m, x_o):
        """GH calibrate + noise_gain far from unit scale finishes in under 1 s."""
        filters._gh_half_height_y.cache_clear()  # time the root search too
        start = time.perf_counter()
        noise_gain(calibrate("gh", x_o, m=m).spec)
        assert time.perf_counter() - start < 1.0
