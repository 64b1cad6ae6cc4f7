"""Transfer functions, kernels, calibration, and spec serialization.

Numeric reference values are frozen outputs of independent routes: scalar
root-finding on the sinc equation, adaptive cosine-transform quadrature for
kernels, and closed-form special-function identities.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq

from specfilt._gauss import gauss_legendre
from specfilt.filters import (
    SINC_HALF_CROSSING,
    BrickWall,
    CalibrationError,
    CosineTerminated,
    GaussHermite,
    RunningAverage,
    breakpoints,
    calibrate,
    ds_cutoff,
    gh_kernel_quadrature,
    half_transfer_point,
    k2_of,
    kernel,
    parse_spec,
    serialize_spec,
    special_case,
    support_cutoff,
    transfer,
)
from specfilt.metrics import noise_gain


class TestHalfHeightConstant:
    def test_four_digit_value(self):
        """The sinc half-height crossing rounds to 1.895."""
        assert abs(SINC_HALF_CROSSING - 1.895) <= 5e-4

    def test_independent_root(self):
        """Re-solving sin(z)/z = 1/2 by brentq agrees to 1e-12."""
        z = brentq(lambda t: math.sin(t) / t - 0.5, 1.0, 2.5, xtol=1e-15)
        assert abs(z - SINC_HALF_CROSSING) < 1e-12

    def test_is_a_root(self):
        assert abs(math.sin(SINC_HALF_CROSSING) / SINC_HALF_CROSSING - 0.5) < 1e-15


class TestCalibration:
    def test_bw_cutoff(self):
        """Brick-wall cutoff is the sinc crossing divided by x_o."""
        res = calibrate("bw", 1.0)
        assert res.spec.k_o == pytest.approx(1.895494267033981, abs=1e-12)
        res2 = calibrate("bw", 2.0)
        assert res2.spec.k_o == pytest.approx(0.9477471335169905, abs=1e-12)

    def test_ra_passthrough(self):
        spec = calibrate("ra", 0.7).spec
        assert isinstance(spec, RunningAverage) and spec.x_o == 0.7

    def test_gh_scales(self):
        # frozen from the gamma-expectation identity solved independently
        assert calibrate("gh", 1.0, m=100).spec.k_s == pytest.approx(
            0.18833080789450612, rel=1e-10)
        assert calibrate("gh", 1.0, m=1).spec.k_s == pytest.approx(
            1.2507182372452492, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 129, 2000])
    def test_node_rule_is_numpys(self, n):
        """The cached rule is numpy's, and read-only because every caller shares it."""
        nodes, weights = gauss_legendre(n)
        ref_nodes, ref_weights = leggauss(n)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_ct_onset(self):
        spec = calibrate("ct", 1.0, a=5.0, dk=0.5).spec
        assert spec.k_1 == pytest.approx(1.6791246414768026, rel=1e-10)

    def test_residuals_reported(self):
        for family, kw in (("bw", {}), ("gh", {"m": 10}), ("ct", {"a": 5.0, "dk": 0.5})):
            assert calibrate(family, 1.0, **kw).residual < 1e-10

    def test_ct_unreachable_half_height(self):
        """A very wide, very steep rolloff cannot be dropped to half height."""
        with pytest.raises(CalibrationError, match=(
                r"ct\(a=200.0, dk=40.0\) cannot reach b\(1.0\)/b\(0\) = 1/2 for any "
                r"k_1 >= 0; residual at the clamped k_1 = 0 is -4.131e-01")):
            calibrate("ct", 1.0, a=200.0, dk=40.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            calibrate("gh", 1.0)  # order missing
        with pytest.raises(ValueError):
            calibrate("ra", -1.0)
        with pytest.raises(ValueError):
            CosineTerminated(1.0, 0.3, 0.5)  # a below 1/2
        with pytest.raises(ValueError, match="a >= 1/2"):
            calibrate("ct", 1.0, a=0.3, dk=0.5)
        with pytest.raises(ValueError, match="dk > 0"):
            calibrate("ct", 1.0, a=5.0, dk=0.0)
        with pytest.raises(ValueError):
            GaussHermite(0, 1.0)
        with pytest.raises(ValueError):
            calibrate("nope", 1.0)

    @given(st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_bw_scaling_law(self, x_o):
        """k_o * x_o is the same constant for every half-width."""
        k_o = calibrate("bw", x_o).spec.k_o
        assert k_o * x_o == pytest.approx(SINC_HALF_CROSSING, rel=1e-12)
        assert k_o == SINC_HALF_CROSSING / x_o  # the closed form, no search

    def test_ds_cutoff_recovers_x_o(self):
        """Calibration puts the kernel half-height point at x_o exactly."""
        for family, kw in (("ra", {}), ("bw", {}), ("gh", {"m": 20}),
                           ("ct", {"a": 5.0, "dk": 0.5})):
            spec = calibrate(family, 1.3, **kw).spec
            assert ds_cutoff(spec) == pytest.approx(1.3, rel=1e-9)


# Dimensionless free parameter (parameter * x_o) of each calibration.  ct and
# tukey hold dk * x_o fixed, so the parameter cannot depend on x_o either.
_UNIT_SCALE_PARAMETER = {
    "bw": lambda x_o: calibrate("bw", x_o).spec.k_o,
    **{f"gh_m{m}": (lambda m: lambda x_o: calibrate("gh", x_o, m=m).spec.k_s)(m)
       for m in (1, 20, 100)},
    **{f"ct_a{a}_w{w}": (lambda a, w: lambda x_o: calibrate(
        "ct", x_o, a=a, dk=w / x_o).spec.k_1)(a, w)
       for a in (0.5, 5.0) for w in (0.12, 0.5)},
    "tukey": lambda x_o: special_case("tukey", x_o, dk=0.3 / x_o).k_1,
    "hann": lambda x_o: special_case("hann", x_o).dk,
    "welch_approx": lambda x_o: special_case("welch_approx", x_o).dk,
}

# ct (a, w = dk x_o) grid: for each a, the smallest w on the grid for which no
# k_1 >= 0 reaches half height (every k_1 overshoots).  No grid point lies
# within 3 % of the boundary.
_CT_SPREADS = (0.05, 0.1, 0.2, 0.5, 0.8, 1.2, 1.5, 2.0, 2.7, 3.5, 4.5, 10.0, 40.0)
_CT_FIRST_INFEASIBLE = {0.5: 1.2, 0.75: 1.5, 1.0: 2.0, 1.5: 2.7, 2.0: 2.7, 3.0: 3.5,
                        5.0: 4.5, 10.0: 10.0, 20.0: 10.0, 50.0: 40.0, 100.0: 40.0,
                        200.0: 40.0}


class TestCalibrationScale:
    """Every family calibrates at unit scale, so x_o only divides the result."""

    @pytest.fixture(scope="class")
    def at_unit_scale(self):
        return {name: f(1.0) for name, f in _UNIT_SCALE_PARAMETER.items()}

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=40, deadline=None)
    def test_parameter_times_x_o_is_scale_free(self, at_unit_scale, log10_x_o):
        """parameter * x_o equals its x_o = 1 value to 2 ulp over x_o in [1e-6, 1e6]."""
        x_o = 10.0**log10_x_o
        for name, f in _UNIT_SCALE_PARAMETER.items():
            assert f(x_o) * x_o == pytest.approx(at_unit_scale[name], rel=4.5e-16,
                                                 abs=0.0), name

    @pytest.mark.parametrize("x_o", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_ct_infeasible_pairs(self, x_o):
        infeasible = set()
        for a in _CT_FIRST_INFEASIBLE:
            for w in _CT_SPREADS:
                try:
                    calibrate("ct", x_o, a=a, dk=w / x_o)
                except CalibrationError:
                    infeasible.add((a, w))
        assert infeasible == {(a, w) for a, first in _CT_FIRST_INFEASIBLE.items()
                              for w in _CT_SPREADS if w >= first}


class TestTransfer:
    def test_unit_at_zero(self):
        """All four families pass dc unchanged."""
        specs = [RunningAverage(1.0), BrickWall(2.0), GaussHermite(5, 0.4),
                 CosineTerminated(1.5, 5.0, 0.5)]
        for spec in specs:
            assert float(transfer(spec, 0.0)) == pytest.approx(1.0, abs=1e-14)

    def test_ra_is_sinc(self):
        assert float(transfer(RunningAverage(1.0), 1.0)) == pytest.approx(
            math.sin(1.0), rel=1e-15)

    def test_bw_step(self):
        spec = BrickWall(2.0)
        k = np.array([0.0, 1.999, 2.001, 10.0])
        np.testing.assert_array_equal(transfer(spec, k), [1.0, 1.0, 0.0, 0.0])

    def test_gh_incomplete_gamma_value(self):
        # Q(3, 1) = 2.5/e, the order-2 transfer at k = k_s
        assert float(transfer(GaussHermite(2, 1.0), 1.0)) == pytest.approx(
            0.9196986029286058, rel=1e-14)

    def test_gh_monotone(self):
        spec = GaussHermite(10, 0.5)
        k = np.linspace(0.0, 8.0, 200)
        b = np.asarray(transfer(spec, k))
        assert np.all(np.diff(b) <= 0)

    def test_ct_sections(self):
        spec = CosineTerminated(1.5, 5.0, 0.5)
        k2 = k2_of(spec)
        assert float(transfer(spec, 1.2)) == 1.0
        assert float(transfer(spec, k2 + 1e-9)) == 0.0
        half_k = spec.k_1 + spec.dk * math.acos(1.0 - 0.5 / spec.a)
        assert float(transfer(spec, half_k)) == pytest.approx(0.5, abs=1e-12)
        assert half_transfer_point(spec) == pytest.approx(half_k, rel=1e-14)

    def test_even_in_k(self):
        spec = CosineTerminated(1.5, 5.0, 0.5)
        k = np.linspace(0.0, 3.0, 50)
        np.testing.assert_allclose(transfer(spec, -k), transfer(spec, k), atol=0)

    def test_scalar_in_scalar_out(self):
        out = transfer(BrickWall(1.0), 0.5)
        assert np.ndim(out) == 0


class TestKernel:
    def test_ra_box(self):
        spec = RunningAverage(2.0)
        x = np.array([0.0, 1.9, 2.0, 2.1])
        np.testing.assert_allclose(kernel(spec, x), [0.25, 0.25, 0.125, 0.0])

    def test_bw_sinc(self):
        spec = BrickWall(1.895494267033981)
        assert float(kernel(spec, 0.0)) == pytest.approx(spec.k_o / math.pi, rel=1e-14)
        assert float(kernel(spec, 1.3)) == pytest.approx(
            math.sin(spec.k_o * 1.3) / (math.pi * 1.3), rel=1e-14)

    def test_ct_matches_cosine_transform(self):
        """Closed form vs frozen adaptive quadrature of the transfer."""
        spec = calibrate("ct", 1.0, a=5.0, dk=0.5).spec
        frozen = {0.0: 0.6022812733942985, 2.0: -0.09432570012290306,
                  5.0: -0.0024245717111345128}
        for xv, ref in frozen.items():
            assert float(kernel(spec, xv)) == pytest.approx(ref, abs=2e-12)

    def test_ct_removable_singularities(self):
        """Values at the 1/x pole locations interpolate smoothly."""
        spec = calibrate("ct", 1.0, a=5.0, dk=0.5).spec
        for c in (0.0, 1.0 / spec.dk, -1.0 / spec.dk):
            around = kernel(spec, np.array([c - 1e-7, c, c + 1e-7]))
            assert abs(around[1] - 0.5 * (around[0] + around[2])) < 1e-8

    def test_gh_matches_40_digit_hermite_sum(self):
        """The GH kernel against its Hermite series in 40-digit arithmetic.

        b(x) = k_s/(2 sqrt(pi)) exp(-y^2) sum_{n<=m} (-1)^n H_2n(y)/(4^n n!),
        y = k_s x / 2, with H_j from the physicists' recurrence, at y from the
        centre to past the point where the library returns exact zeros.  The
        oracle also confirms the bound |b(x)/b(0)| <= (m+1) exp(-y^2/2) that
        sets that point.
        """
        k_s = 0.8
        for m in (1, 20, 100, 200, 1000):
            ys = np.concatenate([np.linspace(0.0, 4.0 / math.sqrt(m), 9),
                                 np.linspace(0.5, 12.0, 24)])
            with mpmath.workdps(40):
                sums = [_gh_hermite_sum(m, y) for y in ys]
            ref = np.array(sums) * k_s / (2.0 * math.sqrt(math.pi))
            got = np.asarray(kernel(GaussHermite(m, k_s), 2.0 * ys / k_s))
            assert np.max(np.abs(got - ref)) <= 1e-12 * ref[0], m
            assert np.all(np.abs(ref) <= (m + 1) * np.exp(-0.5 * ys**2) * ref[0]), m
            assert got[-1] == 0.0

    def test_gh_table_matches_quadrature(self):
        spec = calibrate("gh", 1.0, m=100).spec
        for xv in (0.7, 3.3):
            assert float(kernel(spec, xv)) == pytest.approx(
                gh_kernel_quadrature(spec, xv), abs=1e-9)

    def test_gh_zero_beyond_table(self):
        spec = GaussHermite(4, 0.8)
        assert float(kernel(spec, 1e6)) == 0.0

    def test_unit_integral(self):
        """Kernels integrate to 1, matching the unit dc transfer."""
        for spec in (RunningAverage(1.5),
                     calibrate("ct", 1.0, a=5.0, dk=0.5).spec):
            val = quad(lambda x: float(kernel(spec, x)), 0.0, 200.0,
                       limit=2000)[0] * 2.0
            assert val == pytest.approx(1.0, abs=5e-4)

    def test_bw_unit_integral_with_tail(self):
        """The sinc kernel sums to 1 once the slow tail is added analytically."""
        from scipy.special import sici

        spec = BrickWall(2.0)
        head = quad(lambda x: float(kernel(spec, x)), 0.0, 200.0, limit=2000)[0]
        tail = (0.5 * math.pi - sici(spec.k_o * 200.0)[0]) / math.pi
        assert 2.0 * (head + tail) == pytest.approx(1.0, abs=1e-8)

    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_even_in_x(self, xv):
        spec = CosineTerminated(1.7, 5.0, 0.5)
        assert float(kernel(spec, -xv)) == pytest.approx(float(kernel(spec, xv)),
                                                         rel=1e-12, abs=1e-15)


def _gh_hermite_sum(m: int, y: float) -> float:
    """exp(-y^2) sum_{n<=m} (-1)^n H_2n(y) / (4^n n!) at the working mpmath precision."""
    y = mpmath.mpf(y)
    h_prev, h = mpmath.mpf(1), 2 * y      # H_0, H_1
    total, weight = mpmath.mpf(1), mpmath.mpf(1)
    for n in range(1, m + 1):
        h_prev, h = h, 2 * y * h - 2 * (2 * n - 1) * h_prev            # H_2n-1 -> H_2n
        weight /= -4 * n
        total += weight * h
        h_prev, h = h, 2 * y * h - 4 * n * h_prev                      # H_2n+1
    return float(mpmath.exp(-y * y) * total)


class TestStructure:
    def test_support_cutoff(self):
        assert support_cutoff(RunningAverage(1.0)) is None
        assert support_cutoff(BrickWall(2.0)) == 2.0
        spec = CosineTerminated(1.5, 5.0, 0.5)
        assert support_cutoff(spec) == pytest.approx(k2_of(spec), rel=1e-14)
        gh = calibrate("gh", 1.0, m=100).spec
        assert support_cutoff(gh) == pytest.approx(2.6805788449025, rel=1e-9)

    def test_breakpoints(self):
        spec = calibrate("ct", 1.0, a=5.0, dk=0.5).spec
        assert breakpoints(spec) == (spec.k_1, k2_of(spec))
        assert breakpoints(BrickWall(1.1)) == (1.1,)


class TestNotASpec:
    """Every function that takes a spec rejects anything else with TypeError."""

    @pytest.mark.parametrize("call", [
        lambda s: transfer(s, 0.5),
        lambda s: kernel(s, 0.5),
        support_cutoff,
        breakpoints,
        half_transfer_point,
        ds_cutoff,
        serialize_spec,
        noise_gain,
    ], ids=["transfer", "kernel", "support_cutoff", "breakpoints",
            "half_transfer_point", "ds_cutoff", "serialize_spec", "noise_gain"])
    @pytest.mark.parametrize("spec", [object(), None, 1.0, "ra"])
    def test_type_error(self, call, spec):
        with pytest.raises(TypeError, match="unknown filter spec"):
            call(spec)


class TestSpecialCases:
    def test_tukey(self):
        spec = special_case("tukey", 1.0, dk=0.12)
        assert spec.a == 0.5
        assert spec.k_1 == pytest.approx(1.703095391076539, rel=1e-10)

    def test_hann_width_identity(self):
        """The pure raised cosine calibrates to dk = 1/x_o exactly."""
        for x_o in (0.5, 1.0, 2.0):
            spec = special_case("hann", x_o)
            assert spec.k_1 == 0.0 and spec.a == 0.5
            assert spec.dk * x_o == pytest.approx(1.0, rel=1e-12)

    def test_welch_approx(self):
        spec = special_case("welch_approx", 1.0)
        assert spec.a == 1.0
        assert spec.dk == pytest.approx(1.6394079922449114, rel=1e-10)

    def test_tukey_requires_dk(self):
        with pytest.raises(ValueError):
            special_case("tukey", 1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            special_case("blackman", 1.0)


class TestSerialization:
    def test_round_trip_exact(self):
        for spec in (RunningAverage(0.7), BrickWall(1.895494267033981),
                     GaussHermite(100, 0.18833080789450612),
                     CosineTerminated(1.6791246414768026, 5.0, 0.5)):
            assert parse_spec(serialize_spec(spec)) == spec

    def test_gh_float_order_round_trip(self):
        """An integral float order is stored as an int, so its block parses back."""
        spec = GaussHermite(20.0, 0.4)
        assert type(spec.m) is int and "m=20\n" in serialize_spec(spec)
        assert parse_spec(serialize_spec(spec)) == spec == GaussHermite(20, 0.4)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.5, max_value=100.0),
           st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_ct_round_trip_property(self, k_1, a, dk):
        spec = CosineTerminated(k_1, a, dk)
        assert parse_spec(serialize_spec(spec)) == spec

    def test_metadata_tolerated(self):
        text = serialize_spec(BrickWall(2.0), x_o=0.9477471335169905)
        assert "x_o=" in text
        assert parse_spec(text) == BrickWall(2.0)

    def test_comments_and_blank_lines(self):
        text = "# header\n\nfamily=bw\nk_o=1.5\n"
        assert parse_spec(text) == BrickWall(1.5)

    def test_inconsistent_k2_rejected(self):
        spec = CosineTerminated(1.5, 5.0, 0.5)
        text = serialize_spec(spec).replace(repr(k2_of(spec)), repr(k2_of(spec) + 0.1))
        with pytest.raises(ValueError):
            parse_spec(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("family=bw\nk_o=1.5\nbogus=3\n")

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("family=gh\nm=5\n")
