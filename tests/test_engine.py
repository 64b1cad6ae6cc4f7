"""Discrete transform engine: forward/inverse, both filtering paths, I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfilt.engine import (
    RsCoefficients,
    SampleGrid,
    Spectrum,
    TransmissionResult,
    apply_filter_ds,
    apply_filter_rs,
    dft_forward,
    dft_inverse,
    noise_transmission_empirical,
    read_spectrum,
    reconstruct_with_report,
    sampled_kernel,
    write_spectrum,
)
from specfilt.filters import BrickWall, RunningAverage, calibrate
from specfilt.lineshapes import NoiseModel, pseudo_lorentzian_discrete


def _direct_dft(values):
    """O(M^2) reference transform: F_kappa = (1/M) sum_j f_j e^(-i kappa theta_j)."""
    m = len(values)
    n = m // 2
    j = np.arange(-n, n + 1)
    theta = 2.0 * np.pi * j / m
    out = np.empty(m, dtype=complex)
    for i, kappa in enumerate(j):
        out[i] = np.sum(values * np.exp(-1j * kappa * theta)) / m
    return out


def _random_spectrum(rng, n):
    grid = SampleGrid(n)
    return Spectrum(grid, rng.standard_normal(grid.size))


class TestSampleGrid:
    def test_layout(self):
        grid = SampleGrid(3)
        assert grid.size == 7
        np.testing.assert_array_equal(grid.indices, [-3, -2, -1, 0, 1, 2, 3])
        np.testing.assert_allclose(grid.theta, 2 * np.pi * grid.indices / 7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SampleGrid(0)

    def test_spectrum_shape_checked(self):
        with pytest.raises(ValueError):
            Spectrum(SampleGrid(3), np.zeros(5))
        with pytest.raises(ValueError):
            RsCoefficients(SampleGrid(3), np.zeros(5, dtype=complex))


class TestTransforms:
    def test_forward_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        s = _random_spectrum(rng, 8)
        np.testing.assert_allclose(dft_forward(s).coeffs, _direct_dft(s.values),
                                   atol=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        s = _random_spectrum(rng, 100)
        back = dft_inverse(dft_forward(s))
        np.testing.assert_allclose(back.values, s.values, atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, seed, n):
        """sum|f|^2 equals (2N+1) sum|F|^2 for any real input."""
        rng = np.random.default_rng(seed)
        s = _random_spectrum(rng, n)
        c = dft_forward(s)
        lhs = np.sum(np.abs(s.values) ** 2)
        rhs = s.grid.size * np.sum(np.abs(c.coeffs) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mean_coefficient(self):
        s = Spectrum(SampleGrid(5), np.full(11, 3.0))
        c = dft_forward(s)
        assert c.coeffs[5] == pytest.approx(3.0, rel=1e-14)
        assert np.max(np.abs(np.delete(c.coeffs, 5))) < 1e-14

    def test_inverse_rejects_non_hermitian(self):
        grid = SampleGrid(2)
        coeffs = np.array([1.0, 2.0, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            dft_inverse(RsCoefficients(grid, coeffs))


class TestSampledKernel:
    def test_ra_box_weights(self):
        grid = SampleGrid(8)
        dx = 0.25
        w = sampled_kernel(RunningAverage(1.0), grid, dx=dx)
        inside = np.abs(grid.indices * dx) < 1.0
        edge = np.abs(np.abs(grid.indices * dx) - 1.0) < 1e-12
        assert np.allclose(w[inside], w[inside][0])
        assert np.allclose(w[edge], w[inside][0] / 2)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)

    def test_unit_sum(self):
        grid = SampleGrid(128)
        for spec in (calibrate("bw", 0.4).spec,
                     calibrate("gh", 0.4, m=10).spec):
            assert sampled_kernel(spec, grid).sum() == pytest.approx(1.0, rel=1e-12)

    def test_radius_override(self):
        grid = SampleGrid(64)
        w = sampled_kernel(calibrate("bw", 0.3).spec, grid, radius=10)
        assert np.all(w[np.abs(grid.indices) > 10] == 0.0)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(ValueError):
            sampled_kernel(BrickWall(5.0), grid, radius=65)


class TestFilterPaths:
    def test_paths_agree_for_smooth_kernel(self):
        s = pseudo_lorentzian_discrete(0.1, 256)
        spec = calibrate("gh", 0.35, m=10).spec
        rs = apply_filter_rs(s, spec)
        ds = apply_filter_ds(s, spec, radius=256)
        peak = np.max(np.abs(s.values))
        assert np.max(np.abs(rs.values - ds.values)) / peak < 1.5e-3

    def test_rs_shift_equivariance(self):
        rng = np.random.default_rng(3)
        s = _random_spectrum(rng, 64)
        spec = calibrate("bw", 0.3).spec
        rolled = Spectrum(s.grid, np.roll(s.values, 17))
        out_a = np.roll(apply_filter_rs(s, spec).values, 17)
        out_b = apply_filter_rs(rolled, spec).values
        np.testing.assert_allclose(out_a, out_b, atol=1e-12)

    def test_ds_shift_equivariance(self):
        rng = np.random.default_rng(4)
        s = _random_spectrum(rng, 64)
        spec = calibrate("bw", 0.3).spec
        rolled = Spectrum(s.grid, np.roll(s.values, -9))
        out_a = np.roll(apply_filter_ds(s, spec).values, -9)
        out_b = apply_filter_ds(rolled, spec).values
        np.testing.assert_allclose(out_a, out_b, atol=1e-12)

    def test_rs_preserves_mean(self):
        rng = np.random.default_rng(5)
        s = _random_spectrum(rng, 50)
        out = apply_filter_rs(s, calibrate("ct", 0.5, a=5.0, dk=0.5).spec)
        assert out.values.mean() == pytest.approx(s.values.mean(), rel=1e-12)

    def test_bad_k_scale(self):
        s = pseudo_lorentzian_discrete(0.5, 16)
        with pytest.raises(ValueError):
            apply_filter_rs(s, BrickWall(1.0), k_scale=0.0)


class TestNoiseTransmission:
    def test_matches_weight_sum_law(self):
        spec = calibrate("ra", 1.0).spec
        res = noise_transmission_empirical(spec, NoiseModel(1.0, seed=42), 2000,
                                           SampleGrid(128))
        assert abs(res.measured - res.predicted) < 4 * res.std_error
        assert res.trials == 2000

    def test_deterministic(self):
        spec = calibrate("bw", 1.0).spec
        kw = dict(trials=200, grid=SampleGrid(64))
        a = noise_transmission_empirical(spec, NoiseModel(0.3, seed=7), **kw)
        b = noise_transmission_empirical(spec, NoiseModel(0.3, seed=7), **kw)
        assert a.measured == b.measured

    def test_batch_equals_single_calls(self):
        # 300 trials: two full blocks and a partial one
        specs = [calibrate("ra", 1.0).spec, calibrate("bw", 1.0).spec,
                 calibrate("gh", 1.0, m=20).spec, calibrate("ct", 1.0, a=5.0, dk=0.5).spec]
        kw = dict(noise=NoiseModel(1.0, seed=11), trials=300, grid=SampleGrid(64))
        batch = noise_transmission_empirical(specs, **kw)
        assert isinstance(batch, list) and len(batch) == len(specs)
        for spec, res in zip(specs, batch):
            one = noise_transmission_empirical(spec, **kw)
            assert isinstance(one, TransmissionResult)
            assert (res.measured, res.predicted, res.std_error) == \
                (one.measured, one.predicted, one.std_error)

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            noise_transmission_empirical(BrickWall(1.0), NoiseModel(1.0, 0), 99,
                                         SampleGrid(32))


class TestReconstruct:
    def test_period_quantizes_to_first_removed_index(self):
        # cutoff just below 8: the ringing comes from the kappa = 8 term
        s = pseudo_lorentzian_discrete(0.5, 300)
        _, rep = reconstruct_with_report(s, BrickWall(7.95))
        assert rep.period_estimate == pytest.approx(2 * np.pi / 8, rel=0.05)

    def test_residual_definition(self):
        s = pseudo_lorentzian_discrete(0.4, 100)
        recon, rep = reconstruct_with_report(s, BrickWall(5.5))
        np.testing.assert_allclose(rep.residual, recon.values - s.values,
                                   atol=1e-14)
        assert rep.peak_amplitude == pytest.approx(np.max(np.abs(rep.residual)))


class TestSpectrumIo:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.dat")
        x = -3.0 + 0.1 * np.arange(21)
        v = np.sin(x)
        write_spectrum(path, x, v, ["demo"])
        s, x0, dx = read_spectrum(path)
        assert (x0, dx) == (-3.0, pytest.approx(0.1, rel=1e-12))
        np.testing.assert_array_equal(s.values, v)

    def test_even_count_rejected(self, tmp_path):
        path = str(tmp_path / "s.dat")
        write_spectrum(path, [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="odd"):
            read_spectrum(path)

    def test_nonuniform_rejected(self, tmp_path):
        path = str(tmp_path / "s.dat")
        write_spectrum(path, [0.0, 1.0, 2.5], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="uniform"):
            read_spectrum(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = str(tmp_path / "s.dat")
        write_spectrum(path, [0.0, 1.0, 2.0], [1.0, float("nan"), 3.0])
        with pytest.raises(ValueError, match="finite"):
            read_spectrum(path)

    def test_messages_name_the_line(self, tmp_path):
        path = tmp_path / "s.dat"
        for text, message in (("0 1\n1 2 3\n2 3\n", r"s.dat:2: expected two columns, got 3"),
                              ("# c\n0 1\n1 x\n2 3\n", r"s.dat:3: non-numeric data '1 x'"),
                              ("# only a comment\n", r"odd number of points .* got 0")):
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                read_spectrum(str(path))

    def test_values_as_parsed_by_float(self, tmp_path):
        """Every value is float() of its token, comments and blank lines skipped."""
        path = tmp_path / "s.dat"
        rng = np.random.default_rng(7)
        values = rng.normal(size=11) * 10.0 ** rng.integers(-300, 300, 11)
        tokens = [repr(v) for v in values.tolist()]
        tokens[3] = "1_000.5"  # float() syntax the vectorized parse rejects
        lines = [f"  {i!r} {t}  # note" for i, t in enumerate(tokens)]
        path.write_text("# header\n\n" + "\n".join(lines) + "\n")
        s, x0, dx = read_spectrum(str(path))
        assert s.values.tolist() == [float(t) for t in tokens]
        assert (x0, dx) == (0.0, 1.0)

    def test_missing_file(self):
        with pytest.raises(OSError):
            read_spectrum("/no/such/file.dat")
