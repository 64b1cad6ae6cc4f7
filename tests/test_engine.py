"""Discrete transform engine: forward transform, both filtering paths, I/O."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centered import centered_coefficients
from specfilt import engine
from specfilt.engine import (
    SampleGrid,
    Spectrum,
    TransmissionResult,
    _mc_mean_squares,
    apply_filter_ds,
    apply_filter_rs,
    noise_transmission_empirical,
    read_spectrum,
    reconstruct_with_report,
    sampled_kernel,
    write_spectrum,
)
from specfilt.filters import BrickWall, RunningAverage, calibrate, transfer
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


class _FailingNoise(NoiseModel):
    """Noise whose streams from 128 on cannot be drawn."""

    def fill(self, start, out):
        if start >= 128:
            raise RuntimeError(f"stream {start} failed")
        super().fill(start, out)


class _FailingOffMainNoise(NoiseModel):
    """Noise that cannot be drawn outside the main thread."""

    def fill(self, start, out):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"stream {start} failed off the main thread")
        super().fill(start, out)


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

    def test_spectrum_values_are_read_only_and_owned(self):
        source = np.zeros(7)
        s = Spectrum(SampleGrid(3), source)
        with pytest.raises(ValueError):
            s.values[0] = 1.0
        source[0] = 1.0
        assert s.values[0] == 0.0


class TestTransforms:
    def test_forward_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        s = _random_spectrum(rng, 8)
        np.testing.assert_allclose(centered_coefficients(s), _direct_dft(s.values),
                                   atol=1e-13)

    def test_round_trip(self):
        """The inverse both filter routes end with undoes the memoized transform."""
        rng = np.random.default_rng(1)
        s = _random_spectrum(rng, 100)
        back = engine._from_half(s.grid, s._half)
        np.testing.assert_allclose(back.values, s.values, atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, seed, n):
        """sum|f|^2 equals (2N+1) sum|F|^2 for any real input."""
        rng = np.random.default_rng(seed)
        s = _random_spectrum(rng, n)
        c = centered_coefficients(s)
        lhs = np.sum(np.abs(s.values) ** 2)
        rhs = s.grid.size * np.sum(np.abs(c) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mean_coefficient(self):
        s = Spectrum(SampleGrid(5), np.full(11, 3.0))
        c = centered_coefficients(s)
        assert c[5] == pytest.approx(3.0, rel=1e-14)
        assert np.max(np.abs(np.delete(c, 5))) < 1e-14


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

    @pytest.mark.parametrize("family, params",
                             [("bw", {}), ("ct", {"a": 5.0, "dk": 0.5}), ("gh", {"m": 20})])
    def test_rs_matches_complex_fft_at_bluestein_length(self, family, params):
        """200 001 = 3 * 163 * 409 points, a length pocketfft runs by
        Bluestein: the real-FFT RS route matches a complex-FFT reference to
        the FFT roundoff scale, eps * log2(2N+1) of the largest value."""
        grid = SampleGrid(100_000)
        m, dx = grid.size, 0.01
        x = grid.indices * dx
        rng = np.random.default_rng(11)
        lines = sum(1.0 / (1.0 + ((x - c) / 3.0) ** 2) for c in (-300.0, 0.0, 410.0))
        s = Spectrum(grid, 0.05 + lines + rng.normal(0.0, 0.02, m))
        spec = calibrate(family, 1.0, **params).spec
        k_scale = 2.0 * np.pi / (m * dx)
        coeffs = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(s.values))) / m
        shaped = coeffs * transfer(spec, k_scale * grid.indices)
        ref = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(shaped))).real * m
        out = apply_filter_rs(s, spec, k_scale=k_scale).values
        tol = np.finfo(float).eps * np.log2(m) * np.max(np.abs(ref))
        assert np.max(np.abs(out - ref)) <= tol


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

    @pytest.mark.parametrize("sigma", [1.0, 0.3])
    @pytest.mark.parametrize("n", [1, 32, 64])
    def test_parseval_matches_direct_space_trials(self, n, sigma):
        # per trial: filter in direct space by an inverse transform, square,
        # average; 300 trials leave a partial block
        specs = [calibrate("ra", 1.0).spec, calibrate("bw", 1.0).spec,
                 calibrate("gh", 1.0, m=20).spec, calibrate("ct", 1.0, a=5.0, dk=0.5).spec]
        grid, noise, trials = SampleGrid(n), NoiseModel(sigma, seed=13), 300
        weights = [sampled_kernel(s, grid) for s in specs]
        got = _mc_mean_squares(weights, noise, trials, grid.size)
        for w, row in zip(weights, got):
            resp = np.fft.rfft(np.fft.ifftshift(w))
            want = np.array([
                np.mean(np.fft.irfft(np.fft.rfft(noise.sequence(t, grid.size)) * resp,
                                     n=grid.size) ** 2) / sigma**2
                for t in range(trials)])
            np.testing.assert_allclose(row, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("sigma", [1.0, 0.3])
    @pytest.mark.parametrize("n", [1, 64, 2048])
    def test_bit_identical_across_worker_counts(self, monkeypatch, n, sigma):
        # every grid is split here, down to 3 points; 128 is one full block,
        # 129 leaves a 1-trial block, 300 and 1000 leave partial ones
        monkeypatch.setattr(engine, "_MC_THREAD_MIN_POINTS", 1)
        specs = [calibrate("ra", 1.0).spec, calibrate("gh", 1.0, m=20).spec]
        grid, noise = SampleGrid(n), NoiseModel(sigma, seed=17)
        weights = [sampled_kernel(s, grid) for s in specs]
        machine = engine._cpu_count()
        for trials in (100, 128, 129, 300, 1000):
            monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
            want = _mc_mean_squares(weights, noise, trials, grid.size)
            for cpus in (2, 3, machine):
                monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
                got = _mc_mean_squares(weights, noise, trials, grid.size)
                assert np.array_equal(got, want), (trials, cpus)

    @pytest.mark.parametrize("trials", [100, 129, 10**5])
    @pytest.mark.parametrize("cpus", [1, 2, 10_000])
    def test_worker_count_rule(self, monkeypatch, cpus, trials):
        def start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
        big = engine._MC_THREAD_MIN_POINTS
        assert engine._mc_workers(trials, big - 1) == 1
        # 128-row blocks, 63 rows in the budget, and one row per worker
        for m, fit in ((big, 128), (4097, 63), (300_001, 1)):
            workers = engine._mc_workers(trials, m)
            rows = engine._mc_rows(workers, m)
            step = rows // workers
            # the last worker's first block starts before the last trial
            assert step >= 1 and (workers - 1) * step < trials
            assert workers == {1: 1, 2: 2, 10_000: min(trials, 128)}[cpus]
            assert rows == min(128, max(workers, fit))
            # within the budget, unless each worker holds a single row
            assert 16 * m * rows <= engine._MC_BUDGET or step == 1

    def test_block_memory_is_bounded(self, monkeypatch):
        # a full block of 128 rows would take 34 MB on this grid; with many
        # CPUs the one-row-per-worker floor would exceed the budget
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        grid = SampleGrid(8192)
        weights = [sampled_kernel(calibrate("ra", 1.0).spec, grid)]
        tracemalloc.start()
        try:
            _mc_mean_squares(weights, NoiseModel(1.0, seed=3), 100, grid.size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * engine._MC_BUDGET + sum(w.nbytes for w in weights)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failing_worker_raises_after_join(self, monkeypatch, cpus):
        monkeypatch.setattr(engine, "_MC_THREAD_MIN_POINTS", 1)
        monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed"):
            noise_transmission_empirical(BrickWall(1.0), _FailingNoise(1.0, seed=3),
                                         trials=300, grid=SampleGrid(32))
        assert threading.active_count() == before

    def test_failing_started_thread_raises_in_caller(self, monkeypatch):
        monkeypatch.setattr(engine, "_MC_THREAD_MIN_POINTS", 1)
        monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="off the main thread"):
            noise_transmission_empirical(BrickWall(1.0), _FailingOffMainNoise(1.0, seed=3),
                                         trials=300, grid=SampleGrid(32))
        assert threading.active_count() == before


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

    def test_rows_split_across_writes(self, monkeypatch, tmp_path):
        monkeypatch.setattr(engine, "_WRITE_ROWS", 4)
        path = tmp_path / "s.dat"
        x, v = 0.1 * np.arange(11), np.sqrt(np.arange(11.0))
        write_spectrum(str(path), x, v, ["demo"])
        assert path.read_text() == "# demo\n" + "".join(
            f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), v.tolist()))

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_x_rejected(self, tmp_path, bad):
        path = str(tmp_path / "s.dat")
        write_spectrum(path, [0.0, 1.0, bad], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"s\.dat: non-finite x values$"):
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
