"""Lorentzian test lines, the periodic discrete variant, and seeded noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specfilt.lineshapes import (
    EtaRatio,
    LorentzianLine,
    NoiseModel,
    lorentzian_rs,
    pseudo_lorentzian_discrete,
)


class TestLorentzian:
    def test_rs_magnitude(self):
        line = LorentzianLine(0.7, area=2.0)
        assert float(lorentzian_rs(line, 0.0)) == pytest.approx(1.0 / np.pi, rel=1e-14)
        assert float(lorentzian_rs(line, 3.0)) == pytest.approx(
            0.03897909173968021, rel=1e-12)

    def test_rs_exponential_decay(self):
        line = LorentzianLine(0.4)
        k = np.array([1.0, 2.0, 3.0])
        vals = np.asarray(lorentzian_rs(line, k))
        np.testing.assert_allclose(vals[1:] / vals[:-1], np.exp(-0.4), rtol=1e-12)

    def test_center_and_validation(self):
        k = np.array([0.0, 1.5, 4.0])
        np.testing.assert_array_equal(lorentzian_rs(LorentzianLine(0.5, center=2.0), k),
                                      lorentzian_rs(LorentzianLine(0.5), k))
        with pytest.raises(ValueError):
            LorentzianLine(0.0)

    def test_eta_ratio(self):
        eta = EtaRatio.from_line(LorentzianLine(1.5), 0.5)
        assert float(eta) == pytest.approx(3.0, rel=1e-14)
        with pytest.raises(ValueError):
            EtaRatio(-1.0)


class TestPseudoLorentzian:
    def test_frozen_values(self):
        f = pseudo_lorentzian_discrete(0.5, 200).values
        assert f[200] == pytest.approx(0.01018201537424837, rel=1e-13)
        assert f[210] == pytest.approx(0.009290268667770768, rel=1e-13)

    def test_against_literal_sum(self):
        # independent oracle: sum exp(-gamma|m|) cos(m theta) term by term
        gamma, n = 0.3, 50
        m = 2 * n + 1
        theta = 2.0 * np.pi * np.arange(-n, n + 1) / m
        direct = np.zeros(m)
        for j in range(-n, n + 1):
            direct += np.exp(-gamma * abs(j)) * np.cos(j * theta)
        direct /= m
        closed = pseudo_lorentzian_discrete(gamma, n).values
        bound = 10.0 * np.exp(-(n + 1) * gamma)
        assert np.max(np.abs(closed - direct)) < bound

    def test_symmetry_and_sum(self):
        gamma, n = 0.2, 64
        f = pseudo_lorentzian_discrete(gamma, n).values
        np.testing.assert_allclose(f, f[::-1], rtol=1e-12)
        # the closed form folds the infinite tail back in, raising the sum
        # above 1 by about 2 exp(-gamma (2n+1))
        alias = 3.0 * np.exp(-gamma * (2 * n + 1))
        assert f.sum() == pytest.approx(1.0, abs=alias + 1e-12)

    @given(st.floats(min_value=0.05, max_value=2.0),
           st.integers(min_value=8, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_positive_everywhere(self, gamma, n):
        assert np.all(pseudo_lorentzian_discrete(gamma, n).values > 0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            pseudo_lorentzian_discrete(-0.1, 50)

    @pytest.mark.parametrize("gamma", [0.01, 0.001])
    def test_large_grid_and_small_gamma(self, gamma):
        # the closed form and the finite sum part by roundoff here, beyond
        # any tail bound; the closed form is still the line asked for
        f = pseudo_lorentzian_discrete(gamma, 70_000).values
        assert np.all(np.isfinite(f)) and np.all(f > 0)


class TestNoiseModel:
    def test_deterministic_replay(self):
        noise = NoiseModel(0.5, seed=11)
        a = noise.sequence(3, 100)
        b = noise.sequence(3, 100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        noise = NoiseModel(1.0, seed=11)
        assert not np.allclose(noise.sequence(0, 50), noise.sequence(1, 50))

    def test_frozen_draws(self):
        # first three draws of the (seed=0, stream=0) generator
        seq = NoiseModel(1.0, seed=0).sequence(0, 3)
        np.testing.assert_allclose(
            seq, [0.15929547, -1.77418852, 1.32651188], rtol=2e-7)

    def test_scaling(self):
        base = NoiseModel(1.0, seed=5).sequence(0, 64)
        scaled = NoiseModel(2.5, seed=5).sequence(0, 64)
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)

    def test_zero_sigma(self):
        assert np.all(NoiseModel(0.0, seed=1).sequence(0, 10) == 0.0)
        block = np.full((3, 10), np.nan)
        NoiseModel(0.0, seed=1).fill(5, block)
        assert np.all(block == 0.0)

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
    def test_block_draws_equal_streams(self, sigma):
        # blocks of 128 rows from 60 and 188: rows on both sides of a block
        # boundary equal the stream drawn alone, and a freshly keyed Philox
        noise = NoiseModel(sigma, seed=21)
        first, second = np.empty((128, 37)), np.empty((128, 37))
        noise.fill(60, first)
        noise.fill(188, second)
        for i in (0, 1, 127):
            for start, block in ((60, first), (188, second)):
                fresh = np.random.Generator(np.random.Philox(
                    key=np.array([21, start + i], dtype=np.uint64)))
                np.testing.assert_array_equal(block[i], noise.sequence(start + i, 37))
                np.testing.assert_array_equal(block[i], fresh.normal(0.0, sigma, 37))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-1.0, seed=0)
