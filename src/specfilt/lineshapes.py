"""Analytic and discrete test signals.

The Lorentzian line with its closed-form Fourier transform, the periodic
pseudo-Lorentzian built from exponentially decaying coefficients, and
reproducible white-noise draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SampleGrid, Spectrum

__all__ = [
    "LorentzianLine",
    "EtaRatio",
    "NoiseModel",
    "lorentzian_rs",
    "pseudo_lorentzian_discrete",
]

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class LorentzianLine:
    """Half-width gamma, peak position center, integrated area."""

    gamma: float
    center: float = 0.0
    area: float = 1.0

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError(f"lorentzian requires gamma > 0, got {self.gamma}")


@dataclass(frozen=True)
class EtaRatio:
    """Dimensionless gamma / x_o: line half-width over filter half-width."""

    eta: float

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")

    @classmethod
    def from_line(cls, line: LorentzianLine, x_o: float) -> "EtaRatio":
        return cls(line.gamma / x_o)

    def __float__(self) -> float:
        return self.eta


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian i.i.d. per-point fluctuations of rms sigma, seeded for replay."""

    sigma: float
    seed: int

    def __post_init__(self) -> None:
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def sequence(self, index: int, count: int) -> np.ndarray:
        """Draw `count` values for stream `index`; bit-stable per (seed, index)."""
        out = np.empty((1, count))
        self.fill(index, out)
        return out[0]

    def fill(self, start: int, out: np.ndarray) -> None:
        """Fill row i of the 2-D array `out` with stream start + i.

        Stream j is the standard normals of a Philox keyed (seed, j), times
        sigma.  One Philox serves every row: resetting its key and counter
        replays a freshly keyed generator without seeding a new one.
        """
        if not self.sigma:
            out[...] = 0.0
            return
        bits = np.random.Philox(key=np.array([self.seed & _U64, start & _U64],
                                             dtype=np.uint64))
        gen = np.random.Generator(bits)
        fresh = bits.state
        for i, row in enumerate(out):
            if i:
                fresh["state"]["key"][1] = (start + i) & _U64
                bits.state = fresh
            gen.standard_normal(out=row)
        if self.sigma != 1.0:
            out *= self.sigma


def lorentzian_rs(line: LorentzianLine, k):
    """Transform magnitude (area/2pi)*exp(-|k|*gamma).

    For center != 0 the transform carries a phase exp(-i*k*center); only the
    center-independent magnitude is returned since every mean-square measure
    uses |F|^2.
    """
    k = np.asarray(k, dtype=float)
    out = (line.area / (2.0 * np.pi)) * np.exp(-np.abs(k) * line.gamma)
    return out if out.ndim else float(out)


def pseudo_lorentzian_discrete(gamma: float, n: int) -> Spectrum:
    """Periodic line whose coefficients are exp(-|kappa|*gamma)/(2N+1).

    Evaluated as the closed form of the geometric series summed over every
    integer kappa, (1 - r^2) / ((1 - r)^2 + 4r sin^2(theta/2)) / (2N+1) with
    r = exp(-gamma).  It differs from the finite sum over |kappa| <= N by
    the folded-in tail, at most 2 r^(N+1) / ((1 - r)(2N+1)).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    grid = SampleGrid(n)
    r = np.exp(-gamma)
    # denominator written as (1-r)^2 + 4r sin^2(theta/2): no cancellation
    denom = np.expm1(-gamma) ** 2 + 4.0 * r * np.sin(0.5 * grid.theta) ** 2
    return Spectrum(grid, (1.0 - r * r) / denom / grid.size)
