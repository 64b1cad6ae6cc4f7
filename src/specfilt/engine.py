"""Periodic discrete-grid machinery.

Grids carry 2N+1 points theta_j = 2*pi*j/(2N+1), j in [-N, N].  The forward
transform carries the 1/(2N+1) normalization, the inverse carries none, so
Parseval reads sum|f_j|^2 = (2N+1) * sum|F_k|^2.  Filters apply either by
reciprocal-space multiplication or by direct-space circular convolution with a
sampled, truncated, renormalized kernel; the two paths agree up to the kernel
truncation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .filters import FilterSpec, half_transfer_point, kernel, transfer

if TYPE_CHECKING:  # pragma: no cover
    from .lineshapes import NoiseModel
    from .metrics import GibbsReport

__all__ = [
    "SampleGrid",
    "Spectrum",
    "RsCoefficients",
    "dft_forward",
    "dft_inverse",
    "sampled_kernel",
    "apply_filter_rs",
    "apply_filter_ds",
    "noise_transmission_empirical",
    "TransmissionResult",
    "reconstruct_with_report",
    "read_spectrum",
    "write_spectrum",
]


@dataclass(frozen=True)
class SampleGrid:
    """2N+1 uniformly spaced points on the periodic interval (-pi, pi]."""

    n: int

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"grid half-size must be an integer >= 1, got {self.n}")

    @property
    def size(self) -> int:
        return 2 * self.n + 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * self.indices / self.size

    @property
    def density(self) -> float:
        """Points per unit theta, (2N+1)/(2*pi)."""
        return self.size / (2.0 * np.pi)


@dataclass(frozen=True)
class Spectrum:
    grid: SampleGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} real samples, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class RsCoefficients:
    grid: SampleGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} coefficients, got shape {c.shape}"
            )
        object.__setattr__(self, "coeffs", c)


def dft_forward(s: Spectrum) -> RsCoefficients:
    """F_k = (1/(2N+1)) * sum_j f_j exp(-i k theta_j), k in [-N, N]."""
    m = s.grid.size
    coeffs = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(s.values))) / m
    return RsCoefficients(s.grid, coeffs)


def dft_inverse(c: RsCoefficients) -> Spectrum:
    """f_j = sum_k F_k exp(i k theta_j); rejects non-Hermitian coefficients."""
    coeffs = c.coeffs
    scale = float(np.max(np.abs(coeffs))) or 1.0
    asym = float(np.max(np.abs(coeffs - np.conj(coeffs[::-1]))))
    if asym > 1e-10 * scale:
        raise ValueError(
            f"coefficients are not Hermitian-symmetric (asymmetry {asym:.3e}); "
            "a real spectrum requires F(-k) = conj(F(k))"
        )
    m = c.grid.size
    vals = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(coeffs))) * m
    resid = float(np.max(np.abs(vals.imag)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(vals.real)))):
        raise ValueError(f"inverse transform left imaginary residue {resid:.3e}")
    return Spectrum(c.grid, vals.real)


def sampled_kernel(spec: FilterSpec, grid: SampleGrid, dx: float | None = None,
                   trunc: float = 1e-8, radius: int | None = None) -> np.ndarray:
    """Discrete kernel weights on the grid, truncated and renormalized.

    Samples b at offsets j*dx (dx defaults to the theta spacing), zeroes every
    weight beyond the last offset where |b| >= trunc * b(0), then rescales to
    unit sum so the discrete filter stays unitary.  An explicit radius (in
    samples) overrides the threshold rule; widening it tightens agreement
    between the DS and RS application paths, which is exactly the knob the
    convergence tests turn.
    """
    if dx is None:
        dx = 2.0 * np.pi / grid.size
    offsets = grid.indices * dx
    w = np.asarray(kernel(spec, offsets), dtype=float)
    if radius is not None:
        if not 0 <= radius <= grid.n:
            raise ValueError(f"radius must be in [0, {grid.n}], got {radius}")
        w = np.where(np.abs(grid.indices) <= radius, w, 0.0)
    else:
        keep = np.abs(w) >= trunc * abs(float(kernel(spec, 0.0)))
        if np.any(keep):
            w = np.where(np.abs(grid.indices) <= int(np.max(np.abs(grid.indices[keep]))),
                         w, 0.0)
    total = w.sum() * dx
    if total == 0.0:
        raise ValueError("sampled kernel has zero weight; grid too coarse for spec")
    return w * dx / total


def apply_filter_rs(s: Spectrum, spec: FilterSpec, k_scale: float = 1.0,
                    coeffs: RsCoefficients | None = None) -> Spectrum:
    """Multiply coefficients by B(k_scale * kappa) and transform back.

    coeffs, when given, is dft_forward(s), already taken by the caller.
    """
    if not k_scale > 0:
        raise ValueError(f"k_scale must be positive, got {k_scale}")
    c = dft_forward(s) if coeffs is None else coeffs
    shaped = c.coeffs * transfer(spec, k_scale * c.grid.indices)
    return dft_inverse(RsCoefficients(s.grid, shaped))


def apply_filter_ds(s: Spectrum, spec: FilterSpec, dx: float | None = None,
                    trunc: float = 1e-8, radius: int | None = None) -> Spectrum:
    """Circular convolution with the sampled kernel (direct-space path)."""
    w = sampled_kernel(spec, s.grid, dx=dx, trunc=trunc, radius=radius)
    f = np.fft.rfft(np.fft.ifftshift(s.values)) * np.fft.rfft(np.fft.ifftshift(w))
    out = np.fft.fftshift(np.fft.irfft(f, n=s.grid.size))
    return Spectrum(s.grid, out)


# Monte Carlo trials drawn and transformed together; FFT rows are computed
# independently, so no result depends on the block size.
_MC_BLOCK = 128


@dataclass(frozen=True)
class TransmissionResult:
    measured: float     # ensemble rms gain over the trials
    predicted: float    # sqrt(sum of squared discrete kernel weights)
    std_error: float
    trials: int


def noise_transmission_empirical(spec: FilterSpec | Sequence[FilterSpec],
                                 noise: "NoiseModel", trials: int, grid: SampleGrid,
                                 dx: float | None = None
                                 ) -> TransmissionResult | list[TransmissionResult]:
    """Monte Carlo rms gain of filtered white noise against the weight-sum law.

    Each trial filters an independent noise vector drawn from (seed, trial)
    so results do not depend on evaluation order or thread count.  For one
    spec the result is a TransmissionResult; for a sequence of specs it is a
    list, one entry per spec, each equal to the single-spec result.  The
    draws of each trial are made and transformed once and shared by every
    spec.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if not noise.sigma > 0:
        raise ValueError("noise model must have sigma > 0")
    single = isinstance(spec, FilterSpec)
    specs = [spec] if single else list(spec)
    weights = [sampled_kernel(s, grid, dx=dx) for s in specs]
    m = grid.size
    resps = [np.fft.rfft(np.fft.ifftshift(w)) for w in weights]
    gains2 = np.empty((len(specs), trials))
    # One set of block buffers for the whole run: a fresh megabyte-sized
    # array per block would be mapped, faulted in and unmapped every time.
    draws, filt = np.empty((_MC_BLOCK, m)), np.empty((_MC_BLOCK, m))
    eps_k = np.empty((_MC_BLOCK, m // 2 + 1), dtype=complex)
    shaped = np.empty_like(eps_k)
    for start in range(0, trials, _MC_BLOCK):
        rows = min(_MC_BLOCK, trials - start)
        for i in range(rows):
            draws[i] = noise.sequence(start + i, m)
        np.fft.rfft(draws[:rows], axis=1, out=eps_k[:rows])
        for g2, resp in zip(gains2, resps):
            np.multiply(eps_k[:rows], resp, out=shaped[:rows])
            np.fft.irfft(shaped[:rows], n=m, axis=1, out=filt[:rows])
            np.square(filt[:rows], out=filt[:rows])
            g2[start:start + rows] = np.mean(filt[:rows], axis=1) / noise.sigma**2
    results = []
    for w, g2 in zip(weights, gains2):
        measured = float(np.sqrt(np.mean(g2)))
        # delta method: se(sqrt(g2)) = se(g2) / (2 sqrt(g2))
        se = float(np.std(g2, ddof=1) / np.sqrt(trials) / (2.0 * measured))
        predicted = float(np.sqrt(np.sum(w**2)))
        results.append(TransmissionResult(measured, predicted, se, trials))
    return results[0] if single else results


def reconstruct_with_report(s: Spectrum, spec: FilterSpec, k_scale: float = 1.0,
                            coeffs: RsCoefficients | None = None
                            ) -> tuple[Spectrum, "GibbsReport"]:
    """Filter along the RS path and report the residual oscillation.

    coeffs, when given, is dft_forward(s), already taken by the caller.
    """
    from .metrics import GibbsReport, estimate_period

    filtered = apply_filter_rs(s, spec, k_scale=k_scale, coeffs=coeffs)
    residual = filtered.values - s.values
    theta = s.grid.theta
    peak = float(np.max(np.abs(residual)))
    # cutoff in index units; the expected theta-period is 2*pi/k_c
    k_c = half_transfer_point(spec) / k_scale
    period = estimate_period(theta, residual,
                             center=float(theta[np.argmax(np.abs(residual))]),
                             half_window=3.0 * 2.0 * np.pi / k_c,
                             fallback=2.0 * np.pi / k_c)
    return filtered, GibbsReport(residual=residual, peak_amplitude=peak,
                                 period_estimate=period)


def read_spectrum(path: str) -> tuple[Spectrum, float, float]:
    """Load a two-column x/f text file; returns (spectrum, x_start, dx).

    Text after '#' is a comment.  The grid must hold an odd number of
    points (2N+1, N >= 1) with uniform spacing to 1e-9 relative.
    """
    with open(path) as fh:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a file without data warns
                data = np.loadtxt(fh, ndmin=2)
        except (ValueError, UserWarning):
            data = None
        if data is None or data.shape[1] != 2:
            # parse again, for the message naming the bad line
            fh.seek(0)
            data = _read_rows(path, fh)
    count = len(data)
    if count < 3 or count % 2 == 0:
        raise ValueError(
            f"{path}: need an odd number of points (2N+1, N >= 1), got {count}"
        )
    x, vals = np.ascontiguousarray(data.T)
    steps = np.diff(x)
    dx = float(np.mean(steps))
    if dx <= 0:
        raise ValueError(f"{path}: x column must be strictly increasing")
    worst = int(np.argmax(np.abs(steps - dx)))
    if np.abs(steps[worst] - dx) > 1e-9 * abs(dx):
        raise ValueError(
            f"{path}: non-uniform grid: step {worst} is {steps[worst]!r} "
            f"but the mean spacing is {dx!r} (tolerance 1e-9 relative)"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{path}: non-finite sample values")
    grid = SampleGrid((count - 1) // 2)
    return Spectrum(grid, vals), float(x[0]), dx


def _read_rows(path: str, fh) -> np.ndarray:
    """The (x, f) rows of an open spectrum file, parsed line by line.

    Slow, but its errors name the first bad line.
    """
    rows = []
    for ln, raw in enumerate(fh, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected two columns, got {len(parts)}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(f"{path}:{ln}: non-numeric data {line!r}") from None
    return np.array(rows, dtype=float).reshape(-1, 2)


def write_spectrum(path: str, x: np.ndarray, values: np.ndarray,
                   header: list[str] | None = None) -> None:
    """Write a two-column x/f text file with optional '#' header lines."""
    with open(path, "w") as fh:
        for line in header or []:
            fh.write(f"# {line}\n")
        for xi, vi in zip(np.asarray(x).tolist(), np.asarray(values).tolist()):
            fh.write(f"{xi!r} {vi!r}\n")
