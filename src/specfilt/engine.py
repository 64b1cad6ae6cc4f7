"""Periodic discrete-grid machinery.

Grids carry 2N+1 points theta_j = 2*pi*j/(2N+1), j in [-N, N].  The
coefficients F_k = (1/(2N+1)) sum_j f_j exp(-i k theta_j) carry the
normalization, so Parseval reads sum|f_j|^2 = (2N+1) * sum|F_k|^2.  A
spectrum is real, so its coefficients for k < 0 are the conjugates of those
for k > 0: each Spectrum takes one real FFT of its samples, the k = 0..N
half, (2N+1) F_k, on first use and keeps it.  Filters apply either by
reciprocal-space multiplication or by direct-space circular convolution with
a sampled, truncated, renormalized kernel, both as a product with that half
and one inverse real FFT; the two paths agree up to the kernel truncation.
"""

from __future__ import annotations

import functools
import os
import threading
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


@dataclass(frozen=True)
class Spectrum:
    """2N+1 real samples on a grid; values is a read-only copy it owns."""

    grid: SampleGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} real samples, got shape {vals.shape}"
            )
        vals.flags.writeable = False  # so the memoized transform stays valid
        object.__setattr__(self, "values", vals)

    @functools.cached_property
    def _half(self) -> np.ndarray:
        """(2N+1) F_k for k = 0..N: the rfft of the samples, theta = 0 first."""
        return np.fft.rfft(np.fft.ifftshift(self.values))


def _from_half(grid: SampleGrid, half: np.ndarray) -> Spectrum:
    """The spectrum whose Spectrum._half is `half`, by one inverse real FFT."""
    return Spectrum(grid, np.fft.fftshift(np.fft.irfft(half, n=grid.size)))


# sampled_kernel drops the weights beyond the last one of at least this
# fraction of b(0)
_TRUNC = 1e-8


def sampled_kernel(spec: FilterSpec, grid: SampleGrid, dx: float | None = None,
                   radius: int | None = None) -> np.ndarray:
    """Discrete kernel weights on the grid, truncated and renormalized.

    Samples b at offsets j*dx (dx defaults to the theta spacing), zeroes every
    weight beyond the last offset where |b| >= 1e-8 b(0), then rescales to
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
        keep = np.abs(w) >= _TRUNC * abs(float(kernel(spec, 0.0)))
        if np.any(keep):
            w = np.where(np.abs(grid.indices) <= int(np.max(np.abs(grid.indices[keep]))),
                         w, 0.0)
    total = w.sum() * dx
    if total == 0.0:
        raise ValueError("sampled kernel has zero weight; grid too coarse for spec")
    return w * dx / total


def apply_filter_rs(s: Spectrum, spec: FilterSpec, k_scale: float = 1.0) -> Spectrum:
    """Multiply coefficients by B(k_scale * kappa) and transform back.

    B is even, so the k = 0..N half of the coefficients carries the result.
    """
    if not k_scale > 0:
        raise ValueError(f"k_scale must be positive, got {k_scale}")
    return _from_half(s.grid, s._half * transfer(spec, k_scale * np.arange(s.grid.n + 1)))


def apply_filter_ds(s: Spectrum, spec: FilterSpec, dx: float | None = None,
                    radius: int | None = None) -> Spectrum:
    """Circular convolution with the sampled kernel (direct-space path)."""
    w = sampled_kernel(spec, s.grid, dx=dx, radius=radius)
    return _from_half(s.grid, s._half * np.fft.rfft(np.fft.ifftshift(w)))


# Most Monte Carlo trials drawn and transformed together; FFT rows are
# computed independently, so no result depends on the block size.
_MC_BLOCK = 128
# Bytes the block buffers may take: a block row costs 16 bytes per grid point,
# so grids of 2049 points or more get fewer than _MC_BLOCK rows.
_MC_BUDGET = 4 << 20
# Each trial holds the GIL for a few microseconds in NoiseModel.fill, whatever
# its size; only its draws and FFT run in parallel.  On smaller grids a second
# thread made the trials slower on a 2-CPU machine: for 1000 trials, 15 -> 20 ms
# at 257 points and 22 -> 26 ms at 513, against 46 -> 33 ms at 641.
_MC_THREAD_MIN_POINTS = 600


@dataclass(frozen=True)
class TransmissionResult:
    measured: float     # ensemble rms gain over the trials
    predicted: float    # sqrt(sum of squared discrete kernel weights)
    std_error: float
    trials: int


def noise_transmission_empirical(spec: FilterSpec | Sequence[FilterSpec],
                                 noise: "NoiseModel", trials: int, grid: SampleGrid
                                 ) -> TransmissionResult | list[TransmissionResult]:
    """Monte Carlo rms gain of filtered white noise against the weight-sum law.

    Each trial filters an independent noise vector, stream (seed, trial) of
    the noise model, so results do not depend on evaluation order or thread
    count.  Blocks of trials are drawn through one reused generator and
    transformed once by a forward real FFT; each spec then takes a trial's
    filtered mean square by Parseval, as a weighted sum of the trial's power
    spectrum, with no inverse transform.  On grids of _MC_THREAD_MIN_POINTS
    points or more the blocks are split across threads, one per CPU this
    process may run on, which share one set of block buffers, so memory does
    not grow with the CPU count and every value is bit-identical to a
    one-thread run.  Blocks shrink on large grids so that the buffers stay
    within about 4 MiB whatever the grid size, down to one trial per thread.
    For one spec the result is a TransmissionResult; for a sequence of specs
    it is a list, one entry per spec, each equal to the single-spec result.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if not noise.sigma > 0:
        raise ValueError("noise model must have sigma > 0")
    single = isinstance(spec, FilterSpec)
    specs = [spec] if single else list(spec)
    weights = [sampled_kernel(s, grid) for s in specs]
    gains2 = _mc_mean_squares(weights, noise, trials, grid.size)
    results = []
    for w, g2 in zip(weights, gains2):
        measured = float(np.sqrt(np.mean(g2)))
        # delta method: se(sqrt(g2)) = se(g2) / (2 sqrt(g2))
        se = float(np.std(g2, ddof=1) / np.sqrt(trials) / (2.0 * measured))
        predicted = float(np.sqrt(np.sum(w**2)))
        results.append(TransmissionResult(measured, predicted, se, trials))
    return results[0] if single else results


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_rows(workers: int, m: int) -> int:
    """Rows of the block buffers for `workers` workers on an m-point grid.

    As many as fit in _MC_BUDGET at 16 bytes per point, at most _MC_BLOCK,
    and at least one per worker.
    """
    return min(_MC_BLOCK, max(workers, _MC_BUDGET // (16 * m)))


def _mc_workers(trials: int, m: int) -> int:
    """Workers for `trials` Monte Carlo trials on an m-point grid.

    One per CPU this process may run on, once m reaches
    _MC_THREAD_MIN_POINTS.  Each worker owns _mc_rows(W, m) // W rows of the
    block buffers, so W is at most _MC_BLOCK, and it shrinks until every
    worker has a nonempty block.
    """
    if m < _MC_THREAD_MIN_POINTS:
        return 1
    w = min(_cpu_count(), _MC_BLOCK)
    while w > 1 and (w - 1) * (_mc_rows(w, m) // w) >= trials:
        w -= 1
    return w


def _mc_mean_squares(weights: list[np.ndarray], noise: "NoiseModel", trials: int,
                     m: int) -> np.ndarray:
    """Mean square over sigma^2 of each trial's noise, filtered by each weight vector.

    Row i, column t is the value for weights[i] and trial t.  With E the
    rfft of the trial and R that of the weights (centred at index 0), the
    filtered trial is irfft(E R), and for odd m Parseval gives its mean
    square as sum_k c_k |E_k|^2 |R_k|^2 / m^2, c_0 = 1 and c_k = 2 for
    k >= 1.  Each value is a numpy sum along one row, so it depends on its
    trial alone, not on the block, the batch or the thread count.

    The trials run on W = _mc_workers(trials, m) workers: the calling thread
    and W - 1 started threads, since draws and FFTs release the GIL.  In
    blocks of b = _mc_rows(W, m) // W trials, worker k takes the blocks
    starting at k b, (k + W) b, ... and owns rows k b to (k + 1) b of the one
    set of block buffers, so memory does not grow with W.  The buffers are
    one draw row and one transform row per block row, 16 bytes per point;
    the power spectrum overwrites the dead draws and the weighted power the
    dead transform.  They take at most _MC_BUDGET bytes whatever m is, unless
    a single row per worker takes more.  Every thread is joined before a
    worker's exception is raised.
    """
    half = m // 2 + 1
    c = np.full(half, 2.0)
    c[0] = 1.0
    rows_w = []
    for w in weights:
        r = np.fft.rfft(np.fft.ifftshift(w))
        rows_w.append(c * (r.real**2 + r.imag**2) / (m * m * noise.sigma**2))
    gains2 = np.empty((len(weights), trials))
    workers = _mc_workers(trials, m)
    step = _mc_rows(workers, m) // workers
    # One set of block buffers for the whole run: a fresh megabyte-sized
    # array per block would be mapped, faulted in and unmapped every time.
    draws = np.empty((workers * step, m))
    eps_k = np.empty((workers * step, half), dtype=complex)

    def run_blocks(k: int) -> None:
        for start in range(k * step, trials, workers * step):
            count = min(step, trials - start)
            rows = slice(k * step, k * step + count)
            noise.fill(start, draws[rows])
            np.fft.rfft(draws[rows], axis=1, out=eps_k[rows])
            parts = eps_k[rows].view(float)  # real and imaginary parts, interleaved
            np.square(parts, out=parts)
            power = draws[rows, :half]  # the draws are dead once transformed
            np.add(parts[:, 0::2], parts[:, 1::2], out=power)
            weighted = parts[:, :half]  # the transform is dead once squared
            for g2, row_w in zip(gains2, rows_w):
                np.multiply(power, row_w, out=weighted)
                np.sum(weighted, axis=1, out=g2[start:start + count])

    errors: list[BaseException] = []

    def run_thread(k: int) -> None:
        try:
            run_blocks(k)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    started = []
    try:
        for k in range(1, workers):
            t = threading.Thread(target=run_thread, args=(k,))
            t.start()
            started.append(t)
        run_blocks(0)
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]
    return gains2


def reconstruct_with_report(s: Spectrum, spec: FilterSpec, k_scale: float = 1.0
                            ) -> tuple[Spectrum, "GibbsReport"]:
    """Filter along the RS path and report the residual oscillation."""
    from .metrics import GibbsReport, estimate_period

    filtered = apply_filter_rs(s, spec, k_scale=k_scale)
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
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: non-finite x values")
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


# write_spectrum formats this many rows into one string per write, so its
# Python floats and text stay bounded whatever the file length
_WRITE_ROWS = 8192


def write_spectrum(path: str, x: np.ndarray, values: np.ndarray,
                   header: list[str] | None = None) -> None:
    """Write a two-column x/f text file with optional '#' header lines."""
    x, values = np.asarray(x), np.asarray(values)
    with open(path, "w") as fh:
        for line in header or []:
            fh.write(f"# {line}\n")
        for i in range(0, len(x), _WRITE_ROWS):
            rows = zip(x[i:i + _WRITE_ROWS].tolist(), values[i:i + _WRITE_ROWS].tolist())
            fh.write("".join(f"{xi!r} {vi!r}\n" for xi, vi in rows))
