"""Gauss-Legendre core: cached nodes and one batched composite rule.

Every Gauss-Legendre node set in specfilt comes from ``gauss_legendre``,
which fills its cache on first use, never at import; only the 32- and
64-node rules are in use.  ``exp_weighted`` integrates
exp(-r_j k) g(k) over [0, end_j] for a whole batch of rates r_j at once: g
is evaluated once on panel nodes shared by every rate of a panel level, so
only the exponential factor grows with the batch.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["gauss_legendre", "exp_weighted", "converged"]

# Convergence tolerances of the composite rule, shared by mse_numeric and
# every quadrature route of noise_gain.
EPSABS = 1e-14
EPSREL = 1e-10

# Low-order rule per panel; the error estimate compares it with 2 * _N nodes.
_N = 32
# Largest fall of the exponent rate * k across one panel.
_RATE_SPAN = 8.0
# Doubles in one block of nodes or of (batch x nodes) products, so neither
# many panels nor a long batch ever materializes all evaluations at once.
_BLOCK = 1 << 18
# Panels one level may use; past it the level fails instead of allocating.
MAX_PANELS = 1 << 16


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1], computed once per n.

    The arrays are numpy's ``leggauss(n)``, shared by every caller and
    therefore read-only.
    """
    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def converged(values: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Where the error estimate meets the tolerance; a NaN or inf estimate never does."""
    return errors <= np.maximum(EPSABS, EPSREL * np.abs(values))


def _nodes(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point nodes and weights on each panel [lo_i, hi_i], one row per panel."""
    x, w = gauss_legendre(n)
    half = 0.5 * (hi - lo)[:, None]
    return (0.5 * (hi + lo))[:, None] + half * x, half * w


def _composite(g, edges: np.ndarray, rates: np.ndarray,
               ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Whole panels below end_j are summed panel by panel and accumulated in
    # order, so a value never depends on the panels past its own end or on
    # the rest of the batch; the panel that end_j cuts short gets its own
    # nodes.
    last = np.searchsorted(edges, ends, side="right") - 1  # last edge <= end
    sums = []
    for n in (_N, 2 * _N):
        panels = np.empty((rates.size, edges.size - 1))
        step = _BLOCK // n  # panels per block
        for p in range(0, edges.size - 1, step):
            k, w = _nodes(edges[:-1][p:p + step], edges[1:][p:p + step], n)
            gw = g(k) * w
            rows = _BLOCK // k.size
            for s in range(0, rates.size, rows):
                panels[s:s + rows, p:p + step] = np.sum(
                    np.exp(-rates[s:s + rows, None, None] * k) * gw, axis=2)
        prefix = np.cumsum(np.pad(panels, ((0, 0), (1, 0))), axis=1)
        whole = np.take_along_axis(prefix, last[:, None], axis=1)[:, 0]
        kp, wp = _nodes(edges[last], ends, n)
        sums.append(whole + np.sum(np.exp(-rates[:, None] * kp) * (g(kp) * wp), axis=1))
    return sums[1], np.abs(sums[1] - sums[0])


def exp_weighted(g: Callable[[np.ndarray], np.ndarray], rates, ends, cuts,
                 width: float, flat_from: float) -> tuple[np.ndarray, np.ndarray]:
    """integral_0^{end_j} exp(-rate_j k) g(k) dk for every j, with error estimates.

    Composite Gauss-Legendre on panels whose edges are every cut below end_j
    and the multiples of a step width * 2**-i.  The level i is the least
    integer with rate_j * width * 2**-i <= _RATE_SPAN; it is negative for
    slow rates, but below flat_from, where g varies on the length scale
    ``width``, the step never exceeds width.  Past flat_from (np.inf if g is
    never flat) g is flat and the multiples start at flat_from.  Rates of
    one level share their nodes and the evaluations of g.  Every length is
    relative to ``width``, the cuts and flat_from, so the rule is
    scale-covariant, and a value depends on its own rate and end alone,
    never on the rest of the batch.  g must accept an array of any shape.

    Returns the 2n-point values and their distances from the n-point values
    (see ``converged``).  A NaN of g inside [0, end_j] makes value and
    estimate NaN for those j alone; a level needing more than MAX_PANELS
    panels makes their values NaN and their estimates inf, so a caller can
    tell the two apart.
    """
    rates = np.asarray(rates, dtype=float)
    ends = np.asarray(ends, dtype=float)
    # a vanishing rate places no limit: clamp the step at 2**29 widths
    levels = np.ceil(np.log2(np.maximum(rates * width / _RATE_SPAN, 1e-9))).astype(int)
    values = np.empty(rates.size)
    errors = np.empty(rates.size)
    for level in np.unique(levels):
        sel = np.nonzero(levels == level)[0]
        top = float(ends[sel].max())
        step = width * 2.0 ** -level
        fine = min(step, width)
        head = min(flat_from, top)
        n_head = int(head / fine) + 1
        n_flat = int((top - flat_from) / step) + 1 if flat_from < top else 0
        if not n_head + n_flat <= MAX_PANELS:
            values[sel], errors[sel] = np.nan, np.inf
            continue
        edges = np.unique(np.concatenate([np.arange(n_head) * fine,
                                          flat_from + np.arange(n_flat) * step,
                                          np.asarray(cuts, dtype=float)]))
        values[sel], errors[sel] = _composite(g, edges[edges <= top], rates[sel], ends[sel])
    return values, errors
