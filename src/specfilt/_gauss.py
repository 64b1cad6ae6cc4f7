"""Gauss-Legendre core: cached nodes and one batched composite rule.

Every Gauss-Legendre node set in specfilt comes from ``gauss_legendre``,
which fills its cache on first use, never at import; only the 32- and
64-node rules are in use.  ``exp_weighted`` integrates
exp(-r_j k) g(k) over [0, end_j] for a whole batch of rates r_j at once: g
is evaluated once on panel nodes shared by every rate of a panel level, so
only the exponential factor grows with the batch.  ``integral`` is its
one-integral form, which raises ``QuadratureError`` on a miss.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
# np.unique imports numpy.ma on its first call: load it with specfilt, not inside a job
import numpy.ma  # noqa: F401
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureError", "gauss_legendre", "exp_weighted", "converged", "integral"]

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


class QuadratureError(RuntimeError):
    """Quadrature failed to converge or routes disagree."""


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
    # nodes, evaluated in the same call of g as the first block of whole
    # panels.
    last = np.searchsorted(edges, ends, side="right") - 1  # last edge <= end
    sums = []
    for n in (_N, 2 * _N):
        kp, wp = _nodes(edges[last], ends, n)
        g_end = None
        # the panel sums fill all but the leading zero column of their prefix sums
        prefix = np.zeros((rates.size, edges.size))
        panels = prefix[:, 1:]
        step = _BLOCK // n  # panels per block
        for p in range(0, edges.size - 1, step):
            k, w = _nodes(edges[:-1][p:p + step], edges[1:][p:p + step], n)
            if g_end is None:
                gk = g(np.concatenate([k, kp]))
                gk, g_end = gk[:len(k)], gk[len(k):]
            else:
                gk = g(k)
            gw = gk * w
            rows = _BLOCK // k.size
            for s in range(0, rates.size, rows):
                panels[s:s + rows, p:p + step] = np.sum(
                    np.exp(-rates[s:s + rows, None, None] * k) * gw, axis=2)
        if g_end is None:  # no whole panel
            g_end = g(kp)
        prefix = np.cumsum(prefix, axis=1)
        whole = np.take_along_axis(prefix, last[:, None], axis=1)[:, 0]
        sums.append(whole + np.sum(np.exp(-rates[:, None] * kp) * (g_end * wp), axis=1))
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
        # the coarse step width * 2**-level is taken only past flat_from: at
        # slow rates it can overflow where no flat part needs it
        fine = width * 2.0 ** -max(level, 0)
        head = min(flat_from, top)
        # panel counts stay floats until checked: at a subnormal rate the end
        # and so the count is inf
        n_head = np.floor(head / fine) + 1
        step = width * 2.0 ** -level if flat_from < top else fine
        n_flat = np.floor((top - flat_from) / step) + 1 if flat_from < top else 0
        if not n_head + n_flat <= MAX_PANELS:
            values[sel], errors[sel] = np.nan, np.inf
            continue
        edges = np.unique(np.concatenate([np.arange(int(n_head)) * fine,
                                          flat_from + np.arange(int(n_flat)) * step,
                                          np.asarray(cuts, dtype=float)]))
        values[sel], errors[sel] = _composite(g, edges[edges <= top], rates[sel], ends[sel])
    return values, errors


def integral(g, end: float, width: float, cuts=(), var: str = "k",
             unit: float = 1.0) -> float:
    """integral_0^end g on the composite rule; a miss raises QuadratureError.

    The message names which limit was hit and gives the range of ``var`` in
    the spec's own units, ``unit`` being one step of g's argument in them.
    """
    values, errors = exp_weighted(g, [0.0], [end], cuts, width, np.inf)
    if not converged(values, errors)[0]:
        budget = np.isnan(values[0]) and np.isinf(errors[0])  # see exp_weighted
        limit = (f"it needs more than the {MAX_PANELS} panels allowed" if budget
                 else "the error estimate missed the tolerance")
        raise QuadratureError(
            f"quadrature over {var} in [0, {end * unit:g}] did not converge: {limit}")
    return float(values[0])
