"""Low-pass filter families in direct and reciprocal space.

Each family is one immutable spec class carrying its reciprocal-space
parameters, and that class is the one place where the family is defined:
transfer B(k), kernel b(x), breakpoints and cutoffs, calibration, the two
white-noise integrals and its serialization tag.  The module functions check
that they were given a spec and ask its class: ``transfer`` evaluates B(k),
``kernel`` b(x), and ``calibrate`` fixes a family's free parameter so that
b(x_o)/b(0) = 1/2 for a requested direct-space half-width x_o.  The named
cosine-terminated variants (tukey, hann, welch_approx) calibrate through the
same ``calibrate``; ``FAMILIES`` lists every name it accepts.  Each
calibration's own signature declares the parameters it reads.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Union

import numpy as np

__all__ = [
    "SINC_HALF_CROSSING",
    "FAMILIES",
    "RunningAverage",
    "BrickWall",
    "GaussHermite",
    "CosineTerminated",
    "FilterSpec",
    "CalibrationResult",
    "CalibrationError",
    "transfer",
    "kernel",
    "gh_kernel_quadrature",
    "calibrate",
    "k2_of",
    "half_transfer_point",
    "ds_cutoff",
    "breakpoints",
    "support_cutoff",
    "serialize_spec",
    "parse_spec",
]

# First positive solution of sin(z)/z = 1/2, to full double precision.  A
# brick-wall filter calibrated against direct-space half-width x_o has
# k_o = SINC_HALF_CROSSING / x_o.
SINC_HALF_CROSSING = 1.895494267033981

# integral_0^inf sin(t)^2/t^2 dt = pi/2, by parts the Dirichlet integral
_SINC2_INTEGRAL = 0.5 * np.pi


class CalibrationError(RuntimeError):
    """No bracket for the calibration root within the scanned range."""


def _sinc(t: np.ndarray) -> np.ndarray:
    """sin(t)/t with the t=0 limit."""
    return np.sinc(t / np.pi)


class _Family:
    """Defaults of the spec classes, which override what they have in closed form.

    Every family defines ``tag``, ``_transfer``, ``_kernel``,
    ``_half_transfer_point``, ``_noise_integrals`` and the ``_calibrated``
    classmethod, which takes x_o and, keyword-only and without defaults, the
    parameters it reads.  ``_noise_integrals`` returns (ds, rs): the integral of
    b(x)^2 over x and of B(k)^2 over k / (2 pi), by routes that share no
    evaluation, so that ``noise_gain`` can hold them to Parseval.  Each route
    is a closed form or a fixed sum, exact to rounding; none is adaptive.  Methods
    call the module functions (``kernel``, ``transfer``, ...), not each
    other, so that a wrapper bound to those names sees every call;
    only the calibration scans, which run at unit scale on no spec, call
    ``_ct_kernel`` and ``_gh_sum`` directly.
    """

    tag: ClassVar[str]

    def _support_cutoff(self) -> float | None:
        return None

    def _breakpoints(self) -> tuple[float, ...]:
        return ()

    def _ds_cutoff(self) -> float:
        scale = 1.0 / half_transfer_point(self)
        b0 = float(kernel(self, 0.0))
        return _first_root(lambda x: kernel(self, x) / b0 - 0.5, 1e-4 * scale, 1e3 * scale)

    def _derived(self) -> dict[str, float]:
        """Keys written after the fields that follow from them; parse_spec checks them."""
        return {}


@dataclass(frozen=True)
class RunningAverage(_Family):
    """Rectangular direct-space kernel of half-width x_o."""

    tag = "ra"
    x_o: float

    def __post_init__(self) -> None:
        if not 0 < self.x_o < math.inf:
            raise ValueError(f"running average requires finite x_o > 0, got {self.x_o}")

    def _transfer(self, k: np.ndarray) -> np.ndarray:
        return _sinc(k * self.x_o)

    def _kernel(self, x: np.ndarray) -> np.ndarray:
        # half weight exactly on the boundary, matching the step convention
        ax = np.abs(x)
        w = np.where(ax < self.x_o, 1.0, np.where(ax == self.x_o, 0.5, 0.0))
        return w / (2.0 * self.x_o)

    def _half_transfer_point(self) -> float:
        return SINC_HALF_CROSSING / self.x_o

    def _ds_cutoff(self) -> float:
        return self.x_o

    def _noise_integrals(self) -> tuple[float, float]:
        # ds is the box's own integral
        return 1.0 / (2.0 * self.x_o), _SINC2_INTEGRAL / (np.pi * self.x_o)

    @classmethod
    def _calibrated(cls, x_o: float) -> RunningAverage:
        return cls(x_o)


@dataclass(frozen=True)
class BrickWall(_Family):
    """Ideal low-pass: unit transfer up to cutoff k_o, zero beyond."""

    tag = "bw"
    k_o: float

    def __post_init__(self) -> None:
        if not 0 < self.k_o < math.inf:
            raise ValueError(f"brick wall requires finite k_o > 0, got {self.k_o}")

    def _transfer(self, k: np.ndarray) -> np.ndarray:
        return np.where(np.abs(k) <= self.k_o, 1.0, 0.0)

    def _kernel(self, x: np.ndarray) -> np.ndarray:
        return (self.k_o / np.pi) * _sinc(self.k_o * x)

    def _support_cutoff(self) -> float:
        return self.k_o

    def _breakpoints(self) -> tuple[float, ...]:
        return (self.k_o,)

    def _half_transfer_point(self) -> float:
        return self.k_o

    def _ds_cutoff(self) -> float:
        return SINC_HALF_CROSSING / self.k_o

    def _noise_integrals(self) -> tuple[float, float]:
        # rs is the box's own integral
        return 2.0 * self.k_o * _SINC2_INTEGRAL / np.pi**2, self.k_o / np.pi

    @classmethod
    def _calibrated(cls, x_o: float) -> BrickWall:
        return cls(SINC_HALF_CROSSING / x_o)


@dataclass(frozen=True)
class GaussHermite(_Family):
    """Gaussian times a partial exponential series in u = (k/k_s)^2.

    Order m keeps the m+1 terms n = 0..m: B(k) = exp(-u) * sum u^n/n!, which
    is the regularized upper incomplete gamma Q(m+1, u), and the kernel is
    b(x) = k_s/(2 sqrt(pi)) exp(-y^2) sum_{n<=m} (-1)^n H_2n(y) / (4^n n!)
    with y = k_s x / 2, evaluated in that closed form.  Counting the order by the top
    power m rather than by the number of terms is this repository's own
    convention; the paper's abstract does not fix one.

    The transfer is the finite Poisson sum itself (_poisson_tail): Loader's
    saddle-point form of the top term e^{-u} u^m/m!, times the sum down from
    it above u = m+1, or one minus the rest of the Poisson series below.  The
    support cutoff (B = 1e-15) and the half-transfer point (B = 1/2) are
    _brentq roots of that sum in u, solved once per order and scaled by k_s.
    Against a 40-digit Q(m+1, u) for m in {1, 2, 5, ..., 200, 1000}, on
    [0, 2 u_cut] and densest near u = m+1, it erred by at most 6.7e-16
    absolute and, where Q >= 1e-300, 2.1e-13 relative (scipy's gammaincc:
    6.1e-16 and 1.5e-12); the tests bound the two by 4e-15 and 2e-12.
    """

    tag = "gh"
    m: int
    k_s: float

    def __post_init__(self) -> None:
        if not (1 <= self.m < math.inf and int(self.m) == self.m):
            raise ValueError(f"gauss-hermite requires integer order m >= 1, got {self.m}")
        if not 0 < self.k_s < math.inf:
            raise ValueError(f"gauss-hermite requires finite k_s > 0, got {self.k_s}")
        object.__setattr__(self, "m", int(self.m))  # 20.0 serializes as m=20

    def _transfer(self, k: np.ndarray) -> np.ndarray:
        return _poisson_tail(self.m, (k / self.k_s) ** 2)

    def _kernel(self, x: np.ndarray) -> np.ndarray:
        return _gh_table(self, x)

    def _support_cutoff(self) -> float:
        # B(k) < 1e-15 beyond it
        return self.k_s * math.sqrt(_gh_u_at(self.m, 1e-15))

    def _half_transfer_point(self) -> float:
        return self.k_s * math.sqrt(_gh_u_at(self.m, 0.5))

    def _noise_integrals(self) -> tuple[float, float]:
        # Whole-line trapezoid sums at unit scale.  Both integrands are entire
        # and fall off like Gaussians, so a sum's only error is its first
        # alias, at 2 pi / h, and each step h puts it past the other space's
        # cutoff (at 0.9 of the largest such step).  At k_s = 1 the kernel is
        # exactly 0 past |x| = 2 y_cut, so B_1^2 has no content past 4 y_cut;
        # at k_s = 2 (y = x) B_2 < 1e-15 past W, so b_2^2 has none past 2 W.
        # B(k) = B_1(k / k_s) and b(x) = (k_s / 2) b_2(k_s x / 2), so each
        # integral is k_s times its unit-scale value.
        y_cut = _gh_y_cut(self.m)
        one, two = GaussHermite(self.m, 1.0), GaussHermite(self.m, 2.0)
        h = 0.9 * math.pi / (2.0 * y_cut)
        big_b = transfer(one, h * np.arange(1, int(support_cutoff(one) / h) + 1))
        rs = self.k_s / math.pi * h * (0.5 + float(np.sum(big_b * big_b)))
        h = 0.9 * math.pi / support_cutoff(two)
        b = kernel(two, h * np.arange(int(y_cut / h) + 1))
        ds = 0.5 * self.k_s * h * (b[0] * b[0] + 2.0 * float(np.sum(b[1:] * b[1:])))
        return ds, rs

    @classmethod
    def _calibrated(cls, x_o: float, *, m: int) -> GaussHermite:
        return cls(int(m), 2.0 * _gh_half_height_y(int(m)) / x_o)


@dataclass(frozen=True)
class CosineTerminated(_Family):
    """Unit transfer to k_1, raised-cosine rolloff of steepness a and spread dk."""

    tag = "ct"
    k_1: float
    a: float
    dk: float

    def __post_init__(self) -> None:
        if not 0 <= self.k_1 < math.inf:
            raise ValueError(f"cosine-terminated requires finite k_1 >= 0, got {self.k_1}")
        if not 0.5 <= self.a < math.inf:
            raise ValueError(f"cosine-terminated requires finite a >= 1/2, got {self.a}")
        if not 0 < self.dk < math.inf:
            raise ValueError(f"cosine-terminated requires finite dk > 0, got {self.dk}")

    def _transfer(self, k: np.ndarray) -> np.ndarray:
        ak = np.abs(k)
        roll = self.a * np.cos((ak - self.k_1) / self.dk) - self.a + 1.0
        return np.where(ak <= self.k_1, 1.0, np.where(ak >= k2_of(self), 0.0, roll))

    def _kernel(self, x: np.ndarray) -> np.ndarray:
        return _ct_kernel(self.k_1, self.a, self.dk, x)

    def _support_cutoff(self) -> float:
        return k2_of(self)

    def _breakpoints(self) -> tuple[float, ...]:
        return (self.k_1, k2_of(self))

    def _half_transfer_point(self) -> float:
        return self.k_1 + self.dk * float(np.arccos(1.0 - 0.5 / self.a))

    def _derived(self) -> dict[str, float]:
        return {"k_2": k2_of(self)}

    def _noise_integrals(self) -> tuple[float, float]:
        # Both routes run at unit spread: B(k) = B_1(k/dk) and
        # b(x) = dk * b_1(dk * x), so each integral is dk times its unit-spread
        # value, and the poles of the ds terms sit at 0 and +-1 exactly.  ds is
        # a closed form over the kernel's terms and rs one over the transfer's
        # pieces; neither evaluates the other space.
        unit = CosineTerminated(self.k_1 / self.dk, self.a, 1.0)
        return self.dk * _ct_ds(unit), self.dk * (unit.k_1 + _ct_rolloff_square(self.a)) / np.pi

    @classmethod
    def _calibrated(cls, x_o: float, *, a: float, dk: float) -> CosineTerminated:
        cls(0.0, a, dk)  # rejects a bad a or dk before the scan
        spread = dk * x_o
        try:  # for u = k_1 x_o
            return cls(_first_root(lambda u: _ct_unit_mismatch(u, a, spread), 1e-6, 1e3) / x_o,
                       a, dk)
        except CalibrationError:
            raise CalibrationError(
                f"ct(a={a}, dk={dk}) cannot reach b({x_o})/b(0) = 1/2 for any k_1 >= 0; "
                f"residual at the clamped k_1 = 0 is {_ct_unit_mismatch(0.0, a, spread):+.3e}"
            ) from None


FilterSpec = Union[RunningAverage, BrickWall, GaussHermite, CosineTerminated]

# family tag -> spec class
_BY_TAG = {cls.tag: cls for cls in _Family.__subclasses__()}


@dataclass(frozen=True)
class CalibrationResult:
    spec: FilterSpec
    x_o: float
    residual: float  # |b(x_o)/b(0) - 1/2| achieved


def _checked(spec) -> FilterSpec:
    if not isinstance(spec, _Family):  # one of the FilterSpec classes
        raise TypeError(f"unknown filter spec {spec!r}")
    return spec


def k2_of(spec: CosineTerminated) -> float:
    """Upper cutoff k_2 = k_1 + dk*arccos(1 - 1/a) where the rolloff reaches 0."""
    return spec.k_1 + spec.dk * float(np.arccos(1.0 - 1.0 / spec.a))


def transfer(spec: FilterSpec, k):
    """Reciprocal-space transfer B(k); even in k, B(0) = 1."""
    out = _checked(spec)._transfer(np.asarray(k, dtype=float))
    return out if out.ndim else float(out)


def support_cutoff(spec: FilterSpec) -> float | None:
    """Frequency beyond which B(k) vanishes (to 1e-15 for GH); None for RA."""
    return _checked(spec)._support_cutoff()


def breakpoints(spec: FilterSpec) -> tuple[float, ...]:
    """Frequencies where B(k) is non-smooth; quadrature must split there."""
    return _checked(spec)._breakpoints()


def half_transfer_point(spec: FilterSpec) -> float:
    """First k where B(k) = 1/2 (the reciprocal-space cutoff equivalent)."""
    return _checked(spec)._half_transfer_point()


def _ct_kernel(k1, a: float, dk: float, x):
    """The ct kernel b(x), broadcasting over the onset k1 and the position x.

    Exact rewrite of the three-term closed-form kernel.  Writing each term as
    cos(...)*sinc(...) removes the singularities at x = 0 and x = +-1/dk
    analytically, so no branch switching is needed near them.
    """
    k2 = k1 + dk * np.arccos(1.0 - 1.0 / a)
    c = k2 - k1  # rolloff width; c/dk = arccos(1 - 1/a)
    d = 1.0 / dk
    b1 = (k1 * _sinc(k1 * x) + (1.0 - a) * c * np.cos(0.5 * (k1 + k2) * x) * _sinc(0.5 * c * x)) / np.pi
    amp = a * c / (2.0 * np.pi)
    b2 = amp * np.cos((0.5 * c + k1) * (x + d) - k1 * d) * _sinc(0.5 * c * (x + d))
    b3 = amp * np.cos((0.5 * c + k1) * (x - d) + k1 * d) * _sinc(0.5 * c * (x - d))
    return b1 + b2 + b3


def _ct_unit_mismatch(k1, a: float, dk: float):
    """b(1)/b(0) - 1/2 of the ct kernel, broadcasting over k1 or dk."""
    return _ct_kernel(k1, a, dk, 1.0) / _ct_kernel(k1, a, dk, 0.0) - 0.5


def _ct_sin_terms(spec: CosineTerminated):
    """The ct kernel as six terms A * sin(w (x - c) + theta) / (x - c), as (A, w, theta, c).

    Each term is written about its own pole c in {0, -1/dk, 1/dk}, and the two
    terms of a pole share one phase theta in {0, -k_1/dk, k_1/dk}.  At c = 0
    sin(theta) = 0, and at c = +-1/dk the amplitudes cancel, so each pair is
    regular at its pole, exactly also in floating point.
    """
    k1, a, d = spec.k_1, spec.a, 1.0 / spec.dk
    k2 = k2_of(spec)
    theta = k1 * d
    pi = np.pi
    return (
        (a / pi, k1, 0.0, 0.0),
        ((1.0 - a) / pi, k2, 0.0, 0.0),
        (a / (2 * pi), k2, -theta, -d),
        (-a / (2 * pi), k1, -theta, -d),
        (a / (2 * pi), k2, theta, d),
        (-a / (2 * pi), k1, theta, d),
    )


def _sin_sin_over_t(w: float, theta: float, v: float, beta: float) -> float:
    """Principal value of integral sin(w t + theta) sin(v t + beta) / t dt over t, w, v >= 0."""
    return 0.5 * np.pi * (np.sign(w + v) * math.sin(theta + beta)
                          - np.sign(w - v) * math.sin(theta - beta))


def _ct_ds(spec: CosineTerminated) -> float:
    """integral b(x)^2 dx over the whole line, in closed form from _ct_sin_terms.

    Each of the 36 products of two terms integrates over the line in
    elementary form.  Two terms about poles c_i != c_j split by partial
    fractions, 1/((x - c_i)(x - c_j)) = (1/(x - c_i) - 1/(x - c_j))/(c_i - c_j);
    about c_i, with t = x - c_i, term j's sine is sin(w_j t + w_j (c_i - c_j)
    + theta_j), and each part is a principal value (_sin_sin_over_t).  Two
    terms about one pole, sharing theta, give the Hadamard finite part
    (pi/2) ((w_i + w_j) cos(2 theta) - |w_i - w_j|) of their product over
    t^2.  The singular parts these drop cancel in the sum, because b^2 is
    regular, so the sum is the integral.  The terms cancel by a factor of
    about a^2: against a 40-digit Parseval total at unit spread the sum
    erred by at most 5.4e-15 relative for a <= 5, 3.4e-14 at a = 10,
    6.1e-13 at a = 50 and 7.3e-10 at a = 1e3, for k_1 up to 6e3.
    """
    terms = _ct_sin_terms(spec)
    total = 0.0
    for a_i, w_i, t_i, c_i in terms:
        for a_j, w_j, t_j, c_j in terms:
            if c_i == c_j:
                value = 0.5 * np.pi * ((w_i + w_j) * math.cos(t_i + t_j) - abs(w_i - w_j))
            else:
                value = (_sin_sin_over_t(w_i, t_i, w_j, w_j * (c_i - c_j) + t_j)
                         - _sin_sin_over_t(w_j, t_j, w_i, w_i * (c_j - c_i) + t_i)) / (c_i - c_j)
            total += a_i * a_j * value
    return total


# Taylor coefficients in T^2, highest power first, of (T - sin T) / T^3 and of
# (3T - 4 sin T + sin T cos T) / T^5; below T = 1 their last terms are under
# 1e-17 of the first
_T_MINUS_SIN = tuple((-1) ** (n + 1) / math.factorial(2 * n + 1) for n in range(9, 0, -1))
_ROLL_QUARTIC = tuple((-1) ** n * (4 ** n - 4) / math.factorial(2 * n + 1)
                      for n in range(12, 1, -1))


def _ct_rolloff_square(a: float) -> float:
    """integral_0^T B^2 dtheta over the rolloff at unit spread, in closed form.

    On it B = 1 - 2a sin^2(theta/2) with T = arccos(1 - 1/a), as in k2_of, so
    the integral is T - 2a (T - sin T) + (a^2/2)(3T - 4 sin T + sin T cos T).
    The two brackets cancel as T^3/6 and T^5/10, so below T = 1 (a > 2.18)
    they are summed from their Taylor series instead.
    """
    t = math.acos(1.0 - 1.0 / a)
    t2, sin_t = t * t, math.sin(t)
    if t < 1.0:
        gap, quartic = t * t2 * _horner(_T_MINUS_SIN, t2), t * t2 * t2 * _horner(_ROLL_QUARTIC, t2)
    else:
        gap, quartic = t - sin_t, 3.0 * t - 4.0 * sin_t + sin_t * math.cos(t)
    return t - 2.0 * a * gap + 0.5 * a * a * quartic


# stirlerr(n) = log(n!) - (n + 1/2) log(n) + n - log(2 pi)/2, the error of
# Stirling's formula, for n = 0..15, rounded from a 40-digit log-gamma
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)

# 1/17, 1/15, ..., 1/3: the series of _bd0 in v^2, highest power first
_BD0_SERIES = tuple(1.0 / j for j in range(17, 1, -2))

# exp(-t) rounds to 0 in double precision past it
_LOG_UNDERFLOW = 745.2

# the series of _poisson_tail stop where the rest falls below this share of the sum
_SERIES_TOL = 2.0 ** -54


def _stirlerr(n: int) -> float:
    """log(n!) - (n + 1/2) log(n) + n - log(2 pi)/2; from n = 16 on, its asymptotic series."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    s = 1.0 / (n * n)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - s / 1188) * s) * s) * s) / n


def _horner(coeffs: tuple[float, ...], x):
    """The polynomial with coefficients coeffs, highest power first, at a float or an array x."""
    if isinstance(x, float):
        return functools.reduce(lambda acc, c: acc * x + c, coeffs)
    acc = np.full(x.shape, coeffs[0])
    for c in coeffs[1:]:
        acc *= x
        acc += c
    return acc


def _bd0(m: int, u):
    """bd0 = m log(m/u) + u - m, for a float or an array u > 0.

    It is the deviance of Loader's saddle-point form of the Poisson
    probability, e^{-u} u^m/m! = exp(-stirlerr(m) - bd0) / sqrt(2 pi m).
    Where |m - u| < (m + u)/10 the direct form cancels, and bd0 is
    (m - u) v + 2m (v^3/3 + v^5/5 + ...) with v = (m - u)/(m + u); eight
    terms leave less than 1e-16 of it at |v| < 1/10.
    """
    if isinstance(u, float):
        return _bd0_near(m, u) if abs(m - u) < 0.1 * (m + u) else m * math.log(m / u) + (u - m)
    out = m * np.log(m / u) + (u - m)
    near = (u > m * (9 / 11)) & (u < m * (11 / 9))
    out[near] = _bd0_near(m, u[near])
    return out


def _bd0_near(m: int, u):
    diff = m - u
    v = diff / (m + u)
    return diff * v + 2.0 * m * v * v * v * _horner(_BD0_SERIES, v * v)


@functools.cache
def _poisson_order(m: int) -> tuple[tuple[float, ...], tuple[float, ...], float, float]:
    """The constants of _poisson_tail for order m: (a, b, shift, u_zero).

    a and b are the coefficients, highest power first, of its series above and
    below u = m + 1, each cut where the bound on its rest at the nearest u
    (w = m/(m+1), z = 1) falls below _SERIES_TOL; the terms fall off like
    exp(-i^2/2m) there, so each keeps about sqrt(75 m) terms, and at most m+1
    above.  shift is stirlerr(m) + log(2 pi m)/2, and past u_zero the
    prefactor e^{-u} u^m/m! and with it Q underflow to 0.
    """
    a, t = [1.0], 1.0          # t: term i of the upper series at w = m/(m+1)
    for i in range(m):
        if t * (m - i) / (i + 1) < _SERIES_TOL:
            break
        a.append(a[-1] * (1 - i / m))
        t *= (m - i) / (m + 1)
    b, i = [1.0], 1            # b[-1]: term i of the lower series at z = 1
    while b[-1] * (m + 1) / i >= _SERIES_TOL:
        b.append(b[-1] * (m + 1) / (m + i + 1))
        i += 1
    shift = _stirlerr(m) + 0.5 * math.log(2.0 * math.pi * m)
    u_zero = _brentq(lambda u: m * math.log(m / u) + u - m + shift - _LOG_UNDERFLOW,
                     m + 1.0, 2.0 * m + 1600.0)
    return tuple(reversed(a)), tuple(reversed(b)), shift, u_zero


def _poisson_tail(m: int, u: np.ndarray) -> np.ndarray:
    """Q(m+1, u) = e^{-u} sum_{j<=m} u^j/j!, the GH transfer at u = (k/k_s)^2.

    With p = e^{-u} u^m/m! in Loader's saddle-point form, Q is p times the
    sum down from its top term, sum_{i<=m} w^i prod_{l<i} (1 - l/m) with
    w = m/u, for u >= m+1, and 1 - p times the upward sum of the rest of the
    Poisson series, sum_{i>=1} z^i prod_{l<=i} (m+1)/(m+l) with z = u/(m+1),
    below.  Both sums have positive terms and run by Horner's rule for the
    terms _poisson_order keeps; past u_zero, Q is 0.
    """
    a, b, shift, u_zero = _poisson_order(m)
    q = np.zeros(u.shape)
    live = ~(u > u_zero)                 # a NaN stays live, and stays NaN
    ul = np.maximum(u[live], 1e-300)     # at u = 0 the prefactor underflows and Q = 1
    pmf = np.exp(-(_bd0(m, ul) + shift))
    high = ul >= m + 1
    low = ~high
    out = np.empty(ul.shape)
    out[high] = pmf[high] * _horner(a, m / ul[high])
    z = ul[low] / (m + 1)
    out[low] = 1.0 - pmf[low] * z * _horner(b, z)
    q[live] = out
    return q


def _poisson_tail_at(m: int, u: float) -> float:
    """_poisson_tail at one u in Python floats, for the root solves of _gh_u_at.

    It runs the same steps an order of magnitude faster than numpy does on
    one element, and agrees with it to an ulp or two (math and numpy may round
    log and exp differently).
    """
    a, b, shift, u_zero = _poisson_order(m)
    if u > u_zero:
        return 0.0
    u = max(u, 1e-300)
    pmf = math.exp(-(_bd0(m, u) + shift))
    if u >= m + 1:
        return pmf * _horner(a, m / u)
    z = u / (m + 1)
    return 1.0 - pmf * z * _horner(b, z)


@functools.cache
def _gh_u_at(m: int, level: float) -> float:
    """The u = (k/k_s)^2 at which the order-m transfer Q(m+1, u) falls to level in (0, 1)."""
    return _brentq(lambda u: _poisson_tail_at(m, u) - level, 0.0, _poisson_order(m)[3],
                   xtol=1e-300, rtol=_RTOL_MIN)


@functools.cache
def _gh_weights(m: int) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    # phi_j = pi^(1/4) psi_j, the normalized Hermite functions scaled to
    # phi_0 = exp(-y^2/2), obey phi_j = up_j y phi_{j-1} - down_j phi_{j-2};
    # the kernel series weighs phi_2n with (-1)^n c_n, c_n = c_{n-1}
    # sqrt((2n-1)/(2n)) <= 1, so no weight grows and no factorial appears.
    up = (0.0, *(math.sqrt(2.0 / j) for j in range(1, 2 * m + 1)))
    down = (0.0, *(math.sqrt((j - 1) / j) for j in range(1, 2 * m + 1)))
    c = [1.0]
    for n in range(1, m + 1):
        c.append(-c[-1] * math.sqrt((2 * n - 1) / (2 * n)))
    return up, down, tuple(c)


def _gh_sum(y, m: int, env=None):
    """exp(-y^2/2) sum_{n<=m} (-1)^n c_n phi_2n(y) for a float or an array y.

    Equals exp(-y^2) sum_{n<=m} (-1)^n H_2n(y) / (4^n n!), so the GH kernel is
    b(x) = k_s / (2 sqrt(pi)) * _gh_sum(k_s x / 2, m).  Its modulus is below
    (m + 1) exp(-y^2/2), since |phi_j| <= 1 and c_n <= 1, while
    _gh_sum(0, m) = sum c_n^2 >= 1.  A float runs the recurrence in Python
    floats, an array in numpy.  env is exp(-y^2/2), by default taken by
    math.exp for a float and np.exp for an array; the two differ in the last
    bit for a few per cent of y.
    """
    up, down, c = _gh_weights(m)
    if env is None:
        env = math.exp(-0.5 * y * y) if isinstance(y, float) else np.exp(-0.5 * y * y)
    prev, cur = 0.0 * y, env
    total = env
    for n in range(1, m + 1):
        j = 2 * n
        prev, cur = cur, up[j - 1] * y * cur - down[j - 1] * prev
        prev, cur = cur, up[j] * y * cur - down[j] * prev
        total = total + c[n] * cur
    return env * total


def _gh_y_cut(m: int) -> float:
    # past it |b(x)/b(0)| <= (m + 1) exp(-y^2/2) < 1e-18
    return math.sqrt(2.0 * math.log((m + 1) * 1e18))


def _gh_kernel(spec: GaussHermite, x: np.ndarray) -> np.ndarray:
    """The GH kernel in closed form, exactly zero where |y| = |k_s x|/2 > _gh_y_cut.

    A 0-d x runs the float recurrence, an order of magnitude faster than
    numpy's on one element, with np.exp for its envelope so that its value
    equals the array path's bit for bit.
    """
    y = 0.5 * spec.k_s * np.abs(x)
    scale = spec.k_s / (2.0 * math.sqrt(math.pi))
    if y.ndim == 0:
        t = float(y)
        if not t <= _gh_y_cut(spec.m):
            return np.float64(0.0)
        return np.float64(scale * _gh_sum(t, spec.m, float(np.exp(-0.5 * t * t))))
    near = y <= _gh_y_cut(spec.m)
    out = np.zeros(y.shape)
    out[near] = scale * _gh_sum(y[near], spec.m)
    return out


# The name under which perfbench/spans.py traces the GH kernel (as the layer
# filters.gh_kernel_table, once a table build); a benchmark change renames it.
_gh_table = _gh_kernel


@functools.cache
def _gh_half_height_y(m: int) -> float:
    """The y = k_s x_o / 2 where the order-m GH kernel falls to half its centre.

    b(x_o)/b(0) depends on y alone, so every x_o shares one root, found on
    calibrate's dimensionless bracket k_s x_o in [1e-6, 1e3].  The ratio is
    1 - O(m y^2) at the bracket's start and exactly 0 at its end.
    """
    s0 = _gh_sum(0.0, m)
    return _first_root(lambda y: _gh_sum(y, m) / s0 - 0.5, 0.5e-6, 0.5e3)


def gh_kernel_quadrature(spec: GaussHermite, x: float) -> float:
    """GH kernel value by adaptive quadrature of the transfer (independent slow route)."""
    # only this route needs scipy, so that importing specfilt loads none of it
    from scipy.integrate import quad
    from scipy.special import gammaincc

    cut = support_cutoff(spec)
    val, _ = quad(
        lambda k: gammaincc(spec.m + 1, (k / spec.k_s) ** 2) * np.cos(k * x),
        0.0,
        cut,
        limit=300,
        epsabs=1e-13,
        epsrel=1e-11,
    )
    return val / np.pi


def kernel(spec: FilterSpec, x):
    """Direct-space kernel b(x); even in x and unit-area for every family."""
    out = _checked(spec)._kernel(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


_RTOL_MIN = 4 * sys.float_info.epsilon


def _brentq(f: Callable, xa: float, xb: float, xtol: float = 2e-12,
            rtol: float = _RTOL_MIN, maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method, step for step scipy's brentq.c.

    The same IEEE operations run in the same order, so every root equals
    scipy.optimize.brentq's bit for bit, and its checks and messages are the
    same: ValueError for a bad tolerance, a same-sign bracket or a NaN from
    f, RuntimeError when maxiter steps do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):  # neither is 0 or NaN, so < 0 is C's signbit
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _first_root(f: Callable, lo: float, hi: float) -> float:
    """First sign change of f on a 240-point log-spaced scan of [lo, hi], polished by _brentq.

    f is called once with the whole scan as an array, then with floats.
    _brentq is a private port of scipy's brentq and gives its roots bit for
    bit.  The relative tolerance alone ends the polish, at brentq's floor of
    4 ulp, so the root is as accurate at every scale.
    """
    grid = np.geomspace(lo, hi, 240)
    neg = f(grid) < 0.0
    flips = np.flatnonzero(neg[1:] != neg[:-1])
    if not flips.size:
        raise CalibrationError(
            f"no sign change of the calibration residual in [{lo:g}, {hi:g}]"
        )
    i = flips[0]
    return _brentq(f, grid[i], grid[i + 1], xtol=1e-300, rtol=8.9e-16)


def _tukey(x_o: float, *, dk: float) -> CosineTerminated:
    return CosineTerminated._calibrated(x_o, a=0.5, dk=dk)


def _ct_onset_at_zero(steepness: float, x_o: float) -> CosineTerminated:
    # k_1 = 0 leaves dk free: solve for w = dk x_o at unit scale
    w = _first_root(lambda w: _ct_unit_mismatch(0.0, steepness, w), 1e-6, 1e3)
    return CosineTerminated(0.0, steepness, w / x_o)


# Every name calibrate accepts -> its calibration.  The named variants are ct
# specs: tukey fixes a = 1/2 and calibrates k_1 at the caller's dk; hann
# (a = 1/2) and welch_approx (a = 1) fix k_1 = 0 and calibrate dk.
_CALIBRATIONS = {
    **{tag: cls._calibrated for tag, cls in _BY_TAG.items()},
    "tukey": _tukey,
    "hann": functools.partial(_ct_onset_at_zero, 0.5),
    "welch_approx": functools.partial(_ct_onset_at_zero, 1.0),
}
FAMILIES = tuple(_CALIBRATIONS)
# name -> the parameters its calibration reads, the keyword-only ones of its signature
_PARAMETERS = {name: tuple(p.name for p in inspect.signature(calibration).parameters.values()
                           if p.kind is p.KEYWORD_ONLY)
               for name, calibration in _CALIBRATIONS.items()}


def _given_parameters(family: str, params: dict) -> dict:
    """The params that are not None, checked against what family's calibration reads.

    A value it does not read is a ValueError naming it, which for a named
    variant's a or dk says that the variant sets it itself; so is a missing
    value it reads.
    """
    given = {name: value for name, value in params.items() if value is not None}
    for name, value in given.items():
        if name in _PARAMETERS[family]:
            continue
        if family not in _BY_TAG and name in _PARAMETERS["ct"]:
            raise ValueError(f"{family} sets {name} itself, got {name}={value!r}")
        raise ValueError(f"{family} does not take {name}, got {name}={value!r}")
    missing = [name for name in _PARAMETERS[family] if name not in given]
    if missing:
        raise ValueError(f"{family} calibration requires {' and '.join(missing)}")
    return given


def calibrate(family: str, x_o: float, **params) -> CalibrationResult:
    """Fix a family's free parameter so its kernel satisfies b(x_o)/b(0) = 1/2.

    family is any name in FAMILIES.  The parameters each name reads, all of
    them required, and the parameter it calibrates:

    - ra: none; x_o itself.
    - bw: none; k_o = SINC_HALF_CROSSING / x_o, in closed form.
    - gh: the order m; k_s.
    - ct: the steepness a and the spread dk; k_1.
    - tukey: dk; k_1, at a = 1/2.
    - hann: none; dk, at k_1 = 0 and a = 1/2, so B = (1 + cos(k/dk))/2 on
      [0, pi*dk].
    - welch_approx: none; dk, at k_1 = 0 and a = 1.

    Each solves its half-height condition once, at unit scale, in its
    dimensionless parameter (k_1 x_o for ct and tukey, k_s x_o for gh, dk x_o
    for hann and welch_approx), and divides by x_o at the end.  The residual
    is |b(x_o)/b(0) - 1/2| of the spec found.

    A parameter given as None counts as absent.  Raises ValueError for a
    parameter the name reads and lacks, or one it does not read (for a
    named variant's a, and hann's and welch_approx's dk, the message says the
    variant sets it itself), and CalibrationError when no root lies in the
    dimensionless bracket [1e-6, 1e3] (for ct the residual at k_1 = 0 is
    reported as well, since large dk can make every k_1 >= 0 overshoot the
    half-height point).
    """
    if not x_o > 0:
        raise ValueError(f"calibration requires x_o > 0, got {x_o}")
    if family not in _CALIBRATIONS:
        raise ValueError(f"unknown filter family {family!r} (expected {', '.join(FAMILIES)})")
    given = _given_parameters(family, params)
    spec = _CALIBRATIONS[family](x_o, **given)
    residual = abs(float(kernel(spec, x_o)) / float(kernel(spec, 0.0)) - 0.5)
    return CalibrationResult(spec, x_o, residual)


def ds_cutoff(spec: FilterSpec) -> float:
    """Direct-space half-height point: first x > 0 with b(x)/b(0) = 1/2."""
    return _checked(spec)._ds_cutoff()


def _field_type(f) -> type:
    # annotations are strings here (postponed evaluation); every field that
    # is not an int is a float
    return int if f.type == "int" else float


def serialize_spec(spec: FilterSpec, x_o: float | None = None) -> str:
    """Flat key=value text block for a spec; floats keep full precision.

    The family tag comes first, then x_o when given and not itself a field,
    the fields in order and the keys derived from them.
    """
    spec = _checked(spec)
    lines = [f"family={spec.tag}"]
    if x_o is not None and "x_o" not in {f.name for f in fields(spec)}:
        lines.append(f"x_o={x_o!r}")
    for f in fields(spec):
        value = getattr(spec, f.name)
        lines.append(f"{f.name}={value}" if _field_type(f) is int else f"{f.name}={value!r}")
    lines += [f"{key}={value!r}" for key, value in spec._derived().items()]
    return "\n".join(lines) + "\n"


def _key_values(text: str) -> dict[str, str]:
    """The key=value lines of text, '#' starting a comment; ValueError names a bad line."""
    pairs: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        pairs[key.strip()] = val.strip()
    return pairs


def parse_spec(text: str) -> FilterSpec:
    """Inverse of serialize_spec; tolerates comments and the metadata keys."""
    pairs = _key_values(text)
    family = pairs.pop("family", None)
    if family is None:
        raise ValueError("spec block is missing the family key")
    cls = _BY_TAG.get(family)
    if cls is None:
        raise ValueError(f"unknown filter family {family!r}")
    try:
        spec = cls(*(_field_type(f)(pairs.pop(f.name)) for f in fields(cls)))
    except KeyError as missing:
        raise ValueError(f"family {family!r} block is missing {missing}") from None
    for key, derived in spec._derived().items():
        if key in pairs:
            stated = float(pairs.pop(key))
            if abs(stated - derived) > 1e-9 * max(1.0, abs(derived)):
                raise ValueError(
                    f"inconsistent {key}: stated {stated!r}, derived {derived!r}"
                )
    pairs.pop("x_o", None)  # calibration metadata, not a spec parameter
    if pairs:
        raise ValueError(f"unrecognized keys in spec block: {sorted(pairs)}")
    return spec
