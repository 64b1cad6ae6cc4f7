"""Low-pass filter families in direct and reciprocal space.

Each family is one immutable spec class carrying its reciprocal-space
parameters, and that class is the one place where the family is defined:
transfer B(k), kernel b(x), breakpoints and cutoffs, calibration and its
serialization tag.  The module functions check that they were given a spec
and ask its class: ``transfer`` evaluates B(k), ``kernel`` b(x), and
``calibrate`` fixes a family's free parameter so that b(x_o)/b(0) = 1/2 for
a requested direct-space half-width x_o.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Union

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaincc, gammainccinv

__all__ = [
    "SINC_HALF_CROSSING",
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
    "special_case",
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


class CalibrationError(RuntimeError):
    """No bracket for the calibration root within the scanned range."""


def _sinc(t: np.ndarray) -> np.ndarray:
    """sin(t)/t with the t=0 limit."""
    return np.sinc(t / np.pi)


class _Family:
    """Defaults of the spec classes, which override what they have in closed form.

    Every family defines ``tag``, ``_transfer``, ``_kernel``,
    ``_half_transfer_point`` and the ``_calibrated`` classmethod.  Methods
    call the module functions (``kernel``, ``gh_kernel_quadrature``, ...),
    not each other, so that a wrapper bound to those names sees every call;
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

    def _residual(self, x_o: float) -> float:
        """|b(x_o)/b(0) - 1/2| achieved by a calibration."""
        return abs(_half_height_mismatch(self, x_o))

    def _derived(self) -> dict[str, float]:
        """Keys written after the fields that follow from them; parse_spec checks them."""
        return {}


@dataclass(frozen=True)
class RunningAverage(_Family):
    """Rectangular direct-space kernel of half-width x_o."""

    tag = "ra"
    x_o: float

    def __post_init__(self) -> None:
        if not self.x_o > 0:
            raise ValueError(f"running average requires x_o > 0, got {self.x_o}")

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

    @classmethod
    def _calibrated(cls, x_o: float, **_) -> RunningAverage:
        return cls(x_o)


@dataclass(frozen=True)
class BrickWall(_Family):
    """Ideal low-pass: unit transfer up to cutoff k_o, zero beyond."""

    tag = "bw"
    k_o: float

    def __post_init__(self) -> None:
        if not self.k_o > 0:
            raise ValueError(f"brick wall requires k_o > 0, got {self.k_o}")

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

    @classmethod
    def _calibrated(cls, x_o: float, **_) -> BrickWall:
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
    """

    tag = "gh"
    m: int
    k_s: float

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"gauss-hermite requires integer order m >= 1, got {self.m}")
        if not self.k_s > 0:
            raise ValueError(f"gauss-hermite requires k_s > 0, got {self.k_s}")
        object.__setattr__(self, "m", int(self.m))  # 20.0 serializes as m=20

    def _transfer(self, k: np.ndarray) -> np.ndarray:
        return gammaincc(self.m + 1, (k / self.k_s) ** 2)

    def _kernel(self, x: np.ndarray) -> np.ndarray:
        return _gh_table(self, x)

    def _support_cutoff(self) -> float:
        # B(k) < 1e-15 beyond it
        return self.k_s * float(np.sqrt(gammainccinv(self.m + 1, 1e-15)))

    def _half_transfer_point(self) -> float:
        return self.k_s * float(np.sqrt(gammainccinv(self.m + 1, 0.5)))

    @classmethod
    def _calibrated(cls, x_o: float, *, m: int | None = None, **_) -> GaussHermite:
        if m is None:
            raise ValueError("gh calibration requires the order m")
        return cls(int(m), 2.0 * _gh_half_height_y(int(m)) / x_o)


@dataclass(frozen=True)
class CosineTerminated(_Family):
    """Unit transfer to k_1, raised-cosine rolloff of steepness a and spread dk."""

    tag = "ct"
    k_1: float
    a: float
    dk: float

    def __post_init__(self) -> None:
        if not self.k_1 >= 0:
            raise ValueError(f"cosine-terminated requires k_1 >= 0, got {self.k_1}")
        if not self.a >= 0.5:
            raise ValueError(f"cosine-terminated requires a >= 1/2, got {self.a}")
        if not self.dk > 0:
            raise ValueError(f"cosine-terminated requires dk > 0, got {self.dk}")

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

    @classmethod
    def _calibrated(cls, x_o: float, *, a: float | None = None, dk: float | None = None,
                    **_) -> CosineTerminated:
        if a is None or dk is None:
            raise ValueError("ct calibration requires a and dk")
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


def _gh_weights(m: int) -> tuple[list[float], list[float], list[float]]:
    # phi_j = pi^(1/4) psi_j, the normalized Hermite functions scaled to
    # phi_0 = exp(-y^2/2), obey phi_j = up_j y phi_{j-1} - down_j phi_{j-2};
    # the kernel series weighs phi_2n with (-1)^n c_n, c_n = c_{n-1}
    # sqrt((2n-1)/(2n)) <= 1, so no weight grows and no factorial appears.
    up = [0.0] + [math.sqrt(2.0 / j) for j in range(1, 2 * m + 1)]
    down = [0.0] + [math.sqrt((j - 1) / j) for j in range(1, 2 * m + 1)]
    c = [1.0]
    for n in range(1, m + 1):
        c.append(-c[-1] * math.sqrt((2 * n - 1) / (2 * n)))
    return up, down, c


def _gh_sum(y, m: int):
    """exp(-y^2/2) sum_{n<=m} (-1)^n c_n phi_2n(y) for a float or an array y.

    Equals exp(-y^2) sum_{n<=m} (-1)^n H_2n(y) / (4^n n!), so the GH kernel is
    b(x) = k_s / (2 sqrt(pi)) * _gh_sum(k_s x / 2, m).  Its modulus is below
    (m + 1) exp(-y^2/2), since |phi_j| <= 1 and c_n <= 1, while
    _gh_sum(0, m) = sum c_n^2 >= 1.  A float runs the recurrence in Python
    floats, an array in numpy.
    """
    up, down, c = _gh_weights(m)
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
    """The GH kernel in closed form, exactly zero where |y| = |k_s x|/2 > _gh_y_cut."""
    y = 0.5 * spec.k_s * np.abs(x)
    near = y <= _gh_y_cut(spec.m)
    out = np.zeros(y.shape)
    out[near] = spec.k_s / (2.0 * math.sqrt(math.pi)) * _gh_sum(y[near], spec.m)
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
    from scipy.integrate import quad  # only this route needs it; keeps imports light

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


def _first_root(f: Callable, lo: float, hi: float) -> float:
    """First sign change of f on a 240-point log-spaced scan of [lo, hi], polished by brentq.

    f is called once with the whole scan as an array, then with floats.  The
    relative tolerance alone ends the polish, at brentq's floor of 4 ulp, so
    the root is as accurate at every scale.
    """
    grid = np.geomspace(lo, hi, 240)
    neg = f(grid) < 0.0
    flips = np.flatnonzero(neg[1:] != neg[:-1])
    if not flips.size:
        raise CalibrationError(
            f"no sign change of the calibration residual in [{lo:g}, {hi:g}]"
        )
    i = flips[0]
    return float(brentq(f, grid[i], grid[i + 1], xtol=1e-300, rtol=8.9e-16))


def _half_height_mismatch(spec: FilterSpec, x_o: float) -> float:
    """b(x_o)/b(0) - 1/2, the residual whose root calibrates a spec."""
    return float(kernel(spec, x_o)) / float(kernel(spec, 0.0)) - 0.5


def calibrate(family: str, x_o: float, *, m: int | None = None,
              a: float | None = None, dk: float | None = None) -> CalibrationResult:
    """Fix a family's free parameter so its kernel satisfies b(x_o)/b(0) = 1/2.

    Free parameter by family: ra -> x_o itself, bw -> k_o, gh -> k_s (m fixed),
    ct -> k_1 (a and dk fixed).  Each family solves its half-height condition
    once, at unit scale, in its dimensionless parameter (k_1 x_o for ct, k_s
    x_o for gh; bw is the closed form SINC_HALF_CROSSING / x_o), and divides
    by x_o at the end.  Raises CalibrationError when no root lies in the
    dimensionless bracket [1e-6, 1e3] (for ct the residual at k_1 = 0 is
    reported as well, since large dk can make every k_1 >= 0 overshoot the
    half-height point).
    """
    if not x_o > 0:
        raise ValueError(f"calibration requires x_o > 0, got {x_o}")
    cls = _BY_TAG.get(family)
    if cls is None:
        raise ValueError(f"unknown filter family {family!r}")
    spec = cls._calibrated(x_o, m=m, a=a, dk=dk)
    return CalibrationResult(spec, x_o, spec._residual(x_o))


def special_case(name: str, x_o: float, *, dk: float | None = None) -> FilterSpec:
    """Named cosine-terminated variants.

    tukey: a = 1/2 with caller-chosen dk, k_1 calibrated.  hann: k_1 = 0,
    a = 1/2, dk calibrated (B = (1 + cos(k/dk))/2 on [0, pi*dk]).
    welch_approx: k_1 = 0, a = 1, dk calibrated.  Both solve for w = dk x_o
    at unit scale.
    """
    if name == "tukey":
        if dk is None:
            raise ValueError("tukey requires a chosen dk")
        return calibrate("ct", x_o, a=0.5, dk=dk).spec
    if name in ("hann", "welch_approx"):
        a = 0.5 if name == "hann" else 1.0
        w = _first_root(lambda w: _ct_unit_mismatch(0.0, a, w), 1e-6, 1e3)
        return CosineTerminated(0.0, a, w / x_o)
    raise ValueError(f"unknown special case {name!r} (expected tukey, hann, welch_approx)")


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


def parse_spec(text: str) -> FilterSpec:
    """Inverse of serialize_spec; tolerates comments and the metadata keys."""
    pairs: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        pairs[key.strip()] = val.strip()
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
