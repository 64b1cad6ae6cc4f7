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

import threading
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Union

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import gammaincc, gammainccinv, gammaln

from ._gauss import gauss_legendre

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
    "gh_kernel_samples",
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
    not each other, so that a wrapper bound to those names sees every call.
    """

    tag: ClassVar[str]

    def _support_cutoff(self) -> float | None:
        return None

    def _breakpoints(self) -> tuple[float, ...]:
        return ()

    def _ds_cutoff(self) -> float:
        scale = 1.0 / half_transfer_point(self)
        b0 = float(kernel(self, 0.0))

        def f(x: float) -> float:
            return float(kernel(self, x)) / b0 - 0.5

        return _first_root(f, 1e-4 * scale, 1e3 * scale)

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
    def _calibrated(cls, x_o: float, lo: float, hi: float, **_) -> RunningAverage:
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
    def _calibrated(cls, x_o: float, lo: float, hi: float, **_) -> BrickWall:
        return cls(_first_root(lambda k: float(_sinc(np.asarray(k * x_o))) - 0.5, lo, hi))


@dataclass(frozen=True)
class GaussHermite(_Family):
    """Gaussian times a partial exponential series in u = (k/k_s)^2.

    Order m keeps the m+1 terms n = 0..m: B(k) = exp(-u) * sum u^n/n!, which
    is the regularized upper incomplete gamma Q(m+1, u), and the kernel
    carries the Hermite polynomials H_0..H_2m.  Counting the order by the top
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

    def _transfer(self, k: np.ndarray) -> np.ndarray:
        return gammaincc(self.m + 1, (k / self.k_s) ** 2)

    def _kernel(self, x: np.ndarray) -> np.ndarray:
        return _gh_table(self)(x)

    def _support_cutoff(self) -> float:
        # B(k) < 1e-15 beyond it
        return self.k_s * float(np.sqrt(gammainccinv(self.m + 1, 1e-15)))

    def _half_transfer_point(self) -> float:
        return self.k_s * float(np.sqrt(gammainccinv(self.m + 1, 0.5)))

    def _residual(self, x_o: float) -> float:
        # by quadrature, so that calibrating never builds a kernel table
        return abs(gh_kernel_quadrature(self, x_o) / gh_kernel_quadrature(self, 0.0) - 0.5)

    @classmethod
    def _calibrated(cls, x_o: float, lo: float, hi: float, *, m: int | None = None,
                    **_) -> GaussHermite:
        if m is None:
            raise ValueError("gh calibration requires the order m")
        return cls(int(m), _first_root(_gh_half_height_mismatch(int(m), x_o), lo, hi))


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
        # Exact rewrite of the three-term closed-form kernel.  Writing each term
        # as cos(...)*sinc(...) removes the singularities at x = 0 and
        # x = +-1/dk analytically, so no branch switching is needed near them.
        k1 = self.k_1
        k2 = k2_of(self)
        a = self.a
        c = k2 - k1  # rolloff width; c/dk = arccos(1 - 1/a)
        d = 1.0 / self.dk
        b1 = (k1 * _sinc(k1 * x) + (1.0 - a) * c * np.cos(0.5 * (k1 + k2) * x) * _sinc(0.5 * c * x)) / np.pi
        amp = a * c / (2.0 * np.pi)
        b2 = amp * np.cos((0.5 * c + k1) * (x + d) - k1 * d) * _sinc(0.5 * c * (x + d))
        b3 = amp * np.cos((0.5 * c + k1) * (x - d) + k1 * d) * _sinc(0.5 * c * (x - d))
        return b1 + b2 + b3

    def _support_cutoff(self) -> float:
        return k2_of(self)

    def _breakpoints(self) -> tuple[float, ...]:
        return (self.k_1, k2_of(self))

    def _half_transfer_point(self) -> float:
        return self.k_1 + self.dk * float(np.arccos(1.0 - 0.5 / self.a))

    def _derived(self) -> dict[str, float]:
        return {"k_2": k2_of(self)}

    @classmethod
    def _calibrated(cls, x_o: float, lo: float, hi: float, *, a: float | None = None,
                    dk: float | None = None, **_) -> CosineTerminated:
        if a is None or dk is None:
            raise ValueError("ct calibration requires a and dk")

        def f(k_1: float) -> float:
            return _half_height_mismatch(cls(k_1, a, dk), x_o)

        try:
            k_1 = _first_root(f, lo, hi)
        except CalibrationError:
            raise CalibrationError(
                f"ct(a={a}, dk={dk}) cannot reach b({x_o})/b(0) = 1/2 for any "
                f"k_1 >= 0; residual at the clamped k_1 = 0 is {f(0.0):+.3e}"
            ) from None
        return cls(k_1, a, dk)


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


class _GhKernelTable:
    """Dense-grid samples of a Gauss-Hermite kernel with spline interpolation.

    The kernel has no closed form; it is the inverse cosine transform of the
    transfer, evaluated here by composite Gauss-Legendre panels on [0, K] with
    K chosen so B(K) < 1e-15, vectorized over the x grid.
    """

    def __init__(self, spec: GaussHermite):
        self.spec = spec
        k_half = half_transfer_point(spec)
        cut = support_cutoff(spec)
        assert cut is not None
        self.k_cut = cut
        step = 0.01 / max(1.0, k_half)
        per_block = max(64, int(round(max(4.0, 8.0 / k_half) / step)))
        b0 = abs(self._cos_transform(np.array([0.0]))[0])
        # extend block by block until the kernel envelope is negligible
        blocks = 1
        while blocks < 4000:
            seg = np.arange(blocks * per_block, (blocks + 1) * per_block) * step
            if np.max(np.abs(self._cos_transform(seg))) < 1e-13 * b0:
                break
            blocks += 1
        grid = np.arange(blocks * per_block) * step
        self.x = grid
        self.x_end = float(grid[-1])
        self.values = self._cos_transform(grid)
        self.b0 = float(self.values[0])
        # clamped first derivative at 0 because the kernel is even
        self._spline = CubicSpline(grid, self.values, bc_type=((1, 0.0), "not-a-knot"))

    def _cos_transform(self, xs: np.ndarray) -> np.ndarray:
        # panel count keeps >= ~10 nodes per oscillation of cos(k*x) at x_max
        x_max = float(xs[-1]) if len(xs) else 1.0
        panels = max(6, int(self.k_cut * x_max / (2.0 * np.pi) / 5.0) + 1)
        nodes, wts = gauss_legendre(64)
        edges = np.linspace(0.0, self.k_cut, panels + 1)
        out = np.zeros_like(xs)
        for lo, hi in zip(edges[:-1], edges[1:]):
            kk = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            ww = 0.5 * (hi - lo) * wts
            bw = gammaincc(self.spec.m + 1, (kk / self.spec.k_s) ** 2) * ww
            out += np.cos(np.outer(xs, kk)) @ bw
        return out / np.pi

    def __call__(self, x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        return np.where(ax <= self.x_end, self._spline(np.minimum(ax, self.x_end)), 0.0)


_GH_TABLES: dict[GaussHermite, _GhKernelTable] = {}
_GH_LOCK = threading.Lock()


def _gh_table(spec: GaussHermite) -> _GhKernelTable:
    table = _GH_TABLES.get(spec)
    if table is None:
        with _GH_LOCK:
            table = _GH_TABLES.get(spec)
            if table is None:
                table = _GhKernelTable(spec)
                _GH_TABLES[spec] = table
    return table


def gh_kernel_samples(spec: GaussHermite) -> tuple[np.ndarray, np.ndarray]:
    """Dense cached samples (x >= 0 grid, kernel values) backing kernel(GH)."""
    table = _gh_table(spec)
    return table.x, table.values


def gh_kernel_quadrature(spec: GaussHermite, x: float) -> float:
    """Uncached Gauss-Hermite kernel value by adaptive quadrature (slow path)."""
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


def _first_root(f: Callable[[float], float], lo: float, hi: float, n: int = 240) -> float:
    """First sign change of f on a log-spaced scan of [lo, hi], polished by brentq."""
    grid = np.geomspace(lo, hi, n)
    prev_p, prev_v = grid[0], f(grid[0])
    for p in grid[1:]:
        v = f(p)
        if v == 0.0:
            return float(p)
        if (prev_v < 0.0) != (v < 0.0):
            return float(brentq(f, prev_p, p, xtol=1e-13, rtol=8.9e-16))
        prev_p, prev_v = p, v
    raise CalibrationError(
        f"no sign change of the calibration residual in [{lo:g}, {hi:g}]"
    )


def _half_height_mismatch(spec: FilterSpec, x_o: float) -> float:
    """b(x_o)/b(0) - 1/2, the residual whose root calibrates a spec."""
    return float(kernel(spec, x_o)) / float(kernel(spec, 0.0)) - 0.5


def _gh_half_height_mismatch(m: int, x_o: float) -> Callable[[float], float]:
    # b(x_o)/b(0) - 1/2 for the GH kernel, via integration by parts:
    # b(x) = E[sin(kx)]/(pi x) with k = k_s*sqrt(t), t ~ Gamma(m+1), so the
    # ratio is E[sin(k x_o)] / (x_o E[k]).  Stable for any m, no oscillatory
    # quadrature involved.
    npts = 2000
    t_lo = max(0.0, (m + 1) - 12.0 * np.sqrt(m + 1) - 12.0)
    t_hi = (m + 1) + 12.0 * np.sqrt(m + 1) + 24.0
    u, w = gauss_legendre(npts)
    t = 0.5 * (t_hi - t_lo) * u + 0.5 * (t_hi + t_lo)
    dens = np.exp(m * np.log(t) - t - gammaln(m + 1)) * (0.5 * (t_hi - t_lo) * w)
    root_t = np.sqrt(t)

    def f(k_s: float) -> float:
        return float(np.sum(np.sin(k_s * x_o * root_t) * dens)
                     / (x_o * k_s * np.sum(root_t * dens))) - 0.5

    return f


def calibrate(family: str, x_o: float, *, m: int | None = None,
              a: float | None = None, dk: float | None = None) -> CalibrationResult:
    """Fix a family's free parameter so its kernel satisfies b(x_o)/b(0) = 1/2.

    Free parameter by family: ra -> x_o itself, bw -> k_o, gh -> k_s (m fixed),
    ct -> k_1 (a and dk fixed).  Raises CalibrationError when no bracket exists
    in [1e-6, 1e3]/x_o (for ct the residual at k_1 = 0 is reported as well,
    since large dk can make every k_1 >= 0 overshoot the half-height point).
    """
    if not x_o > 0:
        raise ValueError(f"calibration requires x_o > 0, got {x_o}")
    cls = _BY_TAG.get(family)
    if cls is None:
        raise ValueError(f"unknown filter family {family!r}")
    spec = cls._calibrated(x_o, 1e-6 / x_o, 1e3 / x_o, m=m, a=a, dk=dk)
    return CalibrationResult(spec, x_o, spec._residual(x_o))


def special_case(name: str, x_o: float, *, dk: float | None = None) -> FilterSpec:
    """Named cosine-terminated variants.

    tukey: a = 1/2 with caller-chosen dk, k_1 calibrated.  hann: k_1 = 0,
    a = 1/2, dk calibrated (B = (1 + cos(k/dk))/2 on [0, pi*dk]).
    welch_approx: k_1 = 0, a = 1, dk calibrated.
    """
    if name == "tukey":
        if dk is None:
            raise ValueError("tukey requires a chosen dk")
        return calibrate("ct", x_o, a=0.5, dk=dk).spec
    if name in ("hann", "welch_approx"):
        a = 0.5 if name == "hann" else 1.0

        def f(width: float) -> float:
            return _half_height_mismatch(CosineTerminated(0.0, a, width), x_o)

        width = _first_root(f, 1e-6 / x_o, 1e3 / x_o)
        return CosineTerminated(0.0, a, width)
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
