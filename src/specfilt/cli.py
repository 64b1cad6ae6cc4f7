"""Command-line front end.

Subcommands: calibrate, kernel, transfer, sweep, noise, apply, gibbs.
Every command is deterministic given its configuration and seed; output files
are plain columnar text (csv or tsv) whose header comments record the full
parameter set, so a run can be reproduced from its own output.  Exit codes:
0 success, 2 validation error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import collections
import datetime
import functools
import shlex
import sys
import threading
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .engine import (
    SampleGrid,
    apply_filter_ds,
    noise_transmission_empirical,
    read_spectrum,
    reconstruct_with_report,
    sampled_kernel,
    write_spectrum,
)
from .filters import (
    FAMILIES,
    CalibrationError,
    CalibrationResult,
    CosineTerminated,
    FilterSpec,
    _PARAMETERS,
    _given_parameters,
    _key_values,
    calibrate,
    half_transfer_point,
    kernel,
    parse_spec,
    serialize_spec,
    transfer,
)
from .lineshapes import LorentzianLine, NoiseModel
from .metrics import (
    _CUTOFF_MIN_POINTS,
    QuadratureError,
    gibbs_residual,
    mse_bw_analytic,
    mse_numeric,
    mse_ra_analytic,
    mse_ratio_ra_bw,
    noise_cutoff,
    noise_gain,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

class ValidationFailure(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class IoFailure(Exception):
    pass


@dataclass
class RunConfig:
    """Command parameters merged from flags, config file, and defaults.

    types holds the type of each flag's value, which a config-file value for
    that flag is converted to.
    """

    args: argparse.Namespace
    file_values: dict[str, str] = field(default_factory=dict)
    types: dict[str, type] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def get(self, name: str, default=None):
        val = getattr(self.args, name, None)
        if val is None and name in self.file_values:
            typ = self.types.get(name, str)
            raw = self.file_values[name]
            try:
                val = (raw.lower() in ("1", "true", "yes")) if typ is bool else typ(raw)
            except ValueError:
                self.problems.append(f"config key {name}={raw!r} is not a valid {typ.__name__}")
                return default
        return default if val is None else val

    def require(self, name: str, default=None):
        val = self.get(name, default)
        if val is None:
            self.problems.append(f"missing required parameter --{name.replace('_', '-')}")
        return val

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def finish(self) -> None:
        if self.problems:
            raise ValidationFailure(self.problems)


def _load_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            pairs = _key_values(fh.read())
    except OSError as exc:
        raise IoFailure(f"cannot read config file {path}: {exc}") from None
    except ValueError as exc:  # a line that is not key=value, or text that is not utf-8
        raise IoFailure(f"{path}: {exc}") from None
    return {key.replace("-", "_"): value for key, value in pairs.items()}


def _value_types(parser: argparse.ArgumentParser) -> dict[str, type]:
    """The type of each flag's value, as its action declares it; a store_const True flag is a bool.

    A subcommand's parser holds the very actions of the groups it names in
    parents=, so its own action list covers every flag it accepts.
    """
    return {action.dest: bool if action.const is True else (action.type or str)
            for action in parser._actions}


def _fmt(value) -> str:
    if type(value) is float:
        return repr(value)
    if isinstance(value, (float, np.floating)):  # str(np.float64) is not repr(float)
        return repr(float(value))
    return str(value)


def _header(cfg: RunConfig, command: str, meta: Iterable[str] = ()) -> list[str]:
    """Header lines of every output file, without their '#' prefix."""
    lines = [f"specfilt {__version__}", f"command: {command}"]
    if not cfg.get("no_timestamp", False):
        lines.append(f"generated: {datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    return lines + list(meta)


def _write_text(path: str | None, text: str) -> None:
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


class TableWriter:
    """Columnar text output with self-describing '#' header comments."""

    def __init__(self, cfg: RunConfig, command: str, meta: Iterable[str] = ()):
        self.sep = "," if cfg.get("format", "csv") == "csv" else "\t"
        self.out = cfg.get("out")
        self.lines = [f"# {line}" for line in _header(cfg, command, meta)]

    def write(self, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
        sep = self.sep
        self.lines.append(sep.join(columns))
        self.lines += [sep.join(map(_fmt, row)) for row in rows]
        _write_text(self.out, "\n".join(self.lines) + "\n")


def _spec_line(spec: FilterSpec, x_o: float | None = None) -> str:
    return "; ".join(serialize_spec(spec, x_o=x_o).strip().splitlines())


def _ct_defaults(x0: float) -> dict[str, float]:
    """ct's a and dk when not given: 5 and 0.5/x0, one shape at every x0."""
    # a bad x0 is reported on its own
    return {"a": 5.0, "dk": 0.5 / x0 if 0 < x0 < np.inf else 0.5}


# parameter -> (the test a valid value passes, the rule its message states)
_RANGES = {
    "x0": (lambda v: 0 < v < np.inf, "must be positive and finite"),
    "m": (lambda v: v >= 1, "must be an integer >= 1"),
    "a": (lambda v: v >= 0.5, "must be >= 1/2"),
    "dk": (lambda v: v > 0, "must be positive"),
    "trials": (lambda v: v == 0 or v >= 100, "must be 0 (analytic only) or >= 100"),
    "grid_n": (lambda v: v >= 1, "must be an integer >= 1"),
}


def _check_ranges(cfg: RunConfig, **values) -> None:
    """Check each given value against its range, in the order given; None is absent."""
    for name, value in values.items():
        valid, rule = _RANGES[name]
        cfg.check(value is None or valid(value), f"--{name.replace('_', '-')} {rule}, got {value}")


def _family_params(cfg: RunConfig, family: str) -> dict:
    """Every --m, --a and --dk given, range-checked, for calibrate to judge.

    A parameter that family's calibration reads and lacks is a problem here;
    ct's a and dk default to its shape.  calibrate rejects a given value the
    family does not read; --k1 sets the onset of ct and of no other family.
    """
    x0 = cfg.get("x0", 1.0)
    _check_ranges(cfg, x0=x0)
    if family not in FAMILIES:
        cfg.check(False, f"--family must be one of {', '.join(FAMILIES)}, got {family!r}")
        return {}
    cfg.check(cfg.get("k1") is None or family == "ct",
              f"--k1 sets the onset of ct alone, got --family {family}")
    defaults = _ct_defaults(x0) if family == "ct" else {}
    params = {name: (cfg.require if name in _PARAMETERS[family] else cfg.get)(
        name, defaults.get(name)) for name in ("m", "a", "dk")}
    _check_ranges(cfg, **params)
    return params


def _resolve_spec(cfg: RunConfig) -> tuple[FilterSpec, float, CalibrationResult | None]:
    """Build the working spec from --spec, explicit --k1, or calibration.

    A --spec file fixes the filter and its x_o (1 when the file has none), so
    a flag that would choose either is a problem.
    """
    spec_path = cfg.get("spec")
    if spec_path is not None:
        for name in ("family", "m", "a", "dk", "k1", "x0"):
            cfg.check(cfg.get(name) is None, f"--{name} is not read with --spec")
        cfg.finish()
        try:
            with open(spec_path) as fh:
                text = fh.read()
            spec, x0 = parse_spec(text), float(_key_values(text).get("x_o", 1.0))
        except OSError as exc:
            raise IoFailure(f"cannot read spec file {spec_path}: {exc}") from None
        except ValueError as exc:
            raise ValidationFailure([f"bad spec file {spec_path}: {exc}"]) from None
        valid, rule = _RANGES["x0"]
        cfg.check(valid(x0), f"bad spec file {spec_path}: x_o {rule}, got {x0}")
        cfg.finish()
        return spec, x0, None
    x0 = cfg.get("x0", 1.0)
    family = cfg.require("family")
    params = _family_params(cfg, family) if family is not None else {}
    cfg.finish()
    if cfg.get("k1") is not None:
        return CosineTerminated(cfg.get("k1"), **_given_parameters("ct", params)), x0, None
    result = calibrate(family, x0, **params)
    return result.spec, x0, result


def _parse_list(text: str, typ, flag: str, cfg: RunConfig) -> list:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            out.append(typ(item))
        except ValueError:
            cfg.problems.append(f"{flag}: {item!r} is not a valid {typ.__name__}")
    return out


def cmd_calibrate(cfg: RunConfig, command: str) -> int:
    spec, x0, result = _resolve_spec(cfg)
    meta = [f"x_o={x0!r}"]
    if result is not None:
        meta.append(f"residual={result.residual!r}")
    meta.append(f"half_transfer_point={half_transfer_point(spec)!r}")
    header = "".join(f"# {line}\n" for line in _header(cfg, command, meta))
    _write_text(cfg.get("out"), header + serialize_spec(spec, x_o=x0))
    return EXIT_OK


def cmd_table(cfg: RunConfig, command: str, which: str) -> int:
    spec, x0, _ = _resolve_spec(cfg)
    if which == "kernel":
        lo, hi, n = cfg.get("min", -10.0), cfg.get("max", 10.0), cfg.get("points", 401)
    else:
        hi_default = 3.0 * half_transfer_point(spec)
        lo, hi, n = cfg.get("min", 0.0), cfg.get("max", hi_default), cfg.get("points", 301)
    cfg.check(n >= 2, f"--points must be >= 2, got {n}")
    cfg.check(hi > lo, f"--max must exceed --min, got [{lo}, {hi}]")
    cfg.finish()
    grid = np.linspace(lo, hi, int(n))
    vals = kernel(spec, grid) if which == "kernel" else transfer(spec, grid)
    writer = TableWriter(cfg, command, [f"spec: {_spec_line(spec, x0)}"])
    writer.write(("x" if which == "kernel" else "k", which),
                 zip(grid.tolist(), np.asarray(vals).tolist()))
    return EXIT_OK


def _eta_grid(cfg: RunConfig) -> np.ndarray:
    single = cfg.get("eta")
    if single is not None:
        cfg.check(0 < single < np.inf, f"--eta must be positive and finite, got {single}")
        return np.array([float(single)])
    lo = cfg.get("eta_min", 0.05)
    hi = cfg.get("eta_max", 5.0)
    n = cfg.get("eta_points", 100)
    cfg.check(0 < lo < np.inf, f"--eta-min must be positive and finite, got {lo}")
    cfg.check(hi != np.inf, f"--eta-max must be finite, got {hi}")
    cfg.check(hi > lo, f"--eta-max must exceed --eta-min, got [{lo}, {hi}]")
    cfg.check(n >= 1, f"--eta-points must be >= 1, got {n}")
    if cfg.problems:
        return np.array([1.0])
    return np.linspace(lo, hi, int(n))


class _Filter(NamedTuple):
    """A filter by its family: calibrate it with params at x0, or with unit at x_o = 1.

    unit holds the same dimensionless filter: params with every spread dk
    taken times x0.
    """

    family: str
    params: dict
    unit: dict


def _gh_ct(cfg: RunConfig, x0: float, **more) -> tuple[_Filter, _Filter]:
    """gh of order --m (default 100) and ct of --a and --dk (default its shape).

    The three values are range-checked, then each value in more (a name of
    _RANGES), before any problem is reported.
    """
    m = cfg.get("m", 100)
    shape = {name: cfg.get(name, value) for name, value in _ct_defaults(x0).items()}
    _check_ranges(cfg, m=m, **shape, **more)
    cfg.finish()
    return (_Filter("gh", {"m": m}, {"m": m}),
            _Filter("ct", shape, {"a": shape["a"], "dk": shape["dk"] * x0}))


# A sweep builder checks its kind's own flags and returns the kind's entries
# (header, column, source).  source is a _Filter, whose MSE comes by
# quadrature, or a closed form mse(eta, x_o).  header names the entry's spec_
# line and column its ratio_ column, the MSE over BW's; either may be None.


def _sweep_ra_bw(cfg: RunConfig, x0: float) -> list:
    return [("ra", None, _Filter("ra", {}, {})), ("bw", None, _Filter("bw", {}, {})),
            (None, "closed", mse_ra_analytic)]


def _sweep_gh(cfg: RunConfig, x0: float) -> list:
    ms = _parse_list(cfg.get("m_list", "1,2,5,10,20,50,100"), int, "--m-list", cfg)
    cfg.finish()
    return [(f"gh_m{m}", f"m{m}", _Filter("gh", {"m": m}, {"m": m})) for m in ms]


def _sweep_ct(cfg: RunConfig, x0: float) -> list:
    a = cfg.get("a", _ct_defaults(x0)["a"])
    dk_list = cfg.get("dk_list")
    dks = ([s / x0 for s in (0.2, 0.5, 1.0)] if dk_list is None
           else _parse_list(dk_list, float, "--dk-list", cfg))
    _check_ranges(cfg, a=a)
    cfg.finish()
    return [(f"ct_dk{dk}", f"dk{dk}", _Filter("ct", {"a": a, "dk": dk}, {"a": a, "dk": dk * x0}))
            for dk in dks]


def _sweep_compare(cfg: RunConfig, x0: float) -> list:
    gh, ct = _gh_ct(cfg, x0)
    return [(None, "ra", mse_ra_analytic), ("gh", f"gh_m{gh.params['m']}", gh), ("ct", "ct", ct)]


# sweep kind -> (the --m, --a and --dk it reads, its builder); the first is the
# default.  gh takes its orders from --m-list and ct its spreads from --dk-list.
_SWEEPS = {
    "ra-bw": ((), _sweep_ra_bw),
    "gh": ((), _sweep_gh),
    "ct": (("a",), _sweep_ct),
    "compare": (("m", "a", "dk"), _sweep_compare),
}


# Bytes of MSE columns and their eta grids that _MSE_COLUMNS keeps.
_MSE_BUDGET = 1 << 20


class _MseColumns:
    """MSE columns by unit-scale spec and eta grid, least recently used evicted first.

    A column holds mse_numeric of the unit-area lines of half-width eta, for
    each eta of the grid, and is read-only: a hit returns the very array the
    miss computed.  The memo holds at most budget bytes of columns and their
    grids; a column that alone costs more is computed and not kept.  Callers
    on several threads share it under its lock, which is not held while a
    column is computed.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self.columns: collections.OrderedDict = collections.OrderedDict()
        self.lock = threading.Lock()

    def get(self, spec: FilterSpec, etas: np.ndarray) -> np.ndarray:
        key = (spec, etas.tobytes())
        with self.lock:
            if key in self.columns:
                self.columns.move_to_end(key)
                return self.columns[key]
        column = mse_numeric([LorentzianLine(e) for e in etas], spec)
        column.flags.writeable = False
        cost = column.nbytes + len(key[1])
        with self.lock:
            if cost <= self.budget and key not in self.columns:
                self.columns[key] = column
                self.nbytes += cost
                while self.nbytes > self.budget:
                    (_, grid), old = self.columns.popitem(last=False)
                    self.nbytes -= old.nbytes + len(grid)
        return column


_MSE_COLUMNS = _MseColumns(_MSE_BUDGET)


def cmd_sweep(cfg: RunConfig, command: str) -> int:
    kinds = list(_SWEEPS)
    kind = cfg.get("kind", kinds[0])
    cfg.check(kind in _SWEEPS,
              f"--kind must be {', '.join(kinds[:-1])}, or {kinds[-1]}, got {kind!r}")
    read, build = _SWEEPS.get(kind, (("m", "a", "dk"), None))  # an unknown kind is reported above
    for name in ("m", "a", "dk"):
        value = cfg.get(name)
        cfg.check(value is None or name in read,
                  f"--{name} is not read by sweep --kind {kind}, got {value}")
    x0 = cfg.get("x0", 1.0)
    _check_ranges(cfg, x0=x0)
    etas = _eta_grid(cfg)
    cfg.finish()
    entries = build(cfg, x0)
    # x0 names the filters of the header; every ratio is taken at x_o = 1,
    # where it depends on eta alone
    meta = [f"x_o={x0!r}"] + [
        f"spec_{name}: {_spec_line(calibrate(f.family, x0, **f.params).spec)}"
        for name, _, f in entries if name]

    columns = ["eta"] + [f"ratio_{column}" for _, column, _ in entries if column]
    # The closed forms are called once per eta: numpy's array arctan and
    # log1p do not round as the scalar calls do.  On the 120-point eta grid
    # 1.0-5.0 their array forms change 2 cells of mse_ra_analytic and 1 of
    # mse_ratio_ra_bw (13 and 2 of 20 000 etas drawn uniformly from
    # 0.05-5.0); only mse_bw_analytic matches everywhere.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        refs = np.array([mse_bw_analytic(e, 1.0) for e in etas])
        mses = [[source(e, 1.0) for e in etas] if callable(source)
                else _MSE_COLUMNS.get(calibrate(source.family, 1.0, **source.unit).spec, etas)
                for _, column, source in entries if column]
        cells = np.reshape(mses, (-1, etas.size)) / refs
        if build is _sweep_ra_bw:  # the absolute MSEs at x0 first, the published ratio last
            columns = ["eta", "mse_ra", "mse_bw", *columns[1:], "ratio_published"]
            # the published ratio's exp(3.79 eta) overflows past eta ~ 187
            absolute = [[mse(e, x0) for e in etas] for mse in (mse_ra_analytic, mse_bw_analytic)]
            cells = np.vstack([*absolute, cells, [mse_ratio_ra_bw(e) for e in etas]])
    failed = ~np.isfinite(cells)  # a cell that is not finite is NaN and counted
    cells[failed] = np.nan
    TableWriter(cfg, command, meta).write(columns, zip(etas.tolist(), *cells.tolist()))
    if failed.any():
        print(f"warning: {np.count_nonzero(failed)} sweep point(s) failed and were marked NaN",
              file=sys.stderr)
    return EXIT_OK


def cmd_noise(cfg: RunConfig, command: str) -> int:
    x0 = cfg.get("x0", 1.0)
    trials = cfg.get("trials", 0)
    grid_n = cfg.get("grid_n", 256)
    _check_ranges(cfg, x0=x0)
    # the grid is read by the Monte Carlo alone
    gh, ct = (calibrate(f.family, x0, **f.params).spec
              for f in _gh_ct(cfg, x0, trials=trials, grid_n=grid_n if trials > 0 else None))
    named = [("ra", calibrate("ra", x0).spec), ("bw", calibrate("bw", x0).spec),
             (f"gh_m{gh.m}", gh), (f"ct_a{ct.a}_dk{ct.dk}", ct)]
    meta = [f"x_o={x0!r}"] + [f"spec_{n}: {_spec_line(s)}" for n, s in named]
    columns = ["filter", "rms_gain", "ds_value", "rs_value"]
    rows = []
    for name, spec in named:
        rep = noise_gain(spec)
        rows.append([name, rep.rms_gain, rep.ds_value, rep.rs_value])
    if trials:
        columns += ["mc_gain", "mc_predicted", "mc_std_error"]
        seed = cfg.get("seed", 0)
        meta.append(f"monte_carlo: trials={trials} grid_n={grid_n} seed={seed}")
        mcs = noise_transmission_empirical([s for _, s in named], NoiseModel(1.0, seed),
                                           trials, SampleGrid(grid_n))
        for row, mc in zip(rows, mcs):
            row += [mc.measured, mc.predicted, mc.std_error]
    TableWriter(cfg, command, meta).write(columns, rows)
    return EXIT_OK


def cmd_apply(cfg: RunConfig, command: str) -> int:
    src = cfg.require("infile")
    cfg.finish()
    try:
        spectrum, x_start, dx = read_spectrum(src)
    except OSError as exc:
        raise IoFailure(f"cannot read spectrum {src}: {exc}") from None
    except ValueError as exc:
        raise IoFailure(str(exc)) from None
    spec, x0, _ = _resolve_spec(cfg)
    path = cfg.get("path", "rs")
    cfg.check(path in ("rs", "ds"), f"--path must be rs or ds, got {path!r}")
    cfg.finish()
    m_total = spectrum.grid.size
    k_scale = 2.0 * np.pi / (m_total * dx)
    # the report always comes from the RS route; on --path rs its output is
    # the filtered spectrum too
    filtered, gibbs = reconstruct_with_report(spectrum, spec, k_scale=k_scale)
    if path == "ds":
        filtered = apply_filter_ds(spectrum, spec, dx=dx)
    x = x_start + dx * np.arange(m_total)
    out = cfg.get("out", src + ".filtered")
    header = _header(cfg, command,
                     [f"source: {src}", f"spec: {_spec_line(spec, x0)}", f"path: {path}"])
    try:
        write_spectrum(out, x, filtered.values, header)
    except OSError as exc:
        raise IoFailure(f"cannot write {out}: {exc}") from None

    gain = noise_gain(spec)
    grid_gain = float(np.sqrt(np.sum(sampled_kernel(spec, spectrum.grid, dx=dx) ** 2)))
    if m_total < _CUTOFF_MIN_POINTS:
        cutoff_line = (f"noise_cutoff: not searched: {m_total} points, "
                       f"fewer than the {_CUTOFF_MIN_POINTS} it needs")
    else:
        cutoff = noise_cutoff(spectrum)
        cutoff_line = ("noise_cutoff: no cutoff found" if cutoff is None
                       else "noise_cutoff_k=" + repr(cutoff * k_scale))
    period_x = gibbs.period_estimate * m_total * dx / (2.0 * np.pi)
    report_lines = [
        f"# specfilt {__version__} apply report",
        f"spec: {_spec_line(spec, x0)}",
        f"rms_noise_gain_continuum={gain.rms_gain!r}",
        f"rms_noise_gain_grid={grid_gain!r}",
        cutoff_line,
        f"gibbs_peak_amplitude={gibbs.peak_amplitude!r}",
        f"gibbs_period_x={period_x!r}",
    ]
    _write_text(out + ".report.txt", "\n".join(report_lines) + "\n")
    return EXIT_OK


def cmd_gibbs(cfg: RunConfig, command: str) -> int:
    spec, x0, _ = _resolve_spec(cfg)
    gammas = _parse_list(cfg.get("gamma_list", "0.5,1,2"), float, "--gamma-list", cfg)
    for g in gammas:
        cfg.check(g > 0, f"--gamma-list entries must be positive, got {g}")
    lo, hi, n = cfg.get("min", -12.0), cfg.get("max", 12.0), cfg.get("points", 1201)
    cfg.check(hi > lo and n >= 2, f"bad residual grid [{lo}, {hi}] with {n} points")
    cfg.finish()
    unit_height = cfg.get("unit_height", False)
    k_c = half_transfer_point(spec)
    x = np.linspace(lo, hi, int(n))
    meta = [f"spec: {_spec_line(spec, x0)}",
            f"half_transfer_point={k_c!r}",
            f"normalization={'unit_height' if unit_height else 'unit_area'}"]
    reports = []
    for g in gammas:
        area = np.pi * g if unit_height else 1.0
        reports.append(gibbs_residual(LorentzianLine(g, area=area), spec, x))
    writer = TableWriter(cfg, command, meta)
    if cfg.get("curve", False):
        columns = ["x", "kernel"] + [f"residual_gamma{g}" for g in gammas]
        b = np.asarray(kernel(spec, x))
        rows = zip(x.tolist(), b.tolist(), *(r.residual.tolist() for r in reports))
        writer.write(columns, rows)
    else:
        columns = ["gamma", "peak_amplitude", "period_estimate", "period_theory"]
        rows = [[g, r.peak_amplitude, r.period_estimate, 2.0 * np.pi / k_c]
                for g, r in zip(gammas, reports)]
        writer.write(columns, rows)
    return EXIT_OK


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, type]]]:
    """The specfilt parser, and the value types of each subcommand's flags by its name.

    Built once per process, at the first main call: parse_args leaves the
    parser as it was, the tree reads nothing but module constants, and
    callers change neither result.
    """
    parser = argparse.ArgumentParser(
        prog="specfilt",
        description="Calibrate, evaluate, and apply linear noise-reduction filters.",
    )
    parser.add_argument("--version", action="version", version=f"specfilt {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # flag groups; each subcommand declares only the flags it reads
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--x0", type=float, help="direct-space half-width for calibration")
    params.add_argument("--m", type=int, help="gauss-hermite order")
    params.add_argument("--a", type=float, help="cosine-terminated steepness")
    params.add_argument("--dk", type=float, help="cosine-terminated spread (ct default 0.5/x0)")
    spec = argparse.ArgumentParser(add_help=False, parents=[params])
    spec.add_argument("--family", choices=FAMILIES, help="filter family")
    spec.add_argument("--k1", type=float, help="explicit cosine-terminated onset (skips calibration)")
    spec.add_argument("--spec", help="read a serialized filter spec instead of calibrating")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--out", help="output path (default stdout)")
    run.add_argument("--no-timestamp", action="store_const", const=True,
                     help="suppress the timestamp header line")
    run.add_argument("--config", help="key=value config file; flags take precedence")
    table = argparse.ArgumentParser(add_help=False, parents=[run])
    table.add_argument("--format", choices=("csv", "tsv"), help="column separator")

    sub.add_parser("calibrate", parents=[spec, run],
                   help="calibrate a filter to b(x_o)/b(0) = 1/2")
    for name in ("kernel", "transfer"):
        p = sub.add_parser(name, parents=[spec, table], help=f"tabulate the {name}")
        p.add_argument("--min", type=float)
        p.add_argument("--max", type=float)
        p.add_argument("--points", type=int)

    p = sub.add_parser("sweep", parents=[params, table], help="eta sweeps of MSE ratios")
    p.add_argument("--eta", type=float, help="single gamma/x_o ratio")
    p.add_argument("--kind", choices=tuple(_SWEEPS))
    p.add_argument("--eta-min", type=float)
    p.add_argument("--eta-max", type=float)
    p.add_argument("--eta-points", type=int)
    p.add_argument("--m-list", help="comma-separated gauss-hermite orders")
    p.add_argument("--dk-list", help="comma-separated cosine-terminated spreads (default 0.2,0.5,1.0 over x0)")

    p = sub.add_parser("noise", parents=[params, table], help="noise transmission table")
    p.add_argument("--seed", type=int, help="reproducibility seed")
    p.add_argument("--trials", type=int, help="Monte Carlo trials (0 = analytic only)")
    p.add_argument("--grid-n", type=int, help="Monte Carlo grid half-size")

    p = sub.add_parser("apply", parents=[spec, run], help="filter a two-column spectrum file")
    p.add_argument("--in", dest="infile", help="input spectrum path")
    p.add_argument("--path", choices=("rs", "ds"), help="application route")

    p = sub.add_parser("gibbs", parents=[spec, table], help="cutoff-oscillation residual reports")
    p.add_argument("--gamma-list", help="comma-separated line half-widths")
    p.add_argument("--min", type=float)
    p.add_argument("--max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--unit-height", action="store_const", const=True,
                   help="normalize lines to unit height instead of unit area")
    p.add_argument("--curve", action="store_const", const=True,
                   help="tabulate residual and kernel curves instead of the summary")
    return parser, {name: _value_types(p) for name, p in sub.choices.items()}


_DISPATCH = {
    "calibrate": cmd_calibrate,
    "kernel": lambda cfg, cmd: cmd_table(cfg, cmd, "kernel"),
    "transfer": lambda cfg, cmd: cmd_table(cfg, cmd, "transfer"),
    "sweep": cmd_sweep,
    "noise": cmd_noise,
    "apply": cmd_apply,
    "gibbs": cmd_gibbs,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, types = _build_parser()
    args = parser.parse_args(argv)
    command = "specfilt " + shlex.join(argv)
    try:
        cfg = RunConfig(args, _load_config_file(getattr(args, "config", None)),
                        types[args.subcommand])
        return _DISPATCH[args.subcommand](cfg, command)
    except ValidationFailure as exc:
        print("configuration error:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CalibrationError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IoFailure as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
