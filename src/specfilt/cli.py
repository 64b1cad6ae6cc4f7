"""Command-line front end.

Subcommands: calibrate, kernel, transfer, sweep, noise, apply, gibbs.
Every command is deterministic given its configuration and seed; output files
are plain columnar text (csv or tsv) whose header comments record the full
parameter set, so a run can be reproduced from its own output.  Exit codes:
0 success, 2 validation error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .engine import (
    SampleGrid,
    apply_filter_ds,
    dft_forward,
    noise_transmission_empirical,
    read_spectrum,
    reconstruct_with_report,
    sampled_kernel,
    write_spectrum,
)
from .filters import (
    CalibrationError,
    CalibrationResult,
    CosineTerminated,
    FilterSpec,
    calibrate,
    half_transfer_point,
    kernel,
    parse_spec,
    serialize_spec,
    special_case,
    transfer,
)
from .lineshapes import LorentzianLine, NoiseModel
from .metrics import (
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

_FAMILIES = ("ra", "bw", "gh", "ct", "tukey", "hann", "welch_approx")

_CONFIG_TYPES = {
    "x0": float, "family": str, "m": int, "a": float, "dk": float, "k1": float,
    "eta": float, "out": str, "format": str, "seed": int, "no_timestamp": bool,
    "kind": str, "eta_min": float, "eta_max": float, "eta_points": int,
    "m_list": str, "dk_list": str, "gamma_list": str, "trials": int,
    "grid_n": int, "path": str, "spec": str, "min": float, "max": float,
    "points": int, "unit_height": bool, "curve": bool,
}


class ValidationFailure(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class IoFailure(Exception):
    pass


@dataclass
class RunConfig:
    """Command parameters merged from flags, config file, and defaults."""

    args: argparse.Namespace
    file_values: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def get(self, name: str, default=None):
        val = getattr(self.args, name, None)
        if val is None and name in self.file_values:
            typ = _CONFIG_TYPES.get(name, str)
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
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise IoFailure(f"{path}:{ln}: expected key=value, got {line!r}")
                key, val = line.split("=", 1)
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise IoFailure(f"cannot read config file {path}: {exc}") from None
    return values


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
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
        self.lines.append(self.sep.join(columns))
        for row in rows:
            self.lines.append(self.sep.join(_fmt(v) for v in row))
        _write_text(self.out, "\n".join(self.lines) + "\n")


def _spec_line(spec: FilterSpec, x_o: float | None = None) -> str:
    return "; ".join(serialize_spec(spec, x_o=x_o).strip().splitlines())


def _ct_dk(cfg: RunConfig, x0: float) -> float:
    """--dk, by default 0.5/x0, so the default ct spec has one shape at every x0."""
    return cfg.get("dk", 0.5 / x0 if x0 > 0 else 0.5)  # a bad x0 is reported on its own


def _validate_family_params(cfg: RunConfig, family: str) -> None:
    x0 = cfg.get("x0", 1.0)
    cfg.check(x0 > 0, f"--x0 must be positive, got {x0}")
    if family not in _FAMILIES:
        cfg.check(False, f"--family must be one of {', '.join(_FAMILIES)}, got {family!r}")
        return
    if family == "gh":
        m = cfg.require("m")
        if m is not None:
            cfg.check(m >= 1, f"--m must be an integer >= 1, got {m}")
    if family in ("ct", "tukey"):
        dk = _ct_dk(cfg, x0) if family == "ct" else cfg.require("dk")
        if dk is not None:
            cfg.check(dk > 0, f"--dk must be positive, got {dk}")
    if family == "ct":
        a = cfg.get("a", 5.0)
        cfg.check(a >= 0.5, f"--a must be >= 1/2, got {a}")


def _resolve_spec(cfg: RunConfig) -> tuple[FilterSpec, float, CalibrationResult | None]:
    """Build the working spec from --spec, explicit --k1, or calibration."""
    spec_path = cfg.get("spec")
    x0 = cfg.get("x0", 1.0)
    if spec_path is not None:
        try:
            with open(spec_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise IoFailure(f"cannot read spec file {spec_path}: {exc}") from None
        try:
            return parse_spec(text), x0, None
        except ValueError as exc:
            raise ValidationFailure([f"bad spec file {spec_path}: {exc}"]) from None
    family = cfg.require("family")
    if family is not None:
        _validate_family_params(cfg, family)
    if cfg.get("k1") is not None and family == "ct":
        cfg.finish()
        spec = CosineTerminated(cfg.get("k1"), cfg.get("a", 5.0), _ct_dk(cfg, x0))
        return spec, x0, None
    cfg.finish()
    if family in ("tukey", "hann", "welch_approx"):
        spec = special_case(family, x0, dk=cfg.get("dk"))
        b0 = float(kernel(spec, 0.0))
        residual = abs(float(kernel(spec, x0)) / b0 - 0.5)
        return spec, x0, CalibrationResult(spec, x0, residual)
    result = calibrate(family, x0, m=cfg.get("m"), a=cfg.get("a", 5.0), dk=_ct_dk(cfg, x0))
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
        cfg.check(single > 0, f"--eta must be positive, got {single}")
        return np.array([float(single)])
    lo = cfg.get("eta_min", 0.05)
    hi = cfg.get("eta_max", 5.0)
    n = cfg.get("eta_points", 100)
    cfg.check(lo > 0, f"--eta-min must be positive, got {lo}")
    cfg.check(hi > lo, f"--eta-max must exceed --eta-min, got [{lo}, {hi}]")
    cfg.check(n >= 1, f"--eta-points must be >= 1, got {n}")
    if cfg.problems:
        return np.array([1.0])
    return np.linspace(lo, hi, int(n))


def cmd_sweep(cfg: RunConfig, command: str) -> int:
    kind = cfg.get("kind", "ra-bw")
    cfg.check(kind in ("ra-bw", "gh", "ct", "compare"),
              f"--kind must be ra-bw, gh, ct, or compare, got {kind!r}")
    x0 = cfg.get("x0", 1.0)
    cfg.check(x0 > 0, f"--x0 must be positive, got {x0}")
    etas = _eta_grid(cfg)
    cfg.finish()

    meta: list[str] = [f"x_o={x0!r}"]
    columns: list[str] = ["eta"]
    lines = [LorentzianLine(e * x0) for e in etas]
    refs = np.array([mse_bw_analytic(e, x0) for e in etas])
    failures = 0

    def ratios(spec: FilterSpec) -> list[float]:
        nonlocal failures
        mse = mse_numeric(lines, spec)
        failures += int(np.count_nonzero(np.isnan(mse)))
        return (mse / refs).tolist()

    if kind == "ra-bw":
        ra = calibrate("ra", x0).spec
        bw = calibrate("bw", x0).spec
        meta += [f"spec_ra: {_spec_line(ra)}", f"spec_bw: {_spec_line(bw)}"]
        columns += ["mse_ra", "mse_bw", "ratio_closed", "ratio_published"]
        rows = []
        for e, mbw in zip(etas, refs):
            mra = mse_ra_analytic(e, x0)
            rows.append([e, mra, mbw, mra / mbw, mse_ratio_ra_bw(e)])
    elif kind == "gh":
        ms = _parse_list(cfg.get("m_list", "1,2,5,10,20,50,100"), int, "--m-list", cfg)
        cfg.finish()
        specs = {m: calibrate("gh", x0, m=m).spec for m in ms}
        meta += [f"spec_gh_m{m}: {_spec_line(s)}" for m, s in specs.items()]
        columns += [f"ratio_m{m}" for m in ms]
        rows = [list(r) for r in zip(etas, *(ratios(s) for s in specs.values()))]
    elif kind == "ct":
        a = cfg.get("a", 5.0)
        dk_list = cfg.get("dk_list")
        dks = ([s / x0 for s in (0.2, 0.5, 1.0)] if dk_list is None
               else _parse_list(dk_list, float, "--dk-list", cfg))
        cfg.check(a >= 0.5, f"--a must be >= 1/2, got {a}")
        cfg.finish()
        specs = {dk: calibrate("ct", x0, a=a, dk=dk).spec for dk in dks}
        meta += [f"spec_ct_dk{dk}: {_spec_line(s)}" for dk, s in specs.items()]
        columns += [f"ratio_dk{dk}" for dk in dks]
        rows = [list(r) for r in zip(etas, *(ratios(s) for s in specs.values()))]
    else:  # compare
        m = cfg.get("m", 100)
        a = cfg.get("a", 5.0)
        dk = _ct_dk(cfg, x0)
        gh = calibrate("gh", x0, m=m).spec
        ct = calibrate("ct", x0, a=a, dk=dk).spec
        meta += [f"spec_gh: {_spec_line(gh)}", f"spec_ct: {_spec_line(ct)}"]
        columns += ["ratio_ra", f"ratio_gh_m{m}", "ratio_ct"]
        ra = [mse_ra_analytic(e, x0) / ref for e, ref in zip(etas, refs)]
        rows = [list(r) for r in zip(etas, ra, ratios(gh), ratios(ct))]
    writer = TableWriter(cfg, command, meta)
    writer.write(columns, rows)
    if failures:
        print(f"warning: {failures} sweep point(s) failed and were marked NaN",
              file=sys.stderr)
    return EXIT_OK


def cmd_noise(cfg: RunConfig, command: str) -> int:
    x0 = cfg.get("x0", 1.0)
    m = cfg.get("m", 100)
    a = cfg.get("a", 5.0)
    dk = _ct_dk(cfg, x0)
    trials = cfg.get("trials", 0)
    grid_n = cfg.get("grid_n", 256)
    cfg.check(x0 > 0, f"--x0 must be positive, got {x0}")
    cfg.check(m >= 1, f"--m must be an integer >= 1, got {m}")
    cfg.check(a >= 0.5, f"--a must be >= 1/2, got {a}")
    cfg.check(dk > 0, f"--dk must be positive, got {dk}")
    cfg.check(trials == 0 or trials >= 100,
              f"--trials must be 0 (analytic only) or >= 100, got {trials}")
    if trials > 0:
        cfg.check(grid_n >= 1, f"--grid-n must be an integer >= 1, got {grid_n}")
    cfg.finish()
    named = [
        ("ra", calibrate("ra", x0).spec),
        ("bw", calibrate("bw", x0).spec),
        (f"gh_m{m}", calibrate("gh", x0, m=m).spec),
        (f"ct_a{a}_dk{dk}", calibrate("ct", x0, a=a, dk=dk).spec),
    ]
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
    # the filtered spectrum too.  noise_cutoff reads the same forward DFT.
    coeffs = dft_forward(spectrum)
    filtered, gibbs = reconstruct_with_report(spectrum, spec, k_scale=k_scale, coeffs=coeffs)
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
    cutoff = noise_cutoff(coeffs) if spectrum.grid.size >= 129 else None
    period_x = gibbs.period_estimate * m_total * dx / (2.0 * np.pi)
    report_lines = [
        f"# specfilt {__version__} apply report",
        f"spec: {_spec_line(spec, x0)}",
        f"rms_noise_gain_continuum={gain.rms_gain!r}",
        f"rms_noise_gain_grid={grid_gain!r}",
        ("noise_cutoff_k=" + repr(cutoff * k_scale)) if cutoff is not None
        else "noise_cutoff: no cutoff found",
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specfilt",
        description="Calibrate, evaluate, and apply linear noise-reduction filters.",
    )
    parser.add_argument("--version", action="version", version=f"specfilt {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--x0", type=float, help="direct-space half-width for calibration")
    common.add_argument("--family", choices=_FAMILIES, help="filter family")
    common.add_argument("--m", type=int, help="gauss-hermite order")
    common.add_argument("--a", type=float, help="cosine-terminated steepness")
    common.add_argument("--dk", type=float, help="cosine-terminated spread (ct default 0.5/x0)")
    common.add_argument("--k1", type=float, help="explicit cosine-terminated onset (skips calibration)")
    common.add_argument("--eta", type=float, help="single gamma/x_o ratio")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "tsv"), help="column separator")
    common.add_argument("--seed", type=int, help="reproducibility seed")
    common.add_argument("--no-timestamp", action="store_const", const=True,
                        help="suppress the timestamp header line")
    common.add_argument("--config", help="key=value config file; flags take precedence")
    common.add_argument("--spec", help="read a serialized filter spec instead of calibrating")

    sub.add_parser("calibrate", parents=[common],
                   help="calibrate a filter to b(x_o)/b(0) = 1/2")
    for name in ("kernel", "transfer"):
        p = sub.add_parser(name, parents=[common], help=f"tabulate the {name}")
        p.add_argument("--min", type=float)
        p.add_argument("--max", type=float)
        p.add_argument("--points", type=int)

    p = sub.add_parser("sweep", parents=[common], help="eta sweeps of MSE ratios")
    p.add_argument("--kind", choices=("ra-bw", "gh", "ct", "compare"))
    p.add_argument("--eta-min", type=float)
    p.add_argument("--eta-max", type=float)
    p.add_argument("--eta-points", type=int)
    p.add_argument("--m-list", help="comma-separated gauss-hermite orders")
    p.add_argument("--dk-list", help="comma-separated cosine-terminated spreads (default 0.2,0.5,1.0 over x0)")

    p = sub.add_parser("noise", parents=[common], help="noise transmission table")
    p.add_argument("--trials", type=int, help="Monte Carlo trials (0 = analytic only)")
    p.add_argument("--grid-n", type=int, help="Monte Carlo grid half-size")

    p = sub.add_parser("apply", parents=[common], help="filter a two-column spectrum file")
    p.add_argument("--in", dest="infile", help="input spectrum path")
    p.add_argument("--path", choices=("rs", "ds"), help="application route")

    p = sub.add_parser("gibbs", parents=[common], help="cutoff-oscillation residual reports")
    p.add_argument("--gamma-list", help="comma-separated line half-widths")
    p.add_argument("--min", type=float)
    p.add_argument("--max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--unit-height", action="store_const", const=True,
                   help="normalize lines to unit height instead of unit area")
    p.add_argument("--curve", action="store_const", const=True,
                   help="tabulate residual and kernel curves instead of the summary")
    return parser


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = "specfilt " + " ".join(argv)
    try:
        cfg = RunConfig(args, _load_config_file(getattr(args, "config", None)))
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
