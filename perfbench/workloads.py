"""The three benchmark workloads: job plans, input files and output checks.

Each workload is a closed loop with one client: the worker runs one
``specfilt.cli.main(argv)`` job at a time, in cycles.  A cycle holds a fixed
mix of job kinds, so every run sees the same mix whatever its seed; the seed
draws the parameters, the order within a cycle and the input files.  A run
holds round(seconds / cycle_s) cycles, where cycle_s is the cycle's job time
measured at the commit that introduced the benchmark on a 2-core Xeon
(Python 3.11, numpy 2.4, scipy 1.17), so the work done never depends on how
fast the program runs.

Why each workload (also recorded in BENCHMARK.json):

* tables   -- the paper's own output, the sweeps of run_mse_sweeps.py and the
  summary of run_gibbs_report.py.  Time goes to GH calibration and to scalar
  ``quad`` MSE; the dimensionless problem repeats but no spec repeats exactly.
* apply    -- filtering measured spectra of 100k-140k rows: text I/O and FFTs
  for bw/ct, the GH kernel-table build at physical scale, both DFT routes.
* noise_mc -- Monte Carlo noise transmission: Philox set-up on small grids,
  batched FFTs on large ones, and four exactly repeated calibrations per job.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Job:
    kind: str
    argv: list[str]
    out: str                 # primary output file the job writes
    units: int               # work units the job completes
    rows: int                # table rows, input rows or grid points
    exact_key: tuple         # the filter specs as given (physical units)
    dimless_key: tuple       # the same specs with x_o divided out
    info: dict = field(default_factory=dict)


def _r(v: float) -> str:
    return repr(float(v))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Columns and rows of a specfilt csv table (header comments skipped)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    columns = lines[0].split(",")
    return columns, [ln.split(",") for ln in lines[1:] if ln]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# tables

TABLES_ETA_POINTS = 120     # as in run_mse_sweeps.py
GH_ORDERS = "1,2,5,10,20,50,100"
CT_SPREADS = (0.12, 0.2, 0.5, 1.0)   # dk * x_o
GIBBS_GAMMAS = (0.5, 1.0, 2.0)       # gamma / x_o
RATIO_TOL = 1e-8


class Tables:
    name = "tables"
    unit = "cells"
    cycle_s = 26.0
    # Five gh sweeps and one job of each other kind, so the median job is a
    # gh job.  Their time is mostly the LAPACK work of GH calibration, which
    # moves least with a shared machine's speed: between runs on a shared
    # 2-core Xeon the median gh job varied 6-12 % while the scalar-quad-bound
    # ct and compare jobs varied 7-29 %.
    kinds = ("ra-bw", "gibbs", "ct", "compare", "gh", "gh", "gh", "gh", "gh")

    def __init__(self, workdir: str, manifest: dict):
        self.workdir = workdir
        self.reference: dict[tuple, list[float]] = {}

    @staticmethod
    def make_inputs(rng, workdir: str) -> dict:
        return {}

    def cycles(self, rng):
        count = 0
        while True:
            jobs = []
            for kind in rng.permutation(self.kinds):
                x0 = _log_uniform(rng, 0.25, 4.0)
                jobs.append(self._job(str(kind), x0, os.path.join(
                    self.workdir, f"job{count}.csv")))
                count += 1
            yield jobs

    def _job(self, kind: str, x0: float, out: str) -> Job:
        ep = TABLES_ETA_POINTS
        tail = ["--x0", _r(x0), "--out", out, "--no-timestamp"]
        if kind == "gibbs":
            gammas = ",".join(_r(g * x0) for g in GIBBS_GAMMAS)
            argv = ["gibbs", "--family", "bw", "--gamma-list", gammas, "--unit-height",
                    "--min", _r(-12.0 * x0), "--max", _r(12.0 * x0)] + tail
            rows, cols = len(GIBBS_GAMMAS), 3
            specs = (("bw",),)
        else:
            lo = "0.05" if kind == "ra-bw" else "1.0"
            argv = ["sweep", "--kind", kind, "--eta-min", lo, "--eta-max", "5.0",
                    "--eta-points", str(ep)]
            if kind == "ra-bw":
                cols, specs = 4, (("ra",), ("bw",))
            elif kind == "gh":
                argv += ["--m-list", GH_ORDERS]
                cols = len(GH_ORDERS.split(","))
                specs = tuple(("gh", int(m)) for m in GH_ORDERS.split(","))
            elif kind == "ct":
                argv += ["--dk-list", ",".join(_r(d / x0) for d in CT_SPREADS)]
                cols = len(CT_SPREADS)
                specs = tuple(("ct", 5.0, d) for d in CT_SPREADS)
            else:
                argv += ["--dk", _r(0.5 / x0)]
                cols, specs = 3, (("gh", 100), ("ct", 5.0, 0.5))
            argv += tail
            rows = ep
        return Job(kind, argv, out, units=rows * cols, rows=rows,
                   exact_key=(kind, x0, specs), dimless_key=(kind, specs),
                   info={"x0": x0})

    def check(self, job: Job) -> list[str]:
        columns, rows = read_table(job.out)
        problems = []
        if len(rows) != job.rows:
            problems.append(f"expected {job.rows} rows, got {len(rows)}")
        values = np.array([[float(v) for v in row] for row in rows])
        if values.size == 0 or not np.all(np.isfinite(values)):
            problems.append("table holds NaN or non-finite cells")
            return problems
        x0 = job.info["x0"]
        if job.kind == "gibbs":
            # peak amplitude of unit-height lines is dimensionless; periods scale with x_o
            dimless = np.concatenate([values[:, 1], values[:, 2] / x0, values[:, 3] / x0])
        else:
            picks = [i for i, c in enumerate(columns) if c.startswith("ratio")]
            dimless = values[:, picks].ravel()
        ref = self.reference.setdefault(job.dimless_key, dimless.tolist())
        if len(ref) != dimless.size or not all(
                _close(a, b, RATIO_TOL) for a, b in zip(ref, dimless.tolist())):
            worst = max((abs(a - b) / max(abs(a), 1e-300)
                         for a, b in zip(ref, dimless.tolist())), default=math.inf)
            problems.append(f"dimensionless columns differ from an earlier job with the "
                            f"same dimensionless parameters (worst {worst:.3e} relative)")
        return problems


# --------------------------------------------------------------------------
# apply

# One file per scale: (N, nominal dx, x0 anchor in samples).  2N+1 rows
# each.  A job's x0 is drawn within 5 % of its file's anchor, so x0 spans
# about [0.05, 20] file units on every seed.  The anchors are not drawn over
# the whole [5, 50] range because the GH kernel table's size, build time and
# peak memory grow with x0: a wide draw would make peak_rss_mb and the
# cycle's total work depend on the seed rather than on the program.
APPLY_FILES = ((50_000, 0.01, 5.5), (60_000, 0.063, 16.0), (70_000, 0.4, 45.0))
X0_JITTER = 0.05
WIDEST_X0 = 18.0             # file units, for gh m=100 on the coarsest file
DX_JITTER = 0.03
APPLY_FAMILIES = (("bw", None), ("ct", None), ("gh", 20), ("gh", 100))
APPLY_REPEATS = 2            # other slots per cycle that reuse the last cycle's x0
CT_SPREAD_APPLY = 0.5        # dk * x_o
MEAN_TOL = 1e-9
READ_BLOCK = 8192           # lines parsed at once by the output check


def _grid(x_start: float, dx: float, rows: int) -> np.ndarray:
    return x_start + dx * np.arange(rows)


def _multi_lorentzian(rng, n: int, dx: float) -> tuple[float, np.ndarray, np.ndarray]:
    m = 2 * n + 1
    x_start = -n * dx + rng.uniform(-0.5, 0.5) * dx
    x = _grid(x_start, dx, m)
    values = 0.05 * np.ones(m)
    for _ in range(int(rng.integers(6, 12))):
        center = rng.uniform(x[0], x[-1])
        gamma = dx * _log_uniform(rng, 40.0, 400.0)
        values += rng.uniform(0.2, 1.0) * gamma**2 / ((x - center) ** 2 + gamma**2)
    values += rng.normal(0.0, 0.02, m)
    return x_start, x, values


class Apply:
    name = "apply"
    unit = "rows"
    cycle_s = 12.5

    def __init__(self, workdir: str, manifest: dict):
        self.workdir = workdir
        self.files = manifest["files"]

    @staticmethod
    def make_inputs(rng, workdir: str) -> dict:
        files = []
        for i, (n, dx_nominal, anchor) in enumerate(APPLY_FILES):
            dx = dx_nominal * float(math.exp(rng.uniform(-DX_JITTER, DX_JITTER)))
            x_start, x, values = _multi_lorentzian(rng, n, dx)
            path = os.path.join(workdir, f"spectrum{i}.dat")
            with open(path, "w") as fh:
                fh.write("# noisy multi-lorentzian test spectrum\n")
                fh.write("\n".join(f"{a!r} {b!r}" for a, b in zip(x.tolist(), values.tolist())))
                fh.write("\n")
            # repr() round-trips, so these describe the file exactly and the
            # check needs no copy of the input in memory
            files.append({"path": path, "rows": 2 * n + 1, "x_start": x_start, "dx": dx,
                          "mean": float(np.mean(values)),
                          "max_abs": float(np.max(np.abs(values))),
                          "x0_samples": anchor})
        return {"files": files}

    def cycles(self, rng):
        slots = [(fam, f) for fam in APPLY_FAMILIES for f in range(len(self.files))]
        # The widest GH table (order 100 at the largest x0) sets peak memory,
        # and its size moves in whole blocks with x0.  It gets one fixed x0
        # and route for every seed and opens the first cycle, so its one build
        # always starts from the same heap; later cycles reuse the cached table.
        widest = (APPLY_FAMILIES[-1], len(self.files) - 1)
        previous: dict = {}
        count = 0
        while True:
            samples = {s: self.files[s[1]]["x0_samples"]
                       * math.exp(rng.uniform(-X0_JITTER, X0_JITTER)) for s in slots}
            if previous:
                others = [s for s in slots if s != widest]
                for i in rng.choice(len(others), APPLY_REPEATS, replace=False):
                    samples[others[i]] = previous[others[i]]
            samples[widest] = WIDEST_X0 / self.files[widest[1]]["dx"]
            previous = samples
            routes = dict(zip(slots, rng.permutation(["rs", "ds"] * (len(slots) // 2))))
            if routes[widest] != "rs":   # the route decides what is live during the build
                swap = next(s for s in slots if routes[s] == "rs")
                routes[swap], routes[widest] = routes[widest], "rs"
            order = [slots[i] for i in rng.permutation(len(slots))]
            if count == 0:
                order.remove(widest)
                order.insert(0, widest)
            jobs = []
            for slot in order:
                jobs.append(self._job(slot, samples[slot], str(routes[slot]), count))
                count += 1
            yield jobs

    def _job(self, slot, x0_samples: float, route: str, count: int) -> Job:
        (family, m), f = slot
        src = self.files[f]
        x0 = x0_samples * src["dx"]
        out = os.path.join(self.workdir, f"job{count}.filtered")
        argv = ["apply", "--in", src["path"], "--out", out, "--family", family,
                "--x0", _r(x0), "--path", route, "--no-timestamp"]
        spec: tuple = (family,)
        if m is not None:
            argv += ["--m", str(m)]
            spec = (family, m)
        if family == "ct":
            argv += ["--dk", _r(CT_SPREAD_APPLY / x0)]
            spec = (family, 5.0, CT_SPREAD_APPLY)
        return Job(f"{family}{m or ''}-{route}", argv, out, units=src["rows"],
                   rows=src["rows"], exact_key=(spec, x0), dimless_key=spec,
                   info={"file": f, "x0": x0, "x0_samples": x0_samples, "route": route})

    def check(self, job: Job) -> list[str]:
        src = self.files[job.info["file"]]
        problems = []
        try:
            x_out, v_out = _read_columns(job.out, src["rows"])
        except ValueError as exc:
            return [f"unreadable output: {exc}"]
        dx = src["dx"]
        if not np.max(np.abs(x_out - _grid(src["x_start"], dx, src["rows"]))) <= 1e-6 * dx:
            problems.append("x column does not round-trip")
        if not abs(np.mean(v_out) - src["mean"]) <= MEAN_TOL * src["max_abs"]:
            problems.append(f"filtered mean {np.mean(v_out)!r} differs from input mean "
                            f"{src['mean']!r}")
        report = {}
        with open(job.out + ".report.txt") as fh:
            for line in fh:
                if "=" in line and not line.startswith(("#", "spec:")):
                    key, val = line.split("=", 1)
                    report[key.strip()] = float(val)
        expected = {"rms_noise_gain_continuum", "rms_noise_gain_grid", "noise_cutoff_k",
                    "gibbs_peak_amplitude", "gibbs_period_x"}
        if set(report) != expected:
            problems.append(f"report keys {sorted(report)} differ from {sorted(expected)}")
        if not all(math.isfinite(v) for v in report.values()):
            problems.append(f"non-finite report value in {report}")
        return problems


def _read_columns(path: str, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The x and value columns of a two-column file that should hold `rows` rows.

    Parsed a block of lines at a time into two preallocated arrays, so the
    check holds far less memory than the job it checks (which keeps every
    value as a Python float) and stays out of peak_rss_mb.
    """
    x = np.empty(rows)
    v = np.empty(rows)
    count = 0
    with open(path) as fh:
        lines = (ln for ln in fh if not ln.startswith("#") and not ln.isspace())
        while block := list(itertools.islice(lines, READ_BLOCK)):
            if count + len(block) > rows:
                raise ValueError(f"{path}: more than {rows} rows")
            values = np.array(" ".join(block).split(), dtype=float)
            if values.size != 2 * len(block):
                raise ValueError(f"{path}: a line near row {count} is not two columns")
            x[count:count + len(block)] = values[0::2]
            v[count:count + len(block)] = values[1::2]
            count += len(block)
    if count != rows:
        raise ValueError(f"{path}: expected {rows} rows, got {count}")
    return x, v


# --------------------------------------------------------------------------
# noise_mc

NOISE_TRIALS = 1000
NOISE_GRIDS = (128, 512, 2048)
NOISE_SPECS = (("ra",), ("bw",), ("gh", 100), ("ct", 5.0, 0.5))   # defaults at x_o = 1
MC_SIGMAS = 5.0
PARSEVAL_TOL = 1e-9


class NoiseMc:
    name = "noise_mc"
    unit = "trial-points"
    cycle_s = 3.7

    def __init__(self, workdir: str, manifest: dict):
        self.workdir = workdir

    @staticmethod
    def make_inputs(rng, workdir: str) -> dict:
        return {}

    def cycles(self, rng):
        count = 0
        while True:
            jobs = []
            for g in rng.permutation(NOISE_GRIDS):
                out = os.path.join(self.workdir, f"job{count}.csv")
                seed = int(rng.integers(2**31))
                argv = ["noise", "--trials", str(NOISE_TRIALS), "--grid-n", str(int(g)),
                        "--seed", str(seed), "--out", out, "--no-timestamp"]
                points = 2 * int(g) + 1
                jobs.append(Job(f"grid{int(g)}", argv, out, units=NOISE_TRIALS * points,
                                rows=points, exact_key=(1.0, NOISE_SPECS),
                                dimless_key=NOISE_SPECS, info={"grid_n": int(g)}))
                count += 1
            yield jobs

    def check(self, job: Job) -> list[str]:
        columns, rows = read_table(job.out)
        problems = []
        if len(rows) != len(NOISE_SPECS):
            problems.append(f"expected {len(NOISE_SPECS)} filters, got {len(rows)}")
        col = {c: i for i, c in enumerate(columns)}
        for row in rows:
            v = {c: float(row[i]) for c, i in col.items() if c != "filter"}
            if not all(math.isfinite(x) for x in v.values()):
                problems.append(f"{row[0]}: non-finite value")
                continue
            if abs(v["mc_gain"] - v["mc_predicted"]) > MC_SIGMAS * v["mc_std_error"]:
                problems.append(f"{row[0]}: mc_gain {v['mc_gain']!r} is more than "
                                f"{MC_SIGMAS} standard errors from {v['mc_predicted']!r}")
            if not _close(v["ds_value"], v["rs_value"], PARSEVAL_TOL):
                problems.append(f"{row[0]}: ds_value and rs_value disagree")
        return problems


WORKLOADS = {w.name: w for w in (Tables, Apply, NoiseMc)}
