"""specfilt benchmark launcher.

    python3 perfbench/run.py --workload tables|apply|noise_mc --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/specfilt``.  The launcher
writes the workload's input files from the seed, caps the BLAS/OpenMP thread
pools at the CPU count, and starts the workload process (worker.py), which
imports specfilt and runs ``specfilt.cli.main`` jobs in a closed loop with
one client for about S seconds, checking every job's output.

--trace 0 prints the end-to-end metrics; set-up time is the median over
several launches of the workload process, which all import from a bytecode
cache under perfbench/out/ that an uncounted first launch fills.  --trace 1
runs the same jobs twice, untraced and then with spans around every public
specfilt function, and prints the per-layer metrics and the tracing overhead.
The last stdout line is the JSON result; the full record (environment, input
properties, per-job times, span aggregates) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 10         # extra launches that only import, for the set-up median
DEADLINE_S = 170.0        # the whole run must end before this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Per-layer metrics: (name, source).  Counts and times are per job, averaged
# over the traced run, so they compare across runs of different length.
LAYER_SPANS = [
    ("filters.calibrate", ("calls", "self_s")),
    ("filters.calibrate_gh", ("calls", "self_s")),
    ("filters.gh_kernel_quadrature", ("calls", "self_s")),
    ("filters.gh_kernel_table", ("calls", "self_s")),
    ("filters.transfer", ("calls", "points", "self_s")),
    ("metrics.mse_numeric", ("calls", "self_s")),
    ("lineshapes.lorentzian_rs", ("calls", "self_s")),
    ("filters.kernel", ("calls", "points", "self_s")),
    ("engine.sampled_kernel", ("calls", "self_s")),
    ("engine.read_spectrum", ("self_s", "bytes")),
    ("engine.write_spectrum", ("self_s", "bytes")),
    ("engine.apply_filter_rs", ("calls", "self_s")),
    ("engine.apply_filter_ds", ("calls", "self_s")),
    ("engine.reconstruct_with_report", ("self_s",)),
    ("metrics.noise_cutoff", ("self_s",)),
    ("lineshapes.NoiseModel.sequence", ("calls", "self_s")),
    ("engine.noise_transmission_empirical", ("self_s",)),
    ("metrics.noise_gain", ("calls", "self_s")),
    ("metrics.gibbs_residual", ("calls", "self_s")),
    ("cli", ("self_s",)),
    ("cli.TableWriter.write", ("self_s",)),
]


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(nproc: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": nproc, "cpu": cpu,
            "platform": platform.platform(),
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


def launch(extra: list[str], deadline: float, stdout=None) -> tuple[float, str]:
    """Run worker.py to completion; returns (launch time, captured stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + extra
    remaining = deadline - now()
    if remaining <= 0:
        raise TimeoutError("no time left for the workload process")
    t_launch = now()
    proc = subprocess.run(cmd, stdout=stdout or sys.stderr, timeout=remaining,
                          cwd=ROOT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return t_launch, proc.stdout or ""


def probe_setups(count: int, deadline: float) -> list[float]:
    """Set-up times of `count` launches that stop once specfilt is imported."""
    setups = []
    for _ in range(count):
        t_launch, text = launch(["--probe"], deadline, stdout=subprocess.PIPE)
        setups.append(json.loads(text.strip().splitlines()[-1])["ready"] - t_launch)
    return setups


def run_worker(args, workdir: Path, trace: int, deadline: float) -> tuple[float, dict]:
    result_path = OUT / f"{args.workload}-{args.seed}-trace{args.trace}-w{trace}.json"
    t_launch, _ = launch(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(trace),
                          "--workdir", str(workdir), "--result", str(result_path)],
                         deadline)
    with open(result_path) as fh:
        result = json.load(fh)
    result_path.unlink()
    return t_launch, result


def job_summary(result: dict) -> dict:
    jobs = result["jobs"]
    busy = sum(j["seconds"] for j in jobs)
    failed = sum(1 for j in jobs if j["problems"])
    done = sum(j["units"] for j in jobs if not j["problems"])
    return {"jobs": len(jobs), "failed": failed, "busy_s": busy,
            "job_s_p50": statistics.median(j["seconds"] for j in jobs),
            "work_per_s": done / busy}


def peak_phase(result: dict) -> str:
    """Whether the process's peak RSS was first reached in a job or in a check."""
    peak = result["peak_rss_mb"]
    for j in result["jobs"]:
        if j["peak_before_check_mb"] >= peak:
            return "job"
        if j["peak_after_check_mb"] >= peak:
            return "check"
    return "job"


def input_properties(jobs: list[dict]) -> dict:
    """Sizes and the shares of jobs whose spec repeats an earlier job's."""
    def repeat_share(key: str) -> float:
        seen: set = set()
        repeats = 0
        for j in jobs:
            repeats += j[key] in seen
            seen.add(j[key])
        return repeats / len(jobs)

    return {"jobs": len(jobs),
            "rows_per_job": statistics.fmean(j["rows"] for j in jobs),
            "rows_min": min(j["rows"] for j in jobs),
            "rows_max": max(j["rows"] for j in jobs),
            "units_per_job": statistics.fmean(j["units"] for j in jobs),
            "exact_repeat_frac": repeat_share("exact_key"),
            "dimless_repeat_frac": repeat_share("dimless_key"),
            "kinds": sorted({j["kind"] for j in jobs})}


def layer_metrics(traced: dict, base_rate: float) -> dict:
    jobs = traced["jobs"]
    n = len(jobs)
    agg = traced["trace"]
    out = {}
    for name, fields in LAYER_SPANS:
        for f in fields:
            if f == "calls":
                value, unit = agg["calls"].get(name, 0) / n, "count"
            elif f == "self_s":
                value, unit = agg["self_s"].get(name, 0.0) / n, "s"
            else:
                value = agg["extra"].get(f"{name}.{f}", 0) / n
                unit = "B" if f == "bytes" else "count"
            out[f"{name}.{f}"] = {"value": value, "unit": unit}
    out["cli.bytes_out"] = {"value": sum(j["bytes_out"] for j in jobs) / n, "unit": "B"}
    passes = agg["calls"].get("engine.apply_filter_rs", 0) + \
        agg["calls"].get("engine.apply_filter_ds", 0)
    filtered = sum(1 for j in jobs if j["argv"][0] == "apply")
    out["engine.apply_filter.useful_ratio"] = {
        "value": filtered / passes if passes else 0.0, "unit": "ratio"}
    out["trace.overhead_ratio"] = {
        "value": job_summary(traced)["work_per_s"] / base_rate, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = now() + DEADLINE_S
    if not (ROOT / "src" / "specfilt" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'specfilt'} not found; run from a specfilt "
              "checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    # a private bytecode cache, so set-up time never depends on whatever
    # __pycache__ directories other runs of Python left in the checkout; it
    # must be writable, or every launch would compile numpy and scipy again
    os.environ["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(nproc)}
    try:
        manifest = wl.make_inputs(np.random.default_rng([1, args.seed]), str(workdir))
        with open(workdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh)
        if args.trace == 0:
            probe_setups(1, deadline)   # fills the bytecode cache; not counted
            # half the probes before the jobs and half after, so the median
            # spans the run rather than one moment of the machine's load
            setups = probe_setups(SETUP_PROBES // 2, deadline)
            t_launch, result = run_worker(args, workdir, 0, deadline)
            setups.append(result["ready"] - t_launch)
            setups += probe_setups(SETUP_PROBES - SETUP_PROBES // 2, deadline)
            summary = job_summary(result)
            jobs = result["jobs"]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "job_s_p50": {"value": summary["job_s_p50"], "unit": "s"},
                "work_per_s": {"value": summary["work_per_s"], "unit": "units/s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
                "ok_frac": {"value": 1.0 - summary["failed"] / summary["jobs"],
                            "unit": "fraction"},
            }
            record.update(setup_samples_s=setups, summary=summary)
        else:
            _, base = run_worker(args, workdir, 0, deadline)
            _, result = run_worker(args, workdir, 1, deadline)
            summary = job_summary(result)
            jobs = base["jobs"] + result["jobs"]
            metrics = layer_metrics(result, job_summary(base)["work_per_s"])
            record.update(summary=summary, untraced_summary=job_summary(base),
                          trace=result["trace"])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, OSError,
            KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for j in jobs if j["problems"])
    peak_set_by = peak_phase(result)
    record.update(peak_rss_set_by=peak_set_by,
                  inputs=input_properties(result["jobs"]), metrics=metrics,
                  failures=[{"argv": j["argv"], "problems": j["problems"]}
                            for j in jobs if j["problems"]],
                  jobs=result["jobs"])
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(record['environment'])}")
    print(f"inputs: {json.dumps(record['inputs'])}")
    for f in record["failures"]:
        print(f"FAILED: {' '.join(f['argv'])}: {'; '.join(f['problems'])}")
    print(f"{args.workload}: {len(jobs)} jobs, {failed} failed, work unit = {wl.unit}, "
          f"peak RSS set during a {peak_set_by}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  failed_frac = {failed / len(jobs)!r} fraction")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
