"""The workload process: imports specfilt, then runs one workload's jobs.

Started by run.py, never imported by it.  ``--probe`` stops as soon as the
first job could start, which is how run.py measures set-up time.  Results go
to the JSON file named by ``--result``; stdout carries only the probe's
ready time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import specfilt.cli  # noqa: E402  (the set-up being measured)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_jobs(workload, seed: int, seconds: float, tracer) -> list[dict]:
    """Run the whole cycles that fill `seconds` at the workload's nominal pace.

    The number of cycles depends on `seconds` alone, never on how fast the
    jobs run, so a faster program does the same work (the same cache hits,
    the same repeats) in less time.
    """
    cli_main = specfilt.cli.main
    rng = np.random.default_rng([2, seed])
    n_cycles = max(1, round(seconds / workload.cycle_s))
    records: list[dict] = []
    for cycle in itertools.islice(workload.cycles(rng), n_cycles):
        for job in cycle:
            if tracer is not None:
                tracer.job = len(records)
            problems: list[str] = []
            t0 = time.perf_counter()
            try:
                rc = cli_main(job.argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                rc = None
                problems.append(traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - t0
            peak_before_check = peak_rss_mb()
            if rc == 0:
                try:
                    problems += workload.check(job)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"output check could not run: {exc!r}")
            elif rc is not None:
                problems.append(f"exit code {rc}")
            out_bytes = 0
            for path in (job.out, job.out + ".report.txt"):
                if os.path.exists(path):
                    out_bytes += os.path.getsize(path)
                    os.remove(path)
            records.append({"kind": job.kind, "argv": job.argv, "seconds": elapsed,
                            "units": job.units, "rows": job.rows, "bytes_out": out_bytes,
                            "exact_key": repr(job.exact_key),
                            "dimless_key": repr(job.dimless_key),
                            "peak_before_check_mb": peak_before_check,
                            "peak_after_check_mb": peak_rss_mb(),
                            "problems": problems})
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    loaded_from = Path(specfilt.cli.__file__).resolve()
    if ROOT / "src" not in loaded_from.parents:
        print(f"specfilt was imported from {loaded_from}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"ready": READY}))
        return 0

    with open(os.path.join(args.workdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    workload = workloads.WORKLOADS[args.workload](args.workdir, manifest)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, specfilt)
    records = run_jobs(workload, args.seed, args.seconds, tracer)
    result = {"ready": READY, "jobs": records,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        spans_path = os.path.splitext(args.result)[0] + ".spans.jsonl"
        tracer.write_spans(spans_path)
        result["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                           "extra": tracer.extra, "spans_kept": len(tracer.spans),
                           "spans_dropped": tracer.dropped, "spans_file": spans_path}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
