"""Cutoff-oscillation study: residual summaries, curves, and the decay fit.

Produces the per-width ringing table and a curve file for plotting, then fits
log peak amplitude against k_c * gamma to confirm the exponential decay rate,
on the spec recorded in the table's header.  Unit-height normalization keeps
the fit a pure decay measurement.
"""

import argparse
import pathlib
import sys

import numpy as np

from specfilt.cli import main as cli
from specfilt.filters import half_transfer_point, parse_spec
from specfilt.lineshapes import LorentzianLine
from specfilt.metrics import gibbs_residual


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--family", default="bw")
    parser.add_argument("--m", help="gauss-hermite order, passed to specfilt gibbs")
    parser.add_argument("--a", help="cosine-terminated steepness, passed to specfilt gibbs")
    parser.add_argument("--dk", help="cosine-terminated spread, passed to specfilt gibbs")
    parser.add_argument("--gammas", default="0.5,1,2")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gammas = [float(g) for g in args.gammas.split(",")]
    filter_args = ["--family", args.family]
    for name in ("m", "a", "dk"):
        if getattr(args, name) is not None:
            filter_args += [f"--{name}", getattr(args, name)]

    summary = out / "gibbs_summary.csv"
    rc = cli(["gibbs", *filter_args, "--gamma-list", args.gammas,
              "--unit-height", "--out", str(summary), "--no-timestamp"])
    if rc != 0:
        return rc
    curves = out / "gibbs_curves.csv"
    rc = cli(["gibbs", *filter_args, "--gamma-list", args.gammas,
              "--unit-height", "--curve", "--out", str(curves), "--no-timestamp"])
    if rc != 0:
        return rc
    print(f"wrote {summary}\nwrote {curves}")

    # the spec the command calibrated, from its '# spec: key=value; ...' header line
    header = next(line for line in summary.read_text().splitlines()
                  if line.startswith("# spec: "))
    spec = parse_spec(header[len("# spec: "):].replace("; ", "\n"))
    k_c = half_transfer_point(spec)
    x = np.linspace(-30.0, 30.0, 4001)
    peaks = [gibbs_residual(LorentzianLine(g, area=np.pi * g), spec, x).peak_amplitude
             for g in gammas]
    slope = np.polyfit(k_c * np.asarray(gammas), np.log(peaks), 1)[0]
    print(f"log-amplitude decay slope vs k_c*gamma: {slope:.4f} (expected -1)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
