"""Write the outputs of a fixed set of specfilt commands into a directory.

    PYTHONPATH=src python3 tests/golden_outputs.py OUTDIR

Every command runs with --no-timestamp, in-process through specfilt.cli.main
(or a scripts/ driver's run), with OUTDIR as the working directory, so the
recorded command lines hold relative paths only.  Command NAME leaves
NAME.stdout, NAME.stderr and NAME.exit in OUTDIR, next to the files it
writes.  Run it once against each of two source trees (PYTHONPATH picks the
tree) and compare the directories with ``diff -r``: an empty diff means the
two trees give byte-identical output on the whole set.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import pathlib
import sys

import numpy as np

X0S = ("0.7", "1", "18.791550682890122")
FAMILIES = ("ra", "bw", "gh", "ct", "tukey", "hann", "welch_approx")
SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _family_args(family: str, x0: str) -> list[str]:
    if family == "gh":
        return ["--m", "20"]
    if family == "tukey":
        return ["--dk", repr(0.12 / float(x0))]
    return []


def _cli_commands() -> list[tuple[str, list[str]]]:
    cmds = []
    for x0 in X0S:
        for family in FAMILIES:
            spec = ["--family", family, "--x0", x0, *_family_args(family, x0)]
            for sub in ("calibrate", "kernel", "transfer", "gibbs"):
                cmds.append((f"{sub}_{family}_x{x0}", [sub, *spec]))
    sweep = ["sweep", "--eta-min", "1", "--eta-max", "5", "--eta-points", "20"]
    cmds += [
        ("sweep_ra-bw", ["sweep", "--kind", "ra-bw", "--eta-min", "0.05", "--eta-max", "5",
                         "--eta-points", "40"]),
        ("sweep_gh", [*sweep, "--kind", "gh", "--m-list", "1,5,20,100"]),
        ("sweep_ct", [*sweep, "--kind", "ct", "--x0", "1.3", "--a", "2"]),
        ("sweep_compare", [*sweep, "--kind", "compare", "--m", "50", "--format", "tsv",
                           "--out", "sweep_compare.tsv"]),
        # rejections: an unknown kind from the config file, a flag the kind
        # does not read, and noise's messages in their order
        ("sweep_bogus_kind", ["sweep", "--config", "bogus_kind.cfg"]),
        ("sweep_ct_dk", ["sweep", "--kind", "ct", "--dk", "0.3"]),
        ("noise_bad_ranges", ["noise", "--m", "0", "--a", "0.2", "--trials", "5"]),
        ("noise", ["noise"]),
        ("noise_x18", ["noise", "--x0", "18.791550682890122", "--m", "20"]),
        ("noise_mc", ["noise", "--trials", "300", "--grid-n", "64", "--seed", "3"]),
        # 4097 points: blocks of fewer than 128 trials
        ("noise_mc_2048", ["noise", "--trials", "200", "--grid-n", "2048", "--seed", "5"]),
    ]
    cmds += [
        ("roundtrip_calibrate", ["calibrate", "--family", "gh", "--m", "20", "--x0", "0.5",
                                 "--out", "roundtrip_spec.txt"]),
        ("roundtrip_kernel", ["kernel", "--spec", "roundtrip_spec.txt", "--points", "21"]),
        ("calibrate_ct_k1", ["calibrate", "--family", "ct", "--k1", "1.2", "--a", "5",
                             "--dk", "0.5"]),
        # a spec file's x_o is held to --x0's range
        ("calibrate_spec_x_o_inf", ["calibrate", "--spec", "x_o_inf_spec.txt"]),
        ("kernel_spec_x_o_inf", ["kernel", "--spec", "x_o_inf_spec.txt", "--points", "3"]),
    ]
    for family in ("bw", "gh", "ct"):
        for route in ("rs", "ds"):
            name = f"apply_{family}_{route}"
            cmds.append((name, ["apply", "--in", "line.dat", "--out", f"{name}.dat",
                                "--family", family, "--x0", "0.5", "--path", route,
                                *_family_args(family, "0.5")]))
    return [(name, argv + ["--no-timestamp"]) for name, argv in cmds]


def _write_spectrum_file(path: str) -> None:
    """A seeded noisy three-line spectrum of 4001 rows, written without specfilt."""
    rng = np.random.default_rng(20201)
    x = -20.0 + 0.01 * np.arange(4001)
    y = sum(h * g**2 / ((x - c) ** 2 + g**2)
            for h, c, g in ((1.0, -3.0, 0.4), (0.6, 2.5, 1.2), (0.3, 9.0, 0.15)))
    y = y + rng.normal(0.0, 0.02, x.size)
    with open(path, "w") as fh:
        fh.write("# seeded test spectrum\n")
        fh.writelines(f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), y.tolist()))


def _run_script(stem: str):
    spec = importlib.util.spec_from_file_location(stem, SCRIPTS / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return lambda: module.run(["--out-dir", f"{stem}_out"])


def _record(name: str, call) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
    for suffix, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                         ("exit", f"{code}\n")):
        pathlib.Path(f"{name}.{suffix}").write_text(text)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = pathlib.Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)

    from specfilt.cli import main as cli

    print(f"specfilt from {pathlib.Path(sys.modules['specfilt'].__file__).parent}",
          file=sys.stderr)
    _write_spectrum_file("line.dat")
    pathlib.Path("bogus_kind.cfg").write_text("kind = bogus\n")
    pathlib.Path("x_o_inf_spec.txt").write_text("family=bw\nx_o=inf\nk_o=1.0\n")
    for name, args in _cli_commands():
        _record(name, lambda args=args: cli(args))
    for stem in ("run_mse_sweeps", "run_noise_table", "run_gibbs_report"):
        _record(stem, _run_script(stem))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
