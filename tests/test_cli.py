"""Command-line interface: output shape, config precedence, exit codes."""

import importlib.util
import os
import pathlib
import shlex
import subprocess
import sys
import threading
import time

import mpmath
import numpy as np
import pytest

import specfilt
from specfilt import cli, metrics
from specfilt.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from specfilt.engine import write_spectrum
from specfilt.filters import BrickWall, CosineTerminated, calibrate, parse_spec
from specfilt.lineshapes import LorentzianLine


def _rows(text, sep=","):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(sep)
    body = [ln.split(sep) for ln in lines[1:]]
    return header, body


def test_import_and_jobs_load_no_scipy(tmp_path):
    """Neither starting the command nor its jobs load a scipy module: the GH
    transfer and its inverse are private ports, and the calibration root
    polish a private port of brentq.  The jobs catch an import made lazily.
    Starting it loads no concurrent.futures either: the Monte Carlo threads
    are plain threading threads.  Nor does either load numpy.ma, which
    np.unique and np.median import on their first call."""
    src = pathlib.Path(specfilt.__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import specfilt.cli",
        "from specfilt.engine import write_spectrum",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
        "print(scipy_modules())",
        "assert not any(m.startswith('concurrent') for m in sys.modules)",
        "x = -10.0 + 0.05 * np.arange(401)",
        "y = 1.0 / (1.0 + x**2) + np.random.default_rng(7).normal(0.0, 0.01, x.size)",
        "write_spectrum('line.dat', x, y)",
        "for argv in (['noise', '--trials', '200', '--grid-n', '32'],",
        "             ['apply', '--in', 'line.dat', '--family', 'gh', '--m', '20',",
        "              '--out', 'gh.dat'],",
        "             ['apply', '--in', 'line.dat', '--family', 'ct', '--out', 'ct.dat'],",
        "             ['sweep', '--kind', 'gh', '--eta', '2'],",
        "             ['sweep', '--kind', 'compare', '--eta', '2', '--out', 'compare.csv'],",
        "             ['sweep', '--kind', 'ra-bw', '--eta', '2', '--out', 'ra-bw.csv'],",
        "             ['gibbs', '--family', 'gh', '--m', '20', '--out', 'gibbs.csv']):",
        "    assert specfilt.cli.main(argv + ['--no-timestamp']) == 0, argv",
        "print(scipy_modules())",
        "print('numpy.ma' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    lines = out.strip().splitlines()
    assert lines[0] == "[]" and lines[-2:] == ["[]", "False"]
    assert (tmp_path / "gh.dat.report.txt").exists() and (tmp_path / "ct.dat.report.txt").exists()


class TestParserBuiltOnce:
    def test_two_calls_build_it_once(self, capsys):
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert main(["calibrate", "--family", "bw", "--no-timestamp"]) == EXIT_OK
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_after_a_call_it_answers_as_a_fresh_parser(self, capsys):
        """Rejections, help and --version of the cached parser are a fresh one's."""
        assert main(["calibrate", "--family", "bw", "--no-timestamp"]) == EXIT_OK
        capsys.readouterr()
        fresh, _ = cli._build_parser.__wrapped__()
        for argv, code in ((["calibrate", "--bogus", "1"], 2), (["sweep", "--kind", "nope"], 2),
                           ([], 2), (["sweep", "--help"], 0)):
            with pytest.raises(SystemExit) as cached:
                main(argv)
            got = capsys.readouterr()
            with pytest.raises(SystemExit) as built:
                fresh.parse_args(argv)
            assert cached.value.code == built.value.code == code
            assert got == capsys.readouterr()
            assert (got.err if code else got.out).startswith("usage: specfilt")
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"specfilt {specfilt.__version__}\n"

    def test_import_builds_no_parser(self, tmp_path):
        """Importing the command builds no parser: the first main call does."""
        src = pathlib.Path(specfilt.__file__).resolve().parents[1]
        code = "\n".join([
            "import argparse, os",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting(self, *args, **kwargs):",
            "    built.append(1)",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting",
            "import specfilt.cli",
            "at_import = len(built)",
            "specfilt.cli.main(['calibrate', '--family', 'bw', '--out', os.devnull])",
            "print(at_import, len(built) > 0, specfilt.cli._build_parser.cache_info().currsize)",
        ])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out == "0 True 1\n"


@pytest.mark.parametrize("value", [1e-5, 1e16, -0.0, 5e-324, np.inf, np.nan])
def test_numpy_float_cell_is_written_as_its_python_float(value):
    assert cli._fmt(np.float64(value)) == cli._fmt(value) == repr(value)


class TestCalibrateCommand:
    def test_output_parses_back(self, capsys):
        assert main(["calibrate", "--family", "bw", "--no-timestamp"]) == EXIT_OK
        out = capsys.readouterr().out
        assert parse_spec(out) == BrickWall(1.895494267033981)
        assert "# residual=" in out

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "spec.txt"
        assert main(["calibrate", "--family", "ct", "--out", str(dest),
                     "--no-timestamp"]) == EXIT_OK
        spec = parse_spec(dest.read_text())
        assert spec.k_1 == pytest.approx(1.6791246414768026, rel=1e-12)

    def test_ct_default_dk_is_scaled(self, capsys):
        """Without --dk, ct calibrates at dk = 0.5/x0: one shape at every x0."""
        for x0 in (1.0, 4.0, 1e3):
            assert main(["calibrate", "--family", "ct", "--x0", repr(x0),
                         "--no-timestamp"]) == EXIT_OK
            spec = parse_spec(capsys.readouterr().out)
            assert spec.dk == 0.5 / x0
            assert spec.k_1 * x0 == pytest.approx(1.6791246414768026, rel=1e-15)

    # the spec block and the header lines above it, frozen from the output of
    # the former second calibration path (special_case plus a residual the
    # command computed itself)
    @pytest.mark.parametrize("argv, expected", [
        (["--family", "tukey", "--dk", "0.12"],
         "# x_o=1.0\n# residual=0.0\n# half_transfer_point=1.8915909502919266\n"
         "family=ct\nx_o=1.0\nk_1=1.703095391076539\na=0.5\ndk=0.12\n"
         "k_2=2.080086509507314\n"),
        (["--family", "hann"],
         "# x_o=1.0\n# residual=1.1102230246251565e-16\n"
         "# half_transfer_point=1.5707963267948963\nfamily=ct\nx_o=1.0\nk_1=0.0\n"
         "a=0.5\ndk=0.9999999999999999\nk_2=3.1415926535897927\n"),
        (["--family", "hann", "--x0", "2.5"],
         "# x_o=2.5\n# residual=0.0\n# half_transfer_point=0.6283185307179586\n"
         "family=ct\nx_o=2.5\nk_1=0.0\na=0.5\ndk=0.39999999999999997\n"
         "k_2=1.2566370614359172\n"),
        (["--family", "welch_approx"],
         "# x_o=1.0\n# residual=1.1102230246251565e-16\n"
         "# half_transfer_point=1.716784034891002\nfamily=ct\nx_o=1.0\nk_1=0.0\n"
         "a=1.0\ndk=1.6394079922449114\nk_2=2.575176052336503\n"),
    ], ids=["tukey", "hann", "hann_x2.5", "welch_approx"])
    def test_named_variants(self, argv, expected, capsys):
        assert main(["calibrate", *argv, "--no-timestamp"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out[out.index("# x_o="):] == expected

    @pytest.mark.parametrize("argv, flag", [
        (["--family", "hann", "--dk", "5"], "dk"),
        (["--family", "hann", "--a", "2"], "a"),
        (["--family", "welch_approx", "--x0", "2", "--dk", "5"], "dk"),
        (["--family", "welch_approx", "--a", "1"], "a"),
        (["--family", "tukey", "--dk", "0.12", "--a", "0.5"], "a"),
    ])
    def test_variant_rejects_what_it_sets(self, argv, flag, capsys):
        """A variant's fixed a, or its calibrated dk, is an error, never ignored."""
        assert main(["calibrate", *argv, "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"sets {flag} itself, got {flag}=" in captured.err

    def test_spec_file_input(self, tmp_path, capsys):
        dest = tmp_path / "spec.txt"
        main(["calibrate", "--family", "gh", "--m", "10", "--out", str(dest),
              "--no-timestamp"])
        assert main(["transfer", "--spec", str(dest), "--points", "5",
                     "--no-timestamp"]) == EXIT_OK
        header, body = _rows(capsys.readouterr().out)
        assert header == ["k", "transfer"]
        assert float(body[0][1]) == pytest.approx(1.0)

    def test_spec_file_keeps_its_x_o(self, tmp_path, capsys):
        dest = tmp_path / "spec.txt"
        assert main(["calibrate", "--family", "gh", "--m", "10", "--x0", "0.5",
                     "--out", str(dest), "--no-timestamp"]) == EXIT_OK
        spec_line = "# spec: " + "; ".join(dest.read_text().splitlines()[-4:])
        assert spec_line.startswith("# spec: family=gh; x_o=0.5; m=10; k_s=")
        assert main(["kernel", "--spec", str(dest), "--points", "3",
                     "--no-timestamp"]) == EXIT_OK
        assert spec_line in capsys.readouterr().out.splitlines()
        assert main(["calibrate", "--spec", str(dest), "--no-timestamp"]) == EXIT_OK
        assert "# x_o=0.5\n" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--family", "bw"), ("--m", "3"), ("--a", "2"), ("--dk", "0.3"), ("--k1", "1"),
        ("--x0", "0.5")])
    def test_spec_file_rejects_filter_flags(self, flag, value, tmp_path, capsys):
        """The file fixes the filter and its x_o; a flag that would choose them is an error."""
        dest = tmp_path / "spec.txt"
        main(["calibrate", "--family", "bw", "--out", str(dest), "--no-timestamp"])
        assert main(["calibrate", "--spec", str(dest), flag, value,
                     "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} is not read with --spec" in captured.err

    @pytest.mark.parametrize("argv, name", [
        (["--family", "bw", "--m", "7", "--dk", "0.3"], "m"),
        (["--family", "ct", "--m", "3"], "m"),
        (["--family", "ra", "--a", "2"], "a"),
        (["--family", "gh", "--m", "20", "--dk", "0.3"], "dk"),
        (["--family", "hann", "--m", "3"], "m"),
        (["--family", "ct", "--k1", "1.2", "--m", "3"], "m"),
    ])
    def test_unread_parameter_is_rejected(self, argv, name, capsys):
        """A valid value of a parameter the family does not read is an error, never dropped."""
        assert main(["calibrate", *argv, "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not take {name}, got {name}=" in captured.err

    @pytest.mark.parametrize("block, message", [
        ("family=bw\nk_o=inf\n", "brick wall requires finite k_o > 0, got inf"),
        ("family=ct\nk_1=inf\na=5.0\ndk=0.5\n", "cosine-terminated requires finite k_1 >= 0"),
        ("family=gh\nm=5\nk_s=nan\n", "gauss-hermite requires finite k_s > 0, got nan"),
    ])
    def test_spec_file_with_a_value_that_is_not_finite(self, block, message, tmp_path, capsys):
        dest = tmp_path / "spec.txt"
        dest.write_text(block)
        assert main(["kernel", "--spec", str(dest), "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("sub", ["calibrate", "kernel"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_spec_file_x_o_must_be_positive_and_finite(self, sub, value, tmp_path, capsys):
        """A file's x_o passes the range --x0 passes."""
        dest = tmp_path / "spec.txt"
        dest.write_text(f"family=bw\nx_o={value}\nk_o=1.0\n")
        assert main([sub, "--spec", str(dest), "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"bad spec file {dest}: x_o must be positive and finite, got {value}\n"
                in captured.err)

    def test_k1_needs_ct(self, capsys):
        assert main(["calibrate", "--family", "bw", "--k1", "3",
                     "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k1" in captured.err

    def test_k1_sets_the_onset(self, capsys):
        """An explicit onset skips calibration, so no residual is reported."""
        assert main(["calibrate", "--family", "ct", "--k1", "1.2", "--a", "5", "--dk", "0.5",
                     "--no-timestamp"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "k_1=1.2\n" in out
        assert "# residual=" not in out
        assert parse_spec(out) == CosineTerminated(1.2, 5.0, 0.5)


# (subcommand, flag, value): flags a subcommand does not read, which argparse rejects
_UNREAD_FLAGS = [
    *((sub, "--eta", "1") for sub in ("calibrate", "kernel", "transfer", "noise", "apply",
                                     "gibbs")),
    *((sub, "--seed", "1") for sub in ("calibrate", "kernel", "transfer", "sweep", "apply",
                                      "gibbs")),
    ("calibrate", "--format", "tsv"), ("apply", "--format", "tsv"),
    *((sub, flag, value) for sub in ("sweep", "noise")
      for flag, value in (("--family", "bw"), ("--k1", "1"), ("--spec", "s.txt"))),
]


@pytest.mark.parametrize("sub, flag, value", _UNREAD_FLAGS,
                         ids=[f"{sub}{flag}" for sub, flag, _ in _UNREAD_FLAGS])
def test_unread_flag_is_rejected(sub, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, flag, value, "--no-timestamp"])
    assert exc.value.code == EXIT_VALIDATION
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_command_header_round_trips(tmp_path, capsys):
    """The recorded command splits back into the argv it ran, spaces and all."""
    (tmp_path / "sp ace").mkdir()
    dest = tmp_path / "sp ace" / "o.txt"
    argv = ["calibrate", "--family", "ra", "--out", str(dest), "--no-timestamp"]
    assert main(argv) == EXIT_OK
    line = next(ln for ln in dest.read_text().splitlines() if ln.startswith("# command: "))
    assert shlex.split(line[len("# command: "):]) == ["specfilt", *argv]


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        args = ["sweep", "--kind", "ra-bw", "--eta", "0.5", "--no-timestamp"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_timestamp_toggle(self, capsys):
        main(["calibrate", "--family", "ra"])
        stamped = capsys.readouterr().out
        main(["calibrate", "--family", "ra", "--no-timestamp"])
        plain = capsys.readouterr().out
        assert "# generated:" in stamped
        assert "# generated:" not in plain

    def test_tsv_format(self, capsys):
        main(["kernel", "--family", "bw", "--points", "3", "--format", "tsv",
              "--no-timestamp"])
        header, body = _rows(capsys.readouterr().out, sep="\t")
        assert header == ["x", "kernel"]
        assert len(body) == 3


class TestSweepCommand:
    def test_ra_bw_frozen_point(self, capsys):
        main(["sweep", "--kind", "ra-bw", "--eta", "0.5", "--no-timestamp"])
        header, body = _rows(capsys.readouterr().out)
        row = dict(zip(header, body[0]))
        assert float(row["ratio_closed"]) == pytest.approx(0.8918350346206325,
                                                           rel=1e-12)
        assert float(row["ratio_published"]) == pytest.approx(0.8913943388829295,
                                                              rel=1e-12)

    def test_gh_frozen_point(self, capsys):
        main(["sweep", "--kind", "gh", "--m-list", "5,50", "--eta", "2.0",
              "--no-timestamp"])
        _, body = _rows(capsys.readouterr().out)
        assert float(body[0][2]) == pytest.approx(0.8501938515360006, rel=1e-6)

    @pytest.mark.parametrize("kind, argv, columns, spec_keys", [
        ("ra-bw", [], ["mse_ra", "mse_bw", "ratio_closed", "ratio_published"],
         ["spec_ra", "spec_bw"]),
        ("gh", ["--m-list", "5,50"], ["ratio_m5", "ratio_m50"], ["spec_gh_m5", "spec_gh_m50"]),
        # a repeated entry is a repeated column, with its cells
        ("gh", ["--m-list", "5,5"], ["ratio_m5", "ratio_m5"], ["spec_gh_m5", "spec_gh_m5"]),
        ("ct", ["--dk-list", "0.2,0.5"], ["ratio_dk0.2", "ratio_dk0.5"],
         ["spec_ct_dk0.2", "spec_ct_dk0.5"]),
        ("compare", ["--m", "20"], ["ratio_ra", "ratio_gh_m20", "ratio_ct"],
         ["spec_gh", "spec_ct"]),
    ])
    def test_output_shape(self, kind, argv, columns, spec_keys, capsys):
        """Each kind's column row and its spec_ header lines, in order."""
        assert main(["sweep", "--kind", kind, "--eta", "1", *argv, "--no-timestamp"]) == EXIT_OK
        out = capsys.readouterr().out
        header, body = _rows(out)
        assert header == ["eta", *columns]
        assert len(body) == 1 and len(body[0]) == len(header)
        assert [ln[2:].split(":")[0] for ln in out.splitlines()
                if ln.startswith("# spec_")] == spec_keys

    def test_eta_grid_size(self, capsys):
        main(["sweep", "--kind", "ra-bw", "--eta-min", "0.2", "--eta-max", "1.0",
              "--eta-points", "5", "--no-timestamp"])
        _, body = _rows(capsys.readouterr().out)
        assert len(body) == 5
        assert float(body[0][0]) == 0.2 and float(body[-1][0]) == 1.0

    @pytest.mark.parametrize("kind, flag, value", [
        ("ra-bw", "--m", "7"), ("ra-bw", "--a", "3"), ("ra-bw", "--dk", "0.3"),
        ("gh", "--m", "7"), ("gh", "--a", "3"), ("gh", "--dk", "0.3"),
        ("ct", "--m", "7"), ("ct", "--dk", "0.3"),
    ])
    def test_unread_parameter_is_rejected(self, kind, flag, value, capsys):
        """ra-bw and gh read none of --m/--a/--dk, ct reads --a alone."""
        assert main(["sweep", "--kind", kind, "--eta", "1", flag, value,
                     "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} is not read by sweep --kind {kind}" in captured.err

    def test_unread_file_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("dk = 0.3\n")
        assert main(["sweep", "--kind", "ct", "--eta", "1", "--config", str(cfg),
                     "--no-timestamp"]) == EXIT_VALIDATION
        assert "--dk is not read by sweep --kind ct, got 0.3" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, argv, spec_keys", [
        ("ct", ["--a", "3"], ["a=3.0"]),
        ("compare", ["--m", "20", "--a", "3", "--dk", "0.4"], ["m=20", "a=3.0", "dk=0.4"]),
    ])
    def test_read_parameters_are_used(self, kind, argv, spec_keys, capsys):
        assert main(["sweep", "--kind", kind, "--eta", "1", *argv,
                     "--no-timestamp"]) == EXIT_OK
        out = capsys.readouterr().out
        assert all(key in out for key in spec_keys)

    @pytest.mark.parametrize("flag, value, message", [
        ("--m", "0", "--m must be an integer >= 1, got 0"),
        ("--a", "0.2", "--a must be >= 1/2, got 0.2"),
        ("--dk", "0", "--dk must be positive, got 0.0"),
    ])
    def test_compare_checks_ranges(self, flag, value, message, capsys):
        assert main(["sweep", "--kind", "compare", "--eta", "1", flag, value]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_failed_points_are_nan_and_counted(self, monkeypatch, capsys):
        """A NaN transfer past k = 6 fails the etas whose range reaches it
        (eta < 3.8 for gh m=100 at x0 = 1); the rest keep their values."""
        real = metrics.transfer
        monkeypatch.setattr(metrics, "transfer", lambda spec, k: np.where(
            np.asarray(k) > 6.0, np.nan, real(spec, k)))
        assert main(["sweep", "--kind", "gh", "--m-list", "100", "--eta-min", "1",
                     "--eta-max", "5", "--eta-points", "5", "--no-timestamp"]) == EXIT_OK
        captured = capsys.readouterr()
        _, body = _rows(captured.out)
        cells = [float(row[1]) for row in body]
        assert np.isnan(cells[:3]).all() and np.isfinite(cells[3:]).all()
        assert "warning: 3 sweep point(s) failed and were marked NaN" in captured.err

    @pytest.mark.parametrize("eta", ["1e-300", "1e-160"])
    def test_tiny_eta(self, eta, capsys):
        """Where 1/eta^2 overflows the RA closed form stays finite: no
        traceback, no -inf, and nothing to count."""
        assert main(["sweep", "--kind", "ra-bw", "--eta", eta, "--no-timestamp"]) == EXIT_OK
        captured = capsys.readouterr()
        header, body = _rows(captured.out)
        row = dict(zip(header, body[0]))
        with mpmath.workdps(40):
            e = mpmath.mpf(eta)
            ra = (0.5 / e - 2 * mpmath.atan(0.5 / e) - 0.5 * e * mpmath.log(1 + 1 / e**2)
                  + mpmath.atan(1 / e)) / mpmath.pi
        assert float(row["mse_ra"]) == pytest.approx(float(ra), rel=1e-12)
        assert all(np.isfinite(float(cell)) for cell in body[0])
        assert "warning" not in captured.err
        assert main(["sweep", "--kind", "compare", "--eta", eta, "--no-timestamp"]) == EXIT_OK
        _, body = _rows(capsys.readouterr().out)
        assert float(body[0][1]) == pytest.approx(1.0, rel=1e-12)  # ratio_ra

    def test_absolute_cell_that_is_not_finite_is_nan_and_counted(self, capsys):
        """At a subnormal eta both absolute MSEs overflow: NaN, counted with the ratio."""
        assert main(["sweep", "--kind", "ra-bw", "--eta", "1e-310", "--no-timestamp"]) == EXIT_OK
        captured = capsys.readouterr()
        _, body = _rows(captured.out)
        assert body[0][1:4] == ["nan", "nan", "nan"]
        assert captured.err == "warning: 3 sweep point(s) failed and were marked NaN\n"

    @pytest.mark.parametrize("argv, ratios", [
        (["--kind", "ra-bw", "--eta", "300"], 2),
        (["--kind", "gh", "--eta", "200", "--m-list", "20"], 1),
    ])
    def test_ratio_that_is_not_finite_is_nan_and_counted(self, argv, ratios, capsys):
        """At large eta the BW reference MSE underflows to 0: the ratio cells
        are NaN, never inf, and no numpy warning leaks."""
        assert main(["sweep", *argv, "--no-timestamp"]) == EXIT_OK
        captured = capsys.readouterr()
        _, body = _rows(captured.out)
        assert all(cell == "nan" for cell in body[0][-ratios:])
        assert f"warning: {ratios} sweep point(s) failed and were marked NaN" in captured.err

    @pytest.mark.parametrize("argv", [["--kind", "gh", "--m-list", "5"], ["--kind", "ct"]])
    def test_subnormal_eta_is_nan_and_counted(self, argv, capsys):
        """At a subnormal eta the quadrature's range is infinite: over the
        panel budget, so the cells are NaN and counted, with no traceback."""
        assert main(["sweep", *argv, "--eta", "1e-310", "--no-timestamp"]) == EXIT_OK
        captured = capsys.readouterr()
        _, body = _rows(captured.out)
        assert body[0][0] == "1e-310" and all(cell == "nan" for cell in body[0][1:])
        assert captured.err == (f"warning: {len(body[0]) - 1} sweep point(s) failed "
                                "and were marked NaN\n")

    @pytest.mark.parametrize("argv, message", [
        (["--eta", "inf"], "--eta must be positive and finite, got inf"),
        (["--eta", "nan"], "--eta must be positive and finite, got nan"),
        (["--eta-min", "inf", "--eta-max", "inf"],
         "--eta-min must be positive and finite, got inf"),
        (["--eta-max", "inf"], "--eta-max must be finite, got inf"),
        (["--eta-max", "nan"], "--eta-max must exceed --eta-min, got [0.05, nan]"),
    ])
    def test_eta_that_is_not_finite_is_rejected(self, argv, message, capsys):
        """Exit 2 with a message that names the flag; numpy warns of nothing
        (a warning fails the test)."""
        assert main(["sweep", "--kind", "ra-bw", *argv, "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"  - {message}\n" in captured.err


class TestSweepUnitScale:
    """Ratio columns are computed at x_o = 1 and memoized per unit spec and eta grid."""

    grid = ["--eta-min", "0.5", "--eta-max", "4", "--eta-points", "7"]

    @staticmethod
    def _ratios(argv, capsys):
        assert main(["sweep", *argv, "--no-timestamp"]) == EXIT_OK
        return [row[1:] for row in _rows(capsys.readouterr().out)[1]]

    @pytest.mark.parametrize("kind, x0s, list_at", [
        ("gh", ("0.3", "1", "18.791550682890122"), lambda x0: ["--m-list", "1,20,100"]),
        # s / x0 times x0 is s exactly at a power-of-two x0
        ("ct", ("0.25", "1", "8"),
         lambda x0: ["--dk-list", ",".join(repr(s / float(x0)) for s in (0.12, 0.5, 1.0))]),
    ])
    def test_ratio_cells_byte_identical_across_x0(self, kind, x0s, list_at, monkeypatch, capsys):
        cells = []
        for x0 in x0s:
            monkeypatch.setattr(cli, "_MSE_COLUMNS", cli._MseColumns(cli._MSE_BUDGET))
            cells.append(self._ratios(["--kind", kind, *self.grid, *list_at(x0), "--x0", x0],
                                      capsys))
        assert cells[0] == cells[1] == cells[2]

    @pytest.mark.parametrize("argv, x0s", [
        (["--kind", "gh", "--m-list", "5,20"], ("1", "0.3")),
        (["--kind", "compare"], ("1", "0.25")),  # ct's default dk = 0.5/x0
    ])
    def test_repeat_at_another_x0_integrates_nothing(self, argv, x0s, monkeypatch, capsys):
        calls = []
        real = cli.mse_numeric
        monkeypatch.setattr(cli, "mse_numeric",
                            lambda lines, spec: calls.append(spec) or real(lines, spec))
        first = self._ratios([*argv, *self.grid, "--x0", x0s[0]], capsys)
        assert len(calls) == 2
        second = self._ratios([*argv, *self.grid, "--x0", x0s[1]], capsys)
        assert len(calls) == 2 and second == first

    def test_hit_returns_the_read_only_column_a_miss_computed(self):
        memo = cli._MseColumns(cli._MSE_BUDGET)
        spec, etas = calibrate("gh", 1.0, m=20).spec, np.linspace(1.0, 5.0, 9)
        column = memo.get(spec, etas)
        assert memo.get(spec, etas.copy()) is column and not column.flags.writeable
        assert column.tolist() == metrics.mse_numeric(
            [LorentzianLine(e) for e in etas], spec).tolist()

    def test_column_over_budget_is_computed_not_kept(self):
        memo = cli._MseColumns(2 * 8 * 4)  # one 4-point column and its grid
        spec = calibrate("gh", 1.0, m=5).spec
        large = memo.get(spec, np.linspace(1.0, 2.0, 5))
        assert large.shape == (5,) and not memo.columns and memo.nbytes == 0
        memo.get(spec, np.linspace(1.0, 2.0, 4))
        assert len(memo.columns) == 1 and memo.nbytes == memo.budget

    def test_holds_at_most_its_budget_least_recent_out(self, monkeypatch):
        """Random requests against a small budget: the memo never holds more
        than it, counts what it holds, and evicts the least recently used."""
        monkeypatch.setattr(cli, "mse_numeric",
                            lambda lines, spec: np.full(len(lines), float(spec.m)))
        memo = cli._MseColumns(1000)
        specs = [calibrate("gh", 1.0, m=m).spec for m in range(1, 9)]
        rng = np.random.default_rng(7)
        recent = []  # the keys held, least recent first, as the memo should keep them
        for _ in range(300):
            spec, etas = specs[rng.integers(8)], np.arange(1.0, 2.0 + rng.integers(70))
            key = (spec, etas.tobytes())
            assert memo.get(spec, etas).tolist() == [float(spec.m)] * etas.size
            if key in recent:
                recent.remove(key)
            if 16 * etas.size <= memo.budget:
                recent.append(key)
            while sum(len(grid) * 2 for _, grid in recent) > memo.budget:
                recent.pop(0)
            assert list(memo.columns) == recent
            assert memo.nbytes == sum(len(grid) * 2 for _, grid in recent) <= memo.budget

    def test_threads_share_it_without_losing_count(self, monkeypatch):
        """More threads than CPUs, switching often: every answer is right and
        the memo's byte count matches what it holds, within its budget.  The
        fake quadrature yields the CPU, so two threads can miss one key."""
        def mse(lines, spec):
            time.sleep(1e-4)
            return np.full(len(lines), float(spec.m))

        monkeypatch.setattr(cli, "mse_numeric", mse)
        memo = cli._MseColumns(1000)
        specs = [calibrate("gh", 1.0, m=m).spec for m in range(1, 9)]
        wrong = []

        def work(seed):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                spec, etas = specs[rng.integers(8)], np.arange(1.0, 2.0 + rng.integers(40))
                if memo.get(spec, etas).tolist() != [float(spec.m)] * etas.size:
                    wrong.append((spec, etas.size))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not wrong
        held = sum(column.nbytes + len(grid) for (_, grid), column in memo.columns.items())
        assert memo.nbytes == held <= memo.budget


class TestNoiseCommand:
    def test_family_order_and_values(self, capsys):
        main(["noise", "--no-timestamp"])
        header, body = _rows(capsys.readouterr().out)
        assert [r[0] for r in body[:2]] == ["ra", "bw"]
        assert float(body[0][1]) == pytest.approx(0.7071067811865476, rel=1e-12)
        assert float(body[1][1]) == pytest.approx(0.7767590130803853, rel=1e-12)

    def test_monte_carlo_columns(self, capsys):
        main(["noise", "--trials", "200", "--grid-n", "64", "--seed", "5",
              "--no-timestamp"])
        header, body = _rows(capsys.readouterr().out)
        assert header[-3:] == ["mc_gain", "mc_predicted", "mc_std_error"]
        for row in body:
            assert abs(float(row[-3]) - float(row[-2])) < 5 * float(row[-1])

    def test_monte_carlo_columns_frozen(self, capsys):
        # the Monte Carlo cells replay bit for bit for a given seed and grid;
        # the gh row was frozen from the closed-form kernel, whose mc_predicted
        # matches weights from a 40-digit kernel to the last printed digit
        main(["noise", "--trials", "200", "--grid-n", "32", "--seed", "3",
              "--no-timestamp"])
        _, body = _rows(capsys.readouterr().out)
        assert [row[-3:] for row in body] == [
            ["0.21277771334932943", "0.21821789023599236", "0.005146639748503154"],
            ["0.25592755380766363", "0.2591222699256251", "0.00756495480859659"],
            ["0.25339856120028476", "0.2566466600708504", "0.007477490629296902"],
            ["0.2542574086530979", "0.25748831939408323", "0.007506690388257959"],
        ]

    def test_monte_carlo_independent_of_thread_count(self):
        # each trial's mean square is a numpy reduction along its own row: the
        # BLAS thread count does not reach it, and neither does the number of
        # Monte Carlo worker threads, one per CPU the process may run on
        # (a grid of 1025 points is split on a multi-CPU machine; the third
        # run is pinned to one CPU, which runs every trial in one thread)
        src = pathlib.Path(specfilt.__file__).resolve().parents[1]
        argv = [sys.executable, "-m", "specfilt", "noise", "--trials", "300",
                "--grid-n", "512", "--seed", "5", "--no-timestamp"]
        pin = None
        if hasattr(os, "sched_setaffinity"):
            def pin():
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        outs = []
        for threads, preexec in (("1", None), ("2", None), ("2", pin)):
            env = {**os.environ, "PYTHONPATH": str(src),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            outs.append(subprocess.run(argv, capture_output=True, check=True,
                                       env=env, preexec_fn=preexec).stdout)
        assert outs[0] == outs[1] == outs[2]
        assert b"mc_gain" in outs[0]

    def test_small_dk_finishes(self, capsys):
        # k_1/dk ~ 190: the ct routes once ran out of adaptive subintervals here
        assert main(["noise", "--dk", "0.01", "--no-timestamp"]) == EXIT_OK
        _, body = _rows(capsys.readouterr().out)
        assert float(body[3][2]) == pytest.approx(float(body[3][3]), rel=1e-9)

    def test_default_dk_scales_with_x0(self, capsys):
        # dk = 0.5 at this x0 cannot reach half height; the default 0.5/x0 can
        x0 = 18.791550682890122
        assert main(["noise", "--x0", repr(x0), "--no-timestamp"]) == EXIT_OK
        _, body = _rows(capsys.readouterr().out)
        assert body[3][0] == f"ct_a5.0_dk{0.5 / x0!r}"
        assert main(["noise", "--no-timestamp"]) == EXIT_OK
        _, unit = _rows(capsys.readouterr().out)
        # the same ct shape: rms gain times sqrt(x0) is the x0 = 1 gain
        assert float(body[3][1]) * x0**0.5 == pytest.approx(float(unit[3][1]), rel=1e-12)

    def test_steep_ct_passes_the_parseval_check(self, capsys):
        # a = 1000: ct's terms cancel by a factor of about a^2, and the former
        # direct-space head quadrature missed the 1e-9 check by this much
        assert main(["noise", "--a", "1000", "--dk", "22.704", "--no-timestamp"]) == EXIT_OK
        _, body = _rows(capsys.readouterr().out)
        assert body[3][0] == "ct_a1000.0_dk22.704"
        assert float(body[3][2]) == pytest.approx(float(body[3][3]), rel=1e-9)

    def test_tiny_x0_warns_of_no_overflow(self, capsys):
        # the quadrature's coarse step at slow rates would exceed the float range
        assert main(["noise", "--x0", "1e-300", "--no-timestamp"]) == EXIT_OK
        _, body = _rows(capsys.readouterr().out)
        assert body[0][1] == "7.071067811865476e+149"
        for row in body:
            assert float(row[2]) == pytest.approx(float(row[3]), rel=1e-9)

    def test_panel_budget_is_a_numeric_failure(self, capsys):
        # k_1/dk ~ 19000 once needed more panels than the rs quadrature
        # allowed; the closed forms finish and agree
        assert main(["noise", "--dk", "0.0001", "--no-timestamp"]) == EXIT_OK
        out = capsys.readouterr()
        assert out.err == ""
        _, body = _rows(out.out)
        assert body[3][0] == "ct_a5.0_dk0.0001"
        assert float(body[3][2]) == pytest.approx(float(body[3][3]), rel=1e-14)

    def test_panel_budget_message_names_the_limit(self, capsys):
        # the run that once named the panel limit now prints the rs of the
        # rolloff's closed form, here taken to 40 digits
        assert main(["noise", "--dk", "0.0001", "--no-timestamp"]) == EXIT_OK
        out = capsys.readouterr().out
        spec = calibrate("ct", 1.0, a=5.0, dk=0.0001).spec
        assert f"k_1={spec.k_1!r}; a=5.0; dk=0.0001" in out
        with mpmath.workdps(40):
            a, t = mpmath.mpf(spec.a), mpmath.acos(1 - 1 / mpmath.mpf(spec.a))
            roll = (t - 2 * a * (t - mpmath.sin(t))
                    + a * a / 2 * (3 * t - 4 * mpmath.sin(t) + mpmath.sin(t) * mpmath.cos(t)))
            expected = float((mpmath.mpf(spec.k_1) + mpmath.mpf(spec.dk) * roll) / mpmath.pi)
        _, body = _rows(out)
        assert float(body[3][3]) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_steep_ct_at_a_2000_is_a_numeric_failure(self, capsys):
        # ct's ds closed form cancels by about a^2: at a = 2000 its rounding
        # exceeds the 1e-9 Parseval gate, and the run exits numeric
        assert main(["noise", "--a", "2000", "--dk", "32.1", "--no-timestamp"]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith(
            "numeric failure: direct- and reciprocal-space noise integrals disagree: 0.54937")

    @pytest.mark.xfail(strict=True, reason="ct's ds closed form cancels by a^2 at a = 2000")
    def test_steep_ct_at_a_2000_passes_the_parseval_check(self, capsys):
        assert main(["noise", "--a", "2000", "--dk", "32.1", "--no-timestamp"]) == EXIT_OK
        _, body = _rows(capsys.readouterr().out)
        assert float(body[3][2]) == pytest.approx(float(body[3][3]), rel=1e-9)

    def test_grid_n_validated_with_the_rest(self, capsys, monkeypatch):
        # every violation is listed, and nothing is calibrated before that
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrated before validation")

        monkeypatch.setattr("specfilt.cli.calibrate", no_calibration)
        rc = main(["noise", "--trials", "50", "--grid-n", "0"])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "--trials" in err and "--grid-n" in err
        assert main(["noise", "--trials", "100", "--grid-n", "0"]) == EXIT_VALIDATION
        assert "--grid-n must be an integer >= 1" in capsys.readouterr().err
        # the filter's parameters first, then the Monte Carlo's
        assert main(["noise", "--m", "0", "--a", "0.2", "--trials", "5"]) == EXIT_VALIDATION
        problems = capsys.readouterr().err.splitlines()[1:]
        assert [p.split()[1] for p in problems] == ["--m", "--a", "--trials"]


class TestApplyCommand:
    @pytest.fixture()
    def spectrum_file(self, tmp_path):
        x = -10.0 + 0.05 * np.arange(401)
        y = (0.4 / np.pi) / (0.4**2 + x**2)
        path = tmp_path / "line.dat"
        write_spectrum(str(path), x, y)
        return path

    def test_rs_path(self, spectrum_file, tmp_path, capsys):
        out = tmp_path / "f.dat"
        assert main(["apply", "--in", str(spectrum_file), "--family", "gh",
                     "--m", "10", "--x0", "0.5", "--out", str(out),
                     "--no-timestamp"]) == EXIT_OK
        x = np.loadtxt(out)
        assert x.shape == (401, 2)
        report = (tmp_path / "f.dat.report.txt").read_text()
        assert "rms_noise_gain_grid=" in report
        assert "noise_cutoff: no cutoff found\n" in report  # noiseless
        assert "gibbs_period_x=" in report

    def test_short_file_reports_cutoff_not_searched(self, tmp_path, capsys):
        x = -5.0 + 0.1 * np.arange(101)
        path = tmp_path / "short.dat"
        write_spectrum(str(path), x, (0.4 / np.pi) / (0.4**2 + x**2))
        out = tmp_path / "f.dat"
        assert main(["apply", "--in", str(path), "--family", "bw", "--out", str(out),
                     "--no-timestamp"]) == EXIT_OK
        report = (tmp_path / "f.dat.report.txt").read_text()
        assert "noise_cutoff: not searched: 101 points, fewer than the 129 it needs\n" in report

    def test_ds_close_to_rs(self, spectrum_file, tmp_path, capsys):
        a = tmp_path / "rs.dat"
        b = tmp_path / "ds.dat"
        common = ["apply", "--in", str(spectrum_file), "--family", "bw",
                  "--x0", "0.5", "--no-timestamp"]
        main(common + ["--out", str(a)])
        main(common + ["--out", str(b), "--path", "ds"])
        ya = np.loadtxt(a)[:, 1]
        yb = np.loadtxt(b)[:, 1]
        assert np.max(np.abs(ya - yb)) < 0.05 * np.max(np.abs(ya))

    def test_missing_input(self, capsys):
        assert main(["apply", "--in", "/no/such.dat", "--family", "bw"]) == EXIT_IO

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_x_is_an_input_error(self, bad, tmp_path, capsys):
        path = tmp_path / "bad.dat"
        write_spectrum(str(path), [0.0, bad, 2.0], [1.0, 2.0, 3.0])
        assert main(["apply", "--in", str(path), "--family", "bw",
                     "--out", str(tmp_path / "f.dat")]) == EXIT_IO
        assert capsys.readouterr().err == f"i/o failure: {path}: non-finite x values\n"


class TestGibbsCommand:
    def test_summary_rows(self, capsys):
        main(["gibbs", "--family", "bw", "--gamma-list", "0.5,1", "--no-timestamp"])
        header, body = _rows(capsys.readouterr().out)
        assert header == ["gamma", "peak_amplitude", "period_estimate",
                          "period_theory"]
        assert len(body) == 2
        for row in body:
            est, theory = float(row[2]), float(row[3])
            assert abs(est / theory - 1) < 0.10

    def test_curve_mode(self, capsys):
        main(["gibbs", "--family", "bw", "--gamma-list", "1", "--curve",
              "--points", "11", "--no-timestamp"])
        header, body = _rows(capsys.readouterr().out)
        assert header == ["x", "kernel", "residual_gamma1.0"]
        assert len(body) == 11


class TestValidationAndErrors:
    @pytest.mark.parametrize("argv", [["noise"], ["sweep"], ["calibrate", "--family", "ct"]])
    def test_infinite_x0_is_rejected_as_x0(self, argv, capsys):
        """No default derived from it (ct's dk = 0.5/x0) is reported instead."""
        assert main([*argv, "--x0", "inf", "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error:\n"
                                "  - --x0 must be positive and finite, got inf\n")

    def test_aggregated_messages(self, capsys):
        rc = main(["sweep", "--x0", "0", "--eta-min", "-2", "--eta-points", "0"])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("- ") >= 3

    def test_numeric_failure_code(self, capsys):
        rc = main(["calibrate", "--family", "ct", "--a", "200", "--dk", "40"])
        assert rc == EXIT_NUMERIC

    def test_missing_family(self, capsys):
        assert main(["calibrate"]) == EXIT_VALIDATION

    def test_unwritable_output(self, capsys):
        rc = main(["calibrate", "--family", "ra", "--out", "/no/dir/x.txt"])
        assert rc == EXIT_IO

    def test_missing_config_file(self, capsys):
        assert main(["calibrate", "--config", "/no/cfg.txt"]) == EXIT_IO

    def test_gh_requires_m(self, capsys):
        rc = main(["kernel", "--family", "gh"])
        assert rc == EXIT_VALIDATION
        assert "--m" in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = gh\nm = 30\n# comment\nformat = tsv\n")
        assert main(["calibrate", "--config", str(cfg), "--no-timestamp"]) == EXIT_OK
        spec = parse_spec(capsys.readouterr().out)
        assert spec.m == 30

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = gh\nm = 30\n")
        main(["calibrate", "--config", str(cfg), "--m", "10", "--no-timestamp"])
        assert parse_spec(capsys.readouterr().out).m == 10

    def test_bad_value_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family = gh\nm = ten\n")
        rc = main(["calibrate", "--config", str(cfg)])
        assert rc == EXIT_VALIDATION
        assert "m=" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("family gh\n")
        assert main(["calibrate", "--config", str(cfg)]) == EXIT_IO

    def test_unread_file_value_rejected(self, tmp_path, capsys):
        """A config-file value counts as given: bw does not read m."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("m = 30\n")
        assert main(["calibrate", "--family", "bw", "--config", str(cfg),
                     "--no-timestamp"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bw does not take m, got m=30" in captured.err


@pytest.mark.parametrize("argv", [["--family", "gh", "--m", "20"], ["--family", "ct"]],
                         ids=["gh", "ct"])
def test_gibbs_report_script(argv, tmp_path, capsys):
    """The ringing driver runs for every family, fitting the spec its table records."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_gibbs_report.py"
    loader = importlib.util.spec_from_file_location("run_gibbs_report", path)
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    assert script.run(["--out-dir", str(tmp_path), "--gammas", "1,2,3", *argv]) == 0
    assert (tmp_path / "gibbs_summary.csv").exists() and (tmp_path / "gibbs_curves.csv").exists()
    assert "log-amplitude decay slope vs k_c*gamma: " in capsys.readouterr().out
