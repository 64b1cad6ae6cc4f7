"""Command-line interface: output shape, config precedence, exit codes."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import specfilt
from specfilt import metrics
from specfilt.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from specfilt.engine import write_spectrum
from specfilt.filters import BrickWall, parse_spec


def _rows(text, sep=","):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(sep)
    body = [ln.split(sep) for ln in lines[1:]]
    return header, body


def test_import_leaves_out_integrate_and_interpolate():
    """Starting the command loads neither scipy.integrate nor scipy.interpolate."""
    src = pathlib.Path(specfilt.__file__).resolve().parents[1]
    code = ("import sys, specfilt.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.interpolate'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


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

    def test_spec_file_input(self, tmp_path, capsys):
        dest = tmp_path / "spec.txt"
        main(["calibrate", "--family", "gh", "--m", "10", "--out", str(dest),
              "--no-timestamp"])
        assert main(["transfer", "--spec", str(dest), "--points", "5",
                     "--no-timestamp"]) == EXIT_OK
        header, body = _rows(capsys.readouterr().out)
        assert header == ["k", "transfer"]
        assert float(body[0][1]) == pytest.approx(1.0)


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

    def test_gh_columns(self, capsys):
        main(["sweep", "--kind", "gh", "--m-list", "5,50", "--eta", "2.0",
              "--no-timestamp"])
        header, body = _rows(capsys.readouterr().out)
        assert header == ["eta", "ratio_m5", "ratio_m50"]
        assert float(body[0][2]) == pytest.approx(0.8501938515360006, rel=1e-6)

    def test_eta_grid_size(self, capsys):
        main(["sweep", "--kind", "ra-bw", "--eta-min", "0.2", "--eta-max", "1.0",
              "--eta-points", "5", "--no-timestamp"])
        _, body = _rows(capsys.readouterr().out)
        assert len(body) == 5
        assert float(body[0][0]) == 0.2 and float(body[-1][0]) == 1.0

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
            ["0.21277771334932946", "0.21821789023599236", "0.005146639748503154"],
            ["0.25592755380766363", "0.2591222699256251", "0.00756495480859659"],
            ["0.2533985612002848", "0.2566466600708504", "0.007477490629296901"],
            ["0.254257408653098", "0.25748831939408323", "0.0075066903882579595"],
        ]

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

    def test_panel_budget_is_a_numeric_failure(self, capsys):
        # k_1/dk ~ 19000 needs more panels than the quadrature core allows
        assert main(["noise", "--dk", "0.0001", "--no-timestamp"]) == EXIT_NUMERIC
        assert "did not converge" in capsys.readouterr().err

    def test_panel_budget_message_names_the_limit(self, capsys):
        # the range is the spec's own [0, k_2], k_2 = 1.8955 at x_o = 1
        assert main(["noise", "--dk", "0.0001", "--no-timestamp"]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric failure: quadrature over k in [0, 1.89552] did not converge: "
            "it needs more than the 65536 panels allowed\n")

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
        assert "gibbs_period_x=" in report

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
