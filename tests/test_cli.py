"""The command-line front end, end to end through ``main``.

CSV values are checked against the covariance oracle of test_observables
(solve_ivp on the moment equations), which never touches the closed forms.
Each reduced state is a squeezed thermal state with no X-P correlation, so
its (n_bar, xi) follow from the oracle's diagonal:
n_bar = sqrt(Var X Var P) - 1/2 and xi = (1/4) ln(Var P / Var X).
``validate`` is checked for its report layout, which scripts parse.
"""

import argparse
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import ioncavity
from ioncavity import cli, lindblad, lossless_ket, quad_variances
from ioncavity.cli import (CSV_HEADER, EXIT_CONFIG, EXIT_NO_REVIVALS, EXIT_OK, EXIT_VALIDATION,
                           EXIT_VALIDITY, main)
from ioncavity.params import classify_regime
from rk4_oracle import dense_hamiltonian
from test_observables import covariance_oracle

TOL = 1e-9
ROWS = 2501  # the default grid: t_max = 25 in steps of 0.01
SAMPLED = slice(0, ROWS, 125)


def _point_flags(o1, o2, g):
    return ["--omega1", repr(o1), "--omega2", repr(o2), "--gamma", repr(g)]


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestSimulate:
    @pytest.mark.parametrize("point", [(1.0, 1.0, 0.4), (1.0, 0.6, 0.4), (1.0, 0.0, 0.4)],
                             ids=["equal_coupling", "oscillatory", "omega2_zero"])
    def test_csv_matches_covariance_oracle(self, tmp_path, point):
        out = tmp_path / "sim.csv"
        argv = ["simulate", *_point_flags(*point), "--alpha_re", "0.3", "--beta_im", "-0.2",
                "--out_path", str(out)]
        assert main(argv) == EXIT_OK
        header, data = _read_csv(out)
        assert header == CSV_HEADER
        assert data.shape == (ROWS, 12)

        rows = data[SAMPLED]
        ts = rows[:, 0]
        assert ts == pytest.approx(np.arange(ROWS)[SAMPLED] * 0.01, abs=1e-12)
        var = np.array([np.diag(V) for V in covariance_oracle(classify_regime(*point), ts)])
        assert np.max(np.abs(rows[:, 1:5] - var) / var) < TOL
        for k, (vx, vp) in enumerate(((var[:, 0], var[:, 1]), (var[:, 2], var[:, 3]))):
            nbar = np.sqrt(vx * vp) - 0.5
            xi = 0.25 * np.log(vp / vx)
            assert np.max(np.abs(rows[:, 5 + k] - nbar) / (nbar + 0.5)) < TOL
            assert np.max(np.abs(rows[:, 7 + k] - xi) / np.maximum(1.0, np.abs(xi))) < TOL

    def test_needs_out_path(self):
        assert main(["simulate"]) == EXIT_CONFIG

    @pytest.mark.parametrize("t_step", ["1e-300", "1e-310"])
    def test_refuses_a_grid_past_the_row_cap(self, tmp_path, capsys, t_step):
        # t_max/t_step is 2.5e301, or inf for the subnormal step: refused before
        # any allocation
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--t_step", t_step, "--out_path", str(out)]) == EXIT_CONFIG
        assert "error: invalid configuration" in capsys.readouterr().err
        assert not out.exists() and not list(tmp_path.iterdir())

    def test_non_finite_variance_refused_quietly(self, tmp_path):
        # at (1, 1.4, 3.2), Var X_c Var P_c overflows at t = 384: exit 3 naming that time,
        # no file, and no numpy warning
        out = tmp_path / "sim.csv"
        done = _run_fresh("-m", "ioncavity.cli", "simulate", "--gamma", "3.2", "--omega2", "1.4",
                          "--t_max", "1000", "--t_step", "1", "--out_path", str(out))
        assert done.returncode == EXIT_VALIDITY
        assert done.stderr == ("error: formula validity guard: squeezed-thermal map out of range: "
                               "Var X = 6.105780016627064e+154, Var P = 1.0176300027711771e+154 "
                               "(need finite, positive variances with product >= 1/4) at "
                               "(omega1=1.0, omega2=1.4, gamma=3.2, t=384.0, mode=c)\n")
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_lambda_sq_refused_quietly(self, tmp_path):
        # gamma = 1e200 overflows L^2 = 1 - omega2^2 - gamma^2/16 to -inf: exit 3 naming
        # the coupling, no file, and no numpy warning
        out = tmp_path / "sim.csv"
        done = _run_fresh("-m", "ioncavity.cli", "simulate", "--gamma", "1e200", "--t_max", "1",
                          "--out_path", str(out))
        assert done.returncode == EXIT_VALIDITY
        assert done.stderr == ("error: formula validity guard: L^2 = -inf is not finite at "
                               "(omega1=1, omega2=0.6, gamma=1e+200)\n")
        assert list(tmp_path.iterdir()) == []


class TestSweepRatio:
    def test_equal_coupling_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        times = [1.0, 5.0, 10.0]
        argv = ["sweep-ratio", "--gamma", "0.4", "--times", "1,5,10", "--out_path", str(out)]
        assert main(argv) == EXIT_OK
        header, data = _read_csv(out)
        assert header == "ratio,var_xv_t1,var_xv_t5,var_xv_t10"
        assert data.shape == (141, 4)
        (row,) = data[np.isclose(data[:, 0], 1.0, rtol=0.0, atol=1e-12)]
        assert list(row[1:]) == [0.5, 0.5, 0.5]
        want = [V[2, 2] for V in covariance_oracle(classify_regime(1.0, 1.0, 0.4), times)]
        assert row[1:] == pytest.approx(want, rel=TOL)

    @pytest.mark.parametrize("times", [[1.0, 5.0, 10.0], [k / 5 for k in range(1, 51)]],
                             ids=["default_times", "benchmark_times"])
    @pytest.mark.parametrize("gamma", [0.0, 0.4, 4.0])
    def test_csv_bytes_match_the_per_ratio_loop(self, tmp_path, gamma, times):
        # one quad_variances call over the ratio grid writes the bytes that one
        # call per ratio, through the same CSV writer, writes
        out = tmp_path / "sweep.csv"
        argv = ["sweep-ratio", "--gamma", repr(gamma), "--times", ",".join(map(repr, times)),
                "--out_path", str(out)]
        assert main(argv) == EXIT_OK
        ratios = [k / 100.0 for k in range(10, 151)]
        loop = [quad_variances(classify_regime(1.0, r, gamma), np.asarray(times)).var_xv for r in ratios]
        header = "ratio," + ",".join(f"var_xv_t{t:g}" for t in times)
        cli._write_csv(str(tmp_path / "loop.csv"), header, np.column_stack([ratios, loop]))
        assert out.read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_non_finite_variance_refused_quietly(self, tmp_path):
        # at gamma = 3.2, Var X_v grows past the float range by t = 1000 at the 20 ratios
        # 1.31-1.50: exit 3 naming the first (ratio, t), no file, and no numpy warning
        out = tmp_path / "sweep.csv"
        done = _run_fresh("-m", "ioncavity.cli", "sweep-ratio", "--gamma", "3.2",
                          "--times", "0,1e-3,7,1000", "--out_path", str(out))
        assert done.returncode == EXIT_VALIDITY
        assert done.stderr == ("error: formula validity guard: Var X_v = inf is not finite at "
                               "(omega1=1.0, omega2=1.31, gamma=3.2, t=1000.0)\n")
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_lambda_sq_refused_quietly(self, tmp_path):
        # gamma = 1e200 overflows every ratio's L^2 to -inf: exit 3 naming the first ratio,
        # no file, and no numpy warning (it once wrote a CSV from the degenerate branch)
        out = tmp_path / "sweep.csv"
        done = _run_fresh("-m", "ioncavity.cli", "sweep-ratio", "--gamma", "1e200",
                          "--out_path", str(out))
        assert done.returncode == EXIT_VALIDITY
        assert done.stderr == ("error: formula validity guard: L^2 = -inf is not finite at "
                               "(omega1=1, omega2=0.1, gamma=1e+200)\n")
        assert list(tmp_path.iterdir()) == []


class TestRevivals:
    def test_overdamped_has_none(self, capsys):
        assert main(["revivals", *_point_flags(1.0, 0.6, 4.0)]) == EXIT_NO_REVIVALS
        assert "no revivals" in capsys.readouterr().err

    def test_refuses_lists_past_the_row_cap(self, capsys, monkeypatch):
        # at (1, 0.6, 0.4) and t_max = 20 each list holds about 20 sqrt(0.63)/pi
        # = 5.05 rows: refused under a cap of 5 before any list is built
        monkeypatch.setattr(cli, "MAX_SIMULATE_ROWS", 5)
        monkeypatch.setattr(cli, "revival_schedule", None)
        argv = ["revivals", *_point_flags(1.0, 0.6, 0.4), "--t_max", "20"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == ("error: invalid configuration: revivals needs "
                                           "t_max*Lambda/pi <= 5, got 5.05301\n")
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_SIMULATE_ROWS", 6)
        assert main(argv) == EXIT_OK

    def test_oscillatory_lists_both_kinds(self, capsys):
        assert main(["revivals", *_point_flags(1.0, 0.6, 0.4), "--t_max", "20"]) == EXIT_OK
        kinds = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        assert "motion" in kinds and "cavity" in kinds
        assert kinds.count("cavity") == 1 + math.floor(20 * math.sqrt(0.63) / math.pi)


class TestValidate:
    # N = 10 lies below the validate benchmark's N = 16.  At validate's default
    # omega2/omega1 = 0.3 the basis edge alone puts the t = 1 joint trace
    # distance at 1.0e-4 (gamma = 0.4) and 1.6e-4 (gamma = 0), over TD_TOL;
    # at 0.2 it is 1.1e-5 and 1.8e-5.
    ARGV = ["validate", "--nc", "10", "--nv", "10", "--omega2", "0.2", "--times", "0.5,1"]
    CHECK_LINE = re.compile(r"t=\S+ .*: \S+ \(tol \S+\) ok")

    @pytest.mark.parametrize("gamma", [0.4, 0.0], ids=["lossy", "lossless"])
    def test_report_layout(self, capsys, gamma):
        assert main([*self.ARGV, "--gamma", repr(gamma)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        # per checkpoint: joint trace distance, two fidelity deficits and the
        # quadrature delta, plus the lossless fidelity deficit at gamma = 0
        assert len(lines) == 2 * (4 + (gamma == 0)) + 1
        assert all(self.CHECK_LINE.fullmatch(line) for line in lines[:-1])
        assert lines[-1] == "all validation checks passed"

    @pytest.mark.parametrize("argv", [
        ["--omega2", "0", "--nc", "8", "--nv", "8", "--times", "0.5,1"],
        ["--omega2", "1", "--nc", "10", "--nv", "10", "--times", "0.1,0.2"],
    ], ids=["omega2_zero", "equal_coupling"])
    def test_runs_its_checks_at_former_refusals(self, capsys, argv):
        assert main(["validate", *argv]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * 4 + 1
        assert all(self.CHECK_LINE.fullmatch(line) for line in lines[:-1])

    def test_guard_trip_is_a_fail_line(self, capsys, monkeypatch):
        # a series tolerance of 1e-6 stops the series early enough that the assembled
        # joint density dips below -TOL_PSD: each joint check fails, every other
        # check runs
        monkeypatch.setattr(ioncavity.fock, "TOL_SERIES", 1e-6)
        argv = ["validate", "--omega2", "1", "--nc", "16", "--nv", "16"]
        assert main([*argv, "--times", "0.1,0.25"]) == EXIT_VALIDATION
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * 4 + 1
        assert all(self.CHECK_LINE.fullmatch(line) for line in lines[1:4] + lines[5:8])
        assert lines[0] == ("t=0.1 joint trace distance: matrix is not PSD within tolerance "
                            "(min eig -7.803e-08) FAIL")
        assert lines[4] == ("t=0.25 joint trace distance: matrix is not PSD within tolerance "
                            "(min eig -1.586e-07) FAIL")
        assert lines[-1] == ("FAILED: 2 check(s): t=0.1 joint trace distance; "
                             "t=0.25 joint trace distance")

        assert main([*argv, "--times", "0.25,0.3"]) == EXIT_VALIDATION
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            f"t={t} {check}" for t in ("0.25", "0.3") for check in (
                "joint trace distance", "mode-c fidelity deficit", "mode-v fidelity deficit",
                "quadrature delta")]
        assert lines[-1].startswith("FAILED: 2 check(s)")

    def test_default_series_tol_passes_where_the_guard_trips(self, capsys):
        assert main(["validate", "--omega2", "1", "--nc", "16", "--nv", "16",
                     "--times", "0.1,0.25"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert all(self.CHECK_LINE.fullmatch(line) for line in lines[:-1])

    def test_series_refusal_is_a_fail_line(self, capsys):
        # at equal coupling the series needs more than 60 terms at t = 1 and
        # has |f g| >= 1 from t = 2 on: each refusal fails its joint check
        # only, and every checkpoint still runs
        assert main(["validate", "--omega2", "1"]) == EXIT_VALIDATION
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            f"t={t} {check}" for t in ("0.5", "1", "2", "4") for check in (
                "joint trace distance", "mode-c fidelity deficit", "mode-v fidelity deficit",
                "quadrature delta")]
        assert lines[4] == ("t=1 joint trace distance: assembly needs m+n > 60 terms "
                            "(|f g| = 0.9063); refusing direct summation at this parameter point FAIL")
        for line in (lines[8], lines[12]):
            assert re.fullmatch(r"t=[24] joint trace distance: assembly refused: \|f g\| = \S+ >= 1, "
                                r"the operator series has no geometric tail bound at this time FAIL", line)
        assert lines[-1].startswith("FAILED: ")

    def test_default_drive_kept_under_config_file(self, tmp_path, capsys):
        # validate's omega2/omega1 = 0.3 sits under the config file, not in place of it
        config = tmp_path / "run.json"
        config.write_text('{"nc": 8, "nv": 8}', encoding="utf-8")
        assert main(["validate", "--config", str(config), "--times", "0.5"]) == EXIT_OK
        from_file = capsys.readouterr()
        assert main(["validate", "--nc", "8", "--nv", "8", "--times", "0.5"]) == EXIT_OK
        assert capsys.readouterr() == from_file

    # truncation shows in the checks' own lines, at omega2 < omega1 and at
    # equal coupling alike; nothing guesses at the basis on stderr
    def test_stderr_left_empty_at_defaults(self, capsys):
        assert main(["validate", "--times", "0.5"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_stderr_left_empty_at_equal_coupling(self, capsys):
        assert main(["validate", "--omega2", "1", "--times", "0.1"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_step_past_the_substep_cap_aborts(self, capsys):
        # gamma = 1e300 would need about 4.5e299 propagator substeps
        argv = ["validate", "--gamma", "1e300", "--nc", "4", "--nv", "4", "--times", "1"]
        assert main(argv) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert out.startswith("validation aborted: propagator step of 1 needs 4.")
        assert out.count("\n") == 1 and "substeps > 1000 at (omega1, omega2, gamma)" in out

    def test_coherent_start_on_a_small_basis_runs_its_checks(self, capsys):
        # the exact coherent columns miss 7.6e-8 of the start past 6 levels, above the
        # propagator's trace-drift bound; normalized on its basis, the start still
        # runs, and each check reports the truncation in its own line
        argv = ["validate", "--alpha_re", "0.4", "--alpha_im", "0.2", "--beta_im", "0.3",
                "--nc", "6", "--nv", "6", "--times", "0.5"]
        assert main(argv) == EXIT_VALIDATION
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [f"t=0.5 {check}" for check in (
            "joint trace distance", "mode-c fidelity deficit", "mode-v fidelity deficit",
            "quadrature delta")]

    @pytest.mark.parametrize("N", ["4", "16"])
    def test_overflowing_gamma_refused_quietly(self, N):
        # gamma = 1e308 overflows the propagator's 1-norm; the refusal is the
        # one line on stdout, with no numpy warning on stderr
        done = _run_fresh("-m", "ioncavity.cli", "validate", "--gamma", "1e308",
                          "--nc", N, "--nv", N, "--times", "1")
        assert done.returncode == EXIT_VALIDATION
        assert done.stderr == ""
        assert done.stdout.startswith("validation aborted: propagator step of 1 needs ")

    def test_config_setting_dt_int_loads(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"omega2": 0.2, "gamma": 0.4, "nc": 10, "nv": 10,
                                      "dt_int": 5e-3}), encoding="utf-8")
        assert main(["validate", "--config", str(config), "--times", "0.5"]) == EXIT_OK
        with_dt = capsys.readouterr().out
        # dt_int has no effect on the exact propagator
        argv = ["validate", "--nc", "10", "--nv", "10", "--omega2", "0.2", "--times", "0.5"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == with_dt

    def test_dt_int_must_be_positive(self):
        assert main([*self.ARGV, "--dt_int", "0"]) == EXIT_CONFIG

    def test_series_tol_is_refused(self, tmp_path, capsys):
        # the series stops at the fixed fock.TOL_SERIES: no flag or config key sets it
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--series_tol", "1e-6"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --series_tol" in capsys.readouterr().err
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"series_tol": 1e-6}), encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == EXIT_CONFIG
        assert "unknown config keys: ['series_tol']" in capsys.readouterr().err

    def test_lossless_lines_match_ket_overlap(self, capsys, monkeypatch):
        # at gamma = 0 the lossless line is read off the propagated density;
        # it must be the ket overlap 1 - |<psi_ana|psi>|^2 / (||psi_ana|| ||psi||)^2
        # with psi = exp(-iHt) psi0, and no line may print a negative value
        deficit, seen = lindblad._pure_state_deficit, []

        def recording(psi, rho):
            seen.append((psi, deficit(psi, rho)))
            return seen[-1][1]

        monkeypatch.setattr(lindblad, "_pure_state_deficit", recording)
        assert main([*self.ARGV, "--gamma", "0"]) == EXIT_OK
        values = [float(line.split(": ")[1].split()[0])
                  for line in capsys.readouterr().out.splitlines()[:-1]]
        assert len(values) == 10 and min(values) >= 0.0

        params, dims = classify_regime(1.0, 0.2, 0.0), (10, 10)
        H = dense_hamiltonian(params, dims)
        psi0 = lossless_ket(params, 0.0, 0.0, 0.0, dims)
        assert len(seen) == 2
        for t, (psi_ana, got) in zip((0.5, 1.0), seen):
            psi = scipy.linalg.expm(-1j * t * H) @ psi0
            overlap = abs(np.vdot(psi_ana, psi)) ** 2
            overlap /= (np.linalg.norm(psi_ana) * np.linalg.norm(psi)) ** 2
            assert abs(got - (1.0 - overlap)) <= 1e-15


class TestNonFiniteTimes:
    """Non-finite times and config values are refused as invalid configuration."""

    @pytest.mark.parametrize("argv", [
        ["validate", "--times", "inf"],
        ["validate", "--times", "nan"],
        ["validate", "--times", "0.5,nan"],
        ["sweep-ratio", "--times", "1,inf"],
        ["simulate", "--t_max", "inf"],
        ["simulate", "--t_max", "nan"],
        ["simulate", "--t_step", "inf"],
        ["validate", "--gamma", "nan", "--times", "0.5"],
        ["simulate", "--beta_im", "inf"],
        ["revivals", "--omega2", "nan"],
        ["sweep-ratio", "--alpha_re", "inf"],
    ])
    def test_refused_as_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out_path", str(out)]) == EXIT_CONFIG
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_refused_from_config_file(self, tmp_path, capsys):
        # json reads NaN and Infinity as floats
        config = tmp_path / "run.json"
        config.write_text('{"alpha_re": NaN, "nc": 6, "nv": 6}', encoding="utf-8")
        assert main(["validate", "--config", str(config), "--times", "0.5"]) == EXIT_CONFIG
        assert "non-finite values: alpha_re" in capsys.readouterr().err


class TestConfigFileTypes:
    """Each config-file value must have its RunConfig field's type."""

    @pytest.mark.parametrize("command, text, key", [
        (["validate", "--times", "0.5"], '{"nc": 6.5, "nv": 6}', "nc"),
        (["revivals"], '{"gamma": "0.4"}', "gamma"),
        (["revivals"], '{"omega2": true}', "omega2"),
        (["revivals"], '{"nc": false}', "nc"),
        (["revivals"], '{"out_path": 3}', "out_path"),
        (["revivals"], '{"t_max": [25]}', "t_max"),
    ])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, command, text, key):
        config = tmp_path / "run.json"
        config.write_text(text, encoding="utf-8")
        assert main([*command, "--config", str(config)]) == EXIT_CONFIG
        assert f"config values of the wrong type: {key}" in capsys.readouterr().err

    def test_ints_serve_float_fields(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"omega1": 2, "omega2": 1, "t_max": 25, "out_path": null}',
                          encoding="utf-8")
        assert main(["revivals", "--config", str(config)]) == EXIT_OK


class TestFlagTypes:
    """Each flag parses with its RunConfig field's type, and a negative value
    in e-notation, or -inf or -nan, is a number, not an option string."""

    @pytest.mark.parametrize("command", ["simulate", "revivals", "validate", "sweep-ratio"])
    def test_each_flag_has_its_field_type(self, command):
        kinds = {"int": int, "float": float, "Optional[str]": str}
        parser = cli._build_parser()
        for f in dataclasses.fields(cli.RunConfig):
            assert type(getattr(parser.parse_args([command, f"--{f.name}", "3"]), f.name)) is kinds[f.type]
        assert parser.parse_args([command, "--out_path", "3"]).out_path == "3"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--nc", "6.5"])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["simulate", "revivals", "validate", "sweep-ratio"])
    def test_dt_int_help(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--dt_int DT_INT ignored: the exact propagator takes no step size --out_path" in help_text

    def test_simulate_takes_negative_e_notation(self, tmp_path):
        argv = ["simulate", "--beta_im", "-2.4008587340008667e-06", "--alpha_re", "-1E+0",
                "--t_max", "1", "--out_path", str(tmp_path / "sim.csv")]
        args = cli._build_parser().parse_args(argv)
        assert (args.beta_im, args.alpha_re) == (-2.4008587340008667e-06, -1.0)
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("command", ["simulate", "revivals", "validate", "sweep-ratio"])
    @pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    def test_negative_non_finite_values_are_numbers(self, command, value):
        parsed = cli._build_parser().parse_args([command, "--t_max", value, "--alpha_re", value])
        for got in (parsed.t_max, parsed.alpha_re):
            assert math.isnan(got) if "nan" in value.lower() else got == -math.inf

    @pytest.mark.parametrize("value", ["-infin", "-nanx", "--inf", "-e5", "-"])
    def test_other_dash_words_stay_option_strings(self, value):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(["revivals", "--t_max", value])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [("t_max", "-inf"), ("alpha_re", "-nan")])
    def test_config_check_refuses_negative_non_finite_values(self, capsys, flag, value):
        assert main(["revivals", f"--{flag}", value]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: invalid configuration: non-finite values: {flag}\n"

    def test_validate_takes_negative_e_notation(self, capsys):
        argv = ["validate", "--alpha_re", "-1e-3", "--nc", "6", "--nv", "6", "--times", "0.5"]
        assert cli._build_parser().parse_args(argv).alpha_re == -1e-3
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.endswith("all validation checks passed\n")


def _run_fresh(*args):
    """``python *args`` run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ioncavity.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def _fresh_python(code):
    """The last line that ``python -c code`` prints, run in a fresh interpreter."""
    done = _run_fresh("-c", code)
    done.check_returncode()
    return done.stdout.splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # fock imports scipy.linalg and lindblad scipy.sparse where they are first
    # called, so the closed-form subcommands never load scipy
    loaded = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
    assert _fresh_python(f"import sys, ioncavity.cli; print({loaded})") == "[]"
    runs = [["simulate", "--out_path", str(tmp_path / "sim.csv")],
            ["sweep-ratio", "--out_path", str(tmp_path / "sweep.csv")],
            ["revivals"]]
    # a None entry makes any import of scipy raise ImportError
    assert _fresh_python("import sys; sys.modules['scipy'] = None; from ioncavity.cli import main; "
                         f"print([main(argv) for argv in {runs!r}])") == "[0, 0, 0]"
    assert (tmp_path / "sim.csv").exists() and (tmp_path / "sweep.csv").exists()
    # from a cold start the assembly runs on numpy alone: its frames and R tables are
    # recurrences; only validate()'s potrf loads scipy.linalg, and never scipy.special.
    # On 8 levels the exact frames leave a deficit of 2.0e-6, past TOL_TRACE; on 10, 8.8e-8
    assemble = ("from ioncavity import *; rho = assemble_joint_density(classify_regime(1.0, 0.3, 0.4), "
                "1.0, 0.3, 0.2j, AssemblyBudget(dims=(10, 10)))")
    assert _fresh_python(f"import sys; {assemble}; print({loaded})") == "[]"
    assert _fresh_python(f"import sys; {assemble}; rho.validate(); print('scipy.linalg' in sys.modules, "
                         "'scipy.special' in sys.modules)") == "True False"


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_csv_mode_follows_umask(tmp_path, umask):
    # the temporary file renamed into place gets the mode open(path, "w") would give
    old = os.umask(umask)
    try:
        for argv in (["simulate", "--t_max", "1"], ["sweep-ratio", "--times", "1"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert main([*argv, "--out_path", str(out)]) == EXIT_OK
            assert out.stat().st_mode & 0o777 == 0o666 & ~umask
            out.chmod(0o600)  # a file that already exists keeps its own mode
            assert main([*argv, "--out_path", str(out)]) == EXIT_OK
            assert out.stat().st_mode & 0o777 == 0o600
    finally:
        os.umask(old)


# the values whose %.15g text is the least regular: signed zero, the non-finite
# values, the smallest subnormal, extreme exponents and a value past 15 digits
CSV_VALUES = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300, 1 / 3, 2.0**53]


@pytest.mark.parametrize("rows", [1, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1,
                                  2 * cli.CSV_BLOCK_ROWS + 17],
                         ids=["one_row", "one_block", "block_plus_one", "two_blocks_and_part"])
def test_csv_bytes_match_savetxt(tmp_path, rows):
    # the values cycle through the table row by row, so each row holds them in a shifted order
    table = np.resize(CSV_VALUES, (rows, 12))
    header = "a,b,c,d,e,f,g,h,i,j,k,l"
    cli._write_csv(str(tmp_path / "out.csv"), header, table)
    want = io.BytesIO()
    np.savetxt(want, table, fmt="%.15g", delimiter=",", header=header, comments="")
    assert (tmp_path / "out.csv").read_bytes() == want.getvalue()


class TestParserReuse:
    """main builds its parser once per process, and calls share no state through it."""

    def test_built_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["revivals"]) == EXIT_OK
        first = len(built)  # 0 when an earlier call in this process built it
        assert main(["revivals", "--t_max", "10"]) == EXIT_OK
        assert len(built) == first

    def test_defaults_survive_earlier_flags(self, tmp_path, monkeypatch):
        seen = []
        for name in ("cmd_simulate", "cmd_revivals", "cmd_validate", "cmd_sweep_ratio"):
            monkeypatch.setattr(cli, name, lambda cfg, *times, name=name: seen.append((name, cfg, *times)) or 0)
        sim_path = str(tmp_path / "sim.csv")
        assert main(["simulate", "--omega2", "0.5", "--out_path", sim_path]) == 0
        assert main(["revivals", "--t_max", "3"]) == 0
        assert main(["validate", "--times", "0.5"]) == 0
        assert main(["sweep-ratio", "--out_path", str(tmp_path / "sweep.csv")]) == 0
        (sim, sim_cfg), (rev, rev_cfg), (val, val_cfg, val_times), (sweep, sweep_cfg, sweep_times) = seen
        assert (sim, rev, val, sweep) == ("cmd_simulate", "cmd_revivals", "cmd_validate", "cmd_sweep_ratio")
        assert sim_cfg.omega2 == 0.5 and sim_cfg.out_path == sim_path
        assert rev_cfg.omega2 == 0.6 and rev_cfg.t_max == 3.0 and rev_cfg.out_path is None
        assert val_cfg.omega2 == cli.VALIDATE_OMEGA2 and val_times == [0.5]
        assert sweep_cfg.omega2 == 0.6 and sweep_times == [1.0, 5.0, 10.0]

    def test_second_simulate_matches_a_fresh_process(self, tmp_path):
        first = ["simulate", "--omega2", "0.9", "--gamma", "3", "--alpha_im", "0.4",
                 "--t_max", "7", "--out_path", str(tmp_path / "first.csv")]
        second = ["simulate", "--beta_re", "0.2", "--t_max", "2", "--t_step", "0.03",
                  "--out_path", str(tmp_path / "second.csv")]
        assert main(first) == EXIT_OK and main(second) == EXIT_OK
        fresh = tmp_path / "fresh.csv"
        done = _run_fresh("-m", "ioncavity.cli", *second[:-1], str(fresh))
        assert done.returncode == EXIT_OK
        assert (tmp_path / "second.csv").read_bytes() == fresh.read_bytes()
