"""The command-line front end, end to end through ``main``.

CSV values are checked against the covariance oracle of test_observables
(solve_ivp on the moment equations), which never touches the closed forms.
Each reduced state is a squeezed thermal state with no X-P correlation, so
its (n_bar, xi) follow from the oracle's diagonal:
n_bar = sqrt(Var X Var P) - 1/2 and xi = (1/4) ln(Var P / Var X).
``validate`` is checked for its report layout, which scripts parse.
"""

import json
import math
import re

import numpy as np
import pytest

from ioncavity.cli import CSV_HEADER, EXIT_CONFIG, EXIT_NO_REVIVALS, EXIT_OK, main
from ioncavity.params import classify_regime
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


class TestRevivals:
    def test_overdamped_has_none(self, capsys):
        assert main(["revivals", *_point_flags(1.0, 0.6, 4.0)]) == EXIT_NO_REVIVALS
        assert "no revivals" in capsys.readouterr().err

    def test_oscillatory_lists_both_kinds(self, capsys):
        assert main(["revivals", *_point_flags(1.0, 0.6, 0.4), "--t_max", "20"]) == EXIT_OK
        kinds = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        assert "motion" in kinds and "cavity" in kinds
        assert kinds.count("cavity") == 1 + math.floor(20 * math.sqrt(0.63) / math.pi)


class TestValidate:
    # N = 10 lies below default_dim = 16.  At validate's default
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
