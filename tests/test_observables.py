"""Closed-form observables against independent moment-equation oracles.

Two oracles below derive directly from the master equation with
H = i omega1 (ad b - a bd) + i omega2 (ad bd - a b) and cavity loss gamma:

* first moments:  d<a>/dt = omega1 <b> + omega2 <b*> - (gamma/2) <a>,
                  d<b>/dt = -omega1 <a> + omega2 <a*>;
* quadrature covariances (basis X_c, P_c, X_v, P_v):
  dV/dt = A V + V A^T + D with D = diag(gamma/2, gamma/2, 0, 0) and
      A = [[-g/2, 0, o1+o2, 0], [0, -g/2, 0, o1-o2],
           [-(o1-o2), 0, 0, 0], [0, -(o1+o2), 0, 0]].

Both are integrated with solve_ivp at tight tolerance and never touch the
closed forms they check.  At gamma = 0 the forms are also held against the
paper's lossless formulas, the ``lossless_oracle`` helper module.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from ioncavity import (
    RegimeError,
    ValidityError,
    classify_regime,
    displacement_trajectory,
    envelope,
    lossless_ket,
    mode_spec,
    nbar_max,
    quad_variances,
    revival_schedule,
    steady_squeeze,
)
import ioncavity.observables as observables
from ioncavity.observables import QuadTuple, squeezed_thermal
from ioncavity.params import _damped_parts
from lossless_oracle import lossless_spec

OSC = classify_regime(1.0, 0.6, 0.4)
OSC3 = classify_regime(1.0, 0.3, 0.4)
OVER = classify_regime(1.0, 0.95, 1.5)
EQUAL = classify_regime(1.0, 1.0, 0.4)
GROWING = classify_regime(1.0, 1.3, 0.4)
LOSSLESS = classify_regime(1.0, 0.6, 0.0)

# one point per regime and limit
REGIME_POINTS = [
    pytest.param((1.0, 0.6, 0.4), id="oscillatory"),
    pytest.param((1.0, 0.6, 4.0), id="overdamped"),
    pytest.param((1.0, 0.6, 4.0 * math.sqrt(1.0 - 0.36)), id="degenerate"),
    pytest.param((1.0, 1.0, 0.4), id="equal_coupling"),
    pytest.param((1.0, 1.3, 0.4), id="growing"),
    pytest.param((1.0, 0.6, 0.0), id="lossless"),
    pytest.param((1.0, 0.0, 0.4), id="omega2_zero"),
]

# frozen from the bisection oracle below (brentq on the envelope functions)
TAU_0 = 2.1369155784089675
TAU_PRIME_1 = 3.958034705745753


def covariance_oracle(params, ts):
    o1, o2, g = params.omega1, params.omega2, params.gamma
    A = np.array([
        [-g / 2, 0.0, o1 + o2, 0.0],
        [0.0, -g / 2, 0.0, o1 - o2],
        [-(o1 - o2), 0.0, 0.0, 0.0],
        [0.0, -(o1 + o2), 0.0, 0.0],
    ])
    D = np.diag([g / 2, g / 2, 0.0, 0.0])

    def rhs(_t, v):
        V = v.reshape(4, 4)
        return (A @ V + V @ A.T + D).ravel()

    sol = solve_ivp(rhs, (0.0, ts[-1]), (0.5 * np.eye(4)).ravel(), t_eval=ts,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return [sol.y[:, i].reshape(4, 4) for i in range(len(ts))]


def moment_oracle(params, alpha, beta, ts):
    o1, o2, g = params.omega1, params.omega2, params.gamma

    def rhs(_t, y):
        ur, ui, vr, vi = y
        return [(o1 + o2) * vr - 0.5 * g * ur,
                (o1 - o2) * vi - 0.5 * g * ui,
                -(o1 - o2) * ur,
                -(o1 + o2) * ui]

    y0 = [alpha.real, alpha.imag, beta.real, beta.imag]
    sol = solve_ivp(rhs, (0.0, ts[-1]), y0, t_eval=ts,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return [complex(sol.y[0, i], sol.y[1, i]) for i in range(len(ts))], [
        complex(sol.y[2, i], sol.y[3, i]) for i in range(len(ts))
    ]


class TestModeSpec:
    def test_vacuum_start(self):
        for mode in "cv":
            spec = mode_spec(OSC, 0.0, mode)
            assert spec.n_bar == 0.0 and spec.xi == 0.0 and spec.zeta == 0.0

    def test_no_parametric_drive_is_trivial(self):
        p = classify_regime(1.0, 0.0, 0.4)
        spec = mode_spec(p, 2.0, "v")
        assert spec.n_bar == spec.xi == 0.0

    def test_motion_revival_values(self):
        spec = mode_spec(OSC, TAU_0, "v")
        assert abs(spec.n_bar) < 1e-12
        assert spec.xi == pytest.approx(steady_squeeze(OSC), abs=1e-12)

    def test_cavity_revival_values(self):
        spec = mode_spec(OSC, TAU_PRIME_1, "c")
        assert abs(spec.n_bar) < 1e-12
        assert abs(spec.xi) < 1e-12

    def test_sign_convention(self):
        for t in (0.5, 1.0, 1.8):
            assert mode_spec(OSC, t, "c").xi <= 0.0
            assert mode_spec(OSC, t, "v").xi >= 0.0

    def test_zeta_is_f_g(self):
        for t in (0.4, 1.1, 2.7):
            for mode in "cv":
                assert mode_spec(OSC, t, mode).zeta == pytest.approx(
                    envelope(OSC, t).f * envelope(OSC, t).g, abs=1e-14)

    def test_one_envelope_evaluation(self, monkeypatch):
        from ioncavity import observables
        calls = []
        monkeypatch.setattr(observables, "_damped_parts",
                            lambda *args: calls.append(args) or _damped_parts(*args))
        for mode in "cv":
            mode_spec(OSC, 1.1, mode)
        assert len(calls) == 2

    def test_values_pinned(self):
        # the values before the envelope parts were shared, bit for bit
        want = {"c": (0.12479696316003641, -0.3338270826646973, 0.3435534590460388),
                "v": (0.12328321954332411, 0.38367582169809067, 0.3435534590460388)}
        for mode, (n_bar, xi, zeta) in want.items():
            spec = mode_spec(OSC, 1.1, mode)
            assert (spec.n_bar, spec.xi, spec.zeta) == (n_bar, xi, zeta)

    @pytest.mark.parametrize("point", REGIME_POINTS)
    def test_matches_covariance_oracle(self, point):
        p = classify_regime(*point)
        ts = np.array([0.3, 1.0, 2.5, 5.0])
        Vs = covariance_oracle(p, ts)
        for mode, i in (("c", 0), ("v", 2)):
            spec = mode_spec(p, ts, mode)
            for t, nb, xi, V in zip(ts, spec.n_bar, spec.xi, Vs):
                want_nb, want_xi = squeezed_thermal(V[i, i], V[i + 1, i + 1], p, t, mode)
                assert nb == pytest.approx(want_nb, abs=1e-8, rel=1e-8)
                assert xi == pytest.approx(want_xi, abs=1e-8, rel=1e-8)

    def test_equal_coupling_mode_c_allowed(self):
        spec = mode_spec(EQUAL, 1.0, "c")
        assert spec.n_bar > 0.0 and spec.xi < 0.0

    def test_validity_guard_raises(self):
        # weights (mu, nu) = (1, 0.2), then (inf, 0.2), as Var X = nu + 1/2 + mu, Var P = nu + 1/2 - mu
        with pytest.raises(ValidityError, match=r"omega2=0\.6, gamma=0\.4, t=1\.5, mode=v"):
            squeezed_thermal([0.5, 1.7], [0.5, -0.3], OSC, [1.0, 1.5], "v")
        with pytest.raises(ValidityError):
            squeezed_thermal(math.inf, -math.inf, OSC, 1.0, "c")

    def test_steady_state_limit(self):
        t = 50.0 / OSC.gamma
        assert mode_spec(OSC, t, "c").n_bar < 1e-6
        assert abs(mode_spec(OSC, t, "c").xi) < 1e-6
        assert mode_spec(OSC, t, "v").n_bar < 1e-6
        assert mode_spec(OSC, t, "v").xi == pytest.approx(steady_squeeze(OSC), abs=1e-6)

    def test_monotone_divergence_above_equal_coupling(self):
        ts = np.linspace(0.2, 12.0, 40)
        nb_c = [mode_spec(GROWING, t, "c").n_bar for t in ts]
        nb_v = [mode_spec(GROWING, t, "v").n_bar for t in ts]
        zeta = [abs(mode_spec(GROWING, t, "c").zeta) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(nb_c, nb_c[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(nb_v, nb_v[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(zeta, zeta[1:]))
        # xi_sigma converge: nu -> inf in the weight-to-parameter map gives
        # +-(1/4) ln((o2+o1)/(o2-o1)) (confirmed by the covariance oracle)
        xi_inf = 0.25 * math.log((1.3 + 1.0) / (1.3 - 1.0))
        assert mode_spec(GROWING, 40.0, "v").xi == pytest.approx(xi_inf, abs=1e-4)
        assert mode_spec(GROWING, 40.0, "c").xi == pytest.approx(-xi_inf, abs=1e-4)


class TestSteadySqueeze:
    def test_paper_values_exact(self):
        assert math.exp(-2 * steady_squeeze(OSC)) == pytest.approx(0.25, abs=1e-12)
        p = classify_regime(1.0, 0.9, 0.4)
        assert math.exp(-2 * steady_squeeze(p)) == pytest.approx(1.0 / 19.0, abs=1e-12)

    def test_no_drive(self):
        assert steady_squeeze(classify_regime(1.0, 0.0, 0.4)) == 0.0

    def test_equal_coupling_rejected(self):
        with pytest.raises(RegimeError):
            steady_squeeze(EQUAL)


class TestNbarMax:
    def test_point_values(self):
        assert nbar_max(classify_regime(1.0, 0.0, 0.1)) == 0.0
        assert nbar_max(OSC) == pytest.approx(0.125, abs=1e-15)

    def test_small_ratio_quadratic(self):
        r = 0.05
        p = classify_regime(1.0, r, 0.1)
        assert nbar_max(p) == pytest.approx(0.25 * r * r, rel=5e-3)

    def test_rejects_strong_drive(self):
        with pytest.raises(RegimeError):
            nbar_max(EQUAL)

    def test_grid_maximum_oracle(self):
        # gamma = 0: the bound is attained; gamma > 0: it stays an upper bound
        lossless = classify_regime(1.0, 0.6, 0.0)
        lam = math.sqrt(lossless.lambda_sq)
        ts = np.linspace(1e-4, 4 * math.pi / lam, 45000)
        grid_max = mode_spec(lossless, ts, "c").n_bar.max()
        assert grid_max == pytest.approx(0.125, abs=1e-6)
        lam = math.sqrt(OSC.lambda_sq)
        ts = np.linspace(1e-4, 4 * math.pi / lam, 4000)
        damped_max = mode_spec(OSC, ts, "c").n_bar.max()
        assert damped_max <= 0.125 + 1e-9


class TestRevivalSchedule:
    def test_frozen_values(self):
        sched = revival_schedule(OSC, 10.0)
        assert sched.tau_motion[0] == pytest.approx(TAU_0, abs=1e-12)
        assert sched.tau_motion[1] == pytest.approx(6.094950284154720, abs=1e-12)
        assert sched.tau_cavity[0] == 0.0
        assert sched.tau_cavity[1] == pytest.approx(TAU_PRIME_1, abs=1e-12)
        assert sched.tau_cavity[2] == pytest.approx(7.916069411491506, abs=1e-12)

    def test_bisection_oracle(self):
        tau0 = brentq(lambda t: envelope(OSC, t).f, 1.5, 2.5, xtol=1e-14)
        tau1p = brentq(lambda t: envelope(OSC, t).g, 3.0, 4.5, xtol=1e-14)
        sched = revival_schedule(OSC, 10.0)
        assert abs(sched.tau_motion[0] - tau0) < 1e-9
        assert abs(sched.tau_cavity[1] - tau1p) < 1e-9

    def test_residuals_and_spacing(self):
        sched = revival_schedule(OSC, 25.0)
        lam = math.sqrt(OSC.lambda_sq)
        for tau in sched.tau_motion:
            assert abs(envelope(OSC, tau).f) < 1e-12
        for tau in sched.tau_cavity:
            assert abs(envelope(OSC, tau).g) < 1e-12
        for seq in (sched.tau_motion, sched.tau_cavity):
            for a, b in zip(seq, seq[1:]):
                assert b - a == pytest.approx(math.pi / lam, abs=1e-12)

    def test_zero_loss_quarter_period(self):
        sched = revival_schedule(LOSSLESS, 10.0)
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        assert sched.tau_motion[0] == pytest.approx(math.pi / (2 * lam0), abs=1e-12)

    @pytest.mark.parametrize("params", [EQUAL, OVER,
                                        classify_regime(1.0, 0.6, 3.2)])
    def test_rejected_regimes(self, params):
        with pytest.raises(RegimeError):
            revival_schedule(params, 10.0)

    @pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf])
    def test_horizon_must_be_finite_and_nonnegative(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and >= 0"):
            revival_schedule(OSC, horizon)

    @pytest.mark.parametrize("params", [OSC, OSC3, LOSSLESS])  # the revivals workload points
    def test_lists_match_the_defining_loop(self, params):
        def loop(first, spacing, horizon):
            taus, n = [], 0
            while first + n * spacing <= horizon:
                taus.append(first + n * spacing)
                n += 1
            return tuple(taus)

        spacing = math.pi / math.sqrt(params.lambda_sq)
        tau0 = revival_schedule(params, 1000.0).tau_motion[0]
        # each tau_k and tau'_k is a horizon that its own list must include
        boundaries = [loop(first, spacing, 1000.0)[k] for first in (tau0, 0.0) for k in (0, 1, 2, 17, -1)]
        for horizon in [0.0, 1e-9, 1000.0, *boundaries]:
            sched = revival_schedule(params, horizon)
            assert sched.tau_motion == loop(tau0, spacing, horizon)
            assert sched.tau_cavity == loop(0.0, spacing, horizon)
            assert all(type(tau) is float for tau in sched.tau_motion + sched.tau_cavity)
        assert revival_schedule(params, boundaries[1]).tau_motion[-1] == boundaries[1]


class TestQuadVariances:
    def test_vacuum_start(self):
        q = quad_variances(OSC, 0.0)
        assert (q.var_xc, q.var_pc, q.var_xv, q.var_pv) == (0.5, 0.5, 0.5, 0.5)

    def test_motion_squeeze_floor(self):
        assert quad_variances(OSC, TAU_0).var_xv == pytest.approx(0.125, abs=1e-12)
        p = classify_regime(1.0, 0.9, 1.0)
        sched = revival_schedule(p, 20.0)
        got = quad_variances(p, sched.tau_motion[0]).var_xv
        assert got == pytest.approx(0.05 / 1.9, abs=1e-12)

    def test_cavity_momentum_returns_to_half(self):
        for tau in revival_schedule(OSC, 20.0).tau_cavity:
            assert quad_variances(OSC, tau).var_pc == pytest.approx(0.5, abs=1e-15)

    def test_covariance_oracle_all_regimes(self):
        ts = np.linspace(0.05, 6.0, 25)
        for params in (OSC, OSC3, OVER, EQUAL, GROWING):
            Vs = covariance_oracle(params, ts)
            for t, V in zip(ts, Vs):
                q = quad_variances(params, float(t))
                # rel term absorbs the oracle's own error on growing variances
                assert q.var_xc == pytest.approx(V[0, 0], abs=1e-8, rel=1e-8)
                assert q.var_pc == pytest.approx(V[1, 1], abs=1e-8, rel=1e-8)
                assert q.var_xv == pytest.approx(V[2, 2], abs=1e-8, rel=1e-8)
                assert q.var_pv == pytest.approx(V[3, 3], abs=1e-8, rel=1e-8)

    def test_equal_coupling_closed_forms(self):
        omega, gamma = 1.0, 0.4
        for t in (0.3, 1.0, 2.5, 5.0):
            q = quad_variances(EQUAL, t)
            assert q.var_pc == 0.5 and q.var_xv == 0.5
            assert q.var_xc == pytest.approx(
                0.5 + (8 * omega**2 / gamma**2) * (1 - math.exp(-gamma * t / 2)) ** 2,
                rel=1e-12)

    def test_uncertainty_product(self):
        for params in (OSC, OSC3, OVER, GROWING):
            for t in (0.3, 1.2, 3.1):
                q = quad_variances(params, t)
                for mode, vx, vp in (("c", q.var_xc, q.var_pc), ("v", q.var_xv, q.var_pv)):
                    nb = mode_spec(params, t, mode).n_bar
                    assert vx * vp == pytest.approx((nb + 0.5) ** 2, rel=1e-12)

    def test_eq36_equals_eq37(self):
        for params in (OSC, OSC3, OVER, GROWING):
            for t in np.linspace(0.1, 5.0, 21):
                q = quad_variances(params, float(t))
                for mode, vx, vp in (("c", q.var_xc, q.var_pc), ("v", q.var_xv, q.var_pv)):
                    s = mode_spec(params, float(t), mode)
                    assert vx == pytest.approx((s.n_bar + 0.5) * math.exp(-2 * s.xi), abs=1e-10)
                    assert vp == pytest.approx((s.n_bar + 0.5) * math.exp(2 * s.xi), abs=1e-10)

    def test_variance_crossing_at_equal_coupling(self):
        for t in (1.0, 5.0, 10.0):
            assert quad_variances(classify_regime(1.0, 1.0, 0.4), t).var_xv == 0.5

    def test_squeezing_persistence(self):
        ts = np.linspace(0.05, 15.0, 120)
        taus = set(np.round(revival_schedule(OSC, 16.0).tau_cavity, 6))
        for t in ts:
            q = quad_variances(OSC, float(t))
            assert q.var_xv < 0.5
            if not any(abs(t - tau) < 0.05 for tau in taus):
                assert q.var_pc < 0.5

    def test_no_drive_stays_vacuum(self):
        p = classify_regime(1.0, 0.0, 0.4)
        q = quad_variances(p, 3.0)
        assert (q.var_xc, q.var_pc, q.var_xv, q.var_pv) == (0.5, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("point", [(1.0, 0.6, 0.4), (1.0, 0.6, 4.0), (1.0, 0.0, 0.4)],
                             ids=["oscillatory", "overdamped", "omega2_zero"])
    @pytest.mark.parametrize("t", [2.3, np.linspace(0.0, 8.0, 41)], ids=["scalar", "array"])
    def test_one_envelope_evaluation(self, monkeypatch, point, t):
        # means and variances share one _damped_parts call, and the means keep
        # displacement_trajectory's bits
        p = classify_regime(*point)
        alpha, beta = 0.3 - 0.4j, -0.2 + 0.1j
        u, v = displacement_trajectory(p, alpha, beta, t)
        calls = []

        def counted(*args):
            calls.append(args)
            return _damped_parts(*args)

        monkeypatch.setattr(observables, "_damped_parts", counted)
        q = quad_variances(p, t, alpha, beta)
        assert len(calls) == 1
        want = [math.sqrt(2.0) * part(x) for x in (u, v) for part in (np.real, np.imag)]
        got = [q.mean_xc, q.mean_pc, q.mean_xv, q.mean_pv]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestNearEqualCouplingPrecision:
    """nu_v and Var P_v near omega2 = 1 against a 50-digit reference.

    At omega2 = 1 - 1e-7 f stays within ~1e-7 of 1, so 1 - f^2 must be formed
    without the cancellation of 1 - f*f.  At omega2 = 1 -+ 5e-10 the point
    is tagged equal coupling, where the weight (1 - f^2)/L0^2 must not be
    formed by dividing by L0^2.  The reference takes the double inputs
    exactly and continues cos/sin to cosh/sinh through a complex L.
    """

    POINTS = [(0.4, 3.0), (0.4, 0.3), (2.0, 1e-3), (0.0, 3.0)]

    @pytest.mark.parametrize("gamma,t", POINTS)
    def test_matches_high_precision_reference(self, gamma, t):
        self._check(1.0 - 1e-7, gamma, t)

    @pytest.mark.parametrize("omega2", [1.0 - 5e-10, 1.0 + 5e-10], ids=["below", "above"])
    @pytest.mark.parametrize("gamma,t", POINTS)
    def test_equal_coupling_band_matches_reference(self, omega2, gamma, t):
        self._check(omega2, gamma, t)

    @staticmethod
    def _check(omega2, gamma, t):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            w2, gm, s = mp.mpf(omega2), mp.mpf(gamma), mp.mpf(t)
            l0_sq = (1 - w2) * (1 + w2)
            lam = mp.sqrt(mp.mpc(l0_sq - gm * gm / 16))
            f = mp.re(mp.exp(-gm * s / 4) * (mp.cos(lam * s) + gm / (4 * lam) * mp.sin(lam * s)))
            nu_v = (1 - f * f) * w2 * w2 / l0_sq
            var_pv = mp.mpf(0.5) + w2 / (1 - w2) * (1 - f * f)
            p = classify_regime(1.0, omega2, gamma)
            got_nu_v = omega2 * omega2 * _damped_parts(p, t)[3]
            got_var_pv = quad_variances(p, t).var_pv
            assert abs((got_nu_v - nu_v) / nu_v) < 1e-12
            assert abs((got_var_pv - var_pv) / var_pv) < 1e-12


class TestDisplacementTrajectory:
    def test_initial_amplitudes(self):
        u, v = displacement_trajectory(OSC, 0.5 + 0.1j, -0.2j, 0.0)
        assert u == 0.5 + 0.1j and v == -0.2j

    def test_cavity_returns_to_center(self):
        for beta in (0.0, 0.5 + 0.2j):
            u, _ = displacement_trajectory(OSC, 0.0, beta, TAU_PRIME_1)
            assert abs(u) < 1e-13

    def test_moment_ode_oracle(self):
        ts = np.linspace(0.05, 4.0, 17)
        for params in (OSC, OSC3, EQUAL, OVER):
            us, vs = moment_oracle(params, 0.5 + 0.0j, 0.3j, ts)
            for t, u_ref, v_ref in zip(ts, us, vs):
                u, v = displacement_trajectory(params, 0.5, 0.3j, float(t))
                assert abs(u - u_ref) < 1e-8
                assert abs(v - v_ref) < 1e-8

    def test_no_parametric_drive_closed_form(self):
        # omega2 = 0: g = 0, and the q g terms are omega1 s with s = sin(L t) e^{-gamma t/4}/L
        p = classify_regime(1.0, 0.0, 0.4)
        alpha, beta, t = 0.4 + 0.3j, 0.2 - 0.1j, 1.3
        lam = math.sqrt(p.lambda_sq)
        damp = math.exp(-p.gamma * t / 4.0)
        c, s = math.cos(lam * t) * damp, math.sin(lam * t) / lam * damp
        f, h = c + (p.gamma / 4.0) * s, c - (p.gamma / 4.0) * s
        u, v = displacement_trajectory(p, alpha, beta, t)
        assert u == pytest.approx(alpha * h + beta * p.omega1 * s, rel=1e-13)
        assert v == pytest.approx(-alpha * p.omega1 * s + beta * f, rel=1e-13)

    def test_no_parametric_drive_limit(self):
        p = classify_regime(1.0, 0.0, 0.4)
        ts = np.linspace(0.05, 4.0, 9)
        us, vs = moment_oracle(p, 0.4, 0.2 - 0.1j, ts)
        for t, u_ref, v_ref in zip(ts, us, vs):
            u, v = displacement_trajectory(p, 0.4, 0.2 - 0.1j, float(t))
            assert abs(u - u_ref) < 1e-8
            assert abs(v - v_ref) < 1e-8


#: the gamma = 0 sweep against the paper's lossless formulas: couplings, times and starts
LOSSLESS_RATIOS = [0.0, 0.1, 0.3, 0.6, 0.9, 0.99]
LOSSLESS_TIMES = np.linspace(0.0, 12.0, 49)
LOSSLESS_STARTS = [(0j, 0j), (0.5j, 0.3 + 0j), (0.2 + 0.3j, -0.4j)]


class TestLosslessSpec:
    """At gamma = 0 the library's general forms against the paper's lossless
    formulas, the test oracle ``lossless_oracle``."""

    def test_initial_state(self):
        spec = lossless_spec(LOSSLESS, 0.3, 0.2j, 0.0)
        assert spec.product_state == 1
        for mode, sign in (("c", -1.0), ("v", 1.0)):
            ms = mode_spec(LOSSLESS, 0.0, mode)
            assert ms.n_bar == spec.n_bar0 == 0.0
            assert ms.xi == pytest.approx(sign * spec.xi0, abs=1e-15)
        assert displacement_trajectory(LOSSLESS, 0.3, 0.2j, 0.0) == (spec.u0, spec.v0)

    def test_quarter_period_state(self):
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        t = math.pi / (2 * lam0)
        spec = lossless_spec(LOSSLESS, 0.3, 0.2j, t)
        assert spec.product_state == 2
        u, v = displacement_trajectory(LOSSLESS, 0.3, 0.2j, t)
        assert u == pytest.approx(spec.alpha_bar, abs=1e-12)
        assert v == pytest.approx(spec.beta_bar, abs=1e-12)
        for mode, sign in (("c", -1.0), ("v", 1.0)):
            ms = mode_spec(LOSSLESS, t, mode)
            assert abs(ms.n_bar) < 1e-12
            assert ms.xi == pytest.approx(sign * steady_squeeze(LOSSLESS), abs=1e-12)

    def test_bar_amplitudes(self):
        # at t_m = m pi/(2 L0) the displacements cycle (alpha, beta) -> (alpha_bar, beta_bar)
        # -> (-alpha, -beta) -> (-alpha_bar, -beta_bar)
        for ratio, (alpha, beta) in itertools.product(LOSSLESS_RATIOS, LOSSLESS_STARTS):
            p = classify_regime(1.0, ratio, 0.0)
            lam0 = math.sqrt(p.lambda0_sq)
            spec = lossless_spec(p, alpha, beta, 0.7)
            cycle = [(alpha, beta), (spec.alpha_bar, spec.beta_bar)]
            cycle += [(-a, -b) for a, b in cycle]
            for m, want in enumerate(cycle):
                got = displacement_trajectory(p, alpha, beta, m * math.pi / (2 * lam0))
                assert np.abs(np.subtract(got, want)).max() <= 1e-13, (ratio, alpha, beta, m)

    @pytest.mark.parametrize("ratio", LOSSLESS_RATIOS)
    def test_general_forms_match_oracle(self, ratio):
        # mode_spec gives (n_bar0, -xi0) for the cavity and (n_bar0, xi0) for the motion,
        # displacement_trajectory gives (u0, v0), and zeta = f g has the sign of
        # sin(2 L0 t); n_bar0 -> 0 at every t_m, so each value is held to 1e-13
        # relative to max(|oracle|, 1)
        p = classify_regime(1.0, ratio, 0.0)
        lam0 = math.sqrt(p.lambda0_sq)
        spec_c, spec_v = mode_spec(p, LOSSLESS_TIMES, "c"), mode_spec(p, LOSSLESS_TIMES, "v")
        for alpha, beta in LOSSLESS_STARTS:
            u, v = displacement_trajectory(p, alpha, beta, LOSSLESS_TIMES)
            for i, t in enumerate(LOSSLESS_TIMES.tolist()):
                spec = lossless_spec(p, alpha, beta, t)
                pairs = [(spec_c.n_bar[i], spec.n_bar0), (spec_c.xi[i], -spec.xi0),
                         (spec_v.n_bar[i], spec.n_bar0), (spec_v.xi[i], spec.xi0),
                         (u[i], spec.u0), (v[i], spec.v0)]
                for got, want in pairs:
                    assert abs(got - want) <= 1e-13 * max(abs(want), 1.0), (ratio, t, alpha, beta)
        s2 = np.sin(2 * lam0 * LOSSLESS_TIMES)
        live = np.abs(s2) > 1e-12
        if ratio > 0:
            assert live.sum() > 40
            assert np.array_equal(np.sign(spec_c.zeta[live]), np.sign(s2[live]))
        else:
            assert not spec_c.zeta.any()

    def test_periodicity(self):
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        period = 2 * math.pi / lam0
        ts = np.array([0.3, 1.1, 2.9])
        for mode in ("c", "v"):
            a, b = mode_spec(LOSSLESS, ts, mode), mode_spec(LOSSLESS, ts + period, mode)
            for field in ("n_bar", "xi", "zeta"):
                np.testing.assert_allclose(getattr(a, field), getattr(b, field), rtol=0, atol=1e-12)
        for x, y in zip(displacement_trajectory(LOSSLESS, 0.3, 0.2j, ts),
                        displacement_trajectory(LOSSLESS, 0.3, 0.2j, ts + period)):
            assert np.abs(x - y).max() < 1e-12

    def test_product_state_cycle(self):
        # the oracle's product state psi_1 .. psi_4 at each t_m, where the library's
        # entangling weight zeta = f g vanishes
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        want = [1, 2, 3, 4, 1, 2, 3, 4]
        t_m = [m * math.pi / (2 * lam0) for m in range(8)]
        assert [lossless_spec(LOSSLESS, 0.1, 0.2, t).product_state for t in t_m] == want
        assert lossless_spec(LOSSLESS, 0.1, 0.2, 0.37).product_state is None
        for mode in ("c", "v"):
            assert np.abs(mode_spec(LOSSLESS, np.array(t_m), mode).zeta).max() <= 1e-15
        assert abs(mode_spec(LOSSLESS, 0.37, "c").zeta) > 0.1

    def test_revivals_are_the_quarter_periods(self):
        # up to t = 12 the motion revivals tau_n are the odd t_m and the cavity
        # revivals tau'_n the even t_m
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        t_m = [m * math.pi / (2 * lam0) for m in range(7)]  # t_7 = 13.7
        sched = revival_schedule(LOSSLESS, 12.0)
        np.testing.assert_allclose(sched.tau_motion, t_m[1::2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(sched.tau_cavity, t_m[0::2], rtol=0, atol=1e-12)

    def test_rejected_inputs(self):
        # a lossy point is refused by the library's lossless ket as by the oracle
        with pytest.raises(RegimeError) as want:
            lossless_spec(OSC, 0.1, 0.1, 1.0)
        with pytest.raises(RegimeError) as got:
            lossless_ket(OSC, 0.1, 0.1, 1.0, (8, 8))
        assert str(got.value) == str(want.value) == "lossless solution requires gamma = 0"

    def test_overflowing_lambda0_sq_refused(self):
        # omega1^2 overflows, so L^2 = L0^2 = inf: named by the closed forms, as at every gamma
        with pytest.raises(ValidityError) as exc:
            lossless_ket(classify_regime(1e300, 0.3, 0.0), 0.1, 0.1, 1.0, (8, 8))
        assert str(exc.value) == "L^2 = inf is not finite at (omega1=1e+300, omega2=0.3, gamma=0)"


class TestArrayContract:
    """One call over an array of times agrees with the scalar calls.

    Scalars come back as Python floats (complex for displacements), arrays
    as arrays of the input shape; values agree within 2 ulps.
    """

    TS = np.concatenate([[0.0], np.linspace(0.01, 30.0, 61)])
    ALPHA, BETA = 0.3 + 0.1j, -0.2j

    @staticmethod
    def _agree(array_value, scalar_values, kind=float):
        assert all(type(x) is kind for x in scalar_values)
        assert np.shape(array_value) == (len(scalar_values),)
        want = np.array(scalar_values)
        for part in (np.real, np.imag) if kind is complex else (np.real,):
            np.testing.assert_array_max_ulp(part(array_value), part(want), maxulp=2)

    @pytest.mark.parametrize("point", REGIME_POINTS)
    def test_array_matches_scalar(self, point):
        p = classify_regime(*point)
        ts = self.TS
        env = envelope(p, ts)
        for field in ("f", "g", "h"):
            self._agree(getattr(env, field), [getattr(envelope(p, t), field) for t in ts])
        quads = quad_variances(p, ts, self.ALPHA, self.BETA)
        scalar_quads = [quad_variances(p, t, self.ALPHA, self.BETA) for t in ts]
        for field in quads.__dataclass_fields__:
            self._agree(getattr(quads, field), [getattr(q, field) for q in scalar_quads])
        u, v = displacement_trajectory(p, self.ALPHA, self.BETA, ts)
        scalar_uv = [displacement_trajectory(p, self.ALPHA, self.BETA, t) for t in ts]
        self._agree(u, [x[0] for x in scalar_uv], complex)
        self._agree(v, [x[1] for x in scalar_uv], complex)
        for mode in ("c", "v"):
            spec = mode_spec(p, ts, mode)
            scalar_specs = [mode_spec(p, t, mode) for t in ts]
            for field in ("n_bar", "xi", "zeta"):
                self._agree(getattr(spec, field), [getattr(s, field) for s in scalar_specs])


#: the ratio grid of sweep-ratio, and the benchmark's sweep times
SWEEP_RATIOS = [k / 100 for k in range(10, 151)]
SWEEP_TIMES = np.array([k / 5 for k in range(1, 51)])
#: the benchmark's regime points in one sequence: oscillatory, overdamped, degenerate,
#: equal coupling, omega2 = 0, near equal coupling and lossless
MIXED_POINTS = [(1.0, 0.6, 0.4), (1.0, 0.6, 4.0), (1.0, 0.6, 3.2), (1.0, 1.0, 0.4),
                (1.0, 0.0, 0.4), (1.0, 0.99999, 2.0), (1.0, 0.6, 0.0)]


class TestSequenceOfParams:
    """quad_variances over a sequence of CouplingParams is, field by field and
    bit for bit, the stack of the calls with each CouplingParams alone."""

    ALPHA, BETA = 0.3 - 0.4j, 0.1 + 0.28j

    @pytest.mark.parametrize("points", [
        pytest.param([(1.0, r, 0.0) for r in SWEEP_RATIOS], id="sweep_gamma0"),
        pytest.param([(1.0, r, 0.4) for r in SWEEP_RATIOS], id="sweep_gamma0.4"),
        pytest.param([(1.0, r, 4.0) for r in SWEEP_RATIOS], id="sweep_gamma4"),
        pytest.param(MIXED_POINTS, id="mixed"),
    ])
    @pytest.mark.parametrize("t", [2.3, SWEEP_TIMES], ids=["scalar", "array"])
    def test_matches_per_params_calls(self, points, t):
        seq = [classify_regime(*p) for p in points]
        got = quad_variances(seq, t, self.ALPHA, self.BETA)
        alone = [quad_variances(p, t, self.ALPHA, self.BETA) for p in seq]
        for field in QuadTuple.__dataclass_fields__:
            value = getattr(got, field)
            assert type(value) is np.ndarray and value.shape == (len(seq), *np.shape(t))
            assert np.array_equal(value, np.array([getattr(q, field) for q in alone])), field

    @pytest.mark.parametrize("point", REGIME_POINTS)
    def test_single_params_keep_shapes_and_types(self, point):
        p = classify_regime(*point)
        for t, shape in ((2.3, None), (SWEEP_TIMES, SWEEP_TIMES.shape),
                         (SWEEP_TIMES.reshape(5, 10), (5, 10))):
            q = quad_variances(p, t, self.ALPHA, self.BETA)
            for field in QuadTuple.__dataclass_fields__:
                value = getattr(q, field)
                if shape is None:
                    assert type(value) is float
                else:
                    assert type(value) is np.ndarray and value.shape == shape

    @pytest.mark.parametrize("t", [2.3, SWEEP_TIMES], ids=["scalar", "array"])
    def test_reads_the_couplings_once(self, monkeypatch, t):
        # one pass over the couplings into one rate table, so a generator serves as a list
        # does; one CouplingParams alone reads its rates once too
        from ioncavity import params as params_module
        seq = [classify_regime(*p) for p in MIXED_POINTS]
        want = quad_variances(seq, t, self.ALPHA, self.BETA)
        singles = [quad_variances(p, t, self.ALPHA, self.BETA) for p in seq]
        tables, rates = [], params_module._rates
        counted = lambda *args: tables.append(args) or rates(*args)
        monkeypatch.setattr(params_module, "_rates", counted)
        monkeypatch.setattr(observables, "_rates", counted)
        got = quad_variances((p for p in seq), t, self.ALPHA, self.BETA)
        assert len(tables) == 1
        for field in QuadTuple.__dataclass_fields__:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for p, alone in zip(seq, singles):
            tables.clear()
            q = quad_variances(p, t, self.ALPHA, self.BETA)
            assert len(tables) == 1
            for field in QuadTuple.__dataclass_fields__:
                assert np.array_equal(getattr(q, field), getattr(alone, field)), field

    def test_lossless_sweep_across_equal_coupling_matches_oracle(self):
        # the gamma = 0 sweep's three branches meet at r = 1, where L0^2 = 0 and w = t^2
        ratios, ts = [0.99, 1.0, 1.01], SWEEP_TIMES[::7]
        q = quad_variances([classify_regime(1.0, r, 0.0) for r in ratios], ts)
        for i, r in enumerate(ratios):
            V = np.array(covariance_oracle(classify_regime(1.0, r, 0.0), ts))
            for k, field in enumerate(("var_xc", "var_pc", "var_xv", "var_pv")):
                np.testing.assert_allclose(getattr(q, field)[i], V[:, k, k], rtol=1e-8, atol=1e-8)

    def test_negative_time_raises(self):
        seq = [classify_regime(*p) for p in MIXED_POINTS]
        for t in (-1e-300, [0.0, 1.0, -2.0]):
            with pytest.raises(ValueError, match="t must be >= 0"):
                quad_variances(seq, t)

    def test_overflowing_member_is_named(self):
        # the first member whose L^2 overflows, of two, is named; the others are finite
        seq = [classify_regime(1.0, 0.3, 0.4), classify_regime(1.0, 0.5, 1e160),
               classify_regime(1.0, 0.7, 1e170), classify_regime(1.0, 1.2, 4.0)]
        with pytest.raises(ValidityError) as exc:
            quad_variances(seq, SWEEP_TIMES)
        assert str(exc.value) == "L^2 = -inf is not finite at (omega1=1, omega2=0.5, gamma=1e+160)"
