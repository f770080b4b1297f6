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
closed forms they check.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from ioncavity import (
    Regime,
    RegimeError,
    ValidityError,
    assembly_weights,
    classify_regime,
    displacement_trajectory,
    envelope,
    lossless_spec,
    mode_spec,
    nbar_max,
    quad_variances,
    revival_schedule,
    sin_ratio,
    steady_squeeze,
)
from ioncavity.observables import squeezed_thermal

OSC = classify_regime(1.0, 0.6, 0.4)
OSC3 = classify_regime(1.0, 0.3, 0.4)
OVER = classify_regime(1.0, 0.95, 1.5)
EQUAL = classify_regime(1.0, 1.0, 0.4)
GROWING = classify_regime(1.0, 1.3, 0.4)
LOSSLESS = classify_regime(1.0, 0.6, 0.0)

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

    def test_nbar_weight_consistency(self):
        for t in (0.4, 1.1, 2.7):
            for mode in "cv":
                s = mode_spec(OSC, t, mode)
                want = -0.5 + math.sqrt((s.nu + 0.5) ** 2 - s.mu * s.mu)
                assert s.n_bar == pytest.approx(want, abs=1e-14)
                assert s.zeta == pytest.approx(
                    envelope(OSC, t).f * envelope(OSC, t).g, abs=1e-14)

    def test_equal_coupling_mode_v_rejected(self):
        with pytest.raises(RegimeError):
            mode_spec(EQUAL, 1.0, "v")

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
        grid_max = max(mode_spec(lossless, t, "c").n_bar for t in ts)
        assert grid_max == pytest.approx(0.125, abs=1e-6)
        lam = math.sqrt(OSC.lambda_sq)
        ts = np.linspace(1e-4, 4 * math.pi / lam, 4000)
        damped_max = max(mode_spec(OSC, t, "c").n_bar for t in ts)
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


class TestNearEqualCouplingPrecision:
    """nu_v and Var P_v at omega2 = 1 - 1e-7 against a 50-digit reference.

    There f stays within ~1e-7 of 1, so 1 - f^2 must be formed without the
    cancellation of 1 - f*f.  The reference takes the double inputs exactly
    and continues cos/sin to cosh/sinh through a complex L.
    """

    @pytest.mark.parametrize("gamma,t", [(0.4, 3.0), (0.4, 0.3), (2.0, 1e-3), (0.0, 3.0)])
    def test_matches_high_precision_reference(self, gamma, t):
        mp = pytest.importorskip("mpmath")
        omega2 = 1.0 - 1e-7
        with mp.workdps(50):
            w2, gm, s = mp.mpf(omega2), mp.mpf(gamma), mp.mpf(t)
            l0_sq = (1 - w2) * (1 + w2)
            lam = mp.sqrt(mp.mpc(l0_sq - gm * gm / 16))
            f = mp.re(mp.exp(-gm * s / 4) * (mp.cos(lam * s) + gm / (4 * lam) * mp.sin(lam * s)))
            nu_v = (1 - f * f) * w2 * w2 / l0_sq
            var_pv = mp.mpf(0.5) + w2 / (1 - w2) * (1 - f * f)
            p = classify_regime(1.0, omega2, gamma)
            _, _, (_, got_nu_v) = assembly_weights(p, t)
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

    def test_no_parametric_drive_limit(self):
        p = classify_regime(1.0, 0.0, 0.4)
        ts = np.linspace(0.05, 4.0, 9)
        us, vs = moment_oracle(p, 0.4, 0.2 - 0.1j, ts)
        for t, u_ref, v_ref in zip(ts, us, vs):
            u, v = displacement_trajectory(p, 0.4, 0.2 - 0.1j, float(t))
            assert abs(u - u_ref) < 1e-8
            assert abs(v - v_ref) < 1e-8


class TestLosslessSpec:
    def test_initial_state(self):
        spec = lossless_spec(LOSSLESS, 0.3, 0.2j, 0.0)
        assert spec.n_bar0 == 0.0 and spec.xi0 == pytest.approx(0.0, abs=1e-15)
        assert spec.u0 == 0.3 and spec.v0 == 0.2j
        assert spec.product_state == 1

    def test_quarter_period_state(self):
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        spec = lossless_spec(LOSSLESS, 0.3, 0.2j, math.pi / (2 * lam0))
        assert abs(spec.n_bar0) < 1e-12
        assert spec.xi0 == pytest.approx(steady_squeeze(LOSSLESS), abs=1e-12)
        assert spec.u0 == pytest.approx(spec.alpha_bar, abs=1e-12)
        assert spec.v0 == pytest.approx(spec.beta_bar, abs=1e-12)
        assert spec.product_state == 2

    def test_bar_amplitudes(self):
        alpha, beta = 0.3, 0.2j
        spec = lossless_spec(LOSSLESS, alpha, beta, 0.7)
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        assert spec.alpha_bar == pytest.approx(
            (np.conj(beta) * 0.6 + beta * 1.0) / lam0, abs=1e-15)
        assert spec.beta_bar == pytest.approx(
            (np.conj(alpha) * 0.6 - alpha * 1.0) / lam0, abs=1e-15)

    def test_periodicity(self):
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        period = 2 * math.pi / lam0
        for t in (0.3, 1.1, 2.9):
            a = lossless_spec(LOSSLESS, 0.3, 0.2j, t)
            b = lossless_spec(LOSSLESS, 0.3, 0.2j, t + period)
            assert a.n_bar0 == pytest.approx(b.n_bar0, abs=1e-12)
            assert a.xi0 == pytest.approx(b.xi0, abs=1e-12)
            assert abs(a.u0 - b.u0) < 1e-12 and abs(a.v0 - b.v0) < 1e-12

    def test_product_state_cycle(self):
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        want = [1, 2, 3, 4, 1, 2, 3, 4]
        got = [lossless_spec(LOSSLESS, 0.1, 0.2, m * math.pi / (2 * lam0)).product_state
               for m in range(8)]
        assert got == want
        assert lossless_spec(LOSSLESS, 0.1, 0.2, 0.37).product_state is None

    def test_rejected_inputs(self):
        with pytest.raises(RegimeError):
            lossless_spec(OSC, 0.1, 0.1, 1.0)
        with pytest.raises(RegimeError):
            lossless_spec(classify_regime(1.0, 1.3, 0.0), 0.1, 0.1, 1.0)


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

    @pytest.mark.parametrize("point", [
        (1.0, 0.6, 0.4), (1.0, 0.6, 4.0), (1.0, 0.6, 4.0 * math.sqrt(1.0 - 0.36)),
        (1.0, 1.0, 0.4), (1.0, 1.3, 0.4), (1.0, 0.6, 0.0), (1.0, 0.0, 0.4),
    ], ids=["oscillatory", "overdamped", "degenerate", "equal_coupling", "growing",
            "lossless", "omega2_zero"])
    def test_array_matches_scalar(self, point):
        p = classify_regime(*point)
        ts = self.TS
        env = envelope(p, ts)
        for field in ("f", "g", "h"):
            self._agree(getattr(env, field), [getattr(envelope(p, t), field) for t in ts])
        self._agree(sin_ratio(p, ts), [sin_ratio(p, t) for t in ts])
        quads = quad_variances(p, ts, self.ALPHA, self.BETA)
        scalar_quads = [quad_variances(p, t, self.ALPHA, self.BETA) for t in ts]
        for field in quads.__dataclass_fields__:
            self._agree(getattr(quads, field), [getattr(q, field) for q in scalar_quads])
        u, v = displacement_trajectory(p, self.ALPHA, self.BETA, ts)
        scalar_uv = [displacement_trajectory(p, self.ALPHA, self.BETA, t) for t in ts]
        self._agree(u, [x[0] for x in scalar_uv], complex)
        self._agree(v, [x[1] for x in scalar_uv], complex)
        for mode in ("c",) if p.regime is Regime.EQUAL_COUPLING else ("c", "v"):
            spec = mode_spec(p, ts, mode)
            scalar_specs = [mode_spec(p, t, mode) for t in ts]
            for field in ("n_bar", "xi", "zeta", "mu", "nu"):
                self._agree(getattr(spec, field), [getattr(s, field) for s in scalar_specs])
