"""Envelope functions, regime classification and lab-parameter conversion.

The independent oracle for the envelope triple is direct numerical
integration of y'' + (gamma/2) y' + (omega1^2 - omega2^2) y = 0 with the
initial data f(0)=1, f'(0)=0; g(0)=0, g'(0)=omega2; h(0)=1, h'(0)=-gamma/2.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ioncavity import (
    LabParams,
    Regime,
    ValidityError,
    classify_regime,
    envelope,
    from_lab_params,
)
from ioncavity import params as params_module
from ioncavity.params import _damped_parts

OSC = classify_regime(1.0, 0.6, 0.4)
OVER = classify_regime(1.0, 0.99, 0.8)
EQUAL = classify_regime(1.0, 1.0, 0.4)
GROWING = classify_regime(1.0, 1.3, 0.5)


def degenerate_params(omega2=0.6):
    # gamma chosen to put lambda^2 at the double-precision noise floor
    gamma = 4.0 * math.sqrt(1.0 - omega2 * omega2)
    p = classify_regime(1.0, omega2, gamma)
    assert p.regime is Regime.DEGENERATE
    return p


def ode_envelopes(params, ts):
    o2, g, l0sq = params.omega2, params.gamma, params.lambda0_sq

    def rhs(_t, y):
        f, fd, gg, gd, h, hd = y
        return [fd, -0.5 * g * fd - l0sq * f,
                gd, -0.5 * g * gd - l0sq * gg,
                hd, -0.5 * g * hd - l0sq * h]

    sol = solve_ivp(rhs, (0.0, ts[-1]), [1.0, 0.0, 0.0, o2, 1.0, -0.5 * g],
                    t_eval=ts, method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[0], sol.y[2], sol.y[4]


class TestClassify:
    def test_oscillatory_example(self):
        p = classify_regime(1.0, 0.6, 0.4)
        assert p.regime is Regime.OSCILLATORY
        assert p.lambda_sq == pytest.approx(0.63, abs=1e-15)
        assert p.lambda0_sq == pytest.approx(0.64, abs=1e-15)
        assert p.q == pytest.approx(1.0 / 0.6)

    def test_equal_coupling_example(self):
        assert classify_regime(1.0, 1.0, 0.4).regime is Regime.EQUAL_COUPLING

    def test_overdamped_example(self):
        p = classify_regime(1.0, 0.99, 0.8)
        assert p.regime is Regime.OVERDAMPED
        assert p.lambda_sq == pytest.approx(1.0 - 0.9801 - 0.04, abs=1e-15)

    def test_degenerate_boundary(self):
        assert degenerate_params().regime is Regime.DEGENERATE

    def test_q_infinite_without_parametric_drive(self):
        assert math.isinf(classify_regime(1.0, 0.0, 0.4).q)

    @pytest.mark.parametrize("bad", [(0.0, 0.5, 0.1), (-1.0, 0.5, 0.1),
                                     (1.0, -0.1, 0.1), (1.0, 0.5, -0.1)])
    def test_rejects_bad_rates(self, bad):
        with pytest.raises(ValueError):
            classify_regime(*bad)


class TestLabParams:
    def test_experiment_band(self):
        # eta_c=0.2, g1/2pi=10 MHz, gc/2pi=6 MHz, Delta=5 g1, gamma=0.02 gc
        g1 = 2 * math.pi * 10.0
        gc = 2 * math.pi * 6.0
        lab = LabParams(eta_c=0.2, g1=g1, g2=0.0, gc=gc, delta=5 * g1)
        p = from_lab_params(lab, gamma=0.02 * gc)
        assert 0.4 <= p.gamma / p.omega1 <= 1.0
        assert p.gamma / p.omega1 == pytest.approx(0.5, rel=1e-12)

    def test_zero_second_laser(self):
        lab = LabParams(eta_c=0.2, g1=1.0, g2=0.0, gc=1.0, delta=2.0)
        assert from_lab_params(lab, gamma=0.1).omega2 == 0.0

    def test_detuning_scaling_leaves_q_fixed(self):
        lab1 = LabParams(eta_c=0.2, g1=1.0, g2=0.4, gc=1.0, delta=2.0)
        lab2 = LabParams(eta_c=0.2, g1=1.0, g2=0.4, gc=1.0, delta=4.0)
        p1 = from_lab_params(lab1, gamma=0.0)
        p2 = from_lab_params(lab2, gamma=0.0)
        assert p2.omega1 == pytest.approx(0.5 * p1.omega1, rel=1e-15)
        assert p2.omega2 == pytest.approx(0.5 * p1.omega2, rel=1e-15)
        assert p1.q == pytest.approx(p2.q, rel=1e-15)

    def test_rejects_zero_detuning(self):
        with pytest.raises(ValueError):
            LabParams(eta_c=0.2, g1=1.0, g2=0.0, gc=1.0, delta=0.0)


class TestEnvelope:
    @pytest.mark.parametrize("params", [OSC, OVER, EQUAL, GROWING,
                                        degenerate_params(),
                                        classify_regime(1.0, 0.0, 0.4)])
    def test_initial_conditions(self, params):
        env = envelope(params, 0.0)
        assert (env.f, env.g, env.h) == (1.0, 0.0, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            envelope(OSC, -0.1)

    @pytest.mark.parametrize("params,t_hi", [(OSC, 20.0), (OVER, 20.0),
                                             (degenerate_params(), 20.0),
                                             (EQUAL, 20.0), (GROWING, 6.0)])
    def test_ode_oracle(self, params, t_hi):
        ts = np.linspace(1e-6, t_hi, 161)
        f_ref, g_ref, h_ref = ode_envelopes(params, ts)
        env = envelope(params, ts)
        assert np.abs(env.f - f_ref).max() < 1e-8
        assert np.abs(env.g - g_ref).max() < 1e-8
        assert np.abs(env.h - h_ref).max() < 1e-8

    def test_half_period_values(self):
        # at t = pi/Lambda: f = h = -exp(-gamma pi/(4 Lambda)), g = 0
        lam = math.sqrt(OSC.lambda_sq)
        env = envelope(OSC, math.pi / lam)
        want = -math.exp(-OSC.gamma * math.pi / (4.0 * lam))
        assert env.f == pytest.approx(want, rel=1e-12)
        assert env.h == pytest.approx(want, rel=1e-12)
        assert abs(env.g) < 1e-14

    def test_equal_coupling_closed_forms(self):
        omega, gamma = 1.0, 0.4
        for t in np.linspace(0.0, 12.0, 49):
            env = envelope(EQUAL, t)
            assert env.f == pytest.approx(1.0, abs=1e-14)
            assert env.g == pytest.approx(
                (2 * omega / gamma) * (1.0 - math.exp(-gamma * t / 2)), rel=1e-13, abs=1e-13)
            assert env.h == pytest.approx(math.exp(-gamma * t / 2), rel=1e-13)

    @pytest.mark.parametrize("side", [+1.0, -1.0])
    def test_branch_continuity_at_degenerate_boundary(self, side):
        gamma = 0.8
        omega2 = math.sqrt(1.0 - gamma * gamma / 16.0 - side * 1e-8)
        near = classify_regime(1.0, omega2, gamma)
        limit = classify_regime(1.0, omega2, 4.0 * math.sqrt(1.0 - omega2 * omega2))
        assert near.regime is (Regime.OSCILLATORY if side > 0 else Regime.OVERDAMPED)
        assert limit.regime is Regime.DEGENERATE
        for t in np.linspace(0.0, 10.0, 41):
            a, b = envelope(near, t), envelope(limit, t)
            assert abs(a.f - b.f) < 1e-6
            assert abs(a.g - b.g) < 1e-6
            assert abs(a.h - b.h) < 1e-6

    def test_decay_bound_and_steady_state(self):
        lam = math.sqrt(OSC.lambda_sq)
        bound_f = 1.0 + OSC.gamma / (4.0 * lam)
        bound_g = OSC.omega2 / lam
        for t in np.linspace(0.0, 40.0, 161):
            env = envelope(OSC, t)
            damp = math.exp(-OSC.gamma * t / 4.0)
            assert abs(env.f) <= bound_f * damp + 1e-15
            assert abs(env.h) <= bound_f * damp + 1e-15
            assert abs(env.g) <= bound_g * damp + 1e-15
        far = envelope(OSC, 300.0)
        assert max(abs(far.f), abs(far.g), abs(far.h)) < 1e-12

    def test_degenerate_decay(self):
        p = degenerate_params()
        far = envelope(p, 50.0 / p.gamma * 4.0)
        assert max(abs(far.f), abs(far.g), abs(far.h)) < 1e-12

    def test_underflow_returns_exact_steady_state(self):
        t = 4.0 * 709.0 / OSC.gamma + 10.0
        env = envelope(OSC, t)
        assert (env.f, env.g, env.h) == (0.0, 0.0, 0.0)

    def test_vectorized_matches_scalar(self):
        ts = np.linspace(0.0, 8.0, 17)
        env = envelope(OSC, ts)
        for i, t in enumerate(ts):
            one = envelope(OSC, float(t))
            assert env.f[i] == one.f and env.g[i] == one.g and env.h[i] == one.h


class TestOverdampedPrecision:
    """Overdamped envelopes against a 50-digit cosh/sinh reference.

    Points sit close to equal coupling on both sides, where |L| ~ gamma/4.
    Points where a value is ill-conditioned in t (|t y'/y| >= 100, i.e. near
    a zero crossing of h) are skipped: there no double evaluation can meet
    the bound.
    """

    def test_matches_high_precision_reference(self):
        mp = pytest.importorskip("mpmath")
        checked = 0
        with mp.workdps(50):
            for omega2 in (0.9, 0.999, 0.99999, 1.00001, 1.001, 1.1):
                for gamma in (1.0, 2.0, 3.0):
                    p = classify_regime(1.0, omega2, gamma)
                    if p.lambda_sq > -1e-4:
                        continue
                    w2, gm = mp.mpf(omega2), mp.mpf(gamma)
                    lam = mp.sqrt(gm * gm / 16 - (1 - w2) * (1 + w2))
                    r = gm / (4 * lam)
                    refs = (
                        lambda s: mp.exp(-gm * s / 4) * (mp.cosh(lam * s) + r * mp.sinh(lam * s)),
                        lambda s: mp.exp(-gm * s / 4) * (w2 / lam) * mp.sinh(lam * s),
                        lambda s: mp.exp(-gm * s / 4) * (mp.cosh(lam * s) - r * mp.sinh(lam * s)),
                    )
                    for t in np.linspace(0.5, 30.0, 12):
                        env = envelope(p, t)
                        for got, ref in zip((env.f, env.g, env.h), refs):
                            want = ref(mp.mpf(t))
                            if abs(t * mp.diff(ref, mp.mpf(t)) / want) >= 100:
                                continue
                            assert abs((got - want) / want) < 1e-13, (omega2, gamma, t)
                            checked += 1
        assert checked > 300


class TestEnvelopeIdentity:
    """f h + (q^2 - 1) g^2 = exp(-gamma t/2), 1e-12 relative.

    Random points keep away from the degenerate boundary and from
    parameter/time combinations where the two summands exceed the result by
    more than ~300x: there the cancellation noise floor of double precision
    sits above 1e-12 relative and no evaluation of these closed forms could
    meet the bound.  The boundary itself is covered by the exact degenerate
    branch below, and the ODE oracle covers the ill-conditioned region in
    absolute terms.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        omega2=st.floats(0.05, 2.0),
        gamma=st.floats(0.0, 3.0),
        t=st.floats(0.0, 30.0),
    )
    # overdamped near equal coupling: 1 - gamma/(4|L|) cancels unless the
    # envelope forms it from the factored L0^2
    @example(omega2=0.99999, gamma=2.0, t=12.0)
    # q^2 - 1 formed as q*q - 1 loses ~eps/(q^2 - 1) here
    @example(omega2=0.998046875, gamma=1.0, t=15.0)
    def test_identity_random_points(self, omega2, gamma, t):
        assume(abs(1.0 - omega2) > 1e-6)
        p = classify_regime(1.0, omega2, gamma)
        assume(abs(p.lambda_sq) > 1e-4)
        env = envelope(p, t)
        q_sq_minus_1 = (1.0 - omega2) * (1.0 + omega2) / (omega2 * omega2)
        lhs = env.f * env.h + q_sq_minus_1 * env.g * env.g
        rhs = math.exp(-gamma * t / 2.0)
        assume(rhs > 0.0)
        magnitude = abs(env.f * env.h) + abs(q_sq_minus_1) * env.g * env.g
        assume(magnitude < 300.0 * rhs)
        assert abs(lhs - rhs) < 1e-12 * rhs

    def test_identity_exact_degenerate_branch(self):
        p = degenerate_params()
        for t in np.linspace(0.0, 12.0, 49):
            env = envelope(p, t)
            lhs = env.f * env.h + (p.q * p.q - 1.0) * env.g * env.g
            rhs = math.exp(-p.gamma * t / 2.0)
            assert abs(lhs - rhs) < 1e-12 * rhs


class TestSequenceBranches:
    """_damped_parts over a sequence of CouplingParams takes the branch on L^2
    per element: a branch that holds every element runs once on the full
    arrays, as for one CouplingParams, and otherwise each held branch runs on
    the rates its mask picks."""

    RATIOS = [k / 100 for k in range(10, 151)]  # sweep-ratio's grid
    TS = np.array([k / 5 for k in range(1, 51)])

    @pytest.fixture
    def branch_calls(self, monkeypatch):
        calls = []
        real = params_module._branch_parts

        def counted(branch, g, lam_sq, *rest):
            # a gathered rate is a copy; on the full arrays the rates are views of one table
            gathered = np.ndim(g) > 0 and (g.base is None or g.base is not lam_sq.base)
            calls.append((branch, np.shape(g), gathered))
            return real(branch, g, lam_sq, *rest)

        monkeypatch.setattr(params_module, "_branch_parts", counted)
        return calls

    def test_one_params_one_branch(self, branch_calls):
        for p, branch in ((OSC, Regime.OSCILLATORY), (GROWING, Regime.OVERDAMPED),
                          (degenerate_params(), Regime.DEGENERATE)):
            branch_calls.clear()
            _damped_parts(p, self.TS)
            assert branch_calls == [(branch, (), False)]

    def test_uniform_sequence_runs_on_the_full_arrays(self, branch_calls):
        # gamma = 4: L^2 = -omega2^2 < 0 at every ratio
        f, s, h, w = _damped_parts([classify_regime(1.0, r, 4.0) for r in self.RATIOS], self.TS)
        assert branch_calls == [(Regime.OVERDAMPED, (141, 1), False)]
        assert f.shape == s.shape == h.shape == w.shape == (141, 50)

    def test_mixed_sequence_runs_each_branch_on_its_elements(self, branch_calls):
        # gamma = 0: oscillatory below r = 1, degenerate with L0^2 = 0 at r = 1, overdamped above
        seq = [classify_regime(1.0, r, 0.0) for r in self.RATIOS]
        parts = _damped_parts(seq, self.TS)
        assert branch_calls == [(Regime.OVERDAMPED, (50, 1), True), (Regime.OSCILLATORY, (90, 1), True),
                                (Regime.DEGENERATE, (1, 1), True)]
        branch_calls.clear()
        for i, p in enumerate(seq):
            for got, want in zip(parts, _damped_parts(p, self.TS)):
                assert np.array_equal(got[i], want)

    @pytest.mark.parametrize("t", [1.5, [[0.0, 1.0], [2.0, 3.0]]], ids=["scalar", "2d"])
    def test_leading_axis_over_the_sequence(self, t):
        seq = [OSC, OVER, EQUAL, GROWING, degenerate_params()]
        for got, *alone in zip(_damped_parts(seq, t), *(_damped_parts(p, t) for p in seq)):
            assert got.shape == (len(seq), *np.shape(t))
            assert np.array_equal(got, np.array(alone))


class TestNonFiniteLambdaSq:
    """An L^2 that overflows to inf or nan fits no branch: CouplingParams accepts it (the
    propagator refuses such a point on its own terms), and the closed forms raise
    ValidityError naming the coupling, where they once took the degenerate branch."""

    @pytest.mark.parametrize("point, t, message", [
        ((1e300, 0.3, 0.0), 1.0, "L^2 = inf is not finite at (omega1=1e+300, omega2=0.3, gamma=0)"),
        ((1.0, 0.3, 1e155), 1.0, "L^2 = -inf is not finite at (omega1=1, omega2=0.3, gamma=1e+155)"),
        ((1e200, 0.3, 0.0), 1e-200, "L^2 = inf is not finite at (omega1=1e+200, omega2=0.3, gamma=0)"),
        ((1.0, 1e300, 0.0), 1.0, "L^2 = -inf is not finite at (omega1=1, omega2=1e+300, gamma=0)"),
    ], ids=["omega1", "gamma", "omega1_small_t", "omega2"])
    def test_envelope_refuses(self, point, t, message):
        p = classify_regime(*point)
        assert not math.isfinite(p.lambda_sq)
        with pytest.raises(ValidityError) as exc:
            envelope(p, t)
        assert str(exc.value) == message
        with pytest.raises(ValidityError):
            _damped_parts([OSC, p], [0.0, t])

    def test_largest_finite_gamma_keeps_its_branch(self):
        # gamma^2/16 still fits at 1e154: overdamped, with f(1) = 1 to rounding, as it
        # tends from below; at 1e155 it overflows and is refused above
        p = classify_regime(1.0, 0.3, 1e154)
        assert p.regime is Regime.OVERDAMPED and math.isfinite(p.lambda_sq)
        assert envelope(p, 1.0).f == pytest.approx(1.0, abs=1e-12)
