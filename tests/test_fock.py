"""Operator families, density assembly and state metrics.

The R-family oracle pair: the Jacobi-polynomial closed form (r_operator)
against the ladder-superoperator construction (raise_superop, from the
``superop_oracle`` helper module) -- two independent code paths for the
same object.  For the comparison the raised input is built with m+n spare
levels and cropped, so both sides are exact on the compared block.  The
defining Q^{m,n} / C_k^{m,n} forms of the series come from the
``series_oracle`` helper module; the assembly, its level tables and the
reduced states are pinned against them.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ioncavity import (
    AssemblyBudget,
    FockDensity,
    TruncationError,
    ValidityError,
    assemble_joint_density,
    classify_regime,
    displacement_op,
    displacement_trajectory,
    evolve_trajectory,
    jacobi_poly,
    ladder,
    lossless_ket,
    lossless_spec,
    mode_spec,
    partial_trace,
    quad_stats,
    quad_variances,
    r_operator,
    reduced_density,
    revival_schedule,
    state_metrics,
    steady_squeeze,
    squeeze_op,
    trace_distance,
)
from ioncavity import fock
from ioncavity.fock import _level_norm, _level_tables, _r_diagonals
from series_oracle import _q_level, c_coefficient, q_operator
from superop_oracle import raise_superop

OSC = classify_regime(1.0, 0.6, 0.4)
OSC3 = classify_regime(1.0, 0.3, 0.4)

TAU_0 = 2.1369155784089675
TAU_PRIME_1 = 3.958034705745753


def thermal(n_bar, N):
    """The thermal state on N levels: R^{0,0}(n_bar)."""
    return FockDensity(r_operator(0, 0, n_bar, N), dims=(N,))


def vacuum_density(N):
    rho = np.zeros((N, N), dtype=complex)
    rho[0, 0] = 1.0
    return FockDensity(entries=rho, dims=(N,))


class TestLadder:
    def test_two_level(self):
        np.testing.assert_array_equal(ladder(2), [[0, 1], [0, 0]])

    def test_number_diagonal(self):
        a = ladder(9)
        np.testing.assert_allclose(np.diag(a.conj().T @ a).real, np.arange(9), atol=1e-14)

    def test_commutator_truncation_artifact(self):
        N = 7
        a = ladder(N)
        comm = np.diag(a @ a.conj().T - a.conj().T @ a).real
        np.testing.assert_allclose(comm[:-1], np.ones(N - 1), atol=1e-14)
        assert comm[-1] == pytest.approx(-(N - 1), abs=1e-12)

    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            ladder(1)


class TestDisplacement:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(displacement_op(0.0, 8), np.eye(8), atol=1e-14)

    def test_coherent_occupation(self):
        N = 32
        D = displacement_op(1.0, N)
        psi = D[:, 0]
        n = np.arange(N)
        assert (np.abs(psi) ** 2 @ n) == pytest.approx(1.0, abs=1e-8)

    def test_inverse(self):
        D1 = displacement_op(0.7 + 0.2j, 24)
        D2 = displacement_op(-(0.7 + 0.2j), 24)
        np.testing.assert_allclose(D1 @ D2, np.eye(24), atol=1e-8)


class TestSqueeze:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(squeeze_op(0.0, 8), np.eye(8), atol=1e-14)

    def test_real_matrix(self):
        S = squeeze_op(0.4, 20)
        assert np.abs(S.imag).max() < 1e-14

    def test_squeezed_vacuum_variance(self):
        N, xi = 40, 0.5
        S = squeeze_op(xi, N)
        rho = np.outer(S[:, 0], S[:, 0].conj())
        _, _, vx, vp = quad_stats(FockDensity(entries=rho, dims=(N,)))
        assert vx == pytest.approx(0.5 * math.exp(-2 * xi), abs=1e-6)
        assert vp == pytest.approx(0.5 * math.exp(2 * xi), abs=1e-6)

    def test_inverse(self):
        S1 = squeeze_op(0.5, 40)
        S2 = squeeze_op(-0.5, 40)
        occupied = slice(0, 20)
        np.testing.assert_allclose((S1 @ S2)[occupied, occupied],
                                   np.eye(40)[occupied, occupied], atol=1e-8)


class TestThermal:
    def test_vacuum(self):
        rho = thermal(0.0, 6)
        assert rho.entries[0, 0] == 1.0 and abs(np.trace(rho.entries) - 1) < 1e-15

    def test_geometric_weights(self):
        rho = thermal(1.0, 12)
        np.testing.assert_allclose(np.diag(rho.entries).real,
                                   [0.5 ** (k + 1) for k in range(12)], rtol=1e-13)

    def test_trace_deficit_reported(self):
        nb, N = 0.8, 10
        rho = thermal(nb, N)
        assert rho.trace_deficit == pytest.approx((nb / (nb + 1)) ** N, rel=1e-12)
        assert 1.0 - rho.trace() == pytest.approx(rho.trace_deficit, rel=1e-10)


class TestTraceDeficit:
    """``trace_deficit`` is |1 - tr rho|, measured on every density."""

    def test_propagated_and_partial_trace(self):
        rho0 = FockDensity(np.kron(vacuum_density(6).entries, vacuum_density(5).entries), dims=(6, 5))
        rho = evolve_trajectory(OSC3, rho0, [1.0])[-1]
        for state in (rho, partial_trace(rho, "c"), partial_trace(rho, "v")):
            assert type(state.trace_deficit) is float
            assert state.trace_deficit == abs(1.0 - state.trace())

    def test_reduced_density_is_the_thermal_tail(self):
        # the squeeze and displacement keep the trace, so only the thermal
        # weights cut off at N levels are missing
        growing, N = classify_regime(1.0, 1.3, 0.4), 12
        for mode in "cv":
            nb = mode_spec(growing, 1.0, mode).n_bar
            rho = reduced_density(growing, 1.0, mode, 0.3, 0.2j, N)
            assert rho.trace_deficit == pytest.approx((nb / (nb + 1.0)) ** N, rel=1e-10)


class TestJacobiPoly:
    def test_constant(self):
        for x in (0.0, 0.3, 0.9):
            assert jacobi_poly(0, 0, 0, x) == 1.0

    def test_linear_root(self):
        # P_1^{1,0}(x) = 1 - 2x
        assert jacobi_poly(1, 1, 0, 0.5) == pytest.approx(0.0, abs=1e-14)
        assert jacobi_poly(1, 1, 0, 0.2) == pytest.approx(0.6, rel=1e-13)

    def test_monomial(self):
        for k in (1, 3, 6):
            assert jacobi_poly(0, k, k, 0.4) == pytest.approx(0.4 ** k, rel=1e-12)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            jacobi_poly(-1, 2, 0, 0.3)
        with pytest.raises(ValueError):
            jacobi_poly(1, 2, 3, 0.3)
        with pytest.raises(ValueError):
            jacobi_poly(1, 2, 0, 1.0)


class TestCCoefficient:
    def test_empty_product(self):
        assert c_coefficient(0, 0, 0, 0.8) == 1.0

    def test_zero_squeeze_is_kronecker(self):
        for m in range(4):
            for n in range(4 - m):
                for k in range(m + n + 1):
                    want = 1.0 if k == n else 0.0
                    assert c_coefficient(m, n, k, 0.0) == pytest.approx(want, abs=1e-14)

    def test_hand_expansion(self):
        xi = 0.37
        assert c_coefficient(0, 1, 1, xi) == pytest.approx(math.cosh(xi), rel=1e-14)
        assert c_coefficient(0, 1, 0, xi) == pytest.approx(math.sinh(xi), rel=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            c_coefficient(1, 1, 3, 0.1)


def _exact_sum(nums, den):
    """Float of sum(nums)/den and of sum(|nums|)/den, for integer nums and den."""
    return float(Fraction(sum(nums), den)), float(Fraction(sum(map(abs, nums)), den))


def _jacobi_exact(m, k, l, x):
    """P_m^{k,l}(x) and its terms' magnitude sum, from integer factorials.

    x = a/d exactly (d a power of two); every term is put over the common
    denominator (k-l)! k! k! d^k, which each (j-l)! (k-j)! j! d^j divides.
    """
    f = math.factorial
    a, d = x.as_integer_ratio()
    nums = [
        (-1) ** (j - l) * f(j + m) * (f(k - l) // f(j - l)) * (f(k) // f(k - j))
        * (f(k) // f(j)) * a**j * d ** (k - j)
        for j in range(max(0, l), k + 1)
    ]
    return _exact_sum(nums, f(k - l) * f(k) * f(k) * d**k)


def _c_exact(m, n, k, xi):
    """C_k^{m,n}(xi) and its terms' magnitude sum, from integer binomials.

    cosh(xi) = a/c and sinh(xi) = b/s exactly (the floats the program uses);
    both powers are at most m+n, so c^{m+n} s^{m+n} is a common denominator.
    The prefactor sqrt((m+n-k)! k!/(m! n!)) is the one rounded step.
    """
    (a, c), (b, s) = math.cosh(xi).as_integer_ratio(), math.sinh(xi).as_integer_ratio()
    L = m + n
    nums = [
        math.comb(m, k - l) * math.comb(n, l)
        * a ** (m - k + 2 * l) * c ** (L - (m - k + 2 * l))
        * b ** (n + k - 2 * l) * s ** (L - (n + k - 2 * l))
        for l in range(max(0, k - m), min(n, k) + 1)
    ]
    pref = math.sqrt(Fraction(math.factorial(L - k) * math.factorial(k),
                              math.factorial(m) * math.factorial(n)))
    value, scale = _exact_sum(nums, c**L * s**L)
    return pref * value, pref * scale


class TestCoefficientsExact:
    """Array calls of the coefficients against exact integer references."""

    def test_jacobi_against_exact_binomials(self):
        # the domain is m >= k - l = n, where both Jacobi parameters are >= 0
        k = np.arange(30)
        for x in (0.0, 0.3, 0.8125):
            for m in range(25):
                for n in range(min(m + 1, 25 - m)):
                    got = jacobi_poly(m, k, k - n, x)
                    for kk in k:
                        want, scale = _jacobi_exact(m, int(kk), int(kk) - n, x)
                        assert abs(got[kk] - want) <= 1e-13 * scale, (m, n, kk, x)
        with pytest.raises(ValueError, match="need m >= k - l"):
            jacobi_poly(2, k, k - 3, 0.3)

    def test_c_coefficient_against_exact_binomials(self):
        for xi in (-0.6, 0.0, 0.35):
            for m in range(25):
                for n in range(25 - m):
                    got = c_coefficient(m, n, np.arange(m + n + 1), xi)
                    for k in range(m + n + 1):
                        want, scale = _c_exact(m, n, k, xi)
                        assert abs(got[k] - want) <= 1e-13 * scale, (m, n, k, xi)

    def test_array_call_matches_scalar_calls(self):
        k = np.arange(30).reshape(5, 6)
        for m, n in ((0, 0), (3, 1), (7, 5), (12, 12)):
            got = jacobi_poly(m, k, k - n, 0.45)
            want = [jacobi_poly(m, int(kk), int(kk) - n, 0.45) for kk in k.flat]
            assert got.shape == k.shape
            np.testing.assert_array_max_ulp(got.ravel(), np.array(want), maxulp=2)
            ks = np.arange(m + n + 1)
            got = c_coefficient(m, n, ks, -0.4)
            want = [c_coefficient(m, n, int(kk), -0.4) for kk in ks]
            np.testing.assert_array_max_ulp(got, np.array(want), maxulp=2)
        # l = k - n broadcast against k, for n = 0, 1, 2
        k = np.arange(8)
        got = jacobi_poly(4, k, k - np.arange(3)[:, None], 0.3)
        want = [[jacobi_poly(4, kk, kk - n, 0.3) for kk in range(8)] for n in range(3)]
        np.testing.assert_array_max_ulp(got, np.array(want), maxulp=2)
        # array m with n = L - m, as one series level takes them
        for L in (0, 1, 6, 13):
            m, k = np.arange(L + 1)[:, None], np.arange(L + 1)
            got = c_coefficient(m, L - m, k, 0.55)
            want = [[c_coefficient(mm, L - mm, kk, 0.55) for kk in range(L + 1)] for mm in range(L + 1)]
            np.testing.assert_array_max_ulp(got, np.array(want), maxulp=2)
            s, c = np.arange(L // 2 + 1)[:, None], np.arange(9)
            got = jacobi_poly(L - s, c, c - s, 0.45)
            want = [[jacobi_poly(L - ss, cc, cc - ss, 0.45) for cc in range(9)] for ss in range(L // 2 + 1)]
            np.testing.assert_array_max_ulp(got, np.array(want), maxulp=2)

    def test_scalars_are_python_floats(self):
        assert type(jacobi_poly(2, 3, 1, 0.3)) is float
        assert type(jacobi_poly(2, np.int64(3), 1, 0.3)) is float
        assert type(c_coefficient(1, 2, 1, 0.3)) is float

    def test_any_bad_element_raises(self):
        with pytest.raises(ValueError):
            jacobi_poly(1, np.array([2, -1]), 0, 0.3)
        with pytest.raises(ValueError):
            jacobi_poly(1, np.array([2, 3]), np.array([0, 4]), 0.3)
        with pytest.raises(ValueError):
            c_coefficient(1, 1, np.array([0, 1, 3]), 0.1)
        with pytest.raises(ValueError):
            c_coefficient(1, 1, np.array([-1, 0]), 0.1)
        # array m and n: the scalar message, not numpy's ambiguous-truth-value one
        with pytest.raises(ValueError, match="need m, k >= 0"):
            jacobi_poly(np.array([2, -1]), 3, 1, 0.3)
        with pytest.raises(ValueError, match="need m, n >= 0"):
            c_coefficient(np.array([1, -1]), np.array([2, 3]), 1, 0.1)
        with pytest.raises(ValueError, match="got k=3, m[+]n=2"):
            c_coefficient(np.array([2, 1]), 1, 3, 0.1)


class TestROperator:
    def test_ground_family_is_thermal(self):
        nb, k = 0.7, np.arange(20)
        np.testing.assert_allclose(r_operator(0, 0, nb, 20),
                                   np.diag(nb**k / (nb + 1.0) ** (k + 1)), atol=1e-15)

    def test_single_raising_on_vacuum(self):
        R = r_operator(1, 0, 0.0, 6)
        want = np.zeros((6, 6))
        want[1, 0] = 1.0
        np.testing.assert_allclose(R, want, atol=1e-14)

    def test_traces(self):
        for nb in (0.3, 1.0):
            for m in range(7):
                for n in range(7 - m):
                    tr = np.trace(r_operator(m, n, nb, 60))
                    want = 1.0 if m == n == 0 else 0.0
                    assert abs(tr - want) < 1e-9

    def test_adjoint_pairing(self):
        for (m, n) in ((0, 1), (1, 2), (2, 3), (0, 3)):
            A = r_operator(m, n, 0.4, 18)
            B = r_operator(n, m, 0.4, 18)
            sign = (-1.0) ** (m + n)
            np.testing.assert_allclose(A, sign * B.conj().T, atol=1e-13)

    def test_superop_oracle_pair(self):
        # two independent code paths; raise on m+n spare levels, crop, compare
        N = 25
        for nb in (0.0, 0.3, 1.0):
            for m in range(6):
                for n in range(6 - m):
                    closed = r_operator(m, n, nb, N)
                    raised = raise_superop(thermal(nb, N + m + n), m, n)
                    np.testing.assert_allclose(raised[:N, :N], closed,
                                               atol=1e-10)

    @pytest.mark.parametrize("L", [40, 60, 100])
    @pytest.mark.parametrize("nb", [0.2, 0.6])
    def test_high_levels_match_exact_series(self, L, nb):
        # rows k <= L/2 of the level-L table against the alternating sum of
        # jacobi_poly's definition, exact in Fractions at the float x, times the
        # float prefactor; that sum in floats cancels, and loses 1e-6 of the
        # level's largest entry at L = 60, nb = 0.6
        N, f = 20, math.factorial
        x = Fraction(nb / (nb + 1.0))
        got, want = _r_diagonals(L, nb, N)[: L // 2 + 1], np.zeros((L // 2 + 1, N))
        for s, c in itertools.product(range(L // 2 + 1), range(N)):
            m, row = L - s, c + L - 2 * s
            if row < N:
                l = c - s
                series = sum(Fraction((-1) ** (j - l) * f(j + m), f(j - l) * f(c - j) * f(j)) * x**j
                             for j in range(max(0, l), c + 1))
                pref = math.sqrt(Fraction(f(s) * f(c), f(m) * f(row))) * (nb + 1.0) ** -(m + 1)
                want[s, c] = (-1) ** s * pref * float(series)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestRaiseSuperop:
    def test_identity_map(self):
        rho = thermal(0.5, 10)
        out = raise_superop(rho, 0, 0)
        np.testing.assert_array_equal(out, rho.entries)

    def test_linearity(self):
        N = 24  # headroom guard needs the thermal tails to clear the edge
        a = thermal(0.2, N).entries
        b = thermal(0.9, N).entries
        mix = FockDensity(entries=0.3 * a + 0.7 * b, dims=(N,))
        lhs = raise_superop(mix, 2, 1)
        rhs = (0.3 * raise_superop(FockDensity(entries=a, dims=(N,)), 2, 1)
               + 0.7 * raise_superop(FockDensity(entries=b, dims=(N,)), 2, 1))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_headroom_violation(self):
        top = np.zeros((6, 6), dtype=complex)
        top[5, 5] = 1.0
        with pytest.raises(TruncationError):
            raise_superop(FockDensity(entries=top, dims=(6,)), 2, 0)


class TestQOperator:
    def test_ground_is_squeezed_thermal(self):
        nb, xi, N = 0.4, -0.3, 40
        S = squeeze_op(xi, N)
        want = S @ thermal(nb, N).entries @ S.conj().T
        np.testing.assert_allclose(q_operator(0, 0, nb, xi, N), want, atol=1e-10)

    def test_zero_squeeze_reduces_to_r(self):
        for m in range(4):
            for n in range(4 - m):
                np.testing.assert_allclose(q_operator(m, n, 0.5, 0.0, 30),
                                           r_operator(m, n, 0.5, 30), atol=1e-10)

    def test_traces(self):
        for m in range(7):
            for n in range(7 - m):
                tr = np.trace(q_operator(m, n, 0.6, 0.4, 48))
                want = 1.0 if m == n == 0 else 0.0
                assert abs(tr - want) < 1e-8

    def test_superop_construction(self):
        # Q^{m,n} = (N+^n/sqrt n!)(M+^m/sqrt m!) Q^{0,0}, cropped like the R pair
        nb, xi, N = 0.4, 0.3, 22
        for (m, n) in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)):
            pad = m + n + 8  # squeeze needs its own headroom before raising
            big = q_operator(0, 0, nb, xi, N + pad)
            raised = raise_superop(big, m, n)[:N, :N]
            closed = q_operator(m, n, nb, xi, N + pad)[:N, :N]
            np.testing.assert_allclose(raised, closed, atol=1e-8)


class TestLevelTables:
    """T_L[k, k'] = sum_m C_k^{m,L-m}(-xi_c) C_k'^{m,L-m}(-xi_v), by its closed form."""

    XI_C, XI_V = -0.3, 0.5

    @staticmethod
    def c_route(L, xi_c, xi_v):
        m = np.arange(L + 1)[:, None]
        cc, cv = (c_coefficient(m, L - m, np.arange(L + 1), -xi) for xi in (xi_c, xi_v))
        return cc.T @ cv

    def test_matches_c_coefficient_products(self):
        for L, T in zip(range(13), _level_tables(self.XI_C + self.XI_V)):
            want = self.c_route(L, self.XI_C, self.XI_V)
            assert np.abs(T - want).max() <= 1e-12 * np.abs(want).max()

    def test_matches_exact_sum_at_high_level(self):
        # the C route cancels here (4e-4 of max |T| at L = 35, xi = (-0.4, 0.4));
        # the closed form does not
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        L = 35

        def C(m, n, k, xi):
            ch, sh = mp.cosh(xi), mp.sinh(xi)
            tot = mp.fsum(mp.binomial(m, k - l) * mp.binomial(n, l) * ch ** (m - k + 2 * l)
                          * sh ** (n + k - 2 * l) for l in range(max(0, k - m), min(k, n) + 1))
            return mp.sqrt(mp.factorial(m + n - k) * mp.factorial(k)
                           / (mp.factorial(m) * mp.factorial(n))) * tot

        ks = (0, 1, 17, 34, 35)
        xi_c, xi_v = -mp.mpf(self.XI_C), -mp.mpf(self.XI_V)
        cc = {k: [C(m, L - m, k, xi_c) for m in range(L + 1)] for k in ks}
        cv = {k: [C(m, L - m, k, xi_v) for m in range(L + 1)] for k in ks}
        want = np.array([[float(mp.fsum(a * b for a, b in zip(cc[k], cv[kk]))) for kk in ks]
                         for k in ks])
        T = next(itertools.islice(_level_tables(self.XI_C + self.XI_V), L, None))
        assert np.abs(T[np.ix_(ks, ks)] - want).max() <= 1e-12 * np.abs(T).max()

    def test_level_norm_is_the_kron_norm(self):
        # the Frobenius norm of zeta^L sum_m Q_c^{m,L-m} (x) Q_v^{m,L-m}, from the tables
        N, L = 7, 4
        spec_c, spec_v = mode_spec(OSC3, 1.2, "c"), mode_spec(OSC3, 1.2, "v")
        level = spec_c.zeta**L * sum(
            np.kron(q_operator(m, L - m, spec_c.n_bar, spec_c.xi, N),
                    q_operator(m, L - m, spec_v.n_bar, spec_v.xi, N)) for m in range(L + 1))
        T = next(itertools.islice(_level_tables(spec_c.xi + spec_v.xi), L, None))
        got = _level_norm(spec_c.zeta**L * T, _r_diagonals(L, spec_c.n_bar, N),
                          _r_diagonals(L, spec_v.n_bar, N))
        assert got == pytest.approx(np.linalg.norm(level), rel=1e-12)

    def test_diagonals_hold_every_r_operator(self):
        N, L = 7, 5
        r = _r_diagonals(L, 0.4, N)
        for k in range(L + 1):
            d = L - 2 * k
            np.testing.assert_array_equal(np.diag(r_operator(L - k, k, 0.4, N), -d),
                                          r[k, : N - abs(d)])
            assert not r[k, N - abs(d):].any()


class TestAssembly:
    def test_vacuum_at_time_zero(self):
        budget = AssemblyBudget(dims=(8, 8))
        rho = assemble_joint_density(OSC3, 0.0, 0.0, 0.0, budget)
        want = np.zeros((64, 64))
        want[0, 0] = 1.0
        np.testing.assert_allclose(rho.entries, want, atol=1e-14)
        assert rho.trace_deficit < 1e-12

    def test_density_invariants(self):
        budget = AssemblyBudget(dims=(12, 12))
        for t in (0.5, 1.5, 3.0):
            rho = assemble_joint_density(OSC3, t, 0.0, 0.0, budget)
            rho.validate()
            assert rho.trace_deficit <= 1e-8

    def test_partial_trace_matches_reduced_form(self):
        budget = AssemblyBudget(dims=(14, 14))
        for alpha, beta in ((0.0, 0.0), (0.3, 0.2j)):
            rho = assemble_joint_density(OSC3, 1.2, alpha, beta, budget)
            for mode in "cv":
                red = partial_trace(rho, mode)
                want = reduced_density(OSC3, 1.2, mode, alpha, beta, 14)
                np.testing.assert_allclose(red.entries, want.entries, atol=1e-8)

    def test_matches_defining_series(self):
        self.check_defining_series((12, 12))

    def test_matches_defining_series_rectangular(self):
        self.check_defining_series((7, 10))

    @staticmethod
    def check_defining_series(dims):
        # (D_c (x) D_v)(sum zeta^{m+n} Q_c^{m,n} (x) Q_v^{m,n})(D_c (x) D_v)^dag, term by
        # term with kron: the default budget agrees with the series summed to M = 40
        (Nc, Nv), t = dims, 1.2
        spec_c, spec_v = mode_spec(OSC3, t, "c"), mode_spec(OSC3, t, "v")
        Sc, Sv = squeeze_op(spec_c.xi, Nc), squeeze_op(spec_v.xi, Nv)
        series = sum(
            spec_c.zeta**L * sum(np.kron(qc, qv) for qc, qv in zip(
                _q_level(L, spec_c.n_bar, spec_c.xi, Sc),
                _q_level(L, spec_v.n_bar, spec_v.xi, Sv)))
            for L in range(41)
        )
        for alpha, beta in ((0.0, 0.0), (0.3, 0.2j)):
            u, v = displacement_trajectory(OSC3, alpha, beta, t)
            D = np.kron(displacement_op(u, Nc), displacement_op(v, Nv))
            want = D @ series @ D.conj().T
            want = 0.5 * (want + want.conj().T)
            rho = assemble_joint_density(OSC3, t, alpha, beta, AssemblyBudget(dims=dims))
            assert np.abs(rho.entries - want).max() <= 1e-13

    def test_no_coefficient_calls(self, monkeypatch):
        # the level tables are closed forms, so fock holds no C coefficient, and the
        # R diagonals take one jacobi_poly call per level and mode
        assert not hasattr(fock, "c_coefficient")
        calls, levels = [], []
        jacobi_poly = fock.jacobi_poly
        monkeypatch.setattr(fock, "jacobi_poly",
                            lambda *args: calls.append(args) or jacobi_poly(*args))
        monkeypatch.setattr(fock, "_level_norm",
                            lambda *args: levels.append(args) or _level_norm(*args))
        for alpha, beta in ((0.0, 0.0), (0.3, 0.2j)):
            assemble_joint_density(OSC3, 1.2, alpha, beta, AssemblyBudget(dims=(12, 12)))
        assert len(levels) > 2 and len(calls) == 2 * len(levels)

    @pytest.mark.parametrize("point", [(1.0, 0.5, 0.4), (1.0, 0.5, 0.0)])
    def test_level_norm_cutoff_keeps_positivity(self, point):
        # at t = 1, N = 26 the level norms fall by 0.47-0.49 per level, not by |f g| =
        # 0.27-0.29: a cutoff read off |f g| left lambda_min at -1.35e-8 and -1.82e-8
        p = classify_regime(*point)
        for alpha, beta in ((0.0, 0.0), (0.3 + 0.2j, -0.25 + 0.1j)):
            rho = assemble_joint_density(p, 1.0, alpha, beta, AssemblyBudget(dims=(26, 26)))
            rho.validate()

    def test_cutoff_from_level_norms(self, monkeypatch):
        # the cutoff is the first level whose norm, extrapolated at its ratio to the
        # level below, bounds the tail below series_tol
        seen = []

        def recorded(*args):
            seen.append(_level_norm(*args))
            return seen[-1]

        monkeypatch.setattr(fock, "_level_norm", recorded)
        spec_c, spec_v = mode_spec(OSC3, 1.0, "c"), mode_spec(OSC3, 1.0, "v")
        fock._joint_core(spec_c, spec_v, AssemblyBudget(dims=(16, 16)), float)
        tails = [n * n / (prev - n) if n < prev else math.inf for prev, n in zip(seen, seen[1:])]
        assert tails[-1] < 1e-12 and min(tails[:-1]) >= 1e-12
        assert len(seen) - 1 == 20

    def test_no_parametric_drive_is_coherent_product(self):
        # omega2 = 0: f g = 0 leaves one product term, the projector on D(u)|0> (x) D(v)|0>
        p, N, alpha, beta = classify_regime(1.0, 0.0, 0.4), 12, 0.4 + 0.3j, 0.2 - 0.1j
        for t in (0.5, 1.3, 4.0):
            rho = assemble_joint_density(p, t, alpha, beta, AssemblyBudget(dims=(N, N)))
            u, v = displacement_trajectory(p, alpha, beta, t)
            psi = np.kron(displacement_op(u, N)[:, 0], displacement_op(v, N)[:, 0])
            assert np.abs(rho.entries - np.outer(psi, psi.conj())).max() < 1e-14

    def test_equal_coupling_is_continuous(self):
        # a 1e-7 step in omega2 moves the state by 9.5e-9 (max entry) at t = 0.1, and
        # equal coupling sits on the midpoint of the two sides to 7e-16
        budget = AssemblyBudget(dims=(10, 10))
        for alpha, beta in ((0.0, 0.0), (0.3, 0.2j)):
            below, equal, above = (
                assemble_joint_density(classify_regime(1.0, w2, 0.4), 0.1, alpha, beta, budget).entries
                for w2 in (1.0 - 1e-7, 1.0, 1.0 + 1e-7))
            assert np.abs(equal - below).max() < 2e-8
            assert np.abs(equal - 0.5 * (below + above)).max() < 1e-14

    def test_refuses_unbounded_series(self):
        growing = classify_regime(1.0, 1.3, 0.4)
        with pytest.raises(TruncationError):
            assemble_joint_density(growing, 8.0, 0.0, 0.0, AssemblyBudget(dims=(8, 8)))

    def test_truncation_stability_in_dims(self):
        # growing the basis by 5 only moves the state at the edge-truncation
        # scale; the trace deficit itself stays at rounding level here
        t = 1.0
        rho_small = assemble_joint_density(OSC3, t, 0.0, 0.0, AssemblyBudget(dims=(12, 12)))
        rho_big = assemble_joint_density(OSC3, t, 0.0, 0.0, AssemblyBudget(dims=(17, 17)))
        assert rho_big.trace_deficit <= rho_small.trace_deficit + 1e-12
        emb = np.zeros((17 * 17, 17 * 17), dtype=complex)
        emb.reshape(17, 17, 17, 17)[:12, :12, :12, :12] = (
            rho_small.entries.reshape(12, 12, 12, 12))
        diff = rho_big.entries - emb
        td = 0.5 * np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum()
        assert td < 1e-4


class TestDecorrelation:
    def test_product_at_revivals_entangled_between(self):
        budget = AssemblyBudget(dims=(13, 13))
        mid = 0.5 * (0.0 + TAU_0)  # midway between tau'_0 = 0 and tau_0
        for t, bound, above in ((TAU_0, 1e-6, False), (TAU_PRIME_1, 1e-6, False),
                                (mid, 1e-3, True)):
            rho = assemble_joint_density(OSC, t, 0.0, 0.0, budget)
            prod = np.kron(partial_trace(rho, "c").entries, partial_trace(rho, "v").entries)
            diff = rho.entries - prod
            td = 0.5 * np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum()
            assert (td > bound) if above else (td < bound)


class TestReducedDensity:
    @pytest.mark.parametrize("point, t, N", [
        ((1.0, 0.3, 0.4), 0.5, 8), ((1.0, 0.6, 0.4), 2.0, 15), ((1.0, 0.6, 0.0), 1.0, 26),
        ((1.0, 0.0, 0.4), 4.0, 15), ((1.0, 1.0, 0.4), 0.0, 8),
    ])
    def test_vacuum_start_is_the_defining_l0_term(self, point, t, N):
        # from vacuum the frame is S(xi) alone, and the state is Q^{0,0} exactly,
        # bit for bit, as the defining series builds it
        p = classify_regime(*point)
        for mode in "cv":
            spec = mode_spec(p, t, mode)
            got = reduced_density(p, t, mode, 0.0, 0.0, N).entries
            want = q_operator(0, 0, spec.n_bar, spec.xi, N)
            assert np.array_equal(got, want), (point, t, N, mode)

    def test_cavity_vacuum_revival(self):
        rho = reduced_density(OSC, TAU_PRIME_1, "c", 0.0, 0.4j, 12)
        vac = vacuum_density(12)
        assert state_metrics(rho, vac).fidelity > 1 - 1e-10

    def test_motion_squeezed_vacuum_revival(self):
        N = 24
        xi_bar = steady_squeeze(OSC)
        S = squeeze_op(xi_bar, N)
        target = FockDensity(entries=np.outer(S[:, 0], S[:, 0].conj()), dims=(N,))
        for beta in (0.0, 0.5 + 0.2j):
            rho = reduced_density(OSC, TAU_0, "v", 0.0, beta, N)
            assert state_metrics(rho, target).fidelity > 1 - 1e-8

    def test_steady_state(self):
        N = 24
        t = 50.0 / OSC.gamma
        vac = vacuum_density(N)
        rho_c = reduced_density(OSC, t, "c", 0.0, 0.0, N)
        assert state_metrics(rho_c, vac).fidelity > 1 - 1e-8
        S = squeeze_op(steady_squeeze(OSC), N)
        target = FockDensity(entries=np.outer(S[:, 0], S[:, 0].conj()), dims=(N,))
        rho_v = reduced_density(OSC, t, "v", 0.0, 0.0, N)
        assert state_metrics(rho_v, target).fidelity > 1 - 1e-8


class TestLosslessKet:
    def test_initial_product_of_coherents(self):
        p = classify_regime(1.0, 0.6, 0.0)
        alpha, beta = 0.3, 0.2j
        ket = lossless_ket(p, alpha, beta, 0.0, (16, 16))
        want = np.kron(displacement_op(alpha, 16)[:, 0],
                       displacement_op(beta, 16)[:, 0])
        assert abs(np.vdot(want, ket)) > 1 - 1e-10

    def test_quarter_period_product_state(self):
        p = classify_regime(1.0, 0.6, 0.0)
        lam0 = math.sqrt(p.lambda0_sq)
        alpha, beta = 0.3, 0.2j
        spec = lossless_spec(p, alpha, beta, math.pi / (2 * lam0))
        ket = lossless_ket(p, alpha, beta, math.pi / (2 * lam0), (20, 20))
        xb = steady_squeeze(p)
        psi_c = displacement_op(spec.alpha_bar, 20) @ squeeze_op(-xb, 20)[:, 0]
        psi_v = displacement_op(spec.beta_bar, 20) @ squeeze_op(xb, 20)[:, 0]
        want = np.kron(psi_c, psi_v)
        assert abs(np.vdot(want, ket)) ** 2 > 1 - 1e-8

    def test_norm_deficit(self):
        p = classify_regime(1.0, 0.6, 0.0)
        lam0 = math.sqrt(p.lambda0_sq)
        t = math.pi / (4 * lam0)  # n_bar0 maximal
        ket = lossless_ket(p, 0.0, 0.0, t, (18, 18))
        spec = lossless_spec(p, 0.0, 0.0, t)
        want = (spec.n_bar0 / (spec.n_bar0 + 1.0)) ** 18
        assert abs(np.linalg.norm(ket) ** 2 - (1.0 - want)) < 1e-8

    def test_rejects_lossy_params(self):
        with pytest.raises(Exception):
            lossless_ket(OSC, 0.0, 0.0, 1.0, (8, 8))


class TestPartialTraceAndMetrics:
    def test_product_state_recovers_factor(self):
        a = thermal(0.4, 6).entries
        b = thermal(0.9, 5).entries
        a /= np.trace(a)  # unit-trace factors so the kept side comes back exactly
        b /= np.trace(b)
        joint = FockDensity(entries=np.kron(a, b), dims=(6, 5))
        np.testing.assert_allclose(partial_trace(joint, "c").entries, a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(joint, "v").entries, b, atol=1e-14)

    def test_correlated_diagonal(self):
        N = 5
        p = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        joint = np.zeros((N * N, N * N), dtype=complex)
        for k in range(N):
            joint[k * N + k, k * N + k] = p[k]
        rho = FockDensity(entries=joint, dims=(N, N))
        np.testing.assert_allclose(np.diag(partial_trace(rho, "c").entries).real, p, atol=1e-14)
        np.testing.assert_allclose(np.diag(partial_trace(rho, "v").entries).real, p, atol=1e-14)

    def test_trace_preserved(self):
        rho = assemble_joint_density(OSC3, 0.8, 0.0, 0.0, AssemblyBudget(dims=(9, 9)))
        assert partial_trace(rho, "c").trace() == pytest.approx(rho.trace(), abs=1e-12)

    def test_self_fidelity(self):
        rho = reduced_density(OSC, 1.0, "c", 0.2, 0.1j, 14)
        m = state_metrics(rho, rho)
        assert m.fidelity == pytest.approx(1.0, abs=1e-10)
        assert m.trace_distance < 1e-10

    def test_orthogonal_pure_states(self):
        N = 6
        a = np.zeros((N, N), dtype=complex)
        b = np.zeros((N, N), dtype=complex)
        a[0, 0] = 1.0
        b[1, 1] = 1.0
        rho, sigma = FockDensity(entries=a, dims=(N,)), FockDensity(entries=b, dims=(N,))
        m = state_metrics(rho, sigma)
        assert m.fidelity == pytest.approx(0.0, abs=1e-12)
        assert m.trace_distance == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(rho, sigma) == m.trace_distance

    def test_thermal_purity(self):
        m = state_metrics(thermal(1.0, 40), thermal(1.0, 40))
        assert m.purity == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            state_metrics(thermal(0.1, 5), thermal(0.1, 6))


class TestValidatePositivity:
    """validate() refuses exactly the states with an eigenvalue below -TOL_PSD = -1e-8."""

    @staticmethod
    def state(lowest, rotate):
        # spectrum (lowest, ...) with unit trace; rotated by a random unitary
        w = np.linspace(0.05, 0.3, 12)
        w[0] = lowest
        w[1:] *= (1.0 - lowest) / w[1:].sum()
        U = np.eye(12)
        if rotate:
            rng = np.random.default_rng(4)
            U, _ = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
        return FockDensity(entries=(U * w) @ U.conj().T, dims=(12,))

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    def test_just_above_tolerance_passes(self, rotate):
        self.state(-0.9e-8, rotate).validate()

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    def test_just_below_tolerance_names_eigenvalue(self, rotate):
        rho = self.state(-1.1e-8, rotate)
        assert f"{rho.min_eigenvalue():.3e}" == "-1.100e-08"
        with pytest.raises(ValidityError, match=r"eigenvalue -1\.100e-08 < -1e-08"):
            rho.validate()


class TestValidateCholesky:
    """validate() factorizes in place with LAPACK potrf on a trace-1 matrix."""

    @staticmethod
    def state(lowest, dtype):
        w = np.linspace(0.05, 0.3, 10)
        w[0] = lowest
        w[1:] *= (1.0 - lowest) / w[1:].sum()
        rng = np.random.default_rng(7)
        z = rng.normal(size=(10, 10)) + (1j * rng.normal(size=(10, 10)) if dtype is complex else 0)
        U, _ = np.linalg.qr(z)
        return FockDensity(entries=(U * w) @ U.conj().T, dims=(10,))

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_half_tolerance_passes(self, dtype):
        rho = self.state(-0.5 * fock.TOL_PSD, dtype)
        assert rho.entries.dtype == np.dtype(dtype)
        before = rho.entries.copy()
        rho.validate()
        np.testing.assert_array_equal(rho.entries, before)

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_twice_tolerance_raises(self, dtype):
        rho = self.state(-2.0 * fock.TOL_PSD, dtype)
        with pytest.raises(ValidityError, match=r"eigenvalue -2\.000e-08 < -1e-08"):
            rho.validate()


class TestQuadStats:
    def test_vacuum(self):
        mx, mp_, vx, vp = quad_stats(vacuum_density(8))
        assert (mx, mp_) == (0.0, 0.0)
        assert vx == pytest.approx(0.5, abs=1e-12) and vp == pytest.approx(0.5, abs=1e-12)

    def test_squeezed_thermal(self):
        nb, xi, N = 0.4, 0.35, 40
        S = squeeze_op(xi, N)
        rho = FockDensity(entries=S @ thermal(nb, N).entries @ S.conj().T, dims=(N,))
        _, _, vx, vp = quad_stats(rho)
        assert vx == pytest.approx((nb + 0.5) * math.exp(-2 * xi), abs=1e-8)
        assert vp == pytest.approx((nb + 0.5) * math.exp(2 * xi), abs=1e-8)

    def test_matches_closed_form_on_assembled_state(self):
        budget = AssemblyBudget(dims=(15, 15))
        for t in (0.5, 1.3, 2.4):
            rho = assemble_joint_density(OSC3, t, 0.1, 0.2j, budget)
            got = quad_stats(rho)
            want = quad_variances(OSC3, t, 0.1, 0.2j)
            for field in ("var_xc", "var_pc", "var_xv", "var_pv",
                          "mean_xc", "mean_pc", "mean_xv", "mean_pv"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-6)
