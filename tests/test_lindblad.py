"""Exact propagator: generator correctness, its exact 1-norm, the cost of a
step, conservation laws, agreement with dense expm, with the RK4 oracle and
with the closed-form solution.

The dense oracles below rebuild the generator from explicit np.kron
matrices (commutator with the explicit Hamiltonian plus the loss term) and
must agree with the sparse matrix-free operator to rounding.  The RK4 tests
check the fixed-step oracle of ``rk4_oracle`` itself, against which the
propagator is compared at the ``validate`` workload's point.
"""

import math
import re

import numpy as np
import pytest
import scipy.linalg

from ioncavity import (
    AssemblyBudget,
    FockDensity,
    IntegrationError,
    assemble_joint_density,
    classify_regime,
    displacement_op,
    displacement_trajectory,
    evolve_trajectory,
    ladder,
    lindblad,
    lossless_ket,
    state_metrics,
)
from rk4_oracle import RK4Config, dense_hamiltonian, make_rhs, rk4_evolve, rk4_ket, rk4_trajectory

OSC = classify_regime(1.0, 0.6, 0.4)
OSC3 = classify_regime(1.0, 0.3, 0.4)
BEAMSPLIT = classify_regime(1.0, 0.0, 0.4)
LOSSLESS = classify_regime(1.0, 0.6, 0.0)
LOSSLESS3 = classify_regime(1.0, 0.3, 0.0)
POINTS = {"OSC": OSC, "OSC3": OSC3, "BEAMSPLIT": BEAMSPLIT, "LOSSLESS": LOSSLESS}

#: theta_55 of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1 (u = 2^-53)
THETA_55 = 9.9


def vacuum_joint(Nc, Nv):
    rho = np.zeros((Nc * Nv, Nc * Nv), dtype=complex)
    rho[0, 0] = 1.0
    return FockDensity(entries=rho, dims=(Nc, Nv))


def coherent_joint(alpha, beta, Nc, Nv):
    psi = np.kron(displacement_op(alpha, Nc)[:, 0],
                  displacement_op(beta, Nv)[:, 0])
    return FockDensity(entries=np.outer(psi, psi.conj()), dims=(Nc, Nv))


def random_density(rng, Nc, Nv):
    M = rng.normal(size=(Nc * Nv, Nc * Nv)) + 1j * rng.normal(size=(Nc * Nv, Nc * Nv))
    rho = M @ M.conj().T
    return FockDensity(entries=rho / np.trace(rho), dims=(Nc, Nv))


def dense_rhs_oracle(params, rho):
    """Independent RHS: explicit matrices and dense products."""
    Nc, Nv = rho.dims
    H = dense_hamiltonian(params, (Nc, Nv))
    a = np.kron(ladder(Nc), np.eye(Nv))
    ad = a.conj().T
    n = ad @ a
    r = rho.entries
    out = -1j * (H @ r - r @ H)
    out += params.gamma * (a @ r @ ad) - 0.5 * params.gamma * (n @ r + r @ n)
    return out


def dense_liouvillian(params, dims):
    """Explicit D^2 x D^2 generator in row-major vec: vec(A X B) = (A kron B^T) vec X."""
    Nc, Nv = dims
    H = dense_hamiltonian(params, dims)
    a = np.kron(ladder(Nc), np.eye(Nv))
    n = a.conj().T @ a
    eye = np.eye(Nc * Nv)
    g = params.gamma
    return (-1j * (np.kron(H, eye) - np.kron(eye, H.T)) + g * np.kron(a, a.conj())
            - 0.5 * g * (np.kron(n, eye) + np.kron(eye, n.T)))


def generator(params, rho):
    """L(rho) from the propagator's own kernel: apply summed over the real
    (anti)symmetric parts of rho, plus mu rho."""
    apply, mu, _ = lindblad._kernel(params, rho.dims)
    X = rho.entries
    return lindblad._join([(sign, imag, apply(P, sign)) for sign, imag, P in lindblad._parts(X)],
                          X.shape) + mu * X


def trace_distance(x, y):
    diff = x - y
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def pure_joint(psi, dims):
    """psi psi^dag as a two-mode density (not renormalized)."""
    return FockDensity(entries=np.outer(psi, psi.conj()), dims=dims)


def count_kernel_calls(monkeypatch):
    """Count applications of lindblad's generator kernel, in total ("apply")
    and by the sign of the (anti)symmetric part they act on (1 and -1)."""
    calls = {"apply": 0, 1: 0, -1: 0}
    kernel = lindblad._kernel

    def counting_kernel(params, dims):
        apply, mu, norm1 = kernel(params, dims)

        def counted(X, sign):
            calls["apply"] += 1
            calls[sign] += 1
            return apply(X, sign)

        return counted, mu, norm1

    monkeypatch.setattr(lindblad, "_kernel", counting_kernel)
    return calls


class TestHamiltonian:
    """The propagator's K = -iH, read back as the dense H = iK."""

    @staticmethod
    def hamiltonian(params, dims):
        return 1j * lindblad._k_matrix(params, dims).toarray()

    def test_hermitian(self):
        H = self.hamiltonian(OSC, (6, 7))
        assert np.abs(H - H.conj().T).max() < 1e-14

    def test_beam_splitter_element(self):
        # <1_c 0_v| H |0_c 1_v> = i omega1
        H = self.hamiltonian(OSC, (4, 4))
        assert H[1 * 4 + 0, 0 * 4 + 1] == pytest.approx(1j * OSC.omega1, abs=1e-15)

    def test_parametric_element(self):
        # <1_c 1_v| H |0_c 0_v> = i omega2
        H = self.hamiltonian(OSC, (4, 4))
        assert H[1 * 4 + 1, 0] == pytest.approx(1j * OSC.omega2, abs=1e-15)

    def test_matches_kron_build(self):
        H = self.hamiltonian(OSC, (5, 6))
        np.testing.assert_allclose(H, dense_hamiltonian(OSC, (5, 6)), atol=1e-15)


class TestRhs:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for params in (OSC, OSC3, BEAMSPLIT, LOSSLESS):
            M = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
            herm = 0.5 * (M + M.conj().T)
            rho = FockDensity(entries=herm, dims=(5, 6))
            got = generator(params, rho)
            want = dense_rhs_oracle(params, rho)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rk4_oracle_rhs_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for params in (OSC, OSC3, BEAMSPLIT, LOSSLESS):
            M = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
            herm = 0.5 * (M + M.conj().T)
            got = make_rhs(params, 5, 6)(herm.reshape(5, 6, 5, 6)).reshape(30, 30)
            want = dense_rhs_oracle(params, FockDensity(entries=herm, dims=(5, 6)))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_vacuum_stationary_without_parametric_drive(self):
        rho = vacuum_joint(5, 5)
        out = generator(BEAMSPLIT, rho)
        assert np.abs(out).max() < 1e-15

    def test_trace_free(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
        rho = FockDensity(entries=0.5 * (M + M.conj().T), dims=(6, 6))
        assert abs(np.trace(generator(OSC, rho))) < 1e-12

    def test_purity_conserved_without_loss(self):
        rho = coherent_joint(0.4, 0.3j, 8, 8)
        out = generator(LOSSLESS, rho)
        # d tr(rho^2)/dt = 2 tr(rho drho)
        assert abs(2 * np.trace(rho.entries @ out)) < 1e-12


class TestGenerator:
    @pytest.mark.parametrize("name", POINTS)
    @pytest.mark.parametrize("dims", [(4, 4), (5, 6)])
    def test_matvec_and_rmatvec_match_dense(self, name, dims):
        # on non-Hermitian complex X: the generator must hold on
        # all of C^{D^2}, not only on the density matrices it propagates; and
        # the kernel's shift mu is tr L / D^2
        params = POINTS[name]
        D = dims[0] * dims[1]
        mu = lindblad._kernel(params, dims)[1]
        dense = dense_liouvillian(params, dims)
        rng = np.random.default_rng(5)
        for _ in range(3):
            X = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
            got = generator(params, FockDensity(entries=X, dims=dims))
            np.testing.assert_allclose(got.ravel(), dense @ X.ravel(), rtol=0, atol=1e-13)
        assert D * D * mu == pytest.approx(np.trace(dense).real, abs=1e-12)
        assert abs(np.trace(dense).imag) < 1e-12

    @pytest.mark.parametrize("name", ["OSC", "LOSSLESS"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["sym", "antisym"])
    def test_kernel_output_exactly_keeps_symmetry(self, name, sign):
        # the propagator relies on it: X M^T is taken as sign (M X)^T, so a
        # symmetric input stays exactly symmetric and an antisymmetric one
        # exactly antisymmetric
        params, dims = POINTS[name], (5, 6)
        apply = lindblad._kernel(params, dims)[0]
        R = np.random.default_rng(13).normal(size=(30, 30))
        X = R + sign * R.T
        for _ in range(3):
            X = apply(X, sign)
            assert X.dtype == np.float64
            assert np.abs(X - sign * X.T).max() == 0


class TestOneNorm:
    @pytest.mark.parametrize("name", POINTS)
    @pytest.mark.parametrize("dims", [(4, 5), (5, 4), (6, 6)])
    def test_one_norm_matches_dense(self, name, dims):
        # the structural 1-norm is exact: it differs from the dense column
        # sums only by the order of the additions
        params = POINTS[name]
        _, mu, norm1 = lindblad._kernel(params, dims)
        dense = dense_liouvillian(params, dims)
        D2 = dense.shape[0]
        exact = np.abs(dense - mu * np.eye(D2)).sum(axis=0).max()
        assert norm1 == pytest.approx(exact, rel=1e-14, abs=0)

    def test_lossy_step_costs_no_norm_estimation(self, monkeypatch):
        # every application of the generator kernel in one step h = 1 on the
        # validate basis: the Taylor terms alone, with no products spent on
        # estimating norms
        N = 16
        norm1 = lindblad._kernel(OSC3, (N, N))[2]
        calls = count_kernel_calls(monkeypatch)
        evolve_trajectory(OSC3, vacuum_joint(N, N), [1.0])
        assert 0 < calls["apply"] <= math.ceil(1.0 * norm1 / THETA_55) * 55

    def test_rounding_level_asymmetry_costs_nothing(self, monkeypatch):
        # np.outer of a coherent ket is Hermitian only to rounding (here made
        # sure of by one ulp more); its anti-Hermitian part is not propagated,
        # so it costs what the symmetrized copy costs
        rho0 = coherent_joint(0.4 + 0.2j, 0.3j, 8, 8)
        rho0.entries[0, 1] *= 1 + 2.0 ** -52
        asym = np.abs(rho0.entries - rho0.entries.conj().T).max()
        assert 0 < asym < 1e-15
        sym = FockDensity(entries=0.5 * (rho0.entries + rho0.entries.conj().T), dims=(8, 8))
        calls = count_kernel_calls(monkeypatch)
        evolve_trajectory(OSC3, rho0, [0.5, 1.0])
        once = calls["apply"]
        evolve_trajectory(OSC3, sym, [0.5, 1.0])
        assert calls["apply"] == 2 * once > 0


class TestRealParts:
    """A real start propagates one real matrix, a complex Hermitian start two."""

    @pytest.mark.parametrize("name", POINTS)
    def test_real_start_matches_dense_expm(self, name, monkeypatch):
        params, dims = POINTS[name], (4, 5)
        R = np.random.default_rng(17).normal(size=(20, 20))
        rho0 = FockDensity(entries=R @ R.T / np.trace(R @ R.T), dims=dims)
        calls = count_kernel_calls(monkeypatch)
        states = evolve_trajectory(params, rho0, [0.5, 1.0])
        assert calls[1] > 0 and calls[-1] == 0
        step = scipy.linalg.expm(0.5 * dense_liouvillian(params, dims).real)
        want = rho0.entries.ravel()
        for rho in states:
            want = step @ want
            assert rho.entries.dtype == np.float64
            np.testing.assert_allclose(rho.entries.ravel(), want, rtol=0, atol=1e-12)

    def test_vacuum_start_is_real(self, monkeypatch):
        # a complex array whose imaginary part is zero is a real start too
        calls = count_kernel_calls(monkeypatch)
        states = evolve_trajectory(OSC3, vacuum_joint(6, 6), [0.0, 0.5, 1.0])
        assert calls[1] > 0 and calls[-1] == 0
        assert all(rho.entries.dtype == np.float64 for rho in states)

    def test_complex_hermitian_start_propagates_two_parts(self, monkeypatch):
        # Re rho symmetric (sign 1) and Im rho antisymmetric (sign -1)
        calls = count_kernel_calls(monkeypatch)
        rho = evolve_trajectory(OSC3, coherent_joint(0.4 + 0.2j, 0.3j, 6, 6), [1.0])[-1]
        assert calls[1] > 0 and calls[-1] > 0
        assert rho.entries.dtype == np.complex128


class TestEvolve:
    def test_zero_time_is_identity(self):
        rho = coherent_joint(0.2, 0.1, 6, 6)
        out = evolve_trajectory(OSC, rho, [0.0])[-1]
        np.testing.assert_array_equal(out.entries, rho.entries)

    @pytest.mark.parametrize("name", POINTS)
    @pytest.mark.parametrize("dims", [(4, 4), (5, 6)])
    def test_matches_dense_expm(self, name, dims):
        params = POINTS[name]
        rho0 = random_density(np.random.default_rng(9), *dims)
        times = [0.5, 1.0, 2.0]
        states = evolve_trajectory(params, rho0, times)
        # K = -iH is real, so L is too and its expm can run in real arithmetic;
        # every checkpoint is a multiple of 0.5: one expm, applied repeatedly
        dense = dense_liouvillian(params, dims)
        assert np.abs(dense.imag).max() == 0
        step = scipy.linalg.expm(0.5 * dense.real)
        want, done = rho0.entries.ravel(), 0.0
        for t, rho in zip(times, states):
            while done < t:
                want, done = step @ want, done + 0.5
            np.testing.assert_allclose(rho.entries.ravel(), want, rtol=0, atol=1e-12)

    def test_validate_states_match_rk4(self):
        # the lossy validate workload: omega2/omega1 = 0.3 on its basis
        # N = 16, from vacuum, against RK4 at that workload's dt
        N = 16
        times = [0.5, 1.0, 2.0]
        rho0 = vacuum_joint(N, N)
        exact = evolve_trajectory(OSC3, rho0, times)
        rk4 = rk4_trajectory(OSC3, rho0, times, RK4Config(dt=5e-3, halving_check=False))
        for x, y in zip(exact, rk4):
            assert trace_distance(x.entries, y.entries) <= 1e-6

    def test_trace_and_hermiticity_drift(self):
        rho = evolve_trajectory(OSC3, vacuum_joint(8, 8), [20.0])[-1]
        assert abs(rho.trace() - 1.0) < 1e-8
        assert np.abs(rho.entries - rho.entries.conj().T).max() < 1e-8

    def test_energy_decays_to_steady_state(self):
        # N = 12: the truncated generator's own steady-state bias sits below
        # 1e-4 from this dimension on (measured 2.4e-5; ~9x drop per +2 levels)
        rho = evolve_trajectory(OSC3, vacuum_joint(12, 12), [40.0])[-1]
        n_c = np.kron(np.diag(np.arange(12)), np.eye(12))
        assert np.trace(rho.entries @ n_c).real < 1e-4

    def test_rk4_convergence_order(self):
        # error ratio between dt and dt/2 runs on a smooth observable ~ 16
        dims = (6, 6)
        rho0 = vacuum_joint(*dims)
        n_c = np.kron(np.diag(np.arange(6.0)), np.eye(6))
        t = 1.0

        def occupancy(dt):
            rho = rk4_evolve(OSC, rho0, t, RK4Config(dt=dt, halving_check=False))
            return np.trace(rho.entries @ n_c).real

        ref = occupancy(1.25e-3)
        err_coarse = abs(occupancy(1e-2) - ref)
        err_fine = abs(occupancy(5e-3) - ref)
        assert 12.0 < err_coarse / err_fine < 20.0

    def test_first_moments_match_closed_form(self):
        # At OSC (omega2/omega1 = 0.6) the miss against the exact moments is
        # the population leaking past the basis edge: it needs N >~ 25 for
        # 1e-6.  OSC3 at N = 16 keeps the top levels below 1e-8, so
        # this checks the closed form, not the truncation.
        alpha, beta = 0.4, 0.3j
        Nc = Nv = 16
        times = [0.5, 1.0, 2.0]
        states = evolve_trajectory(OSC3, coherent_joint(alpha, beta, Nc, Nv), times)
        a = np.kron(ladder(Nc), np.eye(Nv))
        b = np.kron(np.eye(Nc), ladder(Nv))
        for t, rho in zip(times, states):
            pops = rho.entries.diagonal().real.reshape(Nc, Nv)
            assert pops[-1, :].sum() < 1e-8
            assert pops[:, -1].sum() < 1e-8
            u, v = displacement_trajectory(OSC3, alpha, beta, t)
            assert np.trace(rho.entries @ a) == pytest.approx(u, abs=1e-6)
            assert np.trace(rho.entries @ b) == pytest.approx(v, abs=1e-6)

    def test_halving_check_passes_on_smooth_run(self):
        rk4_evolve(OSC3, vacuum_joint(6, 6), 1.0, RK4Config(dt=2e-3, halving_check=True))

    def test_stability_heuristic_rejected(self):
        with pytest.raises(IntegrationError):
            rk4_evolve(OSC, vacuum_joint(8, 8), 1.0, RK4Config(dt=0.02))

    def test_oracle_agreement_improves_with_dims(self):
        # growing the basis must not degrade agreement with the closed form
        t = 1.0
        tds = []
        for N in (10, 13):
            rho_num = evolve_trajectory(OSC3, vacuum_joint(N, N), [t])[-1]
            rho_ana = assemble_joint_density(OSC3, t, 0.0, 0.0, AssemblyBudget(dims=(N, N)))
            tds.append(state_metrics(rho_ana, rho_num).trace_distance)
        assert tds[1] <= tds[0] + max(rho_ana.trace_deficit, 1e-10)


class TestFailures:
    """Every propagator failure names the parameter point, dims, t and check."""

    def test_non_hermitian_start(self):
        rho0 = vacuum_joint(4, 5)
        rho0.entries[0, 1] = 1e-3
        with pytest.raises(IntegrationError) as exc:
            evolve_trajectory(OSC, rho0, [0.25, 0.5])
        msg = str(exc.value)
        assert "Hermiticity" in msg
        assert "(omega1, omega2, gamma) = (1, 0.6, 0.4)" in msg
        assert "dims = (4, 5)" in msg and "t = 0.25" in msg

    def test_trace_drift(self):
        rho0 = FockDensity(entries=1.1 * vacuum_joint(4, 4).entries, dims=(4, 4))
        with pytest.raises(IntegrationError) as exc:
            evolve_trajectory(BEAMSPLIT, rho0, [1.0])
        msg = str(exc.value)
        assert "trace drift" in msg
        assert "(omega1, omega2, gamma) = (1, 0, 0.4)" in msg
        assert "dims = (4, 4)" in msg and "t = 1" in msg

    def test_step_past_the_substep_cap(self, monkeypatch):
        # gamma = 1e300 puts h ||L - mu I||_1 / theta_55 at 4.5e299 for h = 1:
        # refused before the kernel runs once
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(IntegrationError) as exc:
            evolve_trajectory(classify_regime(1.0, 0.3, 1e300), vacuum_joint(4, 4), [0.0, 1.0])
        msg = str(exc.value)
        assert re.search(r"needs 4\.\d+e\+299 substeps > 1000 at ", msg)
        assert "(omega1, omega2, gamma) = (1, 0.3, 1e+300)" in msg
        assert "dims = (4, 4)" in msg and "t = 1" in msg
        assert calls["apply"] == 0

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
    @pytest.mark.parametrize("N, s", [(4, "inf"), (16, "nan")])
    def test_step_with_non_finite_substeps(self, N, s):
        # gamma = 1e308 overflows the 1-norm to inf, or to inf - inf = nan once
        # mu = -(gamma/2)(N - 1) overflows too; a checkpoint at t = 0 takes no step
        p, rho0 = classify_regime(1.0, 0.3, 1e308), vacuum_joint(N, N)
        assert np.array_equal(evolve_trajectory(p, rho0, [0.0])[0].entries, rho0.entries)
        with pytest.raises(IntegrationError, match=f"needs {s} substeps > 1000 at .* t = 0.5$"):
            evolve_trajectory(p, rho0, [0.5, 1.0])


class TestPureStates:
    """Pure states at gamma = 0, propagated as psi psi^dag by the one propagator."""

    def test_vacuum_stationary_without_parametric_drive(self):
        p = classify_regime(1.0, 0.0, 0.0)
        rho = evolve_trajectory(p, vacuum_joint(4, 4), [2.0])[-1].entries
        # |<psi0|psi(t)>| = sqrt(<psi0|rho(t)|psi0>)
        assert abs(math.sqrt(rho[0, 0].real) - 1.0) < 1e-12

    def test_norm_drift_reported_small(self):
        # unitary dynamics keep the trace and the purity of psi0 psi0^dag
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        rho0 = pure_joint(lossless_ket(LOSSLESS, 0.2, 0.1j, 0.0, (12, 12)), (12, 12))
        rho = evolve_trajectory(LOSSLESS, rho0, [2 * math.pi / lam0])[-1]
        assert abs(rho.trace() - rho0.trace()) < 1e-10
        assert np.trace(rho.entries @ rho.entries).real >= 1 - 1e-10

    def test_full_period_return(self):
        # the exact dynamics return after 2 pi/L0 (a'' = -L0^2 a); at
        # omega2/omega1 = 0.6 the basis edge limits the overlap to 1 - 3e-4
        # at N = 14, so the check runs at 0.3 on N = 16
        lam0 = math.sqrt(LOSSLESS3.lambda0_sq)
        N = 16
        psi0 = lossless_ket(LOSSLESS3, 0.2, 0.1j, 0.0, (N, N))
        rho = evolve_trajectory(LOSSLESS3, pure_joint(psi0, (N, N)), [2 * math.pi / lam0])[-1]
        overlap = math.sqrt(np.vdot(psi0, rho.entries @ psi0).real)
        assert overlap > 1 - 1e-6

    def test_matches_rk4_ket(self):
        # the lossless validate workload: checkpoint to checkpoint on N = 16
        N = 16
        psi_rk4 = lossless_ket(LOSSLESS3, 0.0, 0.0, 0.0, (N, N))
        times = (0.5, 1.0, 2.0)
        states = evolve_trajectory(LOSSLESS3, pure_joint(psi_rk4, (N, N)), times)
        t_prev = 0.0
        for t, rho in zip(times, states):
            psi_rk4 = rk4_ket(LOSSLESS3, psi_rk4, (N, N), t - t_prev, 5e-3)
            t_prev = t
            # trace distance between the two pure states, sqrt(1 - F)
            fid = np.vdot(psi_rk4, rho.entries @ psi_rk4).real
            fid /= np.linalg.norm(psi_rk4) ** 2 * rho.trace()
            assert math.sqrt(max(0.0, 1.0 - fid)) <= 1e-6


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RK4Config(dt=0.0)
        with pytest.raises(ValueError):
            evolve_trajectory(OSC, vacuum_joint(4, 4), [-1.0])
        with pytest.raises(ValueError):
            evolve_trajectory(OSC, vacuum_joint(4, 4), [1.0, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_times(self, bad):
        with pytest.raises(ValueError):
            evolve_trajectory(OSC, vacuum_joint(4, 4), [0.5, bad])
