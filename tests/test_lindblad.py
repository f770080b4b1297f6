"""Exact propagator: generator correctness, conservation laws, agreement
with dense expm, with the RK4 oracle and with the closed-form solution.

The dense oracles below rebuild the generator from explicit np.kron
matrices (commutator with the explicit Hamiltonian plus the loss term) and
must agree with the sparse matrix-free operator to rounding.  The RK4 tests
check the fixed-step oracle of ``rk4_oracle`` itself, against which the
propagator is compared at the ``validate`` workload's point.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from ioncavity import (
    AssemblyBudget,
    FockDensity,
    FockKet,
    IntegrationError,
    IntegratorConfig,
    assemble_joint_density,
    classify_regime,
    default_dim,
    displacement_op,
    displacement_trajectory,
    effective_hamiltonian,
    evolve,
    evolve_pure,
    evolve_trajectory,
    ladder,
    lindblad_rhs,
    liouvillian,
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


def vacuum_joint(Nc, Nv):
    rho = np.zeros((Nc * Nv, Nc * Nv), dtype=complex)
    rho[0, 0] = 1.0
    return FockDensity(entries=rho, dims=(Nc, Nv))


def coherent_joint(alpha, beta, Nc, Nv):
    psi = np.kron(displacement_op(alpha, Nc).entries[:, 0],
                  displacement_op(beta, Nv).entries[:, 0])
    return FockDensity(entries=np.outer(psi, psi.conj()), dims=(Nc, Nv))


def random_density(rng, Nc, Nv):
    M = rng.normal(size=(Nc * Nv, Nc * Nv)) + 1j * rng.normal(size=(Nc * Nv, Nc * Nv))
    rho = M @ M.conj().T
    return FockDensity(entries=rho / np.trace(rho), dims=(Nc, Nv))


def dense_rhs_oracle(params, rho):
    """Independent RHS: explicit matrices and dense products."""
    Nc, Nv = rho.dims
    H = dense_hamiltonian(params, (Nc, Nv))
    a = np.kron(ladder(Nc).entries, np.eye(Nv))
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
    a = np.kron(ladder(Nc).entries, np.eye(Nv))
    n = a.conj().T @ a
    eye = np.eye(Nc * Nv)
    g = params.gamma
    return (-1j * (np.kron(H, eye) - np.kron(eye, H.T)) + g * np.kron(a, a.conj())
            - 0.5 * g * (np.kron(n, eye) + np.kron(eye, n.T)))


def trace_distance(x, y):
    diff = x - y
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


class TestHamiltonian:
    def test_hermitian(self):
        H = effective_hamiltonian(OSC, (6, 7)).entries
        assert np.abs(H - H.conj().T).max() < 1e-14

    def test_beam_splitter_element(self):
        # <1_c 0_v| H |0_c 1_v> = i omega1
        H = effective_hamiltonian(OSC, (4, 4)).entries
        assert H[1 * 4 + 0, 0 * 4 + 1] == pytest.approx(1j * OSC.omega1, abs=1e-15)

    def test_parametric_element(self):
        # <1_c 1_v| H |0_c 0_v> = i omega2
        H = effective_hamiltonian(OSC, (4, 4)).entries
        assert H[1 * 4 + 1, 0] == pytest.approx(1j * OSC.omega2, abs=1e-15)

    def test_matches_kron_build(self):
        H = effective_hamiltonian(OSC, (5, 6)).entries
        np.testing.assert_allclose(H, dense_hamiltonian(OSC, (5, 6)), atol=1e-15)


class TestRhs:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for params in (OSC, OSC3, BEAMSPLIT, LOSSLESS):
            M = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
            herm = 0.5 * (M + M.conj().T)
            rho = FockDensity(entries=herm, dims=(5, 6))
            got = lindblad_rhs(params, rho).entries
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
        out = lindblad_rhs(BEAMSPLIT, rho).entries
        assert np.abs(out).max() < 1e-15

    def test_trace_free(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
        rho = FockDensity(entries=0.5 * (M + M.conj().T), dims=(6, 6))
        assert abs(np.trace(lindblad_rhs(OSC, rho).entries)) < 1e-12

    def test_purity_conserved_without_loss(self):
        rho = coherent_joint(0.4, 0.3j, 8, 8)
        out = lindblad_rhs(LOSSLESS, rho).entries
        # d tr(rho^2)/dt = 2 tr(rho drho)
        assert abs(2 * np.trace(rho.entries @ out)) < 1e-12


class TestGenerator:
    @pytest.mark.parametrize("name", POINTS)
    @pytest.mark.parametrize("dims", [(4, 4), (5, 6)])
    def test_matvec_and_rmatvec_match_dense(self, name, dims):
        # non-Hermitian complex X: the norm estimates of expm_multiply probe
        # the operator far from the density matrices it propagates
        params = POINTS[name]
        D2 = (dims[0] * dims[1]) ** 2
        L, trace_L = liouvillian(params, dims)
        dense = dense_liouvillian(params, dims)
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.normal(size=D2) + 1j * rng.normal(size=D2)
            np.testing.assert_allclose(L.matvec(x), dense @ x, rtol=0, atol=1e-13)
            np.testing.assert_allclose(L.rmatvec(x), dense.conj().T @ x, rtol=0, atol=1e-13)
        assert trace_L == pytest.approx(np.trace(dense).real, abs=1e-12)
        assert abs(np.trace(dense).imag) < 1e-12


class TestEvolve:
    def test_zero_time_is_identity(self):
        rho = coherent_joint(0.2, 0.1, 6, 6)
        out = evolve(OSC, rho, 0.0, IntegratorConfig())
        np.testing.assert_array_equal(out.entries, rho.entries)

    @pytest.mark.parametrize("name", POINTS)
    @pytest.mark.parametrize("dims", [(4, 4), (5, 6)])
    def test_matches_dense_expm(self, name, dims):
        params = POINTS[name]
        rho0 = random_density(np.random.default_rng(9), *dims)
        times = [0.5, 1.0, 2.0]
        states = evolve_trajectory(params, rho0, times, IntegratorConfig())
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
        # the lossy validate workload: omega2/omega1 = 0.3 on its default_dim
        # basis N = 16, from vacuum, against RK4 at that workload's dt
        N = default_dim(OSC3)
        times = [0.5, 1.0, 2.0]
        rho0 = vacuum_joint(N, N)
        exact = evolve_trajectory(OSC3, rho0, times, IntegratorConfig())
        rk4 = rk4_trajectory(OSC3, rho0, times, RK4Config(dt=5e-3, halving_check=False))
        for x, y in zip(exact, rk4):
            assert trace_distance(x.entries, y.entries) <= 1e-6

    def test_trace_and_hermiticity_drift(self):
        rho = evolve(OSC3, vacuum_joint(8, 8), 20.0, IntegratorConfig())
        assert abs(rho.trace() - 1.0) < 1e-8
        assert rho.hermiticity_error() < 1e-8

    def test_energy_decays_to_steady_state(self):
        # N = 12: the truncated generator's own steady-state bias sits below
        # 1e-4 from this dimension on (measured 2.4e-5; ~9x drop per +2 levels)
        rho = evolve(OSC3, vacuum_joint(12, 12), 40.0, IntegratorConfig(t_max=120.0))
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
        # 1e-6.  OSC3 at default_dim keeps the top levels below 1e-8, so
        # this checks the closed form, not the truncation.
        alpha, beta = 0.4, 0.3j
        Nc = Nv = default_dim(OSC3)
        times = [0.5, 1.0, 2.0]
        states = evolve_trajectory(OSC3, coherent_joint(alpha, beta, Nc, Nv),
                                   times, IntegratorConfig())
        a = np.kron(ladder(Nc).entries, np.eye(Nv))
        b = np.kron(np.eye(Nc), ladder(Nv).entries)
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
            rho_num = evolve(OSC3, vacuum_joint(N, N), t, IntegratorConfig())
            rho_ana = assemble_joint_density(OSC3, t, 0.0, 0.0, AssemblyBudget(dims=(N, N)))
            tds.append(state_metrics(rho_ana, rho_num).trace_distance)
        assert tds[1] <= tds[0] + max(rho_ana.trace_deficit, 1e-10)


class TestFailures:
    """Every propagator failure names the parameter point, dims, t and check."""

    def test_non_hermitian_start(self):
        rho0 = vacuum_joint(4, 5)
        rho0.entries[0, 1] = 1e-3
        with pytest.raises(IntegrationError) as exc:
            evolve_trajectory(OSC, rho0, [0.25, 0.5], IntegratorConfig())
        msg = str(exc.value)
        assert "Hermiticity" in msg
        assert "(omega1, omega2, gamma) = (1, 0.6, 0.4)" in msg
        assert "dims = (4, 5)" in msg and "t = 0.25" in msg

    def test_trace_drift(self):
        rho0 = FockDensity(entries=1.1 * vacuum_joint(4, 4).entries, dims=(4, 4))
        with pytest.raises(IntegrationError) as exc:
            evolve(BEAMSPLIT, rho0, 1.0, IntegratorConfig())
        msg = str(exc.value)
        assert "trace drift" in msg
        assert "(omega1, omega2, gamma) = (1, 0, 0.4)" in msg
        assert "dims = (4, 4)" in msg and "t = 1" in msg


class TestEvolvePure:
    def test_vacuum_stationary_without_parametric_drive(self):
        p = classify_regime(1.0, 0.0, 0.0)
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        ket = evolve_pure(p, FockKet(entries=psi0, dims=(4, 4)), 2.0, IntegratorConfig())
        assert abs(abs(np.vdot(psi0, ket.entries)) - 1.0) < 1e-12

    def test_norm_drift_reported_small(self):
        lam0 = math.sqrt(LOSSLESS.lambda0_sq)
        psi0 = lossless_ket(LOSSLESS, 0.2, 0.1j, 0.0, (12, 12))
        ket = evolve_pure(LOSSLESS, psi0, 2 * math.pi / lam0, IntegratorConfig(t_max=10.0))
        assert ket.norm_deficit < 1e-10

    def test_full_period_return(self):
        # the exact dynamics return after 2 pi/L0 (a'' = -L0^2 a); at
        # omega2/omega1 = 0.6 the basis edge limits the overlap to 1 - 3e-4
        # at N = 14, so the check runs at 0.3 on its default_dim basis
        lam0 = math.sqrt(LOSSLESS3.lambda0_sq)
        N = default_dim(LOSSLESS3)
        psi0 = lossless_ket(LOSSLESS3, 0.2, 0.1j, 0.0, (N, N))
        ket = evolve_pure(LOSSLESS3, psi0, 2 * math.pi / lam0, IntegratorConfig(t_max=10.0))
        overlap = abs(np.vdot(psi0.entries, ket.entries))
        assert overlap > 1 - 1e-6

    def test_matches_rk4_ket(self):
        # the lossless validate workload: checkpoint to checkpoint on N = 16
        N = default_dim(LOSSLESS3)
        psi = psi_rk4 = lossless_ket(LOSSLESS3, 0.0, 0.0, 0.0, (N, N)).entries
        t_prev = 0.0
        for t in (0.5, 1.0, 2.0):
            psi = evolve_pure(LOSSLESS3, FockKet(entries=psi, dims=(N, N)), t - t_prev,
                              IntegratorConfig()).entries
            psi_rk4 = rk4_ket(LOSSLESS3, psi_rk4, (N, N), t - t_prev, 5e-3)
            t_prev = t
            # trace distance between the two pure states
            overlap = abs(np.vdot(psi, psi_rk4)) ** 2
            overlap /= (np.linalg.norm(psi) * np.linalg.norm(psi_rk4)) ** 2
            assert math.sqrt(max(0.0, 1.0 - overlap)) <= 1e-6

    def test_rejects_lossy_params(self):
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        with pytest.raises(IntegrationError):
            evolve_pure(OSC, FockKet(entries=psi0, dims=(4, 4)), 1.0, IntegratorConfig())


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RK4Config(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=-1.0)

    def test_rejects_target_beyond_horizon(self):
        with pytest.raises(ValueError):
            evolve(OSC, vacuum_joint(4, 4), 60.0, IntegratorConfig(t_max=50.0))
