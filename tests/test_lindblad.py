"""Brute-force integrator: generator correctness, conservation laws,
convergence order and agreement with the closed-form solution.

The kernel oracle below rebuilds the right-hand side from dense matrix
products (commutator with the explicit Hamiltonian plus the loss term) and
must agree with the banded-shift implementation to rounding.
"""

import math

import numpy as np
import pytest

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
    lossless_ket,
    state_metrics,
)

OSC = classify_regime(1.0, 0.6, 0.4)
OSC3 = classify_regime(1.0, 0.3, 0.4)
BEAMSPLIT = classify_regime(1.0, 0.0, 0.4)
LOSSLESS = classify_regime(1.0, 0.6, 0.0)
LOSSLESS3 = classify_regime(1.0, 0.3, 0.0)


def vacuum_joint(Nc, Nv):
    rho = np.zeros((Nc * Nv, Nc * Nv), dtype=complex)
    rho[0, 0] = 1.0
    return FockDensity(entries=rho, dims=(Nc, Nv))


def coherent_joint(alpha, beta, Nc, Nv):
    psi = np.kron(displacement_op(alpha, Nc).entries[:, 0],
                  displacement_op(beta, Nv).entries[:, 0])
    return FockDensity(entries=np.outer(psi, psi.conj()), dims=(Nc, Nv))


def dense_rhs_oracle(params, rho):
    """Independent RHS: explicit matrices and dense products."""
    Nc, Nv = rho.dims
    H = effective_hamiltonian(params, (Nc, Nv)).entries
    a = np.kron(ladder(Nc).entries, np.eye(Nv))
    ad = a.conj().T
    n = ad @ a
    r = rho.entries
    out = -1j * (H @ r - r @ H)
    out += params.gamma * (a @ r @ ad) - 0.5 * params.gamma * (n @ r + r @ n)
    return out


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


class TestEvolve:
    def test_zero_time_is_identity(self):
        rho = coherent_joint(0.2, 0.1, 6, 6)
        out = evolve(OSC, rho, 0.0, IntegratorConfig())
        np.testing.assert_array_equal(out.entries, rho.entries)

    def test_trace_and_hermiticity_drift(self):
        config = IntegratorConfig(dt=5e-3, halving_check=False)
        rho = evolve(OSC3, vacuum_joint(8, 8), 20.0, config)
        assert abs(rho.trace() - 1.0) < 1e-8
        assert rho.hermiticity_error() < 1e-8

    def test_energy_decays_to_steady_state(self):
        # N = 12: the truncated generator's own steady-state bias sits below
        # 1e-4 from this dimension on (measured 2.4e-5; ~9x drop per +2 levels)
        config = IntegratorConfig(dt=5e-3, t_max=120.0, halving_check=False)
        rho = evolve(OSC3, vacuum_joint(12, 12), 40.0, config)
        n_c = np.kron(np.diag(np.arange(12)), np.eye(12))
        assert np.trace(rho.entries @ n_c).real < 1e-4

    def test_rk4_convergence_order(self):
        # error ratio between dt and dt/2 runs on a smooth observable ~ 16
        dims = (6, 6)
        rho0 = vacuum_joint(*dims)
        n_c = np.kron(np.diag(np.arange(6.0)), np.eye(6))
        t = 1.0

        def occupancy(dt):
            cfg = IntegratorConfig(dt=dt, halving_check=False)
            rho = evolve(OSC, rho0, t, cfg)
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
        config = IntegratorConfig(dt=5e-3, halving_check=False)
        alpha, beta = 0.4, 0.3j
        Nc = Nv = default_dim(OSC3)
        times = [0.5, 1.0, 2.0]
        states = evolve_trajectory(OSC3, coherent_joint(alpha, beta, Nc, Nv),
                                   times, config)
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
        config = IntegratorConfig(dt=2e-3, halving_check=True)
        evolve(OSC3, vacuum_joint(6, 6), 1.0, config)

    def test_stability_heuristic_rejected(self):
        config = IntegratorConfig(dt=0.02)
        with pytest.raises(IntegrationError):
            evolve(OSC, vacuum_joint(8, 8), 1.0, config)

    def test_oracle_agreement_improves_with_dims(self):
        # growing the basis must not degrade agreement with the closed form
        t = 1.0
        config = IntegratorConfig(dt=2e-3, halving_check=False)
        tds = []
        for N in (10, 13):
            rho_num = evolve(OSC3, vacuum_joint(N, N), t, config)
            rho_ana = assemble_joint_density(OSC3, t, 0.0, 0.0, AssemblyBudget(dims=(N, N)))
            tds.append(state_metrics(rho_ana, rho_num).trace_distance)
        assert tds[1] <= tds[0] + max(rho_ana.trace_deficit, 1e-10)


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

    def test_rejects_lossy_params(self):
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        with pytest.raises(IntegrationError):
            evolve_pure(OSC, FockKet(entries=psi0, dims=(4, 4)), 1.0, IntegratorConfig())


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=-1.0)

    def test_rejects_target_beyond_horizon(self):
        with pytest.raises(ValueError):
            evolve(OSC, vacuum_joint(4, 4), 60.0, IntegratorConfig(t_max=50.0))
