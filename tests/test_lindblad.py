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
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from ioncavity import (
    AssemblyBudget,
    Check,
    FockDensity,
    IntegrationError,
    assemble_joint_density,
    classify_regime,
    displacement_trajectory,
    evolve_trajectory,
    fock,
    ladder,
    lindblad,
    lossless_ket,
    state_metrics,
    validation_checks,
)
from ioncavity.fock import _frame
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
    # the exact coherent columns, normalized on the truncated basis as the CLI's start
    psi = np.kron(_frame(alpha, 0.0, Nc)[:, 0], _frame(beta, 0.0, Nv)[:, 0])
    psi /= np.linalg.norm(psi)
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
    """L(rho) from the propagator's own kernel: apply on the symmetric and
    antisymmetric parts of Re rho and of Im rho, each packed into the flat
    buffer of its nonzero parity sectors, plus mu rho."""
    apply, mu, _ = lindblad._kernel(params, rho.dims)
    E, O = lindblad._parity_order(rho.dims)
    X = rho.entries
    out = mu * X
    for c, R in ((1, X.real), (1j, X.imag)):
        for sign in (1, -1):
            v = lindblad._pack(0.5 * (R + sign * R.T), E, O)
            if v is not None:
                out = out + c * lindblad._unpack(apply(v, sign), sign, E, O)
    return out


def trace_distance(x, y):
    diff = x - y
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def pure_joint(psi, dims):
    """psi psi^dag as a two-mode density (not renormalized)."""
    return FockDensity(entries=np.outer(psi, psi.conj()), dims=dims)


def count_kernel_calls(monkeypatch):
    """Count applications of lindblad's generator kernel, in total ("apply")
    and by the sign of the (anti)symmetric part they act on (1 and -1), and
    collect the sizes of the flat buffers it is applied to ("sizes")."""
    calls = {"apply": 0, 1: 0, -1: 0, "sizes": set()}
    kernel = lindblad._kernel

    def counting_kernel(params, dims):
        apply, mu, norm1 = kernel(params, dims)

        def counted(v, sign, out=None):
            calls["apply"] += 1
            calls[sign] += 1
            calls["sizes"].add(v.size)
            return apply(v, sign, out)

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

    @pytest.mark.parametrize("point", [(1.0, 0.3, 0.4), (1.0, 0.6, 0.0), (0.7, 0.2, 1.0), (1.0, 0.0, 0.4)])
    @pytest.mark.parametrize("dims", [(5, 5), (16, 16), (4, 7), (3, 2)])
    def test_matches_sparse_kron_form(self, point, dims):
        # K placed from index arrays against the sparse kron products a = a_c (x) 1,
        # b = 1 (x) a_v: the same entries to the bit, the same stored entries (none at a
        # zero omega2), in sorted CSR
        import scipy.sparse as sp

        params, (Nc, Nv) = classify_regime(*point), dims
        a = sp.kron(sp.diags(np.sqrt(np.arange(1.0, Nc)), 1), sp.identity(Nv), format="csr")
        b = sp.kron(sp.identity(Nc), sp.diags(np.sqrt(np.arange(1.0, Nv)), 1), format="csr")
        want = (params.omega1 * (a.T @ b - a @ b.T) + params.omega2 * (a.T @ b.T - a @ b)).tocsr()
        K = lindblad._k_matrix(params, dims)
        assert K.format == "csr" and K.has_sorted_indices and K.nnz == want.nnz
        np.testing.assert_array_equal(K.toarray(), want.toarray())


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
        # exactly antisymmetric; the off sector holds X_EO alone, so the
        # diagonal blocks X_EE and X_OO carry the check
        params, dims = POINTS[name], (5, 6)
        apply = lindblad._kernel(params, dims)[0]
        E, O = lindblad._parity_order(dims)
        R = np.random.default_rng(13).normal(size=(30, 30))
        v = lindblad._pack(R + sign * R.T, E, O)
        assert v.size == E.size ** 2 + E.size * O.size + O.size ** 2  # both sectors
        for _ in range(3):
            v = apply(v, sign)
            assert v.dtype == np.float64
            _, EE, OO, _ = lindblad._pieces(v, E.size, O.size)
            assert np.abs(EE - sign * EE.T).max() == 0 and np.abs(OO - sign * OO.T).max() == 0
            X = lindblad._unpack(v, sign, E, O)
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

    def test_complex_start_stays_exactly_hermitian(self):
        # the two parts keep their symmetry exactly, so every propagated state
        # is Hermitian to the last bit, which _check_state measures
        states = evolve_trajectory(OSC3, coherent_joint(0.2 + 0.3j, -0.4j, 6, 6), [0.5, 1.0, 2.0])
        for rho in states:
            assert rho.entries.dtype == np.complex128
            assert (rho.entries == rho.entries.conj().T).all()


class TestParitySectors:
    """L keeps the diagonal sector (X_EE, X_OO) and the off sector (X_EO) apart,
    and only the sectors that are nonzero at the start are propagated."""

    @pytest.mark.parametrize("name", ["OSC3", "LOSSLESS"])
    @pytest.mark.parametrize("dims", [(4, 4), (5, 5), (4, 7)])
    def test_vacuum_start_never_holds_the_off_sector(self, name, dims, monkeypatch):
        # every kernel application gets the diagonal sector of the real part
        # alone, and every state is exactly zero between the parities; at
        # gamma = 0 the pure start is propagated as its ket, with no kernel call
        E, O = lindblad._parity_order(dims)
        calls = count_kernel_calls(monkeypatch)
        states = evolve_trajectory(POINTS[name], vacuum_joint(*dims), [0.5, 1.0, 2.0])
        if name == "LOSSLESS":
            assert calls["apply"] == 0
        else:
            assert calls[1] > 0 and calls[-1] == 0
            assert calls["sizes"] == {E.size ** 2 + O.size ** 2}
        for rho in states:
            assert not rho.entries[np.ix_(E, O)].any() and not rho.entries[np.ix_(O, E)].any()

    @pytest.mark.parametrize("name", ["OSC3", "LOSSLESS"])
    def test_complex_coherent_start_matches_dense_expm(self, name, monkeypatch):
        # (0.2 + 0.3i, -0.4i) on (5, 5): both parts hold both sectors, on
        # parity blocks of 13 and 12 states; at gamma = 0 the ket is propagated
        params, dims = POINTS[name], (5, 5)
        rho0 = coherent_joint(0.2 + 0.3j, -0.4j, *dims)
        calls = count_kernel_calls(monkeypatch)
        times = [0.5, 1.0, 2.0]
        states = evolve_trajectory(params, rho0, times)
        if name == "LOSSLESS":
            assert calls["apply"] == 0
        else:
            assert calls[1] > 0 and calls[-1] > 0
            assert calls["sizes"] == {13 * 13 + 13 * 12 + 12 * 12}
        step = scipy.linalg.expm(0.5 * dense_liouvillian(params, dims).real)
        want, done = rho0.entries.ravel(), 0.0
        for t, rho in zip(times, states):
            while done < t:
                want, done = step @ want, done + 0.5
            assert (rho.entries == rho.entries.conj().T).all()
            np.testing.assert_allclose(rho.entries.ravel(), want, rtol=0, atol=1e-12)


def density_path(params, rho0, times):
    """The density propagator of evolve_trajectory, run step by step on its
    own kernel and _taylor_expm, with no start check and no ket path."""
    apply, mu, norm1 = lindblad._kernel(params, rho0.dims)
    E, O = lindblad._parity_order(rho0.dims)
    X = rho0.entries
    parts = {sign: lindblad._pack(0.5 * (R + sign * R.T), E, O) for sign, R in ((1, X.real), (-1, X.imag))}
    parts = {sign: v for sign, v in parts.items() if v is not None}
    out, t_prev = [], 0.0
    for t in times:
        parts = {sign: lindblad._taylor_expm(partial(apply, sign=sign), v, t - t_prev, mu, norm1)
                 for sign, v in parts.items()}
        rho = lindblad._unpack(parts[1], 1, E, O)
        out.append(rho + 1j * lindblad._unpack(parts[-1], -1, E, O) if -1 in parts else rho)
        t_prev = t
    return out


def dense_expm_states(params, rho0, times):
    """exp(L t) rho0 at checkpoints that are multiples of 0.5, from the dense generator."""
    step = scipy.linalg.expm(0.5 * dense_liouvillian(params, rho0.dims).real)
    want, done, out = rho0.entries.ravel(), 0.0, []
    for t in times:
        while done < t:
            want, done = step @ want, done + 0.5
        out.append(want)
    return out


class TestKetPath:
    """At gamma = 0 a pure start psi psi^dag is propagated as psi by e^{Kt}."""

    @pytest.mark.parametrize("params", [LOSSLESS, LOSSLESS3], ids=["LOSSLESS", "LOSSLESS3"])
    @pytest.mark.parametrize("start", ["vacuum", "complex coherent"])
    def test_pure_start_matches_dense_expm(self, params, start, monkeypatch):
        # (0.2 + 0.3i, -0.4i) on (5, 5), as in TestParitySectors
        dims, times = (5, 5), [0.5, 1.0, 2.0]
        rho0 = vacuum_joint(*dims) if start == "vacuum" else coherent_joint(0.2 + 0.3j, -0.4j, *dims)
        calls = count_kernel_calls(monkeypatch)
        states = evolve_trajectory(params, rho0, times)
        assert calls["apply"] == 0
        for rho, want in zip(states, dense_expm_states(params, rho0, times)):
            assert rho.entries.dtype == (np.float64 if start == "vacuum" else np.complex128)
            assert (rho.entries == rho.entries.conj().T).all()
            np.testing.assert_allclose(rho.entries.ravel(), want, rtol=0, atol=1e-12)

    def test_matches_the_density_path(self):
        # the lossless validate run from (0.5i, 0.3) on (16, 16)
        dims, times = (16, 16), [0.5, 1.0, 2.0]
        rho0 = coherent_joint(0.5j, 0.3, *dims)
        for rho, want in zip(evolve_trajectory(LOSSLESS3, rho0, times),
                             density_path(LOSSLESS3, rho0, times)):
            np.testing.assert_allclose(rho.entries, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("params", [LOSSLESS, LOSSLESS3], ids=["LOSSLESS", "LOSSLESS3"])
    def test_mixed_start_takes_the_density_path(self, params, monkeypatch):
        # a rank-2 start is not psi psi^dag for any psi: its density is propagated
        dims, times = (5, 5), [0.5, 1.0]
        rho0 = FockDensity(entries=0.6 * vacuum_joint(*dims).entries
                           + 0.4 * coherent_joint(0.2 + 0.3j, -0.4j, *dims).entries, dims=dims)
        calls = count_kernel_calls(monkeypatch)
        states = evolve_trajectory(params, rho0, times)
        assert calls[1] > 0 and calls[-1] > 0
        for rho, want in zip(states, dense_expm_states(params, rho0, times)):
            np.testing.assert_allclose(rho.entries.ravel(), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("omega1, s", [(1e300, r"\d\.\d+e\+299"), (1e308, "inf")])
    def test_substep_guard(self, omega1, s, monkeypatch):
        # h ||K||_1 / theta_55 is huge, or inf once ||K||_1 overflows: refused
        # before any step, and with no numpy warning
        steps = []
        monkeypatch.setattr(lindblad, "_taylor_expm", lambda *args: steps.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError, match=f"needs {s} substeps > 1000 at .* t = 1$"):
                evolve_trajectory(classify_regime(omega1, 0.3, 0.0), vacuum_joint(4, 4), [0.0, 1.0])
        assert steps == []


class TestRepeatedCheckpoints:
    """A checkpoint at the time of the one before takes no step: it returns
    the same state again, as its own copy, on each route of evolve_trajectory."""

    @pytest.mark.parametrize("params, mixed, ket", [(LOSSLESS, False, True), (OSC, False, False),
                                                     (LOSSLESS, True, False)],
                             ids=["ket at gamma 0", "density at gamma 0.4", "mixed density at gamma 0"])
    def test_repeated_time_returns_an_unshared_copy(self, params, mixed, ket, monkeypatch):
        dims = (5, 5)
        rho0 = coherent_joint(0.2 + 0.3j, -0.4j, *dims)
        if mixed:  # rank 2, so not psi psi^dag for any psi
            rho0 = FockDensity(entries=0.6 * vacuum_joint(*dims).entries + 0.4 * rho0.entries, dims=dims)
        calls = count_kernel_calls(monkeypatch)
        first, again, last = evolve_trajectory(params, rho0, [0.5, 0.5, 1.0])
        assert (calls["apply"] == 0) is ket
        assert first.entries.dtype == again.entries.dtype == np.complex128
        assert first.entries.tobytes() == again.entries.tobytes()
        assert not np.shares_memory(first.entries, again.entries)
        want = evolve_trajectory(params, rho0, [0.5, 1.0])[1]
        assert last.entries.dtype == want.entries.dtype
        assert last.entries.tobytes() == want.entries.tobytes()


class TestEvolve:
    def test_zero_time_is_identity(self):
        rho = coherent_joint(0.2, 0.1, 6, 6)
        out = evolve_trajectory(OSC, rho, [0.0])[-1]
        np.testing.assert_array_equal(out.entries, rho.entries)

    @pytest.mark.parametrize("name", POINTS)
    @pytest.mark.parametrize("dims", [(4, 4), (5, 6), (5, 5)])
    def test_matches_dense_expm(self, name, dims):
        # (5, 5) has 13 even and 12 odd states, so the parity blocks differ in size
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

    def test_non_hermitian_start(self, monkeypatch):
        # refused at t = 0, before the kernel runs once
        rho0 = vacuum_joint(4, 5)
        rho0.entries[0, 1] = 1e-3
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(IntegrationError) as exc:
            evolve_trajectory(OSC, rho0, [0.25, 0.5])
        msg = str(exc.value)
        assert "Hermiticity" in msg
        assert "(omega1, omega2, gamma) = (1, 0.6, 0.4)" in msg
        assert msg.endswith("dims = (4, 5), t = 0")
        assert calls["apply"] == 0

    def test_nan_start(self, monkeypatch):
        # a nan compares false with any bound, so the start check is written not <=
        rho0 = vacuum_joint(4, 4)
        rho0.entries[1, 1] = math.nan
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(IntegrationError, match=r"Hermiticity error .* = nan > .* t = 0$"):
            evolve_trajectory(OSC, rho0, [0.5])
        assert calls["apply"] == 0

    @pytest.mark.parametrize("at", [(1, 1), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_nan_state_fails_its_checkpoint(self, at):
        # a nan off the diagonal makes the Hermiticity error nan, and one on it both
        # that and the trace: the Hermiticity error is checked first, as at the start
        rho = np.diag([0.5, 0.5, 0.0, 0.0])
        rho[at] = rho[at[::-1]] = math.nan
        with pytest.raises(IntegrationError, match=r"propagator Hermiticity .* = nan > .* t = 1$"):
            lindblad._check_state(rho, "propagator", OSC, (2, 2), 1.0)

    def test_trace_drift(self, monkeypatch):
        # a kernel whose shift mu is 0.1 too large scales rho by e^{0.1 t}, so
        # a normalized start drifts and its first checkpoint is refused
        kernel = lindblad._kernel

        def shifted_kernel(params, dims):
            apply, mu, norm1 = kernel(params, dims)
            return apply, mu + 0.1, norm1

        monkeypatch.setattr(lindblad, "_kernel", shifted_kernel)
        with pytest.raises(IntegrationError) as exc:
            evolve_trajectory(BEAMSPLIT, vacuum_joint(4, 4), [1.0])
        msg = str(exc.value)
        assert "trace drift" in msg
        assert "(omega1, omega2, gamma) = (1, 0, 0.4)" in msg
        assert "dims = (4, 4)" in msg and "t = 1" in msg

    def test_unnormalized_start(self, monkeypatch):
        # tr rho0 = 1 - 1e-7 is the start's fault, not the propagator's: it is
        # refused at t = 0, before the kernel runs once
        rho0 = FockDensity(entries=(1 - 1e-7) * vacuum_joint(4, 5).entries, dims=(4, 5))
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(IntegrationError) as exc:
            evolve_trajectory(OSC, rho0, [0.25, 0.5])
        msg = str(exc.value)
        assert msg.startswith("start trace drift |tr rho - 1| = 1.000e-07 > 1e-08 at ")
        assert "(omega1, omega2, gamma) = (1, 0.6, 0.4)" in msg
        assert msg.endswith("dims = (4, 5), t = 0")
        assert calls["apply"] == 0

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


class TestValidationChecks:
    """The records that ``validate`` prints: one per check, in its order, with its tolerance."""

    PER_CHECKPOINT = (("joint trace distance", 1e-4), ("mode-c fidelity deficit", 1e-6),
                      ("mode-v fidelity deficit", 1e-6), ("quadrature delta", 1e-4))

    @pytest.mark.parametrize("gamma", [0.4, 0.0], ids=["lossy", "lossless"])
    def test_names_order_and_tolerances(self, gamma):
        # each checkpoint's four checks, then at gamma = 0 the lossless line of each
        params, times = classify_regime(1.0, 0.2, gamma), [0.5, 1.0]
        checks = list(validation_checks(params, 0.0, 0.0, (10, 10), times))
        want = [(t, name, tol) for t in times for name, tol in self.PER_CHECKPOINT]
        if gamma == 0:
            want += [(t, "lossless fidelity deficit", 1e-6) for t in times]
        assert [(c.t, c.name, c.tol) for c in checks] == want
        assert all(c.ok and c.note is None and 0.0 <= c.value <= c.tol for c in checks)

    def test_guard_trip_is_a_note(self, monkeypatch):
        # a series tolerance of 1e-6 stops the series early enough that the assembled joint
        # density dips below -TOL_PSD: each joint record holds the guard's message and
        # no value, and every other check still runs
        monkeypatch.setattr(fock, "TOL_SERIES", 1e-6)
        params = classify_regime(1.0, 1.0, 0.4)
        checks = list(validation_checks(params, 0.0, 0.0, (16, 16), [0.1, 0.25]))
        assert [c.ok for c in checks] == [False, True, True, True] * 2
        joint = checks[0]
        assert joint.note == "matrix is not PSD within tolerance (min eig -7.803e-08)"
        assert math.isnan(joint.value) and joint.tol == 1e-4
        assert [c.note is None for c in checks] == [c.ok for c in checks]

    def test_propagator_refusal_comes_before_any_record(self, monkeypatch):
        # gamma = 1e300 needs about 4.5e299 substeps: the generator raises on its first
        # record, and no closed form is assembled
        assembled = []
        monkeypatch.setattr(lindblad, "assemble_joint_density", lambda *a: assembled.append(a))
        checks = validation_checks(classify_regime(1.0, 0.3, 1e300), 0.0, 0.0, (4, 4), [1.0])
        with pytest.raises(IntegrationError, match=r"step of 1 needs 4\.\S+ substeps > 1000"):
            next(checks)
        assert assembled == []

    @pytest.mark.parametrize("value, note, ok", [(1e-4, None, True), (2e-4, None, False),
                                                 (math.nan, None, False), (0.0, "refused", False)])
    def test_ok_needs_no_note_and_a_value_within_tol(self, value, note, ok):
        assert Check(0.5, "joint trace distance", value, 1e-4, note).ok is ok
