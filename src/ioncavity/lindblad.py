"""Exact propagator of the master equation on the truncated joint Fock space.

Ground truth for validating the analytical solution.  The master equation

    d rho/dt = -i [H, rho] + (gamma/2)(2 a rho ad - ad a rho - rho ad a),

with H = i omega1 (ad b - a bd) + i omega2 (ad bd - a b) and the loss acting
on the cavity mode only, is linear and time-invariant, so rho(t) =
exp(L t) rho0 exactly.  With K = -iH (real and antisymmetric), a = a_c (x) 1
and n = ad a, all real D x D matrices (D = Nc Nv), the generator is

    L(X) = K X + X K^T + gamma a X a^T - (gamma/2)(n X + X n).

In row-major vec, vec(A X B) = (A (x) B^T) vec X, so L is the D^2 x D^2
matrix K (x) 1 + 1 (x) K + gamma a (x) a - (gamma/2)(n (x) 1 + 1 (x) n).  It
is never stored: a LinearOperator applies L, and L^T for the norm estimates,
on any complex X (not only Hermitian ones).  K acts as a sparse matrix;
the loss, diagonal in the Fock levels, acts on the (Nc, Nv, Nc, Nv) view of
X as one level shift (a X a^T) and one scaling, which costs a third of
the two sparse products a (a X^T)^T.
``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, "Computing the
action of the matrix exponential", SIAM J. Sci. Comput. 33, 488 (2011))
steps from checkpoint to checkpoint; a pure state at gamma = 0 takes the
same call on K and a ket.  scipy.sparse is imported where the generator is
built, so importing the package does not load it.

The fixed-step RK4 with a dt/2 twin that this replaced lives on as an
independent test oracle in ``tests/rk4_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntegrationError
from .fock import FockDensity, FockKet, FockOperator
from .params import CouplingParams

__all__ = [
    "IntegratorConfig",
    "effective_hamiltonian",
    "liouvillian",
    "lindblad_rhs",
    "evolve",
    "evolve_trajectory",
    "evolve_pure",
]

#: |tr rho - 1| or max |rho - rho^dag| beyond this at a checkpoint aborts a trajectory
TRACE_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class IntegratorConfig:
    """Propagation horizon: checkpoints beyond ``t_max`` are refused."""

    t_max: float = 50.0

    def __post_init__(self):
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")


def _where(params: CouplingParams, dims: Sequence[int], t: float) -> str:
    return (f"(omega1, omega2, gamma) = ({params.omega1:g}, {params.omega2:g}, "
            f"{params.gamma:g}), dims = ({dims[0]}, {dims[1]}), t = {t:.6g}")


def _k_matrix(params: CouplingParams, dims: Sequence[int]):
    """K = -iH = omega1 (ad b - a bd) + omega2 (ad bd - a b) as a real sparse matrix."""
    import scipy.sparse as sp

    Nc, Nv = dims
    if Nc < 2 or Nv < 2:
        raise ValueError("each mode needs at least 2 levels")
    a = sp.kron(sp.diags(np.sqrt(np.arange(1.0, Nc)), 1), sp.identity(Nv), format="csr")
    b = sp.kron(sp.identity(Nc), sp.diags(np.sqrt(np.arange(1.0, Nv)), 1), format="csr")
    K = params.omega1 * (a.T @ b - a @ b.T) + params.omega2 * (a.T @ b.T - a @ b)
    return K.tocsr()


def effective_hamiltonian(params: CouplingParams, dims: Sequence[int]) -> FockOperator:
    """Joint Hamiltonian i omega1 (ad b - a bd) + i omega2 (ad bd - a b) = iK."""
    K = _k_matrix(params, dims)
    return FockOperator(entries=1j * K.toarray(), dim=K.shape[0])


def liouvillian(params: CouplingParams, dims: Sequence[int]):
    """The generator L as a LinearOperator on C^{D^2}, and its exact trace.

    ``matvec`` applies L, ``rmatvec`` L^T(X) = K^T X + X K + gamma a^T X a
    - (gamma/2)(n X + X n) (L is real, so L^T is also its adjoint).
    tr L = -gamma D tr(n) = -gamma D Nv Nc (Nc - 1)/2.
    """
    from scipy.sparse.linalg import LinearOperator

    K = _k_matrix(params, dims)
    Nc, Nv = dims
    g, D = params.gamma, Nc * Nv
    lv = np.arange(Nc, dtype=float)
    # on the (Nc, Nv, Nc, Nv) view: (gamma/2)(n X + X n) scales X[i, j, k, l]
    # by (gamma/2)(i + k); gamma a X a^T moves X[i+1, j, k+1, l] to [i, j, k, l]
    # with weight gamma sqrt((i+1)(k+1)), and gamma a^T X a moves it back
    loss = (0.5 * g) * (lv[:, None, None, None] + lv[None, None, :, None])
    jump = g * np.sqrt(lv[1:, None, None, None] * lv[None, None, 1:, None])

    def action(A, down: bool):
        def apply(v: np.ndarray) -> np.ndarray:
            X = v.reshape(D, D)
            Y = A @ X + (A @ X.T).T
            X4, Y4 = X.reshape(Nc, Nv, Nc, Nv), Y.reshape(Nc, Nv, Nc, Nv)
            Y4 -= loss * X4
            if g:
                if down:
                    Y4[:-1, :, :-1] += jump * X4[1:, :, 1:]
                else:
                    Y4[1:, :, 1:] += jump * X4[:-1, :, :-1]
            return Y.ravel()

        return apply

    op = LinearOperator((D * D, D * D), matvec=action(K, True),
                        rmatvec=action(K.T.tocsr(), False), dtype=complex)
    return op, -g * D * Nv * Nc * (Nc - 1) / 2.0


def lindblad_rhs(params: CouplingParams, rho: FockDensity) -> FockDensity:
    """d rho/dt = L(rho): the generator the propagator exponentiates, at unit step."""
    if not rho.joint:
        raise ValueError("lindblad_rhs needs a two-mode density")
    L, _ = liouvillian(params, rho.dims)
    D = rho.entries.shape[0]
    return FockDensity(entries=L.matvec(rho.entries.ravel()).reshape(D, D), dims=rho.dims)


def _check_state(rho: np.ndarray, params: CouplingParams, dims: Sequence[int], t: float) -> None:
    drift = abs(float(np.trace(rho).real) - 1.0)
    if drift > TRACE_DRIFT_TOL:
        raise IntegrationError(f"propagator trace drift |tr rho - 1| = {drift:.3e} > "
                               f"{TRACE_DRIFT_TOL} at {_where(params, dims, t)}")
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > TRACE_DRIFT_TOL:
        raise IntegrationError(f"propagator Hermiticity error max |rho - rho^dag| = {herm:.3e} > "
                               f"{TRACE_DRIFT_TOL} at {_where(params, dims, t)}")


def evolve_trajectory(
    params: CouplingParams,
    rho0: FockDensity,
    times: Sequence[float],
    config: IntegratorConfig,
) -> list[FockDensity]:
    """Evolve rho0 through an increasing list of checkpoint times.

    rho(t_k) = exp(L (t_k - t_{k-1})) rho(t_{k-1}); the trace drift and the
    Hermiticity error are checked at every checkpoint.
    """
    from scipy.sparse.linalg import expm_multiply

    if not rho0.joint:
        raise ValueError("evolve needs a two-mode density")
    times = list(times)
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be nonnegative and nondecreasing")
    if times and times[-1] > config.t_max:
        raise ValueError(f"target {times[-1]} exceeds config.t_max = {config.t_max}")
    L, trace_L = liouvillian(params, rho0.dims)
    D = rho0.entries.shape[0]
    v = rho0.entries.astype(complex).ravel()

    out: list[FockDensity] = []
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            v = expm_multiply(L * (t - t_prev), v, traceA=trace_L * (t - t_prev))
        rho = v.reshape(D, D)
        _check_state(rho, params, rho0.dims, t)
        t_prev = t
        out.append(FockDensity(entries=rho.copy(), dims=rho0.dims))
    return out


def evolve(
    params: CouplingParams,
    rho0: FockDensity,
    t_target: float,
    config: IntegratorConfig,
) -> FockDensity:
    """Evolve rho0 to a single target time (see :func:`evolve_trajectory`)."""
    if t_target < 0:
        raise ValueError("t_target must be >= 0")
    if t_target == 0:
        return FockDensity(entries=rho0.entries.copy(), dims=rho0.dims)
    return evolve_trajectory(params, rho0, [t_target], config)[-1]


def evolve_pure(
    params: CouplingParams,
    psi0: FockKet,
    t_target: float,
    config: IntegratorConfig,
) -> FockKet:
    """exp(K t) psi0 for gamma = 0, by expm_multiply on the sparse K = -iH.

    The norm drift |  ||psi|| - ||psi0|| | is reported on the returned ket
    (the state itself is not renormalized).
    """
    from scipy.sparse.linalg import expm_multiply

    if params.gamma != 0:
        raise IntegrationError(f"evolve_pure requires gamma = 0, got "
                               f"{_where(params, psi0.dims, t_target)}")
    if t_target < 0:
        raise ValueError("t_target must be >= 0")
    if t_target > config.t_max:
        raise ValueError(f"target {t_target} exceeds config.t_max = {config.t_max}")
    K = _k_matrix(params, psi0.dims)
    psi = psi0.entries.astype(complex)
    if t_target > 0:
        psi = expm_multiply(K * t_target, psi)
    drift = abs(float(np.linalg.norm(psi)) - float(np.linalg.norm(psi0.entries)))
    return FockKet(entries=psi, dims=psi0.dims, norm_deficit=drift)
