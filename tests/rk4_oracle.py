"""Fixed-step RK4 on the master equation: a test oracle for ``ioncavity.lindblad``.

Classical RK4 on

    d rho/dt = -i [H, rho] + (gamma/2)(2 a rho ad - ad a rho - rho ad a),

with H = i omega1 (ad b - a bd) + i omega2 (ad bd - a b) and the loss acting
on the cavity mode only.  The right-hand side is evaluated with banded
ladder shifts on the (Nc, Nv, Nc, Nv) tensor (no dense matrix products), and
Hermiticity is kept exact by forming K rho + (K rho)^dag with K = -iH real.
An optional dt/2 twin must agree in trace distance at every checkpoint.
The exact propagator, which it is compared against, now rests on the same
identity (there as X M^T = (M X)^dag for Hermitian X), but this oracle
shares none of its code: no sparse matrix and no Taylor routine.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ioncavity import FockDensity, IntegrationError, ladder

#: dt * max(omega1, omega2, gamma) * max(Nc, Nv) must stay below this
STABILITY_BOUND = 0.1

#: trace-distance agreement required between a dt run and its dt/2 twin
HALVING_TOL = 1e-6


@dataclass(frozen=True)
class RK4Config:
    """Step size; ``halving_check=True`` runs a dt/2 twin alongside."""

    dt: float = 1e-3
    halving_check: bool = True

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")

    def check_stability(self, params, dims: Sequence[int]) -> None:
        rate = max(params.omega1, params.omega2, params.gamma)
        if self.dt * rate * max(dims) >= STABILITY_BOUND:
            raise IntegrationError(
                f"stability heuristic violated: dt*max(rate)*max(N) = "
                f"{self.dt * rate * max(dims):.3g} >= {STABILITY_BOUND}; reduce dt"
            )


def dense_hamiltonian(params, dims: Sequence[int]) -> np.ndarray:
    """Joint Hamiltonian i omega1 (ad b - a bd) + i omega2 (ad bd - a b) by np.kron."""
    Nc, Nv = dims
    a = ladder(Nc)
    b = ladder(Nv)
    ad, bd = a.conj().T, b.conj().T
    return 1j * params.omega1 * (np.kron(ad, b) - np.kron(a, bd)) + 1j * params.omega2 * (
        np.kron(ad, bd) - np.kron(a, b)
    )


def make_rhs(params, Nc: int, Nv: int) -> Callable[[np.ndarray], np.ndarray]:
    """RHS closure acting on Hermitian (Nc, Nv, Nc, Nv) tensors.

    K = -iH applied from the left needs four shifted-scaled adds; the
    commutator is completed as K rho + (K rho)^dag, and the dissipator adds
    one doubly shifted term plus a diagonal scaling.  Cost is O((Nc Nv)^2)
    per call.
    """
    o1, o2, g = params.omega1, params.omega2, params.gamma
    sc = np.sqrt(np.arange(Nc))
    sv = np.sqrt(np.arange(Nv))
    w = sc[1:, None] * sv[None, 1:]  # sqrt(i) sqrt(j) on the shifted block
    w_o1 = (o1 * w)[:, :, None]
    w_o2 = (o2 * w)[:, :, None]
    w_dis = g * (sc[1:, None, None, None] * sc[None, None, 1:, None])
    n_sum = (g / 2.0) * (np.arange(Nc)[:, None, None, None] + np.arange(Nc)[None, None, :, None])
    D = Nc * Nv

    def rhs(r4: np.ndarray) -> np.ndarray:
        X = r4.reshape(Nc, Nv, D)
        KX = np.zeros_like(X)
        # (ad b X)[i,j] = sqrt(i (j+1)) X[i-1, j+1]
        KX[1:, :-1] += w_o1 * X[:-1, 1:]
        # (a bd X)[i,j] = sqrt((i+1) j) X[i+1, j-1]
        KX[:-1, 1:] -= w_o1 * X[1:, :-1]
        # (ad bd X)[i,j] = sqrt(i j) X[i-1, j-1]
        KX[1:, 1:] += w_o2 * X[:-1, :-1]
        # (a b X)[i,j] = sqrt((i+1)(j+1)) X[i+1, j+1]
        KX[:-1, :-1] -= w_o2 * X[1:, 1:]
        k4 = KX.reshape(Nc, Nv, Nc, Nv)
        dr = k4 + k4.conj().transpose(2, 3, 0, 1)
        if g > 0:
            # gamma (a rho ad)[i,j,k,l] = gamma sqrt((i+1)(k+1)) rho[i+1,j,k+1,l]
            dr[:-1, :, :-1, :] += w_dis * r4[1:, :, 1:, :]
            dr -= n_sum * r4
        return dr

    return rhs


def rk4_run(
    rhs: Callable[[np.ndarray], np.ndarray],
    r: np.ndarray,
    t_span: float,
    dt: float,
) -> np.ndarray:
    """Integrate r forward by t_span with steps of size ~dt (exact landing)."""
    if t_span == 0:
        return r
    steps = max(1, round(t_span / dt))
    h = t_span / steps
    for _ in range(steps):
        k1 = rhs(r)
        k2 = rhs(r + (0.5 * h) * k1)
        k3 = rhs(r + (0.5 * h) * k2)
        k4 = rhs(r + h * k3)
        k1 += k4
        k1 += 2.0 * k2
        k1 += 2.0 * k3
        r = r + (h / 6.0) * k1
    return r


def rk4_trajectory(params, rho0: FockDensity, times: Sequence[float],
                   config: RK4Config) -> list:
    """Densities at increasing checkpoint times, one RK4 pass (plus its twin)."""
    Nc, Nv = rho0.dims
    config.check_stability(params, rho0.dims)
    rhs = make_rhs(params, Nc, Nv)
    r = rho0.entries.reshape(Nc, Nv, Nc, Nv).astype(complex)
    r_half = r.copy() if config.halving_check else None

    out = []
    t_prev = 0.0
    for t in times:
        r = rk4_run(rhs, r, t - t_prev, config.dt)
        if r_half is not None:
            r_half = rk4_run(rhs, r_half, t - t_prev, config.dt / 2.0)
            diff = (r - r_half).reshape(Nc * Nv, Nc * Nv)
            td = 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())
            if td > HALVING_TOL:
                raise IntegrationError(
                    f"step-halving non-convergence at t={t:.6g}: trace distance "
                    f"between dt and dt/2 runs is {td:.3e} > {HALVING_TOL}"
                )
        t_prev = t
        out.append(FockDensity(entries=r.reshape(Nc * Nv, Nc * Nv).copy(), dims=(Nc, Nv)))
    return out


def rk4_evolve(params, rho0: FockDensity, t: float, config: RK4Config) -> FockDensity:
    """The density at one time t (see :func:`rk4_trajectory`)."""
    return rk4_trajectory(params, rho0, [t], config)[-1]


def rk4_ket(params, psi0: np.ndarray, dims: Sequence[int], t: float, dt: float) -> np.ndarray:
    """RK4 on the Schroedinger equation d psi/dt = -iH psi, dense H."""
    minus_iH = -1j * dense_hamiltonian(params, dims)
    return rk4_run(lambda psi: minus_iH @ psi, psi0.astype(complex), t, dt)
