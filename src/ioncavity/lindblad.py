"""Brute-force master-equation integrator on the truncated joint Fock space.

Ground truth for validating the analytical solution: classical fixed-step
RK4 on

    d rho/dt = -i [H, rho] + (gamma/2)(2 a rho ad - ad a rho - rho ad a),

with H = i omega1 (ad b - a bd) + i omega2 (ad bd - a b) and the loss acting
on the cavity mode only.  The right-hand side is evaluated with banded
ladder shifts on the (Nc, Nv, Nc, Nv) tensor (no dense matrix products), and
Hermiticity is kept exact by forming K rho + (K rho)^dag with K = -iH real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError
from .fock import FockDensity, FockKet, FockOperator, ladder
from .params import CouplingParams

__all__ = [
    "IntegratorConfig",
    "effective_hamiltonian",
    "lindblad_rhs",
    "evolve",
    "evolve_trajectory",
    "evolve_pure",
]

#: dt * max(omega1, omega2, gamma) * max(Nc, Nv) must stay below this
STABILITY_BOUND = 0.1

#: trace-distance agreement required between a dt run and its dt/2 twin
HALVING_TOL = 1e-6

#: |tr rho - 1| beyond this aborts a trajectory
TRACE_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration.

    ``halving_check=True`` runs a dt/2 twin trajectory and requires
    trace-distance agreement below 1e-6 at every checkpoint.
    """

    dt: float = 1e-3
    t_max: float = 50.0
    halving_check: bool = True

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")

    def check_stability(self, params: CouplingParams, dims: Sequence[int]) -> None:
        rate = max(params.omega1, params.omega2, params.gamma)
        if self.dt * rate * max(dims) >= STABILITY_BOUND:
            raise IntegrationError(
                f"stability heuristic violated: dt*max(rate)*max(N) = "
                f"{self.dt * rate * max(dims):.3g} >= {STABILITY_BOUND}; reduce dt"
            )


def effective_hamiltonian(params: CouplingParams, dims: Sequence[int]) -> FockOperator:
    """Joint Hamiltonian i omega1 (ad b - a bd) + i omega2 (ad bd - a b)."""
    Nc, Nv = dims
    if Nc < 2 or Nv < 2:
        raise ValueError("each mode needs at least 2 levels")
    a = ladder(Nc).entries
    b = ladder(Nv).entries
    ad, bd = a.conj().T, b.conj().T
    H = 1j * params.omega1 * (np.kron(ad, b) - np.kron(a, bd)) + 1j * params.omega2 * (
        np.kron(ad, bd) - np.kron(a, b)
    )
    return FockOperator(entries=H, dim=Nc * Nv)


def _make_rhs(params: CouplingParams, Nc: int, Nv: int) -> Callable[[np.ndarray], np.ndarray]:
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


def lindblad_rhs(params: CouplingParams, rho: FockDensity) -> FockDensity:
    """d rho/dt of the master equation (loss on the cavity factor only)."""
    if not rho.joint:
        raise ValueError("lindblad_rhs needs a two-mode density")
    Nc, Nv = rho.dims
    r4 = rho.entries.reshape(Nc, Nv, Nc, Nv)
    out = _make_rhs(params, Nc, Nv)(r4)
    return FockDensity(entries=out.reshape(Nc * Nv, Nc * Nv), dims=(Nc, Nv))


def _rk4_run(
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


def _check_state(r4: np.ndarray, t: float) -> None:
    tr = float(np.einsum("ijij->", r4).real)
    if abs(tr - 1.0) > TRACE_DRIFT_TOL:
        raise IntegrationError(f"trace drift |tr rho - 1| = {abs(tr - 1.0):.3e} at t={t:.6g}")


def evolve_trajectory(
    params: CouplingParams,
    rho0: FockDensity,
    times: Sequence[float],
    config: IntegratorConfig,
) -> list[FockDensity]:
    """Evolve rho0 through an increasing list of checkpoint times.

    One pass of fixed-step RK4; with ``halving_check`` a dt/2 twin runs
    alongside and the two must agree in trace distance at every checkpoint.
    """
    if not rho0.joint:
        raise ValueError("evolve needs a two-mode density")
    times = list(times)
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be nonnegative and nondecreasing")
    if times and times[-1] > config.t_max:
        raise ValueError(f"target {times[-1]} exceeds config.t_max = {config.t_max}")
    Nc, Nv = rho0.dims
    config.check_stability(params, rho0.dims)
    rhs = _make_rhs(params, Nc, Nv)
    r = rho0.entries.reshape(Nc, Nv, Nc, Nv).astype(complex)
    r_half = r.copy() if config.halving_check else None

    out: list[FockDensity] = []
    t_prev = 0.0
    for t in times:
        r = _rk4_run(rhs, r, t - t_prev, config.dt)
        _check_state(r, t)
        if r_half is not None:
            r_half = _rk4_run(rhs, r_half, t - t_prev, config.dt / 2.0)
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
    """RK4 on the Schroedinger equation for gamma = 0.

    The norm drift |  ||psi|| - 1 | accumulated over the run is reported on
    the returned ket (the state itself is not renormalized).
    """
    if params.gamma != 0:
        raise IntegrationError("evolve_pure requires gamma = 0")
    if t_target < 0:
        raise ValueError("t_target must be >= 0")
    if t_target > config.t_max:
        raise ValueError(f"target {t_target} exceeds config.t_max = {config.t_max}")
    config.check_stability(params, psi0.dims)
    norm0 = float(np.linalg.norm(psi0.entries))
    H = effective_hamiltonian(params, psi0.dims).entries
    minus_iH = -1j * H

    def rhs(psi: np.ndarray) -> np.ndarray:
        return minus_iH @ psi

    psi = _rk4_run(rhs, psi0.entries.astype(complex), t_target, config.dt)
    drift = abs(float(np.linalg.norm(psi)) - norm0)
    return FockKet(entries=psi, dims=psi0.dims, norm_deficit=drift)
