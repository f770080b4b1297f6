"""Dense truncated-Fock-space operator algebra.

Ladder, displacement and squeeze operators; the R^{m,n} and Q^{m,n} operator
families that expand the exact joint density operator; assembly of that
density operator with its geometric series budget; partial traces, state
metrics and quadrature statistics measured from matrices.

Conventions.  R^{m,n}(n_bar) is anchored to its superoperator construction

    R^{m,n} = (N+^n/sqrt(n!)) (M+^m/sqrt(m!)) R^{0,0},
    M+ X = ad X - X ad,   N+ X = a X - X a,

which the independent closed form (Jacobi-polynomial matrix elements plus
the adjoint rule) must reproduce; relative to that construction the plain
closed form acquires a factor (-1)^n, applied here so the two code paths
agree identically.  Likewise Q^{m,n}(n_bar, xi) expands as

    Q^{m,n} = sum_k C_k^{m,n}(-xi) S(xi) R^{m+n-k,k}(n_bar) S(xi)^dag ,

the sign flip of the C-coefficient argument being required for consistency
with the superoperator route (verified against it in the test suite).  The
per-mode sign (-1)^n cancels in the joint products, so the assembled
density operator is independent of this bookkeeping.

Q^{m,n} is built in one place, ``_q_level`` (every Q^{m,L-m} of one level
L at once), which ``q_operator`` and ``assemble_joint_density`` share.
``jacobi_poly`` and ``c_coefficient`` take an int or an int array for ``k``
(and ``l``): scalars give a Python float, and any bad element raises the
scalar ValueError.  Log-factorials come from one ``math.lgamma`` table and
each series is summed in index order, so array and scalar calls agree.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import expm

from .errors import RegimeError, TruncationError, ValidityError
from .observables import displacement_trajectory, mode_spec
from .params import CouplingParams, Regime

__all__ = [
    "FockOperator",
    "FockDensity",
    "FockKet",
    "AssemblyBudget",
    "StateMetrics",
    "ladder",
    "displacement_op",
    "squeeze_op",
    "thermal_state",
    "jacobi_poly",
    "c_coefficient",
    "r_operator",
    "q_operator",
    "default_dim",
    "assemble_joint_density",
    "reduced_density",
    "lossless_ket",
    "partial_trace",
    "state_metrics",
    "quad_stats",
    "quad_stats_single",
]

#: eigenvalues of a density matrix may dip this far below zero from truncation
TOL_PSD = 1e-8

#: direct summation of the operator-family series is capped here; the
#: assembler's geometric tail bound must already have truncated by then
MAX_MN_CUTOFF = 60


@dataclass(frozen=True)
class FockOperator:
    """Dense complex operator on a truncated single-mode Fock basis.

    ``entries[row, col]`` is <row| O |col>; dim >= 2.
    """

    entries: np.ndarray
    dim: int

    def dag(self) -> "FockOperator":
        return FockOperator(entries=self.entries.conj().T.copy(), dim=self.dim)


@dataclass(frozen=True)
class FockDensity:
    """Dense operator over a truncated single- or two-mode Fock basis.

    For two modes ``dims = (N_c, N_v)`` with the cavity index major, i.e.
    joint index i = i_c * N_v + i_v.  ``trace_deficit`` is reported by
    constructors that know their truncation loss.
    """

    entries: np.ndarray
    dims: Tuple[int, ...]
    trace_deficit: Optional[float] = None

    @property
    def joint(self) -> bool:
        return len(self.dims) == 2

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def hermiticity_error(self) -> float:
        return float(np.abs(self.entries - self.entries.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T))[0])

    def validate(self, tol_trace: float = 1e-6) -> None:
        """Assert the Hermiticity / positivity / trace invariants."""
        herm = self.hermiticity_error()
        if herm > 1e-10:
            raise ValidityError(f"density not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > tol_trace:
            raise ValidityError(f"trace {tr} deviates from 1 by more than {tol_trace}")
        lo = self.min_eigenvalue()
        if lo < -TOL_PSD:
            raise ValidityError(f"density has eigenvalue {lo:.3e} < -{TOL_PSD}")


@dataclass(frozen=True)
class FockKet:
    """State vector on the (possibly joint) truncated basis."""

    entries: np.ndarray
    dims: Tuple[int, ...]
    norm_deficit: Optional[float] = None

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


@dataclass(frozen=True)
class AssemblyBudget:
    """Truncation budget for assembling the joint density operator.

    ``mn_cutoff`` limits m+n in the double sum; None selects the smallest
    cutoff whose geometric tail |f g|^{M+1}/(1 - |f g|) falls below
    ``series_tol``.
    """

    dims: Tuple[int, int]
    series_tol: float = 1e-12
    mn_cutoff: Optional[int] = None

    def __post_init__(self):
        if self.mn_cutoff is not None and self.mn_cutoff < 0:
            raise ValueError("mn_cutoff must be >= 0")
        if not self.series_tol > 0:
            raise ValueError("series_tol must be > 0")
        if len(self.dims) != 2 or any(d < 2 for d in self.dims):
            raise ValueError("dims must be two Fock dimensions >= 2")


@dataclass(frozen=True)
class StateMetrics:
    fidelity: float
    trace_distance: float
    purity: float


def ladder(N: int) -> FockOperator:
    """Annihilation operator: <n-1| a |n> = sqrt(n)."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    return FockOperator(entries=np.diag(np.sqrt(np.arange(1.0, N)), 1).astype(complex), dim=N)


def displacement_op(alpha: complex, N: int) -> FockOperator:
    """D(alpha) = exp(alpha ad - alpha* a) via scaling-and-squaring expm.

    Warns when the coverage heuristic |alpha|^2 + 4|alpha| < N fails;
    unitarity should then only be trusted in the occupied block.
    """
    a = ladder(N).entries
    mag = abs(alpha)
    if mag * mag + 4.0 * mag >= N:
        warnings.warn(
            f"displacement amplitude |alpha|={mag:.3g} poorly covered by N={N}",
            stacklevel=2,
        )
    return FockOperator(entries=expm(alpha * a.conj().T - np.conj(alpha) * a), dim=N)


def squeeze_op(xi: float, N: int) -> FockOperator:
    """S(xi) = exp((xi/2)(a^2 - ad^2)); real matrix for real xi."""
    if 4.0 * math.exp(2.0 * abs(xi)) > N:
        warnings.warn(
            f"squeeze parameter |xi|={abs(xi):.3g} poorly covered by N={N}", stacklevel=2
        )
    a = ladder(N).entries
    a2 = a @ a
    return FockOperator(entries=expm(0.5 * xi * (a2 - a2.conj().T)), dim=N)


def thermal_state(n_bar: float, N: int) -> FockDensity:
    """Thermal state diag(n_bar^k/(n_bar+1)^{k+1}); deficit (n_bar/(n_bar+1))^N."""
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    if n_bar == 0:
        p = np.zeros(N)
        p[0] = 1.0
        deficit = 0.0
    else:
        k = np.arange(N)
        p = np.exp(k * math.log(n_bar) - (k + 1) * math.log(n_bar + 1.0))
        deficit = (n_bar / (n_bar + 1.0)) ** N
    return FockDensity(entries=np.diag(p).astype(complex), dims=(N,), trace_deficit=deficit)


@functools.lru_cache(maxsize=None)
def _log_factorials(bits: int) -> np.ndarray:
    """Read-only table of log(k!) for k < 2**bits, from math.lgamma."""
    table = np.array([math.lgamma(k + 1.0) for k in range(1 << bits)])
    table.flags.writeable = False
    return table


def _term_sum(terms: np.ndarray):
    """Sum over axis 0 in index order; a Python float for scalar summands.

    A running sum, unlike numpy's pairwise one, adds the zero terms that pad
    an array call without regrouping the rounding of the others.
    """
    total = np.cumsum(terms, axis=0)[-1]
    return float(total) if total.ndim == 0 else total


def jacobi_poly(m: int, k, l, x: float):
    """P_m^{k,l}(x) = sum_{j=max(0,l)}^k (-1)^{j-l} (j+m)!/((j-l)!(k-j)!) x^j/j!.

    ``k`` and ``l`` are ints or int arrays (broadcast together).  Factorial
    ratios go through the log-factorial table with explicit sign tracking;
    x^j is formed directly (0 <= x < 1 cannot overflow).
    """
    k, l = np.broadcast_arrays(np.asarray(k), np.asarray(l))
    if m < 0 or (k < 0).any():
        raise ValueError("need m, k >= 0")
    if (l > k).any():
        raise ValueError("need l <= k")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"need 0 <= x < 1, got {x}")
    j = np.arange(k.max(initial=0) + 1).reshape((-1,) + (1,) * k.ndim)
    live = (j >= l) & (j <= k)
    jl = np.where(live, j - l, 0)
    lf = _log_factorials(int(max(m + j.size, jl.max(initial=0))).bit_length())
    mag = lf[j + m] - lf[jl] - lf[np.where(live, k - j, 0)] - lf[j]
    sign = np.where((j - l) % 2, -1.0, 1.0)
    return _term_sum(np.where(live, sign * np.exp(mag) * x**j, 0.0))


def c_coefficient(m: int, n: int, k, xi: float):
    """Coefficient C_k^{m,n}(xi) of the squeezed operator-family expansion.

    sqrt((m+n-k)! k!/(m! n!)) sum_l binom-weights cosh^{m-k+2l} sinh^{n+k-2l},
    log-factorial magnitudes times the integer powers, whose sign is that of
    sinh(xi)^{n+k-2l}; ``k`` is an int or an int array.
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    k = np.asarray(k)
    bad = (k < 0) | (k > m + n)
    if bad.any():
        raise ValueError(f"need 0 <= k <= m+n, got k={k[bad][0]}, m+n={m + n}")
    ch, sh = math.cosh(xi), math.sinh(xi)
    l = np.arange(n + 1).reshape((-1,) + (1,) * k.ndim)
    live = (l >= k - m) & (l <= k)
    lf = _log_factorials((m + n).bit_length())
    pref = 0.5 * (lf[m + n - k] + lf[k] - lf[m] - lf[n])
    mag = (pref + lf[m] - lf[np.where(live, k - l, 0)] - lf[np.where(live, m - k + l, 0)]
           + lf[n] - lf[l] - lf[n - l])
    p_ch, p_sh = np.where(live, m - k + 2 * l, 0), np.where(live, n + k - 2 * l, 0)
    return _term_sum(np.where(live, np.exp(mag) * ch**p_ch * sh**p_sh, 0.0))


def r_operator(m: int, n: int, n_bar: float, N: int) -> FockOperator:
    """R^{m,n}(n_bar) on N levels, in the superoperator-anchored convention.

    For m >= n the Fock matrix elements are

        (-1)^n sqrt(n! k!/(m! (k+m-n)!)) (n_bar+1)^{-(m+1)}
               P_m^{k,k-n}(n_bar/(n_bar+1))   at |k+m-n><k| ,

    and for m < n the operator is (-1)^{m+n} times the conjugate transpose
    of r_operator(n, m).  R^{0,0} is the thermal state; tr R^{m,n} =
    delta_{m0} delta_{n0}.
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    if m < n:
        sign = -1.0 if (m + n) % 2 else 1.0
        return FockOperator(entries=sign * r_operator(n, m, n_bar, N).entries.conj().T, dim=N)
    out = np.zeros((N, N), dtype=complex)
    k = np.arange(max(0, N - (m - n)))
    row = k + m - n
    lf = _log_factorials((N + m).bit_length())
    pref = 0.5 * (lf[n] + lf[k] - lf[m] - lf[row])
    sign = -1.0 if n % 2 else 1.0
    x = n_bar / (n_bar + 1.0)
    out[row, k] = sign * np.exp(pref - (m + 1) * math.log(n_bar + 1.0)) * jacobi_poly(m, k, k - n, x)
    return FockOperator(entries=out, dim=N)


def _q_level(L: int, n_bar: float, xi: float, U: np.ndarray) -> np.ndarray:
    """Stack of Q^{m,L-m}(n_bar, xi) for m = 0..L, conjugated by U.

    Q^{m,L-m} = sum_k C_k^{m,L-m}(-xi) U R^{L-k,k}(n_bar) U^dag, where U is
    S(xi), or D(w) S(xi) to carry a coherent displacement along.  Only the
    sandwiches with L-k >= k are formed; by the adjoint rule of
    ``r_operator`` each of the others is (-1)^L times the conjugate
    transpose of its mirror k -> L-k.
    """
    half = L // 2
    R = np.stack([r_operator(L - k, k, n_bar, U.shape[0]).entries for k in range(half + 1)])
    S = U @ R @ U.conj().T
    mirror = S[: L - half][::-1].conj().transpose(0, 2, 1)
    S = np.concatenate([S, -mirror if L % 2 else mirror])
    C = np.array([c_coefficient(m, L - m, np.arange(L + 1), -xi) for m in range(L + 1)])
    return np.tensordot(C, S, axes=1)


def q_operator(m: int, n: int, n_bar: float, xi: float, N: int) -> FockOperator:
    """Q^{m,n}(n_bar, xi) = sum_k C_k^{m,n}(-xi) S(xi) R^{m+n-k,k}(n_bar) S(xi)^dag."""
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    return FockOperator(entries=_q_level(m + n, n_bar, xi, squeeze_op(xi, N).entries)[m], dim=N)


def default_dim(params: CouplingParams) -> int:
    """Truncation heuristic N = max(16, ceil(8 (nbar_max + 1) e^{2 |xi_bar|})).

    Sized so squeezed-thermal tails of the vacuum-start solution fall below
    1e-10; only defined for omega1 > omega2.
    """
    from .observables import nbar_max, steady_squeeze

    nb = nbar_max(params)
    xb = abs(steady_squeeze(params))
    return max(16, math.ceil(8.0 * (nb + 1.0) * math.exp(2.0 * xb)))


def _resolve_cutoff(zeta: float, budget: AssemblyBudget) -> int:
    az = abs(zeta)
    if az >= 1.0:
        raise TruncationError(
            f"assembly refused: |f g| = {az:.6g} >= 1, the operator series has "
            "no geometric tail bound at this time"
        )
    if budget.mn_cutoff is not None:
        if az ** (budget.mn_cutoff + 1) > budget.series_tol:
            raise TruncationError(
                f"assembly budget exhausted: |f g|^{budget.mn_cutoff + 1} = "
                f"{az ** (budget.mn_cutoff + 1):.3e} > series_tol = {budget.series_tol:.3e}"
            )
        return budget.mn_cutoff
    if az == 0.0:
        return 0
    M = 0
    while az ** (M + 1) / (1.0 - az) >= budget.series_tol:
        M += 1
        if M > MAX_MN_CUTOFF:
            raise TruncationError(
                f"assembly needs m+n > {MAX_MN_CUTOFF} terms (|f g| = {az:.4f}); "
                "refusing direct summation at this parameter point"
            )
    return M


def assemble_joint_density(
    params: CouplingParams,
    t: float,
    alpha: complex,
    beta: complex,
    budget: AssemblyBudget,
) -> FockDensity:
    """Assemble the exact joint density operator at time t on a truncated basis.

    Sums (f g)^{m+n} Q_c^{m,n} (x) Q_v^{m,n} over m+n <= cutoff, each factor
    conjugated by its mode's D(w) for a coherent start (w = u(t), v(t)).
    The returned ``trace_deficit`` is |1 - tr rho|, the loss of the series
    cutoff only: the squeeze and displacement are exponentiated on the
    truncated basis, which keeps the trace at 1, so it cannot see basis
    truncation.
    """
    if params.regime is Regime.EQUAL_COUPLING:
        raise RegimeError("joint assembly is singular at equal coupling (mode-v form)")
    if params.omega2 == 0:
        raise RegimeError("joint assembly needs omega2 > 0")
    spec_c = mode_spec(params, t, "c")
    spec_v = mode_spec(params, t, "v")
    M = _resolve_cutoff(spec_c.zeta, budget)
    Nc, Nv = budget.dims

    Uc = squeeze_op(spec_c.xi, Nc).entries
    Uv = squeeze_op(spec_v.xi, Nv).entries
    if alpha != 0 or beta != 0:
        # D_c (x) D_v conjugates each product Q_c (x) Q_v factor by factor
        u, v = displacement_trajectory(params, alpha, beta, t)
        Uc = displacement_op(u, Nc).entries @ Uc
        Uv = displacement_op(v, Nv).entries @ Uv
    Qc = np.concatenate([spec_c.zeta**L * _q_level(L, spec_c.n_bar, spec_c.xi, Uc) for L in range(M + 1)])
    Qv = np.concatenate([_q_level(L, spec_v.n_bar, spec_v.xi, Uv) for L in range(M + 1)])
    # rho[(i, k), (j, l)] = sum_p Qc[p, i, j] Qv[p, k, l]: one matrix product over p
    rho = (Qc.reshape(len(Qc), -1).T @ Qv.reshape(len(Qv), -1)).reshape(Nc, Nc, Nv, Nv)
    rho = rho.transpose(0, 2, 1, 3).reshape(Nc * Nv, Nc * Nv)
    rho = 0.5 * (rho + rho.conj().T)
    deficit = abs(1.0 - float(np.trace(rho).real))
    return FockDensity(entries=rho, dims=(Nc, Nv), trace_deficit=deficit)


def reduced_density(
    params: CouplingParams, t: float, mode: str, alpha: complex, beta: complex, N: int
) -> FockDensity:
    """Reduced state of one mode: D(w) S(xi) thermal(n_bar) S(xi)^dag D(w)^dag.

    w is u(t) for the cavity and v(t) for the motion.
    """
    spec = mode_spec(params, t, mode)
    u, v = displacement_trajectory(params, alpha, beta, t)
    w = u if mode == "c" else v
    S = squeeze_op(spec.xi, N).entries
    th = thermal_state(spec.n_bar, N)
    rho = S @ th.entries @ S.conj().T
    if w != 0:
        D = displacement_op(w, N).entries
        rho = D @ rho @ D.conj().T
    return FockDensity(entries=rho, dims=(N,), trace_deficit=th.trace_deficit)


def lossless_ket(
    params: CouplingParams, alpha: complex, beta: complex, t: float, dims: Tuple[int, int]
) -> FockKet:
    """Pure two-mode state for gamma = 0 on a truncated basis.

    Applies D_c(u0) S_c(-xi0) (x) D_v(v0) S_v(xi0) to the two-mode-squeezed
    sum over |k>_c |k>_v with thermal-like weights in n_bar0; the geometric
    norm deficit (n_bar0/(n_bar0+1))^{min(dims)} is reported.

    The pair-creation direction alternates every half cycle of 2 L0 t, so
    the Schmidt weights carry sign(sin(2 L0 t))^k; with positive weights
    throughout, the state would be wrong wherever sin(2 L0 t) < 0 (verified
    against the Schroedinger integrator).
    """
    from .observables import lossless_spec

    spec = lossless_spec(params, alpha, beta, t)
    Nc, Nv = dims
    kmax = min(Nc, Nv)
    nb = spec.n_bar0
    sign = -1.0 if math.sin(2.0 * math.sqrt(params.lambda0_sq) * t) < 0.0 else 1.0
    k = np.arange(kmax)
    psi = np.zeros((Nc, Nv), dtype=complex)
    psi[k, k] = (sign * math.sqrt(nb / (nb + 1.0))) ** k / math.sqrt(nb + 1.0)
    # (U_c (x) U_v) acts on the (Nc, Nv) amplitude matrix as U_c psi U_v^T
    Uc = displacement_op(spec.u0, Nc).entries @ squeeze_op(-spec.xi0, Nc).entries
    Uv = displacement_op(spec.v0, Nv).entries @ squeeze_op(spec.xi0, Nv).entries
    psi = (Uc @ psi @ Uv.T).ravel()
    deficit = (nb / (nb + 1.0)) ** kmax
    return FockKet(entries=psi, dims=dims, norm_deficit=deficit)


def partial_trace(rho: FockDensity, keep: str) -> FockDensity:
    """Trace out one mode of a joint density ("c" keeps the cavity factor)."""
    if not rho.joint:
        raise ValueError("partial_trace needs a two-mode density")
    Nc, Nv = rho.dims
    r4 = rho.entries.reshape(Nc, Nv, Nc, Nv)
    if keep == "c":
        out = np.einsum("ijkj->ik", r4)
        dim = Nc
    elif keep == "v":
        out = np.einsum("ijil->jl", r4)
        dim = Nv
    else:
        raise ValueError(f"keep must be 'c' or 'v', got {keep!r}")
    return FockDensity(entries=out, dims=(dim,))


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    if w[0] < -TOL_PSD:
        raise ValidityError(f"matrix is not PSD within tolerance (min eig {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def state_metrics(rho: FockDensity, sigma: FockDensity) -> StateMetrics:
    """Uhlmann fidelity, trace distance and purity of rho.

    fidelity = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2,
    trace distance = (1/2) sum |eig(rho - sigma)|,  purity = tr rho^2.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    sr = _psd_sqrt(rho.entries)
    mid = sr @ sigma.entries @ sr
    w = np.linalg.eigvalsh(0.5 * (mid + mid.conj().T))
    fid = float(np.sqrt(np.clip(w, 0.0, None)).sum() ** 2)
    diff = rho.entries - sigma.entries
    td = 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())
    purity = float(np.trace(rho.entries @ rho.entries).real)
    return StateMetrics(fidelity=min(fid, 1.0), trace_distance=td, purity=purity)


def quad_stats_single(rho: FockDensity) -> Tuple[float, float, float, float]:
    """(mean_x, mean_p, var_x, var_p) of a single-mode density matrix."""
    if rho.joint:
        raise ValueError("quad_stats_single needs a single-mode density")
    N = rho.dims[0]
    a = ladder(N).entries
    X = (a + a.conj().T) / math.sqrt(2.0)
    P = (a - a.conj().T) / (1j * math.sqrt(2.0))
    r = rho.entries
    mx = float(np.trace(r @ X).real)
    mp = float(np.trace(r @ P).real)
    vx = float(np.trace(r @ X @ X).real) - mx * mx
    vp = float(np.trace(r @ P @ P).real) - mp * mp
    return mx, mp, vx, vp


def quad_stats(rho: FockDensity):
    """Quadrature statistics measured from a density matrix.

    For a joint density returns a QuadTuple over both modes (via partial
    traces); for a single mode returns the (mean_x, mean_p, var_x, var_p)
    tuple.
    """
    from .observables import QuadTuple

    if not rho.joint:
        return quad_stats_single(rho)
    mxc, mpc, vxc, vpc = quad_stats_single(partial_trace(rho, "c"))
    mxv, mpv, vxv, vpv = quad_stats_single(partial_trace(rho, "v"))
    return QuadTuple(
        var_xc=vxc, var_pc=vpc, var_xv=vxv, var_pv=vpv,
        mean_xc=mxc, mean_pc=mpc, mean_xv=mxv, mean_pv=mpv,
    )
