"""Dense truncated-Fock-space operator algebra.

The ladder operator; the R^{m,n} operator family
that expands the exact joint density operator; assembly of that density
operator, with a series cutoff read from its level norms; partial traces,
state metrics and quadrature statistics measured from matrices.

Single-mode operators are plain (N, N) arrays, entry [row, col] =
<row| O |col>: real where every factor is (R^{m,n}, an undisplaced frame, and
the states built from them with no displacement), complex otherwise.  The
lossless ket is a flat complex array.  Densities are ``FockDensity``, which
also carries the mode dimensions, measures its own trace deficit and checks
its own invariants.

Conventions.  R^{m,n}(n_bar) is anchored to its superoperator construction

    R^{m,n} = (N+^n/sqrt(n!)) (M+^m/sqrt(m!)) R^{0,0},
    M+ X = ad X - X ad,   N+ X = a X - X a,

which the independent closed form (Jacobi-polynomial matrix elements plus
the adjoint rule) must reproduce; relative to that construction the plain
closed form acquires a factor (-1)^n, applied here so the two code paths
agree identically.  The per-mode sign cancels in the joint products, so the
assembled density operator is independent of this bookkeeping.

One builder, ``_r_tables``, gives every R^{L-k,k} of a block of levels L = m+n
by its one diagonal, from one ``jacobi_poly`` call; ``_dense`` spreads a level
into matrices, and ``r_operator`` is one of them.  ``jacobi_poly`` takes ints
or int arrays for every index, broadcast together: scalars give a Python float,
and any bad element raises the scalar ValueError.  Its sum is a Jacobi
polynomial in 1 - 2x, run up the stable forward three-term recurrence once per
pair of Jacobi parameters and read off at each entry's degree, so array and
scalar calls agree.  One builder, ``_frame``, gives every D(w) S(xi): its exact
N x N corner, so the states built from it miss their weight past N levels.

The paper writes the joint density as the series
sum_{m,n} (f g)^{m+n} Q_c^{m,n} (x) Q_v^{m,n}, each Q^{m,n} a sum of
C_k^{m,n}(-xi) S(xi) R^{m+n-k,k} S(xi)^dag; those defining forms are the
test oracle ``tests/series_oracle.py``.  The assembly needs no C
coefficient.  With U = D(w) S(xi) per mode,

    rho = (U_c (x) U_v) X (U_c (x) U_v)^dag,
    X = sum_L zeta^L sum_{k,k'} T_L[k, k'] R_c^{L-k,k} (x) R_v^{L-k',k'},

where T_L = C_c^T C_v (the C tables of level L at -xi_c and -xi_v) has a
closed form in xi_c + xi_v (``_level_tables``).  ``_joint_core`` sums X from
the diagonal tables and stops at its measured level norms;
``_conjugate`` applies the frame by one-mode products on each axis, and
leaves rho Hermitian to rounding: each consumer of a density takes the
Hermitian part it uses.  A reduced state is the L = 0 term, where
C_0^{0,0} = 1: U R^{0,0} U^dag, with R^{0,0} the thermal diagonal.

scipy.linalg is imported where it is called, for LAPACK's ``potrf`` in the
positivity test only.  Importing the package loads numpy only, so the
closed-form subcommands never load scipy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import RegimeError, TruncationError, ValidityError
from .observables import ModeSpec, QuadTuple, _state
from .params import CouplingParams

__all__ = [
    "FockDensity",
    "AssemblyBudget",
    "StateMetrics",
    "ladder",
    "jacobi_poly",
    "r_operator",
    "assemble_joint_density",
    "reduced_density",
    "lossless_ket",
    "partial_trace",
    "trace_distance",
    "state_metrics",
    "quad_stats",
]

#: eigenvalues of a density matrix may dip this far below zero from truncation
TOL_PSD = 1e-8

#: ``FockDensity.validate`` refuses a trace further than this from 1
TOL_TRACE = 1e-6

#: direct summation of the operator-family series is capped here; the
#: assembler's level-norm rule must stop by then
MAX_MN_CUTOFF = 60


@dataclass(frozen=True)
class FockDensity:
    """Dense operator over a truncated single- or two-mode Fock basis.

    For two modes ``dims = (N_c, N_v)`` with the cavity index major, i.e.
    joint index i = i_c * N_v + i_v.
    """

    entries: np.ndarray
    dims: Tuple[int, ...]

    @property
    def joint(self) -> bool:
        return len(self.dims) == 2

    @property
    def trace_deficit(self) -> float:
        """|1 - tr rho|, measured.  It sees the loss of a series cutoff and of
        basis truncation: the frames are exact corners of D(w) S(xi), so the
        weight they carry past the truncated levels is missing from the trace."""
        return abs(1.0 - self.trace())

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T))[0])

    def _eigenvalue_below_tol(self, herm: Optional[np.ndarray] = None) -> Optional[float]:
        """The lowest eigenvalue if it lies below -TOL_PSD, else None.

        One LAPACK Cholesky factorization (potrf) of the Hermitian part
        ``herm`` shifted by ``TOL_PSD`` decides it, in place when ``herm`` is
        C-ordered (a fresh one if not given; it is overwritten).  Only when it
        fails are the eigenvalues computed, to name the lowest.
        """
        from scipy.linalg import get_lapack_funcs

        if herm is None:
            herm = 0.5 * (self.entries + self.entries.conj().T)
        herm.flat[:: herm.shape[0] + 1] += TOL_PSD  # Cholesky succeeds iff lambda_min > -TOL_PSD
        # factorized in place; the F-ordered view is its conjugate, positive definite with it
        potrf, = get_lapack_funcs(("potrf",), (herm,))
        _, info = potrf(herm.T, overwrite_a=True, clean=False)
        if info < 0:
            raise ValueError(f"potrf: illegal argument {-info}")
        if info > 0 and (lo := self.min_eigenvalue()) < -TOL_PSD:
            return lo
        return None

    def validate(self) -> None:
        """Assert the Hermiticity, trace (within ``TOL_TRACE``) and positivity
        (``_eigenvalue_below_tol``) invariants."""
        shifted = np.conjugate(self.entries.T, order="C")  # one D x D buffer serves both checks
        np.subtract(self.entries, shifted, out=shifted)
        if not (herm := float(np.abs(shifted).max())) <= 1e-10:  # not <=, so a nan fails too
            raise ValidityError(f"density not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        if not abs((tr := self.trace()) - 1.0) <= TOL_TRACE:
            raise ValidityError(f"trace {tr} deviates from 1 by more than {TOL_TRACE}")
        shifted *= -0.5
        shifted += self.entries  # the Hermitian part rho - (rho - rho^dag)/2, in place
        if (lo := self._eigenvalue_below_tol(shifted)) is not None:
            raise ValidityError(f"density has eigenvalue {lo:.3e} < -{TOL_PSD}")


@dataclass(frozen=True)
class AssemblyBudget:
    """Truncation budget for assembling the joint density operator.

    The series over the levels L = m+n stops at the first level whose exact
    Frobenius norm, extrapolated geometrically at its ratio to the level
    below, bounds the tail below ``series_tol``; a series that needs more
    than ``MAX_MN_CUTOFF`` levels is refused.
    """

    dims: Tuple[int, int]
    series_tol: float = 1e-12

    def __post_init__(self):
        if not self.series_tol > 0:
            raise ValueError("series_tol must be > 0")
        if len(self.dims) != 2 or any(d < 2 for d in self.dims):
            raise ValueError("dims must be two Fock dimensions >= 2")


@dataclass(frozen=True)
class StateMetrics:
    fidelity: float
    trace_distance: float
    purity: float


def ladder(N: int) -> np.ndarray:
    """Annihilation operator: <n-1| a |n> = sqrt(n)."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    return np.diag(np.sqrt(np.arange(1.0, N)), 1).astype(complex)


@functools.lru_cache(maxsize=None)
def _log_factorials(bits: int) -> np.ndarray:
    """Read-only table of log(k!) for k < 2**bits, from math.lgamma."""
    table = np.array([math.lgamma(k + 1.0) for k in range(1 << bits)])
    table.flags.writeable = False
    return table


def jacobi_poly(m, k, l, x: float):
    """P_m^{k,l}(x) = sum_{j=max(0,l)}^k (-1)^{j-l} (j+m)!/((j-l)!(k-j)!) x^j/j!, for m >= k - l.

    ``m``, ``k`` and ``l`` are ints or int arrays (broadcast together).  With
    n = min(k, k-l), a = |l| and b = m - k + l, both Jacobi parameters >= 0 on
    that domain,

        P_m^{k,l}(x) = (-1)^{max(-l,0)} x^{max(l,0)} (m + max(l,0))!/(n! a!) p_n(1 - 2x),

    where p_n = P_n^{(a,b)}/binom(n+a, n) comes from the forward three-term
    recurrence (DLMF 18.9) in difference form: p_0 = 1, p_j = p_{j-1} + d_j,
    d_j = A_j p_{j-1} + B_j d_{j-1}.  A and B depend on (a, b) and j alone, so the
    recurrence runs once per distinct (a, b), and each entry reads its p_n from its history.
    """
    m, k, l = np.broadcast_arrays(np.asarray(m), np.asarray(k), np.asarray(l))
    if (m < 0).any() or (k < 0).any():
        raise ValueError("need m, k >= 0")
    if (l > k).any():
        raise ValueError("need l <= k")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"need 0 <= x < 1, got {x}")
    if (m < k - l).any():
        raise ValueError("need m >= k - l")
    lp, a, b = np.maximum(l, 0), np.abs(l), m - k + l
    n, width = k - lp, int(b.max(initial=0)) + 1
    keys, pair = np.unique(a * width + b, return_inverse=True)
    pa, pb, top = keys // width, keys % width, np.zeros(keys.shape, dtype=n.dtype)
    np.maximum.at(top, pair, n)
    # degree j = i + 1 from row i: t = 2i + a + b, and B_1 = 0 (i = 0, where t may be 0)
    i = np.arange(top.max(initial=0))[:, None]
    t, den = 2 * i + pa + pb, (i + pa + 1) * (i + pa + pb + 1)
    live = i < top  # each pair stops at the largest n of its entries
    A = np.where(live, -x * (t + 1) * (t + 2) / den, 0.0)
    B = np.where(live, i * (i + pb) * (t + 2) / (den * np.maximum(t, 1)), 0.0)
    p, d = np.ones((len(i) + 1, keys.size)), np.zeros(keys.size)
    for j, (Aj, Bj) in enumerate(zip(A, B)):
        d = Aj * p[j] + Bj * d
        np.add(p[j], d, out=p[j + 1])
    lf = _log_factorials(int((m + lp).max(initial=0)).bit_length())
    sign = np.where((l < 0) & (a % 2 == 1), -1.0, 1.0)
    out = sign * x**lp * np.exp(lf[m + lp] - lf[n] - lf[a]) * p[n, pair.reshape(n.shape)]
    return float(out) if out.ndim == 0 else out


def _frame(w: complex, xi: float, N: int) -> np.ndarray:
    """G[m, n] = <m| D(w) S(xi) |n>, m, n < N: the exact corner, not unitary; real when w = 0.

    The raising-only recurrence of a one-mode Gaussian unitary (Miatto & Quesada,
    Quantum 4, 366 (2020)), c = cosh xi, tau = tanh xi: G[0, 0] = exp(-|w|^2/2 -
    tau w*^2/2)/sqrt(c); sqrt(n+1) G[0, n+1] = tau sqrt(n) G[0, n-1] - (w*/c) G[0, n];
    sqrt(m+1) G[m+1, n] = (w + tau w*) G[m, n] - tau sqrt(m) G[m-1, n] + sqrt(n) G[m, n-1]/c.
    """
    w = complex(w) if w else 0.0
    c, tau = math.cosh(xi), math.tanh(xi)
    wc, b0 = w.conjugate(), w + tau * w.conjugate()
    r = np.sqrt(np.arange(N + 0.0))
    G = np.zeros((N, N + 1), dtype=type(w))  # G[m, n + 1]; the zero column 0 is n = -1
    G[0, 1] = np.exp(-0.5 * abs(w) ** 2 - 0.5 * tau * wc * wc) / math.sqrt(c)
    for n in range(N - 1):
        G[0, n + 2] = (tau * r[n] * G[0, n] - wc / c * G[0, n + 1]) / r[n + 1]
    for m in range(N - 1):  # at m = 0, row -1 is still zero, and r[0] = 0 multiplies it
        G[m + 1, 1:] = (b0 * G[m, 1:] - tau * r[m] * G[m - 1, 1:] + r / c * G[m, :-1]) / r[m + 1]
    return G[:, 1:]


def _r_tables(L0: int, L1: int, n_bar: float, N: int) -> list:
    """(L+1, N) tables of R^{L-k,k}(n_bar) on N levels, k = 0..L, by diagonals, L0 <= L < L1.

    R^{L-k,k} lies on the diagonal row - col = L - 2k; row k of a table
    holds its entries at min(row, col) = c, zero where max(row, col) >= N.
    Rows k <= L/2, where m = L - k >= k, come from one ``jacobi_poly`` call
    over every level's (k, c) with row < N (see ``r_operator``); the others
    are (-1)^L times their mirror L - k, by the adjoint rule.
    """
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    L, s, c = np.arange(L0, L1)[:, None, None], np.arange((L1 + 1) // 2)[:, None], np.arange(N)
    i, s, c = np.nonzero((2 * s <= L) & (c + L - 2 * s < N))
    L = i + L0
    m, row = L - s, c + L - 2 * s
    lf = _log_factorials((N + L1).bit_length())
    mag = 0.5 * (lf[s] + lf[c] - lf[m] - lf[row]) - (m + 1) * math.log(n_bar + 1.0)
    vals = np.where(s % 2, -1.0, 1.0) * np.exp(mag) * jacobi_poly(m, c, c - s, n_bar / (n_bar + 1.0))
    out = np.zeros((L1 - L0, L1, N))
    out[i, s, c], out[i, m, c] = vals, np.where(L % 2, -vals, vals)  # row L - s by the adjoint rule
    return [r[: L + 1] for L, r in enumerate(out, L0)]


def _dense(r: np.ndarray) -> np.ndarray:
    """(L+1, N, N) operators from an (L+1, N) diagonal table of ``_r_tables``."""
    L, N = r.shape[0] - 1, r.shape[1]
    k, c = np.nonzero(r)
    d = L - 2 * k
    out = np.zeros((L + 1, N, N))
    out[k, c + np.maximum(d, 0), c - np.minimum(d, 0)] = r[k, c]
    return out


def r_operator(m: int, n: int, n_bar: float, N: int) -> np.ndarray:
    """R^{m,n}(n_bar) on N levels, in the superoperator-anchored convention.

    For m >= n the Fock matrix elements are

        (-1)^n sqrt(n! k!/(m! (k+m-n)!)) (n_bar+1)^{-(m+1)}
               P_m^{k,k-n}(n_bar/(n_bar+1))   at |k+m-n><k| ,

    row n of the level-(m+n) table of ``_r_tables``, on ``jacobi_poly``'s domain m >= n;
    for m < n it is (-1)^{m+n} times r_operator(n, m) transposed.  R^{0,0} is
    the thermal state; tr R^{m,n} = delta_{m0} delta_{n0}.  A real matrix.
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    return _dense(_r_tables(m + n, m + n + 1, n_bar, N)[0])[n]


def _level_tables(sigma: float):
    """Yield T_L for L = 0, 1, ...: the (L+1, L+1) table
    T_L[k, k'] = sum_m C_k^{m,L-m}(-xi_c) C_k'^{m,L-m}(-xi_v), sigma = xi_c + xi_v,
    with C_k^{m,n} as the test oracle ``tests/series_oracle.py`` defines it.

    In closed form T_L[k, k'] = sqrt(k! (L-k)! k'! (L-k')!)/L! times the
    x^k y^k' coefficient of (cosh sigma (1 + x y) - sinh sigma (x + y))^L,
    one O(L^2) step per level.  Every term of each step has the sign
    (-sign sigma)^{k+k'}, so nothing cancels; the product of C tables does.
    """
    ch, sh = math.cosh(sigma), -math.sinh(sigma)
    c = np.ones((1, 1))
    for L in itertools.count():
        lf = _log_factorials((L + 1).bit_length())
        k = np.arange(L + 1)
        w = np.exp(0.5 * (lf[k] + lf[L - k] - lf[L]))
        yield c * w[:, None] * w
        nxt = np.zeros((L + 2, L + 2))
        nxt[:-1, :-1] = ch * c
        nxt[1:, 1:] += ch * c
        nxt[1:, :-1] += sh * c
        nxt[:-1, 1:] += sh * c
        c = nxt


def _level_norm(zT: np.ndarray, rc: np.ndarray, rv: np.ndarray) -> float:
    """Frobenius norm of sum_{k,k'} zT[k, k'] R_c^{L-k,k} (x) R_v^{L-k',k'} from the
    diagonal tables: each (k, k') sits on its own pair of diagonals, so the
    terms are orthogonal."""
    return math.sqrt((rc * rc).sum(1) @ (zT * zT) @ (rv * rv).sum(1))


def _joint_core(spec_c: ModeSpec, spec_v: ModeSpec, budget: AssemblyBudget,
                dtype: np.dtype) -> np.ndarray:
    """The series in the unconjugated Fock basis, as an (Nc, Nv, Nc, Nv) tensor
    of ``dtype`` (it is real, but becomes a buffer of the conjugation),

        X = sum_L zeta^L sum_{k,k'} T_L[k, k'] R_c^{L-k,k} (x) R_v^{L-k',k'}.

    It stops at the first level L >= 1 whose norm n_L, extrapolated
    geometrically at the ratio q = n_L/n_{L-1} < 1, bounds the tail
    n_L q/(1 - q) below ``series_tol``.  n_L is exact (``_level_norm``), and
    it bounds the norm of the conjugated level: the frame is a corner of a
    unitary, so a contraction.
    """
    zeta, (Nc, Nv) = spec_c.zeta, budget.dims
    az = abs(zeta)
    if az >= 1.0:
        raise TruncationError(
            f"assembly refused: |f g| = {az:.6g} >= 1, the operator series has "
            "no geometric tail bound at this time"
        )
    rc_levels, rv_levels, v_levels, norm = [], [], [], 0.0
    for L, T in enumerate(_level_tables(spec_c.xi + spec_v.xi)):
        if L == len(rc_levels):  # the R tables come in blocks of 16 levels (the last one 13)
            for levels, spec, N in ((rc_levels, spec_c, Nc), (rv_levels, spec_v, Nv)):
                levels += _r_tables(L, min(L + 16, MAX_MN_CUTOFF + 1), spec.n_bar, N)
        rc, rv, zT = rc_levels[L], rv_levels[L], zeta**L * T
        # mode-v factor of each (L, k): sum_k' zT[k, k'] R_v^{L-k',k'}, dense
        v_levels.append((zT @ _dense(rv).reshape(L + 1, -1)).reshape(L + 1, Nv, Nv))
        prev, norm = norm, _level_norm(zT, rc, rv)
        # the tail n_L q/(1 - q) past level L, q = n_L/n_{L-1} < 1; a zero level ends it
        if L > 0 and (norm == 0 or norm < prev and norm * norm / (prev - norm) < budget.series_tol):
            break
        if L == MAX_MN_CUTOFF:
            raise TruncationError(
                f"assembly needs m+n > {MAX_MN_CUTOFF} terms (|f g| = {az:.4f}); "
                "refusing direct summation at this parameter point"
            )
    M = L
    # the block of X on the diagonal i - i' = d of mode c is one product over the
    # levels L = |d|, |d| + 2, ... <= M, at k = (L - d)/2
    X = np.zeros((Nc, Nv, Nc, Nv), dtype=dtype)
    for d in range(-min(M, Nc - 1), min(M, Nc - 1) + 1):
        Ls = range(abs(d), M + 1, 2)
        a = np.array([rc_levels[L][(L - d) // 2, : Nc - abs(d)] for L in Ls])
        V = np.array([v_levels[L][(L - d) // 2] for L in Ls])
        c = np.arange(Nc - abs(d))
        X[c + max(d, 0), :, c - min(d, 0), :] = (a.T @ V.reshape(len(Ls), -1)).reshape(-1, Nv, Nv)
    return X


def _conjugate(X: np.ndarray, Uc: np.ndarray, Uv: np.ndarray) -> np.ndarray:
    """(Uc (x) Uv) X (Uc (x) Uv)^dag, Hermitian to rounding, for an (Nc, Nv, Nc, Nv)
    tensor X, by one-mode products on each axis in turn, with X as one of the
    two D x D buffers (it is overwritten and returned)."""
    Nc, Nv = Uc.shape[0], Uv.shape[0]
    D = Nc * Nv
    A, B = X.reshape(D, D), np.empty((D, D), dtype=X.dtype)
    np.matmul(Uc, A.reshape(Nc, -1), out=B.reshape(Nc, -1))
    np.matmul(Uv, B.reshape(Nc, Nv, D), out=A.reshape(Nc, Nv, D))
    np.matmul(Uc.conj(), A.reshape(D, Nc, Nv), out=B.reshape(D, Nc, Nv))
    np.matmul(B.reshape(D * Nc, Nv), Uv.conj().T, out=A.reshape(D * Nc, Nv))
    return A


def assemble_joint_density(
    params: CouplingParams, t: float, alpha: complex, beta: complex, budget: AssemblyBudget
) -> FockDensity:
    """Assemble the exact joint density operator at time t on a truncated basis.

    Sums (f g)^{m+n} Q_c^{m,n} (x) Q_v^{m,n} over the levels L = m+n, each factor
    conjugated by its mode's D(w) S(xi) (w = u(t), v(t)); both modes' (n_bar, xi),
    f g and (u, v) come from one closed-form evaluation.  The series is summed once
    in the unconjugated basis (``_joint_core``), which also picks the cutoff from
    the level norms, and conjugated once by D_c S_c (x) D_v S_v (``_conjugate``);
    rho is Hermitian to rounding, and its consumers take the Hermitian part.
    Serves every regime: at omega2 = 0, f g = 0 leaves the single product term,
    and at equal coupling the mode-v parameters stay finite.  Its
    ``trace_deficit`` is the loss of the series cutoff plus the weight the exact
    frames move past the truncated levels of each mode.
    """
    spec_c, spec_v, u, v = _state(params, t, alpha, beta, "cv")
    Nc, Nv = budget.dims
    # without displacement both frames are real, and then so is every buffer
    X = _joint_core(spec_c, spec_v, budget, complex if u or v else float)
    rho = _conjugate(X, _frame(u, spec_c.xi, Nc), _frame(v, spec_v.xi, Nv))
    return FockDensity(entries=rho, dims=(Nc, Nv))


def reduced_density(
    params: CouplingParams, t: float, mode: str, alpha: complex, beta: complex, N: int
) -> FockDensity:
    """Reduced state of one mode, D(w) S(xi) R^{0,0}(n_bar) S(xi)^dag D(w)^dag:
    the L = 0 term of the joint series.

    (n_bar, xi) and w (u(t) for the cavity, v(t) for the motion) come from one
    closed-form evaluation, which maps this mode only.  The trace deficit is
    1 - sum_{k<N} p_k ||U|k>||^2 for the thermal weights p_k and the frame's exact
    corner U: the thermal tail (n_bar/(n_bar+1))^N plus what U moves past N levels.
    """
    spec, u, v = _state(params, t, alpha, beta, (mode,))
    U = _frame(u if mode == "c" else v, spec.xi, N)
    nb = spec.n_bar  # R^{0,0}: the thermal diagonal, the values of _r_tables(0, 1, nb, N)[0][0]
    p = np.exp(-math.log(nb + 1.0)) * (nb / (nb + 1.0)) ** np.arange(N)
    return FockDensity(entries=(U * p) @ U.conj().T, dims=(N,))


def lossless_ket(
    params: CouplingParams, alpha: complex, beta: complex, t: float, dims: Tuple[int, int]
) -> np.ndarray:
    """Pure two-mode state for gamma = 0 on a truncated basis, as the flat
    joint ket (cavity index major, like ``FockDensity``).

    Applies D_c(u) S_c(xi_c) (x) D_v(v) S_v(xi_v) to the two-mode-squeezed sum over
    |k>_c |k>_v with weights (sign(zeta) sqrt(n_bar/(n_bar+1)))^k / sqrt(n_bar+1).
    n_bar, xi_c, xi_v, zeta = f g and (u, v) come from one closed-form evaluation,
    as in ``assemble_joint_density``; the state is pure, so n_bar is either mode's.
    These forms need no L0 = sqrt(omega1^2 - omega2^2), so the ket serves every
    coupling at gamma = 0, equal coupling and omega2 > omega1 too.  1 - ||psi||^2
    is the Schmidt tail (n_bar/(n_bar+1))^{min(dims)} plus the weight the frames'
    exact corners move past the truncated levels.

    The pair-creation direction alternates with the sign of zeta, which is that of
    sin(2 L0 t) where omega1 > omega2; with positive weights throughout, the state
    would be wrong wherever zeta < 0 (verified against the propagator).
    """
    if params.gamma != 0:
        raise RegimeError("lossless solution requires gamma = 0")
    spec_c, spec_v, u, v = _state(params, t, alpha, beta, "cv")
    Nc, Nv = dims
    nb = spec_c.n_bar
    sign = -1.0 if spec_c.zeta < 0.0 else 1.0
    k = np.arange(min(Nc, Nv))
    psi = np.zeros((Nc, Nv), dtype=complex)
    psi[k, k] = (sign * math.sqrt(nb / (nb + 1.0))) ** k / math.sqrt(nb + 1.0)
    # (U_c (x) U_v) acts on the (Nc, Nv) amplitude matrix as U_c psi U_v^T
    Uc, Uv = _frame(u, spec_c.xi, Nc), _frame(v, spec_v.xi, Nv)
    return (Uc @ psi @ Uv.T).ravel()


def partial_trace(rho: FockDensity, keep: str) -> FockDensity:
    """Trace out one mode of a joint density ("c" keeps the cavity factor)."""
    if not rho.joint:
        raise ValueError("partial_trace needs a two-mode density")
    if keep not in ("c", "v"):
        raise ValueError(f"keep must be 'c' or 'v', got {keep!r}")
    Nc, Nv = rho.dims
    out = np.einsum("ijkj->ik" if keep == "c" else "ijil->jl", rho.entries.reshape(Nc, Nv, Nc, Nv))
    return FockDensity(entries=out, dims=(len(out),))


def trace_distance(rho: FockDensity, sigma: FockDensity) -> float:
    """(1/2) sum |eig(rho - sigma)|; like ``state_metrics``, it refuses a rho
    with an eigenvalue below -TOL_PSD (``FockDensity._eigenvalue_below_tol``)."""
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    if (lo := rho._eigenvalue_below_tol()) is not None:
        raise ValidityError(f"matrix is not PSD within tolerance (min eig {lo:.3e})")
    diff = rho.entries - sigma.entries
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def state_metrics(rho: FockDensity, sigma: FockDensity) -> StateMetrics:
    """Uhlmann fidelity, trace distance and purity of rho.

    fidelity = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2,
    trace distance = ``trace_distance(rho, sigma)``,  purity = tr rho^2.
    """
    td = trace_distance(rho, sigma)
    w, v = np.linalg.eigh(0.5 * (rho.entries + rho.entries.conj().T))
    sr = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    mid = sr @ sigma.entries @ sr
    w = np.linalg.eigvalsh(0.5 * (mid + mid.conj().T))
    fid = float(np.sqrt(np.clip(w, 0.0, None)).sum() ** 2)
    purity = float(np.trace(rho.entries @ rho.entries).real)
    return StateMetrics(fidelity=min(fid, 1.0), trace_distance=td, purity=purity)


def _mode_stats(r: np.ndarray) -> Tuple[float, float, float, float]:
    """(mean_x, mean_p, var_x, var_p) of a single-mode density matrix."""
    a = ladder(r.shape[0])
    X = (a + a.conj().T) / math.sqrt(2.0)
    P = (a - a.conj().T) / (1j * math.sqrt(2.0))
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
    if not rho.joint:
        return _mode_stats(rho.entries)
    mxc, mpc, vxc, vpc = _mode_stats(partial_trace(rho, "c").entries)
    mxv, mpv, vxv, vpv = _mode_stats(partial_trace(rho, "v").entries)
    return QuadTuple(
        var_xc=vxc, var_pc=vpc, var_xv=vxv, var_pv=vpv,
        mean_xc=mxc, mean_pc=mpc, mean_xv=mxv, mean_pv=mpv,
    )
