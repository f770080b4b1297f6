"""Exact propagator of the master equation on the truncated joint Fock space.

Ground truth for validating the analytical solution.  The master equation

    d rho/dt = -i [H, rho] + (gamma/2)(2 a rho ad - ad a rho - rho ad a),

with H = i omega1 (ad b - a bd) + i omega2 (ad bd - a b) and the loss acting
on the cavity mode only, is linear and time-invariant, so rho(t) =
exp(L t) rho0 exactly.  With K = -iH (real and antisymmetric), a = a_c (x) 1
and n = ad a, all real D x D matrices (D = Nc Nv), the generator is

    L(X) = K X + X K^T + gamma a X a^T - (gamma/2)(n X + X n).

In row-major vec, vec(A X B) = (A (x) B^T) vec X, so L is the D^2 x D^2 matrix
K (x) 1 + 1 (x) K + gamma a (x) a - (gamma/2)(n (x) 1 + 1 (x) n).  It is never
stored, and it is real, so the propagator runs in real arithmetic.  With
mu = tr L / D^2,

    L(X) - mu X = M X + X M^T + gamma a X a^T,   M = K - (gamma/2) n - (mu/2) I,

and for real X with X^T = sign X (sign = +1 or -1), X M^T = sign (M X)^T: one
real sparse product, plus sign times its transpose, plus the jump as a level
shift, with a result exactly (anti)symmetric like X.  L maps each such class
into itself, so any complex X splits into at most four real parts that evolve
on their own: the symmetric and antisymmetric parts of Re X and of Im X.  A
Hermitian X is Re-symmetric plus i Im-antisymmetric; its anti-Hermitian part
is the other two.  An exactly zero part is skipped, as exp(L t) 0 = 0, so a
real Hermitian start (every vacuum start) propagates one real matrix and a
complex Hermitian start two.  The anti-Hermitian parts are propagated only
beyond TRACE_DRIFT_TOL, so that such a start is reported at its first
checkpoint.

exp(h L) v is Algorithm 3.2 of Al-Mohy & Higham, "Computing the action of the
matrix exponential", SIAM J. Sci. Comput. 33, 488 (2011), at u = 2^-53: s
substeps e^{h mu/s} T_m(h (L - mu I)/s), each Taylor sum cut off once two
terms in a row fall below u ||F||_inf, with the (m, s) of least m s that has
h ||L - mu I||_1 <= s theta_m (their Table 3.1).  That 1-norm is exact, with
no estimation: column (j, l) of L - mu I sums the disjoint parts, |K|'s
columns j and l, gamma sqrt(p q) from a (x) a and |(gamma/2)(p + q) + mu| on
the diagonal, p and q the cavity levels of j and l, so it is a maximum over
the Nc^2 pairs (p, q).  ||F||_inf is taken only once the two terms fall below
u times the sum of all terms' ||.||_inf, a bound on it, so the cut is the same.
scipy.sparse is imported where the generator is built, so importing the package
does not load it.  Only ``evolve_trajectory`` is public.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .errors import IntegrationError
from .fock import FockDensity
from .params import CouplingParams

__all__ = ["evolve_trajectory"]

#: |tr rho - 1| or max |rho - rho^dag| beyond this at a checkpoint aborts a trajectory
TRACE_DRIFT_TOL = 1e-8

#: evolve_trajectory refuses a step that needs more substeps than this (see ``_taylor_expm``);
#: validate's CI runs need at most 16
MAX_SUBSTEPS = 1000

#: theta_m of Al-Mohy & Higham's Table 3.1 at u = 2^-53, for m = 5, 10, ..., 55
_THETA = dict(zip(range(5, 60, 5), (2.4e-3, 0.14, 0.64, 1.4, 2.4, 3.5, 4.7, 6.0, 7.2, 8.5, 9.9)))


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


def _kernel(params: CouplingParams, dims: Sequence[int]):
    """apply(X, sign) = L(X) - mu X for real X with X^T = sign X, mu = tr L / D^2,
    and ||L - mu I||_1."""
    import scipy.sparse as sp

    K = _k_matrix(params, dims)
    Nc, Nv = dims
    g, lv = params.gamma, np.arange(Nc, dtype=float)
    mu = -0.5 * g * (Nc - 1)  # tr L / D^2; the column sums of |L - mu I| at cavity levels p, q:
    kmax = np.asarray(abs(K).sum(axis=0)).reshape(Nc, Nv).max(axis=1)[:, None]
    cols = kmax + kmax.T + g * np.sqrt(lv[:, None] * lv) + np.abs(0.5 * g * (lv[:, None] + lv) + mu)
    M = (K - sp.diags(np.repeat(0.5 * (g * lv + mu), Nv))).tocsr()
    # on the (Nc, Nv, Nc, Nv) view, g a X a^T moves X[i+1, j, k+1, l] to
    # [i, j, k, l] with weight g sqrt((i+1)(k+1))
    jump = g * np.sqrt(lv[1:, None, None, None] * lv[None, None, 1:, None])
    adj, hop = np.empty(M.shape), np.empty((Nc - 1, Nv, Nc - 1, Nv))

    def apply(X: np.ndarray, sign: int) -> np.ndarray:
        Y = M @ X
        Y += np.multiply(Y.T, sign, out=adj)  # X M^T = sign (M X)^T
        if g:
            X4, Y4 = X.reshape(Nc, Nv, Nc, Nv), Y.reshape(Nc, Nv, Nc, Nv)
            Y4[:-1, :, :-1] += np.multiply(jump, X4[1:, :, 1:], out=hop)
        return Y

    return apply, mu, float(cols.max())


def _parts(X: np.ndarray) -> list:
    """The nonzero real parts (sign, imag, P) of X: P^T = sign P, and X is the
    sum of the P, each times 1j where imag.  Hermitian parts have
    (sign > 0) != imag."""
    parts = []
    for imag, R in ((False, X.real), (True, X.imag)):
        for sign in (1, -1):
            P = 0.5 * (R + R.T if sign > 0 else R - R.T)
            if P.any():
                parts.append((sign, imag, P))
    return parts


def _join(parts: list, shape: Tuple[int, int]) -> np.ndarray:
    """The matrix whose ``_parts`` these are: real when no part is imaginary."""
    X = np.zeros(shape, dtype=complex if any(imag for _, imag, _ in parts) else float)
    for _, imag, P in parts:
        if imag:
            X.imag += P
        else:
            X.real += P
    return X


def _taylor_expm(apply, v: np.ndarray, h: float, mu: float, norm1: float) -> np.ndarray:
    """exp(h (A + mu I)) v, where apply(x) = A x and norm1 >= ||A||_1 (Al-Mohy & Higham, Alg. 3.2)."""
    m = min(_THETA, key=lambda m: m * math.ceil(h * norm1 / _THETA[m]))
    s = max(1, math.ceil(h * norm1 / _THETA[m]))
    eta, mag = math.exp(h * mu / s), np.empty(v.shape)
    for _ in range(s):
        f = v.copy()
        c = bound = np.abs(v, out=mag).max()
        for j in range(1, m + 1):
            v = apply(v)
            v *= h / (s * j)
            f += v
            c, c_prev = np.abs(v, out=mag).max(), c
            # stop at c_prev + c <= u ||f||_inf, u = 2^-53; bound >= ||f||_inf is tried first
            tail, bound = 2.0 ** 53 * (c_prev + c), bound + c
            if tail <= bound and tail <= np.abs(f, out=mag).max():
                break
        f *= eta
        v = f
    return v


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
) -> list[FockDensity]:
    """Evolve rho0 through a nondecreasing list of checkpoint times.

    rho(t_k) = exp(L (t_k - t_{k-1})) rho(t_{k-1}), each real part of rho0 on
    its own; the densities are float64 when rho0's imaginary part is zero.
    The trace drift and the Hermiticity error are checked at every checkpoint.
    A step that needs more than MAX_SUBSTEPS substeps, or a non-finite
    number of them, is refused before any is taken.
    """
    if not rho0.joint:
        raise ValueError("evolve_trajectory needs a two-mode density")
    times = list(times)
    if not all(0 <= t < math.inf for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be finite, nonnegative and nondecreasing")
    apply, mu, norm1 = _kernel(params, rho0.dims)
    for t0, t in zip([0.0, *times], times):
        # the fewest substeps of any degree m; inf or nan once the norm overflows
        s = (t - t0) * norm1 / _THETA[55] if t > t0 else 0.0
        if not s <= MAX_SUBSTEPS:
            raise IntegrationError(f"propagator step of {t - t0:.6g} needs {s:.3g} substeps > "
                                   f"{MAX_SUBSTEPS} at {_where(params, rho0.dims, t)}")
    X = rho0.entries
    rho = X if X.imag.any() else X.real
    parts = _parts(X)
    if 0.5 * np.abs(X - X.conj().T).max() <= TRACE_DRIFT_TOL:  # keep the Hermitian parts only
        parts = [(sign, imag, P) for sign, imag, P in parts if (sign > 0) != imag]

    out: list[FockDensity] = []
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            parts = [(sign, imag, _taylor_expm(lambda x, sign=sign: apply(x, sign), P,
                                                t - t_prev, mu, norm1))
                     for sign, imag, P in parts]
            rho = _join(parts, X.shape)
        _check_state(rho, params, rho0.dims, t)
        t_prev = t
        out.append(FockDensity(entries=rho.copy(), dims=rho0.dims))
    return out
