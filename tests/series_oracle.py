"""The defining Q^{m,n} / C_k^{m,n} forms of the joint-density series.

The test oracle for ``ioncavity.fock``'s assembly: the paper writes the
total density operator as a series of Q^{m,n} (x) Q^{m,n} terms, and the
assembly sums the same series from the R^{m,n} diagonals with closed-form
level tables T_L instead.  These are the defining forms, kept here so that
the tests can pin the assembly, the level tables and the reduced states
against them.

Conventions.  Q^{m,n}(n_bar, xi) expands as

    Q^{m,n} = sum_k C_k^{m,n}(-xi) S(xi) R^{m+n-k,k}(n_bar) S(xi)^dag ,

the sign flip of the C-coefficient argument being required for consistency
with the superoperator route (``superop_oracle``, checked in the test
suite).  R^{m,n} carries the per-mode sign (-1)^n of its superoperator
anchoring (see ``ioncavity.fock``); it cancels in the joint products, so the
assembled density operator is independent of this bookkeeping.

``_r_diagonals`` is the per-level oracle of fock's R tables, which come in
blocks of levels: one level, from one ``jacobi_poly`` call over every (k, c)
of its half.  ``r_operator`` is one R^{m,n} as a matrix, read from fock's
own ``_r_tables`` and ``_dense``, so its tests test those tables.
``_q_level`` builds every Q^{m,L-m} of one level L from one
``_r_diagonals`` table and one ``c_coefficient`` call, conjugated by S(xi),
or by D(w) S(xi) to carry a coherent displacement along; ``q_operator`` is
one of them.  Its frames come from ``exact_frame``: the N x N corner of
D(w) S(xi), as ``expm`` of the generators on N + 100 levels, cropped.  That
is converged to rounding where the tests use it; the same ``expm`` on N
levels alone is unitary there but misses the corner's far entries by up to
0.6.  ``c_coefficient`` takes ints or int arrays for every index,
broadcast together: scalars give a Python float, and any bad element raises
the scalar ValueError.  Its log-factorials come from fock's ``math.lgamma``
table and it is summed in index order (``_term_sum``), so array and scalar
calls agree.
"""

import math

import numpy as np
from scipy.linalg import expm

from ioncavity.fock import _dense, _log_factorials, _r_tables, jacobi_poly

#: levels past N on which ``exact_frame`` exponentiates: against 200 of them, 40 leave
#: the corner 2.1e-6 off at (w, xi, N) = (0.8, 0.5, 26), 64 leave 3.0e-15
FRAME_PAD = 100


def exact_frame(w: complex, xi: float, N: int) -> np.ndarray:
    """<m| D(w) S(xi) |n> for m, n < N: expm of the generators on N +
    ``FRAME_PAD`` levels, cropped to N; a real matrix when w = 0."""
    M = N + FRAME_PAD
    a = np.diag(np.sqrt(np.arange(1.0, M)), 1)
    a2 = a @ a
    U = expm(0.5 * xi * (a2 - a2.T))
    if w:
        U = expm(w * a.T - np.conj(w) * a) @ U
    return U[:N, :N]


def _r_diagonals(L: int, n_bar: float, N: int) -> np.ndarray:
    """(L+1, N) table of R^{L-k,k}(n_bar) on N levels, k = 0..L, by diagonals.

    R^{L-k,k} lies on the diagonal row - col = L - 2k; row k of the table
    holds its entries at min(row, col) = c, zero where max(row, col) >= N.
    Rows k <= L/2, where m = L - k >= k, come from one ``jacobi_poly`` call
    over (k, c) (see ``r_operator``); the others are (-1)^L
    times their mirror L - k, by the adjoint rule.
    """
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    s, c = np.arange(L // 2 + 1)[:, None], np.arange(N)
    m, row = L - s, c + L - 2 * s
    lf = _log_factorials((N + L).bit_length())
    mag = 0.5 * (lf[s] + lf[c] - lf[m] - lf[row]) - (m + 1) * math.log(n_bar + 1.0)
    vals = np.where(s % 2, -1.0, 1.0) * np.exp(mag) * jacobi_poly(m, c, c - s, n_bar / (n_bar + 1.0))
    half = np.where(row < N, vals, 0.0)
    mirror = half[: (L + 1) // 2][::-1]
    return np.concatenate([half, -mirror if L % 2 else mirror])


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


def _term_sum(terms: np.ndarray):
    """Sum over axis 0 in index order; a Python float for scalar summands.

    A running sum, unlike numpy's pairwise one, adds the zero terms that pad
    an array call without regrouping the rounding of the others.
    """
    total = np.cumsum(terms, axis=0)[-1]
    return float(total) if total.ndim == 0 else total


def c_coefficient(m, n, k, xi: float):
    """Coefficient C_k^{m,n}(xi) of the squeezed operator-family expansion.

    sqrt((m+n-k)! k!/(m! n!)) sum_l binom-weights cosh^{m-k+2l} sinh^{n+k-2l},
    log-factorial magnitudes times the integer powers, whose sign is that of
    sinh(xi)^{n+k-2l}; ``m``, ``n`` and ``k`` broadcast together.
    """
    m, n, k = np.broadcast_arrays(np.asarray(m), np.asarray(n), np.asarray(k))
    if (m < 0).any() or (n < 0).any():
        raise ValueError("need m, n >= 0")
    bad = (k < 0) | (k > m + n)
    if bad.any():
        raise ValueError(f"need 0 <= k <= m+n, got k={k[bad][0]}, m+n={(m + n)[bad][0]}")
    ch, sh = math.cosh(xi), math.sinh(xi)
    l = np.arange(n.max(initial=0) + 1).reshape((-1,) + (1,) * k.ndim)
    live = (l >= k - m) & (l <= k) & (l <= n)
    lf = _log_factorials(int((m + n).max(initial=0)).bit_length())
    pref = 0.5 * (lf[m + n - k] + lf[k] - lf[m] - lf[n])
    mag = (pref + lf[m] - lf[np.where(live, k - l, 0)] - lf[np.where(live, m - k + l, 0)]
           + lf[n] - lf[l] - lf[np.where(live, n - l, 0)])
    p_ch, p_sh = np.where(live, m - k + 2 * l, 0), np.where(live, n + k - 2 * l, 0)
    return _term_sum(np.where(live, np.exp(mag) * ch**p_ch * sh**p_sh, 0.0))


def _q_level(L: int, n_bar: float, xi: float, U: np.ndarray) -> np.ndarray:
    """Stack of Q^{m,L-m}(n_bar, xi) for m = 0..L, conjugated by U.

    Q^{m,L-m} = sum_k C_k^{m,L-m}(-xi) U R^{L-k,k}(n_bar) U^dag, where U is
    S(xi), or D(w) S(xi) to carry a coherent displacement along.
    """
    S = U @ _dense(_r_diagonals(L, n_bar, U.shape[0])) @ U.conj().T
    m = k = np.arange(L + 1)
    return np.tensordot(c_coefficient(m[:, None], L - m[:, None], k, -xi), S, axes=1)


def q_operator(m: int, n: int, n_bar: float, xi: float, N: int) -> np.ndarray:
    """Q^{m,n}(n_bar, xi) = sum_k C_k^{m,n}(-xi) S(xi) R^{m+n-k,k}(n_bar) S(xi)^dag,
    with S(xi) the exact corner ``exact_frame(0, xi, N)``."""
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    return _q_level(m + n, n_bar, xi, exact_frame(0.0, xi, N))[m]
