"""Ladder-superoperator construction of the R^{m,n} and Q^{m,n} families.

The test oracle for ``ioncavity.fock``: it builds an operator family member
by applying ladder commutators to its ground member, a code path
independent of the Jacobi-polynomial closed form it is compared against.
Operators go in as complex (N, N) arrays or single-mode ``FockDensity``
values and come out as arrays.
"""

import math

import numpy as np

from ioncavity import FockDensity, TruncationError, ladder

#: relative weight allowed in the top (m+n) levels of a raise_superop input
_HEADROOM_RTOL = 1e-6


def _single_mode_entries(op) -> np.ndarray:
    """Matrix of a single-mode operator: an array, or a FockDensity's entries."""
    if isinstance(op, FockDensity):
        if op.joint:
            raise ValueError("need a single-mode operator")
        return op.entries
    return np.asarray(op, dtype=complex)


def raise_superop(op, m: int, n: int) -> np.ndarray:
    """Apply (N+^n/sqrt(n!)) (M+^m/sqrt(m!)) to a single-mode operator.

    M+ X = ad X - X ad and N+ X = a X - X a.  The input is zero-padded by
    m+n levels before the ladder commutators act and cropped back, so that
    entries of the result are exact wherever the input itself was exact.
    The top m+n levels of the input must be negligibly occupied (headroom);
    otherwise the result near the truncation edge is meaningless and a
    TruncationError is raised.
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    entries = _single_mode_entries(op)
    N = entries.shape[0]
    if m + n == 0:
        return entries.copy()
    if m + n >= N:
        raise TruncationError(f"raising by m+n={m + n} exceeds dimension N={N}")
    scale = np.abs(entries).max()
    if scale > 0:
        top = max(
            np.abs(entries[N - (m + n):, :]).max(),
            np.abs(entries[:, N - (m + n):]).max(),
        )
        if top > _HEADROOM_RTOL * scale:
            raise TruncationError(
                f"input occupies its top {m + n} levels (relative weight "
                f"{top / scale:.2e} > {_HEADROOM_RTOL}); no truncation headroom"
            )
    Np = N + m + n
    X = np.zeros((Np, Np), dtype=complex)
    X[:N, :N] = entries
    a = ladder(Np)
    ad = a.conj().T
    for _ in range(m):
        X = ad @ X - X @ ad
    for _ in range(n):
        X = a @ X - X @ a
    X /= math.sqrt(math.exp(math.lgamma(m + 1) + math.lgamma(n + 1)))
    return X[:N, :N].copy()
