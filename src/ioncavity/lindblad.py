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

and for real X with X^T = sign X (sign = +1 or -1), X M^T = sign (M X)^T.  L
maps each such class into itself, so a Hermitian rho evolves as two real
matrices on their own: its symmetric real part (Re rho + Re rho^T)/2 with
sign +1, and its antisymmetric imaginary part (Im rho - Im rho^T)/2 with
sign -1.

K and n keep the parity of n_c + n_v, and the jump a X a^T flips it on both
sides.  With E and O the states of even and odd n_c + n_v, L therefore maps
the diagonal sector (the blocks X_EE and X_OO) and the off sector (X_EO and
X_OE = sign X_EO^T) each into itself.  Each part is propagated as one flat
buffer of the sectors that are nonzero at the start, with X_OE not stored; a
zero sector, like a zero imaginary part, is skipped, as exp(L t) 0 = 0.  A
vacuum start lives in the diagonal sector of the real part, so it propagates
X_EE and X_OO alone, half of rho; a complex start propagates at most three
quarters of rho per part.  E and O each list their states in increasing
row-major order, so the blocks M_E and M_O keep the order of M's own sums,
and the jump is one slice of the partner block times the level weights
gamma sqrt((i + 1)(k + 1)): a diagonal block's result is exactly
(anti)symmetric like X, and a propagated rho exactly Hermitian.  A start
whose Hermiticity error max |rho - rho^dag| or trace drift |tr rho - 1|
exceeds TRACE_DRIFT_TOL is refused before any step; a smaller Hermiticity
error, such as the rounding of np.outer, is dropped.

At gamma = 0 the equation is von Neumann's, L(X) = K X + X K^T, so
exp(L t)(psi psi^dag) = (e^{Kt} psi)(e^{Kt} psi)^dag exactly.  A start within
TRACE_DRIFT_TOL of psi psi^dag, psi its column j of the largest rho_jj over
sqrt(rho_jj), propagates psi alone: the real columns [Re psi, Im psi], or Re
psi if Im psi = 0, under v -> K v with mu = 0 and the exact ||K||_1, its
largest column sum.  psi psi^dag is formed in real arithmetic, so it is
exactly Hermitian.  Other starts propagate their density; at gamma = 0 the
jump's weights are exactly zero, so it adds nothing, with no branch on gamma.

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
does not load it.

``validation_checks`` propagates |alpha>|beta> once and yields a ``Check`` per
closed form at each checkpoint: the joint trace distance (TD_TOL), each mode's
fidelity deficit and, at gamma = 0 after all checkpoints, the lossless ket's
(FID_DEFICIT_TOL), and the largest quadrature variance difference (QUAD_TOL).
A formula guard tripped or a series refused inside a check is its note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import IntegrationError, TruncationError, ValidityError
from .fock import (AssemblyBudget, FockDensity, _frame, assemble_joint_density, lossless_ket,
                   partial_trace, quad_stats, reduced_density, state_metrics, trace_distance)
from .observables import QuadTuple, quad_variances
from .params import CouplingParams

__all__ = ["Check", "evolve_trajectory", "validation_checks"]

#: max |rho - rho^dag| beyond this refuses a start; it or |tr rho - 1| aborts at a checkpoint
TRACE_DRIFT_TOL = 1e-8

#: evolve_trajectory refuses a step that needs more substeps than this (see ``_taylor_expm``);
#: validate's CI runs need at most 16
MAX_SUBSTEPS = 1000

#: theta_m of Al-Mohy & Higham's Table 3.1 at u = 2^-53, for m = 5, 10, ..., 55
_THETA = dict(zip(range(5, 60, 5), (2.4e-3, 0.14, 0.64, 1.4, 2.4, 3.5, 4.7, 6.0, 7.2, 8.5, 9.9)))

#: validation_checks' tolerances
TD_TOL = 1e-4
FID_DEFICIT_TOL = 1e-6
QUAD_TOL = 1e-4


def _where(params: CouplingParams, dims: Sequence[int], t: float) -> str:
    return (f"(omega1, omega2, gamma) = ({params.omega1:g}, {params.omega2:g}, "
            f"{params.gamma:g}), dims = ({dims[0]}, {dims[1]}), t = {t:.6g}")


def _k_matrix(params: CouplingParams, dims: Sequence[int]):
    """K = -iH = omega1 (ad b - a bd) + omega2 (ad bd - a b) as a real sparse matrix."""
    import scipy.sparse as sp

    Nc, Nv = dims
    if Nc < 2 or Nv < 2:
        raise ValueError("each mode needs at least 2 levels")
    # lo, hi: the states at cavity levels p, p + 1; ad b, a bd, ad bd and a b each take cols to rows
    lo, hi = (np.arange((Nc - 1) * Nv).reshape(Nc - 1, Nv) + s for s in (0, Nv))
    rows = np.stack([hi[:, :-1], lo[:, 1:], hi[:, 1:], lo[:, :-1]]).ravel()
    cols = np.stack([lo[:, 1:], hi[:, :-1], lo[:, :-1], hi[:, 1:]]).ravel()
    w = np.sqrt(np.arange(1.0, Nc))[:, None] * np.sqrt(np.arange(1.0, Nv))  # at the lower levels p, q
    vals = np.multiply.outer([params.omega1, -params.omega1, params.omega2, -params.omega2], w).ravel()
    keep = vals != 0  # a zero omega2 adds no entries
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(Nc * Nv, Nc * Nv))


def _parity_order(dims: Sequence[int]):
    """The row-major indices of the states with n_c + n_v even (E), then odd (O), each increasing."""
    Nc, Nv = dims
    odd = np.add.outer(np.arange(Nc), np.arange(Nv)).ravel() % 2
    return np.flatnonzero(odd == 0), np.flatnonzero(odd)


def _pieces(v: np.ndarray, nE: int, nO: int):
    """Views (R, X_EE, X_OO, X_EO) of a flat buffer of the diagonal sector (X_EE, X_OO), the
    off sector (X_EO) or both: the E rows R = [X_EE | X_EO] of the sectors it holds, then X_OO
    if it holds the diagonal one, and None for a block it does not hold.  The three sizes
    differ, as nE nO < nE^2 + nO^2."""
    diag, off = v.size != nE * nO, v.size != nE * nE + nO * nO
    w = nE * diag + nO * off
    R = v[:nE * w].reshape(nE, w)
    return (R, R[:, :nE] if diag else None, v[nE * w:].reshape(nO, nO) if diag else None,
            R[:, w - nO:] if off else None)


def _pack(X: np.ndarray, E: np.ndarray, O: np.ndarray):
    """The flat buffer of the nonzero sectors of a real X with X^T = sign X, or None if X = 0."""
    EE, OO, EO = X[np.ix_(E, E)], X[np.ix_(O, O)], X[np.ix_(E, O)]
    diag, off = EE.any() or OO.any(), EO.any()
    if not (diag or off):
        return None
    R = np.hstack([p for p, live in ((EE, diag), (EO, off)) if live])
    return np.concatenate([R.ravel(), OO.ravel()] if diag else [R.ravel()])


def _unpack(v: np.ndarray, sign: int, E: np.ndarray, O: np.ndarray) -> np.ndarray:
    """The real D x D matrix of a flat buffer, with X_OE = sign X_EO^T and absent sectors zero."""
    _, EE, OO, EO = _pieces(v, E.size, O.size)
    X = np.zeros((E.size + O.size,) * 2)
    if EE is not None:
        X[np.ix_(E, E)], X[np.ix_(O, O)] = EE, OO
    if EO is not None:
        X[np.ix_(E, O)], X[np.ix_(O, E)] = EO, sign * EO.T
    return X


def _kernel(params: CouplingParams, dims: Sequence[int]):
    """apply(v, sign, out=None) = L(X) - mu X, mu = tr L / D^2, and ||L - mu I||_1.

    X is real with X^T = sign X and v the flat buffer of its sectors (see
    ``_pieces``); the result is the buffer of the same sectors, written into
    out when it is given.  Per block, with M_E and M_O the blocks of M:
    (M X + X M^T)_EE = P + sign P^T for P = M_E X_EE, likewise on O, and
    (M X + X M^T)_EO = M_E X_EO + (M_O X_EO^T)^T.
    """
    import scipy.sparse as sp

    K = _k_matrix(params, dims)
    Nc, Nv = dims
    g, lv = params.gamma, np.arange(Nc, dtype=float)
    mu = -0.5 * g * (Nc - 1)  # tr L / D^2; the column sums of |L - mu I| at cavity levels p, q:
    kmax = np.asarray(abs(K).sum(axis=0)).reshape(Nc, Nv).max(axis=1)[:, None]
    cols = kmax + kmax.T + g * np.sqrt(lv[:, None] * lv) + np.abs(0.5 * g * (lv[:, None] + lv) + mu)
    M = (K - sp.diags(np.repeat(0.5 * (g * lv + mu), Nv))).tocsr()
    E, O = _parity_order(dims)
    nE, nO = E.size, O.size
    ME, MO = M[E][:, E], M[O][:, O]  # M keeps the parity, so these blocks are all of it
    # a moves cavity level i + 1 to i.  Each block lists level 0 first, and its level-(i + 1)
    # states, past the partner block's sE or sO level-0 states, are the level-i states of the
    # partner in the same order: (a X a^T)_EE[:hE, :hE] = w X_OO[sO:, sO:], with the weight
    # w = g sqrt((i + 1)(k + 1)) of the destination levels i, k
    sE, sO = (Nv + 1) // 2, Nv // 2
    hE, hO = nO - sO, nE - sE
    lE, lO = E[:hE] // Nv + 1.0, O[:hO] // Nv + 1.0
    wEE, wOO, wEO = (g * np.sqrt(l[:, None] * r) for l, r in ((lE, lE), (lO, lO), (lE, lO)))
    hopE, hopO, hopEO = np.empty(wEE.shape), np.empty(wOO.shape), np.empty(wEO.shape)

    def apply(v: np.ndarray, sign: int, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty_like(v) if out is None else out
        R, EE, OO, EO = _pieces(v, nE, nO)
        _, YEE, YOO, YEO = _pieces(out, nE, nO)
        PR = ME @ R  # M_E X_EE and M_E X_EO in one product
        # X M^T = sign (M X)^T on a diagonal block, and an antisymmetric one is P - P^T exactly
        add = np.add if sign > 0 else np.subtract
        if EE is not None:
            P, PO = PR[:, :nE], MO @ OO
            add(P, P.T, out=YEE)
            add(PO, PO.T, out=YOO)
            # the jump fills each diagonal block from its partner; at gamma = 0 its weights are 0
            YEE[:hE, :hE] += np.multiply(wEE, OO[sO:, sO:], out=hopE)
            YOO[:hO, :hO] += np.multiply(wOO, EE[sE:, sE:], out=hopO)
        if EO is not None:
            # X_EO M_O^T = (M_O X_EO^T)^T, and (a X a^T)_EO = w X_OE[sO:, sE:] with X_OE = sign X_EO^T
            np.add(PR[:, -nO:], (MO @ EO.T).T, out=YEO)
            add(YEO[:hE, :hO], np.multiply(wEO, EO[sE:, sO:].T, out=hopEO), out=YEO[:hE, :hO])
        return out

    return apply, mu, float(cols.max())


def _taylor_expm(apply, v: np.ndarray, h: float, mu: float, norm1: float) -> np.ndarray:
    """exp(h (A + mu I)) v, where apply(x, out=y) returns A x, written into y or a new
    array, and norm1 >= ||A||_1 (Al-Mohy & Higham, Alg. 3.2)."""
    m = min(_THETA, key=lambda m: m * math.ceil(h * norm1 / _THETA[m]))
    s = max(1, math.ceil(h * norm1 / _THETA[m]))
    eta, mag = math.exp(h * mu / s), np.empty(v.shape)
    terms = np.empty(v.shape), np.empty(v.shape)  # apply writes each term over the one before last
    for _ in range(s):
        f = v.copy()
        c = bound = np.abs(v, out=mag).max()
        for j in range(1, m + 1):
            v = apply(v, out=terms[j % 2])
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


def _check_state(rho: np.ndarray, stage: str, params: CouplingParams, dims: Sequence[int],
                 t: float) -> None:
    """Refuse a ``stage`` ("start" or "propagator") rho whose Hermiticity error, then
    trace drift, exceeds TRACE_DRIFT_TOL."""
    for what, err in (("Hermiticity error max |rho - rho^dag|", float(np.abs(rho - rho.conj().T).max())),
                      ("trace drift |tr rho - 1|", abs(float(np.trace(rho).real) - 1.0))):
        if not err <= TRACE_DRIFT_TOL:  # not <=, so a nan fails too
            raise IntegrationError(f"{stage} {what} = {err:.3e} > {TRACE_DRIFT_TOL} at "
                                   f"{_where(params, dims, t)}")


def evolve_trajectory(
    params: CouplingParams,
    rho0: FockDensity,
    times: Sequence[float],
) -> list[FockDensity]:
    """Evolve rho0 through a nondecreasing list of checkpoint times.

    rho(t_k) = exp(L (t_k - t_{k-1})) rho(t_{k-1}), as the real matrices
    (Re rho0 + Re rho0^T)/2 and (Im rho0 - Im rho0^T)/2, each held as one flat
    buffer of the parity sectors that are nonzero in rho0: the diagonal one
    (X_EE, X_OO) and the off one (X_EO).  A zero part or sector stays zero
    and is not propagated, so a vacuum start evolves X_EE and X_OO of the
    real part alone; the densities are float64 when the imaginary part is
    zero.  The Hermiticity error max |rho - rho^dag| and then the trace
    drift |tr rho - 1| are checked at the start, where they refuse rho0
    before any step, and in the same order at every checkpoint.  A step that
    needs more than MAX_SUBSTEPS substeps, or a non-finite number of them, is
    refused before any is taken.  At gamma = 0 a start within TRACE_DRIFT_TOL
    of a pure psi psi^dag propagates psi by e^{Kt} instead (see the module
    docstring), its substeps sized on ||K||_1; any other start propagates its
    density, where the jump term is then exactly zero, with no branch.
    """
    if not rho0.joint:
        raise ValueError("evolve_trajectory needs a two-mode density")
    times = list(times)
    if not all(0 <= t < math.inf for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be finite, nonnegative and nondecreasing")
    X, dims = rho0.entries, rho0.dims
    _check_state(X, "start", params, dims, 0.0)
    j = int(np.argmax(X.diagonal().real))  # psi of a pure start psi psi^dag, read off its largest rho_jj
    psi = X[:, j] / math.sqrt(X[j, j].real)
    # each route sets up its real blocks, their steps, mu, the exact 1-norm and the rho they form
    if params.gamma == 0 and np.abs(X - np.outer(psi, psi.conj())).max() <= TRACE_DRIFT_TOL:
        # K is real, so psi propagates as the real columns [Re psi, Im psi], or Re psi alone
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is refused below
            K = _k_matrix(params, dims)
            mu, norm1 = 0.0, float(abs(K).sum(axis=0).max())
        blocks = {"psi": np.stack([psi.real, psi.imag] if psi.imag.any() else [psi.real], axis=1)}
        steps = {"psi": lambda v, out: K @ v}  # v -> K v, with tr K = 0 and the exact ||K||_1

        def density(parts: dict) -> np.ndarray:
            a, b = parts["psi"][:, 0], parts["psi"][:, -1]
            rho = np.outer(a, a)
            if parts["psi"].shape[1] == 2:  # in real arithmetic, where Im rho is exactly antisymmetric
                rho = rho + np.outer(b, b) + 1j * (np.outer(b, a) - np.outer(a, b))
            return rho
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            apply, mu, norm1 = _kernel(params, dims)
        E, O = _parity_order(dims)
        # exp(L h) 0 = 0, so a zero part or sector is dropped; the real part's trace is 1
        blocks = {sign: v for sign, R in ((1, X.real), (-1, X.imag))
                  if (v := _pack(0.5 * (R + sign * R.T), E, O)) is not None}
        steps = {sign: partial(apply, sign=sign) for sign in blocks}

        def density(parts: dict) -> np.ndarray:
            rho = _unpack(parts[1], 1, E, O)
            return rho + 1j * _unpack(parts[-1], -1, E, O) if -1 in parts else rho
    for t0, t in zip([0.0, *times], times):
        # the fewest substeps of any degree m; inf or nan once the norm overflows
        s = (t - t0) * norm1 / _THETA[55] if t > t0 else 0.0
        if not s <= MAX_SUBSTEPS:
            raise IntegrationError(f"propagator step of {t - t0:.6g} needs {s:.3g} substeps > "
                                   f"{MAX_SUBSTEPS} at {_where(params, dims, t)}")
    rho = X if X.imag.any() else X.real  # the state at a checkpoint before any step
    out: list[FockDensity] = []
    for t0, t in zip([0.0, *times], times):
        if t > t0:
            blocks = {k: _taylor_expm(steps[k], v, t - t0, mu, norm1) for k, v in blocks.items()}
            rho = density(blocks)
        _check_state(rho, "propagator", params, dims, t)
        out.append(FockDensity(entries=rho.copy(), dims=dims))
    return out


@dataclass(frozen=True)
class Check:
    """A check at checkpoint t: value against tol, or the note of the guard that stopped it."""

    t: float
    name: str
    value: float
    tol: float
    note: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.note is None and self.value <= self.tol


def _coherent_joint(alpha: complex, beta: complex, nc: int, nv: int) -> FockDensity:
    """|alpha>|beta>: the exact coherent columns on (nc, nv) levels, normalized there."""
    psi = np.kron(_frame(alpha, 0.0, nc)[:, 0], _frame(beta, 0.0, nv)[:, 0])
    psi /= np.linalg.norm(psi)
    return FockDensity(entries=np.outer(psi, psi.conj()), dims=(nc, nv))


def _pure_state_deficit(psi: np.ndarray, rho: np.ndarray) -> float:
    """1 - <psi|rho|psi> / (||psi||^2 tr rho): the fidelity with a pure state, clipped at 1."""
    fid = np.vdot(psi, rho @ psi).real / (np.vdot(psi, psi).real * np.trace(rho).real)
    return 1.0 - min(float(fid), 1.0)


def _variance_delta(q: QuadTuple, r: QuadTuple) -> float:
    """Largest difference between the four variances of two QuadTuples."""
    return max(abs(getattr(q, k) - getattr(r, k)) for k in ("var_xc", "var_pc", "var_xv", "var_pv"))


def _check(t: float, name: str, tol: float, measure) -> Check:
    try:
        return Check(t, name, measure(), tol)
    except (ValidityError, TruncationError) as exc:  # fails this check only
        return Check(t, name, math.nan, tol, str(exc))


def validation_checks(params: CouplingParams, alpha: complex, beta: complex, dims: Tuple[int, int],
                      times: Sequence[float]) -> Iterator[Check]:
    """The closed forms against |alpha>|beta> propagated on ``dims`` levels, one ``Check``
    at a time (see the module docstring); an IntegrationError comes before the first."""
    budget = AssemblyBudget(dims=dims)
    states = evolve_trajectory(params, _coherent_joint(alpha, beta, *dims), times)
    for t, rho in zip(times, states):
        yield _check(t, "joint trace distance", TD_TOL, lambda: trace_distance(
            assemble_joint_density(params, t, alpha, beta, budget), rho))
        for mode, N in zip("cv", dims):
            yield _check(t, f"mode-{mode} fidelity deficit", FID_DEFICIT_TOL, lambda: 1.0 - state_metrics(
                reduced_density(params, t, mode, alpha, beta, N), partial_trace(rho, mode)).fidelity)
        yield _check(t, "quadrature delta", QUAD_TOL, lambda: _variance_delta(
            quad_stats(rho), quad_variances(params, t, alpha, beta)))
    if params.gamma == 0:
        for t, rho in zip(times, states):
            yield _check(t, "lossless fidelity deficit", FID_DEFICIT_TOL, lambda: _pure_state_deficit(
                lossless_ket(params, alpha, beta, t, dims), rho.entries))
