"""Gaussian-moment solution of the damped ion-cavity model.

The Hamiltonian is quadratic and the cavity loss is linear, so a Gaussian
start stays Gaussian and its first and second moments obey closed linear
equations (Weedbrook et al., "Gaussian quantum information", RMP 84, 621
(2012)).  With r = (x_c, p_c, x_v, p_v) and x = (a + a^dag)/sqrt(2):

    dr/dt = A r,    dV/dt = A V + V A^T + D,

    A = [[-g/2, 0, w1+w2, 0], [0, -g/2, 0, w1-w2],
         [-(w1-w2), 0, 0, 0], [0, -(w1+w2), 0, 0]],   D = diag(g/2, g/2, 0, 0).

Nothing here imports ``ioncavity``: the benchmark checks the program's
outputs against this solution, which shares no code with it.  The
covariance is propagated as the 17-dimensional linear system of vec(V) and a
constant, so one matrix exponential per time gives V(t) with no mixing of
growing and decaying blocks.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

#: times per batched matrix exponential; keeps the oracle's transient memory
#: far below the program's, so it does not set the reported peak RSS
_CHUNK = 128

VACUUM = 0.5 * np.eye(4)


def drift(o1: float, o2: float, g: float) -> np.ndarray:
    return np.array(
        [
            [-g / 2.0, 0.0, o1 + o2, 0.0],
            [0.0, -g / 2.0, 0.0, o1 - o2],
            [-(o1 - o2), 0.0, 0.0, 0.0],
            [0.0, -(o1 + o2), 0.0, 0.0],
        ]
    )


def diffusion(g: float) -> np.ndarray:
    return np.diag([g / 2.0, g / 2.0, 0.0, 0.0])


def propagators(o1: float, o2: float, g: float, times: Sequence[float]) -> np.ndarray:
    """e^{A t} for each t, shape (len(times), 4, 4)."""
    A = drift(o1, o2, g)
    t = np.asarray(times, dtype=float)
    out = np.empty((t.size, 4, 4))
    for lo in range(0, t.size, _CHUNK):
        out[lo:lo + _CHUNK] = expm(t[lo:lo + _CHUNK, None, None] * A)
    return out


def covariances(
    o1: float, o2: float, g: float, times: Sequence[float], V0: np.ndarray = VACUUM
) -> np.ndarray:
    """V(t) for each t from V(0) = V0, shape (len(times), 4, 4)."""
    A = drift(o1, o2, g)
    eye = np.eye(4)
    aug = np.zeros((17, 17))
    aug[:16, :16] = np.kron(eye, A) + np.kron(A, eye)
    aug[:16, 16] = diffusion(g).reshape(16)
    start = np.append(np.asarray(V0, dtype=float).reshape(16), 1.0)
    t = np.asarray(times, dtype=float)
    out = np.empty((t.size, 4, 4))
    for lo in range(0, t.size, _CHUNK):
        vec = expm(t[lo:lo + _CHUNK, None, None] * aug) @ start
        out[lo:lo + _CHUNK] = vec[:, :16].reshape(-1, 4, 4)
    return 0.5 * (out + out.transpose(0, 2, 1))


def coherent_means(alpha: complex, beta: complex) -> np.ndarray:
    """r(0) of the coherent start |alpha>_c |beta>_v."""
    s = math.sqrt(2.0)
    return s * np.array([alpha.real, alpha.imag, beta.real, beta.imag])


def envelopes(o1: float, o2: float, E: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, g, h) read off e^{A t}.

    x_c(t) = h x_c(0) + ((w1+w2)/w2) g x_v(0) and x_v(t) = ... + f x_v(0), so
    f = E[2,2], h = E[0,0] and g = E[0,2] w2/(w1+w2), which is 0 at w2 = 0.
    """
    return E[..., 2, 2], E[..., 0, 2] * (o2 / (o1 + o2)), E[..., 0, 0]


def mode_parameters(var_x: np.ndarray, var_p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Squeezed-thermal (n_bar, xi) of a mode with uncorrelated x and p.

    Var X = (n_bar + 1/2) e^{-2 xi} and Var P = (n_bar + 1/2) e^{2 xi}.
    """
    return np.sqrt(var_x * var_p) - 0.5, 0.25 * np.log(var_p / var_x)


def self_check() -> List[str]:
    """Exact cases the oracle must reproduce; returns the ones it misses."""
    problems = []

    def expect(label: str, err: float, tol: float) -> None:
        if not err <= tol:
            problems.append(f"oracle self-check {label}: error {err:.3e} > {tol:.1e}")

    times = [0.0, 0.7, 3.0, 25.0]
    for g in (0.4, 0.0):
        # w2 = 0: no pair creation, so vacuum stays vacuum
        V = covariances(1.0, 0.0, g, times)
        expect(f"vacuum at w2=0, g={g}", float(np.abs(V - VACUUM).max()), 1e-14)
    for o2 in (0.3, 0.6):
        # lossless: x'' = -L0^2 x with L0^2 = (w1-w2)(w1+w2), period 2 pi/L0
        period = 2.0 * math.pi / math.sqrt((1.0 - o2) * (1.0 + o2))
        E = propagators(1.0, o2, 0.0, [period])[0]
        V = covariances(1.0, o2, 0.0, [period], V0=np.diag([0.5, 0.5, 2.0, 0.125]))[0]
        expect(f"lossless return at w2={o2}", float(np.abs(E - np.eye(4)).max()), 1e-12)
        expect(f"lossless covariance return at w2={o2}",
               float(np.abs(V - np.diag([0.5, 0.5, 2.0, 0.125])).max()), 1e-12)
    for o2 in (0.3, 0.6):
        # damped and stable: V(t) tends to the Lyapunov steady state
        A = drift(1.0, o2, 0.4)
        steady = solve_continuous_lyapunov(A, -diffusion(0.4))
        V = covariances(1.0, o2, 0.4, [400.0])[0]
        expect(f"steady state at w2={o2}", float(np.abs(V - steady).max() / np.abs(steady).max()), 1e-12)
    return problems
