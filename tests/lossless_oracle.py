"""The paper's lossless pure-state solution, in its own variables.

The test oracle for ``ioncavity``'s closed forms at gamma = 0.  With
L0 = sqrt(omega1^2 - omega2^2) the paper writes the state as the
two-mode-squeezed vacuum in n_bar0 and xi0, displaced by (u0, v0), and
rotating every quarter period t_m = m pi/(2 L0) through the product states
psi_1 -> psi_2 -> psi_3 -> psi_4, where it is the coherent pair (alpha, beta),
then (alpha_bar, beta_bar) squeezed by -+xi_bar, and so on.  The library
serves gamma = 0 through the general forms (``mode_spec``,
``displacement_trajectory`` and ``lossless_ket``); these formulas are kept
here so that the tests can pin those forms against them.  They need
omega1 > omega2.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ioncavity.errors import RegimeError, ValidityError
from ioncavity.params import CouplingParams


@dataclass(frozen=True)
class LosslessSpec:
    """Parameters of the pure two-mode state when dissipation is absent.

    ``product_state`` is 1..4 when t coincides (to 1e-9 relative) with a
    disentangling time t_m = m pi/(2 L0), cycling psi_1 -> psi_2 -> psi_3 ->
    psi_4 for m = 0..3 mod 4; None otherwise.
    """

    n_bar0: float
    xi0: float
    u0: complex
    v0: complex
    alpha_bar: complex
    beta_bar: complex
    product_state: Optional[int] = None


def lossless_spec(
    params: CouplingParams, alpha: complex, beta: complex, t: float
) -> LosslessSpec:
    """Parameters of the exact pure-state solution when gamma = 0.

    Requires a finite lambda0^2 = omega1^2 - omega2^2 > 0.  All quantities are
    periodic in t with period 2 pi/L0.
    """
    if params.gamma != 0:
        raise RegimeError("lossless solution requires gamma = 0")
    if not math.isfinite(params.lambda0_sq):
        raise ValidityError(f"L0^2 = {params.lambda0_sq:g} is not finite at "
                            f"(omega1={params.omega1:g}, omega2={params.omega2:g}, gamma=0)")
    if params.lambda0_sq <= 0:
        raise RegimeError("lossless solution requires omega1 > omega2")
    o1, o2 = params.omega1, params.omega2
    lam0 = math.sqrt(params.lambda0_sq)
    alpha = complex(alpha)
    beta = complex(beta)
    alpha_bar = (np.conj(beta) * o2 + beta * o1) / lam0
    beta_bar = (np.conj(alpha) * o2 - alpha * o1) / lam0
    c2, s2 = math.cos(2 * lam0 * t), math.sin(2 * lam0 * t)
    n_bar0 = 0.5 * (math.sqrt(1.0 + (o2 * o2 / params.lambda0_sq) * s2 * s2) - 1.0)
    xi0 = 0.25 * math.log(((o1 + o2) * (o1 - o2 * c2)) / ((o1 - o2) * (o1 + o2 * c2)))
    c, s = math.cos(lam0 * t), math.sin(lam0 * t)
    u0 = alpha * c + alpha_bar * s
    v0 = beta * c + beta_bar * s

    product_state = None
    m_float = t * 2.0 * lam0 / math.pi
    m = round(m_float)
    if abs(m_float - m) <= 1e-9 * max(1.0, abs(m_float)):
        product_state = (m % 4) + 1
    return LosslessSpec(
        n_bar0=n_bar0,
        xi0=xi0,
        u0=complex(u0),
        v0=complex(v0),
        alpha_bar=complex(alpha_bar),
        beta_bar=complex(beta_bar),
        product_state=product_state,
    )
