"""Closed-form observables: squeezed-thermal mode parameters, quadrature
variances, revival schedules, displacement trajectories and the lossless
pure-state solution.

Each reduced state of the damped two-mode solution is a squeezed thermal
state.  Its assembly weights are

    zeta = f g,   mu_c = q g^2,   nu_c = g^2,
    nu_v = (1 - f^2)/(q^2 - 1),   mu_v = -q nu_v,

and its quadratures are linear in them: Var X = nu + 1/2 + mu and
Var P = nu + 1/2 - mu.  One map, :func:`squeezed_thermal`, takes a pair of
variances to

     n_bar = sqrt(Var X Var P) - 1/2  and  xi = (1/4) ln(Var P / Var X),

which places the sign convention (xi_c <= 0, xi_v >= 0) automatically and
also serves equal coupling, where the mode-v weights are singular.

Array contract: :func:`assembly_weights`, :func:`squeezed_thermal`,
:func:`mode_spec`, :func:`quad_variances` and
:func:`displacement_trajectory` take a scalar t or an ndarray of times
through one body.  A scalar gives Python floats (complex for the
displacements); an array gives arrays of its shape.  The envelope parts
come from ``params._damped_parts``, the one place that branches on L^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import RegimeError, ValidityError
from .params import ArrayLike, CouplingParams, Regime, _damped_parts, _shaped, envelope

__all__ = [
    "ModeSpec",
    "RevivalSchedule",
    "QuadTuple",
    "LosslessSpec",
    "assembly_weights",
    "mode_spec",
    "squeezed_thermal",
    "steady_squeeze",
    "nbar_max",
    "revival_schedule",
    "quad_variances",
    "displacement_trajectory",
    "lossless_spec",
]

#: tolerated numerical slack below the exact lower bound 1/4 of the
#: variance product Var X Var P in the n_bar formula
_ROOT_SLACK = 1e-12


@dataclass(frozen=True)
class ModeSpec:
    """Squeezed-thermal description of one mode at one time (or elementwise
    over an array of times).

    ``zeta = f g`` is the entangling weight of the joint expansion; ``mu``
    and ``nu`` are the per-mode assembly weights the (n_bar, xi) pair is
    derived from.
    """

    mode: str  # "c" or "v"
    n_bar: ArrayLike
    xi: ArrayLike
    zeta: ArrayLike
    mu: ArrayLike
    nu: ArrayLike


@dataclass(frozen=True)
class RevivalSchedule:
    """Motion revival times tau_n and cavity revival times tau'_n <= horizon.

    Both lists are strictly increasing with exact spacing pi/L; the cavity
    list starts at tau'_0 = 0.
    """

    tau_motion: Tuple[float, ...]
    tau_cavity: Tuple[float, ...]
    horizon: float


@dataclass(frozen=True)
class QuadTuple:
    """Quadrature means and variances of both modes at one time (or
    elementwise over an array of times)."""

    var_xc: ArrayLike
    var_pc: ArrayLike
    var_xv: ArrayLike
    var_pv: ArrayLike
    mean_xc: ArrayLike = 0.0
    mean_pc: ArrayLike = 0.0
    mean_xv: ArrayLike = 0.0
    mean_pv: ArrayLike = 0.0


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


def _weights(params: CouplingParams, t: ArrayLike, mode: str):
    """(zeta, mu, nu) of one mode at time(s) t, as arrays of the shape of t.

    mu_c = q g^2 is written as omega1 omega2 s^2 (s = g/omega2), which stays
    finite as omega2 -> 0; nu_v = (1 - f^2)/(q^2 - 1) uses
    1/(q^2 - 1) = omega2^2 / L0^2, whose factored L0^2 does not cancel near
    q = 1.  Mode v needs omega1 != omega2.
    """
    f, s, _, one_minus_f2 = _damped_parts(params, t)
    o1, o2 = params.omega1, params.omega2
    g = o2 * s
    if mode == "c":
        mu, nu = o1 * s * g, g * g
    else:
        w = one_minus_f2 * o2 / params.lambda0_sq
        mu, nu = -o1 * w, o2 * w
    return f * g, mu, nu


def assembly_weights(params: CouplingParams, t: ArrayLike):
    """Return (zeta, (mu_c, nu_c), (mu_v, nu_v)) at time(s) t.

    Requires omega2 > 0 and omega1 != omega2 (the mode-v weights are
    singular at equal coupling).
    """
    if params.omega2 == 0:
        raise RegimeError("assembly weights need omega2 > 0")
    if params.regime is Regime.EQUAL_COUPLING:
        raise RegimeError("mode-v assembly weights are singular at equal coupling")
    zeta, mu_c, nu_c = (_shaped(x, t) for x in _weights(params, t, "c"))
    _, mu_v, nu_v = (_shaped(x, t) for x in _weights(params, t, "v"))
    return zeta, (mu_c, nu_c), (mu_v, nu_v)


def squeezed_thermal(var_x: ArrayLike, var_p: ArrayLike, params: CouplingParams,
                     t: ArrayLike, mode: str):
    """(n_bar, xi) of a squeezed thermal state from its quadrature variances.

    Inverts Var X = (n_bar + 1/2) e^{-2 xi}, Var P = (n_bar + 1/2) e^{2 xi}
    elementwise: n_bar = sqrt(Var X Var P) - 1/2 and
    xi = (1/4) ln(Var P / Var X).  Serves every regime, equal coupling
    included.  ``params``, ``t`` and ``mode`` name the point in errors: a
    non-finite or non-positive variance, or a product below 1/4 (up to
    numerical slack), raises ValidityError naming the parameter point and
    the first offending time rather than clamping.
    """
    var_x, var_p, t_b = np.broadcast_arrays(np.asarray(var_x, float), np.asarray(var_p, float),
                                            np.asarray(t, float))
    product = var_x * var_p
    bad = ~(np.isfinite(product) & (var_x > 0) & (var_p > 0) & (product >= 0.25 - _ROOT_SLACK))
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise ValidityError(
            f"squeezed-thermal map out of range: Var X = {var_x.flat[i]}, Var P = {var_p.flat[i]} "
            "(need finite, positive variances with product >= 1/4) at "
            f"(omega1={params.omega1}, omega2={params.omega2}, gamma={params.gamma}, "
            f"t={t_b.flat[i]}, mode={mode})"
        )
    n_bar = np.maximum(0.0, np.sqrt(product) - 0.5)
    xi = 0.25 * np.log(var_p / var_x)
    return _shaped(n_bar, t_b), _shaped(xi, t_b)


def mode_spec(params: CouplingParams, t: ArrayLike, mode: str) -> ModeSpec:
    """Squeezed-thermal parameters (n_bar, xi) of one mode at time(s) t.

    (n_bar, xi) follow from the weights through Var X = nu + 1/2 + mu and
    Var P = nu + 1/2 - mu (see :func:`squeezed_thermal`).  For
    omega2 == 0 the state stays vacuum and all fields are zero.  Mode "v"
    is rejected at equal coupling, where its weights are singular; apply
    :func:`squeezed_thermal` to :func:`quad_variances` there instead.
    """
    if mode not in ("c", "v"):
        raise ValueError(f"mode must be 'c' or 'v', got {mode!r}")
    if mode == "v" and params.regime is Regime.EQUAL_COUPLING:
        raise RegimeError(
            "mode-v squeezed-thermal weights are singular at equal coupling; "
            "use squeezed_thermal on the equal-coupling quad_variances"
        )
    zeta, mu, nu = _weights(params, t, mode)
    n_bar, xi = squeezed_thermal(nu + 0.5 + mu, nu + 0.5 - mu, params, t, mode)
    return ModeSpec(mode=mode, n_bar=n_bar, xi=xi, zeta=_shaped(zeta, t), mu=_shaped(mu, t),
                    nu=_shaped(nu, t))


def steady_squeeze(params: CouplingParams) -> float:
    """Steady-state squeeze parameter xi_bar = (1/2) ln((o1+o2)/|o1-o2|)."""
    if params.regime is Regime.EQUAL_COUPLING:
        raise RegimeError("steady squeeze diverges at equal coupling")
    o1, o2 = params.omega1, params.omega2
    return 0.5 * math.log((o1 + o2) / abs(o1 - o2))


def nbar_max(params: CouplingParams) -> float:
    """Upper bound on the thermal occupation of either mode (omega1 > omega2).

    Exact as a bound over the undamped envelope; attained on a time grid in
    the gamma -> 0 limit.
    """
    if params.omega2 >= params.omega1:
        raise RegimeError("nbar_max requires omega2 < omega1")
    r = params.omega2 / params.omega1
    return 0.5 * (1.0 / math.sqrt(1.0 - r * r) - 1.0)


def revival_schedule(params: CouplingParams, horizon: float) -> RevivalSchedule:
    """Revival times up to ``horizon`` in the oscillatory regime.

    tau_n = arccos(-(gamma/4)/sqrt(omega1^2 - omega2^2))/L + n pi/L with the
    arccos branch in [pi/2, pi);  tau'_n = n pi/L.  The base root tau_0 is
    polished with one Newton step on f (using f' = -(L0^2/L) sin(L t)
    e^{-gamma t/4}); the step must move it by less than 1e-9.
    """
    if params.regime is not Regime.OSCILLATORY:
        raise RegimeError(
            f"no revivals in the {params.regime.value} regime "
            "(requires omega1^2 > omega2^2 + gamma^2/16)"
        )
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    lam = math.sqrt(params.lambda_sq)
    spacing = math.pi / lam
    tau0 = math.acos(-(params.gamma / 4.0) / math.sqrt(params.lambda0_sq)) / lam

    env = envelope(params, tau0)
    fprime = -(params.lambda0_sq / lam) * math.sin(lam * tau0) * math.exp(-params.gamma * tau0 / 4.0)
    polished = tau0 - env.f / fprime
    if abs(polished - tau0) > 1e-9:
        raise ValidityError(
            f"Newton polish moved tau_0 by {abs(polished - tau0):.3e} (> 1e-9); "
            "closed-form root is inconsistent with the envelope"
        )
    tau0 = polished

    tau_motion = []
    n = 0
    while tau0 + n * spacing <= horizon:
        tau_motion.append(tau0 + n * spacing)
        n += 1
    tau_cavity = []
    n = 0
    while n * spacing <= horizon:
        tau_cavity.append(n * spacing)
        n += 1
    return RevivalSchedule(
        tau_motion=tuple(tau_motion), tau_cavity=tuple(tau_cavity), horizon=horizon
    )


def _equal_coupling_growth(omega: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """The growth term (16 omega^2/gamma^2)(gamma t/2 + e^{-gamma t/2} - 1).

    Evaluated with expm1 for small gamma t; the gamma -> 0 limit is
    2 omega^2 t^2.
    """
    if gamma == 0:
        return 2.0 * omega * omega * t * t
    x = gamma * t / 2.0
    return (16.0 * omega * omega / (gamma * gamma)) * (np.expm1(-x) + x)


def quad_variances(
    params: CouplingParams, t: ArrayLike, alpha: complex = 0j, beta: complex = 0j
) -> QuadTuple:
    """Quadrature variances and means of both modes at time(s) t.

    Variances do not depend on the coherent displacements (alpha, beta);
    the means are sqrt(2) Re/Im of the displacement trajectory (u, v).

    Generic branch (omega1 != omega2), with g = omega2 s:

        Var X_c = 1/2 + ((o1+o2)/o2) g^2     Var P_c = 1/2 - ((o1-o2)/o2) g^2
        Var X_v = 1/2 - (o2/(o1+o2))(1-f^2)  Var P_v = 1/2 + (o2/(o1-o2))(1-f^2)

    (the g^2/o2 terms are evaluated as o2 s^2, so omega2 = 0 gives the
    vacuum values 1/2).  At equal coupling Var P_c = Var X_v = 1/2 exactly,
    Var X_c = 1/2 + 2 g^2 and
    Var P_v = 1/2 + (16 O^2/gamma^2)(gamma t/2 + e^{-gamma t/2} - 1).
    The latter is the master-equation result; it is the equal-coupling
    limit of the generic Var P_v and is reproduced by the numerical
    integrator.
    """
    u, v = displacement_trajectory(params, alpha, beta, t)
    o1, o2 = params.omega1, params.omega2
    _, s, _, one_minus_f2 = _damped_parts(params, t)
    if params.regime is Regime.EQUAL_COUPLING:
        variances = (0.5 + 2.0 * (o2 * s) * (o2 * s), 0.5, 0.5,
                     0.5 + _equal_coupling_growth(o1, params.gamma, np.asarray(t, float)))
    else:
        variances = (
            0.5 + (o1 + o2) * o2 * s * s,
            0.5 - (o1 - o2) * o2 * s * s,
            0.5 - o2 / (o1 + o2) * one_minus_f2,
            0.5 + o2 / (o1 - o2) * one_minus_f2,
        )
    means = (math.sqrt(2.0) * x for x in (np.real(u), np.imag(u), np.real(v), np.imag(v)))
    return QuadTuple(*(_shaped(x, t) for x in (*variances, *means)))


def displacement_trajectory(
    params: CouplingParams, alpha: complex, beta: complex, t: ArrayLike
) -> Tuple[ArrayLike, ArrayLike]:
    """First-moment trajectory (u, v) = (<a>, <b>) for a coherent start.

        u = alpha h + (beta q + beta*) g
        v = (-alpha q + alpha*) g + beta f

    The (q g) products are evaluated as omega1 sin(L t) e^{-gamma t/4}/L,
    which stays finite in the omega2 -> 0 limit.  Complex scalars for a
    scalar t, complex arrays otherwise.
    """
    f, s, h, _ = _damped_parts(params, t)
    g = params.omega2 * s
    qg = params.omega1 * s
    alpha, beta = complex(alpha), complex(beta)
    u = alpha * h + (beta * qg + beta.conjugate() * g)
    v = (-alpha * qg + alpha.conjugate() * g) + beta * f
    return _shaped(u, t), _shaped(v, t)


def lossless_spec(
    params: CouplingParams, alpha: complex, beta: complex, t: float
) -> LosslessSpec:
    """Parameters of the exact pure-state solution when gamma = 0.

    Requires lambda0^2 = omega1^2 - omega2^2 > 0.  All quantities are
    periodic in t with period 2 pi/L0.
    """
    if params.gamma != 0:
        raise RegimeError("lossless solution requires gamma = 0")
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
