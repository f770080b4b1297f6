"""Closed-form observables: squeezed-thermal mode parameters, quadrature
variances, revival schedules and displacement trajectories.  gamma = 0 is
served by the same forms as every other coupling.

Each reduced state of the damped two-mode solution is a squeezed thermal
state, fixed by its quadrature variances.  With s = g/omega2 and
w = (1 - f^2)/L0^2 from ``params._damped_parts``, in every regime

    Var X_c = 1/2 + (o1+o2) o2 s^2    Var P_c = 1/2 - (o1-o2) o2 s^2
    Var X_v = 1/2 - (o1-o2) o2 w      Var P_v = 1/2 + (o1+o2) o2 w

(:func:`quad_variances`); w is smooth through equal coupling, so one set of
forms serves every regime.  One map, :func:`squeezed_thermal`, takes a pair
of variances to

     n_bar = sqrt(Var X Var P) - 1/2  and  xi = (1/4) ln(Var P / Var X),

which places the sign convention (xi_c <= 0, xi_v >= 0) automatically;
:func:`mode_spec` is that map of :func:`quad_variances`, with the entangling
weight zeta = f g of the joint expansion.

Array contract: :func:`squeezed_thermal`, :func:`mode_spec`,
:func:`quad_variances` and :func:`displacement_trajectory` take a scalar t
or an ndarray of times through one body.  A scalar gives Python floats
(complex for the displacements); an array gives arrays of its shape.
:func:`quad_variances` also takes a sequence of R CouplingParams, and each
field then gains a leading axis of length R.  The envelope parts come from
``params._damped_parts``, the one place that branches on L^2, once per state:
``_state`` maps one evaluation to each named mode's ModeSpec and (u, v) for
:func:`mode_spec`, :func:`displacement_trajectory` and fock's builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import RegimeError, ValidityError
from .params import ArrayLike, CouplingParams, Regime, _damped_parts, _rates, _shaped, envelope

__all__ = [
    "ModeSpec",
    "RevivalSchedule",
    "QuadTuple",
    "mode_spec",
    "squeezed_thermal",
    "steady_squeeze",
    "nbar_max",
    "revival_schedule",
    "quad_variances",
    "displacement_trajectory",
]

#: tolerated numerical slack below the exact lower bound 1/4 of the
#: variance product Var X Var P in the n_bar formula
_ROOT_SLACK = 1e-12


@dataclass(frozen=True)
class ModeSpec:
    """Squeezed-thermal description of one mode at one time (or elementwise
    over an array of times).

    ``zeta = f g`` is the entangling weight of the joint expansion.
    """

    n_bar: ArrayLike
    xi: ArrayLike
    zeta: ArrayLike


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


def squeezed_thermal(var_x: ArrayLike, var_p: ArrayLike, params: CouplingParams,
                     t: ArrayLike, mode: str):
    """(n_bar, xi) of a squeezed thermal state from its quadrature variances.

    Inverts Var X = (n_bar + 1/2) e^{-2 xi}, Var P = (n_bar + 1/2) e^{2 xi}
    elementwise: n_bar = sqrt(Var X Var P) - 1/2 and
    xi = (1/4) ln(Var P / Var X).  ``params``, ``t`` and ``mode`` name the
    point in errors: a non-finite or non-positive variance, or a product
    below 1/4 (up to numerical slack), raises ValidityError naming the
    parameter point and the first offending time rather than clamping.
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

    (n_bar, xi) are :func:`squeezed_thermal` of the mode's variances, the
    forms of :func:`quad_variances`, and zeta = f g; all three come from one
    ``_damped_parts`` evaluation.  Serves every regime; for omega2 = 0 the
    state stays vacuum and all fields are zero.
    """
    return _state(params, t, 0j, 0j, (mode,))[0]


def _state(params: CouplingParams, t: ArrayLike, alpha: complex, beta: complex, modes) -> Tuple:
    """The ModeSpec of each of ``modes`` ('c' or 'v'), then (u, v), from one ``_damped_parts``
    evaluation; only the modes named are mapped, so a refusal names one of them."""
    if bad := [mode for mode in modes if mode not in ("c", "v")]:
        raise ValueError(f"mode must be 'c' or 'v', got {bad[0]!r}")
    f, s, h, w = _damped_parts(params, t)
    specs = []
    for mode in modes:  # variances per mode, so (u, v) alone forms none that could overflow
        variances = _variances(params.omega1, params.omega2, s, w)
        n_bar, xi = squeezed_thermal(*(variances[:2] if mode == "c" else variances[2:]), params, t, mode)
        specs.append(ModeSpec(n_bar=n_bar, xi=xi, zeta=_shaped(f * (params.omega2 * s), t)))
    u, v = _displacements(params.omega1, params.omega2, alpha, beta, f, s, h)
    return (*specs, _shaped(u, t), _shaped(v, t))


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
    e^{-gamma t/4}); the step must move it by less than 1e-9.  Each list is
    first + n pi/L over an array of n, kept where it is <= ``horizon``, which
    must be finite and >= 0.
    """
    if params.regime is not Regime.OSCILLATORY:
        raise RegimeError(
            f"no revivals in the {params.regime.value} regime "
            "(requires omega1^2 > omega2^2 + gamma^2/16)"
        )
    if not 0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and >= 0")
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

    def upto(first: float) -> Tuple[float, ...]:
        # n runs one past floor((horizon - first)/spacing), so a rounded quotient drops no element
        taus = first + np.arange(math.floor((horizon - first) / spacing) + 2) * spacing
        return tuple(taus[taus <= horizon].tolist())

    return RevivalSchedule(tau_motion=upto(tau0), tau_cavity=upto(0.0), horizon=horizon)


def quad_variances(
    params: Union[CouplingParams, Sequence[CouplingParams]], t: ArrayLike,
    alpha: complex = 0j, beta: complex = 0j,
) -> QuadTuple:
    """Quadrature variances and means of both modes at time(s) t.

    Variances do not depend on the coherent displacements (alpha, beta);
    the means are sqrt(2) Re/Im of the displacement trajectory (u, v).  The
    variances are the module's closed forms in s and w; omega2 = 0 gives
    the vacuum values 1/2, and at equal coupling Var P_c = Var X_v = 1/2
    exactly.  Means and variances come from one ``_damped_parts``
    evaluation, also over a sequence of R CouplingParams (fields (R, *t.shape)),
    which is read once: any iterable of CouplingParams serves.
    """
    rates = _rates(params, np.ndim(t))
    f, s, h, w = _damped_parts(params, t, rates)
    o1, o2 = rates[:2]
    u, v = _displacements(o1, o2, alpha, beta, f, s, h)
    variances = _variances(o1, o2, s, w)
    means = (math.sqrt(2.0) * x for x in (np.real(u), np.imag(u), np.real(v), np.imag(v)))
    return QuadTuple(*(_shaped(x, f) for x in (*variances, *means)))


def _variances(o1, o2, s, w) -> Tuple:
    """(Var X_c, Var P_c, Var X_v, Var P_v) from the rates and the envelope parts s and w."""
    return (
        0.5 + (o1 + o2) * o2 * s * s,
        0.5 - (o1 - o2) * o2 * s * s,
        0.5 - (o1 - o2) * o2 * w,
        0.5 + (o1 + o2) * o2 * w,
    )


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
    return _state(params, t, alpha, beta, ())


def _displacements(o1, o2, alpha: complex, beta: complex, f, s, h) -> Tuple:
    """(u, v) of :func:`displacement_trajectory` from the rates and the envelope parts f, s and h."""
    g = o2 * s
    qg = o1 * s
    alpha, beta = complex(alpha), complex(beta)
    u = alpha * h + (beta * qg + beta.conjugate() * g)
    v = (-alpha * qg + alpha.conjugate() * g) + beta * f
    return u, v
