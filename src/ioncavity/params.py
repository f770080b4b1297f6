"""Coupling parameters, regime classification and the damped envelope functions.

Two laser-engineered couplings drive the ion-cavity system: a beam-splitter
rate omega1 and a two-mode-parametric rate omega2; the cavity loses energy
at rate gamma.  Every time dependence of the model is carried by three
scalar envelopes

    f(t) = (cos(L t) + (gamma/4L) sin(L t)) exp(-gamma t/4)
    g(t) = (omega2/L) sin(L t) exp(-gamma t/4)
    h(t) = (cos(L t) - (gamma/4L) sin(L t)) exp(-gamma t/4)

with L^2 = omega1^2 - omega2^2 - gamma^2/16.  All three satisfy
y'' + (gamma/2) y' + (omega1^2 - omega2^2) y = 0.

The branch on L^2 lives in one private helper, ``_damped_parts``, through
which every envelope of the package is evaluated:

* oscillatory (L^2 > 0): damped cos/sin with L = sqrt(L^2);
* overdamped (L^2 < 0, includes equal coupling with gamma > 0): cosh/sinh
  as sums of the real exponentials e+- = exp((+-|L| - gamma/4) t), so the
  values stay real and never overflow while decaying;
* degenerate (|L^2| at the double-precision noise floor): the L -> 0
  limit, e.g. f = (1 + gamma t/4) e^{-gamma t/4}.

Once exp(-gamma t/4) underflows, the exact steady-state values (0, 0, 0)
are returned.  The helper takes a scalar or an array of times; public
functions return Python floats for a scalar and arrays of the same shape
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "Regime",
    "LabParams",
    "CouplingParams",
    "EnvelopeValues",
    "classify_regime",
    "from_lab_params",
    "envelope",
    "sin_ratio",
]

#: relative threshold on |omega1 - omega2| below which the couplings are
#: treated as exactly equal (separate closed forms apply there)
EQUAL_COUPLING_RTOL = 1e-9

#: |L^2| <= DEGENERATE_ATOL * omega1^2 selects the L -> 0 limit branch;
#: chosen at the double-precision noise floor of the L^2 subtraction
DEGENERATE_ATOL = 1e-12

#: exp(-x) leaves the normal float range past this; decaying envelopes are
#: reported as exactly zero (the steady-state values) instead of denormals
_UNDERFLOW_EXPONENT = 708.0

ArrayLike = Union[float, np.ndarray]


class Regime(Enum):
    OSCILLATORY = "oscillatory"
    DEGENERATE = "degenerate"
    OVERDAMPED = "overdamped"
    EQUAL_COUPLING = "equal_coupling"


@dataclass(frozen=True)
class LabParams:
    """Laboratory parameters of the ion-laser-cavity setup.

    Attributes
    ----------
    eta_c : float
        Lamb-Dicke parameter of the cavity mode (dimensionless, > 0).
    g1, g2 : float
        Couplings of the ion to the two driving lasers (angular rates, >= 0).
    gc : float
        Ion-cavity coupling (angular rate, >= 0).
    delta : float
        Detuning between the electronic transition and the cavity (!= 0).
    """

    eta_c: float
    g1: float
    g2: float
    gc: float
    delta: float

    def __post_init__(self):
        if not self.eta_c > 0:
            raise ValueError(f"eta_c must be > 0, got {self.eta_c}")
        if self.delta == 0:
            raise ValueError("delta must be nonzero")
        for name in ("g1", "g2", "gc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class CouplingParams:
    """The three rates of the effective model plus derived quantities.

    ``q = omega1/omega2`` is stored as ``inf`` when omega2 == 0; operations
    that need a finite q must either reject that case or use the explicit
    omega2 -> 0 limit.
    """

    omega1: float
    omega2: float
    gamma: float
    q: float = field(init=False)
    lambda_sq: float = field(init=False)
    lambda0_sq: float = field(init=False)
    regime: Regime = field(init=False)

    def __post_init__(self):
        if not self.omega1 > 0:
            raise ValueError(f"omega1 must be > 0, got {self.omega1}")
        if self.omega2 < 0:
            raise ValueError(f"omega2 must be >= 0, got {self.omega2}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        o1, o2, g = self.omega1, self.omega2, self.gamma
        object.__setattr__(self, "q", o1 / o2 if o2 > 0 else math.inf)
        # factored difference of squares: exact to rounding near equal coupling
        lam0_sq = (o1 - o2) * (o1 + o2)
        lam_sq = lam0_sq - g * g / 16.0
        object.__setattr__(self, "lambda_sq", lam_sq)
        object.__setattr__(self, "lambda0_sq", lam0_sq)
        if abs(o1 - o2) <= EQUAL_COUPLING_RTOL * o1:
            regime = Regime.EQUAL_COUPLING
        elif lam_sq > DEGENERATE_ATOL * o1 * o1:
            regime = Regime.OSCILLATORY
        elif lam_sq < -DEGENERATE_ATOL * o1 * o1:
            regime = Regime.OVERDAMPED
        else:
            regime = Regime.DEGENERATE
        object.__setattr__(self, "regime", regime)


@dataclass(frozen=True)
class EnvelopeValues:
    """The envelope triple at one time (or elementwise over an array of times).

    At t = 0, (f, g, h) = (1, 0, 1), and for omega2 > 0 the triple obeys
    f h + (q^2 - 1) g^2 = exp(-gamma t / 2).
    """

    f: ArrayLike
    g: ArrayLike
    h: ArrayLike
    t: ArrayLike


def classify_regime(omega1: float, omega2: float, gamma: float) -> CouplingParams:
    """Build fully derived coupling parameters with the regime tag."""
    return CouplingParams(omega1=omega1, omega2=omega2, gamma=gamma)


def from_lab_params(lab: LabParams, gamma: float) -> CouplingParams:
    """Convert laboratory parameters to effective coupling rates.

    omega1 = eta_c g1 gc / |delta| and omega2 = eta_c g2 gc / |delta|; the
    cavity decay rate is not derived from the lab parameters and is passed
    through by the caller.
    """
    scale = lab.eta_c * lab.gc / abs(lab.delta)
    return classify_regime(scale * lab.g1, scale * lab.g2, gamma)


def _shaped(x, t):
    """``x`` over the shape of ``t``: a Python scalar for a scalar ``t``,
    otherwise an ndarray, with constants broadcast to the full shape."""
    shape = np.shape(t)
    if not shape:
        return np.asarray(x).item()
    return x if np.shape(x) == shape else np.full(shape, x)


def _damped_parts(params: CouplingParams, t: ArrayLike):
    """Return (f, s, h, 1 - f^2) as arrays of the shape of ``t >= 0``.

    s = sin(L t) e^{-gamma t/4} / L is the damped sine ratio (g = omega2 s).
    This is the one place that branches on L^2 (see the module docstring).
    Overdamped, the rate |L| - gamma/4 = -L0^2 / (|L| + gamma/4) and the
    weight 1 - r = 1 - gamma/(4|L|) = -4 L0^2 / (|L| (4|L| + gamma)) are
    formed from L0^2, so they do not cancel near equal coupling; f and h
    are e- plus a multiple of (e+ - e-), which keeps (1, 1) exact at t = 0.

    1 - f is formed directly, since 1 - f*f cancels wherever f ~ 1:
    -(1/2)(1 + r) expm1(-kappa t) - (1/2)(1 - r) expm1(-(|L| + gamma/4) t)
    with kappa = L0^2/(|L| + gamma/4) when overdamped, and
    -expm1(-gamma t/4) + e^{-gamma t/4} (2 sin^2(L t/2) - (gamma/4) sin(L t)/L)
    otherwise; then 1 - f^2 = (1 - f)(2 - (1 - f)).

    Scalars run as one-element arrays, so they take the same numpy kernels
    as arrays.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    shape = t.shape
    t = np.atleast_1d(t)
    o1, g = params.omega1, params.gamma
    lam_sq = params.lambda_sq

    if lam_sq < -DEGENERATE_ATOL * o1 * o1:
        lam = math.sqrt(-lam_sq)
        fast = lam + g / 4.0
        slow = params.lambda0_sq / fast
        em = np.exp(-fast * t)
        d = np.exp(-slow * t) - em
        one_plus_r = 1.0 + g / (4.0 * lam)
        one_minus_r = -4.0 * params.lambda0_sq / (lam * (4.0 * lam + g))
        f = em + 0.5 * one_plus_r * d
        s = d / (2.0 * lam)
        h = em + 0.5 * one_minus_r * d
        one_minus_f = -0.5 * one_plus_r * np.expm1(-slow * t) - 0.5 * one_minus_r * np.expm1(-fast * t)
    else:
        if lam_sq > DEGENERATE_ATOL * o1 * o1:
            lam = math.sqrt(lam_sq)
            c, s = np.cos(lam * t), np.sin(lam * t) / lam
            vers = 2.0 * np.sin(0.5 * lam * t) ** 2  # 1 - cos(L t) without cancellation
        else:
            c, s, vers = np.ones_like(t), t, np.zeros_like(t)
        damp = np.exp(-g * t / 4.0)
        f = (c + (g / 4.0) * s) * damp
        h = (c - (g / 4.0) * s) * damp
        one_minus_f = -np.expm1(-g * t / 4.0) + damp * (vers - (g / 4.0) * s)
        s = s * damp
        dead = g * t / 4.0 > _UNDERFLOW_EXPONENT
        f, s, h = (np.where(dead, 0.0, x) for x in (f, s, h))

    one_minus_f2 = one_minus_f * (2.0 - one_minus_f)
    return tuple(x.reshape(shape) for x in (f, s, h, one_minus_f2))


def envelope(params: CouplingParams, t: ArrayLike) -> EnvelopeValues:
    """Evaluate the envelope triple (f, g, h) at time(s) ``t >= 0``.

    Accepts a scalar or an array of times; the fields of the result are
    floats for a scalar and arrays of the same shape otherwise.  Values are
    always real; the branches are described in the module docstring.
    """
    f, s, h, _ = _damped_parts(params, t)
    return EnvelopeValues(f=_shaped(f, t), g=_shaped(params.omega2 * s, t), h=_shaped(h, t),
                          t=_shaped(np.asarray(t, dtype=float), t))


def sin_ratio(params: CouplingParams, t: ArrayLike) -> ArrayLike:
    """Damped sine ratio sin(L t) e^{-gamma t/4} / L across all branches.

    Equals g(t)/omega2 for omega2 > 0 and remains finite as omega2 -> 0;
    displacement trajectories use it to take the (omega1/omega2) g(t) terms
    to their analytic limit.
    """
    return _shaped(_damped_parts(params, t)[1], t)
