"""The benchmark's three workloads: their inputs, operations and checks.

Each operation's ``run`` makes only calls into ``ioncavity`` and is timed;
its ``check`` compares what ``run`` returned with the Gaussian-moment
solution in ``moments`` or with properties that need no oracle, and is not
timed.  A check returns (quantity, error, tolerance) triples; an error above
its tolerance makes the run incorrect.  The program is reached only through
module attributes (``ic.cli.main``), so a traced run sees every call.

Tolerances are fixed from the arithmetic, not from today's output:
closed forms are checked at 1e-9 relative (the worst agreement seen is
3.7e-11, at w2 = 0.99999), and Fock-space densities at the tolerances the
program's own ``validate`` uses (1e-4 on moments, 1e-6 on fidelity
deficits), since their error is set by the basis truncation.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
import random
import re
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import moments

Check = List[Tuple[str, float, float]]

CLOSED_FORM_TOL = 1e-9
MOMENT_TOL = 1e-4
FID_DEFICIT_TOL = 1e-6
PURITY_TOL = 1e-6

# |alpha| and |beta| of the coherent starts; the seed draws their phases
ALPHA_ABS = 0.5
BETA_ABS = 0.3

SIMULATE_POINTS = [
    ("oscillatory", (1.0, 0.6, 0.4)),
    ("overdamped", (1.0, 0.6, 4.0)),
    ("degenerate", (1.0, 0.6, 3.2)),
    ("equal_coupling", (1.0, 1.0, 0.4)),
    ("lossless", (1.0, 0.6, 0.0)),
    ("omega2_zero", (1.0, 0.0, 0.4)),
    ("near_equal", (1.0, 0.99999, 2.0)),
    ("validate_drive", (1.0, 0.3, 0.4)),
]
#: the CLI's default time grid: t_max = 25 in steps of 0.01
SIMULATE_ROWS = 2501
SIMULATE_STEP = 0.01
SIMULATE_HEADER = "t,var_xc,var_pc,var_xv,var_pv,nbar_c,nbar_v,xi_c,xi_v,f,g,h"

# lossless, the CLI default and overdamped; each sweep crosses equal coupling
SWEEP_GAMMAS = [0.0, 0.4, 4.0]
SWEEP_TIMES = [k / 5 for k in range(1, 51)]  # 0.2, 0.4, ..., 10
SWEEP_RATIOS = [k / 100 for k in range(10, 151)]  # the CLI's fixed grid

REVIVAL_POINTS = [(1.0, 0.6, 0.4), (1.0, 0.3, 0.4), (1.0, 0.6, 0.0)]
REVIVAL_HORIZON = 1000.0

VALIDATE_OMEGA2 = 0.3
VALIDATE_DIM = 16  # default_dim at w2/w1 = 0.3
VALIDATE_TIMES = [0.5, 1.0, 2.0]
VALIDATE_DT = 5e-3
VALIDATE_GAMMAS = [("lossy", 0.4), ("lossless", 0.0)]

JOINT_POINTS = [((1.0, 0.3, 0.4), 16), ((1.0, 0.5, 0.4), 26), ((1.0, 0.5, 0.0), 26)]
JOINT_TIMES = [0.5, 1.0, 2.0, 4.0]


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` judges its result."""

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Check]
    rows: int = 0


@dataclass
class Workload:
    ops: List[Op]
    #: checks made once per run, before timing
    prechecks: Check = field(default_factory=list)
    #: scale the operations' times by the host-speed probe (see ``hostspeed``)
    probe: bool = False


def coherent_amplitudes(seed: int) -> Tuple[complex, complex]:
    """alpha and beta with fixed moduli and phases drawn from ``seed``."""
    rng = random.Random(seed)
    return (
        cmath.rect(ALPHA_ABS, rng.uniform(0.0, 2.0 * math.pi)),
        cmath.rect(BETA_ABS, rng.uniform(0.0, 2.0 * math.pi)),
    )


def _flag(x: float) -> str:
    return repr(float(x))


def _point_flags(point: Sequence[float]) -> List[str]:
    o1, o2, g = point
    return ["--omega1", _flag(o1), "--omega2", _flag(o2), "--gamma", _flag(g)]


def _rel(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / scale))


def _flagged(ok: bool) -> float:
    """Error of a yes/no check: 0 when it holds, inf otherwise."""
    return 0.0 if ok else math.inf


def _cli(ic: SimpleNamespace, argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = ic.cli.main(argv)
    return rc, out.getvalue()


# --------------------------------------------------------------------------
# closed_form: params, observables and the per-row loop of cli


def _simulate_op(ic, label: str, point, alpha: complex, beta: complex, path: str) -> Op:
    o1, o2, g = point
    argv = ["simulate", *_point_flags(point),
            "--alpha_re", _flag(alpha.real), "--alpha_im", _flag(alpha.imag),
            "--beta_re", _flag(beta.real), "--beta_im", _flag(beta.imag),
            "--out_path", path]
    times = np.arange(SIMULATE_ROWS) * SIMULATE_STEP
    E = moments.propagators(o1, o2, g, times)
    V = moments.covariances(o1, o2, g, times)
    var = np.stack([V[:, k, k] for k in range(4)], axis=1)
    nbar_c, xi_c = moments.mode_parameters(var[:, 0], var[:, 1])
    nbar_v, xi_v = moments.mode_parameters(var[:, 2], var[:, 3])
    f, gg, h = moments.envelopes(o1, o2, E)
    env_scale = np.abs(E).max(axis=(1, 2))

    def run():
        return ic.cli.main(argv)

    def check(rc) -> Check:
        if rc != 0:
            return [("exit code", _flagged(False), 0.0)]
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if header != SIMULATE_HEADER or data.shape != (SIMULATE_ROWS, 12):
            return [("csv layout", _flagged(False), 0.0)]
        tol = CLOSED_FORM_TOL
        return [
            ("t", _rel(data[:, 0], times, 1.0), 1e-12),
            ("var", _rel(data[:, 1:5], var, var), tol),
            ("nbar", max(_rel(data[:, 5], nbar_c, nbar_c + 0.5),
                         _rel(data[:, 6], nbar_v, nbar_v + 0.5)), tol),
            ("xi", max(_rel(data[:, 7], xi_c, 1.0), _rel(data[:, 8], xi_v, 1.0)), tol),
            ("fgh", max(_rel(data[:, 9], f, env_scale), _rel(data[:, 10], gg, env_scale),
                        _rel(data[:, 11], h, env_scale)), tol),
        ]

    return Op(name=f"simulate[{label}]", kind="simulate", run=run, check=check,
              rows=SIMULATE_ROWS)


def _sweep_op(ic, gamma: float, path: str) -> Op:
    argv = ["sweep-ratio", "--gamma", _flag(gamma),
            "--times", ",".join(_flag(t) for t in SWEEP_TIMES), "--out_path", path]
    expected = np.array(
        [moments.covariances(1.0, r, gamma, SWEEP_TIMES)[:, 2, 2] for r in SWEEP_RATIOS]
    )
    header = "ratio," + ",".join(f"var_xv_t{t:g}" for t in SWEEP_TIMES)

    def run():
        return ic.cli.main(argv)

    def check(rc) -> Check:
        if rc != 0:
            return [("exit code", _flagged(False), 0.0)]
        with open(path, encoding="utf-8") as fh:
            got_header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if got_header != header or data.shape != (len(SWEEP_RATIOS), len(SWEEP_TIMES) + 1):
            return [("csv layout", _flagged(False), 0.0)]
        return [
            ("ratio", _rel(data[:, 0], SWEEP_RATIOS, 1.0), 1e-15),
            ("var_xv", _rel(data[:, 1:], expected, expected), CLOSED_FORM_TOL),
        ]

    return Op(name=f"sweep-ratio[gamma={gamma:g}]", kind="sweep-ratio", run=run, check=check)


_REVIVAL_LINE = re.compile(r"^(motion|cavity)\s+(\d+)\s+(\S+)\s+(\S+)$")


def _revivals_op(ic, point) -> Op:
    o1, o2, g = point
    argv = ["revivals", *_point_flags(point), "--t_max", _flag(REVIVAL_HORIZON)]
    # the oscillation frequency L is the imaginary part of A's eigenvalues
    lam = float(np.abs(np.linalg.eigvals(moments.drift(o1, o2, g)).imag).max())
    spacing = math.pi / lam

    def run():
        return _cli(ic, argv)

    def check(result) -> Check:
        rc, text = result
        if rc != 0:
            return [("exit code", _flagged(False), 0.0)]
        listed: Dict[str, List[float]] = {"motion": [], "cavity": []}
        for line in text.splitlines():
            m = _REVIVAL_LINE.match(line.strip())
            if m:
                kind, n = m.group(1), int(m.group(2))
                if n != len(listed[kind]):
                    return [("revival numbering", _flagged(False), 0.0)]
                listed[kind].append(float(m.group(3)))
        out: Check = []
        for kind, col in (("motion", 2), ("cavity", 0)):
            tau = np.array(listed[kind])
            if tau.size == 0:
                return [(f"{kind} revivals listed", _flagged(False), 0.0)]
            # complete: first revival within one spacing of 0, the next
            # one after the last lies beyond the horizon
            first_ok = 0.0 <= tau[0] < spacing and (kind == "motion" or tau[0] == 0.0)
            out.append((f"{kind} revivals complete",
                        _flagged(first_ok and tau[-1] <= REVIVAL_HORIZON < tau[-1] + spacing), 0.0))
            if tau.size > 1:
                out.append((f"{kind} spacing", _rel(np.diff(tau), spacing, spacing), CLOSED_FORM_TOL))
            # oracle: f vanishes at tau_n, g at tau'_n (g = E[0,2] w2/(w1+w2))
            E = moments.propagators(o1, o2, g, tau)
            out.append((f"{kind} zero", _rel(E[:, col, 2], 0.0, np.abs(E).max(axis=(1, 2))),
                        CLOSED_FORM_TOL))
        return out

    return Op(name=f"revivals[{o1:g},{o2:g},{g:g}]", kind="revivals", run=run, check=check)


def closed_form(ic: SimpleNamespace, seed: int, workdir: str) -> Workload:
    alpha, beta = coherent_amplitudes(seed)
    ops = [
        _simulate_op(ic, label, point, alpha, beta, os.path.join(workdir, f"simulate-{label}.csv"))
        for label, point in SIMULATE_POINTS
    ]
    ops.extend(_sweep_op(ic, gamma, os.path.join(workdir, f"sweep-ratio-{gamma:g}.csv"))
               for gamma in SWEEP_GAMMAS)
    ops.extend(_revivals_op(ic, point) for point in REVIVAL_POINTS)
    # interpreter-bound throughout, so its times follow the probe
    return Workload(ops=ops, probe=True)


# --------------------------------------------------------------------------
# validate: the Lindblad integrator behind the validate subcommand

_VALIDATE_LINE = re.compile(r"^t=\S+ .*: (\S+) \(tol (\S+)\) (ok|FAIL)$")


def _validate_op(ic, label: str, gamma: float) -> Op:
    argv = ["validate", "--omega1", "1.0", "--omega2", _flag(VALIDATE_OMEGA2),
            "--gamma", _flag(gamma), "--nc", str(VALIDATE_DIM), "--nv", str(VALIDATE_DIM),
            "--times", ",".join(f"{t:g}" for t in VALIDATE_TIMES), "--dt_int", _flag(VALIDATE_DT)]
    # per checkpoint: joint trace distance, two fidelity deficits, quadrature
    # delta; plus the lossless fidelity deficit when gamma = 0
    expected_lines = len(VALIDATE_TIMES) * (4 + (gamma == 0))

    def run():
        return _cli(ic, argv)

    def check(result) -> Check:
        rc, text = result
        lines = text.strip().splitlines()
        matches = [_VALIDATE_LINE.match(line) for line in lines[:-1]]
        layout_ok = (
            rc == 0 and len(matches) == expected_lines and all(matches)
            and lines[-1] == "all validation checks passed"
        )
        if not layout_ok:
            return [("validate report", _flagged(False), 0.0)]
        worst = max(float(m.group(1)) / float(m.group(2)) for m in matches)
        return [
            ("every check ok", _flagged(all(m.group(3) == "ok" for m in matches)), 0.0),
            ("value/tol", worst, 1.0),
        ]

    return Op(name=f"validate[{label}]", kind="validate", run=run, check=check)


def validate(ic: SimpleNamespace, seed: int, workdir: str) -> Workload:
    prechecks: Check = []
    for _, gamma in VALIDATE_GAMMAS:
        params = ic.params.classify_regime(1.0, VALIDATE_OMEGA2, gamma)
        V = moments.covariances(1.0, VALIDATE_OMEGA2, gamma, VALIDATE_TIMES)
        for t, Vt in zip(VALIDATE_TIMES, V):
            q = ic.observables.quad_variances(params, t)
            got = np.array([q.var_xc, q.var_pc, q.var_xv, q.var_pv])
            prechecks.append((f"closed-form variances, gamma={gamma:g}, t={t:g}",
                              _rel(got, np.diag(Vt), np.diag(Vt)), CLOSED_FORM_TOL))
    ops = [_validate_op(ic, label, gamma) for label, gamma in VALIDATE_GAMMAS]
    return Workload(ops=ops, prechecks=prechecks)


# --------------------------------------------------------------------------
# joint_density: the R/Q operator series of fock


def _mode_moments(rho: np.ndarray) -> np.ndarray:
    """(<x>, <p>, Var x, Var p) of a single-mode density matrix."""
    N = rho.shape[0]
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1)
    x = (a + a.T) / math.sqrt(2.0)
    p = (a - a.T) / (1j * math.sqrt(2.0))
    mx = np.trace(rho @ x).real
    mp = np.trace(rho @ p).real
    return np.array([mx, mp, np.trace(rho @ x @ x).real - mx * mx,
                     np.trace(rho @ p @ p).real - mp * mp])


def _joint_op(ic, point, N: int, t: float, start: str, alpha: complex, beta: complex) -> Op:
    o1, o2, g = point
    fock = ic.fock
    params = ic.params.classify_regime(o1, o2, g)
    budget = fock.AssemblyBudget(dims=(N, N))
    E = moments.propagators(o1, o2, g, [t])[0]
    V = moments.covariances(o1, o2, g, [t])[0]
    means = E @ moments.coherent_means(alpha, beta)
    # (<x>, <p>, Var x, Var p) of the cavity, then of the motion
    expected = np.array([means[0], means[1], V[0, 0], V[1, 1],
                         means[2], means[3], V[2, 2], V[3, 3]])

    def run():
        rho = fock.assemble_joint_density(params, t, alpha, beta, budget)
        rho.validate()
        out = {"rho": rho, "quad": fock.quad_stats(rho)}
        for mode in ("c", "v"):
            reduced = fock.reduced_density(params, t, mode, alpha, beta, N)
            traced = fock.partial_trace(rho, mode)
            out[mode] = (traced, fock.state_metrics(reduced, traced))
        return out

    def check(out) -> Check:
        r4 = out["rho"].entries.reshape(N, N, N, N)
        own = {"c": np.einsum("ijkj->ik", r4), "v": np.einsum("ijil->jl", r4)}
        measured = np.concatenate([_mode_moments(own["c"]), _mode_moments(own["v"])])
        q = out["quad"]
        reported = np.array([q.mean_xc, q.mean_pc, q.var_xc, q.var_pc,
                             q.mean_xv, q.mean_pv, q.var_xv, q.var_pv])
        result = [
            ("density moments", _rel(measured, expected, 1.0), MOMENT_TOL),
            ("quad_stats", _rel(reported, expected, 1.0), MOMENT_TOL),
            ("partial-trace fidelity deficit",
             max(1.0 - out[m][1].fidelity for m in ("c", "v")), FID_DEFICIT_TOL),
        ]
        for mode in ("c", "v"):
            result.append((f"partial_trace {mode}", _rel(out[mode][0].entries, own[mode], 1.0), 1e-12))
        if g == 0:
            rho = out["rho"].entries
            result.append(("purity", abs(1.0 - float(np.vdot(rho, rho).real)), PURITY_TOL))
        return result

    return Op(name=f"joint[{o2:g},{g:g},N={N},t={t:g},{start}]", kind="joint", run=run, check=check)


def joint_density(ic: SimpleNamespace, seed: int, workdir: str) -> Workload:
    alpha, beta = coherent_amplitudes(seed)
    ops = [
        _joint_op(ic, point, N, t, start, a, b)
        for point, N in JOINT_POINTS
        for t in JOINT_TIMES
        for start, a, b in (("vacuum", 0j, 0j), ("coherent", alpha, beta))
    ]
    return Workload(ops=ops)


WORKLOADS = {"closed_form": closed_form, "validate": validate, "joint_density": joint_density}
