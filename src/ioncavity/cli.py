"""Command-line front end.

Four subcommands: ``simulate`` (time-series CSV of variances, mode
parameters and envelopes), ``revivals`` (revival-time report), ``validate``
(analytic-vs-propagator cross-check suite) and ``sweep-ratio`` (vibrational
X-variance versus omega2/omega1).

Rates from the command line or config file are normalized internally so
that omega1 = 1; all times are then in units of omega1 t.  Config files are
flat JSON objects whose keys are the RunConfig field names; command-line
flags override file values.  CSV output is UTF-8 with LF line endings and
15 significant digits, written to a temporary file and renamed on success
so no partial files are left behind; the file gets the mode a plain open()
would give: an existing file keeps its own, a new one 0666 less the umask.

The subcommands hold no physics.  ``simulate`` makes one ``quad_variances``
and one ``envelope`` call over its whole time grid and maps both modes'
variances to (n_bar, xi) with ``squeezed_thermal``; ``sweep-ratio`` makes one
call per ratio over all its times; ``revivals`` one ``envelope`` call per
revival list.  Only ``validate`` loops over its checkpoints: one propagator
run serves them all, and at each one it prints a line per check.  A formula
validity guard tripped inside a check (a non-PSD assembled density, say), or
a series the assembly refuses to sum, is that check's ``FAIL`` line, naming
the guard's value or the refusal, and the other checks still run (exit 1).

Only ``validate`` loads scipy: ``fock`` imports scipy.linalg and ``lindblad``
scipy.sparse where they are first called, so ``simulate``, ``sweep-ratio``
and ``revivals`` start on numpy and the standard library alone.

Exit codes: 0 success; 1 validation tolerance breach or propagator failure;
2 invalid configuration; 3 formula-validity guard tripped; 4 no revivals in
this regime.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import stat
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    IntegrationError,
    IonCavityError,
    RegimeError,
    TruncationError,
    ValidityError,
)
from .fock import (
    AssemblyBudget,
    FockDensity,
    assemble_joint_density,
    displacement_op,
    lossless_ket,
    partial_trace,
    quad_stats,
    reduced_density,
    state_metrics,
    trace_distance,
)
from .lindblad import evolve_trajectory
from .observables import QuadTuple, quad_variances, revival_schedule, squeezed_thermal
from .params import CouplingParams, classify_regime, envelope

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_VALIDITY = 3
EXIT_NO_REVIVALS = 4

#: validate refuses joint dimensions beyond desk scale
MAX_VALIDATE_DIM = 1024

#: simulate and revivals refuse time grids and revival lists beyond desk scale
MAX_SIMULATE_ROWS = 10**6

#: validate's default drive omega2/omega1, under any config file and flags
VALIDATE_OMEGA2 = 0.3

#: cross-check tolerances of cmd_validate
TD_TOL = 1e-4
FID_DEFICIT_TOL = 1e-6
QUAD_TOL = 1e-4

CSV_HEADER = "t,var_xc,var_pc,var_xv,var_pv,nbar_c,nbar_v,xi_c,xi_v,f,g,h"


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; field names double as config keys and flags.

    Every float field must be finite (``check``).

    ``dt_int`` is accepted and must be > 0, but has no effect: ``validate``
    propagates with the exact exp(L t), which takes no step size.  It stays
    only so that existing scripts and config files that set it keep
    working (the benchmark's ``validate`` workload passes ``--dt_int``), and
    goes once they drop it.
    """

    omega1: float = 1.0
    omega2: float = 0.6
    gamma: float = 0.4
    alpha_re: float = 0.0
    alpha_im: float = 0.0
    beta_re: float = 0.0
    beta_im: float = 0.0
    nc: int = 15
    nv: int = 15
    t_max: float = 25.0
    t_step: float = 0.01
    dt_int: float = 1e-3
    series_tol: float = 1e-12
    out_path: Optional[str] = None

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)

    @property
    def beta(self) -> complex:
        return complex(self.beta_re, self.beta_im)

    def normalized(self) -> "RunConfig":
        """Rescale rates to omega1 = 1 (times are already omega1-units)."""
        if not self.omega1 > 0:
            raise ConfigError(f"omega1 must be > 0, got {self.omega1}")
        o1 = self.omega1
        return replace(self, omega1=1.0, omega2=self.omega2 / o1, gamma=self.gamma / o1)

    def params(self) -> CouplingParams:
        try:
            return classify_regime(self.omega1, self.omega2, self.gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def check(self) -> None:
        bad = [f.name for f in fields(self)
               if isinstance(v := getattr(self, f.name), float) and not math.isfinite(v)]
        if bad:
            raise ConfigError(f"non-finite values: {', '.join(bad)}")
        if self.nc < 2 or self.nv < 2:
            raise ConfigError("nc and nv must be >= 2")
        if not (self.t_max >= 0 and self.t_step > 0):
            raise ConfigError("need t_max >= 0 and t_step > 0")
        if not self.dt_int > 0:
            raise ConfigError("dt_int must be > 0")
        if not self.series_tol > 0:
            raise ConfigError("series_tol must be > 0")
        self.params()


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    # mkstemp makes the file 0600; give it the mode open(path, "w") would: an
    # existing file's own, else 0666 less the umask
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: str, table: np.ndarray) -> None:
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.15g", delimiter=",", header=header, comments="")
    _write_atomic(path, buf.getvalue())


#: the JSON values a config file may give each RunConfig field type (never a bool)
_FILE_TYPES = {"int": int, "float": (int, float), "Optional[str]": (str, type(None))}


def _load_config(args: argparse.Namespace) -> RunConfig:
    # each layer over the last: field defaults, validate's drive, the config file, the flags
    values = {"omega2": VALIDATE_OMEGA2} if getattr(args, "command", None) == "validate" else {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a flat JSON object")
        kinds = {f.name: _FILE_TYPES[f.type] for f in fields(RunConfig)}
        unknown = set(raw) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        mistyped = [k for k, v in raw.items() if isinstance(v, bool) or not isinstance(v, kinds[k])]
        if mistyped:
            raise ConfigError(f"config values of the wrong type: {', '.join(sorted(mistyped))}")
        values.update(raw)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.check()
    return cfg


def cmd_simulate(cfg: RunConfig) -> int:
    if not cfg.out_path:
        raise ConfigError("simulate needs out_path (--out_path or config key)")
    steps = cfg.t_max / cfg.t_step + 1e-9  # inf once t_step is tiny enough
    if not steps < MAX_SIMULATE_ROWS:
        raise ConfigError(f"simulate needs t_max/t_step < {MAX_SIMULATE_ROWS}, got {steps:.6g}")
    params = cfg.params()
    t = np.arange(math.floor(steps) + 1) * cfg.t_step
    qv = quad_variances(params, t, cfg.alpha, cfg.beta)
    env = envelope(params, t)
    nb_c, xi_c = squeezed_thermal(qv.var_xc, qv.var_pc, params, t, "c")
    nb_v, xi_v = squeezed_thermal(qv.var_xv, qv.var_pv, params, t, "v")
    columns = [t, qv.var_xc, qv.var_pc, qv.var_xv, qv.var_pv,
               nb_c, nb_v, xi_c, xi_v, env.f, env.g, env.h]
    _write_csv(cfg.out_path, CSV_HEADER, np.column_stack(columns))
    return EXIT_OK


def cmd_revivals(cfg: RunConfig, stream=None) -> int:
    stream = stream or sys.stdout
    params = cfg.params()
    lam = math.sqrt(max(params.lambda_sq, 0.0))  # lambda_sq > 0 wherever revival_schedule runs
    rows = cfg.t_max * lam / math.pi  # about the length of each revival list
    if rows > MAX_SIMULATE_ROWS:
        raise ConfigError(f"revivals needs t_max*Lambda/pi <= {MAX_SIMULATE_ROWS}, got {rows:.6g}")
    schedule = revival_schedule(params, cfg.t_max)
    print(f"# revival schedule up to t = {_fmt(cfg.t_max)} (spacing pi/Lambda = {_fmt(math.pi / lam)})",
          file=stream)
    print("# kind  n  time  residual", file=stream)
    for kind, taus, residuals in (
        ("motion", schedule.tau_motion, envelope(params, schedule.tau_motion).f),
        ("cavity", schedule.tau_cavity, envelope(params, schedule.tau_cavity).g),
    ):
        for n, (tau, res) in enumerate(zip(taus, np.abs(residuals))):
            print(f"{kind}  {n}  {_fmt(tau)}  {res:.3e}", file=stream)
    return EXIT_OK


def _coherent_joint(alpha: complex, beta: complex, nc: int, nv: int) -> FockDensity:
    psi = np.kron(displacement_op(alpha, nc)[:, 0], displacement_op(beta, nv)[:, 0])
    return FockDensity(entries=np.outer(psi, psi.conj()), dims=(nc, nv))


def _pure_state_deficit(psi: np.ndarray, rho: np.ndarray) -> float:
    """1 - F, F = <psi|rho|psi> / (||psi||^2 tr rho): the Uhlmann fidelity with a
    pure state, clipped at 1 as ``state_metrics`` clips."""
    fid = np.vdot(psi, rho @ psi).real / (np.vdot(psi, psi).real * np.trace(rho).real)
    return 1.0 - min(float(fid), 1.0)


def _variance_delta(q: QuadTuple, r: QuadTuple) -> float:
    """Largest difference between the four variances of two QuadTuples."""
    return max(abs(q.var_xc - r.var_xc), abs(q.var_pc - r.var_pc),
               abs(q.var_xv - r.var_xv), abs(q.var_pv - r.var_pv))


def cmd_validate(cfg: RunConfig, times: Sequence[float], stream=None) -> int:
    stream = stream or sys.stdout
    if cfg.nc * cfg.nv > MAX_VALIDATE_DIM:
        raise ConfigError(f"validate needs nc*nv <= {MAX_VALIDATE_DIM}, got {cfg.nc * cfg.nv}")
    params = cfg.params()
    budget = AssemblyBudget(dims=(cfg.nc, cfg.nv), series_tol=cfg.series_tol)
    failures: List[str] = []

    def report(label: str, tol: float, check: Callable[[], float]) -> None:
        try:
            value = check()
        except (ValidityError, TruncationError) as exc:  # fails this check only
            print(f"{label}: {exc} FAIL", file=stream)
            failures.append(label)
            return
        ok = value <= tol
        print(f"{label}: {value:.3e} (tol {tol:.1e}) {'ok' if ok else 'FAIL'}", file=stream)
        if not ok:
            failures.append(label)

    a, b = cfg.alpha, cfg.beta
    try:
        # D(0) = expm(0) is exactly the identity, so a vacuum start is exact too
        oracle_states = evolve_trajectory(params, _coherent_joint(a, b, cfg.nc, cfg.nv), times)
        for t, rho in zip(times, oracle_states):
            report(f"t={t:g} joint trace distance", TD_TOL, lambda: trace_distance(
                assemble_joint_density(params, t, a, b, budget), rho))
            for mode, N in (("c", cfg.nc), ("v", cfg.nv)):
                report(f"t={t:g} mode-{mode} fidelity deficit", FID_DEFICIT_TOL,
                       lambda: 1.0 - state_metrics(reduced_density(params, t, mode, a, b, N),
                                                   partial_trace(rho, mode)).fidelity)
            report(f"t={t:g} quadrature delta", QUAD_TOL,
                   lambda: _variance_delta(quad_stats(rho), quad_variances(params, t, a, b)))

        if params.gamma == 0:
            for t, rho in zip(times, oracle_states):
                report(f"t={t:g} lossless fidelity deficit", FID_DEFICIT_TOL, lambda: _pure_state_deficit(
                    lossless_ket(params, a, b, t, (cfg.nc, cfg.nv)), rho.entries))
    except IntegrationError as exc:
        print(f"validation aborted: {exc}", file=stream)
        return EXIT_VALIDATION

    if failures:
        print(f"FAILED: {len(failures)} check(s): {'; '.join(failures)}", file=stream)
        return EXIT_VALIDATION
    print("all validation checks passed", file=stream)
    return EXIT_OK


def cmd_sweep_ratio(cfg: RunConfig, times: Sequence[float]) -> int:
    if not cfg.out_path:
        raise ConfigError("sweep-ratio needs out_path (--out_path or config key)")
    ratios = [k / 100.0 for k in range(10, 151)]  # ratio grid [0.1, 1.5] in exact 0.01 steps
    var_xv = [quad_variances(classify_regime(1.0, r, cfg.gamma), times).var_xv for r in ratios]
    header = "ratio," + ",".join(f"var_xv_t{t:g}" for t in times)
    _write_csv(cfg.out_path, header, np.column_stack([ratios, var_xv]))
    return EXIT_OK


def _parse_times(text: str) -> List[float]:
    try:
        times = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad times list {text!r}") from exc
    if not times or not all(0 <= t < math.inf for t in times) or sorted(times) != times:
        raise ConfigError("times must be a nondecreasing list of finite, nonnegative numbers")
    return times


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioncavity",
        description="Damped ion-cavity two-mode dynamics: closed forms and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (keys = RunConfig fields)")
        for f in fields(RunConfig):
            if f.name == "out_path":
                p.add_argument("--out_path", type=str, default=None)
            elif f.name in ("nc", "nv"):
                p.add_argument(f"--{f.name}", type=int, default=None)
            elif f.name == "dt_int":
                p.add_argument("--dt_int", type=float, default=None,
                               help="ignored: the exact propagator takes no step size")
            else:
                p.add_argument(f"--{f.name}", type=float, default=None)

    add_common(sub.add_parser("simulate", help="emit a time-series CSV"))
    add_common(sub.add_parser("revivals", help="print the revival schedule"))
    p_val = sub.add_parser("validate", help="run the analytic-vs-propagator suite")
    add_common(p_val)
    p_val.add_argument("--times", default="0.5,1,2,4", help="comma-separated checkpoints")
    p_sweep = sub.add_parser("sweep-ratio", help="CSV of Var X_v over omega2/omega1")
    add_common(p_sweep)
    p_sweep.add_argument("--times", default="1,5,10", help="comma-separated output times")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args).normalized()
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "revivals":
            return cmd_revivals(cfg)
        if args.command == "validate":
            return cmd_validate(cfg, _parse_times(args.times))
        if args.command == "sweep-ratio":
            return cmd_sweep_ratio(cfg, _parse_times(args.times))
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidityError as exc:
        print(f"error: formula validity guard: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except RegimeError as exc:
        if args.command == "revivals":
            print(f"no revivals in this regime: {exc}", file=sys.stderr)
            return EXIT_NO_REVIVALS
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IonCavityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
