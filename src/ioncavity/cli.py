"""Command-line front end.

Four subcommands: ``simulate`` (time-series CSV of variances, mode
parameters and envelopes), ``revivals`` (revival-time report), ``validate``
(analytic-vs-propagator cross-check suite) and ``sweep-ratio`` (vibrational
X-variance versus omega2/omega1).

Rates from the command line or config file are normalized internally so
that omega1 = 1; all times are then in units of omega1 t.  Config files are
flat JSON objects whose keys are the RunConfig field names; command-line
flags override file values; each takes its RunConfig field's type.  A
negative flag value may be in e-notation, or -inf or -nan, which the
configuration check refuses by name as it does inf.  CSV output is UTF-8
with LF line endings and 15 significant digits, the bytes
``np.savetxt(..., fmt="%.15g")`` writes, formatted in blocks of
``CSV_BLOCK_ROWS`` rows (one ``%`` per block, so no per-row Python loop and
no whole-table string).  They go to a temporary file that is renamed on
success so no partial files are left behind; the file gets the mode a plain
open() would give: an existing file keeps its own, a new one 0666 less the
umask.

The argument parser is built on the first ``main`` call and reused by every
later call in the process; parsing leaves it unchanged, so calls share no
state through it.

The subcommands hold no physics.  ``simulate`` makes one ``quad_variances``
and one ``envelope`` call over its whole time grid and maps both modes'
variances to (n_bar, xi) with ``squeezed_thermal``; ``sweep-ratio`` makes one
call over its whole ratio grid and times; ``revivals`` one ``envelope`` call per
revival list.  ``validate`` prints the records of ``lindblad.validation_checks``
as each comes, a line per check; a record with a note, or over its tolerance,
is a ``FAIL`` line (exit 1).

Only ``validate`` loads scipy: ``fock`` imports scipy.linalg and ``lindblad``
scipy.sparse where they are first called, so ``simulate``, ``sweep-ratio``
and ``revivals`` start on numpy and the standard library alone.

Exit codes: 0 success; 1 validation tolerance breach or propagator failure;
2 invalid configuration; 3 formula-validity guard tripped; 4 no revivals in
this regime.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    IntegrationError,
    IonCavityError,
    RegimeError,
    TruncationError,
    ValidityError,
)
from .lindblad import validation_checks
from .observables import quad_variances, revival_schedule, squeezed_thermal
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

CSV_HEADER = "t,var_xc,var_pc,var_xv,var_pv,nbar_c,nbar_v,xi_c,xi_v,f,g,h"

#: rows formatted by one % in _write_csv; bounds the text held in memory at once
CSV_BLOCK_ROWS = 4096


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
    dt_int: float = field(default=1e-3,
                          metadata={"help": "ignored: the exact propagator takes no step size"})
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


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
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
            fh.writelines(chunks)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: str, table: np.ndarray) -> None:
    """Write ``table`` as np.savetxt(path, table, fmt="%.15g", delimiter=",",
    header=header, comments="") would, one block of rows per % operation."""
    row = ",".join(["%.15g"] * table.shape[1]) + "\n"

    def chunks():
        yield header + "\n"
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            yield row * len(block) % tuple(block.ravel().tolist())

    _write_atomic(path, chunks())


#: per RunConfig field type: the flag's argparse type, and the JSON values a
#: config file may give the field (never a bool)
_FIELD_TYPES = {"int": (int, int), "float": (float, (int, float)), "Optional[str]": (str, (str, type(None)))}


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
        kinds = {f.name: _FIELD_TYPES[f.type][1] for f in fields(RunConfig)}
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
    with np.errstate(over="ignore", invalid="ignore"):  # squeezed_thermal refuses a non-finite variance
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
    print(f"# revival schedule up to t = {cfg.t_max:.15g} (spacing pi/Lambda = {math.pi / lam:.15g})",
          file=stream)
    print("# kind  n  time  residual", file=stream)
    for kind, taus, residuals in (
        ("motion", schedule.tau_motion, envelope(params, schedule.tau_motion).f),
        ("cavity", schedule.tau_cavity, envelope(params, schedule.tau_cavity).g),
    ):
        values = [kind, 0, 0.0, 0.0] * len(taus)  # each line's fields, for one % per list
        values[1::4], values[2::4], values[3::4] = range(len(taus)), taus, np.abs(residuals).tolist()
        stream.write("%s  %d  %.15g  %.3e\n" * len(taus) % tuple(values))
    return EXIT_OK


def cmd_validate(cfg: RunConfig, times: Sequence[float], stream=None) -> int:
    stream = stream or sys.stdout
    if cfg.nc * cfg.nv > MAX_VALIDATE_DIM:
        raise ConfigError(f"validate needs nc*nv <= {MAX_VALIDATE_DIM}, got {cfg.nc * cfg.nv}")
    checks = validation_checks(cfg.params(), cfg.alpha, cfg.beta, (cfg.nc, cfg.nv), times, cfg.series_tol)
    failures: List[str] = []
    try:
        for c in checks:
            label = f"t={c.t:g} {c.name}"
            shown = f"{c.value:.3e} (tol {c.tol:.1e})" if c.note is None else c.note
            print(f"{label}: {shown} {'ok' if c.ok else 'FAIL'}", file=stream)
            if not c.ok:
                failures.append(label)
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
    with np.errstate(over="ignore", invalid="ignore"):  # a variance past the float range is refused below
        var_xv = quad_variances([classify_regime(1.0, r, cfg.gamma) for r in ratios], times).var_xv
    bad = ~np.isfinite(var_xv)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValidityError(f"Var X_v = {var_xv[i, j]} is not finite at "
                            f"(omega1=1.0, omega2={ratios[i]}, gamma={cfg.gamma}, t={times[j]})")
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioncavity",
        description="Damped ion-cavity two-mode dynamics: closed forms and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        # argparse's own ^-\d+$|^-\d*\.\d+$ (no public hook) reads -2.4e-06 and -inf as option
        # strings; RunConfig.check refuses the non-finite ones by name
        p._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)
        p.add_argument("--config", help="JSON config file (keys = RunConfig fields)")
        for f in fields(RunConfig):
            p.add_argument(f"--{f.name}", type=_FIELD_TYPES[f.type][0], default=None,
                           help=f.metadata.get("help"))

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
        return cmd_sweep_ratio(cfg, _parse_times(args.times))  # argparse admits no other command
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
