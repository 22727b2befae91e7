"""Command-line front end.

Four subcommands: `eval` (closed-form quantities at a parameter point),
`design` (optimize or invert the design map), `sweep` (trade-off tables),
`check-oracle` (solve the coherence chain exactly and compare with the
closed form).  Configuration is a single JSON document; every value the CLI
prints is exactly the corresponding library result.

Exit codes: 0 success, 2 configuration errors, 3 math-domain errors,
4 oracle deviation beyond its hard bound.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, replace

from .analytic_design import (_check_phase, asymptotic_design, decoherence_error,
                              fock_dephasing_bound, gate_time, optimal_detuning,
                              tau_eff)
from .core_model import SystemParams, kerr_approximation, w10
from .design_optimizer import (OptimizationConstraints, SweepSpec, _check_design_value,
                               max_dephasing, optimize_design, sweep)
from .errors import ConfigError, GateModelError, InvalidInput
from .lindblad_oracle import verify_qss

ORACLE_HARD_BOUND = 0.01        # max_rel_deviation allowed at omega_a = 0.1 gamma_20
ORACLE_HARD_POINT = 0.1


@dataclass(frozen=True)
class EvalOptions:
    phi: float = math.pi
    delta: float = 0.2
    n_b: int = 100
    kerr: bool = True

    def __post_init__(self):
        fock_dephasing_bound(self.delta, self.phi, self.n_b)  # raises when out of range
        _check_phase(self.phi)


@dataclass(frozen=True)
class DesignOptions:
    """At most one of the two is set; a `design` block that names one leaves the other null."""

    delta_target: float | None = None
    gamma_10: float | None = None

    def __post_init__(self):
        if self.delta_target is not None and self.gamma_10 is not None:
            raise InvalidInput(f"set 'delta_target' or 'gamma_10', not both; got "
                               f"{self.delta_target} and {self.gamma_10}")
        for quantity in ("delta_target", "gamma_10"):
            if getattr(self, quantity) is not None:
                _check_design_value(quantity, getattr(self, quantity))


@dataclass(frozen=True)
class SweepOptions(SweepSpec):
    """A sweep grid, validated as a `SweepSpec`, and the constraint sets it runs over."""

    quantity: str = "delta_target"
    values: tuple[float, ...] = (0.2,)
    constraint_sets: tuple[OptimizationConstraints, ...] = ()


@dataclass(frozen=True)
class OracleOptions:
    t_final: float | None = None
    omega_a_scan: tuple[float, ...] = (0.1, 0.3, 1.0)

    def __post_init__(self):
        if not self.omega_a_scan or min(self.omega_a_scan) < 0:
            raise InvalidInput(f"omega_a_scan must be a non-empty list of values >= 0, "
                               f"got {list(self.omega_a_scan)}")
        if self.t_final is not None and self.t_final <= 0:
            raise InvalidInput(f"t_final must be > 0, got {self.t_final}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; each field name is its JSON key.

    `constraints` precedes `sweep`, so that each constraint set inherits
    from it (see `_parse_block`).
    """

    system: SystemParams = SystemParams()
    constraints: OptimizationConstraints = OptimizationConstraints()
    eval: EvalOptions = EvalOptions()
    design: DesignOptions = DesignOptions(delta_target=0.2)
    sweep: SweepOptions = SweepOptions()
    check_oracle: OracleOptions = OracleOptions()
    format: str = "json"
    out: str | None = None
    verbose: bool = False
    raw: bool = False

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise InvalidInput(f"format must be 'json' or 'csv', got {self.format!r}")


@functools.cache
def _schema(cls) -> tuple[dict, set, object]:
    """Field types, names of the nested-block fields and default instance of a block class."""
    hints = typing.get_type_hints(cls)
    fields = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    return fields, {n for n, h in fields.items() if dataclasses.is_dataclass(h)}, cls()


def _parse_block(cls, data, path: str, scope: dict):
    """Parse one JSON object into the dataclass `cls`; unknown keys fail by name.

    A key absent from the block takes its value from the nearest block of
    the same class already parsed at an enclosing level (`scope`), else from
    the class defaults.  So each constraint set inherits from the top-level
    `constraints`, and a `design` block that names one key leaves the other
    null.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"'{path}' must be an object")
    fields, blocks, default = _schema(cls)
    for key in data:
        if key not in fields:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")
    base = scope.get(cls, default)
    scope = dict(scope)
    kwargs = {}
    for name, hint in fields.items():
        if name in data:
            value = _parse(hint, data[name], f"{path}.{name}" if path else name, scope)
        else:
            value = getattr(base, name)
        if name in blocks:
            scope[hint] = value
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except GateModelError as exc:
        raise ConfigError(f"invalid '{path}' block: {exc}" if path else
                          f"invalid configuration: {exc}") from exc


def _parse(hint, value, path: str, scope: dict):
    """Parse one JSON value as the type `hint`; null is allowed only for `X | None`."""
    if hint is float or hint is int:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ConfigError(f"'{path}' must be a finite number, got {value!r}")
        if hint is float:
            return float(value)
        if int(value) != value:
            raise ConfigError(f"'{path}' must be an integer, got {value!r}")
        return int(value)
    if hint is bool or hint is str:
        if not isinstance(value, hint):
            raise ConfigError(f"'{path}' must be a {hint.__name__}, got {value!r}")
        return value
    if dataclasses.is_dataclass(hint):
        return _parse_block(hint, value, path, scope)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:                   # every union is `X | None`
        return None if value is None else _parse(args[0], value, path, scope)
    variable = args[-1] is Ellipsis                 # the rest are tuple hints
    if not isinstance(value, (list, tuple)) or not (variable or len(value) == len(args)):
        raise ConfigError(f"'{path}' must be a list" + ("" if variable else
                          f" of {len(args)} items") + f", got {value!r}")
    return tuple(_parse(args[0] if variable else args[i], item, f"{path}[{i}]", scope)
                 for i, item in enumerate(value))


def parse_config(data: dict) -> RunConfig:
    """Validate a configuration document against the `RunConfig` dataclasses."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    return _parse_block(RunConfig, data, "", {})


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(config: RunConfig) -> dict:
    """Closed-form quantities at the configured parameter point."""
    p = config.system
    opts = config.eval
    scale = 1.0 if config.raw else p.omega_a_tilde
    kerr = kerr_approximation(p) / scale if opts.kerr else None
    w = w10(p)
    nu_opt = optimal_detuning(p)
    asym_nu, asym_tau = asymptotic_design(p, opts.phi)
    report = {
        "w10_re": w.real / scale,
        "w10_im": w.imag / scale,
        "tau_eff": tau_eff(p, opts.phi),
        "optimal_nu_c": nu_opt / scale,
        "asymptotic_nu_c": asym_nu / scale,
        "asymptotic_tau_eff": asym_tau,
        "fock_dephasing_bound": fock_dephasing_bound(opts.delta, opts.phi, opts.n_b),
        "gate_time_norm": gate_time(p, opts.phi),
    }
    if kerr is not None:
        report["kerr_phase_rate"] = kerr
    if config.verbose:
        t = report["tau_eff"]
        report["decoherence_error_overlap_form"] = 1.0 - math.exp(-2.0 * t)
        report["decoherence_error_dual_rail_form"] = decoherence_error(t, 0.5)
    return report


def cmd_design(config: RunConfig) -> dict:
    """Optimize at fixed dephasing, or invert for a target error."""
    opts = config.design
    cs = config.constraints
    if opts.delta_target is None and opts.gamma_10 is None:
        raise ConfigError("design needs one of 'delta_target' or 'gamma_10'")
    if opts.gamma_10 is not None:
        gamma = opts.gamma_10
        design, budget = optimize_design(gamma, cs)
    else:
        gamma, design, budget = max_dephasing(opts.delta_target, cs)
    return {
        "gamma_10_over_omega_a": gamma,
        "delta_total": budget.delta_total,
        "delta_decoherence": budget.delta_decoherence,
        "delta_spread": budget.delta_coherent_spread,
        "fidelity": budget.fidelity,
        "nu_c_over_omega_a": design.nu_c,
        "alpha_b": design.alpha_b,
        "phi": design.phi,
        "time_norm": design.time_norm,
        "suppression": cs.suppression,
        "mode": design.mode,
    }


def cmd_sweep(config: RunConfig) -> list:
    """Run the configured sweep over its constraint sets, or the top-level one."""
    sw = config.sweep
    return sweep(sw, list(sw.constraint_sets) or [config.constraints])


def cmd_check_oracle(config: RunConfig) -> tuple[list[dict], bool]:
    """Scan |Omega_a|/gamma_20 and compare the chain against the closed form.

    Returns (reports, ok); ok is False when the hard bound at the
    0.1 gamma_20 point is violated.
    """
    opts = config.check_oracle
    base = config.system
    reports = []
    ok = True
    for s in opts.omega_a_scan:
        p = replace(base, omega_a_tilde=s * base.gamma_20, n_a=1)
        t_final = opts.t_final
        if t_final is None:
            try:
                t_final = gate_time(p, math.pi) / p.omega_a
            except GateModelError:
                t_final = 200.0 / p.gamma_20 if p.gamma_20 > 0 else 200.0
        rep = verify_qss(p, t_final)
        entry = {"omega_a_over_gamma_20": s, "t_final": t_final, **dataclasses.asdict(rep)}
        if s == ORACLE_HARD_POINT and rep.max_rel_deviation >= ORACLE_HARD_BOUND:
            entry["bound_violation"] = True
            ok = False
        reports.append(entry)
    return reports, ok


# ---------------------------------------------------------------------------
# output plumbing

def _write(result, fmt: str, fh) -> None:
    """Write one report (a dict) or a list of rows as CSV or strict JSON.

    The CSV header is the union of the rows' keys in first-seen order; a row
    without a key leaves its cell empty.  JSON writes every non-finite float
    as null.
    """
    rows = [result] if isinstance(result, dict) else result
    if fmt == "json":
        finite = [{k: _json_cell(v) for k, v in row.items()} for row in rows]
        json.dump(finite[0] if isinstance(result, dict) else finite, fh,
                  indent=2, allow_nan=False)
        fh.write("\n")
        return
    keys = list(dict.fromkeys(k for row in rows for k in row))
    fh.write(",".join(keys) + "\n")
    for row in rows:
        fh.write(",".join(_csv_cell(row.get(k, "")) for k in keys) + "\n")


def _json_cell(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitgate",
        description="Design and verification tool for EIT cross-Kerr phase gates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--format", choices=["json", "csv"], help="output format")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--verbose", action="store_true", default=None)
        return sp

    evaluate = common(sub.add_parser("eval", help="closed-form quantities at a parameter point"))
    evaluate.add_argument("--raw", action="store_true", default=None,
                          help="report rates in raw units instead of |Omega~_a|")

    design = common(sub.add_parser("design", help="optimize the design or invert it"))
    design.add_argument("--delta", type=float, help="target error 1 - F^2")
    design.add_argument("--gamma10", type=float, help="dephasing gamma_10/|Omega~_a|")
    design.add_argument("--suppression", type=float, help="gamma_40/gamma_20 ratio")

    common(sub.add_parser("sweep", help="trade-off table over a grid"))
    common(sub.add_parser("check-oracle", help="solve the chain and compare"))
    return parser


def _load(args) -> RunConfig:
    """The configuration file (or the defaults) with each given flag applied.

    A flag builds the block a config file would build, so the block's own
    checks judge it: `--delta` and `--gamma10` make one `DesignOptions`, and
    `--suppression` a new `constraints` block.
    """
    config = load_config(args.config) if args.config else parse_config({})
    flags = {k: v for k, v in vars(args).items() if v is not None}
    for flag in ("delta", "gamma10", "suppression"):
        if flag in flags and not math.isfinite(flags[flag]):
            raise ConfigError(f"--{flag} must be finite, got {flags[flag]}")
    updates = {k: flags[k] for k in ("format", "out", "verbose", "raw") if k in flags}
    try:
        if "delta" in flags or "gamma10" in flags:
            updates["design"] = DesignOptions(flags.get("delta"), flags.get("gamma10"))
        if "suppression" in flags:
            updates["constraints"] = replace(config.constraints,
                                             suppression=flags["suppression"])
        return replace(config, **updates)
    except InvalidInput as exc:
        raise ConfigError(f"invalid flags: {exc}") from exc


def main(argv=None) -> int:
    """Run one command; return its exit code.

    `main` may be called many times in one process.  Each call parses only
    its own `argv` into a fresh namespace, and all calls share the one parser
    that `build_parser` builds on first use, which callers must not mutate.
    """
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        ok = True
        if args.command == "eval":
            result = cmd_eval(config)
        elif args.command == "design":
            result = cmd_design(config)
        elif args.command == "sweep":
            result = [dataclasses.asdict(row) for row in cmd_sweep(config)]
        else:
            result, ok = cmd_check_oracle(config)
        with (contextlib.nullcontext(sys.stdout) if config.out is None
              else open(config.out, "w", encoding="utf-8")) as fh:
            _write(result, config.format, fh)
        if args.command == "sweep":
            failures = sum(row["status"] != "ok" for row in result)
            print(f"rows={len(result)} failures={failures}",
                  file=sys.stderr if config.out is None else sys.stdout)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except GateModelError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not ok:
        print(f"oracle deviation bound violated at omega_a = "
              f"{ORACLE_HARD_POINT} gamma_20", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
