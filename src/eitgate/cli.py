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
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, replace

from .analytic_design import (PhaseTarget, asymptotic_design, decoherence_error,
                              fock_dephasing_bound, gate_time, optimal_detuning,
                              tau_eff)
from .coherent_gate import ONE_QUBIT, TWO_QUBIT
from .core_model import SystemParams, kerr_approximation, w10
from .design_optimizer import (OptimizationConstraints, SweepSpec, max_dephasing,
                               optimize_design, sweep, sweep_to_csv, sweep_to_json)
from .errors import ConfigError, GateModelError
from .lindblad_oracle import verify_qss

ORACLE_HARD_BOUND = 0.01        # max_rel_deviation allowed at omega_a = 0.1 gamma_20
ORACLE_HARD_POINT = 0.1

_SYSTEM_DEFAULTS = dict(
    omega_a_tilde=1.0, omega_b_tilde=3.0, omega_c_tilde=3.0,
    n_a=1, n_c=1,
    nu_a=0.0, nu_b=0.0, nu_c=30.0,
    gamma_10=1e-6, gamma_20=1.0, gamma_30=0.0, gamma_40=1.0,
    n_atoms=1,
)
_SYSTEM_INT_FIELDS = {"n_a", "n_c", "n_atoms"}

_CONSTRAINT_DEFAULTS = dataclasses.asdict(OptimizationConstraints())


@dataclass(frozen=True)
class EvalOptions:
    phi: float = math.pi
    delta: float = 0.2
    n_b: int = 100
    kerr: bool = True


@dataclass(frozen=True)
class DesignOptions:
    delta_target: float | None = 0.2
    gamma_10: float | None = None


@dataclass(frozen=True)
class SweepOptions:
    quantity: str = "delta_target"
    values: tuple[float, ...] = (0.2,)
    constraint_sets: tuple[OptimizationConstraints, ...] = ()


@dataclass(frozen=True)
class OracleOptions:
    t_final: float | None = None
    omega_a_scan: tuple[float, ...] = (0.1, 0.3, 1.0)


_EVAL, _DESIGN, _SWEEP, _ORACLE = EvalOptions(), DesignOptions(), SweepOptions(), OracleOptions()


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; round-trips losslessly through JSON."""

    system: SystemParams
    constraints: OptimizationConstraints
    eval_options: EvalOptions
    design_options: DesignOptions
    sweep_options: SweepOptions
    oracle_options: OracleOptions
    format: str = "json"
    out: str | None = None
    verbose: bool = False
    raw: bool = False


def _check_keys(block: dict, allowed, path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else
                              f"unknown key '{key}'")


def _is_finite_number(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def _number(block: dict, key: str, default, path: str, integer=False, optional=False):
    if key not in block or block[key] is None:
        if optional and (key in block or default is None):
            return None if key in block else default
        return default
    value = block[key]
    if not _is_finite_number(value):
        raise ConfigError(f"'{path}.{key}' must be a finite number, got {value!r}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"'{path}.{key}' must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _pair(block: dict, key: str, default, path: str):
    if key not in block or block[key] is None:
        return default
    value = block[key]
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_finite_number(v) for v in value)):
        raise ConfigError(f"'{path}.{key}' must be a pair of finite numbers, got {value!r}")
    return (float(value[0]), float(value[1]))


def _parse_system(block: dict, path="system") -> SystemParams:
    _check_keys(block, _SYSTEM_DEFAULTS, path)
    kwargs = {}
    for key, default in _SYSTEM_DEFAULTS.items():
        kwargs[key] = _number(block, key, default, path,
                              integer=key in _SYSTEM_INT_FIELDS)
    try:
        return SystemParams(**kwargs)
    except GateModelError as exc:
        raise ConfigError(f"invalid '{path}' block: {exc}") from exc


def _parse_constraints(block: dict, base: OptimizationConstraints | None = None,
                       path="constraints") -> OptimizationConstraints:
    _check_keys(block, _CONSTRAINT_DEFAULTS, path)
    base_kwargs = (dataclasses.asdict(base) if base is not None
                   else dict(_CONSTRAINT_DEFAULTS))
    kwargs = {}
    for key, default in base_kwargs.items():
        if key == "mode":
            value = block.get(key, default)
            if value not in (TWO_QUBIT, ONE_QUBIT):
                raise ConfigError(f"'{path}.mode' must be '{TWO_QUBIT}' or "
                                  f"'{ONE_QUBIT}', got {value!r}")
            kwargs[key] = value
        elif key in ("nu_c_range", "alpha_b_range"):
            kwargs[key] = _pair(block, key, tuple(default) if default else default, path)
        else:
            kwargs[key] = _number(block, key, default, path)
    try:
        return OptimizationConstraints(**kwargs)
    except GateModelError as exc:
        raise ConfigError(f"invalid '{path}' block: {exc}") from exc


def _parse_values(block: dict, key: str, default, path: str) -> tuple[float, ...]:
    if key not in block:
        return default
    value = block[key]
    if (not isinstance(value, (list, tuple)) or len(value) == 0
            or not all(_is_finite_number(v) for v in value)):
        raise ConfigError(f"'{path}.{key}' must be a non-empty list of finite numbers")
    return tuple(float(v) for v in value)


def parse_config(data: dict) -> RunConfig:
    """Validate a configuration document; unknown keys are rejected by name."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    top_keys = {"system", "constraints", "eval", "design", "sweep",
                "check_oracle", "format", "out", "verbose", "raw"}
    _check_keys(data, top_keys, "")
    for key in ("system", "constraints", "eval", "design", "sweep", "check_oracle"):
        if key in data and not isinstance(data[key], dict):
            raise ConfigError(f"'{key}' must be an object")

    system = _parse_system(data.get("system", {}))
    constraints = _parse_constraints(data.get("constraints", {}))

    ev = data.get("eval", {})
    _check_keys(ev, {"phi", "delta", "n_b", "kerr"}, "eval")
    kerr = ev.get("kerr", _EVAL.kerr)
    if not isinstance(kerr, bool):
        raise ConfigError(f"'eval.kerr' must be a boolean, got {kerr!r}")
    eval_options = EvalOptions(
        phi=_number(ev, "phi", _EVAL.phi, "eval"),
        delta=_number(ev, "delta", _EVAL.delta, "eval"),
        n_b=_number(ev, "n_b", _EVAL.n_b, "eval", integer=True),
        kerr=kerr,
    )

    dz = data.get("design", {})
    _check_keys(dz, {"delta_target", "gamma_10"}, "design")
    design_options = DesignOptions(
        delta_target=_number(dz, "delta_target", _DESIGN.delta_target, "design",
                             optional=True),
        gamma_10=_number(dz, "gamma_10", _DESIGN.gamma_10, "design", optional=True),
    )

    sw = data.get("sweep", {})
    _check_keys(sw, {"quantity", "values", "constraint_sets"}, "sweep")
    quantity = sw.get("quantity", _SWEEP.quantity)
    if quantity not in ("gamma_10", "delta_target"):
        raise ConfigError(f"'sweep.quantity' must be 'gamma_10' or 'delta_target', "
                          f"got {quantity!r}")
    sets = sw.get("constraint_sets", [])
    if not isinstance(sets, (list, tuple)):
        raise ConfigError("'sweep.constraint_sets' must be a list of objects")
    parsed_sets = []
    for i, block in enumerate(sets):
        if not isinstance(block, dict):
            raise ConfigError(f"'sweep.constraint_sets[{i}]' must be an object")
        parsed_sets.append(_parse_constraints(block, base=constraints,
                                              path=f"sweep.constraint_sets[{i}]"))
    sweep_options = SweepOptions(
        quantity=quantity,
        values=_parse_values(sw, "values", _SWEEP.values, "sweep"),
        constraint_sets=tuple(parsed_sets),
    )

    co = data.get("check_oracle", {})
    _check_keys(co, {"t_final", "omega_a_scan"}, "check_oracle")
    oracle_options = OracleOptions(
        t_final=_number(co, "t_final", _ORACLE.t_final, "check_oracle", optional=True),
        omega_a_scan=_parse_values(co, "omega_a_scan", _ORACLE.omega_a_scan, "check_oracle"),
    )

    fmt = data.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"'format' must be 'json' or 'csv', got {fmt!r}")
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"'out' must be a string path, got {out!r}")
    for key in ("verbose", "raw"):
        if key in data and not isinstance(data[key], bool):
            raise ConfigError(f"'{key}' must be a boolean")

    return RunConfig(system=system, constraints=constraints,
                     eval_options=eval_options, design_options=design_options,
                     sweep_options=sweep_options, oracle_options=oracle_options,
                     format=fmt, out=out, verbose=data.get("verbose", False),
                     raw=data.get("raw", False))


def dump_config(config: RunConfig) -> dict:
    """Full configuration document; parse(dump(c)) == c."""
    def cs_dict(cs: OptimizationConstraints) -> dict:
        d = dataclasses.asdict(cs)
        d["nu_c_range"] = list(d["nu_c_range"]) if d["nu_c_range"] else None
        d["alpha_b_range"] = list(d["alpha_b_range"])
        return d

    return {
        "system": dataclasses.asdict(config.system),
        "constraints": cs_dict(config.constraints),
        "eval": dataclasses.asdict(config.eval_options),
        "design": dataclasses.asdict(config.design_options),
        "sweep": {
            "quantity": config.sweep_options.quantity,
            "values": list(config.sweep_options.values),
            "constraint_sets": [cs_dict(c) for c in config.sweep_options.constraint_sets],
        },
        "check_oracle": {
            "t_final": config.oracle_options.t_final,
            "omega_a_scan": list(config.oracle_options.omega_a_scan),
        },
        "format": config.format,
        "out": config.out,
        "verbose": config.verbose,
        "raw": config.raw,
    }


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
    opts = config.eval_options
    target = PhaseTarget(opts.phi)
    scale = 1.0 if config.raw else p.omega_a_tilde
    kerr = kerr_approximation(p) / scale if opts.kerr else None
    w = w10(p)
    nu_opt = optimal_detuning(p)
    asym_nu, asym_tau = asymptotic_design(p, target)
    report = {
        "w10_re": w.phase_rate / scale,
        "w10_im": w.absorption_rate / scale,
        "tau_eff": tau_eff(p, target),
        "optimal_nu_c": nu_opt / scale,
        "asymptotic_nu_c": asym_nu / scale,
        "asymptotic_tau_eff": asym_tau,
        "fock_dephasing_bound": fock_dephasing_bound(opts.delta, target, opts.n_b),
        "gate_time_norm": gate_time(p, target),
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
    opts = config.design_options
    cs = config.constraints
    if (opts.delta_target is None) == (opts.gamma_10 is None):
        raise ConfigError("design needs exactly one of 'delta_target' or 'gamma_10'")
    if opts.gamma_10 is not None:
        if opts.gamma_10 <= 0:
            raise ConfigError(f"design 'gamma_10' must be > 0, got {opts.gamma_10}")
        gamma = opts.gamma_10
        design, budget = optimize_design(gamma, cs)
    else:
        if not 0.0 < opts.delta_target < 0.5:
            raise ConfigError(f"design 'delta_target' must be in (0, 0.5), "
                              f"got {opts.delta_target}")
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
        "suppression": design.suppression,
        "mode": design.mode,
    }


def cmd_sweep(config: RunConfig) -> tuple[list, dict]:
    """Run the configured sweep; returns (rows, summary)."""
    sw = config.sweep_options
    sets = list(sw.constraint_sets) or [config.constraints]
    spec = SweepSpec(quantity=sw.quantity, values=sw.values)
    rows = sweep(spec, sets)
    failures = sum(1 for r in rows if r.status != "ok")
    return rows, {"rows": len(rows), "failures": failures}


def cmd_check_oracle(config: RunConfig) -> tuple[list[dict], bool]:
    """Scan |Omega_a|/gamma_20 and compare the chain against the closed form.

    Returns (reports, ok); ok is False when the hard bound at the
    0.1 gamma_20 point is violated.
    """
    opts = config.oracle_options
    base = config.system
    reports = []
    ok = True
    for s in opts.omega_a_scan:
        p = replace(base, omega_a_tilde=s * base.gamma_20, n_a=1)
        t_final = opts.t_final
        if t_final is None:
            try:
                t_final = gate_time(p, PhaseTarget(math.pi)) / max(p.omega_a, 1e-300)
            except GateModelError:
                t_final = 200.0 / p.gamma_20 if p.gamma_20 > 0 else 200.0
        rep = verify_qss(p, t_final)
        entry = {
            "omega_a_over_gamma_20": s,
            "t_final": t_final,
            "max_rel_deviation": rep.max_rel_deviation,
            "final_phase_error": rep.final_phase_error,
            "final_magnitude_ratio": rep.final_magnitude_ratio,
            "regime_flag": rep.regime_flag,
        }
        if s == ORACLE_HARD_POINT and rep.max_rel_deviation >= ORACLE_HARD_BOUND:
            entry["bound_violation"] = True
            ok = False
        reports.append(entry)
    return reports, ok


# ---------------------------------------------------------------------------
# output plumbing

def _emit_table(report: dict, fmt: str, fh) -> None:
    if fmt == "json":
        json.dump(report, fh, indent=2)
        fh.write("\n")
    else:
        keys = list(report)
        fh.write(",".join(keys) + "\n")
        fh.write(",".join(_csv_cell(report[k]) for k in keys) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _emit_reports(reports: list[dict], fmt: str, fh) -> None:
    if fmt == "json":
        json.dump(reports, fh, indent=2)
        fh.write("\n")
    else:
        keys = list(reports[0])
        fh.write(",".join(keys) + "\n")
        for rep in reports:
            fh.write(",".join(_csv_cell(rep.get(k, "")) for k in keys) + "\n")


def _emit_sweep(rows: list, fmt: str, fh) -> None:
    if fmt == "csv":
        sweep_to_csv(rows, fh)
    else:
        sweep_to_json(rows, fh)


def _open_out(config: RunConfig):
    if config.out is None:
        return sys.stdout, False
    return open(config.out, "w", encoding="utf-8"), True


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
        sp.add_argument("--raw", action="store_true", default=None,
                        help="report rates in raw units instead of |Omega~_a|")

    common(sub.add_parser("eval", help="closed-form quantities at a parameter point"))

    design = sub.add_parser("design", help="optimize the design or invert it")
    common(design)
    design.add_argument("--delta", type=float, help="target error 1 - F^2")
    design.add_argument("--gamma10", type=float, help="dephasing gamma_10/|Omega~_a|")
    design.add_argument("--suppression", type=float, help="gamma_40/gamma_20 ratio")

    common(sub.add_parser("sweep", help="trade-off table over a grid"))
    common(sub.add_parser("check-oracle", help="solve the chain and compare"))
    return parser


def _load(args) -> RunConfig:
    config = load_config(args.config) if args.config else parse_config({})
    updates = {}
    if args.format:
        updates["format"] = args.format
    if args.out:
        updates["out"] = args.out
    if args.verbose is not None:
        updates["verbose"] = args.verbose
    if getattr(args, "raw", None) is not None:
        updates["raw"] = args.raw
    if updates:
        config = replace(config, **updates)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "design":
            for flag in ("delta", "gamma10", "suppression"):
                value = getattr(args, flag)
                if value is not None and not math.isfinite(value):
                    raise ConfigError(f"--{flag} must be finite, got {value}")
            d_opts = config.design_options
            if args.delta is not None:
                d_opts = DesignOptions(delta_target=args.delta, gamma_10=None)
            if args.gamma10 is not None:
                d_opts = DesignOptions(delta_target=None, gamma_10=args.gamma10)
            config = replace(config, design_options=d_opts)
            if args.suppression is not None:
                if args.suppression <= 0:
                    raise ConfigError(f"--suppression must be > 0, got {args.suppression}")
                config = replace(config, constraints=replace(
                    config.constraints, suppression=args.suppression))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        ok = True
        if args.command == "eval":
            result, write = cmd_eval(config), _emit_table
        elif args.command == "design":
            result, write = cmd_design(config), _emit_table
        elif args.command == "sweep":
            result, summary = cmd_sweep(config)
            write = _emit_sweep
        else:
            result, ok = cmd_check_oracle(config)
            write = _emit_reports
        fh, close = _open_out(config)
        try:
            write(result, config.format, fh)
        finally:
            if close:
                fh.close()
        if args.command == "sweep":
            print(f"rows={summary['rows']} failures={summary['failures']}",
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
