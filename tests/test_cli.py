import argparse
import contextlib
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitgate import (OptimizationConstraints, SweepSpec, asymptotic_design,
                     fock_dephasing_bound, gate_time, kerr_approximation,
                     optimal_detuning, optimize_design, sweep, tau_eff, verify_qss, w10)
from eitgate import cli
from eitgate.cli import (ConfigError, cmd_check_oracle, cmd_design,
                         cmd_eval, cmd_sweep, load_config, main,
                         parse_config)
from test_reference_outputs import COMPARE

PI = math.pi

REFERENCE = Path(__file__).resolve().parents[1] / "reference"

#: column order of the sweep tables
SWEEP_COLUMNS = ("gamma_10_over_omega_a", "delta_total", "delta_decoherence",
                 "delta_spread", "nu_c_over_omega_a", "alpha_b", "time_norm",
                 "suppression", "mode", "status")

# check-oracle at weak drives: the 0.1 point violates the hard bound, the
# 1.0 point, scanned first, does not
_ORACLE_VIOLATION = {"system": {"omega_b_tilde": 0.05, "omega_c_tilde": 0.05},
                     "check_oracle": {"omega_a_scan": [1.0, 0.1]}}


def _strict_json(text: str):
    """Parse text as JSON that holds no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _run(tmp_path, doc: dict, *argv) -> int:
    """main(argv) with doc as the --config file."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    return main([*argv, "--config", str(cfg)])


_NUMBER = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                   st.floats(allow_nan=False, allow_infinity=False))
_POSITIVE = st.floats(1e-6, 1e6)
_TARGET = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
_RATE = st.floats(0.0, 10.0)


def _ordered_pair(low):
    """[lo, hi] with low < lo < hi."""
    return st.tuples(st.floats(low, 1e3, exclude_min=True), st.floats(1e-3, 1e3)).map(
        lambda t: [t[0], t[0] + t[1]])


_SYSTEM_FIELDS = {
    "omega_a_tilde": _POSITIVE, "omega_b_tilde": _POSITIVE, "omega_c_tilde": _POSITIVE,
    "n_a": st.integers(0, 1000), "n_c": st.integers(0, 1000),
    "nu_a": _NUMBER, "nu_b": _NUMBER, "nu_c": _NUMBER,
    "gamma_10": _RATE, "gamma_20": _RATE, "gamma_30": _RATE, "gamma_40": _RATE,
}
_CONSTRAINTS = st.fixed_dictionaries({}, optional={
    "omega_a_over_gamma_20": _POSITIVE, "omega_b_sq_over_omega_c_sq": _POSITIVE,
    "suppression": _POSITIVE, "phi": _POSITIVE, "alpha_c_over_alpha_b": _POSITIVE,
    "alpha_b_range": _ordered_pair(0.0),
    "mode": st.sampled_from(["two-qubit", "one-qubit"]),
})


class TestConfigParsing:
    def test_empty_config_uses_defaults(self):
        config = parse_config({})
        assert config.format == "json"
        assert config.system.gamma_20 == 1.0
        assert config.constraints.phi == PI

    def test_round_trip_identity(self):
        doc = {
            "system": {"omega_a_tilde": 0.5, "nu_c": 12.0, "n_a": 1},
            "constraints": {"suppression": 1e-3, "mode": "one-qubit"},
            "sweep": {"quantity": "gamma_10", "values": [1e-6, 1e-5],
                      "constraint_sets": [{"suppression": 1.0}]},
            "format": "csv",
            "verbose": True,
        }
        first = parse_config(doc)
        second = parse_config(dataclasses.asdict(first))
        assert first == second
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    @pytest.mark.filterwarnings("ignore::eitgate.errors.RegimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(doc=st.fixed_dictionaries({}, optional={
        "system": st.fixed_dictionaries({}, optional=_SYSTEM_FIELDS),
        "constraints": _CONSTRAINTS,
        # each grid holds values in the range of its quantity
        "sweep": st.one_of(*(st.fixed_dictionaries({"quantity": st.just(quantity)}, optional={
            "values": st.lists(values, min_size=1, max_size=4),
            "constraint_sets": st.lists(_CONSTRAINTS, max_size=3),
        }) for quantity, values in (("gamma_10", _POSITIVE), ("delta_target", _TARGET)))),
        "eval": st.fixed_dictionaries({}, optional={
            "phi": st.floats(1e-6, 2 * PI), "delta": _POSITIVE,
            "n_b": st.integers(1, 10 ** 6), "kerr": st.booleans(),
        }),
        "design": st.one_of(
            st.fixed_dictionaries({}, optional={"delta_target": st.one_of(st.none(), _TARGET)}),
            st.fixed_dictionaries({}, optional={"gamma_10": st.one_of(st.none(), _POSITIVE)}),
        ),
        "check_oracle": st.fixed_dictionaries({}, optional={
            "t_final": st.one_of(st.none(), _POSITIVE),
            "omega_a_scan": st.lists(_RATE, min_size=1, max_size=4),
        }),
        "format": st.sampled_from(["json", "csv"]),
        "out": st.one_of(st.none(), st.text()),
        "verbose": st.booleans(),
        "raw": st.booleans(),
    }))
    def test_round_trip_property(self, doc):
        # every key may be present or absent, at the top and in each block
        config = parse_config(doc)
        assert parse_config(dataclasses.asdict(config)) == config

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="system.nu_z"):
            parse_config({"system": {"nu_z": 1.0}})
        with pytest.raises(ConfigError, match="sweep.constraint_sets\\[0\\].foo"):
            parse_config({"sweep": {"constraint_sets": [{"foo": 1}]}})
        with pytest.raises(ConfigError, match="'bogus'"):
            parse_config({"bogus": 1})

    def test_type_errors_named(self):
        with pytest.raises(ConfigError, match="system.gamma_20"):
            parse_config({"system": {"gamma_20": "fast"}})
        with pytest.raises(ConfigError, match="eval.n_b"):
            parse_config({"eval": {"n_b": 2.5}})
        for doc, message in (
                ([], "configuration root must be an object"),
                ({"system": []}, "'system' must be an object"),
                ({"verbose": "yes"}, "'verbose' must be a bool, got 'yes'"),
                ({"format": 1}, "'format' must be a str, got 1"),
                ({"check_oracle": {"omega_a_scan": 0.1}},
                 "'check_oracle.omega_a_scan' must be a list, got 0.1"),
                ({"constraints": {"alpha_b_range": [1]}},
                 "'constraints.alpha_b_range' must be a list of 2 items, got [1]")):
            with pytest.raises(ConfigError) as caught:
                parse_config(doc)
            assert str(caught.value) == message

    def test_null_for_non_optional_key_named(self):
        with pytest.raises(ConfigError, match="system.gamma_20"):
            parse_config({"system": {"gamma_20": None}})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"format": "xml"})
        with pytest.raises(ConfigError):
            parse_config({"sweep": {"quantity": "alpha"}})
        with pytest.raises(ConfigError):
            parse_config({"system": {"gamma_20": -1.0}})

    def test_file_loading(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"system": {"nu_c": 42.0}}))
        assert load_config(str(path)).system.nu_c == 42.0
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(bad))

    def test_bundled_tradeoff_config(self):
        path = REFERENCE.parent / "configs" / "fig2.json"
        config = load_config(str(path))
        assert config.sweep.quantity == "delta_target"
        assert len(config.sweep.constraint_sets) == 3
        modes = {cs.mode for cs in config.sweep.constraint_sets}
        assert modes == {"two-qubit", "one-qubit"}


class TestCliLibraryEquivalence:
    def test_eval_matches_library_bit_exact(self):
        config = parse_config({"system": {"omega_a_tilde": 0.5, "nu_c": 20.0,
                                          "gamma_10": 1e-5},
                               "eval": {"phi": 1.5, "delta": 0.1, "n_b": 50}})
        report = cmd_eval(config)
        p = config.system
        phi = 1.5
        scale = p.omega_a_tilde
        assert report["w10_re"] == w10(p).real / scale
        assert report["w10_im"] == w10(p).imag / scale
        assert report["tau_eff"] == tau_eff(p, phi)
        assert report["optimal_nu_c"] == optimal_detuning(p) / scale
        nu_asym, tau_asym = asymptotic_design(p, phi)
        assert report["asymptotic_nu_c"] == nu_asym / scale
        assert report["asymptotic_tau_eff"] == tau_asym
        assert report["fock_dephasing_bound"] == fock_dephasing_bound(0.1, phi, 50)
        assert report["gate_time_norm"] == gate_time(p, phi)
        assert report["kerr_phase_rate"] == kerr_approximation(p) / scale

    def test_raw_flag_skips_normalization(self):
        doc = {"system": {"omega_a_tilde": 0.5, "nu_c": 20.0, "gamma_10": 1e-5}}
        normalized = cmd_eval(parse_config(doc))
        raw = cmd_eval(parse_config({**doc, "raw": True}))
        assert raw["w10_re"] == normalized["w10_re"] * 0.5

    def test_design_forward_matches_library(self):
        config = parse_config({"design": {"gamma_10": 1e-5, "delta_target": None}})
        report = cmd_design(config)
        design, budget = optimize_design(1e-5, config.constraints)
        assert report["alpha_b"] == design.alpha_b
        assert report["nu_c_over_omega_a"] == design.nu_c
        assert report["time_norm"] == design.time_norm
        assert report["delta_total"] == budget.delta_total

    def test_design_needs_exactly_one_mode(self):
        with pytest.raises(ConfigError):
            cmd_design(parse_config({"design": {"gamma_10": 1e-5,
                                                "delta_target": 0.2}}))
        with pytest.raises(ConfigError):
            cmd_design(parse_config({"design": {"gamma_10": None,
                                                "delta_target": None}}))


class TestMainEntry:
    def test_eval_json_stdout(self, capsys):
        assert main(["eval"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "w10_re" in report and "gate_time_norm" in report
        # printed numbers parse back to the library values bit for bit
        p = parse_config({}).system
        assert report["w10_re"] == w10(p).real / p.omega_a_tilde
        assert report["gate_time_norm"] == gate_time(p, math.pi)

    def test_eval_csv(self, capsys):
        assert main(["eval", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("w10_re,")
        assert len(lines) == 2

    def test_eval_verbose_reports_both_error_forms(self, capsys):
        assert main(["eval", "--verbose"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "decoherence_error_overlap_form" in report
        assert "decoherence_error_dual_rail_form" in report

    @pytest.mark.parametrize("argv", [
        ["design", "--gamma10", "1e-6"],
        ["check-oracle"],
        COMPARE.CASES["sweep-two-point.json"],
    ], ids=["design", "check-oracle", "sweep-two-point"])
    def test_verbose_changes_no_other_output(self, tmp_path, capsys, argv):
        # --verbose adds fields to eval alone: elsewhere stdout, and the
        # --out file, are byte for byte those of the run without it
        two_point = tmp_path / "two-point.json"
        two_point.write_text(json.dumps(COMPARE.TWO_POINT_CONFIG))
        argv = [a.format(two_point=two_point) for a in argv]
        out = tmp_path / "out"
        outputs = []
        for verbose in ([], ["--verbose"]):
            assert main(argv + verbose) == 0
            stdout = capsys.readouterr().out
            assert main(argv + verbose + ["--out", str(out)]) == 0
            outputs.append((stdout, capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:divide by zero:RuntimeWarning")
    def test_kerr_at_zero_detuning_exits_3(self, tmp_path, capsys):
        # an |Omega_b|^2 that overflows is a degenerate response, not a
        # traceback; at |Omega~_a| = 0 the normalised form, which divides
        # every rate by it, stops at tau_eff's ZeroPhaseRate as --raw does
        cfg = tmp_path / "c.json"
        for system, error, raw in (({"nu_c": 0.0}, "DivisionByZero", []),
                                   ({"omega_b_tilde": 1e160}, "DegenerateDenominator", []),
                                   ({"omega_a_tilde": 0.0}, "ZeroPhaseRate: tau_eff", []),
                                   ({"omega_a_tilde": 0.0}, "ZeroPhaseRate: tau_eff", ["--raw"])):
            cfg.write_text(json.dumps({"system": system}))
            assert main(["eval", "--config", str(cfg), *raw]) == 3
            assert error in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "design", "sweep", "check-oracle"])
    @pytest.mark.parametrize("block", [{"delta": 1e300}, {"phi": 1e-300}],
                             ids=["delta=1e300", "phi=1e-300"])
    def test_overflowing_dephasing_bound_is_inf(self, tmp_path, capsys, command, block):
        # (delta / phi)^2 overflows: every command validates the eval block
        # and runs, and eval writes the bound as null in JSON, inf in CSV
        assert _run(tmp_path, {"eval": block}, command) == 0
        if command == "eval":
            assert _strict_json(capsys.readouterr().out)["fock_dephasing_bound"] is None
            assert _run(tmp_path, {"eval": block, "format": "csv"}, command) == 0
            header, row = capsys.readouterr().out.split()
            assert dict(zip(header.split(","), row.split(",")))["fock_dephasing_bound"] == "inf"

    def test_design_forward_flag(self, capsys):
        assert main(["design", "--gamma10", "1e-5"]) == 0
        report = _strict_json(capsys.readouterr().out)
        assert report["gamma_10_over_omega_a"] == 1e-5
        assert report["delta_total"] > 0

    def test_design_block_naming_gamma_10_matches_flag(self, tmp_path, capsys):
        # a design block that names one key leaves the other null
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"design": {"gamma_10": 1e-5}}))
        assert main(["design", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main(["design", "--gamma10", "1e-5"]) == 0
        assert capsys.readouterr().out == from_config

    def test_sweep_single_point(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"sweep": {"quantity": "gamma_10", "values": [1e-6]}}))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert "rows=1 failures=0" in capsys.readouterr().out

    @pytest.mark.parametrize("command, doc, nulls, values", [
        ("eval", {"system": {"omega_a_tilde": 1e160}},
         ("w10_re", "w10_im", "tau_eff", "optimal_nu_c", "asymptotic_nu_c",
          "asymptotic_tau_eff", "gate_time_norm", "kerr_phase_rate"),
         {"fock_dephasing_bound": fock_dephasing_bound(0.2, PI, 100)}),
        ("sweep", {"constraints": {"alpha_b_range": [1, 10]},
                   "sweep": {"quantity": "delta_target", "values": [0.001]}},
         ("gamma_10_over_omega_a", "delta_total", "delta_decoherence", "delta_spread",
          "nu_c_over_omega_a", "alpha_b", "time_norm"),
         {"suppression": 1.0, "mode": "two-qubit", "status": "NotAttainable"}),
    ], ids=["eval-overflow", "sweep-failed-row"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_written_as_null(self, tmp_path, capsys, command, doc, nulls, values):
        # an overflowed eval and a failed sweep row both hold non-finite
        # floats; strict JSON writes them as null, not NaN or Infinity
        assert _run(tmp_path, doc, command) == 0
        payload = _strict_json(capsys.readouterr().out)
        report = payload[0] if command == "sweep" else payload
        assert [k for k in nulls if report[k] is not None] == []
        assert {k: report[k] for k in values} == values

    def test_check_oracle_violation_column(self, tmp_path, capsys):
        # only the violating 0.1 row has the key; the CSV header still names it
        assert _run(tmp_path, _ORACLE_VIOLATION, "check-oracle", "--format", "csv") == 4
        header, first, second = capsys.readouterr().out.strip().split("\n")
        column = header.split(",").index("bound_violation")
        assert first.split(",")[column] == ""
        assert second.split(",")[column] == "true"
        assert _run(tmp_path, _ORACLE_VIOLATION, "check-oracle") == 4
        reports = _strict_json(capsys.readouterr().out)
        assert "bound_violation" not in reports[0]
        assert reports[1]["bound_violation"] is True

    def test_sweep_unwritable_out_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"sweep": {"quantity": "gamma_10", "values": [1e-6]}}))
        assert main(["sweep", "--config", str(cfg),
                     "--out", "/nonexistent/dir/rows.csv"]) == 2

    def test_non_finite_flag_exits_2(self, capsys):
        assert main(["design", "--gamma10", "nan"]) == 2
        assert "--gamma10 must be finite" in capsys.readouterr().err
        assert main(["design", "--delta", "inf"]) == 2
        assert main(["design", "--delta", "0.2", "--suppression", "nan"]) == 2

    def test_out_of_range_design_target_exits_2(self, tmp_path, capsys):
        assert main(["design", "--delta", "0.7"]) == 2
        assert "delta_target" in capsys.readouterr().err
        assert main(["design", "--gamma10", "-1"]) == 2
        assert "gamma_10" in capsys.readouterr().err
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"design": {"delta_target": 0.7}}))
        assert main(["design", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity, values", [
        ("delta_target", [0.2, 0.7]), ("gamma_10", [0.0]), ("gamma_10", [1e-6, -1e-6]),
    ], ids=["delta_target=0.7", "gamma_10=0", "gamma_10=-1e-6"])
    def test_out_of_range_sweep_grid_exits_2(self, tmp_path, capsys, quantity, values):
        # a grid value is checked against the range of the design block's
        # key of the same name, before any point runs
        doc = {"sweep": {"quantity": quantity, "values": values}}
        assert _run(tmp_path, doc, "sweep") == 2
        err = capsys.readouterr().err
        assert "invalid 'sweep' block" in err and quantity in err

    @pytest.mark.parametrize("flags", [["--gamma10", "1e-6"], ["--delta", "0.2"]])
    def test_failed_seed_falls_back(self, tmp_path, capsys, flags):
        # at suppression 1e-200 both closed-form seeds divide by an
        # underflowed 4 c^2 gamma_10; the searches run from their unseeded
        # brackets and report the optimum at the alpha_b range's edge
        doc = {"constraints": {"suppression": 1e-200}}
        assert _run(tmp_path, doc, "design", *flags) == 3
        err = capsys.readouterr().err
        assert err.startswith("NoConvergence") and "edge" in err

    def test_both_design_flags_exit_2(self, capsys):
        # the flags build one design block, which holds at most one key
        assert main(["design", "--delta", "0.2", "--gamma10", "1e-6"]) == 2
        err = capsys.readouterr().err
        assert "delta_target" in err and "gamma_10" in err

    @pytest.mark.parametrize("command", ["design", "sweep", "check-oracle"])
    def test_raw_flag_on_eval_only(self, capsys, command):
        # only eval reports rates that --raw could rescale
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--raw"])
        assert exit_info.value.code == 2
        assert "--raw" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["design", "--gamma10", "1e-6"],
                                         ["design", "--delta", "0.2"], ["sweep"]])
    def test_zero_alpha_b_floor_exits_2(self, tmp_path, capsys, command):
        # alpha_b is searched on a log axis, so the range must start above 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"constraints": {"alpha_b_range": [0, 0.5]}}))
        assert main([*command, "--config", str(cfg)]) == 2
        assert "alpha_b_range" in capsys.readouterr().err

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        # Python's json accepts NaN and Infinity; the config parser must not
        cfg = tmp_path / "c.json"
        cfg.write_text('{"system": {"gamma_10": NaN}}')
        assert main(["eval", "--config", str(cfg)]) == 2
        assert "system.gamma_10" in capsys.readouterr().err
        for doc in ('{"constraints": {"alpha_b_range": [1, Infinity]}}',
                    '{"sweep": {"values": [0.1, NaN]}}',
                    '{"eval": {"n_b": Infinity}}'):
            cfg.write_text(doc)
            assert main(["eval", "--config", str(cfg)]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {"nu_z": 1.0}}))
        assert main(["eval", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command, block, key, value", [
        ("check-oracle", "check_oracle", "tol", 1e-10),
        ("eval", "system", "n_atoms", 7),
        ("design", "constraints", "nu_c_range", [1, 2]),
    ], ids=["check_oracle.tol", "system.n_atoms", "constraints.nu_c_range"])
    def test_retired_oracle_tol_key_exits_2(self, tmp_path, capsys, command, block, key, value):
        # the exact propagator has no tolerance, the atom number changed no
        # output and the nu_c search has no settable range; old configs fail
        # by name
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({block: {key: value}}))
        assert main([command, "--config", str(cfg)]) == 2
        assert f"{block}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc", [
        ("eval", {"eval": {"n_b": 0}}),
        ("eval", {"eval": {"n_b": -3}}),
        ("eval", {"eval": {"delta": 0.0}}),
        ("eval", {"eval": {"phi": 0.0}}),
        ("check-oracle", {"check_oracle": {"omega_a_scan": [-1]}}),
        ("check-oracle", {"check_oracle": {"t_final": -5}}),
        # a design block is checked whichever command runs
        ("eval", {"design": {"delta_target": 0.7}}),
        ("sweep", {"design": {"delta_target": 0.7}}),
        ("check-oracle", {"design": {"delta_target": 0.7}}),
        ("design", {"constraints": {"omega_a_over_gamma_20": 0}}),
        ("design", {"constraints": {"omega_b_sq_over_omega_c_sq": -1}}),
        ("design", {"constraints": {"alpha_c_over_alpha_b": 0}}),
    ], ids=["eval.n_b=0", "eval.n_b=-3", "eval.delta=0", "eval.phi=0",
            "check_oracle.omega_a_scan=-1", "check_oracle.t_final=-5",
            "eval+design.delta_target=0.7", "sweep+design.delta_target=0.7",
            "check-oracle+design.delta_target=0.7",
            "constraints.omega_a_over_gamma_20=0",
            "constraints.omega_b_sq_over_omega_c_sq=-1",
            "constraints.alpha_c_over_alpha_b=0"])
    def test_out_of_range_option_exits_2(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 2
        assert f"invalid '{next(iter(doc))}' block" in capsys.readouterr().err

    def test_check_oracle_no_probe(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"check_oracle": {"omega_a_scan": [0.0], "t_final": 100.0}}))
        assert main(["check-oracle", "--config", str(cfg)]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["max_rel_deviation"] < 1e-8

    def test_check_oracle_no_probe_default_time(self, tmp_path, capsys):
        # gate_time raises ZeroPhaseRate at |Omega_a| = 0, so the run time
        # falls back to 200 / gamma_20
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"check_oracle": {"omega_a_scan": [0.0]}}))
        assert main(["check-oracle", "--config", str(cfg)]) == 0
        report, = json.loads(capsys.readouterr().out)
        assert report["t_final"] == 200.0
        assert report["max_rel_deviation"] == 0.0

    def test_check_oracle_stiff_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"system": {"gamma_20": 1e12, "gamma_10": 1.0, "nu_c": 3e13},
             "check_oracle": {"t_final": 1.0}}))
        assert main(["check-oracle", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "InvalidInput" in err and "underflows" in err


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_AMPLITUDE = st.one_of(st.just(0.0), _POSITIVE)
_SYSTEM_BLOCK = st.fixed_dictionaries({}, optional={
    **_SYSTEM_FIELDS, "omega_a_tilde": _AMPLITUDE, "omega_b_tilde": _AMPLITUDE,
    "omega_c_tilde": _AMPLITUDE})
_EVAL_BLOCK = st.fixed_dictionaries({}, optional={
    "phi": _ANY_FLOAT, "delta": _ANY_FLOAT, "n_b": st.integers(-2, 10 ** 6),
    "kerr": st.booleans()})
# bounded, so that no one-qubit double sum grows large
_BOUNDED_CONSTRAINTS = st.fixed_dictionaries({}, optional={
    "omega_a_over_gamma_20": st.floats(0.1, 10.0),
    "omega_b_sq_over_omega_c_sq": st.floats(0.1, 10.0),
    "suppression": st.floats(1e-3, 10.0), "phi": st.floats(0.1, 2 * PI),
    "alpha_c_over_alpha_b": st.floats(1.0, 20.0),
    "mode": st.sampled_from(["two-qubit", "one-qubit"]),
})
_GAMMA = st.floats(1e-12, 1e-1)
_COMMON = {"format": st.sampled_from(["json", "csv"]), "verbose": st.booleans(),
           "raw": st.booleans()}
_EVAL_DOCS = st.fixed_dictionaries({}, optional={
    "system": _SYSTEM_BLOCK, "eval": _EVAL_BLOCK, **_COMMON})
_DESIGN_DOCS = st.fixed_dictionaries({}, optional={
    "system": _SYSTEM_BLOCK, "eval": _EVAL_BLOCK,
    "design": st.one_of(
        st.fixed_dictionaries({"delta_target": st.one_of(_TARGET, _ANY_FLOAT)}),
        st.fixed_dictionaries({"gamma_10": st.one_of(_GAMMA, _ANY_FLOAT)})),
    "sweep": st.one_of(*(st.fixed_dictionaries({"quantity": st.just(quantity)}, optional={
        "values": st.lists(values, min_size=1, max_size=3),
        "constraint_sets": st.lists(_BOUNDED_CONSTRAINTS, max_size=2),
    }) for quantity, values in (("gamma_10", _GAMMA), ("delta_target", _TARGET)))),
    **_COMMON})


class TestNoTraceback:
    """`main` ends every run with an exit code: a config, math-domain or
    oracle error is reported, never raised."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=st.one_of(st.tuples(st.sampled_from(["eval", "check-oracle"]), _EVAL_DOCS),
                          st.tuples(st.sampled_from(["design", "sweep"]), _DESIGN_DOCS)))
    def test_every_config_exits_with_a_code(self, tmp_path_factory, case):
        # eval and check-oracle take any system (amplitudes may be 0) and
        # eval options over the whole finite range; design and sweep take
        # the default constraints, their own blocks and bounded constraint
        # sets
        command, doc = case
        cfg = tmp_path_factory.getbasetemp() / "no-traceback.json"
        cfg.write_text(json.dumps(doc))
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings()):
            warnings.simplefilter("ignore")
            code = main([command, "--config", str(cfg)])
        assert code in (0, 2, 3, 4)


class TestInProcessCalls:
    """Many `main` calls in one process share one parser and nothing else."""

    def test_mixed_sequence_matches_references(self, tmp_path):
        def run(name, *argv):
            return main([*argv, "--out", str(tmp_path / name)])

        assert run("raw.json", "eval", "--raw", "--verbose") == 0
        assert run("eval.json", "eval") == 0
        assert run("design-delta0.2-s1e-3.json",
                   "design", "--delta", "0.2", "--suppression", "1e-3") == 0
        with pytest.raises(SystemExit) as exc:
            main(["design", "--delta", "--out", str(tmp_path / "argparse.json")])
        assert exc.value.code == 2
        assert run("config.json", "design", "--delta", "0.2", "--gamma10", "1e-6") == 2
        assert run("design-gamma10-1e-6.csv",
                   "design", "--gamma10", "1e-6", "--format", "csv") == 0
        assert run("check-oracle.json", "check-oracle") == 0
        assert not (tmp_path / "argparse.json").exists()
        assert not (tmp_path / "config.json").exists()
        for name in ("eval.json", "design-delta0.2-s1e-3.json",
                     "design-gamma10-1e-6.csv", "check-oracle.json"):
            assert (tmp_path / name).read_bytes() == (REFERENCE / name).read_bytes(), name

    def test_parser_built_once(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        out = str(tmp_path / "eval.json")
        assert main(["eval", "--out", out]) == 0
        assert built == ["eitgate", "eitgate eval", "eitgate design", "eitgate sweep",
                         "eitgate check-oracle"]
        for _ in range(9):
            assert main(["eval", "--out", out]) == 0
        assert len(built) == 5
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: eitgate")


class TestCheckOracle:
    def test_default_scan_passes_hard_bound(self):
        config = parse_config({"check_oracle": {"omega_a_scan": [0.1]}})
        reports, ok = cmd_check_oracle(config)
        assert ok
        assert reports[0]["max_rel_deviation"] < 0.01
        assert reports[0]["regime_flag"] == "in"

    def test_matches_library(self):
        config = parse_config({"check_oracle": {"omega_a_scan": [0.3],
                                                "t_final": 500.0}})
        reports, _ = cmd_check_oracle(config)
        from dataclasses import replace
        p = replace(config.system, omega_a_tilde=0.3 * config.system.gamma_20)
        rep = verify_qss(p, 500.0)
        assert reports[0]["max_rel_deviation"] == rep.max_rel_deviation
        assert reports[0]["final_phase_error"] == rep.final_phase_error


class TestExport:
    """The sweep table through main: column order, precision, JSON fields."""

    @pytest.fixture(scope="class")
    def rows(self):
        spec = SweepSpec(quantity="gamma_10", values=(1e-6,))
        return sweep(spec, [OptimizationConstraints(suppression=1.0)])

    _DOC = {"sweep": {"quantity": "gamma_10", "values": [1e-6]}}

    def test_csv_shape_and_precision(self, tmp_path, capsys, rows):
        assert _run(tmp_path, self._DOC, "sweep", "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert tuple(lines[0].split(",")) == SWEEP_COLUMNS
        cells = lines[1].split(",")
        assert len(cells) == len(SWEEP_COLUMNS)
        # 17 significant digits round-trip the double exactly
        assert float(cells[0]) == rows[0].gamma_10_over_omega_a
        assert float(cells[1]) == rows[0].delta_total
        assert cells[-2] == "two-qubit"
        assert cells[-1] == "ok"

    def test_json_matches_csv_fields(self, tmp_path, capsys, rows):
        assert _run(tmp_path, self._DOC, "sweep", "--format", "json") == 0
        payload = _strict_json(capsys.readouterr().out)
        assert tuple(payload[0]) == SWEEP_COLUMNS
        assert payload[0]["delta_total"] == rows[0].delta_total
