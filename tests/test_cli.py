import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitgate import (OptimizationConstraints, PhaseTarget, SweepSpec, asymptotic_design,
                     fock_dephasing_bound, gate_time, kerr_approximation,
                     optimal_detuning, optimize_design, sweep, tau_eff, verify_qss, w10)
from eitgate.cli import (ConfigError, cmd_check_oracle, cmd_design,
                         cmd_eval, cmd_sweep, load_config, main,
                         parse_config)

PI = math.pi

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
        from pathlib import Path
        path = Path(__file__).resolve().parent.parent / "configs" / "fig2.json"
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
        target = PhaseTarget(1.5)
        scale = p.omega_a_tilde
        assert report["w10_re"] == w10(p).real / scale
        assert report["w10_im"] == w10(p).imag / scale
        assert report["tau_eff"] == tau_eff(p, target)
        assert report["optimal_nu_c"] == optimal_detuning(p) / scale
        nu_asym, tau_asym = asymptotic_design(p, target)
        assert report["asymptotic_nu_c"] == nu_asym / scale
        assert report["asymptotic_tau_eff"] == tau_asym
        assert report["fock_dephasing_bound"] == fock_dephasing_bound(0.1, target, 50)
        assert report["gate_time_norm"] == gate_time(p, target)
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
        assert report["gate_time_norm"] == gate_time(p, PhaseTarget(math.pi))

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_kerr_at_zero_detuning_exits_3(self, tmp_path, capsys):
        # an |Omega_b|^2 that overflows is a degenerate response, not a traceback
        cfg = tmp_path / "c.json"
        for system, error in (({"nu_c": 0.0}, "DivisionByZero"),
                              ({"omega_b_tilde": 1e160}, "DegenerateDenominator")):
            cfg.write_text(json.dumps({"system": system}))
            assert main(["eval", "--config", str(cfg)]) == 3
            assert error in capsys.readouterr().err

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
         {"fock_dephasing_bound": fock_dephasing_bound(0.2, PhaseTarget(PI), 100)}),
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
    ], ids=["eval.n_b=0", "eval.n_b=-3", "eval.delta=0", "eval.phi=0",
            "check_oracle.omega_a_scan=-1", "check_oracle.t_final=-5",
            "eval+design.delta_target=0.7", "sweep+design.delta_target=0.7",
            "check-oracle+design.delta_target=0.7"])
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

    def test_check_oracle_stiff_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"system": {"gamma_20": 1e12, "gamma_10": 1.0, "nu_c": 3e13},
             "check_oracle": {"t_final": 1.0}}))
        assert main(["check-oracle", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "InvalidInput" in err and "underflows" in err


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
