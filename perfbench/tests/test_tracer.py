"""Self-time arithmetic and patching of the benchmark's tracer."""

import itertools
import types

import layers
from tracer import Tracer, self_times


def test_self_time_of_a_synthetic_nest():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),      # overlaps b: the union [10, 60] is covered once
        ("b", 30, 60, 0),
        ("c", 70, 80, 0),
        ("d", 15, 20, 1),
        ("e", 95, 130, 0),     # runs past its parent: only [95, 100] counts
    ]
    assert self_times(spans) == [100 - 50 - 10 - 5, 30 - 5, 30, 10, 5, 35]


def test_self_times_sum_to_root_duration_when_nested():
    spans = [("root", 0, 50, -1), ("x", 5, 25, 0), ("y", 10, 20, 1), ("z", 30, 45, 0)]
    assert sum(self_times(spans)) == 50


def _fake_module():
    mod = types.ModuleType("pkg.fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(mod.outer_again(x))

    def outer_again(x):
        return x

    mod.leaf, mod.outer, mod.outer_again = leaf, outer, outer_again
    return mod


def test_patch_records_spans_parents_and_reentry():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: next(ticks))
    mod = _fake_module()
    originals = (mod.leaf, mod.outer)
    tracer.patch(mod, "leaf", tracer.spanned("layer.leaf"))
    tracer.patch(mod, "outer", tracer.spanned("layer.outer"))
    tracer.patch(mod, "outer_again", tracer.spanned("layer.outer"))   # same name: passes through
    tracer.patch(mod, "gone", tracer.spanned("layer.gone"))
    assert mod.outer(1) == 2
    assert tracer.names == ["layer.outer", "layer.leaf"]
    assert tracer.parents == [-1, 0]
    assert tracer.missing == ["fake.gone"]
    assert self_times(tracer.spans()) == [3 - 1, 1]
    tracer.unpatch()
    assert (mod.leaf, mod.outer) == originals


def test_after_hook_sees_the_caller_as_innermost():
    tracer = Tracer()
    mod = _fake_module()
    seen = []
    tracer.patch(mod, "leaf", tracer.spanned("layer.leaf",
                                             lambda t, args, res: seen.append(t.innermost())))
    tracer.patch(mod, "outer", tracer.spanned("layer.outer"))
    mod.outer(0)
    mod.leaf(0)
    assert seen == ["layer.outer", None]


def test_every_metric_missing_when_no_name_exists():
    tracer = Tracer()
    empty = [types.ModuleType(f"eitgate.{m}") for m in
             ("core_model", "analytic_design", "coherent_gate", "design_optimizer",
              "lindblad_oracle", "cli")]
    layers.instrument(tracer, empty)
    values, missing = layers.layer_metrics(tracer, rounds=1)
    assert values == {}
    assert missing == list(layers.METRICS)
