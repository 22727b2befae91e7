"""Run one workload's rounds of jobs in this fresh, single-threaded process.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds the checkout root, the jobs of one round, the run length, the
trace flag and the paths to write to.  Every job is one in-process
`eitgate.cli.main` call whose output goes to a file in the run directory.
Whole rounds run until the next one would end past the run length; at least
one always runs.  The machine-speed probe (`pace.py`) samples throughout, and
every job time is reported both raw and adjusted to the reference speed.
The result (job and round times, exit codes, peak RSS, and for a traced run
the per-layer metrics) is written as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from pace import Probe, adjusted, speed


def _import_eitgate(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import eitgate
    from eitgate import (analytic_design, cli, coherent_gate, core_model,
                         design_optimizer, lindblad_oracle)
    if not os.path.abspath(eitgate.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"eitgate imported from {eitgate.__file__}, not from {src}")
    return core_model, analytic_design, coherent_gate, design_optimizer, lindblad_oracle, cli


def _argvs(jobs: list[dict], run_dir: str) -> list[list[str]]:
    argvs = []
    for j, job in enumerate(jobs):
        argv = list(job["argv"])
        if job["config"] is not None:
            path = os.path.join(run_dir, f"config_{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job["config"], fh)
            argv += ["--config", path]
        argvs.append(argv)
    return argvs


def run(spec: dict) -> dict:
    modules = _import_eitgate(spec["root"])
    cli = modules[-1]
    tracer = None
    if spec["trace"]:
        from layers import instrument
        from tracer import Tracer
        tracer = Tracer()
        instrument(tracer, modules)
    argvs = _argvs(spec["jobs"], spec["run_dir"])
    raw_s, job_s, round_s, speeds, codes = [], [], [], [], []
    probe = Probe().start()
    start = time.perf_counter()
    while True:
        r = len(round_s)
        round_s.append(0.0)
        for j, argv in enumerate(argvs):
            out = os.path.join(spec["run_dir"], f"out_r{r}_j{j}.txt")
            probe.take()
            t_job = time.perf_counter()
            try:
                code = cli.main(argv + ["--out", out])
            except Exception:       # a crash counts as a failed operation
                traceback.print_exc()
                code = -1
            raw_s.append(time.perf_counter() - t_job)
            samples = probe.take()
            job_s.append(adjusted(raw_s[-1], samples))
            speeds.append(speed(samples))
            round_s[r] += job_s[-1]
            codes.append(code)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(round_s) > spec["seconds"]:
            break
    probe.stop()
    result = {"job_s": job_s, "raw_s": raw_s, "round_s": round_s, "speeds": speeds,
              "codes": codes,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        from layers import layer_metrics
        tracer.unpatch()
        metrics, missing = layer_metrics(tracer, len(round_s))
        result["layers"] = metrics
        result["missing"] = missing
        result["missing_names"] = tracer.missing
        result["spans"] = len(tracer.names)
        tracer.write(spec["spans_path"])
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
