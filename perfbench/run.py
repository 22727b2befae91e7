"""Benchmark of eitgate: one workload per run, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload invert-2q --seed 0 --seconds 30 --trace 0

Workloads: invert-2q, forward-1q, oracle (see README.md).  The jobs run in a
fresh single-threaded worker process; this process measures set-up time,
checks every output against independent references, and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
a traced worker.  Spans of a traced run are written to
.bench_out/spans-<workload>-seed<seed>.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, HERE)
from pace import adjusted  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(env: dict) -> float:
    """Median time from launching a fresh interpreter until `import eitgate` is done.

    Each time is adjusted to the reference speed by the probe, which the fresh
    interpreter starts before it imports eitgate.
    """
    code = ("import json, sys, time; sys.path.insert(0, sys.argv[1]); import pace; "
            "probe = pace.Probe().start(); import eitgate; stamp = time.monotonic(); "
            "probe.stop(); samples = json.dumps(probe.take(), separators=(',', ':')); "
            "print(stamp, samples, eitgate.__file__)")
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code, HERE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        stamp, samples, path = proc.stdout.split(maxsplit=2)
        if not os.path.abspath(path.strip()).startswith(SRC + os.sep):
            raise SystemExit(f"set-up imported eitgate from {path.strip()}, not {SRC}")
        times.append(adjusted(float(stamp) - t0, json.loads(samples)))
    return statistics.median(times)


def run_worker(spec: dict, env: dict, run_dir: str) -> dict:
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(run_dir, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read())
        raise SystemExit(f"worker exited with code {proc.returncode}")
    with open(spec["result_path"], encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload: str, jobs: list[dict], result: dict, run_dir: str):
    """(checks passed, failure lines); repeats must match round 0 byte for byte."""
    from checks import CHECKS
    check = CHECKS[workload]
    passed, failures = 0, []
    n = len(jobs)
    for k, code in enumerate(result["codes"]):
        if code != 0:
            continue
        r, j = divmod(k, n)
        with open(os.path.join(run_dir, f"out_r{r}_j{j}.txt"), encoding="utf-8") as fh:
            text = fh.read()
        if r == 0:
            try:
                items = check(jobs[j], text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                items = [("output readable", False, f"{type(exc).__name__}: {exc}")]
        else:
            with open(os.path.join(run_dir, f"out_r0_j{j}.txt"), encoding="utf-8") as fh:
                items = [("repeat identical to round 0", fh.read() == text, f"job {j}")]
        for name, ok, detail in items:
            if ok:
                passed += 1
            else:
                failures.append(f"job {j} round {r}: {name}: {detail}")
    return passed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eitgate", "__init__.py")):
        print(f"no eitgate sources under {SRC}", file=sys.stderr)
        return 2
    env = _env()
    jobs = make_jobs(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_DIR)
    try:
        setup_s = None if args.trace else measure_setup(env)
        spec = {"root": ROOT, "jobs": jobs, "seconds": args.seconds,
                "trace": bool(args.trace), "run_dir": run_dir,
                "result_path": os.path.join(run_dir, "result.json"),
                "spans_path": os.path.join(
                    OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")}
        result = run_worker(spec, env, run_dir)
        passed, failures = check_outputs(args.workload, jobs, result, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(result["codes"])
    failed = sum(1 for c in result["codes"] if c != 0)
    rounds = len(result["round_s"])
    print(f"{args.workload} seed {args.seed}: {rounds} round(s) of {len(jobs)} jobs, "
          f"{failed} of {attempted} failed; output checks: {passed} passed, "
          f"{len(failures)} failed")
    print(f"raw job time median {statistics.median(result['raw_s']):.3f} s; machine speed "
          f"{min(result['speeds']):.3f} to {max(result['speeds']):.3f} of the reference")
    for line in failures:
        print(f"  FAILED {line}")
    if args.trace:
        metrics = dict(result["layers"])
        metrics["trace.wall_s"] = {"value": statistics.median(result["round_s"]), "unit": "s"}
        metrics["trace.spans"] = {"value": result["spans"] / rounds, "unit": "count"}
        if result["missing_names"]:
            print("missing wrapped names: " + ", ".join(result["missing_names"]))
        if result["missing"]:
            print("missing per-layer metrics: " + ", ".join(result["missing"]))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(result["round_s"]), "unit": "s"},
            "job_s_p50": {"value": statistics.median(result["job_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
