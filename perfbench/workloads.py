"""Job lists of the three workloads, made from the workload seed.

A round is the list of jobs one workload runs; a run repeats whole rounds.
Each job is one `eitgate` command line (without `--out`).  The jobs of a
round do the same work, so that their median filters out short slowdowns of
the machine, and every seed gives a round of the same work: an input that
sets a job's cost is held fixed or drawn from a narrow band, one draw per
equal stratum.  Seed 0 takes the stratum midpoints and the paper's quoted
points.
"""

from __future__ import annotations

import random

ONE_QUBIT_CONFIG = {"constraints": {"mode": "one-qubit"}}

INVERT_SUPPRESSIONS = (1.0, 1e-3)       # fig2 two-qubit series: solid, dashed
INVERT_DELTA = 0.2                      # the paper's quoted operating error
INVERT_DELTA_RANGE = (0.198, 0.202)   # +-1%: keeps the alpha_b candidate set

# the paper's default dephasing, where the Fock double sum is largest; the
# band is narrow so that every job does the same work (cost ~ gamma^-0.43)
FORWARD_JOBS = 10
FORWARD_LOG10_GAMMA = (-6.0, -5.98)

ORACLE_JOBS = 4
ORACLE_NU_C = 30.0                      # sets the integration cost; held fixed
ORACLE_LOG10_GAMMA = (-7.0, -5.0)
ORACLE_SCAN = (0.1, 0.3, 1.0)
ORACLE_OMEGA_BC = 3.0

WORKLOADS = ("invert-2q", "forward-1q", "oracle")


def _strata(rng: random.Random, seed: int, lo: float, hi: float, k: int) -> list[float]:
    """One value per equal stratum of [lo, hi]; the midpoints for seed 0."""
    width = (hi - lo) / k
    return [lo + width * (i + (0.5 if seed == 0 else rng.random())) for i in range(k)]


def make_jobs(workload: str, seed: int) -> list[dict]:
    """Jobs of one round.  Each job: {"argv": [...], "config": dict | None}.

    "config", when present, is written to a file and passed with --config.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "invert-2q":
        jobs = []
        for s in INVERT_SUPPRESSIONS:
            delta = INVERT_DELTA if seed == 0 else rng.uniform(*INVERT_DELTA_RANGE)
            jobs.append({"argv": ["design", "--delta", repr(delta),
                                  "--suppression", repr(s)], "config": None})
        return jobs
    if workload == "forward-1q":
        logs = _strata(rng, seed, *FORWARD_LOG10_GAMMA, FORWARD_JOBS)
        jobs = [{"argv": ["design", "--gamma10", repr(10.0 ** x)],
                 "config": ONE_QUBIT_CONFIG} for x in logs]
        rng.shuffle(jobs)
        return jobs
    if workload == "oracle":
        jobs = []
        for x in _strata(rng, seed, *ORACLE_LOG10_GAMMA, ORACLE_JOBS):
            config = {"system": {"omega_b_tilde": ORACLE_OMEGA_BC, "omega_c_tilde": ORACLE_OMEGA_BC,
                                 "gamma_20": 1.0, "gamma_40": 1.0,
                                 "nu_c": ORACLE_NU_C, "gamma_10": 10.0 ** x},
                      "check_oracle": {"omega_a_scan": list(ORACLE_SCAN)}}
            jobs.append({"argv": ["check-oracle"], "config": config})
        rng.shuffle(jobs)
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
