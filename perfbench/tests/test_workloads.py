"""Workload inputs: reproducible per seed, stratified, the quoted points at seed 0."""

import math

import pytest

import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_jobs(name):
    assert workloads.make_jobs(name, 7) == workloads.make_jobs(name, 7)
    assert workloads.make_jobs(name, 7) != workloads.make_jobs(name, 8)


def test_seed_zero_holds_the_quoted_points():
    argvs = [job["argv"] for job in workloads.make_jobs("invert-2q", 0)]
    assert argvs == [["design", "--delta", "0.2", "--suppression", "1.0"],
                     ["design", "--delta", "0.2", "--suppression", "0.001"]]


@pytest.mark.parametrize("seed", range(5))
def test_forward_draws_one_gamma_per_stratum(seed):
    logs = sorted(math.log10(float(j["argv"][2]))
                  for j in workloads.make_jobs("forward-1q", seed))
    lo, hi = workloads.FORWARD_LOG10_GAMMA
    width = (hi - lo) / workloads.FORWARD_JOBS
    assert [int((x - lo) // width) for x in logs] == list(range(workloads.FORWARD_JOBS))
