"""The machine-speed probe's arithmetic and its sampling."""

import signal
import time

import pytest

import pace


def test_adjusted_removes_kernel_time_and_scales_to_the_reference():
    ref = pace.KERNEL_REF_S
    samples = [ref * 2] * 5             # the machine runs at half the reference speed
    assert pace.adjusted(10.0, samples) == pytest.approx((10.0 - 10 * ref) / 2)
    assert pace.speed(samples) == pytest.approx(0.5)


def test_adjusted_scales_by_the_median_sample():
    ref = pace.KERNEL_REF_S
    samples = [ref, ref, ref, 50 * ref, 0.5 * ref]
    assert pace.adjusted(1.0, samples) == pytest.approx(1.0 - sum(samples))
    assert pace.speed([ref, 3 * ref] * 3) == pytest.approx(0.5)


def test_too_few_samples_are_topped_up_by_timing_the_kernel():
    # fewer than half the samples, each ten times the reference: the kernel
    # timed now sets the median, so the speed is not the samples' 0.1
    slow = [10 * pace.KERNEL_REF_S] * (pace.MIN_SAMPLES // 2)
    assert pace.speed(slow) > 0.1
    assert pace.adjusted(0.0, []) == 0.0


def test_probe_samples_while_the_program_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = pace.Probe(interval=0.01).start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    probe.stop()
    samples = probe.take()
    assert len(samples) >= 10
    assert all(s > 0 for s in samples)
    assert probe.take() == []
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
