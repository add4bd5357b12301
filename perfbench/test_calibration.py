"""The speed factor's kernel is timed apart from the pass it interrupts."""

import statistics
import time

import calibration


def test_clock_leaves_kernel_time_out():
    cal = calibration.Calibration()
    t0 = cal.clock()
    cal.sample()
    cal.sample()
    assert cal.clock() - t0 < 0.1 * sum(cal.samples)
    assert cal.factor() == calibration.REFERENCE_S / statistics.median(cal.samples)


def test_timer_samples_only_inside_the_block():
    cal = calibration.Calibration()
    with cal.interleaved():
        deadline = time.perf_counter() + 2.5 * calibration.INTERVAL_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    taken = len(cal.samples)
    time.sleep(1.5 * calibration.INTERVAL_S)
    assert taken >= 2
    assert len(cal.samples) == taken
