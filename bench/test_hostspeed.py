"""Tests for the host-speed probe.

    python3 -m pytest -q bench/test_hostspeed.py
"""

from __future__ import annotations

import signal

import pytest

from hostspeed import PROBE_REF_S, WINDOW, HostSpeed, clock


def _host(probes: list[tuple[float, float]]) -> HostSpeed:
    host = HostSpeed()
    host.samples = probes
    return host


def _calibration(duration: float) -> list[tuple[float, float]]:
    """WINDOW back-to-back probes ending at time 0."""
    return [(-(WINDOW - i) * duration, -(WINDOW - i - 1) * duration) for i in range(WINDOW)]


def test_reference_speed_reads_seconds():
    host = _host(_calibration(PROBE_REF_S) + [(1.0, 1.0 + PROBE_REF_S)])
    assert host.reference_seconds(0.0, 2.0) == pytest.approx(2.0 - PROBE_REF_S)
    assert host.probe_time(0.0, 2.0) == pytest.approx(PROBE_REF_S)


def test_half_speed_host_halves_the_time():
    slow = 2 * PROBE_REF_S
    host = _host(_calibration(slow) + [(1.0, 1.0 + slow)])
    assert host.reference_seconds(0.0, 2.0) == pytest.approx((2.0 - slow) / 2)


def test_speed_change_within_the_interval():
    # One probe a second; the host halves its speed from t = 10 on.  The
    # stretch that ends at a probe is scaled by the probes around it.
    fast, slow = PROBE_REF_S, 2 * PROBE_REF_S
    probes = _calibration(fast)
    probes += [(t, t + (fast if t < 10 else slow)) for t in range(1, 20)]
    host = _host(probes)
    assert host.reference_seconds(0.0, 5.0) == pytest.approx(5.0 - 4 * fast)
    late = host.reference_seconds(14.0 + slow, 19.0 + slow)
    assert late == pytest.approx((5.0 - 5 * slow) / 2)


def test_needs_a_sample():
    with pytest.raises(ValueError):
        _host([(3.0, 3.002)]).reference_seconds(0.0, 2.0)


def test_sampler_probes_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    host = HostSpeed()
    host.calibrate()
    t0 = clock()
    with host:
        while clock() - t0 < 0.35:
            pass
    t1 = clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.samples) >= WINDOW + 2
    assert 0 < host.reference_seconds(t0, t1)
    assert 0 < host.probe_time(t0, t1) < t1 - t0
