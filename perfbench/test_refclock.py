"""Tests of the reference-time conversion.

Run with ``python3 -m pytest -q perfbench/test_refclock.py``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refclock  # noqa: E402

REF = refclock.PROBE_REF_S


def _clock(probes):
    c = refclock.RefClock()
    for start, duration in probes:
        c.starts.append(start)
        c.ends.append(start + duration)
    c._build()
    return c


def test_steady_speed_scales_wall_time_and_skips_probes():
    # every probe takes twice the reference time: the machine runs at half speed
    c = _clock([(0.0, 2 * REF), (1.0, 2 * REF), (2.0, 2 * REF)])
    t0, t1 = 0.5, 1.5  # spans the probe at 1.0, which does not count
    assert c.duration(t0, t1) == pytest.approx((1.0 - 2 * REF) / 2)
    assert c.duration(1.0, 1.0 + REF) == 0.0  # entirely inside a probe


def test_speed_change_applies_from_the_probe_that_saw_it():
    probes = [(0.0, REF), (1.0, REF), (2.0, REF), (3.0, 4 * REF), (4.0, 4 * REF), (5.0, 4 * REF)]
    c = _clock(probes)
    fast = c.duration(1.5, 1.9)
    slow = c.duration(4.5, 4.9)
    assert fast == pytest.approx(0.4)
    assert slow == pytest.approx(0.1)


def test_single_slow_probe_is_damped_by_its_neighbours():
    c = _clock([(0.0, REF), (1.0, 10 * REF), (2.0, REF)])
    assert c.duration(1.2, 1.8) == pytest.approx(0.6)


def test_conversion_is_monotone():
    c = _clock([(0.0, REF), (0.5, 3 * REF), (1.0, 2 * REF), (1.5, REF)])
    ts = [k / 100 for k in range(-10, 200)]
    converted = [c.convert(t) for t in ts]
    assert all(b >= a for a, b in zip(converted, converted[1:]))
