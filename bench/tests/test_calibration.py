"""Host-speed calibration: reported times are seconds of the nominal core."""

from __future__ import annotations

import pytest

from bench import report
from bench.protocol import CAL_CHUNKS, CAL_NOMINAL_S, calibrate, host_speed

WORKLOAD = "sim-classic"


def _records(chunk_s: float) -> list[dict]:
    """Two one-cell passes of 1 s wall / 0.9 s CPU and one set-up of 3 s, on
    a core that takes ``chunk_s`` per calibration chunk."""
    chunks = [chunk_s] * CAL_CHUNKS
    rows: list[dict] = []
    for repeat in (1, 2):
        rows.append({"kind": "cal", "repeat": repeat, "traced": False,
                     "wall_s": chunks, "cpu_s": chunks})
        rows.append({"kind": "cell", "repeat": repeat, "traced": False,
                     "cell": "c", "events": 1000, "wall_s": 1.0,
                     "cpu_s": 0.9})
        rows.append({"kind": "repeat", "repeat": repeat,
                     "misses_removed_pct": 30.0, "query_p50_us": 100.0})
    rows.append({"kind": "setup", "sample": 0, "setup_s": 3.0,
                 "cal_wall_s": chunks})
    return [dict(row, workload=WORKLOAD) for row in rows]


def test_calibrate_times_the_declared_number_of_chunks() -> None:
    sample = calibrate()
    assert len(sample["wall_s"]) == len(sample["cpu_s"]) == CAL_CHUNKS
    assert all(seconds > 0 for seconds in sample["wall_s"])
    assert host_speed([CAL_NOMINAL_S] * 3) == 1.0


def test_times_scale_with_host_speed_and_ratios_do_not() -> None:
    nominal = report.summarize(_records(CAL_NOMINAL_S))[WORKLOAD]
    slow = report.summarize(_records(2 * CAL_NOMINAL_S))[WORKLOAD]
    assert nominal["events_per_s"].value == pytest.approx(1000.0)
    assert nominal["cpu_us_per_event"].value == pytest.approx(900.0)
    assert nominal["setup_s"].value == pytest.approx(3.0)
    # The same raw times on a core at half speed are half the nominal time.
    assert slow["events_per_s"].value == pytest.approx(2000.0)
    assert slow["cpu_us_per_event"].value == pytest.approx(450.0)
    assert slow["setup_s"].value == pytest.approx(1.5)
    assert slow["query_p50_us"].value == pytest.approx(50.0)
    for name in ("cpu_cores_used", "misses_removed_pct"):
        assert slow[name].value == nominal[name].value
