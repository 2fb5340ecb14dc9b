"""tests/harness/test_fleet_runner.py under arrays_at_every_width."""

from tests.harness.test_fleet_runner import *  # noqa: F401,F403
