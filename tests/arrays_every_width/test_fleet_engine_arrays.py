"""tests/memsim/test_fleet_engine.py under arrays_at_every_width."""

from tests.memsim.test_fleet_engine import *  # noqa: F401,F403
