"""tests/memsim/test_fleet_learned.py under arrays_at_every_width."""

from tests.memsim.test_fleet_learned import *  # noqa: F401,F403
