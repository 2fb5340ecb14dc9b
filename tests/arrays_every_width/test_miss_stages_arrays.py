"""tests/core/test_miss_stages.py under arrays_at_every_width."""

from tests.core.test_miss_stages import *  # noqa: F401,F403
