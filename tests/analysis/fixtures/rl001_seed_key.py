"""Positive fixture: exactly one RL001 finding (a lane job's trace seed
derived by arithmetic, stored under a "seed" key)."""


def _lane_jobs(seed: int, tenants: int) -> list[dict]:
    return [{"pattern": "stride", "seed": seed + tenant}
            for tenant in range(tenants)]
