"""RL101 positive: one call carries a volatile value into two cache-key
sinks (through ``keyed``), so the finding at that call names one of
them — the same one whatever the interpreter's hash seed."""

from __future__ import annotations

import os


def canonicalize_spec(spec: dict) -> str:
    return repr(sorted(spec.items()))


def spec_key(spec: dict) -> str:
    return canonicalize_spec(spec)[:16]


def keyed(spec: dict) -> tuple[str, str]:
    return canonicalize_spec(spec), spec_key(spec)


def salted() -> tuple[str, str]:
    return keyed({"salt": os.environ.get("REPRO_SALT", "")})
