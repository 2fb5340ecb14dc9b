"""The five workloads, by name (see ``bench.metrics.WORKLOADS`` for why
each exists)."""

from __future__ import annotations

from ..metrics import (FLEET_CLS_1K, SERVE_LOCKSTEP_64, SIM_CLASSIC,
                       SIM_CLS_HEBBIAN, SIM_CLS_LSTM)
from ..protocol import Workload


def make_workload(name: str) -> Workload:
    """A fresh workload instance (imports its layer lazily, so a sim run
    never pays for ``repro.serve`` and vice versa)."""
    if name in (SIM_CLASSIC, SIM_CLS_HEBBIAN, SIM_CLS_LSTM):
        from . import sim

        return {SIM_CLASSIC: sim.SimClassic,
                SIM_CLS_HEBBIAN: sim.SimClsHebbian,
                SIM_CLS_LSTM: sim.SimClsLstm}[name]()
    if name == FLEET_CLS_1K:
        from .fleet import FleetCls1k

        return FleetCls1k()
    if name == SERVE_LOCKSTEP_64:
        from .serve import ServeLockstep64

        return ServeLockstep64()
    raise ValueError(f"unknown workload {name!r}")
