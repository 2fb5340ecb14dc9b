"""First-class fault injection for the serving layer.

Faults are part of the service's constructor surface, not test
monkey-patching: the same :class:`FaultPlan` drives the deterministic
fault matrix under the virtual scheduler and the soak leg on real
threads.  Every fault is observable through a service counter, so tests
assert the fault actually fired instead of trusting the knob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.hebbian import SparseHebbianNetwork


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule for one service run.

    Attributes:
        trainer_stall_events: While fewer than this many events have been
            ingested, the trainer refuses all work — the "background
            trainer wedged" scenario.  Queries must keep flowing from the
            stale live model.
        drop_from: Start (inclusive) of a submission-sequence window in
            which miss events are dropped *before* the ring — an ingest
            blackout burst.
        drop_until: End (exclusive) of the drop window.
        swap_on_query: Force a hot-swap on every queried lane right
            before its answer is computed — maximizes swap/query races
            for the torn-weights assertion.
        poison_after_trains: After this many background training steps,
            corrupt the shadow's weights with a NaN (a poisoned-update
            fault).  The swap path must reject the shadow, discard it,
            and keep serving finite weights.  None disables.
        trainer_pause_s: Threaded-mode only: the trainer sleeps this long
            (holding no locks) after each training step, simulating a
            slow background worker; query latency must not inherit it.
    """

    trainer_stall_events: int = 0
    drop_from: int = 0
    drop_until: int = 0
    swap_on_query: bool = False
    poison_after_trains: int | None = None
    trainer_pause_s: float = 0.0

    def __post_init__(self) -> None:
        if self.trainer_stall_events < 0:
            raise ValueError("trainer_stall_events must be >= 0")
        if self.drop_from < 0 or self.drop_until < self.drop_from:
            raise ValueError("drop window must satisfy 0 <= from <= until")
        if self.poison_after_trains is not None \
                and self.poison_after_trains < 0:
            raise ValueError("poison_after_trains must be >= 0 or None")
        if self.trainer_pause_s < 0:
            raise ValueError("trainer_pause_s must be >= 0")

    def drops(self, sequence: int) -> bool:
        """True when the event with this submission sequence is dropped."""
        return self.drop_from <= sequence < self.drop_until


def poison_weights(model: SparseHebbianNetwork) -> None:  # repro-lint: zone=fault-injection
    """Corrupt one weight with NaN — the poisoned-update fault body.

    The first *connected* readout entry: an unconnected one is not
    stored, so it cannot be corrupted (the ``w_out`` setter refuses).
    Deliberately writes another class's state (that is the fault); the
    caller owns holding the lane lock around it."""
    w_out = model.w_out
    w_out.reshape(-1)[np.flatnonzero(model.mask_out)[0]] = np.nan
    model.w_out = w_out
