"""Flip-plus-patch redeploy ≡ redeploy by ``clone()`` (§5.5).

:class:`ShadowModelManager` recycles the retired live network as the new
shadow, moving only the readout entries the fork pair wrote.  The oracle
here is the protocol it replaced — every fork a full ``clone()`` — and
hypothesis drives both through the same random operation sequences:
shadow training (single pairs and batches), a training step on the live
copy, wholesale ``w_out`` assignment on either side (one network's
``w_out`` assigned to the other included — the setter gathers a private
copy, so the two can never share weights), discards and redeploys.
After every operation the two managers must agree bit for bit on both
copies' weights, int8 serving mirrors, sequence state and step counts,
and on the manager's own scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.availability import ShadowModelManager
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork

VOCAB = 8


@dataclass
class CloneRedeployManager(ShadowModelManager):
    """The pre-recycling protocol: every fork is a full ``clone()``."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.shadow = self.model.clone()

    def redeploy(self) -> None:
        self.live = self.shadow
        self.shadow = self.live.clone()
        self.redeploys += 1
        self._staleness = 0
        self.confidence_ema = max(self.confidence_ema, self.redeploy_below)

    def discard_shadow(self) -> None:
        self.shadow = self.live.clone()
        self._staleness = 0


#: Small and densely read out (~128 stored weights of hidden * vocab =
#: 320, ~16 of them written per training step, punish term included) so
#: a drawn sequence reaches both the patch and the "log outgrew the
#: weights" paths; the second config (~288 stored) writes ~36 per step.
HIDDEN = 40
CONFIGS = [
    HebbianConfig(vocab_size=VOCAB, hidden_dim=HIDDEN, connectivity_out=0.4,
                  seed=5),
    HebbianConfig(vocab_size=VOCAB, hidden_dim=HIDDEN, connectivity_out=0.9,
                  punish_wrong=False, seed=6),
    HebbianConfig(vocab_size=VOCAB, hidden_dim=HIDDEN, connectivity_out=0.4,
                  backend="int8", seed=7),
]

classes = st.integers(0, VOCAB - 1)
pairs = st.tuples(classes, classes)
sides = st.sampled_from(["live", "shadow"])
operations = st.one_of(
    st.tuples(st.just("train_shadow"), pairs),
    st.tuples(st.just("train_pairs"), st.lists(pairs, max_size=4)),
    st.tuples(st.just("step_live"), classes),
    st.tuples(st.just("infer"), classes),
    st.tuples(st.just("note_confidence"), st.floats(0.0, 1.0)),
    # the integer picks a *connected* entry (modulo how many there are):
    # the setter refuses a non-zero value anywhere else
    st.tuples(st.just("assign"), sides,
              st.integers(0, HIDDEN * VOCAB - 1), st.floats(-8.0, 8.0)),
    st.tuples(st.just("assign_alias"), sides),
    st.tuples(st.just("discard_shadow")),
    st.tuples(st.just("redeploy")),
)


def _apply(manager: ShadowModelManager, op: tuple) -> None:
    kind, *args = op
    if kind == "train_shadow":
        manager.train_shadow(*args[0], lr_scale=0.5)
    elif kind == "train_pairs":
        manager.shadow.train_pairs(args[0], lr_scale=0.1)
    elif kind == "step_live":
        manager.live.step(args[0], train=True)
    elif kind == "infer":
        manager.infer(args[0])
    elif kind == "note_confidence":
        manager.note_confidence(args[0])
    elif kind == "assign":
        net = getattr(manager, args[0])
        connected = np.flatnonzero(net.mask_out)
        w_out = net.w_out
        w_out.reshape(-1)[connected[args[1] % connected.size]] = args[2]
        net.w_out = w_out
    elif kind == "assign_alias":
        this, other = (("live", "shadow") if args[0] == "live"
                       else ("shadow", "live"))
        getattr(manager, this).w_out = getattr(manager, other).w_out
    else:
        getattr(manager, kind)()


def _snapshot(manager: ShadowModelManager) -> list:
    out: list = [manager.confidence_ema, manager.staleness,
                 manager.redeploys,
                 np.shares_memory(manager.live.readout_values,
                                  manager.shadow.readout_values)]
    for net in (manager.live, manager.shadow):
        assert type(net) is SparseHebbianNetwork
        arrays = [net._prev_active, net._last_probs]
        out.append([net.w_out.tobytes(), net._serve_vals.tobytes(),
                    net.w_in.tobytes(), net._prev_pred, net.train_steps,
                    [None if a is None else a.tobytes() for a in arrays]])
    return out


@settings(max_examples=120, deadline=None)
@given(config=st.sampled_from(CONFIGS),
       ops=st.lists(operations, min_size=1, max_size=40))
# ROADMAP item 0's failing draw: when the setter adopted the assigned
# array, the two networks shared weights but owned two int8 mirrors, and
# the second (empty-log) redeploy recycled the one left stale.
@example(config=CONFIGS[2],
         ops=[("step_live", 0), ("assign_alias", "live"), ("step_live", 0),
              ("redeploy",), ("redeploy",)])
def test_recycling_redeploy_matches_clone_redeploy(
        config: HebbianConfig, ops: list[tuple]) -> None:
    subject = ShadowModelManager(SparseHebbianNetwork(config),
                                 max_staleness=10_000)
    oracle = CloneRedeployManager(SparseHebbianNetwork(config),
                                  max_staleness=10_000)
    assert _snapshot(subject) == _snapshot(oracle)
    for i, op in enumerate(ops):
        _apply(subject, op)
        _apply(oracle, op)
        assert _snapshot(subject) == _snapshot(oracle), (i, op)
