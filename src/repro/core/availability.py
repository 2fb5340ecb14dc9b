"""Availability of a model that is trained and queried concurrently (§5.5).

Training mutates weights, so a live model's inference can race its own
updates.  §5.5 motivates "a protocol where training is applied to a
separate model copy, which is later redeployed when the live model's
confidence/accuracy decreases" — :class:`ShadowModelManager` implements
exactly that.  §5.5 also conjectures that simpler schemes may suffice
because networks are noise-robust; :func:`weight_noise_robustness`
measures that conjecture directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.base import SequenceModel
from ..nn.hebbian import SparseHebbianNetwork
from ..nn.lstm import OnlineLSTM


@dataclass
class ShadowModelManager:
    """Train a shadow copy; serve inference from a stable live copy.

    Inference always hits :attr:`live`.  Training goes to :attr:`shadow`.
    The live model's recent confidence is tracked with an exponential
    moving average; when it falls below ``redeploy_below`` (or every
    ``max_staleness`` training steps as a backstop), the shadow is
    redeployed as the new live model.

    Attributes:
        model: The initial model; becomes the first live copy.
        redeploy_below: EMA-confidence threshold that triggers redeploy.
        ema_alpha: Smoothing for the confidence EMA.
        max_staleness: Redeploy at least this often (training steps).
    """

    model: SequenceModel
    redeploy_below: float = 0.5
    ema_alpha: float = 0.05
    max_staleness: int = 256
    live: SequenceModel = field(init=False)
    shadow: SequenceModel = field(init=False)
    confidence_ema: float = field(default=1.0, init=False)
    redeploys: int = field(default=0, init=False)
    _staleness: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0 < self.ema_alpha <= 1:
            raise ValueError("ema_alpha must be in (0, 1]")
        if self.max_staleness < 1:
            raise ValueError("max_staleness must be >= 1")
        self.live = self.model
        self.shadow = _fork(self.model)

    def infer(self, input_class: int) -> np.ndarray:
        """Serve a prediction from the live copy (never trains it)."""
        return self.live.step(input_class, train=False)

    def observe(self, input_class: int, target_class: int,
                lr_scale: float = 1.0) -> float:
        """Record an observed transition: score the live copy, train the
        shadow, and redeploy if the live copy has degraded.

        Returns the live model's confidence on the observed target.
        """
        live_probs = self.live.step(input_class, train=False)
        confidence = float(live_probs[target_class])
        self.note_confidence(confidence)
        self.train_shadow(input_class, target_class, lr_scale=lr_scale)
        if self.should_redeploy():
            self.redeploy()
        return confidence

    # Lower-level pieces, for callers (like CLSPrefetcher) that manage the
    # live model's streaming state themselves.
    def note_confidence(self, confidence: float) -> None:
        self.confidence_ema = ((1 - self.ema_alpha) * self.confidence_ema
                               + self.ema_alpha * confidence)

    def train_shadow(self, input_class: int, target_class: int,
                     lr_scale: float = 1.0) -> None:
        shadow = self.shadow
        if isinstance(shadow, SparseHebbianNetwork):
            # The confidence train_pair returns is dropped here: take the
            # same update without its softmax.
            shadow.learn_pair(input_class, target_class, lr_scale=lr_scale)
        else:
            shadow.train_pair(input_class, target_class, lr_scale=lr_scale)
        self._staleness += 1

    def should_redeploy(self) -> bool:
        return (self.confidence_ema < self.redeploy_below
                or self._staleness >= self.max_staleness)

    def redeploy(self) -> np.ndarray | None:
        """Promote the shadow to live; fork a fresh shadow from it.

        A flip plus a patch: the shadow becomes live by pointer, and a
        plain Hebbian pair recycles the retired live network as the new
        shadow by copying in only the readout values training wrote
        since the fork (:meth:`SparseHebbianNetwork.sync_from`) — the
        same weights, sequence state and ``train_steps`` as
        ``live.clone()``, which every other model still pays.  Returns
        the offsets into the connected-only value vector
        (:attr:`SparseHebbianNetwork.readout_values`) at which the new
        live copy may differ from the retired one, None when that is not
        known (treat as everywhere) — what a holder of the old live
        values, like serve's fleet slot, has to move.
        """
        retired, self.live = self.live, self.shadow
        if (type(retired) is SparseHebbianNetwork
                and type(self.live) is SparseHebbianNetwork):
            changed = retired.sync_from(self.live)
            self.shadow = retired
        else:
            changed = None
            self.shadow = self.live.clone()
        self.redeploys += 1
        self._staleness = 0
        self.confidence_ema = max(self.confidence_ema, self.redeploy_below)
        return changed

    def discard_shadow(self) -> None:
        """Throw the shadow's training away; refork it from live.

        The escape hatch for a corrupted shadow (e.g. a poisoned update
        caught by :func:`weights_finite` at swap admission): the live
        copy keeps serving untouched and background training restarts
        from its weights.  Resets the staleness backstop — the discarded
        steps no longer count toward a forced redeploy.
        """
        self.shadow = _fork(self.live)
        self._staleness = 0

    @property
    def staleness(self) -> int:
        """Training steps absorbed by the shadow since the last swap."""
        return self._staleness


def _fork(model: SequenceModel) -> SequenceModel:
    """A training copy of ``model``; a plain Hebbian pair also starts
    the (empty) write log that lets :meth:`ShadowModelManager.redeploy`
    move only what training changed."""
    if type(model) is SparseHebbianNetwork:
        return model.fork()
    return model.clone()


def weights_finite(model: SequenceModel) -> bool:
    """True iff every learned weight of ``model`` is finite.

    The swap admission check of the serving layer: a shadow that picked
    up a NaN/inf (hardware fault, poisoned update) must never be
    promoted to live.  A Hebbian network's learned weights are its
    connected-only value vector — nothing else is stored — so the scan
    reads ``n_connected`` values, not ``hidden * vocab``: on the compiled
    kernels in one call (:meth:`SparseHebbianNetwork.values_finite`).
    """
    if isinstance(model, OnlineLSTM):
        return all(bool(np.isfinite(values).all())
                   for values in model.net.params.values())
    if isinstance(model, SparseHebbianNetwork):
        return model.values_finite()
    raise TypeError(f"don't know how to validate {type(model).__name__}")


def perturb_weights(model: SequenceModel, sigma: float,
                    seed: int = 0) -> SequenceModel:
    """A copy of ``model`` with Gaussian weight noise of scale ``sigma``.

    ``sigma`` is relative: each weight tensor is perturbed by
    ``N(0, sigma * std(tensor))``, so the same setting is meaningful for
    both model families.  For the Hebbian readout the tensor is the
    *dense* ``(hidden, vocab)`` view, structural zeros included — the
    scale §5.5 / A-series results were measured with — and only
    connected entries receive noise.
    """
    if not isinstance(model, (OnlineLSTM, SparseHebbianNetwork)):
        raise TypeError(f"don't know how to perturb {type(model).__name__}")
    rng = np.random.default_rng(seed)
    twin = model.clone()
    if isinstance(twin, OnlineLSTM):
        for key, values in twin.net.params.items():
            scale = sigma * (float(values.std()) or 1.0)
            twin.net.params[key] = values + rng.normal(0.0, scale, size=values.shape)
    elif isinstance(twin, SparseHebbianNetwork):
        dense = twin.w_out
        scale = sigma * (float(dense.std()) or 1.0)
        noise = rng.normal(0.0, scale, size=dense.shape)
        twin.w_out = np.where(twin.mask_out, dense + noise, dense)
    return twin


def weight_noise_robustness(model: SequenceModel, classes: list[int],
                            sigmas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.5),
                            seed: int = 0) -> dict[float, float]:
    """Confidence on ``classes`` under increasing weight noise (§5.5).

    Returns {sigma: mean confidence}.  A flat curve at small sigma is the
    noise-robustness §5.5 hopes allows inference concurrent with training.
    """
    return {
        sigma: perturb_weights(model, sigma, seed=seed).evaluate_sequence(classes)
        for sigma in sigmas
    }
