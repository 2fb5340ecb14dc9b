"""The hippocampal-neocortical prefetcher — the paper's contribution.

:class:`CLSPrefetcher` assembles the CLS architecture of Figure 4 behind
the :class:`~repro.memsim.prefetcher.Prefetcher` interface:

- a **neocortex** (slow structure learner): either the sparse Hebbian
  network (§3.1) or the LSTM baseline (§2.1), selected by config;
- a **hippocampus** (fast episodic store) feeding **interleaved replay**
  at a reduced learning rate (§3.2, §5.4);
- the operational policies the paper's research agenda calls for:
  training-instance sampling (§5.1), prefetch length/width with
  confidence thresholds (§5.2), pluggable input encodings (§5.3), phase
  detection for replay grouping (§5.4), and the shadow-copy availability
  protocol (§5.5).

On every demand miss the prefetcher encodes the miss, optionally trains on
the newest transition (plus replayed old ones), advances the model's
recurrent state, and decodes a ``length x width`` rollout of predicted
classes back into page prefetches.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple, TypeGuard

import numpy as np

from ..memsim.events import AccessEvent, MissEvent
from ..nn.backends import c_backend
from ..nn.base import SequenceModel
from ..nn.hebbian import (HebbianConfig, SparseHebbianNetwork, rolled,
                          select_topk)
from ..nn.hebbian_fleet import HebbianFleet
from ..nn.lstm import LSTMConfig, OnlineLSTM
from .availability import ShadowModelManager
from .encoding import OOV_CLASS, DeltaVocabEncoder, make_encoder
from .hippocampus import MAX_ATTEMPTS_PER_PICK, LaneDraws
from .phase_detect import OnlinePhaseDetector
from .recall import HippocampalRecall, RecallConfig, RecallStats
from .replay import ReplayScheduler, make_replay_policy
from .sampling import BatchAccumulate, TrainAlways, make_training_policy

#: A beam rollout, as ``predict_rollout`` returns it.
Rollout = list[list[tuple[int, float]]]

#: ``rk_cls_miss``'s ``io`` slots, return codes and stages, by name.
_IO = {name: at for at, name in enumerate(c_backend.CM_SLOTS)}
_R = {name: code for code, name in enumerate(c_backend.CM_CODES)}
_S = {name: stage for stage, name in enumerate(c_backend.CM_STAGES)}

#: ``CLSPrefetcher._miss`` before the first miss has asked whether the
#: compiled miss applies.
_UNBOUND: Any = object()


@dataclass
class CLSPrefetcherConfig:
    """Everything configurable about the CLS prefetcher.

    Attributes:
        model: "hebbian" (the paper's proposal) or "lstm" (the baseline).
        vocab_size: Miss-class vocabulary shared by encoder and model.
        encoder: "delta" (address deltas, §5.3 default) or "page"
            (unit identity).
        granularity: Bytes per encoded unit (page size for page-level
            prefetching; the element size for data-structure experiments).
        page_size: Page size used to emit prefetch targets.
        prefetch_length: Steps predicted into the future (§5.2).
        prefetch_width: Predictions emitted per step (§5.2).
        prediction_mode: How multi-step predictions are produced (§5.2):
            "rollout" feeds the model its own top-1 prediction
            ``prefetch_length`` times (costs one inference per step, and
            errors compound); "direct" trains the model on lag-L
            transition pairs from a window of the last L misses ("the
            prefetch length determines a minimum history size") and
            predicts the miss L steps ahead in a single inference.
            Direct mode names absolute units, so it requires the "page"
            encoder.
        min_confidence: Candidates below this probability are suppressed
            (the "highly selective" operating point for network-bound
            systems, §5.2).
        min_accuracy: Suppress *all* prefetching while the model's
            self-monitored accuracy — the EMA of "was the class that
            actually arrived inside my top-``prefetch_width`` candidate
            set?" — is below this.  Softmax confidence measures absolute
            weight consolidation, which stays low under prefetch-feedback
            non-stationarity even when the model ranks perfectly; realized
            candidate-set coverage is the calibrated selectivity signal
            (and is naturally width-aware: a width-4 prefetcher is doing
            its job if reality lands in its top 4).
        training: Training-instance policy kind (§5.1): "always",
            "every_k", "random", "confidence", "batch".
        training_kwargs: Extra arguments for the training policy.
        replay_policy: Replay storage/selection kind (§5.4): "full",
            "ring", "confidence", "prototype", "generative"; None disables
            replay entirely.
        replay_kwargs: Extra arguments for the replay policy.
        replay_per_step: Old episodes replayed per new training step.
        replay_lr_scale: Replay learning-rate scale (paper: 0.1; finite,
            >= 0).
        phase_detection: Group episodes into phases for replay.
        observe_hits: Also feed demand *hits* through the encoder/model
            (training included, prefetching still miss-triggered).  The
            default miss-only deployment (Figure 1) suffers a feedback
            loop: successful prefetches remove misses, which changes the
            inter-miss deltas the model is being trained on.  Watching the
            full demand stream keeps the input distribution stationary.
        trigger_on_hits: Also *issue prefetches* on demand hits (prefetch
            chaining).  Prefetch-on-miss caps miss removal at
            length/(length+1) because covered accesses stop triggering;
            chaining keeps the pipeline full.  Requires ``observe_hits``.
        availability: Run the §5.5 shadow-copy protocol (train a shadow,
            serve inference from a stable live copy, redeploy on drift).
        recall: Enable the Figure 4 hippocampal recall fast path: a
            one-shot pattern-separation/completion memory answers when the
            neocortex is not yet confident, giving immediate adaptation to
            brand-new patterns while the slow learner consolidates.
        recall_config: Optional recall memory override.
        recall_max_confidence: Consult recall only when the neocortex's
            top prediction is below this probability.
        recall_occupancy_reset: Clear the recall memory when its weight
            density exceeds this (synaptic turnover — a full Willshaw
            memory answers nothing but ambiguity).
        hebbian: Optional Hebbian model config override.
        lstm: Optional LSTM model config override.
        seed: Seed for model init and replay sampling.
    """

    model: str = "hebbian"
    vocab_size: int = 128
    encoder: str = "delta"
    granularity: int = 4096
    page_size: int = 4096
    prefetch_length: int = 1
    prefetch_width: int = 1
    prediction_mode: str = "rollout"
    min_confidence: float = 0.0
    min_accuracy: float = 0.0
    accuracy_ema_alpha: float = 0.02
    training: str = "always"
    training_kwargs: dict[str, int | float | str | bool] = field(default_factory=dict)
    replay_policy: str | None = "full"
    replay_kwargs: dict[str, int | float | str | bool] = field(default_factory=dict)
    replay_per_step: int = 1
    replay_lr_scale: float = 0.1
    phase_detection: bool = True
    observe_hits: bool = False
    trigger_on_hits: bool = False
    availability: bool = False
    recall: bool = False
    recall_config: RecallConfig | None = None
    recall_max_confidence: float = 0.5
    recall_occupancy_reset: float = 0.35
    hebbian: HebbianConfig | None = None
    lstm: LSTMConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in ("hebbian", "lstm"):
            raise ValueError("model must be 'hebbian' or 'lstm'")
        if self.prefetch_length < 1 or self.prefetch_width < 1:
            raise ValueError("prefetch_length and prefetch_width must be >= 1")
        if not 0 <= self.min_confidence <= 1:
            raise ValueError("min_confidence must be in [0, 1]")
        if not 0 <= self.min_accuracy <= 1:
            raise ValueError("min_accuracy must be in [0, 1]")
        if not 0 < self.accuracy_ema_alpha <= 1:
            raise ValueError("accuracy_ema_alpha must be in (0, 1]")
        if not (math.isfinite(self.replay_lr_scale)
                and self.replay_lr_scale >= 0):
            raise ValueError("replay_lr_scale must be finite and >= 0")
        if self.prediction_mode not in ("rollout", "direct"):
            raise ValueError("prediction_mode must be 'rollout' or 'direct'")
        if self.prediction_mode == "direct" and self.encoder != "page":
            raise ValueError("direct prediction requires the 'page' encoder "
                             "(lag-L targets name absolute units)")
        if self.trigger_on_hits and not self.observe_hits:
            raise ValueError("trigger_on_hits requires observe_hits")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")

    def build_model(self) -> SequenceModel:
        if self.model == "hebbian":
            cfg = self.hebbian or HebbianConfig(vocab_size=self.vocab_size,
                                                seed=self.seed)
            if cfg.vocab_size != self.vocab_size:
                raise ValueError("hebbian config vocab_size mismatch")
            return SparseHebbianNetwork(cfg)
        cfg = self.lstm or LSTMConfig(vocab_size=self.vocab_size, seed=self.seed)
        if cfg.vocab_size != self.vocab_size:
            raise ValueError("lstm config vocab_size mismatch")
        return OnlineLSTM(cfg)


@dataclass
class CLSPrefetcherStats:
    """Operational counters for one prefetcher lifetime."""

    misses_seen: int = 0
    trained_steps: int = 0
    replayed_pairs: int = 0
    prefetches_emitted: int = 0
    suppressed_low_confidence: int = 0
    redeploys: int = 0
    phases_seen: int = 0


class Observation(NamedTuple):
    """What the *observe* stage learned about one miss — the input of
    every later stage of that miss."""

    class_id: int
    timestamp: int
    phase: int                          # -1: no phase information
    confidence: float                   # scored prediction's p(class_id)
    transition: tuple[int, int] | None  # the (input, target) training pair
    train: bool


class CLSPrefetcher:
    """Online CLS prefetcher (implements the memsim ``Prefetcher`` protocol)."""

    #: Phase features: address regions of 2**12 pages, hashed into this
    #: many histogram bins for the phase detector.
    _PHASE_FEATURE_BINS = 256
    _PHASE_REGION_BITS = 12

    def __init__(self, config: CLSPrefetcherConfig = CLSPrefetcherConfig(),
                 *, model: SequenceModel | None = None,
                 manager: ShadowModelManager | None = None) -> None:
        self.config = config
        self.name = f"cls-{config.model}"
        self.encoder = make_encoder(config.encoder, config.vocab_size,
                                    config.granularity)
        # ``model`` injects a prebuilt network — fleet lanes clone one
        # prototype so thousands of lanes share the fixed structures
        # (masks, index lists, memo caches) instead of re-deriving them
        # per lane.  The caller owns making the instance independent
        # (e.g. ``prototype.clone()``).  ``manager`` injects a prebuilt
        # §5.5 manager (serve sets thresholds the config lacks); its
        # model is then the prefetcher's.
        if manager is not None:
            model = manager.model
        self.model: SequenceModel = model if model is not None \
            else config.build_model()
        self.training_policy = make_training_policy(config.training,
                                                    **config.training_kwargs)
        self.scheduler: ReplayScheduler | None = None
        if config.replay_policy is not None:
            policy = make_replay_policy(config.replay_policy, **config.replay_kwargs)
            self.scheduler = ReplayScheduler(policy=policy,
                                             per_step=config.replay_per_step,
                                             lr_scale=config.replay_lr_scale,
                                             seed=config.seed)
        self.phase_detector: OnlinePhaseDetector | None = None
        if config.phase_detection:
            # The detector clusters histograms of a *phase-stable* feature.
            # Encoded classes are not one: over a large working set every
            # sliding window holds a different subset of classes, so
            # within-phase windows look as dissimilar as cross-phase ones
            # and the centroid drifts straight through switches.  Address
            # regions (which data structure is being touched) are stable
            # within a phase and distinct across phases.
            self.phase_detector = OnlinePhaseDetector(
                vocab_size=self._PHASE_FEATURE_BINS)
        self.manager: ShadowModelManager | None = manager
        if manager is None and config.availability:
            self.manager = ShadowModelManager(self.model)
        self.recall_memory: HippocampalRecall | None = None
        self.recall_stats = RecallStats()
        if config.recall:
            recall_cfg = config.recall_config or RecallConfig(
                vocab_size=config.vocab_size, seed=config.seed)
            if recall_cfg.vocab_size != config.vocab_size:
                raise ValueError("recall config vocab_size mismatch")
            self.recall_memory = HippocampalRecall(recall_cfg)
        self.stats = CLSPrefetcherStats()
        self._page_shift = config.page_size.bit_length() - 1
        self._prev_class: int | None = None
        self._last_probs: np.ndarray | None = None
        # Direct mode trains on the pair (class L misses ago, class now)
        # and scores against the prediction made then, so it keeps the
        # last L (class, probabilities) pairs; rollout mode keeps none.
        self._lag_window: deque[tuple[int, np.ndarray]] = deque(
            maxlen=config.prefetch_length)
        # Self-monitored top-1 accuracy (starts pessimistic: no prefetching
        # until the model has demonstrated it tracks the stream).
        self.accuracy_ema: float = 0.0
        self._hinted_phase: int | None = None

        # Per-miss invariants, hoisted off the hot path.  Only objects
        # that are never swapped for the prefetcher's lifetime are bound
        # (the encoder and policies persist across
        # ``reset_stream``; the live model does not under availability).
        self._direct = config.prediction_mode == "direct"
        self._width = config.prefetch_width
        self._length = config.prefetch_length
        self._alpha = config.accuracy_ema_alpha
        self._min_confidence = config.min_confidence
        self._min_accuracy = config.min_accuracy
        self._batch_policy = (self.training_policy
                              if isinstance(self.training_policy, BatchAccumulate)
                              else None)
        self._should_train = self.training_policy.should_train
        self._encoder_observe = self.encoder.observe
        self._encoder_decode = self.encoder.decode
        self._region_shift = self._page_shift + self._PHASE_REGION_BITS
        # (probs object, its top-width classes) memoized by the rollout so
        # the accuracy EMA's argpartition isn't recomputed on the same
        # vector one miss later.  Only valid for models whose rollout
        # top-k is the same argpartition call (ties break identically).
        self._ema_top: tuple[np.ndarray, list[int]] | None = None
        self._ema_memo_ok = getattr(self.model, "rollout_top_argpartition",
                                    False)
        #: Fast-path protocol: the simulator may skip the per-access
        #: callback entirely when the prefetcher doesn't watch hits.
        self.wants_accesses = config.observe_hits
        # The compiled miss (``_CompiledMiss``), bound at the first miss
        # if :func:`arrays_model` holds; None: the stages run every miss.
        self._miss: _CompiledMiss | None = _UNBOUND

    # ------------------------------------------------------------------
    @property
    def _live(self) -> SequenceModel:
        return self.manager.live if self.manager is not None else self.model

    def telemetry_counters(self) -> dict[str, int | float]:
        """Named counters for the telemetry sink.

        Integer values are monotone counters (the sink emits per-window
        deltas); floats are gauges sampled at the window boundary.
        Includes the replay scheduler's and episodic store's counters, so
        a windowed series shows replay firing next to the accuracy it is
        defending.
        """
        stats = self.stats
        counters: dict[str, int | float] = {
            "cls_misses_seen": stats.misses_seen,
            "cls_trained_steps": stats.trained_steps,
            "cls_replayed_pairs": stats.replayed_pairs,
            "cls_prefetches_emitted": stats.prefetches_emitted,
            "cls_suppressed_low_confidence": stats.suppressed_low_confidence,
            "cls_redeploys": stats.redeploys,
            "cls_phases_seen": stats.phases_seen,
            "cls_accuracy_ema": float(self.accuracy_ema),
        }
        if self.scheduler is not None:
            counters.update(self.scheduler.telemetry_counters())
        return counters

    def on_miss(self, event: MissEvent) -> list[int]:
        """Observe a demand miss; return pages to prefetch."""
        return self.on_miss_fast(event.index, event.address, event.page,
                                 event.stream_id, event.timestamp)

    def on_miss_fast(self, index: int, address: int, page: int,
                     stream_id: int, timestamp: int) -> list[int]:
        """Allocation-free miss entry point (fast-path protocol): where
        :func:`arrays_model` holds, the compiled miss; else, and for a
        miss it hands back, the stages."""
        del index, stream_id  # part of the protocol, unused by CLS
        if self._miss is not None:
            pages = self._compiled_miss(address, page, timestamp)
            if pages is not None:
                return pages
        if not self._ingest(address, timestamp, True):
            return []
        return self._predict(address, page)

    def on_access(self, event: AccessEvent) -> list[int] | None:
        """Optionally observe demand hits too (``observe_hits``).

        Misses are skipped here — ``on_miss`` already ingested them.  With
        ``trigger_on_hits``, hits also produce prefetches (chaining).
        """
        return self.on_access_fast(event.index, event.address, event.page,
                                   event.stream_id, event.timestamp, event.hit)

    def on_access_fast(self, index: int, address: int, page: int,
                       stream_id: int, timestamp: int,
                       hit: bool) -> list[int] | None:
        """Allocation-free access entry point (fast-path protocol)."""
        del index, stream_id
        if not hit or not self.config.observe_hits:
            return None
        if (not self._ingest(address, timestamp, False)
                or not self.config.trigger_on_hits):
            return None
        return self._predict(address, page)

    # ------------------------------------------------------------------
    # The per-miss pipeline, one stage per method (DESIGN.md §5 has the
    # stage table).  ``_ingest``/``_predict`` compose the stages in
    # scalar order; serve's ``TenantLane`` calls the same stages across
    # actors, and ``CLSFleetGroup`` mirrors them as array programs.
    def observe(self, address: int, timestamp: int,
                miss: bool = True) -> Observation | None:
        """*Observe*: encode, detect the phase, score the prediction made
        for this observation (confidence, accuracy EMA) and take the
        training decision.  Moves no model state.  None while the encoder
        has no class for the address."""
        if miss:
            self.stats.misses_seen += 1
        class_id = self._encoder_observe(address)
        if class_id is None:
            return None

        phase = -1
        detector = self.phase_detector
        if self._hinted_phase is not None:
            phase = self._hinted_phase
        elif detector is not None:
            phase = detector.observe(
                (address >> self._region_shift) % self._PHASE_FEATURE_BINS)
            self.stats.phases_seen = detector.n_phases

        if self._direct:
            # Train on, and score against, the miss prefetch_length steps
            # ago (§5.2: "the prefetch length determines a minimum
            # history size").
            scored_probs: np.ndarray | None = None
            transition: tuple[int, int] | None = None
            if len(self._lag_window) == self._length:
                past, scored_probs = self._lag_window[0]
                transition = (past, class_id)
        else:
            scored_probs = self._last_probs
            transition = (None if self._prev_class is None
                          else (self._prev_class, class_id))
        confidence = 0.0
        if scored_probs is not None:
            confidence = scored_probs.item(class_id)
            ema_top = self._ema_top
            if ema_top is not None and ema_top[0] is scored_probs:
                # The rollout already partitioned this exact vector; the
                # top-width membership is the same set.
                covered = class_id in ema_top[1]
            elif self._width >= scored_probs.size:
                covered = True  # select_topk's clamp: every class is in
            else:
                width = self._width
                top = np.argpartition(scored_probs, -width)[-width:]
                covered = class_id in top
            alpha = self._alpha
            self.accuracy_ema = ((1 - alpha) * self.accuracy_ema
                                 + alpha * float(covered))
        # §5.1 batched training owns training wholesale (``_train_batch``);
        # its policy is still consulted so its counters keep moving.
        train = (transition is not None and self._should_train(confidence)
                 and self._batch_policy is None)
        return Observation(class_id, timestamp, phase, confidence,
                           transition, train)

    def remember(self, seen: Observation) -> None:
        """*Remember*: file the transition as a hippocampal episode (the
        replay store) and in the one-shot recall memory."""
        transition = seen.transition
        if transition is None:
            return
        if self.scheduler is not None:
            self.scheduler.remember(transition[0], transition[1], seen.phase,
                                    seen.confidence, seen.timestamp)
        if self.recall_memory is not None:
            if self.recall_memory.occupancy() > self.config.recall_occupancy_reset:
                recall_cfg = self.recall_memory.config
                self.recall_memory = HippocampalRecall(recall_cfg)
            self.recall_memory.store(*transition)

    def train(self, seen: Observation) -> None:
        """*Train*, for drivers whose live step does not learn: the §5.5
        shadow (in direct mode without a manager, the model itself) takes
        the transition, then the interleaved replay."""
        assert seen.transition is not None
        if self.manager is not None:
            self.manager.train_shadow(*seen.transition)
            self.replay(seen, self.manager.shadow)
        else:
            self.model.train_pair(*seen.transition)
            self.replay(seen, self.model)

    def replay(self, seen: Observation, model: SequenceModel) -> None:
        """*Replay* after a trained step: count it, and let the scheduler
        retrain ``model`` on the interleaved replay it draws."""
        self.stats.trained_steps += 1
        scheduler = self.scheduler
        if scheduler is None:
            return
        # phase -1 means "no phase information": replay everything rather
        # than excluding the (only) phase, which would disable replay.
        exclude = seen.phase if seen.phase >= 0 else None
        self.stats.replayed_pairs += scheduler.step(model, exclude)

    def redeploy_due(self, class_id: int) -> bool:
        """*Redeploy check* (§5.5): fold the live model's confidence on
        the observed class into the manager's EMA; True when the shadow
        should be promoted (confidence drop or staleness backstop)."""
        manager = self.manager
        assert manager is not None
        if self._last_probs is not None:
            manager.note_confidence(float(self._last_probs[class_id]))
        return manager.should_redeploy()

    def redeploy(self) -> np.ndarray | None:
        """Promote the shadow to live (§5.5); returns
        :meth:`ShadowModelManager.redeploy`'s changed offsets."""
        manager = self.manager
        assert manager is not None
        changed = manager.redeploy()
        manager.live.reset_state()  # state re-warms within a few misses
        self.stats.redeploys = manager.redeploys
        self._ema_top = None  # its top-k came from the replaced model
        return changed

    def advance(self, seen: Observation, probs: np.ndarray) -> None:
        """*Advance*: adopt the probabilities the live model's step on
        ``seen.class_id`` produced, and move the stream position."""
        self._last_probs = probs
        if self._direct:
            self._lag_window.append((seen.class_id, probs))
        self._prev_class = seen.class_id

    def gated(self) -> bool:
        """*Gate*: True (and counted) while the self-monitored accuracy is
        below ``min_accuracy`` — checked before any rollout work."""
        if (self._min_accuracy > 0
                and self.accuracy_ema < self._min_accuracy):
            self.stats.suppressed_low_confidence += 1
            return True
        return False

    def rollout(self) -> Rollout:
        """The live model's beam rollout (the scalar kernel call; stacked
        drivers use ``HebbianFleet.rollout_lanes`` instead)."""
        return self._live.predict_rollout(self._width, self._length)

    def decode(self, miss_address: int, miss_page: int,
               rollout: Rollout) -> list[int]:
        """*Decode* a beam rollout into page prefetches: the recall
        consult, the candidate loop and every counter."""
        if rollout and self._ema_memo_ok and self._last_probs is not None:
            # Memoize the first step's top-width classes for the next
            # miss's accuracy-EMA update (same probs vector, same set).
            self._ema_top = (self._last_probs, [c for c, _ in rollout[0]])
        pages: list[int] = []
        # Figure 4's recall path: when the neocortex is not yet confident,
        # ask the one-shot hippocampal memory first.
        if (self.recall_memory is not None and self._prev_class is not None
                and (not rollout
                     or rollout[0][0][1] < self.config.recall_max_confidence)):
            self.recall_stats.consulted += 1
            recalled = self.recall_memory.recall(self._prev_class)
            if recalled is not None:
                self.recall_stats.answered += 1
                if rollout and recalled != rollout[0][0][0]:
                    self.recall_stats.overrode_neocortex += 1
                address = self._encoder_decode(recalled, miss_address)
                if address is not None:
                    page = address >> self._page_shift
                    if page != miss_page:
                        pages.append(page)
        return self._emit(rollout, miss_address, miss_page, pages)

    def _emit(self, rollout: Rollout, base: int, miss_page: int,
              pages: list[int]) -> list[int]:
        """The candidate loop: suppress below ``min_confidence``, skip
        OOV and undecodable classes, dedupe, and chain each step's base
        address through its top-1 prediction.  Appends to ``pages``."""
        seen = set(pages)
        stats = self.stats
        decode = self._encoder_decode
        page_shift = self._page_shift
        min_confidence = self._min_confidence
        for candidates in rollout:
            for candidate_class, probability in candidates:
                if probability < min_confidence:
                    stats.suppressed_low_confidence += 1
                    continue
                if candidate_class == OOV_CLASS:
                    continue
                address = decode(candidate_class, base)
                if address is None:
                    continue
                page = address >> page_shift
                if page != miss_page and page not in seen:
                    seen.add(page)
                    pages.append(page)
            # The rollout path follows the top-1 prediction at each step.
            next_base = decode(candidates[0][0], base)
            if next_base is None:
                break
            base = next_base
        stats.prefetches_emitted += len(pages)
        return pages

    # ------------------------------------------------------------------
    def _ingest(self, address: int, timestamp: int, miss: bool) -> bool:
        """The stages up to *advance*, in scalar order; False when the
        observation produced no class (nothing to predict from)."""
        seen = self.observe(address, timestamp, miss)
        if seen is None:
            return False
        if self._batch_policy is not None and seen.transition is not None:
            self._train_batch(seen)
        self.remember(seen)
        class_id = seen.class_id
        if self.manager is None and not self._direct:
            # Rollout mode on the model itself: the step is the training.
            probs = self.model.step(class_id, train=seen.train)
            if seen.train:
                self.replay(seen, self.model)
        else:
            if seen.train:
                self.train(seen)
            if self.manager is not None and self.redeploy_due(class_id):
                self.redeploy()
            probs = self._live.step(class_id, train=False)
        self.advance(seen, probs)
        return True

    def _train_batch(self, seen: Observation) -> None:
        """§5.1 batched training: accumulate transitions and apply them as
        one true batch update when full (instead of per-sample steps)."""
        assert self._batch_policy is not None and seen.transition is not None
        pending = self._batch_policy.offer(*seen.transition)
        if not pending:
            return
        trainer = (self.manager.shadow if self.manager is not None
                   else self.model)
        trainer.train_pairs(pending)
        self.stats.trained_steps += len(pending)
        if self.scheduler is not None:
            self.stats.replayed_pairs += self.scheduler.step(
                trainer, current_phase=seen.phase if seen.phase >= 0 else None)

    def _predict(self, miss_address: int, miss_page: int) -> list[int]:
        if self.gated():
            return []
        if self._direct:
            return self._predict_direct(miss_address, miss_page)
        return self.decode(miss_address, miss_page, self.rollout())

    def _predict_direct(self, miss_address: int, miss_page: int) -> list[int]:
        """One inference names the top-w units expected L misses ahead."""
        probs = self._last_probs
        if probs is None:
            return []
        width = self._width
        if width < probs.size:
            # O(V) top-width.  ``np.argsort`` (quicksort) breaks ties in an
            # implementation-defined order, so the partitioned result is
            # only guaranteed to match the full sort when the selected
            # values are unique and the boundary value isn't shared with an
            # excluded candidate; fall back to the full sort otherwise
            # (untrained vectors are uniform — every entry ties).
            part = np.argpartition(probs, -width)[-width:]
            pivot = probs[part].min()
            # Exact comparisons on purpose: detecting *bitwise* ties, not
            # approximate equality.
            if (np.unique(probs[part]).size == width
                    and np.count_nonzero(probs == pivot) == 1):
                order = part[np.argsort(probs[part])[::-1]]
            else:
                order = np.argsort(probs)[::-1][:width]
        else:
            order = np.argsort(probs)[::-1][:width]
        candidates = list(zip(order.tolist(), probs[order].tolist()))
        return self._emit([candidates], miss_address, miss_page, [])

    # ------------------------------------------------------------------
    # The compiled miss: the stages above as one ``rk_cls_miss`` call,
    # which they stay the oracle of (``tests/core/test_compiled_miss.py``).
    def _compiled_miss(self, address: int, page: int,
                       timestamp: int) -> list[int] | None:
        """One miss as one kernel call, and a call more after each rare
        sub-step it leaves to its stage's code; then every piece of
        state the stages would have moved, moved.  None, having moved
        nothing, for a miss the stages take: the first of a stream, one
        after the stages moved the state some other way than through
        this path and could not be taken up here, or one whose
        arithmetic outgrows int64."""
        miss = self._miss
        if miss is _UNBOUND:
            miss = self._miss = _CompiledMiss.bind(self)
            if miss is None:
                return None
        assert miss is not None
        model = miss.model
        unit = self.encoder._prev_unit
        prev = self._prev_class
        scored = self._last_probs
        store = miss.store
        if ((scored is not miss.scored or unit is None or prev is None
             or self.model is not model or model._written is not None
             or (store is not None and store.ep_input is not miss.columns))
                and not self._take_up(miss)):
            return None
        ema_top = self._ema_top
        memo = ema_top is not None and ema_top[0] is scored
        if memo and ema_top is not miss.memo:
            miss.take_memo(ema_top)
        hint = self._hinted_phase
        detector = miss.detector
        codes = miss.codes
        with codes.lock:
            code = (model._prev_id if model._id_epoch == codes.epoch
                    else model._prev_code())
            pred = model._prev_pred
            try:
                got = miss.run(
                    address, page, timestamp, unit, prev, memo,
                    -1 if hint is None else hint, len(miss.recent),
                    -1 if detector is None else detector.current_phase,
                    code, -1 if pred is None else pred, self.accuracy_ema)
            except OverflowError:  # an argument outside int64
                return None
            if got:
                return self._miss_events(miss, got, address, page,
                                         timestamp)
            return self._settle_miss(miss, True)

    def _take_up(self, miss: _CompiledMiss) -> bool:
        """Bring the compiled miss's copies of the stages' state — the
        scored row, the encoder's vocabulary, the store's columns — up to
        date after something other than a compiled miss moved it.  False
        for a miss the stages take: the first of a stream, one of a
        forked network (its write log is the stages'), or one after the
        prefetcher's parts were swapped (the next miss binds again)."""
        if not miss.binds(self):
            self._miss = _UNBOUND
            return False
        scored = self._last_probs
        if (scored is None or self._prev_class is None
                or self.encoder._prev_unit is None
                or self.model._written is not None):
            return False
        miss.take_scored(scored)
        miss.take_vocabulary(self.encoder)
        miss.point_store()
        return True

    def _miss_events(self, miss: _CompiledMiss, got: int, address: int,
                     page: int, timestamp: int) -> list[int] | None:
        """The sub-steps a compiled miss leaves to Python, each run by the
        code that runs it in the stages, the kernel resumed after each;
        then the settled miss.  Called with the code table's lock held."""
        kernel = miss.kernel
        io = miss.io
        model = miss.model
        resume = kernel.resume
        while got:
            if got == _R["no_class"]:  # a repeat of the last unit
                self.stats.misses_seen += 1
                return []
            if got == _R["handback"]:
                return None
            if got == _R["new_delta"]:
                io[_IO["class"]] = self._encoder_observe(address)
                io[_IO["unit"]] = self.encoder._prev_unit
                miss.take_vocabulary(self.encoder)
                got = resume(_S["phase"])
            elif got == _R["window"]:
                detector = miss.detector
                assert detector is not None
                io[_IO["phase"]] = detector.observe(io[_IO["feature"]])
                io[_IO["feature"]] = -1
                self.stats.phases_seen = detector.n_phases
                got = resume(_S["score"])
            elif got == _R["cover"]:
                width = self._width
                top = np.argpartition(kernel.probs, -width)[-width:]
                io[_IO["covered"]] = io[_IO["class"]] in top
                got = resume(_S["ema"])
            elif got == _R["train"]:
                io[_IO["train"]] = self._should_train(miss.fio[1])
                got = resume(_S["remember"])
            elif got == _R["store"]:
                # the stage's own append widens the store's columns
                scheduler = self.scheduler
                assert scheduler is not None
                scheduler.remember(io[_IO["prev"]], io[_IO["class"]],
                                   io[_IO["phase"]], miss.fio[1], timestamp)
                miss.point_store()
                got = resume(_S["step"])
            elif got == _R["link"]:
                io[_IO["code"]] = model._link(io[_IO["code"]],
                                              io[_IO["class"]])
                got = resume(_S["step"])
            elif got == _R["bad_pred"]:
                model._check_class(io[_IO["pred"]])  # raises
            elif got in (_R["replay_codes"], _R["redraw"]):
                self._stepped(miss)
                phase = io[_IO["phase"]]
                if got == _R["redraw"]:
                    scheduler = self.scheduler
                    assert scheduler is not None
                    io[_IO["replayed"]] = scheduler._redraw(phase)
                    stage = _S["gate"]
                else:
                    ring = miss.ring
                    assert ring is not None
                    picks = ring.picks[:, :-1 - io[_IO["replayed"]]]
                    for input_class, target_class in zip(picks[1].tolist(),
                                                         picks[2].tolist()):
                        model._replay_code(input_class, target_class)
                    io[_IO["draw"]] = 0
                    stage = _S["replay"]
                if model._id_epoch != miss.codes.epoch:
                    # a code made here cleared the table: the rollout
                    # starts from the step's code interned again
                    io[_IO["code"]] = model._prev_code()
                got = resume(stage)
            elif got == _R["tie"]:
                # select_topk orders the tie, on the row the rollout
                # stopped at: the step's until a step is taken
                steps = io[_IO["steps"]]
                row = kernel.probs if not steps else miss.heb.x
                step = select_topk(row, self._width)
                for at, (cls, p) in enumerate(step, steps * miss.picked):
                    miss.roll_top[at] = cls
                    miss.roll_p[at] = p
                io[_IO["steps"]] = steps + 1
                io[_IO["roll_class"]] = step[0][0]
                got = resume(_S["roll"] if steps + 1 < self._length
                             else _S["decode"])
            elif got == _R["unmet"]:
                self._stepped(miss)
                io[_IO["roll_code"]] = model._link(io[_IO["roll_code"]],
                                                   io[_IO["roll_class"]])
                got = resume(_S["roll"])
            else:  # an address the decode cannot hold: the stage's
                self._settle_miss(miss, False)
                return self.decode(address, page, rolled(
                    kernel.roll_top, kernel.roll_p, self._length,
                    miss.picked))
        return self._settle_miss(miss, True)

    def _stepped(self, miss: _CompiledMiss) -> None:
        """The network's code as its step left it (as ``_step_c`` leaves
        it), before a sub-step that may clear the code table."""
        io = miss.io
        if io[_IO["stepped"]]:
            code = io[_IO["code"]]
            model = miss.model
            with miss.codes.lock:
                model._prev_active = miss.codes.arrays[code]
                model._prev_id = code
                model._id_epoch = miss.codes.epoch
            io[_IO["stepped"]] = 0

    def _settle_miss(self,  # repro-lint: zone=compiled-miss
                     miss: _CompiledMiss, decoded: bool) -> list[int]:
        """Move what a compiled miss moved in the kernel's copies into the
        stages' state — the counters, the encoder's unit, the detector's
        window, the EMA, the stream position, the network's sequence
        state (as ``SparseHebbianNetwork._step_c`` leaves it), and, when
        the kernel ``decoded`` the rollout, the memo and the pages."""
        (n, cls, unit, code, stepped, feature, train, learned, replayed,
         suppressed, best, rolled_, *tops) = miss.out.tolist()
        stats = self.stats
        stats.misses_seen += 1
        self.encoder._prev_unit = unit
        if feature >= 0:  # (phases_seen moves only when a window closes)
            miss.recent.append(feature)
        policy = miss.always
        if policy is not None:
            policy.considered += 1
            policy.trained += 1
        if train:
            stats.trained_steps += 1
            if replayed >= 0:
                scheduler = self.scheduler
                assert scheduler is not None
                scheduler.invocations += 1
                scheduler.replayed_total += replayed
                stats.replayed_pairs += replayed
        self.accuracy_ema = miss.fio[0]
        self._prev_class = cls
        probs = miss.probs.copy()
        self._last_probs = miss.scored = probs
        model = miss.model
        if stepped:
            codes = miss.codes
            model._prev_active = codes.arrays[code]
            model._prev_id = code
            model._id_epoch = codes.epoch
        model._prev_pred = best if miss.punish else None
        model._last_probs = probs
        if learned:
            model.train_steps += 1
        if not decoded:
            return []
        if rolled_:
            self._ema_top = miss.memo = (probs, tops)
        stats.suppressed_low_confidence += suppressed
        if not n:
            return []
        stats.prefetches_emitted += n
        return miss.pages[:n].tolist()

    # ------------------------------------------------------------------
    def hint_phase(self, phase_id: int | None) -> None:
        """Application-directed phase hint (§5.4).

        "This could motivate an interface for application developers to
        directly tune replay parameters, or to indirectly indicate phase
        behavior and timings."  A hinted phase overrides the online
        detector for episode grouping and replay exclusion until cleared
        (``hint_phase(None)``).
        """
        if phase_id is not None and phase_id < 0:
            raise ValueError("phase_id must be non-negative (or None to clear)")
        self._hinted_phase = phase_id

    def reset_stream(self) -> None:
        """Forget stream position (e.g., between traces) but keep learning."""
        self.encoder.reset_stream()
        self._live.reset_state()
        self._prev_class = None
        self._last_probs = None
        # Predictions made for the old stream must not score the new one.
        self._lag_window.clear()
        self._ema_top = None


def arrays_model(prefetcher: object) -> TypeGuard[CLSPrefetcher]:
    """Whether ``prefetcher``'s per-miss stages are ones that arrays model
    in full: the one test behind both a cohort's groups
    (``CLSFleetGroup.group_key``) and the compiled miss
    (``rk_cls_miss``).  A CLS prefetcher whose model a fleet's kernels
    step (a Hebbian network served on backend ``"c"``,
    ``HebbianFleet.stacks``), on the delta encoder — so in rollout mode;
    direct mode needs the page encoder — whose classes are the model's;
    no availability manager, batch-accumulate training, per-access
    observer or recall memory; and a replay, if any, that samples an
    ``EpisodicStore`` within the raw block's attempts (no generative or
    ``on_replayed`` policy)."""
    if not isinstance(prefetcher, CLSPrefetcher):
        return False
    model = prefetcher.model
    if (not HebbianFleet.stacks(model)
            or prefetcher.manager is not None
            or prefetcher._batch_policy is not None
            or prefetcher.wants_accesses
            or prefetcher.recall_memory is not None):
        return False
    # Only the delta vocabulary is a table a row compare can search: the
    # page encoder's is as wide as the footprint, the region encoder's
    # cursors are a dict per lane.
    encoder = prefetcher.encoder
    if (type(encoder) is not DeltaVocabEncoder
            or encoder.vocab_size > model.vocab_size):
        return False
    scheduler = prefetcher.scheduler
    return scheduler is None or (
        scheduler.store is not None
        and scheduler.per_step * MAX_ATTEMPTS_PER_PICK
        <= LaneDraws.max_attempts)


class _CompiledMiss:
    """A prefetcher's compiled miss: the ``rk_cls_miss`` context
    (``kernel``) and the parts it was bound over, with the identities
    that say the kernel's copies of the stages' state are current —
    ``scored``, the row the last compiled miss left as ``_last_probs``
    (its values in ``kernel.probs``); ``memo``, the ``_ema_top`` whose
    classes ``kernel.memo`` holds; ``columns``, the store's input column
    the kernel appends to; ``vocab``, the encoder's table it copied."""

    __slots__ = ("kernel", "run", "io", "out", "fio", "probs", "pages",
                 "roll_top", "roll_p", "model",
                 "heb", "codes", "encoder", "vocab", "detector", "recent",
                 "scheduler", "store", "ring", "always", "punish", "picked",
                 "scored", "memo", "columns")

    @classmethod
    def bind(cls, p: CLSPrefetcher) -> _CompiledMiss | None:
        """``p``'s compiled miss; None where :func:`arrays_model` does
        not hold."""
        return cls(p) if arrays_model(p) else None

    def __init__(self, p: CLSPrefetcher) -> None:
        model = p.model
        assert isinstance(model, SparseHebbianNetwork)
        heb = model._kernels()
        assert heb is not None and model._codes is not None
        encoder = p.encoder
        assert isinstance(encoder, DeltaVocabEncoder)
        self.model, self.heb, self.codes = model, heb, model._codes
        self.encoder, self.detector = encoder, p.phase_detector
        # the detector's open window (an empty one without a detector)
        self.recent: deque[int] = (deque() if self.detector is None
                                   else self.detector._recent)
        self.scheduler = scheduler = p.scheduler
        self.store = self.ring = None
        settings: dict[str, float] = {}
        if scheduler is not None:
            self.store = scheduler.store
            threshold = getattr(scheduler.policy, "confidence_threshold",
                                None)
            settings.update(below=threshold is not None,
                            threshold=threshold or 0.0)
            if scheduler.per_step > 0:
                # the replay kernel's context over the store (bound once)
                scheduler._bind(model)
                self.ring = scheduler._ring
                settings.update(replay=1, replay_lr=model.config.lr
                                * scheduler.lr_scale)
        policy = p.training_policy
        self.always = policy if type(policy) is TrainAlways else None
        self.punish = model.config.punish_wrong
        self.picked = min(p._width, model.vocab_size)
        detector = self.detector
        self.kernel = c_backend.bind_cls_miss(
            heb, self.ring, encoder.vocab_size - 1, self.picked,
            shift=encoder._shift, collapse=encoder.collapse_repeats,
            region_shift=p._region_shift, bins=p._PHASE_FEATURE_BINS,
            window=0 if detector is None else detector.window,
            alpha=p._alpha, min_accuracy=p._min_accuracy,
            min_confidence=p._min_confidence, lr=model.config.lr * 1.0,
            width=p._width, length=p._length, page_shift=p._page_shift,
            train_always=self.always is not None, **settings)
        kernel = self.kernel
        self.run = kernel.run
        # the kernel's arrays as Python reads them: memoryviews give and
        # take ints and floats, numpy arrays make scalars of them
        self.io = memoryview(kernel.io)
        self.out = kernel.io[_IO["n"]:]
        self.fio = memoryview(kernel.fio)
        self.roll_top = memoryview(kernel.roll_top)
        self.roll_p = memoryview(kernel.roll_p)
        self.probs, self.pages = kernel.probs, kernel.pages
        self.scored: np.ndarray | None = None
        self.memo: tuple[np.ndarray, list[int]] | None = None
        self.columns: np.ndarray | None = None
        self.vocab: dict[int, int] | None = None
        self.take_vocabulary(encoder)
        self.point_store()

    def binds(self, p: CLSPrefetcher) -> bool:
        """Whether this is still ``p``'s compiled miss: the parts it was
        bound over are ``p``'s, and :func:`arrays_model` holds."""
        return (p.model is self.model and p.encoder is self.encoder
                and p.phase_detector is self.detector
                and p.scheduler is self.scheduler and arrays_model(p))

    def take_scored(self, scored: np.ndarray) -> None:
        """Score the next miss against ``scored``."""
        np.copyto(self.kernel.probs, scored)
        self.scored = scored

    def take_memo(self, memo: tuple[np.ndarray, list[int]]) -> None:
        """Read the scored row's top classes from ``memo``."""
        self.kernel.memo[:] = memo[1]
        self.memo = memo

    def take_vocabulary(self, encoder: DeltaVocabEncoder) -> None:
        """Encode and decode with ``encoder``'s vocabulary: the deltas it
        met since the last call, or all of them for another table."""
        table = encoder._class_to_delta
        known = self.kernel.ctx.known
        if table is self.vocab and len(table) == known + 1:
            self.kernel.learn_one(table[known + 1])
        else:
            self.kernel.learn(encoder.table()[0])
        self.vocab = table

    def point_store(self) -> None:
        """Append to the store's columns as they are now, and replay from
        them."""
        store = self.store
        if store is None or store.ep_input is self.columns:
            return
        columns = (store.ep_input, store.ep_target, store.ep_phase,
                   store.ep_confidence, store.ep_timestamp)
        self.kernel.point_store(store.ep_count, store.ep_cap, columns)
        if self.ring is not None:
            self.ring.point(*columns[:3])
        self.columns = store.ep_input
