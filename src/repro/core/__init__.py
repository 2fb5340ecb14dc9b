"""The paper's core contribution: the CLS (hippocampal-neocortical) prefetcher."""

from .availability import (
    ShadowModelManager,
    perturb_weights,
    weight_noise_robustness,
)
from .cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig, CLSPrefetcherStats
from .encoding import (
    OOV_CLASS,
    DeltaVocabEncoder,
    PageVocabEncoder,
    RegionDeltaEncoder,
    classify_addresses,
    make_encoder,
)
from .hippocampus import Episode, EpisodicStore, SparseAssociativeMemory
from .metrics import (
    ConfidenceCurve,
    InterferenceSummary,
    PrefetchSummary,
    summarize_prefetch,
)
from .phase_detect import OnlinePhaseDetector, cosine_similarity
from .recall import HippocampalRecall, RecallConfig, RecallStats
from .replay import (
    REPLAY_LR_SCALE,
    ConfidenceFilteredReplay,
    ConsolidatingReplay,
    FullReplay,
    GenerativeReplay,
    PrototypeReplay,
    ReplayScheduler,
    RingBufferReplay,
    make_replay_policy,
)
from .sampling import (
    BatchAccumulate,
    ConfidenceFiltered,
    RandomSampling,
    TrainAlways,
    TrainEveryK,
    make_training_policy,
)

__all__ = [
    "ShadowModelManager",
    "perturb_weights",
    "weight_noise_robustness",
    "CLSPrefetcher",
    "CLSPrefetcherConfig",
    "CLSPrefetcherStats",
    "OOV_CLASS",
    "DeltaVocabEncoder",
    "PageVocabEncoder",
    "RegionDeltaEncoder",
    "classify_addresses",
    "make_encoder",
    "Episode",
    "EpisodicStore",
    "SparseAssociativeMemory",
    "ConfidenceCurve",
    "InterferenceSummary",
    "PrefetchSummary",
    "summarize_prefetch",
    "OnlinePhaseDetector",
    "cosine_similarity",
    "HippocampalRecall",
    "RecallConfig",
    "RecallStats",
    "REPLAY_LR_SCALE",
    "ConfidenceFilteredReplay",
    "ConsolidatingReplay",
    "FullReplay",
    "GenerativeReplay",
    "PrototypeReplay",
    "ReplayScheduler",
    "RingBufferReplay",
    "make_replay_policy",
    "BatchAccumulate",
    "ConfidenceFiltered",
    "RandomSampling",
    "TrainAlways",
    "TrainEveryK",
    "make_training_policy",
]
