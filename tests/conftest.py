"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.nn.lstm import LSTMConfig, OnlineLSTM
from repro.patterns.generators import PatternSpec


# ``REPRO_DISABLE_COMPILED`` is read by ``repro.nn.backends`` at import,
# which the imports above make before any test module is collected: the
# cross-backend suites snapshot ``available_backends()`` into module-level
# parametrize lists, so the disable lands first.

# Tier-1 is the same program on every run: ``tier1`` (the default) draws
# each property test's examples from a hash of the test, and reads no
# example database.  ``HYPOTHESIS_PROFILE=explore`` draws fresh examples
# and keeps failures (and ``patches/`` that pin them as ``@example``)
# under ``.hypothesis/`` — CI's non-gating exploring leg uploads that.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_spec() -> PatternSpec:
    """A small pattern spec that keeps generator tests fast."""
    return PatternSpec(n=400, working_set=40, element_size=64, seed=7)


@pytest.fixture
def tiny_lstm() -> OnlineLSTM:
    """A tiny LSTM that trains in milliseconds."""
    return OnlineLSTM(LSTMConfig(vocab_size=16, embed_dim=8, hidden_dim=16,
                                 window=4, lr=1.0, seed=3))


@pytest.fixture
def tiny_hebbian() -> SparseHebbianNetwork:
    """A small Hebbian network with the paper's sparsity ratios."""
    return SparseHebbianNetwork(HebbianConfig(
        vocab_size=16, hidden_dim=200, connectivity_in=0.125,
        connectivity_rec=0.02, connectivity_out=0.125,
        activation_fraction=0.10, seed=3))
