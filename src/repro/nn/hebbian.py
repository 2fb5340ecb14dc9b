"""The sparse Hebbian prefetch network (§3.1).

The paper's prototype: a single hidden layer of 1000 neurons with 12.5%
connectivity between layers and 10% activation sparsity (k-winner-take-all),
plus a recurrent state for sequence memory.  Learning uses the Hebbian rule
of Eq. 1 — for an active (clamped-to-target) output neuron, weights from
active inputs are increased and weights from inactive inputs decreased:

    dw_ij = (y_j != 0) * [ (x_i != 0) - (x_i == 0) ]

Mapped onto prefetching:

- The *input* is the one-hot encoded miss class (vocabulary shared with the
  LSTM baseline).
- A fixed sparse binary projection (the dentate-gyrus analogue: pattern
  separation) plus a sparse recurrent loop produce the hidden
  pre-activation; k-WTA keeps the top 10%.
- The *readout* weights to the class vocabulary are learned with Eq. 1,
  clamping the output layer to the observed next class.  An optional
  error-driven term also depresses a wrongly predicted class, which
  sharpens convergence without changing the rule's cost profile.

All learned updates touch only masked (connected) weights, and inference
touches only *active* units — this is where the order-of-magnitude op
advantage over the LSTM (Table 2) comes from.  The implementation honors
that cost profile: the projections are stored as precomputed index lists
(CSR-style), so one ``step()`` performs

- a padded gather + ``bincount`` over the ~``k * n * connectivity_rec``
  recurrent edges leaving the active set (instead of a dense
  ``(k, hidden)`` gather-and-sum),
- a per-class connected-row update of the readout column (instead of
  full ``(hidden,)`` temporaries), and
- a gather of the connected entries of the ``k`` active readout rows.

The readout is *stored* the way it is addressed: one ``(n_connected,)``
float64 value vector per network (``readout_values``), holding exactly
the ``mask_out.sum()`` weights Eq. 1 can ever move, in class-major order
— target 0's connected rows ascending, then target 1's, ... — so a
target's column update is one contiguous range.  A fixed
``(vocab, hidden)`` lookup shared by all clones maps a ``(class, row)``
to its slot in the vector (``-1``: unconnected).  There
is no dense ``(hidden, vocab)`` weight array: ``w_out`` is a property
whose getter *materialises* one (``+0.0`` at unconnected entries) for
oracles, digests and tests, and whose setter gathers the connected
entries of a dense array into the network's own vector (DESIGN.md §6).

Hidden codes are additionally memoized per ``(input class, context)``:
the fixed projections make the k-WTA code a pure function of those two,
and real miss streams revisit the same transitions constantly (the same
regularity the prefetcher itself exploits), so steady-state inference
skips the projection entirely.  The memo is always on: only the readout
learns (§3.1), so nothing ever changes a code.  The original dense
masked-array implementation (and dense storage) is kept under
``tests/nn/`` as the oracle; the kernels here are bit-identical to it
(see ``tests/nn/test_hebbian_equivalence.py``).

Under backend ``"c"`` the same steps run on fused C kernels bound to
the network's own value vector, naming codes by their ids in a code
table shared by clones (:class:`_CodeTable`: the memo's codes, each
class's context-free code, the transitions between them):
``rk_heb_step`` (the code that follows on the input class; Eq. 1's
column update, the punish term and the clip from the last code; the
readout of the new one, walked by hidden row so each class sums in
``bincount``'s order; the softmax — numpy's own float64 ``exp`` loop,
called from C, and its pairwise-sum normalisation), ``rk_heb_rollout``
(every step's top-width selection and the next code's softmax),
``rk_heb_learn_class`` (a context-free learn keyed by class) and
``rk_heb_finite`` (swap admission's scan of every stored value).  A
trained step and a rollout are one call each; ``hidden_code`` stays
numpy and runs only for a transition the table has not met.  Clones
stepped from different threads share the table, so every kernel call
that reads it holds its lock.  Where the selection would depend on
how numpy orders a tie, the rollout hands it to :func:`select_topk`.

Default configuration: vocab 128, hidden 1000, 12.5% in/out connectivity,
1.7% recurrent connectivity — 49k connected weights, the paper's Table 2
figure for the Hebbian network.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from .backends import NN_BACKENDS, c_backend, resolve_backend
from .base import evaluate_sequence_probs
from .quantization import snap_to_grid


@dataclass(frozen=True)
class HebbianConfig:
    """Sparse Hebbian network hyperparameters.

    Attributes:
        vocab_size: Number of miss classes.
        hidden_dim: Hidden-layer width (paper: 1000).
        connectivity_in: Input->hidden connection density (paper: 12.5%).
        connectivity_rec: Hidden->hidden recurrent density.
        connectivity_out: Hidden->output density (paper: 12.5%).
        activation_fraction: Fraction of hidden units active (paper: 10%).
        lr: Readout learning-rate (units of weight per update; finite,
            >= 0).
        negative_scale: Scale of Eq. 1's depression term (the "-1" applied
            to inactive-but-connected inputs of the clamped target).  At
            1.0 (the paper's rule) a target reached from several different
            contexts — e.g. interleaved streams — has its potentiation and
            depression cancel and never consolidates; real synapses weight
            LTD below LTP for the same reason.  0.25 keeps the
            decorrelation benefit while letting multi-context targets
            saturate.  Finite, >= 0.
        weight_max: Readout weights are clipped to [-weight_max, weight_max];
            bounds the scores so confidence stays meaningful and forgetting
            is possible at all.  Finite, > 0.
        recurrent_strength: Scale of the (normalized) recurrent contribution
            to the hidden pre-activation.
        input_gain: Weight of the feed-forward input drive.  Kept above the
            recurrent ceiling so the active set always lies inside the
            input's connected units — the input selects the *support*,
            recurrent context selects the winners within it.  This is what
            makes hidden codes for the same class overlap heavily across
            contexts (pattern completion) while codes for different classes
            stay nearly disjoint (pattern separation).
        punish_wrong: Apply the error-driven depression of a wrong argmax.
        input_mode: "onehot" (one input unit per class — input weights grow
            with the vocabulary) or "signature" (each class activates
            ``signature_k`` of ``signature_dim`` input units via fixed
            random hashing).  §5.3 observes that one-hot/embedding input
            layers grow linearly with the address vocabulary; signature
            codes fix the input layer's size regardless of vocabulary,
            at the cost of rare hash collisions and weaker accuracy.
            Pair signature mode with a small ``recurrent_strength``
            (<= 0.1): the signature drive is continuous rather than a hard
            support set, so a strong recurrent term destabilizes the
            winner set instead of merely reordering it.
        signature_dim: Input units in signature mode.
        signature_k: Active input units per class in signature mode.
        seed: Mask/initialization seed.
        backend: ``"auto"``, ``"numpy"``, ``"c"`` or ``"int8"``.
            ``"c"`` runs the step, the rollout and training on compiled
            kernels (``nn/backends/c_backend.py``), bit-identical to the
            numpy arithmetic, which ``"numpy"`` keeps as the oracle.
            ``int8`` is the one name that changes what the network does:
            it serves the readout from an int8-quantized weight mirror
            (training stays float64) with a per-entry score error
            bounded by half a quantization step per active row.
    """

    vocab_size: int = 128
    hidden_dim: int = 1000
    connectivity_in: float = 0.125
    connectivity_rec: float = 0.017
    connectivity_out: float = 0.125
    activation_fraction: float = 0.10
    lr: float = 1.0
    negative_scale: float = 1.0
    weight_max: float = 8.0
    recurrent_strength: float = 0.5
    input_gain: float = 2.0
    punish_wrong: bool = True
    input_mode: str = "onehot"
    signature_dim: int = 256
    signature_k: int = 8
    seed: int = 0
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.backend not in ("auto", *NN_BACKENDS):
            raise ValueError(
                f"backend must be one of {('auto', *NN_BACKENDS)}")
        if self.input_mode not in ("onehot", "signature"):
            raise ValueError("input_mode must be 'onehot' or 'signature'")
        if self.input_mode == "signature":
            if self.signature_k <= 0 or self.signature_k > self.signature_dim:
                raise ValueError("signature_k must be in [1, signature_dim]")
        if not 0 < self.activation_fraction <= 1:
            raise ValueError("activation_fraction must be in (0, 1]")
        for density in (self.connectivity_in, self.connectivity_rec,
                        self.connectivity_out):
            if not 0 < density <= 1:
                raise ValueError("connectivity must be in (0, 1]")
        if min(self.vocab_size, self.hidden_dim) <= 0:
            raise ValueError("dimensions must be positive")
        # A non-finite rate or bound poisons the weights (and NaN compares
        # differently in the C clip than in np.clip); a negative rate
        # turns Eq. 1 anti-Hebbian.
        for name in ("lr", "negative_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        if not (math.isfinite(self.weight_max) and self.weight_max > 0):
            raise ValueError("weight_max must be finite and > 0")

    @property
    def k_winners(self) -> int:
        return max(1, int(round(self.hidden_dim * self.activation_fraction)))


#: Hidden-code memo entries kept before the cache is dropped and rebuilt.
_CODE_CACHE_CAP = 8192

#: Column-delta memo entries kept before that cache is dropped.  Keyed per
#: (code, target, lr_scale), so it can outgrow the code cache on its own.
_DELTA_CACHE_CAP = 65536

#: Sparse-readout index entries kept (two ~connectivity*k*V index arrays
#: per code, so the memory cap is tighter than the code cache's).
_READOUT_IDX_CAP = 4096


def rolled(top: Any, p: Any, steps: int, picked: int
           ) -> list[list[tuple[int, float]]]:
    """The first ``steps`` steps a rollout kernel left in its scratch —
    classes ``top``, probabilities ``p``, ``picked`` of each a step — as
    ``predict_rollout`` returns them."""
    n = steps * picked
    pairs = zip(top[:n].tolist(), p[:n].tolist())
    return list(map(list, zip(*[pairs] * picked)))


def select_topk(probs: np.ndarray, width: int) -> list[tuple[int, float]]:
    """One rollout selection step: the top ``width`` classes, descending.

    Shared by ``predict_rollout`` and ``HebbianFleet.rollout_lanes`` so a
    lane's selection is the same numpy call sequence (hence the same
    bits) on either path.
    """
    if width == 2 and probs.size > 2:
        # Same selection and ordering as the general branch below, with
        # the two-element argsort done as one scalar compare:
        # argsort([v0, v1]) is [0, 1] when v0 <= v1 (numpy's small sorts
        # are insertion sorts, stable on ties), so reversed descending
        # order is [1, 0] exactly then.
        part = probs.argpartition(-2)
        i0 = part.item(-2)
        i1 = part.item(-1)
        v0 = probs.item(i0)
        v1 = probs.item(i1)
        if v0 <= v1:
            return [(i1, v1), (i0, v0)]
        return [(i0, v0), (i1, v1)]
    if width < probs.size:
        # top-width selection, sorted within the slice
        part = probs.argpartition(-width)[-width:]
        vals = probs[part]
        order = vals.argsort()[::-1]
        return list(zip(part[order].tolist(), vals[order].tolist()))
    top_arr = probs.argsort()[::-1][:width]
    return list(zip(top_arr.tolist(), probs[top_arr].tolist()))


class _WriteLog:
    """The value-vector offsets a fork pair (see
    :meth:`SparseHebbianNetwork.fork`) has written since the two were
    last level: index arrays kept by reference and their total length.
    Bounded: once ``count`` passes the vector's size the arrays are
    dropped and the log just means "everything"."""

    __slots__ = ("parts", "count")

    def __init__(self) -> None:
        self.parts: list[np.ndarray] = []
        self.count = 0


class _CodeTable:
    """The hidden-code memo's codes by id, under backend ``"c"``: what the
    kernels read a code from, shared by a network's clones like the memo.

    - ``codes``: code id ``c`` is row ``c`` (``k`` wide).  The memo's
      codes *are* these rows (read-only views), one per content: a code
      computed again under another key is the row already there.
    - ``code_of``: each class's context-free code id (-1: not made yet).
    - The transitions, in the kernels' open-addressing table
      (``c_backend.CBook``): the id of ``hidden_code(cls, code)`` by
      ``(code, cls)``, recorded by :meth:`link`, half full at most.  Its
      slots are allocated at the first link, so a network that never
      steps on its own (a fleet prototype) carries none.

    :meth:`intern` gives any code its id: the row's own by identity, else
    by content (a copy or a fleet's code), else a new row.  Ids live
    until the memo clears (:meth:`reset`, which ``epoch`` counts): a
    network keeps the epoch of the id it holds and interns again on a
    mismatch.  A reset starts a new table, so views handed out before it
    stay valid arrays.

    Clones stepped from different threads (a serving lane's live and
    shadow networks) share the table, and a kernel reads it without the
    GIL, so ``lock`` is held around every change to it (intern, link,
    reset) and around every kernel call that reads it together with the
    id it passes.
    """

    def __init__(self, vocab: int, hidden: int, k: int, cap: int) -> None:
        self.vocab = vocab
        self.hidden = hidden
        self.k = k
        self.lock = threading.RLock()
        self.code_of = np.full(vocab, -1, dtype=np.int64)
        self._slots = 1 << max(4, (2 * cap - 1).bit_length())
        self.keys: np.ndarray | None = None
        self.book = c_backend.code_book(self.code_of)
        self._rows = cap + vocab
        self.epoch = 0
        self.reset()

    def reset(self) -> None:
        """Forget every code and transition."""
        with self.lock:
            self.epoch += 1
            self.codes = np.empty((self._rows, self.k), dtype=np.int64)
            self.book.point_codes(self.codes)
            self.arrays: list[np.ndarray] = []
            self._ids: dict[int, int] = {}
            self._by_content: dict[bytes, int] = {}
            self.code_of.fill(-1)
            if self.keys is not None:
                self.keys.fill(-1)
                self.book.forget_links()

    def intern(self, code: np.ndarray) -> int:
        """``code``'s id, a new row if its content has none."""
        with self.lock:
            cid = self._ids.get(id(code))
            if cid is not None:
                return cid
            code = np.asarray(code, dtype=np.int64)
            key = code.tobytes()
            cid = self._by_content.get(key)
            if cid is not None:
                return cid
            cid = len(self.arrays)
            if cid == len(self.codes):
                self._grow()
            row = self.codes[cid]
            row[:] = code
            row.flags.writeable = False
            self.arrays.append(row)
            self._ids[id(row)] = cid
            self._by_content[key] = cid
            return cid

    def _grow(self) -> None:
        """Twice the rows, the codes copied (ids keep; old views stay
        valid arrays)."""
        codes = np.empty((2 * len(self.codes), self.k), dtype=np.int64)
        codes[:len(self.codes)] = self.codes
        self.codes = codes
        self.book.point_codes(codes)

    def link(self, code: int, cls: int, next_: int) -> bool:
        """Record that code ``next_`` follows ``code`` on ``cls`` (``code``
        -1: ``next_`` is ``cls``'s context-free code).  False when the
        transition table is full."""
        with self.lock:
            if code < 0:
                self.code_of[cls] = next_
                return True
            if self.keys is None:
                self.keys = np.full(self._slots, -1, dtype=np.int64)
                self.book.point_links(
                    self.keys, np.zeros(self._slots, dtype=np.int64))
            return self.book.link(self.vocab, code, cls, next_)


class SparseHebbianNetwork:
    """Online sparse Hebbian sequence model (implements ``SequenceModel``)."""

    #: ``train_pairs`` reproduces the sequential ``train_pair`` loop bit
    #: for bit (see its docstring), so replay may batch through it.
    train_pairs_sequential_equivalent = True
    #: ``predict_rollout`` selects each step's top-width with the same
    #: ``np.argpartition(probs, -width)`` call the prefetcher's accuracy
    #: EMA uses, so the first step's membership set may be memoized and
    #: reused verbatim.  (The LSTM's full argsort can pick different
    #: members under boundary ties, so it must not set this.)
    rollout_top_argpartition = True

    def __init__(self, config: HebbianConfig = HebbianConfig()) -> None:
        self.config = config
        self.vocab_size = config.vocab_size
        # int8 serves scores from a quantized weight mirror with this
        # fixed symmetric scale; c runs the step on the compiled kernels
        # (the same arithmetic, bit for bit).
        self._backend = resolve_backend(config.backend, domain="nn")
        self._q_scale = config.weight_max / 127.0
        rng = np.random.default_rng(config.seed)
        v, n = config.vocab_size, config.hidden_dim
        if config.input_mode == "signature":
            # Fixed k-of-D random codes: the input layer's width is
            # signature_dim regardless of the vocabulary size (§5.3).
            in_rows = config.signature_dim
            self._signatures = np.stack([
                rng.choice(in_rows, size=config.signature_k, replace=False)
                for _ in range(v)])
        else:
            in_rows = v
            self._signatures = None
        self.mask_in = rng.random((in_rows, n)) < config.connectivity_in
        self.mask_rec = rng.random((n, n)) < config.connectivity_rec
        self.mask_out = rng.random((n, v)) < config.connectivity_out
        self.w_in = self.mask_in.astype(np.float64)
        if self._signatures is not None:
            # Per-unit standardization of the signature drive.  Raw hit
            # counts are proportional to a unit's in-degree, so hub units
            # would win the k-WTA under *every* signature and pattern
            # separation would collapse; z-scoring the hits makes the
            # winners signature-specific.
            degree = self.mask_in.sum(axis=0).astype(np.float64)
            p = config.signature_k / config.signature_dim
            self._sig_mu = degree * p
            self._sig_sigma = np.sqrt(np.maximum(degree * p * (1 - p), 1e-6))
        # The write log shared with a fork partner; None (no logging)
        # until ``fork()``.
        self._written: _WriteLog | None = None
        # The learned state: one value per connected readout entry, in
        # class-major order (see ``_build_kernels``).  The int8 serving
        # mirror is a second vector; under every other backend it is
        # the same object.
        self._w_vals = np.zeros(int(self.mask_out.sum()))
        self._serve_vals = (np.zeros_like(self._w_vals)
                            if self._backend == "int8" else self._w_vals)
        # Fixed per-unit jitter breaks k-WTA ties deterministically.
        self._tiebreak = rng.uniform(0.0, 1e-3, size=n)
        # Readout scores span roughly +-k * connectivity_out * weight_max at
        # convergence; this temperature maps that span to +-8 logits so the
        # softmax confidence saturates near 1 for a well-learned class.
        score_span = config.k_winners * config.connectivity_out * config.weight_max
        self._temperature = max(0.25, score_span / 8.0)

        self._build_kernels()
        # The compiled kernels over this network's own value vector, once
        # bound (see ``_kernels``).
        self._heb: c_backend.CHebbian | None = None

        # The sequence state: the last step's hidden code, its argmax and
        # its probabilities (the rollout's first step).
        self._prev_active: np.ndarray | None = None
        self._prev_pred: int | None = None
        self._last_probs: np.ndarray | None = None
        self.train_steps = 0
        # Backend "c": the code table's id of ``_prev_active`` (-1: none)
        # and the table epoch it is an id of; any other epoch means "not
        # known", and the code is interned again at its next use (see
        # ``_prev_code``).  Every writer of ``_prev_active`` keeps the two
        # coherent.
        self._prev_id = -1
        self._id_epoch = -1

    # ------------------------------------------------------------------
    # Sparse kernels
    # ------------------------------------------------------------------
    def _build_kernels(self) -> None:
        """Precompute the CSR-style index structures the hot path runs on.

        - ``_rec_pad``: per-unit recurrent out-neighbor lists from
          ``mask_rec``, padded to the max out-degree with a sentinel column
          (index ``hidden_dim``) so a whole active set gathers in one
          fancy-index + ``bincount``.  The recurrent projection is binary
          and fixed, so edge *counts* reproduce the dense reference's
          ``w_rec[active].sum(axis=0)`` exactly.
        - ``_pre_base``: per-class feed-forward drive with the tie-break
          jitter folded in — the input projection is fixed (only the
          readout learns, §3.1), so the k-WTA input term is a row copy.
        - ``_out_rows`` / ``_out_flat``: per-class connected-hidden
          indices of the readout and their offsets in the value vector.
          The vector is class-major, so a target's offsets are one
          contiguous range and Eq. 1 updates touch only those
          ~``hidden * connectivity_out`` values.
        - ``_dense_flat`` / ``_slot_of``: the two directions of the
          storage map — each value's flat offset in a dense
          ``(hidden, vocab)`` array, and the ``(vocab, hidden)`` lookup
          from a ``(class, row)`` to its value offset (``-1`` where
          unconnected; class-major like the vector, so the punish term
          gathers within one contiguous row).  Fixed, so clones share
          them like the masks.
        """
        config = self.config
        v, n = config.vocab_size, config.hidden_dim
        self._k = config.k_winners

        deg = self.mask_rec.sum(axis=1)
        width = int(deg.max()) if deg.size else 0
        rec_pad = np.full((n, max(width, 1)), n, dtype=np.intp)
        rows_idx, cols_idx = np.nonzero(self.mask_rec)
        if rows_idx.size:
            first = np.searchsorted(rows_idx, rows_idx, side="left")
            rec_pad[rows_idx, np.arange(rows_idx.size) - first] = cols_idx
        self._rec_pad = rec_pad
        self._rec_bins = n + 1  # one sentinel bin for the padding

        if self._signatures is not None:
            hits = np.stack([self.w_in[sig].sum(axis=0)
                             for sig in self._signatures])
            z = (hits - self._sig_mu) / self._sig_sigma
            self._pre_base = (config.input_gain / 3.0) * z + self._tiebreak
        else:
            self._pre_base = config.input_gain * self.w_in + self._tiebreak
        self._pre_buf = np.empty(n)

        self._out_rows = tuple(np.flatnonzero(self.mask_out[:, t])
                               for t in range(v))
        starts = np.cumsum([0] + [rows.size for rows in self._out_rows])
        self._out_flat = tuple(
            np.arange(starts[t], starts[t + 1], dtype=np.intp)
            for t in range(v))
        targets, rows = np.nonzero(self.mask_out.T)  # class-major
        self._dense_flat = rows * v + targets
        self._slot_of = np.full((v, n), -1, dtype=np.intp)
        self._slot_of[targets, rows] = np.arange(targets.size)
        self._heb_tables = None
        self._codes: _CodeTable | None = None
        if self._backend == "c":
            # The kernels' readout walks the entries by hidden row (CSR,
            # classes ascending within a row), so a code's rows add into
            # each class in the order ``readout``'s bincount adds them;
            # Eq. 1 walks a target's slots, ``out_start[t]:out_start[t +
            # 1]``, slot ``s`` sitting in hidden row ``slot_row[s]``.
            by_row, by_class = np.nonzero(self.mask_out)
            row_start = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(self.mask_out.sum(axis=1), out=row_start[1:])
            # The memo's codes by id, with the transitions between them,
            # shared by clones like the memo.
            self._codes = _CodeTable(v, n, self._k, _CODE_CACHE_CAP)
            self._heb_tables = c_backend.hebbian_tables({
                "out_start": starts.astype(np.int64),
                "slot_row": rows.astype(np.int64),
                "row_start": row_start,
                "row_class": by_class.astype(np.int64),
                "row_slot": self._slot_of[by_class, by_row].astype(np.int64),
                "slot_of": np.ascontiguousarray(self._slot_of, np.int64)},
                self._codes.book)
        self._scratch_active = np.zeros(n, dtype=bool)
        self._probs_buf = np.empty(v)
        # (class, context) -> k-WTA code; valid because the projections the
        # code depends on are fixed.
        self._code_cache: dict[tuple[int, bytes | None], np.ndarray] = {}
        # id(cache-resident code) -> its boolean membership mask (the
        # numpy arithmetic's; backend "c" keys its codes by id in
        # ``_codes``).  Doubles as the registry that lets a cached code
        # serve as a context *key* by object identity instead of a
        # 400-byte ``tobytes()`` hash: ids are unique among live objects,
        # every registered array is kept alive by the cache, and both
        # structures are cleared together.
        self._code_masks: dict[int, np.ndarray] = {}
        # (id(code), target, lr_scale) -> the precomputed Eq. 1 column
        # delta.  Deltas depend only on the code's membership mask and the
        # (fixed) learning-rate constants, never on the weights, so they
        # are reusable verbatim.  Only cache-resident codes are keyed (the
        # cache keeps them alive, making ids stable); cleared with it.
        self._delta_cache: dict[tuple[int, int, float], np.ndarray] = {}
        # id(code) -> (cols, flat): the classes and value-vector offsets
        # of the *connected* entries of the code's rows, in row-major
        # order — what the readout gathers and accumulates (see
        # ``readout`` for the bit-identity argument).  Same id-keyed
        # lifecycle as the masks.
        self._readout_idx: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _kernels(self) -> c_backend.CHebbian | None:
        """The compiled kernels over this network's own value vector
        under backend ``"c"`` — bound at first use, so a network that
        never runs on its own (a fleet member) carries no context — else
        None: the numpy arithmetic."""
        if self._heb is None and self._heb_tables is not None:
            self._heb = c_backend.bind_hebbian(
                self._heb_tables, self._w_vals, **self._kernel_settings())
        return self._heb

    @property
    def compiled(self) -> bool:
        """Whether the network runs on the compiled kernels (backend
        ``"c"``)."""
        return self._heb_tables is not None

    def _kernel_settings(self) -> dict[str, float]:
        """The scalar fields of the kernels' ``rk_heb`` context."""
        config = self.config
        return {"vocab": config.vocab_size, "hidden": config.hidden_dim,
                "k": self._k, "punish": int(config.punish_wrong),
                "temperature": self._temperature,
                "weight_max": config.weight_max,
                "negative_scale": config.negative_scale}

    def _prev_code(self) -> int:
        """The code table's id of ``_prev_active`` (-1: none), interned
        when the id held is of another epoch (under the table's lock)."""
        prev = self._prev_active
        if prev is None or not prev.size:
            return -1
        codes = self._codes
        assert codes is not None
        if self._id_epoch != codes.epoch:
            self._prev_id = codes.intern(prev)
            self._id_epoch = codes.epoch
        return self._prev_id

    def _link(self, code: int, cls: int) -> int:
        """Make ``hidden_code(cls, code's array)`` (``code`` -1: no
        context) and record the transition in the code table; returns
        ``code``'s id afterwards — making the code may clear the memo,
        and the table with it.  The caller holds the table's lock, so
        ``code`` stays an id of the table it reads."""
        codes = self._codes
        assert codes is not None
        prev = None if code < 0 else codes.arrays[code]
        while True:
            made = self.hidden_code(cls, prev)
            code = -1 if prev is None else codes.intern(prev)
            if codes.link(code, cls, codes.intern(made)):
                return code
            self._clear_codes()

    def values_finite(self) -> bool:
        """Whether every stored readout value is finite: one
        ``rk_heb_finite`` call over the bound value vector on the
        kernels, numpy's scan otherwise.  Either reads all
        ``n_connected`` values."""
        heb = self._heb or self._kernels()
        if heb is not None:
            return bool(heb.finite())
        return bool(np.isfinite(self._w_vals).all())

    @property
    def readout_values(self) -> np.ndarray:
        """The learned state itself: the ``(n_connected,)`` readout
        values in class-major order, as a read-only view."""
        view = self._w_vals.view()
        view.flags.writeable = False
        return view

    @property
    def w_out(self) -> np.ndarray:
        """The readout weights as a dense ``(hidden, vocab)`` array.

        A *view for oracles* (the dense reference, digests,
        ``perturb_weights``, tests), not the storage: every read
        materialises a fresh array from the value vector, with ``+0.0``
        at unconnected entries, so writing into it changes nothing.
        Weights change only through this network's methods or by
        assigning a whole dense array here.  The setter gathers the
        connected entries into the network's own vector — it never
        adopts the caller's array, so two networks cannot share weights
        (``a.w_out = b.w_out`` leaves two independent copies, each with
        its own coherent int8 mirror) — and marks the whole write log.
        An unconnected entry cannot be stored: a non-zero or non-finite
        value there raises ``ValueError``.
        """
        return self._dense(self._w_vals)

    @w_out.setter
    def w_out(self, value: np.ndarray) -> None:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != self.mask_out.shape:
            raise ValueError(f"w_out must have shape {self.mask_out.shape}, "
                             f"got {arr.shape}")
        if arr[~self.mask_out].any():  # NaN and inf are truthy
            raise ValueError("w_out has a non-zero or non-finite value at "
                             "an unconnected entry")
        self._set_values(arr.reshape(-1).take(self._dense_flat))

    def _dense(self, values: np.ndarray) -> np.ndarray:
        """``values`` (value-vector layout) scattered into a fresh dense
        ``(hidden, vocab)`` array of zeros."""
        dense = np.zeros(self.mask_out.shape)
        dense.reshape(-1)[self._dense_flat] = values
        return dense

    def _set_values(self, values: np.ndarray) -> None:
        """Overwrite every learned value (a private copy of ``values``);
        the wholesale counterpart of :meth:`_note_written`."""
        np.copyto(self._w_vals, values)
        log = self._written
        if log is not None:
            log.parts.clear()
            log.count = values.size + 1  # every entry may differ
        if self._serve_vals is not self._w_vals:
            self._serve_vals[:] = snap_to_grid(self._w_vals, self._q_scale)

    def _note_written(self, flat: np.ndarray) -> None:
        """Every weight-write site calls this after its scatter to
        ``flat``: log the offsets for the fork partner (when there is
        one) and refresh the int8 serving mirror (when it is a distinct
        vector, ``backend="int8"``).  ``flat`` is kept by reference — the
        write sites pass fixed index tables or fresh arrays.
        """
        log = self._written
        if log is not None:
            log.count += flat.size
            if log.count > self._w_vals.size:
                log.parts.clear()
            else:
                log.parts.append(flat)
        if self._serve_vals is self._w_vals:
            return
        vals = self._w_vals.take(flat)
        self._serve_vals[flat] = snap_to_grid(vals, self._q_scale)

    # ------------------------------------------------------------------
    # Forward pieces
    # ------------------------------------------------------------------
    def hidden_code(self, input_class: int,
                    prev_active: np.ndarray | None = None) -> np.ndarray:
        """k-WTA hidden activation (indices) for an input in a context.

        The returned array may be shared with the internal code memo —
        treat it as read-only.
        """
        has_context = prev_active is not None and prev_active.size
        cache = self._code_cache
        # Content-keyed on purpose: element-equal codes reach here as
        # distinct array objects, and identity keys would fragment the
        # cache into one entry per object.
        key = (input_class, prev_active.tobytes() if has_context else None)
        code = cache.get(key)
        if code is not None:
            return code
        config = self.config
        pre = self._pre_buf
        np.copyto(pre, self._pre_base[input_class])
        if has_context:
            # Normalize by the expected number of recurrent hits per unit so
            # the recurrent term peaks around ``recurrent_strength`` and can
            # order units within the input's support without overriding it.
            expected_hits = max(1.0, prev_active.size * config.connectivity_rec)
            scale = config.recurrent_strength / expected_hits
            counts = np.bincount(self._rec_pad[prev_active].ravel(),
                                 minlength=self._rec_bins)
            pre += scale * counts[:config.hidden_dim]
        active = pre.argpartition(-self._k)[-self._k:]
        codes = self._codes
        if codes is not None:
            with codes.lock:
                if len(cache) >= _CODE_CACHE_CAP:
                    self._clear_codes()
                active = codes.arrays[codes.intern(active)]  # the row
                cache[key] = active
            return active
        if len(cache) >= _CODE_CACHE_CAP:
            self._clear_codes()
        mask = np.zeros(config.hidden_dim, dtype=bool)
        mask[active] = True
        self._code_masks[id(active)] = mask
        cache[key] = active
        return active

    def _clear_codes(self) -> None:
        """Drop the memo and everything keyed by its codes (on backend
        ``"c"`` its callers hold the code table's lock)."""
        self._code_cache.clear()
        self._code_masks.clear()
        self._delta_cache.clear()
        self._readout_idx.clear()
        if self._codes is not None:
            self._codes.reset()

    def readout(self, active: np.ndarray) -> np.ndarray:
        """Class scores from an active hidden set.

        Gathers only the *connected* entries of the active rows — the
        only ones stored — and accumulates them per class with
        ``np.bincount``.  This is bit-identical to the dense row sum of
        the reference: ``np.add.reduce`` over axis 0 adds the rows
        elementwise in order, bincount adds the row-major-ordered
        connected values per column in the same row order, and the
        entries the dense sum has on top are exactly ``+0.0`` (``_learn``
        never touches unconnected entries and the update arithmetic
        cannot produce ``-0.0``), so dropping them changes no bits.
        Pinned by tests against the dense reference.
        """
        cols, flat = self._readout_entry(active)
        return np.bincount(cols, weights=self._serve_vals.take(flat),
                           minlength=self.config.vocab_size)

    def _readout_entry(self, active: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(cols, flat)`` sparse-readout indices of a code:
        memoized for a cache-resident one, computed per call for a
        foreign one (no stable id to key it by)."""
        key = id(active)
        entry = self._readout_idx.get(key)
        if entry is None:
            # the active rows' slots in (row, class) order: a connected
            # entry's class is its position modulo the vocabulary
            slots = self._slot_of[:, active].T.ravel()
            keep = (slots >= 0).nonzero()[0]
            entry = (keep % self.config.vocab_size, slots.take(keep))
            if key in self._code_masks:
                if len(self._readout_idx) >= _READOUT_IDX_CAP:
                    self._readout_idx.clear()
                self._readout_idx[key] = entry
        return entry

    def probabilities(self, scores: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        # Inline max-shifted softmax over scores / temperature.  ``out``
        # lets hot loops reuse a scratch buffer; the arithmetic (and hence
        # the result, bit for bit) is identical either way.
        x = np.divide(scores, self._temperature, out=out)
        x -= x.max()
        np.exp(x, out=x)
        x /= x.sum()
        return x

    # ------------------------------------------------------------------
    # SequenceModel interface
    # ------------------------------------------------------------------
    def step(self, input_class: int, train: bool = True,
             lr_scale: float = 1.0) -> np.ndarray:
        if not 0 <= input_class < self.vocab_size:
            raise ValueError(
                f"class {input_class} outside vocab [0, {self.vocab_size})")
        heb = self._heb or self._kernels()
        if heb is not None:
            return self._step_c(heb, input_class, train, lr_scale)
        prev_active = self._prev_active
        if train and prev_active is not None:
            self._learn(prev_active, input_class, self._prev_pred, lr_scale)
            self.train_steps += 1

        active = self.hidden_code(input_class, prev_active)
        punish = self.config.punish_wrong
        scores = self.readout(active)
        probs = self.probabilities(scores)
        # The argmax only feeds the error-driven depression term; without
        # it, ``_learn`` never reads the prediction.
        predicted = int(scores.argmax()) if punish else None

        self._prev_active = active
        self._prev_pred = predicted if punish else None
        self._last_probs = probs
        return probs

    def _step_c(self, heb: c_backend.CHebbian, input_class: int,
                train: bool, lr_scale: float) -> np.ndarray:
        """:meth:`step` on the kernels: one ``rk_heb_step`` — the code
        that follows on ``input_class``, the learn, the probabilities —
        and the copy of them it returns.  A transition the code table has
        not met costs a second call, the code made between."""
        codes = self._codes
        assert codes is not None
        predicted = -1 if self._prev_pred is None else self._prev_pred
        lr = self.config.lr * lr_scale
        with codes.lock:
            prev = (self._prev_id if self._id_epoch == codes.epoch
                    else self._prev_code())
            learn = train and prev >= 0
            code = heb.step(prev, input_class, predicted, lr, learn)
            while code < 0:
                if code < -1:  # the argmax to punish is no class: raise
                    self._check_class(predicted)
                prev = self._link(prev, input_class)
                code = heb.step(prev, input_class, predicted, lr, learn)
            self._prev_active = codes.arrays[code]
            self._prev_id = code
            self._id_epoch = codes.epoch
        if learn:
            if self._written is not None:
                self._note_learned(heb, input_class, heb.state.item(0))
            self.train_steps += 1
        probs = heb.x.copy()
        self._prev_pred = (heb.state.item(1) if self.config.punish_wrong
                           else None)
        self._last_probs = probs
        return probs

    def train_pair(self, input_class: int, target_class: int,
                   lr_scale: float = 1.0) -> float:
        self._check_class(input_class)
        self._check_class(target_class)
        heb = self._heb or self._kernels()
        if heb is not None:
            codes = self._codes
            assert codes is not None
            with codes.lock:
                # The context-free code's softmax: a step from no code
                # that learns nothing; its argmax is what to punish.
                self._replay_code(input_class, target_class)
                heb.step(-1, input_class, -1, 0.0, False)
                confidence = heb.x.item(target_class)
                self._learn_class(heb, input_class, target_class,
                                  heb.state.item(1), lr_scale)
            return confidence
        active = self.hidden_code(input_class, prev_active=None)
        scores = self.readout(active)
        confidence = float(self.probabilities(scores)[target_class])
        self._learn_pair(target_class, active, scores, lr_scale)
        return confidence

    def learn_pair(self, input_class: int, target_class: int,
                   lr_scale: float = 1.0) -> None:
        """:meth:`train_pair` for a caller that drops the confidence: the
        same update, bit for bit, without the softmax (which writes no
        state) — and without the readout when nothing reads it."""
        heb = self._heb or self._kernels()
        if heb is not None:
            self._learn_class(heb, input_class, target_class, -1, lr_scale)
            return
        self._check_class(input_class)
        self._check_class(target_class)
        active = self.hidden_code(input_class, prev_active=None)
        scores = self.readout(active) if self.config.punish_wrong else None
        self._learn_pair(target_class, active, scores, lr_scale)

    def _learn_class(self, heb: c_backend.CHebbian, input_class: int,
                     target_class: int, predicted: int,
                     lr_scale: float) -> None:
        """A context-free learn on the kernels, in one
        ``rk_heb_learn_class`` call on the replay's code table: Eq. 1
        against ``predicted``, or (-1) against the code's own readout
        argmax, as :meth:`learn_pair` reads it.  A class without a code
        gets one as :meth:`replay_ring` makes it — after the class
        checks, so a class outside the vocabulary raises ``ValueError``
        before any weight moves."""
        lr = self.config.lr * lr_scale
        codes = self._codes
        assert codes is not None
        with codes.lock:
            punished = heb.learn_class(input_class, target_class, predicted,
                                       lr)
            if punished < 0:
                self._replay_code(input_class, target_class)
                punished = heb.learn_class(input_class, target_class,
                                           predicted, lr)
        if self._written is not None:
            self._note_learned(heb, target_class, punished)

    def _learn_pair(self, target_class: int, active: np.ndarray,
                    scores: np.ndarray | None, lr_scale: float) -> None:
        """The update of one replayed transition (``scores``: the
        pre-update readout, read only under ``punish_wrong``)."""
        predicted = None
        if self.config.punish_wrong:
            assert scores is not None
            predicted = int(scores.argmax())
        self._learn(active, target_class, predicted, lr_scale)

    def train_pairs(self, pairs: list[tuple[int, int]],
                    lr_scale: float = 1.0) -> None:
        """Batched training, bit-identical to the per-pair loop.

        Eq. 1 updates are local — each pair touches only its target's
        connected column entries — so with the error-driven term off, a
        pair's update is a pure function of its (fixed) hidden code and
        the pre-batch weights of that column.
        When every target in the batch is distinct, the touched flat
        offsets are disjoint, update order can't matter, and the whole
        batch applies as one gather-update-clip-scatter; the per-pair
        readout/softmax (whose confidences a batch discards anyway) is
        skipped entirely.  Duplicate targets fall back to sequential
        ``_learn`` calls, and a punish_wrong configuration falls back to
        the ``learn_pair`` loop (``train_pair`` minus its discarded
        softmax), so every path matches the reference element for
        element.  On the compiled kernels a pair's update is one call, so
        every batch is the ``learn_pair`` loop.  (The only divergence is
        on *invalid* input: the vectorized path validates the whole batch
        before applying any update.)
        """
        config = self.config
        if config.punish_wrong or self._backend == "c":
            for input_class, target_class in pairs:
                self.learn_pair(input_class, target_class, lr_scale=lr_scale)
            return
        targets = [t for _, t in pairs]
        if len(pairs) < 2 or len(set(targets)) != len(targets):
            for input_class, target_class in pairs:
                self._check_class(input_class)
                self._check_class(target_class)
                self._learn(self.hidden_code(input_class), target_class,
                            None, lr_scale)
            return
        flats = []
        deltas = []
        for input_class, target_class in pairs:
            self._check_class(input_class)
            self._check_class(target_class)
            flats.append(self._out_flat[target_class])
            deltas.append(self._delta(self.hidden_code(input_class),
                                      target_class, lr_scale))
        flat = np.concatenate(flats)
        w_flat = self._w_vals
        wm = config.weight_max
        vals = w_flat.take(flat)
        vals += np.concatenate(deltas)
        np.minimum(vals, wm, out=vals)
        np.maximum(vals, -wm, out=vals)
        w_flat[flat] = vals
        self._note_written(flat)

    def replay_ring(self, ring: c_backend.CReplay, phase: int,
                    lr_scale: float, draw: bool = True) -> int | None:
        """Interleaved replay from a store on the kernels, in one
        ``rk_heb_replay_one`` call: ``EpisodicStore.sample``'s draw from
        the ``ring``'s lane, its picks outside ``phase`` (none below 0),
        and :meth:`learn_pair` of each at ``lr_scale``, bit for bit.
        Returns the number of picks.  None, having read and learnt
        nothing, when the draw cannot be made here: the lane's raw block
        runs short (``ring.n_redo`` -1: the caller refills it and calls
        again), or the draw needs numpy's rejection loop (the caller
        writes that draw to ``ring.values`` and calls again with ``draw``
        False).  Needs :attr:`compiled`."""
        heb = self._heb or self._kernels()
        codes = self._codes
        assert heb is not None and codes is not None
        lr = self.config.lr * lr_scale
        with codes.lock:
            got = heb.replay(ring.ctx, phase, draw, lr)
            while got < 0:
                # A class replayed for the first time (or one outside the
                # vocabulary: its check raises): make its code, then pick
                # from the same draw again (again if a memo clear dropped
                # a code made here).
                picks = ring.picks[:, :-1 - got]
                for input_class, target_class in zip(picks[1].tolist(),
                                                     picks[2].tolist()):
                    self._replay_code(input_class, target_class)
                got = heb.replay(ring.ctx, phase, False, lr)
            if not got and ring.n_redo.item(0):
                return None
            if got and self._written is not None:
                self._note_replayed(ring.picks[:, :got])
        return got

    def _replay_code(self, input_class: int, target_class: int) -> None:
        """Give ``input_class`` its context-free code in the code table
        (what replay, :meth:`learn_pair` and :meth:`train_pair` learn
        from), after the classes' checks."""
        self._check_class(input_class)
        self._check_class(target_class)
        assert self._codes is not None
        if self._codes.code_of.item(input_class) < 0:
            self._link(-1, input_class)

    def _note_replayed(self, picks: np.ndarray) -> None:
        """Log what :meth:`replay_ring`'s learns wrote, as
        :meth:`_note_learned` logs one: each pick's target column, then
        the slots its argmax was punished at."""
        for input_class, target, predicted in zip(
                picks[1].tolist(), picks[2].tolist(), picks[4].tolist()):
            self._note_written(self._out_flat[target])
            if predicted >= 0 and predicted != target:
                assert self._codes is not None
                punished = self._punish_flat(self._codes.arrays[
                    self._codes.code_of.item(input_class)], predicted)
                if punished.size:
                    self._note_written(punished)

    def predict_rollout(self, width: int = 1, length: int = 1
                        ) -> list[list[tuple[int, float]]]:
        if width < 1:
            raise ValueError("rollout width must be at least 1")
        probs = self._last_probs
        if probs is None:
            return []
        heb = self._heb or self._kernels()
        if heb is not None:
            return self._rollout_c(heb, probs, width, length)
        out: list[list[tuple[int, float]]] = []
        active = self._prev_active
        # The first rollout step is the softmax step() computed, so even
        # if training touched the weights in between the result is the
        # same, bit for bit.  Later steps softmax into a scratch buffer.
        for remaining in range(length - 1, -1, -1):
            step = select_topk(probs, width)
            out.append(step)
            if not remaining:
                break  # the next readout would be discarded
            active = self.hidden_code(step[0][0], active)
            scores = self.readout(active)
            probs = self.probabilities(scores, out=self._probs_buf)
        return out

    def _rollout_c(self, heb: c_backend.CHebbian, probs: np.ndarray,
                   width: int, length: int) -> list[list[tuple[int, float]]]:
        """``predict_rollout`` on the kernels: one ``rk_heb_rollout`` from
        ``probs`` and the code that made them (see
        :meth:`_finish_rollout` for where it stops early)."""
        if length < 1:
            return []
        codes = self._codes
        assert codes is not None
        with codes.lock:
            code = (self._prev_id if self._id_epoch == codes.epoch
                    else self._prev_code())
            done = heb.rollout(heb.row(probs), code, -1, width, length)
            if done < length:
                return self._finish_rollout(heb, probs, width, length, done)
        return rolled(heb.roll_top, heb.roll_p, done,
                      min(width, self.vocab_size))

    def _finish_rollout(self, heb: c_backend.CHebbian, probs: np.ndarray,
                        width: int, length: int, done: int
                        ) -> list[list[tuple[int, float]]]:
        """The rest of a rollout whose kernel call stopped after ``done``
        steps: at a tie, which :func:`select_topk` orders here, or before
        a transition the code table has not met, made here; then the
        kernel again, from that row on."""
        picked = min(width, self.vocab_size)
        out = rolled(heb.roll_top, heb.roll_p, done, picked) if done else []
        tied = probs if not done else heb.x
        while True:
            code, cls = heb.state.item(2), heb.state.item(3)
            if cls < 0:
                step = select_topk(tied, width)
                out.append(step)
                if len(out) == length:
                    return out
                cls = step[0][0]
            else:
                code = self._link(code, cls)
            left = length - len(out)
            done = heb.rollout(heb.no_row, code, cls, width, left)
            if done:
                out += rolled(heb.roll_top, heb.roll_p, done, picked)
                if done == left:
                    return out
            tied = heb.x

    def reset_state(self) -> None:
        self._prev_active = None
        self._prev_id = -1
        self._prev_pred = None
        self._last_probs = None

    def clone(self) -> "SparseHebbianNetwork":
        """Deep copy of the learned state.

        The fixed structures (masks, signatures, tie-break jitter, and the
        precomputed kernels derived from them) are shared between clones —
        nothing ever mutates them — so cloning costs only the learned
        weight copies instead of a full re-initialization.
        """
        twin = object.__new__(SparseHebbianNetwork)
        twin.__dict__.update(self.__dict__)
        twin._written = None  # a clone has no fork partner (see fork())
        twin._w_vals = self._w_vals.copy()
        twin._serve_vals = (twin._w_vals if self._serve_vals is self._w_vals
                            else self._serve_vals.copy())
        twin._heb = None
        twin._pre_buf = np.empty(self.config.hidden_dim)
        twin._probs_buf = np.empty(self.config.vocab_size)
        twin._scratch_active = np.zeros(self.config.hidden_dim, dtype=bool)
        twin._copy_stream_state(self)
        return twin

    def fork(self) -> "SparseHebbianNetwork":
        """:meth:`clone`, with the two copies sharing one log of their
        weight writes from here on, so a later ``a.sync_from(b)`` moves
        only what changed.  A network has one fork partner at a time:
        forking again pairs it with the new twin."""
        twin = self.clone()
        twin._written = self._written = _WriteLog()
        return twin

    def sync_from(self, source: "SparseHebbianNetwork") -> np.ndarray | None:
        """Make this network what ``source.clone()`` would return —
        weights, sequence state, ``train_steps`` — in place.

        Between fork partners only the readout values either has
        written since the two were last level are copied; returns those
        value-vector offsets (duplicates possible) and restarts the
        log.  Returns None after copying the whole vector: not partners,
        or a log that outgrew the weights.
        """
        log = self._written
        if log is not source._written:
            log = None  # not partners: nothing is known about the gap
        offsets: np.ndarray | None = None
        if log is not None and log.count <= self._w_vals.size:
            offsets = np.concatenate(
                [np.empty(0, dtype=np.intp), *log.parts])
            self._w_vals[offsets] = source._w_vals.take(offsets)
            if self._serve_vals is not self._w_vals:
                self._serve_vals[offsets] = source._serve_vals.take(offsets)
        else:
            self._set_values(source._w_vals)
        if log is not None:
            log.parts.clear()
            log.count = 0
        self._copy_stream_state(source)
        return offsets

    def _copy_stream_state(self, source: "SparseHebbianNetwork") -> None:
        """Private copies of ``source``'s sequence state and step count
        (and its code's id, when the two share a code table)."""
        self._prev_pred = source._prev_pred
        for attr in ("_prev_active", "_last_probs"):
            src = getattr(source, attr)
            setattr(self, attr, None if src is None else src.copy())
        shared = source._codes is self._codes
        self._prev_id = source._prev_id if shared else -1
        self._id_epoch = source._id_epoch if shared else -1
        self.train_steps = source.train_steps

    def restore_state(self, *, values: np.ndarray,
                      prev_active: np.ndarray | None, prev_pred: int | None,
                      last_probs: np.ndarray | None,
                      train_steps: int) -> None:
        """Install externally-held learned state wholesale.

        The hand-back half of the :class:`~repro.nn.hebbian_fleet.
        HebbianFleet` adoption protocol: a fleet slot carries this
        network's weights and sequence context while batched stepping
        owns the lane, and returns them here when the lane leaves.
        ``values`` is in :attr:`readout_values` layout and is copied.
        ``prev_active`` is the one code that enters from outside, so it
        is checked here (``IndexError``), before any state changes; every
        other code comes from :meth:`hidden_code` and is in range.
        """
        hidden = self.config.hidden_dim
        if prev_active is not None and (
                prev_active.shape != (self._k,)
                or not 0 <= prev_active.min() <= prev_active.max() < hidden):
            raise IndexError(f"a hidden code is {self._k} units of the "
                             f"{hidden}-unit layer")
        self._set_values(values)
        self._prev_active = prev_active
        self._prev_id = self._id_epoch = -1  # interned at its first use
        self._prev_pred = prev_pred
        self._last_probs = last_probs
        self.train_steps = train_steps

    def evaluate_sequence(self, classes: list[int]) -> float:
        probs = evaluate_sequence_probs(self, classes)
        return float(probs.mean()) if probs.size else 0.0

    # ------------------------------------------------------------------
    # Learning rules
    # ------------------------------------------------------------------
    def _delta(self, active: np.ndarray, target: int,
               lr_scale: float) -> np.ndarray:
        """Memoized Eq. 1 delta over ``target``'s connected rows: ``+lr``
        where the code is active, the depression term elsewhere."""
        key = (id(active), target, lr_scale)
        delta = self._delta_cache.get(key)
        if delta is None:
            lr = self.config.lr * lr_scale
            rows = self._out_rows[target]
            mask = self._code_masks.get(id(active))
            if mask is not None:
                is_active = mask[rows]
            else:
                scratch = self._scratch_active
                scratch[active] = True
                is_active = scratch[rows]
                scratch[active] = False
            delta = np.where(is_active, lr, -lr * self.config.negative_scale)
            if mask is not None:
                if len(self._delta_cache) >= _DELTA_CACHE_CAP:
                    self._delta_cache.clear()
                self._delta_cache[key] = delta
        return delta

    def _learn(self, active: np.ndarray, target: int, predicted: int | None,
               lr_scale: float) -> None:
        """Eq. 1 with the output clamped to the observed next class.

        Touches only the target column's connected rows (``_out_rows``):
        active-and-connected entries get ``+lr``, the other connected
        entries get the depression term, and the result is clipped —
        element-for-element the same arithmetic as the dense column
        update, without the ``(hidden,)`` temporaries.
        """
        config = self.config
        lr = config.lr * lr_scale
        flat = self._out_flat[target]
        w_flat = self._w_vals
        wm = config.weight_max
        vals = w_flat.take(flat)
        vals += self._delta(active, target, lr_scale)
        np.minimum(vals, wm, out=vals)
        np.maximum(vals, -wm, out=vals)
        w_flat[flat] = vals
        self._note_written(flat)

        if config.punish_wrong and predicted is not None and predicted != target:
            wrong_flat = self._punish_flat(active, predicted)
            if wrong_flat.size:
                wvals = w_flat.take(wrong_flat)
                wvals -= lr
                np.maximum(wvals, -wm, out=wvals)
                w_flat[wrong_flat] = wvals
                self._note_written(wrong_flat)

    def _note_learned(self, heb: c_backend.CHebbian, target: int,
                      punished: int) -> None:
        """Log a kernel learn's writes: ``target``'s column, then the
        ``punished`` slots it listed."""
        self._note_written(self._out_flat[target])
        if punished:
            self._note_written(heb.punished[:punished].copy())

    def _punish_flat(self, active: np.ndarray, predicted: int) -> np.ndarray:
        """Value-vector offsets of the error-driven depression: the
        entries of the wrongly predicted class that ``active`` connects
        to, in ``active``'s order."""
        slots = self._slot_of[predicted][active]
        return slots[slots >= 0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def parameter_count(self) -> int:
        """Connected weights across all three projections (Table 2)."""
        return int(self.mask_in.sum() + self.mask_rec.sum() + self.mask_out.sum())

    def _check_class(self, class_id: int) -> None:
        if not 0 <= class_id < self.vocab_size:
            raise ValueError(f"class {class_id} outside vocab [0, {self.vocab_size})")
