"""Tenant-axis batched Hebbian stepping for fleets of learners.

:class:`HebbianFleet` stacks T independent copies of one
:class:`~repro.nn.hebbian.SparseHebbianNetwork` prototype into a single
lane-major ``(lanes, n_connected)`` slab of readout values — the
prototype's connected-only layout, one row per lane — and advances a
lane subset per call on the scalar network's compiled kernels, run as
lane loops (``c_backend.CHebbianLanes``): one call per step, rollout
depth or replay batch walks the lanes, each lane's values its slab row
and each hidden code a row of the book's code table.  The kernels are
the fleet's arithmetic, so its prototype must be served on backend
``"c"`` (:meth:`HebbianFleet.stacks`); without a compiler the cohort and
the service step each lane's own network instead.

What is shared with the prototype (identical across lanes by
construction, never copied): the projection masks, the kernels' fixed
tables and the hidden-code memo.

What the fleet adds is a **code book** (:class:`_CodeBook`) that gives
every hidden code the fleet has met an integer id, so that lane state
and the code lookups become arrays.  The book *indexes* the prototype's
memo, it is not a second one: it keeps the code arrays by reference,
and adds the two tables a whole call reads — the codes as rows of a
``(cap, k)`` table (what the kernels read a code from), and the
transition table ``next[prev_id + 1, class]`` (``-1``: not met yet;
such an entry is filled once from the scalar ``hidden_code``).  Lane
sequence state is the scalar network's three fields: the last code's id
and the last argmax as ``(lanes,)`` arrays (``-1``: none; a lane with
no code has not stepped), the last probabilities as a ``(lanes,
vocab)`` slab.  Per call, what stays numpy is:

* **Hidden codes** — one ``next[prev + 1, class]`` gather; a call's
  unmet entries are one ``np.unique`` of their keys, each distinct
  transition filled once and scattered back.
* **The exponentials** — one ``np.exp`` over the ``(L, vocab)`` block
  between the kernels' scores and their normalisation.
* **Rollout selection** — a rollout of uniform width picks every lane's
  top classes with one row-wise ``argpartition``: on the cohort's
  traffic most rows tie at the top-width boundary, where only numpy's
  own ``argpartition`` gives numpy's order.

Eq. 1's update with its punish term, the sparse readout and the
softmax's shift and sum are the kernels'.  A call has that one form at
every width, a call on one lane (or none) included.

Every call is bit-identical to T independent networks stepping the same
class streams, on numpy's arithmetic or on the kernels
(``tests/nn/test_hebbian_fleet.py`` pins this): lane rows are disjoint
so the update order across lanes cannot matter, the shared memo and the
book are pure memoization over fixed structures, and each lane runs the
scalar network's own kernels.

Beyond the lockstep ``step_all``, the fleet exposes the *subset* entry
points the cohort miss path needs (only the lanes that missed this
cohort round advance):

* ``acquire_lane``/``release_lane`` adopt a live scalar network into a
  fleet slot and hand its (bit-identical) state back out, so lanes can
  join and leave mid-run as cohort lanes drain and refill.
* ``redeploy_lane`` re-points a resident slot at a network that differs
  from it at a known few weights (serve's hot swap), moving only those.
* ``step_lanes`` steps an arbitrary lane subset with per-lane train
  flags — the batched mirror of ``SparseHebbianNetwork.step``.
* ``train_pairs_lanes`` replays per-lane episode batches — the batched
  mirror of ``train_pairs`` (in-lane pair order preserved exactly).
* ``rollout_lanes`` runs per-lane beam rollouts with one batched
  readout per depth — the mirror of ``predict_rollout``.

The three kernels reject a lane list that names a free slot or one lane
twice before touching any state.

Adopted networks may come from *different* :class:`SparseHebbianNetwork`
instances built from an equal config: the fixed structures are then
value-identical (construction is seeded by the config) even though the
memo dicts differ.  The book, like the hidden-code memo, is
content-keyed, so element-equal codes from different instances share
one id, and adoption preserves bit-identity.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import TypeGuard

import numpy as np

from .backends import c_backend
from .hebbian import SparseHebbianNetwork

__all__ = ["HebbianFleet"]

#: Codes the book holds before it is rebuilt from the ones resident lanes
#: still reference (amortized: see ``_CodeBook.rebuild``).
_BOOK_CAP = 4096

#: Table rows a book starts with (doubled as codes arrive).
_BOOK_ROWS = 64


def _widened(old: np.ndarray, rows: int, fill: int) -> np.ndarray:
    """``old`` with its first axis extended to ``rows``, new rows holding
    ``fill`` (zero rows stay untouched pages)."""
    new = np.zeros((rows, *old.shape[1:]), dtype=old.dtype)
    new[:old.shape[0]] = old
    if fill:
        new[old.shape[0]:] = fill
    return new


def _select_topk_rows(probs: np.ndarray, width: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``select_topk`` on every row of ``probs`` at once, for ``width >
    0``: the ``(rows, min(width, vocab))`` classes and their
    probabilities, descending — per row the same ``argpartition`` and
    ``argsort`` the scalar selection runs (from the vocabulary up: its
    full descending sort), so the same permutation, ties included."""
    if width >= probs.shape[1]:
        top = probs.argsort(axis=1)[:, ::-1]
        return top, np.take_along_axis(probs, top, axis=1)
    part = probs.argpartition(-width, axis=1)[:, -width:]
    each = np.arange(len(probs))[:, None]
    vals = probs[each, part]
    order = vals.argsort(axis=1)[:, ::-1]
    return part[each, order], vals[each, order]


class _CodeBook:
    """Integer ids for the hidden codes one fleet has met.

    ``codes[i]`` is code ``i`` (the array the prototype's memo returned,
    kept by reference); :meth:`tables` has the same codes as rows of a
    ``(cap, k)`` table; ``next[p + 1, c]`` is the id of ``hidden_code(c,
    codes[p])`` (row 0: no context; ``-1``: not met yet).  Ids are dense
    and stable until :meth:`rebuild`.
    """

    def __init__(self, proto: SparseHebbianNetwork) -> None:
        self._proto = proto
        self.limit = _BOOK_CAP
        self._reset()

    def _reset(self) -> None:
        self.codes: list[np.ndarray] = []
        self._ids: dict[bytes, int] = {}
        self.next = np.full((_BOOK_ROWS + 1, self._proto.config.vocab_size),
                            -1, dtype=np.int64)
        # Filled by ``tables`` for codes[:_tabled].
        self._active = np.zeros((0, self._proto._k), dtype=np.intp)
        self._tabled = 0

    def __len__(self) -> int:
        return len(self.codes)

    def intern(self, active: np.ndarray) -> int:
        """The id of ``active``, by content (like ``hidden_code``'s memo:
        element-equal arrays from different networks are one code)."""
        key = active.tobytes()
        cid = self._ids.get(key)
        if cid is None:
            if active.shape != self._active.shape[1:]:
                raise ValueError(
                    f"hidden code of shape {active.shape}, expected "
                    f"{self._active.shape[1:]}")
            cid = len(self.codes)
            rows = len(self.next) - 1
            if cid == rows:
                self.next = _widened(self.next, 2 * rows + 1, -1)
            self.codes.append(active)
            self._ids[key] = cid
        return cid

    def tables(self) -> np.ndarray:
        """The code table the kernels read: row ``i`` is code ``i``'s
        indices.  Rows are written here, a batch at a time, by the calls
        that read them."""
        done, met = self._tabled, len(self.codes)
        if done < met:
            if met > len(self._active):
                self._active = _widened(self._active, len(self.next) - 1, 0)
            self._active[done:met] = self.codes[done:met]
            self._tabled = met
        return self._active

    def fill(self, prev: int, input_class: int) -> int:
        """Resolve one unmet transition through the prototype's scalar
        ``hidden_code`` and record it."""
        context = self.codes[prev] if prev >= 0 else None
        cid = self.intern(self._proto.hidden_code(input_class, context))
        self.next[prev + 1, input_class] = cid
        return cid

    def rebuild(self, keep: np.ndarray) -> np.ndarray:
        """Forget every code but ``keep`` (ids, unique).  Returns the
        old-id → new-id map with one extra trailing ``-1``, so indexing
        it with ``-1`` ("no code") gives ``-1``.  Transitions are dropped
        and refill from the prototype's memo."""
        old = self.codes
        remap = np.full(len(old) + 1, -1, dtype=np.int64)
        self._reset()
        for cid in keep.tolist():
            remap[cid] = self.intern(old[cid])
        # Amortized: a fleet whose lanes pin more codes than the cap is
        # rebuilt once per doubling, not once per call.
        self.limit = max(_BOOK_CAP, 2 * len(self))
        return remap


class HebbianFleet:
    """T lanes of one Hebbian prototype, stepped in lockstep.

    Each lane starts from the prototype's *current* learned weights and
    then learns independently.  ``step_all`` is the batched equivalent
    of calling ``step`` on T independent clones with one class per lane.

    With ``reserve=True`` the fleet starts *empty* — every slot is free
    and lanes enter via :meth:`acquire_lane` (the cohort drain/refill
    shape); the prototype then contributes only its fixed structures,
    never its weights.
    """

    def __init__(self, prototype: SparseHebbianNetwork,
                 n_lanes: int, reserve: bool = False) -> None:
        if n_lanes <= 0:
            raise ValueError("n_lanes must be positive")
        tables = prototype._heb_tables
        if tables is None:
            raise ValueError(
                "HebbianFleet runs on the compiled Hebbian kernels, which a "
                f"prototype served on {prototype._backend!r} does not have "
                "(backend 'c' does)")
        self.prototype = prototype
        self.n_lanes = n_lanes
        self.vocab_size = prototype.config.vocab_size
        values = prototype.readout_values
        # Lane-major stacked value vectors, one slab row per lane.
        if reserve:
            self._w_vals = np.zeros((n_lanes, values.size))
        else:
            self._w_vals = np.broadcast_to(
                values, (n_lanes, values.size)).copy()
        self._book = _CodeBook(prototype)
        # Per-lane sequence state (the scalar net's ``_prev_active`` /
        # ``_prev_pred`` / ``_last_probs``), codes as book ids, ``-1`` for
        # None.  A probability row means something only while the lane's
        # code is not ``-1``.
        self._prev_code = np.full(n_lanes, -1, dtype=np.int64)
        self._prev_pred = np.full(n_lanes, -1, dtype=np.int64)
        self._probs_rows = np.zeros((n_lanes, self.vocab_size))
        # Lanes continue the prototype's training history, as clones do.
        self.train_steps = np.full(
            n_lanes, 0 if reserve else prototype.train_steps, dtype=np.int64)
        self._free: list[int] = list(range(n_lanes - 1, -1, -1)) if reserve \
            else []
        # Slots holding a lane (the complement of ``_free``), and the
        # scratch the kernels mark a lane list's positions in.
        self._resident = np.full(n_lanes, not reserve, dtype=bool)
        self._mark = np.zeros(n_lanes, dtype=np.intp)
        self._kern = c_backend.bind_hebbian_lanes(
            tables, **prototype._kernel_settings())

    @staticmethod
    def stacks(model: object) -> TypeGuard[SparseHebbianNetwork]:
        """Whether a fleet can hold lanes of ``model``: a Hebbian network
        served on backend ``"c"``, the one whose kernels a fleet runs.
        The predicate the cohort's groups and the service pick the
        stacked path by."""
        return isinstance(model, SparseHebbianNetwork) and model.compiled

    # ------------------------------------------------------------------
    # Lane adoption (cohort drain/refill)
    # ------------------------------------------------------------------
    def acquire_lane(self, net: SparseHebbianNetwork) -> int:
        """Adopt a live scalar network into a fleet slot; returns it.

        The fleet takes over stepping: the slot carries the network's
        learned weights, sequence context, and rollout anchor, so
        subsequent ``step_lanes`` calls continue it bit-identically.
        ``net`` itself is left untouched until :meth:`release_lane`
        hands the state back.
        """
        if net.config != self.prototype.config:
            raise ValueError("adopted network's config differs from the "
                             "fleet prototype's")
        if not self._free:
            self._grow(self.n_lanes + 1)
        book = self._book
        if len(book) >= book.limit:
            self._shrink_book(np.empty(0, dtype=np.int64))
        t = self._free.pop()
        self._w_vals[t] = net.readout_values
        prev_active, prev_pred = net._prev_active, net._prev_pred
        if prev_active is None:
            self._prev_code[t] = -1
        else:
            probs = net._last_probs
            assert probs is not None  # set by the step that set the code
            self._prev_code[t] = book.intern(prev_active)
            self._probs_rows[t] = probs
        self._prev_pred[t] = -1 if prev_pred is None else prev_pred
        self.train_steps[t] = net.train_steps
        self._resident[t] = True
        return t

    def release_lane(self, lane: int, net: SparseHebbianNetwork) -> None:
        """Hand a slot's state back to ``net`` and free the slot."""
        self._export(lane, net)
        self._clear_sequence_state(lane)
        self._resident[lane] = False
        self._free.append(lane)

    def redeploy_lane(self, lane: int, net: SparseHebbianNetwork,
                      changed: np.ndarray | None) -> None:
        """Re-point a resident slot at ``net``, a freshly reset network
        whose weights differ from the slot's at most at the
        value-vector offsets ``changed`` (None: anywhere).

        Leaves the slot as ``release_lane`` then ``acquire_lane(net)``
        would — ``net``'s weights and step count, no sequence state, the
        same slot index — moving only the changed entries.
        """
        values = net.readout_values
        if changed is None:
            self._w_vals[lane] = values
        else:
            self._w_vals[lane, changed] = values.take(changed)
        self._clear_sequence_state(lane)
        self.train_steps[lane] = net.train_steps

    def reserve(self, lanes: int) -> None:
        """Capacity hint: ``lanes`` acquisitions are coming.  Grows once
        to fit them instead of doubling (and copying the slab and every
        state array) along the way."""
        short = lanes - len(self._free)
        if short > 0:
            self._grow(self.n_lanes + short)

    def _clear_sequence_state(self, lane: int) -> None:
        self._prev_code[lane] = -1
        self._prev_pred[lane] = -1

    def _export(self, lane: int, net: SparseHebbianNetwork) -> None:
        """Install lane ``lane``'s learned weights and sequence state
        into ``net`` (copies; the slot itself is left as it is)."""
        prev_code = int(self._prev_code[lane])
        prev_pred = int(self._prev_pred[lane])
        stepped = prev_code >= 0
        net.restore_state(
            values=self._w_vals[lane],
            prev_active=self._book.codes[prev_code] if stepped else None,
            prev_pred=prev_pred if prev_pred >= 0 else None,
            last_probs=self._probs_rows[lane].copy() if stepped else None,
            train_steps=int(self.train_steps[lane]))

    def _grow(self, min_capacity: int) -> None:
        """Double capacity (at least to ``min_capacity``); existing lane
        state is preserved, new slots join the free list."""
        old = self.n_lanes
        new = max(old * 2, min_capacity)
        self._w_vals = _widened(self._w_vals, new, 0)
        self._probs_rows = _widened(self._probs_rows, new, 0)
        self._prev_code = _widened(self._prev_code, new, -1)
        self._prev_pred = _widened(self._prev_pred, new, -1)
        self.train_steps = _widened(self.train_steps, new, 0)
        self._resident = _widened(self._resident, new, 0)
        self._mark = _widened(self._mark, new, 0)
        self._free.extend(range(new - 1, old - 1, -1))
        self.n_lanes = new

    # ------------------------------------------------------------------
    # Argument checks (before any state is touched)
    # ------------------------------------------------------------------
    def lane_index(self, lanes: Sequence[int] | np.ndarray) -> np.ndarray:
        """``lanes`` as an index array; ``ValueError`` unless each is a
        resident slot named once — a free slot would train while staying
        on the free list, and a duplicate's fused scatter would keep one
        of its two updates.  What every kernel checks of its lane list
        before touching state, for a caller that has state of its own to
        move first."""
        idx = np.ascontiguousarray(lanes, dtype=np.intp)
        # Read as unsigned, a negative id is a huge one: one compare
        # covers both ends.
        outside = idx.view(np.uintp) >= self.n_lanes
        if outside.any():
            raise ValueError(f"lane {int(idx[outside][0])} outside "
                             f"[0, {self.n_lanes})")
        resident = self._resident[idx]
        if not resident.all():
            raise ValueError(
                f"lane {int(idx[~resident][0])} is a free slot")
        order = np.arange(idx.size)
        mark = self._mark
        mark[idx] = order
        twice = mark[idx] != order
        if twice.any():
            raise ValueError(
                f"lane {int(idx[twice][0])} listed more than once")
        return idx

    def _class_index(self, classes: Sequence[int] | np.ndarray
                     ) -> np.ndarray:
        cls = np.ascontiguousarray(classes, dtype=np.int64)
        outside = cls.view(np.uint64) >= self.vocab_size  # as lane_index
        if outside.any():
            raise ValueError(f"class {int(cls[outside][0])} outside vocab "
                             f"[0, {self.vocab_size})")
        return cls

    # ------------------------------------------------------------------
    # The batched step
    # ------------------------------------------------------------------
    def step_all(self, classes: list[int] | np.ndarray, train: bool = True,
                 lr_scale: float = 1.0) -> np.ndarray:
        """Advance every lane one step; returns ``(T, vocab)`` probs.

        Lane ``t`` consumes ``classes[t]``.  Equivalent, bit for bit, to
        ``net_t.step(classes[t], train, lr_scale)`` on T independent
        networks.
        """
        if len(classes) != self.n_lanes:
            raise ValueError(
                f"expected {self.n_lanes} classes, got {len(classes)}")
        lanes = list(range(self.n_lanes))
        return self.step_lanes(lanes, classes,
                               [train] * self.n_lanes, lr_scale)

    def step_lanes(self, lanes: list[int],
                   classes: list[int] | np.ndarray,
                   train: list[bool], lr_scale: float = 1.0) -> np.ndarray:
        """Advance a lane *subset* one step; returns ``(L, vocab)`` probs.

        Row ``i`` of the result is lane ``lanes[i]`` consuming
        ``classes[i]`` with its own train flag — the batched mirror of
        per-lane ``step(classes[i], train[i], lr_scale)`` calls, bit for
        bit (learn order across lanes is free: disjoint slab rows).
        ``lanes`` must name resident slots, each once.
        """
        n = len(lanes)
        if not n == len(classes) == len(train):
            raise ValueError("step_lanes needs one class and one train "
                             "flag per lane")
        idx = self.lane_index(lanes)
        cls = self._class_index(classes)
        config = self.prototype.config
        # Codes first: learning reads the lanes' last codes, which a
        # rebuild of the book renumbers in place.
        codes = self._codes(self._prev_code[idx], cls)
        x = np.empty((n, self.vocab_size))
        self._kern.step(self._w_vals, self._book.tables(), idx, cls,
                        np.ascontiguousarray(train, dtype=bool),
                        config.lr * lr_scale, config.punish_wrong, codes, x,
                        self._prev_code, self._prev_pred, self.train_steps)
        np.exp(x, out=x)
        self._kern.finish_rows(x, self._probs_rows, idx)
        return x

    # ------------------------------------------------------------------
    # Hidden codes
    # ------------------------------------------------------------------
    def _codes(self, prev: np.ndarray, cls: np.ndarray) -> np.ndarray:
        """Ids of ``hidden_code(cls[i], code prev[i])``: one gather from
        the transition table; each distinct transition met for the first
        time goes through the scalar path once, in the order the rows
        first name it (so ids are those of filling row by row).  May
        rebuild the book: code ids the caller holds other than the
        returned ones are stale afterwards."""
        book = self._book
        ids = book.next[prev + 1, cls]
        if ids.size and ids.min() < 0:
            unmet = (ids < 0).nonzero()[0]
            keys, first, inverse = self._transitions(prev[unmet], cls[unmet])
            if len(book) + keys.size > book.limit:
                prev = self._shrink_book(prev)
                unmet = np.arange(ids.size)
                keys, first, inverse = self._transitions(prev, cls)
            order = first.argsort()
            vocab = self.vocab_size
            filled = np.empty(keys.size, dtype=np.int64)
            filled[order] = [book.fill(key // vocab - 1, key % vocab)
                             for key in keys[order].tolist()]
            ids[unmet] = filled[inverse]
        return ids

    def _transitions(self, prev: np.ndarray, cls: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct ``(prev, cls)`` pairs as ``next``-table keys
        ``(prev + 1) * vocab + cls``, where each first occurs, and the
        key of every pair as an index into them."""
        return np.unique((prev + 1) * self.vocab_size + cls,
                         return_index=True, return_inverse=True)

    def _shrink_book(self, held: np.ndarray) -> np.ndarray:
        """Rebuild the book from the codes resident lanes reference
        (free slots hold ``-1``) plus the ids ``held`` by a kernel in
        flight; lane state is renumbered in place, ``held`` returned
        renumbered."""
        keep = np.unique(np.concatenate([self._prev_code, held]))
        remap = self._book.rebuild(keep[keep >= 0])
        self._prev_code[:] = remap[self._prev_code]
        return remap[held]

    # ------------------------------------------------------------------
    # Batched replay training (the ReplayScheduler mirror)
    # ------------------------------------------------------------------
    def train_pairs_lanes(self, lanes: list[int],
                          pairs_per_lane: list[list[tuple[int, int]]],
                          lr_scales: list[float]) -> None:
        """Replay-train each lane on its own pair batch, batched.

        The batched mirror of per-lane
        ``train_pairs(pairs_per_lane[i], lr_scales[i])`` calls.  The
        kernel trains round by round: round ``j`` is the ``j``-th pair of
        every lane that has one, so in-lane pair order (which matters for
        duplicate targets and for punish_wrong's pre-update readout) is
        preserved exactly, while lanes interleave freely (disjoint slab
        rows).
        Like the scalar ``train_pairs``, this never touches
        ``train_steps`` or the lanes' sequence context.
        ``lanes`` must name resident slots, each once.
        """
        n = len(lanes)
        if not n == len(pairs_per_lane) == len(lr_scales):
            raise ValueError("train_pairs_lanes needs one pair batch and "
                             "one lr_scale per lane")
        idx = self.lane_index(lanes)  # a lane without pairs included
        lens = np.fromiter(map(len, pairs_per_lane), dtype=np.int64, count=n)
        total = int(lens.sum())
        # (total, 2) rows of (input, target), lane by lane.
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(pairs_per_lane)),
            dtype=np.int64, count=2 * total).reshape(total, 2)
        first = np.cumsum(lens) - lens
        self.train_pairs_columns(
            idx.repeat(lens),
            pairs[:, 0], pairs[:, 1],
            np.arange(total) - first.repeat(lens),
            np.asarray(lr_scales, dtype=np.float64).repeat(lens))

    def train_pairs_columns(self, lanes: np.ndarray, inputs: np.ndarray,
                            targets: np.ndarray, rounds: np.ndarray,
                            lr_scales: np.ndarray) -> None:
        """:meth:`train_pairs_lanes` on columns, one entry per pair: lane
        ``lanes[i]`` learns ``inputs[i]`` → ``targets[i]`` at
        ``lr_scales[i]`` as its ``rounds[i]``-th pair (0: first).  The
        columns are checked before any pair is applied: ``ValueError``
        unless they are of one length, every round is at least 0, and
        each round names resident slots, each once."""
        rounds = np.asarray(rounds, dtype=np.int64)
        lr_scales = np.asarray(lr_scales, dtype=np.float64)
        if not (len(lanes) == len(inputs) == len(targets) == rounds.size
                == lr_scales.size):
            raise ValueError("train_pairs_columns needs columns of one "
                             "length")
        inputs = self._class_index(inputs)
        targets = self._class_index(targets)
        if not inputs.size:
            return
        if rounds.min() < 0:
            raise ValueError("a pair's round must be at least 0")
        lanes = np.asarray(lanes, dtype=np.intp)
        depth = int(rounds.max()) + 1
        if depth == 1:
            picks: list[np.ndarray | slice] = [slice(None)]
        else:
            picks = [(rounds == j).nonzero()[0] for j in range(depth)]
        for pick in picks:
            self.lane_index(lanes[pick])
        config = self.prototype.config
        # Round by round: a lane's pairs in their order.
        order = (np.arange(inputs.size) if depth == 1
                 else rounds.argsort(kind="stable"))
        codes = self._codes(np.full(inputs.size, -1), inputs[order])
        self._kern.train(self._w_vals, self._book.tables(),
                         config.punish_wrong, lanes[order], codes,
                         targets[order], config.lr * lr_scales[order])

    def replay_rings(self, lanes: np.ndarray, phase: np.ndarray,
                     values: np.ndarray,
                     draws: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
                     episodes: tuple[np.ndarray, int, np.ndarray, np.ndarray,
                                     np.ndarray],
                     per_step: int, lr_scale: float,
                     replayed: np.ndarray) -> np.ndarray:
        """Replay from episode rings on the kernels (``rk_heb_replay``):
        ``EpisodicStore.sample`` for each of ``lanes`` and
        ``train_pairs`` of what it picks, in one call.

        Lane ``t``'s store is row ``t`` of the ``episodes`` columns
        ``(count, cap, input, target, phase)`` used as a ring of capacity
        ``cap`` (``count[t]`` written).  Row ``i`` of ``values`` (``(lanes,
        attempts)``) is lane ``lanes[i]``'s draw of ``integers(0, size)``:
        drawn here from ``draws``, ``LaneDraws``' raw blocks (each with
        at least ``attempts`` unread), or as given when ``draws`` is
        None.  The first ``per_step`` draws outside ``phase[i]`` (below
        0: none excluded) are the lane's picks, counted in
        ``replayed[t]``, each learnt at ``lr_scale`` as ``learn_pair``
        would.  Returns the rows whose draw needs numpy's rejection loop:
        they are left untouched, for a second call with their values.
        """
        kern = self._kern
        book = self._book
        punish = self.prototype.config.punish_wrong
        lr = self.prototype.config.lr * lr_scale
        picks = np.empty((4, lanes.size * per_step), dtype=np.int64)
        got, redo = kern.replay(self._w_vals, book.tables(), book.next[0],
                                punish, lr, lanes, phase, values, draws,
                                episodes, per_step, replayed, picks)
        if got < 0:
            # An input met without context for the first time: its code
            # comes from the prototype, then the picks train as listed.
            lane_of, inputs, targets, _ = picks[:, :-1 - got]
            codes = self._codes(np.full(inputs.size, -1), inputs)
            kern.train(self._w_vals, book.tables(), punish, lane_of,
                       codes, targets, np.full(inputs.size, lr))
        return redo

    # ------------------------------------------------------------------
    # Batched beam rollout (the predict_rollout mirror)
    # ------------------------------------------------------------------
    def rollout_lanes(self, lanes: list[int], widths: list[int],
                      lengths: list[int]
                      ) -> list[list[list[tuple[int, float]]]]:
        """Per-lane beam rollouts with one batched readout per depth.

        Result ``i`` equals ``lane_network(lanes[i]).predict_rollout(
        widths[i], lengths[i])`` bit for bit: selection is the scalar
        ``select_topk``'s row-wise form (the same ``argpartition`` and
        ``argsort`` per row), lanes whose beam is exhausted drop out
        *before* the next readout (the scalar early ``break``), and
        never-stepped lanes return ``[]``.  The list form of
        :meth:`rollout_arrays`; ``lanes`` must name resident slots, each
        once.
        """
        n = len(lanes)
        if not n == len(widths) == len(lengths):
            raise ValueError("rollout_lanes needs one width and one length "
                             "per lane")
        classes, probs, depth = self.rollout_arrays(lanes, widths, lengths)
        deep, span = classes.shape[1:]
        if not deep:
            return [[] for _ in lanes]
        # Every pick of the call as one list of pairs; a lane's step is a
        # slice of it.
        picks = list(zip(classes.ravel().tolist(), probs.ravel().tolist()))
        return [[picks[at:at + min(width, span)]
                 for at in range(lane, lane + steps * span, span)]
                for lane, steps, width
                in zip(range(0, n * deep * span, deep * span),
                       depth.tolist(), widths)]

    def rollout_arrays(self, lanes: Sequence[int] | np.ndarray,
                       widths: Sequence[int] | np.ndarray,
                       lengths: Sequence[int] | np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`rollout_lanes` as arrays.

        Returns ``(classes, probs, depth)``: ``classes[i, d, j]`` and
        ``probs[i, d, j]`` are pick ``j`` of step ``d`` of lane
        ``lanes[i]``, for ``d < depth[i]`` and ``j < min(widths[i],
        vocab)``; everywhere else the class is ``-1``.  The arrays span
        the deepest lane and the widest selection of the call.
        """
        idx = self.lane_index(lanes)
        width = np.asarray(widths, dtype=np.int64)
        length = np.asarray(lengths, dtype=np.int64)
        if not idx.size == width.size == length.size:
            raise ValueError("rollout_arrays needs one width and one "
                             "length per lane")
        if idx.size and width.min() < 1:
            raise ValueError("rollout widths must be at least 1")
        depth = np.where(self._prev_code[idx] >= 0, length, 0)
        np.maximum(depth, 0, out=depth)
        deep = int(depth.max(initial=0))
        span = min(int(width.max(initial=0)), self.vocab_size)
        classes = np.full((idx.size, deep, span), -1, dtype=np.int64)
        probs = np.zeros((idx.size, deep, span))
        rows = depth.nonzero()[0]
        live = idx[rows]
        codes = self._prev_code[live]
        now = self._probs_rows[live]
        kern = self._kern
        for step in range(deep):
            top, vals = self._select_rows(now, width[rows], span)
            if rows.size == idx.size:
                classes[:, step] = top
                probs[:, step] = vals
            else:
                classes[rows, step] = top
                probs[rows, step] = vals
            keep = (depth[rows] > step + 1).nonzero()[0]
            if not keep.size:
                break
            # Lanes whose rollout ends here drop out before the readout.
            if keep.size < rows.size:
                rows, live, codes, top = (
                    a[keep] for a in (rows, live, codes, top))
            codes = self._codes(codes, top[:, 0])
            now = np.empty((live.size, self.vocab_size))
            kern.scores(self._w_vals, self._book.tables(), live, codes, now)
            np.exp(now, out=now)
            kern.finish_rows(now)
        return classes, probs, depth

    def _select_rows(self, probs: np.ndarray, widths: np.ndarray,
                     span: int) -> tuple[np.ndarray, np.ndarray]:
        """``select_topk(probs[i], widths[i])`` for every row, as ``(rows,
        span)`` classes and probabilities (a narrower row padded with
        class ``-1``).  One row-wise selection per distinct width."""
        width = int(widths[0])
        if (widths == width).all() and min(width, self.vocab_size) == span:
            return _select_topk_rows(probs, width)
        classes = np.full((len(probs), span), -1, dtype=np.int64)
        values = np.zeros((len(probs), span))
        for width in np.unique(widths).tolist():
            pick = (widths == width).nonzero()[0]
            top, vals = _select_topk_rows(probs[pick], width)
            classes[pick, :top.shape[1]] = top
            values[pick, :top.shape[1]] = vals
        return classes, values

    # ------------------------------------------------------------------
    # Lane extraction
    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        """Clear every lane's sequence context (weights are kept)."""
        self._prev_code.fill(-1)
        self._prev_pred.fill(-1)

    @property
    def w_out(self) -> np.ndarray:
        """Every lane's readout as a fresh dense ``(lanes, hidden,
        vocab)`` array — the oracle view (see
        :attr:`SparseHebbianNetwork.w_out`), not the storage."""
        return np.stack([self.lane_weights(t) for t in range(self.n_lanes)])

    def lane_weights(self, lane: int) -> np.ndarray:
        """Lane ``lane``'s readout as a fresh dense ``(hidden, vocab)``
        array, for comparing against a network's ``w_out``."""
        return self.prototype._dense(self._w_vals[lane])

    def lane_values(self, lane: int) -> np.ndarray:
        """Lane ``lane``'s learned values (``readout_values`` layout),
        as a read-only view.

        The serving layer checksums this to prove a query was answered
        from exactly one deployed weight snapshot (never a torn mix);
        a view keeps that check allocation-free.  Callers must not
        write through it — mutation goes through ``step_lanes`` /
        ``acquire_lane`` / ``redeploy_lane``.
        """
        view = self._w_vals[lane]
        view.flags.writeable = False
        return view

    @property
    def probs_rows(self) -> np.ndarray:
        """Every slot's last-step probabilities, ``(n_lanes, vocab)`` —
        the storage itself, for gathers across lanes; a row means
        something only for a lane that has stepped.  Callers must not
        write through it, and must read it anew after an adoption (growth
        reallocates it)."""
        return self._probs_rows

    def lane_network(self, lane: int) -> SparseHebbianNetwork:
        """Materialize lane ``lane`` as a standalone scalar network.

        The clone shares the fixed structures with the prototype (as
        ``SparseHebbianNetwork.clone`` does) and carries the lane's
        learned weights and sequence state, so stepping it continues the
        lane bit-identically.
        """
        net = self.prototype.clone()
        self._export(lane, net)
        return net
