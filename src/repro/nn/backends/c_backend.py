"""C backend: simulator and Hebbian-network kernels compiled with the
system C compiler into a CPython extension, through cffi.

The kernel source below is embedded as a string.  On first use cffi's
out-of-line API mode turns it and its declarations into one C file (the
kernels plus cffi's generated wrappers, module ``_reprokernels``), the
system ``cc`` compiles that against the Python headers into
``_build/reprokernels-<sha16>.so`` (hash of the source, the
declarations, the compile flags, the interpreter's extension suffix and
the cffi and numpy versions, so changing any of them transparently
rebuilds), and ``importlib`` loads it as an extension module.  A kernel
call is then a direct C call, not one through libffi, and nothing parses
the declarations at start-up.  The requirements are ``cffi``, a
``cc``/``gcc`` on PATH, the Python headers (``Python.h``) and numpy's
(``ufuncobject.h``); any failure along that path — no compiler, no
headers, compile error, load error, or an ``exp`` loop that fails its
check at load (:func:`_bind_loops`) — makes the backend report
unavailable; nothing raises out of :func:`available`.

Two families are compiled:

- the simulator: one lane's cache step (``rk_sim_run``: hits, fills,
  evictions, the in-flight prefetch queue and its landings — one call
  per demand miss, one per segment for a null run), a round of lanes
  (``rk_sim_lanes``: the same step over one context per lane slot; both
  run on the lane store's rows, ``memsim/lanes.py``), and
  ``PageCache``'s two membership scans;
- the Hebbian network, on the ids of a shared code table (``rk_book``:
  the memo's codes as rows, each class's context-free code, the
  transitions between them): its step (``rk_heb_step``: the code that
  follows, Eq. 1's column update from the last code, the new code's
  sparse readout and its whole softmax, ``exp`` included — one call),
  its rollout (``rk_heb_rollout``: every step's top-width selection and
  the next code's softmax, one call), its context-free learn keyed by class (``rk_heb_learn_class``) and its
  admission scan (``rk_heb_finite``), bound once per scalar network by
  :func:`bind_hebbian`; the same helpers run as lane loops over a
  ``HebbianFleet``'s value slab (``rk_heb_lanes_step`` / ``_scores`` /
  ``_train``, ``rk_heb_finish_rows``), bound once per fleet by
  :func:`bind_hebbian_lanes`, and the cohort's replay is one of them
  (``rk_heb_replay``: ``LaneDraws``' bounded draws over its raw blocks,
  the phase rejection, the picks and their training; ``rk_lane_draws``
  is its draw alone), which the scalar network's replay runs on one lane
  (``rk_heb_replay_one``, over a store bound by :func:`bind_replay`).
  The kernels' ``exp`` is numpy's own float64 loop (``rk_ufunc_loop``
  reads it from ``np.exp``'s loop table; libm's ``exp`` is not
  ``np.exp`` bit for bit), and so is the max a row with a NaN is
  shifted by (``np.maximum``'s, run as numpy reduces: which NaN it
  returns depends on its vector lanes).  The k-WTA hidden code and the raw 32-bit
  stream stay numpy: the first's tie order is ``argpartition``'s, the
  second is the generator's own.

Bit-identity: every kernel reproduces its numpy reference's observable
state transitions exactly (see the per-function notes in the C source).
The simulator kernels are integer-only; the Hebbian ones do their float
arithmetic in numpy's order (bincount's per-class accumulation, the
pairwise sum of ``ndarray.sum``) under flags that forbid reassociation
and contraction.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from contextlib import suppress
from functools import partial
from importlib.machinery import ExtensionFileLoader, ModuleSpec
from importlib.util import module_from_spec
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: ``rk_sim_run``'s context: the arrays and settings of one lane of the
#: lane store (``memsim/lanes.py``).  One string serves the C source and
#: the cffi declarations, so the two layouts cannot drift apart.
_SIM_CONTEXT = """
typedef struct {
    /* trace: access -> page cid, access is a store */
    const long long *cids;
    const unsigned char *stores;
    /* residency: cid -> slot (-1: not resident), and per slot */
    long long *soc, *page_of_cid, *page_of_slot, *last_use, *cid_of_slot;
    unsigned char *dirty, *undemanded;
    /* in-flight prefetches: a FIFO ring of (landing index, cid) */
    long long *ring_at, *ring_cid;
    /* predictions of the last miss as cids; recorded miss indices */
    const long long *issue;
    long long *miss_idx;
    /* victim snapshot (kept across calls), CacheStats' nine counters in
     * field order, and the SIM_* scalars */
    long long *vstamp, *vslot, *stats, *state;
    long long capacity, ring_mask, delay, record, is_null;
} rk_sim;
"""

#: A network shape's hidden codes by id, shared by its clones (one
#: struct, pointed at by every context bound over the shape's tables, so
#: the network re-points ``codes`` in one place when it replaces the
#: table): the codes as rows of a table, each class's context-free code,
#: and the transitions the rollout and the step follow, an open-addressing
#: table keyed by ``code * vocab + class``.
_BOOK = """
typedef struct {
    /* code id c is row c of codes (k wide); class c's context-free code
     * is code_of[c], -1 until it is made */
    const long long *codes, *code_of;
    /* transitions: slot s maps keys[s] = code * vocab + class (-1: a
     * free slot) to next[s], the id of the code that follows; mask is
     * the slot count less one (a power of two less one), links the
     * slots taken (keys and next are not read while it is 0, and may
     * then be NULL) */
    long long *keys, *next;
    long long mask, links;
} rk_book;
"""

#: The Hebbian kernels' context: one network's value vector, the fixed
#: tables its clones share (the code book among them), numpy's float64
#: ``exp`` loop and the context's own scratch (``rk_heb_step`` leaves its
#: punished slots in ``punished``, their number and its argmax in
#: ``state``; ``rk_heb_rollout`` its steps in ``roll_top`` / ``roll_p``
#: and where it stopped in ``state``).
_HEB_CONTEXT = """
typedef struct {
    /* the readout values, class-major; class t's slots are
     * out_start[t]..out_start[t + 1], slot s lies in hidden row
     * slot_row[s] */
    double *w;
    const long long *out_start, *slot_row;
    /* the same entries by hidden row: row r's are row_start[r] ..
     * row_start[r + 1], classes ascending, as (row_class, row_slot) */
    const long long *row_start, *row_class, *row_slot;
    /* (vocab, hidden): a (class, row)'s slot, -1 where unconnected */
    const long long *slot_of;
    /* the shape's hidden codes by id */
    rk_book *book;
    /* np.exp's and np.maximum's float64 inner loops and their data
     * (rk_ufunc_loop) */
    void *exp_loop, *exp_data, *max_loop, *max_data;
    /* scratch: logits / probabilities, the selection's insertion list,
     * the rollout's steps (roll_cap entries), the punished slots, the
     * step's and the rollout's results, a hidden-row membership mark */
    double *x, *roll_p;
    long long *top, *roll_top, *punished, *state;
    unsigned char *mark;
    long long roll_cap, vocab, hidden, k, punish;
    double temperature, weight_max, negative_scale;
} rk_heb;
"""

#: ``rk_heb_replay_one``'s context: one ``EpisodicStore``'s columns and
#: one ``LaneDraws`` lane (the scalar replay's draws), with the call's
#: scratch; bound once per ``ReplayScheduler`` by :func:`bind_replay`.
_REPLAY_CONTEXT = """
typedef struct {
    /* the lane's raw block (raw_block long), its next unread raw and the
     * raws consumed */
    const uint32_t *raws;
    long long *at, *used, raw_block;
    /* the store: episodes written, its ring's capacity, its columns */
    const long long *count;
    long long cap;
    const int32_t *input, *target;
    const long long *phase;
    long long attempts, per_step;
    /* scratch: the draw, the picks' columns (pred: the argmax each
     * pick learnt against, -1: none), the replayed count, and the row
     * left to the rejection loop */
    long long *values, *replayed, *pick_lane, *pick_input, *pick_target,
        *pick_code, *pick_pred, *redo, *n_redo;
} rk_replay;
"""

#: ``rk_cls_miss``'s context: the settings and the state of one
#: ``CLSPrefetcher``'s stages that a miss reads besides its model (bound
#: by :func:`bind_cls_miss`), with the call's inputs, stage variables and
#: results (``io`` / ``fio``) and its pages.
_CLS_CONTEXT = """
typedef struct {
    /* the delta encoder: class c's delta at deltas[c - 1] for the known
     * first met (limit at most), in units of 2**shift bytes, repeats
     * collapsed unless collapse is 0 */
    long long *deltas;
    long long known, limit, shift, collapse;
    /* the phase feature (address >> region_shift) % bins and the
     * detector's window (0: no detector) */
    long long region_shift, bins, window;
    /* the scored probabilities (vocab) and the memo's classes for them;
     * the rollout's steps (length * picked) */
    double *probs, *roll_p;
    long long *memo, *roll_top;
    double alpha, min_accuracy, min_confidence, threshold, lr, replay_lr;
    /* train_always: TrainAlways; store: a replay store, below: it keeps
     * only episodes below threshold; replay: per_step > 0 */
    long long width, length, page_shift, train_always, store, below, replay;
    /* the EpisodicStore: episodes written, its ring's capacity, the
     * columns' width and the five columns */
    long long *ep_count;
    long long ep_cap, ep_size;
    int32_t *ep_input, *ep_target;
    long long *ep_phase, *ep_timestamp;
    double *ep_confidence;
    /* one miss: inputs, stage variables and results (CM_*), the EMA and
     * the confidence (CF_*), the pages */
    long long *io, *pages;
    double *fio;
} rk_cls;
"""

#: ``rk_cls_miss``'s ``io`` slots: the miss and the state it starts from,
#: the stage variables, then (from ``n``) the results a settled miss
#: reads, the memo's classes (``tops``, ``picked`` of them) last.
CM_SLOTS = ("address", "page", "time", "prev", "memo", "hint", "fill",
            "phase", "pred", "covered", "draw", "steps", "roll_code",
            "roll_class",
            "n", "class", "unit", "code", "stepped", "feature", "train",
            "learned", "replayed", "suppressed", "best", "rolled", "tops")
#: Its ``fio`` slots.
CF_SLOTS = ("ema", "confidence")
#: Its return codes: ``done``, or the sub-step it leaves to Python.
CM_CODES = ("done", "handback", "no_class", "new_delta", "window", "cover",
            "train", "store", "link", "bad_pred", "replay_codes", "redraw",
            "tie", "unmet", "decode")
#: Its stages: where ``rk_cls_resume`` goes on after a sub-step.
CM_STAGES = ("encode", "phase", "score", "ema", "remember", "step",
             "replay", "gate", "roll", "decode")


def _enum(prefix: str, names: tuple[str, ...]) -> str:
    return ("enum { " + ", ".join(prefix + name.upper() for name in names)
            + " };\n")


_CLS_ENUMS = (_enum("CM_", CM_SLOTS) + _enum("CF_", CF_SLOTS)
              + _enum("R_", CM_CODES) + _enum("S_", CM_STAGES))

_SOURCE = r"""
/* Compiled hot-path kernels for the repro simulator and the Hebbian
 * network, scalar and stacked.
 *
 * Bit-identity contract: every function reproduces the exact observable
 * state transitions of its reference (see repro/memsim/simulator.py,
 * repro/memsim/pagecache.py, repro/nn/hebbian.py, repro/nn/hebbian_fleet.py
 * and repro/core/hippocampus.py).  The simulator
 * kernels are integer-only; the Hebbian kernels' float operations follow
 * numpy's order.
 */

/* Only for PyUFuncObject's layout (rk_ufunc_loop): no numpy C-API call is
 * made, so the API tables are declared, never imported. */
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#define NO_IMPORT_ARRAY
#define NO_IMPORT_UFUNC
#include <numpy/arrayobject.h>
#include <numpy/ufuncobject.h>
#include <stdint.h>
#include <string.h>

typedef long long i64;
typedef unsigned char u8;

/* PageCache's free-slot stamp sentinel: np.iinfo(np.int64).max. */
#define FREE_STAMP 9223372036854775807LL

#define VICTIM_BATCH 64

/* ------------------------------------------------------------------ */
/* Simulator kernels                                                  */
/* ------------------------------------------------------------------ */

/* PageCache.first_nonresident: first index in [start, stop) whose page
 * (compact id) has no slot, or stop.  soc is the cid-indexed slot table
 * (-1 = non-resident). */
i64 rk_first_nonresident(const i64 *soc, const i64 *cids, i64 start,
                         i64 stop)
{
    for (i64 i = start; i < stop; i++)
        if (soc[cids[i]] < 0)
            return i;
    return stop;
}

/* PageCache.miss_run_length: length of the bulk-fillable miss run at
 * `start` (a known miss): extends while pages are non-resident and
 * mutually distinct, scanning up to `limit` (the caller applies the
 * capacity/scan-chunk clamp).  The numpy version cuts at the earliest
 * second occurrence of any page; a linear scan that stops at the first
 * repeat of an already-seen cid finds exactly that position.  scratch
 * (one entry per universe cid) + stamp give O(run) seen-set membership:
 * scratch[cid] == stamp  <=>  cid seen in this run. */
i64 rk_miss_run_length(const i64 *soc, const i64 *cids, i64 start,
                       i64 limit, i64 *scratch, i64 stamp)
{
    i64 i = start;
    for (; i < limit; i++) {
        i64 cid = cids[i];
        if (soc[cid] >= 0 || scratch[cid] == stamp)
            break;
        scratch[cid] = stamp;
    }
    return i - start;
}

/* Lazy-LRU victim queue (PageCache._refill_victims / _evict_lru):
 * rk_refill_victims snapshots the VICTIM_BATCH smallest stamps of
 * last_use[0, capacity) in ascending order (a partial insertion sort;
 * the cache is full when it runs, so only live stamps enter) and
 * returns the snapshot's length; rk_pop_victim drains the snapshot
 * with a stamp-match check, refilling it when it runs dry.  A matching
 * entry is the true LRU minimum: every slot outside the snapshot was
 * younger at snapshot time and stamps only grow (or become
 * FREE_STAMP), so the victim *choice* is exactly the reference's,
 * wherever the snapshot boundaries fall. */
static i64 rk_refill_victims(const i64 *last_use, i64 capacity,
                             i64 *vstamp, i64 *vslot)
{
    i64 vn = 0;
    for (i64 s = 0; s < capacity; s++) {
        i64 st = last_use[s];
        i64 p;
        if (vn == VICTIM_BATCH && st >= vstamp[vn - 1])
            continue;
        p = (vn < VICTIM_BATCH) ? vn : vn - 1;
        while (p > 0 && vstamp[p - 1] > st) {
            vstamp[p] = vstamp[p - 1];
            vslot[p] = vslot[p - 1];
            p--;
        }
        vstamp[p] = st;
        vslot[p] = s;
        if (vn < VICTIM_BATCH)
            vn++;
    }
    return vn;
}

static i64 rk_pop_victim(const i64 *last_use, i64 capacity,
                         i64 *vstamp, i64 *vslot, i64 *vn, i64 *vi)
{
    for (;;) {
        i64 st, vs;
        if (*vi >= *vn) {
            *vn = rk_refill_victims(last_use, capacity, vstamp, vslot);
            *vi = 0;
        }
        st = vstamp[*vi];
        vs = vslot[*vi];
        (*vi)++;
        if (st != FREE_STAMP && last_use[vs] == st)
            return vs;
    }
}

/* One lane's cache step: the whole per-access algorithm of the scalar
 * reference engine (memsim/simulator.py, _ScalarEngine over
 * ReferencePageCache) on the lane's rows of the lane store
 * (memsim/lanes.py), which simulate() and the fleet's cohort drive.
 * Per access i, in the reference's order: every in-flight prefetch due
 * at i lands (PageCache.insert_prefetch), then the demand access hits
 * (PageCache.access) or misses and is filled (PageCache.fill).  Issue
 * indices never decrease and the delay is constant, so the in-flight
 * queue is a FIFO ring (head and tail count up; the caller keeps the
 * power-of-two ring large enough).  Slots are handed out
 * virgin-ascending (slot n_resident below capacity; at capacity the
 * evicted slot is reused by the same install): the order PageCache's
 * free list pops them in.  Pages are cids: trace pages by position in
 * the trace's page universe, out-of-universe prefetches by extension
 * cids the caller assigns from the universe size up. */
""" + _SIM_CONTEXT + r"""
/* state[]: the LRU clock, residency counts, the ring's head and tail,
 * misses recorded, and the victim snapshot's length and position.  A
 * call works on a local copy of all but the last two, which
 * rk_pop_victim updates in place (so the copy never escapes and can
 * live in registers). */
enum { SIM_CLOCK, SIM_RESIDENT, SIM_UNDEMANDED, SIM_HEAD, SIM_TAIL,
       SIM_MISSES, SIM_VN, SIM_VI };

/* stats[]: CacheStats' counters in field order. */
enum { ACCESSES, HITS, DEMAND_MISSES, PREFETCH_HITS, PREFETCHES_ISSUED,
       REDUNDANT, EVICTED_UNUSED, DISPLACED_BY_PREFETCH, WRITEBACKS,
       N_STATS };

#define NO_PENDING (1LL << 62)

/* The slot a page is installed into: a virgin one below capacity, else
 * the LRU page's, evicted (PageCache._evict_lru).  A landing's eviction
 * of a demanded page counts a demand page displaced by a prefetch. */
static inline i64 rk_take_slot(const rk_sim *s, i64 *st, i64 *c,
                               int by_prefetch)
{
    i64 slot;
    if (st[SIM_RESIDENT] < s->capacity)
        return st[SIM_RESIDENT]++;
    slot = rk_pop_victim(s->last_use, s->capacity, s->vstamp, s->vslot,
                         &s->state[SIM_VN], &s->state[SIM_VI]);
    if (s->dirty[slot]) {
        c[WRITEBACKS]++;
        s->dirty[slot] = 0;
    }
    if (s->undemanded[slot]) {
        c[EVICTED_UNUSED]++;
        st[SIM_UNDEMANDED]--;
        s->undemanded[slot] = 0;
    } else if (by_prefetch) {
        c[DISPLACED_BY_PREFETCH]++;
    }
    s->soc[s->cid_of_slot[slot]] = -1;
    return slot;
}

static inline void rk_install(const rk_sim *s, i64 slot, i64 cid,
                              i64 stamp)
{
    s->page_of_slot[slot] = s->page_of_cid[cid];
    s->last_use[slot] = stamp;
    s->soc[cid] = slot;
    s->cid_of_slot[slot] = cid;
}

/* Issue the n_issue predictions in s->issue at access start - 1 (the
 * miss the caller just answered), then run accesses [start, stop).
 * Returns the index of the first demand miss (already filled and
 * counted) so the caller can ask the prefetcher, or stop.  In null mode
 * it never returns early. */
i64 rk_sim_run(const rk_sim *s, i64 start, i64 stop, i64 n_issue)
{
    const i64 *cids = s->cids;
    i64 *soc = s->soc;
    i64 *last_use = s->last_use;
    i64 *ring_at = s->ring_at;
    i64 mask = s->ring_mask;
    i64 st[SIM_VN];
    i64 c[N_STATS] = {0};
    i64 clock, next_landing;
    i64 i = start;

    for (int k = 0; k < SIM_VN; k++)
        st[k] = s->state[k];
    clock = st[SIM_CLOCK];
    for (i64 k = 0; k < n_issue; k++, st[SIM_TAIL]++) {
        ring_at[st[SIM_TAIL] & mask] = start - 1 + s->delay;
        s->ring_cid[st[SIM_TAIL] & mask] = s->issue[k];
    }
    next_landing = st[SIM_HEAD] < st[SIM_TAIL]
        ? ring_at[st[SIM_HEAD] & mask] : NO_PENDING;
    for (; i < stop; i++) {
        i64 cid, slot;
        while (next_landing <= i) {
            cid = s->ring_cid[st[SIM_HEAD]++ & mask];
            next_landing = st[SIM_HEAD] < st[SIM_TAIL]
                ? ring_at[st[SIM_HEAD] & mask] : NO_PENDING;
            c[PREFETCHES_ISSUED]++;
            slot = soc[cid];
            if (slot >= 0) {
                c[REDUNDANT]++;
                last_use[slot] = clock++;
                continue;
            }
            slot = rk_take_slot(s, st, c, 1);
            rk_install(s, slot, cid, clock++);
            s->undemanded[slot] = 1;
            st[SIM_UNDEMANDED]++;
        }
        cid = cids[i];
        slot = soc[cid];
        if (slot >= 0) {
            last_use[slot] = clock++;
            if (s->stores[i])
                s->dirty[slot] = 1;
            if (st[SIM_UNDEMANDED] && s->undemanded[slot]) {
                s->undemanded[slot] = 0;
                st[SIM_UNDEMANDED]--;
                c[PREFETCH_HITS]++;
            }
            c[HITS]++;
            continue;
        }
        c[DEMAND_MISSES]++;
        if (s->record)
            s->miss_idx[st[SIM_MISSES]] = i;
        st[SIM_MISSES]++;
        slot = rk_take_slot(s, st, c, 0);
        rk_install(s, slot, cid, clock++);
        s->dirty[slot] = s->stores[i];
        if (!s->is_null)
            break;
    }
    st[SIM_CLOCK] = clock;
    for (int k = 0; k < SIM_VN; k++)
        s->state[k] = st[k];
    c[ACCESSES] = c[HITS] + c[DEMAND_MISSES];
    for (int k = 0; k < N_STATS; k++)
        s->stats[k] += c[k];
    return i;
}

/* A round of the lane store (memsim/lanes.py): each lane slot t is its
 * own context sims[t].  Every lane t of lanes[0..n_lanes) issues its
 * n_issue[t] predictions and runs from pos[t] to its next demand miss or
 * stop[t] (in null mode to stop[t]), which is left in pos[t]. */
void rk_sim_lanes(const rk_sim *sims, const i64 *lanes, i64 n_lanes,
                  i64 *pos, const i64 *stop, const i64 *n_issue)
{
    for (i64 k = 0; k < n_lanes; k++) {
        i64 t = lanes[k];
        pos[t] = rk_sim_run(&sims[t], pos[t], stop[t], n_issue[t]);
    }
}

/* ------------------------------------------------------------------ */
/* Hebbian network kernels                                            */
/* ------------------------------------------------------------------ */

/* SparseHebbianNetwork's per-step arithmetic on one network's value
 * vector (repro/nn/hebbian.py).  Float kernels: every sum is taken in
 * the order numpy takes it, and the flags forbid reassociation and FMA
 * contraction, so each result is numpy's bit for bit. */
""" + _BOOK + _HEB_CONTEXT + r"""
/* Eq. 1 on the value vector w (SparseHebbianNetwork._learn): the target
 * column (+lr on the rows of the code, lr * -negative_scale on the other
 * connected rows), clipped to +-weight_max; then, when predicted >= 0
 * names another class, the punish term: -lr on predicted's entries in
 * the code's rows, in the code's order, floored at -weight_max.  Returns
 * how many slots it punished, and lists them in punished unless that is
 * NULL.  The comparisons keep a NaN as np.minimum/np.maximum do. */
static i64 heb_learn(const rk_heb *h, double *w, const i64 *code, i64 k,
                     i64 target, i64 predicted, double lr, i64 *punished)
{
    double wm = h->weight_max;
    double down = -lr * h->negative_scale;
    i64 n_punished = 0;

    for (i64 j = 0; j < k; j++)
        h->mark[code[j]] = 1;
    for (i64 s = h->out_start[target]; s < h->out_start[target + 1]; s++) {
        double v = w[s] + (h->mark[h->slot_row[s]] ? lr : down);
        if (v > wm)
            v = wm;
        if (v < -wm)
            v = -wm;
        w[s] = v;
    }
    for (i64 j = 0; j < k; j++)
        h->mark[code[j]] = 0;
    if (predicted < 0 || predicted == target)
        return 0;
    for (i64 j = 0; j < k; j++) {
        i64 s = h->slot_of[predicted * h->hidden + code[j]];
        double v;
        if (s < 0)
            continue;
        v = w[s] - lr;
        if (v < -wm)
            v = -wm;
        w[s] = v;
        if (punished)
            punished[n_punished] = s;
        n_punished++;
    }
    return n_punished;
}

/* SparseHebbianNetwork.readout of w into x: class scores accumulated row
 * by row in the code's order (per class the order np.bincount adds the
 * row-major gather in, from +0.0).  Returns np.argmax(scores): the first
 * maximum, or the first NaN. */
static i64 heb_readout(const rk_heb *h, const double *w, const i64 *code,
                       i64 k, double *x)
{
    i64 v_n = h->vocab;
    i64 best = 0;
    double top;

    for (i64 c = 0; c < v_n; c++)
        x[c] = 0.0;
    for (i64 j = 0; j < k; j++) {
        i64 r = code[j];
        if (j + 1 < k) {  /* the code's rows are scattered: fetch ahead */
            i64 next = h->row_start[code[j + 1]];
            __builtin_prefetch(h->row_class + next);
            __builtin_prefetch(h->row_slot + next);
        }
        for (i64 e = h->row_start[r]; e < h->row_start[r + 1]; e++)
            x[h->row_class[e]] += w[h->row_slot[e]];
    }
    top = x[0];
    if (top == top) {
        for (i64 c = 1; c < v_n; c++) {
            if (!(x[c] <= top)) {
                top = x[c];
                best = c;
                if (top != top)
                    break;
            }
        }
    }
    return best;
}

static double heb_max(const rk_heb *h, const double *x, i64 n);

/* Two doubles a division: a vector division rounds each lane as the
 * scalar one does, in half the instructions. */
typedef double v2d __attribute__((vector_size(16)));

/* The readout, then the arithmetic of probabilities() before its exp:
 * x = scores / T - max(scores / T).  The max of the quotients is the
 * quotient of the max (x[best]): rounding a division by a positive T is
 * monotone.  Not so for a NaN's bits: which NaN numpy's max returns
 * depends on its vector lanes, so a row with one is shifted by numpy's
 * own max loop (heb_max).  Returns the argmax. */
static i64 heb_scores(const rk_heb *h, const double *w, const i64 *code,
                      i64 k, double *x)
{
    i64 best = heb_readout(h, w, code, k, x);
    double top = x[best] / h->temperature;

    if (top != top) {
        for (i64 c = 0; c < h->vocab; c++)
            x[c] = x[c] / h->temperature;
        top = heb_max(h, x, h->vocab);
        for (i64 c = 0; c < h->vocab; c++)
            x[c] = x[c] - top;
        return best;
    }
    {
        const double t = h->temperature;
        const v2d tv = {t, t}, topv = {top, top};
        i64 c = 0;
        for (; c + 2 <= h->vocab; c += 2) {
            v2d a;
            memcpy(&a, x + c, sizeof a);
            a = a / tv - topv;
            memcpy(x + c, &a, sizeof a);
        }
        for (; c < h->vocab; c++)
            x[c] = x[c] / t - top;
    }
    return best;
}

/* numpy's pairwise summation of a contiguous float64 run
 * (pairwise_sum_DOUBLE: PW_BLOCKSIZE 128, eight accumulators). */
#define PW_BLOCKSIZE 128

static double rk_pairwise_sum(const double *a, i64 n)
{
    if (n < 8) {
        double res = 0.;
        for (i64 i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8], res;
        i64 i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) +
              ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    {
        i64 n2 = n / 2;
        n2 -= n2 % 8;
        return rk_pairwise_sum(a, n2) + rk_pairwise_sum(a + n2, n - n2);
    }
}

/* np.exp on a contiguous run of n doubles, in place, by numpy's own float64
 * inner loop (h->exp_loop, the d->d entry of the ufunc's loop table: not
 * libm's exp), called as numpy calls it on such a vector -- once, over the
 * whole run -- so every value is np.exp's bit for bit. */
static void heb_exp(const rk_heb *h, double *x, i64 n)
{
    char *args[2] = {(char *)x, (char *)x};
    npy_intp count = (npy_intp)n;
    npy_intp steps[2] = {sizeof(double), sizeof(double)};

    ((PyUFuncGenericFunction)h->exp_loop)(args, &count, steps, h->exp_data);
}

/* The first all-float64 loop of the ufunc at address ufunc, which has nin
 * inputs and one output (the loop numpy's type resolution picks for
 * float64 arguments): loop[0] gets the function, loop[1] its data.
 * Returns 0 when it has none. */
i64 rk_ufunc_loop(intptr_t ufunc, i64 nin, void **loop)
{
    const PyUFuncObject *u = (const PyUFuncObject *)ufunc;

    if (u->nin != nin || u->nout != 1)
        return 0;
    for (int i = 0; i < u->ntypes; i++) {
        const char *t = (const char *)u->types + (i64)i * u->nargs;
        int all = 1;
        for (int a = 0; a < u->nargs; a++)
            all &= t[a] == NPY_DOUBLE;
        if (all && u->functions[i]) {
            loop[0] = (void *)u->functions[i];
            loop[1] = u->data ? (void *)u->data[i] : NULL;
            return 1;
        }
    }
    return 0;
}

/* x.max() of n >= 1 doubles by np.maximum's own loop, as numpy reduces a
 * contiguous vector: x[0] into the accumulator, then one call over the
 * rest with the accumulator as both the first input and the output. */
static double heb_max(const rk_heb *h, const double *x, i64 n)
{
    double acc = x[0];
    char *args[3] = {(char *)&acc, (char *)(x + 1), (char *)&acc};
    npy_intp count = (npy_intp)(n - 1);
    npy_intp steps[3] = {0, sizeof(double), 0};

    if (n > 1)
        ((PyUFuncGenericFunction)h->max_loop)(args, &count, steps,
                                              h->max_data);
    return acc;
}

void rk_heb_exp(const rk_heb *h, double *x, i64 n)
{
    heb_exp(h, x, n);
}

double rk_heb_max(const rk_heb *h, const double *x, i64 n)
{
    return heb_max(h, x, n);
}

/* probabilities()'s x /= x.sum(): a reduction from the +0.0 identity over
 * numpy's pairwise sum. */
static void heb_normalize(double *x, i64 n)
{
    double total = 0.0 + rk_pairwise_sum(x, n);
    const v2d tv = {total, total};
    i64 c = 0;

    for (; c + 2 <= n; c += 2) {
        v2d a;
        memcpy(&a, x + c, sizeof a);
        a = a / tv;
        memcpy(x + c, &a, sizeof a);
    }
    for (; c < n; c++)
        x[c] = x[c] / total;
}

/* probabilities(readout(code)) into x: the shifted scores, numpy's exp,
 * the normalisation.  Returns the scores' argmax. */
static i64 heb_softmax(const rk_heb *h, const i64 *code, i64 k, double *x)
{
    i64 best = heb_scores(h, h->w, code, k, x);

    heb_exp(h, x, h->vocab);
    heb_normalize(x, h->vocab);
    return best;
}

/* select_topk(row, width)'s choice: the top min(width, vocab) classes of
 * row, descending, to out_c and their values to out_p (h->top, vocab
 * long, is the insertion's scratch).  The choice is select_topk's only
 * where it cannot depend on numpy's partition or sort order: returns -1
 * (and the caller asks select_topk) when a value among the top
 * min(width + 1, vocab) is shared or any value is NaN; else the number
 * selected. */
static i64 heb_select(const rk_heb *h, const double *row, i64 width,
                      i64 *out_c, double *out_p)
{
    i64 v_n = h->vocab;
    i64 picked = width < v_n ? width : v_n;
    i64 keep = width < v_n ? width + 1 : v_n;
    i64 held = 0;
    i64 *top = h->top;
    double floor = 0.0;  /* the least value held, once keep are held */

    for (i64 c = 0; c < v_n; c++) {
        double v = row[c];
        i64 p;
        if (v != v)
            return -1;
        if (held == keep && !(v > floor))
            continue;
        p = held < keep ? held++ : keep - 1;
        while (p > 0 && row[top[p - 1]] < v) {
            top[p] = top[p - 1];
            p--;
        }
        top[p] = c;
        if (held == keep)
            floor = row[top[keep - 1]];
    }
    for (i64 p = 1; p < keep; p++)
        if (row[top[p - 1]] == row[top[p]])
            return -1;
    for (i64 p = 0; p < picked; p++) {
        out_c[p] = top[p];
        out_p[p] = row[top[p]];
    }
    return picked;
}

/* The code that follows code on class cls (code < 0: cls's context-free
 * code), -1 when the book has not met that transition. */
static i64 book_follow(const rk_heb *h, i64 code, i64 cls)
{
    const rk_book *b = h->book;
    i64 key, s;

    if (code < 0)
        return b->code_of[cls];
    if (!b->links)
        return -1;
    key = code * h->vocab + cls;
    s = (i64)(((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> 32) & b->mask;
    for (;;) {
        i64 at = __atomic_load_n(b->keys + s, __ATOMIC_ACQUIRE);
        if (at == key)
            return b->next[s];
        if (at < 0)
            return -1;
        s = (s + 1) & b->mask;
    }
}

/* Record that code next follows code on class cls (code >= 0).  Returns 0,
 * having recorded nothing, when that would fill the table past half.  A
 * new slot's next is written before its key is published. */
i64 rk_book_link(rk_book *b, i64 vocab, i64 code, i64 cls, i64 next)
{
    i64 key = code * vocab + cls;
    i64 s = (i64)(((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> 32) & b->mask;

    while (b->keys[s] >= 0 && b->keys[s] != key)
        s = (s + 1) & b->mask;
    if (b->keys[s] < 0) {
        if (2 * (b->links + 1) > b->mask + 1)
            return 0;
        b->next[s] = next;
        __atomic_store_n(b->keys + s, key, __ATOMIC_RELEASE);
        b->links++;
        return 1;
    }
    b->next[s] = next;
    return 1;
}

/* The scalar network's entries: the helpers on its own value vector and
 * scratch (h->w; h->x, h->top, h->punished, h->state, h->roll_*). */
enum { ST_PUNISHED, ST_BEST, ST_CODE, ST_CLASS };

/* SparseHebbianNetwork.step on the book's code ids, in one call: the code
 * that follows prev on input (prev < 0: input's context-free one) --
 * when the book has not met it, returns -1 having moved nothing, and the
 * caller makes it and calls again -- then, with learn, Eq. 1 of input
 * from prev's code against predicted (-1: none; ignored without punish)
 * (state[ST_PUNISHED] slots punished, listed in punished), then the new
 * code's probabilities into x (heb_softmax).  Returns the new code's id;
 * its argmax goes to state[ST_BEST].  Returns -2, having moved nothing,
 * when it would learn against a predicted that is no class. */
i64 rk_heb_step(const rk_heb *h, i64 prev, i64 input, i64 predicted,
                double lr, i64 learn)
{
    i64 code;
    const i64 *codes = h->book->codes;

    if (!h->punish)
        predicted = -1;
    else if (learn && (predicted < -1 || predicted >= h->vocab))
        return -2;
    code = book_follow(h, prev, input);
    if (code < 0)
        return -1;
    if (learn)
        h->state[ST_PUNISHED] = heb_learn(h, h->w, codes + prev * h->k, h->k,
                                          input, predicted, lr, h->punished);
    h->state[ST_BEST] = heb_softmax(h, codes + code * h->k, h->k, h->x);
    return code;
}

/* SparseHebbianNetwork.predict_rollout(width, length) on the book (into
 * the context's scratch; heb_rollout_into takes another): step s
 * selects from its row (heb_select) into roll_top / roll_p + s * picked,
 * and the next row is the probabilities of the code that follows on the
 * step's first class.  The first row is probs, of code code; with cls >= 0
 * the call first moves on to the code that follows code on cls (probs is
 * then not read).  Returns the steps it completed.  Fewer than length: it
 * stopped at row state[ST_CODE], either on a row whose selection it leaves
 * to select_topk (state[ST_CLASS] -1: a tie, or no room in roll_* for the
 * call's first step; the row is probs when the call neither moved nor
 * completed a step, else x) or before moving on state[ST_CLASS] (a
 * transition the book has not met, or no room left in roll_* for a later
 * step).  Nothing is written past roll_cap entries of roll_*. */
static i64 heb_rollout_into(const rk_heb *h, const double *probs, i64 code,
                            i64 cls, i64 width, i64 length, i64 *roll_top,
                            double *roll_p, i64 roll_cap)
{
    const double *row = probs;
    i64 picked = width < h->vocab ? width : h->vocab;
    i64 s = 0;

    if (length <= 0)
        return 0;
    for (;;) {
        if (cls >= 0) {
            i64 next = book_follow(h, code, cls);
            if (next < 0 || (s > 0 && (s + 1) * picked > roll_cap))
                break;
            heb_softmax(h, h->book->codes + next * h->k, h->k, h->x);
            code = next;
            row = h->x;
        }
        if ((s + 1) * picked > roll_cap
            || heb_select(h, row, width, roll_top + s * picked,
                          roll_p + s * picked) < 0) {
            cls = -1;
            break;
        }
        cls = roll_top[s * picked];
        if (++s == length)
            return s;
    }
    h->state[ST_CODE] = code;
    h->state[ST_CLASS] = cls;
    return s;
}

i64 rk_heb_rollout(const rk_heb *h, const double *probs, i64 code, i64 cls,
                   i64 width, i64 length)
{
    return heb_rollout_into(h, probs, code, cls, width, length, h->roll_top,
                            h->roll_p, h->roll_cap);
}

/* A context-free learn keyed by class (SparseHebbianNetwork.learn_pair,
 * and train_pair's update): Eq. 1 of target from input's context-free
 * code (book->code_of[input]) at lr.  Under punish it is against
 * predicted, or -- predicted < 0 -- against the argmax of that code's
 * readout (into x), as learn_pair reads it.  Returns how many slots it
 * punished, listed in punished; -1, having moved nothing, when a class
 * is outside the vocabulary or input has no code yet (the caller checks
 * the classes, makes the code and calls again). */
i64 rk_heb_learn_class(const rk_heb *h, i64 input, i64 target,
                       i64 predicted, double lr)
{
    const i64 *code;

    if (input < 0 || input >= h->vocab || target < 0 || target >= h->vocab
        || h->book->code_of[input] < 0)
        return -1;
    code = h->book->codes + h->book->code_of[input] * h->k;
    if (!h->punish)
        predicted = -1;
    else if (predicted < 0)
        predicted = heb_readout(h, h->w, code, h->k, h->x);
    return heb_learn(h, h->w, code, h->k, target, predicted, lr,
                     h->punished);
}

/* weights_finite over the value vector: 1 iff every one of its
 * out_start[vocab] values is finite.  It reads them all (no early exit)
 * and tests the bits, not the float: a value is NaN or +-inf exactly
 * when its exponent field is all ones, and adding one to that field then
 * carries into the sign bit.  No float flag can fold that away, as
 * -ffinite-math-only may fold isfinite.  Eight values a turn, as four
 * two-lane accumulators, so the scan runs at load speed. */
typedef uint64_t u64x2 __attribute__((vector_size(16)));

#define EXP_BITS 0x7FF0000000000000ULL
#define EXP_ONE (1ULL << 52)

i64 rk_heb_finite(const rk_heb *h)
{
    const double *w = h->w;
    i64 n = h->out_start[h->vocab];
    const u64x2 exp_bits = {EXP_BITS, EXP_BITS}, exp_one = {EXP_ONE, EXP_ONE};
    u64x2 c0 = {0, 0}, c1 = {0, 0}, c2 = {0, 0}, c3 = {0, 0};
    uint64_t carry;
    i64 s = 0;

    for (; s + 8 <= n; s += 8) {
        u64x2 bits[4];
        memcpy(bits, w + s, sizeof bits);
        c0 |= (bits[0] & exp_bits) + exp_one;
        c1 |= (bits[1] & exp_bits) + exp_one;
        c2 |= (bits[2] & exp_bits) + exp_one;
        c3 |= (bits[3] & exp_bits) + exp_one;
    }
    c0 |= c1 | c2 | c3;
    carry = c0[0] | c0[1];
    for (; s < n; s++) {
        uint64_t bits;
        memcpy(&bits, w + s, sizeof bits);
        carry |= (bits & EXP_BITS) + EXP_ONE;
    }
    return !(carry >> 63);
}

/* HebbianFleet's entries (repro/nn/hebbian_fleet.py): the same helpers
 * over lanes of the value slab.  Lane t's values are slab + t * block;
 * code id c is row c of table (k wide, the code book's tables()).  A
 * lane is named once a call, so the lanes' rows are disjoint and the
 * order across lanes is free; within a lane the order is the scalar
 * network's. */

/* HebbianFleet.step_lanes: lane t = lanes[i] first learns classes[i]
 * from its last code prev_code[t] -- when train[i] and it has one -- at
 * lr, against its last argmax prev_pred[t], and counts it in steps[t];
 * then row i of x (n, vocab) gets the shifted scores of code next[i]
 * (heb_scores), and next[i] and the argmax (-1 without punish)
 * become the lane's last code and argmax. */
void rk_heb_lanes_step(const rk_heb *h, double *slab, i64 block,
                       const i64 *table, i64 k, const i64 *lanes, i64 n,
                       const i64 *classes, const u8 *train, double lr,
                       i64 punish, const i64 *next, double *x,
                       i64 *prev_code, i64 *prev_pred, i64 *steps)
{
    for (i64 i = 0; i < n; i++) {
        i64 t = lanes[i];
        double *w = slab + t * block;
        i64 best;
        if (train[i] && prev_code[t] >= 0) {
            heb_learn(h, w, table + prev_code[t] * k, k, classes[i],
                      prev_pred[t], lr, 0);
            steps[t]++;
        }
        best = heb_scores(h, w, table + next[i] * k, k, x + i * h->vocab);
        prev_code[t] = next[i];
        prev_pred[t] = punish ? best : -1;
    }
}

/* A rollout step's readout: row i of x gets lane lanes[i]'s shifted
 * scores of code next[i]. */
void rk_heb_lanes_scores(const rk_heb *h, const double *slab, i64 block,
                         const i64 *table, i64 k, const i64 *lanes, i64 n,
                         const i64 *next, double *x)
{
    for (i64 i = 0; i < n; i++)
        heb_scores(h, slab + lanes[i] * block, table + next[i] * k, k,
                   x + i * h->vocab);
}

/* The softmax's normalisation (heb_normalize) on every row of x (n,
 * vocab); with store, row i is then copied to row lanes[i] of store (the
 * fleet's probs_rows).  The rollout's selection stays numpy's: on the
 * cohort's traffic most rows tie at the top-width boundary. */
void rk_heb_finish_rows(const rk_heb *h, double *x, i64 n, double *store,
                        const i64 *lanes)
{
    i64 v_n = h->vocab;

    for (i64 i = 0; i < n; i++) {
        double *xi = x + i * v_n;
        heb_normalize(xi, v_n);
        if (store)
            for (i64 c = 0; c < v_n; c++)
                store[lanes[i] * v_n + c] = xi[c];
    }
}

/* HebbianFleet.train_pairs_columns, pair by pair in the order given:
 * lane lanes[i] learns targets[i] from code codes[i] at lrs[i] (lr when
 * lrs is NULL), against the argmax of its readout of that code under
 * punish (else against nothing) -- SparseHebbianNetwork.learn_pair.
 * With preds, preds[i] gets that argmax (-1: none). */
static void lanes_train(const rk_heb *h, double *slab, i64 block,
                        const i64 *table, i64 k, i64 punish,
                        const i64 *lanes, const i64 *codes,
                        const i64 *targets, const double *lrs, double lr,
                        i64 n, i64 *preds)
{
    for (i64 i = 0; i < n; i++) {
        double *w = slab + lanes[i] * block;
        const i64 *code = table + codes[i] * k;
        i64 predicted = punish ? heb_readout(h, w, code, k, h->x) : -1;
        heb_learn(h, w, code, k, targets[i], predicted, lrs ? lrs[i] : lr,
                  0);
        if (preds)
            preds[i] = predicted;
    }
}

void rk_heb_lanes_train(const rk_heb *h, double *slab, i64 block,
                        const i64 *table, i64 k, i64 punish,
                        const i64 *lanes, const i64 *codes,
                        const i64 *targets, const double *lrs, i64 n)
{
    lanes_train(h, slab, block, table, k, punish, lanes, codes, targets,
                lrs, 0.0, n, 0);
}

/* ------------------------------------------------------------------ */
/* Replay's draws (repro/core/hippocampus.py, LaneDraws)              */
/* ------------------------------------------------------------------ */

/* Generator.integers(0, size, size=attempts) from a lane's unread raw
 * 32-bit draws (at least attempts of them): Lemire's method, value =
 * (raw * size) >> 32.  Returns 0, having written nothing trustworthy,
 * when some value's low half falls below size: numpy may reject it, so
 * the caller draws that row value by value.  Size 1 reads no raw. */
static int draw_row(const uint32_t *raws, i64 size, i64 attempts,
                    i64 *out)
{
    for (i64 a = 0; a < attempts; a++) {
        uint64_t m;
        if (size == 1) {
            out[a] = 0;
            continue;
        }
        m = (uint64_t)raws[a] * (uint64_t)size;
        if ((m & 0xFFFFFFFFULL) < (uint64_t)size)
            return 0;
        out[a] = (i64)(m >> 32);
    }
    return 1;
}

/* rk_heb_replay's draw alone: row i of values (n, attempts) is lane
 * lanes[i]'s draw of integers(0, sizes[i]) from its raw block (raws +
 * lane * raw_block, unread from at[lane], which the caller has left at
 * least attempts long); at and used advance by the raws it read.  A row
 * that needs numpy's rejection loop reads nothing and is listed in
 * redo.  Returns how many rows it listed. */
i64 rk_lane_draws(const uint32_t *raws, i64 raw_block, i64 *at, i64 *used,
                  const i64 *lanes, const i64 *sizes, i64 n, i64 attempts,
                  i64 *values, i64 *redo)
{
    i64 n_redo = 0;

    for (i64 i = 0; i < n; i++) {
        i64 t = lanes[i];
        if (!draw_row(raws + t * raw_block + at[t], sizes[i], attempts,
                      values + i * attempts)) {
            redo[n_redo++] = i;
            continue;
        }
        if (sizes[i] > 1) {
            at[t] += attempts;
            used[t] += attempts;
        }
    }
    return n_redo;
}

/* EpisodicStore.sample and the training of what it picks, for each lane
 * t = lanes[i] with an episode: CLSFleetGroup._replay
 * (repro/core/cls_fleet.py) through rk_heb_replay, and ReplayScheduler
 * (repro/core/replay.py) on one lane through rk_heb_replay_one.  Lane
 * t's store holds size = min(count[t], cap) episodes, the oldest at
 * column count[t] - size of its ring (a row of the episode slab, cols
 * wide: ep_input / ep_target / ep_phase).  Its draw is row i of values
 * (n, attempts): with draw, rk_lane_draws' (a row that needs the
 * rejection loop is listed in redo and skipped), else as given.  The
 * first per_step draws whose episode is not in phase[i] (any, when
 * phase[i] < 0) are its picks: counted in replayed[t] and listed, lane
 * by lane, as (pick_lane, pick_input, pick_target).  Then, when every
 * pick's classes are in the vocabulary and its input has a context-free
 * code (code_of[input] >= 0, listed in pick_code), the picks train as
 * rk_heb_lanes_train's at lr and the call
 * returns their number; otherwise it trains nothing and returns -1 -
 * that number (the caller finds the codes and trains the list).
 * *n_redo gets redo's length.  With pick_pred, the trained picks'
 * argmaxes go there (lanes_train's preds). */
i64 rk_heb_replay(const rk_heb *h, double *slab, i64 block,
                  const i64 *table, i64 k, const i64 *code_of, i64 punish,
                  double lr, const i64 *lanes, i64 n, const i64 *phase,
                  i64 draw, i64 *values, const uint32_t *raws,
                  i64 raw_block, i64 *at, i64 *used, const i64 *count,
                  i64 cap, i64 cols, const int32_t *ep_input,
                  const int32_t *ep_target, const i64 *ep_phase,
                  i64 attempts, i64 per_step, i64 *replayed,
                  i64 *pick_lane, i64 *pick_input, i64 *pick_target,
                  i64 *pick_code, i64 *pick_pred, i64 *redo, i64 *n_redo)
{
    i64 picks = 0, coded = 1;

    *n_redo = 0;
    for (i64 i = 0; i < n; i++) {
        i64 t = lanes[i];
        i64 size = count[t] < cap ? count[t] : cap;
        i64 first = count[t] - size;
        const i64 *v = values + i * attempts;
        i64 nth = 0;
        if (size <= 0)
            continue;
        if (draw) {
            if (!draw_row(raws + t * raw_block + at[t], size, attempts,
                          values + i * attempts)) {
                redo[(*n_redo)++] = i;
                continue;
            }
            if (size > 1) {
                at[t] += attempts;
                used[t] += attempts;
            }
        }
        for (i64 a = 0; a < attempts && nth < per_step; a++) {
            i64 e = t * cols + (first + v[a]) % cap;
            i64 in, tg;
            if (phase[i] >= 0 && ep_phase[e] == phase[i])
                continue;
            in = ep_input[e];
            tg = ep_target[e];
            pick_lane[picks] = t;
            pick_input[picks] = in;
            pick_target[picks] = tg;
            /* a class outside the vocabulary has no code either: the
             * caller's check names it */
            pick_code[picks] = (in >= 0 && in < h->vocab && tg >= 0
                                && tg < h->vocab) ? code_of[in] : -1;
            coded &= pick_code[picks] >= 0;
            picks++;
            nth++;
        }
        replayed[t] += nth;
    }
    if (!coded)
        return -1 - picks;
    lanes_train(h, slab, block, table, k, punish, pick_lane, pick_code,
                pick_target, 0, lr, picks, pick_pred);
    return picks;
}

/* SparseHebbianNetwork.replay_ring: rk_heb_replay for one lane -- lane
 * 0 of r's draws and store, excluding phase (none below 0) -- trained
 * into the network's own values on its context-free codes (the book's
 * codes and code_of), each trained pick's argmax listed in r->pick_pred.
 * Returns as rk_heb_replay; a draw left to the rejection loop returns 0,
 * having read and trained nothing, with r->n_redo[0] set -- to -1 when
 * the block holds fewer than r->attempts unread raws (the caller refills
 * it and calls again). */
""" + _REPLAY_CONTEXT + r"""
i64 rk_heb_replay_one(const rk_heb *h, const rk_replay *r, i64 phase,
                      i64 draw, double lr)
{
    const i64 lane = 0;

    if (draw && r->at[0] > r->raw_block - r->attempts) {
        r->n_redo[0] = -1;
        return 0;
    }
    return rk_heb_replay(h, h->w, 0, h->book->codes, h->k, h->book->code_of,
                         h->punish, lr, &lane, 1, &phase, draw, r->values,
                         r->raws, 0, r->at, r->used, r->count, r->cap, 0,
                         r->input, r->target, r->phase, r->attempts,
                         r->per_step, r->replayed, r->pick_lane,
                         r->pick_input, r->pick_target, r->pick_code,
                         r->pick_pred, r->redo, r->n_redo);
}

/* ------------------------------------------------------------------ */
/* A CLS miss (repro/core/cls_prefetcher.py)                          */
/* ------------------------------------------------------------------ */

/* CLSPrefetcher.on_miss_fast for a prefetcher whose stages arrays model
 * (arrays_model: a compiled Hebbian network stepped in rollout mode, the
 * delta encoder, no manager, recall memory, batch policy or per-access
 * observer), its stages in their order: observe (the encode, the phase
 * feature, the score and the accuracy EMA, the training decision),
 * remember (the episode into the store's columns), the step, the replay,
 * the gate, the rollout (into the context's own scratch, roll_*) and the
 * decode.  Where a stage meets what the stage's Python code handles, the
 * call returns the code of that sub-step (R_*), having moved nothing the
 * sub-step moves; Python runs it and calls rk_cls_resume at the stage
 * after it (S_*).  Results are left in io (CM_*), fio (CF_*) and pages. */
""" + _CLS_CONTEXT + _CLS_ENUMS + r"""
#define SHIFT_LIMIT 63

/* deltas[c - 1] of a class whose delta int64 cannot hold (a Python miss
 * met it): never matched, never decoded here. */
#define NO_DELTA INT64_MIN

/* Python's x >> s for s >= 0. */
static inline i64 rk_shr(i64 x, i64 s)
{
    return s <= SHIFT_LIMIT ? x >> s : (x < 0 ? -1 : 0);
}

/* DeltaVocabEncoder.observe's class of unit's delta from io[CM_UNIT] (0:
 * out of vocabulary, once every slot is met), the unit and the class into
 * io.  R_NO_CLASS for a collapsed repeat, R_NEW_DELTA for a delta met
 * first, R_HANDBACK where the delta is one int64 cannot hold. */
static i64 cls_encode(const rk_cls *m, i64 *io)
{
    i64 unit = rk_shr(io[CM_ADDRESS], m->shift), delta, c;

    if (m->collapse && unit == io[CM_UNIT])
        return R_NO_CLASS;
    if (__builtin_sub_overflow(unit, io[CM_UNIT], &delta)
        || delta == NO_DELTA)
        return R_HANDBACK;
    for (c = 0; c < m->known; c++)
        if (m->deltas[c] == delta)
            break;
    if (c == m->known) {
        if (m->known < m->limit)
            return R_NEW_DELTA;
        c = -1;
    }
    io[CM_CLASS] = c + 1;
    io[CM_UNIT] = unit;
    return R_DONE;
}

/* Whether cls is in np.argpartition(p, -width)[-width:] (width < n): 1 or
 * 0 where that set does not depend on how the partition orders a tie at
 * its boundary, else -1 (a NaN, or cls's value on the boundary). */
static i64 cls_covered(const double *p, i64 n, i64 cls, i64 width)
{
    double v = p[cls];
    i64 above = 0, level = 0;

    for (i64 c = 0; c < n; c++) {
        if (p[c] != p[c])
            return -1;
        above += p[c] > v;
        level += p[c] == v;
    }
    if (above + level <= width)
        return 1;
    return above >= width ? 0 : -1;
}

/* DeltaVocabEncoder.decode(cls, base): 1 with the address in *out, 0 for
 * None, -1 where Python's address outgrows int64. */
static int cls_decode(const rk_cls *m, i64 cls, i64 base, i64 *out)
{
    i64 unit;

    if (cls < 1 || cls > m->known)
        return 0;
    if (m->deltas[cls - 1] == NO_DELTA
        || __builtin_add_overflow(rk_shr(base, m->shift), m->deltas[cls - 1],
                               &unit))
        return -1;
    if (unit < 0)
        return 0;
    if (m->shift > SHIFT_LIMIT ? unit > 0
        : unit > (INT64_MAX >> m->shift))
        return -1;
    *out = m->shift > SHIFT_LIMIT ? 0 : unit << m->shift;
    return 1;
}

/* CLSPrefetcher._emit's candidate loop over the rollout in roll_*: the
 * min_confidence floor, the out-of-vocabulary and undecodable skips, the
 * dedupe and the top-1 chaining of the base address.  R_DECODE, having
 * moved nothing, where an address outgrows int64. */
static i64 cls_emit(const rk_cls *m, i64 picked)
{
    i64 *io = m->io;
    i64 base = io[CM_ADDRESS], n = 0, suppressed = 0;

    for (i64 s = 0; s < m->length; s++) {
        const i64 *top = m->roll_top + s * picked;
        const double *p = m->roll_p + s * picked;
        i64 address;
        int ok;
        for (i64 j = 0; j < picked; j++) {
            i64 page, seen = 0;
            if (p[j] < m->min_confidence) {
                suppressed++;
                continue;
            }
            if (top[j] == 0)
                continue;
            ok = cls_decode(m, top[j], base, &address);
            if (ok < 0)
                return R_DECODE;
            if (!ok)
                continue;
            page = rk_shr(address, m->page_shift);
            for (i64 q = 0; q < n && !seen; q++)
                seen = m->pages[q] == page;
            if (page != io[CM_PAGE] && !seen)
                m->pages[n++] = page;
        }
        ok = cls_decode(m, top[0], base, &address);
        if (ok < 0)
            return R_DECODE;
        if (!ok)
            break;
        base = address;
    }
    for (i64 j = 0; j < picked; j++)
        io[CM_TOPS + j] = m->memo[j] = m->roll_top[j];
    io[CM_N] = n;
    io[CM_SUPPRESSED] = suppressed;
    io[CM_ROLLED] = 1;
    return R_DONE;
}

static i64 cls_run(const rk_cls *m, const rk_heb *h, const rk_replay *r,
                   i64 stage)
{
    i64 *io = m->io;
    double *fio = m->fio;
    i64 got;

    switch (stage) {
    case S_ENCODE:
        got = cls_encode(m, io);
        if (got != R_DONE)
            return got;
        /* fall through */
    case S_PHASE:
        io[CM_FEATURE] = -1;
        if (io[CM_HINT] >= 0) {
            io[CM_PHASE] = io[CM_HINT];
        } else if (m->window) {
            i64 f = rk_shr(io[CM_ADDRESS], m->region_shift) % m->bins;
            io[CM_FEATURE] = f < 0 ? f + m->bins : f;
            if (io[CM_FILL] + 1 >= m->window)
                return R_WINDOW;
        } else {
            io[CM_PHASE] = -1;
        }
        /* fall through */
    case S_SCORE: {
        i64 cls = io[CM_CLASS];
        fio[CF_CONFIDENCE] = m->probs[cls];
        if (io[CM_MEMO]) {
            i64 picked = m->width < h->vocab ? m->width : h->vocab;
            io[CM_COVERED] = 0;
            for (i64 j = 0; j < picked; j++)
                io[CM_COVERED] |= m->memo[j] == cls;
        } else if (m->width >= h->vocab) {
            io[CM_COVERED] = 1;
        } else {
            io[CM_COVERED] = cls_covered(m->probs, h->vocab, cls, m->width);
            if (io[CM_COVERED] < 0)
                return R_COVER;
        }
    }
        /* fall through */
    case S_EMA:
        fio[CF_EMA] = (1 - m->alpha) * fio[CF_EMA]
                      + m->alpha * (double)io[CM_COVERED];
        if (!m->train_always)
            return R_TRAIN;
        io[CM_TRAIN] = 1;
        /* fall through */
    case S_REMEMBER:
        if (m->store && (!m->below || fio[CF_CONFIDENCE] < m->threshold)) {
            i64 count = *m->ep_count, at = count % m->ep_cap;
            if (count < m->ep_cap && at == m->ep_size)
                return R_STORE;
            m->ep_input[at] = (int32_t)io[CM_PREV];
            m->ep_target[at] = (int32_t)io[CM_CLASS];
            m->ep_phase[at] = io[CM_PHASE];
            m->ep_confidence[at] = fio[CF_CONFIDENCE];
            m->ep_timestamp[at] = io[CM_TIME];
            *m->ep_count = count + 1;
        }
        /* fall through */
    case S_STEP:
        io[CM_LEARNED] = io[CM_TRAIN] && io[CM_CODE] >= 0;
        got = rk_heb_step(h, io[CM_CODE], io[CM_CLASS], io[CM_PRED], m->lr,
                          io[CM_LEARNED]);
        if (got == -1)
            return R_LINK;
        if (got < 0)
            return R_BAD_PRED;
        memcpy(m->probs, h->x, (size_t)h->vocab * sizeof(double));
        io[CM_CODE] = got;
        io[CM_STEPPED] = 1;
        io[CM_BEST] = h->state[ST_BEST];
        io[CM_REPLAYED] = -1;
        /* fall through */
    case S_REPLAY:
        if (io[CM_TRAIN] && m->replay) {
            io[CM_REPLAYED] = rk_heb_replay_one(h, r, io[CM_PHASE],
                                                io[CM_DRAW], m->replay_lr);
            if (io[CM_REPLAYED] < 0)
                return R_REPLAY_CODES;
            if (!io[CM_REPLAYED] && r->n_redo[0])
                return R_REDRAW;
        }
        /* fall through */
    case S_GATE:
        io[CM_N] = io[CM_SUPPRESSED] = io[CM_ROLLED] = 0;
        if (m->min_accuracy > 0 && fio[CF_EMA] < m->min_accuracy) {
            io[CM_SUPPRESSED] = 1;
            return R_DONE;
        }
        io[CM_STEPS] = 0;
        io[CM_ROLL_CODE] = io[CM_CODE];
        io[CM_ROLL_CLASS] = -1;
        /* fall through */
    case S_ROLL: {
        /* from step io[CM_STEPS] on: the first from the scored row (now
         * the step's), a later one after moving from io[CM_ROLL_CODE] on
         * io[CM_ROLL_CLASS] */
        i64 picked = m->width < h->vocab ? m->width : h->vocab;
        i64 at = io[CM_STEPS] * picked;
        i64 left = m->length - io[CM_STEPS];
        io[CM_STEPS] += heb_rollout_into(
            h, m->probs, io[CM_ROLL_CODE], io[CM_ROLL_CLASS], m->width, left,
            m->roll_top + at, m->roll_p + at, left * picked);
        if (io[CM_STEPS] < m->length) {
            io[CM_ROLL_CODE] = h->state[ST_CODE];
            io[CM_ROLL_CLASS] = h->state[ST_CLASS];
            return io[CM_ROLL_CLASS] < 0 ? R_TIE : R_UNMET;
        }
    }
        /* fall through */
    case S_DECODE:
        return cls_emit(m, m->width < h->vocab ? m->width : h->vocab);
    default:
        return R_HANDBACK;
    }
}

/* One miss at address (its page, its timestamp) from the stages' state:
 * the encoder's last unit, the last class, whether the memo holds the
 * scored row's top classes, the phase hint (-1: none), the detector's
 * open features and phase, the network's last code and argmax (-1: none)
 * and the accuracy EMA.  m->probs holds the scored row. */
i64 rk_cls_miss(const rk_cls *m, const rk_heb *h, const rk_replay *r,
                i64 address, i64 page, i64 time, i64 unit, i64 prev,
                i64 memo, i64 hint, i64 fill, i64 phase, i64 code, i64 pred,
                double ema)
{
    i64 *io = m->io;

    io[CM_ADDRESS] = address;
    io[CM_PAGE] = page;
    io[CM_TIME] = time;
    io[CM_UNIT] = unit;
    io[CM_PREV] = prev;
    io[CM_MEMO] = memo;
    io[CM_HINT] = hint;
    io[CM_FILL] = fill;
    io[CM_PHASE] = phase;
    io[CM_CODE] = code;
    io[CM_PRED] = pred;
    io[CM_DRAW] = 1;
    io[CM_STEPPED] = 0;
    m->fio[CF_EMA] = ema;
    return cls_run(m, h, r, S_ENCODE);
}

/* The same miss again from stage, after the sub-step before it. */
i64 rk_cls_resume(const rk_cls *m, const rk_heb *h, const rk_replay *r,
                  i64 stage)
{
    return cls_run(m, h, r, stage);
}
"""

_CDEF = """
long long rk_first_nonresident(const long long *soc, const long long *cids,
                               long long start, long long stop);
long long rk_miss_run_length(const long long *soc, const long long *cids,
                             long long start, long long limit,
                             long long *scratch, long long stamp);
""" + _SIM_CONTEXT + """
long long rk_sim_run(const rk_sim *s, long long start, long long stop,
                     long long n_issue);
void rk_sim_lanes(const rk_sim *sims, const long long *lanes,
                  long long n_lanes, long long *pos, const long long *stop,
                  const long long *n_issue);
""" + _BOOK + _HEB_CONTEXT + """
long long rk_ufunc_loop(intptr_t ufunc, long long nin, void **loop);
void rk_heb_exp(const rk_heb *h, double *x, long long n);
double rk_heb_max(const rk_heb *h, const double *x, long long n);
long long rk_book_link(rk_book *b, long long vocab, long long code,
                       long long cls, long long next);
long long rk_heb_step(const rk_heb *h, long long prev, long long input,
                      long long predicted, double lr, long long learn);
long long rk_heb_rollout(const rk_heb *h, const double *probs,
                         long long code, long long cls, long long width,
                         long long length);
long long rk_heb_learn_class(const rk_heb *h, long long input,
                             long long target, long long predicted,
                             double lr);
long long rk_heb_finite(const rk_heb *h);
void rk_heb_lanes_step(const rk_heb *h, double *slab, long long block,
                       const long long *table, long long k,
                       const long long *lanes, long long n,
                       const long long *classes, const unsigned char *train,
                       double lr, long long punish, const long long *next,
                       double *x, long long *prev_code, long long *prev_pred,
                       long long *steps);
void rk_heb_lanes_scores(const rk_heb *h, const double *slab,
                         long long block, const long long *table,
                         long long k, const long long *lanes, long long n,
                         const long long *next, double *x);
void rk_heb_finish_rows(const rk_heb *h, double *x, long long n,
                        double *store, const long long *lanes);
void rk_heb_lanes_train(const rk_heb *h, double *slab, long long block,
                        const long long *table, long long k, long long punish,
                        const long long *lanes, const long long *codes,
                        const long long *targets, const double *lrs,
                        long long n);
long long rk_lane_draws(const uint32_t *raws, long long raw_block,
                        long long *at, long long *used,
                        const long long *lanes, const long long *sizes,
                        long long n, long long attempts, long long *values,
                        long long *redo);
long long rk_heb_replay(const rk_heb *h, double *slab, long long block,
                        const long long *table, long long k,
                        const long long *code_of, long long punish,
                        double lr, const long long *lanes, long long n,
                        const long long *phase, long long draw,
                        long long *values, const uint32_t *raws,
                        long long raw_block, long long *at, long long *used,
                        const long long *count, long long cap, long long cols,
                        const int32_t *ep_input, const int32_t *ep_target,
                        const long long *ep_phase, long long attempts,
                        long long per_step, long long *replayed,
                        long long *pick_lane, long long *pick_input,
                        long long *pick_target, long long *pick_code,
                        long long *pick_pred, long long *redo,
                        long long *n_redo);
""" + _REPLAY_CONTEXT + """
long long rk_heb_replay_one(const rk_heb *h, const rk_replay *r,
                            long long phase, long long draw, double lr);
""" + _CLS_CONTEXT + """
long long rk_cls_miss(const rk_cls *m, const rk_heb *h, const rk_replay *r,
                      long long address, long long page, long long time,
                      long long unit, long long prev, long long memo,
                      long long hint, long long fill, long long phase,
                      long long code, long long pred, double ema);
long long rk_cls_resume(const rk_cls *m, const rk_heb *h,
                        const rk_replay *r, long long stage);
"""

#: ``-fno-fast-math`` and ``-ffp-contract=off`` are load-bearing for the
#: Hebbian kernels: they keep every float sum in numpy's order (no
#: reassociation) and every multiply-add rounded twice (no FMA
#: contraction).  ``-falign-functions=64`` starts every kernel on a cache
#: line, so a kernel's speed does not move with the size of the code
#: compiled before it (``rk_sim_run`` lost about 5 % on ``sim-classic``
#: to a 32-byte shift).  ``-D_CFFI_NO_LIMITED_API`` keeps cffi's wrappers
#: off Python's limited API, which numpy's ``ufuncobject.h`` does not
#: compile under.  Part of the ``.so`` cache key, so editing them
#: rebuilds.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off",
           "-falign-functions=64", "-D_CFFI_NO_LIMITED_API")

#: The extension's module name.  Fixed, so the init symbol cffi emits
#: (``PyInit__reprokernels``) does not depend on the cache file's name.
_MODULE = "_reprokernels"

_ffi: Any | None = None
_lib: Any | None = None
_load_failed = False
#: The ``rk_heb`` fields ``exp_loop``, ``exp_data``, ``max_loop`` and
#: ``max_data``: numpy's float64 loops as kernel pointers, found and
#: checked at load (:func:`_bind_loops`); every context holds them.
_loops: dict[str, Any] | None = None

#: The ufuncs whose float64 loops the kernels call for ``exp`` and for
#: the max that shifts a row holding a NaN.
_EXP_UFUNC = np.exp
_MAX_UFUNC = np.maximum


def _build_dir() -> Path:
    return Path(__file__).resolve().parent / "_build"


def _include_dirs() -> list[str]:
    """Where the interpreter's ``Python.h`` and ``pyconfig.h`` are, and
    numpy's ``ufuncobject.h``."""
    paths = sysconfig.get_paths()
    return list(dict.fromkeys((paths["include"], paths["platinclude"],
                               np.get_include())))


def _so_path() -> Path:
    """Cache path of the extension: keyed on everything that shapes it —
    the source and its declarations, the flags, the interpreter's
    extension ABI, the cffi that writes the wrappers and the numpy whose
    ``PyUFuncObject`` layout is compiled in."""
    from _cffi_backend import __version__ as cffi_version

    key = "\0".join((_SOURCE, _CDEF, " ".join(_CFLAGS),
                     str(sysconfig.get_config_var("EXT_SUFFIX")),
                     cffi_version, np.__version__))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return _build_dir() / f"reprokernels-{digest}.so"


def _compile(out: Path) -> bool:
    """Build the extension into ``out``; False when anything fails."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return False
    try:
        from cffi import FFI, CDefError, VerificationError
    except ImportError:
        return False
    src_name = so_name = None
    try:
        ffi = FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(_MODULE, _SOURCE, compiler_verbose=0)
        out.parent.mkdir(parents=True, exist_ok=True)
        fd, src_name = tempfile.mkstemp(suffix=".c", dir=out.parent)
        os.close(fd)
        ffi.emit_c_code(src_name)
        fd, so_name = tempfile.mkstemp(suffix=".so.tmp", dir=out.parent)
        os.close(fd)
        includes = [f"-I{path}" for path in _include_dirs()]
        proc = subprocess.run([cc, *_CFLAGS, *includes, "-o", so_name,
                               src_name],
                              capture_output=True, timeout=120, check=False)
        if proc.returncode != 0:
            return False
        # Atomic publish: concurrent processes race to an identical file.
        os.replace(so_name, out)
        so_name = None
        return True
    except (OSError, subprocess.SubprocessError, CDefError,
            VerificationError):
        return False
    finally:
        for leftover in (src_name, so_name):
            if leftover is not None:
                with suppress(OSError):
                    os.unlink(leftover)


def _import(path: Path) -> tuple[Any, Any] | None:
    """The extension at ``path`` as ``(ffi, lib)``, or None when it does
    not load."""
    loader = ExtensionFileLoader(_MODULE, str(path))
    try:
        module = module_from_spec(ModuleSpec(_MODULE, loader,
                                             origin=str(path)))
        loader.exec_module(module)
        return module.ffi, module.lib
    except (ImportError, AttributeError):  # not a loadable _reprokernels
        return None


def _load() -> tuple[Any, Any] | None:  # repro-lint: zone=init
    """(ffi, lib) or None; compile, load and exp-loop failures latch to
    unavailable.

    A cached extension that exists but cannot be loaded (truncated, or
    built by another container's toolchain — ``_build/`` lives in the
    source tree) is recompiled over once before latching; otherwise the
    bad file would silently pin every later process to numpy.
    """
    global _ffi, _lib, _load_failed, _loops
    if _lib is not None:
        return _ffi, _lib
    if _load_failed:
        return None
    try:
        out = _so_path()
    except ImportError:  # no cffi
        _load_failed = True
        return None
    loaded = _import(out) if out.exists() else None
    if loaded is None and _compile(out):
        loaded = _import(out)
    loops = None if loaded is None else _bind_loops(*loaded)
    if loops is None:
        _load_failed = True
        return None
    _ffi, _lib = loaded
    _loops = loops
    return loaded


def _probe_rows() -> np.ndarray:
    """The rows :func:`_bind_loops` checks the loops on: every length
    class of a loop's vector body and tail, magnitudes to the overflow
    and underflow edges, the special values and NaNs of either sign and
    with payloads."""
    rng = np.random.default_rng(0)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF8000000000123, 0xFFF8000000000456],
                    dtype=np.uint64).view(np.float64)
    return np.concatenate([
        np.linspace(-750.0, 712.0, 997),
        rng.standard_normal(1000) * rng.uniform(0.0, 60.0, 1000),
        [-np.inf, np.inf, 0.0, -0.0, 5e-324, -1e-310, 709.78, -708.4,
         -745.2], nans, rng.standard_normal(7), nans[::-1]])


def _bind_loops(ffi: Any, lib: Any) -> dict[str, Any] | None:
    """:data:`_EXP_UFUNC`'s and :data:`_MAX_UFUNC`'s float64 inner
    loops, read from their ``PyUFuncObject``, as the ``rk_heb`` fields
    that hold them — or None when one has none, or when, called as the
    kernels call them, they do not reproduce ``np.exp`` and ``x.max()``
    bit for bit on :func:`_probe_rows` (every length up to 33 and the
    whole row)."""
    loops: dict[str, Any] = {}
    for name, ufunc, nin in (("exp", _EXP_UFUNC, 1), ("max", _MAX_UFUNC, 2)):
        loop = ffi.new("void *[2]")
        if not lib.rk_ufunc_loop(id(ufunc), nin, loop):
            return None
        loops[f"{name}_loop"], loops[f"{name}_data"] = loop[0], loop[1]
    ctx = ffi.new("rk_heb *")
    for name, value in loops.items():
        setattr(ctx, name, value)
    probe = _probe_rows()
    for n in (*range(1, 34), probe.size):
        row = probe[-n:].copy()
        with np.errstate(all="ignore"):
            want = np.array([row.max(), *np.exp(row)])
        top = lib.rk_heb_max(ctx, ffi.from_buffer("double[]", row), n)
        lib.rk_heb_exp(ctx, ffi.from_buffer("double[]", row), n)
        if np.array([top, *row]).tobytes() != want.tobytes():
            return None
    return loops


def available() -> bool:
    return _load() is not None


def _loaded() -> tuple[Any, Any]:
    loaded = _load()
    if loaded is None:
        raise RuntimeError("C backend is not available")
    return loaded


def _i64(ffi: Any, arr: np.ndarray) -> Any:
    return ffi.from_buffer("long long[]", arr)


class CSimKernels:
    """Simulator kernel bundle.

    ``first_nonresident``/``miss_run_length`` are plain calls (used by
    ``PageCache`` when kernels are attached); the lane store
    (``memsim/lanes.py``) runs the ``rk_sim`` contexts of
    :meth:`sim_lanes` — ``simulate()``'s engine is a store of one.
    """

    name = "c"

    def __init__(self, ffi: Any, lib: Any) -> None:
        self._ffi = ffi
        self._lib = lib

    def first_nonresident(self, soc: np.ndarray, cids: np.ndarray,
                          start: int, stop: int) -> int:
        ffi = self._ffi
        return int(self._lib.rk_first_nonresident(
            _i64(ffi, soc), _i64(ffi, cids), start, stop))

    def miss_run_length(self, soc: np.ndarray, cids: np.ndarray, start: int,
                        limit: int, scratch: np.ndarray, stamp: int) -> int:
        ffi = self._ffi
        return int(self._lib.rk_miss_run_length(
            _i64(ffi, soc), _i64(ffi, cids), start, limit,
            _i64(ffi, scratch), stamp))

    def sim_lanes(self, width: int) -> "CSimLanes":
        """``width`` ``rk_sim`` contexts, run a round at a time."""
        return CSimLanes(self._ffi, self._lib, width)


class CSimLanes:
    """``rk_sim`` contexts, one per lane slot, and the round that runs them.

    The contexts are one C array, viewed as an int64 table with a row per
    slot and a column per field (every field of ``rk_sim`` is a pointer or
    a ``long long``), so binding a field for a batch of slots is one numpy
    write: :meth:`point` aims fields at rows of 2-D arrays, :meth:`set`
    writes a setting.  The contexts hold raw addresses: the caller keeps
    every array it pointed at alive, and points the field again after
    replacing one.
    """

    def __init__(self, ffi: Any, lib: Any, width: int) -> None:
        fields = ffi.typeof("rk_sim").fields
        if ffi.sizeof("rk_sim") != 8 * len(fields):
            raise RuntimeError("rk_sim's fields are not all 8 bytes wide")
        self._ffi = ffi
        self._lib = lib
        self._sims = ffi.new("rk_sim[]", width)
        self._table = np.frombuffer(ffi.buffer(self._sims), dtype=np.int64
                                    ).reshape(width, len(fields))
        self._column = {name: field.offset // 8 for name, field in fields}
        self._run = partial(lib.rk_sim_lanes, self._sims)

    def point(self, arrays: dict[str, np.ndarray], lanes: np.ndarray,
              rows: np.ndarray) -> None:
        """Field ``name`` of slot ``lanes[k]`` is row ``rows[k]`` of the
        C-contiguous 2-D ``arrays[name]``, for every name."""
        assert all(array.flags.c_contiguous for array in arrays.values())
        ffi = self._ffi
        bases = [int(ffi.cast("intptr_t", ffi.from_buffer(array)))
                 for array in arrays.values()]
        strides = [array.strides[0] for array in arrays.values()]
        self._table[lanes[:, None], [self._column[n] for n in arrays]] = (
            bases + rows[:, None] * strides)

    def set(self, name: str, lanes: np.ndarray, values: Any) -> None:
        """Setting ``name`` of slots ``lanes``."""
        self._table[lanes, self._column[name]] = values

    def run(self, lanes: np.ndarray, pos: np.ndarray, stop: np.ndarray,
            n_issue: np.ndarray) -> None:
        """One round of ``rk_sim_lanes`` over slots ``lanes`` (int64)."""
        ffi = self._ffi
        self._run(_i64(ffi, lanes), lanes.size, _i64(ffi, pos),
                  _i64(ffi, stop), _i64(ffi, n_issue))

    def runner(self, lane: int) -> Callable[[int, int, int], int]:
        """``rk_sim_run`` on slot ``lane``'s context, called with
        ``(start, stop, n_issue)``."""
        return partial(self._lib.rk_sim_run, self._sims + lane)


#: Rollout steps one ``rk_heb_rollout`` call has room for at full width.
_ROLL_STEPS = 4


def _heb_context(ffi: Any, tables: dict[str, Any], w: np.ndarray | None,
                 settings: dict[str, float]
                 ) -> tuple[Any, list[Any], dict[str, np.ndarray]]:
    """An ``rk_heb`` context over ``tables`` and value vector ``w`` (None:
    NULL, for the lane entries, which take the slab per call), with
    numpy's exp loop and its own scratch.  Returns the context, what
    keeps its buffers alive, and the scratch as numpy arrays by field
    name."""
    assert _loops is not None
    vocab, hidden = int(settings["vocab"]), int(settings["hidden"])
    roll_cap = _ROLL_STEPS * vocab
    scratch = {"x": np.zeros(vocab), "roll_p": np.zeros(roll_cap),
               "top": np.zeros(vocab, dtype=np.int64),
               "roll_top": np.zeros(roll_cap, dtype=np.int64),
               "punished": np.zeros(hidden, dtype=np.int64),
               "state": np.zeros(4, dtype=np.int64),
               "mark": np.zeros(hidden, dtype=np.uint8)}
    ctx = ffi.new("rk_heb *")
    keep: list[Any] = [ctx, tables]
    for name, value in tables.items():
        setattr(ctx, name, value)
    buffers = dict(scratch) if w is None else {"w": w, **scratch}
    for name, arr in buffers.items():
        keep.append(_buffer(ffi, arr))
        setattr(ctx, name, keep[-1])
    for name, value in _loops.items():
        setattr(ctx, name, value)
    ctx.roll_cap = roll_cap
    for name, value in settings.items():
        setattr(ctx, name, value)
    return ctx, keep, scratch


class CHebbian:
    """The Hebbian kernels bound to one network (see :func:`bind_hebbian`).

    ``step(prev, input, predicted, lr, learn)``, ``rollout(probs, code,
    cls, width, length)``, ``learn_class(input, target, predicted, lr)``
    and ``finite()`` call ``rk_heb_step`` / ``rk_heb_rollout`` /
    ``rk_heb_learn_class`` / ``rk_heb_finite`` on the bound context, and ``replay(ring, phase,
    draw, lr)`` ``rk_heb_replay_one`` with a :class:`CReplay`'s ``ctx``;
    codes are ids of the bound :class:`CBook`, and a probability row is
    passed as :meth:`row` of it (``no_row``: none).  The context's
    scratch is exposed as numpy arrays — ``x`` (the last probabilities
    it made), ``punished`` (the punish term's slots) and ``state`` (the
    slots punished, the step's argmax, and the row and class a rollout
    stopped at) — and as memoryviews, ``roll_top`` / ``roll_p`` (the
    rollout's steps, ``picked`` entries each).
    """

    __slots__ = ("ctx", "x", "roll_top", "roll_p", "punished", "state",
                 "step", "rollout", "learn_class", "finite", "replay",
                 "row", "no_row", "_keep")

    def __init__(self, ffi: Any, lib: Any, tables: dict[str, Any],
                 w: np.ndarray, **settings: float) -> None:
        ctx, self._keep, scratch = _heb_context(ffi, tables, w, settings)
        self.ctx = ctx
        self.x = scratch["x"]
        self.roll_top = memoryview(scratch["roll_top"])
        self.roll_p = memoryview(scratch["roll_p"])
        self.punished = scratch["punished"]
        self.state = scratch["state"]
        self.step = partial(lib.rk_heb_step, ctx)
        self.rollout = partial(lib.rk_heb_rollout, ctx)
        self.learn_class = partial(lib.rk_heb_learn_class, ctx)
        self.finite = partial(lib.rk_heb_finite, ctx)
        self.replay = partial(lib.rk_heb_replay_one, ctx)
        self.row = partial(ffi.from_buffer, "double[]")
        self.no_row = ffi.NULL


class CBook:
    """``rk_book``: a network shape's hidden codes by id as the kernels
    read them, shared by every context bound over the shape's tables
    (see :func:`code_book`).  ``struct`` is what :func:`hebbian_tables`
    takes as ``book``; the arrays stay the caller's — it writes
    ``code_of`` itself, points :meth:`point_codes` at each new code
    table and :meth:`point_links` at the transition table before the
    first :meth:`link`."""

    __slots__ = ("struct", "_ffi", "_lib", "_keep", "_codes", "_links")

    def __init__(self, ffi: Any, lib: Any, code_of: np.ndarray) -> None:
        self._ffi = ffi
        self._lib = lib
        self.struct = ffi.new("rk_book *")
        self._keep = _buffer(ffi, code_of)
        self.struct.code_of = self._keep
        self._codes: Any = None
        self._links: list[Any] = []

    def point_codes(self, codes: np.ndarray) -> None:
        """Read code rows from ``codes`` (``(rows, k)`` int64) from now on."""
        self._codes = _buffer(self._ffi, codes)
        self.struct.codes = self._codes

    def point_links(self, keys: np.ndarray, next_: np.ndarray) -> None:
        """Keep transitions in ``keys`` / ``next_`` (int64, a power of two
        slots, ``keys`` all -1) from now on, none recorded yet."""
        assert keys.size & (keys.size - 1) == 0 and keys.size == next_.size
        self._links = [_buffer(self._ffi, arr) for arr in (keys, next_)]
        self.struct.links = 0
        self.struct.keys, self.struct.next = self._links
        self.struct.mask = keys.size - 1

    def link(self, vocab: int, code: int, cls: int, next_: int) -> bool:
        """``rk_book_link``: ``next_`` follows ``code`` on ``cls``.  False,
        having recorded nothing, when the table is half full."""
        return bool(self._lib.rk_book_link(self.struct, vocab, code, cls,
                                           next_))

    def forget_links(self) -> None:
        """Mark every transition slot free again (the caller refills
        ``keys`` with -1)."""
        self.struct.links = 0


class CHebbianLanes:
    """The Hebbian kernels' lane loops for one fleet (see
    :func:`bind_hebbian_lanes`): each method is one ``rk_heb_lanes_*`` /
    ``rk_heb_finish_rows`` / ``rk_heb_replay`` call over the fleet's
    arrays, passed per call (the slab and the code table are reallocated
    as the fleet grows).  Every array is C-contiguous and of the kernel's
    type: int64 indices, float64 values, bool flags, the code table as
    ``(codes, k)`` rows, the slab as ``(lanes, block)`` rows."""

    __slots__ = ("_ctx", "_keep", "_lib", "_buf")

    def __init__(self, ffi: Any, lib: Any, tables: dict[str, Any],
                 **settings: float) -> None:
        self._ctx, self._keep, _ = _heb_context(ffi, tables, None, settings)
        self._lib = lib
        self._buf = partial(_buffer, ffi)

    def step(self, slab: np.ndarray, table: np.ndarray, lanes: np.ndarray,
             classes: np.ndarray, train: np.ndarray, lr: float,
             punish: bool, codes: np.ndarray, x: np.ndarray,
             prev_code: np.ndarray, prev_pred: np.ndarray,
             steps: np.ndarray) -> None:
        """``rk_heb_lanes_step``: learn where due, read out ``codes``
        into ``x``, advance the lanes' last code and argmax."""
        b = self._buf
        self._lib.rk_heb_lanes_step(
            self._ctx, b(slab), slab.shape[1], b(table), table.shape[1],
            b(lanes), lanes.size, b(classes), b(train), lr, punish,
            b(codes), b(x), b(prev_code), b(prev_pred), b(steps))

    def scores(self, slab: np.ndarray, table: np.ndarray,
               lanes: np.ndarray, codes: np.ndarray, x: np.ndarray) -> None:
        """``rk_heb_lanes_scores``: lane ``lanes[i]``'s shifted scores of
        code ``codes[i]`` into row ``i`` of ``x``."""
        b = self._buf
        self._lib.rk_heb_lanes_scores(
            self._ctx, b(slab), slab.shape[1], b(table), table.shape[1],
            b(lanes), lanes.size, b(codes), b(x))

    def finish_rows(self, x: np.ndarray, store: np.ndarray | None = None,
                    lanes: np.ndarray | None = None) -> None:
        """``rk_heb_finish_rows``: normalise the rows of ``x`` in place
        and copy row ``i`` to row ``lanes[i]`` of ``store`` (given)."""
        b = self._buf
        self._lib.rk_heb_finish_rows(self._ctx, b(x), len(x), b(store),
                                     b(lanes))

    def train(self, slab: np.ndarray, table: np.ndarray, punish: bool,
              lanes: np.ndarray, codes: np.ndarray, targets: np.ndarray,
              lrs: np.ndarray) -> None:
        """``rk_heb_lanes_train``: pair ``i`` in order, lane ``lanes[i]``
        learning ``targets[i]`` from code ``codes[i]`` at ``lrs[i]``."""
        b = self._buf
        self._lib.rk_heb_lanes_train(
            self._ctx, b(slab), slab.shape[1], b(table), table.shape[1],
            punish, b(lanes), b(codes), b(targets), b(lrs), lanes.size)

    def replay(self, slab: np.ndarray, table: np.ndarray,
               code_of: np.ndarray, punish: bool, lr: float,
               lanes: np.ndarray, phase: np.ndarray, values: np.ndarray,
               draws: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
               episodes: tuple[np.ndarray, int, np.ndarray, np.ndarray,
                               np.ndarray],
               per_step: int, replayed: np.ndarray, picks: np.ndarray
               ) -> tuple[int, np.ndarray]:
        """``rk_heb_replay``: draw (from ``draws`` — LaneDraws' raw
        blocks, unread positions and counts — or, with ``draws`` None,
        as ``values`` holds them), pick and train.  ``episodes`` is
        ``(count, cap, input, target, phase)``; ``picks`` a ``(4,
        lanes * per_step)`` scratch for the pick columns.  Returns the
        kernel's result and the rows it left to the rejection loop."""
        b = self._buf
        count, cap, ep_input, ep_target, ep_phase = episodes
        raws, at, used = (None, None, None) if draws is None else draws
        redo = np.empty(lanes.size, dtype=np.int64)
        n_redo = np.zeros(1, dtype=np.int64)
        got = self._lib.rk_heb_replay(
            self._ctx, b(slab), slab.shape[1], b(table), table.shape[1],
            b(code_of), punish, lr, b(lanes), lanes.size, b(phase),
            draws is not None, b(values), b(raws),
            0 if raws is None else raws.shape[1], b(at),
            b(used), b(count), cap, ep_input.shape[1], b(ep_input),
            b(ep_target), b(ep_phase), values.shape[1], per_step,
            b(replayed), b(picks[0]), b(picks[1]), b(picks[2]),
            b(picks[3]), b(None), b(redo), b(n_redo))
        return int(got), redo[:int(n_redo[0])]


class CReplay:
    """``rk_heb_replay_one``'s context over one store's columns and one
    draw lane (see :func:`bind_replay`).  ``ctx`` is what
    ``CHebbian.replay`` takes; ``values`` (the draw), ``picks`` (``(5,
    per_step)``: each pick's lane, input, target, code and argmax) and
    ``n_redo`` are its scratch as numpy arrays.  The context holds raw
    addresses: :meth:`point` aims it at the store's columns again once
    they are reallocated (``columns`` is the input column it holds)."""

    __slots__ = ("ctx", "values", "picks", "n_redo", "columns", "_ffi",
                 "_keep", "_held")

    def __init__(self, ffi: Any, draws: tuple[np.ndarray, ...],
                 count: np.ndarray, cap: int, attempts: int,
                 per_step: int) -> None:
        self._ffi = ffi
        self.ctx = ffi.new("rk_replay *")
        self.values = np.zeros(attempts, dtype=np.int64)
        self.picks = np.zeros((5, per_step), dtype=np.int64)
        self.n_redo = np.zeros(1, dtype=np.int64)
        raws, at, used = draws
        arrays = {"raws": raws, "at": at, "used": used, "count": count,
                  "values": self.values,
                  "replayed": np.zeros(1, dtype=np.int64),
                  "pick_lane": self.picks[0], "pick_input": self.picks[1],
                  "pick_target": self.picks[2], "pick_code": self.picks[3],
                  "pick_pred": self.picks[4],
                  "redo": np.zeros(1, dtype=np.int64), "n_redo": self.n_redo}
        self._keep: list[Any] = [arrays]
        for name, arr in arrays.items():
            self._keep.append(_buffer(ffi, arr))
            setattr(self.ctx, name, self._keep[-1])
        self.ctx.raw_block = raws.shape[1]
        self.ctx.cap = cap
        self.ctx.attempts = attempts
        self.ctx.per_step = per_step
        self.columns: np.ndarray | None = None
        self._held: list[Any] = []

    def point(self, inputs: np.ndarray, targets: np.ndarray,
              phases: np.ndarray) -> None:
        """Read the store from these columns (int32, int32, int64)."""
        ffi = self._ffi
        self._held = [inputs, targets, phases,
                      *(_buffer(ffi, arr) for arr in (inputs, targets,
                                                      phases))]
        self.ctx.input, self.ctx.target, self.ctx.phase = self._held[3:]
        self.columns = inputs


#: The kernel's ``NO_DELTA``: a delta int64 cannot hold.
_NO_DELTA = -2**63


def _int64_delta(delta: int) -> int:
    return delta if _NO_DELTA < delta < 2**63 else _NO_DELTA


class CClsMiss:
    """``rk_cls_miss``'s context for one prefetcher (see
    :func:`bind_cls_miss`), over its network's :class:`CHebbian` and its
    replay's :class:`CReplay` (None: no replay).  ``run(address, page,
    time, unit, prev, memo, hint, fill, phase, code, pred, ema)`` calls
    ``rk_cls_miss`` and ``resume(stage)`` ``rk_cls_resume``; each returns
    a code, an index into :data:`CM_CODES`.  The context's arrays: ``io``
    (:data:`CM_SLOTS`, then the memo's classes), ``fio``
    (:data:`CF_SLOTS`), ``probs`` (the scored row), ``memo`` (its top
    classes), ``deltas`` (the encoder's vocabulary, :meth:`learn`),
    ``pages`` and the rollout's steps, ``roll_top`` / ``roll_p``
    (``picked`` entries each).  It holds raw addresses: :meth:`point_store` aims it at a
    store's columns again once they are reallocated."""

    __slots__ = ("ctx", "io", "fio", "probs", "memo", "deltas", "pages",
                 "roll_top", "roll_p", "run", "resume", "_ffi", "_keep",
                 "_held")

    def __init__(self, ffi: Any, lib: Any, heb: CHebbian,
                 ring: CReplay | None, limit: int, picked: int,
                 **settings: float) -> None:
        self._ffi = ffi
        self.ctx = ffi.new("rk_cls *")
        self.io = np.zeros(len(CM_SLOTS) - 1 + picked, dtype=np.int64)
        self.fio = np.zeros(len(CF_SLOTS))
        self.probs = np.zeros(heb.x.size)
        self.memo = np.zeros(picked, dtype=np.int64)
        self.deltas = np.zeros(limit, dtype=np.int64)
        steps = int(settings["length"]) * picked
        self.pages = np.zeros(steps, dtype=np.int64)
        self.roll_top = np.zeros(steps, dtype=np.int64)
        self.roll_p = np.zeros(steps)
        arrays = {"io": self.io, "fio": self.fio, "probs": self.probs,
                  "memo": self.memo, "deltas": self.deltas,
                  "pages": self.pages, "roll_top": self.roll_top,
                  "roll_p": self.roll_p}
        self._keep: list[Any] = [arrays, heb, ring]
        for name, arr in arrays.items():
            self._keep.append(_buffer(ffi, arr))
            setattr(self.ctx, name, self._keep[-1])
        self.ctx.limit = limit
        for name, value in settings.items():
            setattr(self.ctx, name, value)
        replay = ffi.NULL if ring is None else ring.ctx
        self.run = partial(lib.rk_cls_miss, self.ctx, heb.ctx, replay)
        self.resume = partial(lib.rk_cls_resume, self.ctx, heb.ctx, replay)
        self._held: list[Any] = []

    def learn(self, deltas: list[int]) -> None:
        """Take the encoder's vocabulary: class ``c``'s delta at
        ``deltas[c - 1]`` (one int64 cannot hold as ``NO_DELTA``, the
        kernel's mark for a class it leaves to Python)."""
        self.deltas[:len(deltas)] = [_int64_delta(d) for d in deltas]
        self.ctx.known = len(deltas)

    def learn_one(self, delta: int) -> None:
        """Take the delta the encoder met next."""
        self.deltas[self.ctx.known] = _int64_delta(delta)
        self.ctx.known += 1

    def point_store(self, count: np.ndarray, cap: int,
                    columns: tuple[np.ndarray, ...]) -> None:
        """Append episodes to a store that has written ``count[0]`` into a
        ring of ``cap``, in ``columns`` (``EPISODE_COLUMNS``' order and
        dtypes: int32, int32, int64, float64, int64)."""
        ffi, ctx = self._ffi, self.ctx
        self._held = [count, *columns,
                      *(_buffer(ffi, arr) for arr in (count, *columns))]
        (ctx.ep_count, ctx.ep_input, ctx.ep_target, ctx.ep_phase,
         ctx.ep_confidence, ctx.ep_timestamp) = self._held[6:]
        ctx.ep_cap = cap
        ctx.ep_size = columns[0].size
        ctx.store = 1


#: The kernel pointer type of each array dtype the kernels take.
_CTYPES = {"d": "double[]", "q": "long long[]", "l": "long long[]",
           "B": "unsigned char[]", "?": "unsigned char[]",
           "I": "uint32_t[]", "i": "int32_t[]"}


def _buffer(ffi: Any, arr: np.ndarray | None) -> Any:
    """A kernel pointer to ``arr``'s data (C-contiguous, one of
    ``_CTYPES``' dtypes; a bool array is passed as bytes), NULL for
    None."""
    if arr is None:
        return ffi.NULL
    return ffi.from_buffer(_CTYPES[arr.dtype.char], arr)


def lane_draws(raws: np.ndarray, at: np.ndarray, used: np.ndarray,
               lanes: np.ndarray, sizes: np.ndarray,
               values: np.ndarray) -> np.ndarray:
    """``rk_lane_draws`` into ``values`` (``(lanes, attempts)``); returns
    the rows it left to the rejection loop."""
    ffi, lib = _loaded()
    b = partial(_buffer, ffi)
    redo = np.empty(lanes.size, dtype=np.int64)
    n_redo = lib.rk_lane_draws(b(raws), raws.shape[1], b(at), b(used),
                               b(lanes), b(sizes), lanes.size,
                               values.shape[1], b(values), b(redo))
    return redo[:n_redo]


def hebbian_tables(arrays: dict[str, np.ndarray], book: CBook
                   ) -> dict[str, Any]:
    """Kernel pointers to a network shape's fixed int64 tables (the
    ``rk_heb`` fields ``out_start`` ... ``slot_of``) and its code
    ``book``, made once and shared by every network :func:`bind_hebbian`
    binds over them."""
    ffi = _loaded()[0]
    tables: dict[str, Any] = {name: ffi.from_buffer("long long[]", arr)
                              for name, arr in arrays.items()}
    tables["book"] = book.struct
    return tables


def code_book(code_of: np.ndarray) -> CBook:
    """A :class:`CBook` over a shape's context-free code ids ``code_of``
    (``(vocab,)``), with no transition table yet."""
    return CBook(*_loaded(), code_of)


def bind_hebbian(tables: dict[str, Any], w: np.ndarray,
                 **settings: float) -> CHebbian:
    """The Hebbian kernels over value vector ``w`` and the shared
    ``tables`` (:func:`hebbian_tables`), with ``settings`` named as the
    scalar fields of ``rk_heb``.  The kernels keep ``w``'s buffer
    pointer: the network must write its values in place from then on."""
    return CHebbian(*_loaded(), tables, w, **settings)


def bind_replay(draws: tuple[np.ndarray, ...], count: np.ndarray,
                cap: int, attempts: int, per_step: int) -> CReplay:
    """A :class:`CReplay` over one lane's ``draws`` (``LaneDraws``' raw
    block, unread position and count, one row each) and a store that has
    written ``count[0]`` episodes into a ring of ``cap`` (``attempts``
    draws and at most ``per_step`` picks a call); :meth:`CReplay.point`
    names its columns."""
    return CReplay(_loaded()[0], draws, count, cap, attempts, per_step)


def bind_cls_miss(heb: CHebbian, ring: CReplay | None, limit: int,
                  picked: int, **settings: float) -> CClsMiss:
    """A :class:`CClsMiss` over network kernels ``heb`` and replay context
    ``ring``, for an encoder of ``limit`` classes besides the
    out-of-vocabulary one and rollouts of ``picked`` classes a step, with
    ``settings`` named as the scalar fields of ``rk_cls``."""
    ffi, lib = _loaded()
    return CClsMiss(ffi, lib, heb, ring, limit, picked, **settings)


def bind_hebbian_lanes(tables: dict[str, Any],
                       **settings: float) -> CHebbianLanes:
    """The Hebbian kernels' lane loops over the shared ``tables``, with
    ``settings`` as for :func:`bind_hebbian`."""
    return CHebbianLanes(*_loaded(), tables, **settings)


def make_sim_kernels() -> CSimKernels:
    return CSimKernels(*_loaded())

