"""C backend: simulator and Hebbian-network kernels compiled with the
system C compiler, loaded via cffi.

The kernel source below is embedded as a string, compiled on first use
into ``_build/reprokernels-<sha16>.so`` (hash of the source and the
compile flags, so editing either transparently rebuilds), and loaded
through cffi's ABI mode — no build-time dependency, no setuptools
plumbing, and the only runtime requirements are ``cffi`` and a
``cc``/``gcc`` on PATH.  Any failure along that path — no compiler,
compile error, dlopen error — makes the backend report unavailable;
nothing raises out of :func:`available`.

Two families are compiled:

- the simulator: ``simulate()``'s engine (``rk_sim_run``: hits, fills,
  evictions, the in-flight prefetch queue and its landings — one call
  per demand miss, one per segment for a null run), the fleet's round
  (``rk_sim_lanes``: the same engine over one context per lane slot), and
  ``PageCache``'s two membership scans;
- the scalar Hebbian network's step (``rk_heb_learn``,
  ``rk_heb_scores``, ``rk_heb_finish``: Eq. 1's column update, the
  sparse readout, and the softmax's arithmetic and top-width selection),
  bound once per network by :func:`bind_hebbian`.  ``np.exp`` and the
  k-WTA hidden code stay numpy: the first is not libm's ``exp`` bit for
  bit, the second's tie order is ``argpartition``'s.

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
import tempfile
from contextlib import suppress
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: ``rk_sim_run``'s context: the arrays and settings of one ``simulate()``
#: run.  One string serves the C source and the cffi declarations, so the
#: two layouts cannot drift apart.
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

#: The Hebbian kernels' context: one network's value vector, the fixed
#: tables its clones share, and its own scratch (``rk_heb_finish`` and
#: ``rk_heb_learn`` leave their results in ``top`` / ``punished``).
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
    /* scratch: logits / probabilities, the top-width classes and their
     * probabilities, the punished slots, a hidden-row membership mark */
    double *x, *top_p;
    long long *top, *punished;
    unsigned char *mark;
    long long vocab, hidden;
    double temperature, weight_max, negative_scale;
} rk_heb;
"""

_SOURCE = r"""
/* Compiled hot-path kernels for the repro simulator and the scalar
 * Hebbian network.
 *
 * Bit-identity contract: every function reproduces the exact observable
 * state transitions of its reference (see repro/memsim/simulator.py,
 * repro/memsim/pagecache.py and repro/nn/hebbian.py).  The simulator
 * kernels are integer-only; the Hebbian kernels' float operations follow
 * numpy's order.
 */

#include <stdint.h>

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

/* simulate()'s compiled engine: the whole per-access algorithm of the
 * scalar reference engine (memsim/simulator.py, _ScalarEngine over
 * ReferencePageCache) on PageCache's slot arrays.  Per access i, in the
 * reference's order: every in-flight prefetch due at i lands
 * (PageCache.insert_prefetch), then the demand access hits
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

/* The fleet's round (memsim/fleet.py): each lane slot t is its own
 * context sims[t].  Every lane t of lanes[0..n_lanes) issues its
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
""" + _HEB_CONTEXT + r"""
/* SparseHebbianNetwork._learn: Eq. 1 over the target column (+lr on
 * the rows of the code, lr * -negative_scale on the other connected
 * rows), clipped to +-weight_max; then, when predicted >= 0 names
 * another class, the punish term: -lr on predicted's entries in the
 * code's rows, in the code's order, floored at -weight_max.  Returns
 * how many punished slots it wrote to h->punished (the write log's
 * second part).  The comparisons keep a NaN as np.minimum/np.maximum
 * do. */
i64 rk_heb_learn(const rk_heb *h, const i64 *code, i64 k, i64 target,
                 i64 predicted, double lr)
{
    double *w = h->w;
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
        h->punished[n_punished++] = s;
    }
    return n_punished;
}

/* SparseHebbianNetwork.readout + the arithmetic of probabilities()
 * before its exp: class scores into h->x, accumulated row by row in the
 * code's order (per class the order np.bincount adds the row-major
 * gather in, from +0.0), then x = scores / T - max(scores / T).  Returns
 * np.argmax(scores): the first maximum, or the first NaN.  The max of
 * the quotients is the quotient of the max: rounding a division by a
 * positive T is monotone. */
i64 rk_heb_scores(const rk_heb *h, const i64 *code, i64 k)
{
    const double *w = h->w;
    double *x = h->x;
    i64 v_n = h->vocab;
    i64 best = 0;
    double top;

    for (i64 c = 0; c < v_n; c++)
        x[c] = 0.0;
    for (i64 j = 0; j < k; j++) {
        i64 r = code[j];
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
    top = top / h->temperature;
    for (i64 c = 0; c < v_n; c++)
        x[c] = x[c] / h->temperature - top;
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

/* The rest of probabilities() after np.exp, then select_topk's choice.
 * With normalize, h->x /= x.sum() (a reduction from the +0.0 identity
 * over the pairwise sum).  With width > 0, the top min(width, vocab)
 * classes of h->x, descending, go to h->top and their values to
 * h->top_p.  The choice is select_topk's only where it cannot depend on
 * numpy's partition or sort order: returns -1 (and the caller asks
 * select_topk) when a value among the top min(width + 1, vocab) is
 * shared or any value is NaN; else the number selected. */
i64 rk_heb_finish(const rk_heb *h, i64 width, i64 normalize)
{
    double *x = h->x;
    i64 *top = h->top;
    i64 v_n = h->vocab;
    i64 picked, keep, held = 0;

    if (normalize) {
        double total = 0.0 + rk_pairwise_sum(x, v_n);
        for (i64 c = 0; c < v_n; c++)
            x[c] = x[c] / total;
    }
    if (width <= 0)
        return 0;
    picked = width < v_n ? width : v_n;
    keep = width < v_n ? width + 1 : v_n;
    for (i64 c = 0; c < v_n; c++) {
        double v = x[c];
        i64 p;
        if (v != v)
            return -1;
        if (held == keep && !(v > x[top[keep - 1]]))
            continue;
        p = held < keep ? held++ : keep - 1;
        while (p > 0 && x[top[p - 1]] < v) {
            top[p] = top[p - 1];
            p--;
        }
        top[p] = c;
    }
    for (i64 p = 1; p < keep; p++)
        if (x[top[p - 1]] == x[top[p]])
            return -1;
    for (i64 p = 0; p < picked; p++)
        h->top_p[p] = x[top[p]];
    return picked;
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
""" + _HEB_CONTEXT + """
long long rk_heb_learn(const rk_heb *h, const long long *code, long long k,
                       long long target, long long predicted, double lr);
long long rk_heb_scores(const rk_heb *h, const long long *code, long long k);
long long rk_heb_finish(const rk_heb *h, long long width,
                        long long normalize);
"""

#: ``-fno-fast-math`` and ``-ffp-contract=off`` are load-bearing for the
#: Hebbian kernels: they keep every float sum in numpy's order (no
#: reassociation) and every multiply-add rounded twice (no FMA
#: contraction).  Part of the ``.so`` cache key, so editing them
#: rebuilds.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

_ffi: Any | None = None
_lib: Any | None = None
_load_failed = False


def _build_dir() -> Path:
    return Path(__file__).resolve().parent / "_build"


def _so_path() -> Path:
    """Cache path of the library: keyed on everything that shapes it."""
    key = _SOURCE + "\0" + " ".join(_CFLAGS)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return _build_dir() / f"reprokernels-{digest}.so"


def _compile(out: Path) -> bool:
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return False
    src_name = so_name = None
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        fd, src_name = tempfile.mkstemp(suffix=".c", dir=out.parent)
        with os.fdopen(fd, "w") as handle:
            handle.write(_SOURCE)
        fd, so_name = tempfile.mkstemp(suffix=".so.tmp", dir=out.parent)
        os.close(fd)
        proc = subprocess.run([cc, *_CFLAGS, "-o", so_name, src_name],
                              capture_output=True, timeout=120, check=False)
        if proc.returncode != 0:
            return False
        # Atomic publish: concurrent processes race to an identical file.
        os.replace(so_name, out)
        so_name = None
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        for leftover in (src_name, so_name):
            if leftover is not None:
                with suppress(OSError):
                    os.unlink(leftover)


def _dlopen(ffi: Any, path: Path) -> Any | None:
    try:
        return ffi.dlopen(str(path))
    except Exception:  # cffi raises its own error types besides OSError
        return None


def _load() -> tuple[Any, Any] | None:  # repro-lint: zone=init
    """(ffi, lib) or None; compile and load failures latch to unavailable.

    A cached library that exists but cannot be loaded (truncated, or
    built by another container's toolchain — ``_build/`` lives in the
    source tree) is recompiled over once before latching; otherwise the
    bad file would silently pin every later process to numpy.
    """
    global _ffi, _lib, _load_failed
    if _lib is not None:
        return _ffi, _lib
    if _load_failed:
        return None
    try:
        from cffi import FFI
    except ImportError:
        _load_failed = True
        return None
    out = _so_path()
    ffi = FFI()
    ffi.cdef(_CDEF)
    lib = _dlopen(ffi, out) if out.exists() else None
    if lib is None and _compile(out):
        lib = _dlopen(ffi, out)
    if lib is None:
        _load_failed = True
        return None
    _ffi, _lib = ffi, lib
    return _ffi, _lib


def available() -> bool:
    return _load() is not None


def _loaded() -> tuple[Any, Any]:
    loaded = _load()
    if loaded is None:
        raise RuntimeError("C backend is not available")
    return loaded


def _i64(ffi: Any, arr: np.ndarray) -> Any:
    return ffi.from_buffer("long long[]", arr)


def _u8(ffi: Any, arr: np.ndarray) -> Any:
    return ffi.from_buffer("unsigned char[]", arr.view(np.uint8))


class CSimKernels:
    """Simulator kernel bundle (one per ``simulate()`` call).

    ``first_nonresident``/``miss_run_length`` are plain calls (used by
    ``PageCache`` when kernels are attached); ``simulate()``'s engine
    uses the :meth:`bind_sim` closure, which captures the run-stable
    arrays' buffer pointers once so the per-miss/per-segment call passes
    only scalars, and the fleet's cohort the contexts of :meth:`sim_lanes`.
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

    def bind_sim(self, arrays: dict[str, np.ndarray],
                 **settings: int) -> Callable[[int, int, int], int]:
        """``simulate()``'s compiled engine over ``arrays`` and
        ``settings``, named as the fields of ``rk_sim``.

        The returned ``run(start, stop, n_issue)`` issues the first
        ``n_issue`` cids of ``issue`` as the predictions of the miss at
        ``start - 1``, then replays accesses ``[start, stop)`` and returns
        the first demand miss's index, or ``stop`` (see ``rk_sim_run``).
        The kernel keeps the arrays' buffer pointers: an array that is
        reallocated (a wider cid table, a longer ring) needs a new bind.
        """
        ffi = self._ffi
        ctx = ffi.new("rk_sim *")
        keep = [ctx]
        for name, arr in arrays.items():
            keep.append(_u8(ffi, arr) if arr.dtype == bool
                        else _i64(ffi, arr))
            setattr(ctx, name, keep[-1])
        for name, value in settings.items():
            setattr(ctx, name, value)
        fn = self._lib.rk_sim_run

        def run(start: int, stop: int, n_issue: int, _keep: Any = keep
                ) -> int:
            return int(fn(ctx, start, stop, n_issue))

        return run

    def sim_lanes(self, width: int) -> "CSimLanes":
        """``width`` ``rk_sim`` contexts, run a round at a time."""
        return CSimLanes(self._ffi, self._lib, width)


class CSimLanes:
    """``rk_sim`` contexts, one per lane slot, and the round that runs them.

    The contexts are one C array, viewed as an int64 table with a row per
    slot and a column per field (every field of ``rk_sim`` is a pointer or
    a ``long long``), so binding a field for a batch of slots is one numpy
    write: :meth:`point` aims a field at rows of a 2-D array, :meth:`set`
    writes a setting.  The contexts hold raw addresses: the caller keeps
    every array it pointed at alive, and points the field again after
    replacing one.
    """

    def __init__(self, ffi: Any, lib: Any, width: int) -> None:
        fields = ffi.typeof("rk_sim").fields
        if ffi.sizeof("rk_sim") != 8 * len(fields):
            raise RuntimeError("rk_sim's fields are not all 8 bytes wide")
        self._ffi = ffi
        self._sims = ffi.new("rk_sim[]", width)
        self._table = np.frombuffer(ffi.buffer(self._sims), dtype=np.int64
                                    ).reshape(width, len(fields))
        self._column = {name: field.offset // 8 for name, field in fields}
        self._run = partial(lib.rk_sim_lanes, self._sims)

    def point(self, name: str, array: np.ndarray, lanes: np.ndarray,
              rows: np.ndarray) -> None:
        """Field ``name`` of slot ``lanes[k]`` is row ``rows[k]`` of the
        C-contiguous 2-D ``array``."""
        assert array.flags.c_contiguous
        self._table[lanes, self._column[name]] = (
            array.ctypes.data + rows * array.strides[0])

    def set(self, name: str, lanes: np.ndarray, values: Any) -> None:
        """Setting ``name`` of slots ``lanes``."""
        self._table[lanes, self._column[name]] = values

    def run(self, lanes: np.ndarray, pos: np.ndarray, stop: np.ndarray,
            n_issue: np.ndarray) -> None:
        """One round of ``rk_sim_lanes`` over slots ``lanes`` (int64)."""
        ffi = self._ffi
        self._run(_i64(ffi, lanes), lanes.size, _i64(ffi, pos),
                  _i64(ffi, stop), _i64(ffi, n_issue))


class CHebbian:
    """The Hebbian kernels bound to one network (see :func:`bind_hebbian`).

    ``learn(code, k, target, predicted, lr)``, ``scores(code, k)`` and
    ``finish(width, normalize)`` call ``rk_heb_learn`` /
    ``rk_heb_scores`` / ``rk_heb_finish`` on the bound context; a code
    is passed as :meth:`codes` of it.  The context's scratch is exposed
    as numpy arrays: ``x`` (logits, then probabilities — the network
    runs ``np.exp`` on it in place), ``top`` / ``top_p`` (the selection)
    and ``punished`` (the punish term's slots).
    """

    __slots__ = ("x", "top", "top_p", "punished", "learn", "scores",
                 "finish", "_ffi", "_hidden", "_keep")

    def __init__(self, ffi: Any, lib: Any, tables: dict[str, Any],
                 w: np.ndarray, **settings: float) -> None:
        vocab, hidden = int(settings["vocab"]), int(settings["hidden"])
        self.x = np.zeros(vocab)
        self.top_p = np.zeros(vocab)
        self.top = np.zeros(vocab, dtype=np.int64)
        self.punished = np.zeros(hidden, dtype=np.int64)
        ctx = ffi.new("rk_heb *")
        keep: list[Any] = [ctx, tables]
        for name, value in tables.items():
            setattr(ctx, name, value)
        for name, ctype, arr in (
                ("w", "double[]", w), ("x", "double[]", self.x),
                ("top_p", "double[]", self.top_p),
                ("top", "long long[]", self.top),
                ("punished", "long long[]", self.punished),
                ("mark", "unsigned char[]", np.zeros(hidden, np.uint8))):
            keep.append(ffi.from_buffer(ctype, arr))
            setattr(ctx, name, keep[-1])
        for name, value in settings.items():
            setattr(ctx, name, value)
        self._ffi = ffi
        self._hidden = hidden
        self._keep = keep
        self.learn = partial(lib.rk_heb_learn, ctx)
        self.scores = partial(lib.rk_heb_scores, ctx)
        self.finish = partial(lib.rk_heb_finish, ctx)

    def codes(self, code: np.ndarray) -> Any:
        """A kernel pointer to ``code`` (it keeps ``code`` alive): at
        most ``hidden`` row indices, each in ``[0, hidden)``."""
        code = np.ascontiguousarray(code, dtype=np.int64)
        if code.size > self._hidden or (
                code.size and not 0 <= code.min() <= code.max()
                < self._hidden):
            raise IndexError("a hidden code names rows outside the layer")
        return self._ffi.from_buffer("long long[]", code)


def hebbian_tables(arrays: dict[str, np.ndarray]) -> dict[str, Any]:
    """Kernel pointers to a network shape's fixed int64 tables (the
    ``rk_heb`` fields ``out_start`` ... ``slot_of``), made once and shared
    by every network :func:`bind_hebbian` binds over them."""
    ffi = _loaded()[0]
    return {name: ffi.from_buffer("long long[]", arr)
            for name, arr in arrays.items()}


def bind_hebbian(tables: dict[str, Any], w: np.ndarray,
                 **settings: float) -> CHebbian:
    """The Hebbian kernels over value vector ``w`` and the shared
    ``tables`` (:func:`hebbian_tables`), with ``settings`` named as the
    scalar fields of ``rk_heb``.  The kernels keep ``w``'s buffer
    pointer: the network must write its values in place from then on."""
    return CHebbian(*_loaded(), tables, w, **settings)


def make_sim_kernels() -> CSimKernels:
    return CSimKernels(*_loaded())

