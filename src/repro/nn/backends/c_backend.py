"""C backend: memsim kernels compiled with the system C compiler, loaded
via cffi.

The kernel source below is embedded as a string, compiled on first use
into ``_build/reprokernels-<sha16>.so`` (hash of the source and the
compile flags, so editing either transparently rebuilds), and loaded
through cffi's ABI mode — no build-time dependency, no setuptools
plumbing, and the only runtime requirements are ``cffi`` and a
``cc``/``gcc`` on PATH.  Any failure along that path — no compiler,
compile error, dlopen error — makes the backend report unavailable;
nothing raises out of :func:`available`.

Only the simulator's membership scans, hit walks and null replay are
compiled: those are the kernels ``python -m bench`` shows winning
(null replay 6-50x).  The Hebbian network is numpy arithmetic under
every backend name — C kernels for it measured no faster than numpy's
own (``nn.hebbian.step_us.numpy`` vs ``.c``).

Bit-identity: every kernel reproduces its numpy counterpart's
observable state transitions exactly (see the per-function notes in the
C source); all of them are integer-only.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable

import numpy as np

_SOURCE = r"""
/* Compiled hot-path kernels for the repro simulator.
 *
 * Bit-identity contract: every function reproduces the exact observable
 * state transitions of its numpy counterpart (see
 * repro/memsim/pagecache.py and repro/memsim/fleet_cache.py).  Integer
 * arithmetic only.
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

/* The batched engine's hit walk: replay demand accesses from `start`,
 * stamping LRU recency per access, until the first non-resident access
 * or `stop`; returns the stop index.  Per-access semantics of
 * PageCache.access() restricted to hits (the caller guarantees no
 * landing falls inside [start, stop)).
 *
 * state: [0]=clock  [1]=n_undemanded  [2]=prefetch_hits  [3]=hits
 * ([2] and [3] accumulate; the caller flushes them into CacheStats). */
i64 rk_hit_walk(const i64 *soc, const i64 *cids, const u8 *stores,
                i64 *last_use, u8 *dirty, u8 *undemanded,
                i64 start, i64 stop, i64 *state)
{
    i64 clock = state[0];
    i64 n_und = state[1];
    i64 pf_hits = state[2];
    i64 hits = state[3];
    i64 i = start;
    for (; i < stop; i++) {
        i64 slot = soc[cids[i]];
        if (slot < 0)
            break;
        last_use[slot] = clock++;
        if (stores[i])
            dirty[slot] = 1;
        if (n_und && undemanded[slot]) {
            undemanded[slot] = 0;
            n_und--;
            pf_hits++;
        }
        hits++;
    }
    state[0] = clock;
    state[1] = n_und;
    state[2] = pf_hits;
    state[3] = hits;
    return i;
}

/* Full null-prefetcher replay of accesses [start, stop): per-access
 * hit/miss with exact LRU eviction — the scalar reference algorithm at
 * C speed.  The null prefetcher never issues, so no page is ever
 * undemanded and the out-of-universe dict overlay stays empty; both are
 * provably untouched here.
 *
 * Victim selection mirrors PageCache._refill_victims' lazy-LRU batch:
 * snapshot the VICTIM_BATCH smallest stamps (ascending), drain with a
 * stamp-match check.  A matching entry is the true LRU minimum — every
 * slot outside the snapshot was younger at snapshot time and stamps
 * only grow (or become FREE_STAMP) — so the victim *choice* per miss is
 * exactly the reference's, regardless of batch boundaries.
 *
 * state: [0]=clock [1]=n_resident [2]=free_n [3]=miss_buf_count
 *        [4]=hits [5]=demand_misses [6]=writebacks
 * ([4..6] accumulate; the caller flushes them into CacheStats). */
void rk_null_run(const i64 *cids, const i64 *pages, const u8 *stores,
                 i64 *soc, i64 *page_of_slot, i64 *last_use, u8 *dirty,
                 i64 *cid_of_slot, i64 *free_slots, i64 capacity,
                 i64 start, i64 stop, i64 *miss_idx, i64 record,
                 i64 *state)
{
    i64 clock = state[0];
    i64 n_res = state[1];
    i64 free_n = state[2];
    i64 miss_n = state[3];
    i64 hits = state[4];
    i64 misses = state[5];
    i64 wbacks = state[6];
    i64 vstamp[VICTIM_BATCH];
    i64 vslot[VICTIM_BATCH];
    i64 vn = 0, vi = 0;

    for (i64 i = start; i < stop; i++) {
        i64 cid = cids[i];
        i64 slot = soc[cid];
        if (slot >= 0) {
            last_use[slot] = clock++;
            if (stores[i])
                dirty[slot] = 1;
            hits++;
            continue;
        }
        misses++;
        if (record)
            miss_idx[miss_n] = i;
        miss_n++;
        if (free_n > 0) {
            slot = free_slots[--free_n];
        } else {
            for (;;) {
                if (vi >= vn) {
                    /* Refill: partial selection of the VICTIM_BATCH
                     * smallest stamps, kept sorted ascending by
                     * insertion (free slots carry FREE_STAMP and the
                     * cache is full here, so only live stamps enter). */
                    vn = 0;
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
                    vi = 0;
                }
                {
                    i64 st = vstamp[vi];
                    i64 vs = vslot[vi];
                    vi++;
                    if (st != FREE_STAMP && last_use[vs] == st) {
                        slot = vs;
                        break;
                    }
                }
            }
            if (dirty[slot]) {
                wbacks++;
                dirty[slot] = 0;
            }
            soc[cid_of_slot[slot]] = -1;
            cid_of_slot[slot] = -1;
            last_use[slot] = FREE_STAMP;
            n_res--;
        }
        page_of_slot[slot] = pages[i];
        last_use[slot] = clock++;
        dirty[slot] = stores[i] ? 1 : 0;
        soc[cid] = slot;
        cid_of_slot[slot] = cid;
        n_res++;
    }
    state[0] = clock;
    state[1] = n_res;
    state[2] = free_n;
    state[3] = miss_n;
    state[4] = hits;
    state[5] = misses;
    state[6] = wbacks;
}

/* ------------------------------------------------------------------ */
/* Fleet (tenant-axis) simulator kernels                              */
/* ------------------------------------------------------------------ */

/* The fleet engine's lockstep hit walk: rk_hit_walk per tenant lane
 * over the (tenant, slot) matrices of FleetPageCache.  For each lane t
 * in lanes[0..n_lanes), replays demand accesses from pos[t] until the
 * first non-resident access or limit[t], with per-access semantics of
 * the scalar cache (LRU stamp, dirty, undemanded clear + prefetch hit).
 * su/sl/ss are the row strides of the (T, U) slot table, the (R, L)
 * trace matrices, and the (T, S) slot matrices respectively.  Trace
 * rows are indirected through trace_row (lanes replaying the same
 * trace share one packed row).  Stats are written straight into the
 * cache's per-lane counter vectors, so no state flush is needed after
 * the call. */
void rk_fleet_hit_walk(const i64 *lanes, i64 n_lanes,
                       const i64 *trace_row,
                       const i64 *soc, i64 su,
                       const i64 *cids, const u8 *stores, i64 sl,
                       i64 *last_use, u8 *dirty, u8 *undemanded, i64 ss,
                       i64 *pos, const i64 *limit,
                       i64 *clock, i64 *n_und, i64 *pf_hits, i64 *hits,
                       i64 *accesses)
{
    for (i64 k = 0; k < n_lanes; k++) {
        i64 t = lanes[k];
        i64 r = trace_row[t];
        const i64 *l_soc = soc + t * su;
        const i64 *l_cids = cids + r * sl;
        const u8 *l_stores = stores + r * sl;
        i64 *l_lu = last_use + t * ss;
        u8 *l_dirty = dirty + t * ss;
        u8 *l_und = undemanded + t * ss;
        i64 ck = clock[t];
        i64 nu = n_und[t];
        i64 ph = pf_hits[t];
        i64 h = hits[t];
        i64 start = pos[t];
        i64 stop = limit[t];
        i64 i = start;
        for (; i < stop; i++) {
            i64 slot = l_soc[l_cids[i]];
            if (slot < 0)
                break;
            l_lu[slot] = ck++;
            if (l_stores[i])
                l_dirty[slot] = 1;
            if (nu && l_und[slot]) {
                l_und[slot] = 0;
                nu--;
                ph++;
            }
            h++;
        }
        accesses[t] += i - start;
        pos[t] = i;
        clock[t] = ck;
        n_und[t] = nu;
        pf_hits[t] = ph;
        hits[t] = h;
    }
}

/* Fleet null replay: rk_null_run per tenant lane, each lane driven from
 * pos[t] to completion (n_len[t]) in this one call.  Slot allocation is
 * the fleet cache's virgin-ascending scheme (below capacity the next
 * slot is n_resident; at capacity the evicted slot is reused), which is
 * unobservable vs the free list — see fleet_cache.py.  The per-lane
 * victim snapshot only scans slots [0, capacity[t]): higher slots can
 * never have been occupied.  Trace rows are indirected through
 * trace_row (shared packed rows); miss indices stay lane-indexed and
 * land in the lane's row of the (T, L) miss_idx matrix with count
 * miss_n[t]. */
void rk_fleet_null_run(const i64 *lanes, i64 n_lanes,
                       const i64 *trace_row,
                       i64 *soc, i64 su,
                       const i64 *cids, const i64 *pages, const u8 *stores,
                       i64 sl,
                       i64 *page_of_slot, i64 *last_use, u8 *dirty,
                       i64 *cid_of_slot, i64 ss,
                       const i64 *capacity, const i64 *n_len,
                       i64 *pos, i64 *clock, i64 *n_resident,
                       i64 *hits, i64 *demand_misses, i64 *writebacks,
                       i64 *accesses, i64 *miss_idx, i64 *miss_n,
                       i64 record)
{
    for (i64 k = 0; k < n_lanes; k++) {
        i64 t = lanes[k];
        i64 r = trace_row[t];
        i64 *l_soc = soc + t * su;
        const i64 *l_cids = cids + r * sl;
        const i64 *l_pages = pages + r * sl;
        const u8 *l_stores = stores + r * sl;
        i64 *l_pg = page_of_slot + t * ss;
        i64 *l_lu = last_use + t * ss;
        u8 *l_dirty = dirty + t * ss;
        i64 *l_cos = cid_of_slot + t * ss;
        i64 *l_miss = miss_idx + t * sl;
        i64 cap = capacity[t];
        i64 ck = clock[t];
        i64 n_res = n_resident[t];
        i64 mn = miss_n[t];
        i64 h = hits[t];
        i64 misses = demand_misses[t];
        i64 wbacks = writebacks[t];
        i64 vstamp[VICTIM_BATCH];
        i64 vslot[VICTIM_BATCH];
        i64 vn = 0, vi = 0;
        i64 start = pos[t];
        i64 stop = n_len[t];

        for (i64 i = start; i < stop; i++) {
            i64 cid = l_cids[i];
            i64 slot = l_soc[cid];
            if (slot >= 0) {
                l_lu[slot] = ck++;
                if (l_stores[i])
                    l_dirty[slot] = 1;
                h++;
                continue;
            }
            misses++;
            if (record)
                l_miss[mn] = i;
            mn++;
            if (n_res < cap) {
                slot = n_res;
            } else {
                for (;;) {
                    if (vi >= vn) {
                        vn = 0;
                        for (i64 s = 0; s < cap; s++) {
                            i64 st = l_lu[s];
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
                        vi = 0;
                    }
                    {
                        i64 st = vstamp[vi];
                        i64 vs = vslot[vi];
                        vi++;
                        if (st != FREE_STAMP && l_lu[vs] == st) {
                            slot = vs;
                            break;
                        }
                    }
                }
                if (l_dirty[slot]) {
                    wbacks++;
                    l_dirty[slot] = 0;
                }
                l_soc[l_cos[slot]] = -1;
                l_cos[slot] = -1;
                l_lu[slot] = FREE_STAMP;
                n_res--;
            }
            l_pg[slot] = l_pages[i];
            l_lu[slot] = ck++;
            l_dirty[slot] = l_stores[i] ? 1 : 0;
            l_soc[cid] = slot;
            l_cos[slot] = cid;
            n_res++;
        }
        accesses[t] += stop - start;
        pos[t] = stop;
        clock[t] = ck;
        n_resident[t] = n_res;
        miss_n[t] = mn;
        hits[t] = h;
        demand_misses[t] = misses;
        writebacks[t] = wbacks;
    }
}
"""

_CDEF = """
long long rk_first_nonresident(const long long *soc, const long long *cids,
                               long long start, long long stop);
long long rk_miss_run_length(const long long *soc, const long long *cids,
                             long long start, long long limit,
                             long long *scratch, long long stamp);
long long rk_hit_walk(const long long *soc, const long long *cids,
                      const unsigned char *stores, long long *last_use,
                      unsigned char *dirty, unsigned char *undemanded,
                      long long start, long long stop, long long *state);
void rk_null_run(const long long *cids, const long long *pages,
                 const unsigned char *stores, long long *soc,
                 long long *page_of_slot, long long *last_use,
                 unsigned char *dirty, long long *cid_of_slot,
                 long long *free_slots, long long capacity,
                 long long start, long long stop, long long *miss_idx,
                 long long record, long long *state);
void rk_fleet_hit_walk(const long long *lanes, long long n_lanes,
                       const long long *trace_row,
                       const long long *soc, long long su,
                       const long long *cids, const unsigned char *stores,
                       long long sl, long long *last_use,
                       unsigned char *dirty, unsigned char *undemanded,
                       long long ss, long long *pos, const long long *limit,
                       long long *clock, long long *n_und,
                       long long *pf_hits, long long *hits,
                       long long *accesses);
void rk_fleet_null_run(const long long *lanes, long long n_lanes,
                       const long long *trace_row,
                       long long *soc, long long su,
                       const long long *cids, const long long *pages,
                       const unsigned char *stores, long long sl,
                       long long *page_of_slot, long long *last_use,
                       unsigned char *dirty, long long *cid_of_slot,
                       long long ss, const long long *capacity,
                       const long long *n_len, long long *pos,
                       long long *clock, long long *n_resident,
                       long long *hits, long long *demand_misses,
                       long long *writebacks, long long *accesses,
                       long long *miss_idx, long long *miss_n,
                       long long record);
"""

#: Every kernel left is integer-only, so ``-fno-fast-math`` and
#: ``-ffp-contract=off`` change no generated code today.  They are kept
#: as a guard: a float kernel added later must round like numpy (no
#: reassociation, no FMA contraction) without anyone remembering to put
#: the flags back.  Part of the ``.so`` cache key, so editing them
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


def _i64(ffi: Any, arr: np.ndarray) -> Any:
    return ffi.from_buffer("long long[]", arr)


def _u8(ffi: Any, arr: np.ndarray) -> Any:
    return ffi.from_buffer("unsigned char[]", arr.view(np.uint8))


class CSimKernels:
    """Simulator kernel bundle (one per ``simulate()`` call).

    ``first_nonresident``/``miss_run_length`` are plain calls (used by
    ``PageCache`` when kernels are attached); the engine inner loops use
    the ``bind_*`` closures, which capture the run-stable arrays' buffer
    pointers once so the per-span/per-segment call passes only scalars.
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

    def bind_hit_walk(self, *, soc: np.ndarray, cids: np.ndarray,
                      stores: np.ndarray, last_use: np.ndarray,
                      dirty: np.ndarray, undemanded: np.ndarray,
                      state: np.ndarray) -> Callable[[int, int], int]:
        ffi = self._ffi
        fn = self._lib.rk_hit_walk
        p_soc, p_cids, p_lu, p_state = (_i64(ffi, a) for a in
                                        (soc, cids, last_use, state))
        p_stores, p_dirty, p_und = (_u8(ffi, a) for a in
                                    (stores, dirty, undemanded))

        def run(start: int, stop: int) -> int:
            return int(fn(p_soc, p_cids, p_stores, p_lu, p_dirty, p_und,
                          start, stop, p_state))

        return run

    def bind_null_run(self, *, cids: np.ndarray, pages: np.ndarray,
                      stores: np.ndarray, soc: np.ndarray,
                      page_of_slot: np.ndarray, last_use: np.ndarray,
                      dirty: np.ndarray, cid_of_slot: np.ndarray,
                      free_slots: np.ndarray, capacity: int,
                      miss_idx: np.ndarray,
                      state: np.ndarray) -> Callable[[int, int, int], None]:
        ffi = self._ffi
        fn = self._lib.rk_null_run
        (p_cids, p_pages, p_soc, p_pos, p_lu, p_cos, p_free, p_miss,
         p_state) = (_i64(ffi, a) for a in
                     (cids, pages, soc, page_of_slot, last_use, cid_of_slot,
                      free_slots, miss_idx, state))
        p_stores, p_dirty = _u8(ffi, stores), _u8(ffi, dirty)

        def run(start: int, stop: int, record: int) -> None:
            fn(p_cids, p_pages, p_stores, p_soc, p_pos, p_lu, p_dirty,
               p_cos, p_free, capacity, start, stop, p_miss, record,
               p_state)

        return run

    def bind_fleet_hit_walk(self, *, lanes_buf: np.ndarray,
                            trace_row: np.ndarray, soc: np.ndarray,
                            cids: np.ndarray, stores: np.ndarray,
                            last_use: np.ndarray, dirty: np.ndarray,
                            undemanded: np.ndarray, pos: np.ndarray,
                            limit: np.ndarray, clock: np.ndarray,
                            n_undemanded: np.ndarray,
                            prefetch_hits: np.ndarray, hits: np.ndarray,
                            accesses: np.ndarray) -> Callable[[int], None]:
        """Tenant-axis hit walk over FleetPageCache's (T, slot) matrices.

        The returned closure runs the walk for the first ``n_lanes``
        entries of ``lanes_buf`` (the engine writes the active-lane
        prefix before each call).  Row strides come from the 2-D array
        shapes; lane ``t`` reads trace row ``trace_row[t]``; stats land
        directly in the per-lane counter vectors.
        """
        ffi = self._ffi
        fn = self._lib.rk_fleet_hit_walk
        su = int(soc.shape[1])
        sl = int(cids.shape[1])
        ss = int(last_use.shape[1])
        (p_lanes, p_row, p_soc, p_cids, p_lu, p_pos, p_limit, p_clock,
         p_nund, p_pf, p_hits, p_acc) = (_i64(ffi, a) for a in
                                         (lanes_buf, trace_row, soc, cids,
                                          last_use, pos, limit, clock,
                                          n_undemanded, prefetch_hits,
                                          hits, accesses))
        p_stores, p_dirty, p_und = (_u8(ffi, a) for a in
                                    (stores, dirty, undemanded))

        def run(n_lanes: int) -> None:
            fn(p_lanes, n_lanes, p_row, p_soc, su, p_cids, p_stores, sl,
               p_lu, p_dirty, p_und, ss, p_pos, p_limit, p_clock, p_nund,
               p_pf, p_hits, p_acc)

        return run

    def bind_fleet_null_run(self, *, lanes_buf: np.ndarray,
                            trace_row: np.ndarray, soc: np.ndarray,
                            cids: np.ndarray, pages: np.ndarray,
                            stores: np.ndarray, page_of_slot: np.ndarray,
                            last_use: np.ndarray, dirty: np.ndarray,
                            cid_of_slot: np.ndarray, capacity: np.ndarray,
                            n_len: np.ndarray, pos: np.ndarray,
                            clock: np.ndarray, n_resident: np.ndarray,
                            hits: np.ndarray, demand_misses: np.ndarray,
                            writebacks: np.ndarray, accesses: np.ndarray,
                            miss_idx: np.ndarray,
                            miss_n: np.ndarray) -> Callable[[int, int], None]:
        """Tenant-axis null replay: each listed lane runs to completion."""
        ffi = self._ffi
        fn = self._lib.rk_fleet_null_run
        su = int(soc.shape[1])
        sl = int(cids.shape[1])
        ss = int(last_use.shape[1])
        (p_lanes, p_row, p_soc, p_cids, p_pages, p_pg, p_lu, p_cos, p_cap,
         p_n, p_pos, p_clock, p_nres, p_hits, p_miss, p_wb, p_acc, p_midx,
         p_mn) = (_i64(ffi, a) for a in
                  (lanes_buf, trace_row, soc, cids, pages, page_of_slot,
                   last_use, cid_of_slot, capacity, n_len, pos, clock,
                   n_resident, hits, demand_misses, writebacks, accesses,
                   miss_idx, miss_n))
        p_stores, p_dirty = _u8(ffi, stores), _u8(ffi, dirty)

        def run(n_lanes: int, record: int) -> None:
            fn(p_lanes, n_lanes, p_row, p_soc, su, p_cids, p_pages,
               p_stores, sl, p_pg, p_lu, p_dirty, p_cos, ss, p_cap, p_n,
               p_pos, p_clock, p_nres, p_hits, p_miss, p_wb, p_acc, p_midx,
               p_mn, record)

        return run


def make_sim_kernels() -> CSimKernels:
    loaded = _load()
    if loaded is None:
        raise RuntimeError("C backend is not available")
    return CSimKernels(*loaded)

