"""The C provider — the one compiled source of ``kernels="compiled"``.

The wave/round probe loops of :mod:`repro.core.bulk` written as scalar
C (same phase order, same counter charges, same claim arbitration),
built once into a shared library with the host C compiler, and
launched through ctypes by :mod:`repro.core.kernels_jit`.  The ``.so``
is disk-cached under ``~/.cache/repro-jit`` keyed by a hash of the
source text, so a process pays the compile exactly once per source
revision and workers attach to the cached artifact.

ctypes releases the GIL around every call, so the thread engine gets
genuine shard parallelism out of this provider for free.

The exported functions return an int status (0 = ok, 1 = scratch
allocation failed) so OOM surfaces as a Python exception rather than a
crash.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE_TEMPLATE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EMPTY_W 0xFFFFFFFFFFFFFFFFULL
#define TOMB_W  0xFFFFFFFFFFFFFFFEULL
/* sentinel words of the compact layout's sigma-permuted key plane
 * (sigma = fmix32; interpolated from Python so the two sides cannot
 * drift -- the source hash keys the disk cache, so a sigma change
 * rebuilds the library automatically) */
#define CEMPTY_W @CEMPTY@
#define CTOMB_W  @CTOMB@
#define ST_PENDING  0
#define ST_INSERTED 1
#define ST_UPDATED  2
#define ST_FAILED   3

/* soa is a layout mode flag: 0 = aos (packed uint64 array), 1 = soa
 * (two uint32 planes), 2 = compact (soa plane geometry, key plane
 * sigma-permuted -- same loads/stores, different sentinel words) */
static inline uint64_t slot_load(int64_t soa, const uint64_t *packed,
                                 const uint32_t *kp, const uint32_t *vp,
                                 int64_t idx) {
    if (soa)
        return ((uint64_t)kp[idx] << 32) | (uint64_t)vp[idx];
    return packed[idx];
}

static inline void slot_store(int64_t soa, uint64_t *packed,
                              uint32_t *kp, uint32_t *vp,
                              int64_t idx, uint64_t word) {
    if (soa) {
        kp[idx] = (uint32_t)(word >> 32);
        vp[idx] = (uint32_t)(word & 0xFFFFFFFFULL);
    } else {
        packed[idx] = word;
    }
}

static inline void slot_prefetch(int64_t soa, const uint64_t *packed,
                                 const uint32_t *kp, const uint32_t *vp,
                                 int64_t idx) {
#if defined(__GNUC__) || defined(__clang__)
    if (soa) {
        __builtin_prefetch(&kp[idx]);
        __builtin_prefetch(&vp[idx]);
    } else {
        __builtin_prefetch(&packed[idx]);
    }
#endif
}

/* prefetch distance for the probe passes: far enough to hide a cache
 * miss, near enough to stay inside the round's working set */
#define PF_DIST 12

/* uint32 wraparound of the affine window walk; identical to
 * (h1 + (p & 0xFFFFFFFF)*step + q*g) mod 2^32 mod capacity.  inner is
 * always a power of two (32/g), so p and q reduce to shift/mask; the
 * mod runs in 32-bit when capacity allows (it always does in practice). */
static inline int64_t window_start(uint32_t h1, uint32_t step, int64_t flat,
                                   int64_t inner, int ish,
                                   int64_t g, int64_t capacity) {
    int64_t p, q;
    if (ish >= 0) {
        p = flat >> ish;
        q = flat & (inner - 1);
    } else {
        p = flat / inner;
        q = flat - p * inner;
    }
    uint32_t h = h1 + (uint32_t)p * step + (uint32_t)(q * g);
    if (capacity <= 0xFFFFFFFFLL)
        return (int64_t)(h % (uint32_t)capacity);
    return (int64_t)((uint64_t)h % (uint64_t)capacity);
}

static inline int inner_shift(int64_t inner) {
    if (inner <= 0 || (inner & (inner - 1)) != 0)
        return -1;
    int s = 0;
    while ((inner >> s) > 1) s++;
    return s;
}

static int cmp_i64(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* The ring keeps pending items in ascending submission order (refills
 * append ascending indices, compaction preserves order), so the lexsort
 * group leader of the vectorized claim arbitration -- lowest submission
 * index per claimed slot -- is simply the FIRST claimant seen in ring
 * order.  Its store makes the slot non-vacant, which is exactly the
 * CAS-failure signal every later claimant of that slot observes: the
 * vacancy re-check doubles as the arbitration, no sort needed.  Same
 * winners, same counter charges. */
int repro_insert(int64_t soa, uint64_t *packed, uint32_t *kp, uint32_t *vp,
                 int64_t capacity, int64_t g, int64_t inner,
                 int64_t max_windows, int64_t wave, int64_t spw,
                 const uint32_t *h1, const uint32_t *step,
                 const uint32_t *keys, const uint64_t *pairs,
                 uint8_t *status, int64_t *probes, int64_t *counters) {
    const uint64_t EW = soa == 2 ? CEMPTY_W : EMPTY_W;
    const uint64_t TW = soa == 2 ? CTOMB_W : TOMB_W;
    int64_t n = counters[5];  /* n smuggled in; restored before return */
    int64_t ring_cap = n < wave ? n : wave;
    if (ring_cap < 1) ring_cap = 1;
    int64_t *scratch = malloc((size_t)(ring_cap * 6 + n * 2)
                              * sizeof(int64_t) + (size_t)(ring_cap * 2));
    if (!scratch) return 1;
    int64_t *ring     = scratch;
    int64_t *spare    = ring + ring_cap;
    int64_t *m_target = spare + ring_cap;
    int64_t *m_vac    = m_target + ring_cap;
    int64_t *m_start  = m_vac + ring_cap;
    int64_t *utarg    = m_start + ring_cap;
    int64_t *win_idx  = utarg + ring_cap;
    int64_t *first_vac = win_idx + n;
    uint8_t *m_match  = (uint8_t *)(first_vac + n);
    uint8_t *m_empty  = m_match + ring_cap;
    for (int64_t i = 0; i < n; i++) { win_idx[i] = 0; first_vac[i] = -1; }
    const int ish = inner_shift(inner);
    int64_t load_s = 0, store_s = 0, att = 0, succ = 0, warp = 0;
    int64_t count = 0, cursor = 0;
    while (count > 0 || cursor < n) {
        if (cursor < n && count < wave) {
            int64_t take = wave - count;
            if (take > n - cursor) take = n - cursor;
            for (int64_t t = 0; t < take; t++) ring[count + t] = cursor + t;
            count += take;
            cursor += take;
        }
        int64_t m = count;
        load_s += m * spw;
        warp += 2 * m;
        /* phase 1 -- snapshot reads before any write of this round:
         * pass A computes every window start (pure arithmetic), pass B
         * probes the table with PF_DIST-deep prefetch to hide misses */
        for (int64_t j = 0; j < m; j++) {
            int64_t i = ring[j];
            probes[i] += 1;
            m_start[j] = window_start(h1[i], step[i], win_idx[i],
                                      inner, ish, g, capacity);
        }
        for (int64_t j = 0; j < m; j++) {
            if (j + PF_DIST < m)
                slot_prefetch(soa, packed, kp, vp, m_start[j + PF_DIST]);
            int64_t i = ring[j];
            uint64_t key_w = (uint64_t)keys[i];
            int hasm = 0, hase = 0;
            int64_t mt = -1, vs = -1;
            int64_t s = m_start[j];
            for (int64_t lane = 0; lane < g; lane++) {
                uint64_t w = slot_load(soa, packed, kp, vp, s);
                if (w == EW) {
                    hase = 1;
                    if (vs < 0) vs = s;
                } else if (w == TW) {
                    if (vs < 0) vs = s;
                } else if (!hasm && (w >> 32) == key_w) {
                    hasm = 1;
                    mt = s;
                }
                s += 1;
                if (s >= capacity) s -= capacity;
            }
            m_match[j] = (uint8_t)hasm;
            m_empty[j] = (uint8_t)hase;
            m_target[j] = mt;
            m_vac[j] = vs;
        }
        /* phase 2 -- update path: submission order, last writer wins;
         * one store sector per distinct slot written (targets are hot
         * in cache from phase 1, so no prefetch needed here) */
        int64_t nupd = 0;
        for (int64_t j = 0; j < m; j++) {
            if (m_match[j]) {
                int64_t i = ring[j];
                slot_store(soa, packed, kp, vp, m_target[j], pairs[i]);
                utarg[nupd++] = m_target[j];
                status[i] = ST_UPDATED;
            }
        }
        if (nupd > 0) {
            att += nupd;
            succ += nupd;
            qsort(utarg, (size_t)nupd, sizeof(int64_t), cmp_i64);
            int64_t uniq = 1;
            for (int64_t t = 1; t < nupd; t++)
                if (utarg[t] != utarg[t - 1]) uniq++;
            store_s += uniq;
        }
        /* phase 2b -- remember the walk's first vacant slot */
        for (int64_t j = 0; j < m; j++) {
            if (!m_match[j] && m_vac[j] >= 0) {
                int64_t i = ring[j];
                if (first_vac[i] < 0) first_vac[i] = m_vac[j];
            }
        }
        /* phase 3 -- claims: first claimant in ring order leads its
         * slot; vacancy re-checked against the post-update table (the
         * winner's store IS the arbitration later claimants lose to) */
        for (int64_t j = 0; j < m; j++) {
            if (j + PF_DIST < m && !m_match[j + PF_DIST]) {
                int64_t tv2 = first_vac[ring[j + PF_DIST]];
                if (tv2 >= 0)
                    slot_prefetch(soa, packed, kp, vp, tv2);
            }
            if (m_match[j]) continue;
            int64_t i = ring[j];
            if (m_empty[j] || win_idx[i] + 1 >= max_windows) {
                int64_t tv = first_vac[i];
                if (tv < 0) {
                    status[i] = ST_FAILED;
                    continue;
                }
                att += 1;
                uint64_t w = slot_load(soa, packed, kp, vp, tv);
                if (w == EW || w == TW) {
                    slot_store(soa, packed, kp, vp, tv, pairs[i]);
                    status[i] = ST_INSERTED;
                    succ += 1;
                    store_s += 1;
                } else {
                    /* loser: CAS failed or outvoted -- restart the walk */
                    first_vac[i] = -1;
                    win_idx[i] = 0;
                    load_s += spw;
                }
            } else {
                win_idx[i] += 1;
            }
        }
        int64_t newc = 0;
        for (int64_t j = 0; j < m; j++) {
            int64_t i = ring[j];
            if (status[i] == ST_PENDING) spare[newc++] = i;
        }
        int64_t *tmp = ring; ring = spare; spare = tmp;
        count = newc;
    }
    counters[0] += load_s;
    counters[1] += store_s;
    counters[2] += att;
    counters[3] += succ;
    counters[4] += warp;
    counters[5] = 0;
    free(scratch);
    return 0;
}

int repro_query(int64_t soa, uint64_t *packed, uint32_t *kp, uint32_t *vp,
                int64_t capacity, int64_t g, int64_t inner,
                int64_t max_windows, int64_t spw,
                const uint32_t *h1, const uint32_t *step,
                const uint32_t *keys, uint32_t *values, uint8_t *found,
                int64_t *probes, int64_t *counters) {
    const uint64_t EW = soa == 2 ? CEMPTY_W : EMPTY_W;
    int64_t n = counters[5];
    int64_t cap = n > 0 ? n : 1;
    int64_t *scratch = malloc((size_t)(cap * 4) * sizeof(int64_t));
    if (!scratch) return 1;
    int64_t *ring = scratch;
    int64_t *spare = ring + cap;
    int64_t *win_idx = spare + cap;
    int64_t *m_start = win_idx + cap;
    for (int64_t i = 0; i < n; i++) { ring[i] = i; win_idx[i] = 0; }
    const int ish = inner_shift(inner);
    int64_t load_s = 0, warp = 0;
    int64_t count = n;
    while (count > 0) {
        int64_t m = count;
        load_s += m * spw;
        warp += 2 * m;
        int64_t newc = 0;
        for (int64_t j = 0; j < m; j++) {
            int64_t i = ring[j];
            probes[i] += 1;
            m_start[j] = window_start(h1[i], step[i], win_idx[i],
                                      inner, ish, g, capacity);
        }
        for (int64_t j = 0; j < m; j++) {
            if (j + PF_DIST < m)
                slot_prefetch(soa, packed, kp, vp, m_start[j + PF_DIST]);
            int64_t i = ring[j];
            uint64_t key_w = (uint64_t)keys[i];
            int hasm = 0, hase = 0;
            uint32_t val = 0;
            int64_t s = m_start[j];
            for (int64_t lane = 0; lane < g; lane++) {
                uint64_t w = slot_load(soa, packed, kp, vp, s);
                if (w == EW) {
                    hase = 1;
                } else if (!hasm && (w >> 32) == key_w) {
                    hasm = 1;
                    val = (uint32_t)(w & 0xFFFFFFFFULL);
                }
                s += 1;
                if (s >= capacity) s -= capacity;
            }
            if (hasm) {
                values[i] = val;
                found[i] = 1;
            } else if (!hase) {
                win_idx[i] += 1;
                if (win_idx[i] < max_windows) spare[newc++] = i;
            }
        }
        int64_t *tmp = ring; ring = spare; spare = tmp;
        count = newc;
    }
    counters[0] += load_s;
    counters[4] += warp;
    counters[5] = 0;
    free(scratch);
    return 0;
}

int repro_erase(int64_t soa, uint64_t *packed, uint32_t *kp, uint32_t *vp,
                int64_t capacity, int64_t g, int64_t inner,
                int64_t max_windows, int64_t spw,
                const uint32_t *h1, const uint32_t *step,
                const uint32_t *keys, uint8_t *erased,
                int64_t *probes, int64_t *counters) {
    const uint64_t EW = soa == 2 ? CEMPTY_W : EMPTY_W;
    const uint64_t TW = soa == 2 ? CTOMB_W : TOMB_W;
    int64_t n = counters[5];
    int64_t cap = n > 0 ? n : 1;
    int64_t *scratch = malloc((size_t)(cap * 4 + cap * g) * sizeof(int64_t)
                              + (size_t)cap);
    if (!scratch) return 1;
    int64_t *ring = scratch;
    int64_t *spare = ring + cap;
    int64_t *win_idx = spare + cap;
    int64_t *m_start = win_idx + cap;
    int64_t *targ = m_start + cap;
    uint8_t *m_empty = (uint8_t *)(targ + cap * g);
    for (int64_t i = 0; i < n; i++) { ring[i] = i; win_idx[i] = 0; }
    const int ish = inner_shift(inner);
    int64_t load_s = 0, store_s = 0, att = 0, succ = 0, warp = 0;
    int64_t count = n;
    while (count > 0) {
        int64_t m = count;
        load_s += m * spw;
        warp += 2 * m;
        /* snapshot reads first: duplicate keys sharing a window must
         * all observe the pre-tombstone state of this round */
        int64_t ntarg = 0, nhit = 0;
        for (int64_t j = 0; j < m; j++) {
            int64_t i = ring[j];
            probes[i] += 1;
            m_start[j] = window_start(h1[i], step[i], win_idx[i],
                                      inner, ish, g, capacity);
        }
        for (int64_t j = 0; j < m; j++) {
            if (j + PF_DIST < m)
                slot_prefetch(soa, packed, kp, vp, m_start[j + PF_DIST]);
            int64_t i = ring[j];
            uint64_t key_w = (uint64_t)keys[i];
            int hit = 0, hase = 0;
            int64_t s = m_start[j];
            for (int64_t lane = 0; lane < g; lane++) {
                uint64_t w = slot_load(soa, packed, kp, vp, s);
                if (w == EW) {
                    hase = 1;
                } else if ((w >> 32) == key_w) {
                    hit = 1;
                    targ[ntarg++] = s;
                }
                s += 1;
                if (s >= capacity) s -= capacity;
            }
            if (hit) {
                nhit += 1;
                erased[i] = 1;
            }
            m_empty[j] = (uint8_t)hase;
        }
        if (ntarg > 0) {
            /* tombstone each distinct slot once: a matched slot held a
             * real key in this round's snapshot, so reading TOMB here
             * means another lane of this pass already wrote it -- the
             * read doubles as the np.unique dedup of the fast path */
            int64_t uniq = 0;
            for (int64_t t = 0; t < ntarg; t++) {
                uint64_t w = slot_load(soa, packed, kp, vp, targ[t]);
                if (w != TW) {
                    slot_store(soa, packed, kp, vp, targ[t], TW);
                    uniq++;
                }
            }
            att += nhit;
            succ += nhit;
            store_s += uniq;
        }
        int64_t newc = 0;
        for (int64_t j = 0; j < m; j++) {
            int64_t i = ring[j];
            if (m_empty[j]) continue;
            win_idx[i] += 1;
            if (win_idx[i] < max_windows) spare[newc++] = i;
        }
        int64_t *tmp = ring; ring = spare; spare = tmp;
        count = newc;
    }
    counters[0] += load_s;
    counters[1] += store_s;
    counters[2] += att;
    counters[3] += succ;
    counters[4] += warp;
    counters[5] = 0;
    free(scratch);
    return 0;
}

/* primitives/scatter.py fused histogram + stable scatter: computes the
 * stable bin-order permutation (src), per-bin counts, and exclusive
 * offsets in one pass -- identical to a stable argsort by bin id */
int repro_counting_scatter(const int64_t *bins, int64_t n, int64_t num_bins,
                           int64_t *src, int64_t *counts, int64_t *offsets) {
    int64_t *cursor = malloc((size_t)num_bins * sizeof(int64_t));
    if (!cursor) return 1;
    memset(counts, 0, (size_t)num_bins * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) counts[bins[i]] += 1;
    int64_t acc = 0;
    for (int64_t b = 0; b < num_bins; b++) {
        offsets[b] = acc;
        cursor[b] = acc;
        acc += counts[b];
    }
    for (int64_t i = 0; i < n; i++)
        src[cursor[bins[i]]++] = i;
    free(cursor);
    return 0;
}

/* multigpu/alltoall.py reverse-gather fill: expands per-partition
 * (base, count) ranges into the flat gather indices one source GPU's
 * answers come back through -- the concatenation of m arange runs */
int repro_reverse_gather(const int64_t *counts, const int64_t *bases,
                         int64_t num_parts, int64_t *out) {
    int64_t pos = 0;
    for (int64_t p = 0; p < num_parts; p++) {
        int64_t base = bases[p];
        int64_t count = counts[p];
        for (int64_t c = 0; c < count; c++)
            out[pos++] = base + c;
    }
    return 0;
}
"""

def _sigma_sentinel_words() -> tuple[int, int]:
    """EMPTY/TOMBSTONE words as the compact key plane stores them."""
    from ..hashing.mixers import fmix32

    hi = int(fmix32(np.asarray([0xFFFFFFFF], dtype=np.uint32))[0])
    return (hi << 32) | 0xFFFFFFFF, (hi << 32) | 0xFFFFFFFE


_CEMPTY, _CTOMB = _sigma_sentinel_words()
_SOURCE = _SOURCE_TEMPLATE.replace(
    "@CEMPTY@", f"0x{_CEMPTY:016X}ULL"
).replace("@CTOMB@", f"0x{_CTOMB:016X}ULL")

_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c11")

_U64P = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
_U32P = np.ctypeslib.ndpointer(np.uint32, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_I64P = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_I64 = ctypes.c_int64

_LIB = None
_LIB_FAILED = False


def _compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_JIT_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-jit"


def _cached_so() -> Path:
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    return _cache_dir() / f"repro_kernels_{digest}.so"


def _build_so(target: Path) -> None:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler found for the cc JIT provider")
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        csrc = Path(tmp) / "repro_kernels.c"
        csrc.write_text(_SOURCE)
        tmp_so = Path(tmp) / "repro_kernels.so"
        subprocess.run(
            [cc, *_CFLAGS, str(csrc), "-o", str(tmp_so)],
            check=True,
            capture_output=True,
        )
        os.replace(tmp_so, target)  # atomic: concurrent workers race safely


def _load_library():
    global _LIB, _LIB_FAILED
    if _LIB is not None:
        return _LIB
    if _LIB_FAILED:
        raise RuntimeError("cc JIT provider previously failed to build")
    so_path = _cached_so()
    try:
        if not so_path.exists():
            _build_so(so_path)
        lib = ctypes.CDLL(str(so_path))
    except Exception:
        _LIB_FAILED = True
        raise
    common = [_I64, _U64P, _U32P, _U32P, _I64, _I64, _I64, _I64]
    lib.repro_insert.argtypes = common + [
        _I64, _I64, _U32P, _U32P, _U32P, _U64P, _U8P, _I64P, _I64P,
    ]
    lib.repro_query.argtypes = common + [
        _I64, _U32P, _U32P, _U32P, _U32P, _U8P, _I64P, _I64P,
    ]
    lib.repro_erase.argtypes = common + [
        _I64, _U32P, _U32P, _U32P, _U8P, _I64P, _I64P,
    ]
    lib.repro_counting_scatter.argtypes = [
        _I64P, _I64, _I64, _I64P, _I64P, _I64P,
    ]
    lib.repro_reverse_gather.argtypes = [_I64P, _I64P, _I64, _I64P]
    for fn in (
        lib.repro_insert,
        lib.repro_query,
        lib.repro_erase,
        lib.repro_counting_scatter,
        lib.repro_reverse_gather,
    ):
        fn.restype = ctypes.c_int
    _LIB = lib
    return lib


def library_loads() -> bool:
    """True when the library builds (or is already cached) and loads.

    A failed build or load is remembered, so later calls in this
    process return False without retrying.
    """
    try:
        _load_library()
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return False
    return True


def _check(status: int) -> None:
    if status != 0:
        raise MemoryError("cc JIT kernel could not allocate scratch memory")


def build_loops(layout: str) -> dict:
    """The insert/query/erase loops bound to one slot layout.

    Each entry takes the arguments of its C prototype after the layout
    flag and raises on a non-zero status.  ``n`` rides in ``counters[5]``
    (callers pass six counter cells) to keep the ctypes prototypes
    uniform; the C side zeroes it before returning.
    """
    lib = _load_library()
    soa = {"aos": 0, "soa": 1, "compact": 2}[layout]

    def bind(fn):
        return lambda *args: _check(fn(soa, *args))

    return {
        "insert": bind(lib.repro_insert),
        "query": bind(lib.repro_query),
        "erase": bind(lib.repro_erase),
    }


def scatter_permutation_compiled(bins, n, num_bins, src, counts,
                                 offsets) -> None:
    """Fused histogram + stable bin-order permutation.

    Fills ``src`` (the stable argsort of ``bins``), ``counts``, and
    exclusive ``offsets`` in one C pass; the caller gathers values with
    ``out = arr[src]``, which keeps the path dtype-generic.
    """
    lib = _load_library()
    _check(lib.repro_counting_scatter(bins, n, num_bins, src, counts, offsets))


def reverse_gather_compiled(counts, bases, num_parts, out) -> None:
    """Expand per-partition (base, count) ranges into gather indices."""
    lib = _load_library()
    _check(lib.repro_reverse_gather(counts, bases, num_parts, out))
