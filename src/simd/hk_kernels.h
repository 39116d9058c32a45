// Vector kernels for the HeavyKeeper hot path (see simd/simd.h for the
// dispatch model). Three stages are vectorized:
//
//   1. PrepareBatch - lane-parallel seeded hashing: the fingerprint
//      (HashU64 + Mix64) and all d bucket indices (multiply-shift +
//      Lemire reduction) for 4 keys per AVX2 iteration. Exact integer
//      replication of HeavyKeeper::Prepare, so handles are bit-identical.
//   2. ProbeMinimum / ProbeQuery - gather-compare over the d mapped packed
//      words: one gather, one xor+mask fingerprint test per lane, and a
//      horizontal min (first-smallest decay candidate) or max (query)
//      instead of a d-iteration pointer-chasing loop. Narrow (4-byte)
//      words only - the wide-word layout stays on the scalar loop, as do
//      d < 4 sketches where a gather cannot pay for itself.
//   3. HashBytesBatch (simd/hash_batch.h) - the TraceReplayer key hash.
//
// Basic/Parallel inserts keep the scalar apply loop: every mapped bucket
// mutates, so the bottleneck is the d scattered *stores* (AVX2 has no
// scatter) - only the Minimum discipline's scan-then-touch-one shape gives
// the gather something to win. Decay coins are never drawn here; the
// epilogues in core/heavykeeper.cpp draw them scalar, in packet order,
// which is what keeps every kernel bit-identical to the scalar path.
#ifndef HK_SIMD_HK_KERNELS_H_
#define HK_SIMD_HK_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "core/heavykeeper.h"
#include "simd/simd.h"

namespace hk {
namespace simd {

// Scan result for the Minimum discipline (Algorithm 2's three situations,
// resolved lane-parallel). Lane numbers follow array order j, so "first"
// below means exactly what the scalar scan's early-exit/first-hit logic
// computes.
struct MinimumProbe {
  int first_match = -1;    // first lane with a fingerprint match, open or
                           // blocked by the gate
  int open_match = -1;     // first lane with a fingerprint match whose
                           // counter passes the Optimization II gate
  uint32_t open_cnt = 0;   // that lane's counter field
  int first_empty = -1;    // first empty lane (cnt == 0), valid only when
                           // open_match < 0
  int min_lane = -1;       // first smallest decayable-mismatch lane, valid
                           // only when open_match < 0 and first_empty < 0
  uint32_t min_cnt = 0;
};

// Vector scan over the n (4..8) mapped narrow words. `gate` is the
// Optimization II increment gate as a saturated 32-bit value (UINT32_MAX
// when monitored). Returns false when `kernel` has no vector probe (scalar,
// or unavailable in this build) - the caller falls back to the scalar loop.
bool ProbeMinimum(SimdKernel kernel, const uint32_t* words, const uint32_t* idx, uint32_t n,
                  uint32_t fpw, uint32_t cmask, uint32_t gate, MinimumProbe* out);

// Scalar-identical transition over a resolved probe: increment the open
// match, claim the first empty bucket, or flip the single decay coin on the
// min lane (the only place the RNG advances - in packet order, exactly as
// the scalar loop would). Inline here so each ISA's one-shot insert kernel
// folds it into the same frame as its probe; `*stuck` reports the
// immovable-rows outcome so the caller can run NoteStuck().
//
// `blocked_lane` non-null means the probe ran with an untracked flow's gate
// but membership is not yet known. A monitored flow would take the first
// match whatever its counter, so when that lane is over the gate the
// transition depends on membership: report the lane and touch nothing. Any
// other packet is decided without it.
inline uint32_t ApplyMinimumProbe(uint32_t* words, const uint32_t* idx,
                                  const MinimumProbe& probe, uint32_t fpw,
                                  uint32_t counter_max, const DecayTable& decay, Rng& rng,
                                  bool* stuck, int* blocked_lane) {
  if (blocked_lane != nullptr && probe.first_match != probe.open_match) {
    *blocked_lane = probe.first_match;
    return 0;
  }
  if (probe.open_match >= 0) {
    uint32_t c32 = probe.open_cnt;
    if (c32 < counter_max) {
      words[idx[probe.open_match]] += 1;
      ++c32;
    }
    return c32;
  }
  if (probe.first_empty >= 0) {
    words[idx[probe.first_empty]] = fpw | 1u;
    return 1;
  }
  if (probe.min_lane >= 0) {
    const uint32_t c32 = probe.min_cnt;
    if (c32 >= decay.cutoff()) {
      *stuck = true;
      return 0;
    }
    if (decay.ShouldDecay(c32, rng)) {
      if (c32 == 1) {
        words[idx[probe.min_lane]] = fpw | 1u;
        return 1;
      }
      words[idx[probe.min_lane]] -= 1;
    }
  }
  return 0;
}

// One-shot vector Minimum insert: probe + transition + coin in a single
// call per packet. This is the hot-path entry - the per-call boundary cost
// (argument setup, the AVX ymm state transition) is paid once instead of
// once for the probe and again for the epilogue, and the d = 4 case runs
// entirely in 128-bit registers. Same fallback contract as the probes:
// false means "run the scalar loop". Defined below (inline, after the
// per-ISA declarations) so the dispatch branch folds into the caller and
// the packet costs exactly one call. `blocked_lane` is ApplyMinimumProbe's
// deferral (nullptr: the gate is final).
bool InsertMinimumVec(SimdKernel kernel, uint32_t* words, const uint32_t* idx, uint32_t n,
                      uint32_t fpw, uint32_t cmask, uint32_t gate, uint32_t counter_max,
                      const DecayTable& decay, Rng& rng, uint32_t* estimate, bool* stuck,
                      int* blocked_lane);

// Vector point query over the n (4..8) mapped narrow words: max counter
// among fingerprint-matching lanes. Same fallback contract as above.
bool ProbeQuery(SimdKernel kernel, const uint32_t* words, const uint32_t* idx, uint32_t n,
                uint32_t fpw, uint32_t cmask, uint32_t* best);

// Lane-parallel Prepare: fills out[0..r) bit-identically to r calls of
// HeavyKeeper::Prepare and returns r, a multiple of the kernel's lane
// count (0 for the scalar kernel); the caller prepares the tail itself.
size_t PrepareBatch(SimdKernel kernel, const SimdPrepareParams& params, const FlowId* ids,
                    size_t n, HeavyKeeper::Prepared* out);

// --- per-ISA entry points (defined in kernels_<isa>.cpp) ----------------
#if defined(__x86_64__) || defined(_M_X64)
void ProbeMinimumAvx2(const uint32_t* words, const uint32_t* idx, uint32_t n, uint32_t fpw,
                      uint32_t cmask, uint32_t gate, MinimumProbe* out);
uint32_t ProbeQueryAvx2(const uint32_t* words, const uint32_t* idx, uint32_t n, uint32_t fpw,
                        uint32_t cmask);
uint32_t InsertMinimumAvx2(uint32_t* words, const uint32_t* idx, uint32_t n, uint32_t fpw,
                           uint32_t cmask, uint32_t gate, uint32_t counter_max,
                           const DecayTable& decay, Rng& rng, bool* stuck,
                           int* blocked_lane);
size_t PrepareBatchAvx2(const SimdPrepareParams& params, const FlowId* ids, size_t n,
                        HeavyKeeper::Prepared* out);
#endif
#if defined(__aarch64__)
void ProbeMinimumNeon(const uint32_t* words, const uint32_t* idx, uint32_t n, uint32_t fpw,
                      uint32_t cmask, uint32_t gate, MinimumProbe* out);
uint32_t ProbeQueryNeon(const uint32_t* words, const uint32_t* idx, uint32_t n, uint32_t fpw,
                        uint32_t cmask);
uint32_t InsertMinimumNeon(uint32_t* words, const uint32_t* idx, uint32_t n, uint32_t fpw,
                           uint32_t cmask, uint32_t gate, uint32_t counter_max,
                           const DecayTable& decay, Rng& rng, bool* stuck,
                           int* blocked_lane);
size_t PrepareBatchNeon(const SimdPrepareParams& params, const FlowId* ids, size_t n,
                        HeavyKeeper::Prepared* out);
#endif

inline bool InsertMinimumVec(SimdKernel kernel, uint32_t* words, const uint32_t* idx,
                             uint32_t n, uint32_t fpw, uint32_t cmask, uint32_t gate,
                             uint32_t counter_max, const DecayTable& decay, Rng& rng,
                             uint32_t* estimate, bool* stuck, int* blocked_lane) {
#if defined(__x86_64__) || defined(_M_X64)
  if (kernel == SimdKernel::kAvx2) {
    *estimate = InsertMinimumAvx2(words, idx, n, fpw, cmask, gate, counter_max, decay, rng,
                                  stuck, blocked_lane);
    return true;
  }
#endif
#if defined(__aarch64__)
  if (kernel == SimdKernel::kNeon) {
    *estimate = InsertMinimumNeon(words, idx, n, fpw, cmask, gate, counter_max, decay, rng,
                                  stuck, blocked_lane);
    return true;
  }
#endif
  (void)kernel;
  (void)words;
  (void)idx;
  (void)n;
  (void)fpw;
  (void)cmask;
  (void)gate;
  (void)counter_max;
  (void)decay;
  (void)rng;
  (void)estimate;
  (void)stuck;
  (void)blocked_lane;
  return false;
}

}  // namespace simd
}  // namespace hk

#endif  // HK_SIMD_HK_KERNELS_H_
