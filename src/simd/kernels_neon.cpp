// NEON kernels (aarch64). Advanced SIMD is part of the aarch64 baseline,
// so no target attributes or cpuid checks are needed - the dispatcher
// selects kNeon whenever the build is aarch64.
//
// Shape differences from the AVX2 file:
//   * The probe works on two 4-lane halves (no 256-bit registers) and
//     emulates the gather with vld1q_lane_u32 - NEON has no gather, but
//     four lane loads from prefetched lines still beat the scalar
//     load/compare/branch chain, and the classification, horizontal min
//     (vminvq_u32) and mask extraction (vaddvq_u32 over lane bits) are
//     genuinely vector.
//   * PrepareBatch stays scalar: the addressing is 64x64->128 multiplies,
//     which aarch64 does natively in two scalar instructions (mul + umulh)
//     while NEON has neither a 64-bit lane multiply nor a high-half
//     product - a vector "emulation" would be slower than the real thing.
//     The loop is unrolled two-wide so both multiply chains overlap.
//
// Bit-identity with the scalar path is the same contract as AVX2: exact
// integer replication, no decay coins drawn here.
#include "simd/hk_kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace hk {
namespace simd {
namespace {

// One bit per 32-bit lane (lane 0 -> bit 0), from a 0/all-ones compare.
inline uint32_t LaneMask4(uint32x4_t cmp, uint32_t shift) {
  const uint32x4_t bits = {1u << shift, 2u << shift, 4u << shift, 8u << shift};
  return vaddvq_u32(vandq_u32(cmp, bits));
}

// words[idx[base + lane]] for the four lanes; dead lanes load words[0]
// (idx[] is zero-filled past n, matching the AVX2 gather behaviour).
inline uint32x4_t GatherLanes(const uint32_t* words, const uint32_t* idx, uint32_t base) {
  uint32x4_t w = vdupq_n_u32(0);
  w = vld1q_lane_u32(words + idx[base + 0], w, 0);
  w = vld1q_lane_u32(words + idx[base + 1], w, 1);
  w = vld1q_lane_u32(words + idx[base + 2], w, 2);
  w = vld1q_lane_u32(words + idx[base + 3], w, 3);
  return w;
}

struct Classified4 {
  uint32x4_t cnt;
  uint32x4_t matchv;  // cnt != 0 && fingerprint equal (all-ones lanes)
  uint32x4_t emptyv;  // cnt == 0
};

inline Classified4 Classify4(const uint32_t* words, const uint32_t* idx, uint32_t base,
                             uint32_t fpw, uint32_t cmask) {
  const uint32x4_t word = GatherLanes(words, idx, base);
  const uint32x4_t cmaskv = vdupq_n_u32(cmask);
  Classified4 c;
  c.cnt = vandq_u32(word, cmaskv);
  const uint32x4_t fp_eq =
      vceqq_u32(vbicq_u32(veorq_u32(word, vdupq_n_u32(fpw)), cmaskv), vdupq_n_u32(0));
  c.emptyv = vceqq_u32(c.cnt, vdupq_n_u32(0));
  c.matchv = vbicq_u32(fp_eq, c.emptyv);
  return c;
}

}  // namespace

void ProbeMinimumNeon(const uint32_t* words, const uint32_t* idx, uint32_t n, uint32_t fpw,
                      uint32_t cmask, uint32_t gate, MinimumProbe* out) {
  const uint32_t lanemask = n >= 8 ? 0xffu : ((1u << n) - 1u);
  const Classified4 lo = Classify4(words, idx, 0, fpw, cmask);
  uint32_t match_mask = LaneMask4(lo.matchv, 0);
  uint32_t empty_mask = LaneMask4(lo.emptyv, 0);
  const uint32x4_t gatev = vdupq_n_u32(gate);
  uint32_t open_mask = match_mask & LaneMask4(vcleq_u32(lo.cnt, gatev), 0);
  uint32_t cnts[8] = {};
  vst1q_u32(cnts, lo.cnt);
  if (n > 4) {
    const Classified4 hi = Classify4(words, idx, 4, fpw, cmask);
    match_mask |= LaneMask4(hi.matchv, 4);
    empty_mask |= LaneMask4(hi.emptyv, 4);
    open_mask |= LaneMask4(hi.matchv, 4) & LaneMask4(vcleq_u32(hi.cnt, gatev), 4);
    vst1q_u32(cnts + 4, hi.cnt);
  }
  match_mask &= lanemask;
  empty_mask &= lanemask;
  open_mask &= lanemask;

  *out = MinimumProbe{};
  if (match_mask != 0) {
    out->first_match = __builtin_ctz(match_mask);
  }
  if (open_mask != 0) {
    out->open_match = __builtin_ctz(open_mask);
    out->open_cnt = cnts[out->open_match];
    return;
  }
  if (empty_mask != 0) {
    out->first_empty = __builtin_ctz(empty_mask);
    return;
  }
  const uint32_t cand_mask = lanemask & ~match_mask & ~empty_mask;
  if (cand_mask == 0) {
    return;
  }
  // First smallest decayable mismatch: force non-candidates to UINT32_MAX
  // (unreachable for a real counter: cnt <= cmask < 2^31), take the
  // horizontal min, then the first lane equal to it.
  uint32_t masked[8];
  for (uint32_t j = 0; j < 8; ++j) {
    masked[j] = (cand_mask >> j & 1u) ? cnts[j] : 0xffffffffu;
  }
  uint32x4_t minv = vld1q_u32(masked);
  if (n > 4) {
    minv = vminq_u32(minv, vld1q_u32(masked + 4));
  }
  const uint32_t min_cnt = vminvq_u32(minv);
  for (uint32_t j = 0; j < n; ++j) {
    if (masked[j] == min_cnt) {
      out->min_lane = static_cast<int>(j);
      out->min_cnt = min_cnt;
      return;
    }
  }
}

uint32_t InsertMinimumNeon(uint32_t* words, const uint32_t* idx, uint32_t n, uint32_t fpw,
                           uint32_t cmask, uint32_t gate, uint32_t counter_max,
                           const DecayTable& decay, Rng& rng, bool* stuck,
                           int* blocked_lane) {
  // Probe and transition in one call per packet (the probe inlines - same
  // TU); the coin draw stays scalar and in packet order, as everywhere.
  MinimumProbe probe;
  ProbeMinimumNeon(words, idx, n, fpw, cmask, gate, &probe);
  return ApplyMinimumProbe(words, idx, probe, fpw, counter_max, decay, rng, stuck,
                           blocked_lane);
}

uint32_t ProbeQueryNeon(const uint32_t* words, const uint32_t* idx, uint32_t n, uint32_t fpw,
                        uint32_t cmask) {
  // Callers guarantee n in [4, 8], so the low half is always fully live.
  const Classified4 lo = Classify4(words, idx, 0, fpw, cmask);
  uint32_t result = vmaxvq_u32(vandq_u32(lo.cnt, lo.matchv));
  if (n > 4) {
    const Classified4 hi = Classify4(words, idx, 4, fpw, cmask);
    uint32_t tmp[4];
    vst1q_u32(tmp, vandq_u32(hi.cnt, hi.matchv));
    for (uint32_t j = 4; j < n; ++j) {
      result = tmp[j - 4] > result ? tmp[j - 4] : result;
    }
  }
  return result;
}

size_t PrepareBatchNeon(const SimdPrepareParams& params, const FlowId* ids, size_t n,
                        HeavyKeeper::Prepared* out) {
  // Scalar mul/umulh unrolled two-wide (see the file comment). The math is
  // byte-for-byte HeavyKeeper::Prepare / common/hash.h.
  const uint32_t rows = params.rows;
  const auto one = [&](FlowId id, HeavyKeeper::Prepared* p) {
    p->id = id;
    const __uint128_t m = static_cast<__uint128_t>(id ^ 0xa0761d6478bd642fULL) *
                          (params.fp_seed ^ 0xe7037ed1a0b428dbULL);
    uint64_t h = static_cast<uint64_t>(m) ^ static_cast<uint64_t>(m >> 64);
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ULL;
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ULL;
    h ^= h >> 32;
    uint32_t fp = static_cast<uint32_t>(h >> (64 - params.fp_bits));
    p->fp = fp == 0 ? 1u : fp;
    p->n = rows;
    uint32_t j = 0;
    for (; j < rows; ++j) {
      const uint64_t v = params.mul[j] * id + params.add[j];
      const uint64_t row = static_cast<uint64_t>((static_cast<__uint128_t>(v) * params.w) >> 64);
      p->idx[j] = static_cast<uint32_t>(j * params.w + row);
    }
    for (; j < HeavyKeeper::kMaxPreparedArrays; ++j) {
      p->idx[j] = 0;
    }
  };
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    one(ids[i], &out[i]);
    one(ids[i + 1], &out[i + 1]);
  }
  return i;
}

}  // namespace simd
}  // namespace hk

#endif  // defined(__aarch64__)
