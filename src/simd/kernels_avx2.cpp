// AVX2 kernels (see simd/hk_kernels.h for the stage map). Compiled into
// every x86-64 build via function-level target attributes - no per-file
// flags - and only ever called after cpuid reported AVX2 (simd/simd.cpp),
// so the surrounding translation unit stays baseline-ISA clean.
//
// Bit-identity is the contract: every helper below is an exact integer
// replication of the scalar code it replaces (common/hash.h math, the
// Prepare addressing, the Minimum scan priorities). AVX2 has no 64-bit
// lane multiply, so the 64x64 products are composed from _mm256_mul_epu32
// partials; the Lemire index reduction additionally exploits the w <= 2^29
// constructor clamp, which shrinks the 128-bit high product to two 32x32
// partials per row.
#include "simd/hash_batch.h"
#include "simd/hk_kernels.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#define HK_AVX2 __attribute__((target("avx2")))

namespace hk {
namespace simd {
namespace {

// x * y mod 2^64, per 64-bit lane: xl*yl + ((xh*yl + xl*yh) << 32).
HK_AVX2 inline __m256i MulLo64(__m256i x, __m256i y) {
  const __m256i xh = _mm256_srli_epi64(x, 32);
  const __m256i yh = _mm256_srli_epi64(y, 32);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(xh, y), _mm256_mul_epu32(x, yh));
  return _mm256_add_epi64(_mm256_mul_epu32(x, y), _mm256_slli_epi64(cross, 32));
}

// (x * y) >> 64, per 64-bit lane: four 32x32 partials with exact carries.
HK_AVX2 inline __m256i MulHi64(__m256i x, __m256i y) {
  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i xh = _mm256_srli_epi64(x, 32);
  const __m256i yh = _mm256_srli_epi64(y, 32);
  const __m256i ll = _mm256_mul_epu32(x, y);
  const __m256i hl = _mm256_mul_epu32(xh, y);
  const __m256i lh = _mm256_mul_epu32(x, yh);
  const __m256i hh = _mm256_mul_epu32(xh, yh);
  // mid terms cannot overflow: (2^32-1)^2 + (2^32-1) < 2^64.
  const __m256i mid = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
  const __m256i mid2 = _mm256_add_epi64(lh, _mm256_and_si256(mid, mask32));
  return _mm256_add_epi64(
      hh, _mm256_add_epi64(_mm256_srli_epi64(mid, 32), _mm256_srli_epi64(mid2, 32)));
}

// common/hash.h Mix64, lane-parallel.
HK_AVX2 inline __m256i Mix64V(__m256i x) {
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(0xd6e8feb86659fd93ULL));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 32));
  x = MulLo64(x, m);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 32));
  x = MulLo64(x, m);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 32));
  return x;
}

// common/hash.h HashU64 with a shared seed across the four lanes.
HK_AVX2 inline __m256i HashU64V(__m256i key, uint64_t seed) {
  const __m256i x =
      _mm256_xor_si256(key, _mm256_set1_epi64x(static_cast<long long>(0xa0761d6478bd642fULL)));
  const __m256i s = _mm256_set1_epi64x(static_cast<long long>(seed ^ 0xe7037ed1a0b428dbULL));
  return Mix64V(_mm256_xor_si256(MulLo64(x, s), MulHi64(x, s)));
}

HK_AVX2 inline uint32_t LaneMask8(__m256i cmp) {
  return static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(cmp)));
}

HK_AVX2 inline uint32_t LaneMask4(__m128i cmp) {
  return static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(cmp)));
}

// cnt <= limit, lane-parallel unsigned (AVX2 lacks an unsigned compare).
HK_AVX2 inline __m256i LeU32(__m256i cnt, __m256i limit) {
  return _mm256_cmpeq_epi32(_mm256_min_epu32(cnt, limit), cnt);
}

HK_AVX2 inline uint32_t HorizontalMinU32(__m256i v) {
  __m256i m = _mm256_min_epu32(v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  m = _mm256_min_epu32(m, _mm256_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm256_min_epu32(m, _mm256_permute2x128_si256(m, m, 1));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm256_castsi256_si128(m)));
}

HK_AVX2 inline uint32_t HorizontalMaxU32(__m256i v) {
  __m256i m = _mm256_max_epu32(v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  m = _mm256_max_epu32(m, _mm256_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm256_max_epu32(m, _mm256_permute2x128_si256(m, m, 1));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm256_castsi256_si128(m)));
}

// One gather + the shared per-lane classification. Prepared::idx[] is
// always 8 entries with zeros past n, so the full-width gather reads
// words[0] in the dead lanes; `lanemask` strips them from every verdict.
struct Classified {
  __m256i cnt;
  uint32_t match_mask;
  uint32_t empty_mask;
  uint32_t lanemask;
};

HK_AVX2 inline Classified Classify(const uint32_t* words, const uint32_t* idx, uint32_t n,
                                   uint32_t fpw, uint32_t cmask) {
  const __m256i vidx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  const __m256i word =
      _mm256_i32gather_epi32(reinterpret_cast<const int*>(words), vidx, 4);
  const __m256i cmaskv = _mm256_set1_epi32(static_cast<int>(cmask));
  const __m256i zero = _mm256_setzero_si256();
  Classified c;
  c.cnt = _mm256_and_si256(word, cmaskv);
  // Fingerprint match: (word ^ fpw) & ~cmask == 0; a live match also needs
  // cnt != 0 (the all-zero word is the empty bucket).
  const __m256i fp_eq = _mm256_cmpeq_epi32(
      _mm256_andnot_si256(cmaskv,
                          _mm256_xor_si256(word, _mm256_set1_epi32(static_cast<int>(fpw)))),
      zero);
  const __m256i emptyv = _mm256_cmpeq_epi32(c.cnt, zero);
  c.lanemask = n >= 8 ? 0xffu : ((1u << n) - 1u);
  c.empty_mask = LaneMask8(emptyv) & c.lanemask;
  c.match_mask = LaneMask8(_mm256_andnot_si256(emptyv, fp_eq)) & c.lanemask;
  return c;
}

}  // namespace

HK_AVX2 void ProbeMinimumAvx2(const uint32_t* words, const uint32_t* idx, uint32_t n,
                              uint32_t fpw, uint32_t cmask, uint32_t gate,
                              MinimumProbe* out) {
  const Classified c = Classify(words, idx, n, fpw, cmask);
  *out = MinimumProbe{};
  if (c.match_mask != 0) {
    out->first_match = __builtin_ctz(c.match_mask);
  }
  // Situation 1: the scalar scan returns on its first gate-open match, so
  // nothing later in lane order can matter once open_mask is non-zero.
  const uint32_t open_mask =
      c.match_mask & LaneMask8(LeU32(c.cnt, _mm256_set1_epi32(static_cast<int>(gate))));
  alignas(32) uint32_t cnts[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(cnts), c.cnt);
  if (open_mask != 0) {
    out->open_match = __builtin_ctz(open_mask);
    out->open_cnt = cnts[out->open_match];
    return;
  }
  if (c.empty_mask != 0) {
    out->first_empty = __builtin_ctz(c.empty_mask);
    return;  // situation 2 claims it; the min candidate is never consulted
  }
  // Situation 3: first smallest among decayable mismatches. Blocked matches
  // (gate-closed) and empty lanes are not candidates; force them (and dead
  // lanes) to UINT32_MAX, which no real counter reaches (cnt <= cmask <
  // 2^31 in the narrow-word layout).
  const uint32_t cand_mask = c.lanemask & ~c.match_mask & ~c.empty_mask;
  if (cand_mask == 0) {
    return;  // only blocked matches mapped: the unit falls through untouched
  }
  const __m256i lanebit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i candv = _mm256_cmpeq_epi32(
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(cand_mask)), lanebit), lanebit);
  const __m256i cnt_or =
      _mm256_or_si256(c.cnt, _mm256_xor_si256(candv, _mm256_set1_epi32(-1)));
  const uint32_t min_cnt = HorizontalMinU32(cnt_or);
  const uint32_t eq_mask =
      LaneMask8(_mm256_cmpeq_epi32(cnt_or, _mm256_set1_epi32(static_cast<int>(min_cnt))));
  out->min_lane = __builtin_ctz(eq_mask);  // first occurrence == scalar tie-break
  out->min_cnt = min_cnt;
}

namespace {

// d = 4 in the narrow-word layout is the probe's sweet spot and the common
// configuration, so it gets a dedicated 128-bit path: the gather has no
// dead lanes, the horizontal reductions are one shuffle shorter, and -
// because no ymm register is ever touched - the per-packet return needs no
// vzeroupper (the AVX-SSE transition guard gcc otherwise plants at the exit
// of every 256-bit function, a real cost at one call per packet).
// Four independent scalar loads composed into one vector. On current x86
// cores this beats vpgatherdd for a 4-lane probe: the gather's ~15-cycle
// microcoded latency sits on the critical path of the packet, while these
// loads issue two per cycle and overlap (the insert/unpack chain is 2-3
// shuffles).
HK_AVX2 inline __m128i GatherLanes4(const uint32_t* words, const uint32_t* idx) {
  return _mm_set_epi32(static_cast<int>(words[idx[3]]), static_cast<int>(words[idx[2]]),
                       static_cast<int>(words[idx[1]]), static_cast<int>(words[idx[0]]));
}

HK_AVX2 uint32_t InsertMinimum4Avx2(uint32_t* words, const uint32_t* idx, uint32_t fpw,
                                    uint32_t cmask, uint32_t gate, uint32_t counter_max,
                                    const DecayTable& decay, Rng& rng, bool* stuck,
                                    int* blocked_lane) {
  const __m128i word = GatherLanes4(words, idx);
  const __m128i cmaskv = _mm_set1_epi32(static_cast<int>(cmask));
  const __m128i zero = _mm_setzero_si128();
  const __m128i cnt = _mm_and_si128(word, cmaskv);
  const __m128i fp_eq = _mm_cmpeq_epi32(
      _mm_andnot_si128(cmaskv, _mm_xor_si128(word, _mm_set1_epi32(static_cast<int>(fpw)))),
      zero);
  const __m128i emptyv = _mm_cmpeq_epi32(cnt, zero);
  const uint32_t empty_mask = LaneMask4(emptyv);
  const uint32_t match_mask = LaneMask4(_mm_andnot_si128(emptyv, fp_eq));
  // Situation 1: first fingerprint match whose counter passes the gate.
  const __m128i gatev = _mm_set1_epi32(static_cast<int>(gate));
  const uint32_t open_mask =
      match_mask & LaneMask4(_mm_cmpeq_epi32(_mm_min_epu32(cnt, gatev), cnt));
  // Membership pending and the first match over the gate: hand the lane
  // back untouched (ApplyMinimumProbe's deferral).
  if (blocked_lane != nullptr && (match_mask & (0u - match_mask) & ~open_mask) != 0) {
    *blocked_lane = __builtin_ctz(match_mask);
    return 0;
  }
  alignas(16) uint32_t cnts[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(cnts), cnt);
  if (open_mask != 0) {
    const uint32_t lane = __builtin_ctz(open_mask);
    uint32_t c32 = cnts[lane];
    if (c32 < counter_max) {
      words[idx[lane]] += 1;
      ++c32;
    }
    return c32;
  }
  // Situation 2: claim the first empty mapped bucket.
  if (empty_mask != 0) {
    words[idx[__builtin_ctz(empty_mask)]] = fpw | 1u;
    return 1;
  }
  // Situation 3: one decay coin on the first smallest decayable mismatch.
  const uint32_t cand_mask = 0xfu & ~match_mask & ~empty_mask;
  if (cand_mask == 0) {
    return 0;  // only blocked matches mapped: the unit falls through
  }
  const __m128i lanebit = _mm_setr_epi32(1, 2, 4, 8);
  const __m128i candv = _mm_cmpeq_epi32(
      _mm_and_si128(_mm_set1_epi32(static_cast<int>(cand_mask)), lanebit), lanebit);
  const __m128i cnt_or = _mm_or_si128(cnt, _mm_xor_si128(candv, _mm_set1_epi32(-1)));
  __m128i m = _mm_min_epu32(cnt_or, _mm_shuffle_epi32(cnt_or, _MM_SHUFFLE(2, 3, 0, 1)));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  const uint32_t min_cnt = static_cast<uint32_t>(_mm_cvtsi128_si32(m));
  const uint32_t lane = __builtin_ctz(LaneMask4(_mm_cmpeq_epi32(cnt_or, m)));
  if (min_cnt >= decay.cutoff()) {
    *stuck = true;
    return 0;
  }
  if (decay.ShouldDecay(min_cnt, rng)) {
    if (min_cnt == 1) {
      words[idx[lane]] = fpw | 1u;
      return 1;
    }
    words[idx[lane]] -= 1;
  }
  return 0;
}

}  // namespace

HK_AVX2 uint32_t InsertMinimumAvx2(uint32_t* words, const uint32_t* idx, uint32_t n,
                                   uint32_t fpw, uint32_t cmask, uint32_t gate,
                                   uint32_t counter_max, const DecayTable& decay, Rng& rng,
                                   bool* stuck, int* blocked_lane) {
  if (n == 4) {
    return InsertMinimum4Avx2(words, idx, fpw, cmask, gate, counter_max, decay, rng, stuck,
                              blocked_lane);
  }
  // Expanded sketches (n in 5..8): the 256-bit probe inlines here (same TU,
  // same target), so the struct round-trip stays in registers.
  MinimumProbe probe;
  ProbeMinimumAvx2(words, idx, n, fpw, cmask, gate, &probe);
  return ApplyMinimumProbe(words, idx, probe, fpw, counter_max, decay, rng, stuck,
                           blocked_lane);
}

HK_AVX2 uint32_t ProbeQueryAvx2(const uint32_t* words, const uint32_t* idx, uint32_t n,
                                uint32_t fpw, uint32_t cmask) {
  if (n == 4) {
    // 128-bit twin of the lane math below (no dead gather lanes, no ymm).
    const __m128i word = GatherLanes4(words, idx);
    const __m128i cmaskv = _mm_set1_epi32(static_cast<int>(cmask));
    const __m128i zero = _mm_setzero_si128();
    const __m128i cnt = _mm_and_si128(word, cmaskv);
    const __m128i fp_eq = _mm_cmpeq_epi32(
        _mm_andnot_si128(cmaskv,
                         _mm_xor_si128(word, _mm_set1_epi32(static_cast<int>(fpw)))),
        zero);
    const __m128i matchv = _mm_andnot_si128(_mm_cmpeq_epi32(cnt, zero), fp_eq);
    const __m128i mcnt = _mm_and_si128(cnt, matchv);
    __m128i m = _mm_max_epu32(mcnt, _mm_shuffle_epi32(mcnt, _MM_SHUFFLE(2, 3, 0, 1)));
    m = _mm_max_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
    return static_cast<uint32_t>(_mm_cvtsi128_si32(m));
  }
  const Classified c = Classify(words, idx, n, fpw, cmask);
  if (c.match_mask == 0) {
    return 0;
  }
  const __m256i lanebit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i matchv = _mm256_cmpeq_epi32(
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(c.match_mask)), lanebit), lanebit);
  return HorizontalMaxU32(_mm256_and_si256(c.cnt, matchv));
}

namespace {

// Row index for 4 keys: ((a*key + b) * w) >> 64, then the absolute slab
// offset j*w. With w <= 2^29 the 128-bit high product collapses to
// (vh*w + ((vl*w) >> 32)) >> 32 - two partials, no carries possible.
HK_AVX2 inline __m256i RowIdx64(__m256i key, const SimdPrepareParams& params, uint32_t j,
                                __m256i wv) {
  const __m256i v = _mm256_add_epi64(
      MulLo64(key, _mm256_set1_epi64x(static_cast<long long>(params.mul[j]))),
      _mm256_set1_epi64x(static_cast<long long>(params.add[j])));
  const __m256i t = _mm256_srli_epi64(_mm256_mul_epu32(v, wv), 32);
  const __m256i hi = _mm256_srli_epi64(
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(v, 32), wv), t), 32);
  return _mm256_add_epi64(hi, _mm256_set1_epi64x(static_cast<long long>(j * params.w)));
}

// One transposed handle: 16B header (id, fp, n), 16B idx[0..3], 16B of
// zeroed dead gather lanes (which must stay in-slab).
HK_AVX2 inline void StorePrepared4(HeavyKeeper::Prepared& p, __m128i hd, __m128i ix) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&p), hd);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p.idx), ix);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p.idx + 4), _mm_setzero_si128());
}

}  // namespace

HK_AVX2 size_t PrepareBatchAvx2(const SimdPrepareParams& params, const FlowId* ids, size_t n,
                                HeavyKeeper::Prepared* out) {
  const uint32_t rows = params.rows;
  const __m256i wv = _mm256_set1_epi64x(static_cast<long long>(params.w));
  const __m256i one = _mm256_set1_epi64x(1);
  alignas(32) uint64_t fp_tmp[4];
  alignas(32) uint64_t idx_tmp[HeavyKeeper::kMaxPreparedArrays][4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i key = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    // Fingerprint: top fp_bits of HashU64(key, fp_seed), 0 remapped to 1.
    __m256i fp = _mm256_srli_epi64(HashU64V(key, params.fp_seed),
                                   static_cast<int>(64 - params.fp_bits));
    fp = _mm256_or_si256(
        fp, _mm256_and_si256(_mm256_cmpeq_epi64(fp, _mm256_setzero_si256()), one));
    if (rows == 4) {
      // Default-geometry fast path: transpose key-major row indices to
      // lane-major Prepared structs entirely in registers - 3 wide stores
      // per handle instead of 11 scalar ones. Each RowIdx64 lane is a
      // 64-bit value with a zeroed high half, so a 32-bit blend of row
      // j+1 shifted up interleaves two rows, and a 64-bit unpack of the
      // interleaved pairs yields one handle's idx[0..3] per 128-bit half.
      static_assert(offsetof(HeavyKeeper::Prepared, fp) == 8 &&
                        offsetof(HeavyKeeper::Prepared, n) == 12 &&
                        offsetof(HeavyKeeper::Prepared, idx) == 16 &&
                        HeavyKeeper::kMaxPreparedArrays == 8,
                    "Prepared layout drifted; fix the transposed stores");
      const __m256i i0 = RowIdx64(key, params, 0, wv);
      const __m256i i1 = RowIdx64(key, params, 1, wv);
      const __m256i i2 = RowIdx64(key, params, 2, wv);
      const __m256i i3 = RowIdx64(key, params, 3, wv);
      const __m256i pair01 = _mm256_blend_epi32(i0, _mm256_slli_epi64(i1, 32), 0xAA);
      const __m256i pair23 = _mm256_blend_epi32(i2, _mm256_slli_epi64(i3, 32), 0xAA);
      const __m256i lane02 = _mm256_unpacklo_epi64(pair01, pair23);
      const __m256i lane13 = _mm256_unpackhi_epi64(pair01, pair23);
      // Header halves: [id, fp | n<<32] per lane, same unpack pattern.
      const __m256i fpn =
          _mm256_or_si256(fp, _mm256_set1_epi64x(static_cast<long long>(4ULL << 32)));
      const __m256i hd02 = _mm256_unpacklo_epi64(key, fpn);
      const __m256i hd13 = _mm256_unpackhi_epi64(key, fpn);
      StorePrepared4(out[i], _mm256_castsi256_si128(hd02), _mm256_castsi256_si128(lane02));
      StorePrepared4(out[i + 1], _mm256_castsi256_si128(hd13),
                     _mm256_castsi256_si128(lane13));
      StorePrepared4(out[i + 2], _mm256_extracti128_si256(hd02, 1),
                     _mm256_extracti128_si256(lane02, 1));
      StorePrepared4(out[i + 3], _mm256_extracti128_si256(hd13, 1),
                     _mm256_extracti128_si256(lane13, 1));
      continue;
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(fp_tmp), fp);
    for (uint32_t j = 0; j < rows; ++j) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(idx_tmp[j]),
                         RowIdx64(key, params, j, wv));
    }
    for (size_t lane = 0; lane < 4; ++lane) {
      HeavyKeeper::Prepared& p = out[i + lane];
      p.id = ids[i + lane];
      p.fp = static_cast<uint32_t>(fp_tmp[lane]);
      p.n = rows;
      uint32_t j = 0;
      for (; j < rows; ++j) {
        p.idx[j] = static_cast<uint32_t>(idx_tmp[j][lane]);
      }
      for (; j < HeavyKeeper::kMaxPreparedArrays; ++j) {
        p.idx[j] = 0;  // dead gather lanes must stay in-slab
      }
    }
  }
  return i;
}

namespace {

// Lane-parallel Rotl (common/hash.cpp).
HK_AVX2 inline __m256i RotlV(__m256i x, int r) {
  return _mm256_or_si256(_mm256_slli_epi64(x, r), _mm256_srli_epi64(x, 64 - r));
}

HK_AVX2 inline __m256i MulC(__m256i x, uint64_t c) {
  return MulLo64(x, _mm256_set1_epi64x(static_cast<long long>(c)));
}

// Four fixed-stride slot loads composed into one vector. Plain loads plus
// inserts beat vpgatherqq decisively here: the gather's ~20-cycle latency
// sits on the critical path of every hash round, while four independent L1
// loads pipeline behind the multiply chain.
HK_AVX2 inline __m256i Load64x4(const uint8_t* p) {
  uint64_t k0;
  uint64_t k1;
  uint64_t k2;
  uint64_t k3;
  __builtin_memcpy(&k0, p, 8);
  __builtin_memcpy(&k1, p + kHashBatchStride, 8);
  __builtin_memcpy(&k2, p + 2 * kHashBatchStride, 8);
  __builtin_memcpy(&k3, p + 3 * kHashBatchStride, 8);
  return _mm256_set_epi64x(static_cast<long long>(k3), static_cast<long long>(k2),
                           static_cast<long long>(k1), static_cast<long long>(k0));
}

HK_AVX2 inline __m256i Load32x4(const uint8_t* p) {
  uint32_t k0;
  uint32_t k1;
  uint32_t k2;
  uint32_t k3;
  __builtin_memcpy(&k0, p, 4);
  __builtin_memcpy(&k1, p + kHashBatchStride, 4);
  __builtin_memcpy(&k2, p + 2 * kHashBatchStride, 4);
  __builtin_memcpy(&k3, p + 3 * kHashBatchStride, 4);
  return _mm256_set_epi64x(static_cast<long long>(k3), static_cast<long long>(k2),
                           static_cast<long long>(k1), static_cast<long long>(k0));
}

}  // namespace

HK_AVX2 size_t HashBytesBatchAvx2(const uint8_t* keys, size_t n, size_t len, uint64_t seed,
                                  uint64_t* out) {
  // Exact replication of common/hash.cpp's short-input path (len < 32):
  // h = seed + P5 + len, then 8-byte rounds, one 4-byte step, byte steps,
  // and the final avalanche - all per 64-bit lane, four key slots at a
  // time. Slot loads stay inside the 16-byte stride: an 8-byte round can
  // only start at offset 0 or 8, and the 4-byte step reads exactly 4 bytes.
  constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;
  constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
  constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint8_t* slot = keys + i * kHashBatchStride;
    __m256i h = _mm256_set1_epi64x(static_cast<long long>(seed + kPrime5 + len));
    size_t off = 0;
    size_t rem = len;
    while (rem >= 8) {
      const __m256i k = Load64x4(slot + off);
      // h ^= Round(0, k); h = Rotl(h, 27) * P1 + P4.
      h = _mm256_xor_si256(h, MulC(RotlV(MulC(k, kPrime2), 31), kPrime1));
      h = _mm256_add_epi64(MulC(RotlV(h, 27), kPrime1),
                           _mm256_set1_epi64x(static_cast<long long>(kPrime4)));
      off += 8;
      rem -= 8;
    }
    if (rem >= 4) {
      const __m256i k = Load32x4(slot + off);
      h = _mm256_xor_si256(h, MulC(k, kPrime1));
      h = _mm256_add_epi64(MulC(RotlV(h, 23), kPrime2),
                           _mm256_set1_epi64x(static_cast<long long>(kPrime3)));
      off += 4;
      rem -= 4;
    }
    while (rem > 0) {
      const __m256i b = _mm256_set_epi64x(slot[3 * kHashBatchStride + off],
                                          slot[2 * kHashBatchStride + off],
                                          slot[1 * kHashBatchStride + off], slot[off]);
      h = _mm256_xor_si256(h, MulC(b, kPrime5));
      h = MulC(RotlV(h, 11), kPrime1);
      ++off;
      --rem;
    }
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = MulC(h, kPrime2);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 29));
    h = MulC(h, kPrime3);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  return i;
}

}  // namespace simd
}  // namespace hk

#endif  // defined(__x86_64__) || defined(_M_X64)
