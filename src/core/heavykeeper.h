// HeavyKeeper: the paper's core data structure (Section III).
//
// d arrays of w buckets; each bucket holds a fingerprint field (FP) and a
// counter field (C). Per-packet behaviour for a mapped bucket (Figure 2):
//
//   Case 1  C == 0            -> claim the bucket: FP = Fi, C = 1
//   Case 2  C > 0, FP == Fi   -> C += 1
//   Case 3  C > 0, FP != Fi   -> decay C by 1 with probability b^-C; if C
//                                reaches 0, the new flow claims the bucket
//
// Storage layout: one contiguous cache-line-aligned slab (common/slab.h) in
// which each bucket is a single packed word - counter in the low
// CounterFieldBits() bits, fingerprint directly above it - sized 4 bytes
// when both fields fit in 32 bits (the paper's default 16+16 geometry) and
// 8 bytes otherwise. An empty bucket is the all-zero word. Array j occupies
// words [j*w, (j+1)*w), so the per-packet case logic is one word load, a
// mask/compare, and one word store; Section III-F expansion appends rows to
// the slab without disturbing the packing. The layout follows the
// data-plane formulations of Sivaraman et al. (heavy hitters entirely in
// the data plane) where bucket state must fit one memory word per stage.
//
// Three insertion disciplines are provided:
//   * InsertBasic    (Section III-B/C): apply the three cases to all d
//     mapped buckets.
//   * InsertParallel (Section III-E, Algorithm 1): Basic plus Optimization
//     II (selective increment - a matching bucket is only incremented when
//     the flow is monitored or C < nmin). Arrays stay independent, which is
//     what makes the scheme hardware-parallel.
//   * InsertMinimum  (Section IV, Algorithm 2): touch at most one bucket -
//     matching bucket, else first empty bucket, else decay only the
//     smallest mapped counter ("minimum decay").
//
// All inserts return the flow's estimate after the operation (HeavyK_V in
// the pseudo-code; 0 if the flow is held nowhere). Query() returns the
// max matching counter (Section III-B query).
//
// Section III-F: when a new flow meets d mapped counters that are all too
// large to decay (probability treated as zero), a global "stuck" counter is
// incremented; past a configurable threshold a (d+1)-th array is appended so
// late-arriving elephants regain a foothold.
//
// Counters are fixed-width (default 16 bits per the paper's setup) and
// saturate; fingerprints are non-zero so the all-zero word encodes an empty
// bucket.
#ifndef HK_CORE_HEAVYKEEPER_H_
#define HK_CORE_HEAVYKEEPER_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/decay.h"
#include "common/flow_key.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/slab.h"
#include "simd/simd.h"
#include "telemetry/telemetry.h"

namespace hk {

struct HeavyKeeperConfig {
  size_t d = 2;       // number of arrays (paper's experimental setting)
  size_t w = 1024;    // buckets per array
  double b = 1.08;    // exponential decay base (Section III-B)
  DecayFunction decay_function = DecayFunction::kExponential;
  uint32_t fingerprint_bits = 16;
  uint32_t counter_bits = 16;  // saturating (values above 32 behave as 32)

  uint64_t seed = 1;

  // Collapse an unmonitored weighted insert's decay coins into one
  // geometric sample per counter level (DecayTable::GeometricTrials):
  // O(counter) instead of O(weight). Statistically equivalent to the
  // per-unit replay but consumes the RNG stream differently, so it is
  // opt-in; the default preserves the bit-exact weighted == repeated-unit
  // contract of TopKAlgorithm::InsertWeighted.
  bool collapsed_weighted_decay = false;

  // Section III-F dynamic expansion. Disabled unless threshold > 0.
  // max_arrays is clamped to HeavyKeeper::kMaxPreparedArrays (8) so batch
  // handles can address every array with fixed storage.
  uint64_t expansion_threshold = 0;  // stuck events before adding an array
  size_t max_arrays = 8;

  // Hot-path kernel selection (simd/simd.h). Every kernel is bit-identical
  // to the scalar path, so this is a pure speed knob: it is not part of
  // the checkpoint identity and a blob saved under one kernel loads under
  // any other. kAuto resolves via cpuid at construction (overridable with
  // the HK_SIMD environment variable); an explicit kAvx2/kNeon throws when
  // the host lacks it.
  SimdMode simd = SimdMode::kAuto;

  // Width of the counter field inside the packed word. Counters are stored
  // in (at most) 32 bits; a configured width beyond that saturates at the
  // 32-bit limit exactly as the pre-slab uint32 bucket field did.
  uint32_t CounterFieldBits() const { return counter_bits < 32 ? counter_bits : 32; }

  // Bytes of one packed bucket word: 4 when fingerprint + counter fit in 32
  // bits, 8 otherwise. This is the actual slab stride, so FromMemory /
  // Builder byte budgets and MemoryBytes() describe real allocations.
  size_t BucketBytes() const {
    return fingerprint_bits + CounterFieldBits() <= 32 ? 4 : 8;
  }

  // Derive w from a byte budget, holding d and field widths fixed; this is
  // how every experiment sizes the sketch (Section VI-A).
  static HeavyKeeperConfig FromMemory(size_t bytes, size_t d = 2, uint64_t seed = 1);
};

class HeavyKeeper {
 public:
  explicit HeavyKeeper(const HeavyKeeperConfig& config);

  const HeavyKeeperConfig& config() const { return config_; }
  size_t num_arrays() const { return rows_; }
  size_t width() const { return config_.w; }

  // Sketch memory in bytes (arrays only; the top-k store is accounted by the
  // pipeline). Grows if expansion added arrays. Matches the slab allocation.
  size_t MemoryBytes() const { return rows_ * config_.w * word_bytes_; }

  // --- prepared handles (batch hot path) -------------------------------
  // The per-packet work splits into a pure addressing phase (fingerprint +
  // d bucket indices) and a mutation phase (the case logic). Prepare()
  // performs the addressing, Prefetch() pulls the mapped buckets toward the
  // core, and the *Prepared inserts run the mutation phase against the
  // precomputed addresses. Batch callers hash and prefetch a whole burst
  // before applying it, overlapping the DRAM misses of many packets; the
  // scalar inserts below are thin wrappers over the same path, so scalar
  // and batched streams mutate identical state in identical order.
  //
  // A handle stays valid until expansion adds an array (the *Prepared
  // inserts detect staleness and re-prepare), so handles can be computed
  // ahead of a burst safely. idx[] holds absolute slab word indices
  // (j * w + bucket), so the mutation loop is a single base + index access.
  static constexpr size_t kMaxPreparedArrays = 8;

  struct Prepared {
    FlowId id = 0;
    uint32_t fp = 0;
    uint32_t n = 0;  // arrays addressed when the handle was made
    uint32_t idx[kMaxPreparedArrays] = {};
  };

  Prepared Prepare(FlowId id) const {
    Prepared p;
    p.id = id;
    p.fp = fingerprint_(id);
    p.n = static_cast<uint32_t>(rows_);
    for (uint32_t j = 0; j < p.n; ++j) {
      p.idx[j] = static_cast<uint32_t>(j * config_.w + hashes_.Index(j, id, config_.w));
    }
    return p;
  }

  // Lane-parallel Prepare for a burst: fills out[0..n) bit-identically to
  // n scalar Prepare() calls, through the resolved SIMD kernel when one is
  // active (all d bucket indices + the fingerprint for 4 keys per AVX2
  // iteration). This is the batch pipelines' addressing stage.
  void PrepareBatch(const FlowId* ids, size_t n, Prepared* out) const;

  // Batched point query: out[i] = Query(ids[i]), with batch addressing and
  // the gather-compare probe. Feeds TopKAlgorithm::EstimateSizeBatch (the
  // WindowedTopK merge-and-rescore path).
  void QueryBatch(const FlowId* ids, size_t n, uint64_t* out) const;

  // The kernel construction resolved (SnapshotStats exposure).
  SimdKernel kernel() const { return kernel_; }

  // Re-resolve the kernel (used by LoadState to keep an instance's
  // configured mode across a deserialized-sketch swap; state is unaffected
  // because every kernel is bit-identical).
  void SetSimdMode(SimdMode mode);

  void Prefetch(const Prepared& p) const {
    const uint8_t* base = slab_.data();
    const size_t shift = word_bytes_ == 8 ? 3 : 2;
    for (uint32_t j = 0; j < p.n; ++j) {
      __builtin_prefetch(base + (static_cast<size_t>(p.idx[j]) << shift), /*rw=*/1,
                         /*locality=*/3);
    }
  }

  // --- insertion disciplines -------------------------------------------
  // `monitored` / `nmin` implement Optimization II's increment gate: a
  // matching bucket is incremented only when monitored || C <= nmin, which
  // caps an unmonitored flow's estimate at nmin + 1 - the exact admission
  // value Theorem 1 prescribes. Pass monitored=true to disable the gate
  // (Basic behaviour).
  //
  // `monitored` may also be a callable returning the membership bit. The
  // transition then asks it only where the gate reads it - at a matching
  // bucket whose counter exceeds nmin - so a pipeline pays its store lookup
  // on those packets alone (HeavyKeeperTopK::InsertPrepared). It may be
  // asked more than once per packet (Parallel), so it should memoize.
  template <std::predicate Monitored>
  uint32_t InsertParallelPrepared(const Prepared& p, Monitored&& monitored, uint64_t nmin);
  template <std::predicate Monitored>
  uint32_t InsertMinimumPrepared(const Prepared& p, Monitored&& monitored, uint64_t nmin);

  // Constant membership: monitored == true is the gate held open, which is
  // exactly nmin = UINT64_MAX for an untracked flow.
  uint32_t InsertParallelPrepared(const Prepared& p, bool monitored, uint64_t nmin) {
    return InsertParallelPrepared(p, NotMonitored{}, monitored ? kGateOpen : nmin);
  }
  uint32_t InsertMinimumPrepared(const Prepared& p, bool monitored, uint64_t nmin) {
    return InsertMinimumPrepared(p, NotMonitored{}, monitored ? kGateOpen : nmin);
  }
  uint32_t InsertBasicPrepared(const Prepared& p) {
    return InsertParallelPrepared(p, /*monitored=*/true, /*nmin=*/0);
  }
  uint32_t InsertBasic(FlowId id) { return InsertBasicPrepared(Prepare(id)); }
  uint32_t InsertParallel(FlowId id, bool monitored, uint64_t nmin) {
    return InsertParallelPrepared(Prepare(id), monitored, nmin);
  }
  uint32_t InsertMinimum(FlowId id, bool monitored, uint64_t nmin) {
    return InsertMinimumPrepared(Prepare(id), monitored, nmin);
  }

  // Weighted Basic insertion (library extension; Section III-F lists
  // weighted updates as unsupported in the paper). Equivalent to `weight`
  // consecutive unit insertions of the same flow, with the matching /
  // empty-bucket cases collapsed into O(1). The decay case performs the
  // same sequence of per-unit coin flips by default; with
  // config.collapsed_weighted_decay it instead samples one geometric
  // variable per counter level (statistically identical, O(counter) time).
  // Used for byte-count measurement, where a packet carries its size as the
  // weight. These are the semantics the TopKAlgorithm::InsertWeighted
  // contract (sketch/topk_algorithm.h) is promoted from.
  uint32_t InsertBasicWeighted(FlowId id, uint32_t weight);

  // --- weighted fast paths (for the pipelines' InsertWeighted) ----------
  // Apply `weight` units in O(d) when no decay coin would be flipped, i.e.
  // when every mapped bucket is empty, matching, or beyond the decay
  // cutoff (and at least one is empty/matching, so no stuck accounting is
  // due). Returns the resulting estimate, or 0 without touching any state
  // when a randomized transition is reachable and the caller must fall
  // back to per-unit insertion. Only valid with the Optimization II gate
  // open (monitored flows): an unmonitored flow's increments depend on the
  // evolving nmin.
  uint32_t TryParallelWeightedMonitored(const Prepared& p, uint64_t weight);
  uint32_t TryMinimumWeightedMonitored(const Prepared& p, uint64_t weight);

  // Collapsed run of `weight` InsertMinimum units for an *unmonitored* flow
  // under a fixed Optimization II gate (requires
  // config.collapsed_weighted_decay; expansion must be disabled so stuck
  // accounting cannot restructure the sketch mid-run). nmin is constant for
  // the whole run because an unmonitored flow never mutates the candidate
  // store before its admission - which is exactly where this run stops:
  // on true, *units_consumed units were applied and *admitted reports
  // whether the last unit produced estimate nmin + 1 (Theorem 1 admission;
  // the caller admits the flow and continues monitored). The deterministic
  // situations (gate-open match, empty claim, blocked no-ops) collapse to
  // arithmetic; minimum decay spends one geometric sample per counter level
  // (DecayTable::GeometricTrials) instead of one coin per unit. Returns
  // false without touching state when the run cannot apply.
  bool MinimumWeightedUnmonitoredRun(const Prepared& p, uint64_t weight, uint64_t nmin,
                                     uint64_t* units_consumed, bool* admitted);

  // Point query (Section III-B): max counter among mapped buckets whose
  // fingerprint matches; 0 means "reported as a mouse flow".
  uint32_t Query(FlowId id) const;

  // Section III-F instrumentation.
  uint64_t stuck_events() const { return stuck_events_; }
  uint64_t expansions() const { return expansions_; }

  // Deterministic decay stream: reseed to reproduce an experiment.
  void ReseedDecay(uint64_t seed) { rng_.Seed(seed); }

  struct Bucket {
    uint32_t fp = 0;
    uint32_t c = 0;

    bool operator==(const Bucket&) const = default;
  };

  // Test/diagnostic introspection: a copy of every bucket, per array,
  // unpacked from the slab words.
  std::vector<std::vector<Bucket>> DebugDump() const;

  // The slab as bytes: num_arrays() rows of w packed words, row after row,
  // BucketBytes() each. This is the serialization v2 payload verbatim, so
  // the codec copies it whole (core/serialization.h).
  std::span<const uint8_t> SlabImage() const { return {slab_.data(), MemoryBytes()}; }

  // The bucket index flow `id` maps to in array j (for tests constructing
  // collisions deliberately).
  uint64_t BucketIndex(size_t j, FlowId id) const { return hashes_.Index(j, id, config_.w); }

  // The fingerprint the sketch derives for `id`.
  uint32_t FingerprintOf(FlowId id) const { return fingerprint_(id); }

  // Rebuild a sketch from snapshotted state (see core/serialization.h):
  // `image` is a SlabImage() of config.d + expansions arrays, copied into
  // the slab as is. Returns nullopt when its size is not that geometry's
  // after the constructor's clamps on w and the field widths.
  static std::optional<HeavyKeeper> Restore(const HeavyKeeperConfig& config,
                                            std::span<const uint8_t> image,
                                            uint64_t stuck_events, uint64_t expansions);

 private:
  template <typename W>
  W* Words() {
    return reinterpret_cast<W*>(slab_.data());
  }
  template <typename W>
  const W* Words() const {
    return reinterpret_cast<const W*>(slab_.data());
  }

  // The membership callable of the constant-bool entry points.
  struct NotMonitored {
    bool operator()() const { return false; }
  };
  static constexpr uint64_t kGateOpen = ~0ULL;

  // Counter mask for the active word type; counter_bits_eff_ < bit-width
  // of W always holds (a 32-bit counter field forces the 8-byte word).
  template <typename W>
  static constexpr W CounterMask(uint32_t counter_bits) {
    return (static_cast<W>(1) << counter_bits) - 1;
  }

  template <typename W, typename Monitored>
  uint32_t InsertParallelImpl(const Prepared& p, Monitored& monitored, uint64_t nmin);
  template <typename W, typename Monitored>
  uint32_t InsertMinimumImpl(const Prepared& p, Monitored& monitored, uint64_t nmin);
  template <typename W>
  uint32_t InsertBasicWeightedImpl(const Prepared& p, uint32_t weight);
  template <typename W>
  uint32_t TryParallelWeightedImpl(const Prepared& p, uint64_t weight);
  template <typename W>
  uint32_t TryMinimumWeightedImpl(const Prepared& p, uint64_t weight);
  template <typename W>
  uint32_t QueryImpl(const Prepared& p) const;

  // One-shot vector Minimum insert over the narrow words, gate = nmin for
  // an untracked flow (core/heavykeeper.cpp). With `blocked` set, a packet
  // whose first fingerprint match is over the gate leaves the sketch
  // untouched and reports that lane, since membership alone decides it;
  // false means no vector kernel ran.
  bool InsertMinimumProbed(const Prepared& p, uint64_t nmin, int* blocked, uint32_t* estimate);
  uint32_t QueryPrepared(const Prepared& p) const;

  bool wide() const { return word_bytes_ == 8; }

  // True when the resolved kernel can probe this handle (narrow words,
  // d >= 4 - below that a gather cannot pay for itself).
  bool ProbeEligible(const Prepared& p) const {
    return kernel_ != SimdKernel::kScalar && word_bytes_ == 4 && p.n >= 4;
  }

  // Record a stuck event and expand with a fresh array if configured.
  void NoteStuck();

  // Rebuild prep_ from the hash family (construction, expansion, restore).
  void RefreshPrepareParams();

  HeavyKeeperConfig config_;
  uint32_t counter_bits_eff_;  // counter field width inside the word
  uint32_t counter_max_;
  size_t word_bytes_;
  SimdKernel kernel_ = SimdKernel::kScalar;  // resolved once at construction
  SimdPrepareParams prep_;  // addressing constants for the batch kernels
  const DecayTable* decay_;  // shared, immutable (SharedDecayTable)
  HashFamily hashes_;
  Fingerprinter fingerprint_;
  Rng rng_;
  Slab<uint8_t> slab_;  // rows_ * w packed words, cache-line aligned
  size_t rows_ = 0;
  uint64_t stuck_events_ = 0;
  uint64_t expansions_ = 0;
  uint64_t next_array_seed_;

  // Registry handles, resolved once at construction. Bumped only on the
  // decay/stuck branches (never the fingerprint-match fast path), so the
  // per-packet cost stays inside the micro_telemetry_overhead gate.
  telemetry::Counter* tm_decay_attempts_;
  telemetry::Counter* tm_decay_success_;
  telemetry::Counter* tm_stuck_events_;
  telemetry::Counter* tm_expansions_;
};

template <typename W, typename Monitored>
uint32_t HeavyKeeper::InsertParallelImpl(const Prepared& p, Monitored& monitored, uint64_t nmin) {
  W* const words = Words<W>();
  const uint32_t cb = counter_bits_eff_;
  const W cmask = CounterMask<W>(cb);
  const W fpw = static_cast<W>(p.fp) << cb;
  const uint32_t n = p.n;
  uint32_t estimate = 0;
  uint32_t immovable = 0;  // mapped buckets beyond the decay cutoff (Section III-F)

  for (uint32_t j = 0; j < n; ++j) {
    W& word = words[p.idx[j]];
    const W cnt = word & cmask;
    if (cnt == 0) {
      // Case 1: empty bucket; the flow claims it.
      word = fpw | static_cast<W>(1);
      estimate = std::max(estimate, 1u);
    } else if ((word ^ fpw) <= cmask) {
      // Case 2 (fingerprint match in the high bits), gated by Optimization
      // II (Algorithm 1, lines 11-14): an unmonitored flow may grow its
      // counter up to nmin + 1 (so Theorem 1 admission at exactly nmin + 1
      // can fire) but no further.
      uint32_t c32 = static_cast<uint32_t>(cnt);
      if (c32 <= nmin || monitored()) {
        if (c32 < counter_max_) {
          word = word + 1;
          ++c32;
        }
        estimate = std::max(estimate, c32);
      }
    } else {
      // Case 3: exponential-weakening decay - one table load + compare.
      const uint32_t c32 = static_cast<uint32_t>(cnt);
      if (c32 >= decay_->cutoff()) {
        ++immovable;
      } else {
        tm_decay_attempts_->Add();
        if (decay_->ShouldDecay(c32, rng_)) {
          tm_decay_success_->Add();
          if (cnt == 1) {
            word = fpw | static_cast<W>(1);
            estimate = std::max(estimate, 1u);
          } else {
            word = word - 1;
          }
        }
      }
    }
  }

  if (estimate == 0 && immovable == n) {
    NoteStuck();
  }
  return estimate;
}

template <std::predicate Monitored>
uint32_t HeavyKeeper::InsertParallelPrepared(const Prepared& p, Monitored&& monitored,
                                             uint64_t nmin) {
  if (p.n != rows_) {
    // The handle predates an expansion: re-address before mutating.
    return InsertParallelPrepared(Prepare(p.id), monitored, nmin);
  }
  return wide() ? InsertParallelImpl<uint64_t>(p, monitored, nmin)
                : InsertParallelImpl<uint32_t>(p, monitored, nmin);
}

template <typename W, typename Monitored>
uint32_t HeavyKeeper::InsertMinimumImpl(const Prepared& p, Monitored& monitored, uint64_t nmin) {
  W* const words = Words<W>();
  const uint32_t cb = counter_bits_eff_;
  const W cmask = CounterMask<W>(cb);
  const W fpw = static_cast<W>(p.fp) << cb;
  const uint32_t n = p.n;

  // Situation 1 (Algorithm 2, lines 10-15): a mapped bucket already holds
  // this fingerprint and may be incremented.
  int first_empty = -1;
  int min_j = -1;
  W min_count = 0;
  for (uint32_t j = 0; j < n; ++j) {
    W& word = words[p.idx[j]];
    const W cnt = word & cmask;
    if (cnt != 0 && (word ^ fpw) <= cmask) {
      uint32_t c32 = static_cast<uint32_t>(cnt);
      if (c32 <= nmin || monitored()) {
        if (c32 < counter_max_) {
          word = word + 1;
          ++c32;
        }
        return c32;
      }
      // Optimization II blocks this bucket; it is neither an empty slot nor
      // a decay candidate (Algorithm 2 leaves it untouched).
    } else if (cnt == 0) {
      if (first_empty < 0) {
        first_empty = static_cast<int>(j);
      }
    } else if (min_j < 0 || cnt < min_count) {
      min_j = static_cast<int>(j);
      min_count = cnt;
    }
  }

  // Situation 2 (lines 25-28): claim the first empty mapped bucket.
  if (first_empty >= 0) {
    words[p.idx[first_empty]] = fpw | static_cast<W>(1);
    return 1;
  }

  // Situation 3 (lines 30-35): minimum decay on the first smallest counter.
  if (min_j >= 0) {
    W& word = words[p.idx[min_j]];
    const uint32_t c32 = static_cast<uint32_t>(min_count);
    if (c32 >= decay_->cutoff()) {
      NoteStuck();
      return 0;
    }
    tm_decay_attempts_->Add();
    if (decay_->ShouldDecay(c32, rng_)) {
      tm_decay_success_->Add();
      if (min_count == 1) {
        word = fpw | static_cast<W>(1);
        return 1;
      }
      word = word - 1;
    }
  }
  return 0;
}

template <std::predicate Monitored>
uint32_t HeavyKeeper::InsertMinimumPrepared(const Prepared& p, Monitored&& monitored,
                                            uint64_t nmin) {
  if (p.n != rows_) {
    return InsertMinimumPrepared(Prepare(p.id), monitored, nmin);
  }
  if (ProbeEligible(p)) {
    // The kernel runs with the untracked flow's gate. Only a packet whose
    // first fingerprint match is over it depends on membership; the kernel
    // hands that one back untouched, so the lookup happens only there, and
    // the packet re-runs under its definite gate (open when monitored).
    constexpr bool kKnown = std::is_same_v<std::remove_cvref_t<Monitored>, NotMonitored>;
    int blocked = -1;
    uint32_t estimate = 0;
    if (InsertMinimumProbed(p, nmin, kKnown ? nullptr : &blocked, &estimate)) {
      if (blocked >= 0) {
        InsertMinimumProbed(p, monitored() ? kGateOpen : nmin, nullptr, &estimate);
      }
      return estimate;
    }
  }
  return wide() ? InsertMinimumImpl<uint64_t>(p, monitored, nmin)
                : InsertMinimumImpl<uint32_t>(p, monitored, nmin);
}

}  // namespace hk

#endif  // HK_CORE_HEAVYKEEPER_H_
