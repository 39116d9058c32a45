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

#include <cstdint>
#include <optional>
#include <span>
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

  uint32_t InsertBasicPrepared(const Prepared& p) {
    return InsertParallelPrepared(p, /*monitored=*/true, /*nmin=*/0);
  }
  uint32_t InsertParallelPrepared(const Prepared& p, bool monitored, uint64_t nmin);
  uint32_t InsertMinimumPrepared(const Prepared& p, bool monitored, uint64_t nmin);

  // --- insertion disciplines -------------------------------------------
  // `monitored` / `nmin` implement Optimization II's increment gate: a
  // matching bucket is incremented only when monitored || C <= nmin, which
  // caps an unmonitored flow's estimate at nmin + 1 - the exact admission
  // value Theorem 1 prescribes. Pass monitored=true to disable the gate
  // (Basic behaviour).
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

  template <typename W>
  uint32_t InsertParallelImpl(const Prepared& p, bool monitored, uint64_t nmin);
  template <typename W>
  uint32_t InsertMinimumImpl(const Prepared& p, bool monitored, uint64_t nmin);
  template <typename W>
  uint32_t InsertBasicWeightedImpl(const Prepared& p, uint32_t weight);
  template <typename W>
  uint32_t TryParallelWeightedImpl(const Prepared& p, uint64_t weight);
  template <typename W>
  uint32_t TryMinimumWeightedImpl(const Prepared& p, uint64_t weight);
  template <typename W>
  uint32_t QueryImpl(const Prepared& p) const;

  // Narrow-word epilogues over a vector probe (core/heavykeeper.cpp); the
  // probe classifies the d mapped words in one gather+compare, the
  // epilogue applies the scalar-identical transition (coins drawn here,
  // never in the kernel).
  uint32_t InsertMinimumProbed(const Prepared& p, bool monitored, uint64_t nmin);
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

}  // namespace hk

#endif  // HK_CORE_HEAVYKEEPER_H_
