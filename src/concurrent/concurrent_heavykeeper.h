// Shared-slab HeavyKeeper: the PR 4 packed-word case logic re-expressed as
// single-word atomic transitions, so N inserter threads can mutate ONE
// d x w bucket slab without locks.
//
// Every bucket is still one packed word (counter low, fingerprint above;
// core/heavykeeper.h), and every Figure 2 case is a single-word RMW:
//
//   Case 1  empty bucket   -> CAS(0, fp|1)                 (claim)
//   Case 2  fp match       -> CAS(word, word + 1)          (gated raise)
//   Case 3  fp mismatch    -> CAS(word, word - 1 | fp|1)   (coin'd decay)
//
// A failed CAS means another thread moved the bucket between our load and
// our store; the insert re-reads and re-classifies the bucket under a
// bounded retry budget (kCasRetryBudget) and then gives up on the unit -
// dropping one unit under extreme contention keeps estimates lower bounds,
// which is the invariant everything downstream relies on. The pure raise
// path never needs an unbounded loop either: a racing raise of the same
// flow only means the counter is already higher, and the re-read sees it.
//
// Memory ordering: slab words are only ever counters - no pointer
// publication happens through them - so all RMWs are relaxed. Readers
// (Query/Snapshot) load whole words relaxed: a word is never torn (it is
// one atomic load), and a counter read mid-stream is a value the bucket
// actually passed through. Publication of "everything before the snapshot"
// is the front-end's job (ConcurrentTopK::Flush: drain + seq_cst fence),
// not the slab's. See README "Concurrency modes" for the full model.
//
// Determinism: with a single inserter thread no CAS ever fails, so every
// transition - including which decay coins are flipped, in which order -
// is exactly the sequential HeavyKeeper's. ConcurrentTopK exploits this
// for its threads=1 bit-equality guarantee.
//
// Expansion (Section III-F) is structurally incompatible with a shared
// slab (Resize moves the words other threads are CASing), so the
// constructor rejects configs with expansion_threshold != 0; stuck events
// are still counted (atomically) for instrumentation.
#ifndef HK_CONCURRENT_CONCURRENT_HEAVYKEEPER_H_
#define HK_CONCURRENT_CONCURRENT_HEAVYKEEPER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/decay.h"
#include "common/flow_key.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/slab.h"
#include "core/heavykeeper.h"
#include "telemetry/telemetry.h"

namespace hk {

class ConcurrentHeavyKeeper {
 public:
  // Rejects (std::invalid_argument) configs with expansion enabled; applies
  // the same clamps as the sequential HeavyKeeper constructor so a config
  // taken from a built HeavyKeeper reproduces identical geometry.
  explicit ConcurrentHeavyKeeper(const HeavyKeeperConfig& config);

  const HeavyKeeperConfig& config() const { return config_; }
  size_t num_arrays() const { return rows_; }
  size_t width() const { return config_.w; }
  size_t MemoryBytes() const { return rows_ * config_.w * word_bytes_; }

  // Addressing is identical to HeavyKeeper::Prepare (same hash family, same
  // fingerprinter, same seeds), so the shared slab maps every flow to the
  // same buckets the sequential sketch would - the geometry half of the
  // threads=1 bit-equality argument.
  using Prepared = HeavyKeeper::Prepared;

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

  void Prefetch(const Prepared& p) const {
    const uint8_t* base = slab_.data();
    const size_t shift = word_bytes_ == 8 ? 3 : 2;
    for (uint32_t j = 0; j < p.n; ++j) {
      __builtin_prefetch(base + (static_cast<size_t>(p.idx[j]) << shift), /*rw=*/1,
                         /*locality=*/3);
    }
  }

  // The three insertion disciplines, thread-safe over the shared slab. The
  // caller supplies its per-thread Rng: decay coins must never share a
  // generator across threads (Rng is not thread-safe, and sharing would
  // also destroy the threads=1 determinism).
  uint32_t InsertBasic(const Prepared& p, Rng& rng) {
    return InsertParallel(p, /*monitored=*/true, /*nmin=*/0, rng);
  }
  uint32_t InsertParallel(const Prepared& p, bool monitored, uint64_t nmin, Rng& rng);
  uint32_t InsertMinimum(const Prepared& p, bool monitored, uint64_t nmin, Rng& rng);

  // Point query (Section III-B): max matching counter over relaxed
  // whole-word loads; safe to call while inserters run (kRelaxed
  // semantics - a monotone lower bound of some passed-through state).
  uint32_t Query(FlowId id) const { return QueryPrepared(Prepare(id)); }
  uint32_t QueryPrepared(const Prepared& p) const;

  uint64_t stuck_events() const { return stuck_events_.load(std::memory_order_relaxed); }
  // Units abandoned because a bucket kept moving past the retry budget
  // (0 unless heavily contended; never possible with one thread).
  uint64_t dropped_units() const { return dropped_units_.load(std::memory_order_relaxed); }

  // Quiesced checkpoint hooks (ConcurrentTopK::SaveState/LoadState). The
  // caller must have stopped every inserter and issued its publish fence;
  // under that guarantee a plain byte copy of the slab is safe - the same
  // reasoning that lets quiesced queries read whole words non-atomically.
  std::span<const uint8_t> SlabImage() const { return {slab_.data(), slab_.size()}; }
  bool LoadSlab(std::span<const uint8_t> bytes) {
    if (bytes.size() != slab_.size()) {
      return false;
    }
    std::memcpy(slab_.data(), bytes.data(), bytes.size());
    return true;
  }
  void RestoreCounters(uint64_t stuck, uint64_t dropped) {
    stuck_events_.store(stuck, std::memory_order_relaxed);
    dropped_units_.store(dropped, std::memory_order_relaxed);
  }

 private:
  // Re-classify-and-retry bound per insert. 16 re-reads is far beyond any
  // realistic contention burst (a failed CAS implies another thread made
  // progress on this very bucket), and a finite bound keeps the per-packet
  // cost predictable - the property the paper's data-plane framing needs.
  static constexpr int kCasRetryBudget = 16;

  template <typename W>
  W* Words() {
    return reinterpret_cast<W*>(slab_.data());
  }
  template <typename W>
  const W* Words() const {
    return reinterpret_cast<const W*>(slab_.data());
  }

  template <typename W>
  uint32_t InsertParallelImpl(const Prepared& p, bool monitored, uint64_t nmin, Rng& rng);
  template <typename W>
  uint32_t InsertMinimumImpl(const Prepared& p, bool monitored, uint64_t nmin, Rng& rng);
  template <typename W>
  uint32_t QueryImpl(const Prepared& p) const;

  bool wide() const { return word_bytes_ == 8; }

  HeavyKeeperConfig config_;
  uint32_t counter_bits_eff_;
  uint32_t counter_max_;
  size_t word_bytes_;
  const DecayTable* decay_;  // shared, immutable (SharedDecayTable)
  HashFamily hashes_;
  Fingerprinter fingerprint_;
  Slab<uint8_t> slab_;  // rows_ * w packed words, mutated via atomic_ref
  size_t rows_ = 0;
  std::atomic<uint64_t> stuck_events_{0};
  std::atomic<uint64_t> dropped_units_{0};

  // Registry handles; bumped only on contended/stuck branches, never on a
  // first-try CAS success.
  telemetry::Counter* tm_cas_retries_;
  telemetry::Counter* tm_dropped_units_;
  telemetry::Counter* tm_stuck_events_;
};

}  // namespace hk

#endif  // HK_CONCURRENT_CONCURRENT_HEAVYKEEPER_H_
