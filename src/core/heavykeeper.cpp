#include "core/heavykeeper.h"

#include <algorithm>
#include <cstring>

#include "simd/hk_kernels.h"

namespace hk {

HeavyKeeperConfig HeavyKeeperConfig::FromMemory(size_t bytes, size_t d, uint64_t seed) {
  HeavyKeeperConfig config;
  config.d = d;
  config.seed = seed;
  config.w = std::max<size_t>(bytes / (config.BucketBytes() * d), 1);
  return config;
}

HeavyKeeper::HeavyKeeper(const HeavyKeeperConfig& config)
    : config_(config),
      hashes_(std::min(config.d, kMaxPreparedArrays), config.seed),
      fingerprint_(std::clamp(config.fingerprint_bits, 1u, 32u),
                   Mix64(config.seed ^ 0xf1e2d3c4b5a69788ULL)),
      rng_(config.seed ^ 0xdeca1decaf00dULL) {
  config_.max_arrays = std::min(config_.max_arrays, kMaxPreparedArrays);
  config_.d = std::min(config_.d, kMaxPreparedArrays);
  config_.fingerprint_bits = std::clamp(config_.fingerprint_bits, 1u, 32u);
  // Prepared handles store absolute slab word indices in uint32_t: cap w so
  // even a fully expanded sketch stays addressable (the cap is ~536M
  // buckets per array, far past any realistic byte budget).
  config_.w = std::min<size_t>(config_.w, (uint64_t{1} << 32) / kMaxPreparedArrays);
  counter_bits_eff_ = config_.CounterFieldBits();
  counter_max_ =
      counter_bits_eff_ >= 32 ? ~0u : ((1u << counter_bits_eff_) - 1);
  word_bytes_ = config_.BucketBytes();
  decay_ = &SharedDecayTable(config_.decay_function, config_.b);
  kernel_ = ResolveSimdKernel(config_.simd);
  rows_ = config_.d;
  slab_.Resize(rows_ * config_.w * word_bytes_);
  SplitMix64 sm(config_.seed ^ 0xa88a0eedULL);
  next_array_seed_ = sm.Next();
  RefreshPrepareParams();
  telemetry::Registry& registry = telemetry::Registry::Get();
  tm_decay_attempts_ = registry.GetCounter(
      "hk_core_decay_attempts_total",
      "Per-unit decay coin flips (Case 3 / Situation 3; collapsed weighted decay and "
      "in-kernel SIMD coins are not counted)");
  tm_decay_success_ = registry.GetCounter("hk_core_decay_success_total",
                                          "Decay coins that came up heads (counter "
                                          "decremented or bucket claimed)");
  tm_stuck_events_ = registry.GetCounter(
      "hk_core_stuck_events_total",
      "Packets whose mapped buckets were all beyond the decay cutoff (Section III-F)");
  tm_expansions_ = registry.GetCounter(
      "hk_core_expansions_total", "Section III-F expansions (arrays appended to the slab)");
}

void HeavyKeeper::RefreshPrepareParams() {
  prep_.fp_seed = fingerprint_.seed();
  prep_.fp_bits = fingerprint_.bits();
  prep_.rows = static_cast<uint32_t>(rows_);
  prep_.w = config_.w;
  for (size_t j = 0; j < rows_ && j < kMaxPreparedArrays; ++j) {
    prep_.mul[j] = hashes_.fn(j).mul();
    prep_.add[j] = hashes_.fn(j).add();
  }
}

void HeavyKeeper::SetSimdMode(SimdMode mode) {
  config_.simd = mode;
  kernel_ = ResolveSimdKernel(mode);
}

void HeavyKeeper::PrepareBatch(const FlowId* ids, size_t n, Prepared* out) const {
  size_t done = simd::PrepareBatch(kernel_, prep_, ids, n, out);
  for (; done < n; ++done) {
    out[done] = Prepare(ids[done]);
  }
}

std::optional<HeavyKeeper> HeavyKeeper::Restore(const HeavyKeeperConfig& config,
                                                std::span<const uint8_t> image,
                                                uint64_t stuck_events, uint64_t expansions) {
  HeavyKeeper sketch(config);
  // Replay the expansion seed chain so added arrays hash identically.
  for (uint64_t e = 0; e < expansions; ++e) {
    sketch.hashes_.Add(sketch.next_array_seed_);
    sketch.next_array_seed_ = Mix64(sketch.next_array_seed_ + 1);
  }
  sketch.rows_ = sketch.config_.d + expansions;
  if (image.size() != sketch.rows_ * sketch.config_.w * sketch.word_bytes_) {
    return std::nullopt;
  }
  sketch.slab_.Resize(image.size());
  std::memcpy(sketch.slab_.data(), image.data(), image.size());
  sketch.stuck_events_ = stuck_events;
  sketch.expansions_ = expansions;
  sketch.RefreshPrepareParams();
  return sketch;
}

std::vector<std::vector<HeavyKeeper::Bucket>> HeavyKeeper::DebugDump() const {
  std::vector<std::vector<Bucket>> out(rows_, std::vector<Bucket>(config_.w));
  const uint32_t cb = counter_bits_eff_;
  for (size_t j = 0; j < rows_; ++j) {
    for (size_t i = 0; i < config_.w; ++i) {
      const uint64_t word = wide() ? Words<uint64_t>()[j * config_.w + i]
                                   : Words<uint32_t>()[j * config_.w + i];
      out[j][i].fp = static_cast<uint32_t>(word >> cb);
      out[j][i].c = static_cast<uint32_t>(word & CounterMask<uint64_t>(cb));
    }
  }
  return out;
}

void HeavyKeeper::NoteStuck() {
  ++stuck_events_;
  tm_stuck_events_->Add();
  if (config_.expansion_threshold == 0 || rows_ >= config_.max_arrays) {
    return;
  }
  if (stuck_events_ >= config_.expansion_threshold) {
    stuck_events_ = 0;
    ++expansions_;
    tm_expansions_->Add();
    hashes_.Add(next_array_seed_);
    next_array_seed_ = Mix64(next_array_seed_ + 1);
    ++rows_;
    slab_.Resize(rows_ * config_.w * word_bytes_);  // appended row is zeroed
    RefreshPrepareParams();
  }
}

template <typename W>
uint32_t HeavyKeeper::InsertBasicWeightedImpl(const Prepared& p, uint32_t weight) {
  W* const words = Words<W>();
  const uint32_t cb = counter_bits_eff_;
  const W cmask = CounterMask<W>(cb);
  const W fpw = static_cast<W>(p.fp) << cb;
  const uint32_t n = p.n;
  uint32_t estimate = 0;
  uint32_t immovable = 0;

  for (uint32_t j = 0; j < n; ++j) {
    W& word = words[p.idx[j]];
    const W cnt = word & cmask;
    if (cnt != 0 && (word ^ fpw) > cmask) {
      // Case 3, per unit: each of the `weight` units flips one decay coin
      // at the *current* counter value, exactly as unit insertions would.
      // Beyond the cutoff nothing can move (and never will, since the
      // counter only shrinks below it through these same coins).
      uint32_t c = static_cast<uint32_t>(cnt);
      if (c >= decay_->cutoff()) {
        ++immovable;
        continue;
      }
      uint64_t remaining = weight;
      if (config_.collapsed_weighted_decay) {
        // Geometric collapse: one sample per counter level instead of one
        // coin per unit (statistically identical, bit-identical at
        // weight 1; see DecayTable::DecayRun).
        decay_->DecayRun(&c, &remaining, rng_);
      } else {
        const uint32_t c0 = c;
        uint64_t coins = 0;
        while (remaining > 0 && c > 0) {
          --remaining;
          ++coins;
          if (decay_->ShouldDecay(c, rng_) && --c == 0) {
            break;
          }
        }
        tm_decay_attempts_->Add(coins);
        tm_decay_success_->Add(c0 - c);
      }
      if (c > 0) {
        word = (word & ~cmask) | static_cast<W>(c);
        continue;  // survived the whole weight
      }
      // The flow claims the bucket; the rest of the weight counts for it.
      const uint32_t claimed =
          static_cast<uint32_t>(std::min<uint64_t>(remaining + 1, counter_max_));
      word = fpw | static_cast<W>(claimed);
      estimate = std::max(estimate, claimed);
      continue;
    }
    // Cases 1 and 2 collapse: an empty or matching bucket absorbs the whole
    // weight at once.
    const uint32_t grown = static_cast<uint32_t>(
        std::min<uint64_t>(static_cast<uint64_t>(cnt) + weight, counter_max_));
    word = fpw | static_cast<W>(grown);
    estimate = std::max(estimate, grown);
  }

  if (estimate == 0 && immovable == n) {
    NoteStuck();
  }
  return estimate;
}

uint32_t HeavyKeeper::InsertBasicWeighted(FlowId id, uint32_t weight) {
  if (weight == 0) {
    return Query(id);
  }
  const Prepared p = Prepare(id);
  return wide() ? InsertBasicWeightedImpl<uint64_t>(p, weight)
                : InsertBasicWeightedImpl<uint32_t>(p, weight);
}

// One-shot vector Minimum insert: the kernel resolves Algorithm 2's three
// situations in one gather + compare + horizontal min AND applies the
// scalar-identical transition in the same call (simd::ApplyMinimumProbe) -
// one kernel entry per packet instead of probe-out/epilogue-in. The decay
// coin is drawn inside the kernel but stays scalar and in packet order, so
// the RNG stream matches the scalar path exactly; only NoteStuck() (which
// may restructure the sketch) is applied here.
bool HeavyKeeper::InsertMinimumProbed(const Prepared& p, uint64_t nmin, int* blocked,
                                      uint32_t* estimate) {
  const uint32_t cb = counter_bits_eff_;
  const uint32_t gate = static_cast<uint32_t>(std::min<uint64_t>(nmin, ~0u));
  bool stuck = false;
  if (!simd::InsertMinimumVec(kernel_, Words<uint32_t>(), p.idx, p.n, p.fp << cb,
                              CounterMask<uint32_t>(cb), gate, counter_max_, *decay_, rng_,
                              estimate, &stuck, blocked)) {
    return false;
  }
  if (stuck) {
    NoteStuck();
  }
  return true;
}

template <typename W>
uint32_t HeavyKeeper::TryParallelWeightedImpl(const Prepared& p, uint64_t weight) {
  W* const words = Words<W>();
  const uint32_t cb = counter_bits_eff_;
  const W cmask = CounterMask<W>(cb);
  const W fpw = static_cast<W>(p.fp) << cb;
  const uint32_t n = p.n;
  // Scan first: the whole weight is applied only when every mapped bucket
  // is deterministic (empty, matching, or an immovable mismatch) and at
  // least one of them absorbs the units, mirroring what `weight` unit
  // insertions would do without ever flipping a decay coin.
  bool absorbs = false;
  for (uint32_t j = 0; j < n; ++j) {
    const W word = words[p.idx[j]];
    const W cnt = word & cmask;
    if (cnt == 0 || (word ^ fpw) <= cmask) {
      absorbs = true;
    } else if (static_cast<uint32_t>(cnt) < decay_->cutoff()) {
      return 0;  // decayable mismatch: per-unit coins required
    }
  }
  if (!absorbs) {
    return 0;  // all immovable: unit path owns the stuck accounting
  }
  uint32_t estimate = 0;
  for (uint32_t j = 0; j < n; ++j) {
    W& word = words[p.idx[j]];
    const W cnt = word & cmask;
    if (cnt == 0 || (word ^ fpw) <= cmask) {
      const uint32_t grown = static_cast<uint32_t>(
          std::min<uint64_t>(static_cast<uint64_t>(cnt) + weight, counter_max_));
      word = fpw | static_cast<W>(grown);
      estimate = std::max(estimate, grown);
    }
  }
  return estimate;
}

uint32_t HeavyKeeper::TryParallelWeightedMonitored(const Prepared& p, uint64_t weight) {
  if (p.n != rows_) {
    return TryParallelWeightedMonitored(Prepare(p.id), weight);
  }
  if (weight == 0) {
    return 0;  // nothing to collapse; let the caller's unit loop no-op
  }
  return wide() ? TryParallelWeightedImpl<uint64_t>(p, weight)
                : TryParallelWeightedImpl<uint32_t>(p, weight);
}

template <typename W>
uint32_t HeavyKeeper::TryMinimumWeightedImpl(const Prepared& p, uint64_t weight) {
  W* const words = Words<W>();
  const uint32_t cb = counter_bits_eff_;
  const W cmask = CounterMask<W>(cb);
  const W fpw = static_cast<W>(p.fp) << cb;
  const uint32_t n = p.n;
  // Situation 1 per unit: the first matching bucket absorbs every unit.
  for (uint32_t j = 0; j < n; ++j) {
    W& word = words[p.idx[j]];
    const W cnt = word & cmask;
    if (cnt != 0 && (word ^ fpw) <= cmask) {
      const uint32_t grown = static_cast<uint32_t>(
          std::min<uint64_t>(static_cast<uint64_t>(cnt) + weight, counter_max_));
      word = fpw | static_cast<W>(grown);
      return grown;
    }
  }
  // Situation 2 for the first unit, then situation 1 for the rest: the
  // first empty mapped bucket takes the whole weight.
  for (uint32_t j = 0; j < n; ++j) {
    W& word = words[p.idx[j]];
    if ((word & cmask) == 0) {
      const uint32_t grown =
          static_cast<uint32_t>(std::min<uint64_t>(weight, counter_max_));
      word = fpw | static_cast<W>(grown);
      return grown;
    }
  }
  return 0;  // minimum decay path: per-unit coins required
}

uint32_t HeavyKeeper::TryMinimumWeightedMonitored(const Prepared& p, uint64_t weight) {
  if (p.n != rows_) {
    return TryMinimumWeightedMonitored(Prepare(p.id), weight);
  }
  if (weight == 0) {
    return 0;
  }
  return wide() ? TryMinimumWeightedImpl<uint64_t>(p, weight)
                : TryMinimumWeightedImpl<uint32_t>(p, weight);
}

bool HeavyKeeper::MinimumWeightedUnmonitoredRun(const Prepared& p, uint64_t weight,
                                                uint64_t nmin, uint64_t* units_consumed,
                                                bool* admitted) {
  if (p.n != rows_) {
    return MinimumWeightedUnmonitoredRun(Prepare(p.id), weight, nmin, units_consumed,
                                         admitted);
  }
  if (!config_.collapsed_weighted_decay || config_.expansion_threshold != 0 ||
      weight == 0) {
    return false;
  }
  // Word access is generic over the two widths here (this path replaces
  // thousands of per-unit iterations, so one extra branch per scan is
  // irrelevant next to the geometric collapse).
  const uint32_t cb = counter_bits_eff_;
  const uint64_t cmask = CounterMask<uint64_t>(cb);
  const auto load = [&](uint32_t j) -> uint64_t {
    return wide() ? Words<uint64_t>()[p.idx[j]] : Words<uint32_t>()[p.idx[j]];
  };
  const auto store = [&](uint32_t j, uint32_t fp, uint64_t cnt) {
    if (wide()) {
      Words<uint64_t>()[p.idx[j]] = (static_cast<uint64_t>(fp) << cb) | cnt;
    } else {
      Words<uint32_t>()[p.idx[j]] =
          (fp << cb) | static_cast<uint32_t>(cnt);
    }
  };

  uint64_t remaining = weight;
  *admitted = false;
  // At most three phases run: a decay run that claims a bucket, the claimed
  // bucket's deterministic increments, and admission; the loop re-scans
  // between phases exactly as each per-unit insert would.
  while (remaining > 0 && !*admitted) {
    int match_j = -1;
    int empty_j = -1;
    int min_j = -1;
    uint64_t match_cnt = 0;
    uint64_t min_cnt = 0;
    for (uint32_t j = 0; j < p.n; ++j) {
      const uint64_t word = load(j);
      const uint64_t cnt = word & cmask;
      if (cnt != 0 && (word >> cb) == p.fp) {
        if (cnt <= nmin && match_j < 0) {
          match_j = static_cast<int>(j);  // first gate-open match wins
          match_cnt = cnt;
        }
        // A blocked match (cnt > nmin) is neither empty nor a decay
        // candidate: Algorithm 2 skips it.
      } else if (cnt == 0) {
        if (empty_j < 0) {
          empty_j = static_cast<int>(j);
        }
      } else if (min_j < 0 || cnt < min_cnt) {
        min_j = static_cast<int>(j);
        min_cnt = cnt;
      }
    }

    if (match_j >= 0) {
      // Situation 1 per unit: deterministic increments of the first open
      // match; the unit that reaches nmin + 1 is the Theorem 1 admission.
      if (nmin >= counter_max_) {
        // The counter saturates below nmin + 1: no unit can ever admit.
        const uint64_t grown =
            std::min<uint64_t>(match_cnt + remaining, counter_max_);
        store(match_j, p.fp, grown);
        remaining = 0;
        break;
      }
      const uint64_t need = nmin + 1 - match_cnt;
      if (remaining >= need) {
        store(match_j, p.fp, nmin + 1);
        remaining -= need;
        *admitted = true;
      } else {
        store(match_j, p.fp, match_cnt + remaining);
        remaining = 0;
      }
      continue;
    }

    if (empty_j >= 0) {
      // Situation 2: one unit claims the first empty bucket (estimate 1;
      // admitted immediately iff nmin == 0).
      store(empty_j, p.fp, 1);
      --remaining;
      if (nmin == 0) {
        *admitted = true;
      }
      continue;
    }

    if (min_j < 0) {
      // Only blocked matches mapped: every unit falls through all three
      // situations without touching state.
      remaining = 0;
      break;
    }

    // Situation 3: minimum decay of the first smallest counter, collapsed
    // into one geometric sample per counter level.
    uint32_t c = static_cast<uint32_t>(min_cnt);
    if (c >= decay_->cutoff()) {
      stuck_events_ += remaining;  // NoteStuck per unit (expansion disabled)
      remaining = 0;
      break;
    }
    decay_->DecayRun(&c, &remaining, rng_);
    if (c == 0) {
      // Claimed (estimate 1): the landing unit was consumed by the trials.
      store(min_j, p.fp, 1);
      if (nmin == 0) {
        *admitted = true;
      }
    } else {
      store(min_j, (static_cast<uint32_t>(load(min_j) >> cb)), c);
    }
  }

  *units_consumed = weight - remaining;
  return true;
}

template <typename W>
uint32_t HeavyKeeper::QueryImpl(const Prepared& p) const {
  const W* const words = Words<W>();
  const uint32_t cb = counter_bits_eff_;
  const W cmask = CounterMask<W>(cb);
  const W fpw = static_cast<W>(p.fp) << cb;
  uint32_t best = 0;
  for (uint32_t j = 0; j < p.n; ++j) {
    const W word = words[p.idx[j]];
    const W cnt = word & cmask;
    if (cnt != 0 && (word ^ fpw) <= cmask) {
      best = std::max(best, static_cast<uint32_t>(cnt));
    }
  }
  return best;
}

uint32_t HeavyKeeper::QueryPrepared(const Prepared& p) const {
  if (ProbeEligible(p)) {
    const uint32_t cb = counter_bits_eff_;
    uint32_t best = 0;
    if (simd::ProbeQuery(kernel_, Words<uint32_t>(), p.idx, p.n,
                         p.fp << cb, CounterMask<uint32_t>(cb), &best)) {
      return best;
    }
  }
  return wide() ? QueryImpl<uint64_t>(p) : QueryImpl<uint32_t>(p);
}

uint32_t HeavyKeeper::Query(FlowId id) const { return QueryPrepared(Prepare(id)); }

void HeavyKeeper::QueryBatch(const FlowId* ids, size_t n, uint64_t* out) const {
  // Batch-address a chunk, prefetch every mapped line, then probe: the
  // rescore loop touches cold buckets (candidates come from many epochs),
  // so overlapping the misses matters as much as the vector compare.
  constexpr size_t kChunk = 32;
  Prepared prep[kChunk];
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    PrepareBatch(ids + base, m, prep);
    for (size_t i = 0; i < m; ++i) {
      Prefetch(prep[i]);
    }
    for (size_t i = 0; i < m; ++i) {
      out[base + i] = QueryPrepared(prep[i]);
    }
  }
}

}  // namespace hk
