#include "concurrent/concurrent_topk.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/byte_io.h"

namespace hk {
namespace {

// Single source of the spec defaults (same pattern as sharded_topk.cpp):
// the factory fallbacks and name()'s emit-only-non-default comparisons both
// read from here.
const ConcurrentTopKOptions kDefaultOptions{};

inline void Backoff(size_t& spins) {
  if (++spins < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

}  // namespace

ConcurrentTopK::ResolvedInner ConcurrentTopK::ResolveInner(
    const ConcurrentTopKOptions& options, const SketchDefaults& defaults) {
  const std::string head =
      ResolveSketchName(options.inner_spec.substr(0, options.inner_spec.find(':')));
  // The two front-ends refuse each other: both parallelize one stream, and
  // nesting them only re-serializes what the outer layer fanned out.
  if (head == "Sharded") {
    throw std::invalid_argument(
        "ConcurrentTopK: inner= must not be Sharded (compose one front-end per "
        "stream; use Concurrent:threads=N for a shared slab or Sharded:n=N for "
        "partitioned ones)");
  }
  if (head == "Concurrent") {
    throw std::invalid_argument("ConcurrentTopK: inner= must not itself be Concurrent");
  }
  // Build the inner once at the full budget (there is only one sketch) to
  // resolve its configuration, then discard it.
  auto inner = MakeSketch(options.inner_spec, defaults);
  auto* pipeline = dynamic_cast<HeavyKeeperTopK<>*>(inner.get());
  if (pipeline == nullptr) {
    throw std::invalid_argument(
        "ConcurrentTopK: inner= must be a HeavyKeeper pipeline "
        "(HK-Basic/HK-Parallel/HK-Minimum)");
  }
  ResolvedInner resolved;
  resolved.version = pipeline->version();
  resolved.config = pipeline->sketch().config();
  resolved.name = inner->name();
  if (resolved.config.expansion_threshold != 0) {
    throw std::invalid_argument(
        "ConcurrentTopK: inner expand= is unsupported (Section III-F expansion "
        "resizes the slab under concurrent writers)");
  }
  if (resolved.config.collapsed_weighted_decay) {
    throw std::invalid_argument(
        "ConcurrentTopK: inner wdecay=collapsed is unsupported (the geometric "
        "collapse consumes the decay stream differently per thread; weighted "
        "inserts replay per unit here)");
  }
  return resolved;
}

ConcurrentTopK::ConcurrentTopK(const ConcurrentTopKOptions& options,
                               const SketchDefaults& defaults)
    : ConcurrentTopK(options, defaults, ResolveInner(options, defaults)) {}

ConcurrentTopK::ConcurrentTopK(const ConcurrentTopKOptions& options,
                               const SketchDefaults& defaults, ResolvedInner inner)
    : options_(options),
      version_(inner.version),
      k_(defaults.k),
      key_bytes_(KeyBytes(defaults.key_kind)),
      inner_name_(std::move(inner.name)),
      sketch_(inner.config),
      store_(defaults.k) {
  if (options_.threads < 1 || options_.threads > kMaxThreads) {
    throw std::invalid_argument("ConcurrentTopK: threads= must be 1.." +
                                std::to_string(kMaxThreads));
  }
  if (options_.ring_capacity < 1 || options_.drain_burst < 1) {
    throw std::invalid_argument("ConcurrentTopK: ring= and burst= must be >= 1");
  }
  tm_ring_highwater_ = telemetry::Registry::Get().GetGauge(
      "hk_ring_occupancy_highwater",
      "Deepest producer-observed queue depth of any single worker ring",
      "ring=\"concurrent\"");
  workers_.reserve(options_.threads);
  for (size_t i = 0; i < options_.threads; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->ring = std::make_unique<SpscRing<Packet>>(options_.ring_capacity);
    workers_.push_back(std::move(worker));
  }
  threads_.reserve(options_.threads);
  for (size_t i = 0; i < options_.threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ConcurrentTopK::~ConcurrentTopK() {
  // Workers drain their rings before exiting (shutdown-while-draining
  // loses nothing, same contract as ShardedTopK).
  stop_.store(true, std::memory_order_release);
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ConcurrentTopK::ApplyUnit(const ConcurrentHeavyKeeper::Prepared& p, Rng& rng) {
  // The pipelines' per-packet case logic (core/hk_topk.h InsertPrepared),
  // re-targeted at the concurrent structures. Store races resolve inside
  // Admit(); with one thread every step matches the sequential pipeline.
  ConcurrentTopKStore::Slot* tracked = store_.Find(p.id);
  const bool monitored = tracked != nullptr;
  switch (version_) {
    case HkVersion::kBasic: {
      const uint64_t estimate = sketch_.InsertBasic(p, rng);
      if (monitored) {
        store_.Raise(p.id, tracked, estimate);
      } else if (!store_.Full()) {
        if (estimate > 0) {
          store_.Admit(p.id, estimate);
        }
      } else if (estimate > store_.MinCount()) {
        store_.Admit(p.id, estimate);
      }
      return;
    }
    case HkVersion::kParallel:
    case HkVersion::kMinimum: {
      const uint64_t nmin = store_.Full() ? store_.MinCount() : ~0ULL;
      const uint64_t estimate = version_ == HkVersion::kParallel
                                    ? sketch_.InsertParallel(p, monitored, nmin, rng)
                                    : sketch_.InsertMinimum(p, monitored, nmin, rng);
      if (monitored) {
        store_.Raise(p.id, tracked, estimate);  // Algorithm 1 line 22
      } else if (!store_.Full()) {
        store_.Admit(p.id, estimate);  // Algorithm 1 line 24, first clause
      } else if (estimate == store_.MinCount() + 1) {
        store_.Admit(p.id, estimate);  // Optimization I admission
      }
      return;
    }
  }
}

void ConcurrentTopK::ApplyRun(std::span<const FlowId> ids, const uint64_t* weights,
                              Rng& rng) {
  // Rolling prepare/prefetch window, the HeavyKeeperTopK::InsertBatch
  // software pipeline: hash and prefetch packet i + ahead while packet i's
  // case logic runs against resident buckets.
  constexpr size_t kPrefetchAhead = 16;
  const size_t n = ids.size();
  ConcurrentHeavyKeeper::Prepared window[kPrefetchAhead];
  const size_t lead = std::min(kPrefetchAhead, n);
  for (size_t i = 0; i < lead; ++i) {
    window[i] = sketch_.Prepare(ids[i]);
    sketch_.Prefetch(window[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    ConcurrentHeavyKeeper::Prepared& slot = window[i % kPrefetchAhead];
    const uint64_t weight = weights == nullptr ? 1 : weights[i];
    for (uint64_t u = 0; u < weight; ++u) {
      ApplyUnit(slot, rng);
    }
    if (i + kPrefetchAhead < n) {
      slot = sketch_.Prepare(ids[i + kPrefetchAhead]);
      sketch_.Prefetch(slot);
    }
  }
}

void ConcurrentTopK::PushRun(Worker& worker, std::span<const FlowId> ids,
                             const uint64_t* weights) {
  // Count-before-push protocol (see ShardedTopK::PushRun): the producer is
  // the only thread that sees its own not-yet-pushed packets, so WaitIdle
  // from the producer can never miss one.
  const uint64_t depth =
      worker.queued.fetch_add(ids.size(), std::memory_order_relaxed) + ids.size();
  tm_ring_highwater_->MaxTo(static_cast<int64_t>(depth));
  for (size_t i = 0; i < ids.size(); ++i) {
    const Packet packet{ids[i], weights != nullptr ? weights[i] : 1};
    size_t spins = 0;
    while (!worker.ring->TryPush(packet)) {
      Backoff(spins);  // full ring back-pressures the producer
    }
  }
}

void ConcurrentTopK::WorkerLoop(size_t index) {
  Worker& worker = *workers_[index];
  Rng rng(DecaySeed(sketch_.config().seed, index));
  std::vector<FlowId> ids(options_.drain_burst);
  std::vector<uint64_t> weights(options_.drain_burst);
  size_t spins = 0;
  for (;;) {
    size_t n = 0;
    bool unit_weights = true;
    Packet packet;
    while (n < options_.drain_burst && worker.ring->TryPop(&packet)) {
      ids[n] = packet.id;
      weights[n] = packet.weight;
      unit_weights &= packet.weight == 1;
      ++n;
    }
    if (n > 0) {
      ApplyRun(std::span<const FlowId>(ids.data(), n),
               unit_weights ? nullptr : weights.data(), rng);
      worker.queued.fetch_sub(n, std::memory_order_release);
      spins = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire) && worker.ring->Empty()) {
      break;
    }
    Backoff(spins);
  }
}

void ConcurrentTopK::WaitIdle() const {
  for (const auto& worker : workers_) {
    size_t spins = 0;
    while (worker->queued.load(std::memory_order_acquire) != 0) {
      Backoff(spins);
    }
  }
}

void ConcurrentTopK::Flush() {
  WaitIdle();
  // Publish: order every relaxed slab/store RMW the workers issued before
  // their queued-counter decrements ahead of this thread's subsequent
  // reads, whatever path those reads take.
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void ConcurrentTopK::Insert(FlowId id) {
  Worker& worker = *workers_[rr_];
  rr_ = rr_ + 1 == workers_.size() ? 0 : rr_ + 1;
  PushRun(worker, std::span<const FlowId>(&id, 1), nullptr);
}

void ConcurrentTopK::InsertWeighted(FlowId id, uint64_t weight) {
  if (weight == 0) {
    return;
  }
  Worker& worker = *workers_[rr_];
  rr_ = rr_ + 1 == workers_.size() ? 0 : rr_ + 1;
  PushRun(worker, std::span<const FlowId>(&id, 1), &weight);
}

void ConcurrentTopK::InsertBatch(std::span<const FlowId> ids) {
  // Deal contiguous chunks round-robin: any worker can own any packet
  // (shared slab), so the split is purely for load balance, and one
  // queued-counter bump per chunk beats one per packet.
  const size_t n = ids.size();
  if (n == 0) {
    return;
  }
  const size_t chunk = (n + workers_.size() - 1) / workers_.size();
  for (size_t base = 0; base < n; base += chunk) {
    Worker& worker = *workers_[rr_];
    rr_ = rr_ + 1 == workers_.size() ? 0 : rr_ + 1;
    PushRun(worker, ids.subspan(base, std::min(chunk, n - base)), nullptr);
  }
}

void ConcurrentTopK::InsertBatch(std::span<const FlowId> ids,
                                 std::span<const uint64_t> weights) {
  const size_t n = ids.size();
  if (n == 0) {
    return;
  }
  const size_t chunk = (n + workers_.size() - 1) / workers_.size();
  for (size_t base = 0; base < n; base += chunk) {
    const size_t len = std::min(chunk, n - base);
    Worker& worker = *workers_[rr_];
    rr_ = rr_ + 1 == workers_.size() ? 0 : rr_ + 1;
    PushRun(worker, ids.subspan(base, len), weights.data() + base);
  }
}

QueryResult ConcurrentTopK::Snapshot(const QueryOptions& options) {
  QueryResult result;
  if (options.consistency == ConsistencyLevel::kExact) {
    Flush();
    result.consistency = ConsistencyLevel::kExact;
    result.stats.min_tracked = store_.MinCount();
  } else {
    // No quiesce: read the live structures. Label the result kRelaxed even
    // if the rings happen to be empty - external Inserter threads are
    // invisible here, so exactness cannot be promised without a Flush.
    result.consistency = ConsistencyLevel::kRelaxed;
    result.stats.min_tracked = store_.MinCacheRelaxed();
  }
  result.flows = store_.TopK(options.k);
  result.stats.tracked_flows = store_.size();
  result.stats.worker_threads = options_.threads;
  result.stats.memory_bytes = MemoryBytes();
  // The shared-slab insert path is its own CAS loop (no SIMD dispatch), so
  // the base-class "" answer stands; fill it explicitly for clarity.
  result.stats.simd_kernel = ActiveSimdKernel();
  return result;
}

std::vector<FlowCount> ConcurrentTopK::TopK(size_t k) const {
  WaitIdle();  // legacy quiesced contract: behave as if Flush() ran first
  return store_.TopK(k);
}

uint64_t ConcurrentTopK::EstimateSize(FlowId id) const {
  WaitIdle();
  if (const ConcurrentTopKStore::Slot* slot = store_.Find(id)) {
    return slot->count.load(std::memory_order_relaxed);
  }
  return sketch_.Query(id);
}

std::string ConcurrentTopK::name() const {
  WaitIdle();
  std::string spec = "Concurrent:threads=" + std::to_string(options_.threads);
  if (options_.ring_capacity != kDefaultOptions.ring_capacity) {
    spec += ",ring=" + std::to_string(options_.ring_capacity);
  }
  if (options_.drain_burst != kDefaultOptions.drain_burst) {
    spec += ",burst=" + std::to_string(options_.drain_burst);
  }
  // Greedy key last (registry grammar): the inner name is a full spec.
  spec += ",inner=" + inner_name_;
  return spec;
}

size_t ConcurrentTopK::MemoryBytes() const {
  // Same Section VI-A split as the inner pipeline reports: one shared
  // slab + k accounted store entries, regardless of thread count.
  return sketch_.MemoryBytes() + k_ * ConcurrentTopKStore::BytesPerEntry(key_bytes_);
}

bool ConcurrentTopK::SaveState(std::vector<uint8_t>* out) const {
  // Quiesce + publish before the plain-byte slab copy; Flush is mutating
  // only in the fence sense, same const_cast rationale as the WaitIdle
  // calls in the other const query paths.
  const_cast<ConcurrentTopK*>(this)->Flush();
  ByteAppendBlob(*out, sketch_.SlabImage());
  ByteAppend(*out, sketch_.stuck_events());
  ByteAppend(*out, sketch_.dropped_units());
  const std::vector<FlowCount> entries = store_.Entries();
  ByteAppend(*out, static_cast<uint64_t>(entries.size()));
  for (const FlowCount& e : entries) {
    ByteAppend(*out, e.id);
    ByteAppend(*out, e.count);
  }
  return true;
}

bool ConcurrentTopK::LoadState(const uint8_t* data, size_t size) {
  Flush();
  ByteReader reader(data, size);
  std::span<const uint8_t> slab;
  uint64_t stuck = 0;
  uint64_t dropped = 0;
  uint64_t n = 0;
  if (!reader.BorrowBlob(&slab) || !reader.Read(&stuck) || !reader.Read(&dropped) ||
      !reader.Read(&n) || n > k_) {
    return false;
  }
  std::vector<FlowCount> entries;
  entries.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    FlowCount e;
    if (!reader.Read(&e.id) || !reader.Read(&e.count)) {
      return false;
    }
    entries.push_back(e);
  }
  if (!reader.Done() || !sketch_.LoadSlab(slab)) {
    return false;
  }
  sketch_.RestoreCounters(stuck, dropped);
  // Fresh store below capacity: Admit inserts without eviction, rebuilding
  // the heap over the saved entries (duplicate-free by Entries()).
  for (const FlowCount& e : entries) {
    store_.Admit(e.id, e.count);
  }
  return true;
}

HK_REGISTER_SKETCHES(ConcurrentTopK) {
  RegisterSketch({"Concurrent",
                  {},
                  {"threads", "ring", "burst", "inner"},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    ConcurrentTopKOptions options;
                    options.threads = static_cast<size_t>(
                        args.GetUint("threads", kDefaultOptions.threads));
                    options.ring_capacity = static_cast<size_t>(
                        args.GetUint("ring", kDefaultOptions.ring_capacity));
                    options.drain_burst = static_cast<size_t>(
                        args.GetUint("burst", kDefaultOptions.drain_burst));
                    if (const auto it = args.params().find("inner");
                        it != args.params().end()) {
                      options.inner_spec = it->second;
                    }
                    SketchDefaults defaults;
                    defaults.memory_bytes = args.memory_bytes();
                    defaults.k = args.k();
                    defaults.key_kind = args.key_kind();
                    defaults.seed = args.seed();
                    return std::make_unique<ConcurrentTopK>(options, defaults);
                  },
                  /*greedy_key=*/"inner"});
}

}  // namespace hk
