#include "sketch/cold_filter.h"

#include <algorithm>
#include <cstring>

#include "common/byte_io.h"
#include "sketch/registry.h"

namespace hk {

ColdFilter::ColdFilter(size_t l1_counters, size_t l2_counters, size_t backend_entries,
                       size_t key_bytes, uint64_t seed)
    : l1_((std::max<size_t>(l1_counters, 2) + 1) / 2),
      l2_(std::max<size_t>(l2_counters, 1)),
      l1_counters_(std::max<size_t>(l1_counters, 2)),
      l1_hashes_(kHashes, seed ^ 0xc01dULL),
      l2_hashes_(kHashes, Mix64(seed ^ 0xf117e2ULL)),
      backend_(backend_entries, key_bytes) {}

std::unique_ptr<ColdFilter> ColdFilter::FromMemory(size_t bytes, size_t key_bytes,
                                                   uint64_t seed) {
  const size_t l1_bytes = bytes / 4;
  const size_t l2_bytes = bytes / 4;
  const size_t backend_bytes = bytes - l1_bytes - l2_bytes;
  const size_t entries =
      std::max<size_t>(backend_bytes / StreamSummary::BytesPerEntry(key_bytes), 1);
  return std::make_unique<ColdFilter>(l1_bytes * 2, l2_bytes, entries, key_bytes, seed);
}

uint32_t ColdFilter::MinLayer1(FlowId id) const {
  uint32_t best = kT1;
  for (size_t j = 0; j < kHashes; ++j) {
    best = std::min(best, L1Get(l1_hashes_.Index(j, id, l1_counters_)));
  }
  return best;
}

uint32_t ColdFilter::MinLayer2(FlowId id) const {
  uint32_t best = kT2;
  for (size_t j = 0; j < kHashes; ++j) {
    best = std::min<uint32_t>(best, l2_[l2_hashes_.Index(j, id, l2_.size())]);
  }
  return best;
}

bool ColdFilter::PassLayer1(FlowId id) {
  size_t idx[kHashes];
  uint32_t min = kT1;
  for (size_t j = 0; j < kHashes; ++j) {
    idx[j] = l1_hashes_.Index(j, id, l1_counters_);
    min = std::min(min, L1Get(idx[j]));
  }
  if (min >= kT1) {
    return false;
  }
  // Conservative update: only raise counters equal to the minimum.
  for (size_t j = 0; j < kHashes; ++j) {
    if (L1Get(idx[j]) == min) {
      L1Set(idx[j], min + 1);
    }
  }
  return true;
}

bool ColdFilter::PassLayer2(FlowId id) {
  size_t idx[kHashes];
  uint32_t min = kT2;
  for (size_t j = 0; j < kHashes; ++j) {
    idx[j] = l2_hashes_.Index(j, id, l2_.size());
    min = std::min<uint32_t>(min, l2_[idx[j]]);
  }
  if (min >= kT2) {
    return false;
  }
  for (size_t j = 0; j < kHashes; ++j) {
    if (l2_[idx[j]] == min) {
      l2_[idx[j]] = static_cast<uint8_t>(min + 1);
    }
  }
  return true;
}

void ColdFilter::Insert(FlowId id) {
  if (PassLayer1(id)) {
    return;
  }
  if (PassLayer2(id)) {
    return;
  }
  backend_.Insert(id);
}

uint64_t ColdFilter::EstimateSize(FlowId id) const {
  const uint32_t v1 = MinLayer1(id);
  if (v1 < kT1) {
    return v1;
  }
  const uint32_t v2 = MinLayer2(id);
  if (v2 < kT2) {
    return kT1 + v2;
  }
  return kT1 + kT2 + backend_.EstimateSize(id);
}

std::vector<FlowCount> ColdFilter::TopK(size_t k) const {
  std::vector<FlowCount> out = backend_.TopK(k);
  for (auto& fc : out) {
    fc.count += kT1 + kT2;  // packets absorbed by the filter layers
  }
  return out;
}

size_t ColdFilter::MemoryBytes() const {
  return l1_.size() + l2_.size() + backend_.MemoryBytes();
}

bool ColdFilter::SaveState(std::vector<uint8_t>* out) const {
  const size_t start = out->size();
  ByteAppendBlob(*out, l1_);
  ByteAppendBlob(*out, l2_);
  // Backend state rides along as the tail of the blob.
  if (!backend_.SaveState(out)) {
    out->resize(start);
    return false;
  }
  return true;
}

bool ColdFilter::LoadState(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  std::span<const uint8_t> l1;
  std::span<const uint8_t> l2;
  if (!reader.BorrowBlob(&l1) || l1.size() != l1_.size() || !reader.BorrowBlob(&l2) ||
      l2.size() != l2_.size()) {
    return false;
  }
  const size_t tail = reader.remaining();
  const uint8_t* backend_blob = reader.Borrow(tail);
  if (backend_blob == nullptr || !backend_.LoadState(backend_blob, tail)) {
    return false;
  }
  std::memcpy(l1_.data(), l1.data(), l1.size());
  std::memcpy(l2_.data(), l2.data(), l2.size());
  return true;
}

HK_REGISTER_SKETCHES(ColdFilter) {
  RegisterSketch({"ColdFilter",
                  {"Cold-Filter"},
                  {},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    return ColdFilter::FromMemory(args.memory_bytes(), args.key_bytes(),
                                                  args.seed());
                  }});
}

}  // namespace hk
