#include "shard/merge.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/hash.h"

namespace hk {
namespace {

bool Ranks(const FlowCount& a, const FlowCount& b) {
  return a.count != b.count ? a.count > b.count : a.id < b.id;
}

// (count desc, id asc) is a total order on distinct entries, so selecting
// the k best and sorting only those yields exactly the prefix a full sort
// would have kept.
void SortAndTruncate(std::vector<FlowCount>& merged, size_t k) {
  if (merged.size() > k) {
    std::nth_element(merged.begin(), merged.begin() + static_cast<ptrdiff_t>(k), merged.end(),
                     Ranks);
    merged.resize(k);
  }
  std::sort(merged.begin(), merged.end(), Ranks);
}

}  // namespace

std::vector<FlowCount> MergeTopK(const std::vector<std::vector<FlowCount>>& per_shard, size_t k,
                                 MergeMode mode) {
  size_t total = 0;
  for (const auto& list : per_shard) {
    total += list.size();
  }
  std::vector<FlowCount> merged;
  merged.reserve(total);
  if (mode != MergeMode::kDisjoint) {
    // Overlapping inputs (per-epoch reports of one stream, or several
    // views of the same traffic): estimates for the same flow combine
    // across lists before ranking. The combined counts live densely in
    // `merged`; an open-addressing table of 1-based positions
    // into it (0 = empty slot, so every id - 0 included - is a valid key)
    // finds a repeat in one probe run. At most `total` distinct ids, and
    // the capacity is at least twice that, so every probe run terminates.
    const size_t capacity = std::bit_ceil(2 * total);
    const size_t mask = capacity - 1;
    std::vector<uint32_t> slots(capacity, 0);
    for (const auto& list : per_shard) {
      for (const FlowCount& fc : list) {
        size_t i = static_cast<size_t>(Mix64(fc.id)) & mask;
        while (slots[i] != 0 && merged[slots[i] - 1].id != fc.id) {
          i = (i + 1) & mask;
        }
        if (slots[i] == 0) {
          merged.push_back(fc);
          slots[i] = static_cast<uint32_t>(merged.size());
        } else if (mode == MergeMode::kSumById) {
          merged[slots[i] - 1].count += fc.count;
        } else {
          merged[slots[i] - 1].count = std::max(merged[slots[i] - 1].count, fc.count);
        }
      }
    }
  } else {
    for (const auto& list : per_shard) {
      merged.insert(merged.end(), list.begin(), list.end());
    }
  }
  SortAndTruncate(merged, k);
  return merged;
}

}  // namespace hk
