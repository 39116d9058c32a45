// Merging per-shard / per-epoch / per-switch top-k reports into one global top-k.
//
// Three merge semantics live here, picked by MergeMode:
//
//   kDisjoint - the inputs partition the flow space, so every flow appears
//     in at most one list and its merged estimate is that list's estimate,
//     unchanged. This is the sharded fast path (shard/partition.h):
//     key-partitioned shards guarantee disjointness, merging never adds
//     cross-shard error, and a flow ranked r-th globally is ranked <= r-th
//     inside its shard, so it appears in the shard's list whenever the
//     shard reports >= k entries. Callers: ShardedTopK::Snapshot/TopK.
//     Feeding overlapping lists through this mode silently emits duplicate
//     flow ids (each occurrence ranked by its own estimate) - that is the
//     documented contract, not a bug; use kSumById when inputs can overlap.
//
//   kSumById - the inputs cover disjoint *time slices* of one stream, so
//     the same flow may appear in several lists and its sliding estimate
//     is the SUM of its per-slice estimates. A flow absent from a slice's
//     report contributes 0 for that slice (the slice's sketch either never
//     saw it or ranked it below the report cutoff), so merged estimates
//     are lower bounds of a full-resolution sliding sketch. A duplicate id
//     inside one list sums too. Callers: WindowedTopK::Snapshot/TopK
//     (window/windowed_topk.h), which merges its ring of per-epoch reports;
//     a network collector summing switches that see disjoint traffic.
//
//   kMaxById - the inputs are overlapping views of the *same* traffic
//     (every switch on a path, a mirrored tap), so a flow's best estimate
//     is the MAXIMUM of its per-list estimates, HeavyKeeper's own
//     multi-bucket query rule. Summing would count each packet once per
//     view. No library or example code merges this way today; the
//     collector tests (tests/core_collector_test.cpp) and ShardMergeTest
//     are its callers.
//
// Relative to one sketch with the same *total* memory, a k-shard split
// changes the error profile in two documented ways: each shard's arrays
// are 1/N the width but see only ~1/N of the flows (collision pressure per
// bucket stays comparable), and each shard keeps its own k-entry candidate
// store, so the sharded instance spends up to (N-1) * k extra entries on
// candidates. tests/differential_test.cpp pins the resulting tolerance.
#ifndef HK_SHARD_MERGE_H_
#define HK_SHARD_MERGE_H_

#include <cstddef>
#include <vector>

#include "common/flow_key.h"

namespace hk {

enum class MergeMode {
  kDisjoint,  // inputs partition the key space; ids must not repeat
  kSumById,   // inputs may overlap; duplicate ids combine by summing
  kMaxById,   // inputs may overlap; duplicate ids keep the largest estimate
};

// Merge the per-list reports, order by (estimate desc, id asc) - the
// TopKAlgorithm reporting order - and keep the k largest. Inputs need not
// be sorted. The default mode keeps the historical disjoint-shard
// semantics; see the mode contract above before switching.
//
// Cost: kSumById and kMaxById combine through one flat open-addressing
// table sized from the total input length (>= 2x, power of two), so a
// repeat id costs one short linear probe and no per-node allocation; fewer
// than 2^32 input entries in all. Every mode then selects the k best with
// nth_element and
// sort only those k. The order is total, so the result equals a full sort
// truncated to k.
std::vector<FlowCount> MergeTopK(const std::vector<std::vector<FlowCount>>& per_shard, size_t k,
                                 MergeMode mode = MergeMode::kDisjoint);

}  // namespace hk

#endif  // HK_SHARD_MERGE_H_
