// HeavyKeeper state serialization.
//
// The paper's deployment model (Section VI-A, footnote 2) periodically ships
// each switch's sketch to a collector for network-wide analysis. These
// helpers snapshot a HeavyKeeper into a self-describing byte buffer and
// reconstruct it elsewhere. The decay RNG restarts from the config seed on
// load (its state is not part of the measurement result; the reconstructed
// sketch is statistically identical and answers queries bit-identically).
#ifndef HK_CORE_SERIALIZATION_H_
#define HK_CORE_SERIALIZATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/heavykeeper.h"

namespace hk {

// Snapshot the sketch (config + every bucket + expansion state). The v2
// payload is the slab image itself (HeavyKeeper::SlabImage), so a snapshot
// is a fixed-size header plus one memcpy; the append form writes it at the
// end of `out` with no staging buffer.
void SerializeSketch(const HeavyKeeper& sketch, std::vector<uint8_t>* out);
std::vector<uint8_t> SerializeSketch(const HeavyKeeper& sketch);

// Bytes SerializeSketch(sketch) produces (for reserving ahead of it).
size_t SerializedSketchBytes(const HeavyKeeper& sketch);

// Rebuild a sketch from a snapshot. Returns nullopt on a malformed buffer.
// A v2 payload is checked (every fingerprint field within its width) and
// copied straight into the new slab; a v1 payload is packed into one.
std::optional<HeavyKeeper> DeserializeSketch(const uint8_t* data, size_t size);

inline std::optional<HeavyKeeper> DeserializeSketch(const std::vector<uint8_t>& buffer) {
  return DeserializeSketch(buffer.data(), buffer.size());
}

// File convenience wrappers.
bool SaveSketch(const HeavyKeeper& sketch, const std::string& path);
std::optional<HeavyKeeper> LoadSketch(const std::string& path);

}  // namespace hk

#endif  // HK_CORE_SERIALIZATION_H_
