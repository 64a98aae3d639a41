// Vertex id remapping: public datasets (SNAP and friends) use sparse,
// arbitrary vertex ids; every algorithm here expects the dense range
// [0, n). CompactVertexIds rewrites an edge list in place and returns the
// inverse mapping so results can be reported in original ids.
#ifndef SPINNER_GRAPH_REMAP_H_
#define SPINNER_GRAPH_REMAP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace spinner {

/// Result of compaction: `original_id[new_id]` recovers the input ids.
struct VertexIdMapping {
  /// Dense id → original id, sorted ascending by original id (so the
  /// remap is deterministic regardless of edge order).
  std::vector<VertexId> original_id;

  /// Number of distinct vertices.
  int64_t num_vertices() const {
    return static_cast<int64_t>(original_id.size());
  }
};

/// Rewrites `edges` so vertex ids form the dense range [0, n), preserving
/// edge order. Ids are assigned by ascending original id. Vertices that
/// appear in no edge do not get ids (they carry no information for
/// partitioning). Cost: O(E + max id) when every id is >= 0 and below
/// 2·|E| + 1024 (no rewrite at all when the ids are already dense),
/// otherwise a sort of the 2·|E| endpoint ids.
VertexIdMapping CompactVertexIds(EdgeList* edges);

/// Translates a per-dense-vertex vector (e.g. a partition assignment) back
/// to (original_id, value) pairs, in ascending original-id order.
template <typename T>
std::vector<std::pair<VertexId, T>> MapToOriginalIds(
    const VertexIdMapping& mapping, const std::vector<T>& values) {
  std::vector<std::pair<VertexId, T>> out;
  out.reserve(values.size());
  for (std::size_t dense = 0; dense < values.size(); ++dense) {
    out.emplace_back(mapping.original_id[dense], values[dense]);
  }
  return out;
}

}  // namespace spinner

#endif  // SPINNER_GRAPH_REMAP_H_
