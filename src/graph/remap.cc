#include "graph/remap.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace spinner {

VertexIdMapping CompactVertexIds(EdgeList* edges) {
  VertexIdMapping mapping;
  if (edges->empty()) return mapping;
  VertexId lo = edges->front().src;
  VertexId hi = lo;
  for (const Edge& e : *edges) {
    lo = std::min({lo, e.src, e.dst});
    hi = std::max({hi, e.src, e.dst});
  }

  // Small non-negative ids (the common case: generators, most datasets
  // after their own compaction): a byte map of present ids gives each id
  // its rank in O(E + max id) and at most 2·|E| + 1024 bytes.
  const auto m = static_cast<VertexId>(edges->size());
  if (lo >= 0 && hi < 2 * m + 1024) {
    std::vector<uint8_t> present(static_cast<size_t>(hi) + 1, 0);
    for (const Edge& e : *edges) {
      present[e.src] = 1;
      present[e.dst] = 1;
    }
    const auto n = std::accumulate(present.begin(), present.end(), VertexId{0});
    if (n == hi + 1) {
      // Every id in [0, hi] occurs: the ids are already dense.
      mapping.original_id.resize(n);
      std::iota(mapping.original_id.begin(), mapping.original_id.end(), 0);
      return mapping;
    }
    std::vector<VertexId> rank(present.size());
    mapping.original_id.reserve(n);
    for (VertexId id = 0; id <= hi; ++id) {
      rank[id] = static_cast<VertexId>(mapping.original_id.size());
      if (present[id]) mapping.original_id.push_back(id);
    }
    for (Edge& e : *edges) {
      e.src = rank[e.src];
      e.dst = rank[e.dst];
    }
    return mapping;
  }

  // Sparse, huge or negative ids: sort the distinct ids and map each to
  // its position — the same rank, by a slower route.
  mapping.original_id.reserve(2 * edges->size());
  for (const Edge& e : *edges) {
    mapping.original_id.push_back(e.src);
    mapping.original_id.push_back(e.dst);
  }
  std::sort(mapping.original_id.begin(), mapping.original_id.end());
  mapping.original_id.erase(
      std::unique(mapping.original_id.begin(), mapping.original_id.end()),
      mapping.original_id.end());

  std::unordered_map<VertexId, VertexId> to_dense;
  to_dense.reserve(mapping.original_id.size() * 2);
  for (size_t dense = 0; dense < mapping.original_id.size(); ++dense) {
    to_dense[mapping.original_id[dense]] = static_cast<VertexId>(dense);
  }
  for (Edge& e : *edges) {
    e.src = to_dense[e.src];
    e.dst = to_dense[e.dst];
  }
  return mapping;
}

}  // namespace spinner
