// Fundamental graph typedefs shared by every module.
#ifndef SPINNER_GRAPH_TYPES_H_
#define SPINNER_GRAPH_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace spinner {

/// Vertex identifier. Vertices of an n-vertex graph are the dense range
/// [0, n); loaders remap external ids if needed.
using VertexId = int64_t;

/// Partition (label) identifier; the paper's l ∈ {l_1..l_k} as 0-based ints.
using PartitionId = int32_t;

/// Edge weight. After directed→undirected conversion weights are 1 or 2
/// (paper Eq. 3): the number of directed edges the arc stands for.
using EdgeWeight = uint32_t;

/// Sentinel for "not yet assigned to any partition".
inline constexpr PartitionId kNoPartition = -1;

/// A directed edge (or an undirected edge listed once) in an edge list.
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Hashes an edge by its full (src,dst) pair, so no two id pairs share a
/// key whatever their width. (u,v) and (v,u) are distinct keys; callers
/// that want an undirected key normalise the pair first.
struct EdgeHash {
  size_t operator()(const Edge& e) const noexcept {
    return std::hash<uint64_t>{}(
        static_cast<uint64_t>(e.src) * 0x9E3779B97F4A7C15ull ^
        static_cast<uint64_t>(e.dst));
  }
};

/// Plain edge-list representation used by loaders and generators.
using EdgeList = std::vector<Edge>;

}  // namespace spinner

#endif  // SPINNER_GRAPH_TYPES_H_
