#include "graph/conversion.h"

#include <algorithm>
#include <tuple>

#include "common/string_util.h"
#include "graph/edge_list.h"

namespace spinner {

namespace {

Status ValidateRange(int64_t num_vertices, const EdgeList& edges) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  if (!EdgesInRange(edges, num_vertices)) {
    return Status::InvalidArgument(
        StrFormat("edge endpoint out of range [0,%lld)",
                  static_cast<long long>(num_vertices)));
  }
  return Status::OK();
}

}  // namespace

Result<CsrGraph> ConvertToWeightedUndirected(int64_t num_vertices,
                                             const EdgeList& directed_edges) {
  SPINNER_RETURN_IF_ERROR(ValidateRange(num_vertices, directed_edges));

  // Canonicalize each directed edge to (min, max, direction-bit), then a
  // single sorted pass merges the two directions of each unordered pair.
  struct Arc {
    VertexId lo;
    VertexId hi;
    uint8_t dir;  // bit 0: lo->hi present, bit 1: hi->lo present

    bool operator<(const Arc& o) const {
      return std::tie(lo, hi) < std::tie(o.lo, o.hi);
    }
  };
  std::vector<Arc> arcs;
  arcs.reserve(directed_edges.size());
  for (const Edge& e : directed_edges) {
    if (e.src == e.dst) continue;  // self-loops carry no cut information
    if (e.src < e.dst) {
      arcs.push_back({e.src, e.dst, 1});
    } else {
      arcs.push_back({e.dst, e.src, 2});
    }
  }
  std::sort(arcs.begin(), arcs.end());

  EdgeList sym_edges;
  std::vector<EdgeWeight> sym_weights;
  sym_edges.reserve(arcs.size() * 2);
  sym_weights.reserve(arcs.size() * 2);
  size_t i = 0;
  while (i < arcs.size()) {
    uint8_t dir = 0;
    const VertexId lo = arcs[i].lo;
    const VertexId hi = arcs[i].hi;
    while (i < arcs.size() && arcs[i].lo == lo && arcs[i].hi == hi) {
      dir |= arcs[i].dir;
      ++i;
    }
    const EdgeWeight w = (dir == 3) ? 2u : 1u;  // both directions => 2
    sym_edges.push_back({lo, hi});
    sym_weights.push_back(w);
    sym_edges.push_back({hi, lo});
    sym_weights.push_back(w);
  }
  return CsrGraph::FromEdges(num_vertices, sym_edges, sym_weights);
}

Result<CsrGraph> BuildSymmetric(int64_t num_vertices, const EdgeList& edges) {
  SPINNER_RETURN_IF_ERROR(ValidateRange(num_vertices, edges));

  EdgeList canonical;
  canonical.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    canonical.push_back(
        {std::min(e.src, e.dst), std::max(e.src, e.dst)});
  }
  SortAndDedup(&canonical);

  EdgeList sym;
  sym.reserve(canonical.size() * 2);
  for (const Edge& e : canonical) {
    sym.push_back(e);
    sym.push_back({e.dst, e.src});
  }
  return CsrGraph::FromEdges(num_vertices, sym);
}

Result<CsrGraph> PatchConversion(const CsrGraph& converted,
                                 const EdgeList& new_edges,
                                 const GraphDelta& delta, bool directed) {
  if (delta.num_new_vertices < 0) {
    return Status::InvalidArgument("num_new_vertices must be >= 0");
  }
  const int64_t n = converted.NumVertices() + delta.num_new_vertices;
  SPINNER_RETURN_IF_ERROR(ValidateRange(n, delta.added_edges));
  SPINNER_RETURN_IF_ERROR(ValidateRange(n, delta.removed_edges));

  // The canonical (lo, hi) pairs the delta touches; no other pair's
  // arcs can differ between the old and the new conversion.
  EdgeList pairs;
  pairs.reserve(delta.added_edges.size() + delta.removed_edges.size());
  for (const EdgeList* list : {&delta.added_edges, &delta.removed_edges}) {
    for (const Edge& e : *list) {
      if (e.src == e.dst) continue;  // self-loops never reach the CSR
      pairs.push_back({std::min(e.src, e.dst), std::max(e.src, e.dst)});
    }
  }
  SortAndDedup(&pairs);

  // One scan of the new edge list recovers each touched pair's state:
  // bit 0 = lo->hi present, bit 1 = hi->lo present. Undirected lists set
  // bit 0 for either orientation. A byte map of touched vertices skips,
  // with two loads and no branch between them, every edge that cannot be
  // a touched pair.
  std::vector<uint8_t> dir(pairs.size(), 0);
  if (!pairs.empty()) {
    std::vector<uint8_t> touched(static_cast<size_t>(n), 0);
    for (const Edge& p : pairs) {
      touched[p.src] = 1;
      touched[p.dst] = 1;
    }
    const auto un = static_cast<uint64_t>(n);
    for (const Edge& e : new_edges) {
      if (static_cast<uint64_t>(e.src) >= un ||
          static_cast<uint64_t>(e.dst) >= un) {
        return Status::InvalidArgument(
            StrFormat("edge endpoint out of range [0,%lld)",
                      static_cast<long long>(n)));
      }
      if ((touched[e.src] & touched[e.dst]) == 0 || e.src == e.dst) continue;
      const Edge key{std::min(e.src, e.dst), std::max(e.src, e.dst)};
      const auto it = std::lower_bound(pairs.begin(), pairs.end(), key);
      if (it == pairs.end() || *it != key) continue;
      dir[it - pairs.begin()] |= (directed && e.src > e.dst) ? 2 : 1;
    }
  }

  // Both arcs of every touched pair are rewritten: weight 2 when both
  // directions are present (Eq. 3), 1 for one, 0 (dropped) for none.
  std::vector<CsrGraph::ArcPatch> patches;
  patches.reserve(2 * pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const EdgeWeight w = dir[i] == 3 ? 2u : (dir[i] != 0 ? 1u : 0u);
    patches.push_back({pairs[i].src, pairs[i].dst, w});
    patches.push_back({pairs[i].dst, pairs[i].src, w});
  }
  std::sort(patches.begin(), patches.end(),
            [](const CsrGraph::ArcPatch& a, const CsrGraph::ArcPatch& b) {
              return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
            });
  return converted.PatchArcs(n, patches);
}

}  // namespace spinner
