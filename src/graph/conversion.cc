#include "graph/conversion.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

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

/// CSR arc arrays, every row sorted by target.
struct SortedRows {
  std::vector<int64_t> offsets;  // size n+1
  std::vector<VertexId> targets;
  std::vector<EdgeWeight> weights;
};

/// The rows of the symmetric graph over the distinct unordered pairs of
/// `edges` (self-loops dropped), each pair's two arcs weighted per Eq. 3
/// when `directed` — 2 if both directions occur, else 1 — and 1 otherwise.
SortedRows PairRows(int64_t num_vertices, const EdgeList& edges,
                    bool directed) {
  const auto n = static_cast<size_t>(num_vertices);

  // Counting sort of the edges by their lower endpoint: bucket `lo` gets
  // one key hi<<2 | dir per edge between lo and a higher `hi`, where dir
  // bit 0 = lo->hi and bit 1 = hi->lo. Self-loops carry no cut
  // information and are dropped.
  std::vector<int64_t> bucket(n + 1, 0);
  for (const Edge& e : edges) {
    if (e.src != e.dst) ++bucket[std::min(e.src, e.dst) + 1];
  }
  std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
  std::vector<uint64_t> keys(static_cast<size_t>(bucket[n]));
  {
    std::vector<int64_t> cursor(bucket.begin(), bucket.end() - 1);
    for (const Edge& e : edges) {
      if (e.src < e.dst) {
        keys[cursor[e.src]++] = static_cast<uint64_t>(e.dst) << 2 | 1u;
      } else if (e.src > e.dst) {
        keys[cursor[e.dst]++] = static_cast<uint64_t>(e.src) << 2 | 2u;
      }
    }
  }

  // Sort each bucket and merge the keys of one pair (duplicates and the
  // two directions) into one, compacting the buckets to the front of
  // `keys`; bucket[lo] becomes the start of lo's merged keys. Each merged
  // pair gives both endpoints one arc.
  SortedRows rows;
  rows.offsets.assign(n + 1, 0);
  int64_t merged = 0;
  for (size_t lo = 0; lo < n; ++lo) {
    const int64_t begin = bucket[lo];
    const int64_t end = bucket[lo + 1];
    bucket[lo] = merged;
    std::sort(keys.begin() + begin, keys.begin() + end);
    for (int64_t i = begin; i < end;) {
      uint64_t key = keys[i];
      while (++i < end && (keys[i] >> 2) == (key >> 2)) key |= keys[i];
      keys[merged++] = key;
      ++rows.offsets[lo + 1];
      ++rows.offsets[(key >> 2) + 1];
    }
  }
  bucket[n] = merged;
  std::partial_sum(rows.offsets.begin(), rows.offsets.end(),
                   rows.offsets.begin());

  // Both arcs of every pair go straight into the CSR rows. Walking `lo`
  // in ascending order fills row v first with its lower neighbours (one
  // per earlier bucket, ascending) and then with its own bucket's higher
  // ones (sorted), so every row comes out sorted by target.
  rows.targets.resize(static_cast<size_t>(rows.offsets[n]));
  rows.weights.resize(rows.targets.size());
  std::vector<int64_t> cursor(rows.offsets.begin(), rows.offsets.end() - 1);
  for (size_t lo = 0; lo < n; ++lo) {
    for (int64_t i = bucket[lo]; i < bucket[lo + 1]; ++i) {
      const auto hi = static_cast<VertexId>(keys[i] >> 2);
      const EdgeWeight w = directed && (keys[i] & 3u) == 3u ? 2u : 1u;
      rows.targets[cursor[lo]] = hi;
      rows.weights[cursor[lo]++] = w;
      rows.targets[cursor[hi]] = static_cast<VertexId>(lo);
      rows.weights[cursor[hi]++] = w;
    }
  }
  return rows;
}

}  // namespace

Result<CsrGraph> ConvertToWeightedUndirected(int64_t num_vertices,
                                             const EdgeList& directed_edges) {
  SPINNER_RETURN_IF_ERROR(ValidateRange(num_vertices, directed_edges));
  SortedRows rows = PairRows(num_vertices, directed_edges, /*directed=*/true);
  return CsrGraph::FromSortedRows(num_vertices, std::move(rows.offsets),
                                  std::move(rows.targets),
                                  std::move(rows.weights));
}

Result<CsrGraph> BuildSymmetric(int64_t num_vertices, const EdgeList& edges) {
  SPINNER_RETURN_IF_ERROR(ValidateRange(num_vertices, edges));
  SortedRows rows = PairRows(num_vertices, edges, /*directed=*/false);
  return CsrGraph::FromSortedRows(num_vertices, std::move(rows.offsets),
                                  std::move(rows.targets),
                                  std::move(rows.weights));
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
