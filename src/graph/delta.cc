#include "graph/delta.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "common/string_util.h"
#include "graph/edge_list.h"

namespace spinner {

namespace {
/// Keyed by the directed pair: (u,v) and (v,u) stay distinct, like
/// ApplyDelta removal.
using EdgeCounts = std::unordered_map<Edge, int64_t, EdgeHash>;
}  // namespace

GraphDelta& GraphDelta::Coalesce() {
  // Pass 1: dedupe adds, first occurrence wins (deterministic order).
  EdgeCounts add_count;
  add_count.reserve(added_edges.size() * 2);
  EdgeList deduped;
  deduped.reserve(added_edges.size());
  for (const Edge& e : added_edges) {
    if (add_count[e]++ == 0) deduped.push_back(e);
  }

  // Pass 2: each surviving add cancels at most one matching remove.
  EdgeCounts cancel;
  cancel.reserve(removed_edges.size() * 2);
  for (const Edge& e : removed_edges) {
    auto it = add_count.find(e);
    if (it != add_count.end() && it->second > 0) {
      it->second = 0;  // the (deduped) add is consumed
      ++cancel[e];
    }
  }

  added_edges.clear();
  for (const Edge& e : deduped) {
    if (add_count[e] > 0) added_edges.push_back(e);
  }
  EdgeList kept_removed;
  kept_removed.reserve(removed_edges.size());
  for (const Edge& e : removed_edges) {
    auto it = cancel.find(e);
    if (it != cancel.end() && it->second > 0) {
      --it->second;  // cancelled against an in-delta add
      continue;
    }
    kept_removed.push_back(e);
  }
  removed_edges = std::move(kept_removed);
  return *this;
}

Result<EdgeList> ApplyDelta(int64_t num_vertices, const EdgeList& edges,
                            const GraphDelta& delta) {
  const int64_t new_n = num_vertices + delta.num_new_vertices;
  if (delta.num_new_vertices < 0) {
    return Status::InvalidArgument("num_new_vertices must be >= 0");
  }
  if (!EdgesInRange(delta.added_edges, new_n)) {
    return Status::InvalidArgument(StrFormat(
        "added edge endpoint outside [0,%lld)",
        static_cast<long long>(new_n)));
  }

  // With removals the output is the surviving edges in sorted order, then
  // the adds. So an edge list this fold produced is a sorted prefix plus
  // the adds appended since its last removal. Sorting that tail and
  // splicing it and the removals into the prefix yields the fully sorted
  // survivors with bulk copies of the prefix between splice points: the
  // sorts cover the delta and the tail, never the whole graph.
  EdgeList result;
  result.reserve(edges.size() + delta.added_edges.size());
  if (delta.removed_edges.empty()) {
    result.assign(edges.begin(), edges.end());
  } else {
    // Multiset-style removal: each removed edge cancels one occurrence.
    EdgeList to_remove = delta.removed_edges;
    std::sort(to_remove.begin(), to_remove.end());
    const auto prefix_end = std::is_sorted_until(edges.begin(), edges.end());
    EdgeList tail(prefix_end, edges.end());
    std::sort(tail.begin(), tail.end());
    // Equal edges are interchangeable, so a removal first cancels a tail
    // copy; the remaining removals must come out of the prefix.
    EdgeList inserts, deletes;
    std::set_difference(tail.begin(), tail.end(), to_remove.begin(),
                        to_remove.end(), std::back_inserter(inserts));
    std::set_difference(to_remove.begin(), to_remove.end(), tail.begin(),
                        tail.end(), std::back_inserter(deletes));
    auto from = edges.begin();
    auto ins = inserts.cbegin();
    auto del = deletes.cbegin();
    while (ins != inserts.cend() || del != deletes.cend()) {
      const bool insert_next =
          del == deletes.cend() || (ins != inserts.cend() && *ins < *del);
      const Edge x = insert_next ? *ins++ : *del++;
      const auto at = std::lower_bound(from, prefix_end, x);
      result.insert(result.end(), from, at);
      from = at;
      if (insert_next) {
        result.push_back(x);
      } else if (at != prefix_end && *at == x) {
        ++from;  // cancelled
      } else {
        return Status::InvalidArgument(
            StrFormat("removed edge (%lld,%lld) not present",
                      static_cast<long long>(x.src),
                      static_cast<long long>(x.dst)));
      }
    }
    result.insert(result.end(), from, prefix_end);
  }
  result.insert(result.end(), delta.added_edges.begin(),
                delta.added_edges.end());
  return result;
}

GraphDelta RandomEdgeAdditions(int64_t num_vertices, const EdgeList& existing,
                               int64_t num_edges, uint64_t seed) {
  auto key = [](VertexId a, VertexId b) {
    return Edge{std::min(a, b), std::max(a, b)};
  };
  std::unordered_set<Edge, EdgeHash> present;
  present.reserve(existing.size() * 2);
  for (const Edge& e : existing) present.insert(key(e.src, e.dst));

  GraphDelta delta;
  Rng rng(SplitMix64(seed ^ 0xD317AULL));
  while (static_cast<int64_t>(delta.added_edges.size()) < num_edges) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(num_vertices));
    const VertexId v = static_cast<VertexId>(rng.Uniform(num_vertices));
    if (u == v) continue;
    if (!present.insert(key(u, v)).second) continue;
    delta.added_edges.push_back({u, v});
  }
  return delta;
}

}  // namespace spinner
