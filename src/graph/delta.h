// GraphDelta: a batch of dynamic changes, the input to incremental
// repartitioning (paper §III.D). The paper's experiments add edges (new
// friendships) and vertices; removal is supported for completeness.
#ifndef SPINNER_GRAPH_DELTA_H_
#define SPINNER_GRAPH_DELTA_H_

#include <cstdint>

#include "common/result.h"
#include "graph/types.h"

namespace spinner {

/// A set of changes to apply on top of an existing edge list.
struct GraphDelta {
  /// Number of vertices appended to the id range (new ids are
  /// [old_n, old_n + num_new_vertices)).
  int64_t num_new_vertices = 0;
  /// Edges to add. May reference both old and new vertices.
  EdgeList added_edges;
  /// Edges to remove (matched exactly against existing edges).
  EdgeList removed_edges;

  /// Chainable builders, so a delta reads as the change it describes:
  ///   GraphDelta{}.AddVertex(2).AddEdge(0, n).AddEdge(n, n + 1)
  GraphDelta& AddVertex(int64_t count = 1) {
    num_new_vertices += count;
    return *this;
  }
  GraphDelta& AddEdge(VertexId src, VertexId dst) {
    added_edges.push_back({src, dst});
    return *this;
  }
  GraphDelta& RemoveEdge(VertexId src, VertexId dst) {
    removed_edges.push_back({src, dst});
    return *this;
  }

  /// Folds redundant work out of the delta, in place:
  ///   * duplicate adds of the same (src,dst) collapse to one (duplicate
  ///     add events in a stream are retries, not parallel edges),
  ///   * an add and a remove of the same edge cancel pairwise (the edge
  ///     came and went within one batch; neither side reaches the graph),
  ///   * vertex grows are already merged (num_new_vertices is a sum).
  /// Matching is exact — (u,v) never pairs with (v,u) — mirroring
  /// ApplyDelta's removal semantics. Dedupe runs before cancellation, so
  /// added [e,e] + removed [e,e] coalesces to one net removal. Surviving
  /// entries keep their first-occurrence order, so coalescing is
  /// deterministic. Returns *this for chaining.
  ///
  /// This is the windowing primitive of the streaming ingestion service
  /// (stream/ingestion_service.h): a window's events fold into one delta,
  /// and cancellation is what makes an in-window add-then-remove legal —
  /// expressed uncoalesced, ApplyDelta would reject removing an edge the
  /// base graph never contained.
  GraphDelta& Coalesce();
};

/// Applies `delta` to (num_vertices, edges): appends vertices, removes then
/// adds edges. Fails if an added edge references a vertex outside the grown
/// range or a removed edge does not exist.
///
/// The output order is fixed: without removals it is `edges` then the
/// adds; with removals it is the surviving edges sorted, then the adds.
/// Feeding the output back in (a session applying window after window)
/// keeps `edges` a sorted prefix plus a short unsorted tail, so a removal
/// costs a sort of the delta and of that tail plus one merge pass over
/// `edges` — never a sort of the whole list.
Result<EdgeList> ApplyDelta(int64_t num_vertices, const EdgeList& edges,
                            const GraphDelta& delta);

/// Generates a delta of `num_edges` new random edges among existing vertices
/// (no self-loops, not already present, deterministic in seed) — the
/// "percentage of new edges" workload of paper Fig. 7.
GraphDelta RandomEdgeAdditions(int64_t num_vertices, const EdgeList& existing,
                               int64_t num_edges, uint64_t seed);

}  // namespace spinner

#endif  // SPINNER_GRAPH_DELTA_H_
