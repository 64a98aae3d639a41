// Directed → weighted-undirected conversion (paper §III.A, Eq. 3).
//
// Spinner optimizes the number of messages crossing partitions. In Pregel,
// messages flow along directed edges, so a pair of reciprocal directed edges
// between u and v carries twice the traffic of a single edge. The conversion
// produces a symmetric graph whose arc weights count that traffic:
//   w(u,v) = 1 if exactly one of (u,v), (v,u) is in the directed graph,
//   w(u,v) = 2 if both are.
//
// This is the offline reference implementation; the Pregel-native
// NeighborPropagation/NeighborDiscovery supersteps (ConvertInEngine,
// spinner/program.h) compute the same graph in-engine, and a test
// cross-checks the two.
#ifndef SPINNER_GRAPH_CONVERSION_H_
#define SPINNER_GRAPH_CONVERSION_H_

#include "common/result.h"
#include "graph/csr_graph.h"
#include "graph/delta.h"
#include "graph/types.h"

namespace spinner {

/// Converts a directed edge list into the symmetric weighted CSR form.
/// Self-loops and duplicate directed edges are dropped (a duplicate carries
/// no extra structural information for partitioning). Every undirected edge
/// appears as two arcs (u→v and v→u) of equal weight ∈ {1,2}.
Result<CsrGraph> ConvertToWeightedUndirected(int64_t num_vertices,
                                             const EdgeList& directed_edges);

/// Builds the symmetric weight-1 CSR form of an undirected edge list (each
/// edge listed once). Self-loops and duplicates are dropped.
Result<CsrGraph> BuildSymmetric(int64_t num_vertices, const EdgeList& edges);

/// The incremental form of both conversions, for a graph that changes by
/// deltas. `converted` must be the conversion (ConvertToWeightedUndirected
/// if `directed`, else BuildSymmetric) of some edge list E, and
/// `new_edges` must be ApplyDelta(converted.NumVertices(), E, delta).
/// Returns exactly the conversion of `new_edges` over the grown vertex
/// range. Only the pairs `delta` touches can change, so this makes one
/// scan over `new_edges` filtered by a map of touched vertices to recover
/// each touched pair's state — present or not (undirected), which
/// directions (directed, so weights 1 and 2 stay right) — and then one
/// CsrGraph::PatchArcs row merge. Cost: a sort of the delta, the scan and
/// one copy of the arcs.
Result<CsrGraph> PatchConversion(const CsrGraph& converted,
                                 const EdgeList& new_edges,
                                 const GraphDelta& delta, bool directed);

}  // namespace spinner

#endif  // SPINNER_GRAPH_CONVERSION_H_
