// In-engine graph conversion: the paper's first two Pregel supersteps
// (§IV.A.1), which turn the raw directed graph into the weighted
// undirected one Spinner partitions (Eq. 3):
//
//   NeighborPropagation: every vertex sends its id along its out-edges;
//   NeighborDiscovery:   a vertex v that hears from u learns the arc u→v.
//                        If v also has v→u the pair is reciprocal (weight
//                        2); otherwise v adds the reverse arc v→u with
//                        weight 1, making the graph symmetric.
//
// The label-propagation supersteps that follow in the Giraph deployment
// run on the shard-parallel driver (spinner/superstep_driver.h), which is
// the one LPA loop for every execution substrate.
#ifndef SPINNER_SPINNER_PROGRAM_H_
#define SPINNER_SPINNER_PROGRAM_H_

#include "common/result.h"
#include "graph/csr_graph.h"
#include "pregel/stats.h"

namespace spinner {

/// Runs NeighborPropagation and NeighborDiscovery on the Pregel engine
/// over `raw_directed` with `num_workers` hash-placed workers and returns
/// exactly what ConvertToWeightedUndirected returns for the same arcs:
/// self-loops and duplicate arcs are dropped and every undirected edge
/// becomes two arcs of equal weight ∈ {1,2}. The result does not depend on
/// `num_workers`. `stats`, when non-null, receives the engine statistics
/// of the two supersteps.
Result<CsrGraph> ConvertInEngine(const CsrGraph& raw_directed,
                                 int num_workers, pregel::RunStats* stats);

}  // namespace spinner

#endif  // SPINNER_SPINNER_PROGRAM_H_
