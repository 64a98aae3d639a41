#include "spinner/program.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/string_util.h"
#include "pregel/engine.h"
#include "pregel/topology.h"

namespace spinner {

namespace {

/// Edge values are the conversion weights w(u,v) (Eq. 3); a message is
/// the id of the vertex that sent it. The vertex value is unused.
using ConversionHandle = pregel::VertexHandle<char, EdgeWeight, VertexId>;
using ConversionEdge = pregel::OutEdge<EdgeWeight>;

class ConversionProgram
    : public pregel::VertexProgram<char, EdgeWeight, VertexId> {
 public:
  void Compute(ConversionHandle& vertex,
               std::span<const VertexId> messages) override {
    if (vertex.superstep() == 0) {
      NeighborPropagation(vertex);
    } else {
      NeighborDiscovery(vertex, messages);
    }
  }

 private:
  /// Advertises this vertex's id once to every distinct out-neighbour.
  /// Rows arrive from the CSR sorted by target, so repeats are adjacent.
  static void NeighborPropagation(ConversionHandle& vertex) {
    const auto& edges = vertex.edges();
    for (size_t i = 0; i < edges.size(); ++i) {
      const VertexId target = edges[i].target;
      if (target == vertex.id()) continue;  // self-loops carry no cut
      if (i > 0 && edges[i - 1].target == target) continue;
      vertex.SendMessage(target, vertex.id());
    }
  }

  /// A message from u means the arc u→v exists: a reciprocal pair gets
  /// weight 2, a one-way arc gets its reverse with weight 1. The row is
  /// then left sorted by target with self-loops and repeats dropped.
  static void NeighborDiscovery(ConversionHandle& vertex,
                                std::span<const VertexId> messages) {
    auto& edges = vertex.mutable_edges();
    const auto original = static_cast<ptrdiff_t>(edges.size());
    for (const VertexId u : messages) {
      const auto end = edges.begin() + original;
      const auto it = std::lower_bound(
          edges.begin(), end, u,
          [](const ConversionEdge& e, VertexId t) { return e.target < t; });
      if (it != end && it->target == u) {
        it->value = 2;
      } else {
        vertex.AddEdge(u, 1);
      }
    }
    const VertexId v = vertex.id();
    std::erase_if(edges,
                  [v](const ConversionEdge& e) { return e.target == v; });
    // Heaviest copy first, so dropping repeats keeps a weight-2 arc.
    std::sort(edges.begin(), edges.end(),
              [](const ConversionEdge& a, const ConversionEdge& b) {
                return a.target != b.target ? a.target < b.target
                                            : a.value > b.value;
              });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const ConversionEdge& a,
                               const ConversionEdge& b) {
                              return a.target == b.target;
                            }),
                edges.end());
    vertex.VoteToHalt();
  }
};

}  // namespace

Result<CsrGraph> ConvertInEngine(const CsrGraph& raw_directed,
                                 int num_workers, pregel::RunStats* stats) {
  if (num_workers < 1) {
    return Status::InvalidArgument(
        StrFormat("num_workers must be >= 1 (got %d)", num_workers));
  }
  pregel::EngineConfig engine_config;
  engine_config.num_workers = num_workers;
  pregel::PregelEngine<char, EdgeWeight, VertexId> engine(
      raw_directed, engine_config, pregel::HashPlacement(num_workers),
      [](VertexId) { return char{0}; },
      [](VertexId, VertexId, EdgeWeight) { return EdgeWeight{1}; });
  ConversionProgram program;
  pregel::RunStats run = engine.Run(program);
  if (stats != nullptr) *stats = std::move(run);

  const int64_t n = raw_directed.NumVertices();
  EdgeList arcs;
  std::vector<EdgeWeight> weights;
  arcs.reserve(static_cast<size_t>(2 * raw_directed.NumArcs()));
  weights.reserve(arcs.capacity());
  for (VertexId v = 0; v < n; ++v) {
    for (const ConversionEdge& e : engine.EdgesOf(v)) {
      arcs.push_back({v, e.target});
      weights.push_back(e.value);
    }
  }
  return CsrGraph::FromEdges(n, arcs, weights);
}

}  // namespace spinner
