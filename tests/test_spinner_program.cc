// The in-engine conversion supersteps must reproduce the offline
// conversion exactly, and the LPA loop every entry point shares must
// start from provided labels and record a hill-climbing history.
#include "spinner/program.h"

#include <gtest/gtest.h>

#include "graph/conversion.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "spinner/partitioner.h"

namespace spinner {
namespace {

/// Converts `directed` on the engine with several worker counts, checks
/// every result equals ConvertToWeightedUndirected of the same arcs, and
/// returns that conversion.
CsrGraph ConvertBothWays(int64_t n, const EdgeList& directed) {
  auto offline = ConvertToWeightedUndirected(n, directed);
  SPINNER_CHECK(offline.ok());
  auto raw = CsrGraph::FromEdges(n, directed);
  SPINNER_CHECK(raw.ok());
  for (int workers : {1, 3, 8}) {
    pregel::RunStats stats;
    auto in_engine = ConvertInEngine(*raw, workers, &stats);
    EXPECT_TRUE(in_engine.ok()) << in_engine.status();
    if (!in_engine.ok()) continue;
    EXPECT_TRUE(*in_engine == *offline) << workers << " workers";
    EXPECT_EQ(stats.supersteps, 2);
  }
  return std::move(offline).value();
}

TEST(SpinnerConversionTest, InEngineMatchesOfflineConversion) {
  auto rmat = RMat(7, 6, 0.5, 0.2, 0.2, /*seed=*/3);
  ASSERT_TRUE(rmat.ok());
  // Two extra vertices: `isolated` has no arcs, `sink` only incoming ones.
  const VertexId isolated = rmat->num_vertices;
  const VertexId sink = rmat->num_vertices + 1;
  EdgeList directed = rmat->edges;
  directed.push_back({0, sink});
  directed.push_back({5, sink});
  // The raw list, self-loops and repeated arcs included...
  ConvertBothWays(sink + 1, directed);
  // ...and the deduplicated one PartitionDirected converts.
  RemoveSelfLoops(&directed);
  SortAndDedup(&directed);
  const CsrGraph converted = ConvertBothWays(sink + 1, directed);
  EXPECT_EQ(converted.OutDegree(isolated), 0);
  EXPECT_EQ(converted.OutDegree(sink), 2);
}

TEST(SpinnerConversionTest, ReciprocalPairGetsWeightTwoBothSides) {
  // Vertex 2 is isolated; vertex 3 only has an incoming arc.
  const CsrGraph g = ConvertBothWays(4, {{0, 1}, {1, 0}, {0, 3}});
  ASSERT_EQ(g.OutDegree(1), 1);
  EXPECT_EQ(g.Neighbors(1)[0], 0);
  EXPECT_EQ(g.Weights(1)[0], 2u);
  EXPECT_EQ(g.OutDegree(2), 0);
  ASSERT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.Neighbors(0)[0], 1);
  EXPECT_EQ(g.Weights(0)[0], 2u);
}

TEST(SpinnerConversionTest, SingleDirectionCreatesReverseWeightOne) {
  // Vertex 2 is isolated; vertex 3 only has an incoming arc.
  const CsrGraph g = ConvertBothWays(4, {{0, 1}, {0, 3}});
  ASSERT_EQ(g.OutDegree(1), 1);  // reverse arc materialized
  EXPECT_EQ(g.Neighbors(1)[0], 0);
  EXPECT_EQ(g.Weights(1)[0], 1u);
  ASSERT_EQ(g.OutDegree(3), 1);
  EXPECT_EQ(g.Neighbors(3)[0], 0);
  EXPECT_EQ(g.Weights(3)[0], 1u);
  EXPECT_EQ(g.OutDegree(2), 0);
}

TEST(SpinnerProgramTest, InitializationRespectsProvidedLabels) {
  auto ring = Ring(8);
  auto g = BuildSymmetric(ring.num_vertices, ring.edges);
  ASSERT_TRUE(g.ok());
  SpinnerConfig sc;
  sc.num_partitions = 4;
  sc.max_iterations = 1;  // stop right after the first ComputeScores
  sc.use_halting = false;
  const std::vector<PartitionId> fixed = {3, 3, 2, 2, 1, 1, 0, 0};
  auto result = SpinnerPartitioner(sc).Repartition(*g, fixed);
  ASSERT_TRUE(result.ok());

  // After Initialize + one ComputeScores (no migrations yet), labels are
  // exactly the provided ones and the loads reflect them.
  EXPECT_EQ(result->assignment, fixed);
  ASSERT_FALSE(result->history.empty());
  EXPECT_EQ(result->history.front().loads,
            (std::vector<int64_t>{4, 4, 4, 4}));
}

TEST(SpinnerProgramTest, HistoryTracksHillClimb) {
  auto pp = PlantedPartition(4, 32, 0.3, 0.01, 11);
  ASSERT_TRUE(pp.ok());
  auto g = BuildSymmetric(pp->num_vertices, pp->edges);
  ASSERT_TRUE(g.ok());

  SpinnerConfig sc;
  sc.num_partitions = 4;
  sc.max_iterations = 60;
  sc.use_halting = false;
  sc.execution.num_shards = 4;
  SpinnerPartitioner partitioner(sc);
  auto result = partitioner.Partition(*g);
  ASSERT_TRUE(result.ok());

  ASSERT_EQ(static_cast<int>(result->history.size()), result->iterations);
  EXPECT_EQ(result->iterations, 60);
  // Hill climbing: late iterations must beat the random start decisively.
  const auto& h = result->history;
  EXPECT_GT(h.back().phi, h.front().phi);
  EXPECT_GT(h.back().score, h.front().score);
  // Final history point agrees with the final metrics within one
  // migration step (history φ is computed from the last ComputeScores).
  EXPECT_NEAR(h.back().phi, result->metrics.phi, 0.05);
}

TEST(SpinnerProgramTest, ScoreAggregationIndependentOfWorkerCount) {
  // The halting signal (global score) must not depend on how vertices are
  // spread across workers, even though per-worker async decisions do.
  auto ws = WattsStrogatz(200, 3, 0.2, 6);
  ASSERT_TRUE(ws.ok());
  auto g = BuildSymmetric(ws->num_vertices, ws->edges);
  ASSERT_TRUE(g.ok());

  auto first_iteration_score = [&](int workers) {
    SpinnerConfig sc;
    sc.num_partitions = 8;
    sc.max_iterations = 1;  // single ComputeScores, no migrations yet
    sc.use_halting = false;
    sc.execution.num_shards = workers;
    SpinnerPartitioner partitioner(sc);
    auto result = partitioner.Partition(*g);
    SPINNER_CHECK(result.ok());
    return result->history.front().score;
  };
  EXPECT_DOUBLE_EQ(first_iteration_score(1), first_iteration_score(7));
}

}  // namespace
}  // namespace spinner
