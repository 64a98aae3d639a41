// Differential tests of the patched delta path: after every delta of a
// seeded random sequence, the session's edge list, converted CSR and store
// slices must equal what the from-scratch pipeline (full-sort fold,
// ConvertToWeightedUndirected / BuildSymmetric, ShardedGraphStore::Build)
// computes — for directed and undirected graphs and several shard counts.
// The sequences mix self-loops, duplicate edges, reciprocal pairs, the
// removal of one of two copies, the removal of one direction of a
// weight-2 pair, and vertex growth.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "graph/conversion.h"
#include "graph/delta.h"
#include "graph/sharded_store.h"
#include "spinner/session.h"

namespace spinner {
namespace {

/// The reference fold: copy, sort everything, cancel the sorted removals,
/// append the adds. ApplyDelta must match it element for element, because
/// Snapshot writes edges() in this order.
EdgeList ReferenceFold(const EdgeList& edges, const GraphDelta& delta) {
  EdgeList result = edges;
  if (!delta.removed_edges.empty()) {
    EdgeList to_remove = delta.removed_edges;
    std::sort(to_remove.begin(), to_remove.end());
    std::sort(result.begin(), result.end());
    EdgeList kept;
    size_t r = 0;
    for (const Edge& e : result) {
      if (r < to_remove.size() && to_remove[r] == e) {
        ++r;
        continue;
      }
      kept.push_back(e);
    }
    SPINNER_CHECK(r == to_remove.size()) << "reference removal failed";
    result = std::move(kept);
  }
  result.insert(result.end(), delta.added_edges.begin(),
                delta.added_edges.end());
  return result;
}

Result<CsrGraph> ReferenceConvert(int64_t n, const EdgeList& edges,
                                  bool directed) {
  return directed ? ConvertToWeightedUndirected(n, edges)
                  : BuildSymmetric(n, edges);
}

/// A base graph that already carries every awkward shape: self-loops,
/// duplicate edges and reciprocal pairs.
EdgeList MessyBase(int64_t n, Rng* rng) {
  EdgeList edges;
  for (int64_t i = 0; i < 4 * n; ++i) {
    const auto u = static_cast<VertexId>(rng->Uniform(n));
    const auto v = static_cast<VertexId>(rng->Uniform(n));
    edges.push_back({u, v});
    if (i % 7 == 0) edges.push_back({u, v});  // duplicate
    if (i % 5 == 0) edges.push_back({v, u});  // reciprocal
    if (i % 31 == 0) edges.push_back({u, u});  // self-loop
  }
  return edges;
}

/// One random delta against the current edge list. Removals name distinct
/// positions of `edges`, so the delta is always valid.
GraphDelta RandomDelta(int64_t n, const EdgeList& edges, Rng* rng) {
  GraphDelta delta;
  if (rng->Uniform(4) == 0) delta.AddVertex(1 + rng->Uniform(300));
  const int64_t grown = n + delta.num_new_vertices;

  std::vector<size_t> picked;
  const int64_t removals = static_cast<int64_t>(rng->Uniform(12));
  for (int64_t i = 0; i < removals && !edges.empty(); ++i) {
    const size_t at = rng->Uniform(edges.size());
    if (std::find(picked.begin(), picked.end(), at) != picked.end()) continue;
    picked.push_back(at);
    // Whatever shape the edge has — one of two copies, one direction of a
    // reciprocal (weight-2) pair, a self-loop — removing it is exercised.
    delta.RemoveEdge(edges[at].src, edges[at].dst);
  }
  const int64_t adds = static_cast<int64_t>(rng->Uniform(12));
  for (int64_t i = 0; i < adds; ++i) {
    switch (rng->Uniform(5)) {
      case 0: {  // a duplicate of an existing edge
        if (edges.empty()) break;
        const Edge& e = edges[rng->Uniform(edges.size())];
        delta.AddEdge(e.src, e.dst);
        break;
      }
      case 1: {  // the reverse of an existing edge: a reciprocal pair
        if (edges.empty()) break;
        const Edge& e = edges[rng->Uniform(edges.size())];
        delta.AddEdge(e.dst, e.src);
        break;
      }
      case 2: {  // a self-loop
        const auto u = static_cast<VertexId>(rng->Uniform(grown));
        delta.AddEdge(u, u);
        break;
      }
      default: {  // a fresh random edge, possibly to a grown vertex
        delta.AddEdge(static_cast<VertexId>(rng->Uniform(grown)),
                      static_cast<VertexId>(rng->Uniform(grown)));
        break;
      }
    }
  }
  return delta;
}

void ExpectStoreMatchesFreshBuild(const ShardedGraphStore& got,
                                  const CsrGraph& reference,
                                  const std::string& where) {
  auto fresh = ShardedGraphStore::Build(reference, got.num_shards());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ(got.NumVertices(), fresh->NumVertices()) << where;
  EXPECT_EQ(got.NumArcs(), fresh->NumArcs()) << where;
  EXPECT_EQ(got.TotalArcWeight(), fresh->TotalArcWeight()) << where;
  for (int s = 0; s < got.num_shards(); ++s) {
    const auto& a = got.shard(s);
    const auto& b = fresh->shard(s);
    EXPECT_EQ(a.begin, b.begin) << where << " shard " << s;
    EXPECT_EQ(a.end, b.end) << where << " shard " << s;
    EXPECT_EQ(a.offsets, b.offsets) << where << " shard " << s;
    EXPECT_EQ(a.targets, b.targets) << where << " shard " << s;
    EXPECT_EQ(a.weights, b.weights) << where << " shard " << s;
    EXPECT_EQ(a.weighted_degree, b.weighted_degree) << where << " shard "
                                                    << s;
    EXPECT_EQ(a.inv_weighted_degree, b.inv_weighted_degree)
        << where << " shard " << s;
  }
}

class DeltaPatchDifferentialTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(DeltaPatchDifferentialTest, EveryDeltaMatchesTheFromScratchPipeline) {
  const auto [directed, num_shards] = GetParam();
  SpinnerConfig config;
  config.num_partitions = 4;
  config.max_iterations = 3;
  config.seed = 5;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(SplitMix64(seed * 977 + (directed ? 1 : 0)));
    int64_t n = 600;
    EdgeList edges = MessyBase(n, &rng);
    SessionOptions options;
    options.execution.num_shards = num_shards;
    options.execution.num_threads = 2;
    PartitioningSession session(config, options);
    ASSERT_TRUE(session.Open(n, edges, directed).ok());

    for (int step = 0; step < 12; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step);
      const GraphDelta delta = RandomDelta(n, edges, &rng);
      ASSERT_TRUE(session.ApplyDelta(delta).ok()) << where;
      edges = ReferenceFold(edges, delta);
      n += delta.num_new_vertices;

      ASSERT_EQ(session.num_vertices(), n) << where;
      ASSERT_EQ(session.edges(), edges) << where;
      auto reference = ReferenceConvert(n, edges, directed);
      ASSERT_TRUE(reference.ok()) << reference.status();
      const CsrGraph& got = session.converted();
      EXPECT_EQ(got.TotalArcWeight(), reference->TotalArcWeight()) << where;
      EXPECT_EQ(got.NumArcs(), reference->NumArcs()) << where;
      ASSERT_TRUE(got == *reference) << where;
      ExpectStoreMatchesFreshBuild(session.store(), *reference, where);
      EXPECT_EQ(session.store().labels(), session.assignment()) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DirectedAndUndirectedOnSeveralShardCounts, DeltaPatchDifferentialTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 3, 7)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "Directed" : "Undirected") +
             "Shards" + std::to_string(std::get<1>(info.param));
    });

// --- PatchConversion on hand-picked cases ---------------------------------

/// Patches the conversion of `base` by `delta` and checks it against the
/// conversion of the folded list.
void ExpectPatchMatches(int64_t n, const EdgeList& base,
                        const GraphDelta& delta, bool directed) {
  auto old_converted = ReferenceConvert(n, base, directed);
  ASSERT_TRUE(old_converted.ok());
  auto folded = ApplyDelta(n, base, delta);
  ASSERT_TRUE(folded.ok()) << folded.status();
  auto patched = PatchConversion(*old_converted, *folded, delta, directed);
  ASSERT_TRUE(patched.ok()) << patched.status();
  auto expected =
      ReferenceConvert(n + delta.num_new_vertices, *folded, directed);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(*patched == *expected);
}

TEST(PatchConversionTest, RemovingOneDirectionOfAWeightTwoPairLeavesWeightOne) {
  const EdgeList base = {{0, 1}, {1, 0}, {1, 2}};
  const GraphDelta delta = GraphDelta{}.RemoveEdge(1, 0);
  ExpectPatchMatches(3, base, delta, /*directed=*/true);

  auto old_converted = ConvertToWeightedUndirected(3, base);
  ASSERT_TRUE(old_converted.ok());
  ASSERT_EQ(old_converted->Weights(0)[0], 2u);
  auto folded = ApplyDelta(3, base, delta);
  ASSERT_TRUE(folded.ok());
  auto patched = PatchConversion(*old_converted, *folded, delta, true);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched->Weights(0)[0], 1u);
  EXPECT_EQ(patched->Weights(1)[0], 1u);
}

TEST(PatchConversionTest, RemovingOneOfTwoCopiesKeepsThePair) {
  const EdgeList base = {{0, 1}, {0, 1}, {1, 2}};
  for (const bool directed : {false, true}) {
    ExpectPatchMatches(3, base, GraphDelta{}.RemoveEdge(0, 1), directed);
  }
}

TEST(PatchConversionTest, AddingTheReverseEdgeMakesWeightTwo) {
  ExpectPatchMatches(3, {{0, 1}, {1, 2}}, GraphDelta{}.AddEdge(2, 1),
                     /*directed=*/true);
}

TEST(PatchConversionTest, SelfLoopsAndGrowthLeaveEmptyRows) {
  const GraphDelta delta =
      GraphDelta{}.AddVertex(3).AddEdge(4, 4).AddEdge(1, 3).RemoveEdge(2, 2);
  for (const bool directed : {false, true}) {
    ExpectPatchMatches(3, {{0, 1}, {2, 2}}, delta, directed);
  }
}

TEST(PatchConversionTest, RemovingTheLastArcsOfAPairDropsThem) {
  const GraphDelta delta = GraphDelta{}.RemoveEdge(0, 1).RemoveEdge(1, 0);
  for (const bool directed : {false, true}) {
    ExpectPatchMatches(3, {{0, 1}, {1, 0}, {1, 2}}, delta, directed);
  }
}

TEST(PatchConversionTest, RejectsDeltaEndpointsOutsideTheGrownRange) {
  auto converted = BuildSymmetric(3, {{0, 1}});
  ASSERT_TRUE(converted.ok());
  const GraphDelta delta = GraphDelta{}.AddVertex(1).AddEdge(0, 4);
  auto patched = PatchConversion(*converted, {{0, 1}, {0, 4}}, delta, false);
  ASSERT_FALSE(patched.ok());
  EXPECT_EQ(patched.status().code(), StatusCode::kInvalidArgument);
}

// --- CsrGraph::PatchArcs ---------------------------------------------------

TEST(CsrPatchArcsTest, ReplacesInsertsDropsAndGrows) {
  auto g = CsrGraph::FromEdges(3, {{0, 1}, {0, 2}, {1, 0}, {2, 0}});
  ASSERT_TRUE(g.ok());
  const std::vector<CsrGraph::ArcPatch> patches = {
      {0, 1, 2}, {0, 2, 0}, {1, 2, 1}, {3, 0, 1}};
  auto patched = g->PatchArcs(5, patches);
  ASSERT_TRUE(patched.ok()) << patched.status();
  auto expected = CsrGraph::FromEdges(5, {{0, 1}, {1, 0}, {1, 2}, {2, 0},
                                          {3, 0}},
                                      std::vector<EdgeWeight>{2, 1, 1, 1, 1});
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(*patched == *expected);
  EXPECT_EQ(patched->TotalArcWeight(), 6);
  EXPECT_EQ(patched->OutDegree(4), 0);
}

TEST(CsrPatchArcsTest, RejectsUnsortedOrOutOfRangePatchesAndShrinking) {
  auto g = CsrGraph::FromEdges(3, {{0, 1}, {1, 0}});
  ASSERT_TRUE(g.ok());
  const std::vector<CsrGraph::ArcPatch> unsorted = {{1, 0, 1}, {0, 1, 1}};
  EXPECT_FALSE(g->PatchArcs(3, unsorted).ok());
  const std::vector<CsrGraph::ArcPatch> repeated = {{0, 1, 1}, {0, 1, 2}};
  EXPECT_FALSE(g->PatchArcs(3, repeated).ok());
  const std::vector<CsrGraph::ArcPatch> out_of_range = {{0, 3, 1}};
  EXPECT_FALSE(g->PatchArcs(3, out_of_range).ok());
  EXPECT_FALSE(g->PatchArcs(2, {}).ok());
}

}  // namespace
}  // namespace spinner
