#include "graph/generators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/conversion.h"
#include "graph/edge_list.h"
#include "graph/stats.h"

namespace spinner {
namespace {

bool NoSelfLoops(const EdgeList& edges) {
  return std::none_of(edges.begin(), edges.end(),
                      [](const Edge& e) { return e.src == e.dst; });
}

bool NoDuplicateUndirected(EdgeList edges) {
  for (Edge& e : edges) {
    if (e.src > e.dst) std::swap(e.src, e.dst);
  }
  const size_t before = edges.size();
  SortAndDedup(&edges);
  return edges.size() == before;
}

TEST(WattsStrogatzTest, SizeAndDegree) {
  auto g = WattsStrogatz(1000, 5, 0.3, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices, 1000);
  EXPECT_EQ(static_cast<int64_t>(g->edges.size()), 1000 * 5);
  EXPECT_FALSE(g->directed);
  EXPECT_TRUE(NoSelfLoops(g->edges));
  EXPECT_TRUE(EdgesInRange(g->edges, 1000));
}

TEST(WattsStrogatzTest, ZeroBetaIsRingLattice) {
  auto g = WattsStrogatz(10, 2, 0.0, 1);
  ASSERT_TRUE(g.ok());
  EdgeList expected;
  for (VertexId v = 0; v < 10; ++v) {
    expected.push_back({v, (v + 1) % 10});
    expected.push_back({v, (v + 2) % 10});
  }
  EdgeList got = g->edges;
  SortAndDedup(&got);
  SortAndDedup(&expected);
  EXPECT_EQ(got, expected);
}

TEST(WattsStrogatzTest, DeterministicInSeed) {
  auto a = WattsStrogatz(500, 4, 0.3, 9);
  auto b = WattsStrogatz(500, 4, 0.3, 9);
  auto c = WattsStrogatz(500, 4, 0.3, 10);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->edges, b->edges);
  EXPECT_NE(a->edges, c->edges);
}

TEST(WattsStrogatzTest, RewiringChangesEdges) {
  auto lattice = WattsStrogatz(200, 3, 0.0, 1);
  auto rewired = WattsStrogatz(200, 3, 0.5, 1);
  ASSERT_TRUE(lattice.ok() && rewired.ok());
  EXPECT_NE(lattice->edges, rewired->edges);
  EXPECT_EQ(lattice->edges.size(), rewired->edges.size());
}

TEST(WattsStrogatzTest, RejectsBadParameters) {
  EXPECT_FALSE(WattsStrogatz(2, 1, 0.3, 1).ok());
  EXPECT_FALSE(WattsStrogatz(10, 0, 0.3, 1).ok());
  EXPECT_FALSE(WattsStrogatz(10, 5, 0.3, 1).ok());   // 2*5 >= 10
  EXPECT_FALSE(WattsStrogatz(10, 2, -0.1, 1).ok());
  EXPECT_FALSE(WattsStrogatz(10, 2, 1.1, 1).ok());
}

TEST(BarabasiAlbertTest, SizeAndHubs) {
  auto g = BarabasiAlbert(2000, 5, 5, 3);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices, 2000);
  EXPECT_TRUE(NoSelfLoops(g->edges));
  EXPECT_TRUE(NoDuplicateUndirected(g->edges));
  // Preferential attachment must produce hubs: the max degree should be
  // far above the mean (power-law-ish skew).
  auto csr = BuildSymmetric(g->num_vertices, g->edges);
  ASSERT_TRUE(csr.ok());
  auto stats = ComputeGraphStats(*csr);
  EXPECT_GT(static_cast<double>(stats.max_degree), 5.0 * stats.mean_degree);
}

TEST(BarabasiAlbertTest, DeterministicInSeed) {
  auto a = BarabasiAlbert(300, 3, 2, 5);
  auto b = BarabasiAlbert(300, 3, 2, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->edges, b->edges);
}

TEST(BarabasiAlbertTest, RejectsBadParameters) {
  EXPECT_FALSE(BarabasiAlbert(10, 1, 1, 1).ok());   // m0 < 2
  EXPECT_FALSE(BarabasiAlbert(10, 3, 4, 1).ok());   // m > m0
  EXPECT_FALSE(BarabasiAlbert(2, 3, 2, 1).ok());    // n < m0
}

TEST(ErdosRenyiTest, ExactEdgeCount) {
  auto g = ErdosRenyi(100, 500, 11);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->edges.size(), 500u);
  EXPECT_TRUE(NoSelfLoops(g->edges));
  EXPECT_TRUE(NoDuplicateUndirected(g->edges));
}

TEST(ErdosRenyiTest, CompleteGraphBoundary) {
  auto g = ErdosRenyi(5, 10, 1);  // 10 = C(5,2): the complete graph
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->edges.size(), 10u);
  EXPECT_FALSE(ErdosRenyi(5, 11, 1).ok());  // over the maximum
}

TEST(ErdosRenyiTest, WideVertexIdsDoNotOverflowOrCollide) {
  // n(n-1)/2 overflows int64 for n this large, and ids above 2^32 do not
  // fit a packed 32-bit pair key.
  const int64_t n = int64_t{1} << 33;
  auto g = ErdosRenyi(n, 1000, 5);
  ASSERT_TRUE(g.ok()) << g.status();
  ASSERT_EQ(g->edges.size(), 1000u);
  EXPECT_TRUE(EdgesInRange(g->edges, n));
  EXPECT_TRUE(NoSelfLoops(g->edges));
  EXPECT_TRUE(NoDuplicateUndirected(g->edges));
}

TEST(RMatTest, SizeSkewAndDeterminism) {
  auto g = RMat(10, 8, 0.57, 0.19, 0.19, 13);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices, 1024);
  EXPECT_EQ(static_cast<int64_t>(g->edges.size()), 1024 * 8);
  EXPECT_TRUE(g->directed);
  EXPECT_TRUE(NoSelfLoops(g->edges));
  auto h = RMat(10, 8, 0.57, 0.19, 0.19, 13);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(g->edges, h->edges);
}

TEST(RMatTest, RejectsBadParameters) {
  EXPECT_FALSE(RMat(0, 8, 0.25, 0.25, 0.25, 1).ok());
  EXPECT_FALSE(RMat(5, 0, 0.25, 0.25, 0.25, 1).ok());
  EXPECT_FALSE(RMat(5, 4, 0.6, 0.3, 0.2, 1).ok());  // sums > 1
}

TEST(PlantedPartitionTest, CommunityStructure) {
  auto g = PlantedPartition(4, 50, 0.4, 0.01, 17);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices, 200);
  // Count intra- vs inter-block edges: intra must dominate heavily.
  int64_t intra = 0;
  int64_t inter = 0;
  for (const Edge& e : g->edges) {
    (e.src / 50 == e.dst / 50 ? intra : inter) += 1;
  }
  EXPECT_GT(intra, 5 * inter);
}

TEST(PlantedPartitionTest, ProbabilityZeroAndOne) {
  auto none = PlantedPartition(2, 10, 0.0, 0.0, 1);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->edges.empty());
  auto full = PlantedPartition(1, 10, 1.0, 0.0, 1);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->edges.size(), 45u);  // C(10,2)
}

TEST(DeterministicGraphsTest, Shapes) {
  EXPECT_EQ(Ring(5).edges.size(), 5u);
  EXPECT_EQ(Path(5).edges.size(), 4u);
  EXPECT_EQ(Star(5).edges.size(), 5u);
  EXPECT_EQ(Star(5).num_vertices, 6);
  EXPECT_EQ(Complete(5).edges.size(), 10u);
  EXPECT_EQ(Grid(3, 4).edges.size(), 3u * 3 + 2 * 4);  // 17
  EXPECT_EQ(Grid(3, 4).num_vertices, 12);
}

}  // namespace
}  // namespace spinner
