#include "graph/delta.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/edge_list.h"

namespace spinner {
namespace {

TEST(ApplyDeltaTest, AddsEdges) {
  const EdgeList base = {{0, 1}};
  GraphDelta delta;
  delta.added_edges = {{1, 2}};
  auto out = ApplyDelta(3, base, delta);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (EdgeList{{0, 1}, {1, 2}}));
}

TEST(ApplyDeltaTest, AddsVerticesAndEdgesToThem) {
  const EdgeList base = {{0, 1}};
  GraphDelta delta;
  delta.num_new_vertices = 2;
  delta.added_edges = {{1, 3}};  // vertex 3 exists only after the delta
  auto out = ApplyDelta(2, base, delta);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(ApplyDeltaTest, RejectsEdgeBeyondGrownRange) {
  GraphDelta delta;
  delta.num_new_vertices = 1;
  delta.added_edges = {{0, 5}};
  EXPECT_FALSE(ApplyDelta(2, {{0, 1}}, delta).ok());
}

TEST(ApplyDeltaTest, RemovesEdges) {
  const EdgeList base = {{0, 1}, {1, 2}, {2, 0}};
  GraphDelta delta;
  delta.removed_edges = {{1, 2}};
  auto out = ApplyDelta(3, base, delta);
  ASSERT_TRUE(out.ok());
  EdgeList got = *out;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (EdgeList{{0, 1}, {2, 0}}));
}

TEST(ApplyDeltaTest, RemovalIsMultisetStyle) {
  const EdgeList base = {{0, 1}, {0, 1}};
  GraphDelta delta;
  delta.removed_edges = {{0, 1}};
  auto out = ApplyDelta(2, base, delta);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);  // one of the two parallel edges survives
}

TEST(ApplyDeltaTest, RemovingAbsentEdgeFails) {
  GraphDelta delta;
  delta.removed_edges = {{1, 0}};
  EXPECT_FALSE(ApplyDelta(2, {{0, 1}}, delta).ok());
}

TEST(ApplyDeltaTest, NegativeNewVerticesFails) {
  GraphDelta delta;
  delta.num_new_vertices = -1;
  EXPECT_FALSE(ApplyDelta(2, {}, delta).ok());
}

TEST(GraphDeltaBuilderTest, BuildersChainAndAccumulate) {
  GraphDelta delta =
      GraphDelta{}.AddVertex(2).AddEdge(0, 2).AddEdge(2, 3).RemoveEdge(0, 1);
  EXPECT_EQ(delta.num_new_vertices, 2);
  EXPECT_EQ(delta.added_edges, (EdgeList{{0, 2}, {2, 3}}));
  EXPECT_EQ(delta.removed_edges, (EdgeList{{0, 1}}));

  delta.AddVertex();  // default: one vertex
  EXPECT_EQ(delta.num_new_vertices, 3);
}

TEST(GraphDeltaBuilderTest, BuiltDeltaAppliesLikeManualDelta) {
  const EdgeList base = {{0, 1}, {1, 2}};
  auto out = ApplyDelta(
      3, base, GraphDelta{}.AddVertex(1).AddEdge(2, 3).RemoveEdge(0, 1));
  ASSERT_TRUE(out.ok());
  EdgeList got = *out;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (EdgeList{{1, 2}, {2, 3}}));
}

// --- Exactness of the failure paths: code and message, not just !ok ------

TEST(ApplyDeltaTest, EdgeOutsideGrownRangeReportsTheRange) {
  // 2 existing + 1 new vertex = ids [0, 3); endpoint 5 is out of range
  // even after growth.
  auto out = ApplyDelta(2, {{0, 1}}, GraphDelta{}.AddVertex(1).AddEdge(0, 5));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("[0,3)"), std::string::npos)
      << out.status();
}

TEST(ApplyDeltaTest, EdgeInsideGrownRangeIsAccepted) {
  // The same endpoint is valid once enough vertices are added: the check
  // must be against the *grown* range, not the old one.
  auto out = ApplyDelta(2, {{0, 1}}, GraphDelta{}.AddVertex(4).AddEdge(0, 5));
  EXPECT_TRUE(out.ok()) << out.status();
}

TEST(ApplyDeltaTest, RemovingAbsentEdgeNamesTheEdge) {
  auto out = ApplyDelta(3, {{0, 1}}, GraphDelta{}.RemoveEdge(1, 2));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("(1,2)"), std::string::npos)
      << out.status();
}

TEST(ApplyDeltaTest, ReversedEdgeDoesNotMatchForRemoval) {
  // Removal matches exactly: (1,0) is not (0,1).
  auto out = ApplyDelta(2, {{0, 1}}, GraphDelta{}.RemoveEdge(1, 0));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(ApplyDeltaTest, FailedApplyLeavesNoPartialResult) {
  // A delta that removes an existing edge *and* a missing one must fail
  // atomically — the Result carries only the error.
  const EdgeList base = {{0, 1}, {1, 2}};
  auto out = ApplyDelta(
      3, base, GraphDelta{}.RemoveEdge(0, 1).RemoveEdge(2, 0));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// --- Coalesce: the windowing primitive of the ingestion service ----------

TEST(CoalesceTest, DedupesDuplicateAddsKeepingFirstOccurrenceOrder) {
  GraphDelta delta =
      GraphDelta{}.AddEdge(0, 1).AddEdge(2, 3).AddEdge(0, 1).AddEdge(2, 3);
  delta.Coalesce();
  EXPECT_EQ(delta.added_edges, (EdgeList{{0, 1}, {2, 3}}));
  EXPECT_TRUE(delta.removed_edges.empty());
}

// Ids at or above 2^32 once shared a 64-bit hash key ((src<<32) ^ dst*C):
// (1,0) and (1^0x7F4A7C15, 1<<32) both mapped to 1<<32. Keys are now the
// (src,dst) pair itself.
constexpr VertexId kWideSrc = 1 ^ 0x7F4A7C15;
constexpr VertexId kWideDst = VertexId{1} << 32;

TEST(CoalesceTest, WideIdAddsDoNotCollapse) {
  GraphDelta delta = GraphDelta{}.AddEdge(1, 0).AddEdge(kWideSrc, kWideDst);
  delta.Coalesce();
  EXPECT_EQ(delta.added_edges, (EdgeList{{1, 0}, {kWideSrc, kWideDst}}));
}

TEST(CoalesceTest, WideIdRemoveDoesNotCancelAnUnrelatedAdd) {
  GraphDelta delta =
      GraphDelta{}.AddEdge(1, 0).RemoveEdge(kWideSrc, kWideDst);
  delta.Coalesce();
  EXPECT_EQ(delta.added_edges, (EdgeList{{1, 0}}));
  EXPECT_EQ(delta.removed_edges, (EdgeList{{kWideSrc, kWideDst}}));
}

TEST(ApplyDeltaTest, RemovalMergesTheSortedPrefixWithTheUnsortedTail) {
  // A fold output is a sorted prefix plus the adds appended since; a
  // removal that hits the tail still yields the fully sorted survivors.
  const EdgeList edges = {{0, 1}, {2, 2}, {1, 0}, {0, 5}};
  auto out = ApplyDelta(6, edges, GraphDelta{}.RemoveEdge(1, 0).AddEdge(4, 3));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, (EdgeList{{0, 1}, {0, 5}, {2, 2}, {4, 3}}));
}

TEST(CoalesceTest, CancelsAddThenRemovePair) {
  GraphDelta delta = GraphDelta{}.AddEdge(0, 1).RemoveEdge(0, 1);
  delta.Coalesce();
  EXPECT_TRUE(delta.added_edges.empty());
  EXPECT_TRUE(delta.removed_edges.empty());
}

TEST(CoalesceTest, RemoveWithoutMatchingAddSurvives) {
  GraphDelta delta = GraphDelta{}.AddEdge(0, 1).RemoveEdge(1, 2);
  delta.Coalesce();
  EXPECT_EQ(delta.added_edges, (EdgeList{{0, 1}}));
  EXPECT_EQ(delta.removed_edges, (EdgeList{{1, 2}}));
}

TEST(CoalesceTest, MatchingIsExactNotSymmetric) {
  // (0,1) and (1,0) are distinct edges, mirroring ApplyDelta removal.
  GraphDelta delta = GraphDelta{}.AddEdge(0, 1).RemoveEdge(1, 0);
  delta.Coalesce();
  EXPECT_EQ(delta.added_edges, (EdgeList{{0, 1}}));
  EXPECT_EQ(delta.removed_edges, (EdgeList{{1, 0}}));
}

TEST(CoalesceTest, DedupeRunsBeforeCancellation) {
  // added [e,e] + removed [e,e]: dedupe collapses the adds to one, which
  // cancels one remove; the survivor is a net removal from the base.
  GraphDelta delta =
      GraphDelta{}.AddEdge(0, 1).AddEdge(0, 1).RemoveEdge(0, 1).RemoveEdge(
          0, 1);
  delta.Coalesce();
  EXPECT_TRUE(delta.added_edges.empty());
  EXPECT_EQ(delta.removed_edges, (EdgeList{{0, 1}}));
}

TEST(CoalesceTest, VertexGrowsAreMergedAndPreserved) {
  GraphDelta delta = GraphDelta{}.AddVertex(2).AddVertex(3).AddEdge(0, 1);
  EXPECT_EQ(delta.num_new_vertices, 5);  // builder already merges grows
  delta.Coalesce();
  EXPECT_EQ(delta.num_new_vertices, 5);
  EXPECT_EQ(delta.added_edges, (EdgeList{{0, 1}}));
}

TEST(CoalesceTest, IsChainable) {
  const GraphDelta delta =
      GraphDelta{}.AddEdge(0, 1).RemoveEdge(0, 1).Coalesce().AddVertex(1);
  EXPECT_TRUE(delta.added_edges.empty());
  EXPECT_EQ(delta.num_new_vertices, 1);
}

TEST(CoalesceTest, EmptyDeltaIsANoOp) {
  GraphDelta delta;
  delta.Coalesce();
  EXPECT_EQ(delta.num_new_vertices, 0);
  EXPECT_TRUE(delta.added_edges.empty());
  EXPECT_TRUE(delta.removed_edges.empty());
}

TEST(CoalesceTest, MakesInWindowAddThenRemoveApplicable) {
  // A window that adds (1,2) and removes it again cannot be expressed as
  // one uncoalesced delta: ApplyDelta removes first, and the base never
  // contained (1,2). Coalescing cancels the pair and the window applies.
  const EdgeList base = {{0, 1}};
  GraphDelta window = GraphDelta{}.AddEdge(1, 2).RemoveEdge(1, 2);
  EXPECT_FALSE(ApplyDelta(3, base, window).ok());
  auto out = ApplyDelta(3, base, window.Coalesce());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, base);
}

TEST(CoalesceTest, CoalescedWindowMatchesEventAtATimeApplication) {
  // A realistic window: new edges, a retry-duplicated add, an edge that
  // came and went, a base-edge removal, and a vertex grow. The coalesced
  // single ApplyDelta must land on the same edge multiset as applying the
  // events one at a time.
  const EdgeList base = {{0, 1}, {1, 2}, {2, 3}};
  GraphDelta window = GraphDelta{}
                          .AddVertex(1)
                          .AddEdge(3, 4)
                          .AddEdge(3, 4)   // producer retry
                          .AddEdge(0, 4)
                          .RemoveEdge(0, 4)  // came and went
                          .RemoveEdge(1, 2);  // base removal
  auto coalesced = ApplyDelta(4, base, window.Coalesce());
  ASSERT_TRUE(coalesced.ok()) << coalesced.status();

  // Event-at-a-time equivalent (each event its own delta; retries and the
  // transient edge collapse to the same multiset).
  auto step = ApplyDelta(4, base, GraphDelta{}.AddVertex(1));
  ASSERT_TRUE(step.ok());
  auto step2 = ApplyDelta(5, *step, GraphDelta{}.AddEdge(3, 4));
  ASSERT_TRUE(step2.ok());
  auto step3 = ApplyDelta(5, *step2, GraphDelta{}.AddEdge(0, 4));
  ASSERT_TRUE(step3.ok());
  auto step4 = ApplyDelta(5, *step3, GraphDelta{}.RemoveEdge(0, 4));
  ASSERT_TRUE(step4.ok());
  auto step5 = ApplyDelta(5, *step4, GraphDelta{}.RemoveEdge(1, 2));
  ASSERT_TRUE(step5.ok());

  EdgeList got = *coalesced;
  EdgeList want = *step5;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(RandomEdgeAdditionsTest, CountNoveltyAndDeterminism) {
  const EdgeList existing = {{0, 1}, {1, 2}};
  auto delta = RandomEdgeAdditions(50, existing, 30, 5);
  EXPECT_EQ(delta.added_edges.size(), 30u);

  // No self-loops, nothing already present (in either direction), no dups.
  EdgeList canon = delta.added_edges;
  for (Edge& e : canon) {
    EXPECT_NE(e.src, e.dst);
    if (e.src > e.dst) std::swap(e.src, e.dst);
  }
  canon.push_back({0, 1});
  canon.push_back({1, 2});
  const size_t before = canon.size();
  SortAndDedup(&canon);
  EXPECT_EQ(canon.size(), before);

  auto again = RandomEdgeAdditions(50, existing, 30, 5);
  EXPECT_EQ(delta.added_edges, again.added_edges);
  auto other = RandomEdgeAdditions(50, existing, 30, 6);
  EXPECT_NE(delta.added_edges, other.added_edges);
}

}  // namespace
}  // namespace spinner
