#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace spinner {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 0}, {5, 3}};
  const std::string path = TempPath("edges_roundtrip.txt");
  ASSERT_TRUE(graph_io::WriteEdgeList(path, edges).ok());
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, edges);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadSkipsCommentsAndBlankLines) {
  const std::string path = TempPath("edges_comments.txt");
  WriteFile(path, "# SNAP-style header\n% matrix-market comment\n\n0 1\n\n1 2\n");
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (EdgeList{{0, 1}, {1, 2}}));
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadAcceptsTabsAndExtraColumns) {
  const std::string path = TempPath("edges_tabs.txt");
  WriteFile(path, "0\t1\n1\t2\t99\n");  // third column (weight) ignored
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (EdgeList{{0, 1}, {1, 2}}));
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadMissingFileIsIOError) {
  auto read = graph_io::ReadEdgeList("/nonexistent/path/nope.txt");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST_F(GraphIoTest, ReadMalformedLineNamesLineNumber) {
  const std::string path = TempPath("edges_bad.txt");
  WriteFile(path, "0 1\nnot numbers\n");
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadRejectsNegativeIds) {
  const std::string path = TempPath("edges_neg.txt");
  WriteFile(path, "0 -1\n");
  EXPECT_FALSE(graph_io::ReadEdgeList(path).ok());
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadAcceptsCrlfPlusSignAndNoFinalNewline) {
  const std::string path = TempPath("edges_crlf.txt");
  WriteFile(path, "0 1\r\n+5 7\r\n  2 3\r\n1234567890123456789 4\r\n8 9");
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_TRUE(read.ok()) << read.status();
  const EdgeList expected = {
      {0, 1}, {5, 7}, {2, 3}, {1234567890123456789, 4}, {8, 9}};
  EXPECT_EQ(*read, expected);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadRejectsOverflowAndNegativeWithLineNumber) {
  const std::string path = TempPath("edges_overflow.txt");
  WriteFile(path, "# header\n0 1\n9223372036854775808 1\n");
  auto read = graph_io::ReadEdgeList(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(read.status().message(),
            path + ":3: malformed edge line: '9223372036854775808 1'");

  WriteFile(path, "0 1\n-1 2\r\n");
  read = graph_io::ReadEdgeList(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().message(), path + ":2: malformed edge line: '-1 2'");
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, ReadDirectoryIsIOErrorNotAbort) {
  auto edges = graph_io::ReadEdgeList(testing::TempDir());
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kIOError);
  auto parts = graph_io::ReadPartitioning(testing::TempDir(), 3);
  ASSERT_FALSE(parts.ok());
  EXPECT_EQ(parts.status().code(), StatusCode::kIOError);
}

TEST_F(GraphIoTest, WriteToUnwritablePathIsIOError) {
  EXPECT_EQ(graph_io::WriteEdgeList("/nonexistent/dir/out.txt", {}).code(),
            StatusCode::kIOError);
}

TEST_F(GraphIoTest, PartitioningRoundTrip) {
  const std::vector<PartitionId> assignment = {2, 0, 1, 1, 0};
  const std::string path = TempPath("parts_roundtrip.txt");
  ASSERT_TRUE(graph_io::WritePartitioning(path, assignment).ok());
  auto read = graph_io::ReadPartitioning(path, 5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, assignment);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, PartitioningMissingVertexFails) {
  const std::string path = TempPath("parts_missing.txt");
  WriteFile(path, "0 1\n2 0\n");  // vertex 1 absent
  auto read = graph_io::ReadPartitioning(path, 3);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, PartitioningDuplicateVertexFails) {
  const std::string path = TempPath("parts_dup.txt");
  WriteFile(path, "0 1\n0 2\n1 0\n");
  EXPECT_FALSE(graph_io::ReadPartitioning(path, 2).ok());
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, PartitioningOutOfRangeVertexFails) {
  const std::string path = TempPath("parts_oor.txt");
  WriteFile(path, "0 1\n7 0\n");
  auto read = graph_io::ReadPartitioning(path, 2);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, PartitioningErrorsNameTheLine) {
  const std::string path = TempPath("parts_lines.txt");
  WriteFile(path, "0 1\r\n7 0\r\n");
  auto read = graph_io::ReadPartitioning(path, 2);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().message(), path + ":2: vertex 7 outside [0,2)");

  WriteFile(path, "# parts\n0 1\n1 0\n0 1");
  read = graph_io::ReadPartitioning(path, 2);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().message(), path + ":4: vertex 0 assigned twice");
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, PartitioningNegativeLabelFails) {
  const std::string path = TempPath("parts_neg.txt");
  WriteFile(path, "0 -3\n1 0\n");
  EXPECT_FALSE(graph_io::ReadPartitioning(path, 2).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spinner
