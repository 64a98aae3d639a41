// The text load path (ReadEdgeList, ReadPartitioning, CompactVertexIds,
// ConvertToWeightedUndirected, BuildSymmetric) against the straightforward
// implementations it replaced, kept below as oracles: every seeded input
// must give the same edges, mapping, graph or error message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "graph/conversion.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"
#include "graph/graph_io.h"
#include "graph/remap.h"

namespace spinner {
namespace {

// --- Oracles: getline + SplitWhitespace, sort-and-map, Arc sort --------------

namespace oracle {

bool IsCommentOrBlank(std::string_view line) {
  line = Trim(line);
  return line.empty() || line[0] == '#' || line[0] == '%';
}

Result<EdgeList> ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open edge list file: " + path);
  }
  EdgeList edges;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    const auto fields = SplitWhitespace(line);
    int64_t src = 0;
    int64_t dst = 0;
    if (fields.size() < 2 || !ParseInt64(fields[0], &src) ||
        !ParseInt64(fields[1], &dst) || src < 0 || dst < 0) {
      return Status::InvalidArgument(StrFormat(
          "%s:%lld: malformed edge line: '%s'", path.c_str(),
          static_cast<long long>(line_no), std::string(Trim(line)).c_str()));
    }
    edges.push_back({src, dst});
  }
  if (in.bad()) {
    return Status::IOError("read error on: " + path);
  }
  return edges;
}

Result<std::vector<PartitionId>> ReadPartitioning(const std::string& path,
                                                  int64_t num_vertices) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open partition file: " + path);
  }
  std::vector<PartitionId> assignment(num_vertices, kNoPartition);
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    const auto fields = SplitWhitespace(line);
    int64_t vertex = 0;
    int64_t part = 0;
    if (fields.size() < 2 || !ParseInt64(fields[0], &vertex) ||
        !ParseInt64(fields[1], &part) || part < 0) {
      return Status::InvalidArgument(StrFormat(
          "%s:%lld: malformed partition line: '%s'", path.c_str(),
          static_cast<long long>(line_no), std::string(Trim(line)).c_str()));
    }
    if (vertex < 0 || vertex >= num_vertices) {
      return Status::OutOfRange(StrFormat(
          "%s:%lld: vertex %lld outside [0,%lld)", path.c_str(),
          static_cast<long long>(line_no), static_cast<long long>(vertex),
          static_cast<long long>(num_vertices)));
    }
    if (assignment[vertex] != kNoPartition) {
      return Status::InvalidArgument(StrFormat(
          "%s:%lld: vertex %lld assigned twice", path.c_str(),
          static_cast<long long>(line_no), static_cast<long long>(vertex)));
    }
    assignment[vertex] = static_cast<PartitionId>(part);
  }
  if (in.bad()) {
    return Status::IOError("read error on: " + path);
  }
  for (int64_t v = 0; v < num_vertices; ++v) {
    if (assignment[v] == kNoPartition) {
      return Status::InvalidArgument(StrFormat(
          "vertex %lld has no partition in %s", static_cast<long long>(v),
          path.c_str()));
    }
  }
  return assignment;
}

VertexIdMapping CompactVertexIds(EdgeList* edges) {
  VertexIdMapping mapping;
  mapping.original_id.reserve(edges->size());
  for (const Edge& e : *edges) {
    mapping.original_id.push_back(e.src);
    mapping.original_id.push_back(e.dst);
  }
  std::sort(mapping.original_id.begin(), mapping.original_id.end());
  mapping.original_id.erase(
      std::unique(mapping.original_id.begin(), mapping.original_id.end()),
      mapping.original_id.end());

  std::unordered_map<VertexId, VertexId> to_dense;
  to_dense.reserve(mapping.original_id.size() * 2);
  for (size_t dense = 0; dense < mapping.original_id.size(); ++dense) {
    to_dense[mapping.original_id[dense]] = static_cast<VertexId>(dense);
  }
  for (Edge& e : *edges) {
    e.src = to_dense[e.src];
    e.dst = to_dense[e.dst];
  }
  return mapping;
}

Result<CsrGraph> ConvertToWeightedUndirected(int64_t num_vertices,
                                             const EdgeList& directed_edges) {
  struct Arc {
    VertexId lo;
    VertexId hi;
    uint8_t dir;  // bit 0: lo->hi present, bit 1: hi->lo present

    bool operator<(const Arc& o) const {
      return std::tie(lo, hi) < std::tie(o.lo, o.hi);
    }
  };
  std::vector<Arc> arcs;
  arcs.reserve(directed_edges.size());
  for (const Edge& e : directed_edges) {
    if (e.src == e.dst) continue;  // self-loops carry no cut information
    if (e.src < e.dst) {
      arcs.push_back({e.src, e.dst, 1});
    } else {
      arcs.push_back({e.dst, e.src, 2});
    }
  }
  std::sort(arcs.begin(), arcs.end());

  EdgeList sym_edges;
  std::vector<EdgeWeight> sym_weights;
  sym_edges.reserve(arcs.size() * 2);
  sym_weights.reserve(arcs.size() * 2);
  size_t i = 0;
  while (i < arcs.size()) {
    uint8_t dir = 0;
    const VertexId lo = arcs[i].lo;
    const VertexId hi = arcs[i].hi;
    while (i < arcs.size() && arcs[i].lo == lo && arcs[i].hi == hi) {
      dir |= arcs[i].dir;
      ++i;
    }
    const EdgeWeight w = (dir == 3) ? 2u : 1u;  // both directions => 2
    sym_edges.push_back({lo, hi});
    sym_weights.push_back(w);
    sym_edges.push_back({hi, lo});
    sym_weights.push_back(w);
  }
  return CsrGraph::FromEdges(num_vertices, sym_edges, sym_weights);
}

Result<CsrGraph> BuildSymmetric(int64_t num_vertices, const EdgeList& edges) {
  EdgeList canonical;
  canonical.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    canonical.push_back({std::min(e.src, e.dst), std::max(e.src, e.dst)});
  }
  SortAndDedup(&canonical);

  EdgeList sym;
  sym.reserve(canonical.size() * 2);
  for (const Edge& e : canonical) {
    sym.push_back(e);
    sym.push_back({e.dst, e.src});
  }
  return CsrGraph::FromEdges(num_vertices, sym);
}

}  // namespace oracle

// --- Helpers -----------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/load_path_" + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Same value, or same code and message.
template <typename T>
void ExpectSameResult(const Result<T>& actual, const Result<T>& expected,
                      const std::string& what) {
  ASSERT_EQ(actual.ok(), expected.ok())
      << what << ": " << (actual.ok() ? expected.status() : actual.status());
  if (expected.ok()) {
    EXPECT_EQ(*actual, *expected) << what;
  } else {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << what;
    EXPECT_EQ(actual.status().message(), expected.status().message())
        << what;
  }
}

/// Parses `bytes` as an edge list with the reader and the oracle.
void ExpectReadLikeOracle(const std::string& bytes, const std::string& name) {
  const std::string path = TempPath(name);
  WriteBytes(path, bytes);
  ExpectSameResult(graph_io::ReadEdgeList(path), oracle::ReadEdgeList(path),
                   name);
  std::remove(path.c_str());
}

/// An edge list of `m` edges over ids drawn by `draw`, with duplicates,
/// self-loops and reciprocal pairs mixed in.
template <typename Draw>
EdgeList RandomEdges(std::mt19937_64& rng, size_t m, Draw draw) {
  EdgeList edges;
  edges.reserve(m);
  std::uniform_int_distribution<int> kind(0, 9);
  while (edges.size() < m) {
    const int k = kind(rng);
    if (k == 0 && !edges.empty()) {  // duplicate
      edges.push_back(edges[rng() % edges.size()]);
    } else if (k == 1 && !edges.empty()) {  // reciprocal
      const Edge e = edges[rng() % edges.size()];
      edges.push_back({e.dst, e.src});
    } else if (k == 2) {  // self-loop
      const VertexId v = draw();
      edges.push_back({v, v});
    } else {
      edges.push_back({draw(), draw()});
    }
  }
  return edges;
}

// --- ReadEdgeList ------------------------------------------------------------

TEST(LoadPathTest, ParserCasesMatchOracle) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"plus_sign", "+5 7\n"},
      {"crlf", "0 1\r\n1 2\r\n"},
      {"tabs", "0\t1\n1\t\t2\t\n"},
      {"leading_blanks", "  0 1\n\t1 2\n"},
      {"third_field", "0 1 7\n1 2\t3.5\n"},
      {"comments", "# header\n% mm\n0 1\n  # indented\n"},
      {"nineteen_digits", "1234567890123456789 1\n"},
      {"max_int64", "9223372036854775807 0\n"},
      {"overflow", "0 1\n9223372036854775808 1\n"},
      {"negative", "0 1\n-1 2\n"},
      {"negative_zero", "-0 3\n"},
      {"leading_zeros", "000000000000000000007 08\n"},
      {"one_field", "0 1\n5\n"},
      {"garbage", "0 1\n1 2x\n"},
      {"vertical_tab", "0 1\v\n"},
      {"blank_lines", "\n\n0 1\n\r\n \t\n2 3\n"},
      {"no_trailing_newline", "0 1\n2 3"},
      {"lone_cr", "\r"},
      {"empty", ""},
      {"trailing_space_then_cr", "4 5 \t\r\n"},
      {"nul_byte", std::string("0 1\n2 \0 3\n", 10)},
  };
  for (const auto& [name, bytes] : cases) {
    ExpectReadLikeOracle(bytes, name);
  }
}

TEST(LoadPathTest, SeededRandomTextMatchesOracle) {
  std::mt19937_64 rng(0x5eed);
  const std::vector<std::string> separators = {" ", "\t", "  ", " \t "};
  const std::vector<std::string> endings = {"\n", "\r\n", " \n", "\t\r\n"};
  for (int trial = 0; trial < 40; ++trial) {
    std::string text;
    const int lines = 1 + static_cast<int>(rng() % 400);
    for (int i = 0; i < lines; ++i) {
      const int kind = static_cast<int>(rng() % 20);
      const auto id = [&rng] {
        switch (rng() % 3) {
          case 0:
            return std::to_string(rng() % 100);
          case 1:
            return std::to_string(rng() % 1000000007);
          default:
            return std::to_string(rng() >> 2);  // up to 2^62
        }
      };
      std::string line;
      if (kind == 0) {
        line = "# comment " + id();
      } else if (kind == 1) {
        line = "% comment";
      } else if (kind == 2) {
        line = "";
      } else if (kind == 3) {
        line = " " + id() + " " + id();  // leading blank
      } else if (kind == 4) {
        line = id() + " " + id() + " " + id();  // third field
      } else if (kind == 5) {
        line = "+" + id() + "\t" + id();
      } else {
        line = id() + separators[rng() % separators.size()] + id();
      }
      text += line + endings[rng() % endings.size()];
    }
    if (rng() % 2 == 0 && !text.empty()) text.pop_back();  // unterminated
    if (trial % 10 == 9) {
      // One bad line at a random position: same message, same line.
      const size_t at = rng() % (text.size() + 1);
      const size_t cut = text.find('\n', at);
      text.insert(cut == std::string::npos ? text.size() : cut + 1,
                  "12 -3\n");
    }
    ExpectReadLikeOracle(text, "random_" + std::to_string(trial));
  }
}

TEST(LoadPathTest, BlockBoundariesMatchOracle) {
  const size_t block = size_t{1} << 20;
  // A line cut by the block boundary, at every offset around it.
  for (const size_t cut : {size_t{0}, size_t{1}, size_t{3}, size_t{5}}) {
    std::string text = "1 2\n";
    const std::string line = "123 456\n";
    // A comment pads the file so the edge line starts `cut` bytes before
    // the end of the first block.
    const size_t pad = block - text.size() - cut;
    text += "#" + std::string(pad - 2, 'x') + "\n";
    text += line + "7 8\n";
    ASSERT_EQ(text.find(line), block - cut);
    ExpectReadLikeOracle(text, "boundary_" + std::to_string(cut));
  }
  // A line longer than a block, on the general path (leading blanks) and
  // as a comment, then more lines.
  ExpectReadLikeOracle(std::string(block + block / 2, ' ') + "3 4\n5 6\n",
                       "long_edge_line");
  ExpectReadLikeOracle(
      "0 1\n#" + std::string(3 * block, 'c') + "\n2 3\n", "long_comment");
  // A malformed line longer than a block: same message, same line number.
  ExpectReadLikeOracle("0 1\n" + std::string(block + 7, '9') + " 1\n",
                       "long_bad_line");
  // A file of exactly one block, and one a byte longer, no final newline.
  std::string exact;
  while (exact.size() + 16 <= block) exact += "10 2000\n";
  exact += std::string(block - exact.size() - 1, ' ') + "\n";
  ASSERT_EQ(exact.size(), block);
  ExpectReadLikeOracle(exact, "exact_block");
  ExpectReadLikeOracle(exact + "9", "block_plus_unterminated");
}

// --- ReadPartitioning --------------------------------------------------------

TEST(LoadPathTest, ReadPartitioningMatchesOracle) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"plain", "0 1\n1 0\n2 3\n"},
      {"crlf_comments", "# parts\r\n0 1\r\n\r\n2 2\r\n1\t0\r\n"},
      {"out_of_range", "0 1\n1 0\n3 0\n"},
      {"negative_vertex", "0 1\n-1 0\n"},
      {"assigned_twice", "0 1\n1 0\n0 2\n"},
      {"negative_label", "0 1\n1 -2\n"},
      {"missing", "0 1\n2 0\n"},
      {"malformed", "0 1\nzero one\n"},
      {"unterminated", "2 1\n1 0\n0 5"},
  };
  for (const auto& [name, bytes] : cases) {
    const std::string path = TempPath("parts_" + name);
    WriteBytes(path, bytes);
    ExpectSameResult(graph_io::ReadPartitioning(path, 3),
                     oracle::ReadPartitioning(path, 3), name);
    std::remove(path.c_str());
  }
}

// --- CompactVertexIds --------------------------------------------------------

void ExpectCompactLikeOracle(const EdgeList& edges, const std::string& what) {
  EdgeList actual_edges = edges;
  EdgeList expected_edges = edges;
  const VertexIdMapping actual = CompactVertexIds(&actual_edges);
  const VertexIdMapping expected = oracle::CompactVertexIds(&expected_edges);
  EXPECT_EQ(actual.original_id, expected.original_id) << what;
  EXPECT_EQ(actual_edges, expected_edges) << what;
}

TEST(LoadPathTest, CompactVertexIdsMatchesOracle) {
  ExpectCompactLikeOracle({}, "empty");
  ExpectCompactLikeOracle({{7, 7}}, "one_self_loop");
  ExpectCompactLikeOracle({{0, 0}}, "zero_self_loop");
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t m = 1 + rng() % 3000;
    const auto bound = static_cast<VertexId>(m);
    // Dense: every id in [0, n) occurs (identity mapping).
    {
      EdgeList edges = RandomEdges(rng, m, [&] {
        return static_cast<VertexId>(rng() % (bound / 2 + 1));
      });
      for (VertexId v = 0; v <= bound / 2; ++v) edges.push_back({v, 0});
      std::shuffle(edges.begin(), edges.end(), rng);
      ExpectCompactLikeOracle(edges, "dense");
    }
    // Gapped small ids: the byte-map path with a rank table.
    const auto gapped = [&] {
      return static_cast<VertexId>(rng() % (2 * bound + 1000));
    };
    ExpectCompactLikeOracle(RandomEdges(rng, m, gapped), "gapped");
    // Ids just past the byte-map bound, and up to 2^62: the sort path.
    const auto past_bound = [&] {
      return static_cast<VertexId>(2 * bound + 1024 + rng() % 5);
    };
    ExpectCompactLikeOracle(RandomEdges(rng, m, past_bound), "past_bound");
    const auto huge = [&] { return static_cast<VertexId>(rng() >> 2); };
    ExpectCompactLikeOracle(RandomEdges(rng, m, huge), "huge");
    // Negative ids (only CompactVertexIds accepts them).
    const auto negative = [&] {
      return static_cast<VertexId>(rng() % 200) - 100;
    };
    ExpectCompactLikeOracle(RandomEdges(rng, m, negative), "negative");
  }
}

// --- ConvertToWeightedUndirected ---------------------------------------------

/// Both conversions share one builder; each must match its oracle.
void ExpectConvertLikeOracle(int64_t n, const EdgeList& edges,
                             const std::string& what) {
  ExpectSameResult(ConvertToWeightedUndirected(n, edges),
                   oracle::ConvertToWeightedUndirected(n, edges), what);
  ExpectSameResult(BuildSymmetric(n, edges), oracle::BuildSymmetric(n, edges),
                   what + " (undirected)");
}

TEST(LoadPathTest, ConvertMatchesOracle) {
  ExpectConvertLikeOracle(0, {}, "empty_graph");
  ExpectConvertLikeOracle(5, {}, "isolated_only");
  ExpectConvertLikeOracle(3, {{1, 1}, {2, 2}}, "self_loops_only");
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const int64_t n = 1 + static_cast<int64_t>(rng() % 2000);
    const size_t m = rng() % 8000;
    // Ids in the lower half only: the upper half stays isolated.
    const int64_t used = trial % 2 == 0 ? n : (n + 1) / 2;
    const EdgeList edges = RandomEdges(rng, m, [&] {
      return static_cast<VertexId>(rng() % static_cast<uint64_t>(used));
    });
    ExpectConvertLikeOracle(n, edges, "random_" + std::to_string(trial));
  }
  // A hub: one vertex in every pair, both directions, many duplicates.
  EdgeList star;
  for (VertexId v = 1; v < 500; ++v) {
    star.push_back({0, v});
    if (v % 3 == 0) star.push_back({v, 0});
    if (v % 5 == 0) star.push_back({0, v});
  }
  std::shuffle(star.begin(), star.end(), rng);
  ExpectConvertLikeOracle(500, star, "star");
}

TEST(LoadPathTest, ConvertRejectsLikeOracleValidation) {
  // Out-of-range endpoints are refused before any bucket is sized.
  EXPECT_EQ(ConvertToWeightedUndirected(3, {{0, 3}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ConvertToWeightedUndirected(3, {{-1, 0}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ConvertToWeightedUndirected(-1, {}).status().code(),
            StatusCode::kInvalidArgument);
}

// --- The pipeline ------------------------------------------------------------

TEST(LoadPathTest, TextToConvertedGraphMatchesOracle) {
  // Read, compact, convert — the `partition_tool` load path end to end,
  // over sparse ids with duplicates, reciprocal pairs and self-loops.
  std::mt19937_64 rng(11);
  const EdgeList edges = RandomEdges(rng, 5000, [&] {
    return static_cast<VertexId>((rng() % 700) * 1000003);
  });
  std::string text = "# sparse\r\n";
  for (const Edge& e : edges) {
    text += std::to_string(e.src) + (rng() % 2 ? "\t" : " ") +
            std::to_string(e.dst) + (rng() % 2 ? "\r\n" : "\n");
  }
  const std::string path = TempPath("pipeline.txt");
  WriteBytes(path, text);
  auto actual = graph_io::ReadEdgeList(path);
  auto expected = oracle::ReadEdgeList(path);
  std::remove(path.c_str());
  ASSERT_TRUE(actual.ok()) << actual.status();
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(*actual, edges);
  ASSERT_EQ(*actual, *expected);
  const VertexIdMapping mapping = CompactVertexIds(&*actual);
  EXPECT_EQ(mapping.original_id,
            oracle::CompactVertexIds(&*expected).original_id);
  ExpectConvertLikeOracle(mapping.num_vertices(), *actual, "pipeline");
  EXPECT_EQ(*actual, *expected);
}

// --- CsrGraph::FromEdges row order -------------------------------------------

TEST(LoadPathTest, FromEdgesSortsRowsByTargetThenWeight) {
  // Unsorted rows with parallel arcs of different weights, sorted rows,
  // and empty rows: every row comes out sorted by (target, weight) with
  // its multiplicity kept.
  std::mt19937_64 rng(3);
  const int64_t n = 300;
  EdgeList edges;
  std::vector<EdgeWeight> weights;
  for (int i = 0; i < 4000; ++i) {
    const VertexId src = static_cast<VertexId>(rng() % (n / 2));
    edges.push_back({src, static_cast<VertexId>(rng() % n)});
    weights.push_back(static_cast<EdgeWeight>(1 + rng() % 3));
  }
  for (VertexId v = n / 2; v < n - 10; ++v) {  // already-sorted rows
    edges.push_back({v, v - 1});
    weights.push_back(1);
    edges.push_back({v, v + 1});
    weights.push_back(2);
  }
  auto g = CsrGraph::FromEdges(n, edges, weights);
  ASSERT_TRUE(g.ok());

  std::vector<std::tuple<VertexId, VertexId, EdgeWeight>> expected;
  for (size_t i = 0; i < edges.size(); ++i) {
    expected.emplace_back(edges[i].src, edges[i].dst, weights[i]);
  }
  std::sort(expected.begin(), expected.end());
  std::vector<std::tuple<VertexId, VertexId, EdgeWeight>> actual;
  int64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    int64_t degree = 0;
    for (int64_t i = 0; i < g->OutDegree(v); ++i) {
      actual.emplace_back(v, g->Neighbors(v)[i], g->Weights(v)[i]);
      degree += g->Weights(v)[i];
    }
    EXPECT_EQ(g->WeightedDegree(v), degree);
    total += degree;
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(g->TotalArcWeight(), total);
}

}  // namespace
}  // namespace spinner
