#include "graph/generators.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "graph/edge_list.h"

namespace spinner {

namespace {

/// Dedup set of undirected edges, each stored as (min, max).
using UndirectedSet = std::unordered_set<Edge, EdgeHash>;

Edge UndirectedKey(VertexId a, VertexId b) {
  return Edge{std::min(a, b), std::max(a, b)};
}

}  // namespace

Result<GeneratedGraph> WattsStrogatz(int64_t num_vertices,
                                     int neighbors_per_side, double beta,
                                     uint64_t seed) {
  if (num_vertices < 3) {
    return Status::InvalidArgument("Watts-Strogatz needs >= 3 vertices");
  }
  if (neighbors_per_side < 1 ||
      2 * neighbors_per_side >= num_vertices) {
    return Status::InvalidArgument(
        "neighbors_per_side must be in [1, (n-1)/2]");
  }
  if (beta < 0.0 || beta > 1.0) {
    return Status::InvalidArgument("beta must be in [0,1]");
  }

  GeneratedGraph g;
  g.num_vertices = num_vertices;
  g.directed = false;
  g.edges.reserve(num_vertices * neighbors_per_side);

  // Dedup set guards rewired targets; lattice edges are unique by design.
  UndirectedSet present;
  present.reserve(num_vertices * neighbors_per_side * 2);
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (int j = 1; j <= neighbors_per_side; ++j) {
      present.insert(UndirectedKey(v, (v + j) % num_vertices));
    }
  }

  for (VertexId v = 0; v < num_vertices; ++v) {
    for (int j = 1; j <= neighbors_per_side; ++j) {
      const VertexId lattice_target = (v + j) % num_vertices;
      VertexId target = lattice_target;
      Rng rng(HashCombine(seed, static_cast<uint64_t>(v),
                          static_cast<uint64_t>(j)));
      if (rng.Bernoulli(beta)) {
        // Rewire: pick a uniform non-self target not already connected.
        // Bounded retries keep generation O(1) per edge; on exhaustion the
        // lattice edge is kept, matching the standard WS formulation where
        // rewiring is skipped if it would duplicate.
        for (int attempt = 0; attempt < 16; ++attempt) {
          const VertexId cand =
              static_cast<VertexId>(rng.Uniform(num_vertices));
          if (cand == v) continue;
          const Edge key = UndirectedKey(v, cand);
          if (present.count(key)) continue;
          present.erase(UndirectedKey(v, lattice_target));
          present.insert(key);
          target = cand;
          break;
        }
      }
      g.edges.push_back({v, target});
    }
  }
  return g;
}

Result<GeneratedGraph> BarabasiAlbert(int64_t num_vertices, int m0, int m,
                                      uint64_t seed) {
  if (m0 < 2 || m < 1 || m > m0 || num_vertices < m0) {
    return Status::InvalidArgument(
        "BarabasiAlbert requires m0 >= 2, 1 <= m <= m0 <= n");
  }
  GeneratedGraph g;
  g.num_vertices = num_vertices;
  g.directed = false;

  // `endpoints` holds one entry per edge endpoint; sampling uniformly from
  // it implements preferential attachment (probability ∝ degree).
  std::vector<VertexId> endpoints;
  endpoints.reserve(2 * (num_vertices * m + m0 * m0));

  // Seed clique over [0, m0).
  for (VertexId u = 0; u < m0; ++u) {
    for (VertexId v = u + 1; v < m0; ++v) {
      g.edges.push_back({u, v});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }

  Rng rng(SplitMix64(seed));
  std::vector<VertexId> chosen;
  for (VertexId v = m0; v < num_vertices; ++v) {
    chosen.clear();
    int attempts = 0;
    while (static_cast<int>(chosen.size()) < m && attempts < 64 * m) {
      ++attempts;
      const VertexId target = endpoints[rng.Uniform(endpoints.size())];
      if (target == v) continue;
      if (std::find(chosen.begin(), chosen.end(), target) != chosen.end()) {
        continue;
      }
      chosen.push_back(target);
    }
    for (VertexId target : chosen) {
      g.edges.push_back({v, target});
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  return g;
}

Result<GeneratedGraph> ErdosRenyi(int64_t num_vertices, int64_t num_edges,
                                  uint64_t seed) {
  if (num_vertices < 2) {
    return Status::InvalidArgument("ErdosRenyi needs >= 2 vertices");
  }
  // n(n-1)/2 with the even factor halved first; a product past int64
  // saturates, which keeps the bound check exact for any int64 count.
  const bool even = num_vertices % 2 == 0;
  int64_t max_edges = 0;
  if (__builtin_mul_overflow(even ? num_vertices / 2 : num_vertices,
                             even ? num_vertices - 1 : (num_vertices - 1) / 2,
                             &max_edges)) {
    max_edges = std::numeric_limits<int64_t>::max();
  }
  if (num_edges < 0 || num_edges > max_edges) {
    return Status::InvalidArgument(
        StrFormat("num_edges %lld outside [0, %lld]",
                  static_cast<long long>(num_edges),
                  static_cast<long long>(max_edges)));
  }
  GeneratedGraph g;
  g.num_vertices = num_vertices;
  g.directed = false;
  UndirectedSet present;
  present.reserve(num_edges * 2);
  Rng rng(SplitMix64(seed ^ 0xE2D5ULL));
  while (static_cast<int64_t>(g.edges.size()) < num_edges) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(num_vertices));
    const VertexId v = static_cast<VertexId>(rng.Uniform(num_vertices));
    if (u == v) continue;
    if (!present.insert(UndirectedKey(u, v)).second) continue;
    g.edges.push_back({u, v});
  }
  return g;
}

Result<GeneratedGraph> RMat(int scale, int edge_factor, double a, double b,
                            double c, uint64_t seed) {
  if (scale < 1 || scale > 30) {
    return Status::InvalidArgument("RMat scale must be in [1,30]");
  }
  if (edge_factor < 1) {
    return Status::InvalidArgument("edge_factor must be >= 1");
  }
  const double d = 1.0 - a - b - c;
  if (a < 0 || b < 0 || c < 0 || d < 0) {
    return Status::InvalidArgument("RMat probabilities must be >= 0, sum<=1");
  }
  GeneratedGraph g;
  g.num_vertices = int64_t{1} << scale;
  g.directed = true;
  const int64_t num_edges = g.num_vertices * edge_factor;
  g.edges.reserve(num_edges);
  Rng rng(SplitMix64(seed ^ 0x52A7ULL));
  for (int64_t i = 0; i < num_edges; ++i) {
    VertexId src = 0;
    VertexId dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double r = rng.NextDouble();
      if (r < a) {
        // top-left quadrant: neither bit set
      } else if (r < a + b) {
        dst |= int64_t{1} << bit;
      } else if (r < a + b + c) {
        src |= int64_t{1} << bit;
      } else {
        src |= int64_t{1} << bit;
        dst |= int64_t{1} << bit;
      }
    }
    if (src == dst) {
      --i;  // reject self-loop, redraw
      continue;
    }
    g.edges.push_back({src, dst});
  }
  return g;
}

Result<GeneratedGraph> PlantedPartition(int num_blocks, int64_t block_size,
                                        double p_in, double p_out,
                                        uint64_t seed) {
  if (num_blocks < 1 || block_size < 1) {
    return Status::InvalidArgument("need >= 1 block of >= 1 vertex");
  }
  if (p_in < 0 || p_in > 1 || p_out < 0 || p_out > 1) {
    return Status::InvalidArgument("probabilities must be in [0,1]");
  }
  GeneratedGraph g;
  g.num_vertices = static_cast<int64_t>(num_blocks) * block_size;
  g.directed = false;
  // Bernoulli per pair is O(n^2): acceptable for the test/bench sizes this
  // generator targets (up to ~hundred thousand pairs in communities).
  for (VertexId u = 0; u < g.num_vertices; ++u) {
    for (VertexId v = u + 1; v < g.num_vertices; ++v) {
      const bool same_block = (u / block_size) == (v / block_size);
      const double p = same_block ? p_in : p_out;
      const double r = HashUniformDouble(HashCombine(
          seed, static_cast<uint64_t>(u), static_cast<uint64_t>(v)));
      if (r < p) g.edges.push_back({u, v});
    }
  }
  return g;
}

GeneratedGraph Ring(int64_t num_vertices) {
  SPINNER_CHECK(num_vertices >= 3);
  GeneratedGraph g;
  g.num_vertices = num_vertices;
  for (VertexId v = 0; v < num_vertices; ++v) {
    g.edges.push_back({v, (v + 1) % num_vertices});
  }
  return g;
}

GeneratedGraph Path(int64_t num_vertices) {
  SPINNER_CHECK(num_vertices >= 1);
  GeneratedGraph g;
  g.num_vertices = num_vertices;
  for (VertexId v = 0; v + 1 < num_vertices; ++v) {
    g.edges.push_back({v, v + 1});
  }
  return g;
}

GeneratedGraph Star(int64_t num_leaves) {
  SPINNER_CHECK(num_leaves >= 1);
  GeneratedGraph g;
  g.num_vertices = num_leaves + 1;
  for (VertexId v = 1; v <= num_leaves; ++v) g.edges.push_back({0, v});
  return g;
}

GeneratedGraph Complete(int64_t num_vertices) {
  SPINNER_CHECK(num_vertices >= 2);
  GeneratedGraph g;
  g.num_vertices = num_vertices;
  for (VertexId u = 0; u < num_vertices; ++u) {
    for (VertexId v = u + 1; v < num_vertices; ++v) g.edges.push_back({u, v});
  }
  return g;
}

GeneratedGraph Grid(int64_t rows, int64_t cols) {
  SPINNER_CHECK(rows >= 1 && cols >= 1);
  GeneratedGraph g;
  g.num_vertices = rows * cols;
  auto id = [cols](int64_t r, int64_t c) { return r * cols + c; };
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) g.edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return g;
}

}  // namespace spinner
