#include "graph/csr_graph.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/string_util.h"

namespace spinner {

Result<CsrGraph> CsrGraph::FromEdges(int64_t num_vertices,
                                     const EdgeList& edges,
                                     std::span<const EdgeWeight> weights) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  if (!weights.empty() && weights.size() != edges.size()) {
    return Status::InvalidArgument(StrFormat(
        "weight count %zu does not match edge count %zu", weights.size(),
        edges.size()));
  }
  for (const Edge& e : edges) {
    if (e.src < 0 || e.src >= num_vertices || e.dst < 0 ||
        e.dst >= num_vertices) {
      return Status::InvalidArgument(
          StrFormat("edge (%lld,%lld) out of range [0,%lld)",
                    static_cast<long long>(e.src),
                    static_cast<long long>(e.dst),
                    static_cast<long long>(num_vertices)));
    }
  }

  std::vector<int64_t> offsets(num_vertices + 1, 0);
  for (const Edge& e : edges) ++offsets[e.src + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  const auto m = static_cast<int64_t>(edges.size());
  std::vector<VertexId> targets(m);
  std::vector<EdgeWeight> arc_weights(m);
  std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    const int64_t pos = cursor[edges[i].src]++;
    targets[pos] = edges[i].dst;
    arc_weights[pos] = weights.empty() ? 1u : weights[i];
  }

  // Sort each vertex's arcs by (target, weight) so that Neighbors() is
  // ordered and HasArc() can binary-search. Every row goes through one
  // reused scratch row.
  std::vector<std::pair<VertexId, EdgeWeight>> row;
  for (VertexId v = 0; v < num_vertices; ++v) {
    const int64_t lo = offsets[v];
    const int64_t hi = offsets[v + 1];
    row.clear();
    for (int64_t i = lo; i < hi; ++i) {
      row.emplace_back(targets[i], arc_weights[i]);
    }
    std::sort(row.begin(), row.end());
    for (int64_t i = lo; i < hi; ++i) {
      targets[i] = row[i - lo].first;
      arc_weights[i] = row[i - lo].second;
    }
  }
  return FromSortedRows(num_vertices, std::move(offsets), std::move(targets),
                        std::move(arc_weights));
}

CsrGraph CsrGraph::FromSortedRows(int64_t num_vertices,
                                  std::vector<int64_t> offsets,
                                  std::vector<VertexId> targets,
                                  std::vector<EdgeWeight> weights) {
  CsrGraph g;
  g.num_vertices_ = num_vertices;
  g.offsets_ = std::move(offsets);
  g.targets_ = std::move(targets);
  g.weights_ = std::move(weights);
  g.weighted_degree_.assign(num_vertices, 0);
  for (VertexId v = 0; v < num_vertices; ++v) {
    int64_t wd = 0;
    for (EdgeWeight w : g.Weights(v)) wd += w;
    g.weighted_degree_[v] = wd;
    g.total_arc_weight_ += wd;
  }
  return g;
}

Result<CsrGraph> CsrGraph::PatchArcs(int64_t num_vertices,
                                     std::span<const ArcPatch> patches) const {
  if (num_vertices < num_vertices_) {
    return Status::InvalidArgument(StrFormat(
        "cannot patch a %lld-vertex graph down to %lld vertices",
        static_cast<long long>(num_vertices_),
        static_cast<long long>(num_vertices)));
  }
  for (size_t j = 0; j < patches.size(); ++j) {
    const ArcPatch& p = patches[j];
    if (p.src < 0 || p.src >= num_vertices || p.dst < 0 ||
        p.dst >= num_vertices) {
      return Status::InvalidArgument(
          StrFormat("patch arc (%lld,%lld) out of range [0,%lld)",
                    static_cast<long long>(p.src),
                    static_cast<long long>(p.dst),
                    static_cast<long long>(num_vertices)));
    }
    if (j > 0 && std::tie(patches[j - 1].src, patches[j - 1].dst) >=
                     std::tie(p.src, p.dst)) {
      return Status::InvalidArgument(
          "patches must be sorted by (src, dst) without repeats");
    }
  }

  // The arc arrays are reserved, not resized, so each byte is written
  // once: by a block copy or by the row merge.
  CsrGraph g;
  g.num_vertices_ = num_vertices;
  g.total_arc_weight_ = total_arc_weight_;
  g.offsets_.resize(num_vertices + 1);
  g.weighted_degree_.resize(num_vertices);  // grown vertices: degree 0
  g.targets_.reserve(targets_.size() + patches.size());
  g.weights_.reserve(weights_.size() + patches.size());
  auto emit = [&g](VertexId target, EdgeWeight weight) {
    g.targets_.push_back(target);
    g.weights_.push_back(weight);
  };
  size_t j = 0;
  VertexId v = 0;
  while (v < num_vertices) {
    const VertexId next = j < patches.size() ? patches[j].src : num_vertices;
    // Rows [v, next) take no patch: copy the old ones as one block; the
    // grown vertices among them get empty rows.
    const VertexId copy_end = std::min(next, num_vertices_);
    if (v < copy_end) {
      const int64_t lo = offsets_[v];
      const int64_t hi = offsets_[copy_end];
      const int64_t shift = static_cast<int64_t>(g.targets_.size()) - lo;
      g.targets_.insert(g.targets_.end(), targets_.begin() + lo,
                        targets_.begin() + hi);
      g.weights_.insert(g.weights_.end(), weights_.begin() + lo,
                        weights_.begin() + hi);
      std::copy(weighted_degree_.begin() + v,
                weighted_degree_.begin() + copy_end,
                g.weighted_degree_.begin() + v);
      for (; v < copy_end; ++v) g.offsets_[v] = offsets_[v] + shift;
    }
    for (; v < next; ++v) {
      g.offsets_[v] = static_cast<int64_t>(g.targets_.size());
    }
    if (v == num_vertices) break;

    // Row v: merge its old arcs (sorted by target) with its patches.
    g.offsets_[v] = static_cast<int64_t>(g.targets_.size());
    int64_t i = v < num_vertices_ ? offsets_[v] : 0;
    const int64_t row_end = v < num_vertices_ ? offsets_[v + 1] : 0;
    int64_t wd = 0;
    while (i < row_end || (j < patches.size() && patches[j].src == v)) {
      const bool patch_next = j < patches.size() && patches[j].src == v &&
                              (i == row_end || patches[j].dst <= targets_[i]);
      if (!patch_next) {
        emit(targets_[i], weights_[i]);
        wd += weights_[i++];
        continue;
      }
      const ArcPatch& p = patches[j++];
      while (i < row_end && targets_[i] == p.dst) ++i;  // replaced
      if (p.weight == 0) continue;
      emit(p.dst, p.weight);
      wd += p.weight;
    }
    if (v < num_vertices_) g.total_arc_weight_ -= weighted_degree_[v];
    g.total_arc_weight_ += wd;
    g.weighted_degree_[v] = wd;
    ++v;
  }
  g.offsets_[num_vertices] = static_cast<int64_t>(g.targets_.size());
  return g;
}

bool CsrGraph::IsSymmetric() const {
  for (VertexId u = 0; u < num_vertices_; ++u) {
    auto nbrs = Neighbors(u);
    auto ws = Weights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      // Find arc v->u with equal weight.
      auto vn = Neighbors(v);
      auto vw = Weights(v);
      auto it = std::lower_bound(vn.begin(), vn.end(), u);
      bool found = false;
      while (it != vn.end() && *it == u) {
        if (vw[it - vn.begin()] == ws[i]) {
          found = true;
          break;
        }
        ++it;
      }
      if (!found) return false;
    }
  }
  return true;
}

bool CsrGraph::HasArc(VertexId u, VertexId v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

EdgeList CsrGraph::ToEdgeList() const {
  EdgeList out;
  out.reserve(targets_.size());
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (VertexId u : Neighbors(v)) out.push_back({v, u});
  }
  return out;
}

}  // namespace spinner
