#include "graph/sharded_store.h"

#include <algorithm>

#include "common/string_util.h"

namespace spinner {

Result<ShardedGraphStore> ShardedGraphStore::Build(const CsrGraph& converted,
                                                   int num_shards) {
  if (num_shards < 1) {
    return Status::InvalidArgument(
        StrFormat("num_shards must be >= 1 (got %d)", num_shards));
  }
  ShardedGraphStore store;
  store.num_vertices_ = converted.NumVertices();
  store.num_arcs_ = converted.NumArcs();
  store.total_arc_weight_ = converted.TotalArcWeight();
  store.labels_.assign(store.num_vertices_, kNoPartition);
  store.shards_.resize(num_shards);
  store.rebuild_counts_.assign(num_shards, 0);

  // Block-aligned range partition: shard s owns blocks
  // [s·B/S, (s+1)·B/S), so boundaries never split a block and the block
  // decomposition is independent of S (see header).
  const int64_t blocks = store.NumBlocks();
  for (int s = 0; s < num_shards; ++s) {
    Shard& shard = store.shards_[s];
    const int64_t block_begin = blocks * s / num_shards;
    const int64_t block_end = blocks * (s + 1) / num_shards;
    shard.begin = std::min(block_begin * kBlockSize, store.num_vertices_);
    shard.end = std::min(block_end * kBlockSize, store.num_vertices_);
    store.FillShard(converted, s);
    ++store.rebuild_counts_[s];
  }
  return store;
}

void ShardedGraphStore::FillShard(const CsrGraph& converted, int s) {
  Shard& shard = shards_[s];
  const int64_t n_local = shard.NumOwnedVertices();
  shard.offsets.assign(static_cast<size_t>(n_local) + 1, 0);
  shard.weighted_degree.assign(static_cast<size_t>(n_local), 0);
  shard.targets.clear();
  shard.weights.clear();
  if (n_local > 0) {
    // The owned rows are one contiguous slice of the converted arc arrays.
    const int64_t lo = converted.ArcBegin(shard.begin);
    const int64_t hi = converted.ArcBegin(shard.end - 1) +
                       converted.OutDegree(shard.end - 1);
    const auto targets = converted.ArcTargets().subspan(lo, hi - lo);
    const auto weights = converted.ArcWeights().subspan(lo, hi - lo);
    shard.targets.assign(targets.begin(), targets.end());
    shard.weights.assign(weights.begin(), weights.end());
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      shard.offsets[v - shard.begin + 1] =
          converted.ArcBegin(v) + converted.OutDegree(v) - lo;
      shard.weighted_degree[v - shard.begin] = converted.WeightedDegree(v);
    }
  }
  shard.RebuildInvDegrees();
}

int ShardedGraphStore::ShardOf(VertexId v) const {
  // Shards are contiguous and sorted by range: binary search the first
  // shard whose end exceeds v. Empty tail shards never win.
  int lo = 0;
  int hi = num_shards() - 1;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (v < shards_[mid].end) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void ShardedGraphStore::ResetLoads(int num_partitions) {
  for (Shard& shard : shards_) {
    shard.loads.assign(static_cast<size_t>(num_partitions), 0);
  }
}

std::vector<int64_t> ShardedGraphStore::MergedLoads() const {
  std::vector<int64_t> merged;
  if (shards_.empty()) return merged;
  merged.assign(shards_[0].loads.size(), 0);
  // Fixed shard-order reduction: bit-identical for any thread count.
  for (const Shard& shard : shards_) {
    for (size_t l = 0; l < shard.loads.size(); ++l) {
      merged[l] += shard.loads[l];
    }
  }
  return merged;
}

Status ShardedGraphStore::Update(const CsrGraph& new_converted,
                                 std::span<const VertexId> dirty_vertices) {
  SPINNER_ASSIGN_OR_RETURN(*this, Updated(new_converted, dirty_vertices));
  return Status::OK();
}

Result<ShardedGraphStore> ShardedGraphStore::Updated(
    const CsrGraph& new_converted,
    std::span<const VertexId> dirty_vertices) const {
  if (new_converted.NumVertices() != num_vertices_) {
    return Status::InvalidArgument(StrFormat(
        "Update requires an unchanged vertex count (store has %lld, graph "
        "has %lld); rebuild the store for a grown graph",
        static_cast<long long>(num_vertices_),
        static_cast<long long>(new_converted.NumVertices())));
  }
  std::vector<bool> dirty(shards_.size(), false);
  for (const VertexId v : dirty_vertices) {
    if (v < 0 || v >= num_vertices_) {
      return Status::InvalidArgument(
          StrFormat("dirty vertex %lld outside [0, %lld)",
                    static_cast<long long>(v),
                    static_cast<long long>(num_vertices_)));
    }
    dirty[ShardOf(v)] = true;
  }

  ShardedGraphStore next;
  next.num_vertices_ = num_vertices_;
  next.num_arcs_ = new_converted.NumArcs();
  next.total_arc_weight_ = new_converted.TotalArcWeight();
  next.labels_ = labels_;
  next.rebuild_counts_ = rebuild_counts_;
  next.shards_.resize(shards_.size());
  for (int s = 0; s < num_shards(); ++s) {
    if (!dirty[s]) {
      next.shards_[s] = shards_[s];
      continue;
    }
    Shard& shard = next.shards_[s];
    shard.begin = shards_[s].begin;
    shard.end = shards_[s].end;
    shard.loads = shards_[s].loads;
    next.FillShard(new_converted, s);
    ++next.rebuild_counts_[s];
  }
  return next;
}

}  // namespace spinner
