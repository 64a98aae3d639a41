#include "spinner/session.h"

#include <utility>

#include "common/string_util.h"
#include "dist/coordinator.h"
#include "dist/registry.h"
#include "graph/binary_io.h"
#include "graph/conversion.h"
#include "spinner/initial_assignment.h"
#include "spinner/sharded_program.h"

namespace spinner {

PartitioningSession::PartitioningSession(const SpinnerConfig& config,
                                         SessionOptions options)
    : config_(config),
      execution_(
          MergedExecution(options.execution, config.ResolvedExecution())),
      init_status_(config.Validate()),
      current_k_(config.num_partitions) {
  if (init_status_.ok()) init_status_ = execution_.Validate();
}

PartitioningSession::~PartitioningSession() = default;

Result<CsrGraph> PartitioningSession::Convert(int64_t num_vertices,
                                              const EdgeList& edges) const {
  return directed_ ? ConvertToWeightedUndirected(num_vertices, edges)
                   : BuildSymmetric(num_vertices, edges);
}

Status PartitioningSession::CheckReady() const {
  SPINNER_RETURN_IF_ERROR(init_status_);
  if (!open_) {
    return Status::FailedPrecondition(
        "session is not open; call Open() or Restore() first");
  }
  return Status::OK();
}

Result<ShardedGraphStore> PartitioningSession::BuildStore(
    const CsrGraph& converted) const {
  return ShardedGraphStore::Build(
      converted, ResolveNumShards(execution_, converted.NumVertices()));
}

Result<std::string> PartitioningSession::TcpAddress() {
  if (execution_.mode != ExecutionMode::kTcp) {
    return Status::FailedPrecondition(
        "TcpAddress() is only meaningful in ExecutionMode::kTcp");
  }
  SPINNER_RETURN_IF_ERROR(dist::BindRegistry(execution_, &registry_));
  return registry_->address();
}

Status PartitioningSession::Open(int64_t num_vertices, EdgeList edges,
                                 bool directed) {
  SPINNER_RETURN_IF_ERROR(init_status_);
  if (open_) {
    return Status::FailedPrecondition(
        "session is already open; use a fresh session per graph");
  }
  directed_ = directed;
  SPINNER_ASSIGN_OR_RETURN(CsrGraph converted,
                           Convert(num_vertices, edges));
  SPINNER_ASSIGN_OR_RETURN(store_, BuildStore(converted));
  std::vector<PartitionId> no_labels(num_vertices, kNoPartition);
  SPINNER_ASSIGN_OR_RETURN(
      PartitionResult result,
      RunLabelPropagation(config_, current_k_, execution_, converted, &store_,
                          std::move(no_labels), &pool_, &registry_,
                          observer_));

  num_vertices_ = num_vertices;
  edges_ = std::move(edges);
  converted_ = std::move(converted);
  assignment_ = result.assignment;
  last_result_ = std::move(result);
  open_ = true;
  return Status::OK();
}

Status PartitioningSession::ApplyDelta(const GraphDelta& delta) {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  // The delta path patches instead of rebuilding: the fold merges the
  // delta into the kept-sorted edge list, and PatchConversion rewrites
  // only the touched pairs of the converted graph. Both equal the
  // from-scratch results (Convert stays the reference for Open/Restore).
  SPINNER_ASSIGN_OR_RETURN(EdgeList new_edges,
                           spinner::ApplyDelta(num_vertices_, edges_, delta));
  SPINNER_ASSIGN_OR_RETURN(
      CsrGraph new_converted,
      PatchConversion(converted_, new_edges, delta, directed_));
  // Incremental restart labels (§III.D) are computed before the store is
  // touched, so every failure up to here leaves the session untouched.
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ExtendForNewVertices(new_converted, assignment_, current_k_));

  ShardedGraphStore next;
  if (delta.num_new_vertices > 0) {
    // The vertex range grew: block alignment moves every shard boundary,
    // so re-slice the whole store.
    SPINNER_ASSIGN_OR_RETURN(next, BuildStore(new_converted));
  } else {
    // Same vertex range: only the shards owning an endpoint of a changed
    // edge have a stale CSR slice.
    std::vector<VertexId> dirty;
    dirty.reserve(2 * (delta.added_edges.size() + delta.removed_edges.size()));
    for (const Edge& e : delta.added_edges) {
      dirty.push_back(e.src);
      dirty.push_back(e.dst);
    }
    for (const Edge& e : delta.removed_edges) {
      dirty.push_back(e.src);
      dirty.push_back(e.dst);
    }
    SPINNER_ASSIGN_OR_RETURN(next, store_.Updated(new_converted, dirty));
  }

  // Label propagation runs over store_; the pre-call store waits in
  // `next` and comes back untouched (slices, labels, rebuild counts) if
  // the run fails.
  std::swap(store_, next);
  Result<PartitionResult> result = RunLabelPropagation(
      config_, current_k_, execution_, new_converted, &store_,
      std::move(initial), &pool_, &registry_, observer_);
  if (!result.ok()) {
    store_ = std::move(next);
    return result.status();
  }

  num_vertices_ = new_converted.NumVertices();
  edges_ = std::move(new_edges);
  converted_ = std::move(new_converted);
  assignment_ = result->assignment;
  last_result_ = std::move(result).value();
  return Status::OK();
}

Status PartitioningSession::Rescale(int new_k,
                                    std::vector<double> new_weights) {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  if (new_k < 1) {
    return Status::InvalidArgument(
        StrFormat("new_k must be >= 1 (got %d)", new_k));
  }
  SpinnerConfig next_config = config_;
  if (!new_weights.empty()) {
    next_config.partition_weights = std::move(new_weights);
  } else if (!config_.partition_weights.empty() && new_k != current_k_) {
    return Status::FailedPrecondition(StrFormat(
        "session has partition_weights for k=%d; Rescale(%d) needs "
        "new_weights with one weight per new partition",
        current_k_, new_k));
  }
  // The probabilistic elastic re-labeling (§III.E) seeds the restart.
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ElasticRestartLabels(assignment_, current_k_, new_k, config_.seed));
  SPINNER_ASSIGN_OR_RETURN(
      PartitionResult result,
      RunLabelPropagation(next_config, new_k, execution_, converted_,
                          &store_, std::move(initial), &pool_, &registry_,
                          observer_));

  current_k_ = new_k;
  config_ = std::move(next_config);
  config_.num_partitions = new_k;
  assignment_ = result.assignment;
  last_result_ = std::move(result);
  return Status::OK();
}

Status PartitioningSession::Refine() {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ExtendForNewVertices(converted_, assignment_, current_k_));
  SPINNER_ASSIGN_OR_RETURN(
      PartitionResult result,
      RunLabelPropagation(config_, current_k_, execution_, converted_,
                          &store_, std::move(initial), &pool_, &registry_,
                          observer_));
  assignment_ = result.assignment;
  last_result_ = std::move(result);
  return Status::OK();
}

Status PartitioningSession::ResizeWorkers(int num_workers) {
  SPINNER_RETURN_IF_ERROR(init_status_);
  if (num_workers < 1) {
    return Status::InvalidArgument(
        StrFormat("num_workers must be >= 1 (got %d)", num_workers));
  }
  if (execution_.mode == ExecutionMode::kInProcess) {
    return Status::FailedPrecondition(
        "ResizeWorkers applies to kMultiProcess/kTcp sessions; "
        "kInProcess has no worker fleet");
  }
  execution_.num_workers = num_workers;
  if (execution_.mode == ExecutionMode::kTcp && registry_ != nullptr) {
    registry_->DrainPooled(num_workers);
  }
  return Status::OK();
}

int PartitioningSession::num_workers() const {
  if (execution_.mode == ExecutionMode::kInProcess) return 0;
  return dist::ResolveNumWorkers(execution_.num_workers, store_.num_shards());
}

Status PartitioningSession::Snapshot(const std::string& path) const {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  graph_io::SessionSnapshot snapshot;
  snapshot.num_vertices = num_vertices_;
  snapshot.edges = edges_;
  snapshot.directed = directed_;
  snapshot.num_partitions = current_k_;
  snapshot.assignment = assignment_;
  return graph_io::WriteSessionSnapshot(path, snapshot);
}

Status PartitioningSession::Restore(const std::string& path) {
  SPINNER_RETURN_IF_ERROR(init_status_);
  SPINNER_ASSIGN_OR_RETURN(graph_io::SessionSnapshot snapshot,
                           graph_io::ReadSessionSnapshot(path));
  return RestoreSnapshot(std::move(snapshot));
}

Status PartitioningSession::RestoreSnapshot(
    graph_io::SessionSnapshot snapshot) {
  SPINNER_RETURN_IF_ERROR(init_status_);
  if (snapshot.num_partitions < 1) {
    return Status::InvalidArgument(
        "snapshot carries no assignment; cannot restore a session from it");
  }
  // Snapshots record k but not partition_weights, so a weighted session
  // can only take a snapshot whose k its own weights cover.
  if (!config_.partition_weights.empty() &&
      config_.partition_weights.size() !=
          static_cast<size_t>(snapshot.num_partitions)) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot has k=%d but the session's partition_weights have %zu "
        "entries; snapshots do not carry weights",
        snapshot.num_partitions, config_.partition_weights.size()));
  }
  // In-memory snapshots (delta-log replay) bypass ReadSessionSnapshot's
  // validation; re-check the assignment invariants here.
  if (static_cast<int64_t>(snapshot.assignment.size()) !=
      snapshot.num_vertices) {
    return Status::InvalidArgument(
        "snapshot assignment does not cover every vertex");
  }
  for (PartitionId l : snapshot.assignment) {
    if (l < 0 || l >= snapshot.num_partitions) {
      return Status::InvalidArgument("snapshot assignment label out of range");
    }
  }
  directed_ = snapshot.directed;
  SPINNER_ASSIGN_OR_RETURN(
      CsrGraph converted,
      Convert(snapshot.num_vertices, snapshot.edges));
  SPINNER_ASSIGN_OR_RETURN(ShardedGraphStore store, BuildStore(converted));
  store.labels() = snapshot.assignment;

  num_vertices_ = snapshot.num_vertices;
  edges_ = std::move(snapshot.edges);
  converted_ = std::move(converted);
  store_ = std::move(store);
  assignment_ = std::move(snapshot.assignment);
  current_k_ = snapshot.num_partitions;
  config_.num_partitions = current_k_;
  last_result_ = PartitionResult{};
  open_ = true;
  return Status::OK();
}

void PartitioningSession::SetProgressObserver(ProgressObserver observer) {
  observer_ = std::move(observer);
}

Result<PartitionMetrics> PartitioningSession::Metrics() const {
  SPINNER_RETURN_IF_ERROR(CheckReady());
  return ComputeConfigMetrics(converted_, assignment_, config_);
}

}  // namespace spinner
