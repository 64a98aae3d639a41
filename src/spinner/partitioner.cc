#include "spinner/partitioner.h"

#include <memory>
#include <utility>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "dist/registry.h"
#include "graph/conversion.h"
#include "graph/edge_list.h"
#include "graph/sharded_store.h"
#include "spinner/initial_assignment.h"
#include "spinner/program.h"
#include "spinner/sharded_program.h"

namespace spinner {

Result<PartitionResult> RunLabelPropagation(
    const SpinnerConfig& config, int k, const ExecutionOptions& execution,
    const CsrGraph& converted, ShardedGraphStore* store,
    std::vector<PartitionId> initial_labels, std::unique_ptr<ThreadPool>* pool,
    std::unique_ptr<dist::WorkerRegistry>* registry,
    const ProgressObserver& observer) {
  SpinnerConfig run_config = config;
  run_config.num_partitions = k;
  // Checked before any substrate exists, so a bad call binds no listener.
  SPINNER_RETURN_IF_ERROR(run_config.Validate());
  if (store->NumVertices() == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }
  const ProgressObserver* active = observer.active() ? &observer : nullptr;
  PartitionResult result;
  ShardedRunResult& run = result;
  if (execution.mode != ExecutionMode::kInProcess) {
    // Off-thread execution: the coordinator drives the identical superstep
    // schedule over forked (kMultiProcess) or dial-in TCP (kTcp) workers,
    // so the outcome is bit-identical to the in-process path.
    SPINNER_ASSIGN_OR_RETURN(
        run, dist::RunOnWorkers(run_config, execution, store,
                                std::move(initial_labels), registry, active));
  } else {
    const int threads = ResolveNumThreads(execution);
    if (*pool == nullptr || (*pool)->num_threads() != threads) {
      *pool = std::make_unique<ThreadPool>(threads);
    }
    SPINNER_ASSIGN_OR_RETURN(
        run, RunShardedSpinner(run_config, store, std::move(initial_labels),
                               pool->get(), active));
  }
  result.assignment = store->labels();
  result.num_partitions = k;
  SPINNER_ASSIGN_OR_RETURN(
      result.metrics,
      ComputeConfigMetrics(converted, result.assignment, run_config));
  return result;
}

namespace {

/// One stateless run: shard, thread and worker counts never change the
/// result, so a store, pool and registry made for this call alone are
/// equivalent to a session's persistent ones.
Result<PartitionResult> RunOnThrowawayStore(const SpinnerConfig& config,
                                            const ProgressObserver& observer,
                                            const CsrGraph& converted,
                                            std::vector<PartitionId> labels,
                                            int k) {
  const ExecutionOptions execution = config.ResolvedExecution();
  SPINNER_ASSIGN_OR_RETURN(
      ShardedGraphStore store,
      ShardedGraphStore::Build(
          converted, ResolveNumShards(execution, converted.NumVertices())));
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<dist::WorkerRegistry> registry;
  return RunLabelPropagation(config, k, execution, converted, &store,
                             std::move(labels), &pool, &registry, observer);
}

}  // namespace

SpinnerPartitioner::SpinnerPartitioner(const SpinnerConfig& config)
    : config_(config) {}

Result<PartitionResult> SpinnerPartitioner::Partition(
    const CsrGraph& converted) const {
  std::vector<PartitionId> no_labels(converted.NumVertices(), kNoPartition);
  return RunOnThrowawayStore(config_, observer_, converted,
                             std::move(no_labels), config_.num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::PartitionDirected(
    int64_t num_vertices, const EdgeList& directed) const {
  if (!config_.in_engine_conversion) {
    // The offline conversion drops self-loops and repeated edges itself.
    SPINNER_ASSIGN_OR_RETURN(
        CsrGraph converted,
        ConvertToWeightedUndirected(num_vertices, directed));
    return Partition(converted);
  }
  // §IV.A.1 on the Pregel engine, one engine worker per shard; the
  // converted graph then runs the same sharded loop as every other call.
  // CsrGraph::FromEdges keeps every arc, so the engine's input graph is
  // deduplicated first.
  EdgeList dedup = directed;
  RemoveSelfLoops(&dedup);
  SortAndDedup(&dedup);
  SPINNER_ASSIGN_OR_RETURN(CsrGraph raw_directed,
                           CsrGraph::FromEdges(num_vertices, dedup));
  pregel::RunStats conversion;
  SPINNER_ASSIGN_OR_RETURN(
      CsrGraph converted,
      ConvertInEngine(
          raw_directed,
          ResolveNumShards(config_.ResolvedExecution(), num_vertices),
          &conversion));
  SPINNER_ASSIGN_OR_RETURN(PartitionResult result, Partition(converted));
  // The conversion supersteps come first in the run's statistics.
  pregel::RunStats& stats = result.run_stats;
  for (pregel::SuperstepStats& ss : stats.per_superstep) {
    ss.superstep += conversion.supersteps;
  }
  stats.per_superstep.insert(stats.per_superstep.begin(),
                             conversion.per_superstep.begin(),
                             conversion.per_superstep.end());
  stats.supersteps += conversion.supersteps;
  stats.total_wall_seconds += conversion.total_wall_seconds;
  return result;
}

Result<PartitionResult> SpinnerPartitioner::Repartition(
    const CsrGraph& new_converted,
    std::span<const PartitionId> previous) const {
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ExtendForNewVertices(new_converted, previous, config_.num_partitions));
  return RunOnThrowawayStore(config_, observer_, new_converted,
                             std::move(initial), config_.num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::Rescale(
    const CsrGraph& converted, std::span<const PartitionId> previous,
    int new_num_partitions) const {
  if (static_cast<int64_t>(previous.size()) != converted.NumVertices()) {
    return Status::InvalidArgument(
        "previous assignment must cover every vertex");
  }
  SPINNER_ASSIGN_OR_RETURN(
      std::vector<PartitionId> initial,
      ElasticRestartLabels(previous, config_.num_partitions,
                           new_num_partitions, config_.seed));
  return RunOnThrowawayStore(config_, observer_, converted, std::move(initial),
                             new_num_partitions);
}

}  // namespace spinner
