#include "spinner/partitioner.h"

#include <memory>
#include <utility>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "graph/conversion.h"
#include "graph/edge_list.h"
#include "graph/sharded_store.h"
#include "spinner/initial_assignment.h"
#include "spinner/program.h"
#include "spinner/sharded_program.h"

namespace spinner {

SpinnerPartitioner::SpinnerPartitioner(const SpinnerConfig& config)
    : config_(config) {}

Result<PartitionResult> SpinnerPartitioner::Partition(
    const CsrGraph& converted) const {
  std::vector<PartitionId> no_labels(converted.NumVertices(), kNoPartition);
  return RunOnGraph(converted, std::move(no_labels), config_.num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::PartitionDirected(
    int64_t num_vertices, const EdgeList& directed) const {
  EdgeList dedup = directed;
  RemoveSelfLoops(&dedup);
  SortAndDedup(&dedup);
  std::vector<PartitionId> no_labels(num_vertices, kNoPartition);
  if (!config_.in_engine_conversion) {
    SPINNER_ASSIGN_OR_RETURN(CsrGraph converted,
                             ConvertToWeightedUndirected(num_vertices, dedup));
    return RunOnGraph(converted, std::move(no_labels),
                      config_.num_partitions);
  }
  // §IV.A.1 on the Pregel engine, one engine worker per shard; the
  // converted graph then runs the same sharded loop as every other call.
  SPINNER_ASSIGN_OR_RETURN(CsrGraph raw_directed,
                           CsrGraph::FromEdges(num_vertices, dedup));
  pregel::RunStats conversion;
  SPINNER_ASSIGN_OR_RETURN(
      CsrGraph converted,
      ConvertInEngine(
          raw_directed,
          ResolveNumShards(config_.ResolvedExecution(), num_vertices),
          &conversion));
  SPINNER_ASSIGN_OR_RETURN(
      PartitionResult result,
      RunOnGraph(converted, std::move(no_labels), config_.num_partitions));
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
  return RunOnGraph(new_converted, std::move(initial),
                    config_.num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::Rescale(
    const CsrGraph& converted, std::span<const PartitionId> previous,
    int new_num_partitions) const {
  if (static_cast<int64_t>(previous.size()) != converted.NumVertices()) {
    return Status::InvalidArgument(
        "previous assignment must cover every vertex");
  }
  const int old_k = config_.num_partitions;
  std::vector<PartitionId> initial;
  if (new_num_partitions > old_k) {
    SPINNER_ASSIGN_OR_RETURN(
        initial, ElasticExpand(previous, old_k, new_num_partitions,
                               config_.seed));
  } else if (new_num_partitions < old_k) {
    SPINNER_ASSIGN_OR_RETURN(
        initial, ElasticShrink(previous, old_k, new_num_partitions,
                               config_.seed));
  } else {
    initial.assign(previous.begin(), previous.end());
  }
  return RunOnGraph(converted, std::move(initial), new_num_partitions);
}

Result<PartitionResult> SpinnerPartitioner::RunOnGraph(
    const CsrGraph& converted, std::vector<PartitionId> initial_labels,
    int k) const {
  SpinnerConfig run_config = config_;
  run_config.num_partitions = k;
  SPINNER_RETURN_IF_ERROR(run_config.Validate());
  const ExecutionOptions execution = config_.ResolvedExecution();
  if (converted.NumVertices() == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }

  // Shard/thread/process counts never change the result, so a throwaway
  // single-run store is equivalent to a session's persistent one.
  SPINNER_ASSIGN_OR_RETURN(
      ShardedGraphStore store,
      ShardedGraphStore::Build(
          converted, ResolveNumShards(execution, converted.NumVertices())));
  ShardedRunResult run;
  if (execution.mode != ExecutionMode::kInProcess) {
    // Off-thread execution: shards live in ShardWorker processes speaking
    // the dist wire protocol — forked over socketpairs (kMultiProcess) or
    // dialing in over TCP (kTcp, through a throwaway registry).
    std::unique_ptr<dist::WorkerRegistry> registry;
    SPINNER_ASSIGN_OR_RETURN(
        run, dist::RunOnWorkers(run_config, execution, &store,
                                std::move(initial_labels), &registry,
                                observer_.active() ? &observer_ : nullptr));
  } else {
    ThreadPool pool(ResolveNumThreads(execution));
    SPINNER_ASSIGN_OR_RETURN(
        run, RunShardedSpinner(run_config, &store, std::move(initial_labels),
                               &pool,
                               observer_.active() ? &observer_ : nullptr));
  }

  PartitionResult result;
  result.num_partitions = k;
  result.iterations = run.iterations;
  result.converged = run.converged;
  result.cancelled = run.cancelled;
  result.history = std::move(run.history);
  result.run_stats = std::move(run.run_stats);
  result.wire = std::move(run.wire);
  result.schedule = run.schedule;
  result.assignment = std::move(store.labels());

  BalanceSpec spec;
  spec.mode = run_config.balance_mode;
  spec.partition_weights = run_config.partition_weights;
  SPINNER_ASSIGN_OR_RETURN(
      result.metrics,
      ComputeMetricsEx(converted, result.assignment, k,
                       run_config.additional_capacity, spec));
  return result;
}

}  // namespace spinner
