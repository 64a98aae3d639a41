// SpinnerPartitioner: the low-level, stateless entry points of the Spinner
// algorithm. Entry points map to the paper's three modes: Partition /
// PartitionDirected (scratch), Repartition (incremental, §III.D) and
// Rescale (elastic, §III.E).
//
//   SpinnerConfig config;
//   config.num_partitions = 32;
//   SpinnerPartitioner partitioner(config);
//   auto result = partitioner.Partition(converted_graph);
//   if (result.ok()) use(result->assignment);
//
// The three modes are one label-propagation loop started from three
// initial labelings, and every entry point here and in
// PartitioningSession (spinner/session.h) runs it through one function,
// RunLabelPropagation: SpinnerPartitioner over a throwaway store and
// substrate per call, the session over the store, thread pool and worker
// registry it keeps. New code should prefer the session (stateful
// maintenance) or the PartitionerRegistry
// (baselines/partitioner_registry.h, one-shot runs behind the uniform
// GraphPartitioner interface); these entry points remain for callers
// that manage graph state themselves.
#ifndef SPINNER_SPINNER_PARTITIONER_H_
#define SPINNER_SPINNER_PARTITIONER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/threadpool.h"
#include "graph/csr_graph.h"
#include "graph/sharded_store.h"
#include "graph/types.h"
#include "spinner/config.h"
#include "spinner/metrics.h"
#include "spinner/observer.h"
#include "spinner/sharded_program.h"
#include "spinner/types.h"

namespace spinner {

namespace dist {
class WorkerRegistry;
}  // namespace dist

/// Everything a run produces: the sharded loop's outcome (iterations,
/// convergence and cancellation, history, run/wire/schedule statistics —
/// see ShardedRunResult) plus the assignment, its k and its quality.
struct PartitionResult : ShardedRunResult {
  /// Partition label per vertex, all in [0, num_partitions).
  std::vector<PartitionId> assignment;
  /// k of this run.
  int num_partitions = 0;
  /// Final quality (computed on the converted graph).
  PartitionMetrics metrics;
};

/// The one label-propagation run behind SpinnerPartitioner and
/// PartitioningSession: runs `config` with `k` partitions over `store`
/// from `initial_labels` (kNoPartition entries draw a random label) on
/// the substrate `execution` selects — threads of `*pool`, created or
/// resized to ResolveNumThreads(execution) on demand, or the worker
/// fleet of dist::RunOnWorkers, whose kTcp registry `*registry` is bound
/// on demand and kept for the caller's next run. Quality is measured on
/// `converted`, the graph `store` was sliced from. On success
/// store->labels() equals the returned assignment.
Result<PartitionResult> RunLabelPropagation(
    const SpinnerConfig& config, int k, const ExecutionOptions& execution,
    const CsrGraph& converted, ShardedGraphStore* store,
    std::vector<PartitionId> initial_labels, std::unique_ptr<ThreadPool>* pool,
    std::unique_ptr<dist::WorkerRegistry>* registry,
    const ProgressObserver& observer);

/// Stateless facade; safe to reuse and — observer mutation aside — to
/// share across threads.
class SpinnerPartitioner {
 public:
  explicit SpinnerPartitioner(const SpinnerConfig& config);

  /// Partitions a converted (symmetric, weighted) graph from scratch.
  Result<PartitionResult> Partition(const CsrGraph& converted) const;

  /// Partitions a raw directed edge list from scratch: converts it offline
  /// or — when config.in_engine_conversion is set — with the
  /// NeighborPropagation/NeighborDiscovery supersteps on the Pregel engine,
  /// as the Giraph implementation does
  /// (spinner/program.h). Both conversions yield the same graph, so the
  /// result is the same except that run_stats starts with the two
  /// conversion supersteps.
  Result<PartitionResult> PartitionDirected(int64_t num_vertices,
                                            const EdgeList& directed) const;

  /// Incremental adaptation (§III.D): restarts label propagation from
  /// `previous` on a changed graph. `previous` may cover fewer vertices
  /// than the graph; new vertices join the least-loaded partition. Every
  /// vertex participates in migration (the paper's chosen strategy).
  Result<PartitionResult> Repartition(
      const CsrGraph& new_converted,
      std::span<const PartitionId> previous) const;

  /// Elastic adaptation (§III.E) to `new_num_partitions` partitions:
  /// applies the probabilistic expand/shrink re-labeling, then restarts
  /// label propagation. new_num_partitions may be larger or smaller than
  /// config.num_partitions (which is the previous k).
  Result<PartitionResult> Rescale(const CsrGraph& converted,
                                  std::span<const PartitionId> previous,
                                  int new_num_partitions) const;

  /// The configuration this partitioner runs with.
  const SpinnerConfig& config() const { return config_; }

  /// Installs a per-iteration progress observer used by every subsequent
  /// run (see spinner/observer.h). Pass {} to clear. Setting the observer
  /// is not thread-safe with respect to in-flight runs.
  void set_progress_observer(ProgressObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  SpinnerConfig config_;
  ProgressObserver observer_;
};

}  // namespace spinner

#endif  // SPINNER_SPINNER_PARTITIONER_H_
