// Streaming ingestion throughput/latency bench: how fast can the
// IngestionService absorb a live edge stream while keeping the
// partitioning maintained, and what does the watermark (events per
// window) buy? Large windows amortize ApplyDelta over more events
// (throughput), small windows keep the partitioning fresh (staleness).
// This is the SLO knob of real-time dynamic partitioning; the paper's
// dynamic experiment (Fig. 7) batches by percentage, a service batches by
// watermark.
//
// Reports events/sec end-to-end, p50/p99 per-window apply latency, the
// worst observed staleness and the delta-path share of an apply per
// watermark, and writes the rows as JSON to BENCH_stream_ingest.json
// (override with --out=...) so CI can archive and gate machine-readable
// numbers.
//
//   ./bench_stream_ingest [--smoke] [--out=BENCH_stream_ingest.json]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/timer.h"
#include "graph/delta.h"
#include "spinner/session.h"
#include "stream/ingestion_service.h"

using namespace spinner;

namespace {

struct Row {
  int64_t watermark = 0;
  int64_t events = 0;
  int64_t windows = 0;
  int64_t coalesced = 0;
  double events_per_sec = 0;
  double p50_apply_ms = 0;
  double p99_apply_ms = 0;
  double max_staleness_ms = 0;
  /// Median over windows of (apply - LPA) / apply: the share of a window
  /// spent outside label propagation — folding the delta into the edge
  /// list, patching the converted graph and store, computing metrics.
  /// A within-run ratio, so it compares across hosts.
  double rebuild_share = 0;
  double phi = 0;
  double rho = 0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

/// One full run: stream `events` through a fresh session at `watermark`.
Row RunOnce(const GeneratedGraph& g, const std::vector<stream::EdgeEvent>&
            events, int64_t watermark) {
  SpinnerConfig config;
  config.num_partitions = 16;
  PartitioningSession session(config);
  SPINNER_CHECK_OK(session.Open(g.num_vertices, g.edges, g.directed));

  // Per-window apply latencies and delta-path shares, collected on the
  // ingestion thread (the on_apply callback is never concurrent with
  // itself, and runs after the window's ApplyDelta, so the session's last
  // result is that window's).
  std::vector<double> apply_ms;
  std::vector<double> rebuild_share;
  stream::IngestionOptions options;
  options.policy = std::make_unique<stream::EventCountPolicy>(watermark);
  options.queue_capacity = 8192;
  options.on_apply = [&](const stream::IngestStats& stats) {
    const double apply_s =
        static_cast<double>(stats.last_apply_micros) / 1e6;
    const double lpa_s = session.last_result().run_stats.total_wall_seconds;
    apply_ms.push_back(apply_s * 1e3);
    if (apply_s > 0) {
      rebuild_share.push_back(std::max(0.0, (apply_s - lpa_s) / apply_s));
    }
    return true;
  };
  stream::IngestionService service(&session, std::move(options));
  SPINNER_CHECK_OK(service.Start());

  WallTimer timer;
  for (const stream::EdgeEvent& event : events) {
    SPINNER_CHECK_OK(service.Submit(event));
  }
  SPINNER_CHECK_OK(service.Stop());
  const double seconds = timer.ElapsedSeconds();

  const stream::IngestStats stats = service.stats();
  Row row;
  row.watermark = watermark;
  row.events = stats.events_ingested;
  row.windows = stats.windows_applied;
  row.coalesced = stats.events_coalesced;
  row.events_per_sec =
      seconds > 0 ? static_cast<double>(stats.events_ingested) / seconds : 0;
  row.p50_apply_ms = Percentile(apply_ms, 0.50);
  row.p99_apply_ms = Percentile(apply_ms, 0.99);
  row.max_staleness_ms =
      static_cast<double>(stats.max_staleness_micros) / 1000.0;
  row.rebuild_share = Percentile(rebuild_share, 0.50);
  row.phi = stats.last_phi;
  row.rho = stats.last_rho;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::ConsumeSmokeFlag(&argc, argv);
  CommandLine cli;
  SPINNER_CHECK_OK(cli.Parse(argc, argv));
  const std::string out_path =
      cli.GetString("out", "BENCH_stream_ingest.json");

  bench::PrintBanner(
      "Streaming ingestion: live edge stream -> maintained partitioning",
      "larger watermarks amortize ApplyDelta (higher events/sec), smaller "
      "ones bound staleness");

  // The LiveJournal stand-in (small-world social graph), shrunk in smoke
  // mode so CI executes the full pipeline in seconds.
  auto g = smoke ? WattsStrogatz(2000, 6, 0.3, 42).value()
                 : bench::MakeStandIn("LJ").graph;
  std::printf("substrate: |V|=%lld |E|=%zu%s\n",
              static_cast<long long>(g.num_vertices), g.edges.size(),
              smoke ? "  [smoke sizes: numbers are not measurements]" : "");

  // The stream: fresh edges plus the churn a real feed carries — retries
  // (duplicate adds) and transient edges (added then removed), which the
  // service coalesces away before they cost an ApplyDelta.
  const int64_t num_fresh = smoke ? 400 : 6000;
  const GraphDelta fresh =
      RandomEdgeAdditions(g.num_vertices, g.edges, num_fresh, /*seed=*/7);
  std::vector<stream::EdgeEvent> events;
  events.reserve(static_cast<size_t>(num_fresh) * 2);
  for (size_t i = 0; i < fresh.added_edges.size(); ++i) {
    const Edge& e = fresh.added_edges[i];
    events.push_back(stream::EdgeEvent::AddEdge(e.src, e.dst));
    if (i % 10 == 0) {  // retry
      events.push_back(stream::EdgeEvent::AddEdge(e.src, e.dst));
    }
    if (i % 25 == 0) {  // transient
      events.push_back(stream::EdgeEvent::AddEdge(e.dst, e.src));
      events.push_back(stream::EdgeEvent::RemoveEdge(e.dst, e.src));
    }
  }

  const std::vector<int64_t> watermarks =
      smoke ? std::vector<int64_t>{128} : std::vector<int64_t>{64, 256,
                                                               1024};
  std::printf("\n%-10s %10s %8s %10s %12s %12s %12s %14s %14s\n",
              "watermark", "events", "windows", "coalesced", "events/sec",
              "p50 apply", "p99 apply", "max staleness", "rebuild share");
  std::vector<Row> rows;
  for (const int64_t watermark : watermarks) {
    Row row = RunOnce(g, events, watermark);
    std::printf("%-10lld %10lld %8lld %10lld %12.0f %10.1fms %10.1fms "
                "%12.1fms %14.3f\n",
                static_cast<long long>(row.watermark),
                static_cast<long long>(row.events),
                static_cast<long long>(row.windows),
                static_cast<long long>(row.coalesced), row.events_per_sec,
                row.p50_apply_ms, row.p99_apply_ms, row.max_staleness_ms,
                row.rebuild_share);
    rows.push_back(row);
  }

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  SPINNER_CHECK(json != nullptr) << "cannot write " << out_path;
  std::fprintf(json, "{\n  \"bench\": \"stream_ingest\",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"substrate\": {\"vertices\": %lld, \"edges\": "
                     "%zu},\n",
               static_cast<long long>(g.num_vertices), g.edges.size());
  std::fprintf(json, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        json,
        "    {\"watermark\": %lld, \"events\": %lld, \"windows\": %lld, "
        "\"events_coalesced\": %lld, \"events_per_sec\": %.1f, "
        "\"p50_apply_ms\": %.3f, \"p99_apply_ms\": %.3f, "
        "\"max_staleness_ms\": %.3f, \"rebuild_share\": %.4f, "
        "\"phi\": %.4f, \"rho\": %.4f}%s\n",
        static_cast<long long>(r.watermark),
        static_cast<long long>(r.events),
        static_cast<long long>(r.windows),
        static_cast<long long>(r.coalesced), r.events_per_sec,
        r.p50_apply_ms, r.p99_apply_ms, r.max_staleness_ms, r.rebuild_share,
        r.phi, r.rho,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
