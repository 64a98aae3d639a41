// spinner_perfbench: one workload of the repository benchmark per process.
//
//   spinner_perfbench --workload=cold-rmat|cold-ws-mp|stream-ws --seed=N
//                     --seconds=S --trace=0|1 --work-dir=DIR
//                     [--size=full|tiny] [--trace-out=FILE]
//                     [--inject=labels|file|reference|replay]
//
// Generates the workload's input from --seed during set-up, measures for
// --seconds, checks the outputs, and prints one JSON object as the last
// line of stdout: {"metrics": {...}, "meta": {...}, "checks": [...],
// "errors": [...], "complete": B, "attempted": N, "failed": N}. `checks`
// lists every output check that failed, `errors` the first failed
// operations, and `complete` says whether the workload ran to its end.
// perfbench/run.py turns that object into the benchmark's result line;
// see perfbench/README.md.
//
// Every layer is measured from outside: the benchmark times calls into the
// public API of src/ and reads the counters those calls return. With
// --trace=1 the same calls are also recorded as spans (name, start, end,
// parent) kept in memory and written to --trace-out at exit; the layer
// self times are derived from them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "dist/coordinator.h"
#include "dist/registry.h"
#include "dist/transport.h"
#include "graph/conversion.h"
#include "graph/delta.h"
#include "graph/edge_list.h"
#include "graph/graph_io.h"
#include "graph/remap.h"
#include "graph/sharded_store.h"
#include "spinner/metrics.h"
#include "spinner/partitioner.h"
#include "spinner/session.h"
#include "spinner/sharded_program.h"
#include "stream/ingestion_service.h"
#include "stream/trigger_policy.h"

namespace {

using spinner::CsrGraph;
using spinner::Edge;
using spinner::EdgeList;
using spinner::PartitionId;
using spinner::Status;
using SteadyClock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

// Input sizes: full for the benchmark, tiny for the self-test.
struct WorkloadSize {
  int rmat_scale;                // cold-rmat: 2^scale vertex ids
  int rmat_edge_factor;          // cold-rmat: edges = factor * 2^scale
  int64_t ws_mp_vertices;        // cold-ws-mp
  int ws_mp_per_side;            // cold-ws-mp: degree = 2 * per_side
  int64_t stream_vertices;       // stream-ws base graph
  int stream_per_side;           // stream-ws: degree = 2 * per_side
};
constexpr WorkloadSize kFullSize{18, 16, 250'000, 8, 100'000, 8};
constexpr WorkloadSize kTinySize{10, 8, 4'000, 4, 3'000, 4};

constexpr int kColdRmatK = 32;
constexpr int kColdWsK = 64;
constexpr int kStreamK = 32;
constexpr int kRescaleDelta = 4;  // stream-ws ends with Rescale(k+4)
constexpr int kShards = 8;
constexpr int kThreads = 4;       // cold-rmat in-process pool
constexpr int kMpWorkers = 3;     // cold-ws-mp forked workers
constexpr int kStreamThreads = 3;  // stream-ws session pool
constexpr double kCapacity = 1.05;
constexpr uint64_t kLpaSeed = 42;  // partition_tool's default --seed
// Set-up is repeated and its median reported: 5 session Opens on
// stream-ws (~0.7 s each), and 25 times the library's pre-input set-up on
// the cold workloads, which takes milliseconds.
constexpr int kSetupReps = 5;
constexpr int kColdSetupReps = 25;

// The stream's offered rate, window watermark and lag limit define the
// workload (BENCHMARK.json states them too) and stay constant across
// commits. The rate is well under saturation at the seed commit.
constexpr double kStreamRate = 600.0;       // offered events per second
constexpr int64_t kStreamWatermark = 512;   // EventCountPolicy windows
constexpr double kStreamLagLimitMs = 2000;  // SLO on event lag
constexpr double kStreamTinySeconds = 1.0;

// ---------------------------------------------------------------- timing

double NowSeconds() {
  static const SteadyClock::time_point start = SteadyClock::now();
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in (0,1]) of `v`.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. Spans are recorded only when enabled; the
/// timings the metrics use are taken the same way in both modes, so the
/// difference between a traced and an untraced run is the recording cost.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span on the main thread; returns its id or -1.
  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, NowSeconds(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end = NowSeconds();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// Records a finished span from any thread (e.g. reconstructed from a
  /// counter a callback received).
  int Add(const std::string& name, int parent, double start, double end) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Self time of every span: its duration minus the union of its
  /// children's intervals clipped to it.
  std::vector<double> SelfTimes() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        const Span& p = spans_[s.parent];
        kids[s.parent].push_back(
            {std::max(s.start, p.start), std::min(s.end, p.end)});
      }
    }
    std::vector<double> self(spans_.size(), 0.0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double cur_s = 0.0;
      double cur_e = -1e300;
      for (const auto& [s, e] : iv) {
        if (e <= s) continue;
        if (s > cur_e) {
          if (cur_e > cur_s) covered += cur_e - cur_s;
          cur_s = s;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_s) covered += cur_e - cur_s;
      self[i] = (spans_[i].end - spans_[i].start) - covered;
    }
    return self;
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    char buf[160];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "\",\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n",
                    s.parent, s.start, s.end);
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << buf;
    }
    return static_cast<bool>(out);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans of the main thread
};

Tracer g_tracer;

/// RAII span that also keeps its own duration for the metrics.
class Timed {
 public:
  explicit Timed(const char* name)
      : id_(g_tracer.Begin(name)), start_(NowSeconds()) {}
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  double Stop() {
    if (!stopped_) {
      seconds_ = NowSeconds() - start_;
      g_tracer.End(id_);
      stopped_ = true;
    }
    return seconds_;
  }
  int id() const { return id_; }

 private:
  int id_;
  double start_;
  double seconds_ = 0.0;
  bool stopped_ = false;
};

// ------------------------------------------------------------- peak RSS

int64_t ReadProcKb(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtoll(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}

/// Child pids of this process (forked shard workers).
std::vector<std::string> ChildPids() {
  std::vector<std::string> pids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return pids;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                     "/children");
    std::string pid;
    while (in >> pid) pids.push_back(pid);
  }
  closedir(dir);
  return pids;
}

/// Peak memory of this process plus its forked workers over a measured
/// interval, counting each page once: the larger of this process's kernel
/// high-water mark (reset by Start) and the largest group sum SampleGroup
/// took. Forked workers share the pages they inherited copy-on-write with
/// this process, so their resident sets would count this process's heap
/// again; the group sum adds proportional set sizes instead (Pss, which
/// splits a shared page among the processes mapping it). Reading Pss walks
/// a process's page tables (~5 ms per 300 MB), so it is sampled once per
/// rep, not continuously.
class PeakRss {
 public:
  void Start() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";  // resets VmHWM to the current VmRSS
    group_kb_ = 0;
  }
  void SampleGroup() {
    int64_t kb = ReadProcKb("/proc/self/smaps_rollup", "Pss:");
    for (const std::string& pid : ChildPids()) {
      kb += ReadProcKb("/proc/" + pid + "/smaps_rollup", "Pss:");
    }
    group_kb_ = std::max(group_kb_, kb);
  }
  /// The peak in MB.
  double StopMb() const {
    const int64_t hwm = ReadProcKb("/proc/self/status", "VmHWM:");
    return static_cast<double>(std::max(hwm, group_kb_)) / 1024.0;
  }
  double GroupMb() const { return static_cast<double>(group_kb_) / 1024.0; }

 private:
  int64_t group_kb_ = 0;
};

// ------------------------------------------------------------ reporting

/// Everything one workload run produces.
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> meta;
  std::vector<std::string> check_failures;
  std::vector<std::string> errors;  // first few failed operations
  int64_t attempted = 0;
  int64_t failed = 0;
  bool complete = false;  // the workload ran to its end

  /// Counts one operation; a non-OK status is a failure.
  bool Op(const Status& s, const std::string& what) {
    ++attempted;
    if (s.ok()) return true;
    ++failed;
    if (errors.size() < 20) errors.push_back(what + ": " + s.ToString());
    return false;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void PrintJson(const Report& r) {
  std::string out = "{\"metrics\":{";
  char buf[64];
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : -1.0);
    out += (first ? "\"" : ",\"") + name + "\":" + buf;
    first = false;
  }
  out += "},\"meta\":{";
  first = true;
  for (const auto& [key, value] : r.meta) {
    out += (first ? "\"" : ",\"") + key + "\":\"" + JsonEscape(value) + "\"";
    first = false;
  }
  out += "}";
  for (const auto& [key, list] :
       {std::pair{"checks", &r.check_failures}, {"errors", &r.errors}}) {
    out += std::string(",\"") + key + "\":[";
    first = true;
    for (const std::string& c : *list) {
      out += (first ? "\"" : ",\"") + JsonEscape(c) + "\"";
      first = false;
    }
    out += "]";
  }
  std::snprintf(buf, sizeof(buf), ",\"complete\":%s,\"attempted\":%" PRId64
                ",\"failed\":%" PRId64 "}",
                r.complete ? "true" : "false", r.attempted, r.failed);
  out += buf;
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------- input makers

/// SplitMix64 stream: the benchmark's own generator, so inputs depend only
/// on the seed and never on the library's RNG.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Graph500 R-MAT edges (a=0.57, b=0.19, c=0.19). Duplicates, self-loops
/// and unused (sparse) ids are kept, as real dumps have them.
EdgeList MakeRmat(int scale, int edge_factor, uint64_t seed) {
  constexpr double a = 0.57, b = 0.19, c = 0.19;
  Rand rng(seed ^ 0x524D4154ULL);
  const int64_t m = (int64_t{1} << scale) * edge_factor;
  EdgeList edges;
  edges.reserve(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    int64_t src = 0;
    int64_t dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double r = rng.NextDouble();
      if (r < a) {
      } else if (r < a + b) {
        dst |= int64_t{1} << bit;
      } else if (r < a + b + c) {
        src |= int64_t{1} << bit;
      } else {
        src |= int64_t{1} << bit;
        dst |= int64_t{1} << bit;
      }
    }
    edges.push_back({src, dst});
  }
  return edges;
}

/// Watts-Strogatz small world: ring lattice with `per_side` successors per
/// vertex, far endpoint rewired with probability 0.3 (no self-loops).
/// Each undirected edge is listed once, as `partition_tool generate`
/// writes it.
EdgeList MakeWattsStrogatz(int64_t n, int per_side, uint64_t seed) {
  Rand rng(seed ^ 0x5753ULL);
  EdgeList edges;
  edges.reserve(static_cast<size_t>(n * per_side));
  for (int64_t v = 0; v < n; ++v) {
    for (int j = 1; j <= per_side; ++j) {
      int64_t w = (v + j) % n;
      if (rng.NextDouble() < 0.3) {
        do {
          w = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n)));
        } while (w == v);
      }
      edges.push_back({v, w});
    }
  }
  return edges;
}

/// Writes "src dst\n" lines; returns the byte count (0 on error).
int64_t WriteEdgeText(const std::string& path, const EdgeList& edges) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return 0;
  std::vector<char> buf(1 << 20);
  size_t used = 0;
  int64_t total = 0;
  for (const Edge& e : edges) {
    if (buf.size() - used < 48) {
      std::fwrite(buf.data(), 1, used, f);
      total += static_cast<int64_t>(used);
      used = 0;
    }
    used += static_cast<size_t>(std::snprintf(
        buf.data() + used, 48, "%lld %lld\n", static_cast<long long>(e.src),
        static_cast<long long>(e.dst)));
  }
  std::fwrite(buf.data(), 1, used, f);
  total += static_cast<int64_t>(used);
  const bool ok = std::fclose(f) == 0;
  return ok ? total : 0;
}

// --------------------------------------------------------------- checks

/// --inject=POINT breaks one output on purpose so the self-test can show
/// that the matching check fires: labels | file | reference | replay.
std::string g_inject;

/// `labels`, or a copy with its first label wrong when POINT is injected.
std::vector<PartitionId> Tamper(const std::vector<PartitionId>& labels,
                                const char* point, int k) {
  std::vector<PartitionId> out = labels;
  if (g_inject == point && !out.empty()) {
    out[0] = g_inject == "labels" ? k : (out[0] + 1) % k;
  }
  return out;
}

uint64_t Fnv1a(const std::vector<PartitionId>& labels) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const PartitionId l : labels) {
    uint32_t x = static_cast<uint32_t>(l);
    for (int i = 0; i < 4; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string Hex(uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, x);
  return buf;
}

/// One label per vertex, every label in [0, k).
void CheckLabels(Report* r, const std::vector<PartitionId>& labels,
                 int64_t n, int k, const std::string& what) {
  r->Check(static_cast<int64_t>(labels.size()) == n,
           what + ": " + std::to_string(labels.size()) + " labels for " +
               std::to_string(n) + " vertices");
  int64_t bad = 0;
  for (const PartitionId l : labels) {
    if (l < 0 || l >= k) ++bad;
  }
  r->Check(bad == 0, what + ": " + std::to_string(bad) +
                         " labels outside [0," + std::to_string(k) + ")");
}

/// The partition file lists "vertex label" for exactly `labels`, in order.
/// Parsed here rather than with the library's reader.
void CheckPartitionFile(Report* r, const std::string& path,
                        const std::vector<PartitionId>& labels) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    r->Check(false, "partition file missing: " + path);
    return;
  }
  long long v = 0;
  long long l = 0;
  size_t i = 0;
  bool ok = true;
  while (std::fscanf(f, "%lld %lld", &v, &l) == 2) {
    if (i >= labels.size() || v != static_cast<long long>(i) ||
        l != labels[i]) {
      ok = false;
      break;
    }
    ++i;
  }
  std::fclose(f);
  r->Check(ok && i == labels.size(),
           "partition file does not match the in-memory assignment");
}

// ------------------------------------------------------ shared LPA bits

spinner::SpinnerConfig BaseConfig(int k) {
  spinner::SpinnerConfig config;
  config.num_partitions = k;
  config.additional_capacity = kCapacity;
  config.seed = kLpaSeed;
  config.num_shards = kShards;
  return config;
}

/// Per-run LPA counters, summed over every run folded in.
struct LpaTotals {
  double lpa_s = 0, init_s = 0, scores_s = 0, migrate_s = 0;
  int64_t iterations = 0, migrations = 0, tasks = 0, stolen = 0;

  void Add(const spinner::pregel::RunStats& stats, int iterations_run,
           const std::vector<spinner::IterationPoint>& history,
           const spinner::ScheduleStats& schedule) {
    lpa_s += stats.total_wall_seconds;
    for (const auto& step : stats.per_superstep) {
      if (step.superstep == 0) {
        init_s += step.wall_seconds;
      } else if (step.superstep % 2 == 1) {
        scores_s += step.wall_seconds;
      } else {
        migrate_s += step.wall_seconds;
      }
    }
    iterations += iterations_run;
    for (const auto& point : history) migrations += point.migrations;
    tasks += schedule.tasks;
    stolen += schedule.stolen_tasks;
  }
  void Publish(std::map<std::string, double>* m) const {
    (*m)["spinner.lpa_s"] = lpa_s;
    (*m)["spinner.iterations"] = static_cast<double>(iterations);
    (*m)["spinner.init_s"] = init_s;
    (*m)["spinner.scores_s"] = scores_s;
    (*m)["spinner.migrate_s"] = migrate_s;
    (*m)["spinner.s_per_iteration"] =
        iterations > 0 ? lpa_s / static_cast<double>(iterations) : 0.0;
    (*m)["spinner.migrations"] = static_cast<double>(migrations);
    (*m)["spinner.stolen_ratio"] =
        tasks > 0 ? static_cast<double>(stolen) / static_cast<double>(tasks)
                  : 0.0;
  }
};

void PublishWire(const spinner::WireTraffic& w,
                 std::map<std::string, double>* m) {
  (*m)["dist.bytes_sent"] = static_cast<double>(w.bytes_sent);
  (*m)["dist.bytes_received"] = static_cast<double>(w.bytes_received);
  (*m)["dist.frames"] = static_cast<double>(w.frames_sent + w.frames_received);
  (*m)["dist.slice_bytes_downloaded"] =
      static_cast<double>(w.slice_bytes_downloaded);
  (*m)["dist.label_values_sent"] = static_cast<double>(w.label_values_sent);
  (*m)["dist.delta_entries_sent"] = static_cast<double>(w.delta_entries_sent);
  double per_step = 0.0;
  for (const int64_t b : w.per_superstep_bytes) per_step += b;
  (*m)["dist.bytes_per_superstep"] =
      w.per_superstep_bytes.empty()
          ? 0.0
          : per_step / static_cast<double>(w.per_superstep_bytes.size());
}

/// Zero-valued defaults for every per-layer metric, so each workload
/// reports the full set; layers a workload does not reach stay 0.
void DefaultLayerMetrics(std::map<std::string, double>* m) {
  for (const char* name :
       {"graph_io.read_s", "graph_io.read_mb_per_s", "graph_io.write_s",
        "graph.remap_s", "graph.convert_s", "graph.arcs",
        "graph.store_build_s", "spinner.metrics_s",
        "session.open_s", "session.rescale_s", "session.moved_frac",
        "session.rescale_iterations",
        "session.apply_p50_ms", "session.apply_p99_ms",
        "session.apply_lpa_ms", "session.apply_rebuild_ms",
        "session.apply_iterations", "stream.windows",
        "stream.queue_high_water", "stream.coalesced_ratio",
        "stream.submit_blocked_s", "stream.generator_late_ms",
        "stream.event_lag_p50_ms", "stream.event_lag_p99_ms",
        "stream.slo_miss_ratio", "stream.events_per_s"}) {
    (*m)[name] = 0.0;
  }
  LpaTotals{}.Publish(m);
  PublishWire(spinner::WireTraffic{}, m);
}

/// Layer of a span name: the part before the first '.'.
std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Publishes each layer's self time per root span ("bench.*" roots are the
/// benchmark's own and count as unattributed), averaged over `roots`.
void PublishSelfTimes(int roots, std::map<std::string, double>* m) {
  std::map<std::string, double> self;
  for (const char* layer :
       {"graph_io", "graph", "spinner", "dist", "session", "stream"}) {
    self[layer] = 0.0;
  }
  double unattributed = 0.0;
  const std::vector<double> times = g_tracer.SelfTimes();
  const auto& spans = g_tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = LayerOf(spans[i].name);
    if (layer == "bench") {
      unattributed += times[i];
    } else {
      self[layer] += times[i];
    }
  }
  const double per = roots > 0 ? 1.0 / roots : 0.0;
  for (const auto& [layer, seconds] : self) {
    (*m)[layer + ".self_s"] = seconds * per;
  }
  (*m)["trace.unattributed_s"] = unattributed * per;
  (*m)["trace.spans"] = static_cast<double>(spans.size());
}

// ------------------------------------------------------------ cold runs

struct ColdRep {
  double e2e_s = 0, rss_mb = 0;
  double group_pss_mb = 0;  // the multi-process group's sample, if taken
  std::map<std::string, double> layers;
  std::vector<PartitionId> labels;
  int64_t n = 0;
  int64_t arcs = 0;
};

/// Text edge list in -> partition file out, the path of
/// `partition_tool partition`: ReadEdgeList, CompactVertexIds,
/// ConvertToWeightedUndirected, ShardedGraphStore::Build, shard-parallel
/// LPA (threads or forked workers), ComputeMetrics, WritePartitioning.
bool ColdOnce(Report* r, const std::string& text_path,
              const std::string& parts_path, int64_t text_bytes,
              const spinner::SpinnerConfig& config, bool multiprocess,
              spinner::ThreadPool* pool, ColdRep* rep) {
  PeakRss rss;
  rss.Start();
  auto& m = rep->layers;
  Timed e2e("bench.e2e");
  CsrGraph converted;
  {
    Timed read("graph_io.ReadEdgeList");
    auto edges = spinner::graph_io::ReadEdgeList(text_path);
    m["graph_io.read_s"] = read.Stop();
    if (!r->Op(edges.status(), "ReadEdgeList")) return false;
    m["graph_io.read_mb_per_s"] =
        static_cast<double>(text_bytes) / 1e6 / m["graph_io.read_s"];
    Timed remap("graph.CompactVertexIds");
    spinner::CompactVertexIds(&*edges);
    m["graph.remap_s"] = remap.Stop();
    rep->n = spinner::MaxVertexId(*edges) + 1;
    Timed convert("graph.ConvertToWeightedUndirected");
    auto conv = spinner::ConvertToWeightedUndirected(rep->n, *edges);
    m["graph.convert_s"] = convert.Stop();
    if (!r->Op(conv.status(), "ConvertToWeightedUndirected")) return false;
    converted = std::move(conv).value();
  }
  rep->arcs = converted.NumArcs();
  m["graph.arcs"] = static_cast<double>(rep->arcs);
  Timed build("graph.ShardedGraphStore::Build");
  auto store = spinner::ShardedGraphStore::Build(converted, kShards);
  m["graph.store_build_s"] = build.Stop();
  if (!r->Op(store.status(), "ShardedGraphStore::Build")) return false;

  spinner::Result<spinner::ShardedRunResult> run =
      Status::Internal("not run");
  {
    Timed lpa(multiprocess ? "dist.RunMultiProcessSpinner"
                           : "spinner.RunShardedSpinner");
    if (multiprocess) {
      spinner::dist::MultiProcessOptions mp;
      mp.num_workers = kMpWorkers;
      // The workers hold their slices from the first superstep to the
      // last; take the group's memory once, after the second iteration.
      spinner::ProgressObserver observer;
      observer.on_iteration = [&rss](const spinner::IterationPoint& point) {
        if (point.iteration == 2) rss.SampleGroup();
        return true;
      };
      run = spinner::dist::RunMultiProcessSpinner(config, &*store, {}, mp,
                                                  &observer);
    } else {
      run = spinner::RunShardedSpinner(config, &*store, {}, pool, nullptr);
    }
    lpa.Stop();
    if (multiprocess && run.ok()) {
      // The coordinator's share of the span is dist; the supersteps the
      // run reports are the kernel's (spinner) time.
      const double end = NowSeconds();
      g_tracer.Add("spinner.supersteps", lpa.id(),
                   end - run->run_stats.total_wall_seconds, end);
    }
  }
  if (!r->Op(run.status(), "LPA run")) return false;
  LpaTotals totals;
  totals.Add(run->run_stats, run->iterations, run->history, run->schedule);
  totals.Publish(&m);
  PublishWire(run->wire, &m);
  rep->labels = std::move(store->labels());

  Timed metrics("spinner.ComputeMetrics");
  auto quality = spinner::ComputeMetrics(converted, rep->labels,
                                         config.num_partitions, kCapacity);
  m["spinner.metrics_s"] = metrics.Stop();
  if (!r->Op(quality.status(), "ComputeMetrics")) return false;
  m["phi"] = quality->phi;
  m["rho"] = quality->rho;

  Timed write("graph_io.WritePartitioning");
  const Status written =
      spinner::graph_io::WritePartitioning(parts_path, rep->labels);
  m["graph_io.write_s"] = write.Stop();
  if (!r->Op(written, "WritePartitioning")) return false;
  rep->e2e_s = e2e.Stop();
  rep->rss_mb = rss.StopMb();
  rep->group_pss_mb = rss.GroupMb();
  return true;
}

void RunCold(Report* r, bool multiprocess, const WorkloadSize& size,
             uint64_t seed, double seconds, bool trace,
             const std::string& work_dir) {
  const int k = multiprocess ? kColdWsK : kColdRmatK;
  const std::string text_path = work_dir + "/edges.txt";
  const std::string parts_path = work_dir + "/parts.txt";
  spinner::SpinnerConfig config = BaseConfig(k);
  if (multiprocess) {
    config.execution.mode = spinner::ExecutionMode::kMultiProcess;
    config.execution.num_workers = kMpWorkers;
  } else {
    config.num_threads = kThreads;
  }

  // The input: generated from the seed and written as text. This is the
  // benchmark's own work, so it is reported as metadata, not as set-up.
  int64_t text_bytes = 0;
  {
    const double gen_start = NowSeconds();
    const EdgeList edges =
        multiprocess
            ? MakeWattsStrogatz(size.ws_mp_vertices, size.ws_mp_per_side, seed)
            : MakeRmat(size.rmat_scale, size.rmat_edge_factor, seed);
    text_bytes = WriteEdgeText(text_path, edges);
    r->meta["input_gen_s"] = std::to_string(NowSeconds() - gen_start);
    r->meta["input_text_bytes"] = std::to_string(text_bytes);
    r->meta["input_edges"] = std::to_string(edges.size());
  }
  // The generator's memory goes back to the kernel, so set-up and every
  // rep start from a process as small as a fresh partition_tool.
  malloc_trim(0);
  if (!r->Op(text_bytes > 0 ? Status::OK() : Status::IOError("write input"),
             "write input text")) {
    return;
  }

  // Set-up, repeated: the library calls a cold run makes before it reads
  // its input. Both validate the config. cold-rmat then starts the 4-thread
  // pool it runs on; cold-ws-mp forks its 3 shard workers through the
  // single-host transport, waits for each one's Hello and releases them
  // (the run forks its own fleet later, once the store is built, and that
  // fork is part of e2e_s).
  std::vector<double> setup;
  std::unique_ptr<spinner::ThreadPool> pool;
  for (int i = 0; i < kColdSetupReps; ++i) {
    pool.reset();
    const double t0 = NowSeconds();
    if (!r->Op(config.Validate(), "SpinnerConfig::Validate")) return;
    if (multiprocess) {
      spinner::dist::UnixSocketTransport transport;
      auto fleet = transport.Acquire(
          kMpWorkers, spinner::dist::TransportOptions::FromEnv());
      if (!r->Op(fleet.status(), "UnixSocketTransport::Acquire")) return;
      for (auto& endpoint : *fleet) transport.Release(std::move(endpoint));
    } else {
      pool = std::make_unique<spinner::ThreadPool>(kThreads);
    }
    setup.push_back(NowSeconds() - t0);
  }
  r->metrics["setup_s"] = Median(setup);

  // Measured reps. A traced run alternates untraced and traced reps over
  // twice the time so the tracing overhead is measured within one run.
  std::vector<ColdRep> plain, traced;
  const double budget = trace ? 2 * seconds : seconds;
  const double t_start = NowSeconds();
  for (int i = 0;; ++i) {
    const bool traced_rep = trace && i % 2 == 1;
    malloc_trim(0);  // the previous rep's freed memory, as above
    g_tracer.set_enabled(traced_rep);
    ColdRep rep;
    const bool ok = ColdOnce(r, text_path, parts_path, text_bytes, config,
                             multiprocess, pool.get(), &rep);
    g_tracer.set_enabled(false);
    if (!ok) return;
    (traced_rep ? traced : plain).push_back(std::move(rep));
    const bool enough = !trace || (plain.size() >= 2 && traced.size() >= 2);
    if (NowSeconds() - t_start >= budget && enough) break;
  }

  const ColdRep& last = plain.back();
  std::vector<double> e2e, rss;
  for (const ColdRep& rep : plain) {
    e2e.push_back(rep.e2e_s);
    rss.push_back(rep.rss_mb);
    r->Check(rep.labels == last.labels,
             "assignment differs between reps of one run");
  }
  for (const ColdRep& rep : traced) {
    r->Check(rep.labels == last.labels, "traced rep assignment differs");
  }
  r->metrics["e2e_s"] = Median(e2e);
  r->metrics["peak_rss_mb"] = Median(rss);
  std::string reps;
  for (const double t : e2e) {
    reps += (reps.empty() ? "" : " ") + std::to_string(t);
  }
  r->meta["rep_e2e_s"] = reps;
  r->metrics["phi"] = last.layers.at("phi");
  r->metrics["rho"] = last.layers.at("rho");
  r->meta["reps"] = std::to_string(plain.size());
  r->meta["group_pss_mb"] = std::to_string(last.group_pss_mb);
  r->meta["vertices"] = std::to_string(last.n);
  r->meta["arcs"] = std::to_string(last.arcs);

  // Output checks. The graph is loaded again, untimed: no rep keeps it
  // alive, so each rep's peak RSS is its own.
  CheckLabels(r, Tamper(last.labels, "labels", k), last.n, k, "partition");
  CheckPartitionFile(r, parts_path, Tamper(last.labels, "file", k));
  r->meta["checksum"] = Hex(Fnv1a(last.labels));
  CsrGraph converted;
  {
    auto edges = spinner::graph_io::ReadEdgeList(text_path);
    if (!r->Op(edges.status(), "check ReadEdgeList")) return;
    spinner::CompactVertexIds(&*edges);
    auto conv = spinner::ConvertToWeightedUndirected(last.n, *edges);
    if (!r->Op(conv.status(), "check Convert")) return;
    converted = std::move(conv).value();
  }
  {
    // Reference: the stateless entry point `partition_tool partition` uses,
    // in-process. For cold-ws-mp this is the same input on 4 threads.
    spinner::SpinnerConfig in_process = BaseConfig(k);
    in_process.num_threads = kThreads;
    auto reference =
        spinner::SpinnerPartitioner(in_process).Partition(converted);
    if (r->Op(reference.status(), "reference Partition")) {
      r->meta["reference_checksum"] = Hex(Fnv1a(reference->assignment));
      r->Check(reference->assignment == Tamper(last.labels, "reference", k),
               "assignment differs from the in-process SpinnerPartitioner");
      r->Check(reference->metrics.phi == r->metrics["phi"] &&
                   reference->metrics.rho == r->metrics["rho"],
               "phi/rho differ from the in-process SpinnerPartitioner");
    }
  }

  // Per-layer metrics: medians over the traced reps (plain reps when the
  // run is untraced, for the human-readable table).
  const std::vector<ColdRep>& source = trace ? traced : plain;
  for (const auto& [name, _] : source.front().layers) {
    if (name == "phi" || name == "rho") continue;
    std::vector<double> values;
    for (const ColdRep& rep : source) values.push_back(rep.layers.at(name));
    r->metrics[name] = Median(values);
  }
  if (trace) {
    std::vector<double> traced_e2e;
    for (const ColdRep& rep : traced) traced_e2e.push_back(rep.e2e_s);
    r->metrics["trace.overhead_s"] = Median(traced_e2e) - Median(e2e);
    PublishSelfTimes(static_cast<int>(traced.size()), &r->metrics);
  }
  r->complete = true;
}

// ----------------------------------------------------------- stream run

/// Seeded event mix: fresh adds, duplicate retries of recent adds,
/// add-then-remove transients, and removals of existing base edges. The
/// shares (55/15/15/15%), the 64-add retry window and the 0-600-event
/// transient lifetime are assumed, not taken from a trace or a published
/// measurement; they exercise every kind of event and coalescing, and are
/// fixed so that results compare across commits.
std::vector<spinner::stream::EdgeEvent> MakeEvents(const EdgeList& base,
                                                   int64_t n, int64_t count,
                                                   uint64_t seed) {
  using spinner::stream::EdgeEvent;
  Rand rng(seed ^ 0x4556ULL);
  std::vector<size_t> removal_order(base.size());
  for (size_t i = 0; i < base.size(); ++i) removal_order[i] = i;
  size_t next_removal = 0;
  std::vector<EdgeEvent> events;
  events.reserve(static_cast<size_t>(count));
  std::vector<Edge> recent;
  std::multimap<int64_t, Edge> pending;  // event index -> transient removal
  auto random_edge = [&] {
    const int64_t u = static_cast<int64_t>(rng.Uniform(n));
    int64_t v = static_cast<int64_t>(rng.Uniform(n - 1));
    if (v >= u) ++v;
    return Edge{u, v};
  };
  while (static_cast<int64_t>(events.size()) < count) {
    const int64_t index = static_cast<int64_t>(events.size());
    if (!pending.empty() && pending.begin()->first <= index) {
      const Edge e = pending.begin()->second;
      pending.erase(pending.begin());
      events.push_back(EdgeEvent::RemoveEdge(e.src, e.dst));
      continue;
    }
    const uint64_t roll = rng.Uniform(100);
    if (roll < 55 || (roll < 70 && recent.empty())) {
      const Edge e = random_edge();
      events.push_back(EdgeEvent::AddEdge(e.src, e.dst));
      recent.push_back(e);
      if (recent.size() > 64) recent.erase(recent.begin());
    } else if (roll < 70) {
      const Edge e = recent[rng.Uniform(recent.size())];
      events.push_back(EdgeEvent::AddEdge(e.src, e.dst));
    } else if (roll < 85 || next_removal >= removal_order.size()) {
      const Edge e = random_edge();
      events.push_back(EdgeEvent::AddEdge(e.src, e.dst));
      pending.emplace(index + 1 + static_cast<int64_t>(rng.Uniform(600)), e);
    } else {
      // Partial Fisher-Yates: each base edge is removed at most once.
      const size_t j =
          next_removal + rng.Uniform(removal_order.size() - next_removal);
      std::swap(removal_order[next_removal], removal_order[j]);
      const Edge e = base[removal_order[next_removal++]];
      events.push_back(EdgeEvent::RemoveEdge(e.src, e.dst));
    }
  }
  return events;
}

struct WindowRecord {
  int64_t ingested = 0;  // cumulative events applied after this window
  double applied_at = 0;
  double apply_s = 0;
  double lpa_s = 0;
  int iterations = 0;
};

struct StreamOutcome {
  std::vector<WindowRecord> windows;
  std::vector<int64_t> accepted;  // event indices accepted by Submit
  std::vector<double> lag_s;      // per due event; failures are +inf
  std::vector<double> close_lag_s;  // per window, from its last event's due
  double first_due = 0;
  double submit_blocked_s = 0;
  std::vector<double> late_s;
  spinner::stream::IngestStats stats;
  LpaTotals lpa;
  std::vector<PartitionId> drained_labels;
};

/// Offers `events` open loop at kStreamRate to an IngestionService over
/// `session`, then Drains. Lag is measured from each event's due time.
bool RunStream(Report* r, spinner::PartitioningSession* session,
               const std::vector<spinner::stream::EdgeEvent>& events,
               StreamOutcome* out) {
  namespace st = spinner::stream;
  std::mutex mutex;
  Timed root("bench.stream");
  const int root_id = root.id();
  st::IngestionOptions options;
  options.policy = std::make_unique<st::EventCountPolicy>(kStreamWatermark);
  options.on_apply = [&](const st::IngestStats& stats) {
    // Runs on the ingestion thread right after ApplyDelta returned, so
    // the session's last result is this window's.
    const double now = NowSeconds();
    const spinner::PartitionResult& last = session->last_result();
    WindowRecord w;
    w.ingested = stats.events_ingested;
    w.applied_at = now;
    w.apply_s = static_cast<double>(stats.last_apply_micros) * 1e-6;
    w.lpa_s = last.run_stats.total_wall_seconds;
    w.iterations = last.iterations;
    const int apply_span =
        g_tracer.Add("session.ApplyDelta", root_id, now - w.apply_s, now);
    g_tracer.Add("spinner.lpa", apply_span, now - w.lpa_s, now);
    std::lock_guard<std::mutex> lock(mutex);
    out->lpa.Add(last.run_stats, last.iterations, last.history,
                 last.schedule);
    out->windows.push_back(w);
    return true;
  };
  st::IngestionService service(session, std::move(options));
  if (!r->Op(service.Start(), "IngestionService::Start")) return false;

  const double period = 1.0 / kStreamRate;
  const auto limit = std::chrono::microseconds(
      static_cast<int64_t>(kStreamLagLimitMs * 1000));
  out->first_due = NowSeconds() + 0.005;
  std::vector<double> due(events.size());
  std::vector<bool> ok(events.size(), false);
  for (size_t j = 0; j < events.size(); ++j) {
    due[j] = out->first_due + static_cast<double>(j) * period;
    const double now = NowSeconds();
    if (now < due[j]) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due[j] - now));
    }
    const double submit_at = NowSeconds();
    out->late_s.push_back(std::max(0.0, submit_at - due[j]));
    const int span = g_tracer.Begin("stream.SubmitFor");
    ok[j] = r->Op(service.SubmitFor(events[j], limit), "SubmitFor");
    g_tracer.End(span);
    out->submit_blocked_s += NowSeconds() - submit_at;
    if (ok[j]) out->accepted.push_back(static_cast<int64_t>(j));
  }
  {
    Timed drain("stream.Drain");
    r->Op(service.Drain(), "Drain");
  }
  out->stats = service.stats();
  out->drained_labels = session->assignment();
  r->Op(service.Stop(), "IngestionService::Stop");
  root.Stop();

  // Lag: accepted event a (in submit order) is applied by the first window
  // whose cumulative count exceeds a.
  std::lock_guard<std::mutex> lock(mutex);
  size_t w = 0;
  size_t a = 0;
  for (size_t j = 0; j < events.size(); ++j) {
    if (!ok[j]) {
      out->lag_s.push_back(INFINITY);
      continue;
    }
    while (w < out->windows.size() &&
           out->windows[w].ingested <= static_cast<int64_t>(a)) {
      ++w;
    }
    out->lag_s.push_back(w < out->windows.size()
                             ? out->windows[w].applied_at - due[j]
                             : INFINITY);
    ++a;
  }
  // A window closes with its last accepted event.
  for (const WindowRecord& win : out->windows) {
    if (win.ingested > 0) {
      out->close_lag_s.push_back(win.applied_at -
                                 due[out->accepted[win.ingested - 1]]);
    }
  }
  return true;
}

void PublishStream(const StreamOutcome& s, std::map<std::string, double>* m) {
  std::vector<double> apply_ms, lpa_ms, rebuild_ms;
  double iterations = 0;
  for (const WindowRecord& w : s.windows) {
    apply_ms.push_back(w.apply_s * 1e3);
    lpa_ms.push_back(w.lpa_s * 1e3);
    rebuild_ms.push_back((w.apply_s - w.lpa_s) * 1e3);
    iterations += w.iterations;
  }
  const double nw = static_cast<double>(s.windows.size());
  (*m)["session.apply_p50_ms"] = Median(apply_ms);
  (*m)["session.apply_p99_ms"] = Percentile(apply_ms, 0.99);
  (*m)["session.apply_lpa_ms"] = Median(lpa_ms);
  (*m)["session.apply_rebuild_ms"] = Median(rebuild_ms);
  (*m)["session.apply_iterations"] = nw > 0 ? iterations / nw : 0.0;
  (*m)["stream.windows"] = nw;
  (*m)["stream.queue_high_water"] =
      static_cast<double>(s.stats.queue_high_water);
  (*m)["stream.coalesced_ratio"] =
      s.stats.events_ingested > 0
          ? static_cast<double>(s.stats.events_coalesced) /
                static_cast<double>(s.stats.events_ingested)
          : 0.0;
  (*m)["stream.submit_blocked_s"] = s.submit_blocked_s;
  (*m)["stream.generator_late_ms"] = Percentile(s.late_s, 0.99) * 1e3;
  (*m)["stream.event_lag_p50_ms"] = Percentile(s.lag_s, 0.5) * 1e3;
  (*m)["stream.event_lag_p99_ms"] = Percentile(s.lag_s, 0.99) * 1e3;
  int64_t misses = 0;
  for (const double lag : s.lag_s) {
    if (!(lag * 1e3 <= kStreamLagLimitMs)) ++misses;
  }
  (*m)["stream.slo_miss_ratio"] =
      s.lag_s.empty() ? 0.0
                      : static_cast<double>(misses) /
                            static_cast<double>(s.lag_s.size());
  const double span = s.windows.empty()
                          ? 0.0
                          : s.windows.back().applied_at - s.first_due;
  (*m)["stream.events_per_s"] =
      span > 0 ? static_cast<double>(s.stats.events_ingested) / span : 0.0;
  s.lpa.Publish(m);
}

void RunStreamWorkload(Report* r, const WorkloadSize& size, uint64_t seed,
                       double seconds, bool trace, bool tiny,
                       const std::string& work_dir) {
  const int k = kStreamK;
  const int new_k = k + kRescaleDelta;
  spinner::SessionOptions options;
  options.execution.num_shards = kShards;
  options.execution.num_threads = kStreamThreads;
  const spinner::SpinnerConfig config = BaseConfig(k);
  const int64_t n = size.stream_vertices;
  const EdgeList base = MakeWattsStrogatz(n, size.stream_per_side, seed);
  const double stream_seconds = tiny ? kStreamTinySeconds : seconds;
  const auto events = MakeEvents(
      base, n, static_cast<int64_t>(stream_seconds * kStreamRate), seed);
  r->meta["vertices"] = std::to_string(n);
  r->meta["input_edges"] = std::to_string(base.size());
  r->meta["events"] = std::to_string(events.size());

  // Set-up, repeated: Open a session on the base graph. The first stays
  // open for the stream; a traced run keeps the second for its traced
  // stream; the rest are dropped at once.
  using SessionPtr = std::unique_ptr<spinner::PartitioningSession>;
  std::vector<SessionPtr> sessions;
  std::vector<double> open_s;
  for (int i = 0; i < kSetupReps; ++i) {
    auto session = std::make_unique<spinner::PartitioningSession>(config,
                                                                  options);
    const double t0 = NowSeconds();
    const bool ok =
        r->Op(session->Open(n, base, /*directed=*/false), "Session::Open");
    open_s.push_back(NowSeconds() - t0);
    if (!ok) return;
    if (i == 0 || (trace && i == 1)) sessions.push_back(std::move(session));
  }
  r->metrics["setup_s"] = Median(open_s);
  r->metrics["session.open_s"] = Median(open_s);
  // The dropped sessions' pool threads leave freed memory in their malloc
  // arenas; return it so the stream's memory is the stream's own.
  malloc_trim(0);
  const std::vector<PartitionId> opened = sessions[0]->assignment();

  auto run_one = [&](spinner::PartitioningSession* session, bool traced,
                     StreamOutcome* out, double* rescale_s,
                     double* rss_mb) {
    g_tracer.set_enabled(traced);
    PeakRss rss;
    rss.Start();
    bool ok = RunStream(r, session, events, out);
    if (ok) {
      Timed root("bench.rescale");
      Timed rescale("session.Rescale");
      ok = r->Op(session->Rescale(new_k), "Session::Rescale");
      *rescale_s = rescale.Stop();
      const double end = NowSeconds();
      g_tracer.Add("spinner.lpa", rescale.id(),
                   end - session->last_result().run_stats.total_wall_seconds,
                   end);
    }
    *rss_mb = rss.StopMb();
    g_tracer.set_enabled(false);
    return ok;
  };

  StreamOutcome plain;
  double rescale_s = 0, rss_mb = 0;
  if (!run_one(sessions[0].get(), false, &plain, &rescale_s, &rss_mb)) return;
  spinner::PartitioningSession& main = *sessions[0];

  // Blocking replay of the same windows on a freshly opened session.
  std::vector<PartitionId> replay_drained, replay_final;
  {
    spinner::PartitioningSession replay(config, options);
    if (!r->Op(replay.Open(n, base, false), "replay Open")) return;
    r->Check(replay.assignment() == opened, "Open is not deterministic");
    int64_t begin = 0;
    for (const WindowRecord& w : plain.windows) {
      spinner::GraphDelta delta;
      for (int64_t a = begin; a < w.ingested; ++a) {
        const auto& e = events[plain.accepted[a]];
        if (e.kind == spinner::stream::EdgeEvent::Kind::kAddEdge) {
          delta.AddEdge(e.src, e.dst);
        } else {
          delta.RemoveEdge(e.src, e.dst);
        }
      }
      r->Check(w.ingested - begin == kStreamWatermark ||
                   &w == &plain.windows.back(),
               "window boundary is not the event-count watermark");
      begin = w.ingested;
      delta.Coalesce();
      if (!r->Op(replay.ApplyDelta(delta), "replay ApplyDelta")) return;
    }
    r->Check(begin == static_cast<int64_t>(plain.accepted.size()),
             "not every accepted event was applied");
    replay_drained = replay.assignment();
    if (!r->Op(replay.Rescale(new_k), "replay Rescale")) return;
    replay_final = replay.assignment();
  }
  r->Check(Tamper(plain.drained_labels, "replay", k) == replay_drained,
           "streamed assignment differs from the blocking ApplyDelta replay");
  r->Check(main.assignment() == replay_final,
           "rescaled assignment differs from the replay's");
  CheckLabels(r, Tamper(main.assignment(), "labels", new_k),
              main.num_vertices(), new_k, "stream");

  // Quality and the partition file of the final assignment.
  {
    Timed metrics("spinner.ComputeMetrics");
    auto quality = spinner::ComputeMetrics(main.converted(),
                                           main.assignment(), new_k,
                                           kCapacity);
    r->metrics["spinner.metrics_s"] = metrics.Stop();
    if (!r->Op(quality.status(), "ComputeMetrics")) return;
    r->metrics["phi"] = quality->phi;
    r->metrics["rho"] = quality->rho;
  }
  const std::string parts_path = work_dir + "/parts.txt";
  {
    Timed write("graph_io.WritePartitioning");
    const Status s =
        spinner::graph_io::WritePartitioning(parts_path, main.assignment());
    r->metrics["graph_io.write_s"] = write.Stop();
    if (!r->Op(s, "WritePartitioning")) return;
  }
  CheckPartitionFile(r, parts_path, Tamper(main.assignment(), "file", new_k));
  r->meta["checksum"] = Hex(Fnv1a(main.assignment()));
  r->meta["drained_checksum"] = Hex(Fnv1a(plain.drained_labels));
  r->meta["arcs"] = std::to_string(main.converted().NumArcs());
  r->metrics["graph.arcs"] = static_cast<double>(main.converted().NumArcs());

  int64_t moved = 0;
  for (size_t v = 0; v < plain.drained_labels.size(); ++v) {
    if (main.assignment()[v] != plain.drained_labels[v]) ++moved;
  }
  // The gated lag runs from each window's close (the due time of its last
  // event) to its on_apply: the part of an event's lag the program
  // controls. The time a window waits to fill is set by the offered rate
  // and the watermark; the full lag from each event's due time is
  // stream.event_lag_*.
  r->metrics["e2e_s"] = Median(plain.close_lag_s);
  std::string lags;
  for (const double t : plain.close_lag_s) {
    lags += (lags.empty() ? "" : " ") + std::to_string(t);
  }
  r->meta["window_lag_s"] = lags;
  r->metrics["peak_rss_mb"] = rss_mb;
  r->metrics["session.rescale_s"] = rescale_s;
  r->metrics["session.moved_frac"] =
      static_cast<double>(moved) /
      static_cast<double>(plain.drained_labels.size());
  r->metrics["session.rescale_iterations"] = main.last_result().iterations;
  PublishStream(plain, &r->metrics);

  if (trace) {
    StreamOutcome traced;
    double traced_rescale = 0, traced_rss = 0;
    if (!run_one(sessions[1].get(), true, &traced, &traced_rescale,
                 &traced_rss)) {
      return;
    }
    r->Check(traced.drained_labels == plain.drained_labels &&
                 sessions[1]->assignment() == main.assignment(),
             "traced stream assignment differs from the untraced one");
    PublishStream(traced, &r->metrics);
    r->metrics["session.rescale_s"] = traced_rescale;
    r->metrics["trace.overhead_s"] =
        Median(traced.close_lag_s) - Median(plain.close_lag_s);
    PublishSelfTimes(1, &r->metrics);
  }
  r->complete = true;
}

// ----------------------------------------------------------------- main

/// Host CPU time counters from /proc/stat: {steal, total} in ticks. Steal
/// is time the hypervisor ran something else while this machine's virtual
/// CPUs wanted to run.
std::pair<int64_t, int64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = Flag(argc, argv, "workload", "");
  const uint64_t seed = std::strtoull(
      Flag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  const double seconds =
      std::strtod(Flag(argc, argv, "seconds", "10").c_str(), nullptr);
  const bool trace = Flag(argc, argv, "trace", "0") == "1";
  const std::string work_dir = Flag(argc, argv, "work-dir", ".");
  const std::string size_name = Flag(argc, argv, "size", "full");
  const std::string trace_out = Flag(argc, argv, "trace-out", "");
  g_inject = Flag(argc, argv, "inject", "");
  if (workload != "cold-rmat" && workload != "cold-ws-mp" &&
      workload != "stream-ws") {
    std::fprintf(stderr,
                 "usage: spinner_perfbench --workload=cold-rmat|cold-ws-mp|"
                 "stream-ws --seed=N --seconds=S --trace=0|1 --work-dir=DIR "
                 "[--size=full|tiny] [--trace-out=FILE] "
                 "[--inject=labels|file|reference|replay]\n");
    return 2;
  }
  const bool tiny = size_name == "tiny";
  const WorkloadSize& size = tiny ? kTinySize : kFullSize;

  Report report;
  DefaultLayerMetrics(&report.metrics);
  report.meta["workload"] = workload;
  report.meta["seed"] = std::to_string(seed);
  report.meta["size"] = size_name;
  report.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.meta["cpu_model"] = CpuModel();
  report.meta["compiler"] = "g++ " __VERSION__;
  report.meta["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef SPINNER_SIMD
  report.meta["spinner_simd"] = "1";
#else
  report.meta["spinner_simd"] = "0";
#endif
  report.meta["stream_rate_per_s"] = std::to_string(kStreamRate);
  report.meta["stream_watermark"] = std::to_string(kStreamWatermark);
  report.meta["stream_lag_limit_ms"] = std::to_string(kStreamLagLimitMs);

  const auto ticks_before = CpuTicks();
  if (workload == "stream-ws") {
    RunStreamWorkload(&report, size, seed, seconds, trace, tiny, work_dir);
  } else {
    RunCold(&report, workload == "cold-ws-mp", size, seed, seconds, trace,
            work_dir);
  }
  const auto ticks_after = CpuTicks();
  const int64_t ticks = ticks_after.second - ticks_before.second;
  report.meta["cpu_steal_pct"] = std::to_string(
      ticks > 0 ? 100.0 * static_cast<double>(ticks_after.first -
                                              ticks_before.first) /
                      static_cast<double>(ticks)
                : 0.0);
  if (trace && !trace_out.empty() && !g_tracer.Write(trace_out)) {
    report.check_failures.push_back("cannot write trace " + trace_out);
  }
  PrintJson(report);
  return report.complete && report.check_failures.empty() ? 0 : 1;
}
