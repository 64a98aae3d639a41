// The elasticity loop: ScalingPolicy units (watermark gauges, the
// φ-degradation trigger, hysteresis and cooldown wrappers — all under a
// ManualClock, so every sequence is deterministic), the strict policy-spec
// grammar, LoadTrace text round-trips, the ElasticController's
// execute/dry-run bookkeeping, and the policy lab's two headline
// invariants: policy=none reproduces a controller-free streaming run
// byte-for-byte, and a controller-driven rescale mid-stream is
// bit-identical between the streaming and blocking replay paths at every
// {num_shards, num_threads} shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "elastic/elastic_controller.h"
#include "elastic/policy_spec.h"
#include "elastic/scaling_policy.h"
#include "graph/generators.h"
#include "simulator/cluster_simulator.h"
#include "spinner/session.h"
#include "stream/clock.h"
#include "stream/ingestion_service.h"
#include "stream/trigger_policy.h"

namespace spinner {
namespace {

using elastic::CapacityWatermarkPolicy;
using elastic::CooldownPolicy;
using elastic::CutDegradationPolicy;
using elastic::ElasticController;
using elastic::HysteresisPolicy;
using elastic::MakePolicy;
using elastic::ScalingAction;
using elastic::ScalingDecision;
using elastic::ScalingPolicy;
using elastic::ScalingSignals;

ScalingSignals Signals(int k, double rho, int64_t max_load = 0,
                       int capacity = 0, int64_t now_micros = 0) {
  ScalingSignals signals;
  signals.current_k = k;
  signals.rho = rho;
  signals.max_load = max_load;
  signals.available_capacity = capacity;
  signals.now_micros = now_micros;
  return signals;
}

/// Replays a fixed decision sequence — lets the wrapper tests control the
/// inner policy's proposals exactly.
class ScriptedPolicy final : public ScalingPolicy {
 public:
  explicit ScriptedPolicy(std::vector<ScalingDecision> script)
      : script_(std::move(script)) {}

  ScalingDecision Decide(const ScalingSignals&) override {
    if (next_ >= script_.size()) {
      return ScalingDecision::Hold("script exhausted");
    }
    return script_[next_++];
  }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<ScalingDecision> script_;
  size_t next_ = 0;
};

// --- Policies --------------------------------------------------------------

TEST(ScalingPolicyTest, NullPolicyNeverActs) {
  elastic::NullPolicy policy;
  EXPECT_EQ(policy.name(), "none");
  for (double rho : {0.1, 1.0, 9.0}) {
    EXPECT_FALSE(policy.Decide(Signals(4, rho)).acts());
  }
}

TEST(ScalingPolicyTest, ClampTargetKHonorsBoundsAndCapacity) {
  EXPECT_EQ(elastic::ClampTargetK(10, 2, 8, 0), 8);   // max_k caps
  EXPECT_EQ(elastic::ClampTargetK(10, 2, 0, 6), 6);   // capacity caps
  EXPECT_EQ(elastic::ClampTargetK(1, 2, 0, 0), 2);    // min_k floors
  EXPECT_EQ(elastic::ClampTargetK(5, 2, 0, 0), 5);    // unbounded
  EXPECT_EQ(elastic::ClampTargetK(10, 2, 8, 6), 6);   // tightest wins
}

TEST(ScalingPolicyTest, WatermarkRhoGaugeScalesOutAndIn) {
  CapacityWatermarkPolicy policy(
      {.high = 1.15, .low = 0.55, .step = 1, .min_k = 2});
  EXPECT_EQ(policy.name(), "watermark");

  ScalingDecision out = policy.Decide(Signals(4, 1.20));
  EXPECT_EQ(out.action, ScalingAction::kScaleOut);
  EXPECT_EQ(out.target_k, 5);
  EXPECT_NE(out.reason.find("rho"), std::string::npos);

  ScalingDecision in = policy.Decide(Signals(4, 0.40));
  EXPECT_EQ(in.action, ScalingAction::kScaleIn);
  EXPECT_EQ(in.target_k, 3);

  EXPECT_FALSE(policy.Decide(Signals(4, 1.00)).acts());  // between marks

  // Capacity caps scale-out into a hold; min_k floors scale-in into one.
  EXPECT_FALSE(policy.Decide(Signals(4, 1.20, 0, /*capacity=*/4)).acts());
  EXPECT_FALSE(policy.Decide(Signals(2, 0.40)).acts());
}

TEST(ScalingPolicyTest, WatermarkUtilizationGaugeSeesAbsoluteGrowth) {
  // ρ is flat at 1.0 in both probes — only the absolute-load gauge can
  // tell the growing graph from the shrinking one.
  CapacityWatermarkPolicy policy({.high = 1.15,
                                  .low = 0.55,
                                  .step = 2,
                                  .min_k = 2,
                                  .machine_capacity = 1000});
  ScalingDecision out = policy.Decide(Signals(4, 1.0, /*max_load=*/1500));
  EXPECT_EQ(out.action, ScalingAction::kScaleOut);
  EXPECT_EQ(out.target_k, 6);
  EXPECT_NE(out.reason.find("utilization"), std::string::npos);

  ScalingDecision in = policy.Decide(Signals(4, 1.0, /*max_load=*/400));
  EXPECT_EQ(in.action, ScalingAction::kScaleIn);
  EXPECT_EQ(in.target_k, 2);

  EXPECT_FALSE(policy.Decide(Signals(4, 1.0, /*max_load=*/900)).acts());
}

TEST(ScalingPolicyTest, CutPolicyTriggersOnPhiDropWithinWindow) {
  CutDegradationPolicy policy({.budget = 0.05, .window = 3, .step = 1,
                               .min_k = 2});
  EXPECT_EQ(policy.name(), "cut");
  auto with_phi = [](int k, double phi) {
    ScalingSignals s = Signals(k, 1.0);
    s.phi = phi;
    return s;
  };

  EXPECT_FALSE(policy.Decide(with_phi(4, 0.80)).acts());
  EXPECT_FALSE(policy.Decide(with_phi(4, 0.78)).acts());  // drop 0.02
  ScalingDecision out = policy.Decide(with_phi(4, 0.70));  // drop 0.10
  EXPECT_EQ(out.action, ScalingAction::kScaleOut);
  EXPECT_EQ(out.target_k, 5);

  // Triggering cleared the window: the same low φ is now the baseline.
  EXPECT_FALSE(policy.Decide(with_phi(4, 0.70)).acts());
}

TEST(ScalingPolicyTest, CutPolicyResetsItsWindowWhenKChanges) {
  CutDegradationPolicy policy({.budget = 0.05, .window = 4, .step = 1,
                               .min_k = 2});
  auto with_phi = [](int k, double phi) {
    ScalingSignals s = Signals(k, 1.0);
    s.phi = phi;
    return s;
  };
  EXPECT_FALSE(policy.Decide(with_phi(4, 0.90)).acts());
  // k moved (someone rescaled): the 0.90 sample belongs to the old
  // regime; a φ of 0.60 at the new k must not read as a 0.30 drop.
  EXPECT_FALSE(policy.Decide(with_phi(5, 0.60)).acts());
}

TEST(ScalingPolicyTest, HysteresisRequiresConsecutiveIdenticalProposals) {
  auto out5 = ScalingDecision::ScaleOut(5, "probe");
  auto in3 = ScalingDecision::ScaleIn(3, "probe");
  auto hold = ScalingDecision::Hold("probe");
  HysteresisPolicy policy(
      std::make_unique<ScriptedPolicy>(std::vector<ScalingDecision>{
          out5, out5,        // streak completes -> acts
          in3, out5, out5,   // direction change resets the streak
          out5, hold, out5,  // a hold resets it too
      }),
      /*consecutive=*/2);
  EXPECT_EQ(policy.name(), "scripted+hysteresis");

  const ScalingSignals s = Signals(4, 1.0);
  EXPECT_FALSE(policy.Decide(s).acts());               // out streak 1/2
  EXPECT_EQ(policy.Decide(s).action, ScalingAction::kScaleOut);
  EXPECT_FALSE(policy.Decide(s).acts());               // in streak 1/2
  EXPECT_FALSE(policy.Decide(s).acts());               // out streak 1/2
  EXPECT_EQ(policy.Decide(s).action, ScalingAction::kScaleOut);
  EXPECT_FALSE(policy.Decide(s).acts());               // out streak 1/2
  EXPECT_FALSE(policy.Decide(s).acts());               // hold: reset
  ScalingDecision suppressed = policy.Decide(s);       // out streak 1/2
  EXPECT_FALSE(suppressed.acts());
  EXPECT_NE(suppressed.reason.find("hysteresis"), std::string::npos);
}

TEST(ScalingPolicyTest, CooldownSuppressesActionsByControllerClockTime) {
  auto out5 = ScalingDecision::ScaleOut(5, "probe");
  CooldownPolicy policy(
      std::make_unique<ScriptedPolicy>(
          std::vector<ScalingDecision>(4, out5)),
      /*cooldown_micros=*/2'000'000);
  EXPECT_EQ(policy.name(), "scripted+cooldown");

  EXPECT_TRUE(policy.Decide(Signals(4, 1.0, 0, 0, 1'000'000)).acts());
  ScalingDecision cooled = policy.Decide(Signals(4, 1.0, 0, 0, 2'000'000));
  EXPECT_FALSE(cooled.acts());
  EXPECT_NE(cooled.reason.find("cooldown"), std::string::npos);
  // Exactly at the cooldown boundary the window has elapsed.
  EXPECT_TRUE(policy.Decide(Signals(4, 1.0, 0, 0, 3'000'000)).acts());
}

// --- The spec grammar ------------------------------------------------------

TEST(PolicySpecTest, ParsesEveryPolicyAndTheWrapperKeys) {
  auto none = MakePolicy("none");
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ((*none)->name(), "none");

  auto watermark = MakePolicy(
      "watermark:high=1.2,low=0.5,step=2,min-k=3,max-k=16,"
      "machine-capacity=5000");
  ASSERT_TRUE(watermark.ok()) << watermark.status();
  EXPECT_EQ((*watermark)->name(), "watermark");

  auto cut = MakePolicy("cut:budget=0.02,window=4");
  ASSERT_TRUE(cut.ok()) << cut.status();
  EXPECT_EQ((*cut)->name(), "cut");

  // Wrappers compose hysteresis-inside, cooldown-outside — visible in
  // the name chain.
  auto wrapped = MakePolicy("watermark:hysteresis=2,cooldown-ms=500");
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();
  EXPECT_EQ((*wrapped)->name(), "watermark+hysteresis+cooldown");

  // Whitespace is tolerated around names, keys and values.
  EXPECT_TRUE(MakePolicy("  cut : budget = 0.1 , window = 2 ").ok());
}

TEST(PolicySpecTest, RejectsEveryMalformedSpec) {
  const char* bad[] = {
      "",                          // empty
      "autoscale",                 // unknown policy
      "watermark:hgih=1.2",        // typo'd key must not become a default
      "none:high=1.2",             // none takes no keys
      "watermark:high",            // not key=value
      "watermark:high=fast",       // not a number
      "watermark:high=1.2,high=1.3",  // duplicate key
      "watermark:high=0.5,low=0.9",   // needs low < high
      "watermark:step=0",          // step >= 1
      "watermark:max-k=-1",        // 0 = unbounded, negatives rejected
      "cut:budget=0",              // budget > 0
      "cut:window=0",              // window >= 1
      "watermark:hysteresis=-2",   // wrapper keys >= 0
  };
  for (const char* spec : bad) {
    auto policy = MakePolicy(spec);
    EXPECT_FALSE(policy.ok()) << "spec '" << spec << "' parsed";
    EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

// --- Load traces -----------------------------------------------------------

TEST(LoadTraceTest, TextFormatRoundTrips) {
  sim::LoadTrace trace;
  trace.initial_capacity = 3;
  sim::TraceBurst first;
  first.at_micros = 1'000'000;
  first.events.push_back(stream::EdgeEvent::AddEdge(1, 2));
  first.events.push_back(stream::EdgeEvent::AddVertices(16));
  sim::TraceBurst second;
  second.at_micros = 2'500'000;
  second.capacity = 9;
  second.events.push_back(stream::EdgeEvent::RemoveEdge(1, 2));
  trace.bursts = {first, second};

  const std::string text = sim::FormatLoadTrace(trace);
  auto parsed = sim::ParseLoadTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->initial_capacity, 3);
  ASSERT_EQ(parsed->bursts.size(), 2u);
  EXPECT_EQ(parsed->bursts[0].at_micros, 1'000'000);
  EXPECT_EQ(parsed->bursts[1].capacity, 9);
  EXPECT_EQ(parsed->num_events(), 3);
  // Fixed point: formatting the parse reproduces the text.
  EXPECT_EQ(sim::FormatLoadTrace(*parsed), text);
}

TEST(LoadTraceTest, ParserIsStrict) {
  EXPECT_FALSE(sim::ParseLoadTrace("add 1 2\n").ok());  // outside a burst
  EXPECT_FALSE(
      sim::ParseLoadTrace("burst 5\nburst 3\n").ok());  // time reversed
  EXPECT_FALSE(sim::ParseLoadTrace("burst 1\nfrob 1 2\n").ok());
  EXPECT_FALSE(sim::ParseLoadTrace("burst banana\n").ok());
  EXPECT_FALSE(sim::ParseLoadTrace("burst 1\nadd 1\n").ok());
  // Comments and blank lines are fine.
  auto ok = sim::ParseLoadTrace("# a comment\n\nburst 1\nadd 1 2\n");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->num_events(), 1);
}

TEST(LoadTraceTest, SyntheticGeneratorIsDeterministic) {
  sim::SyntheticTraceOptions options;
  options.num_vertices = 200;
  options.num_bursts = 3;
  options.events_per_burst = 50;
  options.vertices_per_burst = 20;
  options.remove_fraction = 0.2;
  options.hotspot_fraction = 0.3;
  options.seed = 7;
  options.initial_capacity = 5;
  options.capacity_change_burst = 1;
  options.changed_capacity = 9;

  const sim::LoadTrace a = sim::SyntheticLoadTrace(options);
  const sim::LoadTrace b = sim::SyntheticLoadTrace(options);
  EXPECT_EQ(sim::FormatLoadTrace(a), sim::FormatLoadTrace(b));
  ASSERT_EQ(a.bursts.size(), 3u);
  EXPECT_EQ(a.initial_capacity, 5);
  EXPECT_EQ(a.bursts[1].capacity, 9);
  // Removals only ever target previously-added edges, so the trace is
  // replayable against any base graph: check it parses its own format
  // and replays below (the lab tests) without InvalidArgument.
  EXPECT_GT(a.num_events(), 0);
}

// --- Controller ------------------------------------------------------------

SpinnerConfig LabConfig(int k = 4) {
  SpinnerConfig config;
  config.num_partitions = k;
  config.seed = 5;
  config.max_iterations = 8;
  config.use_halting = false;
  return config;
}

GeneratedGraph LabWorld(uint64_t seed = 9) {
  auto ws = WattsStrogatz(400, 3, 0.3, seed);
  SPINNER_CHECK(ws.ok());
  return std::move(ws).value();
}

TEST(ElasticControllerTest, ExecutesDecisionsAndKeepsADeterministicLog) {
  const GeneratedGraph g = LabWorld();
  PartitioningSession session(LabConfig(4));
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  auto clock = std::make_shared<stream::ManualClock>(42);
  auto policy = MakePolicy("watermark:high=1.0,low=0.1,machine-capacity=1");
  ASSERT_TRUE(policy.ok()) << policy.status();
  ElasticController controller(&session, std::move(*policy),
                               {.clock = clock});

  ScalingSignals signals = Signals(session.num_partitions(), 1.0,
                                   /*max_load=*/100);
  const elastic::DecisionRecord& record =
      controller.EvaluateSignals(signals);
  EXPECT_EQ(record.action, ScalingAction::kScaleOut);
  EXPECT_TRUE(record.executed);
  EXPECT_EQ(record.at_micros, 42);
  EXPECT_EQ(record.from_k, 4);
  EXPECT_EQ(record.target_k, 5);
  EXPECT_EQ(session.num_partitions(), 5);
  EXPECT_EQ(controller.rescales_executed(), 1);
  EXPECT_TRUE(controller.status().ok());

  // Evaluate() builds the signals itself from session->Metrics().
  clock->SetMicros(43);
  ASSERT_TRUE(controller.Evaluate().ok());
  EXPECT_EQ(session.num_partitions(), 6);

  const std::string log = controller.FormatLog();
  EXPECT_NE(log.find("[1 @42us] k=4 scale-out -> k=5 executed"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("[2 @43us]"), std::string::npos) << log;
}

TEST(ElasticControllerTest, RefusesAWeightedSession) {
  const GeneratedGraph g = LabWorld();
  SpinnerConfig config = LabConfig(4);
  config.partition_weights = {1, 1, 2, 2};
  PartitioningSession session(config);
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  auto policy = MakePolicy("watermark:high=1.0,low=0.1,machine-capacity=1");
  ASSERT_TRUE(policy.ok());
  ElasticController controller(
      &session, std::move(*policy),
      {.clock = std::make_shared<stream::ManualClock>(0)});

  const elastic::DecisionRecord& record = controller.EvaluateSignals(
      Signals(session.num_partitions(), 1.0, /*max_load=*/100));
  EXPECT_EQ(record.action, ScalingAction::kScaleOut);
  EXPECT_FALSE(record.executed);
  EXPECT_EQ(controller.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(controller.status().message().find("partition_weights"),
            std::string::npos)
      << controller.status();
  EXPECT_EQ(controller.rescales_executed(), 0);
  EXPECT_EQ(session.num_partitions(), 4);
}

TEST(ElasticControllerTest, RefusesASessionWeightedAfterConstruction) {
  const GeneratedGraph g = LabWorld();
  PartitioningSession session(LabConfig(4));
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());

  auto policy = MakePolicy("watermark:high=1.0,low=0.1,machine-capacity=1");
  ASSERT_TRUE(policy.ok());
  ElasticController controller(
      &session, std::move(*policy),
      {.clock = std::make_shared<stream::ManualClock>(0)});
  EXPECT_TRUE(controller.status().ok()) << controller.status();

  // The session becomes weighted behind the controller's back.
  ASSERT_TRUE(session.Rescale(4, {1, 1, 2, 2}).ok());

  const elastic::DecisionRecord& record = controller.EvaluateSignals(
      Signals(session.num_partitions(), 1.0, /*max_load=*/100));
  EXPECT_EQ(record.action, ScalingAction::kScaleOut);
  EXPECT_FALSE(record.executed);
  EXPECT_EQ(controller.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(controller.rescales_executed(), 0);
  EXPECT_EQ(session.num_partitions(), 4);
}

TEST(ElasticControllerTest, DryRunModeLogsButNeverTouchesTheSession) {
  const GeneratedGraph g = LabWorld();
  PartitioningSession session(LabConfig(4));
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  const std::vector<PartitionId> before = session.assignment();

  auto policy = MakePolicy("watermark:high=1.0,low=0.1,machine-capacity=1");
  ASSERT_TRUE(policy.ok());
  ElasticController controller(
      &session, std::move(*policy),
      {.clock = std::make_shared<stream::ManualClock>(0),
       .execute = false});
  const elastic::DecisionRecord& record = controller.EvaluateSignals(
      Signals(session.num_partitions(), 1.0, /*max_load=*/100));
  EXPECT_TRUE(record.action == ScalingAction::kScaleOut);
  EXPECT_FALSE(record.executed);
  EXPECT_EQ(record.outcome, "dry-run");
  EXPECT_EQ(controller.rescales_executed(), 0);
  EXPECT_EQ(session.num_partitions(), 4);
  EXPECT_EQ(session.assignment(), before);
}

TEST(ElasticControllerTest, ResizeWorkersIsAnOffThreadModeVerb) {
  const GeneratedGraph g = LabWorld();
  PartitioningSession session(LabConfig(4));
  ASSERT_TRUE(session.Open(g.num_vertices, g.edges, g.directed).ok());
  // In-process has no worker fleet to resize.
  Status in_process = session.ResizeWorkers(2);
  EXPECT_EQ(in_process.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.ResizeWorkers(0).code(), StatusCode::kInvalidArgument);
}

// --- The policy lab --------------------------------------------------------

sim::LoadTrace LabTrace() {
  sim::SyntheticTraceOptions options;
  options.num_vertices = 400;
  options.num_bursts = 4;
  options.events_per_burst = 120;
  options.vertices_per_burst = 60;
  options.remove_fraction = 0.05;
  options.hotspot_fraction = 0.3;
  options.seed = 5;
  options.initial_capacity = 10;
  return sim::SyntheticLoadTrace(options);
}

TEST(PolicyLabTest, PolicyNoneReproducesAControllerFreeRunByteForByte) {
  const GeneratedGraph g = LabWorld();
  const sim::LoadTrace trace = LabTrace();

  // Today's behavior: the ingestion service with no controller at all,
  // driven on the identical clock/burst/drain schedule the lab uses.
  PartitioningSession baseline(LabConfig());
  ASSERT_TRUE(baseline.Open(g.num_vertices, g.edges, g.directed).ok());
  std::vector<double> phis;
  std::vector<double> rhos;
  auto clock = std::make_shared<stream::ManualClock>(0);
  stream::IngestionOptions ingest;
  ingest.clock = clock;
  ingest.policy = std::make_unique<stream::EventCountPolicy>(100);
  ingest.on_apply = [&](const stream::IngestStats& stats) {
    phis.push_back(stats.last_phi);
    rhos.push_back(stats.last_rho);
    return true;
  };
  stream::IngestionService service(&baseline, std::move(ingest));
  ASSERT_TRUE(service.Start().ok());
  for (const sim::TraceBurst& burst : trace.bursts) {
    clock->SetMicros(burst.at_micros);
    for (const stream::EdgeEvent& event : burst.events) {
      ASSERT_TRUE(service.Submit(event).ok());
    }
    ASSERT_TRUE(service.Drain().ok());
  }
  ASSERT_TRUE(service.Stop().ok());

  PartitioningSession replayed(LabConfig());
  ASSERT_TRUE(replayed.Open(g.num_vertices, g.edges, g.directed).ok());
  sim::ReplayOptions options;
  options.policy_spec = "none";
  options.events_per_window = 100;
  auto replay = sim::ReplayTrace(&replayed, trace, options);
  ASSERT_TRUE(replay.ok()) << replay.status();

  EXPECT_EQ(replay->rescales, 0);
  EXPECT_EQ(replay->final_k, 4);
  EXPECT_EQ(replay->evaluations,
            static_cast<int>(replay->phi_history.size()));
  // Byte-for-byte: same assignment, same float quality trajectory.
  EXPECT_EQ(replay->final_assignment, baseline.assignment());
  EXPECT_EQ(replay->phi_history, phis);
  EXPECT_EQ(replay->rho_history, rhos);
}

TEST(PolicyLabTest, StreamingAndBlockingReplayBitIdenticalAcrossShapes) {
  const GeneratedGraph g = LabWorld();
  const sim::LoadTrace trace = LabTrace();

  // Calibrate the watermark off a probe of the steady state so the
  // policy genuinely rescales mid-stream.
  int64_t steady_max_load = 0;
  {
    PartitioningSession probe(LabConfig());
    ASSERT_TRUE(probe.Open(g.num_vertices, g.edges, g.directed).ok());
    for (int64_t load : probe.last_result().metrics.loads) {
      steady_max_load = std::max(steady_max_load, load);
    }
  }
  sim::ReplayOptions options;
  options.policy_spec = StrFormat(
      "watermark:high=1.05,low=0.2,machine-capacity=%lld",
      static_cast<long long>(steady_max_load));
  options.events_per_window = 100;

  // Reference: the streaming replay at the default shape.
  PartitioningSession reference_session(LabConfig());
  ASSERT_TRUE(
      reference_session.Open(g.num_vertices, g.edges, g.directed).ok());
  auto reference = sim::ReplayTrace(&reference_session, trace, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_GE(reference->rescales, 1)
      << "watermark never fired; the test is vacuous\n"
      << reference->decision_log;

  for (const int num_shards : {1, 2, 7}) {
    for (const int num_threads : {1, 4}) {
      for (const bool streaming : {true, false}) {
        SessionOptions session_options;
        session_options.execution.num_shards = num_shards;
        session_options.execution.num_threads = num_threads;
        PartitioningSession session(LabConfig(), session_options);
        ASSERT_TRUE(
            session.Open(g.num_vertices, g.edges, g.directed).ok());
        sim::ReplayOptions shaped = options;
        shaped.streaming = streaming;
        auto replay = sim::ReplayTrace(&session, trace, shaped);
        const std::string shape =
            StrFormat("S=%d T=%d %s", num_shards, num_threads,
                      streaming ? "streaming" : "blocking");
        ASSERT_TRUE(replay.ok()) << shape << ": " << replay.status();
        EXPECT_EQ(replay->decision_log, reference->decision_log) << shape;
        EXPECT_EQ(replay->final_k, reference->final_k) << shape;
        EXPECT_EQ(replay->rescales, reference->rescales) << shape;
        EXPECT_EQ(replay->moved_vertices, reference->moved_vertices)
            << shape;
        EXPECT_EQ(replay->final_assignment, reference->final_assignment)
            << shape;
        EXPECT_EQ(replay->phi_history, reference->phi_history) << shape;
        EXPECT_EQ(replay->rho_history, reference->rho_history) << shape;
      }
    }
  }
}

}  // namespace
}  // namespace spinner
