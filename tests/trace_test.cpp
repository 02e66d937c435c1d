// Tests for the execution-tracing subsystem (src/trace): non-perturbation of
// the simulation, deterministic Chrome export, stall attribution (including
// the paper's Two-Phase vs Writing-First busy-wait contrast), the solve-
// progress timeline on single- and multi-launch algorithms, and the kernel
// annotation metadata.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "gen/banded.h"
#include "gen/level_structured.h"
#include "gen/random_lower.h"
#include "kernels/common.h"
#include "kernels/launch.h"
#include "matrix/triangular.h"
#include "sim/config.h"
#include "support/json.h"
#include "trace/attribution.h"
#include "trace/chrome_trace.h"
#include "trace/session.h"
#include "trace/sink.h"
#include "trace/timeline.h"

namespace capellini {
namespace {

using kernels::DeviceAlgorithm;
using kernels::SolveOnDevice;
using kernels::SolveOptions;

Csr InterleavedLevelMatrix() {
  // Interleaved level structure: consecutive rows belong to different levels,
  // so threads of one warp depend on each other — the stress case for
  // Two-Phase's intra-warp passes.
  return MakeLevelStructured({.num_levels = 6, .components_per_level = 80,
                              .avg_nnz_per_row = 2.6, .size_jitter = 0.3,
                              .interleave = true, .seed = 5});
}

Csr RandomMatrix(Idx rows = 1200) {
  return MakeRandomLower({.rows = rows, .avg_strict_nnz_per_row = 3.0,
                          .window = 0, .empty_row_fraction = 0.2, .seed = 4});
}

TEST(TraceNullSink, TracingDoesNotPerturbTheSimulation) {
  const Csr lower = RandomMatrix();
  const ReferenceProblem problem = MakeReferenceProblem(lower, 99);

  auto plain = SolveOnDevice(DeviceAlgorithm::kCapelliniWritingFirst, lower,
                             problem.b, sim::TinyTestDevice());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  trace::TraceSession session;
  SolveOptions options;
  options.trace_sink = session.sink();
  auto traced = SolveOnDevice(DeviceAlgorithm::kCapelliniWritingFirst, lower,
                              problem.b, sim::TinyTestDevice(), options);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  // Sinks observe; they must not change timing, counters, or the solution.
  EXPECT_EQ(plain->stats.cycles, traced->stats.cycles);
  EXPECT_EQ(plain->stats.instructions, traced->stats.instructions);
  EXPECT_EQ(plain->stats.dram_transactions, traced->stats.dram_transactions);
  EXPECT_EQ(plain->stats.stall_slots, traced->stats.stall_slots);
  EXPECT_EQ(plain->x, traced->x);
}

TEST(TraceChrome, ByteIdenticalAcrossRuns) {
  const Csr lower = RandomMatrix(600);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 7);

  std::string json[2];
  for (std::string& out : json) {
    trace::TraceSession session;
    SolveOptions options;
    options.trace_sink = session.sink();
    auto result = SolveOnDevice(DeviceAlgorithm::kCapelliniTwoPhase, lower,
                                problem.b, sim::TinyTestDevice(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    out = session.chrome().ToJson();
  }
  EXPECT_FALSE(json[0].empty());
  EXPECT_NE(json[0].find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json[0].find("\"cat\":\"warp\""), std::string::npos);
  EXPECT_EQ(json[0], json[1]) << "identical solves must serialize identically";
}

TEST(TraceChrome, CapKeepsTheFirstEventsAndCountsTheRest) {
  const Csr lower = RandomMatrix(600);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 7);
  trace::ChromeTraceSink full;
  trace::ChromeTraceSink::Options cap;
  cap.max_events = 50;
  trace::ChromeTraceSink capped(cap);
  trace::MultiSink both({&full, &capped});
  SolveOptions options;
  options.trace_sink = &both;
  auto result = SolveOnDevice(DeviceAlgorithm::kCapelliniWritingFirst, lower,
                              problem.b, sim::TinyTestDevice(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(full.event_count(), 50u);
  EXPECT_EQ(capped.event_count(), 50u);
  EXPECT_EQ(capped.dropped_events(), full.event_count() - 50);

  auto all = ParseJson(full.ToJson());
  auto kept = ParseJson(capped.ToJson());
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  const auto& all_events = all->Find("traceEvents")->items;
  const auto& kept_events = kept->Find("traceEvents")->items;
  // The same per-SM metadata records lead both files.
  const std::size_t metadata = all_events.size() - full.event_count();
  ASSERT_EQ(kept_events.size(), metadata + 50);
  for (std::size_t i = metadata; i < kept_events.size(); ++i) {
    ASSERT_NE(kept_events[i].Find("ts"), nullptr);
    EXPECT_EQ(kept_events[i].Find("name")->text,
              all_events[i].Find("name")->text);
    EXPECT_EQ(kept_events[i].Find("ts")->text, all_events[i].Find("ts")->text);
  }
  std::uint64_t dropped = 0;
  ASSERT_TRUE(kept->Find("otherData")->Find("dropped_events")->Get(dropped));
  EXPECT_EQ(dropped, capped.dropped_events());
}

TEST(TraceAttribution, TwoPhaseBusyWaitsMoreThanWritingFirst) {
  const Csr lower = InterleavedLevelMatrix();
  const ReferenceProblem problem = MakeReferenceProblem(lower, 13);

  trace::StallBuckets totals[2];
  const DeviceAlgorithm algorithms[2] = {
      DeviceAlgorithm::kCapelliniTwoPhase,
      DeviceAlgorithm::kCapelliniWritingFirst};
  for (int i = 0; i < 2; ++i) {
    trace::StallAttribution attribution;
    SolveOptions options;
    options.trace_sink = &attribution;
    auto result = SolveOnDevice(algorithms[i], lower, problem.b,
                                sim::TinyTestDevice(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    totals[i] = attribution.Totals();
  }

  // §5.3's argument, measured: on an interleaved level structure the
  // two-phase kernel burns materially more cycles busy-waiting (its phase-1
  // spins and failed phase-2 passes) than Writing-First, whose re-polls ride
  // the productive drain loop.
  EXPECT_GT(totals[0].BusyWait(), 3 * totals[1].BusyWait());
  EXPECT_GT(totals[0].spin_iterations, totals[1].spin_iterations);
  // Both ran to completion and did useful work.
  EXPECT_GT(totals[0].useful_issue, 0u);
  EXPECT_GT(totals[1].useful_issue, 0u);
}

TEST(TraceAttribution, BucketsPartitionWarpLifetime) {
  const Csr lower = RandomMatrix(800);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 3);

  trace::StallAttribution attribution;
  SolveOptions options;
  options.trace_sink = &attribution;
  auto result = SolveOnDevice(DeviceAlgorithm::kCapelliniWritingFirst, lower,
                              problem.b, sim::TinyTestDevice(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_FALSE(attribution.records().empty());
  for (const trace::WarpRecord& record : attribution.records()) {
    EXPECT_EQ(record.buckets.Total(),
              record.finish_cycle - record.start_cycle)
        << "buckets must partition the warp's resident lifetime exactly";
  }
  const std::string csv = attribution.ToCsv();
  EXPECT_NE(csv.find("spin_issue"), std::string::npos);
  EXPECT_NE(csv.find("spin_stall"), std::string::npos);
  EXPECT_NE(attribution.SummaryTable().find("busy-wait"), std::string::npos);
}

TEST(TraceTimeline, EveryRowPublishesExactlyOnce) {
  const Csr lower = RandomMatrix();
  const ReferenceProblem problem = MakeReferenceProblem(lower, 21);

  trace::SolveTimeline timeline;  // CSR kernels: get_value flags, slot 6, i32
  SolveOptions options;
  options.trace_sink = &timeline;
  auto result = SolveOnDevice(DeviceAlgorithm::kCapelliniWritingFirst, lower,
                              problem.b, sim::TinyTestDevice(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(timeline.unresolved(), 0u);
  ASSERT_EQ(timeline.records().size(),
            static_cast<std::size_t>(lower.rows()));
  std::set<std::int64_t> rows;
  std::uint64_t last_cycle = 0;
  for (const trace::PublishRecord& record : timeline.records()) {
    EXPECT_TRUE(rows.insert(record.row).second)
        << "row " << record.row << " published twice";
    EXPECT_GE(record.cycle, last_cycle) << "publish order must follow time";
    last_cycle = record.cycle;
  }
  EXPECT_GT(timeline.CycleAtFraction(1.0, lower.rows()),
            timeline.CycleAtFraction(0.5, lower.rows()));
}

TEST(TraceTimeline, LevelSetMultiLaunchKeepsOneGlobalClock) {
  const Csr lower = InterleavedLevelMatrix();
  const ReferenceProblem problem = MakeReferenceProblem(lower, 17);

  // Level-set publishes through the f64 x vector (param slot 5).
  trace::SolveTimeline timeline(5, 8);
  SolveOptions options;
  options.trace_sink = &timeline;
  auto result = SolveOnDevice(DeviceAlgorithm::kLevelSet, lower, problem.b,
                              sim::TinyTestDevice(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(timeline.unresolved(), 0u);
  EXPECT_EQ(timeline.records().size(),
            static_cast<std::size_t>(lower.rows()));
  // One launch per level; the LaunchClock must keep cycles monotone across
  // launch boundaries.
  std::uint64_t last_cycle = 0;
  for (const trace::PublishRecord& record : timeline.records()) {
    EXPECT_GE(record.cycle, last_cycle);
    last_cycle = record.cycle;
  }
}

TEST(TraceAnnotations, KernelsDeclareSpinAndPublishSites) {
  const sim::Kernel spin_kernels[] = {
      kernels::BuildCapelliniTwoPhaseKernel(),
      kernels::BuildCapelliniWritingFirstKernel(),
      kernels::BuildSyncFreeWarpCsrKernel(),
      kernels::BuildSyncFreeCscKernel(),
      kernels::BuildCusparseProxyKernel(),
      kernels::BuildCapelliniNaiveKernel(),
      kernels::BuildHybridKernel(),
  };
  for (const sim::Kernel& kernel : spin_kernels) {
    EXPECT_FALSE(kernel.spin_regions.empty()) << kernel.name;
    EXPECT_FALSE(kernel.publish_pcs.empty()) << kernel.name;
    EXPECT_TRUE(kernel.Validate().ok()) << kernel.name;
  }
  // The two-phase kernel has two distinct wait sites (phase 1 spin, phase 2
  // failed-pass backedge); writing-first has exactly one.
  EXPECT_EQ(spin_kernels[0].spin_regions.size(), 2u);
  EXPECT_EQ(spin_kernels[1].spin_regions.size(), 1u);

  // Non-busy-waiting kernels still declare their publishes.
  for (const sim::Kernel& kernel :
       {kernels::BuildSerialRowKernel(), kernels::BuildLevelSetKernel()}) {
    EXPECT_TRUE(kernel.spin_regions.empty()) << kernel.name;
    EXPECT_FALSE(kernel.publish_pcs.empty()) << kernel.name;
  }
}

TEST(TraceAnnotations, ValidateRejectsMalformedMetadata) {
  sim::Kernel kernel = kernels::BuildCapelliniWritingFirstKernel();
  ASSERT_TRUE(kernel.Validate().ok());

  sim::Kernel bad_spin = kernel;
  bad_spin.spin_regions.push_back(
      {0, static_cast<std::int32_t>(kernel.code.size()) + 5});
  EXPECT_FALSE(bad_spin.Validate().ok());

  sim::Kernel bad_publish = kernel;
  bad_publish.publish_pcs.push_back(0);  // PC 0 is S2R, not a store
  EXPECT_FALSE(bad_publish.Validate().ok());
}

// Minimal sink recording watchdog callbacks.
class DeadlockRecorder : public trace::TraceSink {
 public:
  void OnDeadlock(std::uint64_t cycle, const std::string& dump) override {
    ++deadlocks_;
    last_dump_ = dump;
    last_cycle_ = cycle;
  }
  int deadlocks() const { return deadlocks_; }
  const std::string& last_dump() const { return last_dump_; }
  std::uint64_t last_cycle() const { return last_cycle_; }

 private:
  int deadlocks_ = 0;
  std::string last_dump_;
  std::uint64_t last_cycle_ = 0;
};

TEST(TraceDeadlock, WatchdogEmitsContextDump) {
  // The naive kernel deadlocks on intra-warp chains (Challenge 1); the sink
  // must receive the same diagnostic context the status carries.
  const Csr lower = MakeBidiagonal(300);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 5);

  DeadlockRecorder recorder;
  SolveOptions options;
  options.trace_sink = &recorder;
  auto result = SolveOnDevice(DeviceAlgorithm::kCapelliniNaive, lower,
                              problem.b, sim::TinyTestDevice(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlock);
  EXPECT_EQ(recorder.deadlocks(), 1);
  EXPECT_NE(recorder.last_dump().find("no forward progress"),
            std::string::npos);
  EXPECT_GT(recorder.last_cycle(), 0u);
}

TEST(TraceSessionTest, BundlesAllThreeSinks) {
  const Csr lower = RandomMatrix(400);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 31);

  trace::TraceSession session;
  SolveOptions options;
  options.trace_sink = session.sink();
  auto result = SolveOnDevice(DeviceAlgorithm::kCapelliniWritingFirst, lower,
                              problem.b, sim::TinyTestDevice(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_FALSE(session.attribution().records().empty());
  EXPECT_EQ(session.timeline().records().size(),
            static_cast<std::size_t>(lower.rows()));
  EXPECT_GT(session.chrome().event_count(), 0u);
  EXPECT_FALSE(session.attribution().SummaryTable().empty());
}

TEST(TraceSessionTest, WritersReportAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Csr lower = RandomMatrix(200);
  const ReferenceProblem problem = MakeReferenceProblem(lower, 31);
  trace::TraceSession session;
  SolveOptions options;
  options.trace_sink = session.sink();
  ASSERT_TRUE(SolveOnDevice(DeviceAlgorithm::kCapelliniWritingFirst, lower,
                            problem.b, sim::TinyTestDevice(), options)
                  .ok());
  EXPECT_FALSE(session.WriteChromeTrace("/dev/full").ok());
  EXPECT_FALSE(session.attribution().WriteCsv("/dev/full").ok());
  EXPECT_FALSE(session.timeline().WriteCsv("/dev/full").ok());
}

}  // namespace
}  // namespace capellini
