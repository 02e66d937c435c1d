// Golden schedule test: pins the interpreter's simulated schedule.
//
// Every number this repository reports for a device kernel is a simulated
// count, so the schedule is the contract. For each case the test recomputes
// cycles, instruction and issue-slot counters, DRAM traffic and a bit-exact
// FNV-1a checksum of the result, and compares them with the rows checked in
// at tests/golden_schedule.txt. The rows change only by hand, after review,
// when a change means to move the schedule; on a mismatch the test prints
// the full actual row.
//
// Cases: every device Algorithm on every DeviceConfig preset, over three
// lower factors (a chained band: intra-warp dependencies, spin-heavy; an
// interleaved level structure: divergent; a random factor with empty rows)
// and the reversed band as an upper factor; both multi-RHS kernels at the
// serve coalescing width; the on-device level analysis; a two-device fleet
// solve (boundary values arrive as external stores); the first-pass and
// recovery outcomes of two four-device fleet solves under faults; the issue
// stream under a TraceSink; a seeded fault plan; and the naive kernel's
// watchdog message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.h"
#include "fleet/fleet.h"
#include "fleet_fault_scenarios.h"
#include "gen/banded.h"
#include "gen/level_structured.h"
#include "gen/random_lower.h"
#include "kernels/analyze.h"
#include "kernels/launch.h"
#include "matrix/triangular.h"
#include "sim/config.h"
#include "sim/fault.h"
#include "trace/sink.h"

namespace capellini {
namespace {

/// FNV-1a over the raw bytes of `values`: bit identity, not tolerance.
template <typename T>
std::uint64_t Fnv(const std::vector<T>& values) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(T); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Every counter of a launch plus a checksum of what it computed.
std::string Row(const sim::LaunchStats& s, std::uint64_t checksum) {
  std::ostringstream out;
  out << "cycles=" << s.cycles << " instr=" << s.instructions
      << " lane_instr=" << s.lane_instructions << " issue=" << s.issue_slots
      << " used=" << s.issue_used << " stall=" << s.stall_slots
      << " dram_bytes=" << s.dram_bytes << " dram_txn=" << s.dram_transactions
      << " launches=" << s.launches << " fnv=" << Hex(checksum);
  return out.str();
}

template <typename T>
std::string ErrorRow(const Expected<T>& result) {
  return "error " + result.status().ToString();
}

std::string SolveRow(const Expected<SolveResult>& result) {
  return result.ok() ? Row(result->device_stats, Fnv(result->x))
                     : ErrorRow(result);
}

// Golden rows, "<section> <case> <value...>": the value is the rest of the
// line. Lines starting with '#' are comments.
using Rows = std::map<std::string, std::string>;

const std::map<std::string, Rows>& Golden() {
  static const std::map<std::string, Rows> golden = [] {
    std::map<std::string, Rows> sections;
    std::ifstream in(CAPELLINI_GOLDEN_SCHEDULE);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string section;
      std::string name;
      std::string value;
      fields >> section >> name;
      std::getline(fields >> std::ws, value);
      sections[section][name] = value;
    }
    return sections;
  }();
  return golden;
}

void ExpectGolden(const std::string& section, const Rows& actual) {
  ASSERT_FALSE(Golden().empty()) << "cannot read " << CAPELLINI_GOLDEN_SCHEDULE;
  const auto found = Golden().find(section);
  const Rows expected = found == Golden().end() ? Rows{} : found->second;
  for (const auto& [name, value] : actual) {
    const auto row = expected.find(name);
    EXPECT_TRUE(row != expected.end() && row->second == value)
        << "golden row differs\n  expected: "
        << (row == expected.end() ? "(none)"
                                  : section + ' ' + name + ' ' + row->second)
        << "\n  actual:   " << section << ' ' << name << ' ' << value;
  }
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(actual.count(name), 1u)
        << "golden row not produced: " << section << ' ' << name;
  }
}

std::vector<Val> MakeB(Idx rows) {
  std::vector<Val> b(static_cast<std::size_t>(rows));
  for (Idx i = 0; i < rows; ++i) {
    b[static_cast<std::size_t>(i)] =
        1.0 + 0.25 * static_cast<double>(i % 17) -
        0.125 * static_cast<double>(i % 5);
  }
  return b;
}

const char* const kLowerInputs[] = {"banded_chain", "interleaved", "random"};

Csr LowerInput(const std::string& name) {
  if (name == "banded_chain") {
    return MakeBanded({.rows = 300, .bandwidth = 24, .fill = 0.6,
                       .force_chain = true, .seed = 11});
  }
  if (name == "interleaved") {
    return MakeLevelStructured({.num_levels = 5, .components_per_level = 40,
                                .avg_nnz_per_row = 2.5, .size_jitter = 0.3,
                                .interleave = true, .seed = 12});
  }
  return MakeRandomLower({.rows = 600, .avg_strict_nnz_per_row = 3.0,
                          .window = 0, .empty_row_fraction = 0.1,
                          .seed = 13});
}

struct Preset {
  const char* name;
  sim::DeviceConfig device;
};

std::vector<Preset> Presets() {
  return {{"tiny", sim::TinyTestDevice()},
          {"pascal", sim::PascalGtx1080()},
          {"volta", sim::VoltaV100()},
          {"turing", sim::TuringRtx2080Ti()}};
}

const Algorithm kDeviceAlgorithms[] = {
    Algorithm::kLevelSet,          Algorithm::kSyncFree,
    Algorithm::kSyncFreeCsr,       Algorithm::kCusparse,
    Algorithm::kCapelliniTwoPhase, Algorithm::kCapellini,
    Algorithm::kHybrid,
};

SolverOptions Options(const sim::DeviceConfig& device) {
  SolverOptions options;
  options.device = device;
  options.host_threads = 2;  // deterministic host paths regardless of machine
  return options;
}

std::string CaseName(const Preset& preset, const std::string& input,
                     const std::string& what) {
  return std::string(preset.name) + '/' + input + '/' + what;
}

TEST(GoldenSchedule, EveryAlgorithmOnLowerFactors) {
  Rows actual;
  for (const std::string input : kLowerInputs) {
    const Csr lower = LowerInput(input);
    const std::vector<Val> b = MakeB(lower.rows());
    for (const Preset& preset : Presets()) {
      const Solver solver(lower, Options(preset.device));
      for (const Algorithm algorithm : kDeviceAlgorithms) {
        actual[CaseName(preset, input, AlgorithmName(algorithm))] =
            SolveRow(solver.Solve(algorithm, b));
      }
    }
  }
  ExpectGolden("lower", actual);
}

TEST(GoldenSchedule, EveryAlgorithmOnUpperFactors) {
  const Csr upper = ReverseSystem(LowerInput("banded_chain"));
  const std::vector<Val> b = MakeB(upper.rows());
  Rows actual;
  for (const Preset& preset : Presets()) {
    for (const Algorithm algorithm : kDeviceAlgorithms) {
      actual[CaseName(preset, "banded_chain_upper", AlgorithmName(algorithm))] =
          SolveRow(SolveUpperSystem(upper, b, algorithm,
                                    Options(preset.device)));
    }
  }
  ExpectGolden("upper", actual);
}

TEST(GoldenSchedule, MultiRhsSolves) {
  constexpr int kRhs = 4;  // the serve layer's coalescing width
  Rows actual;
  for (const std::string input : kLowerInputs) {
    const Csr lower = LowerInput(input);
    const std::vector<Val> column = MakeB(lower.rows());
    std::vector<Val> b;  // column-major n x kRhs
    for (int j = 0; j < kRhs; ++j) {
      for (const Val v : column) b.push_back(v + 0.5 * j);
    }
    for (const Preset& preset : Presets()) {
      for (const kernels::MrhsAlgorithm algorithm :
           {kernels::MrhsAlgorithm::kCapelliniMrhs,
            kernels::MrhsAlgorithm::kSyncFreeMrhs}) {
        const auto result = kernels::SolveMrhsOnDevice(algorithm, lower, b,
                                                       kRhs, preset.device);
        actual[CaseName(preset, input, kernels::MrhsAlgorithmName(algorithm))] =
            result.ok() ? Row(result->stats, Fnv(result->x)) : ErrorRow(result);
      }
    }
  }
  ExpectGolden("mrhs", actual);
}

TEST(GoldenSchedule, DeviceAnalysis) {
  Rows actual;
  for (const std::string input : kLowerInputs) {
    const Csr lower = LowerInput(input);
    for (const Preset& preset : Presets()) {
      const auto result = kernels::AnalyzeOnDevice(lower, preset.device);
      actual[CaseName(preset, input, "AnalyzeOnDevice")] =
          result.ok() ? Row(result->stats, Fnv(result->levels.level_of))
                      : ErrorRow(result);
    }
  }
  ExpectGolden("analysis", actual);
}

TEST(GoldenSchedule, FleetSolve) {
  Rows actual;
  for (const std::string input : kLowerInputs) {
    const Csr lower = LowerInput(input);
    const std::vector<Val> b = MakeB(lower.rows());
    for (const Preset& preset : Presets()) {
      fleet::FleetConfig config;
      config.num_devices = 2;
      config.device = preset.device;
      fleet::DeviceFleet devices(config);
      const Solver solver(lower, Options(preset.device));
      const auto result = fleet::FleetSolver(&devices).Solve(solver, b);
      std::string row;
      if (!result.ok() || !result->status.ok()) {
        row = "error " + (result.ok() ? result->status : result.status())
                             .ToString();
      } else {
        const fleet::FleetStats& stats = result->stats;
        row = "makespan=" + std::to_string(stats.makespan_cycles) +
              " messages=" + std::to_string(stats.total_messages) +
              " comm_bytes=" + std::to_string(stats.total_comm_bytes);
        for (std::size_t d = 0; d < stats.devices.size(); ++d) {
          row += " d" + std::to_string(d) +
                 "_cycles=" + std::to_string(stats.devices[d].cycles);
        }
        row += " fnv=" + Hex(Fnv(result->x));
      }
      actual[CaseName(preset, input, "Fleet-K2")] = row;
    }
  }
  ExpectGolden("fleet", actual);
}

/// A fleet solve under faults: per device the first-pass status, cycles,
/// inbound messages, comm delay, last arrival and injected faults (in
/// FaultKind order); the message totals; the failover ledger; the FNV of x.
std::string FleetFaultRow(const Expected<fleet::FleetResult>& result,
                          const std::vector<sim::FaultInjector>& injectors) {
  if (!result.ok()) return ErrorRow(result);
  const fleet::FleetStats& stats = result->stats;
  std::ostringstream out;
  for (std::size_t d = 0; d < stats.devices.size(); ++d) {
    const fleet::DeviceStats& ds = stats.devices[d];
    const sim::FaultCounts counts = injectors[d].counts();
    out << 'd' << d << "=[" << ds.status.ToString() << " cycles=" << ds.cycles
        << " in=" << ds.in_messages << " delay=" << ds.comm_delay_cycles
        << " last=" << ds.last_arrival_cycle << " faults=";
    for (int kind = 0; kind < sim::kNumFaultKinds; ++kind) {
      out << (kind == 0 ? "" : "/")
          << counts.injected[static_cast<std::size_t>(kind)];
    }
    out << "] ";
  }
  out << "messages=" << stats.total_messages
      << " comm_bytes=" << stats.total_comm_bytes << " failovers=[";
  for (const fleet::FailoverRecord& record : stats.failovers) {
    out << " d" << record.device << " upstream=" << record.upstream_induced
        << " attempts=";
    for (std::size_t i = 0; i < record.attempts.size(); ++i) {
      out << (i == 0 ? "" : ",") << record.attempts[i];
    }
    out << " recovered_on=" << record.recovered_on
        << " verified=" << record.verified << ';';
  }
  out << " ] fnv=" << Hex(Fnv(result->x));
  return out.str();
}

TEST(GoldenSchedule, FleetFaults) {
  // Both scenarios with recovery off and on, once with a host thread per
  // device and once with one thread: the rows must not depend on it.
  for (const int host_threads : {0, 1}) {
    Rows actual;
    for (const FleetFaultScenario& scenario : FleetFaultScenarios()) {
      for (const bool recovery : {false, true}) {
        std::vector<sim::FaultInjector> injectors;
        const auto result =
            RunFleetFaultScenario(scenario, host_threads, recovery, injectors);
        actual[std::string("tiny/") + scenario.name +
               (recovery ? "/Fleet-K4-recovery" : "/Fleet-K4")] =
            FleetFaultRow(result, injectors);
      }
    }
    ExpectGolden("fleet_faults", actual);
  }
}

/// Order-sensitive digest of the (cycle, pc) issue stream: a per-PC
/// histogram alone would accept a reordered schedule.
class IssueDigestSink : public trace::TraceSink {
 public:
  void OnIssue(const trace::IssueInfo& info) override {
    digest_ = digest_ * 1099511628211ull ^
              (static_cast<std::uint64_t>(info.cycle) * 131 +
               static_cast<std::uint64_t>(info.pc));
    ++issues_;
  }
  std::string Summary() const {
    return "issues=" + std::to_string(issues_) + " digest=" + Hex(digest_);
  }

 private:
  std::uint64_t issues_ = 0;
  std::uint64_t digest_ = 1469598103934665603ull;
};

TEST(GoldenSchedule, TraceSinkIssueDigest) {
  const Preset tiny = Presets().front();
  const Csr lower = LowerInput("banded_chain");
  const std::vector<Val> b = MakeB(lower.rows());
  Rows actual;
  for (const Algorithm algorithm :
       {Algorithm::kCapellini, Algorithm::kLevelSet,
        Algorithm::kCapelliniTwoPhase}) {
    IssueDigestSink sink;
    SolverOptions options = Options(tiny.device);
    options.kernel_options.trace_sink = &sink;
    const std::string traced =
        SolveRow(Solver(lower, options).Solve(algorithm, b));
    const std::string bare =
        SolveRow(Solver(lower, Options(tiny.device)).Solve(algorithm, b));
    EXPECT_EQ(traced, bare) << "an attached sink must not perturb the schedule";
    actual[CaseName(tiny, "banded_chain", AlgorithmName(algorithm))] =
        traced + ' ' + sink.Summary();
  }
  ExpectGolden("trace", actual);
}

TEST(GoldenSchedule, SeededFaultPlan) {
  // Timing-only and value-corrupting kinds together: the checksum pins which
  // stores were flipped, the cycles which warps were parked, and the
  // per-kind counts the injector's PRNG streams.
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.bitflip_store_rate = 0.01;
  plan.stuck_warp_rate = 0.002;
  plan.mem_delay_rate = 0.01;
  plan.stuck_cycles = 40;
  plan.mem_delay_cycles = 25;

  const Preset tiny = Presets().front();
  const Csr lower = LowerInput("banded_chain");
  const std::vector<Val> b = MakeB(lower.rows());
  Rows actual;
  for (const Algorithm algorithm :
       {Algorithm::kCapellini, Algorithm::kSyncFreeCsr}) {
    sim::FaultInjector injector(plan);
    SolverOptions options = Options(tiny.device);
    options.kernel_options.fault_injector = &injector;
    std::string row = SolveRow(Solver(lower, options).Solve(algorithm, b));
    const sim::FaultCounts counts = injector.counts();
    EXPECT_GT(counts.total(), 0u) << "plan rates too low to bite";
    for (int kind = 0; kind < sim::kNumFaultKinds; ++kind) {
      row += std::string(" ") +
             sim::FaultKindName(static_cast<sim::FaultKind>(kind)) + '=' +
             std::to_string(counts.injected[static_cast<std::size_t>(kind)]);
    }
    actual[CaseName(tiny, "banded_chain", AlgorithmName(algorithm))] = row;
  }
  ExpectGolden("faults", actual);
}

TEST(GoldenSchedule, NaiveDeadlockMessage) {
  // The watchdog message carries the trip cycle and the PC histogram of the
  // surviving warps.
  const Preset tiny = Presets().front();
  const Csr chain = MakeBidiagonal(96);
  SolverOptions options = Options(tiny.device);
  options.device.no_progress_cycles = 30'000;
  const auto result =
      Solver(chain, options).Solve(Algorithm::kCapelliniNaive, MakeB(96));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlock);
  ExpectGolden("deadlock",
               {{CaseName(tiny, "bidiagonal96", "Capellini-Naive"),
                 result.status().message()}});
}

}  // namespace
}  // namespace capellini
