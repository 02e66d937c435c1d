// Property test: serve's per-handle circuit breaker and the fleet's
// per-device health tracker run one state machine. A random outcome
// sequence is served through a SolveService and replayed into a
// DeviceHealthTracker with equal settings; every step's deflect decision and
// the final lifecycle counters must agree. A failure is a kCapelliniNaive
// request on a chain matrix under a tight watchdog (§3.3 Challenge 1), a
// success a kCapellini request on the same matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/solver.h"
#include "fleet/health.h"
#include "gen/banded.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "support/rng.h"

namespace capellini {
namespace {

struct TripMode {
  const char* name;
  int threshold;
  int window;
};

// Names the parameter in test output (the default would print raw bytes).
void PrintTo(const TripMode& mode, std::ostream* os) { *os << mode.name; }

constexpr TripMode kThresholdOnly{"threshold", 2, 0};
constexpr TripMode kWindowOnly{"window", 0, 4};
constexpr TripMode kBoth{"both", 3, 4};

constexpr double kRate = 0.5;
constexpr int kCooldown = 2;
constexpr int kSteps = 24;

SolverOptions WatchdogOptions() {
  SolverOptions options;
  options.device = sim::TinyTestDevice();
  options.device.no_progress_cycles = 30'000;
  return options;
}

class BreakerAgreementTest
    : public testing::TestWithParam<std::tuple<std::uint64_t, TripMode>> {};

TEST_P(BreakerAgreementTest, ServeAndFleetTakeIdenticalTransitions) {
  const auto [seed, mode] = GetParam();
  Rng rng(seed);
  std::vector<bool> failures(kSteps);
  for (std::size_t i = 0; i < failures.size(); ++i) {
    failures[i] = rng.NextBounded(2) == 0;
  }

  serve::MatrixRegistry registry;
  auto handle =
      registry.Register(MakeBidiagonal(64), "chain", WatchdogOptions());
  ASSERT_TRUE(handle.ok());
  serve::ServiceOptions options = serve::SolveService::DeterministicOptions();
  options.start_paused = true;
  options.breaker_threshold = mode.threshold;
  options.breaker_window = mode.window;
  options.breaker_rate = kRate;
  options.breaker_cooldown = kCooldown;
  serve::SolveService service(&registry, options);

  const std::vector<Val> b(64, 1.0);
  serve::RequestOptions naive;
  naive.algorithm = Algorithm::kCapelliniNaive;
  serve::RequestOptions good;
  good.algorithm = Algorithm::kCapellini;
  std::vector<std::future<serve::ServeResult>> futures;
  for (const bool failure : failures) {
    auto submitted = service.Submit(*handle, b, failure ? naive : good);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  service.Start();

  // Serve probes always report, so the tracker runs without a timeout too.
  fleet::HealthOptions health;
  health.threshold = mode.threshold;
  health.window = mode.window;
  health.rate = kRate;
  health.probe_cooldown = kCooldown;
  health.probe_timeout = 0;
  fleet::DeviceHealthTracker tracker(1, health);

  for (int i = 0; i < kSteps; ++i) {
    const bool failure = failures[static_cast<std::size_t>(i)];
    const StatusCode code =
        futures[static_cast<std::size_t>(i)].get().status.code();
    const bool serve_deflected = code == StatusCode::kResourceExhausted;
    const bool fleet_deflected =
        tracker.AdmitFor(0) == fleet::DeviceHealthTracker::Admit::kDeflect;
    ASSERT_EQ(serve_deflected, fleet_deflected) << "step " << i;
    if (fleet_deflected) continue;
    tracker.Report(0, failure);
    EXPECT_EQ(code, failure ? StatusCode::kDeadlock : StatusCode::kOk)
        << "step " << i;
  }
  service.Shutdown();

  const serve::ServiceStats::Totals totals = service.stats().totals();
  const fleet::HealthSnapshot snapshot = tracker.snapshot();
  EXPECT_EQ(totals.breaker_opens, snapshot.quarantines);
  EXPECT_EQ(totals.breaker_probes, snapshot.probes);
  EXPECT_EQ(totals.breaker_probe_failures, snapshot.probe_failures);
  EXPECT_EQ(totals.breaker_short_circuits, snapshot.deflections);
  // The sequence must exercise the machine, not just the closed state.
  EXPECT_GT(snapshot.quarantines, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesModes, BreakerAgreementTest,
    testing::Combine(testing::Values<std::uint64_t>(1, 2, 3),
                     testing::Values(kThresholdOnly, kWindowOnly, kBoth)),
    [](const testing::TestParamInfo<BreakerAgreementTest::ParamType>& info) {
      std::string name = std::get<1>(info.param).name;
      return name.append("_seed").append(
          std::to_string(std::get<0>(info.param)));
    });

}  // namespace
}  // namespace capellini
