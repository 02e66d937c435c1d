// Concurrency stress for the sharded serving facade, written to run under
// ThreadSanitizer (CI job `tsan`). Several client threads drive one
// ShardedSolveService at once with Submit, ApplyDelta and Register, under a
// per-device byte budget small enough to force LRU eviction, while a
// poisoned matrix quarantines its device and fails its traffic over to a
// survivor. The checks are the serving layer's accounting invariants: every
// admitted request completes, and it is counted exactly once across the
// devices.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.h"
#include "fleet/shard.h"
#include "gen/banded.h"
#include "sim/fault.h"
#include "update/delta.h"

namespace capellini::fleet {
namespace {

SolverOptions FastWatchdogOptions() {
  SolverOptions options;
  options.device = sim::TinyTestDevice();
  options.device.no_progress_cycles = 30'000;
  return options;
}

TEST(ShardStressTest, ConcurrentTrafficCountsEveryAdmittedRequestOnce) {
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 48;
  const Csr matrix = MakeBanded({.rows = 96, .bandwidth = 3, .fill = 0.8});

  // Every publish of the poisoned matrix is dropped, so each device-path
  // solve of it deadlocks. Declared before the shard: registry entries point
  // at it until the shard is destroyed.
  sim::FaultPlan poison;
  poison.seed = 5;
  poison.drop_publish_rate = 1.0;
  sim::FaultInjector injector(poison);

  std::size_t entry_bytes = 0;
  {
    serve::MatrixRegistry probe;
    auto handle = probe.Register(matrix, "probe", FastWatchdogOptions());
    ASSERT_TRUE(handle.ok());
    entry_bytes = (*probe.Acquire(*handle))->bytes;
  }

  ShardOptions options;
  options.num_devices = 3;
  // Room for two resident matrices per device: the clients' registrations
  // keep evicting.
  options.device_byte_budget = entry_bytes * 5 / 2;
  options.service.workers = 2;
  options.service.max_batch = 4;
  options.health.threshold = 2;
  options.health.probe_cooldown = 3;
  ShardedSolveService shard(options);

  SolverOptions poisoned = FastWatchdogOptions();
  poisoned.kernel_options.fault_injector = &injector;
  auto sick = shard.Register(matrix, "sick", poisoned);
  ASSERT_TRUE(sick.ok());
  ASSERT_EQ(sick->device, 0);

  serve::RequestOptions request;
  request.algorithm = Algorithm::kCapellini;  // the device path
  const std::vector<Val> b(static_cast<std::size_t>(matrix.rows()), 1.0);
  // Two deadlocks quarantine device 0 before the clients start, so their
  // first submits of the poisoned matrix fail over.
  for (int i = 0; i < 2; ++i) {
    auto submitted = shard.Submit(*sick, b, request);
    ASSERT_TRUE(submitted.ok());
    EXPECT_EQ(submitted->get().status.code(), StatusCode::kDeadlock);
  }
  ASSERT_EQ(shard.health().state(0), DeviceState::kQuarantined);

  std::mutex handles_mutex;
  std::vector<ShardedHandle> handles = {*sick};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> completed{0};

  auto client = [&](int client_index) {
    std::vector<std::future<serve::ServeResult>> futures;
    for (int op = 0; op < kOpsPerClient; ++op) {
      const auto seed =
          static_cast<std::uint64_t>(client_index * kOpsPerClient + op);
      ShardedHandle target = *sick;
      if (op % 3 != 0) {
        std::lock_guard<std::mutex> lock(handles_mutex);
        target = handles[seed % handles.size()];
      }
      if (op % 6 == 1) {
        auto registered = shard.Register(matrix, std::to_string(seed),
                                         FastWatchdogOptions());
        ASSERT_TRUE(registered.ok()) << registered.status().ToString();
        std::lock_guard<std::mutex> lock(handles_mutex);
        handles.push_back(*registered);
      } else if (op % 6 == 2) {
        // Value-only deltas keep the pattern, so any epoch accepts them; an
        // evicted target is the only way to fail.
        auto applied = shard.ApplyDelta(
            target, update::MakeRandomBatch(matrix, 4, false, seed));
        EXPECT_TRUE(applied.ok() ||
                    applied.status().code() == StatusCode::kNotFound)
            << applied.status().ToString();
      } else if (op % 6 == 5) {
        // Readers of the health and placement state racing the writers.
        shard.health_stats();
        shard.PlacedCostMs(op % options.num_devices);
      } else {
        // Refusals: an evicted handle (kNotFound), or no healthy failover
        // target (kResourceExhausted).
        auto submitted = shard.Submit(target, b, request);
        if (!submitted.ok()) {
          EXPECT_TRUE(submitted.status().code() == StatusCode::kNotFound ||
                      submitted.status().code() ==
                          StatusCode::kResourceExhausted)
              << submitted.status().ToString();
          continue;
        }
        ++admitted;
        futures.push_back(std::move(*submitted));
      }
    }
    for (std::future<serve::ServeResult>& future : futures) {
      // A lost request would hang here; fail instead.
      if (future.wait_for(std::chrono::minutes(5)) ==
          std::future_status::ready) {
        future.get();
        ++completed;
      }
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& thread : clients) thread.join();
  shard.Shutdown();

  EXPECT_EQ(completed.load(), admitted.load());
  EXPECT_GT(admitted.load(), 0u);
  // Exactly once: the two prelude solves plus every admitted client request
  // land in one terminal bucket on one device. No submit is refused at a
  // device's admission (the queues never fill), so rejections stay zero.
  std::uint64_t terminal = 0;
  std::uint64_t rejections = 0;
  for (int d = 0; d < options.num_devices; ++d) {
    const serve::ServiceStats::Totals totals = shard.stats(d).totals();
    terminal += totals.requests + totals.failures + totals.deadline_misses;
    rejections += totals.rejections;
  }
  EXPECT_EQ(terminal, admitted.load() + 2);
  EXPECT_EQ(rejections, 0u);

  const ShardHealthStats stats = shard.health_stats();
  EXPECT_GE(stats.health.quarantines, 1u);
  EXPECT_GE(stats.failover_submits, 1u);
  EXPECT_LE(stats.failover_submits, stats.health.deflections);
}

}  // namespace
}  // namespace capellini::fleet
