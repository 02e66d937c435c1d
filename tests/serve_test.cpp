// Tests for the serving layer: registry LRU + byte budget, shared analysis
// under concurrent readers, admission control, coalesced (batched) solves,
// deadlines, and the determinism-mode byte-identity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "core/solver.h"
#include "gen/banded.h"
#include "gen/level_structured.h"
#include "sim/fault.h"
#include "matrix/convert.h"
#include "matrix/triangular.h"
#include "serve/registry.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "support/json.h"

namespace capellini::serve {
namespace {

// The integer member `key` of `object`, or -1 when it is absent or not one.
std::int64_t IntAt(const JsonValue& object, const char* key) {
  std::int64_t value = -1;
  const JsonValue* member = object.Find(key);
  return member != nullptr && member->Get(value) ? value : -1;
}

Csr TestMatrix(std::uint64_t seed, Idx components_per_level = 150) {
  return MakeLevelStructured({.num_levels = 6,
                              .components_per_level = components_per_level,
                              .avg_nnz_per_row = 3.0,
                              .size_jitter = 0.2,
                              .interleave = false,
                              .seed = seed});
}

SolverOptions TinyOptions() {
  SolverOptions options;
  options.device = sim::TinyTestDevice();
  return options;
}

std::size_t EntryBytes(const Csr& matrix) {
  MatrixRegistry probe;
  auto handle = probe.Register(matrix, "probe", TinyOptions());
  return (*probe.Acquire(*handle))->bytes;
}

TEST(RegistryTest, RegisterAcquireSolve) {
  MatrixRegistry registry;
  const Csr matrix = TestMatrix(31);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 32);
  auto handle = registry.Register(matrix, "m31", TinyOptions());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  auto entry = registry.Acquire(*handle);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->name, "m31");
  EXPECT_GT((*entry)->bytes, 0u);
  EXPECT_TRUE((*entry)->solver.analyzed());  // memoized at registration

  auto result = (*entry)->solver.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(MaxRelativeError(result->x, problem.x_true), 1e-10);

  const RegistrySnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.registrations, 1u);
  EXPECT_EQ(snapshot.hits, 1u);  // the one Acquire above
  EXPECT_EQ(snapshot.resident_bytes, (*entry)->bytes);
}

TEST(RegistryTest, RejectsNonLowerTriangularWithStatusNotAbort) {
  MatrixRegistry registry;
  const Csr upper = TransposeCsr(TestMatrix(33));
  auto handle = registry.Register(upper, "upper", TinyOptions());
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, LruEvictionAndReRegistration) {
  const Csr a = TestMatrix(41);
  const Csr b = TestMatrix(42);
  const std::size_t bytes = EntryBytes(a);

  // Budget fits roughly one matrix: registering B evicts A (the LRU).
  MatrixRegistry registry(RegistryOptions{.byte_budget = bytes * 3 / 2});
  auto ha = registry.Register(a, "a", TinyOptions());
  ASSERT_TRUE(ha.ok());
  auto hb = registry.Register(b, "b", TinyOptions());
  ASSERT_TRUE(hb.ok());

  EXPECT_FALSE(registry.Contains(*ha));
  EXPECT_TRUE(registry.Contains(*hb));
  auto miss = registry.Acquire(*ha);
  EXPECT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Snapshot().evictions, 1u);
  EXPECT_EQ(registry.Snapshot().misses, 1u);

  // Re-registration gets a fresh handle and solves correctly.
  auto ha2 = registry.Register(a, "a", TinyOptions());
  ASSERT_TRUE(ha2.ok());
  EXPECT_NE(*ha2, *ha);
  EXPECT_FALSE(registry.Contains(*hb));  // b became the LRU victim
  const ReferenceProblem problem = MakeReferenceProblem(a, 43);
  auto result =
      (*registry.Acquire(*ha2))->solver.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(MaxRelativeError(result->x, problem.x_true), 1e-10);
}

TEST(RegistryTest, OversizedMatrixRejectedWithResourceExhausted) {
  const Csr a = TestMatrix(44);
  MatrixRegistry registry(RegistryOptions{.byte_budget = EntryBytes(a) / 2});
  auto handle = registry.Register(a, "too-big", TinyOptions());
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kResourceExhausted);
}

TEST(RegistryTest, EvictionKeepsInFlightReferencesAlive) {
  MatrixRegistry registry;
  const Csr a = TestMatrix(45);
  auto handle = registry.Register(a, "a", TinyOptions());
  ASSERT_TRUE(handle.ok());
  auto entry = registry.Acquire(*handle);
  ASSERT_TRUE(entry.ok());

  EXPECT_TRUE(registry.Evict(*handle));
  EXPECT_FALSE(registry.Contains(*handle));

  // The held shared_ptr still backs a correct solve.
  const ReferenceProblem problem = MakeReferenceProblem(a, 46);
  auto result = (*entry)->solver.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(MaxRelativeError(result->x, problem.x_true), 1e-10);
}

TEST(SolverTest, AnalysisIsSharedAndSafeUnderConcurrentReaders) {
  const Solver solver(TestMatrix(51), TinyOptions());
  constexpr int kReaders = 8;
  std::vector<std::thread> readers;
  std::vector<const Analysis*> seen(kReaders, nullptr);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&solver, &seen, i] {
      seen[static_cast<std::size_t>(i)] = &solver.analysis();
    });
  }
  for (std::thread& t : readers) t.join();
  for (const Analysis* a : seen) {
    EXPECT_EQ(a, seen[0]);  // computed once, shared by every reader
  }
  EXPECT_TRUE(solver.analyzed());
  EXPECT_EQ(&solver.Stats(), &solver.analysis().stats);
  EXPECT_EQ(&solver.Levels(), &solver.analysis().levels);
}

TEST(ServiceTest, ServesRequestsAndVerifies) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(61), "m61", TinyOptions());
  ASSERT_TRUE(handle.ok());

  SolveService service(&registry, ServiceOptions{.workers = 2});
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  std::vector<std::future<ServeResult>> futures;
  std::vector<ReferenceProblem> problems;
  for (int i = 0; i < 6; ++i) {
    problems.push_back(
        MakeReferenceProblem(matrix, 62 + static_cast<std::uint64_t>(i)));
    auto submitted = service.Submit(*handle, problems.back().b);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_LE(MaxRelativeError(result.solve.x, problems[i].x_true), 1e-10);
    EXPECT_GE(result.batch_size, 1);
  }
  service.Shutdown();
  EXPECT_EQ(service.stats().totals().requests, 6u);
}

TEST(ServiceTest, CoalescesSameHandleRequestsIntoOneLaunch) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(63), "m63", TinyOptions());
  ASSERT_TRUE(handle.ok());

  // Paused workers make coalescing deterministic: 5 queued requests with
  // max_batch=4 must group as {4, 1}.
  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_batch = 4,
                                      .start_paused = true});
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  RequestOptions capellini;
  capellini.algorithm = Algorithm::kCapellini;
  std::vector<std::future<ServeResult>> futures;
  std::vector<ReferenceProblem> problems;
  for (int i = 0; i < 5; ++i) {
    problems.push_back(
        MakeReferenceProblem(matrix, 70 + static_cast<std::uint64_t>(i)));
    auto submitted = service.Submit(*handle, problems.back().b, capellini);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  service.Start();

  int batched = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_LE(MaxRelativeError(result.solve.x, problems[i].x_true), 1e-10);
    if (result.batch_size == 4) ++batched;
  }
  EXPECT_EQ(batched, 4);
  service.Shutdown();
  const std::vector<std::uint64_t> occupancy = service.stats().BatchOccupancy();
  ASSERT_EQ(occupancy.size(), 4u);
  EXPECT_EQ(occupancy[0], 1u);  // the leftover solo
  EXPECT_EQ(occupancy[3], 1u);  // the coalesced four
}

TEST(ServiceTest, BatchesUpperSystemSolvesThroughReversedRegistration) {
  // The backward-substitution half of a direct solve, served: register the
  // index-reversed upper system once, batch k upper solves, un-reverse and
  // compare against the serial host solutions.
  const Csr lower = TestMatrix(81);
  const Csr upper = TransposeCsr(lower);
  ASSERT_TRUE(IsUpperTriangularWithDiagonal(upper));
  const auto n = static_cast<std::size_t>(upper.rows());

  MatrixRegistry registry;
  auto handle =
      registry.Register(ReverseSystem(upper), "upper-reversed", TinyOptions());
  ASSERT_TRUE(handle.ok());

  constexpr int kRhs = 4;
  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_batch = kRhs,
                                      .start_paused = true});
  RequestOptions capellini;
  capellini.algorithm = Algorithm::kCapellini;

  std::vector<std::vector<Val>> bs(kRhs);
  std::vector<std::future<ServeResult>> futures;
  Rng rng(82);
  for (int r = 0; r < kRhs; ++r) {
    bs[static_cast<std::size_t>(r)].resize(n);
    for (Val& v : bs[static_cast<std::size_t>(r)]) {
      v = rng.NextDouble(0.5, 1.5);
    }
    std::vector<Val> b_reversed(n);
    ReverseVector(bs[static_cast<std::size_t>(r)], b_reversed);
    auto submitted = service.Submit(*handle, std::move(b_reversed), capellini);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  service.Start();

  for (int r = 0; r < kRhs; ++r) {
    ServeResult result = futures[static_cast<std::size_t>(r)].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.batch_size, kRhs);  // one launch served all k
    std::vector<Val> x(n);
    ReverseVector(result.solve.x, x);

    auto serial = SolveUpperSystem(upper, bs[static_cast<std::size_t>(r)],
                                   Algorithm::kSerialCpu, TinyOptions());
    ASSERT_TRUE(serial.ok());
    EXPECT_LE(MaxRelativeError(x, serial->x), 1e-10);
  }
}

TEST(ServiceTest, QueueFullSubmissionsReturnStatusNoAbort) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(91), "m91", TinyOptions());
  ASSERT_TRUE(handle.ok());

  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_queue = 1,
                                      .start_paused = true});
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 92);

  auto accepted = service.Submit(*handle, problem.b);
  ASSERT_TRUE(accepted.ok());
  auto rejected = service.Submit(*handle, problem.b);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().totals().rejections, 1u);

  service.Start();
  ServeResult result = accepted->get();
  EXPECT_TRUE(result.status.ok());
}

TEST(ServiceTest, SubmitValidatesHandleAndLength) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(93), "m93", TinyOptions());
  ASSERT_TRUE(handle.ok());
  SolveService service(&registry, SolveService::DeterministicOptions());

  auto unknown = service.Submit(*handle + 17, std::vector<Val>(10, 1.0));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  auto short_b = service.Submit(*handle, std::vector<Val>(3, 1.0));
  ASSERT_FALSE(short_b.ok());
  EXPECT_EQ(short_b.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceTest, ExpiredRequestsGetDeadlineExceeded) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(94), "m94", TinyOptions());
  ASSERT_TRUE(handle.ok());

  SolveService service(&registry,
                       ServiceOptions{.workers = 1, .start_paused = true});
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 95);
  RequestOptions tight;
  tight.deadline_ms = 0.01;
  auto submitted = service.Submit(*handle, problem.b, tight);
  ASSERT_TRUE(submitted.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Start();
  ServeResult result = submitted->get();
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().totals().deadline_misses, 1u);
}

TEST(ServiceTest, SubmitAfterShutdownFailsCleanly) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(96), "m96", TinyOptions());
  ASSERT_TRUE(handle.ok());
  SolveService service(&registry, SolveService::DeterministicOptions());
  service.Shutdown();
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  auto submitted =
      service.Submit(*handle, MakeReferenceProblem(matrix, 97).b);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, DeterminismModeByteReproducesSerialOneShotPath) {
  // Two matrices, a zipf trace, and the determinism contract: the service at
  // workers=1 / max_batch=1 must produce the exact bytes of a serial loop of
  // one-shot Solver::Solve calls.
  std::vector<Csr> corpus = {TestMatrix(101), TestMatrix(102, 100)};
  MatrixRegistry registry;
  std::vector<MatrixHandle> handles;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    auto handle = registry.Register(
        corpus[i], std::string("m").append(std::to_string(i)), TinyOptions());
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  const RequestTrace trace = GenerateZipfTrace(16, 2, 1.1, 103);

  // Serial one-shot baseline: a fresh Solver per request, exactly what a
  // caller without the serving layer would run.
  std::uint64_t serial_checksum = kFnvSeed;
  for (const TraceRequest& request : trace.requests) {
    const Csr& matrix = corpus[static_cast<std::size_t>(request.matrix)];
    const Solver solver(matrix, TinyOptions());
    const ReferenceProblem problem =
        MakeReferenceProblem(matrix, request.seed);
    auto result = solver.Solve(solver.Recommend(), problem.b);
    ASSERT_TRUE(result.ok());
    serial_checksum = HashBytes(serial_checksum, result->x.data(),
                                result->x.size() * sizeof(Val));
  }

  SolveService service(&registry, SolveService::DeterministicOptions());
  auto report = ReplayTrace(service, handles, trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->completed, trace.requests.size());
  EXPECT_EQ(report->wrong, 0u);
  EXPECT_EQ(report->solution_checksum, serial_checksum);
}

TEST(RegistryTest, CostModelSeedsFromAnalysisAndLearnsOnline) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(47), "m47", TinyOptions());
  ASSERT_TRUE(handle.ok());
  auto entry = registry.Acquire(*handle);
  ASSERT_TRUE(entry.ok());

  // Seeded from the analysis before any solve runs.
  EXPECT_EQ((*entry)->cost.samples(), 0u);
  EXPECT_GT((*entry)->cost.EstimateMs(), 0.0);
  EXPECT_DOUBLE_EQ((*entry)->cost.EstimateMs(), (*entry)->solver.CostHintMs());

  // First observation replaces the seed; later ones blend (alpha = 0.25).
  (*entry)->cost.Observe(2.0);
  EXPECT_DOUBLE_EQ((*entry)->cost.EstimateMs(), 2.0);
  (*entry)->cost.Observe(4.0);
  EXPECT_DOUBLE_EQ((*entry)->cost.EstimateMs(), 2.5);
  EXPECT_EQ((*entry)->cost.samples(), 2u);
}

TEST(ServiceTest, ServingARequestFeedsTheCostModel) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(48), "m48", TinyOptions());
  ASSERT_TRUE(handle.ok());
  SolveService service(&registry, SolveService::DeterministicOptions());
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  auto submitted = service.Submit(*handle, MakeReferenceProblem(matrix, 49).b);
  ASSERT_TRUE(submitted.ok());
  ServeResult result = submitted->get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.est_cost_ms, 0.0);
  auto entry = registry.Acquire(*handle);
  EXPECT_EQ((*entry)->cost.samples(), 1u);
  EXPECT_DOUBLE_EQ((*entry)->cost.EstimateMs(), result.solve.solve_ms);
  service.Shutdown();
  EXPECT_EQ(service.QueuedCostMs(), 0.0);
}

TEST(ServiceTest, EdfServesTightestDeadlineFirstStableOnTies) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(111), "m111", TinyOptions());
  ASSERT_TRUE(handle.ok());

  // Paused single worker, no coalescing: dequeue_seq is the serve order.
  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_batch = 1,
                                      .start_paused = true});
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const auto submit = [&](std::optional<double> deadline_ms) {
    RequestOptions options;
    options.deadline_ms = deadline_ms;
    auto submitted = service.Submit(
        *handle, MakeReferenceProblem(matrix, 112).b, options);
    EXPECT_TRUE(submitted.ok());
    return std::move(*submitted);
  };
  // Arrival order: A (none), B (5 s), C (1 s), D (5 s, ties with B).
  auto a = submit(std::nullopt);
  auto b = submit(5000.0);
  auto c = submit(1000.0);
  auto d = submit(5000.0);
  service.Start();

  // EDF order: C, then B before D (stable tie on arrival), then A.
  EXPECT_EQ(c.get().dequeue_seq, 0u);
  EXPECT_EQ(b.get().dequeue_seq, 1u);
  EXPECT_EQ(d.get().dequeue_seq, 2u);
  EXPECT_EQ(a.get().dequeue_seq, 3u);
  service.Shutdown();
  // B, C, D each landed ahead of already-queued work.
  EXPECT_EQ(service.stats().totals().reorders, 3u);
  EXPECT_EQ(service.stats().totals().deadline_misses, 0u);
}

TEST(ServiceTest, FifoPolicyIgnoresDeadlineOrder) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(113), "m113", TinyOptions());
  ASSERT_TRUE(handle.ok());
  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_batch = 1,
                                      .policy = QueuePolicy::kFifo,
                                      .start_paused = true});
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  RequestOptions tight;
  tight.deadline_ms = 1000.0;
  auto first = service.Submit(*handle, MakeReferenceProblem(matrix, 114).b);
  auto second =
      service.Submit(*handle, MakeReferenceProblem(matrix, 115).b, tight);
  ASSERT_TRUE(first.ok() && second.ok());
  service.Start();
  EXPECT_EQ(first->get().dequeue_seq, 0u);  // arrival order, not deadline
  EXPECT_EQ(second->get().dequeue_seq, 1u);
  service.Shutdown();
  EXPECT_EQ(service.stats().totals().reorders, 0u);
}

TEST(ServiceTest, CoalescingRespectsTheDeadlineCompatibilityWindow) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(116), "m116", TinyOptions());
  ASSERT_TRUE(handle.ok());
  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_batch = 4,
                                      .coalesce_window_ms = 10.0,
                                      .start_paused = true});
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  RequestOptions capellini;
  capellini.algorithm = Algorithm::kCapellini;
  const auto submit = [&](double deadline_ms) {
    RequestOptions options = capellini;
    options.deadline_ms = deadline_ms;
    auto submitted = service.Submit(
        *handle, MakeReferenceProblem(matrix, 117).b, options);
    EXPECT_TRUE(submitted.ok());
    return std::move(*submitted);
  };
  auto leader = submit(5000.0);
  auto outside = submit(5012.0);  // 12 ms after the leader: beyond the window
  auto inside = submit(5001.0);   // 1 ms after: joins the leader's launch
  service.Start();

  ServeResult leader_result = leader.get();
  ServeResult inside_result = inside.get();
  ServeResult outside_result = outside.get();
  EXPECT_EQ(leader_result.batch_size, 2);
  EXPECT_EQ(inside_result.batch_size, 2);
  EXPECT_EQ(inside_result.dequeue_seq, leader_result.dequeue_seq);
  EXPECT_EQ(outside_result.batch_size, 1);
  EXPECT_GT(outside_result.dequeue_seq, leader_result.dequeue_seq);
  service.Shutdown();
}

TEST(ServiceTest, CostAdmissionRejectsWithRetryAfterHint) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(121), "m121", TinyOptions());
  ASSERT_TRUE(handle.ok());

  // Budget far below one request's estimate: the empty-queue exemption
  // admits the first request, the cost bound rejects the second.
  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_queue_cost_ms = 1e-3,
                                      .start_paused = true});
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 122);

  auto accepted = service.Submit(*handle, problem.b);
  ASSERT_TRUE(accepted.ok());
  EXPECT_GT(service.QueuedCostMs(), 0.0);

  auto rejected = service.Submit(*handle, problem.b);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("retry after"),
            std::string::npos);
  EXPECT_EQ(service.stats().totals().rejections, 1u);

  service.Start();
  EXPECT_TRUE(accepted->get().status.ok());
  service.Shutdown();
  EXPECT_EQ(service.QueuedCostMs(), 0.0);
}

TEST(ServiceTest, EveryTerminalOutcomeHitsStatsExactlyOnce) {
  MatrixRegistry registry;
  auto handle = registry.Register(TestMatrix(123), "m123", TinyOptions());
  ASSERT_TRUE(handle.ok());

  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_queue = 2,
                                      .start_paused = true});
  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 124);

  std::size_t submitted = 0;
  RequestOptions tight;
  tight.deadline_ms = 0.01;
  auto ok_request = service.Submit(*handle, problem.b);
  ++submitted;
  auto expired_request = service.Submit(*handle, problem.b, tight);
  ++submitted;
  auto queue_full = service.Submit(*handle, problem.b);
  ++submitted;
  ASSERT_TRUE(ok_request.ok());
  ASSERT_TRUE(expired_request.ok());
  ASSERT_FALSE(queue_full.ok());
  EXPECT_EQ(queue_full.status().code(), StatusCode::kResourceExhausted);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Start();
  EXPECT_TRUE(ok_request->get().status.ok());
  EXPECT_EQ(expired_request->get().status.code(),
            StatusCode::kDeadlineExceeded);
  service.Shutdown();

  auto after_shutdown = service.Submit(*handle, problem.b);
  ++submitted;
  ASSERT_FALSE(after_shutdown.ok());
  EXPECT_EQ(after_shutdown.status().code(), StatusCode::kFailedPrecondition);

  // The accounting invariant: every submission lands in exactly one bucket.
  const ServiceStats::Totals totals = service.stats().totals();
  EXPECT_EQ(totals.requests, 1u);
  EXPECT_EQ(totals.failures, 0u);
  EXPECT_EQ(totals.deadline_misses, 1u);
  EXPECT_EQ(totals.rejections, 2u);  // queue full + after shutdown
  EXPECT_EQ(totals.requests + totals.failures + totals.deadline_misses +
                totals.rejections,
            submitted);

  // The expired request's 0.01 ms budget fell in the tightest bucket.
  const auto buckets = service.stats().DeadlineBuckets();
  EXPECT_EQ(buckets[0].total, 1u);
  EXPECT_EQ(buckets[0].missed, 1u);
}

/// A chain matrix on a tight watchdog: kCapelliniNaive deadlocks on it
/// (§3.3 Challenge 1), kCapellini solves it — the breaker's failure and
/// recovery probes in one registry entry.
SolverOptions WatchdogOptions() {
  SolverOptions options;
  options.device = sim::TinyTestDevice();
  options.device.no_progress_cycles = 30'000;
  return options;
}

TEST(ServiceTest, WatchdogOpensBreakerAndProbeClosesIt) {
  MatrixRegistry registry;
  auto handle =
      registry.Register(MakeBidiagonal(64), "chain", WatchdogOptions());
  ASSERT_TRUE(handle.ok());

  ServiceOptions options = SolveService::DeterministicOptions();
  options.start_paused = true;
  options.breaker_threshold = 2;
  options.breaker_cooldown = 2;
  SolveService service(&registry, options);

  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 7);
  RequestOptions naive;
  naive.algorithm = Algorithm::kCapelliniNaive;
  RequestOptions good;
  good.algorithm = Algorithm::kCapellini;

  // FIFO processing order (deadline-free EDF): two watchdog trips open the
  // breaker, two requests deflect while it cools down, the fifth is the
  // half-open probe that closes it, the sixth flows normally.
  std::vector<std::future<ServeResult>> futures;
  for (const RequestOptions* request_options :
       {&naive, &naive, &good, &good, &good, &good}) {
    auto submitted = service.Submit(*handle, problem.b, *request_options);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  service.Start();

  EXPECT_EQ(futures[0].get().status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(futures[1].get().status.code(), StatusCode::kDeadlock);
  EXPECT_EQ(futures[2].get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(futures[3].get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(futures[4].get().status.ok());  // the probe
  EXPECT_TRUE(futures[5].get().status.ok());  // breaker closed again
  service.Shutdown();

  const ServiceStats::Totals totals = service.stats().totals();
  EXPECT_EQ(totals.breaker_opens, 1u);
  EXPECT_EQ(totals.breaker_probes, 1u);
  EXPECT_EQ(totals.breaker_short_circuits, 2u);
  // Failure split by reason, and the exactly-once invariant still holds.
  EXPECT_EQ(totals.requests, 2u);
  EXPECT_EQ(totals.failures, 4u);
  EXPECT_EQ(totals.failures_deadlock, 2u);
  EXPECT_EQ(totals.failures_verify, 0u);
  EXPECT_EQ(totals.failures_other, 2u);  // the two fast-fail deflections
  EXPECT_EQ(totals.failures,
            totals.failures_deadlock + totals.failures_verify +
                totals.failures_other);
  EXPECT_EQ(totals.requests + totals.failures + totals.deadline_misses +
                totals.rejections,
            6u);
}

TEST(ServiceTest, OpenBreakerHostFallbackStillServes) {
  MatrixRegistry registry;
  auto handle =
      registry.Register(MakeBidiagonal(64), "chain", WatchdogOptions());
  ASSERT_TRUE(handle.ok());

  ServiceOptions options = SolveService::DeterministicOptions();
  options.start_paused = true;
  options.breaker_threshold = 1;
  options.breaker_cooldown = 4;
  options.breaker_mode = BreakerMode::kHostFallback;
  SolveService service(&registry, options);

  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 9);
  RequestOptions naive;
  naive.algorithm = Algorithm::kCapelliniNaive;
  auto tripping = service.Submit(*handle, problem.b, naive);
  RequestOptions good;
  good.algorithm = Algorithm::kCapellini;
  auto deflected = service.Submit(*handle, problem.b, good);
  ASSERT_TRUE(tripping.ok());
  ASSERT_TRUE(deflected.ok());
  service.Start();

  EXPECT_EQ(tripping->get().status.code(), StatusCode::kDeadlock);
  // While open, the request is rerouted to the fault-immune host solver
  // instead of fast-failing: degraded service beats no service.
  ServeResult result = deflected->get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.algorithm, Algorithm::kSerialCpu);
  EXPECT_LE(MaxRelativeError(result.solve.x, problem.x_true), 1e-10);
  service.Shutdown();
  EXPECT_EQ(service.stats().totals().breaker_short_circuits, 1u);
}

TEST(ServiceTest, WindowBreakerOpensOnFailureRate) {
  // Intermittent faults: failures alternate with successes, so no
  // consecutive streak ever forms — only the sliding-window RATE mode can
  // catch this pattern.
  MatrixRegistry registry;
  auto handle =
      registry.Register(MakeBidiagonal(64), "chain", WatchdogOptions());
  ASSERT_TRUE(handle.ok());

  ServiceOptions options = SolveService::DeterministicOptions();
  options.start_paused = true;
  options.breaker_threshold = 0;  // consecutive mode OFF — window only
  options.breaker_window = 4;
  options.breaker_rate = 0.5;
  options.breaker_cooldown = 2;
  SolveService service(&registry, options);

  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 7);
  RequestOptions naive;
  naive.algorithm = Algorithm::kCapelliniNaive;
  RequestOptions good;
  good.algorithm = Algorithm::kCapellini;

  // F,S,F,S fills the window at 2/4 = rate 0.5 -> open; two deflect during
  // cooldown; the probe closes it; the last flows normally.
  std::vector<std::future<ServeResult>> futures;
  for (const RequestOptions* request_options :
       {&naive, &good, &naive, &good, &good, &good, &good, &good}) {
    auto submitted = service.Submit(*handle, problem.b, *request_options);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  service.Start();

  EXPECT_EQ(futures[0].get().status.code(), StatusCode::kDeadlock);
  EXPECT_TRUE(futures[1].get().status.ok());
  EXPECT_EQ(futures[2].get().status.code(), StatusCode::kDeadlock);
  EXPECT_TRUE(futures[3].get().status.ok());  // fills the window -> open
  EXPECT_EQ(futures[4].get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(futures[5].get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(futures[6].get().status.ok());  // the probe
  EXPECT_TRUE(futures[7].get().status.ok());  // closed again
  service.Shutdown();

  const ServiceStats::Totals totals = service.stats().totals();
  EXPECT_EQ(totals.breaker_opens, 1u);
  EXPECT_EQ(totals.breaker_probes, 1u);
  EXPECT_EQ(totals.breaker_short_circuits, 2u);
}

TEST(ServiceTest, WindowBreakerPartialWindowNeverTrips) {
  // Below-rate failure mix, and a window that never fills: the breaker must
  // stay closed — every request is served, failures stay in-band.
  MatrixRegistry registry;
  auto handle =
      registry.Register(MakeBidiagonal(64), "chain", WatchdogOptions());
  ASSERT_TRUE(handle.ok());

  ServiceOptions options = SolveService::DeterministicOptions();
  options.start_paused = true;
  options.breaker_window = 8;  // 6 requests below never fill it
  options.breaker_rate = 0.5;
  SolveService service(&registry, options);

  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 7);
  RequestOptions naive;
  naive.algorithm = Algorithm::kCapelliniNaive;
  RequestOptions good;
  good.algorithm = Algorithm::kCapellini;

  std::vector<std::future<ServeResult>> futures;
  for (const RequestOptions* request_options :
       {&naive, &good, &naive, &good, &naive, &good}) {
    auto submitted = service.Submit(*handle, problem.b, *request_options);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  service.Start();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const StatusCode code = futures[i].get().status.code();
    EXPECT_EQ(code, i % 2 == 0 ? StatusCode::kDeadlock : StatusCode::kOk)
        << "request " << i;
  }
  service.Shutdown();
  EXPECT_EQ(service.stats().totals().breaker_opens, 0u);
  EXPECT_EQ(service.stats().totals().breaker_short_circuits, 0u);
}

TEST(ServiceTest, ReliableModeRecoversAnInjectedFault) {
  // The injector must outlive the registry entry that points at it.
  sim::FaultPlan plan;
  plan.drop_publish_rate = 1.0;
  plan.max_faults = 1;  // the first flag publish vanishes, then silence
  sim::FaultInjector injector(plan);
  SolverOptions faulty = WatchdogOptions();
  faulty.kernel_options.fault_injector = &injector;

  MatrixRegistry registry;
  auto handle = registry.Register(MakeBidiagonal(64), "faulty", faulty);
  ASSERT_TRUE(handle.ok());

  ServiceOptions options = SolveService::DeterministicOptions();
  options.reliable = true;
  SolveService service(&registry, options);

  const Csr& matrix = (*registry.Acquire(*handle))->solver.matrix();
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 11);
  RequestOptions good;
  good.algorithm = Algorithm::kCapellini;
  auto submitted = service.Submit(*handle, problem.b, good);
  ASSERT_TRUE(submitted.ok());
  ServeResult result = submitted->get();

  // The raw launch deadlocked on the dropped flag; the retry ladder
  // escalated past it and the caller sees a verified success.
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.verified);
  EXPECT_GE(result.attempts, 2);
  EXPECT_NE(result.algorithm, Algorithm::kCapellini);
  EXPECT_LE(MaxRelativeError(result.solve.x, problem.x_true), 1e-10);
  service.Shutdown();
  const ServiceStats::Totals totals = service.stats().totals();
  EXPECT_EQ(totals.requests, 1u);
  EXPECT_EQ(totals.failures, 0u);  // recovery means no terminal failure
}

TEST(ServiceTest, CostAwareLadderSkipsFastRungsForExpensiveHandles) {
  // Same injected fault (first flag publish dropped -> kCapellini deadlocks),
  // two handles on opposite sides of ladder_cost_threshold_ms. The cheap
  // handle must recover on the ladder's first fast rung
  // (kCapelliniTwoPhase); the expensive handle must skip the fast rungs and
  // land directly on kLevelSet.
  sim::FaultPlan plan;
  plan.drop_publish_rate = 1.0;
  plan.max_faults = 1;
  sim::FaultInjector cheap_injector(plan);
  sim::FaultInjector expensive_injector(plan);
  SolverOptions cheap_solver = WatchdogOptions();
  cheap_solver.kernel_options.fault_injector = &cheap_injector;
  SolverOptions expensive_solver = WatchdogOptions();
  expensive_solver.kernel_options.fault_injector = &expensive_injector;

  MatrixRegistry registry;
  auto cheap = registry.Register(MakeBidiagonal(64), "cheap", cheap_solver);
  auto expensive =
      registry.Register(MakeBidiagonal(4096), "expensive", expensive_solver);
  ASSERT_TRUE(cheap.ok());
  ASSERT_TRUE(expensive.ok());

  // Split the threshold between the two handles' analysis-seeded estimates.
  const double cheap_est = (*registry.Acquire(*cheap))->cost.EstimateMs();
  const double expensive_est =
      (*registry.Acquire(*expensive))->cost.EstimateMs();
  ASSERT_LT(cheap_est, expensive_est);

  ServiceOptions options = SolveService::DeterministicOptions();
  options.reliable = true;
  options.ladder_cost_threshold_ms = expensive_est;  // "at or above" escalates
  SolveService service(&registry, options);

  RequestOptions capellini;
  capellini.algorithm = Algorithm::kCapellini;
  for (const auto& [handle, expected_recovery] :
       {std::pair{*cheap, Algorithm::kCapelliniTwoPhase},
        std::pair{*expensive, Algorithm::kLevelSet}}) {
    const Csr& matrix = (*registry.Acquire(handle))->solver.matrix();
    const ReferenceProblem problem = MakeReferenceProblem(matrix, 17);
    auto submitted = service.Submit(handle, problem.b, capellini);
    ASSERT_TRUE(submitted.ok());
    ServeResult result = submitted->get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.verified);
    EXPECT_GE(result.attempts, 2);
    EXPECT_EQ(result.algorithm, expected_recovery);
    EXPECT_LE(MaxRelativeError(result.solve.x, problem.x_true), 1e-10);
  }
  service.Shutdown();
}

TEST(ServiceTest, RejectedSubmissionsDoNotPromoteLruOrCountHits) {
  const Csr a = TestMatrix(131);
  const Csr b = TestMatrix(132);
  const Csr c = TestMatrix(133);
  const std::size_t bytes = EntryBytes(a);

  // Budget holds two matrices; registering a third evicts the true LRU.
  MatrixRegistry registry(RegistryOptions{.byte_budget = bytes * 5 / 2});
  auto ha = registry.Register(a, "a", TinyOptions());
  auto hb = registry.Register(b, "b", TinyOptions());
  ASSERT_TRUE(ha.ok() && hb.ok());

  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_queue = 1,
                                      .start_paused = true});
  // Admitting a request on b promotes b (hit + MRU); the rejected request on
  // a must leave a as the LRU victim and the hit count untouched.
  auto admitted = service.Submit(*hb, MakeReferenceProblem(b, 134).b);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(registry.Snapshot().hits, 1u);
  auto rejected = service.Submit(*ha, MakeReferenceProblem(a, 135).b);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(registry.Snapshot().hits, 1u);  // Peek counted no hit

  auto hc = registry.Register(c, "c", TinyOptions());
  ASSERT_TRUE(hc.ok());
  EXPECT_FALSE(registry.Contains(*ha));  // a stayed LRU and was evicted
  EXPECT_TRUE(registry.Contains(*hb));
  service.Start();
  EXPECT_TRUE(admitted->get().status.ok());
}

TEST(ServiceTest, MixedDeadlinePreloadMissRateAndChecksumVsFifoSeed) {
  // Satellite regression: under a paused service, enqueue mixed-deadline
  // requests, resume, and assert completion order (via dequeue_seq),
  // miss rate, and that DeterministicOptions replay checksums are unchanged
  // from the FIFO seed.
  std::vector<Csr> corpus = {TestMatrix(141), TestMatrix(142, 100)};
  MatrixRegistry registry;
  std::vector<MatrixHandle> handles;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    auto handle = registry.Register(
        corpus[i], std::string("m").append(std::to_string(i)), TinyOptions());
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  const RequestTrace trace = GenerateZipfTrace(16, 2, 1.1, 143);

  const auto replay_checksum = [&](QueuePolicy policy) {
    ServiceOptions options = SolveService::DeterministicOptions();
    options.policy = policy;
    SolveService service(&registry, options);
    auto report = ReplayTrace(service, handles, trace);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->completed, trace.requests.size());
    EXPECT_EQ(report->wrong, 0u);
    return report->solution_checksum;
  };
  // A deadline-free workload must replay byte-identically under both
  // policies: EDF with all-infinite deadlines IS the FIFO seed order.
  EXPECT_EQ(replay_checksum(QueuePolicy::kFifo),
            replay_checksum(QueuePolicy::kEdf));

  // Mixed deadlines: one already-expired request among live ones. EDF pulls
  // the tight deadline to the front; it expires cleanly, everything else
  // completes, and the miss rate is exactly 1/4.
  SolveService service(&registry,
                       ServiceOptions{.workers = 1,
                                      .max_batch = 1,
                                      .start_paused = true});
  const Csr& matrix = corpus[0];
  RequestOptions tight;
  tight.deadline_ms = 0.01;
  RequestOptions loose;
  loose.deadline_ms = 60000.0;
  std::vector<std::future<ServeResult>> futures;
  const auto submit = [&](std::uint64_t seed, RequestOptions options) {
    auto submitted =
        service.Submit(handles[0], MakeReferenceProblem(matrix, seed).b,
                       options);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  };
  submit(144, loose);
  submit(145, RequestOptions{});
  submit(146, tight);
  submit(147, RequestOptions{});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Start();

  ServeResult expired = futures[2].get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.dequeue_seq, 0u);  // EDF served the tightest first
  ServeResult loose_result = futures[0].get();
  EXPECT_TRUE(loose_result.status.ok());
  EXPECT_EQ(loose_result.dequeue_seq, 1u);  // then the 60 s deadline
  EXPECT_TRUE(futures[1].get().status.ok());
  EXPECT_TRUE(futures[3].get().status.ok());
  service.Shutdown();

  const ServiceStats::Totals totals = service.stats().totals();
  EXPECT_EQ(totals.deadline_misses, 1u);
  EXPECT_EQ(totals.requests, 3u);
}

TEST(ReplayTest, ZipfTraceIsDeterministicAndSkewed) {
  const RequestTrace a = GenerateZipfTrace(200, 8, 1.2, 7);
  const RequestTrace b = GenerateZipfTrace(200, 8, 1.2, 7);
  ASSERT_EQ(a.requests.size(), 200u);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].matrix, b.requests[i].matrix);
    EXPECT_EQ(a.requests[i].seed, b.requests[i].seed);
  }
  // The hottest matrix should dominate: > 25% of requests under s=1.2.
  std::vector<int> counts(8, 0);
  for (const TraceRequest& request : a.requests) {
    ++counts[static_cast<std::size_t>(request.matrix)];
  }
  EXPECT_GT(*std::max_element(counts.begin(), counts.end()), 50);
}

TEST(ReplayTest, TraceJsonRoundTrips) {
  RequestTrace trace = GenerateZipfTrace(25, 4, 1.0, 11);
  // Deadlines on even-index requests only: the round trip must preserve
  // both stamped and deadline-free records.
  AssignDeadlines(trace, 5.0, 50.0, 12);
  for (std::size_t i = 1; i < trace.requests.size(); i += 2) {
    trace.requests[i].deadline_ms = 0.0;
  }
  const std::string path = ::testing::TempDir() + "serve_trace_test.json";
  ASSERT_TRUE(WriteTraceJson(trace, path).ok());
  auto loaded = ReadTraceJson(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(loaded->requests[i].matrix, trace.requests[i].matrix);
    EXPECT_EQ(loaded->requests[i].seed, trace.requests[i].seed);
    EXPECT_EQ(loaded->requests[i].deadline_ms, trace.requests[i].deadline_ms);
  }
  std::remove(path.c_str());
}

TEST(ReplayTest, RecordWithoutSeedIsAnErrorNamingIt) {
  const std::string path = ::testing::TempDir() + "serve_trace_no_seed.json";
  ASSERT_TRUE(WriteFile(path, R"({"requests": [{"matrix": 1},
                                               {"matrix": 2, "seed": 5}]})")
                  .ok());
  auto loaded = ReadTraceJson(path);
  ASSERT_FALSE(loaded.ok()) << loaded->requests.size() << " requests read";
  EXPECT_NE(loaded.status().message().find("request 0"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ReplayTest, WriteTraceJsonReportsAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(WriteTraceJson(GenerateZipfTrace(8, 2, 1.0, 3), "/dev/full")
                   .ok());
}

TEST(ReplayTest, AssignDeadlinesIsDeterministicAndInRange) {
  RequestTrace a = GenerateZipfTrace(40, 3, 1.0, 13);
  RequestTrace b = a;
  AssignDeadlines(a, 2.0, 20.0, 14);
  AssignDeadlines(b, 2.0, 20.0, 14);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.requests[i].deadline_ms, b.requests[i].deadline_ms);
    EXPECT_GE(a.requests[i].deadline_ms, 2.0);
    EXPECT_LE(a.requests[i].deadline_ms, 20.0);
  }
}

TEST(StatsTest, SummarizePercentilesAndJson) {
  LatencySummary summary = Summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(summary.count, 4u);
  EXPECT_DOUBLE_EQ(summary.mean_ms, 2.5);
  EXPECT_DOUBLE_EQ(summary.p50_ms, 2.5);
  EXPECT_DOUBLE_EQ(summary.max_ms, 4.0);

  ServiceStats stats;
  stats.RecordBatch(3);
  stats.RecordRequest({.handle = 1,
                       .name = "m",
                       .outcome = ServiceStats::Outcome::kOk,
                       .batch_size = 3,
                       .queue_wait_ms = 0.5,
                       .solve_ms = 1.0,
                       .deadline_budget_ms = 12.0,
                       .est_cost_ms = 2.0});
  stats.RecordRejection();
  stats.RecordReorder();
  auto json = ParseJson(stats.ToJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(IntAt(*json, "requests"), 1);
  EXPECT_EQ(IntAt(*json, "rejections"), 1);
  EXPECT_EQ(IntAt(*json, "reorders"), 1);
  const JsonValue* occupancy = json->Find("batch_occupancy");
  ASSERT_NE(occupancy, nullptr);
  ASSERT_EQ(occupancy->items.size(), 3u);
  EXPECT_EQ(occupancy->items[0].text, "0");
  EXPECT_EQ(occupancy->items[1].text, "0");
  EXPECT_EQ(occupancy->items[2].text, "1");
  EXPECT_NE(json->Find("deadline_buckets"), nullptr);
  EXPECT_NE(stats.ToTable().find("per-handle"), std::string::npos);

  // est 2.0 vs actual 1.0 -> |2-1|/1 = 1.0 mean cost error.
  EXPECT_DOUBLE_EQ(stats.MeanCostErrorRatio(), 1.0);
  // The 12 ms budget lands in the (5, 20] bucket, served in time.
  const auto buckets = stats.DeadlineBuckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[1].total, 1u);
  EXPECT_EQ(buckets[1].missed, 0u);
}

TEST(StatsTest, ExpiredRequestsBucketAsMissesWithoutSolveSamples) {
  ServiceStats stats;
  stats.RecordRequest({.handle = 1,
                       .name = "m",
                       .outcome = ServiceStats::Outcome::kExpired,
                       .batch_size = 1,
                       .queue_wait_ms = 7.5,
                       .solve_ms = 0.0,
                       .deadline_budget_ms = 3.0,
                       .est_cost_ms = 1.0});
  const ServiceStats::Totals totals = stats.totals();
  EXPECT_EQ(totals.requests, 0u);
  EXPECT_EQ(totals.failures, 0u);
  EXPECT_EQ(totals.deadline_misses, 1u);
  const auto buckets = stats.DeadlineBuckets();
  EXPECT_EQ(buckets[0].total, 1u);   // 3 ms budget -> <= 5 ms bucket
  EXPECT_EQ(buckets[0].missed, 1u);
  // Queue wait is real for an expired request; solve latency is not.
  auto json = ParseJson(stats.ToJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  ASSERT_NE(json->Find("queue_wait"), nullptr);
  ASSERT_NE(json->Find("solve"), nullptr);
  EXPECT_EQ(IntAt(*json->Find("queue_wait"), "count"), 1);
  EXPECT_EQ(IntAt(*json->Find("solve"), "count"), 0);
}

TEST(StatsTest, JsonEscapesHandleNames) {
  const std::string name = "a\"b\\c\x01";
  ServiceStats stats;
  stats.RecordRequest({.handle = 4,
                       .name = name,
                       .outcome = ServiceStats::Outcome::kOk,
                       .batch_size = 1,
                       .queue_wait_ms = 0.25,
                       .solve_ms = 1.0,
                       .deadline_budget_ms = -1.0,
                       .est_cost_ms = 0.0});
  auto json = ParseJson(stats.ToJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const JsonValue* per_handle = json->Find("per_handle");
  ASSERT_NE(per_handle, nullptr);
  ASSERT_EQ(per_handle->items.size(), 1u);
  ASSERT_NE(per_handle->items[0].Find("name"), nullptr);
  EXPECT_EQ(per_handle->items[0].Find("name")->text, name);
  EXPECT_EQ(IntAt(per_handle->items[0], "handle"), 4);
}

}  // namespace
}  // namespace capellini::serve
