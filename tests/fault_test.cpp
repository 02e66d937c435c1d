// sim/fault.h + core/verify.h: deterministic injection, the zero-perturbation
// contract, and the self-healing solve pipeline built on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "core/solver.h"
#include "core/verify.h"
#include "gen/banded.h"
#include "gen/random_lower.h"
#include "host/serial.h"
#include "matrix/triangular.h"
#include "sim/config.h"
#include "sim/fault.h"
#include "support/json.h"
#include "support/rng.h"

namespace capellini {
namespace {

/// Tight watchdog so a starved spin-wait converts to kDeadlock quickly.
SolverOptions FaultySolverOptions(sim::FaultInjector* injector) {
  SolverOptions options;
  options.device = sim::TinyTestDevice();
  options.device.no_progress_cycles = 30'000;
  options.kernel_options.fault_injector = injector;
  return options;
}

TEST(FaultInjectorTest, KindNamesCovered) {
  for (const sim::FaultKind kind :
       {sim::FaultKind::kDropPublish, sim::FaultKind::kBitFlipStore,
        sim::FaultKind::kStuckWarp, sim::FaultKind::kMemDelay}) {
    EXPECT_STRNE(sim::FaultKindName(kind), "unknown");
  }
}

TEST(FaultInjectorTest, DecisionsAreDeterministic) {
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.drop_publish_rate = 0.25;
  sim::FaultInjector a(plan);
  sim::FaultInjector b(plan);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.DropPublish(), b.DropPublish()) << "event " << i;
  }
  EXPECT_GT(a.counts().total(), 0u);  // at rate 0.25 some fired
  EXPECT_EQ(a.counts().total(), b.counts().total());
}

TEST(FaultInjectorTest, ReseedRestartsTheEventStream) {
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.bitflip_store_rate = 0.3;
  sim::FaultInjector injector(plan);
  std::vector<bool> first;
  for (int i = 0; i < 200; ++i) {
    double value = 1.0;
    first.push_back(injector.MaybeFlipStoreBit(value));
  }
  injector.Reseed(plan);
  EXPECT_EQ(injector.counts().total(), 0u);
  for (int i = 0; i < 200; ++i) {
    double value = 1.0;
    EXPECT_EQ(injector.MaybeFlipStoreBit(value), first[static_cast<std::size_t>(i)])
        << "event " << i;
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  sim::FaultPlan plan;
  plan.drop_publish_rate = 0.5;
  plan.seed = 1;
  sim::FaultInjector a(plan);
  plan.seed = 2;
  sim::FaultInjector b(plan);
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.DropPublish() != b.DropPublish();
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, MaxFaultsCapsInjectionAcrossKinds) {
  sim::FaultPlan plan;
  plan.drop_publish_rate = 1.0;
  plan.bitflip_store_rate = 1.0;
  plan.max_faults = 3;
  sim::FaultInjector injector(plan);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    double value = 2.0;
    if (injector.DropPublish()) ++fired;
    if (injector.MaybeFlipStoreBit(value)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(injector.counts().total(), 3u);
}

TEST(FaultInjectorTest, BitFlipTogglesLowExponentBit) {
  sim::FaultPlan plan;
  plan.bitflip_store_rate = 1.0;
  sim::FaultInjector injector(plan);
  double value = 8.0;
  ASSERT_TRUE(injector.MaybeFlipStoreBit(value));
  // Bit 52 is the exponent's low bit: the value halves or doubles.
  EXPECT_TRUE(value == 4.0 || value == 16.0) << value;
  EXPECT_EQ(injector.counts()[sim::FaultKind::kBitFlipStore], 1u);
}

TEST(FaultPlanJsonTest, RoundTrips) {
  sim::FaultPlan plan;
  plan.seed = 1234;
  plan.drop_publish_rate = 2.0 / 1200;  // sptrsv_tool's sample plan rate
  plan.bitflip_store_rate = 0.5;
  plan.stuck_warp_rate = 0.125;
  plan.mem_delay_rate = 0.25;
  plan.stuck_cycles = 777;
  plan.mem_delay_cycles = 111;
  plan.max_faults = 5;
  const std::string path = testing::TempDir() + "fault_plan.json";
  ASSERT_TRUE(sim::WriteFaultPlanJson(plan, path).ok());
  auto read = sim::ReadFaultPlanJson(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->seed, plan.seed);
  EXPECT_EQ(read->drop_publish_rate, plan.drop_publish_rate);
  EXPECT_EQ(read->bitflip_store_rate, plan.bitflip_store_rate);
  EXPECT_EQ(read->stuck_warp_rate, plan.stuck_warp_rate);
  EXPECT_EQ(read->mem_delay_rate, plan.mem_delay_rate);
  EXPECT_EQ(read->stuck_cycles, plan.stuck_cycles);
  EXPECT_EQ(read->mem_delay_cycles, plan.mem_delay_cycles);
  EXPECT_EQ(read->max_faults, plan.max_faults);
  std::remove(path.c_str());
}

TEST(FaultPlanJsonTest, ScopeRoundTrips) {
  sim::FaultPlan plan;
  plan.seed = 9;
  plan.drop_publish_rate = 1.0;
  plan.row_begin = 64;
  plan.row_end = 128;
  plan.warp_begin = 2;
  plan.warp_end = 4;
  const std::string path = testing::TempDir() + "fault_plan_scope.json";
  ASSERT_TRUE(sim::WriteFaultPlanJson(plan, path).ok());
  auto read = sim::ReadFaultPlanJson(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->row_begin, 64);
  EXPECT_EQ(read->row_end, 128);
  EXPECT_EQ(read->warp_begin, 2);
  EXPECT_EQ(read->warp_end, 4);
  EXPECT_TRUE(read->HasRowScope());
  EXPECT_TRUE(read->HasWarpScope());
  // An unscoped plan round-trips to unscoped (the default -1 sentinels).
  sim::FaultPlan unscoped;
  ASSERT_TRUE(sim::WriteFaultPlanJson(unscoped, path).ok());
  auto read_unscoped = sim::ReadFaultPlanJson(path);
  ASSERT_TRUE(read_unscoped.ok());
  EXPECT_FALSE(read_unscoped->HasRowScope());
  EXPECT_FALSE(read_unscoped->HasWarpScope());
  std::remove(path.c_str());
}

TEST(FaultInjectorTest, RowScopeSuppressesOutOfScopeTids) {
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.drop_publish_rate = 1.0;  // every in-scope event fires
  plan.row_begin = 64;
  plan.row_end = 128;
  sim::FaultInjector injector(plan);
  EXPECT_FALSE(injector.DropPublish(0));
  EXPECT_FALSE(injector.DropPublish(63));
  EXPECT_TRUE(injector.DropPublish(64));
  EXPECT_TRUE(injector.DropPublish(127));
  EXPECT_FALSE(injector.DropPublish(128));
  // tid -1 (direct callers with no row identity) is scope-exempt.
  EXPECT_TRUE(injector.DropPublish());
  // The tid offset maps a range launch's LOCAL tids to global rows: local
  // tid 0 on a device whose block starts at row 64 IS row 64.
  injector.Reseed(plan);
  injector.set_tid_offset(64);
  EXPECT_TRUE(injector.DropPublish(0));
  EXPECT_FALSE(injector.DropPublish(64));  // global row 128: out of scope
}

TEST(FaultInjectorTest, ScopeDoesNotPerturbTheEventStream) {
  // Scoped and unscoped plans share seeds, so decisions at in-scope events
  // must be identical — scoping only SUPPRESSES, it never re-randomizes.
  sim::FaultPlan unscoped;
  unscoped.seed = 21;
  unscoped.drop_publish_rate = 0.3;
  sim::FaultPlan scoped = unscoped;
  scoped.row_begin = 100;
  scoped.row_end = 200;
  sim::FaultInjector a(unscoped);
  sim::FaultInjector b(scoped);
  for (int event = 0; event < 400; ++event) {
    const bool in_scope = event >= 100 && event < 200;
    const bool fired_unscoped = a.DropPublish(event);
    const bool fired_scoped = b.DropPublish(event);
    if (in_scope) {
      EXPECT_EQ(fired_scoped, fired_unscoped) << "event " << event;
    } else {
      EXPECT_FALSE(fired_scoped) << "event " << event;
    }
  }
}

TEST(FaultInjectorTest, WarpScopeCoversWholeWarps) {
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.stuck_warp_rate = 1.0;
  plan.warp_begin = 1;
  plan.warp_end = 2;  // only warp 1 (tids 32..63)
  sim::FaultInjector injector(plan);
  EXPECT_EQ(injector.StuckCycles(0), 0u);    // warp 0
  EXPECT_GT(injector.StuckCycles(32), 0u);   // warp 1
  EXPECT_EQ(injector.StuckCycles(64), 0u);   // warp 2
}

TEST(FaultPlanJsonTest, MissingFileAndGarbageAreErrors) {
  EXPECT_EQ(sim::ReadFaultPlanJson("/nonexistent/plan.json").status().code(),
            StatusCode::kNotFound);
  const std::string path = testing::TempDir() + "fault_garbage.json";
  for (const char* garbage :
       {"not a plan\n", R"({"seed": 7, "drop_publish_rate": 0.5,, oops)",
        R"({"unknown": 1})", R"({"drop_publish_rate": 1.5})",
        R"({"seed": -1})"}) {
    ASSERT_TRUE(WriteFile(path, garbage).ok());
    EXPECT_FALSE(sim::ReadFaultPlanJson(path).ok()) << garbage;
  }
  std::remove(path.c_str());
}

TEST(FaultPlanJsonTest, KeysAreOptionalAndUnknownKeysIgnored) {
  const std::string path = testing::TempDir() + "fault_partial.json";
  ASSERT_TRUE(WriteFile(path, R"({"seed": 3, "note": "x"})").ok());
  auto read = sim::ReadFaultPlanJson(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->seed, 3u);
  EXPECT_EQ(read->drop_publish_rate, sim::FaultPlan{}.drop_publish_rate);
  EXPECT_FALSE(read->HasRowScope());
  std::remove(path.c_str());
}

TEST(FaultPlanJsonTest, WriteReportsAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(sim::WriteFaultPlanJson(sim::FaultPlan{}, "/dev/full").ok());
}

// --- machine-level contracts ------------------------------------------------

TEST(FaultMachineTest, AttachedZeroRateInjectorIsBitIdentical) {
  const Csr matrix = MakeBidiagonal(96);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);

  const Solver clean(Csr(matrix), FaultySolverOptions(nullptr));
  auto baseline = clean.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(baseline.ok());

  sim::FaultInjector injector;  // default plan: every rate zero
  const Solver faulty(Csr(matrix), FaultySolverOptions(&injector));
  auto attached = faulty.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(attached.ok());

  EXPECT_EQ(attached->x, baseline->x);
  EXPECT_EQ(attached->device_stats.cycles, baseline->device_stats.cycles);
  EXPECT_EQ(injector.counts().total(), 0u);
}

TEST(FaultMachineTest, DroppedPublishDeadlocksCapellini) {
  const Csr matrix = MakeBidiagonal(64);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);
  sim::FaultPlan plan;
  plan.drop_publish_rate = 1.0;
  plan.max_faults = 1;  // exactly one dropped flag
  sim::FaultInjector injector(plan);
  const Solver solver(Csr(matrix), FaultySolverOptions(&injector));
  auto result = solver.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlock);
  EXPECT_EQ(injector.counts()[sim::FaultKind::kDropPublish], 1u);
}

TEST(FaultMachineTest, BitFlipIsSilentUntilVerification) {
  const Csr matrix = MakeBidiagonal(64);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);
  sim::FaultPlan plan;
  plan.bitflip_store_rate = 1.0;
  plan.max_faults = 1;
  sim::FaultInjector injector(plan);
  const Solver solver(Csr(matrix), FaultySolverOptions(&injector));
  auto result = solver.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(result.ok());  // the solve itself reports success...
  const Verification verdict = VerifySolution(matrix, problem.b, result->x);
  EXPECT_FALSE(verdict.passed);  // ...only the residual catches the damage
  EXPECT_GT(verdict.residual, 1e-8);
}

TEST(FaultMachineTest, TimingFaultsAreValueNeutral) {
  const Csr matrix = MakeBidiagonal(96);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);

  const Solver clean(Csr(matrix), FaultySolverOptions(nullptr));
  auto baseline = clean.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(baseline.ok());

  sim::FaultPlan plan;
  plan.seed = 3;
  plan.stuck_warp_rate = 0.02;
  plan.mem_delay_rate = 0.02;
  sim::FaultInjector injector(plan);
  const Solver faulty(Csr(matrix), FaultySolverOptions(&injector));
  auto jittered = faulty.Solve(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(jittered.ok());
  EXPECT_GT(injector.counts().total(), 0u);
  EXPECT_EQ(jittered->x, baseline->x);  // schedule moved, values did not
  EXPECT_NE(jittered->device_stats.cycles, baseline->device_stats.cycles);
}

// --- verification and the retry ladder ---------------------------------------

TEST(VerifyTest, ExactSolutionPasses) {
  const Csr matrix = MakeBidiagonal(64);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);
  const Verification verdict =
      VerifySolution(matrix, problem.b, problem.x_true);
  EXPECT_TRUE(verdict.finite);
  EXPECT_TRUE(verdict.passed);
  EXPECT_LE(verdict.residual, 1e-12);
}

TEST(VerifyTest, NanAndPerturbationFail) {
  const Csr matrix = MakeBidiagonal(64);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);

  std::vector<Val> poisoned = problem.x_true;
  poisoned[10] = std::nan("");
  const Verification nan_verdict = VerifySolution(matrix, problem.b, poisoned);
  EXPECT_FALSE(nan_verdict.finite);
  EXPECT_FALSE(nan_verdict.passed);
  EXPECT_TRUE(std::isinf(nan_verdict.residual));

  std::vector<Val> perturbed = problem.x_true;
  perturbed[10] *= 2.0;  // what an exponent-bit flip does
  EXPECT_FALSE(VerifySolution(matrix, problem.b, perturbed).passed);
}

// An infinite value outside the checked rows makes a scaling norm infinite,
// which would scale every residual of the block to 0 and pass a wrong
// block, so the block fails with an infinite residual; `finite` still
// describes the block alone. A NaN outside the block skips the norms.
TEST(VerifyTest, InfiniteValueOutsideTheRangeFailsIt) {
  const Csr identity(4, 4, {0, 1, 2, 3, 4}, {0, 1, 2, 3}, {1, 1, 1, 1});
  const std::vector<Val> b(4, 1.0);
  std::vector<Val> x = {2.0, 1.0, 1.0, 1.0};
  const Verification wrong = VerifyRange(identity, b, x, 0, 2);
  EXPECT_TRUE(wrong.finite);
  EXPECT_FALSE(wrong.passed);
  EXPECT_DOUBLE_EQ(wrong.residual, 1.0 / 3.0);

  const double inf = std::numeric_limits<double>::infinity();
  for (const Val poison : {inf, -inf}) {
    x[3] = poison;
    const Verification v = VerifyRange(identity, b, x, 0, 2);
    EXPECT_TRUE(v.finite) << poison;
    EXPECT_FALSE(v.passed) << poison;
    EXPECT_EQ(v.residual, inf) << poison;
  }
  x[3] = std::nan("");
  EXPECT_FALSE(VerifyRange(identity, b, x, 0, 2).passed);
  EXPECT_DOUBLE_EQ(VerifyRange(identity, b, x, 0, 2).residual, 1.0 / 3.0);

  // A right block fails too while x or b holds an infinite value, and passes
  // beside a NaN it does not read.
  x = {1.0, 1.0, 1.0, inf};
  EXPECT_FALSE(VerifyRange(identity, b, x, 0, 2).passed);
  x[3] = std::nan("");
  EXPECT_TRUE(VerifyRange(identity, b, x, 0, 2).passed);
  x[3] = 1.0;
  EXPECT_TRUE(VerifyRange(identity, b, x, 0, 2).passed);
  std::vector<Val> poisoned_b = b;
  poisoned_b[3] = -inf;
  const Verification v = VerifyRange(identity, poisoned_b, x, 0, 2);
  EXPECT_TRUE(v.finite);
  EXPECT_FALSE(v.passed);
  EXPECT_EQ(v.residual, inf);
  poisoned_b[3] = std::nan("");
  EXPECT_TRUE(VerifyRange(identity, poisoned_b, x, 0, 2).passed);
}

// A non-finite b value inside the checked rows fails them with an infinite
// residual. `finite` still describes x alone.
TEST(VerifyTest, NonFiniteBInsideTheRangeFailsIt) {
  const Csr identity(4, 4, {0, 1, 2, 3, 4}, {0, 1, 2, 3}, {1, 1, 1, 1});
  const std::vector<Val> x(4, 1.0);
  const double inf = std::numeric_limits<double>::infinity();
  for (const Val poison : {std::nan(""), -std::nan(""), inf, -inf}) {
    const std::vector<Val> b = {1.0, poison, 1.0, 1.0};
    const Verification whole = VerifySolution(identity, b, x);
    EXPECT_TRUE(whole.finite) << poison;
    EXPECT_FALSE(whole.passed) << poison;
    EXPECT_EQ(whole.residual, inf) << poison;
    EXPECT_FALSE(VerifyRange(identity, b, x, 1, 2).passed) << poison;
    EXPECT_EQ(VerifyRange(identity, b, x, 1, 2).residual, inf) << poison;
  }
  // A NaN in b outside the block is read by none of its rows.
  const std::vector<Val> b = {1.0, std::nan(""), 1.0, 1.0};
  EXPECT_TRUE(VerifyRange(identity, b, x, 2, 4).passed);
  EXPECT_EQ(VerifyRange(identity, b, x, 2, 4).residual, 0.0);
}

// A NaN x value below a block that the block reads makes that row's residual
// NaN, which the max skips, so the block passes on its other rows. The
// fleet's survivor pre-pass relies on it: a device whose rows read an
// upstream device's NaN stays eligible to redo another device's rows.
TEST(VerifyTest, NanBelowTheRangeThatTheRangeReadsPasses) {
  // Bidiagonal: row i reads x[i - 1] and x[i].
  const Csr lower(4, 4, {0, 1, 3, 5, 7}, {0, 0, 1, 1, 2, 2, 3},
                  {1, 1, 1, 1, 1, 1, 1});
  const std::vector<Val> b = {1.0, 2.0, 2.0, 2.0};
  std::vector<Val> x = {std::nan(""), 1.0, 1.0, 1.0};
  const Verification block = VerifyRange(lower, b, x, 1, 4);
  EXPECT_TRUE(block.finite);
  EXPECT_TRUE(block.passed);
  EXPECT_EQ(block.residual, 0.0);
  // The same NaN inside the checked rows fails them.
  EXPECT_FALSE(VerifyRange(lower, b, x, 0, 4).passed);
  EXPECT_FALSE(VerifyRange(lower, b, x, 0, 4).finite);
}

// ||L||inf*||x||inf + ||b||inf overflows for finite values near DBL_MAX; the
// ratio is still taken, so a wrong row fails. A row residual that itself
// overflows, to +inf or through +inf and -inf partial sums to NaN, fails
// with an infinite residual.
TEST(VerifyTest, OverflowingDenominatorStillScalesTheResidual) {
  const double max = std::numeric_limits<double>::max();
  const Csr lower(2, 2, {0, 1, 3}, {0, 0, 1}, {1, 2, 1});
  // Row 0 is wrong by 0.75 * DBL_MAX; ||L|| = 3, so the denominator is
  // 0.75 * DBL_MAX + DBL_MAX.
  const Verification wrong =
      VerifySolution(lower, std::vector<Val>{max, 0.0},
                     std::vector<Val>{max / 4.0, 5.0});
  EXPECT_TRUE(wrong.finite);
  EXPECT_FALSE(wrong.passed);
  EXPECT_DOUBLE_EQ(wrong.residual, 0.75 / 1.75);

  // Row 0's residual is x0 - b0 = 2 * DBL_MAX.
  const Verification overflowed =
      VerifySolution(lower, std::vector<Val>{-max, 0.0},
                     std::vector<Val>{max, 0.0});
  EXPECT_TRUE(overflowed.finite);
  EXPECT_FALSE(overflowed.passed);
  EXPECT_EQ(overflowed.residual, std::numeric_limits<double>::infinity());

  // x = {DBL_MAX, -DBL_MAX/2} solves b = {DBL_MAX, DBL_MAX}; x1 = -DBL_MAX is
  // wrong by DBL_MAX/2. Row 1's partial sums overflow to +inf and then meet
  // -inf, which makes its residual NaN though it read no NaN: it fails like
  // an overflowed row, and does not drop out of the max.
  const Csr doubled(2, 2, {0, 1, 3}, {0, 0, 1}, {1, 2, 2});
  const Verification cancelled =
      VerifySolution(doubled, std::vector<Val>{max, max},
                     std::vector<Val>{max, -max});
  EXPECT_TRUE(cancelled.finite);
  EXPECT_FALSE(cancelled.passed);
  EXPECT_EQ(cancelled.residual, std::numeric_limits<double>::infinity());

  // A right answer at the same scale still passes: x = {DBL_MAX/4, -DBL_MAX/2}
  // solves b = {DBL_MAX/4, 0} exactly, and ||L||*||x|| = 1.5 * DBL_MAX.
  const Verification right =
      VerifySolution(lower, std::vector<Val>{max / 4.0, 0.0},
                     std::vector<Val>{max / 4.0, -max / 2.0});
  EXPECT_TRUE(right.passed);
  EXPECT_EQ(right.residual, 0.0);
}

/// VerifyRange as a sequential fold: a finiteness pass over the block, then
/// one max pass each over x and b. Kept as the reference the single-read
/// vector scans must reproduce bit for bit. `denominator` is its
/// ||L||inf*||x||inf + ||b||inf, and `scaled_residual` the same quotient
/// taken at a 2^-64 scale, which stays finite for the factors below.
struct SequentialFold {
  Verification verdict;
  double denominator = 0.0;
  double residual_inf = 0.0;
  double scaled_residual = 0.0;
};

SequentialFold SequentialVerifyRange(const Csr& lower, std::span<const Val> b,
                                     std::span<const Val> x, Idx row_begin,
                                     Idx row_end, double bound) {
  SequentialFold fold;
  Verification& v = fold.verdict;
  v.finite = true;
  for (Idx i = row_begin; i < row_end; ++i) {
    if (!std::isfinite(x[static_cast<std::size_t>(i)])) {
      v.finite = false;
      v.residual = std::numeric_limits<double>::infinity();
      return fold;
    }
  }
  double x_inf = 0.0;
  for (const Val value : x) x_inf = std::max(x_inf, std::abs(value));
  double b_inf = 0.0;
  for (const Val value : b) b_inf = std::max(b_inf, std::abs(value));
  double residual_inf = 0.0;
  double matrix_inf = 0.0;
  for (Idx i = row_begin; i < row_end; ++i) {
    double row_sum = 0.0;
    double row_abs = 0.0;
    const auto cols = lower.RowCols(i);
    const auto vals = lower.RowVals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      row_sum += vals[k] * x[static_cast<std::size_t>(cols[k])];
      row_abs += std::abs(vals[k]);
    }
    residual_inf = std::max(
        residual_inf, std::abs(row_sum - b[static_cast<std::size_t>(i)]));
    matrix_inf = std::max(matrix_inf, row_abs);
  }
  const double denom = matrix_inf * x_inf + b_inf;
  v.residual = denom > 0.0 ? residual_inf / denom : residual_inf;
  v.passed = v.finite && v.residual <= bound;
  fold.denominator = denom;
  fold.residual_inf = residual_inf;
  fold.scaled_residual =
      std::ldexp(residual_inf, -64) /
      (matrix_inf * std::ldexp(x_inf, -64) + std::ldexp(b_inf, -64));
  return fold;
}

bool HasInf(std::span<const Val> values) {
  return std::any_of(values.begin(), values.end(),
                     [](Val value) { return std::isinf(value); });
}

bool HasNan(std::span<const Val> values) {
  return std::any_of(values.begin(), values.end(),
                     [](Val value) { return std::isnan(value); });
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::vector<std::uint64_t> Bits(std::span<const Val> values) {
  std::vector<std::uint64_t> bits;
  for (const Val value : values) bits.push_back(Bits(value));
  return bits;
}

/// NaN, ±inf, -0.0, subnormals and DBL_MAX: the values the randomized
/// verification tests plant.
constexpr double kInf = std::numeric_limits<double>::infinity();
const Val kSpecials[] = {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         kInf,
                         -kInf,
                         -0.0,
                         0.0,
                         std::numeric_limits<double>::denorm_min(),
                         -4.9e-310,
                         std::numeric_limits<double>::max()};

// Random factors, ranges and vectors with NaN, ±inf, -0.0, subnormals and
// DBL_MAX at random places. Every verdict equals the sequential fold's,
// residual bits included, except where the fold lets a wrong block pass:
// an infinite value outside the block made its norm infinite, or a NaN or
// infinite b value sits inside the block (both now fail with an infinite
// residual), or its denominator overflowed to +inf (the residual is now the
// quotient taken at a power-of-two scale, or +inf where a row residual
// overflowed).
TEST(VerifyTest, VectorScansMatchTheSequentialFold) {
  Rng rng(2024);
  int changed = 0;
  int nonfinite_b = 0;
  int overflowed = 0;
  int compared = 0;
  int compared_with_nan = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Idx n = static_cast<Idx>(rng.NextInt(1, 67));
    Csr lower = MakeRandomLower({.rows = n,
                                 .avg_strict_nnz_per_row = 2.0,
                                 .window = 0,
                                 .empty_row_fraction = 0.2,
                                 .seed = rng.Next()});
    for (Val& a : lower.mutable_val()) {
      if (rng.NextBool(0.05)) a = -0.0;
      if (rng.NextBool(0.05)) a = 4.9e-320;
    }
    std::vector<Val> x(static_cast<std::size_t>(n));
    std::vector<Val> b(static_cast<std::size_t>(n));
    for (Val& value : x) value = rng.NextDouble(-4.0, 4.0);
    for (Val& value : b) value = rng.NextDouble(-4.0, 4.0);
    // A third of the trials stay all finite; the rest plant a few specials.
    const int plants = trial % 3 == 0 ? 0 : static_cast<int>(rng.NextInt(1, 4));
    for (int p = 0; p < plants; ++p) {
      std::vector<Val>& target = rng.NextBool(0.7) ? x : b;
      target[rng.NextBounded(target.size())] =
          kSpecials[rng.NextBounded(std::size(kSpecials))];
    }
    const Idx begin = static_cast<Idx>(rng.NextInt(0, n));
    const Idx end = static_cast<Idx>(rng.NextInt(begin, n));
    const double bound = rng.NextBool(0.5) ? 1e-8 : 0.5;

    VerifyOptions options;
    options.residual_bound = bound;
    const Verification got = VerifyRange(lower, b, x, begin, end, options);
    const SequentialFold fold =
        SequentialVerifyRange(lower, b, x, begin, end, bound);
    const Verification& want = fold.verdict;
    EXPECT_EQ(got.finite, want.finite) << "trial " << trial;
    const std::span<const Val> b_block(b.data() + begin,
                                       static_cast<std::size_t>(end - begin));
    if (want.finite && (HasInf(x) || HasInf(b))) {
      ++changed;
      EXPECT_FALSE(got.passed) << "trial " << trial;
      EXPECT_EQ(got.residual, kInf) << "trial " << trial;
      continue;
    }
    if (want.finite && HasNan(b_block)) {
      ++nonfinite_b;
      EXPECT_FALSE(got.passed) << "trial " << trial;
      EXPECT_EQ(got.residual, kInf) << "trial " << trial;
      continue;
    }
    if (want.finite && std::isinf(fold.denominator)) {
      ++overflowed;
      if (std::isinf(fold.residual_inf)) {
        EXPECT_FALSE(got.passed) << "trial " << trial;
        EXPECT_EQ(got.residual, kInf) << "trial " << trial;
        continue;
      }
      // One rounding apart at most, or a few ulps in the subnormal range.
      EXPECT_LE(std::abs(got.residual - fold.scaled_residual),
                1e-15 * fold.scaled_residual + 1e-320)
          << "trial " << trial << ": " << got.residual << " vs "
          << fold.scaled_residual;
      EXPECT_EQ(got.passed, fold.scaled_residual <= bound) << "trial " << trial;
      continue;
    }
    ++compared;
    compared_with_nan += want.finite && (HasNan(x) || HasNan(b));
    EXPECT_EQ(got.passed, want.passed) << "trial " << trial;
    EXPECT_EQ(Bits(got.residual), Bits(want.residual))
        << "trial " << trial << ": " << got.residual << " vs "
        << want.residual;
  }
  // Every branch ran often enough to mean something, and the bit-exact one
  // also with a NaN outside the checked rows.
  EXPECT_GT(changed, 50) << changed;
  EXPECT_GT(nonfinite_b, 5) << nonfinite_b;
  EXPECT_GT(overflowed, 20) << overflowed;
  EXPECT_GT(compared, 200) << compared;
  EXPECT_GT(compared_with_nan, 50) << compared_with_nan;
}

// The host rung's one-pass solve and check against its two-pass definition:
// random factors, row ranges and vectors with NaN, ±inf, -0.0, subnormals and
// DBL_MAX planted in b and in x below the range. x and every Verification
// field equal host::SolveSerial followed by VerifyRange bit for bit, for the
// whole matrix and for a row range.
TEST(VerifyTest, SolveSerialVerifiedMatchesSolveThenVerifyRange) {
  Rng rng(4096);
  int passed = 0;
  int failed = 0;
  int nonfinite = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Idx n = static_cast<Idx>(rng.NextInt(1, 67));
    const Csr lower = MakeRandomLower({.rows = n,
                                       .avg_strict_nnz_per_row = 2.0,
                                       .window = 0,
                                       .empty_row_fraction = 0.2,
                                       .seed = rng.Next()});
    const bool whole = trial % 2 == 0;
    const Idx begin = whole ? 0 : static_cast<Idx>(rng.NextInt(0, n));
    const Idx end = whole ? n : static_cast<Idx>(rng.NextInt(begin, n));
    std::vector<Val> x(static_cast<std::size_t>(n));
    std::vector<Val> b(static_cast<std::size_t>(n));
    for (Val& value : x) value = rng.NextDouble(-4.0, 4.0);
    for (Val& value : b) value = rng.NextDouble(-4.0, 4.0);
    const int plants = trial % 3 == 0 ? 0 : static_cast<int>(rng.NextInt(1, 4));
    for (int p = 0; p < plants; ++p) {
      const Val special = kSpecials[rng.NextBounded(std::size(kSpecials))];
      if (begin > 0 && rng.NextBool(0.5)) {
        x[rng.NextBounded(static_cast<std::uint64_t>(begin))] = special;
      } else {
        b[rng.NextBounded(b.size())] = special;
      }
    }
    VerifyOptions options;
    options.residual_bound = rng.NextBool(0.5) ? 1e-8 : 0.5;

    std::vector<Val> want_x = x;
    ASSERT_TRUE(host::SolveSerial(lower, b, want_x, begin, end).ok());
    const Verification want =
        VerifyRange(lower, b, want_x, begin, end, options);
    std::vector<Val> got_x = x;
    const auto got = SolveSerialVerified(lower, b, got_x, begin, end, options);
    ASSERT_TRUE(got.ok()) << "trial " << trial;
    EXPECT_EQ(Bits(got_x), Bits(want_x)) << "trial " << trial;
    EXPECT_EQ(got->finite, want.finite) << "trial " << trial;
    EXPECT_EQ(got->passed, want.passed) << "trial " << trial;
    EXPECT_EQ(Bits(got->residual), Bits(want.residual))
        << "trial " << trial << ": " << got->residual << " vs "
        << want.residual;
    ++(want.passed ? passed : failed);
    nonfinite += !want.finite;
  }
  EXPECT_GT(passed, 150) << passed;
  EXPECT_GT(failed, 150) << failed;
  EXPECT_GT(nonfinite, 50) << nonfinite;
}

TEST(ReliableSolveTest, CleanSolveIsOneVerifiedAttempt) {
  const Csr matrix = MakeBidiagonal(64);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);
  const Solver solver(Csr(matrix), FaultySolverOptions(nullptr));
  auto result = solver.SolveReliable(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verified);
  ASSERT_EQ(result->attempts.size(), 1u);
  EXPECT_EQ(result->attempts[0].algorithm, Algorithm::kCapellini);
  EXPECT_EQ(result->attempts[0].status, StatusCode::kOk);
  EXPECT_EQ(result->final_algorithm, Algorithm::kCapellini);
  EXPECT_GT(result->verify_ms, 0.0);
}

// The host serial rung verifies inside its own substitution pass: one
// verified attempt with the two-pass path's x and residual bits, its host
// time in solve_ms and nothing in verify_ms.
TEST(ReliableSolveTest, HostRungVerifiesInItsOwnPass) {
  const Csr matrix = MakeRandomLower({.rows = 4096,
                                      .avg_strict_nnz_per_row = 3.0,
                                      .window = 0,
                                      .empty_row_fraction = 0.2,
                                      .seed = 11});
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);
  const Solver solver{Csr(matrix)};
  auto result = solver.SolveReliable(Algorithm::kSerialCpu, problem.b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verified);
  ASSERT_EQ(result->attempts.size(), 1u);
  EXPECT_EQ(result->attempts[0].algorithm, Algorithm::kSerialCpu);
  EXPECT_EQ(result->attempts[0].status, StatusCode::kOk);
  EXPECT_TRUE(result->attempts[0].verified);
  EXPECT_EQ(result->final_algorithm, Algorithm::kSerialCpu);
  EXPECT_GT(result->solve.solve_ms, 0.0);
  EXPECT_EQ(result->verify_ms, 0.0);

  std::vector<Val> x(problem.b.size());
  ASSERT_TRUE(host::SolveSerial(matrix, problem.b, x).ok());
  EXPECT_EQ(Bits(result->solve.x), Bits(x));
  EXPECT_EQ(Bits(result->attempts[0].residual),
            Bits(VerifySolution(matrix, problem.b, x).residual));
}

TEST(ReliableSolveTest, RecoversFromInjectedDeadlock) {
  const Csr matrix = MakeBidiagonal(64);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);
  sim::FaultPlan plan;
  plan.drop_publish_rate = 1.0;
  plan.max_faults = 1;  // rung 0 eats the whole fault budget
  sim::FaultInjector injector(plan);
  const Solver solver(Csr(matrix), FaultySolverOptions(&injector));
  auto result = solver.SolveReliable(Algorithm::kCapellini, problem.b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verified);
  ASSERT_GE(result->attempts.size(), 2u);
  EXPECT_EQ(result->attempts[0].algorithm, Algorithm::kCapellini);
  EXPECT_EQ(result->attempts[0].status, StatusCode::kDeadlock);
  EXPECT_NE(result->final_algorithm, Algorithm::kCapellini);
  EXPECT_LE(MaxRelativeError(result->solve.x, problem.x_true), 1e-10);
}

TEST(ReliableSolveTest, CustomLadderIsHonored) {
  const Csr matrix = MakeBidiagonal(64);
  const ReferenceProblem problem = MakeReferenceProblem(matrix, 5);
  sim::FaultPlan plan;
  plan.drop_publish_rate = 1.0;
  plan.max_faults = 1;
  sim::FaultInjector injector(plan);
  const Solver solver(Csr(matrix), FaultySolverOptions(&injector));
  ReliableOptions options;
  options.ladder = {Algorithm::kSerialCpu};
  auto result =
      solver.SolveReliable(Algorithm::kCapellini, problem.b, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verified);
  ASSERT_EQ(result->attempts.size(), 2u);
  EXPECT_EQ(result->final_algorithm, Algorithm::kSerialCpu);
}

TEST(ReliableSolveTest, DefaultLadderEndsAtTheImmuneHostRung) {
  const std::vector<Algorithm> ladder = DefaultRetryLadder();
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder.back(), Algorithm::kSerialCpu);
  for (const Algorithm rung : ladder) {
    EXPECT_NE(rung, Algorithm::kCapelliniNaive);  // never in a ladder
  }
}

}  // namespace
}  // namespace capellini
