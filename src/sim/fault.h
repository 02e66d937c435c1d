// Deterministic fault injection for the simulated GPU.
//
// The paper's sync-free kernels assume every value/flag publish lands and
// every spin-wait eventually observes it. On real GPUs those are
// memory-ordering and forward-progress assumptions, not guarantees. A
// FaultInjector attached to sim::Machine (set_fault_injector, the same seam
// as the TraceSink) injects the hazards the paper waves away:
//
//  * dropped publishes   — a MarkPublish-annotated store vanishes before
//                          reaching memory (bandwidth is still spent). For
//                          the flag-based kernels this starves every
//                          dependent row's spin-wait: the no-progress
//                          watchdog converts it into kDeadlock. For
//                          level-set, the solution silently loses a value.
//  * bit-flipped stores  — an f64 store lands with its low exponent bit
//                          flipped (value halved or doubled): a loud silent
//                          corruption only post-solve verification catches.
//  * stuck warps         — a ready warp is parked for `stuck_cycles` instead
//                          of issuing (scheduling jitter; timing-only).
//  * delayed memory      — a load/atomic completion is pushed
//                          `mem_delay_cycles` further out (timing-only).
//
// Determinism is the contract: every decision is a pure hash of
// (plan.seed, fault kind, per-kind event counter), so the same plan against
// the same workload injects the same faults at the same events — same seed
// => same faults => same recovery path. A null injector, or an attached
// injector whose rates are all zero, leaves timing and results bit-identical
// to an untouched machine (bench_faults gates this with a checksum).
//
// Like trace/sink.h this header sits below the support layer: sim/machine
// includes it, so it depends only on the standard library and
// support/status.h.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "support/status.h"

namespace capellini::sim {

enum class FaultKind {
  kDropPublish = 0,
  kBitFlipStore,
  kStuckWarp,
  kMemDelay,
};
inline constexpr int kNumFaultKinds = 4;

const char* FaultKindName(FaultKind kind);

/// What to inject and how often. Rates are per-opportunity probabilities:
/// per published lane-store, per f64 lane-store, per issued
/// warp-instruction, per stalled load/atomic respectively.
struct FaultPlan {
  std::uint64_t seed = 1;
  double drop_publish_rate = 0.0;
  double bitflip_store_rate = 0.0;
  double stuck_warp_rate = 0.0;
  double mem_delay_rate = 0.0;
  /// How long a stuck warp is parked before re-entering the ready queue.
  std::uint64_t stuck_cycles = 2000;
  /// Extra cycles added to a delayed memory response.
  std::uint64_t mem_delay_cycles = 600;
  /// Total faults injected across all kinds (0 = unlimited). max_faults = 1
  /// is the property-test's "exactly one dropped flag" scenario.
  std::uint64_t max_faults = 0;
  /// Scope: when a range is set (0 <= begin < end), injection only fires for
  /// events whose global thread id (== row for the thread-per-row kernels,
  /// after the injector's tid offset) falls in [row_begin, row_end), and/or
  /// whose warp id (global tid / 32) falls in [warp_begin, warp_end). Both
  /// set = both must match. Scoping suppresses an injection AFTER the
  /// per-event hash is consumed, so scoped and unscoped plans with the same
  /// seed see the same event stream: a scoped plan injects exactly the
  /// subset of the unscoped plan's faults that lands in range. Fleet tests
  /// use this to kill one device's partition and assert the rest run clean.
  std::int64_t row_begin = -1;
  std::int64_t row_end = -1;
  std::int64_t warp_begin = -1;
  std::int64_t warp_end = -1;

  bool HasRowScope() const { return row_begin >= 0 && row_end > row_begin; }
  bool HasWarpScope() const { return warp_begin >= 0 && warp_end > warp_begin; }

  bool Enabled() const {
    return drop_publish_rate > 0.0 || bitflip_store_rate > 0.0 ||
           stuck_warp_rate > 0.0 || mem_delay_rate > 0.0;
  }
};

/// Faults actually injected, by kind.
struct FaultCounts {
  std::array<std::uint64_t, kNumFaultKinds> injected{};
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : injected) sum += v;
    return sum;
  }
  std::uint64_t operator[](FaultKind kind) const {
    return injected[static_cast<std::size_t>(kind)];
  }
};

/// Attach with Machine::set_fault_injector. The injector may stay attached
/// across launches (a multi-launch level-set solve keeps advancing the same
/// event counters); Reseed restarts the event stream for a fresh run.
/// Counters are atomic so one injector can be observed while a solve runs,
/// but decisions are only deterministic when a single Machine consumes them:
/// the serial solve paths, or one injector per device in a fleet, whose
/// devices run at the same time on several host threads.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// Replaces the plan and zeroes every counter: the next event stream is
  /// exactly the one a fresh injector with this plan would produce.
  void Reseed(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }
  FaultCounts counts() const;

  /// A point in the event stream: every per-kind event and injection
  /// counter.
  struct Mark {
    std::array<std::uint64_t, kNumFaultKinds> events{};
    std::array<std::uint64_t, kNumFaultKinds> injected{};
    std::uint64_t total_injected = 0;
    bool operator==(const Mark&) const = default;
  };
  Mark mark() const;
  /// Returns to `mark`: the events consumed since never happened, so the
  /// next decisions are the ones that followed `mark`. The fleet rewinds a
  /// device whose first-pass launch it discards, as if it had never
  /// launched.
  void Rewind(const Mark& mark);

  /// Added to the tids the Machine hands the hooks before the plan's scope is
  /// checked. A fleet device whose partition starts at global row R attaches
  /// an injector with set_tid_offset(R), so one plan written in global row
  /// coordinates targets the same rows no matter which device owns them.
  void set_tid_offset(std::int64_t offset) { tid_offset_ = offset; }
  std::int64_t tid_offset() const { return tid_offset_; }

  // --- decision hooks (called by sim::Machine) -----------------------------
  // The tid identifies the event's thread for the plan's row/warp scope:
  // per-lane hooks pass the lane's global tid, per-warp hooks the warp's
  // base tid (the scope check covers all 32 lanes). The default -1 is
  // scope-exempt — direct callers (tests) keep the unscoped behaviour.

  /// One publish-annotated lane-store is about to land; true = drop it.
  bool DropPublish(std::int64_t tid = -1) {
    return Decide(FaultKind::kDropPublish, plan_.drop_publish_rate, tid, 1);
  }

  /// One f64 lane-store is about to land; flips `value`'s low exponent bit
  /// (halving or doubling it) and returns true when injecting.
  bool MaybeFlipStoreBit(double& value, std::int64_t tid = -1);

  /// One ready warp is about to issue; nonzero = park it this many cycles.
  std::uint64_t StuckCycles(std::int64_t tid = -1) {
    return Decide(FaultKind::kStuckWarp, plan_.stuck_warp_rate, tid, 32)
               ? plan_.stuck_cycles
               : 0;
  }

  /// One load/atomic stall completed accounting; nonzero = extra delay.
  std::uint64_t ExtraMemDelay(std::int64_t tid = -1) {
    return Decide(FaultKind::kMemDelay, plan_.mem_delay_rate, tid, 32)
               ? plan_.mem_delay_cycles
               : 0;
  }

 private:
  bool Decide(FaultKind kind, double rate, std::int64_t tid, int span);
  bool InScope(std::int64_t tid, int span) const;

  FaultPlan plan_;
  std::int64_t tid_offset_ = 0;
  // Opportunities seen per kind (every call advances one); decisions hash
  // (seed, kind, this counter), so they are independent of wall clock and of
  // the other kinds' traffic.
  std::array<std::atomic<std::uint64_t>, kNumFaultKinds> events_{};
  std::array<std::atomic<std::uint64_t>, kNumFaultKinds> injected_{};
  std::atomic<std::uint64_t> total_injected_{0};
};

/// RAII guard for FaultInjector::set_tid_offset: installs `offset` for the
/// guarded scope and restores the previous offset on exit — the same
/// discipline Machine::Launch applies to its external-store list. The fleet
/// wraps every per-device (and every recovery re-execution) launch in one of
/// these, so a later single-device run on the same injector never inherits a
/// stale global-row offset.
class ScopedTidOffset {
 public:
  ScopedTidOffset(FaultInjector* injector, std::int64_t offset)
      : injector_(injector),
        saved_(injector != nullptr ? injector->tid_offset() : 0) {
    if (injector_ != nullptr) injector_->set_tid_offset(offset);
  }
  ~ScopedTidOffset() {
    if (injector_ != nullptr) injector_->set_tid_offset(saved_);
  }
  ScopedTidOffset(const ScopedTidOffset&) = delete;
  ScopedTidOffset& operator=(const ScopedTidOffset&) = delete;

 private:
  FaultInjector* injector_;
  std::int64_t saved_;
};

/// {"seed":7,"drop_publish_rate":0.001,...} — the sptrsv_tool --faults
/// format; every field round-trips exactly (support/json.h). The reader
/// takes any subset of keys (defaults for the rest, unknown keys ignored),
/// requires rates in [0, 1] and rejects a file with no plan key.
Status WriteFaultPlanJson(const FaultPlan& plan, const std::string& path);
Expected<FaultPlan> ReadFaultPlanJson(const std::string& path);

/// One line for logs/benches: "seed=7 drop=1e-3 flip=0 ... injected=3".
std::string FaultPlanSummary(const FaultPlan& plan);

}  // namespace capellini::sim
