// A count-driven circuit breaker: the one closed/open/half-open state machine
// behind serve's per-handle breaker and the fleet's per-device health tracker
// (DESIGN.md §4e, §4j).
//
//   kClosed --(threshold consecutive failures, or a full window at
//              >= rate failures)--> kOpen
//   kOpen --(probe_cooldown deflections)--> kHalfOpen (one request is let
//              through as the probe)
//   kHalfOpen --(probe succeeds)--> kClosed
//             --(probe fails, is aborted, or times out)--> kOpen (fresh
//              cooldown)
//
// Every transition is driven by call counts, never wall clock, so replayed
// traffic takes the identical path. A Breaker is a plain value with no lock:
// each user keeps many of them (one per handle, one per device) under its
// own mutex and turns the returned decisions and transitions into its own
// counters.
#pragma once

#include <deque>

namespace capellini {

struct BreakerOptions {
  /// Consecutive failures that open the breaker. 0 disables the consecutive
  /// mode.
  int threshold = 0;
  /// Sliding-window mode: open when the last `window` outcomes are all
  /// recorded and at least `rate` of them failed (rate clamped to (0, 1]).
  /// 0 disables window mode. Either mode's trip opens; both may be enabled.
  int window = 0;
  double rate = 0.5;
  /// Deflections while open before one probe is let through.
  int probe_cooldown = 4;
  /// Deflections while a probe is in flight before it is declared lost and
  /// the breaker re-opens with a fresh cooldown: without it, a probe that
  /// never reports would keep the breaker half-open forever. 0 = no timeout.
  int probe_timeout = 16;

  bool enabled() const { return threshold > 0 || window > 0; }
};

class Breaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };
  /// What one request does: use the guarded resource, use it as the
  /// half-open probe, or go elsewhere.
  enum class Decision { kAllow, kProbe, kDeflect };
  /// The state change one call made, for the caller's counters.
  enum class Transition {
    kNone,
    kTripped,         // kClosed -> kOpen: a trip rule fired
    kProbeFailed,     // kHalfOpen -> kOpen: the probe reported a failure
    kProbeSucceeded,  // kHalfOpen -> kClosed
    kProbeLost,       // kHalfOpen -> kOpen: aborted, or timed out
  };
  struct Admission {
    Decision decision = Decision::kAllow;
    Transition transition = Transition::kNone;  // kProbeLost on a timeout
  };

  explicit Breaker(const BreakerOptions& options) : options_(options) {}

  Admission Admit();
  /// One terminal outcome of an admitted request. Resolves an in-flight
  /// probe; ignored while open (a stale report from a request admitted
  /// before the breaker opened).
  Transition Report(bool failure);
  /// Abandons an in-flight probe whose outcome can never arrive. No-op in
  /// any other state.
  Transition AbortProbe();
  State state() const { return state_; }

 private:
  /// -> kOpen with a fresh cooldown; clears the trip evidence, so each open
  /// needs fresh evidence.
  void Open();

  BreakerOptions options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int open_skips_ = 0;
  int probe_deflections_ = 0;
  /// Last `window` outcomes (true = failure), oldest first; window mode only.
  std::deque<bool> window_;
};

}  // namespace capellini
