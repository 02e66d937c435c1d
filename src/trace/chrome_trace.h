// Chrome trace-event exporter: turns the machine's event stream into the
// JSON array format understood by Perfetto (ui.perfetto.dev) and
// chrome://tracing.
//
// Track layout: one process per SM ("SM <n>"), one thread per resident warp
// slot. Each warp's residency is a complete slice; memory/atomic/poll stalls
// nest inside it; publishes and block dispatches are instant events. Kernel
// launches appear as slices on a synthetic "device" process so multi-launch
// (level-set) solves show their per-level structure.
//
// Timestamps are simulated cycles written as integer "microseconds" (the
// viewer's native unit): 1 us on screen == 1 simulated cycle. The simulator
// is deterministic and so is this exporter — the same solve produces a
// byte-identical file, which tests assert.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "support/json.h"
#include "support/status.h"
#include "trace/sink.h"

namespace capellini::trace {

class ChromeTraceSink : public TraceSink {
 public:
  struct Options {
    /// Hard cap on retained events; a full-size solve emits one stall slice
    /// per load, which adds up. Past the cap new events are dropped (and
    /// counted in the emitted metadata) rather than growing without bound.
    std::size_t max_events = 4'000'000;
    /// Per-issue instruction slices are enormous and rarely needed; off by
    /// default. Stall/warp/publish granularity is usually what you want.
    bool include_issues = false;
  };

  ChromeTraceSink() = default;
  explicit ChromeTraceSink(Options options) : options_(options) {}

  void OnLaunchBegin(const LaunchInfo& info) override;
  void OnLaunchEnd(std::uint64_t cycles) override;
  void OnBlockDispatch(std::uint64_t cycle, std::int64_t block,
                       int sm) override;
  void OnWarpStart(std::uint64_t cycle, int sm, int warp_slot,
                   std::int64_t block, std::int64_t base_tid) override;
  void OnWarpFinish(std::uint64_t cycle, int sm, int warp_slot,
                    std::int64_t base_tid) override;
  void OnIssue(const IssueInfo& info) override;
  void OnMemStall(const MemStallInfo& info) override;
  void OnPublish(const PublishInfo& info) override;
  void OnDeadlock(std::uint64_t cycle, const std::string& dump) override;

  std::size_t event_count() const { return event_count_; }
  std::size_t dropped_events() const { return dropped_; }

  /// The complete JSON document (object form with "traceEvents").
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  /// Counts the next event against max_events; false once it is dropped.
  bool Admit();

  Options options_;
  JsonWriter events_;  // the kept events, in emission order
  std::size_t event_count_ = 0;
  std::set<int> sms_seen_;
  std::map<std::pair<int, int>, std::pair<std::uint64_t, std::int64_t>>
      open_warps_;  // (sm, slot) -> (global start, base_tid)
  LaunchClock clock_;
  std::string launch_name_;
  std::uint64_t launch_start_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace capellini::trace
