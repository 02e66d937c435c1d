#include "trace/attribution.h"

#include <cstdio>
#include <utility>

#include "support/json.h"
#include "support/table.h"

namespace capellini::trace {

StallBuckets& StallBuckets::operator+=(const StallBuckets& other) {
  useful_issue += other.useful_issue;
  reconv_issue += other.reconv_issue;
  spin_issue += other.spin_issue;
  spin_stall += other.spin_stall;
  mem_latency += other.mem_latency;
  mem_bandwidth += other.mem_bandwidth;
  scheduler_wait += other.scheduler_wait;
  spin_iterations += other.spin_iterations;
  atomics += other.atomics;
  return *this;
}

void StallAttribution::OnLaunchBegin(const LaunchInfo& info) {
  launch_index_ = info.launch_index;
}

void StallAttribution::OnLaunchEnd(std::uint64_t cycles) {
  clock_.EndLaunch(cycles);
}

void StallAttribution::OnWarpStart(std::uint64_t cycle, int sm, int warp_slot,
                                   std::int64_t /*block*/,
                                   std::int64_t base_tid) {
  ActiveWarp& warp = active_[{sm, warp_slot}];
  warp = ActiveWarp{};
  warp.base_tid = base_tid;
  warp.start_cycle = clock_.At(cycle);
}

void StallAttribution::OnWarpFinish(std::uint64_t cycle, int sm, int warp_slot,
                                    std::int64_t base_tid) {
  const auto it = active_.find({sm, warp_slot});
  if (it == active_.end()) return;
  WarpRecord record;
  record.launch_index = launch_index_;
  record.sm = sm;
  record.warp_slot = warp_slot;
  record.base_tid = base_tid;
  record.start_cycle = it->second.start_cycle;
  // The warp issues its final instruction on the finish cycle itself, so the
  // recorded end is exclusive: residency is [start_cycle, finish_cycle).
  record.finish_cycle = clock_.At(cycle) + 1;
  record.buckets = it->second.buckets;
  // Whatever the lifetime does not account for was spent resident but not
  // issuing and not memory-stalled: waiting for an issue slot.
  const std::uint64_t lifetime = record.finish_cycle - record.start_cycle;
  const std::uint64_t accounted = record.buckets.Total();
  record.buckets.scheduler_wait = lifetime > accounted ? lifetime - accounted : 0;
  records_.push_back(record);
  active_.erase(it);
}

void StallAttribution::OnIssue(const IssueInfo& info) {
  const auto it = active_.find({info.sm, info.warp_slot});
  if (it == active_.end()) return;
  StallBuckets& buckets = it->second.buckets;
  if (info.in_spin) {
    ++buckets.spin_issue;
    if (info.spin_head) ++buckets.spin_iterations;
  } else if (info.divergent) {
    ++buckets.reconv_issue;
  } else {
    ++buckets.useful_issue;
  }
}

void StallAttribution::OnMemStall(const MemStallInfo& info) {
  const auto it = active_.find({info.sm, info.warp_slot});
  if (it == active_.end()) return;
  StallBuckets& buckets = it->second.buckets;
  // The issue cycle itself was already counted by OnIssue; the stall spans
  // the cycles until the warp becomes ready again.
  const std::uint64_t stall =
      info.ready_at > info.cycle + 1 ? info.ready_at - info.cycle - 1 : 0;
  if (info.in_spin) {
    // Poll loads ARE the busy-wait cost, whatever their memory-level cause.
    buckets.spin_stall += stall;
    return;
  }
  const std::uint64_t bandwidth =
      info.queue_cycles < stall ? info.queue_cycles : stall;
  buckets.mem_bandwidth += bandwidth;
  buckets.mem_latency += stall - bandwidth;
}

void StallAttribution::OnAtomic(std::uint64_t /*cycle*/, int sm, int warp_slot,
                                std::uint32_t transactions) {
  const auto it = active_.find({sm, warp_slot});
  if (it == active_.end()) return;
  it->second.buckets.atomics += transactions;
}

StallBuckets StallAttribution::Totals() const {
  StallBuckets total;
  for (const WarpRecord& record : records_) total += record.buckets;
  return total;
}

std::string StallAttribution::SummaryTable() const {
  const StallBuckets total = Totals();
  const double denom =
      total.Total() > 0 ? static_cast<double>(total.Total()) : 1.0;
  TextTable table({"bucket", "warp-cycles", "share"});
  table.SetTitle("stall attribution (" + TextTable::Int(static_cast<long long>(
                     records_.size())) + " warps)");
  const auto row = [&](const char* name, std::uint64_t cycles) {
    table.AddRow({name, TextTable::Int(static_cast<long long>(cycles)),
                  TextTable::Num(100.0 * static_cast<double>(cycles) / denom,
                                 1) + "%"});
  };
  row("useful issue", total.useful_issue);
  row("reconvergence serialization", total.reconv_issue);
  row("busy-wait spin (issue)", total.spin_issue);
  row("busy-wait spin (poll stall)", total.spin_stall);
  row("memory latency", total.mem_latency);
  row("memory bandwidth", total.mem_bandwidth);
  row("scheduler wait", total.scheduler_wait);
  std::string out = table.ToString();
  out += "spin iterations: " +
         TextTable::Int(static_cast<long long>(total.spin_iterations)) +
         ", atomic transactions: " +
         TextTable::Int(static_cast<long long>(total.atomics)) + "\n";
  return out;
}

std::string StallAttribution::ToCsv() const {
  std::string out =
      "launch,sm,warp_slot,base_tid,start_cycle,finish_cycle,useful_issue,"
      "reconv_issue,spin_issue,spin_stall,mem_latency,mem_bandwidth,"
      "scheduler_wait,spin_iterations,atomics\n";
  char line[512];
  for (const WarpRecord& r : records_) {
    std::snprintf(
        line, sizeof(line),
        "%d,%d,%d,%lld,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu\n",
        r.launch_index, r.sm, r.warp_slot, static_cast<long long>(r.base_tid),
        static_cast<unsigned long long>(r.start_cycle),
        static_cast<unsigned long long>(r.finish_cycle),
        static_cast<unsigned long long>(r.buckets.useful_issue),
        static_cast<unsigned long long>(r.buckets.reconv_issue),
        static_cast<unsigned long long>(r.buckets.spin_issue),
        static_cast<unsigned long long>(r.buckets.spin_stall),
        static_cast<unsigned long long>(r.buckets.mem_latency),
        static_cast<unsigned long long>(r.buckets.mem_bandwidth),
        static_cast<unsigned long long>(r.buckets.scheduler_wait),
        static_cast<unsigned long long>(r.buckets.spin_iterations),
        static_cast<unsigned long long>(r.buckets.atomics));
    out += line;
  }
  return out;
}

Status StallAttribution::WriteCsv(const std::string& path) const {
  return WriteFile(path, ToCsv());
}

}  // namespace capellini::trace
