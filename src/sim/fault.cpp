#include "sim/fault.h"

#include <bit>
#include <cstdio>

#include "support/json.h"

namespace capellini::sim {
namespace {

/// splitmix64 finalizer: a full-avalanche mix so consecutive event indices
/// give independent uniforms.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits.
double ToUnit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropPublish:
      return "drop_publish";
    case FaultKind::kBitFlipStore:
      return "bitflip_store";
    case FaultKind::kStuckWarp:
      return "stuck_warp";
    case FaultKind::kMemDelay:
      return "mem_delay";
  }
  return "unknown";
}

void FaultInjector::Reseed(const FaultPlan& plan) {
  plan_ = plan;
  for (auto& e : events_) e.store(0, std::memory_order_relaxed);
  for (auto& i : injected_) i.store(0, std::memory_order_relaxed);
  total_injected_.store(0, std::memory_order_relaxed);
}

FaultCounts FaultInjector::counts() const {
  FaultCounts counts;
  for (int k = 0; k < kNumFaultKinds; ++k) {
    counts.injected[static_cast<std::size_t>(k)] =
        injected_[static_cast<std::size_t>(k)].load(std::memory_order_relaxed);
  }
  return counts;
}

FaultInjector::Mark FaultInjector::mark() const {
  Mark mark;
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    mark.events[k] = events_[k].load(std::memory_order_relaxed);
    mark.injected[k] = injected_[k].load(std::memory_order_relaxed);
  }
  mark.total_injected = total_injected_.load(std::memory_order_relaxed);
  return mark;
}

void FaultInjector::Rewind(const Mark& mark) {
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    events_[k].store(mark.events[k], std::memory_order_relaxed);
    injected_[k].store(mark.injected[k], std::memory_order_relaxed);
  }
  total_injected_.store(mark.total_injected, std::memory_order_relaxed);
}

bool FaultInjector::InScope(std::int64_t tid, int span) const {
  if (tid < 0) return true;  // direct callers are scope-exempt
  const std::int64_t begin = tid + tid_offset_;
  const std::int64_t end = begin + span;
  if (plan_.HasRowScope() &&
      (end <= plan_.row_begin || begin >= plan_.row_end)) {
    return false;
  }
  if (plan_.HasWarpScope()) {
    const std::int64_t warp_lo = begin >> 5;
    const std::int64_t warp_hi = ((end - 1) >> 5) + 1;
    if (warp_hi <= plan_.warp_begin || warp_lo >= plan_.warp_end) return false;
  }
  return true;
}

bool FaultInjector::Decide(FaultKind kind, double rate, std::int64_t tid,
                           int span) {
  if (rate <= 0.0) return false;  // zero-rate kinds consume nothing
  const auto k = static_cast<std::size_t>(kind);
  const std::uint64_t event =
      events_[k].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h =
      Mix(plan_.seed ^ Mix(static_cast<std::uint64_t>(k + 1) ^ (event << 3)));
  if (ToUnit(h) >= rate) return false;
  // Scope is checked AFTER the hash consumed its event, so scoped and
  // unscoped plans share one event/decision stream; out-of-scope hits are
  // suppressed and do not count against max_faults.
  if (!InScope(tid, span)) return false;
  if (plan_.max_faults != 0) {
    // Respect the total cap without overshooting under concurrent callers.
    std::uint64_t current = total_injected_.load(std::memory_order_relaxed);
    do {
      if (current >= plan_.max_faults) return false;
    } while (!total_injected_.compare_exchange_weak(
        current, current + 1, std::memory_order_relaxed));
  } else {
    total_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  injected_[k].fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::MaybeFlipStoreBit(double& value, std::int64_t tid) {
  if (!Decide(FaultKind::kBitFlipStore, plan_.bitflip_store_rate, tid, 1)) {
    return false;
  }
  // Flip the low exponent bit: the value halves or doubles — large enough
  // that the relative-residual check always notices, without manufacturing
  // NaN/Inf (those have their own guard and would make corruption trivially
  // detectable).
  auto bits = std::bit_cast<std::uint64_t>(value);
  bits ^= 1ull << 52;
  value = std::bit_cast<double>(bits);
  return true;
}

Status WriteFaultPlanJson(const FaultPlan& plan, const std::string& path) {
  JsonWriter json;
  json.BeginObject()
      .Key("seed").Int(plan.seed)
      .Key("drop_publish_rate").Double(plan.drop_publish_rate)
      .Key("bitflip_store_rate").Double(plan.bitflip_store_rate)
      .Key("stuck_warp_rate").Double(plan.stuck_warp_rate)
      .Key("mem_delay_rate").Double(plan.mem_delay_rate)
      .Key("stuck_cycles").Int(plan.stuck_cycles)
      .Key("mem_delay_cycles").Int(plan.mem_delay_cycles)
      .Key("max_faults").Int(plan.max_faults)
      .Key("row_begin").Int(plan.row_begin)
      .Key("row_end").Int(plan.row_end)
      .Key("warp_begin").Int(plan.warp_begin)
      .Key("warp_end").Int(plan.warp_end)
      .EndObject();
  return WriteFile(path, json.str());
}

Expected<FaultPlan> ReadFaultPlanJson(const std::string& path) {
  auto doc = ReadJsonFile(path);
  if (!doc.ok()) return doc.status();
  FaultPlan plan;
  bool any = false;
  Status status;  // the first malformed value
  const auto read = [&](const char* key, auto& out) {
    const JsonValue* value = doc->Find(key);
    if (value == nullptr || !status.ok()) return;
    any = true;
    if (!value->Get(out)) {
      status = IoError(path + ": malformed \"" + key + "\" value");
    }
  };
  const auto read_rate = [&](const char* key, double& out) {
    read(key, out);
    if (status.ok() && (out < 0.0 || out > 1.0)) {
      status = IoError(path + ": \"" + key + "\" must be in [0, 1]");
    }
  };
  read("seed", plan.seed);
  read_rate("drop_publish_rate", plan.drop_publish_rate);
  read_rate("bitflip_store_rate", plan.bitflip_store_rate);
  read_rate("stuck_warp_rate", plan.stuck_warp_rate);
  read_rate("mem_delay_rate", plan.mem_delay_rate);
  read("stuck_cycles", plan.stuck_cycles);
  read("mem_delay_cycles", plan.mem_delay_cycles);
  read("max_faults", plan.max_faults);
  read("row_begin", plan.row_begin);
  read("row_end", plan.row_end);
  read("warp_begin", plan.warp_begin);
  read("warp_end", plan.warp_end);
  CAPELLINI_RETURN_IF_ERROR(status);
  if (!any) return IoError(path + ": no FaultPlan keys found");
  return plan;
}

std::string FaultPlanSummary(const FaultPlan& plan) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "seed=%llu drop=%g flip=%g stuck=%g delay=%g max=%llu",
                static_cast<unsigned long long>(plan.seed),
                plan.drop_publish_rate, plan.bitflip_store_rate,
                plan.stuck_warp_rate, plan.mem_delay_rate,
                static_cast<unsigned long long>(plan.max_faults));
  std::string out = buf;
  if (plan.HasRowScope()) {
    out += " rows=[" + std::to_string(plan.row_begin) + "," +
           std::to_string(plan.row_end) + ")";
  }
  if (plan.HasWarpScope()) {
    out += " warps=[" + std::to_string(plan.warp_begin) + "," +
           std::to_string(plan.warp_end) + ")";
  }
  return out;
}

}  // namespace capellini::sim
