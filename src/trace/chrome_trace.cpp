#include "trace/chrome_trace.h"

namespace capellini::trace {
namespace {

// The synthetic process hosting launch-level slices.
constexpr int kDevicePid = 1000000;

// Starts an event with the fields every event has. The caller adds a
// slice's ("X") "dur" or an instant's ("i") scope "s", any "args", and
// closes it.
JsonWriter& Event(JsonWriter& json, std::string_view name, const char* cat,
                  const char* ph, std::uint64_t ts, int pid, int tid) {
  return json.BeginObject()
      .Key("name").String(name)
      .Key("cat").String(cat)
      .Key("ph").String(ph)
      .Key("ts").Int(ts)
      .Key("pid").Int(pid)
      .Key("tid").Int(tid);
}

}  // namespace

bool ChromeTraceSink::Admit() {
  if (event_count_ >= options_.max_events) {
    ++dropped_;
    return false;
  }
  ++event_count_;
  return true;
}

void ChromeTraceSink::OnLaunchBegin(const LaunchInfo& info) {
  launch_name_ = info.kernel_name;
  launch_start_ = clock_.offset;
}

void ChromeTraceSink::OnLaunchEnd(std::uint64_t cycles) {
  if (Admit()) {
    Event(events_, launch_name_, "launch", "X", launch_start_, kDevicePid, 0)
        .Key("dur").Int(cycles)
        .EndObject();
  }
  clock_.EndLaunch(cycles);
}

void ChromeTraceSink::OnBlockDispatch(std::uint64_t cycle, std::int64_t block,
                                      int sm) {
  sms_seen_.insert(sm);
  if (!Admit()) return;
  Event(events_, "dispatch block " + std::to_string(block), "dispatch", "i",
        clock_.At(cycle), sm, 0)
      .Key("s").String("p")
      .EndObject();
}

void ChromeTraceSink::OnWarpStart(std::uint64_t cycle, int sm, int warp_slot,
                                  std::int64_t /*block*/,
                                  std::int64_t base_tid) {
  sms_seen_.insert(sm);
  open_warps_[{sm, warp_slot}] = {clock_.At(cycle), base_tid};
}

void ChromeTraceSink::OnWarpFinish(std::uint64_t cycle, int sm, int warp_slot,
                                   std::int64_t base_tid) {
  const auto it = open_warps_.find({sm, warp_slot});
  if (it == open_warps_.end()) return;
  const std::uint64_t start = it->second.first;
  const std::uint64_t end = clock_.At(cycle);
  open_warps_.erase(it);
  if (!Admit()) return;
  Event(events_, "warp t" + std::to_string(base_tid), "warp", "X", start, sm,
        warp_slot)
      .Key("dur").Int(end > start ? end - start : 0)
      .EndObject();
}

void ChromeTraceSink::OnIssue(const IssueInfo& info) {
  if (!options_.include_issues || !Admit()) return;
  Event(events_, "pc " + std::to_string(info.pc), "issue", "X",
        clock_.At(info.cycle), info.sm, info.warp_slot)
      .Key("dur").Int(1)
      .EndObject();
}

void ChromeTraceSink::OnMemStall(const MemStallInfo& info) {
  if (!Admit()) return;
  const char* name =
      info.in_spin ? "poll" : (info.is_atomic ? "atomic" : "mem");
  Event(events_, name, "stall", "X", clock_.At(info.cycle), info.sm,
        info.warp_slot)
      .Key("dur").Int(info.ready_at > info.cycle ? info.ready_at - info.cycle
                                                 : 0)
      .Key("args").BeginObject()
      .Key("tx").Int(info.transactions)
      .Key("miss").Int(info.dram_misses)
      .Key("queue").Int(info.queue_cycles)
      .EndObject()
      .EndObject();
}

void ChromeTraceSink::OnPublish(const PublishInfo& info) {
  if (!Admit()) return;
  Event(events_, "publish", "publish", "i", clock_.At(info.cycle), info.sm,
        info.warp_slot)
      .Key("s").String("t")
      .EndObject();
}

void ChromeTraceSink::OnDeadlock(std::uint64_t cycle, const std::string& dump) {
  if (!Admit()) return;
  Event(events_, "DEADLOCK", "watchdog", "i", clock_.At(cycle), kDevicePid, 0)
      .Key("s").String("g")
      .Key("args").BeginObject()
      .Key("dump").String(dump)
      .EndObject()
      .EndObject();
}

std::string ChromeTraceSink::ToJson() const {
  JsonWriter json;
  json.BeginObject()
      .Key("displayTimeUnit").String("ms")
      .Key("otherData").BeginObject()
      .Key("clock").String("1us==1cycle")
      .Key("dropped_events").Int(dropped_)
      .EndObject()
      .Key("traceEvents").BeginArray();
  // Metadata first: stable, sorted track names.
  const auto process_name = [&json](int pid, const std::string& name) {
    json.BeginObject()
        .Key("name").String("process_name")
        .Key("ph").String("M")
        .Key("pid").Int(pid)
        .Key("args").BeginObject().Key("name").String(name).EndObject()
        .EndObject();
  };
  process_name(kDevicePid, "device");
  for (const int sm : sms_seen_) process_name(sm, "SM " + std::to_string(sm));
  json.Splice(events_).EndArray().EndObject();
  return std::move(json).str();
}

Status ChromeTraceSink::WriteFile(const std::string& path) const {
  return capellini::WriteFile(path, ToJson());
}

}  // namespace capellini::trace
