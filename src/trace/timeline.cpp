#include "trace/timeline.h"

#include <cstdio>

#include "support/json.h"

namespace capellini::trace {

void SolveTimeline::OnLaunchBegin(const LaunchInfo& info) {
  if (param_index_ >= 0 && param_index_ < info.num_params) {
    base_addr_ = static_cast<std::uint64_t>(info.params[param_index_]);
  } else {
    base_addr_ = 0;
  }
  if (info.num_params > 0) rows_ = info.params[0];  // kParamM convention
}

void SolveTimeline::OnLaunchEnd(std::uint64_t cycles) {
  clock_.EndLaunch(cycles);
}

void SolveTimeline::OnPublish(const PublishInfo& info) {
  if (base_addr_ == 0 || info.addr < base_addr_) {
    ++unresolved_;
    return;
  }
  const std::uint64_t offset = info.addr - base_addr_;
  if (offset % static_cast<std::uint64_t>(elem_size_) != 0) {
    ++unresolved_;
    return;
  }
  const std::int64_t row =
      static_cast<std::int64_t>(offset / static_cast<std::uint64_t>(elem_size_));
  if (rows_ > 0 && row >= rows_) {
    ++unresolved_;
    return;
  }
  records_.push_back(PublishRecord{row, clock_.At(info.cycle), info.sm});
}

std::string SolveTimeline::ToCsv() const {
  std::string out = "row,cycle,sm\n";
  char line[64];
  for (const PublishRecord& r : records_) {
    std::snprintf(line, sizeof(line), "%lld,%llu,%d\n",
                  static_cast<long long>(r.row),
                  static_cast<unsigned long long>(r.cycle), r.sm);
    out += line;
  }
  return out;
}

Status SolveTimeline::WriteCsv(const std::string& path) const {
  return WriteFile(path, ToCsv());
}

std::uint64_t SolveTimeline::CycleAtFraction(double fraction,
                                             std::int64_t total_rows) const {
  if (total_rows <= 0 || fraction <= 0.0) return 0;
  const auto needed = static_cast<std::size_t>(
      fraction * static_cast<double>(total_rows) + 0.5);
  if (needed == 0 || records_.size() < needed) return 0;
  // Publish events are emitted in cycle order (the machine advances time
  // monotonically), so the k-th record is the k-th completed row.
  return records_[needed - 1].cycle;
}

}  // namespace capellini::trace
