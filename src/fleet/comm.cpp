#include "fleet/comm.h"

#include <algorithm>
#include <cmath>

namespace capellini::fleet {

CommModel::CommModel(const CommConfig& config, int num_devices)
    : config_(config),
      num_devices_(std::max(1, num_devices)),
      wire_cycles_(static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(config.bytes_per_message) /
                    std::max(1e-9, config.bandwidth_bytes_per_cycle)))),
      links_(static_cast<std::size_t>(num_devices_) *
             static_cast<std::size_t>(num_devices_)) {}

std::uint64_t CommModel::NextArrival(int src, int dst,
                                     std::uint64_t publish_cycle) const {
  return std::max(links_[LinkIndex(src, dst)].busy_until, publish_cycle) +
         MinDelay();
}

std::uint64_t CommModel::Deliver(int src, int dst,
                                 std::uint64_t publish_cycle) {
  const std::uint64_t arrival = NextArrival(src, dst, publish_cycle);
  Link& link = links_[LinkIndex(src, dst)];
  // The next message queues behind this one's wire time.
  link.busy_until = arrival - config_.latency_cycles;
  ++link.messages;
  return arrival;
}

std::uint64_t CommModel::total_messages() const {
  std::uint64_t total = 0;
  for (const Link& link : links_) total += link.messages;
  return total;
}

std::uint64_t CommModel::total_bytes() const {
  return total_messages() * config_.bytes_per_message;
}

}  // namespace capellini::fleet
