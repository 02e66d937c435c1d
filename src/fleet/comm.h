// Inter-device communication model for the fleet.
//
// Every remote row a device reads becomes one message to that device,
// however many of its rows read it: the producer device publishes (x value +
// get_value flag, ~12 bytes) and the consumer device sees both land
// `latency + bytes/bandwidth` cycles later, serialized per directed link —
// the structural costs Xie et al. (arXiv 2012.06959) identify as what a
// multi-GPU SpTRSV must pay. Messages are modeled as sim::ExternalStore
// arrivals on the consumer, so consumer rows spin on the flag exactly as
// they would for an on-device producer; communication overlaps compute for
// free because independent local rows keep issuing while boundary rows wait.
// No message arrives sooner than MinDelay() after its publish, which is the
// lookahead that lets the fleet simulate its devices at the same time.
#pragma once

#include <cstdint>
#include <vector>

namespace capellini::fleet {

struct CommConfig {
  /// Fixed per-message cost (link traversal; PCIe/NVLink-scale next to a
  /// ~1GHz device clock).
  std::uint64_t latency_cycles = 500;
  /// Per directed link; a message occupies the link for bytes/bandwidth
  /// cycles (serialization).
  double bandwidth_bytes_per_cycle = 8.0;
  /// 8B x-value + 4B flag per boundary row.
  std::uint64_t bytes_per_message = 12;
};

/// Per-link serialization + latency. Not thread-safe: the fleet delivers
/// under its exchange lock. Each link's messages are delivered in global
/// row order, whatever order their publishes happen in, which fixes every
/// arrival cycle for any host thread count.
class CommModel {
 public:
  CommModel(const CommConfig& config, int num_devices);

  const CommConfig& config() const { return config_; }

  /// Cycles from a publish to its earliest possible arrival: the wire time
  /// of one message, ceil(bytes/bandwidth), plus the latency.
  std::uint64_t MinDelay() const {
    return wire_cycles_ + config_.latency_cycles;
  }

  /// The arrival Deliver would give a message published on `src` at
  /// `publish_cycle`, without sending it: depart = max(link busy, publish),
  /// arrive = depart + MinDelay(). No later message on the link arrives
  /// sooner.
  std::uint64_t NextArrival(int src, int dst,
                            std::uint64_t publish_cycle) const;

  /// Arrival cycle at `dst` of a message published on `src` at
  /// `publish_cycle` (NextArrival). Advances the (src, dst) link.
  std::uint64_t Deliver(int src, int dst, std::uint64_t publish_cycle);

  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;

 private:
  struct Link {
    std::uint64_t busy_until = 0;
    std::uint64_t messages = 0;
  };
  std::size_t LinkIndex(int src, int dst) const {
    return static_cast<std::size_t>(src) *
               static_cast<std::size_t>(num_devices_) +
           static_cast<std::size_t>(dst);
  }

  CommConfig config_;
  int num_devices_;
  std::uint64_t wire_cycles_ = 0;
  std::vector<Link> links_;
};

}  // namespace capellini::fleet
