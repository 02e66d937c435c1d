// The SIMT interpreter: executes kernels on the simulated device.
//
// Execution model (the mechanisms the paper's analysis depends on):
//  * Warps of 32 lanes execute in lock step. Divergent branches are
//    serialized with a reconvergence stack (explicit reconvergence PCs from
//    the kernel author). A lane that busy-waits therefore blocks the lanes
//    parked at the reconvergence point — exactly the deadlock of Challenge 1.
//  * Each SM issues `issue_per_cycle` warp-instructions per cycle, round-robin
//    over its ready resident warps. Warps stalled on memory do not issue.
//  * Residency: at most max_warps_per_sm warps per SM. Thread blocks are
//    dispatched IN ORDER as slots free — the invariant the synchronization-
//    free algorithms rely on (a row only waits on earlier rows, which are
//    resident or finished).
//  * Global memory: per warp memory instruction, the distinct 32-byte sectors
//    touched by the active lanes become DRAM transactions; transactions queue
//    on device bandwidth and complete after the configured latency. Loads and
//    atomics stall the warp until completion; stores are fire-and-forget.
//    Values are read/written at issue time (sequentially consistent), so
//    timing and data never race in the simulation.
//  * Watchdogs: a cycle limit plus a no-progress detector (no store, atomic,
//    warp completion or dispatch for N cycles) that converts intra-warp
//    busy-wait deadlocks into a reportable error.
#pragma once

#include <array>
#include <cstdint>
#include <queue>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/counters.h"
#include "sim/kernel.h"
#include "sim/memory.h"
#include "support/status.h"
#include "trace/sink.h"

namespace capellini::sim {

class FaultInjector;  // sim/fault.h

/// Kernel launch geometry.
struct LaunchDims {
  std::int64_t num_threads = 0;     // total threads (rounded up to warps)
  int threads_per_block = 256;      // dispatch granularity
};

/// A write scheduled to land in device memory at a given simulated cycle —
/// the fleet layer's model of a peer device publishing a boundary x-value:
/// the f64 solution component and the i32 get_value flag become visible
/// together once the simulated clock reaches `cycle`, so consumer rows spin
/// on the flag exactly as they would on an on-device producer. An address of
/// 0 skips that half (0 is below the allocation base, never a real address).
struct ExternalStore {
  std::uint64_t cycle = 0;
  std::uint64_t f64_addr = 0;
  double f64_value = 0.0;
  std::uint64_t i32_addr = 0;
  std::int32_t i32_value = 0;
};

/// Peer-device traffic of one launch: the seam through which the fleet runs
/// K machines at once (DESIGN.md §4f). The link hands the machine stores as
/// they become known, says how far the clock may run, can cancel the launch,
/// and hears every publish store that landed. With no link attached the
/// clock is unbounded and nothing arrives.
class PeerLink {
 public:
  /// Sync's answer that cancels the launch (never a valid horizon, which is
  /// always above the cycle asked about).
  static constexpr std::uint64_t kCancel = 0;

  virtual ~PeerLink() = default;

  /// Stores this launch receives in all. Until that many have landed the
  /// no-progress watchdog stays quiet: a warp spinning on a remote flag is
  /// not a deadlock, however slow its producer.
  virtual std::uint64_t expected_stores() const = 0;

  /// Called when the machine is about to simulate `cycle` and the last
  /// horizon does not cover it (first at cycle 0). Appends the stores that
  /// became known, at any cycle not below the last horizon, and returns the
  /// new horizon: every store landing below it is now known, so the machine
  /// may simulate every cycle below it. May block until that is true.
  /// Returns kCancel to end the launch.
  virtual std::uint64_t Sync(std::uint64_t cycle,
                             std::vector<ExternalStore>& stores) = 0;

  /// A publish-annotated store to `addr` landed at `cycle`. Dropped
  /// publishes are not reported.
  virtual void OnPublish(std::uint64_t cycle, std::uint64_t addr) = 0;
};

/// One simulated device. Launch() runs a kernel to completion on a single
/// interpreter core: every issue slot executes one warp-instruction through
/// ExecuteInstruction. tests/golden_schedule_test.cpp pins the schedule.
class Machine {
 public:
  Machine(DeviceConfig config, DeviceMemory* memory);

  const DeviceConfig& config() const { return config_; }

  /// Attaches an execution-trace observer (nullptr = tracing off, the
  /// default). The sink sees dispatches, warp lifetimes, issues, memory
  /// stalls, publishes and deadlock dumps; it never affects timing — stats
  /// and solutions are identical with and without a sink.
  void set_trace_sink(trace::TraceSink* sink) { trace_ = sink; }

  /// Attaches a fault injector (nullptr = injection off, the default). The
  /// same seam contract as the trace sink: with no injector — or an attached
  /// injector whose rates are all zero — timing, counters and memory contents
  /// are bit-identical to an untouched machine. See sim/fault.h for the
  /// hazards it can inject.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Attaches the peer traffic of the following launches (nullptr = none,
  /// the default; not owned). Stores are applied when the simulated clock
  /// first reaches their cycle, before any warp issues in that cycle, and
  /// each application counts as forward progress.
  void set_peer_link(PeerLink* link) { peers_ = link; }

  /// Runs `kernel` to completion and returns its counters.
  /// Fails with StatusCode::kDeadlock when the watchdog trips and with
  /// kFailedPrecondition when the peer link cancels the launch.
  Expected<LaunchStats> Launch(const Kernel& kernel, LaunchDims dims,
                               std::span<const std::int64_t> params);

 private:
  struct Frame {
    std::int32_t reconv_pc;
    std::int32_t other_pc;
    std::uint32_t other_mask;
  };

  struct Warp {
    std::int32_t pc = 0;
    std::uint32_t active = 0;
    std::int64_t base_tid = 0;
    std::int64_t block_id = 0;
    bool alive = false;
    std::vector<Frame> stack;
    // Register-major (SoA) register files: element [reg * 32 + lane]. All 32
    // values of one register are contiguous, so a converged op is a unit-
    // stride 32-wide loop the compiler can vectorize.
    std::vector<std::int64_t> r;  // kNumIntRegs * 32
    std::vector<double> f;        // kNumFltRegs * 32
    // Spin-poll fast path: a converged warp spinning on a poll load re-issues
    // the same per-lane addresses every iteration, so the deduplicated sector
    // list is cached here, keyed by (pc, active mask, addresses). The address
    // comparison makes the cache self-validating; accounting is unchanged —
    // only the O(lanes x sectors) dedup scan is skipped.
    std::int32_t poll_pc = -1;
    std::uint32_t poll_mask = 0;
    std::uint8_t poll_count = 0;
    std::uint8_t poll_num_sectors = 0;
    std::array<std::uint64_t, 32> poll_addresses;
    std::array<std::uint64_t, 32> poll_sectors;
  };

  /// Fixed-capacity FIFO of warp-pool indices — the SM's round-robin issue
  /// queue. A resident warp is in at most one queue (ready or wake) at a
  /// time, so capacity is bounded by max_warps_per_sm; the power-of-two ring
  /// replaces the std::deque that dominated the issue loop's host time.
  class ReadyRing {
   public:
    void Reset(int capacity) {
      std::size_t size = 1;
      while (size < static_cast<std::size_t>(capacity)) size <<= 1;
      if (buffer_.size() != size) buffer_.assign(size, 0);
      mask_ = static_cast<std::uint32_t>(size - 1);
      head_ = 0;
      count_ = 0;
    }
    bool empty() const { return count_ == 0; }
    void push_back(int warp) {
      buffer_[(head_ + count_) & mask_] = warp;
      ++count_;
    }
    int pop_front() {
      const int warp = buffer_[head_];
      head_ = (head_ + 1) & mask_;
      --count_;
      return warp;
    }

   private:
    std::vector<std::int32_t> buffer_;
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
    std::uint32_t mask_ = 0;
  };

  struct Sm {
    std::vector<int> free_slots;       // indices into warp pool
    ReadyRing ready;                   // warps ready to issue
    int resident = 0;
  };

  // Issues one instruction of one warp: a switch over Op that executes it
  // across the active lanes, charges its memory traffic and fires the
  // per-issue trace hooks. Every issue slot a warp uses goes through here.
  void ExecuteInstruction(int warp_index, int sm_index);

  // Reconvergence bookkeeping (see DESIGN.md / header comment).
  void SyncAtReconv(Warp& warp);
  void UnwindIfEmpty(Warp& warp);

  // Memory transaction accounting result: completion cycle plus the detail
  // the tracing layer attributes stalls with.
  struct MemTxn {
    std::uint64_t ready_at = 0;
    std::uint32_t transactions = 0;
    std::uint32_t misses = 0;
    // Backlog found on the L2/DRAM queues (bandwidth-bound share of the wait).
    std::uint64_t queue_cycles = 0;
  };
  MemTxn AccountMemory(std::span<const std::uint64_t> addresses,
                       bool is_atomic);
  // The two halves of AccountMemory: the duplicate-sector scan and the
  // queue/latency accounting. Split so the spin-poll fast path can reuse a
  // cached sector list and skip the scan. Takes the sector size as a shift
  // (sector_bytes is constrained to a power of two) — the per-lane divide
  // was a measurable share of interpreter time.
  static std::size_t DedupSectors(const std::uint64_t* addresses,
                                  std::size_t count, int sector_shift,
                                  std::uint64_t* sectors);
  MemTxn AccountSectors(const std::uint64_t* sectors, std::size_t num_sectors,
                        bool is_atomic);

  // L2 sector tracking (infinite capacity; see DeviceConfig comment).
  bool TouchSector(std::uint64_t sector);

  void FinishWarp(int warp_index, int sm_index);

  std::int64_t& RegI(Warp& warp, int lane, int reg) {
    return warp.r[static_cast<std::size_t>(reg) * 32 +
                  static_cast<std::size_t>(lane)];
  }
  double& RegF(Warp& warp, int lane, int reg) {
    return warp.f[static_cast<std::size_t>(reg) * 32 +
                  static_cast<std::size_t>(lane)];
  }

  DeviceConfig config_;
  /// log2(config_.sector_bytes), precomputed once: DedupSectors maps a lane
  /// address to its sector with a shift instead of a 64-bit divide.
  int sector_shift_ = 5;
  /// config_.BytesPerCycle() / L2BytesPerCycle(), computed once at
  /// construction: each is an FP divide AccountSectors would otherwise
  /// re-derive per memory transaction (hundreds of millions per solve).
  /// Cached values are the exact same doubles, so timing is unchanged.
  double dram_bytes_per_cycle_ = 1.0;
  double l2_bytes_per_cycle_ = 1.0;
  DeviceMemory* memory_;
  // CAPELLINI_TRACE=1 per-instruction stderr dump, read once at construction.
  bool debug_trace_ = false;

  // Per-launch state.
  const Kernel* kernel_ = nullptr;
  // Per-PC annotation bits of kernel_ (spin region, spin head, publish
  // store), rebuilt at each launch; the vector's storage is reused.
  std::vector<std::uint8_t> pc_flags_;
  std::vector<std::int64_t> params_;
  std::int64_t grid_threads_ = 0;
  int threads_per_block_ = 256;

  std::vector<Warp> warp_pool_;
  std::vector<Sm> sms_;
  // (ready_at, warp, sm) parking for memory-stalled warps. Every load that
  // completes past cycle+1 parks here and is popped exactly once — hundreds
  // of millions of entries per solve — so this is a calendar wheel (one
  // bucket per cycle mod kWakeWheel, O(1) park/wake) instead of a priority
  // queue (O(log stalled) with a cache-missy heap). Entries beyond the
  // wheel horizon overflow into a small heap and re-enter the wheel as the
  // horizon advances. Pop order is identical to the old priority queue:
  // cycle stepping and exact-min fast-forward make drains monotonic in
  // ready_at (each bucket holds exactly one time), and a bucket is sorted
  // by (warp, sm) before delivery — a warp parks at most once, so this
  // reproduces the heap's (ready_at, warp, sm) order bit-for-bit.
  using WakeEntry = std::tuple<std::uint64_t, int, int>;
  static constexpr std::uint64_t kWakeWheel = 4096;  // power of two
  std::vector<std::vector<std::pair<int, int>>> wake_wheel_;  // (warp, sm)
  std::vector<std::uint64_t> wake_wheel_bits_;  // bucket occupancy bitmap
  std::size_t wake_wheel_count_ = 0;
  std::priority_queue<WakeEntry, std::vector<WakeEntry>, std::greater<>>
      wake_far_;

  bool WakePending() const {
    return wake_wheel_count_ != 0 || !wake_far_.empty();
  }
  void WakePush(std::uint64_t ready_at, int warp, int sm) {
    if (ready_at >= cycle_ + kWakeWheel) {
      wake_far_.push(WakeEntry{ready_at, warp, sm});
      return;
    }
    const std::uint64_t b = ready_at & (kWakeWheel - 1);
    wake_wheel_[b].emplace_back(warp, sm);
    wake_wheel_bits_[b >> 6] |= 1ull << (b & 63);
    ++wake_wheel_count_;
  }
  void WakeReset();
  std::uint64_t NextWakeTime() const;

  std::uint64_t cycle_ = 0;
  double dram_busy_until_ = 0.0;
  double l2_busy_until_ = 0.0;
  std::uint64_t last_progress_cycle_ = 0;
  std::int64_t alive_warps_ = 0;
  /// Set by FinishWarp; Launch's issue loop re-attempts block dispatch only
  /// when a slot actually freed (a failed dispatch scan is stateless, so
  /// skipping it never changes the schedule).
  bool sm_slots_freed_ = false;
  /// One bit per SM, set while that SM's ready ring is non-empty. The issue
  /// scan walks set bits in ascending SM order (countr_zero), which visits
  /// exactly the SMs the full sweep would have issued from, in the same
  /// order — spin-heavy phases wake only a handful of warps per cycle, so
  /// this skips the (num_sms - few) guaranteed-stalled SM visits.
  std::vector<std::uint64_t> ready_sm_mask_;
  /// SMs with resident > 0; idle-but-resident SMs charge their issue slots
  /// as stalls in closed form instead of being visited.
  int resident_sm_count_ = 0;

  void MarkSmReady(int sm_index) {
    ready_sm_mask_[static_cast<std::size_t>(sm_index) >> 6] |=
        1ull << (sm_index & 63);
  }
  LaunchStats stats_;
  std::vector<std::uint64_t> l2_sectors_;  // bitmap, one bit per sector
  // Indices of l2_sectors_ words that are nonzero, so a re-launch clears
  // O(touched) words instead of std::fill over the whole bitmap.
  std::vector<std::size_t> l2_touched_words_;

  // Tracing (see trace/sink.h). The per-PC spin/publish annotations the sink
  // consumes live in pc_flags_.
  trace::TraceSink* trace_ = nullptr;
  int launch_index_ = -1;

  // Fault injection (see sim/fault.h). Null = off; every hook site is one
  // pointer test.
  FaultInjector* faults_ = nullptr;

  // Peer traffic (see PeerLink). ext_ holds the launch's known stores, the
  // unapplied tail [ext_next_, end) sorted by cycle; ext_next_ also counts
  // the stores applied so far. The link is asked for more when cycle_
  // reaches horizon_ (unbounded without a link).
  PeerLink* peers_ = nullptr;
  std::vector<ExternalStore> ext_;
  std::size_t ext_next_ = 0;
  std::uint64_t ext_expected_ = 0;
  std::uint64_t horizon_ = 0;
};

}  // namespace capellini::sim
