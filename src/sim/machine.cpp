#include "sim/machine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "sim/fault.h"

namespace capellini::sim {
namespace {

constexpr std::uint32_t kFullMask = 0xFFFFFFFFu;

int PopCount(std::uint32_t mask) { return std::popcount(mask); }

// Per-PC annotation bits in Machine::pc_flags_ (built from the kernel's
// spin_regions / publish_pcs at launch).
constexpr std::uint8_t kPcInSpin = 1;
constexpr std::uint8_t kPcSpinHead = 2;
constexpr std::uint8_t kPcPublish = 4;

// Applies `fn(lane)` to every set lane. The full-mask case — the steady state
// of converged warps, spin-polling warps above all — takes a straight-line
// 0..31 loop instead of the bit-scan, which is the interpreter's hottest
// inner loop.
template <typename Fn>
inline void ForActive(std::uint32_t mask, Fn&& fn) {
  if (mask == kFullMask) {
    for (int lane = 0; lane < 32; ++lane) fn(lane);
    return;
  }
  while (mask) {
    const int lane = std::countr_zero(mask);
    mask &= mask - 1;
    fn(lane);
  }
}

}  // namespace

Machine::Machine(DeviceConfig config, DeviceMemory* memory)
    : config_(std::move(config)),
      memory_(memory),
      debug_trace_(std::getenv("CAPELLINI_TRACE") != nullptr) {
  CAPELLINI_CHECK(memory_ != nullptr);
  CAPELLINI_CHECK_MSG(config_.warp_size == 32,
                      "the interpreter is specialized for 32-lane warps");
  CAPELLINI_CHECK(config_.num_sms > 0 && config_.max_warps_per_sm > 0);
  CAPELLINI_CHECK_MSG(
      config_.sector_bytes > 0 &&
          (config_.sector_bytes & (config_.sector_bytes - 1)) == 0,
      "sector_bytes must be a power of two");
  sector_shift_ = 0;
  while ((1 << sector_shift_) < config_.sector_bytes) ++sector_shift_;
  wake_wheel_.resize(kWakeWheel);
  wake_wheel_bits_.assign(kWakeWheel / 64, 0);
  dram_bytes_per_cycle_ = config_.BytesPerCycle();
  l2_bytes_per_cycle_ = config_.L2BytesPerCycle();
}

void Machine::WakeReset() {
  if (wake_wheel_count_ != 0) {
    for (std::size_t word = 0; word < wake_wheel_bits_.size(); ++word) {
      std::uint64_t bits = wake_wheel_bits_[word];
      while (bits != 0) {
        wake_wheel_[(word << 6) +
                    static_cast<std::size_t>(std::countr_zero(bits))]
            .clear();
        bits &= bits - 1;
      }
      wake_wheel_bits_[word] = 0;
    }
    wake_wheel_count_ = 0;
  }
  wake_far_ = {};
}

std::uint64_t Machine::NextWakeTime() const {
  std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
  if (wake_wheel_count_ != 0) {
    // All wheel times lie in (cycle_, cycle_ + kWakeWheel), so the first
    // occupied bucket at or after residue cycle_+1 (wrapping) is the min.
    const std::uint64_t mask = kWakeWheel - 1;
    const std::uint64_t start = (cycle_ + 1) & mask;
    const std::size_t words = wake_wheel_bits_.size();
    for (std::size_t i = 0; i <= words; ++i) {
      const std::size_t word = ((start >> 6) + i) % words;
      std::uint64_t bits = wake_wheel_bits_[word];
      if (i == 0) bits &= ~0ull << (start & 63);
      if (bits == 0) continue;
      const std::uint64_t b =
          (static_cast<std::uint64_t>(word) << 6) +
          static_cast<std::uint64_t>(std::countr_zero(bits));
      const std::uint64_t delta = (b - cycle_) & mask;
      next = cycle_ + (delta == 0 ? kWakeWheel : delta);
      break;
    }
  }
  if (!wake_far_.empty()) {
    next = std::min(next, std::get<0>(wake_far_.top()));
  }
  return next;
}

bool Machine::TouchSector(std::uint64_t sector) {
  const std::size_t word = static_cast<std::size_t>(sector >> 6);
  const std::uint64_t bit = 1ull << (sector & 63);
  if (word >= l2_sectors_.size()) l2_sectors_.resize(word + 1024, 0);
  const std::uint64_t prev = l2_sectors_[word];
  if (prev == 0) l2_touched_words_.push_back(word);
  l2_sectors_[word] = prev | bit;
  return (prev & bit) != 0;
}

std::size_t Machine::DedupSectors(const std::uint64_t* addresses,
                                  std::size_t count, int sector_shift,
                                  std::uint64_t* sectors) {
  std::size_t num_sectors = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // An access may straddle a sector boundary only if misaligned; all our
    // kernels access naturally aligned 4/8-byte values, so one sector each.
    const std::uint64_t s = addresses[i] >> sector_shift;
    // Consecutive lanes overwhelmingly hit the sector the previous lane
    // appended; checking it first makes the common case O(1) per lane.
    if (num_sectors != 0 && sectors[num_sectors - 1] == s) continue;
    bool seen = false;
    for (std::size_t k = 0; k < num_sectors; ++k) {
      if (sectors[k] == s) {
        seen = true;
        break;
      }
    }
    if (!seen) sectors[num_sectors++] = s;
  }
  return num_sectors;
}

Machine::MemTxn Machine::AccountSectors(const std::uint64_t* sectors,
                                        std::size_t num_sectors,
                                        bool is_atomic) {
  const std::uint64_t sector_bytes =
      static_cast<std::uint64_t>(config_.sector_bytes);
  std::uint64_t misses = 0;
  for (std::size_t k = 0; k < num_sectors; ++k) {
    if (!TouchSector(sectors[k])) ++misses;
  }
  stats_.dram_transactions += num_sectors;
  stats_.dram_bytes += misses * sector_bytes;

  MemTxn txn;
  txn.transactions = static_cast<std::uint32_t>(num_sectors);
  txn.misses = static_cast<std::uint32_t>(misses);
  // Backlog in front of this request = the bandwidth-bound share of its wait;
  // captured before the queues advance. Only sinks consume it, so only pay
  // for it when one is attached.
  if (trace_) {
    const double now = static_cast<double>(cycle_);
    double backlog = std::max(0.0, l2_busy_until_ - now);
    if (misses > 0) backlog += std::max(0.0, dram_busy_until_ - now);
    txn.queue_cycles = static_cast<std::uint64_t>(backlog);
  }

  // Every transaction queues on L2 throughput. Atomics occupy the L2 for a
  // full read-modify-write; hits (typically busy-wait polls of resident
  // lines) cost a fraction of a sector (see DeviceConfig::l2_hit_cost_divisor).
  const std::uint64_t hits = num_sectors - misses;
  double cost_sectors = static_cast<double>(misses) +
                        static_cast<double>(hits) / config_.l2_hit_cost_divisor;
  if (is_atomic) cost_sectors *= config_.atomic_cost_multiplier;
  const double l2_start =
      std::max(l2_busy_until_, static_cast<double>(cycle_));
  l2_busy_until_ = l2_start + cost_sectors *
                                  static_cast<double>(sector_bytes) /
                                  l2_bytes_per_cycle_;
  const std::uint64_t l2_done =
      static_cast<std::uint64_t>(l2_busy_until_) +
      static_cast<std::uint64_t>(config_.l2_hit_latency_cycles);
  if (misses == 0) {
    txn.ready_at = l2_done;
    return txn;
  }

  // Misses additionally queue on DRAM bandwidth and pay DRAM latency.
  const double dram_start =
      std::max(dram_busy_until_, static_cast<double>(cycle_));
  dram_busy_until_ = dram_start +
                     static_cast<double>(misses * sector_bytes) /
                         dram_bytes_per_cycle_;
  const std::uint64_t dram_done =
      static_cast<std::uint64_t>(dram_busy_until_) +
      static_cast<std::uint64_t>(config_.dram_latency_cycles);
  txn.ready_at = std::max(l2_done, dram_done);
  return txn;
}

Machine::MemTxn Machine::AccountMemory(std::span<const std::uint64_t> addresses,
                                       bool is_atomic) {
  // Distinct sectors among the active lanes' accesses = transactions.
  std::uint64_t sectors[64];
  const std::size_t num_sectors =
      DedupSectors(addresses.data(), addresses.size(), sector_shift_, sectors);
  return AccountSectors(sectors, num_sectors, is_atomic);
}

void Machine::SyncAtReconv(Warp& warp) {
  while (!warp.stack.empty() &&
         warp.pc == warp.stack.back().reconv_pc) {
    Frame& top = warp.stack.back();
    if (top.other_pc != top.reconv_pc && top.other_mask != 0) {
      // The other side has not run yet: park the arrived lanes, switch.
      std::swap(warp.active, top.other_mask);
      const std::int32_t pending_pc = top.other_pc;
      top.other_pc = top.reconv_pc;
      warp.pc = pending_pc;
    } else {
      // Both sides arrived (or the other side is empty): merge and pop.
      warp.active |= top.other_mask;
      warp.stack.pop_back();
    }
  }
}

void Machine::UnwindIfEmpty(Warp& warp) {
  while (warp.active == 0 && !warp.stack.empty()) {
    const Frame top = warp.stack.back();
    warp.stack.pop_back();
    warp.active = top.other_mask;
    warp.pc = top.other_pc;
  }
  if (warp.active == 0) warp.alive = false;
}

void Machine::FinishWarp(int warp_index, int sm_index) {
  Warp& warp = warp_pool_[static_cast<std::size_t>(warp_index)];
  if (trace_) {
    trace_->OnWarpFinish(cycle_, sm_index,
                         warp_index - sm_index * config_.max_warps_per_sm,
                         warp.base_tid);
  }
  warp.alive = false;
  Sm& sm = sms_[static_cast<std::size_t>(sm_index)];
  sm.free_slots.push_back(warp_index);
  --sm.resident;
  if (sm.resident == 0) --resident_sm_count_;
  --alive_warps_;
  sm_slots_freed_ = true;
  last_progress_cycle_ = cycle_;
}

void Machine::ExecuteInstruction(int warp_index, int sm_index) {
  Warp& warp = warp_pool_[static_cast<std::size_t>(warp_index)];
  if (!warp.stack.empty()) SyncAtReconv(warp);
  CAPELLINI_CHECK(warp.active != 0);
  CAPELLINI_CHECK(warp.pc >= 0 &&
                  warp.pc < static_cast<std::int32_t>(kernel_->code.size()));

  const Instr& instr = kernel_->code[static_cast<std::size_t>(warp.pc)];
  const std::uint8_t pc_flags = pc_flags_[static_cast<std::size_t>(warp.pc)];
  // Debug tracing (CAPELLINI_TRACE=1): one line per issued instruction.
  if (debug_trace_) {
    std::fprintf(stderr,
                 "cyc=%llu warp=%d pc=%d op=%d active=%08x stack=%zu\n",
                 static_cast<unsigned long long>(cycle_), warp_index, warp.pc,
                 static_cast<int>(instr.op), warp.active, warp.stack.size());
  }
  ++stats_.instructions;
  stats_.lane_instructions += static_cast<std::uint64_t>(PopCount(warp.active));

  if (trace_) {
    trace::IssueInfo issue;
    issue.cycle = cycle_;
    issue.sm = sm_index;
    issue.warp_slot = warp_index - sm_index * config_.max_warps_per_sm;
    issue.base_tid = warp.base_tid;
    issue.pc = warp.pc;
    issue.active = warp.active;
    issue.divergent = !warp.stack.empty();
    issue.in_spin = (pc_flags & kPcInSpin) != 0;
    issue.spin_head = (pc_flags & kPcSpinHead) != 0;
    trace_->OnIssue(issue);
  }

  std::int32_t next_pc = warp.pc + 1;
  MemTxn mem;  // ready_at == 0 => ready immediately
  bool is_atomic_op = false;

  const std::uint32_t active = warp.active;
  switch (instr.op) {
    case Op::kNop:
      break;
    case Op::kMovI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = instr.imm;
      });
      break;
    case Op::kMov:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b);
      });
      break;
    case Op::kAdd:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) + RegI(warp, lane, instr.c);
      });
      break;
    case Op::kAddI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) + instr.imm;
      });
      break;
    case Op::kSub:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) - RegI(warp, lane, instr.c);
      });
      break;
    case Op::kMul:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) * RegI(warp, lane, instr.c);
      });
      break;
    case Op::kMulI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) * instr.imm;
      });
      break;
    case Op::kAndI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) & instr.imm;
      });
      break;
    case Op::kShlI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) << instr.imm;
      });
      break;
    case Op::kShrI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) >> instr.imm;
      });
      break;
    case Op::kSetLt:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) < RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetLe:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) <= RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetEq:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) == RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetNe:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) != RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetGe:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) >= RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetGt:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) > RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetLtI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) < instr.imm ? 1 : 0;
      });
      break;
    case Op::kSetGeI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) >= instr.imm ? 1 : 0;
      });
      break;
    case Op::kSetEqI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) == instr.imm ? 1 : 0;
      });
      break;
    case Op::kSetNeI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) != instr.imm ? 1 : 0;
      });
      break;
    case Op::kS2R: {
      const auto special = static_cast<Special>(instr.b);
      ForActive(active, [&](int lane) {
        std::int64_t value = 0;
        switch (special) {
          case Special::kGlobalTid:
            value = warp.base_tid + lane;
            break;
          case Special::kLane:
            value = lane;
            break;
          case Special::kWarpId:
            value = (warp.base_tid + lane) / 32;
            break;
          case Special::kBlockId:
            value = warp.block_id;
            break;
          case Special::kThreadInBlock:
            value = warp.base_tid + lane -
                    warp.block_id * static_cast<std::int64_t>(threads_per_block_);
            break;
          case Special::kGridThreads:
            value = grid_threads_;
            break;
        }
        RegI(warp, lane, instr.a) = value;
      });
      break;
    }
    case Op::kLdParam:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            params_[static_cast<std::size_t>(instr.imm)];
      });
      break;
    case Op::kLd4:
    case Op::kLd8I:
    case Op::kLd8F: {
      std::uint64_t addresses[32];
      std::size_t count = 0;
      ForActive(active, [&](int lane) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(RegI(warp, lane, instr.b));
        addresses[count++] = addr;
        if (instr.op == Op::kLd4) {
          RegI(warp, lane, instr.a) = memory_->LoadI32(addr);
        } else if (instr.op == Op::kLd8I) {
          RegI(warp, lane, instr.a) = memory_->LoadI64(addr);
        } else {
          RegF(warp, lane, instr.a) = memory_->LoadF64(addr);
        }
      });
      // Spin-poll fast path: a warp spinning on this load issues the same
      // address set every iteration, so reuse its cached sector list and
      // skip the dedup scan. The accounting (AccountSectors) is identical.
      if ((pc_flags & kPcInSpin) != 0 && warp.poll_pc == warp.pc &&
          warp.poll_mask == active &&
          warp.poll_count == static_cast<std::uint8_t>(count) &&
          std::equal(addresses, addresses + count,
                     warp.poll_addresses.begin())) {
        mem = AccountSectors(warp.poll_sectors.data(), warp.poll_num_sectors,
                             /*is_atomic=*/false);
      } else {
        std::uint64_t sectors[64];
        const std::size_t num_sectors =
            DedupSectors(addresses, count, sector_shift_, sectors);
        mem = AccountSectors(sectors, num_sectors, /*is_atomic=*/false);
        if ((pc_flags & kPcInSpin) != 0) {
          warp.poll_pc = warp.pc;
          warp.poll_mask = active;
          warp.poll_count = static_cast<std::uint8_t>(count);
          warp.poll_num_sectors = static_cast<std::uint8_t>(num_sectors);
          std::copy(addresses, addresses + count,
                    warp.poll_addresses.begin());
          std::copy(sectors, sectors + num_sectors,
                    warp.poll_sectors.begin());
        }
      }
      break;
    }
    case Op::kSt4:
    case Op::kSt8I:
    case Op::kSt8F: {
      std::uint64_t addresses[32];
      std::size_t count = 0;
      ForActive(active, [&](int lane) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(RegI(warp, lane, instr.a));
        addresses[count++] = addr;
        // Dropped publish: the annotated store vanishes before reaching
        // memory. Bandwidth below is still accounted — the transaction
        // happened, the value didn't land — which is how the real hazard
        // manifests (and how the no-progress watchdog later catches it).
        if (faults_ && (pc_flags & kPcPublish) != 0 &&
            faults_->DropPublish(warp.base_tid + lane)) {
          return;
        }
        if (instr.op == Op::kSt4) {
          memory_->StoreI32(addr,
                            static_cast<std::int32_t>(RegI(warp, lane, instr.b)));
        } else if (instr.op == Op::kSt8I) {
          memory_->StoreI64(addr, RegI(warp, lane, instr.b));
        } else {
          double value = RegF(warp, lane, instr.b);
          if (faults_) faults_->MaybeFlipStoreBit(value, warp.base_tid + lane);
          memory_->StoreF64(addr, value);
        }
        if (peers_ && (pc_flags & kPcPublish) != 0) {
          peers_->OnPublish(cycle_, addr);
        }
      });
      // Stores are fire-and-forget: account bandwidth, do not stall.
      (void)AccountMemory({addresses, count}, /*is_atomic=*/false);
      last_progress_cycle_ = cycle_;
      if (trace_ && (pc_flags & kPcPublish) != 0) {
        trace::PublishInfo publish;
        publish.cycle = cycle_;
        publish.sm = sm_index;
        publish.warp_slot = warp_index - sm_index * config_.max_warps_per_sm;
        for (std::size_t i = 0; i < count; ++i) {
          publish.addr = addresses[i];
          trace_->OnPublish(publish);
        }
      }
      break;
    }
    case Op::kAtomAddF8:
    case Op::kAtomAddI4: {
      std::uint64_t addresses[32];
      std::size_t count = 0;
      // Lanes are serialized by hardware on address conflicts; the simulator
      // applies them in lane order, which is one legal serialization.
      ForActive(active, [&](int lane) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(RegI(warp, lane, instr.b));
        addresses[count++] = addr;
        if (instr.op == Op::kAtomAddF8) {
          const double old = memory_->LoadF64(addr);
          RegF(warp, lane, instr.a) = old;
          memory_->StoreF64(addr, old + RegF(warp, lane, instr.c));
        } else {
          const std::int32_t old = memory_->LoadI32(addr);
          RegI(warp, lane, instr.a) = old;
          memory_->StoreI32(
              addr, old + static_cast<std::int32_t>(RegI(warp, lane, instr.c)));
        }
      });
      mem = AccountMemory({addresses, count}, /*is_atomic=*/true);
      is_atomic_op = true;
      last_progress_cycle_ = cycle_;
      if (trace_) {
        trace_->OnAtomic(cycle_, sm_index,
                         warp_index - sm_index * config_.max_warps_per_sm,
                         mem.transactions);
      }
      break;
    }
    case Op::kFMovI:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) = instr.fimm;
      });
      break;
    case Op::kFMov:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) = RegF(warp, lane, instr.b);
      });
      break;
    case Op::kFAdd:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) =
            RegF(warp, lane, instr.b) + RegF(warp, lane, instr.c);
      });
      break;
    case Op::kFSub:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) =
            RegF(warp, lane, instr.b) - RegF(warp, lane, instr.c);
      });
      break;
    case Op::kFMul:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) =
            RegF(warp, lane, instr.b) * RegF(warp, lane, instr.c);
      });
      break;
    case Op::kFDiv:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) =
            RegF(warp, lane, instr.b) / RegF(warp, lane, instr.c);
      });
      break;
    case Op::kFFma:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) +=
            RegF(warp, lane, instr.b) * RegF(warp, lane, instr.c);
      });
      break;
    case Op::kShflDownF: {
      // Read the source values of ALL lanes first (lock-step exchange).
      double source[32];
      for (int lane = 0; lane < 32; ++lane) {
        source[lane] = RegF(warp, lane, instr.b);
      }
      ForActive(active, [&](int lane) {
        const int src_lane = lane + static_cast<int>(instr.imm);
        RegF(warp, lane, instr.a) =
            src_lane < 32 ? source[src_lane] : source[lane];
      });
      break;
    }
    case Op::kBrnz:
    case Op::kBrz: {
      std::uint32_t taken = 0;
      ForActive(active, [&](int lane) {
        const bool nz = RegI(warp, lane, instr.a) != 0;
        const bool takes = (instr.op == Op::kBrnz) ? nz : !nz;
        if (takes) taken |= 1u << lane;
      });
      const std::uint32_t fall = active & ~taken;
      if (taken == 0) {
        // all fall through: next_pc already pc + 1
      } else if (fall == 0) {
        next_pc = static_cast<std::int32_t>(instr.imm);
      } else {
        // Divergence: run the fall-through side first; park the taken side.
        const auto reconv = static_cast<std::int32_t>(instr.imm2);
        const auto target = static_cast<std::int32_t>(instr.imm);
        // Merge with an existing frame when a loop re-diverges to the same
        // (reconv, target): keeps the stack O(nesting), not O(iterations).
        if (!warp.stack.empty() &&
            warp.stack.back().reconv_pc == reconv &&
            warp.stack.back().other_pc == target) {
          warp.stack.back().other_mask |= taken;
        } else {
          warp.stack.push_back(Frame{reconv, target, taken});
        }
        warp.active = fall;
      }
      break;
    }
    case Op::kJmp:
      next_pc = static_cast<std::int32_t>(instr.imm);
      break;
    case Op::kFence:
      // Memory is sequentially consistent in the simulator; the fence is a
      // 1-cycle ordering no-op kept for faithful instruction counts.
      break;
    case Op::kExit:
      warp.active = 0;
      break;
  }

  warp.pc = next_pc;
  UnwindIfEmpty(warp);
  if (!warp.alive) {
    FinishWarp(warp_index, sm_index);
    return;
  }

  // Delayed memory response: the completion slips further out. Timing-only —
  // the value was already read at issue (sequential consistency holds).
  if (faults_ && mem.ready_at != 0) {
    mem.ready_at += faults_->ExtraMemDelay(warp.base_tid);
  }

  Sm& sm = sms_[static_cast<std::size_t>(sm_index)];
  if (mem.ready_at > cycle_ + 1) {
    if (trace_) {
      trace::MemStallInfo stall;
      stall.cycle = cycle_;
      stall.ready_at = mem.ready_at;
      stall.sm = sm_index;
      stall.warp_slot = warp_index - sm_index * config_.max_warps_per_sm;
      stall.base_tid = warp.base_tid;
      stall.queue_cycles = mem.queue_cycles;
      stall.transactions = mem.transactions;
      stall.dram_misses = mem.misses;
      stall.is_atomic = is_atomic_op;
      stall.in_spin = (pc_flags & kPcInSpin) != 0;
      trace_->OnMemStall(stall);
    }
    WakePush(mem.ready_at, warp_index, sm_index);
  } else {
    sm.ready.push_back(warp_index);
    MarkSmReady(sm_index);
  }
}

Expected<LaunchStats> Machine::Launch(const Kernel& kernel, LaunchDims dims,
                                      std::span<const std::int64_t> params) {
  if (dims.num_threads <= 0) {
    return InvalidArgument("launch with no threads");
  }
  if (static_cast<int>(params.size()) != kernel.num_params) {
    return InvalidArgument("kernel " + kernel.name + " expects " +
                           std::to_string(kernel.num_params) + " params, got " +
                           std::to_string(params.size()));
  }
  if (dims.threads_per_block <= 0 || dims.threads_per_block % 32 != 0) {
    return InvalidArgument("threads_per_block must be a positive multiple of 32");
  }
  if (dims.threads_per_block / 32 > config_.max_warps_per_sm) {
    return InvalidArgument(
        "threads_per_block exceeds the SM's resident-warp capacity (" +
        std::to_string(config_.max_warps_per_sm * 32) + " threads)");
  }

  kernel_ = &kernel;
  params_.assign(params.begin(), params.end());
  grid_threads_ = dims.num_threads;
  threads_per_block_ = dims.threads_per_block;
  stats_ = LaunchStats{};
  stats_.launches = 1;
  cycle_ = 0;
  dram_busy_until_ = 0.0;
  l2_busy_until_ = 0.0;
  last_progress_cycle_ = 0;
  alive_warps_ = 0;
  sm_slots_freed_ = false;
  WakeReset();
  // Peer traffic: a linked launch syncs before its first cycle.
  ext_.clear();
  ext_next_ = 0;
  ext_expected_ = peers_ ? peers_->expected_stores() : 0;
  horizon_ = peers_ ? 0 : std::numeric_limits<std::uint64_t>::max();
  // Lazy bitmap reset: only the words the previous launch touched are
  // nonzero, so re-launch cost is O(touched), not O(address space).
  for (const std::size_t word : l2_touched_words_) l2_sectors_[word] = 0;
  l2_touched_words_.clear();

  // Per-PC annotations, rebuilt for this kernel. A kernel is tens of
  // instructions and a launch thousands of cycles, so this costs nothing
  // next to the issue loop.
  pc_flags_.assign(kernel.code.size(), 0);
  for (const auto& [begin, end] : kernel.spin_regions) {
    for (std::int32_t pc = begin; pc < end; ++pc) {
      pc_flags_[static_cast<std::size_t>(pc)] |= kPcInSpin;
    }
    pc_flags_[static_cast<std::size_t>(begin)] |= kPcSpinHead;
  }
  for (const std::int32_t pc : kernel.publish_pcs) {
    pc_flags_[static_cast<std::size_t>(pc)] |= kPcPublish;
  }

  ++launch_index_;
  if (trace_) {
    trace::LaunchInfo info;
    info.launch_index = launch_index_;
    info.kernel_name = kernel.name.c_str();
    info.num_threads = dims.num_threads;
    info.threads_per_block = dims.threads_per_block;
    info.params = params_.data();
    info.num_params = static_cast<int>(params_.size());
    trace_->OnLaunchBegin(info);
  }

  const int warps_per_block = dims.threads_per_block / 32;
  const std::int64_t num_blocks =
      (dims.num_threads + dims.threads_per_block - 1) / dims.threads_per_block;

  // Warp pool & SM slots (allocations reused across launches when the device
  // dims are unchanged; the per-SM loop below resets all mutable state).
  const int pool_per_sm = config_.max_warps_per_sm;
  const std::size_t pool_size =
      static_cast<std::size_t>(config_.num_sms) *
      static_cast<std::size_t>(pool_per_sm);
  if (warp_pool_.size() != pool_size) {
    warp_pool_.assign(pool_size, Warp{});
    for (Warp& warp : warp_pool_) {
      warp.r.assign(32 * kNumIntRegs, 0);
      warp.f.assign(32 * kNumFltRegs, 0.0);
    }
  }
  if (sms_.size() != static_cast<std::size_t>(config_.num_sms)) {
    sms_.resize(static_cast<std::size_t>(config_.num_sms));
  }
  for (int s = 0; s < config_.num_sms; ++s) {
    Sm& sm = sms_[static_cast<std::size_t>(s)];
    sm.free_slots.clear();
    for (int k = pool_per_sm - 1; k >= 0; --k) {
      sm.free_slots.push_back(s * pool_per_sm + k);
    }
    sm.ready.Reset(pool_per_sm);
    sm.resident = 0;
  }
  ready_sm_mask_.assign(
      (static_cast<std::size_t>(config_.num_sms) + 63) / 64, 0);
  resident_sm_count_ = 0;

  std::int64_t next_block = 0;
  int dispatch_sm = 0;

  // Assigns queued blocks, in block order, to SMs with enough free slots.
  auto dispatch = [&] {
    int sms_tried = 0;
    while (next_block < num_blocks && sms_tried < config_.num_sms) {
      Sm& sm = sms_[static_cast<std::size_t>(dispatch_sm)];
      if (static_cast<int>(sm.free_slots.size()) < warps_per_block) {
        dispatch_sm = (dispatch_sm + 1) % config_.num_sms;
        ++sms_tried;
        continue;
      }
      const std::int64_t block = next_block++;
      if (trace_) trace_->OnBlockDispatch(cycle_, block, dispatch_sm);
      const std::int64_t block_first_tid =
          block * static_cast<std::int64_t>(dims.threads_per_block);
      for (int w = 0; w < warps_per_block; ++w) {
        const std::int64_t base_tid = block_first_tid + 32ll * w;
        if (base_tid >= dims.num_threads) break;
        const int warp_index = sm.free_slots.back();
        sm.free_slots.pop_back();
        Warp& warp = warp_pool_[static_cast<std::size_t>(warp_index)];
        warp.pc = 0;
        warp.base_tid = base_tid;
        warp.block_id = block;
        warp.stack.clear();
        warp.poll_pc = -1;
        const std::int64_t lanes_left = dims.num_threads - base_tid;
        warp.active = lanes_left >= 32
                          ? kFullMask
                          : (1u << lanes_left) - 1u;
        warp.alive = true;
        sm.ready.push_back(warp_index);
        MarkSmReady(dispatch_sm);
        if (sm.resident == 0) ++resident_sm_count_;
        ++sm.resident;
        ++alive_warps_;
        if (trace_) {
          trace_->OnWarpStart(
              cycle_, dispatch_sm,
              warp_index - dispatch_sm * config_.max_warps_per_sm, block,
              base_tid);
        }
      }
      last_progress_cycle_ = cycle_;
      dispatch_sm = (dispatch_sm + 1) % config_.num_sms;
      sms_tried = 0;  // made progress; rescan
    }
  };

  dispatch();

  while (alive_warps_ > 0 || next_block < num_blocks) {
    if (cycle_ >= horizon_) {
      const std::size_t known = ext_.size();
      horizon_ = peers_->Sync(cycle_, ext_);
      if (horizon_ == PeerLink::kCancel) {
        if (trace_) {
          trace_->OnLaunchEnd(cycle_ + config_.launch_overhead_cycles);
        }
        return FailedPrecondition("kernel " + kernel.name +
                                  " cancelled by its peer link at cycle " +
                                  std::to_string(cycle_));
      }
      if (ext_.size() != known) {
        std::sort(ext_.begin() + static_cast<std::ptrdiff_t>(ext_next_),
                  ext_.end(),
                  [](const ExternalStore& a, const ExternalStore& b) {
                    return a.cycle < b.cycle;
                  });
      }
    }
    // Apply peer-device stores whose arrival cycle has been reached. Applied
    // before any warp issues this cycle, so a poll load at cycle >= arrival
    // observes the flag — the same ordering an on-device producer gives. Each
    // application is forward progress: a consumer legitimately spinning on a
    // remote flag is not a deadlock.
    while (ext_next_ < ext_.size() && ext_[ext_next_].cycle <= cycle_) {
      const ExternalStore& store = ext_[ext_next_++];
      if (store.f64_addr != 0) {
        memory_->StoreF64(store.f64_addr, store.f64_value);
      }
      if (store.i32_addr != 0) {
        memory_->StoreI32(store.i32_addr, store.i32_value);
      }
      last_progress_cycle_ = cycle_;
    }
    if (cycle_ > config_.max_cycles) {
      const std::string dump = "kernel " + kernel.name + " exceeded " +
                               std::to_string(config_.max_cycles) + " cycles";
      if (trace_) {
        trace_->OnDeadlock(cycle_, dump);
        trace_->OnLaunchEnd(cycle_ + config_.launch_overhead_cycles);
      }
      return DeadlockError(dump);
    }
    if (ext_next_ >= ext_expected_ &&
        cycle_ - last_progress_cycle_ > config_.no_progress_cycles) {
      // Diagnose: where are the surviving warps parked? A busy-wait deadlock
      // shows up as most warps clustered at the spin loop's PCs.
      std::vector<int> pc_histogram(kernel.code.size(), 0);
      int alive = 0;
      for (const Warp& warp : warp_pool_) {
        if (!warp.alive) continue;
        ++alive;
        ++pc_histogram[static_cast<std::size_t>(warp.pc)];
      }
      std::string hot_pcs;
      int listed = 0;
      for (std::size_t pc = 0; pc < pc_histogram.size(); ++pc) {
        if (pc_histogram[pc] == 0) continue;
        if (listed++ >= 4) break;
        if (!hot_pcs.empty()) hot_pcs += ", ";
        hot_pcs += "pc " + std::to_string(pc) + " x" +
                   std::to_string(pc_histogram[pc]);
      }
      const std::string dump =
          "kernel " + kernel.name +
          " made no forward progress (intra-warp busy-wait deadlock?) at cycle " +
          std::to_string(cycle_) + "; " + std::to_string(alive) +
          " warps alive (" + hot_pcs + ")";
      if (trace_) {
        trace_->OnDeadlock(cycle_, dump);
        trace_->OnLaunchEnd(cycle_ + config_.launch_overhead_cycles);
      }
      return DeadlockError(dump);
    }

    // Far-parked warps whose wake time entered the wheel horizon.
    while (!wake_far_.empty() &&
           std::get<0>(wake_far_.top()) < cycle_ + kWakeWheel) {
      const WakeEntry entry = wake_far_.top();
      wake_far_.pop();
      const std::uint64_t b = std::get<0>(entry) & (kWakeWheel - 1);
      wake_wheel_[b].emplace_back(std::get<1>(entry), std::get<2>(entry));
      wake_wheel_bits_[b >> 6] |= 1ull << (b & 63);
      ++wake_wheel_count_;
    }
    // Wake memory-stalled warps whose loads completed. Exactly one bucket
    // can hold entries at time <= cycle_ (see wake_wheel_ invariants).
    {
      const std::uint64_t b = cycle_ & (kWakeWheel - 1);
      if ((wake_wheel_bits_[b >> 6] >> (b & 63)) & 1ull) {
        std::vector<std::pair<int, int>>& bucket = wake_wheel_[b];
        std::sort(bucket.begin(), bucket.end());
        for (const auto& [warp, sm] : bucket) {
          sms_[static_cast<std::size_t>(sm)].ready.push_back(warp);
          MarkSmReady(sm);
        }
        wake_wheel_count_ -= bucket.size();
        bucket.clear();
        wake_wheel_bits_[b >> 6] &= ~(1ull << (b & 63));
      }
    }

    // Re-attempt block dispatch only after a warp retired: dispatch fails
    // exactly when no SM has enough free slots, and a failed full scan
    // leaves dispatch_sm where it started (it advances num_sms times), so
    // skipping the guaranteed-failing re-scans is schedule-identical. For
    // grids larger than device residency this removes a full SM scan from
    // (nearly) every simulated cycle.
    if (next_block < num_blocks && sm_slots_freed_) {
      sm_slots_freed_ = false;
      dispatch();
    }

    // Issue scan. Every resident SM charges issue_per_cycle slots per cycle
    // whether or not it issues, so the total is closed-form; only SMs with a
    // non-empty ready ring (set bits, walked in ascending SM order — the
    // exact subset and order the full sweep would have issued from) are
    // visited, and stalls fall out as slots minus used.
    const std::uint64_t cycle_slots =
        static_cast<std::uint64_t>(config_.issue_per_cycle) *
        static_cast<std::uint64_t>(resident_sm_count_);
    stats_.issue_slots += cycle_slots;
    std::uint64_t used = 0;
    for (std::size_t word = 0; word < ready_sm_mask_.size(); ++word) {
      std::uint64_t bits = ready_sm_mask_[word];
      while (bits != 0) {
        const int s =
            static_cast<int>(word << 6) + std::countr_zero(bits);
        const std::uint64_t bit = bits & (~bits + 1);
        bits &= bits - 1;
        Sm& sm = sms_[static_cast<std::size_t>(s)];
        for (int k = 0; k < config_.issue_per_cycle; ++k) {
          // Nothing can refill a drained ring mid-loop except this SM's own
          // re-queues (wake/dispatch run before the scan), so empty means
          // the remaining slots of this SM-cycle are all stalls.
          if (sm.ready.empty()) break;
          const int warp_index = sm.ready.pop_front();
          // Stuck warp: parked instead of issuing — scheduling jitter, the
          // slot goes idle. The wake queue brings it back, so the
          // no-progress watchdog never confuses a stuck warp with a
          // deadlock.
          if (faults_) {
            const std::uint64_t stuck = faults_->StuckCycles(
                warp_pool_[static_cast<std::size_t>(warp_index)].base_tid);
            if (stuck != 0) {
              WakePush(cycle_ + stuck, warp_index, s);
              continue;
            }
          }
          ExecuteInstruction(warp_index, s);
          ++used;
        }
        if (sm.ready.empty()) ready_sm_mask_[word] &= ~bit;
      }
    }
    stats_.issue_used += used;
    stats_.stall_slots += cycle_slots - used;
    const bool issued_any = used != 0;

    if (issued_any) {
      ++cycle_;
    } else if (WakePending()) {
      // Everything resident is stalled on memory: fast-forward.
      const std::uint64_t next = NextWakeTime();
      const std::uint64_t skip = next > cycle_ ? next - cycle_ : 1;
      const std::uint64_t slots =
          skip * static_cast<std::uint64_t>(config_.issue_per_cycle) *
          static_cast<std::uint64_t>(resident_sm_count_);
      stats_.issue_slots += slots;
      stats_.stall_slots += slots;
      cycle_ += skip;
    } else if (alive_warps_ > 0) {
      return InternalError("live warps with nothing ready and empty wake queue");
    } else {
      // Blocks remain but nothing resident: dispatch next iteration.
      ++cycle_;
    }
  }

  stats_.cycles = cycle_ + config_.launch_overhead_cycles;
  if (trace_) trace_->OnLaunchEnd(stats_.cycles);
  return stats_;
}

}  // namespace capellini::sim
