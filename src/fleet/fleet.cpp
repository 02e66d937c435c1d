#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <span>
#include <utility>

#include "fleet/comm.h"
#include "sim/fault.h"
#include "support/thread_pool.h"

namespace capellini::fleet {

DeviceFleet::DeviceFleet(const FleetConfig& config) : config_(config) {
  config_.num_devices = std::max(1, config_.num_devices);
  const int k = config_.num_devices;
  memories_.reserve(static_cast<std::size_t>(k));
  machines_.reserve(static_cast<std::size_t>(k));
  for (int d = 0; d < k; ++d) {
    memories_.push_back(std::make_unique<sim::DeviceMemory>());
    machines_.push_back(
        std::make_unique<sim::Machine>(config_.device, memories_.back().get()));
  }
  sinks_.assign(static_cast<std::size_t>(k), nullptr);
  injectors_.assign(static_cast<std::size_t>(k), nullptr);
}

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One remote row a device waits on: producer device + global row.
struct Need {
  int src = 0;
  Idx row = 0;
};

/// What a device task leaves behind for its consumers.
struct Outcome {
  Status status;
  std::vector<Val> x;                        // full-length device image
  std::vector<std::uint64_t> publish_cycles; // per local row
  /// The device launched in the first pass (false = it did not: an upstream
  /// failure or an unpublished remote row). Recovery treats un-launched
  /// failures as upstream-induced and retries the owner first.
  bool launched = false;
};

/// The first pass's co-simulation (DESIGN.md §4f): the device launches run
/// at once on the pool, one host thread each by default, and trade boundary
/// publishes here. Device d may simulate cycle c once it knows every peer
/// store landing at or before c. A store it does not know yet comes from a
/// publish at or after its producer's reported clock, and arrives no sooner
/// than the link's NextArrival of that clock, so d's horizon is the smallest
/// such bound over the producers it still waits on. Arrivals are priced per
/// link in row order, exactly as a serial pass prices them. A device whose
/// producer failed, or finished without publishing a row it needs, is
/// cancelled.
class Exchange {
 public:
  Exchange(const Partition& part, const std::vector<std::vector<Need>>& needs)
      : part_(part),
        comm_(CommConfig{}, part.num_devices()),
        producers_(static_cast<std::size_t>(part.num_devices())),
        report_every_(std::max<std::uint64_t>(1, comm_.MinDelay() / 2)) {
    for (int d = 0; d < part.num_devices(); ++d) {
      Producer& producer = producers_[static_cast<std::size_t>(d)];
      producer.cycle.assign(static_cast<std::size_t>(part.RowCount(d)),
                            UINT64_MAX);
      producer.value.assign(producer.cycle.size(), 0.0);
      ports_.emplace_back(this, d, needs[static_cast<std::size_t>(d)]);
    }
  }
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  /// Device d's side, handed to its launch; only d's thread uses it.
  class Port final : public kernels::RangePeers {
   public:
    Port(Exchange* exchange, int device, const std::vector<Need>& needs)
        : exchange_(exchange), device_(device), num_arrivals_(needs.size()) {
      for (const Need& need : needs) {  // sorted by (src, row)
        if (inbound_.empty() || inbound_.back().src != need.src) {
          inbound_.push_back(Inbound{need.src, {}, 0});
        }
        inbound_.back().rows.push_back(need.row);
      }
    }
    Port(const Port&) = delete;
    Port& operator=(const Port&) = delete;

    std::size_t num_arrivals() const override { return num_arrivals_; }

    /// Reports this device's clock and publishes, then blocks until its
    /// horizon passes `cycle` or it is cancelled.
    std::uint64_t Sync(std::uint64_t cycle,
                       std::vector<kernels::RangeArrival>& arrivals) override {
      std::unique_lock lock(exchange_->mutex_);
      exchange_->Report(device_, cycle);
      for (;;) {
        const std::uint64_t horizon = Poll(cycle, arrivals);
        if (horizon == kCancel || horizon > cycle) return horizon;
        const Clock::time_point start = Clock::now();
        exchange_->progress_.wait(lock);
        wait_ms_ += MsSince(start);
      }
    }

    void OnPublish(Idx row, Val value, std::uint64_t cycle) override {
      pending_.push_back(Publish{row, value, cycle});
    }

    /// Host milliseconds this device spent blocked on its producers.
    double wait_ms() const { return wait_ms_; }

   private:
    friend class Exchange;
    struct Publish {
      Idx row = 0;
      Val value = 0.0;
      std::uint64_t cycle = 0;
    };
    /// One producer's rows this device reads, in row order; rows before
    /// `next` are delivered.
    struct Inbound {
      int src = 0;
      std::vector<Idx> rows;
      std::size_t next = 0;
    };

    /// Delivers every arrival that became known and returns the horizon, or
    /// kCancel. Caller holds the exchange lock.
    std::uint64_t Poll(std::uint64_t cycle,
                       std::vector<kernels::RangeArrival>& arrivals) {
      std::uint64_t horizon = cycle + exchange_->report_every_;
      for (Inbound& in : inbound_) {
        const Producer& src =
            exchange_->producers_[static_cast<std::size_t>(in.src)];
        if (src.failed) return kCancel;
        const Idx base = exchange_->part_.RowBegin(in.src);
        for (; in.next < in.rows.size(); ++in.next) {
          const Idx row = in.rows[in.next];
          const auto local = static_cast<std::size_t>(row - base);
          if (src.cycle[local] == UINT64_MAX) break;
          arrivals.push_back(kernels::RangeArrival{
              row, src.value[local],
              exchange_->comm_.Deliver(in.src, device_, src.cycle[local])});
        }
        if (in.next == in.rows.size()) continue;
        if (src.finished) return kCancel;  // a needed row was never published
        horizon = std::min(
            horizon, exchange_->comm_.NextArrival(in.src, device_, src.clock));
      }
      return horizon;
    }

    Exchange* exchange_;
    int device_;
    std::size_t num_arrivals_;
    std::vector<Inbound> inbound_;
    std::vector<Publish> pending_;  // landed since the last report
    double wait_ms_ = 0.0;
  };

  Port& port(int d) { return ports_[static_cast<std::size_t>(d)]; }

  /// Device d's launch is over, or never ran: its last publishes become
  /// visible, consumers stop waiting for more, and if it failed they are
  /// cancelled.
  void Finish(int d, bool ok) {
    std::lock_guard lock(mutex_);
    Report(d, UINT64_MAX);
    producers_[static_cast<std::size_t>(d)].finished = true;
    producers_[static_cast<std::size_t>(d)].failed = !ok;
  }

 private:
  /// Everything consumers know about one device as a producer.
  struct Producer {
    std::uint64_t clock = 0;  // every publish below this cycle is recorded
    bool finished = false;
    bool failed = false;
    std::vector<std::uint64_t> cycle;  // per local row, UINT64_MAX = not yet
    std::vector<Val> value;
  };

  /// Records device d's pending publishes and its clock, and wakes the
  /// waiting consumers. Caller holds the lock.
  void Report(int d, std::uint64_t clock) {
    Producer& producer = producers_[static_cast<std::size_t>(d)];
    Port& port = ports_[static_cast<std::size_t>(d)];
    const Idx base = part_.RowBegin(d);
    for (const Port::Publish& publish : port.pending_) {
      const auto local = static_cast<std::size_t>(publish.row - base);
      producer.cycle[local] = publish.cycle;
      producer.value[local] = publish.value;
    }
    port.pending_.clear();
    producer.clock = clock;
    progress_.notify_all();
  }

  const Partition& part_;
  /// Guards comm_, producers_ and each port's inbound_; progress_ signals a
  /// report.
  std::mutex mutex_;
  std::condition_variable progress_;
  CommModel comm_;  // prices the arrivals the launches see
  std::vector<Producer> producers_;
  /// A device reports its clock at least this often (in its own cycles), so
  /// a consumer blocked on it wakes within half a lookahead window.
  std::uint64_t report_every_;
  std::deque<Port> ports_;  // stable addresses: the launches hold them
};

}  // namespace

Expected<FleetResult> FleetSolver::Solve(const Solver& solver,
                                         std::span<const Val> b) const {
  const Csr& lower = solver.matrix();
  const Idx m = lower.rows();
  if (m == 0) return InvalidArgument("empty system");
  if (b.size() != static_cast<std::size_t>(m)) {
    return InvalidArgument("b has the wrong size");
  }
  const FleetConfig& config = fleet_->config();
  if (config.algorithm != kernels::DeviceAlgorithm::kCapelliniTwoPhase &&
      config.algorithm != kernels::DeviceAlgorithm::kCapelliniWritingFirst) {
    return InvalidArgument(
        "fleet solves need a Capellini thread-per-row algorithm");
  }
  const int k = config.num_devices;

  // Balance weights: each row's share of the solver's a-priori cost estimate,
  // proportional to 1 + nnz (the same shape CostHintMs itself integrates).
  const double cost_hint = solver.CostHintMs();
  const double denom =
      static_cast<double>(m) + static_cast<double>(lower.nnz());
  std::vector<double> weights(static_cast<std::size_t>(m));
  for (Idx r = 0; r < m; ++r) {
    weights[static_cast<std::size_t>(r)] =
        cost_hint * (1.0 + static_cast<double>(lower.RowLen(r))) / denom;
  }

  auto partition_or = PartitionRows(lower, k, config.strategy,
                                    &solver.Levels(), weights);
  if (!partition_or.ok()) return partition_or.status();

  FleetResult result;
  result.partition = std::move(*partition_or);
  const Partition& part = result.partition;

  // Cross-partition needs: device d waits on every remote row referenced by
  // its block. Deduplicated per (row, consumer device) — the consumer fetches
  // x_c once, however many local rows read it — and sorted by (src, row),
  // which fixes the per-link delivery order and with it every arrival cycle,
  // independent of host threading.
  std::vector<std::vector<Need>> needs(static_cast<std::size_t>(k));
  for (int d = 0; d < k; ++d) {
    const Idx begin = part.RowBegin(d);
    std::vector<Idx> remote;
    for (Idx r = begin; r < part.RowEnd(d); ++r) {
      const Idx row_begin = lower.row_ptr()[static_cast<std::size_t>(r)];
      const Idx row_end = lower.row_ptr()[static_cast<std::size_t>(r) + 1];
      for (Idx j = row_begin; j < row_end; ++j) {
        const Idx col = lower.col_idx()[static_cast<std::size_t>(j)];
        if (col < begin) remote.push_back(col);
      }
    }
    std::sort(remote.begin(), remote.end());
    remote.erase(std::unique(remote.begin(), remote.end()), remote.end());
    needs[static_cast<std::size_t>(d)].reserve(remote.size());
    for (const Idx row : remote) {
      needs[static_cast<std::size_t>(d)].push_back(
          Need{part.DeviceOf(row), row});
    }
  }

  std::vector<Outcome> outcomes(static_cast<std::size_t>(k));
  std::vector<DeviceStats> dstats(static_cast<std::size_t>(k));
  for (int d = 0; d < k; ++d) {
    // A task that dies before publishing its outcome must read as failed,
    // not as a clean empty device.
    outcomes[static_cast<std::size_t>(d)].status =
        InternalError("device task did not complete");
    dstats[static_cast<std::size_t>(d)].status =
        outcomes[static_cast<std::size_t>(d)].status;
  }
  // Each device's injector before and after its launch, so a launch the
  // first pass discards can be undone.
  std::vector<std::pair<sim::FaultInjector::Mark, sim::FaultInjector::Mark>>
      fault_marks(static_cast<std::size_t>(k));

  {
    Exchange exchange(part, needs);
    // Device d waits only on producers d' < d, and the pool starts tasks in
    // FIFO order, so the lowest unfinished device never waits: progress
    // holds for any pool size, and one thread runs the devices in order.
    ThreadPool pool(config.host_threads > 0 ? config.host_threads : k);
    std::vector<std::future<void>> tasks;
    tasks.reserve(static_cast<std::size_t>(k));
    for (int d = 0; d < k; ++d) {
      tasks.push_back(pool.Submit([&, d] {
        Outcome& out = outcomes[static_cast<std::size_t>(d)];
        DeviceStats& ds = dstats[static_cast<std::size_t>(d)];
        struct Finished {
          Exchange* exchange;
          int device;
          const Status* status;
          ~Finished() { exchange->Finish(device, status->ok()); }
        } finished{&exchange, d, &out.status};

        ds.row_begin = part.RowBegin(d);
        ds.row_end = part.RowEnd(d);
        ds.nnz = lower.row_ptr()[static_cast<std::size_t>(ds.row_end)] -
                 lower.row_ptr()[static_cast<std::size_t>(ds.row_begin)];
        if (ds.row_begin == ds.row_end) {  // empty block (K > rows)
          out.x.assign(static_cast<std::size_t>(m), 0.0);
          out.status = Status::Ok();
          ds.status = Status::Ok();
          return;
        }

        kernels::SolveOptions options;
        options.trace_sink = fleet_->trace_sink(d);
        options.fault_injector = fleet_->fault_injector(d);
        auto& [before, after] = fault_marks[static_cast<std::size_t>(d)];
        if (options.fault_injector) before = options.fault_injector->mark();
        // Machine hooks see LOCAL tids; plans are written in global rows. The
        // offset is RAII-scoped so a later single-device run on the same
        // injector never inherits it.
        sim::ScopedTidOffset tid_guard(options.fault_injector, ds.row_begin);
        out.launched = true;
        const Clock::time_point host_begin = Clock::now();
        auto range = kernels::SolveRangeOnDevice(
            config.algorithm, lower, b, ds.row_begin, ds.row_end,
            exchange.port(d), fleet_->machine(d), fleet_->memory(d), options);
        ds.host_wait_ms = exchange.port(d).wait_ms();
        ds.host_ms = MsSince(host_begin) - ds.host_wait_ms;
        if (options.fault_injector) after = options.fault_injector->mark();
        if (!range.ok()) {
          out.status = range.status();
          ds.status = out.status;
          return;
        }
        out.x = std::move(range->x);
        out.publish_cycles = std::move(range->publish_cycles);
        out.status = Status::Ok();
        ds.launch = range->stats;
        ds.cycles = range->stats.cycles;
        ds.exec_ms = range->exec_ms;
        ds.status = Status::Ok();
      }));
    }
    for (auto& task : tasks) task.get();
  }

  // The first-pass outcome of each device, in device order, as if each had
  // launched only after its producers finished: a device whose producer
  // failed, or that needs a row its producer never published, did not
  // launch, whatever its cancelled or finished launch did, and its injector
  // returns to where it stood before that launch. The deliveries up to the
  // first unpublished row are priced and counted.
  CommModel comm(CommConfig{}, k);
  for (int d = 0; d < k; ++d) {
    Outcome& out = outcomes[static_cast<std::size_t>(d)];
    DeviceStats& ds = dstats[static_cast<std::size_t>(d)];
    const std::vector<Need>& my_needs = needs[static_cast<std::size_t>(d)];
    Status bail;
    for (const Need& need : my_needs) {
      const Outcome& src = outcomes[static_cast<std::size_t>(need.src)];
      if (!src.status.ok()) {
        bail = DeadlockError(
            "fleet device " + std::to_string(d) + ": upstream device " +
            std::to_string(need.src) + " failed: " + src.status.message());
        break;
      }
    }
    for (std::size_t i = 0; bail.ok() && i < my_needs.size(); ++i) {
      const Need& need = my_needs[i];
      const std::uint64_t published =
          outcomes[static_cast<std::size_t>(need.src)]
              .publish_cycles[static_cast<std::size_t>(
                  need.row - part.RowBegin(need.src))];
      if (published == UINT64_MAX) {
        // The producer finished but this row's flag never landed (dropped
        // publish). On hardware the consumer would spin forever; fail fast
        // with the same status the watchdog would eventually report.
        bail = DeadlockError(
            "fleet device " + std::to_string(d) + ": row " +
            std::to_string(need.row) + " was never published by device " +
            std::to_string(need.src) + " (dropped publish?)");
        break;
      }
      const std::uint64_t arrival = comm.Deliver(need.src, d, published);
      ++ds.in_messages;
      ds.comm_bytes_in += comm.config().bytes_per_message;
      ds.comm_delay_cycles += arrival - published;
      ds.last_arrival_cycle = std::max(ds.last_arrival_cycle, arrival);
    }
    if (bail.ok()) {
      if (out.status.ok()) {
        ds.boundary_stall_cycles = std::min(ds.cycles, ds.last_arrival_cycle);
      }
      continue;
    }
    // Only a launch that consumed events is rewound: with one host thread a
    // cancelled launch consumes none, and an injector shared with a later
    // device keeps that device's events.
    const auto& [before, after] = fault_marks[static_cast<std::size_t>(d)];
    if (before != after) fleet_->fault_injector(d)->Rewind(before);
    out = Outcome{bail, {}, {}, false};
    ds.status = bail;
    ds.launch = sim::LaunchStats{};
    ds.cycles = 0;
    ds.exec_ms = 0.0;
  }

  // Outbound attribution (from the static needs lists — a consumer that
  // failed before delivery still *required* the rows).
  for (int d = 0; d < k; ++d) {
    for (const Need& need : needs[static_cast<std::size_t>(d)]) {
      ++dstats[static_cast<std::size_t>(need.src)].out_messages;
    }
  }

  // First-pass launch outcomes, frozen before recovery mutates anything:
  // makespan attribution keys off these, and survivor designation refines
  // them with per-range verify outcomes (survivor_ok below). A failed launch
  // has no cycle count (the watchdog returns an error instead of stats), so
  // it must not participate in the makespan argmax.
  std::vector<bool> launch_ok(static_cast<std::size_t>(k));
  for (int d = 0; d < k; ++d) {
    launch_ok[static_cast<std::size_t>(d)] =
        outcomes[static_cast<std::size_t>(d)].status.ok();
  }

  // --- Failover (DESIGN.md §4j) --------------------------------------------
  // Runs serially in device-index order, so every recovered partition's
  // consumers see its publishes before their own recovery starts. All
  // decisions are pure functions of (fault stream, outcome history): same
  // seed => identical ladder. Zero-fault solves never take this branch.
  bool recovery_ran = false;
  if (config.recovery.enabled) {
    // The recovered global image. Rows land here as partitions are accepted
    // (first pass or ladder), and arrivals for re-executions read from it.
    std::vector<Val> current(static_cast<std::size_t>(m), 0.0);
    // Separate comm instance: recovery deliveries must not perturb the
    // first-pass per-link serialization state or the fleet traffic totals.
    CommModel recovery_comm(CommConfig{}, k);

    // Survivor eligibility: a completed launch whose OWN range fails
    // verification is demonstrably corrupting hardware — designating it to
    // re-execute someone else's rows would just burn a ladder rung. Checked
    // up front against the first-pass image (every launch_ok partition's own
    // x): a launch_ok device's remote reads all come from launch_ok
    // producers (an upstream failure fails the consumer before launch), so
    // the image is complete wherever this residual looks. A device whose
    // values are wrong only because a corrupt UPSTREAM poisoned its inputs
    // passes this check — its hardware is fine and it stays eligible, even
    // though the sequential scan below will still recover its range against
    // the repaired image. An infinite value anywhere in the image fails
    // every range (VerifyRange's rule), so then no survivor is designated.
    std::vector<bool> survivor_ok = launch_ok;
    std::vector<Val> first_pass(static_cast<std::size_t>(m), 0.0);
    for (int d = 0; d < k; ++d) {
      if (!launch_ok[static_cast<std::size_t>(d)]) continue;
      const Idx begin = part.RowBegin(d);
      const Idx end = part.RowEnd(d);
      std::copy(outcomes[static_cast<std::size_t>(d)].x.begin() + begin,
                outcomes[static_cast<std::size_t>(d)].x.begin() + end,
                first_pass.begin() + begin);
    }
    for (int d = 0; d < k; ++d) {
      if (!launch_ok[static_cast<std::size_t>(d)]) continue;
      const Idx begin = part.RowBegin(d);
      const Idx end = part.RowEnd(d);
      if (begin == end) continue;
      const Verification check =
          VerifyRange(lower, b, first_pass, begin, end);
      if (!check.passed) survivor_ok[static_cast<std::size_t>(d)] = false;
    }

    // Can partition d's device rungs get arrivals at all? False when an
    // upstream publish hole survives (an OK upstream launch whose flag store
    // was dropped): device rungs are impossible then, but the host rung
    // needs no arrivals. Pure check — no comm state is touched, so the
    // per-attempt pricing below starts from a clean ledger.
    auto arrivals_available = [&](int d) -> bool {
      for (const Need& need : needs[static_cast<std::size_t>(d)]) {
        const Outcome& src = outcomes[static_cast<std::size_t>(need.src)];
        if (!src.status.ok()) return false;
        if (src.publish_cycles[static_cast<std::size_t>(
                need.row - part.RowBegin(need.src))] == UINT64_MAX) {
          return false;
        }
      }
      return true;
    };

    // Arrivals for a re-execution of partition d ON `executor`, from the
    // recovered outcomes. Priced on the src -> executor link — the device
    // that actually spins on the flags — not the failed owner's, so a
    // survivor re-execution charges the survivor's ingress. Built per
    // attempt: each rung's executor pays its own delivery.
    auto build_arrivals = [&](int d, int executor,
                              std::vector<kernels::RangeArrival>& arrivals) {
      arrivals.clear();
      for (const Need& need : needs[static_cast<std::size_t>(d)]) {
        const Outcome& src = outcomes[static_cast<std::size_t>(need.src)];
        const std::uint64_t published =
            src.publish_cycles[static_cast<std::size_t>(
                need.row - part.RowBegin(need.src))];
        arrivals.push_back(kernels::RangeArrival{
            need.row, current[static_cast<std::size_t>(need.row)],
            recovery_comm.Deliver(need.src, executor, published)});
      }
    };

    for (int d = 0; d < k; ++d) {
      const Idx begin = part.RowBegin(d);
      const Idx end = part.RowEnd(d);
      if (begin == end) continue;  // empty block: nothing to verify or redo
      Outcome& out = outcomes[static_cast<std::size_t>(d)];
      DeviceStats& ds = dstats[static_cast<std::size_t>(d)];

      if (out.status.ok()) {
        std::copy(out.x.begin() + begin, out.x.begin() + end,
                  current.begin() + begin);
        if (VerifyRange(lower, b, current, begin, end).passed) {
          continue;
        }
        // Completed launch, corrupted values (e.g. a bit-flipped store): the
        // first pass "succeeded" but the range is wrong. Surface the real
        // outcome in the device stats and run the ladder.
        out.status = DataLoss("fleet device " + std::to_string(d) +
                              ": partition failed verification");
        ds.status = out.status;
      }

      recovery_ran = true;
      FailoverRecord record;
      record.device = d;
      record.rows = end - begin;
      record.upstream_induced = !out.launched;
      record.residual = std::numeric_limits<double>::infinity();
      ds.failed_over = true;

      // Executors in ladder order. Device rungs need arrivals: the owner
      // first when it never got to launch (its machine is presumed healthy —
      // the failure came from upstream), then the designated survivor: the
      // lowest-indexed OTHER device whose own first-pass launch succeeded
      // AND verified (survivor_ok). The fault-immune host rung is always
      // last.
      std::vector<int> executors;
      if (arrivals_available(d)) {
        if (record.upstream_induced) executors.push_back(d);
        for (int s = 0; s < k; ++s) {
          if (s != d && survivor_ok[static_cast<std::size_t>(s)]) {
            executors.push_back(s);
            break;
          }
        }
      }
      executors.push_back(kHostExecutor);

      bool accepted = false;
      std::vector<kernels::RangeArrival> arrivals;
      for (const int executor : executors) {
        record.attempts.push_back(executor);
        ++ds.recovery_attempts;
        result.stats.rows_reexecuted += static_cast<std::uint64_t>(record.rows);
        Verification check;
        if (executor == kHostExecutor) {
          // Serial substitution against the recovered image, in the device
          // kernels' accumulation order (bit-identical recoveries); its
          // publishes are checkpointed at cycle 0 for downstream re-runs.
          // It verifies its rows in the same pass; out.x equals `current`
          // outside them, so the verdict is VerifyRange's on `current`
          // after the copy below.
          out.x = current;
          out.publish_cycles.assign(static_cast<std::size_t>(end - begin), 0);
          auto verified = SolveSerialVerified(lower, b, out.x, begin, end);
          if (!verified.ok()) continue;
          check = *verified;
        } else {
          // A re-execution is still a device launch, subject to the
          // executor's own injector, with its offset scoped to the failed
          // range so global-row fault plans keep their meaning.
          build_arrivals(d, executor, arrivals);
          kernels::KnownArrivals peers(arrivals);
          kernels::SolveOptions options;
          options.trace_sink = fleet_->trace_sink(executor);
          options.fault_injector = fleet_->fault_injector(executor);
          sim::ScopedTidOffset tid_guard(options.fault_injector, begin);
          auto range = kernels::SolveRangeOnDevice(
              config.algorithm, lower, b, begin, end, peers,
              fleet_->machine(executor), fleet_->memory(executor), options);
          // A dropped publish would starve the re-executed consumers
          // downstream: escalate.
          if (!range.ok() ||
              std::ranges::count(range->publish_cycles, UINT64_MAX) > 0) {
            continue;
          }
          out.x = std::move(range->x);
          out.publish_cycles = std::move(range->publish_cycles);
        }
        std::copy(out.x.begin() + begin, out.x.begin() + end,
                  current.begin() + begin);
        if (executor != kHostExecutor) {
          check = VerifyRange(lower, b, current, begin, end);
        }
        if (check.passed) {
          accepted = true;
          record.recovered_on = executor;
          record.residual = check.residual;
          ++(executor == kHostExecutor ? result.stats.host_rung_recoveries
                                       : result.stats.device_rung_recoveries);
          break;
        }
      }

      if (accepted) {
        out.status = Status::Ok();
        record.verified = true;
        ds.recovered_on = record.recovered_on;
      }
      result.stats.failovers.push_back(std::move(record));
    }
  }

  result.x.assign(static_cast<std::size_t>(m), 0.0);
  result.stats.devices = std::move(dstats);
  result.stats.cross_edges = CountCrossEdges(lower, part);
  result.stats.total_messages = comm.total_messages();
  result.stats.total_comm_bytes = comm.total_bytes();
  for (int d = 0; d < k; ++d) {
    DeviceStats& ds = result.stats.devices[static_cast<std::size_t>(d)];
    const Outcome& out = outcomes[static_cast<std::size_t>(d)];
    ds.est_cost_ms =
        cost_hint *
        (static_cast<double>(ds.row_end - ds.row_begin) +
         static_cast<double>(ds.nnz)) /
        denom;
    // Stitch from the live outcome: recovered partitions (out.status OK,
    // ds.status still the first-pass failure) contribute their accepted
    // range exactly like clean ones.
    if (out.status.ok() && ds.row_begin < ds.row_end) {
      std::copy(out.x.begin() + ds.row_begin, out.x.begin() + ds.row_end,
                result.x.begin() + ds.row_begin);
    }
    if (!out.status.ok() && result.status.ok()) result.status = out.status;
    // Makespan/argmax over completed first-pass launches only — a killed
    // partition has no real cycle count to contribute.
    if (launch_ok[static_cast<std::size_t>(d)] &&
        (result.stats.critical_device < 0 ||
         ds.cycles > result.stats.makespan_cycles)) {
      result.stats.makespan_cycles = ds.cycles;
      result.stats.critical_device = d;
    }
  }
  result.stats.exec_ms = config.device.CyclesToMs(result.stats.makespan_cycles);

  if (recovery_ran) {
    // Final gate on the stitched solution: recovery only reports OK when the
    // whole system verifies, not just each range in isolation.
    result.verification = VerifySolution(lower, b, result.x);
    if (!result.verification.passed && result.status.ok()) {
      result.status =
          DataLoss("fleet recovery: stitched solution failed verification");
    }
  }
  return result;
}

}  // namespace capellini::fleet
