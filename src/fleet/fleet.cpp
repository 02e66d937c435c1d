#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <span>
#include <utility>

#include "host/serial.h"
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
  /// The task reached SolveRangeOnDevice (false = it bailed before the
  /// launch: upstream failure or an unpublished remote row). Recovery treats
  /// un-launched failures as upstream-induced and retries the owner first.
  bool launched = false;
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
  std::vector<std::promise<void>> done(static_cast<std::size_t>(k));
  std::vector<std::shared_future<void>> done_futures;
  done_futures.reserve(static_cast<std::size_t>(k));
  for (auto& promise : done) done_futures.push_back(promise.get_future().share());

  CommModel comm(config.comm, k);

  // Task d blocks only on producers d' < d; the pool picks tasks up in FIFO
  // order, so started tasks always form a prefix of the submission order and
  // the lowest unfinished task has all producers finished — progress is
  // guaranteed for any pool size >= 1.
  ThreadPool pool(config.host_threads > 0 ? config.host_threads : k);
  std::vector<std::future<void>> tasks;
  tasks.reserve(static_cast<std::size_t>(k));
  for (int d = 0; d < k; ++d) {
    tasks.push_back(pool.Submit([&, d] {
      Outcome& out = outcomes[static_cast<std::size_t>(d)];
      DeviceStats& ds = dstats[static_cast<std::size_t>(d)];
      struct DoneSignal {
        std::promise<void>* promise;
        ~DoneSignal() { promise->set_value(); }
      } signal{&done[static_cast<std::size_t>(d)]};

      ds.row_begin = part.RowBegin(d);
      ds.row_end = part.RowEnd(d);
      ds.nnz = lower.row_ptr()[static_cast<std::size_t>(ds.row_end)] -
               lower.row_ptr()[static_cast<std::size_t>(ds.row_begin)];

      const std::vector<Need>& my_needs = needs[static_cast<std::size_t>(d)];
      for (const Need& need : my_needs) {
        done_futures[static_cast<std::size_t>(need.src)].wait();
      }
      for (const Need& need : my_needs) {
        const Outcome& src = outcomes[static_cast<std::size_t>(need.src)];
        if (!src.status.ok()) {
          out.status = DeadlockError(
              "fleet device " + std::to_string(d) + ": upstream device " +
              std::to_string(need.src) + " failed: " + src.status.message());
          ds.status = out.status;
          return;
        }
      }

      std::vector<kernels::RangeArrival> arrivals;
      arrivals.reserve(my_needs.size());
      for (const Need& need : my_needs) {
        const Outcome& src = outcomes[static_cast<std::size_t>(need.src)];
        const std::uint64_t published =
            src.publish_cycles[static_cast<std::size_t>(
                need.row - part.RowBegin(need.src))];
        if (published == UINT64_MAX) {
          // The producer finished but this row's flag never landed (dropped
          // publish). On hardware the consumer would spin forever; fail fast
          // with the same status the watchdog would eventually report.
          out.status = DeadlockError(
              "fleet device " + std::to_string(d) + ": row " +
              std::to_string(need.row) + " was never published by device " +
              std::to_string(need.src) + " (dropped publish?)");
          ds.status = out.status;
          return;
        }
        const std::uint64_t arrival = comm.Deliver(need.src, d, published);
        arrivals.push_back(kernels::RangeArrival{
            need.row, src.x[static_cast<std::size_t>(need.row)], arrival});
        ++ds.in_messages;
        ds.comm_bytes_in += config.comm.bytes_per_message;
        ds.comm_delay_cycles += arrival - published;
        ds.last_arrival_cycle = std::max(ds.last_arrival_cycle, arrival);
      }

      if (ds.row_begin == ds.row_end) {  // empty block (K > rows)
        out.x.assign(static_cast<std::size_t>(m), 0.0);
        out.publish_cycles.clear();
        out.status = Status::Ok();
        ds.status = Status::Ok();
        return;
      }

      kernels::SolveOptions options;
      options.threads_per_block = config.threads_per_block;
      options.trace_sink = fleet_->trace_sink(d);
      options.fault_injector = fleet_->fault_injector(d);
      // Machine hooks see LOCAL tids; plans are written in global rows. The
      // offset is RAII-scoped (like the machine's external-store clear) so a
      // later single-device run on the same injector never inherits it.
      sim::ScopedTidOffset tid_guard(options.fault_injector, ds.row_begin);
      out.launched = true;
      const auto host_begin = std::chrono::steady_clock::now();
      auto range = kernels::SolveRangeOnDevice(
          config.algorithm, lower, b, ds.row_begin, ds.row_end, arrivals,
          fleet_->machine(d), fleet_->memory(d), options);
      ds.host_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - host_begin)
                       .count();
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
      ds.boundary_stall_cycles = std::min(ds.cycles, ds.last_arrival_cycle);
      ds.status = Status::Ok();
    }));
  }
  for (auto& task : tasks) task.get();

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
    CommModel recovery_comm(config.comm, k);

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
    // the repaired image.
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
      const Verification check = VerifyRange(lower, b, first_pass, begin, end,
                                             config.recovery.verify);
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
        if (VerifyRange(lower, b, current, begin, end, config.recovery.verify)
                .passed) {
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
        if (executor == kHostExecutor) {
          // Serial substitution against the recovered image, in the device
          // kernels' accumulation order (bit-identical recoveries); its
          // publishes are checkpointed at cycle 0 for downstream re-runs.
          out.x = current;
          out.publish_cycles.assign(static_cast<std::size_t>(end - begin), 0);
          if (!host::SolveSerial(lower, b, out.x, begin, end).ok()) continue;
        } else {
          // A re-execution is still a device launch, subject to the
          // executor's own injector, with its offset scoped to the failed
          // range so global-row fault plans keep their meaning.
          build_arrivals(d, executor, arrivals);
          kernels::SolveOptions options;
          options.threads_per_block = config.threads_per_block;
          options.trace_sink = fleet_->trace_sink(executor);
          options.fault_injector = fleet_->fault_injector(executor);
          sim::ScopedTidOffset tid_guard(options.fault_injector, begin);
          auto range = kernels::SolveRangeOnDevice(
              config.algorithm, lower, b, begin, end, arrivals,
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
        const Verification check = VerifyRange(lower, b, current, begin, end,
                                               config.recovery.verify);
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
    result.verification =
        VerifySolution(lower, b, result.x, config.recovery.verify);
    if (!result.verification.passed && result.status.ok()) {
      result.status =
          DataLoss("fleet recovery: stitched solution failed verification");
    }
  }
  return result;
}

}  // namespace capellini::fleet
