// MatrixRegistry: the analyzed-matrix cache behind the solve service.
//
// A caller registers a lower-triangular factor ONCE and gets back a stable
// handle; the registry owns the Solver and memoizes its structural analysis
// (levels, parallel granularity, the Figure-6 SelectAlgorithm verdict), so
// the analyze/solve split that vendor libraries expose (cusparse_analysis /
// cusparse_solve) falls out for free: every subsequent solve on the handle
// is a cache hit.
//
// Resource model:
//  * A configurable byte budget bounds resident matrices; registration past
//    the budget evicts least-recently-used entries (LRU order is updated by
//    Acquire).
//  * Entries are handed out as shared_ptr. Eviction only drops the
//    registry's reference — in-flight solves on an evicted matrix keep it
//    alive and complete normally; the memory is reclaimed when the last
//    solve finishes.
//  * All registry operations take one short-lived mutex for the map/LRU
//    bookkeeping only. Solves never hold it, so concurrent solves on
//    different (or the same) matrices never serialize through the registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/solver.h"
#include "matrix/csr.h"
#include "serve/persist.h"
#include "support/status.h"
#include "update/delta.h"
#include "update/incremental.h"

namespace capellini::serve {

/// Stable identifier for a registered matrix. Never reused, so a handle held
/// across an eviction + re-registration cleanly reports NotFound instead of
/// silently binding to the new entry.
using MatrixHandle = std::uint64_t;
inline constexpr MatrixHandle kInvalidHandle = 0;

struct RegistryOptions {
  /// Upper bound on resident bytes (matrix arrays + analysis arrays).
  /// 0 = unlimited. A single matrix larger than the whole budget is
  /// rejected with kResourceExhausted rather than thrashing the cache.
  std::size_t byte_budget = 0;
  /// Directory for persisted analyses (serve/persist.h). Empty = no
  /// persistence. When set, cold registrations Store their level sets +
  /// cost seed after analyzing, and later registrations of the same name
  /// rehydrate through Solver::SeedAnalysis without a host Analyze() —
  /// stale or corrupted files (kDataLoss) fall back to a cold analysis and
  /// are overwritten.
  std::string analysis_cache_dir{};
};

/// Point-in-time registry counters (see ServiceStats for the service-level
/// view; these are the cache-side numbers).
struct RegistrySnapshot {
  std::uint64_t registrations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t hits = 0;       // Acquire on a resident handle
  std::uint64_t misses = 0;     // Acquire on an unknown/evicted handle
  std::uint64_t updates = 0;    // successful ApplyDelta epoch swaps
  /// Warm registrations rehydrated from the analysis cache (zero host
  /// Analyze() calls).
  std::uint64_t analysis_cache_hits = 0;
  /// Cold registrations with a cache configured: no usable file (missing,
  /// corrupt, or fingerprint-stale) — a full analysis ran and was Stored.
  std::uint64_t analysis_cache_misses = 0;
  std::size_t resident_entries = 0;
  std::size_t resident_bytes = 0;  // includes per-handle delta-log bytes
};

/// What one ApplyDelta did — the numbers ServiceStats accumulates per handle
/// and bench_update reports (rows re-leveled / total is the incremental win).
struct UpdateReport {
  MatrixHandle handle = kInvalidHandle;
  std::string name;
  std::uint64_t epoch = 0;  // entry version after the swap
  bool value_only = false;
  Idx rows_releveled = 0;  // forward-cone size (0 for value-only)
  Idx total_rows = 0;
  std::size_t delta_bytes = 0;      // this batch's delta-log bytes
  std::size_t delta_log_bytes = 0;  // cumulative log bytes now charged
  double update_ms = 0.0;           // apply + incremental re-analysis cost
  /// Incremental re-leveling portion of update_ms (0 for value-only
  /// batches, which reuse the analysis untouched). This is also what the
  /// new epoch's Entry::analysis_ms reports — per-epoch re-analysis cost,
  /// not the original registration's.
  double analysis_ms = 0.0;
};

class MatrixRegistry {
 public:
  /// Per-handle solve-cost model for the scheduler's admission control:
  /// seeded at registration from the analysis (Solver::CostHintMs) and
  /// refined online by an EWMA over observed solve milliseconds. ApplyDelta
  /// carries the seed, EWMA and sample count over to the next epoch. Entries
  /// are shared as shared_ptr<const Entry> across service workers, so the
  /// mutable state is lock-free atomics and every method is const.
  class CostModel {
   public:
    /// Current per-solve estimate in ms: the analytic seed until the first
    /// observation, the EWMA afterwards.
    double EstimateMs() const {
      return samples_.load(std::memory_order_acquire) == 0
                 ? seed_ms_
                 : ewma_ms_.load(std::memory_order_relaxed);
    }
    std::uint64_t samples() const {
      return samples_.load(std::memory_order_acquire);
    }
    /// Folds one observed solve time in. The first sample replaces the
    /// analytic seed outright; later samples blend with weight kAlpha.
    void Observe(double solve_ms) const;

   private:
    friend class MatrixRegistry;
    static constexpr double kAlpha = 0.25;
    double seed_ms_ = 0.0;  // written once, before the entry is shared
    mutable std::atomic<double> ewma_ms_{0.0};
    mutable std::atomic<std::uint64_t> samples_{0};
  };

  /// One registered matrix: the Solver (whose analysis() is memoized and
  /// safe under concurrent readers) plus cache bookkeeping.
  struct Entry {
    MatrixHandle handle = kInvalidHandle;
    std::string name;
    Solver solver;
    std::size_t bytes = 0;
    /// Milliseconds spent producing THIS epoch's analysis: the cold
    /// registration's host Analyze() (~0 on a cache rehydrate), and after an
    /// ApplyDelta the incremental re-level time of that epoch alone.
    double analysis_ms = 0.0;
    /// Scheduler cost model (analysis-seeded, EWMA-corrected, carried
    /// across epochs).
    CostModel cost;
    /// Version counter: 0 at registration, bumped by every ApplyDelta. An
    /// in-flight solve pinned its EntryRef at admission and finishes on its
    /// epoch's matrix while the slot already points at epoch + 1 — the same
    /// shared_ptr liveness trick that lets solves survive LRU eviction.
    std::uint64_t epoch = 0;
    /// Cumulative bytes of applied DeltaBatches; charged to the byte budget
    /// on top of the matrix + level arrays.
    std::size_t delta_log_bytes = 0;
    /// Strictly-lower transpose adjacency for incremental re-leveling:
    /// built on the first structural update, then moved (not copied) to the
    /// successor entry of each epoch. Update-path-only state — guarded by
    /// the registry's update mutex, never read by solves.
    mutable std::unique_ptr<update::ConsumerGraph> consumers;

    Entry(MatrixHandle h, std::string n, Csr lower, SolverOptions options)
        : handle(h), name(std::move(n)),
          solver(std::move(lower), std::move(options)) {}
  };
  using EntryRef = std::shared_ptr<const Entry>;

  explicit MatrixRegistry(RegistryOptions options = {});

  /// Validates, analyzes and caches `lower`. Returns the new handle, or
  ///  * kInvalidArgument if the matrix is not lower-triangular with diagonal
  ///    (a Status, not an abort: served paths must not bring the process
  ///    down on bad tenant input);
  ///  * kResourceExhausted if the matrix alone exceeds the byte budget.
  Expected<MatrixHandle> Register(Csr lower, std::string name,
                                  SolverOptions options = {});

  /// Looks up a handle and marks it most-recently-used. NotFound if the
  /// handle was never registered or has been evicted.
  Expected<EntryRef> Acquire(MatrixHandle handle);

  /// Looks up a handle WITHOUT promoting it in the LRU or counting a cache
  /// hit. Admission control peeks first and only Promote()s requests it
  /// actually admits, so a spammy rejected tenant can neither refresh its
  /// own entry nor inflate the hit counters. Unknown/evicted handles still
  /// count as misses (a miss is terminal either way).
  Expected<EntryRef> Peek(MatrixHandle handle) const;

  /// Marks an admitted handle most-recently-used and counts the cache hit.
  /// No-op if the handle is gone — the caller already pinned an EntryRef, so
  /// a concurrent eviction is harmless.
  void Promote(MatrixHandle handle);

  /// Side-effect-free lookup: no LRU promotion, no hit/miss counting.
  /// Returns nullptr if the handle is gone. For bookkeeping observers, so
  /// accounting passes never pollute the cache statistics.
  EntryRef TryPeek(MatrixHandle handle) const;

  /// Sum of CostModel::EstimateMs() over the resident entries, taken under
  /// the registry mutex: the per-solve cost of everything placed here now.
  /// The fleet's placement reads it; no LRU or hit/miss side effects.
  double ResidentCostMs() const;

  /// Applies a DeltaBatch to a registered factor in place (DESIGN.md §4h):
  /// validates + mutates the matrix, patches the analysis incrementally
  /// (value-only batches reuse it untouched; structural batches re-level
  /// only the edited rows' forward cone), and swaps an epoch-bumped
  /// replacement Entry into the slot. In-flight solves keep the pre-update
  /// snapshot alive through their EntryRef and are never blocked: the
  /// expensive patch runs under a dedicated update mutex with the registry
  /// mutex released. The new epoch inherits the learned cost state (seed,
  /// EWMA and sample count): a delta batch moves a few entries, and the
  /// observed solve times price the factor far better than the analytic
  /// seed does.
  /// Errors: kNotFound (unknown/evicted handle — also when evicted during
  /// the patch), kInvalidArgument (batch fails validation; factor
  /// untouched), kResourceExhausted (updated entry alone exceeds the byte
  /// budget; the old epoch stays resident).
  Expected<UpdateReport> ApplyDelta(MatrixHandle handle,
                                    const update::DeltaBatch& batch);

  /// Drops a handle explicitly (idempotent; returns false if absent).
  bool Evict(MatrixHandle handle);

  bool Contains(MatrixHandle handle) const;
  RegistrySnapshot Snapshot() const;
  const RegistryOptions& options() const { return options_; }

 private:
  /// Approximate resident footprint of an entry: CSR arrays + the memoized
  /// level-set arrays (the two allocations that dominate).
  static std::size_t FootprintBytes(const Entry& entry);
  void EvictLruUntilFitsLocked(std::size_t incoming_bytes);
  /// The warm/cold analysis decision of Register; runs outside the registry
  /// mutex. Fills entry->analysis_ms and the cost seed.
  void AnalyzeEntry(Entry& entry);

  RegistryOptions options_;
  /// Engaged when options_.analysis_cache_dir is set.
  std::unique_ptr<AnalysisCache> cache_;
  mutable std::mutex mutex_;
  /// Serializes ApplyDelta calls (and the analyzer scratch they share)
  /// without blocking lookups/solves. Ordering: update_mutex_ may take
  /// mutex_, never the reverse.
  std::mutex update_mutex_;
  update::IncrementalAnalyzer analyzer_;
  MatrixHandle next_handle_ = 1;
  // LRU list front = most recent; map values hold the list iterator for O(1)
  // splice on Acquire.
  std::list<MatrixHandle> lru_;
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<MatrixHandle>::iterator lru_it;
  };
  std::unordered_map<MatrixHandle, Slot> entries_;
  std::size_t resident_bytes_ = 0;
  mutable RegistrySnapshot stats_;  // Peek is const but counts misses
};

}  // namespace capellini::serve
