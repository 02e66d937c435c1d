#include "serve/registry.h"

#include "core/analysis.h"
#include "support/timer.h"

namespace capellini::serve {

MatrixRegistry::MatrixRegistry(RegistryOptions options)
    : options_(std::move(options)) {
  if (!options_.analysis_cache_dir.empty()) {
    cache_ = std::make_unique<AnalysisCache>(options_.analysis_cache_dir);
  }
}

void MatrixRegistry::CostModel::Observe(double solve_ms) const {
  // Benign race: two first observers can both see n == 0 and store; either
  // sample is an equally good replacement for the analytic seed.
  const std::uint64_t n = samples_.fetch_add(1, std::memory_order_acq_rel);
  if (n == 0) {
    ewma_ms_.store(solve_ms, std::memory_order_release);
    return;
  }
  double current = ewma_ms_.load(std::memory_order_relaxed);
  double next = current + kAlpha * (solve_ms - current);
  while (!ewma_ms_.compare_exchange_weak(current, next,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
    next = current + kAlpha * (solve_ms - current);
  }
}

std::size_t MatrixRegistry::FootprintBytes(const Entry& entry) {
  const Csr& m = entry.solver.matrix();
  std::size_t bytes = 0;
  bytes += m.row_ptr().size() * sizeof(Idx);
  bytes += m.col_idx().size() * sizeof(Idx);
  bytes += m.val().size() * sizeof(Val);
  const LevelSets& levels = entry.solver.Levels();
  bytes += levels.level_of.size() * sizeof(Idx);
  bytes += levels.level_ptr.size() * sizeof(Idx);
  bytes += levels.order.size() * sizeof(Idx);
  return bytes;
}

Expected<MatrixHandle> MatrixRegistry::Register(Csr lower, std::string name,
                                                SolverOptions options) {
  // Validate with a Status (the Solver constructor CHECK-aborts, which is
  // fine for library misuse but not for a multi-tenant service input).
  if (!lower.IsLowerTriangularWithDiagonal()) {
    return InvalidArgument("Register needs a lower-triangular matrix with a "
                           "full diagonal (see ExtractLowerTriangular)");
  }

  // Build + analyze outside the lock: analysis is the expensive part and
  // must not serialize concurrent registrations of other matrices.
  MatrixHandle handle;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    handle = next_handle_++;
  }
  auto entry = std::make_shared<Entry>(handle, std::move(name),
                                       std::move(lower), std::move(options));
  AnalyzeEntry(*entry);
  entry->bytes = FootprintBytes(*entry);

  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.byte_budget != 0 && entry->bytes > options_.byte_budget) {
    return ResourceExhausted(
        "matrix '" + entry->name + "' needs " + std::to_string(entry->bytes) +
        " bytes, more than the whole registry budget of " +
        std::to_string(options_.byte_budget));
  }
  EvictLruUntilFitsLocked(entry->bytes);
  lru_.push_front(handle);
  resident_bytes_ += entry->bytes;
  entries_.emplace(handle, Slot{std::move(entry), lru_.begin()});
  ++stats_.registrations;
  return handle;
}

void MatrixRegistry::AnalyzeEntry(Entry& entry) {
  Timer timer;
  if (cache_ != nullptr) {
    auto persisted = cache_->Load(entry.name, entry.solver.matrix());
    if (persisted.ok()) {
      // Warm path: rebuild level_ptr/order from the persisted level_of (the
      // same counting sort every producer shares), derive the cheap stats
      // tail, and seed — zero host Analyze() level sweeps.
      entry.solver.SeedAnalysis(std::make_shared<const Analysis>(
          AssembleAnalysis(entry.solver.matrix(), entry.name,
                           BuildLevelSetsFromLevelOf(
                               std::move(persisted->level_of)))));
      entry.analysis_ms = timer.ElapsedMs();
      entry.cost.seed_ms_ = persisted->cost_seed_ms;
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.analysis_cache_hits;
      return;
    }
    // kNotFound (cold start) or kDataLoss (stale/corrupt — Store below
    // overwrites the bad file): run a full analysis.
  }

  entry.solver.analysis();  // memoize eagerly; hits from now on
  entry.analysis_ms = timer.ElapsedMs();
  entry.cost.seed_ms_ = entry.solver.CostHintMs();
  if (cache_ != nullptr) {
    // Best-effort: a failed Store only costs the next restart a re-analysis.
    (void)cache_->Store(entry.name, entry.solver.matrix(),
                        entry.solver.Levels(), entry.cost.seed_ms_);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.analysis_cache_misses;
  }
}

void MatrixRegistry::EvictLruUntilFitsLocked(std::size_t incoming_bytes) {
  if (options_.byte_budget == 0) return;
  while (!lru_.empty() &&
         resident_bytes_ + incoming_bytes > options_.byte_budget) {
    const MatrixHandle victim = lru_.back();
    auto it = entries_.find(victim);
    resident_bytes_ -= it->second.entry->bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

Expected<MatrixRegistry::EntryRef> MatrixRegistry::Acquire(
    MatrixHandle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) {
    ++stats_.misses;
    return NotFound("handle " + std::to_string(handle) +
                    " is not registered (evicted or never registered)");
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  it->second.lru_it = lru_.begin();
  return EntryRef(it->second.entry);
}

Expected<MatrixRegistry::EntryRef> MatrixRegistry::Peek(
    MatrixHandle handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) {
    ++stats_.misses;
    return NotFound("handle " + std::to_string(handle) +
                    " is not registered (evicted or never registered)");
  }
  return EntryRef(it->second.entry);
}

MatrixRegistry::EntryRef MatrixRegistry::TryPeek(MatrixHandle handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return nullptr;
  return EntryRef(it->second.entry);
}

double MatrixRegistry::ResidentCostMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& [handle, slot] : entries_) {
    total += slot.entry->cost.EstimateMs();
  }
  return total;
}

void MatrixRegistry::Promote(MatrixHandle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return;
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  it->second.lru_it = lru_.begin();
}

Expected<UpdateReport> MatrixRegistry::ApplyDelta(
    MatrixHandle handle, const update::DeltaBatch& batch) {
  std::lock_guard<std::mutex> update_lock(update_mutex_);

  std::shared_ptr<Entry> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(handle);
    if (it == entries_.end()) {
      ++stats_.misses;
      return NotFound("handle " + std::to_string(handle) +
                      " is not registered (evicted or never registered)");
    }
    old = it->second.entry;
  }

  // Patch outside the registry mutex: lookups and solves proceed while we
  // rebuild. The handle's consumer graph is built lazily on the first
  // structural update (the one-time transpose cost) and patched afterwards.
  Timer timer;
  update::ConsumerGraph* graph = nullptr;
  if (!batch.value_only()) {
    if (old->consumers == nullptr) {
      old->consumers = std::make_unique<update::ConsumerGraph>(
          update::ConsumerGraph::Build(old->solver.matrix()));
    }
    graph = old->consumers.get();
  }
  Expected<update::UpdateResult> applied =
      analyzer_.Apply(old->solver.matrix(), old->solver.SharedAnalysis(),
                      batch, graph);
  if (!applied.ok()) return applied.status();  // graph untouched on rejection
  update::UpdateResult result = std::move(applied).value();

  auto entry = std::make_shared<Entry>(handle, old->name,
                                       std::move(result.matrix),
                                       old->solver.options());
  entry->solver.SeedAnalysis(std::move(result.analysis));
  // Each epoch reports ITS OWN analysis cost — the incremental re-level time
  // of this update (0 for value-only), not the original registration's
  // full-sweep time copied forward.
  entry->analysis_ms = result.analysis_ms;
  entry->epoch = old->epoch + 1;
  entry->delta_log_bytes = old->delta_log_bytes + batch.ByteSize();
  entry->consumers = std::move(old->consumers);  // graph follows the epoch
  entry->bytes = FootprintBytes(*entry) + entry->delta_log_bytes;
  // Carry the learned cost state forward: a batch of a few deltas barely
  // moves a solve's cost, and CostHintMs() prices at interpreter scale, far
  // above a host solve. Observations still landing on the old epoch are not
  // carried.
  entry->cost.seed_ms_ = old->cost.seed_ms_;
  entry->cost.samples_.store(old->cost.samples(), std::memory_order_relaxed);
  entry->cost.ewma_ms_.store(old->cost.ewma_ms_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);

  UpdateReport report;
  report.handle = handle;
  report.name = entry->name;
  report.epoch = entry->epoch;
  report.value_only = result.value_only;
  report.rows_releveled = result.rows_releveled;
  report.total_rows = result.total_rows;
  report.delta_bytes = batch.ByteSize();
  report.delta_log_bytes = entry->delta_log_bytes;
  report.update_ms = timer.ElapsedMs();
  report.analysis_ms = result.analysis_ms;

  if (cache_ != nullptr && !result.value_only) {
    // Keep the persisted file tracking the live structure so a restart warms
    // from the post-update levels instead of tripping the stale-fingerprint
    // path. Value-only batches leave the structure (and the file) valid.
    (void)cache_->Store(entry->name, entry->solver.matrix(),
                        entry->solver.Levels(), entry->solver.CostHintMs());
  }

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) {
    // Evicted while we were patching: nothing to swap into. The graph left
    // with `entry`, which dies here.
    ++stats_.misses;
    return NotFound("handle " + std::to_string(handle) +
                    " was evicted during the update");
  }
  if (options_.byte_budget != 0 && entry->bytes > options_.byte_budget) {
    // Keep the old epoch. The patched graph (which no longer matches it)
    // moved into `entry` and dies with it; the next structural update
    // rebuilds from scratch.
    return ResourceExhausted(
        "matrix '" + entry->name + "' needs " + std::to_string(entry->bytes) +
        " bytes after the update, more than the whole registry budget of " +
        std::to_string(options_.byte_budget));
  }
  resident_bytes_ -= it->second.entry->bytes;
  resident_bytes_ += entry->bytes;
  it->second.entry = std::move(entry);  // in-flight EntryRefs keep the old
                                        // epoch alive until they finish
  // An update is a use: promote, then make room under the budget (the
  // promoted entry is at the LRU front, so eviction only takes others).
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  it->second.lru_it = lru_.begin();
  EvictLruUntilFitsLocked(0);
  ++stats_.updates;
  return report;
}

bool MatrixRegistry::Evict(MatrixHandle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(handle);
  if (it == entries_.end()) return false;
  resident_bytes_ -= it->second.entry->bytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  ++stats_.evictions;
  return true;
}

bool MatrixRegistry::Contains(MatrixHandle handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(handle) != entries_.end();
}

RegistrySnapshot MatrixRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snapshot = stats_;
  snapshot.resident_entries = entries_.size();
  snapshot.resident_bytes = resident_bytes_;
  return snapshot;
}

}  // namespace capellini::serve
