// Benchmark inputs: the corpus and the seeded op sequences. Nothing here is
// timed; ops are drawn one at a time so the sequence costs O(1) memory.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "gen/corpus.h"
#include "support/rng.h"

namespace perfbench {
namespace {

constexpr double kZipfExponent = 1.1;
// Rank 1 gets this many copies per deck: with 7 ranks the deck holds 19
// solves in the proportions 8:4:2:2:1:1:1 (zipf(1.1) rounded).
constexpr double kDeckScale = 8.0;

}  // namespace

std::vector<capellini::NamedMatrix> MakeCorpus() {
  // The library's default corpus seed, whatever the run seed: a seeded
  // corpus moves each factor's nnz by up to 12%, which alone spreads latency
  // across seeds further than the bounds allow. The run seed drives the
  // traffic instead: op order, right-hand sides and delta batches.
  capellini::CorpusOptions options;
  // The smallest target the generator honours: every high-granularity
  // matrix keeps its 8-level minimum, so rows land at 58k-128k.
  options.target_rows = 8'000;
  std::vector<capellini::NamedMatrix> corpus =
      capellini::HighGranularityCorpus(options);
  std::stable_sort(corpus.begin(), corpus.end(),
                   [](const auto& a, const auto& b) {
                     return a.matrix.nnz() < b.matrix.nnz();
                   });
  return corpus;
}

OpStream::OpStream(int num_matrices, std::uint64_t seed, bool updates)
    : state_(seed), updates_(updates) {
  for (int rank = 1; rank <= num_matrices; ++rank) {
    const double share = kDeckScale / std::pow(rank, kZipfExponent);
    counts_.push_back(std::max(1, static_cast<int>(std::lround(share))));
  }
}

std::size_t OpStream::deck_ops() const {
  std::size_t solves = 0;
  for (const int count : counts_) solves += static_cast<std::size_t>(count);
  return updates_ ? 2 * solves : solves;
}

void OpStream::Refill() {
  deck_.clear();
  for (std::size_t rank = 0; rank < counts_.size(); ++rank) {
    for (int copy = 0; copy < counts_[rank]; ++copy) {
      deck_.push_back({static_cast<int>(rank),
                       (static_cast<std::uint64_t>(copy) + decks_) % 2 == 1});
    }
  }
  ++decks_;
  capellini::Rng rng(capellini::SplitMix64(state_));
  for (std::size_t i = deck_.size(); i > 1; --i) {
    std::swap(deck_[i - 1], deck_[rng.NextBounded(i)]);
  }
  next_ = 0;
}

Op OpStream::Next() {
  if (pending_update_) {
    pending_update_ = false;
    Op op = last_solve_;
    op.update = true;
    op.seed = capellini::SplitMix64(state_);
    return op;
  }
  if (next_ == deck_.size()) Refill();
  Op op;
  op.matrix = deck_[next_].matrix;
  op.structural = deck_[next_++].structural;
  op.seed = capellini::SplitMix64(state_);
  last_solve_ = op;
  pending_update_ = updates_;
  return op;
}

}  // namespace perfbench
