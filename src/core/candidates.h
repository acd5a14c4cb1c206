// chooseCands (Sec. 5.2.2, Fig. 6): online maintenance of the candidate set
// and its stable partition. Per statement it (1) extracts interesting
// indices into the growing universe U, (2) builds the statement's IBG,
// (3) refreshes benefit/interaction statistics, (4) picks the top idxCnt
// indices (topIndices) keeping materialized ones, and (5) re-partitions
// under the stateCnt bound (core/partition.h).
#ifndef WFIT_CORE_CANDIDATES_H_
#define WFIT_CORE_CANDIDATES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/partition.h"
#include "core/stats.h"
#include "ibg/ibg.h"
#include "optimizer/index_extractor.h"

namespace wfit {

struct CandidateOptions {
  /// Upper bound on monitored indices (paper: idxCnt, default 40).
  size_t idx_cnt = 40;
  /// Upper bound on Σ 2^|Dm| (paper: stateCnt, default 500).
  size_t state_cnt = 500;
  /// Statistics window (paper: histSize, default 100).
  size_t hist_size = 100;
  /// Randomized partition-search iterations (paper: RAND_CNT).
  int rand_cnt = 10;
  /// Per-query IBG candidate cap (masks are 32-bit).
  size_t ibg_cap = 25;
  /// Per-query what-if budget: IBG node closure limit (paper: 5-100 calls
  /// per query). Exceeding it sheds the lowest-benefit candidates.
  size_t ibg_node_budget = 150;
  /// topIndices scores a non-monitored index as
  ///   benefit*(b) − creation_penalty_factor · δ+(b).
  /// The paper uses factor 1; benefit* is a per-statement average while δ+
  /// is absolute, so the default scales by 1/histSize (see DESIGN.md).
  double creation_penalty_factor = 0.01;
  ExtractorOptions extractor;
};

/// The selector's complete mutable state — what persist/ snapshots so a
/// restarted WFIT resumes candidate maintenance exactly where it left off:
/// the candidate universe U, the workload position, the RNG stream position
/// of choosePartition's randomized search, and the windowed
/// benefit/interaction statistics.
struct SelectorState {
  IndexSet universe;
  uint64_t position = 0;
  /// Rng::SaveState text for the partition-search engine.
  std::string rng_state;
  /// idxStats windows, sorted by index id, entries oldest first.
  std::vector<std::pair<IndexId, std::vector<std::pair<uint64_t, double>>>>
      benefit_windows;
  /// intStats windows keyed by packed pair key, sorted, oldest first.
  std::vector<std::pair<uint64_t, std::vector<std::pair<uint64_t, double>>>>
      interaction_windows;
};

/// Result of analyzing one statement.
struct CandidateAnalysis {
  /// The new stable partition {D1, ..., DM}.
  std::vector<IndexSet> partition;
  /// The statement's IBG (over the query-relevant slice of U); reused by
  /// WFIT to feed the per-part cost functions.
  std::shared_ptr<IndexBenefitGraph> ibg;
};

class CandidateSelector {
 public:
  CandidateSelector(IndexPool* pool, const WhatIfOptimizer* optimizer,
                    const CandidateOptions& options, uint64_t seed);

  /// Runs chooseCands for the next statement. `materialized` is the set M
  /// the DBA currently has built (always retained as candidates);
  /// `current_partition` seeds both topIndices scoring and the baseline
  /// partition.
  CandidateAnalysis ChooseCands(const Statement& q,
                                const IndexSet& materialized,
                                const std::vector<IndexSet>& current_partition);

  /// Adds an index to the universe (e.g. a DBA vote on an unmonitored
  /// index) so the next statement can consider it.
  void AddToUniverse(IndexId id) { universe_.Add(id); }

  uint64_t statements_seen() const { return position_; }
  const IndexSet& universe() const { return universe_; }
  const BenefitStats& benefit_stats() const { return idx_stats_; }
  const InteractionStats& interaction_stats() const { return int_stats_; }

  /// Snapshot hooks (persist/): ExportState captures, RestoreState replaces
  /// the selector's mutable state. Restoring fails (InvalidArgument, state
  /// untouched except already-restored windows) only on an unparseable RNG
  /// state. Options and seed stay with the constructor.
  SelectorState ExportState() const;
  Status RestoreState(const SelectorState& state);

 private:
  /// topIndices(X, u): up to u ids from X with the highest scores.
  /// `benefit_of[i]` is the precomputed current benefit of the i-th
  /// universe id (aligned with universe_.ids()).
  std::vector<IndexId> TopIndices(const std::vector<IndexId>& x, size_t u,
                                  const IndexSet& monitored,
                                  const std::vector<double>& benefit_of) const;

  /// The precomputed benefit of universe member `a` from a scratch vector
  /// aligned with universe_.ids().
  double UniverseBenefit(IndexId a,
                         const std::vector<double>& benefit_of) const;

  IndexPool* pool_;
  const WhatIfOptimizer* optimizer_;
  CandidateOptions options_;
  Rng rng_;
  IndexSet universe_;          // U
  BenefitStats idx_stats_;     // idxStats
  InteractionStats int_stats_; // intStats
  uint64_t position_ = 0;      // statements analyzed (1-based after ++)
  // Per-statement scratch, hoisted so ChooseCands is allocation-stable:
  // current benefit per universe id (computed once per statement — the
  // ranking sort and topIndices both read it instead of re-walking the
  // stats windows per comparison). choosePartition's own doi memoization
  // lives inside ChoosePartition (core/partition.cc: dense doi matrix +
  // cross-loss cache).
  std::vector<double> benefit_scratch_;
  std::vector<IndexId> relevant_scratch_;
  std::vector<IndexId> not_materialized_scratch_;
};

}  // namespace wfit

#endif  // WFIT_CORE_CANDIDATES_H_
