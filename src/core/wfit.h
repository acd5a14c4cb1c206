// WFIT (Sec. 5): the end-to-end semi-automatic tuner. Extends WFA+ with
// (a) the DBA feedback mechanism of Fig. 4 — consistency override plus the
// work-function adjustment enforcing inequality (5.1) — and (b) automatic
// candidate maintenance: chooseCands (Fig. 6) decides the candidate set and
// stable partition per statement, and repartition (Fig. 5) migrates the
// work-function state whenever the partition changes.
//
// The evaluation's "WFIT with a fixed stable partition" configuration is
// WfaPlus (core/wfa_plus.h), which shares the recommendation and feedback
// logic; this class is the AUTO configuration of Fig. 12 and the production
// deployment mode.
#ifndef WFIT_CORE_WFIT_H_
#define WFIT_CORE_WFIT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/candidates.h"
#include "core/tuner.h"
#include "core/work_function.h"
#include "optimizer/caching_what_if.h"

namespace wfit {

struct WfitOptions {
  CandidateOptions candidates;
  std::string name = "WFIT";
  /// Seed for choosePartition's randomized search.
  uint64_t seed = 20120402;
  /// Cross-statement what-if memoization (templates repeat in generator and
  /// OLTP workloads). Purely a probe-avoidance layer: trajectories are
  /// bit-for-bit identical with it cold, warm, or disabled
  /// (max_templates = 0), and it is never persisted — recovery restarts
  /// cold.
  CrossStatementCacheOptions cross_cache;
};

/// The complete mutable state of a Wfit tuner (persist/ snapshots). The
/// partition is stored as per-instance member lists — not IndexSets — so
/// each WfaInstance's mask bit order is preserved exactly; together with
/// the constructor arguments (pool, optimizer, options) this determines
/// all future behavior bit for bit.
struct WfitState {
  std::vector<std::vector<IndexId>> instance_members;  // {D1, ..., DM}
  std::vector<std::vector<double>> work_values;        // w(m) per part
  std::vector<Mask> current_recs;                      // currRec per part
  IndexSet candidate_set;                              // C = ∪m Dm
  IndexSet initial_materialized;                       // S0
  uint64_t repartitions = 0;
  uint64_t feedback_events = 0;
  SelectorState selector;
};

class Wfit : public Tuner {
 public:
  /// Initialization per Fig. 4: C = S0 with singleton parts; candidates
  /// evolve automatically from the workload.
  Wfit(IndexPool* pool, const WhatIfOptimizer* optimizer,
       const IndexSet& initial_materialized, const WfitOptions& options);

  void AnalyzeQuery(const Statement& q) override;
  /// NOTE: memoizes the per-part union in mutable state, so despite being
  /// const it must not race with itself or any mutating call. All Tuner
  /// entry points share one serialization domain (the service's drain
  /// path; the harness loop) — concurrent readers need a snapshot layer
  /// (service::TunerService::Recommendation) instead.
  IndexSet Recommendation() const override;

  /// Fig. 4 feedback. Votes on indices outside the candidate set are
  /// honored by opening a singleton part for them (positive votes) and by
  /// seeding the candidate universe, so the consistency constraint
  /// (F+ ⊆ S ∧ S ∩ F− = ∅) holds for arbitrary votes.
  void Feedback(const IndexSet& f_plus, const IndexSet& f_minus) override;

  std::string name() const override { return options_.name; }

  WhatIfCacheCounters WhatIfCache() const override {
    return {memo_->hits(), memo_->misses(), memo_->cross_hits()};
  }
  /// Honest-sampling support: scales the benefit each analyzed statement
  /// records into the selector's recency windows (see Tuner).
  void SetStatementWeight(double weight) override {
    selector_->SetStatementWeight(weight);
  }

  const std::vector<IndexSet>& partition() const { return partition_; }
  const IndexSet& candidate_set() const { return candidate_set_; }
  const std::vector<WfaInstance>& instances() const { return instances_; }
  const IndexSet& initial_materialized() const {
    return initial_materialized_;
  }
  uint64_t RepartitionCount() const override { return repartitions_; }
  /// DBA votes applied so far (persisted alongside the work functions).
  uint64_t FeedbackCount() const { return feedback_events_; }
  size_t TotalStates() const;
  const CandidateSelector& selector() const { return *selector_; }

  /// Snapshot hooks (persist/): ExportState captures every mutable field;
  /// RestoreState replaces them on a tuner constructed with the same
  /// (pool, optimizer, options) — IndexIds in the state refer to the
  /// pool's interning order, which persist/ restores first. Validated:
  /// returns InvalidArgument (state unchanged) on inconsistent shapes.
  WfitState ExportState() const;
  Status RestoreState(const WfitState& state);

 private:
  /// Fig. 5: adopt `new_partition`, rebuilding every WfaInstance with
  /// work-function values transferred from the old partition.
  void Repartition(const std::vector<IndexSet>& new_partition);

  IndexPool* pool_;
  const WhatIfOptimizer* optimizer_;
  /// Statement-scoped what-if memo layered over optimizer_. The selector's
  /// statement-wide IBG and every per-part IBG probe through it, so
  /// identical configuration probes within one statement cost one real
  /// optimizer call.
  std::unique_ptr<CachingWhatIfOptimizer> memo_;
  WfitOptions options_;
  std::unique_ptr<CandidateSelector> selector_;
  std::vector<IndexSet> partition_;      // {C1, ..., CK}
  std::vector<WfaInstance> instances_;   // WFA(k) per part
  IndexSet candidate_set_;               // C = ∪k Ck
  IndexSet initial_materialized_;        // S0 (repartition line 7)
  uint64_t repartitions_ = 0;
  uint64_t feedback_events_ = 0;
  /// Recommendation() re-unions every instance's recommendation; it is
  /// called at least twice per statement (chooseCands input, snapshot
  /// publication), so the union is cached and invalidated whenever
  /// instance state changes (analyze / feedback / repartition).
  mutable IndexSet cached_rec_;
  mutable bool rec_valid_ = false;
};

}  // namespace wfit

#endif  // WFIT_CORE_WFIT_H_
