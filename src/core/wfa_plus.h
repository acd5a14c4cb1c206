// WFA+ (Sec. 4.2): divide-and-conquer WFA over a stable partition
// {C1, ..., CK}. One WfaInstance per part; per statement, each
// statement-relevant part gets its own (small) benefit graph supplying its
// cost function. Recommendations are the union of per-part recommendations;
// Theorem 4.2 (equivalence with monolithic WFA on stable partitions) is
// property-tested.
//
// This class is also the paper's "WFIT with a fixed stable partition"
// configuration used throughout the evaluation (Figs. 8–11); the full WFIT
// with automatic candidate maintenance builds on top of it (core/wfit.h).
#ifndef WFIT_CORE_WFA_PLUS_H_
#define WFIT_CORE_WFA_PLUS_H_

#include <string>
#include <vector>

#include "core/tuner.h"
#include "core/work_function.h"
#include "ibg/ibg.h"
#include "optimizer/what_if.h"

namespace wfit {

/// The sorted set of tables `q` touches (hoisted out of RelevantCandidates
/// so per-part filtering rebuilds it once per statement, not once per part).
std::vector<TableId> StatementTables(const Statement& q);

/// Candidates from `universe` that can influence a statement touching
/// `tables` (sorted): indices on those tables, capped at `cap` (IBG masks
/// are 32-bit). Deterministic.
std::vector<IndexId> RelevantCandidates(const std::vector<TableId>& tables,
                                        const IndexPool& pool,
                                        const std::vector<IndexId>& universe,
                                        size_t cap = 25);

/// Convenience overload deriving the table set from `q` directly.
std::vector<IndexId> RelevantCandidates(const Statement& q,
                                        const IndexPool& pool,
                                        const std::vector<IndexId>& universe,
                                        size_t cap = 25);

/// Runs one statement through a set of per-part WFA instances, building one
/// IBG per statement-relevant part (shared by WfaPlus, Wfit and tests).
void AnalyzePartitioned(const Statement& q, const IndexPool& pool,
                        const WhatIfOptimizer& optimizer,
                        size_t ibg_node_budget,
                        std::vector<WfaInstance>* instances);

class WfaPlus : public Tuner {
 public:
  /// `partition` is the stable partition {C1,...,CK}; parts must be
  /// disjoint. The initial configuration is intersected with each part.
  /// `ibg_node_budget` bounds per-statement what-if calls (the paper's
  /// prototype consumed 5-100 per query); currently-recommended indices are
  /// shed last when the budget forces truncation.
  WfaPlus(const IndexPool* pool, const WhatIfOptimizer* optimizer,
          std::vector<IndexSet> partition, const IndexSet& initial_config,
          std::string display_name = "WFA+", size_t ibg_node_budget = 300);

  void AnalyzeQuery(const Statement& q) override;
  IndexSet Recommendation() const override;
  void Feedback(const IndexSet& f_plus, const IndexSet& f_minus) override;
  std::string name() const override { return name_; }

  const std::vector<IndexSet>& partition() const { return partition_; }
  const std::vector<WfaInstance>& instances() const { return instances_; }
  /// All monitored candidates (∪k Ck).
  const std::vector<IndexId>& candidates() const { return all_members_; }

  /// Σk 2^|Ck| — the paper's stateCnt measure of bookkeeping size.
  size_t TotalStates() const;

 private:
  const IndexPool* pool_;
  const WhatIfOptimizer* optimizer_;
  std::vector<IndexSet> partition_;
  std::vector<WfaInstance> instances_;
  std::vector<IndexId> all_members_;
  std::string name_;
  size_t ibg_node_budget_;
};

}  // namespace wfit

#endif  // WFIT_CORE_WFA_PLUS_H_
