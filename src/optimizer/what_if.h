// The what-if optimizer: cost(q, X) for a statement q under a hypothetical
// index configuration X, plus the set of indices the chosen plan uses. This
// plays the role of DB2's what-if mode in the paper's prototype; see
// DESIGN.md for the substitution argument.
//
// Plan space per table: sequential scan, index scan/seek with B-tree prefix
// matching (leading equalities + one range), index-only (covering) scans,
// sort-avoiding index scans for ORDER BY, and two-index intersections —
// the intersections and covering plans are what create the index
// interactions that WFIT's stable partitions model. Multi-table SELECTs use
// a left-deep chain ordered by filtered cardinality with a choice of
// hash join or index-nested-loop per step. Updates pay a locate cost (which
// indices can reduce) plus per-index maintenance (which indices inflate).
#ifndef WFIT_OPTIMIZER_WHAT_IF_H_
#define WFIT_OPTIMIZER_WHAT_IF_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "optimizer/cost_model.h"
#include "workload/statement.h"

namespace wfit {

/// Result of one what-if optimization.
struct PlanSummary {
  double cost = 0.0;
  /// Indices the winning plan touches; always a subset of the hypothetical
  /// configuration, and minimal under cost ties.
  IndexSet used;
};

/// Optimize is virtual so test and benchmark doubles can stand in for the
/// real optimizer (interactions_test's RandomPlanOptimizer replaces it,
/// bench_e2e's TimedWhatIf times it). It is safe to call concurrently from
/// multiple threads (cost arithmetic is pure, the call counter is atomic).
class WhatIfOptimizer {
 public:
  explicit WhatIfOptimizer(const CostModel* model) : model_(model) {
    WFIT_CHECK(model != nullptr, "WhatIfOptimizer requires a cost model");
  }
  virtual ~WhatIfOptimizer() = default;

  WhatIfOptimizer(const WhatIfOptimizer&) = delete;
  WhatIfOptimizer& operator=(const WhatIfOptimizer&) = delete;

  /// cost(q, X) with used-index reporting. Increments the what-if call
  /// counter (the paper reports calls/query as the main overhead metric)
  /// and records the call as one obs::Stage::kProbe sample and one
  /// "probe.real" span: every probe WFIT and the baselines make ends here.
  virtual PlanSummary Optimize(const Statement& q, const IndexSet& x) const;

  /// Convenience: cost only.
  double Cost(const Statement& q, const IndexSet& x) const {
    return Optimize(q, x).cost;
  }

  uint64_t num_calls() const {
    return num_calls_.load(std::memory_order_relaxed);
  }
  void ResetCallCount() { num_calls_.store(0, std::memory_order_relaxed); }

  const CostModel& cost_model() const { return *model_; }

 private:
  struct AccessPath {
    double cost = 0.0;
    double out_rows = 0.0;
    IndexSet used;
    /// True when rows are produced in `order_col` order (sort avoided).
    bool sorted = false;
  };

  /// Best access path for one table slice of the statement. `needs_fetch`
  /// forces heap access (updates must fetch rows regardless of covering).
  AccessPath BestTableAccess(const StatementTable& t,
                             const std::vector<IndexId>& available,
                             const ColumnRef* order_col,
                             bool needs_fetch) const;

  /// All single-index candidate paths on `t` (helper for BestTableAccess).
  std::vector<AccessPath> SingleIndexPaths(const StatementTable& t,
                                           const std::vector<IndexId>& available,
                                           const ColumnRef* order_col,
                                           bool needs_fetch) const;

  PlanSummary OptimizeSelect(const Statement& q, const IndexSet& x) const;
  PlanSummary OptimizeUpdate(const Statement& q, const IndexSet& x) const;

  const CostModel* model_;
  mutable std::atomic<uint64_t> num_calls_{0};
};

}  // namespace wfit

#endif  // WFIT_OPTIMIZER_WHAT_IF_H_
