// WFA — the Work Function Algorithm for index tuning (Fig. 3 of the paper),
// instantiated over one part Ck of the stable partition. The instance
// maintains the work function w_n(S) for every S ⊆ Ck and the current
// recommendation, updated per statement via recurrence (4.1):
//
//   w_n(S) = min_X { w_{n-1}(X) + cost(q_n, X) + δ(X, S) }
//
// Because δ decomposes per index (δ+ to create, δ− to drop), the min-plus
// step is computed by one relaxation pass per index — O(k·2^k) instead of
// the naive O(4^k); tests cross-check the two. Recommendation selection
// implements the paper's score function with the self-path (S ∈ p[S])
// constraint and the lexicographic tie-break of Appendix B.
#ifndef WFIT_CORE_WORK_FUNCTION_H_
#define WFIT_CORE_WORK_FUNCTION_H_

#include <functional>
#include <vector>

#include "common/bits.h"
#include "core/index_set.h"
#include "optimizer/cost_model.h"

namespace wfit {

/// cost(q, S) for a subset S of the part, as a function of the part-local
/// mask. Backed by an IBG in production; by tables in tests.
using PartCostFn = std::function<double(Mask)>;

class WfaInstance {
 public:
  /// Fresh instance: w_0(S) = δ(S0 ∩ Ck, S) and currRec = S0 ∩ Ck.
  /// `members` lists the part's indices; bit i of every Mask refers to
  /// members[i]. At most 20 members (2^20 work function entries).
  WfaInstance(std::vector<IndexId> members, const CostModel& cost_model,
              Mask initial_config);

  /// Restored instance (used by WFIT's repartition): explicit work function
  /// values and current recommendation.
  WfaInstance(std::vector<IndexId> members, const CostModel& cost_model,
              std::vector<double> work_function, Mask current_rec);

  /// Fresh instance with injected per-member transition costs; lets tests
  /// and synthetic task systems (e.g. Example 4.1 / Fig. 2) drive WFA
  /// without a catalog-backed cost model.
  WfaInstance(std::vector<IndexId> members, std::vector<double> create_costs,
              std::vector<double> drop_costs, Mask initial_config);

  /// Restored instance with injected transition costs.
  WfaInstance(std::vector<IndexId> members, std::vector<double> create_costs,
              std::vector<double> drop_costs,
              std::vector<double> work_function, Mask current_rec);

  /// Analyzes the next statement (Fig. 3, analyzeQuery).
  void AnalyzeQuery(const PartCostFn& cost);

  /// Applies DBA votes restricted to this part (Fig. 4, feedback):
  /// forces consistency of the recommendation and bumps the work function
  /// so inequality (5.1) holds for every state.
  void ApplyFeedback(Mask f_plus, Mask f_minus);

  /// Fig. 3, recommend().
  Mask recommendation() const { return curr_rec_; }
  IndexSet RecommendationSet() const;

  const std::vector<IndexId>& members() const { return members_; }
  size_t num_states() const { return w_.size(); }

  /// w[S] (for repartition and tests).
  double work_value(Mask s) const {
    WFIT_CHECK(s < w_.size(), "work_value: mask out of range");
    return w_[s];
  }
  /// The complete work function, indexed by part-local mask (persist/
  /// snapshots; restore via the explicit-work-function constructors).
  const std::vector<double>& work_values() const { return w_; }
  /// score(S) = w[S] + δ(S, currRec) (for tests).
  double Score(Mask s) const { return w_[s] + TransitionCost(s, curr_rec_); }

  /// δ within the part: per-member create/drop cost sums.
  double TransitionCost(Mask from, Mask to) const;

  /// Mask of `set` members present in this part.
  Mask ToMask(const IndexSet& set) const;
  IndexSet ToSet(Mask mask) const;

 private:
  void InitCosts(const CostModel& cost_model);
  /// In-place min-plus relaxation of v with δ: one pass per member bit.
  void Relax(std::vector<double>* v) const;

  std::vector<IndexId> members_;
  std::vector<double> create_cost_;  // δ+ per member bit
  std::vector<double> drop_cost_;    // δ− per member bit
  std::vector<double> w_;            // work function, 2^|members| entries
  Mask curr_rec_ = 0;
  // Scratch buffers reused across AnalyzeQuery calls: v_scratch_ holds
  // w[S] + cost(S) (the self-path reference), relax_scratch_ its relaxed
  // copy which becomes the new work function by swap — no per-statement
  // vector allocation.
  mutable std::vector<double> v_scratch_;
  mutable std::vector<double> relax_scratch_;
};

}  // namespace wfit

#endif  // WFIT_CORE_WORK_FUNCTION_H_
