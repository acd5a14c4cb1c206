#include "core/work_function.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace wfit {
namespace {

/// Example 4.1 / Figure 2 of the paper: one index `a` with creation cost 20
/// and drop cost 0, three queries. The paper's work-function values, scores
/// and recommendations must be matched exactly.
class Example41 : public ::testing::Test {
 protected:
  Example41()
      : wfa_({/*members=*/7}, /*create=*/{20.0}, /*drop=*/{0.0},
             /*initial_config=*/0) {}

  static PartCostFn Costs(double cost_empty, double cost_a) {
    return [cost_empty, cost_a](Mask s) {
      return s == 0 ? cost_empty : cost_a;
    };
  }

  WfaInstance wfa_;
};

TEST_F(Example41, InitialWorkFunction) {
  EXPECT_DOUBLE_EQ(wfa_.work_value(0b0), 0.0);
  EXPECT_DOUBLE_EQ(wfa_.work_value(0b1), 20.0);
  EXPECT_EQ(wfa_.recommendation(), 0u);
}

TEST_F(Example41, AfterQuery1) {
  wfa_.AnalyzeQuery(Costs(15.0, 5.0));
  EXPECT_DOUBLE_EQ(wfa_.work_value(0b0), 15.0);
  EXPECT_DOUBLE_EQ(wfa_.work_value(0b1), 25.0);
  // Scores equal the work function values; ∅ wins on the lower score.
  EXPECT_DOUBLE_EQ(wfa_.Score(0b0), 15.0);
  EXPECT_DOUBLE_EQ(wfa_.Score(0b1), 25.0);
  EXPECT_EQ(wfa_.recommendation(), 0u);
}

TEST_F(Example41, AfterQuery2SwitchesToA) {
  wfa_.AnalyzeQuery(Costs(15.0, 5.0));
  wfa_.AnalyzeQuery(Costs(20.0, 2.0));
  EXPECT_DOUBLE_EQ(wfa_.work_value(0b0), 27.0);
  EXPECT_DOUBLE_EQ(wfa_.work_value(0b1), 27.0);
  // Both scores are 27, but only {a} satisfies the self-path condition
  // (its work function evaluates q2 at {a} in both paths), so WFA switches.
  EXPECT_EQ(wfa_.recommendation(), 0b1u);
}

TEST_F(Example41, AfterQuery3KeepsADespiteDropBeingFavored) {
  wfa_.AnalyzeQuery(Costs(15.0, 5.0));
  wfa_.AnalyzeQuery(Costs(20.0, 2.0));
  wfa_.AnalyzeQuery(Costs(15.0, 20.0));
  EXPECT_DOUBLE_EQ(wfa_.work_value(0b0), 42.0);
  EXPECT_DOUBLE_EQ(wfa_.work_value(0b1), 47.0);
  EXPECT_DOUBLE_EQ(wfa_.Score(0b0), 62.0);
  EXPECT_DOUBLE_EQ(wfa_.Score(0b1), 47.0);
  // The difference in work functions (5) is below the re-creation cost
  // (20), so the recommendation does not change — the paper's point about
  // WFA's robustness.
  EXPECT_EQ(wfa_.recommendation(), 0b1u);
}

TEST_F(Example41, HighlightedPathTotalWorkIs57) {
  // The figure's highlighted path: ∅ for q1, {a} for q2 and q3.
  double total = 0.0;
  total += 0.0 + 15.0;   // δ(∅,∅) + cost(q1,∅)
  total += 20.0 + 2.0;   // δ(∅,{a}) + cost(q2,{a})
  total += 0.0 + 20.0;   // δ({a},{a}) + cost(q3,{a})
  EXPECT_DOUBLE_EQ(total, 57.0);
}

// ---------------------------------------------------------------------------
// Randomized equivalence with a naive O(4^k) reference implementation.
// ---------------------------------------------------------------------------

struct NaiveWfa {
  std::vector<double> create, drop, w;
  Mask rec = 0;

  double Delta(Mask from, Mask to) const {
    double cost = 0.0;
    for (size_t i = 0; i < create.size(); ++i) {
      Mask m = Mask{1} << i;
      if ((to & m) && !(from & m)) cost += create[i];
      if ((from & m) && !(to & m)) cost += drop[i];
    }
    return cost;
  }

  void AnalyzeQuery(const PartCostFn& cost) {
    const size_t n = w.size();
    std::vector<double> v(n), next(n);
    for (Mask s = 0; s < n; ++s) v[s] = w[s] + cost(s);
    for (Mask s = 0; s < n; ++s) {
      double best = v[s];
      for (Mask x = 0; x < n; ++x) best = std::min(best, v[x] + Delta(x, s));
      next[s] = best;
    }
    // Recommendation: min score among self-path states, lexicographic ties.
    bool have = false;
    Mask best_state = 0;
    double best_score = 0.0;
    auto nearly = [](double a, double b) {
      double scale = std::max({std::abs(a), std::abs(b), 1.0});
      return std::abs(a - b) <= 1e-9 * scale;
    };
    for (Mask s = 0; s < n; ++s) {
      if (!nearly(next[s], v[s])) continue;
      double score = next[s] + Delta(s, rec);
      if (!have || score + 1e-12 < best_score ||
          (nearly(score, best_score) && LexPrefers(s, best_state))) {
        have = true;
        best_state = s;
        best_score = score;
      }
    }
    w = std::move(next);
    rec = best_state;
  }
};

class WfaEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(WfaEquivalence, FastRelaxationMatchesNaive) {
  Rng rng(1000 + static_cast<uint64_t>(GetParam()));
  const size_t k = static_cast<size_t>(rng.UniformInt(1, 6));
  const size_t n = size_t{1} << k;

  std::vector<IndexId> members(k);
  NaiveWfa naive;
  for (size_t i = 0; i < k; ++i) {
    members[i] = static_cast<IndexId>(i);
    naive.create.push_back(static_cast<double>(rng.UniformInt(1, 100)));
    naive.drop.push_back(static_cast<double>(rng.UniformInt(0, 10)));
  }
  Mask init = static_cast<Mask>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  WfaInstance fast(members, naive.create, naive.drop, init);
  naive.w.resize(n);
  for (Mask s = 0; s < n; ++s) naive.w[s] = naive.Delta(init, s);
  naive.rec = init;

  for (int query = 0; query < 12; ++query) {
    std::vector<double> costs(n);
    for (Mask s = 0; s < n; ++s) {
      costs[s] = static_cast<double>(rng.UniformInt(0, 60));
    }
    PartCostFn fn = [&costs](Mask s) { return costs[s]; };
    fast.AnalyzeQuery(fn);
    naive.AnalyzeQuery(fn);
    for (Mask s = 0; s < n; ++s) {
      ASSERT_NEAR(fast.work_value(s), naive.w[s], 1e-9)
          << "query " << query << " state " << s;
    }
    ASSERT_EQ(fast.recommendation(), naive.rec) << "query " << query;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, WfaEquivalence,
                         ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Structural invariants.
// ---------------------------------------------------------------------------

TEST(WfaInvariantTest, WorkFunctionStaysDeltaConsistent) {
  // w(S) ≤ w(X) + δ(X, S) after every update (the property that makes the
  // per-coordinate relaxation exact).
  Rng rng(77);
  const size_t k = 4, n = 16;
  std::vector<IndexId> members = {0, 1, 2, 3};
  std::vector<double> create, drop;
  for (size_t i = 0; i < k; ++i) {
    create.push_back(static_cast<double>(rng.UniformInt(5, 50)));
    drop.push_back(static_cast<double>(rng.UniformInt(0, 5)));
  }
  WfaInstance wfa(members, create, drop, 0);
  for (int query = 0; query < 20; ++query) {
    std::vector<double> costs(n);
    for (Mask s = 0; s < n; ++s) {
      costs[s] = static_cast<double>(rng.UniformInt(0, 40));
    }
    wfa.AnalyzeQuery([&costs](Mask s) { return costs[s]; });
    for (Mask s = 0; s < n; ++s) {
      for (Mask x = 0; x < n; ++x) {
        EXPECT_LE(wfa.work_value(s),
                  wfa.work_value(x) + wfa.TransitionCost(x, s) + 1e-9);
      }
    }
  }
}

TEST(WfaInvariantTest, WorkFunctionMonotoneNonDecreasing) {
  Rng rng(88);
  std::vector<IndexId> members = {0, 1, 2};
  WfaInstance wfa(members, {30, 40, 50}, {1, 2, 3}, 0);
  std::vector<double> prev(8);
  for (Mask s = 0; s < 8; ++s) prev[s] = wfa.work_value(s);
  for (int query = 0; query < 15; ++query) {
    std::vector<double> costs(8);
    for (Mask s = 0; s < 8; ++s) {
      costs[s] = static_cast<double>(rng.UniformInt(0, 30));
    }
    wfa.AnalyzeQuery([&costs](Mask s) { return costs[s]; });
    for (Mask s = 0; s < 8; ++s) {
      EXPECT_GE(wfa.work_value(s) + 1e-12, prev[s]);
      prev[s] = wfa.work_value(s);
    }
  }
}

TEST(WfaInvariantTest, ZeroCostQueryKeepsRecommendation) {
  WfaInstance wfa({0, 1}, {25, 25}, {1, 1}, 0b01);
  Mask before = wfa.recommendation();
  wfa.AnalyzeQuery([](Mask) { return 7.0; });  // constant cost: no signal
  EXPECT_EQ(wfa.recommendation(), before);
}

// ---------------------------------------------------------------------------
// Feedback (Fig. 4).
// ---------------------------------------------------------------------------

TEST(WfaFeedbackTest, PositiveVoteForcesIndexIn) {
  WfaInstance wfa({0, 1}, {100, 100}, {1, 1}, 0);
  EXPECT_EQ(wfa.recommendation(), 0u);
  wfa.ApplyFeedback(/*f_plus=*/0b01, /*f_minus=*/0);
  EXPECT_EQ(wfa.recommendation() & 0b01, 0b01u);
}

TEST(WfaFeedbackTest, NegativeVoteForcesIndexOut) {
  WfaInstance wfa({0, 1}, {100, 100}, {1, 1}, 0b11);
  wfa.ApplyFeedback(/*f_plus=*/0, /*f_minus=*/0b10);
  EXPECT_EQ(wfa.recommendation() & 0b10, 0u);
  EXPECT_EQ(wfa.recommendation() & 0b01, 0b01u);  // untouched index stays
}

TEST(WfaFeedbackTest, Inequality51HoldsAfterFeedback) {
  Rng rng(99);
  std::vector<IndexId> members = {0, 1, 2};
  WfaInstance wfa(members, {40, 60, 80}, {2, 3, 4}, 0);
  // A few queries to roughen the work function.
  for (int query = 0; query < 5; ++query) {
    std::vector<double> costs(8);
    for (Mask s = 0; s < 8; ++s) {
      costs[s] = static_cast<double>(rng.UniformInt(0, 50));
    }
    wfa.AnalyzeQuery([&costs](Mask s) { return costs[s]; });
  }
  const Mask f_plus = 0b001, f_minus = 0b100;
  wfa.ApplyFeedback(f_plus, f_minus);
  const Mask rec = wfa.recommendation();
  for (Mask s = 0; s < 8; ++s) {
    Mask s_cons = (s & ~f_minus) | f_plus;
    double min_diff =
        wfa.TransitionCost(s, s_cons) + wfa.TransitionCost(s_cons, s);
    double diff = wfa.Score(s) - wfa.Score(rec);
    EXPECT_GE(diff + 1e-9, min_diff) << "state " << s;
  }
}

TEST(WfaFeedbackTest, RecoversFromBadVote) {
  // Vote an index in against the workload's will; enough adverse queries
  // must eventually drive it back out.
  WfaInstance wfa({0}, {30}, {0}, 0);
  wfa.ApplyFeedback(/*f_plus=*/1, /*f_minus=*/0);
  EXPECT_EQ(wfa.recommendation(), 1u);
  PartCostFn adverse = [](Mask s) { return s == 0 ? 0.0 : 10.0; };
  int queries_until_drop = 0;
  for (; queries_until_drop < 50 && wfa.recommendation() == 1u;
       ++queries_until_drop) {
    wfa.AnalyzeQuery(adverse);
  }
  EXPECT_LT(queries_until_drop, 50) << "never recovered from bad feedback";
  EXPECT_GT(queries_until_drop, 1) << "feedback had no stickiness at all";
}

TEST(WfaFeedbackDeathTest, ContradictoryVotesAbort) {
  WfaInstance wfa({0}, {10}, {1}, 0);
  EXPECT_DEATH({ wfa.ApplyFeedback(1, 1); }, "contradictory");
}

TEST(WfaMappingTest, ToMaskAndToSet) {
  WfaInstance wfa({10, 20, 30}, {1, 1, 1}, {0, 0, 0}, 0);
  IndexSet set{20, 99};
  EXPECT_EQ(wfa.ToMask(set), 0b010u);
  EXPECT_EQ(wfa.ToSet(0b101), (IndexSet{10, 30}));
  EXPECT_EQ(wfa.RecommendationSet(), IndexSet{});
}

}  // namespace
}  // namespace wfit
