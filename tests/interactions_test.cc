#include "ibg/interactions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "tests/test_util.h"

namespace wfit {
namespace {

using testing::TestDb;

TEST(InteractionsTest, DoiIsSymmetric) {
  TestDb db;
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 200 AND b BETWEEN 0 "
      "AND 120");
  std::vector<IndexId> cands = {db.Ix("t1", {"a"}), db.Ix("t1", {"b"}),
                                db.Ix("t1", {"a", "b"})};
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  for (size_t i = 0; i < cands.size(); ++i) {
    for (size_t j = 0; j < cands.size(); ++j) {
      if (i == j) continue;
      EXPECT_NEAR(
          DegreeOfInteraction(ibg, static_cast<int>(i), static_cast<int>(j)),
          DegreeOfInteraction(ibg, static_cast<int>(j), static_cast<int>(i)),
          1e-9);
    }
  }
}

TEST(InteractionsTest, IntersectablePairInteracts) {
  TestDb db;
  Statement q = db.Bind(
      "SELECT d FROM t1 WHERE a BETWEEN 0 AND 200 AND b BETWEEN 0 AND 100");
  IndexId ia = db.Ix("t1", {"a"});
  IndexId ib = db.Ix("t1", {"b"});
  IndexBenefitGraph ibg(q, db.optimizer(), {ia, ib});
  double doi = DegreeOfInteraction(ibg, ibg.BitOf(ia), ibg.BitOf(ib));
  EXPECT_GT(doi, 0.0);
}

TEST(InteractionsTest, IndicesOnDifferentTablesOfSeparateQueriesAreIndependent) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 5");
  IndexId ia = db.Ix("t1", {"a"});
  IndexId ix = db.Ix("t2", {"x"});
  IndexBenefitGraph ibg(q, db.optimizer(), {ia, ix});
  EXPECT_DOUBLE_EQ(DegreeOfInteraction(ibg, ibg.BitOf(ia), ibg.BitOf(ix)),
                   0.0);
}

TEST(InteractionsTest, RedundantIndexesInteract) {
  // ix(a) and ix(a,b) serve the same predicate: the benefit of one drops
  // when the other is present — a (negative-type) interaction.
  TestDb db;
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 500 AND b = 3");
  IndexId ia = db.Ix("t1", {"a"});
  IndexId iab = db.Ix("t1", {"a", "b"});
  IndexBenefitGraph ibg(q, db.optimizer(), {ia, iab});
  EXPECT_GT(DegreeOfInteraction(ibg, ibg.BitOf(ia), ibg.BitOf(iab)), 0.0);
}

TEST(InteractionsTest, ComputeInteractionsListsPositivePairsOnly) {
  TestDb db;
  Statement q = db.Bind(
      "SELECT d FROM t1 WHERE a BETWEEN 0 AND 200 AND b BETWEEN 0 AND 100");
  std::vector<IndexId> cands = {db.Ix("t1", {"a"}), db.Ix("t1", {"b"}),
                                db.Ix("t2", {"x"})};
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  std::vector<InteractionEntry> entries = ComputeInteractions(ibg);
  for (const InteractionEntry& e : entries) {
    EXPECT_GT(e.doi, 0.0);
    EXPECT_NE(e.a, db.Ix("t2", {"x"}));
    EXPECT_NE(e.b, db.Ix("t2", {"x"}));
  }
  // The a/b pair must be among them.
  bool found = false;
  for (const InteractionEntry& e : entries) {
    if ((e.a == cands[0] && e.b == cands[1]) ||
        (e.a == cands[1] && e.b == cands[0])) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(InteractionsTest, DoiMatchesBruteForceDefinition) {
  // doi(a,b) = max_X |benefit({a}, X) − benefit({a}, X ∪ {b})| via direct
  // what-if arithmetic over all contexts.
  TestDb db;
  Statement q = db.Bind(
      "SELECT d FROM t1 WHERE a BETWEEN 0 AND 300 AND b BETWEEN 0 AND 150");
  std::vector<IndexId> cands = {db.Ix("t1", {"a"}), db.Ix("t1", {"b"}),
                                db.Ix("t1", {"c"})};
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  int bit_a = ibg.BitOf(cands[0]);
  int bit_b = ibg.BitOf(cands[1]);
  double doi = DegreeOfInteraction(ibg, bit_a, bit_b);

  double brute = 0.0;
  const Mask ab = (Mask{1} << bit_a) | (Mask{1} << bit_b);
  const Mask full = static_cast<Mask>((1u << cands.size()) - 1);
  for (Mask x = 0; x <= full; ++x) {
    if ((x & ab) != 0) continue;
    auto cost = [&](Mask m) { return db.optimizer().Cost(q, ibg.ToSet(m)); };
    double v = cost(x) - cost(x | (Mask{1} << bit_a)) -
               cost(x | (Mask{1} << bit_b)) + cost(x | ab);
    brute = std::max(brute, std::abs(v));
  }
  EXPECT_NEAR(doi, brute, 1e-6 * std::max(1.0, brute));
}

/// What-if optimizer with seeded random plans, so IBGs take shapes the
/// cost model never produces: the plan for X uses a hash-chosen subset of
/// X (at most four indices) at a hash-chosen cost from a small value set,
/// so benefits tie and interactions cancel.
class RandomPlanOptimizer : public WhatIfOptimizer {
 public:
  RandomPlanOptimizer(const CostModel* model, uint64_t seed)
      : WhatIfOptimizer(model), seed_(seed) {}

  PlanSummary Optimize(const Statement&, const IndexSet& x) const override {
    uint64_t h = Mix(seed_);
    for (IndexId id : x) h = Mix(h ^ id);
    PlanSummary plan;
    for (IndexId id : x) {
      if (plan.used.size() < 4 && Mix(h ^ (uint64_t{id} << 32)) % 3 == 0) {
        plan.used.Add(id);
      }
    }
    plan.cost = 100.0 + static_cast<double>(Mix(h) % 16) * 12.5;
    return plan;
  }

 private:
  static uint64_t Mix(uint64_t z) {  // splitmix64 finalizer
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t seed_;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// DegreeOfInteraction and MaxBenefit sweep the dense cost table when their
// whole context domain lies in it. Both must return exactly the double of
// the per-context definition, evaluated here on a twin IBG whose dense
// table is never built (every cost is a memoized covering-node descent).
// More than 12 plan-relevant indices push some domains past the dense
// table, covering the truncated enumeration and the memoized fallback.
TEST(InteractionsTest, DenseSweepMatchesPerContextDefinition) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 1");
  constexpr uint64_t kBaseSeed = 0xd01d0000;
  constexpr int kCases = 300;
  int dense_doi = 0, fallback_doi = 0, wide = 0;
  for (int c = 0; c < kCases; ++c) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(c);
    Rng rng(seed);
    RandomPlanOptimizer optimizer(&db.model(), seed);
    std::vector<IndexId> cands(static_cast<size_t>(rng.UniformInt(2, 20)));
    for (size_t i = 0; i < cands.size(); ++i) {
      cands[i] = static_cast<IndexId>(i + 1);
    }
    IndexBenefitGraph ibg(q, optimizer, cands, /*max_nodes=*/3000);
    IndexBenefitGraph ref(q, optimizer, cands, /*max_nodes=*/3000);
    const Mask relevant = ref.relevant_used();
    ASSERT_EQ(ibg.relevant_used(), relevant) << "seed " << seed;
    if (std::popcount(relevant) > IndexBenefitGraph::kMaxEnumerationBits) {
      ++wide;
    }
    const int k = static_cast<int>(ibg.candidates().size());
    for (int a = 0; a < k; ++a) {
      const Mask ma = Mask{1} << a;
      double want_benefit = -std::numeric_limits<double>::infinity();
      if ((relevant & ma) == 0) {
        want_benefit = ref.BenefitOf(a, 0);
      } else {
        const Mask universe = KeepLowestBits(
            relevant & ~ma, IndexBenefitGraph::kMaxEnumerationBits);
        for (SubmaskIterator it(universe); !it.done(); it.Next()) {
          want_benefit = std::max(
              want_benefit, ref.CostOf(it.mask()) - ref.CostOf(it.mask() | ma));
        }
      }
      ASSERT_EQ(Bits(ibg.MaxBenefit(a)), Bits(want_benefit))
          << "MaxBenefit of bit " << a << "; seed " << seed;
      for (int b = a + 1; b < k; ++b) {
        const Mask mb = Mask{1} << b;
        double want = 0.0;
        if ((relevant & ma) != 0 && (relevant & mb) != 0) {
          const Mask universe =
              KeepLowestBits(relevant & ~(ma | mb),
                             IndexBenefitGraph::kMaxEnumerationBits - 2);
          for (SubmaskIterator it(universe); !it.done(); it.Next()) {
            const Mask x = it.mask();
            double v = ref.CostOf(x) - ref.CostOf(x | ma) -
                       ref.CostOf(x | mb) + ref.CostOf(x | ma | mb);
            want = std::max(want, std::abs(v));
          }
          ibg.PrepareEnumeration();
          ++(ibg.InDenseDomain(universe | ma | mb) ? dense_doi : fallback_doi);
        }
        ASSERT_EQ(Bits(DegreeOfInteraction(ibg, a, b)), Bits(want))
            << "doi of bits " << a << "," << b << "; seed " << seed;
        ASSERT_EQ(Bits(DegreeOfInteraction(ibg, b, a)), Bits(want))
            << "doi of bits " << b << "," << a << "; seed " << seed;
      }
    }
  }
  EXPECT_GT(dense_doi, 0);
  EXPECT_GT(fallback_doi, 0) << "no pair reached the memoized fallback";
  EXPECT_GT(wide, 0) << "no IBG had more than 12 plan-relevant indices";
}

TEST(InteractionsDeathTest, SelfInteractionAborts) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 1");
  IndexBenefitGraph ibg(q, db.optimizer(), {db.Ix("t1", {"a"})});
  EXPECT_DEATH({ (void)DegreeOfInteraction(ibg, 0, 0); }, "itself");
}

}  // namespace
}  // namespace wfit
