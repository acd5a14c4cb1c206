#include "ibg/ibg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tests/test_util.h"

namespace wfit {
namespace {

using testing::TestDb;

std::vector<IndexId> Candidates(TestDb& db) {
  return {db.Ix("t1", {"a"}), db.Ix("t1", {"b"}), db.Ix("t1", {"a", "b"}),
          db.Ix("t1", {"c"})};
}

TEST(IbgTest, CostMatchesDirectWhatIfForAllSubsets) {
  // The defining IBG property: CostOf(X) == cost(q, X) for every subset,
  // while only a fraction of the 2^n nodes were what-if optimized.
  TestDb db;
  std::vector<Statement> queries = {
      db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 200 "
              "AND b BETWEEN 0 AND 100"),
      db.Bind("SELECT count(*) FROM t1 WHERE a = 3 AND b = 4"),
      db.Bind("SELECT d FROM t1 WHERE c = 9 ORDER BY a"),
      db.Bind("UPDATE t1 SET a = a + 1 WHERE b BETWEEN 0 AND 5"),
      db.Bind("DELETE FROM t1 WHERE a = 12"),
  };
  for (const Statement& q : queries) {
    std::vector<IndexId> cands = Candidates(db);
    IndexBenefitGraph ibg(q, db.optimizer(), cands);
    const Mask full = static_cast<Mask>((1u << cands.size()) - 1);
    for (Mask m = 0; m <= full; ++m) {
      double direct = db.optimizer().Cost(q, ibg.ToSet(m));
      EXPECT_NEAR(ibg.CostOf(m), direct, 1e-9 * std::max(1.0, direct))
          << q.sql << " mask=" << m;
    }
  }
}

TEST(IbgTest, BuildUsesFewerCallsThanExhaustive) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 3");
  std::vector<IndexId> cands = Candidates(db);
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  EXPECT_LT(ibg.build_calls(), 1u << cands.size());
  EXPECT_GE(ibg.build_calls(), 1u);
  EXPECT_EQ(ibg.build_calls(), ibg.num_nodes());
}

TEST(IbgTest, UsedAtIsSubsetOfQuery) {
  TestDb db;
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 200 AND b = 5");
  std::vector<IndexId> cands = Candidates(db);
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  const Mask full = static_cast<Mask>((1u << cands.size()) - 1);
  for (Mask m = 0; m <= full; ++m) {
    EXPECT_TRUE(IsSubset(ibg.UsedAt(m), m));
  }
}

TEST(IbgTest, EmptyCandidateListWorks) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t3 WHERE v = 1");
  IndexBenefitGraph ibg(q, db.optimizer(), {});
  EXPECT_DOUBLE_EQ(ibg.CostOf(0), db.optimizer().Cost(q, IndexSet{}));
  EXPECT_EQ(ibg.num_nodes(), 1u);
}

TEST(IbgTest, IrrelevantCandidatesDoNotGrowTheGraph) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 3");
  std::vector<IndexId> cands = {db.Ix("t1", {"a"}), db.Ix("t2", {"x"}),
                                db.Ix("t2", {"y"})};
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  // Only the t1 index can appear in plans.
  EXPECT_EQ(ibg.relevant_used(), Mask{1} << ibg.BitOf(db.Ix("t1", {"a"})));
}

TEST(IbgTest, MaxBenefitIsNonNegativeForQueries) {
  TestDb db;
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 300 AND b = 9");
  std::vector<IndexId> cands = Candidates(db);
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  for (size_t bit = 0; bit < cands.size(); ++bit) {
    EXPECT_GE(ibg.MaxBenefit(static_cast<int>(bit)), 0.0);
  }
}

TEST(IbgTest, MaxBenefitNegativeForPureMaintenanceIndex) {
  TestDb db;
  Statement u = db.Bind("UPDATE t1 SET a = a + 1 WHERE k BETWEEN 0 AND 100");
  IndexId ia = db.Ix("t1", {"a"});
  IndexBenefitGraph ibg(u, db.optimizer(), {ia});
  int bit = ibg.BitOf(ia);
  ASSERT_GE(bit, 0);
  EXPECT_LT(ibg.MaxBenefit(bit), 0.0);
}

TEST(IbgTest, MaxBenefitDominatesSampledContexts) {
  TestDb db;
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150 AND b BETWEEN 0 "
      "AND 80");
  std::vector<IndexId> cands = Candidates(db);
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  for (size_t bit = 0; bit < cands.size(); ++bit) {
    double max_benefit = ibg.MaxBenefit(static_cast<int>(bit));
    const Mask full = static_cast<Mask>((1u << cands.size()) - 1);
    for (Mask ctx = 0; ctx <= full; ++ctx) {
      EXPECT_GE(max_benefit + 1e-7,
                ibg.BenefitOf(static_cast<int>(bit), ctx))
          << "bit=" << bit << " ctx=" << ctx;
    }
  }
}

TEST(IbgTest, ToMaskToSetRoundTrip) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 1");
  std::vector<IndexId> cands = Candidates(db);
  IndexBenefitGraph ibg(q, db.optimizer(), cands);
  for (Mask m = 0; m < (1u << cands.size()); ++m) {
    EXPECT_EQ(ibg.ToMask(ibg.ToSet(m)), m);
  }
  // Unknown ids are ignored by ToMask.
  IndexSet with_alien = ibg.ToSet(0b101);
  with_alien.Add(db.Ix("t3", {"v"}));
  EXPECT_EQ(ibg.ToMask(with_alien), 0b101u);
}

TEST(IbgTest, NodeBudgetSweepShedsTheTailHalf) {
  TestDb db;
  // Enough candidates on one table that a multi-predicate query produces a
  // deep node closure (every used index spawns a child per level).
  std::vector<IndexId> cands = {
      db.Ix("t1", {"a"}),      db.Ix("t1", {"b"}),
      db.Ix("t1", {"c"}),      db.Ix("t1", {"a", "b"}),
      db.Ix("t1", {"b", "a"}), db.Ix("t1", {"a", "c"}),
      db.Ix("t1", {"c", "a"}), db.Ix("t1", {"b", "c"})};
  Statement q = db.Bind(
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 200 "
      "AND b BETWEEN 0 AND 100 AND c = 3");
  // Sweep budgets from "sheds almost everything" (the retry-with-half
  // fallback path, possibly several halvings) to "fits exactly".
  bool saw_truncation = false;
  for (size_t budget : {1u, 2u, 3u, 5u, 9u, 17u, 33u, 1024u}) {
    IndexBenefitGraph ibg(q, db.optimizer(), cands, budget);
    EXPECT_LE(ibg.num_nodes(), budget) << "budget=" << budget;
    saw_truncation = saw_truncation || !ibg.truncated_candidates().empty();
    // Shed + kept always partitions the input candidate list, and the
    // kept candidates are its head (callers rank by benefit).
    const std::vector<IndexId>& kept = ibg.candidates();
    ASSERT_LE(kept.size(), cands.size());
    EXPECT_TRUE(std::equal(kept.begin(), kept.end(), cands.begin()))
        << "budget=" << budget;
    std::vector<IndexId> rejoined = kept;
    rejoined.insert(rejoined.end(), ibg.truncated_candidates().begin(),
                    ibg.truncated_candidates().end());
    std::sort(rejoined.begin(), rejoined.end());
    std::vector<IndexId> sorted_cands = cands;
    std::sort(sorted_cands.begin(), sorted_cands.end());
    EXPECT_EQ(rejoined, sorted_cands) << "budget=" << budget;
  }
  EXPECT_TRUE(saw_truncation)
      << "the budget sweep must exercise the retry-with-half path";
}

TEST(IbgDeathTest, TooManyCandidatesAborts) {
  TestDb db;
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 1");
  std::vector<IndexId> too_many(26, db.Ix("t1", {"a"}));
  EXPECT_DEATH({ IndexBenefitGraph ibg(q, db.optimizer(), too_many); },
               "too many candidates");
}

}  // namespace
}  // namespace wfit
