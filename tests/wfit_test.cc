#include "core/wfit.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/wfa_plus.h"
#include "tests/test_util.h"

namespace wfit {
namespace {

using testing::TestDb;

WfitOptions FastOptions() {
  WfitOptions options;
  options.candidates.idx_cnt = 8;
  options.candidates.state_cnt = 64;
  options.candidates.hist_size = 50;
  options.candidates.creation_penalty_factor = 1e-6;
  return options;
}

TEST(WfitTest, StartsEmptyAndLearnsCandidates) {
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  EXPECT_TRUE(tuner.Recommendation().empty());
  EXPECT_TRUE(tuner.candidate_set().empty());
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 120");
  tuner.AnalyzeQuery(q);
  EXPECT_FALSE(tuner.candidate_set().empty());
}

TEST(WfitTest, InitialMaterializedSetSeedsSingletonParts) {
  TestDb db;
  IndexId ia = db.Ix("t1", {"a"});
  IndexId ib = db.Ix("t1", {"b"});
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{ia, ib}, FastOptions());
  EXPECT_EQ(tuner.partition().size(), 2u);
  EXPECT_EQ(tuner.Recommendation(), (IndexSet{ia, ib}));
}

TEST(WfitTest, RecommendsIndexForRepeatedBeneficialQuery) {
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150");
  IndexId ia = db.Ix("t1", {"a"});
  for (int i = 0; i < 60 && !tuner.Recommendation().Contains(ia); ++i) {
    tuner.AnalyzeQuery(q);
  }
  EXPECT_TRUE(tuner.Recommendation().Contains(ia));
}

TEST(WfitTest, AdaptsToWorkloadShift) {
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  Statement phase1 = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 90");
  Statement phase2 = db.Bind("UPDATE t1 SET a = a + 1 WHERE k BETWEEN 0 AND 9000");
  IndexId ia = db.Ix("t1", {"a"});
  for (int i = 0; i < 60 && !tuner.Recommendation().Contains(ia); ++i) {
    tuner.AnalyzeQuery(phase1);
  }
  ASSERT_TRUE(tuner.Recommendation().Contains(ia));
  // Update-heavy phase: the index must eventually be recommended out.
  for (int i = 0; i < 200 && tuner.Recommendation().Contains(ia); ++i) {
    tuner.AnalyzeQuery(phase2);
  }
  EXPECT_FALSE(tuner.Recommendation().Contains(ia));
}

/// One random small instance of the feedback-consistency property, built
/// from `seed` alone on a fresh database (index ids depend on interning
/// order, so nothing may be shared between instances): a random initial
/// materialized set, then rounds of a few random statements followed by a
/// random vote (F+, F-) over a seven-index universe. After every vote the
/// recommendation must contain F+ and exclude F-. Returns "" when the
/// property held, else what broke.
std::string FeedbackInstance(uint64_t seed) {
  TestDb db;
  Rng rng(seed);
  const std::vector<IndexId> universe = {
      db.Ix("t1", {"a"}),      db.Ix("t1", {"b"}), db.Ix("t1", {"c"}),
      db.Ix("t1", {"a", "b"}), db.Ix("t2", {"x"}), db.Ix("t2", {"y"}),
      db.Ix("t3", {"v"}),
  };
  auto bound = [&](int64_t hi) {
    return std::to_string(rng.UniformInt(0, hi));
  };
  // The operands of `+` are unsequenced, so no expression below draws
  // twice: a second draw goes through a local first.
  auto statement = [&]() -> std::string {
    switch (rng.UniformInt(0, 6)) {
      case 0:
        return "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND " + bound(400);
      case 1:
        return "SELECT count(*) FROM t1 WHERE b BETWEEN 0 AND " + bound(200);
      case 2: {
        const std::string a = bound(9999);
        return "SELECT d FROM t1 WHERE a = " + a + " AND b BETWEEN 0 AND " +
               bound(200);
      }
      case 3:
        return "SELECT count(*) FROM t1 WHERE c = " + bound(99);
      case 4:
        return "UPDATE t1 SET a = a + 1 WHERE k BETWEEN 0 AND " + bound(9000);
      case 5: {
        const std::string x = bound(999);
        return "SELECT count(*) FROM t2 WHERE x = " + x +
               " AND y BETWEEN 0 AND " + bound(49);
      }
      default:
        return "SELECT count(*) FROM t3 WHERE v = " + bound(99);
    }
  };

  IndexSet initial;
  for (IndexId a : universe) {
    if (rng.Bernoulli(0.15)) initial.Add(a);
  }
  Wfit tuner(&db.pool(), &db.optimizer(), initial, FastOptions());
  const int64_t rounds = rng.UniformInt(1, 3);
  for (int64_t round = 0; round < rounds; ++round) {
    const int64_t statements = rng.UniformInt(0, 4);
    for (int64_t i = 0; i < statements; ++i) {
      tuner.AnalyzeQuery(db.Bind(statement()));
    }
    IndexSet f_plus;
    IndexSet f_minus;
    for (IndexId a : universe) {
      const int64_t draw = rng.UniformInt(0, 4);
      if (draw == 0) f_plus.Add(a);
      if (draw == 1) f_minus.Add(a);
    }
    tuner.Feedback(f_plus, f_minus);
    const IndexSet rec = tuner.Recommendation();
    for (IndexId a : f_plus) {
      if (!rec.Contains(a)) {
        return "round " + std::to_string(round) + ": voted-in index " +
               std::to_string(a) + " missing from the recommendation";
      }
    }
    for (IndexId a : f_minus) {
      if (rec.Contains(a)) {
        return "round " + std::to_string(round) + ": voted-out index " +
               std::to_string(a) + " still recommended";
      }
    }
  }
  return "";
}

TEST(WfitTest, FeedbackConsistencyHolds) {
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  tuner.AnalyzeQuery(q);
  IndexId ia = db.Ix("t1", {"a"});
  IndexId ib = db.Ix("t1", {"b"});
  tuner.Feedback(IndexSet{ia, ib}, IndexSet{});
  IndexSet rec = tuner.Recommendation();
  EXPECT_TRUE(rec.Contains(ia));
  EXPECT_TRUE(rec.Contains(ib));
  tuner.Feedback(IndexSet{}, IndexSet{ib});
  rec = tuner.Recommendation();
  EXPECT_TRUE(rec.Contains(ia));
  EXPECT_FALSE(rec.Contains(ib));

  // Seeded sweep: FeedbackInstance(seed) replays any one case alone.
  constexpr uint64_t kBaseSeed = 0xfeedbac0000ull;
  constexpr uint64_t kInstances = 1000;
  for (uint64_t i = 0; i < kInstances; ++i) {
    const uint64_t seed = kBaseSeed + i;
    const std::string broken = FeedbackInstance(seed);
    ASSERT_EQ(broken, "") << "replay with FeedbackInstance(" << seed << ")";
  }
}

TEST(WfitTest, PositiveVoteOnUnknownIndexOpensSingletonPart) {
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  IndexId alien = db.Ix("t3", {"v"});
  EXPECT_FALSE(tuner.candidate_set().Contains(alien));
  tuner.Feedback(IndexSet{alien}, IndexSet{});
  EXPECT_TRUE(tuner.candidate_set().Contains(alien));
  EXPECT_TRUE(tuner.Recommendation().Contains(alien));
}

TEST(WfitTest, RecoversFromBadFeedback) {
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  // Vote in an index that the workload then punishes via maintenance.
  IndexId ia = db.Ix("t1", {"a"});
  tuner.Feedback(IndexSet{ia}, IndexSet{});
  ASSERT_TRUE(tuner.Recommendation().Contains(ia));
  Statement hostile =
      db.Bind("UPDATE t1 SET a = a + 1 WHERE k BETWEEN 0 AND 9000");
  int n = 0;
  for (; n < 300 && tuner.Recommendation().Contains(ia); ++n) {
    tuner.AnalyzeQuery(hostile);
  }
  EXPECT_LT(n, 300) << "never recovered from bad feedback";
}

TEST(WfitTest, RepartitionHappensAndCountsAreTracked) {
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  std::vector<std::string> queries = {
      "SELECT d FROM t1 WHERE a BETWEEN 0 AND 150 AND b BETWEEN 0 AND 70",
      "SELECT count(*) FROM t2 WHERE x = 3",
      "SELECT count(*) FROM t1 WHERE c = 9",
  };
  for (int round = 0; round < 5; ++round) {
    for (const std::string& sql : queries) {
      Statement q = db.Bind(sql);
      tuner.AnalyzeQuery(q);
    }
  }
  EXPECT_GT(tuner.RepartitionCount(), 0u);
  EXPECT_LE(tuner.TotalStates(), FastOptions().candidates.state_cnt);
}

TEST(WfitTest, AutoTunerTracksFixedTunerOnStablePartitionWorkload) {
  // When the workload's interaction structure fits comfortably within the
  // budgets, the AUTO tuner should converge to materializing the same key
  // index as a fixed-partition WFA+ given that index up front.
  TestDb db;
  IndexId ia = db.Ix("t1", {"a"});
  WfaPlus fixed(&db.pool(), &db.optimizer(), {IndexSet{ia}}, IndexSet{});
  Wfit auto_tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 200");
  bool fixed_adopted = false, auto_adopted = false;
  for (int i = 0; i < 80; ++i) {
    fixed.AnalyzeQuery(q);
    auto_tuner.AnalyzeQuery(q);
    fixed_adopted = fixed.Recommendation().Contains(ia);
    auto_adopted = auto_tuner.Recommendation().Contains(ia);
    if (fixed_adopted && auto_adopted) break;
  }
  EXPECT_TRUE(fixed_adopted);
  EXPECT_TRUE(auto_adopted);
}

TEST(WfitTest, StateBudgetHoldsThroughoutRandomWorkload) {
  TestDb db;
  WfitOptions options = FastOptions();
  options.candidates.state_cnt = 32;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, options);
  Rng rng(5);
  std::vector<std::string> pool = {
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 200",
      "SELECT d FROM t1 WHERE b BETWEEN 0 AND 90 AND a = 4",
      "SELECT count(*) FROM t2 WHERE x = 2",
      "UPDATE t1 SET a = a + 1 WHERE k BETWEEN 0 AND 500",
      "SELECT count(*) FROM t2 WHERE fk BETWEEN 0 AND 5000",
      "SELECT count(*) FROM t3 WHERE v = 1",
  };
  for (int i = 0; i < 60; ++i) {
    Statement q =
        db.Bind(pool[static_cast<size_t>(rng.UniformInt(0, 5))]);
    tuner.AnalyzeQuery(q);
    EXPECT_LE(tuner.TotalStates(), options.candidates.state_cnt + 2u)
        << "statement " << i;
  }
}

}  // namespace
}  // namespace wfit
