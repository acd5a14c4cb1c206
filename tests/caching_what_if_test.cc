#include "optimizer/caching_what_if.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/wfa_plus.h"
#include "core/wfit.h"
#include "tests/test_util.h"

namespace wfit {
namespace {

using wfit::testing::TestDb;

WfitOptions FastOptions() {
  WfitOptions options;
  options.candidates.idx_cnt = 8;
  options.candidates.state_cnt = 64;
  options.candidates.hist_size = 50;
  options.candidates.creation_penalty_factor = 1e-6;
  return options;
}

/// `n` statements cycling through 10 templates over t1..t3.
Workload BuildWorkload(TestDb& db, size_t n) {
  const char* shapes[] = {
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150",
      "SELECT count(*) FROM t1 WHERE b BETWEEN 100 AND 220",
      "SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk AND t1.a = 5",
      "SELECT count(*) FROM t2 WHERE x BETWEEN 10 AND 40",
      "UPDATE t1 SET d = 1 WHERE a = 77",
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150 AND c = 3",
      "SELECT count(*) FROM t3 WHERE v = 9",
      "UPDATE t2 SET y = 2 WHERE x = 17",
      "SELECT count(*) FROM t2 WHERE x = 17 AND y = 3",
      "SELECT count(*) FROM t1 WHERE c = 42",
  };
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    w.push_back(db.Bind(shapes[i % (sizeof(shapes) / sizeof(shapes[0]))]));
  }
  return w;
}

/// Runs `tuner` over `w` with feedback interleaved after the keyed
/// statements, recording the recommendation after every statement.
std::vector<IndexSet> Trajectory(
    Tuner* tuner, const Workload& w,
    const std::map<size_t, std::pair<IndexSet, IndexSet>>& feedback) {
  std::vector<IndexSet> out;
  out.reserve(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    tuner->AnalyzeQuery(w[i]);
    auto it = feedback.find(i);
    if (it != feedback.end()) {
      tuner->Feedback(it->second.first, it->second.second);
    }
    out.push_back(tuner->Recommendation());
  }
  return out;
}

TEST(CachingWhatIfTest, MissThenHitWithinOneStatement) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&q);

  uint64_t base_before = db.optimizer().num_calls();
  PlanSummary first = memo.Optimize(q, IndexSet{a});
  PlanSummary second = memo.Optimize(q, IndexSet{a});
  EXPECT_EQ(db.optimizer().num_calls(), base_before + 1)
      << "the second probe must be served from the memo";
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.bypasses(), 0u);
  EXPECT_EQ(memo.num_calls(), 2u);
  EXPECT_DOUBLE_EQ(first.cost, second.cost);
  EXPECT_EQ(first.used, second.used);
}

TEST(CachingWhatIfTest, ValuesMatchTheBaseOptimizer) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  IndexId b = db.Ix("t1", {"b"});
  IndexId x = db.Ix("t2", {"x"});
  Statement q = db.Bind(
      "SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk AND t1.a = 5");
  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&q);
  std::vector<IndexSet> configs = {IndexSet{}, IndexSet{a}, IndexSet{a, b},
                                   IndexSet{a, b, x}, IndexSet{x}};
  for (const IndexSet& c : configs) {
    PlanSummary direct = db.optimizer().Optimize(q, c);
    PlanSummary cached_cold = memo.Optimize(q, c);
    PlanSummary cached_warm = memo.Optimize(q, c);
    EXPECT_DOUBLE_EQ(direct.cost, cached_cold.cost) << c.ToString();
    EXPECT_DOUBLE_EQ(direct.cost, cached_warm.cost) << c.ToString();
    EXPECT_EQ(direct.used, cached_warm.used) << c.ToString();
  }
  EXPECT_EQ(memo.hits(), configs.size());
  EXPECT_EQ(memo.misses(), configs.size());
}

TEST(CachingWhatIfTest, NoStaleCostsAcrossStatements) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  // Same table, same index, different predicates: the costs differ, so a
  // stale cache entry would be observable.
  Statement q1 = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  Statement q2 = db.Bind("SELECT count(*) FROM t1 WHERE a = 7");
  double direct1 = db.optimizer().Cost(q1, IndexSet{a});
  double direct2 = db.optimizer().Cost(q2, IndexSet{a});
  ASSERT_NE(direct1, direct2) << "test needs distinguishable statements";

  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&q1);
  EXPECT_DOUBLE_EQ(memo.Optimize(q1, IndexSet{a}).cost, direct1);
  EXPECT_GT(memo.scoped_entries(), 0u);

  memo.BeginStatement(&q2);
  EXPECT_EQ(memo.scoped_entries(), 0u) << "BeginStatement must clear tier 1";
  EXPECT_DOUBLE_EQ(memo.Optimize(q2, IndexSet{a}).cost, direct2)
      << "different predicates mean a different fingerprint: the cross tier "
         "must not serve q1's cost";

  // Back to q1: its second sighting admits it to the cross tier (filled by
  // this statement's probes)...
  memo.BeginStatement(&q1);
  EXPECT_DOUBLE_EQ(memo.Optimize(q1, IndexSet{a}).cost, direct1);
  // ...so the third sighting is served from it, with q1's (correct) cost.
  memo.BeginStatement(&q1);
  uint64_t misses_before = memo.misses();
  uint64_t cross_before = memo.cross_hits();
  EXPECT_DOUBLE_EQ(memo.Optimize(q1, IndexSet{a}).cost, direct1);
  EXPECT_EQ(memo.misses(), misses_before);
  EXPECT_EQ(memo.cross_hits(), cross_before + 1);
}

TEST(CachingWhatIfTest, CrossTierDisabledRestoresPerStatementSemantics) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  Statement q1 = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  CrossStatementCacheOptions off;
  off.max_templates = 0;
  CachingWhatIfOptimizer memo(&db.optimizer(), off);
  memo.BeginStatement(&q1);
  memo.Optimize(q1, IndexSet{a});
  memo.BeginStatement(&q1);  // same statement, re-scoped
  memo.Optimize(q1, IndexSet{a});
  EXPECT_EQ(memo.misses(), 2u) << "disabled tier must not survive re-scope";
  EXPECT_EQ(memo.cross_hits(), 0u);
  EXPECT_EQ(memo.cross_templates(), 0u);
}

TEST(CachingWhatIfTest, CrossTierServesRepeatedTemplates) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  // Two distinct Statement objects with identical structure: the realistic
  // repeated-template case (a re-bound prepared statement).
  Statement q1 = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  Statement q2 = db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 100");
  ASSERT_EQ(q1.Fingerprint(), q2.Fingerprint());
  ASSERT_TRUE(SameCostShape(q1, q2));

  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&q1);
  double cost1 = memo.Optimize(q1, IndexSet{a}).cost;
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.cross_templates(), 0u)
      << "second-touch admission: one sighting earns no entry";

  memo.BeginStatement(&q2);  // second sighting: admitted + filled
  memo.Optimize(q2, IndexSet{a});
  EXPECT_EQ(memo.cross_templates(), 1u);

  memo.BeginStatement(&q1);  // third sighting: served
  uint64_t base_before = db.optimizer().num_calls();
  double cost3 = memo.Optimize(q1, IndexSet{a}).cost;
  EXPECT_EQ(db.optimizer().num_calls(), base_before)
      << "the repeat must not reach the real optimizer";
  EXPECT_EQ(memo.cross_hits(), 1u);
  EXPECT_DOUBLE_EQ(cost1, cost3);
  // Within the same statement, the promoted entry is a statement-tier hit.
  memo.Optimize(q1, IndexSet{a});
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.cross_templates(), 1u) << "one template, seen three times";
}

TEST(CachingWhatIfTest, CrossTierLruEvictsLeastRecentTemplate) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  // Four structurally distinct templates (bound literals are not part of
  // the structure, but columns and selectivities are).
  std::vector<Statement> stmts = {
      db.Bind("SELECT count(*) FROM t1 WHERE a = 1"),
      db.Bind("SELECT count(*) FROM t1 WHERE b = 2"),
      db.Bind("SELECT count(*) FROM t1 WHERE c = 3"),
      db.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 50"),
  };
  ASSERT_NE(stmts[0].Fingerprint(), stmts[3].Fingerprint());
  CrossStatementCacheOptions opts;
  opts.max_templates = 2;
  CachingWhatIfOptimizer memo(&db.optimizer(), opts);
  // Two passes: the first leaves second-touch footprints, the second
  // admits every template in order — overflowing the 2-entry LRU.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Statement& q : stmts) {
      memo.BeginStatement(&q);
      memo.Optimize(q, IndexSet{a});
    }
  }
  EXPECT_EQ(memo.cross_templates(), 2u) << "LRU bound must hold";
  // stmts[3] and stmts[2] are resident; stmts[0] was evicted first.
  memo.BeginStatement(&stmts[3]);
  memo.Optimize(stmts[3], IndexSet{a});
  EXPECT_EQ(memo.cross_hits(), 1u);
  memo.BeginStatement(&stmts[0]);
  uint64_t misses_before = memo.misses();
  memo.Optimize(stmts[0], IndexSet{a});
  EXPECT_EQ(memo.misses(), misses_before + 1) << "evicted template is cold";
}

TEST(CachingWhatIfTest, PerTemplateConfigBoundStopsInsertsNotServing) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  IndexId b = db.Ix("t1", {"b"});
  IndexId c = db.Ix("t1", {"c"});
  Statement q = db.Bind("SELECT count(*) FROM t1 WHERE a = 3 AND b = 4");
  CrossStatementCacheOptions opts;
  opts.max_configs_per_template = 2;
  CachingWhatIfOptimizer memo(&db.optimizer(), opts);
  memo.BeginStatement(&q);  // first sighting: footprint only
  memo.BeginStatement(&q);  // admitted; probes below fill the entry
  memo.Optimize(q, IndexSet{a});
  memo.Optimize(q, IndexSet{b});
  memo.Optimize(q, IndexSet{c});  // over the per-template bound
  memo.BeginStatement(&q);        // re-scope: tier 1 cold, cross tier warm
  uint64_t base_before = db.optimizer().num_calls();
  memo.Optimize(q, IndexSet{a});
  memo.Optimize(q, IndexSet{b});
  EXPECT_EQ(db.optimizer().num_calls(), base_before)
      << "bounded template still serves its resident configurations";
  EXPECT_EQ(memo.cross_hits(), 2u);
  memo.Optimize(q, IndexSet{c});
  EXPECT_EQ(db.optimizer().num_calls(), base_before + 1)
      << "the configuration past the bound was not retained";
}

TEST(CachingWhatIfTest, ProbesOutsideTheScopedStatementBypass) {
  TestDb db;
  IndexId a = db.Ix("t1", {"a"});
  Statement scoped = db.Bind("SELECT count(*) FROM t1 WHERE a = 1");
  Statement other = db.Bind("SELECT count(*) FROM t1 WHERE a = 2");
  CachingWhatIfOptimizer memo(&db.optimizer());
  memo.BeginStatement(&scoped);

  double direct = db.optimizer().Cost(other, IndexSet{a});
  EXPECT_DOUBLE_EQ(memo.Optimize(other, IndexSet{a}).cost, direct);
  EXPECT_DOUBLE_EQ(memo.Optimize(other, IndexSet{a}).cost, direct);
  EXPECT_EQ(memo.bypasses(), 2u) << "non-scoped probes never cache";
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 0u);
}

TEST(CachingWhatIfTest, CostModelPassesThroughToTheBase) {
  TestDb db;
  CachingWhatIfOptimizer memo(&db.optimizer());
  EXPECT_EQ(&memo.cost_model(), &db.optimizer().cost_model());
}

TEST(CachingWhatIfTest, WfitTrajectoryIdenticalColdWarmOrDisabledCache) {
  // The cross-statement what-if cache is purely a probe-avoidance layer:
  // with it disabled, cold, or pre-warmed by a whole prior workload, the
  // recommendation trajectory must be bit-for-bit identical (costs are a
  // pure function of statement and configuration).
  TestDb db;
  Workload w = BuildWorkload(db, 200);
  std::map<size_t, std::pair<IndexSet, IndexSet>> feedback = {
      {60, {IndexSet{db.Ix("t1", {"b"})}, IndexSet{}}},
      {140, {IndexSet{}, IndexSet{db.Ix("t1", {"a"})}}},
  };

  WfitOptions disabled_options = FastOptions();
  disabled_options.cross_cache.max_templates = 0;
  Wfit disabled(&db.pool(), &db.optimizer(), IndexSet{}, disabled_options);
  std::vector<IndexSet> reference = Trajectory(&disabled, w, feedback);
  EXPECT_EQ(disabled.WhatIfCache().cross_hits, 0u);

  Wfit cold(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  std::vector<IndexSet> got_cold = Trajectory(&cold, w, feedback);
  EXPECT_GT(cold.WhatIfCache().cross_hits, 0u);
  ASSERT_EQ(got_cold.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(got_cold[i], reference[i])
        << "cold-cache divergence at statement " << i;
  }

  // The workload cycles 10 templates, so the "cold" run above is served by
  // a warm tier from the second cycle onward — the comparison against the
  // disabled run covers cold, warming, and warm statements alike. Assert
  // the tier really carried the repeats.
  EXPECT_GT(cold.WhatIfCache().cross_hit_rate(), 0.2)
      << "repeated templates must be served by the cross tier";
}

TEST(CachingWhatIfTest, MemoHitsAcrossPartsOfOneStatement) {
  TestDb db;
  // Two parts over the same table guarantee overlapping probe keys within
  // one statement (at minimum the per-part IBG leaves), so the memo must
  // register hits while the trajectory stays correct.
  std::vector<IndexSet> partition = {
      IndexSet{db.Ix("t1", {"a"})},
      IndexSet{db.Ix("t1", {"b"})},
      IndexSet{db.Ix("t1", {"c"})},
  };
  Workload w = BuildWorkload(db, 30);
  WfaPlus tuner(&db.pool(), &db.optimizer(), partition, IndexSet{});
  for (const Statement& q : w) tuner.AnalyzeQuery(q);
  WhatIfCacheCounters cache = tuner.WhatIfCache();
  EXPECT_GT(cache.misses, 0u);
  EXPECT_GT(cache.hits, 0u)
      << "per-part IBGs of one statement share configuration probes";
  EXPECT_GT(cache.hit_rate(), 0.0);
}

}  // namespace
}  // namespace wfit
