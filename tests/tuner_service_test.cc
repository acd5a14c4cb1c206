// The single-service contract: a TunerService drained by a one-tenant
// TenantRouter (concurrent producers) or inline by the test thread
// reproduces the serial tuner's trajectory, publishes monotone snapshots,
// bounds its queue and counts what it did.
#include "service/tuner_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/wfit.h"
#include "service/metrics.h"
#include "service/tenant_router.h"
#include "tests/test_util.h"

namespace wfit::service {
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

/// A deterministic mixed workload over the shared test catalog: selects of
/// varying selectivity, a join, and update statements, repeated to the
/// requested length so WFIT changes its mind several times along the way.
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
  };
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    w.push_back(db.Bind(shapes[i % (sizeof(shapes) / sizeof(shapes[0]))]));
  }
  return w;
}

/// Serial reference: the recommendation after each statement, with optional
/// feedback applied right after its keyed statement — exactly the service's
/// determinism contract.
std::vector<IndexSet> SerialHistory(
    TestDb& db, const Workload& w,
    const std::vector<std::pair<uint64_t, std::pair<IndexSet, IndexSet>>>&
        feedback = {}) {
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  std::vector<IndexSet> history;
  for (size_t i = 0; i < w.size(); ++i) {
    tuner.AnalyzeQuery(w[i]);
    for (const auto& [after, votes] : feedback) {
      if (after == i) tuner.Feedback(votes.first, votes.second);
    }
    history.push_back(tuner.Recommendation());
  }
  return history;
}

constexpr char kTenant[] = "db";

/// A one-tenant router over `db`: the standalone deployment of a service,
/// drained by `drain_threads` scheduler threads (0 = stepped via
/// DrainOne).
std::unique_ptr<TenantRouter> OneTenantRouter(TestDb& db,
                                              TunerServiceOptions shard,
                                              size_t drain_threads = 1) {
  TenantRouterOptions options;
  options.shard = shard;
  options.drain_threads = drain_threads;
  auto router = std::make_unique<TenantRouter>(
      [&db](const std::string&) {
        TenantTuner made;
        made.tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                            IndexSet{}, FastOptions());
        made.pool = &db.pool();
        return made;
      },
      options);
  router->Start();
  return router;
}

/// Replays `w` through a one-tenant router from `threads` producers, each
/// submitting its strided share with explicit sequence numbers.
std::vector<IndexSet> ConcurrentHistory(TestDb& db, const Workload& w,
                                        int threads, size_t queue_capacity) {
  TunerServiceOptions options;
  options.queue_capacity = queue_capacity;
  options.max_batch = 5;
  options.record_history = true;
  std::unique_ptr<TenantRouter> router = OneTenantRouter(db, options);
  std::vector<std::thread> producers;
  for (int p = 0; p < threads; ++p) {
    producers.emplace_back([&router, &w, p, threads] {
      for (size_t seq = p; seq < w.size(); seq += threads) {
        ASSERT_TRUE(router->SubmitAt(kTenant, seq, w[seq]));
      }
    });
  }
  for (auto& t : producers) t.join();
  router->Shutdown();
  return router->History(kTenant);
}

TEST(TunerServiceTest, ConcurrentIngestionMatchesSerialReplay) {
  TestDb db;
  Workload w = BuildWorkload(db, 96);
  std::vector<IndexSet> serial = SerialHistory(db, w);
  for (int threads : {1, 4}) {
    std::vector<IndexSet> concurrent =
        ConcurrentHistory(db, w, threads, /*queue_capacity=*/16);
    ASSERT_EQ(concurrent.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(concurrent[i], serial[i])
          << "divergence at statement " << i << " with " << threads
          << " producers";
    }
  }
}

TEST(TunerServiceTest, DeterministicFeedbackInterleaving) {
  TestDb db;
  Workload w = BuildWorkload(db, 64);
  IndexId ia = db.Ix("t1", {"a"});
  IndexId ib = db.Ix("t1", {"b"});
  std::vector<std::pair<uint64_t, std::pair<IndexSet, IndexSet>>> feedback = {
      {10, {IndexSet{ib}, IndexSet{}}},   // vote b in after statement 10
      {30, {IndexSet{}, IndexSet{ia}}},   // veto a after statement 30
  };
  std::vector<IndexSet> serial = SerialHistory(db, w, feedback);

  TunerServiceOptions options;
  options.queue_capacity = 8;
  options.record_history = true;
  std::unique_ptr<TenantRouter> router = OneTenantRouter(db, options);
  // Votes registered before any statement is analyzed: interleaving is
  // fully determined by the sequence keys, not by registration time.
  router->FeedbackAfter(kTenant, 10, IndexSet{ib}, IndexSet{});
  router->FeedbackAfter(kTenant, 30, IndexSet{}, IndexSet{ia});
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&router, &w, p] {
      for (size_t seq = p; seq < w.size(); seq += 3) {
        ASSERT_TRUE(router->SubmitAt(kTenant, seq, w[seq]));
      }
    });
  }
  for (auto& t : producers) t.join();
  router->Shutdown();
  std::vector<IndexSet> concurrent = router->History(kTenant);
  ASSERT_EQ(concurrent.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(concurrent[i], serial[i]) << "divergence at statement " << i;
  }
  EXPECT_EQ(router->Metrics().aggregate.feedback_applied, 2u);
}

TEST(TunerServiceTest, SnapshotReadsAreVersionedAndMonotone) {
  TestDb db;
  Workload w = BuildWorkload(db, 48);
  TunerServiceOptions options;
  options.record_history = false;
  TunerService service(
      std::make_unique<Wfit>(&db.pool(), &db.optimizer(), IndexSet{},
                             FastOptions()),
      options);
  service.Start();
  auto initial = service.Recommendation();
  ASSERT_NE(initial, nullptr);
  EXPECT_EQ(initial->analyzed, 0u);
  EXPECT_TRUE(initial->configuration.empty());
  for (const Statement& q : w) ASSERT_TRUE(service.Submit(q));

  std::atomic<bool> done{false};
  std::atomic<bool> ok{true};
  std::thread reader([&] {
    uint64_t last_version = 0;
    uint64_t last_analyzed = 0;
    while (!done.load()) {
      auto snap = service.Recommendation();
      if (snap->version < last_version || snap->analyzed < last_analyzed) {
        ok.store(false);
        return;
      }
      last_version = snap->version;
      last_analyzed = snap->analyzed;
    }
  });
  // The test thread drains while the reader polls snapshots.
  while (service.ProcessBatch() > 0) {
  }
  ASSERT_TRUE(service.WaitUntilAnalyzed(w.size()));
  done.store(true);
  reader.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(service.Recommendation()->analyzed, w.size());
  service.Shutdown();
}

TEST(TunerServiceTest, BackpressureBoundsQueueAndRejectsTrySubmit) {
  TestDb db;
  Workload w = BuildWorkload(db, 40);
  TunerServiceOptions options;
  options.queue_capacity = 8;
  // Stepped router: nothing drains until the test calls DrainOne, so
  // TrySubmit must hit the bound.
  std::unique_ptr<TenantRouter> router =
      OneTenantRouter(db, options, /*drain_threads=*/0);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const Statement& q : w) {
    if (router->TrySubmit(kTenant, q)) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(rejected, w.size() - 8u);
  MetricsSnapshot before = router->Metrics().tenants.at(0).service;
  EXPECT_EQ(before.queue_depth, 8u);
  EXPECT_EQ(before.queue_high_water, 8u);
  EXPECT_EQ(before.submit_rejected, rejected);

  // Blocking submissions now make progress while the test steps the
  // scheduler, and stay within the bound.
  std::thread producer([&] {
    for (const Statement& q : w) ASSERT_TRUE(router->Submit(kTenant, q));
  });
  while (router->analyzed(kTenant) < accepted + w.size()) {
    if (router->DrainOne().empty()) std::this_thread::yield();
  }
  producer.join();
  router->Shutdown();
  MetricsSnapshot after = router->Metrics().tenants.at(0).service;
  EXPECT_EQ(after.statements_analyzed, accepted + w.size());
  EXPECT_LE(after.queue_high_water, 8u);
  EXPECT_EQ(after.queue_depth, 0u);
}

TEST(TunerServiceTest, MetricsCountersAndTextExport) {
  TestDb db;
  // Interned before analysis starts: the pool is not synchronized, so
  // voting threads must not intern concurrently with analysis.
  IndexId voted = db.Ix("t1", {"a"});
  Workload w = BuildWorkload(db, 32);
  TunerServiceOptions options;
  options.max_batch = 4;
  TunerService service(
      std::make_unique<Wfit>(&db.pool(), &db.optimizer(), IndexSet{},
                             FastOptions()),
      options);
  service.Start();
  for (const Statement& q : w) ASSERT_TRUE(service.Submit(q));
  service.Feedback(IndexSet{voted}, IndexSet{});
  service.Shutdown();

  MetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.statements_submitted, w.size());
  EXPECT_EQ(m.statements_analyzed, w.size());
  EXPECT_GE(m.batches, w.size() / 4);
  EXPECT_LE(m.max_batch, 4u);
  EXPECT_EQ(m.latency_count(), w.size());
  EXPECT_GT(m.latency_total_us, 0.0);
  EXPECT_EQ(m.feedback_applied, 1u);
  EXPECT_EQ(m.repartitions, service.tuner().RepartitionCount());
  EXPECT_GE(m.snapshot_version, w.size());

  std::string text = ExportText(m);
  EXPECT_NE(text.find("wfit_service_statements_analyzed_total 32"),
            std::string::npos);
  EXPECT_NE(text.find("wfit_service_analysis_latency_us_count 32"),
            std::string::npos);
  EXPECT_NE(text.find("wfit_service_feedback_applied_total 1"),
            std::string::npos);
}

TEST(TunerServiceTest, WaitUntilAnalyzedReturnsFalseAfterShutdown) {
  TestDb db;
  Workload w = BuildWorkload(db, 4);
  TunerService service(std::make_unique<Wfit>(
      &db.pool(), &db.optimizer(), IndexSet{}, FastOptions()));
  service.Start();
  for (const Statement& q : w) ASSERT_TRUE(service.Submit(q));
  service.Shutdown();
  // The stream ended at 4 statements: a waiter asking for more must not
  // hang, it must observe the stop.
  EXPECT_FALSE(service.WaitUntilAnalyzed(w.size() + 1));
  EXPECT_TRUE(service.WaitUntilAnalyzed(w.size()));
  EXPECT_FALSE(service.Submit(w[0]));  // intake is closed
}

TEST(TunerServiceTest, LateFeedbackAppliesBeforeShutdownCompletes) {
  TestDb db;
  Workload w = BuildWorkload(db, 48);
  TunerService service(std::make_unique<Wfit>(
      &db.pool(), &db.optimizer(), IndexSet{}, FastOptions()));
  service.Start();
  for (const Statement& q : w) ASSERT_TRUE(service.Submit(q));
  while (service.ProcessBatch() > 0) {
  }
  ASSERT_TRUE(service.WaitUntilAnalyzed(w.size()));
  IndexSet rec = service.Recommendation()->configuration;
  ASSERT_FALSE(rec.empty()) << "workload should have earned an index";
  IndexId vetoed = *rec.begin();
  service.Feedback(IndexSet{}, IndexSet{vetoed});  // DBA veto after the fact
  service.Shutdown();
  EXPECT_FALSE(service.Recommendation()->configuration.Contains(vetoed));
  EXPECT_EQ(service.Metrics().feedback_applied, 1u);
}

}  // namespace
}  // namespace wfit::service
