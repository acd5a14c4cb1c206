// The multi-tenant headline invariant: every tenant's recommendation
// trajectory through the router — under interleaved concurrent traffic,
// after idle eviction + re-admission, and after crash recovery from a
// multi-tenant checkpoint tree — is bit-for-bit identical to running that
// tenant alone on a dedicated TunerService. Plus the scheduler's
// starvation-freedom (deterministic round-robin proof via DrainOne) and
// the labelled metrics rollup.
#include "service/tenant_router.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/wfit.h"
#include "persist/tenant_tree.h"
#include "tests/test_util.h"

namespace wfit::service {
namespace {

namespace fs = std::filesystem;
using wfit::testing::TestDb;

WfitOptions FastOptions() {
  WfitOptions options;
  options.candidates.idx_cnt = 8;
  options.candidates.state_cnt = 64;
  options.candidates.hist_size = 50;
  options.candidates.creation_penalty_factor = 1e-6;
  return options;
}

/// Deterministic per-tenant workload: the shared shape set rotated by
/// `offset`, so tenants see different statement streams over their own
/// catalogs.
Workload BuildWorkload(TestDb& db, size_t n, size_t offset) {
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
  constexpr size_t kShapes = sizeof(shapes) / sizeof(shapes[0]);
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    w.push_back(db.Bind(shapes[(i + offset) % kShapes]));
  }
  return w;
}

struct Vote {
  uint64_t after;
  IndexSet plus;
  IndexSet minus;
};

/// Vote targets interned in a fixed order so ids agree across "processes"
/// (fresh TestDb instances for the same tenant).
std::vector<IndexId> SeedIds(TestDb& db) {
  return {db.Ix("t1", {"a"}), db.Ix("t2", {"x"}), db.Ix("t1", {"b"})};
}

std::vector<Vote> MakeVotes(const std::vector<IndexId>& ids, size_t tenant) {
  // Different boundaries per tenant, so the interleave across tenants is
  // non-trivial; the last vote lands past the crash/eviction points below,
  // exercising carried / re-pinned votes.
  uint64_t base = 7 + 5 * tenant;
  return {
      {base, IndexSet{ids[tenant % 3]}, IndexSet{}},
      {base + 23, IndexSet{}, IndexSet{ids[(tenant + 1) % 3]}},
      {base + 51, IndexSet{ids[(tenant + 2) % 3]}, IndexSet{ids[tenant % 3]}},
  };
}

/// The dedicated single-tenant reference: a serial tuner fed the same
/// workload with votes applied right after their keyed statements.
std::vector<IndexSet> DedicatedHistory(size_t tenant, size_t n) {
  TestDb db;
  std::vector<IndexId> ids = SeedIds(db);
  Workload w = BuildWorkload(db, n, tenant);
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  std::vector<Vote> votes = MakeVotes(ids, tenant);
  std::vector<IndexSet> history;
  for (size_t i = 0; i < n; ++i) {
    tuner.AnalyzeQuery(w[i]);
    for (const Vote& v : votes) {
      if (v.after == i) tuner.Feedback(v.plus, v.minus);
    }
    history.push_back(tuner.Recommendation());
  }
  return history;
}

std::string TenantName(size_t tenant) {
  return "db-" + std::to_string(tenant);
}

/// A routed environment of `n` tenants, each with its own TestDb. The
/// factory hands out Wfit instances over the tenant's private pool, so the
/// router's shards are fully independent — exactly one database per
/// tenant.
struct MultiDb {
  explicit MultiDb(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      dbs.push_back(std::make_unique<TestDb>());
      SeedIds(*dbs.back());  // fixed interning prefix per tenant
    }
  }

  TunerFactory Factory() {
    return [this](const std::string& id) {
      TestDb& db = *dbs[Index(id)];
      TenantTuner made;
      made.tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                          IndexSet{}, FastOptions());
      made.pool = &db.pool();
      return made;
    };
  }

  static size_t Index(const std::string& id) {
    return static_cast<size_t>(std::stoul(id.substr(3)));
  }

  std::vector<std::unique_ptr<TestDb>> dbs;
};

std::string TempRoot(const std::string& tag) {
  std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_router_" + tag + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  return dir;
}

TEST(TenantRouterTest, InterleavedTrafficMatchesDedicatedRuns) {
  constexpr size_t kTenants = 3;
  constexpr size_t kStatements = 60;
  MultiDb env(kTenants);
  std::vector<Workload> workloads;
  for (size_t t = 0; t < kTenants; ++t) {
    workloads.push_back(BuildWorkload(*env.dbs[t], kStatements, t));
  }

  TenantRouterOptions options;
  options.shard.queue_capacity = 16;
  options.shard.max_batch = 5;
  options.shard.record_history = true;
  options.drain_threads = 2;
  TenantRouter router(env.Factory(), options);
  router.Start();

  // Votes registered before any traffic: the interleave is pinned by
  // sequence keys, not registration time.
  for (size_t t = 0; t < kTenants; ++t) {
    for (const Vote& v : MakeVotes(SeedIds(*env.dbs[t]), t)) {
      router.FeedbackAfter(TenantName(t), v.after, v.plus, v.minus);
    }
  }

  // 2 producers per tenant, each submitting a strided share of every
  // tenant's workload — fully interleaved multi-producer traffic.
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (size_t seq = static_cast<size_t>(p); seq < kStatements;
           seq += 2) {
        for (size_t t = 0; t < kTenants; ++t) {
          ASSERT_TRUE(
              router.SubmitAt(TenantName(t), seq, workloads[t][seq]));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  for (size_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(router.WaitUntilAnalyzed(TenantName(t), kStatements));
  }
  router.Shutdown();

  for (size_t t = 0; t < kTenants; ++t) {
    std::vector<IndexSet> dedicated = DedicatedHistory(t, kStatements);
    std::vector<IndexSet> routed = router.History(TenantName(t));
    ASSERT_EQ(routed.size(), dedicated.size()) << "tenant " << t;
    for (size_t i = 0; i < dedicated.size(); ++i) {
      ASSERT_EQ(routed[i], dedicated[i])
          << "tenant " << t << " diverged at statement " << i;
    }
  }
}

TEST(TenantRouterTest, RoundRobinDrainingIsStarvationFree) {
  MultiDb env(3);
  const std::string hot = TenantName(0);
  const std::string b = TenantName(1);
  const std::string c = TenantName(2);
  Workload hot_w = BuildWorkload(*env.dbs[0], 60, 0);
  Workload b_w = BuildWorkload(*env.dbs[1], 10, 1);
  Workload c_w = BuildWorkload(*env.dbs[2], 10, 2);

  TenantRouterOptions options;
  options.shard.queue_capacity = 64;
  options.shard.max_batch = 4;
  options.drain_threads = 0;  // deterministic manual stepping
  TenantRouter router(env.Factory(), options);
  router.Start();

  // The hot tenant floods first; b and c trickle in afterwards.
  for (const Statement& q : hot_w) ASSERT_TRUE(router.Submit(hot, q));
  for (const Statement& q : b_w) ASSERT_TRUE(router.Submit(b, q));
  for (const Statement& q : c_w) ASSERT_TRUE(router.Submit(c, q));

  // One batch per turn, re-queue at the tail: strict round-robin while all
  // three have backlog. b and c (10 statements, batch 4) need 3 turns each
  // and must get them within the first 9 turns despite hot's 60-statement
  // backlog — the starvation-freedom proof.
  std::vector<std::string> turns;
  for (int i = 0; i < 9; ++i) turns.push_back(router.DrainOne());
  std::vector<std::string> expected = {hot, b, c, hot, b, c, hot, b, c};
  EXPECT_EQ(turns, expected);
  EXPECT_EQ(router.analyzed(b), 10u);
  EXPECT_EQ(router.analyzed(c), 10u);
  EXPECT_EQ(router.analyzed(hot), 12u) << "hot proceeded, bounded per turn";

  // Only the hot backlog remains; it drains to completion.
  while (!router.DrainOne().empty()) {
  }
  EXPECT_EQ(router.analyzed(hot), 60u);
  router.Shutdown();
}

TEST(TenantRouterTest, EvictionIsLosslessAndCarriesFutureVotes) {
  constexpr size_t kStatements = 60;
  constexpr size_t kEvictAt = 40;
  const std::string root = TempRoot("evict");
  MultiDb env(1);
  Workload w = BuildWorkload(*env.dbs[0], kStatements, 0);
  const std::string id = TenantName(0);

  TenantRouterOptions options;
  options.shard.queue_capacity = 64;
  options.shard.max_batch = 5;
  options.shard.record_history = true;
  options.shard.checkpoint_every_statements = 1000;  // only eviction seals
  options.checkpoint_root = root;
  options.drain_threads = 0;
  TenantRouter router(env.Factory(), options);
  router.Start();

  for (const Vote& v : MakeVotes(SeedIds(*env.dbs[0]), 0)) {
    router.FeedbackAfter(id, v.after, v.plus, v.minus);
  }
  // A vote keyed past the eviction point: it must survive the eviction
  // un-applied and fire at its exact boundary in the next incarnation.
  std::vector<IndexId> ids = SeedIds(*env.dbs[0]);
  router.FeedbackAfter(id, kEvictAt + 9, IndexSet{ids[2]},
                       IndexSet{ids[0]});

  for (size_t i = 0; i < kEvictAt; ++i) {
    ASSERT_TRUE(router.Submit(id, w[i]));
  }
  while (!router.DrainOne().empty()) {
  }
  ASSERT_EQ(router.analyzed(id), kEvictAt);

  ASSERT_TRUE(router.Evict(id));
  EXPECT_TRUE(router.ResidentTenants().empty());
  EXPECT_FALSE(router.Evict(id)) << "already evicted";
  // The checkpoint-then-close left a recoverable tree on disk.
  EXPECT_EQ(router.PersistedTenants(), std::vector<std::string>{id});

  // Re-admission happens lazily on the next touch and resumes at the
  // checkpoint — a clean eviction replays nothing.
  for (size_t i = kEvictAt; i < kStatements; ++i) {
    ASSERT_TRUE(router.Submit(id, w[i]));
  }
  while (!router.DrainOne().empty()) {
  }
  ASSERT_EQ(router.analyzed(id), kStatements);
  RecoveryStats recovery = router.LastRecovery(id);
  EXPECT_TRUE(recovery.snapshot_loaded);
  EXPECT_EQ(recovery.snapshot_analyzed, kEvictAt);
  EXPECT_EQ(recovery.replayed_statements, 0u);
  router.Shutdown();

  // Full trajectory across the eviction == the dedicated uninterrupted
  // run, including the carried vote at kEvictAt + 9.
  TestDb ref_db;
  std::vector<IndexId> ref_ids = SeedIds(ref_db);
  Workload ref_w = BuildWorkload(ref_db, kStatements, 0);
  Wfit ref(&ref_db.pool(), &ref_db.optimizer(), IndexSet{}, FastOptions());
  std::vector<Vote> votes = MakeVotes(ref_ids, 0);
  votes.push_back(
      {kEvictAt + 9, IndexSet{ref_ids[2]}, IndexSet{ref_ids[0]}});
  std::vector<IndexSet> dedicated;
  for (size_t i = 0; i < kStatements; ++i) {
    ref.AnalyzeQuery(ref_w[i]);
    for (const Vote& v : votes) {
      if (v.after == i) ref.Feedback(v.plus, v.minus);
    }
    dedicated.push_back(ref.Recommendation());
  }
  std::vector<IndexSet> routed = router.History(id);
  ASSERT_EQ(routed.size(), dedicated.size());
  for (size_t i = 0; i < dedicated.size(); ++i) {
    ASSERT_EQ(routed[i], dedicated[i])
        << "trajectory diverged across eviction at statement " << i;
  }

  RouterMetricsSnapshot metrics = router.Metrics();
  EXPECT_EQ(metrics.evictions, 1u);
  EXPECT_EQ(metrics.admissions, 2u);
  ASSERT_EQ(metrics.tenants.size(), 1u);
  EXPECT_EQ(metrics.tenants[0].evictions, 1u);
  // Counters merged across incarnations stay complete: every statement is
  // accounted for exactly once.
  EXPECT_EQ(metrics.tenants[0].service.statements_analyzed, kStatements);
}

TEST(TenantRouterTest, CrashRecoveryOfMultiTenantCheckpointTree) {
  constexpr size_t kTenants = 3;
  constexpr size_t kTotal = 80;
  constexpr size_t kCrashAt = 53;
  const std::string root = TempRoot("crash");

  TenantRouterOptions options;
  options.shard.queue_capacity = 32;
  options.shard.max_batch = 5;
  options.shard.record_history = true;
  options.shard.checkpoint_every_statements = 20;
  // Simulate the crash: no shutdown snapshot, so recovery must replay each
  // tenant's journal suffix past its last periodic snapshot.
  options.shard.checkpoint_on_shutdown = false;
  options.checkpoint_root = root;
  options.drain_threads = 2;

  // "Process 1": every tenant analyzes its first kCrashAt statements, then
  // the process dies (no final checkpoint).
  {
    MultiDb env(kTenants);
    TenantRouter router(env.Factory(), options);
    router.Start();
    for (size_t t = 0; t < kTenants; ++t) {
      for (const Vote& v : MakeVotes(SeedIds(*env.dbs[t]), t)) {
        if (v.after < kCrashAt) {
          router.FeedbackAfter(TenantName(t), v.after, v.plus, v.minus);
        }
      }
      Workload w = BuildWorkload(*env.dbs[t], kCrashAt, t);
      for (size_t i = 0; i < kCrashAt; ++i) {
        ASSERT_TRUE(router.SubmitAt(TenantName(t), i, w[i]));
      }
    }
    for (size_t t = 0; t < kTenants; ++t) {
      ASSERT_TRUE(router.WaitUntilAnalyzed(TenantName(t), kCrashAt));
    }
    router.Shutdown();
  }

  // "Process 2": fresh everything; each tenant recovers from its own
  // subtree, producers replay the whole workload (recovered sequences are
  // dropped — exactly-once per tenant), votes re-pin at boundaries the
  // recovered state has not passed.
  MultiDb env(kTenants);
  TenantRouter router(env.Factory(), options);
  router.Start();
  EXPECT_EQ(router.PersistedTenants().size(), kTenants);
  std::vector<RecoveryStats> recoveries(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    recoveries[t] = router.LastRecovery(TenantName(t));  // admits + recovers
    EXPECT_TRUE(recoveries[t].snapshot_loaded) << "tenant " << t;
    EXPECT_EQ(recoveries[t].analyzed, kCrashAt) << "tenant " << t;
    for (const Vote& v : MakeVotes(SeedIds(*env.dbs[t]), t)) {
      if (v.after >= kCrashAt) {
        router.FeedbackAfter(TenantName(t), v.after, v.plus, v.minus);
      }
    }
  }
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kTenants; ++t) {
    producers.emplace_back([&, t] {
      Workload w = BuildWorkload(*env.dbs[t], kTotal, t);
      for (size_t i = 0; i < kTotal; ++i) {
        router.SubmitAt(TenantName(t), i, w[i]);
      }
    });
  }
  for (auto& p : producers) p.join();
  for (size_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(router.WaitUntilAnalyzed(TenantName(t), kTotal));
  }
  router.Shutdown();

  for (size_t t = 0; t < kTenants; ++t) {
    std::vector<IndexSet> dedicated = DedicatedHistory(t, kTotal);
    std::vector<IndexSet> recovered = router.History(TenantName(t));
    // The recovered run records history from its tenant's snapshot point.
    const uint64_t start = recoveries[t].snapshot_analyzed;
    ASSERT_EQ(recovered.size(), kTotal - start) << "tenant " << t;
    for (size_t i = 0; i < recovered.size(); ++i) {
      ASSERT_EQ(recovered[i], dedicated[start + i])
          << "tenant " << t << " diverged at statement " << (start + i);
    }
  }
}

TEST(TenantRouterTest, LabelledMetricsRollUpAcrossTenants) {
  MultiDb env(2);
  TenantRouterOptions options;
  options.shard.queue_capacity = 16;
  options.drain_threads = 1;
  TenantRouter router(env.Factory(), options);
  router.Start();
  Workload w0 = BuildWorkload(*env.dbs[0], 12, 0);
  Workload w1 = BuildWorkload(*env.dbs[1], 7, 1);
  for (const Statement& q : w0) ASSERT_TRUE(router.Submit(TenantName(0), q));
  for (const Statement& q : w1) ASSERT_TRUE(router.Submit(TenantName(1), q));
  ASSERT_TRUE(router.WaitUntilAnalyzed(TenantName(0), 12));
  ASSERT_TRUE(router.WaitUntilAnalyzed(TenantName(1), 7));
  router.Shutdown();

  RouterMetricsSnapshot m = router.Metrics();
  ASSERT_EQ(m.tenants.size(), 2u);
  EXPECT_EQ(m.tenants[0].service.statements_analyzed, 12u);
  EXPECT_EQ(m.tenants[1].service.statements_analyzed, 7u);
  EXPECT_EQ(m.aggregate.statements_analyzed, 19u);
  EXPECT_EQ(m.aggregate.latency_count(), 19u);
  EXPECT_EQ(m.tenants_known, 2u);
  EXPECT_EQ(m.tenants_resident, 2u);

  std::string text = router.ExportText();
  EXPECT_NE(text.find("wfit_tenant_stmts_total{tenant=\"db-0\"} 12"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wfit_tenant_stmts_total{tenant=\"db-1\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("wfit_service_statements_analyzed_total 19"),
            std::string::npos);
  EXPECT_NE(text.find("wfit_router_tenants_resident 2"), std::string::npos);
}

TEST(TenantRouterTest, ShutdownFlushesCarriedVotesOfEvictedTenants) {
  const std::string root = TempRoot("flush");
  MultiDb env(1);
  const std::string id = TenantName(0);
  Workload w = BuildWorkload(*env.dbs[0], 10, 0);
  std::vector<IndexId> ids = SeedIds(*env.dbs[0]);

  TenantRouterOptions options;
  options.shard.queue_capacity = 16;
  options.checkpoint_root = root;
  options.drain_threads = 0;
  TenantRouter router(env.Factory(), options);
  router.Start();
  for (const Statement& q : w) ASSERT_TRUE(router.Submit(id, q));
  while (!router.DrainOne().empty()) {
  }
  // A vote keyed far past the stream, then eviction: the vote rides along
  // as carried state. Shutdown must still apply it — a dedicated
  // TunerService's Shutdown applies ALL pending feedback.
  router.FeedbackAfter(id, 50, IndexSet{ids[0]}, IndexSet{ids[1]});
  ASSERT_TRUE(router.Evict(id));
  router.Shutdown();
  RouterMetricsSnapshot m = router.Metrics();
  ASSERT_EQ(m.tenants.size(), 1u);
  EXPECT_EQ(m.tenants[0].service.feedback_applied, 1u)
      << "carried vote was dropped at shutdown";

  // The dedicated-service reference for the final configuration.
  TestDb ref_db;
  std::vector<IndexId> ref_ids = SeedIds(ref_db);
  Workload ref_w = BuildWorkload(ref_db, 10, 0);
  Wfit ref(&ref_db.pool(), &ref_db.optimizer(), IndexSet{}, FastOptions());
  for (const Statement& q : ref_w) ref.AnalyzeQuery(q);
  ref.Feedback(IndexSet{ref_ids[0]}, IndexSet{ref_ids[1]});
  EXPECT_EQ(router.Recommendation(id)->configuration, ref.Recommendation());
}

TEST(TenantRouterTest, RoutedOpsAfterShutdownFailFast) {
  MultiDb env(2);
  TenantRouterOptions options;
  options.drain_threads = 1;
  TenantRouter router(env.Factory(), options);
  router.Start();
  Workload w = BuildWorkload(*env.dbs[0], 4, 0);
  for (const Statement& q : w) ASSERT_TRUE(router.Submit(TenantName(0), q));
  ASSERT_TRUE(router.WaitUntilAnalyzed(TenantName(0), 4));
  router.Shutdown();
  // Known resident tenants stay readable...
  EXPECT_NE(router.Recommendation(TenantName(0)), nullptr);
  EXPECT_EQ(router.analyzed(TenantName(0)), 4u);
  // ...but nothing can be admitted or submitted anymore — and a waiter on
  // a never-admitted tenant must fail fast, not hang.
  EXPECT_FALSE(router.Submit(TenantName(0), w[0]));
  EXPECT_FALSE(router.Submit(TenantName(1), w[0]));
  EXPECT_EQ(router.Recommendation(TenantName(1)), nullptr);
  EXPECT_FALSE(router.WaitUntilAnalyzed(TenantName(1), 1));
  EXPECT_EQ(router.analyzed(TenantName(1)), 0u);
}

/// A tuner that spends a fixed time per statement and counts what it
/// analyzed, so a test can see a drain in progress from outside.
class SlowTuner : public Tuner {
 public:
  explicit SlowTuner(std::atomic<uint64_t>* analyzed) : analyzed_(analyzed) {}
  void AnalyzeQuery(const Statement&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    analyzed_->fetch_add(1);
  }
  IndexSet Recommendation() const override { return {}; }
  std::string name() const override { return "slow"; }

 private:
  std::atomic<uint64_t>* analyzed_;
};

TEST(TenantRouterTest, ReadersAreServedWhileShutdownDrainsABacklog) {
  constexpr uint64_t kBacklog = 300;
  std::atomic<uint64_t> analyzed{0};
  TenantRouterOptions options;
  options.shard.queue_capacity = kBacklog;
  options.drain_threads = 0;  // nothing drains before Shutdown
  TenantRouter router(
      [&](const std::string&) {
        TenantTuner made;
        made.tuner = std::make_unique<SlowTuner>(&analyzed);
        return made;
      },
      options);
  router.Start();
  const std::string id = TenantName(0);
  Statement q;
  q.sql = "q";
  for (uint64_t i = 0; i < kBacklog; ++i) ASSERT_TRUE(router.Submit(id, q));

  std::thread stopper([&] { router.Shutdown(); });
  while (analyzed.load() == 0) std::this_thread::yield();
  // Shutdown is draining the backlog now; readers must not wait it out.
  std::shared_ptr<const RecommendationSnapshot> rec = router.Recommendation(id);
  router.analyzed(id);
  router.Metrics();
  const uint64_t drained_when_served = analyzed.load();
  stopper.join();
  ASSERT_NE(rec, nullptr);
  EXPECT_LT(drained_when_served, kBacklog)
      << "readers were blocked until Shutdown finished draining";
  EXPECT_EQ(router.analyzed(id), kBacklog);
}

TEST(TenantRouterTest, TenantDirEncodingIsSafeAndReversible) {
  for (const std::string& id :
       {std::string("plain"), std::string("Tenant_0.9-x"), std::string(""),
        std::string("."), std::string(".."), std::string("a/b\\c"),
        std::string("sp ace%41\"quote\nnl")}) {
    std::string dir = persist::EncodeTenantDir(id);
    EXPECT_EQ(persist::DecodeTenantDir(dir), id) << "id=" << id;
    EXPECT_EQ(dir.find('/'), std::string::npos);
    EXPECT_NE(dir, ".");
    EXPECT_NE(dir, "..");
    EXPECT_FALSE(dir.empty());
  }
  // Distinct ids must map to distinct directories (the '%' escape).
  EXPECT_NE(persist::EncodeTenantDir("a%41"), persist::EncodeTenantDir("aA"));
}

}  // namespace
}  // namespace wfit::service
