// The durability headline invariant: kill the service after statement k,
// recover from checkpoint_dir, finish the workload — the recommendation
// trajectory is bit-for-bit identical to an uninterrupted run. Covered for
// WFIT (auto candidate maintenance) and WFA+ (fixed stable partition),
// with interleaved DBA feedback, with and without a usable snapshot
// (journal-only cold start).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/wfa_plus.h"
#include "core/wfit.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "persist/tenant_tree.h"
#include "service/tuner_service.h"
#include "tests/test_util.h"

namespace wfit::service {
namespace {

namespace fs = std::filesystem;
using wfit::testing::TestDb;

constexpr size_t kTotal = 200;
constexpr size_t kCrashAt = 137;

WfitOptions FastOptions() {
  WfitOptions options;
  options.candidates.idx_cnt = 8;
  options.candidates.state_cnt = 64;
  options.candidates.hist_size = 50;
  options.candidates.creation_penalty_factor = 1e-6;
  return options;
}

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

enum class Kind { kWfit, kWfaPlus };

/// Every run interns the vote targets first, in a fixed order, so IndexIds
/// agree across "processes" (fresh TestDb instances).
std::vector<IndexId> SeedIds(TestDb& db) {
  return {db.Ix("t1", {"a"}), db.Ix("t2", {"x"}), db.Ix("t1", {"b"})};
}

std::unique_ptr<Tuner> MakeTuner(Kind kind, TestDb& db) {
  if (kind == Kind::kWfit) {
    return std::make_unique<Wfit>(&db.pool(), &db.optimizer(), IndexSet{},
                                  FastOptions());
  }
  std::vector<IndexSet> parts{
      IndexSet{db.Ix("t1", {"a"}), db.Ix("t1", {"b"})},
      IndexSet{db.Ix("t2", {"x"})},
      IndexSet{db.Ix("t3", {"v"})},
  };
  return std::make_unique<WfaPlus>(&db.pool(), &db.optimizer(),
                                   std::move(parts), IndexSet{});
}

struct Vote {
  uint64_t after;
  IndexSet plus;
  IndexSet minus;
};

std::vector<Vote> MakeVotes(const std::vector<IndexId>& ids) {
  return {
      {30, IndexSet{ids[0]}, IndexSet{}},
      {81, IndexSet{}, IndexSet{ids[1]}},
      {kCrashAt - 1, IndexSet{ids[2]}, IndexSet{ids[0]}},
      {163, IndexSet{ids[0]}, IndexSet{ids[2]}},
  };
}

TunerServiceOptions BaseOptions() {
  TunerServiceOptions options;
  options.queue_capacity = 64;
  options.max_batch = 5;
  options.record_history = true;
  return options;
}

/// Submits w[first, last) with explicit sequence numbers (stale sequences
/// are dropped by the exactly-once contract) and analyzes all of it. The
/// test thread is the service's drainer: it drains a batch whenever the
/// queue is full, and the rest at the end.
void Produce(TunerService& service, const Workload& w, size_t first,
             size_t last) {
  const size_t capacity = service.Metrics().queue_capacity;
  for (size_t seq = first; seq < last; ++seq) {
    while (service.QueueDepth() >= capacity) service.ProcessBatch();
    service.SubmitAt(seq, w[seq]);
  }
  while (service.ProcessBatch() > 0) {
  }
}

std::vector<IndexSet> ReferenceHistory(Kind kind) {
  TestDb db;
  std::vector<IndexId> ids = SeedIds(db);
  std::unique_ptr<Tuner> tuner = MakeTuner(kind, db);
  Workload w = BuildWorkload(db, kTotal);
  TunerService service(std::move(tuner), BaseOptions());
  service.Start();
  for (const Vote& v : MakeVotes(ids)) {
    service.FeedbackAfter(v.after, v.plus, v.minus);
  }
  Produce(service, w, 0, kTotal);
  service.Shutdown();
  return service.History();
}

/// The crash + recover flow. Returns the reference-aligned suffix: the
/// recovered run's history starting at `*out_start` (the snapshot's
/// analyzed count, or 0 for a journal-only cold start).
std::vector<IndexSet> CrashAndRecover(Kind kind, bool drop_snapshots,
                                      uint64_t* out_start,
                                      RecoveryStats* out_stats) {
  const std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_recovery_" + std::to_string(::getpid()) + "_" +
        std::to_string(static_cast<int>(kind)) +
        (drop_snapshots ? "_nosnap" : "")))
          .string();
  fs::remove_all(dir);

  TunerServiceOptions options = BaseOptions();
  options.checkpoint_dir = dir;
  options.checkpoint_every_statements = 50;
  // Simulate the crash: no final checkpoint, so recovery must replay the
  // journal suffix past the last periodic snapshot.
  options.checkpoint_on_shutdown = false;

  // "Process 1": analyze the first kCrashAt statements, then die.
  {
    TestDb db;
    std::vector<IndexId> ids = SeedIds(db);
    std::unique_ptr<Tuner> tuner = MakeTuner(kind, db);
    Workload w = BuildWorkload(db, kTotal);
    auto service =
        TunerService::Open(std::move(tuner), &db.pool(), options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    (*service)->Start();
    for (const Vote& v : MakeVotes(ids)) {
      if (v.after < kCrashAt) {
        (*service)->FeedbackAfter(v.after, v.plus, v.minus);
      }
    }
    Produce(**service, w, 0, kCrashAt);
    EXPECT_TRUE((*service)->WaitUntilAnalyzed(kCrashAt));
    (*service)->Shutdown();
    MetricsSnapshot m = (*service)->Metrics();
    EXPECT_GE(m.journal_records, kCrashAt);
    if (!drop_snapshots) {
      EXPECT_GE(m.checkpoints_written, 1u);
    }
  }
  if (drop_snapshots) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".wfsnap") fs::remove(entry.path());
    }
  }

  // "Process 2": fresh everything, recover, finish the workload — the
  // producers replay the whole workload; recovered statements are dropped.
  TestDb db;
  std::vector<IndexId> ids = SeedIds(db);
  std::unique_ptr<Tuner> tuner = MakeTuner(kind, db);
  Workload w = BuildWorkload(db, kTotal);
  RecoveryStats stats;
  auto service =
      TunerService::Open(std::move(tuner), &db.pool(), options, &stats);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(stats.analyzed, kCrashAt);
  (*service)->Start();
  for (const Vote& v : MakeVotes(ids)) {
    if (v.after >= kCrashAt) {
      (*service)->FeedbackAfter(v.after, v.plus, v.minus);
    }
  }
  Produce(**service, w, 0, kTotal);
  (*service)->Shutdown();
  *out_start = stats.snapshot_loaded ? stats.snapshot_analyzed : 0;
  if (out_stats != nullptr) *out_stats = stats;
  return (*service)->History();
}

void CheckRecoveryMatchesReference(Kind kind, bool drop_snapshots) {
  std::vector<IndexSet> reference = ReferenceHistory(kind);
  ASSERT_EQ(reference.size(), kTotal);
  uint64_t start = 0;
  RecoveryStats stats;
  std::vector<IndexSet> recovered =
      CrashAndRecover(kind, drop_snapshots, &start, &stats);
  ASSERT_EQ(recovered.size(), kTotal - start);
  for (size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_EQ(recovered[i], reference[start + i])
        << "trajectory diverged at statement " << (start + i)
        << " (recovery started at " << start << ")";
  }
  if (drop_snapshots) {
    EXPECT_FALSE(stats.snapshot_loaded);
    EXPECT_EQ(stats.replayed_statements, kCrashAt);
  } else {
    EXPECT_TRUE(stats.snapshot_loaded);
    EXPECT_GE(stats.snapshot_analyzed, 50u);
    EXPECT_EQ(stats.replayed_statements, kCrashAt - stats.snapshot_analyzed);
  }
}

TEST(RecoveryTest, WfitBitForBitSerial) {
  CheckRecoveryMatchesReference(Kind::kWfit, /*drop_snapshots=*/false);
}

TEST(RecoveryTest, WfaPlusBitForBitSerial) {
  CheckRecoveryMatchesReference(Kind::kWfaPlus, /*drop_snapshots=*/false);
}

TEST(RecoveryTest, JournalOnlyColdStartReplaysEverything) {
  CheckRecoveryMatchesReference(Kind::kWfit, /*drop_snapshots=*/true);
}

TEST(RecoveryTest, CrossStatementCacheIsSnapshotExemptAndRecoverySafe) {
  // The cross-statement what-if cache is deliberately NOT part of the
  // persisted state: a recovered process starts with a cold cache while
  // the uninterrupted reference ran fully warm. The bit-for-bit recovery
  // tests above already exercise this implicitly; here it is pinned down
  // explicitly: (1) the uninterrupted run takes cross-tier hits, (2) a
  // tuner with the tier disabled produces the identical trajectory, so a
  // cold post-recovery cache can never change the replayed trajectory.
  TestDb db;
  std::vector<IndexId> ids = SeedIds(db);
  Workload w = BuildWorkload(db, 80);

  Wfit warm(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  WfitOptions no_cache_options = FastOptions();
  no_cache_options.cross_cache.max_templates = 0;
  TestDb db2;
  std::vector<IndexId> ids2 = SeedIds(db2);
  Workload w2 = BuildWorkload(db2, 80);
  Wfit cold(&db2.pool(), &db2.optimizer(), IndexSet{}, no_cache_options);

  for (size_t i = 0; i < w.size(); ++i) {
    warm.AnalyzeQuery(w[i]);
    cold.AnalyzeQuery(w2[i]);
    if (i == 30) {
      warm.Feedback(IndexSet{ids[0]}, IndexSet{ids[1]});
      cold.Feedback(IndexSet{ids2[0]}, IndexSet{ids2[1]});
    }
    ASSERT_EQ(warm.Recommendation(), cold.Recommendation())
        << "cache warmth changed the trajectory at statement " << i;
  }
  EXPECT_GT(warm.WhatIfCache().cross_hits, 0u)
      << "the workload repeats templates, so the warm run must differ from "
         "the cold one in probe counts";
  EXPECT_EQ(cold.WhatIfCache().cross_hits, 0u);
  // And the persisted state of the warm tuner says nothing about its
  // cache: exporting + restoring onto a fresh (cold-cache) tuner continues
  // identically — the exact recovery situation.
  WfitState state = warm.ExportState();
  Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, no_cache_options);
  ASSERT_TRUE(restored.RestoreState(state).ok());
  for (size_t i = 0; i < 40; ++i) {
    warm.AnalyzeQuery(w[i]);
    restored.AnalyzeQuery(w2[i]);
    ASSERT_EQ(warm.Recommendation(), restored.Recommendation())
        << "restored cold-cache tuner diverged at statement " << i;
  }
}

TEST(RecoveryTest, WalAheadOfAnalysisRequeuesIntakeAndKeepsVoteBoundaries) {
  // The crash window the analyzed markers exist for: the batch WAL made
  // statements 0..9 durable, but only 0..5 finished analysis (markers)
  // before the crash — and a vote keyed after statement 7 died in memory.
  // Recovery must resume the trajectory at 6 and hand 6..9 back as intake,
  // so the driver's re-registered vote still lands exactly after 7.
  const std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_recovery_wal_ahead_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    TestDb db;
    SeedIds(db);
    Workload w = BuildWorkload(db, 10);
    persist::JournalWriter jw;
    ASSERT_TRUE(jw.Open((fs::path(dir) / "journal.wfj").string(), 0, 0).ok());
    for (uint64_t seq = 0; seq < 10; ++seq) {
      ASSERT_TRUE(jw.AppendStatement(seq, w[seq]).ok());
    }
    for (uint64_t seq = 0; seq < 6; ++seq) {
      ASSERT_TRUE(jw.AppendAnalyzed(seq).ok());
    }
    ASSERT_TRUE(jw.Sync().ok());
  }

  TestDb db;
  std::vector<IndexId> ids = SeedIds(db);
  Workload w = BuildWorkload(db, 10);
  TunerServiceOptions options = BaseOptions();
  options.checkpoint_dir = dir;
  RecoveryStats stats;
  auto service = TunerService::Open(MakeTuner(Kind::kWfit, db), &db.pool(),
                                    options, &stats);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(stats.analyzed, 6u);
  EXPECT_EQ(stats.replayed_statements, 6u);
  EXPECT_EQ(stats.requeued_statements, 4u);
  // Re-pin the vote BEFORE analysis resumes: statements 6..9 are requeued
  // intake the next batch analyzes, and a vote registered after that may
  // land past its boundary (the driver contract: votes for boundaries >=
  // the recovery point re-register before analysis resumes).
  (*service)->FeedbackAfter(7, IndexSet{ids[0]}, IndexSet{ids[1]});
  (*service)->Start();
  // The producer replays the whole workload: 0..5 are dropped as already
  // analyzed, 6..9 collide with the requeued copies and are dropped too.
  Produce(**service, w, 0, 10);
  (*service)->Shutdown();
  std::vector<IndexSet> history = (*service)->History();
  ASSERT_EQ(history.size(), 10u);

  // Serial reference: the uninterrupted run with the vote after 7.
  TestDb ref_db;
  std::vector<IndexId> ref_ids = SeedIds(ref_db);
  Workload ref_w = BuildWorkload(ref_db, 10);
  std::unique_ptr<Tuner> ref = MakeTuner(Kind::kWfit, ref_db);
  for (size_t i = 0; i < 10; ++i) {
    ref->AnalyzeQuery(ref_w[i]);
    if (i == 7) ref->Feedback(IndexSet{ref_ids[0]}, IndexSet{ref_ids[1]});
    ASSERT_EQ(history[i], ref->Recommendation())
        << "diverged at statement " << i;
  }
}

TEST(RecoveryTest, UpgradedTreeIgnoresStrayDeltaAndArchive) {
  // A checkpoint root written by an older build can hold a delta-snapshot
  // file next to the snapshots and an "_archive" directory next to the
  // tenant directories. Neither is read: recovery loads the newest
  // snapshot and replays the journal suffix, and the archive directory is
  // not a tenant. The first new snapshot deletes the stray delta.
  const std::string root =
      (fs::path(::testing::TempDir()) /
       ("wfit_recovery_upgraded_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(root);
  const std::string dir = persist::TenantCheckpointDir(root, "tenant-a");
  TunerServiceOptions options = BaseOptions();
  options.checkpoint_dir = dir;
  options.checkpoint_every_statements = 50;
  options.checkpoint_on_shutdown = false;
  {
    TestDb db;
    std::vector<IndexId> ids = SeedIds(db);
    Workload w = BuildWorkload(db, kTotal);
    auto service = TunerService::Open(MakeTuner(Kind::kWfit, db),
                                      &db.pool(), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    (*service)->Start();
    for (const Vote& v : MakeVotes(ids)) {
      if (v.after < kCrashAt) {
        (*service)->FeedbackAfter(v.after, v.plus, v.minus);
      }
    }
    Produce(**service, w, 0, kCrashAt);
    ASSERT_TRUE((*service)->WaitUntilAnalyzed(kCrashAt));
    (*service)->Shutdown();
  }
  std::vector<std::string> snapshots = persist::ListSnapshots(dir);
  ASSERT_FALSE(snapshots.empty());
  const std::string newest = fs::path(snapshots[0]).filename().string();
  // snapshot-<analyzed:020d>.wfsnap
  const uint64_t newest_analyzed = std::stoull(newest.substr(9, 20));
  // A delta chained to the newest snapshot and newer than it, as an older
  // build named them; its bytes are garbage.
  char delta_name[96];
  std::snprintf(delta_name, sizeof(delta_name), "delta-%020llu-%020llu.wfdelta",
                static_cast<unsigned long long>(newest_analyzed),
                static_cast<unsigned long long>(kCrashAt));
  const fs::path delta_path = fs::path(dir) / delta_name;
  {
    std::FILE* f = std::fopen(delta_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a delta snapshot", f);
    std::fclose(f);
    fs::create_directories(fs::path(root) / "_archive");
    f = std::fopen(
        (fs::path(root) / "_archive" / "seg-00000000000000000001.wfseg")
            .c_str(),
        "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not an archive segment", f);
    std::fclose(f);
  }
  auto listed = persist::ListTenantIds(root);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(*listed, std::vector<std::string>{"tenant-a"});

  TestDb db;
  std::vector<IndexId> ids = SeedIds(db);
  Workload w = BuildWorkload(db, kTotal);
  RecoveryStats stats;
  auto service = TunerService::Open(MakeTuner(Kind::kWfit, db), &db.pool(),
                                    options, &stats);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_analyzed, newest_analyzed);
  EXPECT_EQ(stats.snapshots_skipped, 0u);
  EXPECT_EQ(stats.analyzed, kCrashAt);
  EXPECT_EQ(stats.replayed_statements, kCrashAt - newest_analyzed);
  (*service)->Start();
  for (const Vote& v : MakeVotes(ids)) {
    if (v.after >= kCrashAt) {
      (*service)->FeedbackAfter(v.after, v.plus, v.minus);
    }
  }
  Produce(**service, w, 0, kTotal);
  ASSERT_TRUE((*service)->WaitUntilAnalyzed(kTotal));
  (*service)->Shutdown();
  EXPECT_NE(persist::ListSnapshots(dir).front(), snapshots.front());
  EXPECT_FALSE(fs::exists(delta_path));
  std::vector<IndexSet> recovered = (*service)->History();
  std::vector<IndexSet> reference = ReferenceHistory(Kind::kWfit);
  ASSERT_EQ(recovered.size(), kTotal - newest_analyzed);
  for (size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_EQ(recovered[i], reference[newest_analyzed + i])
        << "trajectory diverged at statement " << (newest_analyzed + i);
  }
}

TEST(RecoveryTest, JournalDeletedAfterCheckpointStillRecovers) {
  const std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_recovery_nojournal_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  TunerServiceOptions options = BaseOptions();
  options.checkpoint_dir = dir;
  options.checkpoint_every_statements = 16;

  IndexSet final_rec;
  {
    TestDb db;
    SeedIds(db);
    Workload w = BuildWorkload(db, 40);
    auto service = TunerService::Open(MakeTuner(Kind::kWfit, db), &db.pool(),
                                      options);
    ASSERT_TRUE(service.ok());
    (*service)->Start();
    Produce(**service, w, 0, 40);
    (*service)->Shutdown();  // shutdown checkpoint covers the journal
    final_rec = (*service)->Recommendation()->configuration;
  }
  // An operator (or disk cleanup) removes the journal; the snapshot
  // references journal records that no longer exist. Recovery must accept
  // the snapshot as authoritative and re-stamp the LSN domain so future
  // recoveries stay consistent.
  fs::remove(fs::path(dir) / "journal.wfj");
  {
    TestDb db;
    SeedIds(db);
    Workload w = BuildWorkload(db, 60);
    RecoveryStats stats;
    auto service = TunerService::Open(MakeTuner(Kind::kWfit, db), &db.pool(),
                                      options, &stats);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_TRUE(stats.snapshot_loaded);
    EXPECT_EQ(stats.analyzed, 40u);
    EXPECT_EQ(stats.replayed_statements, 0u);
    EXPECT_EQ((*service)->tuner().Recommendation(), final_rec);
    // Continue past the re-stamp, crash-style, and recover once more: the
    // fresh journal + re-stamped snapshot must line up.
    (*service)->Start();
    Produce(**service, w, 40, 60);
    (*service)->Shutdown();
  }
  {
    TestDb db;
    SeedIds(db);
    RecoveryStats stats;
    auto service = TunerService::Open(MakeTuner(Kind::kWfit, db), &db.pool(),
                                      options, &stats);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ(stats.analyzed, 60u);
  }
}

// The default path's sync schedule: a batch costs exactly two journal
// syncs — the write-ahead barrier before analysis and the tail sync that
// makes the batch's analyzed markers and votes durable. No cadence
// checkpoint runs here, so nothing else syncs.
TEST(RecoveryTest, DefaultPathSyncsJournalTwicePerBatch) {
  const std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_recovery_syncs_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  TestDb db;
  std::vector<IndexId> ids = SeedIds(db);
  constexpr uint64_t kBatches = 4;
  TunerServiceOptions options = BaseOptions();
  options.checkpoint_dir = dir;
  options.checkpoint_every_statements = 1u << 30;
  Workload w = BuildWorkload(db, kBatches * options.max_batch);
  auto service =
      TunerService::Open(MakeTuner(Kind::kWfit, db), &db.pool(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  (*service)->Start();
  EXPECT_EQ((*service)->Metrics().journal_syncs, 0u);
  // Votes inside the second and third batches ride their tail syncs.
  (*service)->FeedbackAfter(7, IndexSet{ids[0]}, IndexSet{});
  (*service)->FeedbackAfter(12, IndexSet{}, IndexSet{ids[0]});
  for (size_t seq = 0; seq < w.size(); ++seq) {
    ASSERT_TRUE((*service)->SubmitAt(seq, w[seq]));
  }
  for (uint64_t batch = 1; batch <= kBatches; ++batch) {
    ASSERT_EQ((*service)->ProcessBatch(), options.max_batch);
    MetricsSnapshot m = (*service)->Metrics();
    EXPECT_EQ(m.journal_syncs, 2 * batch) << "after batch " << batch;
    EXPECT_EQ(m.checkpoints_written, 0u);
  }
  EXPECT_FALSE((*service)->HasDeliverableWork());
  (*service)->Shutdown();
}

TEST(RecoveryTest, FreshDirectoryIsAColdStartWithJournaling) {
  const std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_recovery_fresh_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  TestDb db;
  std::vector<IndexId> ids = SeedIds(db);
  std::unique_ptr<Tuner> tuner = MakeTuner(Kind::kWfit, db);
  Workload w = BuildWorkload(db, 40);
  TunerServiceOptions options = BaseOptions();
  options.checkpoint_dir = dir;
  options.checkpoint_every_statements = 16;
  RecoveryStats stats;
  auto service =
      TunerService::Open(std::move(tuner), &db.pool(), options, &stats);
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.analyzed, 0u);
  (*service)->Start();
  Produce(**service, w, 0, 40);
  (*service)->Shutdown();
  MetricsSnapshot m = (*service)->Metrics();
  // One WAL record + one analyzed marker per statement.
  EXPECT_EQ(m.journal_records, 80u);
  EXPECT_GE(m.checkpoints_written, 2u);  // cadence + shutdown checkpoint
  EXPECT_GT(m.last_snapshot_bytes, 0u);
  EXPECT_EQ(m.last_checkpoint_seq, 40u);
  EXPECT_GT(m.journal_syncs, 0u);
  // The shutdown checkpoint makes restart instant: nothing to replay.
  TestDb db2;
  SeedIds(db2);
  RecoveryStats stats2;
  auto service2 = TunerService::Open(MakeTuner(Kind::kWfit, db2),
                                     &db2.pool(), options, &stats2);
  ASSERT_TRUE(service2.ok()) << service2.status().ToString();
  EXPECT_TRUE(stats2.snapshot_loaded);
  EXPECT_EQ(stats2.analyzed, 40u);
  EXPECT_EQ(stats2.replayed_statements, 0u);
  // Not started yet: read the restored tuner directly.
  EXPECT_EQ((*service2)->tuner().Recommendation(),
            (*service)->Recommendation()->configuration);
}

}  // namespace
}  // namespace wfit::service
