// Journal compaction under the service: once two checkpoints make a
// journal prefix redundant, the service rewrites the journal without it —
// and a crash at ANY point afterwards (snapshots + a compacted journal
// whose LSN domain no longer starts at zero) still recovers the exact
// recommendation trajectory. Plus the persist-layer race the service
// never creates but an operator's manual compaction could: a checkpoint
// write and a journal compaction running concurrently against the same
// checkpoint directory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/wfit.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
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

std::string FreshDir(const std::string& tag) {
  std::string dir = (fs::path(::testing::TempDir()) /
                     ("wfit_compaction_" + tag + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  return dir;
}

/// Aggressive-compaction durability options: checkpoints every 20
/// statements, journal rewritten as soon as a prefix is covered.
TunerServiceOptions CompactingOptions(const std::string& dir) {
  TunerServiceOptions options;
  options.queue_capacity = 64;
  options.max_batch = 5;
  options.record_history = true;
  options.checkpoint_dir = dir;
  options.checkpoint_every_statements = 20;
  options.checkpoint_on_shutdown = false;  // crash-realistic
  options.journal_compact_min_bytes = 1024;
  return options;
}

/// Submits w[first, last) with explicit sequence numbers (sequences the
/// recovered state covers are dropped) and analyzes all of it. The test
/// thread is the service's drainer: it drains a batch whenever the queue
/// is full, and the rest at the end.
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

std::vector<IndexSet> ReferenceHistory() {
  TestDb db;
  Workload w = BuildWorkload(db, kTotal);
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  std::vector<IndexSet> history;
  for (size_t i = 0; i < kTotal; ++i) {
    tuner.AnalyzeQuery(w[i]);
    history.push_back(tuner.Recommendation());
  }
  return history;
}

TEST(CompactionTest, RecoveryFromACompactedJournalIsBitIdentical) {
  const std::string dir = FreshDir("recover");
  TunerServiceOptions options = CompactingOptions(dir);

  // "Process 1": analyze kCrashAt statements with compaction churning
  // underneath, then die without a shutdown checkpoint.
  uint64_t compactions = 0;
  {
    TestDb db;
    Workload w = BuildWorkload(db, kTotal);
    auto tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                        IndexSet{}, FastOptions());
    auto service = TunerService::Open(std::move(tuner), &db.pool(), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    (*service)->Start();
    Produce(**service, w, 0, kCrashAt);
    ASSERT_TRUE((*service)->WaitUntilAnalyzed(kCrashAt));
    (*service)->Shutdown();
    MetricsSnapshot m = (*service)->Metrics();
    compactions = m.journal_compactions;
    // 137 statements / 20 per checkpoint = enough snapshots for the
    // covered horizon to advance repeatedly.
    EXPECT_GE(compactions, 1u) << "compaction never triggered";
    EXPECT_GT(m.journal_compacted_bytes, 0u);
  }

  // The on-disk journal really does start at a shifted LSN base.
  auto read = persist::ReadJournal((fs::path(dir) / "journal.wfj").string());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_GT(read->base_lsn, 0u);

  // "Process 2": recover and finish; the trajectory must equal the
  // uninterrupted reference from the recovery point on.
  TestDb db;
  Workload w = BuildWorkload(db, kTotal);
  auto tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                      IndexSet{}, FastOptions());
  RecoveryStats stats;
  auto service =
      TunerService::Open(std::move(tuner), &db.pool(), options, &stats);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.analyzed, kCrashAt);
  (*service)->Start();
  Produce(**service, w, 0, kTotal);  // recovered prefix is dropped
  (*service)->Shutdown();
  std::vector<IndexSet> recovered = (*service)->History();

  std::vector<IndexSet> reference = ReferenceHistory();
  const uint64_t start = stats.snapshot_analyzed;
  ASSERT_EQ(recovered.size(), kTotal - start);
  for (size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_EQ(recovered[i], reference[start + i])
        << "trajectory diverged at statement " << (start + i);
  }
}

TEST(CompactionTest, RepeatedCompactionKeepsJournalBounded) {
  const std::string dir = FreshDir("bounded");
  TunerServiceOptions options = CompactingOptions(dir);
  TestDb db;
  Workload w = BuildWorkload(db, kTotal);
  auto tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                      IndexSet{}, FastOptions());
  auto service = TunerService::Open(std::move(tuner), &db.pool(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  (*service)->Start();
  Produce(**service, w, 0, kTotal);
  ASSERT_TRUE((*service)->WaitUntilAnalyzed(kTotal));
  (*service)->Shutdown();
  MetricsSnapshot m = (*service)->Metrics();
  EXPECT_GE(m.journal_compactions, 2u);
  // Steady state: the live journal holds at most the records since the
  // last covered horizon (a couple of checkpoint intervals), not the
  // whole history. The uncompacted journal for 200 statements is several
  // times larger.
  auto read = persist::ReadJournal((fs::path(dir) / "journal.wfj").string());
  ASSERT_TRUE(read.ok());
  EXPECT_LT(read->records.size(), kTotal);
  EXPECT_GT(read->base_lsn, 0u);
}

TEST(CompactionTest, CompactsOnlyBehindTwoDurableSnapshots) {
  // The covered horizon is the older of two durable snapshots. A service
  // with one snapshot never compacts; after a restart the loaded snapshot
  // counts, so the first new checkpoint compacts up to its journal_lsn.
  const std::string dir = FreshDir("two");
  TunerServiceOptions options = CompactingOptions(dir);
  options.journal_compact_min_bytes = 0;
  {
    TestDb db;
    Workload w = BuildWorkload(db, 45);
    auto tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                        IndexSet{}, FastOptions());
    auto service = TunerService::Open(std::move(tuner), &db.pool(), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    (*service)->Start();
    Produce(**service, w, 0, 25);
    ASSERT_TRUE((*service)->WaitUntilAnalyzed(25));
    (*service)->Shutdown();
    MetricsSnapshot m = (*service)->Metrics();
    EXPECT_EQ(m.checkpoints_written, 1u);
    EXPECT_EQ(m.journal_compactions, 0u);
  }
  std::vector<std::string> snapshots = persist::ListSnapshots(dir);
  ASSERT_EQ(snapshots.size(), 1u);
  persist::SnapshotMeta first;
  {
    TestDb db;
    Wfit reader(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
    ASSERT_TRUE(
        persist::ReadSnapshot(snapshots[0], &reader, &db.pool(), &first)
            .ok());
  }
  ASSERT_GT(first.journal_lsn, 0u);

  TestDb db;
  Workload w = BuildWorkload(db, 45);
  auto tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                      IndexSet{}, FastOptions());
  auto service = TunerService::Open(std::move(tuner), &db.pool(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  (*service)->Start();
  Produce(**service, w, 25, 45);
  ASSERT_TRUE((*service)->WaitUntilAnalyzed(45));
  (*service)->Shutdown();
  MetricsSnapshot m = (*service)->Metrics();
  EXPECT_EQ(m.checkpoints_written, 1u);
  EXPECT_EQ(m.journal_compactions, 1u);
  auto read = persist::ReadJournal((fs::path(dir) / "journal.wfj").string());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->base_lsn, first.journal_lsn);
}

TEST(CompactionTest, JournalSyncCounterSurvivesCompaction) {
  // Compaction replaces the journal writer; the exported sync counter is
  // the service's own and must keep counting across the swap. Every batch
  // costs at least its write-ahead barrier and its tail sync.
  const std::string dir = FreshDir("syncs");
  TunerServiceOptions options = CompactingOptions(dir);
  TestDb db;
  Workload w = BuildWorkload(db, kTotal);
  auto tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                      IndexSet{}, FastOptions());
  auto service = TunerService::Open(std::move(tuner), &db.pool(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  (*service)->Start();
  uint64_t batches = 0;
  uint64_t last_syncs = 0;
  for (size_t seq = 0; seq < kTotal; ++seq) {
    ASSERT_TRUE((*service)->SubmitAt(seq, w[seq]));
    if ((seq + 1) % options.max_batch != 0) continue;
    ASSERT_EQ((*service)->ProcessBatch(), options.max_batch);
    ++batches;
    const uint64_t syncs = (*service)->Metrics().journal_syncs;
    ASSERT_GE(syncs, last_syncs) << "counter fell after batch " << batches;
    last_syncs = syncs;
  }
  MetricsSnapshot m = (*service)->Metrics();
  EXPECT_GE(m.journal_compactions, 2u);
  EXPECT_GE(m.journal_syncs, 2 * batches);
  EXPECT_NE(ExportText(m).find("wfit_service_journal_syncs_total " +
                               std::to_string(m.journal_syncs) + "\n"),
            std::string::npos);
  (*service)->Shutdown();
}

TEST(CompactionTest, CompactionRacesConcurrentCheckpointWrite) {
  // The service serializes checkpointing and compaction on its drain
  // path, but the two touch DIFFERENT files (snapshot tmp+rename vs
  // journal tmp+rename, both fsyncing the same directory) — so a manual
  // compaction racing a checkpoint writer must not corrupt either. Run
  // them concurrently at the persist layer and verify both artifacts
  // recover cleanly.
  const std::string dir = FreshDir("race");
  fs::create_directories(dir);
  const std::string journal_path = (fs::path(dir) / "journal.wfj").string();

  TestDb db;
  Workload w = BuildWorkload(db, 120);
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());

  persist::JournalWriter journal;
  ASSERT_TRUE(journal.Open(journal_path, 0, 0).ok());
  // The service's compaction rule: the horizon is the journal_lsn of the
  // older of the two newest snapshots.
  uint64_t cover = 0;
  uint64_t newest_lsn = 0;
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(journal.AppendStatement(i, w[i]).ok());
    tuner.AnalyzeQuery(w[i]);
    ASSERT_TRUE(journal.AppendAnalyzed(i).ok());
    if ((i + 1) % 20 == 0) {
      ASSERT_TRUE(journal.Sync().ok());
      persist::SnapshotMeta meta;
      meta.analyzed = i + 1;
      meta.journal_lsn = journal.lsn();
      auto r = persist::WriteSnapshot(dir, tuner, db.pool(), meta);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      cover = newest_lsn;
      newest_lsn = meta.journal_lsn;
    }
  }
  ASSERT_TRUE(journal.Sync().ok());
  const uint64_t final_lsn = journal.lsn();
  journal.Close();  // compaction requires the writer closed
  ASSERT_GT(cover, 0u);

  // The race: one thread writes the next checkpoint, the other compacts
  // the journal up to the already-covered horizon.
  persist::SnapshotMeta meta;
  meta.analyzed = 120;
  meta.journal_lsn = final_lsn;
  Status write_status = Status::Ok();
  Status compact_status = Status::Ok();
  persist::CompactionResult compaction;
  std::thread writer([&] {
    auto r = persist::WriteSnapshot(dir, tuner, db.pool(), meta);
    write_status = r.status();
  });
  std::thread compactor([&] {
    auto r = persist::CompactJournal(journal_path, cover);
    compact_status = r.status();
    if (r.ok()) compaction = *r;
  });
  writer.join();
  compactor.join();
  ASSERT_TRUE(write_status.ok()) << write_status.ToString();
  ASSERT_TRUE(compact_status.ok()) << compact_status.ToString();
  EXPECT_EQ(compaction.base_lsn, cover);

  // Both artifacts are intact: the newest checkpoint loads, and the
  // compacted journal's domain still covers the snapshot's LSN.
  TestDb db2;
  Workload w2 = BuildWorkload(db2, 120);
  (void)w2;
  Wfit fresh(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  persist::SnapshotLoadResult loaded =
      persist::LoadLatestSnapshot(dir, &fresh, &db2.pool());
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.meta.analyzed, 120u);
  EXPECT_EQ(loaded.skipped, 0u);
  EXPECT_EQ(fresh.Recommendation(), tuner.Recommendation());
  auto read = persist::ReadJournal(journal_path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->base_lsn, cover);
  EXPECT_GE(loaded.meta.journal_lsn, read->base_lsn);
  EXPECT_LE(loaded.meta.journal_lsn,
            read->base_lsn + read->records.size());
}

TEST(CompactionTest, SnapshotOlderThanJournalBaseIsALsnDomainMismatch) {
  // Compaction dropped history an (externally restored, stale) snapshot
  // still needs: recovery must not replay from the wrong offset — it
  // declares a domain mismatch, trusts the snapshot, and re-stamps.
  const std::string dir = FreshDir("stale");
  TunerServiceOptions options = CompactingOptions(dir);
  {
    TestDb db;
    Workload w = BuildWorkload(db, kTotal);
    auto tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                        IndexSet{}, FastOptions());
    auto service = TunerService::Open(std::move(tuner), &db.pool(), options);
    ASSERT_TRUE(service.ok());
    (*service)->Start();
    Produce(**service, w, 0, kTotal);
    ASSERT_TRUE((*service)->WaitUntilAnalyzed(kTotal));
    (*service)->Shutdown();
    ASSERT_GE((*service)->Metrics().journal_compactions, 1u);
  }
  // "Restore from backup": delete every snapshot, leaving only the
  // compacted journal — its base LSN now references dropped history no
  // snapshot covers.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find("journal") == std::string::npos) fs::remove(entry.path());
  }
  TestDb db;
  auto tuner = std::make_unique<Wfit>(&db.pool(), &db.optimizer(),
                                      IndexSet{}, FastOptions());
  RecoveryStats stats;
  auto service =
      TunerService::Open(std::move(tuner), &db.pool(), options, &stats);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // Cold start (no snapshot), journal base > 0: nothing is replayable.
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed_statements, 0u);
  EXPECT_EQ(stats.analyzed, 0u);
  (*service)->Shutdown();
}

}  // namespace
}  // namespace wfit::service
