// The durability headline invariant: kill the service after statement k,
// recover from checkpoint_dir, finish the workload — the recommendation
// trajectory is bit-for-bit identical to an uninterrupted run. Covered with
// interleaved DBA feedback, with and without a usable snapshot
// (journal-only cold start). State another build wrote is refused with
// every file untouched.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/wfit.h"
#include "persist/codec.h"
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

/// Every run interns the vote targets first, in a fixed order, so IndexIds
/// agree across "processes" (fresh TestDb instances).
std::vector<IndexId> SeedIds(TestDb& db) {
  return {db.Ix("t1", {"a"}), db.Ix("t2", {"x"}), db.Ix("t1", {"b"})};
}

std::unique_ptr<Tuner> MakeTuner(TestDb& db) {
  return std::make_unique<Wfit>(&db.pool(), &db.optimizer(), IndexSet{},
                                FastOptions());
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

std::vector<IndexSet> ReferenceHistory() {
  TestDb db;
  std::vector<IndexId> ids = SeedIds(db);
  std::unique_ptr<Tuner> tuner = MakeTuner(db);
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
std::vector<IndexSet> CrashAndRecover(bool drop_snapshots,
                                      uint64_t* out_start,
                                      RecoveryStats* out_stats) {
  const std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_recovery_" + std::to_string(::getpid()) +
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
    std::unique_ptr<Tuner> tuner = MakeTuner(db);
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
  std::unique_ptr<Tuner> tuner = MakeTuner(db);
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

void CheckRecoveryMatchesReference(bool drop_snapshots) {
  std::vector<IndexSet> reference = ReferenceHistory();
  ASSERT_EQ(reference.size(), kTotal);
  uint64_t start = 0;
  RecoveryStats stats;
  std::vector<IndexSet> recovered =
      CrashAndRecover(drop_snapshots, &start, &stats);
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
  CheckRecoveryMatchesReference(/*drop_snapshots=*/false);
}

TEST(RecoveryTest, JournalOnlyColdStartReplaysEverything) {
  CheckRecoveryMatchesReference(/*drop_snapshots=*/true);
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
  auto service = TunerService::Open(MakeTuner(db), &db.pool(),
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
  std::unique_ptr<Tuner> ref = MakeTuner(ref_db);
  for (size_t i = 0; i < 10; ++i) {
    ref->AnalyzeQuery(ref_w[i]);
    if (i == 7) ref->Feedback(IndexSet{ref_ids[0]}, IndexSet{ref_ids[1]});
    ASSERT_EQ(history[i], ref->Recommendation())
        << "diverged at statement " << i;
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
    auto service = TunerService::Open(MakeTuner(db), &db.pool(),
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
    auto service = TunerService::Open(MakeTuner(db), &db.pool(),
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
    auto service = TunerService::Open(MakeTuner(db), &db.pool(),
                                      options, &stats);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ(stats.analyzed, 60u);
  }
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Every file of a checkpoint directory, by name.
std::map<std::string, std::string> DirBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = ReadAll(entry.path());
  }
  return files;
}

/// Rewrites the snapshot at `path` in the layout of format version 1: a
/// tuner-kind byte (1 = WFIT) between the pool section and the parts.
void RewriteAsVersion1(const std::string& path) {
  constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4;
  const std::string payload = ReadAll(path).substr(kHeaderBytes);
  persist::Decoder d(payload);
  uint64_t u64 = 0;
  uint32_t defs = 0;
  uint32_t table = 0;
  std::vector<uint32_t> columns;
  ASSERT_TRUE(d.GetU64(&u64).ok() && d.GetU64(&u64).ok() &&
              d.GetU32(&defs).ok());
  for (uint32_t i = 0; i < defs; ++i) {
    ASSERT_TRUE(d.GetU32(&table).ok() && d.GetU32Vector(&columns).ok());
  }
  const size_t pool_end = payload.size() - d.remaining();
  const std::string v1 =
      payload.substr(0, pool_end) + '\x01' + payload.substr(pool_end);
  persist::Encoder header;
  header.PutU32(persist::kSnapshotMagic);
  header.PutU32(1);
  header.PutU64(v1.size());
  header.PutU32(Crc32(v1));
  header.PutU32(Crc32(header.data()));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << header.data() << v1;
}

// A tenant an older build checkpointed: its journal is compacted, so
// skipping its snapshots like corrupt files would leave a snapshot-less
// journal whose base the LSN check cannot match, and recovery would
// silently cold-start the tenant at statement 0. It is refused instead,
// before the journal writer opens, with every file left as it was.
TEST(RecoveryTest, OlderSnapshotVersionIsRefusedUntouched) {
  const std::string dir =
      (fs::path(::testing::TempDir()) /
       ("wfit_recovery_v1_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  TunerServiceOptions options = BaseOptions();
  options.checkpoint_dir = dir;
  options.checkpoint_every_statements = 20;
  options.journal_compact_min_bytes = 0;
  options.checkpoint_on_shutdown = false;
  {
    TestDb db;
    SeedIds(db);
    Workload w = BuildWorkload(db, 70);
    auto service = TunerService::Open(MakeTuner(db), &db.pool(), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    (*service)->Start();
    Produce(**service, w, 0, 70);
    (*service)->Shutdown();
  }
  auto journal =
      persist::ReadJournal((fs::path(dir) / "journal.wfj").string());
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_GT(journal->base_lsn, 0u) << "the journal must be compacted";
  const std::vector<std::string> snapshots = persist::ListSnapshots(dir);
  ASSERT_FALSE(snapshots.empty());
  for (const std::string& path : snapshots) RewriteAsVersion1(path);
  const std::map<std::string, std::string> before = DirBytes(dir);

  TestDb db;
  SeedIds(db);
  auto service = TunerService::Open(MakeTuner(db), &db.pool(), options);
  ASSERT_FALSE(service.ok()) << "opened an older build's tree";
  EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(service.status().message().find("version 1"), std::string::npos)
      << service.status().ToString();
  EXPECT_EQ(DirBytes(dir), before);
}

// A checksummed journal record this build cannot decode is another
// build's format, not a torn write: recovery refuses the journal instead
// of stopping replay in front of the record and letting the reopened
// writer truncate it. Type 4 is the epoch record of builds that had an
// overload controller (seq, u8 mode, f64 rate, u64 seed); 9 was never a
// type.
TEST(RecoveryTest, JournalWithUnknownRecordTypeIsRefusedUntouched) {
  for (uint8_t type : {uint8_t{4}, uint8_t{9}}) {
    SCOPED_TRACE("record type " + std::to_string(type));
    const std::string dir =
        (fs::path(::testing::TempDir()) /
         ("wfit_recovery_type" + std::to_string(type) + "_" +
          std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    TunerServiceOptions options = BaseOptions();
    options.checkpoint_dir = dir;
    options.checkpoint_every_statements = 1u << 30;
    options.checkpoint_on_shutdown = false;
    {
      TestDb db;
      SeedIds(db);
      Workload w = BuildWorkload(db, 10);
      auto service = TunerService::Open(MakeTuner(db), &db.pool(), options);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      (*service)->Start();
      Produce(**service, w, 0, 10);
      (*service)->Shutdown();
    }
    persist::Encoder record;
    record.PutU8(type);
    record.PutU64(10);
    if (type == 4) {
      record.PutU8(2);
      record.PutDouble(0.5);
      record.PutU64(7);
    }
    persist::Encoder frame;
    frame.PutU32(static_cast<uint32_t>(record.size()));
    frame.PutU32(Crc32(record.data()));
    {
      std::ofstream out(fs::path(dir) / "journal.wfj",
                        std::ios::binary | std::ios::app);
      out << frame.data() << record.data();
    }
    const std::map<std::string, std::string> before = DirBytes(dir);

    TestDb db;
    SeedIds(db);
    auto service = TunerService::Open(MakeTuner(db), &db.pool(), options);
    ASSERT_FALSE(service.ok());
    EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition)
        << service.status().ToString();
    EXPECT_EQ(DirBytes(dir), before);
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
      TunerService::Open(MakeTuner(db), &db.pool(), options);
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
  std::unique_ptr<Tuner> tuner = MakeTuner(db);
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
  auto service2 = TunerService::Open(MakeTuner(db2),
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
