#include "persist/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/wfa_plus.h"
#include "core/wfit.h"
#include "persist/codec.h"
#include "tests/test_util.h"

namespace wfit::persist {
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

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) /
                 ("wfit_snapshot_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// Interns the indices both runs vote on, in a fixed order, so the fresh
/// pool's interning prefix matches the snapshotted one.
std::vector<IndexId> SeedVoteIndices(TestDb& db) {
  return {db.Ix("t1", {"a"}), db.Ix("t2", {"x"})};
}

TEST(SnapshotTest, WfitRoundTripContinuesIdentically) {
  const std::string dir = FreshDir("wfit_roundtrip");
  const size_t kTotal = 60;
  const size_t kSplit = 31;

  TestDb db1;
  std::vector<IndexId> votes1 = SeedVoteIndices(db1);
  Workload w1 = BuildWorkload(db1, kTotal);
  Wfit original(&db1.pool(), &db1.optimizer(), IndexSet{}, FastOptions());
  for (size_t i = 0; i < kSplit; ++i) {
    original.AnalyzeQuery(w1[i]);
    if (i == 10) original.Feedback(IndexSet{votes1[0]}, IndexSet{});
    if (i == 20) original.Feedback(IndexSet{}, IndexSet{votes1[1]});
  }
  SnapshotMeta meta;
  meta.analyzed = kSplit;
  meta.journal_lsn = 123;
  auto bytes = WriteSnapshot(dir, original, db1.pool(), meta);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_GT(*bytes, 0u);

  // A "restarted process": fresh catalog wiring, same construction order.
  TestDb db2;
  std::vector<IndexId> votes2 = SeedVoteIndices(db2);
  Workload w2 = BuildWorkload(db2, kTotal);
  Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  SnapshotLoadResult loaded = LoadLatestSnapshot(dir, &restored, &db2.pool());
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.meta.analyzed, kSplit);
  EXPECT_EQ(loaded.meta.journal_lsn, 123u);
  EXPECT_EQ(loaded.skipped, 0u);
  EXPECT_EQ(db2.pool().size(), db1.pool().size());

  EXPECT_EQ(restored.Recommendation(), original.Recommendation());
  EXPECT_EQ(restored.RepartitionCount(), original.RepartitionCount());
  EXPECT_EQ(restored.FeedbackCount(), original.FeedbackCount());
  EXPECT_EQ(restored.TotalStates(), original.TotalStates());

  // The decisive property: both runs continue bit-for-bit identically,
  // including further feedback and repartitions.
  for (size_t i = kSplit; i < kTotal; ++i) {
    original.AnalyzeQuery(w1[i]);
    restored.AnalyzeQuery(w2[i]);
    if (i == 40) {
      original.Feedback(IndexSet{votes1[1]}, IndexSet{});
      restored.Feedback(IndexSet{votes2[1]}, IndexSet{});
    }
    ASSERT_EQ(restored.Recommendation(), original.Recommendation())
        << "diverged at statement " << i;
  }
  EXPECT_EQ(restored.RepartitionCount(), original.RepartitionCount());
  EXPECT_EQ(restored.selector().statements_seen(),
            original.selector().statements_seen());
  EXPECT_EQ(restored.selector().universe(), original.selector().universe());
}

TEST(SnapshotTest, CorruptPayloadIsRejected) {
  const std::string dir = FreshDir("corrupt_payload");
  TestDb db;
  Workload w = BuildWorkload(db, 10);
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  for (const Statement& q : w) tuner.AnalyzeQuery(q);
  SnapshotMeta meta;
  meta.analyzed = 10;
  ASSERT_TRUE(WriteSnapshot(dir, tuner, db.pool(), meta).ok());
  std::string path = ListSnapshots(dir)[0];

  std::string contents = ReadFile(path);
  contents[40] ^= 0x01;  // one flipped bit inside the payload
  WriteFile(path, contents);

  TestDb db2;
  Wfit fresh(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  SnapshotMeta out;
  Status st = ReadSnapshot(path, &fresh, &db2.pool(), &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("checksum"), std::string::npos);
  // The rejected snapshot left the fresh tuner untouched.
  EXPECT_EQ(fresh.selector().statements_seen(), 0u);
}

TEST(SnapshotTest, VersionMismatchIsRejected) {
  const std::string dir = FreshDir("version");
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  SnapshotMeta meta;
  ASSERT_TRUE(WriteSnapshot(dir, tuner, db.pool(), meta).ok());
  std::string path = ListSnapshots(dir)[0];

  // Patch the header's version field and recompute the header CRC so only
  // the version check can fire.
  std::string contents = ReadFile(path);
  Encoder patched;
  patched.PutU32(kSnapshotMagic);
  patched.PutU32(kSnapshotVersion + 7);
  std::string header = patched.Release() + contents.substr(8, 12);
  uint32_t header_crc = Crc32(header);
  Encoder crc_enc;
  crc_enc.PutU32(header_crc);
  WriteFile(path, header + crc_enc.data() + contents.substr(24));

  // Another build's format is refused, not skipped like a corrupt file:
  // LoadLatestSnapshot stops there instead of falling back past it.
  TestDb db2;
  Wfit fresh(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  SnapshotMeta out;
  Status st = ReadSnapshot(path, &fresh, &db2.pool(), &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("version"), std::string::npos);
  SnapshotLoadResult loaded = LoadLatestSnapshot(dir, &fresh, &db2.pool());
  EXPECT_FALSE(loaded.loaded);
  EXPECT_EQ(loaded.skipped, 0u);
  EXPECT_EQ(loaded.status.code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, FallsBackToPreviousSnapshotWhenNewestIsCorrupt) {
  const std::string dir = FreshDir("fallback");
  TestDb db;
  Workload w = BuildWorkload(db, 30);
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  for (size_t i = 0; i < 15; ++i) tuner.AnalyzeQuery(w[i]);
  IndexSet rec_at_15 = tuner.Recommendation();
  SnapshotMeta meta;
  meta.analyzed = 15;
  ASSERT_TRUE(WriteSnapshot(dir, tuner, db.pool(), meta).ok());
  for (size_t i = 15; i < 30; ++i) tuner.AnalyzeQuery(w[i]);
  meta.analyzed = 30;
  ASSERT_TRUE(WriteSnapshot(dir, tuner, db.pool(), meta).ok());

  std::vector<std::string> snapshots = ListSnapshots(dir);
  ASSERT_EQ(snapshots.size(), 2u);
  std::string newest = ReadFile(snapshots[0]);
  newest[newest.size() / 2] ^= 0xFF;
  WriteFile(snapshots[0], newest);

  TestDb db2;
  Wfit restored(&db2.pool(), &db2.optimizer(), IndexSet{}, FastOptions());
  SnapshotLoadResult loaded = LoadLatestSnapshot(dir, &restored, &db2.pool());
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.skipped, 1u);
  EXPECT_EQ(loaded.meta.analyzed, 15u);
  EXPECT_EQ(restored.Recommendation(), rec_at_15);
}

TEST(SnapshotTest, TunerKindMismatchIsRejected) {
  const std::string dir = FreshDir("kind_mismatch");
  TestDb db;
  Wfit wfit_tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  SnapshotMeta meta;
  ASSERT_TRUE(WriteSnapshot(dir, wfit_tuner, db.pool(), meta).ok());

  TestDb db2;
  std::vector<IndexSet> parts{IndexSet{db2.Ix("t1", {"a"})}};
  WfaPlus wfa(&db2.pool(), &db2.optimizer(), parts, IndexSet{});
  SnapshotMeta out;
  Status st = ReadSnapshot(ListSnapshots(dir)[0], &wfa, &db2.pool(), &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, UnsupportedTunerIsRefused) {
  class NullTuner : public Tuner {
   public:
    void AnalyzeQuery(const Statement&) override {}
    IndexSet Recommendation() const override { return {}; }
    std::string name() const override { return "null"; }
  };
  TestDb db;
  NullTuner tuner;
  SnapshotMeta meta;
  Status st = WriteSnapshotFile(
      (fs::path(FreshDir("unsupported")) / "s.wfsnap").string(), tuner,
      db.pool(), meta);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, PrunesToKeepCount) {
  const std::string dir = FreshDir("prune");
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  Workload w = BuildWorkload(db, 8);
  SnapshotMeta meta;
  for (size_t i = 0; i < 8; ++i) {
    tuner.AnalyzeQuery(w[i]);
    meta.analyzed = i + 1;
    ASSERT_TRUE(WriteSnapshot(dir, tuner, db.pool(), meta, /*keep=*/2).ok());
  }
  std::vector<std::string> snapshots = ListSnapshots(dir);
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_NE(snapshots[0].find("00000000000000000008"), std::string::npos);
  EXPECT_NE(snapshots[1].find("00000000000000000007"), std::string::npos);
}

TEST(SnapshotTest, EmptyDirectoryLoadsNothing) {
  const std::string dir = FreshDir("empty");
  TestDb db;
  Wfit tuner(&db.pool(), &db.optimizer(), IndexSet{}, FastOptions());
  SnapshotLoadResult loaded = LoadLatestSnapshot(dir, &tuner, &db.pool());
  EXPECT_FALSE(loaded.loaded);
  EXPECT_EQ(loaded.skipped, 0u);
}

}  // namespace
}  // namespace wfit::persist
