#include "persist/journal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "persist/codec.h"
#include "tests/test_util.h"

namespace wfit::persist {
namespace {

namespace fs = std::filesystem;
using wfit::testing::TestDb;

std::string TempPath(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) /
                 ("wfit_journal_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  return (dir / name).string();
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

/// Bit-exact statement comparison through the wire codec.
std::string Wire(const Statement& stmt) {
  Encoder e;
  EncodeStatement(stmt, &e);
  return e.data();
}

class JournalTest : public ::testing::Test {
 protected:
  TestDb db_;
};

TEST_F(JournalTest, StatementCodecRoundTrips) {
  const char* shapes[] = {
      "SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150",
      "SELECT count(*) FROM t1, t2 WHERE t1.k = t2.fk AND t1.a = 5",
      "UPDATE t1 SET d = 1 WHERE a = 77",
      "SELECT count(*) FROM t3 WHERE v = 9",
  };
  for (const char* sql : shapes) {
    Statement original = db_.Bind(sql);
    Encoder e;
    EncodeStatement(original, &e);
    Decoder d(e.data());
    Statement decoded;
    ASSERT_TRUE(DecodeStatement(&d, &decoded).ok()) << sql;
    EXPECT_TRUE(d.done());
    EXPECT_EQ(Wire(original), Wire(decoded)) << sql;
    EXPECT_EQ(original.sql, decoded.sql);
  }
}

TEST_F(JournalTest, AppendAndReadBack) {
  const std::string path = TempPath("roundtrip.wfj");
  fs::remove(path);
  Statement s0 = db_.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150");
  Statement s1 = db_.Bind("UPDATE t1 SET d = 1 WHERE a = 77");
  IndexSet plus{3, 7};
  IndexSet minus{11};
  {
    JournalWriter w;
    ASSERT_TRUE(w.Open(path, 0, 0).ok());
    ASSERT_TRUE(w.AppendStatement(0, s0).ok());
    ASSERT_TRUE(w.AppendStatement(1, s1).ok());
    ASSERT_TRUE(w.AppendFeedback(2, /*post=*/true, plus, minus).ok());
    ASSERT_TRUE(w.AppendAnalyzed(1).ok());
    ASSERT_TRUE(w.Sync().ok());
    EXPECT_EQ(w.lsn(), 4u);
    EXPECT_EQ(w.syncs(), 1u);
  }
  auto result = ReadJournal(path);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->records.size(), 4u);
  EXPECT_FALSE(result->truncated_tail);
  EXPECT_EQ(result->valid_bytes, fs::file_size(path));
  EXPECT_EQ(result->records[0].type, JournalRecordType::kStatement);
  EXPECT_EQ(result->records[0].seq, 0u);
  EXPECT_EQ(Wire(result->records[0].statement), Wire(s0));
  EXPECT_EQ(result->records[1].seq, 1u);
  EXPECT_EQ(Wire(result->records[1].statement), Wire(s1));
  EXPECT_EQ(result->records[2].type, JournalRecordType::kFeedback);
  EXPECT_EQ(result->records[2].boundary, 2u);
  EXPECT_TRUE(result->records[2].post);
  EXPECT_EQ(result->records[2].f_plus, plus);
  EXPECT_EQ(result->records[2].f_minus, minus);
  EXPECT_EQ(result->records[3].type, JournalRecordType::kAnalyzed);
  EXPECT_EQ(result->records[3].seq, 1u);
}

TEST_F(JournalTest, IntactUndecodableRecordIsRefused) {
  // A checksummed record the reader cannot decode is another build's
  // format, not a torn write: an unknown type, or a compaction base that
  // is not the first record.
  const std::string path = TempPath("undecodable.wfj");
  fs::remove(path);
  Statement s0 = db_.Bind("SELECT count(*) FROM t1 WHERE a BETWEEN 0 AND 150");
  {
    JournalWriter w;
    ASSERT_TRUE(w.Open(path, 0, 0).ok());
    ASSERT_TRUE(w.AppendStatement(0, s0).ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  const std::string good = ReadFile(path);
  auto framed = [](uint8_t type) {
    Encoder record;
    record.PutU8(type);
    record.PutU64(1);
    Encoder frame;
    frame.PutU32(static_cast<uint32_t>(record.size()));
    frame.PutU32(Crc32(record.data()));
    return frame.data() + record.data();
  };
  for (uint8_t type :
       {uint8_t{9}, static_cast<uint8_t>(JournalRecordType::kCompactionBase)}) {
    WriteFile(path, good + framed(type));
    auto result = ReadJournal(path);
    ASSERT_FALSE(result.ok()) << "type " << int{type} << " read";
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }

  // An all-zero frame header passes the CRC of an empty payload, but no
  // writer emits an empty record: it is what a crash can leave where the
  // file grew before its data landed, so it reads as a torn tail.
  WriteFile(path, good + std::string(8, '\0'));
  auto result = ReadJournal(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->records.size(), 1u);
  EXPECT_TRUE(result->truncated_tail);
  EXPECT_EQ(result->valid_bytes, good.size());
}

TEST_F(JournalTest, MissingFileIsNotFound) {
  auto result = ReadJournal(TempPath("does_not_exist.wfj"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(JournalTest, TornTailIsTolerated) {
  const std::string path = TempPath("torn.wfj");
  fs::remove(path);
  Statement stmt = db_.Bind("SELECT count(*) FROM t3 WHERE v = 9");
  {
    JournalWriter w;
    ASSERT_TRUE(w.Open(path, 0, 0).ok());
    for (uint64_t seq = 0; seq < 3; ++seq) {
      ASSERT_TRUE(w.AppendStatement(seq, stmt).ok());
    }
    ASSERT_TRUE(w.Sync().ok());
  }
  std::string contents = ReadFile(path);
  // A crash mid-append leaves a partial final record.
  WriteFile(path, contents.substr(0, contents.size() - 5));
  auto result = ReadJournal(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 2u);
  EXPECT_TRUE(result->truncated_tail);
  EXPECT_LT(result->valid_bytes, contents.size());
  EXPECT_EQ(result->records[1].seq, 1u);
}

TEST_F(JournalTest, CorruptRecordStopsReplayAtLastGoodRecord) {
  const std::string path = TempPath("corrupt.wfj");
  fs::remove(path);
  Statement stmt = db_.Bind("SELECT count(*) FROM t3 WHERE v = 9");
  uint64_t first_record_end = 0;
  {
    JournalWriter w;
    ASSERT_TRUE(w.Open(path, 0, 0).ok());
    ASSERT_TRUE(w.AppendStatement(0, stmt).ok());
    first_record_end = w.bytes();
    ASSERT_TRUE(w.AppendStatement(1, stmt).ok());
    ASSERT_TRUE(w.AppendStatement(2, stmt).ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  std::string contents = ReadFile(path);
  // Flip one payload byte inside the second record.
  contents[first_record_end + 10] ^= 0x40;
  WriteFile(path, contents);
  auto result = ReadJournal(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 1u);
  EXPECT_TRUE(result->truncated_tail);
  EXPECT_EQ(result->valid_bytes, first_record_end);
}

TEST_F(JournalTest, ReopenTruncatesTornTailAndAppends) {
  const std::string path = TempPath("reopen.wfj");
  fs::remove(path);
  Statement stmt = db_.Bind("SELECT count(*) FROM t2 WHERE x BETWEEN 10 AND 40");
  {
    JournalWriter w;
    ASSERT_TRUE(w.Open(path, 0, 0).ok());
    ASSERT_TRUE(w.AppendStatement(0, stmt).ok());
    ASSERT_TRUE(w.AppendStatement(1, stmt).ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  std::string contents = ReadFile(path);
  WriteFile(path, contents + "torn-garbage");
  auto before = ReadJournal(path);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->truncated_tail);
  ASSERT_EQ(before->records.size(), 2u);
  // Recovery-style reopen: truncate to the last complete record, append.
  {
    JournalWriter w;
    ASSERT_TRUE(
        w.Open(path, before->valid_bytes, before->records.size()).ok());
    EXPECT_EQ(w.lsn(), 2u);
    ASSERT_TRUE(w.AppendStatement(2, stmt).ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  auto after = ReadJournal(path);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->truncated_tail);
  ASSERT_EQ(after->records.size(), 3u);
  EXPECT_EQ(after->records[2].seq, 2u);
}

}  // namespace
}  // namespace wfit::persist
