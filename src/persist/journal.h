// Write-ahead journal for the online tuning service. Every ingested
// statement is appended (with its sequence number) BEFORE it is analyzed,
// and every applied DBA vote is appended with the statement boundary at
// which it took effect — so replaying the journal through the same tuner
// reproduces the analysis history exactly.
//
// Framing per record: [u32 payload_len][u32 payload_crc][payload]. The
// reader accepts every complete, checksummed record and stops cleanly at
// the first torn or corrupt one (a crash mid-append leaves a torn tail;
// that is expected, not an error). A checksummed record it cannot decode
// is refused instead. Reopening for append truncates the file back to the
// last complete record so new records are never hidden behind garbage.
//
// fsync batching: Append only buffers; Sync() makes everything appended so
// far durable. The service syncs once per ingested batch (before analysis)
// and before any analysis that follows a journaled vote, bounding loss to
// work that was never analyzed.
#ifndef WFIT_PERSIST_JOURNAL_H_
#define WFIT_PERSIST_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/index_set.h"
#include "persist/codec.h"
#include "workload/statement.h"

namespace wfit::persist {

enum class JournalRecordType : uint8_t {
  kStatement = 1,
  kFeedback = 2,
  /// Statement `seq` finished analysis (its post-slot votes precede this
  /// record). Markers pin the durable trajectory point: recovery replays
  /// exactly the statements with contiguous markers and re-queues the
  /// journaled-but-unanalyzed rest as fresh intake, so a crash between the
  /// batch WAL fsync and a vote's application can never push the replay
  /// past a boundary whose vote died in memory.
  kAnalyzed = 3,
  /// Compaction base marker: only ever the FIRST record of a journal,
  /// written by CompactJournal when it drops a prefix already covered by
  /// durable checkpoints. Its `seq` is the LSN of the last dropped record,
  /// so record i of the remaining sequence has absolute LSN seq + i. The
  /// marker itself has no LSN — it is framing metadata, not history.
  kCompactionBase = 5,
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kStatement;
  /// kStatement / kAnalyzed: the statement's sequence number in
  /// the analysis order.
  uint64_t seq = 0;
  Statement statement;
  /// kFeedback: the vote took effect when `boundary` statements had been
  /// analyzed (i.e. immediately after statement boundary-1, or before the
  /// very first statement when 0).
  uint64_t boundary = 0;
  /// Distinguishes the two application slots that share a boundary: a vote
  /// keyed to statement boundary-1 applies in its post-statement slot
  /// (post = true, before that statement's recommendation is recorded),
  /// while ASAP/stale votes apply in statement boundary's pre-statement
  /// slot (post = false). Replay preserves the recorded trajectory only by
  /// honoring the slot.
  bool post = false;
  IndexSet f_plus;
  IndexSet f_minus;
};

/// Statement wire codec (shared with snapshots and tests). IndexIds do not
/// appear in statements; they bind to a catalog whose TableIds are stable
/// across restarts by construction.
void EncodeStatement(const Statement& stmt, Encoder* e);
Status DecodeStatement(Decoder* d, Statement* out);

class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { Close(); }

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens `path` for appending after its last complete record:
  /// `valid_bytes`/`lsn` come from ReadJournal (0/0 for a fresh journal).
  /// The file is truncated to `valid_bytes` first, discarding any torn
  /// tail.
  Status Open(const std::string& path, uint64_t valid_bytes, uint64_t lsn);

  Status AppendStatement(uint64_t seq, const Statement& stmt);
  Status AppendFeedback(uint64_t boundary, bool post, const IndexSet& f_plus,
                        const IndexSet& f_minus);
  Status AppendAnalyzed(uint64_t seq);

  /// Makes every appended record durable (fflush + fsync).
  Status Sync();

  void Close();

  /// Records in the file (pre-existing + appended).
  uint64_t lsn() const { return lsn_; }
  /// File size in bytes after the appends so far.
  uint64_t bytes() const { return bytes_; }
  uint64_t syncs() const { return syncs_; }

 private:
  Status AppendRecord(const std::string& payload);

  std::FILE* file_ = nullptr;
  uint64_t lsn_ = 0;
  uint64_t bytes_ = 0;
  uint64_t syncs_ = 0;
};

struct JournalReadResult {
  std::vector<JournalRecord> records;
  /// Offset one past the last complete record — the append position.
  uint64_t valid_bytes = 0;
  /// True when a torn/corrupt tail was skipped.
  bool truncated_tail = false;
  /// LSN of the last record compacted away (0 for an uncompacted journal):
  /// records[i] has absolute LSN base_lsn + i + 1. Reopening for append
  /// must re-stamp the writer at base_lsn + records.size().
  uint64_t base_lsn = 0;
};

/// Reads every complete record of `path`; tolerant of a torn or corrupt
/// tail (replay simply stops there). NotFound if the file does not exist.
/// FailedPrecondition, with nothing returned, if a checksummed record does
/// not decode: an unknown type, a kCompactionBase anywhere but first, or a
/// malformed body. A kCompactionBase marker (first record only) sets
/// base_lsn and is not returned in `records`.
StatusOr<JournalReadResult> ReadJournal(const std::string& path);

struct CompactionResult {
  uint64_t old_bytes = 0;
  uint64_t new_bytes = 0;
  uint64_t dropped_records = 0;
  /// The journal's base LSN after compaction.
  uint64_t base_lsn = 0;
  /// Append position / record count of the rewritten journal, for
  /// reopening a JournalWriter without a second read pass.
  uint64_t valid_bytes = 0;
  uint64_t record_count = 0;
};

/// Rewrites `path` without the records at absolute LSN <= cover_lsn,
/// prefixed by a kCompactionBase marker carrying the new base. The caller
/// must have closed any writer on `path`, and cover_lsn must be a
/// checkpoint-covered horizon (the journal_lsn of the older of two durable
/// snapshots) — compaction does not check that anything re-creates the
/// dropped history.
/// Kept records are byte-copied, never re-encoded; the rewrite is durable
/// (tmp + fsync + rename + directory fsync) before the old bytes are gone.
/// A cover_lsn at or below the current base is a no-op. Any torn tail is
/// dropped, as reopening a writer would anyway.
StatusOr<CompactionResult> CompactJournal(const std::string& path,
                                          uint64_t cover_lsn);

}  // namespace wfit::persist

#endif  // WFIT_PERSIST_JOURNAL_H_
