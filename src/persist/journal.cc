#include "persist/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/crc32.h"

namespace wfit::persist {

namespace {

void EncodeColumnRef(const ColumnRef& ref, Encoder* e) {
  e->PutU32(ref.table);
  e->PutU32(ref.column);
}

Status DecodeColumnRef(Decoder* d, ColumnRef* out) {
  WFIT_RETURN_IF_ERROR(d->GetU32(&out->table));
  WFIT_RETURN_IF_ERROR(d->GetU32(&out->column));
  return Status::Ok();
}

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::Internal(op + " " + path + ": " + std::strerror(errno));
}

}  // namespace

void EncodeStatement(const Statement& stmt, Encoder* e) {
  e->PutU8(static_cast<uint8_t>(stmt.kind));
  e->PutU32(static_cast<uint32_t>(stmt.tables.size()));
  for (const StatementTable& t : stmt.tables) {
    e->PutU32(t.table);
    e->PutU32(static_cast<uint32_t>(t.predicates.size()));
    for (const ScanPredicate& p : t.predicates) {
      EncodeColumnRef(p.column, e);
      e->PutU8(p.equality ? 1 : 0);
      e->PutU8(p.sargable ? 1 : 0);
      e->PutDouble(p.selectivity);
    }
    e->PutU32Vector(t.referenced_columns);
  }
  e->PutU32(static_cast<uint32_t>(stmt.joins.size()));
  for (const JoinClause& j : stmt.joins) {
    EncodeColumnRef(j.left, e);
    EncodeColumnRef(j.right, e);
  }
  e->PutU32(static_cast<uint32_t>(stmt.order_by.size()));
  for (const ColumnRef& c : stmt.order_by) EncodeColumnRef(c, e);
  e->PutU32(static_cast<uint32_t>(stmt.group_by.size()));
  for (const ColumnRef& c : stmt.group_by) EncodeColumnRef(c, e);
  e->PutU32Vector(stmt.set_columns);
  e->PutU64(stmt.insert_rows);
  e->PutString(stmt.sql);
}

Status DecodeStatement(Decoder* d, Statement* out) {
  uint8_t kind = 0;
  WFIT_RETURN_IF_ERROR(d->GetU8(&kind));
  if (kind > static_cast<uint8_t>(StatementKind::kInsert)) {
    return Status::InvalidArgument("statement: bad kind");
  }
  out->kind = static_cast<StatementKind>(kind);
  // Minimum encoded sizes bound every count: a table is 12 bytes, a
  // predicate 18, a join 16 and a column reference 8.
  uint32_t num_tables = 0;
  WFIT_RETURN_IF_ERROR(d->GetCount(&num_tables, 12));
  out->tables.clear();
  out->tables.reserve(num_tables);
  for (uint32_t i = 0; i < num_tables; ++i) {
    StatementTable t;
    WFIT_RETURN_IF_ERROR(d->GetU32(&t.table));
    uint32_t num_preds = 0;
    WFIT_RETURN_IF_ERROR(d->GetCount(&num_preds, 18));
    t.predicates.reserve(num_preds);
    for (uint32_t j = 0; j < num_preds; ++j) {
      ScanPredicate p;
      WFIT_RETURN_IF_ERROR(DecodeColumnRef(d, &p.column));
      uint8_t flag = 0;
      WFIT_RETURN_IF_ERROR(d->GetU8(&flag));
      p.equality = flag != 0;
      WFIT_RETURN_IF_ERROR(d->GetU8(&flag));
      p.sargable = flag != 0;
      WFIT_RETURN_IF_ERROR(d->GetDouble(&p.selectivity));
      t.predicates.push_back(p);
    }
    WFIT_RETURN_IF_ERROR(d->GetU32Vector(&t.referenced_columns));
    out->tables.push_back(std::move(t));
  }
  uint32_t num_joins = 0;
  WFIT_RETURN_IF_ERROR(d->GetCount(&num_joins, 16));
  out->joins.clear();
  out->joins.reserve(num_joins);
  for (uint32_t i = 0; i < num_joins; ++i) {
    JoinClause j;
    WFIT_RETURN_IF_ERROR(DecodeColumnRef(d, &j.left));
    WFIT_RETURN_IF_ERROR(DecodeColumnRef(d, &j.right));
    out->joins.push_back(j);
  }
  uint32_t n = 0;
  WFIT_RETURN_IF_ERROR(d->GetCount(&n, 8));
  out->order_by.clear();
  out->order_by.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ColumnRef c;
    WFIT_RETURN_IF_ERROR(DecodeColumnRef(d, &c));
    out->order_by.push_back(c);
  }
  WFIT_RETURN_IF_ERROR(d->GetCount(&n, 8));
  out->group_by.clear();
  out->group_by.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ColumnRef c;
    WFIT_RETURN_IF_ERROR(DecodeColumnRef(d, &c));
    out->group_by.push_back(c);
  }
  WFIT_RETURN_IF_ERROR(d->GetU32Vector(&out->set_columns));
  WFIT_RETURN_IF_ERROR(d->GetU64(&out->insert_rows));
  WFIT_RETURN_IF_ERROR(d->GetString(&out->sql));
  return Status::Ok();
}

Status JournalWriter::Open(const std::string& path, uint64_t valid_bytes,
                           uint64_t lsn) {
  WFIT_CHECK(file_ == nullptr, "JournalWriter already open");
  // Drop any torn tail first: appending after garbage would strand every
  // new record behind the reader's stop point.
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0 &&
      errno != ENOENT) {
    return ErrnoStatus("truncate", path);
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) return ErrnoStatus("open", path);
  lsn_ = lsn;
  bytes_ = valid_bytes;
  return Status::Ok();
}

Status JournalWriter::AppendRecord(const std::string& payload) {
  WFIT_CHECK(file_ != nullptr, "journal not open");
  Encoder frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload));
  const std::string& header = frame.data();
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    return Status::Internal("journal append: short write");
  }
  ++lsn_;
  bytes_ += header.size() + payload.size();
  return Status::Ok();
}

Status JournalWriter::AppendStatement(uint64_t seq, const Statement& stmt) {
  Encoder e;
  e.PutU8(static_cast<uint8_t>(JournalRecordType::kStatement));
  e.PutU64(seq);
  EncodeStatement(stmt, &e);
  return AppendRecord(e.data());
}

Status JournalWriter::AppendFeedback(uint64_t boundary, bool post,
                                     const IndexSet& f_plus,
                                     const IndexSet& f_minus) {
  Encoder e;
  e.PutU8(static_cast<uint8_t>(JournalRecordType::kFeedback));
  e.PutU64(boundary);
  e.PutU8(post ? 1 : 0);
  e.PutIndexSet(f_plus);
  e.PutIndexSet(f_minus);
  return AppendRecord(e.data());
}

Status JournalWriter::AppendAnalyzed(uint64_t seq) {
  Encoder e;
  e.PutU8(static_cast<uint8_t>(JournalRecordType::kAnalyzed));
  e.PutU64(seq);
  return AppendRecord(e.data());
}

Status JournalWriter::Sync() {
  WFIT_CHECK(file_ != nullptr, "journal not open");
  if (std::fflush(file_) != 0) return Status::Internal("journal fflush");
  if (::fsync(fileno(file_)) != 0) return Status::Internal("journal fsync");
  ++syncs_;
  return Status::Ok();
}

void JournalWriter::Close() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

StatusOr<JournalReadResult> ReadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("journal not found: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  JournalReadResult result;
  size_t pos = 0;
  while (pos < contents.size()) {
    if (contents.size() - pos < 8) break;  // torn frame header
    Decoder frame(std::string_view(contents).substr(pos, 8));
    uint32_t len = 0;
    uint32_t crc = 0;
    WFIT_CHECK(frame.GetU32(&len).ok() && frame.GetU32(&crc).ok(),
               "8-byte frame header must decode");
    if (contents.size() - pos - 8 < len) break;  // torn payload
    // No writer emits an empty record, but an all-zero frame header
    // passes the CRC (Crc32 of nothing is 0). A crash that grew the file
    // before its data landed leaves exactly that: treat it as torn.
    if (len == 0) break;
    std::string_view payload = std::string_view(contents).substr(pos + 8, len);
    if (Crc32(payload) != crc) break;  // corrupt record: stop replay here
    Decoder d(payload);
    JournalRecord record;
    uint8_t type = 0;
    Status st = d.GetU8(&type);
    if (st.ok()) {
      switch (static_cast<JournalRecordType>(type)) {
        case JournalRecordType::kStatement:
          record.type = JournalRecordType::kStatement;
          st = d.GetU64(&record.seq);
          if (st.ok()) st = DecodeStatement(&d, &record.statement);
          break;
        case JournalRecordType::kAnalyzed:
          record.type = JournalRecordType::kAnalyzed;
          st = d.GetU64(&record.seq);
          break;
        case JournalRecordType::kCompactionBase:
          // Only legal as the very first frame.
          if (pos != 0) {
            st = Status::InvalidArgument("misplaced compaction base");
            break;
          }
          st = d.GetU64(&result.base_lsn);
          if (st.ok() && !d.done()) {
            st = Status::InvalidArgument("trailing base bytes");
          }
          if (st.ok()) {
            pos += 8 + len;
            continue;  // metadata, not a replayable record
          }
          break;
        case JournalRecordType::kFeedback: {
          record.type = JournalRecordType::kFeedback;
          st = d.GetU64(&record.boundary);
          uint8_t post = 0;
          if (st.ok()) st = d.GetU8(&post);
          record.post = post != 0;
          if (st.ok()) st = d.GetIndexSet(&record.f_plus);
          if (st.ok()) st = d.GetIndexSet(&record.f_minus);
          break;
        }
        default:
          st = Status::InvalidArgument("unknown record type " +
                                       std::to_string(type));
      }
    }
    // A checksummed record that still fails to decode is no torn write but
    // another build's (or a foreign) format. Stopping here would let the
    // reopened writer truncate it and everything behind it, so refuse.
    if (!st.ok()) {
      return Status::FailedPrecondition(
          "journal " + path + ": record at byte " + std::to_string(pos) +
          " is intact but undecodable (" + st.message() +
          "); this build cannot replay it");
    }
    result.records.push_back(std::move(record));
    pos += 8 + len;
  }
  result.valid_bytes = pos;
  result.truncated_tail = pos < contents.size();
  return result;
}

StatusOr<CompactionResult> CompactJournal(const std::string& path,
                                          uint64_t cover_lsn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("journal not found: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();

  // Raw frame scan: find the current base and the byte offset of the
  // first record to keep. Payloads are never decoded — kept records are
  // byte-copied so compaction cannot corrupt what it retains.
  uint64_t base_lsn = 0;
  uint64_t lsn = 0;       // absolute LSN of the last record scanned
  uint64_t keep_off = 0;  // offset of the first kept record
  uint64_t kept = 0;
  size_t pos = 0;
  bool first = true;
  while (pos < contents.size()) {
    if (contents.size() - pos < 8) break;
    Decoder frame(std::string_view(contents).substr(pos, 8));
    uint32_t len = 0, crc = 0;
    WFIT_CHECK(frame.GetU32(&len).ok() && frame.GetU32(&crc).ok(),
               "8-byte frame header must decode");
    if (contents.size() - pos - 8 < len) break;
    std::string_view payload = std::string_view(contents).substr(pos + 8, len);
    if (Crc32(payload) != crc) break;
    bool is_base = false;
    if (first && !payload.empty() &&
        payload[0] == static_cast<char>(JournalRecordType::kCompactionBase)) {
      Decoder d(payload.substr(1));
      if (!d.GetU64(&base_lsn).ok()) {
        return Status::InvalidArgument("journal: bad compaction base");
      }
      lsn = base_lsn;
      is_base = true;
    }
    first = false;
    pos += 8 + len;
    if (is_base) {
      keep_off = pos;
      continue;
    }
    ++lsn;
    if (lsn <= cover_lsn) {
      keep_off = pos;  // still inside the dropped prefix
    } else {
      ++kept;
    }
  }

  CompactionResult result;
  result.old_bytes = contents.size();
  if (cover_lsn <= base_lsn) {  // nothing new to drop
    result.new_bytes = contents.size();
    result.base_lsn = base_lsn;
    result.valid_bytes = pos;
    result.record_count = lsn - base_lsn;
    return result;
  }
  const uint64_t new_base = std::min(cover_lsn, lsn);

  Encoder marker;
  marker.PutU8(static_cast<uint8_t>(JournalRecordType::kCompactionBase));
  marker.PutU64(new_base);
  Encoder framed;
  framed.PutU32(static_cast<uint32_t>(marker.size()));
  framed.PutU32(Crc32(marker.data()));

  const std::string tmp = path + ".compact.tmp";
  {
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr) return ErrnoStatus("open", tmp);
    const std::string& head = framed.data();
    const std::string& body = marker.data();
    bool ok =
        std::fwrite(head.data(), 1, head.size(), out) == head.size() &&
        std::fwrite(body.data(), 1, body.size(), out) == body.size() &&
        (pos == keep_off ||
         std::fwrite(contents.data() + keep_off, 1, pos - keep_off, out) ==
             pos - keep_off);
    if (ok) ok = std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
    std::fclose(out);
    if (!ok) {
      std::remove(tmp.c_str());
      return Status::Internal("journal compact: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return ErrnoStatus("rename", tmp);
  }
  // The rename must survive a crash too: fsync the containing directory.
  {
    std::string dir = path;
    const size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }

  result.new_bytes = framed.size() + marker.size() + (pos - keep_off);
  result.dropped_records = new_base - base_lsn;
  result.base_lsn = new_base;
  result.valid_bytes = result.new_bytes;
  result.record_count = kept;
  return result;
}

}  // namespace wfit::persist
