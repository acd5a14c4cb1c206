#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/crc32.h"
#include "core/wfit.h"
#include "persist/codec.h"

namespace wfit::persist {

namespace {

namespace fs = std::filesystem;

constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4;
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".wfsnap";

std::string SnapshotName(uint64_t analyzed) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(analyzed), kSnapshotSuffix);
  return buf;
}

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::Internal(op + " " + path + ": " + std::strerror(errno));
}

/// fsync a directory so a renamed-in file survives a crash.
Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open dir", dir);
  Status st = ::fsync(fd) == 0 ? Status::Ok() : ErrnoStatus("fsync dir", dir);
  ::close(fd);
  return st;
}

// --- pool section -------------------------------------------------------

void EncodePool(const IndexPool& pool, Encoder* e) {
  e->PutU32(static_cast<uint32_t>(pool.size()));
  for (IndexId id = 0; id < pool.size(); ++id) {
    const IndexDef& def = pool.def(id);
    e->PutU32(def.table);
    e->PutU32Vector(def.columns);
  }
}

/// Decodes the recorded definitions in id order, checked against the
/// catalog but not yet interned (InternPool does that once the whole file
/// has validated).
Status DecodePool(Decoder* d, const Catalog& catalog,
                  std::vector<IndexDef>* defs) {
  uint32_t count = 0;
  WFIT_RETURN_IF_ERROR(d->GetU32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    IndexDef def;
    WFIT_RETURN_IF_ERROR(d->GetU32(&def.table));
    WFIT_RETURN_IF_ERROR(d->GetU32Vector(&def.columns));
    if (def.columns.empty() || def.table >= catalog.num_tables()) {
      return Status::InvalidArgument("snapshot: bad index definition");
    }
    for (uint32_t col : def.columns) {
      if (col >= catalog.table(def.table).columns.size()) {
        return Status::InvalidArgument("snapshot: bad index column");
      }
    }
    defs->push_back(std::move(def));
  }
  return Status::Ok();
}

/// Re-interns the decoded definitions in id order. The pool is
/// append-only, so a pool that already holds a prefix (or all) of them
/// verifies instead of growing; an id mismatch means the pool diverged
/// from the one the snapshot was taken against.
Status InternPool(const std::vector<IndexDef>& defs, IndexPool* pool) {
  for (IndexId expected = 0; expected < defs.size(); ++expected) {
    if (pool->Intern(defs[expected]) != expected) {
      return Status::InvalidArgument(
          "snapshot: pool interning order diverged");
    }
  }
  return Status::Ok();
}

// --- windowed statistics ------------------------------------------------

void EncodeWindows(
    const std::vector<std::pair<uint64_t, std::vector<std::pair<uint64_t, double>>>>&
        windows,
    Encoder* e) {
  e->PutU32(static_cast<uint32_t>(windows.size()));
  for (const auto& [key, entries] : windows) {
    e->PutU64(key);
    e->PutU32(static_cast<uint32_t>(entries.size()));
    for (const auto& [n, v] : entries) {
      e->PutU64(n);
      e->PutDouble(v);
    }
  }
}

Status DecodeWindows(
    Decoder* d,
    std::vector<std::pair<uint64_t, std::vector<std::pair<uint64_t, double>>>>*
        out) {
  uint32_t count = 0;
  WFIT_RETURN_IF_ERROR(d->GetU32(&count));
  out->clear();
  out->reserve(std::min<size_t>(count, 1 << 16));
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t key = 0;
    WFIT_RETURN_IF_ERROR(d->GetU64(&key));
    uint32_t entries = 0;
    WFIT_RETURN_IF_ERROR(d->GetU32(&entries));
    std::vector<std::pair<uint64_t, double>> window;
    window.reserve(std::min<size_t>(entries, 1 << 16));
    for (uint32_t j = 0; j < entries; ++j) {
      uint64_t n = 0;
      double v = 0.0;
      WFIT_RETURN_IF_ERROR(d->GetU64(&n));
      WFIT_RETURN_IF_ERROR(d->GetDouble(&v));
      // RecencyWindow aborts on non-monotonic positions (internal
      // invariant); reject them here so a damaged-but-checksummed file
      // degrades to the fallback snapshot instead of a crash loop.
      if (!window.empty() && n < window.back().first) {
        return Status::InvalidArgument(
            "snapshot: window positions not monotonic");
      }
      window.emplace_back(n, v);
    }
    out->emplace_back(key, std::move(window));
  }
  return Status::Ok();
}

void EncodeSelector(const SelectorState& s, Encoder* e) {
  e->PutIndexSet(s.universe);
  e->PutU64(s.position);
  e->PutString(s.rng_state);
  std::vector<std::pair<uint64_t, std::vector<std::pair<uint64_t, double>>>>
      benefit;
  benefit.reserve(s.benefit_windows.size());
  for (const auto& [id, entries] : s.benefit_windows) {
    benefit.emplace_back(id, entries);
  }
  EncodeWindows(benefit, e);
  EncodeWindows(s.interaction_windows, e);
}

Status DecodeSelector(Decoder* d, SelectorState* out) {
  WFIT_RETURN_IF_ERROR(d->GetIndexSet(&out->universe));
  WFIT_RETURN_IF_ERROR(d->GetU64(&out->position));
  WFIT_RETURN_IF_ERROR(d->GetString(&out->rng_state));
  std::vector<std::pair<uint64_t, std::vector<std::pair<uint64_t, double>>>>
      benefit;
  WFIT_RETURN_IF_ERROR(DecodeWindows(d, &benefit));
  out->benefit_windows.clear();
  out->benefit_windows.reserve(benefit.size());
  for (auto& [key, entries] : benefit) {
    if (key > 0xFFFFFFFFull) {
      return Status::InvalidArgument("snapshot: benefit window key range");
    }
    out->benefit_windows.emplace_back(static_cast<IndexId>(key),
                                      std::move(entries));
  }
  WFIT_RETURN_IF_ERROR(DecodeWindows(d, &out->interaction_windows));
  return Status::Ok();
}

// --- per-part work function state ---------------------------------------

void EncodeParts(const std::vector<std::vector<IndexId>>& members,
                 const std::vector<std::vector<double>>& work_values,
                 const std::vector<Mask>& recs, Encoder* e) {
  e->PutU32(static_cast<uint32_t>(members.size()));
  for (size_t i = 0; i < members.size(); ++i) {
    e->PutU32Vector(members[i]);
    e->PutDoubleVector(work_values[i]);
    e->PutU32(recs[i]);
  }
}

Status DecodeParts(Decoder* d, std::vector<std::vector<IndexId>>* members,
                   std::vector<std::vector<double>>* work_values,
                   std::vector<Mask>* recs) {
  uint32_t parts = 0;
  WFIT_RETURN_IF_ERROR(d->GetU32(&parts));
  members->clear();
  work_values->clear();
  recs->clear();
  for (uint32_t i = 0; i < parts; ++i) {
    std::vector<IndexId> m;
    std::vector<double> w;
    uint32_t rec = 0;
    WFIT_RETURN_IF_ERROR(d->GetU32Vector(&m));
    WFIT_RETURN_IF_ERROR(d->GetDoubleVector(&w));
    WFIT_RETURN_IF_ERROR(d->GetU32(&rec));
    members->push_back(std::move(m));
    work_values->push_back(std::move(w));
    recs->push_back(rec);
  }
  return Status::Ok();
}

// --- tuner payload ------------------------------------------------------

Status EncodeTuner(const Tuner& tuner, Encoder* e) {
  const Wfit* wfit = dynamic_cast<const Wfit*>(&tuner);
  if (wfit == nullptr) {
    return Status::FailedPrecondition("snapshot: tuner \"" + tuner.name() +
                                      "\" is not snapshottable");
  }
  WfitState state = wfit->ExportState();
  EncodeParts(state.instance_members, state.work_values, state.current_recs,
              e);
  e->PutIndexSet(state.candidate_set);
  e->PutIndexSet(state.initial_materialized);
  e->PutU64(state.repartitions);
  e->PutU64(state.feedback_events);
  EncodeSelector(state.selector, e);
  return Status::Ok();
}

/// Decodes the tuner payload, held until the whole file has validated.
Status DecodeTuner(Decoder* d, WfitState* state) {
  WFIT_RETURN_IF_ERROR(DecodeParts(d, &state->instance_members,
                                   &state->work_values,
                                   &state->current_recs));
  WFIT_RETURN_IF_ERROR(d->GetIndexSet(&state->candidate_set));
  WFIT_RETURN_IF_ERROR(d->GetIndexSet(&state->initial_materialized));
  WFIT_RETURN_IF_ERROR(d->GetU64(&state->repartitions));
  WFIT_RETURN_IF_ERROR(d->GetU64(&state->feedback_events));
  return DecodeSelector(d, &state->selector);
}

std::string EncodeHeader(const std::string& payload) {
  Encoder header;
  header.PutU32(kSnapshotMagic);
  header.PutU32(kSnapshotVersion);
  header.PutU64(payload.size());
  header.PutU32(Crc32(payload));
  header.PutU32(Crc32(header.data()));
  return header.Release();
}

}  // namespace

Status WriteSnapshotFile(const std::string& path, const Tuner& tuner,
                         const IndexPool& pool, const SnapshotMeta& meta) {
  Encoder payload;
  payload.PutU64(meta.analyzed);
  payload.PutU64(meta.journal_lsn);
  EncodePool(pool, &payload);
  WFIT_RETURN_IF_ERROR(EncodeTuner(tuner, &payload));

  const std::string header = EncodeHeader(payload.data());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return ErrnoStatus("open", path);
  bool ok =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(payload.data().data(), 1, payload.size(), f) ==
          payload.size() &&
      std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!ok) return Status::Internal("snapshot write failed: " + path);
  return Status::Ok();
}

StatusOr<uint64_t> WriteSnapshot(const std::string& dir, const Tuner& tuner,
                                 const IndexPool& pool,
                                 const SnapshotMeta& meta, size_t keep) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("create_directories " + dir);
  const std::string final_path =
      (fs::path(dir) / SnapshotName(meta.analyzed)).string();
  const std::string tmp_path = final_path + ".tmp";
  WFIT_RETURN_IF_ERROR(WriteSnapshotFile(tmp_path, tuner, pool, meta));
  uint64_t bytes = static_cast<uint64_t>(fs::file_size(tmp_path, ec));
  fs::rename(tmp_path, final_path, ec);
  if (ec) return Status::Internal("rename " + tmp_path);
  WFIT_RETURN_IF_ERROR(SyncDir(dir));
  // Prune: keep the newest `keep` (fallback depth), drop the rest.
  std::vector<std::string> snapshots = ListSnapshots(dir);
  for (size_t i = keep; i < snapshots.size(); ++i) {
    fs::remove(snapshots[i], ec);
  }
  return bytes;
}

Status ReadSnapshot(const std::string& path, Tuner* tuner, IndexPool* pool,
                    SnapshotMeta* meta) {
  WFIT_CHECK(tuner != nullptr && pool != nullptr && meta != nullptr,
             "ReadSnapshot requires tuner, pool and meta");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("snapshot not found: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (contents.size() < kHeaderBytes) {
    return Status::InvalidArgument("snapshot: short header");
  }
  Decoder header(std::string_view(contents).substr(0, kHeaderBytes));
  uint32_t magic = 0, version = 0, payload_crc = 0, header_crc = 0;
  uint64_t payload_len = 0;
  WFIT_CHECK(header.GetU32(&magic).ok() && header.GetU32(&version).ok() &&
                 header.GetU64(&payload_len).ok() &&
                 header.GetU32(&payload_crc).ok() &&
                 header.GetU32(&header_crc).ok(),
             "fixed-size header must decode");
  if (Crc32(std::string_view(contents).substr(0, kHeaderBytes - 4)) !=
      header_crc) {
    return Status::InvalidArgument("snapshot: header checksum mismatch");
  }
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("snapshot: bad magic");
  }
  if (version != kSnapshotVersion) {
    return Status::FailedPrecondition(
        "snapshot " + path + ": format version " + std::to_string(version) +
        ", this build reads only version " +
        std::to_string(kSnapshotVersion) +
        "; drain the tenant with the build that wrote it");
  }
  if (contents.size() - kHeaderBytes != payload_len) {
    return Status::InvalidArgument("snapshot: payload length mismatch");
  }
  std::string_view payload =
      std::string_view(contents).substr(kHeaderBytes, payload_len);
  if (Crc32(payload) != payload_crc) {
    return Status::InvalidArgument("snapshot: payload checksum mismatch");
  }

  Decoder d(payload);
  SnapshotMeta decoded;
  WFIT_RETURN_IF_ERROR(d.GetU64(&decoded.analyzed));
  WFIT_RETURN_IF_ERROR(d.GetU64(&decoded.journal_lsn));
  std::vector<IndexDef> defs;
  WFIT_RETURN_IF_ERROR(DecodePool(&d, pool->catalog(), &defs));
  WfitState state;
  WFIT_RETURN_IF_ERROR(DecodeTuner(&d, &state));
  if (!d.done()) {
    return Status::InvalidArgument("snapshot: trailing bytes");
  }
  Wfit* wfit = dynamic_cast<Wfit*>(tuner);
  if (wfit == nullptr) {
    return Status::InvalidArgument(
        "snapshot: holds WFIT state but the service tuner is not WFIT");
  }
  WFIT_RETURN_IF_ERROR(InternPool(defs, pool));
  WFIT_RETURN_IF_ERROR(wfit->RestoreState(state));
  *meta = decoded;
  return Status::Ok();
}

std::vector<std::string> ListSnapshots(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSnapshotPrefix, 0) == 0 &&
        name.size() > std::strlen(kSnapshotSuffix) &&
        name.compare(name.size() - std::strlen(kSnapshotSuffix),
                     std::string::npos, kSnapshotSuffix) == 0) {
      out.push_back(entry.path().string());
    }
  }
  // Fixed-width zero-padded analyzed counts: lexicographic descending ==
  // newest first.
  std::sort(out.rbegin(), out.rend());
  return out;
}

SnapshotLoadResult LoadLatestSnapshot(const std::string& dir, Tuner* tuner,
                                      IndexPool* pool) {
  SnapshotLoadResult result;
  for (const std::string& path : ListSnapshots(dir)) {
    SnapshotMeta meta;
    Status st = ReadSnapshot(path, tuner, pool, &meta);
    if (st.ok()) {
      result.loaded = true;
      result.meta = meta;
      result.path = path;
      return result;
    }
    if (st.code() == StatusCode::kFailedPrecondition) {
      // Another build's format: falling back past it would resume from
      // older state, or from none at all.
      result.status = st;
      return result;
    }
    ++result.skipped;  // corrupt: fall back to the previous snapshot
  }
  return result;
}

}  // namespace wfit::persist
