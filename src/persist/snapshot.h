// Versioned binary snapshots of complete tuner state. A snapshot captures
// everything a restarted service needs to resume mid-stream bit for bit:
// the IndexPool's interning order, the per-part work functions and current
// recommendations, the stable partition, the candidate selector's universe
// / statistics windows / RNG stream position, and the repartition/feedback
// counters of a Wfit tuner.
//
// File layout: a CRC-guarded fixed header (magic, version, payload length,
// payload CRC, header CRC) followed by the payload. Any damage — flipped
// bit, short file — is rejected with a clean Status before a single field
// reaches the tuner; LoadLatestSnapshot then falls back to the previous
// snapshot. A clean header of another format version is refused instead:
// falling back past it would silently resume from older state.
//
// Writes are atomic: tmp file + fsync + rename + directory fsync, then
// older snapshots beyond `keep` are pruned.
#ifndef WFIT_PERSIST_SNAPSHOT_H_
#define WFIT_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/index.h"
#include "common/status.h"
#include "core/tuner.h"

namespace wfit::persist {

inline constexpr uint32_t kSnapshotMagic = 0x4E534657u;  // "WFSN" (LE)
inline constexpr uint32_t kSnapshotVersion = 2;

struct SnapshotMeta {
  /// Statements analyzed when the snapshot was taken (the paper's n).
  uint64_t analyzed = 0;
  /// Journal records already reflected in this state; recovery replays
  /// only records past this point — exactly once.
  uint64_t journal_lsn = 0;
};

/// Serializes `tuner` (a Wfit; FailedPrecondition otherwise) and
/// the pool's interning order to `path`, non-atomically. Prefer
/// WriteSnapshot for the atomic managed variant.
Status WriteSnapshotFile(const std::string& path, const Tuner& tuner,
                         const IndexPool& pool, const SnapshotMeta& meta);

/// Atomic managed write into `dir` under the canonical name
/// snapshot-<analyzed>.wfsnap; keeps the newest `keep` snapshots and prunes
/// the rest. Returns the snapshot size in bytes.
StatusOr<uint64_t> WriteSnapshot(const std::string& dir, const Tuner& tuner,
                                 const IndexPool& pool,
                                 const SnapshotMeta& meta, size_t keep = 2);

/// Restores `path` into a tuner constructed with the same configuration
/// (and the pool it references). Rejects corruption with InvalidArgument
/// and a valid header of another format version with FailedPrecondition,
/// both before touching the pool or the tuner; a file that validates may
/// then add re-interned definitions to the pool (append-only, ids
/// verified).
Status ReadSnapshot(const std::string& path, Tuner* tuner, IndexPool* pool,
                    SnapshotMeta* meta);

/// Snapshot files in `dir`, newest first (by the analyzed count embedded in
/// the fixed-width file name). Non-snapshot files are ignored.
std::vector<std::string> ListSnapshots(const std::string& dir);

struct SnapshotLoadResult {
  bool loaded = false;
  SnapshotMeta meta;
  std::string path;
  /// Corrupt snapshots skipped before one restored.
  uint64_t skipped = 0;
  /// FailedPrecondition when a snapshot of another format version stopped
  /// the walk (loaded == false, nothing restored); Ok otherwise.
  Status status;
};

/// Tries snapshots newest-first until one restores cleanly; corrupt files
/// are skipped (fallback to the previous snapshot), while one of another
/// format version ends the walk with `status` set. loaded == false with an
/// Ok status means the directory holds no usable snapshot (cold start —
/// recovery then replays the journal from the beginning).
SnapshotLoadResult LoadLatestSnapshot(const std::string& dir, Tuner* tuner,
                                      IndexPool* pool);

}  // namespace wfit::persist

#endif  // WFIT_PERSIST_SNAPSHOT_H_
