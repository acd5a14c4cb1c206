// Durability overhead bench: snapshot write/restore latency and size for a
// warmed-up WFIT state, write-ahead journal append/fsync throughput,
// journal compaction reclaim, and end-to-end recovery (snapshot load +
// journal suffix replay). Merges the machine-readable numbers into
// BENCH_service.json.
//
// WFIT_BENCH_FAST=1 runs the scaled-down trace for CI smoke.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "core/wfit.h"
#include "harness/reporting.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "service/tuner_service.h"

namespace {

using namespace wfit;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

int main() {
  bench::BenchEnv env;
  const bool fast = std::getenv("WFIT_BENCH_FAST") != nullptr;
  const size_t warmup = fast ? 150 : 600;
  const size_t suffix = fast ? 50 : 200;

  const fs::path dir =
      fs::temp_directory_path() /
      ("wfit_bench_checkpoint_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  WfitOptions options;  // paper defaults: idxCnt 40, stateCnt 500
  Wfit tuner(&env.pool(), &env.optimizer(), IndexSet{}, options);
  const Workload& w = env.workload();
  std::cout << "warming up WFIT over " << warmup << " statements...\n";
  for (size_t i = 0; i < warmup && i < w.size(); ++i) {
    tuner.AnalyzeQuery(w[i]);
  }

  // --- snapshot write ---------------------------------------------------
  persist::SnapshotMeta meta;
  meta.analyzed = warmup;
  const int kWriteReps = 5;
  double write_ms = 0.0;
  uint64_t snapshot_bytes = 0;
  for (int rep = 0; rep < kWriteReps; ++rep) {
    Clock::time_point start = Clock::now();
    auto bytes = persist::WriteSnapshot(dir.string(), tuner, env.pool(), meta);
    write_ms += MillisSince(start);
    WFIT_CHECK(bytes.ok(), bytes.status().ToString());
    snapshot_bytes = *bytes;
  }
  write_ms /= kWriteReps;
  std::cout << "snapshot write: " << write_ms << " ms, " << snapshot_bytes
            << " bytes (" << tuner.TotalStates() << " work-function states, "
            << env.pool().size() << " interned indices)\n";

  // --- snapshot restore -------------------------------------------------
  double read_ms = 0.0;
  {
    bench::BenchEnv fresh_env;
    const int kReadReps = 5;
    for (int rep = 0; rep < kReadReps; ++rep) {
      Wfit restored(&fresh_env.pool(), &fresh_env.optimizer(), IndexSet{},
                    options);
      Clock::time_point start = Clock::now();
      persist::SnapshotLoadResult loaded = persist::LoadLatestSnapshot(
          dir.string(), &restored, &fresh_env.pool());
      read_ms += MillisSince(start);
      WFIT_CHECK(loaded.loaded, "bench snapshot must load");
    }
    read_ms /= kReadReps;
  }
  std::cout << "snapshot restore: " << read_ms << " ms\n";

  // --- journal append + fsync throughput --------------------------------
  const size_t kJournalRecords = fast ? 2000 : 20000;
  const size_t kSyncBatch = 32;
  const std::string journal_path = (dir / "bench_journal.wfj").string();
  double journal_ms = 0.0;
  {
    persist::JournalWriter writer;
    WFIT_CHECK(writer.Open(journal_path, 0, 0).ok(), "journal open");
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < kJournalRecords; ++i) {
      WFIT_CHECK(writer.AppendStatement(i, w[i % w.size()]).ok(),
                 "journal append");
      if ((i + 1) % kSyncBatch == 0) {
        WFIT_CHECK(writer.Sync().ok(), "journal sync");
      }
    }
    WFIT_CHECK(writer.Sync().ok(), "journal sync");
    journal_ms = MillisSince(start);
  }
  const double journal_recs_per_s =
      static_cast<double>(kJournalRecords) / (journal_ms / 1000.0);
  std::cout << "journal: " << kJournalRecords << " records in " << journal_ms
            << " ms (fsync every " << kSyncBatch << ") = "
            << journal_recs_per_s / 1000.0 << "k records/s\n";

  // --- journal compaction -----------------------------------------------
  // Drop the half already covered by checkpoints: the steady-state rewrite
  // a cadenced checkpoint triggers.
  double compact_ms = 0.0;
  uint64_t journal_compacted_bytes = 0;
  {
    Clock::time_point start = Clock::now();
    auto compacted =
        persist::CompactJournal(journal_path, kJournalRecords / 2);
    compact_ms = MillisSince(start);
    WFIT_CHECK(compacted.ok(), compacted.status().ToString());
    journal_compacted_bytes = compacted->old_bytes - compacted->new_bytes;
    std::cout << "journal compaction: " << compacted->dropped_records
              << " records / " << journal_compacted_bytes
              << " B reclaimed in " << compact_ms << " ms\n";
  }

  // --- end-to-end recovery (snapshot + journal suffix replay) -----------
  double recover_ms = 0.0;
  uint64_t replayed = 0;
  {
    // Continue the original run for `suffix` statements through a durable
    // service (journaling them past the snapshot), crash-style shutdown,
    // then time a fresh Open.
    fs::remove(journal_path);  // the throughput journal is not part of it
    service::TunerServiceOptions sopts;
    sopts.checkpoint_dir = dir.string();
    // Keep the warmup snapshot the newest: no cadence/shutdown snapshots.
    sopts.checkpoint_every_statements = 1u << 30;
    sopts.checkpoint_on_shutdown = false;
    auto moved = std::make_unique<Wfit>(std::move(tuner));
    auto service = service::TunerService::Open(std::move(moved), &env.pool(),
                                               sopts);
    WFIT_CHECK(service.ok(), service.status().ToString());
    (*service)->Start();
    for (size_t seq = warmup; seq < warmup + suffix && seq < w.size();
         ++seq) {
      (*service)->SubmitAt(seq, w[seq]);
    }
    (*service)->Shutdown();

    bench::BenchEnv fresh_env;
    Wfit restored(&fresh_env.pool(), &fresh_env.optimizer(), IndexSet{},
                  options);
    service::RecoveryStats stats;
    Clock::time_point start = Clock::now();
    auto reopened = service::TunerService::Open(
        std::make_unique<Wfit>(std::move(restored)), &fresh_env.pool(),
        sopts, &stats);
    recover_ms = MillisSince(start);
    WFIT_CHECK(reopened.ok(), reopened.status().ToString());
    replayed = stats.replayed_statements;
    std::cout << "recovery: snapshot@" << stats.snapshot_analyzed << " + "
              << replayed << " replayed statements in " << recover_ms
              << " ms\n";
  }

  harness::UpdateBenchJson(
      "BENCH_service.json",
      {
          {"checkpoint_write_ms", write_ms},
          {"checkpoint_restore_ms", read_ms},
          {"checkpoint_snapshot_bytes", static_cast<double>(snapshot_bytes)},
          {"journal_append_records_per_s", journal_recs_per_s},
          {"journal_compacted_bytes",
           static_cast<double>(journal_compacted_bytes)},
          {"journal_compact_ms", compact_ms},
          {"recovery_open_ms", recover_ms},
          {"recovery_replayed_statements", static_cast<double>(replayed)},
      });
  std::cout << "merged durability numbers into BENCH_service.json\n";

  fs::remove_all(dir);
  return 0;
}
