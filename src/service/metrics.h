// ServiceMetrics: thread-safe counters/gauges/histograms for the online
// tuning service, with a Prometheus-style text export. Producers, the
// drain path and metric readers touch disjoint atomics, so recording
// never serializes the hot path.
#ifndef WFIT_SERVICE_METRICS_H_
#define WFIT_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/stages.h"

namespace wfit::service {

/// Upper bounds (microseconds) of the analysis-latency buckets; the last
/// bucket is +inf. Log-spaced: WFIT analysis spans ~10us (cache hit, tiny
/// IBG) to ~100ms (repartition storms).
inline constexpr std::array<double, 8> kLatencyBucketUpperUs = {
    10.0, 50.0, 250.0, 1000.0, 5000.0, 25000.0, 100000.0, 500000.0};
inline constexpr size_t kLatencyBucketCount = kLatencyBucketUpperUs.size() + 1;

/// A point-in-time copy of every service metric, safe to read at leisure.
struct MetricsSnapshot {
  // Ingestion.
  uint64_t statements_submitted = 0;
  uint64_t submit_rejected = 0;  // TrySubmit refusals (queue full)
  uint64_t queue_depth = 0;      // gauge at snapshot time
  uint64_t queue_capacity = 0;
  uint64_t queue_high_water = 0;  // max depth ever observed
  uint64_t push_waits = 0;        // blocking pushes that hit backpressure

  // Analysis.
  uint64_t statements_analyzed = 0;
  uint64_t batches = 0;
  uint64_t max_batch = 0;
  uint64_t feedback_applied = 0;
  uint64_t repartitions = 0;  // from Tuner::RepartitionCount()

  // Snapshot publication.
  uint64_t snapshot_version = 0;

  // Durability (persist/): checkpointing and write-ahead journal. All
  // zero when the service runs without a checkpoint_dir.
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_failures = 0;
  uint64_t last_checkpoint_seq = 0;       // analyzed count at last snapshot
  double last_checkpoint_unix_seconds = 0.0;  // wall time of last snapshot
  uint64_t last_snapshot_bytes = 0;
  uint64_t journal_records = 0;           // records in the journal file
  /// Bytes this service appended to the journal; compaction does not
  /// lower it (see journal_compacted_bytes).
  uint64_t journal_bytes = 0;
  uint64_t journal_syncs = 0;
  /// Journal prefix rewrites after a checkpoint, and the bytes they
  /// reclaimed.
  uint64_t journal_compactions = 0;
  uint64_t journal_compacted_bytes = 0;
  /// Journal write/fsync failures; any nonzero value means journaling was
  /// permanently disabled for this process (durability degraded).
  uint64_t journal_failures = 0;
  // Recovery (set once at Open): what the last startup replayed.
  uint64_t recovery_snapshot_loaded = 0;  // 1 if a snapshot restored
  uint64_t recovery_snapshots_skipped = 0;  // corrupt snapshots passed over
  uint64_t recovery_replayed_statements = 0;
  uint64_t recovery_replayed_feedback = 0;

  /// Seconds since the last checkpoint at `now_unix_seconds`; 0 before the
  /// first checkpoint.
  double checkpoint_age_seconds(double now_unix_seconds) const;

  // Analysis latency histogram (per AnalyzeQuery call).
  std::array<uint64_t, kLatencyBucketCount> latency_counts{};
  double latency_total_us = 0.0;

  // Per-stage latency histograms (same bucket bounds), indexed by
  // obs::Stage: queue-wait, IBG build, real what-if probes, checkpoint
  // writes. Captured through the obs::StageSink that ServiceMetrics
  // implements — populated with or without tracing compiled in.
  std::array<std::array<uint64_t, kLatencyBucketCount>, obs::kStageCount>
      stage_counts{};
  std::array<double, obs::kStageCount> stage_total_us{};

  uint64_t stage_count(obs::Stage stage) const;
  double stage_mean_us(obs::Stage stage) const;

  uint64_t latency_count() const;
  double mean_latency_us() const;
  double mean_batch() const;
  /// Smallest bucket upper bound covering quantile `q` of latencies (a
  /// conservative estimate; exact values are not retained).
  double LatencyQuantileUpperUs(double q) const;
  /// Same conservative bucket-upper-bound quantile over one stage's
  /// histogram.
  double StageQuantileUpperUs(obs::Stage stage, double q) const;
};

/// Writes the snapshot in Prometheus text exposition format
/// (`wfit_service_*` metric families).
void ExportText(const MetricsSnapshot& snapshot, std::ostream& os);
std::string ExportText(const MetricsSnapshot& snapshot);

/// Accumulates `from` into `into`: counters and histogram buckets add,
/// watermark gauges (max_batch, queue_high_water, checkpoint recency) take
/// the maximum, and instantaneous gauges (queue depth/capacity, snapshot
/// bytes) add. Used both to roll per-tenant series up into an aggregate
/// and to carry a tenant's counters across evict/re-admit cycles, so
/// accumulated counters stay monotone.
void AccumulateCounters(MetricsSnapshot* into, const MetricsSnapshot& from);

/// Writes per-tenant labelled series (`wfit_tenant_*{tenant="..."}`
/// families) for every (tenant id, snapshot) pair — one HELP/TYPE header
/// per family, one labelled sample per tenant, tenants in the order given
/// (the router passes them sorted by id).
void ExportTenantText(
    const std::vector<std::pair<std::string, MetricsSnapshot>>& tenants,
    std::ostream& os);

/// The live, concurrently-updated metrics. TunerService owns one; the
/// ingest queue contributes its gauges when the service snapshots.
/// Doubles as the obs::StageSink the service installs around analysis, so
/// stage timers anywhere below attribute their time here.
class ServiceMetrics : public obs::StageSink {
 public:
  void OnSubmit() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void OnSubmitRejected() {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnBatch(uint64_t size);
  void OnAnalyzed(double latency_us);
  /// obs::StageSink: buckets `ns` into the stage's latency histogram.
  void RecordStage(obs::Stage stage, uint64_t ns) override;
  void OnFeedback() { feedback_.fetch_add(1, std::memory_order_relaxed); }
  void OnPublish() { version_.fetch_add(1, std::memory_order_relaxed); }
  void SetRepartitions(uint64_t n) {
    repartitions_.store(n, std::memory_order_relaxed);
  }
  void OnCheckpoint(uint64_t analyzed_seq, uint64_t bytes,
                    double unix_seconds) {
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    last_checkpoint_seq_.store(analyzed_seq, std::memory_order_relaxed);
    last_snapshot_bytes_.store(bytes, std::memory_order_relaxed);
    last_checkpoint_unix_ms_.store(
        static_cast<uint64_t>(unix_seconds * 1000.0),
        std::memory_order_relaxed);
  }
  void OnCheckpointFailure() {
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnJournalFailure() {
    journal_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnJournalCompaction(uint64_t reclaimed_bytes) {
    journal_compactions_.fetch_add(1, std::memory_order_relaxed);
    journal_compacted_bytes_.fetch_add(reclaimed_bytes,
                                       std::memory_order_relaxed);
  }
  /// The journal's record count is pushed by the drain path after each
  /// batch (the writer is single-threaded; readers just need a coherent
  /// snapshot).
  void SetJournalRecords(uint64_t records) {
    journal_records_.store(records, std::memory_order_relaxed);
  }
  /// Bytes one successful journal append wrote.
  void OnJournalAppend(uint64_t bytes) {
    journal_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  /// One successful journal sync by the service.
  void OnJournalSync() {
    journal_syncs_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Set once after recovery, before the service starts.
  void SetRecovery(bool snapshot_loaded, uint64_t snapshots_skipped,
                   uint64_t replayed_statements, uint64_t replayed_feedback) {
    recovery_loaded_.store(snapshot_loaded ? 1 : 0,
                           std::memory_order_relaxed);
    recovery_skipped_.store(snapshots_skipped, std::memory_order_relaxed);
    recovery_statements_.store(replayed_statements,
                               std::memory_order_relaxed);
    recovery_feedback_.store(replayed_feedback, std::memory_order_relaxed);
  }

  uint64_t snapshot_version() const {
    return version_.load(std::memory_order_relaxed);
  }

  /// Queue gauges are merged in by the caller (TunerService) so this class
  /// stays decoupled from IngestQueue.
  MetricsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> analyzed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> max_batch_{0};
  std::atomic<uint64_t> feedback_{0};
  std::atomic<uint64_t> repartitions_{0};
  std::atomic<uint64_t> version_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  std::atomic<uint64_t> last_checkpoint_seq_{0};
  std::atomic<uint64_t> last_checkpoint_unix_ms_{0};
  std::atomic<uint64_t> last_snapshot_bytes_{0};
  std::atomic<uint64_t> journal_records_{0};
  std::atomic<uint64_t> journal_bytes_{0};
  std::atomic<uint64_t> journal_syncs_{0};
  std::atomic<uint64_t> journal_failures_{0};
  std::atomic<uint64_t> journal_compactions_{0};
  std::atomic<uint64_t> journal_compacted_bytes_{0};
  std::atomic<uint64_t> recovery_loaded_{0};
  std::atomic<uint64_t> recovery_skipped_{0};
  std::atomic<uint64_t> recovery_statements_{0};
  std::atomic<uint64_t> recovery_feedback_{0};
  std::array<std::atomic<uint64_t>, kLatencyBucketCount> latency_counts_{};
  std::atomic<uint64_t> latency_total_ns_{0};
  std::array<std::array<std::atomic<uint64_t>, kLatencyBucketCount>,
             obs::kStageCount>
      stage_counts_{};
  std::array<std::atomic<uint64_t>, obs::kStageCount> stage_total_ns_{};
};

}  // namespace wfit::service

#endif  // WFIT_SERVICE_METRICS_H_
