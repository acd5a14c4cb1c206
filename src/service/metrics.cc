#include "service/metrics.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "obs/health.h"

namespace wfit::service {

uint64_t MetricsSnapshot::latency_count() const {
  uint64_t n = 0;
  for (uint64_t c : latency_counts) n += c;
  return n;
}

double MetricsSnapshot::mean_latency_us() const {
  uint64_t n = latency_count();
  return n == 0 ? 0.0 : latency_total_us / static_cast<double>(n);
}

double MetricsSnapshot::mean_batch() const {
  return batches == 0
             ? 0.0
             : static_cast<double>(statements_analyzed) /
                   static_cast<double>(batches);
}

uint64_t MetricsSnapshot::stage_count(obs::Stage stage) const {
  uint64_t n = 0;
  for (uint64_t c : stage_counts[static_cast<int>(stage)]) n += c;
  return n;
}

double MetricsSnapshot::stage_mean_us(obs::Stage stage) const {
  uint64_t n = stage_count(stage);
  return n == 0 ? 0.0
                : stage_total_us[static_cast<int>(stage)] /
                      static_cast<double>(n);
}

double MetricsSnapshot::checkpoint_age_seconds(
    double now_unix_seconds) const {
  if (last_checkpoint_unix_seconds <= 0.0) return 0.0;
  return std::max(0.0, now_unix_seconds - last_checkpoint_unix_seconds);
}

namespace {

/// Smallest bucket upper bound covering quantile `q` of one histogram
/// (`n` = its total count); 0 for an empty histogram.
double QuantileUpperUs(const std::array<uint64_t, kLatencyBucketCount>& counts,
                       uint64_t n, double q) {
  if (n == 0) return 0.0;
  const uint64_t target = std::max<uint64_t>(
      static_cast<uint64_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n)), 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < kLatencyBucketUpperUs.size(); ++i) {
    seen += counts[i];
    if (seen >= target) return kLatencyBucketUpperUs[i];
  }
  return std::numeric_limits<double>::infinity();
}

void Counter(std::ostream& os, const char* name, uint64_t v,
             const char* help) {
  os << "# HELP wfit_service_" << name << " " << help << "\n"
     << "# TYPE wfit_service_" << name << " counter\n"
     << "wfit_service_" << name << " " << v << "\n";
}

void Gauge(std::ostream& os, const char* name, uint64_t v, const char* help) {
  os << "# HELP wfit_service_" << name << " " << help << "\n"
     << "# TYPE wfit_service_" << name << " gauge\n"
     << "wfit_service_" << name << " " << v << "\n";
}

}  // namespace

double MetricsSnapshot::LatencyQuantileUpperUs(double q) const {
  return QuantileUpperUs(latency_counts, latency_count(), q);
}

double MetricsSnapshot::StageQuantileUpperUs(obs::Stage stage,
                                             double q) const {
  return QuantileUpperUs(stage_counts[static_cast<int>(stage)],
                         stage_count(stage), q);
}

void ExportText(const MetricsSnapshot& s, std::ostream& os) {
  Counter(os, "statements_submitted_total", s.statements_submitted,
          "Statements accepted into the ingest queue");
  Counter(os, "submit_rejected_total", s.submit_rejected,
          "Non-blocking submissions refused because the queue was full");
  Gauge(os, "queue_depth", s.queue_depth, "Current ingest queue depth");
  Gauge(os, "queue_capacity", s.queue_capacity, "Ingest queue capacity");
  Gauge(os, "queue_high_water", s.queue_high_water,
        "Maximum ingest queue depth observed");
  Counter(os, "push_waits_total", s.push_waits,
          "Blocking submissions that waited on backpressure");
  Counter(os, "statements_analyzed_total", s.statements_analyzed,
          "Statements analyzed by the tuner");
  Counter(os, "batches_total", s.batches, "Analysis batches drained");
  Gauge(os, "max_batch", s.max_batch, "Largest batch drained");
  Counter(os, "feedback_applied_total", s.feedback_applied,
          "DBA feedback events applied");
  Counter(os, "repartitions_total", s.repartitions,
          "Tuner state repartitions");
  Gauge(os, "recommendation_version", s.snapshot_version,
        "Version of the published recommendation snapshot");
  Counter(os, "checkpoints_written_total", s.checkpoints_written,
          "Durable state snapshots written");
  Counter(os, "checkpoint_failures_total", s.checkpoint_failures,
          "Snapshot writes that failed");
  Gauge(os, "checkpoint_last_seq", s.last_checkpoint_seq,
        "Statements analyzed at the last checkpoint");
  os << "# HELP wfit_service_checkpoint_last_unix_seconds Wall time of the"
        " last checkpoint\n"
     << "# TYPE wfit_service_checkpoint_last_unix_seconds gauge\n"
     << "wfit_service_checkpoint_last_unix_seconds ";
  {
    // Default stream precision (6 digits) would truncate a unix timestamp
    // to ±thousands of seconds; checkpoint-age alerts need it exact.
    std::ostringstream ts;
    ts << std::fixed << std::setprecision(3)
       << s.last_checkpoint_unix_seconds;
    os << ts.str() << "\n";
  }
  Gauge(os, "snapshot_bytes", s.last_snapshot_bytes,
        "Size of the last snapshot written");
  Counter(os, "journal_records_total", s.journal_records,
          "Records in the write-ahead journal");
  Counter(os, "journal_bytes_total", s.journal_bytes,
          "Bytes appended to the write-ahead journal");
  Counter(os, "journal_syncs_total", s.journal_syncs,
          "fsync batches applied to the journal");
  Counter(os, "journal_failures_total", s.journal_failures,
          "Journal write/fsync failures (nonzero = journaling disabled)");
  Counter(os, "journal_compactions_total", s.journal_compactions,
          "Journal prefix rewrites after a checkpoint");
  Counter(os, "journal_compacted_bytes_total", s.journal_compacted_bytes,
          "Journal bytes reclaimed by compaction");
  Gauge(os, "recovery_snapshot_loaded", s.recovery_snapshot_loaded,
        "1 if the last startup restored a snapshot");
  Counter(os, "recovery_snapshots_skipped_total",
          s.recovery_snapshots_skipped,
          "Corrupt snapshots skipped during recovery");
  Counter(os, "recovery_replayed_statements_total",
          s.recovery_replayed_statements,
          "Journal statements replayed at the last startup");
  Counter(os, "recovery_replayed_feedback_total",
          s.recovery_replayed_feedback,
          "Journal feedback votes replayed at the last startup");

  os << "# HELP wfit_service_analysis_latency_us AnalyzeQuery latency\n"
     << "# TYPE wfit_service_analysis_latency_us histogram\n";
  uint64_t cumulative = 0;
  for (size_t i = 0; i < s.latency_counts.size(); ++i) {
    cumulative += s.latency_counts[i];
    os << "wfit_service_analysis_latency_us_bucket{le=\"";
    if (i < kLatencyBucketUpperUs.size()) {
      os << kLatencyBucketUpperUs[i];
    } else {
      os << "+Inf";
    }
    os << "\"} " << cumulative << "\n";
  }
  os << "wfit_service_analysis_latency_us_sum " << s.latency_total_us << "\n"
     << "wfit_service_analysis_latency_us_count " << cumulative << "\n";

  // Stage-latency histograms: one family, a stage label per series.
  os << "# HELP wfit_service_stage_latency_us Per-stage statement latency"
        " (queue wait, IBG build, what-if probes, checkpoint writes)\n"
     << "# TYPE wfit_service_stage_latency_us histogram\n";
  for (int stage = 0; stage < obs::kStageCount; ++stage) {
    const char* label = obs::StageName(static_cast<obs::Stage>(stage));
    uint64_t stage_cumulative = 0;
    for (size_t i = 0; i < s.stage_counts[stage].size(); ++i) {
      stage_cumulative += s.stage_counts[stage][i];
      os << "wfit_service_stage_latency_us_bucket{stage=\"" << label
         << "\",le=\"";
      if (i < kLatencyBucketUpperUs.size()) {
        os << kLatencyBucketUpperUs[i];
      } else {
        os << "+Inf";
      }
      os << "\"} " << stage_cumulative << "\n";
    }
    os << "wfit_service_stage_latency_us_sum{stage=\"" << label << "\"} "
       << s.stage_total_us[stage] << "\n"
       << "wfit_service_stage_latency_us_count{stage=\"" << label << "\"} "
       << stage_cumulative << "\n";
  }
}

std::string ExportText(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  ExportText(snapshot, os);
  return os.str();
}

void AccumulateCounters(MetricsSnapshot* into, const MetricsSnapshot& from) {
  into->statements_submitted += from.statements_submitted;
  into->submit_rejected += from.submit_rejected;
  into->queue_depth += from.queue_depth;
  into->queue_capacity += from.queue_capacity;
  into->queue_high_water =
      std::max(into->queue_high_water, from.queue_high_water);
  into->push_waits += from.push_waits;
  into->statements_analyzed += from.statements_analyzed;
  into->batches += from.batches;
  into->max_batch = std::max(into->max_batch, from.max_batch);
  into->feedback_applied += from.feedback_applied;
  into->repartitions += from.repartitions;
  into->snapshot_version += from.snapshot_version;
  into->checkpoints_written += from.checkpoints_written;
  into->checkpoint_failures += from.checkpoint_failures;
  into->last_checkpoint_seq =
      std::max(into->last_checkpoint_seq, from.last_checkpoint_seq);
  into->last_checkpoint_unix_seconds = std::max(
      into->last_checkpoint_unix_seconds, from.last_checkpoint_unix_seconds);
  into->last_snapshot_bytes += from.last_snapshot_bytes;
  into->journal_records += from.journal_records;
  into->journal_bytes += from.journal_bytes;
  into->journal_syncs += from.journal_syncs;
  into->journal_failures += from.journal_failures;
  into->journal_compactions += from.journal_compactions;
  into->journal_compacted_bytes += from.journal_compacted_bytes;
  into->recovery_snapshot_loaded += from.recovery_snapshot_loaded;
  into->recovery_snapshots_skipped += from.recovery_snapshots_skipped;
  into->recovery_replayed_statements += from.recovery_replayed_statements;
  into->recovery_replayed_feedback += from.recovery_replayed_feedback;
  for (size_t i = 0; i < into->latency_counts.size(); ++i) {
    into->latency_counts[i] += from.latency_counts[i];
  }
  into->latency_total_us += from.latency_total_us;
  for (int stage = 0; stage < obs::kStageCount; ++stage) {
    for (size_t i = 0; i < into->stage_counts[stage].size(); ++i) {
      into->stage_counts[stage][i] += from.stage_counts[stage][i];
    }
    into->stage_total_us[stage] += from.stage_total_us[stage];
  }
}

namespace {

/// One labelled family: HELP/TYPE header, then one sample per tenant drawn
/// through `value`.
template <typename ValueFn>
void TenantFamily(
    const std::vector<std::pair<std::string, MetricsSnapshot>>& tenants,
    std::ostream& os, const char* name, const char* type, const char* help,
    ValueFn value) {
  os << "# HELP wfit_tenant_" << name << " " << help << "\n"
     << "# TYPE wfit_tenant_" << name << " " << type << "\n";
  for (const auto& [id, snapshot] : tenants) {
    os << "wfit_tenant_" << name << "{tenant=\"" << obs::EscapeLabelValue(id)
       << "\"} " << value(snapshot) << "\n";
  }
}

}  // namespace

void ExportTenantText(
    const std::vector<std::pair<std::string, MetricsSnapshot>>& tenants,
    std::ostream& os) {
  auto counter = [&](const char* name, const char* help,
                     uint64_t MetricsSnapshot::* field) {
    TenantFamily(tenants, os, name, "counter", help,
                 [field](const MetricsSnapshot& s) { return s.*field; });
  };
  auto gauge = [&](const char* name, const char* help,
                   uint64_t MetricsSnapshot::* field) {
    TenantFamily(tenants, os, name, "gauge", help,
                 [field](const MetricsSnapshot& s) { return s.*field; });
  };
  counter("stmts_total", "Statements analyzed for this tenant",
          &MetricsSnapshot::statements_analyzed);
  counter("stmts_submitted_total", "Statements accepted for this tenant",
          &MetricsSnapshot::statements_submitted);
  counter("submit_rejected_total",
          "Non-blocking submissions refused (tenant queue full)",
          &MetricsSnapshot::submit_rejected);
  counter("batches_total", "Analysis batches drained for this tenant",
          &MetricsSnapshot::batches);
  counter("feedback_applied_total", "DBA feedback events applied",
          &MetricsSnapshot::feedback_applied);
  counter("repartitions_total", "Tuner state repartitions",
          &MetricsSnapshot::repartitions);
  counter("checkpoints_written_total", "Durable state snapshots written",
          &MetricsSnapshot::checkpoints_written);
  counter("journal_records_total", "Records in the tenant's WAL",
          &MetricsSnapshot::journal_records);
  gauge("queue_depth", "Current tenant ingest queue depth",
        &MetricsSnapshot::queue_depth);
  gauge("queue_capacity", "Tenant ingest queue capacity",
        &MetricsSnapshot::queue_capacity);
  gauge("snapshot_bytes", "Size of the tenant's last state snapshot",
        &MetricsSnapshot::last_snapshot_bytes);

  // Per-tenant analysis latency histogram: bucket series per tenant, then
  // the _sum/_count samples, all under one family header.
  os << "# HELP wfit_tenant_analysis_latency_us AnalyzeQuery latency\n"
     << "# TYPE wfit_tenant_analysis_latency_us histogram\n";
  for (const auto& [id, s] : tenants) {
    const std::string label = obs::EscapeLabelValue(id);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < s.latency_counts.size(); ++i) {
      cumulative += s.latency_counts[i];
      os << "wfit_tenant_analysis_latency_us_bucket{tenant=\"" << label
         << "\",le=\"";
      if (i < kLatencyBucketUpperUs.size()) {
        os << kLatencyBucketUpperUs[i];
      } else {
        os << "+Inf";
      }
      os << "\"} " << cumulative << "\n";
    }
    os << "wfit_tenant_analysis_latency_us_sum{tenant=\"" << label << "\"} "
       << s.latency_total_us << "\n"
       << "wfit_tenant_analysis_latency_us_count{tenant=\"" << label
       << "\"} " << cumulative << "\n";
  }

  // Per-tenant, per-stage latency histograms (tenant + stage labels).
  os << "# HELP wfit_tenant_stage_latency_us Per-stage statement latency\n"
     << "# TYPE wfit_tenant_stage_latency_us histogram\n";
  for (const auto& [id, s] : tenants) {
    const std::string label = obs::EscapeLabelValue(id);
    for (int stage = 0; stage < obs::kStageCount; ++stage) {
      const char* stage_name = obs::StageName(static_cast<obs::Stage>(stage));
      uint64_t cumulative = 0;
      for (size_t i = 0; i < s.stage_counts[stage].size(); ++i) {
        cumulative += s.stage_counts[stage][i];
        os << "wfit_tenant_stage_latency_us_bucket{tenant=\"" << label
           << "\",stage=\"" << stage_name << "\",le=\"";
        if (i < kLatencyBucketUpperUs.size()) {
          os << kLatencyBucketUpperUs[i];
        } else {
          os << "+Inf";
        }
        os << "\"} " << cumulative << "\n";
      }
      os << "wfit_tenant_stage_latency_us_sum{tenant=\"" << label
         << "\",stage=\"" << stage_name << "\"} " << s.stage_total_us[stage]
         << "\n"
         << "wfit_tenant_stage_latency_us_count{tenant=\"" << label
         << "\",stage=\"" << stage_name << "\"} " << cumulative << "\n";
    }
  }
}

void ServiceMetrics::OnBatch(uint64_t size) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (size > prev &&
         !max_batch_.compare_exchange_weak(prev, size,
                                           std::memory_order_relaxed)) {
  }
}

void ServiceMetrics::OnAnalyzed(double latency_us) {
  analyzed_.fetch_add(1, std::memory_order_relaxed);
  size_t bucket = kLatencyBucketUpperUs.size();
  for (size_t i = 0; i < kLatencyBucketUpperUs.size(); ++i) {
    if (latency_us <= kLatencyBucketUpperUs[i]) {
      bucket = i;
      break;
    }
  }
  latency_counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  latency_total_ns_.fetch_add(static_cast<uint64_t>(latency_us * 1000.0),
                              std::memory_order_relaxed);
}

void ServiceMetrics::RecordStage(obs::Stage stage, uint64_t ns) {
  const int idx = static_cast<int>(stage);
  if (idx < 0 || idx >= obs::kStageCount) return;
  const double us = static_cast<double>(ns) / 1000.0;
  size_t bucket = kLatencyBucketUpperUs.size();
  for (size_t i = 0; i < kLatencyBucketUpperUs.size(); ++i) {
    if (us <= kLatencyBucketUpperUs[i]) {
      bucket = i;
      break;
    }
  }
  stage_counts_[idx][bucket].fetch_add(1, std::memory_order_relaxed);
  stage_total_ns_[idx].fetch_add(ns, std::memory_order_relaxed);
}

MetricsSnapshot ServiceMetrics::Snapshot() const {
  MetricsSnapshot s;
  s.statements_submitted = submitted_.load(std::memory_order_relaxed);
  s.submit_rejected = rejected_.load(std::memory_order_relaxed);
  s.statements_analyzed = analyzed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.feedback_applied = feedback_.load(std::memory_order_relaxed);
  s.repartitions = repartitions_.load(std::memory_order_relaxed);
  s.snapshot_version = version_.load(std::memory_order_relaxed);
  s.checkpoints_written = checkpoints_.load(std::memory_order_relaxed);
  s.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  s.last_checkpoint_seq = last_checkpoint_seq_.load(std::memory_order_relaxed);
  s.last_checkpoint_unix_seconds =
      static_cast<double>(
          last_checkpoint_unix_ms_.load(std::memory_order_relaxed)) /
      1000.0;
  s.last_snapshot_bytes = last_snapshot_bytes_.load(std::memory_order_relaxed);
  s.journal_records = journal_records_.load(std::memory_order_relaxed);
  s.journal_bytes = journal_bytes_.load(std::memory_order_relaxed);
  s.journal_syncs = journal_syncs_.load(std::memory_order_relaxed);
  s.journal_failures = journal_failures_.load(std::memory_order_relaxed);
  s.journal_compactions =
      journal_compactions_.load(std::memory_order_relaxed);
  s.journal_compacted_bytes =
      journal_compacted_bytes_.load(std::memory_order_relaxed);
  s.recovery_snapshot_loaded =
      recovery_loaded_.load(std::memory_order_relaxed);
  s.recovery_snapshots_skipped =
      recovery_skipped_.load(std::memory_order_relaxed);
  s.recovery_replayed_statements =
      recovery_statements_.load(std::memory_order_relaxed);
  s.recovery_replayed_feedback =
      recovery_feedback_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < s.latency_counts.size(); ++i) {
    s.latency_counts[i] = latency_counts_[i].load(std::memory_order_relaxed);
  }
  s.latency_total_us =
      static_cast<double>(latency_total_ns_.load(std::memory_order_relaxed)) /
      1000.0;
  for (int stage = 0; stage < obs::kStageCount; ++stage) {
    for (size_t i = 0; i < s.stage_counts[stage].size(); ++i) {
      s.stage_counts[stage][i] =
          stage_counts_[stage][i].load(std::memory_order_relaxed);
    }
    s.stage_total_us[stage] =
        static_cast<double>(
            stage_total_ns_[stage].load(std::memory_order_relaxed)) /
        1000.0;
  }
  return s;
}

}  // namespace wfit::service
