#include "harness/reporting.h"

#include <cctype>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

namespace wfit::harness {

namespace {

double RatioAt(const ExperimentSeries& opt, const ExperimentSeries& s,
               size_t row) {
  double denom = s.total_at_checkpoint[row];
  if (denom <= 0.0) return 1.0;
  return opt.total_at_checkpoint[row] / denom;
}

}  // namespace

void PrintRatioTable(std::ostream& os, const ExperimentSeries& opt,
                     const std::vector<ExperimentSeries>& series,
                     const std::string& title) {
  os << "== " << title << " ==\n";
  os << "Total Work Ratio (OPT=1)\n";
  os << std::setw(8) << "query#";
  for (const ExperimentSeries& s : series) {
    os << std::setw(14) << s.name;
  }
  os << "\n";
  for (size_t row = 0; row < opt.checkpoints.size(); ++row) {
    os << std::setw(8) << opt.checkpoints[row];
    for (const ExperimentSeries& s : series) {
      WFIT_CHECK(s.checkpoints.size() == opt.checkpoints.size(),
                 "checkpoint mismatch between series");
      os << std::setw(14) << std::fixed << std::setprecision(4)
         << RatioAt(opt, s, row);
    }
    os << "\n";
  }
  os.flush();
}

void WriteRatioCsv(std::ostream& os, const ExperimentSeries& opt,
                   const std::vector<ExperimentSeries>& series) {
  os << "query";
  for (const ExperimentSeries& s : series) os << "," << s.name;
  os << "\n";
  for (size_t row = 0; row < opt.checkpoints.size(); ++row) {
    os << opt.checkpoints[row];
    for (const ExperimentSeries& s : series) {
      os << "," << RatioAt(opt, s, row);
    }
    os << "\n";
  }
  os.flush();
}

void PrintOverheadTable(std::ostream& os,
                        const std::vector<ExperimentSeries>& series,
                        size_t num_statements) {
  os << std::setw(14) << "tuner" << std::setw(18) << "ms/statement"
     << std::setw(18) << "what-if/stmt" << "\n";
  for (const ExperimentSeries& s : series) {
    double ms = num_statements == 0
                    ? 0.0
                    : 1000.0 * s.analyze_seconds /
                          static_cast<double>(num_statements);
    double calls = num_statements == 0
                       ? 0.0
                       : static_cast<double>(s.what_if_calls) /
                             static_cast<double>(num_statements);
    os << std::setw(14) << s.name << std::setw(18) << std::fixed
       << std::setprecision(3) << ms << std::setw(18) << std::setprecision(1)
       << calls << "\n";
  }
  os.flush();
}

void PrintServiceMetrics(std::ostream& os, const std::string& title,
                         const service::MetricsSnapshot& m) {
  os << "== " << title << " ==\n";
  os << std::setw(26) << "statements submitted" << std::setw(14)
     << m.statements_submitted << "\n";
  os << std::setw(26) << "statements analyzed" << std::setw(14)
     << m.statements_analyzed << "\n";
  os << std::setw(26) << "batches" << std::setw(14) << m.batches
     << "   (mean " << std::fixed << std::setprecision(2) << m.mean_batch()
     << ", max " << m.max_batch << ")\n";
  os << std::setw(26) << "queue depth / capacity" << std::setw(14)
     << m.queue_depth << "   (high water " << m.queue_high_water << " of "
     << m.queue_capacity << ")\n";
  os << std::setw(26) << "backpressure waits" << std::setw(14)
     << m.push_waits << "   (rejections " << m.submit_rejected << ")\n";
  os << std::setw(26) << "feedback applied" << std::setw(14)
     << m.feedback_applied << "\n";
  os << std::setw(26) << "repartitions" << std::setw(14) << m.repartitions
     << "\n";
  os << std::setw(26) << "snapshot version" << std::setw(14)
     << m.snapshot_version << "\n";
  os << std::setw(26) << "analysis latency mean" << std::setw(14)
     << std::setprecision(1) << m.mean_latency_us() << " us   (p50<="
     << m.LatencyQuantileUpperUs(0.5) << ", p99<="
     << m.LatencyQuantileUpperUs(0.99) << ")\n";
  for (int s = 0; s < obs::kStageCount; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    if (m.stage_count(stage) == 0) continue;
    os << std::setw(26)
       << (std::string("stage ") + obs::StageName(stage)) << std::setw(14)
       << m.stage_count(stage) << "   (mean " << std::setprecision(1)
       << m.stage_mean_us(stage) << " us)\n";
  }
  if (m.journal_records > 0 || m.checkpoints_written > 0) {
    os << std::setw(26) << "journal records" << std::setw(14)
       << m.journal_records << "   (" << m.journal_bytes
       << " bytes appended, " << m.journal_syncs << " fsync batches)\n";
    os << std::setw(26) << "checkpoints written" << std::setw(14)
       << m.checkpoints_written << "   (last @" << m.last_checkpoint_seq
       << ", " << m.last_snapshot_bytes << " bytes, failures "
       << m.checkpoint_failures << ")\n";
    os << std::setw(26) << "recovery replayed" << std::setw(14)
       << m.recovery_replayed_statements << "   (+"
       << m.recovery_replayed_feedback << " votes, snapshot loaded "
       << m.recovery_snapshot_loaded << ", skipped "
       << m.recovery_snapshots_skipped << ")\n";
  }
  os.flush();
}

void PrintRouterMetrics(std::ostream& os, const std::string& title,
                        const service::RouterMetricsSnapshot& m) {
  PrintServiceMetrics(os, title + " (aggregate)", m.aggregate);
  os << std::setw(26) << "tenants known/resident" << std::setw(14)
     << m.tenants_known << "   (resident " << m.tenants_resident
     << ", admissions " << m.admissions << ", evictions " << m.evictions
     << ")\n";
  os << std::setw(14) << "tenant" << std::setw(12) << "analyzed"
     << std::setw(10) << "queue" << std::setw(10) << "evicted"
     << std::setw(14) << "mean lat us" << "\n";
  for (const service::TenantMetricsEntry& t : m.tenants) {
    os << std::setw(14) << t.id << std::setw(12)
       << t.service.statements_analyzed << std::setw(10)
       << t.service.queue_depth << std::setw(10) << t.evictions
       << std::setw(14) << std::fixed << std::setprecision(1)
       << t.service.mean_latency_us() << (t.resident ? "" : "   (evicted)")
       << "\n";
  }
  os.flush();
}

namespace {

/// Parses a flat one-level JSON object of numeric members, as written by
/// UpdateBenchJson. Anything unparseable is skipped (the merge then simply
/// rewrites the file from `fields`).
std::map<std::string, double> ReadFlatJson(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  if (!in) return out;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  size_t pos = 0;
  while (true) {
    size_t key_start = text.find('"', pos);
    if (key_start == std::string::npos) break;
    size_t key_end = text.find('"', key_start + 1);
    if (key_end == std::string::npos) break;
    std::string key = text.substr(key_start + 1, key_end - key_start - 1);
    size_t colon = text.find(':', key_end);
    if (colon == std::string::npos) break;
    size_t value_start = colon + 1;
    while (value_start < text.size() &&
           std::isspace(static_cast<unsigned char>(text[value_start]))) {
      ++value_start;
    }
    if (value_start < text.size() && text[value_start] == '"') {
      // String member: skip the whole value so its contents are not
      // mistaken for the next key.
      size_t close = text.find('"', value_start + 1);
      if (close == std::string::npos) break;
      pos = close + 1;
      continue;
    }
    size_t value_end = value_start;
    while (value_end < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[value_end])) ||
            text[value_end] == '-' || text[value_end] == '+' ||
            text[value_end] == '.' || text[value_end] == 'e' ||
            text[value_end] == 'E')) {
      ++value_end;
    }
    if (value_end > value_start) {
      try {
        out[key] = std::stod(text.substr(value_start, value_end - value_start));
      } catch (...) {
        // Not a number (e.g. a string member): skip it.
      }
    }
    pos = value_end > key_end ? value_end : key_end + 1;
  }
  return out;
}

}  // namespace

void UpdateBenchJson(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& fields) {
  std::map<std::string, double> merged = ReadFlatJson(path);
  for (const auto& [key, value] : fields) merged[key] = value;
  std::ofstream out(path, std::ios::trunc);
  WFIT_CHECK(out.good(), "UpdateBenchJson: cannot open " + path);
  out << "{\n";
  size_t i = 0;
  for (const auto& [key, value] : merged) {
    out << "  \"" << key << "\": " << std::setprecision(12) << value;
    if (++i < merged.size()) out << ",";
    out << "\n";
  }
  out << "}\n";
}

}  // namespace wfit::harness
