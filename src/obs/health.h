// The fleet health plane's data model: one NodeHealthReport per node,
// serialized as a flat JSON object (hand-rolled here — obs sits below
// persist and links only the standard library) and carried in the
// kGetHealth response text. wfit_top and ClusterClient::FleetHealth
// decode it with the matching parser.
//
// MergeFleetScrapeText is the other half of the health plane: it merges
// per-node Prometheus text expositions into one document, injecting a
// node="<id>" label into every sample so one scrape endpoint can serve
// the whole fleet with per-node series, keeping the first HELP/TYPE
// header seen per family.
#ifndef WFIT_OBS_HEALTH_H_
#define WFIT_OBS_HEALTH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wfit::obs {

struct PeerHealthEntry {
  std::string id;
  std::string health;  // "alive" | "suspect" | "dead"
  uint64_t consecutive_misses = 0;
  uint64_t silence_ms = 0;  // lease age: ms since last heard either way
};

struct NodeHealthReport {
  std::string node_id;
  uint64_t config_version = 0;
  bool membership_enabled = false;
  bool acting_coordinator = false;
  // Tenancy and load.
  uint64_t tenants_known = 0;
  uint64_t tenants_resident = 0;
  uint64_t queue_depth = 0;
  uint64_t statements_analyzed = 0;
  uint64_t admin_queue_depth = 0;
  uint64_t admin_shed_total = 0;
  // Membership / self-healing.
  uint64_t failovers = 0;
  uint64_t tenants_failed_over = 0;
  uint64_t decommissions = 0;
  uint64_t last_takeover_ms = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeats_received = 0;
  // Tracing.
  bool tracing_enabled = false;
  uint64_t trace_spans = 0;
  uint64_t trace_dropped = 0;
  std::vector<PeerHealthEntry> peers;
};

std::string EncodeHealthJson(const NodeHealthReport& report);

/// Lenient parser for EncodeHealthJson output; false when `text` is not
/// a health report at all (missing node_id).
bool DecodeHealthJson(const std::string& text, NodeHealthReport* out);

/// Merges per-(node id, exposition text) scrapes into one document with
/// node labels injected into every sample line.
std::string MergeFleetScrapeText(
    const std::vector<std::pair<std::string, std::string>>& scrapes);

}  // namespace wfit::obs

#endif  // WFIT_OBS_HEALTH_H_
