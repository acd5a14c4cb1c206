// The fleet health plane is the Prometheus scrape every node already
// serves (kScrapeMetrics); these two helpers turn per-node expositions
// into fleet views.
//
// MergeFleetScrapeText merges per-node Prometheus text expositions into
// one document, injecting a node="<id>" label into every sample so one
// scrape endpoint can serve the whole fleet with per-node series, keeping
// the first HELP/TYPE header seen per family.
//
// ParseScrape reads one exposition back into series -> value, so a
// dashboard (tools/wfit_top) or a test can read single samples without
// string searches. It is lenient and total: any line it cannot read is
// skipped, and no input makes it abort.
#ifndef WFIT_OBS_HEALTH_H_
#define WFIT_OBS_HEALTH_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wfit::obs {

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double-quote and newline become \\, \" and \n. Every
/// label value the exports write (tenant, peer and node ids) goes through
/// it.
std::string EscapeLabelValue(const std::string& value);

/// Merges per-(node id, exposition text) scrapes into one document with
/// node labels injected into every sample line.
std::string MergeFleetScrapeText(
    const std::vector<std::pair<std::string, std::string>>& scrapes);

/// Sample lines of one exposition, keyed by the series exactly as written
/// ("wfit_node_failovers_total", "wfit_node_peer_health{peer=\"b\"}").
/// Comments, blank lines and lines without a numeric value are skipped;
/// a timestamp after the value is ignored; a repeated series keeps its
/// last value.
std::map<std::string, double> ParseScrape(const std::string& text);

}  // namespace wfit::obs

#endif  // WFIT_OBS_HEALTH_H_
