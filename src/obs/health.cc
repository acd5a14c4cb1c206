#include "obs/health.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "obs/log.h"

namespace wfit::obs {

namespace {

void AppendU64(const char* key, uint64_t value, bool* first,
               std::string* out) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, *first ? "" : ",",
                key, value);
  *first = false;
  out->append(buf);
}

void AppendBool(const char* key, bool value, bool* first, std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(value ? "true" : "false");
}

void AppendStr(const char* key, const std::string& value, bool* first,
               std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\":\"");
  AppendJsonEscaped(value, out);
  out->push_back('"');
}

/// Finds `"key":` at or after `from` and returns the index of the first
/// character of the value, or npos.
size_t ValuePos(const std::string& text, const char* key, size_t from) {
  const std::string needle = std::string("\"") + key + "\":";
  size_t pos = text.find(needle, from);
  if (pos == std::string::npos) return std::string::npos;
  return pos + needle.size();
}

uint64_t U64At(const std::string& text, const char* key, size_t from,
               size_t until = std::string::npos) {
  size_t pos = ValuePos(text, key, from);
  if (pos == std::string::npos || pos >= until) return 0;
  return std::strtoull(text.c_str() + pos, nullptr, 10);
}

bool BoolAt(const std::string& text, const char* key, size_t from,
            size_t until = std::string::npos) {
  size_t pos = ValuePos(text, key, from);
  if (pos == std::string::npos || pos >= until) return false;
  return text.compare(pos, 4, "true") == 0;
}

std::string StrAt(const std::string& text, const char* key, size_t from,
                  size_t until = std::string::npos) {
  size_t pos = ValuePos(text, key, from);
  if (pos == std::string::npos || pos >= until || pos >= text.size() ||
      text[pos] != '"') {
    return {};
  }
  std::string out;
  for (size_t i = pos + 1; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\\' && i + 1 < text.size()) {
      char n = text[++i];
      switch (n) {
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        default:
          out.push_back(n);
      }
      continue;
    }
    if (c == '"') break;
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string EncodeHealthJson(const NodeHealthReport& r) {
  std::string out = "{";
  bool first = true;
  AppendStr("node_id", r.node_id, &first, &out);
  AppendU64("config_version", r.config_version, &first, &out);
  AppendBool("membership_enabled", r.membership_enabled, &first, &out);
  AppendBool("acting_coordinator", r.acting_coordinator, &first, &out);
  AppendU64("tenants_known", r.tenants_known, &first, &out);
  AppendU64("tenants_resident", r.tenants_resident, &first, &out);
  AppendU64("queue_depth", r.queue_depth, &first, &out);
  AppendU64("statements_analyzed", r.statements_analyzed, &first, &out);
  AppendU64("admin_queue_depth", r.admin_queue_depth, &first, &out);
  AppendU64("admin_shed_total", r.admin_shed_total, &first, &out);
  AppendU64("failovers", r.failovers, &first, &out);
  AppendU64("tenants_failed_over", r.tenants_failed_over, &first, &out);
  AppendU64("decommissions", r.decommissions, &first, &out);
  AppendU64("last_takeover_ms", r.last_takeover_ms, &first, &out);
  AppendU64("heartbeats_sent", r.heartbeats_sent, &first, &out);
  AppendU64("heartbeats_received", r.heartbeats_received, &first, &out);
  AppendBool("tracing_enabled", r.tracing_enabled, &first, &out);
  AppendU64("trace_spans", r.trace_spans, &first, &out);
  AppendU64("trace_dropped", r.trace_dropped, &first, &out);
  out.append(",\"peers\":[");
  bool first_peer = true;
  for (const PeerHealthEntry& peer : r.peers) {
    if (!first_peer) out.push_back(',');
    first_peer = false;
    out.push_back('{');
    bool f = true;
    AppendStr("id", peer.id, &f, &out);
    AppendStr("health", peer.health, &f, &out);
    AppendU64("consecutive_misses", peer.consecutive_misses, &f, &out);
    AppendU64("silence_ms", peer.silence_ms, &f, &out);
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

bool DecodeHealthJson(const std::string& text, NodeHealthReport* out) {
  NodeHealthReport r;
  r.node_id = StrAt(text, "node_id", 0);
  if (r.node_id.empty()) return false;
  r.config_version = U64At(text, "config_version", 0);
  r.membership_enabled = BoolAt(text, "membership_enabled", 0);
  r.acting_coordinator = BoolAt(text, "acting_coordinator", 0);
  r.tenants_known = U64At(text, "tenants_known", 0);
  r.tenants_resident = U64At(text, "tenants_resident", 0);
  r.queue_depth = U64At(text, "queue_depth", 0);
  r.statements_analyzed = U64At(text, "statements_analyzed", 0);
  r.admin_queue_depth = U64At(text, "admin_queue_depth", 0);
  r.admin_shed_total = U64At(text, "admin_shed_total", 0);
  r.failovers = U64At(text, "failovers", 0);
  r.tenants_failed_over = U64At(text, "tenants_failed_over", 0);
  r.decommissions = U64At(text, "decommissions", 0);
  r.last_takeover_ms = U64At(text, "last_takeover_ms", 0);
  r.heartbeats_sent = U64At(text, "heartbeats_sent", 0);
  r.heartbeats_received = U64At(text, "heartbeats_received", 0);
  r.tracing_enabled = BoolAt(text, "tracing_enabled", 0);
  r.trace_spans = U64At(text, "trace_spans", 0);
  r.trace_dropped = U64At(text, "trace_dropped", 0);
  size_t peers = text.find("\"peers\":[");
  if (peers != std::string::npos) {
    size_t pos = peers + 9;
    while (true) {
      size_t open = text.find('{', pos);
      size_t end = text.find(']', pos);
      if (open == std::string::npos ||
          (end != std::string::npos && end < open)) {
        break;
      }
      size_t close = text.find('}', open);
      if (close == std::string::npos) break;
      PeerHealthEntry peer;
      peer.id = StrAt(text, "id", open, close);
      peer.health = StrAt(text, "health", open, close);
      peer.consecutive_misses =
          U64At(text, "consecutive_misses", open, close);
      peer.silence_ms = U64At(text, "silence_ms", open, close);
      if (!peer.id.empty()) r.peers.push_back(std::move(peer));
      pos = close + 1;
    }
  }
  *out = std::move(r);
  return true;
}

namespace {

std::string EscapePromLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// The family a sample belongs to: its metric name, with histogram child
/// suffixes stripped when the base family is known.
std::string FamilyOf(const std::string& name,
                     const std::set<std::string>& families) {
  if (families.count(name) > 0) return name;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const size_t len = std::strlen(suffix);
    if (name.size() > len &&
        name.compare(name.size() - len, len, suffix) == 0) {
      std::string base = name.substr(0, name.size() - len);
      if (families.count(base) > 0) return base;
    }
  }
  return name;
}

}  // namespace

std::string MergeFleetScrapeText(
    const std::vector<std::pair<std::string, std::string>>& scrapes) {
  // family -> (header lines once, labelled samples from every node), in
  // first-seen family order so each family stays one contiguous block.
  std::vector<std::string> family_order;
  std::map<std::string, std::string> headers;
  std::map<std::string, std::string> samples;
  std::set<std::string> families;
  std::set<std::string> header_lines_seen;

  for (const auto& [node_id, text] : scrapes) {
    const std::string label = "node=\"" + EscapePromLabel(node_id) + "\"";
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line[0] == '#') {
        // "# HELP <family> ..." / "# TYPE <family> ...".
        std::istringstream hs(line);
        std::string hash, kind, family;
        hs >> hash >> kind >> family;
        if (family.empty()) continue;
        if (families.insert(family).second) family_order.push_back(family);
        if (header_lines_seen.insert(line).second) {
          headers[family] += line + "\n";
        }
        continue;
      }
      size_t brace = line.find('{');
      size_t space = line.find(' ');
      std::string name =
          line.substr(0, std::min(brace, space));
      const std::string family = FamilyOf(name, families);
      if (families.insert(family).second) family_order.push_back(family);
      std::string labelled;
      if (brace != std::string::npos && brace < space) {
        const bool empty_labels =
            brace + 1 < line.size() && line[brace + 1] == '}';
        labelled = line.substr(0, brace + 1) + label +
                   (empty_labels ? "" : ",") + line.substr(brace + 1);
      } else if (space != std::string::npos) {
        labelled = name + "{" + label + "}" + line.substr(space);
      } else {
        continue;  // no value: not a sample line
      }
      samples[family] += labelled + "\n";
    }
  }

  std::string out;
  for (const std::string& family : family_order) {
    out += headers[family];
    out += samples[family];
  }
  return out;
}

}  // namespace wfit::obs
