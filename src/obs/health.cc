#include "obs/health.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string_view>

namespace wfit::obs {

namespace {

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

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

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
    const std::string label = "node=\"" + EscapeLabelValue(node_id) + "\"";
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

std::map<std::string, double> ParseScrape(const std::string& text) {
  std::map<std::string, double> series;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    // The key ends at the first space, or after the label block when one
    // opens first; quoted label values may hold spaces, braces and \".
    size_t key_end = line.find_first_of("{ ");
    if (key_end == std::string_view::npos || key_end == 0) continue;
    if (line[key_end] == '{') {
      bool quoted = false;
      size_t i = key_end + 1;
      for (; i < line.size(); ++i) {
        if (quoted && line[i] == '\\') {
          ++i;
        } else if (line[i] == '"') {
          quoted = !quoted;
        } else if (line[i] == '}' && !quoted) {
          break;
        }
      }
      if (i >= line.size()) continue;  // unterminated label block
      key_end = i + 1;
    }
    const size_t value_at = line.find_first_not_of(' ', key_end);
    if (value_at == std::string_view::npos || value_at == key_end) continue;
    const size_t value_end = std::min(line.find(' ', value_at), line.size());
    // A copy, so strtod stops at the token's end (and at an embedded NUL,
    // which then fails the whole-token check).
    const std::string value(line.substr(value_at, value_end - value_at));
    char* parsed_end = nullptr;
    const double v = std::strtod(value.c_str(), &parsed_end);
    if (parsed_end != value.c_str() + value.size()) continue;
    series[std::string(line.substr(0, key_end))] = v;
  }
  return series;
}

}  // namespace wfit::obs
