#include "cluster/placement.h"

#include <algorithm>

#include "persist/codec.h"

namespace wfit::cluster {

const NodeInfo* ClusterConfig::FindNode(const std::string& id) const {
  for (const NodeInfo& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

void ClusterConfig::Normalize() {
  std::sort(nodes.begin(), nodes.end(),
            [](const NodeInfo& a, const NodeInfo& b) { return a.id < b.id; });
}

uint64_t PlacementHash(const std::string& node_id,
                       const std::string& tenant) {
  // FNV-1a over "node \xff tenant" (the separator keeps ("ab","c") and
  // ("a","bc") distinct), then a splitmix64 finalizer to spread FNV's
  // weak low bits before the max comparison.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  mix(node_id);
  h ^= 0xff;
  h *= 1099511628211ull;
  mix(tenant);
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

const NodeInfo* OwnerOf(const ClusterConfig& config,
                        const std::string& tenant) {
  if (config.nodes.empty()) return nullptr;
  auto it = config.overrides.find(tenant);
  if (it != config.overrides.end()) {
    if (const NodeInfo* pinned = config.FindNode(it->second)) return pinned;
  }
  const NodeInfo* best = nullptr;
  uint64_t best_weight = 0;
  for (const NodeInfo& n : config.nodes) {
    const uint64_t w = PlacementHash(n.id, tenant);
    if (best == nullptr || w > best_weight ||
        (w == best_weight && n.id < best->id)) {
      best = &n;
      best_weight = w;
    }
  }
  return best;
}

std::string EncodeClusterConfig(const ClusterConfig& config) {
  persist::Encoder e;
  e.PutU64(config.version);
  e.PutU32(static_cast<uint32_t>(config.nodes.size()));
  for (const NodeInfo& n : config.nodes) {
    e.PutString(n.id);
    e.PutString(n.host);
    e.PutU32(n.port);
  }
  e.PutU32(static_cast<uint32_t>(config.overrides.size()));
  for (const auto& [tenant, node] : config.overrides) {
    e.PutString(tenant);
    e.PutString(node);
  }
  return e.Release();
}

Status DecodeClusterConfig(std::string_view blob, ClusterConfig* out) {
  persist::Decoder d(blob);
  WFIT_RETURN_IF_ERROR(d.GetU64(&out->version));
  uint32_t node_count = 0;
  WFIT_RETURN_IF_ERROR(d.GetU32(&node_count));
  out->nodes.clear();
  for (uint32_t i = 0; i < node_count; ++i) {
    NodeInfo n;
    uint32_t port = 0;
    WFIT_RETURN_IF_ERROR(d.GetString(&n.id));
    WFIT_RETURN_IF_ERROR(d.GetString(&n.host));
    WFIT_RETURN_IF_ERROR(d.GetU32(&port));
    if (port > 65535) {
      return Status::InvalidArgument("cluster config: port out of range");
    }
    n.port = static_cast<uint16_t>(port);
    out->nodes.push_back(std::move(n));
  }
  uint32_t override_count = 0;
  WFIT_RETURN_IF_ERROR(d.GetU32(&override_count));
  out->overrides.clear();
  for (uint32_t i = 0; i < override_count; ++i) {
    std::string tenant, node;
    WFIT_RETURN_IF_ERROR(d.GetString(&tenant));
    WFIT_RETURN_IF_ERROR(d.GetString(&node));
    out->overrides.emplace(std::move(tenant), std::move(node));
  }
  if (!d.done()) {
    return Status::InvalidArgument("cluster config: trailing bytes");
  }
  out->Normalize();
  return Status::Ok();
}

StatusOr<ClusterConfig> ParseNodeList(const std::string& spec) {
  ClusterConfig config;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    const size_t colon = entry.rfind(':');
    if (eq == std::string::npos || colon == std::string::npos ||
        colon < eq + 2 || eq == 0 || colon + 1 >= entry.size()) {
      return Status::InvalidArgument("node list entry \"" + entry +
                                     "\" is not id=host:port");
    }
    NodeInfo n;
    n.id = entry.substr(0, eq);
    n.host = entry.substr(eq + 1, colon - eq - 1);
    const std::string port_str = entry.substr(colon + 1);
    unsigned long port = 0;
    for (char c : port_str) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("node list entry \"" + entry +
                                       "\": bad port");
      }
      port = port * 10 + static_cast<unsigned long>(c - '0');
      if (port > 65535) {
        return Status::InvalidArgument("node list entry \"" + entry +
                                       "\": port out of range");
      }
    }
    n.port = static_cast<uint16_t>(port);
    if (config.FindNode(n.id) != nullptr) {
      return Status::InvalidArgument("node list: duplicate id " + n.id);
    }
    config.nodes.push_back(std::move(n));
  }
  if (config.nodes.empty()) {
    return Status::InvalidArgument("node list: no nodes");
  }
  config.Normalize();
  return config;
}

}  // namespace wfit::cluster
