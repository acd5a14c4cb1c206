// Tenant placement across router nodes: rendezvous (highest-random-
// weight) hashing, so every node computes the same owner for a tenant
// from the config alone — no coordination service — and adding or
// removing a node only moves the tenants that hash to it (~1/N of the
// keyspace), never reshuffling the rest like modulo hashing would.
//
// The config is versioned: migrations install a per-tenant override and
// bump the version, and nodes/clients adopt whichever config carries the
// higher version (NotLeaderForTenant redirects ship it). Overrides make
// placement explicit where it matters — a migrated tenant stays put even
// though the hash says otherwise — while the hash handles the anonymous
// masses.
#ifndef WFIT_CLUSTER_PLACEMENT_H_
#define WFIT_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/tenant_router.h"

namespace wfit::cluster {

struct NodeInfo {
  std::string id;
  std::string host;
  uint16_t port = 0;
};

struct ClusterConfig {
  /// Monotone; higher version wins everywhere.
  uint64_t version = 0;
  /// Sorted by id (Normalize enforces it; codec preserves order).
  std::vector<NodeInfo> nodes;
  /// tenant id -> node id, consulted before the hash. Installed by
  /// migrations; an override naming an unknown node is ignored (falls
  /// back to the hash) so a stale override cannot strand a tenant.
  std::map<std::string, std::string> overrides;
  /// tenant id -> QoS class (DRR weight, sampling floor), distributed
  /// with the config so every node schedules a migrated tenant
  /// identically. Encoded as an optional trailer: a
  /// config without QoS entries round-trips byte-identically with the
  /// pre-QoS codec.
  std::map<std::string, service::TenantQos> tenant_qos;

  const NodeInfo* FindNode(const std::string& id) const;
  void Normalize();  // sort nodes by id
};

/// The rendezvous weight of (node, tenant); exposed for tests.
uint64_t PlacementHash(const std::string& node_id,
                       const std::string& tenant);

/// The owning node: override if present and known, else the node with
/// the maximal PlacementHash (ties broken by smaller id — total order,
/// so every observer agrees). Null only when the config has no nodes.
const NodeInfo* OwnerOf(const ClusterConfig& config,
                        const std::string& tenant);

std::string EncodeClusterConfig(const ClusterConfig& config);
Status DecodeClusterConfig(std::string_view blob, ClusterConfig* out);

/// Parses "id=host:port,id=host:port,..." (the --nodes flag format) into
/// a version-0 config.
StatusOr<ClusterConfig> ParseNodeList(const std::string& spec);

}  // namespace wfit::cluster

#endif  // WFIT_CLUSTER_PLACEMENT_H_
