#include "cluster/cluster_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/health.h"

namespace wfit::cluster {

using net::RespKind;
using net::Response;

ClusterClient::ClusterClient(ClusterConfig config,
                             ClusterClientOptions options)
    : config_(std::move(config)),
      options_(options),
      jitter_(options.jitter_seed != 0 ? options.jitter_seed
                                       : std::random_device{}()) {
  config_.Normalize();
}

int ClusterClient::NextBackoffMs(int* prev_ms) {
  // Decorrelated jitter (Brooker): sleep ~ U[initial, 3 * previous],
  // clamped. Grows roughly exponentially but desynchronizes retriers.
  const int lo = options_.backoff_initial_ms;
  const int hi = std::max(lo + 1, *prev_ms * 3);
  std::uniform_int_distribution<int> dist(lo, hi);
  *prev_ms = std::min(options_.backoff_cap_ms, dist(jitter_));
  return *prev_ms;
}

void ClusterClient::AdoptConfig(ClusterConfig fresh) {
  if (fresh.version <= config_.version) return;
  fresh.Normalize();
  for (const NodeInfo& n : config_.nodes) {
    if (fresh.FindNode(n.id) == nullptr) {
      // Present before, gone now: membership removed it. Its connection
      // is useless and further attempts at it should fail fast.
      dead_nodes_.insert(n.id);
      conns_.erase(n.id);
    }
  }
  for (const NodeInfo& n : fresh.nodes) dead_nodes_.erase(n.id);  // rejoin
  config_ = std::move(fresh);
}

StatusOr<Response> ClusterClient::CallAddr(const std::string& node_id,
                                           const std::string& host,
                                           uint16_t port,
                                           const net::Request& request) {
  auto& conn = conns_[node_id];
  if (conn == nullptr) conn = std::make_unique<net::Client>();
  if (!conn->connected()) {
    Status st = conn->Connect(host, port, options_.rpc);
    if (!st.ok()) {
      conns_.erase(node_id);
      return st;
    }
  }
  auto result = conn->Call(request);
  if (!result.ok()) conns_.erase(node_id);  // stale conn; reconnect next time
  return result;
}

void ClusterClient::RefreshConfigFrom(const std::string& host,
                                      uint16_t port) {
  net::Client probe;
  if (!probe.Connect(host, port, options_.rpc).ok()) return;
  net::Request req;
  req.type = net::MsgType::kGetConfig;
  auto resp = probe.Call(req);
  if (!resp.ok() || resp->kind != RespKind::kOk) return;
  ClusterConfig fresh;
  if (DecodeClusterConfig(resp->text, &fresh).ok()) {
    AdoptConfig(std::move(fresh));
  }
}

void ClusterClient::RefreshConfigFromAnyBut(const std::string& skip) {
  // Snapshot the node list: AdoptConfig rewrites config_ mid-loop.
  const std::vector<NodeInfo> nodes = config_.nodes;
  const uint64_t before = config_.version;
  for (const NodeInfo& n : nodes) {
    if (n.id == skip || dead_nodes_.count(n.id) != 0) continue;
    RefreshConfigFrom(n.host, n.port);
    if (config_.version > before) return;
  }
}

StatusOr<Response> ClusterClient::Call(const std::string& tenant,
                                       net::Request request) {
  request.tenant = tenant;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.retry_deadline_ms);
  // Where to aim first; redirects override this below.
  const NodeInfo* owner = OwnerOf(config_, tenant);
  if (owner == nullptr) {
    return Status::FailedPrecondition("cluster client: empty config");
  }
  std::string node_id = owner->id;
  std::string host = owner->host;
  uint16_t port = owner->port;
  int backoff_ms = options_.backoff_initial_ms;
  Status last = Status::Internal("cluster client: no attempt made");
  while (std::chrono::steady_clock::now() < deadline) {
    auto result = CallAddr(node_id, host, port, request);
    if (!result.ok()) {
      // Transport failure. The target may be mid-restart (retry it) or
      // dead (a survivor's config no longer lists it — re-aim at the
      // tenant's new owner immediately, no backoff: failover already
      // paid the wait).
      last = result.status();
      RefreshConfigFromAnyBut(node_id);
      const bool known_dead = dead_nodes_.count(node_id) != 0;
      if (!known_dead) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(NextBackoffMs(&backoff_ms)));
      }
      const NodeInfo* again = OwnerOf(config_, tenant);
      if (again == nullptr) {
        return Status::FailedPrecondition(
            "cluster client: config went empty for tenant " + tenant);
      }
      if (known_dead && again->id == node_id) {
        return Status::Internal(
            "cluster client: owner " + node_id + " of tenant " + tenant +
            " is dead and no newer config re-places it (" +
            last.ToString() + ")");
      }
      node_id = again->id;
      host = again->host;
      port = again->port;
      continue;
    }
    switch (result->kind) {
      case RespKind::kOk:
      case RespKind::kError:
        return result;
      case RespKind::kNotLeader:
        // Self-repair: aim at the advertised owner; when it advertises a
        // newer config, pull the whole thing so FUTURE calls route right
        // on the first try. A stale redirect can still point at a node
        // we know is dead — recompute from our (newer) config instead of
        // chasing the ghost.
        if (result->config_version > config_.version) {
          RefreshConfigFrom(result->owner_host,
                            static_cast<uint16_t>(result->owner_port));
        }
        if (dead_nodes_.count(result->owner_id) != 0) {
          if (const NodeInfo* again = OwnerOf(config_, tenant)) {
            node_id = again->id;
            host = again->host;
            port = again->port;
          }
        } else {
          node_id = result->owner_id;
          host = result->owner_host;
          port = static_cast<uint16_t>(result->owner_port);
        }
        // A redirect ping-pong during the handoff window resolves once
        // kMigrateIn installs the target's config; give it a moment.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(NextBackoffMs(&backoff_ms)));
        last = Status::Internal("cluster client: redirected to " + node_id);
        continue;
      case RespKind::kBusy:
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        last = Status::Internal("cluster client: backpressure at " +
                                node_id);
        continue;
    }
  }
  return Status::Internal("cluster client: deadline exhausted for tenant " +
                          tenant + " (" + last.ToString() + ")");
}

FleetScrape ClusterClient::ScrapeNodes() {
  FleetScrape fleet;
  // Snapshot: CallNode can adopt a fresher config mid-sweep.
  const std::vector<NodeInfo> nodes = config_.nodes;
  for (const NodeInfo& n : nodes) {
    if (dead_nodes_.count(n.id) != 0) continue;
    net::Request req;
    req.type = net::MsgType::kScrapeMetrics;
    auto resp = CallNode(n.id, req);
    if (resp.ok() && resp->kind == RespKind::kOk) {
      fleet.nodes.emplace_back(n.id, std::move(resp->text));
    } else {
      fleet.unreachable.push_back(n.id);
    }
  }
  return fleet;
}

std::string ClusterClient::ScrapeFleet() {
  return obs::MergeFleetScrapeText(ScrapeNodes().nodes);
}

StatusOr<Response> ClusterClient::CallNode(const std::string& node_id,
                                           net::Request request) {
  if (dead_nodes_.count(node_id) != 0) {
    return Status::NotFound("cluster client: node " + node_id +
                            " was removed from the cluster (dead); "
                            "refusing to retry against it");
  }
  const NodeInfo* node = config_.FindNode(node_id);
  if (node == nullptr) {
    return Status::NotFound("cluster client: unknown node " + node_id);
  }
  return CallAddr(node_id, node->host, node->port, request);
}

}  // namespace wfit::cluster
