#include "cluster/membership.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "cluster/node.h"
#include "common/check.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "persist/tenant_tree.h"

namespace wfit::cluster {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using net::MsgType;
using net::Request;
using net::RespKind;
using net::Response;

const char* NodeHealthName(NodeHealth health) {
  switch (health) {
    case NodeHealth::kAlive:
      return "alive";
    case NodeHealth::kSuspect:
      return "suspect";
    case NodeHealth::kDead:
      return "dead";
  }
  return "unknown";
}

Membership::Membership(TunerNode* node, MembershipOptions options)
    : node_(node), options_(std::move(options)) {
  WFIT_CHECK(node_ != nullptr, "Membership requires a node");
  WFIT_CHECK(options_.heartbeat_interval_ms > 0, "heartbeat interval");
  WFIT_CHECK(options_.lease_ms > 0, "lease");
}

Membership::~Membership() { Shutdown(); }

void Membership::Start() {
  WFIT_CHECK(!started_, "Membership::Start called twice");
  started_ = true;
  hb_thread_ = std::thread([this] { HeartbeatLoop(); });
  orch_thread_ = std::thread([this] { OrchestratorLoop(); });
}

void Membership::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  hb_thread_.join();
  orch_thread_.join();
}

void Membership::ObserveHeartbeat(const std::string& from_node_id,
                                  uint64_t config_version) {
  const bool fresher = config_version > node_->Config().version;
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.heartbeats_received;
  auto it = peers_.find(from_node_id);
  if (it != peers_.end()) it->second.last_heard = Clock::now();
  if (fresher) pull_config_from_ = from_node_id;
}

bool Membership::IsActingCoordinator() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, state] : peers_) {
    if (state.health != NodeHealth::kDead && id < node_->node_id()) {
      return false;
    }
  }
  return true;
}

std::vector<PeerView> Membership::Peers() {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PeerView> views;
  for (const auto& [id, state] : peers_) {
    PeerView v;
    v.id = id;
    v.health = state.health;
    v.consecutive_misses = state.misses;
    v.silence_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - state.last_heard)
            .count());
    views.push_back(std::move(v));
  }
  return views;
}

MembershipCounters Membership::Counters() {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

StatusOr<Response> Membership::CallPeer(const NodeInfo& peer,
                                        const Request& request,
                                        int timeout_ms) {
  net::Client client;
  net::Client::Options copts;
  copts.timeout_ms = timeout_ms;
  Status st = client.Connect(peer.host, peer.port, copts);
  if (!st.ok()) return st;
  return client.Call(request);
}

void Membership::HeartbeatLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_) return;
    }
    ProbeAndEvaluate();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock,
                 std::chrono::milliseconds(options_.heartbeat_interval_ms),
                 [&] { return stop_; });
    if (stop_) return;
  }
}

void Membership::ProbeAndEvaluate() {
  const ClusterConfig config = node_->Config();
  std::vector<NodeInfo> targets;
  std::string pull_from;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The peer set IS the config (minus self): nodes removed by failover
    // or decommission stop being probed, new nodes get a fresh lease.
    for (auto it = peers_.begin(); it != peers_.end();) {
      if (config.FindNode(it->first) == nullptr) {
        it = peers_.erase(it);
      } else {
        ++it;
      }
    }
    for (const NodeInfo& n : config.nodes) {
      if (n.id == node_->node_id()) continue;
      if (peers_.find(n.id) == peers_.end()) {
        PeerState fresh;
        fresh.last_heard = Clock::now();  // full lease of grace
        peers_.emplace(n.id, fresh);
      }
      targets.push_back(n);
    }
    pull_from = pull_config_from_;
    pull_config_from_.clear();
  }

  Request hb;
  hb.type = MsgType::kHeartbeat;
  hb.node_id = node_->node_id();
  hb.seq = config.version;
  for (const NodeInfo& target : targets) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      ++counters_.heartbeats_sent;
    }
    auto result = CallPeer(target, hb, options_.rpc_timeout_ms);
    const bool ok = result.ok() && result->kind == RespKind::kOk;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = peers_.find(target.id);
    if (it == peers_.end()) continue;
    if (ok) {
      it->second.last_heard = Clock::now();
      it->second.misses = 0;
      if (result->config_version > config.version) pull_from = target.id;
    } else {
      ++it->second.misses;
      ++counters_.probe_misses;
    }
  }

  if (!pull_from.empty()) {
    if (const NodeInfo* from = config.FindNode(pull_from)) {
      Request get;
      get.type = MsgType::kGetConfig;
      auto resp = CallPeer(*from, get, options_.rpc_timeout_ms);
      if (resp.ok() && resp->kind == RespKind::kOk) {
        ClusterConfig fresh;
        if (DecodeClusterConfig(resp->text, &fresh).ok()) {
          const uint64_t pulled_version = fresh.version;
          node_->InstallConfig(std::move(fresh));
          obs::RecordInstant("config.pull",
                             pull_from + " v" +
                                 std::to_string(pulled_version));
        }
      }
    }
  }

  // Lease evaluation. Health is recomputed from scratch: a peer that
  // spoke to us again (either direction) drops back from suspect/dead
  // on its own.
  const auto now = Clock::now();
  const auto lease = std::chrono::milliseconds(options_.lease_ms);
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, state] : peers_) {
      const NodeHealth before = state.health;
      if (now - state.last_heard > lease) {
        state.health = NodeHealth::kDead;
      } else if (state.misses >=
                 static_cast<uint64_t>(options_.suspect_after_misses)) {
        state.health = NodeHealth::kSuspect;
      } else {
        state.health = NodeHealth::kAlive;
        state.failover_enqueued = false;
      }
      if (state.health != before) {
        obs::RecordInstant("peer.health",
                           id + ": " + NodeHealthName(before) + "->" +
                               NodeHealthName(state.health));
        obs::Log(state.health == NodeHealth::kDead ? obs::LogLevel::kWarn
                                                   : obs::LogLevel::kInfo,
                 "membership.transition")
            .Str("peer", id)
            .Str("from", NodeHealthName(before))
            .Str("to", NodeHealthName(state.health))
            .U64("misses", state.misses);
      }
    }
    // Acting coordinator = lowest id not dead (inline: Peers holds mu_).
    bool coordinator = true;
    for (const auto& [id, state] : peers_) {
      if (state.health != NodeHealth::kDead && id < node_->node_id()) {
        coordinator = false;
        break;
      }
    }
    if (coordinator) {
      for (auto& [id, state] : peers_) {
        if (state.health == NodeHealth::kDead && !state.failover_enqueued) {
          state.failover_enqueued = true;
          failover_queue_.push_back(id);
          enqueued = true;
        }
      }
    }
  }
  if (enqueued) cv_.notify_all();
}

void Membership::OrchestratorLoop() {
  while (true) {
    std::string dead;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !failover_queue_.empty(); });
      if (stop_) return;
      dead = std::move(failover_queue_.front());
      failover_queue_.pop_front();
    }
    FailOverDeadNode(dead);
  }
}

void Membership::FailOverDeadNode(const std::string& dead_id) {
  const auto t0 = Clock::now();
  obs::SpanGuard span("failover");
  span.SetDetail(dead_id);
  obs::Log(obs::LogLevel::kWarn, "failover.start").Str("dead", dead_id);
  uint64_t moved = 0;
  uint64_t errors = 0;
  std::vector<std::string> adopted;
  bool recovered_trees = false;
  // Up to 3 attempts: a concurrent migration can bump the config version
  // between our snapshot and install, making the install a no-op.
  for (int attempt = 0; attempt < 3; ++attempt) {
    const ClusterConfig cur = node_->Config();
    if (cur.FindNode(dead_id) == nullptr) break;  // already handled
    ClusterConfig next = cur;
    next.nodes.erase(
        std::remove_if(next.nodes.begin(), next.nodes.end(),
                       [&](const NodeInfo& n) { return n.id == dead_id; }),
        next.nodes.end());
    for (auto it = next.overrides.begin(); it != next.overrides.end();) {
      if (it->second == dead_id) {
        it = next.overrides.erase(it);
      } else {
        ++it;
      }
    }
    ++next.version;
    if (next.nodes.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.failover_errors;
      return;  // sole survivor of itself — nothing to take over onto
    }

    // Land every recovered tenant's tree at its new owner BEFORE any
    // node adopts the successor config (same ordering as kMigrateIn).
    if (!recovered_trees && !node_->fleet_root().empty()) {
      recovered_trees = true;
      const std::string dead_root = node_->fleet_root() + "/" + dead_id;
      auto listed = persist::ListTenantIds(dead_root);
      if (!listed.ok()) {
        ++errors;
      } else {
        for (const std::string& tenant : *listed) {
          const NodeInfo* owner = OwnerOf(next, tenant);
          const std::string src =
              persist::TenantCheckpointDir(dead_root, tenant);
          auto pack = persist::PackCheckpointDir(src);
          if (!pack.ok()) {
            ++errors;
            continue;
          }
          if (owner->id == node_->node_id()) {
            if (!node_->router().IsResident(tenant)) {
              Status st = persist::UnpackCheckpointDir(
                  *pack, persist::TenantCheckpointDir(
                             node_->checkpoint_root(), tenant));
              if (!st.ok()) {
                ++errors;
                continue;
              }
              obs::RecordInstant("failover.adopt", tenant);
              adopted.push_back(tenant);
            }
          } else {
            Request ship;
            ship.type = MsgType::kMigrateIn;
            ship.tenant = tenant;
            ship.pack = std::move(*pack);
            // Empty config_blob: the successor config is fanned out only
            // after every tree has landed.
            auto called =
                CallPeer(*owner, ship,
                         std::max(5000, options_.rpc_timeout_ms * 20));
            if (!called.ok() || called->kind != RespKind::kOk) {
              ++errors;
              continue;
            }
          }
          ++moved;
          std::error_code ec;
          fs::remove_all(src, ec);
        }
        std::error_code ec;
        fs::remove(dead_root, ec);  // only succeeds once empty
      }
    }

    node_->InstallConfig(next);
    if (node_->Config().FindNode(dead_id) == nullptr) break;
  }

  const uint64_t final_version = node_->Config().version;
  FanOutConfig(node_->Config());
  // Eager admission: adopted tenants start recovering now, not on first
  // client touch — takeover latency is paid here, once.
  {
    obs::SpanGuard recover_span("failover.recover");
    recover_span.SetDetail(std::to_string(adopted.size()) + " tenants");
    for (const std::string& tenant : adopted) {
      (void)node_->router().Recommendation(tenant);
    }
  }
  const uint64_t takeover_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            t0)
          .count());
  obs::Log(obs::LogLevel::kWarn, "failover.done")
      .Str("dead", dead_id)
      .U64("tenants_moved", moved)
      .U64("errors", errors)
      .U64("takeover_ms", takeover_ms)
      .U64("config_version", final_version);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.failovers;
  counters_.tenants_failed_over += moved;
  counters_.failover_errors += errors;
  counters_.last_takeover_ms = takeover_ms;
}

void Membership::FanOutConfig(const ClusterConfig& config) {
  Request set;
  set.type = MsgType::kSetConfig;
  set.config_blob = EncodeClusterConfig(config);
  for (const NodeInfo& n : config.nodes) {
    if (n.id == node_->node_id()) continue;
    (void)CallPeer(n, set, options_.rpc_timeout_ms);
  }
}

Status Membership::Decommission(const std::string& node_id) {
  obs::SpanGuard span("decommission");
  span.SetDetail(node_id);
  const ClusterConfig config = node_->Config();
  const NodeInfo* leaving = config.FindNode(node_id);
  if (leaving == nullptr) {
    return Status::NotFound("decommission: unknown node " + node_id);
  }
  if (config.nodes.size() < 2) {
    return Status::FailedPrecondition(
        "decommission: cannot remove the last node");
  }
  // Placement probe: where every tenant WILL live once the node is gone.
  // Rendezvous hashing guarantees only the leaving node's tenants move.
  ClusterConfig probe = config;
  probe.nodes.erase(
      std::remove_if(probe.nodes.begin(), probe.nodes.end(),
                     [&](const NodeInfo& n) { return n.id == node_id; }),
      probe.nodes.end());
  for (auto it = probe.overrides.begin(); it != probe.overrides.end();) {
    if (it->second == node_id) {
      it = probe.overrides.erase(it);
    } else {
      ++it;
    }
  }

  // Everything the node serves or could re-admit from disk must move.
  std::vector<std::string> tenants;
  if (node_id == node_->node_id()) {
    tenants = node_->router().ResidentTenants();
    for (std::string& t : node_->router().PersistedTenants()) {
      if (std::find(tenants.begin(), tenants.end(), t) == tenants.end()) {
        tenants.push_back(std::move(t));
      }
    }
  } else {
    Request list;
    list.type = MsgType::kListTenants;
    auto resp = CallPeer(*leaving, list, options_.rpc_timeout_ms);
    if (!resp.ok()) return resp.status();
    if (resp->kind != RespKind::kOk) {
      return Status::Internal("decommission: list tenants: " +
                              resp->message);
    }
    tenants = resp->tenants;
  }
  std::sort(tenants.begin(), tenants.end());

  for (const std::string& tenant : tenants) {
    const NodeInfo* dest = OwnerOf(probe, tenant);
    Status st;
    if (node_id == node_->node_id()) {
      st = node_->MigrateTenant(tenant, dest->id);
    } else {
      Request migrate;
      migrate.type = MsgType::kMigrate;
      migrate.tenant = tenant;
      migrate.target_node = dest->id;
      auto resp = CallPeer(*leaving, migrate,
                           std::max(20000, options_.rpc_timeout_ms * 20));
      st = !resp.ok() ? resp.status()
           : resp->kind == RespKind::kOk
               ? Status::Ok()
               : Status::Internal("migrate refused: " + resp->message);
    }
    if (!st.ok()) {
      // Partial decommission is safe to retry: moved tenants stay moved
      // (their overrides are installed), the rest stayed put.
      return Status::Internal("decommission: migrating " + tenant +
                              " off " + node_id + ": " + st.ToString());
    }
  }

  // Drop the node. Migration version bumps landed in the meantime, so
  // re-snapshot and remove.
  ClusterConfig next = node_->Config();
  if (next.FindNode(node_id) != nullptr) {
    next.nodes.erase(
        std::remove_if(next.nodes.begin(), next.nodes.end(),
                       [&](const NodeInfo& n) { return n.id == node_id; }),
        next.nodes.end());
    for (auto it = next.overrides.begin(); it != next.overrides.end();) {
      if (it->second == node_id) {
        it = next.overrides.erase(it);
      } else {
        ++it;
      }
    }
    ++next.version;
    node_->InstallConfig(next);
  }
  FanOutConfig(node_->Config());
  // Tell the leaving node too (it is no longer in the config): it keeps
  // running, empty, until the operator shuts it down.
  {
    Request set;
    set.type = MsgType::kSetConfig;
    set.config_blob = EncodeClusterConfig(node_->Config());
    (void)CallPeer(*leaving, set, options_.rpc_timeout_ms);
  }
  obs::Log(obs::LogLevel::kInfo, "decommission.done")
      .Str("node", node_id)
      .U64("tenants_moved", tenants.size())
      .U64("config_version", node_->Config().version);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.decommissions;
  return Status::Ok();
}

}  // namespace wfit::cluster
