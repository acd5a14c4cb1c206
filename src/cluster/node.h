// One router node of the tuning fleet: a TenantRouter fronted by the
// net/ RPC server, plus the placement logic that decides which tenants
// this node answers for and the migration orchestration that moves a
// tenant to another node without losing a single statement or vote.
//
// Ownership protocol: every data-plane RPC is checked against the
// current ClusterConfig; a request for a tenant this node does not own
// gets kNotLeader with the owner's address and the config version, so
// clients self-repair their routing tables (no coordination service).
//
// Live migration (source side, runs on the server's admin thread):
//   1. install a placement override tenant->target (version bump) — new
//      requests start redirecting while the handoff runs;
//   2. evict the tenant via the checkpoint-then-close path (retrying
//      until its shard goes idle), which seals a final snapshot and
//      returns the future-keyed votes;
//   3. pack the checkpoint tree, ship it with the votes and the new
//      config in one kMigrateIn RPC;
//   4. on success drop the local tree and fan the config out; on ANY
//      failure revert the override and re-seed the votes locally — the
//      tenant keeps running here as if nothing happened.
// The target unpacks into its own checkpoint root, seeds the carried
// votes, and lazily re-admits on first touch — recovery then replays
// the identical deterministic path a dedicated node would have taken,
// which is what makes the migrated trajectory bit-for-bit identical.
#ifndef WFIT_CLUSTER_NODE_H_
#define WFIT_CLUSTER_NODE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "cluster/membership.h"
#include "cluster/placement.h"
#include "common/status.h"
#include "net/server.h"
#include "service/tenant_router.h"

namespace wfit::cluster {

struct TunerNodeOptions {
  /// Must name an entry of `config`.
  std::string node_id;
  /// Initial cluster layout. Our own entry's port may be 0 (ephemeral);
  /// Start() patches the actually-bound port in.
  ClusterConfig config;
  /// Router template; checkpoint_root is required for migration.
  service::TenantRouterOptions router;
  /// Listen address.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Shared checkpoint tree root: this node persists under
  /// <fleet_root>/<node_id> (overrides router.checkpoint_root when that
  /// is empty) and failover recovers dead nodes' tenants from their
  /// slices. Leave empty to manage checkpoint_root directly.
  std::string fleet_root;
  /// Runs the lease/heartbeat membership layer (see membership.h).
  bool enable_membership = false;
  MembershipOptions membership;
};

class TunerNode {
 public:
  TunerNode(service::TunerFactory factory, TunerNodeOptions options);
  ~TunerNode();

  TunerNode(const TunerNode&) = delete;
  TunerNode& operator=(const TunerNode&) = delete;

  Status Start();
  /// Drains and closes the router (final checkpoints + journal seal) and
  /// stops the server. Idempotent.
  void Shutdown();

  const std::string& node_id() const { return options_.node_id; }
  uint16_t port() const { return server_ == nullptr ? 0 : server_->port(); }
  service::TenantRouter& router() { return *router_; }
  /// Null unless enable_membership (and only after Start()).
  Membership* membership() { return membership_.get(); }
  const std::string& checkpoint_root() const {
    return options_.router.checkpoint_root;
  }
  /// Empty unless the node runs on a shared fleet tree.
  const std::string& fleet_root() const { return options_.fleet_root; }

  ClusterConfig Config() const;
  /// Adopts `config` iff its version is higher than the current one.
  void InstallConfig(ClusterConfig config);

  /// Orchestrates the live handoff of `tenant` to `target_node_id` (see
  /// file comment). Also reachable remotely via the kMigrate RPC. On
  /// success *handoff_ms (optional) receives the wall-clock cost.
  Status MigrateTenant(const std::string& tenant,
                       const std::string& target_node_id,
                       uint64_t* handoff_ms = nullptr);

  /// True once a kShutdownNode RPC arrived (the embedder decides when to
  /// actually call Shutdown, typically from its main loop).
  bool ShutdownRequested() const { return shutdown_requested_.load(); }

  uint64_t requests_served() const {
    return server_ == nullptr ? 0 : server_->requests_served();
  }

 private:
  net::Response HandleFast(const net::Request& req);
  net::Response HandleSlow(const net::Request& req);
  net::Response HandleMigrateIn(const net::Request& req);
  /// Ok-kind response when this node owns `tenant`; kNotLeader (with the
  /// owner's address) or kError otherwise.
  bool CheckOwnership(const std::string& tenant, net::Response* redirect);
  std::string ScrapeText();

  service::TunerFactory factory_;
  TunerNodeOptions options_;
  std::unique_ptr<service::TenantRouter> router_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<Membership> membership_;

  mutable std::mutex config_mu_;
  ClusterConfig config_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<uint64_t> migrations_out_{0};
  std::atomic<uint64_t> migrations_in_{0};
  std::atomic<uint64_t> redirects_sent_{0};
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace wfit::cluster

#endif  // WFIT_CLUSTER_NODE_H_
