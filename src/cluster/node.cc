#include "cluster/node.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/client.h"
#include "obs/health.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "persist/tenant_tree.h"

namespace wfit::cluster {

namespace fs = std::filesystem;
using net::MsgType;
using net::Request;
using net::RespKind;
using net::Response;

namespace {

/// RPCs that run checkpoint I/O or block on shard drains; everything
/// else must stay on the event loop.
bool IsSlowType(MsgType type) {
  return type == MsgType::kMigrate || type == MsgType::kMigrateIn ||
         type == MsgType::kDrain || type == MsgType::kDecommission ||
         type == MsgType::kDumpTrace;
}

void NodeCounter(std::ostream& os, const char* name, uint64_t v,
                 const char* help) {
  os << "# HELP wfit_node_" << name << " " << help << "\n"
     << "# TYPE wfit_node_" << name << " counter\n"
     << "wfit_node_" << name << " " << v << "\n";
}

/// One gauge family with a sample per peer, labelled peer="<id>".
void PeerGauge(std::ostream& os, const char* name, const char* help,
               const std::vector<PeerView>& peers,
               uint64_t (*value)(const PeerView&)) {
  os << "# HELP wfit_node_" << name << " " << help << "\n"
     << "# TYPE wfit_node_" << name << " gauge\n";
  for (const PeerView& peer : peers) {
    os << "wfit_node_" << name << "{peer=\""
       << obs::EscapeLabelValue(peer.id) << "\"} "
       << value(peer) << "\n";
  }
}

}  // namespace

TunerNode::TunerNode(service::TunerFactory factory, TunerNodeOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  WFIT_CHECK(!options_.node_id.empty(), "TunerNode requires a node id");
  config_ = options_.config;
  config_.Normalize();
  WFIT_CHECK(config_.FindNode(options_.node_id) != nullptr,
             "TunerNode: node id is not in the cluster config");
  if (!options_.fleet_root.empty() &&
      options_.router.checkpoint_root.empty()) {
    options_.router.checkpoint_root =
        options_.fleet_root + "/" + options_.node_id;
  }
}

TunerNode::~TunerNode() { Shutdown(); }

Status TunerNode::Start() {
  WFIT_CHECK(!started_, "TunerNode::Start called twice");
  started_ = true;
  router_ = std::make_unique<service::TenantRouter>(factory_,
                                                    options_.router);
  router_->Start();
  net::ServerOptions server_options;
  server_options.host = options_.host;
  server_options.port = options_.port;
  server_ = std::make_unique<net::Server>(
      [this](const Request& req) { return HandleFast(req); },
      [this](const Request& req) { return HandleSlow(req); },
      IsSlowType, server_options);
  WFIT_RETURN_IF_ERROR(server_->Start());
  {
    // An ephemeral bind (port 0) only becomes addressable now; patch our
    // own config entry so redirects and encoded configs carry it.
    std::lock_guard<std::mutex> lock(config_mu_);
    for (NodeInfo& n : config_.nodes) {
      if (n.id == options_.node_id && n.port == 0) n.port = server_->port();
    }
  }
  if (options_.enable_membership) {
    membership_ = std::make_unique<Membership>(this, options_.membership);
    membership_->Start();
  }
  return Status::Ok();
}

void TunerNode::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  // Membership first (stop probing and orchestrating against a node
  // that's tearing itself down), then the server so no new requests race
  // the router teardown; the router shutdown then takes every shard's
  // final checkpoint + journal seal.
  if (membership_ != nullptr) membership_->Shutdown();
  server_->Shutdown();
  router_->Shutdown();
}

ClusterConfig TunerNode::Config() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return config_;
}

void TunerNode::InstallConfig(ClusterConfig config) {
  std::lock_guard<std::mutex> lock(config_mu_);
  if (config.version <= config_.version) return;
  config_ = std::move(config);
}

bool TunerNode::CheckOwnership(const std::string& tenant,
                               Response* redirect) {
  std::lock_guard<std::mutex> lock(config_mu_);
  const NodeInfo* owner = OwnerOf(config_, tenant);
  if (owner == nullptr) {
    *redirect = net::ErrResp(
        Status::FailedPrecondition("cluster config has no nodes"));
    return false;
  }
  if (owner->id == options_.node_id) return true;
  redirect->kind = RespKind::kNotLeader;
  redirect->owner_id = owner->id;
  redirect->owner_host = owner->host;
  redirect->owner_port = owner->port;
  redirect->config_version = config_.version;
  redirects_sent_.fetch_add(1);
  return false;
}

std::string TunerNode::ScrapeText() {
  std::ostringstream os;
  os << router_->ExportText();
  uint64_t version;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    version = config_.version;
  }
  os << "# HELP wfit_node_config_version Cluster config version this node"
        " acts on\n"
     << "# TYPE wfit_node_config_version gauge\n"
     << "wfit_node_config_version " << version << "\n";
  NodeCounter(os, "requests_total", server_->requests_served(),
              "RPC requests answered by this node");
  NodeCounter(os, "redirects_total", redirects_sent_.load(),
              "NotLeaderForTenant redirects sent");
  NodeCounter(os, "migrations_out_total", migrations_out_.load(),
              "Tenants handed off to another node");
  NodeCounter(os, "migrations_in_total", migrations_in_.load(),
              "Tenants received from another node");
  os << "# HELP wfit_node_admin_queue_depth Admin (slow-path) jobs queued\n"
     << "# TYPE wfit_node_admin_queue_depth gauge\n"
     << "wfit_node_admin_queue_depth " << server_->admin_queue_depth()
     << "\n";
  NodeCounter(os, "admin_shed_total", server_->admin_shed_total(),
              "Admin RPCs shed with kBusy (queue at capacity)");
  {
    const obs::TraceCounters tc = obs::CollectTraceCounters();
    os << "# HELP wfit_node_tracing_enabled 1 when span recording is on\n"
       << "# TYPE wfit_node_tracing_enabled gauge\n"
       << "wfit_node_tracing_enabled " << (obs::TracingEnabled() ? 1 : 0)
       << "\n";
    NodeCounter(os, "trace_spans_total", tc.recorded,
                "Spans recorded into this node's trace rings");
    NodeCounter(os, "trace_dropped_total", tc.dropped,
                "Spans overwritten before any collection");
  }
  if (membership_ != nullptr) {
    const MembershipCounters mc = membership_->Counters();
    NodeCounter(os, "heartbeats_sent_total", mc.heartbeats_sent,
                "Membership probes sent");
    NodeCounter(os, "heartbeats_received_total", mc.heartbeats_received,
                "Membership heartbeats received from peers");
    NodeCounter(os, "probe_misses_total", mc.probe_misses,
                "Membership probes that failed or timed out");
    NodeCounter(os, "failovers_total", mc.failovers,
                "Dead-node takeovers executed by this node");
    NodeCounter(os, "tenants_failed_over_total", mc.tenants_failed_over,
                "Tenants re-placed by failover");
    NodeCounter(os, "failover_errors_total", mc.failover_errors,
                "Failover steps that failed and were retried or skipped");
    NodeCounter(os, "decommissions_total", mc.decommissions,
                "Planned node drains executed by this node");
    os << "# HELP wfit_node_last_takeover_ms Wall-clock cost of the most"
          " recent failover takeover\n"
       << "# TYPE wfit_node_last_takeover_ms gauge\n"
       << "wfit_node_last_takeover_ms " << mc.last_takeover_ms << "\n";
    os << "# HELP wfit_node_acting_coordinator 1 while this node is the"
          " lowest-id live node, the one that runs failovers\n"
       << "# TYPE wfit_node_acting_coordinator gauge\n"
       << "wfit_node_acting_coordinator "
       << (membership_->IsActingCoordinator() ? 1 : 0) << "\n";
    const std::vector<PeerView> peers = membership_->Peers();
    PeerGauge(os, "peer_health", "Peer health (0=alive 1=suspect 2=dead)",
              peers, [](const PeerView& p) {
                return static_cast<uint64_t>(p.health);
              });
    PeerGauge(os, "peer_misses", "Consecutive failed probes of the peer",
              peers, [](const PeerView& p) { return p.consecutive_misses; });
    PeerGauge(os, "peer_silence_ms",
              "Lease age: ms since the peer was last heard either way",
              peers, [](const PeerView& p) { return p.silence_ms; });
  }
  return os.str();
}

Response TunerNode::HandleFast(const Request& req) {
  Response resp;
  switch (req.type) {
    case MsgType::kPing:
      resp.text = "pong";
      return resp;
    case MsgType::kSubmit: {
      if (!CheckOwnership(req.tenant, &resp)) return resp;
      if (!req.has_statement) {
        return net::ErrResp(
            Status::InvalidArgument("kSubmit without a statement"));
      }
      if (!router_->TrySubmit(req.tenant, req.statement)) {
        resp.kind = RespKind::kBusy;
      }
      return resp;
    }
    case MsgType::kSubmitAt: {
      if (!CheckOwnership(req.tenant, &resp)) return resp;
      if (!req.has_statement) {
        return net::ErrResp(
            Status::InvalidArgument("kSubmitAt without a statement"));
      }
      switch (router_->TrySubmitAt(req.tenant, req.seq, req.statement)) {
        case service::PushAtResult::kAccepted:
          return resp;
        case service::PushAtResult::kDuplicate:
          resp.count = 1;  // exactly-once success; already covered
          return resp;
        case service::PushAtResult::kWouldBlock:
          resp.kind = RespKind::kBusy;
          return resp;
        case service::PushAtResult::kClosed:
          return net::ErrResp(
              Status::FailedPrecondition("node is shutting down"));
      }
      return resp;
    }
    case MsgType::kFeedback:
      if (!CheckOwnership(req.tenant, &resp)) return resp;
      router_->Feedback(req.tenant, req.f_plus, req.f_minus);
      return resp;
    case MsgType::kFeedbackAfter:
      if (!CheckOwnership(req.tenant, &resp)) return resp;
      router_->FeedbackAfter(req.tenant, req.seq, req.f_plus, req.f_minus);
      return resp;
    case MsgType::kGetRecommendation: {
      if (!CheckOwnership(req.tenant, &resp)) return resp;
      auto snapshot = router_->Recommendation(req.tenant);
      if (snapshot == nullptr) {
        return net::ErrResp(
            Status::Internal("tenant admission failed: " + req.tenant));
      }
      resp.configuration = snapshot->configuration;
      resp.analyzed = snapshot->analyzed;
      resp.version = snapshot->version;
      return resp;
    }
    case MsgType::kGetAnalyzed:
      if (!CheckOwnership(req.tenant, &resp)) return resp;
      resp.analyzed = router_->analyzed(req.tenant);
      return resp;
    case MsgType::kScrapeMetrics:
      resp.text = ScrapeText();
      return resp;
    case MsgType::kListTenants:
      // Union of live and persisted: resident tenants first (sorted),
      // persisted-only after (sorted), with `count` = the resident
      // prefix so a caller reads both halves from one RPC.
      resp.tenants = router_->ResidentTenants();
      std::sort(resp.tenants.begin(), resp.tenants.end());
      resp.count = resp.tenants.size();
      {
        std::vector<std::string> persisted_only;
        for (std::string& id : router_->PersistedTenants()) {
          bool known = false;
          for (const std::string& have : resp.tenants) {
            if (have == id) {
              known = true;
              break;
            }
          }
          if (!known) persisted_only.push_back(std::move(id));
        }
        std::sort(persisted_only.begin(), persisted_only.end());
        for (std::string& id : persisted_only) {
          resp.tenants.push_back(std::move(id));
        }
      }
      return resp;
    case MsgType::kGetHistory:
      // Deliberately NOT ownership-checked: after a migration the source
      // keeps the retired prefix of the trajectory, and clients stitch
      // per-node segments together.
      resp.history = router_->History(req.tenant);
      resp.history_start = router_->HistoryStart(req.tenant);
      return resp;
    case MsgType::kGetConfig: {
      std::lock_guard<std::mutex> lock(config_mu_);
      resp.text = EncodeClusterConfig(config_);
      resp.config_version = config_.version;
      return resp;
    }
    case MsgType::kSetConfig: {
      ClusterConfig incoming;
      Status st = DecodeClusterConfig(req.config_blob, &incoming);
      if (!st.ok()) return net::ErrResp(st);
      InstallConfig(std::move(incoming));
      std::lock_guard<std::mutex> lock(config_mu_);
      resp.config_version = config_.version;
      return resp;
    }
    case MsgType::kShutdownNode:
      shutdown_requested_.store(true);
      return resp;
    case MsgType::kHeartbeat: {
      // Answer with who we are and how fresh our config is; the sender's
      // lease refresh (passive liveness) happens in ObserveHeartbeat.
      if (membership_ != nullptr) {
        membership_->ObserveHeartbeat(req.node_id, req.seq);
      }
      resp.owner_id = options_.node_id;
      std::lock_guard<std::mutex> lock(config_mu_);
      resp.config_version = config_.version;
      return resp;
    }
    case MsgType::kMigrate:
    case MsgType::kMigrateIn:
    case MsgType::kDrain:
    case MsgType::kDecommission:
    case MsgType::kDumpTrace:
      // Routed to HandleSlow by the server; reaching here is a bug.
      return net::ErrResp(
          Status::Internal("admin RPC dispatched to the fast path"));
  }
  return net::ErrResp(Status::InvalidArgument("unhandled request type"));
}

Response TunerNode::HandleSlow(const Request& req) {
  switch (req.type) {
    case MsgType::kDrain: {
      Response resp;
      resp.count = router_->EvictIdle();
      return resp;
    }
    case MsgType::kMigrate: {
      uint64_t handoff_ms = 0;
      Status st = MigrateTenant(req.tenant, req.target_node, &handoff_ms);
      if (!st.ok()) return net::ErrResp(st);
      Response resp;
      resp.count = handoff_ms;
      return resp;
    }
    case MsgType::kMigrateIn:
      return HandleMigrateIn(req);
    case MsgType::kDumpTrace: {
      // Span-line text (one span per line) — cheap to merge and re-parse
      // on the collecting side without a JSON parser; the final writer
      // renders Chrome/Perfetto JSON.
      Response resp;
      resp.text = obs::FormatSpanLines(obs::CollectSpans());
      return resp;
    }
    case MsgType::kDecommission: {
      if (membership_ == nullptr) {
        return net::ErrResp(Status::FailedPrecondition(
            "decommission requires membership to be enabled"));
      }
      Status st = membership_->Decommission(req.target_node);
      if (!st.ok()) return net::ErrResp(st);
      return Response{};
    }
    default:
      return HandleFast(req);  // backlog drain funnels fast types here
  }
}

Response TunerNode::HandleMigrateIn(const Request& req) {
  obs::SpanGuard span("migrate.in");
  span.SetDetail(req.tenant + " " + std::to_string(req.pack.size()) + "B");
  if (options_.router.checkpoint_root.empty()) {
    return net::ErrResp(Status::FailedPrecondition(
        "migration target has no checkpoint root"));
  }
  // An empty config blob means "tree only": failover lands every
  // recovered tenant first and fans the successor config out afterwards,
  // so there is nothing to adopt here. Migration always ships a config.
  ClusterConfig incoming;
  const bool has_config = !req.config_blob.empty();
  Status st = has_config ? DecodeClusterConfig(req.config_blob, &incoming)
                         : Status::Ok();
  if (!st.ok()) return net::ErrResp(st);
  // Land the tree and the carried votes BEFORE adopting the config that
  // names us as owner. Until the install, redirected clients bounce
  // between source and target (both still redirect away — their retry
  // backoff absorbs the window); the moment we adopt the override, the
  // first data-plane touch lazily admits the tenant, so everything its
  // recovery needs must already be in place. Adopting first is a real
  // race: a redirected submit can admit the tenant mid-unpack, and
  // SeedCarriedVotes would then (correctly) refuse a resident tenant.
  const std::string dir = persist::TenantCheckpointDir(
      options_.router.checkpoint_root, req.tenant);
  st = persist::UnpackCheckpointDir(req.pack, dir);
  if (!st.ok()) return net::ErrResp(st);
  service::TunerService::PendingVotes votes;
  for (const net::VoteWire& v : req.votes) {
    votes.emplace(v.after_seq, std::make_pair(v.plus, v.minus));
  }
  st = router_->SeedCarriedVotes(req.tenant, std::move(votes));
  if (!st.ok()) return net::ErrResp(st);
  const uint64_t incoming_version = incoming.version;
  if (has_config) InstallConfig(std::move(incoming));
  migrations_in_.fetch_add(1);
  obs::Log(obs::LogLevel::kInfo, "migrate.landed")
      .Str("tenant", req.tenant)
      .U64("votes", req.votes.size())
      .U64("config_version", incoming_version);
  return Response{};
}

Status TunerNode::MigrateTenant(const std::string& tenant,
                                const std::string& target_node_id,
                                uint64_t* handoff_ms) {
  const auto t_start = std::chrono::steady_clock::now();
  obs::SpanGuard mig_span("migrate.out");
  mig_span.SetDetail(tenant + "->" + target_node_id);
  if (target_node_id == options_.node_id) {
    return Status::InvalidArgument("migration target is this node");
  }
  // Install the override up front: from this moment new requests for the
  // tenant redirect toward the target, quiescing our shard so the evict
  // loop below converges.
  NodeInfo target;
  ClusterConfig rollback;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    const NodeInfo* found = config_.FindNode(target_node_id);
    if (found == nullptr) {
      return Status::NotFound("unknown migration target node " +
                              target_node_id);
    }
    target = *found;
    rollback = config_;
    config_.overrides[tenant] = target_node_id;
    ++config_.version;
    obs::RecordInstant("migrate.override",
                       "cfg v" + std::to_string(config_.version));
  }
  auto revert = [&] {
    std::lock_guard<std::mutex> lock(config_mu_);
    // Roll placements back but keep the version moving forward, so the
    // revert also wins against any copy of the aborted config.
    uint64_t next_version = config_.version + 1;
    config_ = rollback;
    config_.version = next_version;
  };

  // Checkpoint-then-close. Evict refuses while the shard is mid-drain or
  // has buffered statements; in-flight work drains in milliseconds, so
  // retry on a short leash.
  {
    obs::SpanGuard evict_span("migrate.evict");
    evict_span.SetDetail(tenant);
    const auto deadline = t_start + std::chrono::seconds(15);
    while (router_->IsResident(tenant)) {
      if (router_->Evict(tenant)) break;
      if (std::chrono::steady_clock::now() > deadline) {
        revert();
        obs::Log(obs::LogLevel::kWarn, "migrate.evict_timeout")
            .Str("tenant", tenant)
            .Str("target", target_node_id);
        return Status::Internal("migration: tenant " + tenant +
                                " would not go idle within 15s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  auto votes = router_->TakeCarriedVotes(tenant);
  if (!votes.ok()) {
    revert();
    return votes.status();
  }
  auto reseed = [&] {
    (void)router_->SeedCarriedVotes(tenant, std::move(*votes));
  };

  if (options_.router.checkpoint_root.empty()) {
    reseed();
    revert();
    return Status::FailedPrecondition(
        "migration source has no checkpoint root");
  }
  const std::string dir = persist::TenantCheckpointDir(
      options_.router.checkpoint_root, tenant);
  StatusOr<std::string> pack = [&] {
    obs::SpanGuard pack_span("migrate.pack");
    pack_span.SetDetail(tenant);
    return persist::PackCheckpointDir(dir);
  }();
  if (!pack.ok()) {
    reseed();
    revert();
    return pack.status();
  }

  Request ship;
  ship.type = MsgType::kMigrateIn;
  ship.tenant = tenant;
  ship.pack = std::move(*pack);
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    ship.config_blob = EncodeClusterConfig(config_);
  }
  for (const auto& [after_seq, vote] : *votes) {
    net::VoteWire v;
    v.after_seq = after_seq;
    v.plus = vote.first;
    v.minus = vote.second;
    ship.votes.push_back(std::move(v));
  }

  Status st;
  {
    obs::SpanGuard ship_span("migrate.ship");
    ship_span.SetDetail(tenant + " " + std::to_string(ship.pack.size()) +
                        "B");
    net::Client client;
    st = client.Connect(target.host, target.port);
    if (st.ok()) {
      auto called = client.Call(ship);
      if (!called.ok()) {
        st = called.status();
      } else if (called->kind != RespKind::kOk) {
        st = Status::Internal("migration target refused: " +
                              called->message);
      }
    }
  }
  if (!st.ok()) {
    reseed();
    revert();
    obs::Log(obs::LogLevel::kWarn, "migrate.aborted")
        .Str("tenant", tenant)
        .Str("target", target_node_id)
        .Str("error", st.ToString());
    return st;
  }

  // The tenant now lives on the target; the local tree is a stale copy
  // that must not resurrect the tenant here after a restart.
  std::error_code ec;
  fs::remove_all(dir, ec);
  migrations_out_.fetch_add(1);

  // Best-effort config fan-out so the rest of the fleet redirects
  // straight to the target instead of bouncing through us. Stragglers
  // self-heal via the version carried on redirects.
  Request set;
  set.type = MsgType::kSetConfig;
  set.config_blob = ship.config_blob;
  ClusterConfig snapshot;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    snapshot = config_;
  }
  {
    obs::SpanGuard fanout_span("migrate.fanout");
    fanout_span.SetDetail("cfg v" + std::to_string(snapshot.version));
    for (const NodeInfo& n : snapshot.nodes) {
      if (n.id == options_.node_id || n.id == target_node_id) continue;
      net::Client peer;
      if (peer.Connect(n.host, n.port).ok()) (void)peer.Call(set);
    }
  }

  const uint64_t elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t_start)
          .count());
  if (handoff_ms != nullptr) *handoff_ms = elapsed_ms;
  obs::Log(obs::LogLevel::kInfo, "migrate.done")
      .Str("tenant", tenant)
      .Str("target", target_node_id)
      .U64("handoff_ms", elapsed_ms)
      .U64("config_version", snapshot.version);
  return Status::Ok();
}

}  // namespace wfit::cluster
