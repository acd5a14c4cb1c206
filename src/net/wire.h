// Wire protocol: the RPC vocabulary the cluster speaks, serialized with
// the same persist/codec primitives (and the same Statement record
// layout) the on-disk journal uses. Each RPC is one Request frame out,
// one Response frame back, in order, over a plain framed TCP stream (see
// net/frame.h for the framing).
//
// The Request/Response structs are deliberately flat unions-by-
// convention: every message type reads the fields it cares about and
// ignores the rest, and the codec always encodes every field. That costs
// a few bytes per message but keeps the protocol versionable with a
// single version byte and makes torn/garbled input a pure Decoder error.
#ifndef WFIT_NET_WIRE_H_
#define WFIT_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/index_set.h"
#include "workload/statement.h"

namespace wfit::net {

/// Bumped on any incompatible layout change; both sides refuse every
/// other version.
/// v2: added Request::node_id + the membership RPCs (kHeartbeat,
/// kDecommission).
/// v3: appended the trace-context extension (trace_id + parent_span) to
/// Request and added kDumpTrace.
inline constexpr uint8_t kWireVersion = 3;

enum class MsgType : uint8_t {
  kPing = 1,
  // Tuning data plane.
  kSubmit = 2,           // tenant, statement
  kSubmitAt = 3,         // tenant, seq, statement (exactly-once)
  kFeedback = 4,         // tenant, f_plus, f_minus
  kFeedbackAfter = 5,    // tenant, seq (= after_seq), f_plus, f_minus
  kGetRecommendation = 6,  // tenant
  kGetAnalyzed = 7,        // tenant
  // Observability.
  kScrapeMetrics = 8,    // whole-node Prometheus text
  kListTenants = 9,
  kGetHistory = 10,      // tenant; not ownership-checked (see node.h)
  kGetConfig = 11,
  // Admin plane (slow path).
  kMigrate = 12,     // tenant, target_node: orchestrate handoff to target
  kMigrateIn = 13,   // tenant, pack, votes, config_blob: receiving side
  kDrain = 14,       // evict every idle tenant (checkpoint-then-close)
  kSetConfig = 15,   // config_blob: adopt a newer cluster config
  kShutdownNode = 16,
  // Membership (fast path): node_id = sender, seq = sender's config
  // version; the receiver answers with its own node id in owner_id and
  // its config version in config_version, so both sides learn who is
  // fresher from a single round trip.
  kHeartbeat = 17,
  // Admin plane: drain target_node (migrating every tenant to its
  // rendezvous owner among the remaining nodes) and drop it from the
  // cluster config. Handled by any membership-enabled node.
  kDecommission = 18,
  // Observability (v3).
  kDumpTrace = 19,   // span-line dump of the node's trace rings (slow path)
  // Do not reuse 20: older v3 builds send it for a JSON health report that
  // kScrapeMetrics now carries; this decoder refuses it as unknown.
};

/// Stable lowercase name for spans/logs ("submit_at", "migrate_in", ...).
const char* MsgTypeName(MsgType type);

/// A future-keyed DBA vote in flight during a migration handoff.
struct VoteWire {
  uint64_t after_seq = 0;
  IndexSet plus;
  IndexSet minus;
};

struct Request {
  MsgType type = MsgType::kPing;
  std::string tenant;
  uint64_t seq = 0;         // kSubmitAt sequence / kFeedbackAfter boundary
  bool has_statement = false;
  Statement statement;
  IndexSet f_plus;
  IndexSet f_minus;
  std::string target_node;  // kMigrate: receiving node id
  std::string pack;         // kMigrateIn: packed checkpoint tree
  std::vector<VoteWire> votes;  // kMigrateIn: carried votes
  std::string config_blob;  // kMigrateIn / kSetConfig: encoded ClusterConfig
  std::string node_id;      // kHeartbeat: sender's node id
  // Trace-context extension (v3; zero = no trace). Stamped by the client
  // from the calling thread's context; the server installs it around the
  // handler so every node's spans stitch into one distributed trace.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

enum class RespKind : uint8_t {
  kOk = 0,
  /// `code` + `message` carry the failure; the connection stays usable.
  kError = 1,
  /// This node does not own the tenant; `owner_*` + `config_version` let
  /// the client repair its routing table and retry at the right node.
  kNotLeader = 2,
  /// The tenant's ingest queue is full (backpressure) — retry after a
  /// short delay. Never blocks the server's event loop.
  kBusy = 3,
};

struct Response {
  RespKind kind = RespKind::kOk;
  StatusCode code = StatusCode::kOk;  // kError detail
  std::string message;
  // kNotLeader redirect payload.
  std::string owner_id;
  std::string owner_host;
  uint32_t owner_port = 0;
  uint64_t config_version = 0;
  // Result payloads (per request type; zero-valued when not applicable).
  IndexSet configuration;   // kGetRecommendation
  uint64_t analyzed = 0;    // kGetRecommendation / kGetAnalyzed
  uint64_t version = 0;     // recommendation publication version
  std::string text;         // kScrapeMetrics / kGetConfig / kPing echo
  // kListTenants: resident tenants first (sorted), then persisted-only
  // tenants (sorted); `count` holds the resident prefix length so a
  // caller reads both halves from one RPC.
  std::vector<std::string> tenants;
  std::vector<IndexSet> history;      // kGetHistory
  uint64_t history_start = 0;         // kGetHistory
  uint64_t count = 0;       // kDrain evicted / kMigrate handoff millis
};

std::string EncodeRequest(const Request& req);
/// Same, with the trace context supplied explicitly (the client stamps
/// the calling thread's context without copying the request).
std::string EncodeRequest(const Request& req, uint64_t trace_id,
                          uint64_t parent_span);
Status DecodeRequest(std::string_view payload, Request* out);

std::string EncodeResponse(const Response& resp);
Status DecodeResponse(std::string_view payload, Response* out);

/// Convenience constructors for the common handler results.
Response OkResp();
Response ErrResp(const Status& status);

}  // namespace wfit::net

#endif  // WFIT_NET_WIRE_H_
