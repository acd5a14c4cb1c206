#include "net/wire.h"

#include "persist/codec.h"
#include "persist/journal.h"

namespace wfit::net {

using persist::Decoder;
using persist::Encoder;

namespace {

Status CheckVersionAndType(Decoder* d, uint8_t* type_byte) {
  uint8_t version = 0;
  WFIT_RETURN_IF_ERROR(d->GetU8(&version));
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        "wire: protocol version " + std::to_string(version) +
        " (this build speaks " + std::to_string(kWireVersion) + ")");
  }
  return d->GetU8(type_byte);
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kSubmit:
      return "submit";
    case MsgType::kSubmitAt:
      return "submit_at";
    case MsgType::kFeedback:
      return "feedback";
    case MsgType::kFeedbackAfter:
      return "feedback_after";
    case MsgType::kGetRecommendation:
      return "get_recommendation";
    case MsgType::kGetAnalyzed:
      return "get_analyzed";
    case MsgType::kScrapeMetrics:
      return "scrape_metrics";
    case MsgType::kListTenants:
      return "list_tenants";
    case MsgType::kGetHistory:
      return "get_history";
    case MsgType::kGetConfig:
      return "get_config";
    case MsgType::kMigrate:
      return "migrate";
    case MsgType::kMigrateIn:
      return "migrate_in";
    case MsgType::kDrain:
      return "drain";
    case MsgType::kSetConfig:
      return "set_config";
    case MsgType::kShutdownNode:
      return "shutdown_node";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kDecommission:
      return "decommission";
    case MsgType::kDumpTrace:
      return "dump_trace";
  }
  return "unknown";
}

std::string EncodeRequest(const Request& req) {
  return EncodeRequest(req, req.trace_id, req.parent_span);
}

std::string EncodeRequest(const Request& req, uint64_t trace_id,
                          uint64_t parent_span) {
  Encoder e;
  e.PutU8(kWireVersion);
  e.PutU8(static_cast<uint8_t>(req.type));
  e.PutString(req.tenant);
  e.PutU64(req.seq);
  e.PutU8(req.has_statement ? 1 : 0);
  if (req.has_statement) persist::EncodeStatement(req.statement, &e);
  e.PutIndexSet(req.f_plus);
  e.PutIndexSet(req.f_minus);
  e.PutString(req.target_node);
  e.PutString(req.pack);
  e.PutU32(static_cast<uint32_t>(req.votes.size()));
  for (const VoteWire& v : req.votes) {
    e.PutU64(v.after_seq);
    e.PutIndexSet(v.plus);
    e.PutIndexSet(v.minus);
  }
  e.PutString(req.config_blob);
  e.PutString(req.node_id);
  e.PutU64(trace_id);
  e.PutU64(parent_span);
  return e.Release();
}

Status DecodeRequest(std::string_view payload, Request* out) {
  Decoder d(payload);
  uint8_t type_byte = 0;
  WFIT_RETURN_IF_ERROR(CheckVersionAndType(&d, &type_byte));
  if (type_byte < static_cast<uint8_t>(MsgType::kPing) ||
      type_byte > static_cast<uint8_t>(MsgType::kDumpTrace)) {
    return Status::InvalidArgument("wire: unknown request type " +
                                   std::to_string(type_byte));
  }
  out->type = static_cast<MsgType>(type_byte);
  WFIT_RETURN_IF_ERROR(d.GetString(&out->tenant));
  WFIT_RETURN_IF_ERROR(d.GetU64(&out->seq));
  uint8_t has_stmt = 0;
  WFIT_RETURN_IF_ERROR(d.GetU8(&has_stmt));
  out->has_statement = has_stmt != 0;
  if (out->has_statement) {
    WFIT_RETURN_IF_ERROR(persist::DecodeStatement(&d, &out->statement));
  }
  WFIT_RETURN_IF_ERROR(d.GetIndexSet(&out->f_plus));
  WFIT_RETURN_IF_ERROR(d.GetIndexSet(&out->f_minus));
  WFIT_RETURN_IF_ERROR(d.GetString(&out->target_node));
  WFIT_RETURN_IF_ERROR(d.GetString(&out->pack));
  uint32_t vote_count = 0;
  WFIT_RETURN_IF_ERROR(d.GetU32(&vote_count));
  out->votes.clear();
  for (uint32_t i = 0; i < vote_count; ++i) {
    VoteWire v;
    WFIT_RETURN_IF_ERROR(d.GetU64(&v.after_seq));
    WFIT_RETURN_IF_ERROR(d.GetIndexSet(&v.plus));
    WFIT_RETURN_IF_ERROR(d.GetIndexSet(&v.minus));
    out->votes.push_back(std::move(v));
  }
  WFIT_RETURN_IF_ERROR(d.GetString(&out->config_blob));
  WFIT_RETURN_IF_ERROR(d.GetString(&out->node_id));
  WFIT_RETURN_IF_ERROR(d.GetU64(&out->trace_id));
  WFIT_RETURN_IF_ERROR(d.GetU64(&out->parent_span));
  if (!d.done()) {
    return Status::InvalidArgument("wire: trailing bytes after request");
  }
  return Status::Ok();
}

std::string EncodeResponse(const Response& resp) {
  Encoder e;
  e.PutU8(kWireVersion);
  e.PutU8(static_cast<uint8_t>(resp.kind));
  e.PutU8(static_cast<uint8_t>(resp.code));
  e.PutString(resp.message);
  e.PutString(resp.owner_id);
  e.PutString(resp.owner_host);
  e.PutU32(resp.owner_port);
  e.PutU64(resp.config_version);
  e.PutIndexSet(resp.configuration);
  e.PutU64(resp.analyzed);
  e.PutU64(resp.version);
  e.PutString(resp.text);
  e.PutU32(static_cast<uint32_t>(resp.tenants.size()));
  for (const std::string& t : resp.tenants) e.PutString(t);
  e.PutU32(static_cast<uint32_t>(resp.history.size()));
  for (const IndexSet& s : resp.history) e.PutIndexSet(s);
  e.PutU64(resp.history_start);
  e.PutU64(resp.count);
  return e.Release();
}

Status DecodeResponse(std::string_view payload, Response* out) {
  Decoder d(payload);
  uint8_t kind_byte = 0;
  WFIT_RETURN_IF_ERROR(CheckVersionAndType(&d, &kind_byte));
  if (kind_byte > static_cast<uint8_t>(RespKind::kBusy)) {
    return Status::InvalidArgument("wire: unknown response kind " +
                                   std::to_string(kind_byte));
  }
  out->kind = static_cast<RespKind>(kind_byte);
  uint8_t code_byte = 0;
  WFIT_RETURN_IF_ERROR(d.GetU8(&code_byte));
  if (code_byte > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::InvalidArgument("wire: unknown status code " +
                                   std::to_string(code_byte));
  }
  out->code = static_cast<StatusCode>(code_byte);
  WFIT_RETURN_IF_ERROR(d.GetString(&out->message));
  WFIT_RETURN_IF_ERROR(d.GetString(&out->owner_id));
  WFIT_RETURN_IF_ERROR(d.GetString(&out->owner_host));
  WFIT_RETURN_IF_ERROR(d.GetU32(&out->owner_port));
  WFIT_RETURN_IF_ERROR(d.GetU64(&out->config_version));
  WFIT_RETURN_IF_ERROR(d.GetIndexSet(&out->configuration));
  WFIT_RETURN_IF_ERROR(d.GetU64(&out->analyzed));
  WFIT_RETURN_IF_ERROR(d.GetU64(&out->version));
  WFIT_RETURN_IF_ERROR(d.GetString(&out->text));
  uint32_t tenant_count = 0;
  WFIT_RETURN_IF_ERROR(d.GetU32(&tenant_count));
  out->tenants.clear();
  for (uint32_t i = 0; i < tenant_count; ++i) {
    std::string t;
    WFIT_RETURN_IF_ERROR(d.GetString(&t));
    out->tenants.push_back(std::move(t));
  }
  uint32_t history_count = 0;
  WFIT_RETURN_IF_ERROR(d.GetU32(&history_count));
  out->history.clear();
  for (uint32_t i = 0; i < history_count; ++i) {
    IndexSet s;
    WFIT_RETURN_IF_ERROR(d.GetIndexSet(&s));
    out->history.push_back(std::move(s));
  }
  WFIT_RETURN_IF_ERROR(d.GetU64(&out->history_start));
  WFIT_RETURN_IF_ERROR(d.GetU64(&out->count));
  if (!d.done()) {
    return Status::InvalidArgument("wire: trailing bytes after response");
  }
  return Status::Ok();
}

Response OkResp() { return Response{}; }

Response ErrResp(const Status& status) {
  Response r;
  r.kind = RespKind::kError;
  r.code = status.code();
  r.message = status.message();
  return r;
}

}  // namespace wfit::net
