#include "net/protocol.h"

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

namespace osd {
namespace net {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// A JSON number that is an exact integer within [min, max].
bool AsInteger(const JsonValue& v, long min, long max, long* out) {
  if (!v.is_number()) return false;
  const double d = v.AsNumber();
  if (!(d >= static_cast<double>(min)) || !(d <= static_cast<double>(max))) {
    return false;
  }
  if (d != std::floor(d)) return false;
  *out = static_cast<long>(d);
  return true;
}

/// Rejects unknown keys: a typo'd field must fail loudly, not silently
/// run with defaults (same stance as the failpoint spec parser).
bool CheckKnownKeys(const JsonValue& msg,
                    std::initializer_list<const char*> known,
                    std::string* error) {
  for (const auto& [key, value] : msg.Members()) {
    (void)value;
    bool found = false;
    for (const char* k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) return Fail(error, "unknown field '" + key + "'");
  }
  return true;
}

/// Builds an object from an "instances" array [[x_1..x_d, w], ...] with
/// every bound checked before the flat arrays are filled. `what` prefixes
/// error messages ("query.instances", "ops[3].instances"); `id` becomes
/// the object's id. Construction goes through TryFromWeighted so wire
/// input can never trip a constructor OSD_CHECK — notably a row length
/// within the schema cap but past Point::kMaxDim, which used to abort the
/// process in the UncertainObject constructor.
bool ParseInstanceRows(const JsonValue& instances, const std::string& what,
                       int id, UncertainObject* out, std::string* error) {
  if (!instances.is_array()) {
    return Fail(error, what + " must be an array");
  }
  const auto& rows = instances.Items();
  if (rows.empty()) return Fail(error, what + " is empty");
  if (rows.size() > static_cast<size_t>(kMaxQueryInstances)) {
    return Fail(error, what + " exceeds the cap of " +
                           std::to_string(kMaxQueryInstances));
  }
  if (!rows[0].is_array()) {
    return Fail(error, what + " rows must be arrays");
  }
  const size_t row_len = rows[0].Items().size();
  if (row_len < 2) {
    return Fail(error, what + " rows need >= 1 coordinate + weight");
  }
  const int dim = static_cast<int>(row_len) - 1;
  if (dim > kMaxQueryDim) {
    return Fail(error, what + " dimensionality exceeds the cap of " +
                           std::to_string(kMaxQueryDim));
  }
  std::vector<double> coords;
  std::vector<double> weights;
  coords.reserve(rows.size() * static_cast<size_t>(dim));
  weights.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].is_array() || rows[r].Items().size() != row_len) {
      return Fail(error, what + " row " + std::to_string(r) +
                             " has inconsistent length");
    }
    const auto& cells = rows[r].Items();
    for (size_t c = 0; c < row_len; ++c) {
      if (!cells[c].is_number()) {
        return Fail(error, what + " row " + std::to_string(r) +
                               " holds a non-number");
      }
    }
    for (int d = 0; d < dim; ++d) {
      const double x = cells[static_cast<size_t>(d)].AsNumber();
      // The JSON layer already refuses NaN/Inf; keep the explicit check so
      // this function is safe against any other JsonValue producer.
      if (!std::isfinite(x)) {
        return Fail(error, "non-finite coordinate in " + what);
      }
      coords.push_back(x);
    }
    const double w = cells[row_len - 1].AsNumber();
    if (!std::isfinite(w) || w <= 0.0) {
      return Fail(error, what + " weights must be finite and > 0");
    }
    weights.push_back(w);
  }
  std::string verr;
  if (!UncertainObject::TryFromWeighted(id, dim, std::move(coords),
                                        std::move(weights), out, &verr)) {
    return Fail(error, what + ": " + verr);
  }
  return true;
}

bool ParseInlineQuery(const JsonValue& instances, UncertainObject* out,
                      std::string* error) {
  return ParseInstanceRows(instances, "query.instances", /*id=*/-1, out,
                           error);
}

}  // namespace

bool ValidTenantName(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > kMaxTenantName) return false;
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string MessageType(const JsonValue& msg) {
  const JsonValue* type = msg.Find("type");
  if (type == nullptr || !type->is_string()) return "";
  return type->AsString();
}

bool ParseHello(const JsonValue& msg, HelloRequest* out, std::string* error) {
  if (!msg.is_object()) return Fail(error, "hello must be an object");
  if (!CheckKnownKeys(msg, {"type", "version", "tenant"}, error)) {
    return false;
  }
  const JsonValue* version = msg.Find("version");
  long v = 0;
  if (version == nullptr || !AsInteger(*version, 1, 1'000'000, &v)) {
    return Fail(error, "hello.version must be a positive integer");
  }
  out->version = static_cast<int>(v);
  out->tenant = "default";
  if (const JsonValue* tenant = msg.Find("tenant"); tenant != nullptr) {
    if (!tenant->is_string() || !ValidTenantName(tenant->AsString())) {
      return Fail(error,
                  "hello.tenant must match [A-Za-z0-9_-]{1,64}");
    }
    out->tenant = tenant->AsString();
  }
  return true;
}

bool ParseSubmit(const JsonValue& msg, SubmitRequest* out,
                 std::string* error) {
  if (!msg.is_object()) return Fail(error, "submit must be an object");
  if (!CheckKnownKeys(msg,
                      {"type", "id", "query", "op", "k", "metric", "filters",
                       "deadline_ms", "accept_degraded", "mem_budget_bytes",
                       "stream", "trace"},
                      error)) {
    return false;
  }
  const JsonValue* id = msg.Find("id");
  if (id == nullptr || !AsInteger(*id, 0, kMaxRequestId, &out->id)) {
    return Fail(error, "submit.id must be an integer in [0, 2^53]");
  }
  const JsonValue* query = msg.Find("query");
  if (query == nullptr || !query->is_object()) {
    return Fail(error, "submit.query must be an object");
  }
  if (!CheckKnownKeys(*query, {"object_id", "instances"}, error)) {
    return false;
  }
  const JsonValue* object_id = query->Find("object_id");
  const JsonValue* instances = query->Find("instances");
  if ((object_id != nullptr) == (instances != nullptr)) {
    return Fail(error,
                "submit.query needs exactly one of object_id / instances");
  }
  out->options = NncOptions{};
  if (object_id != nullptr) {
    long oid = -1;
    // object_id is an external id stored in an int (UncertainObject::id());
    // the bound must be INT_MAX exactly or larger wire values would
    // silently truncate into a DIFFERENT object's id.
    if (!AsInteger(*object_id, 0, kMaxObjectId, &oid)) {
      return Fail(error,
                  "submit.query.object_id must be an integer in [0, 2^31)");
    }
    out->inline_query = false;
    out->object_id = static_cast<int>(oid);
    // Self-exclusion (Definition 6: a dataset object never competes with
    // itself) is resolved by the engine against the snapshot pinned for
    // the query — NncOptions::exclude_id is a per-snapshot index, which
    // only exists once that snapshot does.
  } else {
    out->inline_query = true;
    out->object_id = -1;
    if (!ParseInlineQuery(*instances, &out->query, error)) return false;
  }
  if (const JsonValue* op = msg.Find("op"); op != nullptr) {
    if (!op->is_string() ||
        !ParseOperatorName(op->AsString(), &out->options.op)) {
      return Fail(error,
                  "submit.op must be one of ssd|sssd|psd|fsd|f+sd");
    }
  }
  if (const JsonValue* k = msg.Find("k"); k != nullptr) {
    long kk = 0;
    if (!AsInteger(*k, 1, kMaxK, &kk)) {
      return Fail(error, "submit.k must be an integer in [1, " +
                             std::to_string(kMaxK) + "]");
    }
    out->options.k = static_cast<int>(kk);
  }
  if (const JsonValue* metric = msg.Find("metric"); metric != nullptr) {
    if (!metric->is_string()) return Fail(error, "submit.metric must be a string");
    const std::string& m = metric->AsString();
    if (m == "l2") out->options.metric = Metric::kL2;
    else if (m == "l1") out->options.metric = Metric::kL1;
    else return Fail(error, "submit.metric must be l2|l1");
  }
  if (const JsonValue* filters = msg.Find("filters"); filters != nullptr) {
    if (!filters->is_string() ||
        !ParseFilterName(filters->AsString(), &out->options.filters)) {
      return Fail(error,
                  "submit.filters must be one of all|bf|p|g|gp|l|lp|lg|lgp");
    }
  }
  out->deadline_seconds = 0.0;
  if (const JsonValue* deadline = msg.Find("deadline_ms");
      deadline != nullptr) {
    if (!deadline->is_number()) {
      return Fail(error, "submit.deadline_ms must be a number");
    }
    const double ms = deadline->AsNumber();
    if (!std::isfinite(ms) || ms <= 0.0 || ms > 1e9) {
      return Fail(error, "submit.deadline_ms must be finite and in (0, 1e9]");
    }
    out->deadline_seconds = ms / 1e3;
  }
  out->options.degraded_superset = false;
  if (const JsonValue* degraded = msg.Find("accept_degraded");
      degraded != nullptr) {
    if (!degraded->is_bool()) {
      return Fail(error, "submit.accept_degraded must be a bool");
    }
    out->options.degraded_superset = degraded->AsBool();
  }
  out->mem_budget_bytes = 0;
  if (const JsonValue* mem = msg.Find("mem_budget_bytes"); mem != nullptr) {
    if (!AsInteger(*mem, 0, 1L << 50, &out->mem_budget_bytes)) {
      return Fail(error,
                  "submit.mem_budget_bytes must be an integer in [0, 2^50]");
    }
  }
  out->stream = true;
  if (const JsonValue* stream = msg.Find("stream"); stream != nullptr) {
    if (!stream->is_bool()) return Fail(error, "submit.stream must be a bool");
    out->stream = stream->AsBool();
  }
  out->trace = false;
  if (const JsonValue* trace = msg.Find("trace"); trace != nullptr) {
    if (!trace->is_bool()) return Fail(error, "submit.trace must be a bool");
    out->trace = trace->AsBool();
  }
  return true;
}

bool ParseCancel(const JsonValue& msg, CancelRequest* out,
                 std::string* error) {
  if (!msg.is_object()) return Fail(error, "cancel must be an object");
  if (!CheckKnownKeys(msg, {"type", "id"}, error)) return false;
  const JsonValue* id = msg.Find("id");
  if (id == nullptr || !AsInteger(*id, 0, kMaxRequestId, &out->id)) {
    return Fail(error, "cancel.id must be an integer in [0, 2^53]");
  }
  return true;
}

bool ParseMutate(const JsonValue& msg, MutateRequest* out,
                 std::string* error) {
  if (!msg.is_object()) return Fail(error, "mutate must be an object");
  if (!CheckKnownKeys(msg, {"type", "id", "ops"}, error)) return false;
  const JsonValue* id = msg.Find("id");
  if (id == nullptr || !AsInteger(*id, 0, kMaxRequestId, &out->id)) {
    return Fail(error, "mutate.id must be an integer in [0, 2^53]");
  }
  const JsonValue* ops = msg.Find("ops");
  if (ops == nullptr || !ops->is_array()) {
    return Fail(error, "mutate.ops must be an array");
  }
  const auto& items = ops->Items();
  if (items.empty()) return Fail(error, "mutate.ops is empty");
  if (items.size() > static_cast<size_t>(kMaxMutationOps)) {
    return Fail(error, "mutate.ops exceeds the cap of " +
                           std::to_string(kMaxMutationOps));
  }
  out->ops.clear();
  out->ops.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const std::string where = "mutate.ops[" + std::to_string(i) + "]";
    const JsonValue& item = items[i];
    if (!item.is_object()) return Fail(error, where + " must be an object");
    if (!CheckKnownKeys(item, {"action", "object_id", "instances"}, error)) {
      return false;
    }
    const JsonValue* action = item.Find("action");
    if (action == nullptr || !action->is_string()) {
      return Fail(error, where + ".action must be a string");
    }
    Mutation op;
    const std::string& a = action->AsString();
    if (a == "insert") op.kind = Mutation::Kind::kInsert;
    else if (a == "update") op.kind = Mutation::Kind::kUpdate;
    else if (a == "delete") op.kind = Mutation::Kind::kDelete;
    else {
      return Fail(error, where + ".action must be insert|update|delete");
    }
    const JsonValue* object_id = item.Find("object_id");
    long oid = -1;
    // Same bound as submit: Mutation::id is an int, and a wider wire value
    // would wrap into (or insert as) a different object with no error.
    if (object_id == nullptr || !AsInteger(*object_id, 0, kMaxObjectId, &oid)) {
      return Fail(error,
                  where + ".object_id must be an integer in [0, 2^31)");
    }
    op.id = static_cast<int>(oid);
    const JsonValue* instances = item.Find("instances");
    if (op.kind == Mutation::Kind::kDelete) {
      if (instances != nullptr) {
        return Fail(error, where + ": delete takes no instances");
      }
    } else {
      if (instances == nullptr) {
        return Fail(error, where + ".instances is required for " + a);
      }
      auto obj = std::make_shared<UncertainObject>();
      if (!ParseInstanceRows(*instances, where + ".instances", op.id,
                             obj.get(), error)) {
        return false;
      }
      op.object = std::move(obj);
    }
    out->ops.push_back(std::move(op));
  }
  return true;
}

std::string BuildHelloMessage(const std::string& tenant) {
  std::string msg = "{\"type\":\"hello\",\"version\":" +
                    std::to_string(kProtocolVersion);
  if (!tenant.empty()) {
    msg += ",\"tenant\":";
    AppendJsonString(&msg, tenant);
  }
  msg += "}";
  return msg;
}

std::string BuildSubmitMessage(const SubmitParams& params) {
  std::string msg = "{\"type\":\"submit\",\"id\":" + std::to_string(params.id);
  msg += ",\"query\":";
  if (params.query != nullptr) {
    msg += "{\"instances\":[";
    const UncertainObject& q = *params.query;
    for (int i = 0; i < q.num_instances(); ++i) {
      if (i > 0) msg += ",";
      msg += "[";
      const Point p = q.Instance(i);
      for (int d = 0; d < q.dim(); ++d) {
        msg += JsonNumber(p[d]) + ",";
      }
      msg += JsonNumber(q.Prob(i));
      msg += "]";
    }
    msg += "]}";
  } else {
    msg += "{\"object_id\":" + std::to_string(params.object_id) + "}";
  }
  msg += ",\"op\":";
  AppendJsonString(&msg, params.op);
  msg += ",\"k\":" + std::to_string(params.k);
  msg += ",\"metric\":";
  AppendJsonString(&msg, params.metric);
  msg += ",\"filters\":";
  AppendJsonString(&msg, params.filters);
  if (params.deadline_ms > 0.0) {
    msg += ",\"deadline_ms\":" + JsonNumber(params.deadline_ms);
  }
  if (params.accept_degraded) msg += ",\"accept_degraded\":true";
  if (params.mem_budget_bytes > 0) {
    msg += ",\"mem_budget_bytes\":" + std::to_string(params.mem_budget_bytes);
  }
  msg += params.stream ? ",\"stream\":true" : ",\"stream\":false";
  if (params.trace) msg += ",\"trace\":true";
  msg += "}";
  return msg;
}

std::string BuildCancelMessage(long id) {
  return "{\"type\":\"cancel\",\"id\":" + std::to_string(id) + "}";
}

std::string BuildMutateMessage(long id, const std::vector<MutateOp>& ops) {
  std::string msg = "{\"type\":\"mutate\",\"id\":" + std::to_string(id) +
                    ",\"ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    const MutateOp& op = ops[i];
    if (i > 0) msg += ",";
    msg += "{\"action\":";
    AppendJsonString(&msg, op.action);
    msg += ",\"object_id\":" + std::to_string(op.object_id);
    if (op.action != "delete") {
      msg += ",\"instances\":[";
      for (size_t r = 0; r < op.instances.size(); ++r) {
        if (r > 0) msg += ",";
        msg += "[";
        for (size_t c = 0; c < op.instances[r].size(); ++c) {
          if (c > 0) msg += ",";
          msg += JsonNumber(op.instances[r][c]);
        }
        msg += "]";
      }
      msg += "]";
    }
    msg += "}";
  }
  msg += "]}";
  return msg;
}

std::string BuildHelloOkMessage(int dataset_objects, int dataset_dim,
                                uint64_t epoch, const std::string& tenant) {
  std::string msg = "{\"type\":\"hello_ok\",\"version\":" +
                    std::to_string(kProtocolVersion) +
                    ",\"server\":\"osd_server\",\"dataset\":{\"objects\":" +
                    std::to_string(dataset_objects) +
                    ",\"dim\":" + std::to_string(dataset_dim) +
                    ",\"epoch\":" + std::to_string(epoch) +
                    "},\"tenant\":";
  AppendJsonString(&msg, tenant);
  msg += "}";
  return msg;
}

std::string BuildCandidateMessage(long id, long seq, int object_id,
                                  double elapsed_seconds) {
  return "{\"type\":\"candidate\",\"id\":" + std::to_string(id) +
         ",\"seq\":" + std::to_string(seq) +
         ",\"object_id\":" + std::to_string(object_id) +
         ",\"elapsed_ms\":" + JsonNumber(elapsed_seconds * 1e3) + "}";
}

std::string BuildCoalescedMessage(long id, long count,
                                  const std::vector<int>& object_ids,
                                  bool truncated) {
  std::string msg = "{\"type\":\"candidates_coalesced\",\"id\":" +
                    std::to_string(id) + ",\"count\":" + std::to_string(count) +
                    ",\"truncated\":" + (truncated ? "true" : "false") +
                    ",\"object_ids\":[";
  for (size_t i = 0; i < object_ids.size(); ++i) {
    if (i != 0) msg += ",";
    msg += std::to_string(object_ids[i]);
  }
  msg += "]}";
  return msg;
}

const char* TerminationName(NncTermination termination) {
  switch (termination) {
    case NncTermination::kComplete: return "complete";
    case NncTermination::kDeadlineExceeded: return "deadline";
    case NncTermination::kCancelled: return "cancelled";
    case NncTermination::kMemoryExceeded: return "memory";
  }
  return "unknown";
}

std::string BuildResultMessage(long id, const QueryTicket& ticket) {
  const NncResult& result = ticket.result();
  const FilterStats& stats = result.stats;
  std::string msg = "{\"type\":\"result\",\"id\":" + std::to_string(id);
  msg += ",\"status\":\"";
  msg += QueryStatusName(ticket.status());
  msg += "\",\"termination\":\"";
  msg += TerminationName(result.termination);
  msg += "\",\"degraded\":";
  msg += result.degraded ? "true" : "false";
  msg += ",\"candidates\":[";
  for (size_t i = 0; i < result.candidates.size(); ++i) {
    if (i > 0) msg += ",";
    msg += std::to_string(result.candidates[i]);
  }
  msg += "],\"frontier_objects\":" + std::to_string(result.frontier_objects);
  msg += ",\"stats\":{\"dominance_checks\":" +
         std::to_string(stats.dominance_checks) +
         ",\"instance_comparisons\":" +
         std::to_string(stats.InstanceComparisons()) +
         ",\"flow_runs\":" + std::to_string(stats.flow_runs) +
         ",\"objects_examined\":" + std::to_string(result.objects_examined) +
         ",\"entries_pruned\":" + std::to_string(result.entries_pruned) + "}";
  msg += ",\"run_ms\":" + JsonNumber(result.seconds * 1e3);
  msg += ",\"latency_ms\":" + JsonNumber(ticket.latency_seconds() * 1e3);
  msg += ",\"mem_peak_bytes\":" + std::to_string(result.mem_peak_bytes);
  msg += ",\"epoch\":" + std::to_string(result.epoch);
  if (!ticket.error().empty()) {
    msg += ",\"error\":";
    AppendJsonString(&msg, ticket.error());
  }
  if (ticket.trace() != nullptr) {
    msg += ",\"trace\":" + ticket.trace()->ToJson();
  }
  msg += "}";
  return msg;
}

std::string BuildCancelOkMessage(long id, bool found) {
  return "{\"type\":\"cancel_ok\",\"id\":" + std::to_string(id) +
         ",\"found\":" + (found ? "true" : "false") + "}";
}

std::string BuildMutateOkMessage(long id, uint64_t epoch, int applied,
                                 uint64_t seq) {
  return "{\"type\":\"mutate_ok\",\"id\":" + std::to_string(id) +
         ",\"epoch\":" + std::to_string(epoch) +
         ",\"applied\":" + std::to_string(applied) +
         ",\"seq\":" + std::to_string(seq) + "}";
}

std::string BuildDrainOkMessage(long inflight) {
  return "{\"type\":\"drain_ok\",\"inflight\":" + std::to_string(inflight) +
         "}";
}

std::string BuildMetricsOkMessage(const std::string& text) {
  std::string msg = "{\"type\":\"metrics_ok\",\"text\":";
  AppendJsonString(&msg, text);
  msg += "}";
  return msg;
}

std::string BuildErrorMessage(long id, const char* code,
                              const std::string& message) {
  std::string msg = "{\"type\":\"error\"";
  if (id >= 0) msg += ",\"id\":" + std::to_string(id);
  msg += ",\"code\":\"";
  msg += code;
  msg += "\",\"message\":";
  AppendJsonString(&msg, message);
  msg += "}";
  return msg;
}

}  // namespace net
}  // namespace osd
