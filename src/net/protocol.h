// Versioned JSON message schema of the OSD wire protocol.
//
// One frame (net/wire.h) carries one JSON object with a "type" field.
// Clients drive the conversation; the server answers every request with at
// least one frame and never sends anything unsolicited except the
// progressive "candidate" events of a streaming submit.
//
// Client -> server:
//   {"type":"hello","version":1,"tenant":"mobile"}       (first message)
//   {"type":"submit","id":7,"query":{...},"op":"psd","k":1,
//    "metric":"l2","filters":"all","deadline_ms":250,
//    "accept_degraded":true,"retries":1,"mem_budget_bytes":67108864,
//    "stream":true,"trace":false}
//   {"type":"cancel","id":7}
//   {"type":"mutate","id":9,"ops":[
//     {"action":"insert","object_id":1000,"instances":[[x_1..x_d, w],...]},
//     {"action":"update","object_id":1000,"instances":[...]},
//     {"action":"delete","object_id":17}]}
//   {"type":"status"}        {"type":"metrics"}
//   {"type":"drain"}         {"type":"bye"}
//
// The "query" member is either {"object_id":N} (a dataset object, which
// is then excluded from its own search) or
// {"instances":[[x_1..x_d, w], ...]} with positive finite weights that are
// normalized to probabilities — clients never touch C++ types.
//
// Server -> client:
//   {"type":"hello_ok","version":1,"server":...,"dataset":{...},...}
//   {"type":"candidate","id":7,"seq":0,"attempt":1,"object_id":42,
//    "elapsed_ms":0.173}                      (streaming submits only)
//   {"type":"candidates_coalesced","id":7,"attempt":1,"count":900,
//    "truncated":false,"object_ids":[...]}    (slow readers only: candidate
//     events folded into one frame while the connection's output buffer is
//     above its high watermark; the terminal frame stays authoritative)
//   {"type":"result","id":7,"status":"OK","termination":"complete",
//    "epoch":3,...}          ("epoch" = the snapshot the query ran against)
//   {"type":"cancel_ok","id":7,"found":true}
//   {"type":"mutate_ok","id":9,"epoch":4,"applied":3}
//   {"type":"status_ok",...} {"type":"metrics_ok","text":"..."}
//   {"type":"drain_ok","inflight":N}
//   {"type":"error","id":7,"code":"bad_request","message":"..."}
//
// Every submit is answered by exactly one terminal frame ("result" or
// "error"), preceded by zero or more "candidate" events; the terminal
// frame's "candidates" array is the authoritative (post-cleanup) answer
// and is bit-identical to an embedded NncSearch::Run with the same spec.
//
// Request parsing is hardened like the binary dataset loader: strict
// types, unknown keys rejected, instance counts bounded by caps before the
// query object is built, NaN/Inf impossible by construction (the JSON
// layer refuses non-finite numbers) and re-checked here anyway.

#ifndef OSD_NET_PROTOCOL_H_
#define OSD_NET_PROTOCOL_H_

#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "net/json.h"
#include "object/uncertain_object.h"

namespace osd {
namespace net {

inline constexpr int kProtocolVersion = 1;

/// Schema caps enforced before any query object is constructed.
inline constexpr int kMaxQueryInstances = 4096;
inline constexpr int kMaxQueryDim = 32;
inline constexpr int kMaxRetries = 10;
inline constexpr long kMaxRequestId = (1L << 53);  // exact in a double
/// Wire object ids land in `int` fields (Mutation::id,
/// UncertainObject::id()); a looser bound would let a wider wire value
/// truncate into a different object's id with no error.
inline constexpr long kMaxObjectId = 2147483647;  // INT_MAX, exact in a double
inline constexpr int kMaxK = 1'000'000;
inline constexpr size_t kMaxTenantName = 64;
/// Tenants the server keeps state and series for. Once this many exist, a
/// hello naming a new tenant that ServerOptions::tenants does not configure
/// is refused; configured names always resolve.
inline constexpr size_t kMaxTenants = 256;
/// Maximum ops in one mutate batch (per-request; tenants may be capped
/// lower via TenantPolicy::max_mutation_ops).
inline constexpr int kMaxMutationOps = 256;

/// Machine-readable error codes carried by "error" frames.
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrOverInflightLimit = "over_inflight_limit";
inline constexpr const char* kErrRejected = "rejected";
inline constexpr const char* kErrDraining = "draining";
inline constexpr const char* kErrProtocol = "protocol_error";
/// Eviction codes: the final frame a connection receives (best-effort — a
/// non-reading peer may never see it) before the server closes it.
inline constexpr const char* kErrSlowConsumer = "slow_consumer";
inline constexpr const char* kErrTimeout = "timeout";
/// The tenant's policy forbids writes (TenantPolicy::allow_writes).
inline constexpr const char* kErrWriteDenied = "write_denied";
/// A syntactically valid mutate batch the store refused (unknown id,
/// duplicate insert, dimension mismatch, budget refusal). The batch was
/// applied all-or-nothing: nothing changed.
inline constexpr const char* kErrBadMutation = "bad_mutation";
/// The durability tier is in read-only degraded mode (WAL append/fsync
/// failure, disk full): reads keep serving, this write changed nothing and
/// is not durable. Operators: see the README runbook.
inline constexpr const char* kErrStorageUnavailable = "storage_unavailable";

/// True iff `tenant` is a valid tenant identifier: [A-Za-z0-9_-]{1,64}.
/// Tenant names become Prometheus label values, so the charset is locked
/// down here once instead of escaped everywhere.
bool ValidTenantName(const std::string& tenant);

struct HelloRequest {
  int version = 0;
  std::string tenant = "default";
};

/// Parsed submit, decoupled from the dataset: the query is either inline
/// (`query` holds a constructed object) or a store reference
/// (`object_id` >= 0) — an *external* object id, the fold-stable name the
/// mutate path uses, prechecked by the server and resolved by the engine
/// against the snapshot pinned for the query.
struct SubmitRequest {
  long id = -1;
  bool inline_query = false;
  UncertainObject query;  // valid iff inline_query
  int object_id = -1;     // external id; valid iff !inline_query
  NncOptions options;     // op/k/metric/filters/degraded; control unset
  double deadline_seconds = 0.0;
  int retries = 0;
  long mem_budget_bytes = 0;  // 0 = server default / tenant policy
  bool stream = true;
  bool trace = false;
};

struct CancelRequest {
  long id = -1;
};

/// Parsed mutate batch: ops are fully constructed (payloads validated
/// through UncertainObject::TryFromWeighted — wire input can never trip a
/// constructor OSD_CHECK) and addressed by external object id. The server
/// hands them to VersionedDataset::Apply unchanged.
struct MutateRequest {
  long id = -1;
  std::vector<Mutation> ops;
};

/// Message parsers: strict schema validation over an already-parsed JSON
/// value. On failure they return false with a precise *error and leave the
/// output unspecified.
bool ParseHello(const JsonValue& msg, HelloRequest* out, std::string* error);
bool ParseSubmit(const JsonValue& msg, SubmitRequest* out,
                 std::string* error);
bool ParseCancel(const JsonValue& msg, CancelRequest* out,
                 std::string* error);
bool ParseMutate(const JsonValue& msg, MutateRequest* out,
                 std::string* error);

/// The "type" member of a parsed message ("" when absent or not a string).
std::string MessageType(const JsonValue& msg);

// --- client-side builders -------------------------------------------------

std::string BuildHelloMessage(const std::string& tenant);

/// Declarative submit parameters, mirroring the schema one-to-one.
struct SubmitParams {
  long id = 1;
  const UncertainObject* query = nullptr;  ///< inline query; else object_id
  int object_id = -1;
  std::string op = "psd";
  int k = 1;
  std::string metric = "l2";
  std::string filters = "all";
  double deadline_ms = 0.0;  ///< <= 0 omits the field
  bool accept_degraded = false;
  int retries = 0;
  long mem_budget_bytes = 0;
  bool stream = true;
  bool trace = false;
};

std::string BuildSubmitMessage(const SubmitParams& params);
std::string BuildCancelMessage(long id);

/// Declarative client-side mutate op, mirroring the schema one-to-one.
struct MutateOp {
  std::string action;  ///< "insert" | "update" | "delete"
  int object_id = -1;
  /// Rows of [x_1..x_d, w]; ignored for "delete".
  std::vector<std::vector<double>> instances;
};

std::string BuildMutateMessage(long id, const std::vector<MutateOp>& ops);

// --- server-side builders -------------------------------------------------

std::string BuildHelloOkMessage(int dataset_objects, int dataset_dim,
                                uint64_t epoch, const std::string& tenant);
std::string BuildCandidateMessage(long id, long seq, int attempt,
                                  int object_id, double elapsed_seconds);
/// One frame standing in for `count` individual candidate events of query
/// `id` that were coalesced while the connection's output buffer was above
/// its high watermark. `object_ids` may be truncated (the terminal result
/// frame carries the authoritative candidate set either way).
std::string BuildCoalescedMessage(long id, int attempt, long count,
                                  const std::vector<int>& object_ids,
                                  bool truncated);
/// The terminal frame for a completed ticket: status, termination reason,
/// the authoritative candidate set, work stats, and the error text / trace
/// when present.
std::string BuildResultMessage(long id, const QueryTicket& ticket);
std::string BuildCancelOkMessage(long id, bool found);
/// `seq` is the batch's durable WAL sequence number; 0 when the server
/// runs without a durability tier (the field is emitted either way so
/// clients need no presence check).
std::string BuildMutateOkMessage(long id, uint64_t epoch, int applied,
                                 uint64_t seq);
std::string BuildDrainOkMessage(long inflight);
std::string BuildMetricsOkMessage(const std::string& text);
std::string BuildErrorMessage(long id, const char* code,
                              const std::string& message);

/// Wire name of an NncTermination ("complete", "deadline", "cancelled",
/// "memory").
const char* TerminationName(NncTermination termination);

}  // namespace net
}  // namespace osd

#endif  // OSD_NET_PROTOCOL_H_
