// Standalone OSD network service: a poll-based TCP front end over one
// QueryEngine.
//
// Architecture: one event-loop thread owns the listener, the wake pipe and
// every connection's socket; engine workers execute queries and talk back
// to connections only through two narrow, mutex-guarded channels — the
// per-connection output buffer (progressive "candidate" frames and the
// terminal "result" frame are appended there by the QuerySpec hooks) and
// the server-level inflight accounting. No socket is ever touched off the
// loop thread.
//
// Per-connection lifecycle: accept -> hello (names the tenant) ->
// submit/cancel/status/metrics until bye, disconnect or drain. A framing
// or JSON-syntax error desynchronizes the byte stream and is fatal to the
// connection (error frame, then close after flush); a schema violation is
// request-scoped (error frame, connection lives). A mid-query disconnect
// cancels that connection's in-flight tickets; concurrent tenants are
// untouched and every ticket still completes through the engine (zero
// leaked tickets by construction — the terminal hook always runs).
//
// Tenant governance rides the existing machinery: the per-tenant policy
// caps each query's memory budget (QuerySpec::per_query_mem_bytes ->
// QueryBudgetScope), bounds in-flight queries per tenant (shed with an
// over_inflight_limit error), gates writes (allow_writes /
// max_mutation_ops on "mutate" frames), and labels the
// Prometheus export (osd_tenant_*{tenant="..."} series in MetricsText).
// Once kMaxTenants tenants exist, a hello naming a new tenant that
// ServerOptions::tenants does not configure is refused, so fresh names
// cannot grow the exposition without bound.
//
// Counters: the server keeps one book, a relaxed atomic per exported
// osd_net_* series (Counters) and per osd_tenant_* series (TenantState).
// The accessors, the status frame and MetricsText all read those atomics.
//
// Adversarial-load posture: every per-connection output buffer is bounded.
// Above the soft high watermark, progressive candidate frames coalesce
// into one bounded summary per query (flushed below the low watermark and
// before that query's terminal frame); past the hard cap the connection is
// evicted with a slow_consumer error frame. The loop additionally evicts
// idle connections and write-stalled connections (peer not draining its
// receive window) on configurable timeouts, and caps total connections at
// accept time. A client disconnect immediately cancels that connection's
// in-flight tickets; tenant inflight slots are released when each ticket
// finishes — never early, never twice.
//
// Graceful drain (SIGTERM or a "drain" frame): stop accepting, refuse new
// submits, let in-flight tickets finish and their terminal frames flush,
// then engine.Drain() and exit the loop. RequestDrain() is callable from a
// signal handler (one atomic store plus a pipe write).
//
// Failpoint sites: net.accept, net.read, net.write — an injected fault
// closes the affected connection only; the loop and every other
// connection keep serving.

#ifndef OSD_NET_SERVER_H_
#define OSD_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "io/durable_store.h"
#include "net/json.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "net/wire.h"

namespace osd {
namespace net {

/// Per-tenant governance knobs. The zero value means "inherit the server
/// default" (which itself may be unlimited).
struct TenantPolicy {
  /// Per-query memory cap for this tenant's queries; caps (never raises)
  /// any budget the request asks for. 0 = server default.
  long per_query_mem_bytes = 0;
  /// Concurrent in-flight queries; submits above it are shed with an
  /// over_inflight_limit error. 0 = unlimited.
  int max_inflight = 0;
  /// Whether this tenant may send "mutate" frames; a denied write is
  /// answered with a write_denied error and changes nothing.
  bool allow_writes = true;
  /// Per-batch op cap for this tenant's mutate frames; caps (never raises)
  /// the protocol-wide kMaxMutationOps. 0 = protocol default.
  int max_mutation_ops = 0;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 picks a free port; read it back with port()
  size_t max_connections = 256;
  size_t max_frame_bytes = kMaxFrameBytes;
  /// Hard cap: a connection whose unflushed output passes this is evicted
  /// (pending output replaced by one slow_consumer error frame, delivered
  /// best-effort, then closed). Progressive streams would otherwise buffer
  /// without bound behind a reader that stopped reading.
  size_t max_output_buffer_bytes = 16u << 20;
  /// Soft watermarks on the per-connection output buffer (0 = off). Above
  /// the high watermark, progressive "candidate" frames stop being queued
  /// individually: each query's events are folded into one bounded
  /// "candidates_coalesced" summary that is flushed once the buffer drains
  /// below the low watermark (default high/2) and, at the latest,
  /// immediately before that query's terminal frame. Terminal frames are
  /// never coalesced; the hard cap above still evicts.
  size_t output_high_watermark_bytes = 0;
  size_t output_low_watermark_bytes = 0;
  /// Evict connections with no read activity, no in-flight queries and no
  /// pending output for this long (timeout error frame, then close).
  /// 0 = off.
  double idle_timeout_s = 0.0;
  /// Evict connections whose pending output makes no send progress for
  /// this long — the peer's receive window is closed and it is not
  /// draining it. 0 = off.
  double write_stall_timeout_s = 0.0;
  /// Policy for tenants without an explicit entry in `tenants`.
  TenantPolicy default_policy;
  std::map<std::string, TenantPolicy> tenants;
  /// Durability tier, when the owner runs one (osd_server --wal-dir). The
  /// server only *observes* it — status gains a "wal" block, metrics gain
  /// osd_wal_* series, and store-refused writes whose error carries the
  /// io::kStorageUnavailable prefix map to the storage_unavailable wire
  /// code. Attachment/sealing stay with the owner. Must outlive the server.
  const io::DurableStore* durable = nullptr;
};

/// The service front end. Does not own the engine: construct the engine
/// first (its options decide threads, shedding and the engine-wide memory
/// budget) and keep it alive until the server is destroyed. Run the engine
/// with shed_on_overload for serving — a blocking Submit would stall the
/// event loop.
class OsdServer {
 public:
  OsdServer(QueryEngine* engine, ServerOptions options);

  /// Drains and joins (see Shutdown).
  ~OsdServer();

  OsdServer(const OsdServer&) = delete;
  OsdServer& operator=(const OsdServer&) = delete;

  /// Binds, listens and starts the event loop. False + *error on failure.
  bool Start(std::string* error);

  /// The bound port (valid after Start; resolves port 0).
  int port() const { return port_; }

  /// Initiates graceful drain: stop accepting, refuse new submits, flush
  /// in-flight queries, then exit the loop. Async-signal-safe (an atomic
  /// store and a self-pipe write), so SIGTERM handlers may call it.
  void RequestDrain();

  /// Blocks until the event loop has exited (i.e. a drain completed).
  void Wait();

  /// RequestDrain + Wait; idempotent, implied by the destructor.
  void Shutdown();

  /// Prometheus text exposition, rendered once over the name-sorted union
  /// of the engine's series, the server's (connection/frame/tenant) series
  /// and, with a durable store, the osd_wal_* series.
  std::string MetricsText() const;

  // Observability for tests and the smoke harness; each reads the counter
  // its exported series reads.
  long inflight() const { return inflight_total_.load(); }
  /// Sum of the tenants' osd_tenant_queries_total.
  long queries_submitted() const;
  long queries_completed() const { return queries_completed_.load(); }
  long connections_accepted() const { return counters_.accepted.load(); }
  bool draining() const { return drain_requested_.load(); }
  long evictions() const { return counters_.evictions.load(); }
  long candidates_coalesced() const {
    return counters_.candidates_coalesced.load();
  }
  /// Mutation ops applied through the wire (sum of mutate_ok "applied").
  long mutations_applied() const { return counters_.mutations.load(); }

 private:
  /// One tenant's policy and its osd_tenant_* series. `inflight` also
  /// enforces policy.max_inflight.
  struct TenantState {
    TenantPolicy policy;
    std::atomic<int> inflight{0};
    std::atomic<long> queries{0};
    std::atomic<long> rejected{0};
    std::atomic<long> candidates_streamed{0};
  };

  /// The server's one book of counters: one relaxed atomic per exported
  /// osd_net_* series, incremented once where the event happens and read
  /// by the accessors, the status frame and MetricsText. Unsharded: engine
  /// workers touch only frames_sent and candidates_coalesced (and their
  /// tenant's candidates_streamed), a handful of times per query.
  struct Counters {
    std::atomic<long> accepted{0};
    std::atomic<long> active{0};  ///< conns_.size(), stored by the loop thread
    std::atomic<long> disconnects{0};
    std::atomic<long> frames_read{0};
    std::atomic<long> frames_sent{0};
    std::atomic<long> bytes_read{0};
    std::atomic<long> bytes_sent{0};
    std::atomic<long> protocol_errors{0};
    std::atomic<long> evictions{0};
    std::atomic<long> candidates_coalesced{0};
    std::atomic<long> mutations{0};
    std::atomic<long> mutations_rejected{0};
    std::atomic<long> storage_unavailable{0};
  };

  struct Pending {
    std::shared_ptr<QueryTicket> ticket;
  };

  /// Per-query accumulator for candidate events withheld while the output
  /// buffer is above its high watermark. Bounded: ids stop growing at the
  /// truncation cap, only the count keeps counting.
  struct CoalesceState {
    long count = 0;
    bool truncated = false;
    std::vector<int> object_ids;
  };

  struct Connection {
    explicit Connection(Socket s)
        : sock(std::move(s)),
          last_read(std::chrono::steady_clock::now()) {}

    // Loop-thread-only state.
    Socket sock;
    FrameDecoder decoder{kMaxFrameBytes};
    bool hello_done = false;
    bool closing = false;  ///< stop reading; close once output flushes
    TenantState* tenant = nullptr;
    std::chrono::steady_clock::time_point last_read;  ///< idle-timeout clock

    // Cross-thread state: engine workers append frames and retire
    // inflight entries under `mu`.
    std::mutex mu;
    std::string out;
    bool closed = false;  ///< no further output accepted
    bool doomed = false;  ///< loop must evict (overflow / stall / idle)
    bool coalescing = false;  ///< above high watermark; candidates coalesce
    /// Last send progress while `out` is non-empty; epoch when empty.
    std::chrono::steady_clock::time_point stall_since{};
    std::map<long, CoalesceState> coalesced;
    std::map<long, Pending> inflight;
  };
  using ConnPtr = std::shared_ptr<Connection>;

  void Loop();
  void EnterDrain();
  void AcceptNew();
  void HandleReadable(const ConnPtr& conn);
  void FlushWrites(const ConnPtr& conn);
  void HandleFrame(const ConnPtr& conn, const std::string& payload);
  void HandleHello(const ConnPtr& conn, const JsonValue& msg);
  void HandleSubmit(const ConnPtr& conn, const JsonValue& msg);
  void HandleMutate(const ConnPtr& conn, const JsonValue& msg);
  void HandleCancel(const ConnPtr& conn, const JsonValue& msg);
  void HandleStatus(const ConnPtr& conn);
  void CloseConnection(const ConnPtr& conn);
  /// True when the connection has no in-flight queries (drain may retire
  /// it once its output flushes).
  bool ConnIdle(Connection& conn);
  /// Error frame + stop reading; the connection closes once the frame has
  /// flushed (fatal protocol-level failures).
  void FailConnection(const ConnPtr& conn, const std::string& message);

  /// Appends one framed payload to the connection's output buffer (drops
  /// it when the connection is closed; evicts the connection when the
  /// hard buffer cap is passed). Safe from any thread.
  void AppendFrame(Connection& conn, const std::string& payload);
  /// AppendFrame body; requires `conn.mu` held.
  void AppendFrameLocked(Connection& conn, const std::string& payload);
  /// Queues one progressive candidate event, coalescing it into the
  /// per-query summary while the output buffer is above the high
  /// watermark. Safe from any thread.
  void AppendCandidate(Connection& conn, long id, long seq, int object_id,
                       double elapsed_seconds);
  /// Replaces pending output with one final error frame and dooms the
  /// connection; the loop makes one best-effort flush before closing.
  /// Requires `conn.mu` held.
  void EvictLocked(Connection& conn, const char* code,
                   const std::string& message);
  /// Emits every pending coalesced summary and leaves coalescing mode.
  /// Requires `conn.mu` held.
  void EmitCoalescedLocked(Connection& conn);
  /// Loop-thread scan: evicts write-stalled and idle connections per
  /// ServerOptions timeouts.
  void ScanTimeouts(const ConnPtr& conn,
                    std::chrono::steady_clock::time_point now);

  /// Wakes the poll loop (safe from any thread and from signal handlers).
  void Wake();

  /// The named tenant's state, created on first use; null when the table
  /// already holds kMaxTenants tenants and `name` is neither one of them
  /// nor configured in ServerOptions::tenants.
  TenantState* ResolveTenant(const std::string& name);

  QueryEngine* engine_;
  ServerOptions options_;
  int port_ = -1;

  Socket listener_;
  Socket wake_rd_, wake_wr_;
  std::thread loop_thread_;
  bool started_ = false;
  bool joined_ = false;
  std::mutex lifecycle_mu_;  // guards Start/Wait/Shutdown transitions

  std::vector<ConnPtr> conns_;  // loop-thread-only
  bool draining_ = false;       // loop-thread-only (mirrors drain_requested_)

  std::atomic<bool> drain_requested_{false};
  std::atomic<long> inflight_total_{0};
  std::atomic<long> queries_completed_{0};
  Counters counters_;

  mutable std::mutex tenants_mu_;
  std::map<std::string, TenantState> tenants_;
};

}  // namespace net
}  // namespace osd

#endif  // OSD_NET_SERVER_H_
