#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <utility>

#include "common/failpoint.h"
#include "obs/export.h"

namespace osd {
namespace net {

namespace {

/// Poll timeout. The wake pipe makes the loop reactive; the timeout is the
/// fallback cadence for drain-progress checks and timeout scans when a
/// wake is missed.
constexpr int kPollTimeoutMs = 100;

/// Cap on the ids a coalesced summary carries; beyond it only the count
/// grows (the terminal frame holds the authoritative candidate set).
constexpr size_t kMaxCoalescedIds = 4096;

void Count(std::atomic<long>& counter, long delta = 1) {
  counter.fetch_add(delta, std::memory_order_relaxed);
}

/// Appends the server's osd_net_* and osd_tenant_* series, read from its
/// Counters and each TenantState (unsorted: MetricsText sorts the union).
/// Takes them as `auto` because both types are private to OsdServer; the
/// caller holds tenants_mu_.
void AppendNetMetrics(const auto& c, const auto& tenants, bool draining,
                      std::vector<obs::MetricSnapshot>* out) {
  const auto add = [out](std::string name, const char* help,
                         obs::MetricType type, double value) {
    out->push_back(obs::ScalarSnapshot(std::move(name), help, type, value));
  };
  const auto counter = [&add](std::string name, const char* help,
                              const std::atomic<long>& value) {
    add(std::move(name), help, obs::MetricType::kCounter,
        static_cast<double>(value.load(std::memory_order_relaxed)));
  };
  counter("osd_net_connections_accepted_total",
          "TCP connections accepted by the service listener.", c.accepted);
  add("osd_net_connections_active", "Currently open client connections.",
      obs::MetricType::kGauge,
      static_cast<double>(c.active.load(std::memory_order_relaxed)));
  counter("osd_net_disconnects_total",
          "Connections closed for any reason (EOF, error, overflow, drain).",
          c.disconnects);
  counter("osd_net_frames_read_total", "Complete request frames decoded.",
          c.frames_read);
  counter("osd_net_frames_sent_total",
          "Response/event frames queued for send.", c.frames_sent);
  counter("osd_net_bytes_read_total", "Bytes read from client sockets.",
          c.bytes_read);
  counter("osd_net_bytes_sent_total", "Bytes written to client sockets.",
          c.bytes_sent);
  counter("osd_net_protocol_errors_total",
          "Frames rejected for framing, syntax or schema violations.",
          c.protocol_errors);
  counter("osd_net_evictions_total",
          "Connections evicted by the server (output overflow, write stall, "
          "idle timeout).",
          c.evictions);
  counter("osd_net_candidates_coalesced_total",
          "Candidate events folded into summary frames above the output high "
          "watermark.",
          c.candidates_coalesced);
  counter("osd_net_mutations_total",
          "Mutation ops applied through the wire (sum over mutate batches).",
          c.mutations);
  counter("osd_net_mutations_rejected_total",
          "Mutate frames refused (write_denied, bad_mutation, batch caps, "
          "drain).",
          c.mutations_rejected);
  counter("osd_net_storage_unavailable_total",
          "Mutate frames refused because the durability tier is in read-only "
          "degraded mode (WAL append/fsync failure).",
          c.storage_unavailable);
  add("osd_net_draining", "1 while a graceful drain is in progress.",
      obs::MetricType::kGauge, draining ? 1 : 0);
  for (const auto& [name, t] : tenants) {
    const std::string label = "{tenant=\"" + name + "\"}";
    counter("osd_tenant_queries_total" + label,
            "Queries admitted per tenant (including ones the engine shed).",
            t.queries);
    counter("osd_tenant_rejected_total" + label,
            "Submits refused per tenant (inflight cap or drain).", t.rejected);
    counter("osd_tenant_candidates_streamed_total" + label,
            "Progressive candidate frames emitted per tenant.",
            t.candidates_streamed);
    add("osd_tenant_inflight" + label,
        "Queries currently in flight per tenant.", obs::MetricType::kGauge,
        t.inflight.load(std::memory_order_relaxed));
  }
}

}  // namespace

OsdServer::OsdServer(QueryEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  // Normalize the watermarks once: low defaults to high/2 and may never
  // sit above high.
  if (options_.output_high_watermark_bytes > 0) {
    if (options_.output_low_watermark_bytes == 0 ||
        options_.output_low_watermark_bytes >
            options_.output_high_watermark_bytes) {
      options_.output_low_watermark_bytes =
          options_.output_high_watermark_bytes / 2;
    }
  } else {
    options_.output_low_watermark_bytes = 0;
  }
}

long OsdServer::queries_submitted() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  long total = 0;
  for (const auto& [name, tenant] : tenants_) total += tenant.queries.load();
  return total;
}

OsdServer::~OsdServer() { Shutdown(); }

bool OsdServer::Start(std::string* error) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  if (!ListenTcp(options_.host, options_.port, &listener_, error)) {
    return false;
  }
  port_ = LocalPort(listener_);
  int fds[2];
  if (pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    if (error != nullptr) {
      *error = std::string("pipe2: ") + std::strerror(errno);
    }
    listener_.Close();
    return false;
  }
  wake_rd_ = Socket(fds[0]);
  wake_wr_ = Socket(fds[1]);
  started_ = true;
  loop_thread_ = std::thread([this] { Loop(); });
  return true;
}

void OsdServer::RequestDrain() {
  // Async-signal-safe: one atomic store and one pipe write.
  drain_requested_.store(true, std::memory_order_release);
  Wake();
}

void OsdServer::Wake() {
  const int fd = wake_wr_.fd();
  if (fd < 0) return;
  const char byte = 'w';
  // A full pipe means a wake is already pending; any other failure is
  // covered by the poll timeout.
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
}

void OsdServer::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ && !joined_ && loop_thread_.joinable()) {
    loop_thread_.join();
    joined_ = true;
  }
}

void OsdServer::Shutdown() {
  RequestDrain();
  Wait();
}

std::string OsdServer::MetricsText() const {
  std::vector<obs::MetricSnapshot> metrics = engine_->Snapshot().metrics;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    AppendNetMetrics(counters_, tenants_,
                     drain_requested_.load(std::memory_order_relaxed),
                     &metrics);
  }
  if (options_.durable != nullptr) {
    const io::DurableStore::Stats d = options_.durable->GetStats();
    const auto add = [&metrics](const char* name, const char* help,
                                obs::MetricType type, double value) {
      metrics.push_back(obs::ScalarSnapshot(name, help, type, value));
    };
    constexpr obs::MetricType kCounter = obs::MetricType::kCounter;
    constexpr obs::MetricType kGauge = obs::MetricType::kGauge;
    add("osd_wal_read_only",
        "1 while the durability tier is in read-only degraded mode.", kGauge,
        d.read_only ? 1 : 0);
    add("osd_wal_appends_total", "Mutation batches durably appended.",
        kCounter, static_cast<double>(d.appends));
    add("osd_wal_append_failures_total",
        "WAL appends refused or failed (degraded-mode refusals included).",
        kCounter, static_cast<double>(d.append_failures));
    add("osd_wal_checkpoints_total", "Checkpoints durably written.", kCounter,
        static_cast<double>(d.checkpoints));
    add("osd_wal_checkpoint_failures_total",
        "Checkpoint attempts that failed (previous checkpoint kept).",
        kCounter, static_cast<double>(d.checkpoint_failures));
    add("osd_wal_active_segment_bytes",
        "Bytes in the active WAL segment (header included).", kGauge,
        static_cast<double>(d.wal_bytes));
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const obs::MetricSnapshot& a, const obs::MetricSnapshot& b) {
              return a.name < b.name;
            });
  return obs::RenderPrometheusMetrics(metrics);
}

OsdServer::TenantState* OsdServer::ResolveTenant(const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    const auto policy_it = options_.tenants.find(name);
    const bool configured = policy_it != options_.tenants.end();
    if (!configured && tenants_.size() >= kMaxTenants) return nullptr;
    it = tenants_.try_emplace(name).first;
    it->second.policy =
        configured ? policy_it->second : options_.default_policy;
  }
  return &it->second;
}

void OsdServer::AppendFrame(Connection& conn, const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    AppendFrameLocked(conn, payload);
  }
  Wake();  // an evicted connection must be retired promptly
}

void OsdServer::AppendFrameLocked(Connection& conn,
                                  const std::string& payload) {
  if (conn.closed) return;
  const std::string frame = EncodeFrame(payload, options_.max_frame_bytes);
  if (frame.empty()) {
    // Payload over the frame cap (a pathological metrics dump): the stream
    // would desynchronize if we sent a partial frame, so drop the payload
    // and count it.
    Count(counters_.protocol_errors);
    return;
  }
  if (conn.out.empty()) conn.stall_since = std::chrono::steady_clock::now();
  conn.out += frame;
  Count(counters_.frames_sent);
  if (conn.out.size() > options_.max_output_buffer_bytes) {
    // Slow or stalled reader under a progressive stream: cut it loose
    // rather than buffer without bound. The loop closes doomed
    // connections and cancels their in-flight queries.
    EvictLocked(conn, kErrSlowConsumer,
                "output buffer overflow (" +
                    std::to_string(options_.max_output_buffer_bytes) +
                    " bytes): client is not reading");
  }
}

void OsdServer::EvictLocked(Connection& conn, const char* code,
                            const std::string& message) {
  if (conn.doomed) return;
  conn.out.clear();
  conn.coalesced.clear();
  conn.coalescing = false;
  // The error frame replaces everything pending: it is small enough to fit
  // whatever kernel buffer space remains, and a client that is reading at
  // all sees a precise reason instead of a bare close. Delivery is
  // best-effort by construction — a hard-stalled peer has no window left.
  conn.out =
      EncodeFrame(BuildErrorMessage(-1, code, message), options_.max_frame_bytes);
  conn.stall_since = std::chrono::steady_clock::now();
  conn.closed = true;  // no further output accepted
  conn.doomed = true;  // loop: best-effort flush, then close
  Count(counters_.frames_sent);
  Count(counters_.evictions);
}

void OsdServer::EmitCoalescedLocked(Connection& conn) {
  for (auto& [id, st] : conn.coalesced) {
    AppendFrameLocked(conn, BuildCoalescedMessage(id, st.attempt, st.count,
                                                  st.object_ids,
                                                  st.truncated));
    if (conn.closed) break;  // eviction mid-emit: the rest is moot
  }
  conn.coalesced.clear();
  conn.coalescing = false;
}

void OsdServer::AppendCandidate(Connection& conn, long id, long seq,
                                int attempt, int object_id,
                                double elapsed_seconds) {
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.closed) return;
    const size_t high = options_.output_high_watermark_bytes;
    if (high > 0 && !conn.coalescing && conn.out.size() > high) {
      conn.coalescing = true;
    }
    if (conn.coalescing) {
      CoalesceState& st = conn.coalesced[id];
      st.attempt = attempt;
      ++st.count;
      if (st.object_ids.size() < kMaxCoalescedIds) {
        st.object_ids.push_back(object_id);
      } else {
        st.truncated = true;
      }
      Count(counters_.candidates_coalesced);
      return;
    }
    AppendFrameLocked(conn, BuildCandidateMessage(id, seq, attempt,
                                                  object_id,
                                                  elapsed_seconds));
  }
  Wake();
}

void OsdServer::Loop() {
  std::vector<pollfd> pfds;
  std::vector<ConnPtr> polled;
  while (true) {
    pfds.clear();
    polled.clear();
    pfds.push_back({wake_rd_.fd(), POLLIN, 0});
    size_t listener_index = 0;  // 0 = not polled (slot 0 is the wake pipe)
    if (listener_.valid()) {
      listener_index = pfds.size();
      pfds.push_back({listener_.fd(), POLLIN, 0});
    }
    const size_t first_conn = pfds.size();
    for (const ConnPtr& conn : conns_) {
      short events = 0;
      if (!conn->closing) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->out.empty()) events |= POLLOUT;
      }
      pfds.push_back({conn->sock.fd(), events, 0});
      polled.push_back(conn);
    }

    ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);

    if ((pfds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(wake_rd_.fd(), buf, sizeof(buf)) > 0) {
      }
    }
    // After poll and before any socket is read: a submit read in the same
    // wake-up as a RequestDrain() must be refused. Checking after the wake
    // pipe is drained means a consumed wake byte's drain is seen here, and
    // any later one wakes the next poll at once.
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      EnterDrain();
    }
    if (listener_index != 0 && (pfds[listener_index].revents & POLLIN) != 0) {
      AcceptNew();
    }

    for (size_t i = 0; i < polled.size(); ++i) {
      const ConnPtr& conn = polled[i];
      const short revents = pfds[first_conn + i].revents;
      if (!conn->sock.valid()) continue;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 && !conn->closing) {
        // Peer went away; flush nothing, cancel its queries.
        CloseConnection(conn);
        continue;
      }
      if ((revents & POLLOUT) != 0) FlushWrites(conn);
      if ((revents & POLLIN) != 0 && !conn->closing) HandleReadable(conn);
    }

    // Evict write-stalled and idle connections, then retire doomed
    // connections (eviction flagged on- or off-loop) and closing
    // connections whose output has flushed.
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < conns_.size();) {
      const ConnPtr conn = conns_[i];
      ScanTimeouts(conn, now);
      bool doomed, flushed;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        doomed = conn->doomed;
        flushed = conn->out.empty();
      }
      if (doomed) {
        // One best-effort flush so the eviction error frame reaches any
        // peer that is still reading, then close regardless.
        if (!flushed && conn->sock.valid()) FlushWrites(conn);
        if (std::find(conns_.begin(), conns_.end(), conn) != conns_.end()) {
          CloseConnection(conn);
        }
        continue;  // conns_[i] changed; do not advance
      }
      if ((conn->closing && flushed) ||
          (draining_ && flushed && ConnIdle(*conn))) {
        CloseConnection(conn);
        // CloseConnection erased it; do not advance.
        continue;
      }
      ++i;
    }

    if (draining_ && inflight_total_.load(std::memory_order_acquire) == 0 &&
        conns_.empty()) {
      break;
    }
  }
  // Every query this server ever submitted is terminal (inflight == 0) and
  // Drain additionally waits out the tail of each on_finish hook, so no
  // engine worker can touch this server or its connections after this
  // point.
  engine_->Drain();
  conns_.clear();
  listener_.Close();
}

void OsdServer::ScanTimeouts(const ConnPtr& conn,
                             std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->doomed || conn->closed) return;
  if (options_.write_stall_timeout_s > 0 && !conn->out.empty() &&
      conn->stall_since != std::chrono::steady_clock::time_point{} &&
      std::chrono::duration<double>(now - conn->stall_since).count() >
          options_.write_stall_timeout_s) {
    EvictLocked(*conn, kErrTimeout,
                "write stalled: no send progress for " +
                    std::to_string(options_.write_stall_timeout_s) +
                    "s (receive window closed)");
    return;
  }
  if (options_.idle_timeout_s > 0 && !conn->closing && conn->out.empty() &&
      conn->inflight.empty() &&
      std::chrono::duration<double>(now - conn->last_read).count() >
          options_.idle_timeout_s) {
    EvictLocked(*conn, kErrTimeout,
                "idle timeout: no requests for " +
                    std::to_string(options_.idle_timeout_s) + "s");
  }
}

bool OsdServer::ConnIdle(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.mu);
  return conn.inflight.empty();
}

void OsdServer::EnterDrain() {
  draining_ = true;
  listener_.Close();
}

void OsdServer::AcceptNew() {
  while (!draining_ && listener_.valid()) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN or transient accept failure
    bool refuse = conns_.size() >= options_.max_connections;
    try {
      OSD_FAILPOINT_ERROR("net.accept", refuse = true);
    } catch (const std::exception&) {
      refuse = true;
    }
    if (refuse) {
      ::close(fd);
      Count(counters_.disconnects);
      continue;
    }
    SetNoDelay(fd);
    conns_.push_back(std::make_shared<Connection>(Socket(fd)));
    conns_.back()->decoder = FrameDecoder(options_.max_frame_bytes);
    Count(counters_.accepted);
    counters_.active.store(static_cast<long>(conns_.size()),
                           std::memory_order_relaxed);
  }
}

void OsdServer::HandleReadable(const ConnPtr& conn) {
  try {
    OSD_FAILPOINT_ERROR("net.read", {
      CloseConnection(conn);
      return;
    });
  } catch (const std::exception&) {
    CloseConnection(conn);
    return;
  }
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      Count(counters_.bytes_read, n);
      conn->last_read = std::chrono::steady_clock::now();
      if (!conn->decoder.Feed(buf, static_cast<size_t>(n))) {
        Count(counters_.protocol_errors);
        FailConnection(conn, conn->decoder.error());
        return;
      }
      std::string payload;
      while (conn->decoder.Next(&payload)) {
        Count(counters_.frames_read);
        HandleFrame(conn, payload);
        if (conn->closing || !conn->sock.valid()) return;
      }
      if (conn->decoder.failed()) {
        Count(counters_.protocol_errors);
        FailConnection(conn, conn->decoder.error());
        return;
      }
      continue;
    }
    if (n == 0) {  // orderly EOF
      CloseConnection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
}

void OsdServer::FlushWrites(const ConnPtr& conn) {
  try {
    OSD_FAILPOINT_ERROR("net.write", {
      CloseConnection(conn);
      return;
    });
  } catch (const std::exception&) {
    CloseConnection(conn);
    return;
  }
  // Nonblocking sends while holding the buffer mutex: a worker appending a
  // frame waits at most one bounded send, never a blocked socket.
  std::lock_guard<std::mutex> lock(conn->mu);
  size_t off = 0;
  while (off < conn->out.size()) {
    const ssize_t n = ::send(conn->sock.fd(), conn->out.data() + off,
                             conn->out.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      Count(counters_.bytes_sent, n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Write error: the peer is gone. Mark and let the loop retire it.
    conn->closed = true;
    conn->doomed = true;
    conn->out.clear();
    return;
  }
  conn->out.erase(0, off);
  if (off > 0) {
    // Send progress resets the write-stall clock; an empty buffer stops it.
    conn->stall_since = conn->out.empty()
                            ? std::chrono::steady_clock::time_point{}
                            : std::chrono::steady_clock::now();
  }
  if (conn->coalescing &&
      conn->out.size() <= options_.output_low_watermark_bytes) {
    // Drained below the low watermark: the reader caught up, release the
    // withheld summaries and resume per-event streaming.
    EmitCoalescedLocked(*conn);
  }
}

void OsdServer::HandleFrame(const ConnPtr& conn, const std::string& payload) {
  JsonValue msg;
  std::string error;
  if (!ParseJson(payload, &msg, &error)) {
    // A frame that is not valid JSON means the client is broken; the
    // stream has no future.
    Count(counters_.protocol_errors);
    FailConnection(conn, "invalid JSON: " + error);
    return;
  }
  const std::string type = MessageType(msg);
  if (!conn->hello_done) {
    if (type != "hello") {
      Count(counters_.protocol_errors);
      FailConnection(conn, "expected hello, got '" + type + "'");
      return;
    }
    HandleHello(conn, msg);
    return;
  }
  if (type == "submit") {
    HandleSubmit(conn, msg);
  } else if (type == "mutate") {
    HandleMutate(conn, msg);
  } else if (type == "cancel") {
    HandleCancel(conn, msg);
  } else if (type == "status") {
    HandleStatus(conn);
  } else if (type == "metrics") {
    AppendFrame(*conn, BuildMetricsOkMessage(MetricsText()));
  } else if (type == "drain") {
    AppendFrame(*conn,
                BuildDrainOkMessage(inflight_total_.load()));
    RequestDrain();
  } else if (type == "bye") {
    conn->closing = true;
  } else {
    Count(counters_.protocol_errors);
    AppendFrame(*conn, BuildErrorMessage(-1, kErrBadRequest,
                                         "unknown message type '" + type +
                                             "'"));
  }
}

void OsdServer::HandleHello(const ConnPtr& conn, const JsonValue& msg) {
  HelloRequest req;
  std::string error;
  if (!ParseHello(msg, &req, &error)) {
    Count(counters_.protocol_errors);
    FailConnection(conn, error);
    return;
  }
  if (req.version != kProtocolVersion) {
    Count(counters_.protocol_errors);
    FailConnection(conn, "unsupported protocol version " +
                             std::to_string(req.version));
    return;
  }
  conn->tenant = ResolveTenant(req.tenant);
  if (conn->tenant == nullptr) {
    // Every new name would otherwise add a permanent tenant and four
    // series, growing the exposition past the frame cap.
    AppendFrame(*conn, BuildErrorMessage(
                           -1, kErrRejected,
                           "tenant table full (" +
                               std::to_string(kMaxTenants) +
                               " tenants): unknown tenant '" + req.tenant +
                               "' is not configured"));
    conn->closing = true;  // stop reading; close once the frame flushes
    return;
  }
  conn->hello_done = true;
  const VersionedDataset::Snapshot snap = engine_->versioned().Acquire();
  AppendFrame(*conn, BuildHelloOkMessage(snap.live_size(), snap.dim(),
                                         snap.epoch(), req.tenant));
}

void OsdServer::HandleSubmit(const ConnPtr& conn, const JsonValue& msg) {
  SubmitRequest req;
  std::string error;
  if (!ParseSubmit(msg, &req, &error)) {
    Count(counters_.protocol_errors);
    AppendFrame(*conn, BuildErrorMessage(req.id, kErrBadRequest, error));
    return;
  }
  TenantState* tenant = conn->tenant;
  if (draining_) {
    Count(tenant->rejected);
    AppendFrame(*conn, BuildErrorMessage(req.id, kErrDraining,
                                         "server is draining"));
    return;
  }
  bool duplicate;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    duplicate = conn->inflight.count(req.id) != 0;
  }
  if (duplicate) {
    Count(counters_.protocol_errors);
    AppendFrame(*conn, BuildErrorMessage(req.id, kErrBadRequest,
                                         "duplicate in-flight request id"));
    return;
  }
  if (tenant->policy.max_inflight > 0 &&
      tenant->inflight.load(std::memory_order_relaxed) >=
          tenant->policy.max_inflight) {
    Count(tenant->rejected);
    AppendFrame(*conn,
                BuildErrorMessage(req.id, kErrOverInflightLimit,
                                  "tenant in-flight limit reached"));
    return;
  }

  QuerySpec spec;
  {
    // Precheck against the store as it is now; the query runs against the
    // snapshot the engine pins at Submit, so a mutation racing past this
    // check still yields a precise error result rather than an abort.
    const VersionedDataset::Snapshot snap = engine_->versioned().Acquire();
    if (req.inline_query) {
      if (snap.dim() != 0 && req.query.dim() != snap.dim()) {
        Count(counters_.protocol_errors);
        AppendFrame(
            *conn,
            BuildErrorMessage(
                req.id, kErrBadRequest,
                "query dimensionality " + std::to_string(req.query.dim()) +
                    " != dataset dimensionality " +
                    std::to_string(snap.dim())));
        return;
      }
      spec.query = req.query;
    } else {
      // The wire object_id is an EXTERNAL id (UncertainObject::id()) — the
      // same stable name the mutate path uses. A fold between this precheck
      // and the engine's pin at Submit compacts snapshot indices but never
      // renames an object, so the id cannot silently resolve to a different
      // one; an id that dies in that window fails at worker resolution with
      // a precise error instead.
      if (snap.IndexOf(req.object_id) < 0) {
        Count(counters_.protocol_errors);
        AppendFrame(*conn,
                    BuildErrorMessage(req.id, kErrBadRequest,
                                      "object_id unknown or deleted"));
        return;
      }
      spec.query_object_id = req.object_id;
    }
  }
  spec.options = req.options;
  spec.deadline_seconds = req.deadline_seconds;
  spec.collect_trace = req.trace;
  const int retries =
      tenant->policy.retries >= 0 ? tenant->policy.retries : req.retries;
  spec.retry.max_attempts = 1 + retries;
  // The tenant's budget caps the request's: a request may ask for less
  // than its tenant allows, never more.
  long budget = req.mem_budget_bytes;
  if (tenant->policy.per_query_mem_bytes > 0) {
    budget = budget > 0
                 ? std::min(budget, tenant->policy.per_query_mem_bytes)
                 : tenant->policy.per_query_mem_bytes;
  }
  spec.per_query_mem_bytes = budget;

  const long id = req.id;
  std::weak_ptr<Connection> weak = conn;
  if (req.stream) {
    auto seq = std::make_shared<std::atomic<long>>(0);
    spec.on_emission = [this, weak, id, seq, tenant](const NncEmission& e,
                                                     int attempt) {
      const long s = seq->fetch_add(1, std::memory_order_relaxed);
      Count(tenant->candidates_streamed);
      if (ConnPtr c = weak.lock()) {
        AppendCandidate(*c, id, s, attempt, e.object_id, e.elapsed_seconds);
      }
    };
  }
  spec.on_finish = [this, weak, id, tenant](const QueryTicket& ticket) {
    if (ConnPtr c = weak.lock()) {
      // Terminal frame FIRST, then retire the inflight entry: the drain
      // path may close a connection that looks idle with nothing left to
      // flush, and the frame must be queued before the entry disappears.
      // Any coalesced summary this query accumulated under watermark
      // pressure precedes its terminal frame so event/result ordering
      // holds even for a reader that never caught up.
      {
        std::lock_guard<std::mutex> lock(c->mu);
        const auto it = c->coalesced.find(id);
        if (it != c->coalesced.end()) {
          AppendFrameLocked(*c, BuildCoalescedMessage(
                                    id, it->second.attempt, it->second.count,
                                    it->second.object_ids,
                                    it->second.truncated));
          c->coalesced.erase(it);
        }
        AppendFrameLocked(*c, BuildResultMessage(id, ticket));
        c->inflight.erase(id);
      }
    }
    tenant->inflight.fetch_sub(1, std::memory_order_relaxed);
    queries_completed_.fetch_add(1, std::memory_order_relaxed);
    Wake();
    // Last: the loop's drain exit gate reads this, and engine_->Drain()
    // then waits out the task this hook runs in.
    inflight_total_.fetch_sub(1, std::memory_order_release);
  };

  // Register before Submit: a rejected or fast-failed ticket runs
  // on_finish synchronously inside Submit, and the hook must find its
  // entry to retire.
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->inflight[id] = Pending{};
  }
  tenant->inflight.fetch_add(1, std::memory_order_relaxed);
  Count(tenant->queries);
  inflight_total_.fetch_add(1, std::memory_order_relaxed);

  std::shared_ptr<QueryTicket> ticket = engine_->Submit(std::move(spec));

  std::lock_guard<std::mutex> lock(conn->mu);
  const auto it = conn->inflight.find(id);
  if (it != conn->inflight.end()) it->second.ticket = std::move(ticket);
}

void OsdServer::HandleMutate(const ConnPtr& conn, const JsonValue& msg) {
  MutateRequest req;
  std::string error;
  if (!ParseMutate(msg, &req, &error)) {
    Count(counters_.protocol_errors);
    AppendFrame(*conn, BuildErrorMessage(req.id, kErrBadRequest, error));
    return;
  }
  TenantState* tenant = conn->tenant;
  if (draining_) {
    Count(counters_.mutations_rejected);
    AppendFrame(*conn, BuildErrorMessage(req.id, kErrDraining,
                                         "server is draining"));
    return;
  }
  if (!tenant->policy.allow_writes) {
    Count(counters_.mutations_rejected);
    AppendFrame(*conn, BuildErrorMessage(req.id, kErrWriteDenied,
                                         "tenant policy forbids writes"));
    return;
  }
  if (tenant->policy.max_mutation_ops > 0 &&
      static_cast<int>(req.ops.size()) > tenant->policy.max_mutation_ops) {
    Count(counters_.mutations_rejected);
    AppendFrame(*conn,
                BuildErrorMessage(
                    req.id, kErrBadRequest,
                    "mutate batch exceeds tenant cap of " +
                        std::to_string(tenant->policy.max_mutation_ops) +
                        " ops"));
    return;
  }
  // Apply is a validate + copy-on-write publish — no index rebuild, no
  // blocking on in-flight queries — so running it on the loop thread keeps
  // writes strictly ordered per connection without stalling reads. Folds
  // happen on the engine's background fold thread.
  const int applied = static_cast<int>(req.ops.size());
  uint64_t epoch = 0;
  uint64_t seq = 0;
  if (!engine_->versioned().Apply(std::move(req.ops), &error, &epoch, &seq)) {
    Count(counters_.mutations_rejected);
    // A durability-tier refusal (read-only degraded mode) is not the
    // client's fault; distinguish it from bad_mutation so operators and
    // retry logic can tell "fix your batch" from "fix the disk".
    if (error.rfind(io::kStorageUnavailable, 0) == 0) {
      Count(counters_.storage_unavailable);
      AppendFrame(*conn,
                  BuildErrorMessage(req.id, kErrStorageUnavailable, error));
    } else {
      AppendFrame(*conn, BuildErrorMessage(req.id, kErrBadMutation, error));
    }
    return;
  }
  // The ack is built only after Apply returned, i.e. after the WAL fsync
  // when a durability tier is attached: mutate_ok implies durable.
  Count(counters_.mutations, applied);
  AppendFrame(*conn, BuildMutateOkMessage(req.id, epoch, applied, seq));
}

void OsdServer::HandleCancel(const ConnPtr& conn, const JsonValue& msg) {
  CancelRequest req;
  std::string error;
  if (!ParseCancel(msg, &req, &error)) {
    Count(counters_.protocol_errors);
    AppendFrame(*conn, BuildErrorMessage(req.id, kErrBadRequest, error));
    return;
  }
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    const auto it = conn->inflight.find(req.id);
    if (it != conn->inflight.end() && it->second.ticket != nullptr) {
      it->second.ticket->Cancel();
      found = true;
    }
  }
  AppendFrame(*conn, BuildCancelOkMessage(req.id, found));
}

void OsdServer::HandleStatus(const ConnPtr& conn) {
  std::string msg = "{\"type\":\"status_ok\",\"inflight\":";
  msg += std::to_string(inflight_total_.load());
  msg += ",\"connections\":";
  msg += std::to_string(counters_.active.load(std::memory_order_relaxed));
  msg += ",\"draining\":";
  msg += draining_ ? "true" : "false";
  msg += ",\"submitted\":";
  msg += std::to_string(queries_submitted());
  msg += ",\"completed\":";
  msg += std::to_string(queries_completed_.load());
  const VersionedDataset::Stats vstats = engine_->versioned().GetStats();
  msg += ",\"epoch\":";
  msg += std::to_string(vstats.epoch);
  msg += ",\"delta\":";
  msg += std::to_string(vstats.delta_size);
  msg += ",\"folds\":";
  msg += std::to_string(vstats.folds);
  if (options_.durable != nullptr) {
    const io::DurableStore::Stats dstats = options_.durable->GetStats();
    msg += ",\"wal\":{\"last_seq\":";
    msg += std::to_string(vstats.last_seq);
    msg += ",\"read_only\":";
    msg += dstats.read_only ? "true" : "false";
    msg += ",\"appends\":";
    msg += std::to_string(dstats.appends);
    msg += ",\"append_failures\":";
    msg += std::to_string(dstats.append_failures);
    msg += ",\"checkpoints\":";
    msg += std::to_string(dstats.checkpoints);
    msg += ",\"checkpoint_failures\":";
    msg += std::to_string(dstats.checkpoint_failures);
    msg += "}";
  }
  msg += ",\"engine\":";
  msg += engine_->Snapshot().ToJson();
  msg += "}";
  AppendFrame(*conn, msg);
}

void OsdServer::FailConnection(const ConnPtr& conn,
                               const std::string& message) {
  AppendFrame(*conn, BuildErrorMessage(-1, kErrProtocol, message));
  conn->closing = true;  // stop reading; close once the frame flushes
}

void OsdServer::CloseConnection(const ConnPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    conn->out.clear();
    conn->coalesced.clear();
    // Cancel this connection's queries; their on_finish hooks still run
    // (zero leaked tickets), see the closed flag and only retire
    // accounting. Entries stay until each hook erases its own.
    for (auto& [id, pending] : conn->inflight) {
      (void)id;
      if (pending.ticket != nullptr) pending.ticket->Cancel();
    }
  }
  const auto it = std::find(conns_.begin(), conns_.end(), conn);
  if (it != conns_.end()) {
    conns_.erase(it);
    Count(counters_.disconnects);
    counters_.active.store(static_cast<long>(conns_.size()),
                           std::memory_order_relaxed);
  }
  conn->sock.Close();
}

}  // namespace net
}  // namespace osd
