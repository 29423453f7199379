// Hostile-input hardening of the network service, mirroring
// io_hardening_test.cc for the wire: a corpus of malformed frames and
// schema violations at the parser level, then the same attacks replayed
// against a live server over loopback — the connection under attack dies
// (or gets a precise error), the server and its other tenants do not.

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "engine/query_engine.h"
#include "net/client.h"
#include "net/json.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace osd {
namespace net {
namespace {

Dataset TestDataset() {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = 200;
  p.instances_per_object = 5;
  p.seed = 1234;
  return GenerateSynthetic(p);
}

/// A query heavy enough to pin a worker for a while: the instance-level
/// operators scale linearly in |Q|, so a few hundred instances spread
/// across the domain buys orders of magnitude over the 5-instance
/// dataset objects.
UncertainObject SlowQuery() {
  constexpr int kInstances = 512;
  std::vector<double> coords;
  std::vector<double> weights;
  coords.reserve(kInstances * 2);
  weights.reserve(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    coords.push_back(1000.0 + 8000.0 * (i % 32) / 31.0);
    coords.push_back(1000.0 + 8000.0 * (i / 32) / 15.0);
    weights.push_back(1.0);
  }
  return UncertainObject::FromWeighted(-1, 2, std::move(coords),
                                       std::move(weights));
}

// --- parser-level corpus --------------------------------------------------

TEST(FrameHardeningTest, OversizedLengthPrefixFailsBeforeBuffering) {
  FrameDecoder decoder;
  const char hostile[] = {'\xFF', '\xFF', '\xFF', '\xFF'};
  EXPECT_FALSE(decoder.Feed(hostile, sizeof(hostile)));
  EXPECT_TRUE(decoder.failed());
  // The hardening contract: the declared 4 GiB never got buffered.
  EXPECT_LE(decoder.buffered_bytes(), kFrameHeaderBytes);
  // A failed decoder stays failed even on benign input.
  const std::string good = EncodeFrame("{}");
  EXPECT_FALSE(decoder.Feed(good.data(), good.size()));
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload));
}

TEST(FrameHardeningTest, BarelyOversizedAndZeroLengthsAreRejected) {
  {
    FrameDecoder decoder(1024);
    const uint32_t declared = 1025;
    const char header[] = {static_cast<char>(declared >> 24),
                           static_cast<char>(declared >> 16),
                           static_cast<char>(declared >> 8),
                           static_cast<char>(declared)};
    EXPECT_FALSE(decoder.Feed(header, sizeof(header)));
  }
  {
    FrameDecoder decoder(1024);
    const char header[] = {0, 0, 0, 0};
    EXPECT_FALSE(decoder.Feed(header, sizeof(header)));
  }
  {
    // Exactly at the cap is fine.
    FrameDecoder decoder(1024);
    const std::string frame = EncodeFrame(std::string(1024, 'x'), 1024);
    ASSERT_FALSE(frame.empty());
    EXPECT_TRUE(decoder.Feed(frame.data(), frame.size()));
    std::string payload;
    EXPECT_TRUE(decoder.Next(&payload));
    EXPECT_EQ(payload.size(), 1024u);
  }
}

TEST(FrameHardeningTest, TruncatedFrameNeverCompletes) {
  FrameDecoder decoder;
  const std::string frame = EncodeFrame(std::string(100, 'x'));
  EXPECT_TRUE(decoder.Feed(frame.data(), frame.size() - 40));
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_FALSE(decoder.failed());  // truncation is pending, not an error
}

TEST(SchemaHardeningTest, SubmitCorpusIsRejectedWithPreciseErrors) {
  // Every entry: a syntactically valid JSON submit that must fail schema
  // validation (ParseSubmit), with a fragment the error must mention.
  const struct {
    const char* json;
    const char* fragment;
  } corpus[] = {
      {R"({"type":"submit"})", "id"},
      {R"({"type":"submit","id":-1,"query":{"object_id":0}})", "id"},
      {R"({"type":"submit","id":1.5,"query":{"object_id":0}})", "id"},
      {R"({"type":"submit","id":1})", "query"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"bogus":1})",
       "bogus"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"k":0})", "k"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"k":1e7})", "k"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"op":"nope"})",
       "op"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"metric":"l3"})",
       "metric"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"filters":"zz"})",
       "filters"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"deadline_ms":0})",
       "deadline_ms"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"deadline_ms":-5})",
       "deadline_ms"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"deadline_ms":"soon"})",
       "deadline_ms"},
      {R"({"type":"submit","id":1,"query":{"object_id":0},"retries":99})",
       "retries"},
      {R"({"type":"submit","id":1,"query":{"object_id":0,"instances":[[0,0,1]]}})",
       "query"},  // both query forms at once
      {R"({"type":"submit","id":1,"query":{"instances":[]}})", "instances"},
      {R"({"type":"submit","id":1,"query":{"instances":[[0,0]]}})",
       "instance"},  // no weight column
      {R"({"type":"submit","id":1,"query":{"instances":[[0,0,1],[0,1]]}})",
       "instance"},  // ragged rows
      {R"({"type":"submit","id":1,"query":{"instances":[[0,0,0]]}})",
       "weight"},  // non-positive weight
      {R"({"type":"submit","id":1,"query":{"instances":[[0,0,-1]]}})",
       "weight"},
  };
  for (const auto& entry : corpus) {
    SCOPED_TRACE(entry.json);
    JsonValue msg;
    std::string error;
    ASSERT_TRUE(ParseJson(entry.json, &msg, &error)) << error;
    SubmitRequest req;
    EXPECT_FALSE(ParseSubmit(msg, &req, &error));
    EXPECT_NE(error.find(entry.fragment), std::string::npos)
        << "error was: " << error;
  }
}

TEST(SchemaHardeningTest, NanDeadlinesAreImpossibleByConstruction) {
  // NaN / Infinity / overflow literals die at the JSON layer, before any
  // schema code sees a deadline.
  const char* corpus[] = {
      R"({"type":"submit","id":1,"query":{"object_id":0},"deadline_ms":NaN})",
      R"({"type":"submit","id":1,"query":{"object_id":0},"deadline_ms":Infinity})",
      R"({"type":"submit","id":1,"query":{"object_id":0},"deadline_ms":1e999})",
      R"({"type":"submit","id":1,"query":{"object_id":0},"deadline_ms":-1e999})",
  };
  for (const char* json : corpus) {
    SCOPED_TRACE(json);
    JsonValue msg;
    EXPECT_FALSE(ParseJson(json, &msg));
  }
}

TEST(SchemaHardeningTest, InstanceCapsAreCheckedBeforeConstruction) {
  // kMaxQueryInstances + 1 rows: rejected by the count bound, not by
  // building a huge object first.
  std::string json = R"({"type":"submit","id":1,"query":{"instances":[)";
  for (int i = 0; i <= kMaxQueryInstances; ++i) {
    if (i > 0) json += ',';
    json += "[0,0,1]";
  }
  json += "]}}";
  JsonValue msg;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &msg, &error)) << error;
  SubmitRequest req;
  EXPECT_FALSE(ParseSubmit(msg, &req, &error));
  EXPECT_NE(error.find("instances"), std::string::npos) << error;
}

TEST(SchemaHardeningTest, HelloCorpusIsRejected) {
  const char* corpus[] = {
      R"({"type":"hello"})",                               // no version
      R"({"type":"hello","version":"1"})",                 // wrong type
      R"({"type":"hello","version":1,"tenant":""})",       // empty tenant
      R"({"type":"hello","version":1,"tenant":"a b"})",    // bad charset
      R"({"type":"hello","version":1,"extra":true})",      // unknown key
  };
  for (const char* json : corpus) {
    SCOPED_TRACE(json);
    JsonValue msg;
    std::string error;
    ASSERT_TRUE(ParseJson(json, &msg, &error)) << error;
    HelloRequest req;
    EXPECT_FALSE(ParseHello(msg, &req, &error));
  }
}

// --- live-server corpus ---------------------------------------------------

class LiveServerHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override { StartServer(ServerOptions{}); }

  /// (Re)starts the engine + server pair; tests that need non-default
  /// buffer/timeout knobs call this again over the SetUp default.
  void StartServer(ServerOptions options) {
    server_.reset();
    engine_.reset();
    engine_ = std::make_unique<QueryEngine>(
        TestDataset(), EngineOptions{.num_threads = 2,
                                     .shed_on_overload = true});
    server_ = std::make_unique<OsdServer>(engine_.get(), std::move(options));
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    server_->Shutdown();
    EXPECT_EQ(server_->inflight(), 0);
  }

  /// A raw connection that bypasses OsdClient's protocol discipline.
  Socket RawConnect() {
    Socket sock;
    std::string error;
    EXPECT_TRUE(ConnectTcp("127.0.0.1", server_->port(), &sock, &error))
        << error;
    return sock;
  }

  /// True iff the peer closed the connection within the read timeout.
  static bool PeerClosed(const Socket& sock) {
    // Drain whatever error/response frames precede the close.
    char buf[4096];
    for (;;) {
      const ssize_t n = RecvSome(sock.fd(), buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<OsdServer> server_;
};

TEST_F(LiveServerHardeningTest, OversizedPrefixKillsOnlyThatConnection) {
  // A well-behaved tenant in flight on another connection...
  OsdClient good;
  std::string error;
  ASSERT_TRUE(good.Connect("127.0.0.1", server_->port(), "good", &error))
      << error;

  // ...while a hostile connection declares a 4 GiB frame.
  Socket bad = RawConnect();
  const char hostile[] = {'\xFF', '\xFF', '\xFF', '\xFF'};
  ASSERT_TRUE(SendAll(bad.fd(), hostile, sizeof(hostile), &error)) << error;
  EXPECT_TRUE(PeerClosed(bad));

  // The good tenant still gets full service.
  SubmitParams params;
  params.id = 1;
  params.object_id = 0;
  ASSERT_TRUE(good.Send(BuildSubmitMessage(params), &error)) << error;
  JsonValue msg;
  std::string type;
  do {
    ASSERT_TRUE(good.Read(&msg, &error)) << error;
    type = MessageType(msg);
  } while (type == "candidate");
  ASSERT_EQ(type, "result");
  EXPECT_EQ(msg.Find("status")->AsString(), "OK");
}

TEST_F(LiveServerHardeningTest, GarbageJsonGetsErrorFrameThenClose) {
  Socket bad = RawConnect();
  std::string error;
  const std::string frame = EncodeFrame("this is not json");
  ASSERT_TRUE(SendAll(bad.fd(), frame.data(), frame.size(), &error)) << error;

  // The server answers with a protocol_error frame, then closes.
  FrameDecoder decoder;
  char buf[4096];
  bool got_error_frame = false;
  for (;;) {
    const ssize_t n = RecvSome(bad.fd(), buf, sizeof(buf));
    if (n <= 0) break;
    ASSERT_TRUE(decoder.Feed(buf, static_cast<size_t>(n)));
    std::string payload;
    while (decoder.Next(&payload)) {
      JsonValue msg;
      ASSERT_TRUE(ParseJson(payload, &msg, &error)) << error;
      EXPECT_EQ(MessageType(msg), "error");
      EXPECT_EQ(msg.Find("code")->AsString(), kErrProtocol);
      got_error_frame = true;
    }
  }
  EXPECT_TRUE(got_error_frame);
}

TEST_F(LiveServerHardeningTest, SchemaViolationIsRequestScopedNotFatal) {
  OsdClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "t", &error))
      << error;

  // Schema-violating submit: precise error frame, connection survives.
  ASSERT_TRUE(client.Send(
      R"({"type":"submit","id":1,"query":{"object_id":0},"k":0})", &error))
      << error;
  JsonValue msg;
  ASSERT_TRUE(client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "error");
  EXPECT_EQ(msg.Find("code")->AsString(), kErrBadRequest);

  // Out-of-range object_id: same contract.
  SubmitParams params;
  params.id = 2;
  params.object_id = 1'000'000;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
  ASSERT_TRUE(client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "error");
  EXPECT_EQ(msg.Find("code")->AsString(), kErrBadRequest);

  // The same connection then completes a valid query.
  params.id = 3;
  params.object_id = 5;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
  std::string type;
  do {
    ASSERT_TRUE(client.Read(&msg, &error)) << error;
    type = MessageType(msg);
  } while (type == "candidate");
  ASSERT_EQ(type, "result");
  EXPECT_EQ(msg.Find("status")->AsString(), "OK");
}

TEST_F(LiveServerHardeningTest, SubmitBeforeHelloIsFatal) {
  Socket bad = RawConnect();
  std::string error;
  SubmitParams params;
  params.object_id = 0;
  const std::string frame = EncodeFrame(BuildSubmitMessage(params));
  ASSERT_TRUE(SendAll(bad.fd(), frame.data(), frame.size(), &error)) << error;
  EXPECT_TRUE(PeerClosed(bad));
}

TEST_F(LiveServerHardeningTest, DuplicateInflightIdIsRejected) {
  std::string error;

  // Pin both engine workers with slow queries on a second connection and
  // wait for a progressive frame from each (proof both are running), so
  // the duplicate pair below sits queued — in flight — no matter how the
  // scheduler interleaves the threads.
  OsdClient blockers;
  ASSERT_TRUE(blockers.Connect("127.0.0.1", server_->port(), "b", &error))
      << error;
  const UncertainObject slow = SlowQuery();
  SubmitParams blocker;
  blocker.query = &slow;
  blocker.op = "fsd";
  blocker.k = 3;
  blocker.id = 1;
  ASSERT_TRUE(blockers.Send(BuildSubmitMessage(blocker), &error)) << error;
  blocker.id = 2;
  ASSERT_TRUE(blockers.Send(BuildSubmitMessage(blocker), &error)) << error;
  bool running[2] = {false, false};
  while (!running[0] || !running[1]) {
    JsonValue msg;
    ASSERT_TRUE(blockers.Read(&msg, &error)) << error;
    const std::string type = MessageType(msg);
    ASSERT_TRUE(type == "candidate" || type == "result") << type;
    const long id = static_cast<long>(msg.Find("id")->AsNumber());
    ASSERT_TRUE(id == 1 || id == 2);
    running[id - 1] = true;
  }

  OsdClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "t", &error))
      << error;
  // Two submits under one id, delivered in ONE write so both frames land
  // in the same read batch: the first registers and queues (the workers
  // are busy), the second is a duplicate in-flight id.
  SubmitParams params;
  params.id = 7;
  params.object_id = 3;
  params.op = "fsd";
  params.k = 2;
  const std::string frame = EncodeFrame(BuildSubmitMessage(params));
  const std::string pair = frame + frame;
  ASSERT_TRUE(SendAll(client.fd(), pair.data(), pair.size(), &error))
      << error;
  bool saw_duplicate_error = false;
  bool saw_result = false;
  int terminals = 0;
  while (terminals < 2) {
    JsonValue msg;
    ASSERT_TRUE(client.Read(&msg, &error)) << error;
    const std::string type = MessageType(msg);
    if (type == "error") {
      EXPECT_EQ(msg.Find("code")->AsString(), kErrBadRequest);
      saw_duplicate_error = true;
      ++terminals;
    } else if (type == "result") {
      EXPECT_EQ(msg.Find("status")->AsString(), "OK");
      saw_result = true;
      ++terminals;
    } else {
      ASSERT_EQ(type, "candidate");
    }
  }
  EXPECT_TRUE(saw_duplicate_error);
  EXPECT_TRUE(saw_result);
}

// --- adversarial-load resilience ------------------------------------------

TEST_F(LiveServerHardeningTest, SlowReaderIsEvictedAtHardBufferCap) {
  ServerOptions options;
  options.max_output_buffer_bytes = 256u << 10;
  StartServer(options);

  OsdClient slow;
  std::string error;
  ASSERT_TRUE(slow.Connect("127.0.0.1", server_->port(), "slow", &error))
      << error;

  // One burst of metrics requests, never reading a byte back. The loop
  // thread answers every frame of a read batch before any flush runs, so
  // the multi-KiB responses pile up app-side and cross the 256 KiB hard
  // cap deterministically — kernel socket buffers cannot hide them.
  const std::string req = EncodeFrame(R"({"type":"metrics"})");
  std::string burst;
  burst.reserve(500 * req.size());
  for (int i = 0; i < 500; ++i) burst += req;
  ASSERT_TRUE(SendAll(slow.fd(), burst.data(), burst.size(), &error)) << error;

  for (int i = 0; i < 500 && server_->evictions() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->evictions(), 1);

  // The evicted peer is closed (clean FIN after the best-effort error
  // frame, or a reset if part of the burst was still unread). Either way
  // the read side terminates instead of buffering forever.
  char buf[4096];
  ssize_t n;
  do {
    n = RecvSome(slow.fd(), buf, sizeof(buf));
  } while (n > 0);
  EXPECT_LE(n, 0);

  // Eviction is connection-scoped: a well-behaved tenant gets full
  // service afterwards.
  OsdClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", server_->port(), "good", &error))
      << error;
  SubmitParams params;
  params.id = 1;
  params.object_id = 0;
  ASSERT_TRUE(good.Send(BuildSubmitMessage(params), &error)) << error;
  JsonValue msg;
  std::string type;
  do {
    ASSERT_TRUE(good.Read(&msg, &error)) << error;
    type = MessageType(msg);
  } while (type == "candidate");
  ASSERT_EQ(type, "result");
  EXPECT_EQ(msg.Find("status")->AsString(), "OK");
}

TEST_F(LiveServerHardeningTest, CandidatesCoalesceAboveHighWatermark) {
  ServerOptions options;
  options.max_output_buffer_bytes = 64u << 20;  // far above the burst
  options.output_high_watermark_bytes = 64u << 10;
  StartServer(options);

  OsdClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "t", &error))
      << error;

  // Megabytes of unread metrics responses hold the output buffer far
  // above the high watermark, then a streaming submit rides the same
  // burst: its progressive candidate events must fold into one bounded
  // summary instead of queueing individually.
  const std::string metrics = EncodeFrame(R"({"type":"metrics"})");
  std::string burst;
  burst.reserve(4000 * metrics.size() + 256);
  for (int i = 0; i < 4000; ++i) burst += metrics;
  SubmitParams params;
  params.id = 7;
  params.object_id = 5;
  params.k = 3;
  burst += EncodeFrame(BuildSubmitMessage(params));
  ASSERT_TRUE(SendAll(client.fd(), burst.data(), burst.size(), &error))
      << error;

  // Let the query finish server-side while the client has not read a
  // byte; the coalesced summary and result frame are then already queued
  // behind the metrics responses. The server reaches the submit only after
  // answering every metrics frame, so the wait splits into the burst (up
  // to the submit) and the query (submit to completion); a timeout names
  // the slow half.
  const auto sent = std::chrono::steady_clock::now();
  auto submitted = sent;
  for (int i = 0; i < 1000 && server_->queries_completed() < 1; ++i) {
    if (server_->queries_submitted() < 1) {
      submitted = std::chrono::steady_clock::now();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double burst_s =
      std::chrono::duration<double>(submitted - sent).count();
  const double query_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - submitted)
                             .count();
  RecordProperty("burst_s", std::to_string(burst_s));
  RecordProperty("query_s", std::to_string(query_s));
  ASSERT_GE(server_->queries_completed(), 1)
      << "burst " << burst_s << " s, query " << query_s << " s";

  long individual = 0;
  long summaries = 0;
  long summarized_events = 0;
  bool got_result = false;
  while (!got_result) {
    JsonValue msg;
    ASSERT_TRUE(client.Read(&msg, &error)) << error;
    const std::string type = MessageType(msg);
    if (type == "candidate") {
      ++individual;
    } else if (type == "candidates_coalesced") {
      ++summaries;
      EXPECT_EQ(static_cast<long>(msg.Find("id")->AsNumber()), 7);
      summarized_events = static_cast<long>(msg.Find("count")->AsNumber());
      EXPECT_FALSE(msg.Find("truncated")->AsBool());
      EXPECT_EQ(static_cast<long>(msg.Find("object_ids")->Items().size()),
                summarized_events);
    } else if (type == "result") {
      EXPECT_EQ(msg.Find("status")->AsString(), "OK");
      got_result = true;
    } else {
      ASSERT_EQ(type, "metrics_ok");
    }
  }
  EXPECT_EQ(individual, 0) << "no candidate may bypass coalescing above "
                              "the high watermark";
  EXPECT_EQ(summaries, 1) << "exactly one summary per query, flushed "
                             "before its result frame";
  EXPECT_GE(summarized_events, 1);
  EXPECT_GE(server_->candidates_coalesced(), summarized_events);
}

TEST_F(LiveServerHardeningTest, IdleConnectionIsEvictedWithTimeoutError) {
  ServerOptions options;
  options.idle_timeout_s = 0.3;
  StartServer(options);

  OsdClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), "t", &error))
      << error;

  // No requests, no in-flight queries, no pending output: the idle scan
  // evicts with a frame-aligned timeout error (unlike mid-stream
  // evictions, delivery here is guaranteed — the buffer was empty).
  JsonValue msg;
  ASSERT_TRUE(client.Read(&msg, &error)) << error;
  EXPECT_EQ(MessageType(msg), "error");
  EXPECT_EQ(msg.Find("code")->AsString(), kErrTimeout);
  EXPECT_NE(msg.Find("message")->AsString().find("idle"), std::string::npos);
  EXPECT_FALSE(client.Read(&msg, &error));
  EXPECT_EQ(server_->evictions(), 1);
}

}  // namespace
}  // namespace net
}  // namespace osd
