// End-to-end tests of the OSD network service over loopback: progressive
// streaming bit-identical to an embedded NncSearch::Run, cancellation,
// tenant isolation under mid-query disconnects and injected read faults,
// per-tenant governance (inflight caps, memory budgets, labeled metrics),
// the durable store's osd_wal_* series, graceful drain with zero leaked
// tickets, and streamed frames that never wait out a delayed ACK.

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/nnc_search.h"
#include "datagen/generators.h"
#include "engine/query_engine.h"
#include "io/durable_store.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

namespace osd {
namespace net {
namespace {

Dataset TestDataset() {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = 400;
  p.instances_per_object = 6;
  p.seed = 99;
  return GenerateSynthetic(p);
}

/// A query heavy enough to pin a worker for a while: the instance-level
/// operators scale linearly in |Q|, so a few hundred instances spread
/// across the domain buys orders of magnitude over the 6-instance
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

/// The embedded-run equivalent of a submit-by-object-id request.
NncOptions OptionsFor(const SubmitParams& params) {
  NncOptions options;
  if (params.op == "ssd") options.op = Operator::kSSd;
  else if (params.op == "sssd") options.op = Operator::kSsSd;
  else if (params.op == "psd") options.op = Operator::kPSd;
  else if (params.op == "fsd") options.op = Operator::kFSd;
  else options.op = Operator::kFPlusSd;
  options.k = params.k;
  options.exclude_id = params.object_id;
  return options;
}

/// Everything one query produced on the wire.
struct StreamedQuery {
  std::vector<int> streamed;          ///< candidate events, in seq order
  std::vector<int> final_candidates;  ///< the terminal frame's array
  std::string status;
  std::string termination;
  bool got_result = false;
};

/// Reads frames for `id` until its terminal frame.
StreamedQuery ReadUntilTerminal(OsdClient& client, long id) {
  StreamedQuery out;
  std::string error;
  for (;;) {
    JsonValue msg;
    EXPECT_TRUE(client.Read(&msg, &error)) << error;
    if (!error.empty()) return out;
    const std::string type = MessageType(msg);
    const JsonValue* msg_id = msg.Find("id");
    if (msg_id == nullptr ||
        static_cast<long>(msg_id->AsNumber()) != id) {
      continue;  // unrelated frame (cancel_ok for another id, ...)
    }
    if (type == "candidate") {
      out.streamed.push_back(
          static_cast<int>(msg.Find("object_id")->AsNumber()));
    } else if (type == "result") {
      out.got_result = true;
      out.status = msg.Find("status")->AsString();
      out.termination = msg.Find("termination")->AsString();
      for (const JsonValue& c : msg.Find("candidates")->Items()) {
        out.final_candidates.push_back(static_cast<int>(c.AsNumber()));
      }
      return out;
    } else if (type == "error") {
      return out;
    }
  }
}

/// Every sample of a Prometheus exposition, keyed by its full series name.
std::map<std::string, double> Samples(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(EngineOptions engine_options, ServerOptions options) {
    engine_options.shed_on_overload = true;
    engine_ = std::make_unique<QueryEngine>(TestDataset(),
                                            engine_options);
    server_ = std::make_unique<OsdServer>(engine_.get(), std::move(options));
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Shutdown();
      // Zero leaked tickets: every submit reached a terminal hook.
      EXPECT_EQ(server_->inflight(), 0);
      EXPECT_EQ(server_->queries_submitted(), server_->queries_completed());
    }
    failpoint::Clear();
  }

  OsdClient Connect(const std::string& tenant) {
    OsdClient client;
    std::string error;
    EXPECT_TRUE(
        client.Connect("127.0.0.1", server_->port(), tenant, &error))
        << error;
    return client;
  }

  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<OsdServer> server_;
};

TEST_F(NetServerTest, StreamedQueryMatchesEmbeddedRunBitIdentically) {
  StartServer({.num_threads = 2}, {});
  OsdClient client = Connect("default");

  const JsonValue* dataset_info = client.hello_ok().Find("dataset");
  ASSERT_NE(dataset_info, nullptr);
  EXPECT_EQ(dataset_info->Find("objects")->AsNumber(), 400.0);
  EXPECT_EQ(dataset_info->Find("dim")->AsNumber(), 2.0);

  const int query_ids[] = {0, 17, 399};
  const char* ops[] = {"psd", "ssd", "fsd"};
  long next_id = 1;
  for (int qi = 0; qi < 3; ++qi) {
    SCOPED_TRACE(query_ids[qi]);
    SubmitParams params;
    params.id = next_id++;
    params.object_id = query_ids[qi];
    params.op = ops[qi];
    params.k = 2;
    std::string error;
    ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
    const StreamedQuery got = ReadUntilTerminal(client, params.id);
    ASSERT_TRUE(got.got_result);
    EXPECT_EQ(got.status, "OK");
    EXPECT_EQ(got.termination, "complete");
    // At least one progressive frame arrived before the terminal frame.
    EXPECT_GE(got.streamed.size(), 1u);

    // Embedded ground truth with the same spec on a cold dataset copy.
    const NncOptions options = OptionsFor(params);
    const Dataset cold = TestDataset();
    const NncResult truth =
        NncSearch(cold, options).Run(cold.object(query_ids[qi]));
    EXPECT_EQ(got.final_candidates, truth.candidates);
    // The pre-cleanup stream matches the embedded emission timeline too.
    std::vector<int> truth_stream;
    for (const NncEmission& e : truth.timeline) {
      truth_stream.push_back(e.object_id);
    }
    EXPECT_EQ(got.streamed, truth_stream);
  }
}

// Every streamed query writes at least two small frames back to back (a
// candidate, then the result). With Nagle on the server's socket the second
// one waits for the client's delayed ACK, ~40 ms on Linux, so every query
// would take at least that long however fast the search is.
TEST_F(NetServerTest, StreamedQueriesDoNotWaitForDelayedAck) {
  StartServer({.num_threads = 2}, {});
  OsdClient client = Connect("default");

  constexpr int kQueries = 21;
  std::vector<double> elapsed_ms;
  for (int i = 0; i < kQueries; ++i) {
    SubmitParams params;
    params.id = i + 1;
    params.object_id = i * 19;
    params.op = "ssd";
    params.k = 1;
    SCOPED_TRACE(params.object_id);
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
    const StreamedQuery got = ReadUntilTerminal(client, params.id);
    elapsed_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    ASSERT_TRUE(got.got_result);
    EXPECT_EQ(got.status, "OK");
    // A second small write always follows the first.
    EXPECT_GE(got.streamed.size(), 1u);
  }
  std::nth_element(elapsed_ms.begin(), elapsed_ms.begin() + kQueries / 2,
                   elapsed_ms.end());
  EXPECT_LT(elapsed_ms[kQueries / 2], 20.0)
      << "median send-to-terminal time sits at the delayed-ACK floor";
}

// A streamed query sent twice on one connection: the second reply comes
// from the result cache (the status frame's profile_cache.hits rises by
// one) and carries the same candidate frames, in the same order, and the
// same terminal candidates as the first.
TEST_F(NetServerTest, StreamedRepeatIsAResultCacheHitWithTheSameFrames) {
  StartServer({.num_threads = 2, .profile_cache_bytes = 8 << 20}, {});
  OsdClient client = Connect("default");
  auto cache_hits = [&client] {
    std::string error;
    EXPECT_TRUE(client.Send("{\"type\":\"status\"}", &error)) << error;
    JsonValue msg;
    EXPECT_TRUE(client.Read(&msg, &error)) << error;
    EXPECT_EQ(MessageType(msg), "status_ok");
    return msg.Find("engine")->Find("profile_cache")->Find("hits")->AsNumber();
  };
  SubmitParams params;
  params.object_id = 17;
  params.op = "ssd";
  params.k = 2;
  std::vector<StreamedQuery> replies;
  std::vector<double> hits = {cache_hits()};
  for (long id : {1, 2}) {
    params.id = id;
    std::string error;
    ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
    replies.push_back(ReadUntilTerminal(client, id));
    hits.push_back(cache_hits());
  }
  for (const StreamedQuery& reply : replies) {
    ASSERT_TRUE(reply.got_result);
    EXPECT_EQ(reply.status, "OK");
    EXPECT_EQ(reply.termination, "complete");
  }
  EXPECT_GE(replies[0].streamed.size(), 1u);
  EXPECT_EQ(replies[1].streamed, replies[0].streamed);
  EXPECT_EQ(replies[1].final_candidates, replies[0].final_candidates);
  EXPECT_EQ(hits[1], hits[0]) << "the first run searches";
  EXPECT_EQ(hits[2], hits[1] + 1) << "the repeat is a hit";
}

TEST_F(NetServerTest, CancelMidQueryDeliversConsistentTerminalFrame) {
  StartServer({.num_threads = 1}, {});
  OsdClient client = Connect("default");

  // Pin the single worker with a slow query so the cancel target sits in
  // the queue when the cancel frame lands: its terminal frame must still
  // arrive.
  const UncertainObject slow = SlowQuery();
  SubmitParams blocker;
  blocker.id = 1;
  blocker.query = &slow;
  blocker.op = "fsd";
  blocker.k = 3;
  SubmitParams target;
  target.id = 2;
  target.object_id = 1;
  std::string error;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(blocker), &error)) << error;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(target), &error)) << error;
  ASSERT_TRUE(client.Send(BuildCancelMessage(target.id), &error)) << error;

  // Terminal frames arrive in either order; collect both in one pass.
  StreamedQuery terminal[2];
  while (!terminal[0].got_result || !terminal[1].got_result) {
    JsonValue msg;
    ASSERT_TRUE(client.Read(&msg, &error)) << error;
    const std::string type = MessageType(msg);
    const JsonValue* id_field = msg.Find("id");
    ASSERT_NE(id_field, nullptr) << type;
    const long id = static_cast<long>(id_field->AsNumber());
    ASSERT_TRUE(id == 1 || id == 2);
    if (type != "result") continue;  // candidate / cancel_ok frames
    StreamedQuery& out = terminal[id - 1];
    out.got_result = true;
    out.status = msg.Find("status")->AsString();
    out.termination = msg.Find("termination")->AsString();
  }

  // The cancel races execution: either it won (CANCELLED) or the query
  // finished first (OK) — but the (status, termination) pair is always
  // consistent.
  const StreamedQuery& cancelled = terminal[target.id - 1];
  if (cancelled.status == "CANCELLED") {
    EXPECT_EQ(cancelled.termination, "cancelled");
  } else {
    EXPECT_EQ(cancelled.status, "OK");
    EXPECT_EQ(cancelled.termination, "complete");
  }
  EXPECT_EQ(terminal[blocker.id - 1].status, "OK");
}

TEST_F(NetServerTest, MidQueryDisconnectLeavesOtherTenantsUnharmed) {
  StartServer({.num_threads = 2}, {});

  // Tenant A submits and vanishes mid-query.
  {
    OsdClient doomed = Connect("tenant-a");
    SubmitParams params;
    params.id = 1;
    params.object_id = 0;
    params.op = "fsd";
    params.k = 3;
    std::string error;
    ASSERT_TRUE(doomed.Send(BuildSubmitMessage(params), &error)) << error;
    doomed.Close();  // mid-query disconnect
  }

  // Tenant B gets full, correct service throughout.
  OsdClient client = Connect("tenant-b");
  SubmitParams params;
  params.id = 1;
  params.object_id = 42;
  std::string error;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
  const StreamedQuery got = ReadUntilTerminal(client, params.id);
  ASSERT_TRUE(got.got_result);
  EXPECT_EQ(got.status, "OK");

  const Dataset cold = TestDataset();
  EXPECT_EQ(got.final_candidates,
            NncSearch(cold, OptionsFor(params)).Run(cold.object(42)).candidates);
  // TearDown then proves the orphaned ticket was not leaked.
}

TEST_F(NetServerTest, InjectedReadFaultIsContainedToOneConnection) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "failpoint sites not compiled in";
  }
  StartServer({.num_threads = 2}, {});
  OsdClient healthy = Connect("tenant-a");

  // Arm one read fault; the next readable connection eats it and dies.
  std::string error;
  ASSERT_TRUE(failpoint::Configure("net.read=1xthrow", &error)) << error;
  OsdClient victim;
  if (victim.Connect("127.0.0.1", server_->port(), "tenant-b", &error)) {
    // The handshake read may or may not have eaten the fault; either way
    // the victim's connection is expendable. Poke it until it dies or
    // the fault has clearly fired elsewhere.
    JsonValue msg;
    victim.Send(BuildCancelMessage(1), &error);
    victim.Read(&msg, &error);
  }
  failpoint::Clear();

  // The healthy tenant's service is unaffected.
  SubmitParams params;
  params.id = 1;
  params.object_id = 7;
  ASSERT_TRUE(healthy.Send(BuildSubmitMessage(params), &error)) << error;
  const StreamedQuery got = ReadUntilTerminal(healthy, params.id);
  ASSERT_TRUE(got.got_result);
  EXPECT_EQ(got.status, "OK");
}

TEST_F(NetServerTest, DisconnectReleasesTenantSlotOnTicketFinishNotClose) {
  // Regression: the tenant's inflight slot must be released exactly once,
  // when the orphaned ticket finishes — not when the connection object is
  // destroyed. Releasing at close would free the slot while the query
  // still runs (cap bypass); releasing at both would drive the counter
  // negative. Asserting the gauge is exactly 0 after completion catches
  // either defect.
  ServerOptions options;
  TenantPolicy capped;
  capped.max_inflight = 1;
  options.tenants["ghost"] = capped;
  StartServer({.num_threads = 1}, std::move(options));

  const long completed_before = server_->queries_completed();
  {
    OsdClient doomed = Connect("ghost");
    const UncertainObject heavy = SlowQuery();
    SubmitParams params;
    params.id = 1;
    params.query = &heavy;
    params.op = "fsd";
    params.k = 3;
    std::string error;
    ASSERT_TRUE(doomed.Send(BuildSubmitMessage(params), &error)) << error;
    // Make sure the query is in flight before vanishing.
    JsonValue msg;
    ASSERT_TRUE(doomed.Read(&msg, &error)) << error;
    doomed.Close();  // mid-stream disconnect
  }

  // The orphaned (now cancelled) ticket still completes through the
  // engine; wait for its terminal hook.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->queries_completed() == completed_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(server_->queries_completed(), completed_before);

  // Slot released exactly once: the gauge reads 0, not 1, not -1.
  const std::string metrics = server_->MetricsText();
  const std::string needle = "osd_tenant_inflight{tenant=\"ghost\"} 0";
  EXPECT_NE(metrics.find(needle), std::string::npos) << metrics;

  // And the freed slot is usable: a new connection under the same tenant
  // completes a query under the cap of 1.
  OsdClient fresh = Connect("ghost");
  SubmitParams params;
  params.id = 1;
  params.object_id = 3;
  std::string error;
  ASSERT_TRUE(fresh.Send(BuildSubmitMessage(params), &error)) << error;
  const StreamedQuery got = ReadUntilTerminal(fresh, params.id);
  ASSERT_TRUE(got.got_result);
  EXPECT_EQ(got.status, "OK");
}

TEST_F(NetServerTest, TenantInflightCapShedsExcessLoad) {
  ServerOptions options;
  TenantPolicy capped;
  capped.max_inflight = 1;
  options.tenants["capped"] = capped;
  StartServer({.num_threads = 1}, std::move(options));
  OsdClient client = Connect("capped");

  // The first query occupies the tenant's single slot for a long time (a
  // heavy inline query), so the second is shed.
  const UncertainObject heavy = SlowQuery();
  SubmitParams slow;
  slow.id = 1;
  slow.query = &heavy;
  slow.op = "fsd";
  slow.k = 3;
  SubmitParams second;
  second.id = 2;
  second.object_id = 1;
  std::string error;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(slow), &error)) << error;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(second), &error)) << error;

  bool shed = false;
  bool completed = false;
  int terminals = 0;
  while (terminals < 2) {
    JsonValue msg;
    ASSERT_TRUE(client.Read(&msg, &error)) << error;
    const std::string type = MessageType(msg);
    if (type == "error") {
      EXPECT_EQ(msg.Find("code")->AsString(), kErrOverInflightLimit);
      EXPECT_EQ(static_cast<long>(msg.Find("id")->AsNumber()), 2);
      shed = true;
      ++terminals;
    } else if (type == "result") {
      EXPECT_EQ(static_cast<long>(msg.Find("id")->AsNumber()), 1);
      completed = true;
      ++terminals;
    } else {
      ASSERT_EQ(type, "candidate");
    }
  }
  EXPECT_TRUE(shed);
  EXPECT_TRUE(completed);

  // With the slot free again, the tenant is served normally.
  SubmitParams third = second;
  third.id = 3;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(third), &error)) << error;
  const StreamedQuery got = ReadUntilTerminal(client, third.id);
  ASSERT_TRUE(got.got_result);
  EXPECT_EQ(got.status, "OK");
}

TEST_F(NetServerTest, TenantMemoryBudgetGovernsQueries) {
  ServerOptions options;
  TenantPolicy tiny;
  tiny.per_query_mem_bytes = 512;  // no real query fits in this
  options.tenants["tiny"] = tiny;
  StartServer({.num_threads = 1}, std::move(options));

  OsdClient client = Connect("tiny");
  SubmitParams params;
  params.id = 1;
  params.object_id = 0;
  std::string error;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
  JsonValue msg;
  std::string type;
  do {
    ASSERT_TRUE(client.Read(&msg, &error)) << error;
    type = MessageType(msg);
  } while (type == "candidate");
  ASSERT_EQ(type, "result");
  EXPECT_EQ(msg.Find("status")->AsString(), "ERROR");
  const JsonValue* err = msg.Find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->AsString().find("memory"), std::string::npos)
      << err->AsString();

  // An uncapped tenant on the same engine runs the same query fine.
  OsdClient rich = Connect("rich");
  ASSERT_TRUE(rich.Send(BuildSubmitMessage(params), &error)) << error;
  const StreamedQuery got = ReadUntilTerminal(rich, params.id);
  ASSERT_TRUE(got.got_result);
  EXPECT_EQ(got.status, "OK");
}

TEST_F(NetServerTest, MetricsCarryTenantLabels) {
  ServerOptions options;
  options.tenants["beta"].allow_writes = false;
  StartServer({.num_threads = 1}, options);
  OsdClient alpha = Connect("alpha");
  OsdClient beta = Connect("beta");
  long frames_sent = 2;  // the two hellos
  std::string error;
  JsonValue msg;

  // A streamed query on alpha, a final-answer query on beta...
  SubmitParams params;
  params.id = 1;
  params.object_id = 3;
  ASSERT_TRUE(alpha.Send(BuildSubmitMessage(params), &error)) << error;
  const StreamedQuery streamed = ReadUntilTerminal(alpha, params.id);
  ASSERT_TRUE(streamed.got_result);
  params.stream = false;
  ASSERT_TRUE(beta.Send(BuildSubmitMessage(params), &error)) << error;
  const StreamedQuery final_only = ReadUntilTerminal(beta, params.id);
  ASSERT_TRUE(final_only.got_result);
  frames_sent += 2;

  // ...an acked mutate on alpha, a write-denied one on beta...
  const std::vector<MutateOp> ops = {{"insert", 9001, {{9000.0, 9000.0, 1.0}}}};
  ASSERT_TRUE(alpha.Send(BuildMutateMessage(2, ops), &error)) << error;
  ASSERT_TRUE(alpha.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "mutate_ok");
  ASSERT_TRUE(beta.Send(BuildMutateMessage(2, ops), &error)) << error;
  ASSERT_TRUE(beta.Read(&msg, &error)) << error;
  EXPECT_EQ(msg.Find("code")->AsString(), kErrWriteDenied);
  frames_sent += 2;

  // ...an unknown message type, and a third connection that goes away.
  ASSERT_TRUE(beta.Send("{\"type\":\"bogus\"}", &error)) << error;
  ASSERT_TRUE(beta.Read(&msg, &error)) << error;
  EXPECT_EQ(msg.Find("code")->AsString(), kErrBadRequest);
  frames_sent += 1;
  { OsdClient gone = Connect("alpha"); }
  frames_sent += 1;

  // Over the wire...
  ASSERT_TRUE(alpha.Send("{\"type\":\"metrics\"}", &error)) << error;
  ASSERT_TRUE(alpha.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "metrics_ok");
  frames_sent += 1;
  const std::string text = msg.Find("text")->AsString();
  EXPECT_NE(text.find("osd_tenant_queries_total{tenant=\"alpha\"}"),
            std::string::npos);
  EXPECT_NE(text.find("osd_net_connections_accepted_total"),
            std::string::npos);

  // ...and in-process, the engine's and the server's series share one
  // exposition. Wait until the loop has retired the closed connection and
  // every query's terminal hook has finished.
  std::map<std::string, double> samples;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    samples = Samples(server_->MetricsText());
  } while ((samples["osd_net_disconnects_total"] < 1 ||
            server_->inflight() != 0) &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_NE(samples.count("osd_queries_total{status=\"ok\"}"), 0u);
  EXPECT_EQ(samples["osd_net_connections_accepted_total"], 3);
  EXPECT_EQ(samples["osd_net_connections_accepted_total"],
            server_->connections_accepted());
  EXPECT_EQ(samples["osd_net_connections_active"], 2);
  EXPECT_EQ(samples["osd_net_disconnects_total"], 1);
  EXPECT_EQ(samples["osd_net_frames_read_total"], frames_sent);
  EXPECT_EQ(samples["osd_net_protocol_errors_total"], 1);
  EXPECT_EQ(samples["osd_net_mutations_total"], server_->mutations_applied());
  EXPECT_EQ(samples["osd_net_mutations_total"], 1);
  EXPECT_EQ(samples["osd_net_mutations_rejected_total"], 1);
  EXPECT_EQ(samples["osd_net_draining"], 0);

  double queries = 0;
  double candidates_streamed = 0;
  int tenants = 0;
  for (const auto& [name, value] : samples) {
    if (name.rfind("osd_tenant_queries_total{", 0) == 0) queries += value;
    if (name.rfind("osd_tenant_candidates_streamed_total{", 0) == 0) {
      candidates_streamed += value;
    }
    if (name.rfind("osd_tenant_inflight{", 0) == 0) {
      ++tenants;
      EXPECT_EQ(value, 0) << name;
    }
  }
  EXPECT_EQ(tenants, 2);
  EXPECT_EQ(queries, server_->queries_submitted());
  EXPECT_EQ(queries, 2);
  EXPECT_EQ(candidates_streamed,
            static_cast<double>(streamed.streamed.size() +
                                final_only.streamed.size()));
  EXPECT_EQ(samples["osd_tenant_candidates_streamed_total{tenant=\"beta\"}"],
            0);
}

TEST_F(NetServerTest, DurableStoreExportsWalSeriesTyped) {
  std::string dir = ::testing::TempDir() + "net_server_walXXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  // Attached the way osd_server attaches its store: open, attach, then a
  // startup checkpoint of the seed.
  engine_ = std::make_unique<QueryEngine>(TestDataset(),
                                          EngineOptions{.num_threads = 1});
  io::DurableStore store;
  std::string error;
  ASSERT_TRUE(store.Open(dir, 0, &error)) << error;
  engine_->versioned().AttachDurability(&store, 0);
  store.Checkpoint(engine_->versioned().Acquire(), 0);
  ServerOptions options;
  options.durable = &store;
  server_ = std::make_unique<OsdServer>(engine_.get(), options);
  ASSERT_TRUE(server_->Start(&error)) << error;

  OsdClient client = Connect("default");
  std::vector<MutateOp> ops(1);
  ops[0] = {"insert", 9001, {{9000.0, 9000.0, 1.0}}};
  ASSERT_TRUE(client.Send(BuildMutateMessage(1, ops), &error)) << error;
  JsonValue msg;
  ASSERT_TRUE(client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "mutate_ok");

  const std::string text = server_->MetricsText();
  EXPECT_NE(text.find("# TYPE osd_wal_appends_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE osd_wal_read_only gauge\n"), std::string::npos);
  EXPECT_NE(text.find("\nosd_wal_appends_total 1\n"), std::string::npos);

  server_->Shutdown();
  engine_->versioned().DetachDurability();
  std::filesystem::remove_all(dir);
}

TEST_F(NetServerTest, StatusReportsEngineAndServerState) {
  StartServer({.num_threads = 1}, {});
  OsdClient client = Connect("default");
  std::string error;
  ASSERT_TRUE(client.Send("{\"type\":\"status\"}", &error)) << error;
  JsonValue msg;
  ASSERT_TRUE(client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "status_ok");
  EXPECT_EQ(msg.Find("draining")->AsBool(), false);
  EXPECT_NE(msg.Find("engine"), nullptr);
}

TEST_F(NetServerTest, DrainFinishesInflightQueriesThenExits) {
  StartServer({.num_threads = 1}, {});
  OsdClient client = Connect("default");

  // Queue up several queries, then request drain while they are in
  // flight: every terminal frame must still arrive.
  std::string error;
  constexpr int kQueries = 4;
  for (int i = 0; i < kQueries; ++i) {
    SubmitParams params;
    params.id = i + 1;
    params.object_id = i;
    params.op = "fsd";
    params.k = 2;
    ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
  }
  // Send() returning only proves the bytes left this process; wait until
  // the server has accepted all four submits, or a loaded machine lets
  // the drain win the race and refuse them with `draining` errors.
  while (server_->queries_submitted() < kQueries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->RequestDrain();

  int results = 0;
  for (int i = 0; i < kQueries; ++i) {
    const StreamedQuery got = ReadUntilTerminal(client, i + 1);
    if (got.got_result) ++results;
  }
  EXPECT_EQ(results, kQueries);

  // A submit after the drain began is refused...
  SubmitParams late;
  late.id = 100;
  late.object_id = 0;
  if (client.Send(BuildSubmitMessage(late), &error)) {
    JsonValue msg;
    if (client.Read(&msg, &error)) {
      EXPECT_EQ(MessageType(msg), "error");
      ASSERT_NE(msg.Find("code"), nullptr);
      EXPECT_EQ(msg.Find("code")->AsString(), kErrDraining);
    }
  }
  // ...and the loop exits with nothing in flight.
  server_->Wait();
  EXPECT_EQ(server_->inflight(), 0);
  EXPECT_TRUE(server_->draining());
  // New connections are refused after drain.
  OsdClient refused;
  EXPECT_FALSE(
      refused.Connect("127.0.0.1", server_->port(), "default", &error));
}

TEST_F(NetServerTest, MutateAdvancesTheEpochVisibleInResults) {
  StartServer({.num_threads = 1}, {});
  OsdClient client = Connect("default");
  std::string error;

  // Far-away insert: changes the epoch, not this query's answer.
  std::vector<MutateOp> ops(1);
  ops[0] = {"insert", 9001, {{9000.0, 9000.0, 1.0}}};
  ASSERT_TRUE(client.Send(BuildMutateMessage(5, ops), &error)) << error;
  JsonValue msg;
  ASSERT_TRUE(client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "mutate_ok") << BuildMutateMessage(5, ops);
  EXPECT_EQ(msg.Find("id")->AsNumber(), 5.0);
  EXPECT_EQ(msg.Find("epoch")->AsNumber(), 1.0);
  EXPECT_EQ(msg.Find("applied")->AsNumber(), 1.0);

  SubmitParams params;
  params.id = 6;
  params.object_id = 0;
  params.op = "ssd";
  params.stream = false;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
  for (;;) {
    ASSERT_TRUE(client.Read(&msg, &error)) << error;
    if (MessageType(msg) == "result") break;
  }
  EXPECT_EQ(msg.Find("status")->AsString(), "OK");
  ASSERT_NE(msg.Find("epoch"), nullptr) << "results must carry their epoch";
  EXPECT_EQ(msg.Find("epoch")->AsNumber(), 1.0);

  // A rejected batch (delete of an id that was never inserted) returns
  // bad_mutation and leaves the epoch alone.
  ops[0] = {"delete", 424242, {}};
  ASSERT_TRUE(client.Send(BuildMutateMessage(7, ops), &error)) << error;
  ASSERT_TRUE(client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "error");
  EXPECT_EQ(msg.Find("code")->AsString(), kErrBadMutation);
  EXPECT_EQ(engine_->versioned().epoch(), 1u);

  // Submitting by the id of a tombstoned object is a precise refusal.
  ops[0] = {"delete", 0, {}};
  ASSERT_TRUE(client.Send(BuildMutateMessage(8, ops), &error)) << error;
  ASSERT_TRUE(client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "mutate_ok");
  params.id = 9;
  params.object_id = 0;
  ASSERT_TRUE(client.Send(BuildSubmitMessage(params), &error)) << error;
  ASSERT_TRUE(client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "error");
  EXPECT_EQ(msg.Find("code")->AsString(), kErrBadRequest);
}

TEST_F(NetServerTest, WriteGovernanceGatesTenants) {
  ServerOptions options;
  options.default_policy.allow_writes = false;
  TenantPolicy writer;
  writer.max_mutation_ops = 2;
  options.tenants["writer"] = writer;
  StartServer({.num_threads = 1}, std::move(options));
  std::string error;
  JsonValue msg;

  // The default policy forbids writes outright.
  OsdClient readonly = Connect("readonly");
  std::vector<MutateOp> ops(1);
  ops[0] = {"insert", 9001, {{9000.0, 9000.0, 1.0}}};
  ASSERT_TRUE(readonly.Send(BuildMutateMessage(1, ops), &error)) << error;
  ASSERT_TRUE(readonly.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "error");
  EXPECT_EQ(msg.Find("code")->AsString(), kErrWriteDenied);
  EXPECT_EQ(engine_->versioned().epoch(), 0u);

  // The writer tenant may write, but only within its batch cap.
  OsdClient writer_client = Connect("writer");
  std::vector<MutateOp> three(3);
  three[0] = {"insert", 9001, {{9000.0, 9000.0, 1.0}}};
  three[1] = {"insert", 9002, {{9001.0, 9001.0, 1.0}}};
  three[2] = {"insert", 9003, {{9002.0, 9002.0, 1.0}}};
  ASSERT_TRUE(writer_client.Send(BuildMutateMessage(2, three), &error))
      << error;
  ASSERT_TRUE(writer_client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "error");
  EXPECT_EQ(msg.Find("code")->AsString(), kErrBadRequest);
  EXPECT_NE(msg.Find("message")->AsString().find("cap"), std::string::npos);

  three.resize(2);
  ASSERT_TRUE(writer_client.Send(BuildMutateMessage(3, three), &error))
      << error;
  ASSERT_TRUE(writer_client.Read(&msg, &error)) << error;
  ASSERT_EQ(MessageType(msg), "mutate_ok");
  EXPECT_EQ(msg.Find("applied")->AsNumber(), 2.0);
  EXPECT_EQ(engine_->versioned().epoch(), 1u);
}

}  // namespace
}  // namespace net
}  // namespace osd
