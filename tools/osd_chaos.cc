// osd_chaos: adversarial soak of the service tier.
//
// Runs repeated epochs of a live in-process osd server under hostile load:
// verifying clients that check every answer against precomputed exact
// results, slow clients that burst requests and never read, clients that
// abort mid-stream, a mutator that streams insert/update/delete batches
// through the wire (with the background fold thread merging them), random
// failpoint storms across every compiled-in site, and SIGTERM/drain cycles
// raised mid-traffic. After every epoch the harness asserts the resilience
// invariants:
//
//   * server inflight count is zero and submitted == completed
//     (zero leaked tickets),
//   * the engine-wide memory budget has drained to zero charged bytes
//     (after a final fold retires the mutation delta),
//   * no snapshot pin outlives the drain (live_snapshots == 0),
//   * every osd_tenant_inflight gauge in the Prometheus export reads 0
//     (no leaked tenant slots, no double releases),
//   * zero verification mismatches: an OK result equals the exact answer;
//     a degraded result is a certified superset of it. The mutator only
//     touches fresh external ids (>= 1000) placed ~1e6 away from the seed
//     data, so the precomputed exact answers stay exact at every store
//     epoch — mutation visibility must never bleed into them,
//   * writes are governed: non-mutator tenants get write_denied; the
//     mutator's own well-formed batches are never refused as bad_mutation,
//   * the server drained cleanly (SIGTERM epochs exercise the
//     async-signal-safe RequestDrain path).
//
// Any violation fails the run (exit 1). The storm RNG and every persona
// RNG derive from --seed, so a failing run replays identically.
//
// Usage: osd_chaos [--seconds N] [--quick] [--seed S] [--threads T]
//   --quick   ~3 second smoke (for scripts/server_smoke.sh)
//   default   30 second soak; CI nightly runs --seconds 180 under ASan
//
// Crash persona (exclusive mode, replaces the soak):
//
//   osd_chaos --crash-cycles N --wal-dir DIR [--seed S]
//
// runs N SIGKILL/restart cycles against a forked child server with the
// durability tier on DIR. Each cycle the parent streams acked mutate
// batches (reply read, seq checked dense), then fires two more batches
// without reading the replies and SIGKILLs the child mid-write. After
// every kill the parent recovers DIR offline and asserts the durability
// contract: every acked batch survived verbatim (ids, instance rows,
// normalized probabilities), unacked batches either applied wholly or
// not at all (never half), and the recovered sequence is exactly a
// prefix-extension of the acked history. The final cycle drains via
// SIGTERM instead and must leave a cleanly sealed log. Any violation
// exits 1. The child folds aggressively (50 ms interval, tiny delta
// threshold) so kills land during checkpoint writes and WAL rotations
// too, not just appends.

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "datagen/generators.h"
#include "engine/query_engine.h"
#include "io/durable_store.h"
#include "net/client.h"
#include "net/json.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/wire.h"

namespace {

using osd::Dataset;
using osd::EngineOptions;
using osd::Operator;
using osd::QueryEngine;
using osd::QuerySpec;
using osd::SyntheticParams;
using osd::net::BuildMutateMessage;
using osd::net::BuildSubmitMessage;
using osd::net::EncodeFrame;
using osd::net::MutateOp;
using osd::net::JsonValue;
using osd::net::MessageType;
using osd::net::OsdClient;
using osd::net::OsdServer;
using osd::net::SendAll;
using osd::net::ServerOptions;
using osd::net::SubmitParams;
using osd::net::TenantPolicy;

// --- SIGTERM plumbing -------------------------------------------------------

std::atomic<OsdServer*> g_server{nullptr};

extern "C" void OnSigterm(int) {
  OsdServer* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();  // async-signal-safe
}

// --- verification table -----------------------------------------------------

struct Combo {
  const char* op_name;
  Operator op;
  int object;
  int k;
  std::vector<int> exact;  ///< sorted exact candidate set (no failpoints)
};

Dataset MakeDataset() {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = 300;
  p.instances_per_object = 5;
  p.seed = 42;
  return osd::GenerateSynthetic(p);
}

/// Computes the exact answer for every combo on a clean engine (failpoints
/// off, no deadlines). These are the ground truth the verifier personas
/// hold every live answer against.
std::vector<Combo> PrecomputeExact() {
  std::vector<Combo> combos;
  const struct {
    const char* name;
    Operator op;
  } ops[] = {{"psd", Operator::kPSd},
             {"fsd", Operator::kFSd},
             {"ssd", Operator::kSSd}};
  for (const auto& op : ops) {
    for (int object : {0, 5, 17, 33, 101}) {
      for (int k : {1, 3}) {
        combos.push_back(Combo{op.name, op.op, object, k, {}});
      }
    }
  }
  QueryEngine engine(MakeDataset(), EngineOptions{.num_threads = 2});
  for (Combo& combo : combos) {
    QuerySpec spec;
    spec.query = engine.dataset().object(combo.object);
    spec.options.op = combo.op;
    spec.options.k = combo.k;
    spec.options.exclude_id = combo.object;
    auto ticket = engine.Submit(std::move(spec));
    ticket->Wait();
    if (ticket->status() != osd::QueryStatus::kOk) {
      std::fprintf(stderr, "FAIL: exact precompute %s obj=%d k=%d -> %s\n",
                   combo.op_name, combo.object, combo.k,
                   osd::QueryStatusName(ticket->status()));
      std::exit(1);
    }
    combo.exact = ticket->result().candidates;
    std::sort(combo.exact.begin(), combo.exact.end());
  }
  return combos;
}

// --- shared epoch state -----------------------------------------------------

struct Tally {
  std::atomic<long> ok{0};
  std::atomic<long> degraded{0};
  std::atomic<long> other_terminal{0};  ///< deadline/cancel/error
  std::atomic<long> shed{0};            ///< over_inflight / rejected / draining
  std::atomic<long> read_failures{0};   ///< disconnects, timeouts, evictions
  std::atomic<long> mismatches{0};      ///< verification violations
  std::atomic<long> mutated{0};         ///< ops confirmed by mutate_ok
  std::atomic<long> write_denials{0};   ///< write_denied seen by non-writers
};

void SetRecvTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Reads frames until the terminal frame (result, or an error carrying our
/// id or none). Returns false on any transport failure.
bool ReadTerminal(OsdClient& client, long id, JsonValue* out) {
  std::string error;
  for (;;) {
    if (!client.Read(out, &error)) return false;
    const std::string type = MessageType(out == nullptr ? JsonValue() : *out);
    if (type == "result") {
      const JsonValue* mid = out->Find("id");
      if (mid != nullptr && static_cast<long>(mid->AsNumber()) == id) {
        return true;
      }
    } else if (type == "error") {
      const JsonValue* mid = out->Find("id");
      if (mid == nullptr || static_cast<long>(mid->AsNumber()) == id) {
        return true;
      }
    }
    // candidate / candidates_coalesced / metrics_ok / stale frames: skip.
  }
}

/// Persona 1: well-behaved clients that verify every answer.
void VerifierLoop(int port, const std::vector<Combo>& combos,
                  unsigned long long seed, const std::atomic<bool>& stop,
                  Tally* tally) {
  std::mt19937_64 rng(seed);
  while (!stop.load(std::memory_order_acquire)) {
    OsdClient client;
    std::string error;
    if (!client.Connect("127.0.0.1", port, "verify", &error)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    SetRecvTimeout(client.fd(), 5000);
    long next_id = 1;
    while (!stop.load(std::memory_order_acquire)) {
      const Combo& combo = combos[rng() % combos.size()];
      SubmitParams params;
      params.id = next_id++;
      params.object_id = combo.object;
      params.op = combo.op_name;
      params.k = combo.k;
      switch (rng() % 4) {
        case 0: break;  // no deadline: runs to its exact answer
        case 1: params.deadline_ms = 30.0; break;
        default:
          params.deadline_ms = 2.0;
          params.accept_degraded = true;
          break;
      }
      if (!client.Send(BuildSubmitMessage(params), &error)) break;
      JsonValue msg;
      if (!ReadTerminal(client, params.id, &msg)) {
        tally->read_failures.fetch_add(1);
        break;
      }
      if (MessageType(msg) == "error") {
        tally->shed.fetch_add(1);
        continue;
      }
      const std::string status = msg.Find("status")->AsString();
      const bool degraded = msg.Find("degraded")->AsBool();
      std::vector<int> got;
      for (const JsonValue& v : msg.Find("candidates")->Items()) {
        got.push_back(static_cast<int>(v.AsNumber()));
      }
      std::sort(got.begin(), got.end());
      if (status == "OK") {
        tally->ok.fetch_add(1);
        if (got != combo.exact) {
          tally->mismatches.fetch_add(1);
          std::fprintf(stderr,
                       "VIOLATION: OK result differs from exact (%s obj=%d "
                       "k=%d: got %zu, want %zu)\n",
                       combo.op_name, combo.object, combo.k, got.size(),
                       combo.exact.size());
        }
      } else if (degraded) {
        // Certified superset contract: every exact answer is in the
        // degraded set, whatever terminated the query early.
        tally->degraded.fetch_add(1);
        if (!std::includes(got.begin(), got.end(), combo.exact.begin(),
                           combo.exact.end())) {
          tally->mismatches.fetch_add(1);
          std::fprintf(stderr,
                       "VIOLATION: degraded result is not a superset of the "
                       "exact answer (%s obj=%d k=%d, status=%s)\n",
                       combo.op_name, combo.object, combo.k, status.c_str());
        }
      } else {
        tally->other_terminal.fetch_add(1);
      }
    }
    client.Close();
  }
}

/// Persona 2: a slow consumer — bursts of unread requests that push the
/// connection through the watermark/coalescing/eviction machinery, then
/// either an abrupt close or a late drain.
void SlowReaderLoop(int port, unsigned long long seed,
                    const std::atomic<bool>& stop, Tally* tally) {
  std::mt19937_64 rng(seed);
  const std::string metrics = EncodeFrame(R"({"type":"metrics"})");
  while (!stop.load(std::memory_order_acquire)) {
    OsdClient client;
    std::string error;
    if (!client.Connect("127.0.0.1", port, "capped", &error)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    SetRecvTimeout(client.fd(), 2000);
    std::string burst;
    const int n = 50 + static_cast<int>(rng() % 200);
    burst.reserve(n * metrics.size() + 128);
    for (int i = 0; i < n; ++i) burst += metrics;
    SubmitParams params;
    params.id = 1;
    params.object_id = static_cast<int>(rng() % 300);
    params.k = 2;
    burst += EncodeFrame(BuildSubmitMessage(params));
    if (SendAll(client.fd(), burst.data(), burst.size(), &error)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(50 + rng() % 200));
      if (rng() % 2 == 0) {
        // Drain late: tolerate eviction, drain errors, disconnects.
        JsonValue msg;
        if (!ReadTerminal(client, params.id, &msg)) {
          tally->read_failures.fetch_add(1);
        }
      }
    }
    client.Close();  // otherwise: abrupt close with frames still queued
  }
}

/// Persona 3: aborts connections with queries still in flight, exercising
/// disconnect-cancels-tickets and tenant slot release.
void AborterLoop(int port, unsigned long long seed,
                 const std::atomic<bool>& stop, Tally* /*tally*/) {
  std::mt19937_64 rng(seed);
  while (!stop.load(std::memory_order_acquire)) {
    OsdClient client;
    std::string error;
    if (!client.Connect("127.0.0.1", port, "abort", &error)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const int submits = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < submits; ++i) {
      SubmitParams params;
      params.id = i + 1;
      params.object_id = static_cast<int>(rng() % 300);
      params.op = (rng() % 2 == 0) ? "psd" : "fsd";
      params.k = 1 + static_cast<int>(rng() % 3);
      if (!client.Send(BuildSubmitMessage(params), &error)) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(rng() % 20));
    client.Close();
  }
}

/// Reads frames until a mutate_ok or error frame. Returns false on any
/// transport failure.
bool ReadMutateTerminal(OsdClient& client, JsonValue* out) {
  std::string error;
  for (;;) {
    if (!client.Read(out, &error)) return false;
    const std::string type = MessageType(*out);
    if (type == "mutate_ok" || type == "error") return true;
  }
}

/// The error "code" member of a frame ("" when absent).
std::string ErrorCode(const JsonValue& msg) {
  const JsonValue* code = msg.Find("code");
  return code != nullptr && code->is_string() ? code->AsString() : "";
}

/// Persona 5: a writer streaming insert/update/delete batches. It only
/// ever touches fresh external ids >= 1000 placed ~1e6 away from the seed
/// data, so every precomputed exact answer stays exact no matter which
/// epoch a verifier's query pins. Targets of updates/deletes come only
/// from ids confirmed live by a previous mutate_ok; after any transport
/// failure the confirmed set is discarded (the fate of the in-flight batch
/// is unknown) and the persona continues with fresh inserts. A well-formed
/// batch refused as bad_mutation is a violation; draining/shed errors are
/// tolerated.
void MutatorLoop(int port, unsigned long long seed,
                 const std::atomic<bool>& stop, Tally* tally) {
  std::mt19937_64 rng(seed);
  int next_id = 1000;
  auto far_rows = [&rng]() {
    std::vector<std::vector<double>> rows;
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      const double x = 1e6 + static_cast<double>(rng() % 10'000) / 100.0;
      const double y = 1e6 + static_cast<double>(rng() % 10'000) / 100.0;
      rows.push_back({x, y, 1.0 + static_cast<double>(rng() % 3)});
    }
    return rows;
  };
  while (!stop.load(std::memory_order_acquire)) {
    OsdClient client;
    std::string error;
    if (!client.Connect("127.0.0.1", port, "mutator", &error)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    SetRecvTimeout(client.fd(), 5000);
    std::vector<int> live;  // ids confirmed live by mutate_ok
    long frame_id = 1;
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<MutateOp> ops;
      std::vector<int> live_after = live;
      const int n = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < n; ++i) {
        MutateOp op;
        const int choice = static_cast<int>(rng() % 3);
        if (choice == 0 || live_after.empty()) {
          op.action = "insert";
          op.object_id = next_id++;
          op.instances = far_rows();
          live_after.push_back(op.object_id);
        } else if (choice == 1) {
          op.action = "update";
          op.object_id = live_after[rng() % live_after.size()];
          op.instances = far_rows();
        } else {
          const size_t idx = rng() % live_after.size();
          op.action = "delete";
          op.object_id = live_after[idx];
          live_after.erase(live_after.begin() + idx);
        }
        ops.push_back(std::move(op));
      }
      if (!client.Send(BuildMutateMessage(frame_id++, ops), &error)) break;
      JsonValue msg;
      if (!ReadMutateTerminal(client, &msg)) {
        tally->read_failures.fetch_add(1);
        live.clear();  // the in-flight batch's fate is unknown
        break;
      }
      if (MessageType(msg) == "mutate_ok") {
        tally->mutated.fetch_add(static_cast<long>(ops.size()));
        live = std::move(live_after);
        continue;
      }
      const std::string code = ErrorCode(msg);
      const JsonValue* detail = msg.Find("message");
      const std::string text =
          detail != nullptr && detail->is_string() ? detail->AsString() : "";
      const bool budget_refusal = text.find("memory budget") !=
                                  std::string::npos;  // recoverable, not a bug
      if (code == "write_denied" ||
          (code == "bad_mutation" && !budget_refusal)) {
        // All ops were well-formed against the confirmed live set and the
        // mutator tenant is allowed to write: the store broke its contract.
        tally->mismatches.fetch_add(1);
        std::fprintf(stderr,
                     "VIOLATION: valid mutate batch refused (%s: %s)\n",
                     code.c_str(), text.c_str());
      }
      // draining / budget refusal: tolerated, keep going until stop.
    }
    client.Close();
  }
}

/// Persona 6: a would-be writer on a read-only tenant. Every mutate must
/// come back write_denied — anything else (an applied write, a different
/// refusal) is a governance violation.
void DeniedWriterLoop(int port, unsigned long long seed,
                      const std::atomic<bool>& stop, Tally* tally) {
  std::mt19937_64 rng(seed);
  while (!stop.load(std::memory_order_acquire)) {
    OsdClient client;
    std::string error;
    if (!client.Connect("127.0.0.1", port, "readonly", &error)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    SetRecvTimeout(client.fd(), 5000);
    MutateOp op;
    op.action = "insert";
    op.object_id = 5'000'000 + static_cast<int>(rng() % 1000);
    op.instances = {{2e6, 2e6, 1.0}};
    if (client.Send(BuildMutateMessage(1, {op}), &error)) {
      JsonValue msg;
      if (ReadMutateTerminal(client, &msg)) {
        const std::string code = ErrorCode(msg);
        if (MessageType(msg) == "mutate_ok") {
          tally->mismatches.fetch_add(1);
          std::fprintf(stderr,
                       "VIOLATION: read-only tenant's mutate was applied\n");
        } else if (code == "write_denied") {
          tally->write_denials.fetch_add(1);
        }
        // draining: tolerated.
      } else {
        tally->read_failures.fetch_add(1);
      }
    }
    client.Close();
    std::this_thread::sleep_for(std::chrono::milliseconds(20 + rng() % 60));
  }
}

/// Persona 4: random failpoint storms — every ~250 ms a fresh spec arms a
/// handful of random sites with probabilistic faults, then clears.
void StormLoop(unsigned long long seed, const std::atomic<bool>& stop) {
  if (!osd::failpoint::Enabled()) return;
  std::mt19937_64 rng(seed);
  osd::failpoint::SeedRng(seed);
  const std::vector<std::string> sites = osd::failpoint::KnownSiteNames();
  const char* actions[] = {"error", "throw", "delay(2)", "delay(5)"};
  while (!stop.load(std::memory_order_acquire)) {
    std::vector<size_t> picks(sites.size());
    for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
    std::shuffle(picks.begin(), picks.end(), rng);
    const size_t count = 3 + rng() % 4;
    std::string spec;
    for (size_t i = 0; i < count && i < picks.size(); ++i) {
      if (!spec.empty()) spec += ',';
      spec += sites[picks[i]];
      spec += '=';
      spec += actions[rng() % 4];
      spec += "@p=0.05";
    }
    std::string error;
    if (!osd::failpoint::Configure(spec, &error)) {
      std::fprintf(stderr, "FAIL: storm spec rejected: %s\n", error.c_str());
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    osd::failpoint::Clear();
  }
  osd::failpoint::Clear();
}

// --- crash persona ----------------------------------------------------------

namespace crash {

using osd::UncertainObject;
using osd::io::DurableStore;

/// Child half of one kill cycle: recover DIR, serve with the durability
/// tier attached, report the bound port over `pipe_fd`, run until drained
/// (SIGTERM), then seal. Never returns to the fork call site.
[[noreturn]] void ChildServe(const std::string& wal_dir, int pipe_fd) {
  osd::failpoint::Clear();  // the child runs clean; kills are external
  DurableStore::RecoverResult rec;
  std::string error;
  if (!DurableStore::Recover(wal_dir, &rec, &error)) {
    std::fprintf(stderr, "crash child: recover refused: %s\n", error.c_str());
    ::_exit(3);
  }
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  // Fold hot so kills land during checkpoint writes and WAL rotations.
  engine_options.fold_interval_s = 0.05;
  engine_options.fold_delta_threshold = 4;
  QueryEngine engine(Dataset(std::move(rec.objects)), engine_options);

  DurableStore store;
  if (!store.Open(wal_dir, rec.last_seq, &error)) {
    std::fprintf(stderr, "crash child: open: %s\n", error.c_str());
    ::_exit(3);
  }
  engine.versioned().AttachDurability(&store, rec.last_seq);
  store.Checkpoint(engine.versioned().Acquire(), rec.last_seq);

  ServerOptions server_options;  // default tenant may write
  server_options.durable = &store;
  OsdServer server(&engine, server_options);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "crash child: start: %s\n", error.c_str());
    ::_exit(3);
  }
  g_server.store(&server, std::memory_order_release);
  ::signal(SIGTERM, OnSigterm);
  char line[32];
  const int n = std::snprintf(line, sizeof line, "PORT %d\n", server.port());
  if (::write(pipe_fd, line, static_cast<size_t>(n)) != n) ::_exit(3);
  ::close(pipe_fd);

  server.Wait();  // until the SIGTERM drain (or an external SIGKILL)
  g_server.store(nullptr, std::memory_order_release);
  engine.versioned().DetachDurability();
  if (!store.Seal(engine.versioned().last_seq(), &error)) {
    std::fprintf(stderr, "crash child: seal: %s\n", error.c_str());
    ::_exit(3);
  }
  ::_exit(0);
}

/// One weighted instance row set ~1e6 away from anything else.
std::vector<std::vector<double>> Rows(std::mt19937_64& rng) {
  std::vector<std::vector<double>> rows;
  const int n = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < n; ++i) {
    rows.push_back({1e6 + static_cast<double>(rng() % 100'000) / 100.0,
                    1e6 + static_cast<double>(rng() % 100'000) / 100.0,
                    1.0 + static_cast<double>(rng() % 3)});
  }
  return rows;
}

/// Replays `batches[0..n)` into the expected id -> weighted-rows state.
/// Every batch applies atomically, mirroring the store contract.
std::map<int, std::vector<std::vector<double>>> BuildModel(
    const std::vector<std::vector<MutateOp>>& batches, size_t n) {
  std::map<int, std::vector<std::vector<double>>> model;
  for (size_t b = 0; b < n; ++b) {
    for (const MutateOp& op : batches[b]) {
      if (op.action == "delete") {
        model.erase(op.object_id);
      } else {
        model[op.object_id] = op.instances;
      }
    }
  }
  return model;
}

/// Asserts the recovered objects equal the model exactly: same ids, same
/// instance rows, probabilities matching the weight normalization.
bool StateMatches(const std::vector<UncertainObject>& objects,
                  const std::map<int, std::vector<std::vector<double>>>& model,
                  std::string* why) {
  if (objects.size() != model.size()) {
    *why = "object count " + std::to_string(objects.size()) + " != model " +
           std::to_string(model.size());
    return false;
  }
  for (const UncertainObject& o : objects) {
    const auto it = model.find(o.id());
    if (it == model.end()) {
      *why = "unexpected object id " + std::to_string(o.id());
      return false;
    }
    const auto& rows = it->second;
    if (static_cast<size_t>(o.num_instances()) != rows.size()) {
      *why = "object " + std::to_string(o.id()) + " has " +
             std::to_string(o.num_instances()) + " instances, want " +
             std::to_string(rows.size());
      return false;
    }
    double weight_sum = 0.0;
    for (const auto& row : rows) weight_sum += row.back();
    for (size_t i = 0; i < rows.size(); ++i) {
      const osd::Point p = o.Instance(static_cast<int>(i));
      for (int d = 0; d < o.dim(); ++d) {
        if (p[d] != rows[i][static_cast<size_t>(d)]) {
          *why = "object " + std::to_string(o.id()) + " coordinate drift";
          return false;
        }
      }
      const double want_prob = rows[i].back() / weight_sum;
      if (std::fabs(o.Prob(static_cast<int>(i)) - want_prob) > 1e-12) {
        *why = "object " + std::to_string(o.id()) + " probability drift";
        return false;
      }
    }
  }
  return true;
}

int Fail(const char* stage, int cycle, const std::string& detail) {
  std::fprintf(stderr, "FAIL: crash cycle %d, %s: %s\n", cycle, stage,
               detail.c_str());
  return 1;
}

int Run(int cycles, const std::string& wal_dir, unsigned long long seed) {
  std::mt19937_64 rng(seed * 2654435761ull + 1);
  std::vector<std::vector<MutateOp>> batches;  // index b <=> WAL seq b+1
  int next_id = 1000;
  long killed = 0, acked_total = 0;

  auto make_batch = [&](const std::map<int, std::vector<std::vector<double>>>&
                            live) {
    std::vector<MutateOp> ops;
    const int n = 1 + static_cast<int>(rng() % 3);
    // Track in-batch effects so updates/deletes stay well-formed even when
    // an earlier op of the same batch inserted or deleted their target.
    std::map<int, std::vector<std::vector<double>>> pending = live;
    for (int i = 0; i < n; ++i) {
      MutateOp op;
      const int choice = static_cast<int>(rng() % 5);
      if (choice < 3 || pending.empty()) {
        op.action = "insert";
        op.object_id = next_id++;
        op.instances = Rows(rng);
        pending[op.object_id] = op.instances;
      } else {
        auto it = pending.begin();
        std::advance(it, static_cast<long>(rng() % pending.size()));
        op.object_id = it->first;
        if (choice == 3) {
          op.action = "update";
          op.instances = Rows(rng);
          it->second = op.instances;
        } else {
          op.action = "delete";
          pending.erase(it);
        }
      }
      ops.push_back(std::move(op));
    }
    return ops;
  };

  for (int cycle = 0; cycle < cycles; ++cycle) {
    const bool final_cycle = cycle == cycles - 1;
    int fds[2];
    if (::pipe(fds) != 0) return Fail("pipe", cycle, "pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) return Fail("fork", cycle, "fork() failed");
    if (pid == 0) {
      ::close(fds[0]);
      ChildServe(wal_dir, fds[1]);
    }
    ::close(fds[1]);

    // The child reports its bound port as "PORT n\n" (or dies: EOF).
    std::string port_line;
    char c;
    while (port_line.size() < 64 && ::read(fds[0], &c, 1) == 1 && c != '\n') {
      port_line.push_back(c);
    }
    ::close(fds[0]);
    int port = 0;
    if (std::sscanf(port_line.c_str(), "PORT %d", &port) != 1 || port <= 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return Fail("startup", cycle, "child reported no port");
    }

    OsdClient client;
    std::string error;
    if (!client.Connect("127.0.0.1", port, "default", &error)) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return Fail("connect", cycle, error);
    }
    SetRecvTimeout(client.fd(), 10'000);

    // Acked phase: every reply read, seq must continue the dense history.
    std::map<int, std::vector<std::vector<double>>> live =
        BuildModel(batches, batches.size());
    const int acked_writes = 3 + static_cast<int>(rng() % 8);
    for (int i = 0; i < acked_writes; ++i) {
      std::vector<MutateOp> ops = make_batch(live);
      if (!client.Send(BuildMutateMessage(i + 1, ops), &error)) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return Fail("send", cycle, error);
      }
      JsonValue msg;
      if (!ReadMutateTerminal(client, &msg) ||
          MessageType(msg) != "mutate_ok") {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return Fail("ack", cycle, "mutate was not acknowledged");
      }
      const JsonValue* seq = msg.Find("seq");
      const uint64_t want_seq = static_cast<uint64_t>(batches.size()) + 1;
      if (seq == nullptr ||
          static_cast<uint64_t>(seq->AsNumber()) != want_seq) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return Fail("ack", cycle,
                    "mutate_ok seq != expected " + std::to_string(want_seq));
      }
      batches.push_back(ops);
      ++acked_total;
      for (const MutateOp& op : ops) {
        if (op.action == "delete") live.erase(op.object_id);
        else live[op.object_id] = op.instances;
      }
    }
    const uint64_t acked_seq = static_cast<uint64_t>(batches.size());

    int status = 0;
    if (final_cycle) {
      // Clean drain: everything sent was acked, the log must seal.
      client.Close();
      ::kill(pid, SIGTERM);
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return Fail("drain", cycle, "child did not exit cleanly on SIGTERM");
      }
    } else {
      // Kill phase: two batches fired without reading the replies, then
      // SIGKILL lands mid-write. Their fate is unknown — but must be
      // all-or-nothing, in order.
      for (int i = 0; i < 2; ++i) {
        std::vector<MutateOp> ops = make_batch(live);
        if (!client.Send(BuildMutateMessage(100 + i, ops), &error)) break;
        batches.push_back(ops);
        for (const MutateOp& op : ops) {
          if (op.action == "delete") live.erase(op.object_id);
          else live[op.object_id] = op.instances;
        }
      }
      ::kill(pid, SIGKILL);
      client.Close();
      ::waitpid(pid, &status, 0);
      if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
        return Fail("kill", cycle, "child did not die from SIGKILL");
      }
      ++killed;
    }

    // Offline verification against the acked model.
    DurableStore::RecoverResult rec;
    if (!DurableStore::Recover(wal_dir, &rec, &error)) {
      return Fail("recover", cycle, error);
    }
    for (const std::string& w : rec.warnings) {
      std::fprintf(stderr, "crash cycle %d: recovery warning: %s\n", cycle,
                   w.c_str());
    }
    if (rec.last_seq < acked_seq) {
      return Fail("durability", cycle,
                  "acked seq " + std::to_string(acked_seq) +
                      " lost: recovered only to " +
                      std::to_string(rec.last_seq));
    }
    if (rec.last_seq > batches.size()) {
      return Fail("durability", cycle,
                  "recovered seq " + std::to_string(rec.last_seq) +
                      " beyond anything sent (" +
                      std::to_string(batches.size()) + ")");
    }
    if (final_cycle && !rec.sealed) {
      return Fail("seal", cycle, "drained child left an unsealed log");
    }
    std::string why;
    if (!StateMatches(rec.objects,
                      BuildModel(batches, static_cast<size_t>(rec.last_seq)),
                      &why)) {
      return Fail("state", cycle, why);
    }
    // Unapplied suffix batches were never durable; forget them so the next
    // cycle's seqs line up with the store's dense history.
    batches.resize(static_cast<size_t>(rec.last_seq));
    std::printf("crash cycle %d%s: recovered seq %llu (acked %llu), "
                "%zu object(s), %llu replayed batch(es)%s\n",
                cycle, final_cycle ? " (sigterm)" : " (sigkill)",
                static_cast<unsigned long long>(rec.last_seq),
                static_cast<unsigned long long>(acked_seq),
                rec.objects.size(),
                static_cast<unsigned long long>(rec.replayed_batches),
                rec.sealed ? ", sealed" : "");
    std::fflush(stdout);
  }

  std::printf("PASS: crash soak — %d cycles (%ld SIGKILL), %ld acked "
              "batch(es), zero acked-write loss\n",
              cycles, killed, acked_total);
  return 0;
}

}  // namespace crash

// --- epoch ------------------------------------------------------------------

struct EpochReport {
  int violations = 0;
};

/// Asserts one invariant; prints and counts the violation when false.
void Check(bool ok, const char* what, EpochReport* report) {
  if (ok) return;
  ++report->violations;
  std::fprintf(stderr, "VIOLATION: %s\n", what);
}

EpochReport RunEpoch(int epoch, const std::vector<Combo>& combos,
                     unsigned long long seed, double epoch_seconds,
                     int threads, bool sigterm_cycle, Tally* tally) {
  EngineOptions engine_options;
  engine_options.num_threads = threads;
  engine_options.shed_on_overload = true;
  engine_options.per_query_mem_bytes = 8 << 20;
  engine_options.engine_mem_bytes = 64 << 20;
  // Background fold: both triggers armed so epochs exercise threshold
  // folds under write bursts and interval folds during lulls.
  engine_options.fold_interval_s = 0.2;
  engine_options.fold_delta_threshold = 64;
  // The result cache under fire: it races the mutator's epoch bumps (every
  // answer is verified) and the aborter/sigterm drains. Capacity stays
  // well under the engine budget so resident entries cannot starve query
  // admission.
  engine_options.profile_cache_bytes = 16 << 20;
  QueryEngine engine(MakeDataset(), engine_options);

  ServerOptions server_options;
  // Low enough that the slow reader's biggest bursts cross it (eviction
  // path exercised), high enough that cooperative clients never do.
  server_options.max_output_buffer_bytes = 512u << 10;
  server_options.output_high_watermark_bytes = 32u << 10;
  server_options.idle_timeout_s = 5.0;
  server_options.write_stall_timeout_s = 2.0;
  TenantPolicy capped;
  capped.max_inflight = 2;
  server_options.tenants["capped"] = capped;
  // Writes are opt-in: only the mutator tenant may send mutate frames, and
  // its batches are capped. Everyone else (readonly persona included) must
  // see write_denied.
  server_options.default_policy.allow_writes = false;
  TenantPolicy mutator;
  mutator.max_mutation_ops = 8;
  server_options.tenants["mutator"] = mutator;
  OsdServer server(&engine, server_options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "FAIL: server start: %s\n", error.c_str());
    std::exit(1);
  }
  g_server.store(&server, std::memory_order_release);

  std::atomic<bool> stop{false};
  std::vector<std::thread> personas;
  personas.emplace_back(VerifierLoop, server.port(), std::cref(combos),
                        seed * 31 + 1, std::cref(stop), tally);
  personas.emplace_back(VerifierLoop, server.port(), std::cref(combos),
                        seed * 31 + 2, std::cref(stop), tally);
  personas.emplace_back(SlowReaderLoop, server.port(), seed * 31 + 3,
                        std::cref(stop), tally);
  personas.emplace_back(AborterLoop, server.port(), seed * 31 + 4,
                        std::cref(stop), tally);
  personas.emplace_back(StormLoop, seed * 31 + 5, std::cref(stop));
  personas.emplace_back(MutatorLoop, server.port(), seed * 31 + 6,
                        std::cref(stop), tally);
  personas.emplace_back(DeniedWriterLoop, server.port(), seed * 31 + 7,
                        std::cref(stop), tally);

  std::this_thread::sleep_for(std::chrono::duration<double>(epoch_seconds));

  if (sigterm_cycle) {
    // Drain raised from a real signal handler, mid-traffic: personas keep
    // hammering a draining server until they see it refuse them.
    ::raise(SIGTERM);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : personas) t.join();
  osd::failpoint::Clear();
  server.Shutdown();  // no-op wait if the SIGTERM drain already ran

  EpochReport report;
  Check(server.inflight() == 0, "server inflight != 0 after drain", &report);
  Check(server.queries_submitted() == server.queries_completed(),
        "submitted != completed after drain (leaked tickets)", &report);
  // Every query released its snapshot pin (Drain waits them out) and a
  // final fold retires whatever delta the mutator left, so the budget's
  // delta charges must drain to exactly zero.
  Check(engine.versioned().live_snapshots() == 0,
        "snapshot pins outlived the drain", &report);
  // Quiesce the result cache too: Drain releases every resident entry's
  // budget charge, so the zero-bytes invariant below covers the cache.
  engine.Drain();
  engine.versioned().Fold();
  Check(engine.memory_budget().current_bytes() == 0,
        "engine memory budget did not drain to zero", &report);
  const osd::EngineStats stats = engine.Snapshot();
  Check(stats.submitted == stats.completed,
        "engine submitted != completed (leaked engine tickets)", &report);
  Check(tally->mismatches.load() == 0, "verification mismatches", &report);
  // Drain released every resident result-cache entry.
  Check(stats.profile_cache_bytes == 0,
        "result cache bytes nonzero after drain", &report);

  // Every per-tenant inflight gauge must read exactly 0: a leak shows 1+,
  // a double release shows a negative value.
  const std::string metrics = server.MetricsText();
  size_t pos = 0;
  while ((pos = metrics.find("osd_tenant_inflight{", pos)) !=
         std::string::npos) {
    size_t eol = metrics.find('\n', pos);
    if (eol == std::string::npos) eol = metrics.size();
    const std::string line = metrics.substr(pos, eol - pos);
    const size_t space = line.rfind(' ');
    const std::string value = line.substr(space + 1);
    if (value != "0") {
      ++report.violations;
      std::fprintf(stderr, "VIOLATION: leaked tenant slot: %s\n",
                   line.c_str());
    }
    pos = eol;
  }

  g_server.store(nullptr, std::memory_order_release);
  const osd::VersionedDataset::Stats vstats = engine.versioned().GetStats();
  std::printf(
      "epoch %d%s: submitted=%ld completed=%ld evictions=%ld coalesced=%ld "
      "store_epoch=%llu folds=%llu mutations=%llu %s\n",
      epoch, sigterm_cycle ? " (sigterm)" : "", server.queries_submitted(),
      server.queries_completed(), server.evictions(),
      server.candidates_coalesced(),
      static_cast<unsigned long long>(vstats.epoch),
      static_cast<unsigned long long>(vstats.folds),
      static_cast<unsigned long long>(vstats.mutations),
      report.violations == 0 ? "invariants OK" : "VIOLATED");
  std::fflush(stdout);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  double total_seconds = 30.0;
  unsigned long long seed = 1;
  int threads = 3;
  int crash_cycles = 0;
  std::string wal_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seconds") {
      total_seconds = std::atof(next());
    } else if (arg == "--quick") {
      total_seconds = 3.0;
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = std::atoi(next());
    } else if (arg == "--crash-cycles") {
      crash_cycles = std::atoi(next());
    } else if (arg == "--wal-dir") {
      wal_dir = next();
    } else {
      std::fprintf(stderr,
                   "usage: osd_chaos [--seconds N] [--quick] [--seed S] "
                   "[--threads T] | --crash-cycles N --wal-dir DIR\n");
      return 2;
    }
  }

  if (crash_cycles > 0 || !wal_dir.empty()) {
    if (crash_cycles <= 0 || wal_dir.empty()) {
      std::fprintf(stderr,
                   "--crash-cycles and --wal-dir must be given together\n");
      return 2;
    }
    return crash::Run(crash_cycles, wal_dir, seed);
  }

  if (!osd::failpoint::Enabled()) {
    std::printf("note: failpoints not compiled in; storms disabled "
                "(build with -DOSD_FAILPOINTS=ON for full chaos)\n");
  }
  ::signal(SIGTERM, OnSigterm);

  std::printf("precomputing exact answers...\n");
  const std::vector<Combo> combos = PrecomputeExact();

  Tally tally;
  int violations = 0;
  int epoch = 0;
  const auto start = std::chrono::steady_clock::now();
  const double epoch_seconds = std::min(1.5, total_seconds / 2.0);
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < total_seconds) {
    violations += RunEpoch(epoch, combos, seed + epoch, epoch_seconds,
                           threads, epoch % 2 == 1, &tally)
                      .violations;
    ++epoch;
  }

  std::printf(
      "soak done: %d epochs, verified ok=%ld degraded=%ld other=%ld "
      "shed=%ld read_failures=%ld mismatches=%ld mutated=%ld "
      "write_denials=%ld\n",
      epoch, tally.ok.load(), tally.degraded.load(),
      tally.other_terminal.load(), tally.shed.load(),
      tally.read_failures.load(), tally.mismatches.load(),
      tally.mutated.load(), tally.write_denials.load());
  if (tally.ok.load() == 0) {
    std::fprintf(stderr, "FAIL: no query was ever verified OK\n");
    return 1;
  }
  if (tally.mutated.load() == 0) {
    std::fprintf(stderr, "FAIL: no mutation was ever applied\n");
    return 1;
  }
  if (tally.write_denials.load() == 0) {
    std::fprintf(stderr, "FAIL: write governance was never exercised\n");
    return 1;
  }
  if (violations > 0) {
    std::fprintf(stderr, "FAIL: %d invariant violations\n", violations);
    return 1;
  }
  std::printf("PASS: chaos soak\n");
  return 0;
}
