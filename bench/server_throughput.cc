// Service-tier throughput: queries/sec and latency percentiles through a
// real OsdServer on loopback — framing, JSON, the poll loop and the
// engine handoff all included — at several client concurrencies.
//
// Usage:
//   server_throughput [--objects N] [--queries Q] [--op ssd|sssd|psd|fsd|f+sd]
//                     [--clients 1,2,4,8] [--threads T]
//                     [--out BENCH_server.json]
//
// Every round starts a fresh engine+server pair, fans Q queries across C
// client connections (each client runs its share synchronously:
// submit, stream, terminal frame), and reports end-to-end latency
// percentiles plus time-to-first-candidate — the metric the progressive
// protocol exists for.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

namespace {

using namespace osd;
using namespace osd::bench;
using osd::net::JsonValue;
using osd::net::MessageType;
using osd::net::OsdClient;
using osd::net::OsdServer;
using osd::net::ServerOptions;
using osd::net::SubmitParams;

struct Config {
  int objects = 2000;
  int queries = 256;
  std::string op = "ssd";
  std::vector<int> clients = {1, 2, 4, 8};
  int threads = 4;
  std::string out = "BENCH_server.json";
};

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--objects") {
      cfg.objects = std::atoi(value().c_str());
    } else if (flag == "--queries") {
      cfg.queries = std::atoi(value().c_str());
    } else if (flag == "--op") {
      cfg.op = value();
    } else if (flag == "--threads") {
      cfg.threads = std::atoi(value().c_str());
    } else if (flag == "--clients") {
      cfg.clients.clear();
      const std::string v = value();
      for (size_t pos = 0; pos < v.size();) {
        const size_t comma = v.find(',', pos);
        cfg.clients.push_back(std::atoi(v.substr(pos, comma - pos).c_str()));
        pos = comma == std::string::npos ? v.size() : comma + 1;
      }
    } else if (flag == "--out") {
      cfg.out = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return cfg;
}

/// Latencies one client thread collected, all in milliseconds.
struct ClientStats {
  std::vector<double> total_ms;  ///< submit -> terminal frame
  std::vector<double> ttfc_ms;   ///< submit -> first candidate frame
  long errors = 0;
};

void RunClient(int port, const std::string& op, int first, int count,
               int objects, ClientStats* stats) {
  OsdClient client;
  std::string error;
  if (!client.Connect("127.0.0.1", port, "bench", &error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    stats->errors += count;
    return;
  }
  for (int q = 0; q < count; ++q) {
    SubmitParams params;
    params.id = q + 1;
    params.object_id = (first + q) % objects;
    params.op = op;
    const auto t0 = std::chrono::steady_clock::now();
    if (!client.Send(net::BuildSubmitMessage(params), &error)) {
      ++stats->errors;
      return;
    }
    bool first_candidate = true;
    for (;;) {
      JsonValue msg;
      if (!client.Read(&msg, &error)) {
        ++stats->errors;
        return;
      }
      const auto now = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(now - t0).count();
      const std::string type = MessageType(msg);
      if (type == "candidate") {
        if (first_candidate) {
          stats->ttfc_ms.push_back(ms);
          first_candidate = false;
        }
      } else if (type == "result") {
        if (msg.Find("status")->AsString() != "OK") ++stats->errors;
        stats->total_ms.push_back(ms);
        break;
      } else {  // error frame: the query is over
        ++stats->errors;
        break;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);

  SyntheticParams sp = DefaultSynthetic(CenterDistribution::kAntiCorrelated);
  sp.num_objects = cfg.objects;
  const Dataset dataset = GenerateSynthetic(sp);

  std::printf(
      "server_throughput: %d objects, %d queries, operator %s, "
      "%d engine threads\n",
      cfg.objects, cfg.queries, cfg.op.c_str(), cfg.threads);

  struct Round {
    int clients;
    double qps;
    double p50, p95, p99;
    double ttfc_p50;
    long errors;
  };
  std::vector<Round> rounds;

  for (int clients : cfg.clients) {
    QueryEngine engine(dataset,
                       {.num_threads = cfg.threads, .shed_on_overload = true});
    OsdServer server(&engine, ServerOptions{});
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return 1;
    }

    const int per_client = cfg.queries / clients;
    std::vector<ClientStats> stats(static_cast<size_t>(clients));
    std::vector<std::thread> threads;
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(RunClient, server.port(), cfg.op, c * per_client,
                           per_client, cfg.objects,
                           &stats[static_cast<size_t>(c)]);
    }
    for (auto& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    server.Shutdown();

    std::vector<double> total, ttfc;
    long errors = 0;
    for (const ClientStats& s : stats) {
      total.insert(total.end(), s.total_ms.begin(), s.total_ms.end());
      ttfc.insert(ttfc.end(), s.ttfc_ms.begin(), s.ttfc_ms.end());
      errors += s.errors;
    }
    const double qps = static_cast<double>(total.size()) / secs;
    Round r;
    r.clients = clients;
    r.qps = qps;
    r.p50 = Percentile(total, 0.50);
    r.p95 = Percentile(total, 0.95);
    r.p99 = Percentile(total, 0.99);
    r.ttfc_p50 = Percentile(ttfc, 0.50);
    r.errors = errors;
    rounds.push_back(r);
    std::printf(
        "  clients=%-2d  %8.1f q/s  p50=%.2fms p95=%.2fms p99=%.2fms  "
        "ttfc_p50=%.2fms  errors=%ld\n",
        clients, qps, r.p50, r.p95, r.p99, r.ttfc_p50, errors);
  }

  long total_errors = 0;
  for (const Round& r : rounds) total_errors += r.errors;

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"server_throughput\",\"objects\":%d,"
               "\"queries\":%d,\"operator\":\"%s\",\"engine_threads\":%d,"
               "\"errors\":%ld,\"rounds\":[",
               cfg.objects, cfg.queries, cfg.op.c_str(), cfg.threads,
               total_errors);
  for (size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    std::fprintf(f,
                 "%s{\"clients\":%d,\"qps\":%.2f,\"p50_ms\":%.3f,"
                 "\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"ttfc_p50_ms\":%.3f,"
                 "\"errors\":%ld}",
                 i == 0 ? "" : ",", r.clients, r.qps, r.p50, r.p95, r.p99,
                 r.ttfc_p50, r.errors);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", cfg.out.c_str());
  return total_errors == 0 ? 0 : 1;
}
