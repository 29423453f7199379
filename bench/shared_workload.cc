// Aggregate throughput of cross-query work sharing — the engine's result
// cache (engine/result_cache.h) — measured on a skewed (Zipf)
// multi-client workload: the regime the cache is for, where a hot set of
// queries repeats across clients.
//
// Usage:
//   shared_workload [--objects N] [--clients C] [--threads T]
//                   [--distinct K] [--zipf-s S] [--seconds SECS]
//                   [--cache-bytes B]
//                   [--out BENCH_shared.json]
//
// Two closed-loop repeat rounds over the identical workload and dataset:
//   unshared — result cache off
//   shared   — result cache on at --cache-bytes (see DESIGN.md §15)
// C client threads each loop {draw a query by Zipf rank over K distinct
// queries, Submit, Wait}, so offered load self-regulates and latency
// percentiles are honest. Both rounds get one untimed warmup pass over
// all K queries, which fills the cache in the shared round.
//
// Then a no-repeat stream: the C clients run kNoRepeatQueries distinct
// queries once each, with the cache off and on, in
// kNoRepeatPairs alternating pairs (a fresh engine per run). Every lookup
// misses and every answer is stored, so the on runs read what a one-off
// query pays for the cache.
//
// Reported per repeat round: aggregate q/s, p50/p95/p99 ms, and the
// engine's own executed-based QPS (sheds excluded); for the shared round
// also cache hit rate, evictions and resident bytes. The JSON records the
// headline `speedup` (shared q/s / unshared q/s) and `slo_ok` — whether
// the shared round held the p99 SLO, fixed at the unshared round's p99
// (work sharing must buy throughput without giving back tail latency) —
// and, under "no_repeat", each run's
// q/s and the ratio of the on runs' median to the off runs'. Exit is
// non-zero if any query failed in any round.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/query_engine.h"

namespace {

using namespace osd;
using namespace osd::bench;

// The no-repeat stream: distinct queries per run, and off/on run pairs.
constexpr int kNoRepeatQueries = 1024;
constexpr int kNoRepeatPairs = 5;

struct Config {
  int objects = 4000;
  int clients = 8;
  int threads = 2;
  int distinct = 32;    // K: size of the query universe
  double zipf_s = 1.1;  // Zipf exponent (1.1 ~ web-cache-like skew)
  double seconds = 2.0;
  long cache_bytes = 256L << 20;
  std::string out = "BENCH_shared.json";
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
    } else if (flag == "--clients") {
      cfg.clients = std::atoi(value().c_str());
    } else if (flag == "--threads") {
      cfg.threads = std::atoi(value().c_str());
    } else if (flag == "--distinct") {
      cfg.distinct = std::atoi(value().c_str());
    } else if (flag == "--zipf-s") {
      cfg.zipf_s = std::atof(value().c_str());
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
    } else if (flag == "--cache-bytes") {
      cfg.cache_bytes = std::atol(value().c_str());
    } else if (flag == "--out") {
      cfg.out = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return cfg;
}

/// Cumulative Zipf weights over ranks 1..k: weight(r) = r^-s.
std::vector<double> ZipfCdf(int k, double s) {
  std::vector<double> cdf(k);
  double sum = 0.0;
  for (int r = 0; r < k; ++r) {
    sum += std::pow(static_cast<double>(r + 1), -s);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

struct ClientStats {
  long completed = 0;
  long errors = 0;
  std::vector<double> latency_ms;
};

/// Hands a client its next query, or null when the stream is exhausted.
using NextQuery = std::function<const QueryWorkloadEntry*()>;

QuerySpec SpecFor(const QueryWorkloadEntry& entry) {
  QuerySpec spec;
  spec.query = entry.query;
  spec.options.op = Operator::kSSd;
  spec.options.exclude_id = entry.seeded_from;
  return spec;
}

void ClientLoop(QueryEngine* engine, NextQuery next,
                const std::atomic<bool>* stop, ClientStats* stats) {
  while (!stop->load(std::memory_order_relaxed)) {
    const QueryWorkloadEntry* entry = next();
    if (entry == nullptr) break;
    const auto t0 = std::chrono::steady_clock::now();
    auto ticket = engine->Submit(SpecFor(*entry));
    const QueryStatus status = ticket->Wait();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (status == QueryStatus::kOk || status == QueryStatus::kOkDegraded) {
      ++stats->completed;
      stats->latency_ms.push_back(ms);
    } else {
      ++stats->errors;
    }
  }
}

/// Client c's Zipf stream over `workload`: draws by rank from its own
/// seeded generator, never exhausted.
NextQuery ZipfStream(const std::vector<QueryWorkloadEntry>& workload,
                     const std::vector<double>& zipf_cdf, uint64_t seed) {
  return [&workload, &zipf_cdf,
          rng = seed * 0x9e3779b97f4a7c15ULL + 1]() mutable {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(rng >> 11) * 0x1.0p-53;
    const size_t idx = static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    return &workload[std::min(idx, workload.size() - 1)];
  };
}

struct RoundResult {
  double qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  long completed = 0;
  long errors = 0;
  EngineStats engine;
};

/// Engine options with `cfg.threads` workers and the result cache on or
/// off.
EngineOptions Engine(const Config& cfg, bool cache) {
  EngineOptions options;
  options.num_threads = cfg.threads;
  if (cache) options.profile_cache_bytes = cfg.cache_bytes;
  return options;
}

/// One closed-loop round on a fresh engine. The repeat stream (Zipf draws
/// over `workload`, one untimed warmup pass first) runs for
/// cfg.seconds; the no-repeat stream runs every query of `workload` once
/// and ends with it.
RoundResult RunRound(const Dataset& dataset,
                     const std::vector<QueryWorkloadEntry>& workload,
                     const std::vector<double>& zipf_cdf, const Config& cfg,
                     const EngineOptions& options, bool repeat) {
  QueryEngine engine(dataset, options);

  RoundResult result;
  for (size_t i = 0; repeat && i < workload.size(); ++i) {
    if (engine.Submit(SpecFor(workload[i]))->Wait() != QueryStatus::kOk) {
      ++result.errors;
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> cursor{0};
  std::vector<ClientStats> stats(cfg.clients);
  std::vector<std::thread> clients;
  clients.reserve(cfg.clients);
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < cfg.clients; ++c) {
    NextQuery next =
        repeat ? ZipfStream(workload, zipf_cdf, static_cast<uint64_t>(c + 1))
               : NextQuery([&workload, &cursor]() -> const QueryWorkloadEntry* {
                   const size_t i = cursor.fetch_add(1);
                   return i < workload.size() ? &workload[i] : nullptr;
                 });
    clients.emplace_back(ClientLoop, &engine, std::move(next), &stop,
                         &stats[c]);
  }
  if (repeat) {
    std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& t : clients) t.join();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  // Snapshot before Drain: draining clears the cache, and the resident
  // byte count at end-of-round is part of the report.
  result.engine = engine.Snapshot();
  engine.Drain();

  std::vector<double> latency;
  for (const ClientStats& cs : stats) {
    result.completed += cs.completed;
    result.errors += cs.errors;
    latency.insert(latency.end(), cs.latency_ms.begin(),
                   cs.latency_ms.end());
  }
  result.qps = result.completed / secs;
  result.p50 = Percentile(latency, 0.50);
  result.p95 = Percentile(latency, 0.95);
  result.p99 = Percentile(latency, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);

  SyntheticParams sp = DefaultSynthetic(CenterDistribution::kAntiCorrelated);
  sp.num_objects = cfg.objects;
  const Dataset dataset = GenerateSynthetic(sp);

  WorkloadParams wp = DefaultWorkload();
  wp.num_queries = cfg.distinct;
  const auto workload = GenerateWorkload(dataset, wp);
  const auto zipf_cdf = ZipfCdf(cfg.distinct, cfg.zipf_s);

  std::printf(
      "shared_workload: %d objects, %d clients over %d distinct queries "
      "(zipf s=%.2f), %.1fs rounds\n",
      cfg.objects, cfg.clients, cfg.distinct, cfg.zipf_s, cfg.seconds);

  const RoundResult unshared =
      RunRound(dataset, workload, zipf_cdf, cfg,
               Engine(cfg, /*cache=*/false),
               /*repeat=*/true);
  std::printf("  unshared: %8.1f q/s  p50=%.2f p95=%.2f p99=%.2f ms\n",
              unshared.qps, unshared.p50, unshared.p95, unshared.p99);

  const RoundResult shared =
      RunRound(dataset, workload, zipf_cdf, cfg,
               Engine(cfg, /*cache=*/true),
               /*repeat=*/true);
  const EngineStats& es = shared.engine;
  const long lookups = es.profile_cache_hits + es.profile_cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(es.profile_cache_hits) / lookups
                  : 0.0;
  std::printf(
      "  shared:   %8.1f q/s  p50=%.2f p95=%.2f p99=%.2f ms  "
      "hit_rate=%.3f evictions=%ld\n",
      shared.qps, shared.p50, shared.p95, shared.p99, hit_rate,
      es.profile_cache_evictions);

  // The SLO is the unshared round's own p99: sharing must not trade tail
  // latency for throughput.
  const double slo_p99_ms = unshared.p99;
  const double speedup =
      unshared.qps > 0.0 ? shared.qps / unshared.qps : 0.0;
  const bool slo_ok = shared.p99 <= slo_p99_ms;
  std::printf("  speedup=%.2fx  slo(p99<=%.2fms)=%s\n", speedup, slo_p99_ms,
              slo_ok ? "met" : "MISSED");

  // The no-repeat stream draws its own distinct queries.
  WorkloadParams once_params = wp;
  once_params.num_queries = kNoRepeatQueries;
  once_params.seed = wp.seed + 1;
  const auto once = GenerateWorkload(dataset, once_params);
  std::vector<double> once_off, once_on;
  long once_errors = 0;
  EngineStats once_stats;
  for (int pair = 0; pair < kNoRepeatPairs; ++pair) {
    for (const bool cache_on : {false, true}) {
      const RoundResult r =
          RunRound(dataset, once, zipf_cdf, cfg,
                   Engine(cfg, cache_on),
                   /*repeat=*/false);
      once_errors += r.errors;
      (cache_on ? once_on : once_off).push_back(r.qps);
      if (cache_on) once_stats = r.engine;
    }
  }
  // Percentile sorts its argument; the JSON keeps the runs in order.
  std::vector<double> sorted_off = once_off, sorted_on = once_on;
  const double off_median = Percentile(sorted_off, 0.5);
  const double on_median = Percentile(sorted_on, 0.5);
  const double once_ratio = off_median > 0.0 ? on_median / off_median : 0.0;
  std::printf(
      "  no-repeat (%d queries x %d pairs): off %.1f q/s, on %.1f q/s "
      "(median), on/off=%.3f, hits=%ld misses=%ld\n",
      kNoRepeatQueries, kNoRepeatPairs, off_median, on_median,
      once_ratio, once_stats.profile_cache_hits,
      once_stats.profile_cache_misses);

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return 1;
  }
  auto round_json = [&](const char* name, const RoundResult& r) {
    std::fprintf(f,
                 "\"%s\":{\"qps\":%.2f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,"
                 "\"p99_ms\":%.3f,\"completed\":%ld,\"errors\":%ld,"
                 "\"engine_executed\":%ld,\"engine_qps\":%.2f}",
                 name, r.qps, r.p50, r.p95, r.p99, r.completed, r.errors,
                 r.engine.executed, r.engine.qps);
  };
  std::fprintf(f,
               "{\"bench\":\"shared_workload\",\"objects\":%d,"
               "\"clients\":%d,\"threads\":%d,\"distinct\":%d,"
               "\"zipf_s\":%.2f,\"seconds\":%.2f,\"cache_bytes\":%ld,",
               cfg.objects, cfg.clients, cfg.threads, cfg.distinct,
               cfg.zipf_s, cfg.seconds, cfg.cache_bytes);
  round_json("unshared", unshared);
  std::fprintf(f, ",");
  round_json("shared", shared);
  std::fprintf(f,
               ",\"cache\":{\"hits\":%ld,\"misses\":%ld,\"hit_rate\":%.4f,"
               "\"evictions\":%ld,\"resident_bytes\":%ld}"
               ",\"speedup\":%.3f,\"slo_p99_ms\":%.3f,\"slo_ok\":%s",
               es.profile_cache_hits, es.profile_cache_misses, hit_rate,
               es.profile_cache_evictions, es.profile_cache_bytes, speedup,
               slo_p99_ms, slo_ok ? "true" : "false");
  auto qps_list = [&](const std::vector<double>& v) {
    for (size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s%.2f", i > 0 ? "," : "", v[i]);
    }
  };
  std::fprintf(f, ",\"no_repeat\":{\"queries\":%d,\"off_qps\":[",
               kNoRepeatQueries);
  qps_list(once_off);
  std::fprintf(f, "],\"on_qps\":[");
  qps_list(once_on);
  std::fprintf(f,
               "],\"on_over_off\":%.3f,\"errors\":%ld,\"hits\":%ld,"
               "\"misses\":%ld}}\n",
               once_ratio, once_errors, once_stats.profile_cache_hits,
               once_stats.profile_cache_misses);
  std::fclose(f);
  std::printf("  wrote %s\n", cfg.out.c_str());
  return unshared.errors + shared.errors + once_errors == 0 ? 0 : 1;
}
