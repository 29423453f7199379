// Standalone OSD network service (see src/net/server.h).
//
// Usage:
//   osd_server --input data.txt [--weighted] [--binary]
//   osd_server --gen-data N [--gen-dim D] [--gen-instances M] [--seed S]
//
// plus, for either data source:
//   [--host H] [--port P]            loopback:auto by default; the bound
//                                    address is printed as
//                                    "listening on H:P" once ready
//   [--threads T] [--queue N]        engine sizing
//   [--mem-budget B]                 default per-query memory cap
//   [--engine-mem-budget B]          engine-wide memory cap
//   [--slow-query-ms X]              keep a slow-query log
//   [--no-shed]                      block instead of shedding on overload
//                                    (not recommended: a blocked Submit
//                                    stalls the event loop)
//   [--max-connections N]
//   [--max-output-buffer SIZE]       hard per-connection output cap; a
//                                    connection past it is evicted with a
//                                    slow_consumer error frame
//   [--high-watermark SIZE]          coalesce candidate frames above this
//   [--low-watermark SIZE]           resume streaming below this (default
//                                    high/2)
//   [--idle-timeout-s X]             evict idle connections after X s
//   [--write-stall-timeout-s X]      evict connections whose peer stops
//                                    reading for X s
//   [--profile-cache-bytes SIZE]     result cache capacity (absent = off):
//                                    a query that repeats at the epoch it
//                                    completed at is answered from its
//                                    stored candidates (LRU, charged to
//                                    the engine memory budget). The name
//                                    predates the cache, which replaced a
//                                    profile cache.
//   [--max-batch N]                  accepted (N >= 1) and ignored, as
//   [--batch-window-us X]            is X (> 0): every query runs as its
//                                    own task; kept so existing command
//                                    lines still parse
//   [--fold-interval-s X]            background fold: merge the mutation
//                                    delta into a fresh base every X s
//   [--fold-delta N]                 background fold: merge once the delta
//                                    reaches N objects (default 1024 —
//                                    tenants may write by default, so the
//                                    server always folds; 0 disables the
//                                    fold thread, leaving the store's
//                                    synchronous backstop as the only
//                                    bound on un-folded mutations)
//   [--wal-dir DIR]                  durability tier: fsync'd write-ahead
//                                    log + epoch checkpoints in DIR. On
//                                    startup the store recovers from DIR
//                                    (latest valid checkpoint + WAL
//                                    replay; torn tails truncate with a
//                                    warning, mid-log corruption refuses
//                                    startup). An initialized DIR is
//                                    authoritative: --input/--gen-data
//                                    only seed an empty one. mutate_ok
//                                    then implies durable; on WAL failure
//                                    the server degrades to read-only
//                                    (writes fail with
//                                    storage_unavailable). With --wal-dir
//                                    alone a fresh empty store is legal.
//   [--checkpoint-interval S]        with --wal-dir: fold (and therefore
//                                    checkpoint + WAL-rotate) at least
//                                    every S seconds; tightens
//                                    --fold-interval-s if both are given.
//                                    Folds triggered by --fold-delta
//                                    checkpoint too, so this mainly bounds
//                                    replay time for slow-writing stores
//   [--tenant NAME:mem=SIZE,inflight=N,writes=0|1,mutops=N]
//                                    per-tenant policy, repeatable; the
//                                    name "default" sets the policy for
//                                    tenants without an explicit entry
//                                    (writes gates "mutate" frames, mutops
//                                    caps ops per mutate batch)
//   [--metrics-out FILE]             write Prometheus metrics on exit
//   [--failpoints SPEC]              arm fault-injection sites
//
// Every numeric value must be a whole number (no trailing characters) in
// its flag's range; anything else exits 2 naming the flag.
//
// SIGTERM / SIGINT initiate a graceful drain: the listener closes, new
// submits are refused, in-flight queries finish and their terminal frames
// flush, and the process exits 0 with a summary on stderr.

#include <signal.h>

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "datagen/generators.h"
#include "engine/query_engine.h"
#include "io/dataset_io.h"
#include "io/durable_store.h"
#include "net/server.h"

namespace {

using namespace osd;

struct Args {
  std::string input;
  bool weighted = false;
  bool binary = false;
  int gen_data = 0;
  int gen_dim = 2;
  int gen_instances = 8;
  uint64_t seed = 42;
  std::string host = "127.0.0.1";
  int port = 0;
  int threads = 0;
  size_t queue = 4096;
  long mem_budget_bytes = 0;
  long engine_mem_budget_bytes = 0;
  double slow_query_ms = 0.0;
  bool shed = true;
  size_t max_connections = 256;
  long max_output_buffer_bytes = 0;  // 0 = server default
  long high_watermark_bytes = 0;
  long low_watermark_bytes = 0;
  double idle_timeout_s = 0.0;
  double write_stall_timeout_s = 0.0;
  long profile_cache_bytes = 0;
  double fold_interval_s = 0.0;
  int fold_delta = 1024;  // default ON: any tenant may write by default
  std::string wal_dir;
  double checkpoint_interval_s = 0.0;
  net::TenantPolicy default_policy;
  std::map<std::string, net::TenantPolicy> tenants;
  std::string metrics_out;
  std::string failpoints;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "osd_server: %s\n", message.c_str());
  std::exit(2);
}

/// A whole decimal integer in [lo, hi]; an empty value, trailing
/// characters, an overflow or a value out of range exits 2.
long long ParseInt(const std::string& s, const std::string& what,
                   long long lo, long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) ||
      *end != '\0' || errno == ERANGE) {
    Die(what + ": '" + s + "' is not an integer");
  }
  if (value < lo || value > hi) {
    Die(what + " must be in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got " + s);
  }
  return value;
}

/// A whole finite decimal number above 0; anything else exits 2.
double ParsePositive(const std::string& s, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) ||
      *end != '\0' || !std::isfinite(value)) {
    Die(what + ": '" + s + "' is not a number");
  }
  if (!(value > 0)) Die(what + " must be > 0, got " + s);
  return value;
}

long ParseByteSize(const std::string& s, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  long multiplier = 1;
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k': case 'K': multiplier = 1L << 10; break;
      case 'm': case 'M': multiplier = 1L << 20; break;
      case 'g': case 'G': multiplier = 1L << 30; break;
      default: Die(std::string(what) + ": bad byte size '" + s + "'");
    }
    if (*(end + 1) != '\0') {
      Die(std::string(what) + ": bad byte size '" + s + "'");
    }
  }
  const double bytes = value * static_cast<double>(multiplier);
  if (!(bytes >= 1) || bytes > 9e18) {
    Die(std::string(what) + " must be a positive byte count");
  }
  return static_cast<long>(bytes);
}

/// Parses "NAME:mem=64m,inflight=4,writes=0" (every key optional).
void ParseTenantFlag(const std::string& spec, Args* args) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    Die("--tenant must look like NAME:mem=SIZE,inflight=N,writes=0|1");
  }
  const std::string name = spec.substr(0, colon);
  if (name != "default" && !net::ValidTenantName(name)) {
    Die("--tenant: invalid tenant name '" + name + "'");
  }
  net::TenantPolicy policy;
  std::string rest = spec.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string item = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const size_t eq = item.find('=');
    if (eq == std::string::npos) Die("--tenant: bad item '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "mem") {
      policy.per_query_mem_bytes = ParseByteSize(value, "--tenant mem");
    } else if (key == "inflight") {
      policy.max_inflight =
          static_cast<int>(ParseInt(value, "--tenant inflight", 1, INT_MAX));
    } else if (key == "writes") {
      if (value != "0" && value != "1") {
        Die("--tenant: writes must be 0 or 1");
      }
      policy.allow_writes = value == "1";
    } else if (key == "mutops") {
      policy.max_mutation_ops =
          static_cast<int>(ParseInt(value, "--tenant mutops", 1, INT_MAX));
    } else {
      Die("--tenant: unknown key '" + key + "'");
    }
  }
  if (name == "default") {
    args->default_policy = policy;
  } else {
    args->tenants[name] = policy;
  }
}

Args Parse(int argc, char** argv) {
  Args args;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) Die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  // The flag's value as an integer in [lo, hi], or as a number > 0.
  auto int_value = [&](int& i, long long lo, long long hi) {
    const std::string flag = argv[i];
    return ParseInt(need_value(i), flag, lo, hi);
  };
  auto positive_value = [&](int& i) {
    const std::string flag = argv[i];
    return ParsePositive(need_value(i), flag);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--input") {
      args.input = need_value(i);
    } else if (flag == "--weighted") {
      args.weighted = true;
    } else if (flag == "--binary") {
      args.binary = true;
    } else if (flag == "--gen-data") {
      args.gen_data = static_cast<int>(int_value(i, 1, INT_MAX));
    } else if (flag == "--gen-dim") {
      args.gen_dim = static_cast<int>(int_value(i, 1, INT_MAX));
    } else if (flag == "--gen-instances") {
      args.gen_instances = static_cast<int>(int_value(i, 1, INT_MAX));
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(int_value(i, 0, LLONG_MAX));
    } else if (flag == "--host") {
      args.host = need_value(i);
    } else if (flag == "--port") {
      args.port = static_cast<int>(int_value(i, 0, 65535));
    } else if (flag == "--threads") {
      // 0 sizes the pool to the hardware.
      args.threads = static_cast<int>(int_value(i, 0, 4096));
    } else if (flag == "--queue") {
      args.queue = static_cast<size_t>(int_value(i, 1, INT_MAX));
    } else if (flag == "--mem-budget") {
      args.mem_budget_bytes = ParseByteSize(need_value(i), "--mem-budget");
    } else if (flag == "--engine-mem-budget") {
      args.engine_mem_budget_bytes =
          ParseByteSize(need_value(i), "--engine-mem-budget");
    } else if (flag == "--slow-query-ms") {
      args.slow_query_ms = positive_value(i);
    } else if (flag == "--no-shed") {
      args.shed = false;
    } else if (flag == "--max-connections") {
      args.max_connections = static_cast<size_t>(int_value(i, 1, INT_MAX));
    } else if (flag == "--max-output-buffer") {
      args.max_output_buffer_bytes =
          ParseByteSize(need_value(i), "--max-output-buffer");
    } else if (flag == "--high-watermark") {
      args.high_watermark_bytes =
          ParseByteSize(need_value(i), "--high-watermark");
    } else if (flag == "--low-watermark") {
      args.low_watermark_bytes =
          ParseByteSize(need_value(i), "--low-watermark");
    } else if (flag == "--idle-timeout-s") {
      args.idle_timeout_s = positive_value(i);
    } else if (flag == "--write-stall-timeout-s") {
      args.write_stall_timeout_s = positive_value(i);
    } else if (flag == "--profile-cache-bytes") {
      args.profile_cache_bytes =
          ParseByteSize(need_value(i), "--profile-cache-bytes");
    } else if (flag == "--max-batch") {
      int_value(i, 1, INT_MAX);  // validated, then ignored: no batching
    } else if (flag == "--batch-window-us") {
      positive_value(i);  // validated, then ignored: no batching
    } else if (flag == "--fold-interval-s") {
      args.fold_interval_s = positive_value(i);
    } else if (flag == "--fold-delta") {
      // 0 disables the fold thread.
      args.fold_delta = static_cast<int>(int_value(i, 0, INT_MAX));
    } else if (flag == "--wal-dir") {
      args.wal_dir = need_value(i);
      if (args.wal_dir.empty()) Die("--wal-dir needs a directory path");
    } else if (flag == "--checkpoint-interval") {
      args.checkpoint_interval_s = positive_value(i);
    } else if (flag == "--tenant") {
      ParseTenantFlag(need_value(i), &args);
    } else if (flag == "--metrics-out") {
      args.metrics_out = need_value(i);
    } else if (flag == "--failpoints") {
      args.failpoints = need_value(i);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!args.input.empty() && args.gen_data > 0) {
    Die("at most one of --input / --gen-data may be given");
  }
  if (args.input.empty() && args.gen_data == 0 && args.wal_dir.empty()) {
    Die("one of --input / --gen-data / --wal-dir is required");
  }
  if (args.checkpoint_interval_s > 0 && args.wal_dir.empty()) {
    Die("--checkpoint-interval requires --wal-dir");
  }
  return args;
}

net::OsdServer* g_server = nullptr;

extern "C" void HandleSignal(int) {
  // RequestDrain is async-signal-safe by contract.
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);

  {
    std::string fp_error;
    if (!failpoint::ConfigureFromEnv(&fp_error)) Die(fp_error);
    if (!args.failpoints.empty() &&
        !failpoint::Configure(args.failpoints, &fp_error)) {
      Die(fp_error);
    }
    if (!failpoint::ArmedSites().empty() && !failpoint::Enabled()) {
      std::fprintf(stderr,
                   "osd_server: warning: failpoints armed but this build has "
                   "no sites compiled in (rebuild with -DOSD_FAILPOINTS=ON)\n");
    }
  }

  // Recover the durable state first: an initialized WAL directory is the
  // authoritative data source, and --input/--gen-data only seed a fresh
  // (empty) one.
  io::DurableStore::RecoverResult rec;
  if (!args.wal_dir.empty()) {
    std::string rerr;
    if (!io::DurableStore::Recover(args.wal_dir, &rec, &rerr)) {
      Die("refusing to start: " + rerr +
          " (acknowledged writes cannot be reconstructed; repair the WAL "
          "directory or move it aside to start fresh)");
    }
    for (const std::string& warning : rec.warnings) {
      std::fprintf(stderr, "osd_server: recovery warning: %s\n",
                   warning.c_str());
    }
  }

  std::vector<UncertainObject> objects;
  if (rec.initialized) {
    if (!args.input.empty() || args.gen_data > 0) {
      std::fprintf(stderr,
                   "osd_server: warning: %s is initialized and "
                   "authoritative; ignoring --input/--gen-data\n",
                   args.wal_dir.c_str());
    }
    objects = std::move(rec.objects);
    std::fprintf(
        stderr,
        "osd_server: recovered %zu object(s) at seq %llu from %s "
        "(checkpoint seq %llu, %llu batch(es) replayed, %s shutdown)\n",
        objects.size(), static_cast<unsigned long long>(rec.last_seq),
        args.wal_dir.c_str(),
        static_cast<unsigned long long>(rec.checkpoint_seq),
        static_cast<unsigned long long>(rec.replayed_batches),
        rec.sealed ? "clean" : "unclean");
  } else if (!args.input.empty()) {
    std::string error;
    bool ok;
    if (args.binary) {
      ok = LoadBinary(args.input, &objects, &error);
    } else if (args.weighted) {
      ok = LoadTextWeighted(args.input, &objects, &error);
    } else {
      ok = LoadText(args.input, &objects, &error);
    }
    if (!ok) Die(error);
  } else if (args.gen_data > 0) {
    SyntheticParams params;
    params.num_objects = args.gen_data;
    params.dim = args.gen_dim;
    params.instances_per_object = args.gen_instances;
    params.seed = args.seed;
    objects = GenerateSyntheticObjects(params);
  }
  // A durable store may legitimately be empty (fresh, or drained by
  // deletes); without durability an empty dataset serves nothing useful.
  if (objects.empty() && args.wal_dir.empty()) {
    Die("dataset holds no objects");
  }

  EngineOptions engine_options{.num_threads = args.threads,
                               .queue_capacity = args.queue,
                               .shed_on_overload = args.shed,
                               .slow_query_threshold_ms = args.slow_query_ms,
                               .per_query_mem_bytes = args.mem_budget_bytes,
                               .engine_mem_bytes =
                                   args.engine_mem_budget_bytes};
  engine_options.profile_cache_bytes = args.profile_cache_bytes;
  engine_options.fold_interval_s = args.fold_interval_s;
  // Checkpoints ride folds, so the checkpoint interval is a fold interval
  // that may only tighten an explicitly configured one.
  if (args.checkpoint_interval_s > 0 &&
      (engine_options.fold_interval_s <= 0 ||
       engine_options.fold_interval_s > args.checkpoint_interval_s)) {
    engine_options.fold_interval_s = args.checkpoint_interval_s;
  }
  engine_options.fold_delta_threshold = args.fold_delta;
  QueryEngine engine(Dataset(std::move(objects)), engine_options);

  io::DurableStore store;
  const bool durable = !args.wal_dir.empty();
  if (durable) {
    std::string serr;
    if (!store.Open(args.wal_dir, rec.last_seq, &serr)) Die(serr);
    engine.versioned().AttachDurability(&store, rec.last_seq);
    // Startup checkpoint: makes --input/--gen-data seeds durable on first
    // boot and bounds the replay chain after every recovery.
    store.Checkpoint(engine.versioned().Acquire(), rec.last_seq);
  }

  net::ServerOptions options;
  options.host = args.host;
  options.port = args.port;
  options.max_connections = args.max_connections;
  if (args.max_output_buffer_bytes > 0) {
    options.max_output_buffer_bytes =
        static_cast<size_t>(args.max_output_buffer_bytes);
  }
  if (args.high_watermark_bytes > 0) {
    options.output_high_watermark_bytes =
        static_cast<size_t>(args.high_watermark_bytes);
    options.output_low_watermark_bytes =
        args.low_watermark_bytes > 0
            ? static_cast<size_t>(args.low_watermark_bytes)
            : 0;
  }
  options.idle_timeout_s = args.idle_timeout_s;
  options.write_stall_timeout_s = args.write_stall_timeout_s;
  options.default_policy = args.default_policy;
  options.tenants = args.tenants;
  if (durable) options.durable = &store;

  net::OsdServer server(&engine, options);
  std::string error;
  if (!server.Start(&error)) Die(error);
  g_server = &server;

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  std::fprintf(stderr,
               "osd_server: %d objects, dim %d, %d worker thread(s)\n",
               engine.dataset().size(), engine.dataset().dim(),
               engine.num_threads());
  // The machine-readable ready line; the smoke harness parses it.
  std::printf("listening on %s:%d\n", args.host.c_str(), server.port());
  std::fflush(stdout);

  server.Wait();
  g_server = nullptr;

  if (durable) {
    // The loop exit already drained the engine (fold thread stopped, no
    // query in flight), so no Append can race the seal.
    engine.versioned().DetachDurability();
    const uint64_t final_seq = engine.versioned().last_seq();
    std::string serr;
    if (store.Seal(final_seq, &serr)) {
      std::fprintf(stderr, "osd_server: WAL sealed at seq %llu\n",
                   static_cast<unsigned long long>(final_seq));
    } else {
      std::fprintf(stderr,
                   "osd_server: warning: could not seal WAL (next start "
                   "will report an unclean shutdown): %s\n",
                   serr.c_str());
    }
  }

  std::fprintf(stderr,
               "osd_server: drained; %ld submitted, %ld completed, "
               "%ld in flight, %ld connection(s) served\n",
               server.queries_submitted(), server.queries_completed(),
               server.inflight(), server.connections_accepted());
  if (!args.metrics_out.empty()) {
    const std::string text = server.MetricsText();
    std::FILE* f = std::fopen(args.metrics_out.c_str(), "w");
    if (f == nullptr) Die("cannot open --metrics-out " + args.metrics_out);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  if (args.slow_query_ms > 0) {
    std::fprintf(stderr, "%s\n", engine.SlowQueryDump().c_str());
  }
  return server.inflight() == 0 ? 0 : 1;
}
