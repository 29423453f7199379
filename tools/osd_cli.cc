// Command-line NN-candidate search over user-provided datasets.
//
// Usage:
//   osd_cli --input data.txt [--weighted] [--binary]
//           (--query-id N | --query-file q.txt)
//           [--op ssd|sssd|psd|fsd|f+sd] [--k K] [--metric l2|l1]
//           [--filters all|bf|p|g|gp] [--progressive] [--rank-by f]
//           [--deadline S] [--accept-degraded] [--mem-budget B]
//           [--failpoints SPEC] [--trace]
//
//   osd_cli query --port P [--host H] [--tenant NAME]
//           (--query-id N | --query-file q.txt)
//           [--op ...] [--k ...] [--metric ...] [--filters ...]
//           [--deadline-ms D] [--accept-degraded]
//           [--mem-budget B] [--no-stream] [--trace]
//           [--cancel-after-ms X]
//     A --query-file holding N > 1 objects runs in batch mode: all N are
//     submitted over the one connection (ids 1..N) before any frame is
//     read, so the server runs them concurrently. Frames interleave
//     across ids; exit 0 iff every query ends OK / OK_DEGRADED.
//
//   osd_cli mutate --port P [--host H] [--tenant NAME]
//           [--insert ID:ROWS] [--update ID:ROWS] [--delete ID] ...
//     ROWS is a semicolon-separated instance list, each instance being
//     "x_1,...,x_d,w" (d coordinates plus a positive weight), e.g.
//     --insert "1000:0.1,0.2,1;0.3,0.4,2". Ops repeat and apply in order
//     as ONE all-or-nothing batch; the reply is mutate_ok with the new
//     epoch, or a write_denied / bad_mutation error frame.
//
//   osd_cli wal-dump PATH
//     Offline WAL inspection: PATH is a WAL segment file or a --wal-dir
//     directory (all segments, ascending). Prints one JSON line per
//     record ({"type":"record",...} with seq/kind/ops) and a
//     {"type":"segment",...} summary per file carrying the scan verdict
//     (ok / torn_tail / corrupt), seal state and valid byte count. Exit
//     0 iff every segment scanned clean.
//
//   osd_cli checkpoint-info PATH
//     PATH is a checkpoint file or a --wal-dir directory. Prints one
//     {"type":"checkpoint",...} JSON line per file: covered WAL seq and
//     object count, or valid:false with the load error (checksum
//     mismatch, truncation). Exit 0 iff every checkpoint loads.
//
//   osd_cli serve-batch --input data.txt [--weighted] [--binary]
//           (--workload queries.txt | --gen-queries N [--seed S])
//           [--threads T] [--op ...] [--k ...] [--metric ...] [--filters ...]
//           [--deadline-ms D | --deadline S] [--accept-degraded]
//           [--mem-budget B] [--engine-mem-budget B]
//           [--shed] [--failpoints SPEC]
//           [--trace] [--metrics-out FILE] [--slow-query-ms X]
//
// Robustness controls:
//   --deadline S        per-query budget in seconds (--deadline-ms in ms)
//   --accept-degraded   anytime mode: a query stopped by its deadline or
//                       memory budget returns the confirmed candidates plus
//                       the unexpanded frontier — a certified superset of
//                       the exact answer (status OK_DEGRADED) — instead of
//                       a partial set
//   --mem-budget B      per-query memory budget in bytes (k/m/g suffixes
//                       accepted, e.g. 64m). A query whose tracked
//                       allocations pass the cap degrades (with
//                       --accept-degraded) or fails with a precise
//                       MemoryExceeded error — never the process.
//   --engine-mem-budget B
//                       serve-batch: engine-wide cap across all in-flight
//                       queries; Submit applies admission control above
//                       90% of it (reject under --shed, block otherwise)
//   --shed              serve-batch: reject (REJECTED) instead of blocking
//                       when the submission queue saturates
//   --failpoints SPEC   arm fault-injection sites (see common/failpoint.h);
//                       requires a -DOSD_FAILPOINTS=ON build to fire. The
//                       $OSD_FAILPOINTS env var is honoured too.
//
// Observability controls (see src/obs/):
//   --trace             single query: print the per-query trace (nested
//                       timed spans + filter-stage aggregates) as JSON;
//                       serve-batch: collect a trace per query so slow-log
//                       entries carry them. Needs a -DOSD_TRACING=ON build
//                       (the default) for span timings to be non-empty.
//   --metrics-out FILE  serve-batch: write the engine metrics in Prometheus
//                       text exposition format to FILE after the run
//   --slow-query-ms X   serve-batch: keep the slowest queries at or above
//                       X ms end-to-end and print them as JSON after the
//                       engine stats
//
// The input follows the text format of io/dataset_io.h (or the binary
// cache format with --binary). The query is either an object of the
// dataset (excluded from the search) or the single object of a separate
// file. --rank-by additionally orders the candidates by an NN function
// (mean, max, quantile=PHI, emd, hausdorff).
//
// query is a one-shot network client for a running osd_server (see
// tools/osd_server.cc and src/net/): it connects, submits one query over
// the wire protocol and prints every received frame — progressive
// "candidate" events, then the terminal "result" — as one JSON object per
// line. --cancel-after-ms sends a cancel that long after submitting (the
// degraded/cancel paths of the smoke harness). The exit code is 0 for
// OK / OK_DEGRADED, 1 for any other terminal status, 2 for usage or
// connection errors.
//
// serve-batch runs a whole query workload concurrently through the
// QueryEngine (src/engine/): every object of --workload (same text format
// as the dataset) — or N generated queries seeded from dataset objects —
// is submitted to a fixed-size thread pool, optionally with a per-query
// deadline, and the engine-level stats (throughput, latency percentiles,
// summed work counters) are printed as JSON.

#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <thread>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "core/nnc_search.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "io/dataset_io.h"
#include "io/durable_store.h"
#include "io/wal.h"
#include "net/client.h"
#include "net/json.h"
#include "net/protocol.h"
#include "nnfun/n1_functions.h"
#include "nnfun/n3_functions.h"
#include "obs/trace.h"

namespace {

using namespace osd;

struct Args {
  bool serve_batch = false;
  std::string input;
  std::string query_file;
  int query_id = -1;
  bool weighted = false;
  bool binary = false;
  Operator op = Operator::kPSd;
  int k = 1;
  Metric metric = Metric::kL2;
  FilterConfig filters = FilterConfig::All();
  bool progressive = false;
  std::string rank_by;
  double deadline_s = 0.0;
  bool accept_degraded = false;
  long mem_budget_bytes = 0;         // per-query; 0 = unlimited
  long engine_mem_budget_bytes = 0;  // serve-batch engine-wide; 0 = unlimited
  std::string failpoints;
  bool trace = false;
  // serve-batch only:
  std::string metrics_out;
  double slow_query_ms = 0.0;
  std::string workload_file;
  int gen_queries = 0;
  uint64_t seed = 42;
  int threads = 0;  // 0 = hardware concurrency
  bool shed = false;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "osd_cli: %s\n", message.c_str());
  std::exit(2);
}

/// Parses "64m"-style byte sizes (plain bytes, or a k/m/g binary suffix,
/// case-insensitive). Returns a strictly positive count or dies.
long ParseByteSize(const std::string& s, const char* flag) {
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  long multiplier = 1;
  if (end != nullptr && *end != '\0') {
    switch (*end) {
      case 'k': case 'K': multiplier = 1L << 10; break;
      case 'm': case 'M': multiplier = 1L << 20; break;
      case 'g': case 'G': multiplier = 1L << 30; break;
      default: Die(std::string(flag) + ": bad byte size '" + s + "'");
    }
    if (*(end + 1) != '\0') {
      Die(std::string(flag) + ": bad byte size '" + s + "'");
    }
  }
  const double bytes = value * static_cast<double>(multiplier);
  if (!(bytes >= 1) || bytes > 9e18) {
    Die(std::string(flag) + " must be a positive byte count");
  }
  return static_cast<long>(bytes);
}

/// Parses the whole of `s` as a finite number > 0, or dies naming `flag`.
double ParsePositive(const std::string& s, const char* flag) {
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(value) ||
      value <= 0) {
    Die(std::string(flag) + " must be a finite number > 0, got '" + s + "'");
  }
  return value;
}

Args Parse(int argc, char** argv) {
  Args args;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) Die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "serve-batch") == 0) {
    args.serve_batch = true;
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--input") {
      args.input = need_value(i);
    } else if (flag == "--query-file") {
      args.query_file = need_value(i);
    } else if (flag == "--query-id") {
      args.query_id = std::atoi(need_value(i).c_str());
    } else if (flag == "--weighted") {
      args.weighted = true;
    } else if (flag == "--binary") {
      args.binary = true;
    } else if (flag == "--op") {
      if (!ParseOperatorName(need_value(i), &args.op)) Die("unknown --op");
    } else if (flag == "--k") {
      args.k = std::atoi(need_value(i).c_str());
      if (args.k < 1) Die("--k must be >= 1");
    } else if (flag == "--metric") {
      const std::string m = need_value(i);
      if (m == "l2") args.metric = Metric::kL2;
      else if (m == "l1") args.metric = Metric::kL1;
      else Die("unknown --metric");
    } else if (flag == "--filters") {
      if (!ParseFilterName(need_value(i), &args.filters)) Die("unknown --filters");
    } else if (flag == "--progressive") {
      args.progressive = true;
    } else if (flag == "--rank-by") {
      args.rank_by = need_value(i);
    } else if (flag == "--deadline") {
      args.deadline_s = ParsePositive(need_value(i), "--deadline");
    } else if (flag == "--accept-degraded") {
      args.accept_degraded = true;
    } else if (flag == "--mem-budget") {
      args.mem_budget_bytes = ParseByteSize(need_value(i), "--mem-budget");
    } else if (args.serve_batch && flag == "--engine-mem-budget") {
      args.engine_mem_budget_bytes =
          ParseByteSize(need_value(i), "--engine-mem-budget");
    } else if (flag == "--failpoints") {
      args.failpoints = need_value(i);
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (args.serve_batch && flag == "--metrics-out") {
      args.metrics_out = need_value(i);
    } else if (args.serve_batch && flag == "--slow-query-ms") {
      args.slow_query_ms = ParsePositive(need_value(i), "--slow-query-ms");
    } else if (args.serve_batch && flag == "--workload") {
      args.workload_file = need_value(i);
    } else if (args.serve_batch && flag == "--gen-queries") {
      args.gen_queries = std::atoi(need_value(i).c_str());
      if (args.gen_queries < 1) Die("--gen-queries must be >= 1");
    } else if (args.serve_batch && flag == "--seed") {
      args.seed = std::strtoull(need_value(i).c_str(), nullptr, 10);
    } else if (args.serve_batch && flag == "--threads") {
      args.threads = std::atoi(need_value(i).c_str());
    } else if (args.serve_batch && flag == "--deadline-ms") {
      args.deadline_s = ParsePositive(need_value(i), "--deadline-ms") / 1e3;
    } else if (args.serve_batch && flag == "--shed") {
      args.shed = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.input.empty()) Die("--input is required");
  if (args.serve_batch) {
    if (args.workload_file.empty() == (args.gen_queries == 0)) {
      Die("serve-batch needs exactly one of --workload / --gen-queries");
    }
  } else if (args.query_file.empty() && args.query_id < 0) {
    Die("one of --query-id / --query-file is required");
  }
  return args;
}

/// serve-batch: run a workload through the concurrent engine, print stats.
int ServeBatch(const Args& args, std::vector<UncertainObject> objects) {
  Dataset dataset(std::move(objects));

  std::vector<QuerySpec> specs;
  NncOptions base;
  base.op = args.op;
  base.k = args.k;
  base.metric = args.metric;
  base.filters = args.filters;
  base.degraded_superset = args.accept_degraded;

  if (!args.workload_file.empty()) {
    std::vector<UncertainObject> queries;
    std::string error;
    if (!LoadText(args.workload_file, &queries, &error)) Die(error);
    if (queries.empty()) Die("--workload holds no query objects");
    specs.reserve(queries.size());
    for (UncertainObject& q : queries) {
      QuerySpec spec;
      spec.query = std::move(q);
      spec.options = base;
      spec.deadline_seconds = args.deadline_s;
      spec.collect_trace = args.trace;
      specs.push_back(std::move(spec));
    }
  } else {
    WorkloadParams wp;
    wp.num_queries = args.gen_queries;
    wp.seed = args.seed;
    for (auto& entry : GenerateWorkload(dataset, wp)) {
      NncOptions per_query = base;
      per_query.exclude_id = entry.seeded_from;
      QuerySpec spec;
      spec.query = std::move(entry.query);
      spec.options = per_query;
      spec.deadline_seconds = args.deadline_s;
      spec.collect_trace = args.trace;
      specs.push_back(std::move(spec));
    }
  }

  const size_t num_queries = specs.size();
  QueryEngine engine(std::move(dataset),
                     {.num_threads = args.threads,
                      .shed_on_overload = args.shed,
                      .slow_query_threshold_ms = args.slow_query_ms,
                      .per_query_mem_bytes = args.mem_budget_bytes,
                      .engine_mem_bytes = args.engine_mem_budget_bytes});
  std::fprintf(stderr, "serve-batch: %zu queries on %d threads, operator %s\n",
               num_queries, engine.num_threads(), OperatorName(args.op));

  auto tickets = engine.SubmitBatch(std::move(specs));
  engine.Drain();

  // Shed queries are an expected outcome under --shed, so only true errors
  // fail the exit code; both kinds are reported for diagnosability.
  long failed = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryStatus status = tickets[i]->status();
    if (status == QueryStatus::kError) {
      ++failed;
      std::fprintf(stderr, "query %zu: %s: %s\n", i, QueryStatusName(status),
                   tickets[i]->error().c_str());
    } else if (status == QueryStatus::kRejected && !args.shed) {
      ++failed;
      std::fprintf(stderr, "query %zu: %s: %s\n", i, QueryStatusName(status),
                   tickets[i]->error().c_str());
    }
  }
  std::printf("%s\n", engine.Snapshot().ToJson().c_str());
  if (!args.metrics_out.empty()) {
    const std::string text = engine.MetricsText();
    std::FILE* f = std::fopen(args.metrics_out.c_str(), "w");
    if (f == nullptr) Die("cannot open --metrics-out " + args.metrics_out);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "metrics written to %s\n", args.metrics_out.c_str());
  }
  if (args.slow_query_ms > 0) {
    std::printf("%s\n", engine.SlowQueryDump().c_str());
  }
  return failed == 0 ? 0 : 1;
}

// --- `query` network-client subcommand -----------------------------------

struct QueryClientArgs {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string tenant = "default";
  std::string query_file;
  int query_id = -1;
  std::string op = "psd";
  int k = 1;
  std::string metric = "l2";
  std::string filters = "all";
  double deadline_ms = 0.0;
  bool accept_degraded = false;
  long mem_budget_bytes = 0;
  bool stream = true;
  bool trace = false;
  double cancel_after_ms = 0.0;  // 0 = never cancel
};

QueryClientArgs ParseQueryClient(int argc, char** argv) {
  QueryClientArgs args;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) Die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--host") {
      args.host = need_value(i);
    } else if (flag == "--port") {
      args.port = std::atoi(need_value(i).c_str());
    } else if (flag == "--tenant") {
      args.tenant = need_value(i);
    } else if (flag == "--query-file") {
      args.query_file = need_value(i);
    } else if (flag == "--query-id") {
      args.query_id = std::atoi(need_value(i).c_str());
    } else if (flag == "--op") {
      args.op = need_value(i);
      Operator op;
      if (!ParseOperatorName(args.op, &op)) Die("unknown --op");
    } else if (flag == "--k") {
      args.k = std::atoi(need_value(i).c_str());
      if (args.k < 1) Die("--k must be >= 1");
    } else if (flag == "--metric") {
      args.metric = need_value(i);
      if (args.metric != "l2" && args.metric != "l1") Die("unknown --metric");
    } else if (flag == "--filters") {
      args.filters = need_value(i);
      FilterConfig config;
      if (!ParseFilterName(args.filters, &config)) Die("unknown --filters");
    } else if (flag == "--deadline-ms") {
      args.deadline_ms = ParsePositive(need_value(i), "--deadline-ms");
    } else if (flag == "--accept-degraded") {
      args.accept_degraded = true;
    } else if (flag == "--mem-budget") {
      args.mem_budget_bytes = ParseByteSize(need_value(i), "--mem-budget");
    } else if (flag == "--no-stream") {
      args.stream = false;
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--cancel-after-ms") {
      args.cancel_after_ms =
          ParsePositive(need_value(i), "--cancel-after-ms");
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.port <= 0) Die("query needs --port");
  if (args.query_file.empty() == (args.query_id < 0)) {
    Die("query needs exactly one of --query-id / --query-file");
  }
  return args;
}

int RunQueryClient(const QueryClientArgs& args) {
  // A --query-file with N objects is a batch: every object is submitted as
  // its own query (ids 1..N) over this single connection, and the client
  // reads until all N terminal frames arrive. The server interleaves
  // candidate/result frames across the in-flight ids; each frame carries
  // its id, so consumers demultiplex on that. A single-object file (or
  // --query-id) degenerates to the classic one-query exchange.
  std::vector<UncertainObject> inline_queries;
  if (!args.query_file.empty()) {
    std::string error;
    if (!LoadText(args.query_file, &inline_queries, &error)) Die(error);
    if (inline_queries.empty()) Die("--query-file holds no query objects");
  }
  const size_t num_queries =
      inline_queries.empty() ? 1 : inline_queries.size();

  net::OsdClient client;
  std::string error;
  if (!client.Connect(args.host, args.port, args.tenant, &error)) {
    Die("connect: " + error);
  }
  for (size_t i = 0; i < num_queries; ++i) {
    net::SubmitParams params;
    params.id = static_cast<int>(i) + 1;
    params.op = args.op;
    params.k = args.k;
    params.metric = args.metric;
    params.filters = args.filters;
    params.deadline_ms = args.deadline_ms;
    params.accept_degraded = args.accept_degraded;
    params.mem_budget_bytes = args.mem_budget_bytes;
    params.stream = args.stream;
    params.trace = args.trace;
    if (!inline_queries.empty()) {
      params.query = &inline_queries[i];
    } else {
      params.object_id = args.query_id;
    }
    if (!client.Send(net::BuildSubmitMessage(params), &error)) {
      Die("submit: " + error);
    }
  }
  if (args.cancel_after_ms > 0) {
    // Sequential on purpose: candidate frames buffer in the socket while
    // we sleep, and the client is not thread-safe.
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(args.cancel_after_ms));
    for (size_t i = 0; i < num_queries; ++i) {
      if (!client.Send(net::BuildCancelMessage(static_cast<int>(i) + 1),
                       &error)) {
        Die("cancel: " + error);
      }
    }
  }

  // Print every frame as one JSON line until each submitted id has its
  // terminal frame. The exit code is 0 iff every query ended OK/OK_DEGRADED.
  size_t terminal = 0;
  bool all_ok = true;
  while (terminal < num_queries) {
    net::JsonValue msg;
    std::string raw;
    if (!client.Read(&msg, &error, &raw)) Die("read: " + error);
    std::printf("%s\n", raw.c_str());
    const std::string type = net::MessageType(msg);
    if (type == "result") {
      ++terminal;
      const net::JsonValue* status = msg.Find("status");
      if (status == nullptr || !status->is_string() ||
          (status->AsString() != "OK" &&
           status->AsString() != "OK_DEGRADED")) {
        all_ok = false;
      }
    } else if (type == "error") {
      ++terminal;
      all_ok = false;
    }
  }
  std::fflush(stdout);
  return all_ok ? 0 : 1;
}

// --- `mutate` network-client subcommand ----------------------------------

struct MutateClientArgs {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string tenant = "default";
  std::vector<net::MutateOp> ops;
};

/// Parses "x_1,..,x_d,w;x_1,..,x_d,w;..." into instance rows.
std::vector<std::vector<double>> ParseInstanceRows(const std::string& spec) {
  std::vector<std::vector<double>> rows;
  std::string rest = spec;
  while (!rest.empty()) {
    const size_t semi = rest.find(';');
    const std::string row = rest.substr(0, semi);
    rest = semi == std::string::npos ? "" : rest.substr(semi + 1);
    std::vector<double> values;
    const char* p = row.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      const double v = std::strtod(p, &end);
      if (end == p) Die("bad instance row '" + row + "'");
      values.push_back(v);
      p = end;
      if (*p == ',') ++p;
      else if (*p != '\0') Die("bad instance row '" + row + "'");
    }
    if (values.size() < 2) {
      Die("instance row needs at least one coordinate and a weight: '" +
          row + "'");
    }
    rows.push_back(std::move(values));
  }
  if (rows.empty()) Die("empty instance list");
  return rows;
}

/// Parses "ID:ROWS" into one insert/update op ("ID" alone for delete).
net::MutateOp ParseMutateOp(const std::string& action,
                            const std::string& spec) {
  net::MutateOp op;
  op.action = action;
  if (action == "delete") {
    op.object_id = std::atoi(spec.c_str());
    if (op.object_id < 0) Die("--delete: bad object id '" + spec + "'");
    return op;
  }
  const size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    Die("--" + action + " must look like ID:x,..,w;x,..,w");
  }
  op.object_id = std::atoi(spec.substr(0, colon).c_str());
  if (op.object_id < 0) Die("--" + action + ": bad object id");
  op.instances = ParseInstanceRows(spec.substr(colon + 1));
  return op;
}

MutateClientArgs ParseMutateClient(int argc, char** argv) {
  MutateClientArgs args;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) Die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--host") {
      args.host = need_value(i);
    } else if (flag == "--port") {
      args.port = std::atoi(need_value(i).c_str());
    } else if (flag == "--tenant") {
      args.tenant = need_value(i);
    } else if (flag == "--insert") {
      args.ops.push_back(ParseMutateOp("insert", need_value(i)));
    } else if (flag == "--update") {
      args.ops.push_back(ParseMutateOp("update", need_value(i)));
    } else if (flag == "--delete") {
      args.ops.push_back(ParseMutateOp("delete", need_value(i)));
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.port <= 0) Die("mutate needs --port");
  if (args.ops.empty()) {
    Die("mutate needs at least one --insert / --update / --delete");
  }
  return args;
}

int RunMutateClient(const MutateClientArgs& args) {
  net::OsdClient client;
  std::string error;
  if (!client.Connect(args.host, args.port, args.tenant, &error)) {
    Die("connect: " + error);
  }
  if (!client.Send(net::BuildMutateMessage(1, args.ops), &error)) {
    Die("mutate: " + error);
  }
  while (true) {
    net::JsonValue msg;
    std::string raw;
    if (!client.Read(&msg, &error, &raw)) Die("read: " + error);
    std::printf("%s\n", raw.c_str());
    const std::string type = net::MessageType(msg);
    if (type == "mutate_ok") {
      std::fflush(stdout);
      return 0;
    }
    if (type == "error") {
      std::fflush(stdout);
      return 1;
    }
  }
}

// --- `wal-dump` / `checkpoint-info` durability-inspection subcommands ----

bool IsDirectory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/// Scans one WAL segment and prints its records plus a summary line.
/// Returns true iff the scan verdict is kOk.
bool DumpWalSegment(const std::string& path) {
  const io::WalScanResult scan = io::ScanWal(path);
  for (const io::WalRecordInfo& rec : scan.records) {
    std::string line = "{\"type\":\"record\",\"file\":";
    net::AppendJsonString(&line, path);
    line += ",\"offset\":" + std::to_string(rec.offset);
    line += ",\"seq\":" + std::to_string(rec.seq);
    if (rec.seal) {
      line += ",\"kind\":\"seal\"}";
    } else {
      line += ",\"kind\":\"batch\",\"ops\":[";
      for (size_t i = 0; i < rec.ops.size(); ++i) {
        const Mutation& op = rec.ops[i];
        if (i > 0) line += ",";
        line += "{\"op\":\"";
        line += op.kind == Mutation::Kind::kInsert   ? "insert"
                : op.kind == Mutation::Kind::kDelete ? "delete"
                                                     : "update";
        line += "\",\"id\":" + std::to_string(op.id);
        if (op.object != nullptr) {
          line += ",\"instances\":" +
                  std::to_string(op.object->num_instances());
        }
        line += "}";
      }
      line += "]}";
    }
    std::printf("%s\n", line.c_str());
  }
  const char* status = scan.status == io::WalScanStatus::kOk ? "ok"
                       : scan.status == io::WalScanStatus::kTornTail
                           ? "torn_tail"
                           : "corrupt";
  std::string line = "{\"type\":\"segment\",\"file\":";
  net::AppendJsonString(&line, path);
  line += std::string(",\"status\":\"") + status + "\"";
  line += ",\"start_seq\":" + std::to_string(scan.start_seq);
  line += std::string(",\"sealed\":") + (scan.sealed ? "true" : "false");
  line += ",\"records\":" + std::to_string(scan.records.size());
  line += ",\"valid_bytes\":" + std::to_string(scan.valid_bytes);
  if (!scan.detail.empty()) {
    line += ",\"detail\":";
    net::AppendJsonString(&line, scan.detail);
  }
  line += "}";
  std::printf("%s\n", line.c_str());
  return scan.status == io::WalScanStatus::kOk;
}

int RunWalDump(int argc, char** argv) {
  if (argc != 3) Die("usage: osd_cli wal-dump FILE_OR_WAL_DIR");
  const std::string path = argv[2];
  std::vector<std::string> segments;
  if (IsDirectory(path)) {
    std::vector<std::string> checkpoints;
    std::string error;
    if (!io::DurableStore::ListFiles(path, &segments, &checkpoints, &error)) {
      Die(error);
    }
    if (segments.empty()) Die("no WAL segments in " + path);
  } else {
    segments.push_back(path);
  }
  bool all_ok = true;
  for (const std::string& segment : segments) {
    if (!DumpWalSegment(segment)) all_ok = false;
  }
  std::fflush(stdout);
  return all_ok ? 0 : 1;
}

/// Loads one checkpoint and prints a summary line. Returns true iff valid.
bool DumpCheckpoint(const std::string& path) {
  std::vector<UncertainObject> objects;
  uint64_t wal_seq = 0;
  std::string error;
  const bool valid = LoadCheckpoint(path, &objects, &wal_seq, &error);
  std::string line = "{\"type\":\"checkpoint\",\"file\":";
  net::AppendJsonString(&line, path);
  if (valid) {
    line += ",\"valid\":true";
    line += ",\"wal_seq\":" + std::to_string(wal_seq);
    line += ",\"objects\":" + std::to_string(objects.size()) + "}";
  } else {
    line += ",\"valid\":false,\"error\":";
    net::AppendJsonString(&line, error);
    line += "}";
  }
  std::printf("%s\n", line.c_str());
  return valid;
}

int RunCheckpointInfo(int argc, char** argv) {
  if (argc != 3) Die("usage: osd_cli checkpoint-info FILE_OR_WAL_DIR");
  const std::string path = argv[2];
  std::vector<std::string> checkpoints;
  if (IsDirectory(path)) {
    std::vector<std::string> segments;
    std::string error;
    if (!io::DurableStore::ListFiles(path, &segments, &checkpoints, &error)) {
      Die(error);
    }
    if (checkpoints.empty()) Die("no checkpoints in " + path);
  } else {
    checkpoints.push_back(path);
  }
  bool all_ok = true;
  for (const std::string& checkpoint : checkpoints) {
    if (!DumpCheckpoint(checkpoint)) all_ok = false;
  }
  std::fflush(stdout);
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "query") == 0) {
    return RunQueryClient(ParseQueryClient(argc, argv));
  }
  if (argc > 1 && std::strcmp(argv[1], "mutate") == 0) {
    return RunMutateClient(ParseMutateClient(argc, argv));
  }
  if (argc > 1 && std::strcmp(argv[1], "wal-dump") == 0) {
    return RunWalDump(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "checkpoint-info") == 0) {
    return RunCheckpointInfo(argc, argv);
  }
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
                   "osd_cli: warning: failpoints armed but this build has "
                   "no sites compiled in (rebuild with -DOSD_FAILPOINTS=ON)\n");
    }
  }

  std::vector<UncertainObject> objects;
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

  if (args.serve_batch) return ServeBatch(args, std::move(objects));

  UncertainObject query;
  int exclude = -1;
  if (!args.query_file.empty()) {
    std::vector<UncertainObject> qset;
    if (!LoadText(args.query_file, &qset, &error)) Die(error);
    if (qset.size() != 1) Die("--query-file must hold exactly one object");
    query = std::move(qset[0]);
  } else {
    if (args.query_id >= static_cast<int>(objects.size())) {
      Die("--query-id out of range");
    }
    query = objects[args.query_id];
    exclude = args.query_id;
  }

  const Dataset dataset(std::move(objects));
  NncOptions options;
  options.op = args.op;
  options.k = args.k;
  options.metric = args.metric;
  options.filters = args.filters;
  options.exclude_id = exclude;
  options.degraded_superset = args.accept_degraded;

  obs::Trace trace("osd_cli");
  if (args.trace) options.trace = &trace;

  QueryControl control;
  if (args.deadline_s > 0) {
    control.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(args.deadline_s));
    options.control = &control;
  }

  // A per-query memory budget wraps the whole search; without
  // --accept-degraded a breach surfaces as MemoryExceeded, which we turn
  // into a clean exit instead of an unhandled-exception abort.
  NncResult result;
  try {
    memory::QueryBudgetScope mem_scope(args.mem_budget_bytes, nullptr);
    result = NncSearch(dataset, options)
                 .Run(query, [&](int id, double t) {
                   if (args.progressive) {
                     std::printf("candidate %d at %.3f ms\n", id, t * 1e3);
                   }
                 });
  } catch (const MemoryExceeded& e) {
    Die(std::string(e.what()) +
        " (rerun with --accept-degraded for a certified superset, or raise "
        "--mem-budget)");
  }

  std::printf("operator %s, k=%d: %zu candidates of %d objects in %.2f ms\n",
              OperatorName(args.op), args.k, result.candidates.size(),
              dataset.size(), result.seconds * 1e3);
  if (result.termination != NncTermination::kComplete) {
    const char* why =
        result.termination == NncTermination::kCancelled ? "cancelled"
        : result.termination == NncTermination::kMemoryExceeded
            ? "memory budget exceeded"
            : "deadline exceeded";
    if (result.degraded) {
      std::printf("status: %s — degraded superset (%ld unrefined frontier "
                  "objects from %ld subtrees; every true candidate is "
                  "included)\n",
                  why, result.frontier_objects, result.frontier_nodes);
    } else {
      std::printf("status: %s — partial result (rerun with "
                  "--accept-degraded for a certified superset)\n",
                  why);
    }
  }
  std::printf("work: %ld dominance checks, %ld instance comparisons, "
              "%ld flow runs, %ld entries pruned\n",
              result.stats.dominance_checks,
              result.stats.InstanceComparisons(), result.stats.flow_runs,
              result.entries_pruned);
  if (args.trace) std::printf("trace: %s\n", trace.ToJson().c_str());

  if (args.rank_by.empty()) {
    std::printf("candidates:");
    for (int id : result.candidates) std::printf(" %d", id);
    std::printf("\n");
    return 0;
  }

  std::vector<std::pair<double, int>> ranked;
  for (int idx : result.candidates) {
    const UncertainObject& o = dataset.object(idx);
    double score = 0.0;
    if (args.rank_by == "mean") {
      score = ExpectedDistance(o, query, args.metric);
    } else if (args.rank_by == "max") {
      score = MaxDistance(o, query, args.metric);
    } else if (args.rank_by.rfind("quantile=", 0) == 0) {
      score = QuantileDistance(o, query, std::atof(args.rank_by.c_str() + 9),
                               args.metric);
    } else if (args.rank_by == "emd") {
      score = EmdDistance(o, query, args.metric);
    } else if (args.rank_by == "hausdorff") {
      score = HausdorffDistance(o, query, args.metric);
    } else {
      Die("unknown --rank-by function");
    }
    ranked.emplace_back(score, idx);
  }
  std::sort(ranked.begin(), ranked.end());
  std::printf("candidates by %s:\n", args.rank_by.c_str());
  for (const auto& [score, idx] : ranked) {
    std::printf("  %-8d %.4f\n", idx, score);
  }
  return 0;
}
