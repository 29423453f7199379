#!/usr/bin/env bash
# Builds the benchmarks in Release mode, runs the kernel-sensitive suite
# (micro_dominance, micro_substrates, fig12_time_datasets), and writes
# BENCH_kernels.json at the repo root: raw numbers stamped with machine and
# commit metadata. Beside each fig12 time it records the cell's answer
# digest and mean exact_checks per query; scripts/check_fig12_digests.sh
# holds a fresh run's digests to the recorded ones.
#
# The service tier gets its own pass: server_throughput pushes queries
# through a real OsdServer on loopback and writes BENCH_server.json
# (QPS, latency percentiles, time-to-first-candidate per concurrency),
# stamped with the same machine and commit metadata.
#
# The epoch-snapshot store gets a third pass: dynamic_throughput measures
# read QPS/latency under concurrent write rates plus Fold() latency vs.
# delta size, and writes BENCH_dynamic.json, stamped likewise.
#
# The result cache gets a fourth pass: shared_workload runs a Zipf-skewed
# multi-client closed loop with the cache off, then on, and writes
# BENCH_shared.json (aggregate QPS, latency percentiles, speedup at the
# unshared round's p99 SLO, cache hit rate), stamped likewise.
#
# Usage: scripts/run_benches.sh [build-dir]   (default: build-bench)
# Env:   OSD_BENCH_MIN_TIME    google-benchmark min seconds/case (default 0.1)
#        OSD_BENCH_FIG12_REPS  fig12 repetitions (default 3); the
#                              JSON records the per-cell minimum, which is
#                              the noise-robust estimator for end-to-end
#                              runs on a shared machine
#        OSD_BENCH_SERVER_QUERIES  queries per server_throughput round
#                              (default 128)
#        OSD_BENCH_SERVER_CLIENTS  client concurrencies (default 1,2,4)
#        OSD_BENCH_DYNAMIC_SECONDS seconds per dynamic_throughput round
#                              (default 1.5)
#        OSD_BENCH_DYNAMIC_RATES   write rates in ops/s (default 0,500,5000)
#        OSD_BENCH_SHARED_SECONDS  seconds per shared_workload round
#                              (default 2.0)
#        OSD_BENCH_SHARED_CLIENTS  shared_workload client threads (default 8)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
export MIN_TIME="${OSD_BENCH_MIN_TIME:-0.1}"
export FIG12_REPS="${OSD_BENCH_FIG12_REPS:-3}"
OUT=BENCH_kernels.json
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Prepends the machine and commit metadata to the JSON object in $1;
# fields the file already has under "meta" are kept after them.
stamp_meta() {
  python3 - "$1" <<'PY'
import json, subprocess, sys

def sh(cmd):
    return subprocess.run(cmd, shell=True, capture_output=True,
                          text=True).stdout.strip()

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
meta = {
    "generated_by": "scripts/run_benches.sh",
    "date_utc": sh("date -u +%Y-%m-%dT%H:%M:%SZ"),
    "commit": sh("git rev-parse --short HEAD"),
    "git_dirty": bool(sh("git status --porcelain")),
    "machine": {
        "uname": sh("uname -srm"),
        "cpus": int(sh("nproc") or 0),
        "cpu_model": sh("grep -m1 'model name' /proc/cpuinfo | cut -d: -f2"),
        "compiler": sh("c++ --version | head -1"),
    },
}
meta.update(doc.pop("meta", {}))
with open(path, "w") as f:
    json.dump({"meta": meta, **doc}, f, indent=1)
    f.write("\n")
PY
}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target micro_dominance micro_substrates fig12_time_datasets \
           server_throughput dynamic_throughput shared_workload

echo "== server_throughput (service tier -> BENCH_server.json) =="
"$BUILD_DIR/bench/server_throughput" \
  --queries "${OSD_BENCH_SERVER_QUERIES:-128}" \
  --clients "${OSD_BENCH_SERVER_CLIENTS:-1,2,4}" \
  --out BENCH_server.json
stamp_meta BENCH_server.json

echo "== dynamic_throughput (epoch store -> BENCH_dynamic.json) =="
"$BUILD_DIR/bench/dynamic_throughput" \
  --seconds "${OSD_BENCH_DYNAMIC_SECONDS:-1.5}" \
  --write-rates "${OSD_BENCH_DYNAMIC_RATES:-0,500,5000}" \
  --out BENCH_dynamic.json
stamp_meta BENCH_dynamic.json

echo "== shared_workload (result cache -> BENCH_shared.json) =="
"$BUILD_DIR/bench/shared_workload" \
  --seconds "${OSD_BENCH_SHARED_SECONDS:-2.0}" \
  --clients "${OSD_BENCH_SHARED_CLIENTS:-8}" \
  --out BENCH_shared.json
stamp_meta BENCH_shared.json

echo "== micro_dominance =="
"$BUILD_DIR/bench/micro_dominance" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP/micro_dominance.json"

echo "== micro_substrates =="
"$BUILD_DIR/bench/micro_substrates" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP/micro_substrates.json"

for r in $(seq 1 "$FIG12_REPS"); do
  echo "== fig12_time_datasets (rep $r/$FIG12_REPS) =="
  "$BUILD_DIR/bench/fig12_time_datasets" | tee "$TMP/fig12.$r.txt"
done

python3 - "$TMP" "$OUT" <<'PY'
import glob, json, os, sys

sys.path.insert(0, "scripts")
from fig12_tables import parse as parse_fig12

tmp, out = sys.argv[1], sys.argv[2]

# google-benchmark's own fields; any other number is a user counter (such
# as BM_BipartiteFeasible's exit mix) and is kept under "counters".
GBENCH_FIELDS = {"family_index", "per_family_instance_index", "repetitions",
                 "repetition_index", "threads", "iterations", "real_time",
                 "cpu_time", "items_per_second", "bytes_per_second"}

def load_gbench(path):
    with open(path) as f:
        doc = json.load(f)
    out = []
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        entry = {"name": b["name"],
                 "real_time_ns": round(b["real_time"], 1),
                 "cpu_time_ns": round(b["cpu_time"], 1)}
        counters = {k: v for k, v in b.items()
                    if k not in GBENCH_FIELDS and isinstance(v, (int, float))}
        if counters:
            entry["counters"] = counters
        out.append(entry)
    return out

micro_dom = load_gbench(f"{tmp}/micro_dominance.json")
micro_sub = load_gbench(f"{tmp}/micro_substrates.json")

# Times: the per-cell minimum over reps. Digests and exact_checks are
# deterministic, so every rep must print the same ones.
fig12 = {"ms": {}, "digest": {}, "exact_checks": {}}
for path in sorted(glob.glob(f"{tmp}/fig12.*.txt")):
    tables = parse_fig12(path)
    for ds, row in tables["ms"].items():
        cell = fig12["ms"].setdefault(ds, {})
        for op, ms in row.items():
            cell[op] = min(ms, cell.get(op, ms))
    for key in ("digest", "exact_checks"):
        for ds, row in tables[key].items():
            if fig12[key].setdefault(ds, row) != row:
                sys.exit(f"fig12 {key} of {ds} differs between reps")

doc = {
    "meta": {
        "build_type": "Release",
        "benchmark_min_time_s": float(os.environ["MIN_TIME"]),
        "fig12_reps_min_of": int(os.environ["FIG12_REPS"]),
    },
    "fig12": {
        "comment": "per dataset x operator: avg query ms (min over reps), "
                   "answer digest (FNV-1a over every query's sorted "
                   "candidates), mean exact_checks per query",
        **fig12,
    },
    "micro_dominance": micro_dom,
    "micro_substrates": micro_sub,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")

print(f"\nwrote {out}")
PY
stamp_meta "$OUT"
