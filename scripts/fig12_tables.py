#!/usr/bin/env python3
"""Reads the tables bench/fig12_time_datasets prints.

    python3 scripts/fig12_tables.py check BENCH_kernels.json FIG12_OUTPUT

fig12 prints three tables with one cell per (dataset, operator): the mean
query time in ms, the answer digest, and the mean exact_checks per query.
`check` compares every digest in FIG12_OUTPUT (one run's stdout) with the
"fig12" "digest" table of BENCH_kernels.json and exits 1 naming each cell
that differs or is missing on either side. Times are not compared.
scripts/run_benches.sh imports parse() to record the tables.
"""

import json
import sys

# A header row's first word names its table.
TABLES = {"dataset": "ms", "digest": "digest", "exact_checks": "exact_checks"}


def parse(path):
    """fig12's stdout -> {table: {dataset: {op: value}}}: times and
    exact_checks as floats, digests as hex strings."""
    tables, table, ops = {}, None, None
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0] == "===":
                continue
            if parts[0] in TABLES:
                table, ops = TABLES[parts[0]], parts[1:]
                continue
            if ops and len(parts) == len(ops) + 1:
                vals = parts[1:]
                if table != "digest":
                    vals = [float(v) for v in vals]
                tables.setdefault(table, {})[parts[0]] = dict(zip(ops, vals))
    return tables


def check(bench_json, fig12_output):
    with open(bench_json) as f:
        want = json.load(f)["fig12"]["digest"]
    got = parse(fig12_output).get("digest", {})
    cells = sorted({(ds, op) for side in (want, got)
                    for ds, row in side.items() for op in row})
    bad = 0
    for ds, op in cells:
        w = want.get(ds, {}).get(op)
        g = got.get(ds, {}).get(op)
        if w != g:
            print(f"fig12 {ds} {op}: digest {g}, {bench_json} has {w}")
            bad += 1
    print(f"fig12 digests: {len(cells) - bad}/{len(cells)} cells match "
          f"{bench_json}")
    return 1 if bad or not cells else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "check":
        sys.exit(__doc__)
    sys.exit(check(sys.argv[2], sys.argv[3]))
