#!/usr/bin/env python3
"""Perf-smoke gate for the combinatorial kernels.

Compares a fresh `bench_micro_algorithms --kernels` run against the
checked-in BENCH_kernels.json baseline.  The instances are seeded and
the branch-and-bound is deterministic, so `apex.clique.nodes` (the
`nodes` field) is byte-stable across machines: a change in node count
means the search itself changed, not the hardware.

Also gates `bench_micro_algorithms --miner` rows (one per paper app,
diffed against BENCH_miner.json): the DFS-code engine must produce the
byte-identical pattern list (`match`), the same pattern count as the
baseline, and at least MIN_MINER_ISO_FACTOR fewer full
isomorphism-matcher invocations than the reference growth miner — the
headline claim of the incremental-embedding rework.

MIS has no deterministic work counter, so its gate is a loose timing
ratio on the dense (`mis_dense`, two-hub) rows: occurrences sharing a
node widely are where an overlap construction that is quadratic per
shared node loses to the all-pairs reference.  The `mis_complete` row
(one node in every occurrence, fast's largest patterns) has its own
floor, set above what the bitset path reaches there, so it fails
unless the complete-overlap shortcut answers without a matrix.

Rewrite rows (one per PE library: PE Base and each analyzed app's
PE k) time the lowered rewrite-rule validator against the historic
per-assignment loop over the library's rules.  The rule count is
deterministic per library; the speedup is a loose timing ratio on the
PE Base row.

Place rows (one per analyzed app's PE Base netlist after pipelining,
placed as the sweep's first attempt) time the integer-delta annealer
against the historic double-cost loop.  The move count and the final
wirelength are deterministic per netlist; the speedup is a loose
timing ratio on the row with the most moves.

Failure conditions:
  * any clique row expands more than 2x the baseline's node count
    (the pruning bound regressed);
  * the largest clique row's weak-bound/coloring-bound node ratio
    falls below 5x (the headline reduction claim);
  * any miner row whose pattern count drifts from the baseline or
    whose matcher-call reduction falls below MIN_MINER_ISO_FACTOR;
  * the largest mis_dense row's reference/optimized wall-time ratio
    (ms_ref/ms) falls below MIN_MIS_DENSE_SPEEDUP;
  * the baseline has a mis_complete row and the current run has none,
    or a mis_complete row's ms_ref/ms falls below
    MIN_MIS_COMPLETE_SPEEDUP;
  * any rewrite row whose rule count drifts from the baseline (the
    synthesized library changed), or a PE Base rewrite row whose
    ms_ref/ms falls below MIN_REWRITE_SPEEDUP;
  * any place row whose move count or wirelength drifts from the
    baseline (the netlist or the annealer changed), or the largest
    place row's ms_ref/ms falls below MIN_PLACE_SPEEDUP;
  * any row reports match:false (optimized and reference kernels
    disagreed — a determinism-contract break).

Usage: check_kernel_perf.py CURRENT.json BASELINE.json
"""

import json
import sys

NODE_REGRESSION_FACTOR = 2.0
MIN_CLIQUE_RATIO = 5.0
MIN_MINER_ISO_FACTOR = 3.0
MIN_MIS_DENSE_SPEEDUP = 5.0
MIN_MIS_COMPLETE_SPEEDUP = 200.0
MIN_REWRITE_SPEEDUP = 5.0
MIN_PLACE_SPEEDUP = 1.4


def load_rows(path):
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    current = load_rows(sys.argv[1])
    baseline = load_rows(sys.argv[2])
    failures = []

    for row in current:
        if not row.get("match", True):
            tag = row.get("app", row.get("pe", row.get("n")))
            failures.append(
                f"{row['kernel']} {tag}: optimized and "
                "reference kernels disagree (match:false)")

    # Miner rows (from --miner runs).  Counters are deterministic per
    # (app, options), so pattern-count drift means the search changed;
    # the iso-call factor is the incremental-embedding headline.
    base_miner = {r["app"]: r for r in baseline
                  if r["kernel"] == "miner"}
    cur_miner = [r for r in current if r["kernel"] == "miner"]
    if base_miner and not cur_miner:
        failures.append("no miner rows in current output")
    for row in cur_miner:
        base = base_miner.get(row["app"])
        if base is not None and row["patterns"] != base["patterns"]:
            failures.append(
                f"miner {row['app']}: {row['patterns']} patterns vs "
                f"baseline {base['patterns']} (search changed)")
        if row["iso_calls"] * MIN_MINER_ISO_FACTOR > \
                row["iso_calls_ref"]:
            failures.append(
                f"miner {row['app']}: {row['iso_calls']} matcher "
                f"calls vs reference {row['iso_calls_ref']} "
                f"(< {MIN_MINER_ISO_FACTOR}x reduction)")

    base_clique = {r["n"]: r for r in baseline
                   if r["kernel"] == "clique"}
    cur_clique = [r for r in current if r["kernel"] == "clique"]
    if base_clique and not cur_clique:
        failures.append("no clique rows in current output")
    for row in cur_clique:
        base = base_clique.get(row["n"])
        if base is None:
            continue
        limit = NODE_REGRESSION_FACTOR * base["nodes"]
        if row["nodes"] > limit:
            failures.append(
                f"clique n={row['n']}: {row['nodes']} nodes "
                f"expanded vs baseline {base['nodes']} "
                f"(> {NODE_REGRESSION_FACTOR}x)")

    if cur_clique:
        largest = max(cur_clique, key=lambda r: r["n"])
        if largest["ratio"] < MIN_CLIQUE_RATIO:
            failures.append(
                f"clique n={largest['n']}: weak/coloring node ratio "
                f"{largest['ratio']:.2f} < {MIN_CLIQUE_RATIO}")

    base_dense = [r for r in baseline if r["kernel"] == "mis_dense"]
    cur_dense = [r for r in current if r["kernel"] == "mis_dense"]
    if base_dense and not cur_dense:
        failures.append("no mis_dense rows in current output")
    if cur_dense:
        largest = max(cur_dense, key=lambda r: r["n"])
        speedup = largest["ms_ref"] / max(largest["ms"], 0.01)
        if speedup < MIN_MIS_DENSE_SPEEDUP:
            failures.append(
                f"mis_dense n={largest['n']}: ms_ref/ms "
                f"{speedup:.2f} < {MIN_MIS_DENSE_SPEEDUP}")

    base_complete = [r for r in baseline if r["kernel"] == "mis_complete"]
    cur_complete = [r for r in current if r["kernel"] == "mis_complete"]
    if base_complete and not cur_complete:
        failures.append("no mis_complete rows in current output")
    for row in cur_complete:
        speedup = row["ms_ref"] / max(row["ms"], 0.01)
        if speedup < MIN_MIS_COMPLETE_SPEEDUP:
            failures.append(
                f"mis_complete n={row['n']}: ms_ref/ms {speedup:.2f} "
                f"< {MIN_MIS_COMPLETE_SPEEDUP}")

    # Rewrite rows: the rule count is a pure function of the PE and
    # its patterns, so drift means synthesis or validation changed.
    base_rewrite = {r["pe"]: r for r in baseline
                    if r["kernel"] == "rewrite"}
    cur_rewrite = [r for r in current if r["kernel"] == "rewrite"]
    if base_rewrite and not cur_rewrite:
        failures.append("no rewrite rows in current output")
    for row in cur_rewrite:
        base = base_rewrite.get(row["pe"])
        if base is not None and row["rules"] != base["rules"]:
            failures.append(
                f"rewrite {row['pe']}: {row['rules']} rules vs "
                f"baseline {base['rules']} (library changed)")
        if row["pe"] == "pe_base":
            speedup = row["ms_ref"] / max(row["ms"], 0.01)
            if speedup < MIN_REWRITE_SPEEDUP:
                failures.append(
                    f"rewrite {row['pe']}: ms_ref/ms {speedup:.2f} "
                    f"< {MIN_REWRITE_SPEEDUP}")

    # Place rows: moves and wirelength are pure functions of the
    # netlist, the fabric and the seed, so drift means the netlist or
    # the annealer changed.
    base_place = {r["app"]: r for r in baseline
                  if r["kernel"] == "place"}
    cur_place = [r for r in current if r["kernel"] == "place"]
    if base_place and not cur_place:
        failures.append("no place rows in current output")
    for row in cur_place:
        base = base_place.get(row["app"])
        if base is None:
            continue
        for field in ("moves", "wirelength"):
            if row[field] != base[field]:
                failures.append(
                    f"place {row['app']}: {field} {row[field]} vs "
                    f"baseline {base[field]} (placement changed)")
    if cur_place:
        largest = max(cur_place, key=lambda r: r["moves"])
        speedup = largest["ms_ref"] / max(largest["ms"], 0.01)
        if speedup < MIN_PLACE_SPEEDUP:
            failures.append(
                f"place {largest['app']}: ms_ref/ms {speedup:.2f} "
                f"< {MIN_PLACE_SPEEDUP}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        sys.exit(1)
    print(f"kernel perf smoke OK ({len(current)} rows)")


if __name__ == "__main__":
    main()
