#!/usr/bin/env python3
"""Per-layer report of one traced perfbench run.

    python3 perfbench/report.py --workload <name> --seed <n> [--dir <out dir>]
    python3 perfbench/report.py --workload <name> --overhead [--dir <out dir>]

Reads what perfbench/run.py left in <out dir> (default
.bench_build/perfbench/out) for that workload and seed:

  <workload>-seed<n>-spans.tsv   the traced run's spans
  <workload>-seed<n>-trace1.json the traced run's per-layer ledger
  <workload>-seed<n>-trace0.json the untraced run's end-to-end metrics

and prints three things:

  1. every span name with its count, total time and self time (its duration
     minus the part of it that its child spans cover);
  2. each layer's self cost from the ledger: a layer's isolated time minus
     the time of the layer below it on the same input;
  3. the tracing overhead: untraced cpu_throughput over traced cpu_throughput,
     minus 1 (needs both runs of the same workload and seed).

With --overhead it prints only the tracing overhead, for every seed that
has both runs, with its median and, beside it, the spread of the untraced
cpu_throughput over the same seeds (the distance between its first and third
quartiles as a share of its median).  An overhead smaller than that spread
is not resolved by these runs.
"""
import argparse
import collections
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_DIR = os.path.join(
    os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.path.dirname(HERE),
                                                       ".bench_build"),
    "perfbench", "out")


def read_spans(path):
    meta, spans = {}, []
    with open(path) as f:
        for line in f:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(" ")
                meta[key] = value
                continue
            span_id, parent, name, start, end = line.split()
            spans.append((int(span_id), int(parent), name, int(start),
                          int(end)))
    return meta, spans


def span_table(spans):
    child_ns = collections.Counter()
    for _, parent, _, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    rows = collections.OrderedDict()
    for span_id, _, name, start, end in spans:
        row = rows.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[span_id]
    print("%-48s %10s %12s %12s" % ("span", "count", "total ms", "self ms"))
    for name, (count, total, self_ns) in sorted(rows.items(),
                                                key=lambda r: -r[1][1]):
        print("%-48s %10d %12.1f %12.1f" % (name, count, total / 1e6,
                                            self_ns / 1e6))


def layer_self_costs(m):
    """Self cost of each layer = its isolated time minus the layer below."""
    def v(name):
        return m[name]["value"]

    rows = [
        ("core   StreamingHistogramBuilder::AddMany", "ns/sample",
         v("core.builder_ns_per_sample")),
        ("store  SummaryStore::AddBatch - builder", "ns/sample",
         v("store.add_batch_ns_per_sample") - v("core.builder_ns_per_sample")),
        ("store  PartitionedSummaryStore - SummaryStore", "ns/sample",
         v("store.partitioned_add_ns_per_sample") -
         v("store.add_batch_ns_per_sample")),
        ("store  SummaryStore::Query", "us/query", v("store.query_us")),
        ("service Aggregator create + 1 quantile", "us/query",
         v("service.aggregator_us") + v("service.quantile_ns") / 1e3),
        ("net    query round trip - store - service", "us/query",
         v("net.query_rtt_p50_us") - v("store.query_us") -
         v("service.aggregator_us") - v("service.quantile_ns") / 1e3),
        ("core   hist fit speed-up, 1 -> nproc threads", "x",
         v("core.hist_fit_serial_ms") / v("core.hist_fit_ms")),
        ("poly   fit speed-up, 1 -> nproc threads", "x",
         v("poly.fit_serial_ms") / v("poly.fit_ms")),
    ]
    print("\n%-48s %12s  %s" % ("layer self cost", "value", "unit"))
    for label, unit, value in rows:
        print("%-48s %12.3f  %s" % (label, value, unit))


def throughput_pair(stem):
    """(untraced, traced) throughput of one seed, or None."""
    if not os.path.exists(stem + "-trace0.json"):
        return None
    meta, _ = read_spans(stem + "-spans.tsv")
    if "e2e_throughput" not in meta:
        return None
    with open(stem + "-trace0.json") as f:
        untraced = json.load(f)["metrics"]["cpu_throughput"]["value"]
    return untraced, float(meta["e2e_throughput"])


def overhead_summary(out_dir, workload):
    pairs = []
    for spans in sorted(glob.glob(os.path.join(out_dir, workload +
                                               "-seed*-spans.tsv"))):
        stem = spans[:-len("-spans.tsv")]
        pair = throughput_pair(stem)
        if pair:
            pairs.append((os.path.basename(stem), pair))
    if not pairs:
        sys.exit("report: no seed of %s has both a traced and an untraced "
                 "run in %s" % (workload, out_dir))
    overheads = []
    for name, (untraced, traced) in pairs:
        overheads.append(untraced / traced - 1.0)
        print("%-28s untraced %.6g/s  traced %.6g/s  overhead %+.1f%%" %
              (name, untraced, traced, 100.0 * overheads[-1]))
    print("median overhead %+.1f%% over %d pairs" %
          (100.0 * statistics.median(overheads), len(pairs)))
    untraced = [u for _, (u, _) in pairs]
    if len(untraced) >= 2:
        q = statistics.quantiles(untraced, n=4)
        print("untraced throughput spread %.3f" %
              ((q[2] - q[0]) / statistics.median(untraced)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed")
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--dir", default=DEFAULT_DIR)
    args = ap.parse_args()
    if args.overhead:
        overhead_summary(args.dir, args.workload)
        return
    if args.seed is None:
        ap.error("--seed is required without --overhead")
    stem = os.path.join(args.dir, "%s-seed%s" % (args.workload, args.seed))

    if not os.path.exists(stem + "-spans.tsv"):
        sys.exit("report: no traced run at %s-spans.tsv; run "
                 "perfbench/run.py with --trace 1 first" % stem)
    meta, spans = read_spans(stem + "-spans.tsv")
    span_table(spans)
    with open(stem + "-trace1.json") as f:
        layer_self_costs(json.load(f)["metrics"])

    pair = throughput_pair(stem)
    if pair:
        untraced, traced = pair
        print("\ntracing overhead: untraced %.6g/s, traced %.6g/s, "
              "overhead %+.1f%%" % (untraced, traced,
                                    100.0 * (untraced / traced - 1.0)))
    else:
        print("\ntracing overhead: needs an untraced run of the same "
              "workload and seed (--trace 0)")


if __name__ == "__main__":
    main()
