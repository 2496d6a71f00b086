// The per-layer ledger of the traced runs: each entry times a public call
// of one layer, with a span around every call, on the workload's own
// inputs (perfbench/README.md lists which end-to-end metric each entry
// should move).
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "bench.h"
#include "store/summary_store.h"

namespace perfbench {

// Median and nearest-rank p99 of the recorded spans named `name`, in the
// given unit (divisor from ns).  Dies if no such span was recorded: a
// ledger entry that timed nothing would report a made-up number.
double SpanMedian(const char* name, double ns_per_unit);
double SpanP99(const char* name, double ns_per_unit);
// Sum of the durations of the spans named `name`, in ns.
double SpanTotalNs(const char* name);

// core (builder), store, service and the net codec, replayed on `stream`
// (keyed samples in arrival order, values in [0, kValueDomain)) cut into
// `batch_size`-sample wire batches.
void KeyedLedger(const std::vector<fasthist::KeyedSample>& stream,
                 size_t batch_size, RunResult* result);

// The five fit entries (core.hist_fit*, poly.fit*, dist.from_dense_ms),
// from the spans of the FromDense and fit calls recorded so far.
void AddFitEntries(RunResult* result);

// dist and the two offline fits (nproc threads and 1 thread) on the
// empirical distribution of `stream`'s values, for the workloads whose
// inputs are keyed samples rather than dense signals.
void FitLedgerOnStream(const std::vector<fasthist::KeyedSample>& stream,
                       RunResult* result);

// The net entries of fit_offline's ledger, which has no socket phase of its
// own: a short ingest_zipf phase with the same seed, then NetProbe.
void NetLedgerProbe(const RunConfig& cfg, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
