// Correctness checks.  Each compares a program output with a value the
// benchmark computes on its own, or with a property the method must have;
// none compares with a stored copy of an earlier output.  Every check
// returns "" when it holds and a message when it fires, and the self-test
// (RunSelfTest) feeds each one a deliberately wrong output.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>

#include "core/merging.h"
#include "dist/histogram.h"
#include "net/frame.h"
#include "poly/poly_merging.h"

namespace perfbench {

// --- fit_offline ------------------------------------------------------------

// Histogram fit of q with k pieces: err_squared equals the benchmark's own
// sum of (q - h)^2; sqrt(err) <= sqrt(1 + delta) * planted_l2 (the planted
// generator bounds OPT_k from above); pieces <= 2 * gamma * m + 1 with
// m = max(k, floor(k * (1 + 1/delta))).
std::string CheckHistFit(const fasthist::SparseFunction& q,
                         const fasthist::MergingResult& fit, int64_t k,
                         const fasthist::MergingOptions& options,
                         double planted_l2);

// The same three properties for a piecewise-polynomial fit.
std::string CheckPolyFit(const fasthist::SparseFunction& q,
                         const fasthist::PiecewisePolyResult& fit, int64_t k,
                         const fasthist::MergingOptions& options,
                         double planted_l2);

// Bit-identity of two fits of one input (nproc threads against 1 thread).
std::string CheckSameHistFit(const fasthist::MergingResult& a,
                             const fasthist::MergingResult& b);
std::string CheckSamePolyFit(const fasthist::PiecewisePolyResult& a,
                             const fasthist::PiecewisePolyResult& b);

// --- ingest_zipf ------------------------------------------------------------

// One drained key: the server's sample count equals the client's tally of
// ACK-accepted samples, and its summary is bit-identical to a standalone
// StreamingHistogramBuilder fed the key's accepted subsequence.
std::string CheckDrainedKey(uint64_t key, int64_t tally, int64_t drained_count,
                            const fasthist::Histogram& drained,
                            const fasthist::Histogram& replayed);

// --- query_mix --------------------------------------------------------------

// A served quantile equals Aggregator::Quantile over the shadow builder's
// summary of the key's accepted samples up to the query, and the served
// sample count equals the shadow's.
std::string CheckServedQuantile(uint64_t key, double q,
                                const fasthist::QuantileReply& served,
                                const fasthist::Histogram& shadow_summary,
                                int64_t shadow_count);

// A pulled snapshot's num_samples equals the client's tally for the key.
std::string CheckPulledCount(uint64_t key, int64_t pulled, int64_t tally);

// A rollup's total weight equals the sum of its pulls' sample counts.
std::string CheckRollupWeight(double total_weight, int64_t pulled_sum);

// A kStats readout: no reported ingest or query latency quantile
// (p50/p99/p99.5) exceeds the largest round trip the clients saw for that
// request type.  A request's time on the server lies inside its client
// round trip, so every true quantile meets this bound.
std::string CheckStatsReadout(const fasthist::ServerStats& stats,
                              double max_ingest_rtt_us,
                              double max_query_rtt_us);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
