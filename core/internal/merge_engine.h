#ifndef FASTHIST_CORE_INTERNAL_MERGE_ENGINE_H_
#define FASTHIST_CORE_INTERNAL_MERGE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/merging.h"
#include "dist/sparse_function.h"
#include "poly/poly_merging.h"
#include "util/status.h"

namespace fasthist {
namespace internal {

// An interval of the current partition together with the sufficient
// statistics of q on it: with L = end - begin, S = sum, SS = sumsq, the best
// flat value is S/L and the squared residual is SS - S^2/L.
struct MergeAtom {
  int64_t begin = 0;
  int64_t end = 0;
  double sum = 0.0;
  double sumsq = 0.0;
};

// How each round finds the m pairs with the largest merged error.  kSort is
// the textbook O(s log s) formulation; kSelect uses nth_element (the
// Theorem 3.4 trick) for O(s) per round and — thanks to the strict
// (error, index) tie-break order — selects exactly the same pair set, so
// the two strategies produce identical outputs.
enum class SelectionStrategy { kSort, kSelect };

// The round loop itself (RunRounds in merge_engine.cc) is generic over a
// policy-owned structure-of-arrays store: the histogram store keeps
// len[]/sum[]/sumsq[] planes and merges statistics with streaming SIMD
// kernels (util/simd.h), the piecewise-polynomial store keeps interval and
// coefficient planes and refits a Gram-basis least-squares projection per
// merged pair.  Each round past the first is one fused streaming pass
// (CommitAndEvaluate): committing round r's survivors produces round
// r+1's candidate statistics and errors while the planes are still hot, so
// a round reads and writes every plane exactly once.  Candidate and
// next-generation buffers persist across rounds (no per-round allocation).
// Histogram rounds and selection are serial: a merge is a few flops per
// pair, so the sweep is bandwidth-bound and threads never beat serial.  The
// poly refits are the one data-parallel phase, over
// MergingOptions::num_threads (util/parallel.h, clamped to the hardware by
// EffectiveParallelism), with bit-identical output at any thread count.
// Both entry points below share the selection strategies, the (error,
// index) total order, the delta/gamma round schedule, and the termination
// argument — which is what makes the sqrt(1 + delta) guarantee a single
// proof and the engine a single SIMD target.

// Test-only visibility into the engine's pass structure (thread-local, so
// concurrent constructions — e.g. merge-tree groups on pool workers —
// never race).  A "plane pass" is one sweep over the partition planes:
// evaluate_passes counts stand-alone EvaluatePairs sweeps (the cold start),
// fused_passes counts CommitAndEvaluate sweeps (commit + next-round
// evaluate in one), commit_passes counts final-round Commit sweeps.  The
// fused engine's invariant, asserted by tests/perf_smoke_test.cc, is
// evaluate_passes + fused_passes + commit_passes == rounds + 1.
struct EngineCounters {
  long long evaluate_passes = 0;
  long long fused_passes = 0;
  long long commit_passes = 0;
  long long rounds = 0;
};
EngineCounters& EngineCountersForTesting();
void ResetEngineCountersForTesting();

// Upper bound on the piece count any engine construction or merge can
// produce with these knobs: the round loop only terminates once at most
// 2*gamma*m + 1 intervals survive (m = max(k, floor(k*(1 + 1/delta))),
// both products clamped exactly like the engine's internal schedule), and
// a partition that starts at or below that threshold is returned as-is —
// so every output satisfies pieces <= min(this bound, domain_size).
// Callers that pre-size fixed-capacity buffers for engine outputs (the
// keyed store's per-level summary planes, store/archetype_pool.h) size
// them with this.
int64_t MaxSurvivingPieces(int64_t k, const MergingOptions& options);

// Initial sample-linear partition of q: alternating zero-run atoms and
// singleton support atoms covering [0, domain).
std::vector<MergeAtom> AtomsFromSparse(const SparseFunction& q);

// The interval skeleton of AtomsFromSparse, shared with the polynomial
// path (whose atoms carry fitted coefficients instead of moments).
std::vector<Interval> SupportPartition(const SparseFunction& q);

// Runs the merging rounds over `atoms` (which must tile [0, domain_size))
// and returns the flat-value histogram of the surviving partition.
StatusOr<MergingResult> RunMergingRounds(int64_t domain_size,
                                         std::vector<MergeAtom> atoms,
                                         int64_t k,
                                         const MergingOptions& options,
                                         SelectionStrategy strategy);

// Runs the same rounds over PolyFit atoms with the degree-`degree`
// least-squares projection as the merge oracle, starting from the support
// partition of q.  Backs ConstructPiecewisePolynomial (kSort) and
// ConstructPiecewisePolynomialFast (kSelect) in poly/poly_merging.h.
StatusOr<PiecewisePolyResult> RunPolyMergingRounds(
    const SparseFunction& q, int64_t k, int degree,
    const MergingOptions& options, SelectionStrategy strategy);

}  // namespace internal
}  // namespace fasthist

#endif  // FASTHIST_CORE_INTERNAL_MERGE_ENGINE_H_
