#include "core/internal/merge_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

#include "poly/fit_poly.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace fasthist {
namespace internal {

EngineCounters& EngineCountersForTesting() {
  // Thread-local so concurrent constructions (merge-tree groups running on
  // pool workers) never race; tests reset and read on one thread.
  thread_local EngineCounters counters;
  return counters;
}

void ResetEngineCountersForTesting() {
  EngineCountersForTesting() = EngineCounters();
}

namespace {

// Chunk-size floor of the data-parallel poly refits: each refit scans its
// support, so small chunks already pay off.  ParallelFor's scheduling rule
// (util/parallel.h) guarantees at least one full grain of work per task and
// stays serial below two grains.
constexpr int64_t kPolyGrain = 64;
// Below this keep count the selection threshold comes from a single
// sequential top-k heap scan instead of copy + nth_element (see
// MarkKeepSplit): with the paper's settings keep ~ k, which is tiny
// against millions of pairs, and the heap scan touches the error plane
// exactly once.
constexpr size_t kHeapSelectCutoff = 2048;

// Clamp bound applied before double -> int64 casts of the keep/stop
// schedule.  k * (1 + 1/delta) overflows int64 for huge k and tiny delta,
// and casting an out-of-range double is UB; 2^62 is exactly representable,
// castable, and far beyond any real partition size, so clamping there
// preserves the "keep everything" semantics without the UB.
constexpr double kScheduleClamp = 4611686018427387904.0;  // 2^62

int64_t PairsKeptPerRound(int64_t k, const MergingOptions& options) {
  const double raw = static_cast<double>(k) * (1.0 + 1.0 / options.delta);
  return std::max(k, static_cast<int64_t>(std::min(raw, kScheduleClamp)));
}

// gamma stops the rounds early (Corollary 3.1): at most ~2*gamma*keep+1
// pieces survive, in exchange for fewer rounds over the large partitions.
// The inner product is clamped like the keep count (gamma is unbounded).
int64_t StopThreshold(int64_t keep, const MergingOptions& options) {
  const double inner = options.gamma * static_cast<double>(keep);
  return 2 * static_cast<int64_t>(std::min(inner, kScheduleClamp / 2.0)) + 1;
}

Status ValidateRoundArgs(int64_t domain_size, int64_t k,
                         const MergingOptions& options) {
  if (domain_size <= 0) {
    return Status::Invalid("merging: domain must be positive");
  }
  if (k < 1) return Status::Invalid("merging: k must be >= 1");
  if (!(options.delta > 0.0)) {
    return Status::Invalid("merging: delta must be positive");
  }
  if (!(options.gamma >= 1.0)) {
    return Status::Invalid("merging: gamma must be >= 1");
  }
  if (options.num_threads < 1) {
    return Status::Invalid("merging: num_threads must be >= 1");
  }
  return Status::Ok();
}

// The pool of the poly refits, behind the oversubscription guard: a request
// for more threads than the machine has cores used to put 8 workers on 1
// core and run 10x *slower* than serial (an earlier BENCH_merge.json
// trajectory caught this at n=64M).  Requests are clamped to the hardware
// before a pool is chosen, and a clamp to 1 means no pool at all — the
// fully serial path.  Output is unaffected: the refits write disjoint slots,
// so the engine is bit-identical at any thread count.
ThreadPool* PoolFor(const MergingOptions& options) {
  const int effective = EffectiveParallelism(options.num_threads);
  return effective > 1 ? &ThreadPool::Shared(effective) : nullptr;
}

// ---------------------------------------------------------------------------
// Structure-of-arrays stores.  RunRounds (below) is generic over a store
// that owns the current partition as parallel planes plus the candidate and
// next-generation buffers.  Every buffer persists across rounds — a round
// only resize()s within capacity reserved up front, so the steady state
// allocates nothing (the perf-smoke ctest and bench_micro ride on this).
// A store supplies
//   size_t size();                       current number of atoms
//   void EvaluatePairs(n, err);          statistics + error of the n
//                                        adjacent pairs into the candidate
//                                        planes (the cold start: only the
//                                        first round needs a stand-alone
//                                        evaluation pass)
//   void CommitAndEvaluate(keep_split, n, err);
//                                        THE fused round kernel: build the
//                                        next generation (kept pairs stay
//                                        split, the rest become their
//                                        candidate, an odd tail survives)
//                                        and, while those planes are hot,
//                                        produce the *next* round's
//                                        candidate statistics and errors —
//                                        one streaming pass instead of a
//                                        commit sweep plus an evaluate
//                                        sweep.  `err` carries the current
//                                        candidate errors in and the next
//                                        generation's out.
//   void Commit(keep_split, n, err);     the last round's commit, when no
//                                        further evaluation is needed
// and the loop owns everything the guarantee proof depends on: pairing, the
// strict (error desc, index asc) total order, the keep/stop schedule, and
// the round recursion s -> ceil(s/2) + keep (strictly decreasing while
// s > stop >= 2*keep + 1, so termination is structural).
//
// Threading: histogram rounds are serial at every thread count.  A merge is
// a few flops per pair, so the sweep is bound by memory bandwidth and page
// faults, and a data-parallel commit never beat serial on 4 cores.  Poly
// refits scan their support and do scale, so PolyStore owns a pool and
// self-schedules: it plans chunks of pairs (ChunkBoundary/ChunkCount, so the
// plan is a pure function of the sizes), copies coefficients and refits
// in-chunk candidates data-parallel, and finishes the few candidates that
// straddle chunk seams (plus the odd tail's pair) serially.  Every atom and
// candidate value is produced by the same single-rounded double operations
// whichever path computes it, so serial, fused-serial, fused-parallel, and
// the SIMD cold start are bit-identical.
// ---------------------------------------------------------------------------

// Histogram store: closed-form sufficient statistics, O(1) per merge.  The
// partition planes are len[]/sum[]/sumsq[] — interval *lengths*, not
// endpoints: atoms always tile the domain contiguously, so endpoints are
// recovered by a prefix sum at Finish and the round loop streams three
// planes instead of five.  (Lengths are exact in a double up to 2^53 —
// far beyond any real domain, and the same limit the residual formula
// already had.)  The cold start is the streaming kernel trio PairwiseSum
// (sum, sumsq, len) + ResidualError (util/simd.h); the fused kernel
// produces the identical values scalar while committing.
class HistogramStore {
 public:
  explicit HistogramStore(const std::vector<MergeAtom>& atoms) {
    const size_t n = atoms.size();
    origin_ = n > 0 ? atoms[0].begin : 0;
    len_.resize(n);
    sum_.resize(n);
    sumsq_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      len_[i] = static_cast<double>(atoms[i].end - atoms[i].begin);
      sum_[i] = atoms[i].sum;
      sumsq_[i] = atoms[i].sumsq;
    }
    cand_len_.reserve(n / 2);
    cand_sum_.reserve(n / 2);
    cand_sumsq_.reserve(n / 2);
    next_len_.reserve(n);
    next_sum_.reserve(n);
    next_sumsq_.reserve(n);
  }

  size_t size() const { return len_.size(); }

  void EvaluatePairs(size_t num_pairs, std::vector<double>& err) {
    ++EngineCountersForTesting().evaluate_passes;
    cand_len_.resize(num_pairs);
    cand_sum_.resize(num_pairs);
    cand_sumsq_.resize(num_pairs);
    err.resize(num_pairs);
    simd::PairwiseSum(sum_.data(), num_pairs, cand_sum_.data());
    simd::PairwiseSum(sumsq_.data(), num_pairs, cand_sumsq_.data());
    simd::PairwiseSum(len_.data(), num_pairs, cand_len_.data());
    simd::ResidualError(cand_sum_.data(), cand_sumsq_.data(),
                        cand_len_.data(), num_pairs, err.data());
  }

  // One fused streaming sweep: commit pair p's outcome, and as soon as an
  // adjacent output pair (2i, 2i+1) is complete, produce its candidate
  // statistics and error while both atoms are still in registers/L1.
  // Candidate writes land at index i, and by the output recursion
  // o <= 2p + 2 every write index is <= p with equality only for a kept
  // pair (whose candidate slot is dead) — so the candidate planes and the
  // error vector are safely reused in place.
  void CommitAndEvaluate(const std::vector<char>& keep_split,
                         size_t num_pairs, std::vector<double>& err) {
    ++EngineCountersForTesting().fused_passes;
    next_len_.clear();
    next_sum_.clear();
    next_sumsq_.clear();
    size_t ci = 0;  // next candidate index to produce
    const auto emit_ready = [&] {
      const size_t ready = next_len_.size() / 2;
      for (; ci < ready; ++ci) EvaluateCandidate(ci, err);
    };
    for (size_t p = 0; p < num_pairs; ++p) {
      if (keep_split[p]) {
        for (const size_t i : {2 * p, 2 * p + 1}) {
          next_len_.push_back(len_[i]);
          next_sum_.push_back(sum_[i]);
          next_sumsq_.push_back(sumsq_[i]);
        }
      } else {
        next_len_.push_back(cand_len_[p]);
        next_sum_.push_back(cand_sum_[p]);
        next_sumsq_.push_back(cand_sumsq_[p]);
      }
      emit_ready();
    }
    if (size() % 2 == 1) {
      next_len_.push_back(len_.back());
      next_sum_.push_back(sum_.back());
      next_sumsq_.push_back(sumsq_.back());
      emit_ready();
    }
    err.resize(ci);
    cand_len_.resize(ci);
    cand_sum_.resize(ci);
    cand_sumsq_.resize(ci);
    len_.swap(next_len_);
    sum_.swap(next_sum_);
    sumsq_.swap(next_sumsq_);
  }

  void Commit(const std::vector<char>& keep_split, size_t num_pairs,
              const std::vector<double>& /*candidate_err*/) {
    ++EngineCountersForTesting().commit_passes;
    next_len_.clear();
    next_sum_.clear();
    next_sumsq_.clear();
    for (size_t p = 0; p < num_pairs; ++p) {
      if (keep_split[p]) {
        for (const size_t i : {2 * p, 2 * p + 1}) {
          next_len_.push_back(len_[i]);
          next_sum_.push_back(sum_[i]);
          next_sumsq_.push_back(sumsq_[i]);
        }
      } else {
        next_len_.push_back(cand_len_[p]);
        next_sum_.push_back(cand_sum_[p]);
        next_sumsq_.push_back(cand_sumsq_[p]);
      }
    }
    if (size() % 2 == 1) {
      next_len_.push_back(len_.back());
      next_sum_.push_back(sum_.back());
      next_sumsq_.push_back(sumsq_.back());
    }
    len_.swap(next_len_);
    sum_.swap(next_sum_);
    sumsq_.swap(next_sumsq_);
  }

  // Flat-value histogram of the surviving partition and its summed error.
  // Endpoints come back from the length plane by an exact integer prefix
  // sum from the first atom's origin.
  StatusOr<MergingResult> Finish(int64_t domain_size,
                                 long long num_rounds) const {
    MergingResult result;
    result.num_rounds = num_rounds;
    result.err_squared = 0.0;
    std::vector<HistogramPiece> pieces;
    pieces.reserve(size());
    int64_t cursor = origin_;
    for (size_t i = 0; i < size(); ++i) {
      const double length = len_[i];
      const int64_t end = cursor + static_cast<int64_t>(length);
      pieces.push_back({{cursor, end}, sum_[i] / length});
      const double residual = sumsq_[i] - sum_[i] * sum_[i] / length;
      result.err_squared += residual > 0.0 ? residual : 0.0;
      cursor = end;
    }
    auto histogram = Histogram::Create(domain_size, std::move(pieces));
    if (!histogram.ok()) return histogram.status();
    result.histogram = std::move(histogram).value();
    return result;
  }

 private:
  // Candidate i of the *next* generation, from the just-committed planes.
  // Scalar, but operation-for-operation identical to the PairwiseSum +
  // ResidualError kernel pair the cold start uses — that is what keeps the
  // fused rounds bit-identical to a kernel sweep.
  void EvaluateCandidate(size_t i, std::vector<double>& err) {
    const double l = next_len_[2 * i] + next_len_[2 * i + 1];
    const double s = next_sum_[2 * i] + next_sum_[2 * i + 1];
    const double ss = next_sumsq_[2 * i] + next_sumsq_[2 * i + 1];
    cand_len_[i] = l;
    cand_sum_[i] = s;
    cand_sumsq_[i] = ss;
    const double r = ss - s * s / l;
    err[i] = r > 0.0 ? r : 0.0;
  }

  int64_t origin_ = 0;
  // Current partition planes (lengths as exact integral doubles).
  std::vector<double> len_, sum_, sumsq_;
  // Candidate planes (merged statistics of pair p).
  std::vector<double> cand_len_, cand_sum_, cand_sumsq_;
  // Next-generation double buffers (swapped in by the fused pass / Commit).
  std::vector<double> next_len_, next_sum_, next_sumsq_;
};

// Piecewise-polynomial store: merging refits the degree-d least-squares
// projection on the union interval (coefficients are not additive across a
// boundary, so unlike the histogram moments the merged fit is recomputed
// from q's support — O(support-in-interval * degree) per merge, which keeps
// the whole construction sample-near-linear).  Coefficients live in a flat
// plane of stride degree+1, zero-padded past each interval's effective
// degree; bases are length-keyed cache entries shared by pointer.  The
// refits are the engine's one data-parallel phase, over `pool` (null means
// serial).  The fused round is two-phase when threaded: interval/basis/error
// planes and the per-length basis pre-warm are serial (GramBasisCache
// mutates on first use of a length), then the expensive part — coefficient
// plane copies and candidate refits — runs data-parallel.
class PolyStore {
 public:
  PolyStore(const SparseFunction& q, GramBasisCache* cache, int degree,
            ThreadPool* pool)
      : q_(&q),
        cache_(cache),
        stride_(static_cast<size_t>(degree) + 1),
        pool_(pool) {}

  // Fits the support partition of q.  The refits are data-parallel; bases
  // are fetched (and so built) serially first, because GramBasisCache
  // mutates on first use of a length.
  void InitFromSupportPartition() {
    const std::vector<Interval> initial = SupportPartition(*q_);
    const size_t n = initial.size();
    begin_.resize(n);
    end_.resize(n);
    err_.resize(n);
    basis_.resize(n);
    coeff_.resize(n * stride_);
    for (size_t i = 0; i < n; ++i) {
      begin_[i] = initial[i].begin;
      end_[i] = initial[i].end;
      basis_[i] = &cache_->For(initial[i].length());
    }
    ParallelFor(pool_, 0, static_cast<int64_t>(n), kPolyGrain,
                [this](int64_t chunk_begin, int64_t chunk_end) {
                  std::vector<double> scratch;
                  for (int64_t i = chunk_begin; i < chunk_end; ++i) {
                    err_[i] = Refit(begin_[i], end_[i], *basis_[i],
                                    &coeff_[static_cast<size_t>(i) * stride_],
                                    scratch);
                  }
                });
    cand_coeff_.reserve((n / 2) * stride_);
    cand_basis_.reserve(n / 2);
    span_scratch_.reserve(n / 2);
    next_begin_.reserve(n);
    next_end_.reserve(n);
    next_err_.reserve(n);
    next_basis_.reserve(n);
    next_coeff_.reserve(n * stride_);
  }

  size_t size() const { return begin_.size(); }

  void EvaluatePairs(size_t num_pairs, std::vector<double>& err) {
    ++EngineCountersForTesting().evaluate_passes;
    err.resize(num_pairs);
    cand_coeff_.resize(num_pairs * stride_);
    cand_basis_.resize(num_pairs);
    span_scratch_.resize(num_pairs);
    // Serial pre-warm: the merged spans come from one streaming kernel
    // sweep, then every merged length gets a cache entry, so the parallel
    // refits below only read the cache (std::map nodes are stable,
    // concurrent reads are safe).
    simd::PairwiseSpan(begin_.data(), end_.data(), num_pairs,
                       span_scratch_.data());
    for (size_t p = 0; p < num_pairs; ++p) {
      cand_basis_[p] = &cache_->For(static_cast<int64_t>(span_scratch_[p]));
    }
    err_out_ = err.data();
    ParallelFor(pool_, 0, static_cast<int64_t>(num_pairs), kPolyGrain,
                [this](int64_t chunk_begin, int64_t chunk_end) {
                  std::vector<double> scratch;
                  for (int64_t p = chunk_begin; p < chunk_end; ++p) {
                    err_out_[p] =
                        Refit(begin_[2 * p], end_[2 * p + 1], *cand_basis_[p],
                              &cand_coeff_[static_cast<size_t>(p) * stride_],
                              scratch);
                  }
                });
  }

  void CommitAndEvaluate(const std::vector<char>& keep_split,
                         size_t num_pairs, std::vector<double>& err) {
    ++EngineCountersForTesting().fused_passes;
    const int64_t chunks =
        pool_ == nullptr
            ? 1
            : ChunkCount(static_cast<int64_t>(num_pairs), kPolyGrain,
                         pool_->num_threads());
    if (chunks <= 1) {
      CommitAndEvaluateSerial(keep_split, num_pairs, err);
    } else {
      CommitAndEvaluateParallel(keep_split, num_pairs, chunks, err);
    }
  }

  void Commit(const std::vector<char>& keep_split, size_t num_pairs,
              const std::vector<double>& candidate_err) {
    ++EngineCountersForTesting().commit_passes;
    next_begin_.clear();
    next_end_.clear();
    next_err_.clear();
    next_basis_.clear();
    next_coeff_.clear();
    for (size_t p = 0; p < num_pairs; ++p) {
      if (keep_split[p]) {
        AppendAtom(2 * p);
        AppendAtom(2 * p + 1);
      } else {
        AppendMerged(p, candidate_err[p]);
      }
    }
    if (size() % 2 == 1) AppendAtom(size() - 1);
    SwapInNextGeneration();
  }

  // Piecewise polynomial of the surviving partition and its summed error.
  StatusOr<PiecewisePolyResult> Finish(long long num_rounds) const {
    PiecewisePolyResult result;
    result.num_rounds = num_rounds;
    result.err_squared = 0.0;
    std::vector<PolyFit> fits(size());
    for (size_t i = 0; i < size(); ++i) {
      PolyFit& fit = fits[i];
      fit.interval = {begin_[i], end_[i]};
      fit.basis = *basis_[i];
      const auto first =
          coeff_.begin() + static_cast<ptrdiff_t>(i * stride_);
      fit.coefficients.assign(first, first + basis_[i]->degree() + 1);
      fit.err_squared = err_[i];
      result.err_squared += err_[i];
    }
    auto function =
        PiecewisePolynomial::Create(q_->domain_size(), std::move(fits));
    if (!function.ok()) return function.status();
    result.function = std::move(function).value();
    return result;
  }

 private:
  // The serial fused sweep: commit pair p, and refit each output pair's
  // candidate as soon as both atoms exist.  Candidate writes land at index
  // i <= p (equality only for kept pairs, whose candidate slot is dead), so
  // the candidate planes and error vector are reused in place; the basis
  // cache is safely mutated because everything here is one thread.
  void CommitAndEvaluateSerial(const std::vector<char>& keep_split,
                               size_t num_pairs, std::vector<double>& err) {
    next_begin_.clear();
    next_end_.clear();
    next_err_.clear();
    next_basis_.clear();
    next_coeff_.clear();
    size_t ci = 0;
    const auto emit_ready = [&] {
      const size_t ready = next_begin_.size() / 2;
      for (; ci < ready; ++ci) {
        const int64_t b = next_begin_[2 * ci];
        const int64_t e = next_end_[2 * ci + 1];
        const GramBasis& basis = cache_->For(e - b);
        cand_basis_[ci] = &basis;
        err[ci] = Refit(b, e, basis, &cand_coeff_[ci * stride_], scratch_);
      }
    };
    for (size_t p = 0; p < num_pairs; ++p) {
      if (keep_split[p]) {
        AppendAtom(2 * p);
        AppendAtom(2 * p + 1);
      } else {
        AppendMerged(p, err[p]);
      }
      emit_ready();
    }
    if (size() % 2 == 1) {
      AppendAtom(size() - 1);
      emit_ready();
    }
    err.resize(ci);
    cand_basis_.resize(ci);
    cand_coeff_.resize(ci * stride_);
    SwapInNextGeneration();
  }

  // The threaded fused round.  Phase A (serial, cheap): interval, error and
  // basis planes of the next generation, chunk output offsets recorded at
  // each pair-chunk boundary, and the candidate basis pre-warm (the cache
  // mutates, so this cannot be parallel).  Phase B (parallel, the expensive
  // part): coefficient-plane copies by output index and candidate refits
  // wholly inside each chunk's output slice — refit coefficients go to a
  // double-buffered plane because candidate indices can overlap earlier
  // chunks' still-unread slots.  Phase C: seam/tail candidates, serial.
  void CommitAndEvaluateParallel(const std::vector<char>& keep_split,
                                 size_t num_pairs, int64_t chunks,
                                 std::vector<double>& err) {
    chunk_bounds_.resize(static_cast<size_t>(chunks) + 1);
    chunk_out_.resize(static_cast<size_t>(chunks) + 1);
    for (int64_t c = 0; c <= chunks; ++c) {
      chunk_bounds_[static_cast<size_t>(c)] =
          ChunkBoundary(0, static_cast<int64_t>(num_pairs), chunks, c);
    }
    next_begin_.clear();
    next_end_.clear();
    next_err_.clear();
    next_basis_.clear();
    int64_t next_chunk = 0;
    for (size_t p = 0; p < num_pairs; ++p) {
      while (next_chunk <= chunks &&
             chunk_bounds_[static_cast<size_t>(next_chunk)] ==
                 static_cast<int64_t>(p)) {
        chunk_out_[static_cast<size_t>(next_chunk++)] = next_begin_.size();
      }
      if (keep_split[p]) {
        AppendAtomPlanes(2 * p);
        AppendAtomPlanes(2 * p + 1);
      } else {
        next_begin_.push_back(begin_[2 * p]);
        next_end_.push_back(end_[2 * p + 1]);
        next_err_.push_back(err[p]);
        next_basis_.push_back(cand_basis_[p]);
      }
    }
    while (next_chunk <= chunks) {
      chunk_out_[static_cast<size_t>(next_chunk++)] = next_begin_.size();
    }
    const size_t from_pairs = next_begin_.size();
    if (size() % 2 == 1) AppendAtomPlanes(size() - 1);
    const size_t next_size = next_begin_.size();
    const size_t next_num_pairs = next_size / 2;
    pcand_basis_.resize(next_num_pairs);
    for (size_t i = 0; i < next_num_pairs; ++i) {  // serial cache pre-warm
      pcand_basis_[i] =
          &cache_->For(next_end_[2 * i + 1] - next_begin_[2 * i]);
    }
    next_coeff_.resize(next_size * stride_);
    pcand_coeff_.resize(next_num_pairs * stride_);
    err.resize(next_num_pairs);  // disjoint writes; phase A consumed err
    err_out_ = err.data();
    keep_in_ = keep_split.data();
    pool_->ParallelFor(0, chunks, 1, [this](int64_t cb, int64_t ce) {
      std::vector<double> scratch;
      for (int64_t c = cb; c < ce; ++c) {
        const size_t out_end = chunk_out_[static_cast<size_t>(c) + 1];
        size_t o = chunk_out_[static_cast<size_t>(c)];
        for (int64_t p = chunk_bounds_[static_cast<size_t>(c)];
             p < chunk_bounds_[static_cast<size_t>(c) + 1]; ++p) {
          if (keep_in_[p]) {
            CopyCoeff(&coeff_[2 * static_cast<size_t>(p) * stride_], o, 2);
            o += 2;
          } else {
            CopyCoeff(&cand_coeff_[static_cast<size_t>(p) * stride_], o, 1);
            o += 1;
          }
        }
        for (size_t i = (chunk_out_[static_cast<size_t>(c)] + 1) / 2;
             2 * i + 1 < out_end; ++i) {
          RefitCandidate(i, scratch);
        }
      }
    });
    if (size() % 2 == 1) {  // tail coefficient copy
      CopyCoeff(&coeff_[(size() - 1) * stride_], next_size - 1, 1);
    }
    for (int64_t c = 1; c < chunks; ++c) {  // seam candidates
      const size_t off = chunk_out_[static_cast<size_t>(c)];
      if (off & 1) RefitCandidate((off - 1) / 2, scratch_);
    }
    if (2 * next_num_pairs > from_pairs) {  // tail-closing candidate
      RefitCandidate(next_num_pairs - 1, scratch_);
    }
    cand_basis_.swap(pcand_basis_);
    cand_coeff_.swap(pcand_coeff_);
    SwapInNextGeneration();
  }

  void RefitCandidate(size_t i, std::vector<double>& scratch) {
    err_out_[i] = Refit(next_begin_[2 * i], next_end_[2 * i + 1],
                        *pcand_basis_[i], &pcand_coeff_[i * stride_], scratch);
  }

  void CopyCoeff(const double* src, size_t out_index, size_t atoms) {
    std::copy(src, src + atoms * stride_,
              next_coeff_.begin() + static_cast<ptrdiff_t>(out_index * stride_));
  }

  void AppendAtomPlanes(size_t i) {
    next_begin_.push_back(begin_[i]);
    next_end_.push_back(end_[i]);
    next_err_.push_back(err_[i]);
    next_basis_.push_back(basis_[i]);
  }

  void AppendAtom(size_t i) {
    AppendAtomPlanes(i);
    next_coeff_.insert(
        next_coeff_.end(),
        coeff_.begin() + static_cast<ptrdiff_t>(i * stride_),
        coeff_.begin() + static_cast<ptrdiff_t>((i + 1) * stride_));
  }

  void AppendMerged(size_t p, double merged_err) {
    next_begin_.push_back(begin_[2 * p]);
    next_end_.push_back(end_[2 * p + 1]);
    next_err_.push_back(merged_err);
    next_basis_.push_back(cand_basis_[p]);
    next_coeff_.insert(next_coeff_.end(),
                       cand_coeff_.begin() +
                           static_cast<ptrdiff_t>(p * stride_),
                       cand_coeff_.begin() +
                           static_cast<ptrdiff_t>((p + 1) * stride_));
  }

  void SwapInNextGeneration() {
    begin_.swap(next_begin_);
    end_.swap(next_end_);
    err_.swap(next_err_);
    basis_.swap(next_basis_);
    coeff_.swap(next_coeff_);
  }

  // ProjectOntoBasis (poly/fit_poly.h) on the planes — the exact same
  // inner loop FitPolyWithBasis and the DP baseline use, so the engine can
  // never drift from them numerically.  The slots past the basis's
  // effective degree are zeroed here so plane copies never carry stale
  // values.
  double Refit(int64_t begin, int64_t end, const GramBasis& basis,
               double* coeff, std::vector<double>& scratch) const {
    for (size_t j = static_cast<size_t>(basis.degree()) + 1; j < stride_;
         ++j) {
      coeff[j] = 0.0;
    }
    return ProjectOntoBasis(*q_, {begin, end}, basis, coeff, &scratch);
  }

  const SparseFunction* q_;
  GramBasisCache* cache_;
  size_t stride_;     // degree + 1 coefficient slots per atom
  ThreadPool* pool_;  // null: serial refits

  // Current partition planes.
  std::vector<int64_t> begin_, end_;
  std::vector<double> err_;
  std::vector<const GramBasis*> basis_;
  std::vector<double> coeff_;  // size() * stride_
  // Candidate planes.
  std::vector<double> cand_coeff_;
  std::vector<const GramBasis*> cand_basis_;
  std::vector<double> span_scratch_;
  // Next-generation double buffers.
  std::vector<int64_t> next_begin_, next_end_;
  std::vector<double> next_err_;
  std::vector<const GramBasis*> next_basis_;
  std::vector<double> next_coeff_;
  // Parallel-only candidate double buffers + chunk plan (grown lazily).
  std::vector<double> pcand_coeff_;
  std::vector<const GramBasis*> pcand_basis_;
  std::vector<int64_t> chunk_bounds_;
  std::vector<size_t> chunk_out_;
  std::vector<double> scratch_;
  // Raw views stashed for the <=16-byte [this] lambda captures (libstdc++'s
  // std::function small-buffer limit, which keeps the dispatch
  // allocation-free).
  const char* keep_in_ = nullptr;
  double* err_out_ = nullptr;
};

}  // namespace

int64_t MaxSurvivingPieces(int64_t k, const MergingOptions& options) {
  return StopThreshold(PairsKeptPerRound(k, options), options);
}

// Algorithm 1's round skeleton, generic over the SoA store (see the block
// comment above the stores).  Both selection strategies rank under the same
// strict (error desc, index asc) total order, so they pick identical pair
// sets and the engine's two speeds are bit-for-bit interchangeable for any
// store — as are poly's serial and threaded modes, because its refits
// write disjoint slots and selection only reads the finished error plane.
namespace {

// Marks the top `num_keep` pairs under the strict (error desc, index asc)
// total order.  kSort is the reference formulation: sort an index
// permutation and mark the prefix.  kSelect is value-based: a top-k heap
// scan (or nth_element on a scratch copy) of the error plane finds the
// num_keep-th largest error, then a sequential mark pass keeps everything
// strictly above the threshold plus the first (num_keep - #above)
// threshold ties in index order — the same set the sorted prefix contains,
// without ever chasing an index indirection.  The mark pass is a byte-wide
// scan and stays serial: it is bandwidth-bound like the histogram rounds.
void MarkKeepSplit(SelectionStrategy strategy,
                   const std::vector<double>& candidate_err, size_t num_pairs,
                   size_t num_keep, std::vector<size_t>& order,
                   std::vector<double>& scratch,
                   std::vector<char>& keep_split) {
  keep_split.resize(num_pairs);
  if (num_keep >= num_pairs) {
    std::fill(keep_split.begin(), keep_split.end(), 1);
    return;
  }
  if (strategy == SelectionStrategy::kSort) {
    std::fill(keep_split.begin(), keep_split.end(), 0);
    order.resize(num_pairs);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (candidate_err[a] != candidate_err[b]) {
        return candidate_err[a] > candidate_err[b];
      }
      return a < b;
    });
    for (size_t i = 0; i < num_keep; ++i) keep_split[order[i]] = 1;
    return;
  }

  // kSelect: threshold select on the error values themselves — the
  // num_keep-th largest error (duplicates counted), never an index.
  double threshold;
  if (num_keep <= kHeapSelectCutoff) {
    // One sequential pass: a min-heap of the num_keep largest values seen
    // (only strictly-greater values displace the root, which is exactly
    // the k-th-largest-with-duplicates semantics nth_element gives).
    scratch.assign(candidate_err.begin(),
                   candidate_err.begin() + static_cast<ptrdiff_t>(num_keep));
    std::make_heap(scratch.begin(), scratch.end(), std::greater<double>());
    for (size_t p = num_keep; p < num_pairs; ++p) {
      if (candidate_err[p] > scratch.front()) {
        std::pop_heap(scratch.begin(), scratch.end(), std::greater<double>());
        scratch.back() = candidate_err[p];
        std::push_heap(scratch.begin(), scratch.end(), std::greater<double>());
      }
    }
    threshold = scratch.front();
  } else {
    scratch.assign(candidate_err.begin(),
                   candidate_err.begin() + static_cast<ptrdiff_t>(num_pairs));
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<ptrdiff_t>(num_keep - 1),
                     scratch.end(), std::greater<double>());
    threshold = scratch[num_keep - 1];
  }

  size_t above = 0;
  for (size_t p = 0; p < num_pairs; ++p) above += candidate_err[p] > threshold;
  size_t tie_quota = num_keep - above;  // >= 1: the threshold itself ties
  for (size_t p = 0; p < num_pairs; ++p) {  // every slot written: no
                                            // zero-fill sweep needed
    char mark_p = 0;
    if (candidate_err[p] > threshold) {
      mark_p = 1;
    } else if (candidate_err[p] == threshold && tie_quota > 0) {
      mark_p = 1;
      --tie_quota;
    }
    keep_split[p] = mark_p;
  }
}

template <typename Store>
long long RunRounds(Store& store, int64_t k, const MergingOptions& options,
                    SelectionStrategy strategy) {
  const int64_t keep = PairsKeptPerRound(k, options);
  const int64_t stop = StopThreshold(keep, options);
  long long num_rounds = 0;
  if (static_cast<int64_t>(store.size()) <= stop) return num_rounds;

  // Round-persistent scratch: sized once, then only resized downward as the
  // partition shrinks (capacity is never released mid-run).
  std::vector<double> candidate_err;
  std::vector<size_t> order;      // kSort ranking permutation
  std::vector<double> scratch;    // kSelect threshold scratch
  std::vector<char> keep_split;
  candidate_err.reserve(store.size() / 2);
  keep_split.reserve(store.size() / 2);
  if (strategy == SelectionStrategy::kSort) {
    order.reserve(store.size() / 2);
  } else {
    scratch.reserve(store.size() / 2);
  }

  // The fused round pipeline: one stand-alone evaluation primes the
  // candidate planes, then every round selects on the finished error plane
  // and commits fused with the next round's evaluation — so each round
  // past the first sweeps the planes exactly once.  The last commit (known
  // in advance from the output-size recursion next = pairs + kept + tail)
  // skips the dead evaluation.
  size_t num_pairs = store.size() / 2;
  store.EvaluatePairs(num_pairs, candidate_err);
  while (true) {
    const size_t num_keep =
        std::min(static_cast<size_t>(keep), num_pairs);
    MarkKeepSplit(strategy, candidate_err, num_pairs, num_keep, order,
                  scratch, keep_split);
    ++num_rounds;
    ++EngineCountersForTesting().rounds;
    const size_t next_size = num_pairs + num_keep + (store.size() & 1);
    if (static_cast<int64_t>(next_size) <= stop) {
      store.Commit(keep_split, num_pairs, candidate_err);
      break;
    }
    store.CommitAndEvaluate(keep_split, num_pairs, candidate_err);
    num_pairs = next_size / 2;
  }
  return num_rounds;
}

}  // namespace

std::vector<Interval> SupportPartition(const SparseFunction& q) {
  const std::vector<int64_t>& support = q.indices();
  std::vector<Interval> intervals;
  intervals.reserve(2 * support.size() + 1);
  int64_t cursor = 0;
  for (int64_t s : support) {
    if (s > cursor) intervals.push_back({cursor, s});
    intervals.push_back({s, s + 1});
    cursor = s + 1;
  }
  if (cursor < q.domain_size()) {
    intervals.push_back({cursor, q.domain_size()});
  }
  if (intervals.empty()) intervals.push_back({0, q.domain_size()});
  return intervals;
}

std::vector<MergeAtom> AtomsFromSparse(const SparseFunction& q) {
  const std::vector<int64_t>& indices = q.indices();
  const std::vector<double>& values = q.values();
  const std::vector<Interval> intervals = SupportPartition(q);
  std::vector<MergeAtom> atoms;
  atoms.reserve(intervals.size());
  size_t s = 0;  // the singleton intervals align with the support in order
  for (const Interval& interval : intervals) {
    if (s < indices.size() && interval.begin == indices[s]) {
      const double v = values[s];
      atoms.push_back({interval.begin, interval.end, v, v * v});
      ++s;
    } else {
      atoms.push_back({interval.begin, interval.end, 0.0, 0.0});
    }
  }
  return atoms;
}

StatusOr<MergingResult> RunMergingRounds(int64_t domain_size,
                                         std::vector<MergeAtom> atoms,
                                         int64_t k,
                                         const MergingOptions& options,
                                         SelectionStrategy strategy) {
  if (Status s = ValidateRoundArgs(domain_size, k, options); !s.ok()) return s;
  // The histogram store tracks interval lengths as exact integral doubles
  // (endpoints come back by prefix sum at Finish), which is exact only up
  // to 2^53 — reject the astronomical domains beyond it explicitly instead
  // of letting piece boundaries drift.
  if (domain_size > (int64_t{1} << 53)) {
    return Status::Invalid(
        "merging: domain above 2^53 not supported (interval lengths are "
        "tracked as exact doubles)");
  }

  HistogramStore store(atoms);
  const long long num_rounds = RunRounds(store, k, options, strategy);
  return store.Finish(domain_size, num_rounds);
}

StatusOr<PiecewisePolyResult> RunPolyMergingRounds(
    const SparseFunction& q, int64_t k, int degree,
    const MergingOptions& options, SelectionStrategy strategy) {
  if (Status s = ValidateRoundArgs(q.domain_size(), k, options); !s.ok()) {
    return s;
  }
  if (degree < 0) {
    return Status::Invalid("poly merging: degree must be >= 0");
  }
  // The candidate basis pre-warm keys the per-length cache through a
  // double-valued span plane (simd::PairwiseSpan), exact only up to 2^53 —
  // the same explicit limit as the histogram path's length planes.
  if (q.domain_size() > (int64_t{1} << 53)) {
    return Status::Invalid(
        "poly merging: domain above 2^53 not supported (merged spans are "
        "tracked as exact doubles)");
  }

  GramBasisCache cache(degree);
  PolyStore store(q, &cache, degree, PoolFor(options));
  store.InitFromSupportPartition();
  const long long num_rounds = RunRounds(store, k, options, strategy);
  return store.Finish(num_rounds);
}

}  // namespace internal
}  // namespace fasthist
