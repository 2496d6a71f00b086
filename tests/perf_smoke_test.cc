// Perf-structure smoke tests: cheap, deterministic assertions on the merge
// engine's *shape*, so the two properties the single-pass refactor bought —
// no per-round (or per-support) allocations on a warm engine, and exactly
// one sweep over the partition planes per round — are locked in by ctest in
// every build mode instead of only by reading the bench output.

#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

#include "core/fast_merging.h"
#include "core/streaming.h"
#include "core/internal/merge_engine.h"
#include "data/generators.h"
#include "poly/poly_merging.h"
#include "tests/fasthist_test.h"
#include "util/parallel.h"

// Global allocation counter, the same crude-but-exact instrument
// bench_micro's --merge-grid check uses: every operator new in the binary
// bumps it, so a warm construction's count is the number of vector (and
// closure) allocations the engine performs — no sampling, no estimates.
// Atomic because the forced-parallel case below runs genuine pool workers,
// any of which may allocate.
namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fasthist {
namespace {

SparseFunction Signal(int64_t n) {
  PolyDatasetOptions options;
  options.domain_size = n;
  return SparseFunction::FromDense(MakePolyDataset(options));
}

// A warm serial construction allocates a fixed, input-size-independent
// number of vectors: the store's planes and scratch resize within capacity
// reserved up front, and the fused rounds reuse every buffer — so two
// inputs whose constructions run different round counts must land on the
// *same* allocation count, and that count must stay at or below the 17 the
// SoA engine shipped with.
TEST(WarmConstructionAllocationsAreRoundCountIndependent) {
  const int64_t k = 64;
  long long counts[2] = {0, 0};
  long long rounds[2] = {0, 0};
  const int64_t sizes[2] = {1 << 15, 1 << 18};
  for (int i = 0; i < 2; ++i) {
    const SparseFunction q = Signal(sizes[i]);
    MergingOptions serial;
    auto warm = ConstructHistogramFast(q, k, serial);  // buffers sized here
    CHECK_OK(warm);
    rounds[i] = warm->num_rounds;
    const long long before = g_allocations.load(std::memory_order_relaxed);
    auto probe = ConstructHistogramFast(q, k, serial);
    counts[i] = g_allocations.load(std::memory_order_relaxed) - before;
    CHECK_OK(probe);
  }
  CHECK(rounds[0] != rounds[1]);  // the sizes really differ in round count
  CHECK(counts[0] == counts[1]);
  CHECK(counts[0] <= 17);
}

// One fused round = one sweep over the planes.  The engine's pass counters
// (a test-only hook in core/internal/merge_engine.h) must show exactly one
// stand-alone evaluation (the cold start), one bare commit (the final
// round), and a fused commit+evaluate for every round in between:
// total plane sweeps == rounds + 1, where the pre-fusion engine spent
// 2 * rounds.  The pass structure is thread-invariant, so the forced-
// parallel runs must report the identical shape — for poly, whose refits
// are the engine's one threaded phase, as for the serial histogram rounds.
TEST(FusedRoundMakesOneSweepOverThePlanes) {
  const SparseFunction q = Signal(1 << 15);
  const auto check_passes = [](long long expected_rounds) {
    const internal::EngineCounters& c = internal::EngineCountersForTesting();
    CHECK(c.rounds == expected_rounds);
    CHECK(c.evaluate_passes == 1);
    CHECK(c.commit_passes == 1);
    CHECK(c.fused_passes == expected_rounds - 1);
  };

  internal::ResetEngineCountersForTesting();
  auto hist = ConstructHistogramFast(q, 64, MergingOptions());
  CHECK_OK(hist);
  CHECK(hist->num_rounds > 2);
  check_passes(hist->num_rounds);

  internal::ResetEngineCountersForTesting();
  const SparseFunction poly_q = Signal(1 << 12);
  auto poly = ConstructPiecewisePolynomial(poly_q, 8, 2, MergingOptions());
  CHECK_OK(poly);
  CHECK(poly->num_rounds > 2);
  check_passes(poly->num_rounds);

  SetHardwareParallelismForTesting(4);
  MergingOptions threaded;
  threaded.num_threads = 4;
  internal::ResetEngineCountersForTesting();
  auto threaded_hist = ConstructHistogramFast(q, 64, threaded);
  CHECK_OK(threaded_hist);
  CHECK(threaded_hist->num_rounds == hist->num_rounds);
  check_passes(threaded_hist->num_rounds);

  internal::ResetEngineCountersForTesting();
  auto threaded_poly = ConstructPiecewisePolynomial(poly_q, 8, 2, threaded);
  CHECK_OK(threaded_poly);
  CHECK(threaded_poly->num_rounds == poly->num_rounds);
  check_passes(threaded_poly->num_rounds);
  SetHardwareParallelismForTesting(0);
}

// Histogram rounds are serial at every thread count: num_threads drives
// only the poly refits, so a warm histogram construction asking for 4
// threads (on forced 4-core hardware, so the request is not clamped away)
// must allocate exactly what the serial one does — no chunk plans, no
// double-buffered candidate planes, no pool dispatch.
TEST(ThreadedHistogramAllocatesLikeSerial) {
  const SparseFunction q = Signal(1 << 18);
  SetHardwareParallelismForTesting(4);
  const auto warm_allocations = [&](int num_threads) {
    MergingOptions options;
    options.num_threads = num_threads;
    auto warm = ConstructHistogramFast(q, 64, options);  // pools, buffers
    CHECK_OK(warm);
    const long long before = g_allocations.load(std::memory_order_relaxed);
    auto probe = ConstructHistogramFast(q, 64, options);
    const long long count =
        g_allocations.load(std::memory_order_relaxed) - before;
    CHECK_OK(probe);
    return count;
  };
  const long long serial = warm_allocations(1);
  const long long threaded = warm_allocations(4);
  SetHardwareParallelismForTesting(0);
  CHECK(threaded == serial);
}

// Reset() is the recycling contract the keyed store's slab design leans on:
// a warm builder re-fed after Reset() must not pay the construction
// allocations again (buffer reserve, ladder growth), and two warm runs must
// land on the identical allocation count — if a Reset leaked state into
// the next run, the counts would drift.
TEST(StreamingBuilderResetReusesWithoutReallocation) {
  static_assert(
      std::is_move_assignable<StreamingHistogramBuilder>::value &&
          std::is_move_constructible<StreamingHistogramBuilder>::value,
      "pools recycle builders by move");

  const int64_t domain = 4096;
  const int64_t k = 16;
  const size_t buffer = 512;
  std::vector<int64_t> samples(20 * buffer);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<int64_t>((i * 2654435761u) % domain);
  }

  auto builder = StreamingHistogramBuilder::Create(domain, k, buffer);
  CHECK_OK(builder);
  const auto run = [&]() {
    const long long before = g_allocations.load(std::memory_order_relaxed);
    CHECK(builder->AddMany(samples).ok());
    return g_allocations.load(std::memory_order_relaxed) - before;
  };

  const long long cold = run();  // pays ladder growth + engine warm-up
  builder->Reset();
  CHECK(builder->num_samples() == 0);
  CHECK(builder->generation() == 0);
  const long long warm1 = run();
  builder->Reset();
  const long long warm2 = run();
  CHECK(warm1 == warm2);  // warm runs are allocation-deterministic
  CHECK(warm1 < cold);    // the reused buffers actually got reused
}

}  // namespace
}  // namespace fasthist
