#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "tests/fasthist_test.h"
#include "util/clock.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/span.h"
#include "util/selection.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace fasthist {
namespace {

TEST(TimerIsMonotonic) {
  WallTimer timer;
  double last = timer.ElapsedMillis();
  CHECK(last >= 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double now = timer.ElapsedMillis();
  CHECK(now >= last);
  timer.Restart();
  CHECK(timer.ElapsedMillis() <= now);
}

TEST(ClockMonotonicNanosAdvances) {
  // Monotone under rapid-fire reads (the request-path usage: two reads
  // bracketing an operation must never subtract negative)...
  const uint64_t start = MonotonicNanos();
  uint64_t last = start;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t now = MonotonicNanos();
    CHECK(now >= last);
    last = now;
  }
  // ...and it actually advances with wall time, at nanosecond granularity.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const uint64_t after = MonotonicNanos();
  CHECK(after > start);
  CHECK(after - start >= 1000000);  // the 2 ms sleep shows up as >= 1 ms

  // The readout struct net/ fills from these timestamps defaults to the
  // all-zero "no samples yet" state.
  LatencyStats stats;
  CHECK(stats.count == 0);
  CHECK_NEAR(stats.p50_us + stats.p99_us + stats.p995_us, 0.0, 0.0);
}

TEST(RunningStatsMatchesClosedForm) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  CHECK(stats.Count() == 8);
  CHECK_NEAR(stats.Mean(), 5.0, 1e-12);
  // Sample variance of the set is 32/7.
  CHECK_NEAR(stats.StdDev(), std::sqrt(32.0 / 7.0), 1e-12);
  CHECK_NEAR(stats.Min(), 2.0, 0.0);
  CHECK_NEAR(stats.Max(), 9.0, 0.0);
  CHECK_NEAR(Mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
  CHECK_NEAR(StdDev({1.0, 2.0, 3.0}), 1.0, 1e-12);
}

TEST(SelectionAgreesWithSorting) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(500));
    std::vector<double> values(n);
    for (double& v : values) {
      v = trial % 2 == 0 ? rng.Gaussian()
                         : static_cast<double>(rng.UniformInt(5));  // ties
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const size_t k = static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(n)));
    CHECK_NEAR(SelectKth(values, k), sorted[k], 0.0);
    CHECK_NEAR(SelectKthMedianOfMedians(values, k), sorted[k], 0.0);
  }
}

TEST(RngIsDeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  bool all_equal_c = true;
  for (int i = 0; i < 100; ++i) {
    const double x = a.UniformDouble();
    CHECK_NEAR(x, b.UniformDouble(), 0.0);
    CHECK(x >= 0.0 && x < 1.0);
    if (x != c.UniformDouble()) all_equal_c = false;
  }
  CHECK(!all_equal_c);
  // Gaussian moments, loosely.
  Rng g(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(g.Gaussian());
  CHECK_NEAR(stats.Mean(), 0.0, 0.05);
  CHECK_NEAR(stats.StdDev(), 1.0, 0.05);
}

TEST(ParallelForCoversRangeExactlyOnce) {
  // The pool's contract: disjoint chunks covering the range, every index
  // exactly once, for any pool size / grain / range combination (including
  // ranges smaller than one grain, which run inline on the caller).  Pools
  // are reused across calls via the Shared registry.
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool& pool = ThreadPool::Shared(threads);
    CHECK(pool.num_threads() == threads);
    for (int64_t range : {1, 7, 1000, 10007}) {
      for (int64_t grain : {1, 16, 4096}) {
        std::vector<int> hits(static_cast<size_t>(range), 0);
        std::atomic<int> chunks{0};
        pool.ParallelFor(0, range, grain,
                         [&](int64_t chunk_begin, int64_t chunk_end) {
                           CHECK(chunk_begin < chunk_end);
                           ++chunks;
                           for (int64_t i = chunk_begin; i < chunk_end; ++i) {
                             ++hits[static_cast<size_t>(i)];
                           }
                         });
        for (int h : hits) CHECK(h == 1);
        // Static partitioning: at most one chunk per thread, and never more
        // chunks than grain-sized pieces fit in the range.
        CHECK(chunks.load() <= threads);
        CHECK(chunks.load() <= (range + grain - 1) / grain);
      }
    }
  }
  // The null-pool helper is the serial path.
  std::vector<int> hits(100, 0);
  ParallelFor(nullptr, 0, 100, 1, [&](int64_t b, int64_t e) {
    CHECK(b == 0 && e == 100);
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) CHECK(h == 1);

  // The oversubscription guard: EffectiveParallelism clamps a request to
  // the hardware (overridden here so the test is machine-independent) and
  // never returns less than 1.
  SetHardwareParallelismForTesting(4);
  CHECK(EffectiveParallelism(8) == 4);
  CHECK(EffectiveParallelism(4) == 4);
  CHECK(EffectiveParallelism(2) == 2);
  CHECK(EffectiveParallelism(0) == 1);
  SetHardwareParallelismForTesting(0);
  CHECK(EffectiveParallelism(1) == 1);

  // A throw inside a chunk — the caller's own (first chunk) or a worker's
  // (a later chunk) — propagates to the caller after the barrier, and the
  // pool stays fully usable afterwards.
  ThreadPool& pool = ThreadPool::Shared(4);
  for (const int64_t bad_chunk_begin : {0, 750}) {
    bool caught = false;
    try {
      pool.ParallelFor(0, 1000, 1, [&](int64_t b, int64_t) {
        if (b == bad_chunk_begin) throw std::runtime_error("chunk failure");
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
    CHECK(caught);
    std::vector<int> again(1000, 0);
    pool.ParallelFor(0, 1000, 1, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) ++again[static_cast<size_t>(i)];
    });
    for (int h : again) CHECK(h == 1);
  }
}

TEST(SimdKernelsMatchScalar) {
  // The simd shim's kernels must agree bit-for-bit with their scalar
  // definitions on every lane, including the unaligned tail — this is the
  // foundation of the engine's serial == threaded == SIMD determinism.
  Rng rng(29);
  for (size_t n : {0, 1, 3, 4, 5, 31, 128}) {
    std::vector<double> src(2 * n), sum(n), sumsq(n), len(n);
    for (double& x : src) x = rng.Gaussian();
    std::vector<double> pair_out(n, -1.0);
    simd::PairwiseSum(src.data(), n, pair_out.data());
    for (size_t i = 0; i < n; ++i) {
      CHECK_NEAR(pair_out[i], src[2 * i] + src[2 * i + 1], 0.0);
    }
    for (size_t i = 0; i < n; ++i) {
      sum[i] = 10.0 * rng.Gaussian();
      sumsq[i] = std::abs(10.0 * rng.Gaussian());
      len[i] = 1.0 + static_cast<double>(rng.UniformInt(50));
    }
    std::vector<double> err(n, -1.0);
    simd::ResidualError(sum.data(), sumsq.data(), len.data(), n, err.data());
    for (size_t i = 0; i < n; ++i) {
      const double r = sumsq[i] - sum[i] * sum[i] / len[i];
      CHECK_NEAR(err[i], r > 0.0 ? r : 0.0, 0.0);
      CHECK(err[i] >= 0.0);
    }
  }
}

TEST(PairwiseSpanMatchesScalar) {
  // The merged-pair span kernel: dst[i] = double(end[2i+1] - begin[2i]),
  // exact for any int64 difference a double can hold, including the
  // unaligned tail and huge endpoints.
  Rng rng(31);
  for (size_t n : {0, 1, 3, 4, 5, 31, 128}) {
    std::vector<int64_t> begin(2 * n), end(2 * n);
    int64_t cursor = rng.UniformInt(1'000'000'000);
    for (size_t i = 0; i < 2 * n; ++i) {
      begin[i] = cursor;
      cursor += 1 + rng.UniformInt(1 << 20);
      end[i] = cursor;
    }
    std::vector<double> span(n, -1.0);
    simd::PairwiseSpan(begin.data(), end.data(), n, span.data());
    for (size_t i = 0; i < n; ++i) {
      CHECK_NEAR(span[i],
                 static_cast<double>(end[2 * i + 1] - begin[2 * i]), 0.0);
      CHECK(span[i] > 0.0);
    }
  }
}

TEST(TablePrinterFormatsAndPrints) {
  CHECK(TablePrinter::FormatDouble(3.14159, 2) == "3.14");
  CHECK(TablePrinter::FormatDouble(2.0, 0) == "2");
  CHECK(TablePrinter::FormatInt(-42) == "-42");

  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", TablePrinter::FormatInt(1)});
  table.AddRow({"beta"});  // short rows pad
  std::ostringstream pretty, csv;
  table.Print(pretty);
  table.Dump(csv);
  CHECK(pretty.str().find("alpha") != std::string::npos);
  CHECK(pretty.str().find("name") != std::string::npos);
  CHECK(csv.str() == "name,value\nalpha,1\nbeta,\n");
}

TEST(SpanViewsAndSubspans) {
  const std::vector<int64_t> v = {10, 20, 30, 40, 50};
  Span<const int64_t> span = v;  // implicit from vector
  CHECK(span.size() == 5);
  CHECK(!span.empty());
  CHECK(span[0] == 10 && span[4] == 50);
  CHECK(span.data() == v.data());  // a view, not a copy
  int64_t sum = 0;
  for (const int64_t x : span) sum += x;
  CHECK(sum == 150);

  // Pointer+length and C-array construction.
  CHECK(Span<const int64_t>(v.data() + 1, 3)[0] == 20);
  const int64_t raw[] = {7, 8};
  CHECK(Span<const int64_t>(raw).size() == 2);

  // Subspans clamp instead of overrunning.
  CHECK(span.subspan(1, 2).size() == 2);
  CHECK(span.subspan(1, 2)[0] == 20);
  CHECK(span.subspan(3, 100).size() == 2);
  CHECK(span.subspan(100, 1).empty());
  CHECK(Span<const int64_t>().empty());
}

TEST(HardwareParallelismHonorsOverride) {
  // The override steers both accessors, so thread clamping is testable on
  // any container.
  SetHardwareParallelismForTesting(6);
  CHECK(HardwareParallelism() == 6);
  CHECK(EffectiveParallelism(8) == 6);
  CHECK(EffectiveParallelism(2) == 2);

  SetHardwareParallelismForTesting(0);
  const int machine = HardwareParallelism();
  CHECK(machine >= 0);
}

}  // namespace
}  // namespace fasthist
