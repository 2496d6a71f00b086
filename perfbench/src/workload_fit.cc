// fit_offline: the paper's offline algorithm alone.  A fixed job of
// independent fits on planted noisy inputs, run in whole rounds for at
// least --seconds (and at least kMinRounds rounds, so p90 has ten fits
// beyond it).  No store, service or socket code runs in the timed phase.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/fast_merging.h"
#include "inputs.h"
#include "ledger.h"
#include "trace.h"
#include "util/timer.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 3;
// 9 rounds x 12 fits = 108 fits >= 100, so p90 has >= 10 fits beyond it.
constexpr int kMinRounds = 9;

}  // namespace

void RunFitOffline(const RunConfig& cfg, RunResult* result) {
  const std::vector<FitSpec>& round = FitRound();

  // Setup: generate the job's inputs and convert them with FromDense.
  // Done kSetupReps times; setup_s is the median of their CPU times.
  std::vector<FitInput> inputs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inputs.clear();
    inputs.shrink_to_fit();
    const double cpu0 = ProcessCpuSeconds();
    for (size_t i = 0; i < round.size(); ++i) {
      inputs.push_back(MakeFitInput(round[i], cfg.seed, static_cast<int>(i)));
    }
    setup_s.push_back(ProcessCpuSeconds() - cpu0);
  }
  const double baseline_mb = ResidentMb();

  fasthist::MergingOptions parallel;
  parallel.num_threads = Nproc();
  std::vector<fasthist::MergingResult> hist(round.size());
  std::vector<fasthist::PiecewisePolyResult> poly(round.size());
  // fit_us[j] is the process CPU time of fit j, in microseconds: the
  // calling thread's and the fit's worker threads'.
  std::vector<double> fit_us;
  double points = 0.0;
  int rounds = 0;
  fasthist::WallTimer timer;
  const double cpu_start = ProcessCpuSeconds();
  while (rounds < kMinRounds || timer.ElapsedSeconds() < cfg.seconds) {
    for (size_t i = 0; i < round.size(); ++i) {
      const FitInput& in = inputs[i];
      ScopedSpan op("fit_offline.fit");
      const double cpu0 = ProcessCpuSeconds();
      bool ok = false;
      if (in.spec.poly) {
        ScopedSpan span("poly.ConstructPiecewisePolynomialFast");
        auto r = fasthist::ConstructPiecewisePolynomialFast(
            in.q, kFitPieces, kPolyDegree, parallel);
        fit_us.push_back((ProcessCpuSeconds() - cpu0) * 1e6);
        if ((ok = r.ok())) {
          // Later rounds refit the same inputs: the output may not change.
          if (rounds == 0) poly[i] = std::move(r).value();
          else result->Check(CheckSamePolyFit(poly[i], *r));
        }
      } else {
        ScopedSpan span("core.ConstructHistogramFast");
        auto r = fasthist::ConstructHistogramFast(in.q, kFitPieces, parallel);
        fit_us.push_back((ProcessCpuSeconds() - cpu0) * 1e6);
        if ((ok = r.ok())) {
          if (rounds == 0) hist[i] = std::move(r).value();
          else result->Check(CheckSameHistFit(hist[i], *r));
        }
      }
      ++result->attempted;
      if (!ok) ++result->failed;
      points += static_cast<double>(in.q.domain_size());
    }
    ++rounds;
  }
  const double throughput = points / (ProcessCpuSeconds() - cpu_start);
  std::fprintf(stderr,
               "fit_offline: %.4g points per wall-clock second, %d rounds\n",
               points / timer.ElapsedSeconds(), rounds);
  const double peak_mb = PeakRssMb() - baseline_mb;
  for (size_t i = 0; i < round.size(); ++i) {
    if (i > 0 && round[i].poly == round[i - 1].poly &&
        round[i].log2_n == round[i - 1].log2_n) {
      continue;
    }
    std::vector<double> same;
    for (size_t j = 0; j < fit_us.size(); ++j) {
      const FitSpec& s = round[j % round.size()];
      if (s.poly == round[i].poly && s.log2_n == round[i].log2_n) {
        same.push_back(fit_us[j]);
      }
    }
    std::fprintf(stderr,
                 "fit_offline: %s 2^%d median %.1f CPU ms over %zu fits\n",
                 round[i].poly ? "poly" : "hist", round[i].log2_n,
                 Percentile(same, 0.5) / 1e3, same.size());
  }

  // Checks, after timing: the fit properties of every input, and the
  // 1-thread refit bit-identical to the nproc-thread fit.
  fasthist::MergingOptions serial;
  serial.num_threads = 1;
  for (size_t i = 0; i < round.size(); ++i) {
    const FitInput& in = inputs[i];
    if (in.spec.poly) {
      result->Check(CheckPolyFit(in.q, poly[i], kFitPieces, parallel,
                                 in.planted_l2));
      ScopedSpan span("poly.ConstructPiecewisePolynomialFast.serial");
      auto r = fasthist::ConstructPiecewisePolynomialFast(in.q, kFitPieces,
                                                          kPolyDegree, serial);
      if (!r.ok()) Die("serial poly fit", r.status());
      result->Check(CheckSamePolyFit(poly[i], *r));
    } else {
      result->Check(CheckHistFit(in.q, hist[i], kFitPieces, parallel,
                                 in.planted_l2));
      ScopedSpan span("core.ConstructHistogramFast.serial");
      auto r = fasthist::ConstructHistogramFast(in.q, kFitPieces, serial);
      if (!r.ok()) Die("serial histogram fit", r.status());
      result->Check(CheckSameHistFit(hist[i], *r));
    }
  }

  if (!cfg.trace) {
    result->Add("setup_s", Percentile(setup_s, 0.5), "s");
    result->Add("cpu_throughput", throughput, "1/s");
    result->Add("cpu_p50_us", Percentile(fit_us, 0.5), "us");
    result->Add("cpu_tail_us", Percentile(fit_us, 0.9), "us");
    result->Add("peak_rss_mb", peak_mb, "MB");
    return;
  }

  // Traced run: the fit entries come from this run's own spans; the keyed
  // and net entries replay the ingest_zipf stream of the same seed, since
  // this workload has no keyed input.
  AddFitEntries(result);
  inputs.clear();
  inputs.shrink_to_fit();
  KeyedLedger(MakeZipfPool(cfg.seed, 0, 4096), kIngestBatch, result);
  NetLedgerProbe(cfg, result);
  result->trace_meta.emplace_back(
      "e2e_throughput", std::to_string(throughput));
}

}  // namespace perfbench
