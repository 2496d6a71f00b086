#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench.h"
#include "core/fast_merging.h"
#include "core/streaming.h"
#include "inputs.h"
#include "service/aggregator.h"

namespace perfbench {

using fasthist::Histogram;
using fasthist::MergingOptions;
using fasthist::SparseFunction;

namespace {

std::string Format(const char* fmt, double a, double b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double MaxPieces(int64_t k, const MergingOptions& options) {
  const double kd = static_cast<double>(k);
  const double m = std::max(kd, std::floor(kd * (1.0 + 1.0 / options.delta)));
  return 2.0 * options.gamma * m + 1.0;
}

// Shared tail of both fit checks.  `tolerance` is relative: the library
// sums in another order (and the polynomial residual is ||q||^2 - ||c||^2).
std::string CheckFitProperties(double reported, double recomputed,
                               double tolerance, int64_t pieces, int64_t k,
                               const MergingOptions& options,
                               double planted_l2) {
  if (std::fabs(reported - recomputed) >
      tolerance * std::max(1.0, std::fabs(recomputed))) {
    return Format("fit: err_squared %.17g != recomputed sum (q - h)^2 %.17g",
                  reported, recomputed);
  }
  const double bound = std::sqrt(1.0 + options.delta) * planted_l2;
  if (std::sqrt(recomputed) > bound * (1.0 + 1e-12)) {
    return Format("fit: sqrt(err) %.17g > sqrt(1+delta)*||q-g|| %.17g",
                  std::sqrt(recomputed), bound);
  }
  const double max_pieces = MaxPieces(k, options);
  if (static_cast<double>(pieces) > max_pieces) {
    return Format("fit: %.0f pieces > 2*gamma*m+1 = %.0f",
                  static_cast<double>(pieces), max_pieces);
  }
  return "";
}

bool SameHistogram(const Histogram& a, const Histogram& b) {
  if (a.domain_size() != b.domain_size() ||
      a.num_pieces() != b.num_pieces()) {
    return false;
  }
  for (size_t i = 0; i < a.pieces().size(); ++i) {
    const auto& pa = a.pieces()[i];
    const auto& pb = b.pieces()[i];
    if (pa.interval.begin != pb.interval.begin ||
        pa.interval.end != pb.interval.end || !SameBits(pa.value, pb.value)) {
      return false;
    }
  }
  return true;
}

std::string KeyError(const char* what, uint64_t key) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (key %llu)", what,
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace

std::string CheckHistFit(const SparseFunction& q,
                         const fasthist::MergingResult& fit, int64_t k,
                         const MergingOptions& options, double planted_l2) {
  const auto& idx = q.indices();
  const auto& val = q.values();
  size_t s = 0;
  double err = 0.0;
  for (const auto& piece : fit.histogram.pieces()) {
    int64_t on_support = 0;
    for (; s < idx.size() && idx[s] < piece.interval.end; ++s) {
      const double d = val[s] - piece.value;
      err += d * d;
      ++on_support;
    }
    err += static_cast<double>(piece.interval.length() - on_support) *
           piece.value * piece.value;
  }
  return CheckFitProperties(fit.err_squared, err, 1e-9,
                            fit.histogram.num_pieces(), k, options,
                            planted_l2);
}

std::string CheckPolyFit(const SparseFunction& q,
                         const fasthist::PiecewisePolyResult& fit, int64_t k,
                         const MergingOptions& options, double planted_l2) {
  const auto& idx = q.indices();
  const auto& val = q.values();
  size_t s = 0;
  double err = 0.0;
  for (const auto& piece : fit.function.pieces()) {
    for (int64_t x = piece.interval.begin; x < piece.interval.end; ++x) {
      double qx = 0.0;
      if (s < idx.size() && idx[s] == x) qx = val[s++];
      const double d = qx - piece.EvaluateAt(x);
      err += d * d;
    }
  }
  return CheckFitProperties(fit.err_squared, err, 1e-6,
                            fit.function.num_pieces(), k, options,
                            planted_l2);
}

std::string CheckSameHistFit(const fasthist::MergingResult& a,
                             const fasthist::MergingResult& b) {
  if (!SameHistogram(a.histogram, b.histogram) ||
      !SameBits(a.err_squared, b.err_squared) || a.num_rounds != b.num_rounds) {
    return "fit: nproc-thread histogram fit differs from the 1-thread fit";
  }
  return "";
}

std::string CheckSamePolyFit(const fasthist::PiecewisePolyResult& a,
                             const fasthist::PiecewisePolyResult& b) {
  const auto& pa = a.function.pieces();
  const auto& pb = b.function.pieces();
  bool same = pa.size() == pb.size() && SameBits(a.err_squared, b.err_squared) &&
              a.num_rounds == b.num_rounds;
  for (size_t i = 0; same && i < pa.size(); ++i) {
    same = pa[i].interval.begin == pb[i].interval.begin &&
           pa[i].interval.end == pb[i].interval.end &&
           pa[i].coefficients.size() == pb[i].coefficients.size();
    for (size_t j = 0; same && j < pa[i].coefficients.size(); ++j) {
      same = SameBits(pa[i].coefficients[j], pb[i].coefficients[j]);
    }
  }
  return same ? ""
              : "fit: nproc-thread polynomial fit differs from the 1-thread "
                "fit";
}

std::string CheckDrainedKey(uint64_t key, int64_t tally, int64_t drained_count,
                            const Histogram& drained,
                            const Histogram& replayed) {
  if (tally != drained_count) {
    return KeyError("ingest: drained NumSamples != client tally of "
                    "ACK-accepted samples", key);
  }
  if (!SameHistogram(drained, replayed)) {
    return KeyError("ingest: drained summary != standalone builder replay "
                    "of the accepted subsequence", key);
  }
  return "";
}

std::string CheckServedQuantile(uint64_t key, double q,
                                const fasthist::QuantileReply& served,
                                const Histogram& shadow_summary,
                                int64_t shadow_count) {
  if (served.num_samples != shadow_count) {
    return KeyError("query: served num_samples != shadow replay count", key);
  }
  auto aggregator = fasthist::Aggregator::Create(shadow_summary);
  if (!aggregator.ok()) return KeyError("query: shadow aggregator failed", key);
  if (aggregator->Quantile(q) != served.value) {
    return KeyError("query: served quantile != Aggregator::Quantile over the "
                    "shadow builder", key);
  }
  return "";
}

std::string CheckPulledCount(uint64_t key, int64_t pulled, int64_t tally) {
  return pulled == tally
             ? ""
             : KeyError("query: pulled num_samples != client tally", key);
}

std::string CheckRollupWeight(double total_weight, int64_t pulled_sum) {
  return total_weight == static_cast<double>(pulled_sum)
             ? ""
             : Format("query: rollup total weight %.17g != sum of pulls %.17g",
                      total_weight, static_cast<double>(pulled_sum));
}

std::string CheckStatsReadout(const fasthist::ServerStats& stats,
                              double max_ingest_rtt_us,
                              double max_query_rtt_us) {
  const double ingest = std::max(
      {stats.ingest_p50_us, stats.ingest_p99_us, stats.ingest_p995_us});
  if (ingest > max_ingest_rtt_us) {
    return Format("stats: ingest latency quantile %.1f us > largest ingest "
                  "round trip %.1f us", ingest, max_ingest_rtt_us);
  }
  const double query =
      std::max({stats.query_p50_us, stats.query_p99_us, stats.query_p995_us});
  if (query > max_query_rtt_us) {
    return Format("stats: query latency quantile %.1f us > largest query "
                  "round trip %.1f us", query, max_query_rtt_us);
  }
  return "";
}

// --- self-test ----------------------------------------------------------------

namespace {

struct SelfTest {
  bool verbose = false;
  int bad = 0;

  // `right` must hold and `wrong` must fire.
  void Expect(const char* name, const std::string& right,
              const std::string& wrong) {
    const bool ok = right.empty() && !wrong.empty();
    if (!ok) ++bad;
    if (verbose || !ok) {
      std::fprintf(stderr, "self-test %-28s %s%s%s\n", name,
                   ok ? "ok" : "BROKEN",
                   right.empty() ? "" : " (fired on a right output: ",
                   right.empty() ? "" : (right + ")").c_str());
    }
  }
};

Histogram FlipLowBit(const Histogram& h) {
  std::vector<fasthist::HistogramPiece> pieces = h.pieces();
  uint64_t bits = 0;
  std::memcpy(&bits, &pieces[0].value, sizeof bits);
  bits ^= 1;
  std::memcpy(&pieces[0].value, &bits, sizeof bits);
  return fasthist::Histogram::Create(h.domain_size(), pieces).value();
}

}  // namespace

int RunSelfTest(bool verbose) {
  SelfTest t;
  t.verbose = verbose;
  const MergingOptions options;

  // Fits: a small planted input of each kind; the wrong output has one
  // piece value (one constant coefficient) nudged.
  const FitInput hist_in = MakeFitInput({false, 12}, 7, 0);
  auto hist = fasthist::ConstructHistogramFast(hist_in.q, kFitPieces, options);
  if (!hist.ok()) Die("self-test ConstructHistogramFast", hist.status());
  fasthist::MergingResult nudged = *hist;
  {
    std::vector<fasthist::HistogramPiece> pieces = nudged.histogram.pieces();
    pieces[pieces.size() / 2].value += 0.5;
    nudged.histogram =
        fasthist::Histogram::Create(hist_in.q.domain_size(), pieces).value();
  }
  t.Expect("hist fit err/bound/pieces",
           CheckHistFit(hist_in.q, *hist, kFitPieces, options,
                        hist_in.planted_l2),
           CheckHistFit(hist_in.q, nudged, kFitPieces, options,
                        hist_in.planted_l2));
  t.Expect("hist fit bit-identity", CheckSameHistFit(*hist, *hist),
           CheckSameHistFit(*hist, nudged));

  const FitInput poly_in = MakeFitInput({true, 12}, 7, 1);
  auto poly = fasthist::ConstructPiecewisePolynomialFast(
      poly_in.q, kFitPieces, kPolyDegree, options);
  if (!poly.ok()) Die("self-test ConstructPiecewisePolynomialFast",
                      poly.status());
  fasthist::PiecewisePolyResult poly_nudged = *poly;
  {
    std::vector<fasthist::PolyFit> pieces = poly_nudged.function.pieces();
    pieces[pieces.size() / 2].coefficients[0] += 0.5;
    poly_nudged.function = fasthist::PiecewisePolynomial::Create(
                               poly_in.q.domain_size(), pieces)
                               .value();
  }
  t.Expect("poly fit err/bound/pieces",
           CheckPolyFit(poly_in.q, *poly, kFitPieces, options,
                        poly_in.planted_l2),
           CheckPolyFit(poly_in.q, poly_nudged, kFitPieces, options,
                        poly_in.planted_l2));
  t.Expect("poly fit bit-identity", CheckSamePolyFit(*poly, *poly),
           CheckSamePolyFit(*poly, poly_nudged));

  // A drained key against its replay: the wrong outputs are an accepted
  // count off by one and a summary with one bit flipped.
  fasthist::Rng rng(11);
  std::vector<int64_t> samples(200);
  for (int64_t& v : samples) v = LognormalValue(rng);
  auto builder =
      fasthist::StreamingHistogramBuilder::Create(kValueDomain, 8, 64);
  if (!builder.ok()) Die("self-test builder", builder.status());
  if (fasthist::Status s = builder->AddMany(samples); !s.ok()) {
    Die("self-test AddMany", s);
  }
  const Histogram summary = builder->Peek().value();
  t.Expect("drained count",
           CheckDrainedKey(5, 200, 200, summary, summary),
           CheckDrainedKey(5, 201, 200, summary, summary));
  t.Expect("drained summary bits",
           CheckDrainedKey(5, 200, 200, summary, summary),
           CheckDrainedKey(5, 200, 200, FlipLowBit(summary), summary));

  // Served quantile and the two rollup counts.
  fasthist::QuantileReply served;
  served.value = fasthist::Aggregator::Create(summary)->Quantile(0.9);
  served.num_samples = 200;
  fasthist::QuantileReply off = served;
  off.value += 1;
  t.Expect("served quantile",
           CheckServedQuantile(5, 0.9, served, summary, 200),
           CheckServedQuantile(5, 0.9, off, summary, 200));
  t.Expect("pulled count", CheckPulledCount(5, 200, 200),
           CheckPulledCount(5, 199, 200));
  t.Expect("rollup weight", CheckRollupWeight(1600.0, 1600),
           CheckRollupWeight(1601.0, 1600));

  // A stats readout within the client maxima, and one above them.
  fasthist::ServerStats stats;
  stats.ingest_p50_us = 40.0;
  stats.ingest_p99_us = 300.0;
  stats.ingest_p995_us = 800.0;
  stats.query_p50_us = 50.0;
  stats.query_p99_us = 120.0;
  stats.query_p995_us = 200.0;
  fasthist::ServerStats above = stats;
  above.query_p995_us = 1.5e6;
  t.Expect("stats readout", CheckStatsReadout(stats, 1000.0, 1000.0),
           CheckStatsReadout(above, 1000.0, 1000.0));
  return t.bad;
}

}  // namespace perfbench
