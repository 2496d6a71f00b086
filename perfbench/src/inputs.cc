#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "trace.h"

namespace perfbench {

using fasthist::KeyedSample;
using fasthist::Rng;

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  // splitmix64 finalizer over (seed, tag).
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + tag + 0x632be59bd9b4e019ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

const std::vector<FitSpec>& FitRound() {
  static const std::vector<FitSpec> round = {
      {false, 19}, {false, 19}, {false, 20}, {false, 20},
      {false, 20}, {false, 20}, {false, 20}, {false, 20},
      {false, 21}, {true, 20},  {true, 20},  {true, 20},
  };
  return round;
}

FitInput MakeFitInput(const FitSpec& spec, uint64_t seed, int index) {
  Rng rng(SubSeed(seed, 0x1000 + static_cast<uint64_t>(index)));
  const int64_t n = int64_t{1} << spec.log2_n;

  // kFitPieces pieces: kFitPieces - 1 distinct cut points in [1, n).
  std::vector<int64_t> cuts;
  while (static_cast<int64_t>(cuts.size()) < kFitPieces - 1) {
    cuts.push_back(1 + rng.UniformInt(n - 1));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  }
  cuts.push_back(n);

  std::vector<double> dense(static_cast<size_t>(n));
  double noise_sq = 0.0;
  int64_t begin = 0;
  for (int64_t end : cuts) {
    const double a = 16.0 * rng.UniformDouble();
    const double b = spec.poly ? 8.0 * rng.UniformDouble() - 4.0 : 0.0;
    const double c = spec.poly ? 8.0 * rng.UniformDouble() - 4.0 : 0.0;
    const double len = static_cast<double>(end - begin);
    for (int64_t x = begin; x < end; ++x) {
      const double t = static_cast<double>(x - begin) / len;
      const double noise = rng.Gaussian();
      dense[static_cast<size_t>(x)] = a + t * (b + t * c) + noise;
      noise_sq += noise * noise;
    }
    begin = end;
  }

  FitInput input;
  input.spec = spec;
  {
    ScopedSpan span("dist.SparseFunction::FromDense");
    input.q = fasthist::SparseFunction::FromDense(dense);
  }
  input.planted_l2 = std::sqrt(noise_sq);
  return input;
}

int64_t LognormalValue(Rng& rng) {
  const double v = std::exp(std::log(4096.0) + rng.Gaussian());
  return std::min<int64_t>(kValueDomain - 1, static_cast<int64_t>(v));
}

ZipfSampler::ZipfSampler(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
  double total = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int64_t ZipfSampler::Draw(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(static_cast<int64_t>(it - cdf_.begin()),
                           static_cast<int64_t>(cdf_.size()) - 1);
}

std::vector<KeyedSample> MakeZipfPool(uint64_t seed, int connection,
                                      size_t batches) {
  static const ZipfSampler zipf(kZipfKeysPerConnection, kZipfExponent);
  Rng rng(SubSeed(seed, 0x2000 + static_cast<uint64_t>(connection)));
  std::vector<KeyedSample> pool(batches * kIngestBatch);
  for (KeyedSample& s : pool) {
    s.key = ZipfKey(connection, zipf.Draw(rng));
    s.value = LognormalValue(rng);
  }
  return pool;
}

std::vector<KeyedSample> MakeZipfWarmPass(uint64_t seed, int connection) {
  Rng rng(SubSeed(seed, 0x3000 + static_cast<uint64_t>(connection)));
  std::vector<KeyedSample> pass(static_cast<size_t>(kZipfKeysPerConnection));
  for (int64_t r = 0; r < kZipfKeysPerConnection; ++r) {
    pass[static_cast<size_t>(r)] =
        KeyedSample{ZipfKey(connection, r), LognormalValue(rng)};
  }
  return pass;
}

std::vector<KeyedSample> MakeQueryLoad(uint64_t seed, int connection) {
  Rng rng(SubSeed(seed, 0x4000 + static_cast<uint64_t>(connection)));
  std::vector<int64_t> order(static_cast<size_t>(kQueryKeysPerConnection));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::vector<KeyedSample> load;
  load.reserve(order.size() * kQueryLoadPerKey);
  for (int pass = 0; pass < kQueryLoadPerKey; ++pass) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(rng.UniformInt(
                    static_cast<int64_t>(i)))]);
    }
    for (int64_t index : order) {
      load.push_back(KeyedSample{QueryKey(connection, index),
                                 LognormalValue(rng)});
    }
  }
  return load;
}

}  // namespace perfbench
