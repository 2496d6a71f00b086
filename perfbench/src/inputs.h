// The benchmark's own input generators.  Every input is a pure function of
// the --seed argument; the library sees only the generated values.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "dist/sparse_function.h"
#include "store/summary_store.h"
#include "util/random.h"

namespace perfbench {

// Mixes a run seed with a stream tag so that every generator draws from
// its own independent stream.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

// --- fit_offline ------------------------------------------------------------

constexpr int64_t kFitPieces = 64;  // k of every fit and of every planted g
constexpr int kPolyDegree = 2;

struct FitSpec {
  bool poly = false;
  int log2_n = 19;
};

// One round of the fixed fit job, 9 histogram fits to 3 polynomial fits:
// 2 x 2^19, 6 x 2^20 and 1 x 2^21 points for ConstructHistogramFast, and
// 3 x 2^20 points for ConstructPiecewisePolynomialFast.  Every histogram
// fit is faster than every polynomial fit, so p50 lands in the middle of
// the 2^20 histogram group and p90 inside the polynomial group.
const std::vector<FitSpec>& FitRound();

struct FitInput {
  FitSpec spec;
  fasthist::SparseFunction q;  // planted generator g plus Gaussian noise
  double planted_l2 = 0.0;     // ||q - g||_2, an upper bound on OPT_k
};

// Input `index` of the job: a 64-piece step function (spec.poly false) or
// a 64-piece degree-2 piecewise polynomial, plus N(0, 1) noise.
FitInput MakeFitInput(const FitSpec& spec, uint64_t seed, int index);

// --- keyed samples (ingest_zipf, query_mix) ---------------------------------

constexpr int64_t kValueDomain = int64_t{1} << 20;

// Lognormal value, median 2^12 and sigma 1 in natural-log units, clamped
// into [0, kValueDomain).
int64_t LognormalValue(fasthist::Rng& rng);

// Zipf(s) over ranks [0, n): P(rank r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);
  int64_t Draw(fasthist::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ingest_zipf: 2^16 keys split by parity between the two connections, each
// connection drawing Zipf(1.1) over its own 2^15 keys, so no key is ever
// written from two connections and its server-side order is the order of
// its connection's ACKs.
constexpr int64_t kZipfKeysPerConnection = int64_t{1} << 15;
constexpr double kZipfExponent = 1.1;
constexpr size_t kIngestBatch = 256;

inline uint64_t ZipfKey(int connection, int64_t rank) {
  return 1 + 2 * static_cast<uint64_t>(rank) +
         static_cast<uint64_t>(connection);
}

// `batches` pre-generated 256-sample batches for one connection,
// concatenated.
std::vector<fasthist::KeyedSample> MakeZipfPool(uint64_t seed, int connection,
                                                size_t batches);

// One sample of each of the connection's 2^15 keys, lognormal values: the
// key-creating first pass of ingest_zipf's setup.
std::vector<fasthist::KeyedSample> MakeZipfWarmPass(uint64_t seed,
                                                    int connection);

// query_mix: 2^17 keys, key = 1 + 2 * i + connection for i < 2^16, loaded
// with exactly 100 lognormal samples each (one 64-sample condensed window
// plus 36 buffered samples per key).
constexpr int64_t kQueryKeysPerConnection = int64_t{1} << 16;
constexpr int kQueryLoadPerKey = 100;

inline uint64_t QueryKey(int connection, int64_t index) {
  return 1 + 2 * static_cast<uint64_t>(index) +
         static_cast<uint64_t>(connection);
}

// The connection's load stream: 100 passes over its keys in a seeded
// order per pass, so every batch spans many keys.
std::vector<fasthist::KeyedSample> MakeQueryLoad(uint64_t seed,
                                                 int connection);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
