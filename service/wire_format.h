#ifndef FASTHIST_SERVICE_WIRE_FORMAT_H_
#define FASTHIST_SERVICE_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dist/histogram.h"
#include "util/status.h"

namespace fasthist {

// Versioned little-endian binary codec for Histogram, plus the shard
// snapshot envelope the reduction layer consumes.  This is the service
// layer's interchange format: every byte layout is explicit (no struct
// dumping), so encodings are identical across platforms and compilers.
//
// Encoded histogram layout (version 1):
//
//   | offset | size | field                                               |
//   |--------|------|-----------------------------------------------------|
//   | 0      | 4    | magic "FHh1"                                        |
//   | 4      | 4    | version (= 1)                                       |
//   | 8      | 8    | domain_size (int64, > 0)                            |
//   | 16     | 8    | num_pieces P (int64, 1 <= P <= domain_size)         |
//   | 24     | 8*P  | piece end offsets (int64, strictly increasing,      |
//   |        |      | last == domain_size; piece i begins at end[i-1],    |
//   |        |      | piece 0 at 0, so contiguity is structural)          |
//   | 24+8P  | 8*P  | piece values (IEEE-754 double bits)                 |
//
// Encoding is total: every valid Histogram encodes.  Decoding is
// bounds-checked end to end and reports corruption — truncation, bad
// magic/version, piece-count overflow, non-monotone ends, trailing bytes,
// and non-finite or negative piece values (a hostile value plane would
// otherwise poison every merge and query downstream; densities are
// non-negative by construction, so the codec boundary rejects them) — as a
// non-OK Status, never UB or a crash.  Round-trips are exact for every
// histogram the library produces: DecodeHistogram(EncodeHistogram(h))
// reproduces the intervals and the value bits identically.

std::vector<uint8_t> EncodeHistogram(const Histogram& histogram);

StatusOr<Histogram> DecodeHistogram(const uint8_t* data, size_t size);
inline StatusOr<Histogram> DecodeHistogram(const std::vector<uint8_t>& bytes) {
  return DecodeHistogram(bytes.data(), bytes.size());
}

// One shard's exported summary: identity, merge weight, and the encoded
// histogram.  This is what travels from a ShardIngestor to the merge tree
// (service/merge_tree.h); `encoded_histogram` stays opaque bytes until the
// reducer decodes it, so snapshots can be shipped, stored, or replayed
// without the receiver trusting the sender's memory layout.
struct ShardSnapshot {
  uint64_t shard_id = 0;
  int64_t num_samples = 0;  // merge weight of this summary
  // Lemma-4.2 error levels already spent producing `encoded_histogram`
  // (condenses + merges on the shard: the builder's dyadic ladder depth,
  // see StreamingHistogramBuilder::error_levels).  The reducer adds its own tree depth on top, so
  // MergeTreeResult::error_levels stays an honest end-to-end count.
  // 0 only for a no-data snapshot (num_samples == 0).
  int error_levels = 0;
  std::vector<uint8_t> encoded_histogram;
  // Multi-tenant identity (wire version 3): when `keyed` is set the
  // snapshot summarizes one key of a keyed summary store (user / metric /
  // time bucket — see store/summary_store.h) rather than a whole shard,
  // and `key_id` names it.  Un-keyed snapshots (the only kind before v3)
  // encode as version 2 byte-identically, so every pre-store producer and
  // consumer keeps its exact bytes.  Declared last so pre-v3 aggregate
  // initializers keep their field order.
  bool keyed = false;
  uint64_t key_id = 0;
};

// Envelope layout (version 2): magic "FHs1", version (= 2), shard_id (u64),
// num_samples (int64, >= 0), error_levels (int64, >= 0), histogram blob
// size (u64), blob.  Version 3 (keyed): identical except a key_id (u64)
// field between shard_id and num_samples.  Encoding picks the version from
// `keyed` — false encodes exact v2 bytes, true v3 — and decoding accepts
// both.  Decoding validates the envelope and the embedded histogram;
// version-1 envelopes (no error_levels field) are rejected as unsupported —
// a silent default would under-report the error budget.
std::vector<uint8_t> EncodeShardSnapshot(const ShardSnapshot& snapshot);

StatusOr<ShardSnapshot> DecodeShardSnapshot(const uint8_t* data, size_t size);
inline StatusOr<ShardSnapshot> DecodeShardSnapshot(
    const std::vector<uint8_t>& bytes) {
  return DecodeShardSnapshot(bytes.data(), bytes.size());
}

}  // namespace fasthist

#endif  // FASTHIST_SERVICE_WIRE_FORMAT_H_
