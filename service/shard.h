#ifndef FASTHIST_SERVICE_SHARD_H_
#define FASTHIST_SERVICE_SHARD_H_

#include <cstdint>

#include "core/streaming.h"
#include "service/wire_format.h"
#include "util/span.h"
#include "util/status.h"

namespace fasthist {

// The ingest front-end of the service layer: one ShardIngestor per shard of
// the incoming stream.  Each instance owns a StreamingHistogramBuilder (so
// memory stays O(buffer + k) per shard no matter how much it ingests) and
// exports wire-encoded snapshots for the reduction layer
// (service/merge_tree.h).  Instances are fully independent — a fleet of
// them scales ingest linearly across threads or machines; only the small
// encoded snapshots ever travel between shards.
class ShardIngestor {
 public:
  // `shard_id` is the shard's stable identity; the merge tree canonicalizes
  // snapshot order by it, which is what makes reduction arrival-order
  // invariant.  The remaining arguments are forwarded to
  // StreamingHistogramBuilder::Create.
  static StatusOr<ShardIngestor> Create(
      uint64_t shard_id, int64_t domain_size, int64_t k,
      size_t buffer_capacity, const MergingOptions& options = MergingOptions());

  uint64_t shard_id() const { return shard_id_; }
  int64_t domain_size() const { return domain_size_; }
  int64_t num_samples() const { return builder_.num_samples(); }

  // Batched ingest (bulk buffer appends, one condense+merge per full
  // buffer).  Samples must lie in [0, domain_size).  Takes a
  // pointer+length view (vectors convert implicitly), so a server can
  // ingest straight out of a network or decode buffer without copying.
  Status Ingest(Span<const int64_t> samples);

  // Wire-encoded summary of everything ingested so far.  Const: built on
  // StreamingHistogramBuilder::Peek, so exporting never flushes the buffer
  // or perturbs the summaries later ingest will produce.  Callers must
  // serialize exports against concurrent Ingest calls on the same shard —
  // this class is single-writer.  To scale writers, give each its own
  // ShardIngestor (or key-hash partition, as net/sharded_ingest_server.h
  // does) and fold their snapshots through ReduceSnapshots: a merge costs
  // one more error level, never shared mutable state.
  StatusOr<ShardSnapshot> ExportSnapshot() const;

 private:
  ShardIngestor(uint64_t shard_id, int64_t domain_size,
                StreamingHistogramBuilder builder)
      : shard_id_(shard_id),
        domain_size_(domain_size),
        builder_(std::move(builder)) {}

  uint64_t shard_id_;
  int64_t domain_size_;
  StreamingHistogramBuilder builder_;
};

}  // namespace fasthist

#endif  // FASTHIST_SERVICE_SHARD_H_
