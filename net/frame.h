#ifndef FASTHIST_NET_FRAME_H_
#define FASTHIST_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "store/summary_store.h"
#include "util/span.h"
#include "util/status.h"

namespace fasthist {

// The length-prefixed framed protocol the net/ layer speaks over TCP.  A
// frame is a fixed 16-byte header followed by `payload_length` bytes:
//
//   | offset | size | field                                          |
//   |--------|------|------------------------------------------------|
//   | 0      | 4    | magic "FHn1"                                   |
//   | 4      | 4    | frame type (FrameType, u32)                    |
//   | 8      | 8    | payload_length (u64, <= the reader's cap)      |
//   | 16     | ...  | payload (typed codecs below)                   |
//
// Everything is little-endian, matching service/wire_format.h.  Decoding is
// bounds-checked end to end in the WireReader spirit: a truncated or hostile
// byte stream can only produce a non-OK Status (or "need more bytes") —
// never an out-of-bounds access, an allocation sized by attacker-controlled
// arithmetic, or a crash.  The payload-length cap is enforced *before* any
// payload is buffered, so a hostile length field cannot balloon memory.

enum class FrameType : uint32_t {
  kIngest = 1,         // client -> server: a batch of KeyedSamples
  kIngestAck = 2,      // server -> client: accepted/shed accounting
  kRejected = 3,       // server -> client: batch refused; no server here
                       // sends it (a refusal travels inside the ACK)
  kSnapshotPull = 4,   // client -> server: export one key's snapshot
  kSnapshotPush = 5,   // server -> client: wire v2/v3 snapshot envelope
  kQuantileQuery = 6,  // client -> server: quantile of one key
  kQuantileReply = 7,  // server -> client: the served quantile
  kStats = 8,          // client -> server: self-measured server stats
  kStatsReply = 9,     // server -> client: counters + P50/P99/P99.5
  kError = 10,         // server -> client: typed error reply
};

// One partition's disposition of its slice of a kIngest batch.
// `keep_shift` is that partition's degrade-to-sampling stride:
// within the partition's subsequence of the batch (samples with
// PartitionOfKey(key, N) == partition, in batch order), subsequence index j
// was kept iff rejected == 0 and j % (1 << keep_shift) == 0.  `rejected`
// counts samples refused outright (hard watermark or full hand-off ring) —
// all-or-nothing per partition per batch, so replay reconstruction stays a
// pure function of the ACK.
struct PartitionDisposition {
  uint32_t partition = 0;
  uint32_t keep_shift = 0;
  uint64_t accepted = 0;
  uint64_t shed = 0;
  uint64_t rejected = 0;
};

// Payload of kIngestAck: how the server disposed of one kIngest batch.  The
// server sheds *per partition* and fills `partitions` with one entry per
// partition the batch touched; each entry's stride is a deterministic
// function of that partition's depth, and the kept indices are a
// deterministic function of the stride — so the client can reconstruct the
// accepted subsequence exactly (ReconstructAccepted, below), which is what
// makes "server state is bit-identical to an offline replay of accepted
// samples" a checkable contract rather than a statistical hope.
// offered/accepted is the recorded weight-correction factor: uniform
// systematic thinning preserves the sample distribution (quantiles stay
// unbiased), but count readouts must be rescaled by it.
//
// The top-level accepted/shed/rejected are sums over the entries, and
// keep_shift is the largest stride any partition applied — summaries for
// dashboards; replay reads the entries.
struct IngestAck {
  uint64_t accepted = 0;
  uint64_t shed = 0;
  uint32_t keep_shift = 0;
  uint64_t rejected = 0;
  std::vector<PartitionDisposition> partitions;
};

// Payload of kRejected: the queue state that tripped the hard watermark.
// Kept in the codec for wire compatibility; no server in this repo sends
// it.
struct RejectedInfo {
  uint64_t queue_depth = 0;
  uint64_t hard_watermark = 0;
};

// Payload of kQuantileQuery / kQuantileReply.
struct QuantileQuery {
  uint64_t key = 0;
  double q = 0.0;
};
struct QuantileReply {
  int64_t value = 0;
  double error_budget = 0.0;
  int64_t num_samples = 0;
};

// One partition's live counters inside a kStatsReply — how operators see
// which partition is hot.  `queue_depth` is the partition's pending-sample
// depth at the moment its owner loop answered the stats scatter;
// `max_queue_depth` is its high-water mark since start.
struct PartitionStats {
  uint32_t partition = 0;
  uint64_t queue_depth = 0;
  uint64_t max_queue_depth = 0;
  uint64_t samples_accepted = 0;
  uint64_t samples_shed = 0;
  uint64_t samples_rejected = 0;
  uint64_t flushes_size = 0;
  uint64_t flushes_deadline = 0;
};

// Payload of kStatsReply: the server's own accounting, measured by its own
// streaming histograms (net/latency_recorder.h).  Latencies are
// microseconds; the ingest class times frame-decode -> ACK-queued, the
// query class times frame-decode -> reply-queued for pulls and quantiles.
// The server reports num_loops and one PartitionStats per partition; the
// top-level latency quantiles are the *merge* of every loop's recorder (the
// library's own mergeability at work), and the top-level counters are sums
// (max_queue_depth is the largest partition high-water mark).
struct ServerStats {
  uint64_t frames_received = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_dropped = 0;  // protocol errors (connection closed)
  uint64_t batches_ingested = 0;
  uint64_t batches_rejected = 0;
  uint64_t samples_offered = 0;
  uint64_t samples_accepted = 0;
  uint64_t samples_shed = 0;
  uint64_t flushes_size = 0;      // size-triggered queue flushes
  uint64_t flushes_deadline = 0;  // deadline-triggered queue flushes
  uint64_t max_queue_depth = 0;   // high-water mark over all partitions
  double ingest_p50_us = 0.0;
  double ingest_p99_us = 0.0;
  double ingest_p995_us = 0.0;
  int64_t ingest_count = 0;
  double query_p50_us = 0.0;
  double query_p99_us = 0.0;
  double query_p995_us = 0.0;
  int64_t query_count = 0;
  uint32_t num_loops = 1;
  std::vector<PartitionStats> partitions;
};

// Payload of kError.  kMalformed means the byte stream itself is broken —
// the server replies and then drops the connection (resynchronizing inside
// a corrupt length-prefixed stream is guesswork).  The semantic codes leave
// the connection up: the framing is intact, only the request failed.
enum class ErrorCode : uint32_t {
  kMalformed = 1,    // bad magic/type/length or undecodable payload
  kUnknownKey = 2,   // snapshot/quantile for a key the store has no entry
  kEmptyKey = 3,     // key exists but has no samples to serve
  kInternal = 4,     // store/aggregator failure on a well-formed request
  kShuttingDown = 5  // server is draining; no new batches accepted
};
struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// --- Frame assembly ---------------------------------------------------------

constexpr size_t kFrameHeaderBytes = 16;
// Default per-frame payload cap; servers may configure tighter.  The cap
// bounds decode-side buffering per connection, so one hostile length field
// cannot cost more memory than this.
constexpr uint64_t kDefaultMaxFramePayload = uint64_t{1} << 20;

// One decoded frame: the type plus its raw payload bytes (typed decode is a
// second, independent step — a dispatcher can switch on `type` first).
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

// Wraps `payload` in a frame header.
std::vector<uint8_t> EncodeFrame(FrameType type, Span<const uint8_t> payload);

// Incremental decoder for a TCP byte stream: feed arbitrary chunks with
// Consume, pull complete frames with Next.  The parser owns a single
// reassembly buffer bounded by header + max_payload; a hostile length field
// fails fast (Next returns kMalformed) instead of growing the buffer.
class FrameParser {
 public:
  explicit FrameParser(uint64_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  // Appends raw bytes off the socket.
  void Consume(Span<const uint8_t> bytes);

  // Extraction result: kFrame fills `out`; kNeedMore means the buffered
  // prefix is a valid partial frame; kMalformed means the stream is broken
  // at the current position (bad magic, bad type, oversized length) and the
  // connection should be dropped — the parser stays poisoned.
  enum class Result { kFrame, kNeedMore, kMalformed };
  Result Next(Frame* out);

  // Bytes currently buffered (partial frame under reassembly).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  uint64_t max_payload_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  // compacted lazily
  bool poisoned_ = false;
};

// --- Typed payload codecs ---------------------------------------------------
//
// Each Encode* produces exactly the bytes the matching Decode* accepts;
// every Decode* is total over arbitrary byte strings (Status, never UB) and
// rejects trailing bytes, so a frame's payload length must agree with its
// content exactly.

std::vector<uint8_t> EncodeIngestPayload(Span<const KeyedSample> samples);
StatusOr<std::vector<KeyedSample>> DecodeIngestPayload(
    Span<const uint8_t> payload);

// DecodeIngestAck also rejects any keep_shift above 63, so a decoded ACK's
// strides always fit a u64.
std::vector<uint8_t> EncodeIngestAck(const IngestAck& ack);
StatusOr<IngestAck> DecodeIngestAck(Span<const uint8_t> payload);

std::vector<uint8_t> EncodeRejectedInfo(const RejectedInfo& info);
StatusOr<RejectedInfo> DecodeRejectedInfo(Span<const uint8_t> payload);

// kSnapshotPull carries just the key id.
std::vector<uint8_t> EncodeKeyPayload(uint64_t key);
StatusOr<uint64_t> DecodeKeyPayload(Span<const uint8_t> payload);

std::vector<uint8_t> EncodeQuantileQuery(const QuantileQuery& query);
StatusOr<QuantileQuery> DecodeQuantileQuery(Span<const uint8_t> payload);

std::vector<uint8_t> EncodeQuantileReply(const QuantileReply& reply);
StatusOr<QuantileReply> DecodeQuantileReply(Span<const uint8_t> payload);

std::vector<uint8_t> EncodeServerStats(const ServerStats& stats);
StatusOr<ServerStats> DecodeServerStats(Span<const uint8_t> payload);

std::vector<uint8_t> EncodeErrorReply(const ErrorReply& error);
StatusOr<ErrorReply> DecodeErrorReply(Span<const uint8_t> payload);

// The client half of the bit-identical-replay contract: given the batch it
// sent, the ACK it got back, and the partition count the server runs
// (ServerStats::num_loops), returns the exact subsequence the server
// ingested, in original batch order.  Each entry's stride is applied within
// its partition's subsequence (the same PartitionOfKey walk the server
// did).  A partition entry with rejected != 0 contributed nothing; a
// partition the batch touched but the ACK omits likewise contributed
// nothing (defensive — the server always emits touched partitions), so an
// ACK with no entries reconstructs an empty set.
std::vector<KeyedSample> ReconstructAccepted(Span<const KeyedSample> batch,
                                             const IngestAck& ack,
                                             uint32_t num_partitions);

}  // namespace fasthist

#endif  // FASTHIST_NET_FRAME_H_
