#ifndef FASTHIST_NET_SHARDED_INGEST_SERVER_H_
#define FASTHIST_NET_SHARDED_INGEST_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/latency_recorder.h"
#include "net/spsc_ring.h"
#include "store/archetype_pool.h"
#include "store/partitioned_store.h"
#include "util/status.h"

namespace fasthist {

// The server's knob set that does not depend on the loop count: address,
// store archetype, flush triggers, per-partition watermarks and caps.
struct IngestServerOptions {
  // Loopback by default: the bench and tests drive the server over
  // 127.0.0.1, and a histogram service has no business on 0.0.0.0 unless
  // deliberately deployed there.
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; ShardedIngestServer::port() reports it

  // The keyed store every accepted sample lands in (archetype 0).
  ArchetypeConfig archetype;
  // Identity stamped on snapshots this server exports.
  uint64_t shard_id = 0;

  // Batch flush triggers: a partition's pending samples are flushed to its
  // SummaryStore::AddBatch when they number >= flush_batch (size trigger)
  // or when the oldest of them turns flush_deadline_us old (deadline
  // trigger) — whichever fires first.
  size_t flush_batch = 4096;
  uint64_t flush_deadline_us = 2000;

  // Two-tier overload policy, per partition, in accepted-but-unflushed
  // samples:
  //   depth <= soft_watermark          accept the partition's slice whole
  //   soft < depth < hard_watermark    degrade to sampling (thin the slice)
  //   depth >= hard_watermark          refuse the slice
  // A refused slice is reported inside the kIngestAck, as that partition's
  // `rejected` count; no separate frame is sent.  The hard watermark is the
  // bounded-queue guarantee: a partition never holds more than
  // hard_watermark + one racing batch per producer loop, so server memory
  // stays bounded no matter how fast clients push.
  size_t soft_watermark = 16384;
  size_t hard_watermark = 65536;

  // Frame payload cap (bounds per-connection decode buffering) and the
  // accept limit.
  uint64_t max_frame_payload = kDefaultMaxFramePayload;
  int max_connections = 256;

  // Write-side bound, the mirror of the ingest watermarks: a peer that
  // sends requests but never reads replies (a kSnapshotPull request is 24
  // bytes; its reply can be a ~1 MB envelope) would otherwise grow the
  // connection's reply buffer without limit.  Once the unwritten backlog
  // exceeds this many bytes the connection is dropped (the slices it had
  // accepted are already in the rings and still flush).  Must fit at least
  // one max-size frame, or every oversized reply would tear its connection
  // down.
  size_t max_reply_backlog = size_t{4} << 20;
};

struct ShardedIngestServerOptions {
  // Address, archetype, flush triggers, watermarks and caps; the
  // watermarks and the queue bound apply *per partition* (see below).
  IngestServerOptions base;

  // Worker event loops = key-hash partitions.  Must be a power of two
  // (PartitionOfKey masks, it does not divide).  1 is the single-loop
  // topology — the same code path, which is what the loops axis of the
  // bench compares against.
  int num_loops = 4;

  // Capacity (batches, power of two) of each (owner, producer) hand-off
  // ring.  A full ring rejects the batch's slice for that partition — the
  // same bounded-memory role the hard watermark plays, one level earlier.
  size_t ring_capacity = 64;

  // Readiness backend for every worker loop (kDefault = epoll on Linux).
  EventLoopBackend backend = EventLoopBackend::kDefault;
};

// The multi-core socket front-end: one acceptor distributing connections
// round-robin across N worker event loops, each worker owning the key-hash
// partition `PartitionOfKey(key, N) == worker index` of a
// PartitionedSummaryStore.  Mergeability is what makes this scaling free:
// partitions reduce through the deterministic merge tree with accounted
// error, so correctness never asks for a cross-thread lock — and indeed the
// request path has none.
//
//   clients ──> acceptor (loop 0) ──round-robin──> worker loops 0..N-1
//                 each loop:  parse ─ decode ─ stable-partition by key
//                       │ slice for own partition and for others
//                       ▼
//              SPSC ring[owner][producer]  (bounded, lock-free)
//                       ▼
//              owner loop drains rings ─ size/deadline flush ─ partition
//              store (single writer)  ──(queries)──> ReduceSummaries fan-in
//
// Ingest: the receiving loop decodes a batch, stable-partitions it by
// PartitionOfKey, and applies the two-tier shed policy *per partition*
// against that partition's accepted-but-unflushed depth: at or past the
// hard watermark (or with the hand-off ring full) the slice is rejected
// outright; between the watermarks it is thinned with a deterministic
// stride,
//
//   s = 1 + floor(3 * (depth - soft) / (hard - soft)),  clamped to [1, 4]
//
// keeping subsequence indices j with j % (1 << s) == 0 (1/2 down to 1/16);
// below the soft watermark it is kept whole.  Uniform thinning preserves
// the sample *distribution*, so quantile estimates stay unbiased.  Kept
// slices are pushed into the owner's ring *before* the ACK is sent, so by
// the time a client sees its ACK the samples are visible to any later
// drain — the freshness contract queries rely on.  The ACK carries
// one PartitionDisposition per touched partition, which keeps the
// bit-identical-replay contract of PR 9 alive under sharding: a client
// replays each partition's stride over its subsequence
// (ReconstructAccepted) and must land on exactly the server's state.
//
// Hand-off is one bounded SPSC ring per (owner, producer) pair — single
// producer (the receiving loop), single consumer (the owner loop), so the
// ring needs no locks, and a lost-wakeup-free arming bit (drain_armed)
// means at most one drain task is in flight per owner regardless of how
// many producers push.
//
// Queries and snapshot pulls route to the key's owner loop (drain rings,
// flush pending, serve from the single-writer partition store), and the
// reply hops back to the connection's own loop to be written.  kStats
// scatter-gathers every loop's counters and latency-recorder state, folds
// the recorders through ReduceSummaries (the service measuring itself with
// its own mergeability), and reports per-partition depths and shed
// counters so operators can see which partition is hot.
class ShardedIngestServer {
 public:
  static StatusOr<std::unique_ptr<ShardedIngestServer>> Create(
      const ShardedIngestServerOptions& options);

  ~ShardedIngestServer();

  ShardedIngestServer(const ShardedIngestServer&) = delete;
  ShardedIngestServer& operator=(const ShardedIngestServer&) = delete;

  uint16_t port() const { return port_; }
  uint32_t num_loops() const { return static_cast<uint32_t>(workers_.size()); }
  EventLoopBackend backend() const;

  // Spawns the worker threads and begins accepting.
  Status Start();

  // Graceful shutdown in three barriers: (1) stop accepting and close every
  // connection on every loop; (2) drain every hand-off ring and flush every
  // partition's pending batch into its store — safe now because stage 1
  // guaranteed no producer can push again; (3) quit and join the loops.
  // After Shutdown the store holds exactly the accepted samples — the
  // anchor of the replay bit-identity tests.  Idempotent.
  Status Shutdown();

  // Post-shutdown inspection (while serving, the loops own all of this and
  // a live server answers through frames instead).
  const PartitionedSummaryStore& store() const { return *store_; }
  const SummaryStore& partition_store(uint32_t p) const {
    return store_->partition(p);
  }
  StatusOr<ShardSnapshot> ExportKeyedSnapshot(uint64_t key) const {
    return store_->ExportKeyedSnapshot(key, options_.base.shard_id);
  }
  ServerStats stats() const;

 private:
  struct Connection;
  struct Worker;
  struct StatsGather;

  explicit ShardedIngestServer(ShardedIngestServerOptions options);

  Status Bind();
  // Posts `fn` to every worker loop and blocks until all have run it — the
  // shutdown barrier primitive.
  void RunOnAllLoopsAndWait(const std::function<void(Worker&)>& fn);

  // --- Acceptor (worker 0's loop) ---
  void OnListenerReadable();
  void PauseAccepting();
  void AdoptConnection(Worker& w, int fd);

  // --- Per-connection io (the owning worker's loop) ---
  void OnConnectionIo(Worker& w, int fd, EventLoop::IoEvent event);
  void OnConnectionReadable(Worker& w, Connection& conn);
  void HandleFrame(Worker& w, Connection& conn, const Frame& frame);
  void HandleIngest(Worker& w, Connection& conn, const Frame& frame,
                    uint64_t start_ns);
  void HandleSnapshotPull(Worker& w, Connection& conn, const Frame& frame,
                          uint64_t start_ns);
  void HandleQuantileQuery(Worker& w, Connection& conn, const Frame& frame,
                           uint64_t start_ns);
  void HandleStats(Worker& w, Connection& conn);
  // Runs on the connection's loop: deliver a reply built elsewhere, if the
  // connection is still the same one (fd reuse is id-checked).
  void DeliverReply(Worker& w, int fd, uint64_t conn_id, FrameType type,
                    std::vector<uint8_t> payload, uint64_t start_ns,
                    bool is_query);

  // --- Owner-side partition work (partition p == worker p's loop) ---
  void ArmDrain(Worker& owner);
  void DrainRings(Worker& owner);
  void FlushPending(Worker& owner);
  void ScheduleDeadlineFlush(Worker& owner);

  // --- Stats ---
  void CollectLocalStats(Worker& w, StatsGather& gather);
  void FinalizeStats(Worker& requester,
                     const std::shared_ptr<StatsGather>& gather);
  ServerStats AggregateStats(const StatsGather& gather) const;

  // --- Write path (the owning worker's loop).  The send path can tear
  // the connection down (a write error, or a reply backlog past
  // max_reply_backlog), so these return whether `conn` is still alive; on
  // false the reference is dangling and the caller must not touch it. ---
  bool SendFrame(Worker& w, Connection& conn, FrameType type,
                 Span<const uint8_t> payload);
  bool SendError(Worker& w, Connection& conn, ErrorCode code,
                 const std::string& message);
  bool PumpWrites(Worker& w, Connection& conn);
  void DropConnection(Worker& w, Connection& conn, ErrorCode code,
                      const std::string& message);
  void CloseConnection(Worker& w, int fd);

  ShardedIngestServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t accept_rearm_timer_id_ = 0;  // worker 0's loop only
  uint32_t next_accept_worker_ = 0;     // worker 0's loop only
  std::atomic<int> num_connections_{0};
  // Set by Shutdown before the close barrier: an adoption task that lands
  // after its worker already closed everything must not resurrect a
  // connection the barriers will never see again.
  std::atomic<bool> draining_{false};

  std::unique_ptr<PartitionedSummaryStore> store_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace fasthist

#endif  // FASTHIST_NET_SHARDED_INGEST_SERVER_H_
