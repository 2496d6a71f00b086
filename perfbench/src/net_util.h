// Socket plumbing shared by ingest_zipf, query_mix and the net entries of
// the ledger: the in-process server, the client connections, and the
// client-side log of every ACK (from which the accepted samples are
// reconstructed for the checks).
#ifndef PERFBENCH_NET_UTIL_H_
#define PERFBENCH_NET_UTIL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "bench.h"
#include "net/client.h"
#include "net/sharded_ingest_server.h"

namespace perfbench {

// The server keeps its defaults apart from the loop count and the value
// domain.
fasthist::ShardedIngestServerOptions ServerOptions();

// A started server with kConnections connected clients.
struct Deployment {
  std::unique_ptr<fasthist::ShardedIngestServer> server;
  std::vector<fasthist::IngestClient> clients;

  static Deployment Start();
  // Closes the clients and drains the server; afterwards server->store()
  // holds exactly the accepted samples.
  void Shutdown();
};

// One ACKed batch: where its samples live (a buffer that outlives the
// log) and the per-partition disposition the ACK recorded.
struct SentBatch {
  const fasthist::KeyedSample* data = nullptr;
  uint32_t size = 0;
  uint8_t keep_shift[kServerLoops] = {};
  uint8_t rejected[kServerLoops] = {};
};

// What one connection sent, in ACK order, and the round-trip maxima the
// kStats check compares against.
struct ConnLog {
  std::vector<SentBatch> batches;
  // Samples resent after a shed or rejection (the load phases only).
  std::deque<std::vector<fasthist::KeyedSample>> resent;
  double max_ingest_rtt_us = 0.0;
  double max_query_rtt_us = 0.0;  // quantile queries and snapshot pulls
  uint64_t rejected_batches = 0;  // batches with any shed or rejected sample

  // Empties the log, keeping the room reserved for its batches.
  void Clear() {
    batches.clear();
    resent.clear();
    max_ingest_rtt_us = max_query_rtt_us = 0.0;
    rejected_batches = 0;
  }
};

// Records one ACK of the batch data[0, size) into `log`.
void LogAck(const fasthist::KeyedSample* data, size_t size,
            const fasthist::IngestAck& ack, ConnLog* log);

// The accepted subsequence of a logged batch (ReconstructAccepted).
std::vector<fasthist::KeyedSample> Accepted(const SentBatch& batch);

// Sends samples[0, n) in `batch`-sample batches, resending whatever was
// not accepted until every sample is; dies on a transport failure.
void SendAll(fasthist::IngestClient& client,
             const fasthist::KeyedSample* samples, size_t n, size_t batch,
             ConnLog* log);

// Timed ingest RPC: Ingest under a span, round trip in microseconds.
fasthist::IngestClient::IngestResult TimedIngest(
    fasthist::IngestClient& client, const fasthist::KeyedSample* data,
    size_t size, double* rtt_us);

// Adds the net.* counters of a final kStats readout to `result`.
void AddServerCounters(const fasthist::ServerStats& stats, RunResult* result);

// A short read probe against a live server, with spans around every call:
// `queries` quantile queries, `pulls` snapshot pulls and `stats` kStats
// requests over `keys` (cycled).
void NetProbe(fasthist::IngestClient& client,
              const std::vector<uint64_t>& keys, int queries, int pulls,
              int stats);

// Adds the net.*_rtt entries from the recorded client spans.
void AddRttEntries(RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_NET_UTIL_H_
