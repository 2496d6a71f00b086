#include "net_util.h"

#include <algorithm>
#include <chrono>

#include "inputs.h"
#include "ledger.h"
#include "store/partitioned_store.h"
#include "trace.h"

namespace perfbench {

using fasthist::IngestAck;
using fasthist::IngestClient;
using fasthist::KeyedSample;

fasthist::ShardedIngestServerOptions ServerOptions() {
  fasthist::ShardedIngestServerOptions options;
  options.num_loops = kServerLoops;
  options.base.archetype.domain_size = kValueDomain;
  return options;
}

Deployment Deployment::Start() {
  Deployment d;
  auto server = fasthist::ShardedIngestServer::Create(ServerOptions());
  if (!server.ok()) Die("ShardedIngestServer::Create", server.status());
  d.server = std::move(server).value();
  if (fasthist::Status s = d.server->Start(); !s.ok()) {
    Die("ShardedIngestServer::Start", s);
  }
  for (int c = 0; c < kConnections; ++c) {
    auto client = IngestClient::Connect("127.0.0.1", d.server->port());
    if (!client.ok()) Die("IngestClient::Connect", client.status());
    d.clients.push_back(std::move(client).value());
  }
  return d;
}

void Deployment::Shutdown() {
  for (IngestClient& client : clients) client.Close();
  if (fasthist::Status s = server->Shutdown(); !s.ok()) Die("Shutdown", s);
}

void LogAck(const KeyedSample* data, size_t size, const IngestAck& ack,
            ConnLog* log) {
  SentBatch entry;
  entry.data = data;
  entry.size = static_cast<uint32_t>(size);
  for (const fasthist::PartitionDisposition& d : ack.partitions) {
    if (d.partition >= static_cast<uint32_t>(kServerLoops)) {
      Die("ACK names a partition the server does not have");
    }
    entry.keep_shift[d.partition] = static_cast<uint8_t>(d.keep_shift);
    entry.rejected[d.partition] = d.rejected != 0 ? 1 : 0;
  }
  log->batches.push_back(entry);
  if (ack.shed != 0 || ack.rejected != 0) ++log->rejected_batches;
}

namespace {

IngestAck Expand(const SentBatch& batch) {
  IngestAck ack;
  for (int p = 0; p < kServerLoops; ++p) {
    fasthist::PartitionDisposition d;
    d.partition = static_cast<uint32_t>(p);
    d.keep_shift = batch.keep_shift[p];
    d.rejected = batch.rejected[p];
    ack.partitions.push_back(d);
  }
  return ack;
}

}  // namespace

std::vector<KeyedSample> Accepted(const SentBatch& batch) {
  return fasthist::ReconstructAccepted(
      fasthist::Span<const KeyedSample>(batch.data, batch.size), Expand(batch),
      static_cast<uint32_t>(kServerLoops));
}

IngestClient::IngestResult TimedIngest(IngestClient& client,
                                       const KeyedSample* data, size_t size,
                                       double* rtt_us) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = [&] {
    ScopedSpan span("net.IngestClient::Ingest");
    return client.Ingest(fasthist::Span<const KeyedSample>(data, size));
  }();
  *rtt_us = std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count();
  if (!result.ok()) Die("IngestClient::Ingest", result.status());
  if (result->rejected) Die("a sharded server answered kRejected");
  return std::move(result).value();
}

void SendAll(IngestClient& client, const KeyedSample* samples, size_t n,
             size_t batch, ConnLog* log) {
  for (size_t begin = 0; begin < n; begin += batch) {
    const KeyedSample* data = samples + begin;
    size_t size = std::min(batch, n - begin);
    while (true) {
      double rtt_us = 0.0;
      const auto r = TimedIngest(client, data, size, &rtt_us);
      log->max_ingest_rtt_us = std::max(log->max_ingest_rtt_us, rtt_us);
      LogAck(data, size, r.ack, log);
      if (r.ack.accepted == size) break;
      // Resend what the ACK did not accept, in batch order: the accepted
      // part is exactly ReconstructAccepted's, so the rest is its
      // complement.
      const std::vector<KeyedSample> kept = Accepted(log->batches.back());
      std::vector<KeyedSample> rest;
      size_t k = 0;
      for (size_t i = 0; i < size; ++i) {
        if (k < kept.size() && kept[k].key == data[i].key &&
            kept[k].value == data[i].value) {
          ++k;
        } else {
          rest.push_back(data[i]);
        }
      }
      log->resent.push_back(std::move(rest));
      data = log->resent.back().data();
      size = log->resent.back().size();
    }
  }
}

void AddServerCounters(const fasthist::ServerStats& stats, RunResult* result) {
  uint64_t max_depth = 0;
  for (const fasthist::PartitionStats& p : stats.partitions) {
    max_depth = std::max(max_depth, p.max_queue_depth);
  }
  result->Add("net.flushes_size", static_cast<double>(stats.flushes_size),
              "count");
  result->Add("net.flushes_deadline",
              static_cast<double>(stats.flushes_deadline), "count");
  result->Add("net.partition_max_depth", static_cast<double>(max_depth),
              "count");
  result->Add("net.accepted_per_offered",
              stats.samples_offered == 0
                  ? 1.0
                  : static_cast<double>(stats.samples_accepted) /
                        static_cast<double>(stats.samples_offered),
              "ratio");
  result->Add("net.batches_rejected",
              static_cast<double>(stats.batches_rejected), "count");
}

void NetProbe(IngestClient& client, const std::vector<uint64_t>& keys,
              int queries, int pulls, int stats) {
  static constexpr double kRanks[] = {0.5, 0.9, 0.99};
  for (int i = 0; i < queries; ++i) {
    ScopedSpan span("net.IngestClient::Quantile");
    auto r = client.Quantile(keys[static_cast<size_t>(i) % keys.size()],
                             kRanks[i % 3]);
    if (!r.ok()) Die("IngestClient::Quantile", r.status());
  }
  for (int i = 0; i < pulls; ++i) {
    ScopedSpan span("net.IngestClient::PullSnapshot");
    auto r = client.PullSnapshot(keys[static_cast<size_t>(i) % keys.size()]);
    if (!r.ok()) Die("IngestClient::PullSnapshot", r.status());
  }
  for (int i = 0; i < stats; ++i) {
    ScopedSpan span("net.IngestClient::Stats");
    auto r = client.Stats();
    if (!r.ok()) Die("IngestClient::Stats", r.status());
  }
}

void AddRttEntries(RunResult* result) {
  result->Add("net.ingest_rtt_p50_us", SpanMedian("net.IngestClient::Ingest", 1e3),
              "us");
  result->Add("net.ingest_rtt_p99_us", SpanP99("net.IngestClient::Ingest", 1e3),
              "us");
  result->Add("net.query_rtt_p50_us",
              SpanMedian("net.IngestClient::Quantile", 1e3), "us");
  result->Add("net.query_rtt_p99_us",
              SpanP99("net.IngestClient::Quantile", 1e3), "us");
  result->Add("net.pull_rtt_p50_us",
              SpanMedian("net.IngestClient::PullSnapshot", 1e3), "us");
  result->Add("net.stats_rtt_us", SpanMedian("net.IngestClient::Stats", 1e3),
              "us");
}

}  // namespace perfbench
