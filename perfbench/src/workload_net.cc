// ingest_zipf and query_mix: closed-loop clients over loopback sockets
// against an in-process ShardedIngestServer (2 worker loops, 2 client
// connections on 2 threads).  Each connection owns half of the keys, so
// every key's server-side sample order is its connection's ACK order and
// the checks can replay it exactly.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/streaming.h"
#include "inputs.h"
#include "ledger.h"
#include "net_util.h"
#include "service/aggregator.h"
#include "service/merge_tree.h"
#include "trace.h"
#include "util/timer.h"

namespace perfbench {

using fasthist::Histogram;
using fasthist::IngestClient;
using fasthist::KeyedSample;
using fasthist::StreamingHistogramBuilder;

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Runs body(c) on one thread per connection and joins them.
template <typename Body>
void OnEachConnection(Body body) {
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
}

// The standalone builder the store's per-key summaries must match.
StreamingHistogramBuilder NewReplayBuilder() {
  const fasthist::ArchetypeConfig a = ServerOptions().base.archetype;
  auto b = StreamingHistogramBuilder::Create(a.domain_size, a.k,
                                             a.window_capacity, a.options);
  if (!b.ok()) Die("StreamingHistogramBuilder::Create", b.status());
  return std::move(b).value();
}

// Shuts down and frees an earlier set-up's deployment, and hands its freed
// heap back to the kernel, so that each set-up repetition starts from the
// same resident set and peak_rss_mb measures one deployment, not the
// fragmentation the earlier ones left behind.
void TearDown(Deployment* d) {
  if (!d->server) return;
  d->Shutdown();
  *d = Deployment();
  malloc_trim(0);
}

// Set-up sends in large batches, so that it is bound by the server's work
// (creating keys, loading summaries) rather than by round trips.
constexpr size_t kLoadBatch = 2048;

// --- ingest_zipf ----------------------------------------------------------

// Set-up takes 20-55 ms, so it is repeated many times and setup_s is the
// median of their CPU times.
constexpr int kIngestSetupReps = 41;
constexpr size_t kPoolBatches = 4096;  // 2^20 samples per connection
constexpr int kBatchesPerRound = 64;
// Log room per connection and second of the timed phase: about 5x the
// ~6,000 ACKs per second one connection sees today.
constexpr size_t kBatchesPerSecond = 30000;
// cpu_p50_us and cpu_tail_us are taken over windows of this many batches
// (~45 ms of CPU time each today).
constexpr uint64_t kIngestWindow = 256;

// The store's memory grows with the samples it holds (each key's ladder
// deepens), so peak_rss_mb is read once the timed phase has done a fixed
// amount of work, not at its end: otherwise a faster program would read
// as a bigger one.
class PeakAtVolume {
 public:
  explicit PeakAtVolume(uint64_t volume) : volume_(volume) {}

  // Counts `n` more units of work, from any thread; the one that crosses
  // the volume reads the peak.
  void Add(uint64_t n) {
    const uint64_t before = done_.fetch_add(n);
    if (before < volume_ && before + n >= volume_) peak_mb_ = PeakRssMb();
  }
  uint64_t done() const { return done_.load(); }
  // The reading, or the peak so far if the volume was never reached.  Call
  // after the threads that Add have been joined.
  double PeakMb() const { return peak_mb_ > 0.0 ? peak_mb_ : PeakRssMb(); }

 private:
  const uint64_t volume_;
  std::atomic<uint64_t> done_{0};
  double peak_mb_ = 0.0;
};

// 2^23 accepted samples take ~3 s at today's ~2.7M samples/s.
constexpr uint64_t kIngestRssVolume = uint64_t{1} << 23;

struct IngestPhase {
  std::vector<ConnLog> logs{kConnections};
  std::vector<std::vector<double>> rtt_us{kConnections};
  PeakAtVolume accepted{kIngestRssVolume};  // samples, every connection
  CpuWindows cpu{kIngestWindow};            // batches, every connection
  double seconds = 0.0;      // until the last connection stopped
  double cpu_seconds = 0.0;  // process CPU time over the same interval

  // Room for `seconds` of batches, resident before the peak_rss_mb
  // baseline is read.
  void Prefault(double seconds) {
    const size_t n = kBatchesPerSecond * static_cast<size_t>(seconds + 1);
    for (int c = 0; c < kConnections; ++c) {
      perfbench::Prefault(&logs[static_cast<size_t>(c)].batches, n);
      perfbench::Prefault(&rtt_us[static_cast<size_t>(c)], n);
    }
  }
};

// Every connection sends its pool's batches round-robin in rounds of
// kBatchesPerRound until `seconds` have passed (seconds > 0) or
// `max_rounds` rounds are done.
void RunIngestPhase(Deployment& d,
                    const std::vector<std::vector<KeyedSample>>& pools,
                    double seconds, int max_rounds, IngestPhase* phase) {
  const size_t max_batches =
      seconds > 0 ? kBatchesPerSecond * static_cast<size_t>(seconds + 1)
                  : static_cast<size_t>(max_rounds * kBatchesPerRound);
  phase->cpu.Start(kConnections * max_batches / kIngestWindow);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  OnEachConnection([&](int c) {
    IngestClient& client = d.clients[static_cast<size_t>(c)];
    const std::vector<KeyedSample>& pool = pools[static_cast<size_t>(c)];
    ConnLog& log = phase->logs[static_cast<size_t>(c)];
    std::vector<double>& rtts = phase->rtt_us[static_cast<size_t>(c)];
    size_t cursor = 0;
    for (int round = 0;; ++round) {
      if (seconds > 0 ? MicrosSince(start) >= seconds * 1e6
                      : round >= max_rounds) {
        break;
      }
      for (int b = 0; b < kBatchesPerRound; ++b) {
        ScopedSpan op("ingest_zipf.batch");
        const KeyedSample* data = pool.data() + cursor * kIngestBatch;
        cursor = (cursor + 1) % kPoolBatches;
        double rtt = 0.0;
        const auto r = TimedIngest(client, data, kIngestBatch, &rtt);
        rtts.push_back(rtt);
        log.max_ingest_rtt_us = std::max(log.max_ingest_rtt_us, rtt);
        LogAck(data, kIngestBatch, r.ack, &log);
        phase->accepted.Add(r.ack.accepted);
        phase->cpu.Add(1);
      }
    }
  });
  phase->seconds = MicrosSince(start) * 1e-6;
  phase->cpu_seconds = ProcessCpuSeconds() - cpu0;
}

// The ingest_zipf replay check: every key of connection c, in parallel by
// key half, replays its accepted subsequence (the warm pass, then the
// timed phase, in ACK order) through a standalone builder and compares
// with the drained store.
void CheckIngestReplay(const Deployment& d, const std::vector<ConnLog>& warm,
                       const IngestPhase& phase, RunResult* result) {
  std::vector<std::vector<std::string>> errors(2 * kConnections);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2 * kConnections; ++t) {
    threads.emplace_back([&, t] {
      const int c = t % kConnections;
      const int half = t / kConnections;
      std::vector<StreamingHistogramBuilder> builders;
      builders.reserve(static_cast<size_t>(kZipfKeysPerConnection / 2));
      for (int64_t i = 0; i < kZipfKeysPerConnection / 2; ++i) {
        builders.push_back(NewReplayBuilder());
      }
      auto feed = [&](const ConnLog& log) {
        for (const SentBatch& batch : log.batches) {
          for (const KeyedSample& s : Accepted(batch)) {
            const int64_t rank = static_cast<int64_t>((s.key - 1) / 2);
            if ((rank & 1) != half) continue;
            (void)builders[static_cast<size_t>(rank >> 1)].Add(s.value);
          }
        }
      };
      feed(warm[static_cast<size_t>(c)]);
      feed(phase.logs[static_cast<size_t>(c)]);
      const fasthist::PartitionedSummaryStore& store = d.server->store();
      for (int64_t i = 0; i < kZipfKeysPerConnection / 2; ++i) {
        const uint64_t key = ZipfKey(c, 2 * i + half);
        StreamingHistogramBuilder& b = builders[static_cast<size_t>(i)];
        auto count = store.NumSamples(key);
        auto drained = store.Query(key);
        auto replayed = b.Peek();
        if (!count.ok() || !drained.ok() || !replayed.ok()) {
          errors[static_cast<size_t>(t)].push_back(
              "ingest: drained key missing from the store");
          continue;
        }
        const std::string e =
            CheckDrainedKey(key, b.num_samples(), *count, *drained, *replayed);
        if (!e.empty()) errors[static_cast<size_t>(t)].push_back(e);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& list : errors) {
    for (const std::string& e : list) result->Check(e);
  }
}

// --- query_mix --------------------------------------------------------------

constexpr int kQuerySetupReps = 3;
constexpr int kOpsPerRound = 1000;
constexpr size_t kMixBatch = 64;
constexpr size_t kMixPoolBatches = 1024;
constexpr int kRollupKeys = 8;
// Log room per connection and second of the timed phase: about 5x the
// ~9,000 requests per second one connection serves today.
constexpr size_t kOpsPerSecond = 45000;
// The mix's ingest batches deepen keys' ladders, so peak_rss_mb is read
// after this many operations (~3 s at today's ~18,000 operations/s).
constexpr uint64_t kMixRssVolume = 50000;
// cpu_p50_us and cpu_tail_us are taken over windows of this many
// operations (~45 ms of CPU time each today).
constexpr uint64_t kMixWindow = 500;
constexpr double kRanks[] = {0.5, 0.9, 0.99};

enum class Op { kQuery, kIngest, kRollup, kStats };

// The fixed interleaving of one round: 849 quantile queries, 100 ingest
// batches, 50 rollups and one kStats request.
Op OpAt(int i) {
  if (i == kOpsPerRound - 1) return Op::kStats;
  if (i % 20 == 10) return Op::kRollup;
  if (i % 10 == 5) return Op::kIngest;
  return Op::kQuery;
}

struct QueryRecord {
  uint32_t index = 0;  // key index within the connection
  uint32_t count = 0;  // client tally of the key when the query was sent
  double q = 0.0;
  fasthist::QuantileReply reply;
};

struct MixConn {
  ConnLog log;  // load phase, then the mix's ingest batches
  std::vector<int64_t> tally;
  std::vector<QueryRecord> queries;
  std::vector<double> query_rtt_us;
  std::vector<fasthist::ServerStats> stats;
  int64_t ops = 0;
  std::vector<std::string> errors;
};

std::vector<KeyedSample> MakeMixPool(uint64_t seed, int connection) {
  fasthist::Rng rng(SubSeed(seed, 0x5000 + static_cast<uint64_t>(connection)));
  std::vector<KeyedSample> pool(kMixBatch * kMixPoolBatches);
  for (KeyedSample& s : pool) {
    s.key = QueryKey(connection, rng.UniformInt(kQueryKeysPerConnection));
    s.value = LognormalValue(rng);
  }
  return pool;
}

uint32_t IndexOfQueryKey(uint64_t key) {
  return static_cast<uint32_t>((key - 1) / 2);
}

void RunMixConnection(IngestClient& client, int c, uint64_t seed,
                      const std::vector<KeyedSample>& pool,
                      Clock::time_point start, double seconds, int max_rounds,
                      PeakAtVolume* ops, CpuWindows* cpu, MixConn* conn) {
  fasthist::Rng rng(SubSeed(seed, 0x6000 + static_cast<uint64_t>(c)));
  const fasthist::MergeTreeOptions tree;
  const int64_t k = ServerOptions().base.archetype.k;
  size_t cursor = 0;
  int64_t query_no = 0;
  for (int round = 0;; ++round) {
    if (seconds > 0 ? MicrosSince(start) >= seconds * 1e6
                    : round >= max_rounds) {
      break;
    }
    for (int i = 0; i < kOpsPerRound; ++i) {
      ++conn->ops;
      ops->Add(1);
      switch (OpAt(i)) {
        case Op::kQuery: {
          ScopedSpan op("query_mix.query");
          QueryRecord rec;
          rec.index = static_cast<uint32_t>(
              rng.UniformInt(kQueryKeysPerConnection));
          rec.count = static_cast<uint32_t>(conn->tally[rec.index]);
          rec.q = kRanks[query_no++ % 3];
          const Clock::time_point t0 = Clock::now();
          auto r = [&] {
            ScopedSpan span("net.IngestClient::Quantile");
            return client.Quantile(QueryKey(c, rec.index), rec.q);
          }();
          const double rtt = MicrosSince(t0);
          if (!r.ok()) Die("IngestClient::Quantile", r.status());
          conn->query_rtt_us.push_back(rtt);
          conn->log.max_query_rtt_us = std::max(conn->log.max_query_rtt_us, rtt);
          rec.reply = *r;
          conn->queries.push_back(rec);
          break;
        }
        case Op::kIngest: {
          ScopedSpan op("query_mix.ingest");
          const KeyedSample* data = pool.data() + cursor * kMixBatch;
          cursor = (cursor + 1) % kMixPoolBatches;
          double rtt = 0.0;
          const auto r = TimedIngest(client, data, kMixBatch, &rtt);
          conn->log.max_ingest_rtt_us = std::max(conn->log.max_ingest_rtt_us, rtt);
          LogAck(data, kMixBatch, r.ack, &conn->log);
          if (r.ack.accepted != 0) {
            for (const KeyedSample& s : Accepted(conn->log.batches.back())) {
              ++conn->tally[IndexOfQueryKey(s.key)];
            }
          }
          break;
        }
        case Op::kRollup: {
          ScopedSpan op("query_mix.rollup");
          // Eight distinct keys: ReduceSnapshots drops a byte-identical
          // repeat of a snapshot as a retransmit, by design.
          uint32_t picked[kRollupKeys];
          for (int j = 0; j < kRollupKeys; ++j) {
            do {
              picked[j] = static_cast<uint32_t>(
                  rng.UniformInt(kQueryKeysPerConnection));
            } while (std::find(picked, picked + j, picked[j]) != picked + j);
          }
          std::vector<fasthist::ShardSnapshot> snaps;
          int64_t pulled = 0;
          for (int j = 0; j < kRollupKeys; ++j) {
            const uint32_t index = picked[j];
            const Clock::time_point t0 = Clock::now();
            auto r = [&] {
              ScopedSpan span("net.IngestClient::PullSnapshot");
              return client.PullSnapshot(QueryKey(c, index));
            }();
            const double rtt = MicrosSince(t0);
            if (!r.ok()) Die("IngestClient::PullSnapshot", r.status());
            conn->log.max_query_rtt_us =
                std::max(conn->log.max_query_rtt_us, rtt);
            const std::string e = CheckPulledCount(
                QueryKey(c, index), r->num_samples, conn->tally[index]);
            if (!e.empty()) conn->errors.push_back(e);
            pulled += r->num_samples;
            snaps.push_back(std::move(r).value());
          }
          auto reduced = [&] {
            ScopedSpan span("service.ReduceSnapshots");
            return fasthist::ReduceSnapshots(std::move(snaps), k, tree);
          }();
          if (!reduced.ok()) Die("ReduceSnapshots", reduced.status());
          const std::string e = CheckRollupWeight(reduced->total_weight, pulled);
          if (!e.empty()) conn->errors.push_back(e);
          break;
        }
        case Op::kStats: {
          ScopedSpan op("query_mix.stats");
          auto r = [&] {
            ScopedSpan span("net.IngestClient::Stats");
            return client.Stats();
          }();
          if (!r.ok()) Die("IngestClient::Stats", r.status());
          conn->stats.push_back(std::move(r).value());
          break;
        }
      }
      cpu->Add(1);
    }
  }
}

// The shadow check of every served quantile: per key, a standalone builder
// replays the key's accepted samples in ACK order and is read at each
// query's tally.  Keys are split over nproc threads.  Alongside, each
// served quantile is compared with an exact sort of the same samples, for
// the rank and value error the README records (reported, not gated).
void CheckServedQuantiles(std::vector<MixConn>& conns, RunResult* result) {
  std::vector<double> rank_error, value_error;
  for (int c = 0; c < kConnections; ++c) {
    MixConn& conn = conns[static_cast<size_t>(c)];
    std::vector<std::vector<int64_t>> samples(
        static_cast<size_t>(kQueryKeysPerConnection));
    for (const SentBatch& batch : conn.log.batches) {
      for (const KeyedSample& s : Accepted(batch)) {
        samples[IndexOfQueryKey(s.key)].push_back(s.value);
      }
    }
    std::stable_sort(conn.queries.begin(), conn.queries.end(),
                     [](const QueryRecord& a, const QueryRecord& b) {
                       return a.index != b.index ? a.index < b.index
                                                 : a.count < b.count;
                     });
    const int workers = std::max(1, Nproc());
    std::vector<std::vector<std::string>> errors(static_cast<size_t>(workers));
    std::vector<std::vector<double>> ranks(static_cast<size_t>(workers)),
        values(static_cast<size_t>(workers));
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        const size_t n = conn.queries.size();
        size_t begin = n * static_cast<size_t>(w) / static_cast<size_t>(workers);
        size_t end =
            n * static_cast<size_t>(w + 1) / static_cast<size_t>(workers);
        // Align both ends to key boundaries so no key spans two workers.
        auto align = [&](size_t pos) {
          while (pos > 0 && pos < n &&
                 conn.queries[pos].index == conn.queries[pos - 1].index) {
            ++pos;
          }
          return pos;
        };
        begin = align(begin);
        end = align(end);
        size_t i = begin;
        while (i < end) {
          const uint32_t index = conn.queries[i].index;
          const std::vector<int64_t>& key_samples = samples[index];
          StreamingHistogramBuilder builder = NewReplayBuilder();
          size_t fed = 0;
          Histogram summary;
          std::vector<int64_t> sorted;
          bool have = false;
          for (; i < end && conn.queries[i].index == index; ++i) {
            const QueryRecord& rec = conn.queries[i];
            if (rec.count > key_samples.size()) {
              errors[static_cast<size_t>(w)].push_back(
                  "query: tally exceeds the key's accepted samples");
              continue;
            }
            if (!have || fed != rec.count) {
              (void)builder.AddMany(fasthist::Span<const int64_t>(
                  key_samples.data() + fed, rec.count - fed));
              fed = rec.count;
              summary = builder.Peek().value();
              sorted.assign(key_samples.begin(),
                            key_samples.begin() + rec.count);
              std::sort(sorted.begin(), sorted.end());
              have = true;
            }
            if (!sorted.empty()) {
              const double size = static_cast<double>(sorted.size());
              const size_t at = static_cast<size_t>(
                  std::max(1.0, std::ceil(rec.q * size)) - 1);
              const double exact = static_cast<double>(sorted[at]);
              const double below = static_cast<double>(
                  std::upper_bound(sorted.begin(), sorted.end(),
                                   rec.reply.value) -
                  sorted.begin());
              ranks[static_cast<size_t>(w)].push_back(
                  std::fabs(below / size - rec.q));
              values[static_cast<size_t>(w)].push_back(
                  std::fabs(static_cast<double>(rec.reply.value) - exact) /
                  std::max(1.0, exact));
            }
            const std::string e =
                CheckServedQuantile(QueryKey(c, index), rec.q, rec.reply,
                                    summary, builder.num_samples());
            if (!e.empty()) errors[static_cast<size_t>(w)].push_back(e);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& list : errors) {
      for (const std::string& e : list) result->Check(e);
    }
    for (int w = 0; w < workers; ++w) {
      rank_error.insert(rank_error.end(), ranks[static_cast<size_t>(w)].begin(),
                        ranks[static_cast<size_t>(w)].end());
      value_error.insert(value_error.end(),
                         values[static_cast<size_t>(w)].begin(),
                         values[static_cast<size_t>(w)].end());
    }
  }
  std::fprintf(stderr,
               "query_mix: %zu served quantiles vs an exact sort: rank error "
               "p50 %.4f p99 %.4f max %.4f; relative value error p50 %.4f "
               "p99 %.4f max %.4f\n",
               rank_error.size(), Percentile(rank_error, 0.5),
               Percentile(rank_error, 0.99), Percentile(rank_error, 1.0),
               Percentile(value_error, 0.5), Percentile(value_error, 0.99),
               Percentile(value_error, 1.0));
}

// ingest_zipf's inputs, generated before any timing: each connection's
// batch pool and key-creating warm pass.
struct ZipfInputs {
  std::vector<std::vector<KeyedSample>> pools, warm_pass;

  explicit ZipfInputs(uint64_t seed) {
    for (int c = 0; c < kConnections; ++c) {
      pools.push_back(MakeZipfPool(seed, c, kPoolBatches));
      warm_pass.push_back(MakeZipfWarmPass(seed, c));
    }
  }
};

// ingest_zipf's set-up: start the server, connect, and touch every key once.
Deployment StartWarm(const ZipfInputs& in, std::vector<ConnLog>* warm) {
  warm->assign(kConnections, ConnLog());
  Deployment d = Deployment::Start();
  OnEachConnection([&](int c) {
    const std::vector<KeyedSample>& pass = in.warm_pass[static_cast<size_t>(c)];
    SendAll(d.clients[static_cast<size_t>(c)], pass.data(), pass.size(),
            kLoadBatch, &(*warm)[static_cast<size_t>(c)]);
  });
  return d;
}

// The traced run's read probe on ingest_zipf's own keys (Zipf-weighted,
// from the first pool), then the server's counters.
void ProbeAndCount(Deployment& d, const ZipfInputs& in, RunResult* result) {
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < 1024; ++i) keys.push_back(in.pools[0][i * 97].key);
  NetProbe(d.clients[0], keys, 2000, 500, 20);
  auto stats = d.clients[0].Stats();
  if (!stats.ok()) Die("IngestClient::Stats", stats.status());
  AddServerCounters(*stats, result);
}

}  // namespace

void RunIngestZipf(const RunConfig& cfg, RunResult* result) {
  const ZipfInputs in(cfg.seed);
  IngestPhase phase;
  phase.Prefault(cfg.seconds);
  const double baseline_mb = ResidentMb();

  // Set-up, kIngestSetupReps times; setup_s is the median, the last one
  // serves.
  std::vector<double> setup_s;
  Deployment d;
  std::vector<ConnLog> warm;
  for (int rep = 0; rep < kIngestSetupReps; ++rep) {
    warm.clear();
    TearDown(&d);
    const double cpu0 = ProcessCpuSeconds();
    d = StartWarm(in, &warm);
    setup_s.push_back(ProcessCpuSeconds() - cpu0);
  }

  RunIngestPhase(d, in.pools, cfg.seconds, 0, &phase);
  const double peak_mb = phase.accepted.PeakMb() - baseline_mb;

  uint64_t rejected_batches = 0;
  std::vector<double> rtts;
  for (int c = 0; c < kConnections; ++c) {
    const ConnLog& log = phase.logs[static_cast<size_t>(c)];
    rejected_batches += log.rejected_batches;
    result->attempted += static_cast<int64_t>(log.batches.size());
    rtts.insert(rtts.end(), phase.rtt_us[static_cast<size_t>(c)].begin(),
                phase.rtt_us[static_cast<size_t>(c)].end());
  }
  std::fprintf(stderr,
               "ingest_zipf: %lld batches, %llu with shed or rejected "
               "samples; peak resident %.1f MB over a %.1f MB baseline\n",
               static_cast<long long>(result->attempted),
               static_cast<unsigned long long>(rejected_batches), peak_mb,
               baseline_mb);

  if (cfg.trace) ProbeAndCount(d, in, result);
  d.Shutdown();
  CheckIngestReplay(d, warm, phase, result);

  const double accepted = static_cast<double>(phase.accepted.done());
  const double throughput = accepted / phase.cpu_seconds;
  const std::vector<double> costs = phase.cpu.CostsUs();
  std::fprintf(stderr,
               "ingest_zipf: %.4g samples per wall-clock second; ACK round "
               "trip p50 %.1f us, p99 %.1f us over %zu batches; %zu CPU "
               "windows\n",
               accepted / phase.seconds, Percentile(rtts, 0.5),
               Percentile(rtts, 0.99), rtts.size(), costs.size());
  if (!cfg.trace) {
    result->Add("setup_s", Percentile(setup_s, 0.5), "s");
    result->Add("cpu_throughput", throughput, "1/s");
    result->Add("cpu_p50_us", Percentile(costs, 0.5), "us");
    result->Add("cpu_tail_us", Percentile(costs, 0.95), "us");
    result->Add("peak_rss_mb", peak_mb, "MB");
    return;
  }
  AddRttEntries(result);
  d = Deployment();
  KeyedLedger(in.pools[0], kIngestBatch, result);
  FitLedgerOnStream(in.pools[0], result);
  result->trace_meta.emplace_back("e2e_throughput", std::to_string(throughput));
}

void NetLedgerProbe(const RunConfig& cfg, RunResult* result) {
  const ZipfInputs in(cfg.seed);
  std::vector<ConnLog> warm;
  Deployment d = StartWarm(in, &warm);
  IngestPhase phase;
  RunIngestPhase(d, in.pools, 0, 32, &phase);
  ProbeAndCount(d, in, result);
  d.Shutdown();
  CheckIngestReplay(d, warm, phase, result);
  AddRttEntries(result);
}

void RunQueryMix(const RunConfig& cfg, RunResult* result) {
  std::vector<std::vector<KeyedSample>> loads, pools;
  for (int c = 0; c < kConnections; ++c) {
    loads.push_back(MakeQueryLoad(cfg.seed, c));
    pools.push_back(MakeMixPool(cfg.seed, c));
  }
  std::vector<MixConn> conns(kConnections);
  const size_t room = kOpsPerSecond * static_cast<size_t>(cfg.seconds + 1);
  for (MixConn& conn : conns) {
    Prefault(&conn.log.batches, room / 10 + loads[0].size() / kLoadBatch * 2);
    Prefault(&conn.queries, room);
    Prefault(&conn.query_rtt_us, room);
  }
  const double baseline_mb = ResidentMb();

  // Setup: start the server, connect, and load every key with 100
  // samples.  Done kQuerySetupReps times; setup_s is the median of their
  // CPU times.
  std::vector<double> setup_s;
  Deployment d;
  for (int rep = 0; rep < kQuerySetupReps; ++rep) {
    for (MixConn& conn : conns) conn.log.Clear();
    TearDown(&d);
    const double cpu0 = ProcessCpuSeconds();
    d = Deployment::Start();
    OnEachConnection([&](int c) {
      const std::vector<KeyedSample>& load = loads[static_cast<size_t>(c)];
      SendAll(d.clients[static_cast<size_t>(c)], load.data(), load.size(),
              kLoadBatch, &conns[static_cast<size_t>(c)].log);
    });
    setup_s.push_back(ProcessCpuSeconds() - cpu0);
  }
  for (MixConn& conn : conns) {
    conn.tally.assign(static_cast<size_t>(kQueryKeysPerConnection),
                      kQueryLoadPerKey);
  }

  PeakAtVolume ops(kMixRssVolume);
  CpuWindows cpu(kMixWindow);
  cpu.Start(kConnections * room / kMixWindow);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  OnEachConnection([&](int c) {
    RunMixConnection(d.clients[static_cast<size_t>(c)], c, cfg.seed,
                     pools[static_cast<size_t>(c)], start, cfg.seconds, 0,
                     &ops, &cpu, &conns[static_cast<size_t>(c)]);
  });
  const double phase_s = MicrosSince(start) * 1e-6;
  const double phase_cpu_s = ProcessCpuSeconds() - cpu0;
  const double peak_mb = ops.PeakMb() - baseline_mb;

  fasthist::ServerStats final_stats;
  if (cfg.trace) {
    auto stats = d.clients[0].Stats();
    if (!stats.ok()) Die("IngestClient::Stats", stats.status());
    final_stats = std::move(stats).value();
  }
  d.Shutdown();

  // kStats readouts are judged against the round-trip maxima of the whole
  // run: every latency the server had recorded by then belongs to a
  // request whose round trip completed before the end.
  double max_ingest = 0.0, max_query = 0.0;
  for (const MixConn& conn : conns) {
    max_ingest = std::max(max_ingest, conn.log.max_ingest_rtt_us);
    max_query = std::max(max_query, conn.log.max_query_rtt_us);
  }
  std::vector<double> query_rtts;
  for (MixConn& conn : conns) {
    result->attempted += conn.ops;
    for (const fasthist::ServerStats& s : conn.stats) {
      const std::string e = CheckStatsReadout(s, max_ingest, max_query);
      if (!e.empty()) {
        ++result->failed;
        if (result->failed == 1) {
          std::fprintf(stderr, "query_mix: kStats failed: %s\n", e.c_str());
        }
      }
    }
    for (const std::string& e : conn.errors) result->Check(e);
    query_rtts.insert(query_rtts.end(), conn.query_rtt_us.begin(),
                      conn.query_rtt_us.end());
  }
  std::fprintf(stderr,
               "query_mix: peak resident %.1f MB over a %.1f MB baseline\n",
               peak_mb, baseline_mb);
  CheckServedQuantiles(conns, result);

  const double ops_done = static_cast<double>(result->attempted);
  const double throughput = ops_done / phase_cpu_s;
  const std::vector<double> costs = cpu.CostsUs();
  std::fprintf(stderr,
               "query_mix: %.4g operations per wall-clock second; quantile "
               "round trip p50 %.1f us, p99 %.1f us over %zu queries; %zu "
               "CPU windows\n",
               ops_done / phase_s, Percentile(query_rtts, 0.5),
               Percentile(query_rtts, 0.99), query_rtts.size(), costs.size());
  if (!cfg.trace) {
    result->Add("setup_s", Percentile(setup_s, 0.5), "s");
    result->Add("cpu_throughput", throughput, "1/s");
    result->Add("cpu_p50_us", Percentile(costs, 0.5), "us");
    result->Add("cpu_tail_us", Percentile(costs, 0.95), "us");
    result->Add("peak_rss_mb", peak_mb, "MB");
    return;
  }
  AddServerCounters(final_stats, result);
  AddRttEntries(result);
  d = Deployment();
  conns.clear();
  pools.clear();
  KeyedLedger(loads[0], kMixBatch, result);
  FitLedgerOnStream(loads[0], result);
  result->trace_meta.emplace_back("e2e_throughput", std::to_string(throughput));
}

}  // namespace perfbench
