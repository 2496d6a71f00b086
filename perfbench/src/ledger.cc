#include "ledger.h"

#include <algorithm>
#include <unordered_map>

#include "core/fast_merging.h"
#include "core/merging.h"
#include "core/streaming.h"
#include "inputs.h"
#include "net/frame.h"
#include "net_util.h"
#include "service/aggregator.h"
#include "service/merge_tree.h"
#include "service/wire_format.h"
#include "store/partitioned_store.h"
#include "trace.h"

namespace perfbench {

using fasthist::KeyedSample;

namespace {

std::vector<double> Durations(const char* name) {
  std::vector<double> d = SpanDurationsNs(name);
  if (d.empty()) Die(std::string("ledger: no span recorded for ") + name);
  return d;
}

// Flush-sized chunks: the server hands a partition's pending samples to
// SummaryStore::AddBatch in chunks of flush_batch samples.
constexpr size_t kChunk = 4096;
constexpr size_t kQueryKeys = 4096;

}  // namespace

double SpanMedian(const char* name, double ns_per_unit) {
  return Percentile(Durations(name), 0.5) / ns_per_unit;
}

double SpanP99(const char* name, double ns_per_unit) {
  return Percentile(Durations(name), 0.99) / ns_per_unit;
}

double SpanTotalNs(const char* name) {
  double total = 0.0;
  for (double d : Durations(name)) total += d;
  return total;
}

void KeyedLedger(const std::vector<KeyedSample>& stream, size_t batch_size,
                 RunResult* result) {
  const fasthist::ArchetypeConfig archetype = ServerOptions().base.archetype;
  const double n = static_cast<double>(stream.size());

  // Keys in first-appearance order, and each key's subsequence.
  std::unordered_map<uint64_t, size_t> slot_of;
  std::vector<uint64_t> keys;
  std::vector<std::vector<int64_t>> per_key;
  for (const KeyedSample& s : stream) {
    auto [it, inserted] = slot_of.emplace(s.key, keys.size());
    if (inserted) {
      keys.push_back(s.key);
      per_key.emplace_back();
    }
    per_key[it->second].push_back(s.value);
  }

  // core: a bare StreamingHistogramBuilder per key — the floor under the
  // store's per-sample cost.
  for (const std::vector<int64_t>& values : per_key) {
    auto b = fasthist::StreamingHistogramBuilder::Create(
        archetype.domain_size, archetype.k, archetype.window_capacity,
        archetype.options);
    if (!b.ok()) Die("StreamingHistogramBuilder::Create", b.status());
    ScopedSpan span("core.StreamingHistogramBuilder::AddMany");
    if (fasthist::Status s = b->AddMany(values); !s.ok()) Die("AddMany", s);
  }
  per_key.clear();
  result->Add("core.builder_ns_per_sample",
              SpanTotalNs("core.StreamingHistogramBuilder::AddMany") / n, "ns");

  // store: key creation, then flush-sized AddBatch chunks.
  auto store = fasthist::SummaryStore::Create(archetype);
  if (!store.ok()) Die("SummaryStore::Create", store.status());
  {
    ScopedSpan span("store.SummaryStore::EnsureKeys");
    if (fasthist::Status s = store->EnsureKeys(keys); !s.ok()) {
      Die("EnsureKeys", s);
    }
  }
  result->Add("store.key_create_ns",
              SpanTotalNs("store.SummaryStore::EnsureKeys") /
                  static_cast<double>(keys.size()),
              "ns");
  for (size_t begin = 0; begin < stream.size(); begin += kChunk) {
    const size_t size = std::min(kChunk, stream.size() - begin);
    ScopedSpan span("store.SummaryStore::AddBatch");
    if (fasthist::Status s = store->AddBatch(
            fasthist::Span<const KeyedSample>(stream.data() + begin, size));
        !s.ok()) {
      Die("SummaryStore::AddBatch", s);
    }
  }
  result->Add("store.add_batch_ns_per_sample",
              SpanTotalNs("store.SummaryStore::AddBatch") / n, "ns");
  result->Add("store.add_batch_p99_us",
              SpanP99("store.SummaryStore::AddBatch", 1e3), "us");
  const fasthist::StoreMemoryStats memory = store->memory();
  result->Add("store.overhead_bytes_per_key", memory.overhead_bytes_per_key(),
              "bytes");
  result->Add("store.payload_bytes_per_key",
              static_cast<double>(memory.payload_bytes) /
                  static_cast<double>(std::max<size_t>(1, memory.num_keys)),
              "bytes");

  {
    auto partitioned = fasthist::PartitionedSummaryStore::Create(
        archetype, static_cast<uint32_t>(kServerLoops));
    if (!partitioned.ok()) Die("PartitionedSummaryStore::Create",
                               partitioned.status());
    if (fasthist::Status s = partitioned->EnsureKeys(keys); !s.ok()) {
      Die("PartitionedSummaryStore::EnsureKeys", s);
    }
    for (size_t begin = 0; begin < stream.size(); begin += kChunk) {
      const size_t size = std::min(kChunk, stream.size() - begin);
      ScopedSpan span("store.PartitionedSummaryStore::AddBatch");
      if (fasthist::Status s = partitioned->AddBatch(
              fasthist::Span<const KeyedSample>(stream.data() + begin, size));
          !s.ok()) {
        Die("PartitionedSummaryStore::AddBatch", s);
      }
    }
  }
  result->Add("store.partitioned_add_ns_per_sample",
              SpanTotalNs("store.PartitionedSummaryStore::AddBatch") / n,
              "ns");

  // Reads on the workload's own key mix: keys taken at evenly spaced
  // stream positions, so hot keys are read as often as they are written.
  std::vector<uint64_t> query_keys;
  const size_t stride = std::max<size_t>(1, stream.size() / kQueryKeys);
  for (size_t i = 0; i < stream.size() && query_keys.size() < kQueryKeys;
       i += stride) {
    query_keys.push_back(stream[i].key);
  }
  std::vector<fasthist::Histogram> summaries;
  for (uint64_t key : query_keys) {
    ScopedSpan span("store.SummaryStore::Query");
    summaries.push_back(store->Query(key).value());
  }
  result->Add("store.query_us", SpanMedian("store.SummaryStore::Query", 1e3),
              "us");

  for (size_t i = 0; i + 1 < summaries.size(); i += 2) {
    const double w1 =
        static_cast<double>(store->NumSamples(query_keys[i]).value());
    const double w2 =
        static_cast<double>(store->NumSamples(query_keys[i + 1]).value());
    ScopedSpan span("core.MergeHistograms");
    auto merged = fasthist::MergeHistograms(summaries[i], w1, summaries[i + 1],
                                            w2, archetype.k, archetype.options);
    if (!merged.ok()) Die("MergeHistograms", merged.status());
  }
  result->Add("core.merge_us", SpanMedian("core.MergeHistograms", 1e3), "us");

  // service: per-key aggregators and quantiles, and rollups of 8 keys
  // through the snapshot codec and the merge tree.
  constexpr int kQuantilesPerSpan = 100;
  std::vector<fasthist::ShardSnapshot> snapshots;
  for (uint64_t key : query_keys) {
    snapshots.push_back(store->ExportKeyedSnapshot(key, 0).value());
    auto aggregator = [&] {
      ScopedSpan span("service.Aggregator::CreateForSnapshot");
      return fasthist::Aggregator::CreateForSnapshot(snapshots.back());
    }();
    if (!aggregator.ok()) Die("CreateForSnapshot", aggregator.status());
    int64_t sink = 0;
    {
      ScopedSpan span("service.Aggregator::Quantile.x100");
      for (int j = 0; j < kQuantilesPerSpan; ++j) {
        sink += aggregator->Quantile(static_cast<double>(j) / 99.0);
      }
    }
    if (sink < 0) Die("negative quantile");
  }
  result->Add("service.aggregator_us",
              SpanMedian("service.Aggregator::CreateForSnapshot", 1e3), "us");
  result->Add("service.quantile_ns",
              SpanMedian("service.Aggregator::Quantile.x100", 1.0) /
                  kQuantilesPerSpan,
              "ns");
  constexpr size_t kRollup = 8;
  for (size_t begin = 0; begin + kRollup <= snapshots.size();
       begin += kRollup) {
    std::vector<std::vector<uint8_t>> encoded;
    {
      ScopedSpan span("service.EncodeShardSnapshot.x8");
      for (size_t j = 0; j < kRollup; ++j) {
        encoded.push_back(fasthist::EncodeShardSnapshot(snapshots[begin + j]));
      }
    }
    std::vector<fasthist::ShardSnapshot> decoded;
    {
      ScopedSpan span("service.DecodeShardSnapshot.x8");
      for (const std::vector<uint8_t>& bytes : encoded) {
        decoded.push_back(fasthist::DecodeShardSnapshot(bytes).value());
      }
    }
    ScopedSpan span("service.ReduceSnapshots.ledger");
    auto reduced = fasthist::ReduceSnapshots(std::move(decoded), archetype.k);
    if (!reduced.ok()) Die("ReduceSnapshots", reduced.status());
  }
  result->Add("service.snapshot_encode_us",
              SpanMedian("service.EncodeShardSnapshot.x8", 1e3), "us");
  result->Add("service.snapshot_decode_us",
              SpanMedian("service.DecodeShardSnapshot.x8", 1e3), "us");
  result->Add("service.reduce_us",
              SpanMedian("service.ReduceSnapshots.ledger", 1e3), "us");

  // net: the ingest payload codec per wire batch.
  for (size_t begin = 0; begin + batch_size <= stream.size() &&
                         begin < batch_size * 4096;
       begin += batch_size) {
    const fasthist::Span<const KeyedSample> batch(stream.data() + begin,
                                                  batch_size);
    std::vector<uint8_t> payload;
    {
      ScopedSpan span("net.EncodeIngestPayload");
      payload = fasthist::EncodeIngestPayload(batch);
    }
    ScopedSpan span("net.DecodeIngestPayload");
    if (!fasthist::DecodeIngestPayload(payload).ok()) Die("DecodeIngestPayload");
  }
  result->Add("net.ingest_encode_ns", SpanMedian("net.EncodeIngestPayload", 1.0),
              "ns");
  result->Add("net.ingest_decode_ns", SpanMedian("net.DecodeIngestPayload", 1.0),
              "ns");
}

void AddFitEntries(RunResult* result) {
  result->Add("core.hist_fit_ms", SpanMedian("core.ConstructHistogramFast", 1e6),
              "ms");
  result->Add("core.hist_fit_serial_ms",
              SpanMedian("core.ConstructHistogramFast.serial", 1e6), "ms");
  result->Add("poly.fit_ms",
              SpanMedian("poly.ConstructPiecewisePolynomialFast", 1e6), "ms");
  result->Add("poly.fit_serial_ms",
              SpanMedian("poly.ConstructPiecewisePolynomialFast.serial", 1e6),
              "ms");
  result->Add("dist.from_dense_ms",
              SpanMedian("dist.SparseFunction::FromDense", 1e6), "ms");
}

void FitLedgerOnStream(const std::vector<KeyedSample>& stream,
                       RunResult* result) {
  std::vector<double> dense(static_cast<size_t>(kValueDomain), 0.0);
  for (const KeyedSample& s : stream) dense[static_cast<size_t>(s.value)] += 1.0;
  fasthist::SparseFunction q;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span("dist.SparseFunction::FromDense");
    q = fasthist::SparseFunction::FromDense(dense);
  }
  fasthist::MergingOptions parallel, serial;
  parallel.num_threads = Nproc();
  serial.num_threads = 1;
  for (int rep = 0; rep < 3; ++rep) {
    {
      ScopedSpan span("core.ConstructHistogramFast");
      if (!fasthist::ConstructHistogramFast(q, kFitPieces, parallel).ok()) {
        Die("ConstructHistogramFast");
      }
    }
    {
      ScopedSpan span("core.ConstructHistogramFast.serial");
      if (!fasthist::ConstructHistogramFast(q, kFitPieces, serial).ok()) {
        Die("ConstructHistogramFast");
      }
    }
    {
      ScopedSpan span("poly.ConstructPiecewisePolynomialFast");
      if (!fasthist::ConstructPiecewisePolynomialFast(q, kFitPieces,
                                                      kPolyDegree, parallel)
               .ok()) {
        Die("ConstructPiecewisePolynomialFast");
      }
    }
    {
      ScopedSpan span("poly.ConstructPiecewisePolynomialFast.serial");
      if (!fasthist::ConstructPiecewisePolynomialFast(q, kFitPieces,
                                                      kPolyDegree, serial)
               .ok()) {
        Die("ConstructPiecewisePolynomialFast");
      }
    }
  }
  AddFitEntries(result);
}

}  // namespace perfbench
