// Satellite task: StreamingHistogramBuilder snapshots must match the batch
// pipeline (EmpiricalDistribution + ConstructHistogram over all samples)
// within tolerance, across buffer sizes 512 / 4096 / 32768.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/merging.h"
#include "core/streaming.h"
#include "data/generators.h"
#include "dist/alias_sampler.h"
#include "dist/empirical.h"
#include "dist/l2.h"
#include "tests/fasthist_test.h"
#include "tests/histogram_testutil.h"
#include "util/random.h"

namespace fasthist {
namespace {

// Shared fixture: 100k samples from a hist-shaped distribution on [2000].
const std::vector<int64_t>& Samples() {
  static const std::vector<int64_t>* samples = [] {
    HistDatasetOptions options;
    options.domain_size = 2000;
    auto p = NormalizeToDistribution(MakeHistDataset(options)).value();
    auto sampler = AliasSampler::Create(p).value();
    Rng rng(424242);
    return new std::vector<int64_t>(sampler.SampleMany(100000, &rng));
  }();
  return *samples;
}

void CheckStreamingMatchesBatch(size_t buffer_capacity) {
  const int64_t domain = 2000;
  const int64_t k = 10;
  const std::vector<int64_t>& samples = Samples();

  auto builder = StreamingHistogramBuilder::Create(domain, k, buffer_capacity);
  CHECK_OK(builder);
  CHECK(builder->AddMany(samples).ok());
  CHECK(builder->num_samples() == static_cast<int64_t>(samples.size()));
  auto snapshot = builder->Snapshot();
  CHECK_OK(snapshot);
  CHECK_NEAR(snapshot->TotalMass(), 1.0, 1e-6);

  auto empirical = EmpiricalDistribution(domain, samples);
  CHECK_OK(empirical);
  auto batch = ConstructHistogram(*empirical, k);
  CHECK_OK(batch);

  // Both summaries approximate the same empirical distribution; the
  // streaming one pays a bounded extra error per merge level (Lemma 4.2).
  const double streaming_err =
      std::sqrt(snapshot->L2DistanceSquaredTo(*empirical));
  const double batch_err = std::sqrt(batch->err_squared);
  CHECK(streaming_err <= 3.0 * batch_err + 0.01);

  // And they are close to each other as functions.
  const double gap_sq = L2DistanceSquared(
      *snapshot, batch->histogram.ToDense());
  CHECK(std::sqrt(gap_sq) <= 0.05);
}

TEST(StreamingMatchesBatchBuffer512) { CheckStreamingMatchesBatch(512); }
TEST(StreamingMatchesBatchBuffer4096) { CheckStreamingMatchesBatch(4096); }
TEST(StreamingMatchesBatchBuffer32768) { CheckStreamingMatchesBatch(32768); }

TEST(StreamingBuilderEdgeCases) {
  auto builder = StreamingHistogramBuilder::Create(100, 3, 16);
  CHECK_OK(builder);
  // Empty snapshot: the uniform distribution.
  auto empty = builder->Snapshot();
  CHECK_OK(empty);
  CHECK_NEAR(empty->TotalMass(), 1.0, 1e-12);
  CHECK_NEAR(empty->ValueAt(50), 0.01, 1e-12);

  CHECK(!builder->Add(-1).ok());
  CHECK(!builder->Add(100).ok());
  CHECK(builder->Add(7).ok());
  // Snapshot mid-buffer flushes and stays reusable.
  auto one = builder->Snapshot();
  CHECK_OK(one);
  CHECK_NEAR(one->TotalMass(), 1.0, 1e-9);
  CHECK(builder->Add(8).ok());
  CHECK(builder->num_samples() == 2);

  CHECK(!StreamingHistogramBuilder::Create(0, 3, 16).ok());
  CHECK(!StreamingHistogramBuilder::Create(100, 0, 16).ok());
  CHECK(!StreamingHistogramBuilder::Create(100, 3, 0).ok());
}

using ::fasthist::testing::BitIdentical;

TEST(StreamingPeekMatchesSnapshotWithoutMutating) {
  const int64_t domain = 2000;
  const std::vector<int64_t>& samples = Samples();
  // 10000 samples into a 512 buffer: 19 flushes plus a 272-sample partial
  // buffer, so Peek has to condense and fold without committing.
  const std::vector<int64_t> stream(samples.begin(), samples.begin() + 10000);

  auto builder = StreamingHistogramBuilder::Create(domain, 10, 512);
  CHECK_OK(builder);
  // Empty builder: Peek is the uniform distribution, like Snapshot.
  auto empty_peek = builder->Peek();
  CHECK_OK(empty_peek);
  CHECK_NEAR(empty_peek->ValueAt(50), 1.0 / 2000.0, 1e-15);

  CHECK(builder->AddMany(stream).ok());
  auto peek = builder->Peek();
  CHECK_OK(peek);
  // No mutation: the sample count is unchanged and a shadow builder that
  // never peeked stays bit-identical from here on.
  CHECK(builder->num_samples() == 10000);
  auto shadow = StreamingHistogramBuilder::Create(domain, 10, 512);
  CHECK_OK(shadow);
  CHECK(shadow->AddMany(stream).ok());

  // Peek == the snapshot both builders would produce.
  auto snapshot = builder->Snapshot();
  CHECK_OK(snapshot);
  CHECK(BitIdentical(*peek, *snapshot));

  // The peeked builder's snapshot equals the never-peeked one's...
  auto shadow_snapshot = shadow->Snapshot();
  CHECK_OK(shadow_snapshot);
  CHECK(BitIdentical(*snapshot, *shadow_snapshot));
  // ...and keeps matching after further ingest on both.
  const std::vector<int64_t> more(samples.begin() + 10000,
                                  samples.begin() + 12000);
  CHECK(builder->AddMany(more).ok());
  CHECK(shadow->AddMany(more).ok());
  CHECK(BitIdentical(*builder->Peek(), *shadow->Snapshot()));
}

TEST(StreamingAddManyBitIdenticalToAddLoop) {
  const int64_t domain = 2000;
  const std::vector<int64_t>& samples = Samples();
  const std::vector<int64_t> stream(samples.begin(), samples.begin() + 20000);

  // Buffer sizes around, below, and above the stream length, including a
  // capacity that divides the stream exactly and a degenerate size-1 buffer.
  for (const size_t capacity : {size_t{1}, size_t{7}, size_t{500},
                                size_t{512}, size_t{30000}}) {
    auto bulk = StreamingHistogramBuilder::Create(domain, 10, capacity);
    CHECK_OK(bulk);
    CHECK(bulk->AddMany(stream).ok());

    auto loop = StreamingHistogramBuilder::Create(domain, 10, capacity);
    CHECK_OK(loop);
    for (const int64_t sample : stream) CHECK(loop->Add(sample).ok());

    CHECK(bulk->num_samples() == loop->num_samples());
    auto bulk_snapshot = bulk->Snapshot();
    CHECK_OK(bulk_snapshot);
    auto loop_snapshot = loop->Snapshot();
    CHECK_OK(loop_snapshot);
    CHECK(BitIdentical(*bulk_snapshot, *loop_snapshot));
  }

  // A mid-batch out-of-domain sample leaves both paths in the same state:
  // the valid prefix ingested (flushes included), the bad sample rejected.
  std::vector<int64_t> poisoned(stream.begin(), stream.begin() + 2000);
  poisoned[1000] = domain;  // out of domain
  auto bulk = StreamingHistogramBuilder::Create(domain, 10, 512);
  CHECK_OK(bulk);
  CHECK(!bulk->AddMany(poisoned).ok());
  auto loop = StreamingHistogramBuilder::Create(domain, 10, 512);
  CHECK_OK(loop);
  Status loop_status = Status::Ok();
  for (const int64_t sample : poisoned) {
    loop_status = loop->Add(sample);
    if (!loop_status.ok()) break;
  }
  CHECK(!loop_status.ok());
  CHECK(bulk->num_samples() == 1000);
  CHECK(loop->num_samples() == 1000);
  CHECK(BitIdentical(*bulk->Snapshot(), *loop->Snapshot()));
}

TEST(StreamingSpanIngestFromRawSlices) {
  const int64_t domain = 2000;
  const std::vector<int64_t>& samples = Samples();
  const std::vector<int64_t> stream(samples.begin(), samples.begin() + 6000);

  // Spans over raw pointer slices (the network/decode-buffer caller) must
  // land bit-identically to one vector AddMany of the whole stream.
  auto sliced = StreamingHistogramBuilder::Create(domain, 10, 512);
  CHECK_OK(sliced);
  Rng rng(2026);
  size_t offset = 0;
  while (offset < stream.size()) {
    const size_t batch = std::min(
        static_cast<size_t>(1 + rng.UniformInt(900)), stream.size() - offset);
    CHECK(sliced
              ->AddMany(Span<const int64_t>(stream.data() + offset, batch))
              .ok());
    offset += batch;
  }
  auto whole = StreamingHistogramBuilder::Create(domain, 10, 512);
  CHECK_OK(whole);
  CHECK(whole->AddMany(stream).ok());
  CHECK(sliced->num_samples() == whole->num_samples());
  // Snapshot commits the buffered tail into the ladder, so capture whole's
  // view once and compare every reader against that same cut.
  auto whole_snapshot = whole->Snapshot();
  CHECK_OK(whole_snapshot);
  CHECK(BitIdentical(*sliced->Snapshot(), *whole_snapshot));

  // Subspan views compose: front half + back half == the whole.
  Span<const int64_t> view(stream);
  auto halves = StreamingHistogramBuilder::Create(domain, 10, 512);
  CHECK_OK(halves);
  CHECK(halves->AddMany(view.subspan(0, 3000)).ok());
  CHECK(halves->AddMany(view.subspan(3000, stream.size())).ok());
  CHECK(BitIdentical(*halves->Snapshot(), *whole_snapshot));
}

TEST(StreamingGenerationCountsCommittedCondenses) {
  const std::vector<int64_t>& samples = Samples();
  auto builder = StreamingHistogramBuilder::Create(2000, 10, 100);
  CHECK_OK(builder);
  CHECK(builder->generation() == 0);
  CHECK(builder->buffer_capacity() == 100);

  // 250 samples through a 100 buffer: two committed condenses, 50 buffered.
  // The dyadic carry merged the two flushes into one level-1 slot.
  CHECK(builder->AddMany({samples.data(), 250}).ok());
  CHECK(builder->generation() == 2);
  CHECK(builder->buffered() == 50);
  CHECK(builder->summarized_count() == 200);
  auto committed = builder->CommittedSummary();
  CHECK_OK(committed);
  CHECK(committed->num_pieces() > 0);
  CHECK(builder->ladder_depth() == 2);   // level-1 slot occupied
  CHECK(builder->ladder_slots() == 1);
  CHECK(builder->error_levels() == 3);   // depth 2 + one read-fold pass

  // Peek never bumps the generation; Snapshot's flush of a non-empty
  // buffer bumps it exactly once; flushing an empty buffer never does.
  CHECK_OK(builder->Peek());
  CHECK(builder->generation() == 2);
  CHECK_OK(builder->Snapshot());
  CHECK(builder->generation() == 3);
  CHECK(builder->buffered() == 0);
  // F = 3 = 0b11: slots at levels 0 and 1, chained by the read fold.
  CHECK(builder->ladder_depth() == 2);
  CHECK(builder->ladder_slots() == 2);
  CHECK(builder->error_levels() == 3);
  CHECK_OK(builder->Snapshot());
  CHECK(builder->generation() == 3);

  // A fresh builder has no levels at all; buffering alone costs one.
  auto fresh = StreamingHistogramBuilder::Create(2000, 10, 100);
  CHECK_OK(fresh);
  CHECK(fresh->error_levels() == 0);
  CHECK(!fresh->CommittedSummary().ok());
  CHECK(fresh->Add(3).ok());
  CHECK(fresh->error_levels() == 1);  // one condense, nothing to chain
}

TEST(StreamingFoldBufferMatchesPeek) {
  const int64_t domain = 2000;
  const int64_t k = 10;
  const std::vector<int64_t>& samples = Samples();
  auto builder = StreamingHistogramBuilder::Create(domain, k, 512);
  CHECK_OK(builder);
  CHECK(builder->AddMany({samples.data(), 1200}).ok());
  CHECK(builder->buffered() == 176);  // 1200 = 2 * 512 + 176

  // The static fold on hand-copied builder state (what the keyed store's
  // archetype pool runs on its window planes) is bit-identical to the
  // builder's own Peek: CommittedSummary is the exact prefix of the Peek
  // chain, so folding the window copy onto it lands on the same bits.
  const std::vector<int64_t> window(samples.begin() + 1024,
                                    samples.begin() + 1200);
  auto committed = builder->CommittedSummary();
  CHECK_OK(committed);
  auto folded = StreamingHistogramBuilder::FoldBufferIntoSummary(
      &*committed, builder->summarized_count(), window, domain, k,
      builder->options());
  CHECK_OK(folded);
  CHECK(BitIdentical(*folded, *builder->Peek()));

  // With no prior summary the fold is just the batch construction — the
  // state of a builder that has never condensed.
  auto fresh = StreamingHistogramBuilder::Create(domain, k, 512);
  CHECK_OK(fresh);
  CHECK(fresh->AddMany({samples.data(), 176}).ok());
  auto batch_only = StreamingHistogramBuilder::FoldBufferIntoSummary(
      nullptr, 0, {samples.data(), 176}, domain, k, fresh->options());
  CHECK_OK(batch_only);
  CHECK(BitIdentical(*batch_only, *fresh->Peek()));
}

TEST(StreamingLadderMatchesDyadicMirrorAndSlowPath) {
  // A from-first-principles mirror of the dyadic ladder, built with the
  // SLOW construction path (sort-based ConstructHistogram) and explicit
  // MergeHistograms calls.  Bit-identity of the mirror's read fold against
  // the builder's Peek proves three things at once: the commit schedule is
  // exactly binary-carry, the read fold is exactly highest-slot-first, and
  // fast == slow construction holds through every ladder level.
  const int64_t domain = 2000;
  const int64_t k = 8;
  const size_t b = 64;
  const std::vector<int64_t>& samples = Samples();
  const MergingOptions options;

  auto builder = StreamingHistogramBuilder::Create(domain, k, b, options);
  CHECK_OK(builder);

  struct Slot {
    Histogram summary;
    int64_t count = 0;
  };
  std::vector<Slot> slots;
  std::vector<int64_t> buffer;

  const size_t total = 2400;  // 37 flushes (0b100101) + 32 buffered
  size_t flushes = 0;
  for (size_t i = 0; i < total; ++i) {
    CHECK(builder->Add(samples[i]).ok());
    buffer.push_back(samples[i]);
    if (buffer.size() < b) continue;
    auto empirical = EmpiricalDistribution(domain, buffer);
    CHECK_OK(empirical);
    auto leaf = ConstructHistogram(*empirical, k, options);  // slow path
    CHECK_OK(leaf);
    Histogram carry = std::move(leaf->histogram);
    int64_t carry_count = static_cast<int64_t>(b);
    size_t level = 0;
    while (level < slots.size() && slots[level].count > 0) {
      auto merged = MergeHistograms(
          slots[level].summary, static_cast<double>(slots[level].count),
          carry, static_cast<double>(carry_count), k, options);
      CHECK_OK(merged);
      carry = std::move(merged).value();
      carry_count += slots[level].count;
      slots[level] = Slot{};
      ++level;
    }
    if (level == slots.size()) slots.emplace_back();
    slots[level] = {std::move(carry), carry_count};
    buffer.clear();
    ++flushes;
    // The logarithmic guarantee, checked after every flush: never more
    // than ceil(log2 F) + 2 levels no matter how long the stream runs.
    int cap = 2;
    while ((size_t{1} << (cap - 2)) < flushes) ++cap;
    CHECK(builder->error_levels() <= cap);
  }
  CHECK(flushes == 37);

  // Structural accounting matches the mirror's occupancy exactly.
  int depth = 0;
  int live = 0;
  for (size_t level = 0; level < slots.size(); ++level) {
    if (slots[level].count > 0) {
      depth = static_cast<int>(level) + 1;
      ++live;
    }
  }
  CHECK(builder->ladder_depth() == depth);
  CHECK(builder->ladder_slots() == live);
  const int sources = live + (buffer.empty() ? 0 : 1);
  const int deepest = std::max(depth, buffer.empty() ? 0 : 1);
  CHECK(builder->error_levels() == deepest + (sources > 1 ? 1 : 0));

  // Mirror read fold: live slots highest level first, then the buffered
  // remainder condensed (slow path) and chained on.
  Histogram fold;
  int64_t fold_count = 0;
  for (size_t level = slots.size(); level > 0; --level) {
    const Slot& slot = slots[level - 1];
    if (slot.count == 0) continue;
    if (fold_count == 0) {
      fold = slot.summary;
      fold_count = slot.count;
      continue;
    }
    auto merged = MergeHistograms(fold, static_cast<double>(fold_count),
                                  slot.summary,
                                  static_cast<double>(slot.count), k, options);
    CHECK_OK(merged);
    fold = std::move(merged).value();
    fold_count += slot.count;
  }
  if (!buffer.empty()) {
    auto empirical = EmpiricalDistribution(domain, buffer);
    CHECK_OK(empirical);
    auto tail = ConstructHistogram(*empirical, k, options);  // slow path
    CHECK_OK(tail);
    auto merged = MergeHistograms(fold, static_cast<double>(fold_count),
                                  tail->histogram,
                                  static_cast<double>(buffer.size()), k,
                                  options);
    CHECK_OK(merged);
    fold = std::move(merged).value();
  }
  auto peek = builder->Peek();
  CHECK_OK(peek);
  CHECK(BitIdentical(fold, *peek));

  // Snapshot on a copy == Peek on the original: the snapshot's value is
  // the pre-commit read fold by construction, and the original builder is
  // untouched by the copy's flush.
  auto copy = *builder;
  auto snapshot = copy.Snapshot();
  CHECK_OK(snapshot);
  CHECK(BitIdentical(*snapshot, *peek));
  CHECK(builder->buffered() == 32);
  CHECK(copy.buffered() == 0);
  CHECK(copy.generation() == builder->generation() + 1);
}

// After Reset() a builder is observationally identical to a freshly
// created one: every counter back to zero, and a re-fed stream produces
// bit-identical summaries at every probe point — including when the ladder
// was deep and the buffer mid-window at the moment of the Reset.
TEST(StreamingResetMatchesFreshBuilder) {
  const int64_t domain = 2000;
  const int64_t k = 10;
  const size_t buffer = 256;
  const std::vector<int64_t>& samples = Samples();
  const Span<const int64_t> first_epoch(samples.data(), 10 * buffer + 100);
  const Span<const int64_t> second_epoch(samples.data() + first_epoch.size(),
                                         7 * buffer + 31);

  auto recycled = StreamingHistogramBuilder::Create(domain, k, buffer);
  CHECK_OK(recycled);
  CHECK(recycled->AddMany(first_epoch).ok());
  CHECK(recycled->ladder_depth() > 1);  // the Reset really has state to drop
  CHECK(recycled->buffered() == 100);
  recycled->Reset();

  CHECK(recycled->num_samples() == 0);
  CHECK(recycled->buffered() == 0);
  CHECK(recycled->generation() == 0);
  CHECK(recycled->ladder_depth() == 0);
  CHECK(recycled->ladder_slots() == 0);
  CHECK(recycled->error_levels() == 0);
  auto empty_peek = recycled->Peek();
  CHECK_OK(empty_peek);
  CHECK_NEAR(empty_peek->TotalMass(), 1.0, 1e-12);  // uniform, like fresh

  auto fresh = StreamingHistogramBuilder::Create(domain, k, buffer);
  CHECK_OK(fresh);
  size_t fed = 0;
  while (fed < second_epoch.size()) {
    const size_t step = std::min<size_t>(97, second_epoch.size() - fed);
    const Span<const int64_t> slice(second_epoch.data() + fed, step);
    CHECK(recycled->AddMany(slice).ok());
    CHECK(fresh->AddMany(slice).ok());
    fed += step;
  }
  CHECK(recycled->num_samples() == fresh->num_samples());
  CHECK(recycled->generation() == fresh->generation());
  CHECK(recycled->error_levels() == fresh->error_levels());
  auto recycled_peek = recycled->Peek();
  CHECK_OK(recycled_peek);
  auto fresh_peek = fresh->Peek();
  CHECK_OK(fresh_peek);
  CHECK(BitIdentical(*recycled_peek, *fresh_peek));
}

}  // namespace
}  // namespace fasthist
