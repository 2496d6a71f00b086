#ifndef FASTHIST_CORE_STREAMING_H_
#define FASTHIST_CORE_STREAMING_H_

#include <cstdint>
#include <vector>

#include "core/merging.h"
#include "dist/histogram.h"
#include "util/span.h"
#include "util/status.h"

namespace fasthist {

// Mergeable streaming summary (Section 4 / Lemma 4.2): samples are buffered
// up to `buffer_capacity`; each full buffer is condensed into a ~2k+1-piece
// histogram of its empirical distribution and committed into a **dyadic
// condensation ladder** — a vector of level slots where slot L, when
// occupied, holds the summary of exactly 2^L consecutive buffers.  A freshly
// condensed buffer enters at level 0 and carries upward like binary
// addition: while the target level is occupied, the resident summary is
// merged with the carry (equal sample counts, so the weighted merge is
// balanced) and the slot is vacated.  After F flushes the occupied slots are
// the binary digits of F, so any single sample's summary participates in at
// most ceil(log2 F) committed merges plus the O(1) read-side fold — the
// sqrt(1+delta)-per-level bound of the mergeability lemma degrades
// logarithmically with stream length instead of linearly (the pre-ladder
// builder folded every buffer into one running summary, one merge level per
// flush).  Memory is O(buffer + k log F) and the exported summary
// approximates the empirical distribution of everything ingested so far.
class StreamingHistogramBuilder {
 public:
  // `options` (delta/gamma) is applied to every internal condense and
  // merge.  options.num_threads is accepted but has no effect: histogram
  // rounds are serial at every value (see MergingOptions).
  static StatusOr<StreamingHistogramBuilder> Create(
      int64_t domain_size, int64_t k, size_t buffer_capacity,
      const MergingOptions& options = MergingOptions());

  // Copyable (tests snapshot builder state by value) and movable: pools
  // that recycle builders can move-assign into an existing slot without
  // reallocating the destination's buffers.
  StreamingHistogramBuilder(const StreamingHistogramBuilder&) = default;
  StreamingHistogramBuilder& operator=(const StreamingHistogramBuilder&) =
      default;
  StreamingHistogramBuilder(StreamingHistogramBuilder&&) = default;
  StreamingHistogramBuilder& operator=(StreamingHistogramBuilder&&) = default;

  // Reuse without reallocation: drops every ingested sample (buffer, ladder
  // occupancy, counters, generation) but keeps the buffer's reserved
  // capacity and the ladder's level slots, so recycling a warm builder
  // skips the construction allocations a fresh Create would pay again.
  // After Reset() the builder is observationally identical to a freshly
  // created one with the same arguments (asserted by streaming_test;
  // perf_smoke_test pins the warm-reuse allocation count).
  void Reset();

  // Samples must lie in [0, domain_size).
  Status Add(int64_t sample);

  // Bulk ingest: appends whole chunks into the buffer (one memcpy-sized
  // insert per chunk instead of a push_back per sample) and condenses once
  // per full buffer.  The flush boundaries are the same as the Add loop's,
  // so the resulting summary — and the builder state, including after a
  // mid-batch out-of-domain error — is bit-identical to calling Add per
  // sample.  Takes a pointer+length view (std::vector arguments convert
  // implicitly), so callers can ingest slices of arbitrary buffers —
  // network frames, mmapped columns — without copying into a vector first.
  Status AddMany(Span<const int64_t> samples);

  // Returns the current summary as a (mass ~1) histogram over the domain
  // and then flushes the buffer into the ladder.  With no samples ingested
  // yet, returns the uniform distribution.  The builder remains usable
  // afterwards.  The returned histogram is computed with the same read-side
  // fold as Peek() *before* the flush commits, so Snapshot() on a copy of a
  // builder is bit-identical to Peek() on the original — the dyadic commit
  // reassociates future merges but never changes what this call returns.
  StatusOr<Histogram> Snapshot();

  // Const snapshot: folds the live ladder slots (oldest/highest level first)
  // and then the condensed buffered samples, without mutating any builder
  // state, so a reader can export the current summary without forcing a
  // flush (ShardIngestor::ExportSnapshot is the serving caller).  Peek
  // never mutates, but it is not synchronized — callers must serialize it
  // against concurrent writers (Add/AddMany/Snapshot).
  StatusOr<Histogram> Peek() const;

  int64_t num_samples() const {
    return summarized_count_ + static_cast<int64_t>(buffer_.size());
  }

  // --- Commit-state accessors --------------------------------------------
  //
  // The builder is single-writer and unsynchronized.  These read-only views
  // of its commit state (how many condenses have committed, and how the
  // samples split between the buffer and the ladder) let tests pin down
  // the commit accounting from outside: that Peek never commits, that a
  // copy commits independently of its source, and that Reset starts over.

  // Committed condenses so far; bumped exactly once per buffer commit
  // (Flush with a non-empty buffer), never by Peek.
  uint64_t generation() const { return generation_; }

  // Samples sitting in the not-yet-condensed buffer.
  size_t buffered() const { return buffer_.size(); }

  size_t buffer_capacity() const { return buffer_capacity_; }
  int64_t summarized_count() const { return summarized_count_; }
  const MergingOptions& options() const { return options_; }

  // --- Error-level accounting (Lemma 4.2) ---------------------------------
  //
  // One "level" is one lossy step: a buffer condense, a committed carry
  // merge, or the read-side fold pass that chains the live slots (and the
  // buffered remainder) left to right — the same convention as
  // MergeTreeResult::error_levels and ShardSnapshot::error_levels, so
  // budgets compose additively across layers.

  // 1 + the highest occupied ladder level (0 when nothing is committed):
  // the deepest commit-side chain any sample has passed through, counting
  // its initial condense.  After F flushes this is floor(log2 F) + 1.
  int ladder_depth() const;

  // Occupied ladder slots (the popcount of the flush counter): how many
  // live summaries the read-side fold has to chain together.
  int ladder_slots() const;

  // Error levels of the summary Peek()/Snapshot() returns right now:
  // 0 with no samples at all, otherwise the deepest per-source chain
  // (max(ladder_depth, 1-if-buffered)) plus 1 when the read fold has more
  // than one source to chain.  After F = n/b flushes with an empty buffer
  // this is at most ceil(log2 F) + 2, and it never exceeds that while
  // samples sit buffered.
  int error_levels() const;

  // The committed ladder folded to a single histogram (valid only when
  // summarized_count() > 0): live slots chained oldest (highest level)
  // first, with no buffered remainder mixed in.  This is the exact prefix
  // of the Peek() fold, so folding the buffer in with FoldBufferIntoSummary
  // reproduces Peek() bit-identically; FoldedView is built from exactly
  // these two steps.
  StatusOr<Histogram> CommittedSummary() const;

  // The condense+fold step the read path is built from, exposed so callers
  // can run the exact same computation on state they manage themselves
  // (the keyed store's archetype pool runs it over its SoA window planes):
  // condenses `buffer` (non-empty, in-domain) to a ~2k+1-piece histogram
  // and, when `summary` is non-null, folds it in with weights
  // (summarized_count : buffer.size()).  Pure: no builder involved,
  // bit-identical to what Peek()/Snapshot() produce from the same
  // (CommittedSummary, summarized_count, buffer) state.
  static StatusOr<Histogram> FoldBufferIntoSummary(
      const Histogram* summary, int64_t summarized_count,
      Span<const int64_t> buffer, int64_t domain_size, int64_t k,
      const MergingOptions& options);

 private:
  // One ladder slot: `count == 0` means vacant, otherwise `summary` holds
  // the condensation of `count` samples (2^level buffers' worth).
  struct LadderSlot {
    Histogram summary;
    int64_t count = 0;
  };

  // Adapter exposing `ladder_` to the shared commit/fold hooks in
  // core/streaming_ladder.h (the same hooks the keyed summary store runs
  // over its SoA plane slices, which is what keeps a store slot
  // bit-identical to a standalone builder).  Defined in streaming.cc.
  struct VectorLadder;

  StreamingHistogramBuilder(int64_t domain_size, int64_t k,
                            size_t buffer_capacity,
                            const MergingOptions& options)
      : domain_size_(domain_size),
        k_(k),
        buffer_capacity_(buffer_capacity),
        options_(options) {
    buffer_.reserve(buffer_capacity_);
  }

  Status Flush();

  // The Peek() computation: fold the live ladder slots highest level first,
  // then chain the condensed buffer in.  Snapshot() returns this value
  // computed *before* its Flush commits, which is what keeps Peek() ==
  // Snapshot() bit-identical.
  StatusOr<Histogram> FoldedView() const;

  int64_t domain_size_;
  int64_t k_;
  size_t buffer_capacity_;
  MergingOptions options_;
  std::vector<int64_t> buffer_;
  std::vector<LadderSlot> ladder_;  // index = level; slot L covers 2^L buffers
  int64_t summarized_count_ = 0;    // samples already committed to the ladder
  uint64_t generation_ = 0;         // committed condenses (see generation())
};

}  // namespace fasthist

#endif  // FASTHIST_CORE_STREAMING_H_
