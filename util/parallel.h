#ifndef FASTHIST_UTIL_PARALLEL_H_
#define FASTHIST_UTIL_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fasthist {

// A small reusable thread pool with one data-parallel primitive,
// ParallelFor.  Partitioning is static and deterministic: the range is cut
// into contiguous chunks whose boundaries depend only on
// (begin, end, grain, num_threads), and there is no work stealing —
// so which thread runs which chunk never affects which elements a chunk
// contains.  Callers that write disjoint outputs per index therefore get
// results that are bit-identical to the serial loop, which is the contract
// the merge engine's serial == threaded guarantee rests on (see
// core/internal/merge_engine.cc and README "Engine architecture").
//
// Scheduling rules (the adaptive part):
//   * minimum work per task: every chunk is at least `grain` elements, so
//     the chunk count is min(num_threads, range / grain) — a range shorter
//     than two grains never dispatches, it runs serial on the caller;
//   * oversubscription guard: EffectiveParallelism clamps a requested
//     thread count to the hardware before a pool is ever chosen, so asking
//     for 8 threads on a 1-core container degrades to the serial path
//     instead of 8 workers time-slicing one core.
//
// The calling thread participates: a pool constructed with num_threads = t
// spawns t - 1 workers and runs the first chunk on the caller, so
// ThreadPool(1) degrades to a plain serial loop with no synchronization.

// The interior boundary of chunk `c` out of `chunks` over [begin,
// begin + range).  Pure in its arguments — this is the single source of
// truth for the pool's static partitioning, shared with callers (the merge
// engine's fused poly kernel) that plan the same chunks to precompute
// per-chunk prefix state.  With range >= chunks * grain every chunk is
// non-empty.
inline int64_t ChunkBoundary(int64_t begin, int64_t range, int64_t chunks,
                             int64_t c) {
  if (c <= 0) return begin;
  if (c >= chunks) return begin + range;
  return begin + range * c / chunks;
}

// The deterministic chunk count for a range: at most `tasks`, with every
// chunk at least `grain` long.  0 tasks/grain are clamped to 1.
inline int64_t ChunkCount(int64_t range, int64_t grain, int64_t tasks) {
  grain = std::max<int64_t>(grain, 1);
  return std::max<int64_t>(
      1, std::min<int64_t>(std::max<int64_t>(tasks, 1), range / grain));
}

// min(requested, hardware concurrency, cgroup CPU quota), at least 1.  The
// clamp every pool call site goes through: a thread count above what the
// machine (or the container's CPU limit — hardware_concurrency reports the
// *host's* cores under a quota) can actually run only adds context
// switching, never speed, so it is treated as "all cores".  When both are
// unknown the request is trusted as-is.
int EffectiveParallelism(int requested);

// The machine's usable parallelism as EffectiveParallelism sees it —
// hardware concurrency clamped by any cgroup CPU quota, and by the test
// override when set.  0 when the hardware is unknown (EffectiveParallelism
// then trusts requests as-is).
int HardwareParallelism();

// Test-only override of the hardware concurrency EffectiveParallelism
// sees (0 restores the real value).  Lets tests on small containers force
// the genuinely-threaded code paths (and CI on big machines pin them
// down); never used outside tests.
void SetHardwareParallelismForTesting(int value);

class ThreadPool {
 public:
  // Spawns num_threads - 1 worker threads (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Invokes body(chunk_begin, chunk_end) over disjoint chunks covering
  // [begin, end), each at least `grain` long, and blocks until every chunk
  // has finished.  A range shorter than two grains runs inline
  // on the caller.  Safe to call from multiple threads; concurrent calls
  // serialize against each other.  Reentrant calls from inside `body` run
  // inline (serial).  Exception-safe: never returns (or unwinds) while a
  // worker still runs a chunk; a throw from a worker chunk is captured and
  // the first one is rethrown on the calling thread after the barrier, a
  // throw from the caller's own chunk propagates after the barrier.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

  // Process-wide pool registry: one lazily-created pool per distinct thread
  // count, so repeated merge calls reuse threads instead of respawning them.
  // Pools live for the duration of the process.
  static ThreadPool& Shared(int num_threads);

 private:
  struct Chunk {
    int64_t begin = 0;
    int64_t end = 0;
  };

  void WorkerLoop(int worker_index);

  std::mutex dispatch_mu_;  // one ParallelFor at a time per pool

  std::mutex mu_;  // guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int64_t, int64_t)>* body_ = nullptr;
  std::vector<Chunk> chunks_;  // chunk 0 runs on the caller, chunk i on
                               // worker i-1; sized per dispatch
  uint64_t epoch_ = 0;         // bumped once per dispatch
  int pending_ = 0;            // worker chunks not yet finished
  std::exception_ptr worker_exception_;  // first throw from a worker chunk
  bool shutting_down_ = false;

  std::vector<std::thread> workers_;
};

// Serial-or-parallel helper: with a null pool (or a range shorter than two
// grains) runs `body` inline over the whole range, otherwise dispatches to
// the pool.  This is the form the engine calls — `pool` is null exactly
// when the effective thread count is 1.
inline void ParallelFor(ThreadPool* pool, int64_t begin, int64_t end,
                        int64_t grain,
                        const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  if (pool == nullptr || end - begin < 2 * std::max<int64_t>(grain, 1)) {
    body(begin, end);
    return;
  }
  pool->ParallelFor(begin, end, grain, body);
}

}  // namespace fasthist

#endif  // FASTHIST_UTIL_PARALLEL_H_
