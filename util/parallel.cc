#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

namespace fasthist {
namespace {

// Set while a thread is executing a chunk body; a ParallelFor issued from
// inside one (directly or through a nested engine call) runs inline instead
// of deadlocking on the pool's dispatch lock.
thread_local bool inside_parallel_region = false;

// Test-only override of the hardware concurrency (0 = use the real value).
std::atomic<int> hardware_parallelism_override{0};

// Best-effort cgroup CPU quota (Linux): in a quota-limited container (e.g.
// a Kubernetes cpu limit of 1.5 on a 16-core node) hardware_concurrency()
// still reports the host's 16 logical cores, but the quota is the real
// bound on useful parallelism — more workers than quota time-slice the
// allowance, the exact oversubscription EffectiveParallelism exists to
// prevent.  Returns ceil(quota / period), or 0 when no quota applies (no
// cgroup, "max", or a non-Linux host where the files don't exist).
int CgroupCpuQuota() {
  // cgroup v2: /sys/fs/cgroup/cpu.max holds "<quota-us|max> <period-us>".
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu.max", "r")) {
    char quota_text[32];
    long long period = 0;
    const int fields = std::fscanf(f, "%31s %lld", quota_text, &period);
    std::fclose(f);
    if (fields == 2 && std::strcmp(quota_text, "max") != 0 && period > 0) {
      const long long quota = std::atoll(quota_text);
      if (quota > 0) {
        return static_cast<int>((quota + period - 1) / period);
      }
    }
  }
  // cgroup v1: cpu.cfs_quota_us (-1 = unlimited) over cpu.cfs_period_us.
  long long quota = -1, period = 0;
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "r")) {
    if (std::fscanf(f, "%lld", &quota) != 1) quota = -1;
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu/cpu.cfs_period_us", "r")) {
    if (std::fscanf(f, "%lld", &period) != 1) period = 0;
    std::fclose(f);
  }
  if (quota > 0 && period > 0) {
    return static_cast<int>((quota + period - 1) / period);
  }
  return 0;
}

}  // namespace

int HardwareParallelism() {
  const int override_value =
      hardware_parallelism_override.load(std::memory_order_relaxed);
  if (override_value > 0) return override_value;
  // The quota is read once: it cannot change for a running process without
  // the whole cgroup being reconfigured, and this sits on every pool-
  // selection path.
  static const int hardware = [] {
    int cores = static_cast<int>(std::thread::hardware_concurrency());
    const int quota = CgroupCpuQuota();
    if (quota > 0 && (cores <= 0 || quota < cores)) cores = quota;
    return std::max(cores, 0);
  }();
  return hardware;
}

int EffectiveParallelism(int requested) {
  requested = std::max(requested, 1);
  const int hardware = HardwareParallelism();
  if (hardware <= 0) return requested;  // unknown hardware: trust the caller
  return std::min(requested, hardware);
}

void SetHardwareParallelismForTesting(int value) {
  hardware_parallelism_override.store(value, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int num_threads) {
  const int workers = std::max(num_threads, 1) - 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(int worker_index) {
  uint64_t seen_epoch = 0;
  while (true) {
    Chunk chunk;
    const std::function<void(int64_t, int64_t)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutting_down_ || epoch_ != seen_epoch;
      });
      if (shutting_down_) return;
      seen_epoch = epoch_;
      // Worker i owns chunk i + 1 of this dispatch (chunk 0 is the
      // caller's); a dispatch with fewer chunks leaves the tail workers
      // idle for the round.
      const size_t mine = static_cast<size_t>(worker_index) + 1;
      if (mine < chunks_.size()) {
        chunk = chunks_[mine];
        body = body_;
      }
    }
    if (body != nullptr) {
      inside_parallel_region = true;
      std::exception_ptr thrown;
      try {
        (*body)(chunk.begin, chunk.end);
      } catch (...) {
        thrown = std::current_exception();
      }
      inside_parallel_region = false;
      std::lock_guard<std::mutex> lock(mu_);
      if (thrown != nullptr && worker_exception_ == nullptr) {
        worker_exception_ = thrown;
      }
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  grain = std::max<int64_t>(grain, 1);
  const int64_t range = end - begin;
  // Deterministic static partition: chunk count depends only on the range,
  // the grain, and the pool size — never on runtime scheduling.  Every
  // chunk is at least one full grain (minimum work per task), so a range
  // shorter than two grains stays serial.
  const int64_t max_chunks = ChunkCount(range, grain, num_threads());
  if (max_chunks <= 1 || inside_parallel_region) {
    body(begin, end);
    return;
  }

  std::lock_guard<std::mutex> dispatch_lock(dispatch_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    chunks_.resize(static_cast<size_t>(max_chunks));
    for (int64_t c = 0; c < max_chunks; ++c) {
      chunks_[static_cast<size_t>(c)] = {
          ChunkBoundary(begin, range, max_chunks, c),
          ChunkBoundary(begin, range, max_chunks, c + 1)};
    }
    body_ = &body;
    pending_ = static_cast<int>(max_chunks) - 1;
    worker_exception_ = nullptr;
    ++epoch_;
  }
  work_cv_.notify_all();

  // The barrier below must be reached even if the caller's own chunk
  // throws: workers still hold a pointer to `body`, which dies with this
  // frame, so unwinding before pending_ == 0 would be a use-after-free.
  inside_parallel_region = true;
  std::exception_ptr caller_thrown;
  try {
    body(chunks_[0].begin, chunks_[0].end);
  } catch (...) {
    caller_thrown = std::current_exception();
  }
  inside_parallel_region = false;

  std::exception_ptr worker_thrown;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    body_ = nullptr;
    worker_thrown = worker_exception_;
    worker_exception_ = nullptr;
  }
  if (caller_thrown != nullptr) std::rethrow_exception(caller_thrown);
  if (worker_thrown != nullptr) std::rethrow_exception(worker_thrown);
}

ThreadPool& ThreadPool::Shared(int num_threads) {
  num_threads = std::max(num_threads, 1);
  static std::mutex registry_mu;
  static std::map<int, std::unique_ptr<ThreadPool>> registry;
  std::lock_guard<std::mutex> lock(registry_mu);
  std::unique_ptr<ThreadPool>& pool = registry[num_threads];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(num_threads);
  return *pool;
}

}  // namespace fasthist
