// Shared declarations of the repository benchmark (perfbench/README.md).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  // spans and per-run result files land here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's outcome: the last line of standard output is this, as JSON.
// `errors` holds the message of every correctness check that fired.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  // "# key value" header lines of the traced run's span dump; report.py
  // reads e2e_throughput from it to derive the tracing overhead.
  std::vector<std::pair<std::string, std::string>> trace_meta;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  // Records a fired correctness check ("" means the check passed).
  void Check(const std::string& error) {
    if (!error.empty()) errors.push_back(error);
  }
  bool correct() const { return errors.empty(); }
};

// Socket topology of both socket workloads: 2 worker loops on the server
// and 2 closed-loop client connections, one thread each, so the process
// keeps at most nproc (4) threads busy.
constexpr int kServerLoops = 2;
constexpr int kConnections = 2;

// The machine's usable cores (cgroup-aware), at least 1.
int Nproc();

// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// CPU time of every thread of this process so far, in seconds, live and
// ended threads alike.  The timed metrics are CPU time, not wall time: on
// a shared host the wall clock also counts the time the hypervisor gave
// other tenants (steal) and the time other processes held the cores,
// which the kernel leaves out of a process's CPU time.
double ProcessCpuSeconds();

// CPU cost per operation of a timed phase that several threads run at
// once: the phase's operations are cut into windows of `ops_per_window`,
// in the order they complete, and each window's cost is the process CPU
// time spent between its first and last operation, over its operations.
class CpuWindows {
 public:
  explicit CpuWindows(uint64_t ops_per_window)
      : ops_per_window_(ops_per_window) {}

  // Reads the clock: the phase starts now and keeps at most `max_windows`
  // windows.
  void Start(size_t max_windows);
  // Counts `n` more completed operations, from any thread.
  void Add(uint64_t n);
  // Every whole window's CPU microseconds per operation, in order.
  std::vector<double> CostsUs() const;

 private:
  const uint64_t ops_per_window_;
  std::atomic<uint64_t> done_{0};
  std::mutex mu_;
  std::vector<double> marks_;  // process CPU seconds at window ends
};

// Resident set size of this process now, in MiB.
double ResidentMb();

// peak_rss_mb is the program's peak resident memory: the process peak
// minus the resident set once the benchmark's own inputs are generated and
// its logs are allocated.  Prefault(v, n) makes room for n entries in `v`
// and touches it, so that its pages are resident before that baseline is
// read and the log's growth during the timed phase is not counted.
template <typename T>
void Prefault(std::vector<T>* v, size_t n) {
  v->assign(n, T());
  v->clear();
}

// Infrastructure failure (not a correctness check): prints and exits 1
// without a result line.
[[noreturn]] void Die(const std::string& what, const fasthist::Status& s);
[[noreturn]] void Die(const std::string& what);

// The workloads.  Each fills `result` with its end-to-end metrics when
// cfg.trace is false and with the per-layer ledger when it is true.
void RunFitOffline(const RunConfig& cfg, RunResult* result);
void RunIngestZipf(const RunConfig& cfg, RunResult* result);
void RunQueryMix(const RunConfig& cfg, RunResult* result);

// Feeds every correctness check a right and a deliberately wrong output;
// returns the number of checks that misbehaved (0 = every check can fire
// and none fires on a right output).
int RunSelfTest(bool verbose);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
