// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload <fit_offline|ingest_zipf|query_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --self-test
//
// Prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the five end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1).  Exits 0 when every correctness check held, 3 when one
// fired (the result line still prints), and 1 on a usage or
// infrastructure failure (no result line).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>

#include "bench.h"
#include "trace.h"
#include "util/parallel.h"

namespace perfbench {

int Nproc() {
  const int hw = fasthist::HardwareParallelism();
  if (hw > 0) return hw;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    Die("cannot read the process CPU clock");
  }
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void CpuWindows::Start(size_t max_windows) {
  std::lock_guard<std::mutex> lock(mu_);
  marks_.clear();
  marks_.reserve(max_windows + 1);
  done_ = 0;
  marks_.push_back(ProcessCpuSeconds());
}

void CpuWindows::Add(uint64_t n) {
  const uint64_t before = done_.fetch_add(n);
  if (before / ops_per_window_ == (before + n) / ops_per_window_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (marks_.size() < marks_.capacity()) marks_.push_back(ProcessCpuSeconds());
}

std::vector<double> CpuWindows::CostsUs() const {
  std::vector<double> costs;
  for (size_t i = 1; i < marks_.size(); ++i) {
    costs.push_back((marks_[i] - marks_[i - 1]) * 1e6 /
                    static_cast<double>(ops_per_window_));
  }
  return costs;
}

double ResidentMb() {
  // The second field of /proc/self/statm is the resident set, in pages.
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%*s %ld", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  if (pages <= 0) Die("cannot read the resident set from /proc/self/statm");
  return static_cast<double>(pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void Die(const std::string& what, const fasthist::Status& s) {
  Die(what + ": " + s.message());
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(1);
}

namespace {

std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (!std::isfinite(m.value)) Die("metric " + m.name + " is not finite");
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fit_offline|ingest_zipf|query_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n       perfbench --self-test\n",
               why);
  std::exit(1);
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      const int bad = RunSelfTest(/*verbose=*/true);
      std::fprintf(stderr, "self-test: %d broken check(s)\n", bad);
      return bad == 0 ? 0 : 3;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, (1LL << 62), &v)) Usage("bad --seed");
      cfg.seed = static_cast<uint64_t>(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 3600, &v)) Usage("bad --seconds");
      cfg.seconds = static_cast<int>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &v)) Usage("bad --trace");
      cfg.trace = v == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }

  // Every run first proves that each correctness check can fire.
  if (RunSelfTest(/*verbose=*/false) != 0) Die("self-test: a check is broken");

  EnableTracing(cfg.trace);
  RunResult result;
  if (cfg.workload == "fit_offline") {
    RunFitOffline(cfg, &result);
  } else if (cfg.workload == "ingest_zipf") {
    RunIngestZipf(cfg, &result);
  } else if (cfg.workload == "query_mix") {
    RunQueryMix(cfg, &result);
  } else {
    Usage(("unknown workload " + cfg.workload).c_str());
  }

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  const std::string json = ResultJson(result);
  if (!cfg.out_dir.empty()) {
    const std::string stem =
        cfg.out_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed);
    if (cfg.trace) {
      result.trace_meta.insert(result.trace_meta.begin(),
                               {"workload", cfg.workload});
      if (!WriteSpans(stem + "-spans.tsv", result.trace_meta)) {
        Die("cannot write " + stem + "-spans.tsv");
      }
    }
    const std::string path = stem + "-trace" + (cfg.trace ? "1" : "0") +
                             ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 3;
}
