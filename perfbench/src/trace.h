// In-memory span tracing for the traced (--trace 1) runs.
//
// A span is (name, start, end, id, parent): ScopedSpan opens one on the
// current thread, and the innermost open span of that thread is its parent.
// Spans live in per-thread buffers until the run ends, when WriteSpans dumps
// them as TSV for perfbench/report.py.  With tracing off a ScopedSpan costs
// one branch, which is how the untraced runs measure end-to-end metrics.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // string literal: spans never own their names
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;      // (thread slot << 40) | sequence, never 0
  uint64_t parent = 0;  // 0 = a root span
};

void EnableTracing(bool on);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

// Durations (ns) of every recorded span named `name`, over all threads.
// Call only while no other thread is recording.
std::vector<double> SpanDurationsNs(const std::string& name);

// Writes every span as "id parent name start_ns end_ns" lines, after the
// "# key value" lines of `meta`.  Returns false on an I/O failure.
bool WriteSpans(const std::string& path,
                const std::vector<std::pair<std::string, std::string>>& meta);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
