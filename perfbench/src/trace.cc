#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "util/clock.h"

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

struct ThreadBuffer {
  uint64_t slot = 0;
  uint64_t next_seq = 1;
  uint64_t current = 0;  // innermost open span on this thread
  std::vector<SpanRecord> spans;
};

// Buffers outlive their threads (client threads end before the dump).
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->slot = g_buffers.size();
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

void EnableTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (!TracingEnabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  id_ = (buffer.slot << 40) | buffer.next_seq++;
  parent_ = buffer.current;
  buffer.current = id_;
  start_ns_ = fasthist::MonotonicNanos();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const uint64_t end_ns = fasthist::MonotonicNanos();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.current = parent_;
  buffer.spans.push_back(SpanRecord{name_, start_ns_, end_ns, id_, parent_});
}

std::vector<double> SpanDurationsNs(const std::string& name) {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& span : buffer->spans) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns));
      }
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::pair<std::string, std::string>>& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [key, value] : meta) {
    std::fprintf(f, "# %s %s\n", key.c_str(), value.c_str());
  }
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& s : buffer->spans) {
      std::fprintf(f, "%llu %llu %s %llu %llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
