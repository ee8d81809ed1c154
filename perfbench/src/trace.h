// In-memory span recorder and small statistics helpers for the benchmark
// program.
//
// A span is (name, start, end, parent span, thread). The benchmark opens one
// around every call it makes into a layer of the program and around the
// migration hooks it installs; the spans stay in per-thread buffers until
// the run ends, when Collect() merges them. With tracing off, ScopedSpan
// and Record are a single relaxed load, so untraced runs measure the
// program, not the recorder.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = nullptr;  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  ///< id of the enclosing span on the same thread
  uint32_t thread = 0;
};

/// Process-wide span recorder.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its id.
  int64_t Begin(const char* name);
  /// Closes the innermost open span of the calling thread (must be `id`).
  void End(int64_t id);
  /// Records an already-finished span, as a child of the calling thread's
  /// innermost open span when `child` (a span that may overlap its
  /// siblings is recorded as a root, so it never distorts a self time).
  void Record(const char* name, int64_t start_ns, int64_t end_ns, bool child = true);

  /// All spans recorded so far, from every thread.
  std::vector<SpanRecord> Collect();

 private:
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  ///< indexes into `spans`
  };
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
  std::mutex mu_;  ///< guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; does nothing while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

/// Per-name aggregates of a span set: durations and self time (duration
/// minus the part covered by child spans).
struct SpanSummary {
  std::vector<double> durations_ms;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanSummary> Summarize(const std::vector<SpanRecord>& spans);

/// Writes every recorded span to `path` as tab-separated lines.
void WriteSpans(const std::string& path);

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]); 0 when
/// the sample is empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

}  // namespace perfbench
