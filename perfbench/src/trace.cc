#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    local = buffer.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    buffers_.push_back(std::move(buffer));
  }
  return local;
}

int64_t Tracer::Begin(const char* name) {
  ThreadBuffer* b = Local();
  SpanRecord r;
  r.name = name;
  r.start_ns = NowNs();
  r.thread = b->thread;
  r.id = (static_cast<int64_t>(b->thread) << 40) | static_cast<int64_t>(b->spans.size());
  r.parent = b->open.empty() ? -1 : b->spans[b->open.back()].id;
  b->open.push_back(b->spans.size());
  b->spans.push_back(r);
  return r.id;
}

void Tracer::End(int64_t id) {
  ThreadBuffer* b = Local();
  const size_t index = static_cast<size_t>(id & ((int64_t{1} << 40) - 1));
  b->spans[index].end_ns = NowNs();
  if (!b->open.empty() && b->open.back() == index) b->open.pop_back();
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns, bool child) {
  if (!enabled()) return;
  ThreadBuffer* b = Local();
  SpanRecord r;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.thread = b->thread;
  r.id = (static_cast<int64_t>(b->thread) << 40) | static_cast<int64_t>(b->spans.size());
  r.parent = !child || b->open.empty() ? -1 : b->spans[b->open.back()].id;
  b->spans.push_back(r);
}

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::map<std::string, SpanSummary> Summarize(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, double> child_ms;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  std::map<std::string, SpanSummary> out;
  for (const SpanRecord& s : spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    SpanSummary& sum = out[s.name];
    sum.durations_ms.push_back(ms);
    sum.total_ms += ms;
    auto child = child_ms.find(s.id);
    sum.self_ms += ms - (child == child_ms.end() ? 0.0 : child->second);
  }
  return out;
}

void WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\tthread\n");
  for (const SpanRecord& s : Tracer::Get().Collect()) {
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%lld\t%u\n", s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.id), static_cast<long long>(s.parent), s.thread);
  }
  std::fclose(f);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
