// In-memory span recording for the traced benchmark run.
//
// sfc_perfbench wraps each call it makes into a library layer in a ScopedSpan:
// name, start, end, parent span and request id.  Each thread appends to its
// own SpanLog (no locking on the hot path); logs hand their spans to the
// shared SpanSink when they are destroyed, and the sink writes everything out
// once the run is over.  A null SpanLog* makes every ScopedSpan inert, which
// is how the untraced run pays nothing.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by every span of one request
  std::int64_t start_ns = 0;  ///< steady clock, relative to the sink origin
  std::int64_t end_ns = 0;
};

class SpanSink {
 public:
  SpanSink() : origin_(std::chrono::steady_clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  std::uint64_t next_request() { return next_request_.fetch_add(1) + 1; }

  void absorb(std::vector<Span>&& spans) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// One JSON object per line, ordered by start time.
  bool write_jsonl(const std::string& path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
    });
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
    return static_cast<bool>(out);
  }

  /// Per span name: count, total time and self time (duration minus the
  /// time covered by its direct children), in milliseconds.
  struct NameSummary {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameSummary> summarize() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::uint64_t, std::int64_t> child_ns;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, NameSummary> out;
    for (const Span& s : spans_) {
      const auto dur = s.end_ns - s.start_ns;
      const auto it = child_ns.find(s.id);
      const std::int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
      NameSummary& n = out[s.name];
      ++n.count;
      n.total_ms += static_cast<double>(dur) / 1e6;
      n.self_ms += static_cast<double>(self) / 1e6;
    }
    return out;
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_request_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// One thread's span buffer; flushes into the sink on destruction.
class SpanLog {
 public:
  explicit SpanLog(SpanSink& sink) : sink_(sink) { spans_.reserve(1 << 14); }
  ~SpanLog() { sink_.absorb(std::move(spans_)); }
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  SpanSink& sink() { return sink_; }
  void push(const Span& span) { spans_.push_back(span); }

 private:
  SpanSink& sink_;
  std::vector<Span> spans_;
};

/// RAII span around one call.  With log == nullptr it records nothing and
/// id() is 0.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent,
             std::uint64_t request)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.id = log_->sink().next_id();
    span_.parent = parent;
    span_.request = request;
    span_.start_ns = log_->sink().now_ns();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = log_->sink().now_ns();
    log_->push(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace perfbench
