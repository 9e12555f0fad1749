#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/exporter.h"

namespace rloop::telemetry {

namespace {

// Per-thread nesting depth for span events. Only touched when a sink is
// attached, so the disabled path never faults the thread-local in.
thread_local std::uint32_t t_span_depth = 0;

}  // namespace

std::uint32_t trace_thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceSink::TraceSink(std::size_t capacity) : capacity_(capacity) {
  events_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void TraceSink::record(const SpanEvent& ev) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < capacity_) {
      events_.push_back(ev);
      return;
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanEvent> TraceSink::snapshot() const {
  std::vector<SpanEvent> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = events_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.depth < b.depth;
            });
  return out;
}

std::size_t TraceSink::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string TraceSink::chrome_trace_json() const {
  return to_chrome_trace_json(snapshot());
}

ScopedSpan::ScopedSpan(TraceSink* sink, const char* name, const char* category)
    : sink_(sink), name_(name), category_(category) {
  if (sink_) {
    depth_ = t_span_depth++;
    start_ = std::chrono::steady_clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (!sink_) return;
  const auto end = std::chrono::steady_clock::now();
  --t_span_depth;
  SpanEvent ev;
  ev.name = name_;
  ev.category = category_;
  ev.tid = trace_thread_id();
  ev.depth = depth_;
  ev.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start_.time_since_epoch())
                    .count();
  ev.duration_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count();
  sink_->record(ev);
}

std::string to_chrome_trace_json(const std::vector<SpanEvent>& events) {
  // ts/dur are microseconds in the trace-event format; three decimals keep
  // the underlying nanosecond resolution.
  const auto us = [](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    return std::string(buf);
  };
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& ev = events[i];
    if (i) out += ',';
    out += "\n {\"name\":\"" + json_escape(ev.name) + "\",\"cat\":\"" +
           json_escape(ev.category) + "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(ev.tid) + ",\"ts\":" + us(ev.start_ns) +
           ",\"dur\":" + us(ev.duration_ns) +
           ",\"args\":{\"depth\":" + std::to_string(ev.depth) + "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace rloop::telemetry
