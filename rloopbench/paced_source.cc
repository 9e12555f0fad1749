#include "paced_source.h"

#include <algorithm>

#include "stats.h"

namespace rloopbench {

namespace {
// Spin-wait hint: lets a sibling hardware thread (possibly the daemon's
// consumer) use the core while the generator waits for a due time.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}
}  // namespace

PacedSource::PacedSource(const rloop::net::Trace* trace, double rate_pps,
                         bool measure_gaps)
    : trace_(trace),
      period_ns_(rate_pps > 0 ? 1e9 / rate_pps : 0.0),
      measure_gaps_(measure_gaps) {
  if (period_ns_ > 0) lateness_ns_.reserve(trace->size());
}

std::string PacedSource::name() const {
  return period_ns_ > 0 ? "bench:paced" : "bench:max";
}

bool PacedSource::next(rloop::net::TraceRecord& out) {
  if (index_ >= trace_->size()) return false;
  if (period_ns_ > 0) {
    if (index_ == 0) anchor_ns_ = now_ns();
    const std::int64_t due = due_ns(index_);
    std::int64_t now = now_ns();
    while (now < due) {
      cpu_relax();
      now = now_ns();
    }
    lateness_ns_.push_back(now - due);
  } else if (measure_gaps_ && index_ > 0) {
    gap_total_ns_ += now_ns() - last_return_ns_;
  }
  out = (*trace_)[index_++];
  if (measure_gaps_) last_return_ns_ = now_ns();
  return true;
}

double PacedSource::lateness_p99_ns() const {
  if (lateness_ns_.empty()) return 0.0;
  std::vector<std::int64_t> v = lateness_ns_;
  const std::size_t k = v.size() * 99 / 100;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

}  // namespace rloopbench
