// Measurement helpers shared by the benchmark's passes: the steady clock,
// the counting allocator, peak RSS and order statistics over passes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rloopbench {

// Steady-clock nanoseconds (the clock telemetry::ScopedSpan uses).
std::int64_t now_ns();

// Global operator new is replaced in this binary (stats.cc). While counting
// is on, every allocation on every thread increments one relaxed counter;
// off (the end-to-end runs) it costs one relaxed load.
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

// ru_maxrss of this process, in MiB.
double peak_rss_mb();

// Quartiles by linear interpolation between order statistics.
struct Summary {
  double p25 = 0;
  double median = 0;
  double p75 = 0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> values);

// The q-quantile (0..1) of `values`, same interpolation; 0 when empty.
double quantile(std::vector<double> values, double q);

}  // namespace rloopbench
