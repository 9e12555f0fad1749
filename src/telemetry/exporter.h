// Snapshot serialization: Prometheus text exposition format and JSON, plus
// a caller-pumped PeriodicExporter.
//
// Exporters work on MetricSnapshot vectors (registry.h), never on live
// metrics, so serialization needs no locks and a snapshot can be formatted
// twice (e.g. printed and written to a file) consistently.
//
// PeriodicExporter has no thread of its own: the owner pumps it with a
// monotonic clock — packet timestamps in live_monitor, the simulator's
// event-queue time in a simulation — so periodic output is deterministic
// under simulated time and needs no synchronization.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/time.h"
#include "telemetry/metric_types.h"
#include "telemetry/registry.h"

namespace rloop::telemetry {

// Prometheus text exposition format (# HELP / # TYPE, cumulative `le`
// histogram buckets, _sum/_count series).
std::string to_prometheus(const std::vector<MetricSnapshot>& snaps);

// JSON array of metric objects; histograms carry per-bucket counts.
std::string to_json(const std::vector<MetricSnapshot>& snaps);

// Escapes `s` for the inside of a JSON string literal (RFC 8259; the quotes
// are not added): `"` and `\` get a backslash, \n \r \t their short forms,
// and every other control character below 0x20 becomes \u00XX. Every JSON
// writer in the tree (metrics, spans, daemon stats and status, reports,
// scenario verdicts) escapes through this one function.
std::string json_escape(std::string_view s);

class PeriodicExporter {
 public:
  enum class Format { prometheus, json };
  using Sink = std::function<void(const std::string&)>;

  // Snapshots `registry` and feeds the formatted text to `sink` once per
  // `interval` of pumped time. `registry` must outlive the exporter.
  PeriodicExporter(const Registry* registry, net::TimeNs interval,
                   Format format, Sink sink);

  // Advances the exporter's clock to `now` (any monotonic TimeNs source).
  // Emits at most one export per call — a large time jump does not replay
  // missed intervals. Returns true when an export fired.
  bool pump(net::TimeNs now);

  // Unconditional export at time `now` (used for a final snapshot).
  void flush(net::TimeNs now);

  std::uint64_t exports() const { return exports_; }

 private:
  const Registry* registry_;
  net::TimeNs interval_;
  Format format_;
  Sink sink_;
  net::TimeNs next_due_ = 0;
  bool started_ = false;
  std::uint64_t exports_ = 0;
};

}  // namespace rloop::telemetry
