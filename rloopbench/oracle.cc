#include "oracle.h"

#include <sstream>
#include <stdexcept>

#include "core/record.h"
#include "core/replica_detector.h"
#include "core/stream_merger.h"
#include "core/stream_validator.h"
#include "scenarios/scenario.h"

namespace rloopbench {

namespace {

namespace core = rloop::core;

// Reference counts per generator and seed: records in the generated trace,
// validated streams, merged loops, an FNV-1a hash over the rendered loop
// lines, and inline streaming alerts. Refresh a row with the pin line a
// run prints when its reference disagrees (after checking that the change
// in output is intended).
struct Pin {
  const char* input;
  std::uint64_t seed;
  std::uint64_t records;
  std::uint64_t valid_streams;
  std::uint64_t loops;
  std::uint64_t loops_fnv;
  std::uint64_t alerts;
};

constexpr Pin kPins[] = {
    {"backbone_busy", 202, 1612881, 196, 24, 0x49819b6c8b9493cfULL, 82},
    {"loop_storm", 7, 237894, 1778, 2, 0x0ceb2509884f8ff4ULL, 70},
    {"loop_storm", 8, 218511, 1305, 3, 0x756c8fde5f6fb7cdULL, 71},
};

std::uint64_t fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& line : lines) {
    for (const char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= '\n';
    h *= 1099511628211ULL;
  }
  return h;
}

bool same_streams(const std::vector<core::ReplicaStream>& a,
                  const std::vector<core::ReplicaStream>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (!(x.key == y.key) || x.dst != y.dst || x.dst24 != y.dst24 ||
        x.replicas.size() != y.replicas.size()) {
      return false;
    }
    for (std::size_t r = 0; r < x.replicas.size(); ++r) {
      const auto& p = x.replicas[r];
      const auto& q = y.replicas[r];
      if (p.record_index != q.record_index || p.ts != q.ts || p.ttl != q.ttl) {
        return false;
      }
    }
  }
  return true;
}

bool same_loops(const std::vector<core::RoutingLoop>& a,
                const std::vector<core::RoutingLoop>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.prefix24 != y.prefix24 || x.start != y.start || x.end != y.end ||
        x.stream_indices != y.stream_indices ||
        x.replica_count != y.replica_count || x.ttl_delta != y.ttl_delta) {
      return false;
    }
  }
  return true;
}

}  // namespace

OfflineOutput strip_records(core::LoopDetectionResult result) {
  OfflineOutput out;
  out.raw_streams = std::move(result.raw_streams);
  out.valid_streams = std::move(result.valid_streams);
  out.loops = std::move(result.loops);
  out.validation = result.validation;
  out.total_records = result.total_records;
  out.parse_failures = result.parse_failures;
  return out;
}

bool same_output(const core::LoopDetectionResult& got,
                 const OfflineOutput& want) {
  const auto& v = got.validation;
  const auto& w = want.validation;
  return got.total_records == want.total_records &&
         got.parse_failures == want.parse_failures &&
         v.input_streams == w.input_streams &&
         v.rejected_too_small == w.rejected_too_small &&
         v.rejected_prefix_conflict == w.rejected_prefix_conflict &&
         v.accepted == w.accepted &&
         same_streams(got.raw_streams, want.raw_streams) &&
         same_streams(got.valid_streams, want.valid_streams) &&
         same_loops(got.loops, want.loops);
}

std::vector<std::string> render_loops(
    const std::vector<core::RoutingLoop>& loops) {
  std::vector<std::string> lines;
  lines.reserve(loops.size());
  for (const auto& loop : loops) {
    lines.push_back(rloop::scenarios::render_loop(loop));
  }
  return lines;
}

std::vector<std::string> render_alerts(
    const std::vector<core::LoopAlert>& alerts) {
  std::vector<std::string> lines;
  lines.reserve(alerts.size());
  for (const auto& alert : alerts) {
    lines.push_back(rloop::scenarios::render_alert(alert));
  }
  return lines;
}

Expected compute_expected(const rloop::net::Trace& trace,
                          const core::StreamingConfig& streaming,
                          const std::string& input, std::uint64_t seed) {
  Expected expected;
  const auto records = core::parse_trace(trace);
  const core::LoopDetectorConfig defaults;
  const core::ReplicaDetector detector(defaults.detector);
  const auto raw = detector.detect_reference(trace, records);
  const core::StreamValidator validator(defaults.validator);
  const auto valid = validator.validate(records, raw);
  const core::StreamMerger merger(defaults.merger);
  expected.loops = render_loops(merger.merge(records, valid));
  expected.valid_streams = valid.size();

  std::vector<core::LoopAlert> alerts;
  core::StreamingDetector live(
      streaming, [&](const core::LoopAlert& a) { alerts.push_back(a); });
  for (std::size_t i = 0; i < trace.size(); ++i) {
    live.on_packet(trace[i].ts, trace[i].bytes());
  }
  expected.alerts = render_alerts(alerts);

  for (const Pin& pin : kPins) {
    if (input != pin.input || seed != pin.seed) continue;
    expected.pinned = true;
    expected.pin_ok = trace.size() == pin.records &&
                      expected.valid_streams == pin.valid_streams &&
                      expected.loops.size() == pin.loops &&
                      fnv1a(expected.loops) == pin.loops_fnv &&
                      expected.alerts.size() == pin.alerts;
    expected.pin = describe(expected, trace.size());
  }
  return expected;
}

std::string describe(const Expected& expected, std::uint64_t records) {
  std::ostringstream out;
  out << "records=" << records << " valid_streams=" << expected.valid_streams
      << " loops=" << expected.loops.size() << " loops_fnv=0x" << std::hex
      << fnv1a(expected.loops) << std::dec
      << " alerts=" << expected.alerts.size();
  return out.str();
}

std::string serialize(const Expected& expected) {
  std::ostringstream out;
  out << expected.valid_streams << ' ' << expected.pin_ok << ' '
      << expected.pinned << '\n'
      << expected.pin << '\n'
      << expected.loops.size() << '\n';
  for (const auto& line : expected.loops) out << line << '\n';
  out << expected.alerts.size() << '\n';
  for (const auto& line : expected.alerts) out << line << '\n';
  return out.str();
}

Expected deserialize(const std::string& text) {
  std::istringstream in(text);
  Expected expected;
  std::string line;
  const auto next = [&] {
    if (!std::getline(in, line)) {
      throw std::runtime_error("truncated reference encoding");
    }
    return line;
  };
  std::istringstream head(next());
  head >> expected.valid_streams >> expected.pin_ok >> expected.pinned;
  expected.pin = next();
  for (auto* lines : {&expected.loops, &expected.alerts}) {
    const std::size_t count = std::stoull(next());
    for (std::size_t i = 0; i < count; ++i) lines->push_back(next());
  }
  return expected;
}

void corrupt(Expected& expected) {
  if (expected.loops.empty()) {
    expected.loops.push_back("corrupted");
  } else {
    expected.loops.pop_back();
  }
  if (expected.alerts.empty()) {
    expected.alerts.push_back("corrupted");
  } else {
    expected.alerts.pop_back();
  }
}

}  // namespace rloopbench
