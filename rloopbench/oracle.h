// The benchmark's output oracle.
//
// Offline: every serial pass must render (scenarios::render_loop) exactly
// the loops of an independent reference run — parse, the retained
// pre-flat-map detector engine (ReplicaDetector::detect_reference),
// validate, merge — and that reference must match the counts pinned below
// for the (input, seed) pairs that have pins. Parallel passes must equal
// the setup's serial run field for field.
// Live: a daemon pass that dropped nothing must raise exactly the alerts
// (scenarios::render_alert) of an inline StreamingDetector run over the
// same trace and config, and DaemonStats::invariant_ok() must hold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/loop_detector.h"
#include "core/streaming_detector.h"
#include "net/trace.h"

namespace rloopbench {

// A LoopDetectionResult without its per-record parse output.
struct OfflineOutput {
  std::vector<rloop::core::ReplicaStream> raw_streams;
  std::vector<rloop::core::ReplicaStream> valid_streams;
  std::vector<rloop::core::RoutingLoop> loops;
  rloop::core::ValidationStats validation;
  std::uint64_t total_records = 0;
  std::uint64_t parse_failures = 0;
};

OfflineOutput strip_records(rloop::core::LoopDetectionResult result);

// Field-for-field equality of everything in OfflineOutput.
bool same_output(const rloop::core::LoopDetectionResult& got,
                 const OfflineOutput& want);

std::vector<std::string> render_loops(
    const std::vector<rloop::core::RoutingLoop>& loops);
std::vector<std::string> render_alerts(
    const std::vector<rloop::core::LoopAlert>& alerts);

struct Expected {
  std::vector<std::string> loops;   // reference-engine loops, rendered
  std::vector<std::string> alerts;  // inline StreamingDetector, rendered
  std::uint64_t valid_streams = 0;
  // False when a pin exists for this input and seed and the reference
  // disagrees with it; `pin` then says how.
  bool pin_ok = true;
  bool pinned = false;
  std::string pin;
};

// `input` names the generator ("backbone_busy" or "loop_storm"; the
// observed workload shares loop_storm's input).
Expected compute_expected(const rloop::net::Trace& trace,
                          const rloop::core::StreamingConfig& streaming,
                          const std::string& input, std::uint64_t seed);

// One line per pin-relevant count, for refreshing the pin table.
std::string describe(const Expected& expected, std::uint64_t records);

// Line-based encoding of an Expected, for handing it across processes.
std::string serialize(const Expected& expected);
Expected deserialize(const std::string& text);

// Scrambles the expected output (drops a loop line and an alert line), for
// the self-check that shows a wrong reference is reported as failures.
void corrupt(Expected& expected);

}  // namespace rloopbench
