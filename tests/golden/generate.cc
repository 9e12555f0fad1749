// Regenerates the golden-trace fixture (golden_trace.pcap +
// golden_expected.json). Build and run the `golden_regen` target from the
// repo root ONLY when a detection-semantics change is intentional:
//
//   cmake --build build --target golden_regen
//   ./build/tests/golden_regen tests/golden
//
// The trace is a deliberately tiny Backbone-1 variant (fixed seed, a few
// seconds, reduced flow rate) chosen so the pcap stays under 50 KB while
// still containing real transient loops. The expected JSON is the serial
// pipeline's report over the pcap AS RE-READ from disk, so the fixture pins
// the full pcap -> parse -> detect -> validate -> merge -> report chain.
#include <cstdio>
#include <fstream>
#include <string>

#include "core/loop_detector.h"
#include "core/report.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "scenarios/backbone.h"

using namespace rloop;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "tests/golden";

  auto spec = scenarios::backbone_spec(1);
  spec.duration = 16 * net::kSecond;
  spec.flows_per_second = 3.0;
  spec.igp_events = 1;
  spec.bgp_events = 8;
  spec.mrai_max = 8 * net::kSecond;
  spec.bgp_outage_mean = 4 * net::kSecond;
  spec.dst_prefix_count = 40;
  // Withdraw popular prefixes so the few active flows actually cross the
  // loops this tiny trace exists to pin.
  spec.withdraw_rank_lo = 0.0;
  spec.withdraw_rank_hi = 0.4;
  auto run = scenarios::build_backbone(spec);
  scenarios::execute(*run);

  const auto pcap_path = out_dir + "/golden_trace.pcap";
  net::write_pcap(run->trace(), pcap_path);

  // Detect over the re-read trace so the fixture covers pcap I/O exactly as
  // the test does.
  const auto trace = net::read_pcap_fast(pcap_path);
  const auto result = core::detect_loops(trace);

  core::ReportOptions options;
  options.include_streams = true;
  options.trace_name = "golden";
  options.trace_epoch_unix_s = 0;
  std::ofstream json(out_dir + "/golden_expected.json", std::ios::binary);
  json << core::json_report(result, options);
  json.close();

  std::printf("golden fixture: %zu records, %zu raw streams, %zu valid, "
              "%zu loops -> %s\n",
              trace.size(), result.raw_streams.size(),
              result.valid_streams.size(), result.loops.size(),
              pcap_path.c_str());
  return result.loops.empty() ? 1 : 0;
}
