// Cross-module integration tests: simulate -> capture -> (pcap roundtrip) ->
// detect -> score against ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>

#include "baseline/comparison.h"
#include "core/impact.h"
#include "core/loop_detector.h"
#include "core/metrics.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "scenarios/backbone.h"
#include "telemetry/registry.h"

namespace rloop {
namespace {

scenarios::BackboneSpec small_spec(int k) {
  auto spec = scenarios::backbone_spec(k);
  spec.duration = 60 * net::kSecond;
  spec.igp_events = 2;
  spec.bgp_events = 5;
  return spec;
}

// Max, over packets headed for `loop.prefix24` during the loop interval, of
// how many times one packet traversed the tapped link (the simulator logs
// every captured traversal with its packet id). This is the quantity the
// paper's detector can actually see — a packet must appear >= min_replicas
// (3) times on the monitored link for its stream to survive validation, so
// truth loops reaching this bar are exactly the tap-detectable ones.
std::uint64_t max_tap_crossings_by_one_packet(
    const scenarios::BackboneRun& run, const baseline::TruthLoop& loop,
    net::TimeNs slack) {
  std::map<std::uint64_t, std::uint64_t> per_packet;
  for (const auto& crossing : run.network->tap_crossings()) {
    if (crossing.dst_prefix24 != loop.prefix24) continue;
    if (crossing.time < loop.start - slack || crossing.time > loop.end + slack)
      continue;
    ++per_packet[crossing.packet_id];
  }
  std::uint64_t best = 0;
  for (const auto& [id, count] : per_packet) best = std::max(best, count);
  return best;
}

bool loop_detected(const std::vector<core::RoutingLoop>& reports,
                   const baseline::TruthLoop& truth, net::TimeNs slack) {
  return std::any_of(reports.begin(), reports.end(),
                     [&](const core::RoutingLoop& r) {
                       return r.prefix24 == truth.prefix24 &&
                              r.start <= truth.end + slack &&
                              r.end + slack >= truth.start;
                     });
}

// Ground-truth recall: every simulated loop whose traffic crossed the
// monitored link >= 3 times (by one packet — the paper's detectability
// threshold) MUST be reported, by the serial and every parallel variant.
// BGP-only failure plans keep every convergence loop on the tapped artery,
// so the tap's partial view is total here. The crossing ground truth is
// cross-checked against the telemetry export
// (rloop_sim_loop_crossings_total) before use.
TEST(Integration, GroundTruthRecallOfTapVisibleLoopsIsTotal) {
  for (const int k : {1, 4}) {
    SCOPED_TRACE("scenario=" + std::to_string(k));
    auto spec = scenarios::backbone_spec(k);
    spec.duration = 90 * net::kSecond;
    spec.igp_events = 0;
    spec.bgp_events = 8;
    telemetry::Registry registry;
    auto run = scenarios::build_backbone(spec, &registry);
    scenarios::execute(*run);

    // The simulator exports its crossing count through telemetry; the
    // in-memory log and the exported counter must agree before either is
    // trusted as ground truth.
    double exported = -1.0;
    for (const auto& m : registry.snapshot()) {
      if (m.name == "rloop_sim_loop_crossings_total") exported = m.value;
    }
    ASSERT_EQ(exported,
              static_cast<double>(run->network->loop_crossings().size()));

    const auto truth = run->truth_loops();
    constexpr net::TimeNs kSlack = 2 * net::kSecond;
    std::size_t detectable = 0;

    const auto serial = core::detect_loops(run->trace());
    for (const auto& t : truth) {
      if (max_tap_crossings_by_one_packet(*run, t, kSlack) < 3) continue;
      ++detectable;
      EXPECT_TRUE(loop_detected(serial.loops, t, kSlack))
          << "serial missed truth loop " << t.prefix24.to_string() << " ["
          << t.start << ", " << t.end << "] with " << t.crossings
          << " crossings";
    }
    ASSERT_GT(detectable, 0u) << "no detectable ground-truth loops; the "
                                 "recall assertion would be vacuous";

    for (const unsigned threads : {2u, 4u}) {
      core::LoopDetectorConfig config;
      config.parallel.num_threads = threads;
      const auto parallel = core::detect_loops(run->trace(), config);
      for (const auto& t : truth) {
        if (max_tap_crossings_by_one_packet(*run, t, kSlack) < 3) continue;
        EXPECT_TRUE(loop_detected(parallel.loops, t, kSlack))
            << "parallel(" << threads << ") missed truth loop "
            << t.prefix24.to_string();
      }
    }
  }
}

// Precision on a loop-free run: with no failures there are no loops, and
// the pipeline — serial and parallel — must report zero validated streams
// and zero loops (false streams would poison every paper table).
TEST(Integration, LoopFreeRunYieldsZeroFalseStreams) {
  auto spec = scenarios::backbone_spec(2);
  spec.duration = 60 * net::kSecond;
  spec.igp_events = 0;
  spec.bgp_events = 0;
  auto run = scenarios::build_backbone(spec);
  scenarios::execute(*run);
  ASSERT_TRUE(run->network->loop_crossings().empty())
      << "failure-free run unexpectedly looped";

  const auto serial = core::detect_loops(run->trace());
  EXPECT_EQ(serial.valid_streams.size(), 0u);
  EXPECT_EQ(serial.loops.size(), 0u);
  EXPECT_EQ(serial.validation.accepted, 0u);

  core::LoopDetectorConfig config;
  config.parallel.num_threads = 4;
  config.parallel.shard_bits = 4;
  const auto parallel = core::detect_loops(run->trace(), config);
  EXPECT_EQ(parallel.valid_streams.size(), 0u);
  EXPECT_EQ(parallel.loops.size(), 0u);
  EXPECT_EQ(parallel.validation.accepted, 0u);
}

TEST(Integration, DetectorFindsSimulatedLoopsWithHighPrecision) {
  auto run = scenarios::build_backbone(small_spec(1));
  scenarios::execute(*run);

  const auto result = core::detect_loops(run->trace());
  const auto truth = run->truth_loops();
  ASSERT_GT(truth.size(), 0u) << "scenario produced no ground-truth loops";
  ASSERT_GT(result.loops.size(), 0u) << "detector found nothing";

  const auto score = baseline::score_passive(truth, result.loops,
                                             /*slack=*/2 * net::kSecond);
  // Every reported loop must correspond to a real one (the validation step
  // exists precisely to kill false positives).
  EXPECT_EQ(score.unmatched_reports, 0u)
      << "false positives: " << score.unmatched_reports << "/" << score.reports;
  // The tap sees only loops whose cycle crosses it, so recall over ALL
  // network loops is partial — but it must be nonzero.
  EXPECT_GT(score.recall(), 0.0);
}

TEST(Integration, DetectedTtlDeltasMatchTopology) {
  // Scenarios 1-3 (no transit chain): every tap-visible loop cycle is the
  // X<->Y pair, so all detected deltas must be exactly 2.
  auto run = scenarios::build_backbone(small_spec(2));
  scenarios::execute(*run);
  const auto result = core::detect_loops(run->trace());
  ASSERT_GT(result.valid_streams.size(), 0u);
  const auto hist = core::ttl_delta_distribution(result.valid_streams);
  EXPECT_EQ(hist.mode(), 2);
  EXPECT_GT(hist.fraction(2), 0.95);
}

TEST(Integration, TransitChainYieldsMixedDeltas) {
  auto spec = small_spec(4);
  spec.duration = 3 * net::kMinute;
  spec.bgp_events = 10;
  auto run = scenarios::build_backbone(spec);
  scenarios::execute(*run);
  const auto result = core::detect_loops(run->trace());
  ASSERT_GT(result.valid_streams.size(), 0u);
  const auto hist = core::ttl_delta_distribution(result.valid_streams);
  // Backbone 4's signature: both delta-2 (X<->M) and delta-3 (X->M->Y->X).
  EXPECT_GT(hist.count(2), 0u);
  EXPECT_GT(hist.count(3), 0u);
}

TEST(Integration, PcapRoundtripPreservesDetection) {
  auto run = scenarios::build_backbone(small_spec(3));
  scenarios::execute(*run);

  const auto path = (std::filesystem::temp_directory_path() /
                     "rloop_integration_roundtrip.pcap")
                        .string();
  net::write_pcap(run->trace(), path);
  const auto reread = net::read_pcap_fast(path);
  std::filesystem::remove(path);

  ASSERT_EQ(reread.size(), run->trace().size());
  const auto direct = core::detect_loops(run->trace());
  const auto via_pcap = core::detect_loops(reread);
  EXPECT_EQ(direct.valid_streams.size(), via_pcap.valid_streams.size());
  ASSERT_EQ(direct.loops.size(), via_pcap.loops.size());
  for (std::size_t i = 0; i < direct.loops.size(); ++i) {
    EXPECT_EQ(direct.loops[i].prefix24, via_pcap.loops[i].prefix24);
    EXPECT_EQ(direct.loops[i].replica_count, via_pcap.loops[i].replica_count);
  }
}

TEST(Integration, ReplicaCountsFollowInitialTtls) {
  // Streams from TTL-64 packets in a delta-2 loop top out around 30
  // replicas; TTL-128 around 62 (paper Figure 3's jumps).
  auto run = scenarios::build_backbone(small_spec(1));
  scenarios::execute(*run);
  const auto result = core::detect_loops(run->trace());
  std::size_t max_stream = 0;
  for (const auto& stream : result.valid_streams) {
    if (stream.dominant_ttl_delta() == 2) {
      max_stream = std::max(max_stream, stream.size());
    }
  }
  ASSERT_GT(max_stream, 0u);
  EXPECT_LE(max_stream, 64u + 2u);  // bounded by max initial TTL 128 / 2
}

TEST(Integration, GroundTruthEscapesMatchTraceEstimates) {
  auto spec = small_spec(1);
  spec.duration = 2 * net::kMinute;
  spec.bgp_events = 8;
  auto run = scenarios::build_backbone(spec);
  scenarios::execute(*run);

  // Ground truth: delivered packets that crossed a loop.
  std::uint64_t gt_escaped = 0, gt_looped = 0;
  for (const auto& fate : run->network->fates()) {
    if (fate.loop_crossings > 0) {
      ++gt_looped;
      if (fate.kind == sim::FateKind::delivered) ++gt_escaped;
    }
  }
  ASSERT_GT(gt_looped, 0u);

  const auto result = core::detect_loops(run->trace());
  const auto impact = core::estimate_impact(result);
  // The trace-side estimate cannot be exact (it sees one link), but both
  // must agree that escapes are a small minority.
  const double gt_fraction =
      static_cast<double>(gt_escaped) / static_cast<double>(gt_looped);
  EXPECT_LT(gt_fraction, 0.5);
  EXPECT_LT(impact.escape_fraction(), 0.5);
}

TEST(Integration, StatsAreConserved) {
  auto run = scenarios::build_backbone(small_spec(2));
  scenarios::execute(*run);
  const auto& stats = run->network->stats();
  // Every injected packet is accounted for exactly once: delivered, dropped,
  // or still in flight at the horizon (long-lived flows keep injecting past
  // the workload end).
  std::uint64_t in_flight = 0;
  for (const auto& fate : run->network->fates()) {
    if (fate.kind == sim::FateKind::in_flight) ++in_flight;
  }
  const auto accounted = stats.delivered + stats.total_dropped() + in_flight;
  EXPECT_EQ(accounted, stats.injected);
  // The overwhelming majority completed within the horizon.
  EXPECT_LT(in_flight, stats.injected / 20);
}

}  // namespace
}  // namespace rloop
