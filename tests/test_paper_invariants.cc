// Reproduction regression suite: the paper's headline SHAPES, asserted
// against the committed scenario seeds. If a refactor of the simulator,
// traffic generator or detector silently changes what the benches report,
// these tests fail before the bench output does.
//
// Each backbone is simulated once per process (shared fixture); the whole
// file costs roughly one backbone_study run.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/impact.h"
#include "core/loop_detector.h"
#include "core/metrics.h"
#include "scenarios/backbone.h"

namespace rloop {
namespace {

struct BackboneData {
  std::unique_ptr<scenarios::BackboneRun> run;
  core::LoopDetectionResult result;
};

const BackboneData& data(int k) {
  static std::map<int, BackboneData> cache;
  auto it = cache.find(k);
  if (it == cache.end()) {
    BackboneData d;
    d.run = scenarios::run_backbone(k);
    d.result = core::detect_loops(d.run->trace());
    it = cache.emplace(k, std::move(d)).first;
  }
  return it->second;
}

TEST(PaperInvariants, TableI_TrafficVolumes) {
  // B2 is the busy link; loops are rare everywhere (< 10 % of packets).
  const auto& b1 = data(1);
  const auto& b2 = data(2);
  EXPECT_GT(b2.run->trace().size(), 2 * b1.run->trace().size());
  for (int k = 1; k <= 4; ++k) {
    const auto& d = data(k);
    ASSERT_GT(d.run->trace().size(), 100'000u) << "backbone " << k;
    const double looped_fraction =
        static_cast<double>(d.result.looped_packet_records()) /
        static_cast<double>(d.run->trace().size());
    EXPECT_LT(looped_fraction, 0.10) << "backbone " << k;
  }
  // B1's looped fraction exceeds B2's (B2 is busier, loops similar).
  const double f1 = static_cast<double>(b1.result.looped_packet_records()) /
                    static_cast<double>(b1.run->trace().size());
  const double f2 = static_cast<double>(b2.result.looped_packet_records()) /
                    static_cast<double>(b2.run->trace().size());
  EXPECT_GT(f1, f2);
}

TEST(PaperInvariants, TableII_StreamsMergeIntoFewLoops) {
  for (int k : {1, 2, 4}) {
    const auto& d = data(k);
    ASSERT_GT(d.result.valid_streams.size(), 20u) << "backbone " << k;
    ASSERT_GT(d.result.loops.size(), 3u) << "backbone " << k;
    EXPECT_GT(d.result.valid_streams.size(), 3 * d.result.loops.size())
        << "backbone " << k;
  }
}

TEST(PaperInvariants, Fig2_TtlDeltaShapes) {
  // B1-B3: delta 2 dominates outright.
  for (int k : {1, 2, 3}) {
    const auto hist = core::ttl_delta_distribution(data(k).result.valid_streams);
    ASSERT_GT(hist.total(), 0u) << "backbone " << k;
    EXPECT_GT(hist.fraction(2), 0.9) << "backbone " << k;
  }
  // B4: delta 2 majority with a substantial delta-3 minority.
  const auto hist4 = core::ttl_delta_distribution(data(4).result.valid_streams);
  EXPECT_GT(hist4.fraction(2), hist4.fraction(3));
  EXPECT_GT(hist4.fraction(3), 0.15);
  EXPECT_LT(hist4.fraction(3), 0.60);
}

TEST(PaperInvariants, Fig3_ReplicaCountSteps) {
  // Steps from initial TTLs 64/128 in delta-2 loops: a run of sizes at
  // ~29-32 and, where 128-TTL packets looped, at ~60-64.
  const auto cdf = core::stream_size_cdf(data(1).result.valid_streams);
  ASSERT_FALSE(cdf.empty());
  const double step64 =
      cdf.fraction_at_or_below(32.5) - cdf.fraction_at_or_below(28.5);
  EXPECT_GT(step64, 0.2) << "no TTL-64 step";
  const double step128 =
      cdf.fraction_at_or_below(64.5) - cdf.fraction_at_or_below(59.5);
  EXPECT_GT(step128, 0.1) << "no TTL-128 step";
}

TEST(PaperInvariants, Fig4_SpacingUnder8msOnShortHaulLinks) {
  for (int k : {1, 2}) {
    const auto cdf = core::spacing_cdf_ms(data(k).result.valid_streams);
    ASSERT_FALSE(cdf.empty()) << "backbone " << k;
    EXPECT_GT(cdf.fraction_at_or_below(8.0), 0.9) << "backbone " << k;
  }
  // Long-haul B4 sits wider than B1.
  const auto b1 = core::spacing_cdf_ms(data(1).result.valid_streams);
  const auto b4 = core::spacing_cdf_ms(data(4).result.valid_streams);
  EXPECT_GT(b4.quantile(0.5), b1.quantile(0.5));
}

TEST(PaperInvariants, Fig5_TrafficMix) {
  for (int k = 1; k <= 4; ++k) {
    const auto mix = core::traffic_type_mix(data(k).run->trace());
    EXPECT_GT(mix.fraction("TCP"), 0.80) << "backbone " << k;
    EXPECT_GT(mix.fraction("UDP"), 0.04) << "backbone " << k;
    EXPECT_LT(mix.fraction("UDP"), 0.20) << "backbone " << k;
    EXPECT_LT(mix.fraction("SYN"), 0.10) << "backbone " << k;
    EXPECT_GT(mix.fraction("ICMP"), 0.0) << "backbone " << k;
  }
}

TEST(PaperInvariants, Fig6_LoopedSynOverRepresentation) {
  // Aggregate across the busy traces: looped SYN share well above the
  // all-traffic SYN share.
  double looped_syn = 0, all_syn = 0;
  int counted = 0;
  for (int k : {1, 2}) {
    const auto& d = data(k);
    const auto all = core::traffic_type_mix(d.run->trace());
    const auto looped =
        core::looped_type_mix(d.run->trace(), d.result.valid_streams);
    if (looped.total() == 0) continue;
    looped_syn += looped.fraction("SYN");
    all_syn += all.fraction("SYN");
    ++counted;
  }
  ASSERT_GT(counted, 0);
  EXPECT_GT(looped_syn, 2.0 * all_syn);
}

TEST(PaperInvariants, Fig9_LoopDurations) {
  // B3/B4: >= 85 % of loops under 10 s. B1: a real tail beyond 10 s.
  for (int k : {3, 4}) {
    const auto cdf = core::loop_duration_cdf_s(data(k).result.loops);
    ASSERT_FALSE(cdf.empty()) << "backbone " << k;
    EXPECT_GE(cdf.fraction_at_or_below(10.0), 0.85) << "backbone " << k;
  }
  const auto b1 = core::loop_duration_cdf_s(data(1).result.loops);
  ASSERT_FALSE(b1.empty());
  EXPECT_LT(b1.fraction_at_or_below(10.0), 0.9);
  EXPECT_GT(b1.max(), 20.0);
}

TEST(PaperInvariants, SectionVI_EscapesAreMinoritySomeExist) {
  std::uint64_t escaped = 0, looped = 0;
  for (int k : {1, 2, 4}) {
    for (const auto& fate : data(k).run->network->fates()) {
      if (fate.loop_crossings > 0) {
        ++looped;
        if (fate.kind == sim::FateKind::delivered) ++escaped;
      }
    }
  }
  ASSERT_GT(looped, 0u);
  const double fraction =
      static_cast<double>(escaped) / static_cast<double>(looped);
  EXPECT_GT(fraction, 0.0005);
  EXPECT_LT(fraction, 0.25);
}

TEST(PaperInvariants, DetectionIsSoundEverywhere) {
  // Precision guard: every reported loop corresponds to ground truth.
  for (int k = 1; k <= 4; ++k) {
    const auto& d = data(k);
    const auto truth = d.run->truth_loops();
    for (const auto& loop : d.result.loops) {
      bool matched = false;
      for (const auto& t : truth) {
        if (t.prefix24 == loop.prefix24 &&
            t.start - 2 * net::kSecond <= loop.end &&
            loop.start - 2 * net::kSecond <= t.end) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "backbone " << k << " false positive on "
                           << loop.prefix24.to_string();
    }
  }
}

}  // namespace
}  // namespace rloop
