// Golden-trace regression pin: a small deterministic trace (committed as
// pcap under tests/golden/, generated by the backbone simulator + trafficgen
// with a fixed seed — see tests/golden/generate.cc) and the expected
// detection result as JSON. The pipeline — serial AND parallel — must
// reproduce the committed JSON byte-for-byte, so any refactor that changes
// detection output, stream ordering, or report formatting fails here
// instead of silently shifting every Table/Figure reproduction.
//
// If a change to detection semantics is INTENTIONAL, regenerate with the
// `golden_regen` target (see tests/golden/README.md) and commit the diff.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/loop_detector.h"
#include "core/report.h"
#include "json_lite.h"
#include "net/pcap.h"
#include "net/pcap_mmap.h"
#include "telemetry/decision_log.h"
#include "telemetry/trace.h"

namespace rloop {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(RLOOP_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

core::ReportOptions golden_report_options() {
  core::ReportOptions options;
  options.include_streams = true;
  options.trace_name = "golden";
  options.trace_epoch_unix_s = 0;
  return options;
}

TEST(GoldenTrace, SerialPipelineReproducesCommittedJson) {
  const auto trace = net::read_pcap_fast(golden_path("golden_trace.pcap"));
  ASSERT_GT(trace.size(), 0u);
  const auto result = core::detect_loops(trace);
  ASSERT_GT(result.loops.size(), 0u)
      << "golden trace must contain at least one loop to pin anything";
  EXPECT_EQ(core::json_report(result, golden_report_options()),
            read_file(golden_path("golden_expected.json")));
}

// Run-length compression of a reason sequence, so a 62-replica stream pins
// as one readable ("replica_accepted", 61) pair instead of 61 lines.
std::vector<std::pair<std::string, int>> compressed_reasons(
    const telemetry::DecisionLog& journal, const net::Prefix& prefix) {
  std::vector<std::pair<std::string, int>> out;
  for (const telemetry::DecisionKind kind : journal.reasons(prefix)) {
    const std::string name = telemetry::decision_reason(kind);
    if (!out.empty() && out.back().first == name) {
      ++out.back().second;
    } else {
      out.emplace_back(name, 1);
    }
  }
  return out;
}

// The full observability surface on the golden trace: spans export as valid
// Chrome trace-event JSON, the decision journal's causal chain for the
// merged-loop prefix is pinned, and both artifacts are written to the test's
// working directory (CI uploads them — see .github/workflows/ci.yml).
TEST(GoldenTrace, ObservabilitySpansAndDecisionJournal) {
  const auto trace = net::read_pcap_fast(golden_path("golden_trace.pcap"));
  ASSERT_GT(trace.size(), 0u);
  // 198.96.38.0/24 is the golden trace's merged loop: two 62-replica streams
  // ~3.4 s apart folded into one loop (see golden_expected.json).
  const auto prefix =
      net::Prefix::slash24(net::Ipv4Addr(198, 96, 38, 0));

  telemetry::TraceSink sink;
  telemetry::DecisionLog journal;
  core::LoopDetectorConfig config;
  config.trace = &sink;
  config.journal = &journal;
  const auto result = core::detect_loops(trace, config);
  ASSERT_EQ(result.loops.size(), 2u);

  // --- spans: structurally valid Chrome trace JSON with every stage, at one
  // thread and at four ------------------------------------------------------
  const std::string spans_json = sink.chrome_trace_json();
  telemetry::TraceSink parallel_sink;
  core::LoopDetectorConfig traced_parallel;
  traced_parallel.parallel.num_threads = 4;
  traced_parallel.trace = &parallel_sink;
  ASSERT_EQ(core::detect_loops(trace, traced_parallel).loops.size(), 2u);
  for (const telemetry::TraceSink* traced : {&sink, &parallel_sink}) {
    const std::string json = traced->chrome_trace_json();
    std::string error;
    EXPECT_TRUE(testing::is_valid_json(json, &error)) << error;
    EXPECT_EQ(traced->dropped(), 0u);
    for (const char* name :
         {"detect_loops", "parse", "detect", "validate", "merge"}) {
      EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
                std::string::npos)
          << name;
    }
  }

  // --- journal: pinned causal reason sequence for the merged loop ----------
  const std::vector<std::pair<std::string, int>> expected = {
      {"replica_accepted", 61}, {"stream_emitted", 1},
      {"validated", 1},         {"replica_accepted", 61},
      {"stream_emitted", 1},    {"validated", 1},
      {"merged", 1},            {"loop_emitted", 1}};
  EXPECT_EQ(compressed_reasons(journal, prefix), expected);

  const std::string chain = journal.explain(prefix);
  EXPECT_NE(chain.find("decision journal for 198.96.38.0/24"),
            std::string::npos)
      << chain;
  EXPECT_NE(chain.find("verdict: 1 loop(s) emitted, 0 stream(s) rejected"),
            std::string::npos)
      << chain;

  // --- the parallel pipeline journals the identical causal chain -----------
  telemetry::DecisionLog parallel_journal;
  core::LoopDetectorConfig parallel_config;
  parallel_config.parallel.num_threads = 4;
  parallel_config.parallel.shard_bits = 2;
  parallel_config.journal = &parallel_journal;
  (void)core::detect_loops(trace, parallel_config);
  EXPECT_EQ(parallel_journal.explain(prefix), chain);
  EXPECT_EQ(parallel_journal.dump(), journal.dump());

  // --- artifacts for CI upload (cwd is the test's build directory) ---------
  {
    std::ofstream out("golden_spans.json", std::ios::binary);
    ASSERT_TRUE(out.good());
    out << spans_json;
  }
  {
    std::ofstream out("golden_flight_recorder.txt", std::ios::binary);
    ASSERT_TRUE(out.good());
    out << journal.dump();
  }
}

TEST(GoldenTrace, ParallelPipelineReproducesCommittedJson) {
  const auto trace = net::read_pcap_fast(golden_path("golden_trace.pcap"));
  const auto expected = read_file(golden_path("golden_expected.json"));
  for (const unsigned threads : {2u, 4u}) {
    for (const unsigned bits : {1u, 4u}) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads) +
                   " shard_bits=" + std::to_string(bits));
      core::LoopDetectorConfig config;
      config.parallel.num_threads = threads;
      config.parallel.shard_bits = bits;
      const auto result = core::detect_loops(trace, config);
      EXPECT_EQ(core::json_report(result, golden_report_options()), expected);
    }
  }
}

}  // namespace
}  // namespace rloop
