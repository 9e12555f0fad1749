#include "core/report.h"

#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/exporter.h"
#include "trace_builder.h"

namespace rloop::core {
namespace {

using net::Ipv4Addr;
using telemetry::json_escape;
using rloop::testing::TraceBuilder;

LoopDetectionResult sample_result() {
  TraceBuilder builder;
  builder.replica_stream(1000, Ipv4Addr(203, 0, 113, 10), 60, 7, 5, 2,
                         net::kMillisecond);
  builder.replica_stream(net::kSecond, Ipv4Addr(198, 18, 0, 9), 64, 8, 4, 3,
                         2 * net::kMillisecond);
  return detect_loops(builder.trace());
}

TEST(JsonEscape, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape("cr\r\x1f"), "cr\\r\\u001f");
}

TEST(JsonReport, ContainsSummaryAndLoops) {
  const auto result = sample_result();
  ReportOptions options;
  options.trace_name = "link \"7\"";
  options.trace_epoch_unix_s = 1'005'224'400;
  const auto json = json_report(result, options);

  EXPECT_NE(json.find("\"name\":\"link \\\"7\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_unix_s\":1005224400"), std::string::npos);
  EXPECT_NE(json.find("\"loops\":"), std::string::npos);
  EXPECT_NE(json.find("\"prefix\":\"203.0.113.0/24\""), std::string::npos);
  EXPECT_NE(json.find("\"ttl_delta\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ttl_delta\":3"), std::string::npos);
  EXPECT_NE(json.find("\"streams\":["), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(JsonReport, StreamsCanBeOmitted) {
  const auto result = sample_result();
  ReportOptions options;
  options.include_streams = false;
  const auto json = json_report(result, options);
  EXPECT_EQ(json.find("\"streams\":["), std::string::npos);
  EXPECT_NE(json.find("\"stream_count\":1"), std::string::npos);
}

TEST(JsonReport, EmptyResultIsValid) {
  net::Trace trace("empty", 0);
  const auto json = json_report(detect_loops(trace));
  EXPECT_NE(json.find("\"loops\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"records\":0"), std::string::npos);
}

TEST(LoopsCsv, OneRowPerLoopPlusHeader) {
  const auto result = sample_result();
  std::ostringstream os;
  write_loops_csv(os, result);
  const auto text = os.str();
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), result.loops.size() + 1);
  EXPECT_NE(text.find("prefix,start_ns"), std::string::npos);
  EXPECT_NE(text.find("203.0.113.0/24,"), std::string::npos);
}

TEST(StreamsCsv, OneRowPerStreamPlusHeader) {
  const auto result = sample_result();
  std::ostringstream os;
  write_streams_csv(os, result);
  const auto text = os.str();
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), result.valid_streams.size() + 1);
  EXPECT_NE(text.find("203.0.113.10,"), std::string::npos);
  EXPECT_NE(text.find("198.18.0.9,"), std::string::npos);
}

}  // namespace
}  // namespace rloop::core
