// Test helper: field-by-field equality assertions between two
// LoopDetectionResults. The parallel pipeline's contract is bit-identical
// output for every (num_threads, shard_bits); these helpers make a
// divergence fail loudly at the first differing field rather than at some
// downstream aggregate.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/loop_detector.h"

namespace rloop::testing {

inline void expect_equal_streams(const core::ReplicaStream& a,
                                 const core::ReplicaStream& b,
                                 const std::string& where) {
  EXPECT_TRUE(a.key == b.key) << where << ": replica key differs";
  EXPECT_EQ(a.dst, b.dst) << where;
  EXPECT_EQ(a.dst24, b.dst24) << where;
  ASSERT_EQ(a.replicas.size(), b.replicas.size()) << where;
  for (std::size_t r = 0; r < a.replicas.size(); ++r) {
    const auto& ra = a.replicas[r];
    const auto& rb = b.replicas[r];
    EXPECT_EQ(ra.record_index, rb.record_index)
        << where << " replica " << r;
    EXPECT_EQ(ra.ts, rb.ts) << where << " replica " << r;
    EXPECT_EQ(ra.ttl, rb.ttl) << where << " replica " << r;
  }
}

inline void expect_equal_stream_vectors(
    const std::vector<core::ReplicaStream>& a,
    const std::vector<core::ReplicaStream>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what << " count differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_equal_streams(a[i], b[i], what + "[" + std::to_string(i) + "]");
  }
}

inline void expect_equal_loops(const std::vector<core::RoutingLoop>& a,
                               const std::vector<core::RoutingLoop>& b) {
  ASSERT_EQ(a.size(), b.size()) << "loop count differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string where = "loop[" + std::to_string(i) + "]";
    EXPECT_EQ(a[i].prefix24, b[i].prefix24) << where;
    EXPECT_EQ(a[i].start, b[i].start) << where;
    EXPECT_EQ(a[i].end, b[i].end) << where;
    EXPECT_EQ(a[i].stream_indices, b[i].stream_indices) << where;
    EXPECT_EQ(a[i].replica_count, b[i].replica_count) << where;
    EXPECT_EQ(a[i].ttl_delta, b[i].ttl_delta) << where;
  }
}

inline void expect_equal_results(const core::LoopDetectionResult& a,
                                 const core::LoopDetectionResult& b) {
  EXPECT_EQ(a.total_records, b.total_records);
  EXPECT_EQ(a.parse_failures, b.parse_failures);
  expect_equal_stream_vectors(a.raw_streams, b.raw_streams, "raw_streams");
  expect_equal_stream_vectors(a.valid_streams, b.valid_streams,
                              "valid_streams");
  expect_equal_loops(a.loops, b.loops);
  EXPECT_EQ(a.validation.input_streams, b.validation.input_streams);
  EXPECT_EQ(a.validation.rejected_too_small, b.validation.rejected_too_small);
  EXPECT_EQ(a.validation.rejected_prefix_conflict,
            b.validation.rejected_prefix_conflict);
  EXPECT_EQ(a.validation.accepted, b.validation.accepted);
}

}  // namespace rloop::testing
