// Machine-readable export of detection results.
//
// Operators feed loop reports into tickets, dashboards and post-mortems;
// this module serializes a LoopDetectionResult as JSON (one self-contained
// document) or CSV (one row per loop / per stream). The JSON writer is
// deliberately minimal and dependency-free: flat structures, RFC 8259
// string escaping, no floating-point surprises (times are integer
// nanoseconds).
#pragma once

#include <iosfwd>
#include <string>

#include "core/loop_detector.h"

namespace rloop::core {

struct ReportOptions {
  // Include the per-stream array inside each loop object (larger output).
  bool include_streams = true;
  // Trace name / epoch recorded in the header object.
  std::string trace_name;
  std::int64_t trace_epoch_unix_s = 0;
};

// Writes the full result as a single JSON document.
void write_json_report(std::ostream& os, const LoopDetectionResult& result,
                       const ReportOptions& options = {});
std::string json_report(const LoopDetectionResult& result,
                        const ReportOptions& options = {});

// One CSV row per routing loop.
void write_loops_csv(std::ostream& os, const LoopDetectionResult& result);
// One CSV row per validated replica stream.
void write_streams_csv(std::ostream& os, const LoopDetectionResult& result);

}  // namespace rloop::core
