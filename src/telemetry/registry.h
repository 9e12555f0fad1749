// Process-wide metric registry.
//
// The Registry owns every metric, keyed by (name, sorted label set), and
// hands out stable raw pointers: instrumented code resolves each metric once
// (constructor / setup time, under a mutex) and then increments through the
// pointer with no lookup on the hot path. Re-registering the same
// (name, labels) returns the same pointer; registering the same identity
// under a different metric type throws.
//
// Null-registry mode: every layer in this repo takes a `Registry*` that
// defaults to nullptr. The null-tolerant resolve helpers at the bottom turn
// a null registry into null metric pointers, and the update helpers in
// counter.h turn null metric pointers into no-ops — so a build without
// telemetry attached pays one predictable branch per event and zero atomics.
#pragma once

#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/counter.h"
#include "telemetry/metric_types.h"

namespace rloop::telemetry {

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Each accessor registers on first use and returns the existing metric
  // afterwards. Thread-safe. Throws std::invalid_argument when the same
  // (name, labels) identity is already registered as a different type.
  Counter* counter(std::string_view name, LabelSet labels = {},
                   std::string_view help = "");
  Gauge* gauge(std::string_view name, LabelSet labels = {},
               std::string_view help = "");
  // `bounds` must be strictly increasing; ignored (the original histogram is
  // returned) when the identity already exists.
  Histogram* histogram(std::string_view name, std::vector<double> bounds,
                       LabelSet labels = {}, std::string_view help = "");

  // Point-in-time copy of every metric, sorted by (name, labels) so export
  // output is deterministic. Safe to call concurrently with registration
  // from other threads (both serialize on the registry mutex; Entry
  // addresses never move), so an HTTP exporter thread can snapshot while
  // the consumer thread registers a late metric — covered by the TSan
  // export-vs-register hammer in tests/test_registry_race.cc.
  std::vector<MetricSnapshot> snapshot() const;

  std::size_t size() const;

  // Monotonic count of successful new registrations. Unchanged generation
  // between two snapshots means the metric *set* is identical (values may
  // differ), which lets an exporter cache name/label rendering.
  std::uint64_t generation() const;

 private:
  struct Entry {
    MetricType type = MetricType::counter;
    std::string name;
    LabelSet labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, LabelSet& labels,
                        std::string_view help, MetricType type);

  mutable std::mutex mu_;
  // Keyed by name + rendered label set; std::map keeps snapshots sorted and
  // never invalidates Entry addresses (metrics live for the Registry's life).
  std::map<std::string, Entry> metrics_;
  std::uint64_t generation_ = 0;
};

// Label pairs as written at a resolve call site, e.g. {{"stage", "detect"}}.
// The helpers below copy them into a LabelSet only after the null check, so
// resolving a labelled metric without a registry allocates nothing.
using LabelRefs =
    std::initializer_list<std::pair<std::string_view, std::string_view>>;

namespace detail {
inline LabelSet to_label_set(LabelRefs labels) {
  LabelSet out;
  out.reserve(labels.size());
  for (const auto& [key, value] : labels) out.emplace_back(key, value);
  return out;
}
}  // namespace detail

// Null-tolerant resolve helpers, mirroring counter.h's update helpers.
inline Counter* get_counter(Registry* r, std::string_view name,
                            LabelRefs labels = {}, std::string_view help = "") {
  return r ? r->counter(name, detail::to_label_set(labels), help) : nullptr;
}
inline Gauge* get_gauge(Registry* r, std::string_view name,
                        LabelRefs labels = {}, std::string_view help = "") {
  return r ? r->gauge(name, detail::to_label_set(labels), help) : nullptr;
}
inline Histogram* get_histogram(Registry* r, std::string_view name,
                                const std::vector<double>& bounds,
                                LabelRefs labels = {},
                                std::string_view help = "") {
  return r ? r->histogram(name, bounds, detail::to_label_set(labels), help)
           : nullptr;
}

}  // namespace rloop::telemetry
