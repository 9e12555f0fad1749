// Failpoint injection: deterministic fault sites compiled into the hot
// seams, free when compiled out.
//
// A failpoint is a named site — `if (RLOOP_FAILPOINT("daemon.ring.push"))` —
// where production code asks "should I fail here, on purpose?". In a normal
// build the macro expands to the literal `false` and the optimizer deletes
// the branch: the framework costs nothing unless the build defines
// RLOOP_FAILPOINTS (cmake -DRLOOP_FAILPOINTS=ON), which CI's crash-recovery
// job does and release builds never do.
//
// With failpoints compiled in, sites stay inert until armed at runtime,
// either programmatically (FailpointRegistry::arm) or through the
// RLOOP_FAILPOINTS_SPEC environment variable read at first use:
//
//   RLOOP_FAILPOINTS_SPEC='pcap.read=trip@nth:100;daemon.epoch=kill@nth:40'
//
// spec      := entry (';' entry)*
// entry     := name '=' 'off' | name '=' action ['@' trigger]
// action    := 'trip'               site-defined failure (error return,
//                                   bad_alloc, truncation — see the site)
//            | 'kill'               raise SIGKILL at the chosen instant:
//                                   the crash-recovery soak's hammer
// trigger   := 'always'             every evaluation (default)
//            | 'nth:' N             only the Nth evaluation (1-based)
//            | 'prob:' P            each evaluation with probability P,
//                                   from a fixed-seed splitmix64 stream so
//                                   runs are reproducible
//
// Every evaluation and trip is counted per site (hits()/trips()); the daemon
// exports trips as rloop_failpoint_trips_total{name=...} so an armed
// failpoint is visible in the same stats channel operators already scrape.
//
// The registered catalog (kept in sync with DESIGN.md §9):
//   daemon.ring.push      producer: the push is treated as failed (drop path)
//   daemon.ring.pop       consumer: the drained batch is discarded unseen
//   daemon.epoch          per-epoch anchor; no-op on trip (kill target)
//   daemon.config.reload  reload treated as an unreadable file
//   daemon.governor.degrade  injected overload: escalate straight to
//                            sample_suspects (the /readyz 503 drill)
//   daemon.checkpoint.write  checkpoint write fails (counted, state kept)
//   streaming.insert      on_packet throws std::bad_alloc before it
//                         changes any detector state
//   pcap.read             record read treated as a truncated capture (in
//                         parse_pcap_buffer, so on every ingest path)
//   pcap.mmap             mmap path reports failure; the input is read
//                         whole and parsed from memory instead
//   arena.alloc           Arena chunk growth throws std::bad_alloc (offline
//                         detection only; the daemon builds no Arena)
//   flat_map.grow         FlatMap rehash/growth throws std::bad_alloc
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rloop::util {

enum class FailpointAction : int { off = 0, trip = 1, kill = 2 };
enum class FailpointTrigger : int { always = 0, nth = 1, prob = 2 };

struct FailpointConfig {
  FailpointAction action = FailpointAction::off;
  FailpointTrigger trigger = FailpointTrigger::always;
  std::uint64_t nth = 1;  // 1-based evaluation index for trigger nth
  double probability = 1.0;
};

class FailpointSite {
 public:
  explicit FailpointSite(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t trips() const {
    return trips_.load(std::memory_order_relaxed);
  }

  // Arm/disarm are rare (test setup, env parse); evaluate() is the hot path
  // and reads only relaxed atomics.
  void arm(const FailpointConfig& cfg) {
    trigger_.store(static_cast<int>(cfg.trigger), std::memory_order_relaxed);
    nth_.store(cfg.nth, std::memory_order_relaxed);
    prob_scaled_.store(
        cfg.probability >= 1.0
            ? ~std::uint64_t{0}
            : static_cast<std::uint64_t>(cfg.probability * 1.8446744e19),
        std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
    // Action last: a concurrent evaluate() seeing the new action also sees
    // a fully-written trigger (single-writer arm; relaxed is enough for the
    // test/ops paths that arm).
    action_.store(static_cast<int>(cfg.action), std::memory_order_release);
  }
  void disarm() {
    action_.store(static_cast<int>(FailpointAction::off),
                  std::memory_order_release);
  }

  // True when the site should fail now. kill action never returns.
  bool evaluate() {
    const int action = action_.load(std::memory_order_acquire);
    if (action == static_cast<int>(FailpointAction::off)) return false;
    const std::uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fire = false;
    switch (static_cast<FailpointTrigger>(
        trigger_.load(std::memory_order_relaxed))) {
      case FailpointTrigger::always:
        fire = true;
        break;
      case FailpointTrigger::nth:
        fire = hit == nth_.load(std::memory_order_relaxed);
        break;
      case FailpointTrigger::prob:
        fire = next_random() < prob_scaled_.load(std::memory_order_relaxed);
        break;
    }
    if (!fire) return false;
    trips_.fetch_add(1, std::memory_order_relaxed);
    if (action == static_cast<int>(FailpointAction::kill)) {
#if defined(SIGKILL)
      std::raise(SIGKILL);
#endif
      std::abort();  // SIGKILL cannot be handled; abort is the fallback
    }
    return true;
  }

 private:
  // splitmix64 over an atomically bumped counter: thread-safe without locks
  // and reproducible (fixed seed) so prob-armed runs replay identically.
  std::uint64_t next_random() {
    std::uint64_t z =
        rng_.fetch_add(0x9E3779B97F4A7C15ULL, std::memory_order_relaxed) +
        0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::string name_;
  std::atomic<int> action_{static_cast<int>(FailpointAction::off)};
  std::atomic<int> trigger_{static_cast<int>(FailpointTrigger::always)};
  std::atomic<std::uint64_t> nth_{1};
  std::atomic<std::uint64_t> prob_scaled_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> trips_{0};
  std::atomic<std::uint64_t> rng_{0x8f1bbcdcbfa53e0bULL};
};

class FailpointRegistry {
 public:
  static FailpointRegistry& instance() {
    static FailpointRegistry registry;
    return registry;
  }

  // Find-or-create; the returned reference is stable for process lifetime
  // (sites are never removed), so call sites cache it in a function-local
  // static and pay the lock once.
  FailpointSite& site(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = sites_[name];
    if (!slot) slot = std::make_unique<FailpointSite>(name);
    return *slot;
  }

  // Parses one entry's right-hand side ("trip@nth:3", "kill", "off",
  // "trip@prob:0.01") and arms `name`. False + *error on bad syntax.
  bool arm(const std::string& name, const std::string& spec,
           std::string* error) {
    FailpointConfig cfg;
    if (!parse_spec(spec, cfg, error)) return false;
    site(name).arm(cfg);
    return true;
  }

  // Full spec string: "a=trip;b=kill@nth:40". Applied left to right;
  // stops at the first malformed entry.
  bool apply_spec(const std::string& spec, std::string* error) {
    std::size_t pos = 0;
    while (pos < spec.size()) {
      std::size_t end = spec.find(';', pos);
      if (end == std::string::npos) end = spec.size();
      const std::string entry = spec.substr(pos, end - pos);
      pos = end + 1;
      if (entry.empty()) continue;
      const auto eq = entry.find('=');
      if (eq == std::string::npos || eq == 0) {
        if (error) *error = "failpoint spec: expected name=action in '" +
                            entry + "'";
        return false;
      }
      if (!arm(entry.substr(0, eq), entry.substr(eq + 1), error)) return false;
    }
    return true;
  }

  void disarm_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, site] : sites_) site->disarm();
  }

  // (name, trips) for every site evaluated so far; trip counts feed the
  // rloop_failpoint_trips_total telemetry export.
  std::vector<std::pair<std::string, std::uint64_t>> trip_counts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(sites_.size());
    for (const auto& [name, site] : sites_) {
      out.emplace_back(name, site->trips());
    }
    return out;
  }

  static bool parse_spec(const std::string& spec, FailpointConfig& cfg,
                         std::string* error) {
    std::string action = spec;
    std::string trigger = "always";
    const auto at = spec.find('@');
    if (at != std::string::npos) {
      action = spec.substr(0, at);
      trigger = spec.substr(at + 1);
    }
    if (action == "off") {
      cfg.action = FailpointAction::off;
    } else if (action == "trip") {
      cfg.action = FailpointAction::trip;
    } else if (action == "kill") {
      cfg.action = FailpointAction::kill;
    } else {
      if (error) *error = "failpoint spec: unknown action '" + action + "'";
      return false;
    }
    if (trigger == "always") {
      cfg.trigger = FailpointTrigger::always;
    } else if (trigger.rfind("nth:", 0) == 0) {
      cfg.trigger = FailpointTrigger::nth;
      char* end = nullptr;
      cfg.nth = std::strtoull(trigger.c_str() + 4, &end, 10);
      if (end == trigger.c_str() + 4 || *end != '\0' || cfg.nth == 0) {
        if (error) *error = "failpoint spec: bad nth in '" + trigger + "'";
        return false;
      }
    } else if (trigger.rfind("prob:", 0) == 0) {
      cfg.trigger = FailpointTrigger::prob;
      char* end = nullptr;
      cfg.probability = std::strtod(trigger.c_str() + 5, &end);
      if (end == trigger.c_str() + 5 || *end != '\0' ||
          cfg.probability < 0.0 || cfg.probability > 1.0) {
        if (error) *error = "failpoint spec: bad prob in '" + trigger + "'";
        return false;
      }
    } else {
      if (error) *error = "failpoint spec: unknown trigger '" + trigger + "'";
      return false;
    }
    return true;
  }

 private:
  FailpointRegistry() {
    if (const char* env = std::getenv("RLOOP_FAILPOINTS_SPEC")) {
      std::string error;
      if (!apply_spec(env, &error)) {
        // A typo in the env var must not silently disable the injection a
        // test relies on; failing loudly here is the safer default.
        std::fprintf(stderr, "RLOOP_FAILPOINTS_SPEC: %s\n", error.c_str());
        std::abort();
      }
    }
  }

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<FailpointSite>> sites_;
};

}  // namespace rloop::util

#if defined(RLOOP_FAILPOINTS)
// Evaluates the named site; `name` must be a string literal. The function-
// local static caches the registry lookup, so a disarmed site costs one
// relaxed atomic load per evaluation.
#define RLOOP_FAILPOINT(name)                                       \
  ([]() -> bool {                                                   \
    static ::rloop::util::FailpointSite& rloop_fp_site_ =           \
        ::rloop::util::FailpointRegistry::instance().site(name);    \
    return rloop_fp_site_.evaluate();                               \
  }())
#else
#define RLOOP_FAILPOINT(name) false
#endif
