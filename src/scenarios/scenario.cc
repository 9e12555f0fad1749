#include "scenarios/scenario.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "telemetry/exporter.h"

namespace rloop::scenarios {

using telemetry::json_escape;

namespace {
constexpr net::TimeNs kS = net::kSecond;

// The focus (flash-crowd / DDoS victim) prefix rank: the first rank inside
// the spec's withdrawable band at or past the pool's first quartile. Mirrors
// the eligibility rule in build_backbone (side-B egress with fallback,
// mid-popularity band) so the rank is known *before* the pool exists — the
// workload's RatePhases need it at construction time.
std::size_t focus_rank_for(const BackboneSpec& base) {
  const auto n = static_cast<double>(base.dst_prefix_count);
  const auto lo = static_cast<std::size_t>(base.withdraw_rank_lo * n);
  const auto hi = static_cast<std::size_t>(base.withdraw_rank_hi * n);
  for (std::size_t i = std::max(lo, base.dst_prefix_count / 4); i < hi; ++i) {
    if (i % 10 < 7) return i;
  }
  throw std::logic_error("focus_rank_for: empty withdrawable band");
}

bool intervals_overlap(net::TimeNs a_start, net::TimeNs a_end,
                       net::TimeNs b_start, net::TimeNs b_end,
                       net::TimeNs slack) {
  return a_start <= b_end + slack && b_start <= a_end + slack;
}

// detectable[i]: truth[i] satisfies the paper's own evidence rules at the
// tap — some packet crossed >= min_crossings times inside the interval
// (expanded by slack), AND that packet's replica window is not refuted by a
// healthy same-prefix packet (one crossing only) inside it. The second
// condition matters for IGP loops: a local flap loop does not black-hole
// the whole /24 (traffic from other ingresses still crosses the tap
// cleanly), and validation step 2 rightly rejects such streams, so ground
// truth must not count them against recall.
std::vector<char> detectable_flags(
    const std::vector<baseline::TruthLoop>& truth,
    const std::vector<sim::LoopCrossing>& crossings,
    const TruthPolicy& policy) {
  std::unordered_map<net::Prefix, std::vector<const sim::LoopCrossing*>>
      by_prefix;
  for (const auto& c : crossings) by_prefix[c.dst_prefix24].push_back(&c);

  // A packet's crossings all share its dst /24, so per-prefix totals give
  // each packet's full crossing count in this view.
  std::unordered_map<std::uint64_t, std::uint64_t> total_by_packet;
  for (const auto& c : crossings) ++total_by_packet[c.packet_id];

  std::vector<char> out(truth.size(), 0);
  std::unordered_map<std::uint64_t, std::uint64_t> in_window;
  std::unordered_map<std::uint64_t, std::pair<net::TimeNs, net::TimeNs>> span;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const auto it = by_prefix.find(truth[i].prefix24);
    if (it == by_prefix.end()) continue;
    const net::TimeNs lo = truth[i].start - policy.slack;
    const net::TimeNs hi = truth[i].end + policy.slack;
    in_window.clear();
    span.clear();
    for (const sim::LoopCrossing* c : it->second) {
      if (c->time < lo || c->time > hi) continue;
      const auto [at, inserted] =
          span.try_emplace(c->packet_id, c->time, c->time);
      if (!inserted) {
        at->second.first = std::min(at->second.first, c->time);
        at->second.second = std::max(at->second.second, c->time);
      }
      ++in_window[c->packet_id];
    }
    for (const auto& [packet, count] : in_window) {
      if (count < policy.min_crossings) continue;
      const auto [first, last] = span[packet];
      bool refuted = false;
      for (const sim::LoopCrossing* c : it->second) {
        if (c->time >= first && c->time <= last && c->packet_id != packet &&
            total_by_packet[c->packet_id] == 1) {
          refuted = true;
          break;
        }
      }
      if (!refuted) {
        out[i] = 1;
        break;
      }
    }
  }
  return out;
}

template <typename Report, typename Matcher>
ScenarioScore score_reports(const ScenarioRun& run,
                            const std::vector<sim::LoopCrossing>& crossings,
                            const std::vector<Report>& reports,
                            Matcher&& matches) {
  const auto truth = run.truth();
  const auto detectable = detectable_flags(truth, crossings, run.spec.truth);

  ScenarioScore score;
  score.truth_loops = truth.size();
  score.reports = reports.size();
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (!detectable[i]) continue;
    ++score.detectable;
    for (const Report& r : reports) {
      if (matches(truth[i], r)) {
        ++score.detected;
        break;
      }
    }
  }
  for (const Report& r : reports) {
    bool any = false;
    for (const auto& t : truth) {
      if (matches(t, r)) {
        any = true;
        break;
      }
    }
    if (!any) ++score.unmatched_reports;
  }
  return score;
}

std::string format_ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}
}  // namespace

const char* phase_kind_name(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::idle:
      return "idle";
    case PhaseKind::burst:
      return "burst";
    case PhaseKind::ramp:
      return "ramp";
    case PhaseKind::flap:
      return "flap";
  }
  return "?";
}

net::TimeNs ScenarioSpec::duration() const {
  net::TimeNs total = 0;
  for (const auto& p : phases) total += p.duration;
  return total;
}

std::unique_ptr<ScenarioRun> run_scenario(const ScenarioSpec& spec,
                                          telemetry::Registry* registry) {
  if (spec.phases.empty()) {
    throw std::invalid_argument("run_scenario: spec has no phases");
  }
  if (spec.bidirectional && (spec.drop_probability > 0 || spec.jitter > 0)) {
    throw std::invalid_argument(
        "run_scenario: bidirectional + post-capture stress unsupported "
        "(record->crossing correspondence needs a single tap)");
  }

  auto run = std::make_unique<ScenarioRun>();
  run->spec = spec;

  BackboneSpec base = backbone_spec(spec.backbone);
  if (spec.misconfig && base.transit_chain) {
    throw std::invalid_argument(
        "run_scenario: misconfig needs the tap's far end to be Y "
        "(backbones 1..3)");
  }
  base.name = spec.name;
  base.seed = util::derive_seed(spec.seed, "network");
  base.workload_seed = util::derive_seed(spec.seed, "workload");
  base.flows_per_second = spec.flows_per_second;
  base.duration = spec.duration();
  // The scenario's phases own all failure scheduling; the stock per-backbone
  // event mix is disabled.
  base.igp_events = 0;
  base.bgp_events = 0;

  const bool has_focus =
      std::any_of(spec.phases.begin(), spec.phases.end(),
                  [](const ScenarioPhase& p) { return p.focus_fraction > 0; });
  const std::size_t focus = has_focus ? focus_rank_for(base) : 0;

  net::TimeNs at = 0;
  for (const ScenarioPhase& phase : spec.phases) {
    trafficgen::RatePhase rp;
    rp.start = at;
    rp.end = at + phase.duration;
    rp.mult_begin = phase.rate;
    rp.mult_end = phase.kind == PhaseKind::ramp ? phase.rate_end : phase.rate;
    rp.focus_fraction = phase.focus_fraction;
    rp.focus_rank = focus;
    base.phases.push_back(rp);
    at += phase.duration;
  }

  run->backbone = build_backbone(base, registry);
  BackboneRun& bb = *run->backbone;
  sim::Network& network = *bb.network;

  const routing::NodeId reverse_from =
      network.topology().link(bb.nodes.tap_link).other(bb.nodes.x);
  if (spec.bidirectional) {
    run->reverse_tap = network.add_tap(bb.nodes.tap_link, reverse_from,
                                       spec.name + " (reverse)",
                                       base.epoch_unix_s);
  }

  // Phase-confined failure schedule, one derived RNG stream for all of it.
  util::Rng failure_rng(util::derive_seed(spec.seed, "failures"));
  sim::FailurePlan plan;
  at = 0;
  for (const ScenarioPhase& phase : spec.phases) {
    if (phase.flap_events > 0) {
      sim::FailurePlanConfig cfg;
      cfg.candidate_links = bb.nodes.flap_candidates;
      cfg.link_event_count = phase.flap_events;
      cfg.outage_mean = phase.flap_outage_mean;
      cfg.start = at;
      cfg.horizon = at + phase.duration;
      const auto sub = sim::make_failure_plan(cfg, failure_rng);
      plan.link_events.insert(plan.link_events.end(), sub.link_events.begin(),
                              sub.link_events.end());
    }
    if (phase.withdraw_events > 0) {
      sim::FailurePlanConfig cfg;
      cfg.candidate_prefixes = bb.withdrawable;
      cfg.bgp_event_count = phase.withdraw_events;
      cfg.bgp_outage_mean = phase.withdraw_outage_mean;
      cfg.bgp_batch_mean = 1.0;
      cfg.start = at;
      cfg.horizon = at + phase.duration;
      const auto sub = sim::make_failure_plan(cfg, failure_rng);
      plan.bgp_events.insert(plan.bgp_events.end(), sub.bgp_events.begin(),
                             sub.bgp_events.end());
    }
    at += phase.duration;
  }

  if (spec.focus_withdraw) {
    if (!has_focus) {
      throw std::invalid_argument(
          "run_scenario: focus_withdraw without a focused phase");
    }
    net::TimeNs t0 = 0;
    for (const ScenarioPhase& phase : spec.phases) {
      if (phase.focus_fraction > 0) {
        sim::BgpEvent ev;
        ev.prefix = bb.destinations->prefixes()[focus];
        ev.withdraw_at = t0 + phase.duration / 4;
        ev.reannounce_at = t0 + phase.duration;
        plan.bgp_events.push_back(ev);
        break;
      }
      t0 += phase.duration;
    }
  }
  plan.apply(network);
  bb.plan = std::move(plan);

  if (spec.misconfig) {
    if (bb.withdrawable.empty()) {
      throw std::logic_error("run_scenario: no misconfig victim available");
    }
    const net::Prefix victim = bb.withdrawable.front();
    network.inject_misconfiguration(victim, bb.nodes.y, bb.nodes.tap_link,
                                    spec.misconfig_at);
    if (spec.misconfig_clear >= 0) {
      network.clear_misconfiguration(victim, bb.nodes.y, spec.misconfig_clear);
    }
  }

  execute(bb);

  // Effective crossings for the analysis view. tap_crossings() is one global
  // log across taps; the transmitting node attributes each entry to a
  // direction (forward entries transmit at X).
  const auto& all = network.tap_crossings();
  if (spec.drop_probability > 0 || spec.jitter > 0) {
    const net::Trace& tap = bb.trace();
    if (all.size() != tap.size()) {
      throw std::logic_error(
          "run_scenario: tap crossing log out of step with the trace "
          "(crossing cap exceeded?)");
    }
    util::Rng stress_rng(util::derive_seed(spec.seed, "stress"));
    struct Kept {
      net::TimeNs ts;
      std::size_t idx;
    };
    std::vector<Kept> kept;
    kept.reserve(tap.size());
    for (std::size_t i = 0; i < tap.size(); ++i) {
      if (spec.drop_probability > 0 &&
          stress_rng.bernoulli(spec.drop_probability)) {
        continue;
      }
      net::TimeNs ts = tap[i].ts;
      if (spec.jitter > 0) {
        ts = std::max<net::TimeNs>(
            0, ts + stress_rng.uniform_int(-spec.jitter, spec.jitter));
      }
      kept.push_back({ts, i});
    }
    std::stable_sort(kept.begin(), kept.end(),
                     [](const Kept& a, const Kept& b) { return a.ts < b.ts; });
    net::Trace stressed(spec.name + " (stressed)", tap.epoch_unix_s());
    run->crossings.reserve(kept.size());
    for (const Kept& k : kept) {
      stressed.add(k.ts, tap[k.idx].bytes(), tap[k.idx].wire_len);
      // Original capture times: detectability windows stay aligned with the
      // truth intervals, which jitter does not move.
      run->crossings.push_back(all[k.idx]);
    }
    run->derived = std::move(stressed);
  } else {
    for (const auto& c : all) {
      if (c.node == bb.nodes.x) {
        run->crossings.push_back(c);
      } else if (spec.bidirectional && c.node == reverse_from) {
        run->reverse_crossings.push_back(c);
      }
    }
  }
  return run;
}

// --- canned scenarios -------------------------------------------------------

namespace {
ScenarioSpec make_loop_free_control() {
  ScenarioSpec s;
  s.name = "loop_free_control";
  s.summary =
      "busy link, 3x burst, zero failures: every path must stay silent";
  s.seed = 1001;
  s.backbone = 2;
  s.flows_per_second = 80.0;
  s.phases = {{.kind = PhaseKind::idle, .duration = 15 * kS},
              {.kind = PhaseKind::burst, .duration = 15 * kS, .rate = 3.0},
              {.kind = PhaseKind::idle, .duration = 10 * kS}};
  s.truth.expect_loops = false;
  return s;
}

ScenarioSpec make_flash_crowd() {
  ScenarioSpec s;
  s.name = "flash_crowd";
  s.summary =
      "5x ramp onto one hot prefix while egresses withdraw mid-surge";
  s.seed = 1002;
  s.backbone = 1;
  s.flows_per_second = 60.0;
  s.phases = {
      {.kind = PhaseKind::idle, .duration = 15 * kS, .rate = 0.7},
      {.kind = PhaseKind::ramp,
       .duration = 25 * kS,
       .rate = 0.7,
       .rate_end = 5.0,
       .withdraw_events = 2,
       .withdraw_outage_mean = 25 * kS},
      {.kind = PhaseKind::burst,
       .duration = 15 * kS,
       .rate = 5.0,
       .focus_fraction = 0.35,
       .withdraw_events = 2,
       .withdraw_outage_mean = 20 * kS},
      {.kind = PhaseKind::ramp, .duration = 10 * kS, .rate = 5.0,
       .rate_end = 1.0},
      {.kind = PhaseKind::idle, .duration = 10 * kS}};
  return s;
}

ScenarioSpec make_ddos_burst() {
  ScenarioSpec s;
  s.name = "ddos_burst";
  s.summary =
      "single-prefix DDoS at 4x rate; the victim's egress withdraws "
      "under the blast";
  s.seed = 1003;
  s.backbone = 2;
  s.flows_per_second = 70.0;
  s.phases = {{.kind = PhaseKind::idle, .duration = 15 * kS},
              {.kind = PhaseKind::burst,
               .duration = 25 * kS,
               .rate = 4.0,
               .focus_fraction = 0.45,
               .withdraw_events = 2,
               .withdraw_outage_mean = 15 * kS},
              {.kind = PhaseKind::idle, .duration = 15 * kS}};
  s.focus_withdraw = true;
  return s;
}

ScenarioSpec make_link_flap_storm() {
  ScenarioSpec s;
  s.name = "link_flap_storm";
  s.summary = "two IGP flap storms on the quiet long-haul backbone";
  // Most flap draws hit links whose loss converges without looping; this
  // seed/event-count pair lands flaps on the cost-1 primaries and produces
  // a rich IGP loop population (the interesting case for the gates).
  s.seed = 99;
  s.backbone = 3;
  s.flows_per_second = 60.0;
  s.phases = {{.kind = PhaseKind::idle, .duration = 10 * kS},
              {.kind = PhaseKind::flap,
               .duration = 25 * kS,
               .flap_events = 12,
               .flap_outage_mean = 2500 * net::kMillisecond},
              {.kind = PhaseKind::idle, .duration = 8 * kS},
              {.kind = PhaseKind::flap,
               .duration = 18 * kS,
               .rate = 1.2,
               .flap_events = 10,
               .flap_outage_mean = 1500 * net::kMillisecond},
              {.kind = PhaseKind::idle, .duration = 12 * kS}};
  return s;
}

ScenarioSpec make_persistent_vs_transient() {
  ScenarioSpec s;
  s.name = "persistent_vs_transient";
  s.summary =
      "70 s misconfiguration loop (paper's persistent cause) over "
      "ordinary withdrawal transients";
  s.seed = 1005;
  s.backbone = 1;
  s.flows_per_second = 55.0;
  s.phases = {{.kind = PhaseKind::idle,
               .duration = 25 * kS,
               .withdraw_events = 1,
               .withdraw_outage_mean = 20 * kS},
              {.kind = PhaseKind::idle,
               .duration = 50 * kS,
               .withdraw_events = 2,
               .withdraw_outage_mean = 20 * kS},
              {.kind = PhaseKind::idle, .duration = 25 * kS}};
  s.misconfig = true;
  s.misconfig_at = 15 * kS;
  s.misconfig_clear = 85 * kS;
  return s;
}

ScenarioSpec make_multi_failure_convergence() {
  ScenarioSpec s;
  s.name = "multi_failure_convergence";
  s.summary =
      "simultaneous IGP flaps and BGP withdrawals on the transit-chain "
      "backbone (2- and 3-router loops)";
  s.seed = 1006;
  s.backbone = 4;
  s.flows_per_second = 70.0;
  s.phases = {{.kind = PhaseKind::idle, .duration = 12 * kS},
              {.kind = PhaseKind::flap,
               .duration = 30 * kS,
               .flap_events = 3,
               .flap_outage_mean = 2500 * net::kMillisecond,
               .withdraw_events = 5,
               .withdraw_outage_mean = 18 * kS},
              {.kind = PhaseKind::idle, .duration = 18 * kS}};
  return s;
}

ScenarioSpec make_asymmetric_bidir() {
  ScenarioSpec s;
  s.name = "asymmetric_bidir";
  s.summary =
      "both artery directions tapped; forward and reverse monitors must "
      "each find every loop their direction exposes";
  s.seed = 1007;
  s.backbone = 1;
  s.flows_per_second = 65.0;
  s.phases = {{.kind = PhaseKind::idle, .duration = 12 * kS},
              {.kind = PhaseKind::idle,
               .duration = 30 * kS,
               .withdraw_events = 4,
               .withdraw_outage_mean = 15 * kS},
              {.kind = PhaseKind::idle, .duration = 13 * kS}};
  s.bidirectional = true;
  return s;
}

ScenarioSpec make_reorder_loss_stress() {
  ScenarioSpec s;
  s.name = "reorder_loss_stress";
  s.summary =
      "8% capture loss + 0.5 ms timestamp jitter; recall judged on the "
      "surviving crossings";
  s.seed = 1008;
  s.backbone = 1;
  s.flows_per_second = 65.0;
  s.phases = {{.kind = PhaseKind::idle, .duration = 12 * kS},
              {.kind = PhaseKind::burst,
               .duration = 30 * kS,
               .rate = 1.6,
               .withdraw_events = 4,
               .withdraw_outage_mean = 15 * kS},
              {.kind = PhaseKind::idle, .duration = 13 * kS}};
  s.drop_probability = 0.08;
  s.jitter = 500'000;  // 0.5 ms, under half the 2 ms loop turn time
  return s;
}
}  // namespace

const std::vector<std::string>& canned_scenario_names() {
  static const std::vector<std::string> names = {
      "loop_free_control",      "flash_crowd",
      "ddos_burst",             "link_flap_storm",
      "persistent_vs_transient", "multi_failure_convergence",
      "asymmetric_bidir",       "reorder_loss_stress"};
  return names;
}

ScenarioSpec canned_scenario(const std::string& name) {
  if (name == "loop_free_control") return make_loop_free_control();
  if (name == "flash_crowd") return make_flash_crowd();
  if (name == "ddos_burst") return make_ddos_burst();
  if (name == "link_flap_storm") return make_link_flap_storm();
  if (name == "persistent_vs_transient") return make_persistent_vs_transient();
  if (name == "multi_failure_convergence") {
    return make_multi_failure_convergence();
  }
  if (name == "asymmetric_bidir") return make_asymmetric_bidir();
  if (name == "reorder_loss_stress") return make_reorder_loss_stress();
  throw std::invalid_argument("canned_scenario: unknown scenario " + name);
}

// --- scoring ----------------------------------------------------------------

std::string render_loop(const core::RoutingLoop& loop) {
  std::ostringstream out;
  out << loop.prefix24.to_string() << " start=" << loop.start
      << " end=" << loop.end << " replicas=" << loop.replica_count
      << " delta=" << loop.ttl_delta << " streams=" << loop.stream_count();
  return out.str();
}

std::string render_alert(const core::LoopAlert& alert) {
  std::ostringstream out;
  out << alert.prefix24.to_string() << " first=" << alert.first_seen
      << " raised=" << alert.raised_at << " replicas=" << alert.replicas
      << " delta=" << alert.ttl_delta;
  return out.str();
}

ScenarioScore score_offline(const ScenarioRun& run,
                            const std::vector<sim::LoopCrossing>& crossings,
                            const std::vector<core::RoutingLoop>& loops) {
  const net::TimeNs slack = run.spec.truth.slack;
  return score_reports(
      run, crossings, loops,
      [slack](const baseline::TruthLoop& t, const core::RoutingLoop& r) {
        return t.prefix24 == r.prefix24 &&
               intervals_overlap(t.start, t.end, r.start, r.end, slack);
      });
}

ScenarioScore score_streaming(const ScenarioRun& run,
                              const std::vector<sim::LoopCrossing>& crossings,
                              const std::vector<core::LoopAlert>& alerts) {
  const net::TimeNs slack = run.spec.truth.slack;
  return score_reports(
      run, crossings, alerts,
      [slack](const baseline::TruthLoop& t, const core::LoopAlert& a) {
        return t.prefix24 == a.prefix24 &&
               intervals_overlap(t.start, t.end, a.first_seen, a.raised_at,
                                 slack);
      });
}

core::StreamingConfig scenario_streaming_config(const ScenarioSpec& spec) {
  core::StreamingConfig cfg;
  cfg.min_replicas = spec.truth.min_crossings;
  // Distinct truth loops on one prefix are >= 2 s apart (the merge gap), so
  // a short hold-down keeps one alert per loop without suppressing the next
  // loop's alert — the recall gate depends on that.
  cfg.alert_holddown = net::kSecond;
  // The stressed view is re-sorted after jitter, so feeds are monotonic and
  // no tolerance is needed; live-capture tolerance is exercised separately
  // in tests/test_streaming.cc.
  cfg.reorder_tolerance_ns = 0;
  return cfg;
}

// --- evaluation -------------------------------------------------------------

namespace {
PathOutcome offline_path(const ScenarioRun& run, const std::string& name,
                         const net::Trace& trace,
                         const std::vector<sim::LoopCrossing>& crossings,
                         unsigned threads) {
  core::LoopDetectorConfig cfg;
  cfg.parallel.num_threads = threads;
  const auto result = core::detect_loops(trace, cfg);
  PathOutcome out;
  out.path = name;
  out.score = score_offline(run, crossings, result.loops);
  out.lines.reserve(result.loops.size());
  for (const auto& loop : result.loops) out.lines.push_back(render_loop(loop));
  return out;
}
}  // namespace

const PathOutcome* ScenarioEvaluation::find(const std::string& path) const {
  for (const auto& p : paths) {
    if (p.path == path) return &p;
  }
  return nullptr;
}

ScenarioEvaluation evaluate_scenario(const ScenarioRun& run) {
  ScenarioEvaluation ev;
  ev.scenario = run.spec.name;
  ev.seed = run.spec.seed;

  const net::Trace& trace = run.analysis_trace();
  ev.paths.push_back(offline_path(run, "serial", trace, run.crossings, 1));
  ev.paths.push_back(offline_path(run, "parallel2", trace, run.crossings, 2));
  ev.paths.push_back(offline_path(run, "parallel4", trace, run.crossings, 4));

  {
    PathOutcome out;
    out.path = "streaming";
    std::vector<core::LoopAlert> alerts;
    core::StreamingDetector detector(
        scenario_streaming_config(run.spec),
        [&](const core::LoopAlert& a) { alerts.push_back(a); });
    for (const auto& rec : trace) detector.on_packet(rec.ts, rec.bytes());
    out.score = score_streaming(run, run.crossings, alerts);
    out.lines.reserve(alerts.size());
    for (const auto& a : alerts) out.lines.push_back(render_alert(a));
    ev.paths.push_back(std::move(out));
  }

  if (run.spec.bidirectional) {
    ev.paths.push_back(offline_path(run, "reverse", run.reverse_trace(),
                                    run.reverse_crossings, 1));
  }

  ev.offline_identical = ev.find("serial")->lines ==
                             ev.find("parallel2")->lines &&
                         ev.find("serial")->lines == ev.find("parallel4")->lines;
  if (!ev.offline_identical) {
    ev.failures.push_back("serial and parallel report lines differ");
  }

  const TruthPolicy& policy = run.spec.truth;
  if (policy.expect_loops && ev.find("serial")->score.detectable == 0) {
    ev.failures.push_back(
        "no detectable truth loops: the scenario is vacuous");
  }
  for (const PathOutcome& path : ev.paths) {
    const ScenarioScore& s = path.score;
    if (!policy.expect_loops) {
      if (s.reports != 0) {
        ev.failures.push_back(path.path + ": " + std::to_string(s.reports) +
                              " report(s) in a loop-free scenario");
      }
      continue;
    }
    if (s.detected < s.detectable) {
      ev.failures.push_back(path.path + ": recall " +
                            format_ratio(s.recall()) + " (" +
                            std::to_string(s.detected) + "/" +
                            std::to_string(s.detectable) +
                            " detectable loops)");
    }
    const double floor = path.path == "streaming"
                             ? policy.precision_floor_streaming
                             : policy.precision_floor_offline;
    if (s.precision() < floor) {
      ev.failures.push_back(path.path + ": precision " +
                            format_ratio(s.precision()) + " below floor " +
                            format_ratio(floor));
    }
  }
  ev.pass = ev.failures.empty();
  return ev;
}

std::string ScenarioEvaluation::to_json() const {
  std::ostringstream out;
  out << "{\"scenario\":\"" << json_escape(scenario) << "\",\"seed\":" << seed
      << ",\"pass\":" << (pass ? "true" : "false")
      << ",\"offline_identical\":" << (offline_identical ? "true" : "false")
      << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i ? "," : "") << '"' << json_escape(failures[i]) << '"';
  }
  out << "],\"paths\":[";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const PathOutcome& p = paths[i];
    const ScenarioScore& s = p.score;
    out << (i ? "," : "") << "{\"path\":\"" << json_escape(p.path)
        << "\",\"truth_loops\":" << s.truth_loops
        << ",\"detectable\":" << s.detectable << ",\"detected\":" << s.detected
        << ",\"reports\":" << s.reports
        << ",\"unmatched_reports\":" << s.unmatched_reports
        << ",\"recall\":" << format_ratio(s.recall())
        << ",\"precision\":" << format_ratio(s.precision()) << ",\"lines\":[";
    for (std::size_t j = 0; j < p.lines.size(); ++j) {
      out << (j ? "," : "") << '"' << json_escape(p.lines[j]) << '"';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace rloop::scenarios
