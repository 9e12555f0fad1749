#include "core/stream_validator.h"

#include <cstdint>

namespace rloop::core {

StreamValidator::StreamValidator(ValidatorConfig config,
                                 telemetry::Registry* registry,
                                 telemetry::DecisionLog* journal)
    : config_(config),
      journal_(journal),
      m_accepted_(telemetry::get_counter(
          registry, "rloop_validator_streams_accepted_total", {},
          "Streams surviving both validation conditions")),
      m_rejected_small_(telemetry::get_counter(
          registry, "rloop_validator_streams_rejected_total",
          {{"reason", "too_small"}},
          "Streams rejected, by validation condition")),
      m_rejected_conflict_(telemetry::get_counter(
          registry, "rloop_validator_streams_rejected_total",
          {{"reason", "prefix_conflict"}},
          "Streams rejected, by validation condition")) {}

namespace {

enum class Verdict : std::uint8_t { keep, too_small, prefix_conflict };

// Verdict events carry the stream's END time so they sort after the
// replica-level evidence in the journal's causal chain. A rejection also
// fires the flight-recorder auto-dump (no-op unless enabled).
Verdict judge(const ReplicaStream& stream, std::size_t min_replicas,
              const NonLoopedIndex& index, telemetry::DecisionLog* journal) {
  const auto rec = stream.replicas.front().record_index;
  if (stream.size() < min_replicas) {
    if (journal) {
      journal->record(
          {.kind = telemetry::DecisionKind::stream_rejected_min_replicas,
           .dst24 = stream.dst24,
           .ts = stream.end(),
           .record_index = rec,
           .detail = static_cast<std::int64_t>(stream.size()),
           .detail2 = static_cast<std::int64_t>(min_replicas)});
      journal->on_validation_reject(stream.dst24);
    }
    return Verdict::too_small;
  }
  const auto refuting =
      index.first_in(stream.dst24, stream.start(), stream.end());
  if (refuting) {
    if (journal) {
      journal->record(
          {.kind = telemetry::DecisionKind::stream_rejected_nonlooped,
           .dst24 = stream.dst24,
           .ts = stream.end(),
           .record_index = rec,
           .detail = *refuting,
           .detail2 = static_cast<std::int64_t>(stream.size())});
      journal->on_validation_reject(stream.dst24);
    }
    return Verdict::prefix_conflict;
  }
  if (journal) {
    journal->record({.kind = telemetry::DecisionKind::stream_accepted,
                     .dst24 = stream.dst24,
                     .ts = stream.end(),
                     .record_index = rec,
                     .detail = static_cast<std::int64_t>(stream.size())});
  }
  return Verdict::keep;
}

}  // namespace

std::vector<ReplicaStream> StreamValidator::validate(
    const std::vector<ParsedRecord>& records,
    std::vector<ReplicaStream> streams, ValidationStats* stats) const {
  // Membership covers every raw stream (>= 2 elements): even a stream that
  // itself fails validation consists of looped-looking packets, which must
  // not count as refuting evidence against an overlapping stream.
  const auto member = stream_membership(records.size(), streams);
  const NonLoopedIndex index(records, member);
  return validate_with_index(index, std::move(streams), stats);
}

std::vector<ReplicaStream> StreamValidator::validate(
    const RecordStore& store, std::vector<ReplicaStream> streams,
    ValidationStats* stats) const {
  const auto member = stream_membership(store.size(), streams);
  NonLoopedIndex index;
  index.rebuild(store, member, streams);
  return validate_with_index(index, std::move(streams), stats);
}

std::vector<ReplicaStream> StreamValidator::validate_with_index(
    const NonLoopedIndex& index, std::vector<ReplicaStream> streams,
    ValidationStats* stats) const {
  ValidationStats local;
  local.input_streams = streams.size();

  std::vector<ReplicaStream> valid;
  valid.reserve(streams.size());
  for (auto& stream : streams) {
    switch (judge(stream, config_.min_replicas, index, journal_)) {
      case Verdict::too_small:
        ++local.rejected_too_small;
        telemetry::inc(m_rejected_small_);
        break;
      case Verdict::prefix_conflict:
        ++local.rejected_prefix_conflict;
        telemetry::inc(m_rejected_conflict_);
        break;
      case Verdict::keep:
        ++local.accepted;
        telemetry::inc(m_accepted_);
        valid.push_back(std::move(stream));
        break;
    }
  }
  if (stats) *stats = local;
  return valid;
}

}  // namespace rloop::core
