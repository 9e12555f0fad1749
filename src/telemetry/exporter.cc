#include "telemetry/exporter.h"

#include <cmath>
#include <cstdio>

namespace rloop::telemetry {

namespace {

// Compact numeric rendering: integers without a trailing ".0" (counter and
// bucket values are conceptually integral), everything else shortest-round-
// trip-ish %.17g is overkill for metrics; %g keeps output readable.
std::string render_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::counter: return "counter";
    case MetricType::gauge: return "gauge";
    case MetricType::histogram: return "histogram";
    case MetricType::summary: return "summary";
  }
  return "untyped";
}

// Label-value escaping per the Prometheus exposition format: backslash,
// double-quote and newline must be escaped or the line (and every line
// after it) is unparseable.
std::string prom_escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// HELP text escaping: only backslash and newline (quotes are legal there).
std::string prom_escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_labels(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += prom_escape_label(labels[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

// Label rendering with one extra label appended (histogram `le`).
std::string render_labels_with(const LabelSet& labels, const std::string& key,
                               const std::string& value) {
  std::string out = "{";
  for (const auto& [k, v] : labels) {
    out += k;
    out += "=\"";
    out += prom_escape_label(v);
    out += "\",";
  }
  out += key;
  out += "=\"";
  out += value;
  out += "\"}";
  return out;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_prometheus(const std::vector<MetricSnapshot>& snaps) {
  std::string out;
  const std::string* last_name = nullptr;
  for (const auto& snap : snaps) {
    // Snapshots arrive sorted by name; emit HELP/TYPE once per family.
    if (!last_name || *last_name != snap.name) {
      if (!snap.help.empty()) {
        out += "# HELP " + snap.name + " " + prom_escape_help(snap.help) + "\n";
      }
      out += "# TYPE " + snap.name + " " + type_name(snap.type) + "\n";
      last_name = &snap.name;
    }
    if (snap.type == MetricType::histogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
        cumulative += snap.buckets[i];
        const std::string le = i < snap.bounds.size()
                                   ? render_number(snap.bounds[i])
                                   : std::string("+Inf");
        out += snap.name + "_bucket" +
               render_labels_with(snap.labels, "le", le) + " " +
               render_number(static_cast<double>(cumulative)) + "\n";
      }
      out += snap.name + "_sum" + render_labels(snap.labels) + " " +
             render_number(snap.sum) + "\n";
      out += snap.name + "_count" + render_labels(snap.labels) + " " +
             render_number(static_cast<double>(snap.count)) + "\n";
    } else if (snap.type == MetricType::summary) {
      for (const auto& [q, v] : snap.quantiles) {
        out += snap.name + render_labels_with(snap.labels, "quantile",
                                              render_number(q)) +
               " " + render_number(v) + "\n";
      }
      out += snap.name + "_sum" + render_labels(snap.labels) + " " +
             render_number(snap.sum) + "\n";
      out += snap.name + "_count" + render_labels(snap.labels) + " " +
             render_number(static_cast<double>(snap.count)) + "\n";
    } else {
      out += snap.name + render_labels(snap.labels) + " " +
             render_number(snap.value) + "\n";
    }
  }
  return out;
}

std::string to_json(const std::vector<MetricSnapshot>& snaps) {
  std::string out = "[";
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const auto& snap = snaps[i];
    if (i) out += ',';
    out += "\n  {\"name\":\"" + json_escape(snap.name) + "\",\"type\":\"" +
           type_name(snap.type) + "\"";
    if (!snap.labels.empty()) {
      out += ",\"labels\":{";
      for (std::size_t j = 0; j < snap.labels.size(); ++j) {
        if (j) out += ',';
        out += "\"" + json_escape(snap.labels[j].first) + "\":\"" +
               json_escape(snap.labels[j].second) + "\"";
      }
      out += '}';
    }
    if (snap.type == MetricType::summary) {
      out += ",\"count\":" + render_number(static_cast<double>(snap.count));
      out += ",\"sum\":" + render_number(snap.sum);
      out += ",\"quantiles\":{";
      for (std::size_t j = 0; j < snap.quantiles.size(); ++j) {
        if (j) out += ',';
        out += "\"" + render_number(snap.quantiles[j].first) + "\":" +
               (std::isfinite(snap.quantiles[j].second)
                    ? render_number(snap.quantiles[j].second)
                    : std::string("null"));
      }
      out += '}';
    } else if (snap.type == MetricType::histogram) {
      out += ",\"count\":" + render_number(static_cast<double>(snap.count));
      out += ",\"sum\":" + render_number(snap.sum);
      out += ",\"bounds\":[";
      for (std::size_t j = 0; j < snap.bounds.size(); ++j) {
        if (j) out += ',';
        out += render_number(snap.bounds[j]);
      }
      out += "],\"buckets\":[";
      for (std::size_t j = 0; j < snap.buckets.size(); ++j) {
        if (j) out += ',';
        out += render_number(static_cast<double>(snap.buckets[j]));
      }
      out += ']';
    } else {
      out += ",\"value\":" + render_number(snap.value);
    }
    out += '}';
  }
  out += "\n]\n";
  return out;
}

PeriodicExporter::PeriodicExporter(const Registry* registry,
                                   net::TimeNs interval, Format format,
                                   Sink sink)
    : registry_(registry),
      interval_(interval),
      format_(format),
      sink_(std::move(sink)) {}

bool PeriodicExporter::pump(net::TimeNs now) {
  if (!started_) {
    // First pump establishes the phase; the first export fires one full
    // interval later.
    started_ = true;
    next_due_ = now + interval_;
    return false;
  }
  if (now < next_due_) return false;
  flush(now);
  // Re-anchor on `now` rather than accumulating missed intervals.
  next_due_ = now + interval_;
  return true;
}

void PeriodicExporter::flush(net::TimeNs) {
  const auto snaps = registry_->snapshot();
  sink_(format_ == Format::prometheus ? to_prometheus(snaps)
                                      : to_json(snaps));
  ++exports_;
}

}  // namespace rloop::telemetry
