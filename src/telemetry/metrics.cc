#include "telemetry/metrics.h"

#include <cmath>
#include <cstdio>

namespace dear::telemetry {
namespace {

// Map insertion under an upgraded lock; double-checked so concurrent
// creators of the same name converge on one object.
template <typename T, typename Make>
T& GetOrCreate(std::shared_mutex& mutex,
               std::map<std::string, std::unique_ptr<T>>& map,
               const std::string& name, const Make& make) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex);
    auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mutex);
  auto& slot = map[name];
  if (!slot) slot = make();
  return *slot;
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  char buf[8];
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void AppendDouble(std::string& out, double v) {
  // JSON cannot represent non-finite values; 0 matches perflab::JsonNumber.
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

// Prometheus value grammar spells non-finite values "NaN", "+Inf", "-Inf"
// (printf's "nan"/"inf" are not valid exposition-format tokens).
void AppendPrometheusDouble(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

std::string PrometheusName(const std::string& name) {
  std::string out = "dear_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Help text for the # HELP line of each exported family. Exact names
/// first, then prefix rules for the families minted at runtime
/// ("comm.model.residual.<shape>" etc.), then a generic fallback so every
/// family always carries a HELP line.
std::string HelpFor(const std::string& name, const char* family_kind) {
  static const std::map<std::string, const char*> kExact = {
      {"comm.messages_sent", "Transport messages enqueued by this rank."},
      {"comm.bytes_sent", "Payload bytes enqueued by this rank."},
      {"comm.messages_received",
       "Transport messages dequeued by this rank."},
      {"comm.bytes_received", "Payload bytes dequeued by this rank."},
      {"transport.pool.hits",
       "Buffer-pool acquisitions served from a recycled slab."},
      {"transport.pool.misses",
       "Buffer-pool acquisitions that allocated a fresh slab."},
      {"transport.pool.releases", "Pooled slabs returned to the free list."},
      {"transport.pool.bytes_acquired",
       "Total payload bytes handed out by the buffer pool."},
      {"transport.pool.bytes_in_flight",
       "Payload bytes currently held by live messages."},
      {"comm.model.anomalies",
       "Collectives flagged outside the EWMA duration band on this rank."},
  };
  const auto it = kExact.find(name);
  if (it != kExact.end()) return it->second;
  if (name.rfind("comm.model.residual.", 0) == 0)
    return "Measured/predicted duration ratio vs the reference network "
           "model, per collective shape.";
  if (name.rfind("comm.model.divergence.", 0) == 0)
    return "EWMA |ln(measured/predicted)| vs the reference network model "
           "(0 = model matches reality).";
  return std::string("DeAR runtime ") + family_kind + " \"" + name + "\".";
}

}  // namespace

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  return GetOrCreate(mutex_, counters_, name,
                     [] { return std::make_unique<Counter>(); });
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  return GetOrCreate(mutex_, gauges_, name,
                     [] { return std::make_unique<Gauge>(); });
}

HistogramMetric& MetricsRegistry::GetHistogram(const std::string& name,
                                               std::vector<double> edges) {
  return GetOrCreate(mutex_, histograms_, name, [&] {
    if (edges.empty())
      edges = Histogram::ExponentialEdges(1e-7, 2.0, 40);  // ~1e-7 .. ~1e5
    return std::make_unique<HistogramMetric>(std::move(edges));
  });
}

std::vector<std::pair<std::string, std::int64_t>> MetricsRegistry::Counters()
    const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Gauges() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, Histogram>> MetricsRegistry::Histograms()
    const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::pair<std::string, Histogram>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    out.emplace_back(name, h->Snapshot());
  return out;
}

std::string MetricsRegistry::ToJson() const {
  const auto counters = Counters();
  const auto gauges = Gauges();
  const auto histograms = Histograms();

  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, name);
    out += ':';
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, name);
    out += ':';
    AppendDouble(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, name);
    out += ":{\"count\":" + std::to_string(h.count()) + ",\"sum\":";
    AppendDouble(out, h.sum());
    out += ",\"min\":";
    AppendDouble(out, h.min());
    out += ",\"max\":";
    AppendDouble(out, h.max());
    out += ",\"p50\":";
    AppendDouble(out, h.Quantile(0.50));
    out += ",\"p95\":";
    AppendDouble(out, h.Quantile(0.95));
    out += ",\"p99\":";
    AppendDouble(out, h.Quantile(0.99));
    out += '}';
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToPrometheus(const std::string& labels) const {
  const std::string plain = labels.empty() ? "" : "{" + labels + "}";
  auto with_quantile = [&](double q) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "quantile=\"%g\"", q);
    return "{" + (labels.empty() ? "" : labels + ",") + buf + "}";
  };

  std::string out;
  for (const auto& [name, v] : Counters()) {
    const std::string pname = PrometheusName(name);
    out += "# HELP " + pname + " " + HelpFor(name, "counter") + "\n";
    out += "# TYPE " + pname + " counter\n";
    out += pname + plain + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : Gauges()) {
    const std::string pname = PrometheusName(name);
    out += "# HELP " + pname + " " + HelpFor(name, "gauge") + "\n";
    out += "# TYPE " + pname + " gauge\n";
    out += pname + plain + " ";
    AppendPrometheusDouble(out, v);
    out += '\n';
  }
  for (const auto& [name, h] : Histograms()) {
    const std::string pname = PrometheusName(name);
    out += "# HELP " + pname + " " + HelpFor(name, "summary") + "\n";
    out += "# TYPE " + pname + " summary\n";
    for (double q : {0.5, 0.95, 0.99}) {
      out += pname + with_quantile(q) + " ";
      AppendPrometheusDouble(out, h.Quantile(q));
      out += '\n';
    }
    out += pname + "_sum" + plain + " ";
    AppendPrometheusDouble(out, h.sum());
    out += '\n';
    out += pname + "_count" + plain + " " + std::to_string(h.count()) + "\n";
  }
  return out;
}

}  // namespace dear::telemetry
