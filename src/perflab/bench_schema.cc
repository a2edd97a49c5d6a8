#include "perflab/bench_schema.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/stats.h"
#include "perflab/json.h"

namespace dear::perflab {

double SampleQuantile(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (samples.size() <= kExactQuantileLimit)
    return Percentile(samples, q * 100.0);
  Histogram h(Histogram::ExponentialEdges(1e-9, 2.0, 48));
  for (const double s : samples) h.Add(s);
  return h.Quantile(q);
}

BenchResult::Summary BenchResult::Summarize() const {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  RunningStat stat;
  for (const double v : samples) stat.Add(v);
  s.mean = stat.mean();
  s.min = stat.min();
  s.max = stat.max();
  s.p50 = SampleQuantile(samples, 0.50);
  s.p95 = SampleQuantile(samples, 0.95);
  s.p99 = SampleQuantile(samples, 0.99);
  return s;
}

std::string BenchResult::Key() const {
  std::string key = name;
  for (const auto& [k, v] : params) key += "|" + k + "=" + v;  // map: sorted
  return key;
}

namespace {

void AppendStringMap(std::ostringstream& out,
                     const std::map<std::string, std::string>& m) {
  out << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(k) << "\":\"" << JsonEscape(v) << "\"";
  }
  out << "}";
}

StatusOr<std::map<std::string, std::string>> ReadStringMap(const Json& node) {
  if (node.type() != Json::Type::kObject)
    return Status::InvalidArgument("expected a string map object");
  std::map<std::string, std::string> out;
  for (const auto& [k, v] : node.members()) {
    if (v.type() != Json::Type::kString)
      return Status::InvalidArgument("map value for '" + k +
                                     "' is not a string");
    out[k] = v.str();
  }
  return out;
}

}  // namespace

std::string BenchSuite::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kSchemaVersion << "\",\n";
  out << "  \"suite\": \"" << JsonEscape(suite) << "\",\n";
  out << "  \"environment\": ";
  AppendStringMap(out, environment);
  out << ",\n  \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    const auto s = r.Summarize();
    out << (i ? ",\n    {" : "\n    {");
    out << "\"name\": \"" << JsonEscape(r.name) << "\", \"unit\": \""
        << JsonEscape(r.unit) << "\", \"higher_is_better\": "
        << (r.higher_is_better ? "true" : "false");
    if (r.gate_max_ratio > 0.0)
      out << ", \"gate_max_ratio\": " << JsonNumber(r.gate_max_ratio);
    out << ",\n     \"params\": ";
    AppendStringMap(out, r.params);
    out << ",\n     \"summary\": {\"count\": " << s.count << ", \"mean\": "
        << JsonNumber(s.mean) << ", \"min\": " << JsonNumber(s.min)
        << ", \"max\": " << JsonNumber(s.max) << ", \"p50\": "
        << JsonNumber(s.p50) << ", \"p95\": " << JsonNumber(s.p95)
        << ", \"p99\": " << JsonNumber(s.p99) << "},\n     \"samples\": [";
    for (std::size_t j = 0; j < r.samples.size(); ++j)
      out << (j ? "," : "") << JsonNumber(r.samples[j]);
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

StatusOr<BenchSuite> BenchSuite::FromJson(const std::string& text) {
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const Json& root = *parsed;
  if (root.type() != Json::Type::kObject)
    return Status::InvalidArgument("bench suite JSON root must be an object");
  const std::string schema = root.GetString("schema");
  if (schema != kSchemaVersion)
    return Status::InvalidArgument("unsupported bench schema '" + schema +
                                   "' (expected " + kSchemaVersion + ")");
  BenchSuite suite;
  suite.suite = root.GetString("suite");
  if (suite.suite.empty())
    return Status::InvalidArgument("bench suite JSON missing 'suite' name");
  if (const Json* env = root.Get("environment")) {
    auto m = ReadStringMap(*env);
    if (!m.ok()) return m.status();
    suite.environment = *std::move(m);
  }
  const Json* results = root.Get("results");
  if (results == nullptr || results->type() != Json::Type::kArray)
    return Status::InvalidArgument("bench suite JSON missing 'results' array");
  for (const Json& node : results->array()) {
    if (node.type() != Json::Type::kObject)
      return Status::InvalidArgument("result entry is not an object");
    BenchResult r;
    r.name = node.GetString("name");
    if (r.name.empty())
      return Status::InvalidArgument("result entry missing 'name'");
    r.unit = node.GetString("unit");
    r.gate_max_ratio = node.GetNumber("gate_max_ratio", 0.0);
    if (const Json* hib = node.Get("higher_is_better"))
      r.higher_is_better = hib->boolean();
    if (const Json* params = node.Get("params")) {
      auto m = ReadStringMap(*params);
      if (!m.ok()) return m.status();
      r.params = *std::move(m);
    }
    const Json* samples = node.Get("samples");
    if (samples == nullptr || samples->type() != Json::Type::kArray)
      return Status::InvalidArgument("result '" + r.name +
                                     "' missing 'samples' array");
    for (const Json& v : samples->array()) {
      if (v.type() != Json::Type::kNumber)
        return Status::InvalidArgument("non-numeric sample in '" + r.name +
                                       "'");
      r.samples.push_back(v.number());
    }
    suite.results.push_back(std::move(r));
  }
  return suite;
}

Status BenchSuite::WriteFile(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::Unavailable("cannot open '" + path + "' for write");
  file << ToJson();
  file.flush();
  if (!file) return Status::Unavailable("failed writing '" + path + "'");
  return Status::Ok();
}

StatusOr<BenchSuite> BenchSuite::ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return FromJson(buffer.str());
}

const BenchResult* BenchSuite::Find(const std::string& key) const {
  for (const BenchResult& r : results)
    if (r.Key() == key) return &r;
  return nullptr;
}

std::map<std::string, std::string> EnvironmentFingerprint() {
  std::map<std::string, std::string> env;
#if defined(__clang__)
  env["compiler"] = "clang " + std::to_string(__clang_major__) + "." +
                    std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  env["compiler"] = "gcc " + std::to_string(__GNUC__) + "." +
                    std::to_string(__GNUC_MINOR__);
#else
  env["compiler"] = "unknown";
#endif
  env["cxx_standard"] = std::to_string(__cplusplus);
#if defined(__linux__)
  env["os"] = "linux";
#elif defined(__APPLE__)
  env["os"] = "darwin";
#else
  env["os"] = "other";
#endif
#if defined(NDEBUG)
  env["assertions"] = "off";
#else
  env["assertions"] = "on";
#endif
  env["pointer_bits"] = std::to_string(8 * sizeof(void*));
  // 0 when the platform cannot tell.
  env["cores"] = std::to_string(std::thread::hardware_concurrency());
  env["schema"] = kSchemaVersion;
  return env;
}

}  // namespace dear::perflab
