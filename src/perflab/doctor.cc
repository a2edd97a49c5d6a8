#include "perflab/doctor.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "perflab/json.h"

namespace dear::perflab {
namespace {

void AppendNetwork(std::ostringstream& out, const DoctorNetwork& net) {
  out << "{\"name\": \"" << JsonEscape(net.name) << "\", \"alpha_s\": "
      << JsonNumber(net.alpha_s) << ", \"beta_s_per_byte\": "
      << JsonNumber(net.beta_s_per_byte) << ", \"bound_beta_s_per_byte\": "
      << JsonNumber(net.bound_beta_s_per_byte) << "}";
}

StatusOr<DoctorNetwork> ReadNetwork(const Json& node, const char* what) {
  if (node.type() != Json::Type::kObject) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a network object");
  }
  DoctorNetwork net;
  net.name = node.GetString("name");
  net.alpha_s = node.GetNumber("alpha_s");
  net.beta_s_per_byte = node.GetNumber("beta_s_per_byte");
  net.bound_beta_s_per_byte = node.GetNumber("bound_beta_s_per_byte");
  if (!(net.alpha_s >= 0.0) || !(net.beta_s_per_byte >= 0.0) ||
      !(net.bound_beta_s_per_byte >= 0.0)) {
    return Status::InvalidArgument(std::string(what) +
                                   " has a negative or non-finite parameter");
  }
  return net;
}

/// Reads `node[key]` (0 when absent) into a count field. JSON numbers are
/// doubles, and casting one outside the field's range is undefined, so a
/// negative, fractional or too-large value is rejected first.
template <typename T>
Status ReadCount(const Json& node, const char* key, T& out) {
  const double v = node.GetNumber(key);
  // max() + 1 = 2^digits, which a double holds exactly.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(v >= 0.0 && v < limit) || v != std::floor(v)) {
    return Status::InvalidArgument(std::string("doctor report '") + key +
                                   "' is not a count its field can hold");
  }
  out = static_cast<T>(v);
  return Status::Ok();
}

}  // namespace

std::string DoctorReport::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kDoctorSchemaVersion << "\",\n";
  out << "  \"backend\": \"" << JsonEscape(backend) << "\",\n";
  out << "  \"world\": " << world << ",\n";
  out << "  \"reference\": ";
  AppendNetwork(out, reference);
  out << ",\n";
  if (has_fit) {
    out << "  \"fitted\": ";
    AppendNetwork(out, fitted);
    out << ",\n  \"fit_samples\": " << fit_samples << ",\n";
  }
  out << "  \"shapes\": [";
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const DoctorShape& s = shapes[i];
    out << (i ? ",\n    {" : "\n    {");
    out << "\"shape\": \"" << JsonEscape(s.shape) << "\", \"world\": "
        << s.world << ", \"samples\": " << s.samples << ", \"ok\": "
        << (s.ok ? "true" : "false");
    if (s.ok) {
      out << ",\n     \"alpha_s\": " << JsonNumber(s.alpha_s)
          << ", \"beta_s_per_byte\": " << JsonNumber(s.beta_s_per_byte)
          << ", \"r2\": " << JsonNumber(s.r2);
    } else {
      out << ", \"why\": \"" << JsonEscape(s.why) << "\"";
    }
    out << ",\n     \"divergence\": " << JsonNumber(s.divergence)
        << ", \"mean_ratio\": " << JsonNumber(s.mean_ratio)
        << ", \"anomalies\": " << s.anomalies << "}";
  }
  out << (shapes.empty() ? "]" : "\n  ]") << ",\n";
  out << "  \"stragglers\": [";
  for (std::size_t i = 0; i < stragglers.size(); ++i) {
    out << (i ? ", " : "") << "{\"rank\": " << stragglers[i].rank
        << ", \"anomalies\": " << stragglers[i].anomalies << "}";
  }
  out << "],\n";
  if (exposed_comm_fraction >= 0.0) {
    out << "  \"health\": {\"exposed_comm_fraction\": "
        << JsonNumber(exposed_comm_fraction) << "},\n";
  }
  out << "  \"verdict\": \"" << JsonEscape(verdict) << "\",\n";
  out << "  \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out << (i ? ", " : "") << "\"" << JsonEscape(notes[i]) << "\"";
  }
  out << "]\n}\n";
  return out.str();
}

StatusOr<DoctorReport> DoctorReport::FromJson(const std::string& text) {
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const Json& root = *parsed;
  if (root.type() != Json::Type::kObject)
    return Status::InvalidArgument("doctor report root must be an object");
  const std::string schema = root.GetString("schema");
  if (schema != kDoctorSchemaVersion) {
    return Status::InvalidArgument("unsupported doctor schema '" + schema +
                                   "' (expected " + kDoctorSchemaVersion +
                                   ")");
  }
  DoctorReport report;
  report.backend = root.GetString("backend");
  DEAR_RETURN_IF_ERROR(ReadCount(root, "world", report.world));
  const Json* ref = root.Get("reference");
  if (ref == nullptr)
    return Status::InvalidArgument("doctor report missing 'reference'");
  auto ref_net = ReadNetwork(*ref, "'reference'");
  if (!ref_net.ok()) return ref_net.status();
  report.reference = *std::move(ref_net);
  if (const Json* fit = root.Get("fitted")) {
    auto fit_net = ReadNetwork(*fit, "'fitted'");
    if (!fit_net.ok()) return fit_net.status();
    report.fitted = *std::move(fit_net);
    report.has_fit = true;
    DEAR_RETURN_IF_ERROR(ReadCount(root, "fit_samples", report.fit_samples));
  }
  if (const Json* shapes = root.Get("shapes")) {
    if (shapes->type() != Json::Type::kArray)
      return Status::InvalidArgument("'shapes' must be an array");
    for (const Json& node : shapes->array()) {
      if (node.type() != Json::Type::kObject)
        return Status::InvalidArgument("shape entry must be an object");
      DoctorShape s;
      s.shape = node.GetString("shape");
      if (s.shape.empty())
        return Status::InvalidArgument("shape entry missing 'shape' name");
      DEAR_RETURN_IF_ERROR(ReadCount(node, "world", s.world));
      DEAR_RETURN_IF_ERROR(ReadCount(node, "samples", s.samples));
      const Json* ok = node.Get("ok");
      s.ok = ok != nullptr && ok->type() == Json::Type::kBool &&
             ok->boolean();
      if (s.ok) {
        s.alpha_s = node.GetNumber("alpha_s");
        s.beta_s_per_byte = node.GetNumber("beta_s_per_byte");
        s.r2 = node.GetNumber("r2");
      } else {
        s.why = node.GetString("why");
      }
      s.divergence = node.GetNumber("divergence");
      s.mean_ratio = node.GetNumber("mean_ratio");
      DEAR_RETURN_IF_ERROR(ReadCount(node, "anomalies", s.anomalies));
      report.shapes.push_back(std::move(s));
    }
  }
  if (const Json* stragglers = root.Get("stragglers")) {
    if (stragglers->type() != Json::Type::kArray)
      return Status::InvalidArgument("'stragglers' must be an array");
    for (const Json& node : stragglers->array()) {
      if (node.type() != Json::Type::kObject)
        return Status::InvalidArgument("straggler entry must be an object");
      DoctorStraggler s;
      DEAR_RETURN_IF_ERROR(ReadCount(node, "rank", s.rank));
      DEAR_RETURN_IF_ERROR(ReadCount(node, "anomalies", s.anomalies));
      report.stragglers.push_back(s);
    }
  }
  if (const Json* health = root.Get("health")) {
    report.exposed_comm_fraction =
        health->GetNumber("exposed_comm_fraction", -1.0);
  }
  report.verdict = root.GetString("verdict");
  if (report.verdict != "pass" && report.verdict != "warn" &&
      report.verdict != "fail") {
    return Status::InvalidArgument("doctor report verdict '" +
                                   report.verdict +
                                   "' is not pass/warn/fail");
  }
  if (const Json* notes = root.Get("notes")) {
    if (notes->type() != Json::Type::kArray)
      return Status::InvalidArgument("'notes' must be an array");
    for (const Json& node : notes->array()) {
      if (node.type() != Json::Type::kString)
        return Status::InvalidArgument("note entry is not a string");
      report.notes.push_back(node.str());
    }
  }
  return report;
}

Status DoctorReport::WriteFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return Status::Unavailable("cannot open for write: " + path);
  f << ToJson();
  f.flush();
  if (!f) return Status::Unavailable("write failed: " + path);
  return Status::Ok();
}

StatusOr<DoctorReport> DoctorReport::ReadFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::Unavailable("cannot open: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return FromJson(buf.str());
}

}  // namespace dear::perflab
