#include "common/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace dear {
namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  char buf[8];
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        // Remaining control characters (JSON forbids raw U+0000..U+001F).
        if (static_cast<unsigned char>(c) < 0x20) {
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendMetadata(std::string& out, const char* what, std::int64_t pid,
                    std::int64_t tid, bool with_tid, const std::string& name) {
  char buf[96];
  out += R"({"name":")";
  out += what;
  out += R"(","ph":"M","pid":)";
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(pid));
  out += buf;
  if (with_tid) {
    std::snprintf(buf, sizeof(buf), ",\"tid\":%lld",
                  static_cast<long long>(tid));
    out += buf;
  }
  out += R"(,"args":{"name":")";
  AppendEscaped(out, name);
  out += "\"}}";
}

}  // namespace

void TraceRecorder::Record(TraceEvent event) {
  events_.push_back(std::move(event));
}

void TraceRecorder::SetProcessName(std::int64_t pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void TraceRecorder::SetThreadName(std::int64_t pid, std::int64_t tid,
                                  std::string name) {
  thread_names_[{pid, tid}] = std::move(name);
}

std::string TraceRecorder::ToJson() const {
  std::vector<std::string> parts;
  parts.reserve(events_.size() + process_names_.size() +
                thread_names_.size());
  char buf[224];
  // Metadata first: Perfetto applies process/thread labels wherever they
  // appear, but leading with them keeps the file human-scannable.
  for (const auto& [pid, name] : process_names_) {
    std::string m;
    AppendMetadata(m, "process_name", pid, 0, /*with_tid=*/false, name);
    parts.push_back(std::move(m));
  }
  for (const auto& [key, name] : thread_names_) {
    std::string m;
    AppendMetadata(m, "thread_name", key.first, key.second,
                   /*with_tid=*/true, name);
    parts.push_back(std::move(m));
  }
  for (const TraceEvent& e : events_) {
    std::string line = R"({"name":")";
    AppendEscaped(line, e.name);
    line += R"(","cat":")";
    AppendEscaped(line, e.category);
    std::snprintf(buf, sizeof(buf),
                  R"(","ph":"X","pid":%lld,"tid":%lld,"ts":%.3f,"dur":%.3f)",
                  static_cast<long long>(e.pid), static_cast<long long>(e.tid),
                  ToMicroseconds(e.start), ToMicroseconds(e.duration));
    line += buf;
    if (e.flow_id != 0 && (e.flow_out || e.flow_in)) {
      std::snprintf(buf, sizeof(buf),
                    R"(,"bind_id":"0x%llx","flow_out":%s,"flow_in":%s)",
                    static_cast<unsigned long long>(e.flow_id),
                    e.flow_out ? "true" : "false",
                    e.flow_in ? "true" : "false");
      line += buf;
    }
    line += '}';
    parts.push_back(std::move(line));
    // Companion flow events (classic style): "s" starts the arrow inside
    // the producing slice, "f" with bp:"e" lands it on the consuming one.
    if (e.flow_id != 0 && e.flow_out) {
      std::string flow = R"({"name":")";
      AppendEscaped(flow, e.name);
      std::snprintf(
          buf, sizeof(buf),
          R"(","cat":"flow","ph":"s","id":"0x%llx","pid":%lld,"tid":%lld,"ts":%.3f})",
          static_cast<unsigned long long>(e.flow_id),
          static_cast<long long>(e.pid), static_cast<long long>(e.tid),
          ToMicroseconds(e.start));
      flow += buf;
      parts.push_back(std::move(flow));
    }
    if (e.flow_id != 0 && e.flow_in) {
      std::string flow = R"({"name":")";
      AppendEscaped(flow, e.name);
      std::snprintf(
          buf, sizeof(buf),
          R"(","cat":"flow","ph":"f","bp":"e","id":"0x%llx","pid":%lld,"tid":%lld,"ts":%.3f})",
          static_cast<unsigned long long>(e.flow_id),
          static_cast<long long>(e.pid), static_cast<long long>(e.tid),
          ToMicroseconds(e.start));
      flow += buf;
      parts.push_back(std::move(flow));
    }
  }
  std::string out = "[\n";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out += parts[i];
    out += (i + 1 < parts.size()) ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

bool TraceRecorder::WriteFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << ToJson();
  return static_cast<bool>(f);
}

}  // namespace dear
