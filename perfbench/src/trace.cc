#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <utility>

namespace perfbench::trace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Recorder::Begin(const char* name) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, parent, NowNs(), -1});
  open_.push_back(index);
  return index;
}

void Recorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  // Scopes nest, so the span being closed is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Recorder::Add(const char* name, std::int32_t parent, std::int64_t start_ns,
                  std::int64_t end_ns) {
  spans_.push_back(Span{name, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

/// Children of each span, in recording order.
std::vector<std::vector<std::int32_t>> ChildLists(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size())
      children[static_cast<std::size_t>(parent)].push_back(
          static_cast<std::int32_t>(i));
  }
  return children;
}

/// Length of the union of the children's intervals, clipped to `parent`.
std::int64_t CoveredNs(const std::vector<Span>& spans, const Span& parent,
                       const std::vector<std::int32_t>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  iv.reserve(children.size());
  for (auto c : children) {
    const Span& s = spans[static_cast<std::size_t>(c)];
    const auto lo = std::max(s.start_ns, parent.start_ns);
    const auto hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  const auto children = ChildLists(spans);
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].duration() - CoveredNs(spans, spans[i], children[i]);
  return self;
}

std::vector<std::int32_t> Roots(const std::vector<Span>& spans) {
  std::vector<std::int32_t> root(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto parent = spans[i].parent;
    // Parents are recorded before their children, so root[parent] is set.
    root[i] = parent < 0 ? static_cast<std::int32_t>(i)
                         : root[static_cast<std::size_t>(parent)];
  }
  return root;
}

std::string CheckNesting(const std::vector<Span>& spans, double tolerance) {
  const auto children = ChildLists(spans);
  const auto self = SelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string where =
        "span " + std::to_string(i) + " '" + s.name + "'";
    if (s.end_ns < s.start_ns) return where + " is not closed";
    if (s.parent >= static_cast<std::int32_t>(i))
      return where + " has a parent recorded after it";
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns)
        return where + " lies outside its parent '" + p.name + "'";
    }
    std::int64_t child_sum = 0;
    for (auto c : children[i])
      child_sum += spans[static_cast<std::size_t>(c)].duration();
    const double err =
        std::abs(static_cast<double>(self[i] + child_sum - s.duration()));
    if (err > tolerance * static_cast<double>(std::max<std::int64_t>(
                              s.duration(), 1)))
      return where + ": self + children != duration";
  }
  return {};
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const Recorder*>& recorders) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  std::int64_t origin = INT64_MAX;
  for (const auto* r : recorders)
    for (const auto& s : r->spans()) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto* r : recorders) {
    for (const auto& s : r->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << r->thread()
          << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(s.duration()) / 1e3 << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench::trace
