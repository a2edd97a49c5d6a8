#include "analysis/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

#include "comm/types.h"  // header-only: the dtype values of the brackets
#include "common/logging.h"

namespace dear::analysis {

namespace {

/// Sorts and merges overlapping/adjacent intervals in place.
std::vector<Interval> Merge(std::vector<Interval> raw) {
  std::sort(raw.begin(), raw.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<Interval> merged;
  for (const Interval& iv : raw) {
    if (!merged.empty() && iv.begin <= merged.back().end)
      merged.back().end = std::max(merged.back().end, iv.end);
    else
      merged.push_back(iv);
  }
  return merged;
}

}  // namespace

std::vector<Interval> BusyIntervals(const sim::TaskGraph& graph,
                                    const sim::SimResult& result,
                                    std::int16_t stream) {
  DEAR_CHECK(result.timings.size() == graph.size());
  std::vector<Interval> raw;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const sim::Task task = graph.task(static_cast<sim::TaskId>(i));
    const auto& timing = result.timings[i];
    if (task.stream != stream || !timing.executed ||
        timing.end == timing.start)
      continue;
    raw.push_back({timing.start, timing.end});
  }
  return Merge(std::move(raw));
}

SimTime SubtractCover(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  SimTime exposed = 0;
  std::size_t j = 0;
  for (const Interval& iv : a) {
    SimTime cursor = iv.begin;
    while (cursor < iv.end) {
      // Advance past cover intervals that end before the cursor.
      while (j < b.size() && b[j].end <= cursor) ++j;
      if (j >= b.size() || b[j].begin >= iv.end) {
        exposed += iv.end - cursor;  // no cover left in this interval
        break;
      }
      if (b[j].begin > cursor) {
        exposed += b[j].begin - cursor;  // uncovered gap before the cover
      }
      cursor = std::max(cursor, b[j].end);
    }
  }
  return exposed;
}

TimelineAnalysis Analyze(const sim::TaskGraph& graph,
                         const sim::SimResult& result) {
  DEAR_CHECK(result.timings.size() == graph.size());
  TimelineAnalysis out;
  out.makespan = result.makespan;

  // Per-stream busy time.
  std::map<std::int16_t, SimTime> busy;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const sim::Task task = graph.task(static_cast<sim::TaskId>(i));
    busy[task.stream] += task.duration;
  }
  for (const auto& [stream, time] : busy) {
    StreamUtilization u;
    u.stream = stream;
    u.busy = time;
    u.fraction_of_makespan =
        out.makespan > 0
            ? static_cast<double>(time) / static_cast<double>(out.makespan)
            : 0.0;
    out.streams.push_back(u);
  }

  // Critical path: longest dependency chain by duration. Tasks are stored
  // in a valid construction order only if dependencies point backwards;
  // handle the general case by ascending finish time, which is a valid
  // topological order of any executed schedule.
  std::vector<std::size_t> order(graph.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.timings[a].end < result.timings[b].end;
  });
  std::vector<SimTime> chain(graph.size(), 0);
  std::vector<sim::TaskId> via(graph.size(), sim::kInvalidTask);
  sim::TaskId best = sim::kInvalidTask;
  for (std::size_t idx : order) {
    const auto id = static_cast<sim::TaskId>(idx);
    const sim::Task task = graph.task(id);
    SimTime longest = 0;
    graph.ForEachDep(id, [&](sim::TaskId dep) {
      if (chain[static_cast<std::size_t>(dep)] > longest) {
        longest = chain[static_cast<std::size_t>(dep)];
        via[idx] = dep;
      }
    });
    chain[idx] = longest + task.duration;
    if (best == sim::kInvalidTask ||
        chain[idx] > chain[static_cast<std::size_t>(best)])
      best = static_cast<sim::TaskId>(idx);
  }
  if (best != sim::kInvalidTask) {
    out.critical_path = chain[static_cast<std::size_t>(best)];
    for (sim::TaskId t = best; t != sim::kInvalidTask;
         t = via[static_cast<std::size_t>(t)])
      out.critical_tasks.push_back(t);
    std::reverse(out.critical_tasks.begin(), out.critical_tasks.end());
  }
  return out;
}

namespace {

char KindChar(sim::TaskKind kind) {
  switch (kind) {
    case sim::TaskKind::kForward: return 'F';
    case sim::TaskKind::kBackward: return 'B';
    case sim::TaskKind::kAllReduce: return 'A';
    case sim::TaskKind::kReduceScatter: return 'R';
    case sim::TaskKind::kAllGather: return 'G';
    case sim::TaskKind::kSync: return 's';
    case sim::TaskKind::kOther: return 'o';
  }
  return '?';
}

}  // namespace

std::string RenderAsciiGantt(const sim::TaskGraph& graph,
                             const sim::SimResult& result, int width) {
  DEAR_CHECK(width > 0 && result.timings.size() == graph.size());
  std::int16_t max_stream = 0;
  for (const sim::Task& task : graph.period_tasks())
    max_stream = std::max(max_stream, task.stream);
  if (result.makespan <= 0) return "(empty timeline)\n";

  std::string out;
  for (std::int16_t s = 0; s <= max_stream; ++s) {
    // Per bucket, show the kind that occupies the most time.
    std::vector<std::map<char, SimTime>> buckets(
        static_cast<std::size_t>(width));
    for (std::size_t i = 0; i < graph.size(); ++i) {
      const sim::Task task = graph.task(static_cast<sim::TaskId>(i));
      const auto& timing = result.timings[i];
      if (task.stream != s || !timing.executed || timing.end == timing.start)
        continue;
      const auto lo = static_cast<int>(timing.start * width /
                                       result.makespan);
      auto hi =
          static_cast<int>((timing.end * width + result.makespan - 1) /
                           result.makespan);
      hi = std::min(hi, width);
      for (int b = lo; b < hi; ++b) {
        const SimTime bucket_begin = result.makespan * b / width;
        const SimTime bucket_end = result.makespan * (b + 1) / width;
        const SimTime overlap = std::min(timing.end, bucket_end) -
                                std::max(timing.start, bucket_begin);
        if (overlap > 0)
          buckets[static_cast<std::size_t>(b)][KindChar(task.kind)] +=
              overlap;
      }
    }
    out += "stream " + std::to_string(s) + " |";
    for (const auto& bucket : buckets) {
      char c = '.';
      SimTime most = 0;
      for (const auto& [kind, time] : bucket) {
        if (time > most) {
          most = time;
          c = kind;
        }
      }
      out += c;
    }
    out += "|\n";
  }
  return out;
}

// ---- Cross-rank critical-path attribution --------------------------------

namespace {

double NsToMs(SimTime ns) { return static_cast<double>(ns) * 1e-6; }

/// printf-append; all report rows fit well under the buffer.
void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

}  // namespace

ScheduleSpans PairScheduleRecords(
    const std::vector<flightrec::Record>& records) {
  using flightrec::EventKind;
  ScheduleSpans out;
  bool have_step = false;  // the last kStepEnd seen: its step and time
  std::uint32_t last_step = 0;
  SimTime last_end = 0;
  std::map<std::pair<int, std::uint32_t>, SimTime> wait_begin;
  // Only the outermost collective on a thread is journaled, so a rank's
  // brackets are well nested and a stack pairs them, each entry summing
  // the sends journaled inside it. An end whose begin the ring already lost
  // pairs with nothing.
  std::vector<std::pair<const flightrec::Record*, std::uint64_t>> open;
  for (const flightrec::Record& rec : records) {
    const auto ts = static_cast<SimTime>(rec.ts_ns);
    const std::pair<int, std::uint32_t> op{static_cast<int>(rec.tag),
                                           rec.payload};
    switch (static_cast<EventKind>(rec.kind)) {
      case EventKind::kStepEnd:
        // A window needs both boundaries: the previous step's end must be
        // in the journal too (a wrapped ring loses the oldest ones).
        if (have_step && rec.payload == last_step + 1)
          out.windows.push_back({rec.payload, {last_end, ts}});
        have_step = true;
        last_step = rec.payload;
        last_end = ts;
        break;
      case EventKind::kRsLaunch:
      case EventKind::kAgLaunch:
        out.launches[op] = ts;
        break;
      case EventKind::kWaitBegin:
        wait_begin[op] = ts;
        break;
      case EventKind::kRsComplete:
      case EventKind::kAgComplete: {
        const auto it = wait_begin.find(op);
        if (it == wait_begin.end()) break;
        out.waits.push_back(
            {{it->second, ts},
             rec.kind == static_cast<std::uint16_t>(EventKind::kAgComplete),
             op.first,
             op.second});
        wait_begin.erase(it);
        break;
      }
      case EventKind::kCollectiveBegin:
        open.emplace_back(&rec, 0);
        break;
      case EventKind::kCollectiveEnd: {
        if (open.empty()) break;
        const auto [begin, sent_bytes] = open.back();
        out.collectives.push_back(
            {begin->tag, begin->payload, rec.payload,
             {static_cast<SimTime>(begin->ts_ns), ts}, sent_bytes});
        open.pop_back();
        break;
      }
      case EventKind::kSend:
        out.sent.messages += 1;
        out.sent.bytes += rec.payload;
        if (!open.empty()) open.back().second += rec.payload;
        break;
      case EventKind::kRecv:
        out.received.messages += 1;
        out.received.bytes += rec.payload;
        break;
      default:
        break;
    }
  }
  return out;
}

void ExportTransportMetrics(const ScheduleSpans& spans,
                            telemetry::MetricsRegistry& reg) {
  reg.GetCounter("comm.messages_sent").Add(spans.sent.messages);
  reg.GetCounter("comm.bytes_sent").Add(spans.sent.bytes);
  reg.GetCounter("comm.messages_received").Add(spans.received.messages);
  reg.GetCounter("comm.bytes_received").Add(spans.received.bytes);
  telemetry::Counter* wire[comm::kNumDTypes];
  for (int d = 0; d < comm::kNumDTypes; ++d)
    wire[d] = &reg.GetCounter(
        "comm.wire_bytes." +
        std::string(comm::DTypeName(static_cast<comm::DType>(d))));
  for (const auto& c : spans.collectives)
    wire[c.dtype < static_cast<std::uint32_t>(comm::kNumDTypes) ? c.dtype : 0]
        ->Add(static_cast<std::int64_t>(c.sent_bytes));
}

AttributionReport AttributeIterations(
    const std::vector<std::vector<flightrec::Record>>& per_rank, int world,
    double tolerance) {
  DEAR_CHECK(world > 0);
  AttributionReport report;
  report.world = world;
  report.tolerance = tolerance;

  std::vector<ScheduleSpans> spans(static_cast<std::size_t>(world));
  for (int r = 0; r < world && static_cast<std::size_t>(r) < per_rank.size();
       ++r) {
    spans[static_cast<std::size_t>(r)] =
        PairScheduleRecords(per_rank[static_cast<std::size_t>(r)]);
  }

  // Cross-rank launch table: for each op (group, seq), the latest launch
  // across ranks and who launched it. All ranks run the same schedule, so
  // the sequence number names the same logical collective everywhere.
  std::map<std::pair<int, std::uint32_t>, std::pair<SimTime, int>>
      latest_launch;
  for (int r = 0; r < world; ++r) {
    for (const auto& [op, ts] : spans[static_cast<std::size_t>(r)].launches) {
      auto [it, inserted] = latest_launch.try_emplace(op, ts, r);
      if (!inserted && ts > it->second.first) it->second = {ts, r};
    }
  }

  // Attribute only the windows every rank still holds, so per-rank rows
  // are comparable.
  std::map<std::uint32_t, int> holders;  // step -> ranks holding its window
  for (const ScheduleSpans& s : spans)
    for (const auto& w : s.windows) ++holders[w.step];
  auto common = [&](const ScheduleSpans::Window& w) {
    return holders[w.step] == world;
  };
  for (const auto& [step, n] : holders)
    if (n == world) ++report.iterations;
  report.ranks.resize(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r)
    report.ranks[static_cast<std::size_t>(r)].rank = r;
  if (report.iterations == 0) return report;

  std::vector<double> caused(static_cast<std::size_t>(world), 0.0);
  for (int r = 0; r < world; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    RankAttribution& rank = report.ranks[ri];
    rank.iterations = report.iterations;
    std::map<int, GroupAttribution> groups;
    // Sum of individually clipped wait spans; compared below against the
    // merged-interval cover to catch double-counted (overlapping) spans.
    double span_blocked_ms = 0.0;
    for (const auto& win : spans[ri].windows) {
      if (!common(win)) continue;
      rank.iter_ms += NsToMs(win.span.length());
      for (const auto& w : spans[ri].waits) {
        const SimTime begin = std::max(w.span.begin, win.span.begin);
        const SimTime end = std::min(w.span.end, win.span.end);
        if (end <= begin) continue;
        const double len_ms = NsToMs(end - begin);
        span_blocked_ms += len_ms;
        // Straggler share: the prefix of this wait before the slowest
        // peer had even launched the collective we are waiting on.
        double straggler_ms = 0.0;
        int blamed = -1;
        const auto it = latest_launch.find({w.group, w.seq});
        if (it != latest_launch.end()) {
          const auto& [launch, who] = it->second;
          const SimTime skew = std::min(std::max<SimTime>(launch - begin, 0),
                                        end - begin);
          straggler_ms = NsToMs(skew);
          if (who != r) blamed = who;
        }
        GroupAttribution& g = groups[w.group];
        g.group = w.group;
        g.straggler_ms += straggler_ms;
        // A fused all-reduce is the un-decoupled OP1, bucketed as RS.
        if (w.ag)
          g.exposed_ag_ms += len_ms - straggler_ms;
        else
          g.exposed_rs_ms += len_ms - straggler_ms;
        if (blamed >= 0)
          caused[static_cast<std::size_t>(blamed)] += straggler_ms;
      }
    }
    // Blocked time from merged wait intervals clipped to the attributed
    // windows — the ground truth the per-span sums must reproduce.
    std::vector<Interval> wait_cover;
    for (const auto& w : spans[ri].waits) wait_cover.push_back(w.span);
    const std::vector<Interval> merged = Merge(std::move(wait_cover));
    double blocked_ms = 0.0;
    for (const auto& win : spans[ri].windows) {
      if (!common(win)) continue;
      blocked_ms += NsToMs(win.span.length()) -
                    NsToMs(SubtractCover({win.span}, merged));
    }
    rank.compute_ms = rank.iter_ms - blocked_ms;
    for (auto& [id, g] : groups) {
      rank.exposed_rs_ms += g.exposed_rs_ms;
      rank.exposed_ag_ms += g.exposed_ag_ms;
      rank.straggler_ms += g.straggler_ms;
      rank.groups.push_back(std::move(g));
    }
    // compute was defined as (window - merged cover) while the parts come
    // from per-span clipping, so the residual is exactly the double-count
    // the decomposition would otherwise hide.
    const double sum = rank.compute_ms + rank.exposed_rs_ms +
                       rank.exposed_ag_ms + rank.straggler_ms;
    rank.residual_fraction =
        rank.iter_ms > 0.0
            ? std::abs(rank.iter_ms - sum) / rank.iter_ms
            : (span_blocked_ms > 0.0 ? 1.0 : 0.0);
    report.max_residual_fraction =
        std::max(report.max_residual_fraction, rank.residual_fraction);
  }
  for (int r = 0; r < world; ++r)
    report.ranks[static_cast<std::size_t>(r)].caused_straggler_ms =
        caused[static_cast<std::size_t>(r)];

  report.consistent = report.max_residual_fraction <= tolerance;
  report.straggler_ranking.resize(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r)
    report.straggler_ranking[static_cast<std::size_t>(r)] = r;
  std::stable_sort(report.straggler_ranking.begin(),
                   report.straggler_ranking.end(), [&](int a, int b) {
                     return caused[static_cast<std::size_t>(a)] >
                            caused[static_cast<std::size_t>(b)];
                   });
  return report;
}

std::string RenderAttributionReport(const AttributionReport& report) {
  std::string out;
  AppendF(&out, "critical-path attribution: %d iteration%s x %d rank%s\n",
          report.iterations, report.iterations == 1 ? "" : "s", report.world,
          report.world == 1 ? "" : "s");
  if (report.iterations == 0) {
    out += "  (no complete iteration windows in the journal; run >= 2 "
           "steps)\n";
    return out;
  }
  out += "  rank   iter_ms  compute  exp_rs  exp_ag  straggl  caused  "
         "resid%\n";
  for (const RankAttribution& r : report.ranks) {
    AppendF(&out, "  %4d  %8.2f %8.2f %7.2f %7.2f %8.2f %7.2f  %5.2f\n",
            r.rank, r.iter_ms, r.compute_ms, r.exposed_rs_ms,
            r.exposed_ag_ms, r.straggler_ms, r.caused_straggler_ms,
            r.residual_fraction * 100.0);
  }
  // Per-group totals across ranks.
  std::map<int, GroupAttribution> totals;
  for (const RankAttribution& r : report.ranks) {
    for (const GroupAttribution& g : r.groups) {
      GroupAttribution& t = totals[g.group];
      t.group = g.group;
      t.exposed_rs_ms += g.exposed_rs_ms;
      t.exposed_ag_ms += g.exposed_ag_ms;
      t.straggler_ms += g.straggler_ms;
    }
  }
  if (!totals.empty()) {
    out += "  fusion groups (ms summed over ranks):\n";
    for (const auto& [id, g] : totals) {
      AppendF(&out,
              "    g%-3d  exposed_rs %8.2f  exposed_ag %8.2f  "
              "straggler %8.2f\n",
              g.group, g.exposed_rs_ms, g.exposed_ag_ms, g.straggler_ms);
    }
  }
  out += "  stragglers (time peers spent waiting on this rank's arrival):\n";
  for (int r : report.straggler_ranking) {
    AppendF(&out, "    rank %d  caused %.2f ms\n", r,
            report.ranks[static_cast<std::size_t>(r)].caused_straggler_ms);
  }
  if (report.consistent) {
    AppendF(&out,
            "  consistency: OK — parts sum to iteration time "
            "(max residual %.2f%% <= %.2f%%)\n",
            report.max_residual_fraction * 100.0, report.tolerance * 100.0);
  } else {
    AppendF(&out,
            "  consistency: FAILED — max residual %.2f%% > %.2f%% "
            "(overlapping or double-counted wait spans?)\n",
            report.max_residual_fraction * 100.0, report.tolerance * 100.0);
  }
  return out;
}

}  // namespace dear::analysis
