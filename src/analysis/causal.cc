#include "analysis/causal.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "analysis/timeline.h"
#include "comm/types.h"
#include "flightrec/recorder.h"

namespace dear::analysis {
namespace {

using flightrec::EventKind;
using flightrec::Record;

bool IsKind(const Record& rec, EventKind kind) {
  return rec.kind == static_cast<std::uint16_t>(kind);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

CausalGraph BuildCausalGraph(
    const std::vector<std::vector<Record>>& per_rank) {
  CausalGraph graph;
  graph.by_rank.resize(per_rank.size());
  std::size_t total = 0;
  for (const auto& records : per_rank) total += records.size();
  graph.events.reserve(total);
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    graph.by_rank[r].reserve(per_rank[r].size());
    for (const Record& rec : per_rank[r]) {
      graph.by_rank[r].push_back(graph.events.size());
      graph.events.push_back(CausalEvent{static_cast<int>(r), rec});
    }
  }
  // Pair sends with recvs by causal ID. IDs are unique per process run
  // (per-rank monotone send_seq), so a plain map suffices.
  std::unordered_map<std::uint64_t, std::size_t> send_by_causal;
  send_by_causal.reserve(total / 2 + 1);
  for (std::size_t i = 0; i < graph.events.size(); ++i) {
    if (IsKind(graph.events[i].rec, EventKind::kSend)) {
      send_by_causal.emplace(graph.events[i].rec.causal, i);
    }
  }
  for (std::size_t i = 0; i < graph.events.size(); ++i) {
    const CausalEvent& ev = graph.events[i];
    if (!IsKind(ev.rec, EventKind::kRecv)) continue;
    const auto it = send_by_causal.find(ev.rec.causal);
    if (it == send_by_causal.end()) {
      ++graph.unmatched_recvs;
      continue;
    }
    const CausalEvent& send = graph.events[it->second];
    MessageEdge edge;
    edge.send_event = it->second;
    edge.recv_event = i;
    edge.causal = ev.rec.causal;
    edge.latency_ns = ev.rec.ts_ns > send.rec.ts_ns
                          ? ev.rec.ts_ns - send.rec.ts_ns
                          : 0;
    if (send.rec.lamport >= ev.rec.lamport) graph.lamport_consistent = false;
    graph.edges.push_back(edge);
    send_by_causal.erase(it);
  }
  graph.unmatched_sends = send_by_causal.size();
  return graph;
}

CriticalChain MessageCriticalPath(const CausalGraph& graph) {
  // DP over events in per-rank program order. Each rank's journal is
  // already time-ordered, and a relayed chain must pass through a recv
  // that precedes the next send on the same rank — so one forward sweep
  // per rank suffices *if* processed in a global topological order.
  // Events are processed by ascending timestamp, which is a valid
  // topological order here: program order is timestamp order within a
  // rank, and a message edge always goes forward in time (latency >= 0 by
  // construction in BuildCausalGraph).
  const std::size_t n = graph.events.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return graph.events[a].rec.ts_ns <
                            graph.events[b].rec.ts_ns;
                   });

  // chain_at[i]: max cumulative message latency of any chain ending at
  // event i; via_edge[i]: the edge that closed that chain (or npos).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::uint64_t> chain_at(n, 0);
  std::vector<std::size_t> via_edge(n, kNone);
  // best_on_rank: running max over already-processed events of that rank
  // (program-order prefix), so a send inherits the best chain that ended
  // at or before it on its own rank.
  std::vector<std::uint64_t> best_on_rank(graph.by_rank.size(), 0);
  std::vector<std::size_t> best_on_rank_edge(graph.by_rank.size(), kNone);

  std::unordered_map<std::size_t, std::vector<std::size_t>> edges_from_send;
  edges_from_send.reserve(graph.edges.size());
  for (std::size_t e = 0; e < graph.edges.size(); ++e) {
    edges_from_send[graph.edges[e].send_event].push_back(e);
  }

  std::uint64_t best_total = 0;
  std::size_t best_event = kNone;
  for (const std::size_t i : order) {
    const CausalEvent& ev = graph.events[i];
    const auto rank = static_cast<std::size_t>(ev.rank);
    // Inherit the rank's best chain so far (program-order predecessor) —
    // unless this event is a recv whose incoming message edge already
    // offered a longer chain (applied when its send was processed).
    if (best_on_rank[rank] > chain_at[i]) {
      chain_at[i] = best_on_rank[rank];
      via_edge[i] = best_on_rank_edge[rank];
    }
    // A recv may instead close a chain through its message edge (handled
    // when the send was processed — see below). Edges are applied at the
    // *send* event: every outgoing edge offers recv a candidate chain.
    const auto out = edges_from_send.find(i);
    if (out != edges_from_send.end()) {
      for (const std::size_t e : out->second) {
        const MessageEdge& edge = graph.edges[e];
        const std::uint64_t candidate = chain_at[i] + edge.latency_ns;
        if (candidate > chain_at[edge.recv_event]) {
          chain_at[edge.recv_event] = candidate;
          via_edge[edge.recv_event] = e;
        }
      }
    }
    if (chain_at[i] > best_on_rank[rank]) {
      best_on_rank[rank] = chain_at[i];
      best_on_rank_edge[rank] = via_edge[i];
    }
    if (chain_at[i] > best_total) {
      best_total = chain_at[i];
      best_event = i;
    }
  }

  CriticalChain chain;
  chain.total_latency_ns = best_total;
  // Walk back through the contributing edges.
  std::size_t cur = best_event;
  while (cur != kNone && via_edge[cur] != kNone) {
    const std::size_t e = via_edge[cur];
    chain.edge_indices.push_back(e);
    // Continue from the send side of that edge.
    cur = graph.edges[e].send_event;
  }
  std::reverse(chain.edge_indices.begin(), chain.edge_indices.end());
  return chain;
}

std::string DescribeChain(const CausalGraph& graph,
                          const CriticalChain& chain) {
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "message-chain critical path: %zu hops, %.3f us in flight\n",
                chain.edge_indices.size(),
                static_cast<double>(chain.total_latency_ns) / 1e3);
  out += buf;
  for (const std::size_t e : chain.edge_indices) {
    const MessageEdge& edge = graph.edges[e];
    const CausalEvent& send = graph.events[edge.send_event];
    const CausalEvent& recv = graph.events[edge.recv_event];
    std::snprintf(buf, sizeof(buf),
                  "  rank %d -> rank %d  [%s]  %u bytes  %.3f us\n",
                  send.rank, recv.rank,
                  comm::tags::Describe(send.rec.tag).c_str(),
                  send.rec.payload,
                  static_cast<double>(edge.latency_ns) / 1e3);
    out += buf;
  }
  return out;
}

std::uint64_t EdgeSetFingerprint(const CausalGraph& graph) {
  // Sequence numbers come from process-lifetime per-channel counters (they
  // stay unique across TransportHub generations), so the same workload
  // traced twice in one process sees different absolute values. Rebase
  // each channel to its first sequence in this graph before hashing: the
  // fingerprint then depends only on the pairing structure, invariant
  // across both thread schedules and earlier traffic in the process.
  std::unordered_map<std::uint32_t, std::uint32_t> first_seq;  // chan -> min
  for (const MessageEdge& edge : graph.edges) {
    const auto chan = static_cast<std::uint32_t>(edge.causal >> 32);
    const std::uint32_t seq = flightrec::causal::SeqOf(edge.causal);
    const auto [it, inserted] = first_seq.emplace(chan, seq);
    if (!inserted && seq < it->second) it->second = seq;
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(graph.edges.size());
  for (const MessageEdge& edge : graph.edges) {
    const CausalEvent& send = graph.events[edge.send_event];
    const CausalEvent& recv = graph.events[edge.recv_event];
    const auto chan = static_cast<std::uint32_t>(edge.causal >> 32);
    const std::uint32_t seq = flightrec::causal::SeqOf(edge.causal);
    std::uint64_t h = kFnvOffset;
    h = FnvMix(h, (static_cast<std::uint64_t>(chan) << 32) |
                      (seq - first_seq[chan]));  // (src, dst, rebased seq)
    h = FnvMix(h, static_cast<std::uint64_t>(recv.rank));
    h = FnvMix(h, static_cast<std::uint64_t>(send.rec.tag));
    h = FnvMix(h, static_cast<std::uint64_t>(send.rec.payload));
    keys.push_back(h);
  }
  std::sort(keys.begin(), keys.end());
  std::uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<std::uint64_t>(keys.size()));
  for (const std::uint64_t k : keys) h = FnvMix(h, k);
  return h;
}

void BuildTimelineTrace(const CausalGraph& graph, TraceRecorder& out) {
  constexpr std::int64_t kCollectiveLane = 0;
  constexpr std::int64_t kMessageLane = 1;
  constexpr std::int64_t kGroupLane = 2;
  constexpr std::int64_t kWaitLane = 3;
  constexpr std::int64_t kIterationLane = 4;
  // Instants get a small fixed width so Perfetto renders a visible slice
  // to anchor the flow arrows on.
  constexpr SimTime kInstantWidthNs = 500;

  for (std::size_t r = 0; r < graph.by_rank.size(); ++r) {
    const auto pid = static_cast<std::int64_t>(r);
    out.SetProcessName(pid, "rank " + std::to_string(r));
    out.SetThreadName(pid, kCollectiveLane, "collectives");
    out.SetThreadName(pid, kMessageLane, "messages");
    out.SetThreadName(pid, kGroupLane, "groups");
    out.SetThreadName(pid, kWaitLane, "waits");
    out.SetThreadName(pid, kIterationLane, "iterations");
  }

  // Which events terminate a message edge, and with which flow ID.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> edge_of(graph.events.size(), kNone);
  for (std::size_t e = 0; e < graph.edges.size(); ++e) {
    edge_of[graph.edges[e].send_event] = e;
    edge_of[graph.edges[e].recv_event] = e;
  }

  for (std::size_t r = 0; r < graph.by_rank.size(); ++r) {
    for (const std::size_t i : graph.by_rank[r]) {
      const CausalEvent& ev = graph.events[i];
      const auto kind = static_cast<EventKind>(ev.rec.kind);
      TraceEvent te;
      te.pid = static_cast<std::int64_t>(r);
      switch (kind) {
        case EventKind::kSend:
        case EventKind::kRecv: {
          const bool is_send = kind == EventKind::kSend;
          te.name = std::string(is_send ? "send " : "recv ") +
                    comm::tags::Describe(ev.rec.tag);
          te.category = "msg";
          te.tid = kMessageLane;
          te.start = static_cast<SimTime>(ev.rec.ts_ns);
          te.duration = kInstantWidthNs;
          if (edge_of[i] != kNone) {
            // Flow IDs must be nonzero; causal ID 0:0 is valid, so offset.
            te.flow_id = ev.rec.causal + 1;
            te.flow_out = is_send;
            te.flow_in = !is_send;
          }
          break;
        }
        case EventKind::kRsLaunch:
        case EventKind::kRsComplete:
        case EventKind::kAgLaunch:
        case EventKind::kAgComplete:
        case EventKind::kUnpack: {
          te.name = std::string(flightrec::KindName(kind)) + " g" +
                    std::to_string(ev.rec.tag);
          te.category = "group";
          te.tid = kGroupLane;
          te.start = static_cast<SimTime>(ev.rec.ts_ns);
          te.duration = kInstantWidthNs;
          break;
        }
        case EventKind::kShutdown:
          te.name = "shutdown";
          te.category = "transport";
          te.tid = kMessageLane;
          te.start = static_cast<SimTime>(ev.rec.ts_ns);
          te.duration = kInstantWidthNs;
          break;
        default:
          continue;
      }
      out.Record(std::move(te));
    }

    // The paired spans: collective brackets, DistOptim's blocked waits and
    // the iteration windows the attribution report decomposes.
    std::vector<Record> records;
    records.reserve(graph.by_rank[r].size());
    for (const std::size_t i : graph.by_rank[r])
      records.push_back(graph.events[i].rec);
    const ScheduleSpans spans = PairScheduleRecords(records);
    const auto slice = [&](std::string name, const char* category,
                           std::int64_t lane, const Interval& span) {
      TraceEvent te;
      te.name = std::move(name);
      te.category = category;
      te.pid = static_cast<std::int64_t>(r);
      te.tid = lane;
      te.start = span.begin;
      te.duration = span.length();
      out.Record(std::move(te));
    };
    for (const auto& c : spans.collectives)
      slice(comm::CollectiveKindName(c.kind), "collective", kCollectiveLane,
            c.span);
    for (const auto& w : spans.waits)
      slice(std::string(w.ag ? "wait ag g" : "wait rs g") +
                std::to_string(w.group),
            "wait", kWaitLane, w.span);
    for (const auto& w : spans.windows)
      slice("iteration " + std::to_string(w.step), "iteration",
            kIterationLane, w.span);
  }
}

}  // namespace dear::analysis
