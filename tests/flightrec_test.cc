// Flight-recorder tests: the journal's lock-free ring (wraparound,
// concurrent writers, torn-read safety of live snapshots), the recorder's
// causal stamping through a real TransportHub, and the post-hoc merger
// (edge matching, Lamport consistency, critical path, fingerprint).
//
// The concurrency tests are the TSan tier for satellite 3: a writer pool
// and a snapshotting reader race on the same ring; any non-atomic access
// or mis-published record trips the sanitizer build.
#include "flightrec/journal.h"
#include "flightrec/recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/causal.h"
#include "comm/collectives.h"
#include "comm/probe.h"
#include "comm/transport.h"
#include "test_env.h"

namespace dear::flightrec {
namespace {

// DumpPrefix() caches getenv at its first call, so the variable must be in
// place before any hub shutdown or checker trip in this binary. Overwrites
// any inherited value to keep the expected filename deterministic.
const bool g_dump_env = [] {
  ::setenv("DEAR_FLIGHTREC_DUMP", "flightrec-test-dump", 1);
  return true;
}();

// Encodes a writer-thread/index pair into every Record field so a torn
// read (words mixed from two different appends) is detectable: each field
// is a distinct function of the same 64-bit key.
Record MakeKeyed(std::uint64_t key) {
  Record rec;
  rec.ts_ns = key;
  rec.causal = key * 3 + 1;
  rec.lamport = static_cast<std::uint32_t>(key * 7 + 2);
  rec.tag = static_cast<std::uint32_t>(key * 11 + 3);
  rec.payload = static_cast<std::uint32_t>(key * 13 + 4);
  rec.kind = static_cast<std::uint16_t>(EventKind::kSend);
  rec.peer = static_cast<std::uint16_t>(key & 0x7FFF);
  return rec;
}

void ExpectKeyed(const Record& rec) {
  const std::uint64_t key = rec.ts_ns;
  EXPECT_EQ(rec.causal, key * 3 + 1);
  EXPECT_EQ(rec.lamport, static_cast<std::uint32_t>(key * 7 + 2));
  EXPECT_EQ(rec.tag, static_cast<std::uint32_t>(key * 11 + 3));
  EXPECT_EQ(rec.payload, static_cast<std::uint32_t>(key * 13 + 4));
  EXPECT_EQ(rec.kind, static_cast<std::uint16_t>(EventKind::kSend));
  EXPECT_EQ(rec.peer, static_cast<std::uint16_t>(key & 0x7FFF));
}

TEST(JournalTest, CapacityRoundsUpToPowerOfTwoMinimum64) {
  EXPECT_EQ(Journal(0).capacity(), 64u);
  EXPECT_EQ(Journal(1).capacity(), 64u);
  EXPECT_EQ(Journal(64).capacity(), 64u);
  EXPECT_EQ(Journal(65).capacity(), 128u);
  EXPECT_EQ(Journal(8192).capacity(), 8192u);
}

TEST(JournalTest, SnapshotReturnsRecordsOldestFirst) {
  Journal journal(64);
  for (std::uint64_t i = 0; i < 10; ++i) journal.Append(MakeKeyed(i));
  std::vector<Record> out;
  journal.SnapshotInto(out);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].ts_ns, i);
    ExpectKeyed(out[i]);
  }
}

TEST(JournalTest, WraparoundKeepsExactlyTheLastCapacityRecords) {
  Journal journal(64);
  const std::uint64_t total = 64 * 3 + 17;  // several laps, off-aligned
  for (std::uint64_t i = 0; i < total; ++i) journal.Append(MakeKeyed(i));
  EXPECT_EQ(journal.total(), total);

  std::vector<Record> out;
  journal.SnapshotInto(out);
  ASSERT_EQ(out.size(), journal.capacity());
  // The live window is [total - capacity, total), oldest first.
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].ts_ns, total - journal.capacity() + i);
    ExpectKeyed(out[i]);
  }
}

// Every writer lane holds `capacity` records, so the journal-wide total is
// not a wrap signal: wrapped() is, and only once a lane passes capacity.
TEST(JournalTest, WrappedOnlyWhenALaneOverwrites) {
  {
    // Two lanes of 40 in a 64-slot journal: 80 records, none lost.
    Journal journal(64);
    for (std::uint64_t i = 0; i < 40; ++i) journal.Append(MakeKeyed(i));
    std::thread other([&] {
      for (std::uint64_t i = 40; i < 80; ++i) journal.Append(MakeKeyed(i));
    });
    other.join();
    EXPECT_EQ(journal.total(), 80u);
    EXPECT_FALSE(journal.wrapped());
    std::vector<Record> out;
    journal.SnapshotInto(out);
    EXPECT_EQ(out.size(), 80u);
  }
  {
    // One lane of exactly capacity records loses nothing.
    Journal journal(64);
    for (std::uint64_t i = 0; i < 64; ++i) journal.Append(MakeKeyed(i));
    EXPECT_FALSE(journal.wrapped());
    std::vector<Record> out;
    journal.SnapshotInto(out);
    EXPECT_EQ(out.size(), 64u);
  }
  {
    // One more and the oldest record is gone.
    Journal journal(64);
    for (std::uint64_t i = 0; i < 65; ++i) journal.Append(MakeKeyed(i));
    EXPECT_TRUE(journal.wrapped());
    std::vector<Record> out;
    journal.SnapshotInto(out);
    ASSERT_EQ(out.size(), 64u);
    EXPECT_EQ(out.front().ts_ns, 1u);
    journal.Reset();
    EXPECT_FALSE(journal.wrapped());
  }
}

TEST(JournalTest, ResetRewindsToEmpty) {
  Journal journal(64);
  for (std::uint64_t i = 0; i < 100; ++i) journal.Append(MakeKeyed(i));
  journal.Reset();
  EXPECT_EQ(journal.total(), 0u);
  std::vector<Record> out;
  journal.SnapshotInto(out);
  EXPECT_TRUE(out.empty());
  journal.Append(MakeKeyed(7));
  journal.SnapshotInto(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts_ns, 7u);
}

TEST(JournalTest, ConcurrentWritersLoseNothingBelowCapacity) {
  // 4 writers x 256 records into a 2048-slot ring: nothing is evicted, so
  // every append must appear exactly once in the final snapshot.
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 256;
  Journal journal(kWriters * kPerWriter * 2);
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&journal, t] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i)
        journal.Append(MakeKeyed((static_cast<std::uint64_t>(t) << 32) | i));
    });
  }
  for (auto& th : writers) th.join();

  std::vector<Record> out;
  journal.SnapshotInto(out);
  ASSERT_EQ(out.size(), kWriters * kPerWriter);
  std::vector<int> seen(kWriters, 0);
  for (const Record& rec : out) {
    ExpectKeyed(rec);
    const int writer = static_cast<int>(rec.ts_ns >> 32);
    ASSERT_LT(writer, kWriters);
    ++seen[static_cast<std::size_t>(writer)];
  }
  for (int t = 0; t < kWriters; ++t)
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], kPerWriter);
}

TEST(JournalTest, SnapshotDuringActiveWritesIsNeverTorn) {
  // Satellite 3's torn-read case: a small ring lapped continuously by
  // several writers while a reader snapshots in a loop. Every record a
  // snapshot returns must be internally consistent (all fields derived
  // from the same key) — a slot caught mid-overwrite must be dropped, not
  // returned as a Frankenstein of two appends.
  Journal journal(64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> next_key{0};
  constexpr int kWriters = 3;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed))
        journal.Append(
            MakeKeyed(next_key.fetch_add(1, std::memory_order_relaxed)));
    });
  }

  std::vector<Record> out;
  std::size_t snapshots = 0;
  std::size_t records_checked = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + testenv::ScaledMs(200);
  while (std::chrono::steady_clock::now() < deadline) {
    out.clear();  // SnapshotInto appends
    journal.SnapshotInto(out);
    ++snapshots;
    records_checked += out.size();
    // Each writer thread keeps a private lane of `capacity` records.
    ASSERT_LE(out.size(), journal.capacity() * kWriters);
    for (const Record& rec : out) ExpectKeyed(rec);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
  // The loop must have actually exercised the race.
  EXPECT_GT(snapshots, 10u);
  EXPECT_GT(records_checked, 0u);
  EXPECT_GT(journal.total(), journal.capacity());
}

TEST(JournalTest, LamportObserveMergesSenderClock) {
  Journal journal(64);
  EXPECT_EQ(journal.Tick(), 1u);
  EXPECT_EQ(journal.Tick(), 2u);
  // Receive from a sender far ahead: clock jumps to max(local, sender)+1.
  EXPECT_EQ(journal.Observe(100), 101u);
  // Receive from a sender behind: still strictly advances.
  EXPECT_EQ(journal.Observe(5), 102u);
  EXPECT_EQ(journal.lamport(), 102u);
}

TEST(CausalIdTest, MakeRoundTrips) {
  const std::uint64_t id = causal::Make(7, 3, 123456u);
  EXPECT_EQ(causal::SrcOf(id), 7);
  EXPECT_EQ(causal::DstOf(id), 3);
  EXPECT_EQ(causal::SeqOf(id), 123456u);
  EXPECT_EQ(causal::SrcOf(causal::Make(511, 0, 0)), 511);
  EXPECT_EQ(causal::DstOf(causal::Make(0, 511, 0)), 511);
  // Same seq on two channels is two distinct message identities.
  EXPECT_NE(causal::Make(0, 1, 5), causal::Make(0, 2, 5));
}

// ---------------------------------------------------------------------------
// Recorder + transport integration: real messages through a real hub.

TEST(RecorderTest, TransportStampsCausalIdsAndMergerMatchesThem) {
  auto& recorder = Recorder::Get();
  recorder.Reset();
  comm::TransportHub hub(2);
  hub.Send(0, 1, 42, std::vector<float>{1.0f, 2.0f});
  hub.Send(1, 0, 43, std::vector<float>{3.0f});
  ASSERT_TRUE(hub.Recv(0, 1, 42).ok());
  ASSERT_TRUE(hub.Recv(1, 0, 43).ok());

  const auto graph = analysis::BuildCausalGraph(recorder.SnapshotAll());
  ASSERT_EQ(graph.edges.size(), 2u);
  EXPECT_EQ(graph.unmatched_sends, 0u);
  EXPECT_EQ(graph.unmatched_recvs, 0u);
  EXPECT_TRUE(graph.lamport_consistent);
  for (const auto& edge : graph.edges) {
    const auto& send = graph.events[edge.send_event];
    const auto& recv = graph.events[edge.recv_event];
    EXPECT_EQ(send.rec.kind, static_cast<std::uint16_t>(EventKind::kSend));
    EXPECT_EQ(recv.rec.kind, static_cast<std::uint16_t>(EventKind::kRecv));
    // The causal ID names the sender: (src_rank, send_seq).
    EXPECT_EQ(causal::SrcOf(edge.causal), send.rank);
    EXPECT_EQ(send.rec.tag, recv.rec.tag);
    EXPECT_EQ(send.rec.payload, recv.rec.payload);
    // Lamport: the receive stamp is strictly after the send stamp.
    EXPECT_LT(send.rec.lamport, recv.rec.lamport);
  }
}

TEST(RecorderTest, RingAllReduceLinksEverySendToItsRecv) {
  auto& recorder = Recorder::Get();
  recorder.Reset();
  constexpr int kWorld = 3;
  comm::TransportHub hub(kWorld);
  std::vector<std::vector<float>> data(kWorld, {1.0f, 2.0f, 3.0f});
  std::vector<std::thread> ranks;
  for (int r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&hub, &data, r] {
      comm::Communicator comm(&hub, r);
      ASSERT_TRUE(comm::RingAllReduce(comm, std::span<float>(data[r]),
                                      comm::ReduceOp::kSum)
                      .ok());
    });
  }
  for (auto& th : ranks) th.join();
  for (int r = 0; r < kWorld; ++r)
    EXPECT_EQ(data[static_cast<std::size_t>(r)],
              (std::vector<float>{3.0f, 6.0f, 9.0f}));

  const auto graph = analysis::BuildCausalGraph(recorder.SnapshotAll());
  // Ring all-reduce on 3 ranks: 2(N-1) steps x N messages = 12 edges.
  EXPECT_EQ(graph.edges.size(), 12u);
  EXPECT_EQ(graph.unmatched_sends, 0u);
  EXPECT_EQ(graph.unmatched_recvs, 0u);
  EXPECT_TRUE(graph.lamport_consistent);

  // The collective bracket is journaled always-on (no dearcheck enable).
  std::size_t begins = 0, ends = 0;
  for (const auto& event : graph.events) {
    if (event.rec.kind == static_cast<std::uint16_t>(EventKind::kCollectiveBegin))
      ++begins;
    if (event.rec.kind == static_cast<std::uint16_t>(EventKind::kCollectiveEnd))
      ++ends;
  }
  EXPECT_EQ(begins, static_cast<std::size_t>(kWorld));
  EXPECT_EQ(ends, static_cast<std::size_t>(kWorld));

  // The critical path chains at least N-1 hops (data must cross the ring).
  const auto chain = analysis::MessageCriticalPath(graph);
  EXPECT_GE(chain.edge_indices.size(), static_cast<std::size_t>(kWorld - 1));
  const std::string described = analysis::DescribeChain(graph, chain);
  EXPECT_NE(described.find("rank"), std::string::npos);
}

TEST(RecorderTest, ShutdownJournalsOneRecordPerRank) {
  auto& recorder = Recorder::Get();
  recorder.Reset();
  {
    comm::TransportHub hub(2);
    hub.Send(0, 1, 1, std::vector<float>{1.0f});
    ASSERT_TRUE(hub.Recv(0, 1, 1).ok());
    hub.Shutdown();
  }
  const auto snapshots = recorder.SnapshotAll();
  ASSERT_GE(snapshots.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    const auto& records = snapshots[static_cast<std::size_t>(r)];
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.back().kind,
              static_cast<std::uint16_t>(EventKind::kShutdown));
  }
}

TEST(RecorderTest, DumpTailNamesKindsPeersAndCausalIds) {
  auto& recorder = Recorder::Get();
  recorder.Reset();
  comm::TransportHub hub(2);
  hub.Send(0, 1, 42, std::vector<float>{1.0f, 2.0f});
  ASSERT_TRUE(hub.Recv(0, 1, 42).ok());
  const std::string dump = recorder.DumpTail(8);
  EXPECT_NE(dump.find("rank 0"), std::string::npos);
  EXPECT_NE(dump.find("rank 1"), std::string::npos);
  EXPECT_NE(dump.find("send"), std::string::npos);
  EXPECT_NE(dump.find("recv"), std::string::npos);
  EXPECT_NE(dump.find("msg=0:"), std::string::npos);  // causal src:seq
}

TEST(RecorderTest, CollectiveEndCarriesTheWireDtype) {
  auto& recorder = Recorder::Get();
  recorder.Reset();
  recorder.EnsureRanks(1);
  {
    comm::probe::CollectiveProbe f32(0, comm::CollectiveKind::kRingAllGather,
                                     64);
  }
  {
    comm::probe::CollectiveProbe f16(
        0, comm::CollectiveKind::kRingReduceScatter, 64, comm::DType::kF16);
  }
  const auto records = recorder.SnapshotAll()[0];
  ASSERT_EQ(records.size(), 4u);
  // fp32 brackets are byte-identical to a journal without the field.
  EXPECT_EQ(records[1].payload, 0u);
  EXPECT_EQ(records[3].payload,
            static_cast<std::uint32_t>(comm::DType::kF16));
  const std::string dump = recorder.DumpTail(4);
  EXPECT_NE(dump.find("ring_all_gather (f32 wire)"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("ring_reduce_scatter (f16 wire)"), std::string::npos)
      << dump;
}

TEST(RecorderTest, MaybeWriteDumpWritesTailFile) {
  ASSERT_TRUE(g_dump_env);
  auto& recorder = Recorder::Get();
  recorder.Reset();
  comm::TransportHub hub(2);
  hub.Send(0, 1, 3, std::vector<float>{1.0f});
  ASSERT_TRUE(hub.Recv(0, 1, 3).ok());
  const std::string path = recorder.MaybeWriteDump("unit");
  ASSERT_EQ(path, "flightrec-test-dump-unit.txt");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("flight-recorder dump (unit)"),
            std::string::npos);
  EXPECT_NE(contents.str().find("send"), std::string::npos);
  std::remove(path.c_str());
  // The shutdown dump from the hub destructor lands next to it; clean both.
  std::remove("flightrec-test-dump-shutdown.txt");
}

TEST(RecorderTest, OutOfRangeRankHooksAreNoOps) {
  auto& recorder = Recorder::Get();
  recorder.Reset();
  EXPECT_EQ(recorder.journal(-1), nullptr);
  EXPECT_EQ(recorder.journal(Recorder::kMaxRanks + 5), nullptr);
  // Must not crash; nothing to journal on.
  recorder.OnGroupEvent(Recorder::kMaxRanks + 5, 0, EventKind::kRsLaunch);
  recorder.OnRecv(-3, 0, 0, 0, 0, 0);
}

// ---------------------------------------------------------------------------
// Merger on synthetic journals: exact control over the DAG shape.

Record SyntheticSend(std::uint64_t ts, int src, std::uint32_t seq,
                     std::uint32_t lamport, std::uint32_t tag,
                     std::uint32_t bytes, int dst) {
  Record rec;
  rec.ts_ns = ts;
  rec.causal = causal::Make(src, dst, seq);
  rec.lamport = lamport;
  rec.tag = tag;
  rec.payload = bytes;
  rec.kind = static_cast<std::uint16_t>(EventKind::kSend);
  rec.peer = static_cast<std::uint16_t>(dst);
  return rec;
}

Record SyntheticRecv(std::uint64_t ts, int src, int dst, std::uint32_t seq,
                     std::uint32_t lamport, std::uint32_t tag,
                     std::uint32_t bytes) {
  Record rec = SyntheticSend(ts, src, seq, lamport, tag, bytes, dst);
  rec.kind = static_cast<std::uint16_t>(EventKind::kRecv);
  rec.peer = static_cast<std::uint16_t>(src);
  return rec;
}

TEST(CausalGraphTest, CriticalPathFollowsTheRelayChain) {
  // rank 0 --(10us)--> rank 1 --(30us)--> rank 2, plus a fat one-hop
  // red herring 0 -> 2 at 35us. The relay chain (40us total) must win.
  std::vector<std::vector<Record>> per_rank(3);
  per_rank[0].push_back(SyntheticSend(1000, 0, 0, 1, 7, 64, 1));
  per_rank[0].push_back(SyntheticSend(1100, 0, 1, 2, 9, 64, 2));
  per_rank[1].push_back(SyntheticRecv(11000, 0, 1, 0, 2, 7, 64));
  per_rank[1].push_back(SyntheticSend(12000, 1, 0, 3, 8, 64, 2));
  per_rank[2].push_back(SyntheticRecv(36100, 0, 2, 1, 3, 9, 64));
  per_rank[2].push_back(SyntheticRecv(42000, 1, 2, 0, 4, 8, 64));

  const auto graph = analysis::BuildCausalGraph(per_rank);
  ASSERT_EQ(graph.edges.size(), 3u);
  EXPECT_TRUE(graph.lamport_consistent);

  const auto chain = analysis::MessageCriticalPath(graph);
  ASSERT_EQ(chain.edge_indices.size(), 2u);
  EXPECT_EQ(chain.total_latency_ns, 10000u + 30000u);
  EXPECT_EQ(graph.edges[chain.edge_indices[0]].causal, causal::Make(0, 1, 0));
  EXPECT_EQ(graph.edges[chain.edge_indices[1]].causal, causal::Make(1, 2, 0));
}

TEST(CausalGraphTest, UnmatchedEndpointsAreCounted) {
  std::vector<std::vector<Record>> per_rank(2);
  per_rank[0].push_back(SyntheticSend(100, 0, 0, 1, 1, 8, 1));  // in flight
  per_rank[1].push_back(SyntheticRecv(200, 0, 1, 9, 5, 2, 8));  // evicted send
  const auto graph = analysis::BuildCausalGraph(per_rank);
  EXPECT_TRUE(graph.edges.empty());
  EXPECT_EQ(graph.unmatched_sends, 1u);
  EXPECT_EQ(graph.unmatched_recvs, 1u);
}

TEST(CausalGraphTest, LamportViolationIsFlagged) {
  std::vector<std::vector<Record>> per_rank(2);
  per_rank[0].push_back(SyntheticSend(100, 0, 0, 9, 1, 8, 1));
  per_rank[1].push_back(SyntheticRecv(200, 0, 1, 0, 9, 1, 8));  // not after send
  const auto graph = analysis::BuildCausalGraph(per_rank);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_FALSE(graph.lamport_consistent);
}

TEST(CausalGraphTest, FingerprintIgnoresTimeButNotPairing) {
  std::vector<std::vector<Record>> base(2);
  base[0].push_back(SyntheticSend(100, 0, 0, 1, 1, 8, 1));
  base[0].push_back(SyntheticSend(200, 0, 1, 2, 2, 16, 1));
  base[1].push_back(SyntheticRecv(300, 0, 1, 0, 2, 1, 8));
  base[1].push_back(SyntheticRecv(400, 0, 1, 1, 3, 2, 16));
  const std::uint64_t fp = analysis::EdgeSetFingerprint(
      analysis::BuildCausalGraph(base));

  // Shift every timestamp and Lamport clock: same edge set, same print.
  auto shifted = base;
  for (auto& records : shifted)
    for (auto& rec : records) {
      rec.ts_ns += 100000;
      rec.lamport += 50;
    }
  EXPECT_EQ(analysis::EdgeSetFingerprint(analysis::BuildCausalGraph(shifted)),
            fp);

  // Change one message's payload size: different edge set, different print.
  auto changed = base;
  changed[0][1].payload = 32;
  changed[1][1].payload = 32;
  EXPECT_NE(analysis::EdgeSetFingerprint(analysis::BuildCausalGraph(changed)),
            fp);
}

TEST(CausalGraphTest, TimelineTraceCarriesFlowArrows) {
  auto& recorder = Recorder::Get();
  recorder.Reset();
  comm::TransportHub hub(2);
  hub.Send(0, 1, 5, std::vector<float>{1.0f});
  ASSERT_TRUE(hub.Recv(0, 1, 5).ok());

  const auto graph = analysis::BuildCausalGraph(recorder.SnapshotAll());
  ASSERT_EQ(graph.edges.size(), 1u);
  TraceRecorder trace;
  analysis::BuildTimelineTrace(graph, trace);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"bind_id\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

}  // namespace
}  // namespace dear::flightrec
