// Standalone comm-layer probes: the training workload's fusion plan replayed
// on a fresh TransportHub + CommEngines (collectives), one Send/Recv hop per
// ring chunk (transport), and the pack / fused-reduce kernels per chunk.
#include <algorithm>
#include <atomic>
#include <climits>
#include <filesystem>
#include <iostream>
#include <string_view>
#include <thread>

#include "comm/async.h"
#include "comm/kernels.h"
#include "comm/transport.h"
#include "workloads.h"

namespace perfbench {

namespace comm = dear::comm;

namespace {

/// Elements one ring hop carries for a group of `elems` at world W.
std::size_t ChunkElems(std::size_t elems) {
  return std::max<std::size_t>(
      1, (elems + kTrainWorld - 1) / static_cast<std::size_t>(kTrainWorld));
}

/// Repetitions one span covers: ~64 Ki elements, so the clock reads stay
/// small next to the work even on the smallest chunks, and a probe records
/// a few thousand spans rather than millions.
std::size_t RepsFor(std::size_t chunk) {
  return std::max<std::size_t>(1, 65536 / chunk);
}

std::vector<float> Ramp(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 1e-3f * static_cast<float>(i % 7) - 2e-3f;
  return v;
}

}  // namespace

double MedianSpanUs(const trace::Recorder& rec, const char* name) {
  std::vector<double> us;
  for (const auto& s : rec.spans())
    if (std::string_view(s.name) == name)
      us.push_back(static_cast<double>(s.duration()) / 1e3);
  return Quantile(us, 0.5);
}

void FinishTrace(const Options& options,
                 const std::vector<const trace::Recorder*>& recorders,
                 Result& result) {
  double spans = 0, runtime_spans = 0;
  for (const auto* r : recorders) {
    const std::string defect = trace::CheckNesting(r->spans());
    if (!defect.empty()) {
      std::cout << "# trace defect on thread " << r->thread() << ": " << defect
                << "\n";
      result.checks_ok = false;
    }
    for (const auto& s : r->spans()) {
      ++spans;
      const std::string_view n(s.name);
      for (const char* layer : {"train.", "core.", "comm.", "kernels."})
        if (n.starts_with(layer)) ++runtime_spans;
    }
  }
  result.values["trace.spans"] = spans;
  result.values["trace.runtime_spans"] = runtime_spans;
  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".trace.json";
  if (trace::WriteChromeTrace(path, recorders))
    std::cout << "# trace written to " << path << "\n";
  else
    std::cout << "# warning: could not write " << path << "\n";
}

bool ProbeCollectives(const std::vector<std::size_t>& group_elems,
                      comm::DType dtype, double seconds, trace::Recorder& rec,
                      Values& values) {
  comm::TransportHub hub(kTrainWorld);
  std::atomic<std::uint64_t> wire_bytes{0};
  hub.SetPackHook([&wire_bytes](comm::DType d, std::span<const float> data,
                                comm::PooledBuffer& payload) {
    comm::kernels::Pack(d, payload.wire_data(), data);
    wire_bytes.fetch_add(data.size() * comm::DTypeSize(d),
                         std::memory_order_relaxed);
  });
  std::atomic<long> stop_at{LONG_MAX};
  std::atomic<bool> ok{true};
  long rounds = 0;
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);

  auto rank_main = [&](int r) {
    comm::CommEngine engine(comm::Communicator(&hub, r));
    trace::Recorder silent(r);
    trace::Recorder& my = r == 0 ? rec : silent;
    my.set_enabled(true);
    std::vector<std::vector<float>> bufs;
    for (auto n : group_elems) bufs.push_back(Ramp(n));
    const auto begin = trace::NowNs();
    long round = 0;
    // Both ranks run the same round count: rank 0 publishes the last round
    // one round ahead, and rank 1 cannot finish that round without it.
    for (; round < stop_at.load(std::memory_order_acquire); ++round) {
      trace::Scope root(my, "probe.comm");
      for (auto& buf : bufs) {
        {
          trace::Scope s(my, "comm.rs");
          if (!engine.SubmitReduceScatter(buf, comm::ReduceOp::kAvg, dtype)
                   .Wait()
                   .ok())
            ok = false;
        }
        {
          trace::Scope s(my, "comm.ag");
          if (!engine.SubmitAllGather(buf, dtype).Wait().ok()) ok = false;
        }
      }
      if (r == 0 && trace::NowNs() - begin >= budget &&
          stop_at.load(std::memory_order_acquire) == LONG_MAX)
        stop_at.store(round + 2, std::memory_order_release);
    }
    my.set_enabled(false);
    engine.Shutdown();
    if (r == 0) rounds = round;
  };
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kTrainWorld; ++r) threads.emplace_back(rank_main, r);
    for (auto& t : threads) t.join();
  }
  hub.Shutdown();

  double app_bytes = 0.0, op_ns = 0.0;
  std::size_t g = 0;
  for (const auto& s : rec.spans()) {
    const std::string_view name(s.name);
    if (name == "comm.rs" || name == "comm.ag") op_ns += s.duration();
    if (name == "comm.rs")  // one RS+AG pair all-reduces the group once
      app_bytes +=
          4.0 * static_cast<double>(group_elems[g++ % group_elems.size()]);
  }
  values["comm.rs_us"] = MedianSpanUs(rec, "comm.rs");
  values["comm.ag_us"] = MedianSpanUs(rec, "comm.ag");
  values["comm.algbw_gbps"] = op_ns > 0 ? app_bytes / op_ns : 0.0;
  values["comm.wire_bytes_per_step"] =
      rounds > 0 ? static_cast<double>(wire_bytes.load()) /
                       static_cast<double>(rounds * kTrainWorld)
                 : 0.0;
  return ok && rounds > 0;
}

bool ProbeHops(const std::vector<std::size_t>& group_elems, comm::DType dtype,
               double seconds, trace::Recorder& rec, Values& values) {
  comm::TransportHub hub(kTrainWorld);
  const auto tag = comm::tags::MakeTag(comm::tags::kTagReduceScatter, 0);
  std::size_t max_chunk = 0;
  for (auto n : group_elems) max_chunk = std::max(max_chunk, ChunkElems(n));
  const auto src = Ramp(max_chunk);
  bool ok = true;
  std::vector<double> hop_us;
  rec.set_enabled(true);
  const auto end = trace::NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  while (trace::NowNs() < end && ok) {
    trace::Scope root(rec, "probe.hop");
    for (auto n : group_elems) {
      const std::size_t c = ChunkElems(n);
      const std::size_t reps = RepsFor(c);
      const auto t = trace::NowNs();
      {
        trace::Scope s(rec, "comm.hop");
        for (std::size_t i = 0; i < reps && ok; ++i) {
          ok = hub.Send(0, 1, tag, std::span<const float>(src.data(), c), 0,
                        dtype);
          ok = ok && hub.Recv(0, 1, tag).ok();  // the message dies here
        }
      }
      hop_us.push_back(static_cast<double>(trace::NowNs() - t) / 1e3 /
                       static_cast<double>(reps));
    }
  }
  rec.set_enabled(false);
  hub.Shutdown();
  values["comm.hop_us"] = Quantile(hop_us, 0.5);
  return ok;
}

void ProbeKernels(const std::vector<std::size_t>& group_elems,
                  comm::DType dtype, double seconds, trace::Recorder& rec,
                  Values& values) {
  comm::BufferPool pool;
  std::size_t max_chunk = 0;
  for (auto n : group_elems) max_chunk = std::max(max_chunk, ChunkElems(n));
  const auto src = Ramp(max_chunk);
  std::vector<float> acc(max_chunk, 0.0f);
  std::vector<comm::PooledBuffer> payloads;
  for (auto n : group_elems) {
    payloads.push_back(pool.Acquire(ChunkElems(n), dtype));
    comm::kernels::Pack(dtype, payloads.back().wire_data(),
                        std::span<const float>(src.data(), ChunkElems(n)));
  }
  double bytes = 0.0;  // fp32 bytes each kernel has processed
  rec.set_enabled(true);
  const auto end = trace::NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  while (trace::NowNs() < end) {
    trace::Scope root(rec, "probe.kernels");
    for (std::size_t g = 0; g < group_elems.size(); ++g) {
      const std::size_t c = payloads[g].size();
      const std::size_t reps = RepsFor(c);
      {
        trace::Scope s(rec, "kernels.pack");
        for (std::size_t i = 0; i < reps; ++i)
          comm::kernels::Pack(dtype, payloads[g].wire_data(),
                              std::span<const float>(src.data(), c));
      }
      {
        trace::Scope s(rec, "kernels.reduce");
        for (std::size_t i = 0; i < reps; ++i)
          comm::kernels::ReduceInto(comm::ReduceOp::kSum,
                                    std::span<float>(acc.data(), c),
                                    payloads[g]);
      }
      bytes += 4.0 * static_cast<double>(c * reps);
    }
    std::fill(acc.begin(), acc.end(), 0.0f);
  }
  rec.set_enabled(false);
  double pack_ns = 0.0, reduce_ns = 0.0;
  for (const auto& s : rec.spans()) {
    if (std::string_view(s.name) == "kernels.pack") pack_ns += s.duration();
    if (std::string_view(s.name) == "kernels.reduce") reduce_ns += s.duration();
  }
  values["kernels.pack_gbps"] = pack_ns > 0 ? bytes / pack_ns : 0.0;
  values["kernels.reduce_gbps"] = reduce_ns > 0 ? bytes / reduce_ns : 0.0;
}

}  // namespace perfbench
