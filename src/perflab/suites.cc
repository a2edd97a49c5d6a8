#include "perflab/suites.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "check/checker.h"
#include "comm/collectives.h"
#include "comm/cost_model.h"
#include "comm/kernels.h"
#include "comm/membership.h"
#include "comm/probe.h"
#include "comm/worker_group.h"
#include "common/half.h"
#include "common/rng.h"
#include "common/schedule_point.h"
#include "common/sim_time.h"
#include "core/trainer.h"
#include "flightrec/recorder.h"
#include "fusion/plan.h"
#include "model/zoo.h"
#include "perflab/samplers.h"
#include "sched/multiworker.h"
#include "sched/policies.h"
#include "sched/runner.h"
#include "train/data.h"
#include "train/mlp.h"
#include "tune/gp.h"
#include "tune/search.h"

namespace dear::perflab {
namespace {

using Params = std::map<std::string, std::string>;
using Samples = StatusOr<std::vector<double>>;
using Body = std::function<Samples(const RowContext&)>;

// Gate ceilings by metric class (see header): wall-clock numbers move with
// the machine, exact counts and simulator outputs must not move at all.
constexpr double kWallGate = 3.0;
constexpr unsigned kBoth = kQuick | kFull;

/// 0 heap allocations in every window. Allocation rows record 1 + allocs
/// per op, because perf_gate cannot ratio-gate a 0 median: the scale
/// floors at exactly 1.0.
constexpr Bar kZeroAllocs{Bar::Stat::kMax, Bar::Cmp::kAtMost, 1.0, kBoth};

Bar TimingBar(Bar::Cmp cmp, double threshold) {
  return {Bar::Stat::kMedian, cmp, threshold, kFull};
}

double Median(const std::vector<double>& samples) {
  return SampleQuantile(samples, 0.5);
}

std::vector<double> Scaled(std::vector<double> samples, double factor) {
  for (double& s : samples) s *= factor;
  return samples;
}

// ---- Workloads ------------------------------------------------------------

// Hop-loop rows: a 1 MiB fp32 buffer at world 16, 64 KiB per hop (paper
// scale for a fused group).
constexpr std::size_t kHopElems = 256 * 1024;
constexpr int kHopWorld = 16;
constexpr int kHopsPerLoop = 2 * (kHopWorld - 1);
const Params kHopParams = {{"mib", "1"}, {"world", "16"}};

// The small collective every hook-overhead bar is charged against: a
// 2-rank 4 KiB all-reduce on a fresh hub and fresh engines.
const Params kSmallParams = {{"kb", "4"}, {"world", "2"}};
void SmallAllReduce() { EngineRing(2, 1024).AllReduce(); }

/// Membership whose liveness deadline is out of reach: rows measure the
/// steady-state epoch bookkeeping, not detector firings.
comm::MembershipOptions QuietMembership() {
  comm::MembershipOptions options;
  options.deadline_mult = 1e6;
  return options;
}

/// Heap allocations per steady-state pooled send + receive + fold of a
/// 64 Ki-float buffer in `dtype`, epoch-stamped when `membership`.
Samples AllocsPerMessage(int repeats, comm::DType dtype, bool membership) {
  comm::TransportHub hub(1);
  std::optional<comm::Membership> members;
  if (membership) members.emplace(&hub, QuietMembership());
  const std::vector<float> payload(64 * 1024, 1.25f);
  std::vector<float> acc(payload.size(), 0.0f);
  std::uint32_t tag = 0;
  return AllocsPerOp(repeats, 64, [&] {
    const std::uint32_t epoch = members ? members->epoch() : 0;
    hub.Send(0, 0, tag, payload, epoch, dtype);
    auto msg = hub.Recv(0, 0, tag++, epoch);
    comm::kernels::ReduceInto(comm::ReduceOp::kSum, acc, msg->payload);
  });
}

/// Counts every call that costs a schedule point its hook-pointer load:
/// Point() and the ScopedBlock / WorkerScope constructors (their exits
/// reuse the captured pointer).
class LoadCountingHook final : public schedpoint::Hook {
 public:
  void OnWorkerBegin(const char*, int) override { Count(); }
  void OnWorkerEnd() override {}
  void OnPoint(schedpoint::Site) override { Count(); }
  void OnBlockEnter(schedpoint::Site, schedpoint::WaitProbe) override {
    Count();
  }
  void OnBlockExit(schedpoint::Site) override {}

  [[nodiscard]] std::int64_t loads() const {
    return loads_.load(std::memory_order_acquire);
  }

 private:
  void Count() { loads_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<std::int64_t> loads_{0};
};

std::int64_t JournalRecords() {
  const auto& recorder = flightrec::Recorder::Get();
  std::uint64_t total = 0;
  for (int r = 0; r < recorder.ranks(); ++r) {
    total += recorder.journal(r)->total();
  }
  return static_cast<std::int64_t>(total);
}

/// Collective brackets journaled (every rank) since `since_ns`.
std::int64_t CollectiveBegins(std::uint64_t since_ns) {
  constexpr auto kBegin =
      static_cast<std::uint16_t>(flightrec::EventKind::kCollectiveBegin);
  std::int64_t begins = 0;
  for (const auto& records : flightrec::Recorder::Get().SnapshotAll()) {
    for (const auto& rec : records) {
      begins += rec.kind == kBegin && rec.ts_ns >= since_ns;
    }
  }
  return begins;
}

/// One recorded event on the hottest journal hook.
void RecordSend() {
  static std::uint64_t causal = 0;
  static std::uint32_t lamport = 0;
  flightrec::Recorder::Get().OnSend(0, 1, 7, 4096, &causal, &lamport);
}

const Params kTrainParams = {{"schedule", "dear"}, {"world", "4"}};

/// A 20-iteration DeAR run at world 4. Layer sizes make per-layer compute
/// dwarf a hook (as in real training) while the tensor count still
/// exercises every hook on every iteration.
void TrainDeAR() {
  static const auto data = train::MakeRegressionDataset(64, 32, 16, 21);
  core::DistOptimOptions options;
  options.mode = core::ScheduleMode::kDeAR;
  options.buffer_bytes = 4096;
  core::TrainDistributed({32, 128, 128, 16}, 1, data, /*iterations=*/20,
                         /*batch=*/8, /*world=*/4, options);
}

struct SimCell {
  model::ModelSpec model;
  sched::ClusterSpec cluster;
  sched::PolicyConfig config;
};

SimCell MakeSimCell(const std::string& model_name, int gpus,
                    sched::PolicyKind kind) {
  SimCell cell{model::ByName(model_name), {}, {}};
  cell.cluster.world_size = gpus;
  cell.cluster.network = comm::NetworkModel::TenGbE();
  cell.config.kind = kind;
  cell.config.plan =
      kind == sched::PolicyKind::kMGWFBP
          ? fusion::MergeGradientsWisely(cell.model,
                                         cell.cluster.network.alpha_s, gpus)
          : fusion::ByBufferBytes(cell.model, 25u << 20);
  return cell;
}

// ---- The table -------------------------------------------------------------

constexpr bool kHigherIsBetter = true;

Row MakeRow(Kind kind, std::string name, Params params, std::string unit,
            unsigned views, Body body, std::vector<Bar> bars = {},
            bool higher_is_better = false) {
  const bool exact = kind == Kind::kCount || kind == Kind::kValue;
  Row row;
  row.name = std::move(name);
  row.params = std::move(params);
  row.unit = std::move(unit);
  row.higher_is_better = higher_is_better;
  row.gate_max_ratio = exact ? kExactGate : kWallGate;
  row.views = views;
  row.kind = kind;
  row.body = std::move(body);
  row.bars = std::move(bars);
  return row;
}

/// A hook's cost on the op it rides, in percent: the `hook` row's ns/call
/// x the `count` row's calls per op (1 when empty) / the `op` row's ms.
Row OverheadRow(std::string name, Params params, std::string hook,
                std::string count, std::string op, double threshold) {
  Body body = [=](const RowContext& c) -> Samples {
    const BenchResult* per_call = c.measured->Find(hook);
    const BenchResult* calls =
        count.empty() ? nullptr : c.measured->Find(count);
    const BenchResult* op_ms = c.measured->Find(op);
    if (per_call == nullptr || op_ms == nullptr ||
        (!count.empty() && calls == nullptr)) {
      return Status::FailedPrecondition("overhead inputs not measured: " +
                                        hook + ", " + count + ", " + op);
    }
    return std::vector<double>{
        OverheadPct(Median(per_call->samples),
                    calls == nullptr ? 1.0 : Median(calls->samples),
                    Median(op_ms->samples))};
  };
  return MakeRow(Kind::kOverhead, std::move(name), std::move(params), "%",
                 kFull, std::move(body),
                 {TimingBar(Bar::Cmp::kBelow, threshold)});
}

void AddTrainingRow(std::vector<Row>& rows, const std::string& schedule,
                    core::ScheduleMode mode, int world, unsigned views) {
  constexpr int kIters = 4;
  rows.push_back(MakeRow(
      Kind::kTimed, "runtime.train_iter_ms",
      {{"schedule", schedule}, {"world", std::to_string(world)}}, "ms", views,
      [=](const RowContext& c) -> Samples {
        const std::vector<int> dims = {8, 16, 16, 8};
        const auto data = train::MakeRegressionDataset(world * 16, 8, 8, 42);
        core::DistOptimOptions options;
        options.mode = mode;
        options.buffer_bytes = 4 * 1024;
        return Scaled(TimedMs(c.repeats,
                              [&] {
                                core::TrainDistributed(dims, 7, data, kIters,
                                                       4, world, options);
                              }),
                      1.0 / kIters);
      }));
}

void AddRingRow(std::vector<Row>& rows, int world, int kb, unsigned views) {
  rows.push_back(MakeRow(
      Kind::kTimed, "comm.ring_allreduce_ms",
      {{"world", std::to_string(world)}, {"kb", std::to_string(kb)}}, "ms",
      views, [=](const RowContext& c) -> Samples {
        EngineRing ring(world, static_cast<std::size_t>(kb) * 256);
        return TimedMs(c.repeats, [&] { ring.AllReduce(); });
      }));
}

/// The wall-clock cost of one EvaluatePolicy (a hot path for the BO
/// tuner) and its three deterministic outputs.
void AddSimRows(std::vector<Row>& rows, const std::string& model, int gpus,
                sched::PolicyKind kind, const std::string& policy,
                unsigned views) {
  const Params params = {{"model", model},
                         {"gpus", std::to_string(gpus)},
                         {"policy", policy},
                         {"network", "10gbe"}};
  rows.push_back(MakeRow(Kind::kTimed, "sim.evaluate_ms", params, "ms", views,
                         [=](const RowContext& c) -> Samples {
                           const SimCell cell = MakeSimCell(model, gpus, kind);
                           return TimedMs(c.repeats, [&] {
                             Escape(sched::EvaluatePolicy(
                                 cell.model, cell.cluster, cell.config));
                           });
                         }));
  using Pick = double (*)(const sched::RunResult&);
  const auto value = [&](const char* name, const char* unit, Pick pick,
                         bool higher_is_better) {
    rows.push_back(MakeRow(
        Kind::kValue, name, params, unit, views,
        [=](const RowContext&) -> Samples {
          const SimCell cell = MakeSimCell(model, gpus, kind);
          return std::vector<double>{pick(
              sched::EvaluatePolicy(cell.model, cell.cluster, cell.config))};
        },
        {}, higher_is_better));
  };
  value("sim.iter_ms", "ms",
        [](const sched::RunResult& r) { return ToMilliseconds(r.iter_time); },
        false);
  value("sim.throughput", "samples/s",
        [](const sched::RunResult& r) { return r.throughput_samples_per_s; },
        kHigherIsBetter);
  value("sim.exposed_comm_ms", "ms",
        [](const sched::RunResult& r) {
          return ToMilliseconds(r.breakdown.comm_exposed);
        },
        false);
}

/// Hop-loop A/B rows share one hub, accumulator and wire buffer.
struct HopBuffers {
  std::vector<float> acc = std::vector<float>(kHopElems, 0.5f);
  std::vector<float> wire = std::vector<float>(kHopElems, 0.25f);

  void Hops(comm::TransportHub& hub, comm::DType dtype,
            Fold fold = Fold::kFused) {
    RsAgHops(hub, kHopWorld, dtype, fold, acc, wire);
  }
};

std::vector<Row> BuildRows() {
  using comm::DType;
  std::vector<Row> rows;

  // Real threaded runtime.
  AddTrainingRow(rows, "dear", core::ScheduleMode::kDeAR, 2, kBoth);
  AddTrainingRow(rows, "wfbp", core::ScheduleMode::kWFBP, 2, kBoth);
  AddTrainingRow(rows, "sequential", core::ScheduleMode::kSequential, 2,
                 kFull);
  AddTrainingRow(rows, "zero", core::ScheduleMode::kZeRO, 2, kFull);
  AddTrainingRow(rows, "dear", core::ScheduleMode::kDeAR, 4, kFull);
  AddRingRow(rows, 2, 64, kBoth);
  AddRingRow(rows, 2, 1024, kFull);
  AddRingRow(rows, 4, 256, kFull);
  for (const bool tree : {true, false}) {
    rows.push_back(MakeRow(
        Kind::kTimed, "comm.collective_ms",
        {{"algo", tree ? "tree" : "rs_ag"}, {"kb", "256"}, {"world", "4"}},
        "ms", kFull, [tree](const RowContext& c) -> Samples {
          return TimedMs(c.repeats, [tree] {
            comm::RunOnRanks(4, [tree](comm::Communicator& comm) {
              std::vector<float> data(64 * 1024, 1.0f);
              if (tree) {
                (void)comm::TreeAllReduce(comm, data);
              } else {
                (void)comm::RingReduceScatter(comm, data);
                (void)comm::RingAllGather(comm, data);
              }
            });
          });
        }));
  }

  // Zero-copy transport: 0 allocs per steady-state message on every wire
  // dtype, and with a membership attached.
  for (const DType dtype : {DType::kF32, DType::kF16, DType::kBF16}) {
    // The fp32 key predates the dtype param; 2-byte wires halve the kb.
    const Params params =
        dtype == DType::kF32
            ? Params{{"kb", "256"}}
            : Params{{"kb", "128"},
                     {"dtype", dtype == DType::kF16 ? "f16" : "bf16"}};
    rows.push_back(AllocRow("transport.alloc_per_msg", params,
                            [dtype](int repeats) {
                              return AllocsPerMessage(repeats, dtype, false);
                            }));
  }
  rows.push_back(AllocRow("epoch.alloc_per_msg", {{"kb", "256"}},
                          [](int repeats) {
                            return AllocsPerMessage(repeats, DType::kF32,
                                                    true);
                          }));

  // Hop-loop comparisons. The two legacy arms reproduce deleted code
  // paths (pool off + scalar fold; a separate quantize sweep + 4-byte
  // wire) until the paced wire can compare fp16 against fp32 instead.
  rows.push_back(MakeRow(
      Kind::kAB, "mixed.fp16_speedup_vs_legacy", kHopParams, "x", kBoth,
      [](const RowContext& c) -> Samples {
        comm::TransportHub hub(1);
        HopBuffers buf;
        std::vector<float> legacy(kHopElems);
        return AbRatio(
            c.repeats, 10,
            [&] {
              for (std::size_t i = 0; i < legacy.size(); ++i)
                legacy[i] = 0.25f + static_cast<float>(i % 7) * 0.125f;
            },
            [&] {
              for (float& x : legacy) x = QuantizeFp16(x);
              RsAgHops(hub, kHopWorld, DType::kF32, Fold::kFused, buf.acc,
                       legacy);
            },
            [&] { buf.Hops(hub, DType::kF16); });
      },
      {TimingBar(Bar::Cmp::kAtLeast, 1.7)}, kHigherIsBetter));
  // fp16 and bf16 share a wire width but not a pack cost (one F16C
  // instruction vs an integer RNE blend).
  for (const DType dtype : {DType::kF16, DType::kBF16}) {
    rows.push_back(MakeRow(
        Kind::kAB,
        dtype == DType::kF16 ? "mixed.fp16_vs_fp32_wire"
                             : "mixed.bf16_vs_fp32_wire",
        kHopParams, "x", kFull,
        [dtype](const RowContext& c) -> Samples {
          comm::TransportHub hub(1);
          HopBuffers buf;
          return AbRatio(
              c.repeats, 10, [] {}, [&] { buf.Hops(hub, DType::kF32); },
              [&] { buf.Hops(hub, dtype); });
        },
        {}, kHigherIsBetter));
  }
  rows.push_back(MakeRow(
      Kind::kAB, "transport.rs_ag_speedup", kHopParams, "x", kFull,
      [](const RowContext& c) -> Samples {
        comm::TransportHub legacy(1, {.use_pool = false});
        comm::TransportHub pooled(1);
        HopBuffers buf;
        return AbRatio(
            c.repeats, 10, [] {},
            [&] { buf.Hops(legacy, DType::kF32, Fold::kScalar); },
            [&] { buf.Hops(pooled, DType::kF32); });
      },
      {TimingBar(Bar::Cmp::kAtLeast, 1.3)}, kHigherIsBetter));
  rows.push_back(MakeRow(
      Kind::kAB, "epoch.path_ratio", kHopParams, "x", kFull,
      [](const RowContext& c) -> Samples {
        comm::TransportHub plain(1);
        comm::TransportHub stamped(1);
        comm::Membership membership(&stamped, QuietMembership());
        HopBuffers buf;
        return AbRatio(
            c.repeats, 10, [] {}, [&] { buf.Hops(stamped, DType::kF32); },
            [&] { buf.Hops(plain, DType::kF32); });
      },
      {TimingBar(Bar::Cmp::kBelow, 1.10)}));
  rows.push_back(MakeRow(
      Kind::kTimed, "epoch.hop_ms", kHopParams, "ms", kFull,
      [](const RowContext& c) -> Samples {
        comm::TransportHub hub(1);
        HopBuffers buf;
        const auto loop_ms =
            TimedMs(c.repeats * 10, [&] { buf.Hops(hub, DType::kF32); });
        return Scaled(loop_ms, 1.0 / kHopsPerLoop);
      }));

  // Simulator: the quick cells, then the model x policy matrix.
  for (const char* model : {"resnet50", "bert_base", "bert_large"}) {
    for (const int gpus : {16, 64}) {
      const bool quick = gpus == 16 && model != std::string("bert_large");
      AddSimRows(rows, model, gpus, sched::PolicyKind::kDeAR, "dear",
                 quick ? kBoth : kFull);
      AddSimRows(rows, model, gpus, sched::PolicyKind::kHorovod, "horovod",
                 quick && model == std::string("resnet50") ? kBoth : kFull);
      AddSimRows(rows, model, gpus, sched::PolicyKind::kMGWFBP, "mg-wfbp",
                 kFull);
    }
  }
  // The largest per-tensor graph (~1400 tasks per iteration), dispatched
  // on the priority stream.
  AddSimRows(rows, "densenet201", 64, sched::PolicyKind::kByteScheduler,
             "bytescheduler", kFull);
  // A multi-worker graph has two streams per worker, 128 here, so its next
  // event comes from the engine's min-tree; the policy graphs above (2-3
  // streams) take the scan.
  rows.push_back(MakeRow(
      Kind::kTimed, "sim.multiworker_ms",
      {{"model", "resnet50"}, {"gpus", "64"}, {"policy", "dear"},
       {"network", "10gbe"}},
      "ms", kFull, [](const RowContext& c) -> Samples {
        const SimCell cell =
            MakeSimCell("resnet50", 64, sched::PolicyKind::kDeAR);
        return TimedMs(c.repeats, [&] {
          Escape(sched::EvaluateMultiWorker(cell.model, cell.cluster,
                                            cell.config));
        });
      }));
  rows.push_back(MakeRow(Kind::kTimed, "fusion.plan_ms",
                         {{"model", "densenet201"}}, "ms", kFull,
                         [](const RowContext& c) -> Samples {
                           const auto m = model::ByName("densenet201");
                           return TimedMs(c.repeats, [&] {
                             Escape(fusion::ByBufferBytes(m, 25u << 20));
                           });
                         }));
  rows.push_back(MakeRow(
      Kind::kTimed, "tune.gp_fit_ms", {{"points", "40"}}, "ms", kFull,
      [](const RowContext& c) -> Samples {
        std::vector<double> xs(40);
        std::vector<double> ys(40);
        for (std::size_t i = 0; i < xs.size(); ++i) {
          xs[i] = static_cast<double>(i);
          ys[i] = std::sin(0.3 * xs[i]);
        }
        return TimedMs(c.repeats, [&] {
          tune::GaussianProcess gp;
          (void)gp.Fit(xs, ys);
          Escape(gp.Predict(20.0));
        });
      }));
  // The suggest half of a BO trial: one SuggestNext (GP refit plus the
  // acquisition sweep), averaged over a 10-trial tune of a buffer size in
  // [1, 100] MB, as `dearsim tune` runs it.
  rows.push_back(MakeRow(
      Kind::kTimed, "tune.bo_suggest_us", {{"trials", "10"}, {"grid", "256"}},
      "us", kFull, [](const RowContext& c) -> Samples {
        using Clock = std::chrono::steady_clock;
        constexpr int kTrials = 10;
        std::vector<double> us;
        for (int rep = 0; rep <= c.repeats; ++rep) {
          tune::BoOptions opts;
          opts.first_point = 25.0;
          opts.acquisition_grid = 256;
          tune::BayesianOptimizer bo(1.0, 100.0, opts);
          Clock::duration suggesting{};
          for (int t = 0; t < kTrials; ++t) {
            const auto t0 = Clock::now();
            const double mb = bo.SuggestNext();
            suggesting += Clock::now() - t0;
            bo.Observe(mb, 100.0 - (mb - 30.0) * (mb - 30.0) / 50.0);
          }
          // The first tune warms up; it is not a sample.
          if (rep > 0)
            us.push_back(
                std::chrono::duration<double, std::micro>(suggesting).count() /
                kTrials);
        }
        return us;
      }));

  // One dense backward of a 512x512 hidden layer at batch 1, the shape of
  // the dear-bw training layers: the compute thread's largest pass.
  rows.push_back(MakeRow(
      Kind::kTimed, "train.dense_backward_us",
      {{"in", "512"}, {"out", "512"}, {"batch", "1"}}, "us", kFull,
      [](const RowContext& c) -> Samples {
        Rng rng(7);
        train::DenseLayer layer;
        layer.in = 512;
        layer.out = 512;
        layer.relu = true;
        layer.Init(rng);
        std::vector<float> x(512), dy(512);
        for (float& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
        for (float& v : dy) v = static_cast<float>(rng.Uniform(-1, 1));
        layer.Forward(x, 1);
        return Scaled(TimedMs(c.repeats, [&] { Escape(layer.Backward(dy, 1)); }),
                      1000.0);
      }));

  // Always-on hooks: per-call cost, allocations, and calls per small
  // collective, each measured once; the overhead bars below read them.
  rows.push_back(MakeRow(
      Kind::kPerCall, "schedpoint.disabled_point_ns", {}, "ns", kBoth,
      [](const RowContext& c) -> Samples {
        return PerCallNs(c.repeats, 2'000'000, [](int) {
          schedpoint::Point(schedpoint::Site::kChannelSend);
        });
      }));
  rows.push_back(MakeRow(
      Kind::kCount, "schedpoint.loads_per_op", kSmallParams, "loads", kBoth,
      [](const RowContext& c) -> Samples {
        LoadCountingHook hook;
        schedpoint::InstallHook(&hook);
        auto loads = CountPerOp(
            c.repeats, 4, [&] { return hook.loads(); }, SmallAllReduce);
        schedpoint::InstallHook(nullptr);
        return loads;
      }));
  rows.push_back(MakeRow(Kind::kPerCall, "flightrec.event_ns", {}, "ns", kBoth,
                         [](const RowContext& c) -> Samples {
                           flightrec::Recorder::Get().EnsureRanks(2);
                           return PerCallNs(c.repeats, 1'000'000,
                                            [](int) { RecordSend(); });
                         }));
  rows.push_back(AllocRow("flightrec.alloc_per_event", {}, [](int repeats) {
    flightrec::Recorder::Get().EnsureRanks(2);
    return AllocsPerOp(repeats, 1000, RecordSend);
  }));
  rows.push_back(MakeRow(Kind::kCount, "flightrec.records_per_op",
                         kSmallParams, "records", kBoth,
                         [](const RowContext& c) -> Samples {
                           return CountPerOp(c.repeats, 4, JournalRecords,
                                             SmallAllReduce);
                         }));
  rows.push_back(MakeRow(
      Kind::kPerCall, "check.bracket_ns", {}, "ns", kBoth,
      [](const RowContext& c) -> Samples {
        check::Checker::Get().Disable();
        flightrec::Recorder::Get().EnsureRanks(1);
        return PerCallNs(c.repeats, 1'000'000, [](int) {
          comm::probe::CollectiveProbe probe(
              0, comm::CollectiveKind::kBarrier, /*elems=*/0);
        });
      }));
  rows.push_back(MakeRow(
      Kind::kCount, "check.brackets_per_op", kSmallParams, "brackets", kBoth,
      [](const RowContext& c) -> Samples {
        const std::uint64_t since = flightrec::NowNs();
        return CountPerOp(
            c.repeats, 4, [since] { return CollectiveBegins(since); },
            SmallAllReduce);
      }));
  rows.push_back(MakeRow(
      Kind::kPerCall, "epoch.ops_ns", {}, "ns", kBoth,
      [](const RowContext& c) -> Samples {
        // The per-message work the epoch protocol adds: the send gate's
        // liveness + epoch check, the receive side's activity note.
        comm::TransportHub hub(1);
        comm::Membership membership(&hub, QuietMembership());
        std::uint64_t guard = 0;
        auto ns = PerCallNs(c.repeats, 1 << 20, [&](int) {
          membership.NoteActivity(0);
          guard += membership.epoch();
          guard += static_cast<std::uint64_t>(membership.IsLive(0));
          guard += membership.deadline_ns() != 0;
        });
        Escape(guard);
        return ns;
      }));

  // Training with the checker on vs off (informational: the end-to-end
  // price of an enabled session).
  rows.push_back(MakeRow(
      Kind::kAB, "check.on_off_ratio", kTrainParams, "x", kFull,
      [](const RowContext& c) -> Samples {
        auto& checker = check::Checker::Get();
        check::CheckerOptions options;
        options.watchdog_timeout_s = 30.0;  // armed, quiet in a healthy run
        return AbRatio(
            c.repeats, 4, [] {},
            [&] {
              checker.Enable(4, options);
              TrainDeAR();
              checker.Disable();
            },
            TrainDeAR);
      }));

  // Hook overheads on the ops they ride.
  rows.push_back(MakeRow(Kind::kTimed, "comm.small_allreduce_ms", kSmallParams,
                         "ms", kFull, [](const RowContext& c) -> Samples {
                           return TimedMs(c.repeats * 20, SmallAllReduce);
                         }));
  const std::string small_op = "comm.small_allreduce_ms|kb=4|world=2";
  rows.push_back(OverheadRow("schedpoint.overhead_pct", kSmallParams,
                             "schedpoint.disabled_point_ns",
                             "schedpoint.loads_per_op|kb=4|world=2", small_op,
                             1.0));
  rows.push_back(OverheadRow("flightrec.overhead_pct", kSmallParams,
                             "flightrec.event_ns",
                             "flightrec.records_per_op|kb=4|world=2",
                             small_op, 1.0));
  rows.push_back(OverheadRow("check.overhead_pct", kSmallParams,
                             "check.bracket_ns",
                             "check.brackets_per_op|kb=4|world=2", small_op,
                             2.0));
  rows.push_back(OverheadRow("epoch.added_pct", kHopParams, "epoch.ops_ns", "",
                             "epoch.hop_ms|mib=1|world=16", 1.0));

  AppendPaperRows(rows);
  return rows;
}

std::string Describe(const Bar& bar) {
  const char* stat = bar.stat == Bar::Stat::kMax ? "max" : "median";
  const char* cmp = bar.cmp == Bar::Cmp::kBelow    ? "<"
                    : bar.cmp == Bar::Cmp::kAtMost ? "<="
                    : bar.cmp == Bar::Cmp::kAbove  ? ">"
                                                   : ">=";
  char threshold[32];
  std::snprintf(threshold, sizeof(threshold), "%g", bar.threshold);
  return std::string(stat) + " " + cmp + " " + threshold;
}

}  // namespace

Row AllocRow(std::string name, Params params,
             std::function<Samples(int repeats)> count) {
  return MakeRow(
      Kind::kCount, std::move(name), std::move(params), "1+allocs", kBoth,
      [count = std::move(count)](const RowContext& c) -> Samples {
        auto allocs = count(c.repeats);
        if (allocs.ok()) {
          for (double& a : *allocs) a += 1.0;
        }
        return allocs;
      },
      {kZeroAllocs});
}

std::string Row::Key() const {
  BenchResult result;
  result.name = name;
  result.params = params;
  return result.Key();
}

const std::vector<Row>& Rows() {
  static const std::vector<Row> rows = BuildRows();
  return rows;
}

BarVerdict EvaluateBar(const Bar& bar, const BenchResult& result) {
  BarVerdict verdict{result.Key(), Describe(bar), 0.0, false};
  if (result.samples.empty()) return verdict;
  verdict.value = bar.stat == Bar::Stat::kMax
                      ? *std::max_element(result.samples.begin(),
                                          result.samples.end())
                      : Median(result.samples);
  switch (bar.cmp) {
    case Bar::Cmp::kBelow:
      verdict.pass = verdict.value < bar.threshold;
      break;
    case Bar::Cmp::kAtMost:
      verdict.pass = verdict.value <= bar.threshold;
      break;
    case Bar::Cmp::kAtLeast:
      verdict.pass = verdict.value >= bar.threshold;
      break;
    case Bar::Cmp::kAbove:
      verdict.pass = verdict.value > bar.threshold;
      break;
  }
  return verdict;
}

double OverheadPct(double per_call_ns, double calls_per_op, double op_ms) {
  return 100.0 * per_call_ns * calls_per_op / (op_ms * 1e6);
}

bool SuiteRun::ok() const {
  for (const BarVerdict& v : bars) {
    if (!v.pass) return false;
  }
  return true;
}

SuiteRun RunRows(const std::vector<Row>& rows, const std::string& suite,
                 View view, const SuiteRunOptions& options) {
  SuiteRun run;
  run.suite.suite = suite;
  run.suite.environment = EnvironmentFingerprint();
  const RowContext context{
      options.repeats > 0 ? options.repeats : (view == kQuick ? 5 : 10),
      &run.suite};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (options.progress != nullptr) {
      *options.progress << "[" << i + 1 << "/" << rows.size() << "] "
                        << row.Key() << "\n";
    }
    auto samples = row.body(context);
    if (!samples.ok()) {
      run.bars.push_back(
          {row.Key(), "measured: " + samples.status().ToString(), 0.0, false});
      continue;
    }
    BenchResult result;
    result.name = row.name;
    result.params = row.params;
    result.unit = row.unit;
    result.higher_is_better = row.higher_is_better;
    result.gate_max_ratio = row.gate_max_ratio;
    result.samples = std::move(*samples);
    for (const Bar& bar : row.bars) {
      if ((bar.views & view) != 0) run.bars.push_back(EvaluateBar(bar, result));
    }
    run.suite.results.push_back(std::move(result));
  }
  return run;
}

std::vector<std::string> SuiteNames() { return {"quick", "full", "paper"}; }

StatusOr<SuiteRun> RunSuite(const std::string& name,
                            const SuiteRunOptions& options) {
  const std::map<std::string, View> views = {
      {"quick", kQuick}, {"full", kFull}, {"paper", kPaper}};
  const auto it = views.find(name);
  if (it == views.end()) {
    std::string known;
    for (const std::string& s : SuiteNames())
      known += (known.empty() ? "" : ", ") + s;
    return Status::NotFound("unknown bench suite '" + name +
                            "' (registered: " + known + ")");
  }
  const View view = it->second;
  std::vector<Row> rows;
  for (const Row& row : Rows()) {
    if ((row.views & view) != 0) rows.push_back(row);
  }
  return RunRows(rows, name, view, options);
}

}  // namespace dear::perflab
