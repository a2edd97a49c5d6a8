// dear-bw and dear-msgs: closed-loop DeAR data-parallel training at world 2.
//
// Each rank is one compute thread driving Mlp forward/backward with the
// DistOptim hooks, plus the CommEngine thread DistOptim owns. A step starts
// when the previous Step() returns. Rank 0 times every step.
#include <malloc.h>

#include <atomic>
#include <barrier>
#include <climits>
#include <cmath>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <string_view>
#include <thread>

#include "checks.h"
#include "comm/transport.h"
#include "common/rng.h"
#include "core/dist_optim.h"
#include "core/trainer.h"
#include "fusion/plan.h"
#include "train/data.h"
#include "train/mlp.h"
#include "workloads.h"

namespace perfbench {

namespace core = dear::core;
namespace comm = dear::comm;
namespace train = dear::train;

namespace {

constexpr int kWarmupSteps = 20;
constexpr int kWorlds = 5;
/// Steps per block. Traced runs trace one block in kTracedEvery and leave
/// the rest untraced; the difference of their step medians is the
/// tracing overhead.
constexpr std::size_t kBlockSteps = 32;
constexpr std::size_t kTracedEvery = 4;

struct TrainSpec {
  std::vector<int> dims;
  int batch{1};  // per rank
  std::size_t buffer_bytes{0};
  core::Compression compression{core::Compression::kNone};
  int samples{0};  // dataset size; a multiple of world * batch
  train::SgdOptions sgd;
  LossTolerance tol;
};

TrainSpec SpecFor(const std::string& workload) {
  TrainSpec spec;
  if (workload == "dear-bw") {
    // ~1.05 M params, 4.2 MB of fp32 gradients: 7 groups of <= 1 MiB.
    spec.dims = {256, 512, 512, 512, 512, 256};
    spec.batch = 1;
    spec.buffer_bytes = 1 << 20;
    spec.samples = 256;
    spec.sgd = {.lr = 0.01f, .momentum = 0.9f};
    spec.tol = {.abs = 2e-4, .rel = 0.0};  // dist_optim_test's bound
  } else {
    // 64-(128 x 16)-8, ~0.26 M params in 34 small fp16 groups.
    spec.dims = {64};
    for (int i = 0; i < 16; ++i) spec.dims.push_back(128);
    spec.dims.push_back(8);
    spec.batch = 4;
    spec.buffer_bytes = 4 << 10;
    spec.compression = core::Compression::kFp16;
    spec.samples = 512;
    // Plain SGD: momentum amplifies the fp16 drift below past any
    // useful envelope within a few thousand steps.
    spec.sgd = {.lr = 0.01f, .momentum = 0.0f};
    // fp16 rounds every partial sum on the wire, so the trajectory drifts
    // away from the fp32 reference step by step; the loss it reaches may
    // not. Envelope: the 64-step trailing mean loss, and the final loss,
    // within 10% of the reference's (+1e-3).
    spec.tol = {.abs = 1e-3, .rel = 0.10, .window = 64};
  }
  return spec;
}

/// Noisy teacher: uniform inputs, targets tanh(x A) for a random A.
train::Dataset MakeData(const TrainSpec& spec, std::uint64_t seed) {
  dear::Rng rng(seed);
  const int in = spec.dims.front();
  const int out = spec.dims.back();
  train::Dataset d;
  d.num_samples = spec.samples;
  d.input_dim = in;
  d.output_dim = out;
  d.inputs.resize(static_cast<std::size_t>(spec.samples) * in);
  for (auto& v : d.inputs) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  std::vector<float> a(static_cast<std::size_t>(in) * out);
  const double scale = 2.0 / std::sqrt(static_cast<double>(in));
  for (auto& v : a) v = static_cast<float>(rng.Uniform(-scale, scale));
  d.targets.assign(static_cast<std::size_t>(spec.samples) * out, 0.0f);
  for (int n = 0; n < spec.samples; ++n) {
    for (int j = 0; j < out; ++j) {
      double acc = 0.0;
      for (int i = 0; i < in; ++i)
        acc += d.inputs[static_cast<std::size_t>(n) * in + i] *
               a[static_cast<std::size_t>(i) * out + j];
      d.targets[static_cast<std::size_t>(n) * out + j] =
          static_cast<float>(std::tanh(acc));
    }
  }
  return d;
}

/// What one world (hub + 2 ranks) leaves behind.
struct WorldOutput {
  std::int64_t setup_ns{0};
  std::vector<std::vector<float>> losses;  // per rank, warm-up + measured
  std::vector<RankParams> params;          // per rank, after Synchronize
  std::vector<double> step_ms;             // rank 0, measured steps
  std::vector<bool> step_traced;
  double measured_s{0.0};
  long steps{0};
  core::DistOptim::Stats stats;  // rank 0
  std::vector<std::size_t> group_bytes;
  std::optional<dear::model::ModelSpec> spec;
  std::int64_t pool_hits{0};  // slab acquires during the measured loop
  std::int64_t pool_misses{0};
};

/// Builds a world, warms it up, and runs the closed loop for `steps`
/// steps, or for `seconds` when `steps` is 0. Setup time runs from `t0` to
/// the end of the warm-up on both ranks. Spans go to `recorders[rank]`
/// when options.trace is set.
WorldOutput RunWorld(const TrainSpec& spec, const train::Dataset& data,
                     std::uint64_t model_seed, const Options& options,
                     long steps, double seconds,
                     std::vector<trace::Recorder>& recorders,
                     std::int64_t t0) {
  WorldOutput out;
  out.losses.resize(kTrainWorld);
  out.params.resize(kTrainWorld);
  std::barrier warm(kTrainWorld);
  std::atomic<long> stop_at{steps > 0 ? steps : LONG_MAX};
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  comm::TransportHub hub(kTrainWorld);

  auto rank_main = [&](int r) {
    const train::Dataset shard = data.Shard(r, kTrainWorld);
    train::Mlp mlp(spec.dims, model_seed);
    core::DistOptimOptions o;
    o.mode = core::ScheduleMode::kDeAR;
    o.buffer_bytes = spec.buffer_bytes;
    o.compression = spec.compression;
    o.sgd = spec.sgd;
    core::DistOptim optim(comm::Communicator(&hub, r), mlp.Spec(),
                          mlp.Bindings(), o);
    trace::Recorder& rec = recorders[static_cast<std::size_t>(r)];
    auto& losses = out.losses[static_cast<std::size_t>(r)];
    std::vector<float> x, y, grad, pred;
    int cursor = 0;
    const int b = spec.batch;
    auto pre_forward = [&](int l) {
      trace::Scope s(rec, "core.pre_forward");
      optim.PreForward(l);
    };
    auto on_backward = [&](int l) {
      trace::Scope s(rec, "core.on_backward");
      optim.OnBackwardLayer(l);
    };
    auto step = [&] {
      trace::Scope s(rec, "step");
      mlp.ZeroGrad();
      if (cursor + b > shard.num_samples) cursor = 0;
      shard.Batch(cursor, b, &x, &y);
      cursor += b;
      {
        trace::Scope f(rec, "train.forward");
        pred = mlp.Forward(x, b, pre_forward);
      }
      {
        trace::Scope l(rec, "train.loss");
        losses.push_back(train::Mlp::MseLoss(pred, y, &grad));
      }
      {
        trace::Scope bw(rec, "train.backward");
        mlp.Backward(grad, b, on_backward);
      }
      trace::Scope st(rec, "core.step");
      optim.Step();
    };

    for (int i = 0; i < kWarmupSteps; ++i) step();
    warm.arrive_and_wait();
    if (r == 0) out.setup_ns = trace::NowNs() - t0;

    const auto pool_before = hub.pool().stats();
    const auto begin = trace::NowNs();
    auto last_end = begin;
    long it = 0;
    // Both ranks run the same step count: rank 0 publishes the last step
    // one step ahead, and rank 1 cannot finish that step (its Step() waits
    // on rank 0's reduce-scatters) before rank 0 has started it.
    for (; it < stop_at.load(std::memory_order_acquire); ++it) {
      const bool traced =
          options.trace && (static_cast<std::size_t>(it) / kBlockSteps) %
                                   kTracedEvery ==
                               kTracedEvery - 1;
      rec.set_enabled(traced);
      const auto a = trace::NowNs();
      step();
      last_end = trace::NowNs();
      if (r != 0) continue;
      out.step_ms.push_back(static_cast<double>(last_end - a) / 1e6);
      out.step_traced.push_back(traced);
      if (last_end - begin >= budget &&
          stop_at.load(std::memory_order_acquire) == LONG_MAX)
        stop_at.store(it + 2, std::memory_order_release);
    }
    if (r == 0) {
      const auto pool_after = hub.pool().stats();
      out.measured_s = static_cast<double>(last_end - begin) / 1e9;
      out.steps = it;
      out.pool_hits = pool_after.hits - pool_before.hits;
      out.pool_misses = pool_after.misses - pool_before.misses;
    }
    rec.set_enabled(options.trace);
    {
      trace::Scope s(rec, "core.synchronize");
      optim.Synchronize();
    }
    rec.set_enabled(false);
    auto& params = out.params[static_cast<std::size_t>(r)];
    for (auto& layer : mlp.layers()) {
      params.push_back(layer.w);
      params.push_back(layer.b);
    }
    if (r == 0) {
      out.stats = optim.stats();
      out.spec = mlp.Spec();
      for (const auto& g : optim.plan().groups())
        out.group_bytes.push_back(g.bytes);
    }
  };
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kTrainWorld; ++r) threads.emplace_back(rank_main, r);
    for (auto& t : threads) t.join();
  }
  hub.Shutdown();
  return out;
}

/// MSE of `params` on the whole dataset.
double EvalLoss(const TrainSpec& spec, std::uint64_t model_seed,
                const RankParams& params, const train::Dataset& data) {
  train::Mlp mlp(spec.dims, model_seed);
  std::size_t t = 0;
  for (auto& layer : mlp.layers()) {
    layer.w = params[t++];
    layer.b = params[t++];
  }
  const auto pred = mlp.Forward(data.inputs, data.num_samples);
  return train::Mlp::MseLoss(pred, data.targets, nullptr);
}

/// Per-step span aggregates of rank 0's traced steps.
void StepLayerMetrics(const trace::Recorder& rec, Values& v) {
  const auto& spans = rec.spans();
  const auto self = trace::SelfTimes(spans);
  const auto roots = trace::Roots(spans);
  struct Agg {
    double fwd_self = 0, bwd_self = 0, pre = 0, on_bwd = 0, step = 0,
           total = 0;
  };
  std::map<std::int32_t, Agg> steps;
  std::vector<double> sync;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto root = roots[i];
    const std::string_view rn(spans[static_cast<std::size_t>(root)].name);
    const std::string_view n(spans[i].name);
    if (n == "core.synchronize") {
      sync.push_back(static_cast<double>(spans[i].duration()) / 1e6);
      continue;
    }
    if (rn != "step") continue;
    Agg& a = steps[root];
    const auto dur = static_cast<double>(spans[i].duration()) / 1e6;
    if (n == "step") a.total = dur;
    if (n == "train.forward") a.fwd_self += static_cast<double>(self[i]) / 1e6;
    if (n == "train.backward") a.bwd_self += static_cast<double>(self[i]) / 1e6;
    if (n == "core.pre_forward") a.pre += dur;
    if (n == "core.on_backward") a.on_bwd += dur;
    if (n == "core.step") a.step += dur;
  }
  std::vector<double> fwd, bwd, pre, on_bwd, step;
  double hooks = 0, total = 0;
  for (const auto& [root, a] : steps) {
    fwd.push_back(a.fwd_self);
    bwd.push_back(a.bwd_self);
    pre.push_back(a.pre);
    on_bwd.push_back(a.on_bwd);
    step.push_back(a.step);
    hooks += a.pre + a.on_bwd + a.step;
    total += a.total;
  }
  v["train.forward_ms"] = Quantile(fwd, 0.5);
  v["train.backward_ms"] = Quantile(bwd, 0.5);
  v["core.pre_forward_wait_ms"] = Quantile(pre, 0.5);
  v["core.on_backward_ms"] = Quantile(on_bwd, 0.5);
  v["core.step_ms"] = Quantile(step, 0.5);
  v["core.exposed_frac"] = total > 0 ? hooks / total : 0.0;
  v["core.synchronize_ms"] = Quantile(sync, 0.5);
}

}  // namespace

bool IsTrainingWorkload(const std::string& name) {
  return name == "dear-bw" || name == "dear-msgs";
}

Result RunTraining(const Options& options) {
  const TrainSpec spec = SpecFor(options.workload);
  const std::uint64_t data_seed = options.seed * 0x9e3779b97f4a7c15ULL + 1;
  const std::uint64_t model_seed = options.seed + 17;
  Result result;
  Values& v = result.values;

  // kWorlds worlds, each set up from scratch. The first runs for an equal
  // share of the run and fixes the step count; the others replay exactly
  // those steps, so one reference run checks them all. The end-to-end
  // numbers come from the quiet blocks (see QuietBlocks) of 32 untraced
  // back-to-back steps, pooled over worlds.
  const double samples_per_step = kTrainWorld * spec.batch;
  std::vector<double> setup_s, plain_ms, traced_ms, block_ms;
  std::vector<std::vector<double>> blocks;
  std::vector<trace::Recorder> recorders;
  for (int r = 0; r < kTrainWorld; ++r) recorders.emplace_back(r);
  train::Dataset data;
  core::DistOptim::Stats stats;  // of the last world
  std::vector<std::size_t> group_bytes;
  std::optional<dear::model::ModelSpec> model_spec;
  std::vector<std::vector<std::vector<float>>> losses;  // per world
  std::vector<bool> ranks_equal, same_as_first;
  RankParams first_params;
  std::int64_t pool_hits = 0, pool_misses = 0;
  long steps = 0;
  for (int k = 0; k < kWorlds; ++k) {
    // Hand the previous world's memory back to the OS, so every world
    // starts from the same heap and peak RSS does not depend on which
    // malloc arena a new world's threads happen to pick up.
    malloc_trim(0);
    const auto t0 = trace::NowNs();
    data = MakeData(spec, data_seed);
    const WorldOutput world =
        RunWorld(spec, data, model_seed, options, steps,
                 options.seconds / kWorlds, recorders, t0);
    steps = world.steps;
    setup_s.push_back(static_cast<double>(world.setup_ns) / 1e9);
    for (std::size_t i = 0; i < world.step_ms.size(); ++i)
      (world.step_traced[i] ? traced_ms : plain_ms).push_back(world.step_ms[i]);
    for (std::size_t i = 0; i + kBlockSteps <= world.step_ms.size();
         i += kBlockSteps) {
      if (world.step_traced[i]) continue;
      const auto first = world.step_ms.begin() + static_cast<long>(i);
      blocks.emplace_back(first, first + kBlockSteps);
      block_ms.push_back(std::accumulate(first, first + kBlockSteps, 0.0));
    }
    pool_hits += world.pool_hits;
    pool_misses += world.pool_misses;
    ranks_equal.push_back(ParamsBitwiseEqual(world.params));
    if (k == 0) first_params = world.params[0];
    // Same inputs, deterministic ring: every world must replay bitwise.
    same_as_first.push_back(
        ParamsBitwiseEqual({first_params, world.params[0]}));
    losses.push_back(world.losses);
    stats = world.stats;
    group_bytes = world.group_bytes;
    model_spec = world.spec;
  }

  // Correctness: per world, bitwise-identical ranks and a bitwise replay
  // of the first world; per step, the loss against single-worker S-SGD on
  // the same data; and the final loss over the whole dataset.
  const long total_steps = kWarmupSteps + steps;
  const auto ref_t0 = trace::NowNs();
  const auto ref = core::TrainReference(spec.dims, model_seed, data,
                                        static_cast<int>(total_steps),
                                        kTrainWorld * spec.batch, spec.sgd);
  const double ref_s = static_cast<double>(trace::NowNs() - ref_t0) / 1e9;
  const double final_loss = EvalLoss(spec, model_seed, first_params, data);
  const double ref_loss = EvalLoss(spec, model_seed, ref.params, data);
  const bool final_ok = LossWithin(final_loss, ref_loss, spec.tol);
  for (int k = 0; k < kWorlds; ++k) {
    const auto w = static_cast<std::size_t>(k);
    const long warm_bad = CountLossMismatches(losses[w], ref.losses, 0,
                                              kWarmupSteps, spec.tol);
    long bad = CountLossMismatches(losses[w], ref.losses, kWarmupSteps,
                                   total_steps, spec.tol);
    if (!ranks_equal[w] || !same_as_first[w] || !final_ok) bad = steps;
    result.attempted += steps;
    result.failed += bad;
    result.checks_ok = result.checks_ok && warm_bad == 0;
    std::cout << "# world " << k << ": steps=" << steps
              << " setup_s=" << setup_s[w]
              << " ranks_bitwise_equal=" << (ranks_equal[w] ? "yes" : "no")
              << " replays_world_0=" << (same_as_first[w] ? "yes" : "no")
              << " loss_mismatches=" << bad + warm_bad << "\n";
  }
  std::cout << "# final_loss=" << final_loss << " reference=" << ref_loss
            << "\n";
  std::cout << "# loss tolerance " << spec.tol.abs << " + " << spec.tol.rel
            << " * |reference| over " << spec.tol.window << "-step means\n";
  const auto quiet = QuietBlocks(block_ms);
  std::vector<double> quiet_steps;
  for (auto b : quiet)
    quiet_steps.insert(quiet_steps.end(), blocks[b].begin(), blocks[b].end());
  const double quiet_ms =
      std::accumulate(quiet_steps.begin(), quiet_steps.end(), 0.0);
  v["throughput_per_s"] =
      quiet_ms > 0 ? static_cast<double>(quiet_steps.size()) *
                         samples_per_step * 1e3 / quiet_ms
                   : 0.0;
  v["op_ms_p50"] = Quantile(quiet_steps, 0.5);
  v["op_ms_p90"] = Quantile(quiet_steps, 0.9);
  std::cout << "# quiet blocks " << quiet.size() << " of " << blocks.size()
            << " (" << kBlockSteps << " steps each)\n";
  v["setup_s"] = Quantile(setup_s, 0.5);
  v["train.ref_samples_per_s"] =
      static_cast<double>(total_steps) * samples_per_step / ref_s;
  result.aliases = {{"samples_per_s", "throughput_per_s"},
                    {"step_ms_p50", "op_ms_p50"},
                    {"step_ms_p90", "op_ms_p90"}};

  v["peak_rss_mb"] = PeakRssMb();
  if (!options.trace) return result;

  // Traced run: per-layer metrics from rank 0's spans plus outside-in
  // replays of this workload's fusion plan on the comm layer.
  StepLayerMetrics(recorders[0], v);
  v["trace.overhead_ms"] = Quantile(traced_ms, 0.5) - Quantile(plain_ms, 0.5);
  double dense_flops = 0.0;  // nominal: 2 (FF) + 4 (BP) flops per MAC
  for (std::size_t l = 0; l + 1 < spec.dims.size(); ++l)
    dense_flops += 6.0 * spec.batch * spec.dims[l] * spec.dims[l + 1];
  const double compute_ms = v["train.forward_ms"] + v["train.backward_ms"];
  v["train.gflops"] = compute_ms > 0 ? dense_flops / (compute_ms * 1e6) : 0.0;
  v["core.collectives_per_step"] =
      static_cast<double>(stats.collectives) /
      static_cast<double>(std::max<std::int64_t>(stats.steps, 1));
  v["comm.pool_misses_per_msg"] =
      pool_hits + pool_misses > 0
          ? static_cast<double>(pool_misses) /
                static_cast<double>(pool_hits + pool_misses)
          : 0.0;

  std::vector<double> group_kb;
  std::vector<std::size_t> group_elems;
  for (auto bytes : group_bytes) {
    group_kb.push_back(static_cast<double>(bytes) / 1024.0);
    group_elems.push_back(bytes / sizeof(float));
  }
  v["fusion.groups"] = static_cast<double>(group_bytes.size());
  v["fusion.group_kb_p50"] = Quantile(group_kb, 0.5);

  std::vector<trace::Recorder> probes;
  for (int i = 0; i < 4; ++i) probes.emplace_back(kTrainWorld + i);
  {
    trace::Recorder& rec = probes[0];
    rec.set_enabled(true);
    const auto end = trace::NowNs() + 50'000'000;
    while (trace::NowNs() < end) {
      trace::Scope s(rec, "fusion.plan");
      const auto plan =
          dear::fusion::ByBufferBytes(*model_spec, spec.buffer_bytes);
      if (static_cast<std::size_t>(plan.num_groups()) != group_elems.size())
        result.checks_ok = false;
    }
    rec.set_enabled(false);
    v["fusion.plan_us"] = MedianSpanUs(rec, "fusion.plan");
  }
  const auto dtype = core::WireDType(spec.compression);
  result.checks_ok &= ProbeCollectives(group_elems, dtype, 1.0, probes[1], v);
  result.checks_ok &= ProbeHops(group_elems, dtype, 0.3, probes[2], v);
  ProbeKernels(group_elems, dtype, 0.3, probes[3], v);

  std::vector<const trace::Recorder*> all;
  for (const auto& r : recorders) all.push_back(&r);
  for (const auto& r : probes) all.push_back(&r);
  FinishTrace(options, all, result);
  v["peak_rss_mb"] = PeakRssMb();
  return result;
}

}  // namespace perfbench
