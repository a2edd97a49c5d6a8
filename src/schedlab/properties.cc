#include "schedlab/properties.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/causal.h"
#include "comm/async.h"
#include "comm/collectives.h"
#include "comm/communicator.h"
#include "comm/kernels.h"
#include "comm/transport.h"
#include "comm/worker_group.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/schedule_point.h"
#include "core/dist_optim.h"
#include "flightrec/recorder.h"
#include "train/data.h"
#include "train/mlp.h"

namespace dear::schedlab {
namespace {

constexpr std::uint64_t kDigestBasis = 1469598103934665603ULL;

std::uint64_t DigestFloats(std::uint64_t h, std::span<const float> v) {
  for (const float f : v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int s = 0; s < 32; s += 8) {
      h ^= (bits >> s) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::uint64_t Mix64(std::uint64_t h, std::uint64_t v) {
  for (int s = 0; s < 64; s += 8) {
    h ^= (v >> s) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<float> MakeInput(std::uint64_t seed, int rank, std::size_t n) {
  Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(rank) + 1);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  return v;
}

/// Elementwise oracle across ranks. Sums accumulate in double (the checks
/// against it are tolerance-based; bitwise invariance is checked via the
/// digest instead). kMax/kMin are exact in float.
std::vector<float> Reduced(const std::vector<std::vector<float>>& in,
                           comm::ReduceOp op) {
  const std::size_t n = in[0].size();
  const auto world = in.size();
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (op == comm::ReduceOp::kMax || op == comm::ReduceOp::kMin) {
      float v = in[0][i];
      for (std::size_t r = 1; r < world; ++r)
        v = op == comm::ReduceOp::kMax ? std::max(v, in[r][i])
                                       : std::min(v, in[r][i]);
      out[i] = v;
    } else {
      double acc = 0.0;
      for (std::size_t r = 0; r < world; ++r) acc += in[r][i];
      if (op == comm::ReduceOp::kAvg) acc /= static_cast<double>(world);
      out[i] = static_cast<float>(acc);
    }
  }
  return out;
}

/// Relative tolerance for order-sensitive reductions. fp32 keeps the
/// historical 1e-4; a lossy wire dtype rounds every partial result it
/// ships, so the bound widens to the dtype's unit roundoff scaled by the
/// number of ranks (each ring hop re-rounds a partial whose magnitude is
/// bounded by the final sum's).
float ReduceTolerance(const PropertyOptions& options) {
  float eps = 0.0f;
  switch (options.wire_dtype) {
    case comm::DType::kF16: eps = 0x1p-10f; break;   // 11-bit significand
    case comm::DType::kBF16: eps = 0x1p-7f; break;   // 8-bit significand
    case comm::DType::kF32: break;
  }
  return std::max(1e-4f, 2.0f * eps * static_cast<float>(options.world));
}

bool Near(float a, float b, float tol = 1e-4f) {
  return std::fabs(a - b) <= tol * (1.0f + std::fabs(b));
}

/// `v` rounded once through the wire dtype — the oracle for what a
/// copy-collective delivers (and what the sender keeps) under
/// convert-on-pack. Identity for kF32.
std::vector<float> Quantized(comm::DType dtype, std::vector<float> v) {
  comm::kernels::QuantizeInPlace(dtype, std::span<float>(v));
  return v;
}

/// Units-in-the-last-place distance between two floats in representation
/// order (0 == bitwise equal; +0 and -0 are 1 apart, which is fine for a
/// 0-ULP equality check).
std::int64_t UlpDistance(float a, float b) {
  auto ordered = [](float x) {
    std::int32_t i = 0;
    std::memcpy(&i, &x, sizeof(i));
    // Map the sign-magnitude float ordering onto a monotone integer line.
    return i < 0 ? std::int64_t{std::numeric_limits<std::int32_t>::min()} - i
                 : std::int64_t{i};
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

/// First-failure collector.
struct Verdict {
  bool ok{true};
  std::string failure;
  void Expect(bool cond, const std::string& msg) {
    if (!cond && ok) {
      ok = false;
      failure = msg;
    }
  }
};

void ExpectNearAll(Verdict& v, const char* what, std::span<const float> got,
                   std::span<const float> want, float tol = 1e-4f) {
  v.Expect(got.size() == want.size(), std::string(what) + ": size mismatch");
  if (!v.ok) return;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!Near(got[i], want[i], tol)) {
      v.Expect(false, std::string(what) + ": elem " + std::to_string(i) +
                          " got " + std::to_string(got[i]) + " want " +
                          std::to_string(want[i]));
      return;
    }
  }
}

/// Elementwise ULP-distance bound. `bound == 0` is bitwise equality but
/// the failure message reports HOW FAR off the worst element landed —
/// the decoupled-equivalence property uses this so a lossy-dtype break
/// shows up as "N ULP apart", not an opaque memcmp mismatch.
void ExpectUlpAll(Verdict& v, const char* what, std::span<const float> got,
                  std::span<const float> want, std::int64_t bound) {
  v.Expect(got.size() == want.size(), std::string(what) + ": size mismatch");
  if (!v.ok) return;
  std::int64_t worst = 0;
  std::size_t worst_i = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::int64_t d = UlpDistance(got[i], want[i]);
    if (d > worst) {
      worst = d;
      worst_i = i;
    }
  }
  if (worst > bound)
    v.Expect(false, std::string(what) + ": elem " + std::to_string(worst_i) +
                        " is " + std::to_string(worst) + " ULP apart (bound " +
                        std::to_string(bound) + "): got " +
                        std::to_string(got[worst_i]) + " want " +
                        std::to_string(want[worst_i]));
}

void ExpectBitwiseAll(Verdict& v, const char* what, std::span<const float> got,
                      std::span<const float> want) {
  v.Expect(got.size() == want.size(), std::string(what) + ": size mismatch");
  if (!v.ok) return;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0)
    v.Expect(false, std::string(what) + ": bitwise mismatch");
}

/// Runs `body(comm)` on `world` controller-registered rank threads over
/// `hub`, each communicator set to `wire_dtype`; a declared deadlock
/// shuts the hub down so everything unwinds.
ScheduleResult RunRanked(Picker& picker, int world, int expected_workers,
                         comm::TransportHub& hub, comm::DType wire_dtype,
                         const std::function<void(comm::Communicator&)>& body) {
  ControllerOptions options;
  options.expected_workers = expected_workers;
  options.on_deadlock = [&hub] { hub.Shutdown(); };
  return RunUnderSchedule(picker, options, [&] {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        schedpoint::WorkerScope worker("rank", r);
        comm::Communicator comm(&hub, r);
        comm.set_wire_dtype(wire_dtype);
        body(comm);
      });
    }
    for (auto& t : threads) t.join();
  });
}

}  // namespace

PropertyReport CheckDecoupledEquivalence(Picker& picker,
                                         const PropertyOptions& options) {
  PropertyReport report;
  const int world = options.world;
  const std::size_t n = options.elems;

  // Fused reference, run WITHOUT the controller: the ring algorithm fixes
  // the reduction order, so this is the bitwise answer every schedule of
  // the decoupled pair must reproduce exactly. This holds per wire dtype —
  // the fused ring IS the decoupled pair under the hood, so even lossy
  // fp16/bf16 rounding lands on identical bits on both sides.
  std::vector<std::vector<float>> sum_ref;
  std::vector<std::vector<float>> avg_ref;
  for (int r = 0; r < world; ++r) {
    sum_ref.push_back(MakeInput(options.payload_seed, r, n));
    avg_ref.push_back(sum_ref.back());
  }
  comm::RunOnRanks(
      world,
      [&](comm::Communicator& comm) {
        comm.set_wire_dtype(options.wire_dtype);
        const auto r = static_cast<std::size_t>(comm.rank());
        (void)comm::RingAllReduce(comm, std::span<float>(sum_ref[r]),
                                  comm::ReduceOp::kSum);
        (void)comm::RingAllReduce(comm, std::span<float>(avg_ref[r]),
                                  comm::ReduceOp::kAvg);
      },
      {.use_pool = options.use_pool});

  std::vector<std::vector<float>> sum_out;
  std::vector<std::vector<float>> avg_out;
  for (int r = 0; r < world; ++r) {
    sum_out.push_back(MakeInput(options.payload_seed, r, n));
    avg_out.push_back(sum_out.back());
  }
  std::vector<Status> status(static_cast<std::size_t>(world), Status::Ok());

  comm::TransportHub hub(world, {.use_pool = options.use_pool});
  report.schedule = RunRanked(
      picker, world, world, hub, options.wire_dtype,
      [&](comm::Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        Status s = comm::RingReduceScatter(comm, std::span<float>(sum_out[r]),
                                           comm::ReduceOp::kSum);
        if (s.ok()) s = comm::RingAllGather(comm, std::span<float>(sum_out[r]));
        if (s.ok())
          s = comm::RingReduceScatter(comm, std::span<float>(avg_out[r]),
                                      comm::ReduceOp::kAvg);
        if (s.ok()) s = comm::RingAllGather(comm, std::span<float>(avg_out[r]));
        status[r] = s;
      });

  Verdict v;
  v.Expect(!report.schedule.deadlock, "controller declared a deadlock");
  for (int r = 0; r < world; ++r)
    v.Expect(status[static_cast<std::size_t>(r)].ok(),
             "rank " + std::to_string(r) + ": " +
                 status[static_cast<std::size_t>(r)].ToString());
  std::uint64_t digest = kDigestBasis;
  for (int r = 0; r < world && v.ok; ++r) {
    const auto i = static_cast<std::size_t>(r);
    // Bound 0 for EVERY dtype: decoupling must stay exact even when the
    // wire rounds — a nonzero distance prints as "N ULP apart".
    ExpectUlpAll(v, "rs+ag(kSum) vs fused ring all-reduce", sum_out[i],
                 sum_ref[i], /*bound=*/0);
    ExpectUlpAll(v, "rs+ag(kAvg) vs fused ring all-reduce", avg_out[i],
                 avg_ref[i], /*bound=*/0);
    digest = DigestFloats(digest, sum_out[i]);
    digest = DigestFloats(digest, avg_out[i]);
  }
  report.ok = v.ok;
  report.failure = std::move(v.failure);
  report.result_digest = digest;
  return report;
}

PropertyReport CheckAllCollectives(Picker& picker,
                                   const PropertyOptions& options) {
  PropertyReport report;
  const int world = options.world;
  const auto uw = static_cast<std::size_t>(world);
  const std::size_t n = options.elems;
  const bool pow2 = (world & (world - 1)) == 0;
  const int rpn = world % 2 == 0 ? 2 : 1;
  const comm::Rank bcast_root = world - 1;

  std::vector<std::vector<float>> input;
  for (int r = 0; r < world; ++r)
    input.push_back(MakeInput(options.payload_seed, r, n));
  const std::vector<float> sum_oracle = Reduced(input, comm::ReduceOp::kSum);
  const std::vector<float> avg_oracle = Reduced(input, comm::ReduceOp::kAvg);
  const std::vector<float> max_oracle = Reduced(input, comm::ReduceOp::kMax);
  const std::vector<float> min_oracle = Reduced(input, comm::ReduceOp::kMin);
  // Copy-collectives stay BITWISE-checkable under a lossy wire dtype: every
  // element crosses the wire (or is retained-and-quantized by its sender)
  // exactly once, so the oracle is the input rounded once through the
  // dtype. For kF32 Quantized() is the identity and these are the plain
  // fp32 oracles.
  const bool lossy = options.wire_dtype != comm::DType::kF32;
  const float tol = ReduceTolerance(options);
  std::vector<std::vector<float>> q_input;
  for (int r = 0; r < world; ++r)
    q_input.push_back(
        Quantized(options.wire_dtype, input[static_cast<std::size_t>(r)]));

  // Working buffers, all pre-filled deterministically on this thread.
  auto copies = [&] { return input; };
  std::vector<std::vector<float>> ar_sum = copies();
  std::vector<std::vector<float>> ar_avg = copies();
  std::vector<std::vector<float>> ar_max = copies();
  std::vector<std::vector<float>> ar_min = copies();
  std::vector<std::vector<float>> ar_tree = copies();
  std::vector<std::vector<float>> ar_dbt = copies();
  std::vector<std::vector<float>> ar_hier = copies();
  std::vector<std::vector<float>> ar_rhd = copies();
  std::vector<std::vector<float>> ar_seg = copies();
  std::vector<std::vector<float>> rs_ring = copies();
  std::vector<std::vector<float>> pair_rhd = copies();
  std::vector<std::vector<float>> pair_hier = copies();
  std::vector<std::vector<float>> reduce_tree = copies();
  std::vector<std::vector<float>> bcast = copies();
  // All-gather contract: rank r's own chunk must be valid on entry.
  std::vector<float> ag_expected(n);
  for (int owner = 0; owner < world; ++owner) {
    const Range range = ChunkRange(n, uw, static_cast<std::size_t>(owner));
    for (std::size_t i = range.begin; i < range.end; ++i)
      ag_expected[i] = static_cast<float>(owner * 1000) +
                       static_cast<float>(i) * 0.25f;
  }
  std::vector<std::vector<float>> ag_ring(uw, ag_expected);
  const std::vector<float> ag_oracle = Quantized(options.wire_dtype,
                                                 ag_expected);

  std::vector<Status> status(uw, Status::Ok());

  comm::TransportHub hub(world, {.use_pool = options.use_pool});
  report.schedule = RunRanked(
      picker, world, world, hub, options.wire_dtype,
      [&](comm::Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        Status s = Status::Ok();
        auto step = [&](Status next) {
          if (s.ok()) s = std::move(next);
        };
        auto span_of = [&](std::vector<std::vector<float>>& buf) {
          return std::span<float>(buf[r]);
        };
        step(comm::RingAllReduce(comm, span_of(ar_sum), comm::ReduceOp::kSum));
        step(comm::RingAllReduce(comm, span_of(ar_avg), comm::ReduceOp::kAvg));
        step(comm::RingAllReduce(comm, span_of(ar_max), comm::ReduceOp::kMax));
        step(comm::RingAllReduce(comm, span_of(ar_min), comm::ReduceOp::kMin));
        step(comm::TreeAllReduce(comm, span_of(ar_tree)));
        step(comm::DoubleBinaryTreeAllReduce(comm, span_of(ar_dbt)));
        step(comm::HierarchicalAllReduce(comm, span_of(ar_hier), rpn));
        if (pow2)
          step(comm::RecursiveHalvingDoublingAllReduce(comm, span_of(ar_rhd)));
        step(comm::RingAllReduceSegmented(comm, span_of(ar_seg),
                                          /*segment_bytes=*/32));
        step(comm::RingReduceScatter(comm, span_of(rs_ring),
                                     comm::ReduceOp::kSum));
        if (pow2) {
          step(comm::RecursiveHalvingReduceScatter(comm, span_of(pair_rhd)));
          step(comm::RecursiveDoublingAllGather(comm, span_of(pair_rhd)));
        }
        step(comm::HierarchicalReduceScatter(comm, span_of(pair_hier), rpn));
        step(comm::HierarchicalAllGather(comm, span_of(pair_hier), rpn));
        step(comm::TreeReduce(comm, span_of(reduce_tree), /*root=*/0));
        step(comm::TreeBroadcast(comm, span_of(bcast), bcast_root));
        step(comm::RingAllGather(comm, span_of(ag_ring)));
        step(comm::Barrier(comm));
        status[r] = s;
      });

  Verdict v;
  v.Expect(!report.schedule.deadlock, "controller declared a deadlock");
  for (std::size_t r = 0; r < uw; ++r)
    v.Expect(status[r].ok(),
             "rank " + std::to_string(r) + ": " + status[r].ToString());

  std::uint64_t digest = kDigestBasis;
  for (std::size_t r = 0; r < uw && v.ok; ++r) {
    ExpectNearAll(v, "ring all-reduce kSum", ar_sum[r], sum_oracle, tol);
    ExpectNearAll(v, "ring all-reduce kAvg", ar_avg[r], avg_oracle, tol);
    // kMax/kMin are exact in fp32 but a lossy wire rounds the partial
    // extremum it forwards, so the tolerance oracle takes over there.
    if (lossy) {
      ExpectNearAll(v, "ring all-reduce kMax", ar_max[r], max_oracle, tol);
      ExpectNearAll(v, "ring all-reduce kMin", ar_min[r], min_oracle, tol);
    } else {
      ExpectBitwiseAll(v, "ring all-reduce kMax", ar_max[r], max_oracle);
      ExpectBitwiseAll(v, "ring all-reduce kMin", ar_min[r], min_oracle);
    }
    ExpectNearAll(v, "tree all-reduce", ar_tree[r], sum_oracle, tol);
    ExpectNearAll(v, "double-binary-tree all-reduce", ar_dbt[r], sum_oracle,
                  tol);
    ExpectNearAll(v, "hierarchical all-reduce", ar_hier[r], sum_oracle, tol);
    if (pow2) {
      ExpectNearAll(v, "recursive halving-doubling all-reduce", ar_rhd[r],
                    sum_oracle, tol);
      ExpectNearAll(v, "recursive RS+AG pair", pair_rhd[r], sum_oracle, tol);
    }
    ExpectNearAll(v, "segmented ring all-reduce", ar_seg[r], sum_oracle, tol);
    ExpectNearAll(v, "hierarchical RS+AG pair", pair_hier[r], sum_oracle, tol);
    const Range own = ChunkRange(n, uw, r);
    ExpectNearAll(
        v, "ring reduce-scatter (own chunk)",
        std::span<const float>(rs_ring[r]).subspan(own.begin, own.size()),
        std::span<const float>(sum_oracle).subspan(own.begin, own.size()),
        tol);
    if (r == 0)
      ExpectNearAll(v, "tree reduce (root)", reduce_tree[0], sum_oracle, tol);
    // Copy-collectives: bitwise against the once-quantized oracle for
    // every dtype ("what you send is what you keep").
    ExpectBitwiseAll(v, "tree broadcast", bcast[r],
                     q_input[static_cast<std::size_t>(bcast_root)]);
    ExpectBitwiseAll(v, "ring all-gather", ag_ring[r], ag_oracle);

    digest = DigestFloats(digest, ar_sum[r]);
    digest = DigestFloats(digest, ar_avg[r]);
    digest = DigestFloats(digest, ar_max[r]);
    digest = DigestFloats(digest, ar_min[r]);
    digest = DigestFloats(digest, ar_tree[r]);
    digest = DigestFloats(digest, ar_dbt[r]);
    digest = DigestFloats(digest, ar_hier[r]);
    if (pow2) {
      digest = DigestFloats(digest, ar_rhd[r]);
      digest = DigestFloats(digest, pair_rhd[r]);
    }
    digest = DigestFloats(digest, ar_seg[r]);
    digest = DigestFloats(digest, pair_hier[r]);
    digest = DigestFloats(
        digest,
        std::span<const float>(rs_ring[r]).subspan(own.begin, own.size()));
    digest = DigestFloats(digest, bcast[r]);
    digest = DigestFloats(digest, ag_ring[r]);
  }

  report.ok = v.ok;
  report.failure = std::move(v.failure);
  report.result_digest = digest;
  return report;
}

PropertyReport CheckTrainingStep(Picker& picker,
                                 const PropertyOptions& options) {
  PropertyReport report;
  const int world = options.world;
  const auto uw = static_cast<std::size_t>(world);
  const std::vector<int> dims{4, 8, 6, 2};
  const int batch = 2;
  const int iterations = 2;
  const auto data = train::MakeRegressionDataset(
      world * batch * 2, dims.front(), dims.back(), /*seed=*/77);

  // dearcheck's GroupEvent machine is the online oracle for FeedPipe
  // ("AG(l) completes before FF_l") and BackPipe FIFO order. The watchdog
  // stays off — under the controller, hang detection is its job.
  auto& checker = check::Checker::Get();
  check::CheckerOptions checker_options;
  checker_options.watchdog_timeout_s = 0;
  checker.Enable(world, checker_options);

  comm::TransportHub hub(world, {.use_pool = options.use_pool});
  checker.SetTripHandler([&hub] { hub.Shutdown(); });

  std::vector<std::vector<std::vector<float>>> params(uw);
  std::vector<std::vector<float>> losses(uw);

  // DistOptim drives the wire dtype through its Compression knob (the
  // engine stamps it per request), so the communicator-level default the
  // other properties use is left at fp32 here.
  core::Compression compression = core::Compression::kNone;
  switch (options.wire_dtype) {
    case comm::DType::kF16: compression = core::Compression::kFp16; break;
    case comm::DType::kBF16: compression = core::Compression::kBf16; break;
    case comm::DType::kF32: break;
  }

  // One compute + one comm-engine worker per rank.
  report.schedule = RunRanked(
      picker, world, 2 * world, hub, comm::DType::kF32,
      [&](comm::Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        const auto shard = data.Shard(comm.rank(), world);
        train::Mlp mlp(dims, /*seed=*/21);
        core::DistOptimOptions optim_options;
        optim_options.mode = core::ScheduleMode::kDeAR;
        optim_options.buffer_bytes = 256;  // several fusion groups
        optim_options.sgd = {.lr = 0.05f, .momentum = 0.9f};
        optim_options.compression = compression;
        core::DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), optim_options);
        std::vector<float> x;
        std::vector<float> y;
        std::vector<float> grad;
        int cursor = 0;
        for (int it = 0; it < iterations; ++it) {
          mlp.ZeroGrad();
          if (cursor + batch > shard.num_samples) cursor = 0;
          shard.Batch(cursor, batch, &x, &y);
          cursor += batch;
          const auto pred =
              mlp.Forward(x, batch, [&](int l) { optim.PreForward(l); });
          losses[r].push_back(train::Mlp::MseLoss(pred, y, &grad));
          mlp.Backward(grad, batch, [&](int l) { optim.OnBackwardLayer(l); });
          optim.Step();
        }
        optim.Synchronize();
        for (auto& layer : mlp.layers()) {
          params[r].push_back(layer.w);
          params[r].push_back(layer.b);
        }
      });

  const bool tripped = checker.tripped();
  const std::string trip_report = tripped ? checker.report() : "";
  const std::size_t leaked = checker.blocked_waiters();
  const std::int64_t verified = checker.verified_ops();
  checker.Disable();

  Verdict v;
  v.Expect(!report.schedule.deadlock, "controller declared a deadlock");
  v.Expect(!tripped, "dearcheck tripped: " + trip_report);
  v.Expect(leaked == 0,
           "leaked blocked waiters at teardown: " + std::to_string(leaked));
  v.Expect(verified > 0, "checker verified no collectives");
  std::uint64_t digest = kDigestBasis;
  if (v.ok) {
    for (std::size_t r = 1; r < uw; ++r) {
      v.Expect(params[r].size() == params[0].size(), "param tensor count");
      for (std::size_t t = 0; t < params[0].size() && v.ok; ++t)
        ExpectBitwiseAll(v, "cross-rank parameter consistency", params[r][t],
                         params[0][t]);
    }
    for (const auto& tensor : params[0]) digest = DigestFloats(digest, tensor);
    digest = DigestFloats(digest, losses[0]);
  }
  report.ok = v.ok;
  report.failure = std::move(v.failure);
  report.result_digest = digest;
  return report;
}

PropertyReport CheckMessageDagInvariance(std::uint64_t seed,
                                         const PropertyOptions& options) {
  PropertyReport report;
  std::uint64_t fingerprint[2] = {0, 0};
  std::size_t edge_count[2] = {0, 0};
  for (int run = 0; run < 2 && report.ok; ++run) {
    flightrec::Recorder::Get().Reset();
    RandomWalkPicker picker(seed +
                            static_cast<std::uint64_t>(run) *
                                0x9E3779B97F4A7C15ULL);
    PropertyReport sweep = CheckAllCollectives(picker, options);
    if (!sweep.ok) {
      report.ok = false;
      report.failure = "collective sweep failed under schedule " +
                       std::to_string(run) + ": " + sweep.failure;
      break;
    }
    const auto graph = analysis::BuildCausalGraph(
        flightrec::Recorder::Get().SnapshotAll());
    if (graph.unmatched_sends != 0 || graph.unmatched_recvs != 0) {
      report.ok = false;
      report.failure =
          "causal matching incomplete: " +
          std::to_string(graph.unmatched_sends) + " unmatched sends, " +
          std::to_string(graph.unmatched_recvs) + " unmatched recvs";
      break;
    }
    if (!graph.lamport_consistent) {
      report.ok = false;
      report.failure = "Lamport order violated on a message edge";
      break;
    }
    fingerprint[run] = analysis::EdgeSetFingerprint(graph);
    edge_count[run] = graph.edges.size();
    report.schedule = sweep.schedule;
  }
  if (report.ok && fingerprint[0] != fingerprint[1]) {
    report.ok = false;
    report.failure = "message DAG is schedule-dependent: " +
                     std::to_string(edge_count[0]) + " vs " +
                     std::to_string(edge_count[1]) +
                     " edges with different fingerprints";
  }
  report.result_digest = fingerprint[0];
  return report;
}

PropertyReport RunPropertySuite(std::uint64_t seed,
                                const PropertyOptions& options) {
  Rng derive(seed);
  RandomWalkPicker decoupled_picker(derive.NextU64());
  RandomWalkPicker collectives_picker(derive.NextU64());
  RandomWalkPicker training_picker(derive.NextU64());

  PropertyReport merged;
  merged.result_digest = kDigestBasis;
  merged.schedule.fingerprint = kDigestBasis;
  auto absorb = [&merged](const char* name, const PropertyReport& r) {
    if (merged.ok && !r.ok) {
      merged.ok = false;
      merged.failure = std::string(name) + ": " + r.failure;
    }
    merged.result_digest = Mix64(merged.result_digest, r.result_digest);
    merged.schedule.fingerprint =
        Mix64(merged.schedule.fingerprint, r.schedule.fingerprint);
    merged.schedule.decisions += r.schedule.decisions;
    merged.schedule.deadlock = merged.schedule.deadlock || r.schedule.deadlock;
    merged.schedule.workers += r.schedule.workers;
    merged.schedule.trace.push_back(std::string("# property: ") + name);
    for (const auto& line : r.schedule.trace)
      merged.schedule.trace.push_back(line);
  };
  absorb("decoupled_equivalence",
         CheckDecoupledEquivalence(decoupled_picker, options));
  absorb("all_collectives", CheckAllCollectives(collectives_picker, options));
  absorb("training_step", CheckTrainingStep(training_picker, options));
  return merged;
}

MutationOutcome RunMutationCheck(check::FaultKind kind, int world,
                                 std::uint64_t base_seed, int budget) {
  MutationOutcome outcome;
  for (int attempt = 0; attempt < budget; ++attempt) {
    auto& checker = check::Checker::Get();
    check::CheckerOptions checker_options;
    checker_options.watchdog_timeout_s = 0;  // controller detects hangs
    checker.Enable(world, checker_options);
    check::FaultSpec fault;
    fault.rank = 1;
    fault.op_index = 0;
    fault.kind = kind;
    checker.ArmFault(fault);

    comm::TransportHub hub(world);
    checker.SetTripHandler([&hub] { hub.Shutdown(); });

    const auto uw = static_cast<std::size_t>(world);
    const std::size_t n = uw * 8;
    std::vector<std::vector<float>> buffers(uw, std::vector<float>(n, 1.0f));
    std::vector<Status> rs_status(uw, Status::Ok());
    std::vector<Status> ag_status(uw, Status::Ok());

    ControllerOptions controller_options;
    controller_options.expected_workers = 2 * world;
    controller_options.on_deadlock = [&hub] { hub.Shutdown(); };
    RandomWalkPicker picker(base_seed + static_cast<std::uint64_t>(attempt));

    const ScheduleResult sched =
        RunUnderSchedule(picker, controller_options, [&] {
          std::vector<std::unique_ptr<comm::CommEngine>> engines;
          engines.reserve(uw);
          for (int r = 0; r < world; ++r)
            engines.push_back(std::make_unique<comm::CommEngine>(
                comm::Communicator(&hub, r)));
          std::vector<std::thread> threads;
          threads.reserve(uw);
          for (int r = 0; r < world; ++r) {
            threads.emplace_back([&, r] {
              schedpoint::WorkerScope worker("rank", r);
              const auto i = static_cast<std::size_t>(r);
              auto& engine = *engines[i];
              std::span<float> buf(buffers[i]);
              auto rs = engine.SubmitReduceScatter(buf, comm::ReduceOp::kAvg);
              auto ag = engine.SubmitAllGather(buf);
              rs_status[i] = rs.Wait();
              ag_status[i] = ag.Wait();
            });
          }
          for (auto& t : threads) t.join();
          for (auto& engine : engines) engine->Shutdown();
        });

    std::string how;
    if (sched.deadlock) how = "deadlock";
    if (how.empty() && checker.tripped()) how = "checker: " + checker.report();
    if (how.empty()) {
      for (std::size_t r = 0; r < uw; ++r) {
        if (!rs_status[r].ok() || !ag_status[r].ok()) {
          const Status& bad = rs_status[r].ok() ? ag_status[r] : rs_status[r];
          how = "status: rank " + std::to_string(r) + ": " + bad.ToString();
          break;
        }
      }
    }
    checker.Disable();
    if (!how.empty()) {
      outcome.detected = true;
      outcome.schedules_used = attempt + 1;
      outcome.how = std::move(how);
      return outcome;
    }
  }
  outcome.schedules_used = budget;
  return outcome;
}

}  // namespace dear::schedlab
