#include "core/elastic.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/schedule_point.h"
#include "core/trainer.h"

namespace dear::core {
namespace {

/// The run's common dataset: two batches per rank's round-robin shard.
/// RunIteration and Replay read micro-batch k of a shard at (k mod 2) x
/// batch, a pure function of the iteration number — so a rank that
/// resynced its iteration counter from the recovery root automatically
/// lands on the batch the oracle replays.
train::Dataset MakeElasticDataset(const ElasticOptions& options) {
  return train::MakeRegressionDataset(options.world * options.batch * 2,
                                      options.dims.front(),
                                      options.dims.back(), options.data_seed);
}

/// ValidateOptions as every re-formed DistOptim runs it (elastic), which
/// rejects the algorithms that cannot follow the survivor count down.
std::string Rejection(const ElasticOptions& options) {
  DistOptimOptions optim = options.optim;
  optim.elastic = true;
  return ValidateOptions(optim, options.world).message();
}

}  // namespace

struct ElasticRuntime::RankState {
  comm::Rank rank{0};
  std::unique_ptr<train::Mlp> mlp;
  train::Dataset shard;
  std::unique_ptr<DistOptim> optim;
  int it{0};
  std::uint32_t cur_epoch{0};
  bool is_root{false};
};

ElasticRuntime::ElasticRuntime(ElasticOptions options)
    : options_(std::move(options)),
      rejection_(Rejection(options_)),
      data_(MakeElasticDataset(options_)),
      hub_(options_.world, {.use_pool = true}),
      membership_(&hub_, options_.membership) {
  if (!rejection_.empty()) Fail(rejection_);
  final_params_.resize(static_cast<std::size_t>(options_.world));
  // Epoch-0 segment: the full group starting from the common seed-derived
  // initialization (every rank constructs the identical Mlp).
  train::Mlp init(options_.dims, options_.model_seed);
  ElasticSegment seg;
  seg.first_iteration = 0;
  seg.epoch = 0;
  for (int r = 0; r < options_.world; ++r) seg.live.push_back(r);
  seg.base_params = FlattenParams(init);
  segments_.push_back(std::move(seg));
}

void ElasticRuntime::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ok_) {
    ok_ = false;
    failure_ = what;
  }
}

bool ElasticRuntime::Recover(RankState& st) {
  st.optim.reset();  // joins the engine; doomed ops fail fast at the old
                     // epoch, so the join cannot hang
  const std::uint32_t ep = membership_.epoch();
  membership_.WaitSettled(ep);
  if (!membership_.IsLive(st.rank)) {
    // Suspected while recovering (not part of scripted single-victim
    // schedules, but reachable under detector races): park like the
    // scripted victim does and retry once readmitted.
    membership_.WaitLive(st.rank);
    return false;
  }
  auto group = membership_.LiveGroup();
  membership_.ObserveEpoch(st.rank, ep);
  comm::Communicator comm(&hub_, st.rank, group, ep);
  // The state-sync root must be a survivor: a fresh readmit's parameters
  // are stale by exactly the iterations it missed.
  const std::uint64_t readmitted = membership_.ReadmittedAt(ep);
  comm::Rank root_logical = 0;
  for (std::size_t i = 0; i < group->size(); ++i) {
    if (((readmitted >> static_cast<unsigned>((*group)[i])) & 1u) == 0) {
      root_logical = static_cast<comm::Rank>(i);
      break;
    }
  }
  st.is_root = comm.rank() == root_logical;

  DistOptimOptions optim_options = options_.optim;
  optim_options.elastic = true;
  st.optim = std::make_unique<DistOptim>(comm, st.mlp->Spec(),
                                         st.mlp->Bindings(), optim_options);
  // Quiesce/handshake barrier: returns once every live rank rebuilt (and,
  // under a schedlab controller, blocks this worker while the fresh engine
  // thread registers). Failure = the epoch moved again; re-enter.
  if (!st.optim->BarrierControl()) return false;
  // State sync: parameters plus the iteration counter, from the root.
  std::vector<float> blob = FlattenParams(*st.mlp);
  blob.push_back(static_cast<float>(st.it));
  if (!st.optim->BroadcastControl(std::span<float>(blob), root_logical)) {
    return false;
  }
  if (!st.is_root) {
    LoadParams(*st.mlp,
               std::span<const float>(blob.data(), blob.size() - 1));
    st.it = static_cast<int>(blob.back());
  }
  st.cur_epoch = ep;
  if (st.is_root) {
    // One segment per epoch: the initial formation at epoch 0 was already
    // recorded by the constructor (and a second Recover at the same epoch
    // would be re-entering after a failed sync, not a new formation).
    bool fresh_epoch = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      fresh_epoch = segments_.empty() || segments_.back().epoch != ep;
      for (const ElasticSegment& s : segments_)
        if (s.epoch == ep) fresh_epoch = false;
      if (fresh_epoch) {
        ElasticSegment seg;
        seg.first_iteration = st.it;
        seg.epoch = ep;
        seg.live = *group;
        blob.pop_back();
        seg.base_params = std::move(blob);
        segments_.push_back(std::move(seg));
      }
    }
    if (fresh_epoch) membership_.NoteReform(ep);
  }
  return true;
}

void ElasticRuntime::CommitRendezvous(RankState& st) {
  const std::uint32_t ep = membership_.epoch();
  const bool quiesced = st.optim->BarrierControl();
  if (quiesced && st.is_root) membership_.CommitReadmits(ep);
  // The commit — or whatever racing suspect doomed the barrier — turned
  // the epoch; wait out its channel cycle, then re-form. Recover's own
  // failure paths land back in the caller's loop.
  membership_.WaitSettled(ep + 1);
  Recover(st);
}

void ElasticRuntime::RunRank(comm::Rank rank) {
  if (!rejection_.empty()) return;
  schedpoint::WorkerScope worker("rank", rank);
  RankState st;
  st.rank = rank;
  st.mlp = std::make_unique<train::Mlp>(options_.dims, options_.model_seed);
  st.shard = data_.Shard(rank, options_.world);
  bool crashed = false;

  while (st.it < options_.iterations) {
    if (hub_.shut_down()) {
      Fail("transport hub shut down mid-run (checker trip or deadlock)");
      return;
    }
    // Scripted churn: the victim dies cooperatively at the *top* of the
    // kill iteration — before launching any collective of it — so no rank
    // can have partially applied that iteration (a ring collective cannot
    // complete without every live rank).
    if (rank == options_.victim && st.it == options_.kill_iteration &&
        !crashed) {
      crashed = true;
      if (options_.rejoin_delay >= 0) membership_.RequestReadmit(rank);
      st.optim.reset();  // engine is idle between iterations: clean join
      membership_.Suspect(rank, "injected crash", rank);
      if (options_.rejoin_delay < 0) return;  // dead for good
      membership_.WaitLive(rank);
      continue;  // recovery check below rebuilds at the readmit epoch
    }
    // Degraded / stale state: a collective failed, or the membership epoch
    // moved past this rank's communicator. Rebuild over the live group.
    if (st.optim == nullptr || st.optim->failed() ||
        st.cur_epoch != membership_.epoch()) {
      Recover(st);
      continue;
    }
    // Readmission rendezvous: the root schedules the commit a fixed number
    // of iterations out; every rank pauses there. No rank can pass the
    // check before the root proposes — iteration progress requires the
    // root's participation in every collective, bounding skew.
    if (st.is_root && membership_.has_pending_readmits() &&
        membership_.commit_at() < 0) {
      membership_.ProposeCommitAt(st.it +
                                  std::max(1, options_.rejoin_delay));
    }
    const std::int64_t commit_at = membership_.commit_at();
    if (commit_at >= 0 && st.it >= commit_at) {
      CommitRendezvous(st);
      continue;
    }
    // One iteration of the fixed-world loop, then a full drain (below).
    RunIteration(*st.mlp, *st.optim, st.shard, options_.batch,
                 options_.optim.accumulation_steps, st.it);
    st.optim->Synchronize();
    if (st.optim->failed()) continue;  // loop top recovers
    ++st.it;
    // Iteration-end quiesce: no rank starts iteration i+1 until every rank
    // submitted barrier i, so an epoch turn always finds every rank's
    // parameters at a consistent end-of-iteration snapshot. A failed
    // barrier recovers at the loop top — parameters are already applied.
    st.optim->BarrierControl();
  }

  // Epilogue rendezvous: a commit scheduled at/after the final iteration
  // still has to happen, or the parked victim would never wake. Bounded:
  // each pass either commits (clearing the pending set) or rides an epoch
  // turn, and scripted schedules have one victim.
  int epilogue_guard = 0;
  while (membership_.has_pending_readmits() && options_.rejoin_delay >= 0) {
    if (hub_.shut_down() || ++epilogue_guard > 8) {
      Fail("epilogue readmission rendezvous did not converge");
      return;
    }
    if (st.optim == nullptr || st.optim->failed() ||
        st.cur_epoch != membership_.epoch()) {
      Recover(st);
      continue;
    }
    if (st.is_root && membership_.commit_at() < 0) {
      membership_.ProposeCommitAt(options_.iterations);
    }
    CommitRendezvous(st);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    final_params_[static_cast<std::size_t>(rank)] = FlattenParams(*st.mlp);
  }
}

ElasticReport ElasticRuntime::TakeReport() {
  ElasticReport report;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    report.ok = ok_;
    report.failure = failure_;
    report.segments = segments_;
    report.final_params = final_params_;
  }
  std::sort(report.segments.begin(), report.segments.end(),
            [](const ElasticSegment& a, const ElasticSegment& b) {
              return a.epoch < b.epoch;
            });
  report.transition_log = membership_.FormatTransitions();
  report.stale_drops = hub_.stale_drops();
  return report;
}

ElasticReport RunElasticTraining(const ElasticOptions& options) {
  ElasticRuntime runtime(options);
  if (!runtime.rejection().empty()) return runtime.TakeReport();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(options.world));
  for (int r = 0; r < options.world; ++r) {
    threads.emplace_back([&runtime, r] { runtime.RunRank(r); });
  }
  for (std::thread& t : threads) t.join();
  return runtime.TakeReport();
}

std::vector<float> SequentialOracle(const ElasticOptions& options,
                                    const ElasticSegment& segment,
                                    int end_iteration) {
  train::Mlp mlp(options.dims, options.model_seed);
  LoadParams(mlp, segment.base_params);
  Replay(mlp, MakeElasticDataset(options),
         {.world = options.world,
          .live = segment.live,
          .batch = options.batch,
          .accumulation_steps = options.optim.accumulation_steps,
          .sgd = options.optim.sgd},
         segment.first_iteration, end_iteration);
  return FlattenParams(mlp);
}

}  // namespace dear::core
