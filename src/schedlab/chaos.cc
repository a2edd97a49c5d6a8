#include "schedlab/chaos.h"

#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "check/checker.h"
#include "comm/collectives.h"
#include "comm/communicator.h"
#include "common/logging.h"
#include "schedlab/oracle.h"

namespace dear::schedlab {
namespace {

using namespace oracle;

const char* OpName(comm::ReduceOp op) {
  switch (op) {
    case comm::ReduceOp::kSum: return "kSum";
    case comm::ReduceOp::kAvg: return "kAvg";
    case comm::ReduceOp::kMax: return "kMax";
    case comm::ReduceOp::kMin: return "kMin";
  }
  return "?";
}

/// One reducing round over either a group view (grp != null, on a hub that
/// is LARGER than the group — the shrunken-ring case) or the identity view.
/// Position i runs RS(op);AG on one buffer and fused AR(op) on another,
/// both seeded by group position, so two calls with the same seed are
/// comparing identical arithmetic inputs.
struct ReduceCaseOut {
  std::vector<std::vector<float>> rsag;
  std::vector<std::vector<float>> ar;
  std::string failure;  // first collective error, if any
};

ReduceCaseOut RunReduceCase(comm::TransportHub& hub,
                            std::shared_ptr<const std::vector<comm::Rank>> grp,
                            comm::ReduceOp op, std::uint64_t seed,
                            std::size_t elems) {
  const int n = grp ? static_cast<int>(grp->size()) : hub.size();
  ReduceCaseOut out;
  out.rsag.resize(static_cast<std::size_t>(n));
  out.ar.resize(static_cast<std::size_t>(n));
  std::vector<Status> status(static_cast<std::size_t>(n), Status::Ok());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      comm::Communicator comm =
          grp ? comm::Communicator(&hub, (*grp)[static_cast<std::size_t>(i)],
                                   grp, /*epoch=*/0)
              : comm::Communicator(&hub, i);
      auto& pair_buf = out.rsag[static_cast<std::size_t>(i)];
      auto& fused_buf = out.ar[static_cast<std::size_t>(i)];
      pair_buf = MakeInput(seed, i, elems);
      fused_buf = pair_buf;
      Status s = comm::RingReduceScatter(comm, std::span<float>(pair_buf), op);
      if (s.ok()) s = comm::RingAllGather(comm, std::span<float>(pair_buf));
      if (s.ok()) s = comm::RingAllReduce(comm, std::span<float>(fused_buf), op);
      status[static_cast<std::size_t>(i)] = s;
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : status) {
    if (!s.ok()) {
      out.failure = s.message();
      break;
    }
  }
  return out;
}

}  // namespace

PropertyReport CheckShrunkenRing(int world, comm::Rank victim,
                                 std::uint64_t payload_seed) {
  PropertyReport report;
  DEAR_CHECK_MSG(world >= 2 && victim >= 0 && victim < world,
                 "CheckShrunkenRing needs world >= 2 and a valid victim");
  const std::size_t elems = 24;
  const int survivors = world - 1;

  auto group = std::make_shared<std::vector<comm::Rank>>();
  for (comm::Rank r = 0; r < world; ++r)
    if (r != victim) group->push_back(r);

  Verdict v;
  std::uint64_t digest = kDigestBasis;
  const comm::ReduceOp ops[] = {comm::ReduceOp::kSum, comm::ReduceOp::kAvg,
                                comm::ReduceOp::kMax, comm::ReduceOp::kMin};
  // One full-size hub for every grouped round (the dead rank's channels
  // simply stay idle), one survivor-size hub for the fresh reference runs.
  comm::TransportHub wide(world, {.use_pool = true});
  comm::TransportHub fresh(survivors, {.use_pool = true});
  for (std::size_t k = 0; k < std::size(ops) && v.ok; ++k) {
    const comm::ReduceOp op = ops[k];
    const std::uint64_t seed = payload_seed * 8191ULL + k;
    ReduceCaseOut grouped = RunReduceCase(wide, group, op, seed, elems);
    ReduceCaseOut fixed = RunReduceCase(fresh, nullptr, op, seed, elems);
    const std::string tag = std::string("shrunken ring ") + OpName(op);
    v.Expect(grouped.failure.empty(), tag + " (grouped): " + grouped.failure);
    v.Expect(fixed.failure.empty(), tag + " (fresh): " + fixed.failure);

    // Anchor the fresh fixed-world run against the double-precision
    // oracle, then require the survivor-group run to match it bitwise —
    // in particular kAvg must have divided by the LIVE count, not the
    // hub's world size.
    std::vector<std::vector<float>> inputs;
    for (int i = 0; i < survivors; ++i)
      inputs.push_back(MakeInput(seed, i, elems));
    const std::vector<float> reduced = Reduced(inputs, op);
    for (int i = 0; i < survivors && v.ok; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ExpectNearAll(v, tag + " fresh vs oracle", fixed.rsag[u], reduced);
      ExpectBitwiseAll(v, tag + " rs+ag grouped vs fresh", grouped.rsag[u],
                       fixed.rsag[u]);
      ExpectBitwiseAll(v, tag + " all-reduce grouped vs fresh", grouped.ar[u],
                       fixed.ar[u]);
      digest = DigestFloats(digest, grouped.rsag[u]);
      digest = DigestFloats(digest, grouped.ar[u]);
    }
  }
  report.ok = v.ok;
  report.failure = std::move(v.failure);
  report.result_digest = digest;
  return report;
}

ChaosReport RunCrashRejoin(std::uint64_t seed, const ChaosOptions& options) {
  ChaosReport report;
  report.seed = seed;

  core::ElasticOptions eopts = options.elastic;
  const int world = eopts.world;
  DEAR_CHECK_MSG(world >= 2, "crash/rejoin needs at least two ranks");
  if (eopts.victim < 0 && options.randomize_fault) {
    // The seed IS the fault: victim, kill point, and rejoin delay all
    // derive from it, so the nightly sweep explores the fault space and a
    // printed seed replays the exact same crash.
    const std::uint64_t h = Mix64(kDigestBasis, seed);
    eopts.victim = static_cast<comm::Rank>(h % static_cast<std::uint64_t>(world));
    // Kill in [1, iterations-2]: never before the first full iteration,
    // never so late that the readmission rendezvous is purely epilogue.
    const int span = std::max(1, eopts.iterations - 2);
    eopts.kill_iteration = 1 + static_cast<int>((h >> 8) % static_cast<std::uint64_t>(span));
    eopts.rejoin_delay = 1 + static_cast<int>((h >> 24) % 2ULL);
  }
  // The controller serializes every worker, so wall-clock liveness
  // deadlines would fire spuriously mid-schedule: push them out of reach
  // and rely on the victim's cooperative self-suspicion. The real-time
  // detector has its own (uncontrolled) unit test.
  eopts.membership.deadline_mult = 1e6;
  report.victim = eopts.victim;
  report.kill_iteration = eopts.kill_iteration;
  report.rejoin_delay = eopts.rejoin_delay;

  core::ElasticRuntime runtime(eopts);
  if (!runtime.rejection().empty()) {
    report.elastic = runtime.TakeReport();
    report.ok = false;
    report.failure = "rejected: " + runtime.rejection();
    return report;
  }

  check::Checker& checker = check::Checker::Get();
  check::CheckerOptions copts;
  copts.watchdog_timeout_s = 0.0;  // the controller owns liveness here
  checker.Enable(world, copts);
  checker.SetTripHandler([&runtime] { runtime.hub().Shutdown(); });

  RandomWalkPicker picker(seed);
  ControllerOptions sched;
  sched.expected_workers = 2 * world;  // compute "rank.N" + engine "comm.N"
  sched.on_deadlock = [&runtime] { runtime.hub().Shutdown(); };
  report.schedule = RunUnderSchedule(picker, sched, [&runtime, world] {
    std::vector<std::thread> ranks;
    ranks.reserve(static_cast<std::size_t>(world));
    for (comm::Rank r = 0; r < world; ++r)
      ranks.emplace_back([&runtime, r] { runtime.RunRank(r); });
    for (auto& t : ranks) t.join();
  });

  report.checker_tripped = checker.tripped();
  report.checker_report = checker.report();
  checker.SetTripHandler(nullptr);
  checker.Disable();
  report.elastic = runtime.TakeReport();
  report.elastic.checker_tripped = report.checker_tripped;
  report.elastic.checker_report = report.checker_report;

  Verdict v;
  v.Expect(!report.schedule.deadlock, "controller declared a deadlock");
  v.Expect(!report.checker_tripped,
           "dearcheck tripped: " + report.checker_report);
  v.Expect(report.elastic.ok, "elastic run failed: " + report.elastic.failure);

  // Which ranks must be alive (with parameters) at the end of the run?
  std::vector<comm::Rank> expected_live;
  for (comm::Rank r = 0; r < world; ++r) {
    if (eopts.victim >= 0 && eopts.rejoin_delay < 0 && r == eopts.victim)
      continue;
    expected_live.push_back(r);
  }
  for (const comm::Rank r : expected_live) {
    const auto& params =
        report.elastic.final_params[static_cast<std::size_t>(r)];
    v.Expect(!params.empty(),
             "rank " + std::to_string(r) + " finished without parameters");
  }
  if (v.ok) {
    const auto& first =
        report.elastic.final_params[static_cast<std::size_t>(expected_live[0])];
    for (const comm::Rank r : expected_live)
      ExpectBitwiseAll(
          v, "final parameters rank " + std::to_string(r) + " vs rank " +
                 std::to_string(expected_live[0]),
          report.elastic.final_params[static_cast<std::size_t>(r)], first);
  }

  // Segment shape: epoch 0 always; crash adds a survivor re-form; rejoin
  // adds the readmission re-form. Epochs must be strictly increasing and
  // iteration bases monotone.
  const auto& segs = report.elastic.segments;
  std::size_t want_segs = 1;
  if (eopts.victim >= 0 && eopts.kill_iteration >= 0) {
    want_segs = eopts.rejoin_delay >= 0 ? 3 : 2;
  }
  v.Expect(segs.size() == want_segs,
           "expected " + std::to_string(want_segs) + " segments, got " +
               std::to_string(segs.size()));
  for (std::size_t k = 0; v.ok && k + 1 < segs.size(); ++k) {
    v.Expect(segs[k].epoch < segs[k + 1].epoch, "segment epochs not increasing");
    v.Expect(segs[k].first_iteration <= segs[k + 1].first_iteration,
             "segment iteration bases not monotone");
  }

  // The gradient oracle: each re-form's base parameters must equal the
  // sequential replay of the predecessor segment, and every survivor's
  // final parameters the replay of the last segment to the end of the run.
  for (std::size_t k = 0; v.ok && k + 1 < segs.size(); ++k) {
    const std::vector<float> replay =
        core::SequentialOracle(eopts, segs[k], segs[k + 1].first_iteration);
    ExpectNearAll(v,
                  "segment " + std::to_string(k + 1) +
                      " base vs sequential oracle",
                  segs[k + 1].base_params, replay);
  }
  if (v.ok && !segs.empty()) {
    const std::vector<float> replay =
        core::SequentialOracle(eopts, segs.back(), eopts.iterations);
    ExpectNearAll(
        v, "final parameters vs sequential oracle",
        report.elastic.final_params[static_cast<std::size_t>(expected_live[0])],
        replay);
  }

  // Transition-log shape (the golden test pins the exact sequence; here we
  // only require the landmark kinds to be present).
  if (eopts.victim >= 0 && eopts.kill_iteration >= 0) {
    const std::string& log = report.elastic.transition_log;
    v.Expect(log.find("suspect") != std::string::npos,
             "transition log missing the suspect event:\n" + log);
    v.Expect(log.find("reform") != std::string::npos,
             "transition log missing a reform event:\n" + log);
    if (eopts.rejoin_delay >= 0)
      v.Expect(log.find("readmit") != std::string::npos,
               "transition log missing the readmit event:\n" + log);
  }

  report.ok = v.ok;
  report.failure = std::move(v.failure);
  return report;
}

}  // namespace dear::schedlab
