#include "flightrec/recorder.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string_view>

#include "comm/types.h"  // header-only tag/kind/dtype decode for the dump text

namespace dear::flightrec {

namespace detail {
thread_local constinit std::uint64_t t_cached_now_ns = 0;
}  // namespace detail

namespace {

std::mutex& GrowthMutex() {
  static std::mutex m;
  return m;
}

std::chrono::steady_clock::time_point Origin() {
  static const auto origin = std::chrono::steady_clock::now();
  return origin;
}

#ifdef DEAR_FLIGHTREC_TSC
// One-time calibration of the inline TSC clock (recorder.h) against
// steady_clock over a ~2 ms window (sampling jitter of ~100 ns over 2 ms
// keeps the rate within ~50 ppm). Runs as a load-time initializer so the
// per-event path carries no init guard; any record journaled from another
// translation unit's static initializer just reads timestamp 0.
bool CalibrateTsc() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t tsc0 = __rdtsc();
  for (;;) {
    const auto t1 = std::chrono::steady_clock::now();
    if (t1 - t0 >= std::chrono::milliseconds(2)) {
      const std::uint64_t tsc1 = __rdtsc();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      const double ticks = static_cast<double>(tsc1 - tsc0);
      detail::g_tsc_clock.tsc0 = tsc0;
      detail::g_tsc_clock.mult_q32 =
          ticks > 0 && ns > 0
              ? static_cast<std::uint64_t>(ns / ticks * 4294967296.0)
              : (1ULL << 32);
      return true;
    }
  }
}

const bool g_tsc_calibrated = CalibrateTsc();
#endif

const char* DumpPrefix() {
  static const char* prefix = std::getenv("DEAR_FLIGHTREC_DUMP");
  return prefix;
}

}  // namespace

#ifdef DEAR_FLIGHTREC_TSC
namespace detail {
TscClock g_tsc_clock{0, 0};
}  // namespace detail
#else
std::uint64_t NowNs() noexcept {
  const auto now = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - Origin())
          .count();
  detail::t_cached_now_ns = static_cast<std::uint64_t>(ns);
  return detail::t_cached_now_ns;
}
#endif

Recorder::Recorder() : capacity_(kDefaultCapacity) {
  if (const char* env = std::getenv("DEAR_FLIGHTREC_CAPACITY")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) capacity_ = static_cast<std::size_t>(v);
  }
  Origin();  // pin the fallback clock origin at recorder birth
}

Recorder& Recorder::Get() {
  static Recorder* instance = new Recorder();  // leaked: outlives threads
  return *instance;
}

void Recorder::EnsureRanks(int world) {
  if (world <= ranks()) return;
  std::lock_guard<std::mutex> lock(GrowthMutex());
  int cur = ranks_.load(std::memory_order_relaxed);
  const int want = world < kMaxRanks ? world : kMaxRanks;
  for (; cur < want; ++cur) {
    journals_[static_cast<std::size_t>(cur)] = new Journal(capacity_);
  }
  ranks_.store(cur, std::memory_order_release);
}

void Recorder::OnCollectiveBegin(int rank, std::uint16_t kind,
                                 std::size_t elems) noexcept {
  Journal* j = journal(rank);
  if (j == nullptr) return;
  Record rec;
  rec.ts_ns = detail::NowTicks();
  rec.tag = kind;
  rec.payload = elems > 0xFFFFFFFFu ? 0xFFFFFFFFu
                                    : static_cast<std::uint32_t>(elems);
  rec.kind = static_cast<std::uint16_t>(EventKind::kCollectiveBegin);
  j->AppendTicked(rec);
}

void Recorder::OnCollectiveEnd(int rank, std::uint16_t kind,
                               std::uint8_t dtype) noexcept {
  Journal* j = journal(rank);
  if (j == nullptr) return;
  Record rec;
  rec.ts_ns = detail::NowTicks();
  rec.tag = kind;
  rec.payload = dtype;
  rec.kind = static_cast<std::uint16_t>(EventKind::kCollectiveEnd);
  j->AppendTicked(rec);
}

void Recorder::OnGroupEvent(int rank, int group, EventKind kind,
                            std::uint32_t payload, int row) noexcept {
  Journal* j = journal(rank);
  if (j == nullptr) return;
  Record rec;
  rec.ts_ns = detail::NowTicks();
  rec.tag = group >= 0 ? static_cast<std::uint32_t>(group) : 0;
  rec.payload = payload;
  rec.peer = row >= 0 && row < static_cast<int>(kNoPeer)
                 ? static_cast<std::uint16_t>(row)
                 : kNoPeer;
  rec.kind = static_cast<std::uint16_t>(kind);
  j->AppendTicked(rec);
}

void Recorder::OnShutdown(int world) noexcept {
  const int n = world < ranks() ? world : ranks();
  for (int r = 0; r < n; ++r) {
    Journal* j = journal(r);
    if (j == nullptr) continue;
    Record rec;
    rec.ts_ns = detail::NowTicks();
    rec.kind = static_cast<std::uint16_t>(EventKind::kShutdown);
    j->AppendTicked(rec);
  }
  MaybeWriteDump("shutdown");
}

std::vector<std::vector<Record>> Recorder::SnapshotAll() const {
  const int n = ranks();
  std::vector<std::vector<Record>> out(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& records = out[static_cast<std::size_t>(r)];
    journals_[static_cast<std::size_t>(r)]->SnapshotInto(records);
    // Records carry raw clock ticks (detail::NowTicks keeps the per-event
    // cost to the bare cycle-counter read); surface nanoseconds.
    for (Record& rec : records) rec.ts_ns = detail::TicksToNs(rec.ts_ns);
  }
  return out;
}

std::string Recorder::DumpTail(std::size_t n) const {
  const auto snapshots = SnapshotAll();
  std::string out;
  char buf[256];
  for (std::size_t r = 0; r < snapshots.size(); ++r) {
    const auto& records = snapshots[r];
    const Journal* j = journals_[r];
    std::snprintf(buf, sizeof(buf),
                  "  rank %zu flight recorder: %llu events total, last %zu:\n",
                  r, static_cast<unsigned long long>(j->total()),
                  records.size() < n ? records.size() : n);
    out += buf;
    const std::size_t first =
        records.size() > n ? records.size() - n : std::size_t{0};
    for (std::size_t i = first; i < records.size(); ++i) {
      const Record& rec = records[i];
      const auto kind = static_cast<EventKind>(rec.kind);
      std::snprintf(buf, sizeof(buf), "    t=%9.3fus L=%-5u %-11s",
                    static_cast<double>(rec.ts_ns) / 1e3, rec.lamport,
                    KindName(kind));
      out += buf;
      switch (kind) {
        case EventKind::kSend:
        case EventKind::kRecv:
          std::snprintf(buf, sizeof(buf),
                        " peer=%u msg=%d:%u [%s] %u bytes", rec.peer,
                        causal::SrcOf(rec.causal), causal::SeqOf(rec.causal),
                        comm::tags::Describe(rec.tag).c_str(), rec.payload);
          out += buf;
          break;
        case EventKind::kCollectiveBegin:
          std::snprintf(buf, sizeof(buf), " %s (%u elems)",
                        comm::CollectiveKindName(rec.tag), rec.payload);
          out += buf;
          break;
        case EventKind::kCollectiveEnd: {
          const std::string_view dtype =
              rec.payload < comm::kNumDTypes
                  ? comm::DTypeName(static_cast<comm::DType>(rec.payload))
                  : "unknown";
          std::snprintf(buf, sizeof(buf), " %s (%.*s wire)",
                        comm::CollectiveKindName(rec.tag),
                        static_cast<int>(dtype.size()), dtype.data());
          out += buf;
          break;
        }
        case EventKind::kRsLaunch:
        case EventKind::kRsComplete:
        case EventKind::kAgLaunch:
        case EventKind::kAgComplete:
        case EventKind::kUnpack:
        case EventKind::kWaitBegin:
          std::snprintf(buf, sizeof(buf), " group=%u op=%u", rec.tag,
                        rec.payload);
          out += buf;
          break;
        case EventKind::kStepEnd:
          std::snprintf(buf, sizeof(buf), " step=%u", rec.payload);
          out += buf;
          break;
        case EventKind::kEpoch: {
          const std::uint32_t tkind = rec.payload >> 16;
          const int subject = static_cast<int>(rec.payload & 0xFFFFu) - 1;
          if (tkind == 0) {
            std::snprintf(buf, sizeof(buf), " observed e%u", rec.tag);
          } else {
            std::snprintf(buf, sizeof(buf), " e%u kind=%u subject=%d",
                          rec.tag, tkind, subject);
          }
          out += buf;
          break;
        }
        case EventKind::kStaleDrop:
          std::snprintf(buf, sizeof(buf),
                        " peer=%u msg=%d:%u msg_epoch=%u cur_epoch=%u",
                        rec.peer, causal::SrcOf(rec.causal),
                        causal::SeqOf(rec.causal), rec.payload >> 16,
                        rec.payload & 0xFFFFu);
          out += buf;
          break;
        case EventKind::kShutdown:
          break;
      }
      out += '\n';
    }
  }
  return out;
}

std::string Recorder::MaybeWriteDump(const char* why) const {
  const char* prefix = DumpPrefix();
  if (prefix == nullptr || prefix[0] == '\0') return {};
  std::string path = std::string(prefix) + "-" + why + ".txt";
  std::ofstream f(path);
  if (!f) return {};
  f << "flight-recorder dump (" << why << ")\n" << DumpTail(64);
  return path;
}

void Recorder::Reset() {
  const int n = ranks();
  for (int r = 0; r < n; ++r) journals_[static_cast<std::size_t>(r)]->Reset();
  // A reset is a full rewind to process birth: restart the causal sequence
  // counters too. Post-reset IDs may repeat pre-reset ones, but the
  // journals that held those are gone.
  for (auto& chan : send_seq_) chan.store(0, std::memory_order_relaxed);
}

}  // namespace dear::flightrec
