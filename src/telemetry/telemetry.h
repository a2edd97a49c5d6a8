// Ambient runtime-telemetry session for the real (threaded) runtime:
// metrics only. A process-wide Runtime holds one MetricsRegistry per rank
// and a process-global registry (for rank-less components like the BO
// tuner). Timelines and collective counts are not telemetry's job: the
// always-on flight recorder (src/flightrec) journals every event, and the
// Chrome trace, attribution, `dearsim profile`'s per-collective table and
// checker dumps all read that journal (DESIGN.md §7). Nothing here includes
// a comm/ header (lint rule telemetry-no-collectives).
//
// The hot-path hooks below are called from one place, comm/probe.h, and
// reduce to a single relaxed atomic load when telemetry is disabled (the
// default), so they stay compiled into the hot paths; see the overhead
// note in README.md §Observability.
//
// Enable()/Disable() must be called from a quiescent point (no in-flight
// collectives) — typically around a whole training session.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/metrics.h"

namespace dear::telemetry {

class Runtime {
 public:
  /// Process-wide instance.
  static Runtime& Get();

  /// Starts a session for `world_size` ranks with fresh registries.
  /// Replaces any previous session's data.
  void Enable(int world_size);
  /// Stops recording; the last session's data stays readable until the
  /// next Enable().
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Per-rank registry, or nullptr when no session covers `rank`.
  /// (Valid after Disable() too, for post-run reporting.)
  [[nodiscard]] MetricsRegistry* rank_metrics(int rank) noexcept {
    if (rank < 0 || rank >= world_size_) return nullptr;
    return &ranks_[static_cast<std::size_t>(rank)]->metrics;
  }
  /// Registry for rank-less components (e.g. the BO tuner driving the
  /// simulator); always non-null.
  [[nodiscard]] MetricsRegistry& global_metrics() noexcept { return global_; }

  /// Pre-resolved per-rank transport counters so the per-message hooks are
  /// a few relaxed atomic adds — no name lookup on the hot path.
  /// `wire_bytes_by_dtype` splits bytes_sent by the payload's wire dtype
  /// (index = comm::DType value: 0 f32, 1 f16, 2 bf16; registered as
  /// "comm.wire_bytes.<dtype>"), the counters `dearsim profile` surfaces
  /// to show what mixed precision saved on the wire.
  struct TransportCounters {
    Counter* messages_sent{nullptr};
    Counter* bytes_sent{nullptr};
    Counter* messages_received{nullptr};
    Counter* bytes_received{nullptr};
    Counter* wire_bytes_by_dtype[3] = {nullptr, nullptr, nullptr};
  };
  [[nodiscard]] TransportCounters* transport_counters(int rank) noexcept {
    if (rank < 0 || rank >= world_size_) return nullptr;
    return &ranks_[static_cast<std::size_t>(rank)]->transport;
  }

  /// Pre-resolved buffer-pool counters (global registry — pools are
  /// per-hub, not per-rank) so the Acquire/Release hooks stay two relaxed
  /// adds plus a gauge store.
  struct PoolCounters {
    Counter* hits{nullptr};
    Counter* misses{nullptr};
    Counter* releases{nullptr};
    Counter* bytes_acquired{nullptr};
    Gauge* bytes_in_flight{nullptr};
  };
  [[nodiscard]] PoolCounters* pool_counters() noexcept { return &pool_; }

 private:
  Runtime() = default;
  struct RankState {
    MetricsRegistry metrics;
    TransportCounters transport;
  };
  std::atomic<bool> enabled_{false};
  int world_size_{0};
  std::vector<std::unique_ptr<RankState>> ranks_;
  PoolCounters pool_;
  MetricsRegistry global_;
};

// ---- Hot-path hooks (no-ops unless a session is enabled) -----------------

/// Transport accounting: one message of `bytes` *wire* payload left rank
/// `src` / arrived at rank `dst`. `dtype_index` is the payload's wire
/// dtype (comm::DType value, 0 = fp32) and feeds the per-dtype wire-byte
/// counters; out-of-range values fold into the fp32 bucket.
void OnMessageSent(int src, std::size_t bytes, int dtype_index = 0) noexcept;
void OnMessageReceived(int dst, std::size_t bytes) noexcept;

/// Buffer-pool accounting (global registry, "transport.pool.*"): one slab
/// of `bytes` capacity was acquired from the free list (`hit`) or the heap
/// (miss), or released. `in_flight_bytes` is the pool's outstanding
/// capacity after the operation, mirrored into a gauge.
void OnPoolAcquire(bool hit, std::size_t bytes,
                   std::int64_t in_flight_bytes) noexcept;
void OnPoolRelease(std::int64_t in_flight_bytes) noexcept;

}  // namespace dear::telemetry
