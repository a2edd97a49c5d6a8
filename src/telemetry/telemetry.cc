#include "telemetry/telemetry.h"

namespace dear::telemetry {

Runtime& Runtime::Get() {
  static Runtime* runtime = new Runtime();  // leaked: outlives all threads
  return *runtime;
}

void Runtime::Enable(int world_size) {
  enabled_.store(false, std::memory_order_relaxed);
  world_size_ = world_size < 0 ? 0 : world_size;
  ranks_.clear();
  for (int r = 0; r < world_size_; ++r) {
    ranks_.push_back(std::make_unique<RankState>());
    MetricsRegistry& reg = ranks_.back()->metrics;
    ranks_.back()->transport = {&reg.GetCounter("comm.messages_sent"),
                                &reg.GetCounter("comm.bytes_sent"),
                                &reg.GetCounter("comm.messages_received"),
                                &reg.GetCounter("comm.bytes_received"),
                                {&reg.GetCounter("comm.wire_bytes.f32"),
                                 &reg.GetCounter("comm.wire_bytes.f16"),
                                 &reg.GetCounter("comm.wire_bytes.bf16")}};
  }
  global_.Reset();
  pool_ = {&global_.GetCounter("transport.pool.hits"),
           &global_.GetCounter("transport.pool.misses"),
           &global_.GetCounter("transport.pool.releases"),
           &global_.GetCounter("transport.pool.bytes_acquired"),
           &global_.GetGauge("transport.pool.bytes_in_flight")};
  enabled_.store(true, std::memory_order_release);
}

void OnMessageSent(int src, std::size_t bytes, int dtype_index) noexcept {
  Runtime& rt = Runtime::Get();
  if (!rt.enabled()) return;
  auto* tc = rt.transport_counters(src);
  if (!tc) return;
  tc->messages_sent->Add(1);
  tc->bytes_sent->Add(static_cast<std::int64_t>(bytes));
  if (dtype_index < 0 || dtype_index >= 3) dtype_index = 0;
  tc->wire_bytes_by_dtype[dtype_index]->Add(static_cast<std::int64_t>(bytes));
}

void OnMessageReceived(int dst, std::size_t bytes) noexcept {
  Runtime& rt = Runtime::Get();
  if (!rt.enabled()) return;
  auto* tc = rt.transport_counters(dst);
  if (!tc) return;
  tc->messages_received->Add(1);
  tc->bytes_received->Add(static_cast<std::int64_t>(bytes));
}

void OnPoolAcquire(bool hit, std::size_t bytes,
                   std::int64_t in_flight_bytes) noexcept {
  Runtime& rt = Runtime::Get();
  if (!rt.enabled()) return;
  Runtime::PoolCounters* pc = rt.pool_counters();
  (hit ? pc->hits : pc->misses)->Add(1);
  pc->bytes_acquired->Add(static_cast<std::int64_t>(bytes));
  pc->bytes_in_flight->Set(static_cast<double>(in_flight_bytes));
}

void OnPoolRelease(std::int64_t in_flight_bytes) noexcept {
  Runtime& rt = Runtime::Get();
  if (!rt.enabled()) return;
  Runtime::PoolCounters* pc = rt.pool_counters();
  pc->releases->Add(1);
  pc->bytes_in_flight->Set(static_cast<double>(in_flight_bytes));
}

}  // namespace dear::telemetry
