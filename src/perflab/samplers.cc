#include "perflab/samplers.h"

#include "comm/communicator.h"
#include "comm/kernels.h"

namespace dear::perflab {

void RsAgHops(comm::TransportHub& hub, int world, comm::DType dtype,
              Fold fold, std::span<float> acc, std::span<const float> wire) {
  const std::size_t chunk = acc.size() / static_cast<std::size_t>(world);
  for (int s = 0; s < world - 1; ++s) {  // reduce-scatter rounds
    const auto tag = static_cast<std::uint32_t>(s);
    hub.Send(0, 0, tag, wire.subspan(0, chunk), /*epoch=*/0, dtype);
    auto msg = hub.Recv(0, 0, tag);
    const std::span<float> into = acc.subspan(0, chunk);
    if (fold == Fold::kScalar) {
      comm::kernels::internal::ReduceIntoScalar(comm::ReduceOp::kSum, into,
                                                msg->payload.span());
    } else {
      comm::kernels::ReduceInto(comm::ReduceOp::kSum, into, msg->payload);
    }
  }
  for (int s = 0; s < world - 1; ++s) {  // all-gather rounds (copy out)
    const auto tag = static_cast<std::uint32_t>(100 + s);
    hub.Send(0, 0, tag, wire.subspan(0, chunk), /*epoch=*/0, dtype);
    auto msg = hub.Recv(0, 0, tag);
    comm::kernels::UnpackInto(
        acc.subspan(chunk * static_cast<std::size_t>(s), chunk), msg->payload);
  }
}

EngineRing::EngineRing(int world, std::size_t elems)
    : hub_(world),
      buffers_(static_cast<std::size_t>(world),
               std::vector<float>(elems, 1.0f)) {
  for (int r = 0; r < world; ++r) {
    engines_.push_back(
        std::make_unique<comm::CommEngine>(comm::Communicator(&hub_, r)));
  }
}

EngineRing::~EngineRing() {
  for (auto& engine : engines_) engine->Shutdown();
}

void EngineRing::AllReduce() {
  std::vector<comm::CollectiveHandle> handles;
  handles.reserve(engines_.size());
  for (std::size_t r = 0; r < engines_.size(); ++r) {
    handles.push_back(engines_[r]->SubmitAllReduce(
        std::span<float>(buffers_[r]), comm::ReduceOp::kAvg));
  }
  for (auto& h : handles) (void)h.Wait();
}

}  // namespace dear::perflab
